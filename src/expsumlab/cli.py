"""Command-line front end: JSON job files in, JSON reports + aligned text out.

Subcommands
  sum       power-sum table S_1..S_M for a variety/function pair
  lfun      sums + certified rational reconstruction (+ optional prediction
            comparison verdict)
  predict   a single degree prediction (chern / curve / betti / newton /
            sl2 / fermat payloads)
  radius    radius-of-convergence profile of a rank-one operator d/dx - g
  index     radius profile + annulus index from the endpoint slopes
  verify    named end-to-end cases with bundled expected records

Exit codes: 0 ok; 1 failed assertions; 2 schema violation or unknown case;
3 work budget exceeded; 4 reconstruction not certified; 5 radius profile
not stabilized.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import lfun, predict
from .expsum import (DEFAULT_BUDGET, BudgetExceededError, VarietySpec,
                     exact_int, power_sum_table, scaled_degree_check)
from .ffield import _jsonable, build_field, is_prime
from .lfun import ReconstructionError
from .padic import (DEFAULT_GRID, DEFAULT_S_MAX, NonStabilizedError, PiNumber,
                    RationalFunctionPi, radius_profile, recurrence_work,
                    robba_index)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_BUDGET = 3
EXIT_UNCERTIFIED = 4
EXIT_UNSTABLE = 5


class SchemaError(ValueError):
    """Job document does not match the documented schema."""


def _require(doc: dict, key: str, kind=None):
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    if kind is not None and not isinstance(doc[key], kind):
        raise SchemaError(f"field {key!r} has the wrong type")
    return doc[key]


def _positive_int(value, name: str, least: int | None = 1) -> int:
    """value as an int of at least `least` (any int if least is None), read
    as expsum.exact_int reads it; SchemaError naming `name` if not."""
    try:
        number = exact_int(value, name)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    if least is not None and number < least:
        raise SchemaError(f"{name} must be at least {least}, got {number}")
    return number


def _rational(value, name: str) -> Fraction:
    """value as a Fraction; SchemaError naming `name` if not."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(
            f"{name} must be a rational number, got {value!r}") from None


def _prime(value, name: str) -> int:
    """value as a prime int; SchemaError naming `name` if not."""
    number = _positive_int(value, name, least=2)
    if not is_prime(number):
        raise SchemaError(f"{name} must be a prime, got {number}")
    return number


def _dump_report(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True,
                      separators=(",", ":")) + "\n"


def _table(rows) -> str:
    """Aligned two-column plain-text table."""
    rows = [(str(a), str(b)) for a, b in rows]
    width = max((len(a) for a, _ in rows), default=0)
    return "\n".join(f"{a:<{width}}  {b}" for a, b in rows) + "\n"


# -- payload parsing -------------------------------------------------------------

def _parse_base(doc: dict):
    base = _require(doc, "base", dict)
    return build_field(_prime(_require(base, "p"), "base.p"),
                       _positive_int(base.get("n", 1), "base.n"))


def _parse_variety(doc: dict, base) -> VarietySpec:
    try:
        return VarietySpec.from_json(_require(doc, "variety", dict), base)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"bad variety payload: {exc}") from exc


def _parse_pi_coeff(p: int, entry) -> PiNumber:
    if isinstance(entry, list):
        if len(entry) != p - 1:
            raise SchemaError(f"pi-coordinates need length {p - 1}")
        return PiNumber(p, [_rational(x, "g coefficient") for x in entry])
    return PiNumber.rational(p, _rational(entry, "g coefficient"))


def _parse_operator(doc: dict):
    p = _prime(_require(doc, "p"), "p")
    g = _require(doc, "g", dict)
    num = [_parse_pi_coeff(p, c) for c in _require(g, "num", list)]
    den = [_parse_pi_coeff(p, c) for c in _require(g, "den", list)]
    try:
        return p, RationalFunctionPi(p, num, den)
    except ZeroDivisionError as exc:
        raise SchemaError(str(exc)) from exc


def _parse_grid(text_or_list):
    """The radius weights: at least two distinct positive rationals."""
    if not isinstance(text_or_list, (list, tuple)):
        raise SchemaError("grid must be a list of weights")
    grid = tuple(_rational(x, "grid weight") for x in text_or_list)
    if len(grid) < 2:
        raise SchemaError("grid needs at least two weights for slopes")
    if any(x <= 0 for x in grid):
        raise SchemaError("grid weights must be positive")
    if len(set(grid)) < len(grid):
        raise SchemaError("grid weights must be distinct")
    return grid


def _parse_prediction(doc: dict):
    kind = _require(doc, "kind")

    def num(key):
        return _positive_int(doc[key], key, least=None)

    def nums(key, entries=None):
        return tuple(_positive_int(x, key, least=None)
                     for x in (doc[key] if entries is None else entries))

    try:
        if kind == "chern":
            spec = predict.ChernSpec(num("n"), nums("d"), nums("e"))
            value = predict.chern_degree(spec)
            return {"kind": kind, "predicted_degree": abs(value),
                    "signed_euler": value}
        if kind == "curve":
            spec = predict.CurveSpec(num("g"), num("c"), num("m"), num("d"))
            return {"kind": kind,
                    "predicted_degree": predict.curve_degree(spec)}
        if kind == "betti":
            spec = predict.BettiSpec(num("n"), nums("b"))
            deg, bound = predict.betti_degree(spec)
            return {"kind": kind, "predicted_degree": deg,
                    "total_bound": bound}
        if kind == "newton":
            spec = predict.NewtonSpec(num("n"), tuple(
                nums("support", v) for v in doc["support"]))
            value, degenerate = predict.newton_report(spec)
            return {"kind": kind, "predicted_degree": value,
                    "degenerate": degenerate}
        if kind == "sl2":
            return {"kind": kind,
                    "predicted_degree": predict.sl2_degree(num("N"))}
        if kind == "fermat":
            return {"kind": kind,
                    **predict.fermat_discrepancy_report(num("n"))}
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"bad {kind} prediction payload: {exc}") from exc
    raise SchemaError(f"unknown prediction kind {kind!r}")


# -- job runners -----------------------------------------------------------------

def run_job(spec: dict):
    """Execute one job document; returns (report dict, human-readable text)."""
    if not isinstance(spec, dict):
        raise SchemaError("job document must be a JSON object")
    command = _require(spec, "command")
    payload = _require(spec, "payload", dict)
    budget = _positive_int(spec.get("budget", DEFAULT_BUDGET), "budget")
    threads = _positive_int(spec.get("threads", 1), "threads")
    if command == "sum":
        return _run_sum(payload, budget, threads)
    if command == "lfun":
        return _run_lfun(payload, budget, threads)
    if command == "predict":
        report = _parse_prediction(payload)
        return report, _table(sorted(report.items()))
    if command == "radius":
        return _run_radius(spec, payload, budget, want_index=False)
    if command == "index":
        return _run_radius(spec, payload, budget, want_index=True)
    if command == "verify":
        from .verify import verify_suite
        report = verify_suite(_require(payload, "case"))
        return report, _verify_table(report)
    raise SchemaError(f"unknown command {command!r}")


def _run_sum(payload: dict, budget: int, threads: int):
    base = _parse_base(payload)
    v = _parse_variety(payload, base)
    M = _positive_int(_require(payload, "levels"), "levels")
    seq = power_sum_table(v, base, M, budget=budget, threads=threads)[0]
    report = {"command": "sum", **seq.to_json(),
              "points": [pr["counted"] for pr in seq.progress],
              "progress": [{"m": pr["m"], "points": pr["points"]}
                           for pr in seq.progress]}
    rows = [("m", "S_m coordinates")] + [
        (rec["m"], rec["coords"]) for rec in report["records"]]
    return report, _table(rows)


def _run_lfun(payload: dict, budget: int, threads: int):
    base = _parse_base(payload)
    v = _parse_variety(payload, base)
    M = _positive_int(_require(payload, "levels"), "levels")
    scale = payload.get("scale")
    if scale is not None:
        scale = _positive_int(scale, "scale", least=None)
        for key in ("bounds", "predict"):
            if key in payload:
                raise SchemaError(f"scale cannot be combined with {key}")
        if scale % base.p == 0:
            raise SchemaError(f"scale must be nonzero mod {base.p}, "
                              f"got {scale}")
        rep = scaled_degree_check(v, base, scale, M, budget=budget,
                                  threads=threads)
        report = {"command": "lfun", "scale": scale,
                  "lseries": rep.lseries.to_json(),
                  "lseries_scaled": rep.lseries_scaled.to_json(),
                  "degree_equal": rep.degree_equal,
                  "total_degree_equal": rep.total_degree_equal,
                  "twist_checked": rep.twist_checked,
                  "twist_holds": rep.twist_holds,
                  "passed": rep.passed}
        return report, _table([("scale", scale),
                               ("degree equal", rep.degree_equal),
                               ("total degree equal", rep.total_degree_equal),
                               ("twist identity", rep.twist_holds)])
    # the rest of the payload is read before any enumeration starts
    bounds = payload.get("bounds")
    if bounds is not None:
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise SchemaError("bounds must be a pair [deg P, deg Q]")
        bounds = [_positive_int(b, "bounds", least=0) for b in bounds]
    verdict = (_parse_prediction(_require(payload, "predict", dict))
               if "predict" in payload else None)
    seq = power_sum_table(v, base, M, budget=budget, threads=threads)[0]
    series = lfun.exp_power_sums(seq)
    if bounds is not None:
        L = lfun.pade_reconstruct(series, *bounds)
    else:
        L = lfun.reconstruct_auto(series)
    if not lfun.log_derivative_check(L, seq):
        raise ReconstructionError("logarithmic-derivative identity failed")
    report = {"command": "lfun", "sums": seq.to_json(),
              "lseries": L.to_json()}
    rows = [("degree", lfun.degree(L)),
            ("total degree", lfun.total_degree(L)),
            ("certified order", L.certified_order)]
    if verdict is not None:
        predicted = verdict["predicted_degree"]
        observed = lfun.degree(L)
        match = predicted in (observed, abs(observed))
        report["prediction"] = verdict
        report["observed_degree"] = observed
        report["match"] = match
        rows += [("predicted degree", predicted), ("match", match)]
    return report, _table(rows)


def _run_radius(spec: dict, payload: dict, budget: int, want_index: bool):
    p, g = _parse_operator(payload)
    s_max = _positive_int(spec.get("smax", payload.get("smax", DEFAULT_S_MAX)),
                          "smax", least=2)
    grid = _parse_grid(spec.get("grid", payload.get("grid", DEFAULT_GRID)))
    work = recurrence_work(g, s_max)
    if work > budget:
        raise BudgetExceededError(
            f"smax {s_max} needs ~{work} work units (symbol coordinates "
            f"times bits); budget is {budget}")
    prof = radius_profile(g, grid, s_max)
    samples = [{"lambda": s.lam, "r": s.r, "stabilized": s.stabilized,
                "method": s.method, "den_tie": s.den_tie}
               for s in prof.samples]
    report = {"command": "index" if want_index else "radius", "p": p,
              "samples": samples,
              "endpoint_slopes": list(prof.endpoint_slopes)}
    if want_index:
        report["index"] = robba_index(prof)
    rows = [("lambda", "r  (stabilized)")] + [
        (s.lam, f"{s.r}  ({'yes' if s.stabilized else 'NO'})")
        for s in prof.samples]
    if want_index:
        rows.append(("index", report["index"]))
    return report, _table(rows)


def _verify_table(report: dict) -> str:
    rows = [(c["name"], "ok" if c["ok"] else
             f"FAIL (expected {c['expected']}, got {c['actual']})")
            for c in report["checks"]]
    rows.append(("case " + report["case"],
                 "PASS" if report["passed"] else "FAIL"))
    return _table(rows)


# -- csv exports -----------------------------------------------------------------

_CSV_COMMANDS = ("sum", "radius", "index")


def _csv_for(report: dict) -> str:
    if report["command"] == "sum":
        width = len(report["records"][0]["coords"])
        lines = ["m," + ",".join(f"coord_{i}" for i in range(width))]
        for rec in report["records"]:
            lines.append(",".join(str(x) for x in [rec["m"]] + rec["coords"]))
        return "\n".join(lines) + "\n"
    lines = ["lambda,r,stabilized"]   # radius and index
    for s in report["samples"]:
        lines.append(f"{s['lambda']},{s['r']},"
                     f"{'true' if s['stabilized'] else 'false'}")
    return "\n".join(lines) + "\n"


# -- entry point -------------------------------------------------------------------

class _CaseNames:
    """verify.CASES as argparse choices, imported when first read: only the
    verify command loads the verification cases."""

    def __iter__(self):
        from .verify import CASES
        return iter(CASES)

    def __contains__(self, name) -> bool:
        return name in tuple(self)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsumlab",
        description="exact exponential-sum L-series laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads
    for name in ("sum", "lfun", "predict", "radius", "index"):
        sp = sub.add_parser(name)
        sp.add_argument("--job", required=True,
                        help="JSON job file (see schemas/job.schema.json)")
        if name != "predict":
            sp.add_argument("--budget", type=int, default=None)
        if name in ("radius", "index"):
            sp.add_argument("--smax", type=int, default=None)
            sp.add_argument("--grid", default=None, help="comma-separated "
                            "rational weights, e.g. 1/4,1/2,1")
        if name in ("sum", "lfun"):
            sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--out", default=None, help="write JSON report here")
        sp.add_argument("--csv", default=None, help="write CSV export here")
    vp = sub.add_parser("verify")
    group = vp.add_mutually_exclusive_group(required=True)
    # set after add_argument, which would list the names, and so import
    # the cases, for every command
    group.add_argument("--case").choices = _CaseNames()
    group.add_argument("--all", action="store_true")
    vp.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            from .verify import CASES, UnknownCaseError, verify_suite
            names = CASES if args.all else (args.case,)
            try:
                reports = [verify_suite(n) for n in names]
            except UnknownCaseError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_SCHEMA
            text = "".join(_verify_table(r) for r in reports)
            payload = reports[0] if len(reports) == 1 else {
                "command": "verify", "cases": reports,
                "passed": all(r["passed"] for r in reports)}
            _emit(payload, text, args.out, None)
            ok = all(r["passed"] for r in reports)
            return EXIT_OK if ok else EXIT_FAIL
        with open(args.job) as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise SchemaError("job document must be a JSON object")
        if spec.get("command", args.command) != args.command:
            raise SchemaError(
                f"job file says {spec.get('command')!r}, "
                f"subcommand is {args.command!r}")
        spec["command"] = args.command
        if args.csv and args.command not in _CSV_COMMANDS:
            raise SchemaError(f"no CSV export for command {args.command!r}")
        spec.setdefault("payload", {})
        for key in ("budget", "smax", "grid", "threads"):
            val = getattr(args, key, None)
            if val is not None:
                spec[key] = val.split(",") if key == "grid" and \
                    isinstance(val, str) else val
        report, text = run_job(spec)
        _emit(report, text, args.out, args.csv)
        return EXIT_OK
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ReconstructionError as exc:
        print(f"reconstruction not certified: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except NonStabilizedError as exc:
        print(f"profile not stabilized: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (json.JSONDecodeError, OSError) as exc:
        print(f"cannot read job file: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


def _emit(report: dict, text: str, out_path, csv_path):
    blob = _dump_report(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(blob)
        sys.stdout.write(text)
    else:
        sys.stdout.write(blob)
        sys.stderr.write(text)
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(_csv_for(report))


if __name__ == "__main__":
    sys.exit(main())
