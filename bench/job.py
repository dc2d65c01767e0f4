"""Run one benchmark job in a fresh interpreter and print its timings.

    python3 bench/job.py MODE JOB_FILE RUN_ID

MODE is one of
  setup   import expsumlab and parse the job, then stop
  run     run the job through cli.run_job, as the `expsumlab` command does
  trace   run the same job stage by stage through the public functions of
          ffield, tables, expsum, lfun and padic, with a span around each call

The last stdout line is one JSON object: `parsed` and `done` on the
system-wide monotonic clock (so the parent can subtract its spawn time),
the canonical report bytes, `maxrss_kb` (ru_maxrss of this process) and,
in trace mode, the spans.  Nothing in src/ is changed; the spans are taken
here, around the calls.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id, and
    attributes such as counts and ru_maxrss growth."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"run": self.run_id, "id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rss0 = _maxrss_kb()
        rec["start"] = time.monotonic()
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            rec["rss_growth_kb"] = _maxrss_kb() - rss0
            self._stack.pop()


def _staged_lfun(spec: dict, tr: Tracer) -> dict:
    """cli._run_lfun (no scale, no bounds), one public call per span."""
    from expsumlab import cli, lfun
    from expsumlab.expsum import (DEFAULT_BUDGET, PowerSumSequence,
                                  VarietySpec, power_sum)
    from expsumlab.ffield import build_field
    from expsumlab.tables import get_tables

    payload = spec["payload"]
    budget = int(spec.get("budget", DEFAULT_BUDGET))
    threads = int(spec.get("threads", 1))
    p, n = int(payload["base"]["p"]), int(payload["base"].get("n", 1))
    levels = int(payload["levels"])

    towers = []
    for m in range(1, levels + 1):
        with tr.span("ffield.build_field", degree=n * m):
            towers.append(build_field(p, n * m))
    base = build_field(p, n)        # cached: the m = 1 tower
    v = VarietySpec.from_json(payload["variety"], base)
    for tower in towers:
        with tr.span("tables.build", degree=tower.n, elements=tower.q):
            get_tables(tower)
    values = []
    for m, tower in enumerate(towers, start=1):
        with tr.span("expsum.enum", level=m):
            values.append(power_sum(v, base, m, budget=budget,
                                    threads=threads, tower=tower))
    seq = PowerSumSequence(p, n, tuple(values))

    pade = lfun.pade_reconstruct

    def counted_pade(s, dP, dQ):
        with tr.span("lfun.pade", dP=dP, dQ=dQ) as rec:
            try:
                out = pade(s, dP, dQ)
            except lfun.ReconstructionError:
                rec["outcome"] = "rejected"
                raise
            rec["outcome"] = "certified"
            return out

    lfun.pade_reconstruct = counted_pade   # reconstruct_auto looks it up here
    try:
        with tr.span("lfun.exp"):
            series = lfun.exp_power_sums(seq)
        with tr.span("lfun.reconstruct"):
            L = lfun.reconstruct_auto(series)
        with tr.span("lfun.logcheck"):
            if not lfun.log_derivative_check(L, seq):
                raise lfun.ReconstructionError(
                    "logarithmic-derivative identity failed")
    finally:
        lfun.pade_reconstruct = pade

    report = {"command": "lfun", "sums": seq.to_json(),
              "lseries": L.to_json()}
    if "predict" in payload:
        verdict = cli._parse_prediction(payload["predict"])
        observed = lfun.degree(L)
        report["prediction"] = verdict
        report["observed_degree"] = observed
        report["match"] = verdict["predicted_degree"] in (observed,
                                                          abs(observed))
    return report


def _staged_index(spec: dict, tr: Tracer) -> dict:
    """cli._run_radius with the index, one public call per span."""
    from expsumlab import cli
    from expsumlab.padic import (DEFAULT_GRID, DEFAULT_S_MAX, radius_profile,
                                 robba_index)

    payload = spec["payload"]
    p, g = cli._parse_operator(payload)
    s_max = int(spec.get("smax", payload.get("smax", DEFAULT_S_MAX)))
    grid = cli._parse_grid(spec.get("grid", payload.get("grid", DEFAULT_GRID)))
    with tr.span("padic.profile", smax=s_max):
        prof = radius_profile(g, grid, s_max)
    with tr.span("padic.index"):
        index = robba_index(prof)
    samples = [{"lambda": s.lam, "r": s.r, "stabilized": s.stabilized,
                "method": s.method, "den_tie": s.den_tie}
               for s in prof.samples]
    return {"command": "index", "p": p, "samples": samples,
            "endpoint_slopes": list(prof.endpoint_slopes), "index": index}


def main(argv) -> int:
    mode, job_path, run_id = argv
    from expsumlab import cli

    with open(job_path) as fh:
        spec = json.load(fh)
    parsed = time.monotonic()
    out = {"parsed": parsed}
    if mode == "run":
        report, _ = cli.run_job(spec)
        out["report"] = cli._dump_report(report)
        out["done"] = time.monotonic()
    elif mode == "trace":
        tr = Tracer(run_id)
        staged = {"lfun": _staged_lfun, "index": _staged_index}
        with tr.span("job", command=spec["command"]):
            report = staged[spec["command"]](spec, tr)
            out["report"] = cli._dump_report(report)
        out["done"] = time.monotonic()
        if spec["command"] == "index":
            # outside the job: the recurrence alone, to split padic.profile
            from expsumlab.padic import symbol_sequence
            _, g = cli._parse_operator(spec["payload"])
            with tr.span("padic.symbols", smax=spec["smax"]):
                symbol_sequence(g, spec["smax"])
        out["spans"] = tr.spans
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    out["maxrss_kb"] = _maxrss_kb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
