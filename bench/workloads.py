"""The benchmark workloads: job documents made from a seed, the facts every
report must show, and the checks that compare the two.

Each workload is one CLI job built from a worked example of the paper and
chosen so that one planned optimisation does most of its work there
(sl2-f2: where an enumeration rewrite must do no harm):

  plane-f5        lfun, c*(x^2 y - x) on A^2 over F_5, levels 1..6
  sl2-f2          lfun, Tr(A) on SL2 over F_2, levels 1..8
  kloosterman-f5  lfun, a*x + b/x on G_m over F_5, levels 1..8
  dwork-p5        index, Dwork twist of (1/3)/x at p = 5, smax = 200

`small=True` gives the reduced sizes the self-test runs in seconds.
The seed picks coefficients only, never a point count or a table size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SL2_TRACE_SUMS = (2, 12, -40, -16, 352, -576, -1664, 7936)
DWORK_GRID = ("1/4", "1/2", "1", "3/2", "2")   # padic.DEFAULT_GRID
DWORK_R = ("1/2", "1", "2", "3", "4")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_note: str
    make_job: Callable[[int, bool], dict]
    expect: Callable[[dict], dict]
    check: Callable[[dict, dict], list]
    points: Callable[[dict], int] = lambda job: 0


def _unit(p: int, a: int = 1) -> list:
    """The rational a in Q(zeta_p) as LSeries.to_json writes it."""
    return [[a, 1]] + [[0, 1]] * (p - 2)


def _sums(report: dict) -> list:
    return [rec["coords"] for rec in report["sums"]["records"]]


def _lfun_job(p: int, variety: dict, levels: int, predict=None) -> dict:
    payload = {"base": {"p": p}, "variety": variety, "levels": levels}
    if predict is not None:
        payload["predict"] = predict
    return {"command": "lfun", "threads": 1, "payload": payload}


def _field_points(job: dict) -> int:
    """Points enumerated over all levels (sum of expsum.count_points)."""
    from expsumlab.expsum import VarietySpec, count_points
    from expsumlab.ffield import build_field

    pay = job["payload"]
    base = build_field(pay["base"]["p"], pay["base"].get("n", 1))
    v = VarietySpec.from_json(pay["variety"], base)
    return sum(count_points(v, base, m) for m in range(1, pay["levels"] + 1))


# -- plane-f5 ---------------------------------------------------------------

def _plane_job(seed: int, small: bool) -> dict:
    c = random.Random(seed).randint(1, 4)
    f = [[c, [2, 1]], [(-c) % 5, [1, 0]]]
    return _lfun_job(5, {"kind": "affine", "dim": 2, "f": f},
                     4 if small else 6)


def _plane_expect(job: dict) -> dict:
    levels = job["payload"]["levels"]
    return {"sums": [[5 ** m, 0, 0, 0] for m in range(1, levels + 1)],
            "P": [_unit(5)], "Q": [_unit(5), _unit(5, -5)]}


def _plane_check(report: dict, exp: dict) -> list:
    bad = []
    if _sums(report) != exp["sums"]:
        bad.append(f"S_m != 5^m: {_sums(report)}")
    L = report["lseries"]
    if (L["P"], L["Q"]) != (exp["P"], exp["Q"]):
        bad.append(f"L != 1/(1 - 5t): P={L['P']} Q={L['Q']}")
    return bad


# -- sl2-f2 -------------------------------------------------------------------

def _sl2_job(seed: int, small: bool) -> dict:
    return _lfun_job(2, {"kind": "sl2", "coeffs": [1]}, 5 if small else 8)


def _sl2_expect(job: dict) -> dict:
    levels = job["payload"]["levels"]
    return {"sums": [[s] for s in SL2_TRACE_SUMS[:levels]], "total_degree": 2}


def _sl2_check(report: dict, exp: dict) -> list:
    bad = []
    if _sums(report) != exp["sums"]:
        bad.append(f"SL2 trace sums differ: {_sums(report)}")
    if report["lseries"]["total_degree"] != exp["total_degree"]:
        bad.append(f"total degree {report['lseries']['total_degree']}")
    return bad


# -- kloosterman-f5 ---------------------------------------------------------

def _kloosterman_job(seed: int, small: bool) -> dict:
    rng = random.Random(seed)
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    return _lfun_job(5, {"kind": "torus", "dim": 1,
                         "f": [[a, [1]], [b, [-1]]]},
                     5 if small else 8,
                     predict={"kind": "curve", "g": 0, "c": 0, "m": 2, "d": 2})


def _kloosterman_expect(job: dict) -> dict:
    from expsumlab.expsum import VarietySpec, power_sum_naive
    from expsumlab.ffield import build_field

    base = build_field(5, 1)
    v = VarietySpec.from_json(job["payload"]["variety"], base)
    return {"naive": [list(power_sum_naive(v, base, m).coords)
                      for m in (1, 2)],
            "deg_P": 2, "deg_Q": 0, "predicted": 2}


def _log_derivative_holds(report: dict) -> bool:
    from expsumlab.expsum import PowerSumSequence
    from expsumlab.ffield import CyclotomicRat
    from expsumlab.lfun import LSeries, log_derivative_check

    L = report["lseries"]
    p = L["p"]

    def poly(coefs):
        return tuple(CyclotomicRat(p, [Fraction(n, d) for n, d in c])
                     for c in coefs)

    series = LSeries(p, poly(L["P"]), poly(L["Q"]), L["certified_order"])
    return log_derivative_check(series,
                                PowerSumSequence.from_json(report["sums"]))


def _kloosterman_check(report: dict, exp: dict) -> list:
    bad = []
    if _sums(report)[:2] != exp["naive"]:
        bad.append(f"S_1, S_2 differ from power_sum_naive: "
                   f"{_sums(report)[:2]} vs {exp['naive']}")
    L = report["lseries"]
    if (len(L["P"]) - 1, len(L["Q"]) - 1) != (exp["deg_P"], exp["deg_Q"]):
        bad.append(f"deg P = {len(L['P']) - 1}, deg Q = {len(L['Q']) - 1}")
    if not _log_derivative_holds(report):
        bad.append("log-derivative identity fails")
    pred = report.get("prediction", {}).get("predicted_degree")
    if pred != exp["predicted"] or report.get("match") is not True:
        bad.append(f"curve prediction {pred}, match {report.get('match')}")
    return bad


# -- dwork-p5 -----------------------------------------------------------------

def _dwork_job(seed: int, small: bool) -> dict:
    # g = (1/3)/x + pi/x^2 = (pi + x/3) / x^2; pi has pi-coordinates (0,1,0,0)
    return {"command": "index", "smax": 25 if small else 200,
            "payload": {"p": 5, "g": {"num": [["0", "1", "0", "0"], "1/3"],
                                      "den": ["0", "0", "1"]}}}


def _dwork_expect(job: dict) -> dict:
    return {"lambda": [Fraction(x) for x in DWORK_GRID],
            "r": [Fraction(x) for x in DWORK_R], "index": 0}


def _dwork_check(report: dict, exp: dict) -> list:
    bad = []
    samples = report["samples"]
    lam = [Fraction(str(s["lambda"])) for s in samples]
    r = [Fraction(str(s["r"])) for s in samples]
    if (lam, r) != (exp["lambda"], exp["r"]):
        bad.append(f"radius profile {list(zip(lam, r))}")
    if not all(s["stabilized"] for s in samples):
        bad.append("a sample is not stabilized")
    if report["index"] != exp["index"]:
        bad.append(f"index {report['index']}")
    return bad


WORKLOADS = {w.name: w for w in (
    Workload(
        "plane-f5",
        "affine fast path: ~254M points, 97% of the job in expsum; where "
        "trace-additive and Frobenius-reduced enumeration act",
        "seed picks c in F_5^*; S_m = 5^m and the report are the same for "
        "every c",
        _plane_job, _plane_expect, _plane_check, _field_points),
    Workload(
        "sl2-f2",
        "SL2 enumeration keeps Zech addition (vadd/vsub) and int64 blocks "
        "that set peak memory; a rewrite for affine/torus must not hurt it",
        "fixed: F_2^* has one element, so there is no coefficient to draw",
        _sl2_job, _sl2_expect, _sl2_check, _field_points),
    Workload(
        "kloosterman-f5",
        "98% of the job builds 488,280 table elements over F_5^1..F_5^8 "
        "with 488k points; where vectorised tables act",
        "seed picks (a, b) in (F_5^*)^2; table sizes and point counts do "
        "not depend on them",
        _kloosterman_job, _kloosterman_expect, _kloosterman_check,
        _field_points),
    Workload(
        "dwork-p5",
        "pure padic, no finite fields: the symbol recurrence and the "
        "valuation pass, where the integer recurrence acts",
        "fixed: another c changes Fraction sizes in the recurrence and so "
        "the run time (six values probed at 1.4-2.4 s, identical output)",
        _dwork_job, _dwork_expect, _dwork_check),
)}
