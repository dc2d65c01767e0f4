"""Named end-to-end verification cases with bundled expected records.

Each case recomputes a worked example from scratch and compares against
data/expected_cases.json; reports are deterministic (exact values only, no
timing), so repeated runs serialize to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from . import lfun, predict
from .expsum import VarietySpec, power_sum_table, scaled_degree_check
from .ffield import _jsonable, build_field
from .padic import (PiNumber, RationalFunctionPi, dwork_twist, radius_profile,
                    robba_index)

CASES = (
    "newton-degenerate",
    "torus-linear",
    "kloosterman",
    "sl2-trace",
    "a3-betti",
    "b3-betti",
    "fermat-discrepancy",
    "dwork-radius",
    "robba-index",
    "scale-invariance",
)


class UnknownCaseError(ValueError):
    pass


def _expected() -> dict:
    with resources.files("expsumlab.data").joinpath(
            "expected_cases.json").open("r") as fh:
        return json.load(fh)


def _check(checks: list, name: str, expected, actual):
    checks.append({"name": name, "expected": expected, "actual": actual,
                   "ok": expected == actual})


def _rational_poly(poly):
    """[[num, den], ...] for a polynomial with rational cyclotomic coords."""
    out = []
    for coef in poly:
        q = coef.as_rational()
        out.append([q.numerator, q.denominator])
    return out


def _case_newton_degenerate(exp: dict) -> list:
    checks = []
    base = build_field(exp["p"], 1)
    v = VarietySpec.affine_space(2, {(2, 1): 1, (1, 0): -1})
    seq = power_sum_table(v, base, exp["levels"])[0]
    got = [list(s.coords) for s in seq.values]
    _check(checks, "power_sums", exp["power_sums"], got)
    L = lfun.pade_reconstruct(lfun.exp_power_sums(seq), 0, 1)
    _check(checks, "P", exp["P"], _rational_poly(L.P))
    _check(checks, "Q", exp["Q"], _rational_poly(L.Q))
    _check(checks, "degree", exp["degree"], lfun.degree(L))
    _check(checks, "total_degree", exp["total_degree"], lfun.total_degree(L))
    _check(checks, "log_derivative", True, lfun.log_derivative_check(L, seq))
    return checks


def _case_torus_linear(exp: dict) -> list:
    checks = []
    base = build_field(exp["p"], 1)
    va = VarietySpec.affine_space(1, {(1,): 1})
    seq_a = power_sum_table(va, base, 4)[0]
    _check(checks, "affine_sums",
           [exp["affine"]["power_sum"]] * 4,
           [list(s.coords) for s in seq_a.values])
    La = lfun.reconstruct_auto(lfun.exp_power_sums(seq_a))
    _check(checks, "affine_degree", exp["affine"]["degree"], lfun.degree(La))
    _check(checks, "affine_total", exp["affine"]["total_degree"],
           lfun.total_degree(La))
    vt = VarietySpec.torus(1, {(1,): 1})
    seq_t = power_sum_table(vt, base, 4)[0]
    _check(checks, "torus_sums",
           [exp["torus"]["power_sum"]] * 4,
           [list(s.coords) for s in seq_t.values])
    Lt = lfun.reconstruct_auto(lfun.exp_power_sums(seq_t))
    _check(checks, "torus_degree", exp["torus"]["degree"], lfun.degree(Lt))
    _check(checks, "torus_total", exp["torus"]["total_degree"],
           lfun.total_degree(Lt))
    _check(checks, "torus_P_is_one_minus_t", [[1, 1], [-1, 1]],
           _rational_poly(Lt.P))
    return checks


def _case_kloosterman(exp: dict) -> list:
    checks = []
    base = build_field(exp["p"], 1)
    v = VarietySpec.torus(1, {(1,): 1, (-1,): 1})
    seq = power_sum_table(v, base, exp["levels"])[0]
    _check(checks, "s1", exp["s1"], list(seq[1].coords))
    L = lfun.reconstruct_auto(lfun.exp_power_sums(seq))
    _check(checks, "deg_P", exp["deg_P"], len(L.P) - 1)
    _check(checks, "deg_Q", exp["deg_Q"], len(L.Q) - 1)
    _check(checks, "log_derivative", True, lfun.log_derivative_check(L, seq))
    curve = predict.curve_degree(predict.CurveSpec(0, 0, 2, 2))
    _check(checks, "curve_degree", exp["curve_degree"], curve)
    _check(checks, "degree_magnitude_matches_curve", curve,
           abs(lfun.degree(L)))
    return checks


def _case_sl2_trace(exp: dict) -> list:
    checks = []
    base = build_field(exp["p"], 1)
    v = VarietySpec.sl2([1])
    seq = power_sum_table(v, base, exp["levels"])[0]
    _check(checks, "power_sums", exp["power_sums"],
           [s.coords[0] for s in seq.values])
    L = lfun.reconstruct_auto(lfun.exp_power_sums(seq))
    _check(checks, "total_degree", exp["total_degree"], lfun.total_degree(L))
    _check(checks, "total_matches_2N", predict.sl2_degree(1),
           lfun.total_degree(L))
    degP, degQ = len(L.P) - 1, len(L.Q) - 1
    _check(checks, "one_sided", exp["one_sided"], degP == 0 or degQ == 0)
    _check(checks, "deg_P", exp["deg_P"], degP)
    _check(checks, "deg_Q", exp["deg_Q"], degQ)
    return checks


def _arrangement_terms(which: str) -> dict:
    from .expsum import multiply_terms
    x = {(1, 0, 0): 1}
    y = {(0, 1, 0): 1}
    z = {(0, 0, 1): 1}
    if which == "a3":
        factors = [x, y, z,
                   {(1, 0, 0): 1, (0, 1, 0): -1},
                   {(0, 1, 0): 1, (0, 0, 1): -1},
                   {(0, 0, 1): 1, (1, 0, 0): -1}]
    else:
        factors = [x, y, z,
                   {(1, 0, 0): 1, (0, 1, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): -1},
                   {(1, 0, 0): 1, (0, 0, 1): 1}, {(1, 0, 0): 1, (0, 0, 1): -1},
                   {(0, 1, 0): 1, (0, 0, 1): 1}, {(0, 1, 0): 1, (0, 0, 1): -1}]
    f = {(0, 0, 0): 1}
    for t in factors:
        f = multiply_terms(f, t)
    return f


def _case_betti(exp: dict, which: str) -> list:
    checks = []
    deg, bound = predict.betti_degree(predict.BettiSpec(3, tuple(exp["betti"])))
    _check(checks, "degree", exp["degree"], deg)
    _check(checks, "total_bound", exp["total_bound"], bound)
    # full L-series at this scale would need ~50 levels over q^(3m) points;
    # only the first two power sums are regression-checked.
    base = build_field(exp["p"], 1)
    v = VarietySpec.affine_space(3, _arrangement_terms(which))
    seq = power_sum_table(v, base, 2)[0]
    _check(checks, "s1", exp["s1"], list(seq[1].coords))
    _check(checks, "s2", exp["s2"], list(seq[2].coords))
    return checks


def _case_fermat(exp: dict) -> list:
    checks = []
    rep = predict.fermat_discrepancy_report(exp["n"])
    _check(checks, "chern_value", exp["chern_value"], rep["chern_value"])
    _check(checks, "newton_value", Fraction(exp["newton_value"]),
           rep["newton_value"])
    _check(checks, "alternative_value", exp["alternative_value"],
           rep["alternative_value"])
    _check(checks, "discrepant", exp["discrepant"], rep["discrepant"])
    rep1 = predict.fermat_discrepancy_report(1)
    _check(checks, "n1_chern", exp["n1_chern"], rep1["chern_value"])
    _check(checks, "n1_alternative", exp["n1_alternative"],
           rep1["alternative_value"])
    _check(checks, "n1_discrepant", exp["n1_discrepant"], rep1["discrepant"])
    return checks


def _case_dwork_radius(exp: dict) -> list:
    checks = []
    for p in exp["primes"]:
        g = RationalFunctionPi.monomial_ratio(p, PiNumber.pi(p), 2)
        prof = radius_profile(g)
        _check(checks, f"p{p}_slope_law", True,
               all(s.r == exp["slope"] * s.lam and s.stabilized
                   for s in prof.samples))
        triv = radius_profile(RationalFunctionPi.zero(p))
        _check(checks, f"p{p}_trivial_law", True,
               all(s.r == exp["trivial_slope"] * s.lam and s.stabilized
                   for s in triv.samples))
    return checks


def _case_robba_index(exp: dict) -> list:
    checks = []
    for p, c in exp["cases"]:
        g = RationalFunctionPi.monomial_ratio(p, Fraction(c), 1)
        prof = radius_profile(dwork_twist(g))
        slopes = prof.endpoint_slopes
        _check(checks, f"p{p}_slopes",
               [Fraction(exp["endpoint_slope"])] * 2, list(slopes))
        _check(checks, f"p{p}_index", exp["index"], robba_index(prof))
    return checks


def _case_scale_invariance(exp: dict) -> list:
    checks = []
    varieties = {
        "newton-degenerate-c2": (VarietySpec.affine_space(
            2, {(2, 1): 1, (1, 0): -1}), 3, 2, 6),
        "kloosterman-c2": (VarietySpec.torus(1, {(1,): 1, (-1,): 1}), 5, 2, 6),
        "kloosterman-c3": (VarietySpec.torus(1, {(1,): 1, (-1,): 1}), 5, 3, 6),
        "torus-linear-c4": (VarietySpec.torus(1, {(1,): 1}), 5, 4, 5),
    }
    for case in exp["cases"]:
        v, p, c, M = varieties[case["name"]]
        rep = scaled_degree_check(v, build_field(p, 1), c, M)
        _check(checks, f"{case['name']}_degrees", True,
               rep.degree_equal and rep.total_degree_equal)
        _check(checks, f"{case['name']}_twist", True,
               rep.twist_checked and rep.twist_holds)
    return checks


_RUNNERS = {
    "newton-degenerate": _case_newton_degenerate,
    "torus-linear": _case_torus_linear,
    "kloosterman": _case_kloosterman,
    "sl2-trace": _case_sl2_trace,
    "a3-betti": lambda exp: _case_betti(exp, "a3"),
    "b3-betti": lambda exp: _case_betti(exp, "b3"),
    "fermat-discrepancy": _case_fermat,
    "dwork-radius": _case_dwork_radius,
    "robba-index": _case_robba_index,
    "scale-invariance": _case_scale_invariance,
}


def verify_suite(name: str) -> dict:
    """Run one named case end-to-end; returns a deterministic report with a
    pass/fail verdict per comparison."""
    if name not in _RUNNERS:
        raise UnknownCaseError(
            f"unknown case {name!r}; choose from {', '.join(CASES)}")
    checks = _RUNNERS[name](_expected()[name])
    clean = []
    for c in checks:
        clean.append({k: _jsonable(v) for k, v in c.items()})
    return {"case": name, "passed": all(c["ok"] for c in checks),
            "checks": clean}

