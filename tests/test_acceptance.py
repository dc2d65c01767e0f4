"""Acceptance gate: one test per numbered criterion, exact values pinned.

Every comparison is exact (integers, Fractions, cyclotomic coordinate
vectors).  Each criterion prints a PASS line with its measured runtime and
asserts the stated wall-clock budget.  Two side-of-the-fraction assertions
(criteria 3 and 4) are provably unattainable under the L-series convention
pinned by criteria 1-2; they are kept literal and marked strict-xfail, with
the full analysis in the project notes.  The true one-sided shapes are
asserted green alongside.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import pytest

from expsumlab import lfun, predict
from expsumlab.expsum import (VarietySpec, count_points, power_sum_table,
                              scaled_degree_check)
from expsumlab.ffield import (CyclotomicInt, CyclotomicRat,
                              additive_character, build_field, galois_twist)
from expsumlab.padic import (PiNumber, RationalFunctionPi, dwork_twist,
                             factorial_valuation, gauss_valuation,
                             GaussWeight, radius_profile, robba_index)
from expsumlab.verify import verify_suite

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F5 = build_field(5, 1)

NEWTON_DEGENERATE = VarietySpec.affine_space(2, {(2, 1): 1, (1, 0): -1})
KLOOSTERMAN = VarietySpec.torus(1, {(1,): 1, (-1,): 1})


@contextmanager
def criterion(name: str, seconds: float):
    start = perf_counter()
    yield
    elapsed = perf_counter() - start
    ok = elapsed < seconds
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.2f}s / {seconds}s)")
    assert ok, f"{name} took {elapsed:.2f}s, budget {seconds}s"


# -- 1. Newton-degenerate example -----------------------------------------------------

@pytest.mark.parametrize("p,seconds", [(3, 1.0), (5, 60.0)])
def test_criterion_01_newton_degenerate(p, seconds):
    base = build_field(p, 1)
    with criterion(f"criterion-1 (p={p})", seconds):
        seq = power_sum_table(NEWTON_DEGENERATE, base, 6)[0]
        for m in range(1, 7):
            assert seq[m] == CyclotomicInt.from_int(p, p ** m)
        L = lfun.pade_reconstruct(lfun.exp_power_sums(seq), 0, 1)
        assert L.certified_order == 6
        assert [c.as_rational() for c in L.P] == [1]
        assert [c.as_rational() for c in L.Q] == [1, -p]
        assert lfun.degree(L) == 1 and lfun.total_degree(L) == 1


# -- 2. Trivial character sums ----------------------------------------------------------

def test_criterion_02_trivial_sums():
    with criterion("criterion-2", 1.0):
        va = VarietySpec.affine_space(1, {(1,): 1})
        seq = power_sum_table(va, F5, 4)[0]
        assert all(s.is_zero() for s in seq.values)
        L = lfun.reconstruct_auto(lfun.exp_power_sums(seq))
        assert [c.as_rational() for c in L.P] == [1]
        assert [c.as_rational() for c in L.Q] == [1]
        assert lfun.degree(L) == 0 and lfun.total_degree(L) == 0

        vt = VarietySpec.torus(1, {(1,): 1})
        seq = power_sum_table(vt, F5, 4)[0]
        assert all(s == CyclotomicInt.from_int(5, -1) for s in seq.values)
        L = lfun.reconstruct_auto(lfun.exp_power_sums(seq))
        assert [c.as_rational() for c in L.P] == [1, -1]
        assert [c.as_rational() for c in L.Q] == [1]
        assert lfun.degree(L) == -1 and lfun.total_degree(L) == 1


# -- 3. SL2 trace sum ----------------------------------------------------------------------

SL2_SUMS = [2, 12, -40, -16, 352, -576, -1664, 7936]


def test_criterion_03_sl2_trace_sum():
    v = VarietySpec.sl2([1])
    with criterion("criterion-3", 60.0):
        assert count_points(v, F2, 8) == 2 ** 24 - 2 ** 8
        seq = power_sum_table(v, F2, 8)[0]
        assert [s.coords[0] for s in seq.values] == SL2_SUMS
        L = lfun.reconstruct_auto(lfun.exp_power_sums(seq))
        assert lfun.log_derivative_check(L, seq)
        # certified rational function of total degree 2N = 2, concentrated
        # on a single side of the fraction
        assert lfun.total_degree(L) == predict.sl2_degree(1) == 2
        assert len(L.Q) - 1 == 0 and len(L.P) - 1 == 2


@pytest.mark.xfail(
    strict=True,
    reason="side-of-fraction defect: under L = exp(sum S_m t^m/m) pinned by "
           "criteria 1-2, the SL2/F_2 series equals the polynomial "
           "1 + 2t + 8t^2 exactly (three independent enumerations agree), so "
           "no numerator-degree-0 / denominator-degree-2 function matches; "
           "see the decisions ledger")
def test_criterion_03_literal_reciprocal_shape():
    seq = power_sum_table(VarietySpec.sl2([1]), F2, 8)[0]
    L = lfun.pade_reconstruct(lfun.exp_power_sums(seq), 0, 2)
    assert len(L.P) - 1 == 0 and len(L.Q) - 1 == 2
    print("ACCEPTANCE criterion-3 (literal reciprocal shape): PASS")


# -- 4. Kloosterman oracle --------------------------------------------------------------------

def test_criterion_04_kloosterman_oracle():
    with criterion("criterion-4", 1.0):
        seq = power_sum_table(KLOOSTERMAN, F5, 6)[0]
        assert seq[1] == CyclotomicInt(5, [2, 0, 1, 1])
        L = lfun.reconstruct_auto(lfun.exp_power_sums(seq))
        assert lfun.log_derivative_check(L, seq)
        curve = predict.curve_degree(predict.CurveSpec(0, 0, 2, 2))
        assert curve == 2
        # certified total degree 2 concentrated on one side; the curve count
        # agrees with the degree magnitude
        assert lfun.total_degree(L) == 2
        assert abs(lfun.degree(L)) == curve


@pytest.mark.xfail(
    strict=True,
    reason="side-of-fraction defect: the Kloosterman series over F_5 is the "
           "polynomial 1 + (2 + z^2 + z^3) t + 5 t^2 (numerator side), so no "
           "degree-2 denominator exists at any numerator bound; see the "
           "decisions ledger")
def test_criterion_04_literal_denominator_side():
    seq = power_sum_table(KLOOSTERMAN, F5, 6)[0]
    L = lfun.reconstruct_auto(lfun.exp_power_sums(seq))
    assert len(L.Q) - 1 == 2
    print("ACCEPTANCE criterion-4 (literal denominator side): PASS")


# -- 5. Arrangement arithmetic -------------------------------------------------------------------

def test_criterion_05_arrangement_arithmetic():
    # full L-series of the plane arrangements are out of desk-scale reach
    # (they would need ~50 power sums over q^(3m) points); the Betti
    # arithmetic is exact and S_1, S_2 are regression-checked at p = 5
    with criterion("criterion-5", 5.0):
        assert predict.betti_degree(predict.BettiSpec(3, (7, 18))) == (11, 25)
        assert predict.betti_degree(predict.BettiSpec(3, (8, 79))) == (71, 87)
        for case in ("a3-betti", "b3-betti"):
            report = verify_suite(case)
            assert report["passed"], report


# -- 6. Chern/Newton cross-check -------------------------------------------------------------------

def test_criterion_06_chern_newton_cross_check():
    with criterion("criterion-6", 5.0):
        assert predict.chern_degree(predict.ChernSpec(1, (1, 1), (1, 1))) == 2
        chern = predict.chern_degree(predict.ChernSpec(2, (1, 1, 1), (1, 1, 1)))
        newton = predict.newton_degree(predict.fermat_torus_support(2))
        assert chern == 9 and newton == 9
        rep = predict.fermat_discrepancy_report(2)
        assert rep["alternative_value"] == 12 and rep["discrepant"]
        assert verify_suite("fermat-discrepancy")["passed"]


# -- 7. Dwork radius law ------------------------------------------------------------------------------

def test_criterion_07_dwork_radius_law():
    grid = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
            Fraction(2))
    with criterion("criterion-7", 10.0):
        for p in (3, 5):
            g = RationalFunctionPi.monomial_ratio(p, PiNumber.pi(p), 2)
            prof = radius_profile(g, grid, s_max=200)
            for sample in prof.samples:
                assert sample.r == 2 * sample.lam and sample.stabilized
            triv = radius_profile(RationalFunctionPi.zero(p), grid, s_max=200)
            for sample in triv.samples:
                assert sample.r == sample.lam and sample.stabilized


# -- 8. Regular-singular maximal convergence ------------------------------------------------------------

def test_criterion_08_regular_singular():
    cases = [(3, Fraction(1, 2)), (5, Fraction(1, 2)), (5, Fraction(1, 3))]
    with criterion("criterion-8", 10.0):
        for p, c in cases:
            g = RationalFunctionPi.monomial_ratio(p, c, 1)
            prof = radius_profile(g, s_max=200)
            for sample in prof.samples:
                assert sample.r == sample.lam and sample.stabilized


# -- 9. Index cancellation ---------------------------------------------------------------------------------

def test_criterion_09_robba_index_cancellation():
    cases = [(3, Fraction(1, 2)), (5, Fraction(1, 2)), (5, Fraction(1, 3))]
    with criterion("criterion-9", 10.0):
        for p, c in cases:
            g = RationalFunctionPi.monomial_ratio(p, c, 1)
            prof = radius_profile(dwork_twist(g), s_max=200)
            assert prof.endpoint_slopes == (2, 2)
            assert robba_index(prof) == 0


# -- 10. Scale invariance -----------------------------------------------------------------------------------

def test_criterion_10_scale_invariance():
    with criterion("criterion-10", 60.0):
        # p = 5 plane example: all scales in one enumeration pass
        tabs = power_sum_table(NEWTON_DEGENERATE, F5, 6, scales=(1, 2, 3, 4))
        L0 = lfun.reconstruct_auto(lfun.exp_power_sums(tabs[0]))
        for idx, c in ((1, 2), (2, 3), (3, 4)):
            Lc = lfun.reconstruct_auto(lfun.exp_power_sums(tabs[idx]))
            assert lfun.degree(Lc) == lfun.degree(L0)
            assert lfun.total_degree(Lc) == lfun.total_degree(L0)
            for m in range(1, 7):
                assert tabs[idx][m] == galois_twist(tabs[0][m], c)
        # remaining varieties via the combined checker
        jobs = [(NEWTON_DEGENERATE, F3, (2,), 6),
                (VarietySpec.affine_space(1, {(1,): 1}), F5, (2, 3, 4), 5),
                (VarietySpec.torus(1, {(1,): 1}), F5, (2, 3, 4), 5),
                (KLOOSTERMAN, F5, (2, 3, 4), 6),
                (VarietySpec.sl2([1]), F2, (1,), 8)]
        for v, base, cs, M in jobs:
            for c in cs:
                rep = scaled_degree_check(v, base, c, M)
                assert rep.degree_equal and rep.total_degree_equal
                assert rep.twist_checked and rep.twist_holds


# -- 11. Property suites --------------------------------------------------------------------------------------

def test_criterion_11_property_suites():
    rng = random.Random(20240813)
    with criterion("criterion-11", 30.0):
        # cyclotomic ring axioms on random triples
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11])
            a, b, c = (CyclotomicInt(p, [rng.randint(-9, 9)
                                         for _ in range(p - 1)])
                       for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

        # character orthogonality for p <= 31
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            total = CyclotomicInt.zero(p)
            for a in range(p):
                total = total + additive_character(p, a)
            assert total.is_zero()

        # Pade round trip on 100 random small rational functions, drawn
        # again when the last nonzero remainder of their Euclid walk, a gcd,
        # is not a constant
        from expsumlab._exactpoly import remainder_rows, trim as _trim
        from expsumlab.lfun import TruncatedSeries
        done = 0
        while done < 100:
            p = rng.choice([3, 5])
            one = CyclotomicRat.one(p)
            dP, dQ = rng.randint(0, 2), rng.randint(0, 2)
            P = _trim([one] + [CyclotomicRat(
                p, [Fraction(rng.randint(-3, 3)) for _ in range(p - 1)])
                for _ in range(dP)])
            Q = _trim([one] + [CyclotomicRat(
                p, [Fraction(rng.randint(-3, 3)) for _ in range(p - 1)])
                for _ in range(dQ)])
            if len([r for r, _ in remainder_rows(P, Q) if r][-1]) != 1:
                continue
            M = (len(P) - 1) + (len(Q) - 1) + 1
            coeffs = []     # P/Q through t^M, as Q(0) = 1
            for k in range(M + 1):
                acc = P[k] if k < len(P) else one * 0
                for j in range(1, min(k, len(Q) - 1) + 1):
                    acc = acc - Q[j] * coeffs[k - j]
                coeffs.append(acc)
            series = TruncatedSeries(p, tuple(coeffs))
            L = lfun.pade_reconstruct(series, len(P) - 1, len(Q) - 1)
            assert list(L.P) == P and list(L.Q) == Q
            done += 1

        # Gauss-norm multiplicativity on 100 random rational functions
        done = 0
        while done < 100:
            p = rng.choice([3, 5])
            lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))

            def rand_rf():
                num = [PiNumber.rational(
                    p, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3))]
                den = [PiNumber.rational(
                    p, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(rng.randint(0, 2))] + [PiNumber.one(p)]
                return RationalFunctionPi(p, num, den)

            f, g = rand_rf(), rand_rf()
            if f.is_zero() or g.is_zero():
                continue
            w = GaussWeight(lam)
            assert gauss_valuation(f * g, w) == \
                gauss_valuation(f, w) + gauss_valuation(g, w)
            done += 1

        # factorial valuation formula for s <= 10^4
        for p in (2, 3, 5, 7):
            powers = []
            q = p
            while q <= 10 ** 4:
                powers.append(q)
                q *= p
            for s in range(0, 10 ** 4 + 1):
                assert factorial_valuation(s, p) == \
                    sum(s // q for q in powers)
