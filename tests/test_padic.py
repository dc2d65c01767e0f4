import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsumlab import padic
from expsumlab.ffield import CyclotomicRat
from expsumlab.padic import (DEFAULT_GRID, INF, GaussWeight,
                             NonStabilizedError, PiNumber, RadiusProfile,
                             RadiusSample, RationalFunctionPi, digit_sum,
                             dwork_twist, factorial_valuation, gauss_valuation,
                             radius_profile, robba_index, symbol_sequence)
from expsumlab.padic import (_VP_BLOCK, _cleared, _estimate_radius,
                             _record_rows, _record_valuations, _row_valuations,
                             _rows, _symbol_numerators, _vp_gcd, _vp_int)


def mono(p, coef, k):
    return RationalFunctionPi.monomial_ratio(p, coef, k)


# -- PiNumber ------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pi_defining_relation(p):
    pi = PiNumber.pi(p)
    acc = PiNumber.one(p)
    for _ in range(p - 1):
        acc = acc * pi
    assert acc == PiNumber.rational(p, -p)
    assert pi.valuation() == Fraction(1, p - 1)


def test_valuation_laws():
    p = 5
    pi = PiNumber.pi(p)
    x = PiNumber(p, [Fraction(3, 2), 1, 0, Fraction(1, 5)])
    y = pi * pi + PiNumber.rational(p, 10)
    assert (x * y).valuation() == x.valuation() + y.valuation()
    assert (x + y).valuation() >= min(x.valuation(), y.valuation())
    assert PiNumber.zero(p).valuation() is INF
    assert PiNumber.rational(p, Fraction(1, 25)).valuation() == -2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6))
def test_pinumber_ring_axioms(p, i, j, k):
    def rand(seed):
        return PiNumber(p, [Fraction(seed + 2 * t, 1 + (t + seed) % 3)
                            for t in range(p - 1)])
    a, b, c = rand(i), rand(j), rand(k)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    # multiplicativity of the valuation (exact, not just an inequality)
    if not a.is_zero() and not b.is_zero():
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_pinumber_inverse():
    for p in (2, 3, 5):
        x = PiNumber(p, [Fraction(2, 3)] + [1] * (p - 2))
        assert x * x.inverse() == PiNumber.one(p)
    with pytest.raises(ZeroDivisionError):
        PiNumber.zero(3).inverse()


def test_p2_pi_is_minus_two():
    assert PiNumber.pi(2) == PiNumber.rational(2, -2)


# -- Gauss valuation --------------------------------------------------------------------

def test_gauss_valuation_examples():
    p = 3
    pi = PiNumber.pi(p)
    f = RationalFunctionPi(p, [0, 0, pi], [1])          # pi x^2
    assert gauss_valuation(f, GaussWeight(1)) == Fraction(5, 2)
    f = RationalFunctionPi(p, [1, 3], [1])              # 1 + 3x at lambda = 0
    assert gauss_valuation(f, GaussWeight(0)) == 0
    f = RationalFunctionPi(p, [0, 1], [-1, 1])          # x/(x-1), rho < 1
    assert gauss_valuation(f, GaussWeight(Fraction(1, 2))) == Fraction(1, 2)
    assert gauss_valuation(RationalFunctionPi.zero(p), GaussWeight(1)) is INF


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(0, 400), st.integers(0, 400),
       st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2)]))
def test_gauss_multiplicative(p, seed_a, seed_b, lam):
    def rand_poly(seed, unit_tail=False):
        coeffs = []
        s = seed
        for j in range(3):
            s = (s * 7 + 3) % 11
            coeffs.append(PiNumber.rational(p, Fraction(s - 5, 1 + s % 3)))
        if unit_tail:
            coeffs.append(PiNumber.one(p))
        return coeffs

    w = GaussWeight(lam)
    f = RationalFunctionPi(p, rand_poly(seed_a), rand_poly(seed_b + 1, True))
    g = RationalFunctionPi(p, rand_poly(seed_b), rand_poly(seed_a + 2, True))
    if f.is_zero() or g.is_zero():
        return
    assert gauss_valuation(f * g, w) == \
        gauss_valuation(f, w) + gauss_valuation(g, w)


# -- symbols ------------------------------------------------------------------------------

def test_symbols_vanish_for_trivial_operator():
    bs = symbol_sequence(RationalFunctionPi.zero(3), 4)
    assert not bs[0].is_zero()
    assert all(b.is_zero() for b in bs[1:])


def test_symbols_regular_singular_falling_factorial():
    p, c = 3, Fraction(1, 2)
    bs = symbol_sequence(mono(p, c, 1), 5)
    ff = Fraction(1)
    for s in range(1, 6):
        ff *= c - (s - 1)
        assert bs[s] == mono(p, ff, s)


def test_symbols_dwork_by_hand():
    p = 3
    pi = PiNumber.pi(p)
    g = mono(p, pi, 2)
    bs = symbol_sequence(g, 2)
    assert bs[1] == g
    assert bs[2] == RationalFunctionPi(p, [pi * pi, pi * (-2)], [0, 0, 0, 0, 1])


@pytest.mark.parametrize("g", [
    mono(3, PiNumber.pi(3), 2),
    mono(3, Fraction(1, 2), 1),
    RationalFunctionPi(3, [1, 2], [2, 0, 1]),
    dwork_twist(mono(2, Fraction(1, 3), 1)),
    RationalFunctionPi(7, [PiNumber(7, [Fraction(1, 2), 0, 3, 0, 0,
                                        Fraction(1, 7)])],
                       [Fraction(1, 3), 0, PiNumber.pi(7)]),
])
def test_symbol_recurrence_identity(g):
    bs = symbol_sequence(g, 4)
    for s in range(4):
        assert bs[s + 1] == bs[s].derivative() + g * bs[s]


def test_symbol_rejects_negative_depth():
    with pytest.raises(ValueError):
        symbol_sequence(RationalFunctionPi.zero(3), -1)


def test_levels_that_are_not_prime_are_refused():
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError):
            PiNumber.one(p)
        with pytest.raises(ValueError):
            RationalFunctionPi.zero(p)
    with pytest.raises(ValueError):
        digit_sum(5, 1)


# -- factorial valuation ---------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factorial_valuation_matches_legendre(p):
    def legendre(s):
        total, q = 0, p
        while q <= s:
            total += s // q
            q *= p
        return total

    for s in list(range(0, 200)) + [999, 5000]:
        assert factorial_valuation(s, p) == legendre(s)
    assert digit_sum(0, p) == 0


# -- radius profiles ----------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5])
def test_trivial_operator_profile(p):
    prof = radius_profile(RationalFunctionPi.zero(p), s_max=30)
    for s in prof.samples:
        assert s.r == s.lam and s.stabilized and s.method == "robba-clamp"
    assert prof.endpoint_slopes == (1, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dwork_operator_profile(p):
    prof = radius_profile(mono(p, PiNumber.pi(p), 2), s_max=30)
    for s in prof.samples:
        assert s.r == 2 * s.lam and s.stabilized
        assert s.method == "power-subsequence"
    assert prof.endpoint_slopes == (2, 2)
    # slope exactly 2 between every adjacent sample pair, not just the ends
    pts = [(s.lam, s.r) for s in prof.samples]
    for (l0, r0), (l1, r1) in zip(pts, pts[1:]):
        assert (r1 - r0) / (l1 - l0) == 2
    # index of the trivial operator: slopes (1, 1) cancel
    assert robba_index(radius_profile(RationalFunctionPi.zero(p),
                                      s_max=30)) == 0


def test_p2_profiles_degenerate_uniformly():
    # pi = -2: the same laws hold with length-1 coordinate vectors
    prof = radius_profile(mono(2, Fraction(1, 3), 1), s_max=30)
    for s in prof.samples:
        assert s.r == s.lam and s.stabilized
    tw = radius_profile(dwork_twist(mono(2, Fraction(1, 3), 1)), s_max=30)
    assert all(s.r == 2 * s.lam and s.stabilized for s in tw.samples)
    assert robba_index(tw) == 0


@pytest.mark.parametrize("p,c", [(3, Fraction(1, 2)), (5, Fraction(1, 2)),
                                 (5, Fraction(1, 3)), (3, 4), (5, 7)])
def test_regular_singular_profile(p, c):
    prof = radius_profile(mono(p, c, 1), s_max=30)
    for s in prof.samples:
        assert s.r == s.lam and s.stabilized


def test_profile_is_representation_independent():
    # pi/x^2 written with an unreduced denominator gives the same profile
    p = 3
    pi = PiNumber.pi(p)
    plain = radius_profile(mono(p, pi, 2), s_max=30)
    padded = radius_profile(
        RationalFunctionPi(p, [0, pi], [0, 0, 0, 1]), s_max=30)
    assert [(s.lam, s.r) for s in plain.samples] == \
        [(s.lam, s.r) for s in padded.samples]


def test_wildly_ramified_exponent_profile():
    # d/dx - (1/3)/x over Q_3: the exponent is not integral at 3, the local
    # solution x^(1/3) converges on a disk smaller by |3|^(3/2)
    prof = radius_profile(mono(3, Fraction(1, 3), 1), s_max=30)
    for s in prof.samples:
        assert s.r == s.lam + Fraction(3, 2) and s.stabilized
    assert prof.endpoint_slopes == (1, 1)


def test_radius_exceeds_weight_never():
    for g in (RationalFunctionPi.zero(3), mono(3, PiNumber.pi(3), 2),
              mono(3, Fraction(1, 2), 1)):
        prof = radius_profile(g, s_max=30)
        assert all(s.r >= s.lam for s in prof.samples)


def test_denominator_tie_is_flagged():
    # x + 3 at lambda = 1 over Q_3: both terms have Gauss valuation 1
    g = RationalFunctionPi(3, [1], [3, 1])
    prof = radius_profile(g, lam_grid=(Fraction(1, 2), 1), s_max=30)
    by_lam = {s.lam: s for s in prof.samples}
    assert by_lam[Fraction(1)].den_tie
    assert not by_lam[Fraction(1, 2)].den_tie


def test_profile_grid_validation():
    g = RationalFunctionPi.zero(3)
    with pytest.raises(ValueError):
        radius_profile(g, lam_grid=(Fraction(1, 2),))
    with pytest.raises(ValueError):
        radius_profile(g, lam_grid=(0, 1))
    with pytest.raises(ValueError):   # no slope between equal weights
        radius_profile(g, lam_grid=(1, Fraction(1, 2), 1))
    for s_max in (0, -3):
        with pytest.raises(ValueError):
            radius_profile(g, s_max=s_max)


def _reference_profile(g, grid, s_max):
    """The samples of radius_profile, from gauss_valuation of the symbols
    and PiNumber.valuation of den(g)."""
    bs = symbol_sequence(g, s_max)
    samples = []
    for lam in sorted(Fraction(x) for x in grid):
        w = GaussWeight(lam)
        # (p-1) a v(b_s) for lam = b / ((p-1) a), as the estimator reads it
        v_b = [gauss_valuation(b, w) * (g.p - 1) * lam.denominator
               for b in bs[1:]]
        assert all(v == INF or v.denominator == 1 for v in v_b)
        M = [None] + [None if v == INF else int(v) for v in v_b]
        den = [c.valuation() + j * lam for j, c in enumerate(g.den) if c]
        r, stab, method = _estimate_radius(g.p, lam, M, s_max)
        samples.append(RadiusSample(lam, r, stab, method,
                                    den.count(min(den)) > 1))
    return tuple(samples)


def _pi_coeff(p, draw):
    den = st.sampled_from([1, 1, 2, 3, p, p * p])
    return PiNumber(p, [Fraction(draw(st.integers(-9, 9)), draw(den))
                        for _ in range(p - 1)])


@st.composite
def _operators(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    num = [_pi_coeff(p, draw) for _ in range(draw(st.integers(0, 3)))]
    den = [_pi_coeff(p, draw) for _ in range(draw(st.integers(0, 1)))]
    den.append(draw(st.sampled_from([1, p, Fraction(1, p)])) * PiNumber.pi(p)
               if draw(st.booleans()) else PiNumber.one(p))
    g = RationalFunctionPi(p, num, den)
    return dwork_twist(g) if draw(st.booleans()) else g


_GRIDS = st.lists(st.sampled_from(
    [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), 1,
     Fraction(3, 2), 2, Fraction(1, 3 ** 41)]), min_size=2, max_size=4,
    unique=True)


@settings(max_examples=40, deadline=None)
@given(_operators(), _GRIDS, st.integers(1, 20))
@example(RationalFunctionPi.zero(2), DEFAULT_GRID, 9)
@example(mono(5, 4, 1), DEFAULT_GRID, 12)
@example(mono(3, 2, 1), (Fraction(1, 2), 1), 5)
@example(RationalFunctionPi(5, [Fraction(1, 2), Fraction(1, 3)],
                            [PiNumber.pi(5), 0, Fraction(1, 5)]),
         (Fraction(1, 8), Fraction(5, 8), 2), 20)
@example(RationalFunctionPi(3, [1], [3, 1]), (Fraction(1, 2), 1), 10)
@example(dwork_twist(mono(7, Fraction(2, 7), 1)), DEFAULT_GRID, 25)
@example(dwork_twist(mono(3, Fraction(1, 2), 1)), (Fraction(1, 3 ** 41), 2),
         12)
def test_profile_matches_exact_reference(g, grid, s_max):
    # the streamed integer valuations against Gauss valuations of the
    # symbols in Q(pi), through the same estimator
    assert radius_profile(g, grid, s_max).samples == \
        _reference_profile(g, grid, s_max)


def _depth_drawn(monkeypatch, g, s_max):
    """radius_profile(g, DEFAULT_GRID, s_max), the last depth of the symbols
    it drew and the depths of those it valued by _record_valuations."""
    drawn, valued = [], []

    def spy(*args):
        for s, n in enumerate(_symbol_numerators(*args)):
            drawn.append(s)
            yield n

    def records(n, p):
        valued.append(drawn[-1])
        return _record_valuations(n, p)

    monkeypatch.setattr(padic, "_symbol_numerators", spy)
    monkeypatch.setattr(padic, "_record_valuations", records)
    return radius_profile(g, DEFAULT_GRID, s_max), drawn[-1], valued


# the depths of the Dwork twists below whose symbols are valued
_VALUED = {2: [*range(1, 9), 16, 32, 64, 128], 3: [1, 9, 27, 81],
           5: [*range(1, 6), 25, 125], 7: [1, 7, 49]}


@pytest.mark.parametrize("p,depth", [(2, 128), (3, 81), (5, 125), (7, 49)])
def test_profile_stops_at_the_last_power_of_the_window(monkeypatch, p, depth):
    # the Dwork twist of (1/3)/x: by the last p-power at most 200 every
    # weight has a sample above it and agreeing window candidates, and
    # once every weight has one, only the window's powers (from p^2 on, or
    # from p where fewer than three fit) are valued.  Its reports, recorded
    # at the full depth, are tests/index_outputs.
    prof, drawn, valued = _depth_drawn(
        monkeypatch, dwork_twist(mono(p, Fraction(1, 3), 1)), 200)
    assert drawn == depth
    assert valued == _VALUED[p]
    assert all(s.method == "power-subsequence" for s in prof.samples)


@pytest.mark.parametrize("g", [RationalFunctionPi.zero(5), mono(5, 4, 1),
                               mono(3, Fraction(1, 2), 1)])
def test_clamped_profile_draws_every_symbol(monkeypatch, g):
    prof, drawn, valued = _depth_drawn(monkeypatch, g, 60)
    assert drawn == 60
    assert valued == list(range(1, 61))
    assert all(s.method == "robba-clamp" for s in prof.samples)


@pytest.mark.parametrize("v12,drawn,method", [
    (10, 12, "power-subsequence"), (12, 26, "robba-clamp")])
def test_profile_waits_for_a_refutation_after_the_window(monkeypatch, v12,
                                                         drawn, method):
    # no operator tried puts its first sample above lam past the window's
    # last power, so synthetic numerators n_s = 3^(v_s) stand in for those
    # of g = 1/3 (W = 3) at p = 3: v(b_s) = v_s - s.  With v_s = s the
    # samples (v(s!) - v(b_s))/s = (s - digitsum(s))/(2s) stay below 1/2;
    # v_6 = 5 lifts s = 6 to 1/2, which refutes nothing, and v_12 = 10 lifts
    # s = 12 to 7/12.  At depth 26 the window is (3, 9): lam = 1/4 is
    # decided at s = 3, lam = 1/2 not before s = 12, if ever.
    p, s_max, grid = 3, 26, (Fraction(1, 4), Fraction(1, 2))
    v = [s for s in range(s_max + 1)]
    v[6], v[12] = 5, v12
    depths = []

    def synthetic(p, U, W, s_max):
        for s in range(s_max + 1):
            depths.append(s)
            yield {0: [p ** v[s]]}

    monkeypatch.setattr(padic, "_symbol_numerators", synthetic)
    prof = radius_profile(RationalFunctionPi(p, [Fraction(1, 3)], [1]),
                          grid, s_max)
    assert depths[-1] == drawn
    # the samples of all 26 depths: M_s = (p-1) a v(b_s)
    assert prof.samples == tuple(RadiusSample(lam, *_estimate_radius(
        p, lam, [None] + [2 * lam.denominator * (v[s] - s)
                          for s in range(1, s_max + 1)], s_max))
        for lam in grid)
    assert [s.method for s in prof.samples] == ["power-subsequence", method]


def test_profile_values_every_depth_when_the_window_disagrees(monkeypatch):
    # synthetic numerators n_s = 3^(v_s) for g = 1/3 (W = 3) at p = 3, as
    # above: v(b_s) = v_s - s.  v_2 = 0 lifts the sample at s = 2 to 1,
    # above both weights, so depths 4..8 are skipped; v_9 = 10 makes the
    # window (3, 9) disagree at its last power; v_5 = 0 lifts s = 5, a
    # skipped depth, to 6/5, the largest sample, which both unstabilized
    # weights report.  So the recurrence runs again to s_max.
    p, s_max, grid = 3, 26, (Fraction(1, 4), Fraction(1, 2))
    v = [s for s in range(s_max + 1)]
    v[2], v[5], v[9] = 0, 0, 10
    draws = []

    def synthetic(p, U, W, s_max):
        draws.append(0)
        for s in range(s_max + 1):
            draws[-1] = s
            yield {0: [p ** v[s]]}

    monkeypatch.setattr(padic, "_symbol_numerators", synthetic)
    prof = radius_profile(RationalFunctionPi(p, [Fraction(1, 3)], [1]),
                          grid, s_max)
    assert draws == [9, 26]
    assert prof.samples == tuple(RadiusSample(lam, *_estimate_radius(
        p, lam, [None] + [2 * lam.denominator * (v[s] - s)
                          for s in range(1, s_max + 1)], s_max))
        for lam in grid)
    assert [(s.r, s.method) for s in prof.samples] == \
        [(Fraction(6, 5), "unstabilized")] * 2


# -- the recurrence by class, against numpy object arrays ---------------------

def _mul_add(out, terms, n, p: int):
    """out += (sum of c pi^e x^i over terms) * n in place; c int or column."""
    d, L = p - 1, len(n)
    for i, e, c in terms:
        out[i:i + L, e:] += c * n[:, :d - e]
        if e:
            out[i:i + L, :e] -= (p * c) * n[:, d - e:]


def _reference_numerators(p, U, W, s_max):
    """n_0..n_(s_max) of _symbol_numerators as (L, p-1) object arrays of
    ints, row i the coordinates of x^i for 1, pi, ..., pi^(p-2): each term
    of U and of W updates whole column slices, the columns that wrap past
    pi^(p-2) times -p.  Every n_s keeps max(0, 1 + grow s) rows."""
    def terms(rows):
        a = np.array(rows, dtype=object).reshape(-1, p - 1)
        return [(i, e, c) for (i, e), c in np.ndenumerate(a) if c]

    u_terms = [(k + 1, e, u) for k, e, u in terms(U)]
    w_terms = terms(W)
    grow = max(len(W) - 2, len(U) - 1)
    n = np.zeros((1, p - 1), dtype=object)
    n[0, 0] = 1
    yield n
    for s in range(s_max):
        out = np.zeros((len(n) + grow + 1, p - 1), dtype=object)
        i = np.arange(len(n), dtype=object)[:, None]
        _mul_add(out, [(k, e, w * (i - s * k)) for k, e, w in w_terms], n, p)
        _mul_add(out, u_terms, n, p)
        n = out[1:]
        yield n


@st.composite
def _dense_operators(draw):
    """g = U / W with every pi-coordinate of up to three coefficients of U
    and two of W drawn, zeros included: their terms fill every class."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    coeff = st.lists(st.integers(-40, 40), min_size=p - 1, max_size=p - 1)
    num = [PiNumber(p, c) for c in draw(st.lists(coeff, max_size=3))]
    den = [PiNumber(p, c) for c in draw(st.lists(coeff, max_size=1))]
    den.append(PiNumber(p, draw(coeff.filter(any))))
    return RationalFunctionPi(p, num, den)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_operators(), _dense_operators()), st.integers(0, 40))
@example(RationalFunctionPi.zero(5), 12)
@example(RationalFunctionPi(7, [0, 0, PiNumber.pi(7)], [1, 3]), 30)
@example(RationalFunctionPi(5, [0, 1], [PiNumber.pi(5), 0, 0, 2]), 25)
@example(RationalFunctionPi(3, [0, PiNumber(3, [1, 2])],
                            [PiNumber(3, [5, -1]), 1]), 40)
def test_symbols_by_class_match_the_array_recurrence(g, s_max):
    # every coordinate of n_0..n_(s_max), against the numpy recurrence
    # over whole rows; g = 0, and numerators with a zero constant row
    p = g.p
    U, W = _cleared(g)
    ours = list(_symbol_numerators(p, U, W, s_max))
    ref = list(_reference_numerators(p, U, W, s_max))
    assert len(ours) == len(ref) == s_max + 1
    for n, m in zip(ours, ref):
        assert all(any(col) for col in n.values())
        rows = _rows(n, p)
        assert len(rows) in (0, len(m))
        assert rows == m.tolist() if rows else not m.any()


@pytest.mark.parametrize("p,depth", [(3, 200), (5, 200), (7, 200)])
def test_dwork_twist_symbols_occupy_one_class(p, depth):
    # pi/x^2 + (1/3)/x shifts every class by 1 at each step, so n_s lies in
    # the class s mod (p - 1), one nonzero coordinate a row: at p = 5 the
    # 20,301 rows of n_0..n_200, a quarter of their 81,204 coordinates
    g = dwork_twist(mono(p, Fraction(1, 3), 1))
    U, W = _cleared(g)
    rows = 0
    for s, n in enumerate(_symbol_numerators(p, U, W, depth)):
        assert list(n) == [s % (p - 1)] and all(n[s % (p - 1)])
        rows += len(n[s % (p - 1)])
    assert rows == sum(1 + s for s in range(depth + 1))
    if p == 5:
        assert (rows, 4 * rows) == (20301, 81204)


def test_padic_import_leaves_numpy_out():
    # the symbols and their valuations are Python ints
    src = str(Path(padic.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, expsumlab.padic; "
            "print(sorted(set(sys.modules) & {'numpy'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


# -- valuations of the integer symbols ------------------------------------------

_B = _VP_BLOCK


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]),
       st.lists(st.tuples(st.integers(0, 3 * _B), st.integers(1, 2 ** 2000),
                          st.booleans()), min_size=1, max_size=6))
@example(5, [(_B - 1, 1, False), (_B, 1, False), (_B + 1, 1, True),
             (2 * _B, 1, False)])
@example(2, [(0, 2 ** 2000 - 1, True), (3 * _B, 3, False), (1, 1, False),
             (2 * _B - 1, 2 ** 1999 + 1, True), (_B, 5, False)])
@example(11, [(3 * _B, 2 ** 2000, True)])
def test_vp_gcd_matches_scalar_reference(p, entries):
    # x = +-p^v u with p not dividing u: valuations on both sides of each
    # multiple of the gcd block, against the one-division-at-a-time v_p
    xs = [(-1 if neg else 1) * p ** v * (u + 1 if u % p == 0 else u)
          for v, u, neg in entries]
    assert [_vp_gcd(x, p) for x in xs] == [_vp_int(x, p) for x in xs] == \
        [v for v, _, _ in entries]


def test_vp_gcd_refuses_zero():
    for p in (2, 5):
        with pytest.raises(ValueError):
            _vp_gcd(0, p)


def test_row_valuations_match_scalar_reference_to_depth_200():
    # every symbol numerator of the Dwork twist of (1/3)/x at p = 5, whose
    # coordinates reach 1,600 bits and valuation 54
    p = 5
    g = RationalFunctionPi(p, [PiNumber.pi(p), Fraction(1, 3)], [0, 0, 1])
    U, W = _cleared(g)
    for n in _symbol_numerators(p, U, W, 200):
        n = _rows(n, p)
        expected = [(i, min((p - 1) * _vp_int(c, p) + e
                            for e, c in enumerate(row) if c))
                    for i, row in enumerate(n) if any(row)]
        assert _row_valuations(n, p) == expected
        # and the records, each row that is none dismissed by divisibility
        assert _record_valuations(n, p) == _record_rows(expected)
    # and coordinates that p^B divides, whose v_p comes from _vp_gcd
    n = [[0] * 4, [p ** 70, 3 * p ** _B, 0, 0], [0, 2 * p ** 130, 0, 0]]
    assert _row_valuations(n, p) == [(1, 4 * _B + 1), (2, 4 * 130 + 1)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 60)), max_size=12),
       st.integers(1, 40), st.integers(1, 40))
def test_record_rows_attain_every_minimum(steps, a, b):
    # rows (j, V_j) at increasing j; at every positive weight (a, b) the
    # Gauss minimum over the kept rows is the minimum over all of them
    rows, j = [], -1
    for step, V in steps:
        j += step
        rows.append((j, V))
    kept = _record_rows(rows)
    assert all(row in rows for row in kept)
    assert [V for _, V in kept] == sorted({V for _, V in kept}, reverse=True)
    if rows:
        assert min(V * a + j * b for j, V in kept) == \
            min(V * a + j * b for j, V in rows)
    else:
        assert kept == []


@st.composite
def planted_symbol_arrays(draw):
    """(n, p): L rows of p - 1 ints, each coordinate 0 or +-p^v u with v
    planted, mostly small so that rows tie and nearly tie, and sometimes
    past the gcd block; u may hold further factors of p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    v = st.one_of(st.integers(0, 6), st.integers(0, 2 * _B + 2))
    unit = st.integers(-(2 ** 80), 2 ** 80).filter(bool)
    coord = st.one_of(st.just(0), st.builds(lambda v, u: p ** v * u, v, unit))
    rows = draw(st.lists(st.lists(coord, min_size=p - 1, max_size=p - 1),
                         max_size=16))
    return rows, p


@settings(max_examples=300, deadline=None)
@given(planted_symbol_arrays())
def test_record_valuations_match_the_two_step_reference(case):
    # a row is dismissed by one divisibility test per coordinate against
    # the record so far; the records and their valuations are those of
    # valuing every row and keeping the records
    n, p = case
    assert _record_valuations(n, p) == _record_rows(_row_valuations(n, p))


def test_estimator_flags_unstructured_profiles():
    # synthetic valuations v(b_s) = -s^2/40 that are neither clamped nor
    # p-power linear, at lam = 1/20, where the estimator reads M_s = 40 v(b_s)
    p, s_max, lam = 3, 30, Fraction(1, 20)
    v_b = [None] + [-Fraction(s * s, 40) for s in range(1, s_max + 1)]
    M = [None] + [-s * s for s in range(1, s_max + 1)]
    r, stab, method = _estimate_radius(p, lam, M, s_max)
    assert not stab and method == "unstabilized"
    # the clamped running maximum of (v(s!) - v(b_s)) / s
    assert r == max((factorial_valuation(s, p) - v_b[s]) / s
                    for s in range(1, s_max + 1)) > lam


def test_dwork_twist_examples():
    p = 3
    pi = PiNumber.pi(p)
    assert dwork_twist(RationalFunctionPi.zero(p)) == mono(p, pi, 2)
    g = mono(p, Fraction(1, 2), 1)
    tw = dwork_twist(g)
    assert tw == RationalFunctionPi(p, [pi, Fraction(1, 2)], [0, 0, 1])
    twice = dwork_twist(tw)
    assert twice == g + mono(p, pi * 2, 2)


@pytest.mark.parametrize("p,c", [(3, Fraction(1, 2)), (5, Fraction(1, 3))])
def test_twist_profile_and_index(p, c):
    prof = radius_profile(dwork_twist(mono(p, c, 1)), s_max=30)
    for s in prof.samples:
        assert s.r == 2 * s.lam and s.stabilized
    assert robba_index(prof) == 0


def test_robba_index_synthetic():
    def profile(rs, slopes):
        samples = tuple(RadiusSample(Fraction(l), Fraction(r), True, "synthetic")
                        for l, r in rs)
        return RadiusProfile(3, samples, slopes)

    # inner slope 2, outer slope 1: index 1
    prof = profile([(1, 1), (2, 2), (3, 4)], (Fraction(1), Fraction(2)))
    assert robba_index(prof) == 1
    # constant slopes cancel
    prof = profile([(1, 1), (2, 2)], (Fraction(1), Fraction(1)))
    assert robba_index(prof) == 0
    bad = RadiusProfile(3, (
        RadiusSample(Fraction(1), Fraction(1), True, "synthetic"),
        RadiusSample(Fraction(2), Fraction(2), False, "unstabilized")),
        (Fraction(1), Fraction(1)))
    with pytest.raises(NonStabilizedError):
        robba_index(bad)
    frac = profile([(1, 1), (2, 2), (3, 4)], (Fraction(1), Fraction(3, 2)))
    with pytest.raises(ValueError):
        robba_index(frac)


def test_rational_function_algebra():
    p = 5
    pi = PiNumber.pi(p)
    f = RationalFunctionPi(p, [1, pi], [0, 1])
    g = RationalFunctionPi(p, [2], [1, 1])
    prod = f * g
    assert prod == RationalFunctionPi(p, [2, pi * 2], [0, 1, 1])
    # quotient rule
    d = (f * g).derivative()
    assert d == f.derivative() * g + f * g.derivative()
    # reduce cancels common factors but preserves the value
    h = RationalFunctionPi(p, [0, 1, pi], [0, 0, 1])  # (x + pi x^2)/x^2
    r = h.reduce()
    assert r == h
    assert len(r.den) < len(h.den)
    assert h == RationalFunctionPi(p, [1, pi], [0, 1])
    with pytest.raises(ZeroDivisionError):
        RationalFunctionPi(p, [1], [])


def test_default_grid_shape():
    assert DEFAULT_GRID == (Fraction(1, 4), Fraction(1, 2), Fraction(1),
                            Fraction(3, 2), Fraction(2))


def _rs(lam, r, method, den_tie=False):
    return RadiusSample(Fraction(lam), Fraction(r), method != "unstabilized",
                        method, den_tie)


@pytest.mark.parametrize("s_max,middle", [
    (20, _rs("5/8", "3/4", "unstabilized", True)),
    (30, _rs("5/8", "4/5", "power-subsequence", True)),
])
def test_profile_pinned_with_unequal_denominators(s_max, middle):
    # g = (1/2 + x/3) / (x^2/5 + pi): numerator and denominator clear with
    # different denominators; den ties at lambda = 5/8.  Values recorded
    # from the Fraction-coordinate recurrence.
    p = 5
    g = RationalFunctionPi(p, [Fraction(1, 2), Fraction(1, 3)],
                           [PiNumber.pi(p), 0, Fraction(1, 5)])
    grid = (Fraction(1, 8), Fraction(1, 4), Fraction(5, 8), 1, 2)
    expected = RadiusProfile(p, (
        _rs("1/8", "1/8", "robba-clamp"), _rs("1/4", "1/4", "robba-clamp"),
        middle, _rs(1, 1, "robba-clamp"), _rs(2, 2, "robba-clamp")),
        (Fraction(1), Fraction(1)))
    assert radius_profile(g, grid, s_max) == expected


def test_pi_and_cyclotomic_numbers_do_not_mix():
    p = 5
    x, z = PiNumber.pi(p), CyclotomicRat.one(p)
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(TypeError):
            op(x, z)
        with pytest.raises(TypeError):
            op(z, x)
