from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsumlab.ffield import CyclotomicRat
from expsumlab.padic import (DEFAULT_GRID, INF, GaussWeight,
                             NonStabilizedError, PiNumber, RadiusProfile,
                             RadiusSample, RationalFunctionPi, digit_sum,
                             dwork_twist, factorial_valuation, gauss_valuation,
                             radius_profile, robba_index, symbol_sequence,
                             taylor_norm_check)
from expsumlab.padic import (_VP_BLOCK, _cleared, _estimate_radius,
                             _row_valuations, _symbol_numerators, _vp_array,
                             _vp_int)


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
    pts = prof.points()
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
    assert plain.points() == padded.points()


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
        v_b = [None] + [gauss_valuation(b, w) for b in bs[1:]]
        den = [c.valuation() + j * lam for j, c in enumerate(g.den) if c]
        r, stab, method, raw, osc = _estimate_radius(g.p, lam, v_b, s_max)
        samples.append(RadiusSample(lam, r, stab, method,
                                    den.count(min(den)) > 1, raw, osc))
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


# -- valuations of the integer symbols ------------------------------------------

_B = _VP_BLOCK


def _objects(xs):
    return np.array(xs, dtype=object)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]),
       st.lists(st.tuples(st.integers(0, 3 * _B), st.integers(1, 2 ** 2000),
                          st.booleans()), min_size=1, max_size=6))
@example(5, [(_B - 1, 1, False), (_B, 1, False), (_B + 1, 1, True),
             (2 * _B, 1, False)])
@example(2, [(0, 2 ** 2000 - 1, True), (3 * _B, 3, False), (1, 1, False),
             (2 * _B - 1, 2 ** 1999 + 1, True), (_B, 5, False)])
@example(11, [(3 * _B, 2 ** 2000, True)])
def test_vp_array_matches_scalar_reference(p, entries):
    # x = +-p^v u with p not dividing u: valuations on both sides of each
    # multiple of the gcd block, against the one-division-at-a-time v_p
    xs = [(-1 if neg else 1) * p ** v * (u + 1 if u % p == 0 else u)
          for v, u, neg in entries]
    got = _vp_array(_objects(xs), p)
    assert got.dtype == np.int64
    assert got.tolist() == [_vp_int(x, p) for x in xs] == \
        [v for v, _, _ in entries]


def test_vp_array_refuses_zero():
    for xs in ([0], [5 ** (2 * _B), 0, 3], [0, 5]):
        with pytest.raises(ValueError):
            _vp_array(_objects(xs), 5)


def test_row_valuations_match_scalar_reference_to_depth_200():
    # every symbol numerator of the Dwork twist of (1/3)/x at p = 5, whose
    # coordinates reach 1,600 bits and valuation 54
    p = 5
    g = RationalFunctionPi(p, [PiNumber.pi(p), Fraction(1, 3)], [0, 0, 1])
    U, W = _cleared(g)
    for n in _symbol_numerators(p, U, W, 200):
        j, V = _row_valuations(n, p)
        expected = [(i, min((p - 1) * _vp_int(c, p) + e
                            for e, c in enumerate(row) if c))
                    for i, row in enumerate(n.tolist()) if any(row)]
        assert list(zip(j.tolist(), V.tolist())) == expected


def test_estimator_flags_unstructured_profiles():
    # synthetic valuations that are neither clamped nor p-power linear
    p, s_max, lam = 3, 30, Fraction(1)
    v_b = [None] + [-Fraction(s * s, 40) for s in range(1, s_max + 1)]
    r, stab, method, raw, osc = _estimate_radius(p, lam, v_b, s_max)
    assert not stab and method == "unstabilized"
    assert osc is not None and osc > 0
    assert r == raw >= lam


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


def test_taylor_norm_check():
    assert taylor_norm_check(1, 2, 3) == 0
    assert taylor_norm_check(Fraction(1, 2), Fraction(3, 2), 5) == Fraction(1, 2)
    # approaching the weight from above: value tends to -lam = v(1/rho)
    eps = Fraction(1, 1000)
    assert taylor_norm_check(1, 1 + eps, 3) == eps - 1
    with pytest.raises(ValueError):
        taylor_norm_check(1, 1, 3)
    with pytest.raises(ValueError):
        taylor_norm_check(1, 2, 3, truncation=0)


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


def _rs(lam, r, method, den_tie=False, raw=None, osc=None):
    return RadiusSample(Fraction(lam), Fraction(r), method != "unstabilized",
                        method, den_tie, Fraction(raw if raw else r),
                        None if osc is None else Fraction(osc))


@pytest.mark.parametrize("s_max,middle", [
    (20, _rs("5/8", "3/4", "unstabilized", True, osc="7/152")),
    (30, _rs("5/8", "4/5", "power-subsequence", True, raw="79/100")),
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
