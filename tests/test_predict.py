from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsumlab import _exactpoly
from expsumlab.predict import (CHERN_BITS_PER_UNIT, BettiSpec, ChernSpec,
                               CurveSpec, NewtonSpec, betti_degree,
                               chern_degree, chern_work, curve_degree,
                               fermat_alternative_value, fermat_chern_spec,
                               fermat_discrepancy_report, fermat_torus_support,
                               newton_degree, newton_report, point_in_hull,
                               sl2_degree)


# -- Chern-series coefficient ------------------------------------------------------

def test_chern_examples():
    assert chern_degree(ChernSpec(1, (1, 1), (1, 1))) == 2
    assert chern_degree(ChernSpec(2, (1, 1, 1), (1, 1, 1))) == 9
    assert chern_degree(ChernSpec(1, (1,), (2,))) == 1  # d - 1 on the line


def test_chern_against_inclusion_exclusion():
    # with all e_i = 0 the coefficient counts chi of P^n minus r generic
    # hyperplanes, computable by inclusion-exclusion over the intersections
    def chi(n, r):
        return sum((-1) ** j * comb(r, j) * (n + 1 - j)
                   for j in range(0, min(r, n) + 1))

    for n in (1, 2, 3):
        for r in range(0, 5):
            got = chern_degree(ChernSpec(n, tuple([1] * r), tuple([0] * r)))
            assert got == (-1) ** n * chi(n, r), (n, r)


def _chern_product(s):
    """chern_degree as a product: (1+h)^(n+1) and each 1/(1 + c h) expanded
    as sum_k (-c)^k h^k, multiplied factor by factor and truncated at h^n."""
    n = s.n
    E = sum(di * ei for di, ei in zip(s.d, s.e))
    factors = [[1, 1]] * (n + 1) + [[(-c) ** k for k in range(n + 1)]
                                    for c in (E, *s.d)]
    series = [1]
    for factor in factors:
        series = _exactpoly.mul(series, factor)[:n + 1]
    return (-1) ** n * (series[n] if len(series) > n else 0)


@st.composite
def _chern_specs(draw):
    n = draw(st.integers(1, 12))
    r = draw(st.integers(0, 5))
    return ChernSpec(n, tuple(draw(st.lists(st.integers(1, 9), min_size=r,
                                            max_size=r))),
                     tuple(draw(st.lists(st.integers(0, 4), min_size=r,
                                         max_size=r))))


@settings(max_examples=200, deadline=None)
@given(_chern_specs())
@example(ChernSpec(40, (3, 1, 7), (2, 0, 5)))
def test_chern_matches_the_product_form(spec):
    assert chern_degree(spec) == _chern_product(spec)


def _chern_steps(s):
    """chern_degree's division passes, counted: its steps and the most bits
    of any integer a step forms, the product c b_(k-1) or the new b_k."""
    n = s.n
    E = sum(di * ei for di, ei in zip(s.d, s.e))
    series = [comb(n + 1, k) for k in range(n + 1)]
    steps, bits = 0, max(b.bit_length() for b in series)
    for c in (E, *s.d):
        for k in range(1, n + 1):
            product = c * series[k - 1]
            series[k] -= product
            steps += 1
            bits = max(bits, product.bit_length(), series[k].bit_length())
    assert (-1) ** n * series[n] == chern_degree(s)
    return steps, bits


@settings(max_examples=100, deadline=None)
@given(_chern_specs())
@example(ChernSpec(40, (3, 1, 7), (2, 0, 5)))
@example(ChernSpec(60, (10 ** 30,) * 3, (10 ** 30,) * 3))
@example(fermat_chern_spec(60))
def test_chern_work_bounds_its_steps_and_bits(spec):
    # a unit per step and CHERN_BITS_PER_UNIT bits of the widest integer
    steps, bits = _chern_steps(spec)
    assert chern_work(spec) >= steps * (bits // CHERN_BITS_PER_UNIT + 1)


def test_chern_validation():
    with pytest.raises(ValueError):
        ChernSpec(0, (), ())
    with pytest.raises(ValueError):
        ChernSpec(2, (1, 1), (1,))
    with pytest.raises(ValueError):
        ChernSpec(2, (0,), (1,))


# -- curve count --------------------------------------------------------------------

def test_curve_examples():
    for d in range(1, 21):
        assert curve_degree(CurveSpec(0, 0, 1, d)) == d - 1
    assert curve_degree(CurveSpec(0, 0, 2, 2)) == 2   # Kloosterman shape
    assert curve_degree(CurveSpec(1, 0, 1, 2)) == 3


def test_curve_monotone():
    base = CurveSpec(1, 1, 2, 3)
    val = curve_degree(base)
    assert curve_degree(CurveSpec(2, 1, 2, 3)) > val
    assert curve_degree(CurveSpec(1, 2, 2, 3)) > val
    assert curve_degree(CurveSpec(1, 1, 3, 3)) > val
    assert curve_degree(CurveSpec(1, 1, 2, 4)) > val
    with pytest.raises(ValueError):
        CurveSpec(0, 0, 0, 1)


# -- Betti arithmetic ----------------------------------------------------------------

def test_betti_examples():
    assert betti_degree(BettiSpec(3, (7, 18))) == (11, 25)
    assert betti_degree(BettiSpec(3, (8, 79))) == (71, 87)
    assert betti_degree(BettiSpec(3, (0, 0))) == (0, 0)


def test_betti_bound_dominates_degree():
    for b in ((1, 2), (5, 5), (0, 7), (9, 3)):
        deg, bound = betti_degree(BettiSpec(3, b))
        assert bound >= deg
    with pytest.raises(ValueError):
        BettiSpec(3, (1, 2, 3))


# -- Newton polytope volume ------------------------------------------------------------

def test_newton_examples():
    assert newton_degree(NewtonSpec(1, ((1,), (-1,)))) == 2
    assert newton_degree(NewtonSpec(1, ((2,),))) == 2
    assert newton_degree(NewtonSpec(2, ((-1, -1), (2, -1), (-1, 2)))) == 9


def test_newton_degenerate_flag():
    value, degenerate = newton_report(NewtonSpec(2, ((1, 1), (2, 2))))
    assert degenerate and value == 0
    value, degenerate = newton_report(NewtonSpec(2, ((-1, -1), (2, -1), (-1, 2))))
    assert not degenerate and value == 9


def test_newton_known_volumes():
    # unit simplex, cube, and a 4-dimensional dilated simplex
    assert newton_degree(NewtonSpec(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 1
    cube = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    assert newton_degree(NewtonSpec(3, cube)) == 6
    simplex4 = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    assert newton_degree(NewtonSpec(4, simplex4)) == 16
    with pytest.raises(ValueError):
        NewtonSpec(5, ((1, 0, 0, 0, 0),))


@pytest.mark.parametrize("k", [2, 3])
def test_newton_dilation_scaling(k):
    for n, support in ((1, ((1,), (-1,))),
                       (2, ((-1, -1), (2, -1), (-1, 2))),
                       (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))):
        base = newton_degree(NewtonSpec(n, support))
        dil = newton_degree(NewtonSpec(
            n, tuple(tuple(k * x for x in v) for v in support)))
        assert dil == k ** n * base


def test_newton_translation_invariance_with_zero_inside():
    support = ((-1, -1), (2, -1), (-1, 2))
    spec = NewtonSpec(2, support)
    base = newton_degree(spec)
    for shift in ((1, 0), (0, -1), (1, 1)):
        moved = tuple(tuple(x + s for x, s in zip(v, shift)) for v in support)
        spec2 = NewtonSpec(2, moved)
        if point_in_hull(spec, (0, 0)) and point_in_hull(spec2, (0, 0)):
            assert newton_degree(spec2) == base


def test_newton_rational_value():
    # half-open simplex: conv{0, e1, e1+e2} has area 1/2, volume 2!*1/2 = 1
    assert newton_degree(NewtonSpec(2, ((1, 0), (1, 1)))) == 1
    # a genuinely fractional normalized volume
    val = newton_degree(NewtonSpec(2, ((1, 0), (0, 1), (1, 1))))
    assert isinstance(val, Fraction) and val == 2


# -- SL2 family and the Fermat-type discrepancy -------------------------------------------

def test_sl2_degree():
    assert sl2_degree(1) == 2
    assert sl2_degree(2) == 4
    assert sl2_degree(0) == 0
    with pytest.raises(ValueError):
        sl2_degree(-1)


def test_fermat_discrepancy():
    rep = fermat_discrepancy_report(2)
    assert rep["chern_value"] == 9
    assert rep["newton_value"] == 9
    assert rep["alternative_value"] == 12
    assert rep["discrepant"]
    rep1 = fermat_discrepancy_report(1)
    assert rep1["chern_value"] == rep1["newton_value"] == \
        rep1["alternative_value"] == 2
    assert not rep1["discrepant"]
    # the two sides are generated consistently
    assert fermat_chern_spec(3).n == 3
    assert fermat_torus_support(2).support == ((-1, -1), (2, -1), (-1, 2))
    assert fermat_alternative_value(3) == 108
