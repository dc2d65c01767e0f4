import random
from fractions import Fraction

import pytest

from expsumlab.ffield import CyclotomicRat
from expsumlab.lfun import (ReconstructionError, TruncatedSeries,
                            degree, exp_power_sums, log_derivative_check,
                            pade_reconstruct, power_sums_from_ints,
                            reconstruct_auto, series_from_rationals,
                            total_degree)


def rationals(series):
    return [c.as_rational() for c in series.coeffs]


def poly_rationals(poly):
    return [c.as_rational() for c in poly]


# -- exp of power sums ----------------------------------------------------------

def test_exp_geometric():
    s = exp_power_sums(power_sums_from_ints(3, 1, [3, 9, 27, 81]))
    assert rationals(s) == [1, 3, 9, 27, 81]


def test_exp_zero_sums():
    s = exp_power_sums(power_sums_from_ints(5, 1, [0, 0, 0]))
    assert rationals(s) == [1, 0, 0, 0]


def test_exp_log_one_minus_t():
    s = exp_power_sums(power_sums_from_ints(5, 1, [-1, -1, -1]))
    assert rationals(s) == [1, -1, 0, 0]


def test_exp_times_exp_of_negated_is_one():
    S = [7, -2, 5, 1, -9]
    a = exp_power_sums(power_sums_from_ints(7, 1, S))
    b = exp_power_sums(power_sums_from_ints(7, 1, [-x for x in S]))
    assert rationals(a * b) == [1, 0, 0, 0, 0, 0]


# -- Pade reconstruction -----------------------------------------------------------

def test_pade_geometric():
    s = exp_power_sums(power_sums_from_ints(3, 1, [3, 9, 27, 81]))
    L = pade_reconstruct(s, 0, 1)
    assert poly_rationals(L.P) == [1]
    assert poly_rationals(L.Q) == [1, -3]
    assert degree(L) == 1 and total_degree(L) == 1
    assert L.certified_order == 4


def test_pade_polynomial_series():
    L = pade_reconstruct(series_from_rationals(5, [1, -1, 0, 0, 0]), 1, 0)
    assert poly_rationals(L.P) == [1, -1] and poly_rationals(L.Q) == [1]
    assert degree(L) == -1 and total_degree(L) == 1


def test_pade_mixed():
    L = pade_reconstruct(series_from_rationals(5, [1, 1, 2, 4, 8]), 1, 1)
    assert poly_rationals(L.P) == [1, -1]
    assert poly_rationals(L.Q) == [1, -2]
    assert degree(L) == 0 and total_degree(L) == 2


def test_pade_requires_enough_terms():
    s = series_from_rationals(3, [1, 2, 4])
    with pytest.raises(ReconstructionError):
        pade_reconstruct(s, 1, 1)  # needs dP + dQ + 1 <= M = 2


def test_pade_rejects_non_rational_fit():
    s = series_from_rationals(3, [1, 1, 1, 2, 1, 1, 1])
    with pytest.raises(ReconstructionError):
        pade_reconstruct(s, 1, 1)


def test_bezout_certificate():
    s = exp_power_sums(power_sums_from_ints(3, 1, [3, 9, 27, 81]))
    L = pade_reconstruct(s, 0, 1)
    u, v = L.bezout
    p = 3
    from expsumlab._exactpoly import add as _add, mul as _mul
    lhs = _add(_mul(list(u), list(L.P)), _mul(list(v), list(L.Q)))
    assert poly_rationals(lhs) == [1]


def _random_cyc(p, rng):
    return CyclotomicRat(p, [Fraction(rng.randint(-3, 3),
                                      rng.randint(1, 3)) for _ in range(p - 1)])


def _random_lseries(p, rng, max_deg=2):
    one = CyclotomicRat.one(p)
    dP, dQ = rng.randint(0, max_deg), rng.randint(0, max_deg)
    P = [one] + [_random_cyc(p, rng) for _ in range(dP)]
    Q = [one] + [_random_cyc(p, rng) for _ in range(dQ)]
    from expsumlab._exactpoly import trim as _trim
    return _trim(P), _trim(Q)


@pytest.mark.parametrize("p", [3, 5])
def test_round_trip_random(p):
    rng = random.Random(p * 31337)
    from expsumlab._exactpoly import (expand_quotient as _expand_quotient,
                                      trim as _trim, xgcd as _xgcd)
    for _ in range(25):
        P, Q = _random_lseries(p, rng)
        g, _, _ = _xgcd(P, Q)
        if len(g) != 1:
            continue  # rare non-coprime draw; round trip is stated for gcd 1
        M = (len(P) - 1) + (len(Q) - 1) + 1
        series = TruncatedSeries(p, tuple(_expand_quotient(P, Q, M)))
        L = pade_reconstruct(series, len(P) - 1, len(Q) - 1)
        assert list(L.P) == P and list(L.Q) == Q


def test_reconstruct_auto_finds_minimal():
    s = exp_power_sums(power_sums_from_ints(3, 1, [3, 9, 27, 81, 243, 729]))
    L = reconstruct_auto(s)
    assert poly_rationals(L.Q) == [1, -3] and poly_rationals(L.P) == [1]
    with pytest.raises(ReconstructionError):
        reconstruct_auto(series_from_rationals(3, [1, 1, 1]))  # no slack room


def test_log_derivative_identity():
    for S in ([3, 9, 27, 81], [-1, -1, -1, -1], [2, 12, -40, -16, 352]):
        seq = power_sums_from_ints(5, 1, S)
        L = reconstruct_auto(exp_power_sums(seq))
        assert log_derivative_check(L, seq)
    # a wrong L-series must fail the identity
    seq = power_sums_from_ints(5, 1, [3, 9, 27, 81])
    wrong = pade_reconstruct(series_from_rationals(5, [1, 2, 4, 8, 16]), 0, 1)
    assert not log_derivative_check(wrong, seq)


def test_lseries_json():
    s = exp_power_sums(power_sums_from_ints(3, 1, [3, 9, 27, 81]))
    doc = pade_reconstruct(s, 0, 1).to_json()
    assert doc["degree"] == 1 and doc["total_degree"] == 1
    assert doc["Q"][1][0] == [-3, 1]
    assert doc["certified_order"] == 4


def test_expansion_round_trip():
    # S_m = 2^m + (-1)^m, so L = 1/((1 - 2t)(1 + t))
    sums = [2 ** m + (-1) ** m for m in range(1, 7)]
    s = exp_power_sums(power_sums_from_ints(5, 1, sums))
    L = reconstruct_auto(s)
    assert poly_rationals(L.Q) == [1, -1, -2]
    assert L.expansion().coeffs == s.coeffs
