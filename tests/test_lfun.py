import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsumlab._exactpoly import (add, divmod_, expand_quotient, mul, neg,
                                  trim, xgcd)
from expsumlab.ffield import CyclotomicRat
from expsumlab.lfun import (LSeries, ReconstructionError, TruncatedSeries,
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
    # the series product, truncated at the order both are known to
    product = mul(list(a.coeffs), list(b.coeffs))[:len(a.coeffs)]
    assert poly_rationals(product) == [1, 0, 0, 0, 0, 0]


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
    assert expand_quotient(list(L.P), list(L.Q),
                           L.certified_order) == list(s.coeffs)


# -- the remainder walk against the degree sweep it replaced --------------------

def _pade_reference(s, dP, dQ):
    """pade_reconstruct as it was: extended Euclid on (t^(M+1), s) down to
    deg r <= dP, then reduction by xgcd over Q(zeta_p)."""
    p = s.p
    M = s.order
    if dP < 0 or dQ < 0:
        raise ValueError("degree bounds must be >= 0")
    if dP + dQ + 1 > M:
        raise ReconstructionError(
            f"certification needs dP + dQ + 1 <= M; got {dP}+{dQ}+1 > {M}")
    one = CyclotomicRat.one(p)
    mod = [CyclotomicRat.zero(p)] * (M + 1) + [one]  # t^(M+1)
    r_prev, r_cur = mod, trim(s.coeffs)
    v_prev, v_cur = [], [one]
    while len(r_cur) - 1 > dP:
        q, r = divmod_(r_prev, r_cur)
        r_prev, r_cur = r_cur, r
        v_prev, v_cur = v_cur, add(v_prev, neg(mul(q, v_cur)))
    P_raw, Q_raw = r_cur, v_cur
    if not Q_raw:
        raise ReconstructionError("degenerate reconstruction")
    g, _, _ = xgcd(P_raw, Q_raw)
    if len(g) > 1:
        P_raw, _ = divmod_(P_raw, g)
        Q_raw, _ = divmod_(Q_raw, g)
    if len(Q_raw) - 1 > dQ:
        raise ReconstructionError(
            f"no denominator of degree <= {dQ} matches (needed {len(Q_raw) - 1})")
    if not Q_raw or Q_raw[0].is_zero():
        raise ReconstructionError("denominator vanishes at 0; cannot normalize")
    inv0 = Q_raw[0].inverse()
    P = [x * inv0 for x in P_raw]
    Q = [x * inv0 for x in Q_raw]
    if expand_quotient(P, Q, M) != list(s.coeffs):
        raise ReconstructionError(
            "expansion mismatch: series is not rational within the bounds "
            "(order too small or bounds wrong)")
    g, u, v = xgcd(P, Q)
    assert len(g) == 1
    return LSeries(p, tuple(P), tuple(Q), M, bezout=(tuple(u), tuple(v)))


def _sweep_reference(s, slack):
    """reconstruct_auto as it was: one Pade attempt per (dP, dQ), total
    degree up, denominator-heavy first."""
    M = s.order
    for total in range(0, max(0, M - slack)):
        for dQ in range(total, -1, -1):
            try:
                return _pade_reference(s, total - dQ, dQ)
            except ReconstructionError:
                continue
    raise ReconstructionError(
        f"no rational function certified at order {M} with slack {slack}")


def _outcome(f, *args):
    """The LSeries f returns (P, Q, certified_order and bezout compare
    exactly), or the text of the ReconstructionError it raises."""
    try:
        return f(*args)
    except ReconstructionError as exc:
        return str(exc)


@st.composite
def _series_and_slack(draw):
    """A truncation over Q(zeta_p) with coordinates in {-1, 0, 1}, and a
    slack: half of the series expand a rational function, the rest are
    drawn term by term.  The sweep tries every total degree up to
    M - 1 - slack, and its cost grows fast in that and in p, hence
    M <= 4 + slack (3 + slack at p = 7)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    slack = draw(st.integers(0, 2))
    M = draw(st.integers(0, (3 if p == 7 else 4) + slack))
    coef = st.lists(st.integers(-1, 1), min_size=p - 1, max_size=p - 1).map(
        lambda coords: CyclotomicRat(p, coords))
    if draw(st.booleans()):
        P = draw(st.lists(coef, min_size=1, max_size=4))
        Q = [CyclotomicRat.one(p)] + draw(st.lists(coef, max_size=3))
        coeffs = expand_quotient(P, Q, M)
    else:
        coeffs = draw(st.lists(coef, min_size=M + 1, max_size=M + 1))
    return TruncatedSeries(p, tuple(coeffs)), slack


_FIBONACCI = [1, 1, 2, 3, 5, 8]   # 1/(1 - t - t^2), total degree 2


@settings(max_examples=40, deadline=None)
@given(_series_and_slack(), st.integers(0, 3), st.integers(0, 3))
# no rational function fits within the slack
@example((series_from_rationals(3, [1, 1, 1, 2, 1, 1, 1]), 2), 1, 1)
# M = T + slack + 1 certifies T = 2; M = T + slack does not
@example((series_from_rationals(5, _FIBONACCI), 2), 0, 2)
@example((series_from_rationals(5, _FIBONACCI[:-1]), 2), 0, 2)
# 1/(1 + t^4) at M = 7 is also the polynomial 1 - t^4: s itself certifies
# first, at T = 4 with 2T > M, and the later row 1/(1 + t^4) wins the tie
@example((series_from_rationals(2, [1, 0, 0, 0, -1, 0, 0, 0]), 2), 3, 3)
def test_walk_matches_sweep(case, dP, dQ):
    s, slack = case
    assert _outcome(reconstruct_auto, s, slack) == _outcome(
        _sweep_reference, s, slack)
    assert _outcome(pade_reconstruct, s, dP, dQ) == _outcome(
        _pade_reference, s, dP, dQ)
