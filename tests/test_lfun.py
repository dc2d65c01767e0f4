import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsumlab import _exactpoly, lfun
from expsumlab._exactpoly import (QuotientFieldElem, add, divmod_, mul, neg,
                                  scale, trim)
from expsumlab.ffield import CyclotomicRat, is_prime
from expsumlab.lfun import (LSeries, ReconstructionError, TruncatedSeries,
                            degree, exp_power_sums, log_derivative_check,
                            pade_reconstruct, power_sums_from_ints,
                            reconstruct_auto, series_from_rationals,
                            total_degree)


def rationals(series):
    return [c.as_rational() for c in series.coeffs]


def poly_rationals(poly):
    return [c.as_rational() for c in poly]


# -- references: extended Euclid with cofactors, and series division ------------

def _xgcd(a, b):
    """Extended Euclid over a field: (g, u, v) with u*a + v*b = g, where g
    is monic unless both inputs are zero."""
    r0, r1 = trim(a), trim(b)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, add(u0, neg(mul(q, u1)))
        v0, v1 = v1, add(v0, neg(mul(q, v1)))
    if r0:
        lead_inv = 1 / r0[-1]
        r0, u0, v0 = (scale(x, lead_inv) for x in (r0, u0, v0))
    return r0, u0, v0


def _expand_quotient(P, Q, order):
    """Power-series coefficients of P/Q through t^order; Q(0) must be
    invertible."""
    if not Q or not Q[0]:
        raise ZeroDivisionError("denominator vanishes at 0")
    inv0 = 1 / Q[0]
    zero = Q[0] * 0
    out = []
    for k in range(order + 1):
        acc = P[k] if k < len(P) else zero
        for j in range(1, min(k, len(Q) - 1) + 1):
            acc = acc - Q[j] * out[k - j]
        out.append(acc * inv0)
    return out


# -- coprimality at a split prime -------------------------------------------------

def _split_images(p, polys):
    """The images of polynomials over Q(zeta_p) in F_l[t] under each of the
    p - 1 embeddings zeta -> w^i, for the least prime l = 1 (mod p) above
    2^31 that divides no denominator, w of order p mod l: integer lists,
    one list of images per embedding."""
    l = 2 ** 31 + 1
    while not (l % p == 1 and is_prime(l)) or any(
            c.den % l == 0 for poly in polys for c in poly):
        l += 1
    w = next(x for x in (pow(a, (l - 1) // p, l) for a in range(2, l))
             if x != 1)
    out = []
    for i in range(1, p):
        zeta = pow(w, i, l)
        out.append([[sum(n * pow(zeta, j, l) for j, n in enumerate(c.num))
                     * pow(c.den, -1, l) % l for c in poly]
                    for poly in polys])
    return l, out


def _gcd_mod(a, b, l):
    """A gcd of two integer polynomials over F_l, by Euclid."""
    def trimmed(x):
        x = [c % l for c in x]
        while x and not x[-1]:
            x.pop()
        return x

    a, b = trimmed(a), trimmed(b)
    while b:
        inv = pow(b[-1], -1, l)
        while len(a) >= len(b):
            c, k = a[-1] * inv, len(a) - len(b)
            a = trimmed(a[:k] + [x - c * y for x, y in zip(a[k:], b)])
        a, b = b, a
    return a


def assert_coprime_at_a_split_prime(L):
    """gcd(P, Q) = 1 over F_l in each of the p - 1 embeddings of Q(zeta_p),
    where the leading coefficients of P and Q stay nonzero: a common factor
    over Q(zeta_p), taken primitive at the prime of the embedding, would
    keep its degree there, so this proves gcd(P, Q) = 1."""
    l, images = _split_images(L.p, [L.P, L.Q])
    for P, Q in images:
        assert P[-1] and Q[-1]
        assert len(_gcd_mod(P, Q, l)) == 1


def test_lfun_import_leaves_the_enumeration_and_numpy_out():
    # L-series assembly is exact rational arithmetic over Q(zeta_p): it
    # reads power sums and needs neither expsum nor numpy
    src = str(Path(lfun.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, expsumlab.lfun; print(sorted(set(sys.modules) & "
            "{'numpy', 'expsumlab.expsum'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


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


# the certified L of every lfun report that tests/test_cli.py holds byte for
# byte against the CLI's
LFUN_OUTPUTS = Path(__file__).parent / "lfun_outputs"


@pytest.mark.parametrize("name", sorted(
    path.stem for path in LFUN_OUTPUTS.glob("*.json")))
def test_golden_lseries_are_coprime_at_a_split_prime(name):
    doc = json.loads((LFUN_OUTPUTS / f"{name}.json").read_text())["lseries"]
    p = doc["p"]
    P, Q = ([CyclotomicRat(p, [Fraction(*c) for c in coef])
             for coef in doc[key]] for key in ("P", "Q"))
    assert_coprime_at_a_split_prime(LSeries(p, P, Q, doc["certified_order"]))


def test_split_prime_check_refuses_a_common_factor():
    # (1 - 3t)(1 + 2t) / ((1 - 3t)(1 - t)) over Q(zeta_5)
    P, Q = ([CyclotomicRat.from_rational(5, x) for x in poly]
            for poly in ([1, -1, -6], [1, -4, 3]))
    with pytest.raises(AssertionError):
        assert_coprime_at_a_split_prime(LSeries(5, P, Q, 4))


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
    for _ in range(25):
        P, Q = _random_lseries(p, rng)
        g, _, _ = _xgcd(P, Q)
        if len(g) != 1:
            continue  # rare non-coprime draw; round trip is stated for gcd 1
        M = (len(P) - 1) + (len(Q) - 1) + 1
        series = TruncatedSeries(p, tuple(_expand_quotient(P, Q, M)))
        L = pade_reconstruct(series, len(P) - 1, len(Q) - 1)
        assert list(L.P) == P and list(L.Q) == Q
        assert_coprime_at_a_split_prime(L)


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
    assert _expand_quotient(list(L.P), list(L.Q),
                            L.certified_order) == list(s.coeffs)
    assert_coprime_at_a_split_prime(L)


def test_certify_takes_no_inverse(monkeypatch):
    # 1 + t^2 at M = 2: the rows (r, v) are (1 + t^2, 1), (-t, -t) and
    # (1, 1 - t^2); the second, reduced by t to (-1, -1), fails the product
    # check (Q s != P mod t^3) and, within dQ = 1, the third fails the
    # degree bound, while the first certifies
    s = series_from_rationals(5, [1, 0, 1])
    rows = list(lfun._remainder_rows(s))
    calls = []
    inverse = QuotientFieldElem.inverse
    monkeypatch.setattr(QuotientFieldElem, "inverse",
                        lambda x: calls.append(x) or inverse(x))
    outcomes = []
    for r, v in rows[:-1]:
        try:
            outcomes.append(poly_rationals(lfun._certify(s, r, v, 1)[1]))
        except ReconstructionError as exc:
            outcomes.append(str(exc).split(":")[0])
    assert outcomes == [[1], "expansion mismatch",
                        "no denominator of degree <= 1 matches (needed 2)"]
    assert calls == []


def test_reconstruction_normalises_only_the_row_it_returns(monkeypatch):
    # 1/(1 + t^4) at M = 7: s itself certifies first, at T = 4 with 2T > M,
    # and the later row 1/(1 + t^4) is returned; the walk takes one inverse
    # per division, and the normalisation one more
    s = series_from_rationals(2, [1, 0, 0, 0, -1, 0, 0, 0])
    inverses, divisions = [], []
    inverse, divide = QuotientFieldElem.inverse, _exactpoly.divmod_
    monkeypatch.setattr(QuotientFieldElem, "inverse",
                        lambda x: inverses.append(x) or inverse(x))
    monkeypatch.setattr(_exactpoly, "divmod_",
                        lambda a, b: divisions.append(b) or divide(a, b))
    L = reconstruct_auto(s)
    assert poly_rationals(L.P) == [1] and poly_rationals(L.Q) == [1, 0, 0, 0, 1]
    assert len(inverses) == len(divisions) + 1


# -- the remainder walk against the degree sweep it replaced --------------------

def _pade_reference(s, dP, dQ):
    """pade_reconstruct as it was: extended Euclid on (t^(M+1), s) down to
    deg r <= dP, reduction by _xgcd over Q(zeta_p), then the expansion of
    P/Q against s."""
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
    g, _, _ = _xgcd(P_raw, Q_raw)
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
    if _expand_quotient(P, Q, M) != list(s.coeffs):
        raise ReconstructionError(
            "expansion mismatch: series is not rational within the bounds "
            "(order too small or bounds wrong)")
    g, _, _ = _xgcd(P, Q)
    assert len(g) == 1
    return LSeries(p, tuple(P), tuple(Q), M)


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
    """The LSeries f returns (P, Q and certified_order compare exactly), or
    the text of the ReconstructionError it raises."""
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
        coeffs = _expand_quotient(P, Q, M)
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
