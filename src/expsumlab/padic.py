"""Exact p-adic calculus for rank-one differential operators d/dx - g.

Coefficients live in Q(pi) with pi^(p-1) = -p (a totally ramified degree
p-1 extension), so every norm in sight is p^(rational) and can be tracked
as an exact rational valuation: v(p) = 1, v(pi) = 1/(p-1), and the Gauss
valuation at weight lambda (rho = p^(-lambda)) of sum a_i x^i is
min_i (v(a_i) + i*lambda).

The radius-of-convergence exponent r(lambda) = -log_p R is estimated from
the growth of the symbols b_s of D^s (b_0 = 1, b_(s+1) = b_s' + g b_s):
the solution-side Taylor coefficients are b_s / s!, so

    r(lambda) = max(lambda, limsup_s (v(s!) - v(b_s)_lambda) / s),

with v(s!) = (s - digitsum_p(s)) / (p-1).  Two structural detectors make
the limsup exact at finite s_max (see radius_profile); profiles that fit
neither pattern are flagged rather than guessed at.

The symbols come from one polynomial recurrence over Z[pi], on lists of
Python ints, one for each class (row + power of pi) mod (p - 1) that a
symbol occupies: multiplying by c pi^e x^k moves a class by k + e, and
pi^(p-1) = -p keeps it, so the operators whose terms all shift classes
alike, pi/x^2, c/x and their Dwork twists, hold one coordinate per row
(_symbol_numerators), untrimmed.  radius_profile streams the symbols one
at a time and values only those that decide a sample: every one until
each weight has a sample above lambda, then those at the p-powers that the
estimator compares on, made into rows there.  Of a valued symbol it keeps
only the records, the coefficients whose valuation falls below that of
every lower one, and one Gauss valuation per weight, an integer minimum
over them.  A coefficient is a record iff p^k does not
divide one of its coordinates, k fixed by the record so far and the
coordinate's power of pi, so one divisibility test per coordinate
dismisses the others, and only a record's exact valuation is read, off
one gcd per coordinate, as Python ints.  It stops at the first depth, from
the last of those powers, where every weight has agreeing candidates: no
other symbol can change its estimate, so the profile is that of s_max.  If
they disagree there after a skip, the recurrence runs again and every
symbol is valued, since an unstabilized sample reads them all.
PiNumber.valuation and gauss_valuation are the independent reference path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import cycle, zip_longest
from math import gcd, lcm

from ._exactpoly import (QuotientFieldElem, add, derivative, divmod_, mul, neg,
                         remainder_rows, scale, trim)
from .ffield import is_prime

INF = float("inf")


class NonStabilizedError(RuntimeError):
    """Radius estimate did not stabilize; refusing to certify slopes."""


def _vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def digit_sum(s: int, p: int) -> int:
    if p < 2:
        raise ValueError(f"base {p} is below 2")
    total = 0
    while s:
        total += s % p
        s //= p
    return total


def factorial_valuation(s: int, p: int) -> Fraction:
    """v_p(s!) = (s - digitsum_p(s)) / (p - 1), normalized so v(p) = 1."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return Fraction(s - digit_sum(s, p), p - 1)


@lru_cache(maxsize=None)
def _pi_modulus(p: int) -> tuple:
    """y^(p-1) + p, so that pi^(p-1) = -p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return (p,) + (0,) * (p - 2) + (1,)


def _fold_pi(c: list, p: int) -> list:
    """The coordinates for 1, pi, ..., pi^(p-2) of sum_k c_k pi^k:
    pi^(p-1) = -p moves each c_k, k >= p - 1, onto c_(k-p+1) times -p,
    one slice of p - 1 at a time from the top."""
    d = p - 1
    while len(c) > d:
        c = [x - p * y for x, y in zip_longest(c[:d], c[d:], fillvalue=0)]
    return c + [0] * (d - len(c))


class PiNumber(QuotientFieldElem):
    """Element of Q[pi]/(pi^(p-1) + p), coordinates for 1, pi, ..., pi^(p-2):
    an integer vector over one denominator, whose coords are Fractions.

    For p = 2 this is just Q with pi = -2."""

    __slots__ = ()
    _coord = Fraction
    _modulus = staticmethod(_pi_modulus)
    _fold = staticmethod(_fold_pi)
    _scalars = (int, Fraction)
    _mixed = "mixed pi-adic levels"

    @classmethod
    def rational(cls, p: int, a) -> "PiNumber":
        return cls.constant(p, a)

    @classmethod
    def pi(cls, p: int) -> "PiNumber":
        return cls.from_poly(p, [0, 1])

    def valuation(self):
        """v(sum a_i pi^i) = min_i (v_p(a_i) + i/(p-1)); INF for zero.
        Exact because the extension is totally ramified (the candidate
        valuations fall in distinct classes mod 1)."""
        p = self.p
        vals = [_vp_int(a, p) + Fraction(i, p - 1)
                for i, a in enumerate(self.num) if a]
        return min(vals) - _vp_int(self.den, p) if vals else INF

    def __repr__(self):
        return f"Pi({self.p}){[str(c) for c in self.coords]}"


class RationalFunctionPi:
    """Quotient of polynomials in x over Q(pi); reduced on demand."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, num, den):
        num = trim([c if isinstance(c, PiNumber) else PiNumber.rational(p, c)
                    for c in num])
        den = trim([c if isinstance(c, PiNumber) else PiNumber.rational(p, c)
                    for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.p = p
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, p: int) -> "RationalFunctionPi":
        return cls(p, [], [PiNumber.one(p)])

    @classmethod
    def constant(cls, p: int, c) -> "RationalFunctionPi":
        return cls(p, [c], [PiNumber.one(p)])

    @classmethod
    def monomial_ratio(cls, p: int, coef, pole_order: int) -> "RationalFunctionPi":
        """coef / x^pole_order (pole_order >= 0)."""
        den = [PiNumber.zero(p)] * pole_order + [PiNumber.one(p)]
        return cls(p, [coef], den)

    def is_zero(self) -> bool:
        return not self.num

    def reduce(self) -> "RationalFunctionPi":
        """num/den over their monic gcd, the last nonzero remainder of the
        walk on (num, den)."""
        g = [r for r, _ in remainder_rows(self.num, self.den) if r][-1]
        if len(g) > 1:
            g = scale(g, 1 / g[-1])
            num, _ = divmod_(self.num, g)
            den, _ = divmod_(self.den, g)
            return RationalFunctionPi(self.p, num, den)
        return self

    def __add__(self, other):
        if isinstance(other, (int, Fraction, PiNumber)):
            other = RationalFunctionPi.constant(self.p, other)
        if not isinstance(other, RationalFunctionPi):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("mixed pi-adic levels")
        num = add(mul(self.num, other.den), mul(other.num, self.den))
        den = mul(self.den, other.den)
        return RationalFunctionPi(self.p, num, den).reduce()

    __radd__ = __add__

    def __neg__(self):
        return RationalFunctionPi(self.p, neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PiNumber)):
            return RationalFunctionPi(self.p, scale(self.num, other), self.den)
        if not isinstance(other, RationalFunctionPi):
            return NotImplemented
        return RationalFunctionPi(self.p, mul(self.num, other.num),
                                  mul(self.den, other.den)).reduce()

    __rmul__ = __mul__

    def derivative(self) -> "RationalFunctionPi":
        num = add(mul(derivative(self.num), self.den),
                  neg(mul(self.num, derivative(self.den))))
        return RationalFunctionPi(self.p, num, mul(self.den, self.den))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, PiNumber)):
            other = RationalFunctionPi.constant(self.p, other)
        if not isinstance(other, RationalFunctionPi):
            return NotImplemented
        return mul(self.num, other.den) == mul(other.num, self.den)

    def __repr__(self):
        return f"RatPi({self.p}; num={self.num}, den={self.den})"


@dataclass(frozen=True)
class GaussWeight:
    """Weight lambda meaning rho = p^(-lambda); lambda > 0 is rho < 1."""

    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))


def _gauss_min(poly, lam: Fraction):
    """Gauss valuation at weight lam of a nonzero polynomial."""
    return min(c.valuation() + j * lam for j, c in enumerate(poly) if c)


def gauss_valuation(f: RationalFunctionPi, w: GaussWeight):
    """Gauss valuation of f at weight w: for polynomials min_i(v(a_i)+i*lam),
    extended multiplicatively to quotients.  INF for the zero function."""
    if f.is_zero():
        return INF
    return _gauss_min(f.num, w.lam) - _gauss_min(f.den, w.lam)


# -- symbols of D^s -------------------------------------------------------------
#
# A polynomial in x over Z[pi] is a list of rows of Python ints: row j holds
# the coordinates of the coefficient of x^j for 1, pi, ..., pi^(p-2).  The
# recurrence holds its symbols by class instead.  The coordinate of pi^e x^j
# has class (j + e) mod (p-1), so each row has one coordinate in each
# class, and a symbol is {class: list of its coordinates over the rows},
# with no class whose coordinates are all zero.  Multiplying by c pi^e x^k
# carries class r to class r + k + e: a coordinate whose power of pi passes
# p - 2 wraps to the power p - 1 below it times -p (pi^(p-1) = -p), which
# keeps its class.

def _cleared(g: RationalFunctionPi):
    """(U, W): num(g) and den(g) times one common denominator of their
    coordinates, as rows of ints, so that U / W = g."""
    D = lcm(*(x.den for x in g.num + g.den))
    return tuple([[c * (D // x.den) for c in x.num] for x in poly]
                 for poly in (g.num, g.den))


def _terms(rows):
    """The nonzero coordinates (i, e, c) of rows: c pi^e x^i."""
    return [(i, e, c) for i, row in enumerate(rows)
            for e, c in enumerate(row) if c]


def _rows(n: dict, p: int) -> list:
    """The rows of a symbol held by class, as many as its classes' lists
    are long: none if it is zero."""
    d = p - 1
    rows = [[0] * d for _ in next(iter(n.values()), ())]
    for r, col in n.items():
        for j, c in enumerate(col):
            rows[j][(r - j) % d] = c
    return rows


def _symbol_numerators(p: int, U, W, s_max: int):
    """Yield n_0..n_(s_max), held by class, with b_s = n_s / W^s:
    n_(s+1) = n_s' W - s n_s W' + U n_s   (U / W = g).

    This closed polynomial recurrence avoids quotient-rule denominator
    blowup; b_(s+1) = b_s' + g b_s holds identically.  It is homogeneous of
    degree 1 in (U, W), so U and W from _cleared have integer coordinates
    and the recurrence runs over Z[pi], exactly.  Each term u pi^e x^k of U
    adds u n_j to x^(j+k), and each term w pi^e x^k of W adds w (j - s k)
    n_j to x^(j+k-1) (from x^(-1) only with the factor 0), so the terms
    sharing (row shift t, e) carry row j to row j + t times one factor
    a + b j.  Each target class is built once per step, one after the
    other, as the sum of lazy products of whole source lists, each a slice
    of the list padded with zeros, so that row i of every product is row i
    of the target.  Every list of n_s has 1 + grow s rows, trailing zero
    rows included; b_s = 0 iff no class is left.  When every term shifts
    the classes alike, as for pi/x^2, c/x and their Dwork twists, each n_s
    lies in one class: one coordinate a row.  tests/test_padic.py keeps
    the recurrence on numpy object arrays of whole rows as the reference."""
    d = p - 1
    groups = {}   # (t, e) -> (a0, a1, b): the factor a0 - s a1 + b j
    for k, e, u in _terms(U):
        a0, a1, b = groups.get((k, e), (0, 0, 0))
        groups[k, e] = (a0 + u, a1, b)
    for k, e, w in _terms(W):
        a0, a1, b = groups.get((k - 1, e), (0, 0, 0))
        groups[k - 1, e] = (a0, a1 + k * w, b + w)
    grow = max(len(W) - 2, len(U) - 1)
    left = max(t for t, _ in groups)   # W != 0 has a term
    shifts = {(t + e) % d for t, e in groups}
    # -p where 1 <= x mod d <= e: row i of the class r' that pi^e carries
    # from class r' - e has the power of pi (r' - e - i) mod d before it,
    # which wraps from x = (e - r') mod d on
    wraps = {e: ([1] + [-p] * e + [1] * (d - 1 - e)) * 2
             for _, e in groups if e}
    n = {0: [1]}
    yield n
    for s in range(s_max):
        size = len(next(iter(n.values()), ())) + grow
        m = min(size, d)
        # per group, the factor a + b i at target row i = j + t, over the
        # rows; it is made per target below where pi^e wraps and b = 0
        factors = []
        for (t, e), (a0, a1, b) in groups.items():
            a = a0 - s * a1 - b * t
            if b:
                factors.append((t, e, a, range(a, a + b * size, b)))
            else:
                factors.append((t, e, a, None if e else [a] * size))
        # target row i reads source row i - t of the padded list
        padded = {r: [0] * left + col + [0] * (grow + 1)
                  for r, col in n.items()}
        targets = {(r + k) % d for r in n for k in shifts}
        n = {}
        for r in targets:      # each built and summed before the next
            acc = None
            for t, e, a, f in factors:
                source = padded.get((r - t - e) % d)
                if source is None:
                    continue
                if e:
                    x = (e - r) % d
                    wrap = wraps[e][x:x + m]
                    f = cycle([a * w for w in wrap]) if f is None else \
                        map(operator.mul, f, cycle(wrap))
                terms = map(operator.mul, source[left - t:left - t + size], f)
                acc = terms if acc is None else map(operator.add, acc, terms)
            col = list(acc)
            if any(col):
                n[r] = col
        yield n


def recurrence_work(p: int, num_len: int, den_len: int, s_max: int) -> int:
    """Work units of the symbol recurrence to depth s_max for g = num/den
    with num_len and den_len coefficients, counted in coordinates times
    bits: n_s has up to 1 + grow*s rows (grow as in _symbol_numerators, at
    least 1) of p - 1 coordinates, which grow by about a constant number of
    bits per step.  The symbols through s_max therefore hold on the order
    of (p - 1) grow s_max^3 coordinate-bits, and that product is the count."""
    grow = max(den_len - 2, num_len - 1, 1)
    return (p - 1) * grow * s_max ** 3


# Work units per depth and weight of radius_profile's pass over the weights:
# with 2,000 weights on the Dwork twist of (1/3)/x at p = 5, which values
# all 200 depths, a pair took 1.4 us; a recurrence_work unit took 0.17 ns
# there and 0.34 ns at p = 3 (2-vCPU Xeon, Python 3.11.7)
WEIGHT_PASS_WORK = 2000


def symbol_sequence(g: RationalFunctionPi, s_max: int):
    """b_0..b_(s_max) with b_0 = 1 and b_(s+1) = b_s' + g b_s, so that
    D^s e = b_s e for the rank-one operator d/dx - g on a cyclic vector e.
    Each b_s comes as n_s / W^s in the terms of _symbol_numerators."""
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    p = g.p
    U, W = _cleared(g)
    w_poly = [PiNumber(p, row) for row in W]
    out = []
    wpow = [PiNumber.one(p)]
    for s, n in enumerate(_symbol_numerators(p, U, W, s_max)):
        if s:
            wpow = mul(wpow, w_poly)
        out.append(RationalFunctionPi(p, [PiNumber(p, r) for r in _rows(n, p)],
                                      wpow))
    return out


# v_p by gcd: for x != 0, gcd(x, p^B) = p^min(v_p(x), B).  B = 64 lies above
# the valuations a profile reads (v_p <= 54 in every coordinate of n_1..n_200
# of the Dwork twist of (1/3)/x at p = 5), so one gcd values a coordinate;
# the 15 that its profile values take 0.017-0.023 ms for every B from 16 to
# 128, under 1% of the profile (2-vCPU Xeon, Python 3.11.7).
_VP_BLOCK = 64


@lru_cache(maxsize=None)
def _vp_powers(p: int) -> tuple:
    """(p^B, {p^k: k for 0 <= k <= B}) with B = _VP_BLOCK."""
    return p ** _VP_BLOCK, {p ** k: k for k in range(_VP_BLOCK + 1)}


def _vp_gcd(x: int, p: int) -> int:
    """Exact v_p of a nonzero int: one gcd against p^B, whose value
    p^min(v_p, B) is read off a table.  Only an x that p^B divides is
    divided by it and tried again.  ValueError for 0."""
    pB, table = _vp_powers(p)
    v, g = 0, gcd(x, pB)
    while g == pB:
        if not x:
            raise ValueError("valuation of 0")
        x //= pB
        v += _VP_BLOCK
        g = gcd(x, pB)
    return v + table[g]


def _coefficient_valuation(row, p: int):
    """(p-1) v of the coefficient whose coordinates for 1, pi, ... are
    `row`: the least (p-1) v_p + e over its nonzero coordinates e (their
    classes mod p-1 differ, so the minimum is the valuation of the sum);
    None for 0.  Each v_p is read off its first gcd here; only a coordinate
    that p^B divides goes to _vp_gcd."""
    pB, table = _vp_powers(p)
    V = None
    for e, c in enumerate(row):
        if c:
            g = gcd(c, pB)
            w = (p - 1) * (table[g] if g != pB else _vp_gcd(c, p)) + e
            if V is None or w < V:
                V = w
    return V


def _row_valuations(n, p: int) -> list:
    """[(j, V_j)] for the nonzero rows j of a polynomial's rows n, in
    order: V_j = (p-1) v(coefficient of x^j), as _coefficient_valuation
    reads it."""
    rows = enumerate(_coefficient_valuation(row, p) for row in n)
    return [(j, V) for j, V in rows if V is not None]


def _record_rows(rows) -> list:
    """The rows (j, V_j) whose V_j is below that of every earlier row.  At
    a positive weight only these can attain min_j (V_j a + j b) with a, b
    > 0: an earlier row i < j with V_i <= V_j has the smaller term.  With
    _row_valuations, the reference for _record_valuations."""
    out = []
    for j, V in rows:
        if not out or V < out[-1][1]:
            out.append((j, V))
    return out


def _record_valuations(n, p: int) -> list:
    """_record_rows(_row_valuations(n, p)), with no valuation read for a
    row that is no record.  Row j beats the record R so far iff some
    nonzero coordinate c at e has (p-1) v_p(c) + e < R, that is v_p(c) <
    k_e = ceil((R - e) / (p - 1)), or p^k_e does not divide c; where k_e <=
    0 none can, and p^0 divides every c.  So a row is dismissed by one
    divisibility test per coordinate, and only the records are valued."""
    out, moduli = [], None
    for j, row in enumerate(n):
        if moduli and not any(map(operator.mod, row, moduli)):
            continue
        V = _coefficient_valuation(row, p)
        if V is not None:   # below the record, if there is one
            out.append((j, V))
            moduli = [p ** max(0, (V - e + p - 2) // (p - 1))
                      for e in range(p - 1)]
    return out


# -- radius profiles -------------------------------------------------------------

@dataclass(frozen=True)
class RadiusSample:
    """One grid point of the profile: r = -log_p R at weight lam."""

    lam: Fraction
    r: Fraction
    stabilized: bool
    method: str              # "robba-clamp" | "power-subsequence" | "unstabilized"
    den_tie: bool = False    # Gauss minimum of den attained by several terms


@dataclass(frozen=True)
class RadiusProfile:
    """Sampled map lambda -> r(lambda) with endpoint slopes dr/dlambda.

    endpoint_slopes = (slope at the largest rho end, slope at the smallest
    rho end); rho = p^(-lambda), so the largest-rho end is the first
    (smallest-lambda) pair of samples."""

    p: int
    samples: tuple
    endpoint_slopes: tuple


DEFAULT_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                Fraction(2))
DEFAULT_S_MAX = 200


def _window(p: int, s_max: int) -> list:
    """The depths _common_slope compares: the powers p^k <= s_max from p^2
    on, or from p if fewer than three fit."""
    powers = [p ** k for k in range(1, s_max.bit_length()) if p ** k <= s_max]
    return powers[1:] if len(powers) >= 3 else powers


def _common_slope(p: int, M, s_max: int):
    """(M_s, s) at the first depth s of the window if M_s s' = M_s' s at all
    of its depths, else None: at least two, each within M and with b_s != 0."""
    window = _window(p, s_max)
    if len(window) < 2 or len(M) <= window[-1] or \
            None in [M[t] for t in window]:
        return None
    s = window[0]
    return (M[s], s) if all(M[t] * s == M[s] * t for t in window) else None


def _estimate_radius(p: int, lam: Fraction, M, s_max: int):
    """Exact-structure estimate of r(lam) from the integers M[s] = (p-1) a
    v(b_s), lam = b / ((p-1) a) in lowest terms (None where b_s = 0), for
    s = 1..len(M) - 1.  The sample (v(s!) - v(b_s))/s exceeds lam iff
    N_s = (s - digitsum_p(s)) a - M_s > s b; only r becomes a Fraction.

    (a) If every (v(s!) - v(b_s))/s is <= lam, the max(lam, .) clamp in the
        radius definition is exact: r = lam (maximal-convergence case).
    (b) Else, if the normalization-free estimates 1/(p-1) - v(b_s)/s agree
        at every s = p^k in the tail of the power subsequence, that common
        value is the limsup: along p-power indices the factorial correction
        digitsum/(s(p-1)) is 1/s and the minimal term of the solution's
        coefficient is unique.  The first power may be dropped as a
        transient (the pure-binomial term of a twist can dominate at
        s = p when lam < 1/(p(p-1))) provided at least two later powers,
        spanning a factor p^2 of depths, still agree (_common_slope).
    (c) Otherwise the point is flagged and the clamped running maximum is
        reported.
    Once some sample exceeds lam and the window agrees, no other depth
    changes anything: (a) stays refuted and (b) reads only the window.  So
    M may end there, from the window's last depth on, or hold None off it."""
    a, b = lam.denominator, lam.numerator * (p - 1)
    top, at = 0, 0        # the largest sample so far, as (N_s, s)
    for s in range(1, len(M)):
        if M[s] is not None:
            N = (s - digit_sum(s, p)) * a - M[s]
            if not at or N * at > top * s:
                top, at = N, s
    if not at or top <= at * b:
        return lam, True, "robba-clamp"
    common = _common_slope(p, M, s_max)
    if common is not None:
        m, s = common
        return (max(lam, Fraction(a * s - m, (p - 1) * a * s)), True,
                "power-subsequence")
    return Fraction(top, (p - 1) * a * at), False, "unstabilized"


def _weight_minima(p: int, U, W, weights, v_w, s_max: int, skip: bool):
    """M[k][s] = (p-1) a v(b_s) at the k-th weight (a, b), as
    _estimate_radius reads it, v_w[k] the same of den(g) = W.  With skip,
    once every weight has a sample above lambda, the depths below the
    window's last power that are not in it are None, not valued, and if
    any was, the result is None unless by that power the window agrees."""
    window = _window(p, s_max)
    last = window[-1] if skip and len(window) >= 2 else 0
    M = [[None] for _ in weights]
    refuted, skipped = [False] * len(weights), False
    symbols = _symbol_numerators(p, U, W, s_max)
    next(symbols)
    for s, n in enumerate(symbols, 1):
        if s < last and s not in window and all(refuted):
            skipped = True
            for Mk in M:
                Mk.append(None)
            continue
        rows = _record_valuations(_rows(n, p), p)
        f = s - digit_sum(s, p)
        for k, ((a, b), vw) in enumerate(zip(weights, v_w)):
            m = min(V * a + j * b for j, V in rows) - s * vw if rows else None
            M[k].append(m)
            refuted[k] |= m is not None and f * a - m > s * b
        if all(refuted) and all(_common_slope(p, Mk, s_max) for Mk in M):
            break
        if skipped and s == last:
            return None
    return M


def radius_profile(g: RationalFunctionPi, lam_grid=DEFAULT_GRID,
                   s_max: int = DEFAULT_S_MAX) -> RadiusProfile:
    """Profile of r(lambda) = -log_p R over the weight grid for the rank-one
    operator d/dx - g, with endpoint slopes from exact sample pairs.

    Detection of the limit requires s_max >= p^2 (at least two p-power
    indices); small weights need correspondingly large s_max to resolve
    divergence slower than p^(-1/(lambda(p-1))).  Symbols are valued at
    every depth until each weight has a sample above lambda, then at the
    window's powers, to the first depth from its last where it agrees at
    every weight; if it disagrees there after a skip, the recurrence runs
    again and values every depth, as an unstabilized sample needs."""
    p = g.p
    grid = sorted(Fraction(x) for x in lam_grid)
    if len(grid) < 2:
        raise ValueError("need at least two weights for slopes")
    if any(x <= 0 for x in grid):
        raise ValueError("weights must be positive (rho < 1)")
    if len(set(grid)) < len(grid):
        raise ValueError("weights must be distinct")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    U, W = _cleared(g)
    # at weight lam = num/den, (p-1) den (v(coef_j) + j lam) = V_j a + j b
    weights = [(lam.denominator, lam.numerator * (p - 1)) for lam in grid]
    den_rows = _row_valuations(W, p)   # every row, for the ties
    v_w, den_tie = [], []
    for a, b in weights:
        terms = [V * a + j * b for j, V in den_rows]
        v_w.append(min(terms))
        den_tie.append(terms.count(v_w[-1]) > 1)
    M = _weight_minima(p, U, W, weights, v_w, s_max, True) or \
        _weight_minima(p, U, W, weights, v_w, s_max, False)
    samples = [RadiusSample(lam, *_estimate_radius(p, lam, Mk, s_max), tie)
               for lam, Mk, tie in zip(grid, M, den_tie)]

    outer = ((samples[1].r - samples[0].r)
             / (samples[1].lam - samples[0].lam))
    inner = ((samples[-1].r - samples[-2].r)
             / (samples[-1].lam - samples[-2].lam))
    return RadiusProfile(p, tuple(samples), (outer, inner))


def robba_index(profile: RadiusProfile) -> int:
    """Index (Euler characteristic) of the operator on a closed annulus:
    d log R / d log rho at the inner radius minus the same at the outer
    radius.  Requires the profile to be stabilized at both ends."""
    s = profile.samples
    if len(s) < 2:
        raise ValueError("profile too short for slopes")
    for sample in (s[0], s[1], s[-2], s[-1]):
        if not sample.stabilized:
            raise NonStabilizedError(
                f"sample at lambda = {sample.lam} is not stabilized")
    slope_outer, slope_inner = profile.endpoint_slopes
    chi = slope_inner - slope_outer
    if chi.denominator != 1:
        raise ValueError(f"endpoint slopes {slope_outer} and {slope_inner} "
                         f"differ by {chi}, not an integer")
    return int(chi)


def dwork_twist(g: RationalFunctionPi) -> RationalFunctionPi:
    """Tensor with the rank-one system d/dx - pi/x^2 (the local shape of the
    exponential structure at infinity): defining functions add."""
    p = g.p
    return g + RationalFunctionPi.monomial_ratio(p, PiNumber.pi(p), 2)
