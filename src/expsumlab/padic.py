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

The symbols come from one polynomial recurrence over Z[pi], run on numpy
object arrays of exact Python ints, in which multiplying by pi is a column
shift (_symbol_numerators).  radius_profile streams them one at a time:
of each it keeps only the exact valuations of its coefficients, as
integers read off one gcd per coordinate, and one Gauss valuation per
weight.  PiNumber.valuation and gauss_valuation are the independent
reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional

import numpy as np

from ._exactpoly import (QuotientFieldElem, add, derivative, divmod_, mul, neg,
                         scale, trim, xgcd)
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


def _vp(q: Fraction, p: int):
    if q == 0:
        return INF
    return _vp_int(q.numerator, p) - _vp_int(q.denominator, p)


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


class PiNumber(QuotientFieldElem):
    """Element of Q[pi]/(pi^(p-1) + p), coordinates for 1, pi, ..., pi^(p-2).

    For p = 2 this is just Q with pi = -2."""

    __slots__ = ()
    _coord = Fraction
    _modulus = staticmethod(_pi_modulus)
    _scalars = (int, Fraction)
    _mixed = "mixed pi-adic levels"

    @classmethod
    def rational(cls, p: int, a) -> "PiNumber":
        return cls.constant(p, a)

    @classmethod
    def pi(cls, p: int) -> "PiNumber":
        if p == 2:
            return cls(2, [-2])
        return cls(p, [0, 1] + [0] * (p - 3))

    def valuation(self):
        """v(sum a_i pi^i) = min_i (v_p(a_i) + i/(p-1)); INF for zero.
        Exact because the extension is totally ramified (the candidate
        valuations fall in distinct classes mod 1)."""
        vals = [_vp(a, self.p) + Fraction(i, self.p - 1)
                for i, a in enumerate(self.coords) if a != 0]
        return min(vals) if vals else INF

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
        g, _, _ = xgcd(self.num, self.den)
        if len(g) > 1:
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
# A polynomial in x over Z[pi] is an (L, p-1) object array of Python ints:
# row i holds the coordinates of the coefficient of x^i for 1, pi, ...,
# pi^(p-2).  Multiplying by pi^e shifts the columns by e, and the columns
# that wrap around are multiplied by -p, because pi^(p-1) = -p.

def _cleared(g: RationalFunctionPi):
    """(U, W): num(g) and den(g) times one common denominator of their
    coordinates, as integer arrays, so that U / W = g."""
    p = g.p
    D = lcm(*(c.denominator for x in g.num + g.den for c in x.coords))
    return tuple(np.array([[int(c * D) for c in x.coords] for x in poly],
                          dtype=object).reshape(-1, p - 1)
                 for poly in (g.num, g.den))


def _terms(a):
    """The nonzero coordinates (i, e, c) of an array: c pi^e x^i."""
    return [(i, e, c) for (i, e), c in np.ndenumerate(a) if c]


def _derivative(a):
    """d/dx of a polynomial array: row i - 1 of the result is i times row i."""
    return a[1:] * np.arange(1, len(a), dtype=object)[:, None]


def _mul_add(out, terms, n, p: int):
    """out += (sum of c pi^e x^i over terms) * n, in place."""
    d, L = p - 1, len(n)
    for i, e, c in terms:
        out[i:i + L, e:] += c * n[:, :d - e]
        if e:
            out[i:i + L, :e] -= (p * c) * n[:, d - e:]


def _symbol_numerators(p: int, U, W, s_max: int):
    """Yield n_0..n_(s_max) with b_s = n_s / W^s:
    n_(s+1) = n_s' W - s n_s W' + U n_s   (U / W = g).

    This closed polynomial recurrence avoids quotient-rule denominator
    blowup; b_(s+1) = b_s' + g b_s holds identically.  It is homogeneous of
    degree 1 in (U, W), so U and W from _cleared have integer coordinates
    and the recurrence runs over Z[pi], exactly.  Each n_s is trimmed to
    its last nonzero row; the zero polynomial has no rows."""
    u_terms, w_terms = _terms(U), _terms(W)
    dw_terms = _terms(_derivative(W))
    grow = max(len(W) - 2, len(U) - 1)
    n = np.zeros((1, p - 1), dtype=object)
    n[0, 0] = 1
    yield n
    for s in range(s_max):
        L = len(n)
        if L:
            out = np.zeros((L + grow, p - 1), dtype=object)
            _mul_add(out, w_terms, _derivative(n), p)
            _mul_add(out, [(i, e, -s * c) for i, e, c in dw_terms], n, p)
            _mul_add(out, u_terms, n, p)
            rows = np.flatnonzero((out != 0).any(axis=1))
            n = out[:rows[-1] + 1] if len(rows) else out[:0]
        yield n


def recurrence_work(g: RationalFunctionPi, s_max: int) -> int:
    """Work units of the symbol recurrence to depth s_max, counted in
    coordinates times bits: n_s has up to 1 + grow*s rows (grow as in
    _symbol_numerators, at least 1) of p - 1 coordinates, which grow by
    about a constant number of bits per step.  The symbols through s_max
    therefore hold on the order of (p - 1) grow s_max^3 coordinate-bits,
    and that product is the count."""
    grow = max(len(g.den) - 2, len(g.num) - 1, 1)
    return (g.p - 1) * grow * s_max ** 3


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
        out.append(RationalFunctionPi(p, [PiNumber(p, row) for row in n], wpow)
                   if len(n) else RationalFunctionPi.zero(p))
    return out


# v_p by gcd: for x != 0, gcd(x, p^B) = p^min(v_p(x), B).  On the dwork-p5
# symbols (20,300 coordinates of up to 1,600 bits, every v_p <= 54; 2-vCPU
# Xeon, Python 3.11.7) B = 48 and 64 tie as fastest, 32 and 96 are about
# 30% slower and 128 about 60%: a larger p^B makes every gcd dearer, a
# smaller one sends more coordinates round the division loop.
_VP_BLOCK = 64


@lru_cache(maxsize=None)
def _vp_powers(p: int) -> tuple:
    """(p^B, {p^k: k for 0 <= k <= B}) with B = _VP_BLOCK."""
    return p ** _VP_BLOCK, {p ** k: k for k in range(_VP_BLOCK + 1)}


def _vp_array(a, p: int):
    """Exact v_p of every entry of a 1-D object array of nonzero ints, as
    int64: one gcd per entry against p^B, whose value p^min(v_p, B) is read
    off a table.  Only an entry that p^B divides is divided by it and tried
    again.  ValueError for an entry 0."""
    pB, table = _vp_powers(p)
    out = []
    for x in a:
        v, g = 0, gcd(x, pB)
        while g == pB:
            if not x:
                raise ValueError("valuation of 0")
            x //= pB
            v += _VP_BLOCK
            g = gcd(x, pB)
        out.append(v + table[g])
    return np.array(out, dtype=np.int64)


def _row_valuations(n, p: int):
    """(j, V): the indices j of the nonzero rows of n and the exact integers
    V_j = (p-1) v(coefficient of x^j), as int64 arrays.  One _vp_array pass
    over the nonzero coordinates; V_j is the least (p-1) v_p + e over the
    coordinates e of row j (their classes mod p-1 differ, so the minimum is
    the valuation of the sum)."""
    mask = n != 0
    V = np.full(n.shape, np.iinfo(np.int64).max, dtype=np.int64)
    V[mask] = (p - 1) * _vp_array(n[mask], p) + np.nonzero(mask)[1]
    j = np.flatnonzero(mask.any(axis=1))
    return j, V[j].min(axis=1)


def _gauss_terms(rows, lam: Fraction, p: int):
    """(p-1) den(lam) (v(coef_j) + j lam) for every nonzero coefficient of a
    polynomial with row valuations rows = (j, V): V_j den + j num (p-1).
    int64, or Python ints if a term or a factor could overflow int64."""
    j, V = rows
    a, b = lam.denominator, lam.numerator * (p - 1)
    if (int(V.max()) + 1) * a + (int(j[-1]) + 1) * b >= 2 ** 63:
        j, V = j.astype(object), V.astype(object)
    return V * a + j * b


# -- radius profiles -------------------------------------------------------------

@dataclass(frozen=True)
class RadiusSample:
    """One grid point of the profile: r = -log_p R at weight lam."""

    lam: Fraction
    r: Fraction
    stabilized: bool
    method: str              # "robba-clamp" | "power-subsequence" | "unstabilized"
    den_tie: bool = False    # Gauss minimum of den attained by several terms
    raw_estimate: Optional[Fraction] = None   # clamped running max at s_max
    oscillation: Optional[Fraction] = None    # est spread over the last window


@dataclass(frozen=True)
class RadiusProfile:
    """Sampled map lambda -> r(lambda) with endpoint slopes dr/dlambda.

    endpoint_slopes = (slope at the largest rho end, slope at the smallest
    rho end); rho = p^(-lambda), so the largest-rho end is the first
    (smallest-lambda) pair of samples."""

    p: int
    samples: tuple
    endpoint_slopes: tuple

    def points(self):
        return [(s.lam, s.r) for s in self.samples]


DEFAULT_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                Fraction(2))
DEFAULT_S_MAX = 200


def _estimate_radius(p: int, lam: Fraction, v_b, s_max: int):
    """Exact-structure estimate of r(lam) from the symbol valuations v_b[s]
    (1-based list; INF where b_s = 0).

    (a) If every (v(s!) - v(b_s))/s is <= lam, the max(lam, .) clamp in the
        radius definition is exact: r = lam (maximal-convergence case).
    (b) Else, if the normalization-free estimates 1/(p-1) - v(b_s)/s agree
        at every s = p^k in the tail of the power subsequence, that common
        value is the limsup: along p-power indices the factorial correction
        digitsum/(s(p-1)) is 1/s and the minimal term of the solution's
        coefficient is unique.  The first power may be dropped as a
        transient (the pure-binomial term of a twist can dominate at
        s = p when lam < 1/(p(p-1))) provided at least two later powers,
        spanning a factor p^2 of depths, still agree.
    (c) Otherwise the point is flagged and the clamped running maximum is
        reported."""
    ests = []
    for s in range(1, s_max + 1):
        vb = v_b[s]
        if vb is INF:
            ests.append(None)
        else:
            ests.append((factorial_valuation(s, p) - vb) / s)

    if all(e is None or e <= lam for e in ests):
        return lam, True, "robba-clamp", lam, None

    finite = [e for e in ests if e is not None]
    raw = max([lam] + finite)

    powers = []
    pk = p
    while pk <= s_max:
        powers.append(pk)
        pk *= p
    window = powers[1:] if len(powers) >= 3 else powers
    if len(window) >= 2 and all(v_b[s] is not INF for s in window):
        cands = {Fraction(1, p - 1) - Fraction(v_b[s]) / s for s in window}
        if len(cands) == 1:
            r = max(lam, cands.pop())
            return r, True, "power-subsequence", raw, None

    window = ests[-max(1, -(-s_max // 4)):]
    fin = [e for e in window if e is not None]
    osc = (max(fin) - min(fin)) if fin else None
    return raw, False, "unstabilized", raw, osc


def radius_profile(g: RationalFunctionPi, lam_grid=DEFAULT_GRID,
                   s_max: int = DEFAULT_S_MAX) -> RadiusProfile:
    """Profile of r(lambda) = -log_p R over the weight grid for the rank-one
    operator d/dx - g, with endpoint slopes from exact sample pairs.

    Detection of the limit requires s_max >= p^2 (at least two p-power
    indices); small weights need correspondingly large s_max to resolve
    divergence slower than p^(-1/(lambda(p-1)))."""
    p = g.p
    grid = sorted(Fraction(x) for x in lam_grid)
    if len(grid) < 2:
        raise ValueError("need at least two weights for slopes")
    if any(x <= 0 for x in grid):
        raise ValueError("weights must be positive (rho < 1)")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    U, W = _cleared(g)
    den_rows = _row_valuations(W, p)
    v_w, den_tie = [], []
    for lam in grid:
        terms = _gauss_terms(den_rows, lam, p)
        v_w.append(int(terms.min()))
        den_tie.append(bool(np.count_nonzero(terms == v_w[-1]) > 1))
    v_b = [[None] for _ in grid]
    symbols = _symbol_numerators(p, U, W, s_max)
    next(symbols)
    for s, n in enumerate(symbols, 1):
        rows = _row_valuations(n, p) if len(n) else None
        for lam, vb, vw in zip(grid, v_b, v_w):
            vb.append(INF if rows is None else Fraction(
                int(_gauss_terms(rows, lam, p).min()) - s * vw,
                (p - 1) * lam.denominator))

    samples = []
    for lam, vb, tie in zip(grid, v_b, den_tie):
        r, stab, method, raw, osc = _estimate_radius(p, lam, vb, s_max)
        samples.append(RadiusSample(lam, r, stab, method, tie, raw, osc))

    outer = ((samples[1].r - samples[0].r)
             / (samples[1].lam - samples[0].lam))
    inner = ((samples[-1].r - samples[-2].r)
             / (samples[-1].lam - samples[-2].lam))
    return RadiusProfile(p, tuple(samples), (outer, inner))


def taylor_norm_check(lam: Fraction, r_weight: Fraction, p: int,
                      truncation: int = 8) -> Fraction:
    """Gauss valuation in y of sum_(nu>=1) y^nu / t^(nu+1) with |t| = p^(-lam)
    and y-weight r_weight > lam: the minimum is at nu = 1 with value
    r_weight - 2 lam (the valuation of r/rho^2).  Exercises gauss_valuation
    on the coefficient field; raises if the truncation misses the minimum."""
    lam, r_weight = Fraction(lam), Fraction(r_weight)
    if not r_weight > lam:
        raise ValueError("need r_weight > lam (inner radius strictly smaller)")
    if truncation < 1:
        raise ValueError("truncation too short to attain the minimum")
    w = GaussWeight(lam)
    vals = []
    for nu in range(1, truncation + 1):
        coef = RationalFunctionPi.monomial_ratio(p, 1, nu + 1)  # 1/t^(nu+1)
        vals.append(gauss_valuation(coef, w) + nu * r_weight)
    best = min(vals)
    if vals[0] != best:
        raise ValueError("minimum not attained at nu = 1; truncation invalid")
    assert best == r_weight - 2 * lam
    return best


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
        raise ValueError(f"non-integral slope difference {chi}")
    return int(chi)


def dwork_twist(g: RationalFunctionPi) -> RationalFunctionPi:
    """Tensor with the rank-one system d/dx - pi/x^2 (the local shape of the
    exponential structure at infinity): defining functions add."""
    p = g.p
    return g + RationalFunctionPi.monomial_ratio(p, PiNumber.pi(p), 2)
