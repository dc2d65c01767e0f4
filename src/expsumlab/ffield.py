"""Exact arithmetic in finite fields F_{p^n} and in the cyclotomic ring Z[zeta_p].

Field elements are coefficient vectors in the polynomial basis of a fixed
monic irreducible modulus.  Character-sum values live in Z[zeta_p], stored
as integer vectors of length p-1 under the relation
1 + zeta + ... + zeta^(p-1) = 0; the rational variant backs the L-series
coefficient field Q(zeta_p).  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from . import _exactpoly


class CrossContextError(ValueError):
    """Arithmetic between elements of different field contexts."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _factor(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n stays small here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomials over Z/p, little-endian int tuples --------------------------

def _ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, m, p):
    a = [x % p for x in a]
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(_ptrim(a)) > dm:
        a = _ptrim(a)
        shift = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for i, y in enumerate(m):
            a[i + shift] = (a[i + shift] - c * y) % p
    return _ptrim(a)


def _pmulmod(a, b, m, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pmod(out, m, p)


def _ppowmod(a, e, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, m, p)
        base = _pmulmod(base, base, m, p)
        e >>= 1
    return result


def _pdivmod(a, b, p):
    """Quotient and remainder of a by a trimmed nonzero b over Z/p."""
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(_ptrim(r)) >= len(b):
        r = _ptrim(r)
        shift = len(r) - len(b)
        c = (r[-1] * inv_lead) % p
        q[shift] = c
        for i, y in enumerate(b):
            r[i + shift] = (r[i + shift] - c * y) % p
    return q, _ptrim(r)


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return a


def _pinvmod(a, m, p):
    """Inverse of a modulo m over Z/p via extended Euclid."""
    r0, r1 = _ptrim(m), _ptrim(a)
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        # t_next = t0 - q*t1
        qt = [0] * (len(q) + len(t1))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(t1):
                    qt[i + j] = (qt[i + j] + x * y) % p
        t_next = [0] * max(len(t0), len(qt))
        for i, x in enumerate(t0):
            t_next[i] = x
        for i, x in enumerate(qt):
            t_next[i] = (t_next[i] - x) % p
        r0, r1 = r1, r
        t0, t1 = t1, _ptrim(t_next)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    c = pow(r0[0], -1, p)
    return _pmod([x * c for x in t0], m, p)


def _sub_x(a, p):
    """a(x) - x over Z/p, trimmed."""
    out = list(a) + [0] * (2 - len(a))
    out[1] = (out[1] - 1) % p
    return _ptrim(out)


def _is_irreducible(f, p: int) -> bool:
    """Monic f of degree n is irreducible over F_p iff x^(p^n) = x (mod f)
    and gcd(x^(p^(n/l)) - x, f) = 1 for every prime l dividing n."""
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    if _sub_x(_ppowmod(x, p ** n, f, p), p):
        return False
    for ell in _factor(n):
        g = _sub_x(_ppowmod(x, p ** (n // ell), f, p), p)
        if len(_pgcd(g, f, p)) != 1:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """A finite field F_{p^n} with a fixed monic irreducible modulus."""

    p: int
    n: int
    modulus: tuple  # little-endian, length n+1, monic

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 1:
            raise ValueError("extension degree must be >= 1")
        if len(self.modulus) != self.n + 1 or self.modulus[-1] % self.p != 1:
            raise ValueError("modulus must be monic of degree n")
        if not _is_irreducible(list(self.modulus), self.p):
            raise ValueError("modulus is reducible")

    @property
    def q(self) -> int:
        return self.p ** self.n

    def element(self, coeffs: Sequence[int]) -> "FqElem":
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.n:
            cs = _pmod(cs, list(self.modulus), self.p)
        cs = cs + [0] * (self.n - len(cs))
        return FqElem(self, tuple(cs))

    def zero(self) -> "FqElem":
        return self.element([0])

    def one(self) -> "FqElem":
        return self.element([1])

    def from_int(self, a: int) -> "FqElem":
        return self.element([a])

    def element_at(self, index: int) -> "FqElem":
        """Element number `index` in the fixed enumeration (base-p digits)."""
        digits = []
        for _ in range(self.n):
            digits.append(index % self.p)
            index //= self.p
        return FqElem(self, tuple(digits))

    def elements(self) -> Iterator["FqElem"]:
        for i in range(self.q):
            yield self.element_at(i)


@lru_cache(maxsize=None)
def build_field(p: int, n: int) -> FieldCtx:
    """F_{p^n} with the first monic irreducible modulus in the fixed
    lexicographic enumeration (non-leading coefficients read as base-p
    digits of an increasing counter).  Deterministic across runs."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    for k in range(p ** n):
        coeffs = []
        kk = k
        for _ in range(n):
            coeffs.append(kk % p)
            kk //= p
        candidate = coeffs + [1]
        if _is_irreducible(candidate, p):
            return FieldCtx(p, n, tuple(candidate))
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class FqElem:
    """Element of F_{p^n} in the polynomial basis of its context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, FqElem):
            if other.ctx != self.ctx:
                raise CrossContextError(
                    "cannot mix elements of different field contexts")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.p
        return FqElem(self.ctx, tuple((a + b) % p
                                      for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return FqElem(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = _pmulmod(list(self.coeffs), list(o.coeffs),
                        list(self.ctx.modulus), self.ctx.p)
        return self.ctx.element(prod)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = _ppowmod(list(self.coeffs), e, list(self.ctx.modulus), self.ctx.p)
        return self.ctx.element(out)

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        inv = _pinvmod(list(self.coeffs), list(self.ctx.modulus), self.ctx.p)
        return self.ctx.element(inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def frobenius(self) -> "FqElem":
        return self ** self.ctx.p

    def in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.n, self.ctx.modulus, self.coeffs))

    def __repr__(self):
        return f"Fq({self.ctx.p}^{self.ctx.n}){list(self.coeffs)}"


def trace(x: FqElem, sub_degree: int = 1) -> FqElem:
    """Trace of x onto the subfield of degree sub_degree:
    sum of x^(p^(i*sub_degree)) over the n/sub_degree Frobenius orbits."""
    n = x.ctx.n
    if sub_degree < 1 or n % sub_degree != 0:
        raise ValueError(f"{sub_degree} does not divide the extension degree {n}")
    p = x.ctx.p
    acc = x.ctx.zero()
    term = x
    step = p ** sub_degree
    for _ in range(n // sub_degree):
        acc = acc + term
        term = term ** step
    return acc


def trace_to_prime(x: FqElem) -> int:
    """Trace down to F_p, as an integer in [0, p)."""
    t = trace(x, 1)
    assert t.in_prime_field()
    return t.coeffs[0]


# -- cyclotomic integers / rationals -----------------------------------------

def _reduce_zeta_power(p: int, k: int):
    """Coordinate vector of zeta^k in the canonical length-(p-1) basis."""
    k %= p
    coords = [0] * (p - 1)
    if k < p - 1:
        coords[k] = 1
    else:  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        coords = [-1] * (p - 1)
    return coords


@lru_cache(maxsize=None)
def _cyclotomic_modulus(p: int) -> tuple:
    """1 + y + ... + y^(p-1), the minimal polynomial of zeta_p."""
    return (1,) * p


class CyclotomicInt(_exactpoly.QuotientRingElem):
    """Element of Z[zeta_p]: integer coordinates for 1, zeta, ..., zeta^(p-2).

    For p = 2 the ring degenerates to Z with zeta = -1; coordinate vectors
    then have length 1.
    """

    __slots__ = ()
    _coord = int
    _modulus = staticmethod(_cyclotomic_modulus)
    _scalars = (int,)
    _mixed = "mixed cyclotomic levels"

    @classmethod
    def from_int(cls, p: int, a: int) -> "CyclotomicInt":
        return cls.constant(p, a)

    @classmethod
    def zeta(cls, p: int) -> "CyclotomicInt":
        return cls(p, _reduce_zeta_power(p, 1))

    def as_int(self) -> int:
        """The value as a plain integer; only valid for rational elements."""
        if any(c != 0 for c in self.coords[1:]):
            raise ValueError("element is not rational")
        return self.coords[0]

    def __repr__(self):
        return f"Cyc({self.p}){list(self.coords)}"


class CyclotomicRat(_exactpoly.QuotientFieldElem):
    """Element of Q(zeta_p) with exact Fraction coordinates.  A field:
    inversion goes through the extended Euclid against 1 + y + ... + y^(p-1)."""

    __slots__ = ()
    _coord = Fraction
    _modulus = staticmethod(_cyclotomic_modulus)
    _scalars = (int, Fraction)
    _lifts = (CyclotomicInt,)
    _mixed = "mixed cyclotomic levels"

    @classmethod
    def from_rational(cls, p: int, a) -> "CyclotomicRat":
        return cls.constant(p, a)

    @classmethod
    def from_cyclotomic_int(cls, v: CyclotomicInt) -> "CyclotomicRat":
        return cls(v.p, v.coords)

    def as_rational(self) -> Fraction:
        if any(c != 0 for c in self.coords[1:]):
            raise ValueError("element is not rational")
        return self.coords[0]

    def __repr__(self):
        return f"CycQ({self.p}){[str(c) for c in self.coords]}"


def additive_character(p: int, a: int) -> CyclotomicInt:
    """psi(a) = zeta_p^a for the standard character psi(1) = zeta_p."""
    return CyclotomicInt(p, _reduce_zeta_power(p, a))


def galois_twist(v, u: int):
    """Apply zeta -> zeta^u coordinate-wise (a ring automorphism for u
    prime to p).  Works on both CyclotomicInt and CyclotomicRat."""
    p = v.p
    if u % p == 0:
        raise ValueError("twist exponent must be a unit mod p")
    out = [0] * (p - 1)
    for i, a in enumerate(v.coords):
        if not a:
            continue
        target = _reduce_zeta_power(p, i * u)
        for j, t in enumerate(target):
            if t:
                out[j] += a * t
    return type(v)(p, out)
