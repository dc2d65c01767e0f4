"""Exact arithmetic in finite fields F_{p^n} and in the cyclotomic ring Z[zeta_p].

Field elements are coefficient vectors in the polynomial basis of a fixed
monic irreducible modulus.  This module has no polynomial code of its own:
a product is the exact core's (_exactpoly) schoolbook product and monic
reduction over Z, with the coordinates taken mod p at the end, and powers,
the Fermat inverse x^(q-2) and Rabin's irreducibility test are the core's
square-and-multiply over that product.  These serve base fields and the
naive reference path only: the tables of a level build no field (see
tables.py).  Character-sum values live in
Z[zeta_p], stored as integer vectors of length p-1 under the relation
1 + zeta + ... + zeta^(p-1) = 0; the rational variant backs the L-series
coefficient field Q(zeta_p), as an integer vector over one denominator.
Both are the core's quotient-ring elements: a product is one Kronecker
convolution folded by _fold_cyclotomic, first mod y^p - 1 and then by
Phi_p, in linear time.  A power zeta^a or a Galois twist is written as a
polynomial in zeta and folded once.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import add
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


# -- F_p[x]/(f) on the exact core -------------------------------------------

def _mul_mod_p(modulus, p: int, a, b) -> tuple:
    """Coordinates of a * b in F_p[x]/(modulus), each in [0, p).  The product
    and its monic reduction run over Z; one pass mod p ends them."""
    return tuple(c % p for c in
                 _exactpoly.reduce_monic(_exactpoly.mul(a, b), modulus))


@lru_cache(maxsize=None)
def _is_irreducible(f: tuple, p: int) -> bool:
    """Rabin's test: monic f of degree n is irreducible over F_p iff
    x^(p^n) = x (mod f) and x^(p^(n/l)) - x is a unit mod f for every prime
    l dividing n.  Once f divides x^(p^n) - x, F_p[x]/(f) is a product of
    fields F_(p^d) with d | n, so u is a unit iff u^(p^n - 1) = 1.
    Memoised, so FieldCtx's check of a modulus that build_field's search
    has just tested does not run the test again."""
    n = len(f) - 1
    if n == 1:
        return True
    one = (1,) + (0,) * (n - 1)
    mul = partial(_mul_mod_p, f, p)

    def frobenius_minus_x(e):   # x^(p^e) - x
        y = list(_exactpoly.power((0, 1), p ** e, mul, one))
        y[1] = (y[1] - 1) % p
        return tuple(y)

    if any(frobenius_minus_x(n)):
        return False
    return all(_exactpoly.power(frobenius_minus_x(n // ell), p ** n - 1,
                                mul, one) == one
               for ell in _factor(n))


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
        if not _is_irreducible(tuple(self.modulus), self.p):
            raise ValueError("modulus is reducible")

    @property
    def q(self) -> int:
        return self.p ** self.n

    def element(self, coeffs: Sequence[int]) -> "FqElem":
        cs = _exactpoly.reduce_monic(coeffs, self.modulus)
        return FqElem(self, tuple(c % self.p for c in cs))

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
        candidate = tuple(coeffs) + (1,)
        if _is_irreducible(candidate, p):
            return FieldCtx(p, n, candidate)
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
        ctx = self.ctx
        return FqElem(ctx, _mul_mod_p(ctx.modulus, ctx.p, self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _exactpoly.power(self, e, FqElem.__mul__, self.ctx.one())

    def inverse(self) -> "FqElem":
        """x^(q-2), by Fermat: x^(q-1) = 1 for x != 0."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.ctx.q - 2)

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


def trace(x: FqElem) -> FqElem:
    """Trace of x onto F_p: the sum of its n conjugates x^(p^i), i < n."""
    acc, term = x.ctx.zero(), x
    for _ in range(x.ctx.n):
        acc = acc + term
        term = term ** x.ctx.p
    return acc


def trace_to_prime(x: FqElem) -> int:
    """Trace down to F_p, as an integer in [0, p)."""
    t = trace(x)
    assert t.in_prime_field()
    return t.coeffs[0]


# -- cyclotomic integers / rationals -----------------------------------------

@lru_cache(maxsize=None)
def _cyclotomic_modulus(p: int) -> tuple:
    """1 + y + ... + y^(p-1), the minimal polynomial of zeta_p."""
    return (1,) * p


def _fold_cyclotomic(c: list, p: int) -> list:
    """The coordinates for 1, zeta, ..., zeta^(p-2) of sum_k c_k zeta^k:
    zeta^p = 1 adds each c_k onto c_(k mod p), and then
    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) subtracts the last."""
    r = c[:p] + [0] * (p - len(c))
    for i in range(p, len(c), p):
        chunk = c[i:i + p]
        r[:len(chunk)] = map(add, r, chunk)
    top = r[p - 1]
    return [x - top for x in r[:p - 1]]


class CyclotomicInt(_exactpoly.QuotientRingElem):
    """Element of Z[zeta_p]: integer coordinates for 1, zeta, ..., zeta^(p-2).

    For p = 2 the ring degenerates to Z with zeta = -1; coordinate vectors
    then have length 1.
    """

    __slots__ = ()
    _coord = int
    _modulus = staticmethod(_cyclotomic_modulus)
    _fold = staticmethod(_fold_cyclotomic)
    _scalars = (int,)
    _mixed = "mixed cyclotomic levels"

    @classmethod
    def from_int(cls, p: int, a: int) -> "CyclotomicInt":
        return cls.constant(p, a)

    @classmethod
    def zeta(cls, p: int) -> "CyclotomicInt":
        return cls.from_poly(p, [0, 1])

    def __repr__(self):
        return f"Cyc({self.p}){list(self.coords)}"


class CyclotomicRat(_exactpoly.QuotientFieldElem):
    """Element of Q(zeta_p): an integer vector over one denominator, whose
    coords are Fractions.  A field: inversion is the core's extended
    Euclid against 1 + y + ... + y^(p-1)."""

    __slots__ = ()
    _coord = Fraction
    _modulus = staticmethod(_cyclotomic_modulus)
    _fold = staticmethod(_fold_cyclotomic)
    _scalars = (int, Fraction)
    _lifts = (CyclotomicInt,)
    _mixed = "mixed cyclotomic levels"

    @classmethod
    def from_rational(cls, p: int, a) -> "CyclotomicRat":
        return cls.constant(p, a)

    @classmethod
    def from_cyclotomic_int(cls, v: CyclotomicInt) -> "CyclotomicRat":
        return cls._from_vector(v.p, v.num)

    def as_rational(self) -> Fraction:
        if any(self.num[1:]):
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        return f"CycQ({self.p}){[str(c) for c in self.coords]}"


def _jsonable(v):
    """Report values as JSON data: a Fraction as "n/d" (an int when
    integral), a cyclotomic integer as its coordinate list, and any object
    JSON has no type for as its str."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else v.numerator
    if isinstance(v, CyclotomicInt):
        return list(v.coords)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


def additive_character(p: int, a: int) -> CyclotomicInt:
    """psi(a) = zeta_p^a for the standard character psi(1) = zeta_p."""
    return CyclotomicInt.from_poly(p, [0] * (a % p) + [1])


def galois_twist(v, u: int):
    """Apply zeta -> zeta^u (a ring automorphism for u prime to p): zeta^i
    moves to zeta^(i u mod p), then one fold.  Works on both CyclotomicInt
    and CyclotomicRat."""
    p = v.p
    if u % p == 0:
        raise ValueError("twist exponent must be a unit mod p")
    poly = [0] * p
    for i, a in enumerate(v.num):
        poly[i * u % p] = a
    return type(v)._from_vector(p, _fold_cyclotomic(poly, p), v.den)
