"""The exact arithmetic core: dense univariate polynomials, and elements of
quotient rings R[y]/(m(y)) for a monic modulus m.

Polynomials are lists in little-endian order (index = degree).  The
polynomial functions use only the coefficients' own operators: + - *,
truthiness meaning "nonzero", and 1/c where a division is needed.  So one
implementation serves Fractions, Q(zeta_p) and Q(pi) alike.

QuotientRingElem is one element type for every ring Z[y]/(m) or Q[y]/(m)
in the library: a subclass fixes the modulus and the coordinate type.
Remainders modulo a monic polynomial are unique, so the coordinates are
canonical and equality is coordinate equality; from_poly reduces to them
any polynomial in y.
"""

from functools import lru_cache


def trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = out[i] + y
    return trim(out)


def neg(a):
    return [-x for x in a]


def mul(a, b):
    if not a or not b:
        return []
    out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def scale(a, s):
    return trim([x * s for x in a])


def derivative(a):
    return trim([a[i] * i for i in range(1, len(a))])


def divmod_(a, b):
    """Quotient and remainder of a by b (b nonzero, leading coefficient
    invertible)."""
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [b[-1] * 0] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(trim(a)) >= len(b):
        a = trim(a)
        shift = len(a) - len(b)
        coef = a[-1] * inv_lead
        q[shift] = coef
        for i, y in enumerate(b):
            a[i + shift] = a[i + shift] - coef * y
    return trim(q), trim(a)


def xgcd(a, b):
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


def invmod(a, modulus):
    """Inverse of a modulo the polynomial modulus; raises ZeroDivisionError
    if a is not a unit."""
    g, u, _ = xgcd(a, modulus)
    if len(g) != 1:
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    return divmod_(u, modulus)[1]


def expand_quotient(P, Q, order):
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


@lru_cache(maxsize=256)   # build_field passes every candidate modulus
def _reducers(modulus):
    """The nonzero (i, m_i) below the leading term of a monic modulus."""
    return tuple((i, c) for i, c in enumerate(modulus[:-1]) if c)


def reduce_monic(a, modulus, zero=0):
    """The deg(m) coordinates of a modulo the monic m, a tuple of ints; short
    inputs are padded with `zero`, so a Fraction ring keeps Fraction
    coordinates.  Only the coefficients below the leading one are read."""
    d = len(modulus) - 1
    a = list(a) + [zero] * (d - len(a))
    reducers = _reducers(modulus)
    for k in range(len(a) - 1, d - 1, -1):  # y^d = -(m - y^d)
        c = a[k]
        if c:
            for i, m in reducers:
                a[k - d + i] -= c * m
    return a[:d]


def power(x, e, mul, one):
    """x^e for an integer e >= 0 by square-and-multiply, with the product
    mul(a, b) and its identity `one`."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


class QuotientRingElem:
    """Element of R[y]/(m(y)): the coordinates of its remainder modulo the
    monic m, for 1, y, ..., y^(deg m - 1).

    A subclass fixes the ring through four class attributes:
      _coord    converts one coordinate (int or Fraction)
      _modulus  maps the level p to the monic modulus, a tuple of ints
      _scalars  plain number types that embed as constants
      _mixed    the error message for operands of different levels
    and may list in _lifts other element types whose coordinates embed
    unchanged.  Operands of any other type are not coerced
    (NotImplemented), so mixing two unrelated rings raises TypeError."""

    __slots__ = ("p", "coords")
    _scalars = ()
    _lifts = ()
    _mixed = "mixed levels"

    def __init__(self, p: int, coords):
        coords = tuple(map(self._coord, coords))
        d = len(self._modulus(p)) - 1
        if len(coords) != d:
            raise ValueError(f"need {d} coordinates for p = {p}")
        self.p = p
        self.coords = coords

    def _like(self, coords) -> "QuotientRingElem":
        """An element of this ring from coordinates that already have the
        coordinate type and count, as every ring operation produces them."""
        out = object.__new__(type(self))
        out.p = self.p
        out.coords = tuple(coords)
        return out

    @classmethod
    def constant(cls, p: int, a) -> "QuotientRingElem":
        return cls(p, [a] + [0] * (len(cls._modulus(p)) - 2))

    @classmethod
    def from_poly(cls, p: int, poly) -> "QuotientRingElem":
        """c_0 + c_1 y + ... for poly = [c_0, c_1, ...] of any length (int
        or Fraction coefficients), reduced modulo the ring's modulus."""
        return cls(p, reduce_monic(poly, cls._modulus(p)))

    @classmethod
    def zero(cls, p: int) -> "QuotientRingElem":
        return cls.constant(p, 0)

    @classmethod
    def one(cls, p: int) -> "QuotientRingElem":
        return cls.constant(p, 1)

    def _coerce(self, other):
        kind = type(other)
        if kind in self._scalars:
            return self.constant(self.p, other)
        if kind is not type(self) and kind not in self._lifts:
            return None
        if other.p != self.p:
            raise ValueError(self._mixed)
        return other if kind is type(self) else type(self)(other.p, other.coords)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._like([a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return self._like([-a for a in self.coords])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) in self._scalars:
            return self._like([a * other for a in self.coords])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._like(reduce_monic(mul(self.coords, o.coords),
                                       self._modulus(self.p), self._coord(0)))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.coords)

    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        return hash((self.p, self.coords))


class QuotientFieldElem(QuotientRingElem):
    """Element of Q[y]/(m) for an irreducible m: a field, so elements
    other than zero invert (extended Euclid against m)."""

    __slots__ = ()

    def inverse(self) -> "QuotientFieldElem":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        modulus = [self._coord(c) for c in self._modulus(self.p)]
        inv = invmod(list(self.coords), modulus)
        return type(self).from_poly(self.p, inv)

    def __truediv__(self, other):
        if type(other) in self._scalars:
            return self._like([a / other for a in self.coords])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()
