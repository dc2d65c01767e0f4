"""The exact arithmetic core: dense univariate polynomials, integer
convolution, and elements of quotient rings Z[y]/(m(y)) and Q[y]/(m(y))
for a monic integer modulus m.

Polynomials are lists in little-endian order (index = degree).  The
polynomial functions use only the coefficients' own operators: + - *,
truthiness meaning "nonzero", and 1/c where a division is needed.  So one
implementation serves integers, Q(zeta_p) and Q(pi) alike.  remainder_rows
is the one polynomial Euclid: lfun reads its rows as Pade approximants, and
padic's rational functions take its last nonzero remainder as a gcd.

convolve multiplies two integer polynomials by Kronecker substitution:
each is packed into one Python int, its coefficients in two's-complement
slots of W bits, W wide enough for every coefficient of the product; the
two ints are multiplied once, and the product is read back slot by slot
from its bytes.  Packing and unpacking are linear in the bits.

QuotientRingElem is one element type for every ring Z[y]/(m) or Q[y]/(m)
in the library: a subclass fixes the modulus, the fold of a polynomial
onto it, and whether coordinates may be fractions.  An element is the
integer vector of its remainder modulo m over one positive denominator,
in lowest terms: one gcd per operation, and the denominator is 1 in
Z[y]/(m).  Remainders modulo a monic polynomial are unique, so equality is
equality of vector and denominator.  A product is one convolve of the
two vectors without their trailing zeros, so a rational operand packs
into one slot, and one fold; an inverse is extended Euclid over Q[y] on
integer vectors (invert_mod).  .coords builds ints or Fractions, for
reports only.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


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


def remainder_rows(a, b):
    """The rows (r_j, v_j), j >= 1, of extended Euclid over a field on (a, b),
    not both zero: r_j = u_j a + v_j b with r_1 = b, v_1 = 1, gcd(u_j, v_j)
    = 1 and deg r_j falling, ending at r_j = 0, so that for b nonzero the
    last nonzero r_j is a gcd of a and b.  Each division runs only when the
    next row is asked for."""
    r_prev, r = trim(a), trim(b)
    v_prev, v = [], [(r or r_prev)[-1] * 0 + 1]
    while True:
        yield r, v
        if not r:
            return
        q, rem = divmod_(r_prev, r)
        r_prev, r = r, rem
        v_prev, v = v, add(v_prev, neg(mul(q, v)))


@lru_cache(maxsize=256)   # build_field passes every candidate modulus
def _reducers(modulus):
    """The nonzero (i, m_i) below the leading term of a monic modulus."""
    return tuple((i, c) for i, c in enumerate(modulus[:-1]) if c)


def reduce_monic(a, modulus):
    """The deg(m) coordinates of a modulo the monic m, a list of ints; short
    inputs are padded with 0.  Only the coefficients below the leading one
    are read."""
    d = len(modulus) - 1
    a = list(a) + [0] * (d - len(a))
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


# -- integer vectors ------------------------------------------------------------

@lru_cache(maxsize=256)
def _slot_masks(nbytes: int, count: int) -> tuple:
    """(ones, halves): 1 and 2^(W-1) in each of `count` slots of W = 8 nbytes
    bits, as two ints."""
    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * count, "little")
    return ones, ones << (8 * nbytes - 1)


def _pack(a, nbytes: int, ones: int) -> int:
    """sum_i a_i 2^(W i), W = 8 nbytes, for |a_i| < 2^(W-1): the
    two's-complement slots read as one unsigned int, less 2^W for each
    negative slot, whose top bit `ones` (1 in each slot) picks out and
    moves one slot up."""
    w = 8 * nbytes
    u = int.from_bytes(b"".join([c.to_bytes(nbytes, "little", signed=True)
                                 for c in a]), "little")
    return u - (((u >> (w - 1)) & ones) << w)


def convolve(a, b) -> list:
    """The coefficients of the product of two integer polynomials, by
    Kronecker substitution: |c_k| <= min(len a, len b) max|a| max|b|, below
    2^bits for the sum `bits` of the three factors' bit lengths, so slots of
    W > bits bits hold each c_k without carries; adding 2^(W-1) to every slot and flipping its top bit back
    leaves c_k in two's complement, read from the product's bytes."""
    if not a or not b:
        return []
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length())
    nbytes = bits // 8 + 1          # W >= bits + 1: a sign bit to spare
    n = len(a) + len(b) - 1
    ones, halves = _slot_masks(nbytes, n)
    raw = ((_pack(a, nbytes, ones) * _pack(b, nbytes, ones) + halves)
           ^ halves).to_bytes(n * nbytes, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
            for i in range(0, len(raw), nbytes)]


def _submul(x, a: int, y, b: int, k: int) -> list:
    """a x - b y^k y for integer vectors x, y."""
    out = [a * c for c in x]
    out += [0] * (len(y) + k - len(out))
    out[k:k + len(y)] = [c - b * t for c, t in zip(out[k:], y)]
    return out


def invert_mod(a, modulus) -> tuple:
    """(u, c) with u a = c modulo the monic integer polynomial m, c a nonzero
    int and u an integer vector of deg m entries: extended Euclid over Q[y]
    on integer vectors.  Each row r = s a (mod m) is reduced by the next
    one, r' with leading coefficient l', as l' r - t y^k r', t the leading
    coefficient of r, its cofactor s alike; then both are divided by their
    content, one gcd.  ZeroDivisionError if a is not a unit modulo m."""
    d = len(modulus) - 1
    r0, s0, r1, s1 = list(modulus), [], trim(a), [1]
    while len(r1) > 1:
        lead = r1[-1]
        while len(r0) >= len(r1):
            k, top = len(r0) - len(r1), r0[-1]
            r0 = trim(_submul(r0, lead, r1, top, k))
            s0 = trim(_submul(s0, lead, s1, top, k))
            g = gcd(*r0, *s0)
            if g != 1:
                r0 = [c // g for c in r0]
                s0 = [c // g for c in s0]
        r0, s0, r1, s1 = r1, s1, r0, s0
    if not r1:
        raise ZeroDivisionError(
            "element not invertible modulo the given polynomial")
    return s1 + [0] * (d - len(s1)), r1[0]


# -- quotient rings -------------------------------------------------------------

class QuotientRingElem:
    """Element of Z[y]/(m(y)) or Q[y]/(m(y)): the integer vector num of its
    remainder modulo the monic m, for 1, y, ..., y^(deg m - 1), over the
    positive denominator den, with gcd(den, *num) = 1.

    A subclass fixes the ring through class attributes:
      _coord    int for Z[y]/(m), whose den is always 1, or Fraction for
                Q[y]/(m): the type .coords yields
      _modulus  maps the level p to the monic modulus, a tuple of ints
      _fold     maps an integer polynomial (a list, which it may consume)
                and p to its deg m coordinates modulo m, a list
      _scalars  plain number types that embed as constants
      _mixed    the error message for operands of different levels
    and may list in _lifts other element types of the same modulus whose
    elements embed unchanged.  Operands of any other type are not coerced
    (NotImplemented), so mixing two unrelated rings raises TypeError."""

    __slots__ = ("p", "num", "den")
    _scalars = ()
    _lifts = ()
    _mixed = "mixed levels"

    def __init__(self, p: int, coords):
        coords = tuple(coords)
        d = len(self._modulus(p)) - 1
        if len(coords) != d:
            raise ValueError(f"need {d} coordinates for p = {p}")
        self.p = p
        self.num, self.den = self._vector(coords)

    @classmethod
    def _vector(cls, coords) -> tuple:
        """(num, den) in lowest terms for int or Fraction coordinates, each
        read as an int in Z[y]/(m)."""
        if cls._coord is int:
            return tuple(map(int, coords)), 1
        coords = [c if type(c) is int else Fraction(c) for c in coords]
        den = lcm(*[c.denominator for c in coords])
        return tuple(c.numerator * (den // c.denominator)
                     for c in coords), den

    @classmethod
    def _from_vector(cls, p: int, num, den: int = 1) -> "QuotientRingElem":
        """The element num / den for an integer vector of deg m entries and
        a positive den, brought to lowest terms by one gcd."""
        num = tuple(num)
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(c // g for c in num)
                den //= g
        out = object.__new__(cls)
        out.p, out.num, out.den = p, num, den
        return out

    @property
    def coords(self) -> tuple:
        """The coordinates as _coord values."""
        if self._coord is int:
            return self.num
        return tuple(Fraction(c, self.den) for c in self.num)

    @classmethod
    def constant(cls, p: int, a) -> "QuotientRingElem":
        return cls(p, [a] + [0] * (len(cls._modulus(p)) - 2))

    @classmethod
    def from_poly(cls, p: int, poly) -> "QuotientRingElem":
        """c_0 + c_1 y + ... for poly = [c_0, c_1, ...] of any length (int
        or Fraction coefficients), reduced modulo the ring's modulus."""
        num, den = cls._vector(poly)
        return cls._from_vector(p, cls._fold(list(num), p), den)

    @classmethod
    def zero(cls, p: int) -> "QuotientRingElem":
        return cls.constant(p, 0)

    @classmethod
    def one(cls, p: int) -> "QuotientRingElem":
        return cls.constant(p, 1)

    def _operand(self, other):
        """other as an element of this ring with the same p, or None."""
        kind = type(other)
        if kind is type(self) or kind in self._lifts:
            if other.p != self.p:
                raise ValueError(self._mixed)
            return other
        if kind in self._scalars:
            return self.constant(self.p, other)
        return None

    def _add(self, other, sign: int):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = [x + sign * y for x, y in zip(self.num, o.num)]
        else:
            num = [x * db + sign * y * da for x, y in zip(self.num, o.num)]
            da *= db
        return self._from_vector(self.p, num, da)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return self._from_vector(self.p, [-c for c in self.num], self.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) in self._scalars:
            return self._from_vector(self.p, [c * other.numerator
                                              for c in self.num],
                                     self.den * other.denominator)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._from_vector(
            self.p, self._fold(convolve(trim(self.num), trim(o.num)), self.p),
            self.den * o.den)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.num)

    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.p, self.num, self.den))


class QuotientFieldElem(QuotientRingElem):
    """Element of Q[y]/(m) for an irreducible m: a field, so elements
    other than zero invert (invert_mod against m)."""

    __slots__ = ()

    def inverse(self) -> "QuotientFieldElem":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        u, c = invert_mod(self.num, self._modulus(self.p))
        if c < 0:
            u, c = [-x for x in u], -c
        return self._from_vector(self.p, [x * self.den for x in u], c)

    def __truediv__(self, other):
        if type(other) in self._scalars:
            n, d = other.numerator, other.denominator
            if not n:
                raise ZeroDivisionError("division by zero")
            if n < 0:
                n, d = -n, -d
            return self._from_vector(self.p, [c * d for c in self.num],
                                     self.den * n)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()
