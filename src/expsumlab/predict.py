"""Topological degree predictions for exponential-sum L-series.

Four independent sources of the expected degree / total degree:
  * chern_degree    -- Chern-series coefficient on projective n-space,
  * curve_degree    -- Euler-characteristic count 2g + c + m + d - 2,
  * betti_degree    -- alternating sum of Milnor-fiber Betti numbers,
  * newton_degree   -- n! times the lattice volume of the Newton polytope
                       at infinity (classical nondegenerate-convenient
                       cross-check).
All arithmetic is exact (ints / Fractions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Tuple


# -- Chern-series coefficient on P^n -------------------------------------------

@dataclass(frozen=True)
class ChernSpec:
    """P^n with r divisor classes of degrees d_i and pole multiplicities e_i."""

    n: int
    d: tuple
    e: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")
        if len(self.d) != len(self.e):
            raise ValueError("d and e must have equal length")
        if any(x < 1 for x in self.d) or any(x < 0 for x in self.e):
            raise ValueError("need d_i >= 1 and e_i >= 0")


def chern_degree(s: ChernSpec) -> int:
    """(-1)^n times the h^n coefficient of
    (1+h)^(n+1) / ((1 + E h) prod_i (1 + d_i h)),   E = sum e_i d_i,
    truncated at h^n: the binomials C(n+1, k) as a running product, then
    one division pass per factor, b_k -= c b_(k-1) for k = 1..n in place,
    O(n (r+1)) integer steps in all."""
    n = s.n
    E = sum(di * ei for di, ei in zip(s.d, s.e))
    series = [1]
    for k in range(1, n + 1):
        series.append(series[-1] * (n + 2 - k) // k)
    for c in (E, *s.d):
        for k in range(1, n + 1):
            series[k] -= c * series[k - 1]
    return (-1) ** n * series[n]


# Coefficient bits per work unit of a chern_degree step: on fermat_chern_spec
# of n = 100 to 1,600, and on r = 1 to 50,000 factors with coefficients of
# 7 to 201 bits, a step took 0.05-0.19 ns per bit of the coefficients it
# reached, and 0.3-2.8 ns per unit of chern_work's bound (2-vCPU Xeon,
# Python 3.11.7), where a point evaluation is about 1 ns a unit
CHERN_BITS_PER_UNIT = 16


def chern_work(s: ChernSpec) -> int:
    """Work units of chern_degree(s): n (r + 1) steps, each a product and a
    difference of integers of at most `bits` bits, a unit per
    CHERN_BITS_PER_UNIT of them.  With C the largest of E and the d_i, the
    coefficient of h^k is at most 2^(n+1) C^n binom(n + r, n) in absolute
    value, k <= n, and binom(n + r, n) <= (n + r)^n, so
    bits = n (bitlen C + bitlen(n + r) + 1) + 1 bounds them all."""
    n, r = s.n, len(s.d)
    C = max(sum(di * ei for di, ei in zip(s.d, s.e)), *s.d, 1)
    bits = n * (C.bit_length() + (n + r).bit_length() + 1) + 1
    return n * (r + 1) * (bits // CHERN_BITS_PER_UNIT + 1)


# -- curve count -----------------------------------------------------------------

@dataclass(frozen=True)
class CurveSpec:
    """Curve data: genus g, c punctures away from the poles of the map,
    m poles, map degree d.

    c counts punctures of the open curve lying outside the pole fiber.  (A
    literal reading of c as the full pole-fiber count would force c = m and
    contradict the degree-2 Kloosterman computation, so the
    punctures-outside-poles reading is used.)"""

    g: int
    c: int
    m: int
    d: int

    def __post_init__(self):
        if min(self.g, self.c, self.m, self.d) < 0 or self.d < 1 or self.m < 1:
            raise ValueError("need g, c >= 0, m >= 1, d >= 1")


def curve_degree(s: CurveSpec) -> int:
    return 2 * s.g + s.c + s.m + s.d - 2


# -- Milnor-fiber Betti arithmetic ------------------------------------------------

@dataclass(frozen=True)
class BettiSpec:
    """Ambient affine dimension n and reduced Betti numbers b~_1..b~_(n-1)
    of the Milnor fiber of a homogeneous polynomial."""

    n: int
    b: tuple

    def __post_init__(self):
        if len(self.b) != self.n - 1:
            raise ValueError("need exactly n-1 reduced Betti numbers")
        if any(x < 0 for x in self.b):
            raise ValueError("Betti numbers are non-negative")


def betti_degree(s: BettiSpec) -> Tuple[int, int]:
    """(degree, total bound): twisted cohomology sits in degrees i+1 with
    dimensions b~_i, so degree = |sum_i (-1)^(i+1) b~_i| and the total
    degree is bounded by sum_i b~_i."""
    signed = sum((-1) ** (i + 1) * bi for i, bi in enumerate(s.b, start=1))
    return abs(signed), sum(s.b)


# -- Newton polytope volume --------------------------------------------------------

def _torus_dimension(n: int) -> None:
    if not 1 <= n <= 4:
        raise ValueError("torus dimension must be between 1 and 4")


@dataclass(frozen=True)
class NewtonSpec:
    """Exponent support of a Laurent polynomial on an n-torus, n <= 4."""

    n: int
    support: tuple

    def __post_init__(self):
        _torus_dimension(self.n)
        if not self.support:
            raise ValueError("support must be non-empty")
        for v in self.support:
            if len(v) != self.n:
                raise ValueError("support vectors must have length n")


def _det(M) -> int:
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += (-1) ** j * M[0][j] * _det(minor)
    return total


def _affine_rank(points) -> int:
    base = points[0]
    rows = [[Fraction(x - y) for x, y in zip(p, base)] for p in points[1:]]
    rank = 0
    cols = len(base)
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _facets(points, dim):
    """Supporting hyperplanes (a, b) with a.x <= b on the hull, each with its
    on-plane vertex set; a is a primitive integer normal."""
    facets = {}
    for combo in itertools.combinations(range(len(points)), dim):
        rows = [[points[i][j] - points[combo[0]][j] for j in range(dim)]
                for i in combo[1:]]
        normal = []
        for j in range(dim):
            minor = [r[:j] + r[j + 1:] for r in rows]
            normal.append((-1) ** j * (_det(minor) if minor else 1))
        if all(x == 0 for x in normal):
            continue
        b = sum(a * x for a, x in zip(normal, points[combo[0]]))
        sides = [sum(a * x for a, x in zip(normal, p)) - b for p in points]
        if all(v <= 0 for v in sides):
            pass
        elif all(v >= 0 for v in sides):
            normal, b = [-a for a in normal], -b
            sides = [-v for v in sides]
        else:
            continue
        g = 0
        for v in normal + [b]:
            g = gcd(g, abs(v))
        normal = [a // g for a in normal]
        b //= g
        key = (tuple(normal), b)
        if key not in facets:
            facets[key] = tuple(i for i, v in enumerate(sides) if v == 0)
    return facets


def _hull_volume(points, dim) -> Fraction:
    """Exact volume of the convex hull of full-dimensional integer points:
    fan of pyramids from the centroid over recursively-triangulated facets."""
    points = sorted(set(map(tuple, points)))
    if dim == 1:
        xs = [p[0] for p in points]
        return Fraction(max(xs) - min(xs))
    centroid = [Fraction(sum(p[j] for p in points), len(points))
                for j in range(dim)]
    total = Fraction(0)
    for (normal, b), on_plane in _facets(points, dim).items():
        j = next(i for i, a in enumerate(normal) if a != 0)
        proj = [tuple(points[i][k] for k in range(dim) if k != j)
                for i in on_plane]
        height = b - sum(a * c for a, c in zip(normal, centroid))
        total += abs(height) * _hull_volume(proj, dim - 1) / abs(normal[j])
    return total / dim


# Work units per n-subset of the points that _facets tries: on n = 4 with
# 20, 30 and 40 random points of [0, 5]^4 a subset took 40-49 us, facet
# recursion included (24-40 us at n = 3, 24-25 us at n = 2), a unit about
# 1 ns, as padic.WEIGHT_PASS_WORK is (2-vCPU Xeon, Python 3.11.7)
HULL_SUBSET_WORK = 50000


def newton_work(s: NewtonSpec) -> int:
    """Work units of newton_report(s): HULL_SUBSET_WORK for each n-subset
    of the support with 0 adjoined, which its hull's _facets tries; none
    for n = 1, whose hull is an interval."""
    if s.n == 1:
        return 0
    return HULL_SUBSET_WORK * comb(len(set(map(tuple, s.support))
                                       | {(0,) * s.n}), s.n)


def newton_report(s: NewtonSpec) -> Tuple[Fraction, bool]:
    """(n! Vol(conv(support + {0})), degenerate?); volume 0 with the flag set
    when the hull is lower-dimensional."""
    points = sorted(set(map(tuple, s.support)) | {(0,) * s.n})
    if len(points) < s.n + 1 or _affine_rank(points) < s.n:
        return Fraction(0), True
    vol = _hull_volume(points, s.n)
    fact = 1
    for k in range(2, s.n + 1):
        fact *= k
    return fact * vol, False


def newton_degree(s: NewtonSpec) -> Fraction:
    """Normalized lattice volume n! Vol of the Newton polytope at infinity;
    0 for degenerate (lower-dimensional) hulls."""
    value, _ = newton_report(s)
    return value


def point_in_hull(s: NewtonSpec, point) -> bool:
    """Whether `point` lies in conv(support) (not including the adjoined 0)."""
    points = sorted(set(map(tuple, s.support)))
    if len(points) == 1:
        return tuple(point) == points[0]
    rank = _affine_rank(points)
    if rank < s.n:
        raise ValueError("membership test implemented for full-dim hulls only")
    for (normal, b) in _facets(points, s.n):
        if sum(a * x for a, x in zip(normal, point)) > b:
            return False
    return True


# -- SL2 symmetric-power family ------------------------------------------------------

def sl2_degree(N: int) -> int:
    """Expected total degree 2N for the trace-of-symmetric-powers family
    (cohomology of dimensions N-1 and N+1 in odd degrees)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return 2 * N if N >= 1 else 0


# -- degree-(n+1) Fermat-type family on the n-torus -----------------------------------

def fermat_chern_spec(n: int) -> ChernSpec:
    """The n-torus inside P^n with the degree-(n+1) Fermat numerator: n+1
    coordinate hyperplanes, each with pole multiplicity 1."""
    return ChernSpec(n, tuple([1] * (n + 1)), tuple([1] * (n + 1)))


def fermat_torus_support(n: int) -> NewtonSpec:
    """Exponent support of (x_1^(n+1) + ... + x_n^(n+1) + 1)/(x_1...x_n) on
    the n-torus written in affine torus coordinates; n is checked before
    its n + 1 rows are built."""
    _torus_dimension(n)
    rows = [tuple(-1 for _ in range(n))]
    for i in range(n):
        rows.append(tuple(n if j == i else -1 for j in range(n)))
    return NewtonSpec(n, tuple(rows))


def fermat_alternative_value(n: int) -> int:
    """The competing closed form n^n (n+1) quoted for this family; it
    disagrees with the Chern/Newton value (n+1)^n once n >= 2."""
    return n ** n * (n + 1)


def fermat_discrepancy_report(n: int) -> dict:
    """Both candidate degrees for the Fermat-type family, with a flag when
    they disagree.  Neither value is asserted as the truth.  The Newton
    value comes first, as its spec refuses n > 4."""
    newton = newton_degree(fermat_torus_support(n))
    chern = chern_degree(fermat_chern_spec(n))
    alt = fermat_alternative_value(n)
    return {
        "n": n,
        "chern_value": chern,
        "newton_value": newton,
        "alternative_value": alt,
        "discrepant": not (chern == newton == alt),
    }
