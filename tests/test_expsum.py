import concurrent.futures
import itertools
import math
import resource
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsumlab.expsum as es
from expsumlab import tables
from expsumlab.expsum import (BudgetExceededError, PowerSumSequence,
                              VarietySpec, count_points, multiply_terms,
                              power_sum, power_sum_naive, power_sum_table,
                              scaled_degree_check, sym_trace)
from expsumlab.ffield import (CyclotomicInt, FieldCtx, additive_character,
                              build_field, galois_twist, trace_to_prime)
from expsumlab.verify import _arrangement_terms

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F5 = build_field(5, 1)
F7 = build_field(7, 1)
F9 = build_field(3, 2)

NEWTON_DEGENERATE = VarietySpec.affine_space(2, {(2, 1): 1, (1, 0): -1})
# x^2 y^2 - x: linear in no coordinate of its torus, whose sum therefore
# reads the windows of the trace table
SQUARE_PLANE = VarietySpec.affine_space(2, {(2, 2): 1, (1, 0): -1})
# x y + x y^2 + ... + x y^7 on A^2: seven last exponents in one sum, but
# linear in x; x^2 y + ... + x^2 y^7 is linear in no coordinate of its torus
MULTI_EXPONENT = VarietySpec.affine_space(2, {(1, k): 1 for k in range(1, 8)})
MULTI_EXPONENT_SQUARE = VarietySpec.affine_space(
    2, {(2, k): 1 for k in range(1, 8)})
KLOOSTERMAN = VarietySpec.torus(1, {(1,): 1, (-1,): 1})
TORUS_LINEAR = VarietySpec.torus(1, {(1,): 1})
POINT_COMPLEMENT = VarietySpec.hypersurface_complement(0, {(): 2}, {(): 3}, 2)
AFFINE_LINEAR = VarietySpec.affine_space(1, {(1,): 1})


def brute_sum(base, m, dim, f, torus=False):
    """Third route: plain FqElem point loop with a Python callable."""
    tower = build_field(base.p, base.n * m)
    els = [x for x in tower.elements() if not (torus and x.is_zero())]
    acc = CyclotomicInt.zero(base.p)
    for point in itertools.product(els, repeat=dim):
        acc = acc + additive_character(base.p, trace_to_prime(f(*point)))
    return acc


# -- count_points ------------------------------------------------------------------

def test_count_points_examples():
    assert count_points(VarietySpec.affine_space(2, {}), F3, 1) == 9
    assert count_points(VarietySpec.torus(1, {}), build_field(2, 2), 1) == 3
    assert count_points(VarietySpec.sl2([1]), F2, 1) == 6
    assert count_points(VarietySpec.sl2([1]), F2, 8) == 2 ** 24 - 2 ** 8
    # complement of {x = 0} in A^1 is the torus
    vc = VarietySpec.hypersurface_complement(1, {(1,): 1}, {(1,): 1}, 0)
    assert count_points(vc, F5, 2) == 24


def test_count_points_rejects_bad_level():
    with pytest.raises(ValueError):
        count_points(AFFINE_LINEAR, F3, 0)


# -- sym_trace ----------------------------------------------------------------------

def test_sym_trace_examples():
    t = F5.from_int(3)
    s = sym_trace(t, 1)
    assert s[0] == F5.one() and s[1] == t
    # identity matrix over F_5: trace 2, dim Sym^2 = 3
    s = sym_trace(F5.from_int(2), 2)
    assert s[2] == F5.from_int(3)
    with pytest.raises(ValueError):
        sym_trace(t, -1)


def test_sym_trace_matches_matrix_powers():
    # independent route: for det-1 eigenvalues a, b the complete homogeneous
    # sums satisfy Tr(A^n) = s_n - s_(n-2), checkable from literal matrix
    # powers without eigenvalues
    p = 7
    ctx = build_field(p, 1)

    def matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(2)) % p
                 for j in range(2)] for i in range(2)]

    for a, b, c in itertools.product(range(p), repeat=3):
        if (-b * c) % p != 1:  # force det([[a, b], [c, 0]]) = 1
            continue
        A = [[a, b], [c, 0]]
        s = sym_trace(ctx.from_int(a), 4)
        An = A
        for n in (2, 3, 4):
            An = matmul(An, A)
            pn = ctx.from_int((An[0][0] + An[1][1]) % p)
            assert pn == s[n] - s[n - 2], (A, n)


# -- power sums ---------------------------------------------------------------------

def test_newton_degenerate_power_sums():
    for m in range(1, 5):
        assert power_sum(NEWTON_DEGENERATE, F3, m) == \
            CyclotomicInt.from_int(3, 3 ** m)


def test_trivial_power_sums():
    for m in (1, 2, 3):
        assert power_sum(AFFINE_LINEAR, F5, m).is_zero()
        assert power_sum(TORUS_LINEAR, F5, m) == CyclotomicInt.from_int(5, -1)


def test_sl2_trace_sum_over_f2():
    # six matrices: four with trace 0, two with trace 1
    assert power_sum(VarietySpec.sl2([1]), F2, 1) == \
        CyclotomicInt.from_int(2, 2)


def test_kloosterman_first_sum():
    # x + 1/x over F_5: values 2, 0, 0, 3 at x = 1..4
    assert power_sum(KLOOSTERMAN, F5, 1) == CyclotomicInt(5, [2, 0, 1, 1])


@pytest.mark.parametrize("v,base,m", [
    (NEWTON_DEGENERATE, F3, 1),
    (NEWTON_DEGENERATE, F3, 2),
    (NEWTON_DEGENERATE, F5, 1),
    (KLOOSTERMAN, F5, 1),
    (KLOOSTERMAN, F5, 2),
    (TORUS_LINEAR, build_field(2, 2), 1),
    (VarietySpec.sl2([1]), F2, 1),
    (VarietySpec.sl2([1]), F2, 2),
    (VarietySpec.sl2([1, 1]), F3, 1),
    (VarietySpec.hypersurface_complement(
        1, {(2,): 1}, {(1,): 1, (0,): -1}, 1), F3, 2),
    # a pole order past int64
    (VarietySpec.hypersurface_complement(
        1, {(1,): 1}, {(1,): 1, (0,): 1}, 10 ** 20 + 3), F5, 2),
    # a larger prime: 17 trace classes to count
    (VarietySpec.affine_space(2, {(2, 1): 1, (1, 0): 1}), build_field(17, 1),
     1),
    # exponents past int64 or near it, reduced mod q - 1 but kept positive
    # where they are, in dimensions 1 and 2 and in a complement's h; 2^64
    # is 0 mod 8, so x^(2^64) on F_9 is 1 but at x = 0
    (VarietySpec.affine_space(1, {(2 ** 62 + 1,): 1}), F5, 2),
    (VarietySpec.affine_space(1, {(3 ** 40,): 1, (1,): 2}), F5, 2),
    (VarietySpec.torus(1, {(3 ** 40,): 1, (-(2 ** 70),): 1}), F5, 2),
    (VarietySpec.affine_space(2, {(2 ** 64, 1): 1, (0, 3 ** 40): 2,
                                  (2 ** 62 + 1, 0): 1}), F3, 2),
    (VarietySpec.torus(2, {(3 ** 40, -(2 ** 63)): 1, (1, 2 ** 64 + 1): 1}),
     F3, 2),
    (VarietySpec.hypersurface_complement(
        2, {(1, 0): 1, (0, 1): 1}, {(2 ** 62 + 1, 0): 1, (0, 3 ** 40): 1},
        2), F3, 2),
    (VarietySpec.hypersurface_complement(
        1, {(3 ** 40,): 1}, {(2 ** 62 + 1,): 1, (0,): 1}, 3 ** 40), F5, 1),
    # F_9 coefficients, embedded by trace digits, on a torus and in both g
    # and h of a complement, whose h is decoded from its trace digits
    (VarietySpec.torus(1, {(1,): F9.element([1, 1]), (-1,): 1}), F9, 2),
    (VarietySpec.affine_space(2, {(2, 1): F9.element([0, 1]),
                                  (0, 1): F9.element([2, 1])}), F9, 1),
    (VarietySpec.hypersurface_complement(
        2, {(2, 1): F9.element([0, 1]), (1, 0): 1},
        {(1, 1): 1, (0, 0): F9.element([1, 1])}, 2), F9, 1),
    (VarietySpec.hypersurface_complement(
        1, {(1,): 1}, {(2,): F9.element([0, 2]), (0,): 1}, 1), F9, 2),
])
def test_fast_path_matches_naive(v, base, m):
    assert power_sum(v, base, m) == power_sum_naive(v, base, m)


@pytest.mark.parametrize("v,base,tower", [
    # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2 and F_3 but not the
    # lex-first modulus, and its root x has order 5, so x is no generator
    (VarietySpec.torus(1, {(1,): build_field(2, 2).element([0, 1]),
                           (-1,): 1}),
     build_field(2, 2), FieldCtx(2, 4, (1, 1, 1, 1, 1))),
    (VarietySpec.hypersurface_complement(
        1, {(1,): F9.element([1, 2])}, {(1,): 1, (0,): F9.element([0, 1])},
        2), F9, FieldCtx(3, 4, (1, 1, 1, 1, 1))),
], ids=["F4-in-F16", "F9-in-F81"])
def test_fast_path_matches_naive_in_another_tower(v, base, tower):
    # a base with n > 1 embeds through a root of its modulus in the tower
    assert power_sum(v, base, 2, tower=tower) == \
        power_sum_naive(v, base, 2, tower=tower)


HYPOTHESIS_BASES = [F2, F3, build_field(2, 2), F5]


@st.composite
def small_power_sum_cases(draw):
    """A random VarietySpec of any kind over F_2, F_3, F_4 or F_5 with a
    level m <= 2 small enough for power_sum_naive (SL2 only at q^m <= 5)."""
    base = draw(st.sampled_from(HYPOTHESIS_BASES))
    if base.n == 1:
        coef, unit = st.integers(-2, base.p), st.integers(1, base.p - 1)
    else:
        unit = st.integers(1, base.q - 1).map(base.element_at)
        coef = st.one_of(st.integers(0, base.p - 1), unit)
    kind = draw(st.sampled_from(["affine", "torus", "complement", "sl2"]))
    if kind == "sl2":
        m = draw(st.integers(1, 2 if base.q == 2 else 1))
        return VarietySpec.sl2(draw(st.lists(coef, min_size=1, max_size=3))), \
            base, m
    m = draw(st.integers(1, 2))
    size = base.q ** m
    dim = draw(st.integers(0, max(d for d in range(4) if size ** d <= 625)))
    lo = -2 if kind == "torus" else 0
    exps = st.tuples(*[st.integers(lo, 3)] * dim)
    f = draw(st.dictionaries(exps, coef, max_size=3))
    if kind == "affine":
        return VarietySpec.affine_space(dim, f), base, m
    if kind == "torus":
        return VarietySpec.torus(dim, f), base, m
    h = draw(st.dictionaries(exps, unit, min_size=1, max_size=2))
    return VarietySpec.hypersurface_complement(
        dim, f, h, draw(st.integers(0, 2))), base, m


@settings(max_examples=150, deadline=None)
@given(small_power_sum_cases())
def test_fast_path_matches_naive_on_random_varieties(case):
    v, base, m = case
    assert power_sum(v, base, m) == power_sum_naive(v, base, m)


# (base, dim, top level) where the first coordinate's Frobenius orbits
# reach sizes 3, 4 and 6, small enough for power_sum_naive at every level
ORBIT_LEVELS = [(F2, 1, 6), (F3, 1, 4), (build_field(2, 2), 1, 3),
                (F2, 2, 4)]


def true_point_count(v, base, m):
    """#X(k_m) without the fast path: a closed form, or on a complement the
    naive sum of 1 over its points."""
    if v.kind == "complement":
        ones = VarietySpec.hypersurface_complement(v.dim, {}, v.h, v.k)
        return power_sum_naive(ones, base, m).coords[0]
    return count_points(v, base, m)


def assert_levels_match_naive(v, base, M):
    seq = power_sum_table(v, base, M)[0]
    for m in range(1, M + 1):
        assert seq[m] == power_sum_naive(v, base, m)
        assert seq.progress[m - 1]["counted"] == true_point_count(v, base, m)


@st.composite
def orbit_size_cases(draw):
    """A random affine, torus or complement variety and a top level from
    ORBIT_LEVELS, with coefficients anywhere in the base field."""
    base, dim, top = draw(st.sampled_from(ORBIT_LEVELS))
    unit = st.integers(1, base.q - 1).map(base.element_at)
    kind = draw(st.sampled_from(["affine", "torus", "complement"]))
    lo = -2 if kind == "torus" else 0
    exps = st.tuples(*[st.integers(lo, 3)] * dim)
    f = draw(st.dictionaries(exps, unit, max_size=3))
    M = draw(st.integers(3, top))
    if kind == "affine":
        return VarietySpec.affine_space(dim, f), base, M
    if kind == "torus":
        return VarietySpec.torus(dim, f), base, M
    h = draw(st.dictionaries(exps, unit, min_size=1, max_size=2))
    return VarietySpec.hypersurface_complement(
        dim, f, h, draw(st.integers(0, 2))), base, M


@settings(max_examples=40, deadline=None)
@given(orbit_size_cases())
def test_fast_path_matches_naive_at_real_orbit_sizes(case):
    assert_levels_match_naive(*case)


@pytest.mark.parametrize("v,base,M", [
    (VarietySpec.affine_space(1, {(3,): 1, (1,): 1}), F2, 6),
    (VarietySpec.torus(1, {(1,): 1, (-1,): 1}), F3, 4),
    (VarietySpec.affine_space(2, {(2, 1): 1, (1, 0): 1}), F2, 4),
    (VarietySpec.hypersurface_complement(
        2, {(1, 0): 1, (0, 1): 1}, {(1, 1): 1, (0, 0): 1}, 1), F2, 4),
    (VarietySpec.sl2([1]), F2, 3),
    (VarietySpec.sl2([1, 1]), F2, 3),
])
def test_each_kind_matches_naive_at_real_orbit_sizes(v, base, M):
    assert_levels_match_naive(v, base, M)


@pytest.mark.parametrize("v,base,m", [
    pytest.param(VarietySpec.sl2([3, 0, 14, 1]), F7, 1, id="F7"),
    pytest.param(VarietySpec.sl2([1, 1, 1, 1]), F2, 3, id="F8-even-n"),
    pytest.param(VarietySpec.sl2([F9.element_at(4), 3, 1, F9.element_at(7)]),
                 F9, 1, id="F9-coefficients"),
])
def test_sl2_trace_sums_match_every_matrix(v, base, m):
    # every matrix of SL2(F_Q) against the line and torus of traces; 14 and
    # 3 are 0 mod p, and even n gives F and G constant terms
    assert power_sum(v, base, m) == power_sum_naive(v, base, m)


def test_fast_path_matches_callable_brute_force():
    got = power_sum(NEWTON_DEGENERATE, F3, 2)
    assert got == brute_sum(F3, 2, 2, lambda x, y: x * x * y - x)
    got = power_sum(KLOOSTERMAN, F5, 1)
    assert got == brute_sum(F5, 1, 1, lambda x: x + x.inverse(), torus=True)


def test_power_sum_table_examples():
    tab = power_sum_table(NEWTON_DEGENERATE, F3, 4)[0]
    assert [s.coords[0] for s in tab.values] == [3, 9, 27, 81]
    zero_f = VarietySpec.affine_space(1, {})
    tab = power_sum_table(zero_f, F3, 2)[0]
    assert [s.coords[0] for s in tab.values] == [3, 9]  # point counts
    tab = power_sum_table(TORUS_LINEAR, F3, 3)[0]
    assert [s.coords[0] for s in tab.values] == [-1, -1, -1]
    assert [p["m"] for p in tab.progress] == [1, 2, 3]


def test_constant_function_gives_point_counts():
    for v in (NEWTON_DEGENERATE, KLOOSTERMAN, VarietySpec.sl2([1])):
        zeroed = v.scaled(0) if v.kind == "sl2" else VarietySpec(
            v.kind, dim=v.dim, terms=())
        base = F2 if v.kind == "sl2" else F3
        for m in (1, 2):
            assert power_sum(zeroed, base, m) == CyclotomicInt.from_int(
                base.p, count_points(v, base, m))


def torus_strata(dim, terms) -> list:
    """The coordinate strata of A^dim, as tori with the terms restricted to
    each (see the expsum module docstring); the origin's is the last."""
    return [VarietySpec.torus(dim - sum(zero), {
        tuple(e for e, z in zip(exps, zero) if not z): c
        for exps, c in terms.items()
        if not any(e and z for e, z in zip(exps, zero))})
            for zero in itertools.product((False, True), repeat=dim)]


def sum_over(varieties, base, m):
    """The sum of the power sums of the varieties, one at a time."""
    acc = CyclotomicInt.zero(base.p)
    for v in varieties:
        acc = acc + power_sum(v, base, m)
    return acc


def test_affine_line_decomposes_as_origin_plus_torus():
    # A^n is the disjoint union over coordinate sets S of {x_i = 0, i in S}
    # x G_m^(n - |S|): on each stratum a term with a positive exponent in S
    # vanishes and every other term loses S's coordinates.  On the line
    # that is the torus plus the origin, whose G_m^0 sum is psi(m f(0))
    cases = [({(1,): 1}, F5, (1, 2)), ({(2,): 1, (1,): 3}, F5, (1, 2)),
             ({(3,): 2, (0,): 1}, F5, (1, 2)),
             ({(2, 1): 1, (1, 0): -1, (0, 0): 2}, F3, (1, 2)),
             ({(1, 1): 1, (0, 3): 2, (2, 0): 1, (0, 1): 1}, F5, (1, 2)),
             ({(1, 0, 1): 1, (0, 1, 2): 2, (2, 1, 0): 1, (0, 0, 1): 1,
               (0, 0, 0): 1}, F3, (1, 2)),
             ({(1, 1, 1): 2, (0, 2, 0): 1, (3, 0, 0): 1}, F2, (1, 2, 3))]
    for terms, base, levels in cases:
        dim = len(next(iter(terms)))
        strata = torus_strata(dim, terms)
        for m in levels:
            lhs = power_sum(VarietySpec.affine_space(dim, terms), base, m)
            assert lhs == sum_over(strata, base, m)
            if dim == 1:
                f0 = terms.get((0,), 0)
                assert power_sum(strata[-1], base, m) == additive_character(
                    base.p, m * f0)


@st.composite
def unread_coordinate_cases(draw):
    """A variety over F_2, F_3 or F_5 with coordinates that no term reads,
    or strata on which f restricts to the same terms, and a level small
    enough for power_sum_naive (but F_5^5, summed stratum by stratum only),
    as (v, base, m, f) with f the terms of an affine space, else None:
    - an affine space of dimension 2-5, each coordinate symmetric, free or
      unread, f the sum of c x_i^e over the symmetric ones plus up to two
      terms in the symmetric and free ones;
    - a torus of dimension 1-3 with one unread coordinate;
    - a complement of dimension 2 or 3 with a coordinate that neither g
      nor h reads;
    - SL2 with F = 0 mod p, a constant, so every stratum restricts to the
      same terms."""
    base = draw(st.sampled_from([F2, F3, F5]))
    q, p = base.q, base.p
    coef, unit = st.integers(-2, p), st.integers(1, p - 1)
    kind = draw(st.sampled_from(["affine", "torus", "complement", "sl2"]))
    if kind == "sl2":
        coeffs = draw(st.lists(st.sampled_from([0, p, 2 * p]), min_size=1,
                               max_size=3))
        return VarietySpec.sl2(coeffs), base, 1 if q > 2 else 2, None
    dim = draw(st.integers(*{"affine": (2, 5), "torus": (1, 3),
                             "complement": (2, 3)}[kind]))
    if kind == "affine":
        roles = draw(st.lists(st.sampled_from("sfu"), min_size=dim,
                              max_size=dim))
    else:
        roles = ["f"] * dim
        roles[draw(st.integers(0, dim - 1))] = "u"
    low = -2 if kind == "torus" else 0
    read = st.tuples(*[st.just(0) if r == "u" else st.integers(low, 3)
                       for r in roles])
    if kind == "complement":
        g = draw(st.dictionaries(read, coef, max_size=3))
        h = draw(st.dictionaries(read, unit, min_size=1, max_size=2))
        v = VarietySpec.hypersurface_complement(dim, g, h,
                                                draw(st.integers(0, 2)))
        return v, base, 1 if q ** dim > 64 else 2, None
    c, e = draw(unit), draw(st.integers(1, 3))
    f = {tuple(e * (j == i) for j in range(dim)): c
         for i, r in enumerate(roles) if r == "s"}
    f.update(draw(st.dictionaries(read, coef, max_size=2)))
    if kind == "torus":
        m = draw(st.integers(1, 2 if (q * q - 1) ** dim <= 1024 else 1))
        return VarietySpec.torus(dim, f), base, m, None
    m = draw(st.integers(1, 2 if q ** (2 * dim) <= 1024 else 1))
    return VarietySpec.affine_space(dim, f), base, m, f


@settings(max_examples=40, deadline=None)
@given(unread_coordinate_cases())
def test_unread_coordinates_and_shared_strata_match_naive(case):
    # an unread coordinate is a weight of N points, and strata on which f
    # (and h) restrict to the same terms are summed once, in one grid
    v, base, m, f = case
    got = power_sum(v, base, m)
    if f is not None:
        assert got == sum_over(torus_strata(v.dim, f), base, m)
    if base.q ** (m * v.dim) <= 1024:
        assert got == power_sum_naive(v, base, m)


@pytest.mark.parametrize("v,base,m,count", [
    pytest.param(NEWTON_DEGENERATE, F5, 6, 0, id="plane"),
    pytest.param(SQUARE_PLANE, F5, 6, 4, id="square-plane"),
    pytest.param(MULTI_EXPONENT, F5, 2, 1, id="multi"),
    pytest.param(VarietySpec.affine_space(3, _arrangement_terms("a3")), F3,
                 2, 2, id="a3-arrangement"),
    pytest.param(VarietySpec.affine_space(5, {(1,) * 5: 1,
                                              (1, 0, 0, 0, 0): 1}),
                 F3, 1, 0, id="x1x2x3x4x5+x1"),
    pytest.param(VarietySpec.affine_space(5, {
        tuple(2 * (j == i) for j in range(5)): 1 for i in range(5)}),
                 F3, 1, 0, id="sum-of-squares"),
])
def test_equal_strata_are_summed_once(monkeypatch, v, base, m, count):
    # the plane, a3, x1 x2 x3 x4 x5 + x1 and the sum of squares took 7, 12,
    # 32 and 32 grids when every stratum had its own, and a torus of
    # dimension 1 one grid per orbit size: the strata on which f
    # restricts to the same terms, after its unread coordinates are
    # dropped, are one run of codes in dimension 1 and one grid per orbit
    # size from 2 on, and a point of a torus is no grid.  The plane and
    # x1 x2 x3 x4 x5 + x1 are summed out to points, and x^2 = 1 on F_3^*
    # makes every stratum of the sum of squares a point, so they reach no
    # grid at all
    grids, counts = es._grids, []

    def spied(*args):
        out = grids(*args)
        counts.append(len(out))
        return out

    monkeypatch.setattr(es, "_grids", spied)
    want = power_sum_naive(v, base, m) if base.q ** (m * v.dim) <= 729 \
        else None
    got = power_sum(v, base, m)
    assert counts == ([count] if count else []) and want in (None, got)


@pytest.mark.parametrize("v,base,levels_made,orbit_levels_made", [
    pytest.param(VarietySpec.sl2([1, 2]), F3, [1, 2, 3], [], id="sl2"),
    pytest.param(VarietySpec.hypersurface_complement(
        2, {(2, 1): 1, (0, 1): 2, (1, 0): 1}, {(1, 1): 1, (0, 0): 1}, 2),
                 F3, [1, 2, 3], [1, 2, 3], id="dim2-complement"),
    pytest.param(NEWTON_DEGENERATE, F3, [], [], id="plane"),
    pytest.param(MULTI_EXPONENT, F5, [1, 2, 3], [], id="multi"),
    pytest.param(SQUARE_PLANE, F5, [1, 2, 3], [1, 2, 3], id="square-plane"),
    pytest.param(KLOOSTERMAN, F5, [1, 2, 3], [], id="kloosterman"),
    pytest.param(VarietySpec.torus(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1}),
                 F3, [1, 2, 3], [1, 2, 3], id="x+y+1/(xy)"),
])
def test_every_grid_is_a_torus(monkeypatch, v, base, levels_made,
                               orbit_levels_made):
    # affine space, complements and SL2's line of traces are summed over
    # their coordinate strata: no orbit representative is the zero code,
    # every further coordinate runs over the codes below N, a grid of
    # dimension 1 is a run of codes with no representatives, and one set
    # of Frobenius orbits serves every stratum of dimension >= 2 of a level.
    # So Kloosterman's torus, the multi job's once x is summed out and
    # SL2's line and torus of traces make no orbits, and x + y + 1/(xy)
    # and x^2 y^2 - x, linear in neither coordinate of their torus, make
    # them once per level; the plane is summed out to points before any
    # grid is made
    grids, orbits = es._grids, es._frobenius_orbits
    levels, orbit_levels = [], []

    def spied_grids(T, *args):
        out = grids(T, *args)
        levels.append(T.n)
        for reps, dim, *_ in out:
            assert (reps is None) == (dim < 2)
            assert dim < 2 or not np.any(reps == T.zero_code)
        return out

    def spied_orbits(n, q, m):
        orbit_levels.append(m)
        return orbits(n, q, m)

    monkeypatch.setattr(es, "_grids", spied_grids)
    monkeypatch.setattr(es, "_frobenius_orbits", spied_orbits)
    seq = power_sum_table(v, base, 3)[0]
    assert levels == levels_made and orbit_levels == orbit_levels_made
    assert seq.values[:2] == tuple(power_sum_naive(v, base, m)
                                   for m in (1, 2))


@st.composite
def planted_linear_cases(draw):
    """A random affine or torus variety of dimension 1-3 over F_2, F_3, F_5
    or F_9 with f = A y^s + B planted in a random coordinate y, s = 1, or
    on a torus 1 or -1, A zero, a nonzero constant, a monomial or a sum of
    two or three terms, a level small enough for power_sum_naive, and a
    scale c != 0."""
    base = draw(st.sampled_from([F2, F3, F5, F9]))
    if base.n == 1:
        coef, unit = st.integers(-2, base.p), st.integers(1, base.p - 1)
    else:
        unit = st.integers(1, base.q - 1).map(base.element_at)
        coef = st.one_of(st.integers(0, base.p - 1), unit)
    m = draw(st.integers(1, 3 if base.q == 2 else 2 if base.q < 9 else 1))
    size = base.q ** m
    dim = draw(st.integers(1, max(d for d in (1, 2, 3) if size ** d <= 343)))
    torus = draw(st.booleans())
    y = draw(st.integers(0, dim - 1))
    s = draw(st.sampled_from([1, -1] if torus else [1]))
    other = st.tuples(*[st.integers(-2 if torus else 0, 3)] * (dim - 1))
    shape = draw(st.sampled_from(["zero", "constant", "monomial", "sum"]))
    a = {"zero": st.just({}),
         "constant": unit.map(lambda c: {(0,) * (dim - 1): c}),
         "monomial": st.dictionaries(other, unit, min_size=1, max_size=1),
         "sum": st.dictionaries(other, unit, min_size=2, max_size=3),
         }[shape]
    f = {e[:y] + (s,) + e[y:]: c for e, c in draw(a).items()}
    f.update({e[:y] + (0,) + e[y:]: c for e, c in
              draw(st.dictionaries(other, coef, max_size=3)).items()})
    v = (VarietySpec.torus if torus else VarietySpec.affine_space)(dim, f)
    return v, base, m, draw(unit)


def assert_summed_out_matches(v, base, m, c):
    """The sums of f and c f with the linear coordinates summed out match
    power_sum_naive, and their trace histograms match those of the grids
    with every coordinate enumerated, class by class: no coordinate summed
    out before the grids, and none in them."""
    got = es._histograms(v, base, m, scales=(1, c))
    for counts, scale in zip(got, (1, c)):
        assert CyclotomicInt.from_poly(base.p, counts) == \
            power_sum_naive(v.scaled(scale), base, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(es, "_linear_coordinate", lambda f, h, dim: None)
        assert es._histograms(v, base, m, scales=(1, c)) == got


@settings(max_examples=150, deadline=None)
@given(planted_linear_cases())
def test_summed_out_coordinate_matches_naive(case):
    assert_summed_out_matches(*case)


@pytest.mark.parametrize("v,base,m", [
    # A = y + ... + y^7 vanishes at the 7th roots of unity but 1, which
    # lie in F_8 and not in F_16
    pytest.param(VarietySpec.torus(2, {(1, k): 1 for k in range(1, 8)}), F2,
                 3, id="seventh-roots-F8"),
    pytest.param(VarietySpec.torus(2, {(1, k): 1 for k in range(1, 8)}), F2,
                 4, id="seventh-roots-F16"),
    # A = x + 1 vanishes at x = -1; negative exponents beside it
    pytest.param(VarietySpec.torus(3, {(1, 1, 0): 1, (0, 1, 0): 1,
                                       (-2, 0, 1): 2, (1, 0, -1): 1}),
                 F3, 1, id="torus-dim3"),
    pytest.param(VarietySpec.affine_space(2, {(1, 1): 1, (0, 1): 1,
                                              (2, 0): 1}), F3, 2,
                 id="affine-x-plus-1"),
    # A = a x^2 + 1 in F_9, zero where x^2 = -1/a
    pytest.param(VarietySpec.torus(2, {(2, 1): F9.element([0, 1]),
                                       (0, 1): 1, (-1, 0): 1}), F9, 1,
                 id="torus-F9"),
])
def test_summed_out_coordinate_matches_naive_where_a_vanishes(v, base, m):
    assert_summed_out_matches(v, base, m, base.element_at(base.q - 1))


@st.composite
def planted_chain_cases(draw):
    """An affine or torus variety of dimension 1-4 over F_2, F_3, F_5 or
    F_9, a level and a scale c != 0, with f = c_1 y_1^s_1 M_1 + ... +
    c_k y_k^s_k M_k + B planted on k of its coordinates: s_i is 1, or on a
    torus 1 or -1, M_i a monomial in y_(i+1)..y_k and the free coordinates,
    and B any terms in the free ones, a constant among them.  So y_1 is a
    monomial coordinate, y_2 one once y_1 is summed out, and so on; the
    coordinates left are free, or read by no term."""
    base = draw(st.sampled_from([F2, F3, F5, F9]))
    if base.n == 1:
        coef, unit = st.integers(-2, base.p), st.integers(1, base.p - 1)
    else:
        unit = st.integers(1, base.q - 1).map(base.element_at)
        coef = st.one_of(st.integers(0, base.p - 1), unit)
    m = draw(st.integers(1, {2: 3, 3: 2, 5: 2, 9: 1}[base.q]))
    size = base.q ** m
    dim = draw(st.integers(1, max(d for d in (1, 2, 3, 4)
                                  if size ** d <= 5 ** 6)))
    torus = draw(st.booleans())
    order = draw(st.permutations(range(dim)))
    k = draw(st.integers(1, dim))
    chain, rest = order[:k], order[k:]
    free = [j for j in rest if draw(st.booleans())]   # the others unread
    power = st.integers(-2 if torus else 0, 3)

    def monomial(coordinates):
        exps = [0] * dim
        for j in coordinates:
            exps[j] = draw(power)
        return exps

    f = {}
    for i, y in enumerate(chain):
        exps = monomial(chain[i + 1:] + free)
        exps[y] = draw(st.sampled_from([1, -1] if torus else [1]))
        f[tuple(exps)] = draw(unit)
    for _ in range(draw(st.integers(0, 3))):
        f[tuple(monomial(free))] = draw(coef)
    v = (VarietySpec.torus if torus else VarietySpec.affine_space)(dim, f)
    return v, base, m, draw(unit)


@settings(max_examples=150, deadline=None)
@given(planted_chain_cases())
def test_monomial_chains_match_naive_and_the_enumeration(case):
    # each monomial coordinate is summed out before any table: the sums of
    # f and c f match power_sum_naive where it is small enough, and their
    # histograms those with no coordinate summed out, class by class
    v, base, m, c = case
    got = es._histograms(v, base, m, scales=(1, c))
    if base.q ** (m * v.dim) <= 625:
        for counts, scale in zip(got, (1, c)):
            assert CyclotomicInt.from_poly(base.p, counts) == \
                power_sum_naive(v.scaled(scale), base, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(es, "_linear_coordinate", lambda f, h, dim: None)
        assert es._histograms(v, base, m, scales=(1, c)) == got


@st.composite
def one_term_h_cases(draw):
    """A complement of dimension 0-3 over F_2, F_3, F_5 or F_9, a level
    small enough for power_sum_naive and a scale c != 0, whose h restricts
    to one term on some strata or all: h a nonzero constant, a monomial,
    or two monomials, one term on the strata where a coordinate that only
    one of them reads is 0; k in {0, 1, 2} and g any terms."""
    base = draw(st.sampled_from([F2, F3, F5, F9]))
    if base.n == 1:
        coef, unit = st.integers(-2, base.p), st.integers(1, base.p - 1)
    else:
        unit = st.integers(1, base.q - 1).map(base.element_at)
        coef = st.one_of(st.integers(0, base.p - 1), unit)
    m = draw(st.integers(1, {2: 3, 3: 2, 5: 1, 9: 1}[base.q]))
    size = base.q ** m
    dim = draw(st.integers(0, max(d for d in (0, 1, 2, 3)
                                  if size ** d <= 343)))
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    shape = draw(st.sampled_from(["constant", "monomial", "two"]))
    h = {"constant": unit.map(lambda c: {(0,) * dim: c}),
         "monomial": st.dictionaries(exps, unit, min_size=1, max_size=1),
         "two": st.dictionaries(exps, unit, min_size=2, max_size=2),
         }[shape if dim else "constant"]
    v = VarietySpec.hypersurface_complement(
        dim, draw(st.dictionaries(exps, coef, max_size=3)), draw(h),
        draw(st.integers(0, 2)))
    return v, base, m, draw(unit)


def constants_only(as_torus):
    """_as_torus that keeps a complement whose h is one term reading a
    coordinate, to be enumerated with h's code decoded (T.log)."""
    return lambda f, h, base, n: (f, h) if h and any(h[0][1]) \
        else as_torus(f, h, base, n)


@settings(max_examples=100, deadline=None)
@given(one_term_h_cases())
def test_one_term_h_makes_a_torus(case):
    # where h restricts to one term c x^a, which never vanishes on the
    # torus, g / h^k is a torus's f before any table: the sums of f and
    # c f match power_sum_naive, and their histograms, class by class,
    # those with each such stratum that reads a coordinate enumerated as
    # a complement; no grid is a point
    v, base, m, c = case
    grids, dims = es._grids, []

    def spied(*args):
        out = grids(*args)
        dims.extend(dim for _, dim, *_ in out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(es, "_grids", spied)
        got = es._histograms(v, base, m, scales=(1, c))
    assert all(dims)
    for counts, scale in zip(got, (1, c)):
        assert CyclotomicInt.from_poly(base.p, counts) == \
            power_sum_naive(v.scaled(scale), base, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(es, "_as_torus", constants_only(es._as_torus))
        assert es._histograms(v, base, m, scales=(1, c)) == got


@pytest.mark.parametrize("v,base,m,made", [
    # h = xy, so the lines x = 0 and y = 0 are not on X, and on the torus
    # f = (x^2 y + 2y + x) / (xy)^2 = 1/y + 2/(x^2 y) + 1/(x y^2), which
    # reads both coordinates as two powers: one 2-D grid
    pytest.param(VarietySpec.hypersurface_complement(
        2, {(2, 1): 1, (0, 1): 2, (1, 0): 1}, {(1, 1): 1}, 2), F5, 2, [2],
        id="h-xy"),
    # h = 3 x y^2 over F_5: f = (x + y^3) / (3 x y^2) = 2/y^2 + 2y/x, x
    # summed out, and 2/y^2 left as one run of y's codes
    pytest.param(VarietySpec.hypersurface_complement(
        2, {(1, 0): 1, (0, 3): 1}, {(1, 2): 3}, 1), F5, 2, [1],
        id="h-3xy^2"),
    # h = y over F_4: on the torus f = a x^2 + 1/y, y summed out; on the
    # line x = 0, f = 1/y is summed out to a point
    pytest.param(VarietySpec.hypersurface_complement(
        2, {(2, 1): F4.element([0, 1]), (0, 0): 1}, {(0, 1): 1}, 1), F4, 2,
        [1], id="h-y-F4"),
    pytest.param(POINT_COMPLEMENT, F5, 2, [], id="h-constant"),
    # h = x + y is two terms on the torus, whose grid decodes h's code, and
    # one on each line, where f = 2/y and 2/x are summed out to points
    pytest.param(VarietySpec.hypersurface_complement(
        2, {(1, 1): 1, (0, 0): 2}, {(1, 0): 1, (0, 1): 1}, 1), F3, 2, [2],
        id="h-x+y"),
])
def test_a_one_term_h_reaches_no_point_grid_and_no_log(monkeypatch, v, base,
                                                      m, made):
    # a complement's strata where h is one term are tori: no grid of
    # dimension 0 is made, and h's code is decoded (T.log built) only on
    # a stratum where h has two terms or more
    grids, dims = es._grids, []

    def spied(*args):
        out = grids(*args)
        dims.extend(dim for _, dim, *_ in out)
        return out

    monkeypatch.setattr(es, "_grids", spied)
    tables._tables.cache_clear()
    assert power_sum(v, base, m) == power_sum_naive(v, base, m)
    assert sorted(set(dims)) == made
    logs = "log" in vars(es.get_tables(base.p, base.n * m))
    assert logs == (len(v.h) > 1)


def test_plane_builds_no_table(monkeypatch):
    # x^2 y - x over F_5 through level 6: on the torus y is a monomial
    # coordinate with A = x^2, and then x one with A = -1; the line y = 0
    # is -x, and on x = 0 f reads nothing, so every stratum is summed out
    # to a point before F_(5^m) has a table, orbits or grids
    def refuse(*args):
        raise AssertionError("the plane reached a table, orbits or grids")

    for name in ("get_tables", "_frobenius_orbits", "_grids"):
        monkeypatch.setattr(es, name, refuse)
    seq = power_sum_table(NEWTON_DEGENERATE, F5, 6)[0]
    assert seq.values == tuple(CyclotomicInt.from_int(5, 5 ** m)
                               for m in range(1, 7))
    assert [pr["counted"] for pr in seq.progress] == \
        [5 ** (2 * m) for m in range(1, 7)]


def test_a_monomial_coordinate_leaves_one_grid(monkeypatch):
    # x^2 y + x^3 on G_m^2: y is summed out with A = x^2, leaving x^3 on
    # G_m at weight -1, one run of x's codes from level 2 on; on F_5^*
    # x^3 is x^-1, a monomial coordinate itself, so level 1 has no grid
    v = VarietySpec.torus(2, {(2, 1): 1, (3, 0): 1})
    grids, made = es._grids, []

    def spied(*args):
        out = grids(*args)
        made.append([(dim, weight) for _, dim, weight, *_ in out])
        return out

    monkeypatch.setattr(es, "_grids", spied)
    seq = power_sum_table(v, F5, 6)[0]
    assert made == [[(1, -1)]] * 5
    assert seq.values[:2] == tuple(power_sum_naive(v, F5, m)
                                   for m in (1, 2))


@pytest.mark.parametrize("v,base,largest,summed_out", [
    pytest.param(NEWTON_DEGENERATE, F5, [], 0, id="plane"),
    pytest.param(MULTI_EXPONENT, F5, [1], 1, id="multi"),
    pytest.param(SQUARE_PLANE, F5, [2], 0, id="square-plane"),
    pytest.param(VarietySpec.hypersurface_complement(
        2, {(2, 1): 1, (0, 1): 2, (1, 0): 1}, {(1, 1): 1, (0, 0): 1}, 2),
                 F3, [2], 0, id="dim2-complement"),
])
def test_linear_coordinates_are_summed_out(monkeypatch, v, base, largest,
                                           summed_out):
    # the plane's torus, where f = x^2 y - x, and its line y = 0 are summed
    # out over their monomial coordinates, and on the line x = 0 f reads no
    # coordinate, so the plane leaves points alone: no grid, and no window
    # read.  On the multi job's torus f = x (y + ... + y^7) is linear in x
    # with an A of seven terms, so x is summed out over a grid of y's codes
    # read in windows.  x^2 y^2 - x keeps its torus in the 2-D window kernel
    # (its line y = 0, -x, is summed out before any grid), as a complement
    # keeps every stratum
    grids, linear, windows = es._grids, es._linear_sum, es._strided_windows
    dims, calls, steps = [], [], []

    def spied_grids(*args):
        out = grids(*args)
        dims.append(max(dim for _, dim, *_ in out))
        return out

    def spied_linear(*args):
        calls.append(args)
        return linear(*args)

    def spied_windows(table, n, e, width):
        steps.append(e)
        return windows(table, n, e, width)

    monkeypatch.setattr(es, "_grids", spied_grids)
    monkeypatch.setattr(es, "_linear_sum", spied_linear)
    monkeypatch.setattr(es, "_strided_windows", spied_windows)
    assert power_sum(v, base, 2) == power_sum_naive(v, base, 2)
    assert dims == largest and len(calls) == summed_out
    assert bool(steps) == bool(largest)


def test_galois_equivariance():
    for v, base in ((NEWTON_DEGENERATE, F3), (KLOOSTERMAN, F5)):
        s1 = power_sum(v, base, 1)
        for u in range(2, base.p):
            assert power_sum(v.scaled(u), base, 1) == galois_twist(s1, u)


def _size_checked(evaluate, sizes, n):
    def checked(coords, run):
        shape = np.broadcast_shapes((1,), *(x.shape for x in coords))
        if run is not None:   # every row of the run is codes below n
            start = np.asarray(run.start)
            assert run.width >= 1 and 0 <= start.min()
            assert start.max() + run.width <= n
            shape = np.broadcast_shapes(shape, start.shape, (1, run.width))
        npts = math.prod(shape)
        assert npts <= es._BLOCK
        sizes.append(npts)
        return evaluate(coords, run)
    return checked


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("v,base,m", [
    # x is summed out over runs of y's codes, A = y + ... + y^7 decoded from
    # its trace digits block by block
    pytest.param(MULTI_EXPONENT, F3, 3, id="multi"),
    pytest.param(KLOOSTERMAN, F5, 2, id="kloosterman"),
    # h = 3 is one term: the complement is a torus point, summed in F_5
    # with no grid to partition
    pytest.param(POINT_COMPLEMENT, F5, 2, id="dim0-complement"),
    # h's code is one more coordinate of every term, split with the block
    pytest.param(VarietySpec.hypersurface_complement(
        2, {(2, 1): 1, (0, 1): 2, (1, 0): 1}, {(1, 1): 1, (0, 0): 1}, 2),
                 F3, 2, id="dim2-complement"),
    pytest.param(VarietySpec.sl2([1]), F2, 2, id="sl2"),
    pytest.param(VarietySpec.torus(2, {(1, 1): 1, (2, -1): 2, (0, 1): 1,
                                       (1, 0): 1}), F3, 2, id="torus-dim2"),
    # y is summed out, and z^16 is z^8 on F_9^*: A's term z^16 reads
    # windows 8 apart, so the blocks are 2 wide, the most that fit in the
    # doubled trace table
    pytest.param(VarietySpec.affine_space(3, {(1, 0, 1): 1, (0, 1, 2): 2,
                                              (2, 1, 0): 1, (0, 0, 1): 1,
                                              (0, 1, 16): 1}),
                 F3, 2, id="affine-dim3"),
    # rows read backwards, 3 apart, in blocks 8 // 3 + 1 = 3 wide
    pytest.param(VarietySpec.torus(2, {(1, -3): 1, (2, 1): 2, (0, -1): 1}),
                 F3, 2, id="torus-last-exponent-minus-3"),
])
def test_determinism_under_partitioning(monkeypatch, v, base, m, threads):
    # blocks of at most 7 points split the last coordinate of every grid,
    # so its runs of codes start past 0; a point is no grid
    want = power_sum_naive(v, base, m)
    grids, sizes, grid_points = es._grids, [], []

    def spied(T, *args):
        out = grids(T, *args)
        n = T.group_order
        grid_points.extend(len(reps) * n ** (dim - 1) if dim > 1
                           else n ** dim for reps, dim, *_ in out)
        return [(reps, dim, weight, _size_checked(evaluate, sizes, n), width)
                for reps, dim, weight, evaluate, width in out]

    monkeypatch.setattr(es, "_BLOCK", 7)
    monkeypatch.setattr(es, "_grids", spied)
    assert power_sum(v, base, m, threads=threads) == want
    assert sum(sizes) == sum(grid_points)
    assert bool(sizes) == (v is not POINT_COMPLEMENT)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("v,base,m", [
    # runs 24 // 5 + 1 = 5 codes wide, read forwards 3 apart and backwards
    # 5 apart, beside a constant term
    pytest.param(VarietySpec.torus(1, {(3,): 1, (-5,): 2, (0,): 3}), F5, 2,
                 id="torus-F25"),
    pytest.param(VarietySpec.torus(1, {(-3,): F4.element([0, 1]), (2,): 1,
                                       (0,): F4.element([1, 1])}), F4, 2,
                 id="torus-F16"),
    # h's windows set the width, 24 // 4 + 1 = 7, and g reads the run's
    # codes beside h's
    pytest.param(VarietySpec.hypersurface_complement(
        1, {(3,): 1, (0,): 2}, {(4,): 1, (1,): 1, (0,): 1}, 2), F5, 2,
                 id="complement-F25"),
    pytest.param(VarietySpec.hypersurface_complement(
        1, {(2,): F9.element([0, 1]), (0,): 1},
        {(2,): 1, (0,): F9.element([1, 1])}, 1), F9, 1, id="complement-F9"),
])
def test_one_coordinate_runs_match_naive(monkeypatch, v, base, m, threads):
    # a grid of dimension 1 is one run of the N codes, cut into rows no
    # wider than N // max|e| + 1 and _BLOCK, each a window from its start;
    # the blocks' rows tile the run, on one thread or two
    want = power_sum_naive(v, base, m)
    grids, runs = es._grids, {}

    def spied(T, *args):
        out = grids(T, *args)
        for reps, dim, weight, evaluate, width in out:
            if dim == 1:
                runs[evaluate] = T.group_order, width, []
        return [(reps, dim, weight, recorded(evaluate), width)
                for reps, dim, weight, evaluate, width in out]

    def recorded(evaluate):
        def checked(coords, run):
            if evaluate in runs:
                assert coords == []
                runs[evaluate][2].append(run)
            return evaluate(coords, run)
        return checked

    monkeypatch.setattr(es, "_BLOCK", 8)
    monkeypatch.setattr(es, "_grids", spied)
    monkeypatch.setattr(es.os, "cpu_count", lambda: 2)
    assert power_sum(v, base, m, threads=threads) == want
    assert runs
    for n, width, blocks in runs.values():
        assert len(blocks) >= 2
        assert all(run.width <= min(width, 8) for run in blocks)
        codes = [np.ravel(run.start + np.arange(run.width)) for run in blocks]
        assert all(c.size <= 8 for c in codes)
        assert sorted(np.concatenate(codes)) == list(range(n))


@pytest.mark.parametrize("threads", [1, 2])
def test_one_coordinate_blocks_are_full_whatever_the_exponent(monkeypatch,
                                                              threads):
    # x^N = 1 on the torus is a constant, and x^-50 caps the rows at
    # N // 50 + 1 = 3 codes, yet a block is _BLOCK // 3 such rows: about
    # N / _BLOCK blocks, as for x, and the codes past the whole rows one more
    v = VarietySpec.torus(1, {(5 ** 3 - 1,): 1, (1,): 2, (-50,): 1})
    want = power_sum_naive(v, F5, 3)
    coords, sizes = es._grid_coords, []

    def spied(reps, dim, n, block):
        out = coords(reps, dim, n, block)
        sizes.append(np.size(out[1].start) * out[1].width)
        return out

    monkeypatch.setattr(es, "_BLOCK", 9)
    monkeypatch.setattr(es, "_grid_coords", spied)
    monkeypatch.setattr(es.os, "cpu_count", lambda: 2)
    assert power_sum(v, F5, 3, threads=threads) == want
    assert sorted(sizes, reverse=True) == [9] * (123 // 9) + [6, 1]
    monkeypatch.undo()
    # at full size too: x^(5^11 - 1) + x at level 11 is 47 blocks, not
    # one per pair of codes
    for n in (5 ** 8 - 1, 5 ** 11 - 1):
        blocks = list(es._grid_blocks(None, 1, n, 2))
        assert len(blocks) == -(-n // es._BLOCK)
        assert sum((o1 - o0) * (i1 - i0) for o0, o1, i0, i1 in blocks) == n


@pytest.mark.parametrize("kind", ["torus", "affine"])
@pytest.mark.parametrize("base,m", [(build_field(5, 2), 1),
                                    (build_field(5, 2), 2),
                                    (build_field(5, 3), 1)],
                         ids=["F25", "F25-level-2", "F125"])
def test_exponents_near_the_group_order_match_naive(monkeypatch, kind, base,
                                                    m):
    # on a torus coordinate only e mod N matters, N = Q - 1: x^N is the
    # constant 1, so 1 + 2x is summed out before any grid, x^(N - 1) is
    # x^-1, a run read backwards N wide, and x^(N/2 + 1) the widest exponent
    # left, read 3 codes wide; where x = 0 the positive exponents still make
    # every such term vanish, and that point is no grid
    n = base.q ** m - 1
    widths = []
    grids = es._grids

    def spied(*args):
        out = grids(*args)
        widths.extend(width for *_, width in out)
        return out

    monkeypatch.setattr(es, "_grids", spied)
    for e, made in ((n - 1, [n + 1]), (n, []), (n // 2 + 1, [3])):
        terms = {(e,): 1, (1,): 2}
        v = VarietySpec.torus(1, terms) if kind == "torus" \
            else VarietySpec.affine_space(1, terms)
        widths.clear()
        assert power_sum(v, base, m) == power_sum_naive(v, base, m)
        assert widths == made


def test_narrow_rows_match_naive():
    # a last exponent near N/2 leaves rows 3 codes wide, more rows than
    # codes per row, in dimension 1 and in a 2-D grid: each term reads them
    # by one gather of the windows, as it reads wide rows
    n = 5 ** 2 - 1
    for v in (VarietySpec.torus(1, {(n // 2 + 1,): 1, (1,): 2}),
              VarietySpec.torus(2, {(1, n // 2 + 1): 1, (0, 1): 2,
                                    (2, 0): 1})):
        assert power_sum(v, F5, 2) == power_sum_naive(v, F5, 2)


@pytest.mark.parametrize("cores,threads,pools_made", [
    (2, 64, [2]), (1, 64, []), (None, 64, []), (64, 3, [3])])
def test_thread_pool_is_capped_at_cpu_count(monkeypatch, cores, threads,
                                            pools_made):
    pools = []

    class RecordingExecutor:   # runs the blocks in this thread
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    want = power_sum_naive(KLOOSTERMAN, F5, 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(es, "_BLOCK", 7)   # four blocks at level 2
    monkeypatch.setattr(es.os, "cpu_count", lambda: cores)
    assert power_sum(KLOOSTERMAN, F5, 2, threads=threads) == want
    assert pools == pools_made


def test_scratch_is_per_thread():
    scratch = es._Scratch()
    keys = scratch("keys", (3, 4), np.uint8)
    assert np.shares_memory(keys, scratch("keys", (12,), bool))
    assert not np.shares_memory(keys, scratch("temp", (3, 4), np.uint8))
    other = []
    worker = threading.Thread(
        target=lambda: other.append(scratch("keys", (3, 4), np.uint8)))
    worker.start()
    worker.join()
    assert not np.shares_memory(keys, other[0])


def test_real_threads_at_the_real_block_size(monkeypatch):
    # a pool of two threads, each with its own block buffers, counts what
    # one thread counts; y is summed out, so the blocks are of x alone
    monkeypatch.setattr(es.os, "cpu_count", lambda: 2)
    one = power_sum(NEWTON_DEGENERATE, F5, 6, threads=1)
    assert power_sum(NEWTON_DEGENERATE, F5, 6, threads=2) == one
    assert one == CyclotomicInt.from_int(5, 5 ** 6)


def test_window_kernel_real_threads_at_the_real_block_size(monkeypatch):
    # the same over the window kernel's 2^20-point blocks of SQUARE_PLANE
    monkeypatch.setattr(es.os, "cpu_count", lambda: 2)
    one = power_sum(SQUARE_PLANE, F5, 6, threads=1)
    assert power_sum(SQUARE_PLANE, F5, 6, threads=2) == one
    assert one == CyclotomicInt.from_int(5, 15750)


def test_sl2_level_memory_is_bounded():
    # one SL2 level over F_2^8, tables prebuilt: the sum runs over a line
    # of 256 traces and a torus of 255 eigenvalues (15 KiB measured), where
    # a grid of 2^24 matrices in 2^20-point blocks took 22 MiB; the bound
    # is the one that grid was held to
    es.get_tables(build_field(2, 8))
    tracemalloc.start()
    try:
        got = power_sum(VarietySpec.sl2([1]), F2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == CyclotomicInt.from_int(2, 7936)
    assert peak <= 28 << 20


def test_sl2_terms_are_accumulated_as_they_are_made():
    # N = 1,000 coefficients: F's terms and G's 1,999 are summed by exponent
    # as each is made (~N^2/2 and ~N^2/4 tuples merged at the end peaked
    # at 148 MB traced), s_n is kept mod p, and G's coefficient of r^(+-e)
    # is the sum of a_n over n >= e, n = e mod 2
    coeffs = [n % 5 for n in range(1, 1001)]
    tracemalloc.start()
    try:
        f, g = es._sl2_terms(coeffs, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 10 ** 6
    assert len(g) == 1999
    for c, (e,) in g:
        assert c == sum(coeffs[n - 1] for n in range(max(abs(e), 1), 1001)
                        if n % 2 == e % 2)
    # F mod 5 against s_n as integer polynomials, s_n = t s_(n-1) - s_(n-2)
    want, s_prev, s = {}, [1], [0, 1]
    for a in coeffs:
        for k, c in enumerate(s):
            want[k] = want.get(k, 0) + a * c
        s_prev, s = s, [x - y for x, y in itertools.zip_longest(
            [0] + s, s_prev, fillvalue=0)]
    assert {e: c % 5 for c, (e,) in f if c % 5} == \
        {k: c % 5 for k, c in want.items() if c % 5}
    for N in range(1, 7):
        for base, m in ((F2, 2), (F3, 1), (F5, 1)):
            v = VarietySpec.sl2([(3 * n + 1) % base.p for n in range(N)])
            assert power_sum(v, base, m) == power_sum_naive(v, base, m)


def test_sl2_terms_are_charged_per_update():
    # the N (N + 1) / 2 updates of s_n are charged at every level: over
    # F_2 one level admits N = 4,314 coefficients and refuses 4,315, and
    # five levels 1,845 and 1,846
    def work(N, levels):
        v = VarietySpec.sl2([1] * N)
        return sum(es._level_work(v, 2 ** m) for m in range(1, levels + 1))

    assert work(4314, 1) <= es.DEFAULT_BUDGET < work(4315, 1)
    assert work(1845, 5) <= es.DEFAULT_BUDGET < work(1846, 5)
    assert es._strata_work(VarietySpec.sl2([1] * 4000)) - \
        es._strata_work(VarietySpec.sl2([1] * 3999)) == \
        es.STRATUM_WORK * 4 + es.SL2_UPDATE_WORK * 4000


def test_frobenius_orbits_of_f5_6():
    # x -> x^5 on the 15,624 nonzero elements of F_{5^6}: an orbit of size
    # d holds d elements of exact degree d (4, 20, 120 and 15,480 of them)
    orbits = es._frobenius_orbits(5 ** 6 - 1, 5, 6)
    assert [(d, len(reps)) for d, reps in orbits] == [
        (1, 4), (2, 10), (3, 40), (6, 2580)]
    codes = sorted(int(e) * 5 ** k % (5 ** 6 - 1)
                   for d, reps in orbits for e in reps for k in range(d))
    assert codes == list(range(5 ** 6 - 1))


def level_peak(v, base, m):
    """The traced peak of one power_sum call, tables prebuilt."""
    es.get_tables(build_field(base.p, base.n * m))
    tracemalloc.start()
    try:
        got = power_sum(v, base, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return got, peak


def test_plane_level_memory_is_bounded():
    # one level of x^2 y - x over F_5 at m = 6: y is summed out, so the
    # main stratum is one run of x's 15,624 codes (0.03 MiB measured; its
    # 2,634 orbit representatives took 0.26 MiB, and 2,634 times 15,624
    # points in windows 2.1 MiB)
    got, peak = level_peak(NEWTON_DEGENERATE, F5, 6)
    assert got == CyclotomicInt.from_int(5, 5 ** 6)
    assert peak <= 1 << 20


def test_window_kernel_level_memory_is_bounded():
    # one level of SQUARE_PLANE over F_5 at m = 6 (2,634 first coordinates
    # times 15,624): a block holds its uint8 keys, read as windows of the
    # trace table, and the thread's one reused temporary, for their mod-p
    # reduction and then the class masks (2.1 MiB measured; the temporary
    # and a mask held apart took 3.1 MiB, a gather through an int32 index
    # array 6.2 MiB, and field addition over repeated coordinates 24.1 MiB)
    got, peak = level_peak(SQUARE_PLANE, F5, 6)
    assert got == CyclotomicInt.from_int(5, 15750)
    assert peak <= 4 << 20


def test_grids_hold_within_the_table_budget():
    # one level of MULTI_EXPONENT_SQUARE over F_5 at m = 6, tables prebuilt:
    # every window reads the one doubled trace table, so what _grids builds
    # (the orbit representatives, about 1 byte per element measured, where
    # an axis of every code beside them took 5) stays within the budget's
    # bytes per table element, where copies of the table for each last
    # exponent took 40
    T = es.get_tables(build_field(5, 6))
    _, tori = es._strata(MULTI_EXPONENT_SQUARE, F5, 6)
    # f = 0 on the lines x = 0 and y = 0, which read no coordinate, so they
    # are weights on the origin's one point, which _histograms sums in F_5
    assert [key for key in tori if not key[0]] == [(0, (), ())]
    tori = {key: w for key, w in tori.items() if key[0]}
    tracemalloc.start()
    try:
        grids = es._grids(T, tori, F5, [int(T.const_code[1])], es._Scratch())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= es.TABLE_BYTES_PER_ELEMENT * T.q
    # the torus in one grid per orbit size d | 6, its blocks as wide as a
    # window 7 apart allows
    assert len(grids) == 4
    assert sorted(dim for _, dim, *_ in grids) == [2, 2, 2, 2]
    assert {width for *_, width in grids} == {15624 // 7 + 1}
    for v in (MULTI_EXPONENT, MULTI_EXPONENT_SQUARE):
        assert power_sum(v, F5, 2) == power_sum_naive(v, F5, 2)


def level_faults(v, base, m):
    """Minor faults of a warm power_sum call in one thread."""
    es.get_tables(build_field(base.p, base.n * m))
    power_sum(v, base, m)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    got = power_sum(v, base, m, threads=1)
    return got, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def test_plane_level_reuses_block_buffers():
    # a warm level of x^2 y - x over F_5 at m = 6 in one thread, y summed
    # out: the one block of x's codes, 15 KiB, faults in no fresh pages (0
    # measured, where 2,634 times 15,624 points in windows took 340 to 570)
    got, faults = level_faults(NEWTON_DEGENERATE, F5, 6)
    assert got == CyclotomicInt.from_int(5, 5 ** 6)
    assert faults < 200


def test_window_kernel_level_reuses_block_buffers():
    # a warm level of SQUARE_PLANE over F_5 at m = 6 in one thread: the
    # mod-p temporary, which the class masks share, is allocated once for
    # the level, not once per block, so the sum faults in few fresh pages
    # (650 to 670 measured, where fresh arrays per block took 18,200 for
    # the plane)
    got, faults = level_faults(SQUARE_PLANE, F5, 6)
    assert got == CyclotomicInt.from_int(5, 15750)
    assert faults < 2000


def test_modulus_independence_of_sums():
    # same S_m when the level field uses a different irreducible modulus
    alt = FieldCtx(3, 2, (2, 1, 1))  # x^2 + x + 2, not the lex-first choice
    assert alt != build_field(3, 2)
    for v in (NEWTON_DEGENERATE, TORUS_LINEAR):
        assert power_sum(v, F3, 2, tower=alt) == power_sum(v, F3, 2)
        assert power_sum_naive(v, F3, 2, tower=alt) == power_sum_naive(v, F3, 2)


def test_base_extension_tower():
    # base F_4 inside F_16: linear torus sums are -1 at every level
    f4 = build_field(2, 2)
    for m in (1, 2):
        got = power_sum(TORUS_LINEAR, f4, m)
        assert got == CyclotomicInt.from_int(2, -1)
        assert got == power_sum_naive(TORUS_LINEAR, f4, m)
    # a function with a genuine F_4 coefficient
    alpha = f4.element([0, 1])
    v = VarietySpec.torus(1, {(1,): alpha})
    assert power_sum(v, f4, 2) == power_sum_naive(v, f4, 2)


def test_conjugate_absolute_value_bound():
    # numeric sanity: all Galois conjugates of S_m are bounded by #X(k_m)
    import cmath
    v, base, m = KLOOSTERMAN, F5, 2
    s = power_sum(v, base, m)
    bound = count_points(v, base, m)
    for u in range(1, 5):
        tw = galois_twist(s, u)
        z = cmath.exp(2j * cmath.pi / 5)
        val = sum(c * z ** i for i, c in enumerate(tw.coords))
        assert abs(val) <= bound + 1e-6


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        power_sum_table(NEWTON_DEGENERATE, F3, 12, budget=1000)
    with pytest.raises(BudgetExceededError):
        power_sum(NEWTON_DEGENERATE, F5, 6, budget=10 ** 6)


def test_charge_returns_what_is_left_or_refuses_in_one_shape():
    assert es.charge(7, 10, "a job", "units") == 3
    assert es.charge(10, 10, "a job", "units") == 0
    # past 2^64 the figure is the least power of two not below the work,
    # which str() prints however long the work; a work too large to form
    # is refused with the text of its exact value
    huge = 10 ** 5000
    for work, figure in ((11, "11"), (2 ** 64 - 1, str(2 ** 64 - 1)),
                         (2 ** 64, "2^64"), (2 ** 64 + 1, "2^65"),
                         (huge, "2^16610"), ("16*3^100000", "16*3^100000")):
        with pytest.raises(BudgetExceededError) as exc:
            es.charge(work, 10, "a job", "units")
        assert str(exc.value) == \
            f"a job needs ~{figure} work units (units); budget is 10"
    assert 2 ** 16609 < huge <= 2 ** 16610


def test_budget_counts_table_elements(monkeypatch):
    # x over G_m(F_5) through level 12: ~3.1e8 point evaluations fit the
    # default budget, but the level-12 tables alone are 2.4e8 elements, ~4 GB
    assert sum(5 ** m - 1 for m in range(1, 13)) < es.DEFAULT_BUDGET

    def no_tables(ctx):
        raise AssertionError(f"tables built for F_{ctx.p}^{ctx.n}")

    monkeypatch.setattr(es, "get_tables", no_tables)
    with pytest.raises(BudgetExceededError, match="table element"):
        power_sum_table(TORUS_LINEAR, F5, 12)
    with pytest.raises(BudgetExceededError, match="table element"):
        power_sum(TORUS_LINEAR, F5, 12)


def test_scaled_pass_matches_separate_passes():
    tabs = power_sum_table(KLOOSTERMAN, F5, 3, scales=(1, 2, 3))
    for idx, c in ((1, 2), (2, 3)):
        solo = power_sum_table(KLOOSTERMAN.scaled(c), F5, 3)[0]
        assert tabs[idx].values == solo.values
    # SL2 and a complement, with a scale outside the prime field
    scales = (1, 2, F9.element_at(5))
    for v in (VarietySpec.sl2([F9.element_at(4), 3, 1]),
              VarietySpec.hypersurface_complement(
                  1, {(2,): 1}, {(1,): 1, (0,): -1}, 2)):
        tabs = power_sum_table(v, F9, 2, scales=scales)
        for idx, c in enumerate(scales):
            solo = power_sum_table(v.scaled(c), F9, 2)[0]
            assert tabs[idx].values == solo.values


def test_scaled_degree_check_report():
    rep = scaled_degree_check(KLOOSTERMAN, F5, 2, 6)
    assert rep.degree_equal and rep.total_degree_equal
    assert rep.twist_checked and rep.twist_holds and rep.passed
    # c = 1 reproduces the identical L-series
    rep1 = scaled_degree_check(KLOOSTERMAN, F5, 1, 6)
    assert rep1.lseries.P == rep1.lseries_scaled.P
    assert rep1.lseries.Q == rep1.lseries_scaled.Q
    # torus-linear example: both degrees -1, totals 1
    from expsumlab import lfun
    rep = scaled_degree_check(TORUS_LINEAR, F5, 2, 5)
    assert lfun.degree(rep.lseries) == lfun.degree(rep.lseries_scaled) == -1
    assert lfun.total_degree(rep.lseries) == 1
    with pytest.raises(ValueError):
        scaled_degree_check(TORUS_LINEAR, F5, 0, 5)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        VarietySpec.affine_space(1, {(-1,): 1})
    with pytest.raises(ValueError):
        VarietySpec("weird", dim=1)
    with pytest.raises(ValueError):
        VarietySpec.hypersurface_complement(1, {(1,): 1}, {}, 1)
    # an exponent vector whose length is not the dimension
    for spec in (lambda: VarietySpec.affine_space(1, {(1, 2): 1}),
                 lambda: VarietySpec.torus(2, {(1,): 1}),
                 lambda: VarietySpec.hypersurface_complement(
                     2, {(1, 0): 1}, {(1,): 1}, 1)):
        with pytest.raises(ValueError):
            spec()
    with pytest.raises(ValueError):
        power_sum_table(KLOOSTERMAN, F5, 0)


def test_empty_point_complement():
    # h = 1 never vanishes: the dim-0 complement is a single point, f = 0
    vc = VarietySpec.hypersurface_complement(0, {(): 0}, {(): 1}, 1)
    for m in (1, 2):
        assert power_sum(vc, F3, m) == CyclotomicInt.one(3)


def test_multiply_terms():
    # (x - y)(x + y) = x^2 - y^2
    a = {(1, 0): 1, (0, 1): -1}
    b = {(1, 0): 1, (0, 1): 1}
    assert multiply_terms(a, b) == {(2, 0): 1, (0, 2): -1}


def test_variety_json_round_trip():
    for doc, v in (
            ({"kind": "affine", "dim": 2, "f": [[1, [2, 1]], [-1, [1, 0]]]},
             NEWTON_DEGENERATE),
            ({"kind": "torus", "dim": 1, "f": [[1, [1]], [1, [-1]]]},
             KLOOSTERMAN),
            ({"kind": "sl2", "coeffs": [1, 2]}, VarietySpec.sl2([1, 2])),
            ({"kind": "complement", "dim": 1, "g": [[1, [2]]],
              "h": [[1, [1]], [-1, [0]]], "k": 2},
             VarietySpec.hypersurface_complement(
                 1, {(2,): 1}, {(1,): 1, (0,): -1}, 2))):
        assert VarietySpec.from_json(doc) == v
    seq = power_sum_table(KLOOSTERMAN, F5, 3)[0]
    assert PowerSumSequence.from_json(seq.to_json()).values == seq.values
