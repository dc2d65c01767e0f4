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
from expsumlab.expsum import (BudgetExceededError, PowerSumSequence,
                              VarietySpec, count_points, multiply_terms,
                              power_sum, power_sum_naive, power_sum_table,
                              scaled_degree_check, sym_trace)
from expsumlab.ffield import (CyclotomicInt, FieldCtx, additive_character,
                              build_field, galois_twist, trace_to_prime)

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F5 = build_field(5, 1)
F7 = build_field(7, 1)
F9 = build_field(3, 2)

NEWTON_DEGENERATE = VarietySpec.affine_space(2, {(2, 1): 1, (1, 0): -1})
KLOOSTERMAN = VarietySpec.torus(1, {(1,): 1, (-1,): 1})
TORUS_LINEAR = VarietySpec.torus(1, {(1,): 1})
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
        strata = []
        for zero in itertools.product((False, True), repeat=dim):
            restricted = {tuple(e for e, z in zip(exps, zero) if not z): c
                          for exps, c in terms.items()
                          if not any(e and z for e, z in zip(exps, zero))}
            strata.append(VarietySpec.torus(dim - sum(zero), restricted))
        for m in levels:
            lhs = power_sum(VarietySpec.affine_space(dim, terms), base, m)
            rhs = CyclotomicInt.zero(base.p)
            for v in strata:
                rhs = rhs + power_sum(v, base, m)
            assert lhs == rhs
            if dim == 1:
                f0 = terms.get((0,), 0)
                assert power_sum(strata[-1], base, m) == additive_character(
                    base.p, m * f0)


@pytest.mark.parametrize("v,base", [
    pytest.param(VarietySpec.sl2([1, 2]), F3, id="sl2"),
    pytest.param(VarietySpec.hypersurface_complement(
        2, {(2, 1): 1, (0, 1): 2, (1, 0): 1}, {(1, 1): 1, (0, 0): 1}, 2),
                 F3, id="dim2-complement"),
    pytest.param(NEWTON_DEGENERATE, F3, id="plane"),
])
def test_every_grid_is_a_torus(monkeypatch, v, base):
    # affine space, complements and SL2's line of traces are summed over
    # their coordinate strata: no axis holds the zero code, and one set of
    # Frobenius orbits serves every stratum of a level
    grids, orbits = es._grids, es._frobenius_orbits
    levels, orbit_levels = [], []

    def spied_grids(T, *args):
        out = grids(T, *args)
        levels.append(T.ctx.n)
        for axes, _, _, _ in out:
            assert not any(np.any(axis == T.zero_code) for axis in axes)
        return out

    def spied_orbits(n, q, m):
        orbit_levels.append(m)
        return orbits(n, q, m)

    monkeypatch.setattr(es, "_grids", spied_grids)
    monkeypatch.setattr(es, "_frobenius_orbits", spied_orbits)
    seq = power_sum_table(v, base, 3)[0]
    assert levels == [1, 2, 3] and orbit_levels == [1, 2, 3]
    assert seq.values[:2] == tuple(power_sum_naive(v, base, m)
                                   for m in (1, 2))


def test_galois_equivariance():
    for v, base in ((NEWTON_DEGENERATE, F3), (KLOOSTERMAN, F5)):
        s1 = power_sum(v, base, 1)
        for u in range(2, base.p):
            assert power_sum(v.scaled(u), base, 1) == galois_twist(s1, u)


def _size_checked(evaluate, sizes):
    def checked(coords, start):
        npts = math.prod(np.broadcast_shapes((1,), *(x.shape for x in coords)))
        assert npts <= es._BLOCK
        if start is not None:   # the last coordinate is the run it names
            last = coords[-1]
            assert np.array_equal(last, np.arange(start, start + last.size))
        sizes.append(npts)
        return evaluate(coords, start)
    return checked


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("v,base,m", [
    pytest.param(NEWTON_DEGENERATE, F3, 3, id="plane"),
    pytest.param(KLOOSTERMAN, F5, 2, id="kloosterman"),
    pytest.param(VarietySpec.hypersurface_complement(0, {(): 2}, {(): 3}, 2),
                 F5, 2, id="dim0-complement"),
    # h's code is one more coordinate of every term, split with the block
    pytest.param(VarietySpec.hypersurface_complement(
        2, {(2, 1): 1, (0, 1): 2, (1, 0): 1}, {(1, 1): 1, (0, 0): 1}, 2),
                 F3, 2, id="dim2-complement"),
    pytest.param(VarietySpec.sl2([1]), F2, 2, id="sl2"),
    pytest.param(VarietySpec.torus(2, {(1, 1): 1, (2, -1): 2, (0, 1): 1,
                                       (1, 0): 1}), F3, 2, id="torus-dim2"),
    # z^16 is z^8 on F_9^*: y z^16 reads windows 8 apart, so the blocks
    # are 2 wide, the most that fit in the doubled trace table
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
    # so in dimension >= 2 its runs of codes start past 0
    want = power_sum_naive(v, base, m)
    grids, sizes, grid_points = es._grids, [], []

    def spied(*args):
        out = grids(*args)
        grid_points.extend(math.prod(map(len, axes)) for axes, *_ in out)
        return [(axes, weight, _size_checked(evaluate, sizes), width)
                for axes, weight, evaluate, width in out]

    monkeypatch.setattr(es, "_BLOCK", 7)
    monkeypatch.setattr(es, "_grids", spied)
    assert power_sum(v, base, m, threads=threads) == want
    assert sizes and sum(sizes) == sum(grid_points)


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
    # a pool of two threads over 2^20-point blocks, each thread with its
    # own block buffers, counts what one thread counts
    monkeypatch.setattr(es.os, "cpu_count", lambda: 2)
    one = power_sum(NEWTON_DEGENERATE, F5, 6, threads=1)
    assert power_sum(NEWTON_DEGENERATE, F5, 6, threads=2) == one
    assert one == CyclotomicInt.from_int(5, 5 ** 6)


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


def test_frobenius_orbits_of_f5_6():
    # x -> x^5 on the 15,624 nonzero elements of F_{5^6}: an orbit of size
    # d holds d elements of exact degree d (4, 20, 120 and 15,480 of them)
    orbits = es._frobenius_orbits(5 ** 6 - 1, 5, 6)
    assert [(d, len(reps)) for d, reps in orbits] == [
        (1, 4), (2, 10), (3, 40), (6, 2580)]
    codes = sorted(int(e) * 5 ** k % (5 ** 6 - 1)
                   for d, reps in orbits for e in reps for k in range(d))
    assert codes == list(range(5 ** 6 - 1))


def test_plane_level_memory_is_bounded():
    # one level of x^2 y - x over F_5 at m = 6 (2,635 first coordinates
    # times 15,625), tables prebuilt: a block holds its uint8 keys, read as
    # windows of the trace table, and the thread's one reused temporary,
    # for their mod-p reduction and then the class masks (2.1 MiB measured;
    # the temporary and a mask held apart took 3.1 MiB, a gather through an
    # int32 index array 6.2 MiB, and field addition over repeated
    # coordinates 24.1 MiB)
    es.get_tables(build_field(5, 6))
    tracemalloc.start()
    try:
        got = power_sum(NEWTON_DEGENERATE, F5, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == CyclotomicInt.from_int(5, 5 ** 6)
    assert peak <= 4 << 20


# x y + x y^2 + ... + x y^7 on A^2: seven last exponents in one sum
MULTI_EXPONENT = VarietySpec.affine_space(2, {(1, k): 1 for k in range(1, 8)})


def test_grids_hold_within_the_table_budget():
    # one level of MULTI_EXPONENT over F_5 at m = 6, tables prebuilt: every
    # window reads the one doubled trace table, so what _grids builds (the
    # axes and orbit representatives, about 5 bytes per element measured)
    # stays within the budget's bytes per table element, where copies of
    # the table for each last exponent took 40
    T = es.get_tables(build_field(5, 6))
    tracemalloc.start()
    try:
        grids = es._grids(T, MULTI_EXPONENT, F5, [int(T.const_code[1])],
                          es._Scratch())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= es.TABLE_BYTES_PER_ELEMENT * T.q
    # the three strata of dimension >= 1 in one grid per orbit size d | 6,
    # and the origin; the plane's blocks are as wide as a window 7 apart
    # allows
    assert len(grids) == 13
    assert {width for *_, width in grids} == {None, 15624 // 7 + 1}
    assert power_sum(MULTI_EXPONENT, F5, 2) == \
        power_sum_naive(MULTI_EXPONENT, F5, 2)


def test_plane_level_reuses_block_buffers():
    # a warm level of x^2 y - x over F_5 at m = 6 in one thread: the
    # mod-p temporary, which the class masks share, is allocated once for
    # the level, not once per block, so the sum faults in few fresh pages
    # (340 to 570 measured, where fresh arrays per block took 18,200)
    es.get_tables(build_field(5, 6))
    power_sum(NEWTON_DEGENERATE, F5, 6)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    got = power_sum(NEWTON_DEGENERATE, F5, 6, threads=1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert got == CyclotomicInt.from_int(5, 5 ** 6)
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
    for v in (NEWTON_DEGENERATE, KLOOSTERMAN, VarietySpec.sl2([1, 2]),
              VarietySpec.hypersurface_complement(
                  1, {(2,): 1}, {(1,): 1, (0,): -1}, 2)):
        assert VarietySpec.from_json(v.to_json()) == v
    seq = power_sum_table(KLOOSTERMAN, F5, 3)[0]
    assert PowerSumSequence.from_json(seq.to_json()).values == seq.values
