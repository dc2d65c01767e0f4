"""Differential tests of the field tables against plain FqElem arithmetic.

tables.FieldTables builds the trace table up front, with integer matrix
passes over F_p, and the window decoder log on first use; this file is
their exact reference path.  Every entry is recomputed here one element at
a time with FqElem products, sums and traces: exhaustively on each field
the rest of the suite builds (up to ~20k elements), on sampled codes for
F_5^8 and F_3^12.  The exhaustive trace reference is the sum of the n
Frobenius conjugates x^(p^i) = g^(e p^i), read off the list of powers;
trace_to_prime itself runs on sampled codes.  The trace digits of g^k are
the traces of g^j g^k, j < n, read the same way.
"""

import random
import tracemalloc

import numpy as np
import pytest

from expsumlab import ffield, tables
from expsumlab.expsum import VarietySpec, power_sum, power_sum_naive
from expsumlab.ffield import (CyclotomicInt, FieldCtx, build_field,
                              trace_to_prime)
from expsumlab.tables import FieldTables, get_tables

SUITE_FIELDS = [build_field(2, n) for n in range(1, 9)] + \
    [build_field(3, n) for n in range(1, 7)] + \
    [build_field(5, n) for n in range(1, 7)] + \
    [FieldCtx(3, 2, (2, 1, 1)),   # a modulus that is not the lex-first one
     build_field(17, 2)]   # n (p-1)^2 = 512: the product sums in uint16
SUITE_IDS = [f"F{c.p}^{c.n}" + ("" if c == build_field(c.p, c.n) else "-alt")
             for c in SUITE_FIELDS]


def base_modulus_at(base, x):
    acc = x.ctx.zero()
    for c in reversed(base.modulus):
        acc = acc * x + x.ctx.from_int(c)
    return acc


def first_root_code(T, base):
    """Smallest code e with modulus(g^e) = 0, by scalar search in FqElem
    arithmetic (the search embed_root once did one code at a time)."""
    x = T.ctx.one()
    for e in range(T.group_order):
        if base_modulus_at(base, x).is_zero():
            return e
        x = x * T.generator
    raise AssertionError("no root of the base modulus")


def element_of(T, code):
    return T.ctx.zero() if code == T.zero_code else T.generator ** code


def check_codes(T, codes, traces_at):
    """The trace and the log entry of each code e, where traces_at(e) is
    the trace of g^e for any e >= 0."""
    p = T.ctx.p
    for e in codes:
        assert T.trace_of_code[e] == traces_at(e)
        index = sum(traces_at(e + j) * p ** j for j in range(T.ctx.n))
        assert T.log[index] == e


def check_constants(T):
    ctx, z = T.ctx, T.zero_code
    assert T.log[0] == z
    for c in range(ctx.p):
        assert element_of(T, int(T.const_code[c])) == ctx.from_int(c)
        assert T.embed(ctx.from_int(c), ctx) == T.const_code[c]
    assert T.log.nbytes + T.trace_of_code.nbytes \
        <= tables.TABLE_BYTES_PER_ELEMENT * T.q


def check_embedding(T, base, every_element):
    """embed_root is a root of the base modulus, and embed of each base
    element is the code of its image: Horner's rule at the root."""
    root = element_of(T, T.embed_root(base))
    assert base_modulus_at(base, root).is_zero()
    elements = list(base.elements())
    if not every_element and len(elements) > 20:
        elements = random.Random(T.q).sample(elements, 20)
    for x in elements:
        image = T.ctx.zero()
        for c in reversed(x.coeffs):
            image = image * root + c
        assert element_of(T, T.embed(x, base)) == image


def sampled_codes(T, k):
    rng = random.Random(T.q)
    return [0, T.group_order - 1] + \
        [rng.randrange(T.group_order) for _ in range(k)]


@pytest.mark.parametrize("ctx", SUITE_FIELDS, ids=SUITE_IDS)
def test_tables_match_field_arithmetic(ctx, monkeypatch):
    # runs of 7 put run boundaries inside every field checked here
    monkeypatch.setattr(tables, "_CHUNK", 7)
    p, n = ctx.p, ctx.n
    T = FieldTables(ctx)
    order = T.group_order
    powers, x = [], ctx.one()
    for _ in range(order):
        powers.append(x)
        x = x * T.generator
    assert x == ctx.one()
    traces = []
    for e in range(order):
        conj = [powers[e * p ** i % order] for i in range(n)]
        t = sum(conj[1:], conj[0])
        assert t.in_prime_field()
        traces.append(t.coeffs[0])
    check_codes(T, range(order), lambda e: traces[e % order])
    # the sequence twice over, in the narrowest unsigned type
    assert T.trace_of_code.dtype == np.uint8
    assert T.trace_of_code.tolist() == traces * 2
    assert sorted(T.log) == list(range(T.q))
    for e in sampled_codes(T, 50):
        assert T.trace_of_code[e] == trace_to_prime(powers[e])
    check_constants(T)
    for k in range(2, n + 1):
        if n % k == 0:
            base = build_field(p, k)
            assert T.embed_root(base) == first_root_code(T, base)
            check_embedding(T, base, every_element=k < n)


def test_embed_reads_the_subfield_windows_once(monkeypatch):
    # every element of F_{5^4} into its own tables: the windows of the 624
    # subfield codes are computed on the first call only, and each image
    # is Horner's rule at the root
    ctx = build_field(5, 4)
    T = FieldTables(ctx)
    trace_digits, windows = T._trace_digits, []

    def spied(codes, coeffs=(0, 1)):
        if tuple(coeffs) == (0, 1):
            windows.append(np.size(codes))
        return trace_digits(codes, coeffs)

    monkeypatch.setattr(T, "_trace_digits", spied)
    check_embedding(T, ctx, every_element=True)
    assert T.embed_root(ctx) == first_root_code(T, ctx)
    assert windows == [T.group_order]


# F_257^2: n (p-1)^2 = 131072, so the product sums in uint32, and the
# table is uint16
@pytest.mark.parametrize("p,n", [(5, 8), (3, 12), (257, 2)])
def test_tables_spot_checks_on_large_fields(p, n):
    T = FieldTables(build_field(p, n))
    check_codes(T, sampled_codes(T, 100),
                lambda e: trace_to_prime(T.generator ** e))
    check_constants(T)
    for k in (2, 4):   # a root; that it is the first one is checked above
        if n % k == 0:
            base = build_field(p, k)
            check_embedding(T, base, every_element=base.q <= 25)


def order_of(x):
    """The multiplicative order of x != 0, by repeated multiplication."""
    y, k = x, 1
    while y != x.ctx.one():
        y, k = y * x, k + 1
    return k


@pytest.mark.parametrize("ctx", SUITE_FIELDS, ids=SUITE_IDS)
def test_generator_is_first_primitive_element(ctx):
    first = next(x for x in map(ctx.element_at, range(1, ctx.q))
                 if order_of(x) == ctx.q - 1)
    assert FieldTables(ctx).generator == first


@pytest.mark.parametrize("ctx", [build_field(5, 6), build_field(2, 8),
                                 FieldCtx(3, 2, (2, 1, 1))],
                         ids=["F5^6", "F2^8", "F3^2-alt"])
def test_table_build_does_no_polynomial_arithmetic(ctx, monkeypatch):
    expected = FieldTables(ctx)

    def refuse(*args):
        raise AssertionError("an F_q product in the table build")

    monkeypatch.setattr(ffield, "_mul_mod_p", refuse)
    T = FieldTables(ctx)
    assert T.generator.coeffs == expected.generator.coeffs
    for name in ("trace_of_code", "const_code", "log"):
        a, b = getattr(T, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_trace_table_widens_past_p_128():
    # 2 (p - 1) > 255 at p = 131, so a sum of two traces needs 16 bits; on
    # F_p the trace of g^e is g^e itself
    F131 = build_field(131, 1)
    T = FieldTables(F131)
    assert T.trace_of_code.dtype == np.uint16
    assert T.trace_of_code.tolist() == \
        [(T.generator ** e).coeffs[0] for e in range(2 * 130)]
    # x y + 5 x^2 / y^3 - y on the torus, counted by its values in Z/131
    counts = [0] * 131
    for x in range(1, 131):
        for y in range(1, 131):
            counts[(x * y + 5 * x * x * pow(y, -3, 131) - y) % 131] += 1
    v = VarietySpec.torus(2, {(1, 1): 1, (2, -3): 5, (0, 1): -1})
    assert power_sum(v, F131, 1) == CyclotomicInt.from_poly(131, counts)


def test_table_build_holds_little_beyond_the_tables():
    ctx = build_field(3, 12)
    tracemalloc.start()
    try:
        T = FieldTables(ctx)
        T.log   # built on first use
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int32 log and the doubled uint8 trace table
    assert peak <= 6 * ctx.q + (2 << 20)


def test_trace_table_build_holds_little_beyond_it():
    ctx = build_field(3, 12)
    tracemalloc.start()
    try:
        T = FieldTables(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "log" not in T.__dict__
    assert peak <= 2 * ctx.q + (2 << 20)   # two uint8 per element


F3, F5, F9 = build_field(3, 1), build_field(5, 1), build_field(3, 2)


@pytest.mark.parametrize("v,base,m,built", [
    (VarietySpec.affine_space(2, {(2, 1): 1, (1, 0): -1}), F3, 3, False),
    (VarietySpec.torus(1, {(1,): 1, (-1,): 2}), F5, 2, False),
    (VarietySpec.sl2([1, 2]), F3, 2, False),
    (VarietySpec.hypersurface_complement(
        1, {(2,): 1}, {(1,): 1, (0,): -1}), F3, 2, True),
    (VarietySpec.torus(1, {(1,): F9.element([0, 1]), (-1,): 1}), F9, 2,
     False),
], ids=["affine", "torus", "sl2", "complement", "base-F9"])
def test_only_complements_build_log(v, base, m, built):
    get_tables.cache_clear()
    assert power_sum(v, base, m) == power_sum_naive(v, base, m)
    T = get_tables(build_field(base.p, base.n * m))
    arrays = {name for name, value in vars(T).items()
              if isinstance(value, np.ndarray)}
    assert arrays == {"trace_of_code", "const_code"} | ({"log"} if built
                                                        else set())


def test_cache_is_bounded_lru():
    get_tables.cache_clear()
    first = build_field(2, 1)
    T = get_tables(first)
    for n in range(2, tables._CACHE_SIZE + 4):
        get_tables(build_field(2, n))
        assert get_tables(first) is T   # the most recent use keeps it
        assert get_tables.cache_info().currsize <= tables._CACHE_SIZE
    assert get_tables.cache_info().currsize == tables._CACHE_SIZE
    # the oldest entry, F_4's, was evicted: asking for it again is a miss
    misses = get_tables.cache_info().misses
    get_tables(build_field(2, 2))
    assert get_tables.cache_info().misses == misses + 1
