"""Differential tests of the field tables against plain FqElem arithmetic.

tables.FieldTables builds its arrays with integer matrix passes over F_p;
this file is their exact reference path.  Every entry is recomputed here
one element at a time with FqElem products, sums and traces: exhaustively
on each field the rest of the suite builds (up to ~20k elements), on
sampled codes for F_5^8 and F_3^12.  The exhaustive trace reference is the
sum of the n Frobenius conjugates x^(p^i) = g^(e p^i), read off the list
of powers; trace_to_prime itself runs on sampled codes.
"""

import random
import tracemalloc

import numpy as np
import pytest

from expsumlab import tables
from expsumlab.ffield import FieldCtx, build_field, trace_to_prime
from expsumlab.tables import (TABLE_BYTES_PER_ELEMENT, ZECH_SENTINEL,
                              FieldTables, get_tables)

SUITE_FIELDS = [build_field(2, n) for n in range(1, 9)] + \
    [build_field(3, n) for n in range(1, 7)] + \
    [build_field(5, n) for n in range(1, 7)] + \
    [FieldCtx(3, 2, (2, 1, 1))]   # a modulus that is not the lex-first one


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


def check_codes(T, codes, powers, traces):
    """Every table entry at each code e, given powers[i] = g^codes[i] and
    traces[i] = its trace to F_p."""
    one = T.ctx.one()
    negs = T.vneg(np.array(codes, dtype=np.int64))
    for e, x, t, minus in zip(codes, powers, traces, negs):
        assert T.element_of(e) == x
        assert T.code_of(x) == e
        y = one + x
        if y.is_zero():
            assert T.zech[e] == ZECH_SENTINEL
        else:
            assert T.element_of(int(T.zech[e])) == y
        assert T.trace_of_code[e] == t
        assert T.element_of(int(minus)) == -x


def check_constants(T):
    ctx, z = T.ctx, T.zero_code
    assert T.element_of(z) == ctx.zero() and T.code_of(ctx.zero()) == z
    assert T.zech[z] == ZECH_SENTINEL and T.trace_of_code[z] == 0
    for c in range(ctx.p):
        assert T.element_of(int(T.const_code[c])) == ctx.from_int(c)
    assert T.element_of(T.neg_shift) == ctx.from_int(-1)
    nbytes = sum(a.nbytes for a in (T.exp, T.log, T.zech, T.trace_of_code))
    assert nbytes <= TABLE_BYTES_PER_ELEMENT * T.q


def check_add(T, pairs):
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    vec = T.vadd(a, b)
    for (x, y), s in zip(pairs, vec):
        assert T.element_of(int(s)) == T.element_of(x) + T.element_of(y)


def sampled_codes(T, k):
    rng = random.Random(T.q)
    return [0, T.group_order - 1] + \
        [rng.randrange(T.group_order) for _ in range(k)]


@pytest.mark.parametrize("ctx", SUITE_FIELDS, ids=[
    f"F{c.p}^{c.n}" + ("" if c == build_field(c.p, c.n) else "-alt")
    for c in SUITE_FIELDS])
def test_tables_match_field_arithmetic(ctx, monkeypatch):
    # chunks of 7 put chunk boundaries inside every field checked here
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
    check_codes(T, range(order), powers, traces)
    for e in sampled_codes(T, 50):
        assert T.element_of(e) == T.generator ** e
        assert T.trace_of_code[e] == trace_to_prime(powers[e])
    check_constants(T)
    rng = random.Random(T.q)
    pairs = [(rng.randrange(T.q), rng.randrange(T.q)) for _ in range(200)]
    pairs += [(T.zero_code, 0), (0, T.zero_code), (T.zero_code, T.zero_code)]
    codes = sampled_codes(T, 10)
    pairs += zip(codes, T.vneg(np.array(codes, dtype=np.int64)).tolist())  # sum 0
    check_add(T, pairs)
    for k in range(2, n + 1):
        if n % k == 0:
            base = build_field(p, k)
            assert T.embed_root(base) == first_root_code(T, base)


@pytest.mark.parametrize("p,n", [(5, 8), (3, 12)])
def test_tables_spot_checks_on_large_fields(p, n):
    T = FieldTables(build_field(p, n))
    codes = sampled_codes(T, 100)
    powers = [T.generator ** e for e in codes]
    check_codes(T, codes, powers, [trace_to_prime(x) for x in powers])
    check_constants(T)
    rng = random.Random(T.q)
    check_add(T, [(rng.randrange(T.q), rng.randrange(T.q))
                  for _ in range(100)])
    for k in (2, 4):   # a root; that it is the first one is checked above
        base = build_field(p, k)
        root = T.element_of(T.embed_root(base))
        assert base_modulus_at(base, root).is_zero()


def test_table_build_holds_little_beyond_the_tables():
    ctx = build_field(3, 12)
    tracemalloc.start()
    try:
        FieldTables(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TABLE_BYTES_PER_ELEMENT * ctx.q + (2 << 20)


def test_cache_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(tables, "_CACHE", type(tables._CACHE)())
    first = build_field(2, 1)
    T = get_tables(first)
    for n in range(2, tables._CACHE_SIZE + 4):
        get_tables(build_field(2, n))
        assert get_tables(first) is T   # the most recent use keeps it
        assert len(tables._CACHE) <= tables._CACHE_SIZE
    assert len(tables._CACHE) == tables._CACHE_SIZE
    evicted = build_field(2, 2)
    assert (2, 2, evicted.modulus) not in tables._CACHE
