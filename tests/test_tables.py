"""Differential tests of the field tables against plain FqElem arithmetic.

tables.FieldTables(p, n) builds the trace table of F_{p^n} up front from
its primitive polynomial mu, with integer matrix passes over F_p, and the
window decoder log on first use; this file is their exact reference path.
Every entry is recomputed here one element at a time with FqElem products,
sums and traces in FieldCtx(p, n, mu), with the root y of mu as the
generator: exhaustively on each field the rest of the suite builds (up to
~20k elements), on sampled codes for F_5^8, F_3^12 and F_257^2.  The
exhaustive trace reference is the sum of the n Frobenius conjugates
x^(p^i) = y^(e p^i), read off the list of powers; trace_to_prime itself
runs on sampled codes.  The trace digits of y^k are the traces of
y^j y^k, j < n, read the same way.  That mu is the first polynomial in
build_field's order whose root has order q - 1 is checked against every
earlier candidate: by brute force up to q = 729, by Rabin's test and
FqElem powers beyond.
"""

import random
import tracemalloc
from functools import partial

import numpy as np
import pytest

from expsumlab import _exactpoly, expsum, ffield, tables
from expsumlab.expsum import VarietySpec, power_sum, power_sum_naive
from expsumlab.ffield import (CyclotomicInt, FieldCtx, _factor,
                              _is_irreducible, _mul_mod_p, build_field,
                              trace_to_prime)
from expsumlab.tables import FieldTables, get_tables

SUITE_FIELDS = [build_field(2, n) for n in range(1, 9)] + \
    [build_field(3, n) for n in range(1, 7)] + \
    [build_field(5, n) for n in range(1, 7)] + \
    [FieldCtx(3, 2, (2, 1, 1)),   # a modulus that is not the lex-first one
     build_field(17, 2)]   # n (p-1)^2 = 512: the product sums in uint16
SUITE_IDS = [f"F{c.p}^{c.n}" + ("" if c == build_field(c.p, c.n) else "-alt")
             for c in SUITE_FIELDS]


def root_of(T):
    """The field of T's primitive polynomial and its root y, the generator
    of T's codes."""
    field = FieldCtx(T.p, T.n, T.modulus)
    return field, field.element([0, 1])


def base_modulus_at(base, x):
    acc = x.ctx.zero()
    for c in reversed(base.modulus):
        acc = acc * x + x.ctx.from_int(c)
    return acc


def first_root_code(T, base):
    """Smallest code e with modulus(y^e) = 0, by scalar search in FqElem
    arithmetic, one code at a time: the reference for _embedding's root."""
    field, y = root_of(T)
    x = field.one()
    for e in range(T.group_order):
        if base_modulus_at(base, x).is_zero():
            return e
        x = x * y
    raise AssertionError("no root of the base modulus")


def element_of(T, code):
    field, y = root_of(T)
    return field.zero() if code == T.zero_code else y ** code


def check_codes(T, codes, traces_at):
    """The trace and the log entry of each code e, where traces_at(e) is
    the trace of y^e for any e >= 0."""
    for e in codes:
        assert T.trace_of_code[e] == traces_at(e)
        index = sum(traces_at(e + j) * T.p ** j for j in range(T.n))
        assert T.log[index] == e


def check_constants(T):
    field, z = root_of(T)[0], T.zero_code
    assert T.log[0] == z
    for c in range(T.p):
        assert element_of(T, int(T.const_code[c])) == field.from_int(c)
        assert T.embed(field.from_int(c), field) == T.const_code[c]
    assert T.log.nbytes + T.trace_of_code.nbytes \
        <= tables.TABLE_BYTES_PER_ELEMENT * T.q


def check_embedding(T, base, every_element):
    """_embedding's root is a root of the base modulus, and embed of each
    base element is the code of its image: Horner's rule at the root."""
    field = root_of(T)[0]
    root = element_of(T, T._embedding(base)[0])
    assert base_modulus_at(base, root).is_zero()
    elements = list(base.elements())
    if not every_element and len(elements) > 20:
        elements = random.Random(T.q).sample(elements, 20)
    for x in elements:
        image = field.zero()
        for c in reversed(x.coeffs):
            image = image * root + c
        assert element_of(T, T.embed(x, base)) == image


def sampled_codes(T, k):
    rng = random.Random(T.q)
    return [0, T.group_order - 1] + \
        [rng.randrange(T.group_order) for _ in range(k)]


def is_primitive(f, p):
    """Whether the root y of the irreducible f has order N = p^n - 1:
    y^(N/l) != 1 for every prime l | N, in FqElem arithmetic."""
    field = FieldCtx(p, len(f) - 1, f)
    y, N = field.element([0, 1]), field.q - 1
    return all(y ** (N // ell) != field.one() for ell in _factor(N))


@pytest.mark.parametrize("ctx", SUITE_FIELDS, ids=SUITE_IDS)
def test_tables_match_field_arithmetic(ctx, monkeypatch):
    # runs of 7 put run boundaries inside every field checked here
    monkeypatch.setattr(tables, "_CHUNK", 7)
    p, n = ctx.p, ctx.n
    T = FieldTables(p, n)
    field, y = root_of(T)
    order = T.group_order
    powers, x = [], field.one()
    for _ in range(order):
        powers.append(x)
        x = x * y
    assert x == field.one()
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
    # every subfield's lex-first modulus, and the field's own modulus, which
    # for -alt is not the one the tables are built on
    for k in range(2, n + 1):
        if n % k == 0:
            base = build_field(p, k)
            for b in {base, ctx} if k == n else {base}:
                assert T._embedding(b)[0] == first_root_code(T, b)
                check_embedding(T, b, every_element=k < n or b != base)


def test_embed_reads_the_subfield_windows_once(monkeypatch):
    # every element of F_{5^4} into its own tables: the windows of the 624
    # subfield codes are computed on the first call only, and each image
    # is Horner's rule at the root
    ctx = build_field(5, 4)
    T = FieldTables(5, 4)
    trace_digits, windows = T._trace_digits, []

    def spied(codes, coeffs=(0, 1)):
        if tuple(coeffs) == (0, 1):
            windows.append(np.size(codes))
        return trace_digits(codes, coeffs)

    monkeypatch.setattr(T, "_trace_digits", spied)
    check_embedding(T, ctx, every_element=True)
    assert T._embedding(ctx)[0] == first_root_code(T, ctx)
    assert windows == [T.group_order]


# F_257^2: n (p-1)^2 = 131072, so the product sums in uint32, and the
# table is uint16
@pytest.mark.parametrize("p,n", [(5, 8), (3, 12), (257, 2)])
def test_tables_spot_checks_on_large_fields(p, n):
    T = FieldTables(p, n)
    y = root_of(T)[1]
    assert is_primitive(T.modulus, p)
    check_codes(T, sampled_codes(T, 100),
                lambda e: trace_to_prime(y ** e))
    check_constants(T)
    for k in (2, 4):   # a root; that it is the first one is checked above
        if n % k == 0:
            base = build_field(p, k)
            check_embedding(T, base, every_element=base.q <= 25)


def root_order(f, p):
    """The multiplicative order of x in F_p[x]/(f), by repeated
    multiplication, or None if x is no unit: ring arithmetic, whether f is
    irreducible or not."""
    n = len(f) - 1
    one = (1,) + (0,) * (n - 1)
    x = a = _mul_mod_p(f, p, one, (0, 1))
    for k in range(1, p ** n):
        if a == one:
            return k
        a = _mul_mod_p(f, p, a, x)
    return None


def candidate(k, p, n):
    """The k-th monic polynomial of degree n in build_field's order."""
    return tuple(k // p ** i % p for i in range(n)) + (1,)


@pytest.mark.parametrize("ctx", SUITE_FIELDS, ids=SUITE_IDS)
def test_generator_is_first_primitive_element(ctx):
    # y, the generator of the codes, is the root of the first monic mu in
    # build_field's order whose root has order q - 1: by brute force over
    # every candidate up to mu where q <= 729, and beyond that by Rabin's
    # test and FqElem powers y^(N/l)
    p, n, N = ctx.p, ctx.n, ctx.q - 1
    mu = FieldTables(p, n).modulus
    k = 0
    while candidate(k, p, n) != mu:
        f = candidate(k, p, n)
        if ctx.q <= 729:
            assert root_order(f, p) != N
        else:
            assert not (_is_irreducible(f, p) and is_primitive(f, p))
        k += 1
    if ctx.q <= 729:
        assert root_order(mu, p) == N
    else:
        assert is_primitive(mu, p)


def ring_power(f, p, e):
    """x^e in F_p[x]/(f), which need not be a field."""
    n = len(f) - 1
    one = (1,) + (0,) * (n - 1)
    return _exactpoly.power(_mul_mod_p(f, p, one, (0, 1)), e,
                            partial(_mul_mod_p, f, p), one)


@pytest.mark.parametrize("p,n", [(2, 6), (3, 5)])
def test_norm_check_rejects_a_planted_reducible_candidate(p, n):
    # the first candidate that passes the norm and root filters, is
    # reducible, and has y^(N/l) != 1 for every prime l | R prime to p - 1:
    # only the check y^R = h can reject it, and the certificate does
    N, R = p ** n - 1, (p ** n - 1) // (p - 1)
    ells = [ell for ell in _factor(R) if (p - 1) % ell]
    one = (1,) + (0,) * (n - 1)
    planted = next(
        f for f in (tuple(row.tolist()) + (1,)
                    for row in tables._candidates(p, n))
        if not _is_irreducible(f, p)
        and all(ring_power(f, p, N // ell) != one for ell in ells))
    h = (-1) ** n * planted[0] % p
    assert ring_power(planted, p, R) != (h,) + (0,) * (n - 1)
    exps = np.array([R] + [N // ell for ell in ells])
    mu = np.array([planted[:-1]])
    assert not tables._certified(mu, p, exps).any()
    # the same exponents certify the primitive polynomial of the field
    assert tables._certified(np.array([FieldTables(p, n).modulus[:-1]]), p,
                             exps).all()


@pytest.mark.parametrize("v,base", [
    (VarietySpec.torus(1, {(1,): 1, (-1,): 2}), build_field(5, 1)),
    (VarietySpec.affine_space(2, {(2, 1): 1, (1, 0): -1}), build_field(3, 1)),
    (VarietySpec.hypersurface_complement(
        1, {(2,): 1}, {(1,): 1, (0,): -1}), build_field(3, 1)),
    (VarietySpec.sl2([1, 2]), build_field(2, 1)),
], ids=["torus", "affine", "complement", "sl2"])
def test_histograms_over_a_prime_base_build_no_field(monkeypatch, v, base):
    # the tower's tables come from its primitive polynomial alone: no
    # modulus is searched for and no irreducibility test runs
    def refuse(*args):
        raise AssertionError("a field built for the tower")

    tables._tables.cache_clear()
    monkeypatch.setattr(expsum, "build_field", refuse)
    monkeypatch.setattr(ffield, "_is_irreducible", refuse)
    sums = [power_sum(v, base, m) for m in (1, 2, 3)]
    monkeypatch.undo()
    assert sums == [power_sum_naive(v, base, m) for m in (1, 2, 3)]


@pytest.mark.parametrize("ctx", [build_field(5, 6), build_field(2, 8),
                                 FieldCtx(3, 2, (2, 1, 1))],
                         ids=["F5^6", "F2^8", "F3^2-alt"])
def test_table_build_does_no_polynomial_arithmetic(ctx, monkeypatch):
    expected = FieldTables(ctx.p, ctx.n)

    def refuse(*args):
        raise AssertionError("an F_q product in the table build")

    monkeypatch.setattr(ffield, "_mul_mod_p", refuse)
    monkeypatch.setattr(ffield, "_is_irreducible", refuse)
    T = FieldTables(ctx.p, ctx.n)
    assert T.modulus == expected.modulus
    for name in ("trace_of_code", "const_code", "log"):
        a, b = getattr(T, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_trace_table_widens_past_p_128():
    # 2 (p - 1) > 255 at p = 131, so a sum of two traces needs 16 bits; on
    # F_p the trace of y^e is y^e itself, y = -mu_0
    T = FieldTables(131, 1)
    y = -T.modulus[0] % 131
    assert T.trace_of_code.dtype == np.uint16
    assert T.trace_of_code.tolist() == \
        [pow(y, e, 131) for e in range(2 * 130)]
    # x y + 5 x^2 / y^3 - y on the torus, counted by its values in Z/131
    counts = [0] * 131
    for x in range(1, 131):
        for y in range(1, 131):
            counts[(x * y + 5 * x * x * pow(y, -3, 131) - y) % 131] += 1
    v = VarietySpec.torus(2, {(1, 1): 1, (2, -3): 5, (0, 1): -1})
    assert power_sum(v, build_field(131, 1), 1) == \
        CyclotomicInt.from_poly(131, counts)


def test_table_build_holds_little_beyond_the_tables():
    tracemalloc.start()
    try:
        T = FieldTables(3, 12)
        T.log   # built on first use
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int32 log and the doubled uint8 trace table
    assert peak <= 6 * T.q + (2 << 20)


def test_trace_table_build_holds_little_beyond_it():
    tracemalloc.start()
    try:
        T = FieldTables(3, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "log" not in T.__dict__
    assert peak <= 2 * T.q + (2 << 20)   # two uint8 per element


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
    tables._tables.cache_clear()
    assert power_sum(v, base, m) == power_sum_naive(v, base, m)
    T = get_tables(base.p, base.n * m)
    arrays = {name for name, value in vars(T).items()
              if isinstance(value, np.ndarray)}
    assert arrays == {"trace_of_code", "const_code"} | ({"log"} if built
                                                        else set())


def test_cache_is_bounded_lru():
    cache = tables._tables
    cache.cache_clear()
    T = get_tables(2, 1)
    for n in range(2, tables._CACHE_SIZE + 4):
        get_tables(build_field(2, n))
        assert get_tables(2, 1) is T   # the most recent use keeps it
        assert cache.cache_info().currsize <= tables._CACHE_SIZE
    assert cache.cache_info().currsize == tables._CACHE_SIZE
    # the oldest entry, F_4's, was evicted: asking for it again is a miss
    misses = cache.cache_info().misses
    get_tables(2, 2)
    assert cache.cache_info().misses == misses + 1
    # keyed on (p, n): a context with another modulus reads the same entry
    assert get_tables(FieldCtx(2, 2, (1, 1, 1))) is get_tables(2, 2)
    assert cache.cache_info().misses == misses + 1
