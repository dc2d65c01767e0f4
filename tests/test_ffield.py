import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab.ffield import (CrossContextError, CyclotomicInt, CyclotomicRat,
                              FieldCtx, _is_irreducible, additive_character,
                              build_field, galois_twist, trace, trace_to_prime)


# -- field construction ---------------------------------------------------------

def _irreducible_quadratics_over_f3():
    # exhaustive oracle: monic x^2 + c1 x + c0 without a root in F_3
    out = []
    for c1 in range(3):
        for c0 in range(3):
            if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                out.append((c0, c1, 1))
    return out


def test_build_field_prime_fields():
    assert build_field(2, 1).modulus == (0, 1)
    assert build_field(5, 1).modulus == (0, 1)
    assert build_field(5, 1).q == 5


def test_build_field_f9_lex_smallest():
    candidates = _irreducible_quadratics_over_f3()
    # enumeration order of the builder: constant digit least significant
    ranked = sorted(candidates, key=lambda m: m[0] + 3 * m[1])
    assert build_field(3, 2).modulus == ranked[0]


def test_build_field_deterministic_and_irreducible():
    for p, n in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        ctx = build_field(p, n)
        assert ctx == build_field(p, n)
        assert len(ctx.modulus) == n + 1
        # no roots in the prime field unless n == 1
        assert all(
            sum(c * pow(x, i, p) for i, c in enumerate(ctx.modulus)) % p != 0
            for x in range(p))


def test_build_field_tests_each_candidate_once():
    # the search runs Rabin's test once on each candidate modulus, and
    # FieldCtx's check of the modulus it returns finds the result memoised
    _is_irreducible.cache_clear()
    ctx = build_field.__wrapped__(5, 8)
    info = _is_irreducible.cache_info()
    rank = sum(c * 5 ** i for i, c in enumerate(ctx.modulus[:-1]))
    assert (info.misses, info.hits) == (rank + 1, 1)


def test_build_field_rejects_bad_input():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(5, 0)
    with pytest.raises(ValueError):
        FieldCtx(2, 2, (0, 0, 1))  # x^2 is reducible


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 2), (3, 4), (5, 2),
                                 (7, 1), (13, 2)])
def test_element_enumeration_and_frobenius(p, n):
    ctx = build_field(p, n)
    els = list(ctx.elements())
    assert len(set(els)) == p ** n
    fixed = [x for x in els if x ** p == x]
    assert len(fixed) == p  # Frobenius fixes exactly the prime subfield


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 1), (13, 2)])
def test_trace_linear_and_surjective(p, n):
    ctx = build_field(p, n)
    fibers = {t: 0 for t in range(p)}
    for x in ctx.elements():
        fibers[trace_to_prime(x)] += 1
    assert all(count == p ** (n - 1) for count in fibers.values())
    a, b = ctx.element_at(1), ctx.element_at(p ** n - 1)
    assert trace(a + b) == trace(a) + trace(b)
    assert trace(ctx.from_int(2) * a) == ctx.from_int(2) * trace(a)


def test_trace_examples():
    f4 = build_field(2, 2)
    alpha = f4.element([0, 1])
    assert trace_to_prime(f4.one()) == 0          # 1 + 1 in characteristic 2
    assert trace_to_prime(alpha) == 1             # alpha + alpha^2
    f5 = build_field(5, 1)
    x = f5.from_int(3)
    assert trace(x) == x                          # identity on the prime field


def test_field_arithmetic_and_inverse():
    ctx = build_field(3, 2)
    for x in ctx.elements():
        if not x.is_zero():
            assert x * x.inverse() == ctx.one()
            assert (ctx.one() / x) * x == ctx.one()
    a = ctx.element([1, 2])
    assert a ** 9 == a  # x^(q) = x
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inverse()


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5, 7, 11, 31)
                                 for n in range(1, 11) if p ** n <= 1024])
def test_irreducible_count_matches_gauss(p, n):
    # Gauss: (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles of degree n
    found = sum(_is_irreducible(tuple(low) + (1,), p)
                for low in itertools.product(range(p), repeat=n))
    gauss = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert found * n == gauss


def _reference_reduce(a, modulus, p):
    """Long division by the modulus over F_p, one top coefficient at a time."""
    a = [c % p for c in a]
    n = len(modulus) - 1
    lead_inv = pow(modulus[-1], -1, p)
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k] * lead_inv % p
        for i, m in enumerate(modulus):
            a[k - n + i] = (a[k - n + i] - c * m) % p
    return tuple(a[:n] + [0] * (n - len(a)))


def _reference_mul(a, b, modulus, p):
    """Schoolbook product, then long division."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _reference_reduce(out, modulus, p)


REFERENCE_FIELDS = [build_field(2, 8), build_field(3, 5), build_field(5, 4),
                    build_field(7, 3), FieldCtx(3, 2, (2, 1, 1))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFERENCE_FIELDS), st.data())
def test_field_arithmetic_matches_long_division(ctx, data):
    p, n, m = ctx.p, ctx.n, ctx.modulus
    index = st.integers(0, ctx.q - 1)
    x = ctx.element_at(data.draw(index))
    y = ctx.element_at(data.draw(index))
    one = ctx.one().coeffs
    assert (x * y).coeffs == _reference_mul(x.coeffs, y.coeffs, m, p)
    e = data.draw(st.integers(0, 40))
    want = one
    for _ in range(e):
        want = _reference_mul(want, x.coeffs, m, p)
    assert (x ** e).coeffs == want
    long = data.draw(st.lists(st.integers(-30, 30), min_size=n + 1,
                              max_size=3 * n + 2))
    assert ctx.element(long).coeffs == _reference_reduce(long, m, p)
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        return
    inv = y.inverse().coeffs
    assert _reference_mul(inv, y.coeffs, m, p) == one
    assert _reference_mul((y ** -e).coeffs, (y ** e).coeffs, m, p) == one
    assert _reference_mul((x / y).coeffs, y.coeffs, m, p) == x.coeffs


def test_cross_context_is_hard_error():
    a = build_field(3, 1).from_int(1)
    b = build_field(5, 1).from_int(1)
    with pytest.raises(CrossContextError):
        a + b
    c = FieldCtx(3, 2, (1, 0, 1))
    d = FieldCtx(3, 2, (2, 1, 1))  # different modulus, same field size
    with pytest.raises(CrossContextError):
        c.one() * d.one()


# -- cyclotomic integers ----------------------------------------------------------

def _mul_oracle(a: CyclotomicInt, b: CyclotomicInt) -> CyclotomicInt:
    # independent route: multiply as vectors mod (z^p - 1), then remove the
    # z^(p-1) coordinate with 1 + z + ... + z^(p-1) = 0
    p = a.p
    av = list(a.coords) + [0]
    bv = list(b.coords) + [0]
    full = [0] * p
    for i, x in enumerate(av):
        for j, y in enumerate(bv):
            full[(i + j) % p] += x * y
    return CyclotomicInt(p, [full[i] - full[p - 1] for i in range(p - 1)])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_character_sum_vanishes(p):
    total = CyclotomicInt.zero(p)
    for a in range(p):
        total = total + additive_character(p, a)
    assert total.is_zero()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_character_is_homomorphism(p):
    for a in range(p):
        for b in range(p):
            assert (additive_character(p, a) * additive_character(p, b)
                    == additive_character(p, (a + b) % p))
    assert additive_character(p, 0) == CyclotomicInt.one(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.sampled_from([2, 3, 5, 7]))
def test_ring_axioms_random(i, j, k, p):
    def rand(seed):
        return CyclotomicInt(p, [(seed * (t + 2) ** 2 + t) % 7 - 3
                                 for t in range(p - 1)])
    a, b, c = rand(i), rand(j), rand(k)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a * b == _mul_oracle(a, b)


def test_p2_degenerates_to_integers():
    one = CyclotomicInt.one(2)
    zeta = CyclotomicInt.zeta(2)
    assert zeta == CyclotomicInt(2, [-1])
    assert zeta * zeta == one
    assert additive_character(2, 1) + additive_character(2, 0) == \
        CyclotomicInt.zero(2)


def test_galois_twist_properties():
    p = 7
    one = CyclotomicInt.one(p)
    for u in range(1, p):
        assert galois_twist(one, u) == one
        for a in range(p):
            assert galois_twist(additive_character(p, a), u) == \
                additive_character(p, (u * a) % p)
    z = CyclotomicInt.zeta(p)
    # zeta^(p-1) rewrites to -(1 + zeta + ... + zeta^(p-2))
    assert galois_twist(z, p - 1) == CyclotomicInt(p, [-1] * (p - 1))
    a = CyclotomicInt(p, [1, -2, 3, 0, 5, 1])
    b = CyclotomicInt(p, [0, 4, -1, 2, 2, -3])
    for u in (2, 3, 5):
        assert galois_twist(a * b, u) == galois_twist(a, u) * galois_twist(b, u)
    with pytest.raises(ValueError):
        galois_twist(a, 7)


def test_rational_cyclotomic_field_ops():
    from fractions import Fraction
    for p in (2, 3, 5, 7):
        x = CyclotomicRat(p, [Fraction(i + 1, i + 2) for i in range(p - 1)])
        assert x * x.inverse() == CyclotomicRat.one(p)
        assert (x / x) == CyclotomicRat.one(p)
    y = CyclotomicRat.from_rational(5, Fraction(3, 4))
    assert y.as_rational() == Fraction(3, 4)
    with pytest.raises(ValueError):
        CyclotomicRat(5, [0, 1, 0, 0]).as_rational()
    with pytest.raises(ZeroDivisionError):
        CyclotomicRat.zero(3).inverse()


# -- one quotient-ring core for Z[zeta_p], Q(zeta_p) and Q(pi) -------------------

def _reference_product(p, a, b, top):
    """Schoolbook product of coordinate vectors for 1, y, ..., y^(p-2),
    rewriting each y^k with k >= p-1 by the ring's rule `top`."""
    out = [0] * (p - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                top(out, i + j, x * y)
    return out


def _zeta_rule(p):
    def top(out, k, c):
        k %= p                      # zeta^p = 1
        if k < p - 1:
            out[k] += c
        else:                       # zeta^(p-1) = -(1 + ... + zeta^(p-2))
            for t in range(p - 1):
                out[t] -= c
    return top


def _pi_rule(p):
    def top(out, k, c):
        if k < p - 1:
            out[k] += c
        else:                       # pi^(p-1) = -p
            out[k - (p - 1)] -= p * c
    return top


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quotient_ring_products_match_reference(data):
    from fractions import Fraction

    from expsumlab.padic import PiNumber
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    ints = st.lists(st.integers(-50, 50), min_size=p - 1, max_size=p - 1)
    rats = st.lists(st.fractions(-20, 20, max_denominator=9),
                    min_size=p - 1, max_size=p - 1)
    a, b = data.draw(ints), data.draw(ints)
    assert list((CyclotomicInt(p, a) * CyclotomicInt(p, b)).coords) == \
        _reference_product(p, a, b, _zeta_rule(p))
    a, b = data.draw(rats), data.draw(rats)
    got = (CyclotomicRat(p, a) * CyclotomicRat(p, b)).coords
    assert list(got) == _reference_product(p, a, b, _zeta_rule(p))
    assert all(type(c) is Fraction for c in got)
    got = (PiNumber(p, a) * PiNumber(p, b)).coords
    assert list(got) == _reference_product(p, a, b, _pi_rule(p))
    assert all(type(c) is Fraction for c in got)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_from_poly_matches_ring_arithmetic(data):
    # sum c_k y^k accumulated with powers of y = zeta or pi, y built from
    # its coordinates, against one reduction of the whole polynomial
    from expsumlab.padic import PiNumber
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    ints = st.integers(-50, 50)
    mixed = ints | st.fractions(-20, 20, max_denominator=9)
    rings = ((CyclotomicInt, ints, -1, CyclotomicInt.zeta),
             (CyclotomicRat, mixed, -1, None),
             (PiNumber, mixed, -2, PiNumber.pi))
    for ring, coef, y_at_2, generator in rings:
        y = ring(p, [0, 1] + [0] * (p - 3)) if p > 2 else ring(2, [y_at_2])
        assert ring.from_poly(p, [0, 1]) == y
        if generator is not None:
            assert generator(p) == y
        poly = data.draw(st.lists(coef, max_size=3 * p))
        expected, power = ring.zero(p), ring.one(p)
        for c in poly:
            expected = expected + power * c
            power = power * y
        got = ring.from_poly(p, poly)
        assert got == expected
        assert all(type(c) is ring._coord for c in got.coords)
        for k in range(3 * p + 1):
            assert ring.from_poly(p, [0] * k) == ring.zero(p)


@st.composite
def _ring_coordinates(draw, p, entry, sparse):
    """p - 1 coordinates drawn from `entry`: all zero, or at most `sparse`
    nonzero ones at random places (None: every place drawn)."""
    if draw(st.integers(0, 9)) == 0:
        return [0] * (p - 1)
    if sparse is None:
        return draw(st.lists(entry, min_size=p - 1, max_size=p - 1))
    out = [0] * (p - 1)
    for k, c in draw(st.dictionaries(st.integers(0, p - 2), entry,
                                     max_size=sparse)).items():
        out[k] = c
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kronecker_products_and_inverses_match_reference(data):
    # the one product (a Kronecker convolution, folded by the ring) against
    # the schoolbook, and the one inverse (extended Euclid on integer
    # vectors) by x x^-1 = 1: mixed-sign coordinates of up to 300 bits,
    # fractions with denominators up to 2^64, zero operands, and p = 1009,
    # where the operands are sparse and the inverted ones c y^k
    from fractions import Fraction

    from expsumlab.padic import PiNumber
    p = data.draw(st.sampled_from([2, 3, 5, 7, 1009]))
    sparse = 6 if p == 1009 else None
    big = st.integers(-2 ** 300, 2 ** 300)
    rational = st.builds(Fraction, big, st.integers(1, 2 ** 64)) | big
    for ring, entry, rule in ((CyclotomicInt, big, _zeta_rule),
                              (CyclotomicRat, rational, _zeta_rule),
                              (PiNumber, rational, _pi_rule)):
        a = data.draw(_ring_coordinates(p, entry, sparse))
        b = data.draw(_ring_coordinates(p, entry, sparse))
        x, y = ring(p, a), ring(p, b)
        assert list((x * y).coords) == _reference_product(p, a, b, rule(p))
        assert all(type(c) is ring._coord for c in (x * y).coords)
        if ring is CyclotomicInt:
            continue
        if p == 1009:
            k = data.draw(st.integers(0, p - 2))
            x = ring.from_poly(p, [0] * k + [data.draw(rational)])
        if not x:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            continue
        inv = x.inverse()
        assert x * inv == ring.one(p) and inv * x == ring.one(p)
        assert inv.inverse() == x
        assert y / x == y * inv
