"""Discrete-log tables for fast exact enumeration over F_q.

Nonzero elements are encoded by their discrete log with respect to a fixed
generator g (code e  <->  g^e, e in [0, q-1)); the zero element gets the
extra code q-1.  Multiplication is then index addition mod q-1 and field
addition goes through the Zech logarithm z(d) = log(1 + g^d).  Everything
is integer-valued, so numpy int64 vector ops stay exact.

An element is also indexed by its base-p integer: the coefficients of its
polynomial basis read as base-p digits, constant term lowest (as in
FieldCtx.element_at).  The tables are int32 arrays of length q:

  trace_of_code[e]  trace of g^e to F_p
  exp[e]            base-p index of g^e (exp[q-1] = 0, the zero element)
  log[i]            code of the element with base-p index i (log[exp] = codes)
  zech[d]           code of 1 + g^d, ZECH_SENTINEL where that is zero

Sums over affine space, the torus and SL2 read only traces and the codes of
the constants, so FieldTables.__init__ builds only trace_of_code, with one
blocked product over F_p, and const_code.  exp, log and zech are built on
first use, by code_of, element_of, vadd or embed_root: complements and
bases larger than F_p need them.  A fully built field holds 16 bytes per
element, which is what the work budget counts for it.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property
from math import isqrt

import numpy as np

from .ffield import FieldCtx, FqElem, _factor

ZECH_SENTINEL = -1
TABLE_BYTES_PER_ELEMENT = 16  # exp, log, zech and trace_of_code, int32 each
_CACHE_SIZE = 8
_CHUNK = 1 << 16  # elements per pass of the table builds and of vadd's gather


def _mul_matrix(ctx: FieldCtx, h: FqElem) -> np.ndarray:
    """Multiplication by h as an F_p-linear map on coefficient row vectors:
    row j holds the coefficients of x^j * h."""
    return np.array([(ctx.element([0] * j + [1]) * h).coeffs
                     for j in range(ctx.n)], dtype=np.int64)


def _power_rows(step: np.ndarray, count: int, p: int) -> np.ndarray:
    """Rows 0..count-1: the coefficient vectors of h^0..h^(count-1), where
    step is the matrix of h.  Each pass doubles the block: the block times
    the matrix of h^len is the next block.  Entries stay below n*p^2."""
    block = np.zeros((1, step.shape[0]), dtype=np.int64)
    block[0, 0] = 1
    while block.shape[0] < count:
        block = np.concatenate([block, block @ step % p])
        step = step @ step % p
    return block[:count]


class FieldTables:
    """Trace and constant codes of one field context, with exp/log/Zech
    tables built on first use."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        p, n, q = ctx.p, ctx.n, ctx.q
        self.q = q
        self.zero_code = q - 1
        self.group_order = N = q - 1

        gen = self._find_generator()
        self.generator = gen

        # With k = i L + j, g^k = sum_l V[i, l] x^l g^j, where row i of V
        # holds the coefficients of g^(iL).  Tr is F_p-linear, so
        # Tr(g^k) = sum_l V[i, l] W[l, j] with W[l, j] = Tr(x^l g^j), and
        # W = F G^T for the rows G of g^0..g^(L-1) and the trace form
        # F[k, l] = Tr(x^(k+l)), where Tr(y) is the trace of the matrix of
        # multiplication by y.  V W runs in row chunks of about _CHUNK
        # entries, each below n*p^2 and exact in int64.
        self._L = L = isqrt(N - 1) + 1 if N > 1 else 1   # ceil(sqrt(N))
        mul_x = _mul_matrix(ctx, ctx.element([0, 1]))
        power, tr_pow = np.eye(n, dtype=np.int64), []
        for _ in range(2 * n - 1):
            tr_pow.append(np.trace(power) % p)
            power = power @ mul_x % p
        form = np.array(tr_pow)[np.add.outer(np.arange(n), np.arange(n))]
        W = form @ _power_rows(_mul_matrix(ctx, gen), L, p).T % p
        V = _power_rows(_mul_matrix(ctx, gen ** L), -(-N // L), p)
        tr = np.zeros(q, dtype=np.int32)     # tr[q-1] = 0: the zero element
        rows = max(1, _CHUNK // L)
        for i in range(0, V.shape[0], rows):
            block = V[i:i + rows] @ W
            np.remainder(block, p, out=block)
            stop = min((i + rows) * L, N)
            tr[i * L:stop] = block.reshape(-1)[:stop - i * L]
        self.trace_of_code = tr

        # the constants: h = g^(N/(p-1)) generates F_p^*, so the code of
        # h^i is i N/(p-1); the zero constant has the zero code
        h = (gen ** (N // (p - 1))).coeffs[0]
        const = np.full(p, N, dtype=np.int64)
        c = 1
        for i in range(p - 1):
            const[c] = i * (N // (p - 1))
            c = c * h % p
        self.const_code = const

        self._embed_roots: dict = {}

    @cached_property
    def exp(self) -> np.ndarray:
        """Base-p index of g^e for each code e, by about sqrt(q) steps of a
        block of L powers by the matrix of g^L."""
        ctx, p, N, L = self.ctx, self.ctx.p, self.group_order, self._L
        block = _power_rows(_mul_matrix(ctx, self.generator), L, p)
        step = _mul_matrix(ctx, self.generator ** L)
        place = p ** np.arange(ctx.n, dtype=np.int64)   # base-p place values
        exp = np.zeros(self.q, dtype=np.int32)   # exp[q-1] = 0: zero element
        for start in range(0, N, L):
            stop = min(start + L, N)
            exp[start:stop] = block[:stop - start] @ place
            block = block @ step % p
        return exp

    @cached_property
    def log(self) -> np.ndarray:
        """Code of the element with each base-p index: exp inverted."""
        exp = self.exp
        log = np.full(self.q, -1, dtype=np.int32)
        for start in range(0, self.q, _CHUNK):
            stop = min(start + _CHUNK, self.q)
            log[exp[start:stop]] = np.arange(start, stop, dtype=np.int32)
        if log.min() < 0:   # q writes left a slot empty: a repeated power
            raise RuntimeError("generator order mismatch")
        return log

    @cached_property
    def zech(self) -> np.ndarray:
        """zech[d] = log(1 + g^d).  Adding 1 changes only the lowest base-p
        digit, which wraps from p-1 to 0 without a carry.  One extra
        sentinel slot so vector code may index d = q-1 on entries that the
        zero-operand masks discard anyway.  Fixed chunks keep the
        temporaries small next to the tables."""
        p, exp, log = self.ctx.p, self.exp, self.log
        zech = np.full(self.q, ZECH_SENTINEL, dtype=np.int32)
        for start in range(0, self.group_order, _CHUNK):
            stop = min(start + _CHUNK, self.group_order)
            one_plus = exp[start:stop] + 1
            one_plus[one_plus % p == 0] -= p
            chunk = log[one_plus]
            chunk[one_plus == 0] = ZECH_SENTINEL   # 1 + g^d = 0
            zech[start:stop] = chunk
        return zech

    def _find_generator(self) -> FqElem:
        ctx = self.ctx
        order = ctx.q - 1
        primes = _factor(order) if order > 1 else []
        for idx in range(1, ctx.q):
            cand = ctx.element_at(idx)
            if all((cand ** (order // ell)) != ctx.one() for ell in primes):
                return cand
        raise RuntimeError("no generator found")  # unreachable

    # -- codes of single elements ---------------------------------------------

    def code_of(self, x: FqElem) -> int:
        if x.ctx != self.ctx:
            raise ValueError("element from a different context")
        index = 0
        for c in reversed(x.coeffs):
            index = index * self.ctx.p + c
        return int(self.log[index])

    def element_of(self, code: int) -> FqElem:
        return self.ctx.element_at(int(self.exp[code]))

    # -- vector code arithmetic (numpy integer arrays of codes) ---------------
    #
    # Codes live in [0, q-1] with q-1 encoding zero, so sums of two codes stay
    # below 2(q-1) and a compare-and-subtract replaces the integer division of
    # a true modulo.  Each result is computed in place, the Zech gather a
    # chunk at a time, so an operation holds one new array besides its
    # operands.

    def _fold(self, t: np.ndarray) -> np.ndarray:
        n = self.group_order
        np.subtract(t, n, out=t, where=t >= n)
        return t

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        z = self.zero_code
        t = b - a   # a new array of the operands' broadcast shape
        np.add(t, self.group_order, out=t, where=t < 0)
        flat = t.reshape(-1)
        for i in range(0, flat.size, _CHUNK):   # t = zech[t]
            flat[i:i + _CHUNK] = self.zech[flat[i:i + _CHUNK]]
        # a sentinel stays in place through the sum: no sum of codes is < 0
        self._fold(np.add(a, t, out=t, where=t != ZECH_SENTINEL))
        np.copyto(t, z, where=t == ZECH_SENTINEL)
        np.copyto(t, a, where=b == z)
        np.copyto(t, b, where=a == z)
        return t

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        z = self.zero_code
        t = self._fold(a + b)
        np.copyto(t, z, where=(a == z) | (b == z))
        return t

    # -- embedding of a base field into this one ------------------------------

    def embed_root(self, base: FieldCtx) -> int:
        """Smallest code of a root of the base modulus in this field (one
        Horner pass over all nonzero codes, cached).  Hosting the base field
        requires base.p == p and base.n | n."""
        key = (base.p, base.n, base.modulus)
        if key in self._embed_roots:
            return self._embed_roots[key]
        if base.p != self.ctx.p or self.ctx.n % base.n != 0:
            raise ValueError("base field does not embed into this context")
        if base.n == 1:
            root = self.zero_code  # modulus is x; constants embed canonically
        else:
            cand = np.arange(self.group_order, dtype=np.int64)
            acc = np.full_like(cand, self.const_code[base.modulus[-1] % base.p])
            for c in reversed(base.modulus[:-1]):
                acc = self.vadd(self.vmul(acc, cand),
                                int(self.const_code[c % base.p]))
            roots = np.flatnonzero(acc == self.zero_code)
            if roots.size == 0:
                raise RuntimeError("no root of base modulus found")
            root = int(roots[0])
        self._embed_roots[key] = root
        return root

    def embed(self, x: FqElem, base: FieldCtx) -> int:
        """Code of the image of a base-field element under the cached
        embedding: Horner's rule in FqElem at the root."""
        root = self.element_of(self.embed_root(base))
        acc = self.ctx.zero()
        for c in reversed(x.coeffs):
            acc = acc * root + c
        return self.code_of(acc)


_CACHE: OrderedDict = OrderedDict()


def get_tables(ctx: FieldCtx) -> FieldTables:
    """The tables of ctx, kept for the _CACHE_SIZE most recently used fields."""
    key = (ctx.p, ctx.n, ctx.modulus)
    if key in _CACHE:
        _CACHE.move_to_end(key)
    else:
        _CACHE[key] = FieldTables(ctx)
        if len(_CACHE) > _CACHE_SIZE:
            _CACHE.popitem(last=False)
    return _CACHE[key]
