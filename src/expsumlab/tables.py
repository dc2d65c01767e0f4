"""The trace table of F_q, the one table that exact enumeration reads.

Nonzero elements are encoded by their discrete log with respect to a fixed
generator g (code e  <->  g^e, e in [0, q-1)); the zero element gets the
extra code q-1.  Multiplication is then index addition mod q-1, and the
trace is F_p-linear, so a sum of terms has the sum of their traces: no
field element is ever added.  Everything is integer-valued, so numpy
integer vector ops stay exact.  The tables are int32 arrays of length q:

  trace_of_code[e]  trace of g^e to F_p, 0 at the zero code
  log[i]            the code k whose trace window sum_j Tr(g^(k+j)) p^j,
                    j < n, is i; log[0] is the zero code

The trace form is nondegenerate and g^0..g^(n-1) is a basis, so
y -> (Tr(g^j y))_{j<n} is a bijection from F_q onto F_p^n, and for y = g^k
that vector is the window of n consecutive entries of the m-sequence
trace_of_code that starts at k.  Sums over affine space, the torus and
SL2 read only traces and the codes of the constants, so
FieldTables.__init__ builds only trace_of_code, with one blocked product
over F_p, and const_code.  log is built on first use, by complements,
whose h is decoded from its trace digits.  A base field larger than F_p
embeds into its subfield of codes r u, r = (q - 1)/(q_b - 1): embed_root
finds a root of the base modulus there by its trace digits, and embed
looks the digits of an image up among the subfield codes' trace windows,
both computed once per base.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property
from math import isqrt

import numpy as np

from .ffield import FieldCtx, FqElem, _factor

# the work budget's units per table element: trace_of_code and log are
# int32, and each set of copies of the trace table that a sum reads must
# fit in it (see expsum._trace_sum)
TABLE_BYTES_PER_ELEMENT = 16
_CACHE_SIZE = 8
_CHUNK = 1 << 16  # elements per pass of the table builds


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
    """Trace and constant codes of one field context, with the window
    decoder log built on first use."""

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
        L = isqrt(N - 1) + 1 if N > 1 else 1   # ceil(sqrt(N))
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

        self._embeddings: dict = {}

    @cached_property
    def log(self) -> np.ndarray:
        """The window decoder: log[sum_j Tr(g^(k+j)) p^j] = k, j < n, and
        log[0] is the zero code.  The codes go through in _CHUNK runs, and
        a run's digit j is a slice of the trace table shifted by j; the
        last run reads past g^(q-2) on from g^0."""
        n, p, N, tr = self.ctx.n, self.ctx.p, self.group_order, \
            self.trace_of_code
        log = np.full(self.q, -1, dtype=np.int32)
        log[0] = self.zero_code
        for start in range(0, N, _CHUNK):
            stop = min(start + _CHUNK, N)
            run = tr[start:stop + n - 1]
            if stop + n - 1 > N:
                run = np.concatenate([tr[start:N], tr[:stop + n - 1 - N]])
            index = np.zeros(stop - start, dtype=np.int64)
            for j in reversed(range(n)):   # Horner in p on the digits
                index *= p
                index += run[j:j + stop - start]
            log[index] = np.arange(start, stop, dtype=np.int32)
        if log.min() < 0:   # q writes left a slot empty: a repeated window
            raise RuntimeError("generator order mismatch")
        return log

    def _find_generator(self) -> FqElem:
        ctx = self.ctx
        order = ctx.q - 1
        primes = _factor(order) if order > 1 else []
        for idx in range(1, ctx.q):
            cand = ctx.element_at(idx)
            if all((cand ** (order // ell)) != ctx.one() for ell in primes):
                return cand
        raise RuntimeError("no generator found")  # unreachable

    # -- embedding of a base field into this one ------------------------------

    def _trace_digits(self, codes, coeffs=(0, 1)) -> np.ndarray:
        """Column u: the trace digits Tr(g^j y) mod p, j < n, of
        y = sum_i coeffs[i] g^(i codes[u]).  Tr is F_p-linear, so digit j
        is sum_i coeffs[i] Tr(g^(j + i codes[u])); the default coeffs give
        the window of g^codes[u]."""
        j = np.arange(self.ctx.n)[:, None]
        digits = sum(c * self.trace_of_code[(j + i * codes) % self.group_order]
                     .astype(np.int64) for i, c in enumerate(coeffs) if c)
        return np.remainder(digits, self.ctx.p)

    def _subfield_codes(self, base: FieldCtx) -> np.ndarray:
        """The codes r u, r = (q - 1)/(q_b - 1), of the nonzero elements
        of the subfield with q_b = base.q elements.  Hosting the base field
        requires base.p == p and base.n | n."""
        if base.p != self.ctx.p or self.ctx.n % base.n != 0:
            raise ValueError("base field does not embed into this context")
        return np.arange(0, self.group_order, self.group_order
                         // (base.q - 1), dtype=np.int64)

    def _embedding(self, base: FieldCtx):
        """(root, windows) for the base field, cached: root is the smallest
        code of a root of the base modulus in this field, and windows maps
        the trace digits of each subfield code u, as a tuple, to u.  The
        roots lie in the subfield, and y = modulus(g^k) is zero exactly
        where all of its trace digits are."""
        key = (base.p, base.n, base.modulus)
        if key not in self._embeddings:
            codes = self._subfield_codes(base)
            roots = codes[~self._trace_digits(codes, base.modulus).any(0)]
            windows = zip(map(tuple, self._trace_digits(codes).T.tolist()),
                          codes.tolist())
            # deg | n: a root exists
            self._embeddings[key] = int(roots[0]), dict(windows)
        return self._embeddings[key]

    def embed_root(self, base: FieldCtx) -> int:
        """Smallest code of a root of the base modulus in this field."""
        return self._embedding(base)[0]

    def embed(self, x: FqElem, base: FieldCtx) -> int:
        """Code of the image of a base-field element under the cached
        embedding: the subfield code whose trace window equals the digits
        of sum_i x_i root^i.  A prime-field element is its constant."""
        if x.in_prime_field():
            return int(self.const_code[x.coeffs[0]])
        root, windows = self._embedding(base)
        digits = self._trace_digits(root, x.coeffs)[:, 0]
        return windows[tuple(digits.tolist())]


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
