"""The trace table of F_q, the one table that exact enumeration reads.

Nonzero elements are encoded by their discrete log with respect to a fixed
generator g (code e  <->  g^e, e in [0, q-1)); the zero element gets the
extra code q-1.  Multiplication is then index addition mod q-1, and the
trace is F_p-linear, so a sum of terms has the sum of their traces: no
field element is ever added.  Everything is integer-valued, so numpy
integer vector ops stay exact.  With N = q - 1 the tables are

  trace_of_code[i]  Tr(g^(i mod N)) to F_p for i < 2N, unsigned and as
                    narrow as a sum of two traces allows; a sum of two
                    codes below N and a window of N + 1 entries read it
  log[i]            the int32 code k whose trace window
                    sum_j Tr(g^(k+j)) p^j, j < n, is i; log[0] is the
                    zero code

The trace form is nondegenerate and g^0..g^(n-1) is a basis, so
y -> (Tr(g^j y))_{j<n} is a bijection from F_q onto F_p^n, and for y = g^k
that vector is the window of n consecutive entries of the m-sequence
trace_of_code that starts at k.  Sums over affine space, the torus and
SL2 read only traces and the codes of the constants, so
FieldTables.__init__ builds only trace_of_code and const_code, by integer
matrix passes over F_p and no F_q product: from the companion matrix M_x
of the modulus, the matrix of y = sum_i y_i x^i is sum_i y_i M_x^i, one
chain of squares per candidate tests it for a generator, and the table
is one blocked product summed in the narrowest unsigned type that holds
it.  log is built on first use, by complements,
whose h is decoded from its trace digits.  A base field larger than F_p
embeds into its subfield of codes r u, r = (q - 1)/(q_b - 1): embed_root
finds a root of the base modulus there by its trace digits, and embed
looks the digits of an image up among the subfield codes' trace windows,
both computed once per base.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

from .ffield import FieldCtx, FqElem, _factor

# the work budget's units per table element: the doubled trace_of_code
# (2 to 8 bytes) and the int32 log fit in it
TABLE_BYTES_PER_ELEMENT = 16
_CACHE_SIZE = 8
_CHUNK = 1 << 16  # elements per pass of the table builds


def _narrowest(bound: int):
    """The narrowest unsigned numpy type that holds bound."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if bound <= np.iinfo(t).max)


def _power_rows(step: np.ndarray, count: int, p: int) -> np.ndarray:
    """Rows 0..count-1: the coefficient vectors of h^0..h^(count-1), where
    step is the matrix of h.  Each pass doubles the block: the block times
    the matrix of h^len is the next block."""
    block = np.eye(1, step.shape[0], dtype=np.int64)
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

        # M_x^0..M_x^(2n-2) for the companion matrix M_x of the modulus:
        # row j of M_x is x^(j+1) mod f, the last row -f mod p.  The
        # matrix of multiplication by y = sum_i y_i x^i is
        # sum_i y_i M_x^i, y @ basis flattened, and Tr(y) is its trace.
        mul_x = np.eye(n, k=1, dtype=np.int64)
        mul_x[-1] = np.negative(ctx.modulus[:-1]) % p
        powers = [np.eye(n, dtype=np.int64)]
        for _ in range(2 * n - 2):
            powers.append(powers[-1] @ mul_x % p)
        powers = np.array(powers)
        basis = powers[:n].reshape(n, n * n)
        self.generator, mul_g, h = self._find_generator(basis)

        # With k = i L + j, g^k = sum_l V[i, l] x^l g^j, where row i of V
        # holds the coefficients of g^(iL).  Tr is F_p-linear, so
        # Tr(g^k) = sum_l V[i, l] W[l, j] with W[l, j] = Tr(x^l g^j), and
        # W = F G^T for the rows G of g^0..g^(L-1) and the trace form
        # F[k, l] = Tr(x^(k+l)).  Row L of G is g^L, whose matrix steps V.
        L = isqrt(N - 1) + 1 if N > 1 else 1   # ceil(sqrt(N))
        rows = -(-N // L)
        form = np.trace(powers, axis1=1, axis2=2) % p
        form = form[np.add.outer(np.arange(n), np.arange(n))]
        G = _power_rows(mul_g, L + 1, p)
        W = form @ G[:L].T % p
        V = _power_rows((G[L] @ basis % p).reshape(n, n), rows, p)
        # V W in row chunks of about _CHUNK entries, each a sum of n
        # products below p and so held exactly in the narrowest unsigned
        # type that reaches n (p-1)^2: uint8 for p = 5 up to n = 15.  A
        # chunk minus p times its floor quotient by p is the chunk mod p,
        # faster than np.remainder.
        acc = _narrowest(n * (p - 1) ** 2)
        V, W = V.astype(acc), W.astype(acc)
        # unsigned, so a sum of two traces minus p wraps below 0 (see
        # expsum._trace_sum)
        tr = np.empty(2 * N, dtype=_narrowest(2 * (p - 1)))
        chunk = max(1, _CHUNK // L)
        for i in range(0, rows, chunk):
            block = np.einsum("il,lj->ij", V[i:i + chunk], W)
            block -= block // p * p
            stop = min((i + chunk) * L, N)
            tr[i * L:stop] = block.reshape(-1)[:stop - i * L]
        tr[N:] = tr[:N]
        self.trace_of_code = tr

        # the constants: h = g^(N/(p-1)) generates F_p^*, so the code of
        # h^i is i N/(p-1); the zero constant has the zero code
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
        a run's digit j is a slice of the doubled trace table shifted by
        j."""
        n, p, N, tr = self.ctx.n, self.ctx.p, self.group_order, \
            self.trace_of_code
        log = np.full(self.q, -1, dtype=np.int32)
        log[0] = self.zero_code
        for start in range(0, N, _CHUNK):
            stop = min(start + _CHUNK, N)
            run = tr[start:stop + n - 1]
            index = np.zeros(stop - start, dtype=np.int64)
            for j in reversed(range(n)):   # Horner in p on the digits
                index *= p
                index += run[j:j + stop - start]
            log[index] = np.arange(start, stop, dtype=np.int32)
        if log.min() < 0:   # q writes left a slot empty: a repeated window
            raise RuntimeError("generator order mismatch")
        return log

    def _find_generator(self, basis: np.ndarray):
        """(g, M_g, h): g is the element_at of the first index whose
        element is primitive, M_g its matrix, and h the constant
        g^(N/(p-1)).  basis holds M_x^0..M_x^(n-1) as rows of n^2 entries,
        so M_g is sum_i g_i M_x^i.  g is primitive iff g^(N/l) != 1 for
        each prime l | N: along the chain of squares of M_g, one row pass
        per square raises the row of 1 to every exponent at once."""
        ctx = self.ctx
        p, n, N = ctx.p, ctx.n, self.group_order
        exps = np.array([N // ell for ell in _factor(N)] + [N // (p - 1)])
        bits = [exps >> k & 1 == 1 for k in range(N.bit_length())]
        one = np.eye(1, n, dtype=np.int64)
        # the constants' order divides p - 1 < N when n > 1
        for idx in range(p if n > 1 else 1, ctx.q):
            cand = ctx.element_at(idx)
            mul_g = square = (cand.coeffs @ basis % p).reshape(n, n)
            rows = one.repeat(len(exps), 0)
            for bit in bits:   # square = M_g^(2^k) at bit k
                rows[bit] = rows[bit] @ square % p
                square = square @ square % p
            if not (rows[:-1] == one).all(1).any():
                return cand, mul_g, int(rows[-1, 0])
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


@lru_cache(maxsize=_CACHE_SIZE)
def get_tables(ctx: FieldCtx) -> FieldTables:
    """The tables of ctx, kept for the _CACHE_SIZE most recently used fields;
    a FieldCtx hashes on (p, n, modulus)."""
    return FieldTables(ctx)
