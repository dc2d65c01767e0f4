"""Discrete-log tables for fast exact enumeration over F_q.

Nonzero elements are encoded by their discrete log with respect to a fixed
generator g (code e  <->  g^e, e in [0, q-1)); the zero element gets the
extra code q-1.  Multiplication is then index addition mod q-1 and field
addition goes through the Zech logarithm z(d) = log(1 + g^d).  Everything
is integer-valued, so numpy int64 vector ops stay exact.

An element is also indexed by its base-p integer: the coefficients of its
polynomial basis read as base-p digits, constant term lowest (as in
FieldCtx.element_at).  Four int32 arrays of length q hold the tables, so a
field costs 16 bytes per element:

  exp[e]            base-p index of g^e (exp[q-1] = 0, the zero element)
  log[i]            code of the element with base-p index i (log[exp] = codes)
  zech[d]           code of 1 + g^d, ZECH_SENTINEL where that is zero
  trace_of_code[e]  trace of g^e to F_p

They are built by a few integer matrix passes over F_p, not one element at
a time (see FieldTables.__init__).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .ffield import FieldCtx, FqElem, _factor, trace_to_prime

ZECH_SENTINEL = -1
TABLE_BYTES_PER_ELEMENT = 16  # exp, log, zech and trace_of_code, int32 each
_CACHE_SIZE = 8
_CHUNK = 1 << 16  # elements per pass of the zech build and of vadd's gather


class FieldTables:
    """Exp/log/Zech/trace tables for one field context."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        p, n, q = ctx.p, ctx.n, ctx.q
        self.q = q
        self.zero_code = q - 1
        self.group_order = q - 1

        gen = self._find_generator()
        self.generator = gen

        # Multiplication by g is the F_p-linear map whose matrix has row j =
        # coefficients of g*x^j, so a block of row vectors g^i..g^(i+L-1)
        # times the matrix of g^L is the next block.  Doubling builds the
        # first block of L >= sqrt(q) powers; then about sqrt(q) block steps
        # fill the table.  Entries stay below n*p^2, exact in int64.
        step = np.array([(ctx.element([0] * j + [1]) * gen).coeffs
                         for j in range(n)], dtype=np.int64)
        block = np.zeros((1, n), dtype=np.int64)
        block[0, 0] = 1
        while block.shape[0] ** 2 < q:
            block = np.concatenate([block, block @ step % p])
            step = step @ step % p
        place = p ** np.arange(n, dtype=np.int64)   # base-p place values
        tr_basis = np.array([trace_to_prime(ctx.element([0] * j + [1]))
                             for j in range(n)], dtype=np.int64)
        exp = np.zeros(q, dtype=np.int32)    # exp[q-1] = 0: the zero element
        tr = np.zeros(q, dtype=np.int32)     # so is its trace
        log = np.full(q, -1, dtype=np.int32)
        log[0] = q - 1
        L = block.shape[0]
        for start in range(0, q - 1, L):
            stop = min(start + L, q - 1)
            rows = block[:stop - start]
            exp[start:stop] = rows @ place
            tr[start:stop] = rows @ tr_basis % p
            log[exp[start:stop]] = np.arange(start, stop, dtype=np.int32)
            block = block @ step % p
        if log.min() < 0:   # q writes left a slot empty: a repeated power
            raise RuntimeError("generator order mismatch")
        self.exp = exp
        self.log = log
        self.trace_of_code = tr

        # Zech logs: zech[d] = log(1 + g^d).  Adding 1 changes only the
        # lowest base-p digit, which wraps from p-1 to 0 without a carry.
        # One extra sentinel slot so vector code may index d = q-1 on
        # entries that the zero-operand masks discard anyway.  Fixed chunks
        # keep the temporaries small next to the tables.
        zech = np.full(q, ZECH_SENTINEL, dtype=np.int32)
        for start in range(0, q - 1, _CHUNK):
            stop = min(start + _CHUNK, q - 1)
            one_plus = exp[start:stop] + 1
            one_plus[one_plus % p == 0] -= p
            chunk = log[one_plus]
            chunk[one_plus == 0] = ZECH_SENTINEL   # 1 + g^d = 0
            zech[start:stop] = chunk
        self.zech = zech

        # the prime-field constants 0..p-1 have base-p indices 0..p-1
        self.const_code = log[:p].astype(np.int64)

        self._embed_roots: dict = {}

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
