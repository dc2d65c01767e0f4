"""The trace table of F_q, the one table that exact enumeration reads.

F_q is F_p[y]/(mu) for the first monic mu of degree n over F_p, in
build_field's order, whose root y has order N = q - 1.  The nonzero y^e has
the code e < N and zero the code N, so a product is a sum of codes, and as
Tr is F_p-linear no field element is ever added.  trace_of_code[i] is
Tr(y^(i mod N)) for i < 2N, unsigned and as narrow as a sum of two traces
allows.  y^0..y^(n-1) is a basis and the trace form is nondegenerate, so
the window of n entries at k determines y^k, and log[i], built on first use
(by complements), is the int32 code k whose window sum_j Tr(y^(k+j)) p^j is
i, log[0] the zero code.  Tr(y^k) is the linear recurring sequence of mu,
t_(k+n) = -sum_(i<n) mu_i t_(k+i), so no field is built: one chain of
squares of companion matrices certifies mu, and the table is one blocked
product over F_p.  A base field embeds into the subfield of codes r u,
r = (q - 1)/(q_b - 1), where the trace digits of its modulus find a root.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice
from math import isqrt

import numpy as np

from .ffield import FieldCtx, FqElem, _factor

# the work budget's units per table element: the doubled trace_of_code
# (2 to 8 bytes) and the int32 log fit in it
TABLE_BYTES_PER_ELEMENT = 16
_CACHE_SIZE = 8
_CHUNK = 1 << 16  # elements per pass of the table builds
_BATCH = 8   # the search's first run of candidates and batch to certify


def _narrowest(bound: int):
    """The narrowest unsigned numpy type that holds bound."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if bound <= np.iinfo(t).max)


def _power_rows(step: np.ndarray, count: int, p: int,
                block: np.ndarray) -> np.ndarray:
    """Rows i < count: block's one row times step^i; each pass doubles it."""
    while block.shape[0] < count:
        block = np.concatenate([block, block @ step % p])
        step = step @ step % p
    return block[:count]


def _companions(mu: np.ndarray, p: int) -> np.ndarray:
    """The matrices of y on F_p[y]/(mu) for each row mu_0..mu_(n-1) of mu:
    row j is y^(j+1) mod mu, the last row -mu mod p."""
    n = mu.shape[1]
    mat = np.zeros((len(mu), n, n), dtype=np.int64)
    mat[:, :-1, 1:] = np.eye(n - 1, dtype=np.int64)
    mat[:, -1] = np.negative(mu) % p
    return mat


def _candidates(p: int, n: int):
    """The rows mu_0..mu_(n-1) of the monic mu of degree n, in build_field's
    order (the base-p digits of a counter, in runs that double), whose root
    y may have order N = p^n - 1: its norm y^R, R = N/(p-1), is
    h = (-1)^n mu_0, a primitive root mod p, and for n >= 2 mu has no root
    in F_p and is not x^n + mu_0 (y^n = -mu_0: order | n (p - 1) < N)."""
    units = _factor(p - 1)
    powers = np.ones((n + 1, p), dtype=np.int64)   # a^i mod p, a in F_p
    for i in range(n):
        powers[i + 1] = powers[i] * np.arange(p) % p
    start, size = p if n > 1 else 0, _BATCH
    while start < p ** n:
        k = np.arange(start, min(start + size, p ** n), dtype=np.int64)
        mu = k[:, None] // np.array([p ** i for i in range(n)]) % p
        mu = mu[[h > 0 and all(pow(h, (p - 1) // ell, p) != 1 for ell in units)
                 for h in ((-1) ** n * mu[:, 0] % p).tolist()]]
        if n > 1:   # mu at every a in F_p
            mu = mu[((mu @ powers[:n] + powers[n]) % p).all(1)]
        yield from mu
        start, size = start + size, 2 * size


def _certified(mu: np.ndarray, p: int, exps: np.ndarray) -> np.ndarray:
    """For each row of a batch of _candidates, whether y has order N: iff
    y^R = h (exps[0] = R; h is a primitive root, which settles each prime
    l | p - 1) and y^e != 1 for the other e in exps, N/l for each prime
    l | R prime to p - 1.  Order N makes F_p[y]/(mu) a field, so this is an
    irreducibility test too.  Along one chain of squares of the companion
    matrices, a row pass per square raises 1 to every exponent at once."""
    n = mu.shape[1]
    one = np.eye(1, n, dtype=np.int64)
    square = _companions(mu, p)
    rows = np.zeros((len(mu), len(exps), n), dtype=np.int64)
    rows[..., 0] = 1
    for k in range(int(exps.max()).bit_length()):   # square = M^(2^k)
        square = square @ square % p if k else square
        bit = exps >> k & 1 == 1
        rows[:, bit] = rows[:, bit] @ square % p
    h = (-1) ** n * mu[:, :1] % p
    return (rows[:, 0] == h * one).all(1) & ~(rows[:, 1:] == one).all(2).any(1)


def _primitive_polynomial(p: int, n: int) -> list:
    """mu_0..mu_(n-1) of the first of the _candidates whose root has order
    N = p^n - 1, certified in batches that double."""
    R = (p ** n - 1) // (p - 1)
    exps = np.array([R] + [R * (p - 1) // ell for ell in _factor(R)
                           if (p - 1) % ell])
    candidates, size = _candidates(p, n), _BATCH
    while True:   # a primitive polynomial of every degree exists
        mu = np.array([*islice(candidates, size)])
        ok = _certified(mu, p, exps)
        if ok.any():
            return mu[ok.argmax()].tolist()
        size *= 2


class FieldTables:
    """Trace and constant codes of F_{p^n} on its primitive polynomial
    (modulus), with the window decoder log built on first use."""

    def __init__(self, p: int, n: int):
        self.p, self.n, self.q = p, n, p ** n
        self.zero_code = self.group_order = N = self.q - 1
        mu = _primitive_polynomial(p, n)
        self.modulus = tuple(mu) + (1,)

        # t_k = Tr(y^k), the k-th power sum of mu's roots: t_0 = n, and
        # t_k = -(k mu_(n-k) + sum_(0<i<k) mu_(n-i) t_(k-i)) for 0 < k < n
        # by Newton's identities.  With k = i L + j and y^j = sum_l G[j, l]
        # y^l, t_k = sum_l V[i, l] W[l, j]: row i of V is the state
        # t_(iL)..t_(iL+n-1) and W = G^T over y^0..y^(L-1).  The state at
        # (i+1) L is the one at iL times G^T over y^L..y^(L+n-1).
        t = [n % p]
        for k in range(1, n):
            t.append(-(k * mu[n - k] + sum(mu[n - i] * t[k - i]
                                           for i in range(1, k))) % p)
        L = isqrt(N - 1) + 1 if N > 1 else 1   # ceil(sqrt(N))
        rows = -(-N // L)
        G = _power_rows(_companions(np.array([mu]), p)[0], L + n, p,
                        np.eye(1, n, dtype=np.int64))
        V = _power_rows(G[L:].T, rows, p, np.array([t], dtype=np.int64))
        # V W (W contiguous, read by rows) in chunks of about _CHUNK, each
        # entry a sum of n products below p, exact in the narrowest unsigned
        # type that reaches n (p-1)^2 (uint8 for p = 5 up to n = 15), less p
        # times its floor quotient by p.  The table is unsigned: a sum of two
        # traces minus p wraps below 0 (see expsum._trace_sum).
        acc = _narrowest(n * (p - 1) ** 2)
        V, W = V.astype(acc), G[:L].T.astype(acc, order="C")
        tr = np.empty(2 * N, dtype=_narrowest(2 * (p - 1)))
        chunk = max(1, _CHUNK // L)
        for i in range(0, rows, chunk):
            block = np.einsum("il,lj->ij", V[i:i + chunk], W)
            block -= block // p * p
            stop = min((i + chunk) * L, N)
            tr[i * L:stop] = block.reshape(-1)[:stop - i * L]
        tr[N:] = tr[:N]
        self.trace_of_code = tr

        # the constants: h = y^(N/(p-1)) = (-1)^n mu_0 generates F_p^*, so
        # the code of h^i is i N/(p-1); the zero constant has the zero code
        h, c = (-1) ** n * mu[0] % p, 1
        self.const_code = const = np.full(p, N, dtype=np.int64)
        for i in range(p - 1):
            const[c], c = i * (N // (p - 1)), c * h % p

        self._embeddings: dict = {}

    @cached_property
    def log(self) -> np.ndarray:
        """The window decoder: log[sum_j Tr(y^(k+j)) p^j] = k, j < n, and
        log[0] is the zero code.  The codes go through in _CHUNK runs, and
        a run's digit j is the doubled trace table's slice shifted by j."""
        n, p, N, tr = self.n, self.p, self.group_order, self.trace_of_code
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

    def _trace_digits(self, codes, coeffs=(0, 1)) -> np.ndarray:
        """Column u: the trace digits Tr(y^j z) mod p, j < n, of
        z = sum_i coeffs[i] y^(i codes[u]), sum_i coeffs[i] Tr(y^(j + i
        codes[u])) as Tr is F_p-linear; by default the window of y^codes[u]."""
        j = np.arange(self.n)[:, None]
        digits = sum(c * self.trace_of_code[(j + i * codes) % self.group_order]
                     .astype(np.int64) for i, c in enumerate(coeffs) if c)
        return np.remainder(digits, self.p)

    def _embedding(self, base: FieldCtx):
        """(root, windows) for the base field (base.p == p, base.n | n),
        cached: root is the smallest code of a root of the base modulus,
        and windows maps the trace digits of each code u = r v of the
        subfield of q_b = base.q elements, r = (q - 1)/(q_b - 1), to u.
        z = modulus(y^k) is zero where all of its trace digits are."""
        key = (base.p, base.n, base.modulus)
        if base.p != self.p or self.n % base.n != 0:
            raise ValueError("base field does not embed into this field")
        if key not in self._embeddings:
            codes = np.arange(0, self.group_order, self.group_order
                              // (base.q - 1), dtype=np.int64)
            roots = codes[~self._trace_digits(codes, base.modulus).any(0)]
            windows = zip(map(tuple, self._trace_digits(codes).T.tolist()),
                          codes.tolist())
            self._embeddings[key] = int(roots[0]), dict(windows)  # deg | n
        return self._embeddings[key]

    def embed(self, x: FqElem, base: FieldCtx) -> int:
        """Code of the image of x under the cached embedding: the constant's
        code in F_p, else the code whose window is sum_i x_i root^i's."""
        if x.in_prime_field():
            return int(self.const_code[x.coeffs[0]])
        root, windows = self._embedding(base)
        digits = self._trace_digits(root, x.coeffs)[:, 0]
        return windows[tuple(digits.tolist())]


_tables = lru_cache(maxsize=_CACHE_SIZE)(FieldTables)


def get_tables(field, n: int | None = None) -> FieldTables:
    """The tables of F_(p^n), as get_tables(p, n) or get_tables(ctx), cached
    on (p, n) alone for the _CACHE_SIZE most recently used fields."""
    return _tables(field, n) if n is not None else _tables(field.p, field.n)
