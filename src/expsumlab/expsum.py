"""Point enumeration over F_{q^m} and exact accumulation of character sums.

The fast path encodes field elements by discrete logs (see tables.py) and
runs the enumeration in blocked numpy integer arrays; per block it counts
the points by the trace of f(x) mod p, so the exact sum is
sum_t count[t] * zeta^t with ordinary integer counts.  Three identities cut
the work.  Tr is F_p-linear, so on affine space and the torus the trace of
f is the sum of its terms' traces, each read from the trace table at a
code computed by integer arithmetic, and no field elements are added.  The
coefficients lie in F_q, so x -> x^q permutes the points and fixes Tr(f):
the first coordinate runs over one representative of each orbit, and a
block's counts are multiplied by the orbit size.  On SL2, f(A) =
sum a_n Tr(Sym^n A) is F(t) for t = tr A, and x^2 - t x + 1 is the
characteristic polynomial of Q^2 + Q, Q^2 - Q or Q^2 matrices in SL2(F_Q)
as it has two roots in F_Q, none, or a double one: Q^2 - Q plus Q for each
r in F_Q^* with r + 1/r = t.  So in every characteristic S = (Q^2 - Q)
sum_t psi(Tr F(t)) + Q sum_r psi(Tr F(r + 1/r)), over one affine line and
one torus.  A naive reference path (power_sum_naive) evaluates everything
with FqElem arithmetic and is used to cross-check the table-driven path on
small inputs.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import _exactpoly
from .ffield import (CyclotomicInt, FieldCtx, FqElem, additive_character,
                     build_field, galois_twist, trace_to_prime)
from .tables import (_CHUNK, TABLE_BYTES_PER_ELEMENT, FieldTables,
                     get_tables)

DEFAULT_BUDGET = 10 ** 9
_BLOCK = 1 << 20

AFFINE = "affine"
TORUS = "torus"
COMPLEMENT = "complement"
SL2 = "sl2"


class BudgetExceededError(RuntimeError):
    """Estimated enumeration and table work exceeds the configured budget."""


def _normalize_terms(terms) -> tuple:
    """Collect {exponent-vector: coefficient} into a canonical sorted tuple
    of (coefficient, exponents) pairs.  Accepts dicts or pair iterables."""
    if isinstance(terms, dict):
        items = terms.items()
    else:
        items = [(tuple(e), c) for c, e in terms]
    merged: dict = {}
    for exps, coef in items:
        exps = tuple(int(e) for e in exps)
        if exps in merged:
            merged[exps] = merged[exps] + coef
        else:
            merged[exps] = coef
    out = []
    for exps in sorted(merged):
        coef = merged[exps]
        if isinstance(coef, int) and coef == 0:
            continue
        if isinstance(coef, FqElem) and coef.is_zero():
            continue
        out.append((coef, exps))
    return tuple(out)


def multiply_terms(a, b) -> dict:
    """Product of two polynomials given as {exponents: coefficient} dicts."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


@dataclass(frozen=True)
class VarietySpec:
    """A supported domain together with the regular function to sum over.

    kind        one of "affine", "torus", "complement", "sl2"
    dim         number of coordinates (affine/torus/complement)
    terms       polynomial (affine: exponents >= 0; torus: any signs)
    g, h, k     complement only: f = g / h^k away from {h = 0}
    sl2_coeffs  sl2 only: (a_1..a_N) for f(A) = sum a_n Tr(Sym^n A)
    """

    kind: str
    dim: int = 0
    terms: tuple = ()
    g: tuple = ()
    h: tuple = ()
    k: int = 1
    sl2_coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in (AFFINE, TORUS, COMPLEMENT, SL2):
            raise ValueError(f"unsupported variety kind {self.kind!r}")
        if self.kind in (AFFINE, TORUS, COMPLEMENT) and self.dim < 0:
            raise ValueError("dimension must be >= 0")
        if self.kind == AFFINE:
            for _, exps in self.terms:
                if any(e < 0 for e in exps):
                    raise ValueError("affine polynomials need exponents >= 0")
        if self.kind == COMPLEMENT:
            for _, exps in self.g + self.h:
                if any(e < 0 for e in exps):
                    raise ValueError("complement data must be polynomial")
            if not self.h:
                raise ValueError("complement needs a nonzero h")
            if self.k < 0:
                raise ValueError("pole order k must be >= 0")

    # constructors ------------------------------------------------------------

    @classmethod
    def affine_space(cls, dim: int, terms) -> "VarietySpec":
        return cls(AFFINE, dim=dim, terms=_normalize_terms(terms))

    @classmethod
    def torus(cls, dim: int, terms) -> "VarietySpec":
        return cls(TORUS, dim=dim, terms=_normalize_terms(terms))

    @classmethod
    def hypersurface_complement(cls, dim: int, g, h, k: int = 1) -> "VarietySpec":
        return cls(COMPLEMENT, dim=dim, g=_normalize_terms(g),
                   h=_normalize_terms(h), k=k)

    @classmethod
    def sl2(cls, coeffs: Sequence) -> "VarietySpec":
        return cls(SL2, sl2_coeffs=tuple(coeffs))

    def scaled(self, c) -> "VarietySpec":
        """The same variety with f replaced by c*f."""
        if self.kind == SL2:
            return VarietySpec.sl2([c * a for a in self.sl2_coeffs])
        if self.kind == COMPLEMENT:
            return replace(self, g=_normalize_terms(
                [(c * coef, e) for coef, e in self.g]))
        return replace(self, terms=_normalize_terms(
            [(c * coef, e) for coef, e in self.terms]))

    # JSON wire format ---------------------------------------------------------

    def to_json(self) -> dict:
        def dump_terms(ts):
            return [[coef.coeffs if isinstance(coef, FqElem) else coef,
                     list(e)] for coef, e in ts]

        out = {"kind": self.kind}
        if self.kind == SL2:
            out["coeffs"] = [c.coeffs if isinstance(c, FqElem) else c
                             for c in self.sl2_coeffs]
            return out
        out["dim"] = self.dim
        if self.kind == COMPLEMENT:
            out["g"] = dump_terms(self.g)
            out["h"] = dump_terms(self.h)
            out["k"] = self.k
        else:
            out["f"] = dump_terms(self.terms)
        return out

    @classmethod
    def from_json(cls, doc: dict, base: Optional[FieldCtx] = None) -> "VarietySpec":
        def load_coef(c):
            if isinstance(c, list):
                if base is None:
                    raise ValueError("vector coefficients need a base field")
                return base.element(c)
            return int(c)

        def load_terms(ts):
            return [(load_coef(c), tuple(e)) for c, e in ts]

        kind = doc["kind"]
        if kind == SL2:
            return cls.sl2([load_coef(c) for c in doc["coeffs"]])
        dim = int(doc["dim"])
        if kind == COMPLEMENT:
            return cls.hypersurface_complement(
                dim, load_terms(doc["g"]), load_terms(doc["h"]),
                int(doc.get("k", 1)))
        if kind == AFFINE:
            return cls.affine_space(dim, load_terms(doc["f"]))
        if kind == TORUS:
            return cls.torus(dim, load_terms(doc["f"]))
        raise ValueError(f"unsupported variety kind {kind!r}")


@dataclass(frozen=True)
class PowerSumSequence:
    """S_1..S_M over the base field F_q, q = p^n, as exact cyclotomic integers."""

    p: int
    n: int
    values: tuple
    progress: tuple = field(default=(), compare=False)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, m: int) -> CyclotomicInt:
        """S_m, 1-indexed."""
        if not 1 <= m <= len(self.values):
            raise IndexError(f"level {m} not computed")
        return self.values[m - 1]

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n,
                "records": [{"m": i + 1, "coords": list(v.coords)}
                            for i, v in enumerate(self.values)]}

    @classmethod
    def from_json(cls, doc: dict) -> "PowerSumSequence":
        p = int(doc["p"])
        vals = [CyclotomicInt(p, rec["coords"]) for rec in
                sorted(doc["records"], key=lambda r: r["m"])]
        return cls(p, int(doc["n"]), tuple(vals))


def count_points(v: VarietySpec, base: FieldCtx, m: int,
                 budget: int = DEFAULT_BUDGET) -> int:
    """#X(k_m) where k_m = F_{q^m}."""
    if m < 1:
        raise ValueError("level must be >= 1")
    q = base.q ** m
    if v.kind == AFFINE:
        return q ** v.dim
    if v.kind == TORUS:
        return (q - 1) ** v.dim
    if v.kind == SL2:
        return q ** 3 - q
    if v.kind == COMPLEMENT:
        return sum(_histograms(v, base, m, scales=(1,), budget=budget)[0])
    raise ValueError(f"unsupported variety kind {v.kind!r}")


def sym_trace(t: FqElem, N: int) -> list:
    """Traces of the symmetric powers of a determinant-1 matrix with trace t:
    s_0 = 1, s_1 = t, s_n = t*s_(n-1) - s_(n-2)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    out = [t.ctx.one()]
    if N >= 1:
        out.append(t)
    for _ in range(2, N + 1):
        out.append(t * out[-1] - out[-2])
    return out


# -- fast path ----------------------------------------------------------------

def _enumeration_work(v: VarietySpec, q: int) -> int:
    if v.kind in (AFFINE, COMPLEMENT):
        return q ** v.dim
    if v.kind == TORUS:
        return (q - 1) ** v.dim
    return q ** 3  # nominal: sl2 sums over the 2q points of _sl2_grids


def _level_work(v: VarietySpec, q: int) -> int:
    # A table element costs its bytes in budget units, so the budget bounds
    # the tower's memory as well as the point evaluations.
    return _enumeration_work(v, q) + TABLE_BYTES_PER_ELEMENT * q


def _coef_code(T: FieldTables, base: FieldCtx, coef) -> int:
    if isinstance(coef, FqElem):
        if coef.ctx != base:
            raise ValueError("coefficient from a different base field")
        return T.embed(coef, base)
    return int(T.const_code[coef % T.ctx.p])


def _term_codes(T: FieldTables, base: FieldCtx, terms):
    out = []
    for coef, exps in terms:
        code = _coef_code(T, base, coef)
        if code != T.zero_code:
            out.append((code, exps))
    return out


def _work_dtype(T: FieldTables, terms) -> type:
    """int32 when exponent-weighted code sums cannot overflow it."""
    weight = 1
    for _, exps in terms:
        weight = max(weight, 1 + sum(abs(e) for e in exps))
    return np.int32 if weight * T.q < 2 ** 31 else np.int64


def _eval_terms(T: FieldTables, terms, coords, zmasks, dt) -> np.ndarray:
    """Codes of sum_terms coef * prod x_j^(e_j), e_j >= 0, on a block of
    points, by Zech addition; the result broadcasts over the block.

    zmasks is a per-coordinate cache of (x == zero) masks, shared across
    terms."""
    n = T.group_order
    z = T.zero_code
    acc = None
    for code, exps in terms:
        t = None
        vanish = None
        for j, (e, x) in enumerate(zip(exps, coords)):
            if e == 0:
                continue
            if zmasks[j] is None:
                zmasks[j] = x == z
            vanish = zmasks[j] if vanish is None else (vanish | zmasks[j])
            contrib = x if e == 1 else e * x
            t = contrib if t is None else t + contrib
        if t is None:
            t = np.full((1,), code, dtype=dt)
        else:
            t = t + code  # allocates, so aliasing a coordinate array is fine
            t %= n
        if vanish is not None:
            t = np.where(vanish, z, t)
        acc = t if acc is None else T.vadd(acc, t)
    if acc is None:  # identically zero
        acc = np.full((1,), z, dtype=dt)
    return acc


def _block_shape(coords) -> tuple:
    """The shape a block's coordinates broadcast to; (1,) in dimension 0."""
    return np.broadcast_shapes((1,), *(x.shape for x in coords))


def _trace_sum(T: FieldTables, terms, scale_codes, may_vanish: bool):
    """evaluate() of the affine and torus kinds: per scale c, keys that are
    congruent mod p to Tr(c f) at the points of a block.

    Tr is F_p-linear, so Tr(c f) is the sum over terms of Tr(c * term), and
    no field elements are added.  A term's code is its coefficient's code
    plus c's plus sum_j e_j x_j, mod N = q - 1.  The outer coordinates are
    (rows, 1) columns (see _grid_coords), so their part of the code is
    reduced on a column; the last coordinate's part is reduced on its chunk,
    and one gather per term and point from the doubled trace table adds the
    two.  On affine space a term vanishes where a coordinate it contains is
    zero, and contributes 0 there."""
    n, z = T.group_order, T.zero_code
    bound = max(1, len(terms)) * (T.ctx.p - 1)   # the largest key
    kd = next(t for t in (np.uint8, np.uint16, np.uint32, np.int64)
              if bound <= np.iinfo(t).max)
    trace = T.trace_of_code[:n].astype(kd)
    trace2 = np.concatenate([trace, trace])   # trace2[i] = Tr(g^(i mod N))
    del trace

    def evaluate(coords, npts):
        shape = _block_shape(coords)
        outer, last = coords[:-1], coords[-1] if coords else None
        parts = []
        for code, exps in terms:
            col, rows = code, None   # outer part of the code, vanishing rows
            for e, x in zip(exps, outer):
                if e:
                    col = col + e * x.astype(np.int64)
                    if may_vanish:
                        rows = x == z if rows is None else rows | (x == z)
            e = exps[-1] if exps else 0
            row = cols = None        # last coordinate's part, zero positions
            if e:
                row = last if e == 1 else (e * last.astype(np.int64) % n
                                           ).astype(last.dtype)
                if may_vanish:
                    cols = np.flatnonzero(last == z)
            parts.append((col, rows, row, cols))
        for s in scale_codes:
            acc = np.zeros(shape, dtype=kd)
            for col, rows, row, cols in parts:
                col = (col + s) % n
                if row is None:      # constant along the last coordinate
                    t = trace2[col]
                    if rows is not None:
                        t = np.where(rows, 0, t)
                else:
                    t = trace2[row + np.asarray(col, dtype=row.dtype)]
                    if rows is not None:
                        t[rows.ravel()] = 0
                    if cols is not None:
                        t[..., cols] = 0
                acc += t
            yield acc.ravel()

    return evaluate


def _trace_counts(keys: np.ndarray, p: int) -> np.ndarray:
    """How many of the non-negative integer keys fall in each class mod p.
    bincount runs on _CHUNK slices, which bounds its intp copy."""
    width = p * (int(keys.max(initial=0)) // p + 1)
    counts = np.zeros(width, dtype=np.int64)
    for i in range(0, keys.size, _CHUNK):
        counts += np.bincount(keys[i:i + _CHUNK], minlength=width)
    return counts.reshape(-1, p).sum(axis=0)


def _frobenius_orbits(n: int, q: int, m: int):
    """The orbits of x -> x^q on the nonzero elements of F_{q^m}, as
    (size, representative codes) pairs, one for each orbit size d | m.
    n = q^m - 1 is the number of nonzero elements.

    On codes the map is e -> e q mod n, which rotates the m base-q digits
    of e, so the least rotation represents its orbit.  Each pass rotates
    the survivors once more and drops those that exceed their rotation;
    the codes go through in _CHUNK runs, which bounds the temporaries.
    An orbit has size d when it lies in F_{q^d} and in no smaller field,
    that is when its codes are multiples of n / (q^d - 1)."""
    dt = np.int32 if n * q < 2 ** 31 else np.int64
    lead = q ** (m - 1)
    runs = []
    for start in range(0, n, _CHUNK):
        reps = np.arange(start, min(start + _CHUNK, n), dtype=dt)
        rot = reps.copy()
        for _ in range(1, m):
            top = rot // lead   # e q mod n = e q - top n, top the top digit
            top *= n
            rot *= q
            rot -= top
            keep = reps <= rot
            reps, rot = reps[keep], rot[keep]
        runs.append(reps)
    reps = np.concatenate(runs)
    orbits = []
    for d in [d for d in range(1, m + 1) if m % d == 0]:
        in_subfield = reps % (n // (q ** d - 1)) == 0
        orbits.append((d, reps[in_subfield]))
        reps = reps[~in_subfield]
    return orbits


def _frobenius_grids(T: FieldTables, base: FieldCtx, lengths, dt, evaluate,
                     weight: int = 1):
    """The (axes, weight, evaluate) grids of a domain whose coordinates run
    over the codes below `lengths` (T.q: every element, T.q - 1: the
    nonzero ones), each point standing for `weight` points.

    The coefficients lie in F_q, so x -> x^q permutes the points and fixes
    Tr(f).  The first coordinate therefore runs over orbit representatives
    only, in one grid per orbit size, whose points stand for `size` times
    as many.  The zero code is a fixed point."""
    if not lengths:
        return [((), weight, evaluate)]
    rest = tuple(np.arange(n, dtype=dt) for n in lengths[1:])
    grids = []
    for size, first in _frobenius_orbits(T.group_order, base.q,
                                         T.ctx.n // base.n):
        first = first.astype(dt)
        if size == 1 and lengths[0] == T.q:
            first = np.append(first, dt(T.zero_code))
        grids.append(((first,) + rest, weight * size, evaluate))
    return grids


def _grid_blocks(lengths):
    """Blocks of at most _BLOCK points covering the grid of all index tuples
    below `lengths`, last coordinate fastest.  A block (o0, o1, i0, i1) is a
    run of indices into the outer coordinates times a chunk of the last one;
    the last coordinate is split too, so the bound holds in every dimension.
    An empty `lengths` is the one-point grid of dimension 0."""
    *outer, last = lengths or (1,)
    n_outer = math.prod(outer)
    rows = max(1, _BLOCK // last)
    chunk = min(last, _BLOCK)
    for o0 in range(0, n_outer, rows):
        o1 = min(o0 + rows, n_outer)
        for i0 in range(0, last, chunk):
            yield o0, o1, i0, min(i0 + chunk, last)


def _grid_coords(axes, block):
    """Coordinate arrays of one block of _grid_blocks over `axes` (one array
    of codes per coordinate) and the block's size.

    The outer coordinates are decoded from the run into (rows, 1) columns
    and the last is a slice of its axis, so together they broadcast to the
    block's (rows, chunk) points without repeating any of them."""
    o0, o1, i0, i1 = block
    coords = []
    if axes:
        o = np.arange(o0, o1)
        stride = math.prod(len(a) for a in axes[:-1])
        for a in axes[:-1]:
            stride //= len(a)
            coords.append(a[o // stride % len(a), None])
        coords.append(axes[-1][i0:i1])
    return coords, (o1 - o0) * (i1 - i0)


def _histograms(v: VarietySpec, base: FieldCtx, m: int, scales,
                budget: int = DEFAULT_BUDGET, threads: int = 1,
                tower: Optional[FieldCtx] = None):
    """Trace histograms of c*f over X(k_m) for each scale c.

    Returns a list of integer count-vectors of length p aligned with
    `scales`; each sums to the number of points #X(k_m)."""
    p = base.p
    if m < 1:
        raise ValueError("level must be >= 1")
    work = _level_work(v, base.q ** m)
    if work > budget:
        raise BudgetExceededError(
            f"level {m} needs ~{work} work units (point evaluations plus "
            f"{TABLE_BYTES_PER_ELEMENT} per table element); budget is {budget}")
    if tower is None:
        tower = build_field(p, base.n * m)
    elif tower.p != p or tower.n != base.n * m:
        raise ValueError("tower context has the wrong degree")
    T = get_tables(tower)
    scale_codes = [_coef_code(T, base, c) for c in scales]
    if any(c == T.zero_code for c in scale_codes):
        raise ValueError("scales must be nonzero")

    tasks = [(axes, weight, evaluate, block)
             for axes, weight, evaluate in _grids(T, v, base, scale_codes)
             for block in _grid_blocks(tuple(len(a) for a in axes))]

    def run(task):
        axes, weight, evaluate, block = task
        return weight, [_trace_counts(keys, p)
                        for keys in evaluate(*_grid_coords(axes, block))]

    # one block in flight per thread, and no more threads than cores
    workers = min(threads or 1, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]

    # integer counts times the integer weight, in Python ints: no floating
    # point, and no int64 overflow at weights near q^2
    totals = [[0] * p for _ in scales]
    for weight, counts in results:
        for i, c in enumerate(counts):
            for t in range(p):
                totals[i][t] += weight * int(c[t])
    return totals


def _grids(T: FieldTables, v: VarietySpec, base: FieldCtx, scale_codes):
    """The grids that X(k_m) is enumerated over, as (axes, weight, evaluate)
    triples (see _frobenius_grids).  evaluate(coords, npts) yields, for each
    scale code, a flat array of keys congruent mod p to the trace of c*f at
    the block's points that lie on X."""
    dt = _work_dtype(T, [(None, (1,))])   # sums of two codes
    if v.kind == SL2:
        return _sl2_grids(T, v, base, scale_codes, dt)

    lengths = (T.q - 1 if v.kind == TORUS else T.q,) * v.dim
    if v.kind != COMPLEMENT:
        evaluate = _trace_sum(T, _term_codes(T, base, v.terms), scale_codes,
                              v.kind == AFFINE)
        return _frobenius_grids(T, base, lengths, dt, evaluate)

    g_terms = _term_codes(T, base, v.g)
    h_terms = _term_codes(T, base, v.h)
    k = v.k % T.group_order   # h^(q-1) = 1 where h is nonzero
    # a term of weight k covers the product h * k below
    dt = _work_dtype(T, g_terms + h_terms + [(None, (k,))])

    def evaluate(coords, npts):
        # the one kind that adds field elements: f = g / h^k by Zech
        # addition, then the trace of c*f read at its code
        zmasks = [None] * v.dim
        h = _eval_terms(T, h_terms, coords, zmasks, dt)
        keep = np.broadcast_to(h != T.zero_code, _block_shape(coords))
        g = _eval_terms(T, g_terms, coords, zmasks, dt)
        hinv_k = np.where(keep, (-h * k) % T.group_order, 0)
        f = T.vmul(g, hinv_k)[keep]
        return (T.trace_of_code[f if c == 0 else T.vmul(f, c)]
                for c in scale_codes)
    return _frobenius_grids(T, base, lengths, dt, evaluate)


def _sl2_grids(T: FieldTables, v: VarietySpec, base: FieldCtx, scale_codes,
               dt):
    """SL2(F_Q) through the trace (see the module docstring): F(t) on the
    line of traces, each point standing for Q^2 - Q matrices, and G(r) =
    F(r + 1/r) on the torus, each point standing for Q.  s_n follows
    sym_trace's recurrence as an integer polynomial in t, and s_n(r + 1/r)
    is r^n + r^(n-2) + ... + r^(-n)."""
    f_terms, g_terms = [], []
    s_prev, s = [1], [0, 1]   # s_0 and s_1
    for n, a in enumerate(v.sl2_coeffs, start=1):
        f_terms += [(a * c, (k,)) for k, c in enumerate(s) if c]
        g_terms += [(a, (n - 2 * j,)) for j in range(n + 1)]
        s_prev, s = s, _exactpoly.add(_exactpoly.mul([0, 1], s),
                                      _exactpoly.neg(s_prev))
    f = _term_codes(T, base, _normalize_terms(f_terms))
    g = _term_codes(T, base, _normalize_terms(g_terms))
    q = T.q
    return (_frobenius_grids(T, base, (q,), dt,
                             _trace_sum(T, f, scale_codes, True),
                             weight=q * q - q)
            + _frobenius_grids(T, base, (q - 1,), dt,
                               _trace_sum(T, g, scale_codes, False),
                               weight=q))


def _counts_to_cyclotomic(p: int, counts) -> CyclotomicInt:
    last = counts[p - 1]
    return CyclotomicInt(p, [counts[i] - last for i in range(p - 1)])


def power_sum(v: VarietySpec, base: FieldCtx, m: int, *,
              budget: int = DEFAULT_BUDGET, threads: int = 1,
              tower: Optional[FieldCtx] = None) -> CyclotomicInt:
    """S_m(f): the exact character sum over X(k_m)."""
    counts = _histograms(v, base, m, scales=(1,), budget=budget,
                         threads=threads, tower=tower)
    return _counts_to_cyclotomic(base.p, counts[0])


def power_sum_table(v: VarietySpec, base: FieldCtx, M: int, *,
                    budget: int = DEFAULT_BUDGET, threads: int = 1,
                    scales=(1,)) -> dict:
    """S_1..S_M for each scale c (f replaced by c*f), in one pass per level.

    Returns {scale_index: PowerSumSequence}; scale_index runs over the
    positions in `scales`.  Refuses to start if the whole table, point
    evaluations and field tables together, would exceed the work budget."""
    if M < 1:
        raise ValueError("need at least one level")
    total_work = sum(_level_work(v, base.q ** m) for m in range(1, M + 1))
    if total_work > budget:
        raise BudgetExceededError(
            f"table through level {M} needs ~{total_work} work units (point "
            f"evaluations plus {TABLE_BYTES_PER_ELEMENT} per table element); "
            f"budget is {budget}")
    per_scale = [[] for _ in scales]
    progress = []
    for m in range(1, M + 1):
        t0 = time.perf_counter()
        counts = _histograms(v, base, m, scales=scales, budget=budget,
                             threads=threads)
        progress.append({"m": m,
                         "points": _enumeration_work(v, base.q ** m),
                         "counted": sum(counts[0]),
                         "seconds": time.perf_counter() - t0})
        for i, c in enumerate(counts):
            per_scale[i].append(_counts_to_cyclotomic(base.p, c))
    prog = tuple(progress)
    return {i: PowerSumSequence(base.p, base.n, tuple(vals), progress=prog)
            for i, vals in enumerate(per_scale)}


# -- naive reference path ------------------------------------------------------

def _naive_embedding(base: FieldCtx, tower: FieldCtx):
    """Map base-field elements into the tower via a root of the base modulus
    (exhaustive search with plain field arithmetic)."""
    if base.n == 1:
        return lambda x: tower.from_int(x.coeffs[0])
    root = None
    for cand in tower.elements():
        acc = tower.zero()
        for c in reversed(base.modulus):
            acc = acc * cand + tower.from_int(c)
        if acc.is_zero():
            root = cand
            break
    if root is None:
        raise RuntimeError("no root of base modulus in tower")

    def embed(x: FqElem) -> FqElem:
        acc = tower.zero()
        for c in reversed(x.coeffs):
            acc = acc * root + tower.from_int(c)
        return acc

    return embed


def power_sum_naive(v: VarietySpec, base: FieldCtx, m: int,
                    tower: Optional[FieldCtx] = None) -> CyclotomicInt:
    """Reference evaluation of S_m with plain field arithmetic; exponential
    in the point count, meant for small cross-checks."""
    p = base.p
    if tower is None:
        tower = build_field(p, base.n * m)
    embed = _naive_embedding(base, tower)

    def lift(coef):
        if isinstance(coef, FqElem):
            return embed(coef)
        return tower.from_int(coef)

    def eval_terms(terms, point):
        acc = tower.zero()
        for coef, exps in terms:
            val = lift(coef)
            for e, x in zip(exps, point):
                if e:
                    val = val * (x ** e if e > 0 else x.inverse() ** (-e))
            acc = acc + val
        return acc

    acc = CyclotomicInt.zero(p)
    if v.kind == SL2:
        coeffs = [lift(c) for c in v.sl2_coeffs]
        els = list(tower.elements())
        one = tower.one()
        for a, b, c, d in itertools.product(els, repeat=4):
            if a * d - b * c == one:
                s = sym_trace(a + d, len(coeffs))
                val = tower.zero()
                for i, cf in enumerate(coeffs, start=1):
                    val = val + cf * s[i]
                acc = acc + additive_character(p, trace_to_prime(val))
        return acc

    els = list(tower.elements())
    nonzero = [x for x in els if not x.is_zero()]
    rng = nonzero if v.kind == TORUS else els
    for point in itertools.product(rng, repeat=v.dim):
        if v.kind == COMPLEMENT:
            h = eval_terms(v.h, point)
            if h.is_zero():
                continue
            val = eval_terms(v.g, point) * (h.inverse() ** v.k)
        else:
            val = eval_terms(v.terms, point)
        acc = acc + additive_character(p, trace_to_prime(val))
    return acc


# -- scale invariance ----------------------------------------------------------

@dataclass
class ScaleCheckReport:
    """Outcome of comparing the L-series of f and of c*f."""

    scale: object
    lseries: object
    lseries_scaled: object
    degree_equal: bool
    total_degree_equal: bool
    twist_checked: bool
    twist_holds: bool

    @property
    def passed(self) -> bool:
        return (self.degree_equal and self.total_degree_equal and
                (self.twist_holds or not self.twist_checked))


def scaled_degree_check(v: VarietySpec, base: FieldCtx, c, M: int, *,
                        budget: int = DEFAULT_BUDGET,
                        threads: int = 1) -> ScaleCheckReport:
    """Compare L-series invariants of f and c*f (c nonzero in F_q); also
    verifies S_m(c f) = galois_twist(S_m(f), c) when c is a prime-field
    scalar."""
    from . import lfun

    if isinstance(c, FqElem):
        c_is_prime = c.in_prime_field()
        c_int = c.coeffs[0] if c_is_prime else None
        if c.is_zero():
            raise ValueError("scale must be nonzero")
    else:
        c_int = c % base.p
        if c_int == 0:
            raise ValueError("scale must be nonzero")
        c_is_prime = True

    tables = power_sum_table(v, base, M, budget=budget, threads=threads,
                             scales=(1, c))
    seq, seq_scaled = tables[0], tables[1]
    l_base = lfun.reconstruct_auto(lfun.exp_power_sums(seq))
    l_scaled = lfun.reconstruct_auto(lfun.exp_power_sums(seq_scaled))

    twist_checked = bool(c_is_prime)
    twist_holds = True
    if twist_checked:
        twist_holds = all(
            galois_twist(seq.values[i], c_int) == seq_scaled.values[i]
            for i in range(M))
    return ScaleCheckReport(
        scale=c,
        lseries=l_base,
        lseries_scaled=l_scaled,
        degree_equal=lfun.degree(l_base) == lfun.degree(l_scaled),
        total_degree_equal=(lfun.total_degree(l_base)
                            == lfun.total_degree(l_scaled)),
        twist_checked=twist_checked,
        twist_holds=twist_holds,
    )
