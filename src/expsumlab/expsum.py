"""Point enumeration over F_{q^m} and exact accumulation of character sums.

Every domain is a union of tori.  A^n is the disjoint union over
coordinate sets S of {x_i = 0, i in S} x G_m^(n - |S|), on which a term
with a positive exponent in S vanishes and every other term loses S's
coordinates; a complement of {h = 0} keeps the strata where h does not
restrict to 0.  On SL2, f(A) = sum a_n Tr(Sym^n A) is F(t) for t = tr A,
and x^2 - t x + 1 is the characteristic polynomial of Q^2 + Q, Q^2 - Q or
Q^2 matrices in SL2(F_Q) as it has two roots in F_Q, none, or a double
one: Q^2 - Q plus Q for each r in F_Q^* with r + 1/r = t.  So
S = (Q^2 - Q) sum_t psi(Tr F(t)) + Q sum_r psi(Tr F(r + 1/r)) in every
characteristic, over the strata of one affine line and one torus.  A
coordinate of a stratum that no term of f (or h) reads multiplies its sum
by its Q - 1 points, so it is dropped for that weight; strata on which f
and h restrict to the same terms have the same sum, so each distinct
restriction is summed once, the strata's weights added.  On a stratum's
torus of Q - 1 points only e mod Q - 1 matters, so each exponent is read
as its residue nearest 0: x^(Q-1) is a constant, x^(Q-2) is 1/x.

On a torus stratum where f = A(x') y + B(x') is linear in a coordinate y
(exponent 0 or 1 in every term, and f reads y, so A has a term), y is
summed out by character orthogonality: over y in F_Q^*, Tr(c A y) takes
each value of F_p Q/p times, 0 once less, where A != 0, and is 0 where
A = 0.  So the stratum's histogram is (Q/p) #{A != 0} + Q H_0 - H, where
H counts Tr(c B) over the points x' and H_0 over those where A = 0:
integers, equal class by class to the enumerated counts, on one
coordinate fewer.
A monomial A never vanishes on a torus; otherwise A = 0 exactly where its
trace digits do.  One coordinate is summed out per stratum, the one whose
A has the fewest terms (the last on a tie); a complement's strata are
enumerated whole, as h's code is their last coordinate.

A torus is enumerated by the discrete-log codes of its points in blocked
numpy integer arrays.  A level's codes are those of F_(q^m) on its
primitive polynomial, whose root y generates them, so no field context is
built for the level, and a base field's coefficients embed into the
subfield of its codes (see tables.py).  Each block's points are
counted by the trace of f mod p, so the exact sum is
sum_t count[t] * zeta^t, the histogram reduced once in Z[zeta_p]
(CyclotomicInt.from_poly).  Tr is F_p-linear, so the trace of f is the sum
of its terms' traces, each read from the trace table at a code computed
by integer arithmetic (_trace_sum), and no field elements are added.  On
a complement, f = g / h^k is the sum of the terms of g times h^-k, so h's
code is one more coordinate, which tables.FieldTables.log decodes from
h's traces at the scales y^(n-1)..y^0, its trace digits.  In dimension
>= 1 a block's last coordinate is a run of consecutive codes, so a term
reads each row of the block as one window of the table, contiguous for
exponent 1 in that coordinate and strided otherwise: one row as a view,
more rows by one gather of the windows; any other term reads the doubled
table once per point.  The sum is kept mod p, in block buffers that each
worker thread reuses through a level (_Scratch), and its classes are
counted by one bincount pass, whatever p is.  The coefficients lie in
F_q, so x -> x^q permutes the points and fixes Tr(f): in dimension >= 2
the first coordinate runs over one representative of each orbit, and a
block's counts are multiplied by the orbit size (in dimension 1 the
representatives cost more than the windows they save).
power_sum_naive, the reference path, evaluates everything with FqElem
arithmetic and cross-checks the table path on small inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _exactpoly, lfun
from .ffield import (CyclotomicInt, FieldCtx, FqElem, additive_character,
                     build_field, galois_twist, trace_to_prime)
from .lfun import PowerSumSequence
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


def charge(work: int | str, budget: int, what: str, units: str) -> int:
    """The budget left once `work` units are spent; BudgetExceededError,
    as `<what> needs ~<work> work units (<units>); budget is <budget>`, if
    work is over the budget.  Past 2^64 the work prints as ~2^k, the least
    power of two not below it: str() refuses ints of over 4,300 digits.  A
    work too large to form is given as the text of its exact value, and is
    refused: its caller has shown it to be over the budget."""
    if isinstance(work, int):
        if work <= budget:
            return budget - work
        if work >= 2 ** 64:
            work = f"2^{(work - 1).bit_length()}"
    raise BudgetExceededError(
        f"{what} needs ~{work} work units ({units}); budget is {budget}")


def exact_int(value, name: str) -> int:
    """value as an int; ValueError naming `name` if not.  A decimal string
    or an integral number is read as its int; a boolean or a number with a
    fractional part is refused, not truncated."""
    try:
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be an integer, got {value!r}") from None


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
        if any(len(e) != self.dim for _, e in self.terms + self.g + self.h):
            raise ValueError(f"exponent vectors need dim = {self.dim} entries")
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

    @classmethod
    def from_json(cls, doc: dict, base: Optional[FieldCtx] = None) -> "VarietySpec":
        def load_coef(c):
            if isinstance(c, list):
                if base is None:
                    raise ValueError("vector coefficients need a base field")
                return base.element(c)
            return exact_int(c, "coefficient")

        def load_terms(ts):
            return [(load_coef(c), tuple(exact_int(x, "exponent") for x in e))
                    for c, e in ts]

        kind = doc["kind"]
        if kind == SL2:
            return cls.sl2([load_coef(c) for c in doc["coeffs"]])
        dim = exact_int(doc["dim"], "dim")
        if kind == COMPLEMENT:
            return cls.hypersurface_complement(
                dim, load_terms(doc["g"]), load_terms(doc["h"]),
                exact_int(doc.get("k", 1), "k"))
        if kind == AFFINE:
            return cls.affine_space(dim, load_terms(doc["f"]))
        if kind == TORUS:
            return cls.torus(dim, load_terms(doc["f"]))
        raise ValueError(f"unsupported variety kind {kind!r}")


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
    return q ** 3  # nominal: sl2 sums over the 2q points of _grids


# Work units per zero pattern of _strata's walk, and as many again per term
# that it restricts there: over A^12 and A^14 over F_2 a pattern took
# 8.6-8.8 us with one term and 35 us with 14, 1.1 and 0.6 ns a unit, and a
# point evaluation 0.4-3 ns (2-vCPU Xeon, Python 3.11.7)
STRATUM_WORK = 4000


def _strata_work(v: VarietySpec) -> int:
    """What _grids' walk through _strata costs at each level: the 2^dim
    zero patterns of A^dim or a complement, the one of a torus, or SL2's
    line and torus, whose F and G have at most N + 1 and 2N + 1 terms."""
    if v.kind == SL2:
        N = len(v.sl2_coeffs)
        return STRATUM_WORK * (2 * (N + 2) + (2 * N + 2))
    patterns = 1 if v.kind == TORUS else 2 ** v.dim
    return STRATUM_WORK * patterns * (1 + len(v.terms + v.g + v.h))


def _level_work(v: VarietySpec, q: int) -> int:
    # A table element costs its bytes in budget units, so the budget bounds
    # the tower's memory as well as the point evaluations.
    return (_enumeration_work(v, q) + TABLE_BYTES_PER_ELEMENT * q
            + _strata_work(v))


# what a level's work units count, for the budget's refusals
_WORK_UNITS = (f"point evaluations plus {TABLE_BYTES_PER_ELEMENT} per table "
               f"element and {STRATUM_WORK} per stratum and term")


def _coef_code(T: FieldTables, base: FieldCtx, coef) -> int:
    if isinstance(coef, FqElem):
        if coef.ctx != base:
            raise ValueError("coefficient from a different base field")
        return T.embed(coef, base)
    return int(T.const_code[coef % T.p])


def _term_codes(T: FieldTables, base: FieldCtx, terms):
    """(code, exponents) of the terms with a nonzero coefficient; _strata
    reduces the exponents once it has restricted the terms to a stratum."""
    out = []
    for coef, exps in terms:
        code = _coef_code(T, base, coef)
        if code != T.zero_code:
            out.append((code, tuple(exps)))
    return out


def _work_dtype(T: FieldTables, terms) -> type:
    """int32 when exponent-weighted code sums cannot overflow it."""
    weight = 1
    for _, exps in terms:
        weight = max(weight, 1 + sum(abs(e) for e in exps))
    return np.int32 if weight * T.q < 2 ** 31 else np.int64


# A block's last coordinate: each row runs over `width` codes from start, an
# int, or in dimension 1 a (rows, 1) column of starts (see _grid_coords).
_Run = namedtuple("_Run", "start width")


def _block_shape(coords, run) -> tuple:
    """The shape a block's coordinates broadcast to, the run's rows among
    them; (1,) in dimension 0."""
    last = (1,) if run is None else (np.size(run.start), run.width)
    return np.broadcast_shapes(last, *(x.shape for x in coords))


class _Scratch(threading.local):
    """Block-sized buffers that each worker thread reuses from block to
    block through one level, so that a block's temporaries are neither
    allocated nor faulted in afresh.  Being a threading.local, an instance
    holds one set of buffers per thread that uses it."""

    def __init__(self):
        self.buffers = {}

    def __call__(self, name: str, shape, dtype) -> np.ndarray:
        """An uninitialised array of the shape and dtype, on the same memory
        at every call with the name in this thread, whatever the dtype: what
        the array from the last call held is overwritten.  The memory grows
        to the largest block asked for, no further."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        if name not in self.buffers or self.buffers[name].size < size:
            self.buffers.pop(name, None)   # freed before its successor
            self.buffers[name] = np.empty(size, np.uint8)
        return self.buffers[name][:size].view(dtype).reshape(shape)


def _strided_windows(table: np.ndarray, n: int, e: int, width: int):
    """A read-only (n, width) view whose row c is table[c], table[c + e],
    ..., table[c + e (width - 1)], over the doubled table of 2n entries.
    With e < 0 the rows start in the second half and step back.  Either
    way they stay inside the table while |e| (width - 1) <= n, as the
    width of every block that reads windows is (see _grids)."""
    assert abs(e) * (width - 1) <= n, "window past the doubled table"
    step = table.itemsize
    base = table[n:] if e < 0 else table
    return np.lib.stride_tricks.as_strided(
        base, shape=(n, width), strides=(step, e * step), writeable=False)


def _trace_sum(T: FieldTables, terms, scale_codes, scratch: _Scratch):
    """evaluate() of a torus: per scale c, Tr(c f) mod p at the points of a
    block, f the sum of the terms, read from the doubled trace table.

    Tr is F_p-linear, so Tr(c f) is the sum over terms of Tr(c * term), and
    no field elements are added.  A term's code is its coefficient's code
    plus c's plus sum_j e_j x_j, mod N = q - 1, and each term's traces are
    read by one of two paths.  Where the last coordinate is a run of codes
    start, start + 1, ... (dimension >= 1, see _Run), the others are
    (rows, 1) columns, so their part of the code is reduced on a column,
    col, and row r of a term with exponent e in the last coordinate reads
    the trace table at col_r + e start_r, then every e-th entry: one
    window of the table (_strided_windows), which the block's
    width keeps inside it (see _grids): a block of one row reads it as a
    view, and one fancy index reads the rows of any other block.  Each row
    start plus a scale code is reduced mod N by one subtraction, both
    being below N.
    Every other term sums its code over all of its coordinates, broadcast,
    and reduces it mod N once per block; each scale reads the table at
    col + s.  The accumulator starts as the first term's traces and is
    reduced mod p after each further term, so no key leaves [0, p) and
    _trace_counts can count the classes directly.  The reduction's
    temporary, and the keys where no read is of the block's shape, are the
    worker's scratch buffers, so the keys that evaluate yields for a scale
    hold only until it is resumed."""
    n, trace2 = T.group_order, T.trace_of_code
    kd = trace2.dtype.type
    kp = kd(T.p)
    dt = _work_dtype(T, terms)

    def evaluate(coords, run):
        shape = _block_shape(coords, run)
        parts = []
        for code, exps in terms:
            e = exps[-1] if run is not None else 0
            col = code
            for e_j, x in zip(exps, coords):   # not the run's exponent
                if e_j:
                    x = x.astype(dt, copy=False)
                    col = col + (x if e_j == 1 else e_j * x)
            if e:
                parts.append(((col + e * np.asarray(run.start, dt)) % n,
                              _strided_windows(trace2, n, e, run.width)))
            else:
                col %= n   # in place: col is a new array or an int
                parts.append((col, None))
        # windows and block-shaped reads first: their traces are fresh
        # arrays of the block's shape, which the accumulator can start as
        parts.sort(key=lambda part: part[1] is None
                   and np.shape(part[0]) != shape)
        for s in scale_codes:
            acc = None
            for col, win in parts:
                if win is None:
                    t = trace2[col + s]
                else:
                    rows = np.ravel(col + s)   # < 2n: mod n by one subtraction
                    np.subtract(rows, n, out=rows, where=rows >= n)
                    # one row is a view of the table, more one gather
                    t = win[rows[0]] if rows.size == 1 else win[rows]
                if acc is None:
                    acc = t
                    if np.shape(t) != shape:
                        acc = scratch("keys", shape, kd)
                        acc[...] = t
                else:
                    acc += t
                    low = scratch("temp", shape, kd)
                    np.subtract(acc, kp, out=low)
                    np.minimum(acc, low, out=acc)   # acc mod p
            if acc is None:   # f = 0
                acc = scratch("keys", shape, kd)
                acc.fill(0)
            yield acc.ravel()

    return evaluate


def _complement_sum(T: FieldTables, g_sum, h_digits, dt,
                    scratch: _Scratch):
    """evaluate() of a complement's stratum: g_sum sums g with h's code as
    its last coordinate, and h_digits yields h's traces at the scale codes
    n-1..0, its trace digits, on which Horner in p is the index that T.log
    decodes into h's code.  Index 0 is h = 0, and its points are dropped.
    g_sum reads the run's codes as an array of dtype dt, like h's."""
    p, log = T.p, T.log   # log built here, not in a worker

    def evaluate(coords, run):
        shape = _block_shape(coords, run)
        index = scratch("h_index", (math.prod(shape),), dt)
        index.fill(0)
        for d in h_digits(coords, run):
            index *= p
            index += d
        # "clip" takes unbuffered, so into the worker's buffer; every index
        # is below q anyway
        h = np.take(log, index, mode="clip",
                    out=scratch("h", index.shape, log.dtype)).reshape(shape)
        keep = index != 0
        if run is not None:
            coords = coords + [np.asarray(run.start, dt)
                               + np.arange(run.width, dtype=dt)]
        return (keys[keep] for keys in g_sum(coords + [h], None))

    return evaluate


def _linear_sum(T: FieldTables, a, b_sum, scratch: _Scratch):
    """evaluate() of a torus stratum with f = A(x') y + B(x') and the
    coordinate y summed out: each point x' of the block stands for the
    Q - 1 points (x', y), y in F_Q^*.  Where A(x') != 0, A y runs over
    F_Q^* with y, on which each trace in F_p is taken Q/p times but 0 once
    less, so class t receives Q/p - [t = Tr(c B)]; where A(x') = 0, class
    Tr(c B) receives Q - 1.  The block's histogram is therefore
    (Q/p) #{A != 0} + Q H_0 - H, with H the histogram of Tr(c B) that
    b_sum's keys give and H_0 that of the points where A = 0, all in
    integers.

    y is read by a term (see _strata), so A has one.  A monomial is never 0
    on a torus; otherwise A = 0 exactly where its trace digits Tr(y^j A),
    j < n, all are, read as a complement's h is, and or-ed into the
    worker's buffer before b_sum reuses the scratch keys."""
    Q, p = T.q, T.p
    digits = _trace_sum(T, a, range(T.n), scratch) if len(a) > 1 \
        else None

    def evaluate(coords, run):
        size = math.prod(_block_shape(coords, run))
        n0 = 0   # how many points have A = 0
        if digits is not None:
            nonzero = scratch("a", (size,), T.trace_of_code.dtype)
            nonzero.fill(0)
            for d in digits(coords, run):
                nonzero |= d
            zero = np.equal(nonzero, 0, out=scratch("a_zero", (size,), bool))
            n0 = int(np.count_nonzero(zero))
        for keys in b_sum(coords, run):
            h = _trace_counts(keys, p)
            h0 = h if n0 == size else [0] * p if not n0 else \
                _trace_counts(keys[zero], p)
            yield [Q // p * (size - n0) + Q * z - t for t, z in zip(h, h0)]

    return evaluate


def _counted(evaluate, p: int):
    """The evaluate() that yields the trace histogram of each flat array of
    keys in [0, p) that `evaluate` yields."""
    return lambda coords, run: (_trace_counts(keys, p)
                                for keys in evaluate(coords, run))


def _trace_counts(keys: np.ndarray, p: int) -> list:
    """How many of the keys, each in [0, p), take each value, as ints: one
    pass of bincount whatever p is, on _CHUNK slices, so its copy of the
    keys to intp stays _CHUNK long."""
    counts = np.zeros(p, np.int64)
    for i in range(0, keys.size, _CHUNK):
        counts += np.bincount(keys[i:i + _CHUNK], minlength=p)
    return counts.tolist()


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


def _grid_blocks(reps, dim: int, n: int, width):
    """Blocks of at most _BLOCK points covering a grid of _grids, last
    coordinate fastest.  A block (o0, o1, i0, i1) is a run of indices into
    the outer coordinates (reps times n codes in each further one, in
    dimension >= 2) times a chunk i0..i1 of the last one's n codes, at most
    `width` wide unless width is None, and as many rows as fit; dimension
    0 is one point.  In dimension 1 the rows o0..o1 are whole chunks of the
    run (see _grid_coords), and the codes past them one more block."""
    outer = len(reps) * n ** (dim - 2) if dim > 1 else 1
    last = n if dim else 1
    chunk = min(last, width or _BLOCK, _BLOCK)
    rows = max(1, _BLOCK // chunk)
    if dim == 1:
        outer, last = n // chunk, chunk
    for o0 in range(0, outer, rows):
        o1 = min(o0 + rows, outer)
        for i0 in range(0, last, chunk):
            yield o0, o1, i0, min(i0 + chunk, last)
    if dim == 1 and n % chunk:
        yield 0, 1, n - n % chunk, n


def _grid_coords(reps, dim: int, n: int, block):
    """The coordinate arrays of one block of _grid_blocks but the last, and
    the _Run of codes that the last runs over (None in dimension 0).  The
    outer indices are decoded into (rows, 1) columns: the orbit
    representative, then digits base n, one per further coordinate, so
    with the run, a (1, chunk) row of codes from i0, they broadcast to the
    block's points without repeating any of them; in dimension 1, row o of
    the run starts at i0 + o chunks."""
    o0, o1, i0, i1 = block
    if not dim:
        return [], None
    if dim == 1:
        return [], _Run((i0 + (i1 - i0) * np.arange(o0, o1))[:, None], i1 - i0)
    index, *digits = np.unravel_index(np.arange(o0, o1),
                                      (len(reps),) + (n,) * (dim - 2))
    return [x[:, None] for x in [reps[index], *digits]], _Run(i0, i1 - i0)


def _histograms(v: VarietySpec, base: FieldCtx, m: int, scales,
                budget: int = DEFAULT_BUDGET, threads: int = 1,
                tower: Optional[FieldCtx] = None):
    """Trace histograms of c*f over X(k_m) for each scale c.

    Returns a list of integer count-vectors of length p aligned with
    `scales`; each sums to the number of points #X(k_m).  A tower context
    is checked for its degree only: the tables are F_(p^(n m))'s own, on
    its primitive polynomial, whatever the tower's modulus."""
    p = base.p
    if m < 1:
        raise ValueError("level must be >= 1")
    charge(_level_work(v, base.q ** m), budget, f"level {m}", _WORK_UNITS)
    if tower is not None and (tower.p != p or tower.n != base.n * m):
        raise ValueError("tower context has the wrong degree")
    T = get_tables(p, base.n * m)
    scale_codes = [_coef_code(T, base, c) for c in scales]
    if any(c == T.zero_code for c in scale_codes):
        raise ValueError("scales must be nonzero")

    # one set of block buffers per worker thread, for this level only
    scratch = _Scratch()
    n = T.group_order
    tasks = [(reps, dim, weight, evaluate, block)
             for reps, dim, weight, evaluate, width
             in _grids(T, v, base, scale_codes, scratch)
             for block in _grid_blocks(reps, dim, n, width)]

    def count(task):
        reps, dim, weight, evaluate, block = task
        return weight, list(evaluate(*_grid_coords(reps, dim, n, block)))

    # one block in flight per thread, and no more threads than cores
    workers = min(threads or 1, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(count, tasks))
    else:
        results = [count(t) for t in tasks]

    # integer counts times the integer weight, in Python ints: no floating
    # point, and no int64 overflow at weights near q^2
    totals = [[0] * p for _ in scales]
    for weight, counts in results:
        for i, c in enumerate(counts):
            for t in range(p):
                totals[i][t] += weight * c[t]
    return totals


def _restrict(terms, zero):
    """The terms on the stratum {x_i = 0 where zero[i]}: a term with a
    positive exponent in a zero coordinate vanishes there, and every other
    term loses those coordinates.  Coordinates past `zero` are kept."""
    return [(code, tuple(e for e, z in itertools.zip_longest(
        exps, zero, fillvalue=False) if not z))
            for code, exps in terms
            if not any(z and e > 0 for e, z in zip(exps, zero))]


def _nearest(terms, n: int) -> list:
    """The terms with each exponent e read as its residue mod n nearest 0,
    of e's sign on a tie: on a torus of n points x^e = x^(e mod n), so x^n
    is a constant and x^(n-1) is x^(-1)."""
    def nearest(e):
        r = e % n
        return r - n if 2 * r > n or (2 * r == n and e < 0) else r

    return [(code, tuple(map(nearest, exps))) for code, exps in terms]


def _strata(dim: int, weight: int, n: int, f, h=None,
            torus: bool = False) -> Counter:
    """The strata of A^dim (see the module docstring), or G_m^dim alone if
    torus, less those where h restricts to 0, as a Counter of (dimension,
    f, h or None) -> weight, each point of a stratum standing for `weight`
    points.  The terms are _restrict'ed to the stratum, their exponents
    read mod n = Q - 1 (_nearest), and then restricted to the coordinates
    that a term of f or h reads: one that none reads multiplies the weight
    by its n points.  f and h are keyed as sorted tuples, so strata on
    which they restrict to the same terms are summed once."""
    out = Counter()
    for zero in itertools.product((False,) if torus else (False, True),
                                  repeat=dim):
        f_zero, h_zero = (_nearest(_restrict(terms, zero), n)
                          for terms in (f, h or []))
        if h is not None and not h_zero:
            continue
        unread = [not any(exps[j] for _, exps in f_zero + h_zero)
                  for j in range(dim - sum(zero))]
        f_zero, h_zero = (tuple(sorted(_restrict(terms, unread)))
                          for terms in (f_zero, h_zero))
        out[len(unread) - sum(unread), f_zero,
            None if h is None else h_zero] += weight * n ** sum(unread)
    return out


def _linear_coordinate(f, dim: int) -> Optional[int]:
    """The coordinate y of a torus stratum to sum out (see _linear_sum): one
    whose exponent is 0 or 1 in every term of f, so that f = A y + B, the
    one whose A has the fewest terms, and the last one on a tie; None if no
    coordinate qualifies."""
    best = None
    for y in range(dim):
        if all(exps[y] in (0, 1) for _, exps in f):
            size = sum(exps[y] for _, exps in f)
            if best is None or size <= best[0]:
                best = size, y
    return None if best is None else best[1]


def _grids(T: FieldTables, v: VarietySpec, base: FieldCtx, scale_codes,
           scratch: _Scratch):
    """The grids that X(k_m) is enumerated over, as (reps, dim, weight,
    evaluate, width): a torus G_m^dim whose first coordinate runs over the
    orbit representatives reps in dimension >= 2, and every other over the
    N = Q - 1 codes, each point standing for `weight` points, in blocks at
    most `width` wide along the last coordinate (see _grid_blocks); reps is
    None in dimension 1, one run of the N codes, and in dimension 0, one
    point.  evaluate(coords, run) yields, for each scale code, the block's
    histogram of the traces of c*f at its points that lie on X, p ints; run
    is the _Run of codes of the last coordinate, coords the others (see
    _grid_coords).  Each term with last exponent e reads a row of the block
    as a window of the doubled trace table, |e| apart, so a torus caps its
    blocks' width at N // max |e| + 1, the longest such window that fits.

    Every domain is a union of tori (_strata), each distinct restriction of
    f (and h) enumerated once; the term codes and the Frobenius orbits are
    made once for all, the orbits only for a level with a grid of dimension
    >= 2.  The coefficients lie in F_q, so x -> x^q permutes the points and
    fixes Tr(f): there the first coordinate runs over the representatives
    of the orbits (see _frobenius_orbits) only, in one grid per orbit size,
    whose points stand for `size` times as many.  A torus on which f is
    linear in a coordinate (_linear_coordinate) has it summed out
    (_linear_sum), so its grid has one coordinate fewer; a complement's
    strata keep every coordinate, as h's code is their last."""
    q, n, p = T.q, T.group_order, T.p
    codes = functools.partial(_term_codes, T, base)
    if v.kind == SL2:
        f, g = map(codes, _sl2_terms(v.sl2_coeffs))
        tori = _strata(1, q * q - q, n, f) + _strata(1, q, n, g, torus=True)
    elif v.kind == COMPLEMENT:
        # Tr(c g / h^k) is the sum of Tr(c t h^-k) over the terms t of g:
        # h's code is one more, last coordinate, with exponent -k
        tori = _strata(v.dim, 1, n,
                       codes([(c, e + (-v.k,)) for c, e in v.g]), codes(v.h))
    else:
        tori = _strata(v.dim, 1, n, codes(v.terms), torus=v.kind == TORUS)

    dt = _work_dtype(T, [(None, (1,))])   # sums of two codes
    grids = []
    for (dim, f, h), weight in tori.items():
        y = None if h is not None else _linear_coordinate(f, dim)
        if y is not None:
            dim -= 1
            a, f = ([(code, x[:y] + x[y + 1:]) for code, x in f if x[y] == k]
                    for k in (1, 0))
            evaluate = _linear_sum(T, a, _trace_sum(T, f, scale_codes,
                                                    scratch), scratch)
            read = a + f
        else:
            evaluate = _trace_sum(T, f, scale_codes, scratch)
            if h is not None:
                evaluate = _complement_sum(T, evaluate, _trace_sum(
                    T, h, range(T.n - 1, -1, -1), scratch), dt, scratch)
            evaluate = _counted(evaluate, p)
            read = f if h is None else h
        # the windows are read by the terms summed with the last coordinate
        # a run of codes: f's (A's and B's), or on a complement h's
        e = max((abs(x[-1]) for _, x in read), default=0) if dim else 0
        grids.append((dim, weight, evaluate, n // e + 1 if e else None))
    orbits = [(size, reps.astype(dt, copy=False)) for size, reps in
              _frobenius_orbits(n, base.q, T.n // base.n)] \
        if any(dim > 1 for dim, *_ in grids) else []
    return [(reps, dim, weight * size, evaluate, width)
            for dim, weight, evaluate, width in grids
            for size, reps in (orbits if dim > 1 else [(1, None)])]


def _sl2_terms(coeffs) -> tuple:
    """SL2(F_Q) through the trace (see the module docstring): the terms of
    F(t), summed over the line of traces, each point standing for Q^2 - Q
    matrices, and of G(r) = F(r + 1/r), summed over the torus, each point
    standing for Q.  s_n follows sym_trace's recurrence as an integer
    polynomial in t, and s_n(r + 1/r) is r^n + r^(n-2) + ... + r^(-n), so
    G's coefficient of r^(+-e) is the sum of a_n over n >= e, n = e mod 2:
    each coefficient is accumulated as it is made."""
    f = [0] * (len(coeffs) + 1)
    s_prev, s = [1], [0, 1]   # s_0 and s_1
    for a in coeffs:
        for k, c in enumerate(s):
            if c:
                f[k] += a * c
        s_prev, s = s, _exactpoly.add(_exactpoly.mul([0, 1], s),
                                      _exactpoly.neg(s_prev))
    g, tail = {}, [0, 0]   # tail[e % 2]: the sum of a_n, n >= e, n = e mod 2
    for e in range(len(coeffs), 0, -1):
        tail[e % 2] = coeffs[e - 1] + tail[e % 2]
        g[e,] = g[-e,] = tail[e % 2]
    g[0,] = tail[0]
    return (_normalize_terms({(k,): c for k, c in enumerate(f)}),
            _normalize_terms(g))


def power_sum(v: VarietySpec, base: FieldCtx, m: int, *,
              budget: int = DEFAULT_BUDGET, threads: int = 1,
              tower: Optional[FieldCtx] = None) -> CyclotomicInt:
    """S_m(f): the exact character sum over X(k_m)."""
    counts = _histograms(v, base, m, scales=(1,), budget=budget,
                         threads=threads, tower=tower)
    return CyclotomicInt.from_poly(base.p, counts[0])


def power_sum_table(v: VarietySpec, base: FieldCtx, M: int, *,
                    budget: int = DEFAULT_BUDGET, threads: int = 1,
                    scales=(1,)) -> dict:
    """S_1..S_M for each scale c (f replaced by c*f), in one pass per level.

    Returns {scale_index: PowerSumSequence}; scale_index runs over the
    positions in `scales`.  Refuses to start if the whole table, point
    evaluations and field tables together, would exceed the work budget;
    the count stops at the first level that passes it."""
    if M < 1:
        raise ValueError("need at least one level")
    total_work = 0
    for m in range(1, M + 1):
        total_work += _level_work(v, base.q ** m)
        charge(total_work, budget, f"table through level {m} of {M}",
               _WORK_UNITS)
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
            per_scale[i].append(CyclotomicInt.from_poly(base.p, c))
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
