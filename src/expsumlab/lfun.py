"""L-series assembly and certified rational reconstruction over Q(zeta_p).

exp_power_sums turns S_1..S_M into the truncated series
exp(sum_m S_m t^m / m) via the recurrence M c_M = sum_j S_j c_(M-j);
pade_reconstruct finds coprime P/Q matching the truncation within given
degree bounds and certifies the result by re-expansion.  Both it and
reconstruct_auto read the rows r_j = u_j t^(M+1) + v_j s of one extended
Euclid walk on (t^(M+1), s), which passes through the Pade approximant of
every degree bound.  reconstruct_auto takes the rows with
deg r_j <= M - slack - 1 as candidates, keeps the certified one of least
(total degree, -deg Q), and stops at a certified row of total T with
2T <= M, since no other candidate can then differ from it.  Everything is
exact; polynomials are little-endian lists of CyclotomicRat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._exactpoly import (add, derivative, divmod_, expand_quotient, mul, neg,
                         trim, xgcd)
from .ffield import CyclotomicInt, CyclotomicRat


class ReconstructionError(RuntimeError):
    """No rational function within the degree bounds matches the series."""


# -- domain types --------------------------------------------------------------

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


@dataclass(frozen=True)
class TruncatedSeries:
    """c_0..c_M of a power series over Q(zeta_p)."""

    p: int
    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class LSeries:
    """Certified rational function P/Q with P(0) = Q(0) = 1, gcd(P,Q) = 1,
    matching its source series through degree certified_order."""

    p: int
    P: tuple
    Q: tuple
    certified_order: int
    bezout: tuple = ()  # (u, v) with u*P + v*Q = 1, the coprimality witness

    def to_json(self) -> dict:
        def dump(poly):
            return [[[c.numerator, c.denominator] for c in coef.coords]
                    for coef in poly]
        return {"p": self.p, "P": dump(self.P), "Q": dump(self.Q),
                "degree": degree(self), "total_degree": total_degree(self),
                "certified_order": self.certified_order}


# -- operations ----------------------------------------------------------------

def exp_power_sums(S: PowerSumSequence) -> TruncatedSeries:
    """Truncation to order M of exp(sum_(m<=M) S_m t^m / m)."""
    p = S.p
    sums = [CyclotomicRat.from_cyclotomic_int(v) for v in S.values]
    coeffs = [CyclotomicRat.one(p)]
    for M in range(1, len(sums) + 1):
        acc = CyclotomicRat.zero(p)
        for j in range(1, M + 1):
            acc = acc + sums[j - 1] * coeffs[M - j]
        coeffs.append(acc / M)
    return TruncatedSeries(p, tuple(coeffs))


def _remainder_rows(s: TruncatedSeries):
    """The rows (r_j, v_j), j >= 1, of extended Euclid on (t^(M+1), s):
    r_j = u_j t^(M+1) + v_j s with gcd(u_j, v_j) = 1 and deg r_j falling,
    ending at r_j = 0.  Each division runs only when the next row is asked
    for."""
    zero, one = CyclotomicRat.zero(s.p), CyclotomicRat.one(s.p)
    r_prev, r = [zero] * (s.order + 1) + [one], trim(s.coeffs)
    v_prev, v = [], [one]
    while True:
        yield r, v
        if not r:
            return
        q, rem = divmod_(r_prev, r)
        r_prev, r = r, rem
        v_prev, v = v, add(v_prev, neg(mul(q, v)))


def _certify(s: TruncatedSeries, r, v, dQ: int) -> LSeries:
    """The candidate r/v of a remainder row as a certified LSeries.  From
    r = u t^(M+1) + v s, t^k divides r for k = val_t(v), and gcd(u, v) = 1
    makes gcd(r, v) = t^k; so P/Q = (r/t^k)/(v/t^k) is reduced with
    Q(0) != 0.  Q must have degree <= dQ, and P/Q, normalised to Q(0) = 1,
    must re-expand to s."""
    k = next(i for i, c in enumerate(v) if c)
    P_raw, Q_raw = r[k:], v[k:]
    if len(Q_raw) - 1 > dQ:
        raise ReconstructionError(
            f"no denominator of degree <= {dQ} matches (needed {len(Q_raw) - 1})")
    inv0 = Q_raw[0].inverse()
    P = [x * inv0 for x in P_raw]
    Q = [x * inv0 for x in Q_raw]
    if expand_quotient(P, Q, s.order) != list(s.coeffs):
        raise ReconstructionError(
            "expansion mismatch: series is not rational within the bounds "
            "(order too small or bounds wrong)")
    g, u, w = xgcd(P, Q)
    assert len(g) == 1
    return LSeries(s.p, tuple(P), tuple(Q), s.order,
                   bezout=(tuple(u), tuple(w)))


def pade_reconstruct(s: TruncatedSeries, dP: int, dQ: int) -> LSeries:
    """Certified Pade approximant of the truncation: P/Q with deg P <= dP,
    deg Q <= dQ, P(0) = Q(0) = 1, gcd(P, Q) = 1, whose expansion matches s
    through its full order: the first remainder row with deg r <= dP."""
    if dP < 0 or dQ < 0:
        raise ValueError("degree bounds must be >= 0")
    if dP + dQ + 1 > s.order:
        raise ReconstructionError(
            f"certification needs dP + dQ + 1 <= M; got {dP}+{dQ}+1 > {s.order}")
    r, v = next(row for row in _remainder_rows(s) if len(row[0]) - 1 <= dP)
    return _certify(s, r, v, dQ)


def reconstruct_auto(s: TruncatedSeries, slack: int = 2) -> LSeries:
    """The certified P/Q of least total degree T <= M - 1 - slack, and among
    those the one of greatest deg Q: pade_reconstruct(s, dP, dQ) at the
    first (dP, dQ) in the order (dP + dQ up, dQ down) that certifies.

    One walk of the remainder rows finds it.  Row j answers every dP from
    max(deg r_j, 0) up to deg r_(j-1) - 1, so its candidate first certifies
    at total T_j = max(deg r_j, 0) + deg Q_j.  The walk keeps the row of
    least (T_j, deg r_j), shrinking the bound on T as it goes; no later row
    totals less than M + 1 - deg r_j.  It stops at a certified row with
    2 T_j <= M: any other certified P'/Q' of total <= T_j agrees with it
    mod t^(M+1), and P Q' - P' Q has degree <= 2 T_j, so they are equal."""
    M = s.order
    bound = M - 1 - max(slack, 0)   # certification needs T + 1 <= M
    best = None
    for r, v in _remainder_rows(s):
        dP = max(len(r) - 1, 0)
        try:
            best = _certify(s, r, v, bound - dP)
        except ReconstructionError:
            pass
        else:
            bound = dP + len(best.Q) - 1
            if 2 * bound <= M:
                return best
        if len(r) + bound < M + 2:
            break
    if best is None:
        raise ReconstructionError(
            f"no rational function certified at order {M} with slack {slack}")
    return best


def degree(L: LSeries) -> int:
    return len(trim(L.Q)) - len(trim(L.P))


def total_degree(L: LSeries) -> int:
    return len(trim(L.Q)) + len(trim(L.P)) - 2


def log_derivative_check(L: LSeries, S: PowerSumSequence) -> bool:
    """Defining identity: t (P'Q - PQ') = (sum_m S_m t^m) P Q mod t^(M+1)."""
    p = L.p
    zero = CyclotomicRat.zero(p)
    M = min(L.certified_order, len(S.values))
    P, Q = list(L.P), list(L.Q)
    lhs = [zero] + add(mul(derivative(P), Q), neg(mul(P, derivative(Q))))
    s_poly = [zero] + [CyclotomicRat.from_cyclotomic_int(v) for v in S.values]
    rhs = mul(s_poly, mul(P, Q))
    lhs = lhs[: M + 1] + [zero] * max(0, M + 1 - len(lhs))
    rhs = rhs[: M + 1] + [zero] * max(0, M + 1 - len(rhs))
    return all((a - b).is_zero() for a, b in zip(lhs, rhs))


def series_from_rationals(p: int, values) -> TruncatedSeries:
    """Convenience: a truncation with plain rational coefficients."""
    return TruncatedSeries(p, tuple(
        v if isinstance(v, CyclotomicRat) else
        CyclotomicRat.from_rational(p, Fraction(v)) for v in values))


def power_sums_from_ints(p: int, n: int, values) -> PowerSumSequence:
    """Convenience: S_m given as plain integers."""
    return PowerSumSequence(p, n, tuple(
        v if isinstance(v, CyclotomicInt) else CyclotomicInt.from_int(p, v)
        for v in values))
