"""L-series assembly and certified rational reconstruction over Q(zeta_p).

exp_power_sums turns S_1..S_M into the truncated series
exp(sum_m S_m t^m / m) via the recurrence M c_M = sum_j S_j c_(M-j);
pade_reconstruct finds coprime P/Q matching the truncation and certifies
the result by re-expansion.  Everything is exact; polynomials are little-
endian lists of CyclotomicRat.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._exactpoly import (add, derivative, divmod_, expand_quotient, mul, neg,
                         trim, xgcd)
from .expsum import PowerSumSequence
from .ffield import CyclotomicInt, CyclotomicRat


class ReconstructionError(RuntimeError):
    """No rational function within the degree bounds matches the series."""


# -- domain types --------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedSeries:
    """c_0..c_M of a power series over Q(zeta_p)."""

    p: int
    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.p != other.p:
            raise ValueError("mixed coefficient fields")
        order = min(self.order, other.order)
        out = []
        for k in range(order + 1):
            acc = CyclotomicRat.zero(self.p)
            for j in range(k + 1):
                acc = acc + self.coeffs[j] * other.coeffs[k - j]
            out.append(acc)
        return TruncatedSeries(self.p, tuple(out))


@dataclass(frozen=True)
class LSeries:
    """Certified rational function P/Q with P(0) = Q(0) = 1, gcd(P,Q) = 1,
    matching its source series through degree certified_order."""

    p: int
    P: tuple
    Q: tuple
    certified_order: int
    bezout: tuple = ()  # (u, v) with u*P + v*Q = 1, the coprimality witness

    def expansion(self, order=None) -> TruncatedSeries:
        order = self.certified_order if order is None else order
        return TruncatedSeries(self.p, tuple(
            expand_quotient(list(self.P), list(self.Q), order)))

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


def pade_reconstruct(s: TruncatedSeries, dP: int, dQ: int) -> LSeries:
    """Certified Pade approximant of the truncation: P/Q with deg P <= dP,
    deg Q <= dQ, P(0) = Q(0) = 1, gcd(P, Q) = 1, whose expansion matches s
    through its full order.  Extended Euclid on (t^(M+1), s)."""
    p = s.p
    M = s.order
    if dP < 0 or dQ < 0:
        raise ValueError("degree bounds must be >= 0")
    if dP + dQ + 1 > M:
        raise ReconstructionError(
            f"certification needs dP + dQ + 1 <= M; got {dP}+{dQ}+1 > {M}")
    one = CyclotomicRat.one(p)
    mod = [CyclotomicRat.zero(p)] * (M + 1) + [one]  # t^(M+1)
    r_prev, r_cur = mod, trim(s.coeffs)
    v_prev, v_cur = [], [one]
    while len(r_cur) - 1 > dP:
        q, r = divmod_(r_prev, r_cur)
        r_prev, r_cur = r_cur, r
        v_prev, v_cur = v_cur, add(v_prev, neg(mul(q, v_cur)))
    P_raw, Q_raw = r_cur, v_cur
    if not Q_raw:
        raise ReconstructionError("degenerate reconstruction")
    g, _, _ = xgcd(P_raw, Q_raw)
    if len(g) > 1:
        P_raw, _ = divmod_(P_raw, g)
        Q_raw, _ = divmod_(Q_raw, g)
    if len(Q_raw) - 1 > dQ:
        raise ReconstructionError(
            f"no denominator of degree <= {dQ} matches (needed {len(Q_raw) - 1})")
    if not Q_raw or Q_raw[0].is_zero():
        raise ReconstructionError("denominator vanishes at 0; cannot normalize")
    inv0 = Q_raw[0].inverse()
    P = [x * inv0 for x in P_raw]
    Q = [x * inv0 for x in Q_raw]
    # certification: the normalized quotient must reproduce the input series
    if expand_quotient(P, Q, M) != list(s.coeffs):
        raise ReconstructionError(
            "expansion mismatch: series is not rational within the bounds "
            "(order too small or bounds wrong)")
    g, u, v = xgcd(P, Q)
    assert len(g) == 1
    return LSeries(p, tuple(P), tuple(Q), M, bezout=(tuple(u), tuple(v)))


def reconstruct_auto(s: TruncatedSeries, slack: int = 2) -> LSeries:
    """Sweep dP + dQ upward until a certified reconstruction exists with
    M >= dP + dQ + 1 + slack; deterministic order (denominator-heavy first)."""
    M = s.order
    for total in range(0, max(0, M - slack)):
        for dQ in range(total, -1, -1):
            dP = total - dQ
            try:
                return pade_reconstruct(s, dP, dQ)
            except ReconstructionError:
                continue
    raise ReconstructionError(
        f"no rational function certified at order {M} with slack {slack}")


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
