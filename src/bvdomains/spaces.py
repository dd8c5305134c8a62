"""Norms, membership diagnostics, and the classical-duals lookup table.

Membership of an infinite sequence cannot be decided from finitely many
probes, so verdicts are heuristic trend classifications computed from exact
partial statistics at the checkpoints N/4, N/2, N.  The policy constants below
are quoted verbatim in every report so downstream tools never mistake the
heuristics for proofs.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .core import Seq, Triangle, ZERO, apply


class SpaceId(str, Enum):
    L1 = "l1"
    LINF = "linf"
    C = "c"
    C0 = "c0"
    CS = "cs"
    BS = "bs"
    BV = "bv"
    BV0 = "bv0"


GROWTH_DELTA = Fraction(1, 100)
DIVERGENCE_FACTOR = Fraction(2)

POLICY_NOTE = (
    "verdicts are heuristic trend classifications from exact partial "
    "statistics, not proofs: likely_out when stat(N) >= 2 * stat(N/4) > 0, "
    "likely_in when stat(N) = 0 or stat(N)/stat(N/2) <= 1 + 1/100, "
    "certified_in only for a declared finite support bound <= N"
)


def policy_dict() -> dict:
    return {
        "growth_delta": fmt(GROWTH_DELTA),
        "divergence_factor": fmt(DIVERGENCE_FACTOR),
        "note": POLICY_NOTE,
    }


_TOO_MANY_DIGITS = (
    "a result has too many digits to print; use a smaller --n or smaller"
    " spec parameters (power p, geometric r, rational literals)"
)


def fmt(value: Fraction) -> str:
    """The exact ``p/q`` text of a rational; every rational in the output
    passes through here or through ``fmt_ratio``."""
    return fmt_ratio(*value.as_integer_ratio())


def fmt_ratio(p: int, q: int) -> str:
    """The text of p/q in lowest terms, q > 0, without building the
    Fraction: ``str`` of the Fraction."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # more digits than int-to-str conversion allows
        raise ValueError(_TOO_MANY_DIGITS) from None


def _stats_dict(stats: tuple) -> list:
    return [{"index": i, "value": fmt(v)} for i, v in stats]


def classify_trend(s1: Fraction, s2: Fraction, s3: Fraction) -> str:
    """Verdict from the statistics at N/4, N/2, N (exact comparisons)."""
    if s1 > 0 and s3 >= DIVERGENCE_FACTOR * s1:
        return "likely_out"
    if s3 == 0:
        return "likely_in"
    if s2 != 0 and s3 / s2 <= 1 + GROWTH_DELTA:
        return "likely_in"
    return "inconclusive"


def combine_verdicts(*verdicts: str) -> str:
    """The conservative verdict of several parts: likely_out if any part is
    likely_out, likely_in if every part is certified_in or likely_in, else
    inconclusive."""
    if "likely_out" in verdicts:
        return "likely_out"
    if all(v in ("certified_in", "likely_in") for v in verdicts):
        return "likely_in"
    return "inconclusive"


_MEMBERSHIP_FIELDS = "space n checkpoints growth_ratio verdict aux_checkpoints"


class MembershipReport(namedtuple("MembershipReport", _MEMBERSHIP_FIELDS, defaults=(None,))):
    """Membership in ``space`` at truncation n: the ``checkpoints``
    ((index, Fraction), ...), the ``growth_ratio`` (a Fraction or None),
    the ``verdict``, and ``aux_checkpoints``, the second statistic for bv0
    (else None)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        d = {
            "space": self.space.value,
            "n": self.n,
            "checkpoints": _stats_dict(self.checkpoints),
            "growth_ratio": None if self.growth_ratio is None else fmt(self.growth_ratio),
            "verdict": self.verdict,
            "policy": policy_dict(),
        }
        if self.aux_checkpoints is not None:
            d["aux_checkpoints"] = _stats_dict(self.aux_checkpoints)
        return d


def bv_norm_prefix(x: Seq, n: int) -> Fraction:
    """|x_0| + sum_{k=1}^{n} |x_k - x_{k-1}|, exact and nondecreasing in n."""
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    total = abs(x(0))
    prev = x(0)
    for k in range(1, n + 1):
        cur = x(k)
        total += abs(cur - prev)
        prev = cur
    return total


def bvA_norm_prefix(a: Triangle, x: Seq, n: int) -> Fraction:
    """bv-norm prefix of the transformed sequence Ax, read at its first n +
    1 coordinates (``core.apply``)."""
    return bv_norm_prefix(Seq(apply(a, x, n + 1).__getitem__), n)


def _statistic(x: Seq, space: SpaceId, idx: int) -> Fraction:
    """The space's defining partial quantity over the first idx terms.

    Divergence-type statistics (l1, bv) are partial sums that must plateau for
    membership; bounded-type statistics (linf, bs) must stay bounded; the
    convergence-type ones (c, c0, cs) are computed over the tail window
    [idx/2, idx) and must shrink.
    """
    lo = idx // 2
    if space is SpaceId.L1:
        return sum((abs(x(k)) for k in range(idx)), ZERO)
    if space is SpaceId.BV or space is SpaceId.BV0:
        total = ZERO
        for k in range(1, idx):
            total += abs(x(k) - x(k - 1))
        return total
    if space is SpaceId.LINF:
        return max(abs(x(k)) for k in range(idx))
    if space is SpaceId.BS:
        best = ZERO
        acc = ZERO
        for k in range(idx):
            acc += x(k)
            best = max(best, abs(acc))
        return best
    if space is SpaceId.C:
        window = [x(k) for k in range(lo, idx)]
        return max(window) - min(window)
    if space is SpaceId.C0:
        return max(abs(x(k)) for k in range(lo, idx))
    if space is SpaceId.CS:
        sums = []
        acc = ZERO
        for k in range(idx):
            acc += x(k)
            if k >= lo:
                sums.append(acc)
        return max(sums) - min(sums)
    raise ValueError(f"unknown space {space}")


def checkpoints(n: int) -> tuple:
    """The truncation rule shared by every checkpointed statistic: n must be
    a multiple of 4 and >= 8, and the statistics are read at (N/4, N/2, N)."""
    if n < 8 or n % 4 != 0:
        raise ValueError(f"truncation must be a multiple of 4 and >= 8, got {n}")
    return n // 4, n // 2, n


def membership(x: Seq, space: SpaceId, n: int) -> MembershipReport:
    """Trend diagnostic for x in the given classical space at truncation n.

    bv0 runs both of its defining statistics (variation and tail magnitude)
    and combines the verdicts conservatively.
    """
    indices = checkpoints(n)
    stats = tuple((i, _statistic(x, space, i)) for i in indices)
    s1, s2, s3 = (v for _, v in stats)
    ratio = s3 / s2 if s2 != 0 else None
    certified = x.support_bound is not None and x.support_bound <= n
    if certified:
        verdict = "certified_in"
    else:
        verdict = classify_trend(s1, s2, s3)
    aux = None
    if space is SpaceId.BV0:
        aux = tuple((i, _statistic(x, SpaceId.C0, i)) for i in indices)
        if not certified:
            verdict = combine_verdicts(verdict, classify_trend(*(v for _, v in aux)))
    return MembershipReport(space, n, stats, ratio, verdict, aux)


def domain_membership(x: Seq, a: Triangle, space: SpaceId, n: int) -> MembershipReport:
    """Membership diagnostic for the transformed sequence Ax, read at its
    first n coordinates (``core.apply``), as ``transform`` reads them: an
    invalid weight of a structured a is raised whatever the space, even
    where its statistic would not read the coordinate that holds it.

    With a in {phi, gamma, sigma_riesz} and space l1 this is exactly the
    bv(C)/bv(G)/bv(R) diagnostic.
    """
    return membership(Seq(apply(a, x, n).__getitem__), space, n)


_D = SpaceId
_DUAL_TABLE = {
    "alpha": {
        _D.C0: _D.L1, _D.C: _D.L1, _D.LINF: _D.L1, _D.L1: _D.LINF,
        _D.CS: _D.L1, _D.BS: _D.L1, _D.BV: _D.L1, _D.BV0: _D.L1,
    },
    "beta": {
        _D.C0: _D.L1, _D.C: _D.L1, _D.LINF: _D.L1, _D.L1: _D.LINF,
        _D.CS: _D.BV, _D.BS: _D.BV0, _D.BV: _D.CS, _D.BV0: _D.BS,
    },
    "gamma": {
        _D.C0: _D.L1, _D.C: _D.L1, _D.LINF: _D.L1, _D.L1: _D.LINF,
        _D.CS: _D.BV, _D.BS: _D.BV, _D.BV: _D.BS, _D.BV0: _D.BS,
    },
}


def classical_dual(space: SpaceId, kind: str) -> SpaceId:
    """Tabulated alpha/beta/gamma dual of a classical space (pure data)."""
    try:
        return _DUAL_TABLE[kind][space]
    except KeyError:
        raise ValueError(f"no tabulated {kind}-dual for {space}") from None
