"""Matrix-class characterization transforms and testers.

A matrix A maps the bv domain into Y exactly when its rows lie in the domain's
beta-dual and E = A . inverse(domain) lies in (l1:Y); a matrix B maps Y into
the bv domain exactly when F = domain . B lies in (Y:l1).  Only the target
classes with testable conditions are supported: Y in {l1, c, linf} for the
"from" direction and Y = l1 for the "into" direction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .core import Seq, Triangle, ZERO, apply, invert, rat
from .builders import Domain
from .duals import _condition_stats, _condition_verdict, conditions_dict, dual_test
from .spaces import SpaceId, _check_n, policy_dict


class UnsupportedClassError(ValueError):
    """Raised for a target/source space the testable conditions do not cover."""

    def __init__(self, direction: str, space: SpaceId, allowed):
        names = ", ".join(s.value for s in allowed)
        super().__init__(
            f"class test {direction} supports only {{{names}}}, got {space.value}"
        )
        self.space = space


class BandedMatrix:
    """A general infinite matrix whose every row has declared finite support.

    ``row_bound(n)`` is the largest possibly-nonzero column of row n; entries
    beyond it are zero without consulting the closure.  ``row_count``, when
    present, declares all rows from that index on to be zero (a wholly finite
    matrix).  The finite row supports are what make the tail sums of the E
    transform exact.
    """

    def __init__(
        self,
        entry_fn: Callable[[int, int], Fraction],
        row_bound: Callable[[int], int],
        row_count: Optional[int] = None,
        label: str = "banded",
    ):
        self._entry = entry_fn
        self.row_bound = row_bound
        self.row_count = row_count
        self.label = label
        self._cache: dict[tuple[int, int], Fraction] = {}

    def entry(self, n: int, k: int) -> Fraction:
        if n < 0 or k < 0:
            raise IndexError(f"matrix indices must be >= 0, got ({n}, {k})")
        if self.row_count is not None and n >= self.row_count:
            return ZERO
        if k > self.row_bound(n):
            return ZERO
        value = self._cache.get((n, k))
        if value is None:
            value = self._cache[(n, k)] = rat(self._entry(n, k))
        return value

    def row_seq(self, n: int) -> Seq:
        """Row n as a finitely supported Seq."""
        bound = 0 if (self.row_count is not None and n >= self.row_count) else self.row_bound(n)
        return Seq(
            lambda k: self.entry(n, k),
            support_bound=bound,
            label=f"{self.label}[row {n}]",
        )

    def __repr__(self):
        return f"BandedMatrix({self.label})"

    @classmethod
    def from_rows(cls, rows, label: str = "banded") -> "BandedMatrix":
        """A finite matrix from explicit row literals (zero beyond them)."""
        data = [[rat(v) for v in row] for row in rows]

        def entry(n, k):
            if n < len(data) and k < len(data[n]):
                return data[n][k]
            return ZERO

        def bound(n):
            return max(len(data[n]) - 1, 0) if n < len(data) else 0

        return cls(entry, bound, row_count=len(data), label=label)

    @classmethod
    def from_triangle(cls, t: Triangle, label: Optional[str] = None) -> "BandedMatrix":
        return cls(t.entry, lambda n: n, label=label or t.label)


Matrixish = Union[Triangle, BandedMatrix]


# Triangles and banded matrices both declare row_bound, so the one coordinate
# loop in core serves both.
apply_general = apply


def row_transform_E(a: BandedMatrix, domain_matrix: Triangle) -> BandedMatrix:
    """E = A . inverse(domain); the row support bounds make every entry an
    exact finite sum."""
    inv = invert(domain_matrix)

    def entry(n: int, k: int) -> Fraction:
        acc = ZERO
        for j in range(k, a.row_bound(n) + 1):
            c = a.entry(n, j)
            if c:
                acc += c * inv.entry(j, k)
        return acc

    return BandedMatrix(
        entry,
        a.row_bound,
        row_count=a.row_count,
        label=f"E({a.label},{domain_matrix.label})",
    )


def left_transform_F(b: Matrixish, domain_matrix: Triangle) -> Matrixish:
    """F = domain . B; each entry is a finite sum because the domain is a
    triangle.  A Triangle operand yields a Triangle."""

    def entry(n: int, k: int) -> Fraction:
        acc = ZERO
        for j in range(n + 1):
            c = domain_matrix.entry(n, j)
            if c:
                acc += c * b.entry(j, k)
        return acc

    label = f"F({b.label},{domain_matrix.label})"
    if isinstance(b, Triangle):
        return Triangle(entry, label=label)

    bounds: list[int] = []  # cumulative max of b's row bounds
    lock = threading.Lock()

    def bound(n: int) -> int:
        with lock:
            while len(bounds) <= n:
                m = len(bounds)
                prev = bounds[m - 1] if m else 0
                rb = 0 if (b.row_count is not None and m >= b.row_count) else b.row_bound(m)
                bounds.append(max(prev, rb))
            return bounds[n]

    return BandedMatrix(entry, bound, label=label)


@dataclass(frozen=True)
class ClassReport:
    direction: str  # "from_bv_domain" or "into_bv_domain"
    domain_label: str  # "C", "G", or "R"
    space: SpaceId
    n: int
    row_dual_checks: Optional[tuple]  # DualReports for sampled rows (from-direction)
    transformed_condition: dict
    verdict: str

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "domain_label": self.domain_label,
            "space": self.space.value,
            "n": self.n,
            "row_dual_checks": None
            if self.row_dual_checks is None
            else [r.to_dict() for r in self.row_dual_checks],
            "transformed_condition": self.transformed_condition,
            "verdict": self.verdict,
            "policy": policy_dict(),
        }


_Y_TO_KIND = {SpaceId.L1: "alpha", SpaceId.C: "beta", SpaceId.LINF: "gamma"}
# The testable condition set for (l1:Y) coincides with the one used for the
# dual kind above: l1 -> column-l1 sums, c -> sup-entry + column limits,
# linf -> sup-entry.


def _target_condition(m, y: SpaceId, n: int):
    kind = _Y_TO_KIND[y]
    sup_entry, column_limits, column_l1 = _condition_stats(kind, m, n)
    verdict = _condition_verdict(kind, sup_entry, column_limits, column_l1)
    block = {
        "target": y.value,
        **conditions_dict(kind, sup_entry, column_limits, column_l1),
        "verdict": verdict,
    }
    return block, verdict


def class_test_from_domain(
    a: BandedMatrix, domain: Domain, y: SpaceId, n: int
) -> ClassReport:
    """Test A in (bv(domain) : Y) at truncation n.

    Runs the beta-dual check on the first n/4 rows of A (a documented finite
    sample of "for all n") and the (l1:Y) condition on E = A . inverse.
    """
    _check_n(n)
    if y not in (SpaceId.L1, SpaceId.C, SpaceId.LINF):
        raise UnsupportedClassError(
            "from_bv_domain", y, (SpaceId.L1, SpaceId.C, SpaceId.LINF)
        )
    row_checks = tuple(
        dual_test(domain, a.row_seq(row), "beta", n) for row in range(n // 4)
    )
    e = row_transform_E(a, domain.matrix)
    block, cond_verdict = _target_condition(e, y, n)

    ok = {"certified_in", "likely_in"}
    row_verdicts = [r.verdict for r in row_checks]
    if cond_verdict == "likely_out" or "likely_out" in row_verdicts:
        verdict = "likely_not_in_class"
    elif cond_verdict == "likely_in" and all(v in ok for v in row_verdicts):
        verdict = "likely_in_class"
    else:
        verdict = "inconclusive"
    return ClassReport("from_bv_domain", domain.label, y, n, row_checks, block, verdict)


def class_test_into_domain(
    b: Matrixish, domain: Domain, y: SpaceId, n: int
) -> ClassReport:
    """Test B in (Y : bv(domain)) at truncation n; only Y = l1 has a testable
    condition, via F = domain . B in (l1:l1)."""
    _check_n(n)
    if y is not SpaceId.L1:
        raise UnsupportedClassError("into_bv_domain", y, (SpaceId.L1,))
    f = left_transform_F(b, domain.matrix)
    block, cond_verdict = _target_condition(f, SpaceId.L1, n)
    verdict = {
        "likely_in": "likely_in_class",
        "likely_out": "likely_not_in_class",
    }.get(cond_verdict, "inconclusive")
    return ClassReport("into_bv_domain", domain.label, y, n, None, block, verdict)
