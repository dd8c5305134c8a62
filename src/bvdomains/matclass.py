"""Matrix-class characterization transforms and testers.

A matrix A maps the bv domain into Y exactly when its rows lie in the domain's
beta-dual and E = A . inverse(domain) lies in (l1:Y); a matrix B maps Y into
the bv domain exactly when F = domain . B lies in (Y:l1).  Only the target
classes with testable conditions are supported: Y in {l1, c, linf} for the
"from" direction and Y = l1 for the "into" direction.  E and F are each one
call of ``core.compose``, the one matrix product, over ``core.BandedMatrix``,
the one lazy matrix class.
"""

from __future__ import annotations

from collections import namedtuple

from .core import BandedMatrix, apply, compose, invert
from .builders import Domain
from .duals import condition_stats, condition_verdict, conditions_dict, dual_test
from .spaces import SpaceId, checkpoints, combine_verdicts, policy_dict


class UnsupportedClassError(ValueError):
    """Raised for a target/source space the testable conditions do not cover."""

    def __init__(self, direction: str, space: SpaceId, allowed):
        names = ", ".join(s.value for s in allowed)
        super().__init__(
            f"class test {direction} supports only {{{names}}}, got {space.value}"
        )
        self.space = space


# An alias of core.apply, kept only because bench/tracing.py spans it by this
# name; it can go once the tracer reads counters of the package's own.
apply_general = apply


_CLASS_FIELDS = "direction domain_label space n row_dual_checks transformed_condition verdict"


class ClassReport(namedtuple("ClassReport", _CLASS_FIELDS)):
    """A class test at truncation n: its ``direction``, "from_bv_domain" or
    "into_bv_domain", the ``domain_label`` "C", "G" or "R", the SpaceId
    ``space``, the tuple ``row_dual_checks`` of DualReports for the sampled
    rows (None into the domain), the ``transformed_condition`` block and
    the ``verdict``."""

    __slots__ = ()

    def to_dict(self) -> dict:
        # one dict per distinct report, so rows that share a report share it
        reports = {id(r): r for r in self.row_dual_checks or ()}
        dicts = {key: r.to_dict() for key, r in reports.items()}
        return {
            "direction": self.direction,
            "domain_label": self.domain_label,
            "space": self.space.value,
            "n": self.n,
            "row_dual_checks": None
            if self.row_dual_checks is None
            else [dicts[id(r)] for r in self.row_dual_checks],
            "transformed_condition": self.transformed_condition,
            "verdict": self.verdict,
            "policy": policy_dict(),
        }


# (l1:Y) is decided by the same condition statistics as the dual kind of Y.
_Y_TO_KIND = {SpaceId.L1: "alpha", SpaceId.C: "beta", SpaceId.LINF: "gamma"}
_CLASS_VERDICTS = {
    "likely_in": "likely_in_class",
    "likely_out": "likely_not_in_class",
    "inconclusive": "inconclusive",
}


def _target_condition(m, y: SpaceId, n: int):
    stats = condition_stats(_Y_TO_KIND[y], m, n)
    verdict = condition_verdict(stats)
    block = {"target": y.value, **conditions_dict(stats), "verdict": verdict}
    return block, verdict


def class_test_from_domain(
    a: BandedMatrix, domain: Domain, y: SpaceId, n: int
) -> ClassReport:
    """Test A in (bv(domain) : Y) at truncation n.

    Runs the beta-dual check on the first n/4 rows of A (a documented finite
    sample of "for all n") and the (l1:Y) condition on E = A . inverse.
    Every row from ``a.row_count`` on is the zero sequence, and a report
    carries no row index, so the first zero row's report serves them all.
    """
    quarter = checkpoints(n)[0]
    if y not in (SpaceId.L1, SpaceId.C, SpaceId.LINF):
        raise UnsupportedClassError(
            "from_bv_domain", y, (SpaceId.L1, SpaceId.C, SpaceId.LINF)
        )
    sampled = quarter if a.row_count is None else min(quarter, a.row_count + 1)
    checks = [dual_test(domain, a.row_seq(row), "beta", n) for row in range(sampled)]
    row_checks = tuple(checks + checks[-1:] * (quarter - sampled))
    e = compose(a, invert(domain.matrix))
    block, cond_verdict = _target_condition(e, y, n)
    row_verdicts = (r.verdict for r in row_checks)
    verdict = _CLASS_VERDICTS[combine_verdicts(cond_verdict, *row_verdicts)]
    return ClassReport("from_bv_domain", domain.label, y, n, row_checks, block, verdict)


def class_test_into_domain(
    b: BandedMatrix, domain: Domain, y: SpaceId, n: int
) -> ClassReport:
    """Test B in (Y : bv(domain)) at truncation n; only Y = l1 has a testable
    condition, via F = domain . B in (l1:l1)."""
    checkpoints(n)
    if y is not SpaceId.L1:
        raise UnsupportedClassError("into_bv_domain", y, (SpaceId.L1,))
    f = compose(domain.matrix, b)
    block, cond_verdict = _target_condition(f, SpaceId.L1, n)
    verdict = _CLASS_VERDICTS[combine_verdicts(cond_verdict)]
    return ClassReport("into_bv_domain", domain.label, y, n, None, block, verdict)
