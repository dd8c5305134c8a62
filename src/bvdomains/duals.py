"""Associated matrices and truncation tests for the alpha/beta/gamma duals.

The alpha-dual matrix is diag(a) . inverse(domain); the beta/gamma matrix
accumulates b_nk = sum_{j=k}^{n} a_j * inverse(domain)_jk.
Each dual kind is decided (heuristically, at truncation) by the matrix-class
conditions for (l1:l1), (l1:c), (l1:linf) evaluated on the associated matrix.
The statistics live in one dict keyed by report name (``condition_stats``),
which one serializer writes (``conditions_dict``) and one verdict function
reads (``condition_verdict``); ``matclass`` uses the same three functions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import Seq, Triangle, ZERO, invert
from .builders import Domain, RieszWeights, WeightPair
from .spaces import _check_n, _stats_dict, classify_trend, combine_verdicts, fmt, policy_dict

# A beta-column is called convergent at truncation when its oscillation over
# the last window is at most this; policy, not a theorem.
OSCILLATION_TOL = Fraction(1, 10**6)

DUAL_KINDS = ("alpha", "beta", "gamma")


def alpha_assoc(domain_matrix: Triangle, a: Seq) -> Triangle:
    """Matrix sending y = (domain)x to the products (a_n x_n): diag(a) . inverse."""
    inv = invert(domain_matrix)
    return Triangle(
        lambda n, k: a(n) * inv.entry(n, k),
        label=f"alpha_assoc({domain_matrix.label})",
    )


def beta_assoc(domain_matrix: Triangle, a: Seq) -> Triangle:
    """Matrix of partial sums sum_{k<=n} a_k x_k in the y coordinates.

    entry(n,k) = sum_{j=k}^{n} a_j * inverse(domain)_jk, held as per-column
    running sums so deep probes stay linear instead of quadratic.
    """
    inv = invert(domain_matrix)
    columns: dict[int, list[Fraction]] = {}
    lock = threading.Lock()

    def entry(n: int, k: int) -> Fraction:
        with lock:
            col = columns.setdefault(k, [a(k) * inv.entry(k, k)])
            while len(col) <= n - k:
                j = k + len(col)
                col.append(col[-1] + a(j) * inv.entry(j, k))
            return col[n - k]

    return Triangle(entry, label=f"beta_assoc({domain_matrix.label})")


def closed_form_beta_matrix(weights: Union[WeightPair, RieszWeights], a: Seq) -> Triangle:
    """The same beta/gamma matrix built from the weight closed forms only.

    Column k carries a_k/(u_k v_k) on the diagonal plus the partial sums of
    c_j = (1/v_j)(1/u_j - 1/u_{j-1}) a_j below it; no inversion is involved,
    so this is an independent oracle for beta_assoc on bv(G)/bv(R).
    """
    w = weights.as_weight_pair() if isinstance(weights, RieszWeights) else weights

    def diag_term(k: int) -> Fraction:
        return a(k) / (w.u_at(k) * w.v_at(k))

    def step(j: int) -> Fraction:  # only probed for j >= 1
        return (1 / w.u_at(j) - 1 / w.u_at(j - 1)) * a(j) / w.v_at(j)

    # prefix[j] = step(1) + ... + step(j), so the below-diagonal partial sums
    # are differences of prefixes instead of per-entry loops
    prefix: list[Fraction] = [ZERO]
    lock = threading.Lock()

    def prefix_at(j: int) -> Fraction:
        with lock:
            while len(prefix) <= j:
                prefix.append(prefix[-1] + step(len(prefix)))
            return prefix[j]

    def entry(n: int, k: int) -> Fraction:
        return diag_term(k) + prefix_at(n) - prefix_at(k)

    return Triangle(entry, label="closed_form_beta")


def cond_l1_linf(m, n: int) -> tuple:
    """sup |entry| over the N/4, N/2, N leading squares (condition for (l1:linf)).

    One pass grows the square by its last row and column, so each entry of
    the N x N square is read once and the smaller squares are checkpoints.
    """
    _check_n(n)
    out = []
    best = ZERO
    for last in range(n):
        for i in range(last):
            best = max(best, abs(m.entry(last, i)), abs(m.entry(i, last)))
        best = max(best, abs(m.entry(last, last)))
        if last + 1 in (n // 4, n // 2, n):
            out.append((last + 1, best))
    return tuple(out)


def cond_l1_c(m, n: int) -> tuple:
    """Per-column limit diagnostics for the (l1:c) condition.

    For each column k < N/4: the oscillation of the entries over rows
    [N/2, N] and the entry at row N as the limit estimate.
    """
    _check_n(n)
    cols = []
    for k in range(n // 4):
        window = [m.entry(row, k) for row in range(n // 2, n + 1)]
        osc = max(window) - min(window)
        cols.append(
            {
                "k": k,
                "oscillation": osc,
                "limit_estimate": m.entry(n, k),
                "converged": osc <= OSCILLATION_TOL,
            }
        )
    return tuple(cols)


def cond_l1_l1(m, n: int) -> tuple:
    """max_k of column absolute sums over the three leading squares ((l1:l1)).

    Like cond_l1_linf, one pass over the N x N square: the running column
    sums take the new last row, then the new last column is summed.
    """
    _check_n(n)
    out = []
    sums: list[Fraction] = []
    for last in range(n):
        for col in range(last):
            sums[col] += abs(m.entry(last, col))
        sums.append(sum((abs(m.entry(row, last)) for row in range(last + 1)), ZERO))
        if last + 1 in (n // 4, n // 2, n):
            out.append((last + 1, max(sums)))
    return tuple(out)


def _columns_dict(cols: tuple) -> list:
    return [
        {**c, "oscillation": fmt(c["oscillation"]), "limit_estimate": fmt(c["limit_estimate"])}
        for c in cols
    ]


def verdict_stats(kind: str, m, n: int) -> dict:
    """The statistics that decide a dual kind on matrix m, keyed by report
    name: column l1 sums (alpha), sup-entry (gamma), sup-entry and column
    limits (beta)."""
    if kind == "alpha":
        return {"column_l1": cond_l1_l1(m, n)}
    stats = {"sup_entry": cond_l1_linf(m, n)}
    if kind == "beta":
        stats["column_limits"] = cond_l1_c(m, n)
    return stats


def condition_stats(kind: str, m, n: int) -> dict:
    """The reported condition statistics of a dual kind on matrix m: the
    deciding ones, plus the column l1 sums as auxiliary data for beta."""
    stats = verdict_stats(kind, m, n)
    if kind == "beta":
        stats["column_l1_aux"] = cond_l1_l1(m, n)
    return stats


def conditions_dict(stats: dict) -> dict:
    """The serialized form of keyed condition statistics."""
    return {
        name: _columns_dict(value) if name == "column_limits" else _stats_dict(value)
        for name, value in stats.items()
    }


def condition_verdict(stats: dict) -> str:
    """The combined verdict of the deciding statistics: the trends of the
    column l1 sums and the sup-entry, and each column limit, which counts as
    likely_in when it converged.  Auxiliary statistics take no part."""
    verdicts = [
        classify_trend(*(v for _, v in stats[name]))
        for name in ("column_l1", "sup_entry")
        if name in stats
    ]
    verdicts += [
        "likely_in" if c["converged"] else "inconclusive"
        for c in stats.get("column_limits", ())
    ]
    return combine_verdicts(*verdicts)


@dataclass(frozen=True)
class DualReport:
    kind: str
    n: int
    conditions: dict  # condition statistics keyed by report name
    verdict: str
    cross_check: Optional[dict] = None

    def to_dict(self) -> dict:
        policy = policy_dict()
        policy["oscillation_tolerance"] = fmt(OSCILLATION_TOL)
        return {
            "kind": self.kind,
            "n": self.n,
            "conditions": conditions_dict(self.conditions),
            "verdict": self.verdict,
            "cross_check": self.cross_check,
            "policy": policy,
        }


def dual_test(
    domain: Union[Domain, Triangle], a: Seq, kind: str, n: int
) -> DualReport:
    """Evaluate whether a belongs to the given dual of the bv matrix domain.

    Accepts either a bare domain Triangle or a Domain; when a Domain with
    weights (G or R) is given and kind is beta/gamma, the report cross-checks
    the generic associated matrix against the weight-closed-form construction.
    """
    _check_n(n)
    if isinstance(domain, Domain):
        matrix, weights = domain.matrix, domain.weights
    else:
        matrix, weights = domain, None
    if kind not in DUAL_KINDS:
        raise ValueError(f"unknown dual kind {kind!r}")

    assoc = alpha_assoc(matrix, a) if kind == "alpha" else beta_assoc(matrix, a)
    conditions = condition_stats(kind, assoc, n)

    if a.support_bound is not None and a.support_bound <= n // 4:
        verdict = "certified_in"
    else:
        verdict = condition_verdict(conditions)

    cross_check = None
    if weights is not None and kind in ("beta", "gamma"):
        oracle = verdict_stats(kind, closed_form_beta_matrix(weights, a), n)
        shown = conditions_dict(oracle)
        cross_check = {
            "sup_entry": shown.pop("sup_entry"),
            "match": all(oracle[name] == conditions[name] for name in oracle),
            **shown,
        }

    return DualReport(kind, n, conditions, verdict, cross_check)
