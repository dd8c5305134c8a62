"""Bundled verification suites: every library identity checked at truncation.

Each check compares two independently computed values (composition vs closed
form, generic vs oracle, product vs identity) bit-exactly.  Every such
comparison goes through one of two helpers, ``_grid_equal`` over two
(row, col) callables or ``_seq_equal`` over two index callables, which records
the first offending position on failure.  Randomized instances are drawn from
a seeded generator so reports are reproducible byte for byte.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from . import VERIFY_SUITES as SUITES, builders, duals, matclass, spaces
from .core import (
    BandedMatrix,
    ONE,
    Seq,
    ZERO,
    _build_inverse,
    _entry_scan,
    apply,
    compose,
    dense_mul,
    invert,
    transform_seq,
    truncate,
)


class CheckResult(namedtuple("CheckResult", "name passed counterexample", defaults=(None,))):
    """One check's ``name``, whether it ``passed``, and the
    ``counterexample`` dict of a failure, else None."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "counterexample": self.counterexample,
        }


def _entries_equal(name, pairs):
    """Compare (position, expected, got) triples, each value a rational or
    its printed text; record the first mismatch as text."""
    for pos, expected, got in pairs:
        if expected != got:
            text = [v if isinstance(v, str) else spaces.fmt(v) for v in (expected, got)]
            return CheckResult(name, False, {"position": pos, "expected": text[0], "got": text[1]})
    return CheckResult(name, True)


def _first_failure(name, cases) -> CheckResult:
    """The first failing result of a lazy run of cases, else one pass named
    name.  Cases after the first failure never run, so they draw nothing from
    the seeded generator."""
    return next((result for result in cases if not result.passed), CheckResult(name, True))


def _grid_equal(name, expected, got, n, square=False):
    """Compare two (row, col) callables over the lower triangle of the n x n
    block, or over the whole block when square.  Each row is read whole,
    expected then got, and compared as one list; only a row that differs is
    walked cell by cell, for its first mismatch.  A cell that raises hides
    no mismatch before it: the cells of its row read so far are compared in
    the order expected(row, col), got(row, col), reading each got cell not
    yet read, and the error is raised again only when none of them differs."""
    for row in range(n):
        cols = range(n if square else row + 1)
        want, have = [], []
        try:
            for col in cols:
                want.append(expected(row, col))
            for col in cols:
                have.append(got(row, col))
        except Exception:
            # got raised once every expected cell was read, or expected
            # raised before any got cell was
            stop = len(have) if len(want) == len(cols) else len(want)
            cells = (([row, col], want[col], have[col] if have else got(row, col)) for col in cols[:stop])
            result = _entries_equal(name, cells)
            if result.passed:
                raise
            return result
        if want != have:
            return _entries_equal(name, (([row, col], e, g) for col, e, g in zip(cols, want, have)))
    return CheckResult(name, True)


def _seq_equal(name, expected, got, n):
    """Compare two index callables over 0..n-1."""
    return _entries_equal(name, (([i], expected(i), got(i)) for i in range(n)))


def _cells(dense):
    """The (row, col) callable reading a dense truncation."""
    return lambda row, col: dense[row][col]


def _identity(row, col):
    return ONE if row == col else ZERO


def _rand_rat(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_finite_seq(rng, max_len=8) -> Seq:
    values = [_rand_rat(rng) for _ in range(rng.randint(1, max_len))]
    if all(v == 0 for v in values):
        values[0] = Fraction(1)
    return Seq.from_values(values)


def _rand_banded(rng) -> BandedMatrix:
    rows = [[_rand_rat(rng) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 6))]
    return BandedMatrix.from_rows(rows)


def _weight_pairs():
    return (
        builders.WeightPair(Seq(lambda n: Fraction(1, n + 2)), Seq(lambda k: Fraction(k + 1))),
        builders.WeightPair(
            Seq(lambda n: Fraction((-1) ** n, n + 1)), Seq(lambda k: Fraction(1, k + 1))
        ),
        builders.WeightPair(
            Seq(lambda n: Fraction(2, 2 * n + 1)), Seq(lambda k: Fraction(k + 2, 2))
        ),
    )


def _cesaro_weight_pair():
    """Fresh weights (1/(n+1), 1), which make G(u, v) the Cesaro mean."""
    return builders.WeightPair(Seq(lambda n: Fraction(1, n + 1)), Seq.constant(1))


def _riesz_weights():
    """Fresh weights q = 2^k, those of the standard Riesz domain."""
    return builders.RieszWeights(Seq(lambda k: Fraction(2**k)))


def _unit_riesz_weights():
    """Fresh weights q = 1, which make R^q the Cesaro mean."""
    return builders.RieszWeights(Seq.constant(1))


def _standard_domains():
    w = _weight_pairs()[0]
    r = _riesz_weights()
    return (
        builders.cesaro_domain(),
        builders.weighted_domain(w),
        builders.riesz_domain(r),
    )


def suite_identities(n: int, rng) -> list:
    checks = []
    w = _weight_pairs()[0]
    r = _riesz_weights()
    named = [
        ("delta", builders.delta()),
        ("cesaro", builders.cesaro()),
        ("weighted", builders.weighted_mean(w)),
        ("riesz", builders.riesz(r)),
        ("phi", builders.phi()),
        ("gamma", builders.gamma(w)),
        ("sigma", builders.sigma_riesz(r)),
    ]
    for label, t in named:
        dense = truncate(t, n)
        dense_inv = truncate(invert(t), n)
        for side, left, right in (("right", dense, dense_inv), ("left", dense_inv, dense)):
            name = f"inverse_identity_{side}[{label}]"
            got = _cells(dense_mul(left, right))
            checks.append(_grid_equal(name, _identity, got, n, square=True))

    # forward substitution is the reference side here and in
    # closed_form_cesaro_inverse: invert(invert(t)) is t itself, and
    # cesaro_inverse() is the inverse invert derives from the mean's term
    for label, t in named[:2] + [named[4]]:
        twice = _build_inverse(invert(t))
        checks.append(_grid_equal(f"inverse_involution[{label}]", t.entry, twice.entry, n))

    # both sides take compose's structured path (every factor here declares
    # a structure), so the generic dense product of truncations is compared
    # too; delta . phi multiplies a band by terms and by a band.  Each
    # product is read by its entries with _entry_scan: truncate reads every
    # structured product from its pair lists, so only the scan reads them.
    # compose reads a . (b . c) as (a . b) . c, so that scan is compared
    # with the pair lists of a . (b . c), which the product rule makes
    a, b, c = builders.delta(), builders.cesaro(), builders.sigma_sum()

    def associativity_pairs():
        yield truncate(compose(a, compose(b, c)), n), _entry_scan(compose(compose(a, b), c), n)
        for x, y in ((b, c), (a, b), (b, builders.phi()), (b, invert(builders.phi())), (a, builders.phi())):
            yield dense_mul(truncate(x, n), truncate(y, n)), _entry_scan(compose(x, y), n)
        y = compose(a, builders.phi())
        yield dense_mul(truncate(b, n), truncate(y, n)), _entry_scan(compose(b, y), n)

    name = "compose_associativity"
    checks.append(
        _first_failure(
            name,
            (
                _grid_equal(name, _cells(expected), _cells(got), n, square=True)
                for expected, got in associativity_pairs()
            ),
        )
    )

    x = _rand_finite_seq(rng)
    composed = apply(compose(a, b), x, n)
    chained = apply(a, transform_seq(b, x), n)
    checks.append(
        _seq_equal("apply_compose_coherence", composed.__getitem__, chained.__getitem__, n)
    )

    # every matrix is built fresh, so no check reads entries another one cached
    for name, expected, got in (
        (
            "specialization_weighted_to_cesaro",
            builders.cesaro(),
            builders.weighted_mean(_cesaro_weight_pair()),
        ),
        ("specialization_riesz_to_cesaro", builders.cesaro(), builders.riesz(_unit_riesz_weights())),
        ("closed_form_phi", builders.phi(), builders.phi_closed_form()),
        ("closed_form_gamma", builders.gamma(w), builders.gamma_closed_form(w)),
        ("closed_form_sigma", builders.sigma_riesz(r), builders.sigma_closed_form(r)),
        ("closed_form_cesaro_inverse", _build_inverse(builders.cesaro()), builders.cesaro_inverse()),
    ):
        checks.append(_grid_equal(name, expected.entry, got.entry, n))

    sample = truncate(builders.phi(), min(n, 16))

    def canonical(row, col):
        # a Fraction is in lowest terms by construction, so it is the
        # printed text that is checked
        v = sample[row][col]
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    checks.append(
        _grid_equal(
            "rational_canonical_form",
            canonical,
            lambda row, col: spaces.fmt(sample[row][col]),
            len(sample),
            square=True,
        )
    )
    return checks


def suite_bases(n: int, rng) -> list:
    checks = []
    domains = _standard_domains()
    for dom in domains:
        checks.append(
            _first_failure(
                f"basis_application[{dom.label}]",
                (_basis_application(dom, k, n) for k in range(min(32, n // 2))),
            )
        )

    step = builders.basis_column(builders.delta(), 3)
    checks.append(
        _seq_equal("delta_basis_step_shape", lambda i: ZERO if i < 3 else Fraction(1), step, n)
    )

    r = _riesz_weights()
    inv_sigma = invert(builders.sigma_riesz(r))
    checks.append(
        _grid_equal(
            "riesz_basis_degeneracy",
            lambda row, col: r.big_q(col) / r.q_at(col) if row == col else Fraction(1),
            inv_sigma.entry,
            n,
        )
    )

    for dom in domains:
        checks.append(
            _first_failure(
                f"basis_reconstruction[{dom.label}]",
                (_basis_reconstruction(dom, case, rng) for case in range(5)),
            )
        )
    return checks


def _basis_application(dom, k: int, n: int) -> CheckResult:
    got = apply(dom.matrix, builders.basis_column(dom.matrix, k), n)
    return _seq_equal(f"basis_application[{dom.label},k={k}]", Seq.unit(k), got.__getitem__, n)


def _basis_reconstruction(dom, case: int, rng) -> CheckResult:
    t = dom.matrix
    x = _rand_finite_seq(rng)
    top = x.support_bound
    y = apply(t, x, top + 1)
    rebuilt = [
        sum((y[k] * builders.basis_column(t, k)(i) for k in range(top + 1)), ZERO)
        for i in range(top + 1)
    ]
    return _seq_equal(
        f"basis_reconstruction[{dom.label},case={case}]", x, rebuilt.__getitem__, top + 1
    )


def suite_duals(n: int, rng) -> list:
    checks = []
    a = _rand_finite_seq(rng)
    assoc = duals.alpha_assoc(builders.phi(), a)
    checks.append(
        _grid_equal(
            "alpha_assoc_phi_closed_form",
            lambda row, col: (row + 1) * a(row) if row == col else a(row),
            assoc.entry,
            n,
        )
    )

    for wi, w in enumerate(_weight_pairs()):
        name = f"beta_cross_check[G,w={wi}]"
        dom = builders.weighted_domain(w)
        checks.append(
            _first_failure(name, (_beta_cross_check(name, dom, case, n, rng) for case in range(3)))
        )

    for dom in _standard_domains():
        for kind in duals.DUAL_KINDS:
            a = _rand_finite_seq(rng, max_len=min(8, n // 4))
            report = duals.dual_test(dom, a, kind, n)
            checks.append(
                CheckResult(
                    f"finite_support_certified[{dom.label},{kind}]",
                    report.verdict == "certified_in",
                    None if report.verdict == "certified_in" else {"verdict": report.verdict},
                )
            )

    dom = builders.cesaro_domain()
    for label, seq in (("e0", Seq.unit(0)), ("geometric", Seq(lambda k: Fraction(1, 2**k)))):
        beta = duals.dual_test(dom.matrix, seq, "beta", n)
        gamma_rep = duals.dual_test(dom.matrix, seq, "gamma", n)
        implied = beta.verdict != "likely_in" or gamma_rep.verdict == "likely_in"
        checks.append(
            CheckResult(
                f"beta_implies_gamma[{label}]",
                implied,
                None if implied else {"beta": beta.verdict, "gamma": gamma_rep.verdict},
            )
        )

    unit_riesz = builders.sigma_riesz(_unit_riesz_weights())
    a = _rand_finite_seq(rng)
    same = all(
        duals.dual_test(builders.phi(), a, kind, n).to_dict()
        == duals.dual_test(unit_riesz, a, kind, n).to_dict()
        for kind in duals.DUAL_KINDS
    )
    checks.append(CheckResult("riesz_cesaro_dual_coincidence", same))

    checks.append(
        _first_failure("condition_brute_force_agreement", _condition_cases(n, rng))
    )
    return checks


def _condition_cases(n: int, rng):
    """The condition statistics against brute force on five random finite
    matrices, then their structure path against their entry scans."""
    for case in range(5):
        yield _condition_brute_force(case, n, rng)
    yield _condition_structure(n)


def _beta_cross_check(name: str, dom, case: int, n: int, rng) -> CheckResult:
    a = _rand_finite_seq(rng)
    cross_check = duals.dual_test(dom, a, "beta", n).cross_check
    match = cross_check["match"]
    return CheckResult(name, match, None if match else {"case": case, "detail": cross_check})


def _condition_brute_force(case: int, n: int, rng) -> CheckResult:
    m = _rand_banded(rng)
    dense = truncate(m, n)
    brute_l1 = max(
        sum((abs(dense[row][col]) for row in range(n)), ZERO) for col in range(n)
    )
    brute_sup = max(abs(dense[row][col]) for row in range(n) for col in range(n))
    got_l1 = duals.cond_l1_l1(m, n)[-1][1]
    got_sup = duals.cond_l1_linf(m, n)[-1][1]
    if got_l1 == brute_l1 and got_sup == brute_sup:
        return CheckResult("condition_brute_force_agreement", True)
    return CheckResult(
        "condition_brute_force_agreement",
        False,
        {
            "case": case,
            "column_l1": [spaces.fmt(brute_l1), spaces.fmt(got_l1)],
            "sup": [spaces.fmt(brute_sup), spaces.fmt(got_sup)],
        },
    )


def _condition_structure(n: int) -> CheckResult:
    """The statistics of the alpha and beta matrices of the standard domains
    from their structure equal those scanned from their entries.  The
    sequence is fixed, so the check draws nothing from the seeded generator."""
    a = Seq(lambda k: Fraction((-1) ** k, k + 1))
    for dom in _standard_domains():
        for kind, build in (("alpha", duals.alpha_assoc), ("beta", duals.beta_assoc)):
            scanned = build(dom.matrix, a)
            scanned.structure = None
            if duals.condition_stats(kind, build(dom.matrix, a), n) != duals.condition_stats(
                kind, scanned, n
            ):
                return CheckResult(
                    "condition_brute_force_agreement",
                    False,
                    {"case": "generators", "domain": dom.label, "kind": kind},
                )
    return CheckResult("condition_brute_force_agreement", True)


def suite_matclass(n: int, rng) -> list:
    checks = []
    for dom in _standard_domains():
        for side in "EF":
            name = f"transform_identity_{side}[{dom.label}]"
            checks.append(
                _first_failure(
                    name, (_transform_identity(side, name, dom, case, n, rng) for case in range(5))
                )
            )

        report = matclass.class_test_into_domain(
            invert(dom.matrix), dom, spaces.SpaceId.L1, n
        )
        stats = report.transformed_condition["column_l1"]
        flat = all(entry["value"] == "1" for entry in stats)
        checks.append(
            CheckResult(
                f"composition_sanity_F_identity[{dom.label}]",
                flat and report.verdict == "likely_in_class",
                None if flat else {"stats": stats},
            )
        )

    cesaro_style = (
        builders.cesaro_domain(),
        builders.weighted_domain(_cesaro_weight_pair()),
        builders.riesz_domain(_unit_riesz_weights()),
    )
    a = _rand_banded(rng)
    blocks = [
        matclass.class_test_from_domain(a, dom, spaces.SpaceId.LINF, n).transformed_condition
        for dom in cesaro_style
    ]
    checks.append(
        CheckResult(
            "cesaro_coherence_across_domains",
            blocks[0] == blocks[1] == blocks[2],
            None if blocks[0] == blocks[1] == blocks[2] else {"blocks": blocks},
        )
    )
    return checks


def _transform_identity(side: str, name: str, dom, case: int, n: int, rng) -> CheckResult:
    """One random case of A x = E (D x) (side E) or D (B x) = F x (side F),
    where D is the domain matrix, E = A . inverse(D) and F = D . B; a
    failure records the case."""
    m = _rand_banded(rng)
    x = _rand_finite_seq(rng)
    if side == "E":
        e = compose(m, invert(dom.matrix))
        expected = matclass.apply_general(m, x, n)
        got = matclass.apply_general(e, transform_seq(dom.matrix, x), n)
    else:
        got = matclass.apply_general(compose(dom.matrix, m), x, n)
        expected = apply(dom.matrix, transform_seq(m, x), n)
    result = _seq_equal(name, expected.__getitem__, got.__getitem__, n)
    if not result.passed:
        result.counterexample["case"] = case
    return result


def run_suite(suite: str, n: int, seed: int) -> dict:
    """Run one suite (or all) and return a deterministic report dict."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    spaces.checkpoints(n)
    if n > 256:
        raise ValueError(f"suite truncation must be <= 256, got {n}")
    rng = random.Random(seed)
    runners = {
        "identities": suite_identities,
        "bases": suite_bases,
        "duals": suite_duals,
        "matclass": suite_matclass,
    }
    selected = list(runners) if suite == "all" else [suite]
    checks = []
    for name in selected:
        checks.extend(runners[name](n, rng))
    failed = [c for c in checks if not c.passed]
    return {
        "suite": suite,
        "n": n,
        "seed": seed,
        "checks": [c.to_dict() for c in checks],
        "summary": {"total": len(checks), "failed": len(failed)},
    }
