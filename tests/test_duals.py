import json
import operator
import random
import sys
import threading
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdomains import duals
from bvdomains.cli import parse_domain_spec, parse_seq_spec
from bvdomains.core import (
    BandedMatrix,
    InvalidWeightsError,
    Seq,
    Triangle,
    _INTEGERS,
    _PAIRS,
    _build_inverse,
    _entry_scan,
    _list_ops,
    _lists,
    compose,
    dense_mul,
    identity,
    invert,
    running_sum,
    transform_seq,
    truncate,
)
from bvdomains.builders import (
    RieszWeights,
    WeightPair,
    cesaro,
    cesaro_domain,
    cesaro_inverse,
    delta,
    gamma,
    phi,
    phi_closed_form,
    riesz_domain,
    sigma_riesz,
    sigma_sum,
    weighted_domain,
    weighted_mean,
)
from bvdomains.duals import (
    alpha_assoc,
    beta_assoc,
    cond_l1_c,
    cond_l1_l1,
    cond_l1_linf,
    closed_form_beta_matrix,
    condition_stats,
    dual_test,
)
from bvdomains.matclass import BandedMatrix, class_test_from_domain, class_test_into_domain
from bvdomains.spaces import SpaceId, checkpoints

E = Seq.constant(1)


def harmonic_pair():
    return WeightPair(
        Seq(lambda n: F(1, n + 2)),
        Seq(lambda k: F(k + 1)),
    )


def test_alpha_assoc_phi():
    # the relation a_n x_n = (By)_n forces a_n in every column of row n
    assoc = alpha_assoc(phi(), E)
    for n in range(10):
        for k in range(n + 1):
            assert assoc.entry(n, k) == (n + 1 if n == k else 1)
    unit = alpha_assoc(phi(), Seq.unit(0))
    assert unit.entry(0, 0) == 1
    assert all(unit.entry(n, k) == 0 for n in range(1, 6) for k in range(n + 1))


def test_alpha_assoc_riesz_unit_weights_matches_phi():
    unit_sigma = sigma_riesz(RieszWeights(Seq.constant(1)))
    a = alpha_assoc(unit_sigma, E)
    b = alpha_assoc(phi(), E)
    for n in range(10):
        for k in range(n + 1):
            assert a.entry(n, k) == b.entry(n, k)


def test_beta_assoc_oracle_cases():
    # single-term sums: a = e(0) picks the top row of the inverse per column
    assoc = beta_assoc(phi(), Seq.unit(0))
    for n in range(8):
        assert assoc.entry(n, 0) == 1
        for k in range(1, n + 1):
            assert assoc.entry(n, k) == 0
    # summation-matrix columns: domain delta, a = e(m)
    m = 3
    assoc = beta_assoc(delta(), Seq.unit(m))
    for n in range(8):
        for k in range(n + 1):
            expected = 1 if k <= m <= n else 0
            assert assoc.entry(n, k) == expected


def test_beta_assoc_stabilizes_for_finite_support():
    a = Seq.from_values(["1", "-2", "1/3"])
    assoc = beta_assoc(phi(), a)
    for k in range(3):
        tail = {assoc.entry(n, k) for n in range(3, 10)}
        assert len(tail) == 1


@pytest.mark.parametrize("domain", ["C", "G[alternating]", "R[2^k]", "bare cesaro"])
def test_dual_matrices_equal_the_forward_substitution_oracle(domain):
    """alpha(n, k) = a_n X(n, k) and beta sums alpha down each column, with X
    the domain inverse by forward substitution: this side reads no structure,
    while the dual matrices read the domain inverse's."""
    size = 24
    matrix = cesaro() if domain == "bare cesaro" else DOMAINS[domain]().matrix
    x = truncate(_build_inverse(matrix), size)
    for name, build in SEQUENCES.items():
        a = build()
        alpha = [[a(n) * x[n][k] for k in range(size)] for n in range(size)]
        beta = zip(*(accumulate(column) for column in zip(*alpha)))
        assert truncate(alpha_assoc(matrix, a), size) == tuple(map(tuple, alpha)), name
        assert truncate(beta_assoc(matrix, a), size) == tuple(beta), name


def test_cond_l1_linf_cases():
    assert [v for _, v in cond_l1_linf(identity(), 16)] == [1, 1, 1]
    assert [v for _, v in cond_l1_linf(delta(), 16)] == [1, 1, 1]
    grows = cond_l1_linf(invert(phi()), 16)
    assert [v for _, v in grows] == [4, 8, 16]
    # nonzero entries above the diagonal: each checkpoint against a rescan
    m = BandedMatrix(lambda n, k: F(k - 2 * n, n + 1), lambda n: n + 3)
    for size, v in cond_l1_linf(m, 16):
        assert v == max(abs(m.entry(r, c)) for r in range(size) for c in range(size))


def test_cond_l1_c_cases():
    cols = cond_l1_c(sigma_sum(), 16)
    assert all(c["oscillation"] == 0 and c["limit_estimate"] == 1 for c in cols)
    cols = cond_l1_c(cesaro(), 16)
    for c in cols:
        assert c["limit_estimate"] == F(1, 17)
        assert c["oscillation"] == F(1, 9) - F(1, 17)


def test_cond_l1_l1_cases():
    assert [v for _, v in cond_l1_l1(identity(), 16)] == [1, 1, 1]
    assert [v for _, v in cond_l1_l1(sigma_sum(), 16)] == [4, 8, 16]
    assert [v for _, v in cond_l1_l1(delta(), 16)] == [2, 2, 2]
    m = BandedMatrix(lambda n, k: F(k - 2 * n, n + 1), lambda n: n + 3)
    for size, v in cond_l1_l1(m, 16):
        assert v == max(
            sum((abs(m.entry(r, c)) for r in range(size)), F(0)) for c in range(size)
        )


def test_cond_rejects_bad_truncation():
    with pytest.raises(ValueError):
        cond_l1_l1(identity(), 6)


def test_dual_test_finite_support_certified():
    a = Seq.from_values(["1", "0", "-5/2"])
    for dom in (cesaro_domain(), weighted_domain(harmonic_pair())):
        for kind in ("alpha", "beta", "gamma"):
            assert dual_test(dom, a, kind, 16).verdict == "certified_in"


def test_dual_test_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown dual kind 'delta'"):
        dual_test(cesaro_domain(), E, "delta", 16)


def test_dual_test_e_beta_likely_out():
    report = dual_test(phi(), E, "beta", 16)
    assert report.verdict == "likely_out"


def test_dual_test_alpha_e_likely_out():
    # B has unbounded column sums when a = e
    report = dual_test(phi(), E, "alpha", 16)
    assert report.verdict == "likely_out"


def test_beta_implies_gamma():
    for a in (Seq.unit(0), Seq(lambda k: F(1, 2**k))):
        beta = dual_test(phi(), a, "beta", 16)
        gamma = dual_test(phi(), a, "gamma", 16)
        if beta.verdict == "likely_in":
            assert gamma.verdict == "likely_in"


def test_closed_form_matrix_matches_generic_weighted():
    w = harmonic_pair()
    a = Seq.from_values(["2", "-1", "1/2", "3"])
    generic = beta_assoc(weighted_domain(w).matrix, a)
    oracle = closed_form_beta_matrix(w, a)
    for n in range(12):
        for k in range(n + 1):
            assert generic.entry(n, k) == oracle.entry(n, k)


def test_closed_form_matrix_matches_generic_riesz():
    r = RieszWeights(Seq(lambda k: F(2**k)))
    a = Seq.from_values(["1", "1", "-3"])
    generic = beta_assoc(riesz_domain(r).matrix, a)
    oracle = closed_form_beta_matrix(r, a)
    for n in range(12):
        for k in range(n + 1):
            assert generic.entry(n, k) == oracle.entry(n, k)


def test_dual_test_cross_check_populated():
    dom = weighted_domain(harmonic_pair())
    report = dual_test(dom, Seq.from_values(["1", "2"]), "beta", 16)
    assert report.cross_check is not None
    assert report.cross_check["match"] is True
    plain = dual_test(dom.matrix, Seq.from_values(["1", "2"]), "beta", 16)
    assert plain.cross_check is None


def test_riesz_cesaro_reports_identical():
    unit_sigma = sigma_riesz(RieszWeights(Seq.constant(1)))
    a = Seq(lambda k: F(1, (k + 1) ** 2))
    for kind in ("alpha", "beta", "gamma"):
        left = json.dumps(dual_test(phi(), a, kind, 16).to_dict())
        right = json.dumps(dual_test(unit_sigma, a, kind, 16).to_dict())
        assert left == right


def test_report_conditions_by_kind():
    a = Seq.unit(1)
    alpha = dual_test(phi(), a, "alpha", 16).to_dict()
    assert set(alpha["conditions"]) == {"column_l1"}
    beta = dual_test(phi(), a, "beta", 16).to_dict()
    assert set(beta["conditions"]) == {"sup_entry", "column_limits", "column_l1_aux"}
    gamma = dual_test(phi(), a, "gamma", 16).to_dict()
    assert set(gamma["conditions"]) == {"sup_entry"}


@pytest.fixture
def cond_calls(monkeypatch):
    """Counts calls of the condition statistics made through their duals names."""
    calls = Counter()
    for name in ("cond_l1_linf", "cond_l1_c", "cond_l1_l1"):
        def counted(m, n, name=name, orig=getattr(duals, name)):
            calls[name] += 1
            return orig(m, n)

        monkeypatch.setattr(duals, name, counted)
    return calls


def test_verdicts_reach_condition_statistics_through_duals_names(cond_calls):
    dual_test(cesaro_domain(), E, "beta", 16)
    assert cond_calls == {"cond_l1_linf": 1, "cond_l1_c": 1, "cond_l1_l1": 1}
    cond_calls.clear()
    row = BandedMatrix.from_rows([["1", "1"]])
    # beta row checks of row 0 and of zero row 1, whose report also serves
    # rows 2 and 3, then (l1:l1) on E
    class_test_from_domain(row, cesaro_domain(), SpaceId.L1, 16)
    assert cond_calls == {"cond_l1_linf": 2, "cond_l1_c": 2, "cond_l1_l1": 3}
    cond_calls.clear()
    class_test_into_domain(row, cesaro_domain(), SpaceId.L1, 16)
    assert cond_calls == {"cond_l1_l1": 1}


def test_beta_cross_check_runs_only_the_compared_statistics(cond_calls):
    """The closed-form oracle gets sup-entry and column limits, which the
    match compares, and no column l1 sums."""
    report = dual_test(weighted_domain(harmonic_pair()), Seq.from_values(["1", "2"]), "beta", 16)
    assert report.cross_check["match"] is True
    assert cond_calls == {"cond_l1_linf": 2, "cond_l1_c": 2, "cond_l1_l1": 1}


def generator_entries(m, size):
    """The entries of the leading square of m of the given size that its
    generator lists represent, which do not depend on the size the lists
    were built at, unlike their scale d."""
    return list_entries(duals._generators(m, size))


def list_entries(lists, rows=None):
    """The band cells and the cells below the band that generator lists
    (d, bands, w, col, row) represent, divided by d, by cell, in the given
    rows or in all of them."""
    d, bands, w, col, row = lists
    rows = range(len(w)) if rows is None else rows
    cells = {(n, n - i): F(xs[n], d) for i, xs in enumerate(bands) for n in rows if n >= i}
    cells.update({(n, k): F(w[n] * col[k] + row[n], d) for n in rows for k in range(n - len(bands) + 1)})
    return cells


def row_entries(m, rows):
    """The cells in the given rows that list_entries holds, every cell of
    the lower triangle in those rows: a product's read from its entries,
    which read no list, and those of a structure that is no product from
    the sequences it declares, since the closed form's entries take O(N)
    operations each.  This is the oracle of the integer rule that builds
    the lists."""
    if m._factors is not None:
        return {(n, k): m.entry(n, k) for n in rows for k in range(n + 1)}
    terms, band = m.structure

    def cell(n, k):
        if n - k < len(band):
            return band[n - k](n)
        return sum(((F(1) if u is None else u(n)) * (F(1) if v is None else v(k)) for u, v in terms), F(0))

    return {(n, k): cell(n, k) for n in rows for k in range(n + 1)}


def test_appended_rows_are_consistent_across_threads():
    """Inverse rows, beta_assoc columns and the Riesz partial sums read by
    a lazy transform grow by appending under a lock, and the generator lists of the
    statistics are whole values per size, of which a matrix keeps the
    largest; four threads reading them in different orders see the serial
    values.  The Hilbert-like factor declares no structure, so its product
    is inverted by forward substitution.  The generator lists are read on
    beta_assoc over phi, with w = 1, on F = Riesz . cesaro, whose w = 1/Q_n
    gains denominators as it grows, on two alpha matrices that share the
    lists of one Riesz inverse, and on the closed-form matrix, so lists of
    one matrix are built at several sizes while other threads read them."""
    n = 20
    q = Seq(lambda k: F(k + 1))
    a = Seq(lambda k: F(1, k + 2))
    cells = [(row, col) for row in range(n) for col in range(row + 1)]

    def build():
        hilbert = Triangle(lambda n, k: F(1, n + k + 1))
        domain = sigma_riesz(RieszWeights(q))
        transform = transform_seq(domain, a)
        generators = beta_assoc(phi(), a)
        weighted = compose(domain, cesaro())
        alphas = [alpha_assoc(domain, a), alpha_assoc(domain, q)]
        closed = closed_form_beta_matrix(RieszWeights(q), a)
        return (
            invert(phi()).entry,
            beta_assoc(domain, a).entry,
            invert(compose(delta(), hilbert)).entry,
            lambda row, col: transform(row + col),
            lambda row, col: generator_entries(generators, row + col + 1),
            lambda row, col: generator_entries(weighted, row + col + 1),
            *(lambda row, col, m=m: generator_entries(m, row + col + 1) for m in alphas + [closed]),
        )

    expected = [{c: read_at(*c) for c in cells} for read_at in build()]
    shared = build()
    seen = [[] for _ in range(4)]

    def read(i):
        order = cells[:]
        random.Random(i).shuffle(order)
        for cell in order:
            for which, read_at in enumerate(shared):
                seen[i].append((which, cell, read_at(*cell)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in seen:
        assert len(got) == len(shared) * len(cells)
        assert all(value == expected[which][cell] for which, cell, value in got)


# ------------------------------------------- structure statistics against scans

G_WEIGHTS = {
    "harmonic": (lambda n: F(1, n + 2), lambda k: F(k + 1)),
    "alternating": (lambda n: F((-1) ** n, n + 1), lambda k: F(1, k + 1)),
    "odd": (lambda n: F(2, 2 * n + 1), lambda k: F(k + 2, 2)),
    "growing": (lambda n: F(n + 1), lambda k: F(1, 2**k)),
}
R_WEIGHTS = {
    "1": lambda k: F(1),
    "1/(k+1)": lambda k: F(1, k + 1),
    "k+1": lambda k: F(k + 1),
    "2^k": lambda k: F(2) ** k,
}
DOMAINS = {
    "C": cesaro_domain,
    **{
        f"G[{name}]": lambda u=u, v=v: weighted_domain(WeightPair(Seq(u), Seq(v)))
        for name, (u, v) in G_WEIGHTS.items()
    },
    **{
        f"R[{name}]": lambda q=q: riesz_domain(RieszWeights(Seq(q)))
        for name, q in R_WEIGHTS.items()
    },
}
# finite support, constant, alternating signs, and zeros that make the
# partial sums P of the beta generators repeat
SEQUENCES = {
    "finite": lambda: Seq.from_values(["1", "-2", "1/3"]),
    "const": lambda: Seq.constant(1),
    "sign": lambda: Seq(lambda k: F((-1) ** k)),
    "zero_prefix": lambda: Seq(lambda k: F(0) if k < 6 or k % 3 else F(1, k)),
}


def with_and_without_structure(build):
    """The matrix build() makes, and the same matrix with its structure
    removed, whose statistics scan its entries."""
    fast, scanned = build(), build()
    assert duals._generators(fast, 1) is not None
    scanned.structure = None
    return fast, scanned


def stats(kind, m, n):
    try:
        return condition_stats(kind, m, n)
    except ValueError as exc:  # the truncation rule, checked ahead of either path
        return str(exc)


def assert_fractions(stats):
    """Every value of a dict of condition statistics is a Fraction: the
    structure path divides its integers back, and spaces.classify_trend
    divides the values exactly."""
    for name, value in stats.items():
        if name == "column_limits":
            values = [c[key] for c in value for key in ("oscillation", "limit_estimate")]
        else:
            values = [v for _, v in value]
        assert all(type(v) is F for v in values), name


def assert_structure_matches_scan(kind, fast, scanned, n):
    got = stats(kind, fast, n)
    assert got == stats(kind, scanned, n), kind
    if isinstance(got, dict):
        assert_fractions(got)


def assert_generators_match_scans(dom, a, n):
    alpha = with_and_without_structure(lambda: alpha_assoc(dom.matrix, a))
    beta = with_and_without_structure(lambda: beta_assoc(dom.matrix, a))
    for kind, (fast, scanned) in (("alpha", alpha), ("beta", beta), ("gamma", beta)):
        assert_structure_matches_scan(kind, fast, scanned, n)
    if dom.weights is not None:
        # the cross-check matrix's structure comes from the weight closed
        # forms; the scanned beta_assoc matrix has the same entries
        closed = closed_form_beta_matrix(dom.weights, a)
        assert duals._generators(closed, 1) is not None
        assert_structure_matches_scan("beta", closed, beta[1], n)
    return stats("beta", beta[0], n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 16, 64])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_generator_statistics_equal_the_scans(domain, n):
    dom = DOMAINS[domain]()
    for name in sorted(SEQUENCES):
        beta = assert_generators_match_scans(dom, SEQUENCES[name](), n)
        assert isinstance(beta, dict) == (n >= 8 and n % 4 == 0), name


def test_generators_report_the_invalid_weight_the_scans_do():
    """Both weights vanish at index 1; the structure path reads row 1 below
    its diagonal first, as the scans do, so both paths name v[1] on the dual
    matrices, and u[1] on a weighted mean, gamma and the closed-form
    matrix, whose row weight u is read before its column weight v."""
    zero_at_1 = Seq(lambda k: F(0) if k == 1 else F(1))
    w = WeightPair(zero_at_1, zero_at_1)
    dom = weighted_domain(w)
    builds = [
        ("alpha", lambda: alpha_assoc(dom.matrix, E), "v"),
        ("beta", lambda: beta_assoc(dom.matrix, E), "v"),
        ("alpha", lambda: weighted_mean(w), "u"),
        ("alpha", lambda: gamma(w), "u"),
        ("beta", lambda: closed_form_beta_matrix(w, E), "u"),
    ]
    for kind, build, name in builds:
        for m in with_and_without_structure(build):
            with pytest.raises(InvalidWeightsError, match=rf"{name}\[1\]"):
                condition_stats(kind, m, 16)


def test_statistics_of_means_and_domain_matrices_equal_the_scans():
    """The Cesaro mean and phi have one-sided terms, read as generator lists
    with w = 1; the term (u, v) of a weighted mean and of gamma is
    two-sided, read with w = u and col = v.  All take the structure path."""
    w = WeightPair(Seq(lambda n: F(1, n + 2)), Seq(lambda k: F(k + 1)))
    for build in (cesaro, lambda: weighted_mean(w), phi, lambda: gamma(w)):
        fast, scanned = with_and_without_structure(build)
        for kind in ("alpha", "beta", "gamma"):
            assert_structure_matches_scan(kind, fast, scanned, 16)


# the B of the into-domain class tests: F = domain . B declares a row term
# and one two-sided term for B = sum and cesaro, and one two-sided term and
# a band of two parts for B = delta and cesaro_inv
F_RIGHT = {"sum": sigma_sum, "cesaro": cesaro, "delta": delta, "cesaro_inv": cesaro_inverse}


# the into-domain domains of the class_test benchmark workload, and one G
# pair whose u changes sign, beside DOMAINS
_TAIL = lambda kind, **params: {"tail": {"kind": kind, **params}}
_K_PLUS_1 = {"prefix": [str(k + 1) for k in range(49)], "tail": {"kind": "const", "c": "50"}}
BENCH_DOMAINS = {
    "G(harmonic, 1)": {"label": "G", "u": _TAIL("harmonic"), "v": _TAIL("const", c="1")},
    "G(power 2, harmonic)": {"label": "G", "u": _TAIL("power", p=2), "v": _TAIL("harmonic")},
    "G(1/2^n, 2^k)": {"label": "G", "u": _TAIL("geometric", r="1/2"), "v": _TAIL("geometric", r="2")},
    "G(harmonic, 2^k)": {"label": "G", "u": _TAIL("harmonic"), "v": _TAIL("geometric", r="2")},
    "G((-1/2)^n, 1)": {"label": "G", "u": _TAIL("geometric", r="-1/2"), "v": _TAIL("const", c="1")},
    "R(1)": {"label": "R", "q": _TAIL("const", c="1")},
    "R(harmonic)": {"label": "R", "q": _TAIL("harmonic")},
    "R(k+1)": {"label": "R", "q": _K_PLUS_1},
    "R(2^k)": {"label": "R", "q": _TAIL("geometric", r="2")},
}
F_DOMAINS = {
    **DOMAINS,
    **{name: lambda spec=spec: parse_domain_spec(json.dumps(spec))[0] for name, spec in BENCH_DOMAINS.items()},
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 16, 48])
@pytest.mark.parametrize("domain", sorted(F_DOMAINS))
def test_statistics_of_F_equal_the_scans(domain, n):
    """F = domain . B declares a structure read as the lists w[n] col[k] +
    row[n] below its band, w the domain's row weight, and its band cells:
    all three statistics equal the scans of F with its structure removed."""
    for name, b in F_RIGHT.items():
        fast, scanned = with_and_without_structure(lambda: compose(F_DOMAINS[domain]().matrix, b()))
        assert len(fast.structure[1]) == (2 if name in ("delta", "cesaro_inv") else 0), name
        for kind in ("alpha", "beta", "gamma"):
            assert_structure_matches_scan(kind, fast, scanned, n)


def test_statistics_of_a_band_reaching_the_column_limit_window_equal_the_scans():
    """delta^3 . phi has a band of four parts.  At N = 8 the column limit
    window (rows from N/2, columns below N/4) holds cells of it, so its
    column limits are scanned; at N = 12 and 16, and for the other
    statistics, the lists are read."""
    build = lambda: compose(delta(), compose(delta(), compose(delta(), phi())))
    fast, scanned = with_and_without_structure(build)
    assert len(fast.structure[1]) == 4
    for n in (8, 12, 16):
        for kind in ("alpha", "beta"):
            assert_structure_matches_scan(kind, fast, scanned, n)


# Long lists over wide scales, and Fenwick trees over hundreds of points, show
# only at depth; the scans there take about a second per matrix.
DEPTH = 256


@pytest.mark.parametrize("domain", ["C", "G(power 2, harmonic)", "R(2^k)"])
def test_dual_statistics_equal_the_scans_at_depth(domain):
    """At N = 256 the statistics of the alpha and beta matrices, and the
    compared statistics of the closed-form matrix, equal the scans of the
    dual matrices with their structure removed."""
    dom = F_DOMAINS[domain]()
    a = Seq(lambda k: F((-1) ** k, k + 1))
    alpha = with_and_without_structure(lambda: alpha_assoc(dom.matrix, a))
    beta = with_and_without_structure(lambda: beta_assoc(dom.matrix, a))
    assert_structure_matches_scan("alpha", *alpha, DEPTH)
    scanned = condition_stats("beta", beta[1], DEPTH)
    assert condition_stats("beta", beta[0], DEPTH) == scanned
    if dom.weights is not None:
        oracle = duals.verdict_stats("beta", closed_form_beta_matrix(dom.weights, a), DEPTH)
        assert oracle == {name: scanned[name] for name in oracle}


@pytest.mark.parametrize("b", sorted(F_RIGHT))
def test_statistics_of_F_equal_the_scans_at_depth(b):
    """At N = 256 the column l1 sums of F = R(2^k) . B, which decide the
    into-domain class test, equal the scans of F with its structure removed."""
    build = lambda: compose(F_DOMAINS["R(2^k)"]().matrix, F_RIGHT[b]())
    assert_structure_matches_scan("alpha", *with_and_without_structure(build), DEPTH)


@pytest.mark.parametrize("domain", ["C", "G(power 2, harmonic)", "R(2^k)"])
def test_dual_lists_hold_the_cells_of_the_structure_at_depth(domain):
    """At N = 1024 the generator lists of the alpha and beta matrices hold,
    at 16 evenly spaced rows, the band cells and the cells w[n] col[k] +
    row[n] below the band that the entries give, read at those rows only:
    alpha's own, and beta's as the product sigma . alpha reads them
    through its factors.  Beta's own entries, running sums down each
    column, would read every row above."""
    size = 1024
    rows = [i * (size - 1) // 15 for i in range(16)]
    dom = F_DOMAINS[domain]()
    a = Seq(lambda k: F((-1) ** k, k + 1))
    for m, entries in (
        (alpha_assoc(dom.matrix, a), alpha_assoc(dom.matrix, a)),
        (beta_assoc(dom.matrix, a), compose(sigma_sum(), alpha_assoc(dom.matrix, a))),
    ):
        assert list_entries(duals._generators(m, size), rows) == row_entries(entries, rows)


# ------------------------------- the dual matrices' lists from their definitions

# the sequences a of the dual_sweep benchmark workload, a unit sequence and
# a prefix with a zero term
A_SPECS = {
    "harmonic": _TAIL("harmonic"),
    "power 2": _TAIL("power", p=2),
    "geometric 1/2": _TAIL("geometric", r="1/2"),
    "geometric -1/2": _TAIL("geometric", r="-1/2"),
    "const 1": _TAIL("const", c="1"),
    "unit 3": _TAIL("unit", j=3),
    "zero term": {"prefix": ["1", "-2", "0", "5"]},
}


def dual_matrices(dom, a):
    """The alpha and beta matrices over dom, and the closed-form matrix over
    a domain with weights, by name."""
    built = {"alpha": lambda: alpha_assoc(dom.matrix, a), "beta": lambda: beta_assoc(dom.matrix, a)}
    if dom.weights is not None:
        built["closed form"] = lambda: closed_form_beta_matrix(dom.weights, a)
    return built


def assert_kept_lengths(m):
    """The lists m keeps, as they were built, and those its factors keep,
    down to the leaves, are integer lists that hold a value per row for
    each band part and U, and one per column below the band for each V."""
    arith, size, lists = m._kept
    if lists is not None:
        assert arith is _INTEGERS
        _, terms, bands = lists
        cols = max(size - len(bands), 0)
        assert all(len(part) == size for part in bands)
        assert all((u is None or len(u) == size) and (v is None or len(v) == cols) for u, v in terms)
    for factor in m._factors or ():
        assert_kept_lengths(factor)


def assert_lists_match_the_structure(build, sizes, n):
    """The lists of m at each of sizes, built afresh in ascending order and
    then read as heads of the largest, hold the cells of m's entries and a
    value per row or column, and the statistics at n equal the scans of m
    with its structure removed."""
    fast, scanned = with_and_without_structure(build)
    expected = row_entries(build(), range(max(sizes)))
    for size in (*sizes, *sizes):
        assert generator_entries(fast, size) == {c: x for c, x in expected.items() if c[0] < size}, size
        assert_kept_lengths(fast)
    for kind in ("alpha", "beta", "gamma"):
        assert_structure_matches_scan(kind, fast, scanned, n)


def factor_matrices(domain):
    """The domain inverse and F = domain . B for each B of F_RIGHT, by name,
    over a domain made afresh by domain()."""
    built = {"inverse": lambda: invert(domain().matrix)}
    for name, b in F_RIGHT.items():
        built[f"F[{name}]"] = lambda b=b: compose(domain().matrix, b())
    return built


@pytest.mark.parametrize("domain", ["C", *sorted(BENCH_DOMAINS)])
def test_dual_lists_equal_the_lists_of_the_structure(domain):
    """The lists that the integer product rule builds from the leaves'
    (diag(a), the bidiagonal inverse, the sum matrix, the means), for the
    dual matrices, the domain inverse and F, and the closed form's from the
    weights, hold the cells of their entries, and their statistics equal
    the scans."""
    dom = F_DOMAINS[domain]
    builds = list(factor_matrices(dom).values())
    for spec in A_SPECS.values():
        builds += dual_matrices(dom(), parse_seq_spec(json.dumps(spec))[0]).values()
    for build in builds:
        assert_lists_match_the_structure(build, (8, 12, 16, 49), 16)


def test_alpha_lists_report_an_invalid_read_of_a_as_the_scans_do():
    """a is a row of a weighted mean whose v vanishes at 2, and the domain's
    u vanishes at 4.  The alpha matrix reads a(j) before the inverse's row
    j, so its lists report v[2] as its scans do, and so do beta's."""
    row = weighted_mean(WeightPair(E, Seq(lambda k: F(0) if k == 2 else F(1)))).row_seq(6)
    dom = weighted_domain(WeightPair(Seq(lambda n: F(0) if n == 4 else F(1, n + 1)), E))
    for kind, build in (("alpha", alpha_assoc), ("beta", beta_assoc)):
        for m in with_and_without_structure(lambda: build(dom.matrix, row)):
            with pytest.raises(InvalidWeightsError, match=r"v\[2\]"):
                condition_stats(kind, m, 16)


@pytest.mark.parametrize("domain", ["G(power 2, harmonic)", "R(2^k)"])
def test_dual_reports_evaluate_no_value_of_the_product_structures(domain, monkeypatch):
    """A beta and a gamma report with its cross-check read the lists built
    from the leaves' lists and from the weights: the product structures of
    alpha, beta and the domain inverse are shapes that hold no callable,
    no entry of those products or of the closed form is read, and the
    closed form's running sum of steps, whose steps are recorded, is not
    evaluated.  Beta's entries would make running sums of their own."""
    built, steps, read = [], [], {}  # read holds each matrix read, so ids stay unique
    entry = BandedMatrix.entry
    monkeypatch.setattr(BandedMatrix, "entry", lambda m, n, k: read.setdefault(id(m), m) and entry(m, n, k))

    def record(build):
        return lambda *args: built.append(build(*args)) or built[-1]

    def recorded_running_sum(term):
        steps.append([])
        return running_sum(lambda j, read=steps[-1]: read.append(j) or term(j))

    for name in ("alpha_assoc", "beta_assoc", "closed_form_beta_matrix"):
        monkeypatch.setattr(duals, name, record(getattr(duals, name)))
    monkeypatch.setattr(duals, "running_sum", recorded_running_sum)
    dom = F_DOMAINS[domain]()
    a = Seq(lambda k: F((-1) ** k, k + 1))
    for kind in ("beta", "gamma"):
        assert dual_test(dom, a, kind, 48).cross_check["match"] is True
    assert len(built) == 6 and steps == [[], []]
    products = [m for m in built if m._factors is not None] + [invert(dom.matrix)]
    assert len(products) == 5
    for m in products:
        terms, band = m.structure
        assert not any(map(callable, (*band, *(f for term in terms for f in term))))
    assert not read.keys() & set(map(id, built + products))


def test_a_beta_report_builds_the_domain_inverse_lists_once(monkeypatch):
    """A beta report over G, its cross-check included, builds the lists of
    the domain inverse once, at N + 1, and reads every smaller size as their
    head: each band cell of the bidiagonal inverse of G's mean, which is
    its memoized entries, is read once."""
    dom = F_DOMAINS["G(power 2, harmonic)"]()
    bidiagonal = invert(dom.matrix)._factors[0]
    reads, entry = Counter(), BandedMatrix.entry

    def counted(t, n, k):
        if t is bidiagonal:
            reads[n, k] += 1
        return entry(t, n, k)

    monkeypatch.setattr(BandedMatrix, "entry", counted)
    assert dual_test(dom, Seq(lambda k: F((-1) ** k, k + 1)), "beta", 48).cross_check["match"] is True
    assert set(reads.values()) == {1} and len(reads) == 2 * 49 - 1


def kept_cells(lists, size):
    """The cells of the leading square that lists (d, terms, bands) state,
    in integers or in reduced pairs, as Fractions."""
    d, terms, bands = lists
    value = lambda x: F(*x) if isinstance(x, tuple) else F(x)
    at = lambda f, j: 1 if f is None else value(f[j])
    cells = [[F(0)] * size for _ in range(size)]
    for n in range(size):
        for k in range(n + 1):
            i = n - k
            cell = value(bands[i][n]) if i < len(bands) else sum(at(u, n) * at(v, k) for u, v in terms)
            cells[n][k] = cell / d
    return tuple(map(tuple, cells))


def test_dual_reports_keep_no_pair_lists(monkeypatch):
    """A matrix keeps only the lists it built last.  After beta and gamma
    reports over C, G and R, every leaf has replaced the pair lists its
    integer lists were scaled from, so no matrix keeps pair lists.  A
    matrix read alternately in pairs and in integers, at two sizes,
    replaces its lists at each read, and every read states the cells of
    the entry scan."""
    built, init = [], BandedMatrix.__init__

    def recorded(m, *args, **kwargs):
        init(m, *args, **kwargs)
        built.append(m)

    monkeypatch.setattr(BandedMatrix, "__init__", recorded)
    a = Seq(lambda k: F((-1) ** k, k + 1))
    for domain in ("C", "G(power 2, harmonic)", "R(2^k)"):
        for kind in ("beta", "gamma"):
            dual_test(F_DOMAINS[domain](), a, kind, 48)
    monkeypatch.undo()
    assert any(m._kept[0] is _INTEGERS for m in built)
    assert [m for m in built if m._kept[0] is _PAIRS] == []
    dom = F_DOMAINS["G(power 2, harmonic)"]()
    for m in (beta_assoc(dom.matrix, a), dom.matrix):
        for size in (16, 9, 16):
            for arith in (_PAIRS, _INTEGERS):
                cells = kept_cells(_lists(m, size, arith), size)
                assert m._kept[:2] == (arith, size)
                assert cells == _entry_scan(m, size), (arith, size)


@pytest.mark.parametrize("domain", sorted(F_DOMAINS))
def test_command_matrices_have_one_slope_on_the_column_limit_window(domain):
    """At N = 48 the generator lists of the beta matrix, and over G and R of
    the closed form, have a w that is constant on rows N/2..N, for every a
    of A_SPECS: the column limits of every report take the one-slope
    branch."""
    n = 48
    half = checkpoints(n)[1]
    for spec in A_SPECS.values():
        a, dom = parse_seq_spec(json.dumps(spec))[0], F_DOMAINS[domain]()
        matrices = [beta_assoc(dom.matrix, a)]
        if dom.weights is not None:
            matrices.append(closed_form_beta_matrix(dom.weights, a))
        for m in matrices:
            w = duals._generators(m, n + 1)[2]
            assert len(set(w[half:])) == 1, spec


def test_column_limits_of_one_slope_other_than_1_equal_the_scans():
    """A weighted mean with u = 2 has w = 2 on every row, gamma of it w = 0,
    and a matrix 3 col[k] + row[n] w = 3: one slope, not 1, on the column
    limit window, so the oscillation is the spread of the row term there,
    the same at every column, and the column limits equal the scans."""
    mean = WeightPair(Seq.constant(2), Seq(lambda k: F((-1) ** k, k + 1)))
    col, row = (lambda k: F(k % 5, 3)), (lambda n: F((-1) ** n * n, 7))
    terms = [(row, None), (lambda n: F(3), col)]
    builds = {
        "mean": lambda: weighted_mean(mean),
        "gamma": lambda: gamma(mean),
        "3 col + row": lambda: BandedMatrix(lambda n, k: 3 * col(k) + row(n), structure=(terms, [])),
    }
    for n in (8, 16, 48):
        half = checkpoints(n)[1]
        for name, build in builds.items():
            fast, scanned = with_and_without_structure(build)
            w = duals._generators(fast, n + 1)[2]
            assert len(set(w[half:])) == 1 and w[half] != 1, name
            assert cond_l1_c(fast, n) == cond_l1_c(scanned, n), name


@pytest.mark.parametrize("kind", duals.DUAL_KINDS)
def test_an_inverse_without_lists_takes_the_structure_of_the_product(kind):
    """phi's closed form has no structure and is inverted by forward
    substitution, so its dual matrices have no lists and are scanned; the
    reports equal those over phi."""
    a = Seq.from_values(["1", "-1/2", "1/3"])
    assert dual_test(phi_closed_form(), a, kind, 16).to_dict() == dual_test(phi(), a, kind, 16).to_dict()


positive = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(positive, min_size=1, max_size=5),
    st.lists(positive, min_size=1, max_size=5),
    st.lists(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(2)]), min_size=1, max_size=20),
    st.sampled_from([8, 12, 16]),
)
def test_generator_statistics_property(us, vs, values, n):
    """Periodic positive weights on G and R and a prefix of small rationals,
    zeros and repeats included, so the partial sums P tie."""
    u = Seq(lambda k: us[k % len(us)])
    v = Seq(lambda k: vs[k % len(vs)])
    a = Seq.from_values(values)
    for dom in (weighted_domain(WeightPair(u, v)), riesz_domain(RieszWeights(u))):
        assert_generators_match_scans(dom, a, n)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(positive, min_size=1, max_size=5),
    st.lists(positive, min_size=1, max_size=5),
    st.sampled_from(sorted(F_RIGHT)),
    st.sampled_from([8, 12, 16]),
)
def test_generator_lists_of_F_property(us, vs, name, n):
    """Periodic positive weights on G and R: the statistics of F = domain .
    B from its generator lists equal the scans of F."""
    u = Seq(lambda k: us[k % len(us)])
    v = Seq(lambda k: vs[k % len(vs)])
    for dom in (weighted_domain(WeightPair(u, v)), riesz_domain(RieszWeights(u))):
        fast, scanned = with_and_without_structure(lambda: compose(dom.matrix, F_RIGHT[name]()))
        for kind in ("alpha", "beta", "gamma"):
            assert_structure_matches_scan(kind, fast, scanned, n)


@pytest.mark.parametrize("b", ["delta", "cesaro_inv"])
@pytest.mark.parametrize("domain", ["C", "G[alternating]", "R[2^k]"])
def test_into_domain_class_test_evaluates_no_entry_of_F(domain, b, monkeypatch):
    """The column l1 sums of F = domain . B come from its generator lists,
    so the class test evaluates no entry of F."""
    evals = []

    def counted(domain_matrix, b_matrix):
        f = compose(domain_matrix, b_matrix)
        entry = f._entry
        f._entry = lambda n, k: evals.append((n, k)) or entry(n, k)
        return f

    monkeypatch.setattr("bvdomains.matclass.compose", counted)
    report = class_test_into_domain(F_RIGHT[b](), DOMAINS[domain](), SpaceId.L1, 48)
    assert len(report.transformed_condition["column_l1"]) == 3
    assert evals == []


# ------------------------------------------ the integer kernel of the statistics


ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__abs__", "__neg__", "__lt__", "__gt__",
)


@pytest.mark.parametrize("domain", ["C", "G[alternating]", "R[2^k]"])
def test_structure_statistics_do_no_fraction_arithmetic(domain, monkeypatch):
    """Once the generator lists are grown, the three statistics of a dual
    matrix, of the closed-form matrix and of F = domain . B run on integers:
    no Fraction addition, product, abs, negation or order comparison but the
    <= of the oscillation tolerance."""
    n = 32
    dom = DOMAINS[domain]()
    a = Seq(lambda k: F((-1) ** k, k + 1))
    matrices = [alpha_assoc(dom.matrix, a), beta_assoc(dom.matrix, a)]
    matrices += [compose(dom.matrix, b()) for b in F_RIGHT.values()]
    if dom.weights is not None:
        matrices.append(closed_form_beta_matrix(dom.weights, a))
    for m in matrices:
        assert duals._generators(m, n + 1) is not None
    expected = [[scan(m, n) for scan in (cond_l1_linf, cond_l1_c, cond_l1_l1)] for m in matrices]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in the structure path")

    for name in ARITHMETIC:
        monkeypatch.setattr(F, name, forbidden)
    got = [[scan(m, n) for scan in (cond_l1_linf, cond_l1_c, cond_l1_l1)] for m in matrices]
    monkeypatch.undo()
    assert got == expected


# denominators 2^k - 1 and distinct primes are pairwise coprime, so the lcm
# of the generator lists is far larger than any one of them
HOSTILE_DENOMINATORS = [1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 2, 5, 11, 13, 17, 19, 23, 29, 97, 101]
hostile = st.builds(F, st.integers(-9, 9), st.sampled_from(HOSTILE_DENOMINATORS))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 12, 16, 32]), st.data())
def test_one_sided_structure_statistics_property(n, data):
    """A matrix with one term constant along rows, one constant along
    columns and a diagonal band part: entry(n, k) = col[k] + row[n] below
    the diagonal.  Some row values are tied with -col[k], so the bisect of
    _AbsSums lands on equal values; the statistics of its structure equal
    its scans."""
    size = n + 1
    col = data.draw(st.lists(hostile, min_size=size, max_size=size))
    row = data.draw(st.lists(hostile, min_size=size, max_size=size))
    ties = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=size))
    for j, k in ties:
        row[j] = -col[k]
    excess = data.draw(st.lists(hostile, min_size=size, max_size=size))

    def build():
        def entry(i, k):
            return col[k] + row[i] + (excess[i] if i == k else 0)

        terms = [(row.__getitem__, None), (None, col.__getitem__)]
        return BandedMatrix(entry, structure=(terms, [lambda i: entry(i, i)]))

    fast, scanned = with_and_without_structure(build)
    for kind in ("alpha", "beta"):
        assert_structure_matches_scan(kind, fast, scanned, n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 12, 16, 32]), st.data())
def test_row_weighted_structure_statistics_property(n, data):
    """A matrix with a row term, one two-sided term (w, col) and a diagonal
    band part: entry(n, k) = w[n] col[k] + row[n] below the diagonal.  w
    has zeros and both signs, and some points row[j]/w[j] are tied with
    -col[k], so the bisect of _AbsSums lands on equal keys and envelope
    lines meet at the columns; the statistics of its structure equal its
    scans."""
    size = n + 1
    weights = data.draw(st.lists(st.one_of(st.just(F(0)), hostile), min_size=size, max_size=size))
    col = data.draw(st.lists(hostile, min_size=size, max_size=size))
    row = data.draw(st.lists(hostile, min_size=size, max_size=size))
    ties = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=size))
    for j, k in ties:
        row[j] = -col[k] * weights[j]
    excess = data.draw(st.lists(hostile, min_size=size, max_size=size))

    def build():
        def entry(i, k):
            return weights[i] * col[k] + row[i] + (excess[i] if i == k else 0)

        terms = [(row.__getitem__, None), (weights.__getitem__, col.__getitem__)]
        return BandedMatrix(entry, structure=(terms, [lambda i: entry(i, i)]))

    fast, scanned = with_and_without_structure(build)
    for kind in ("alpha", "beta"):
        assert_structure_matches_scan(kind, fast, scanned, n)


nonzero_hostile = hostile.filter(bool)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_dual_lists_property(data):
    """Weights and a with pairwise coprime denominators, so the scales of
    the factors' lists are large and unrelated: the lists of the dual
    matrices, the closed form, the domain inverse and F hold the cells
    their structures state, and the statistics equal the scans."""
    size = 17
    us, vs = (data.draw(st.lists(nonzero_hostile, min_size=size, max_size=size)) for _ in range(2))
    values = data.draw(st.lists(hostile, min_size=1, max_size=size))
    a = Seq.from_values(values)
    doms = [
        lambda: weighted_domain(WeightPair(Seq(us.__getitem__), Seq(vs.__getitem__))),
        lambda: riesz_domain(RieszWeights(Seq(lambda k: abs(us[k])))),
    ]
    for dom in doms:
        for build in {**dual_matrices(dom(), a), **factor_matrices(dom)}.values():
            assert_lists_match_the_structure(build, (5, 9, size), size - 1)


def test_structures_without_generator_lists_are_scanned():
    """Two two-sided terms, or a two-sided term and a column term, have no
    lists w[n] col[k] + row[n]."""
    u, v = Seq(lambda n: F(n + 1)), Seq(lambda k: F(1, k + 1))
    for structure in (([(u, v), (v, u)], []), ([(u, v), (None, v)], [u, v])):
        m = BandedMatrix(lambda n, k: F(0), structure=structure)
        assert duals._generators(m, 4) is None


@pytest.mark.parametrize("size", [1, 2, 5, 16])
def test_lists_of_products_without_generator_lists_hold_their_cells(size):
    """Products whose structure the statistics do not read, and whose left
    factor has no band, so the rule reads a term column of the right factor
    one past its lists: their integer lists (d, terms, bands) still hold the
    cells of their entries."""
    w = harmonic_pair()
    for build in (
        lambda: compose(sigma_sum(), gamma(w)),
        lambda: compose(cesaro(), compose(delta(), gamma(w))),
        lambda: compose(weighted_mean(w), compose(sigma_sum(), gamma(w))),
        lambda: compose(sigma_sum(), compose(gamma(w), delta())),
    ):
        m = build()
        d, terms, bands = _lists(m, size, _INTEGERS)
        below = lambda n, k: sum((1 if u is None else u[n]) * (1 if v is None else v[k]) for u, v in terms)
        cells = {(n, n - i): F(xs[n], d) for i, xs in enumerate(bands) for n in range(i, size)}
        cells.update({(n, k): F(below(n, k), d) for n in range(size) for k in range(n - len(bands) + 1)})
        assert cells == row_entries(build(), range(size))


def test_list_combine_never_returns_an_input_list():
    """A one-sided product is read as a slice of its list, so combine's
    result is a new list even when one unshifted product fits it, and
    adding a second product to it leaves the first product's list as it
    was.  The one unshifted product 1 . 1 stays None."""
    _, combine = _list_ops(6, (operator.add, operator.mul, operator.neg, 0, 1))
    L, M = [1, 2, 3, 4, 5, 6], [7, 0, -1, 2, 9, 4]
    for product in ((None, 0, L, 0, 1), (L, 0, None, 0, 1)):
        out = combine([product])
        assert out == L and out is not L
    out = combine([(None, 0, L, 0, 1), (M, 0, None, 0, -1)])
    assert out == [x - y for x, y in zip(L, M)] and out is not L
    assert L == [1, 2, 3, 4, 5, 6] and M == [7, 0, -1, 2, 9, 4]
    assert combine([(None, 0, None, 0, 1)]) is None


def test_abs_sums_query_equals_the_direct_sum():
    """Weights of 1, and weights with zeros and both signs; duplicates,
    negatives and queries tied with an inserted point -r/w."""
    rng = random.Random(7)
    for trial in range(100):
        size = rng.randint(1, 30)
        values = [rng.randint(-6, 6) for _ in range(size)]
        weights = [1] * size if trial % 2 else [rng.randint(-3, 3) for _ in range(size)]
        sums, inserted = duals._AbsSums(weights, values), []
        for i in rng.sample(range(size), size):
            sums.insert(i)
            inserted.append((weights[i], values[i]))
            ties = [-r // w for w, r in inserted if w and r % w == 0]
            for x in ties + [rng.randint(-10, 10), 0]:
                assert sums.query(x) == sum(abs(w * x + r) for w, r in inserted)


@pytest.mark.parametrize(
    "domain",
    [cesaro_domain, lambda: riesz_domain(RieszWeights(Seq(lambda k: F(2) ** k)))],
    ids=["C", "R[2^k]"],
)
def test_beta_dual_reads_linearly_many_inverse_entries(domain, monkeypatch):
    """A beta dual reads the bidiagonal inverse of the domain's mean through
    its band, at most 2(N + 2) of its entries, and evaluates no entry of the
    domain inverse and no entry of the beta_assoc matrix, cross-check
    included."""
    n = 256
    dom = domain()
    inv = invert(dom.matrix)
    bidiagonal, _ = inv._factors
    evals, inv_evals, assoc_reads = [], [], []

    def counted(log, fn):
        def wrapper(*index):
            log.append(index)
            return fn(*index)

        return wrapper

    inv._entry = counted(inv_evals, inv._entry)
    bidiagonal._entry = counted(evals, bidiagonal._entry)
    build = duals.beta_assoc

    def counted_beta_assoc(matrix, a):
        m = build(matrix, a)
        m.entry = counted(assoc_reads, m.entry)
        return m

    monkeypatch.setattr(duals, "beta_assoc", counted_beta_assoc)
    report = dual_test(dom, Seq(lambda k: F(1, k + 1)), "beta", n)
    assert len(report.conditions["column_limits"]) == n // 4
    assert dom.weights is None or report.cross_check["match"] is True
    assert 0 < len(evals) <= 2 * (n + 2)
    assert inv_evals == assoc_reads == []


# ------------------------- the reduced-pair kernel of compose's rows and the scans


def _periodic_leaf(shape):
    """The lower triangle of a shape (band values, term values), each band
    part, U and V periodic in its values (None the all-ones sequence).
    compose reads it through its structure only, so its entries raise."""
    band, terms = shape
    periodic = lambda values: None if values is None else Seq(lambda j: values[j % len(values)])
    structure = ([(periodic(u), periodic(v)) for u, v in terms], [periodic(part) for part in band])
    return Triangle(lambda n, k: pytest.fail("a leaf's entry was read"), structure=structure)


zero_or_hostile = st.one_of(st.just(F(0)), hostile)
_HOSTILE_VALUES = st.lists(hostile, min_size=1, max_size=4)
_HOSTILE_SIDE = st.one_of(st.none(), _HOSTILE_VALUES)
_HOSTILE_LEAF = st.tuples(
    st.lists(_HOSTILE_VALUES, max_size=2), st.lists(st.tuples(_HOSTILE_SIDE, _HOSTILE_SIDE), max_size=2)
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["finite", "lower", "banded"]), st.data())
def test_compose_rows_equal_the_dense_product_property(size, left, data):
    """A left factor with zero coefficients, as a finite matrix whose rows
    may reach past the diagonal, a full lower triangle or a band, times a
    right factor of 1 to 3 leaves nested either way, each with 0 to 2 band
    parts and terms of hostile denominators and both signs: the entry scan
    of the product, whose rows compose makes leaf by leaf on reduced pairs,
    equals the dense product of the truncations."""
    if left == "finite":
        rows = data.draw(st.lists(st.lists(zero_or_hostile, min_size=1, max_size=size), min_size=1, max_size=size))
        a = BandedMatrix.from_rows(rows)
    elif left == "lower":
        values = data.draw(st.lists(zero_or_hostile, min_size=1, max_size=7))
        a = Triangle(lambda n, k: values[(3 * n + k) % len(values)])
    else:
        parts = data.draw(st.lists(st.lists(zero_or_hostile, min_size=1, max_size=4), min_size=1, max_size=3))
        a = Triangle(lambda n, k: parts[n - k][n % len(parts[n - k])] if n - k < len(parts) else F(0))
    shapes = data.draw(st.lists(_HOSTILE_LEAF, min_size=1, max_size=3))
    leaves = [_periodic_leaf(shape) for shape in shapes]
    b = leaves[-1]
    expected = truncate(b, size)
    for leaf in reversed(leaves[:-1]):
        expected = dense_mul(truncate(leaf, size), expected)
    expected = dense_mul(truncate(a, size), expected)
    if data.draw(st.booleans()):  # nested to the right
        for leaf in reversed(leaves[:-1]):
            b = compose(leaf, b)
    else:
        b = leaves[0]
        for leaf in leaves[1:]:
            b = compose(b, leaf)
    assert _entry_scan(compose(a, b), size) == expected


def _warm_leaves(m, size):
    """Read every structure callable of m's leaves where a row of a
    product can read it, at the first size rows, so that their memos hold
    the values."""
    if m._factors is not None:
        for factor in m._factors:
            _warm_leaves(factor, size)
        return
    terms, band = m.structure
    for i, part in enumerate(band):
        [part(j) for j in range(i, size)]
    for side in (side for term in terms for side in term if side is not None):
        [side(j) for j in range(size)]


def test_compose_rows_and_scans_do_no_fraction_arithmetic(monkeypatch):
    """Once the leaves' Seqs and the left factor's entries are read, the
    first read of each row through compose's structured branch and the
    three scans of a finite matrix run on reduced pairs: with Fraction's
    addition, product, abs, negation and order comparison patched to fail,
    they give the unpatched values."""
    n = 24
    w = harmonic_pair()
    rows = [["1/3", "-2/7", "0", "5/9"], ["0"], ["-1", "0", "1/2", "3/5", "-7/11"], ["2/9", "1/7"]]
    builds = [
        lambda: compose(BandedMatrix.from_rows(rows), invert(gamma(w))),
        lambda: compose(phi(), compose(gamma(w), cesaro_inverse())),
        lambda: compose(phi_closed_form(), compose(cesaro(), compose(sigma_sum(), weighted_mean(w)))),
    ]
    # rows of both signs that end before, on or past the diagonal, and
    # empty rows, so every scan reads the cells of a finite matrix
    values = [[F((-1) ** (i + k) * (i + 2 * k + 1), k + 3) for k in range(i % 5 + i // 2)] for i in range(n)]
    finite = lambda: BandedMatrix.from_rows(values)
    scans = (cond_l1_linf, cond_l1_c, cond_l1_l1)
    expected = [_entry_scan(build(), n) for build in builds] + [[scan(finite(), n) for scan in scans]]
    products = [build() for build in builds]
    for product in products:
        left, right = product._factors
        _entry_scan(left, n)
        _warm_leaves(right, n)
    m = finite()

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic on the scan path")

    for name in ARITHMETIC:
        monkeypatch.setattr(F, name, forbidden)
    got = [_entry_scan(product, n) for product in products] + [[scan(m, n) for scan in scans]]
    monkeypatch.undo()
    assert got == expected


# ------------------------------------------------ support-bounded entry scans


def reference_l1_linf(m, n):
    """The scan of cond_l1_linf over the whole N x N square, row by row."""
    square = _entry_scan(m, n)
    return tuple((s, max(abs(x) for row in square[:s] for x in row[:s])) for s in checkpoints(n))


def reference_l1_c(m, n):
    """The scan of cond_l1_c over rows [N/2, N] of the first N/4 columns,
    row by row."""
    quarter, half, _ = checkpoints(n)
    window = [[m.entry(row, k) for k in range(quarter)] for row in range(half, n + 1)]
    columns = [(max(column) - min(column), column[-1]) for column in zip(*window)]
    return tuple(
        {"k": k, "oscillation": osc, "limit_estimate": limit, "converged": osc <= duals.OSCILLATION_TOL}
        for k, (osc, limit) in enumerate(columns)
    )


def reference_l1_l1(m, n):
    """The scan of cond_l1_l1 over the whole N x N square, row by row."""
    square = _entry_scan(m, n)
    return tuple(
        (s, max(sum((abs(row[k]) for row in square[:s]), F(0)) for k in range(s))) for s in checkpoints(n)
    )


SCANS = {
    "linf": (cond_l1_linf, reference_l1_linf),
    "c": (cond_l1_c, reference_l1_c),
    "l1": (cond_l1_l1, reference_l1_l1),
}


def _value(n, k):
    # zeros inside the supports too, and signs that make the columns oscillate
    return F(0) if (n + 2 * k) % 5 == 1 else F((-1) ** k * (k - 2 * n), n + k + 1)


def _lengths(n):
    # rows ending before, at and well past their diagonal, and an empty one
    return (2, 0, 5, 1, 40, 3)[n]


def _diagonals(count):
    """A structure of _value's first count diagonals and no terms: it
    declares the band count - 1, which the scans keep when ``recorded``
    removes the structure."""
    return [], [lambda n, i=i: _value(n, n - i) for i in range(count)]


SCANNED = {
    "lower": lambda: Triangle(_value),
    "banded": lambda: Triangle(_value, structure=_diagonals(3)),
    "banded_upper": lambda: BandedMatrix(_value, lambda n: n + 3, structure=_diagonals(2)),
    "finite_lower": lambda: BandedMatrix(_value, lambda n: n, row_count=5),
    "finite": lambda: BandedMatrix(_value, lambda n: _lengths(n) - 1, row_count=6),
    "E": lambda: compose(BandedMatrix(_value, lambda n: _lengths(n) - 1, row_count=6), invert(phi())),
    "F": lambda: compose(phi(), BandedMatrix(_value, lambda n: _lengths(n) - 1, row_count=6)),
}


def recorded(build, log):
    """build()'s matrix, its structure removed, logging each entry evaluation."""
    m = build()
    m.structure = None
    evaluate = m._entry
    m._entry = lambda n, k: log.append((n, k)) or evaluate(n, k)
    return m


@pytest.mark.parametrize("n", [8, 12, 16, 32])
@pytest.mark.parametrize("scan", sorted(SCANS))
@pytest.mark.parametrize("matrix", sorted(SCANNED))
def test_scans_evaluate_what_the_full_square_scans_do(matrix, scan, n):
    """The scans skip only cells their matrix's supports make 0: the result
    and the entry evaluations, in order, are those of the full scans."""
    fast, reference = SCANS[scan]
    got_log, expected_log = [], []
    got = fast(recorded(SCANNED[matrix], got_log), n)
    assert got == reference(recorded(SCANNED[matrix], expected_log), n)
    assert got_log == expected_log


def test_scans_of_a_finite_matrix_read_its_rows_only():
    """Four rows that run past the square: the three scans at N=64 call
    entry O(r N) times, where the full square would take N^2 per scan."""
    n, r = 64, 4

    def build():
        return BandedMatrix.from_rows([[str(k - row) for k in range(70)] for row in range(r)])

    m = build()
    entry, calls = m.entry, []
    m.entry = lambda row, col: calls.append((row, col)) or entry(row, col)
    for scan, reference in SCANS.values():
        assert scan(m, n) == reference(build(), n)
    assert 0 < len(calls) <= 3 * r * n


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([8, 12, 16]), data=st.data())
def test_scans_equal_the_brute_force_statistics_property(n, data):
    """A finite matrix of up to 6 rows, each up to N + 8 long, with zeros:
    the three scans equal the full square scans, so a cell past the
    diagonal counts in the squares that hold it and a checkpoint's max
    takes only the columns of its square."""
    cells = st.sampled_from(["0", "0", "1", "-1", "1/2", "-2/3", "3", "5/7"])
    rows = data.draw(st.lists(st.lists(cells, max_size=n + 8), max_size=6))
    for scan, reference in SCANS.values():
        assert scan(BandedMatrix.from_rows(rows), n) == reference(BandedMatrix.from_rows(rows), n)


def _invalid_domain(weight, r):
    """A G or R domain whose weight is invalid at index r: u[r] = 0 or
    v[r] = 0 for G, q[r] = 0 or -1 for R."""
    varied = Seq(lambda k: F(k + 1, k + 2))
    bad = Seq(lambda k: F(0) if k == r else varied(k))
    if weight == "u":
        return weighted_domain(WeightPair(bad, Seq(lambda k: F(k + 1))))
    if weight == "v":
        return weighted_domain(WeightPair(varied, bad))
    return riesz_domain(RieszWeights(Seq(lambda k: F(weight) if k == r else varied(k))))


_BANDED_ROWS = [["1", "-2/3", "0", "5"], ["0"], ["2", "1", "1/2"] + ["1/3"] * 17, ["0", "-1"] * 5]
_SCANNED_PRODUCTS = {
    "E": lambda dom: compose(BandedMatrix.from_rows(_BANDED_ROWS), invert(dom.matrix)),
    "F.banded": lambda dom: compose(dom.matrix, BandedMatrix.from_rows(_BANDED_ROWS)),
    "F.cesaro.cesaro": lambda dom: compose(dom.matrix, compose(cesaro(), cesaro())),
}


def _ending(run):
    """None when run returns, else the message of the invalid weight it raises."""
    try:
        run()
    except InvalidWeightsError as error:
        return str(error)
    return None


@pytest.mark.parametrize("matrix", sorted(_SCANNED_PRODUCTS))
@pytest.mark.parametrize("weight", ["u", "v", "0", "-1"])
def test_scans_raise_what_the_entry_scan_raises(weight, matrix):
    """E of a from-domain test and F of an into-domain test, their structure
    removed, over a domain with an invalid weight at r: cond_l1_linf and
    cond_l1_l1 at N = 16 end as the entry scan of the square does: with the
    same InvalidWeightsError and message, or with none."""
    n = 16
    for r in (0, 1, 2, 3, 5, 7, 9, 12, 15, 16, 17, 19):

        def build():
            m = _SCANNED_PRODUCTS[matrix](_invalid_domain(weight, r))
            m.structure = None
            return m

        expected = _ending(lambda: _entry_scan(build(), n))
        for scan in (cond_l1_linf, cond_l1_l1):
            assert _ending(lambda: scan(build(), n)) == expected, (r, scan.__name__)
