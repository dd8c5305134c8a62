from fractions import Fraction as F

import pytest

from bvdomains.core import (
    Seq,
    Triangle,
    _entry_scan,
    compose,
    dense_mul,
    identity,
    invert,
    transform_seq,
    truncate,
)
from bvdomains.builders import (
    RieszWeights,
    WeightPair,
    cesaro,
    cesaro_domain,
    delta,
    phi,
    riesz_domain,
    sigma_sum,
    weighted_domain,
)
from bvdomains import matclass
from bvdomains.duals import dual_test
from bvdomains.matclass import (
    BandedMatrix,
    UnsupportedClassError,
    apply_general,
    class_test_from_domain,
    class_test_into_domain,
)
from bvdomains.spaces import SpaceId


def test_banded_from_rows_entries_and_bounds():
    m = BandedMatrix.from_rows([["1", "1"], ["0", "2", "-1/2"]])
    assert m.entry(0, 0) == 1
    assert m.entry(1, 2) == F(-1, 2)
    assert m.entry(0, 5) == 0
    assert m.entry(7, 0) == 0
    assert m.row_bound(1) == 2
    row = m.row_seq(1)
    assert row.support_bound == 2
    assert [row(k) for k in range(4)] == [F(0), F(2), F(-1, 2), F(0)]


def test_apply_general_matches_triangle_apply():
    x = Seq.from_values(["1", "-1", "1/2"])
    tri = phi()
    got = apply_general(tri, x, 8)
    col = transform_seq(tri, x)
    assert got == [col(i) for i in range(8)]
    finite = BandedMatrix.from_rows([["1", "1"]])
    assert apply_general(finite, x, 3) == [F(0), F(0), F(0)]


def test_E_single_row_oracle():
    # A has the single row (1, 1); against the composed Cesaro domain matrix
    # E(0,k) = inv(0,k) + inv(1,k), so E row 0 is (2, 2) by the inverse's
    # closed form (diagonal k+1, ones below)
    a = BandedMatrix.from_rows([["1", "1"]])
    e = compose(a, invert(phi()))
    assert e.entry(0, 0) == 2
    assert e.entry(0, 1) == 2
    assert e.entry(0, 2) == 0
    assert e.entry(3, 0) == 0


def test_E_identity_recovers_inverse():
    dom = phi()
    a = identity()
    e = compose(a, invert(dom))
    inv = invert(dom)
    for n in range(8):
        for k in range(n + 1):
            assert e.entry(n, k) == inv.entry(n, k)


def test_F_delta_sum_is_identity():
    f = compose(delta(), sigma_sum())
    assert isinstance(f, Triangle)
    for n in range(8):
        for k in range(8):
            assert f.entry(n, k) == (1 if n == k else 0)


def _counted_entries(m):
    """Record every (n, k) read through m.entry."""
    reads = []
    entry = m.entry

    def counted(n, k):
        reads.append((n, k))
        return entry(n, k)

    m.entry = counted
    return reads


def test_F_reads_a_triangle_only_on_and_below_its_diagonal():
    # all ones like sigma_sum, but declaring no factors, so the generic loop runs
    t = Triangle(lambda n, k: F(1))
    reads = _counted_entries(t)
    f = compose(phi(), t)
    assert truncate(f, 16) == dense_mul(truncate(phi(), 16), truncate(sigma_sum(), 16))
    assert reads and all(k <= n for n, k in reads)


def test_F_of_a_factorable_triangle_reads_each_domain_row_once():
    """F's entries, which compose makes from each domain row once and from
    B's structure; truncate reads F's pair lists instead."""
    b, dom = sigma_sum(), phi()
    b_reads, dom_reads = _counted_entries(b), _counted_entries(dom)
    f = compose(dom, b)
    assert _entry_scan(f, 16) == dense_mul(truncate(phi(), 16), truncate(sigma_sum(), 16))
    assert not b_reads
    assert dom_reads and all(k <= n for n, k in dom_reads)
    assert len(dom_reads) == len(set(dom_reads))


@pytest.mark.parametrize("b", [sigma_sum, cesaro], ids=["sum", "cesaro"])
@pytest.mark.parametrize(
    "domain",
    [
        cesaro_domain,
        lambda: weighted_domain(WeightPair(Seq(lambda n: F(1, n + 2)), Seq(lambda k: F(k + 1)))),
        lambda: riesz_domain(RieszWeights(Seq(lambda k: F(2) ** k))),
    ],
    ids=["C", "G", "R"],
)
def test_class_into_domain_reads_no_entry_of_a_structured_F(b, domain, monkeypatch):
    """For B = sum and cesaro, F = domain . B declares a row term and one
    two-sided term, so its column l1 sums are read from its generator lists:
    the class test at N=48 reads no entry of F, and reports what the scan
    of F without its structure does."""
    built = []

    def counted(*args):
        f = compose(*args)
        built.append(_counted_entries(f))
        return f

    monkeypatch.setattr(matclass, "compose", counted)
    report = class_test_into_domain(b(), domain(), SpaceId.L1, 48)
    assert built == [[]]

    def scanned(*args):
        f = compose(*args)
        f.structure = None
        return f

    monkeypatch.setattr(matclass, "compose", scanned)
    assert class_test_into_domain(b(), domain(), SpaceId.L1, 48) == report


def test_F_banded_bounds_are_cumulative():
    b = BandedMatrix.from_rows([["1"], ["0", "0", "3"], ["5"]])
    f = compose(delta(), b)
    assert isinstance(f, BandedMatrix)
    assert [f.row_bound(n) for n in range(5)] == [0, 2, 2, 2, 2]
    # F row 3 = (delta row 3) . B = B row 3 - B row 2 = (-5, 0, 0)
    assert f.entry(3, 0) == -5
    assert f.entry(3, 2) == 0


def test_transform_coherence_on_finite_input():
    # Ax must equal E applied to the domain transform of x
    dom = cesaro_domain()
    a = BandedMatrix.from_rows([["1", "2"], ["0", "-1", "1/3"]])
    e = compose(a, invert(dom.matrix))
    x = Seq.from_values(["3", "-1/2", "4", "1"])
    y = transform_seq(dom.matrix, x)
    assert apply_general(a, x, 6) == apply_general(e, y, 6)


def test_class_from_domain_zero_matrix_likely_in():
    zero = BandedMatrix.from_rows([["0"]])
    for y in (SpaceId.L1, SpaceId.C, SpaceId.LINF):
        report = class_test_from_domain(zero, cesaro_domain(), y, 16)
        assert report.verdict == "likely_in_class"
        assert all(r.verdict == "certified_in" for r in report.row_dual_checks)


def test_class_from_domain_summation_diverges():
    # the summation matrix sends e (which is in the Cesaro bv domain) to the
    # unbounded sequence (1, 2, 3, ...), and the E transform shows it: a
    # diagonal growing like n+1
    a = sigma_sum()
    report = class_test_from_domain(a, cesaro_domain(), SpaceId.LINF, 16)
    assert report.verdict == "likely_not_in_class"
    stats = report.transformed_condition["sup_entry"]
    assert [s["value"] for s in stats] == ["4", "8", "16"]


def test_class_from_domain_finite_matrix_likely_in():
    a = BandedMatrix.from_rows([["1", "-1"], ["0", "1/2"]])
    report = class_test_from_domain(a, cesaro_domain(), SpaceId.L1, 16)
    assert report.verdict == "likely_in_class"


def test_class_into_domain_inverse_is_identity_case():
    b = invert(phi())
    report = class_test_into_domain(b, cesaro_domain(), SpaceId.L1, 16)
    assert report.verdict == "likely_in_class"
    stats = report.transformed_condition["column_l1"]
    assert [s["value"] for s in stats] == ["1", "1", "1"]


def test_class_into_domain_divergent_case():
    # with u = v = e the weighted mean is plain summation, the composed
    # domain matrix is the identity, and F reduces to the summation matrix
    dom = weighted_domain(WeightPair(Seq.constant(1), Seq.constant(1)))
    report = class_test_into_domain(sigma_sum(), dom, SpaceId.L1, 16)
    assert report.verdict == "likely_not_in_class"


def test_unsupported_targets_raise():
    a = BandedMatrix.from_rows([["1"]])
    with pytest.raises(UnsupportedClassError):
        class_test_from_domain(a, cesaro_domain(), SpaceId.CS, 16)
    with pytest.raises(UnsupportedClassError):
        class_test_into_domain(identity(), cesaro_domain(), SpaceId.C, 16)


def test_class_report_serialization():
    a = BandedMatrix.from_rows([["1"]])
    d = class_test_from_domain(a, cesaro_domain(), SpaceId.C, 16).to_dict()
    assert d["direction"] == "from_bv_domain"
    assert d["domain_label"] == "C"
    assert d["space"] == "c"
    assert d["transformed_condition"]["target"] == "c"
    assert len(d["row_dual_checks"]) == 4
    d2 = class_test_into_domain(identity(), cesaro_domain(), SpaceId.L1, 16).to_dict()
    assert d2["row_dual_checks"] is None


@pytest.mark.parametrize("rows", ([["1", "1"]], [["1", "-1"], ["0", "1/2"], ["2"]]))
def test_class_from_domain_checks_one_zero_row_for_all(rows, monkeypatch):
    a = BandedMatrix.from_rows(rows)
    weighted = weighted_domain(WeightPair(Seq.constant(1), Seq(lambda k: F(k + 1))))
    for domain in (cesaro_domain(), weighted):
        report = class_test_from_domain(a, domain, SpaceId.LINF, 32)
        per_row = tuple(dual_test(domain, a.row_seq(row), "beta", 32) for row in range(8))
        assert report.to_dict() == report._replace(row_dual_checks=per_row).to_dict()

        calls = []

        def counted(*args):
            calls.append(args)
            return dual_test(*args)

        with monkeypatch.context() as patch:
            patch.setattr(matclass, "dual_test", counted)
            assert class_test_from_domain(a, domain, SpaceId.LINF, 32) == report
        assert len(calls) <= a.row_count + 1
