from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvdomains.core import Seq, identity, transform_seq
from bvdomains.builders import cesaro, phi
from bvdomains.spaces import (
    SpaceId,
    bvA_norm_prefix,
    bv_norm_prefix,
    checkpoints,
    classical_dual,
    classify_trend,
    combine_verdicts,
    domain_membership,
    fmt,
    fmt_ratio,
    membership,
)

@settings(max_examples=300, deadline=None)
@given(st.builds(F, st.integers(), st.integers(min_value=1)))
@example(F(0))
@example(F(-7))
@example(F(-3, 4))
@example(F(10**200 + 1, 3**150))
def test_fmt_ratio_is_fmt_of_the_fraction(x):
    """Over reduced pairs p/q, q > 0: signs, q = 1 and zero.  fmt is
    fmt_ratio of the pair, so str of the Fraction is the oracle of both."""
    p, q = x.as_integer_ratio()
    assert fmt_ratio(p, q) == fmt(x) == str(x)


def test_fmt_ratio_refuses_too_many_digits_as_fmt_does():
    big = 10**4300  # 4,301 digits, past Python's int-to-str limit
    for p, q in ((big, 1), (-big, 3), (1, big + 1)):
        with pytest.raises(ValueError) as want:
            fmt(F(p, q))
        with pytest.raises(ValueError) as got:
            fmt_ratio(p, q)
        assert str(got.value) == str(want.value)
        assert "too many digits" in str(got.value) and "--n" in str(got.value)


E = Seq.constant(1)
ALTERNATING = Seq(lambda k: F((-1) ** k))
HARMONIC = Seq(lambda k: F(1, k + 1))


def test_bv_norm_prefix_constant_and_unit():
    for n in (1, 5, 40):
        assert bv_norm_prefix(E, n) == 1
    assert bv_norm_prefix(Seq.unit(0), 1) == 2
    assert bv_norm_prefix(Seq.unit(0), 9) == 2


def test_bv_norm_prefix_refuses_a_length_below_one():
    with pytest.raises(ValueError, match="prefix length must be >= 1, got 0"):
        bv_norm_prefix(E, 0)


def test_bv_norm_prefix_harmonic_telescopes():
    # telescoping oracle: |1| + sum (1/k - 1/(k+1)) = 2 - 1/(N+1)
    for n in (1, 3, 10):
        assert bv_norm_prefix(HARMONIC, n) == 2 - F(1, n + 1)


def test_bv_norm_monotone():
    values = [bv_norm_prefix(ALTERNATING, n) for n in range(1, 12)]
    assert values == sorted(values)


def test_bvA_norm_prefix():
    assert bvA_norm_prefix(identity(), ALTERNATING, 7) == bv_norm_prefix(ALTERNATING, 7)
    assert bvA_norm_prefix(cesaro(), E, 9) == 1
    # direct evaluation oracle: C e(0) = (1, 1/2, 1/3, ...)
    expected = 1 + sum(F(1, k) - F(1, k + 1) for k in range(1, 4))
    assert expected == F(7, 4)
    assert bvA_norm_prefix(cesaro(), Seq.unit(0), 3) == F(7, 4)


def test_membership_requires_valid_truncation():
    with pytest.raises(ValueError):
        membership(E, SpaceId.L1, 10)
    with pytest.raises(ValueError):
        membership(E, SpaceId.L1, 4)


def test_checkpoints_are_the_quarter_half_and_whole_truncation():
    assert checkpoints(8) == (2, 4, 8)
    for n in (6, 10):
        with pytest.raises(ValueError, match=f"multiple of 4 and >= 8, got {n}$"):
            checkpoints(n)


def test_membership_geometric_l1():
    geo = Seq(lambda k: F(1, 2**k))
    report = membership(geo, SpaceId.L1, 16)
    assert report.verdict == "likely_in"
    # geometric-sum oracle: sum_{k<16} 2^-k = 2 - 2^-15
    assert report.checkpoints[-1][1] == 2 - F(1, 2**15)


def test_membership_alternating_bv():
    report = membership(ALTERNATING, SpaceId.BV, 16)
    assert report.verdict == "likely_out"
    assert report.checkpoints[-1][1] == 2 * 15


def test_membership_finite_support_certified():
    report = membership(Seq.unit(5), SpaceId.C0, 16)
    assert report.verdict == "certified_in"
    report = membership(Seq.unit(5), SpaceId.BV0, 16)
    assert report.verdict == "certified_in"


def test_membership_bv0_combines_statistics():
    report = membership(ALTERNATING, SpaceId.BV0, 16)
    assert report.aux_checkpoints is not None
    assert report.verdict == "likely_out"


def test_domain_membership_phi():
    report = domain_membership(E, phi(), SpaceId.L1, 16)
    assert report.verdict == "likely_in"
    assert all(v == 1 for _, v in report.checkpoints)
    col = transform_seq(phi(), E)
    assert [col(i) for i in range(3)] == [F(1), F(0), F(0)]


def test_domain_membership_growing():
    linear = Seq(lambda k: F(k + 1))
    report = domain_membership(linear, cesaro(), SpaceId.BV, 16)
    assert report.verdict == "likely_out"


def test_classify_trend_edge_cases():
    assert classify_trend(F(0), F(0), F(0)) == "likely_in"
    assert classify_trend(F(1), F(1), F(1)) == "likely_in"
    assert classify_trend(F(1), F(3, 2), F(2)) == "likely_out"


VERDICTS = ("certified_in", "likely_in", "inconclusive", "likely_out")
# COMBINED[first][j] is the combined verdict of first and VERDICTS[j]
COMBINED = {
    "certified_in": ("likely_in", "likely_in", "inconclusive", "likely_out"),
    "likely_in": ("likely_in", "likely_in", "inconclusive", "likely_out"),
    "inconclusive": ("inconclusive", "inconclusive", "inconclusive", "likely_out"),
    "likely_out": ("likely_out", "likely_out", "likely_out", "likely_out"),
}


@pytest.mark.parametrize("first", VERDICTS)
@pytest.mark.parametrize("second", VERDICTS)
def test_combine_verdicts_truth_table(first, second):
    expected = COMBINED[first][VERDICTS.index(second)]
    assert combine_verdicts(first, second) == expected
    assert combine_verdicts(second, first) == expected


def test_classical_dual_table():
    assert classical_dual(SpaceId.BV, "beta") == SpaceId.CS
    assert classical_dual(SpaceId.L1, "alpha") == SpaceId.LINF
    assert classical_dual(SpaceId.C0, "gamma") == SpaceId.L1
    assert classical_dual(SpaceId.CS, "beta") == SpaceId.BV
    assert classical_dual(SpaceId.BS, "beta") == SpaceId.BV0
    assert classical_dual(SpaceId.BV0, "beta") == SpaceId.BS
    assert classical_dual(SpaceId.BV, "gamma") == SpaceId.BS
    with pytest.raises(ValueError):
        classical_dual(SpaceId.BV, "delta")


def test_report_serialization_shape():
    d = membership(E, SpaceId.LINF, 16).to_dict()
    assert d["space"] == "linf"
    assert [c["index"] for c in d["checkpoints"]] == [4, 8, 16]
    assert "policy" in d and "note" in d["policy"]
