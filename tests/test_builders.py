from fractions import Fraction as F

import pytest

from bvdomains.core import InvalidWeightsError, Seq, apply, compose, invert, truncate
from bvdomains.builders import (
    Domain,
    RieszWeights,
    WeightPair,
    basis_column,
    cesaro,
    cesaro_inverse,
    delta,
    gamma,
    gamma_closed_form,
    phi,
    phi_closed_form,
    riesz,
    sigma_closed_form,
    sigma_riesz,
    sigma_sum,
    weighted_mean,
)
from bvdomains.duals import DualReport
from bvdomains.matclass import ClassReport
from bvdomains.spaces import MembershipReport
from bvdomains.verify import CheckResult

E = Seq.constant(1)


def harmonic_pair():
    return WeightPair(
        Seq(lambda n: F(1, n + 2)),
        Seq(lambda k: F(k + 1)),
    )


def geometric_riesz():
    return RieszWeights(Seq(lambda k: F(2**k)))


def test_delta_entries():
    d = delta()
    assert d.entry(0, 0) == 1
    assert d.entry(4, 3) == -1
    assert d.entry(4, 2) == 0


def test_sigma_sum_inverts_delta():
    s = sigma_sum()
    assert s.entry(3, 0) == 1
    assert s.entry(2, 3) == 0
    inv = invert(delta())
    for n in range(12):
        for k in range(n + 1):
            assert s.entry(n, k) == inv.entry(n, k)


def test_cesaro_entries():
    c = cesaro()
    assert c.entry(0, 0) == 1
    assert c.entry(3, 1) == F(1, 4)
    assert apply(c, E, 5) == [F(1)] * 5


def test_cesaro_inverse_closed_form():
    inv = invert(cesaro())
    closed = cesaro_inverse()
    for n in range(16):
        for k in range(n + 1):
            assert closed.entry(n, k) == inv.entry(n, k)


def test_weighted_mean_specializations():
    as_cesaro = weighted_mean(
        WeightPair(Seq(lambda n: F(1, n + 1)), Seq.constant(1))
    )
    c = cesaro()
    for n in range(10):
        for k in range(n + 1):
            assert as_cesaro.entry(n, k) == c.entry(n, k)
    as_sum = weighted_mean(WeightPair(Seq.constant(1), Seq.constant(1)))
    assert all(as_sum.entry(n, k) == 1 for n in range(6) for k in range(n + 1))


def test_weighted_mean_rejects_zero_weight():
    bad = weighted_mean(WeightPair(Seq(lambda n: F(n)), Seq.constant(1)))
    with pytest.raises(InvalidWeightsError):
        bad.entry(0, 0)


def test_riesz_entries():
    r = geometric_riesz()
    t = riesz(r)
    # direct formula oracle q_k / Q_n with q = 1,2,4,...
    assert t.entry(2, 1) == F(2, 7)
    unit = riesz(RieszWeights(Seq.constant(1)))
    c = cesaro()
    for n in range(10):
        for k in range(n + 1):
            assert unit.entry(n, k) == c.entry(n, k)
    for n in range(6):
        assert 0 < t.entry(n, n) <= 1


RIESZ_Q = {
    "1": lambda k: F(1),
    "1/(k+1)": lambda k: F(1, k + 1),
    "k+1": lambda k: F(k + 1),
    "2^k": lambda k: F(2**k),
}


@pytest.mark.parametrize("name", sorted(RIESZ_Q))
def test_riesz_is_the_weighted_mean_of_1_over_Q_and_q(name):
    n_size = 40
    q = [RIESZ_Q[name](k) for k in range(n_size)]
    big_q = [sum(q[: n + 1], F(0)) for n in range(n_size)]
    t = riesz(RieszWeights(Seq(RIESZ_Q[name])))
    assert truncate(t, n_size) == tuple(
        tuple(q[k] / big_q[n] if k <= n else F(0) for k in range(n_size))
        for n in range(n_size)
    )
    inverse = invert(t)
    for n in range(n_size):
        for k in range(n_size):
            if k == n:
                expected = big_q[n] / q[n]
            elif k == n - 1:
                expected = -big_q[n - 1] / q[n]
            else:
                expected = F(0)
            assert inverse.entry(n, k) == expected, (n, k)


def test_gamma_closed_form_of_riesz_weights_is_sigma_closed_form():
    r = RieszWeights(Seq(lambda k: F(1, k + 1)))
    assert truncate(gamma_closed_form(r), 40) == truncate(sigma_closed_form(r), 40)


def test_cesaro_times_riesz_reads_partial_sums_linearly(monkeypatch):
    # u_n = 1/Q_n is memoized over a running sum of q, so a product with the
    # Riesz mean on the right reads each q_k once for the sums, not once per
    # (row, column) pair; the sums read q_at on r, and v_at is the class's
    calls = []
    r = RieszWeights(Seq(lambda k: F(1, k + 1)))
    q_at = r.q_at

    def counted(k):
        calls.append(k)
        return q_at(k)

    monkeypatch.setattr(r, "q_at", counted)
    n_size = 64
    truncate(compose(cesaro(), riesz(r)), n_size)
    assert 0 < len(calls) <= n_size + 1


@pytest.mark.parametrize("name", ["2^k", "1/(k+1)", "k+1"])
def test_the_riesz_pair_sums_are_the_reciprocals_of_the_fraction_sums_at_depth(name):
    # u_at sums q as reduced pairs; big_q, the Fraction running sum, is its oracle
    r = RieszWeights(Seq(RIESZ_Q[name]))
    assert all(r.u_at(n) * r.big_q(n) == 1 for n in range(2048))


def test_riesz_rejects_nonpositive_weight():
    bad = riesz(RieszWeights(Seq(lambda k: F(k))))
    with pytest.raises(InvalidWeightsError):
        bad.entry(0, 0)


def test_phi_closed_form_agrees_with_composition():
    composed = phi()
    closed = phi_closed_form()
    assert composed.entry(3, 1) == F(-1, 12)
    for n in range(24):
        for k in range(n + 1):
            assert composed.entry(n, k) == closed.entry(n, k)


def test_gamma_closed_form_agrees_with_composition():
    w = harmonic_pair()
    composed = gamma(w)
    closed = gamma_closed_form(w)
    for n in range(24):
        for k in range(n + 1):
            assert composed.entry(n, k) == closed.entry(n, k)


def test_sigma_closed_form_agrees_with_composition():
    r = geometric_riesz()
    composed = sigma_riesz(r)
    closed = sigma_closed_form(r)
    assert composed.entry(3, 3) == r.q_at(3) / r.big_q(3)
    for n in range(24):
        for k in range(n + 1):
            assert composed.entry(n, k) == closed.entry(n, k)


def test_basis_column_phi():
    col = basis_column(phi(), 2)
    assert [col(n) for n in range(1, 4)] == [F(0), F(3), F(1)]
    assert apply(phi(), basis_column(phi(), 3), 6) == [
        F(0), F(0), F(0), F(1), F(0), F(0),
    ]


def test_basis_column_delta_is_step():
    col = basis_column(delta(), 4)
    for n in range(12):
        assert col(n) == (0 if n < 4 else 1)


def test_riesz_basis_degeneracy():
    r = geometric_riesz()
    inv = invert(sigma_riesz(r))
    for n in range(12):
        for k in range(n + 1):
            if n == k:
                assert inv.entry(n, k) == r.big_q(k) / r.q_at(k)
            else:
                assert inv.entry(n, k) == 1


def test_basis_property_all_domains():
    domains = [phi(), gamma(harmonic_pair()), sigma_riesz(geometric_riesz())]
    for t in domains:
        for k in range(6):
            got = apply(t, basis_column(t, k), 12)
            assert got == [F(1) if i == k else F(0) for i in range(12)]


# each record, its fields in order, and the defaults of its trailing fields
_RECORDS = {
    "WeightPair": (WeightPair, "u v", {}),
    "Domain": (Domain, "label matrix weights", {"weights": None}),
    "DualReport": (DualReport, "kind n conditions verdict cross_check", {"cross_check": None}),
    "ClassReport": (
        ClassReport,
        "direction domain_label space n row_dual_checks transformed_condition verdict",
        {},
    ),
    "MembershipReport": (
        MembershipReport,
        "space n checkpoints growth_ratio verdict aux_checkpoints",
        {"aux_checkpoints": None},
    ),
    "CheckResult": (CheckResult, "name passed counterexample", {"counterexample": None}),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_build_by_position_and_keyword_compare_by_field_and_are_immutable(name):
    record, fields, defaults = _RECORDS[name]
    fields = fields.split()
    values = [[i] for i in range(len(fields))]
    built = record(*values)
    assert [getattr(built, f) for f in fields] == values
    assert record(**dict(zip(fields, values))) == built
    # equal fields, not the same objects, compare equal; one changed field does not
    assert record(*map(list, values)) == built
    for i in range(len(fields)):
        assert record(*values[:i], ["other"], *values[i + 1 :]) != built
    required = record(*values[: len(fields) - len(defaults)])
    assert {f: getattr(required, f) for f in defaults} == defaults
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(built, f, ["other"])
    assert [getattr(built, f) for f in fields] == values


def test_riesz_weights_build_by_position_and_keyword():
    q = Seq(lambda k: F(k + 1))
    for r in (RieszWeights(q), RieszWeights(q=q)):
        assert r.q is q
        assert [r.q_at(k) for k in range(3)] == [r.v_at(k) for k in range(3)] == [1, 2, 3]
        assert [r.big_q(n) for n in range(3)] == [1, 3, 6]
        assert [r.u_at(n) for n in range(3)] == [1, F(1, 3), F(1, 6)]
