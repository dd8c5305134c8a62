"""Derived inverses and band supports against the forward-substitution oracle.

``invert`` derives a mean's bidiagonal inverse from its one structure term
and inverts a product through its factors, so on the named triangles and
the domain matrices it never runs forward substitution.
``core._build_inverse`` stays the fallback and is the oracle every derived
inverse is compared with here, entry by entry.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdomains import core
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
    riesz,
    riesz_domain,
    sigma_riesz,
    sigma_sum,
    weighted_domain,
    weighted_mean,
)
from bvdomains.core import Seq, Triangle, compose, dense_mul, invert, truncate
from bvdomains.duals import DUAL_KINDS, dual_test
from bvdomains.matclass import BandedMatrix, class_test_from_domain
from bvdomains.spaces import SpaceId

N = 40


def harmonic_pair():
    return WeightPair(
        Seq(lambda n: F(1, n + 2)),
        Seq(lambda k: F(k + 1, 3)),
    )


def linear_riesz():
    return RieszWeights(Seq(lambda k: F(k + 1)))


def geometric_riesz():
    return RieszWeights(Seq(lambda k: F(2) ** k))


NAMED = {
    "delta": delta,
    "sum": sigma_sum,
    "cesaro": cesaro,
    "cesaro_inv": cesaro_inverse,
    "weighted": lambda: weighted_mean(harmonic_pair()),
    "riesz": lambda: riesz(linear_riesz()),
    "riesz_2^k": lambda: riesz(geometric_riesz()),
    "phi": phi,
    "gamma": lambda: gamma(harmonic_pair()),
    "sigma": lambda: sigma_riesz(linear_riesz()),
    "sigma_2^k": lambda: sigma_riesz(geometric_riesz()),
    "three_factor": lambda: compose(delta(), compose(cesaro(), riesz(geometric_riesz()))),
}


def assert_same_entries(got, expected, n):
    for row in range(n):
        for col in range(row + 1):
            assert got.entry(row, col) == expected.entry(row, col), (row, col)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_derived_inverse_matches_forward_substitution(name):
    t = NAMED[name]()
    inv = invert(t)
    assert_same_entries(inv, core._build_inverse(NAMED[name]()), N)
    assert invert(inv) is t


@pytest.mark.parametrize("name", ["cesaro", "gamma", "sigma_2^k", "three_factor"])
def test_double_inverse_matches_forward_substitution(name):
    oracle = core._build_inverse(core._build_inverse(NAMED[name]()))
    assert_same_entries(invert(invert(NAMED[name]())), oracle, N)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_product_of_inverses_inverts_through_its_factors(name, monkeypatch):
    # every named triangle derives its inverse, and the inverse of a product
    # of inverses is the product of the triangles, in the other order
    monkeypatch.setattr(core, "_build_inverse", _no_fallback)
    t = NAMED[name]()
    assert invert(invert(t)) is t
    back = invert(compose(invert(delta()), invert(NAMED[name]())))
    assert_same_entries(back, compose(NAMED[name](), delta()), 12)


# phi_closed_form declares no structure and records no factors, so it is
# the one kind of triangle here that forward substitution inverts
WITH_PHI_CLOSED_FORM = {
    "alone": phi_closed_form,
    "left": lambda: compose(phi_closed_form(), cesaro()),
    "right": lambda: compose(cesaro(), phi_closed_form()),
    "both": lambda: compose(phi_closed_form(), phi_closed_form()),
    "nested": lambda: compose(delta(), compose(cesaro(), phi_closed_form())),
}


def _unstructured_leaves(t):
    if t._factors is not None:
        return [leaf for f in t._factors for leaf in _unstructured_leaves(f)]
    return [t] if t.structure is None else []


@pytest.mark.parametrize("case", sorted(WITH_PHI_CLOSED_FORM))
def test_products_forward_substitute_only_their_unstructured_factors(case, monkeypatch):
    # a product inverts through its factors, so forward substitution runs
    # once on each factor that is neither a mean nor a product, and on no
    # product; the entries are those of the whole product's forward
    # substitution
    make = WITH_PHI_CLOSED_FORM[case]
    built = []

    def counted(t):
        built.append(t)
        return build_inverse(t)

    build_inverse = core._build_inverse
    monkeypatch.setattr(core, "_build_inverse", counted)
    t = make()
    inv = invert(t)
    leaves = _unstructured_leaves(t)
    assert leaves and sorted(map(id, built)) == sorted(map(id, leaves))
    assert_same_entries(inv, build_inverse(make()), 16)
    assert len(built) == len(leaves)  # reading the entries ran no more
    assert invert(inv) is t


def _singular_at(row):
    return lambda: Triangle(lambda n, k: F(0) if n == k == row else F(1, n - k + 1))


@pytest.mark.parametrize(
    "left, right",
    [
        (_singular_at(3), cesaro),
        (cesaro, _singular_at(3)),
        (_singular_at(3), _singular_at(5)),
        (_singular_at(5), _singular_at(3)),
        (_singular_at(3), _singular_at(3)),
    ],
)
def test_a_singular_factor_names_the_row_the_products_forward_substitution_does(left, right):
    with pytest.raises(core.SingularMatrixError) as oracle:
        truncate(core._build_inverse(compose(left(), right())), 8)
    p = compose(left(), right())
    with pytest.raises(core.SingularMatrixError) as got:
        truncate(invert(p), 8)
    assert got.value.row == oracle.value.row == 3
    assert invert(invert(p)) is p
    # read out of order, the inverse(right) . inverse(left) of a product
    # names the first zero diagonal of the factor inverse it reaches first,
    # inverse(right)'s row before inverse(left)'s: row 5 for s3 . s5
    reached = next(f() for f in (right, left) if any(f().entry(n, n) == 0 for n in range(7)))
    with pytest.raises(core.SingularMatrixError) as late:
        invert(compose(left(), right())).entry(6, 0)
    assert late.value.row == next(n for n in range(7) if reached.entry(n, n) == 0)


def _zero_at(*indices):
    return lambda n: F(0) if n in indices else F(n + 1, 2)


@pytest.mark.parametrize(
    "u, v",
    [
        (_zero_at(0), None),
        (_zero_at(2), None),
        (None, _zero_at(5)),
        (_zero_at(2), _zero_at(5)),
        (_zero_at(4), _zero_at(3)),
        (_zero_at(5), _zero_at()),
        (_zero_at(), _zero_at(5)),
    ],
    ids=["U(0)", "U(2)", "V(5)", "U(2),V(5)", "U(4),V(3)", "U(5),V", "U,V(5)"],
)
def test_a_singular_mean_inverse_names_the_row_forward_substitution_does(u, v):
    """The bidiagonal inverse of a mean with a zero weight product raises
    SingularMatrixError, read by truncate and by the entry scan, naming
    the row forward substitution names: the first zero diagonal U(m) V(m)."""
    at = lambda f, j: F(1) if f is None else f(j)
    mean = lambda: Triangle(lambda n, k: at(u, n) * at(v, k), structure=([(u, v)], []))
    with pytest.raises(core.SingularMatrixError) as oracle:
        truncate(core._build_inverse(mean()), 8)
    for read in (truncate, core._entry_scan):
        with pytest.raises(core.SingularMatrixError) as got:
            read(invert(mean()), 8)
        assert got.value.row == oracle.value.row


positive = st.fractions(min_value=F(1, 6), max_value=8, max_denominator=6)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(positive, min_size=1, max_size=4),
    st.lists(positive, min_size=1, max_size=4),
    st.lists(positive, min_size=1, max_size=4),
)
def test_derived_inverse_property_over_weights(us, vs, qs):
    def cycle(values):
        return Seq(lambda k: values[k % len(values)])

    n = 8
    for build in (
        lambda: weighted_mean(WeightPair(cycle(us), cycle(vs))),
        lambda: gamma(WeightPair(cycle(us), cycle(vs))),
        lambda: riesz(RieszWeights(cycle(qs))),
        lambda: sigma_riesz(RieszWeights(cycle(qs))),
    ):
        assert_same_entries(invert(build()), core._build_inverse(build()), n)


def _no_fallback(t):
    raise AssertionError("forward substitution ran")


def test_domain_duals_and_classes_never_fall_back(monkeypatch):
    monkeypatch.setattr(core, "_build_inverse", _no_fallback)
    domains = [
        cesaro_domain(),
        weighted_domain(harmonic_pair()),
        riesz_domain(geometric_riesz()),
    ]
    a = Seq(lambda k: F(1, (k + 1) ** 2))
    banded = BandedMatrix.from_rows([["1", "-1"], ["0", "1/2", "2"]])
    for domain in domains:
        for kind in DUAL_KINDS:
            assert dual_test(domain, a, kind, 32).verdict
        assert class_test_from_domain(banded, domain, SpaceId.L1, 32).verdict


def test_compose_reads_only_band_overlap():
    def bidiagonal():
        return Triangle(
            lambda n, k: F(n + 1) if n == k else F(-1, n + 1),
            structure=([], [lambda n: F(n + 1), lambda n: F(-1, n + 1)]),
        )

    def count_reads(t):
        reads = []
        entry = t.entry

        def counted(n, k):
            reads.append((n, k))
            return entry(n, k)

        t.entry = counted
        return reads

    a, b = bidiagonal(), bidiagonal()
    assert compose(a, b).band == 2
    # the generic product, of factors whose structures are removed and whose bands stay
    a.structure = b.structure = None
    product = compose(a, b)
    expected = dense_mul(truncate(a, 20), truncate(b, 20))
    a_reads, b_reads = count_reads(a), count_reads(b)
    for n in range(20):
        for k in range(n + 1):
            a_reads.clear()
            b_reads.clear()
            assert product.entry(n, k) == expected[n][k]
            assert len(a_reads) <= 2 and len(b_reads) <= 2, (n, k)


def test_band_short_circuits_the_closure():
    def entry(n, k):
        assert n - k <= 1, (n, k)
        return F(1)

    t = Triangle(entry, structure=([], [lambda n: F(1), lambda n: F(1)]))
    assert [t.entry(5, k) for k in range(7)] == [0, 0, 0, 0, 1, 1, 0]
