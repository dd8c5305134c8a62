"""The structured path of compose: a triangle declaring a structure (terms
(U, V) plus a diagonal excess) is multiplied through per-term suffix sums of
the left factor's rows, checked bit-exactly against the dense product of
truncations.  The right factors are the means (one term), the domain matrices
phi, gamma and sigma and their inverses (one term and an excess), and the
declared structures are checked against the entries they describe."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdomains import builders, cli, duals
from bvdomains.core import (
    BandedMatrix,
    InvalidWeightsError,
    Seq,
    Triangle,
    compose,
    dense_mul,
    invert,
    truncate,
)

N = 24

_WEIGHT_PAIRS = {
    "harmonic": (lambda n: F(1, n + 1), lambda k: F(1)),
    "geometric": (lambda n: F(1, 2**n), lambda k: F(3**k, 2**k)),
    "alternating": (lambda n: F((-1) ** n, n + 2), lambda k: F(k + 1)),
}
_RIESZ_Q = {
    "1": lambda k: F(1),
    "1/(k+1)": lambda k: F(1, k + 1),
    "k+1": lambda k: F(k + 1),
    "2^k": lambda k: F(2**k),
}


def _weighted(name):
    u, v = _WEIGHT_PAIRS[name]
    return builders.WeightPair(Seq(u), Seq(v))


def _riesz(name):
    return builders.RieszWeights(Seq(_RIESZ_Q[name]))


_NAMED = {
    "delta": builders.delta,
    "sum": builders.sigma_sum,
    "cesaro": builders.cesaro,
    "cesaro_inv": builders.cesaro_inverse,
    **{f"weighted[{w}]": (lambda w=w: builders.weighted_mean(_weighted(w))) for w in _WEIGHT_PAIRS},
    **{f"riesz[{q}]": (lambda q=q: builders.riesz(_riesz(q))) for q in _RIESZ_Q},
    "phi": builders.phi,
    "gamma": lambda: builders.gamma(_weighted("geometric")),
    "sigma": lambda: builders.sigma_riesz(_riesz("2^k")),
    "inverse(phi)": lambda: invert(builders.phi()),
    "inverse(gamma)": lambda: invert(builders.gamma(_weighted("alternating"))),
    "inverse(sigma)": lambda: invert(builders.sigma_riesz(_riesz("1/(k+1)"))),
}
_LEFT_ONLY = {
    # rows 2 and 3 reach past the diagonal, rows 1 and 3 end in zeros, and
    # rows from 5 on are zero
    "banded": lambda: BandedMatrix.from_rows(
        [["1", "-2"], ["0", "1/3", "0"], ["5", "0", "0", "-1"], ["0", "0", "2", "0", "0"], ["0"]]
    ),
    "strictly_lower": lambda: Triangle(lambda n, k: F(0) if k == n else F(n - k, n + 1)),
    # band 2, so a product with it on the left declares no structure
    "delta^2": lambda: compose(builders.delta(), builders.delta()),
}


def _product_is_dense_product(a, b, size=N):
    assert truncate(compose(a, b), size) == dense_mul(truncate(a, size), truncate(b, size))


@pytest.mark.parametrize("left", sorted({**_NAMED, **_LEFT_ONLY}))
def test_compose_equals_the_dense_product(left):
    for right, build in _NAMED.items():
        a, b = {**_NAMED, **_LEFT_ONLY}[left](), build()
        _product_is_dense_product(a, b)


def _structure_entry(t, n, k):
    """Entry (n, k) of a lower triangle as its structure states it."""
    if k > n:
        return F(0)
    terms, excess = t.structure
    at = lambda f, j: F(1) if f is None else f(j)
    value = sum((at(u, n) * at(v, k) for u, v in terms), F(0))
    return value + excess(n) if excess is not None and k == n else value


def _assert_structure_reproduces_entries(t, size=N):
    assert truncate(t, size) == truncate(BandedMatrix(lambda n, k: _structure_entry(t, n, k)), size)


def test_declared_structures_reproduce_the_entries():
    for name, build in _NAMED.items():
        t = build()
        assert (t.structure is None) == (name in ("delta", "cesaro_inv")), name
        if t.structure is not None:
            _assert_structure_reproduces_entries(t)
    assert all(build().structure is None for build in _LEFT_ONLY.values())
    # the dual matrices derive theirs from the domain inverse's, and the
    # cross-check matrix from the weights
    a = Seq(lambda k: F((-1) ** k, k + 2))
    for w, domain in ((_weighted("alternating"), builders.weighted_domain), (_riesz("k+1"), builders.riesz_domain)):
        dom = domain(w)
        for m in (duals.alpha_assoc(dom.matrix, a), duals.beta_assoc(dom.matrix, a)):
            _assert_structure_reproduces_entries(m)
        _assert_structure_reproduces_entries(duals.closed_form_beta_matrix(w, a))


def test_products_declare_a_structure_only_where_it_holds():
    # a bidiagonal left factor and a right factor with a structure and no
    # excess: delta and the Cesaro inverse times a mean or the sum matrix
    bidiagonal = {"delta", "cesaro_inv"}
    excess_free = {"sum", "cesaro"} | {m for m in _NAMED if m.startswith(("weighted", "riesz"))}
    for left, build_left in {**_NAMED, **_LEFT_ONLY}.items():
        for right, build_right in _NAMED.items():
            product = compose(build_left(), build_right())
            declared = left in bidiagonal and right in excess_free
            assert (product.structure is not None) == declared, (left, right)
            if declared:
                _assert_structure_reproduces_entries(product, 12)


_POSITIVE = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_POSITIVE, min_size=1, max_size=4),
    st.lists(_POSITIVE, min_size=1, max_size=4),
    st.lists(_POSITIVE, min_size=1, max_size=4),
    st.sampled_from(("delta", "cesaro", "weighted", "riesz", "banded")),
)
def test_structured_path_property(us, vs, qs, left):
    periodic = lambda values: Seq(lambda k: values[k % len(values)])
    w = builders.WeightPair(periodic(us), periodic(vs))
    r = builders.RieszWeights(periodic(qs))
    a = {
        "delta": builders.delta,
        "cesaro": builders.cesaro,
        "weighted": lambda: builders.weighted_mean(w),
        "riesz": lambda: builders.riesz(r),
        "banded": _LEFT_ONLY["banded"],
    }[left]()
    for b in (builders.weighted_mean(w), builders.riesz(r), builders.gamma(w), builders.sigma_riesz(r)):
        _product_is_dense_product(a, b, 10)
        _product_is_dense_product(a, invert(b), 10)


def _counted_reads(m):
    reads = []
    entry = m.entry

    def counted(n, k):
        reads.append((n, k))
        return entry(n, k)

    m.entry = counted
    return reads


@pytest.mark.parametrize(
    "left, right",
    [("cesaro", "sum"), ("cesaro", "phi"), ("phi", "inverse(phi)")],
)
def test_product_of_two_full_triangles_reads_quadratically_many_entries(left, right):
    size = 64
    a, b = _NAMED[left](), _NAMED[right]()
    a_reads, b_reads = _counted_reads(a), _counted_reads(b)
    assert truncate(compose(a, b), size) == dense_mul(
        truncate(_NAMED[left](), size), truncate(_NAMED[right](), size)
    )
    assert len(a_reads) <= size * (size + 1) // 2
    assert not b_reads


_ONES = {"kind": "const", "c": "1"}
_INVALID = {
    "zero u": {"kind": "weighted", "u": {"prefix": ["1", "1/2", "1/3", "0"], "tail": _ONES}, "v": "e"},
    "zero v": {"kind": "weighted", "u": "e", "v": {"prefix": ["2", "3", "0"], "tail": _ONES}},
    "non-positive q": {"kind": "riesz", "q": {"prefix": ["1", "2", "3", "4", "-1"], "tail": _ONES}},
}
_RIGHT_SHAPES = ("mean", "domain", "inverse_of(domain)")


def _right_spec(case, shape):
    """The invalid weights of case as a mean, as its domain matrix (gamma or
    sigma_riesz) or as the domain matrix's inverse."""
    spec = _INVALID[case]
    if shape == "mean":
        return spec
    domain = {**spec, "kind": {"weighted": "gamma", "riesz": "sigma_riesz"}[spec["kind"]]}
    return domain if shape == "domain" else {"kind": "inverse_of", "of": domain}


def _outcome(fn):
    """fn's value, or the name and index of the invalid weight it reports."""
    try:
        return fn()
    except InvalidWeightsError as exc:
        return exc.name, exc.index


@pytest.mark.parametrize("shape", _RIGHT_SHAPES)
@pytest.mark.parametrize("case", sorted(_INVALID))
def test_invalid_weights_are_reported_as_without_structure(case, shape):
    spec = json.dumps(_right_spec(case, shape))
    # the banded rows end in zeros before and after the invalid index, where
    # the band-overlap sum reads no weight
    lefts = (
        builders.delta,
        builders.cesaro,
        builders.sigma_sum,
        lambda: BandedMatrix.from_rows([["1", "0", "0", "0", "0", "0", "0", "0"], ["0", "1"]]),
    )
    raised = 0
    for left in lefts:
        structured, _ = cli.parse_matrix_spec(spec)
        plain, _ = cli.parse_matrix_spec(spec)
        plain.structure = None
        assert structured.structure is not None
        got = _outcome(lambda: truncate(compose(left(), structured), 16))
        assert got == _outcome(lambda: truncate(compose(left(), plain), 16))
        raised += isinstance(got, tuple)
    assert raised == 3


@pytest.mark.parametrize("shape", _RIGHT_SHAPES)
@pytest.mark.parametrize("case", sorted(_INVALID))
def test_invalid_weights_exit_3_as_without_structure(case, shape, monkeypatch, capsys):
    spec = {"kind": "compose", "of": [{"kind": "cesaro"}, _right_spec(case, shape)]}
    argv = ["matrix", "--spec", json.dumps(spec)]
    assert cli.main(argv) == 3
    structured = capsys.readouterr()

    def compose_without_structure(a, b):
        b.structure = None
        return compose(a, b)

    monkeypatch.setattr(cli, "compose", compose_without_structure)
    assert cli.main(argv) == 3
    plain = capsys.readouterr()
    assert structured.out == plain.out == ""
    assert structured.err == plain.err
    assert structured.err.startswith("mathematical error: invalid weight ")
