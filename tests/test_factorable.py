"""The factor path of compose: a triangle declaring factors (u, v) is
multiplied through suffix sums of the left factor's rows, checked bit-exactly
against the dense product of truncations."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdomains import builders, cli
from bvdomains.core import (
    BandedMatrix,
    InvalidWeightsError,
    Seq,
    Triangle,
    compose,
    dense_mul,
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
}
_LEFT_ONLY = {
    "phi": builders.phi,
    "gamma": lambda: builders.gamma(_weighted("geometric")),
    "sigma": lambda: builders.sigma_riesz(_riesz("2^k")),
    # rows 2 and 3 reach past the diagonal, rows 1 and 3 end in zeros, and
    # rows from 5 on are zero
    "banded": lambda: BandedMatrix.from_rows(
        [["1", "-2"], ["0", "1/3", "0"], ["5", "0", "0", "-1"], ["0", "0", "2", "0", "0"], ["0"]]
    ),
    "strictly_lower": lambda: Triangle(lambda n, k: F(0) if k == n else F(n - k, n + 1)),
}


def _product_is_dense_product(a, b, size=N):
    assert truncate(compose(a, b), size) == dense_mul(truncate(a, size), truncate(b, size))


@pytest.mark.parametrize("left", sorted({**_NAMED, **_LEFT_ONLY}))
def test_compose_equals_the_dense_product(left):
    for right, build in _NAMED.items():
        a, b = {**_NAMED, **_LEFT_ONLY}[left](), build()
        _product_is_dense_product(a, b)


def test_named_means_declare_their_factors():
    factorable = {"sum", "cesaro"} | {m for m in _NAMED if m.startswith(("weighted", "riesz"))}
    for name, build in _NAMED.items():
        t = build()
        assert (t.factors is not None) == (name in factorable), name
        if t.factors is not None:
            u, v = t.factors
            assert all(t.entry(n, k) == u(n) * v(k) for n in range(8) for k in range(n + 1))
    assert all(build().factors is None for build in _LEFT_ONLY.values())


_POSITIVE = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_POSITIVE, min_size=1, max_size=4),
    st.lists(_POSITIVE, min_size=1, max_size=4),
    st.lists(_POSITIVE, min_size=1, max_size=4),
    st.sampled_from(("delta", "cesaro", "weighted", "riesz", "banded")),
)
def test_factor_path_property(us, vs, qs, left):
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
    for b in (builders.weighted_mean(w), builders.riesz(r)):
        _product_is_dense_product(a, b, 10)


def _counted_reads(m):
    reads = []
    entry = m.entry

    def counted(n, k):
        reads.append((n, k))
        return entry(n, k)

    m.entry = counted
    return reads


def test_product_of_two_full_triangles_reads_quadratically_many_entries():
    size = 64
    a, b = builders.cesaro(), builders.sigma_sum()
    a_reads, b_reads = _counted_reads(a), _counted_reads(b)
    assert truncate(compose(a, b), size) == truncate(
        BandedMatrix(lambda n, k: F(n - k + 1, n + 1)), size
    )
    assert len(a_reads) <= size * (size + 1) // 2
    assert not b_reads


def _without_factors(build):
    def plain(*args):
        t = build(*args)
        t.factors = None
        return t

    return plain


_ONES = {"kind": "const", "c": "1"}
_INVALID = {
    "zero u": {"kind": "weighted", "u": {"prefix": ["1", "1/2", "1/3", "0"], "tail": _ONES}, "v": "e"},
    "zero v": {"kind": "weighted", "u": "e", "v": {"prefix": ["2", "3", "0"], "tail": _ONES}},
    "non-positive q": {"kind": "riesz", "q": {"prefix": ["1", "2", "3", "4", "-1"], "tail": _ONES}},
}


def _outcome(fn):
    """fn's value, or the name and index of the invalid weight it reports."""
    try:
        return fn()
    except InvalidWeightsError as exc:
        return exc.name, exc.index


@pytest.mark.parametrize("case", sorted(_INVALID))
def test_invalid_weights_are_reported_as_without_factors(case):
    spec = json.dumps(_INVALID[case])
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
        factored, _ = cli.parse_matrix_spec(spec)
        plain, _ = cli.parse_matrix_spec(spec)
        plain.factors = None
        assert factored.factors is not None
        got = _outcome(lambda: truncate(compose(left(), factored), 16))
        assert got == _outcome(lambda: truncate(compose(left(), plain), 16))
        raised += isinstance(got, tuple)
    assert raised == 3


@pytest.mark.parametrize("case", sorted(_INVALID))
def test_invalid_weights_exit_3_as_without_factors(case, monkeypatch, capsys):
    spec = _INVALID[case]
    argv = ["matrix", "--spec", json.dumps({"kind": "compose", "of": [{"kind": "cesaro"}, spec]})]
    assert cli.main(argv) == 3
    factored = capsys.readouterr()
    name = {"weighted": "weighted_mean", "riesz": "riesz"}[spec["kind"]]
    monkeypatch.setattr(builders, name, _without_factors(getattr(builders, name)))
    assert cli.main(argv) == 3
    plain = capsys.readouterr()
    assert factored.out == plain.out == ""
    assert factored.err == plain.err
    assert factored.err.startswith("mathematical error: invalid weight ")
