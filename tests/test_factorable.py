"""The structured paths: a triangle declaring a structure (terms (U, V)
plus a diagonal excess) is multiplied through per-term suffix sums of the
left factor's rows, checked bit-exactly against the dense product of
truncations, and transforms a sequence through per-term running sums,
checked bit-exactly against the entry loop.  The structured triangles are
the means (one term), the domain matrices phi, gamma and sigma and their
inverses (one term and an excess), the products that declare a structure
(a bidiagonal factor times an excess-free one, and any two structured
triangles) and the dual matrices, and the declared structures are checked
against the entries they describe."""

import json
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdomains import builders, cli, duals, matclass, spaces
from bvdomains.core import (
    BandedMatrix,
    InvalidWeightsError,
    Seq,
    Triangle,
    _coordinate,
    apply,
    compose,
    dense_mul,
    invert,
    transform_seq,
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


_DOMAINS = {
    "C": builders.cesaro_domain,
    "G": lambda: builders.weighted_domain(_weighted("alternating")),
    "R": lambda: builders.riesz_domain(_riesz("k+1")),
}


def _dual(kind, label):
    """The alpha or beta matrix of a domain, or the closed-form beta matrix
    of its weights, for a fixed alternating sequence a."""
    dom, a = _DOMAINS[label](), Seq(lambda k: F((-1) ** k, k + 2))
    if kind == "closed_form_beta":
        return duals.closed_form_beta_matrix(dom.weights, a)
    return {"alpha": duals.alpha_assoc, "beta": duals.beta_assoc}[kind](dom.matrix, a)


_DUALS = {
    f"{kind}[{label}]": (lambda kind=kind, label=label: _dual(kind, label))
    for kind in ("alpha", "beta", "closed_form_beta")
    for label in _DOMAINS
    if kind != "closed_form_beta" or label != "C"
}


def _compose_named(*names):
    """The product of the named triangles, nested to the right."""
    *lefts, last = names
    product = _NAMED[last]()
    for name in reversed(lefts):
        product = compose(_NAMED[name](), product)
    return product


# products of two structured triangles, which declare a structure of their
# own: every combination of excess on the left and on the right, terms with
# and without all-ones sequences, and one nest of three factors
_PRODUCTS = {
    ".".join(names): (lambda names=names: _compose_named(*names))
    for names in (
        ("sum", "sum"),
        ("cesaro", "cesaro"),
        ("weighted[geometric]", "riesz[2^k]"),
        ("riesz[1/(k+1)]", "weighted[alternating]"),
        ("phi", "cesaro"),
        ("sum", "inverse(phi)"),
        ("gamma", "inverse(sigma)"),
        ("inverse(gamma)", "sigma"),
        ("phi", "cesaro", "inverse(sigma)"),
    )
}


def _product_is_dense_product(a, b, size=N):
    assert truncate(compose(a, b), size) == dense_mul(truncate(a, size), truncate(b, size))


@pytest.mark.parametrize("left", sorted({**_NAMED, **_LEFT_ONLY}))
def test_compose_equals_the_dense_product(left):
    for right, build in {**_NAMED, **_PRODUCTS}.items():
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
    for build in _DUALS.values():
        _assert_structure_reproduces_entries(build())


# the named triangles without a structure are the bidiagonal ones; the
# structured ones without an excess are the means and the sum matrix
_BIDIAGONAL = {"delta", "cesaro_inv"}
_EXCESS_FREE = {"sum", "cesaro"} | {m for m in _NAMED if m.startswith(("weighted", "riesz"))}


def test_products_declare_a_structure_only_where_it_holds():
    # a product declares one when its right factor does, and its left factor
    # either declares one too or is bidiagonal while the right factor has
    # no excess; a product of two structures has as many terms as both
    structured = set(_NAMED) - _BIDIAGONAL
    for left, build_left in {**_NAMED, **_LEFT_ONLY}.items():
        for right, build_right in _NAMED.items():
            a, b = build_left(), build_right()
            product = compose(a, b)
            declared = right in structured and (
                left in structured or (left in _BIDIAGONAL and right in _EXCESS_FREE)
            )
            assert (product.structure is not None) == declared, (left, right)
            if declared:
                _assert_structure_reproduces_entries(product, 12)
            if left in structured and declared:
                assert len(product.structure[0]) == len(a.structure[0]) + len(b.structure[0])


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
    # cesaro . (cesaro . cesaro) read 97,696 entries at N=64 while a product
    # of two structured triangles declared no structure
    [("cesaro", "sum"), ("cesaro", "phi"), ("phi", "inverse(phi)"), ("cesaro", "cesaro.cesaro")],
)
def test_product_of_two_full_triangles_reads_quadratically_many_entries(left, right):
    size = 64
    build = {**_NAMED, **_PRODUCTS}
    a, b = build[left](), build[right]()
    a_reads, b_reads = _counted_reads(a), _counted_reads(b)
    assert truncate(compose(a, b), size) == dense_mul(
        truncate(build[left](), size), truncate(build[right](), size)
    )
    assert len(a_reads) <= size * (size + 1) // 2
    assert not b_reads


# every structure the package declares: the means, the domain matrices and
# their inverses, the products of a bidiagonal factor and an excess-free one,
# products of two structured triangles, and the dual matrices
_STRUCTURED = {
    **{name: build for name, build in _NAMED.items() if name not in _BIDIAGONAL},
    **{
        f"{left}.{right}": (lambda left=left, right=right: compose(_NAMED[left](), _NAMED[right]()))
        for left in sorted(_BIDIAGONAL)
        for right in sorted(_EXCESS_FREE)
    },
    **_PRODUCTS,
    **_DUALS,
}
_XS = {
    "finite": lambda: Seq.from_values(["3", "-1/2", "0", "2/7", "5"]),
    "harmonic": lambda: Seq(lambda k: F(1, k + 1)),
    "alternating_geometric": lambda: Seq(lambda k: F(-1, 2) ** k),
    "unit(0)": lambda: Seq.unit(0),
    "unit(7)": lambda: Seq.unit(7),
}


def _entry_loop(m, x, size):
    return [_coordinate(m, x, n) for n in range(size)]


@pytest.mark.parametrize("name", sorted(_STRUCTURED))
def test_structured_transform_equals_the_entry_loop(name):
    for x_name, build_x in _XS.items():
        m, x = _STRUCTURED[name](), build_x()
        assert m.structure is not None
        reads = _counted_reads(m)
        got = apply(m, x, N)
        # the lazy transform read from its far end first
        lazy = transform_seq(m, x)
        assert [lazy(n) for n in reversed(range(N))][::-1] == got, x_name
        assert not reads, x_name
        assert got == _entry_loop(m, x, N), x_name


def test_a_matrix_without_structure_takes_the_entry_loop():
    plain = builders.cesaro()
    plain.structure = None
    for m in (builders.delta(), builders.cesaro_inverse(), plain):
        reads = _counted_reads(m)
        assert apply(m, Seq.constant(1), 8) == _entry_loop(m, Seq.constant(1), 8)
        assert reads


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_POSITIVE, min_size=1, max_size=4),
    st.lists(_POSITIVE, min_size=1, max_size=4),
    st.lists(_POSITIVE, min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=1, max_size=6),
    st.booleans(),
    st.sampled_from(("weighted", "riesz", "gamma", "sigma", "inverse(gamma)", "inverse(sigma)")),
)
def test_structured_transform_property(us, vs, qs, xs, finite, shape):
    periodic = lambda values: Seq(lambda k: values[k % len(values)])
    w = builders.WeightPair(periodic(us), periodic(vs))
    r = builders.RieszWeights(periodic(qs))
    m = {
        "weighted": lambda: builders.weighted_mean(w),
        "riesz": lambda: builders.riesz(r),
        "gamma": lambda: builders.gamma(w),
        "sigma": lambda: builders.sigma_riesz(r),
        "inverse(gamma)": lambda: invert(builders.gamma(w)),
        "inverse(sigma)": lambda: invert(builders.sigma_riesz(r)),
    }[shape]()
    x = Seq.from_values(xs) if finite else periodic(xs)
    assert apply(m, x, 12) == _entry_loop(m, x, 12)


def _counting(f, calls, key):
    """f with its calls counted under key; None stays None."""
    if f is None:
        return None

    def counted(j):
        calls[key] += 1
        return f(j)

    return counted


@pytest.mark.parametrize("name", sorted(_STRUCTURED))
def test_structured_transform_reads_no_entry_and_each_closure_linearly(name):
    size = 64
    for run in (lambda m, x: apply(m, x, size), lambda m, x: list(map(transform_seq(m, x), range(size)))):
        m, calls = _STRUCTURED[name](), Counter()
        terms, excess = m.structure
        m.structure = (
            [(_counting(u, calls, ("U", i)), _counting(v, calls, ("V", i))) for i, (u, v) in enumerate(terms)],
            _counting(excess, calls, "excess"),
        )
        evals, entry = [], m._entry
        m._entry = lambda n, k: evals.append((n, k)) or entry(n, k)
        reads = _counted_reads(m)
        run(m, Seq(_counting(lambda k: F(1, k + 1), calls, "x")))
        assert not reads and not evals
        assert calls["x"] == size
        assert max(calls.values()) <= size + 1, calls


_ONES = {"kind": "const", "c": "1"}
_INVALID = {
    "zero u": {"kind": "weighted", "u": {"prefix": ["1", "1/2", "1/3", "0"], "tail": _ONES}, "v": "e"},
    "zero v": {"kind": "weighted", "u": "e", "v": {"prefix": ["2", "3", "0"], "tail": _ONES}},
    "non-positive q": {"kind": "riesz", "q": {"prefix": ["1", "2", "3", "4", "-1"], "tail": _ONES}},
    # u is read before v at each index, so u[2] is the one reported
    "zero u and v": {
        "kind": "weighted",
        "u": {"prefix": ["1", "1/2", "0"], "tail": _ONES},
        "v": {"prefix": ["2", "3", "0"], "tail": _ONES},
    },
}
_RIGHT_SHAPES = ("mean", "domain", "inverse_of(domain)", "mean.mean", "domain.inverse_of(domain)")
# a sequence whose zero terms make rows of the alpha matrix 0 at and before
# the invalid indices
_ZERO_TERMS = ["1", "-2", "0", "5"]
# the B whose F = domain . B declares a structure
_F_DECLARES_STRUCTURE = (builders.sigma_sum, builders.cesaro)


def _right_spec(case, shape):
    """The invalid weights of case as a mean, as its domain matrix (gamma or
    sigma_riesz), as the domain matrix's inverse, or as a product of two of
    these (shapes joined by a dot)."""
    spec = _INVALID[case]
    if "." in shape:
        return {"kind": "compose", "of": [_right_spec(case, part) for part in shape.split(".")]}
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


def _domain_spec(case):
    """The invalid weights of case as a G or R domain spec."""
    spec = dict(_INVALID[case])
    return json.dumps({"label": {"weighted": "G", "riesz": "R"}[spec.pop("kind")], **spec})


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
    # the transform, and the domain membership over the tail windows of c,
    # whose first coordinate read is 2
    x = Seq.constant(1)
    for run in (
        lambda m: apply(m, x, 16),
        lambda m: spaces.domain_membership(x, m, spaces.SpaceId.C, 16),
    ):
        structured, _ = cli.parse_matrix_spec(spec)
        plain, _ = cli.parse_matrix_spec(spec)
        plain.structure = None
        got = _outcome(lambda: run(structured))
        assert isinstance(got, tuple)
        assert got == _outcome(lambda: run(plain))
    if shape != "domain":
        return
    # the statistics of the dual matrices over the domain and of F = domain
    # . B for the B whose F declares a structure, from their structure and
    # scanned from their entries; a = _ZERO_TERMS has a zero term before and
    # at the invalid index, where the alpha matrix's row is 0 but its
    # entries read the domain inverse's weights as its structure does
    builds = [
        (kind, lambda m, a, kind=kind: (duals.alpha_assoc if kind == "alpha" else duals.beta_assoc)(m, a))
        for kind in duals.DUAL_KINDS
    ]
    builds += [("alpha", lambda m, a, b=b: matclass.left_transform_F(b(), m)) for b in _F_DECLARES_STRUCTURE]
    for kind, build in builds:
        for a in (x, Seq.from_values(_ZERO_TERMS)):
            structured = build(cli.parse_domain_spec(_domain_spec(case))[0].matrix, a)
            plain = build(cli.parse_domain_spec(_domain_spec(case))[0].matrix, a)
            plain.structure = None
            assert duals._generators(structured, 1) is not None
            got = _outcome(lambda: duals.condition_stats(kind, structured, 16))
            assert isinstance(got, tuple)
            assert got == _outcome(lambda: duals.condition_stats(kind, plain, 16))


@pytest.mark.parametrize("shape", _RIGHT_SHAPES)
@pytest.mark.parametrize("case", sorted(_INVALID))
def test_invalid_weights_exit_3_as_without_structure(case, shape, monkeypatch, capsys):
    spec = json.dumps(_right_spec(case, shape))
    product = json.dumps({"kind": "compose", "of": [{"kind": "cesaro"}, _right_spec(case, shape)]})
    commands = [
        ["matrix", "--spec", product],
        ["transform", "--matrix", spec, "--x", "e", "--n", "16"],
        ["membership", "--x", "e", "--space", "c", "--domain", spec, "--n", "16"],
    ]
    if shape == "domain":
        commands += [
            ["dual", "--a", a, "--domain", _domain_spec(case), "--kind", kind, "--n", "16"]
            for kind in duals.DUAL_KINDS
            for a in ("e", json.dumps({"prefix": _ZERO_TERMS}))
        ]
        commands += [
            ["matclass", "--direction", "into_domain", "--matrix", b, "--domain", _domain_spec(case),
             "--y", "l1", "--n", "16"]
            for b in ("sum", "cesaro")
        ]
    structured = []
    for argv in commands:
        assert cli.main(argv) == 3
        structured.append(capsys.readouterr())

    def compose_without_structure(a, b):
        b.structure = None
        return compose(a, b)

    def parse_without_structure(text):
        matrix, resolved = parse_matrix_spec(text)
        matrix.structure = None
        return matrix, resolved

    def without_structure(build):
        def build_without_structure(*args):
            m = build(*args)
            m.structure = None
            return m

        return build_without_structure

    parse_matrix_spec = cli.parse_matrix_spec
    monkeypatch.setattr(cli, "compose", compose_without_structure)
    monkeypatch.setattr(cli, "parse_matrix_spec", parse_without_structure)
    for name in ("alpha_assoc", "beta_assoc"):
        monkeypatch.setattr(duals, name, without_structure(getattr(duals, name)))
    monkeypatch.setattr(matclass, "left_transform_F", without_structure(matclass.left_transform_F))
    for argv, got in zip(commands, structured):
        assert cli.main(argv) == 3
        plain = capsys.readouterr()
        assert got.out == plain.out == ""
        assert got.err == plain.err
        assert got.err.startswith("mathematical error: invalid weight ")


# The stderr line each command gave before F = domain . B was read from its
# structure, and before the alpha matrix's entries read the domain inverse
# where a has a zero term
_FIRST_INVALID = {
    "zero u": ("u[3] = 0", "u[3] = 0"),
    "zero v": ("v[2] = 0", "v[2] = 0"),
    "non-positive q": ("q[4] = -1", "q[4] = -1"),
    "zero u and v": ("u[2] = 0", "v[2] = 0"),
}


@pytest.mark.parametrize("case", sorted(_INVALID))
def test_into_domain_and_zero_term_alpha_name_the_recorded_weight(case, capsys):
    into, alpha = _FIRST_INVALID[case]
    requirement = "must be positive" if case == "non-positive q" else "must be nonzero"
    commands = [
        (["matclass", "--direction", "into_domain", "--matrix", b, "--domain", _domain_spec(case), "--y", "l1"], into)
        for b in ("sum", "cesaro")
    ]
    commands.append(
        (["dual", "--a", json.dumps({"prefix": _ZERO_TERMS}), "--domain", _domain_spec(case), "--kind", "alpha"], alpha)
    )
    for argv, weight in commands:
        assert cli.main(argv + ["--n", "16"]) == 3
        got = capsys.readouterr()
        assert (got.out, got.err) == ("", f"mathematical error: invalid weight {weight}: {requirement}\n")
