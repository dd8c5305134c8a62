"""The structured paths: a triangle declaring a structure (terms (U, V)
plus band parts on and below the diagonal) is multiplied through per-term
suffix sums of the left factor's rows, checked bit-exactly against the
dense product of truncations, and transforms a sequence through per-term
running sums, checked bit-exactly against the entry loop.  The structured
triangles are the bidiagonal ones (a band only), the means (one term), the
domain matrices phi, gamma and sigma and their inverses (one term and a
diagonal band part), the products of any two structured triangles, and the
dual matrices.  A band part is the whole cell it names and the terms give
the cells below the band, and the declared structures are checked against
the entries they describe."""

import contextlib
import hashlib
import io
import json
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvdomains import builders, cli, core, duals, matclass, spaces
from bvdomains.core import (
    BandedMatrix,
    InvalidWeightsError,
    Seq,
    Triangle,
    _INTEGERS,
    _coordinate,
    _entry_scan,
    _lists,
    apply,
    compose,
    dense_mul,
    diagonal,
    invert,
    transform_seq,
    truncate,
)
from test_cli import _VALID_BANDED, _VALID_DOMAINS, _VALID_MATRICES, _VALID_SEQS, _spec

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
    "inverse(weighted[harmonic])": lambda: invert(builders.weighted_mean(_weighted("harmonic"))),
    "inverse(riesz[k+1])": lambda: invert(builders.riesz(_riesz("k+1"))),
}
_LEFT_ONLY = {
    # rows 2 and 3 reach past the diagonal, rows 1 and 3 end in zeros, and
    # rows from 5 on are zero
    "banded": lambda: BandedMatrix.from_rows(
        [["1", "-2"], ["0", "1/3", "0"], ["5", "0", "0", "-1"], ["0", "0", "2", "0", "0"], ["0"]]
    ),
    "strictly_lower": lambda: Triangle(lambda n, k: F(0) if k == n else F(n - k, n + 1)),
    # band 2: a structure with no terms and three band parts
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
# own: every combination of a diagonal band part on the left and on the
# right, bands wider than the diagonal on either side, terms times a
# bidiagonal band (F = domain . delta among them), band-only products, terms
# with and without all-ones sequences, and one nest of three factors
_PRODUCTS = {
    ".".join(names): (lambda names=names: _compose_named(*names))
    for names in (
        ("delta", "cesaro_inv"),
        ("delta", "phi"),
        ("inverse(weighted[harmonic])", "inverse(sigma)"),
        ("sum", "sum"),
        ("cesaro", "cesaro"),
        ("weighted[geometric]", "riesz[2^k]"),
        ("riesz[1/(k+1)]", "weighted[alternating]"),
        ("phi", "cesaro"),
        ("sum", "inverse(phi)"),
        ("gamma", "inverse(sigma)"),
        ("inverse(gamma)", "sigma"),
        ("phi", "cesaro", "inverse(sigma)"),
        ("phi", "delta"),
        ("gamma", "cesaro_inv"),
        ("cesaro", "inverse(weighted[harmonic])"),
        ("phi", "inverse(weighted[harmonic])"),
    )
}


def _product_is_dense_product(a, b, size=N):
    expected = dense_mul(truncate(a, size), truncate(b, size))
    assert truncate(compose(a, b), size) == expected
    # compose's entries, which truncate does not read of a structured
    # product
    assert _entry_scan(compose(a, b), size) == expected


@pytest.mark.parametrize("left", sorted({**_NAMED, **_LEFT_ONLY}))
def test_compose_equals_the_dense_product(left):
    for right, build in {**_NAMED, **_PRODUCTS}.items():
        a, b = {**_NAMED, **_LEFT_ONLY}[left](), build()
        _product_is_dense_product(a, b)


# nests whose scan reads no product rule: every product on a right side is
# read through its factors, so its entries come from the leaves alone
_NESTS = {
    "cesaro.(cesaro.cesaro)": ("cesaro", "cesaro", "cesaro"),
    "sum.(phi.(cesaro.delta))": ("sum", "phi", "cesaro", "delta"),
    "(phi.cesaro).gamma": ("phi", "cesaro", "gamma"),
}


def _nested(names, right):
    """The product of the named triangles, nested to the right or to the
    left."""
    factors = [_NAMED[name]() for name in names]
    if right:
        product = factors.pop()
        for a in reversed(factors):
            product = compose(a, product)
        return product
    product = factors.pop(0)
    for b in factors:
        product = compose(product, b)
    return product


@pytest.mark.parametrize("nest", sorted(_NESTS))
def test_nested_scans_equal_the_dense_product_in_both_orders(nest):
    """At N = 48 the entry scan of a nest, to the right and to the left,
    equals the dense product of its factors' truncations and its
    truncation, which reads the lists of the product rule."""
    size, names = 48, _NESTS[nest]
    truncations = [truncate(_NAMED[name](), size) for name in names]
    expected = truncations[0]
    for t in truncations[1:]:
        expected = dense_mul(expected, t)
    for right in (True, False):
        assert _entry_scan(_nested(names, right), size) == expected, right
        assert truncate(_nested(names, right), size) == expected, right


@pytest.mark.parametrize("nest", sorted(_NESTS))
def test_nested_lazy_transforms_equal_the_list_transform(nest):
    """At 256 coordinates the lazy transform of a nest, the entry loop
    over the rows that compose makes, equals apply's, from the pair lists
    of the product rule."""
    size = 256
    for right in (True, False):
        x = Seq(lambda k: F((-1) ** k, k + 2))
        lazy = transform_seq(_nested(_NESTS[nest], right), x)
        assert [lazy(n) for n in range(size)] == apply(_nested(_NESTS[nest], right), x, size), right


@pytest.mark.parametrize("left", ["phi", "banded"])
@pytest.mark.parametrize(
    "right",
    [("cesaro",), ("inverse(phi)",), ("cesaro", "cesaro"), ("phi", "phi", "cesaro"), ("sum", "phi", "cesaro", "delta")],
    ids=".".join,
)
def test_compose_makes_one_matrix(left, right, monkeypatch):
    """compose makes the product and no other matrix, also when its right
    factor is a nested structured product, which it reads leaf by leaf."""
    a, b = {**_NAMED, **_LEFT_ONLY}[left](), _compose_named(*right)
    made = []
    init = BandedMatrix.__init__
    monkeypatch.setattr(BandedMatrix, "__init__", lambda m, *args, **kw: made.append(m) or init(m, *args, **kw))
    product = compose(a, b)
    assert made == [product]


def test_a_scan_of_a_nested_product_evaluates_each_row_once():
    """The entry scan of phi.(phi.cesaro) at N = 200 evaluates the
    product's closure once per row, and of the matrices reachable from it
    only the product and its left factor phi hold more than 2N entries:
    no intermediate product keeps a cache."""
    size = 200
    a, b = _NAMED["phi"](), compose(_NAMED["phi"](), _NAMED["cesaro"]())
    product = compose(a, b)
    rows = Counter()
    closure = product._entry
    product._entry = lambda n, k: rows.update([n]) or closure(n, k)
    assert _entry_scan(product, size) == dense_mul(truncate(a, size), truncate(b, size))
    assert rows == Counter(range(size))
    reachable, todo = [], [product]
    while todo:
        m = todo.pop()
        if m is not None and all(m is not x for x in reachable):
            reachable.append(m)
            todo += [*(m._factors or ()), m._inverse]
    assert [m for m in reachable if len(m._cache) > 2 * size] == [product, a]


@pytest.mark.parametrize("value", [0.5, 0.0])
@pytest.mark.parametrize("place", ["alone", "left", "right"])
def test_a_float_v_never_leaks_into_a_product(place, value):
    """A leaf whose V returns a float at column 3 makes every read of
    cesaro.B, in scan order and in reverse, return a Fraction or raise
    TypeError, with B the leaf alone or on either side of cesaro: the
    cells of a row that compose writes without their being read are made
    through rat too."""
    v = lambda k: value if k == 3 else F(1, k + 1)
    _assert_float_never_leaks(lambda: Triangle(lambda n, k: v(k), structure=([(None, v)], [])), place)


@pytest.mark.parametrize("value", [0.5, 0.0])
@pytest.mark.parametrize("place", ["alone", "left", "right"])
@pytest.mark.parametrize("side", ["U", "band"])
def test_a_float_u_or_band_part_never_leaks_into_a_product(side, place, value):
    """As for a float V: a leaf whose U, or whose diagonal band part,
    returns a float at row 3 makes every read of cesaro.B return a
    Fraction or raise TypeError."""
    f = lambda n: value if n == 3 else F(1, n + 1)
    if side == "U":
        leaf = lambda: Triangle(lambda n, k: f(n), structure=([(f, None)], []))
    else:
        leaf = lambda: Triangle(lambda n, k: f(n), structure=([], [f]))
    _assert_float_never_leaks(leaf, place)


def _assert_float_never_leaks(leaf, place):
    """Every read of cesaro.B, in scan order and in reverse, returns a
    Fraction or raises TypeError, and some read raises, with B the leaf
    alone or on either side of cesaro."""
    builds = {
        "alone": leaf,
        "left": lambda: compose(leaf(), _NAMED["cesaro"]()),
        "right": lambda: compose(_NAMED["cesaro"](), leaf()),
    }
    for order in (1, -1):
        product = compose(_NAMED["cesaro"](), builds[place]())
        raised = 0
        for n, k in [(n, k) for n in range(8) for k in range(8)][::order]:
            try:
                assert type(product.entry(n, k)) is F
            except TypeError:
                raised += 1
        assert raised


def test_product_structures_hold_no_callable():
    """A structured product declares the shape of its structure only: each
    side of a term is None or a list of the product rule, as is each band
    part, for the products of every two named triangles and of a named
    triangle and a product."""
    for left in _NAMED.values():
        for right in {**_NAMED, **_PRODUCTS}.values():
            terms, band = compose(left(), right()).structure
            assert not any(map(callable, (*band, *(f for term in terms for f in term))))


def _structure_entry(t, n, k):
    """Entry (n, k) of a lower triangle as its structure states it: a band
    part is the whole cell, and the terms give the cells below the band."""
    if k > n:
        return F(0)
    terms, band = t.structure
    if n - k < len(band):
        return band[n - k](n)
    at = lambda f, j: F(1) if f is None else f(j)
    return sum((at(u, n) * at(v, k) for u, v in terms), F(0))


def _assert_structure_reproduces_entries(t, size=N):
    """The entries of t are the cells its structure states: a product's
    from the pair lists its factors' lists make, whose structure is only a
    shape, and any other's from the sequences it declares."""
    if t._factors is not None:
        stated = _pair_cells(_lists(t, size, core._PAIRS)[1:], size)
    else:
        stated = _entry_scan(BandedMatrix(lambda n, k: _structure_entry(t, n, k)), size)
    assert _entry_scan(t, size) == stated


# the bidiagonal triangles declare a band and no terms, and the other
# triangles that declare a band-free structure are the means and the sum
_BIDIAGONAL = {"delta", "cesaro_inv", "inverse(weighted[harmonic])", "inverse(riesz[k+1])"}
_BAND_FREE = {"sum", "cesaro"} | {m for m in _NAMED if m.startswith(("weighted", "riesz"))}
_UNSTRUCTURED = {"banded", "strictly_lower"}


def test_declared_structures_reproduce_the_entries():
    for name, build in {**_NAMED, **_LEFT_ONLY}.items():
        t = build()
        assert (t.structure is None) == (name in _UNSTRUCTURED), name
        if t.structure is not None:
            _assert_structure_reproduces_entries(t)
            assert (t.structure[0] == []) == (name in _BIDIAGONAL | {"delta^2"}), name
            assert (t.structure[1] == []) == (name in _BAND_FREE), name
    # the dual matrices derive theirs from the domain inverse's, and the
    # cross-check matrix from the weights
    for build in _DUALS.values():
        _assert_structure_reproduces_entries(build())


def test_the_band_is_the_structure_s():
    """A matrix states its band only through its structure: every named
    triangle, every inverse, diag(a) and the products of two of these have
    the band len(band) - 1 of a structure with no terms and none of any
    other, so a product of two band-only factors has the sum of theirs."""
    def structure_band(m):
        terms, band = m.structure
        return None if terms else len(band) - 1

    leaves = [build() for build in _NAMED.values()]
    leaves += [invert(t) for t in leaves]
    leaves.append(diagonal(Seq(lambda k: F((-1) ** k, k + 2))))
    for a in leaves:
        assert a.band == structure_band(a)
        for b in leaves:
            product = compose(a, b)
            assert product.band == structure_band(product)
            if a.band is not None and b.band is not None:
                assert product.band == a.band + b.band


def test_products_declare_a_structure_only_where_it_holds():
    # a product declares one exactly when both factors do, and it has the
    # terms of both factors
    for left, build_left in {**_NAMED, **_LEFT_ONLY}.items():
        for right, build_right in _NAMED.items():
            a, b = build_left(), build_right()
            product = compose(a, b)
            declared = left not in _UNSTRUCTURED
            assert (product.structure is not None) == declared, (left, right)
            if declared:
                _assert_structure_reproduces_entries(product, 12)
                assert len(product.structure[0]) == len(a.structure[0]) + len(b.structure[0])
                assert len(product.structure[1]) == max(len(a.structure[1]) + len(b.structure[1]) - 1, 0)
    # the band of a product has la + lb - 1 parts, or none
    for names, terms, parts in (
        (("delta", "cesaro_inv"), 0, 3),
        (("delta", "phi"), 1, 2),
        (("delta", "sum"), 1, 1),
        (("cesaro", "phi"), 2, 0),
        (("phi", "inverse(weighted[harmonic])"), 1, 2),
        (("inverse(phi)",), 1, 1),
        (("inverse(gamma)",), 1, 1),
        (("inverse(sigma)",), 1, 1),
    ):
        structure = _compose_named(*names).structure
        assert (len(structure[0]), len(structure[1])) == (terms, parts), names
    # a derived domain inverse, inverse(mean) . sum, has one row term (S, None)
    for name in ("inverse(phi)", "inverse(gamma)", "inverse(sigma)"):
        assert _NAMED[name]().structure[0][0][1] is None, name


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
    # of two structured triangles declared no structure, cesaro .
    # (delta . phi) read 45,760 entries of each factor while a bidiagonal
    # triangle declared none, and cesaro . (phi . delta) while a factor with
    # terms times a bidiagonal one declared none
    [
        ("cesaro", "sum"),
        ("cesaro", "phi"),
        ("phi", "inverse(phi)"),
        ("cesaro", "cesaro.cesaro"),
        ("cesaro", "delta.phi"),
        ("phi", "delta.phi"),
        ("cesaro", "phi.delta"),
    ],
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


# every structure the package declares: the named triangles, the products of
# a bidiagonal factor and a band-free one, further products of two structured
# triangles, and the dual matrices
_STRUCTURED = {
    **_NAMED,
    **{
        f"{left}.{right}": (lambda left=left, right=right: compose(_NAMED[left](), _NAMED[right]()))
        for left in ("delta", "cesaro_inv")
        for right in sorted(_BAND_FREE)
    },
    **_PRODUCTS,
    **_DUALS,
}


_TAILS = {
    "1": {"tail": {"kind": "const", "c": "1"}},
    "harmonic": {"tail": {"kind": "harmonic"}},
    "power 2": {"tail": {"kind": "power", "p": 2}},
    "1/2^k": {"tail": {"kind": "geometric", "r": "1/2"}},
    "2^k": {"tail": {"kind": "geometric", "r": "2"}},
    "k+1": {"prefix": [str(k + 1) for k in range(49)], "tail": {"kind": "const", "c": "50"}},
}
# the domains of the class_test benchmark workload
_CLASS_DOMAINS = {
    "C": {"label": "C"},
    **{
        f"G({u}, {v})": {"label": "G", "u": _TAILS[u], "v": _TAILS[v]}
        for u, v in (("harmonic", "1"), ("power 2", "harmonic"), ("1/2^k", "2^k"), ("harmonic", "2^k"))
    },
    **{f"R({q})": {"label": "R", "q": _TAILS[q]} for q in ("1", "harmonic", "k+1", "2^k")},
}


def _class_domain(label, inverse):
    matrix = cli.parse_domain_spec(json.dumps(_CLASS_DOMAINS[label]))[0].matrix
    return invert(matrix) if inverse else matrix


_TRUNCATED = {
    **_STRUCTURED,
    **_LEFT_ONLY,
    "diag(a)": lambda: diagonal(Seq(lambda k: F((-1) ** k, k + 2))),
    **{
        f"{'inverse' if inverse else 'domain'}[{label}]": (
            lambda label=label, inverse=inverse: _class_domain(label, inverse)
        )
        for label in _CLASS_DOMAINS
        for inverse in (False, True)
    },
}
# structured reads checked at N = 256 as well
_DEEP = {
    "phi": {"kind": "phi"},
    "gamma(harmonic, harmonic)": {"kind": "gamma", "u": "harmonic", "v": "harmonic"},
    "sigma_riesz(harmonic)": {"kind": "sigma_riesz", "q": "harmonic"},
    "riesz(power p=1)": {"kind": "riesz", "q": {"tail": {"kind": "power", "p": 1}}},
    "cesaro_inv": {"kind": "cesaro_inv"},
}


@pytest.mark.parametrize("name", sorted(_TRUNCATED))
def test_truncate_equals_the_entry_scan(name):
    """Cell for cell, and at N below the band width too (delta . cesaro_inv
    has three band parts).  A matrix truncate scans has its entries cached
    by then, and one it reads from its structure none."""
    for size in (1, 2, 3, 16, 64):
        m = _TRUNCATED[name]()
        assert truncate(m, size) == _entry_scan(m, size), size


@pytest.mark.parametrize("name", sorted(_DEEP))
def test_truncate_equals_the_entry_scan_at_depth(name):
    m, _ = cli.parse_matrix_spec(json.dumps(_DEEP[name]))
    assert truncate(m, 256) == _entry_scan(m, 256)


def _one_term(name):
    structure = _TRUNCATED[name]().structure
    return structure is not None and len(structure[0]) <= 1


@pytest.mark.parametrize("name", sorted(filter(_one_term, _TRUNCATED)))
def test_truncating_a_one_term_triangle_evaluates_no_entry(name):
    """Truncated at N = 64, a triangle whose structure has at most one term
    evaluates none of its entries, but for the band cells of a bidiagonal
    triangle, whose band parts read its memoized entries, and reads each U
    and V index at most once."""
    size = 64
    m, calls = _TRUNCATED[name](), Counter()

    def counted(f, key):
        return None if f is None else lambda j: calls.update([(key, j)]) or f(j)

    terms, band = m.structure
    m.structure = ([(counted(u, "U"), counted(v, "V")) for u, v in terms], band)
    evals, entry = [], m._entry
    m._entry = lambda n, k: evals.append((n, k)) or entry(n, k)
    assert truncate(m, size) == _entry_scan(_TRUNCATED[name](), size)
    band_cells = [(n, n - i) for n in range(size) for i in range(len(band)) if n >= i] if name in _BIDIAGONAL else []
    assert sorted(evals) == sorted(m._cache) == sorted(band_cells)
    assert max(calls.values(), default=1) == 1


def test_truncating_a_two_term_product_evaluates_no_entry():
    """phi.cesaro has two terms, and phi is no mean, so it is read from its
    own pair lists: with its entries made to fail it truncates to the entry
    scan of a fresh copy."""
    m = _TRUNCATED["phi.cesaro"]()
    assert len(m.structure[0]) == 2

    def no_entry(n, k):
        raise AssertionError(f"entry ({n}, {k}) read")

    m.entry = no_entry
    assert truncate(m, 64) == _entry_scan(_TRUNCATED["phi.cesaro"](), 64)
    assert not m._cache


@pytest.mark.parametrize(
    "name", ["sum.sum", "cesaro.cesaro", "weighted[geometric].riesz[2^k]", "riesz[1/(k+1)].weighted[alternating]"]
)
def test_truncating_a_product_of_two_means_evaluates_no_entry(name):
    """Truncated at N = 64, a product of two means is read from its
    factors' terms: no entry of the product or of a factor is evaluated,
    and each U and V index of each factor is read at most once."""
    size = 64
    m, calls = _TRUNCATED[name](), Counter()

    def counted(f, key):
        return None if f is None else lambda j: calls.update([(key, j)]) or f(j)

    evals = []
    for side, factor in zip("AB", m._factors):
        [(u, v)], band = factor.structure
        factor.structure = ([(counted(u, side + "U"), counted(v, side + "V"))], band)
        factor._entry = lambda n, k: evals.append((n, k))
    m._entry = lambda n, k: evals.append((n, k))
    assert truncate(m, size) == _entry_scan(_TRUNCATED[name](), size)
    assert evals == [] and not m._cache
    assert max(calls.values(), default=1) == 1


_XS = {
    "finite": lambda: Seq.from_values(["3", "-1/2", "0", "2/7", "5"]),
    "harmonic": lambda: Seq(lambda k: F(1, k + 1)),
    "alternating_geometric": lambda: Seq(lambda k: F(-1, 2) ** k),
    "unit(0)": lambda: Seq.unit(0),
    "unit(7)": lambda: Seq.unit(7),
}


def _entry_loop(m, x, size):
    return [_coordinate(m, x, n) for n in range(size)]


def _band_reads(name, size):
    """The entry reads of one structured transform: none, but the band parts
    of a bidiagonal triangle read each of its entries once."""
    return 2 * size - 1 if name in _BIDIAGONAL else 0


@pytest.mark.parametrize("name", sorted(_STRUCTURED))
def test_structured_transform_equals_the_entry_loop(name):
    """apply reads no entry but a bidiagonal's band and equals the entry
    loop, and so does the lazy transform of a fresh copy, read from its far
    end first."""
    for x_name, build_x in _XS.items():
        m, x = _STRUCTURED[name](), build_x()
        assert m.structure is not None
        reads = _counted_reads(m)
        got = apply(m, x, N)
        assert len(reads) == _band_reads(name, N), x_name
        assert got == _entry_loop(m, x, N), x_name
        lazy = transform_seq(_STRUCTURED[name](), x)
        assert [lazy(n) for n in reversed(range(N))][::-1] == got, x_name


def test_a_matrix_without_structure_takes_the_entry_loop():
    plain = builders.cesaro()
    plain.structure = None
    bidiagonal = Triangle(
        lambda n, k: F(n + 1) if k == n else F(-n), structure=([], [lambda n: F(n + 1), lambda n: F(-n)])
    )
    bidiagonal.structure = None  # its band stays
    for m in (bidiagonal, plain):
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
    """apply at 64 coordinates evaluates no entry but a bidiagonal's band,
    reads each structure closure at most N + 1 times and x once per
    coordinate."""
    size = 64
    m, calls = _STRUCTURED[name](), Counter()
    terms, band = m.structure
    m.structure = (
        [(_counting(u, calls, ("U", i)), _counting(v, calls, ("V", i))) for i, (u, v) in enumerate(terms)],
        [_counting(part, calls, ("band", i)) for i, part in enumerate(band)],
    )
    evals, entry = [], m._entry
    m._entry = lambda n, k: evals.append((n, k)) or entry(n, k)
    reads = _counted_reads(m)
    apply(m, Seq(_counting(lambda k: F(1, k + 1), calls, "x")), size)
    assert len(reads) == len(evals) == _band_reads(name, size)
    assert calls["x"] == size
    assert max(calls.values()) <= size + 1, calls


def _logged_reads(m, values):
    """m and a Seq of values, with every entry read of m and every read of
    the Seq appended, in order, to the log returned with them."""
    log, entry, x = [], m.entry, Seq(values)
    m.entry = lambda n, k: log.append(("entry", n, k)) or entry(n, k)
    return m, lambda k: log.append(("x", k)) or x(k), log


def _zero_u_at_5():
    u = Seq(lambda n: F(0) if n == 5 else F((-1) ** n, n + 1))
    return builders.weighted_mean(builders.WeightPair(u, Seq(lambda k: F(k + 1))))


_LAZY_TRANSFORMED = {
    "cesaro": builders.cesaro,
    "weighted[alternating]": lambda: builders.weighted_mean(_weighted("alternating")),
    "phi": builders.phi,
    "cesaro.(phi.delta)": lambda: _compose_named("cesaro", "phi", "delta"),
    "banded": _LEFT_ONLY["banded"],
    "zero u(5)": _zero_u_at_5,
}


@pytest.mark.parametrize("name", sorted(_LAZY_TRANSFORMED))
def test_lazy_transform_reads_as_the_entry_loop(name):
    """transform_seq makes the entry and x reads of _coordinate, in the
    same order, read from the far end first, and none when read again from
    0, which its memo answers.  A product's entries are its whole rows, and
    a weighted mean with u(5) = 0 raises at coordinate 5 the
    InvalidWeightsError that the entry loop raises there."""
    size, build = 12, _LAZY_TRANSFORMED[name]
    values = lambda k: F((-1) ** k * (k + 2), 3 * k + 1)
    m, x, lazy_log = _logged_reads(build(), values)
    lazy = transform_seq(m, x)
    oracle, y, loop_log = _logged_reads(build(), values)
    if name == "zero u(5)":
        with pytest.raises(InvalidWeightsError) as raised:
            lazy(5)
        with pytest.raises(InvalidWeightsError) as expected:
            _coordinate(oracle, y, 5)
        assert (raised.value.name, raised.value.index) == (expected.value.name, expected.value.index) == ("u", 5)
        size = 5
    expected = [_coordinate(oracle, y, n) for n in reversed(range(size))]
    assert [lazy(n) for n in reversed(range(size))] == expected
    assert lazy_log == loop_log
    assert [lazy(n) for n in range(size)] == expected[::-1]
    assert lazy_log == loop_log


# the list transform's shapes: every ordered pair of these triangles, and
# three nests of more factors
_PAIRED = ("sum", "cesaro", "delta", "cesaro_inv", "phi", "weighted[geometric]", "riesz[2^k]", "gamma", "sigma")
_LIST_TRANSFORMED = {
    **{f"{a}.{b}": (lambda a=a, b=b: _compose_named(a, b)) for a in _PAIRED for b in _PAIRED},
    "cesaro.(cesaro.cesaro)": lambda: _compose_named("cesaro", "cesaro", "cesaro"),
    "cesaro.(phi.delta)": lambda: _compose_named("cesaro", "phi", "delta"),
    "sum.(phi.(cesaro.delta))": lambda: _compose_named("sum", "phi", "cesaro", "delta"),
}
_THREE_XS = ("finite", "harmonic", "alternating_geometric")


@pytest.mark.parametrize("name", sorted(_LIST_TRANSFORMED))
def test_list_transform_equals_the_entry_loop_and_the_lazy_transform(name):
    """apply reads a structured product from its pair lists, as values and
    as text; the entry loop and the lazy transform, read from its far end
    first, are its oracles."""
    for size in (1, 2, 17, 64):
        m = _LIST_TRANSFORMED[name]()
        for x_name in _THREE_XS:
            x = _XS[x_name]()
            got = apply(m, x, size)
            lazy = transform_seq(m, x)
            assert [lazy(n) for n in reversed(range(size))][::-1] == got, (size, x_name)
            assert _entry_loop(m, x, size) == got, (size, x_name)
            assert apply(m, x, size, spaces.fmt_ratio) == list(map(spaces.fmt, got)), (size, x_name)


class _CountedSeq(Seq):
    """A Seq that counts its reads."""

    reads = 0

    def __call__(self, k):
        self.reads += 1
        return super().__call__(k)


@pytest.mark.parametrize("name", sorted(_STRUCTURED))
def test_list_transform_reads_x_once_per_coordinate_and_no_combine(name, monkeypatch):
    """apply reads x once at each of its N coordinates and runs no entry
    loop, so it reads no coordinate of the lazy transform either."""
    size, loops = 64, []
    coordinate = core._coordinate
    monkeypatch.setattr(core, "_coordinate", lambda m, x, n: loops.append(n) or coordinate(m, x, n))
    x = _CountedSeq(lambda k: F(1, k + 1))
    assert len(apply(_STRUCTURED[name](), x, size)) == size
    assert x.reads == size
    assert not loops


def _pair_cells(lists, size):
    """The cells of the leading square that pair lists (terms, band) state,
    as Fractions."""
    terms, band = lists
    at = lambda f, j: F(1) if f is None else F(*f[j])
    cells = [[F(0)] * size for _ in range(size)]
    for n in range(size):
        for k in range(n + 1):
            i = n - k
            cells[n][k] = at(band[i], n) if i < len(band) else sum((at(u, n) * at(v, k) for u, v in terms), F(0))
    return tuple(map(tuple, cells))


def _gamma_leaf():
    """gamma as no product: its closed form with a structure of one term
    and one band part read from its own Seqs, (u_n - u_{n-1}) v_k below the
    diagonal, u_{-1} = 0, and u_n v_n on it, whose V has a value for each
    column below the band."""
    w = _weighted("geometric")
    term = (Seq(lambda n: w.u_at(n) - (w.u_at(n - 1) if n else 0)), w.v_at)
    g = builders.gamma_closed_form(w)
    g.structure = [term], [lambda n: w.u_at(n) * w.v_at(n)]
    return g


@pytest.mark.parametrize("right", ["gamma", "gamma leaf"])
@pytest.mark.parametrize("left", ["cesaro", "weighted[geometric]"])
def test_pair_lists_fit_each_v_to_the_columns_below_the_band(left, right):
    """A band-free mean times gamma, which has a term and a band part: the
    rule cuts gamma's V, made from delta's and the mean's lists, to the
    columns below gamma's band, and pads the V it passes on to the
    product's term to the product's columns, one more.  The lists are built
    afresh at each size, and then on one matrix at 17 and read as heads at
    the sizes below it."""
    for sizes in ((1,), (2,), (8,), (17,), (17, 8, 2, 1)):
        b = _gamma_leaf() if right == "gamma leaf" else _NAMED[right]()
        ms = (b, compose(_NAMED[left](), b))
        for size in sizes:
            for m in ms:
                terms, band = lists = _lists(m, size, core._PAIRS)[1:]
                assert all(v is None or len(v) == size - len(band) for _, v in terms), size
                assert _pair_cells(lists, size) == _entry_scan(m, size), size


@pytest.mark.parametrize("name", ["phi", "inverse(gamma)", "delta.phi", "cesaro.cesaro"])
def test_a_second_reader_of_the_pair_lists_builds_nothing(name, monkeypatch):
    """After apply at N, truncations at N and N/2 and apply again read the
    pair lists kept on the product and on its factors: they run no product
    rule and read no entry, not even the band of a bidiagonal inverse,
    which is its memoized entries."""
    size = 24
    build = _PRODUCTS[name] if name in _PRODUCTS else _NAMED[name]
    expected = {n: _entry_scan(build(), n) for n in (size, size // 2)}
    m, x = build(), Seq(lambda k: F(1, k + 1))
    first = apply(m, x, size)
    calls = Counter()
    rule, entry = core._product_rule, BandedMatrix.entry
    monkeypatch.setattr(core, "_product_rule", lambda *args: calls.update(["rule"]) or rule(*args))
    monkeypatch.setattr(BandedMatrix, "entry", lambda t, n, k: calls.update(["entry"]) or entry(t, n, k))
    for n, rows in expected.items():
        assert truncate(m, n) == rows, n
    assert apply(m, x, size) == first
    assert not calls


@pytest.mark.parametrize("domain", ["phi", "gamma", "sigma"])
def test_domain_membership_reads_the_list_transform(domain, monkeypatch):
    """Every space's report over a domain matrix, and the bv norm of Ax,
    equal the lazy transform's, which the list coordinates leave unread."""
    size = 16
    lazy = {x_name: transform_seq(_NAMED[domain](), _XS[x_name]()) for x_name in _THREE_XS}
    monkeypatch.setattr(core, "transform_seq", None)
    for x_name, ax in lazy.items():
        for space in spaces.SpaceId:
            got = spaces.domain_membership(_XS[x_name](), _NAMED[domain](), space, size)
            assert got == spaces.membership(ax, space, size), (x_name, space)
        got = spaces.bvA_norm_prefix(_NAMED[domain](), _XS[x_name](), size)
        assert got == spaces.bv_norm_prefix(ax, size), x_name


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
_RIGHT_SHAPES = (
    "mean",
    "domain",
    "inverse_of(domain)",
    "inverse_of(mean)",
    "mean.mean",
    "domain.inverse_of(domain)",
    "delta.domain",
    # terms times a bidiagonal band, whose cells below the band read the
    # weights one index past their column
    "mean.inverse_of(mean)",
    "domain.delta",
)
# a sequence whose zero terms make rows of the alpha matrix 0 at and before
# the invalid indices
_ZERO_TERMS = ["1", "-2", "0", "5"]
# the B of the into-domain class tests, whose F = domain . B declares a
# structure read as generator lists
_F_RIGHT = ("sum", "cesaro", "delta", "cesaro_inv")


def _right_spec(case, shape):
    """The invalid weights of case as a mean, as its domain matrix (gamma or
    sigma_riesz), as the inverse of either, or as a product of two of these
    or of delta and one of these (shapes joined by a dot)."""
    return _shaped(_INVALID[case], shape)


def _shaped(spec, shape):
    """The weights of the mean spec in the given shape (see _right_spec)."""
    if "." in shape:
        return {"kind": "compose", "of": [_shaped(spec, part) for part in shape.split(".")]}
    if shape.startswith("inverse_of("):
        return {"kind": "inverse_of", "of": _shaped(spec, shape[len("inverse_of(") : -1])}
    if shape == "delta":
        return {"kind": "delta"}
    if shape == "mean":
        return spec
    return {**spec, "kind": {"weighted": "gamma", "riesz": "sigma_riesz"}[spec["kind"]]}


def _outcome(fn):
    """fn's value, or the name and index of the invalid weight it reports as
    text, which no value here is: a truncation is a tuple, and the
    statistics are a dict."""
    try:
        return fn()
    except InvalidWeightsError as exc:
        return f"invalid weight {exc.name}[{exc.index}]"


def _compose_without_structure(a, b):
    b.structure = None
    return compose(a, b)


def _parse_without_structure(spec, monkeypatch, parse=cli.parse_matrix_spec):
    """The matrix of spec with no structure, nor any in the products the
    spec composes: those take the band-overlap sum, and its transform the
    entry loop.  ``parse`` is the CLI's parser as this module found it, so
    that a test can put this function in that parser's place."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "compose", _compose_without_structure)
        matrix, _ = parse(spec)
    matrix.structure = None
    return matrix


def _domain_spec(case):
    """The invalid weights of case as a G or R domain spec."""
    spec = dict(_INVALID[case])
    return json.dumps({"label": {"weighted": "G", "riesz": "R"}[spec.pop("kind")], **spec})


@pytest.mark.parametrize("shape", _RIGHT_SHAPES)
@pytest.mark.parametrize("case", sorted(_INVALID))
def test_invalid_weights_are_reported_as_without_structure(case, shape, monkeypatch):
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
        plain = _parse_without_structure(spec, monkeypatch)
        assert structured.structure is not None
        got = _outcome(lambda: truncate(compose(left(), structured), 16))
        assert got == _outcome(lambda: truncate(compose(left(), plain), 16))
        raised += isinstance(got, str)
    assert raised == 3
    # the transform, and the domain membership over the tail windows of c,
    # whose first coordinate read is 2
    x = Seq.constant(1)
    for run in (
        lambda m: apply(m, x, 16),
        lambda m: spaces.domain_membership(x, m, spaces.SpaceId.C, 16),
    ):
        structured, _ = cli.parse_matrix_spec(spec)
        plain = _parse_without_structure(spec, monkeypatch)
        got = _outcome(lambda: run(structured))
        assert isinstance(got, str)
        assert got == _outcome(lambda: run(plain))
    # the one list reader, in either arithmetic, names the weight the scan
    # of the first rows does
    for arith in (core._PAIRS, _INTEGERS):
        structured, _ = cli.parse_matrix_spec(spec)
        plain = _parse_without_structure(spec, monkeypatch)
        got = _outcome(lambda: _lists(structured, 16, arith))
        assert isinstance(got, str)
        assert got == _outcome(lambda: truncate(plain, 16))
    if shape != "domain":
        return
    # the statistics of the dual matrices over the domain and of F = domain
    # . B for each B of _F_RIGHT, from their structure and
    # scanned from their entries; a = _ZERO_TERMS has a zero term before and
    # at the invalid index, where the alpha matrix's row is 0 but its
    # entries read the domain inverse's weights as its structure does
    builds = [
        (kind, lambda m, a, kind=kind: (duals.alpha_assoc if kind == "alpha" else duals.beta_assoc)(m, a))
        for kind in duals.DUAL_KINDS
    ]
    builds += [("alpha", lambda m, a, b=b: compose(m, _NAMED[b]())) for b in _F_RIGHT]
    for kind, build in builds:
        for a in (x, Seq.from_values(_ZERO_TERMS)):
            structured = build(cli.parse_domain_spec(_domain_spec(case))[0].matrix, a)
            plain = build(cli.parse_domain_spec(_domain_spec(case))[0].matrix, a)
            plain.structure = None
            assert duals._generators(structured, 1) is not None
            got = _outcome(lambda: duals.condition_stats(kind, structured, 16))
            assert isinstance(got, str)
            assert got == _outcome(lambda: duals.condition_stats(kind, plain, 16))


@pytest.mark.parametrize("shape", _RIGHT_SHAPES)
@pytest.mark.parametrize("case", sorted(_INVALID))
def test_invalid_weights_exit_3_as_without_structure(case, shape, monkeypatch, capsys):
    spec = json.dumps(_right_spec(case, shape))
    product = json.dumps({"kind": "compose", "of": [{"kind": "cesaro"}, _right_spec(case, shape)]})
    commands = [
        ["matrix", "--spec", product],
        ["transform", "--matrix", spec, "--x", "e", "--n", "16"],
        *(["membership", "--x", "e", "--space", space.value, "--domain", spec, "--n", "16"] for space in spaces.SpaceId),
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
            for b in _F_RIGHT
        ]
        # the row duals of a banded matrix whose row has a zero term
        commands.append(
            ["matclass", "--direction", "from_domain", "--matrix", json.dumps({"kind": "banded", "rows": [_ZERO_TERMS]}),
             "--domain", _domain_spec(case), "--y", "c", "--n", "16"]
        )
    structured = []
    for argv in commands:
        assert cli.main(argv) == 3
        structured.append(capsys.readouterr())
    # membership --domain reads Ax as transform does, whatever the space
    assert {got.err for got in structured[1 : 2 + len(spaces.SpaceId)]} == {structured[1].err}

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
    monkeypatch.setattr(cli, "compose", _compose_without_structure)
    monkeypatch.setattr(cli, "parse_matrix_spec", parse_without_structure)
    for name in ("alpha_assoc", "beta_assoc"):
        monkeypatch.setattr(duals, name, without_structure(getattr(duals, name)))
    monkeypatch.setattr(matclass, "compose", without_structure(compose))
    for argv, got in zip(commands, structured):
        assert cli.main(argv) == 3
        plain = capsys.readouterr()
        assert got.out == plain.out == ""
        assert got.err == plain.err
        assert got.err.startswith("mathematical error: invalid weight ")


# invalid weights that the windows of c and c0 skip: u[1] at N = 16, whose
# windows start at coordinate 2, and gamma's u[2] at N = 32, whose windows
# start at 4
_SKIPPED_BY_WINDOWS = [
    ({"kind": "weighted", "u": {"prefix": ["1", "0"], "tail": _ONES}, "v": "e"}, "16"),
    ({"kind": "gamma", "u": {"prefix": ["1", "1", "0"], "tail": _ONES}, "v": "e"}, "32"),
]


@pytest.mark.parametrize("spec,n", _SKIPPED_BY_WINDOWS)
def test_domain_membership_exits_3_as_transform_for_every_space(spec, n, capsys):
    """membership --domain reads Ax as transform does, so an invalid weight
    of the domain exits 3 with transform's stderr whatever the space, also
    where the space's statistic reads no coordinate that holds it."""
    spec = json.dumps(spec)
    assert cli.main(["transform", "--matrix", spec, "--x", "harmonic", "--n", n]) == 3
    expected = capsys.readouterr()
    assert expected.err.startswith("mathematical error: invalid weight ")
    for space in spaces.SpaceId:
        argv = ["membership", "--x", "harmonic", "--space", space.value, "--domain", spec, "--n", n]
        assert cli.main(argv) == 3, space
        assert capsys.readouterr() == expected, space


def _ones_then(index, value):
    """A weight sequence of ones but for value at index."""
    return {"prefix": ["1"] * index + [value], "tail": _ONES}


# each factor of a two-factor transform with its own invalid weight: u or v
# zero at 2, 3 or 4, or none
_FACTOR_WEIGHTS = [{"kind": "weighted", "u": "e", "v": "e"}] + [
    {"kind": "weighted", "u": "e", "v": "e", name: _ones_then(index, "0")} for name in ("u", "v") for index in (2, 3, 4)
]


@pytest.mark.parametrize("shape", ["mean.mean", "domain.mean", "mean.domain", "mean.inverse_of(mean)"])
def test_two_factor_transforms_report_the_weight_of_the_entry_loop(shape):
    """apply transforms the structured product by its list rule, the
    product rule's combine of per-term prefix sums over the structure's
    pair lists, and the product with its structure removed by the entry
    loop over compose's entries: both report the same invalid weight when
    the factors' invalid indices differ."""
    left, right = shape.split(".")
    x = Seq.constant(1)
    raised = 0
    for a in _FACTOR_WEIGHTS:
        for b in _FACTOR_WEIGHTS:
            spec = json.dumps({"kind": "compose", "of": [_shaped(a, left), _shaped(b, right)]})
            structured, _ = cli.parse_matrix_spec(spec)
            plain, _ = cli.parse_matrix_spec(spec)
            plain.structure = None
            got = _outcome(lambda: apply(structured, x, 12))
            assert got == _outcome(lambda: apply(plain, x, 12)), (a, b)
            raised += isinstance(got, str)
    assert raised == len(_FACTOR_WEIGHTS) ** 2 - 1


def test_a_weight_the_entries_skip_is_raised_from_the_lists():
    """diag(a) . M for a mean M with a(3) = 0 and u(3) = 0: the lists read
    u[3], but row 3's entries read nothing, since compose drops the zero
    coefficient a(3), so the entry scan succeeds.  The list reader
    ``_lists`` then finds row 3, whose entries raise nothing, and re-raises
    the lists' own error, in either arithmetic, to truncate, apply and the
    statistics alike.  So does diag(a) . inverse(M') with a(2) = 0 and u(2)
    = v(2) = 0 in M', whose row 2 reads nothing: its lists name u[2], where
    the factor's own scan names v[2], as the reader replays a failed build
    on the matrix it reads and never on a factor."""
    size = 8
    zero_at = lambda index: Seq(lambda n: F(0) if n == index else F(1))

    def build_mean():
        w = builders.WeightPair(zero_at(3), Seq.constant(1))
        return compose(diagonal(zero_at(3)), builders.weighted_mean(w))

    def build_inverse():
        inverse, _ = cli.parse_matrix_spec(json.dumps(_right_spec("zero u and v", "inverse_of(mean)")))
        assert _outcome(lambda: _entry_scan(inverse, size)) == "invalid weight v[2]"
        return compose(diagonal(zero_at(2)), inverse)

    assert _entry_scan(build_mean(), size)[3] == (F(0),) * size
    assert [build_inverse().entry(2, k) for k in range(size)] == [F(0)] * size
    for build, index in ((build_mean, 3), (build_inverse, 2)):
        for run in (
            lambda m: truncate(m, size),
            lambda m: truncate(m, size, spaces.fmt_ratio),
            lambda m: apply(m, Seq.constant(1), size),
            lambda m: duals.cond_l1_linf(m, size),
            lambda m: _lists(m, size, core._PAIRS),
            lambda m: _lists(m, size, _INTEGERS),
        ):
            m = build()
            assert m.structure is not None
            assert _outcome(lambda: run(m)) == f"invalid weight u[{index}]"


def _command_outcome(argv):
    """The exit code, stdout and first stderr line of the CLI run on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().partition("\n")[0]


def _a_weight_the_entries_skip(structured, plain):
    """The one known divergence, test_a_weight_the_entries_skip_is_raised_from_the_lists:
    the structured run reports an invalid weight that its lists read, where
    the entries of the run with no structure skip it, so that run succeeds
    or names another weight."""
    return (
        structured[0] == 3 and structured[2].startswith("mathematical error: invalid weight") and plain[0] in (0, 3)
    )


@settings(max_examples=60, deadline=None)
@given(spec=_VALID_MATRICES, domain=_VALID_DOMAINS)
def test_every_command_prints_what_the_spec_without_structure_prints(spec, domain):
    """A valid matrix spec drawn from the CLI's tables gives, in matrix,
    transform, membership --domain and matclass --direction into_domain,
    the exit code, stdout and first stderr line that the same spec parsed
    with no structure gives."""
    matrix = _spec(spec)
    commands = (
        ["matrix", "--spec", matrix],
        ["transform", "--matrix", matrix, "--x", "e"],
        ["membership", "--x", "e", "--space", "l1", "--domain", matrix],
        ["matclass", "--direction", "into_domain", "--matrix", matrix, "--domain", _spec(domain), "--y", "l1"],
    )
    parse = cli.parse_matrix_spec
    for argv in commands:
        structured = _command_outcome([*argv, "--n", "8"])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "parse_matrix_spec", lambda text: (_parse_without_structure(text, patch), parse(text)[1]))
            plain = _command_outcome([*argv, "--n", "8"])
        assert structured == plain or _a_weight_the_entries_skip(structured, plain), argv


def _parse_domain_without_structure(text, parse=cli.parse_domain_spec):
    """The domain of text with no structure on its matrix nor on the mean
    the constructor composes after delta, so that its inverse is the
    forward substitution of the mean times the sum matrix.  ``parse`` is
    the CLI's parser as this module found it, as in _parse_without_structure."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builders, "compose", _compose_without_structure)
        domain, spec = parse(text)
    domain.matrix.structure = None
    return domain, spec


@settings(max_examples=60, deadline=None)
@given(a=_VALID_SEQS, domain=_VALID_DOMAINS, banded=_VALID_BANDED, n=st.just(8))
@example(a="harmonic", domain={"label": "G", "u": _ones_then(1, "0"), "v": "e"}, banded={"kind": "banded", "rows": [["1", "-2/3"]]}, n=8)
@example(a="e", domain={"label": "R", "q": _ones_then(2, "-1")}, banded={"kind": "banded", "rows": [["0"], ["1", "1"]]}, n=8)
@example(a="harmonic", domain={"label": "G", "u": "e", "v": _ones_then(13, "0")}, banded={"kind": "banded", "rows": [["1", "0", "-2/3"], ["1/2"] * 12]}, n=32)
@example(a="e", domain={"label": "R", "q": _ones_then(21, "0")}, banded={"kind": "banded", "rows": [["0"], ["1", "1"], ["-1"] * 30]}, n=32)
def test_dual_and_from_domain_tests_print_what_the_domain_without_structure_prints(a, domain, banded, n):
    """dual of every kind and matclass --direction from_domain into every
    target give, for a drawn domain, the exit code, stdout and first stderr
    line that the domain parsed with no structure gives, whose inverse is
    forward substitution and not the derived bidiagonal.  The examples at
    N = 32 read E over 8 window columns, with an invalid weight below row 8."""
    commands = [["dual", "--a", _spec(a), "--domain", _spec(domain), "--kind", kind] for kind in ("alpha", "beta", "gamma")]
    commands += [
        ["matclass", "--direction", "from_domain", "--matrix", _spec(banded), "--domain", _spec(domain), "--y", y]
        for y in ("l1", "c", "linf")
    ]
    for argv in commands:
        structured = _command_outcome([*argv, "--n", str(n)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "parse_domain_spec", _parse_domain_without_structure)
            plain = _command_outcome([*argv, "--n", str(n)])
        assert structured == plain or _a_weight_the_entries_skip(structured, plain), argv


# the invalid weights of _INVALID, weights invalid at the last row of an N =
# 16 truncation and one past it, and u invalid at 5 where the entry scan
# meets v[2] first
_MATRIX_CASES = {
    **_INVALID,
    **{
        f"zero {name} at {index}": {"kind": "weighted", "u": "e", "v": "e", name: _ones_then(index, "0")}
        for name in ("u", "v")
        for index in (15, 16)
    },
    **{f"non-positive q at {index}": {"kind": "riesz", "q": _ones_then(index, "-1")} for index in (15, 16)},
    "zero u at 5 and v at 2": {"kind": "weighted", "u": _ones_then(5, "0"), "v": _ones_then(2, "0")},
}
# The outcome of matrix --spec S --n 16 for each shape S of _RIGHT_SHAPES, in
# that order, as recorded while truncate read every matrix by its entries:
# the invalid weight named on stderr, with exit 3 and no stdout, or the first
# 16 hex digits of the stdout sha256, with exit 0 and no stderr
_MATRIX_RECORDED = {
    "zero u": ("u[3] = 0",) * 9,
    "zero v": ("v[2] = 0",) * 9,
    "non-positive q": ("q[4] = -1",) * 9,
    "zero u and v": ("u[2] = 0", "u[2] = 0", "v[2] = 0", "v[2] = 0") + ("u[2] = 0",) * 5,
    "zero u at 15": ("u[15] = 0",) * 9,
    "zero v at 15": ("v[15] = 0",) * 9,
    "zero u at 16": (
        "d39a16a546b559b0", "4ee440e9c3e38679", "a31c97ffe3ce7dde", "146ca947f14e7829", "60e4c43adb01ec18",
        "38bca08c08897f22", "c0efd741b6e7ba44", "38698ddff56872da", "d8df47fd6febbe2a",
    ),
    "zero v at 16": (
        "147ef427395e3245", "2808e045ec3a8461", "b5935059cde7c130", "cfa9c800af356666", "65fbc6a5930945f9",
        "b52d521f3e6f4c51", "47c6b012352da22c", "6a62f0a0b358b32a", "cfb31c7f798ef5cc",
    ),
    "non-positive q at 15": ("q[15] = -1",) * 9,
    "non-positive q at 16": (
        "5a3867da6147dc61", "c16df3e44d6ca37d", "7a87376dfc923687", "8c96dc4f2e9bf195", "54f2c58304c3c26a",
        "63873eb27573d383", "af901c6f85e51944", "ee1c91c630038f98", "56ec12fb3fd36a8f",
    ),
    "zero u at 5 and v at 2": ("v[2] = 0",) * 9,
}


@pytest.mark.parametrize("case", sorted(_MATRIX_CASES))
def test_matrix_of_each_shape_gives_the_recorded_outcome(case, capsys):
    requirement = "must be positive" if _MATRIX_CASES[case]["kind"] == "riesz" else "must be nonzero"
    for shape, recorded in zip(_RIGHT_SHAPES, _MATRIX_RECORDED[case], strict=True):
        code = cli.main(["matrix", "--spec", json.dumps(_shaped(_MATRIX_CASES[case], shape)), "--n", "16"])
        got = capsys.readouterr()
        if " = " in recorded:
            expected = (3, "", f"mathematical error: invalid weight {recorded}: {requirement}\n")
            assert (code, got.out, got.err) == expected, shape
        else:
            digest = hashlib.sha256(got.out.encode("utf-8")).hexdigest()[:16]
            assert (code, digest, got.err) == (0, recorded, ""), shape


# The stderr line each command gave before F = domain . B was read from its
# structure (for each B of _F_RIGHT), and before the alpha matrix's entries
# read the domain inverse where a has a zero term
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
        for b in _F_RIGHT
    ]
    commands.append(
        (["dual", "--a", json.dumps({"prefix": _ZERO_TERMS}), "--domain", _domain_spec(case), "--kind", "alpha"], alpha)
    )
    for argv, weight in commands:
        assert cli.main(argv + ["--n", "16"]) == 3
        got = capsys.readouterr()
        assert (got.out, got.err) == ("", f"mathematical error: invalid weight {weight}: {requirement}\n")


# The into-domain class test over G(u, v) at the truncation edge N = 48: the
# exit code and stderr of each probe as they were while F = domain . B for
# B = delta and cesaro_inv was scanned.  F's rows below N read no weight past
# index 47, although its cells below the band read v one index past their
# column, and u is reported before v at one index.
_HARMONIC = {"tail": {"kind": "harmonic"}}
_ZERO = {"kind": "zero"}
_EDGE_PROBES = {
    "v with 48 nonzero terms": (_HARMONIC, {"prefix": ["1"] * 48, "tail": _ZERO}, None),
    "v zero from 47": (_HARMONIC, {"prefix": ["1"] * 47, "tail": _ZERO}, "v[47] = 0"),
    "u and v zero from 47": (
        {"prefix": [str(k + 1) for k in range(47)], "tail": _ZERO},
        {"prefix": ["1"] * 47, "tail": _ZERO},
        "u[47] = 0",
    ),
    "v zero from 10": (_HARMONIC, {"prefix": ["1"] * 10, "tail": _ZERO}, "v[10] = 0"),
}


@pytest.mark.parametrize("b", _F_RIGHT)
@pytest.mark.parametrize("probe", sorted(_EDGE_PROBES))
def test_into_domain_at_the_truncation_edge_names_the_recorded_weight(probe, b, capsys):
    u, v, weight = _EDGE_PROBES[probe]
    domain = json.dumps({"label": "G", "u": u, "v": v})
    code = cli.main(["matclass", "--direction", "into_domain", "--matrix", b, "--domain", domain, "--y", "l1", "--n", "48"])
    got = capsys.readouterr()
    if weight is None:
        assert (code, got.err) == (0, "")
        assert json.loads(got.out)["report"]["transformed_condition"]["column_l1"]
    else:
        assert (code, got.out, got.err) == (3, "", f"mathematical error: invalid weight {weight}: must be nonzero\n")


def test_an_invalid_weight_at_depth_reads_one_row_of_entries(monkeypatch, capsys):
    """u vanishes at index 1000, and --n 1024.  A beta dual and an
    into-domain class test name u[1000], as the scans do, and read at most
    one row of the failing matrix's entries, so the error path does not
    fall back to the scans."""
    domain = json.dumps({"label": "G", "u": {"prefix": ["1"] * 1000 + ["0"], "tail": _ONES}, "v": "e"})
    rows = []

    def counted(build):
        def counted_build(*args):
            m = build(*args)
            entry = m.entry
            m.entry = lambda n, k: rows.append(n) or entry(n, k)
            return m

        return counted_build

    monkeypatch.setattr(duals, "beta_assoc", counted(duals.beta_assoc))
    monkeypatch.setattr(matclass, "compose", counted(compose))
    commands = [
        ["dual", "--a", "harmonic", "--domain", domain, "--kind", "beta"],
        ["matclass", "--direction", "into_domain", "--matrix", "cesaro", "--domain", domain, "--y", "l1"],
    ]
    for argv in commands:
        rows.clear()
        assert cli.main(argv + ["--n", "1024"]) == 3
        got = capsys.readouterr()
        assert (got.out, got.err) == ("", "mathematical error: invalid weight u[1000] = 0: must be nonzero\n")
        assert 0 < len(rows) <= 1001 and set(rows) == {1000}


_SMALL = st.builds(F, st.integers(-5, 5), st.integers(1, 6))
_PERIODIC = st.lists(_SMALL, min_size=1, max_size=3)
_SIDE = st.one_of(st.none(), st.lists(_SMALL.filter(bool), min_size=1, max_size=3))
_SHAPES = st.tuples(st.lists(_PERIODIC, max_size=3), st.lists(st.tuples(_SIDE, _SIDE), max_size=2))


def _periodic(values):
    return None if values is None else Seq(lambda j: values[j % len(values)])


def _shaped_triangle(shape):
    """The lower triangle of a shape (band values, term values): each band
    part, U and V is periodic in the values given (None the all-ones
    sequence), and every entry is read from the structure."""
    band, terms = shape
    structure = ([(_periodic(u), _periodic(v)) for u, v in terms], [_periodic(part) for part in band])
    t = Triangle(lambda n, k: F(0), structure=structure)
    t._entry = lambda n, k: _structure_entry(t, n, k)
    return t


def _list_cells(lists, size):
    """The cells of the leading square that integer lists (d, terms, bands)
    state, as Fractions."""
    d, terms, bands = lists
    at = lambda f, j: 1 if f is None else f[j]
    cells = [[F(0)] * size for _ in range(size)]
    for n in range(size):
        for k in range(n + 1):
            i = n - k
            value = bands[i][n] if i < len(bands) else sum(at(u, n) * at(v, k) for u, v in terms)
            cells[n][k] = F(value, d)
    return tuple(map(tuple, cells))


_TWO_TERMS = ([[F(2)], [F(-1), F(1, 2)]], [([F(1, 2), F(3)], [F(5)]), (None, [F(-2, 3), F(1)])])
_TWO_TERMS_WIDE = ([[F(1)], [F(3, 2)], [F(-2), F(1, 3)]], [([F(4)], None), ([F(1, 5), F(-1)], [F(2), F(3, 4)])])


@settings(max_examples=100, deadline=None)
@given(_SHAPES, _SHAPES)
@example(_TWO_TERMS, _TWO_TERMS)
@example(_TWO_TERMS, _TWO_TERMS_WIDE)
@example(_TWO_TERMS_WIDE, _TWO_TERMS)
@example(_TWO_TERMS_WIDE, _TWO_TERMS_WIDE)
def test_product_rule_property(left, right):
    """Triangles of 0 to 3 band parts and 0 to 2 terms, each read from its
    structure: the cells of the product's integer lists and the dense
    product of the truncations are equal at every size from 1 to 10, and
    then from 10 down to 1, where the lists are the heads of those kept at
    10."""
    a, b = _shaped_triangle(left), _shaped_triangle(right)
    product = compose(a, b)
    for size in (*range(1, 11), *range(10, 0, -1)):
        expected = dense_mul(truncate(a, size), truncate(b, size))
        assert _list_cells(_lists(product, size, _INTEGERS), size) == expected, size


@settings(max_examples=50, deadline=None)
@given(_SHAPES, _SHAPES, st.integers(1, 10))
def test_product_lists_have_a_value_per_row_and_column(left, right, size):
    """A product's integer lists hold size values for each band part and U,
    and one value per column below the band for each V, also when the band
    is wider than size."""
    d, terms, bands = _lists(compose(_shaped_triangle(left), _shaped_triangle(right)), size, _INTEGERS)
    cols = max(size - len(bands), 0)
    assert all(len(part) == size for part in bands)
    assert all((u is None or len(u) == size) and (v is None or len(v) == cols) for u, v in terms)


@pytest.mark.parametrize("ratio", [None, spaces.fmt_ratio])
def test_a_truncated_product_of_two_means_keeps_no_lists(ratio):
    """A product of two means is truncated from its factors' lists: its
    own lists, built only to name an invalid weight, are not kept on it,
    and the lists it kept before stay."""
    for build in (lambda: compose(builders.sigma_sum(), builders.cesaro()), _PRODUCTS["cesaro.cesaro"]):
        m = build()
        rows = truncate(m, 64, ratio)
        assert m._kept == (None, 0, None)
        assert all(f._kept[1] == 64 for f in m._factors)
        assert tuple(rows) == tuple(truncate(build(), 64, ratio))
        _lists(m, 16, _INTEGERS)
        kept = m._kept
        truncate(m, 32, ratio)
        assert m._kept is kept


@pytest.mark.parametrize("ratio", [None, spaces.fmt_ratio])
def test_a_late_invalid_weight_truncates_no_more_than_one_row_of_entries(ratio):
    """u is 1/2 up to index 248 and 0 from there: truncating gamma at N =
    256 names u[248], as the entry scan does, and leaves at most one row in
    the matrix's entry cache, so the error path does not fall back to the
    scan.  A second truncation names it again: neither gamma nor its mean
    keeps lists of a size whose build failed, 249 rows or more."""
    pair = builders.WeightPair(Seq.from_values([F(1, 2)] * 248), Seq.constant(1))
    with pytest.raises(InvalidWeightsError) as scanned:
        _entry_scan(builders.gamma(pair), 256)
    m = builders.gamma(pair)
    for _ in range(2):
        with pytest.raises(InvalidWeightsError) as read:
            truncate(m, 256, ratio)
        assert str(read.value) == str(scanned.value) == "invalid weight u[248] = 0: must be nonzero"
    assert all(x._kept[1] < 249 for x in (m, m._factors[1]))
    assert len({n for n, _ in m._cache}) <= 1
