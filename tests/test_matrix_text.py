"""The text that ``matrix`` prints of a triangle whose structure has at most
one term, of a product of two means and of a product of two or more terms,
checked against ``spaces.fmt`` of the entry scan's cells, and the exit that
decides between an invalid weight and a cell with too many digits.

The one-term structures are the named triangles, delta times each mean,
inverses of the means and of domain matrices, the weights of the
benchmark's ``matrix_dump`` workload and the signed and rational weight
pairs of the verify suites, and the shapes whose pair lists the product
rule makes from their factors': a mean times delta or cesaro_inv and the
converse, delta.delta with no terms, phi.delta and a nested
delta.(delta.mean).  The products of two means are every ordered
pair of the sum matrix, the Cesaro mean and the weighted and Riesz means
of those weights.  The products of two or more terms are every such
ordered pair of the sum matrix, the Cesaro mean, delta, cesaro_inv, phi, a
weighted and a Riesz mean, gamma and sigma_riesz that is no product of two
means, and three nests of more factors; no entry of any of them is read.
Each is checked at N = 1, 2, 17 and 64 in csv and json.  Five deep cases
at N = 512 are checked against the sha256 digests of their csv text.  A
product of two means, or of two terms with a factor that is no mean, whose
factors have invalid weights at different indices exits as the entry scan
reports, and such a product or a one-term product whose only invalid
weights lie past N prints."""

import contextlib
import hashlib
import io
import json
from fractions import Fraction as F

import pytest

from bvdomains import cli, spaces
from bvdomains.builders import cesaro, phi, phi_closed_form, sigma_sum
from bvdomains.core import InvalidWeightsError, _entry_scan, _mean_term, compose, truncate

_SIZES = (1, 2, 17, 64)


def _tail(kind, **params):
    return {"tail": {"kind": kind, **params}}


def _listed(f, last=64):
    """The sequence f(0), ..., f(last) as a prefix of literals, then 1."""
    return {"prefix": [str(f(k)) for k in range(last + 1)], "tail": {"kind": "const", "c": "1"}}


# the benchmark's weights: u and v of G(u, v), and q of R^q
_U = (_tail("harmonic"), _tail("power", p=2), _tail("geometric", r="1/2"))
_V = (_tail("const", c="1"), _tail("harmonic"), _tail("geometric", r="2"))
_PAIRS = {**{f"{i}": (u, v) for i, (u, v) in enumerate(zip(_U, _V))}, "3": (_U[0], _V[2])}
_PAIRS["signed"] = (_listed(lambda n: F((-1) ** n, n + 1)), _listed(lambda k: F(1, k + 1)))
_PAIRS["rational"] = (_listed(lambda n: F(2, 2 * n + 1)), _listed(lambda k: F(k + 2, 2)))
_Q = {
    "1": _tail("const", c="1"),
    "harmonic": _tail("harmonic"),
    "k+1": _listed(lambda k: k + 1),
    "2^k": _tail("geometric", r="2"),
}

_ONE_TERM = {
    **{kind: {"kind": kind} for kind in ("delta", "sum", "cesaro", "cesaro_inv", "phi")},
    **{f"{kind}[{name}]": {"kind": kind, "u": u, "v": v} for kind in ("weighted", "gamma") for name, (u, v) in _PAIRS.items()},
    **{f"{kind}[{name}]": {"kind": kind, "q": q} for kind in ("riesz", "sigma_riesz") for name, q in _Q.items()},
    "delta.cesaro": {"kind": "compose", "of": [{"kind": "delta"}, {"kind": "cesaro"}]},
    "delta.weighted[signed]": {
        "kind": "compose",
        "of": [{"kind": "delta"}, {"kind": "weighted", "u": _PAIRS["signed"][0], "v": _PAIRS["signed"][1]}],
    },
    "delta.riesz[k+1]": {"kind": "compose", "of": [{"kind": "delta"}, {"kind": "riesz", "q": _Q["k+1"]}]},
    "inverse_of(weighted[rational])": {
        "kind": "inverse_of",
        "of": {"kind": "weighted", "u": _PAIRS["rational"][0], "v": _PAIRS["rational"][1]},
    },
    "inverse_of(phi)": {"kind": "inverse_of", "of": {"kind": "phi"}},
    "inverse_of(gamma[rational])": {
        "kind": "inverse_of",
        "of": {"kind": "gamma", "u": _PAIRS["rational"][0], "v": _PAIRS["rational"][1]},
    },
    "cesaro.delta": {"kind": "compose", "of": [{"kind": "cesaro"}, {"kind": "delta"}]},
    "sum.cesaro_inv": {"kind": "compose", "of": [{"kind": "sum"}, {"kind": "cesaro_inv"}]},
    "cesaro_inv.riesz[2^k]": {"kind": "compose", "of": [{"kind": "cesaro_inv"}, {"kind": "riesz", "q": _Q["2^k"]}]},
    "delta.delta": {"kind": "compose", "of": [{"kind": "delta"}, {"kind": "delta"}]},
    "phi.delta": {"kind": "compose", "of": [{"kind": "phi"}, {"kind": "delta"}]},
    "delta.(delta.weighted[signed])": {
        "kind": "compose",
        "of": [
            {"kind": "delta"},
            {"kind": "compose", "of": [{"kind": "delta"}, {"kind": "weighted", "u": _PAIRS["signed"][0], "v": _PAIRS["signed"][1]}]},
        ],
    },
}


_MEANS = {
    "sum": {"kind": "sum"},
    "cesaro": {"kind": "cesaro"},
    **{f"weighted[{name}]": {"kind": "weighted", "u": u, "v": v} for name, (u, v) in _PAIRS.items()},
    **{f"riesz[{name}]": {"kind": "riesz", "q": q} for name, q in _Q.items()},
}
_MEAN_PRODUCTS = {f"{a}.{b}": {"kind": "compose", "of": [_MEANS[a], _MEANS[b]]} for a in _MEANS for b in _MEANS}

# the products of two or more terms that are no products of two means: every
# such ordered pair of these factors, and three nests of more factors
_FACTORS = {
    **{kind: {"kind": kind} for kind in ("sum", "cesaro", "delta", "cesaro_inv", "phi")},
    "weighted[2]": _MEANS["weighted[2]"],
    "riesz[2^k]": _MEANS["riesz[2^k]"],
    "gamma[1]": {"kind": "gamma", "u": _PAIRS["1"][0], "v": _PAIRS["1"][1]},
    "sigma_riesz[harmonic]": {"kind": "sigma_riesz", "q": _Q["harmonic"]},
}
_MANY_TERMS = {
    **{f"{a}.{b}": {"kind": "compose", "of": [_FACTORS[a], _FACTORS[b]]} for a in _FACTORS for b in _FACTORS},
    "cesaro.cesaro.cesaro": {"kind": "compose", "of": ["cesaro", "cesaro", "cesaro"]},
    "cesaro.(phi.delta)": {"kind": "compose", "of": ["cesaro", {"kind": "compose", "of": ["phi", "delta"]}]},
    "sum.phi.cesaro.delta": {"kind": "compose", "of": ["sum", "phi", "cesaro", "delta"]},
}


def _parsed(spec):
    return cli.parse_matrix_spec(json.dumps(spec))[0]


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_text_is_the_formatted_entry_scan(spec, takes_read):
    """At each size, truncate of the parsed matrix equals the entry scan of
    another parse, and matrix prints fmt of the scan's cells.
    takes_read(matrix) says whether the matrix takes the structured read
    under test, and may make its entries fail, so that a truncate that
    reads one fails the test."""
    for size in _SIZES:
        matrix, resolved = cli.parse_matrix_spec(spec)
        assert takes_read(matrix)
        scan = _entry_scan(cli.parse_matrix_spec(spec)[0], size)
        assert truncate(matrix, size) == scan, size
        for fmt, text in _formatted(scan, resolved).items():
            assert _run("matrix", "--spec", spec, "--n", str(size), "--format", fmt) == (0, text, ""), (size, fmt)


def _formatted(scan, resolved):
    """The csv and json text of matrix: fmt of the entry scan's cells."""
    cells = [[spaces.fmt(v) for v in row] for row in scan]
    return {
        "csv": "\n".join(map(",".join, cells)) + "\n",
        "json": json.dumps(cli._envelope("matrix", resolved, len(scan), "entries", cells), indent=2) + "\n",
    }


@pytest.mark.parametrize("name", sorted(_ONE_TERM))
def test_matrix_text_is_the_formatted_entry_scan(name):
    _assert_text_is_the_formatted_entry_scan(
        json.dumps(_ONE_TERM[name]), lambda m: m.structure is not None and len(m.structure[0]) <= 1
    )


def _no_entry(n, k):
    raise AssertionError(f"entry ({n}, {k}) read")


def _mean_product_without_entries(matrix):
    """Whether matrix is a structured product of two means; its entries are
    made to fail."""
    matrix.entry = _no_entry
    return len(matrix.structure[0]) == 2 and None not in map(_mean_term, matrix._factors)


@pytest.mark.parametrize("name", sorted(_MEAN_PRODUCTS))
def test_mean_product_text_is_the_formatted_entry_scan(name):
    _assert_text_is_the_formatted_entry_scan(json.dumps(_MEAN_PRODUCTS[name]), _mean_product_without_entries)


def _many_terms_without_entries(matrix):
    """Whether matrix is a structured product of two or more terms that is
    no product of two means; its entries are made to fail."""
    matrix.entry = _no_entry
    return len(matrix.structure[0]) >= 2 and None in map(_mean_term, matrix._factors)


_MANY_TERM_NAMES = sorted(name for name, spec in _MANY_TERMS.items() if _many_terms_without_entries(_parsed(spec)))


@pytest.mark.parametrize("name", _MANY_TERM_NAMES)
def test_many_term_product_text_is_the_formatted_entry_scan(name):
    """Read from the product's own pair lists, each cell below the band the
    sum of the terms' products."""
    _assert_text_is_the_formatted_entry_scan(json.dumps(_MANY_TERMS[name]), _many_terms_without_entries)


def test_the_many_term_products_are_every_pair_of_factors_with_terms():
    """The pairs whose factors both have a term, less the 16 products of
    two means, and the three nests."""
    assert len(_MANY_TERM_NAMES) == 7 * 7 - 16 + 3


@pytest.mark.parametrize(
    "build, terms",
    [
        (phi, 1),
        (lambda: compose(sigma_sum(), cesaro()), 2),
        (lambda: compose(sigma_sum(), phi()), 2),
        (phi_closed_form, None),
    ],
)
def test_truncate_makes_every_cell_with_its_one_text_constructor(build, terms):
    """Given ratio alone, every cell of the text rows is a str, fmt of the
    entry scan's cell: for phi, whose one-term structure is read row by
    row, the zeros and the band cells too, for sum.cesaro, read from its
    factors' lists, the zeros above the diagonal too, for sum.phi, whose
    two terms are read from its own lists (phi is no mean), every sum of
    products, and for phi's closed form, which declares no structure and
    is scanned, every cell."""
    structure = build().structure
    assert (None if structure is None else len(structure[0])) == terms
    for size in (1, 2, 17):
        rows = tuple(truncate(build(), size, ratio=spaces.fmt_ratio))
        assert all(type(cell) is str for row in rows for cell in row), size
        assert rows == tuple(tuple(map(spaces.fmt, row)) for row in _entry_scan(build(), size)), size


_DEEP = {
    "gamma(power 2, 2^k)": (
        {"kind": "gamma", "u": _tail("power", p=2), "v": _tail("geometric", r="2")},
        "822653a17fcaac9e9aa50f0c7f35d95bee43b6001693778baf0cdaf50f9e1ecf",
    ),
    "sigma_riesz(harmonic)": (
        {"kind": "sigma_riesz", "q": _tail("harmonic")},
        "42ce001b4c874f5a31cebcef1f70f55fca1dc02416a0f9f8673c4b4d4290be28",
    ),
    # recorded while products of two means were scanned
    "sum.cesaro": (
        {"kind": "compose", "of": [{"kind": "sum"}, {"kind": "cesaro"}]},
        "36a39b6566da127319f653b6e37e440c0a8cc7c356237e6287d6e41b565dde38",
    ),
    # recorded while products of two or more terms, but for two means, were scanned
    "cesaro.(phi.delta)": (
        {"kind": "compose", "of": [{"kind": "cesaro"}, {"kind": "compose", "of": [{"kind": "phi"}, {"kind": "delta"}]}]},
        "1d34cb9b1a40914d820e9208e93a604a23d8b419feef9d07ac5393b47a793ac4",
    ),
    "phi.phi": (
        {"kind": "compose", "of": [{"kind": "phi"}, {"kind": "phi"}]},
        "6fb396087d8bf78d36352316dd16e43e05600369da3afd5308d3eb92e5b2ce62",
    ),
}


@pytest.mark.parametrize("name", sorted(_DEEP))
def test_deep_matrix_text_has_the_recorded_digest(name, tmp_path):
    spec, digest = _DEEP[name]
    out = tmp_path / "matrix.csv"
    argv = ["matrix", "--spec", json.dumps(spec), "--n", "512", "--format", "csv", "--out", str(out)]
    assert _run(*argv) == (0, "", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_TOO_MANY_DIGITS = (
    "error: a result has too many digits to print; use a smaller --n or smaller"
    " spec parameters (power p, geometric r, rational literals)\n"
)


def _precedence_spec(u):
    return json.dumps({"kind": "weighted", "u": u, "v": _tail("geometric", r="1e200")})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_invalid_weight_wins_over_too_many_digits(fmt):
    """v(k) = 10^(200 k) has too many digits to print from k = 22 on, and
    u[40] = 0 is invalid: every value is read before any cell is printed,
    so the weight is reported (exit 3), as the entry scan reports it.  With
    every u valid, the digits are (exit 2)."""
    invalid = _precedence_spec({"prefix": ["1"] * 40, "tail": {"kind": "zero"}})
    code, out, err = _run("matrix", "--spec", invalid, "--n", "64", "--format", fmt)
    assert (code, out, err) == (3, "", "mathematical error: invalid weight u[40] = 0: must be nonzero\n")
    valid = _precedence_spec(_tail("const", c="1"))
    assert _run("matrix", "--spec", valid, "--n", "64", "--format", fmt) == (2, "", _TOO_MANY_DIGITS)


def _ones_then(index, value):
    """A weight sequence of ones but for value at index."""
    return {"prefix": ["1"] * index + [value], "tail": {"kind": "const", "c": "1"}}


# means with an invalid weight at different indices, and a valid one
_WEIGHTED_MEANS = {
    "u[3] = 0": {"kind": "weighted", "u": _ones_then(3, "0"), "v": _tail("harmonic")},
    "v[1] = 0": {"kind": "weighted", "u": _tail("harmonic"), "v": _ones_then(1, "0")},
    "q[2] = -1": {"kind": "riesz", "q": _ones_then(2, "-1")},
    "valid": {"kind": "weighted", "u": _tail("harmonic"), "v": _tail("power", p=2)},
}


# factors that have a term and are no means, two with an invalid weight
_NON_MEANS = {
    "phi": {"kind": "phi"},
    "gamma u[2] = 0": {"kind": "gamma", "u": _ones_then(2, "0"), "v": _tail("harmonic")},
    "sigma_riesz q[4] = -1": {"kind": "sigma_riesz", "q": _ones_then(4, "-1")},
}
_WITH_TERMS = {**_NON_MEANS, **_WEIGHTED_MEANS}
_VALID = ("phi", "valid")


def _assert_exit_is_the_entry_scan(of):
    """The product of the specs of exits 3 at N = 16 naming the weight that
    the entry scan meets first, although the structured read meets the
    weights in another order."""
    spec = json.dumps({"kind": "compose", "of": of})
    with pytest.raises(InvalidWeightsError) as scanned:
        _entry_scan(cli.parse_matrix_spec(spec)[0], 16)
    for fmt in ("csv", "json"):
        got = _run("matrix", "--spec", spec, "--n", "16", "--format", fmt)
        assert got == (3, "", f"mathematical error: {scanned.value}\n"), fmt


@pytest.mark.parametrize(
    "a, b", [(a, b) for a in _WEIGHTED_MEANS for b in _WEIGHTED_MEANS if (a, b) != ("valid", "valid")]
)
def test_a_mean_product_with_invalid_weights_exits_as_the_entry_scan(a, b):
    """A product of two means whose factors have invalid weights at
    different indices, in either order, or one invalid factor and a valid
    one."""
    _assert_exit_is_the_entry_scan([_WEIGHTED_MEANS[a], _WEIGHTED_MEANS[b]])


@pytest.mark.parametrize(
    "a, b",
    [
        (a, b)
        for a in _WITH_TERMS
        for b in _WITH_TERMS
        if (a in _NON_MEANS or b in _NON_MEANS) and not (a in _VALID and b in _VALID)
    ],
)
def test_a_many_term_product_with_invalid_weights_exits_as_the_entry_scan(a, b):
    """A product of two terms that is no product of two means, read from its
    own pair lists: factors with invalid weights at different indices, in
    either order, or one invalid factor and a valid one."""
    _assert_exit_is_the_entry_scan([_WITH_TERMS[a], _WITH_TERMS[b]])


def _one_term_product_without_entries(matrix):
    """Whether matrix is a structured product whose structure has one
    term; its entries are made to fail."""
    matrix.entry = _no_entry
    return matrix._factors is not None and len(matrix.structure[0]) == 1


def _assert_invalid_weights_past_n_print(index, partner, takes_read):
    """At N = 16 a product of a mean with an invalid weight at index, with
    partner on either side or with itself, reads no weight at index 16 or
    past it, so it is read by takes_read's structured read and printed."""
    invalid = [
        {"kind": "weighted", "u": _ones_then(index, "0"), "v": _tail("harmonic")},
        {"kind": "weighted", "u": _tail("harmonic"), "v": _ones_then(index, "0")},
        {"kind": "riesz", "q": _ones_then(index, "-1")},
    ]
    for mean in invalid:
        for of in ([mean, partner], [partner, mean]) if partner else ([mean, mean],):
            spec = json.dumps({"kind": "compose", "of": of})
            matrix, resolved = cli.parse_matrix_spec(spec)
            assert takes_read(matrix)
            scan = _entry_scan(cli.parse_matrix_spec(spec)[0], 16)
            assert truncate(matrix, 16) == scan
            for fmt, text in _formatted(scan, resolved).items():
                assert _run("matrix", "--spec", spec, "--n", "16", "--format", fmt) == (0, text, ""), (of, fmt)


@pytest.mark.parametrize("index", [16, 17])
@pytest.mark.parametrize("partner", ["phi", "gamma[1]"])
def test_a_many_term_product_whose_invalid_weights_lie_past_n_prints(index, partner):
    """A factor with a term that is no mean on either side of the mean: the
    product has two terms, read from its own pair lists."""
    _assert_invalid_weights_past_n_print(index, _FACTORS[partner], _many_terms_without_entries)


@pytest.mark.parametrize("index", [16, 17])
def test_a_mean_product_whose_invalid_weights_lie_past_n_prints(index):
    """The invalid weight in either factor, or in both."""
    _assert_invalid_weights_past_n_print(index, _WEIGHTED_MEANS["valid"], _mean_product_without_entries)
    _assert_invalid_weights_past_n_print(index, None, _mean_product_without_entries)


@pytest.mark.parametrize("index", [16, 17])
@pytest.mark.parametrize("partner", ["delta", "cesaro_inv"])
def test_a_one_term_product_whose_invalid_weights_lie_past_n_prints(index, partner):
    """A band-only factor on either side of the mean: the product has one
    term, read from its factors' pair lists."""
    _assert_invalid_weights_past_n_print(index, {"kind": partner}, _one_term_product_without_entries)
