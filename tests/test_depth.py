"""Identities of the transforms, and the rows of truncations, at depth.

At N = 1024 a seeded sequence x of 32-bit integers is transformed through
``apply`` by the means phi, gamma(u, v) and sigma_riesz(q), with the power
and geometric weights of the benchmark, and by the two-term product
cesaro.(phi.delta).  ``apply`` reads their pair lists, and its coordinates
are the lazy transform's, which is the entry loop over each row's entries,
a product's as ``compose`` makes them, at 16 evenly spaced coordinates.
T(T^-1 x) = x checks each derived inverse against its triangle, and
(cesaro.T)x = cesaro(Tx) checks the product's structure against its
factors.  The rows of the truncations of the one-term
structures, dotted with x, give the coordinates of ``apply``: the
structured read of ``truncate`` against the structured transform, at 16
evenly spaced rows from the first to the last.

The identities are also checked through the entry loop, at N = 256: with
T's structure removed after its inverse and cesaro.T are made from it,
``apply`` reads T's entries as ``compose`` makes them, against the
structured transforms of the inverse and the product.  The structured
rows, made one at a time as reduced (p, q) pairs, are checked at N = 4096
and 2048, the rows that ``truncate`` reads of a product of two means from
its factors' pair lists at N = 1024, and every row of the two-term product
riesz(harmonic).gamma(power 2, harmonic) at N = 256, against ``apply``'s
coordinates through the product's structure."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from bvdomains.builders import RieszWeights, WeightPair, cesaro, delta, gamma, phi, riesz, sigma_riesz, sigma_sum
from bvdomains.core import (
    _PAIRS,
    Seq,
    _lists,
    _mean_product_rows,
    _structure_rows,
    apply,
    compose,
    invert,
    transform_seq,
    truncate,
)

N = 1024

_TRIANGLES = {
    "phi": phi,
    "cesaro.(phi.delta)": lambda: compose(cesaro(), compose(phi(), delta())),
    "gamma(power 2, harmonic)": lambda: gamma(
        WeightPair(Seq(lambda k: F(1, (k + 1) ** 2)), Seq(lambda k: F(1, k + 1)))
    ),
    "sigma_riesz(2^k)": lambda: sigma_riesz(RieszWeights(Seq(lambda k: F(2) ** k))),
}


def _integers(size, seed=1):
    rng = random.Random(seed)
    return [rng.randrange(-(2**31), 2**31) for _ in range(size)]


@pytest.mark.parametrize("name", sorted(_TRIANGLES))
def test_transform_identities_hold_at_depth(name):
    t, values = _TRIANGLES[name](), _integers(N)
    x = Seq.from_values(values)
    assert apply(t, Seq.from_values(apply(invert(t), x, N)), N) == values
    assert apply(compose(cesaro(), t), x, N) == apply(cesaro(), Seq.from_values(apply(t, x, N)), N)


@pytest.mark.parametrize("name", sorted(_TRIANGLES))
def test_list_transform_at_depth_is_the_lazy_transform(name):
    """apply's coordinates, made from the pair lists, at 16 evenly spaced
    coordinates of the lazy transform, the entry loop, read from the far
    end first."""
    t, values = _TRIANGLES[name](), _integers(N, seed=2)
    x = Seq.from_values(values)
    got = apply(t, x, N)
    lazy = transform_seq(_TRIANGLES[name](), x)
    for n in sorted((i * (N - 1) // 15 for i in range(16)), reverse=True):
        assert got[n] == lazy(n), n


@pytest.mark.parametrize("name", ["phi", "cesaro.(phi.delta)"])
def test_transform_identities_hold_through_the_entry_loop(name):
    size = 256
    t, values = _TRIANGLES[name](), _integers(size)
    inverse, product = invert(t), compose(cesaro(), t)
    t.structure = None
    x = Seq.from_values(values)
    assert apply(t, Seq.from_values(apply(inverse, x, size)), size) == values
    assert apply(product, x, size) == apply(cesaro(), Seq.from_values(apply(t, x, size)), size)


@pytest.mark.parametrize("name,size", [("phi", 4096), ("gamma(power 2, harmonic)", 2048)])
def test_structured_rows_at_depth_are_reduced_and_dot_to_the_transform(name, size):
    t, values = _TRIANGLES[name](), _integers(size)
    tx = apply(t, Seq.from_values(values), size)
    sampled = {i * (size - 1) // 15 for i in range(16)}
    rows = _structure_rows(_lists(t, size, _PAIRS)[1:], size, lambda p, q: (p, q))
    for n, row in enumerate(rows):
        if n not in sampled:
            continue
        assert len(row) == size
        assert all(q > 0 and gcd(p, q) == 1 for p, q in row), n
        assert sum((F(p, q) * x for (p, q), x in zip(row, values)), F(0)) == tx[n], n


@pytest.mark.parametrize(
    "name,size", [("phi", 1024), ("gamma(power 2, harmonic)", 1024), ("sigma_riesz(2^k)", 512)]
)
def test_truncation_rows_dotted_with_x_are_the_transform(name, size):
    t, values = _TRIANGLES[name](), _integers(size)
    rows = truncate(t, size)
    assert len(rows) == size and all(len(row) == size for row in rows)
    tx = apply(t, Seq.from_values(values), size)
    for n in (i * (size - 1) // 15 for i in range(16)):
        assert sum((c * v for c, v in zip(rows[n], values)), F(0)) == tx[n], n


_MEAN_PRODUCTS = {
    "sum.cesaro": lambda: compose(sigma_sum(), cesaro()),
    "riesz(2^k).cesaro": lambda: compose(riesz(RieszWeights(Seq(lambda k: F(2) ** k))), cesaro()),
}


@pytest.mark.parametrize("name", sorted(_MEAN_PRODUCTS))
def test_mean_product_rows_at_depth_are_reduced_and_dot_to_the_transform(name):
    """16 evenly spaced rows of a product of two means at N = 1024, each
    made alone from its factors' terms as reduced (p, q) pairs, dotted with
    x: ``apply`` computes the same coordinates by the product structure's
    combine of per-term prefix sums, which never forms a cell."""
    t, values = _MEAN_PRODUCTS[name](), _integers(N)
    tx = apply(t, Seq.from_values(values), N)
    row = _mean_product_rows(*(_lists(f, N, _PAIRS)[1:] for f in t._factors), N, lambda p, q: (p, q))
    for n in (i * (N - 1) // 15 for i in range(16)):
        cells = row(n)
        assert len(cells) == N and all(q > 0 and gcd(p, q) == 1 for p, q in cells), n
        assert sum((F(p, q) * x for (p, q), x in zip(cells, values)), F(0)) == tx[n], n


def test_many_term_rows_dotted_with_x_are_the_transform():
    """Every row of riesz(harmonic).gamma(power 2, harmonic) at N = 256, a
    product of two terms that truncate reads from its own pair lists, each
    cell the sum of the terms' products, with no entry of the product read,
    dotted with x: ``apply`` computes the same coordinates by the
    product's transform rule, which never forms a cell."""
    size = 256
    t = compose(riesz(RieszWeights(Seq(lambda k: F(1, k + 1)))), _TRIANGLES["gamma(power 2, harmonic)"]())
    assert len(t.structure[0]) == 2
    values = _integers(size, seed=3)
    tx = apply(t, Seq.from_values(values), size)
    t.entry = None
    rows = truncate(t, size)
    for n, row in enumerate(rows):
        assert sum((c * v for c, v in zip(row, values)), F(0)) == tx[n], n
