"""Identities of the transforms, and the rows of truncations, at depth.

At N = 1024 a seeded sequence x of 32-bit integers is transformed through
``apply`` by the means phi, gamma(u, v) and sigma_riesz(q), with the power
and geometric weights of the benchmark, and by the two-term product
cesaro.(phi.delta).  T(T^-1 x) = x checks each derived inverse against its
triangle, and (cesaro.T)x = cesaro(Tx) checks the product's structure
against its factors.  The rows of the truncations of the one-term
structures, dotted with x, give the coordinates of ``apply``: the
structured read of ``truncate`` against the structured transform, at 16
evenly spaced rows from the first to the last."""

import random
from fractions import Fraction as F

import pytest

from bvdomains.builders import RieszWeights, WeightPair, cesaro, delta, gamma, phi, sigma_riesz
from bvdomains.core import Seq, apply, compose, invert, truncate

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
