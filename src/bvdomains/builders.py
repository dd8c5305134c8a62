"""Constructors for the named triangle matrices and their basis columns.

The composed domain matrices (phi, gamma, sigma_riesz) are *defined* as
compose(delta(), mean) and never by printed closed forms; the closed forms are
provided separately as independent oracles (``*_closed_form``).

The Riesz mean R^q is the generalized weighted mean G(u, v) with u_n = 1/Q_n
and v_k = q_k, so ``RieszWeights`` is a weight pair and ``riesz`` is
``weighted_mean`` applied to it.

The leaf values in lowest terms as made, the Cesaro weight 1/(n+1) and
u_n = 1/Q_n, the swapped pair of a running sum of reduced pairs, are built
by ``core._coprime`` with no gcd, and a weight is checked on its
numerator's sign.  ``big_q``, the ``Fraction`` running sum of q, stays the
oracle of those sums, as the closed forms stay the oracles of ``compose``.

Each mean declares the structure of ``core``, one term: (1, 1), (1/(n+1),
1) or (u_n, v_k), the last read through the validating accessors, so an
invalid weight is reported as the entries report it.  ``invert`` derives a
mean's bidiagonal inverse from that term, so delta and the Cesaro mean's
inverse are the inverses of the partial-sum matrix and the Cesaro mean, and
a domain matrix inverts through its factors, never by forward substitution.
A bidiagonal inverse declares its diagonal and subdiagonal as a band.
``compose`` then gives each domain matrix delta.mean, and its inverse, one
term and a diagonal band part, so a product with any of them on the right
costs O(N^2), not O(N^3).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import (
    ONE,
    InvalidWeightsError,
    Seq,
    Triangle,
    _coprime,
    _padd,
    _running,
    compose,
    invert,
    running_sum,
)


def delta() -> Triangle:
    """Backward difference matrix: 1 on the diagonal, -1 on the first
    subdiagonal; the inverse of the partial-sum matrix."""
    return invert(sigma_sum())


def sigma_sum() -> Triangle:
    """Partial-sum matrix (all ones on and below the diagonal)."""
    return Triangle(lambda n, k: ONE, structure=([(None, None)], []))


def cesaro() -> Triangle:
    """Cesaro mean of order one: row n averages the first n+1 terms."""
    return Triangle(
        lambda n, k: _coprime(1, n + 1),
        structure=([(Seq(lambda n: _coprime(1, n + 1)), None)], []),
    )


def cesaro_inverse() -> Triangle:
    """Inverse of the Cesaro mean: x_n = (n+1)y_n - n*y_{n-1}."""
    return invert(cesaro())


class WeightPair(namedtuple("WeightPair", "u v")):
    """Weights (u, v) for the generalized weighted mean; both nowhere zero.

    Validity is checked lazily at probe time, failing with the offending index.
    """

    __slots__ = ()

    def u_at(self, n: int) -> Fraction:
        value = self.u(n)
        if not value.numerator:
            raise InvalidWeightsError("u", n, value, "must be nonzero")
        return value

    def v_at(self, k: int) -> Fraction:
        value = self.v(k)
        if not value.numerator:
            raise InvalidWeightsError("v", k, value, "must be nonzero")
        return value


class RieszWeights:
    """Positive weights q with partial sums Q_n = q_0 + ... + q_n (Q_{-1} = 0).

    They are also the weight pair u_n = 1/Q_n, v_k = q_k that turns G(u, v)
    into R^q, read through ``u_at`` and ``v_at``.  ``u_at`` (memoized) is
    the swapped pair of Q_n from a locked running sum of reduced pairs
    (``core._padd``) that reads q in order; ``big_q``, the ``Fraction``
    running sum of q, is its oracle.
    """

    def __init__(self, q: Seq):
        self.q = q
        self.big_q = running_sum(self.q_at)
        pair_q = _running(lambda k: self.q_at(k).as_integer_ratio(), _padd, (0, 1))

        def u(n: int) -> Fraction:
            num, den = pair_q(n)
            return _coprime(den, num)

        self.u_at = Seq(u)

    def q_at(self, k: int) -> Fraction:
        value = self.q(k)
        if value.numerator <= 0:
            raise InvalidWeightsError("q", k, value, "must be positive")
        return value

    v_at = q_at


def weighted_mean(w: WeightPair | RieszWeights) -> Triangle:
    """Generalized weighted (factorable) mean: entry(n,k) = u_n * v_k.

    ``invert`` derives its bidiagonal inverse from its one term: 1/(u_n v_n)
    on the diagonal and -1/(u_{n-1} v_n) below it.
    """
    return Triangle(lambda n, k: w.u_at(n) * w.v_at(k), structure=([(w.u_at, w.v_at)], []))


def riesz(r: RieszWeights) -> Triangle:
    """Riesz mean: entry(n,k) = q_k / Q_n, the weighted mean G(1/Q, q).

    Its inverse is bidiagonal: Q_n/q_n on the diagonal and -Q_{n-1}/q_n
    below it.
    """
    return weighted_mean(r)


def phi() -> Triangle:
    """Domain matrix of bv(C): delta composed after the Cesaro mean."""
    return compose(delta(), cesaro())


def gamma(w: WeightPair) -> Triangle:
    """Domain matrix of bv(G): delta composed after the weighted mean."""
    return compose(delta(), weighted_mean(w))


def sigma_riesz(r: RieszWeights) -> Triangle:
    """Domain matrix of bv(R): delta composed after the Riesz mean."""
    return compose(delta(), riesz(r))


def phi_closed_form() -> Triangle:
    """Independent oracle: -1/(n(n+1)) below the diagonal, 1/(n+1) on it."""

    def entry(n, k):
        if n == 0:
            return ONE
        if k == n:
            return Fraction(1, n + 1)
        return Fraction(-1, n * (n + 1))

    return Triangle(entry)


def gamma_closed_form(w: WeightPair) -> Triangle:
    """Independent oracle: (u_n - u_{n-1}) v_k below the diagonal, u_n v_n on it."""

    def entry(n, k):
        if k == n:
            return w.u_at(n) * w.v_at(k)
        return (w.u_at(n) - w.u_at(n - 1)) * w.v_at(k)

    return Triangle(entry)


def sigma_closed_form(r: RieszWeights) -> Triangle:
    """Independent oracle: (1/Q_n - 1/Q_{n-1}) q_k below the diagonal, q_n/Q_n on it."""

    def entry(n, k):
        if k == n:
            return r.q_at(n) / r.big_q(n)
        return (1 / r.big_q(n) - 1 / r.big_q(n - 1)) * r.q_at(k)

    return Triangle(entry)


def basis_column(t: Triangle, k: int) -> Seq:
    """Column k of the inverse of t, as a Seq.

    These columns are the Schauder-basis elements of the matrix domain:
    applying t to the result reproduces the k-th coordinate sequence.
    """
    inv = invert(t)
    return Seq(lambda n: inv.entry(n, k))


class Domain(namedtuple("Domain", "label matrix weights", defaults=(None,))):
    """A bv matrix domain: its label "C", "G" or "R", its triangle
    ``matrix``, and the ``weights`` used, a WeightPair, RieszWeights or
    None."""

    __slots__ = ()


def cesaro_domain() -> Domain:
    return Domain("C", phi())


def weighted_domain(w: WeightPair) -> Domain:
    return Domain("G", gamma(w), w)


def riesz_domain(r: RieszWeights) -> Domain:
    return Domain("R", sigma_riesz(r), r)
