"""Exact lazy primitives: rational scalars, infinite sequences, lazy matrices.

Every scalar is a ``fractions.Fraction``, so all identities checked elsewhere in
the package are bit-exact rather than tolerance-based.  Sequences and matrices
are lazy (index -> value closures) with memoized entries, and a single object
may be shared across threads.  Memo lookups take no lock: entry closures are
pure, so the worst a race can do is compute one value twice and store equal
results.  What is built by appending, whose rows a race could misalign, is
synchronized: the forward-substitution rows of an inverse, the sums of
``running_sum`` and the prefix maxima of ``compose``'s row bounds.  The
lists of ``_build_lists`` are not appended to: they are whole values per
size, and a race can only build one twice.

There is one matrix class, ``BandedMatrix``: row n is supported in
``[n - band, row_bound(n)]``, and a finite matrix declares its row count.
``Triangle`` is its lower-triangular kind, the one that can be inverted; a
lower-triangular matrix that is never inverted (an associated dual matrix)
is a plain ``BandedMatrix``.  ``compose`` is the only matrix product: it
sums over the overlap of its factors' supports, records its factors on the
product, and returns a Triangle when both are triangles.  ``invert``
dispatches once on what a triangle states: one structure term and no band
(a mean) inverts to a bidiagonal, the order-one case of the quasiseparable
inverse of Eidelman and Gohberg (1999), and any other product A.B through
its factors as inverse(B).inverse(A), so the domain matrices invert at O(1)
cost per entry.  An inverse links back to its triangle.  Generic forward
substitution (``_build_inverse``) inverts every other triangle, a product's
factor included, and is the independent oracle the derived inverses are
checked against.

The oracles that work on whole rows are integer kernels, in the manner of
the fraction-free elimination of Bareiss (1968): ``dense_mul`` scales each row
of its left operand and each column of its right one to integers over its
own denominator lcm, and forward substitution keeps each inverse row once,
as (lcm, integer numerators), and makes a cell's ``Fraction`` when it is
read.  An entry is then one integer sum and one ``Fraction`` reduction
instead of a reduction per term.  ``_integers`` is the one scaling kernel,
which the integer lists of ``_build_lists`` also use.
The lazy entry loops, the transform coordinate ``_coordinate`` and
``compose``'s band-overlap entry, sum their terms as they read them with
``_dot``: one integer numerator over the running lcm of the products'
denominators, reduced once.  ``compose``'s whole-row kernel
``_row_times``, and the entry scans of the statistics in ``duals``, run on
reduced pairs (p, q), q > 0, by the gcd-reduced pair sum ``_padd`` and
product ``_pmul`` that ``Fraction`` itself runs, and make a ``Fraction``
only where a value is stored or reported.  A value already in lowest
terms, a cell of a structured read, of a product's row or of the
bidiagonal inverse, or a leaf value (the CLI's sequence tail terms, the
Cesaro weight 1/(n+1) and the Riesz weight 1/Q_n of ``builders``),
becomes a ``Fraction`` through ``_coprime``, with no second gcd.

A lower triangle may declare a structure (``BandedMatrix``): generator
terms plus a band, the semiseparable-plus-banded form of Chandrasekaran and
Gu (2003), a case of the quasiseparable generators of Eidelman and Gohberg
(1999).  Each band part is a whole diagonal of cells, and the terms give
only the cells below the band, so no reader of a structure reads a term
column at or past its row.  A structure with no terms is the matrix's band,
and the constructor derives the row supports from it.  ``compose``
multiplies by one in O(N^2) operations instead of O(N^3), the band-overlap
sum serves every other right factor, and ``dense_mul`` of truncations is
the oracle for both.  A product of two structures declares only the shape
of its own, which lists are all ones and how many band parts there are,
and ``compose`` reads it through its leaves, each row of A times B1 and
then B2 for A.(B1.B2).
``_product_rule`` is the one rule that multiplies two structures, on
lists: ``_list_ops`` states its two operations, over an element
arithmetic (add, mul, neg, zero, one): integers over one common
denominator (``_INTEGERS``), which the statistics of ``duals`` read, and
reduced pairs (p, q), q > 0 (``_PAIRS``), whose sum ``_padd`` and product
``_pmul`` are the gcd-reduced algorithms ``Fraction`` runs (Henrici;
Knuth, TAOCP vol. 2, 4.5.1), which ``truncate`` and ``apply`` read.
``_build_lists`` is the one builder of a structure's values at a size, in
either arithmetic, and keeps the last lists built on the matrix, so a
second reader in that arithmetic builds nothing.  A truncation, the
leading N x N block of a matrix, is the tuple of its N row tuples:
``truncate``, ``_entry_scan`` and ``dense_mul`` make that one shape.
``truncate`` reads every structure from its pair lists row by row, a cell
below the band the sum over the terms of U(n) V(k), and a product of two
means from its factors' lists by per-row pair suffix sums, Ua(n) Vb(k)
(t_k + ... + t_n) with t = Va Ub.  Only a matrix with no structure is
scanned entry by entry, as the oracle of the structured reads.  ``_lists``
reads the lists, and is the one place that names an invalid weight: when a
build meets one, it bisects on the pair lists for the first row whose
lists fail and reads that row's entries, so ``truncate``, ``apply`` and
the statistics of ``duals``, with no handler of their own, raise the
weight the scan meets first, or the lists' own when that row's entries
read none.  A cell is a ``Fraction`` or, for ``matrix``, its text
ratio(p, q).
A structure transforms a sequence as U(n) times the running sum of V x
over each term, plus the band times x, so N coordinates cost O(N)
operations.  ``apply`` is the one reader of a structured transform: it
runs that rule (``_transform_rule``) on the pair lists of the structure
and of x, for ``transform``, ``membership --domain`` and the bv norm of Ax
in ``spaces`` alike.  Every other transform is the entry loop
``_coordinate`` over each row's support, which is the oracle of the rule:
``apply`` of a matrix with no structure, and ``transform_seq``, the lazy
transform of any matrix for a reader with no length, whose N coordinates
of a structured matrix cost O(N) entry reads each.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from fractions import Fraction
from itertools import accumulate, repeat, starmap
from math import gcd, lcm
from operator import add, mul, neg

ZERO = Fraction(0)
ONE = Fraction(1)


class SingularMatrixError(ArithmeticError):
    """Raised when forward substitution meets a zero diagonal entry."""

    def __init__(self, row: int):
        super().__init__(f"zero diagonal entry at row {row}; matrix is singular")
        self.row = row


class InvalidWeightsError(ValueError):
    """Raised when a weight sequence violates its validity contract."""

    def __init__(self, name: str, index: int, value: Fraction, requirement: str):
        super().__init__(
            f"invalid weight {name}[{index}] = {value}: {requirement}"
        )
        self.name = name
        self.index = index
        self.value = value


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or exact literal like ``-3/7`` to a Fraction.

    Floats are rejected: they are not exact and would silently poison
    bit-exact identity checks.  A unicode minus sign is accepted in strings.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, str):
        value = value.replace("−", "-").strip()
    return Fraction(value)


class Seq:
    """A lazily evaluated infinite sequence of rationals.

    ``support_bound``, when present, declares that every term beyond that index
    is zero; the accessor short-circuits without consulting the closure, which
    is what makes finite-support membership and dual verdicts decidable.
    """

    def __init__(
        self,
        eval_fn: Callable[[int], Fraction],
        support_bound: int | None = None,
    ):
        self._eval = eval_fn
        self.support_bound = support_bound
        self._cache: dict[int, Fraction] = {}

    def __call__(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError(f"sequence index must be >= 0, got {k}")
        if self.support_bound is not None and k > self.support_bound:
            return ZERO
        value = self._cache.get(k)
        if value is None:
            value = self._cache[k] = rat(self._eval(k))
        return value

    @staticmethod
    def from_values(values) -> "Seq":
        """Finitely supported sequence given by a prefix of literals."""
        terms = [rat(v) for v in values]
        return Seq(
            lambda k: terms[k] if k < len(terms) else ZERO,
            support_bound=max(len(terms) - 1, 0),
        )

    @staticmethod
    def constant(c) -> "Seq":
        value = rat(c)
        return Seq(lambda k: value)

    @staticmethod
    def unit(j: int) -> "Seq":
        """The coordinate sequence with a single 1 at index j."""
        return Seq(lambda k: ONE if k == j else ZERO, support_bound=j)


def running_sum(term: Callable[[int], Fraction]) -> Callable[[int], Fraction]:
    """n -> term(0) + ... + term(n), 0 for n < 0, memoized.  The sums are
    built by appending, so they are locked."""
    return _running(term, add, ZERO)


def _running(term: Callable, plus: Callable, zero) -> Callable:
    """``running_sum`` over the element sum plus with identity zero, such as
    the reduced pairs' ``_padd`` and (0, 1)."""
    sums = [zero]  # sums[n + 1] is the sum up to n
    lock = threading.Lock()

    def total(n: int):
        if n < 0:
            return zero
        with lock:
            while len(sums) <= n + 1:
                sums.append(plus(sums[-1], term(len(sums) - 1)))
            return sums[n + 1]

    return total


class BandedMatrix:
    """A lazily evaluated infinite matrix whose every row has finite support.

    Row n can be nonzero only in columns ``[n - band, row_bound(n)]``; entries
    outside are 0 without consulting the entry closure.  ``row_bound`` is a
    callable, and when it is omitted the matrix is lower triangular
    (``row_bound(n) = n``).  ``row_count``, when present, declares every
    row from that index on to be zero (a wholly finite matrix).
    ``structure``, when present, is a pair (terms, band): band[i](n) is the
    whole entry (n, n - i) for i < len(band), read only at n >= i, and
    entry(n, k) = sum of U(n) V(k) over the terms (U, V) for the cells
    strictly below the band, 0 <= k <= n - len(band).  U and V are
    callables, or None for the all-ones sequence; a product's structure is
    a shape, each of its lists ``_LIST`` (``compose``).  So no reader of a
    structure needs a term column at or past the row it is on.  It is
    declared only on lower triangles.  ``band``, the number of nonzero
    subdiagonals, is derived from it: len(band) - 1 for a structure with
    no terms, None (unbounded) otherwise.  A matrix whose structure is
    removed later keeps its band.  The finite row supports are what make
    every product and transform coordinate an exact finite sum.
    """

    def __init__(
        self,
        entry_fn: Callable[[int, int], Fraction],
        row_bound: Callable[[int], int] | None = None,
        row_count: int | None = None,
        structure: tuple | None = None,
    ):
        self._entry = entry_fn
        self._row_bound = row_bound
        self.row_count = row_count
        self.structure = structure
        self.band = len(structure[1]) - 1 if structure is not None and not structure[0] else None
        self._inverse: Triangle | None = None  # set by invert
        self._factors: tuple | None = None  # (A, B) of a product A.B, set by compose
        self._kept: tuple = None, 0, None  # (arith, size, lists), the last built by _build_lists
        # rows are supported in [n - band, n]: entry's fast path
        self._lower = row_bound is None and row_count is None
        self._cache: dict[tuple[int, int], Fraction] = {}

    def entry(self, n: int, k: int) -> Fraction:
        # a zero above a lower-triangular diagonal is the most common read,
        # so it is answered first; a cached entry is known to be in support,
        # so other row bounds are consulted only on a cache miss
        if k > n and n >= 0 and self._lower:
            return ZERO
        if n < 0 or k < 0:
            raise IndexError(f"matrix indices must be >= 0, got ({n}, {k})")
        if self.band is not None and n - k > self.band:
            return ZERO
        value = self._cache.get((n, k))
        if value is None:
            if not self._lower and k > self.row_bound(n):
                return ZERO
            value = self._cache[(n, k)] = rat(self._entry(n, k))
        return value

    def row_bound(self, n: int) -> int:
        """Largest possibly-nonzero column of row n; -1 for a zero row."""
        if self.row_count is not None and n >= self.row_count:
            return -1
        return n if self._row_bound is None else self._row_bound(n)

    def row_support(self, n: int) -> range:
        """The columns of row n that entry may evaluate: [n - band,
        row_bound(n)] within the matrix.  Every other entry of row n is 0."""
        lo = n - self.band if self.band is not None and n > self.band else 0
        return range(lo, self.row_bound(n) + 1)

    def row_seq(self, n: int) -> Seq:
        """Row n as a finitely supported Seq."""
        return Seq(lambda k: self.entry(n, k), support_bound=self.row_bound(n))

    @staticmethod
    def from_rows(rows) -> "BandedMatrix":
        """A finite matrix from explicit row literals (zero beyond them)."""
        data = [[rat(v) for v in row] for row in rows]
        return BandedMatrix(
            lambda n, k: data[n][k],
            lambda n: len(data[n]) - 1,
            row_count=len(data),
        )


class Triangle(BandedMatrix):
    """A lower-triangular BandedMatrix: the kind that can be inverted.

    Construct it without ``row_bound`` or ``row_count``.  Its diagonal is
    meant to be nonzero; forward substitution reports the first zero it meets.
    """


def identity() -> Triangle:
    return Triangle(lambda n, k: ONE if n == k else ZERO)


def diagonal(a: Callable[[int], Fraction]) -> BandedMatrix:
    """diag(a), which declares the structure with no terms and the band [a]."""
    return BandedMatrix(lambda n, k: a(n), structure=([], [a]))


def truncate(source, n_size: int, ratio=None):
    """Materialize the leading n_size x n_size block of a matrix as the
    tuple of its n_size row tuples of Fraction.

    A lower triangle that declares a structure is read from its lists of
    reduced pairs (``_lists`` in ``_PAIRS``, made for a product from its
    factors' lists by the product rule), read once before the rows are
    made, and no entry is read but the band of a bidiagonal inverse, which
    is its memoized entries: a product of two means from the heads of its
    factors' kept lists by per-row suffix sums (``_mean_product_rows``),
    its own lists read only to name an invalid weight and not kept, every
    other structure row by row from its own (``_structure_rows``), each
    cell below the band the sum over the
    terms of U(n) V(k), reduced on integers.  A matrix with no structure
    takes the entry scan ``_entry_scan``, which is also the oracle of both
    structured reads.  A structured read that meets an invalid weight
    raises what ``_lists``, the one reader that names it, raises: the
    weight of the first row whose lists fail, as the scan meets it in that
    row's entries, or the lists' own error when those entries read no
    invalid weight.

    Given ratio, the block comes as text rows instead, made one at a time
    by the generator returned, once every value is read: each cell is
    ratio(p, q) of its value p/q in lowest terms, q > 0, a structured
    read's reduced pair or ratio(*x.as_integer_ratio()) of a scanned
    Fraction x.  Without ratio a structured read's cell is the Fraction p/q
    built from its reduced pair by ``_coprime``, with no second gcd.
    """
    if n_size < 1:
        raise ValueError(f"truncation size must be >= 1, got {n_size}")
    if source.structure is None:
        rows = _entry_scan(source, n_size)
        if ratio is None:
            return rows
        return (tuple(starmap(ratio, map(Fraction.as_integer_ratio, row))) for row in rows)
    kept = source._kept
    lists = _lists(source, n_size, _PAIRS)[1:]
    factors = source._factors
    if factors is not None and None not in map(_mean_term, factors):
        source._kept = kept
        row = _mean_product_rows(*(_lists(f, n_size, _PAIRS)[1:] for f in factors), n_size, ratio or _coprime)
        rows = (row(n) for n in range(n_size))
    else:
        rows = _structure_rows(lists, n_size, ratio or _coprime)
    return tuple(rows) if ratio is None else rows


def _entry_scan(source, n_size: int) -> tuple:
    """The leading n_size x n_size block of a matrix, entry by entry."""
    return tuple(
        tuple(source.entry(n, k) for k in range(n_size)) for n in range(n_size)
    )


def _lists(m, size: int, arith: tuple) -> tuple:
    """m's lists at size in arith (``_build_lists``): the one reader of a
    structure's values, which ``truncate``, ``apply`` and the statistics of
    ``duals`` call with no handler of their own, and which names an invalid
    weight as the scans do.  When the build raises one, it reads, in scan
    order, the entries of the first row whose pair lists raise, found by
    bisection over the sizes, after O(log N) list builds and one row of
    entries.  The rows before it read the same weights the lists of fewer
    rows do, so when those entries raise, they raise the invalid weight the
    scans report.  They need not: the lists read every weight of the row,
    while an entry can skip one that a zero coefficient multiplies (a
    product of diag(a) with a(n) = 0 reads no weight of its right factor's
    row n), and the scan may then succeed; the lists' own error is then
    re-raised, so a structured read raises wherever its lists do.  A
    product's factors are built, not read, so their weights replay on it."""
    try:
        return _build_lists(m, size, arith)
    except InvalidWeightsError:
        good, bad = 0, size
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                _build_lists(m, mid, _PAIRS)
                good = mid
            except InvalidWeightsError:
                bad = mid
        for k in m.row_support(good):
            m.entry(good, k)
        raise


def _build_lists(m, size: int, arith: tuple) -> tuple:
    """(d, terms, band): m's structure at the rows n < size as lists in the
    element arithmetic arith, reduced pairs (``_PAIRS``) over d = 1 or
    integers (``_INTEGERS``) over one common denominator d, None the
    all-ones list: band[i][n] / d its band part i at n >= i and, below the
    band, the cell (n, k) the sum of U[n] V[k] / d over the terms (U, V).
    U and each band part have size values, V one per column below the band,
    max(size - len(band), 0).  Only ``_lists``, the reader, and this
    builder itself call it.

    A product, whose structure is only a shape, gets its lists from its
    factors' lists by ``_product_rule`` in the same arithmetic, over d = da
    db.  Any other structure reads, in
    pairs, its callables at the indices the rows below and on its band
    need: U(n) at n >= len(band), V(k) at k < size - len(band), band[i](n)
    at n >= i, and (0, 1) in the places no cell reads.  In integers it runs
    its own rule (``_own_lists``, the closed form of ``duals``) or scales
    its pair lists: each band part, U and V over its own lcm, d the lcm of
    the parts' scales and of the terms' du dv, each term scaled up to d on
    V, or on U when V is None.  An invalid weight is raised here.

    The last lists built without error are kept on m with their arithmetic
    and size, as one whole value, so a race can only build them twice.  A
    request in that arithmetic, at that size or below, reads their head: U
    and the band parts cut to size, V to the columns below the band.  The
    head states the same cells; a V may differ at its last column, where
    the rule reads past a factor's lists and a zero multiplies it.  Any
    other request replaces them, so a leaf keeps no pairs it scaled."""
    kept_arith, kept_size, kept = m._kept
    if kept_arith is arith and kept_size >= size:
        d, terms, band = kept
        cols = max(size - len(band), 0)
        return d, [(u and u[:size], v and v[:cols]) for u, v in terms], [part[:size] for part in band]
    if m._factors is not None:
        (da, *x), (db, *y) = (_build_lists(f, size, arith) for f in m._factors)
        lists = (da * db, *_product_rule(x, y, size, arith))
    elif arith is _PAIRS:
        terms, band = m.structure
        width = len(band)

        def values(f, lo: int, end: int):
            if f is None:
                return None
            return [(0, 1)] * min(lo, end) + [rat(f(n)).as_integer_ratio() for n in range(lo, end)]

        terms = [(values(u, width, size), values(v, 0, size - width)) for u, v in terms]
        lists = 1, terms, [values(part, i, size) for i, part in enumerate(band)]
    elif getattr(m, "_own_lists", None) is not None:
        lists = m._own_lists(size)
    else:
        _, terms, band = _build_lists(m, size, _PAIRS)
        cells = list(map(_integers, band))
        sides = [((1, None) if u is None else _integers(u), (1, None) if v is None else _integers(v)) for u, v in terms]
        d = lcm(*{scale for scale, _ in cells}, *(du * dv for (du, _), (dv, _) in sides))
        terms = []
        for (du, u), (dv, v) in sides:
            c = d // (du * dv)
            if v is not None:
                v = [x * c for x in v]
            elif u is not None:
                u = [x * c for x in u]
            elif c != 1:
                u = [c] * size
            terms.append((u, v))
        lists = d, terms, [[x * (d // scale) for x in xs] for scale, xs in cells]
    m._kept = arith, size, lists
    return lists


def _structure_rows(lists: tuple, n_size: int, ratio):
    """The first n_size rows, n_size long, of the lower triangle that the
    pair lists (terms, band) of a structure state (``_lists`` in
    ``_PAIRS``, without d = 1): band[i][n] at (n, n - i) and below the band
    the sum of U[n] V[k] over the terms (U, V), one integer dot product per
    cell, reduced by one gcd, of row n's U[n] and column k's V[k] over
    their lcms (``_integers``), as a generator of row tuples whose cells
    are ratio(p, q) of reduced pairs.

    One term has fast cases.  When U is None every row below the band is a
    slice of one line: the cells of V, the ones or, with no terms, the
    zeros.  When V is None it is the cell of U[n] repeated.  Otherwise each
    U[n] V[k] is reduced on integers (``_products``).  So each distinct
    value is made once: the zero, a one, a V, a U[n] and a band cell."""
    terms, band = lists
    width = len(band)
    u = v = None
    if len(terms) == 1:
        [(u, v)] = terms
    zeros = (ratio(0, 1),) * n_size
    if not terms:
        line = zeros
    elif len(terms) > 1:
        columns = [_integers((1, 1) if y is None else y[k] for _, y in terms) for k in range(n_size - width)]
    elif u is None:
        line = [ratio(1, 1)] * (n_size - width) if v is None else list(starmap(ratio, v))
    for n in range(n_size):
        count = n - width + 1  # the cells of row n below its band
        if count <= 0:
            cells = ()
        elif len(terms) > 1:
            du, us = _integers((1, 1) if x is None else x[n] for x, _ in terms)
            sums = [(sum(map(mul, us, vs)), du * dv) for dv, vs in columns[:count]]
            cells = [ratio(p // (g := gcd(p, q)), q // g) for p, q in sums]
        elif u is None:
            cells = line[:count]
        elif v is None:
            cells = (ratio(*u[n]),) * count
        else:
            cells = _products(v[:count], repeat(u[n]), ratio)
        parts = [ratio(*band[i][n]) for i in range(min(width - 1, n), -1, -1)]
        yield (*cells, *parts, *zeros[n + 1 :])


def _mean_product_rows(a_lists: tuple, b_lists: tuple, n_size: int, ratio):
    """Row n -> row n, n_size long, of A.B for the means A and B whose pair
    lists (``_lists`` in ``_PAIRS``, without d = 1) are the terms (Ua, Va)
    and (Ub, Vb), None the all-ones list, at the rows n < n_size:
    ``truncate`` makes the rows with it.  Cell (n, k) is Ua(n) Vb(k) D_n(k)
    for k <= n, with D_n(k) = t_k + ... + t_n and t_j = Va(j) Ub(j):
    ``_row_times``'s suffix sums with Ua(n) factored out.

    Row n takes D_n(k) = D_n(k + 1) + t_k from k = n down to 0 by the pair
    sum ``_padd``, and each cell is reduced on integers (``_pmul``), first
    D_n(k) Ua(n), then that times Vb(k), a product skipped where that side
    is None, and made by ratio(p, q).  There is no common denominator and
    no difference of running sums to cancel, and each row is made from the
    values alone."""
    ([(scales, va)], _), ([(ub, column)], _) = a_lists, b_lists
    if va is None or ub is None:
        t = va or ub or [(1, 1)] * n_size
    else:
        t = list(map(_pmul, va, ub))
    zeros = (ratio(0, 1),) * n_size

    def row(n: int) -> tuple:
        sums = list(accumulate(reversed(t[: n + 1]), _padd))[::-1]
        if scales is not None:
            sums = map(_pmul, sums, repeat(scales[n]))
        cells = starmap(ratio, sums) if column is None else _products(sums, column, ratio)
        return (*cells, *zeros[n + 1 :])

    return row


def _products(xs, ys, ratio) -> list:
    """ratio(p, q) of each product p/q of the reduced pairs of xs and ys,
    taken in step until xs ends: ``_pmul`` written out in the loop, which
    makes most of the cells of a structured read, so that a cell costs no
    call but ratio's."""
    return [
        ratio(xn // (g1 := gcd(xn, yd)) * (yn // (g2 := gcd(yn, xd))), xd // g2 * (yd // g1))
        for (xn, xd), (yn, yd) in zip(xs, ys)
    ]


def _padd(x: tuple, y: tuple) -> tuple:
    """The sum of two reduced pairs (p, q), q > 0, as a reduced pair: the
    gcd-reduced sum of Henrici that ``Fraction`` adds by (Knuth, TAOCP vol.
    2, 4.5.1).  With g = gcd(xd, yd), the sum is t / (xd yd / g) for t =
    xn (yd / g) + yn (xd / g), and only gcd(t, g) can divide both."""
    (xn, xd), (yn, yd) = x, y
    g = gcd(xd, yd)
    if g == 1:
        return xn * yd + xd * yn, xd * yd
    s = xd // g
    t = xn * (yd // g) + yn * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * yd
    return t // g2, s * (yd // g2)


def _pmul(x: tuple, y: tuple) -> tuple:
    """The product of two reduced pairs (p, q), q > 0, as a reduced pair:
    reduced by the cross gcds g1 = gcd(xn, yd) and g2 = gcd(yn, xd), as
    ``Fraction`` multiplies."""
    (xn, xd), (yn, yd) = x, y
    g1, g2 = gcd(xn, yd), gcd(yn, xd)
    return xn // g1 * (yn // g2), xd // g2 * (yd // g1)


def _pneg(x: tuple) -> tuple:
    return -x[0], x[1]


def _coprime(p: int, q: int) -> Fraction:
    """p/q as a Fraction for a pair already in lowest terms with q > 0,
    without Fraction's gcd: the constructor's two slot stores alone."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = p, q
    return value


def _dot(pairs) -> Fraction:
    """The sum of c y over the (c, y) pairs of Fractions, taken in order:
    one integer numerator over the running lcm of the products'
    denominators, den <- den / g q with g = gcd(den, q), reduced once at
    the end, instead of one reduction per term.  ZERO when it is 0."""
    num, den = 0, 1
    for c, y in pairs:
        (cn, cd), (yn, yd) = c.as_integer_ratio(), y.as_integer_ratio()
        q = cd * yd
        g = gcd(den, q)
        s = q // g
        num = num * s + cn * yn * (den // g)
        den *= s
    return Fraction(num, den) if num else ZERO


# the element arithmetics (add, mul, neg, zero, one) of _list_ops: reduced
# pairs, and integers over one common denominator
_PAIRS = (_padd, _pmul, _pneg, (0, 1), (1, 1))
_INTEGERS = (add, mul, neg, 0, 1)
# a list of a product's structure, which its factors' lists make
_LIST = "list"


def _integers(pairs) -> tuple:
    """(d, integers) of (numerator, denominator > 0) pairs: the lcm d of the
    denominators and each pair as an integer over d.  The lcm is taken as a
    product tree over the distinct denominators: each step joins two lcms
    of as many values, so no step multiplies a huge lcm by one small value."""
    pairs = list(pairs)
    dens = list({q for _, q in pairs})
    while len(dens) > 1:
        dens = [lcm(*dens[i : i + 2]) for i in range(0, len(dens), 2)]
    d = dens[0] if dens else 1
    return d, [p * (d // q) for p, q in pairs]


def dense_mul(a: tuple, b: tuple) -> tuple:
    """The product of two truncations of one size, as a tuple of row tuples."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    # Row n of A is scaled to integers over its own denominator lcm and
    # column k of B over its own, so entry (n, k) is one integer sum divided
    # once.  One lcm per row and per column, not one per operand, which
    # unrelated denominators would make huge.  Row n accumulates a[n][j] *
    # (row j of B) over j, so a zero in either factor costs nothing.
    b_dens, b_cols = zip(*(_integers(v.as_integer_ratio() for v in col) for col in zip(*b)))
    b_rows = [[(k, v) for k, v in enumerate(row) if v] for row in zip(*b_cols)]
    rows = []
    for arow in a:
        a_den, nums = _integers(v.as_integer_ratio() for v in arow)
        sums = [0] * len(a)
        for x, brow in zip(nums, b_rows):
            if x:
                for k, y in brow:
                    sums[k] += x * y
        rows.append(
            tuple(Fraction(s, a_den * d) if s else ZERO for s, d in zip(sums, b_dens))
        )
    return tuple(rows)


def _coordinate(m, x: Seq, n: int) -> Fraction:
    """Coordinate n of the transform Mx: sum of m(n,k) x(k) over row n's
    support, one integer sum reduced once (``_dot``).  Each m(n,k) is read
    in column order, and x(k) just after it, only where m(n,k) is nonzero.

    Every row has finite support, so this is the full transform coordinate,
    not an approximation.  It is every coordinate of ``transform_seq``, of
    ``apply`` for a matrix with no structure, and the oracle of ``apply``'s
    list rule, invalid weights included.
    """
    return _dot((c, x(k)) for k in m.row_support(n) if (c := m.entry(n, k)))


def _transform_rule(lists: tuple, x: list) -> list:
    """The transform Mx of the pair lists (terms, band) of a structure and
    the reduced pairs of x's first len(x) values, by the list operations
    (``_list_ops``): the sum of U(n) P(n - len(band)) over the terms (U,
    V), with P the running sums of V x, and of band[i](n) x(n - i) from the
    band's far column on, as the entry loop meets them."""
    prefix, combine = _list_ops(len(x), _PAIRS)
    terms, band = lists
    width = len(band)
    products = [(u, 0, prefix(v, x), -width, 1) for u, v in terms]
    return combine(products + [(band[i], 0, x, -i, 1) for i in range(width - 1, -1, -1)])


def apply(m, x: Seq, n_size: int, ratio=None) -> list:
    """First n_size coordinates of the transform Mx, as Fractions or, given
    ratio, as the text ratio(p, q) of each coordinate p/q, as ``truncate``
    makes its cells.  This is the one reader of a structured m: the
    transform rule on m's pair lists (``_lists`` in ``_PAIRS``) and x's
    first n_size values as reduced pairs, so no Seq of the structure is
    evaluated.  Lists that meet an invalid weight raise what ``_lists``,
    the one reader that names it, raises, as for ``truncate``.  Any other
    m takes the entry loop ``_coordinate`` in order."""
    if n_size < 1:
        raise ValueError(f"transform length must be >= 1, got {n_size}")
    if m.structure is None:
        coords = [_coordinate(m, x, n) for n in range(n_size)]
        return coords if ratio is None else [ratio(*v.as_integer_ratio()) for v in coords]
    lists = _lists(m, n_size, _PAIRS)[1:]
    xs = [rat(x(k)).as_integer_ratio() for k in range(n_size)]
    return list(starmap(ratio or _coprime, _transform_rule(lists, xs)))


def transform_seq(t: BandedMatrix, x: Seq) -> Seq:
    """The transform Tx as a lazy memoized Seq, for a reader that has no
    length: coordinate n is the entry loop ``_coordinate``, for every t,
    so it raises the invalid weight the entries meet.  It reads entries,
    not the pair lists of ``apply``'s rule: N coordinates of a structured t
    cost O(N) entry reads each, a product's from the whole rows that
    ``compose`` makes."""
    return Seq(lambda n: _coordinate(t, x, n))


def compose(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """Matrix product A.B ("B first, then A"); a Triangle when both are.

    Entry (n,k) sums a(n,j) b(j,k) only over the j where both factors can be
    nonzero: j in a's row n support, j >= k when B is lower triangular, and
    j within B's band and rows, as one integer sum (``_dot``) that reads
    b(j,k) just after a nonzero a(n,j).  The product's band is its
    structure's, the sum of the factors' bands when both are band only, and
    its rows end where A's rows end.  The product records A and B as its
    factors, which ``invert``, ``_build_lists`` and this function read of
    every product.

    When B declares a structure, the first read of row n, by a scan or by
    the lazy transform, makes every cell of that row, kept in the product's
    one memo, as A's row n times each leaf of B in turn (``_row_times``), a
    structure that is no product: an N x N block costs O(N^2) operations
    per leaf, not O(N^3), with no intermediate product, and B's entries
    are never read.  A's row is turned into reduced pairs once, the leaves
    work on pairs, and each cell is stored as one ``Fraction`` by
    ``_coprime``, a zero cell as ``ZERO``; a pair that fills several cells
    of the row, a suffix sum that no V multiplies, is stored as one
    ``Fraction`` for them all.  When A declares a structure too, the
    product declares the shape of the lists ``_product_rule`` makes: a
    term (list, Vb) per term of B, (Ua, list) per term of A and max(la +
    lb - 1, 0) band parts, each ``_LIST``.
    """
    factors, structure = (a, b), None
    if a.structure is not None and b.structure is not None:
        (x_terms, x_band), (y_terms, y_band) = a.structure, b.structure
        side = lambda f: None if f is None else _LIST
        shape = [(_LIST, side(v)) for _, v in y_terms] + [(side(u), _LIST) for u, _ in x_terms]
        structure = shape, [_LIST] * max(len(x_band) + len(y_band) - 1, 0)
    a_lower, a_band = a._lower, a.band
    b_lower, b_band, b_rows = b._row_bound is None, b.band, b.row_count

    if b.structure is None:

        def entry(n: int, k: int) -> Fraction:
            lo = k if b_lower else 0
            if a_band is not None and n - a_band > lo:
                lo = n - a_band
            hi = n if a_lower else a.row_bound(n)
            if b_band is not None and k + b_band < hi:
                hi = k + b_band
            if b_rows is not None and b_rows <= hi:
                hi = b_rows - 1
            return _dot((c, b.entry(j, k)) for j in range(lo, hi + 1) if (c := a.entry(n, j)))

    else:
        leaves = [b]  # B's leaves, left to right: a structured product's factors are structured
        while any(f._factors is not None for f in leaves):
            leaves = [g for f in leaves for g in (f._factors or (f,))]

        def entry(n: int, k: int) -> Fraction:
            # A's row n from lo to its last nonzero (past it no leaf reads a V
            # either), times each leaf in turn; every cell of the row is kept
            lo = n - a_band if a_band is not None and n > a_band else 0
            hi = n if a_lower else a.row_bound(n)
            row = [a.entry(n, j).as_integer_ratio() for j in range(lo, hi + 1)]
            for leaf in leaves:
                while row and not row[-1][0]:
                    row.pop()
                lo, row = _row_times(lo, row, *leaf.structure)
            last = value = None  # the pair last stored, and its Fraction
            for j, cell in enumerate(row + [(0, 1)] * (hi + 1 - lo - len(row)), lo):
                if cell is not last:
                    last, value = cell, _coprime(*cell) if cell[0] else ZERO
                product._cache[(n, j)] = value
            return product._cache.get((n, k), ZERO)

    row_bound = a._row_bound
    if not b_lower:
        # maxima[j + 1] is the furthest column of B's rows 0..j, built by
        # appending, so it is locked as running_sum's sums are
        maxima = [-1]
        lock = threading.Lock()

        def row_bound(n: int) -> int:
            # the furthest column of B's rows 0..a.row_bound(n)
            end = a.row_bound(n) + 1
            with lock:
                while len(maxima) <= end:
                    maxima.append(max(maxima[-1], b.row_bound(len(maxima) - 1)))
                return maxima[end]

    product = (Triangle if all(isinstance(f, Triangle) for f in factors) else BandedMatrix)(
        entry,
        row_bound,
        row_count=a.row_count,
        structure=structure,
    )
    product._factors = factors
    return product


def _row_times(lo: int, coeffs: list, terms: list, parts: list) -> tuple:
    """(lo', cells): the row r, the reduced pairs coeffs from column lo
    on, times the lower triangle of the structure (terms, parts), cells the
    reduced pairs from column lo' (0 with terms) to r's last.  Cell k sums
    V(k) S(max(k + len(parts), lo)) over the terms (U, V), S(m) the sum of
    r(j) U(j) over j >= m, and r(k + i) parts[i](k + i), by the pair sum
    and product ``_padd`` and ``_pmul``; a zero r(j) reads no U(j) and no
    band part.  Every value read from a leaf goes through ``rat``, and
    cells are made in column order."""
    width, sums = len(parts), []
    for u, v in terms:
        scaled = [
            (c if u is None else _pmul(c, rat(u(lo + m)).as_integer_ratio())) if c[0] else (0, 1)
            for m, c in enumerate(coeffs)
        ]
        sums.append((v, list(accumulate(reversed(scaled), _padd))[::-1]))
    start, cells = (0 if terms else max(lo - width + 1, 0)), []
    for k in range(start, lo + len(coeffs)):
        i = k + width - lo if k + width > lo else 0  # the first j below the band, from lo
        acc = None
        if i < len(coeffs):
            for v, column in sums:
                term = column[i] if v is None else _pmul(rat(v(k)).as_integer_ratio(), column[i])
                acc = term if acc is None else _padd(acc, term)
        for m, part in enumerate(parts, k - lo):  # band part i meets coeffs[k + i - lo]
            if 0 <= m < len(coeffs) and coeffs[m][0]:
                term = _pmul(coeffs[m], rat(part(lo + m)).as_integer_ratio())
                acc = term if acc is None else _padd(acc, term)
        cells.append((0, 1) if acc is None else acc)
    return start, cells


def _product_rule(x: tuple, y: tuple, size: int, arith: tuple) -> tuple:
    """The lists (terms, band) of A.B from A's lists x = (terms, band) and
    B's y at the rows n < size, in the element arithmetic arith
    (``_list_ops``), None the all-ones list.

    With (Ua, Va) and la parts a_i A's terms and band and (Ub, Vb) and lb
    parts b_i B's, the product's band has max(la + lb - 1, 0) parts: part e
    at n is the sum over i from e down to 0 of A's cell (n, n - i) times B's
    cell (n - i, n - e), each its factor's band part or the sum of U V over
    its terms.  Below that band entry (n, k) has three pieces, none reading
    an index past n: terms times terms, Ua(n) (P(n - la) - P(k + lb - 1))
    Vb(k) with P the running sum of Va Ub; A's band times B's terms, S(n)
    Vb(k) with S(n) the sum of a_i(n) Ub(n - i), its far column first; and
    A's terms times B's band, Ua(n) V'(k) with V'(k) the sum of Va(k + i)
    b_i(k + i), its near row first, which reads up to k + lb - 1 <= n - la.
    So the product has one term (Ua P + S, Vb) per term of B and one (Ua,
    V' - P Vb) per term of A, as many as its factors together: the lower
    quasiseparable order is subadditive under products (Eidelman and
    Gohberg 1999), and nested products stay small.  Each V is fitted to
    the columns below the band: when A has no band the rule reads Vb one
    column past B's lists, at the cell (size - 1, size - lb), where P(n) -
    P(n) = 0 multiplies it, so that column is taken as zero.
    """
    prefix, combine = _list_ops(size, arith)
    (a_terms, a_band), (b_terms, b_band) = x, y
    la, lb = len(a_band), len(b_band)
    # sums[s][t] is the running sum of Va Ub over A's term s and B's term t
    sums = [[prefix(va, ub) for ub, _ in b_terms] for _, va in a_terms]
    terms = []
    for t, (ub, vb) in enumerate(b_terms):
        products = [(ua, 0, ps[t], -la, 1) for (ua, _), ps in zip(a_terms, sums)]
        products += [(a_band[i], 0, ub, -i, 1) for i in range(la - 1, -1, -1)]
        terms.append((combine(products), vb))
    for (ua, va), ps in zip(a_terms, sums):
        products = [(p, lb - 1, vb, 0, -1) for p, (_, vb) in zip(ps, b_terms)]
        products += [(va, i, b_band[i], i, 1) for i in range(lb)]
        terms.append((ua, combine(products)))

    def cells(factor: tuple, i: int):  # a factor's cells (n, n - i)
        factor_terms, factor_band = factor
        return factor_band[i] if i < len(factor_band) else combine([(u, 0, v, -i, 1) for u, v in factor_terms])

    products = [[(cells(x, i), 0, cells(y, e - i), -i, 1) for i in range(e, -1, -1)] for e in range(la + lb - 1)]
    band = list(map(combine, products))
    cols, zero = max(size - len(band), 0), arith[3]
    fit = lambda v: v if v is None or len(v) == cols else v[:cols] + [zero] * (cols - len(v))
    return [(u, fit(v)) for u, v in terms], band


def _list_ops(size: int, arith: tuple) -> tuple:
    """(prefix, combine) of ``_product_rule`` on lists of size values in
    the element arithmetic arith = (add, mul, neg, zero, one), None the
    all-ones list: integers (``_INTEGERS``) or reduced pairs (``_PAIRS``),
    as ``_build_lists`` builds them.  combine makes new lists of size values,
    reads zero past a list's end, and gives None for the one product 1 . 1,
    unshifted."""
    add, mul, neg, zero, one = arith

    def prefix(f, g):
        if f is None and g is None:
            return list(accumulate(repeat(one, size), add))
        return list(accumulate(f if g is None else g if f is None else map(mul, f, g), add))

    def combine(products):
        out = None
        for f, i, g, j, sign in products:
            lo = min(max(0, -i, -j), size)  # the first n whose indices are >= 0
            if f is None or g is None:
                h, s = (g, j) if f is None else (f, i)
                if h is not None:  # a new list: the slice of the other side's values
                    values = h[lo + s : size + s]
                elif len(products) == 1 and not lo and sign > 0:
                    return None
                else:
                    values = [one] * (size - lo)
            else:
                values = list(map(mul, f[lo + i : size + i], g[lo + j : size + j]))
            end = lo + len(values)
            if sign < 0:
                values = list(map(neg, values))
            if out is None:  # the first product is written as it is
                out = values
                if lo or end < size:
                    out = [zero] * lo + out + [zero] * (size - end)
            else:
                out[lo:end] = map(add, out[lo:end], values)
        return [zero] * size if out is None else out

    return prefix, combine


def _build_inverse(t: Triangle) -> Triangle:
    # Forward substitution, row by row; rows are cached in order so deep
    # compose/invert chains stay polynomial.  Each row is kept once, as (lcm
    # of its denominators, integer numerators); entry makes a cell's Fraction
    # when it is read.  Row m of T and the inverse rows it reads are scaled to
    # integers, so each cell is one integer sum over D = t_den inv_den d; with
    # 1/d appended, the row is divided once by the gcd of D and all of them.
    rows: list[tuple] = []
    lock = threading.RLock()

    def ensure(n: int):
        with lock:
            while len(rows) <= n:
                m = len(rows)
                d = t.entry(m, m)
                if d == 0:
                    raise SingularMatrixError(m)
                t_den, coeffs = _integers(t.entry(m, j).as_integer_ratio() for j in range(m))
                used = [j for j, c in enumerate(coeffs) if c]
                inv_den = lcm(*(rows[j][0] for j in used))
                sums = [0] * m
                for j in used:
                    c = coeffs[j] * (inv_den // rows[j][0])
                    for k, y in enumerate(rows[j][1]):
                        if y:
                            sums[k] -= c * y
                den = t_den * inv_den
                nums = [s * d.denominator for s in sums] + [den * d.denominator]
                den *= d.numerator
                g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
                rows.append((den // g, [x // g for x in nums]))

    def entry(n: int, k: int) -> Fraction:
        ensure(n)
        den, nums = rows[n]
        return Fraction(nums[k], den) if nums[k] else ZERO

    return Triangle(entry)


def _mean_term(t: Triangle) -> tuple | None:
    """(U, V) when t's structure is that one term and no band, else None."""
    terms, band = t.structure or ([], [])
    return terms[0] if len(terms) == 1 and not band else None


def _mean_inverse(u, v) -> Triangle:
    """The inverse of the mean U(n) V(k), None the all-ones sequence: the
    bidiagonal 1/(U(n) V(n)) on the diagonal and -1/(U(n-1) V(n)) below it,
    U read before V as the mean's entries read them.  A cell is the
    reciprocal of the reduced pair of the product (``_pmul``), its sign
    moved to the numerator, built by ``_coprime``.  A zero product raises
    SingularMatrixError(m) when U(m) is 0, else (n), as forward substitution
    does.  Its band, the diagonal and subdiagonal, is its memoized entries."""

    def entry(n: int, k: int) -> Fraction:
        if u is None and v is None:
            return ONE if k == n else -ONE
        m = n if k == n else n - 1
        if u is None or v is None:
            p, q = (v(n) if u is None else u(m)).as_integer_ratio()
        else:
            p, q = _pmul(u(m).as_integer_ratio(), v(n).as_integer_ratio())
        if k != n:
            q = -q
        if not p:
            raise SingularMatrixError(m if u is not None and not u(m) else n)
        if p < 0:
            p, q = -p, -q
        return _coprime(q, p)

    t = Triangle(entry, structure=([], [lambda n: t.entry(n, n), lambda n: t.entry(n, n - 1)]))
    return t


def invert(t: Triangle) -> Triangle:
    """Inverse of a triangle, computed and shared lazily.

    A product A.B inverts through its factors as inverse(B).inverse(A), a
    mean (one structure term, no band) that is no product to its
    bidiagonal ``_mean_inverse``, and every other triangle, a product's
    factor included, by forward substitution.  The inverse links back to t, so
    inverting it again costs nothing and returns t.

    The result satisfies truncate(T,N) . truncate(invert(T),N) = I_N exactly
    for every N.  A zero diagonal entry that forward substitution meets
    raises SingularMatrixError naming the offending row, and a product's
    inverse read row by row names the product's first.  Read out of order,
    it names the first zero diagonal of whichever factor's inverse it
    reaches first, inverse(B)'s before inverse(A)'s for A.B.
    """
    if not isinstance(t, Triangle):
        raise ValueError("cannot invert a matrix that is not a triangle")
    if t._inverse is None:
        if t._factors is not None:
            a, b = t._factors
            inv = compose(invert(b), invert(a))
        elif (term := _mean_term(t)) is not None:
            inv = _mean_inverse(*term)
        else:
            inv = _build_inverse(t)
        inv._inverse = t
        t._inverse = inv
    return t._inverse
