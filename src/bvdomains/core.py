"""Exact lazy primitives: rational scalars, infinite sequences, lazy matrices.

Every scalar is a ``fractions.Fraction``, so all identities checked elsewhere in
the package are bit-exact rather than tolerance-based.  Sequences and matrices
are lazy (index -> value closures) with memoized entries, and a single object
may be shared across threads.  Memo lookups take no lock: entry closures are
pure, so the worst a race can do is compute one value twice and store equal
results.  What is built by appending, whose rows a race could misalign, is
synchronized: the forward-substitution rows of an inverse here, and the
running sums built by the other modules.

There is one matrix class, ``BandedMatrix``: row n is supported in
``[n - band, row_bound(n)]``, and a finite matrix declares its row count.
``Triangle`` is its lower-triangular kind, the one that can be inverted, and
may carry a known inverse; a lower-triangular matrix that is never inverted
(an associated dual matrix) is a plain ``BandedMatrix``.  ``compose`` is the
only matrix product: it sums over the overlap of its factors' supports,
returns a Triangle when both factors are triangles, and inverts a product
through its factors' inverses, so the domain matrices built from named
triangles invert at O(1) cost per entry.  Generic forward substitution
(``_build_inverse``) is the fallback for a triangle with no known inverse,
and the independent oracle the fast inverses are checked against.

A triangle may also declare generators: lists (diag, col, row) with
entry(n, n) = diag[n] and entry(n, k) = col[k] + row[n] below the diagonal.
The domain inverses are a diagonal plus a strictly lower part constant along
each row (``row_generators``), and the dual matrices built from them keep the
form, so their condition statistics need O(N) generator values instead of
O(N^2) entries.

A triangle may also declare factors (u, v): entry(n, k) = u(n) v(k) on and
below the diagonal, as in the partial-sum, Cesaro and weighted means (the
Riesz mean among them).
``compose`` multiplies by such a triangle through suffix sums of each row of
its left factor, built once per row, so a product of two full triangles costs
O(N^2) operations instead of O(N^3).  The band-overlap sum serves every other
right factor, and ``dense_mul`` of truncations is the oracle for both.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

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
        support_bound: Optional[int] = None,
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


class BandedMatrix:
    """A lazily evaluated infinite matrix whose every row has finite support.

    Row n can be nonzero only in columns ``[n - band, row_bound(n)]``; entries
    outside are 0 without consulting the entry closure.  ``row_bound`` is a
    callable, and when it is omitted the matrix is lower triangular
    (``row_bound(n) = n``).  ``band``, when present, is the number of nonzero
    subdiagonals.  ``row_count``, when present, declares every row from that
    index on to be zero (a wholly finite matrix).  ``known_inverse``, when
    present, builds the exact inverse without forward substitution.
    ``generators``, when present, maps a size N to lists (diag, col, row)
    over the indices below N such that entry(n, n) = diag[n] and
    entry(n, k) = col[k] + row[n] for k < n; it is declared only on lower
    triangles.  ``factors``, when present, is a pair of callables (u, v) with
    entry(n, k) = u(n) v(k) for 0 <= k <= n; it too is declared only on lower
    triangles.  The finite row supports are what make every product and
    transform coordinate an exact finite sum.
    """

    def __init__(
        self,
        entry_fn: Callable[[int, int], Fraction],
        row_bound: Optional[Callable[[int], int]] = None,
        row_count: Optional[int] = None,
        band: Optional[int] = None,
        known_inverse: Optional[Callable[[], "Triangle"]] = None,
        generators: Optional[Callable[[int], tuple]] = None,
        factors: Optional[tuple] = None,
    ):
        self._entry = entry_fn
        self._row_bound = row_bound
        self.row_count = row_count
        self.band = band
        self.known_inverse = known_inverse
        self.generators = generators
        self.factors = factors
        self._inverse: Optional[Triangle] = None  # set by invert
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


def row_generators(t: Triangle) -> Callable[[int], tuple]:
    """Generators of a triangle that is a diagonal plus a strictly lower part
    constant along each row, read from its own entries: diag[j] = t(j, j),
    col = 0 and row[j] = t(j, j - 1), so N values take O(N) entry reads."""

    def generators(size: int) -> tuple:
        diag, row = [], []
        for j in range(size):
            # row j below its diagonal first, as an entry scan reads it, so an
            # invalid weight is reported at the same index either way
            row.append(t.entry(j, j - 1) if j else ZERO)
            diag.append(t.entry(j, j))
        return diag, [ZERO] * size, row

    return generators


def identity() -> Triangle:
    return Triangle(lambda n, k: ONE if n == k else ZERO)


@dataclass(frozen=True)
class DenseTrunc:
    """The N x N leading principal submatrix of a matrix, held exactly."""

    size: int
    values: tuple  # tuple of row tuples of Fraction

    def __getitem__(self, nk):
        n, k = nk
        return self.values[n][k]


def truncate(source, n_size: int) -> DenseTrunc:
    """Materialize the leading n_size x n_size block of a matrix."""
    if n_size < 1:
        raise ValueError(f"truncation size must be >= 1, got {n_size}")
    rows = tuple(
        tuple(source.entry(n, k) for k in range(n_size)) for n in range(n_size)
    )
    return DenseTrunc(n_size, rows)


def dense_mul(a: DenseTrunc, b: DenseTrunc) -> DenseTrunc:
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    # row n of the product accumulates a[n][j] * (row j of b) over j, so a
    # zero in either factor costs no Fraction arithmetic
    rows = []
    for arow in a.values:
        row = [ZERO] * a.size
        for a_nj, brow in zip(arow, b.values):
            if a_nj:
                for k, b_jk in enumerate(brow):
                    if b_jk:
                        row[k] += a_nj * b_jk
        rows.append(tuple(row))
    return DenseTrunc(a.size, tuple(rows))


def _coordinate(m, x: Seq, n: int) -> Fraction:
    """Coordinate n of the transform Mx: sum of m(n,k) x(k) over k <= m.row_bound(n).

    Every row has finite support, so this is the full transform coordinate,
    not an approximation.
    """
    acc = ZERO
    for k in range(m.row_bound(n) + 1):
        c = m.entry(n, k)
        if c:
            acc += c * x(k)
    return acc


def apply(m, x: Seq, n_size: int) -> list:
    """First n_size coordinates of the transform Mx."""
    if n_size < 1:
        raise ValueError(f"transform length must be >= 1, got {n_size}")
    return [_coordinate(m, x, n) for n in range(n_size)]


def transform_seq(t: BandedMatrix, x: Seq) -> Seq:
    """The transform Tx as a lazy Seq."""
    return Seq(lambda n: _coordinate(t, x, n))


def compose(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """Matrix product A.B ("B first, then A"); a Triangle when both are.

    Entry (n,k) sums a(n,j) b(j,k) only over the j where both factors can be
    nonzero: j in a's row n support, j >= k when B is lower triangular, and
    j within B's band and rows.  The product's band is the sum of the
    factors' bands, its rows end where A's rows end, and when both factors
    have known inverses it is inverted as inverse(B).inverse(A).

    When B declares factors (u, v), entry (n,k) is v(k) S_n(max(k, lo)),
    where [lo, hi] is A's row n support and S_n(m) sums a(n,j) u(j) over j
    in [m, hi].  The first read of row n builds its suffix sums in one pass
    over A's row, so an N x N block costs O(N^2) operations, not O(N^3), and
    B's entries are never read.  The product's lower part has rank two, so
    it declares no factors.
    """
    a_lower, a_band = a._lower, a.band
    b_lower, b_band, b_rows = b._row_bound is None, b.band, b.row_count

    if b.factors is None:

        def entry(n: int, k: int) -> Fraction:
            lo = k if b_lower else 0
            if a_band is not None and n - a_band > lo:
                lo = n - a_band
            hi = n if a_lower else a.row_bound(n)
            if b_band is not None and k + b_band < hi:
                hi = k + b_band
            if b_rows is not None and b_rows <= hi:
                hi = b_rows - 1
            acc = ZERO
            for j in range(lo, hi + 1):
                c = a.entry(n, j)
                if c:
                    acc += c * b.entry(j, k)
            return acc

    else:
        u, v = b.factors
        suffixes: dict[int, tuple] = {}

        def suffix_sums(n: int) -> tuple:
            # (lo, sums) with sums[i] = S_n(lo + i), up to A's last nonzero
            # in row n: past it the generic loop reads no v(k) either
            lo = n - a_band if a_band is not None and n > a_band else 0
            terms = []
            for j in range(lo, (n if a_lower else a.row_bound(n)) + 1):
                c = a.entry(n, j)
                terms.append(c * u(j) if c else None)
            while terms and terms[-1] is None:
                terms.pop()
            sums, acc = [], None
            for term in reversed(terms):
                if term is not None:
                    acc = term if acc is None else acc + term
                sums.append(acc)
            sums.reverse()
            return lo, sums

        def entry(n: int, k: int) -> Fraction:
            row = suffixes.get(n)
            if row is None:
                row = suffixes[n] = suffix_sums(n)
            lo, sums = row
            i = k - lo if k > lo else 0
            return v(k) * sums[i] if i < len(sums) else ZERO

    row_bound = a._row_bound
    if not b_lower:
        bounds: dict[int, int] = {}

        def row_bound(n: int) -> int:
            # the furthest column of B's rows 0..a.row_bound(n)
            bound = bounds.get(n)
            if bound is None:
                bound = bounds[n] = max(
                    (b.row_bound(j) for j in range(a.row_bound(n) + 1)), default=-1
                )
            return bound

    known_inverse = None
    if a.known_inverse is not None and b.known_inverse is not None:
        known_inverse = lambda: compose(invert(b), invert(a))
    triangles = isinstance(a, Triangle) and isinstance(b, Triangle)
    return (Triangle if triangles else BandedMatrix)(
        entry,
        row_bound,
        row_count=a.row_count,
        band=None if a_band is None or b_band is None else a_band + b_band,
        known_inverse=known_inverse,
    )


def _build_inverse(t: Triangle) -> Triangle:
    # Forward substitution, row by row; rows are cached in order so deep
    # compose/invert chains stay polynomial.
    rows: list[list[Fraction]] = []
    lock = threading.RLock()

    def ensure(n: int):
        with lock:
            while len(rows) <= n:
                m = len(rows)
                d = t.entry(m, m)
                if d == 0:
                    raise SingularMatrixError(m)
                row = []
                for k in range(m):
                    acc = ZERO
                    for j in range(k, m):
                        c = t.entry(m, j)
                        if c:
                            acc += c * rows[j][k]
                    row.append(-acc / d)
                row.append(ONE / d)
                rows.append(row)

    def entry(n: int, k: int) -> Fraction:
        ensure(n)
        return rows[n][k]

    return Triangle(entry)


def invert(t: Triangle) -> Triangle:
    """Inverse of a triangle, computed and shared lazily: the known inverse
    when one is declared, else forward substitution.  The inverse links back
    to t, so inverting it again costs nothing.

    The result satisfies truncate(T,N) . truncate(invert(T),N) = I_N exactly
    for every N.  A zero diagonal entry found while probing raises
    SingularMatrixError naming the offending row.
    """
    if not isinstance(t, Triangle):
        raise ValueError("cannot invert a matrix that is not a triangle")
    if t._inverse is None:
        inv = _build_inverse(t) if t.known_inverse is None else t.known_inverse()
        inv._inverse = t
        inv.known_inverse = lambda: t
        t._inverse = inv
    return t._inverse
