"""Associated matrices and truncation tests for the alpha/beta/gamma duals.

The alpha-dual matrix is diag(a) . inverse(domain); the beta/gamma matrix
sums it down each column, sigma . diag(a) . inverse(domain), so b_nk =
sum_{j=k}^{n} a_j * inverse(domain)_jk.  Both are lower triangular but
never inverted, so they are plain ``BandedMatrix`` objects.
Each dual kind is decided (heuristically, at truncation) by the matrix-class
conditions for (l1:l1), (l1:c), (l1:linf) evaluated on the associated matrix.
The statistics live in one dict keyed by report name (``condition_stats``),
which one serializer writes (``conditions_dict``) and one verdict function
reads (``condition_verdict``); ``matclass`` uses the same three functions.

The dual matrices get the structure of ``core`` from ``compose``: the
shape of the product of diag(a) (no terms and the band [a]), of the sum
matrix and of the domain inverse, whose lists their factors' lists make.
Their entries are their own: a_n times the inverse's row n for alpha, and
running sums down each column of alpha's for beta, so that both read the
inverse's weights where the lists read them.  The closed-form cross-check
matrix declares the beta form from the weights.  When a structure has terms
constant along rows plus either constant along columns or exactly one
two-sided term (U1, V1), a matrix is w[n] col[k] + row[n] below its band,
with w = 1 or w = U1, and its band parts are whole cells, so the three
statistics compute from those lists in integer operations: prefix
extremes, a Fenwick tree over the sorted points row[n]/w[n] and the spread
of the lines w[n] x + row[n] over a column limit's rows, with each row's
few band cells read as they are.  That covers the dual matrices and F =
domain . B for B = sum, cesaro, delta and cesaro_inv.  The lists are
integers over one common denominator d, which ``core._build_lists`` builds
in its integer arithmetic; each reported value is divided by d back into a
Fraction.  A structure that is no product (a mean, the sum matrix,
diag(a), a bidiagonal inverse) scales its pair lists, and a product
multiplies its factors' lists by the one product rule, here over integers
and in ``truncate`` over reduced pairs.  The closed-form matrix builds its
own from the scaled reciprocals of the weights (``_own_lists``), so that
oracle never reads the inverse.
``core._build_lists`` keeps the last lists built on each matrix and reads
a smaller size in the same arithmetic as their head, so the domain
inverse's lists serve every report over the domain, the rows of a
from-domain class test included.  ``core._lists`` reads them: the one
reader, for the statistics as for ``truncate`` and ``apply``, that names
an invalid weight met while building them.  It bisects on the pair lists
for the first row whose lists fail and reads that row's entries, so the
weight is reported as the scans report it, or as the lists do when that
row's entries read none.  The statistics scan any other matrix (E, a bare
triangle domain), and the scans are also the oracle the lists are checked
against.
A scan reads the square row by row, of each row only the cells its
support leaves possibly nonzero (``_row_cells``), and does no arithmetic
on a zero, so E of a finite matrix with r rows costs O(r N) entry reads,
not O(N^2).  It keeps its running values as reduced pairs (p, q), q > 0:
an absolute value is a sign flip, a sum is ``core._padd`` and two values
compare by cross-multiplication (``_pmax``), and it makes one
``Fraction`` per reported value.  It reads entries, never lists, so it
stays an independent oracle of ``_AbsSums`` and the integer lists.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add, sub

from .core import (
    BandedMatrix,
    Seq,
    Triangle,
    ZERO,
    _INTEGERS,
    _coprime,
    _integers,
    _lists,
    _padd,
    _pmul,
    _pneg,
    compose,
    diagonal,
    invert,
    running_sum,
)
from .builders import Domain, RieszWeights, WeightPair, sigma_sum
from .spaces import _stats_dict, checkpoints, classify_trend, combine_verdicts, fmt, policy_dict

# A beta-column is called convergent at truncation when its oscillation over
# the last window is at most this; policy, not a theorem.
OSCILLATION_TOL = Fraction(1, 10**6)

DUAL_KINDS = ("alpha", "beta", "gamma")


def _generators(m, size: int) -> tuple | None:
    """(d, bands, w, col, row): integer lists with bands[i][n] / d the entry
    (n, n - i) for the cells of the band, and (w[n] col[k] + row[n]) / d the
    entry (n, k) for the cells below it, k <= n - len(bands), n < size.

    They exist when m's structure has row terms (U, None) and either column
    terms (None, V), so that w = 1, or exactly one two-sided term (U1, V1),
    so that w is U1 and col is V1; row sums the row terms.  The band lists
    are the structure's band parts, or, with no band, one list of the
    diagonal from the terms; a row within the band has w = row = 0.  For
    any other structure, and for none, this is None, so a matrix whose
    structure is removed is scanned.  The lists are m's integer lists,
    read with no handler from ``core._lists``, the one reader that names an
    invalid weight as the scans do, or re-raises the lists' own error."""
    if m.structure is None:
        return None
    shapes = [(u is None, v is None) for u, v in m.structure[0]]
    two_sided = shapes.count((False, False))
    if two_sided > 1 or two_sided and (True, False) in shapes:
        return None
    d, terms, bands = _lists(m, size, _INTEGERS)
    width = len(bands)
    ones, cols = [1] * size, max(size - width, 0)
    weight = next((u for u, v in terms if u is not None and v is not None), None)
    col = _sum_lists([v for _, v in terms if v is not None], cols)
    row = _sum_lists([ones if u is None else u for u, v in terms if v is None], size)
    head = [0] * min(width, size)  # the rows within the band have no cell below it
    w, row = head + (ones if weight is None else weight)[width:], head + row[width:]
    if not width:  # the diagonal, from the terms
        bands = [list(map(add, col, row) if weight is None else map(lambda x, c, r: x * c + r, w, col, row))]
    return d, bands, w, col, row


def _sum_lists(lists: list, length: int) -> list:
    """The sum of integer lists index by index, zeros of the length when
    there are none."""
    if len(lists) == 1:
        return lists[0]
    return [sum(values) for values in zip(*lists)] if lists else [0] * length


def _reciprocal(x: Fraction) -> tuple:
    """1/x as a pair (numerator, denominator > 0), for x != 0."""
    return (x.denominator, x.numerator) if x.numerator > 0 else (-x.denominator, -x.numerator)


def _closed_form_lists(w: WeightPair | RieszWeights, a: Seq, size: int) -> tuple:
    """The lists of ``closed_form_beta_matrix`` from the weights, at the
    rows n < size.

    With 1/u, 1/v and a scaled to integers iu, iv and A over their lcms du,
    dv and da, and d = du dv da, the diagonal is A_k iu_k iv_k, the row term
    R(n) is the running sum of the steps (iu_j - iu_{j-1}) A_j iv_j over 1
    <= j <= n, and the column term is the diagonal less R; there is no band
    part."""
    du, iu = _integers(_reciprocal(w.u_at(j)) for j in range(size))
    dv, iv = _integers(_reciprocal(w.v_at(j)) for j in range(size))
    da, scaled = _integers(a(j).as_integer_ratio() for j in range(size))
    diag = [x * y * z for x, y, z in zip(scaled, iu, iv)]
    steps = [(iu[j] - iu[j - 1]) * scaled[j] * iv[j] if j else 0 for j in range(size)]
    row = list(accumulate(steps))
    return du * dv * da, [(row, None), (None, list(map(sub, diag, row)))], []


def alpha_assoc(domain_matrix: Triangle, a: Seq) -> BandedMatrix:
    """Matrix sending y = (domain)x to the products (a_n x_n): diag(a) . inverse.

    Its structure, the product's shape, and its factors are the
    product's, so its lists come from those of diag(a) and of the inverse;
    its entries are a_n inverse(n, k), the reduced pair product
    (``core._pmul``) made a Fraction by ``core._coprime``, which read the
    inverse's row n also where a_n = 0, as the lists read the inverse's
    weights there, so both report the same invalid weight."""
    inverse = invert(domain_matrix)
    product = compose(diagonal(a), inverse)
    # the entries deliberately bypass product.entry: compose skips a row
    # whose coefficient a(n) is 0 without reading the inverse, and the scans
    # would then miss the invalid weight the lists report
    # bench/tracing.py attributes the dual matrices' entries to duals.assoc by
    # the names of this closure and of beta_assoc's
    m = BandedMatrix(
        lambda n, k: _coprime(*_pmul(a(n).as_integer_ratio(), inverse.entry(n, k).as_integer_ratio())),
        structure=product.structure,
    )
    m._factors = product._factors
    return m


def beta_assoc(domain_matrix: Triangle, a: Seq) -> BandedMatrix:
    """Matrix of partial sums sum_{k<=n} a_k x_k in the y coordinates: the
    column sums of the alpha matrix, sigma . diag(a) . inverse(domain), so
    entry(n,k) = sum_{j=k}^{n} a_j * inverse(domain)_jk.

    Its structure and factors are the product's, so its lists come from
    those of the sum matrix and of the alpha matrix.  Its entries are
    running sums down each column of the alpha matrix's, which read the
    inverse's row n also where a_n = 0, as the lists do; the product, read
    as (sigma . diag(a)) . inverse, would skip that row."""
    alpha = alpha_assoc(domain_matrix, a)
    product = compose(sigma_sum(), alpha)
    columns = {}

    def entry(n: int, k: int) -> Fraction:
        column = columns.get(k)
        if column is None:
            column = columns[k] = running_sum(lambda j: alpha.entry(k + j, k))
        return column(n - k)

    m = BandedMatrix(entry, structure=product.structure)
    m._factors = product._factors
    return m


def closed_form_beta_matrix(w: WeightPair | RieszWeights, a: Seq) -> BandedMatrix:
    """The same beta/gamma matrix built from the weight closed forms only.

    Column k carries a_k/(u_k v_k) on the diagonal plus the partial sums of
    c_j = (1/v_j)(1/u_j - 1/u_{j-1}) a_j below it; no inversion is involved,
    so this is an independent oracle for beta_assoc on bv(G)/bv(R).  Its
    structure comes from the same closed forms, and its lists are built on
    integers from the weights (``_closed_form_lists``).
    """

    def diag_term(k: int) -> Fraction:
        return a(k) / (w.u_at(k) * w.v_at(k))

    def step(j: int) -> Fraction:  # only probed for j >= 1
        return (1 / w.u_at(j) - 1 / w.u_at(j - 1)) * a(j) / w.v_at(j)

    def entry(n: int, k: int) -> Fraction:
        return diag_term(k) + sum((step(j) for j in range(k + 1, n + 1)), ZERO)

    steps = running_sum(lambda j: step(j) if j else ZERO)
    columns = [(steps, None), (None, lambda k: diag_term(k) - steps(k))]
    m = BandedMatrix(entry, structure=(columns, []))
    m._own_lists = lambda size: _closed_form_lists(w, a, size)
    return m


class _AbsSums:
    """Sum of |w x + r| over the pairs (w, r) inserted so far from fixed
    lists of integers.

    A pair with w != 0 adds |w| |x + r/w|, whose sign changes at x = -r/w;
    one with w = 0 adds |r|.  Fenwick trees (Fenwick 1994) of |w| and of
    sign(w) r over the sorted points r/w answer a query from the inserted
    points below -x, in O(log N) integer operations per insertion and per
    query.  The points are compared as integers over the lcm L of the |w|,
    r/w as sign(w) r L/|w|; with w = 1 they are the r themselves.
    """

    def __init__(self, weights: list, values: list):
        scale = lcm(*(abs(w) for w in weights if w))
        keys = [(r if w > 0 else -r) * (scale // abs(w)) if w else 0 for w, r in zip(weights, values)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._scale = scale
        self._weights, self._values = weights, values
        self._sorted = [keys[i] for i in order]
        self._rank = [0] * len(keys)
        for rank, i in enumerate(order, 1):
            self._rank[i] = rank
        self._slopes = [0] * (len(keys) + 1)
        self._sums = [0] * (len(keys) + 1)
        self._slope, self._total = 0, 0

    def insert(self, i: int) -> None:
        """Insert the pair (weights[i], values[i])."""
        w, r = self._weights[i], self._values[i]
        if not w:
            self._total += abs(r)
            return
        slope, value = abs(w), r if w > 0 else -r
        self._slope += slope
        self._total += value
        rank = self._rank[i]
        while rank < len(self._sums):
            self._slopes[rank] += slope
            self._sums[rank] += value
            rank += rank & -rank

    def query(self, x: int) -> int:
        """Sum of |w x + r| over the inserted pairs."""
        # a point below -x contributes -(|w| x + sign(w) r) and any other
        # |w| x + sign(w) r; points tied with -x contribute 0 either way
        rank = bisect_left(self._sorted, -x * self._scale)
        slope, below = 0, 0
        while rank:
            slope += self._slopes[rank]
            below += self._sums[rank]
            rank -= rank & -rank
        return x * (self._slope - 2 * slope) + self._total - 2 * below


def _row_cells(m, row: int, end: int):
    """The nonzero cells (k, (p, q)) of m's row ``row`` at the columns k <
    end of its support, in column order, each as a reduced pair.  Every
    other entry is 0 and is not evaluated, so a scan reads only these."""
    support = m.row_support(row)
    for k in range(support.start, min(support.stop, end)):
        if value := m.entry(row, k):
            yield k, value.as_integer_ratio()


def _pmax(pairs: list) -> tuple:
    """The largest of a nonempty list of reduced pairs, by cross-multiplication."""
    best = pairs[0]
    for p, q in pairs:
        if p * best[1] > best[0] * q:
            best = p, q
    return best


def cond_l1_linf(m, n: int) -> tuple:
    """sup |entry| over the N/4, N/2, N leading squares (condition for (l1:linf)).

    One pass reads the N x N square row by row, each entry in m's supports
    once, and the smaller squares are checkpoints.  With generator lists,
    row last's entries below its band are w[last] col[k] + row[last],
    extremal at the extremes of col over k <= last - L, L the number of
    band lists, and then come its band cells; the sup is taken on the
    integers and divided at checkpoints.  A scan keeps the sup of each
    border b, over the cells (n, k) with max(n, k) = b, as a reduced pair,
    and a checkpoint s is the max of the sups of the borders b < s.
    """
    marks = checkpoints(n)
    out = []
    if (generators := _generators(m, n)) is not None:
        d, bands, w, col, row = generators
        width = len(bands)
        highs, lows = list(accumulate(col, max)), list(accumulate(col, min))
        best = 0
        for last in range(n):
            if last >= width:
                scale, r, k = w[last], row[last], last - width
                best = max(best, abs(scale * highs[k] + r), abs(scale * lows[k] + r))
            for cells in bands:
                best = max(best, abs(cells[last]))
            if last + 1 in marks:
                out.append((last + 1, Fraction(best, d)))
        return tuple(out)
    tops = [(0, 1)] * n  # tops[b]: the sup over the cells (row, k) with max(row, k) = b
    for row in range(n):
        for k, (p, q) in _row_cells(m, row, n):
            top = tops[max(row, k)]
            if abs(p) * top[1] > top[0] * q:
                tops[max(row, k)] = abs(p), q
    return tuple((s, _coprime(*_pmax(tops[:s]))) for s in marks)


def cond_l1_c(m, n: int) -> tuple:
    """Per-column limit diagnostics for the (l1:c) condition.

    For each column k < N/4: the oscillation of the entries over rows
    [N/2, N] (0 in a row whose support leaves column k out) and the entry
    at row N as the limit estimate.  With generator lists those entries are
    (w[n] col[k] + row[n]) / d, the lines w[n] x + row[n] of the window at
    x = col[k], so the oscillation is the max less the min of those lines
    there.  When the window's lines share one slope, as they do for every
    matrix a command builds, they are parallel, and the oscillation is
    max(row) - min(row) over the window for every column.  Lines of
    several slopes, which only a structure with a two-sided term gives,
    are read directly at each column, in O(N^2) integer operations.  A
    band of more than N/4 + 1 parts would reach into the window, so such
    a matrix is scanned.  A scan reads the window's rows up to column N/4
    as reduced pairs and takes each column's max less its min.
    """
    quarter, half, _ = checkpoints(n)
    narrow = m.structure is not None and len(m.structure[1]) <= half - quarter + 1
    if narrow and (generators := _generators(m, n + 1)) is not None:
        d, _, w, col, row = generators
        slopes, rows, xs = w[half:], row[half:], col[:quarter]
        if len(set(slopes)) == 1:  # parallel lines: the same spread at every x
            spans = [max(rows) - min(rows)] * quarter
        else:
            spans = [max(ys) - min(ys) for ys in ([s * x + r for s, r in zip(slopes, rows)] for x in xs)]
        # one Fraction per distinct oscillation
        oscillations = {span: Fraction(span, d) for span in set(spans)}
        columns = [(oscillations[span], Fraction(w[n] * x + row[n], d)) for span, x in zip(spans, xs)]
    else:
        rows = [dict(_row_cells(m, row, quarter)) for row in range(half, n + 1)]
        columns = []
        for k in range(quarter):
            window = [cells.get(k, (0, 1)) for cells in rows]
            spread = _padd(_pmax(window), _pmax(list(map(_pneg, window))))
            columns.append((_coprime(*spread), _coprime(*window[-1])))
    return tuple(
        {
            "k": k,
            "oscillation": osc,
            "limit_estimate": limit,
            "converged": osc <= OSCILLATION_TOL,
        }
        for k, (osc, limit) in enumerate(columns)
    )


def cond_l1_l1(m, n: int) -> tuple:
    """max_k of column absolute sums over the three leading squares ((l1:l1)).

    Like cond_l1_linf, one pass reads the N x N square row by row into
    running column sums; checkpoint s, read after row s - 1, is the max
    over the columns k < s.  With generator lists and L band lists, column
    k's sum at a checkpoint size is the sum of its band cells plus the sum
    of |w[j] col[k] + row[j]| over k + L <= j < size: the sum over rows
    L..size-1 less the one over rows L..k+L-1, both from ``_AbsSums``.  A
    column with no cell below the band in the square sums its band cells.
    A scan keeps each column sum as a reduced pair (``core._padd``) and
    makes one Fraction per checkpoint.
    """
    marks = checkpoints(n)
    out = []
    if (generators := _generators(m, n)) is not None:
        d, bands, w, col, row = generators
        width = len(bands)
        absolute = [list(map(abs, cells)) for cells in bands]
        # column k's band cells, for the columns whose band fits in the square
        band_sums = list(map(sum, zip(*(cells[i:] for i, cells in enumerate(absolute)))))
        below = _AbsSums(w, row)
        bases = []  # column k's band cells less the sum over rows L..k+L-1
        for last in range(n):
            if last >= width:
                below.insert(last)
            k = last - width + 1
            if 0 <= k < len(col):
                bases.append(band_sums[k] - below.query(col[k]))
            if last + 1 in marks:
                sums = [b + below.query(c) for b, c in zip(bases, col)]
                sums += [
                    sum(absolute[j - k][j] for j in range(k, last + 1)) for k in range(len(bases), last + 1)
                ]
                out.append((last + 1, Fraction(max(sums), d)))
        return tuple(out)
    sums = [(0, 1)] * n  # the reduced pairs of the column sums over the rows read
    for row in range(n):
        for k, (p, q) in _row_cells(m, row, n):
            sums[k] = _padd(sums[k], (abs(p), q))
        if row + 1 in marks:
            out.append((row + 1, _coprime(*_pmax(sums[: row + 1]))))
    return tuple(out)


def _columns_dict(cols: tuple) -> list:
    return [
        {**c, "oscillation": fmt(c["oscillation"]), "limit_estimate": fmt(c["limit_estimate"])}
        for c in cols
    ]


def verdict_stats(kind: str, m, n: int) -> dict:
    """The statistics that decide a dual kind on matrix m, keyed by report
    name: column l1 sums (alpha), sup-entry (gamma), sup-entry and column
    limits (beta)."""
    if kind == "alpha":
        return {"column_l1": cond_l1_l1(m, n)}
    if kind == "beta":
        # the column limits read rows up to N, so m's lists are built once,
        # at N + 1, and the statistics at N read their head
        checkpoints(n)
        _generators(m, n + 1)
    stats = {"sup_entry": cond_l1_linf(m, n)}
    if kind == "beta":
        stats["column_limits"] = cond_l1_c(m, n)
    return stats


def condition_stats(kind: str, m, n: int) -> dict:
    """The reported condition statistics of a dual kind on matrix m: the
    deciding ones, plus the column l1 sums as auxiliary data for beta."""
    stats = verdict_stats(kind, m, n)
    if kind == "beta":
        stats["column_l1_aux"] = cond_l1_l1(m, n)
    return stats


def conditions_dict(stats: dict) -> dict:
    """The serialized form of keyed condition statistics."""
    return {
        name: _columns_dict(value) if name == "column_limits" else _stats_dict(value)
        for name, value in stats.items()
    }


def condition_verdict(stats: dict) -> str:
    """The combined verdict of the deciding statistics: the trends of the
    column l1 sums and the sup-entry, and each column limit, which counts as
    likely_in when it converged.  Auxiliary statistics take no part."""
    verdicts = [
        classify_trend(*(v for _, v in stats[name]))
        for name in ("column_l1", "sup_entry")
        if name in stats
    ]
    verdicts += [
        "likely_in" if c["converged"] else "inconclusive"
        for c in stats.get("column_limits", ())
    ]
    return combine_verdicts(*verdicts)


class DualReport(namedtuple("DualReport", "kind n conditions verdict cross_check", defaults=(None,))):
    """A dual test of ``kind`` at truncation n: the ``conditions``, its
    condition statistics keyed by report name, the ``verdict``, and the
    ``cross_check`` dict against the closed form (else None)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        policy = policy_dict()
        policy["oscillation_tolerance"] = fmt(OSCILLATION_TOL)
        return {
            "kind": self.kind,
            "n": self.n,
            "conditions": conditions_dict(self.conditions),
            "verdict": self.verdict,
            "cross_check": self.cross_check,
            "policy": policy,
        }


def dual_test(domain: Domain | Triangle, a: Seq, kind: str, n: int) -> DualReport:
    """Evaluate whether a belongs to the given dual of the bv matrix domain.

    Accepts either a bare domain Triangle or a Domain; when a Domain with
    weights (G or R) is given and kind is beta/gamma, the report cross-checks
    the generic associated matrix against the weight-closed-form construction.
    """
    quarter = checkpoints(n)[0]
    if isinstance(domain, Domain):
        matrix, weights = domain.matrix, domain.weights
    else:
        matrix, weights = domain, None
    if kind not in DUAL_KINDS:
        raise ValueError(f"unknown dual kind {kind!r}")

    assoc = alpha_assoc(matrix, a) if kind == "alpha" else beta_assoc(matrix, a)
    conditions = condition_stats(kind, assoc, n)

    if a.support_bound is not None and a.support_bound <= quarter:
        verdict = "certified_in"
    else:
        verdict = condition_verdict(conditions)

    cross_check = None
    if weights is not None and kind in ("beta", "gamma"):
        oracle = verdict_stats(kind, closed_form_beta_matrix(weights, a), n)
        shown = conditions_dict(oracle)
        cross_check = {
            "sup_entry": shown.pop("sup_entry"),
            "match": all(oracle[name] == conditions[name] for name in oracle),
            **shown,
        }

    return DualReport(kind, n, conditions, verdict, cross_check)
