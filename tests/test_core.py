import operator
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvdomains import core
from bvdomains.core import (
    BandedMatrix,
    ZERO,
    InvalidWeightsError,
    Seq,
    SingularMatrixError,
    Triangle,
    _build_inverse,
    _coordinate,
    _dot,
    _entry_scan,
    _list_ops,
    _mean_product_rows,
    _PAIRS,
    _padd,
    _pmul,
    apply,
    compose,
    dense_mul,
    identity,
    invert,
    rat,
    transform_seq,
    truncate,
)
from bvdomains.builders import (
    RieszWeights,
    WeightPair,
    cesaro,
    cesaro_domain,
    cesaro_inverse,
    delta,
    gamma,
    phi,
    phi_closed_form,
    riesz,
    sigma_riesz,
    sigma_sum,
    weighted_mean,
)
from bvdomains.verify import _weight_pairs


def dense_solve_inverse(dense):
    """Independent oracle: invert a dense lower-triangular block by direct
    column-by-column substitution on materialized values."""
    n = len(dense)
    inv = [[F(0)] * n for _ in range(n)]
    for col in range(n):
        for row in range(col, n):
            if row == col:
                rhs = F(1)
            else:
                rhs = F(0)
            acc = rhs - sum(
                dense[row][j] * inv[j][col] for j in range(col, row)
            )
            inv[row][col] = acc / dense[row][row]
    return inv


def test_rat_parses_exact_literals():
    assert rat("-3/7") == F(-3, 7)
    assert rat("−3/7") == F(-3, 7)  # unicode minus accepted
    assert rat(5) == F(5)
    with pytest.raises(TypeError):
        rat(0.5)


def test_entry_identity_and_delta():
    ident = identity()
    assert ident.entry(5, 5) == 1
    assert ident.entry(5, 2) == 0
    assert delta().entry(2, 1) == -1


def test_entry_rejects_negative_indices():
    with pytest.raises(IndexError):
        identity().entry(-1, 0)


def test_truncate_examples():
    d = truncate(delta(), 2)
    assert d == ((F(1), F(0)), (F(-1), F(1)))
    c = truncate(cesaro(), 3)
    assert c[2] == (F(1, 3), F(1, 3), F(1, 3))
    with pytest.raises(ValueError):
        truncate(delta(), 0)


def test_apply_examples():
    e = Seq.constant(1)
    assert apply(delta(), e, 3) == [F(1), F(0), F(0)]
    # direct-summation oracle for the Cesaro transform of e(0)
    e0 = Seq.unit(0)
    oracle = [
        sum(F(1, n + 1) * e0(k) for k in range(n + 1)) for n in range(4)
    ]
    assert oracle == [F(1, n + 1) for n in range(4)]
    assert apply(cesaro(), e0, 4) == oracle
    x = Seq.from_values(["1", "-1/2", "1/3"])
    assert apply(identity(), x, 3) == [x(k) for k in range(3)]


@pytest.mark.parametrize("matrix", [delta, cesaro, phi, lambda: compose(cesaro(), phi())])
def test_sizes_below_one_and_unequal_sizes_are_refused(matrix):
    """A truncation and a transform need a size of at least 1, by the
    structured read and the scan alike, and dense_mul two truncations of
    one size."""
    with pytest.raises(ValueError, match=r"^truncation size must be >= 1, got 0$"):
        truncate(matrix(), 0)
    with pytest.raises(ValueError, match=r"^transform length must be >= 1, got 0$"):
        apply(matrix(), Seq.constant(1), 0)
    with pytest.raises(ValueError, match=r"^size mismatch: 2 vs 3$"):
        dense_mul(truncate(matrix(), 2), truncate(matrix(), 3))


def test_seq_eval_and_support_bound():
    assert Seq.constant(1)(7) == 1
    e3 = Seq.unit(3)
    assert e3(3) == 1 and e3(4) == 0
    harmonic = Seq(lambda k: F(1, k + 1))
    assert harmonic(1) == F(1, 2)


def test_a_running_sum_before_its_first_index_is_zero():
    total = core.running_sum(lambda n: F(n + 1))
    assert total(-2) == 0 and total(2) == 6


def test_compose_delta_cesaro_matches_dense_product():
    phi = compose(delta(), cesaro())
    n = 8
    oracle = dense_mul(truncate(delta(), n), truncate(cesaro(), n))
    for row in range(n):
        for col in range(n):
            assert phi.entry(row, col) == oracle[row][col]
    assert phi.entry(2, 1) == F(-1, 6)
    assert phi.entry(2, 2) == F(1, 3)


def test_compose_delta_sum_is_identity():
    t = compose(delta(), sigma_sum())
    assert isinstance(t, Triangle)
    for n in range(8):
        for k in range(8):
            assert t.entry(n, k) == (1 if n == k else 0)


# rows of length 2, 0 and 5, then rows 3.. zero: a finite matrix whose row
# supports are neither monotone nor triangular
FINITE_ROWS = [["1", "-1"], [], ["0", "1/2", "2", "0", "-3"], ["5"]]
FACTORS = {
    "finite": lambda: BandedMatrix.from_rows(FINITE_ROWS),
    "phi": phi,
    "delta": delta,
    "sum": sigma_sum,
    "cesaro_inv": cesaro_inverse,
}


@pytest.mark.parametrize(
    "left,right",
    [
        ("finite", "phi"),
        ("finite", "cesaro_inv"),
        ("phi", "finite"),
        ("delta", "finite"),
        ("sum", "finite"),
        ("finite", "finite"),
    ],
)
def test_compose_with_finite_rows_matches_dense_oracle(left, right):
    # 12 > every row length, so the truncated oracle sums over every j
    size = 12
    a, b = FACTORS[left](), FACTORS[right]()
    product = compose(a, b)
    assert not isinstance(product, Triangle)
    assert product.row_count == a.row_count
    expected = dense_mul(truncate(a, size), truncate(b, size))
    assert truncate(product, size) == expected
    assert _entry_scan(compose(a, b), size) == expected


@pytest.mark.parametrize(
    "left,right,bounds",
    [
        # E-shaped: A's own row supports
        ("finite", "phi", [1, -1, 4, 0, -1, -1, -1, -1]),
        # F-shaped: the running max of B's row supports
        ("delta", "finite", [1, 1, 4, 4, 4, 4, 4, 4]),
        ("finite", "finite", [1, -1, 4, 1, -1, -1, -1, -1]),
        ("phi", "sum", list(range(8))),
    ],
)
def test_compose_row_bound_covers_every_nonzero_entry(left, right, bounds):
    a, b = FACTORS[left](), FACTORS[right]()
    product = compose(a, b)
    oracle = dense_mul(truncate(a, 12), truncate(b, 12))
    assert [product.row_bound(n) for n in range(8)] == bounds
    for n in range(8):
        assert not any(oracle[n][k] for k in range(bounds[n] + 1, 12)), n


@pytest.mark.parametrize(
    "rows",
    [
        [["1", "2"], ["3"]],
        # rows that reach past the diagonal by varying amounts, up to row 40
        [["1"] * (7 * j % 23 + 1) for j in range(40)],
    ],
)
def test_compose_row_bound_reads_each_row_bound_of_the_right_factor_once(rows):
    """The row supports of phi . B for a B that is not lower triangular,
    at N = 512, are the furthest column of B's rows 0..n, as a max over
    those rows states it, and reading all of them calls B's row_bound at
    most N + 1 times, not once per row of each prefix."""
    size = 512
    b = BandedMatrix.from_rows(rows)
    expected = [range(max(b.row_bound(j) for j in range(n + 1)) + 1) for n in range(size)]
    product, calls = compose(phi(), b), []
    row_bound = b.row_bound
    b.row_bound = lambda j: calls.append(j) or row_bound(j)
    assert [product.row_support(n) for n in range(size)] == expected
    assert len(calls) <= size + 1


def test_invert_against_substitution_oracle():
    inv = invert(cesaro())
    oracle = dense_solve_inverse(truncate(cesaro(), 6))
    for row in range(6):
        for col in range(6):
            assert inv.entry(row, col) == oracle[row][col]
    assert inv.entry(3, 3) == 4
    assert inv.entry(3, 2) == -3


def test_invert_delta_is_summation():
    inv = invert(delta())
    for n in range(8):
        for k in range(n + 1):
            assert inv.entry(n, k) == 1


def test_invert_requires_diag_flag_and_detects_singularity():
    # lower triangular, but a BandedMatrix: only a Triangle is inverted
    plain = BandedMatrix(lambda n, k: F(1))
    with pytest.raises(ValueError):
        invert(plain)
    bad = Triangle(lambda n, k: F(0) if n == k == 2 else F(1))
    with pytest.raises(SingularMatrixError) as err:
        invert(bad).entry(3, 0)
    assert err.value.row == 2


small_rat = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


@st.composite
def lower_triangles(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    rows = [
        [draw(small_rat) for _ in range(i)]
        + [draw(small_rat.filter(lambda v: v != 0))]
        for i in range(n)
    ]
    t = Triangle(
        lambda r, c: rows[r][c] if r < len(rows) else (F(1) if r == c else F(0)),
    )
    return t, n


@settings(max_examples=40, deadline=None)
@given(lower_triangles())
def test_inverse_identity_property(tn):
    t, n = tn
    dense = truncate(t, n)
    dense_inv = truncate(invert(t), n)
    ident = truncate(identity(), n)
    assert dense_mul(dense, dense_inv) == ident
    assert dense_mul(dense_inv, dense) == ident


@settings(max_examples=25, deadline=None)
@given(lower_triangles(max_size=5), lower_triangles(max_size=5), lower_triangles(max_size=5))
def test_compose_associativity_property(a3, b3, c3):
    a, b, c = a3[0], b3[0], c3[0]
    n = 5
    left = truncate(compose(a, compose(b, c)), n)
    right = truncate(compose(compose(a, b), c), n)
    assert left == right


@settings(max_examples=25, deadline=None)
@given(lower_triangles(max_size=5), st.lists(small_rat, min_size=1, max_size=5))
def test_apply_compose_coherence_property(tn, values):
    t, _ = tn
    b = cesaro()
    x = Seq.from_values(values)
    assert apply(compose(t, b), x, 6) == apply(t, transform_seq(b, x), 6)


@settings(max_examples=30, deadline=None)
@given(lower_triangles())
def test_invert_involution_property(tn):
    t, n = tn
    back = invert(invert(t))
    for row in range(n):
        for col in range(row + 1):
            assert back.entry(row, col) == t.entry(row, col)


def test_memoized_entries_are_canonical():
    phi = compose(delta(), cesaro())
    for n in range(10):
        for k in range(n + 1):
            v = phi.entry(n, k)
            assert v.denominator > 0
            assert F(v.numerator, v.denominator) == v


# ------------------------------------------- integer kernels against Fractions


def naive_dense_mul(a, b):
    """The product of two truncations by a Fraction triple loop."""
    size = len(a)
    return tuple(
        tuple(
            sum((a[n][j] * b[j][k] for j in range(size)), F(0))
            for k in range(size)
        )
        for n in range(size)
    )


def naive_inverse_rows(t, size):
    """Forward substitution in Fractions, one term at a time: the first size
    rows of the inverse, reading t's diagonal and then its row in column
    order, as the integer kernel does."""
    rows = []
    for m in range(size):
        d = t.entry(m, m)
        if d == 0:
            raise SingularMatrixError(m)
        coeffs = [t.entry(m, j) for j in range(m)]
        row = [
            -sum((coeffs[j] * rows[j][k] for j in range(k, m)), F(0)) / d for k in range(m)
        ]
        rows.append(row + [1 / d])
    return rows


def kernel_inverse_rows(t, size):
    inv = _build_inverse(t)
    return [[inv.entry(m, k) for k in range(m + 1)] for m in range(size)]


def assert_same_fractions(got, expected):
    """Equal rows of Fractions, which are bit-exact because a Fraction is
    kept in lowest terms; an int 0 would compare equal, so types count."""
    assert [[type(v) for v in row] for row in got] == [[F] * len(row) for row in expected]
    assert [list(row) for row in got] == [list(row) for row in expected]


def _weights():
    return WeightPair(Seq(lambda n: F((-1) ** n, n + 1)), Seq(lambda k: F(k + 2, 3)))


NAMED = {
    "delta": delta,
    "sum": sigma_sum,
    "cesaro": cesaro,
    "cesaro_inv": cesaro_inverse,
    "weighted": lambda: weighted_mean(_weights()),
    "riesz": lambda: riesz(RieszWeights(Seq(lambda k: F(2) ** k))),
    "phi": phi,
    "gamma": lambda: gamma(_weights()),
    "sigma": lambda: sigma_riesz(RieszWeights(Seq(lambda k: F(k + 1, 2)))),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_kernels_equal_the_fraction_loops_on_named_triangles(name):
    size = 32
    t = NAMED[name]()
    dense, dense_inv = truncate(t, size), truncate(invert(t), size)
    for left, right in ((dense, dense_inv), (dense_inv, dense), (dense, dense)):
        assert_same_fractions(dense_mul(left, right), naive_dense_mul(left, right))
    assert_same_fractions(kernel_inverse_rows(t, size), naive_inverse_rows(t, size))
    fresh = NAMED[name]()
    assert_same_fractions(
        kernel_inverse_rows(invert(fresh), size), naive_inverse_rows(invert(fresh), size)
    )


# denominators up to 10^6, mostly coprime, both signs, and zeros
nonzero_big_rat = st.builds(
    lambda num, den, negative: F(-num if negative else num, den),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.booleans(),
)
big_rat = st.one_of(st.just(F(0)), nonzero_big_rat)


@st.composite
def square_pairs(draw, max_size=6):
    """Two square truncations of one size, from 1 on, with some rows and
    columns zero."""
    size = draw(st.integers(min_value=1, max_value=max_size))

    def square():
        zero_rows = draw(st.sets(st.integers(0, size - 1)))
        zero_cols = draw(st.sets(st.integers(0, size - 1)))
        return tuple(
            tuple(
                F(0) if n in zero_rows or k in zero_cols else draw(big_rat)
                for k in range(size)
            )
            for n in range(size)
        )

    return square(), square()


@settings(max_examples=60, deadline=None)
@given(square_pairs())
def test_dense_mul_equals_the_fraction_loop_property(pair):
    a, b = pair
    assert_same_fractions(dense_mul(a, b), naive_dense_mul(a, b))


@st.composite
def big_triangles(draw, max_size=7):
    """Lower triangles with large coprime denominators, a nonzero diagonal
    and some rows zero below it."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    zero_rows = draw(st.sets(st.integers(0, size - 1)))
    rows = [
        [F(0) if n in zero_rows else draw(big_rat) for _ in range(n)]
        + [draw(nonzero_big_rat)]
        for n in range(size)
    ]
    return rows


def recorded_triangle(rows, log):
    """The triangle with these rows (identity below them) that logs each
    entry evaluation."""

    def entry(n, k):
        log.append((n, k))
        value = rows[n][k] if n < len(rows) else F(int(n == k))
        if isinstance(value, Exception):
            raise value
        return value

    return Triangle(entry)


@settings(max_examples=60, deadline=None)
@given(big_triangles())
def test_forward_substitution_equals_the_fraction_loop_property(rows):
    size = len(rows)
    got_log, expected_log = [], []
    got = kernel_inverse_rows(recorded_triangle(rows, got_log), size)
    expected = naive_inverse_rows(recorded_triangle(rows, expected_log), size)
    assert_same_fractions(got, expected)
    assert got_log == expected_log


def _fault_rows(size, at, fault):
    rows = [[F(n + 2 * k + 1, k + 3) for k in range(n + 1)] for n in range(size)]
    rows[at[0]][at[1]] = fault
    return rows


@pytest.mark.parametrize("at", [(0, 0), (3, 3), (3, 0), (5, 2), (5, 4), (6, 6)])
@pytest.mark.parametrize("kind", ["zero", "invalid"])
def test_forward_substitution_reports_the_fault_the_fraction_loop_does(kind, at):
    """A zero diagonal entry names its row and an invalid weight its index,
    after the same entry evaluations as the Fraction loop; a zero below the
    diagonal is no fault."""
    size = 8
    if kind == "zero":
        fault = F(0)
    else:
        fault = InvalidWeightsError("v", at[1], F(0), "must be nonzero")
    outcomes = []
    for inverse_rows in (kernel_inverse_rows, naive_inverse_rows):
        log = []
        try:
            result = inverse_rows(recorded_triangle(_fault_rows(size, at, fault), log), size)
        except (SingularMatrixError, InvalidWeightsError) as exc:
            result = (type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "index", None))
        outcomes.append((result, log))
    (got, got_log), (expected, expected_log) = outcomes
    assert got_log == expected_log
    if kind == "zero" and at[0] != at[1]:
        assert_same_fractions(got, expected)
    else:
        assert got == expected and got[0] in (SingularMatrixError, InvalidWeightsError)
        assert got[2:] == ((at[0], None) if kind == "zero" else (None, at[1]))


def test_transform_by_a_banded_triangle_reads_its_band(monkeypatch):
    """The entry loop of a transform reads row n from column n - band, so
    N coordinates by delta or the Cesaro inverse without their declared
    structures read 2N - 1 entries."""
    size = 1024
    x = Seq(lambda k: F(1, k + 1))
    for build in (delta, cesaro_inverse):
        reads = []
        t = build()
        t.structure = None
        entry = t.entry
        t.entry = lambda n, k: reads.append((n, k)) or entry(n, k)
        assert apply(t, x, size) == [
            sum((build().entry(n, k) * x(k) for k in range(max(n - 1, 0), n + 1)), F(0))
            for n in range(size)
        ]
        assert len(reads) == 2 * size - 1


def test_a_lazy_transform_holds_each_coordinate_in_one_cache():
    """transform_seq of a structured product is the memoized Seq of the
    entry loop: 5 coordinates read are 5 values in one cache, not also in
    the cache of a Seq wrapped around it."""
    tx = transform_seq(phi(), Seq(lambda k: F(k + 2, 3)))
    for n in (0, 3, 1, 7, 3, 4):
        tx(n)
    assert not isinstance(tx._eval, Seq)
    assert sorted(tx._cache) == [0, 1, 3, 4, 7]


@pytest.mark.parametrize("build", [sigma_sum, phi_closed_form])
def test_wrapped_transforms_equal_the_entry_loop(build):
    """The sum matrix declares a structure and phi_closed_form none, and
    transform_seq wraps the bare entry loop of each in a Seq: each refuses
    -1 and equals the entry loop at every n < 64."""
    rng = random.Random(7)
    values = [F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(64)]
    x = Seq(values.__getitem__)
    tx = transform_seq(build(), x)
    assert not isinstance(tx._eval, Seq)
    with pytest.raises(IndexError):
        tx(-1)
    assert [tx(n) for n in range(64)] == [_coordinate(build(), x, n) for n in range(64)]


@st.composite
def cancelling_rationals(draw, max_size=8):
    """Signed rationals, zeros among them, whose last drawn run is followed
    by its negations in reverse order, so that every run centred where the
    two meet sums to 0."""
    values = draw(st.lists(big_rat, min_size=1, max_size=max_size))
    cut = draw(st.integers(0, len(values)))
    return values + [-x for x in reversed(values[len(values) - cut :])]


def _pairs(values):
    return [x.as_integer_ratio() for x in values]


_FRACTIONS = (operator.add, operator.mul, operator.neg, F(0), F(1))


_SHIFTS = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([1, -1]))


@settings(max_examples=100, deadline=None)
@given(cancelling_rationals(), st.data())
def test_pair_arithmetic_equals_fraction_arithmetic_property(values, data):
    """The pair sum, product, prefix sums and combine of the list
    operations give Fraction's reduced pair, q > 0, on signed values,
    zeros and runs that cancel: one list code over the pair and the
    Fraction arithmetic."""
    size = len(values)
    other = data.draw(st.lists(big_rat, min_size=size, max_size=size))
    xs, ys = _pairs(values), _pairs(other)
    for x, y, a, b in zip(xs, ys, values, other):
        assert _padd(x, y) == (a + b).as_integer_ratio()
        assert _pmul(x, y) == (a * b).as_integer_ratio()
        assert _padd(x, (-a).as_integer_ratio()) == (0, 1)
    (pair_prefix, pair_combine), (prefix, combine) = _list_ops(size, _PAIRS), _list_ops(size, _FRACTIONS)
    sides = ((xs, ys, values, other), (None, xs, None, values), (xs, None, values, None), (None, None, None, None))
    for f, g, a, b in sides:
        assert pair_prefix(f, g) == _pairs(prefix(a, b))
    shifts = data.draw(st.lists(_SHIFTS, min_size=1, max_size=4))
    for f, g, a, b in sides[:3]:
        got = pair_combine([(f, i, g, j, sign) for i, j, sign in shifts])
        expected = combine([(a, i, b, j, sign) for i, j, sign in shifts])
        assert got == _pairs(expected)


@settings(max_examples=60, deadline=None)
@given(st.lists(cancelling_rationals(max_size=4), min_size=4, max_size=4), st.sets(st.integers(0, 3)))
def test_mean_product_suffix_sums_equal_fraction_sums_property(weights, ones):
    """The rows of a product of two means from per-row pair suffix sums,
    with any side None (all ones), are Fraction's reduced pairs of Ua(n)
    Vb(k) (Va(k) Ub(k) + ... + Va(n) Ub(n)), on signed weights, zeros and
    runs whose sums cancel."""
    size = min(map(len, weights))
    seqs = [None if i in ones else (lambda values: lambda j: values[j])(w) for i, w in enumerate(weights)]
    value = lambda f, j: F(1) if f is None else f(j)
    ua, va, ub, vb = seqs
    pairs = lambda f: None if f is None else [F(f(j)).as_integer_ratio() for j in range(size)]
    lists = lambda u, v: ([(pairs(u), pairs(v))], [])  # a mean's pair lists
    row = _mean_product_rows(lists(ua, va), lists(ub, vb), size, lambda p, q: (p, q))
    for n in range(size):
        expected = [
            value(ua, n) * value(vb, k) * sum((value(va, j) * value(ub, j) for j in range(k, n + 1)), F(0))
            for k in range(n + 1)
        ]
        assert row(n) == tuple(_pairs(expected) + [(0, 1)] * (size - n - 1)), n


# the products' denominators repeat (powers of 2 and 3, 10^6) or are large
# coprime primes, so the running lcm both stays and grows
large_den_rat = st.builds(
    F, st.integers(-(10**6), 10**6), st.sampled_from([2**20, 3**13, 10**6, 999_979, 999_983])
)
dot_factor = st.one_of(big_rat, large_den_rat)


@st.composite
def dot_pairs(draw):
    """(c, y) pairs of signed rationals, zeros among them, whose last drawn
    run is followed by its negations in reverse order, so that the whole
    sum can cancel to 0."""
    pairs = draw(st.lists(st.tuples(dot_factor, dot_factor), max_size=8))
    cut = draw(st.integers(0, len(pairs)))
    return pairs + [(c, -y) for c, y in reversed(pairs[len(pairs) - cut :])]


@settings(max_examples=200, deadline=None)
@given(dot_pairs())
@example([])
@example([(F(1, 3), F(2, 5)), (F(-1, 3), F(2, 5))])
@example([(F(1, 999_983), F(1, 999_979)), (F(1, 999_979), F(1, 999_983)), (F(-2), F(1, 999_983 * 999_979))])
def test_dot_equals_the_fraction_loop_property(pairs):
    """The integer dot product of the lazy entry kernels is the one-term-at-
    a-time Fraction sum, a normalized Fraction, and ZERO itself when the
    terms cancel or there are none."""
    expected = F(0)
    for c, y in pairs:
        expected += c * y
    got = _dot(iter(pairs))
    assert type(got) is F and got == expected and hash(got) == hash(expected)
    assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1
    if not expected:
        assert got is ZERO


@pytest.mark.parametrize(
    "build",
    [
        cesaro,
        phi,
        lambda: gamma(_weights()),
        lambda: compose(cesaro(), cesaro()),
        lambda: compose(phi(), cesaro()),
        delta,
        lambda: invert(phi()),
    ],
    ids=["mean", "phi", "gamma", "mean_product", "two_terms", "delta", "inverse_phi"],
)
def test_value_mode_cells_are_normalized(build):
    """Every cell a structured truncate makes without a second gcd is the
    scan's Fraction, with its hash, in lowest terms with a positive
    denominator, and so is every coordinate of apply, against the entry
    loop."""
    size = 64
    got, expected = truncate(build(), size), _entry_scan(build(), size)
    x = Seq(lambda k: F((-1) ** k * (k + 2), 3 * k + 1))
    got += (apply(build(), x, size),)
    scanned = build()
    expected += (tuple(_coordinate(scanned, x, n) for n in range(size)),)
    for row, want in zip(got, expected):
        assert_same_fractions([row], [want])
        assert list(map(hash, row)) == list(map(hash, want))
        for v in row:
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


def test_bidiagonal_inverse_cells_equal_forward_substitution():
    """The bidiagonal inverse of a weighted mean whose u changes sign, (-1)^n
    / (n + 1), takes the reciprocal of a negative product as well as of a
    positive one: every cell equals forward substitution's, with its hash."""
    size = 64
    inv, oracle = invert(weighted_mean(_weight_pairs()[1])), _build_inverse(weighted_mean(_weight_pairs()[1]))
    for n in range(size):
        got = [inv.entry(n, k) for k in range(n + 1)]
        expected = [oracle.entry(n, k) for k in range(n + 1)]
        assert_same_fractions([got], [expected])
        assert list(map(hash, got)) == list(map(hash, expected))
        for v in got:
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


# a finite matrix with zeros and rows of unequal length, fewer rows than the
# coordinates read, so compose clips its sum at the last row
READ_ROWS = [[F((7 * n + 3 * k) % 5 - 2, k + 1) for k in range(n % 4 + n // 2 + 1)] for n in range(12)]


def _loop_coordinate(m, x, n):
    """A transform coordinate one Fraction term at a time."""
    acc = F(0)
    for k in m.row_support(n):
        c = m.entry(n, k)
        if c:
            acc += c * x(k)
    return acc


def _loop_mean_inverse_entry(u, v):
    """The bidiagonal inverse's cell of a Fraction product of the weights."""

    def entry(n, k):
        m = n if k == n else n - 1
        p = v(n) if u is None else u(m) if v is None else u(m) * v(n)
        return F(p.denominator if k == n else -p.denominator, p.numerator)

    return entry


def _read_log(monkeypatch, loops: bool):
    """The reads, in order, of transform_seq(compose(D, m), x) over 16
    coordinates and of _entry_scan(compose(m, invert(D)), 16), with D the
    Cesaro domain's matrix and m = READ_ROWS: entries of D, m, the products
    and the bidiagonal inverse of D's mean, evaluations of that mean's u, and
    x; with loops, by one-term-at-a-time loops instead of core's kernels."""
    log = []

    def logged(name, f):
        return lambda *i: log.append((name, *i)) or f(*i)

    d, m = cesaro_domain().matrix, BandedMatrix.from_rows(READ_ROWS)
    u = d._factors[1].structure[0][0][0]
    u._eval = logged("u", u._eval)
    d.entry, m.entry = logged("D", d.entry), logged("m", m.entry)
    x = logged("x", Seq(lambda k: F(k + 2, 3)))
    left = compose(d, m)
    if loops:  # compose's band-overlap range for a lower A with no band and a finite B
        monkeypatch.setattr(core, "_coordinate", _loop_coordinate)
        left._entry = lambda n, k: sum(
            (c * m.entry(j, k) for j in range(min(n, len(READ_ROWS) - 1) + 1) if (c := d.entry(n, j))), F(0)
        )
    left.entry = logged("DA", left.entry)
    coords = transform_seq(left, x)
    values = [coords(n) for n in range(16)]
    inverse = invert(d)
    bidiagonal = inverse._factors[0]
    if loops:
        bidiagonal._entry = _loop_mean_inverse_entry(u, None)
    bidiagonal.entry = logged("inv", bidiagonal.entry)
    right = compose(m, inverse)
    right.entry = logged("AD", right.entry)
    values.append(_entry_scan(right, 16))
    return log, values


def test_lazy_kernels_read_in_the_order_of_the_term_loops(monkeypatch):
    """The integer kernels read each a(n, j) just before its b(j, k), and
    x(k) only after a nonzero m(n, k), as the one-term-at-a-time Fraction
    loops do, so an invalid weight raised mid-sum is the same one."""
    got = _read_log(monkeypatch, loops=False)
    expected = _read_log(monkeypatch, loops=True)
    assert {name for name, *_ in got[0]} == {"u", "D", "m", "x", "DA", "inv", "AD"}
    assert got == expected
