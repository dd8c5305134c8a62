from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdomains.core import (
    BandedMatrix,
    Seq,
    SingularMatrixError,
    Triangle,
    apply,
    compose,
    dense_mul,
    identity,
    invert,
    rat,
    transform_seq,
    truncate,
)
from bvdomains.builders import cesaro, cesaro_inverse, delta, phi, sigma_sum


def dense_solve_inverse(dense):
    """Independent oracle: invert a dense lower-triangular block by direct
    column-by-column substitution on materialized values."""
    n = dense.size
    inv = [[F(0)] * n for _ in range(n)]
    for col in range(n):
        for row in range(col, n):
            if row == col:
                rhs = F(1)
            else:
                rhs = F(0)
            acc = rhs - sum(
                dense.values[row][j] * inv[j][col] for j in range(col, row)
            )
            inv[row][col] = acc / dense.values[row][row]
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
    assert d.values == ((F(1), F(0)), (F(-1), F(1)))
    c = truncate(cesaro(), 3)
    assert c.values[2] == (F(1, 3), F(1, 3), F(1, 3))
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


def test_seq_eval_and_support_bound():
    assert Seq.constant(1)(7) == 1
    e3 = Seq.unit(3)
    assert e3(3) == 1 and e3(4) == 0
    harmonic = Seq(lambda k: F(1, k + 1))
    assert harmonic(1) == F(1, 2)


def test_compose_delta_cesaro_matches_dense_product():
    phi = compose(delta(), cesaro())
    n = 8
    oracle = dense_mul(truncate(delta(), n), truncate(cesaro(), n))
    for row in range(n):
        for col in range(n):
            assert phi.entry(row, col) == oracle.values[row][col]
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
    assert truncate(product, size) == dense_mul(truncate(a, size), truncate(b, size))


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
        assert not any(oracle[n, k] for k in range(bounds[n] + 1, 12)), n


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
    ident = truncate(identity(), n).values
    assert dense_mul(dense, dense_inv).values == ident
    assert dense_mul(dense_inv, dense).values == ident


@settings(max_examples=25, deadline=None)
@given(lower_triangles(max_size=5), lower_triangles(max_size=5), lower_triangles(max_size=5))
def test_compose_associativity_property(a3, b3, c3):
    a, b, c = a3[0], b3[0], c3[0]
    n = 5
    left = truncate(compose(a, compose(b, c)), n)
    right = truncate(compose(compose(a, b), c), n)
    assert left.values == right.values


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
