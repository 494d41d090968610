"""Exact matrix arithmetic, determinants and index-set combinatorics."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fraction_matrix, random_invertible, random_matrix
from reference import faddeev_leverrier, fraction_inverse, naive_product
from pstab import ExactMatrix, det, inverse, minor, trace
from pstab.errors import MatrixArgumentError, SingularMatrixError
from pstab.exactmat import (
    as_rational,
    check_index_set,
    cleared,
    index_sets,
    integer_compounds,
    integer_det,
    integer_minor_sums,
    principal_submatrix,
    submatrix,
)


def test_as_rational_accepts_exact_forms():
    assert as_rational(3) == 3
    assert as_rational(Fraction(-7, 5)) == Fraction(-7, 5)
    assert as_rational("-7/5") == Fraction(-7, 5)
    assert as_rational("0.1") == Fraction(1, 10)  # decimal, not binary float
    assert as_rational("12") == 12


@pytest.mark.parametrize("bad", [0.1, None, [1], "1/0", "abc"])
def test_as_rational_rejects(bad):
    with pytest.raises(MatrixArgumentError):
        as_rational(bad)


def test_matrix_must_be_square_and_nonempty():
    with pytest.raises(MatrixArgumentError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(MatrixArgumentError):
        ExactMatrix([])


def test_matrix_is_immutable():
    m = ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.n = 3


def test_entry_is_one_based():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m.entry(1, 2) == 2
    assert m.entry(2, 1) == 3
    with pytest.raises(MatrixArgumentError):
        m.entry(0, 1)
    with pytest.raises(MatrixArgumentError):
        m.entry(1, 3)


def test_constructors():
    assert ExactMatrix.identity(3) == ExactMatrix(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    d = ExactMatrix.diagonal(["1/2", 3])
    assert d.entry(1, 1) == Fraction(1, 2)
    assert d.entry(1, 2) == 0


def test_arithmetic_small_cases():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert a + b == ExactMatrix([[1, 3], [4, 4]])
    assert a - b == ExactMatrix([[1, 1], [2, 4]])
    assert a * b == ExactMatrix([[2, 1], [4, 3]])
    assert a * 2 == ExactMatrix([[2, 4], [6, 8]])
    assert Fraction(1, 2) * a == ExactMatrix([["1/2", 1], ["3/2", 2]])
    assert a.square() == a * a
    assert a.transpose() == ExactMatrix([[1, 3], [2, 4]])
    assert a.scale_rows([2, "1/3"]) == ExactMatrix([[2, 4], [1, "4/3"]])


def test_dimension_mismatch_raises():
    a = ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(MatrixArgumentError):
        a + ExactMatrix([[1]])
    with pytest.raises(MatrixArgumentError):
        a.scale_rows([1])


def test_det_basics():
    assert det(ExactMatrix.identity(5)) == 1
    assert det(ExactMatrix([[1, 2], [2, 4]])) == 0
    assert det(ExactMatrix([[2, 5, 1], [0, 3, 7], [0, 0, "1/2"]])) == 3
    # needs the row swap path: zero pivot in column 1
    assert det(ExactMatrix([[0, 1], [1, 0]])) == -1


def test_det_two_by_two_formula():
    rng = random.Random(10)
    for _ in range(50):
        m = random_fraction_matrix(rng, 2)
        a, b = m.rows[0]
        c, d = m.rows[1]
        assert det(m) == a * d - b * c


def test_det_is_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        a = random_fraction_matrix(rng, n)
        b = random_matrix(rng, n)
        assert det(a * b) == det(a) * det(b)
        assert det(a.transpose()) == det(a)


def test_index_set_validation():
    assert check_index_set((1, 3), 4) == (1, 3)
    with pytest.raises(MatrixArgumentError):
        check_index_set((3, 1), 4)  # not increasing
    with pytest.raises(MatrixArgumentError):
        check_index_set((1, 5), 4)  # out of range
    with pytest.raises(MatrixArgumentError):
        check_index_set((), 4)
    with pytest.raises(MatrixArgumentError):
        check_index_set((1, 2), 4, k=3)


def test_submatrix_and_minor():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert submatrix(m, (1, 3), (2, 3)) == ExactMatrix([[2, 3], [8, 10]])
    assert minor(m, (1, 3), (2, 3)) == 2 * 10 - 3 * 8
    assert principal_submatrix(m, (2, 3)) == ExactMatrix([[5, 6], [8, 10]])
    with pytest.raises(MatrixArgumentError):
        minor(m, (1, 2), (1,))


def test_inverse_round_trip():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.choice([1, 2, 3, 4])
        m = random_invertible(rng, n)
        assert m * inverse(m) == ExactMatrix.identity(n)
        assert inverse(m) * m == ExactMatrix.identity(n)


def test_inverse_of_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(ExactMatrix([[1, 2], [2, 4]]))


def test_trace_and_abs():
    m = ExactMatrix([[1, -2], ["-1/2", 4]])
    assert trace(m) == 5


def test_principal_minor_sums_match_direct_minors():
    rng = random.Random(20)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_fraction_matrix(rng, n)
        a, c = cleared(m)  # E_k(A) = E_k(cA) / c^k
        sums = [Fraction(e, c**k) for k, e in enumerate(integer_minor_sums(a))]
        assert sums[0] == 1 and len(sums) == n + 1
        for k in range(1, n + 1):
            assert sums[k] == sum(minor(m, s, s) for s in index_sets(n, k))


def square_lists(entries, max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(square_lists(st.integers(-(10**30), 10**30), 7))
def test_newton_minor_sums_match_faddeev_leverrier(a):
    assert list(integer_minor_sums(a)) == faddeev_leverrier(a)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(square_lists(st.integers(-4, 4), 7))
def test_newton_minor_sums_of_small_entries(a):
    # many zero and repeated eigenvalues, and singular matrices
    assert list(integer_minor_sums(a)) == faddeev_leverrier(a)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(square_lists(st.integers(-(10**12), 10**12), 7))
def test_every_prefix_of_the_minor_sums_is_faddeev_leverrier(a):
    # the orders read from a fresh generator, up to each order k in turn
    expected = faddeev_leverrier(a)
    for k in range(len(a) + 1):
        assert list(itertools.islice(integer_minor_sums(a), k + 1)) == expected[: k + 1]


def test_reading_k_orders_forms_ceil_half_k_minus_one_products(monkeypatch):
    # A^h is formed when order k = 2h - 1 asks for it, and no sooner: none
    # up to order 2, where E_1 = Tr A and E_2 = (Tr(A)^2 - Tr(A^2)) / 2
    import pstab.exactmat

    product = pstab.exactmat.integer_product
    products = []
    monkeypatch.setattr(
        pstab.exactmat,
        "integer_product",
        lambda x, y: products.append(len(x)) or product(x, y),
    )
    rng = random.Random(21)
    for n in range(1, 8):
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = faddeev_leverrier(a)  # its products are not counted
        products.clear()
        sums = integer_minor_sums(a)
        for k in range(n + 1):
            assert next(sums) == expected[k]
            assert len(products) == max(0, (k + 1) // 2 - 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(square_lists(st.integers(-3, 3), 7))
def test_leading_minors_match_a_determinant_per_block(a):
    # small entries give zero pivots and row swaps; the Laplace expansion
    # of integer_compounds is the reference (its first subset is 1..k)
    expected = [minors[0][0] for _, minors in integer_compounds(a)]
    blocks = [[row[:k] for row in a[:k]] for k in range(1, len(a) + 1)]
    assert list(map(integer_det, blocks)) == expected


FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7))


@st.composite
def inverse_cases(draw):
    """A rational matrix, n = 1..6; for some, one row a multiple of another."""
    rows = draw(square_lists(FRACTIONS, 6))
    n = len(rows)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = draw(FRACTIONS)
        rows[j] = [factor * x for x in rows[i]]
    return ExactMatrix(rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inverse_cases())
def test_fraction_free_inverse_matches_gauss_jordan_over_q(m):
    try:
        expected = fraction_inverse(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            inverse(m)
        assert det(m) == 0
    else:
        assert inverse(m) == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(*[
        st.lists(st.lists(FRACTIONS, min_size=n, max_size=n), min_size=n, max_size=n)
    ] * 2)
))
def test_cleared_product_matches_the_fraction_product(pair):
    a, b = (ExactMatrix(rows) for rows in pair)
    assert a * b == naive_product(a, b)
