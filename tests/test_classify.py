"""Membership tests for the minor-positivity classes."""

import itertools
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    random_matrix,
    random_spd_matrix,
    row_constant_m_matrix,
    row_dominant_matrix,
)
from test_golden import classify_corpus
from reference import fraction_minor_sums, naive_product, per_minor_is_p
from pstab import ExactMatrix
from pstab import classify
from pstab.classify import (
    CLASSES,
    ClassReport,
    MinorWitness,
    classify_full,
    is_p,
    is_q,
    is_q2,
    is_sign_symmetric,
    is_square_diag_dominant,
)
from pstab.errors import MatrixArgumentError
from pstab.exactmat import index_sets, integer_compounds, minor
from pstab.fixtures import DEMO_A, DEMO_D, DEMO_SQUARE_ORDER_SUMS


def test_identity_belongs_to_everything():
    report = classify_full(ExactMatrix.identity(4))
    assert all(report.flags().values())
    # order-k sum of principal minors of I is C(n, k)
    assert report.order_sums == [math.comb(4, k) for k in range(1, 5)]
    assert report.order_sums == report.order_sums_square
    assert report.witnesses == {}


def test_demo_matrix_class_profile():
    report = classify_full(DEMO_A)
    flags = report.flags()
    assert flags["P"] and flags["Q"] and flags["Q2"]
    assert not flags["P2"]
    assert not flags["sign_symmetric"]
    assert not flags["row_sqdd"] and not flags["col_sqdd"]
    assert tuple(report.order_sums_square) == DEMO_SQUARE_ORDER_SUMS


def test_is_p_witness_is_first_in_order():
    verdict, witness = is_p(ExactMatrix([[1, 0], [0, -1]]))
    assert not verdict
    assert witness.order == 1 and witness.rows == (2,) and witness.value == -1
    # positive diagonal, so the first violation appears at order 2
    verdict, witness = is_p(ExactMatrix([[1, 3], [3, 1]]))
    assert not verdict
    assert witness.order == 2 and witness.value == -8
    assert "A(1,2; 1,2) = -8" == witness.describe()


def test_order_sum_traces_match_direct_minors():
    rng = random.Random(30)
    from pstab.exactmat import index_sets, minor

    for _ in range(10):
        n = rng.choice([2, 3, 4])
        m = random_matrix(rng, n, -4, 4)
        sums_m, sums_m2 = is_q2(m)[1:3]
        sq = m.square()
        for k in range(1, n + 1):
            direct = sum(minor(m, s, s) for s in index_sets(n, k))
            direct_sq = sum(minor(sq, s, s) for s in index_sets(n, k))
            assert sums_m[k - 1] == direct
            assert sums_m2[k - 1] == direct_sq


def test_is_q_accepts_non_p_matrix():
    # a zero principal minor at order 1 but positive sums at each order
    m = ExactMatrix([[0, 1], [-1, 3]])
    verdict, sums, witness = is_q(m)
    assert verdict and witness is None
    assert not is_p(m)[0]


def test_scaled_demo_square_fails_q_at_order_one():
    scaled = DEMO_A.scale_rows(DEMO_D)
    verdict, _, witness = is_q(scaled.square())
    assert not verdict
    assert witness.order == 1
    assert witness.value == Fraction(-93, 5)


def test_is_q2_reports_square_witness():
    verdict, sums_m, sums_m2, witness = is_q2(DEMO_A.scale_rows(DEMO_D))
    assert not verdict
    assert all(s > 0 for s in sums_m)  # the matrix itself is still Q
    assert witness.value == sums_m2[0]


def test_is_p2_on_demo():
    report = classify_full(DEMO_A)
    assert not report.is_p2
    assert report.witnesses["P2"].value == -30  # (A^2)_22


def test_spd_matrices_are_sign_symmetric_p2():
    rng = random.Random(31)
    for _ in range(5):
        m = random_spd_matrix(rng, 4)
        assert is_p(m)[0]
        assert classify_full(m).is_p2
        assert is_sign_symmetric(m)[0]


ROW_ONLY_DOMINANT = ExactMatrix([[8, 6], [-3, 4]])


def test_one_side_of_square_dominance_does_not_make_p2():
    # P, and 64 > 36, 16 > 9 on the rows, but 16 <= 36 on column 2:
    # A^2 = [[46, 72], [-36, -2]]
    report = classify_full(ROW_ONLY_DOMINANT)
    assert report.is_p and report.is_row_sqdd
    assert not report.is_col_sqdd and not report.is_sign_symmetric
    assert not report.is_p2
    assert report.witnesses["P2"] == MinorWitness(
        order=1, rows=(2,), cols=(2,), value=Fraction(-2)
    )
    assert report.witnesses["P2"].describe() == "A(2; 2) = -2"


@pytest.mark.parametrize(
    "m, sweeps",
    [
        (random_spd_matrix(random.Random(33), 6), 0),  # sign-symmetric
        (row_dominant_matrix(6), 0),  # square dominant on both sides
        (ROW_ONLY_DOMINANT, 1),
    ],
    ids=["spd", "two-sided-dominant", "row-only-dominant"],
)
def test_p2_sweeps_the_square_only_when_no_classical_condition_decides_it(
    m, sweeps, monkeypatch
):
    calls = []
    product = classify.integer_product

    def counting_product(a, b):
        calls.append(a)
        return product(a, b)

    monkeypatch.setattr(classify, "integer_product", counting_product)
    report = classify_full(m)
    assert report.is_p
    assert len(calls) == sweeps
    assert report.is_p2 == per_minor_is_p(m.square())[0]


def test_sign_symmetry_witness():
    verdict, witness = is_sign_symmetric(DEMO_A)
    assert not verdict
    assert witness.order == 1
    assert witness.value == DEMO_A.entry(1, 2) * DEMO_A.entry(2, 1)


def test_sign_symmetry_witness_at_order_1_past_the_cap():
    # order 1 costs n^2 products, so the cap applies only from order 2
    m = row_dominant_matrix(8)
    assert is_sign_symmetric(m) == (
        False, MinorWitness(order=1, rows=(1,), cols=(2,), value=Fraction(-2))
    )


def upper_bidiagonal(n):
    """2 on the diagonal, 1 above it: not symmetric, and every minor is
    nonnegative, so sign-symmetric at every order."""
    return ExactMatrix(
        [[2 if j == i else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    )


def test_sign_symmetry_cap():
    # only the minor table, which a matrix that no positive diagonal makes
    # symmetric needs, has a budget
    with pytest.raises(MatrixArgumentError):
        is_sign_symmetric(upper_bidiagonal(8))
    assert is_sign_symmetric(ExactMatrix.identity(8)) == (True, None)


def test_a_matrix_a_positive_diagonal_makes_symmetric_reads_no_minor(monkeypatch):
    # A W symmetric for W = diag(1, ..., n), for W = D with A = D S, and
    # for one W per block of a block-diagonal D S: each is sign-symmetric
    # at any n, past the budget included
    built = record_minor_orders(monkeypatch)
    s = ExactMatrix([[0 if (i < 3) != (j < 3) else 1 + (i * j) % 3 for j in range(9)]
                     for i in range(9)])
    d = ExactMatrix.diagonal([Fraction(i + 1, 7 - i % 3) for i in range(9)])
    for m in (row_constant_m_matrix(8), row_constant_m_matrix(12), d * s):
        assert m != m.transpose()
        assert is_sign_symmetric(m) == (True, None)
    assert built == []
    # every a_ij a_ji > 0, but a_12 a_23 a_31 != a_21 a_32 a_13: no W, and
    # the minors are read
    m = ExactMatrix([[5, 1, 1], [2, 5, 1], [1, 1, 5]])
    assert is_sign_symmetric(m) == reference_sign_symmetry(m)
    assert built


def _minor_count(n, j):
    return sum(math.comb(n, k) ** 2 for k in range(1, j + 1))


@st.composite
def sign_patterned_matrices(draw):
    """n = 1..9, entries in -3..3, from dense to mostly zeros, and a_ji of
    the sign of a_ij (or 0) for every pair, or 0 below the diagonal: order
    1 never refutes sign-symmetry, so the read goes on as far as a witness
    or its budget."""
    n = draw(st.integers(1, 9) | st.integers(7, 9))
    values = st.sampled_from([0] * draw(st.integers(0, 6)) + [1, 2, 3])
    rows = [[draw(values) * draw(st.sampled_from([1, -1])) for _ in range(n)]
            for _ in range(n)]
    triangular = draw(st.booleans())
    for i, j in itertools.combinations(range(n), 2):
        sign = (rows[i][j] > 0) - (rows[i][j] < 0)
        rows[j][i] = 0 if triangular else abs(rows[j][i]) * sign
    return ExactMatrix(rows)


@settings(max_examples=60, deadline=None)
@given(sign_patterned_matrices())
@example(upper_bidiagonal(7))
@example(upper_bidiagonal(9))
def test_budgeted_sign_symmetry_is_the_read_of_every_order(m):
    # the budget changes no verdict it gives, forms no order past it, and
    # refuses only at the first order whose count through it passes it
    formed = []

    def recording_minors(a):
        for subsets, values in integer_compounds(a):
            formed.append(len(subsets) ** 2)
            yield subsets, values

    try:
        with mock.patch.object(classify, "integer_compounds", recording_minors):
            budgeted = is_sign_symmetric(m)
    except MatrixArgumentError as exc:
        j, n, count, budget = map(int, re.fullmatch(
            r"sign-symmetry check through order j=(\d+) at n=(\d+) forms (\d+) "
            r"minors; at most (\d+) are allowed", str(exc)
        ).groups())
        assert (n, budget) == (m.n, classify.SIGN_SYMMETRY_MAX_MINORS)
        assert count == _minor_count(n, j) > budget >= _minor_count(n, j - 1)
        budgeted = None
    assert sum(formed) <= classify.SIGN_SYMMETRY_MAX_MINORS
    with mock.patch.object(classify, "SIGN_SYMMETRY_MAX_MINORS", math.inf):
        full = is_sign_symmetric(m)
    if budgeted is None:
        assert full[0] or full[1].order >= j
    else:
        assert budgeted == full


def test_square_diag_dominance_sides():
    m = ExactMatrix([[5, 3], [1, 5]])
    assert is_square_diag_dominant(m, "row")[0]
    assert is_square_diag_dominant(m, "col")[0]
    lopsided = ExactMatrix([[2, 3], [0, 10]])  # 4 <= 9 on row 1
    assert not is_square_diag_dominant(lopsided, "row")[0]
    assert is_square_diag_dominant(lopsided, "col")[0]
    assert is_square_diag_dominant(lopsided.transpose(), "row")[0]
    with pytest.raises(MatrixArgumentError):
        is_square_diag_dominant(m, "diag")


def test_classify_full_agrees_with_individual_tests():
    rng = random.Random(32)
    for _ in range(10):
        m = random_matrix(rng, rng.choice([2, 3]), -3, 3)
        report = classify_full(m)
        assert report.is_p == is_p(m)[0]
        assert report.is_q == is_q(m)[0]
        assert report.is_p2 == (is_p(m)[0] and is_p(m.square())[0])
        assert report.is_q2 == is_q2(m)[0]
        assert report.is_sign_symmetric == is_sign_symmetric(m)[0]
        assert report.is_row_sqdd == is_square_diag_dominant(m, "row")[0]
        assert report.is_col_sqdd == is_square_diag_dominant(m, "col")[0]
        for key, flag in report.flags().items():
            if not flag:
                assert key in report.witnesses


# -- the shared minor table against one Bareiss minor per index pair --------


def reference_sign_symmetry(m):
    """Sign-symmetry with every minor a separate Bareiss determinant."""
    for k in range(1, m.n + 1):
        subsets = list(index_sets(m.n, k))
        for i, a in enumerate(subsets):
            for b in subsets[i + 1 :]:
                product = minor(m, a, b) * minor(m, b, a)
                if product < 0:
                    return False, MinorWitness(order=k, rows=a, cols=b, value=product)
    return True, None


def reference_square_dominance(m, side):
    """Square diagonal dominance with every minor a separate Bareiss
    determinant; the column side runs on the transpose."""
    mm = m if side == "row" else m.transpose()
    for k in range(1, mm.n + 1):
        subsets = list(index_sets(mm.n, k))
        for a in subsets:
            diag = minor(mm, a, a)
            off = sum((minor(mm, a, b) ** 2 for b in subsets if b != a), Fraction(0))
            if diag * diag <= off:
                return False, MinorWitness(
                    order=k, rows=a, cols=a, value=diag * diag - off
                )
    return True, None


@st.composite
def class_test_matrices(draw):
    """Integer, fraction, sparse, singular or nearly symmetric matrices,
    n = 1..6, with a diagonal shift that lets the checks run past order 1;
    or D*S, D a positive diagonal and S symmetric, positive definite or
    sparse (its zeros may split it into blocks), which is sign-symmetric
    (its minors multiply to d_a d_b S(a;b)^2 >= 0) but, as a rule, not
    symmetric."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from([
        "integer", "fraction", "sparse", "singular", "symmetric", "scaled-spd",
        "scaled-sparse",
    ]))
    if kind.startswith("scaled"):
        def vector(entry):
            return st.lists(entry, min_size=n, max_size=n)

        if kind == "scaled-spd":
            g = ExactMatrix(draw(vector(vector(st.integers(-3, 3)))))
            s = g * g.transpose() + ExactMatrix.diagonal(draw(vector(st.integers(1, 4))))
        else:
            upper = draw(vector(vector(st.sampled_from([0, 0, 0, 1, -1, 2, -3]))))
            s = ExactMatrix([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
        d = draw(vector(st.fractions(min_value=1, max_value=9, max_denominator=4)))
        return ExactMatrix.diagonal(d) * s
    if kind == "fraction":
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    elif kind == "sparse":
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    else:
        entry = st.integers(-5, 5)
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    shift = draw(st.sampled_from([0, 0, 4, 12, 30]))
    for i in range(n):
        rows[i][i] += shift
    if kind == "singular" and n > 1:
        rows[-1] = list(rows[0])
    if kind == "symmetric":  # sign-symmetric, then one entry moved
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] += draw(st.sampled_from([0, 1, -2]))
    return ExactMatrix(rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(class_test_matrices())
def test_minor_table_checks_match_per_minor_reference(m):
    report = classify_full(m)
    assert report.is_p2 == (per_minor_is_p(m)[0] and per_minor_is_p(m.square())[0])
    row, col = (
        (is_square_diag_dominant(m, side), reference_square_dominance(m, side))
        for side in ("row", "col")
    )
    for key, (got, (verdict, witness)) in (
        ("sign_symmetric", (is_sign_symmetric(m), reference_sign_symmetry(m))),
        ("row_sqdd", row),
        ("col_sqdd", col),
    ):
        assert got == (verdict, witness)
        assert report.flags()[key] == verdict
        assert report.witnesses.get(key) == witness


def record_minor_orders(monkeypatch):
    """Wrap the all-minor generator where classify binds it; the list
    returned records each order it yields, as the order is formed."""
    built = []
    minors = classify.integer_compounds

    def recording_minors(a):
        for subsets, values in minors(a):
            built.append(len(subsets[0]))
            yield subsets, values

    monkeypatch.setattr(classify, "integer_compounds", recording_minors)
    return built


def test_minor_table_grows_only_to_the_order_the_checks_reach(monkeypatch):
    built = record_minor_orders(monkeypatch)
    report = classify_full(DEMO_A)  # every check fails at order 1
    assert built == [1]
    checks = ("sign_symmetric", "row_sqdd", "col_sqdd")
    assert {report.witnesses[key].order for key in checks} == {1}
    built.clear()
    assert is_sign_symmetric(upper_bidiagonal(4))[0]
    assert built == [1, 2, 3, 4]
    built.clear()
    assert is_sign_symmetric(ExactMatrix.identity(4))[0]
    assert built == []


@st.composite
def dominance_test_matrices(draw):
    """n = 1..7, small off-diagonal entries over a diagonal that is often
    large enough for square dominance to hold to a deep order.  A "tight"
    diagonal entry exceeds the root of its row's off-diagonal squares by
    at most 1, so order 1 passes on the row side and a later order often
    fails; "zero-diagonal", "zero-row" and "repeated-row" ones are singular
    or have a zero diagonal entry, so that the sweeps meet zero minors."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(
        ["integer", "tight", "fraction", "zero-diagonal", "zero-row", "repeated-row"]
    ))
    if kind == "fraction":
        entry = st.fractions(min_value=-2, max_value=2, max_denominator=5)
    else:
        entry = st.integers(-2, 2)
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    for i in range(n):
        if kind == "tight":
            off = sum(x * x for j, x in enumerate(rows[i]) if j != i)
            rows[i][i] = (math.isqrt(off) + 1) * draw(st.sampled_from([1, -1]))
        else:
            rows[i][i] = draw(st.sampled_from([0, 2, 5, 9, 25, 25, -9, -25]))
    i = draw(st.integers(0, n - 1))
    if kind == "zero-diagonal":
        rows[i][i] = 0
    elif kind == "zero-row":
        rows[i] = [0] * n
    elif kind == "repeated-row" and n > 1:
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
        rows[j] = [draw(st.sampled_from([-1, 1, 2])) * x for x in rows[i]]
    return ExactMatrix(rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dominance_test_matrices())
def test_square_dominance_sweeps_match_per_minor_reference(m):
    report = classify_full(m)
    assert report.is_p2 == (per_minor_is_p(m)[0] and per_minor_is_p(m.square())[0])
    for side in ("row", "col"):
        verdict, witness = reference_square_dominance(m, side)
        assert is_square_diag_dominant(m, side) == (verdict, witness)
        assert report.flags()[f"{side}_sqdd"] == verdict
        assert report.witnesses.get(f"{side}_sqdd") == witness


@pytest.mark.parametrize("n", range(4, 13))
def test_symmetric_input_never_builds_the_minor_table(n, monkeypatch):
    built = record_minor_orders(monkeypatch)
    rng = random.Random(n)
    spd = random_spd_matrix(rng, n)
    g = random_matrix(rng, n, -4, 4)
    symmetric = g + g.transpose()  # neither P nor dominant, as a rule
    for m in (spd, symmetric):
        report = classify_full(m)
        assert report.is_sign_symmetric
        assert "sign_symmetric" not in report.witnesses
    assert report.is_p is False
    assert built == []


@st.composite
def p_test_matrices(draw):
    """Integer, fraction or singular matrices, n = 1..7, diagonally shifted
    so that the sweep often runs to a deep order or to the end; "diagonal"
    ones have a positive diagonal over small off-diagonal entries, so that
    their first nonpositive minor, if any, is often of order 3 or more."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["integer", "fraction", "singular", "diagonal"]))
    if kind == "fraction":
        entry = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7))
    elif kind == "diagonal":
        entry = st.integers(-3, 3)
    else:
        entry = st.integers(-9, 9)
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    shift = draw(st.sampled_from([0, 3, 8, 15, 25, 40]))
    for i in range(n):
        rows[i][i] = draw(st.integers(2, 6)) if kind == "diagonal" else rows[i][i] + shift
    if kind == "singular" and n > 1:  # a zero minor wherever rows i, j meet
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        factor = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        rows[j] = [factor * x for x in rows[i]]
    return ExactMatrix(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p_test_matrices())
def test_sweep_matches_per_minor_bareiss(m):
    assert is_p(m) == per_minor_is_p(m)


def test_sweep_witness_deep_in_the_lattice():
    # P up to order 3; the one nonpositive minor is A(1,2,3,4; 1,2,3,4)
    m = ExactMatrix([[2, 1, 0, 1], [1, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]])
    assert is_p(m) == per_minor_is_p(m)
    verdict, witness = is_p(m)
    assert not verdict and witness.rows == (1, 2, 3, 4) and witness.value == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p_test_matrices())
def test_order_sums_match_faddeev_leverrier_of_the_square(m):
    # E(M^2) by root squaring against the char-poly of the formed square
    assert is_q2(m)[1:3] == (
        fraction_minor_sums(m), fraction_minor_sums(naive_product(m, m))
    )


@st.composite
def non_p_matrices(draw):
    """p_test_matrices with the least whole shift of the diagonal down that
    leaves them not P: the first nonpositive principal minor is then often
    of order 2 or more, and zero where the shift meets an integer root."""
    m = draw(p_test_matrices())
    shift = 0
    while is_p(m - ExactMatrix.identity(m.n) * shift)[0]:
        shift += 1
    return m - ExactMatrix.identity(m.n) * shift


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(non_p_matrices())
def test_classify_full_without_p_matches_per_minor_reference(m):
    # P, Q and Q^2 from one char-poly; P^2 takes P's witness; the opt-in
    # checks read the sweep past a negative minor but never past a zero one
    report = classify_full(m)
    verdict, witness = per_minor_is_p(m)
    assert not verdict and report.witnesses["P"] == report.witnesses["P2"] == witness
    assert not report.is_p and not report.is_p2
    assert (report.order_sums, report.order_sums_square) == (
        fraction_minor_sums(m), fraction_minor_sums(naive_product(m, m))
    )
    q_ok, _, q_witness = is_q(m)
    assert (report.is_q, report.witnesses.get("Q")) == (q_ok, q_witness)
    q2_ok, *_, q2_witness = is_q2(m)
    assert (report.is_q2, report.witnesses.get("Q2")) == (q2_ok, q2_witness)
    for key, (verdict, witness) in (
        ("sign_symmetric", reference_sign_symmetry(m)),
        ("row_sqdd", reference_square_dominance(m, "row")),
        ("col_sqdd", reference_square_dominance(m, "col")),
    ):
        assert report.flags()[key] == verdict
        assert report.witnesses.get(key) == witness


@pytest.mark.parametrize(
    "a",
    [DEMO_A, ExactMatrix([[2, -1, -2], [-2, 3, -3], [-2, 2, 2]])],
    ids=["p", "not-p"],
)
def test_class_reports_compare_by_value_and_hold_plain_data(a):
    report = classify_full(a)
    assert report == classify_full(a)
    assert all(
        type(v) is Fraction for v in report.order_sums + report.order_sums_square
    )
    text = repr(report)
    assert text.startswith("ClassReport(n=")
    assert "<function" not in text and "lambda" not in text
    with pytest.raises(AttributeError):
        report.is_p = not report.is_p


def test_a_class_report_is_its_witnesses():
    assert ClassReport._fields == ("n", "order_sums", "order_sums_square", "witnesses")
    verdicts = {
        "P": "is_p", "Q": "is_q", "P2": "is_p2", "Q2": "is_q2",
        "sign_symmetric": "is_sign_symmetric",
        "row_sqdd": "is_row_sqdd", "col_sqdd": "is_col_sqdd",
    }
    assert list(verdicts) == [key for key, _ in CLASSES]
    for a in classify_corpus():
        report = classify_full(a)
        assert set(report.witnesses) <= set(verdicts)
        for key, name in verdicts.items():
            assert getattr(report, name) == (key not in report.witnesses)
        assert list(report.flags()) == list(verdicts)
