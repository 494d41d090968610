"""Search and verification of Q^2 chains of principal submatrices."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import naive_det
from reference import naive_product
from pstab import ExactMatrix
from pstab.classify import _level_q2, classify_full, is_p, is_q2, order_sum_traces
from pstab.errors import MatrixArgumentError
from pstab.exactmat import index_sets, principal_submatrix
from pstab.fixtures import (
    DEMO_A,
    DEMO_CHAIN,
    DEMO_SUB_234_SQUARE_DET,
    DEMO_SUB_234_SQUARE_ORDER2_SUM,
    DEMO_SUB_234_SQUARE_TRACE,
    DEMO_SUB_34_SQUARE_DET,
    DEMO_SUB_34_SQUARE_TRACE,
)
from pstab.nests import (
    LevelEvidence,
    NestCertificate,
    chain_tau,
    find_q2_nest,
    verify_nest,
)


def test_demo_nest_chain_and_tau():
    nest = find_q2_nest(DEMO_A)
    assert nest is not None
    assert nest.chain == DEMO_CHAIN
    assert nest.tau == (4, 3, 2, 1)


def nest_of(chain):
    """A NestCertificate whose levels have the index sets of ``chain``."""
    return NestCertificate(tuple(LevelEvidence(s, (), ()) for s in chain))


def test_nest_tau_is_read_off_the_chain():
    assert NestCertificate._fields == ("levels",)
    nest = find_q2_nest(DEMO_A)
    assert nest.chain == tuple(level.subset for level in nest.levels)
    chain = ((2,), (2, 4), (1, 2, 4), (1, 2, 3, 4))
    assert nest_of(chain).tau == chain_tau(chain) == (2, 4, 1, 3)
    assert nest_of(chain).theta == (2, 4, 1, 3)
    with pytest.raises(MatrixArgumentError):
        nest_of(((1,), (2, 3))).tau


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_chain_tau_and_theta_are_read_off_the_levels(order):
    # the maximal chain that adds the indices in ``order``; tau and theta
    # as the certificate writer and build_B computed them from a stored chain
    n = len(order)
    chain = tuple(tuple(sorted(order[:k])) for k in range(1, n + 1))
    nest = nest_of(chain)
    assert nest.chain == chain
    assert nest.tau == chain_tau(chain) == tuple(order)
    assert nest.theta == tuple(n - nest.tau.index(i) for i in range(1, n + 1))


def test_demo_nest_evidence_values():
    nest = find_q2_nest(DEMO_A)
    levels = {lv.subset: lv for lv in nest.levels}
    a12 = levels[(3, 4)]
    assert a12.order_sums_square[-1] == DEMO_SUB_34_SQUARE_DET
    assert a12.order_sums_square[0] == DEMO_SUB_34_SQUARE_TRACE
    a1 = levels[(2, 3, 4)]
    assert a1.order_sums_square[-1] == DEMO_SUB_234_SQUARE_DET
    assert a1.order_sums_square[0] == DEMO_SUB_234_SQUARE_TRACE
    assert a1.order_sums_square[1] == DEMO_SUB_234_SQUARE_ORDER2_SUM


def test_verify_nest_round_trip():
    nest = find_q2_nest(DEMO_A)
    assert verify_nest(DEMO_A, nest.chain) == nest


def test_verify_nest_reports_first_violation():
    # the {1,2} submatrix of the demo matrix is Q but its square has
    # negative trace, so a chain through it must fail at level 2
    chain = ((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4))
    table = classify_full(DEMO_A).minor_table
    for minor_table in (None, table):
        with pytest.raises(MatrixArgumentError) as excinfo:
            verify_nest(DEMO_A, chain, minor_table)
        assert str(excinfo.value) == (
            "level 2 subset (1, 2): order-1 minor sum of the square is -20"
        )
    # a level whose matrix is not Q is named by the matrix
    m = ExactMatrix([[1, 0], [0, -1]])
    with pytest.raises(MatrixArgumentError, match="^level 2 subset .*matrix is 0$"):
        verify_nest(m, ((1,), (1, 2)))


def test_verify_nest_validates_chain_shape():
    with pytest.raises(MatrixArgumentError):
        verify_nest(DEMO_A, ((1,), (1, 2)))  # wrong number of levels
    with pytest.raises(MatrixArgumentError):
        verify_nest(DEMO_A, ((1,), (2, 3), (1, 2, 3), (1, 2, 3, 4)))  # not nested
    with pytest.raises(MatrixArgumentError):
        verify_nest(DEMO_A, ((1,), (1, 1), (1, 2, 3), (1, 2, 3, 4)))  # repeats
    with pytest.raises(MatrixArgumentError):
        verify_nest(DEMO_A, ((1,), (1, 5), (1, 2, 3), (1, 2, 3, 4)))  # range
    m = ExactMatrix.identity(2)
    with pytest.raises(MatrixArgumentError):
        verify_nest(m, [("1",), ("1", "2")])  # indices that are not ints
    with pytest.raises(MatrixArgumentError):
        verify_nest(m, [(1,), (1, "2")])  # mixed, so not sortable
    with pytest.raises(MatrixArgumentError):
        verify_nest(m, [1, (1, 2)])  # a level that is not a set
    with pytest.raises(MatrixArgumentError):
        verify_nest(m, [([1],), ([1], 2)])  # an unhashable index
    with pytest.raises(MatrixArgumentError):
        verify_nest(m, [(1.0,), (1.0, 2.0)])  # floats equal to ints
    with pytest.raises(MatrixArgumentError):
        verify_nest(m, None)


def test_find_q2_nest_none_when_full_set_fails():
    assert find_q2_nest(ExactMatrix([[0, 1], [1, 0]])) is None


def test_find_q2_nest_none_when_the_descent_fails():
    # Q^2 but not P, and no 3-subset is Q^2: the search passes the full
    # set and finds no level below it
    m = ExactMatrix([[3, -3, 2, 3], [-1, 0, 0, 4], [-4, 2, 1, -4], [-3, 1, -3, 0]])
    assert is_q2(m)[0] and not is_p(m)[0]
    assert find_q2_nest(m) is None


def test_find_q2_nest_is_deterministic():
    assert find_q2_nest(DEMO_A) == find_q2_nest(DEMO_A)


# -- the level verdicts read off the P sweep against one char-poly each -----


@st.composite
def p_matrices(draw):
    """Integer or fraction P-matrices, n = 1..7: the diagonal is raised by
    whole steps until the matrix is P, then by a drawn margin, so that Q^2
    nests are found at some margins and not at others."""
    n = draw(st.sampled_from(range(1, 8)))
    entry = draw(
        st.sampled_from(
            [
                st.integers(-9, 9),
                st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)),
            ]
        )
    )
    row = st.lists(entry, min_size=n, max_size=n)
    m = ExactMatrix(draw(st.lists(row, min_size=n, max_size=n)))
    while not is_p(m)[0]:
        m = m + ExactMatrix.identity(n)
    return m + ExactMatrix.identity(n) * draw(st.sampled_from([0, 0, 2, 6, 20]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p_matrices())
def test_level_sums_from_the_p_sweep_match_a_char_poly_per_submatrix(m):
    from_table = _level_q2(m, classify_full(m).minor_table)
    from_char_poly = _level_q2(m)
    for k in range(1, m.n + 1):
        for s in index_sets(m.n, k):
            sub = principal_submatrix(m, s)
            assert from_table(s) == from_char_poly(s) == is_q2(sub)
            assert from_table(s)[1:3] == order_sum_traces(sub)


def _brute_order_sums(m):
    """[E_1, ..., E_n] of m, one cofactor determinant per principal minor."""
    return [
        sum(naive_det(principal_submatrix(m, t)) for t in index_sets(m.n, k))
        for k in range(1, m.n + 1)
    ]


@st.composite
def level_matrices(draw):
    """Integer or fraction matrices, n = 1..6, half of them raised to P."""
    n = draw(st.integers(1, 6))
    entry = draw(
        st.sampled_from(
            [
                st.integers(-6, 6),
                st.builds(Fraction, st.integers(-20, 20), st.integers(1, 5)),
            ]
        )
    )
    row = st.lists(entry, min_size=n, max_size=n)
    m = ExactMatrix(draw(st.lists(row, min_size=n, max_size=n)))
    if draw(st.booleans()):
        while not is_p(m)[0]:
            m = m + ExactMatrix.identity(n)
    return m


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(level_matrices())
@example(ExactMatrix([[2, -1, -2], [-2, 3, -3], [-2, 2, 2]]))  # A(1,3; 1,3) = 0
@example(ExactMatrix([[1, 2], [3, 4]]))  # not P
def test_the_level_reader_matches_brute_force_minor_sums(m):
    # every level S, from the P sweep's table when A is P and from one
    # char-poly of A'[S] always: E(A[S]) and E(A[S]^2) as sums of cofactor
    # determinants over the principal submatrices of A[S] and of A[S]A[S]
    table = classify_full(m).minor_table
    assert (table is None) == (not is_p(m)[0])
    readers = [_level_q2(m)] + ([] if table is None else [_level_q2(m, table)])
    for k in range(1, m.n + 1):
        for s in index_sets(m.n, k):
            sub = principal_submatrix(m, s)
            sums_m = _brute_order_sums(sub)
            sums_m2 = _brute_order_sums(naive_product(sub, sub))
            for read in readers:
                ok, got_m, got_m2, witness = read(s)
                assert (got_m, got_m2) == (sums_m, sums_m2)
                assert ok == all(v > 0 for v in sums_m + sums_m2) == (witness is None)


def _verdict(m, chain, table=None):
    """verify_nest's certificate of ``chain``, or the message it raises."""
    try:
        return verify_nest(m, chain, table)
    except MatrixArgumentError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p_matrices())
def test_nest_search_and_check_agree_with_and_without_the_table(m):
    table = classify_full(m).minor_table
    nest = find_q2_nest(m)
    assert find_q2_nest(m, table) == nest
    n = m.n
    chains = [
        [tuple(range(1, k + 1)) for k in range(1, n + 1)],
        [tuple(range(n - k + 1, n + 1)) for k in range(1, n + 1)],
    ]
    if nest is not None:
        chains.append(nest.chain)
    for chain in chains:
        assert _verdict(m, chain, table) == _verdict(m, chain)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p_matrices())
def test_verify_nest_returns_the_nest_it_re_verifies(m):
    nest = find_q2_nest(m)
    if nest is not None:
        assert verify_nest(m, nest.chain) == nest
        assert verify_nest(m, [s[::-1] for s in nest.chain]) == nest


def test_a_matrix_that_is_not_p_leaves_no_table():
    report = classify_full(ExactMatrix([[2, -1, -2], [-2, 3, -3], [-2, 2, 2]]))
    assert report.is_q2 and not report.is_p
    assert report.minor_table is None
