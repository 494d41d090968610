"""Search and verification of Q^2 chains of principal submatrices."""

import functools
import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle import naive_compound, naive_det
from reference import naive_product
import pstab.nests
from pstab import ExactMatrix
from pstab.certificate import LevelEvidence, NestCertificate, chain_tau, verify_nest
from pstab.classify import _level_q2, classify_full, is_p, is_q2
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
from pstab.nests import find_q2_nest


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
    with pytest.raises(MatrixArgumentError) as excinfo:
        verify_nest(DEMO_A, chain)
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
    with pytest.raises(MatrixArgumentError, match="^chain indices must be ints$"):
        # a bool is an int subclass; kept, it would reach the certificate as JSON true
        verify_nest(DEMO_A, [(4,), (3, 4), (2, 3, 4), (True, 2, 3, 4)])
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


# -- the level reader and the search against references -------------------


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
    # every level S, by one char-poly of A'[S] on A' = cA cleared once:
    # E(A[S]) and E(A[S]^2) as sums of cofactor determinants over the
    # principal submatrices of A[S] and of A[S]A[S], and the verdict as
    # is_q2 gives it on A[S] cleared on its own
    read = _level_q2(m)
    for k in range(1, m.n + 1):
        for s in index_sets(m.n, k):
            sub = principal_submatrix(m, s)
            sums_m = _brute_order_sums(sub)
            sums_m2 = _brute_order_sums(naive_product(sub, sub))
            verdict = read(s)
            ok, got_m, got_m2, witness = verdict
            assert (got_m, got_m2) == (sums_m, sums_m2)
            assert ok == all(v > 0 for v in sums_m + sums_m2) == (witness is None)
            assert verdict == is_q2(sub)


def _reference_chain(m):
    """The chain the depth-first search must return, or None: the first
    order, lexicographic in the indices removed from the full set, whose
    every level is Q^2 by is_q2 on its Fraction submatrix."""
    n = m.n
    level_q2 = functools.cache(lambda s: is_q2(principal_submatrix(m, s))[0])
    for removed in itertools.permutations(range(1, n + 1)):
        chain = [tuple(sorted(removed[n - k :])) for k in range(1, n + 1)]
        if all(map(level_q2, chain)):
            return tuple(chain)
    return None


def _verdict(m, chain):
    """verify_nest's certificate of ``chain``, or the message it raises."""
    try:
        return verify_nest(m, chain)
    except MatrixArgumentError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p_matrices())
def test_nest_search_and_check_match_a_reference_search(m):
    # the memoized search returns the first chain in depth-first order, and
    # verify_nest accepts a chain exactly when each level is Q^2, naming
    # the first level that is not
    nest = find_q2_nest(m)
    expected = _reference_chain(m)
    assert (None if nest is None else nest.chain) == expected
    n = m.n
    chains = [
        [tuple(range(1, k + 1)) for k in range(1, n + 1)],
        [tuple(range(n - k + 1, n + 1)) for k in range(1, n + 1)],
    ]
    if expected is not None:
        chains.append(expected)
    for chain in chains:
        failing = [
            (k, s) for k, s in enumerate(chain, start=1)
            if not is_q2(principal_submatrix(m, s))[0]
        ]
        verdict = _verdict(m, chain)
        if failing:
            assert verdict.startswith("level %d subset %s: " % failing[0])
        else:
            assert verdict.chain == tuple(chain)


def test_the_search_descends_from_each_subset_once(monkeypatch):
    # a stub reader that rejects every 3-subset: no chain exists, and the
    # search must not walk a failed subtree again for every path that
    # reaches it.  Every lookup of a cached verdict is counted.
    n = 10
    lookups = []

    def reader(subset):
        return len(subset) != 3, [], [], None

    def counting_cache(f):
        cached = functools.cache(f)
        if f is not reader:
            return cached
        return lambda subset: lookups.append(subset) or cached(subset)

    monkeypatch.setattr(pstab.nests, "_level_q2", lambda m, full=None: reader)
    monkeypatch.setattr(pstab.nests, "functools", SimpleNamespace(cache=counting_cache))
    assert find_q2_nest(ExactMatrix.identity(n)) is None
    # each subset of size 4..n is descended from once and looks up each
    # subset one smaller; the full set is looked up once more first
    assert len(set(lookups)) == 2**n - 1 - n - n * (n - 1) // 2
    assert len(lookups) == 4661 <= n * 2 ** (n - 1) + 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p_matrices())
def test_verify_nest_returns_the_nest_it_re_verifies(m):
    nest = find_q2_nest(m)
    if nest is not None:
        assert verify_nest(m, nest.chain) == nest
        assert verify_nest(m, [s[::-1] for s in nest.chain]) == nest



# -- the classical classes the theorem generalizes -------------------------


def _square(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def _positive_diagonal(draw, n):
    entry = st.fractions(min_value=1, max_value=64, max_denominator=4)
    return ExactMatrix.diagonal(draw(st.lists(entry, min_size=n, max_size=n)))


@st.composite
def sign_symmetric_p_matrices(draw):
    """D1 S D2, n = 1..6, with S symmetric positive definite and D1, D2
    positive diagonals: a minor is d1(a) S(a;b) d2(b), so a pair of
    opposite minors multiplies to d1(a) d2(a) d1(b) d2(b) S(a;b)^2 >= 0
    and a principal minor is positive, though as a rule D1 S D2 is not
    symmetric."""
    n = draw(st.integers(1, 6))
    g = ExactMatrix(draw(_square(n, st.integers(-3, 3))))
    shift = st.lists(st.integers(1, 4), min_size=n, max_size=n)
    s = g * g.transpose() + ExactMatrix.diagonal(draw(shift))
    return _positive_diagonal(draw, n) * s * _positive_diagonal(draw, n)


@st.composite
def row_dominant_p_matrices(draw):
    """D (T + E), n = 1..6: E with entries in -2..2, T a diagonal with
    entries in 2n..4n, which as a rule makes T + E P and square dominant
    on its rows at every order, and D a positive diagonal.  Each minor
    A(a;b) of D (T + E) is d(a) times that of T + E, so D keeps both
    properties, and an uneven D takes the column side away."""
    n = draw(st.integers(1, 6))
    rows = draw(_square(n, st.integers(-2, 2)))
    for i in range(n):
        rows[i][i] = draw(st.integers(2 * n, 4 * n))
    return _positive_diagonal(draw, n) * ExactMatrix(rows)


def _assert_the_classical_lemma(m, order, key):
    # The theorem covers the class: A is Q^2 and every maximal chain is a
    # Q^2 nest.  Over the k-sets, by Cauchy-Binet,
    # E_k(A^2) = sum_a A(a;a)^2 + sum_a sum_(b != a) A(a;b) A(b;a), and the
    # second sum is at most sum_a sum_(b != a) A(a;b)^2 in magnitude; that
    # bound is below the first sum when A is square dominant on one side,
    # and sign-symmetry makes every one of its terms nonnegative.
    report = classify_full(m)
    assume(report.is_p and report.flags()[key])
    for k, square_sum in enumerate(report.order_sums_square, start=1):
        minors = naive_compound(m, k).rows
        diagonal = sum(minors[a][a] ** 2 for a in range(len(minors)))
        off = sum(
            x * x for a, row in enumerate(minors) for b, x in enumerate(row) if a != b
        )
        assert abs(square_sum - diagonal) <= off
        if key == "sign_symmetric":
            assert square_sum >= diagonal
        else:
            assert off < diagonal
    assert report.is_q2 and is_q2(m)[0]
    assert find_q2_nest(m) is not None
    chain = [order[:k] for k in range(1, m.n + 1)]
    assert verify_nest(m, chain).chain == tuple(tuple(sorted(s)) for s in chain)


def _with_a_permutation(matrices):
    return matrices.flatmap(
        lambda m: st.tuples(st.just(m), st.permutations(range(1, m.n + 1)))
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_with_a_permutation(sign_symmetric_p_matrices()))
def test_a_sign_symmetric_p_matrix_is_q2_with_every_chain_a_nest(case):
    _assert_the_classical_lemma(*case, "sign_symmetric")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_with_a_permutation(row_dominant_p_matrices()))
@example((ExactMatrix([[8, 6], [-3, 4]]), (2, 1)))  # row side only: not P^2
def test_a_row_square_dominant_p_matrix_is_q2_with_every_chain_a_nest(case):
    _assert_the_classical_lemma(*case, "row_sqdd")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_with_a_permutation(row_dominant_p_matrices().map(ExactMatrix.transpose)))
@example((ExactMatrix([[8, -3], [6, 4]]), (2, 1)))  # column side only: not P^2
def test_a_column_square_dominant_p_matrix_is_q2_with_every_chain_a_nest(case):
    _assert_the_classical_lemma(*case, "col_sqdd")
