"""Exact membership tests for the minor-positivity matrix classes.

A P-matrix has every principal minor positive; a Q-matrix has every order's
sum of principal minors positive; the squared variants require the same of
the matrix square.  Sign-symmetry and square diagonal dominance are the two
classical sufficient conditions the stability theorem subsumes.

Every check runs on the integer-cleared matrix A' = cA.  A Sylvester
sweep over the subset lattice yields the principal minors one order at a
time, each from one exact integer division per bordered minor, and forms
an order only when its consumer asks for it.  P reads the sweep of A' and
stops at the first nonpositive minor (:func:`is_p`).  Q and Q^2 are the
order sums of A' and their root-squaring step: in :func:`classify_full`,
the sums of the sweep's orders when A is P, and one char-poly of A'
otherwise.  Every other Q^2 test, of a nest level A[S] or of the whole
matrix (:func:`is_q2`), has one reader (:func:`_level_q2`): one char-poly
of A'[S], or, for the full set, the verdict the sweep has already given.

:func:`classify_full` takes two steps over the one sweep
(:func:`_classify`).  The first decides the stability theorem's
hypotheses on A itself: P, and for a P-matrix Q^2.  The second finishes
the report with the classes the theorem generalizes.  ``certify`` and
``verify`` stop after the first when a hypothesis fails, so a refutation
costs only its witness, and an input that the sign-symmetry budget below
would refuse is refuted instead when it is not P, not Q^2 or has no nest.

Square dominance needs the minors A(a;b) off the diagonal only through
their sum of squares, which by Cauchy-Binet is a principal minor of the
Gram matrix A'A'^T (A'^T A' for the column side), so it reads the sweeps
of A' and of the Gram matrix side by side and stops at the first
violation.  A matrix that a positive diagonal W makes symmetric, A W
symmetric, is sign-symmetric: A(a;b) W(b) = A(b;a) W(a), so
A(a;b) A(b;a) = A(a;b)^2 W(b) / W(a) >= 0, with W(b) the product of the
w_j over b.  Symmetric input has W = I.  Only a matrix with no such W
reads every minor A(a;b), from the all-minor generator of
:mod:`pstab.exactmat`, which forms one order at a time by Laplace
expansion on A' (:func:`~pstab.exactmat.integer_compounds`), and stops
before an order that would take it past SIGN_SYMMETRY_MAX_MINORS minors
(:func:`~pstab.exactmat.check_minor_budget`).

P^2 is P and P of A^2.  By Cauchy-Binet a principal minor of A^2 is the
sum over b of A(a;b) A(b;a): sign-symmetry makes every term nonnegative,
the term A(a;a)^2 positive when A is P, and row and column square
dominance together bound the terms b != a strictly below A(a;a)^2 by
Cauchy-Schwarz.  One side alone does not: [[8, 6], [-3, 4]] is P and row
dominant, with (A^2)_22 = -2.  Only a P-matrix with neither property
sweeps A'^2.

Q^2, which the stability theorem asks for, follows from each of the three
conditions on a P-matrix; so the theorem generalizes Carlson's
(sign-symmetric) and Tang et al.'s (square dominant) results.  Over the
k-sets, E_k(A^2) = sum_a A(a;a)^2 + sum_a sum_(b != a) A(a;b) A(b;a).
Sign-symmetry makes every off-diagonal term nonnegative.  Cauchy-Binet
and |xy| <= (x^2 + y^2) / 2 bound their sum in magnitude by
sum_a sum_(b != a) A(a;b)^2, which square dominance on one side puts
below the first sum: Q^2, but not P^2, as [[8, 6], [-3, 4]] has
E(A^2) = (44, 2500).  All three conditions pass to principal
submatrices, so every maximal chain is a Q^2 nest.

All verdicts are exact.  Every negative verdict carries a witness that
re-evaluates to a violation; witness ordering is deterministic (smallest
minor order first, then lexicographic rank).  A report is its witnesses:
:class:`ClassReport` reads every verdict off them.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from fractions import Fraction

from .errors import MatrixArgumentError
from .exactmat import (
    ExactMatrix,
    check_minor_budget,
    cleared,
    index_sets,
    integer_compounds,
    integer_minor_sums,
    integer_product,
    rational_str,
    squared_minor_sums,
)

# The sign-symmetry check of a matrix that no positive diagonal makes
# symmetric forms no order of minors that would take it past this many,
# C(14,7) - 1, in all: every order at n <= 7, order 2 at n <= 11 and order
# 1 alone past that.  Any other input reads no minor.
SIGN_SYMMETRY_MAX_MINORS = 3431


class MinorWitness(namedtuple("MinorWitness", "order rows cols value")):
    """A single offending minor (or pair of opposite minors)."""

    __slots__ = ()

    def describe(self):
        return (
            f"A({','.join(map(str, self.rows))}; {','.join(map(str, self.cols))})"
            f" = {rational_str(self.value)}"
        )


class OrderSumWitness(namedtuple("OrderSumWitness", "order value")):
    """An order whose sum of principal minors is nonpositive."""

    __slots__ = ()

    def describe(self):
        return (
            f"sum of principal minors of order {self.order} = "
            f"{rational_str(self.value)}"
        )


# The seven classes a report decides, as (key, label) in report order.
CLASSES = (
    ("P", "P"),
    ("Q", "Q"),
    ("P2", "P^2"),
    ("Q2", "Q^2"),
    ("sign_symmetric", "sign-symmetric"),
    ("row_sqdd", "row square diagonally dominant"),
    ("col_sqdd", "column square diagonally dominant"),
)


def _holds(key):
    return property(lambda report: key not in report.witnesses)


class ClassReport(namedtuple(
    "ClassReport", "n order_sums order_sums_square witnesses"
)):
    """The class verdicts, held as the witnesses that refute them.

    ``witnesses`` maps the key (see CLASSES) of each class that fails to
    its witness; the ``is_*`` verdicts and :meth:`flags` are read off it.
    ``order_sums`` and ``order_sums_square`` hold, per order 1..n, the sums
    of principal minors of M and of M*M.
    """

    __slots__ = ()

    is_p = _holds("P")
    is_q = _holds("Q")
    is_p2 = _holds("P2")
    is_q2 = _holds("Q2")
    is_sign_symmetric = _holds("sign_symmetric")
    is_row_sqdd = _holds("row_sqdd")
    is_col_sqdd = _holds("col_sqdd")

    def flags(self):
        """{key: verdict} over CLASSES, in report order."""
        return {key: key not in self.witnesses for key, _ in CLASSES}


def _principal_minors(a):
    """Yield the principal minors of an integer matrix given as a list of
    int rows, one order at a time: for k = 1..n, the list of det a[S] over
    the k-subsets S in lexicographic order (the order of
    :func:`~pstab.exactmat.index_sets`).

    One Sylvester sweep over the subset lattice.  A subset S with largest
    index s carries its bordered minors b_ij = det a[S + i; S + j] for
    i, j > s; S = {} carries a itself.  Then det a[S + p] = b_pp, and
    Sylvester's identity gives the bordered minors of S + p,

        (b_pp b_ij - b_ip b_pj) / det a[S],   i, j > p,

    an exact integer division.  Extending the subsets of one order in lex
    order, each by increasing p, lists the next order in lex order again.
    The bordered minors of order k + 1 are formed only when the caller asks
    for that order, dividing by every minor of order k, so a caller must
    stop at an order that holds a zero minor; every caller here stops at
    its first violation, and a zero minor is one.
    """
    level = [(1, a)]  # (det a[S], bordered minors of S), lex order of S
    while level:
        yield [line[p] for _, bordered in level for p, line in enumerate(bordered)]
        grown = []
        for minor_s, bordered in level:
            for p, pivot_line in enumerate(bordered[:-1]):
                pivot, tail = pivot_line[p], pivot_line[p + 1 :]
                grown.append((pivot, [
                    [(pivot * x - row[p] * y) // minor_s
                     for x, y in zip(row[p + 1 :], tail)]
                    for row in bordered[p + 1 :]
                ]))
        level = grown


def _first_nonpositive_minor(orders, n, scale):
    """The first nonpositive value, in (order, lex rank) order, of an
    iterator over lists of values indexed like the principal minors by
    order, as a principal MinorWitness with value / scale^k; or None.
    No further order is asked for once one holds a nonpositive value."""
    for k, values in enumerate(orders, start=1):
        if min(values) <= 0:
            i = next(i for i, v in enumerate(values) if v <= 0)
            subset = next(itertools.islice(index_sets(n, k), i, None))
            return MinorWitness(
                order=k, rows=subset, cols=subset, value=Fraction(values[i], scale**k)
            )
    return None


def is_p(m: ExactMatrix):
    """P-matrix test: every principal minor positive.

    Returns (verdict, witness); the witness is the first nonpositive
    principal minor in (order, lex rank) order, or None.

    One Sylvester sweep (:func:`_principal_minors`) over A' = cA on
    integers, c the lcm of the denominators, stopped at the first
    nonpositive minor; that minor of A is its value over c^k.
    """
    a, c = cleared(m)
    witness = _first_nonpositive_minor(_principal_minors(a), m.n, c)
    return witness is None, witness


def _order_sums(sums, c):
    """(E(M), E(M^2)), orders 1..n, from the iterable E_0, ..., E_n of
    M' = cM: E_k(M) = E_k(M') / c^k, E_k(M^2) = E_k(M'^2) / c^(2k)."""
    sums = list(sums)
    return (
        [Fraction(e, c**k) for k, e in enumerate(sums) if k],
        [Fraction(e, c ** (2 * k)) for k, e in enumerate(squared_minor_sums(sums)) if k],
    )


def _first_nonpositive(sums):
    for k, value in enumerate(sums, start=1):
        if value.numerator <= 0:  # value <= 0 without Fraction._richcmp
            return OrderSumWitness(order=k, value=value)
    return None


def _q2_verdict(sums_m, sums_m2):
    witness = _first_nonpositive(sums_m) or _first_nonpositive(sums_m2)
    return witness is None, sums_m, sums_m2, witness


def is_q(m: ExactMatrix):
    """Q-matrix test.  Returns (verdict, order_sums, witness)."""
    sums = is_q2(m)[1]
    witness = _first_nonpositive(sums)
    return witness is None, sums, witness


def is_q2(m: ExactMatrix):
    """Q^2 test: both M and M^2 are Q-matrices (:func:`_level_q2` of [n]).

    Returns (verdict, sums_m, sums_m2, witness); a witness from the square
    is tagged by its being drawn from sums_m2.
    """
    return _level_q2(m)(tuple(range(1, m.n + 1)))


def _level_q2(m: ExactMatrix, full=None):
    """The Q^2 test of each principal submatrix A[S], by sorted index set
    S, on A' = cA cleared once: one char-poly of the integer submatrix
    A'[S] per call.  ``full``, when given, is the verdict of the full index
    set (the first step of :func:`_classify`), answered without one."""
    a, c = cleared(m)
    everything = tuple(range(1, m.n + 1))

    def level_q2(s):
        if full is not None and s == everything:
            return full
        sums = integer_minor_sums([[a[i - 1][j - 1] for j in s] for i in s])
        return _q2_verdict(*_order_sums(sums, c))

    return level_q2


def _symmetrizable(a):
    """Whether A' W is symmetric for some positive diagonal W, A' given by
    its int rows ``a``.  A walk over the pairs with a_ij a_ji > 0 sets
    w_j = w_i a_ji / a_ij, held as (numerator, denominator) > 0, one root
    per component; then W exists iff a_ij w_j = a_ji w_i for every pair."""
    n, w = len(a), [None] * len(a)
    for root in range(n):
        if w[root] is None:
            w[root], reached = (1, 1), [root]
            for i in reached:  # grows as the walk reaches rows
                for j in range(n):
                    if w[j] is None and a[i][j] * a[j][i] > 0:
                        w[j] = (w[i][0] * abs(a[j][i]), w[i][1] * abs(a[i][j]))
                        reached.append(j)
    return all(
        a[i][j] * w[j][0] * w[i][1] == a[j][i] * w[i][0] * w[j][1]
        for i, j in itertools.combinations(range(n), 2)
    )


def _sign_symmetry_witness(a, c):
    """The first pair A(r;s) * A(s;r) < 0, r before s in lex order, or None,
    for the integer-cleared A' = cA given by its rows ``a``; the witness
    value is the product on A' over c^(2k).  A matrix that a positive
    diagonal makes symmetric is sign-symmetric after O(n^2) products
    (:func:`_symmetrizable`).  Any other reads
    :func:`~pstab.exactmat.integer_compounds` by order and raises
    MatrixArgumentError before an order past SIGN_SYMMETRY_MAX_MINORS
    minors in all (the count through n + 1 is the count through n).
    """
    if _symmetrizable(a):
        return None
    for k, (subsets, minors) in enumerate(integer_compounds(a), start=1):
        for i, j in itertools.combinations(range(len(subsets)), 2):
            product = minors[i][j] * minors[j][i]
            if product < 0:
                return MinorWitness(
                    order=k, rows=subsets[i], cols=subsets[j],
                    value=Fraction(product, c ** (2 * k)),
                )
        check_minor_budget(
            len(a), k + 1, SIGN_SYMMETRY_MAX_MINORS, "sign-symmetry check through order"
        )
    return None


def _square_dominance_witness(minors, lines, c):
    """The first principal set a with A(a;a)^2 <= sum over b != a of
    A(a;b)^2, or None, for the integer-cleared A' = cA given by its rows
    ``lines`` (the column side passes the columns) and an iterator over
    the principal minors of A' by order.

    By Cauchy-Binet the sum over every b, b = a included, is
    sum_b A'(a;b)^2 = det G[a] with G = A'A'^T, so the test is
    2 det A'[a]^2 <= det G[a], and the witness value is
    (2 det A'[a]^2 - det G[a]) / c^(2k), as a sum over all the minors
    gives it.  Order 1, G_ii = sum_j a'_ij^2, is read off the lines, and G
    and its sweep are formed only when order 1 passes.  Both sweeps stop
    at the first violation; an order that passes has
    det G[a] >= det A'[a]^2 > 0, so neither divides by zero.
    """

    def gram_minors():
        yield [sum(map(operator.mul, line, line)) for line in lines]
        sweep = _principal_minors(
            [[sum(map(operator.mul, u, v)) for v in lines] for u in lines]
        )
        next(sweep)
        yield from sweep

    excesses = (
        [2 * d * d - g for d, g in zip(order, grams)]
        for order, grams in zip(minors, gram_minors())
    )
    return _first_nonpositive_minor(excesses, len(lines), c * c)


def is_sign_symmetric(m: ExactMatrix):
    """Sign-symmetry: A(a;b) * A(b;a) >= 0 for all same-size index sets."""
    witness = _sign_symmetry_witness(*cleared(m))
    return witness is None, witness


def is_square_diag_dominant(m: ExactMatrix, side="row"):
    """Strict square diagonal dominance for every order of minors.

    Row side: A(a;a)^2 > sum over b != a of A(a;b)^2 for every order k and
    every principal index set a.  Column side is the same test on the
    transpose.
    """
    if side not in ("row", "col"):
        raise MatrixArgumentError(f"side must be 'row' or 'col', got {side!r}")
    a, c = cleared(m)
    lines = a if side == "row" else list(zip(*a))
    witness = _square_dominance_witness(_principal_minors(a), lines, c)
    return witness is None, witness


def _classify(m: ExactMatrix):
    """The class tests of :func:`classify_full` as a generator of two steps.

    The first reads P off one sweep of A' and yields (P's witness or None,
    the full set's Q^2 verdict as :func:`is_q2` gives it or None when A is
    not P).  A P-matrix reads the sweep to the end, so its order sums are
    the sums of the sweep's orders.  The second finishes the ClassReport
    from the same sweep and yields it: sign-symmetry, one char-poly of A'
    for the order sums of a matrix that is not P, both dominance sides
    (A'^T has the same principal minors), then P^2.  None reads past an
    order holding a zero minor, which the next order would divide by.
    """
    a, c = cleared(m)
    p_minors, orders, row_minors, col_minors = itertools.tee(_principal_minors(a), 4)
    p_witness = _first_nonpositive_minor(p_minors, m.n, c)
    full = None if p_witness else _q2_verdict(*_order_sums([1, *map(sum, orders)], c))
    yield p_witness, full
    sign = _sign_symmetry_witness(a, c)
    _, sums_m, sums_m2, q2_witness = full or _q2_verdict(
        *_order_sums(integer_minor_sums(a), c)
    )
    row = _square_dominance_witness(row_minors, a, c)
    col = _square_dominance_witness(col_minors, list(zip(*a)), c)
    checks = (
        ("P", p_witness),
        ("Q", _first_nonpositive(sums_m)),
        ("Q2", q2_witness),
        ("P2", p_witness or (sign and (row or col) and _first_nonpositive_minor(
            _principal_minors(integer_product(a, a)), m.n, c * c
        ))),
        ("sign_symmetric", sign),
        ("row_sqdd", row),
        ("col_sqdd", col),
    )
    witnesses = {key: witness for key, witness in checks if witness is not None}
    yield ClassReport(m.n, sums_m, sums_m2, witnesses)


def classify_full(m: ExactMatrix) -> ClassReport:
    """Run every class test and aggregate the verdicts: both steps of
    :func:`_classify`.

    P^2 takes P's witness when A is not P, holds when A is sign-symmetric
    or square dominant on both sides (one side is not enough; see the
    module docstring), and otherwise reads a sweep of A'^2.  The
    sign-symmetry read raises MatrixArgumentError at its minor budget.
    """
    *_, report = _classify(m)
    return report
