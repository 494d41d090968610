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
otherwise.  The nest levels, Q^2 of principal submatrices A[S], have one
reader (:func:`_level_q2`): one char-poly of A'[S].  Square
dominance needs the minors A(a;b) off the diagonal only through their
sum of squares, which by Cauchy-Binet is a principal minor of the Gram
matrix A'A'^T (A'^T A' for the column side), so it reads the sweeps of A'
and of the Gram matrix side by side and stops at the first violation.  A
symmetric matrix is sign-symmetric, since A(a;b) = A(b;a); only a
non-symmetric one reads every minor A(a;b), from the all-minor generator
of :mod:`pstab.exactmat`, which forms one order at a time by Laplace
expansion on A' (:func:`~pstab.exactmat.integer_compounds`).  Its order 2
and up are the one part capped in n (SIGN_SYMMETRY_MAX_N).

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
    cleared,
    index_sets,
    integer_compounds,
    integer_minor_sums,
    integer_product,
    rational_str,
    squared_minor_sums,
)

# The sign-symmetry check of a non-symmetric matrix compares all C(n,k)^2
# minors of each order, C(2n,n) - 1 in all (3431 at n = 7), each from k
# integer products; past this n it stops before order 2.  Symmetric input
# reads no minor, and no other check is capped.
SIGN_SYMMETRY_MAX_N = 7


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


def order_sum_traces(m: ExactMatrix):
    """Sums of principal minors of each order for M and for M^2.

    The order-k sum E_k is the k-th coefficient of det(xI + M).  Both lists
    come from one char-poly of the integer-cleared M' = cM: E_k(M) =
    E_k(M') / c^k by :func:`integer_minor_sums`, and E_k(M^2) =
    E_k(M'^2) / c^(2k) by the root-squaring step :func:`squared_minor_sums`.
    """
    a, c = cleared(m)
    return _order_sums(integer_minor_sums(a), c)


def _order_sums(sums, c):
    """(E(M), E(M^2)), orders 1..n, from the iterable E_0, ..., E_n of M' = cM."""
    sums = list(sums)
    return (
        [Fraction(e, c**k) for k, e in enumerate(sums) if k],
        [Fraction(e, c ** (2 * k)) for k, e in enumerate(squared_minor_sums(sums)) if k],
    )


def _first_nonpositive(sums):
    for k, value in enumerate(sums, start=1):
        if value <= 0:
            return OrderSumWitness(order=k, value=value)
    return None


def _q2_verdict(sums_m, sums_m2):
    witness = _first_nonpositive(sums_m) or _first_nonpositive(sums_m2)
    return witness is None, sums_m, sums_m2, witness


def is_q(m: ExactMatrix):
    """Q-matrix test.  Returns (verdict, order_sums, witness)."""
    sums, _ = order_sum_traces(m)
    witness = _first_nonpositive(sums)
    return witness is None, sums, witness


def is_q2(m: ExactMatrix):
    """Q^2 test: both M and M^2 are Q-matrices.

    Returns (verdict, sums_m, sums_m2, witness); a witness from the square
    is tagged by its being drawn from sums_m2.
    """
    return _q2_verdict(*order_sum_traces(m))


def _level_q2(m: ExactMatrix):
    """:func:`is_q2` of each principal submatrix A[S], by sorted index set
    S, on A' = cA cleared once: one char-poly of the integer submatrix
    A'[S] per call."""
    a, c = cleared(m)

    def level_q2(s):
        sums = integer_minor_sums([[a[i - 1][j - 1] for j in s] for i in s])
        return _q2_verdict(*_order_sums(sums, c))

    return level_q2


def _sign_symmetry_witness(a, c):
    """The first pair A(r;s) * A(s;r) < 0, r before s in lex order, or None,
    for the integer-cleared A' = cA given by its rows ``a``; the witness
    value is the product on A' over c^(2k).  A symmetric matrix is
    sign-symmetric after n^2 comparisons.  Any other reads
    :func:`~pstab.exactmat.integer_compounds` by order, and past
    SIGN_SYMMETRY_MAX_N raises before order 2.
    """
    if list(map(tuple, a)) == list(zip(*a)):
        return None
    for k, (subsets, minors) in enumerate(integer_compounds(a), start=1):
        for i, j in itertools.combinations(range(len(subsets)), 2):
            product = minors[i][j] * minors[j][i]
            if product < 0:
                return MinorWitness(
                    order=k, rows=subsets[i], cols=subsets[j],
                    value=Fraction(product, c ** (2 * k)),
                )
        if len(a) > SIGN_SYMMETRY_MAX_N:
            raise MatrixArgumentError(
                f"sign-symmetry check is capped at n <= {SIGN_SYMMETRY_MAX_N}"
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


def classify_full(m: ExactMatrix) -> ClassReport:
    """Run every class test and aggregate the verdicts.

    P and both dominance sides read one sweep of A' (A'^T has the same
    principal minors), each only as far as it goes; none reads past an
    order holding a zero minor, which the next order would divide by.  A
    P-matrix reads it to the end, so its order sums are the sums of the
    sweep's orders; any other matrix takes one char-poly of A'.
    """
    a, c = cleared(m)
    p_minors, orders, row_minors, col_minors = itertools.tee(_principal_minors(a), 4)
    p_witness = _first_nonpositive_minor(p_minors, m.n, c)
    if p_witness is None:
        sums = [1, *map(sum, orders)]
    else:
        sums = integer_minor_sums(a)
    sums_m, sums_m2 = _order_sums(sums, c)
    q_witness = _first_nonpositive(sums_m)
    checks = (
        ("P", p_witness),
        ("Q", q_witness),
        ("Q2", q_witness or _first_nonpositive(sums_m2)),
        ("P2", p_witness or _first_nonpositive_minor(
            _principal_minors(integer_product(a, a)), m.n, c * c
        )),
        ("sign_symmetric", _sign_symmetry_witness(a, c)),
        ("row_sqdd", _square_dominance_witness(row_minors, a, c)),
        ("col_sqdd", _square_dominance_witness(col_minors, list(zip(*a)), c)),
    )
    witnesses = {key: witness for key, witness in checks if witness is not None}
    return ClassReport(m.n, sums_m, sums_m2, witnesses)
