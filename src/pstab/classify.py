"""Exact membership tests for the minor-positivity matrix classes.

A P-matrix has every principal minor positive; a Q-matrix has every order's
sum of principal minors positive; the squared variants require the same of
the matrix square.  Sign-symmetry and square diagonal dominance are the two
classical sufficient conditions the stability theorem subsumes.

Every check runs on the integer-cleared matrix A' = cA.  P is decided by
one Sylvester sweep over the subset lattice, which reaches each principal
minor with one exact integer division per bordered minor and stops at the
first nonpositive one (:func:`is_p`); Q and Q^2 come from one char-poly
of A' and its root-squaring step.  Sign-symmetry and both sides of square
dominance read every minor A(a;b), principal or not; they share one table
of all minors, built one order at a time by Laplace expansion on A' and
only up to the order at which the checks stop.

All verdicts are exact.  Every negative verdict carries a witness that
re-evaluates to a violation; witness ordering is deterministic (smallest
minor order first, then lexicographic rank).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MatrixArgumentError
from .exactmat import (
    ExactMatrix,
    cleared,
    index_sets,
    integer_minor_sums,
    rational_str,
    squared_minor_sums,
)

# Sign-symmetry compares all C(n,k)^2 minors of each order, C(2n,n) - 1 in
# all (3431 at n = 7), each from k integer products in the minor table;
# keep n small.
SIGN_SYMMETRY_MAX_N = 7


@dataclass(frozen=True)
class MinorWitness:
    """A single offending minor (or pair of opposite minors)."""

    order: int
    rows: tuple
    cols: tuple
    value: Fraction

    def describe(self):
        return (
            f"A({','.join(map(str, self.rows))}; {','.join(map(str, self.cols))})"
            f" = {rational_str(self.value)}"
        )


@dataclass(frozen=True)
class OrderSumWitness:
    """An order whose sum of principal minors is nonpositive."""

    order: int
    value: Fraction

    def describe(self):
        return (
            f"sum of principal minors of order {self.order} = "
            f"{rational_str(self.value)}"
        )


@dataclass
class ClassReport:
    """Aggregated class verdicts with witnesses for every failure."""

    n: int
    is_p: bool
    is_q: bool
    is_p2: bool
    is_q2: bool
    is_sign_symmetric: bool
    is_row_sqdd: bool
    is_col_sqdd: bool
    order_sums: list  # per order 1..n, sums for M
    order_sums_square: list  # per order 1..n, sums for M*M
    witnesses: dict = field(default_factory=dict)

    def flags(self):
        return {
            "P": self.is_p,
            "Q": self.is_q,
            "P2": self.is_p2,
            "Q2": self.is_q2,
            "sign_symmetric": self.is_sign_symmetric,
            "row_sqdd": self.is_row_sqdd,
            "col_sqdd": self.is_col_sqdd,
        }


def is_p(m: ExactMatrix):
    """P-matrix test: every principal minor positive.

    Returns (verdict, witness); the witness is the first nonpositive
    principal minor in (order, lex rank) order, or None.

    One Sylvester sweep over the subset lattice of A' = cA on integers, c
    the lcm of the denominators.  A subset S with largest index s carries
    its bordered minors b_ij = det A'[S + i; S + j] for i, j > s; S = {}
    carries A' itself.  Then det A'[S + p] = b_pp, and Sylvester's identity
    gives the bordered minors of S + p,

        (b_pp b_ij - b_ip b_pj) / det A'[S],   i, j > p,

    an exact integer division.  Subsets are visited level by level in lex
    order and the sweep stops at the first b_pp <= 0, so it never divides
    by zero; that minor of A is b_pp / c^k.
    """
    a, c = cleared(m)
    level = [((), 1, a)]  # (S, det A'[S], bordered minors of S), lex order
    for k in range(1, m.n + 1):
        grown = []
        for subset, minor_s, bordered in level:
            last = subset[-1] if subset else 0
            for p, pivot_line in enumerate(bordered):
                value = pivot_line[p]
                grown_subset = subset + (last + p + 1,)
                if value <= 0:
                    return False, MinorWitness(
                        order=k, rows=grown_subset, cols=grown_subset,
                        value=Fraction(value, c**k),
                    )
                if p + 1 < len(bordered):
                    tail = pivot_line[p + 1 :]
                    grown.append((grown_subset, value, [
                        [(value * x - row[p] * y) // minor_s
                         for x, y in zip(row[p + 1 :], tail)]
                        for row in bordered[p + 1 :]
                    ]))
        level = grown
    return True, None


def order_sum_traces(m: ExactMatrix):
    """Sums of principal minors of each order for M and for M^2.

    The order-k sum E_k is the k-th coefficient of det(xI + M).  Both lists
    come from one char-poly of the integer-cleared M' = cM: E_k(M) =
    E_k(M') / c^k by :func:`integer_minor_sums`, and E_k(M^2) =
    E_k(M'^2) / c^(2k) by the root-squaring step :func:`squared_minor_sums`.
    """
    a, c = cleared(m)
    sums = integer_minor_sums(a)
    return (
        [Fraction(e, c**k) for k, e in enumerate(sums) if k],
        [Fraction(e, c ** (2 * k)) for k, e in enumerate(squared_minor_sums(sums)) if k],
    )


def _first_nonpositive(sums):
    for k, value in enumerate(sums, start=1):
        if value <= 0:
            return OrderSumWitness(order=k, value=value)
    return None


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
    sums_m, sums_m2 = order_sum_traces(m)
    witness = _first_nonpositive(sums_m)
    if witness is None:
        witness = _first_nonpositive(sums_m2)
    return witness is None, sums_m, sums_m2, witness


class _MinorTable:
    """Every minor A(R; C) of one matrix, built one order at a time on demand.

    With c the lcm of the denominators and A' = cA on integers, order k
    holds c^k A(R; C) = A'(R; C) for all k-subsets R, C in lexicographic
    order.  Order 1 is A' itself; order k comes from order k-1 by Laplace
    expansion along the last row r of R,

        A'(R; C) = sum_i (-1)^(k-1+i) a'[r][c_i] A'(R - r; C - c_i),

    k integer products per minor in place of a Bareiss elimination.  An
    order is built only when a check first reaches it, so checks that stop
    at order 1 cost the n^2 cleared entries and nothing more.  A witness
    value is a table value over c^(2k): signs and comparisons are the same
    on A' as on A.
    """

    def __init__(self, m: ExactMatrix):
        self.n = m.n
        self._a, self._c = cleared(m)
        self.subsets = [[()]]  # per order, the k-subsets in lex order
        self._minors = [[[1]]]  # per order, [row set][column set]

    def order(self, k):
        """(k-subsets, minors of A' of order k, c^(2k))."""
        while len(self._minors) <= k:
            self._grow()
        return self.subsets[k], self._minors[k], self._c ** (2 * k)

    def _grow(self):
        k = len(self._minors)
        position = {s: i for i, s in enumerate(self.subsets[k - 1])}
        prev = self._minors[k - 1]
        subsets = list(index_sets(self.n, k))
        expansions = [  # per column set C: (sign, c_i, position of C - c_i)
            [
                ((-1) ** (k - 1 + i), c - 1, position[cols[:i] + cols[i + 1 :]])
                for i, c in enumerate(cols)
            ]
            for cols in subsets
        ]
        minors = []
        for rows in subsets:
            a_row = self._a[rows[-1] - 1]
            prev_row = prev[position[rows[:-1]]]
            minors.append(
                [
                    sum(sign * a_row[c] * prev_row[j] for sign, c, j in terms)
                    for terms in expansions
                ]
            )
        self.subsets.append(subsets)
        self._minors.append(minors)


def _check_sign_symmetry_size(n):
    if n > SIGN_SYMMETRY_MAX_N:
        raise MatrixArgumentError(
            f"sign-symmetry check is capped at n <= {SIGN_SYMMETRY_MAX_N}"
        )


def _sign_symmetry_witness(table: _MinorTable):
    """The first pair A(a;b) * A(b;a) < 0, a before b in lex order, or None."""
    for k in range(1, table.n + 1):
        subsets, minors, scale = table.order(k)
        for i, a in enumerate(subsets):
            for j in range(i + 1, len(subsets)):
                product = minors[i][j] * minors[j][i]
                if product < 0:
                    return MinorWitness(
                        order=k, rows=a, cols=subsets[j],
                        value=Fraction(product, scale),
                    )
    return None


def _square_dominance_witness(table: _MinorTable, side):
    """The first principal set a with A(a;a)^2 <= sum over b != a of
    A(a;b)^2 (row side) or A(b;a)^2 (column side), or None."""
    for k in range(1, table.n + 1):
        subsets, minors, scale = table.order(k)
        for i, a in enumerate(subsets):
            line = minors[i] if side == "row" else [row[i] for row in minors]
            diag = line[i] * line[i]
            off = sum(x * x for x in line) - diag
            if diag <= off:
                return MinorWitness(
                    order=k, rows=a, cols=a, value=Fraction(diag - off, scale)
                )
    return None


def is_sign_symmetric(m: ExactMatrix):
    """Sign-symmetry: A(a;b) * A(b;a) >= 0 for all same-size index sets."""
    _check_sign_symmetry_size(m.n)
    witness = _sign_symmetry_witness(_MinorTable(m))
    return witness is None, witness


def is_square_diag_dominant(m: ExactMatrix, side="row"):
    """Strict square diagonal dominance for every order of minors.

    Row side: A(a;a)^2 > sum over b != a of A(a;b)^2 for every order k and
    every principal index set a.  Column side is the same test on the
    transpose.
    """
    if side not in ("row", "col"):
        raise MatrixArgumentError(f"side must be 'row' or 'col', got {side!r}")
    witness = _square_dominance_witness(_MinorTable(m), side)
    return witness is None, witness


def classify_full(m: ExactMatrix) -> ClassReport:
    """Run every class test and aggregate the verdicts."""
    witnesses = {}

    p_ok, p_witness = is_p(m)
    if p_witness is not None:
        witnesses["P"] = p_witness

    sums_m, sums_m2 = order_sum_traces(m)
    q_witness = _first_nonpositive(sums_m)
    q_ok = q_witness is None
    if q_witness is not None:
        witnesses["Q"] = q_witness

    q2_witness = q_witness or _first_nonpositive(sums_m2)
    q2_ok = q2_witness is None
    if not q2_ok:
        witnesses["Q2"] = q2_witness

    if p_ok:
        p2_ok, p2_witness = is_p(m.square())
        if p2_witness is not None:
            witnesses["P2"] = p2_witness
    else:
        p2_ok = False
        witnesses.setdefault("P2", p_witness)

    _check_sign_symmetry_size(m.n)
    table = _MinorTable(m)
    checks = (
        ("sign_symmetric", _sign_symmetry_witness(table)),
        ("row_sqdd", _square_dominance_witness(table, "row")),
        ("col_sqdd", _square_dominance_witness(table, "col")),
    )
    for key, witness in checks:
        if witness is not None:
            witnesses[key] = witness

    return ClassReport(
        n=m.n,
        is_p=p_ok,
        is_q=q_ok,
        is_p2=p2_ok,
        is_q2=q2_ok,
        is_sign_symmetric="sign_symmetric" not in witnesses,
        is_row_sqdd="row_sqdd" not in witnesses,
        is_col_sqdd="col_sqdd" not in witnesses,
        order_sums=sums_m,
        order_sums_square=sums_m2,
        witnesses=witnesses,
    )
