"""Exact rational matrices and the minor machinery everything else builds on.

Scalars are ``fractions.Fraction`` throughout; floating point enters the
system only in :mod:`pstab.spectra`.  Index sets at the API boundary are
1-based strictly increasing tuples, matching the usual minor notation
A(i1...ik; j1...jk).
"""

from __future__ import annotations

import itertools
import math
import operator
from decimal import Decimal
from fractions import Fraction

from .errors import MatrixArgumentError, SingularMatrixError

Rational = Fraction


def as_rational(x) -> Fraction:
    """Convert an entry to an exact rational.

    Accepts ints, Fractions and strings ("3", "-7/5", "0.1"); finite
    decimals convert exactly.  Floats are rejected: silently taking their
    binary expansion would defeat the point of exact certification.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise MatrixArgumentError(f"bad rational literal {x!r}: {exc}") from exc
    raise MatrixArgumentError(
        f"unsupported entry type {type(x).__name__}; pass int, Fraction or str"
    )


def rational_str(x) -> str:
    """str(Fraction(x)), "p" or "p/q", for values of any length.

    str() of an int refuses more digits than the interpreter's
    int-to-str limit (4300 by default); the decimal module's conversion of
    an int is exact and has no such limit.
    """
    x = Fraction(x)
    if x.denominator == 1:
        return str(Decimal(x.numerator))
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


class ExactMatrix:
    """Immutable dense square matrix over the rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(as_rational(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0:
            raise MatrixArgumentError("matrix must have dimension >= 1")
        for row in rows:
            if len(row) != n:
                raise MatrixArgumentError(
                    f"matrix must be square; got a row of length {len(row)} in an "
                    f"{n}-row matrix"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- construction helpers ------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        entries = [as_rational(x) for x in entries]
        n = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    # -- element access (1-based, matching minor notation) -------------

    def entry(self, i, j):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise MatrixArgumentError(f"entry ({i},{j}) out of range for n={self.n}")
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix({self.n}x{self.n}: {body})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._check_same_size(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        self._check_same_size(other)
        return ExactMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            self._check_same_size(other)
            cols = list(zip(*other.rows))
            return ExactMatrix(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in cols]
                    for row in self.rows
                ]
            )
        scalar = as_rational(other)
        return ExactMatrix([[scalar * x for x in row] for row in self.rows])

    def __rmul__(self, other):
        scalar = as_rational(other)
        return ExactMatrix([[scalar * x for x in row] for row in self.rows])

    def square(self):
        return self * self

    def transpose(self):
        return ExactMatrix(list(zip(*self.rows)))

    def scale_rows(self, diag_entries):
        """Left-multiply by diag(diag_entries)."""
        entries = [as_rational(x) for x in diag_entries]
        if len(entries) != self.n:
            raise MatrixArgumentError("diagonal length must equal dimension")
        return ExactMatrix(
            [[d * x for x in row] for d, row in zip(entries, self.rows)]
        )

    def _check_same_size(self, other):
        if not isinstance(other, ExactMatrix):
            raise MatrixArgumentError("expected an ExactMatrix operand")
        if other.n != self.n:
            raise MatrixArgumentError(
                f"dimension mismatch: {self.n} vs {other.n}"
            )


# -- index-set combinatorics ------------------------------------------------


def check_index_set(s, n, k=None):
    """Validate a strictly increasing 1-based index tuple; return it as tuple."""
    s = tuple(s)
    if k is not None and len(s) != k:
        raise MatrixArgumentError(f"index set {s} must have size {k}")
    if not s:
        raise MatrixArgumentError("index set must be nonempty")
    prev = 0
    for i in s:
        if not isinstance(i, int) or i <= prev or i > n:
            raise MatrixArgumentError(
                f"index set {s} is not strictly increasing within [1, {n}]"
            )
        prev = i
    return s


def index_sets(n, k):
    """All k-subsets of [n] in lexicographic order, as 1-based tuples."""
    return itertools.combinations(range(1, n + 1), k)


# -- determinants and minors ------------------------------------------------


def cleared(m: ExactMatrix):
    """(rows of cA as ints, c), with c the lcm of the entries' denominators."""
    c = math.lcm(*(x.denominator for row in m.rows for x in row))
    return [[x.numerator * (c // x.denominator) for x in row] for row in m.rows], c


def integer_product(a, b) -> list:
    """Product of two square integer matrices given as lists of int rows."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def det(m: ExactMatrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Denominators are cleared first so the elimination runs on Python ints,
    where the Bareiss division is exact and intermediate swell stays
    polynomial.
    """
    n = m.n
    a, denom_lcm = cleared(m)

    sign = 1
    prev_pivot = 1
    for col in range(n - 1):
        if a[col][col] == 0:
            for r in range(col + 1, n):
                if a[r][col] != 0:
                    a[col], a[r] = a[r], a[col]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * pivot - a[r][col] * a[col][c]) // prev_pivot
            a[r][col] = 0
        prev_pivot = pivot
    return Fraction(sign * a[n - 1][n - 1], denom_lcm**n)


def submatrix(m: ExactMatrix, rows, cols) -> ExactMatrix:
    rows = check_index_set(rows, m.n)
    cols = check_index_set(cols, m.n, k=len(rows))
    return ExactMatrix(
        [[m.rows[i - 1][j - 1] for j in cols] for i in rows]
    )


def minor(m: ExactMatrix, rows, cols) -> Fraction:
    """The minor A(rows; cols): determinant of the selected submatrix."""
    rows = check_index_set(rows, m.n)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise MatrixArgumentError(
            f"row set {rows} and column set {cols} differ in size"
        )
    return det(submatrix(m, rows, cols))


def principal_submatrix(m: ExactMatrix, s) -> ExactMatrix:
    """A[s; s] with the indices of s taken in increasing order."""
    s = check_index_set(s, m.n)
    return submatrix(m, s, s)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination over Q."""
    n = m.n
    a = [list(row) for row in m.rows]
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularMatrixError()
        a[col], a[pivot_row] = a[pivot_row], a[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        b[col] = [x / pivot for x in b[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            b[r] = [x - factor * y for x, y in zip(b[r], b[col])]
    return ExactMatrix(b)


def trace(m: ExactMatrix) -> Fraction:
    return sum((m.rows[i][i] for i in range(m.n)), Fraction(0))


def integer_minor_sums(a) -> list:
    """(E_0, ..., E_n) of an integer matrix given as a list of int rows.

    Faddeev-LeVerrier: N_k = A N_(k-1) + c_(k-1) I and c_k = -Tr(A N_k) / k
    give det(xI - A) = sum_k c_k x^(n-k), so E_k = (-1)^k c_k.  On an
    integer matrix every N_k and c_k is an integer, so the division by k
    is exact and the recurrence never leaves the ints.
    """
    n = len(a)
    sums = [1]
    coeff = 1  # c_(k-1)
    an = [[0] * n for _ in range(n)]  # A N_(k-1), then N_k, then A N_k
    for k in range(1, n + 1):
        for i in range(n):
            an[i][i] += coeff
        an = integer_product(a, an)
        coeff = -sum(an[i][i] for i in range(n)) // k
        sums.append(-coeff if k % 2 else coeff)
    return sums


def principal_minor_sums(m: ExactMatrix) -> tuple:
    """(E_0, ..., E_n): E_k is the sum of the principal minors of order k.

    These are the coefficients of det(xI + A) = sum_k E_k x^(n-k).  This is
    the pipeline's one exact kernel: the order sums of A and A^2 (the Q and
    Q^2 tests and the nest search), the block traces and the trace ledger
    all come from it.  With c the lcm of the denominators,
    E_k(A) = E_k(cA) / c^k, and :func:`integer_minor_sums` runs on cA in
    O(n^4) integer operations.
    """
    a, c = cleared(m)
    return tuple(
        Fraction(e, c**k) for k, e in enumerate(integer_minor_sums(a))
    )
