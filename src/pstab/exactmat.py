"""Exact rational matrices and the minor machinery everything else builds on.

Entries are ``fractions.Fraction`` at the API boundary only.  Every exact
kernel first clears denominators, A' = cA with c the lcm of the entries'
denominators, and runs on Python ints: the product, the Bareiss
determinant (one elimination behind every determinant and minor; the
endpoint Hurwitz minors take one per leading block), every minor of each
order by Laplace expansion (the compounds), the fraction-free
Gauss-Jordan adjugate and the char-poly kernel (power traces and
Newton's identities, yielded order by order, with a root-squaring step
for the square).  A Fraction is built once per result entry.  Floating
point enters the system only in :mod:`pstab.spectra`.  Index sets at the
API boundary are 1-based strictly increasing tuples, matching the usual
minor notation A(i1...ik; j1...jk).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from decimal import Decimal
from fractions import Fraction

from .errors import MatrixArgumentError, SingularMatrixError


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

    str() of an int raises ValueError past the interpreter's int-to-str
    limit (4300 digits by default); only then is the value written by the
    decimal module, whose conversion of an int is exact and has no limit.
    """
    x = x if isinstance(x, Fraction) else Fraction(x)
    try:
        return str(x)
    except ValueError:
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
            a, ca = cleared(self)
            b, cb = cleared(other)
            c = ca * cb
            return ExactMatrix(
                [[Fraction(x, c) for x in row] for row in integer_product(a, b)]
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
    """Product of two integer matrices given as lists of int rows."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def det(m: ExactMatrix) -> Fraction:
    """Exact determinant, det(A) = det(A') / c^n on the integer-cleared
    A' = cA (see :func:`integer_det`)."""
    a, c = cleared(m)
    return Fraction(integer_det(a), c**m.n)


def integer_det(a) -> int:
    """Determinant of an integer matrix given as a list of int rows, by
    fraction-free (Bareiss) elimination.

    Step k replaces every row below the pivot row by (p_k row - a_ik pivot
    row) / p_(k-1), an exact integer division, with p_k the k-th pivot and
    p_0 = 1; the last pivot is det A up to the sign of the row swaps.  A
    column with no nonzero candidate makes the determinant 0.
    """
    a = [list(row) for row in a]
    n = len(a)
    sign, prev = 1, 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot_line = a[col]
        pivot = pivot_line[col]
        for row in a[col + 1 :]:
            factor = row[col]
            for c in range(col + 1, n):
                row[c] = (row[c] * pivot - factor * pivot_line[c]) // prev
        prev = pivot
    return sign * prev


def integer_compounds(a):
    """Yield every minor of an integer matrix given as a list of int rows,
    one order at a time: for k = 1..n, the k-subsets in lex order and the
    minors a(R; C) over them, indexed [R][C].  Order 1 is a itself; order k
    comes from order k - 1 by Laplace expansion along the last row r of R,

        a(R; C) = sum_i (-1)^(k-1+i) a[r][c_i] a(R - r; C - c_i),

    k integer products per minor, and only when the caller asks for it.
    """
    n = len(a)
    subsets, minors = list(index_sets(n, 1)), a
    yield subsets, minors
    for k in range(2, n + 1):
        position = {s: i for i, s in enumerate(subsets)}
        subsets = list(index_sets(n, k))
        expansions = [  # per column set C: (sign, c_i, position of C - c_i)
            [
                ((-1) ** (k - 1 + i), c - 1, position[cols[:i] + cols[i + 1 :]])
                for i, c in enumerate(cols)
            ]
            for cols in subsets
        ]
        prev, minors = minors, []
        for rows in subsets:
            a_row, prev_row = a[rows[-1] - 1], prev[position[rows[:-1]]]
            minors.append([
                sum(sign * a_row[c] * prev_row[j] for sign, c, j in terms)
                for terms in expansions
            ])
        yield subsets, minors


def check_minor_budget(n, j, budget, what, reads=1):
    """The one refusal rule of every all-minor read: raise
    MatrixArgumentError, before order j is formed, when ``reads`` reads of
    :func:`integer_compounds` at n through order j form more than
    ``budget`` minors, the C(n,k)^2 of every order k <= j each."""
    count = reads * sum(math.comb(n, k) ** 2 for k in range(1, j + 1))
    if count > budget:
        raise MatrixArgumentError(
            f"{what} j={j} at n={n} forms {count} minors; at most {budget} are allowed"
        )


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


def integer_adjugate(a):
    """(+-adj A, +-det A), one sign for both, of an integer matrix given
    as a list of int rows, by fraction-free Gauss-Jordan elimination on
    [A | I].

    Step k replaces every row but the pivot row by (p_k row - a_ik pivot
    row) / p_(k-1), an exact integer division (Bareiss), with p_k the k-th
    pivot and p_0 = 1; row swaps flip the sign of the pivots.  The last
    step leaves [p I | p A^(-1)] with p = +-det A, and p A^(-1) = +-adj A.
    Raises SingularMatrixError when A is singular.
    """
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError()
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot_line = rows[col]
        pivot = pivot_line[col]
        for r, row in enumerate(rows):
            if r != col:
                factor = row[col]
                rows[r] = [
                    (pivot * x - factor * y) // prev for x, y in zip(row, pivot_line)
                ]
        prev = pivot
    return [row[n:] for row in rows], prev


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse, A^(-1) = c adj(A') / det(A') on the integer-cleared
    A' = cA (see :func:`integer_adjugate`)."""
    a, c = cleared(m)
    adj, p = integer_adjugate(a)
    return ExactMatrix([[Fraction(c * x, p) for x in row] for row in adj])


def trace(m: ExactMatrix) -> Fraction:
    return sum((m.rows[i][i] for i in range(m.n)), Fraction(0))


def integer_minor_sums(a):
    """Yield E_0, E_1, ..., E_n of an integer matrix given as a list of
    int rows, one order at a time.

    E_k is the sum of the principal minors of order k, the k-th elementary
    symmetric function of the eigenvalues.  Order k takes the power sum
    p_k = Tr(A^k) as Tr(A^h A^(k-h)) with h = ceil(k/2), and Newton's
    identities

        k E_k = sum_(i=1..k) (-1)^(i-1) E_(k-i) p_i

    then give E_k.  On an integer matrix each E_k is an integer, so the
    division by k is exact and nothing leaves the ints.  The power A^h is
    formed only when an order asks for it: reading the orders up to k
    takes ceil(k/2) - 1 matrix products, where Faddeev-LeVerrier takes n,
    so none up to order 2, E_1 = Tr A and E_2 = (Tr(A)^2 - Tr(A^2)) / 2.
    Callers that want every order take ``list(...)``.
    """
    n = len(a)
    powers, columns, sums = [None, a], [None], [1]
    traces = [None, sum(a[r][r] for r in range(n))]
    yield 1
    for k in range(1, n + 1):
        h = (k + 1) // 2
        if h == len(powers):
            powers.append(integer_product(powers[-1], a))
        if k - h == len(columns):  # A^(k-h) column by column, flattened
            columns.append(list(itertools.chain.from_iterable(zip(*powers[k - h]))))
        if k > 1:  # Tr(XY) pairs X row by row with Y column by column
            x = itertools.chain.from_iterable(powers[h])
            traces.append(sum(map(operator.mul, x, columns[k - h])))
        total = sum(
            (-1) ** (i - 1) * sums[k - i] * traces[i] for i in range(1, k + 1)
        )
        sums.append(total // k)
        yield sums[-1]


def diagonal_poly(delta, d_values) -> list:
    """Coefficients, lowest power first, of prod_i (delta + x d_i); with
    delta = 1, coefficient m is the m-th elementary symmetric polynomial
    e_m of the d_i."""
    poly = [1]
    for d in d_values:
        poly = [delta * x + d * y for x, y in zip(poly + [0], [0] + poly)]
    return poly


def squared_minor_sums(sums) -> list:
    """(E_0(M^2), ..., E_n(M^2)) from (E_0(M), ..., E_n(M)).

    One Graeffe root-squaring step: det(x^2 I + M^2) =
    det(xI + iM) det(xI - iM), so E_k(M^2) = sum over i + j = 2k of
    (-1)^(k+j) E_i(M) E_j(M); O(n^2) products of the sums and no matrix
    product.
    """
    n = len(sums) - 1
    return [
        sum(
            (-1) ** (k + j) * sums[2 * k - j] * sums[j]
            for j in range(max(0, 2 * k - n), min(2 * k, n) + 1)
        )
        for k in range(n + 1)
    ]


@functools.cache
def lagrange_operator(n) -> tuple:
    """W = n! V^(-1) on integers, V = (s^k) the Vandermonde matrix of the
    nodes s = 0..n (rows) and powers k = 0..n (columns).

    Column s of W holds the coefficients, lowest power first, of
    n! L_s(x) = (-1)^(n-s) C(n,s) prod_{r != s} (x - r), L_s the Lagrange
    basis polynomial of node s, so W V = n! I with no rational inverse:
    a polynomial of degree <= n with values f(0..n) has the coefficients
    W f / n!.  Memoized per n, so it is returned as tuples.
    """
    w = [[0] * (n + 1) for _ in range(n + 1)]
    for s in range(n + 1):
        poly = [(-1) ** (n - s) * math.comb(n, s)]
        for r in range(n + 1):
            if r != s:
                poly = [a - r * b for a, b in zip([0] + poly, poly + [0])]
        for k, coeff in enumerate(poly):
            w[k][s] = coeff
    return tuple(map(tuple, w))
