"""Independent brute-force references used only by the test suite.

Nothing here shares code with the main determinant or compound routines:
the determinant is a first-row cofactor recursion on plain lists, and the
exterior product evaluates the full permutation sum literally.  The Schur
complement and the Sylvester-identity check, which the certification
pipeline never forms, are built on the package's exact minors and inverse
and let the tests check the identities that pipeline relies on.  It lives
with the tests so that the package cannot import it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from pstab.errors import MatrixArgumentError, SingularMatrixError
from pstab.exactmat import (
    ExactMatrix,
    det,
    inverse,
    minor,
    principal_submatrix,
)


def _cells(m: ExactMatrix):
    return [list(row) for row in m.rows]


def _cofactor_det(cells):
    size = len(cells)
    if size == 1:
        return cells[0][0]
    total = Fraction(0)
    sign = 1
    for col in range(size):
        rest = [row[:col] + row[col + 1 :] for row in cells[1:]]
        total += sign * cells[0][col] * _cofactor_det(rest)
        sign = -sign
    return total


def naive_det(m: ExactMatrix) -> Fraction:
    """Laplace (first-row cofactor) determinant.  O(n!), n <= 8."""
    assert m.n <= 8, "cofactor recursion is intended for n <= 8"
    return _cofactor_det(_cells(m))


def _subset_det(cells, rows, cols):
    return _cofactor_det(
        [[cells[i - 1][j - 1] for j in cols] for i in rows]
    )


def naive_compound(m: ExactMatrix, j: int) -> ExactMatrix:
    """j-th compound by direct double loop over lex-ordered subsets."""
    assert 1 <= j <= m.n <= 7
    cells = _cells(m)
    subsets = list(itertools.combinations(range(1, m.n + 1), j))
    return ExactMatrix(
        [[_subset_det(cells, rows, cols) for cols in subsets] for rows in subsets]
    )


def naive_exterior(matrices) -> ExactMatrix:
    """Exterior product by the literal (1/j!) sum over all permutations."""
    matrices = list(matrices)
    j = len(matrices)
    n = matrices[0].n
    assert j <= 3 and n <= 5
    all_cells = [_cells(mat) for mat in matrices]
    subsets = list(itertools.combinations(range(1, n + 1), j))
    factorial = 1
    for t in range(2, j + 1):
        factorial *= t
    out = []
    for rows in subsets:
        out_row = []
        for cols in subsets:
            total = Fraction(0)
            for theta in itertools.permutations(range(j)):
                block = [
                    [all_cells[theta[p]][i - 1][cols[p] - 1] for p in range(j)]
                    for i in rows
                ]
                total += _cofactor_det(block)
            out_row.append(total / factorial)
        out.append(out_row)
    return ExactMatrix(out)


def schur_complement(m: ExactMatrix, k: int) -> ExactMatrix:
    """Schur complement of the leading k-by-k block:
    A22 - A21 * A11^{-1} * A12, computed exactly."""
    n = m.n
    if not (1 <= k < n):
        raise MatrixArgumentError(f"block size k={k} out of range [1, {n - 1}]")
    head = tuple(range(1, k + 1))
    tail = tuple(range(k + 1, n + 1))
    a11 = principal_submatrix(m, head)
    if det(a11) == 0:
        raise SingularMatrixError(f"leading {k}x{k} block is singular")
    a11_inv = inverse(a11)
    rows12 = [[m.rows[i - 1][j - 1] for j in tail] for i in head]
    rows21 = [[m.rows[i - 1][j - 1] for j in head] for i in tail]
    a22 = [[m.rows[i - 1][j - 1] for j in tail] for i in tail]
    # a21 (n-k x k) * a11_inv (k x k) * a12 (k x n-k), done with plain lists
    # since the blocks are rectangular.
    left = [
        [
            sum(rows21[r][t] * a11_inv.rows[t][c] for t in range(k))
            for c in range(k)
        ]
        for r in range(n - k)
    ]
    correction = [
        [
            sum(left[r][t] * rows12[t][c] for t in range(k))
            for c in range(n - k)
        ]
        for r in range(n - k)
    ]
    return ExactMatrix(
        [
            [a22[r][c] - correction[r][c] for c in range(n - k)]
            for r in range(n - k)
        ]
    )


def sylvester_check(m: ExactMatrix, pivot_rows, pivot_cols, p: int):
    """Verify Sylvester's determinant identity for the given pivot sets.

    Builds the matrix of bordered minors b_lr = A(pivot_rows, l; pivot_cols, r)
    over the complement indices and checks, for every pair of p-subsets,

        B(l_1..l_p; r_1..r_p) = A(pr; pc)^(p-1) * A(pr, l_1..l_p; pc, r_1..r_p)

    with every index set taken in increasing order.  Returns None when the
    identity holds everywhere, otherwise the first violating
    (row subset, col subset, lhs, rhs) tuple.
    """
    n = m.n
    pivot_rows = tuple(sorted(pivot_rows))
    pivot_cols = tuple(sorted(pivot_cols))
    k = len(pivot_rows)
    if len(pivot_cols) != k:
        raise MatrixArgumentError("pivot row and column sets must have equal size")
    if not (0 <= p <= n - k):
        raise MatrixArgumentError(f"subset size p={p} out of range [0, {n - k}]")
    free_rows = [i for i in range(1, n + 1) if i not in pivot_rows]
    free_cols = [j for j in range(1, n + 1) if j not in pivot_cols]

    def bordered(extra_rows, extra_cols):
        rows = tuple(sorted(pivot_rows + tuple(extra_rows)))
        cols = tuple(sorted(pivot_cols + tuple(extra_cols)))
        return minor(m, rows, cols)

    b = ExactMatrix(
        [[bordered((l,), (r,)) for r in free_cols] for l in free_rows]
    ) if free_rows else None
    pivot_minor = minor(m, pivot_rows, pivot_cols) if k else Fraction(1)

    if p == 0:
        return None
    row_pos = {v: i + 1 for i, v in enumerate(free_rows)}
    col_pos = {v: i + 1 for i, v in enumerate(free_cols)}
    for lset in itertools.combinations(free_rows, p):
        for rset in itertools.combinations(free_cols, p):
            lhs = minor(
                b,
                tuple(row_pos[v] for v in lset),
                tuple(col_pos[v] for v in rset),
            )
            rhs = pivot_minor ** (p - 1) * bordered(lset, rset)
            if lhs != rhs:
                return (lset, rset, lhs, rhs)
    return None
