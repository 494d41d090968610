"""Independent brute-force references used only by the test suite.

Nothing here shares code with the main determinant or compound routines:
the determinant is a first-row cofactor recursion on plain lists, and the
exterior product evaluates the full permutation sum literally.  It lives
with the tests so that the package cannot import it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from pstab.exactmat import ExactMatrix


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
    assert 1 <= j <= m.n <= 6
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
