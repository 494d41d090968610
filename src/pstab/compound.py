"""Compound matrices, exterior products and generalized compounds.

A j-th compound holds every j-by-j minor, rows and columns indexed by the
lexicographic ordering of the j-subsets of [n].  The exterior product of j
matrices symmetrizes "mixed" minors over which factor supplies each column;
with m copies of A and j-m copies of the identity it specializes to the
generalized compound, whose diagonal-input case has a closed form in
elementary symmetric polynomials.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import MatrixArgumentError
from .exactmat import (
    ExactMatrix,
    as_rational,
    det,
    index_sets,
    minor,
)

# Full permutation sums get expensive fast: j! * C(n,j)^2 minors.
EXTERIOR_MAX_N = 6
EXTERIOR_MAX_J = 4


def _check_order(n, j):
    if not (1 <= j <= n):
        raise MatrixArgumentError(f"compound order j={j} out of range [1, {n}]")


def compound(m: ExactMatrix, j: int) -> ExactMatrix:
    """The j-th compound matrix: entry (alpha, beta) = A(alpha; beta)."""
    _check_order(m.n, j)
    subsets = list(index_sets(m.n, j))
    return ExactMatrix(
        [[minor(m, rows, cols) for cols in subsets] for rows in subsets]
    )


def _mixed_minor(matrices, rows, cols, assignment):
    """Determinant with column cols[p] drawn from matrices[assignment[p]]."""
    block = [
        [matrices[assignment[p]].rows[i - 1][cols[p] - 1] for p in range(len(cols))]
        for i in rows
    ]
    return det(ExactMatrix(block))


def exterior_product(matrices) -> ExactMatrix:
    """Exterior product of j matrices via the symmetrized mixed-minor formula.

    Entry (alpha, beta) averages, over all permutations of the factor list,
    the minor whose p-th column is column beta_p of the permuted p-th factor.
    Capped at n <= 6, j <= 4 because the sum costs j! * C(n,j)^2 minors.
    """
    matrices = list(matrices)
    j = len(matrices)
    if j == 0:
        raise MatrixArgumentError("need at least one matrix")
    n = matrices[0].n
    if any(mat.n != n for mat in matrices):
        raise MatrixArgumentError("all matrices must have the same dimension")
    _check_order(n, j)
    if n > EXTERIOR_MAX_N or j > EXTERIOR_MAX_J:
        raise MatrixArgumentError(
            f"exterior_product is capped at n <= {EXTERIOR_MAX_N}, "
            f"j <= {EXTERIOR_MAX_J} (cost is j! * C(n,j)^2 minors)"
        )
    subsets = list(index_sets(n, j))
    perms = list(itertools.permutations(range(j)))
    scale = Fraction(1, len(perms))
    out = []
    for rows in subsets:
        out_row = []
        for cols in subsets:
            acc = Fraction(0)
            for perm in perms:
                acc += _mixed_minor(matrices, rows, cols, perm)
            out_row.append(acc * scale)
        out.append(out_row)
    return ExactMatrix(out)


def generalized_compound(m: ExactMatrix, j: int, wedge_m: int) -> ExactMatrix:
    """The generalized compound A_m^(j): wedge_m copies of A against
    j - wedge_m identities.

    Computed as the sum over the C(j, m) choices of which column slots take
    A-columns (repeated factors commute, so the j! permutation sum collapses
    onto these).  Note the normalization: this is C(j, m) times the averaged
    exterior product of the same factor list, which is what makes the
    diagonal case come out as plain elementary symmetric polynomials and
    makes det(tI + A) expand through these coefficients.
    """
    n = m.n
    if not (1 <= wedge_m <= j <= n):
        raise MatrixArgumentError(
            f"need 1 <= m <= j <= n, got m={wedge_m}, j={j}, n={n}"
        )
    ident = ExactMatrix.identity(n)
    subsets = list(index_sets(n, j))
    slot_choices = list(itertools.combinations(range(j), wedge_m))
    out = []
    for rows in subsets:
        out_row = []
        for cols in subsets:
            acc = Fraction(0)
            for chosen in slot_choices:
                chosen = set(chosen)
                block = [
                    [
                        (m if p in chosen else ident).rows[i - 1][cols[p] - 1]
                        for p in range(j)
                    ]
                    for i in rows
                ]
                acc += det(ExactMatrix(block))
            out_row.append(acc)
        out.append(out_row)
    return ExactMatrix(out)


def diag_generalized_compound(d, j: int, wedge_m: int) -> ExactMatrix:
    """Fast path for diagonal input: entry alpha is the m-th elementary
    symmetric polynomial of the j diagonal values selected by alpha."""
    d = [as_rational(x) for x in d]
    n = len(d)
    if not (1 <= wedge_m <= j <= n):
        raise MatrixArgumentError(
            f"need 1 <= m <= j <= n, got m={wedge_m}, j={j}, n={n}"
        )
    diag = []
    for idx in index_sets(n, j):
        values = [d[i - 1] for i in idx]
        e_m = sum(
            (math.prod(c) for c in itertools.combinations(values, wedge_m)),
            Fraction(0),
        )
        diag.append(e_m)
    return ExactMatrix.diagonal(diag)
