"""Compound matrices, exterior products and generalized compounds.

A j-th compound holds every j-by-j minor, rows and columns indexed by the
lexicographic ordering of the j-subsets of [n]: order j of the all-minor
generator that the sign-symmetry check reads too
(:func:`pstab.exactmat.integer_compounds`).  The exterior product of j
matrices symmetrizes "mixed" minors over which factor supplies each column;
with m copies of A and j-m copies of the identity it specializes to the
generalized compound, whose diagonal-input case has a closed form in
elementary symmetric polynomials.  Both are read off compounds alone: the
exterior product by polarization, the generalized compound by
interpolation in x of (I + xA)^(j).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import MatrixArgumentError
from .exactmat import (
    ExactMatrix,
    as_rational,
    cleared,
    diagonal_poly,
    index_sets,
    integer_compounds,
    lagrange_operator,
)

# A j-th compound forms the C(n,k)^2 minors of every order k <= j; past this
# many in all it forms none (every order at n = 11 is 705,431).
COMPOUND_MAX_MINORS = 10**6
# The polarization sum takes 2^j - 1 compounds of C(n,j)^2 minors each.
EXTERIOR_MAX_N = 6
EXTERIOR_MAX_J = 4


def _check_order(n, j):
    if not (1 <= j <= n):
        raise MatrixArgumentError(f"compound order j={j} out of range [1, {n}]")


def _check_wedge(n, j, wedge_m):
    if not (1 <= wedge_m <= j <= n):
        raise MatrixArgumentError(
            f"need 1 <= m <= j <= n, got m={wedge_m}, j={j}, n={n}"
        )


def compound(m: ExactMatrix, j: int) -> ExactMatrix:
    """The j-th compound matrix: entry (alpha, beta) = A(alpha; beta), the
    minor A'(alpha; beta) / c^j of A' = cA on integers, read off order j of
    :func:`pstab.exactmat.integer_compounds`, which forms the orders below
    it first; past COMPOUND_MAX_MINORS minors it raises MatrixArgumentError."""
    _check_order(m.n, j)
    count = sum(math.comb(m.n, k) ** 2 for k in range(1, j + 1))
    if count > COMPOUND_MAX_MINORS:
        raise MatrixArgumentError(
            f"compound order j={j} at n={m.n} forms {count} minors; "
            f"at most {COMPOUND_MAX_MINORS} are allowed"
        )
    a, c = cleared(m)
    _, minors = next(itertools.islice(integer_compounds(a), j - 1, None))
    scale = c**j
    return ExactMatrix([[Fraction(x, scale) for x in row] for row in minors])


def exterior_product(matrices) -> ExactMatrix:
    """Exterior product of j matrices, the symmetrized mixed minors.

    Entry (alpha, beta) averages, over all permutations of the factor list,
    the minor whose p-th column is column beta_p of the permuted p-th factor.
    That average is the symmetric multilinear form whose value at
    M, ..., M is M^(j), so polarization gives it from compounds alone:

        M_1 ^ ... ^ M_j = sum over nonempty T in [j] of
                          (-1)^(j-|T|) (sum_{i in T} M_i)^(j) / j!.

    Capped at n <= 6, j <= 4 because the sum takes 2^j - 1 compounds.
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
            f"j <= {EXTERIOR_MAX_J} (cost is 2^j - 1 compounds)"
        )
    terms = (
        (-1) ** (j - size) * compound(functools.reduce(operator.add, subset), j)
        for size in range(1, j + 1)
        for subset in itertools.combinations(matrices, size)
    )
    return Fraction(1, math.factorial(j)) * functools.reduce(operator.add, terms)


def generalized_compound(m: ExactMatrix, j: int, wedge_m: int) -> ExactMatrix:
    """The generalized compound A_m^(j): wedge_m copies of A against
    j - wedge_m identities.

    It is the sum over the C(j, m) choices of which column slots take
    A-columns (repeated factors commute, so the j! permutation sum collapses
    onto these).  Expanding each column of (I + xA)[alpha; beta] as an
    identity column plus x times an A-column makes that sum the coefficient
    of x^m in (I + xA)^(j), a polynomial of degree j in x; it is read off
    the compounds at x = 0..j with the integer Lagrange operator
    W = j! V^(-1) of :func:`pstab.exactmat.lagrange_operator`.  Note the
    normalization: this is C(j, m) times the averaged exterior product of
    the same factor list, which is what makes the diagonal case come out as
    plain elementary symmetric polynomials and makes det(tI + A) expand
    through these coefficients.
    """
    n = m.n
    _check_wedge(n, j, wedge_m)
    ident = ExactMatrix.identity(n)
    terms = (
        w * compound(ident + x * m, j)
        for x, w in enumerate(lagrange_operator(j)[wedge_m])
    )
    return Fraction(1, math.factorial(j)) * functools.reduce(operator.add, terms)


def diag_generalized_compound(d, j: int, wedge_m: int) -> ExactMatrix:
    """Fast path for diagonal input: entry alpha is the m-th elementary
    symmetric polynomial of the j diagonal values selected by alpha, read
    off :func:`pstab.exactmat.diagonal_poly`."""
    d = [as_rational(x) for x in d]
    n = len(d)
    _check_wedge(n, j, wedge_m)
    polys = (diagonal_poly(1, [d[i - 1] for i in idx]) for idx in index_sets(n, j))
    return ExactMatrix.diagonal([poly[wedge_m] for poly in polys])
