"""The Fraction and per-minor routines the integer kernels replaced, kept
as references for the property tests.

Most are the former body of their :mod:`pstab` counterpart: P by one
Bareiss determinant per principal minor, E(A) by the Faddeev-LeVerrier
recurrence (n integer products), the inverse by Gauss-Jordan elimination
over Q, the product by the naive Fraction double sum, the trace ledger by
char-poly nodes through order n - 1, and B's integer form by a
fraction-free elimination of B' for adj(B').  The Hurwitz minors take one
cofactor determinant (:func:`oracle.naive_det`) per leading block of the
Hurwitz matrix of the Faddeev-LeVerrier coefficients, so they share no
kernel with :func:`pstab.stabilize.hurwitz_minors`.  The spectrum matcher
is the search over every pairing that :func:`pstab.spectra.multiset_match`
decides by augmenting paths.  The package does not import this module.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from oracle import naive_det
from pstab.classify import MinorWitness
from pstab.errors import SingularMatrixError
from pstab.exactmat import (
    integer_adjugate,
    ExactMatrix,
    cleared,
    index_sets,
    integer_minor_sums,
    integer_product,
    lagrange_operator,
    minor,
)


def per_minor_is_p(m: ExactMatrix):
    """(verdict, witness) with one determinant per principal minor, in
    (order, lex rank) order."""
    for k in range(1, m.n + 1):
        for s in index_sets(m.n, k):
            value = minor(m, s, s)
            if value <= 0:
                return False, MinorWitness(order=k, rows=s, cols=s, value=value)
    return True, None


def faddeev_leverrier(a) -> list:
    """(E_0, ..., E_n) of an integer matrix: N_k = A N_(k-1) + c_(k-1) I,
    c_k = -Tr(A N_k) / k and E_k = (-1)^k c_k."""
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


def fraction_minor_sums(m: ExactMatrix) -> list:
    """[E_1, ..., E_n] of a rational matrix: E_k(M) = E_k(cM) / c^k."""
    c = math.lcm(*(x.denominator for row in m.rows for x in row))
    a = [[int(x * c) for x in row] for row in m.rows]
    return [Fraction(e, c**k) for k, e in enumerate(faddeev_leverrier(a)) if k]


def fraction_inverse(m: ExactMatrix) -> ExactMatrix:
    """Gauss-Jordan elimination over Q."""
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


def naive_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product as a double sum over Fraction entries."""
    cols = list(zip(*b.rows))
    return ExactMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows]
    )


def per_minor_hurwitz_minors(m: ExactMatrix) -> tuple:
    """Leading principal minors of the Hurwitz matrix of det(xI + M), one
    cofactor determinant each, on the Faddeev-LeVerrier E_k(M)."""
    coeffs = [Fraction(1), *fraction_minor_sums(m)]
    n = m.n
    rows = [
        [coeffs[2 * j - i] if 0 <= 2 * j - i <= n else 0 for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return tuple(
        naive_det(ExactMatrix([row[:k] for row in rows[:k]])) for k in range(1, n + 1)
    )


def permutation_multiset_match(values_a, values_b, abs_tol=1e-8, rel_tol=1e-8):
    """Whether some pairing of the two sequences puts every pair (x, y)
    within abs_tol + rel_tol * max(|x|, |y|), trying all n! of them."""
    a = list(values_a)
    b = list(values_b)
    if len(a) != len(b):
        return False
    return any(
        all(
            abs(x - y) <= abs_tol + rel_tol * max(abs(x), abs(y))
            for x, y in zip(a, pairing)
        )
        for pairing in itertools.permutations(b)
    )


def node_trace_ledger(b: ExactMatrix, eps, top=None) -> dict:
    """The ledger {(j, k, m): L(j,k,m)} of diag(eps) over B for orders
    j <= top (default n), every order interpolated from nodes, with no
    order in closed form."""
    n = b.n
    q = n if top is None else min(top, n)
    b_int, beta = cleared(b)
    delta = math.lcm(*(e.denominator for e in eps))
    d_int = [e.numerator * (delta // e.denominator) for e in eps]
    square = integer_product(b_int, b_int)
    sandwich = integer_product(
        b_int, [[d * x for x in row] for d, row in zip(d_int, b_int)]
    )
    nodes = range(q + 1)
    grid = {}
    for s in nodes:
        n_s = [
            [delta * x + s * y for x, y in zip(row, line)]
            for row, line in zip(square, sandwich)
        ]
        for t in range(s, q + 1):
            w_t = [delta + t * d for d in d_int]
            node = [list(map(operator.mul, row, w_t)) for row in n_s]
            sums = itertools.islice(integer_minor_sums(node), q + 1)
            grid[s, t] = grid[t, s] = list(sums)
    w_rows, w = lagrange_operator(q), math.factorial(q)
    w_cols = [list(col) for col in zip(*w_rows)]

    ledger = {}
    for j in range(1, q + 1):
        values = [[grid[s, t][j] for t in nodes] for s in nodes]
        coeffs = integer_product(integer_product(w_rows, values), w_cols)
        scale = w * w * (delta * beta) ** (2 * j)
        for k in range(j + 1):
            for m_pos in range(1, j + 1):
                ledger[(j, k, m_pos)] = Fraction(coeffs[k][m_pos], scale)
    return ledger


def eliminated_integer_form(b: ExactMatrix):
    """B's integer form as :func:`pstab.stabilize._integer_b` holds it, of
    any invertible B, with +-adj(B') and +-det(B') (one sign for both)
    from :func:`pstab.exactmat.integer_adjugate` of B'; the form keeps only
    adj(B')_il adj(B')_li and det(B')^2, which the sign leaves alone."""
    from pstab.stabilize import _IntegerB

    rows, beta = cleared(b)
    adj, p = integer_adjugate(rows)
    n = b.n

    def gram(m):
        return [[m[i][l] * m[l][i] for l in range(n)] for i in range(n)]

    grams = {
        1: (gram(rows), [[i] for i in range(n)]),
        n - 1: (gram(adj), [[r for r in range(n) if r != i] for i in range(n)]),
        n: ([[p * p]], [range(n)]),
    }
    return _IntegerB(b, rows, beta, integer_product(rows, rows), grams)
