"""Shared random-matrix generators and fixed matrices for the test suite.

Every generator takes an explicit random.Random so each test pins its own
seed; nothing here touches the global RNG state.
"""

import hashlib
from fractions import Fraction

from pstab import ExactMatrix, det
from pstab.classify import is_p, is_q
from pstab.exactmat import rational_str

# P and Q^2 with a Q^2 nest, spectrum real parts >= 4.7.  The stabilizer
# search accepts it after three halvings of I - D, and each diagonal before
# passes the ledger's order 1 but not its order 2: the one input of the
# benchmark workloads on which the search stops reading a diagonal's ledger
# at order 2.  A search that fixed the stabilizer's entries one level at a
# time gave up on it.
LEVEL_SEARCH_FAULT = ExactMatrix(
    [
        [4, -4, 6, -9, 6, -7],
        [8, 18, -2, 9, 1, 8],
        [-6, -4, 7, 2, 1, 2],
        [0, -2, -6, 7, -7, -4],
        [4, 2, -4, -8, 18, -2],
        [4, -4, 9, -9, 2, 17],
    ]
)

# Short texts that stand for huge integers, each past a literal cap; a
# reader that checks the caps on the text refuses each at once.
OVERSIZED_LITERALS = ["1e100000000", "1E-100000000", "1e1_0000_0000", "1" * 1001]


def random_matrix(rng, n, lo=-9, hi=9):
    return ExactMatrix(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def random_fraction_matrix(rng, n, lo=-9, hi=9, den=5):
    return ExactMatrix(
        [
            [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def random_invertible(rng, n, lo=-9, hi=9):
    while True:
        m = random_matrix(rng, n, lo, hi)
        if det(m) != 0:
            return m


def _diagonal_boost(rng, n, accept, lo=-4, hi=4):
    """Random matrix with the diagonal shifted just far enough to accept."""
    base = random_matrix(rng, n, lo, hi)
    shift = 0
    while True:
        m = base + ExactMatrix.diagonal([shift] * n)
        if accept(m):
            return m
        shift += 1


def random_p_matrix(rng, n):
    return _diagonal_boost(rng, n, lambda m: is_p(m)[0])


def random_q_matrix(rng, n):
    return _diagonal_boost(rng, n, lambda m: is_q(m)[0])


def random_spd_matrix(rng, n, lo=-3, hi=3):
    """G * G^T plus a positive diagonal: symmetric positive definite."""
    g = random_matrix(rng, n, lo, hi)
    d = ExactMatrix.diagonal([rng.randint(1, 4) for _ in range(n)])
    return g * g.transpose() + d


def row_dominant_matrix(n):
    """4n on the diagonal, entries in -2..2 off it: strictly row dominant
    with a positive diagonal, so P and positively stable; P and Q^2 with a
    Q^2 nest at n = 8, 10 and 12.  Not sign-symmetric: a_12 a_21 = -2."""
    return ExactMatrix(
        [
            [4 * n if i == j else (3 * i + 5 * j) % 5 - 2 for j in range(n)]
            for i in range(n)
        ]
    )


def dense_m_matrix(rng, n):
    """Off-diagonal entries in -5..-1, each diagonal entry 1..3 above the
    sum of its row's magnitudes: a strictly row dominant Z-matrix with a
    positive diagonal, so a nonsingular M-matrix, P and positively stable.
    Every a_ij a_ji is positive, so sign-symmetry has no order-1 witness."""
    rows = [[-rng.randint(1, 5) for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] += rng.randint(1, 3) - sum(row)
    return ExactMatrix(rows)


def row_constant_m_matrix(n):
    """a_ij = -(i+1) off the diagonal, each diagonal entry 1 above its
    row's off-diagonal magnitudes: a non-symmetric M-matrix, so P, Q^2 and
    with a Q^2 nest.  Its off-diagonal entries are constant along each
    row, so every disjoint order-2 minor a_ik a_jl - a_il a_jk is 0, and
    orders 1 and 2 hold no pair of opposite signs.  a_ij / a_ji is
    (i+1) / (j+1), so A diag(1, ..., n) is symmetric and A sign-symmetric."""
    return ExactMatrix(
        [[(n - 1) * (i + 1) + 1 if i == j else -(i + 1) for j in range(n)] for i in range(n)]
    )


def matrix_text(m):
    """The matrix file of ``m``: a dimension line, then one line per row
    with each entry written "p" or "p/q"."""
    rows = (" ".join(map(rational_str, row)) for row in m.rows)
    return f"{m.n}\n" + "".join(f"{row}\n" for row in rows)


def matrix_hash(m):
    """A short name of ``m`` for failure messages."""
    return hashlib.sha256(matrix_text(m).encode("utf-8")).hexdigest()
