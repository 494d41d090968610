"""Shared random-matrix generators and fixed matrices for the test suite.

Every generator takes an explicit random.Random so each test pins its own
seed; nothing here touches the global RNG state.
"""

from fractions import Fraction

from pstab import ExactMatrix, det
from pstab.classify import is_p, is_q

# P and Q^2 with a Q^2 nest, spectrum real parts >= 4.7.  A greedy search
# that fixes the stabilizer's entries one level at a time gives up on it
# at level 3, on ledger entry (2,1,2).
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
