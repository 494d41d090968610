"""Seeded matrix corpora, one per workload.

Every generator draws from a ``random.Random`` made from the workload seed,
so one seed always gives the same matrices.  Class membership is settled by
the benchmark's own exact code (:class:`checker.Truth`), never by pstab: a
slot that asks for a class redraws until its matrix is in it.  Each slot
fixes which pstab path the input takes (certified, refuted not-P, refuted
not-Q^2), so every seed gives the same number of operations per round.

The two ``screen`` inputs that trip known faults of pstab are fixed
matrices, the same for every seed.
"""

from __future__ import annotations

import random

from checker import Truth

DEMO_A = [
    [6, -30, 1, 1],
    [1, 2, 1, -5],
    [1, 1, 10, -10],
    [1, 1, 1, 10],
]

# P and Q^2 with a Q^2 nest, spectrum real parts >= 4.7; pstab's level
# search stops at level 3 on ledger entry (2,1,2) and certify exits 2.
LEVEL_SEARCH_FAULT = [
    [4, -4, 6, -9, 6, -7],
    [8, 18, -2, 9, 1, 8],
    [-6, -4, 7, 2, 1, 2],
    [0, -2, -6, 7, -7, -4],
    [4, 2, -4, -8, 18, -2],
    [4, -4, 9, -9, 2, 17],
]

# Not a P-matrix (upper bidiagonal, one negative diagonal entry); every
# n >= 8 matrix makes pstab classify and certify exit 3.
N8_NON_P = [
    [(-1 if i == 7 else 8) if i == j else (3 if j == i + 1 else 0) for j in range(8)]
    for i in range(8)
]


def _ints(rng, n, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _shift(m, s):
    return [[x + (s if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(m)]


def spd(rng, n):
    """G G^T + diag(d): symmetric positive definite, so sign-symmetric P."""
    g = _ints(rng, n, -3, 3)
    d = [rng.randint(1, 4) for _ in range(n)]
    return [
        [sum(g[i][k] * g[j][k] for k in range(n)) + (d[i] if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def row_dominant(rng, n):
    """Row square-diagonally-dominant P-matrix that is not sign-symmetric."""
    while True:
        m = _ints(rng, n, -2, 2)
        for i in range(n):
            m[i][i] = rng.randint(3 * n, 4 * n)
        t = Truth(m)
        if t.is_p and t.is_row_sqdd and not t.is_sign_symmetric:
            return m, t


def _skewed_ok(t):
    return (
        t.is_p
        and t.is_q2
        and not t.is_sign_symmetric
        and not t.is_row_sqdd
        and not t.is_col_sqdd
        and t.has_nest()
    )


def demo_perturbation(rng, changes=3):
    """DEMO_A with ``changes`` entries moved by +-1, still in the paper's
    own class."""
    while True:
        m = [row[:] for row in DEMO_A]
        for _ in range(changes):
            i, j = rng.randrange(4), rng.randrange(4)
            m[i][j] += rng.choice((-1, 1))
        t = Truth(m)
        if _skewed_ok(t):
            return m, t


def demo_embedding(rng, n):
    """A demo block with one entry moved by +-1 on indices 1..4, coupled by
    entries in [-1, 1] to a diagonally dominant (n-4)-block after it.

    One change keeps the stabilizer search's halvings at 2-4 and the ledger
    at 240-300 bits; with three, seeds range from no halving (160 bits) to
    five (340 bits), and the workload's cost with them."""
    while True:
        block, _ = demo_perturbation(rng, changes=1)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i < 4 and j < 4:
                    m[i][j] = block[i][j]
                elif i == j:
                    m[i][j] = rng.randint(8, 12)
                else:
                    m[i][j] = rng.randint(-1, 1)
        t = Truth(m)
        if _skewed_ok(t):
            return m, t


def boosted(rng, n, want_q2, margin):
    """Random [-4, 4] matrix, diagonal raised ``margin`` past the least
    shift that makes it a P-matrix; redrawn until its Q^2 verdict (and a
    nest, when Q^2) is ``want_q2``."""
    while True:
        base = _ints(rng, n, -4, 4)
        s = 0
        while not Truth(_shift(base, s)).is_p:
            s += 1
        m = _shift(base, s + margin)
        t = Truth(m)
        if t.is_p and t.is_q2 == want_q2 and (not want_q2 or t.has_nest()):
            return m, t


def non_p(rng, n):
    """Random [-4, 4] matrix with a small positive diagonal shift, not P."""
    while True:
        m = _shift(_ints(rng, n, -4, 4), rng.randint(0, 3))
        t = Truth(m)
        if not t.is_p:
            return m, t
