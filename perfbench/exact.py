"""Exact linear algebra for the benchmark, written apart from pstab.

Every quantity the checker compares with pstab's output is computed here
from its definition, by methods pstab does not use: minors come from a
Laplace (cofactor) expansion memoized over row and column subsets, on the
integer matrix obtained by clearing denominators.  pstab uses Bareiss
elimination, compound matrices and the Faddeev-LeVerrier recurrence.

Index sets are bit masks over 0-based indices; bit i stands for index i + 1.
"""

from __future__ import annotations

import math
from fractions import Fraction


def fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def clear_denominators(rows):
    """(N, c) with N an integer matrix and rows = N / c."""
    c = 1
    for row in rows:
        for x in row:
            c = math.lcm(c, Fraction(x).denominator)
    return [[int(Fraction(x) * c) for x in row] for row in rows], c


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def masks_by_size(n):
    sizes = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        sizes[mask.bit_count()].append(mask)
    return sizes


def mask_indices(mask):
    """1-based indices of a mask, increasing."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i + 1)
        mask >>= 1
        i += 1
    return tuple(out)


def indices_mask(indices):
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


class MinorTable:
    """Every minor A(R; C), |R| = |C|, of a rational matrix.

    Built order by order by expanding along the first row of R:
    A(R; C) = sum over c in C of (-1)^(position of c in C) a[r0][c] A(R - r0; C - c).
    Values are kept as integers of the cleared matrix N = c A;
    a k-by-k minor of A is the stored value divided by c^k.
    """

    def __init__(self, rows):
        ints, scale = clear_denominators(rows)
        n = len(ints)
        self.n = n
        self.scale = scale
        self.sizes = masks_by_size(n)
        table = {(0, 0): 1}
        for k in range(1, n + 1):
            for rmask in self.sizes[k]:
                r0 = (rmask & -rmask).bit_length() - 1
                rest = rmask & (rmask - 1)
                row = ints[r0]
                for cmask in self.sizes[k]:
                    total = 0
                    sign = 1
                    bits = cmask
                    while bits:
                        low = bits & -bits
                        col = low.bit_length() - 1
                        entry = row[col]
                        if entry:
                            total += sign * entry * table[(rest, cmask ^ low)]
                        sign = -sign
                        bits ^= low
                    table[(rmask, cmask)] = total
        self.table = table

    def minor(self, rmask, cmask) -> Fraction:
        k = rmask.bit_count()
        return Fraction(self.table[(rmask, cmask)], self.scale**k)

    def order_sums(self, within=None):
        """(E_1..E_k) of A[S]: sums of principal minors of each order."""
        full = (1 << self.n) - 1 if within is None else within
        size = full.bit_count()
        sums = []
        for k in range(1, size + 1):
            total = sum(self.table[(r, r)] for r in self.sizes[k] if r & ~full == 0)
            sums.append(Fraction(total, self.scale**k))
        return sums

    def square_minor(self, rmask, cmask) -> Fraction:
        """Minor of A^2 by Cauchy-Binet: sum over T of A(R; T) A(T; C)."""
        k = rmask.bit_count()
        total = sum(self.table[(rmask, t)] * self.table[(t, cmask)] for t in self.sizes[k])
        return Fraction(total, self.scale ** (2 * k))

    def square_order_sums(self, within=None):
        """(E_1..E_k) of (A[S])^2, from E_k(M^2) = sum A(R; C) A(C; R)."""
        full = (1 << self.n) - 1 if within is None else within
        size = full.bit_count()
        sums = []
        for k in range(1, size + 1):
            inside = [m for m in self.sizes[k] if m & ~full == 0]
            total = sum(
                self.table[(r, c)] * self.table[(c, r)] for r in inside for c in inside
            )
            sums.append(Fraction(total, self.scale ** (2 * k)))
        return sums


def leading_minors(rows):
    """Leading principal minors of a square rational matrix, orders 1..n.

    Expansion along the last row of the leading block, memoized over the
    column subsets of each size: M_k(C) = sum over c in C of
    (-1)^(k-1 + position of c) a[k-1][c] M_(k-1)(C - c).
    """
    ints, scale = clear_denominators(rows)
    n = len(ints)
    sizes = masks_by_size(n)
    prev = {0: 1}
    out = []
    for k in range(1, n + 1):
        row = ints[k - 1]
        cur = {}
        for cmask in sizes[k]:
            total = 0
            sign = 1 if (k - 1) % 2 == 0 else -1
            bits = cmask
            while bits:
                low = bits & -bits
                col = low.bit_length() - 1
                if row[col]:
                    total += sign * row[col] * prev[cmask ^ low]
                sign = -sign
                bits ^= low
            cur[cmask] = total
        prev = cur
        out.append(Fraction(cur[(1 << k) - 1], scale**k))
    return out


def hurwitz_minors_from_sums(sums):
    """Leading Hurwitz minors of x^n + E_1 x^(n-1) + ... + E_n.

    All are positive iff every root lies in the open left half-plane, so
    for sums = E(M) iff M is positively stable (Routh-Hurwitz).
    """
    coeffs = [Fraction(1)] + list(sums)
    n = len(sums)
    rows = [
        [coeffs[2 * j - i] if 0 <= 2 * j - i <= n else Fraction(0) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return leading_minors(rows)


def elementary_symmetric(values):
    """(e_0, ..., e_len) of a list of rationals."""
    e = [Fraction(1)] + [Fraction(0)] * len(values)
    for v in values:
        for k in range(len(values), 0, -1):
            e[k] += e[k - 1] * v
    return e


def max_bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
