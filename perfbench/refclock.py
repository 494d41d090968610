"""A fixed exact-rational kernel that measures the machine's current speed.

Other tenants of a shared machine slow everything in a process by up to
half again, in stretches of seconds to minutes.  Timing this kernel next to
a measured call and multiplying the call's seconds by REFERENCE_SECONDS
over the kernel's time gives the call's seconds on a machine on which the
kernel takes REFERENCE_SECONDS.
"""

from __future__ import annotations

import time
from fractions import Fraction

# 15-26 ms on the 2-core machine the benchmark was defined on, depending
# on its load.
REFERENCE_SECONDS = 0.02
REFERENCE_MATRIX = [
    [Fraction(20 + i) if i == j else Fraction(3 * i + j + 1, i * j % 5 + 1) for j in range(7)]
    for i in range(7)
]


def reference_seconds():
    """Seconds for 25 Gaussian eliminations of REFERENCE_MATRIX over the
    rationals: pure Python on Fractions, the same kind of work as pstab's."""
    start = time.perf_counter()
    for _ in range(25):
        a = [row[:] for row in REFERENCE_MATRIX]
        for c in range(len(a)):
            for r in range(c + 1, len(a)):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - start


def rescaled(seconds, reference):
    return seconds * REFERENCE_SECONDS / reference
