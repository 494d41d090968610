"""Floating-point eigenvalues and the spectral predicates certificates use.

The conversion Rational -> double in :func:`eigenvalues` is the single
sanctioned precision loss in the system; every Spectrum records the method
used, and its sum/product are cross-checked against the exact trace and
determinant.  No verdict reads these values: they are advisory.
numpy is imported on the first :func:`eigenvalues` call, so a command
that takes no eigenvalues never loads it.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from .errors import DoubleRangeError, MatrixArgumentError, NumericToleranceError
from .exactmat import ExactMatrix, det, trace


class Spectrum(namedtuple("Spectrum", "eigenvalues method")):
    """The n complex ``eigenvalues`` of a matrix and the ``method`` that
    computed them."""

    __slots__ = ()


def eigenvalues(m: ExactMatrix) -> Spectrum:
    """All eigenvalues of the double-precision image of an exact matrix.

    Raises DoubleRangeError if an entry is beyond the double range, one
    that overflows or a nonzero one whose double is 0.0, and
    NumericToleranceError if the eigenvalue sum or product disagrees with
    the exact trace or determinant beyond n * 1e-8 * (f + |value|), f the
    smaller of 1 and 2^e, 2^e about the largest entry.  The comparison is
    made on values scaled by 2^-e, so that the determinant of a matrix with
    large or small entries stays within the double range.  A power-of-two
    scale is exact in binary floating point, so wherever the unscaled
    values are normal doubles the comparison is the same as on them.
    """
    try:
        dense = [[float(x) for x in row] for row in m.rows]
    except OverflowError as exc:
        raise DoubleRangeError("matrix entries exceed the double range") from exc
    if any(x and not y for pair in zip(m.rows, dense) for x, y in zip(*pair)):
        raise DoubleRangeError("a nonzero matrix entry underflows to 0.0")
    import numpy as np

    values = np.linalg.eigvals(np.array(dense, dtype=float))
    spectrum = Spectrum(
        eigenvalues=tuple(complex(v) for v in values), method="lapack-geev"
    )

    e = max((x.numerator.bit_length() - x.denominator.bit_length()
             for row in m.rows for x in row if x), default=0)
    floor = math.ldexp(1.0, -max(e, 0))  # f / 2^e, 1 when every entry is below 1
    exact_trace = float(trace(m) / Fraction(2) ** e)
    exact_det = float(det(m) / Fraction(2) ** (m.n * e))
    scaled = [complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e))
              for v in spectrum.eigenvalues]
    eig_sum, eig_prod = sum(scaled), math.prod(scaled)
    tol_sum = m.n * 1e-8 * (floor + abs(exact_trace))
    tol_prod = m.n * 1e-8 * (floor**m.n + abs(exact_det))
    if not abs(eig_sum - exact_trace) <= tol_sum:
        raise NumericToleranceError(
            f"eigenvalue sum {eig_sum} vs exact trace {exact_trace} "
            f"differs beyond {tol_sum} (all scaled by 2^{-e})"
        )
    if not abs(eig_prod - exact_det) <= tol_prod:
        raise NumericToleranceError(
            f"eigenvalue product {eig_prod} vs exact det {exact_det} "
            f"differs beyond {tol_prod} (all scaled by 2^{-e})"
        )
    return spectrum


def is_positively_stable(spectrum: Spectrum, margin=0.0):
    """True iff every eigenvalue has real part strictly above ``margin``."""
    return all(v.real > margin for v in spectrum.eigenvalues)


def wedge_check(spectrum: Spectrum, n, kind="kellogg"):
    """Eigenvalue argument bound check.

    kind='kellogg':   |arg(v)| < pi - pi/n   (any P-matrix spectrum)
    kind='sharpened': |arg(v)| < pi/2 - pi/(2n)  (certified-stable spectrum)

    Returns (verdict, min slack); slack is bound - |arg(v)| minimized over
    the spectrum.  At n = 1 both bounds are 0: the wedge degenerates to the
    closed positive real axis, so slack 0 passes there.
    """
    if kind == "kellogg":
        bound = math.pi - math.pi / n
    elif kind == "sharpened":
        bound = math.pi / 2 - math.pi / (2 * n)
    else:
        raise MatrixArgumentError(f"unknown wedge kind {kind!r}")
    slack = min(bound - abs(cmath.phase(v)) for v in spectrum.eigenvalues)
    return (slack >= 0 if bound == 0 else slack > 0), slack


def multiset_match(values_a, values_b, abs_tol=1e-8, rel_tol=1e-8):
    """True iff the two sequences of complex values have the same length
    and some one-to-one pairing of them puts every pair (x, y) within
    abs_tol + rel_tol * max(|x|, |y|).

    Decided exactly, by Kuhn's augmenting paths on the "within tolerance"
    relation: O(n^3) comparisons for n values, and a recursion depth of
    at most n.
    """
    a = list(values_a)
    b = list(values_b)
    if len(a) != len(b):
        return False
    near = [
        [j for j, y in enumerate(b)
         if abs(x - y) <= abs_tol + rel_tol * max(abs(x), abs(y))]
        for x in a
    ]
    partner = [None] * len(b)  # partner[j]: the index in a paired with b[j]

    def augment(i, seen):
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if partner[j] is None or augment(partner[j], seen):
                    partner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(a)))
