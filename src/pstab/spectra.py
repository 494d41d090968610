"""Floating-point eigenvalues and the spectral predicates certificates use.

The conversion Rational -> double in :func:`eigenvalues` is the single
sanctioned precision loss in the system; every Spectrum records the method
and tolerance used, and its sum/product are cross-checked against the exact
trace and determinant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DoubleRangeError, MatrixArgumentError, NumericToleranceError
from .exactmat import ExactMatrix, det, trace

MAX_DIMENSION = 64

# Recorded in the certificate's advisory spectrum block; no verdict reads them.
DEFAULT_TOL_IMAG = 1e-8
DEFAULT_TOL_POS = 1e-9
DEFAULT_TOL_SEP = 1e-9


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple  # n complex values
    method: str
    tol_backward: float


def eigenvalues(m: ExactMatrix) -> Spectrum:
    """All eigenvalues of the double-precision image of an exact matrix.

    Raises DoubleRangeError if an entry is beyond the double range, and
    NumericToleranceError if the eigenvalue sum or product disagrees with
    the exact trace or determinant beyond n * 1e-8 * (1 + |value|).  The
    comparison is made on values scaled by 2^-e, 2^e about the largest
    entry, so that the determinant of a matrix with large entries stays
    within the double range.  A power-of-two scale is exact in binary
    floating point, so wherever the unscaled values are normal doubles the
    comparison is the same as on them.
    """
    if m.n > MAX_DIMENSION:
        raise MatrixArgumentError(f"eigenvalues capped at n <= {MAX_DIMENSION}")
    try:
        dense = np.array([[float(x) for x in row] for row in m.rows], dtype=float)
    except OverflowError as exc:
        raise DoubleRangeError("matrix entries exceed the double range") from exc
    values = np.linalg.eigvals(dense)
    spectrum = Spectrum(
        eigenvalues=tuple(complex(v) for v in values),
        method="lapack-geev",
        tol_backward=np.finfo(float).eps,
    )

    e = max(
        0,
        *(x.numerator.bit_length() - x.denominator.bit_length()
          for row in m.rows for x in row),
    )
    scale = math.ldexp(1.0, -e)
    exact_trace = float(trace(m) / 2**e)
    exact_det = float(det(m) / 2 ** (m.n * e))
    eig_sum = sum(v * scale for v in spectrum.eigenvalues)
    eig_prod = math.prod(v * scale for v in spectrum.eigenvalues)
    tol_sum = m.n * 1e-8 * (scale + abs(exact_trace))
    tol_prod = m.n * 1e-8 * (scale**m.n + abs(exact_det))
    if not abs(eig_sum - exact_trace) <= tol_sum:
        raise NumericToleranceError(
            f"eigenvalue sum {eig_sum} vs exact trace {exact_trace} "
            f"differs beyond {tol_sum} (all scaled by 2^-{e})"
        )
    if not abs(eig_prod - exact_det) <= tol_prod:
        raise NumericToleranceError(
            f"eigenvalue product {eig_prod} vs exact det {exact_det} "
            f"differs beyond {tol_prod} (all scaled by 2^-{e})"
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
    the spectrum.
    """
    if kind == "kellogg":
        bound = math.pi - math.pi / n
    elif kind == "sharpened":
        bound = math.pi / 2 - math.pi / (2 * n)
    else:
        raise MatrixArgumentError(f"unknown wedge kind {kind!r}")
    slack = min(bound - abs(cmath.phase(v)) for v in spectrum.eigenvalues)
    return slack > 0, slack


def multiset_match(values_a, values_b, abs_tol=1e-8, rel_tol=1e-8):
    """Optimal-assignment multiset comparison of two complex spectra."""
    a = list(values_a)
    b = list(values_b)
    if len(a) != len(b):
        return False
    cost = np.array([[abs(x - y) for y in b] for x in a])
    rows, cols = linear_sum_assignment(cost)
    for i, j in zip(rows, cols):
        if abs(a[i] - b[j]) > abs_tol + rel_tol * max(abs(a[i]), abs(b[j])):
            return False
    return True
