"""The diagonal-stabilizer search and the top-level certification
pipeline.  The certificate they produce, the claim it states and why that
claim proves positive stability are :mod:`pstab.certificate`'s, and so is
the one derivation of its exact part, which the search runs on the
diagonal it accepts and ``verify`` re-runs on the claimed one.

Exact and numeric content are kept separate: the ledger, Hurwitz minors,
block traces and class verdicts are rational arithmetic; eigenvalues are
tolerance-carrying floats, recorded as advisory cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from . import spectra
from .certificate import (
    NestCertificate,
    StabilityCertificate,
    Stabilizer,
    _integer_b,
    _trace_ledger,
    exact_certificate,
    nonpositive_values,
)
from .classify import classify_full
from .errors import (
    DoubleRangeError,
    HypothesisError,
    MatrixArgumentError,
    StabilizerInconclusiveError,
    NumericToleranceError,
)
from .exactmat import ExactMatrix

DEFAULT_MAX_SHRINK = 64


# -- the stabilizer search -------------------------------------------------


def build_stabilizer(
    a: ExactMatrix, report, nest: NestCertificate, max_shrink: int = DEFAULT_MAX_SHRINK
) -> StabilityCertificate:
    """Search for a diagonal that passes both exact checks; returns the
    :func:`exact_certificate` of the one accepted, without spectra.

    B is build_B(a, nest).  The search starts at the geometric diagonal
    D_0 = diag(1, 1/2, ..., 2^(1-n)) and tries
    D = I - (I - D_0) / 2^s = D' / 2^(n-1+s) for s = 0, 1, ...: each
    halving of I - D moves D along its own homotopy path toward I.  The
    first D whose certificate has no nonpositive ledger value or Hurwitz
    minor of diag(eps) * B (:func:`nonpositive_values` lists none) is
    accepted.  As D -> I every L(j,k,m) tends to C(j,k) C(j,m) E_j(B^2) > 0
    and diag(eps) * B tends to B, so when B is positively stable the search
    ends after finitely many halvings; after ``max_shrink`` of them it
    raises StabilizerInconclusiveError.

    B's integer form is built once, and each D's ledger is derived on it
    once, order by order (:func:`_trace_ledger`), up to the first order
    with a nonpositive value, whose first is the complete ledger's.  Only
    a D whose complete ledger is positive gets its Hurwitz minors and its
    certificate, which keeps that ledger.

    The search never tests B: the claim rests on A's Q^2, the ledger and
    the Hurwitz minors (see :mod:`pstab.certificate`).
    """
    if type(max_shrink) is not int or max_shrink < 0:
        raise MatrixArgumentError("max_shrink must be an int >= 0")
    form, n = _integer_b(a, nest), a.n
    for steps in range(max_shrink + 1):
        delta = 2 ** (n - 1 + steps)
        d_int = [delta - 2 ** (n - 1) + 2 ** (n - 1 - i) for i in range(n)]
        ledger = {}
        for order in _trace_ledger(form, d_int, delta):
            ledger |= order
            if violations := nonpositive_values(order):
                break
        else:
            stabilizer = Stabilizer(tuple(Fraction(d, delta) for d in d_int), steps)
            cert = exact_certificate(a, report, nest, stabilizer, form, ledger)
            violations = nonpositive_values(ledger, cert.endpoint_hurwitz)
            if not violations:
                return cert
    raise StabilizerInconclusiveError(max_shrink, violations[0])


# -- the top-level certificate ---------------------------------------------


def certify_stability(
    a: ExactMatrix, max_shrink: int = DEFAULT_MAX_SHRINK
) -> StabilityCertificate:
    """Run the whole certification pipeline on an exact matrix.

    Raises HypothesisError (not-P, not-Q2, no-nest) or
    StabilizerInconclusiveError; on success every exact field of the
    returned certificate is positive where the claim needs it and
    independently re-verifiable.  The verdict rests on those fields alone:
    no float value raises.  Spectra that cannot be computed, because an
    entry is beyond the double range or their sum/product cross-check
    fails, are left out (None); an advisory spectrum that contradicts the
    exact claim is recorded as the certificate's ``disagreement``.

    P and Q^2 are decided once, on A by :func:`classify_full`.  The exact
    fields are the certificate :func:`build_stabilizer` accepted, derived
    once and checked once; only the advisory spectra are added to it.
    """
    from .nests import find_q2_nest

    report = classify_full(a)
    for key, label in (("P", "P"), ("Q2", "Q^2")):
        witness = report.witnesses.get(key)
        if witness is not None:
            raise HypothesisError(
                f"not-{key}", f"input is not a {label}-matrix: {witness.describe()}",
                witness=witness,
            )
    nest = find_q2_nest(a)
    if nest is None:
        raise HypothesisError(
            "no-nest", "no maximal Q^2 chain of principal submatrices exists"
        )

    cert = build_stabilizer(a, report, nest, max_shrink)
    spectrum = margin = reason = disagreement = None
    try:
        stabilized = spectra.eigenvalues(
            cert.b_matrix.scale_rows(cert.stabilizer.eps)
        )
        spectrum = spectra.eigenvalues(a)
    except DoubleRangeError:
        stabilized = None
        reason = "an entry of A or of D B is beyond the double range"
    except NumericToleranceError as exc:
        stabilized = None
        reason = disagreement = str(exc)
    else:
        ok_wedge, margin = spectra.wedge_check(spectrum, a.n, kind="sharpened")
        if not spectra.is_positively_stable(spectrum, margin=0.0):
            disagreement = (
                "certified matrix shows a numerically nonpositive eigenvalue; "
                "exact and numeric evidence disagree"
            )
        elif not ok_wedge:
            disagreement = (
                f"sharpened wedge bound violated numerically (slack {margin})"
            )
    return cert._replace(
        spectrum=spectrum, stabilized_spectrum=stabilized, wedge_margin=margin,
        spectrum_reason=reason, disagreement=disagreement,
    )
