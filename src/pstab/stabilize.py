"""The diagonal-stabilizer search and the top-level certification
pipeline.  The certificate they produce, the claim it states and why that
claim proves positive stability are :mod:`pstab.certificate`'s, and so is
the one derivation of its exact part, which the search runs on the
diagonal it accepts and ``verify`` re-runs on the claimed one.

The pipeline checks the theorem's hypotheses, P, Q^2 and a nest, before
it finishes A's class report, so an input that fails one pays for its
witness alone.

Exact and numeric content are kept separate: the ledger, Hurwitz minors,
block traces and class verdicts are rational arithmetic; A's eigenvalues
are tolerance-carrying floats, recorded as an advisory cross-check.
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
from .classify import _classify
from .errors import (
    DoubleRangeError,
    HypothesisError,
    StabilizerInconclusiveError,
    NumericToleranceError,
)
from .exactmat import ExactMatrix

# Halvings of I - D before the search gives up.  With 64 every eps entry
# has a denominator 2^(n-1+s), s <= 64, within MAX_LITERAL_DIGITS for
# n <= 3,258, so verify's digit cap reads every certificate written.
MAX_HALVINGS = 64


# -- the stabilizer search -------------------------------------------------


def build_stabilizer(
    a: ExactMatrix, report, nest: NestCertificate
) -> StabilityCertificate:
    """Search for a diagonal that passes both exact checks; returns the
    :func:`exact_certificate` of the one accepted, without a spectrum.

    B is build_B(a, nest).  The search starts at the geometric diagonal
    D_0 = diag(1, 1/2, ..., 2^(1-n)) and tries
    D = I - (I - D_0) / 2^s = D' / 2^(n-1+s) for s = 0, 1, ...: each
    halving of I - D moves D along its own homotopy path toward I.  The
    first D whose certificate has no nonpositive ledger value or Hurwitz
    minor of diag(eps) * B (:func:`nonpositive_values` lists none) is
    accepted.  As D -> I every L(j,k,m) tends to C(j,k) C(j,m) E_j(B^2) > 0
    and diag(eps) * B tends to B, so when B is positively stable the search
    ends after finitely many halvings; after MAX_HALVINGS of them it
    raises StabilizerInconclusiveError.

    B's integer form is built once, and each D's ledger is derived on it
    once, order by order (:func:`_trace_ledger`), up to the first order
    with a nonpositive value, whose first is the complete ledger's.  Only
    a D whose complete ledger is positive gets its Hurwitz minors and its
    certificate, which keeps that ledger.

    The search never tests B: the claim rests on A's Q^2, the ledger and
    the Hurwitz minors (see :mod:`pstab.certificate`).
    """
    form, n = _integer_b(a, nest), a.n
    for steps in range(MAX_HALVINGS + 1):
        delta = 2 ** (n - 1 + steps)
        d_int = [delta - 2 ** (n - 1) + 2 ** (n - 1 - i) for i in range(n)]
        ledger = {}
        for order in _trace_ledger(form, d_int, delta):
            ledger |= order
            if violations := nonpositive_values(order):
                break
        else:
            stabilizer = Stabilizer(tuple(Fraction(d, delta) for d in d_int))
            cert = exact_certificate(a, report, nest, stabilizer, form, ledger)
            # every ledger order was positive: only the Hurwitz minors are left
            violations = nonpositive_values({}, cert.endpoint_hurwitz)
            if not violations:
                return cert
    raise StabilizerInconclusiveError(MAX_HALVINGS, violations[0])


# -- the top-level certificate ---------------------------------------------


def certify_stability(a: ExactMatrix) -> StabilityCertificate:
    """Run the whole certification pipeline on an exact matrix.

    Raises HypothesisError (not-P, not-Q2, no-nest) or
    StabilizerInconclusiveError; on success every exact field of the
    returned certificate is positive where the claim needs it and
    independently re-verifiable.  The verdict rests on those fields alone:
    no float value raises.  A's spectrum, the one float value (D B is
    decided by its exact Hurwitz minors), is left out (None) when an entry
    of A is beyond the double range or the sum/product cross-check fails,
    and recorded as ``disagreement`` when it contradicts the exact claim.

    The theorem's hypotheses come first: P, then Q^2, read off one sweep
    of A (the first step of :func:`pstab.classify._classify`), then the
    nest, whose search takes the full set's Q^2 verdict from that step.
    So a refutation costs only its witness; the rest of the class report,
    which the certificate records, is finished from the same sweep only
    for an input that passed all three.  The exact fields are the
    certificate :func:`build_stabilizer` accepted, derived once and
    checked once; only the advisory spectrum is added to it.
    """
    from .nests import find_q2_nest

    classes = _classify(a)
    p_witness, full = next(classes)
    # full is None only when A is not P, which the first check refutes
    for key, label, witness in (("P", "P", p_witness), ("Q2", "Q^2", full and full[3])):
        if witness is not None:
            raise HypothesisError(
                f"not-{key}", f"input is not a {label}-matrix: {witness.describe()}"
            )
    nest = find_q2_nest(a, full)
    if nest is None:
        raise HypothesisError(
            "no-nest", "no maximal Q^2 chain of principal submatrices exists"
        )

    cert = build_stabilizer(a, next(classes), nest)
    spectrum = margin = reason = disagreement = None
    try:
        spectrum = spectra.eigenvalues(a)
    except DoubleRangeError:
        reason = "an entry of A is beyond the double range"
    except NumericToleranceError as exc:
        reason = disagreement = str(exc)
    else:
        ok_wedge, margin = spectra.wedge_check(spectrum, a.n, kind="sharpened")
        if not spectra.is_positively_stable(spectrum):
            disagreement = (
                "certified matrix shows a numerically nonpositive eigenvalue; "
                "exact and numeric evidence disagree"
            )
        elif not ok_wedge:
            disagreement = (
                f"sharpened wedge bound violated numerically (slack {margin})"
            )
    return cert._replace(
        spectrum=spectrum, wedge_margin=margin, spectrum_reason=reason,
        disagreement=disagreement,
    )
