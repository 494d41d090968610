"""Exact minor-positivity classification and positive-stability certificates.

The public surface: exact matrices and minors (:mod:`pstab.exactmat`),
compound matrices and the exterior products and generalized compounds
read off them (:mod:`pstab.compound`), matrix-class tests
(:mod:`pstab.classify`), the certificate and its checker, from the nest
and the B transform to the trace ledger, the stabilizer and the one
positivity rule that ``certify`` and ``verify`` share
(:mod:`pstab.certificate`), Q^2 chain search (:mod:`pstab.nests`), the
stabilizer search and certification pipeline (:mod:`pstab.stabilize`),
and advisory numeric spectra (:mod:`pstab.spectra`).
"""

from .exactmat import (
    ExactMatrix,
    as_rational,
    det,
    minor,
    principal_submatrix,
    inverse,
    trace,
)
from .compound import (
    compound,
    diag_generalized_compound,
    exterior_product,
    generalized_compound,
)
from .classify import ClassReport, classify_full, is_p, is_q, is_q2
from .certificate import (
    NestCertificate,
    StabilityCertificate,
    Stabilizer,
    __version__,
    block_traces,
    build_B,
    verify_nest,
)
from .nests import find_q2_nest
from .stabilize import build_stabilizer, certify_stability
from .spectra import Spectrum, eigenvalues, is_positively_stable, wedge_check

__all__ = [
    "ExactMatrix",
    "as_rational",
    "det",
    "minor",
    "principal_submatrix",
    "inverse",
    "trace",
    "compound",
    "diag_generalized_compound",
    "exterior_product",
    "generalized_compound",
    "ClassReport",
    "classify_full",
    "is_p",
    "is_q",
    "is_q2",
    "NestCertificate",
    "find_q2_nest",
    "verify_nest",
    "StabilityCertificate",
    "Stabilizer",
    "block_traces",
    "build_B",
    "build_stabilizer",
    "certify_stability",
    "Spectrum",
    "eigenvalues",
    "is_positively_stable",
    "wedge_check",
    "__version__",
]
