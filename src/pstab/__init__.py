"""Exact minor-positivity classification and positive-stability certificates.

The public surface: exact matrices and minors (:mod:`pstab.exactmat`),
compound matrices and the exterior products and generalized compounds
read off them (:mod:`pstab.compound`), matrix-class tests
(:mod:`pstab.classify`), Q^2 chain search (:mod:`pstab.nests`), the
certification pipeline, from the B transform to the trace ledger and the
stabilizer (:mod:`pstab.stabilize`), and numeric spectra
(:mod:`pstab.spectra`).
"""

from .exactmat import (
    ExactMatrix,
    Rational,
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
from .nests import NestCertificate, find_q2_nest, verify_nest
from .stabilize import (
    StabilityCertificate,
    Stabilizer,
    TraceLedger,
    block_traces,
    build_B,
    build_stabilizer,
    certify_stability,
    homotopy_certificate,
)
from .spectra import Spectrum, eigenvalues, is_positively_stable, wedge_check

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "Rational",
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
    "TraceLedger",
    "block_traces",
    "build_B",
    "build_stabilizer",
    "certify_stability",
    "homotopy_certificate",
    "Spectrum",
    "eigenvalues",
    "is_positively_stable",
    "wedge_check",
    "__version__",
]
