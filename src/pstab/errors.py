"""Exception hierarchy shared by the whole package.

Certification failures are structured: each carries enough data to name the
exact hypothesis that failed, so the CLI can map them onto stable exit codes
(1 = hypothesis refuted, 2 = inconclusive, 3 = bad input).
"""


class MatrixArgumentError(ValueError):
    """Malformed argument: size mismatch, out-of-range index, empty set."""


class SingularMatrixError(ZeroDivisionError):
    """An exact inverse was requested for a matrix with det = 0."""

    def __init__(self, message="matrix is singular (det = 0)"):
        super().__init__(message)


class CertificationError(Exception):
    """Base class for structured certification failures."""

    kind = "error"


class HypothesisError(CertificationError):
    """The input matrix fails one of the theorem's hypotheses.

    ``witness`` is whatever object the failing classifier produced
    (a minor witness, an order-sum witness, or None for a missing nest).
    """

    def __init__(self, kind, message, witness=None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class StabilizerInconclusiveError(CertificationError):
    """The diagonal-stabilizer search hit its halving cap.

    Not a refutation: when B is positively stable a diagonal close enough
    to I passes both exact checks, but the search gave up after
    ``halvings`` halvings of I - D.  ``last_violation`` names the last
    nonpositive value as (key, value).
    """

    kind = "inconclusive"

    def __init__(self, halvings, last_violation):
        key, value = last_violation
        message = f"stabilizer search gave up after {halvings} halvings of I - D"
        super().__init__(f"{message}; last violation {key} = {value}")
        self.last_violation = last_violation


class NumericToleranceError(CertificationError):
    """A floating-point cross-check fell outside its stated tolerance.

    Advisory: :func:`pstab.stabilize.certify_stability` records it in the
    certificate, and no exit code depends on it."""

    kind = "numeric"


class DoubleRangeError(NumericToleranceError):
    """An exact matrix has an entry that no double holds, so it has no
    floating-point image to take eigenvalues of."""
