"""Exact membership tests for the minor-positivity matrix classes.

A P-matrix has every principal minor positive; a Q-matrix has every order's
sum of principal minors positive; the squared variants require the same of
the matrix square.  Sign-symmetry and square diagonal dominance are the two
classical sufficient conditions the stability theorem subsumes.

All verdicts are exact.  Every negative verdict carries a witness that
re-evaluates to a violation; witness ordering is deterministic (smallest
minor order first, then lexicographic rank).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MatrixArgumentError
from .exactmat import ExactMatrix, index_sets, minor, principal_minor_sums

# Pair enumeration for sign-symmetry is C(n,k)^2 per order; keep it small.
SIGN_SYMMETRY_MAX_N = 7


@dataclass(frozen=True)
class MinorWitness:
    """A single offending minor (or pair of opposite minors)."""

    order: int
    rows: tuple
    cols: tuple
    value: Fraction

    def describe(self):
        return (
            f"A({','.join(map(str, self.rows))}; {','.join(map(str, self.cols))})"
            f" = {self.value}"
        )


@dataclass(frozen=True)
class OrderSumWitness:
    """An order whose sum of principal minors is nonpositive."""

    order: int
    value: Fraction

    def describe(self):
        return f"sum of principal minors of order {self.order} = {self.value}"


@dataclass
class ClassReport:
    """Aggregated class verdicts with witnesses for every failure."""

    n: int
    is_p: bool
    is_q: bool
    is_p2: bool
    is_q2: bool
    is_sign_symmetric: bool
    is_row_sqdd: bool
    is_col_sqdd: bool
    order_sums: list  # per order 1..n, sums for M
    order_sums_square: list  # per order 1..n, sums for M*M
    witnesses: dict = field(default_factory=dict)

    def flags(self):
        return {
            "P": self.is_p,
            "Q": self.is_q,
            "P2": self.is_p2,
            "Q2": self.is_q2,
            "sign_symmetric": self.is_sign_symmetric,
            "row_sqdd": self.is_row_sqdd,
            "col_sqdd": self.is_col_sqdd,
        }


def is_p(m: ExactMatrix):
    """P-matrix test: every principal minor positive.

    Returns (verdict, witness); the witness is the first nonpositive
    principal minor in (order, lex rank) order, or None.
    """
    for k in range(1, m.n + 1):
        for s in index_sets(m.n, k):
            value = minor(m, s, s)
            if value <= 0:
                return False, MinorWitness(order=k, rows=s, cols=s, value=value)
    return True, None


def order_sum_traces(m: ExactMatrix):
    """Sums of principal minors of each order for M and for M^2.

    The order-k sum E_k is the k-th coefficient of det(xI + M); both lists
    come from the char-poly kernel :func:`principal_minor_sums`, applied
    to M and to M^2.
    """
    return (
        list(principal_minor_sums(m)[1:]),
        list(principal_minor_sums(m.square())[1:]),
    )


def _first_nonpositive(sums):
    for k, value in enumerate(sums, start=1):
        if value <= 0:
            return OrderSumWitness(order=k, value=value)
    return None


def is_q(m: ExactMatrix):
    """Q-matrix test.  Returns (verdict, order_sums, witness)."""
    sums, _ = order_sum_traces(m)
    witness = _first_nonpositive(sums)
    return witness is None, sums, witness


def is_q2(m: ExactMatrix):
    """Q^2 test: both M and M^2 are Q-matrices.

    Returns (verdict, sums_m, sums_m2, witness); a witness from the square
    is tagged by its being drawn from sums_m2.
    """
    sums_m, sums_m2 = order_sum_traces(m)
    witness = _first_nonpositive(sums_m)
    if witness is None:
        witness = _first_nonpositive(sums_m2)
    return witness is None, sums_m, sums_m2, witness


def is_sign_symmetric(m: ExactMatrix):
    """Sign-symmetry: A(a;b) * A(b;a) >= 0 for all same-size index sets."""
    if m.n > SIGN_SYMMETRY_MAX_N:
        raise MatrixArgumentError(
            f"sign-symmetry check is capped at n <= {SIGN_SYMMETRY_MAX_N}"
        )
    for k in range(1, m.n + 1):
        subsets = list(index_sets(m.n, k))
        for i, a in enumerate(subsets):
            for b in subsets[i + 1 :]:
                product = minor(m, a, b) * minor(m, b, a)
                if product < 0:
                    return False, MinorWitness(
                        order=k, rows=a, cols=b, value=product
                    )
    return True, None


def is_square_diag_dominant(m: ExactMatrix, side="row"):
    """Strict square diagonal dominance for every order of minors.

    Row side: A(a;a)^2 > sum over b != a of A(a;b)^2 for every order k and
    every principal index set a.  Column side is the same test on the
    transpose.
    """
    if side not in ("row", "col"):
        raise MatrixArgumentError(f"side must be 'row' or 'col', got {side!r}")
    mm = m if side == "row" else m.transpose()
    for k in range(1, mm.n + 1):
        subsets = list(index_sets(mm.n, k))
        for a in subsets:
            diag = minor(mm, a, a)
            off = sum(
                (minor(mm, a, b) ** 2 for b in subsets if b != a), Fraction(0)
            )
            if diag * diag <= off:
                return False, MinorWitness(
                    order=k, rows=a, cols=a, value=diag * diag - off
                )
    return True, None


def classify_full(m: ExactMatrix) -> ClassReport:
    """Run every class test and aggregate the verdicts."""
    witnesses = {}

    p_ok, p_witness = is_p(m)
    if p_witness is not None:
        witnesses["P"] = p_witness

    sums_m, sums_m2 = order_sum_traces(m)
    q_witness = _first_nonpositive(sums_m)
    q_ok = q_witness is None
    if q_witness is not None:
        witnesses["Q"] = q_witness

    q2_witness = q_witness or _first_nonpositive(sums_m2)
    q2_ok = q2_witness is None
    if not q2_ok:
        witnesses["Q2"] = q2_witness

    if p_ok:
        p2_ok, p2_witness = is_p(m.square())
        if p2_witness is not None:
            witnesses["P2"] = p2_witness
    else:
        p2_ok = False
        witnesses.setdefault("P2", p_witness)

    ss_ok, ss_witness = is_sign_symmetric(m)
    if ss_witness is not None:
        witnesses["sign_symmetric"] = ss_witness

    row_ok, row_witness = is_square_diag_dominant(m, "row")
    if row_witness is not None:
        witnesses["row_sqdd"] = row_witness
    col_ok, col_witness = is_square_diag_dominant(m, "col")
    if col_witness is not None:
        witnesses["col_sqdd"] = col_witness

    return ClassReport(
        n=m.n,
        is_p=p_ok,
        is_q=q_ok,
        is_p2=p2_ok,
        is_q2=q2_ok,
        is_sign_symmetric=ss_ok,
        is_row_sqdd=row_ok,
        is_col_sqdd=col_ok,
        order_sums=sums_m,
        order_sums_square=sums_m2,
        witnesses=witnesses,
    )
