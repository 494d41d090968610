"""The inverse-permutation transform, the constructive diagonal stabilizer,
and the top-level positive-stability certification.

The pipeline: a P-matrix that is Q^2 and carries a maximal Q^2 chain is
transformed (via the chain's permutation and exact inversion) into a matrix
B whose compound leading blocks all have positive squared traces.  B is P
and Q^2 because A is (see :func:`build_B`), so it is never tested.  A
strictly decreasing positive diagonal D = diag(1, e_2, ..., e_n) is then
found such that two exact checks pass.  The search starts at
diag(1, 1/2, ..., 2^(1-n)) and halves I - D until both do:

* the complete trace ledger L(j,k,m) = Tr(D_k^(j) B^(j) D_m^(j) B^(j)),
  0 <= k, m <= j <= n with D_0^(j) = I, is positive.  Its entries are the
  coefficients of E_j(M_t^2) = sum_{k,m} t^(2j-k-m) (1-t)^(k+m) L(j,k,m)
  along the homotopy M_t = (tI + (1-t)D) B, so M_t^2 is a Q-matrix for
  every t in [0,1] with no sampling; M_t itself is a Q-matrix because B
  is a P-matrix.  The k = m = 0 terms are E_j(B^2), positive because B
  is Q^2, so the ledger holds 0 <= k <= j and 1 <= m <= j (L(j,m,0) =
  L(j,0,m)), the k = 0 cross terms with the rest.
* the endpoint D B is positively stable, proved by the positive leading
  Hurwitz minors of det(xI + D B) = sum_k E_k(D B) x^(n-k).

These are the two facts the homotopy argument rests on: the spectrum
starts in the open right half-plane at t = 0 and, the path staying Q^2,
does not cross the imaginary axis on the way to B.

No compound matrix and no Schur complement is formed: every exact
quantity is a sum of principal minors from the char-poly kernel
(:mod:`pstab.exactmat`).  The block traces are read off the nest's levels,
Tr((B^(j)[1..m])^2) = E_(n-j)(A[S_(n-m)]^2) / det(A)^2 (see
:func:`block_traces`), positive and never checked because the nest is
Q^2; the ledger is read off the generating function
E_j((I + sD) B (I + tD) B) = sum s^k t^m L(j,k,m), whose nodes are
E_j(N_s W_t) with N_s = B^2 + s B D B and the diagonal W_t = I + t D (up
to integer scales) and whose orders 1, n - 1 and n follow one Gram rule
(see :func:`_trace_ledger`), so a complete ledger takes n(n-1)/2
char-polys at n >= 4; the Hurwitz minors are one fraction-free
determinant per leading block of the Hurwitz matrix of E_k(D B).

Each exact value is computed once per certification: the search builds
B's integer form once and derives each diagonal's ledger on it once,
order by order up to the first nonpositive value (order 1 in O(n^2),
order 2 from six nodes, no matrix power); only one whose complete ledger
is positive gets its Hurwitz minors.  One rule, :func:`nonpositive_values`,
decides the sign of every exact value: on each order the search reads,
in its acceptance test and in ``verify``.

Exact and numeric content are kept separate: the ledger, Hurwitz minors,
block traces and class verdicts are rational arithmetic; eigenvalues are
tolerance-carrying floats, recorded as advisory cross-checks.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from . import spectra
from .classify import classify_full
from .errors import (
    DoubleRangeError,
    HypothesisError,
    MatrixArgumentError,
    StabilizerInconclusiveError,
    NumericToleranceError,
)
from .exactmat import (
    ExactMatrix,
    cleared,
    diagonal_poly,
    integer_det,
    integer_minor_sums,
    integer_product,
    inverse,
    lagrange_operator,
)
from .nests import NestCertificate

DEFAULT_MAX_SHRINK = 64


# -- the permutation transform ---------------------------------------------


def build_B(a: ExactMatrix, nest: NestCertificate) -> ExactMatrix:
    """Transform A into B via the chain's permutation and exact inversion;
    returns B.

    With tau = (i_1, ..., i_n) listing the chain inner-to-outer, the
    permutation theta(i_m) = n - m + 1 (``nest.theta``) sends the chain's
    submatrices to the trailing blocks of the conjugated matrix A~; B is
    the inverse of A~, so the Schur complement of B's leading m-block is
    the inverse of A~'s trailing (n-m)-block, a permutation of
    A[S_(n-m)]^(-1).  The nest is taken as verified (it comes from
    :func:`pstab.nests.find_q2_nest` or :func:`pstab.nests.verify_nest`).

    B is not tested: it is a P- and Q^2-matrix whenever A is, which both
    callers have established.  Conjugation by a permutation keeps both
    classes, and for the inverse of the conjugated n-by-n matrix A~,
    det(B[S]) = det(A~[S^c]) / det(A~) and
    E_k(B^2) = E_(n-k)(A~^2) / det(A~)^2, with det(A~) = det(A) > 0.
    """
    # A~ lists A's rows and columns in reversed tau order
    order = [i - 1 for i in reversed(nest.tau)]
    return inverse(ExactMatrix([[a.rows[i][j] for j in order] for i in order]))


_IntegerB = namedtuple("_IntegerB", "b rows beta square grams")


def _integer_b(a: ExactMatrix, nest: NestCertificate) -> _IntegerB:
    """B = build_B(a, nest) with what no diagonal changes, on integers:
    B' = beta B, B'^2 and ``grams``, which maps each closed order j in
    {1, n - 1, n} to (G_j = B'^(j) o B'^(j)T, the index sets of order j).
    No compound is formed: they are (B' o B'^T, the {i}),
    (adj(B') o adj(B')^T, the [n] - {i}) and (det(B')^2, [n]), where for
    A~ = A'/c on integers and det(A') = c^n det(A),
    adj(B') = (beta c)^(n-1) A' / det(A') and
    det(B') = (beta c)^n / det(A'), exact divisions."""
    b, n = build_B(a, nest), a.n
    (rows, beta), (a_int, c) = cleared(b), cleared(a)
    order = [i - 1 for i in reversed(nest.tau)]
    det_a = int(nest.levels[-1].order_sums[-1] * c**n)
    scale = (beta * c) ** (n - 1)
    adj = [[scale * a_int[i][j] // det_a for j in order] for i in order]
    hadamard, adj_gram = (
        [list(map(operator.mul, row, col)) for row, col in zip(m, zip(*m))]
        for m in (rows, adj)
    )
    grams = {
        1: (hadamard, [[i] for i in range(n)]),
        n - 1: (adj_gram, [[*range(i), *range(i + 1, n)] for i in range(n)]),
        n: ([[(scale * beta * c // det_a) ** 2]], [range(n)]),
    }
    return _IntegerB(b, rows, beta, integer_product(rows, rows), grams)


# -- block traces and the trace ledger -------------------------------------


def block_traces(nest: NestCertificate):
    """Tr((B^(j)[1..m])^2) for all 1 <= m <= j <= n, exactly, from the
    levels of the Q^2 nest that :func:`build_B` transforms by.

    The leading block of B^(j) on the index sets containing {1..m} is
    det(B[1..m]) times the (j-m)-th compound of the Schur complement S_m
    (Sylvester's identity), so its squared trace is
    det(B[1..m])^2 E_(j-m)(S_m^2).  With M = A[S_(n-m)], the chain level of
    size k = n-m: S_m is a permutation of M^(-1), Jacobi's identity gives
    det(B[1..m]) = det(M) / det(A), and E_i(M^(-2)) = E_(k-i)(M^2) / det(M)^2.
    Hence

        Tr((B^(j)[1..m])^2) = E_(n-j)(A[S_(n-m)]^2) / det(A)^2,

    with E_0 = 1 and S_0 empty.  Each E(A[S_k]^2) is level k's
    ``order_sums_square`` and det(A) = E_n(A) is the full level's last
    ``order_sums`` entry, so every value is positive when the chain is Q^2.
    """
    levels = nest.levels
    n = len(levels)
    det_sq = Fraction(levels[-1].order_sums[-1]) ** 2
    values = {}
    for j in range(1, n + 1):
        for m_pos in range(1, j + 1):
            k = n - m_pos
            square_sums = (1, *levels[k - 1].order_sums_square) if k else (1,)
            values[(j, m_pos)] = square_sums[n - j] / det_sq
    return values


class Stabilizer(namedtuple("Stabilizer", "eps identity_steps")):
    """Strictly decreasing positive diagonal, e_1 = 1 > e_2 > ... > e_n > 0.

    ``eps`` holds the Fractions e_i; ``identity_steps``, an int >= 0,
    counts the halvings of I - D from the geometric start.
    """

    __slots__ = ()

    def __new__(cls, eps, identity_steps=0):
        if not isinstance(eps, (tuple, list)) or not eps or eps[0] != 1:
            raise MatrixArgumentError("stabilizer must start with eps_1 = 1")
        for a, b in zip((2, *eps), eps):  # 2 > e_1 puts e_1 under the type check
            if not isinstance(b, (int, Fraction)) or not 0 < b < a:
                raise MatrixArgumentError(
                    "stabilizer entries must decrease strictly and stay positive"
                )
        if type(identity_steps) is not int or identity_steps < 0:
            raise MatrixArgumentError("stabilizer identity_steps must be an int >= 0")
        return super().__new__(cls, eps, identity_steps)


def _trace_ledger(form, d_int, delta):
    """Yield the ledger of D = diag(d_int) / delta over B of integer form
    ``form`` (:func:`_integer_b`) order by order, each when it is asked
    for: for j = 1..n, {(j, k, m): L(j,k,m)}, 0 <= k <= j and 1 <= m <= j,
    in key order; the k = 0 keys are the cross terms.

    By Cauchy-Binet and (I + sD)^(j) = sum_k s^k D_k^(j),

        E_j((I + sD) B (I + tD) B) = sum_{0 <= k,m <= j} s^k t^m L(j,k,m).

    With D' = diag(d_int) and B = B'/beta on integers, the left side is
    E_j(X_s X_t) / (delta beta)^(2j), X_s = (delta I + s D') B'.  Since
    E_j(UV) = E_j(VU), E_j(X_s X_t) = E_j(N_s W_t) with
    N_s = delta B'^2 + s B'D'B' and the diagonal W_t = delta I + t D', so
    every node is a column scaling of a combination of two fixed products.
    Order j has degree j in s and in t, so an order 2 <= j <= n - 2 reads
    E_j off the nodes s <= t in {0..j} (E_j(X_s X_t) = E_j(X_t X_s)), whose
    char-polys are made on first use and read one order further per order,
    and recovers its coefficients from these values P by two exact
    Vandermonde passes, W P W^T / (j!)^2 with the integer Lagrange operator
    W = j! V^(-1) of :func:`pstab.exactmat.lagrange_operator`.  Order 2
    takes six nodes and no matrix power, the complete ledger n(n - 1)/2.

    The orders j in {1, n - 1, n} need no node.  E_j(X_s X_t) is the
    trace of X_s^(j) X_t^(j), and (delta I + s D')^(j) is diagonal, its
    entry on the index set alpha being p_alpha(s) = prod_(i in alpha)
    (delta + s d'_i).  So with P_j the coefficients of p_alpha, one row per
    alpha, and G_j = B'^(j) o B'^(j)T,

        (delta beta)^(2j) L(j,k,m) = (P_j^T G_j P_j)_km,

    where ``form.grams`` holds G_j without a compound (see
    :func:`_integer_b`).  Order 1, an n-by-2 P_1 around H, takes O(n^2)
    products and no char-poly.
    """
    b_rows, beta, square, grams = form[1:]
    n = len(b_rows)
    nodes, grid, n_s = {}, {}, []  # node char-polys, their order-j values, N_s
    for j in range(1, n + 1):
        if j in grams:
            gram, sets = grams[j]
            p = [diagonal_poly(delta, [d_int[i] for i in alpha]) for alpha in sets]
            coeffs = integer_product(integer_product(list(zip(*p)), gram), p)
            scale = (delta * beta) ** (2 * j)
        else:
            if not nodes:
                sandwich = integer_product(
                    b_rows, [[d * x for x in row] for d, row in zip(d_int, b_rows)]
                )
            for s, t in itertools.combinations_with_replacement(range(j + 1), 2):
                if (s, t) not in nodes:
                    if s == len(n_s):  # s occurs first in increasing order
                        n_s.append([
                            [delta * x + s * y for x, y in zip(row, line)]
                            for row, line in zip(square, sandwich)
                        ])
                    w_t = [delta + t * d for d in d_int]
                    node = [list(map(operator.mul, row, w_t)) for row in n_s[s]]
                    nodes[s, t] = itertools.islice(integer_minor_sums(node), j, None)
                grid[s, t] = grid[t, s] = next(nodes[s, t])
            w = lagrange_operator(j)
            values = [[grid[s, t] for t in range(j + 1)] for s in range(j + 1)]
            coeffs = integer_product(integer_product(w, values), list(zip(*w)))
            scale = math.factorial(j) ** 2 * (delta * beta) ** (2 * j)
        pairs = itertools.product(range(j + 1), range(1, j + 1))
        yield {(j, k, m): Fraction(coeffs[k][m], scale) for k, m in pairs}


def hurwitz_minors(a, c) -> tuple:
    """Leading principal minors of the Hurwitz matrix of det(xI + M), for
    M = a / c with ``a`` an integer matrix given as a list of int rows.

    With a_k = E_k(M), the Hurwitz matrix has entry (i, j) = a_(2j-i).  By
    the Routh-Hurwitz criterion all n minors are positive iff every root of
    det(xI + M) lies in the open left half-plane, that is iff M is
    positively stable.  H' holds the integer E_(2j-i)(a) and entry (i, j)
    of H is H'_ij / c^(2j-i), so det H[1..k] = det H'[1..k] /
    c^(k(k+1)/2), one :func:`pstab.exactmat.integer_det` per leading
    block of H'.
    """
    coeffs, n = list(integer_minor_sums(a)), len(a)
    rows = [
        [coeffs[2 * j - i] if 0 <= 2 * j - i <= n else 0 for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return tuple(
        Fraction(integer_det([row[:k] for row in rows[:k]]), c ** (k * (k + 1) // 2))
        for k in range(1, n + 1)
    )


def nonpositive_values(ledger, minors=()) -> list:
    """Every nonpositive value among the exact values the stability claim
    rests on, as (key, value) pairs in order: the ledger keyed (j, k, m) in
    key order, then the Hurwitz minors keyed ("hurwitz", k).  Empty when
    all are positive.

    Ledger keys sort by j first, and :func:`_trace_ledger` yields the
    orders in turn, so the first order with a nonpositive value reports
    first what the complete ledger would.  No block trace is checked: the
    nest functions accept only Q^2 levels, which make each positive.
    """
    values = sorted(ledger.items())
    values += [(("hurwitz", k), v) for k, v in enumerate(minors, start=1)]
    # same as v <= 0, denominators being positive, but skips Fraction._richcmp
    return [(key, v) for key, v in values if v.numerator <= 0]


# -- the certificate and the stabilizer search -----------------------------


class StabilityCertificate(namedtuple(
    "StabilityCertificate",
    "matrix report nest b_matrix stabilizer trace_ledger endpoint_hurwitz"
    " spectrum stabilized_spectrum wedge_margin spectrum_reason disagreement",
    defaults=(None,) * 5,
)):
    """Everything needed to re-check a positive-stability claim.

    All fields up to ``endpoint_hurwitz`` are exact rationals re-derivable
    from the input matrix alone, all made by :func:`exact_certificate`.
    Each fact is held once: the ``nest`` carries the chain, the
    permutations tau and theta of the transform and the order sums that
    :func:`block_traces` reads the block traces off (see
    :class:`pstab.nests.NestCertificate`), ``b_matrix`` is B,
    ``trace_ledger`` is the flat dict {(j, k, m): L(j,k,m)}, 0 <= k <= j
    and 1 <= m <= j, of :func:`_trace_ledger`, cross terms included, and
    ``endpoint_hurwitz`` holds the Hurwitz minors of
    det(xI + diag(eps) * B).  The claim rests on their signs, which
    :func:`nonpositive_values` decides once in the search that accepts
    them and once in ``verify``: a positive ledger keeps the homotopy Q^2,
    and positive endpoint minors prove diag(eps) * B positively stable.
    The ``spectrum`` of the input matrix, the ``stabilized_spectrum`` of
    diag(eps) * B and the ``wedge_margin`` are the only floating-point
    content; they are advisory cross-checks, and all three are None when
    the spectra were not computed, with ``spectrum_reason`` saying why.
    ``disagreement`` says how the float evidence contradicts the exact
    claim (a nonpositive eigenvalue, a wedge margin <= 0, or a failed
    sum/product cross-check), and is None when it does not.
    """

    __slots__ = ()


def exact_certificate(
    a: ExactMatrix, report, nest: NestCertificate, stabilizer
) -> StabilityCertificate:
    """The certificate, without spectra, that a Q^2 nest and a stabilizer
    make of A, given A's class report: B, the ledger and the endpoint
    Hurwitz minors, signs unchecked, as the search derives them."""
    return _certificate(a, report, nest, _integer_b(a, nest), stabilizer)


def _certificate(a, report, nest, form, stabilizer, ledger=None):
    """:func:`exact_certificate` with B's integer form ``form`` given, and
    the complete ``ledger`` over it when the search has read it."""
    delta = math.lcm(*(e.denominator for e in stabilizer.eps))
    d_int = [int(e * delta) for e in stabilizer.eps]
    endpoint = [[d * x for x in row] for d, row in zip(d_int, form.rows)]
    if ledger is None:
        ledger = {}
        for order in _trace_ledger(form, d_int, delta):
            ledger |= order
    minors = hurwitz_minors(endpoint, delta * form.beta)
    return StabilityCertificate(a, report, nest, form.b, stabilizer, ledger, minors)


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

    The search never tests B: that B is a P- and Q^2-matrix is the
    theorem's hypothesis, which the caller establishes on A (see
    :func:`build_B`).
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
            cert = _certificate(a, report, nest, form, stabilizer, ledger)
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
