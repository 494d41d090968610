"""The positive-stability certificate and its checker: the matrix-file
reader, the nest checker, the one derivation of a certificate's exact
part, and the certificate's writer and reader.  ``verify`` runs this
module and what it imports (:mod:`pstab.classify`, :mod:`pstab.exactmat`,
:mod:`pstab.errors`); the searches, :mod:`pstab.nests` and
:mod:`pstab.stabilize`, import it, never the other way round.

The claim.  A nest is a maximal chain S_1 in S_2 in ... in S_n of index
sets whose principal submatrices of A are Q^2; B is the inverse of A
conjugated by the chain's permutation (:func:`build_B`); the stabilizer
is a strictly decreasing positive diagonal D = diag(1, e_2, ..., e_n).
A certificate states two exact facts of them:

* the complete trace ledger L(j,k,m) = Tr(D_k^(j) B^(j) D_m^(j) B^(j)),
  0 <= k <= j and 1 <= m <= j with D_0^(j) = I, is positive.  Its
  entries are the coefficients of
  E_j(M_t^2) = sum_{k,m} t^(2j-k-m) (1-t)^(k+m) L(j,k,m) along the
  homotopy M_t = (tI + (1-t)D) B, with L(j,m,0) = L(j,0,m); the k = 0
  keys are the cross terms.  The k = m = 0 terms are
  E_j(B^2) = E_(n-j)(A~^2) / det(A~)^2 for A~ = B^(-1), positive because
  A is Q^2 (the nest's full level).
* the endpoint D B has positive leading Hurwitz minors of
  det(xI + D B) = sum_k E_k(D B) x^(n-k).

Why they prove A positively stable.  For t in [0, 1] each E_j(M_t^2) is
a positive combination of positive terms, so det(xI + M_t^2) has positive
coefficients and no root x >= 0.  An eigenvalue iw of M_t would give
M_t^2 the eigenvalue -w^2, a root x = w^2 >= 0, so no M_t has an
eigenvalue on the imaginary axis.  The Hurwitz minors make M_0 = D B
positively stable (Routh-Hurwitz).  Eigenvalues move continuously, so
M_1 = B is positively stable, and so are A~ = B^(-1)
(Re(1/l) = Re(l) / |l|^2) and A, a permutation similarity of A~.  Neither
P nor the chain's inner levels enter the proof, and B is never tested.
P is the paper's reason to expect the stabilizer search to succeed;
``verify`` still requires it.

The derivation.  No compound matrix and no Schur complement is formed:
every exact value is a sum of principal minors from the char-poly kernel
(:mod:`pstab.exactmat`), the block traces read off the nest's levels and
positive because each is Q^2 (:func:`block_traces`), the ledger off a
generating function (:func:`_trace_ledger`).  :func:`exact_certificate`
is the one derivation, run by the search on the diagonal it accepts and
by ``verify`` on the claimed one; one rule, :func:`nonpositive_values`,
decides the sign of every ledger value and Hurwitz minor in both.

The format.  Matrix files are plain text: a dimension line, then n rows
of n entries (integers, fractions like "-7/5", or finite decimals, all
parsed exactly), within the literal caps MAX_LITERAL_DIGITS and
MAX_LITERAL_EXPONENT.  A certificate is one line of compact JSON with
every exact value a fraction string; the only floats are A's advisory
eigenvalues and wedge margin.  ``verify`` reads that section for its type
alone and parses any JSON layout, so the certificates of earlier
versions, indented or listing D B's eigenvalues, verify unchanged.
:func:`certificate_document` is the format's one definition:
:func:`verify_document` rebuilds a certificate from its two claims, the
chain and the diagonal, writes it again and diffs the two documents,
reading no key the writer does not emit (an older ``input.sha256``).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import namedtuple
from fractions import Fraction

from .classify import _classify, _level_q2
from .errors import MatrixArgumentError
from .exactmat import (
    ExactMatrix,
    cleared,
    diagonal_poly,
    integer_adjugate,
    integer_det,
    integer_minor_sums,
    integer_product,
    lagrange_operator,
    rational_str,
)

__version__ = "0.1.0"

# The exact integer behind a literal can be far larger than its text:
# "1e100000000" is 11 characters and a 100,000,001-digit integer.  The caps
# are checked on the text, before the integer is built.
MAX_LITERAL_DIGITS = 1000
MAX_LITERAL_EXPONENT = 10000
_EXPONENT = re.compile(r"[eE][+-]?([\d_]+)$")


class MatrixParseError(Exception):
    """Parse failure with 1-based line and token position."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, entry {column}: {message}")
        self.line = line
        self.column = column


# -- matrix file format -----------------------------------------------------


def parse_matrix(text) -> ExactMatrix:
    """Parse the matrix file format: a dimension line, then n rows."""
    rows_of_tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows_of_tokens.append((lineno, stripped.split()))
    if not rows_of_tokens:
        raise MatrixParseError("empty matrix file", 1, 1)

    head_line, head = rows_of_tokens[0]
    if len(head) != 1 or not head[0].isdecimal():
        raise MatrixParseError(
            f"expected a single dimension, got {' '.join(head)!r}", head_line, 1
        )
    problem = _literal_size_problem(head[0])
    if problem:
        raise MatrixParseError(problem, head_line, 1)
    n = int(head[0])
    if n < 1:
        raise MatrixParseError("dimension must be at least 1", head_line, 1)
    body = rows_of_tokens[1:]
    if len(body) != n:
        where = body[-1][0] if body else head_line
        raise MatrixParseError(
            f"expected {n} matrix rows, got {len(body)}", where, 1
        )

    rows = []
    for lineno, tokens in body:
        if len(tokens) != n:
            raise MatrixParseError(
                f"expected {n} entries, got {len(tokens)}", lineno, len(tokens)
            )
        row = []
        for col, token in enumerate(tokens, start=1):
            try:  # an integer within the caps: no Fraction regex, no digit count
                if len(token) <= MAX_LITERAL_DIGITS:
                    row.append(Fraction(int(token)))
                    continue
            except ValueError:
                pass
            problem = _literal_size_problem(token)
            if problem:
                raise MatrixParseError(problem, lineno, col)
            try:
                row.append(Fraction(token))
            except (ValueError, ZeroDivisionError) as exc:
                raise MatrixParseError(
                    f"bad entry {token!r}: {exc}", lineno, col
                ) from exc
        rows.append(row)
    return ExactMatrix(rows)


def _literal_size_problem(token):
    """Why the text of a matrix entry or dimension is over the literal caps,
    or None."""
    digits = sum(ch.isdigit() for ch in token)
    if digits > MAX_LITERAL_DIGITS:
        return f"entry has {digits} digits; at most {MAX_LITERAL_DIGITS} are allowed"
    match = _EXPONENT.search(token)
    if match and int(match[1].replace("_", "") or "0") > MAX_LITERAL_EXPONENT:
        return (
            f"entry's decimal exponent is larger than {MAX_LITERAL_EXPONENT} "
            "in magnitude"
        )
    return None


def load_matrix(path) -> ExactMatrix:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_matrix(handle.read())


# -- the nest ---------------------------------------------------------------


class LevelEvidence(namedtuple("LevelEvidence", "subset order_sums order_sums_square")):
    """Order sums for one principal submatrix and its square."""

    __slots__ = ()


class NestCertificate(namedtuple("NestCertificate", "levels")):
    """A maximal Q^2 chain, held as the LevelEvidence of its levels,
    smallest first; the chain, ``tau`` and ``theta`` are read off them, so
    the two cannot disagree.

    ``chain`` holds the levels' index sets, sizes 1..n.  Its permutation
    ``tau`` lists the chain inner-to-outer, tau[0] the single element of
    S_1 and tau[k-1] the element added when growing S_{k-1} to S_k, so
    S_k = {tau[0], ..., tau[k-1]}.  ``theta`` is the permutation
    theta(tau[k-1]) = n - k + 1 by which :func:`build_B` conjugates A,
    listed as (theta(1), ..., theta(n)).
    """

    __slots__ = ()

    @property
    def chain(self):
        return tuple(level.subset for level in self.levels)

    @property
    def tau(self):
        """:func:`chain_tau` of the chain."""
        return chain_tau(self.chain)

    @property
    def theta(self):
        tau = self.tau
        return tuple(len(tau) - tau.index(i) for i in range(1, len(tau) + 1))


def chain_tau(chain):
    """The permutation a chain defines: the element each level adds."""
    tau = [chain[0][0]]
    for prev, cur in zip(chain, chain[1:]):
        added = set(cur) - set(prev)
        if len(added) != 1:
            raise MatrixArgumentError("chain levels must grow by one index")
        tau.append(added.pop())
    return tuple(tau)


def _validate_chain(chain, n):
    try:
        chain = [tuple(s) for s in chain]
    except TypeError as exc:  # a chain or a level that is not a collection
        raise MatrixArgumentError(f"chain is not a list of index sets: {exc}") from None
    if any(type(i) is not int for s in chain for i in s):  # a bool would be JSON true
        raise MatrixArgumentError("chain indices must be ints")
    chain = [tuple(sorted(s)) for s in chain]
    if len(chain) != n:
        raise MatrixArgumentError(
            f"chain must have {n} levels, got {len(chain)}"
        )
    for k, s in enumerate(chain, start=1):
        if len(s) != k or len(set(s)) != k:
            raise MatrixArgumentError(f"chain level {k} must have {k} indices")
        if any(not 1 <= i <= n for i in s):
            raise MatrixArgumentError(f"chain level {k} has out-of-range indices")
        if k > 1 and not set(chain[k - 2]) <= set(s):
            raise MatrixArgumentError(f"chain level {k} does not contain level {k-1}")
    return chain


def _chain_evidence(chain, q2):
    """The NestCertificate of a validated chain; raises MatrixArgumentError
    naming its first level that is not Q^2, by 1-based position."""
    levels = []
    for level, subset in enumerate(chain, start=1):
        ok, sums_m, sums_m2, witness = q2(subset)
        if not ok:
            src = "square" if all(s > 0 for s in sums_m) else "matrix"
            raise MatrixArgumentError(
                f"level {level} subset {subset}: order-{witness.order} "
                f"minor sum of the {src} is {rational_str(witness.value)}"
            )
        levels.append(LevelEvidence(subset, tuple(sums_m), tuple(sums_m2)))
    return NestCertificate(tuple(levels))


def verify_nest(m: ExactMatrix, chain, full=None):
    """Re-verify an externally supplied chain.

    Returns the NestCertificate of the validated chain, each level's index
    set sorted, when every level is Q^2; otherwise raises
    MatrixArgumentError for the chain's shape or naming its first level
    that is not Q^2.  Each level takes one char-poly
    (:func:`pstab.classify._level_q2`), up to the first that fails, except
    the full one when ``full``, its Q^2 verdict as
    :func:`pstab.classify.is_q2` gives it, is passed.
    """
    chain = _validate_chain(chain, m.n)
    return _chain_evidence(chain, _level_q2(m, full))


# -- the permutation transform ---------------------------------------------


def build_B(a: ExactMatrix, nest: NestCertificate) -> ExactMatrix:
    """Transform A into B via the chain's permutation and exact inversion;
    returns B, the ``b`` of :func:`_integer_b`.

    With tau = (i_1, ..., i_n) listing the chain inner-to-outer, the
    permutation theta(i_m) = n - m + 1 (``nest.theta``) sends the chain's
    submatrices to the trailing blocks of the conjugated matrix A~; B is
    the inverse of A~, so the Schur complement of B's leading m-block is
    the inverse of A~'s trailing (n-m)-block, a permutation of
    A[S_(n-m)]^(-1).  The nest is taken as verified (it comes from
    :func:`pstab.nests.find_q2_nest` or :func:`verify_nest`).

    B is not tested: the claim needs only E_k(B^2) > 0, and for the
    inverse of the conjugated n-by-n matrix A~,
    E_k(B^2) = E_(n-k)(A~^2) / det(A~)^2, positive because A is Q^2.
    """
    return _integer_b(a, nest).b


_IntegerB = namedtuple("_IntegerB", "b rows beta square grams")


def _integer_b(a: ExactMatrix, nest: NestCertificate) -> _IntegerB:
    """B of :func:`build_B` with what no diagonal changes, on integers:
    B' = beta B, B'^2 and ``grams``, which maps each closed order j in
    {1, n - 1, n} to (G_j = B'^(j) o B'^(j)T, the index sets of order j).

    A is cleared once and permuted, A~' = c A~; one fraction-free
    elimination (:func:`pstab.exactmat.integer_adjugate`) gives p and adj,
    +-det(A~') and +-adj(A~') with one sign, and B = c adj / p.  With g the
    gcd of p and c adj, signed as p, beta = p / g is the lcm of B's
    denominators and B' = c adj / g.  No compound is formed: G_j is
    (B' o B'^T, the {i}), (adj(B') o adj(B')^T, the [n] - {i}) or
    (det(B')^2, [n]), with adj(B') = (beta c)^(n-1) A~' / det(A~') and
    det(B') = (beta c)^n / det(A~'), exact divisions by p whose sign the
    squares drop."""
    (a_int, c), n = cleared(a), a.n
    order = [i - 1 for i in reversed(nest.tau)]
    a_tilde = [[a_int[i][j] for j in order] for i in order]
    adj, p = integer_adjugate(a_tilde)
    p_b = [[c * x for x in row] for row in adj]
    g = math.gcd(p, *itertools.chain.from_iterable(p_b)) * (1 if p > 0 else -1)
    beta, rows = p // g, [[x // g for x in row] for row in p_b]
    scale = (beta * c) ** (n - 1)
    adj = [[scale * x // p for x in row] for row in a_tilde]  # +-adj(B')
    hadamard, adj_gram = (
        [list(map(operator.mul, row, col)) for row, col in zip(m, zip(*m))]
        for m in (rows, adj)
    )
    grams = {
        1: (hadamard, [[i] for i in range(n)]),
        n - 1: (adj_gram, [[*range(i), *range(i + 1, n)] for i in range(n)]),
        n: ([[(scale * beta * c // p) ** 2]], [range(n)]),
    }
    b = ExactMatrix([[Fraction(x, beta) for x in row] for row in rows])
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


class Stabilizer(namedtuple("Stabilizer", "eps")):
    """Strictly decreasing positive diagonal, e_1 = 1 > e_2 > ... > e_n > 0,
    held as the Fractions e_i in ``eps``."""

    __slots__ = ()

    def __new__(cls, eps):
        if not isinstance(eps, (tuple, list)) or not eps or eps[0] != 1:
            raise MatrixArgumentError("stabilizer must start with eps_1 = 1")
        for a, b in zip((2, *eps), eps):  # 2 > e_1 puts e_1 under the type check
            if not isinstance(b, (int, Fraction)) or not 0 < b < a:
                raise MatrixArgumentError(
                    "stabilizer entries must decrease strictly and stay positive"
                )
        return super().__new__(cls, eps)

    @property
    def identity_steps(self):
        """The halvings s of I - D from the geometric start, read off e_n:
        the search's e_n is 2^(n-1+s) - 2^(n-1) + 1, odd when n >= 2, over
        2^(n-1+s), and e_1 = 1 at n = 1.  Floored at 0 for any diagonal."""
        return max(0, self.eps[-1].denominator.bit_length() - len(self.eps))


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


# -- the certificate -------------------------------------------------------


class StabilityCertificate(namedtuple(
    "StabilityCertificate",
    "matrix report nest b_matrix stabilizer trace_ledger endpoint_hurwitz"
    " spectrum wedge_margin spectrum_reason disagreement",
    defaults=(None,) * 4,
)):
    """Everything needed to re-check a positive-stability claim.

    The fields up to ``endpoint_hurwitz`` are exact, each fact held once:
    the ``nest`` (chain, tau, theta and the block traces' order sums), B,
    the flat ledger {(j, k, m): L(j,k,m)} with its cross terms, and the
    Hurwitz minors of det(xI + diag(eps) * B), which decide the endpoint.
    A's ``spectrum`` and the ``wedge_margin`` are advisory floats, None
    when not computed, with ``spectrum_reason`` saying why;
    ``disagreement`` says how they contradict the exact claim, or is None.
    """

    __slots__ = ()


def exact_certificate(
    a: ExactMatrix, report, nest: NestCertificate, stabilizer, form=None, ledger=None
) -> StabilityCertificate:
    """The certificate, without a spectrum, that a Q^2 nest and a stabilizer
    make of A, given A's class report: B, the ledger and the endpoint
    Hurwitz minors, signs unchecked.  The search passes B's integer form
    ``form`` (:func:`_integer_b`), built once for all its diagonals, and
    the complete ``ledger`` it has read over it; ``verify`` passes
    neither."""
    if form is None:
        form = _integer_b(a, nest)
    delta = math.lcm(*(e.denominator for e in stabilizer.eps))
    d_int = [int(e * delta) for e in stabilizer.eps]
    endpoint = [[d * x for x in row] for d, row in zip(d_int, form.rows)]
    if ledger is None:
        ledger = {}
        for order in _trace_ledger(form, d_int, delta):
            ledger |= order
    minors = hurwitz_minors(endpoint, delta * form.beta)
    return StabilityCertificate(a, report, nest, form.b, stabilizer, ledger, minors)


# -- the writer -------------------------------------------------------------


def frac_str(x) -> str:
    """:func:`pstab.exactmat.rational_str` with the denominator always
    explicit ("5491/1"): the "p/q" form of every exact certificate value."""
    text = rational_str(x)
    return text if "/" in text else f"{text}/1"


def matrix_doc(m: ExactMatrix):
    return [[frac_str(x) for x in row] for row in m.rows]


def classification_doc(report):
    """The exact class verdicts and order sums, as in ``classify --json``."""
    return {
        "flags": report.flags(),
        "order_sums": [frac_str(v) for v in report.order_sums],
        "order_sums_square": [frac_str(v) for v in report.order_sums_square],
    }


def _complex_doc(v):
    return {"re": v.real, "im": v.imag}


def certificate_document(cert) -> dict:
    """Serialize a StabilityCertificate to a JSON-ready dict.

    Everything up to endpoint_hurwitz_minors is exact (fraction strings);
    the spectrum section, A's eigenvalues, is the only floating-point
    content.  The nest's chain, ``tau`` and the transform's ``theta`` are
    read off the nest's levels, so the chain written is the one its
    evidence is for.  When the spectrum was not computed it is
    {"computed": false, "reason": ...}; when it contradicts the exact
    claim it names the contradiction under "disagreement".
    """
    report = cert.report
    return {
        "tool": {"name": "pstab", "version": __version__},
        "verdict": "certified",
        "input": {"n": cert.matrix.n, "matrix": matrix_doc(cert.matrix)},
        "classification": classification_doc(report),
        "nest": {
            "chain": [list(s) for s in cert.nest.chain],
            "tau": list(cert.nest.tau),
        },
        "transform": {
            "theta": list(cert.nest.theta),
            "b_matrix": matrix_doc(cert.b_matrix),
        },
        "block_traces": {
            f"{j},{m}": frac_str(v)
            for (j, m), v in sorted(block_traces(cert.nest).items())
        },
        "stabilizer": {
            "eps": [frac_str(e) for e in cert.stabilizer.eps],
            # all zeros; kept because readers of the format still read it,
            # perfbench/run.py's halving count among them
            "shrink_log": [0] * (cert.matrix.n - 1),
            "identity_steps": cert.stabilizer.identity_steps,  # read off eps
        },
        "trace_ledger": {
            f"{j},{k},{m}": frac_str(v)
            for (j, k, m), v in sorted(cert.trace_ledger.items())
            if k
        },
        "cross_terms": {
            f"{j},{k},{m}": frac_str(v)
            for (j, k, m), v in sorted(cert.trace_ledger.items())
            if not k
        },
        "endpoint_hurwitz_minors": [frac_str(v) for v in cert.endpoint_hurwitz],
        "spectrum": _spectrum_doc(cert),
    }


def _spectrum_doc(cert):
    if cert.spectrum is None:
        return {"computed": False, "reason": cert.spectrum_reason}
    doc = {
        "input_eigenvalues": [_complex_doc(v) for v in cert.spectrum.eigenvalues],
        "wedge_margin": cert.wedge_margin,
        "method": cert.spectrum.method,
    }
    if cert.disagreement is not None:
        doc["disagreement"] = cert.disagreement
    return doc


# -- the reader -------------------------------------------------------------


class _Discrepancy(Exception):
    """A malformed claim, or one that does not hold of the matrix."""


def _typed(kind):
    """Converter accepting exactly the JSON values of Python type ``kind``."""

    def convert(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}")
        return value

    return convert


def _tuple_of(convert):
    return lambda value: tuple(map(convert, _typed(list)(value)))


_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _fraction(value):
    """An exact value in the "p/q" form that :func:`frac_str` writes, with
    at most MAX_LITERAL_DIGITS digits in p and in q.  No other form is
    read: "1e10000000" would be 11 characters standing for a 10^7-digit
    integer.  The cap is checked on the text, before any int is built:
    verify derives the ledger of a claimed diagonal before it compares
    any text, so its time would grow with the claimed digits."""
    match = _RATIO.fullmatch(_typed(str)(value))
    if match is None or any(map(_literal_size_problem, match.groups())):
        raise ValueError("expected a fraction p/q within the digit cap")
    return Fraction(int(match[1]), int(match[2]))


def _field(doc, section, key, convert):
    """doc[section][key] passed through ``convert``; raises _Discrepancy
    naming the field when it is missing or the conversion fails."""
    value = doc.get(section)
    value = value.get(key) if isinstance(value, dict) else None
    try:
        return convert(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise _Discrepancy(_malformed(f"{section}.{key}")) from exc


def _malformed(name):
    return f"certificate field {name} is missing or malformed"


# the sections keyed by index, with the name of one of their values
_INDEXED = {
    "block_traces": "block trace",
    "trace_ledger": "trace ledger entry",
    "cross_terms": "cross term",
    "endpoint_hurwitz_minors": "endpoint Hurwitz minor",
}


def verify_document(doc: dict, a: ExactMatrix):
    """Re-derive a certificate from the matrix and the document's claims;
    returns every difference found, an empty list when it re-verifies.

    First ``input.matrix`` must be ``a`` as the writer states it, and ``a``
    a P-matrix.  The two claims, ``nest.chain`` (re-verified by
    :func:`verify_nest`) and ``stabilizer.eps``, are rebuilt into a
    certificate and written again: each field, those read off the claims
    included, must equal the rewritten one, text for text, and each value
    :func:`nonpositive_values` reads must be positive.
    """
    try:
        cert = _rederive(doc, a)
    except _Discrepancy as exc:
        return [str(exc)]
    problems = []
    for section, want in certificate_document(cert).items():
        problems += _section_problems(section, doc.get(section), want)
    problems += [
        f"{_value_name(key)} is not positive"
        for key, _ in nonpositive_values(cert.trace_ledger, cert.endpoint_hurwitz)
    ]
    return [p for p in problems if p]


def _value_name(key):
    """A value keyed as by :func:`nonpositive_values`, named by its
    section's label and its index there."""
    section = "trace_ledger" if key[1] else "cross_terms"
    if key[0] == "hurwitz":
        section, key = "endpoint_hurwitz_minors", key[1:]
    return f"{_INDEXED[section]} ({','.join(map(str, key))})"


def _rederive(doc, a):
    """The StabilityCertificate, without a spectrum, that the document's
    claims make of ``a``; raises _Discrepancy saying why a claim does not
    hold."""
    matrix = _field(doc, "input", "matrix", _tuple_of(_tuple_of(_typed(str))))
    if matrix != tuple(map(tuple, matrix_doc(a))):
        raise _Discrepancy("input.matrix is not the matrix given")
    classes = _classify(a)
    p_witness, full = next(classes)
    if p_witness is not None:
        raise _Discrepancy(f"matrix is not a P-matrix: {p_witness.describe()}")
    chain = _field(doc, "nest", "chain", _tuple_of(_tuple_of(_typed(int))))
    try:
        nest = verify_nest(a, chain, full)
    except MatrixArgumentError as exc:
        raise _Discrepancy(f"nest fails re-verification: {exc}") from exc
    eps = _field(doc, "stabilizer", "eps", _tuple_of(_fraction))
    if len(eps) != a.n:
        raise _Discrepancy(f"stabilizer diagonal has {len(eps)} entries, not {a.n}")
    try:
        stabilizer = Stabilizer(eps)
    except MatrixArgumentError as exc:
        raise _Discrepancy(f"stabilizer fails re-verification: {exc}") from exc
    return exact_certificate(a, next(classes), nest, stabilizer)


def _shape(value):
    """A JSON value with each leaf replaced by its type."""
    if isinstance(value, dict):
        return {key: _shape(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return type(value)


def _difference(name, got, want):
    """How a claimed field differs from the rewritten one, or None."""
    if _shape(got) != _shape(want):
        return _malformed(name)
    return None if got == want else f"{name} does not re-verify"


def _section_problems(section, got, want):
    """How a claimed top-level section differs from the rewritten one, None
    for a field that matches: field by field, or value by value in a
    section keyed by index (a list section is keyed "1", "2", ...).  Only a
    section the writer emits as an object may be claimed as one."""
    if section in ("tool", "spectrum"):  # advisory: only the type is read
        return [None if isinstance(got, dict) else _malformed(section)]
    if section not in _INDEXED:
        if not isinstance(want, dict):
            return [_difference(section, got, want)]
        got = got if isinstance(got, dict) else {}
        return [_difference(f"{section}.{k}", got.get(k), v) for k, v in want.items()]
    if not isinstance(got, (list, type(want))):
        return [f"certificate has no valid {section} section"]
    got, want = (
        {str(k): v for k, v in enumerate(x, start=1)} if isinstance(x, list) else x
        for x in (got, want)
    )
    keys = f"{section.replace('_', ' ')} key set does not match"
    return [None if set(got) == set(want) else keys] + [
        f"{_INDEXED[section]} ({key}) does not re-verify"
        for key, value in want.items()
        if key in got and got[key] != value
    ]
