"""Independent checks of pstab's classify, certify and verify outputs.

Nothing here imports pstab.  Each check recomputes what the output claims
from the input matrix with the kernels of :mod:`exact` and returns a list
of problems; an empty list means the output is right.

* classify --json: every flag, both order-sum lists and every witness.
* certify, refuted: the kind of refutation holds and its witness minor or
  order sum re-evaluates to the stated nonpositive value.
* certify, certified: the matrix, classification, chain, transform
  (B * P A P^T = I), block traces, complete trace ledger and endpoint
  Hurwitz minors are recomputed and must match exactly; every ledger value
  and every Hurwitz minor of A and of diag(eps) * B must be positive; and
  E_j(M_t^2) > 0 for every j at the sample points of SAMPLE_TS.
"""

from __future__ import annotations

import copy
import json
import re
from fractions import Fraction
from functools import cached_property

from exact import (
    MinorTable,
    elementary_symmetric,
    fractions,
    hurwitz_minors_from_sums,
    identity,
    indices_mask,
    mask_indices,
    matmul,
    max_bits,
)

SAMPLE_TS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

EXACT_SECTIONS = (
    "classification",
    "transform",
    "block_traces",
    "stabilizer",
    "trace_ledger",
    "cross_terms",
    "endpoint_hurwitz_minors",
)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class Truth:
    """The checker's own classification of one input matrix.

    The minor table is built at once; each class verdict on first use.
    """

    def __init__(self, rows):
        self.rows = fractions(rows)
        self.n = len(self.rows)
        self.table = MinorTable(self.rows)
        self.full = (1 << self.n) - 1

    @cached_property
    def order_sums(self):
        return self.table.order_sums()

    @cached_property
    def order_sums_square(self):
        return self.table.square_order_sums()

    @cached_property
    def is_p(self):
        return all(self.table.table[(r, r)] > 0 for r in range(1, self.full + 1))

    @cached_property
    def is_q(self):
        return all(v > 0 for v in self.order_sums)

    @cached_property
    def is_q2(self):
        return self.is_q and all(v > 0 for v in self.order_sums_square)

    @cached_property
    def is_p2(self):
        return self.is_p and all(
            self.table.square_minor(r, r) > 0 for r in range(1, self.full + 1)
        )

    @cached_property
    def is_sign_symmetric(self):
        t = self.table
        return all(
            t.table[(a, b)] * t.table[(b, a)] >= 0
            for k in range(1, self.n + 1)
            for a in t.sizes[k]
            for b in t.sizes[k]
        )

    @cached_property
    def is_row_sqdd(self):
        return self._sqdd(transpose=False)

    @cached_property
    def is_col_sqdd(self):
        return self._sqdd(transpose=True)

    def _sqdd(self, transpose):
        t = self.table
        for k in range(1, self.n + 1):
            for a in t.sizes[k]:
                diag = t.table[(a, a)] ** 2
                off = sum(
                    (t.table[(b, a)] if transpose else t.table[(a, b)]) ** 2
                    for b in t.sizes[k]
                    if b != a
                )
                if diag <= off:
                    return False
        return True

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

    def is_q2_within(self, mask):
        sums = self.table.order_sums(mask)
        squares = self.table.square_order_sums(mask)
        return all(v > 0 for v in sums) and all(v > 0 for v in squares)

    def has_nest(self):
        """Whether a maximal chain of Q^2 principal submatrices exists."""
        memo = {}

        def down(mask):
            if mask not in memo:
                memo[mask] = self.is_q2_within(mask) and (
                    mask.bit_count() == 1
                    or any(down(mask & ~(1 << i)) for i in range(self.n) if mask >> i & 1)
                )
            return memo[mask]

        return down(self.full)


# -- witnesses ---------------------------------------------------------------

_MINOR = re.compile(r"A\(([\d,]+); ([\d,]+)\) = (-?\d+(?:/\d+)?)")
_ORDER_SUM = re.compile(r"sum of principal minors of order (\d+) = (-?\d+(?:/\d+)?)")


def _parse_sets(text):
    return tuple(int(x) for x in text.split(","))


def check_minor_witness(truth, text, square=False):
    """A principal-minor witness "A(a; a) = v" of A (or of A^2) with v <= 0."""
    match = _MINOR.search(text)
    if not match:
        return [f"no minor witness in {text!r}"]
    rows, cols = _parse_sets(match.group(1)), _parse_sets(match.group(2))
    value = Fraction(match.group(3))
    r, c = indices_mask(rows), indices_mask(cols)
    actual = truth.table.square_minor(r, c) if square else truth.table.minor(r, c)
    problems = []
    if rows != cols:
        problems.append(f"witness {text!r} is not a principal minor")
    if actual != value:
        problems.append(f"witness {text!r} re-evaluates to {actual}")
    if value > 0:
        problems.append(f"witness {text!r} is positive")
    return problems


def check_order_sum_witness(truth, text):
    """"sum of principal minors of order k = v": the first nonpositive
    order sum of A, or of A^2 when A is a Q-matrix."""
    match = _ORDER_SUM.search(text)
    if not match:
        return [f"no order-sum witness in {text!r}"]
    k, value = int(match.group(1)), Fraction(match.group(2))
    sums = truth.order_sums if not truth.is_q else truth.order_sums_square
    if not 1 <= k <= len(sums):
        return [f"witness order {k} out of range"]
    problems = []
    if sums[k - 1] != value:
        problems.append(f"witness {text!r} re-evaluates to {sums[k - 1]}")
    if value > 0:
        problems.append(f"witness {text!r} is positive")
    return problems


def check_pair_witness(truth, text, kind):
    """A sign-symmetry pair A(a; b) A(b; a) < 0, or a square-dominance
    defect A(a; a)^2 - sum A(a; b)^2 <= 0 (row) or its transpose (col)."""
    match = _MINOR.search(text)
    if not match:
        return [f"no witness in {text!r}"]
    a, b = indices_mask(_parse_sets(match.group(1))), indices_mask(_parse_sets(match.group(2)))
    value = Fraction(match.group(3))
    t = truth.table
    if kind == "sign_symmetric":
        actual = t.minor(a, b) * t.minor(b, a)
        bad = actual < 0
    else:
        k = a.bit_count()
        off = sum(
            (t.minor(c, a) if kind == "col_sqdd" else t.minor(a, c)) ** 2
            for c in t.sizes[k]
            if c != a
        )
        actual = t.minor(a, a) ** 2 - off
        bad = actual <= 0
    problems = []
    if actual != value:
        problems.append(f"{kind} witness {text!r} re-evaluates to {actual}")
    if not bad:
        problems.append(f"{kind} witness {text!r} is not a violation")
    return problems


# -- classify ------------------------------------------------------------------


def check_classify(truth, rc, stdout):
    try:
        doc = _json_tail(stdout)
    except ValueError as exc:
        return [f"classify output is not JSON: {exc}"]
    problems = []
    flags = truth.flags()
    if doc.get("flags") != flags:
        problems.append(f"flags {doc.get('flags')} differ from {flags}")
    if doc.get("order_sums") != [frac_str(v) for v in truth.order_sums]:
        problems.append("order sums differ")
    if doc.get("order_sums_square") != [frac_str(v) for v in truth.order_sums_square]:
        problems.append("order sums of the square differ")
    want_rc = 0 if all(flags.values()) else 1
    if rc != want_rc:
        problems.append(f"classify exit {rc}, expected {want_rc}")
    witnesses = doc.get("witnesses", {})
    if set(witnesses) != {k for k, v in flags.items() if not v}:
        problems.append(f"witness keys {sorted(witnesses)} do not match the failed classes")
    for key, text in witnesses.items():
        if key == "P" or (key == "P2" and not truth.is_p):
            problems.extend(check_minor_witness(truth, text))
        elif key == "P2":
            problems.extend(check_minor_witness(truth, text, square=True))
        elif key in ("Q", "Q2"):
            problems.extend(check_order_sum_witness(truth, text))
        elif key in ("sign_symmetric", "row_sqdd", "col_sqdd"):
            problems.extend(check_pair_witness(truth, text, key))
    return problems


def _json_tail(stdout):
    start = stdout.find("{")
    if start < 0:
        raise ValueError("no JSON object")
    return json.loads(stdout[start:])


# -- certify: refutations -----------------------------------------------------

_REFUTED = re.compile(r"^refuted \(([\w-]+)\): (.*)$", re.M)


def check_refutation(truth, stdout):
    match = _REFUTED.search(stdout)
    if not match:
        return [f"certify exit 1 without a refutation line: {stdout[:120]!r}"]
    kind, text = match.group(1), match.group(2)
    if kind == "not-P":
        if truth.is_p:
            return ["refuted not-P, but the matrix is a P-matrix"]
        return check_minor_witness(truth, text)
    if kind == "not-Q2":
        if not truth.is_p or truth.is_q2:
            return [f"refuted not-Q2 on a matrix with P={truth.is_p} Q2={truth.is_q2}"]
        return check_order_sum_witness(truth, text)
    if kind == "no-nest":
        if not truth.is_p or not truth.is_q2 or truth.has_nest():
            return ["refuted no-nest, but a Q^2 nest exists"]
        return []
    return [f"unknown refutation kind {kind!r}"]


# -- certify: certificates ----------------------------------------------------


class BLedger:
    """Minors of B and the exact sections built from them by definition."""

    def __init__(self, b_rows):
        self.n = len(b_rows)
        self.table = MinorTable(b_rows)

    def _pair_weights(self, j):
        """w(alpha, beta) = B(alpha; beta) B(beta; alpha) over j-sets, as ints."""
        t = self.table.table
        sets = self.table.sizes[j]
        return sets, [[t[(a, b)] * t[(b, a)] for b in sets] for a in sets]

    def block_traces(self):
        """Tr((B^(j)[1..m])^2): the pairs of j-sets that both contain {1..m}."""
        out = {}
        scale = self.table.scale
        for j in range(1, self.n + 1):
            sets, w = self._pair_weights(j)
            for m in range(1, j + 1):
                head = (1 << m) - 1
                inside = [i for i, s in enumerate(sets) if s & head == head]
                total = sum(w[a][b] for a in inside for b in inside)
                out[f"{j},{m}"] = Fraction(total, scale ** (2 * j))
        return out

    def ledger(self, eps):
        """L(j,k,m) = sum over j-sets alpha, beta of
        e_k(eps_alpha) B(alpha; beta) e_m(eps_beta) B(beta; alpha), 0 <= k, m <= j."""
        scale = self.table.scale
        out = {}
        for j in range(1, self.n + 1):
            sets, w = self._pair_weights(j)
            sym = [
                elementary_symmetric([eps[i - 1] for i in mask_indices(s)]) for s in sets
            ]
            for m in range(0, j + 1):
                v = [sum(w[a][b] * sym[b][m] for b in range(len(sets))) for a in range(len(sets))]
                for k in range(0, j + 1):
                    total = sum(sym[a][k] * v[a] for a in range(len(sets)))
                    out[(j, k, m)] = total / scale ** (2 * j)
        return out


def homotopy_square_sums(b_rows, eps, t):
    """(E_1..E_n) of M_t^2 with M_t = (tI + (1-t) diag(eps)) B."""
    n = len(b_rows)
    scaled = [[(t + (1 - t) * eps[i]) * x for x in b_rows[i]] for i in range(n)]
    return MinorTable(scaled).square_order_sums()


def homotopy_violations(b_rows, eps):
    """[(t, j, E_j(M_t^2))] for every nonpositive value at the SAMPLE_TS."""
    out = []
    for t in SAMPLE_TS:
        for j, value in enumerate(homotopy_square_sums(b_rows, eps, t), start=1):
            if value <= 0:
                out.append((t, j, value))
    return out


def check_certificate(truth, doc):
    problems = []
    try:
        problems = _check_certificate(truth, doc)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"malformed certificate: {exc!r}")
    return problems


def _check_certificate(truth, doc):
    n = truth.n
    a = truth.rows
    problems = []
    if doc["verdict"] != "certified":
        return [f"verdict {doc['verdict']!r}"]
    if fractions(doc["input"]["matrix"]) != a or doc["input"]["n"] != n:
        return ["certificate matrix differs from the input"]
    if not truth.is_p:
        problems.append("certified a matrix that is not a P-matrix")
    if not truth.is_q2:
        problems.append("certified a matrix that is not a Q^2-matrix")
    cls = doc["classification"]
    if cls["flags"] != truth.flags():
        problems.append("classification flags differ")
    if cls["order_sums"] != [frac_str(v) for v in truth.order_sums]:
        problems.append("order sums differ")
    if cls["order_sums_square"] != [frac_str(v) for v in truth.order_sums_square]:
        problems.append("order sums of the square differ")

    # chain: nested sets of sizes 1..n, every level Q^2, tau its growth order
    chain = [tuple(s) for s in doc["nest"]["chain"]]
    masks = [indices_mask(s) for s in chain]
    if len(chain) != n or any(
        len(s) != k or m.bit_count() != k for k, (s, m) in enumerate(zip(chain, masks), 1)
    ):
        return problems + ["chain is not a maximal chain"]
    if masks[-1] != truth.full or any(p & ~q for p, q in zip(masks, masks[1:])):
        return problems + ["chain is not nested"]
    for level, m in enumerate(masks, start=1):
        if not truth.is_q2_within(m):
            problems.append(f"chain level {level} {mask_indices(m)} is not Q^2")
    tau = [mask_indices(masks[0])[0]] + [
        mask_indices(q & ~p)[0] for p, q in zip(masks, masks[1:])
    ]
    if list(doc["nest"]["tau"]) != tau:
        problems.append("tau does not list the chain's growth order")

    # transform: theta(tau_m) = n - m + 1 and B * (P A P^T) = I
    theta = [0] * n
    for pos, i in enumerate(tau, start=1):
        theta[i - 1] = n - pos + 1
    if list(doc["transform"]["theta"]) != theta:
        problems.append("theta is not the chain permutation")
    conj = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            conj[theta[i] - 1][theta[j] - 1] = a[i][j]
    b = fractions(doc["transform"]["b_matrix"])
    if matmul(b, conj) != identity(n):
        return problems + ["B * P A P^T is not the identity"]
    bl = BLedger(b)

    bt = {k: frac_str(v) for k, v in bl.block_traces().items()}
    if doc["block_traces"] != bt:
        problems.append("block traces differ")
    problems.extend(f"block trace ({k}) is not positive" for k, v in bt.items() if Fraction(v) <= 0)

    eps = [Fraction(e) for e in doc["stabilizer"]["eps"]]
    if len(eps) != n or eps[0] != 1 or any(not 0 < y < x for x, y in zip(eps, eps[1:])):
        return problems + ["stabilizer is not strictly decreasing from 1"]
    ledger = bl.ledger(eps)
    entries = {f"{j},{k},{m}": frac_str(v) for (j, k, m), v in ledger.items() if k and m}
    cross = {f"{j},{k},{m}": frac_str(v) for (j, k, m), v in ledger.items() if k == 0 and m}
    if doc["trace_ledger"] != entries:
        problems.append("trace ledger differs")
    if doc["cross_terms"] != cross:
        problems.append("cross terms differ")
    for key, v in sorted(ledger.items()):
        if v <= 0:
            problems.append(f"ledger value L{key} = {v} is not positive")

    endpoint = [[eps[i] * x for x in b[i]] for i in range(n)]
    hurwitz = hurwitz_minors_from_sums(MinorTable(endpoint).order_sums())
    if doc["endpoint_hurwitz_minors"] != [frac_str(v) for v in hurwitz]:
        problems.append("endpoint Hurwitz minors differ")
    if any(v <= 0 for v in hurwitz):
        problems.append("diag(eps) * B is not positively stable")
    if any(v <= 0 for v in hurwitz_minors_from_sums(truth.order_sums)):
        problems.append("A is not positively stable")
    for t, j, value in homotopy_violations(b, eps):
        problems.append(f"E_{j}(M_t^2) = {value} at t = {t}")
    return problems


def cert_bits(doc):
    """Largest numerator or denominator bit length in the exact sections."""
    best = 0

    def walk(node):
        nonlocal best
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, str) and "/" in node:
            best = max(best, max_bits(Fraction(node)))

    for section in EXACT_SECTIONS:
        walk(doc[section])
    return best


def tamper(doc, pick):
    """A copy of ``doc`` with one exact value of the trace ledger, cross
    terms or endpoint Hurwitz minors increased by 1; ``pick`` chooses it."""
    out = copy.deepcopy(doc)
    slots = [("trace_ledger", k) for k in sorted(out["trace_ledger"])]
    slots += [("cross_terms", k) for k in sorted(out["cross_terms"])]
    slots += [("endpoint_hurwitz_minors", i) for i in range(len(out["endpoint_hurwitz_minors"]))]
    section, key = slots[pick % len(slots)]
    out[section][key] = frac_str(Fraction(out[section][key]) + 1)
    return out, f"{section}[{key}]"
