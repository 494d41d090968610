"""Command-line front end: matrix file I/O, one subcommand per pipeline
stage, certificate serialization and the built-in demo.

Matrix files are plain text: a dimension line, then n rows of n entries
(integers, fractions like "-7/5", or finite decimals, all parsed exactly).
An entry, the dimension, and the numerator and the denominator of a
certificate's claimed stabilizer.eps may have at most MAX_LITERAL_DIGITS
digits; an entry's decimal exponent is at most MAX_LITERAL_EXPONENT in
magnitude.
A certificate is one line of compact JSON, which ``python -m json.tool
cert.json`` pretty-prints, with every exact value stored as a fraction
string; the only floats are the advisory eigenvalues and wedge margin.
`verify` parses any JSON layout, so the indented certificates of earlier
versions verify unchanged.
:func:`certificate_document` is the format's one definition: `verify`
rebuilds a certificate from its chain and diagonal with `certify`'s one
derivation, :func:`pstab.stabilize.exact_certificate`, writes it again and
diffs the two documents.  Keys the writer does not emit, such as an older
certificate's ``input.sha256``, are not read.

Exit codes are uniform across subcommands: 0 success/certified, 1 refuted
(with a witness), 2 inconclusive, 3 input error; a usage error (bad or
missing argument, unknown command) is an input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .classify import CLASSES, classify_full
from .compound import compound, generalized_compound
from .errors import HypothesisError, MatrixArgumentError, StabilizerInconclusiveError
from .exactmat import ExactMatrix, rational_str as entry_str
from .nests import verify_nest
from .stabilize import (
    DEFAULT_MAX_SHRINK,
    Stabilizer,
    block_traces,
    certify_stability,
    exact_certificate,
    nonpositive_values,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

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
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read())


# -- certificate documents --------------------------------------------------


def frac_str(x) -> str:
    """:func:`pstab.exactmat.rational_str` with the denominator always
    explicit ("5491/1"): the "p/q" form of every exact certificate value."""
    text = entry_str(x)
    return text if "/" in text else f"{text}/1"


def _matrix_doc(m: ExactMatrix):
    return [[frac_str(x) for x in row] for row in m.rows]


def _classification_doc(report):
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
    the spectrum section is the only floating-point content.  The nest's
    chain, ``tau`` and the transform's ``theta`` are read off the nest's
    levels, so the chain written is the one its evidence is for.  When the
    spectra were not computed it is {"computed": false, "reason": ...};
    when they contradict the exact claim it names the contradiction under
    "disagreement".
    """
    report = cert.report
    return {
        "tool": {"name": "pstab", "version": __version__},
        "verdict": "certified",
        "input": {"n": cert.matrix.n, "matrix": _matrix_doc(cert.matrix)},
        "classification": _classification_doc(report),
        "nest": {
            "chain": [list(s) for s in cert.nest.chain],
            "tau": list(cert.nest.tau),
        },
        "transform": {
            "theta": list(cert.nest.theta),
            "b_matrix": _matrix_doc(cert.b_matrix),
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
            "identity_steps": cert.stabilizer.identity_steps,
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
        "stabilized_eigenvalues": [
            _complex_doc(v) for v in cert.stabilized_spectrum.eigenvalues
        ],
        "wedge_margin": cert.wedge_margin,
        "method": cert.spectrum.method,
    }
    if cert.disagreement is not None:
        doc["disagreement"] = cert.disagreement
    return doc


class _Discrepancy(Exception):
    """A malformed claim, or one that does not hold of the matrix."""


def _typed(kind):
    """Converter accepting exactly the JSON values of Python type ``kind``."""

    def convert(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}")
        return value

    return convert


def _count(value):
    """A JSON int >= 0."""
    if _typed(int)(value) < 0:
        raise ValueError("expected an int >= 0")
    return value


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

    First ``input.matrix`` must be ``a`` as the writer states it, so a
    certificate of another matrix stops the check.  The three claims are
    ``nest.chain``, ``stabilizer.eps`` and ``stabilizer.identity_steps``.
    :func:`pstab.stabilize.exact_certificate`, the derivation of every
    certificate ``certify`` writes, rebuilds the certificate from them and
    :func:`certificate_document` writes it again, so the format has one
    definition: each exact field, ``nest.tau`` and the block traces among
    them, must equal the rewritten one, text for text.  The trace ledger
    and its cross terms (the homotopy stays Q^2) and the endpoint Hurwitz
    minors (diag(eps) * B is positively stable) must be positive, decided
    on the re-derived values by :func:`pstab.stabilize.nonpositive_values`;
    the re-verified Q^2 levels make the block traces positive.  The matrix
    must be a P-matrix, and the nest's full level makes it Q^2; B inherits
    both (see :func:`pstab.stabilize.build_B`).  The float sections are
    advisory.
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
    """A value keyed as by :func:`pstab.stabilize.nonpositive_values`,
    named by its section's label and its index there."""
    section = "trace_ledger" if key[1] else "cross_terms"
    if key[0] == "hurwitz":
        section, key = "endpoint_hurwitz_minors", key[1:]
    return f"{_INDEXED[section]} ({','.join(map(str, key))})"


def _rederive(doc, a):
    """The StabilityCertificate, without spectra, that the document's
    claims make of ``a``; raises _Discrepancy saying why a claim does not
    hold."""
    matrix = _field(doc, "input", "matrix", _tuple_of(_tuple_of(_typed(str))))
    if matrix != tuple(map(tuple, _matrix_doc(a))):
        raise _Discrepancy("input.matrix is not the matrix given")
    report = classify_full(a)
    if not report.is_p:
        witness = report.witnesses["P"].describe()
        raise _Discrepancy(f"matrix is not a P-matrix: {witness}")
    chain = _field(doc, "nest", "chain", _tuple_of(_tuple_of(_typed(int))))
    try:
        nest = verify_nest(a, chain)
    except MatrixArgumentError as exc:
        raise _Discrepancy(f"nest fails re-verification: {exc}") from exc
    eps = _field(doc, "stabilizer", "eps", _tuple_of(_fraction))
    steps = _field(doc, "stabilizer", "identity_steps", _count)
    if len(eps) != a.n:
        raise _Discrepancy(f"stabilizer diagonal has {len(eps)} entries, not {a.n}")
    try:
        stabilizer = Stabilizer(eps=eps, identity_steps=steps)
    except MatrixArgumentError as exc:
        raise _Discrepancy(f"stabilizer fails re-verification: {exc}") from exc
    return exact_certificate(a, report, nest, stabilizer)


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


# -- subcommands ------------------------------------------------------------

def cmd_classify(args) -> int:
    a = load_matrix(args.matrix)
    report = classify_full(a)
    witnesses = report.witnesses
    required = args.require or [key for key, _ in CLASSES]
    if args.json:
        doc = {
            "n": report.n,
            **_classification_doc(report),
            "witnesses": {
                key: w.describe() for key, w in sorted(witnesses.items())
            },
        }
        print(json.dumps(doc, indent=2))
    else:
        for key, label in CLASSES:
            if key in witnesses:
                print(f"{label}: no  ({witnesses[key].describe()})")
            else:
                print(f"{label}: yes")
    return EXIT_REFUTED if witnesses.keys() & required else EXIT_OK


def _print_exact_matrix(m: ExactMatrix, as_json):
    if as_json:
        print(json.dumps({"n": m.n, "matrix": _matrix_doc(m)}, indent=2))
    else:
        widths = [
            max(len(entry_str(m.rows[i][j])) for i in range(m.n))
            for j in range(m.n)
        ]
        for row in m.rows:
            print(" ".join(entry_str(x).rjust(w) for x, w in zip(row, widths)))


def cmd_compound(args) -> int:
    a = load_matrix(args.matrix)
    if args.wedge is None:
        result = compound(a, args.order)
    else:
        result = generalized_compound(a, args.order, args.wedge)
    _print_exact_matrix(result, args.json)
    return EXIT_OK


def cmd_certify(args) -> int:
    a = load_matrix(args.matrix)
    try:
        cert = certify_stability(a, max_shrink=args.max_shrink)
    except HypothesisError as exc:
        print(f"refuted ({exc.kind}): {exc}")
        return EXIT_REFUTED
    except StabilizerInconclusiveError as exc:
        print(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE

    doc = certificate_document(cert)
    if args.json:
        payload = json.dumps(doc, separators=(",", ":"))
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    print(f"certified: positively stable (n = {a.n})")
    print(f"nest chain: {' < '.join(str(set(s)) for s in cert.nest.chain)}")
    print(f"stabilizer eps: {', '.join(entry_str(e) for e in cert.stabilizer.eps)}")
    if cert.disagreement is not None:
        print(
            f"advisory: {cert.disagreement}; the verdict rests on the exact "
            "fields alone",
            file=sys.stderr,
        )
    if cert.spectrum is None:
        print(f"eigenvalues: not computed ({cert.spectrum_reason})")
        return EXIT_OK
    print(
        "eigenvalues: "
        + ", ".join(f"{v.real:.5g}{v.imag:+.5g}i" for v in cert.spectrum.eigenvalues)
    )
    print(f"sharpened wedge slack: {cert.wedge_margin:.4g} rad")
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:
            print("input error: certificate is nested too deeply", file=sys.stderr)
            return EXIT_INPUT
        except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if not isinstance(doc, dict):
        print("input error: certificate is not a JSON object", file=sys.stderr)
        return EXIT_INPUT
    a = load_matrix(args.matrix)
    problems = verify_document(doc, a)
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return EXIT_REFUTED
    print("certificate re-verifies")
    return EXIT_OK


def cmd_demo(args) -> int:
    """Walk the bundled 4x4 demo end-to-end, PASS/FAIL line per quantity."""
    from . import fixtures as fx
    from .exactmat import det, trace
    from .nests import find_q2_nest
    from .spectra import eigenvalues, multiset_match

    a = fx.DEMO_A
    failures = 0

    def check(label, got, want):
        nonlocal failures
        ok = got == want
        if not ok:
            failures += 1
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {got} vs {want}")

    check("det A", det(a), fx.DEMO_DET)
    check("A^(2)", compound(a, 2), fx.DEMO_COMPOUND_2)
    check("A^(3)", compound(a, 3), fx.DEMO_COMPOUND_3)
    sq = a.square()
    check("A^2", sq, fx.DEMO_SQUARE)
    report = classify_full(a)
    for k, want in enumerate(fx.DEMO_SQUARE_ORDER_SUMS, start=1):
        check(f"order-{k} minor sum of A^2", report.order_sums_square[k - 1], want)
    scaled = a.scale_rows(fx.DEMO_D)
    check("Tr((D A)^2) with D = diag(1,1,1/10,1/10)", trace(scaled.square()),
          fx.DEMO_SCALED_SQUARE_TRACE)
    nest = find_q2_nest(a)
    check("Q^2 chain", nest.chain if nest else None, fx.DEMO_CHAIN)
    # A1 and A12 are the chain levels of size n-1 and n-2
    *_, a12, a1, _ = (level.order_sums_square for level in nest.levels)
    check("det(A1^2)", a1[-1], fx.DEMO_SUB_234_SQUARE_DET)
    check("Tr(A1^2)", a1[0], fx.DEMO_SUB_234_SQUARE_TRACE)
    check("order-2 minor sum of A1^2", a1[1], fx.DEMO_SUB_234_SQUARE_ORDER2_SUM)
    check("det(A12^2)", a12[-1], fx.DEMO_SUB_34_SQUARE_DET)
    check("Tr(A12^2)", a12[0], fx.DEMO_SUB_34_SQUARE_TRACE)

    spectrum = eigenvalues(a)
    ok = multiset_match(
        spectrum.eigenvalues, fx.DEMO_EIGENVALUES, abs_tol=1e-3, rel_tol=0.0
    )
    if not ok:
        failures += 1
    print(f"[{'PASS' if ok else 'FAIL'}] eigenvalues within 1e-3 of reference")

    return EXIT_OK if failures == 0 else EXIT_REFUTED


# -- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INPUT; argparse's own status 2 would read as
    "inconclusive"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _halvings(text):
    """The type of --max-shrink: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def build_parser():
    parser = _Parser(
        prog="pstab",
        description="Exact matrix-class tests and positive-stability certificates.",
    )
    parser.add_argument("--version", action="version", version=f"pstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="exact class membership report")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--require",
        action="append",
        choices=[key for key, _ in CLASSES],
        help="class that must hold for exit 0 (repeatable; default: all)",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compound", help="print a compound or generalized compound")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--order", type=int, required=True, help="compound order j")
    p.add_argument("--wedge", type=int, help="number m of matrix factors (wedge with identities)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_compound)

    p = sub.add_parser("certify", help="run the stability certification pipeline")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--json", metavar="PATH", help="write the certificate document ('-' for stdout)")
    p.add_argument(
        "--max-shrink",
        type=_halvings,
        default=DEFAULT_MAX_SHRINK,
        help="halvings of I - D before giving up (exit 2)",
    )
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="re-check a certificate against its matrix")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("matrix", help="matrix file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="walk the bundled 4x4 example end-to-end")
    p.set_defaults(func=cmd_demo)

    return parser


@functools.cache
def _parser():
    """The parser of :func:`main`, built on its first call and reused:
    parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatrixParseError, MatrixArgumentError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
