"""Command-line front end: argument parsing, one subcommand per pipeline
stage and the built-in demo.  The matrix-file format and the certificate's
writer and reader are :mod:`pstab.certificate`'s.

Exit codes are uniform across subcommands: 0 success/certified, 1 refuted
(with a witness), 2 inconclusive, 3 input error; a usage error (bad or
missing argument, unknown command) is an input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .certificate import (
    MatrixParseError,
    __version__,
    certificate_document,
    classification_doc,
    load_matrix,
    matrix_doc,
    verify_document,
)
from .classify import CLASSES, classify_full
from .compound import compound, generalized_compound
from .errors import HypothesisError, MatrixArgumentError, StabilizerInconclusiveError
from .exactmat import ExactMatrix, rational_str as entry_str
from .stabilize import DEFAULT_MAX_SHRINK, certify_stability

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


# -- subcommands ------------------------------------------------------------

def cmd_classify(args) -> int:
    a = load_matrix(args.matrix)
    report = classify_full(a)
    witnesses = report.witnesses
    required = args.require or [key for key, _ in CLASSES]
    if args.json:
        doc = {
            "n": report.n,
            **classification_doc(report),
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
        print(json.dumps({"n": m.n, "matrix": matrix_doc(m)}, indent=2))
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
    with open(args.certificate, "r", encoding="utf-8-sig") as handle:
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
