"""The command-line front end: parsing, subcommands, exit codes."""

import ast
import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    LEVEL_SEARCH_FAULT,
    OVERSIZED_LITERALS,
    dense_m_matrix,
    matrix_hash,
    matrix_text,
    random_spd_matrix,
    row_constant_m_matrix,
    row_dominant_matrix,
)
from pstab import ExactMatrix, certify_stability
from pstab.certificate import (
    MAX_LITERAL_DIGITS,
    MAX_LITERAL_EXPONENT,
    MatrixParseError,
    _literal_size_problem,
    _value_name,
    certificate_document,
    frac_str,
    matrix_doc,
    parse_matrix,
)
from pstab.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUTED,
    entry_str,
    main,
)
from pstab.errors import NumericToleranceError
from pstab.fixtures import DEMO_A, DEMO_COMPOUND_2, DEMO_EIGENVALUES
from pstab.spectra import Spectrum, multiset_match


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demoA.txt"
    path.write_text(matrix_text(DEMO_A))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity4.txt"
    path.write_text(matrix_text(ExactMatrix.identity(4)))
    return str(path)


def test_parse_matrix_exact_entries():
    m = parse_matrix("2\n1 -7/5\n0.1 3\n")
    assert m.entry(1, 2) == Fraction(-7, 5)
    assert m.entry(2, 1) == Fraction(1, 10)  # decimal parsed exactly


def test_parse_matrix_ignores_blank_lines_and_comments():
    m = parse_matrix("# demo\n\n2\n1 2  # row one\n\n3 4\n")
    assert m == ExactMatrix([[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("two\n1 2\n3 4\n", 1),
        ("2\n1 2\n", 2),  # missing a row
        ("2\n1 2 3\n4 5\n", 2),  # wrong entry count
        ("2\n1 x\n3 4\n", 2),  # bad token
        ("2\n1 1/0\n3 4\n", 2),  # zero denominator
        pytest.param("9" * 5000 + "\n", 1, id="dimension-past-the-digit-cap"),
    ],
)
def test_parse_matrix_errors_carry_position(text, line):
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(text)
    assert exc.value.line == line


def test_format_parse_round_trip():
    m = ExactMatrix([[1, Fraction(-7, 5)], [Fraction(1, 10), 3]])
    text = matrix_text(m)
    assert parse_matrix(text) == m
    assert matrix_text(parse_matrix(text)) == text
    assert entry_str(Fraction(4, 2)) == "2"
    assert entry_str(Fraction(-1, 3)) == "-1/3"


DIGITS = st.integers(0, 10**40).map(str) | st.integers(10**899, 10**995).map(str)


@st.composite
def literals(draw):
    """Decimal and fraction literals, some at the digit and exponent caps."""
    sign = draw(st.sampled_from(["", "-"]))
    if draw(st.booleans()):
        return f"{sign}{draw(DIGITS)}/{draw(st.integers(1, 10**60))}"
    token = sign + draw(DIGITS)
    if draw(st.booleans()):
        token += "." + draw(DIGITS)
    if draw(st.booleans()):
        exponent = draw(
            st.integers(-MAX_LITERAL_EXPONENT, MAX_LITERAL_EXPONENT)
            | st.sampled_from([MAX_LITERAL_EXPONENT, -MAX_LITERAL_EXPONENT])
        )
        token += f"e{exponent}"
    return token


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(literals())
def test_parse_reads_every_literal_exactly_or_names_a_cap(token):
    # an entry within both caps is exactly its literal; one past a cap is
    # an input error naming its line and entry
    text = f"1\n{token}\n"
    exponent = int(token.partition("e")[2] or 0)
    if (
        sum(ch.isdigit() for ch in token) > MAX_LITERAL_DIGITS
        or abs(exponent) > MAX_LITERAL_EXPONENT
    ):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix(text)
        assert (exc.value.line, exc.value.column) == (2, 1)
    else:
        assert parse_matrix(text).entry(1, 1) == Fraction(token)


def _fraction_path(token):
    """What the Fraction path reads from ``token``, an entry of line 2: the
    value, or the message of the MatrixParseError it raises."""
    problem = _literal_size_problem(token)
    if problem:
        return f"line 2, entry 1: {problem}"
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        return f"line 2, entry 1: bad entry {token!r}: {exc}"


NUMERALS = "0123456789" + "١٢٩" + "１９" + "²"
UNSIGNED = st.text(alphabet=NUMERALS + "_", min_size=1, max_size=8)
SIGNS = st.sampled_from(["", "+", "-"])
TOKENS = st.one_of(
    st.tuples(SIGNS, UNSIGNED).map("".join),
    st.tuples(SIGNS, UNSIGNED, st.sampled_from([".", "/", "e", "E-"]), UNSIGNED)
    .map("".join),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["9" * 1000, "-" + "9" * 1000, "+" + "9" * 999, "1" * 1001]),
    st.text(alphabet=NUMERALS + "_+-./eEx", min_size=1, max_size=12),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(TOKENS)
def test_integer_entries_parse_as_their_fraction(token):
    # an integer within the caps skips the Fraction regex; every token,
    # integer or not, reads as the Fraction path reads it, value or error
    try:
        got = parse_matrix(f"1\n{token}\n").entry(1, 1)
    except MatrixParseError as exc:
        got = str(exc)
    assert got == _fraction_path(token)


def test_classify_identity_all_yes(identity_file, capsys):
    assert main(["classify", identity_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "P: yes" in out and "no" not in out


def test_classify_demo_report(demo_file, capsys):
    # the demo matrix misses sign-symmetry, so requiring everything fails
    assert main(["classify", demo_file]) == EXIT_REFUTED
    out = capsys.readouterr().out
    assert "P: yes" in out
    assert "Q^2: yes" in out
    assert "sign-symmetric: no" in out
    assert main(["classify", demo_file, "--require", "P", "--require", "Q2"]) == EXIT_OK


def test_main_reuses_its_parser_without_leaking_values(demo_file, capsys):
    # the demo is P but not P^2; an --require list kept from one call
    # would refute the next
    from pstab.cli import _parser

    assert main(["classify", demo_file, "--require", "P"]) == EXIT_OK
    assert main(["classify", demo_file, "--require", "P2"]) == EXIT_REFUTED
    assert main(["classify", demo_file, "--require", "P"]) == EXIT_OK
    assert main(["classify", demo_file, "--require", "Q2"]) == EXIT_OK
    assert _parser() is _parser()


def test_classify_labels_and_require_choices_come_from_classes(
    identity_file, capsys
):
    import argparse

    from pstab.classify import CLASSES
    from pstab.cli import build_parser

    assert main(["classify", identity_file]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{label}: yes" for _, label in CLASSES]
    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    require = next(
        action for action in sub.choices["classify"]._actions
        if action.dest == "require"
    )
    assert require.choices == [key for key, _ in CLASSES]


def test_classify_json(demo_file, capsys):
    main(["classify", demo_file, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["flags"]["P"] is True
    assert doc["flags"]["sign_symmetric"] is False
    assert doc["order_sums"][0] == "28/1"  # trace of the demo matrix


def test_classify_malformed_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4\n1 2 3\n")
    assert main(["classify", str(path)]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_classify_superscript_dimension_exits_3(tmp_path, capsys):
    # "²" is a digit to str.isdigit but no integer to int()
    path = tmp_path / "bad.txt"
    path.write_text("²\n1 0\n0 1\n")
    assert main(["classify", str(path)]) == EXIT_INPUT
    assert "input error: line 1, entry 1" in capsys.readouterr().err


def test_a_byte_order_mark_is_not_part_of_the_matrix(tmp_path, capsys):
    # editors on some systems start a UTF-8 file with U+FEFF, a matrix
    # file or a certificate
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(matrix_text(DEMO_A), encoding="utf-8")
    marked.write_text(matrix_text(DEMO_A), encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()

    def run(*argv):
        code = main([str(arg) for arg in argv])
        return code, capsys.readouterr()

    outputs = {}
    for path in (plain, marked):
        cert = tmp_path / f"{path.stem}.json"
        marked_cert = tmp_path / f"{path.stem}.marked.json"
        outputs[path] = (
            run("classify", path, "--json"),
            run("certify", path, "--json", cert),
            cert.read_bytes(),
            run("verify", cert, plain),
            run("verify", cert, marked),
        )
        marked_cert.write_bytes(b"\xef\xbb\xbf" + cert.read_bytes())
        assert run("verify", marked_cert, plain) == outputs[path][3]
    assert outputs[marked] == outputs[plain]
    (classified, _), (certified, _), _, (verified, _), _ = outputs[plain]
    # the demo is not sign-symmetric, so classify refutes a class
    assert (classified, certified, verified) == (EXIT_REFUTED, EXIT_OK, EXIT_OK)


@pytest.mark.parametrize("command", ["classify", "certify", "compound", "verify"])
def test_dimension_past_the_digit_cap_exits_3(command, tmp_path, capsys):
    # int() refuses more than 4300 digits; the entries' digit cap comes first
    path = tmp_path / "big.txt"
    path.write_text("9" * 5000 + "\n")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text("{}")
    argv = {
        "compound": ["compound", str(path), "--order", "1"],
        "verify": ["verify", str(cert_path), str(path)],
    }.get(command, [command, str(path)])
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: line 1, entry 1: entry has 5000 digits; "
        f"at most {MAX_LITERAL_DIGITS} are allowed\n"
    )


@pytest.mark.parametrize("token", OVERSIZED_LITERALS)
def test_oversized_literal_exits_3_at_once(tmp_path, capsys, token):
    path = tmp_path / "big.txt"
    path.write_text(f"2\n1 0\n0 {token}\n")
    start = time.perf_counter()
    assert main(["classify", str(path)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert "line 3, entry 2" in capsys.readouterr().err
    with pytest.raises(MatrixParseError):
        parse_matrix(f"1\n{token}\n")


def test_literals_at_the_caps_parse():
    assert parse_matrix("1\n1e10000\n").entry(1, 1) == 10**10000
    assert parse_matrix(f"1\n{'9' * 1000}\n").entry(1, 1) == 10**1000 - 1


def test_classify_json_prints_values_beyond_the_int_str_limit(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1\n1e5000\n")
    assert main(["classify", "--json", str(path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["order_sums"] == ["1" + "0" * 5000 + "/1"]
    assert doc["order_sums_square"] == ["1" + "0" * 10000 + "/1"]
    path.write_text("1\n-1e5000\n")
    assert main(["classify", "--json", str(path)]) == EXIT_REFUTED
    doc = json.loads(capsys.readouterr().out)
    assert doc["witnesses"]["P"] == "A(1; 1) = -1" + "0" * 5000


@pytest.mark.parametrize("n", [8, 10, 12])
def test_symmetric_input_past_the_sign_symmetry_cap_certifies(n, tmp_path, capsys):
    # a symmetric matrix is sign-symmetric without the capped minor table
    path = tmp_path / "spd.txt"
    path.write_text(matrix_text(random_spd_matrix(random.Random(n), n)))
    assert main(["classify", "--json", str(path)]) in (EXIT_OK, EXIT_REFUTED)
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert list(flags) == [
        "P", "Q", "P2", "Q2", "sign_symmetric", "row_sqdd", "col_sqdd"
    ]
    assert all(type(v) is bool for v in flags.values())
    assert flags["P"] and flags["P2"] and flags["sign_symmetric"]
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    assert main(["verify", cert_path, str(path)]) == EXIT_OK


@pytest.mark.parametrize("n", [8, 10])
def test_non_symmetric_input_past_the_cap_with_an_order_1_witness_certifies(
    n, tmp_path, capsys
):
    # a_12 a_21 < 0 refutes sign-symmetry at order 1, before the cap applies
    path = tmp_path / "dominant.txt"
    path.write_text(matrix_text(row_dominant_matrix(n)))
    assert main(["classify", "--json", str(path)]) == EXIT_REFUTED
    doc = json.loads(capsys.readouterr().out)
    assert all(type(v) is bool for v in doc["flags"].values())
    assert doc["flags"]["P"] and doc["flags"]["Q2"]
    assert doc["witnesses"] == {"sign_symmetric": "A(1; 2) = -2"}
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    assert main(["verify", cert_path, str(path)]) == EXIT_OK


@pytest.mark.parametrize("n", [8, 11])
def test_non_symmetric_m_matrix_past_n_7_certifies(n, tmp_path, capsys):
    # every a_ij a_ji > 0, so order 1 holds no witness; order 2, within the
    # sign-symmetry minor budget up to n = 11, holds one
    m = dense_m_matrix(random.Random(n), n)
    assert m != m.transpose()
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(m))
    assert main(["classify", "--json", str(path)]) == EXIT_REFUTED
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["flags"]) == [
        "P", "Q", "P2", "Q2", "sign_symmetric", "row_sqdd", "col_sqdd"
    ]
    assert all(type(v) is bool for v in doc["flags"].values())
    assert doc["flags"]["P"] and doc["flags"]["Q2"]
    assert doc["witnesses"]["sign_symmetric"].count(",") == 2  # order 2
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    assert main(["verify", cert_path, str(path)]) == EXIT_OK


def upper_bidiagonal(n, last):
    """8 on the diagonal, its last entry ``last``, and 3 just above it:
    not symmetric, no positive diagonal makes it so (a_12 = 3, a_21 = 0),
    and no pair of opposite signs in orders 1 and 2."""
    return ExactMatrix([
        [(last if i == n - 1 else 8) if i == j else (3 if j == i + 1 else 0)
         for j in range(n)]
        for i in range(n)
    ])


# one negative diagonal entry: not P
BIDIAGONAL_8 = upper_bidiagonal(8, -1)
# reducible and positive: P and Q^2, with a nest
POSITIVE_BIDIAGONAL_8 = upper_bidiagonal(8, 8)
BUDGET_ERROR = (
    "input error: sign-symmetry check through order j=3 at n=8 forms 3984 "
    "minors; at most 3431 are allowed\n"
)


@pytest.mark.parametrize("command", ["classify", "certify"])
def test_non_symmetric_input_past_the_sign_symmetry_cap_exits_3(
    command, tmp_path, capsys
):
    # the sign-symmetry read stops at its minor budget before order 3.
    # classify reads it for every input; certify only for one that passes
    # every hypothesis, as the positive bidiagonal does (P, Q^2 and a nest)
    path = tmp_path / "n8.txt"
    path.write_text(matrix_text(POSITIVE_BIDIAGONAL_8))
    assert main([command, str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == BUDGET_ERROR


@pytest.mark.parametrize("n", [8, 12])
def test_a_matrix_a_positive_diagonal_makes_symmetric_certifies_past_the_cap(
    n, tmp_path, capsys
):
    # a_ij / a_ji = (i+1) / (j+1), so A diag(1, ..., n) is symmetric and A
    # sign-symmetric: no minor is read, though orders 1 and 2 hold no pair
    # of opposite signs and order 3 is past the budget
    m = row_constant_m_matrix(n)
    assert m != m.transpose()
    path = tmp_path / "rowconst.txt"
    path.write_text(matrix_text(m))
    assert main(["classify", "--json", str(path)]) in (EXIT_OK, EXIT_REFUTED)
    doc = json.loads(capsys.readouterr().out)
    assert doc["flags"]["sign_symmetric"] and doc["flags"]["P2"]
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    assert main(["verify", cert_path, str(path)]) == EXIT_OK


def test_the_hypotheses_refute_the_bidiagonal_before_the_sign_symmetry_budget(
    tmp_path, capsys
):
    # certify and verify check P before any class the theorem does not
    # need, so the order-1 witness refutes the bidiagonal that classify
    # stops on at the budget
    path = tmp_path / "n8.txt"
    path.write_text(matrix_text(BIDIAGONAL_8))
    assert main(["certify", str(path)]) == EXIT_REFUTED
    out, err = capsys.readouterr()
    assert (out, err) == (
        "refuted (not-P): input is not a P-matrix: A(8; 8) = -1\n", ""
    )
    cert_path = tmp_path / "cert.json"
    _rewrite(cert_path, {"input": {"n": 8, "matrix": matrix_doc(BIDIAGONAL_8)}})
    assert main(["verify", str(cert_path), str(path)]) == EXIT_REFUTED
    assert capsys.readouterr().out == (
        "FAIL: matrix is not a P-matrix: A(8; 8) = -1\n"
    )


def test_certify_scaled_demo_beyond_the_double_determinant(tmp_path, capsys):
    # every entry times 10^150: det A is about 10^603, past the double range
    path = tmp_path / "scaled.txt"
    path.write_text(matrix_text(DEMO_A * 10**150))
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    assert main(["verify", cert_path, str(path)]) == EXIT_OK
    path.write_text("2\n1 0\n0 1e400\n")  # no double holds the entry
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    assert "eigenvalues: not computed" in capsys.readouterr().out
    with open(cert_path) as handle:
        assert json.load(handle)["spectrum"]["computed"] is False
    assert main(["verify", cert_path, str(path)]) == EXIT_OK


@pytest.mark.parametrize(
    "text", ["2\n1 0\n0 1e-5000\n", "1\n1e5000\n"], ids=["tiny", "huge"]
)
def test_certify_leaves_out_a_spectrum_beyond_the_double_range(
    tmp_path, capsys, text
):
    # the exact fields are complete; only the advisory spectrum needs
    # doubles (for "tiny", 10^-5000 is nonzero and its double is 0.0)
    path = tmp_path / "m.txt"
    path.write_text(text)
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    with open(cert_path) as handle:
        doc = json.load(handle)
    assert doc["spectrum"] == {
        "computed": False,
        "reason": "an entry of A is beyond the double range",
    }
    assert main(["verify", cert_path, str(path)]) == EXIT_OK
    assert "re-verifies" in capsys.readouterr().out


def test_certify_takes_the_spectrum_of_a_whose_entries_fit_in_doubles(
    tmp_path, capsys
):
    # 10^-310 is a subnormal double, so A has a spectrum, though
    # B = A^-1 holds 10^310, which no double holds
    path = tmp_path / "m.txt"
    path.write_text("2\n1 0\n0 1e-310\n")
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    assert "eigenvalues: 1+0i, 1e-310+0i" in capsys.readouterr().out
    with open(cert_path) as handle:
        spectrum = json.load(handle)["spectrum"]
    assert spectrum["input_eigenvalues"] == [
        {"re": 1.0, "im": 0.0}, {"re": 1e-310, "im": 0.0}
    ]
    assert "stabilized_eigenvalues" not in spectrum
    assert main(["verify", cert_path, str(path)]) == EXIT_OK


def test_a_certificate_listing_the_endpoint_eigenvalues_still_verifies(
    demo_file, tmp_path, capsys
):
    # earlier versions also wrote the advisory eigenvalues of D B, after
    # A's; verify reads the spectrum section for its type alone
    from pstab import spectra

    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", demo_file, "--json", cert_path]) == EXIT_OK
    with open(cert_path) as handle:
        doc = json.load(handle)
    spectrum = doc["spectrum"]
    assert list(spectrum) == ["input_eigenvalues", "wedge_margin", "method"]
    cert = certify_stability(DEMO_A)
    endpoint = spectra.eigenvalues(cert.b_matrix.scale_rows(cert.stabilizer.eps))
    doc["spectrum"] = {
        "input_eigenvalues": spectrum["input_eigenvalues"],
        "stabilized_eigenvalues": [
            {"re": v.real, "im": v.imag} for v in endpoint.eigenvalues
        ],
        **spectrum,
    }
    _rewrite(cert_path, doc)
    capsys.readouterr()
    assert main(["verify", cert_path, demo_file]) == EXIT_OK
    assert "re-verifies" in capsys.readouterr().out


def test_certificate_with_long_exact_values_re_verifies(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("2\n1 1e-5000\n0 1\n")
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    with open(cert_path) as handle:
        assert json.load(handle)["input"]["matrix"][0][1] == "1/1" + "0" * 5000
    assert main(["verify", cert_path, str(path)]) == EXIT_OK


def test_missing_file_exits_3(capsys):
    assert main(["classify", "/nonexistent/matrix.txt"]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_compound_command_golden(demo_file, capsys):
    assert main(["compound", demo_file, "--order", "2", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    got = ExactMatrix([[Fraction(x) for x in row] for row in doc["matrix"]])
    assert got == DEMO_COMPOUND_2


def test_compound_command_wedge(demo_file, capsys):
    assert main(["compound", demo_file, "--order", "2", "--wedge", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 6


def test_compound_command_bad_order(demo_file, capsys):
    assert main(["compound", demo_file, "--order", "7"]) == EXIT_INPUT


def test_compound_command_past_the_minor_cap_exits_3(tmp_path, capsys):
    path = tmp_path / "identity20.txt"
    path.write_text(matrix_text(ExactMatrix.identity(20)))
    start = time.perf_counter()
    assert main(["compound", str(path), "--order", "20", "--json"]) == EXIT_INPUT
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "input error: compound order j=20 at n=20 forms 137846528819 minors; "
        "at most 1000000 are allowed\n"
    )


def test_certify_demo_and_verify_round_trip(demo_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", demo_file, "--json", cert_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "certified" in out

    with open(cert_path) as handle:
        doc = json.load(handle)
    assert doc["verdict"] == "certified"
    # the matrix is stated once, with no digest beside it
    assert doc["input"] == {
        "n": 4,
        "matrix": [[frac_str(x) for x in row] for row in DEMO_A.rows],
    }
    assert all(Fraction(v) > 0 for v in doc["trace_ledger"].values())
    spectrum = [complex(v["re"], v["im"]) for v in doc["spectrum"]["input_eigenvalues"]]
    assert multiset_match(spectrum, DEMO_EIGENVALUES, abs_tol=1e-3, rel_tol=0.0)

    assert main(["verify", cert_path, demo_file]) == EXIT_OK
    assert "re-verifies" in capsys.readouterr().out


def test_certify_writes_the_certificate_as_one_line_of_compact_json(
    demo_file, tmp_path, capsys
):
    cert_path = tmp_path / "cert.json"
    assert main(["certify", demo_file, "--json", str(cert_path)]) == EXIT_OK
    text = cert_path.read_text(encoding="utf-8")
    line, end = text.split("\n")
    assert end == ""
    doc = json.loads(line)
    assert doc == certificate_document(certify_stability(DEMO_A))
    assert line == json.dumps(doc, separators=(",", ":"))

    # "--json -" prints the same line first, and a JSON decoder stops at its end
    capsys.readouterr()
    assert main(["certify", demo_file, "--json", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.JSONDecoder().raw_decode(out) == (doc, len(line))
    assert out.startswith(line + "\ncertified: positively stable (n = 4)\n")


# the compact layout certify writes, and the indented one of earlier versions
LAYOUTS = {"compact": {"separators": (",", ":")}, "indented": {"indent": 2}}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_verify_reads_a_certificate_in_either_layout(
    demo_file, demo_certificate, capsys, layout
):
    cert_path, doc = demo_certificate
    with open(cert_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, **LAYOUTS[layout]) + "\n")
    assert main(["verify", cert_path, demo_file]) == EXIT_OK
    assert capsys.readouterr().out == "certificate re-verifies\n"

    key = sorted(doc["trace_ledger"])[0]
    doc["trace_ledger"][key] = frac_str(Fraction(doc["trace_ledger"][key]) + 1)
    with open(cert_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, **LAYOUTS[layout]) + "\n")
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert capsys.readouterr().out == (
        f"FAIL: trace ledger entry ({key}) does not re-verify\n"
    )


def test_certify_and_verify_level_search_fault(tmp_path, capsys):
    matrix_path = tmp_path / "fault.txt"
    matrix_path.write_text(matrix_text(LEVEL_SEARCH_FAULT))
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(matrix_path), "--json", cert_path]) == EXIT_OK
    with open(cert_path) as handle:
        doc = json.load(handle)
    assert doc["stabilizer"]["shrink_log"] == [0] * 5
    assert main(["verify", cert_path, str(matrix_path)]) == EXIT_OK
    assert "re-verifies" in capsys.readouterr().out


def test_verify_detects_tampered_ledger(demo_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    main(["certify", demo_file, "--json", cert_path])
    capsys.readouterr()
    with open(cert_path) as handle:
        doc = json.load(handle)
    key = sorted(doc["trace_ledger"])[0]
    value = Fraction(doc["trace_ledger"][key])
    doc["trace_ledger"][key] = f"{-value.numerator}/{value.denominator}"
    with open(cert_path, "w") as handle:
        json.dump(doc, handle)

    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    out = capsys.readouterr().out
    assert key in out  # the offending (j,k,m) entry is named


@pytest.fixture
def demo_certificate(demo_file, tmp_path, capsys):
    """Path and parsed document of a fresh certificate for the demo."""
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", demo_file, "--json", cert_path]) == EXIT_OK
    capsys.readouterr()
    with open(cert_path) as handle:
        return cert_path, json.load(handle)


def _rewrite(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle)


def test_certify_demo_exact_sections_positive(demo_file, demo_certificate, capsys):
    cert_path, doc = demo_certificate
    assert set(doc["cross_terms"]) == {
        f"{j},0,{m}" for j in range(1, 5) for m in range(1, j + 1)
    }
    assert len(doc["endpoint_hurwitz_minors"]) == 4
    for section in ("trace_ledger", "cross_terms"):
        assert all(Fraction(v) > 0 for v in doc[section].values())
    assert all(Fraction(v) > 0 for v in doc["endpoint_hurwitz_minors"])
    assert main(["verify", cert_path, demo_file]) == EXIT_OK


def test_verify_detects_tampered_cross_term(demo_file, demo_certificate, capsys):
    cert_path, doc = demo_certificate
    key = "1,0,1"
    value = Fraction(doc["cross_terms"][key])
    doc["cross_terms"][key] = f"{-value.numerator}/{value.denominator}"
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    out = capsys.readouterr().out
    assert f"cross term ({key})" in out


def test_verify_detects_tampered_hurwitz_minor(demo_file, demo_certificate, capsys):
    cert_path, doc = demo_certificate
    doc["endpoint_hurwitz_minors"][2] = "0/1"
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert "endpoint Hurwitz minor (3)" in capsys.readouterr().out


def test_verify_reports_missing_exact_sections(demo_file, demo_certificate, capsys):
    cert_path, doc = demo_certificate
    del doc["cross_terms"]
    del doc["endpoint_hurwitz_minors"]
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    out = capsys.readouterr().out
    assert "no valid cross_terms section" in out
    assert "no valid endpoint_hurwitz_minors section" in out


CERTIFICATE_SECTIONS = [
    "tool",
    "verdict",
    "input",
    "classification",
    "nest",
    "transform",
    "block_traces",
    "stabilizer",
    "trace_ledger",
    "cross_terms",
    "endpoint_hurwitz_minors",
    "spectrum",
]


@pytest.mark.parametrize("section", CERTIFICATE_SECTIONS)
def test_verify_names_each_missing_section(
    demo_file, demo_certificate, section, capsys
):
    cert_path, doc = demo_certificate
    assert set(doc) == set(CERTIFICATE_SECTIONS)
    del doc[section]
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert section in capsys.readouterr().out


MALFORMED_FIELDS = [
    ("input", None, {"n": 4}, "field input.matrix is missing"),
    ("input", "n", "4", "field input.n is missing"),
    ("input", "matrix", "1 2 3 4", "field input.matrix is missing"),
    ("classification", "flags", None, "field classification.flags is missing"),
    ("nest", "chain", [[4], [3, "4"]], "field nest.chain is missing"),
    ("nest", "chain", [[4], [2, 3, 4]], "nest fails re-verification"),
    ("nest", "tau", [9, 3, 2, 1], "nest.tau does not re-verify"),
    ("transform", "b_matrix", [["1", "2"]], "field transform.b_matrix is missing"),
    ("block_traces", None, ["1/1"], "block traces key set does not match"),
    ("block_traces", None, {}, "block traces key set does not match"),
    ("stabilizer", "eps", ["1/0"] * 4, "field stabilizer.eps is missing"),
    ("stabilizer", "eps", ["1/1"], "has 1 entries, not 4"),
]


@pytest.mark.parametrize(
    "section,key,value,message",
    MALFORMED_FIELDS,
    ids=[f"{section}.{key}" for section, key, _, _ in MALFORMED_FIELDS],
)
def test_verify_names_malformed_fields(
    demo_file, demo_certificate, section, key, value, message, capsys
):
    cert_path, doc = demo_certificate
    if key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert message in capsys.readouterr().out


@pytest.mark.parametrize("tau", [[1, 2, 3, 4], [3, 4, 2, 1]])
def test_verify_reads_nest_tau_off_the_chain(
    demo_file, demo_certificate, tau, capsys
):
    # tau is no claim: a permutation other than the chain's is one field
    # that differs from the rewritten certificate
    cert_path, doc = demo_certificate
    assert doc["nest"]["tau"] == [4, 3, 2, 1]
    doc["nest"]["tau"] = tau
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert capsys.readouterr().out == "FAIL: nest.tau does not re-verify\n"


def test_verify_reads_the_chain_in_its_canonical_form(
    demo_file, demo_certificate, capsys
):
    # the re-verified nest lists each level's indices in increasing order,
    # so the same chain with its levels reversed is not what certify writes
    cert_path, doc = demo_certificate
    doc["nest"]["chain"] = [level[::-1] for level in doc["nest"]["chain"]]
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert capsys.readouterr().out == "FAIL: nest.chain does not re-verify\n"


def test_verify_names_the_first_level_of_a_chain_that_is_not_q2(
    demo_file, demo_certificate, capsys
):
    cert_path, doc = demo_certificate
    doc["nest"]["chain"] = [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]]
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert capsys.readouterr().out == (
        "FAIL: nest fails re-verification: level 2 subset (1, 2): "
        "order-1 minor sum of the square is -20\n"
    )


def test_a_hurwitz_minor_is_named_by_its_section_and_index():
    # no verify input tried reaches a nonpositive endpoint minor, so the
    # name is checked directly
    assert _value_name(("hurwitz", 3)) == "endpoint Hurwitz minor (3)"


def test_verify_rejects_a_list_section_written_as_an_object(
    demo_file, demo_certificate, capsys
):
    # the writer emits the endpoint minors as a list; the same values keyed
    # "1", "2", ... are not that section
    cert_path, doc = demo_certificate
    minors = doc["endpoint_hurwitz_minors"]
    doc["endpoint_hurwitz_minors"] = {
        str(k): v for k, v in enumerate(minors, start=1)
    }
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert capsys.readouterr().out == (
        "FAIL: certificate has no valid endpoint_hurwitz_minors section\n"
    )


def test_verify_rejects_a_document_that_is_not_an_object(
    demo_file, demo_certificate, capsys
):
    cert_path, doc = demo_certificate
    _rewrite(cert_path, [doc])
    assert main(["verify", cert_path, demo_file]) == EXIT_INPUT
    assert "not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value", [{}, "x", 8.0, True, None], ids=["object", "str", "float", "bool", "missing"]
)
def test_verify_names_a_malformed_identity_steps(
    demo_file, demo_certificate, value, capsys
):
    # the writer emits an int: any other JSON type is malformed, 8.0 and
    # true included, though each equals an int in Python
    cert_path, doc = demo_certificate
    if value is None:
        del doc["stabilizer"]["identity_steps"]
    else:
        doc["stabilizer"]["identity_steps"] = value
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert capsys.readouterr().out == (
        "FAIL: certificate field stabilizer.identity_steps is missing or malformed\n"
    )


@pytest.mark.parametrize("value", [1000000, 7, -1])
def test_verify_reads_identity_steps_off_eps(demo_file, demo_certificate, value, capsys):
    # the demo's diagonal is eight halvings from the geometric start, read
    # off the denominator of e_4 = 2041/2048: any other count is refused
    cert_path, doc = demo_certificate
    assert doc["stabilizer"]["identity_steps"] == 8
    doc["stabilizer"]["identity_steps"] = value
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert capsys.readouterr().out == (
        "FAIL: stabilizer.identity_steps does not re-verify\n"
    )


# (path into the certificate, a value that stands for the right number in a
# form the writer does not emit, the field named)
NON_CANONICAL = [
    (("stabilizer", "eps", 1), "0.998046875", "stabilizer.eps"),  # 511/512
    (("stabilizer", "eps", 1), "1022/1024", "stabilizer.eps"),
    (("input", "matrix", 0, 0), "12/2", "input.matrix"),  # 6/1
    (("transform", "b_matrix", 0, 0), "490/10982", "transform.b_matrix"),  # 245/5491
    (("classification", "order_sums", 0), "+28/1", "classification.order_sums"),
]


@pytest.mark.parametrize(
    "path,text,name", NON_CANONICAL, ids=[text for _, text, _ in NON_CANONICAL]
)
def test_verify_reads_exact_values_only_in_the_writers_form(
    demo_file, demo_certificate, path, text, name, capsys
):
    cert_path, doc = demo_certificate
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    assert Fraction(parent[path[-1]]) == Fraction(text.lstrip("+"))
    parent[path[-1]] = text
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert name in capsys.readouterr().out


@pytest.mark.parametrize(
    "path,name",
    [
        (("stabilizer", "eps", 1), "stabilizer.eps"),
        (("input", "matrix", 0, 0), "input.matrix"),
    ],
    ids=["eps", "matrix"],
)
def test_verify_builds_no_integer_from_an_exponent(
    demo_file, demo_certificate, path, name, capsys
):
    # 11 characters that would stand for a 10^7-digit integer
    cert_path, doc = demo_certificate
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "1e10000000"
    _rewrite(cert_path, doc)
    start = time.perf_counter()
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert time.perf_counter() - start < 5
    assert name in capsys.readouterr().out


@pytest.mark.parametrize(
    "digits,malformed",
    [(MAX_LITERAL_DIGITS + 1, True), (MAX_LITERAL_DIGITS, False)],
    ids=["past-the-cap", "at-the-cap"],
)
def test_verify_caps_the_digits_of_a_claimed_eps(
    demo_file, demo_certificate, digits, malformed, capsys
):
    # 10^(digits-1) + 1 has `digits` digits and is prime to the numerator 1;
    # past the cap no int is built and no ledger derived
    cert_path, doc = demo_certificate
    doc["stabilizer"]["eps"][-1] = f"1/{10 ** (digits - 1) + 1}"
    _rewrite(cert_path, doc)
    start = time.perf_counter()
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    if malformed:
        assert elapsed < 1
        assert out == (
            "FAIL: certificate field stabilizer.eps is missing or malformed\n"
        )
    else:
        assert "stabilizer.eps" not in out
        assert "FAIL: trace ledger entry (1,1,1) does not re-verify\n" in out


@pytest.mark.parametrize(
    "value", [[0, 0, 1], [0, 0], [], None], ids=["one", "short", "empty", "missing"]
)
def test_verify_requires_the_shrink_log_the_writer_emits(
    demo_file, demo_certificate, value, capsys
):
    cert_path, doc = demo_certificate
    assert doc["stabilizer"]["shrink_log"] == [0, 0, 0]
    if value is None:
        del doc["stabilizer"]["shrink_log"]
    else:
        doc["stabilizer"]["shrink_log"] = value
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert "stabilizer.shrink_log" in capsys.readouterr().out


def test_verify_refuses_a_diagonal_of_the_wrong_length(
    demo_file, demo_certificate, capsys
):
    cert_path, doc = demo_certificate
    for eps in (["1/1", "1/2", "1/4"], ["1/1", "1/2", "1/4", "1/8", "1/16"]):
        doc["stabilizer"]["eps"] = eps
        _rewrite(cert_path, doc)
        assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
        assert capsys.readouterr().out == (
            f"FAIL: stabilizer diagonal has {len(eps)} entries, not 4\n"
        )


DECREASING = "stabilizer entries must decrease strictly and stay positive"


@pytest.mark.parametrize(
    "eps,message",
    [
        (["1/2", "1/4", "1/8", "1/16"], "stabilizer must start with eps_1 = 1"),
        (["1/1", "1/2", "1/2", "1/4"], DECREASING),
        (["1/1", "1/2", "1/4", "0/1"], DECREASING),
    ],
    ids=["start", "flat", "zero"],
)
def test_verify_refuses_a_diagonal_that_is_not_a_stabilizer(
    demo_file, demo_certificate, eps, message, capsys
):
    cert_path, doc = demo_certificate
    doc["stabilizer"]["eps"] = eps
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    out = capsys.readouterr().out
    assert out == f"FAIL: stabilizer fails re-verification: {message}\n"


def test_verify_decides_positivity_on_the_rederived_values(
    demo_file, demo_certificate, capsys
):
    # a document written honestly for the former demo diagonal, whose only
    # nonpositive exact value is L(1,0,1): every text matches, the sign fails
    from pstab import classify_full, find_q2_nest
    from pstab.certificate import Stabilizer, exact_certificate

    cert_path, _ = demo_certificate
    nest = find_q2_nest(DEMO_A)
    former = Stabilizer(
        eps=(Fraction(1), Fraction(1, 64), Fraction(1, 128), Fraction(1, 256))
    )
    cert = exact_certificate(DEMO_A, classify_full(DEMO_A), nest, former)
    _rewrite(cert_path, certificate_document(cert))
    assert main(["verify", cert_path, demo_file]) == EXIT_REFUTED
    assert capsys.readouterr().out == "FAIL: cross term (1,0,1) is not positive\n"


def test_verify_oversized_json_integer_exits_3(demo_file, tmp_path, capsys):
    # past Python's int digit limit json raises a plain ValueError
    path = tmp_path / "cert.json"
    path.write_text('{"verdict": ' + "1" * 5000 + "}")
    assert main(["verify", str(path), demo_file]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    """Directory, matrix path and certificate document of the demo."""
    folder = tmp_path_factory.mktemp("demo")
    matrix_path = folder / "demoA.txt"
    matrix_path.write_text(matrix_text(DEMO_A))
    cert_path = folder / "cert.json"
    assert main(["certify", str(matrix_path), "--json", str(cert_path)]) == EXIT_OK
    return folder, str(matrix_path), json.loads(cert_path.read_text())


# the exact values a certificate claims, as key paths into the document
EXACT_ROOTS = [
    ("classification", "order_sums"),
    ("classification", "order_sums_square"),
    ("transform",),
    ("block_traces",),
    ("stabilizer", "eps"),
    ("trace_ledger",),
    ("cross_terms",),
    ("endpoint_hurwitz_minors",),
]


def _leaf_paths(value, path):
    if isinstance(value, dict):
        value = value.items()
    elif isinstance(value, list):
        value = enumerate(value)
    else:
        return [path]
    return [leaf for key, item in value for leaf in _leaf_paths(item, (*path, key))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data(), st.fractions())
def test_verify_rejects_any_one_exact_value_changed(demo_files, data, new):
    folder, matrix_path, doc = demo_files
    doc = copy.deepcopy(doc)
    paths = []
    for root in EXACT_ROOTS:
        value = doc
        for key in root:
            value = value[key]
        paths.extend(_leaf_paths(value, root))
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if isinstance(old, int):  # an entry of the permutation theta
        assume(new.denominator == 1 and new != old)
        parent[path[-1]] = int(new)
    else:
        assume(new != Fraction(old))
        parent[path[-1]] = frac_str(new)
    cert_path = folder / "edited.json"
    cert_path.write_text(json.dumps(doc))
    assert main(["verify", str(cert_path), matrix_path]) == EXIT_REFUTED


def _node_paths(value, path=()):
    """The key path of every value inside a JSON document, containers and
    leaves alike, outermost first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [
        node for key, item in items for node in [(*path, key), *_node_paths(item, (*path, key))]
    ]


# a value of each JSON type, and the deletion of the field
MALFORMATIONS = [None, False, 0, 0.5, "x", [], {}, "delete"]


def test_verify_never_crashes_on_a_malformed_certificate(demo_files, capsys):
    # every field of the demo's certificate, at any depth, deleted or
    # replaced by a value of each JSON type that differs from it: verify
    # exits with a status, never an exception.  Only the advisory tool and
    # spectrum sections, read for their type alone (an object), may still
    # re-verify
    folder, matrix_path, doc = demo_files
    cert_path = folder / "malformed.json"
    variants = 0
    for path in _node_paths(doc):
        for new in MALFORMATIONS:
            edited = copy.deepcopy(doc)
            parent = edited
            for key in path[:-1]:
                parent = parent[key]
            if new == "delete":
                del parent[path[-1]]
            elif json.dumps(new) == json.dumps(parent[path[-1]]):
                continue
            else:
                parent[path[-1]] = new
            cert_path.write_text(json.dumps(edited))
            rc = main(["verify", str(cert_path), matrix_path])
            capsys.readouterr()
            advisory = path[0] in ("tool", "spectrum") and (len(path) > 1 or new == {})
            assert rc in ((EXIT_OK,) if advisory else (EXIT_REFUTED, EXIT_INPUT)), (
                path, new
            )
            variants += 1
    assert variants > 1000


ENTRY_TEXTS = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.builds("{}.{}e{}".format, st.integers(-9, 9), st.integers(0, 99), st.integers(-3, 3)),
)
MALFORMED_TEXTS = st.sampled_from(
    [
        "x", "1/0", "1/", "/2", "1//2", "--1", "1e", "1.2.3", "nan", "inf",
        "0x10", "1_0", "9" * (MAX_LITERAL_DIGITS + 1), f"1e{MAX_LITERAL_EXPONENT + 1}",
    ]
)


@st.composite
def matrix_texts(draw):
    """Matrix files of dimension n <= 4, well formed or with one defect: the
    dimension line, a row too many or too few, an entry too many or too
    few, or a malformed literal.  Half have a dominant positive diagonal,
    so that some reach certification."""
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(ENTRY_TEXTS, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        for i, row in enumerate(rows):
            row[i] = str(draw(st.integers(40, 90)))
    head = str(n)
    defect = draw(st.sampled_from([None] * 3 + ["dimension", "row", "entry", "literal"]))
    if defect == "dimension":
        head = draw(st.sampled_from(
            ["0", "-1", f"{n} {n}", "x", str(n + 1), "²", "9" * 5000]
        ))
    elif defect == "row":
        rows = rows[:-1] if draw(st.booleans()) else rows + [rows[-1]]
    elif defect == "entry":
        i = draw(st.integers(0, n - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    elif defect == "literal":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(MALFORMED_TEXTS)
    return "\n".join([head] + [" ".join(row) for row in rows]) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrix_texts(), st.integers(1, 4), st.integers(0, 4))
def test_commands_exit_with_a_status_on_any_matrix_text(
    demo_files, text, order, wedge
):
    folder, _, _ = demo_files
    path = folder / "generated.txt"
    path.write_text(text)
    compound_args = ["--order", str(order)] + (["--wedge", str(wedge)] if wedge else [])
    for argv in (
        ["classify", str(path)],
        ["certify", str(path)],
        ["compound", str(path), *compound_args, "--json"],
    ):
        assert main(argv) in (EXIT_OK, EXIT_REFUTED, EXIT_INCONCLUSIVE, EXIT_INPUT)


def test_verify_undecodable_certificate_exits_3(demo_file, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["verify", str(path), demo_file]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_certify_exits_2_when_no_screened_diagonal_passes_the_exact_checks(
    demo_file, monkeypatch, capsys
):
    # every diagonal whose ledger is positive gets a last Hurwitz minor of
    # -1: the search accepts none, and names that minor
    import pstab.certificate
    import pstab.stabilize

    minors = pstab.certificate.hurwitz_minors
    monkeypatch.setattr(
        pstab.certificate, "hurwitz_minors", lambda m, c: (*minors(m, c)[:-1], Fraction(-1))
    )
    monkeypatch.setattr(pstab.stabilize, "MAX_HALVINGS", 10)
    assert main(["certify", demo_file]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out == (
        "inconclusive: stabilizer search gave up after 10 halvings of I - D; "
        "last violation ('hurwitz', 4) = -1\n"
    )


def test_verify_detects_wrong_matrix(
    demo_file, identity_file, tmp_path, monkeypatch, capsys
):
    # the stated matrix is compared first: no class is decided for another one
    import pstab.classify

    cert_path = str(tmp_path / "cert.json")
    main(["certify", demo_file, "--json", cert_path])
    capsys.readouterr()
    counts = _count_calls(monkeypatch, pstab.classify.classify_full)
    assert main(["verify", cert_path, identity_file]) == EXIT_REFUTED
    assert capsys.readouterr().out == "FAIL: input.matrix is not the matrix given\n"
    assert counts == {"classify_full": 0}


def test_verify_accepts_a_certificate_with_the_former_matrix_hash(
    demo_file, demo_certificate, capsys
):
    # certificates written before the format dropped input.sha256 carry it
    # after the matrix; verify reads only the keys the writer emits
    cert_path, doc = demo_certificate
    doc["input"]["sha256"] = matrix_hash(DEMO_A)
    assert list(doc["input"]) == ["n", "matrix", "sha256"]
    _rewrite(cert_path, doc)
    assert main(["verify", cert_path, demo_file]) == EXIT_OK
    assert capsys.readouterr().out == "certificate re-verifies\n"


def test_certify_not_p_exits_1(tmp_path, capsys):
    path = tmp_path / "notP.txt"
    path.write_text("2\n0 1\n1 1\n")  # zero diagonal entry: not P at order 1
    assert main(["certify", str(path)]) == EXIT_REFUTED
    assert "not-P" in capsys.readouterr().out


def test_certify_identity(identity_file):
    assert main(["certify", identity_file]) == EXIT_OK


@pytest.mark.parametrize("entry", ["5", "1/3", "1e-300"])
def test_certify_certifies_every_one_by_one_p_matrix(tmp_path, capsys, entry):
    # the sharpened wedge bound pi/2 - pi/(2n) is 0 at n = 1: the wedge is
    # the closed positive real axis, and a positive eigenvalue on it, with
    # slack 0, is no disagreement
    path = tmp_path / "m.txt"
    path.write_text(f"1\n{entry}\n")
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", str(path), "--json", cert_path]) == EXIT_OK
    out, err = capsys.readouterr()
    assert "certified" in out and err == ""
    with open(cert_path, encoding="utf-8") as handle:
        assert "disagreement" not in json.load(handle)["spectrum"]
    assert main(["verify", cert_path, str(path)]) == EXIT_OK
    assert "re-verifies" in capsys.readouterr().out


@pytest.mark.parametrize("entry", ["0", "-5"])
def test_certify_refutes_a_one_by_one_non_p_matrix(tmp_path, capsys, entry):
    path = tmp_path / "m.txt"
    path.write_text(f"1\n{entry}\n")
    assert main(["certify", str(path)]) == EXIT_REFUTED
    assert "refuted (not-P)" in capsys.readouterr().out


CROSS_CHECK_FAILURE = (
    "eigenvalue sum 1.0 vs exact trace 30.0 differs beyond 1.2e-06 "
    "(all scaled by 2^-0)"
)


def _negative_spectrum(m):
    return Spectrum((-1 + 0j,) + (2 + 0j,) * (m.n - 1), "lapack-geev")


def _spectrum_outside_the_wedge(m):
    # |arg(1 +- 5i)| = 1.37 > pi/2 - pi/8, though both real parts are positive
    return Spectrum((1 + 5j, 1 - 5j) + (2 + 0j,) * (m.n - 2), "lapack-geev")


def _failed_cross_check(m):
    raise NumericToleranceError(CROSS_CHECK_FAILURE)


@pytest.mark.parametrize(
    "fake, named",
    [
        (_negative_spectrum, "nonpositive eigenvalue"),
        (_spectrum_outside_the_wedge, "sharpened wedge bound violated"),
        (_failed_cross_check, CROSS_CHECK_FAILURE),
    ],
    ids=["negative", "outside-wedge", "cross-check"],
)
def test_no_float_value_changes_the_exit_code_of_certify(
    demo_file, tmp_path, monkeypatch, capsys, fake, named
):
    import pstab.stabilize

    monkeypatch.setattr(pstab.stabilize.spectra, "eigenvalues", fake)
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", demo_file, "--json", cert_path]) == EXIT_OK
    captured = capsys.readouterr()
    assert "certified: positively stable" in captured.out
    assert captured.err.startswith("advisory: ") and named in captured.err
    with open(cert_path) as handle:
        spectrum = json.load(handle)["spectrum"]
    if fake is _failed_cross_check:
        assert spectrum == {"computed": False, "reason": CROSS_CHECK_FAILURE}
        assert f"eigenvalues: not computed ({CROSS_CHECK_FAILURE})" in captured.out
    else:
        assert named in spectrum["disagreement"]
    assert main(["verify", cert_path, demo_file]) == EXIT_OK
    assert "re-verifies" in capsys.readouterr().out


def test_certify_of_an_agreeing_spectrum_prints_no_advisory(demo_file, capsys):
    assert main(["certify", demo_file, "--json", "-"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "disagreement" not in captured.out


def test_demo_command_all_pass(capsys):
    assert main(["demo"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "det A: 5491" in out


def test_demo_command_prints_the_pinned_walkthrough(capsys):
    # the whole walkthrough, byte for byte
    assert main(["demo"]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert len(out.splitlines()) == 16
    assert hashlib.sha256(out).hexdigest() == (
        "bbd5a73106005ad135f41fb0852cd6a9824306af73b54046fbffc98a76a1df98"
    )


def _count_calls(monkeypatch, *functions):
    """Counts of calls to ``functions``, through every binding of each in
    every loaded pstab module."""
    import sys

    counts = {f.__name__: 0 for f in functions}

    def counted(f):
        def wrapper(*args, **kwargs):
            counts[f.__name__] += 1
            return f(*args, **kwargs)

        return wrapper

    wrappers = [(f, counted(f)) for f in functions]
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "pstab":
            continue
        for attr, value in list(vars(module).items()):
            for f, wrapper in wrappers:
                if value is f:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


@pytest.mark.parametrize("a", [DEMO_A, LEVEL_SEARCH_FAULT], ids=["demo", "fault"])
def test_classify_takes_no_determinant(tmp_path, monkeypatch, capsys, a):
    # P by one Sylvester sweep, the order sums by one char-poly, and the
    # other checks from the minor table: no minor is a determinant call
    import pstab.exactmat

    matrix_path = tmp_path / "a.txt"
    matrix_path.write_text(matrix_text(a))
    counts = _count_calls(
        monkeypatch,
        pstab.exactmat.det,
        pstab.exactmat.minor,
        pstab.exactmat.submatrix,
    )
    assert main(["classify", str(matrix_path), "--json"]) == EXIT_REFUTED
    assert counts == {"det": 0, "minor": 0, "submatrix": 0}


@pytest.mark.parametrize("a", [DEMO_A, LEVEL_SEARCH_FAULT], ids=["demo", "fault"])
def test_certify_and_verify_form_no_schur_complement(tmp_path, monkeypatch, capsys, a):
    # the block traces come from the nest's evidence, so no module of the
    # package defines or imports the Schur and Sylvester routines (they
    # live in the test oracle), and each command checks the chain once:
    # certify found it, verify re-verifies it
    import pstab.certificate

    for path in Path(pstab.certificate.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        assert not names & {"schur_complement", "sylvester_check"}, path.name

    matrix_path = tmp_path / "a.txt"
    matrix_path.write_text(matrix_text(a))
    cert_path = str(tmp_path / "cert.json")
    counts = _count_calls(monkeypatch, pstab.certificate.verify_nest)
    assert main(["certify", str(matrix_path), "--json", cert_path]) == EXIT_OK
    assert counts == {"verify_nest": 0}
    assert main(["verify", cert_path, str(matrix_path)]) == EXIT_OK
    assert counts == {"verify_nest": 1}


def test_cli_uses_no_private_name_of_another_pstab_module():
    # the front end reaches the package through public names alone: it
    # imports no underscore-prefixed name from a pstab module and reads no
    # such attribute of a pstab module it imports
    import pstab.cli

    tree = ast.parse(Path(pstab.cli.__file__).read_text(encoding="utf-8"))
    modules, used = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("pstab")
        ):
            used += [alias.name for alias in node.names]
            if node.module is None:  # from . import <module>
                modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] == "pstab"
            )
    used += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert {"verify_document", "DEMO_A"} <= set(used)
    private = [n for n in used if n.startswith("_") and not n.endswith("__")]
    assert private == []


@pytest.mark.parametrize(
    "a,order_two_reads", [(DEMO_A, 1), (LEVEL_SEARCH_FAULT, 4)], ids=["demo", "fault"]
)
def test_certify_and_verify_decide_each_exact_fact_once(
    tmp_path, monkeypatch, capsys, a, order_two_reads
):
    # P is decided once per command, by the one class pass on A (and on A^2
    # for the P^2 flag), never on B; certify derives each diagonal's ledger
    # once, read order by order: order 1 for every diagonal, order 2 for
    # one that passes it, and the rest, with the Hurwitz minors and the
    # exact certificate, only for one whose orders 1 and 2 are positive
    # (here the one it accepts), and writes that; verify derives it once.  Each command builds B's integer form
    # once, the search reusing it for the certificate it accepts, from one
    # elimination of A~ and no Fraction inverse: B' is read off adj(A~)
    # and adj(B') off A~.  Neither command forms a Fraction submatrix or a char-poly for
    # Q or Q^2, whose order sums are read off A's P sweep; a nest level is
    # one integer char-poly, once per index set the search reads and once
    # per chain level in verify, except the full set: both commands answer
    # it from the P sweep, and take no size-n char-poly
    import pstab.certificate
    import pstab.classify
    import pstab.exactmat
    import pstab.nests
    import pstab.stabilize

    matrix_path = tmp_path / "a.txt"
    matrix_path.write_text(matrix_text(a))
    cert_path = str(tmp_path / "cert.json")
    ledger = pstab.certificate._trace_ledger
    derivations = []  # per ledger derived, the orders read

    def counted(form, d_int, delta):
        derivations.append([])
        for order in ledger(form, d_int, delta):
            derivations[-1].append(min(order)[0])
            yield order

    for module in (pstab.certificate, pstab.stabilize):
        monkeypatch.setattr(module, "_trace_ledger", counted)
    adjugate = pstab.exactmat.integer_adjugate
    adjugated = []  # every matrix that is eliminated
    for module in (pstab.exactmat, pstab.certificate):
        monkeypatch.setattr(
            module,
            "integer_adjugate",
            lambda m: adjugated.append(m) or adjugate(m),
        )
    counts = _count_calls(
        monkeypatch,
        pstab.classify._classify,
        pstab.classify.classify_full,
        pstab.classify.is_p,
        pstab.classify.is_q2,
        pstab.exactmat.principal_submatrix,
        pstab.exactmat.inverse,
        pstab.certificate.hurwitz_minors,
        pstab.certificate.exact_certificate,
        pstab.certificate._integer_b,
    )
    kernel = pstab.classify.integer_minor_sums
    char_polys = []  # through the binding that Q, Q^2 and nest levels use
    monkeypatch.setattr(
        pstab.classify,
        "integer_minor_sums",
        lambda *args: char_polys.append(len(args[0])) or kernel(*args),
    )
    searches = _count_calls(
        monkeypatch, pstab.nests.find_q2_nest, pstab.stabilize.build_stabilizer
    )
    level_q2 = pstab.nests._level_q2
    reads = []  # one entry per call to the cached level reader

    def counted_level_q2(m, full=None):
        reader = level_q2(m, full)
        return lambda subset: reads.append(subset) or reader(subset)

    for module in (pstab.certificate, pstab.nests):
        monkeypatch.setattr(module, "_level_q2", counted_level_q2)
    expected = {
        "_classify": 1,
        "classify_full": 0,
        "is_p": 0,
        "is_q2": 0,
        "principal_submatrix": 0,
        "inverse": 0,
        "hurwitz_minors": 1,
        "exact_certificate": 1,
        "_integer_b": 1,
    }
    assert main(["certify", str(matrix_path), "--json", cert_path]) == EXIT_OK
    assert searches == {"find_q2_nest": 1, "build_stabilizer": 1}
    with open(cert_path) as handle:
        doc = json.load(handle)
    steps = doc["stabilizer"]["identity_steps"]
    order = [i - 1 for i in reversed(doc["nest"]["tau"])]
    a_tilde = [[int(a.rows[i][j]) for j in order] for i in order]
    assert counts == expected
    assert reads[0] == tuple(range(1, a.n + 1)) and len(set(reads)) == len(reads)
    assert char_polys == [len(subset) for subset in reads[1:]]
    complete = list(range(1, a.n + 1))
    assert len(derivations) == steps + 1
    assert all(orders[0] == 1 for orders in derivations)
    assert sum(2 in orders for orders in derivations) == order_two_reads
    assert derivations.count(complete) == 1 and derivations[-1] == complete
    assert adjugated == [a_tilde]
    counts.update(dict.fromkeys(counts, 0))
    searches.update(dict.fromkeys(searches, 0))
    derivations.clear()
    adjugated.clear()
    reads.clear()
    char_polys.clear()
    assert main(["verify", cert_path, str(matrix_path)]) == EXIT_OK
    assert derivations == [complete]
    assert adjugated == [a_tilde]
    assert counts == expected
    assert reads == [tuple(level) for level in doc["nest"]["chain"]]
    assert char_polys == list(range(1, a.n))
    # verify re-derives from the claimed chain and diagonal: it searches for neither
    assert searches == {"find_q2_nest": 0, "build_stabilizer": 0}


@pytest.mark.parametrize(
    "a,kind",
    [
        (BIDIAGONAL_8, "not-P"),
        (ExactMatrix([[2, -1, -2], [-2, 3, -3], [-2, 2, 2]]), "not-P"),
        (ExactMatrix([[6, -30], [1, 2]]), "not-Q2"),
        (ExactMatrix([[3, 2, -4, 4], [0, 5, 6, 7], [8, -2, 2, 0], [0, -9, 5, 2]]), "not-Q2"),
    ],
    ids=["bidiagonal-8", "not-p-3", "not-q2-2", "not-q2-4"],
)
def test_certify_refutes_a_hypothesis_before_reading_any_other_class(
    tmp_path, monkeypatch, capsys, a, kind
):
    # P and Q^2 come off A's P sweep, so a refutation reads neither
    # sign-symmetry nor square dominance, takes no char-poly (a matrix that
    # is not P would need one for its order sums) and forms no A'^2 (the
    # P^2 sweep of a P-matrix that is neither sign-symmetric nor square
    # dominant on both sides); classify of the same input does read them
    import pstab.classify
    import pstab.exactmat

    path = tmp_path / "a.txt"
    path.write_text(matrix_text(a))
    counts = _count_calls(
        monkeypatch,
        pstab.classify._sign_symmetry_witness,
        pstab.classify._square_dominance_witness,
        pstab.exactmat.integer_minor_sums,
        pstab.exactmat.integer_product,
    )
    assert main(["certify", str(path)]) == EXIT_REFUTED
    assert capsys.readouterr().out.startswith(f"refuted ({kind}): ")
    assert set(counts.values()) == {0}
    if a.n == 8:  # classify stops at the sign-symmetry budget
        return
    assert main(["classify", str(path)]) == EXIT_REFUTED
    assert counts["_sign_symmetry_witness"] == 1
    assert counts["_square_dominance_witness"] == 2
    assert counts["integer_minor_sums" if kind == "not-P" else "integer_product"] == 1


def test_verify_runs_no_search_and_no_eigenvalue(demo_file, tmp_path, monkeypatch, capsys):
    # verify runs the checker alone; certify, counted the same way, runs
    # both searches and the one advisory spectrum, A's
    import pstab.nests
    import pstab.spectra
    import pstab.stabilize

    counts = _count_calls(
        monkeypatch,
        pstab.nests.find_q2_nest,
        pstab.stabilize.build_stabilizer,
        pstab.spectra.eigenvalues,
    )
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", demo_file, "--json", cert_path]) == EXIT_OK
    assert counts == {"find_q2_nest": 1, "build_stabilizer": 1, "eigenvalues": 1}
    counts.update(dict.fromkeys(counts, 0))
    assert main(["verify", cert_path, demo_file]) == EXIT_OK
    assert counts == {"find_q2_nest": 0, "build_stabilizer": 0, "eigenvalues": 0}


def test_verify_refuses_a_matrix_that_is_not_p(tmp_path, capsys):
    # Q^2 with a Q^2 nest, but A(1,3; 1,3) = 0.  Every field of the
    # document is derived honestly from A, flags included, so the missing
    # P hypothesis is the one discrepancy.
    from pstab import classify_full, find_q2_nest, spectra
    from pstab.stabilize import build_stabilizer

    a = ExactMatrix([[2, -1, -2], [-2, 3, -3], [-2, 2, 2]])
    report = classify_full(a)
    assert report.is_q2 and not report.is_p
    # the search's certificate is exact_certificate's, with no spectra
    exact = build_stabilizer(a, report, find_q2_nest(a))
    spectrum = spectra.eigenvalues(a)
    cert = exact._replace(
        spectrum=spectrum,
        wedge_margin=spectra.wedge_check(spectrum, a.n, kind="sharpened")[1],
    )
    matrix_path = tmp_path / "a.txt"
    matrix_path.write_text(matrix_text(a))
    cert_path = str(tmp_path / "cert.json")
    _rewrite(cert_path, certificate_document(cert))
    assert main(["verify", cert_path, str(matrix_path)]) == EXIT_REFUTED
    assert capsys.readouterr().out == (
        "FAIL: matrix is not a P-matrix: A(1,3; 1,3) = 0\n"
    )


@pytest.mark.parametrize(
    "matrix", [DEMO_A, ExactMatrix([[0, 1], [1, 1]])], ids=["demo", "not-P"]
)
def test_certify_rejects_a_negative_max_shrink_before_any_work(
    tmp_path, monkeypatch, capsys, matrix
):
    # the halving cap is a constant: --max-shrink is an unknown option, a
    # usage error found before the matrix is read
    import pstab.cli

    path = tmp_path / "m.txt"
    path.write_text(matrix_text(matrix))
    calls = []
    monkeypatch.setattr(pstab.cli, "load_matrix", lambda *args: calls.append(args))
    for count in ("-1", "1"):
        with pytest.raises(SystemExit) as exc:
            main(["certify", str(path), "--max-shrink", count])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert "unrecognized arguments: --max-shrink" in captured.err
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["compound", "{demo}", "--order", "abc"],
        ["certify"],
        ["verify", "{demo}"],
        ["frobnicate", "{demo}"],
        ["classify", "{demo}", "--require", "R"],
    ],
    ids=["bad-int", "no-matrix", "no-certificate", "unknown-command", "bad-choice"],
)
def test_usage_errors_exit_3(demo_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(demo=demo_file) for arg in argv])
    assert exc.value.code == EXIT_INPUT
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["certify", "--help"], ["--version"]],
    ids=["help", "command-help", "version"],
)
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK


def test_verify_deeply_nested_certificate_exits_3(demo_file, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", str(path), demo_file]) == EXIT_INPUT
    assert "nested too deeply" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(tmp_path):
    # the console entry gives each exit code: a round trip through files,
    # a tampered copy, the give-up, a P^2 witness and the n = 8 cases of
    # the sign-symmetry read
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "pstab", *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
        )
        return proc.returncode, proc.stdout, proc.stderr

    code, out, _ = run("demo")
    assert code == EXIT_OK
    assert "det A: 5491" in out and "FAIL" not in out
    files = {
        "demo": DEMO_A,
        "cx": ExactMatrix([[8, 6], [-3, 4]]),
        "bidiag": BIDIAGONAL_8,
        "positive": POSITIVE_BIDIAGONAL_8,
        "rowconst": row_constant_m_matrix(8),
    }
    for name, m in files.items():
        (tmp_path / f"{name}.txt").write_text(matrix_text(m))
    for name in ("demo", "rowconst"):
        assert run("certify", f"{name}.txt", "--json", f"{name}.json")[0] == EXIT_OK
        assert run("verify", f"{name}.json", f"{name}.txt") == (
            EXIT_OK, "certificate re-verifies\n", ""
        )
    doc = json.loads((tmp_path / "demo.json").read_text())
    doc["stabilizer"]["eps"][1] = "1023/1024"
    _rewrite(tmp_path / "tampered.json", doc)
    code, out, _ = run("verify", "tampered.json", "demo.txt")
    assert code == EXIT_REFUTED and out.startswith("FAIL: ")
    # the give-up, under a halving cap of 1 set before the module runs
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import runpy, sys, pstab.stabilize\n"
            "pstab.stabilize.MAX_HALVINGS = 1\n"
            "sys.argv = ['pstab', 'certify', 'demo.txt']\n"
            "runpy.run_module('pstab', run_name='__main__')",
        ],
        env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == EXIT_INCONCLUSIVE
    assert proc.stdout.startswith(
        "inconclusive: stabilizer search gave up after 1 halvings of I - D; "
    )
    code, out, _ = run("classify", "cx.txt", "--require", "P2", "--json")
    assert code == EXIT_REFUTED
    assert json.loads(out)["witnesses"]["P2"] == "A(2; 2) = -2"
    assert run("certify", "bidiag.txt") == (
        EXIT_REFUTED, "refuted (not-P): input is not a P-matrix: A(8; 8) = -1\n", ""
    )
    for command in ("classify", "certify"):
        assert run(command, "positive.txt") == (EXIT_INPUT, "", BUDGET_ERROR)


# Reports, on its last line, which of numpy and scipy a command loaded.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from pstab.cli import main
rc = main(sys.argv[1:])
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
print(rc, "numpy" in sys.modules, "scipy" in sys.modules)
"""


def _run_import_probe(*argv):
    """The stdout lines of a fresh interpreter running IMPORT_PROBE."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["classify", "--require", "P"], "0 False False"),
        (["certify"], "0 True False"),
    ],
    ids=["classify", "certify"],
)
def test_only_eigenvalues_load_numpy_and_nothing_loads_scipy(
    demo_file, argv, loaded
):
    assert _run_import_probe(*argv, demo_file)[-1] == loaded


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_start_up_loads_neither_dataclasses_nor_inspect(
    demo_file, demo_certificate, command
):
    # counted against the modules loaded before pstab, so that what site
    # imports does not count; certify's numpy may load either
    cert_path, _ = demo_certificate
    argv = {
        "classify": ["classify", "--require", "P"],
        "verify": ["verify", cert_path],
    }
    lines = _run_import_probe(*argv[command], demo_file)
    assert lines[-2:] == ["[]", "0 False False"]


def test_no_source_or_test_file_imports_scipy():
    import ast

    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path
