"""The benchmark's contract: its own checker accepts what the commands write.

``perfbench/checker.py`` re-derives every classification, refutation and
certificate from the matrix alone, with exact code written apart from
pstab, and a benchmark run whose outputs it rejects reports
``correct: false``.  These tests import the benchmark's modules read-only
and run its checker over seed 1 of each workload, so that any drift of the
certificate format or of a verdict shows here first.  The ``fault-n8``
slot is left out of the seed-1 sweep: that non-symmetric 8x8 matrix has
no pair of opposite signs in the orders its sign-symmetry read reaches
within its minor budget, 1 and 2, and no positive diagonal makes it
symmetric, so ``classify`` still exits 3, which
the benchmark counts as a failed operation, not a wrong output.
``certify`` refutes it by its P witness before that read, which the
checker accepts.
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checker  # noqa: E402
import selftest  # noqa: E402
from corpus import N8_NON_P  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from conftest import (  # noqa: E402
    dense_m_matrix,
    matrix_text,
    row_constant_m_matrix,
)

import pstab.cli  # noqa: E402
from pstab.cli import EXIT_OK, EXIT_REFUTED, main  # noqa: E402


def test_checker_self_test_passes(tmp_path):
    assert selftest.run(pstab.cli, tmp_path) == []


def _command(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checker_accepts_every_output_of_seed_1(workload, tmp_path, capsys):
    certified = 0
    for index, (label, rows, truth) in enumerate(WORKLOADS[workload](random.Random(1))):
        if label == "fault-n8":
            continue
        truth = truth or checker.Truth(rows)
        path = tmp_path / f"m{index:02d}-{label}.txt"
        path.write_text(
            f"{len(rows)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
        )
        rc, out = _command(["classify", str(path), "--json"], capsys)
        assert checker.check_classify(truth, rc, out) == [], label

        cert = tmp_path / f"cert{index:02d}.json"
        rc, out = _command(["certify", str(path), "--json", str(cert)], capsys)
        if rc == EXIT_REFUTED:
            assert checker.check_refutation(truth, out) == [], label
            continue
        assert rc == EXIT_OK, (label, out)
        doc = json.loads(cert.read_text(encoding="utf-8"))
        assert checker.check_certificate(truth, doc) == [], label
        assert _command(["verify", str(cert), str(path)], capsys)[0] == EXIT_OK, label
        # the benchmark's own tamper check: one exact value changed by 1
        bad, where = checker.tamper(doc, pick=index * 7919 + len(doc["trace_ledger"]))
        cert.write_text(json.dumps(bad), encoding="utf-8")
        rc, out = _command(["verify", str(cert), str(path)], capsys)
        assert rc == EXIT_REFUTED and "FAIL" in out, (label, where)
        certified += 1
    assert certified >= 3


def test_checker_accepts_the_classification_of_an_8x8_m_matrix(tmp_path, capsys):
    # non-symmetric with every a_ij a_ji > 0.  The dense one's sign-symmetry
    # is refuted at order 2, read within the minor budget past n = 7; the
    # row-constant one has no pair of opposite signs in orders 1 and 2, but
    # A diag(1, ..., 8) is symmetric, so it is sign-symmetric with no minor
    # read
    for m, sign_symmetric in (
        (dense_m_matrix(random.Random(8), 8), False),
        (row_constant_m_matrix(8), True),
    ):
        path = tmp_path / "m.txt"
        path.write_text(matrix_text(m))
        rc, out = _command(["classify", str(path), "--json"], capsys)
        truth = checker.Truth([[int(x) for x in row] for row in m.rows])
        assert checker.check_classify(truth, rc, out) == []
        assert truth.is_sign_symmetric == sign_symmetric


def test_checker_accepts_the_refutation_of_fault_n8(tmp_path, capsys):
    # certify checks P before any class the theorem does not need, so the
    # order-1 minor A(8; 8) = -1 refutes the input classify stops on
    path = tmp_path / "fault-n8.txt"
    path.write_text(
        f"{len(N8_NON_P)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in N8_NON_P)
    )
    rc, out = _command(["certify", str(path)], capsys)
    assert rc == EXIT_REFUTED
    assert checker.check_refutation(checker.Truth(N8_NON_P), out) == []
