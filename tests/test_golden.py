"""Golden outputs: the exact part of ``certify --json -`` is pinned by its
sha256, and so is ``classify --json`` over a seeded corpus, so a rewrite
of any exact kernel must reproduce every certificate and every
classification byte for byte."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import (
    LEVEL_SEARCH_FAULT,
    random_fraction_matrix,
    random_matrix,
    random_p_matrix,
    random_spd_matrix,
)
from pstab import ExactMatrix
from pstab.cli import EXIT_OK, format_matrix, main
from pstab.fixtures import DEMO_A

CASES = {
    "demo": (
        lambda: DEMO_A,
        "944be430fdd998cd1897a124c4c634d8b44b92422ae188fbc2e56380ab42c29b",
    ),
    "fault": (
        lambda: LEVEL_SEARCH_FAULT,
        "a3b72400ad6d4e48509fb78253f100796e1264f7f15cf1931052370b70e2d01d",
    ),
    "scaled-demo": (
        lambda: DEMO_A * 10**150,
        "6ef63e2b7df7c57ae574f4363a741d9c47b8afa90255767d36080a5d895b9c96",
    ),
    "spd1": (
        lambda: random_spd_matrix(random.Random(1), 1),
        "d175768fed557345827a68051cfdf57cdf95f2c2b9fc2eb2b5162d2b7876ff0e",
    ),
    "spd2": (
        lambda: random_spd_matrix(random.Random(1), 2),
        "c64c4164692e55283957b5623f53a40ee5cf059c7e02b6e3d4dbbbeae6f4610f",
    ),
    "spd3": (
        lambda: random_spd_matrix(random.Random(1), 3),
        "c20fccb3018bd9580492b16f5df5d2b7dff2d106ac0a366b04db5c4993c55923",
    ),
    "spd5": (
        lambda: random_spd_matrix(random.Random(2), 5),
        "e4aaed0d74efc13e841caf85ec84b8835999dd34b9aca955fe21bc11623424b8",
    ),
    "spd6": (
        lambda: random_spd_matrix(random.Random(1), 6),
        "388421b451cfec5cf356487ee3e751b46c04cf5db1c3e95f13812baf2ebdaaa4",
    ),
    "spd7": (
        lambda: random_spd_matrix(random.Random(1), 7),
        "0205faed16937a47ebfb2fd98daa145de4c970e7efe89e13520ab441e2c3ab02",
    ),
    "spd8": (
        lambda: random_spd_matrix(random.Random(1), 8),
        "1ef481050198c981424a4e8ca51b9bfc3ad803769849e67c8323c921a56b354f",
    ),
    "spd4-sevenths": (
        lambda: random_spd_matrix(random.Random(3), 4) * Fraction(1, 7),
        "fbc55859ef7f22285ab52a187bf45c84552cd9bb60c5a1943d7df7f94ff048cf",
    ),
    "p4-three-halvings": (
        lambda: random_p_matrix(random.Random(17), 4),
        "33b9bb9d6c9e2556626a44ebaebbe2fcf77c9e7d27b38718e46ef6b654edc8b5",
    ),
    "p5-one-halving": (
        lambda: random_p_matrix(random.Random(16), 5),
        "997f32c01d88aa0ccd0f37beb9d2877b30dbc60d7646c375f9fc94c4e61a40d3",
    ),
}

CLASSIFY_JSON_SHA256 = "8995e3c6fa0bc8ccd097bebf10895fd345f80a45e7cdd35626414c8dd71181be"


def exact_part_sha256(a, tmp_path, capsys):
    """sha256 of the certificate document of ``a`` less its spectrum."""
    path = tmp_path / "a.txt"
    path.write_text(format_matrix(a))
    capsys.readouterr()
    assert main(["certify", str(path), "--json", "-"]) == EXIT_OK
    doc, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    del doc["spectrum"]
    return hashlib.sha256(json.dumps(doc, indent=2).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_certificate_exact_part_is_pinned(name, tmp_path, capsys):
    make, digest = CASES[name]
    assert exact_part_sha256(make(), tmp_path, capsys) == digest


def classify_corpus():
    """42 seeded matrices, six kinds for each n = 1..7: a P-matrix, a
    P-matrix with fraction entries, an integer and a fraction matrix
    (mostly not P), a symmetric positive definite matrix, and one with a
    zero principal minor (row 2 a copy of row 1; a zero entry at n = 1)."""
    rng = random.Random(14)
    for n in range(1, 8):
        yield random_p_matrix(rng, n)
        yield random_p_matrix(rng, n) * Fraction(rng.randint(1, 9), rng.randint(2, 9))
        yield random_matrix(rng, n)
        yield random_fraction_matrix(rng, n)
        yield random_spd_matrix(rng, n)
        rows = [list(row) for row in random_matrix(rng, n).rows]
        if n == 1:
            rows[0][0] = 0
        else:
            rows[1] = list(rows[0])
        yield ExactMatrix(rows)


def test_classify_json_is_pinned(tmp_path, capsys):
    # stdout and exit code of ``classify --json`` on the whole corpus
    path = tmp_path / "a.txt"
    digest = hashlib.sha256()
    for a in classify_corpus():
        path.write_text(format_matrix(a))
        capsys.readouterr()
        code = main(["classify", str(path), "--json"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode("utf-8"))
    assert digest.hexdigest() == CLASSIFY_JSON_SHA256


COMPOUND_JSON_SHA256 = "7b078994a1b60e874f68c306ebbee9576cd488ef4f4504e005884a2db98f6188"


def compound_corpus():
    """A seeded integer and fraction matrix for each n = 1..6, with every
    order j and, for each j, no ``--wedge`` and every ``--wedge m <= j``."""
    rng = random.Random(15)
    for n in range(1, 7):
        for a in (random_matrix(rng, n), random_fraction_matrix(rng, n)):
            for j in range(1, n + 1):
                for wedge in (None, *range(1, j + 1)):
                    yield a, j, wedge


def test_compound_json_is_pinned(tmp_path, capsys):
    # stdout and exit code of ``compound --json`` on the whole corpus
    path = tmp_path / "a.txt"
    digest = hashlib.sha256()
    for a, j, wedge in compound_corpus():
        path.write_text(format_matrix(a))
        args = ["compound", str(path), "--order", str(j), "--json"]
        if wedge is not None:
            args += ["--wedge", str(wedge)]
        capsys.readouterr()
        code = main(args)
        digest.update(f"{code}\n{capsys.readouterr().out}".encode("utf-8"))
    assert digest.hexdigest() == COMPOUND_JSON_SHA256
