"""Golden outputs: the exact part of ``certify --json -`` is pinned by its
sha256, and so are ``classify``, text and ``--json``, over a seeded corpus
and ``compound --json`` over another, so a rewrite
of any exact kernel must reproduce every certificate and every
classification byte for byte."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import (
    LEVEL_SEARCH_FAULT,
    matrix_text,
    random_fraction_matrix,
    random_matrix,
    random_p_matrix,
    random_spd_matrix,
)
from pstab import ExactMatrix
from pstab.cli import EXIT_OK, main
from pstab.fixtures import DEMO_A

CASES = {
    "demo": (
        lambda: DEMO_A,
        "132330ed51c6aead144b56e382b034332fb3183f722c4ba04fced7ec8898b11f",
    ),
    "fault": (
        lambda: LEVEL_SEARCH_FAULT,
        "0266c0b8149554af7f600f60d72fad9d2862d11f8d7e619f0d8d13e940aa10a6",
    ),
    "scaled-demo": (
        lambda: DEMO_A * 10**150,
        "65314a71359a51dfaefd7b69bd16b1390fe0baff52ab998669ed13d67bea573a",
    ),
    "spd1": (
        lambda: random_spd_matrix(random.Random(1), 1),
        "4351e886191e946ad59cbb3e955d27091190d57af9e54befbc7f08c658dd0603",
    ),
    "spd2": (
        lambda: random_spd_matrix(random.Random(1), 2),
        "5dd71b46ddd6e9b8fb0d577cc6a1d9e8aa0fe3a207178d33af5a5e5f937b3fd3",
    ),
    "spd3": (
        lambda: random_spd_matrix(random.Random(1), 3),
        "91ff72675b59f501cfe1a71a1ced86c996ba418d0321da724b1315915391402a",
    ),
    "spd5": (
        lambda: random_spd_matrix(random.Random(2), 5),
        "329308d8c9f9a36572df862c6255d8872412d4c0cf3ee35a2e815b3ec52a32a1",
    ),
    "spd6": (
        lambda: random_spd_matrix(random.Random(1), 6),
        "281b0af42c973a6e67fecf3136163ba2c67e289bc88e4c7eabe04d950c98e2f7",
    ),
    "spd7": (
        lambda: random_spd_matrix(random.Random(1), 7),
        "032158f1bbee6b7ebe420468941d739265aff489e78aaa559df8a1f6e42df149",
    ),
    "spd8": (
        lambda: random_spd_matrix(random.Random(1), 8),
        "036c704fb8eced36957018b1765d92c5f8ef4091ab4d0a1aba988c958db7ceb3",
    ),
    "spd4-sevenths": (
        lambda: random_spd_matrix(random.Random(3), 4) * Fraction(1, 7),
        "33c5caba86b899fc997ba673ec44bf485a952c63efd4eb94fa4b5a000cf9b290",
    ),
    "p4-three-halvings": (
        lambda: random_p_matrix(random.Random(17), 4),
        "cbc36f61bb84b7189846c84686a7ee02598389b13d1ba6d628bc26eb3219eeb4",
    ),
    "p5-one-halving": (
        lambda: random_p_matrix(random.Random(16), 5),
        "e8a7be846b9bb02580a1352d690c647e484326702f5b2c3cea3eb0229b96d52b",
    ),
}

CLASSIFY_JSON_SHA256 = "8995e3c6fa0bc8ccd097bebf10895fd345f80a45e7cdd35626414c8dd71181be"


def exact_part_sha256(a, tmp_path, capsys):
    """sha256 of the certificate document of ``a`` less its spectrum."""
    path = tmp_path / "a.txt"
    path.write_text(matrix_text(a))
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
        path.write_text(matrix_text(a))
        capsys.readouterr()
        code = main(["classify", str(path), "--json"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode("utf-8"))
    assert digest.hexdigest() == CLASSIFY_JSON_SHA256


CLASSIFY_TEXT_SHA256 = "86d68be1b12841cb6e81f890a07066f845456966f5cf11e7809e42660c1d25b9"


def test_classify_text_is_pinned(tmp_path, capsys):
    # stdout and exit code of ``classify`` (the labelled text report) on
    # the whole corpus
    path = tmp_path / "a.txt"
    digest = hashlib.sha256()
    for a in classify_corpus():
        path.write_text(matrix_text(a))
        capsys.readouterr()
        code = main(["classify", str(path)])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode("utf-8"))
    assert digest.hexdigest() == CLASSIFY_TEXT_SHA256


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
        path.write_text(matrix_text(a))
        args = ["compound", str(path), "--order", str(j), "--json"]
        if wedge is not None:
            args += ["--wedge", str(wedge)]
        capsys.readouterr()
        code = main(args)
        digest.update(f"{code}\n{capsys.readouterr().out}".encode("utf-8"))
    assert digest.hexdigest() == COMPOUND_JSON_SHA256
