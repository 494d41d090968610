"""Acceptance suite: one test per top-level criterion.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s, or in
the captured output of a failing test) and enforces its stated tolerance
and runtime budget.  Everything exact is compared with == on Fractions.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    random_invertible,
    random_matrix,
    random_p_matrix,
    random_q_matrix,
    random_spd_matrix,
)
from oracle import (
    naive_compound,
    naive_det,
    naive_exterior,
    schur_complement,
    sylvester_check,
)
from pstab import ExactMatrix, det, inverse, minor, principal_submatrix, trace
from pstab.classify import classify_full, is_p, is_q, is_q2, is_square_diag_dominant
from pstab.cli import format_matrix, main, matrix_hash
from pstab.compound import (
    compound,
    diag_generalized_compound,
    exterior_product,
    generalized_compound,
)
from pstab.exactmat import index_sets
from pstab.fixtures import (
    DEMO_A,
    DEMO_CHAIN,
    DEMO_COMPOUND_2,
    DEMO_COMPOUND_3,
    DEMO_D,
    DEMO_DET,
    DEMO_EIGENVALUES,
    DEMO_SCALED_SQUARE_TRACE,
    DEMO_SQUARE_ORDER_SUMS,
    DEMO_SUB_234_SQUARE_DET,
    DEMO_SUB_234_SQUARE_ORDER2_SUM,
    DEMO_SUB_234_SQUARE_TRACE,
    DEMO_SUB_34_SQUARE_DET,
    DEMO_SUB_34_SQUARE_TRACE,
)
from pstab.nests import find_q2_nest, verify_nest
from pstab.spectra import eigenvalues, multiset_match, wedge_check
from pstab.stabilize import certify_stability


def report(number, description):
    """Print the criterion's verdict line, re-raising on failure."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[{verdict}] criterion {number}: {description}")
            return False

    return _Reporter()


def test_criterion_1_golden_order_sums():
    with report(1, "demo determinant and order sums of the square, exact"):
        start = time.perf_counter()
        assert det(DEMO_A) == DEMO_DET == 5491
        sums = classify_full(DEMO_A).order_sums_square
        assert tuple(sums) == DEMO_SQUARE_ORDER_SUMS
        assert sums[0] == 156 and sums[1] == 5530
        assert sums[2] == 3816 and sums[3] == 30151081
        assert time.perf_counter() - start < 1.0


def test_criterion_2_compound_goldens():
    with report(2, "second and third compounds of the demo matrix, exact"):
        start = time.perf_counter()
        assert compound(DEMO_A, 2) == DEMO_COMPOUND_2
        assert compound(DEMO_A, 3) == DEMO_COMPOUND_3
        assert time.perf_counter() - start < 1.0


def test_criterion_3_negative_control():
    with report(3, "diag(1,1,1/10,1/10) scaling breaks Q at order 1"):
        scaled = DEMO_A.scale_rows(DEMO_D)
        assert trace(scaled.square()) == DEMO_SCALED_SQUARE_TRACE == Fraction(-93, 5)
        verdict, _, witness = is_q(scaled.square())
        assert not verdict
        assert witness.order == 1


def test_criterion_4_nest_fixture():
    with report(4, "demo Q^2 chain and its exact evidence values"):
        nest = find_q2_nest(DEMO_A)
        assert nest.chain == DEMO_CHAIN
        evidence = verify_nest(DEMO_A, nest.chain)
        levels = {lv.subset: lv.order_sums_square for lv in evidence.levels}
        assert levels[(2, 3, 4)][-1] == DEMO_SUB_234_SQUARE_DET == 60025
        assert levels[(2, 3, 4)][0] == DEMO_SUB_234_SQUARE_TRACE == 176
        assert levels[(2, 3, 4)][1] == DEMO_SUB_234_SQUARE_ORDER2_SUM == 12936
        assert levels[(3, 4)][-1] == DEMO_SUB_34_SQUARE_DET == 12100
        assert levels[(3, 4)][0] == DEMO_SUB_34_SQUARE_TRACE == 180


def test_criterion_5_end_to_end_certify(tmp_path, capsys):
    with report(5, "CLI certify on the demo matrix: exit 0, spectrum, wedge"):
        start = time.perf_counter()
        matrix_path = tmp_path / "demoA.txt"
        matrix_path.write_text(format_matrix(DEMO_A))
        cert_path = tmp_path / "cert.json"
        rc = main(["certify", str(matrix_path), "--json", str(cert_path)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(cert_path.read_text())
        spectrum = [
            complex(v["re"], v["im"]) for v in doc["spectrum"]["input_eigenvalues"]
        ]
        assert multiset_match(spectrum, DEMO_EIGENVALUES, abs_tol=1e-3, rel_tol=0.0)
        assert doc["spectrum"]["wedge_margin"] > 0  # |arg| < pi/2 - pi/8 strictly
        assert time.perf_counter() - start < 30.0


def _random_diag(rng, n):
    return [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]


def test_criterion_6_identity_suite():
    with report(6, "nine exact minor identities on 100+ random matrices each"):
        cases = 100
        sizes = [2, 3, 3, 4, 4, 5]

        rng = random.Random(601)
        for _ in range(cases):  # Cauchy-Binet: (MN)^(j) = M^(j) N^(j)
            n = rng.choice(sizes)
            a, b = random_matrix(rng, n, -4, 4), random_matrix(rng, n, -4, 4)
            for j in range(1, n + 1):
                assert compound(a * b, j) == compound(a, j) * compound(b, j)

        rng = random.Random(602)
        for _ in range(cases):  # Jacobi: minors of the inverse
            n = rng.choice(sizes)
            a = random_invertible(rng, n, -4, 4)
            d, ai = det(a), inverse(a)
            j = rng.randint(1, n - 1)
            for al in index_sets(n, j):
                for be in index_sets(n, j):
                    comp_a = tuple(i for i in range(1, n + 1) if i not in al)
                    comp_b = tuple(i for i in range(1, n + 1) if i not in be)
                    sign = (-1) ** (sum(al) + sum(be))
                    assert minor(ai, al, be) == sign * minor(a, comp_b, comp_a) / d

        rng = random.Random(603)
        for _ in range(cases):  # exterior product is symmetric in its factors
            n = rng.choice([2, 3, 4])
            j = rng.randint(2, min(3, n))
            mats = [random_matrix(rng, n, -3, 3) for _ in range(j)]
            base = exterior_product(mats)
            perm = rng.sample(mats, j)
            assert exterior_product(perm) == base

        rng = random.Random(604)
        for _ in range(cases):  # all factors equal: exterior product = compound
            n = rng.choice([2, 3, 4, 5])
            j = rng.randint(1, min(3, n))
            m = random_matrix(rng, n, -3, 3)
            assert exterior_product([m] * j) == compound(m, j)

        rng = random.Random(605)
        for _ in range(cases):  # diagonal fast path vs the permutation sum
            n = rng.choice([3, 4, 5])
            entries = _random_diag(rng, n)
            j = rng.randint(1, min(4, n))
            wedge_m = rng.randint(1, j)
            assert (
                diag_generalized_compound(entries, j, wedge_m)
                == generalized_compound(ExactMatrix.diagonal(entries), j, wedge_m)
            )

        rng = random.Random(606)
        for _ in range(cases):  # Sylvester's determinant identity
            n = rng.choice([3, 4, 5])
            m = random_matrix(rng, n, -4, 4)
            k = rng.randint(1, n - 1)
            pr = tuple(sorted(rng.sample(range(1, n + 1), k)))
            pc = tuple(sorted(rng.sample(range(1, n + 1), k)))
            p = rng.randint(1, n - k)
            assert sylvester_check(m, pr, pc, p) is None

        rng = random.Random(607)
        schur_count = 0
        while schur_count < cases:  # Schur entries are bordered minor ratios
            n = rng.choice([2, 3, 4, 5])
            m = random_matrix(rng, n, -4, 4)
            k = rng.randint(1, n - 1)
            head = tuple(range(1, k + 1))
            pivot = minor(m, head, head)
            if pivot == 0:
                continue
            schur_count += 1
            s = schur_complement(m, k)
            for l in range(1, n - k + 1):
                for r in range(1, n - k + 1):
                    assert s.entry(l, r) == minor(m, head + (l + k,), head + (r + k,)) / pivot

        rng = random.Random(608)
        eq3_count = 0
        while eq3_count < cases:  # inverse of a Schur complement
            n = rng.choice([2, 3, 4, 5])
            m = random_invertible(rng, n, -4, 4)
            k = rng.randint(1, n - 1)
            head = tuple(range(1, k + 1))
            if minor(m, head, head) == 0:
                continue
            s = schur_complement(m, k)
            if det(s) == 0:
                continue
            eq3_count += 1
            tail = tuple(range(k + 1, n + 1))
            assert inverse(s) == principal_submatrix(inverse(m), tail)

        rng = random.Random(609)
        schur_minor_count = 0
        while schur_minor_count < cases:  # minors of a Schur complement
            n = rng.choice([3, 4, 5])
            m = random_matrix(rng, n, -4, 4)
            k = rng.randint(1, n - 1)
            head = tuple(range(1, k + 1))
            pivot = minor(m, head, head)
            if pivot == 0:
                continue
            schur_minor_count += 1
            s = schur_complement(m, k)
            j = rng.randint(1, n - k)
            for al in index_sets(n - k, j):
                for be in index_sets(n - k, j):
                    shifted_a = head + tuple(i + k for i in al)
                    shifted_b = head + tuple(i + k for i in be)
                    assert minor(s, al, be) == minor(m, shifted_a, shifted_b) / pivot


def test_criterion_7_oracle_equivalence():
    with report(7, "main path vs brute-force oracles, exact agreement"):
        rng = random.Random(701)
        for _ in range(200):
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, -6, 6)
            assert det(m) == naive_det(m)

        rng = random.Random(702)
        for _ in range(50):
            n = rng.randint(2, 5)
            j = rng.randint(1, n)
            m = random_matrix(rng, n, -5, 5)
            assert compound(m, j) == naive_compound(m, j)

        rng = random.Random(703)
        for _ in range(25):
            n = rng.randint(2, 4)
            j = rng.randint(2, min(3, n))
            mats = [random_matrix(rng, n, -3, 3) for _ in range(j)]
            assert exterior_product(mats) == naive_exterior(mats)


def _sqdd_p_matrix(rng, n):
    """Diagonal-heavy integer matrix, boosted until square dominant and P."""
    base = random_matrix(rng, n, -2, 2)
    shift = 1
    while True:
        m = base + ExactMatrix.diagonal([shift] * n)
        if (
            is_p(m)[0]
            and is_square_diag_dominant(m, "row")[0]
        ):
            return m
        shift += 1


@pytest.fixture(scope="module")
def soundness_corpus():
    """The seed-801 sweep: 20 sign-symmetric and 10 sqdd P-matrices, each
    with its certificate and the seconds spent certifying it.

    Criteria 8 and 9 both read this one fixture, so each sees all 30
    certificates however much of the suite is run, and in any order.
    """
    rng = random.Random(801)
    samples = []
    for i in range(20):
        samples.append(random_spd_matrix(rng, 4 if i % 2 else 5))
    for _ in range(10):
        samples.append(_sqdd_p_matrix(rng, rng.choice([3, 4])))

    corpus = []
    for m in samples:
        start = time.perf_counter()
        cert = certify_stability(m)
        corpus.append((m, cert, time.perf_counter() - start))
    return corpus


def test_criterion_8_theorem_soundness_sweep(soundness_corpus):
    with report(8, "certify 20 sign-symmetric and 10 sqdd P-matrices"):
        start = time.perf_counter()
        for m, cert, _ in soundness_corpus:
            report_m = classify_full(m)
            assert report_m.is_sign_symmetric or report_m.is_row_sqdd
            assert all(v.real > 1e-9 for v in cert.spectrum.eigenvalues)
        certify_seconds = sum(seconds for _, _, seconds in soundness_corpus)
        assert time.perf_counter() - start + certify_seconds < 300.0


def test_criterion_9_homotopy_corroboration(soundness_corpus):
    with report(9, "exact Q^2 holds along the certified homotopy at 5 points"):
        certs = [cert for _, cert, _ in soundness_corpus]
        certs.append(certify_stability(DEMO_A))
        failures = []
        for cert in certs:
            b = cert.b_matrix
            eps = cert.stabilizer.eps
            for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
                scale = [t + (1 - t) * e for e in eps]
                verdict, _, _, witness = is_q2(b.scale_rows(scale))
                if not verdict:
                    failures.append((matrix_hash(cert.matrix)[:12], t, witness.describe()))
        assert not failures, (
            "homotopy Q^2 check failed at sample points: " + "; ".join(
                f"matrix {h} t={t}: {w}" for h, t, w in failures[:4]
            )
        )


def test_criterion_10_spectral_class_samples():
    with report(10, "Kellogg wedge on 50 P-matrices; Q spectra consistency"):
        rng = random.Random(1001)
        for _ in range(50):
            n = rng.randint(2, 5)
            m = random_p_matrix(rng, n)
            spectrum = eigenvalues(m)
            _, slack = wedge_check(spectrum, n, kind="kellogg")
            assert slack > -1e-9

        rng = random.Random(1002)
        for _ in range(50):
            n = rng.randint(2, 5)
            m = random_q_matrix(rng, n)
            for v in eigenvalues(m).eigenvalues:
                if abs(v.imag) <= 1e-9 * (1 + abs(v)):
                    assert v.real > 1e-9
