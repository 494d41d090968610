"""The brute-force reference implementations against the main path."""

import random

import pytest

from conftest import random_fraction_matrix, random_matrix
from oracle import naive_compound, naive_det, naive_exterior
from pstab import ExactMatrix, det
from pstab.compound import compound, exterior_product
from pstab.fixtures import DEMO_A, DEMO_COMPOUND_2, DEMO_DET


def test_naive_det_basics():
    assert naive_det(ExactMatrix.identity(4)) == 1
    assert naive_det(DEMO_A) == DEMO_DET


def test_naive_det_matches_bareiss():
    rng = random.Random(60)
    for _ in range(20):
        n = rng.choice([1, 2, 3, 4, 5])
        m = random_fraction_matrix(rng, n)
        assert naive_det(m) == det(m)


def test_naive_det_size_cap():
    with pytest.raises(AssertionError):
        naive_det(ExactMatrix.identity(9))


def test_naive_compound_basics():
    assert naive_compound(ExactMatrix.identity(4), 2) == ExactMatrix.identity(6)
    assert naive_compound(DEMO_A, 2) == DEMO_COMPOUND_2


def test_naive_compound_matches_main_path():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        m = random_matrix(rng, n, -5, 5)
        for j in range(1, n + 1):
            assert naive_compound(m, j) == compound(m, j)


@pytest.mark.parametrize("n", range(1, 8))
def test_naive_compound_matches_main_path_on_fraction_entries(n):
    m = random_fraction_matrix(random.Random(40 + n), n)
    for j in range(1, n + 1):
        assert naive_compound(m, j) == compound(m, j)


def test_naive_exterior_all_equal_is_compound():
    rng = random.Random(62)
    m = random_matrix(rng, 4, -3, 3)
    assert naive_exterior([m, m]) == naive_compound(m, 2)
    assert naive_exterior([m, m, m]) == naive_compound(m, 3)


def test_naive_exterior_matches_main_path():
    rng = random.Random(63)
    for _ in range(8):
        n = rng.choice([2, 3, 4])
        j = rng.randint(2, min(3, n))
        mats = [random_matrix(rng, n, -3, 3) for _ in range(j)]
        assert naive_exterior(mats) == exterior_product(mats)


def test_naive_exterior_caps():
    m = ExactMatrix.identity(4)
    with pytest.raises(AssertionError):
        naive_exterior([m, m, m, m])
