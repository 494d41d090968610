"""Floating-point spectra and the tolerance-carrying predicates."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_matrix
from pstab import ExactMatrix
from pstab.errors import DoubleRangeError, MatrixArgumentError, NumericToleranceError
from pstab.spectra import (
    eigenvalues,
    is_positively_stable,
    multiset_match,
    wedge_check,
)
from reference import permutation_multiset_match


def test_eigenvalues_of_diagonal_matrix():
    spectrum = eigenvalues(ExactMatrix.diagonal([1, 2, "7/2"]))
    assert multiset_match(spectrum.eigenvalues, [1, 2, 3.5])
    assert spectrum.method == "lapack-geev"


def test_eigenvalues_of_rotation():
    spectrum = eigenvalues(ExactMatrix([[0, -1], [1, 0]]))
    assert multiset_match(spectrum.eigenvalues, [1j, -1j])
    assert not is_positively_stable(spectrum)


def test_eigenvalues_have_no_dimension_cap():
    spectrum = eigenvalues(ExactMatrix.identity(65))
    assert spectrum.eigenvalues == (1,) * 65


def test_eigenvalue_cross_checks_pass_on_random_input():
    rng = random.Random(50)
    for _ in range(10):
        eigenvalues(random_matrix(rng, rng.choice([2, 3, 4, 5])))


def test_eigenvalue_cross_checks_scale_with_the_entries():
    # det = 2 * 10^1200: beyond the double range, each eigenvalue within it
    big = 10**300
    spectrum = eigenvalues(ExactMatrix.diagonal([big, 2 * big, big, big]))
    assert multiset_match(spectrum.eigenvalues, [1e300, 2e300, 1e300, 1e300])
    with pytest.raises(NumericToleranceError):
        eigenvalues(ExactMatrix.diagonal([1, 10**400]))


def test_eigenvalue_cross_checks_scale_with_small_entries(monkeypatch):
    # det diag(1e-5, 1e-5) = 1e-10: a spectrum whose product is 0 is wrong,
    # though it is within n * 1e-8 of the determinant
    import numpy

    m = ExactMatrix.diagonal(["1e-5", "1e-5"])
    assert multiset_match(eigenvalues(m).eigenvalues, [1e-5, 1e-5], 0, 1e-12)
    monkeypatch.setattr(numpy.linalg, "eigvals", lambda _: numpy.array([0, 2e-5]))
    with pytest.raises(NumericToleranceError, match="product"):
        eigenvalues(m)


def test_an_entry_that_no_double_holds_raises_double_range_error():
    # 10^-5000 is nonzero and its double is 0.0; 10^400 overflows
    for big_or_tiny in ("1e-5000", 10**400):
        with pytest.raises(DoubleRangeError):
            eigenvalues(ExactMatrix.diagonal([1, big_or_tiny]))
    # a subnormal double holds 10^-310
    spectrum = eigenvalues(ExactMatrix.diagonal([1, "1e-310"]))
    assert sorted(v.real for v in spectrum.eigenvalues) == [1e-310, 1.0]


@pytest.mark.parametrize(
    "values,missed",
    [([2.0, 4.0], "eigenvalue sum"), ([1.0, 4.0], "eigenvalue product")],
    ids=["sum", "product"],
)
def test_eigenvalues_that_miss_the_exact_trace_or_det_raise(
    monkeypatch, values, missed
):
    # diag(2, 3) has trace 5 and det 6: [2, 4] misses the trace, [1, 4]
    # keeps it and misses the determinant
    import numpy

    monkeypatch.setattr(numpy.linalg, "eigvals", lambda _: numpy.array(values))
    with pytest.raises(NumericToleranceError, match=missed):
        eigenvalues(ExactMatrix.diagonal([2, 3]))


def test_is_positively_stable_margin():
    spectrum = eigenvalues(ExactMatrix.diagonal([1, 5]))
    assert is_positively_stable(spectrum)
    assert is_positively_stable(spectrum, margin=0.5)
    assert not is_positively_stable(spectrum, margin=2.0)


def test_wedge_check_kellogg_boundary():
    # eigenvalues +-i sit exactly on the n = 2 Kellogg boundary pi/2
    spectrum = eigenvalues(ExactMatrix([[0, -1], [1, 0]]))
    verdict, slack = wedge_check(spectrum, 2, kind="kellogg")
    assert not verdict
    assert abs(slack) < 1e-12


def test_wedge_check_one_by_one_is_the_closed_positive_axis():
    # both bounds are 0 at n = 1: a positive entry has slack 0 and passes
    for kind in ("kellogg", "sharpened"):
        assert wedge_check(eigenvalues(ExactMatrix([[5]])), 1, kind=kind) == (True, 0.0)
        verdict, slack = wedge_check(eigenvalues(ExactMatrix([[-5]])), 1, kind=kind)
        assert not verdict and slack < 0


def test_wedge_check_sharpened():
    spectrum = eigenvalues(ExactMatrix.diagonal([1, 2, 3]))
    verdict, slack = wedge_check(spectrum, 3, kind="sharpened")
    assert verdict
    assert abs(slack - (math.pi / 2 - math.pi / 6)) < 1e-12
    with pytest.raises(MatrixArgumentError):
        wedge_check(spectrum, 3, kind="narrow")


def test_multiset_match():
    assert multiset_match([1 + 2j, 3.0], [3.0, 1 + 2j])
    assert not multiset_match([1.0], [1.0, 2.0])
    assert not multiset_match([1.0, 2.0], [1.0, 2.1])
    assert multiset_match([1.0, 2.0], [1.0, 2.0 + 1e-10])


# Values on a grid of quarters, near a line; tolerances about one grid
# step.  Each value is within tolerance of several others, some exactly on
# the boundary, so a pairing that is greedy in list order can miss one that
# exists.
_values = st.builds(
    complex,
    st.integers(-4, 4).map(lambda k: k / 4),
    st.integers(-1, 1).map(lambda k: k / 4),
)
_nudges = st.builds(
    complex,
    st.integers(-2, 2).map(lambda k: k / 8),
    st.integers(-1, 1).map(lambda k: k / 8),
)


@settings(max_examples=400, deadline=None)
@given(
    st.data(),
    st.sampled_from([(0.25, 0.0), (0.2, 0.1), (0.0, 0.3), (1e-8, 1e-8)]),
)
def test_multiset_match_agrees_with_a_search_over_every_pairing(data, tols):
    abs_tol, rel_tol = tols
    a = data.draw(st.lists(_values, max_size=6), label="a")
    if data.draw(st.integers(0, 9), label="kind") < 3:
        b = data.draw(st.lists(_values, max_size=6), label="b")
    else:
        b = [x + data.draw(_nudges) for x in data.draw(st.permutations(a))]
    assert multiset_match(a, b, abs_tol, rel_tol) == permutation_multiset_match(
        a, b, abs_tol, rel_tol
    )
