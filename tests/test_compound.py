"""Compound matrices, exterior products and generalized compounds."""

import ast
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest

from conftest import random_fraction_matrix, random_matrix
import pstab
from pstab import ExactMatrix, det, exactmat
from pstab.compound import (
    compound,
    diag_generalized_compound,
    exterior_product,
    generalized_compound,
)
from pstab.errors import MatrixArgumentError
from pstab.fixtures import DEMO_A, DEMO_COMPOUND_2, DEMO_COMPOUND_3

SRC = pathlib.Path(pstab.__file__).parent


def test_compound_of_identity_is_identity():
    for n in range(1, 6):
        for j in range(1, n + 1):
            c = compound(ExactMatrix.identity(n), j)
            assert c == ExactMatrix.identity(math.comb(n, j))


def test_compound_demo_goldens():
    assert compound(DEMO_A, 2) == DEMO_COMPOUND_2
    assert compound(DEMO_A, 3) == DEMO_COMPOUND_3


def test_compound_extremes():
    rng = random.Random(20)
    m = random_matrix(rng, 4)
    assert compound(m, 1) == m
    assert compound(m, 4) == ExactMatrix([[det(m)]])


def test_compounds_take_no_determinant(monkeypatch):
    # every det and minor reaches integer_det; compounds, and all that is
    # read off them, come from the all-minor generator instead
    calls = []
    integer_det = exactmat.integer_det
    monkeypatch.setattr(
        exactmat, "integer_det", lambda a: calls.append(a) or integer_det(a)
    )
    m = random_fraction_matrix(random.Random(27), 5)
    compound(m, 3)
    generalized_compound(m, 4, 2)
    exterior_product([m, m.transpose(), ExactMatrix.identity(5)])
    assert calls == []
    det(m)  # the per-entry route is counted
    assert len(calls) == 1


def test_compound_order_out_of_range():
    m = ExactMatrix.identity(3)
    with pytest.raises(MatrixArgumentError):
        compound(m, 0)
    with pytest.raises(MatrixArgumentError):
        compound(m, 4)


def test_exterior_product_of_equal_factors_is_compound():
    rng = random.Random(22)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        j = rng.randint(1, min(3, n))
        m = random_matrix(rng, n, -4, 4)
        assert exterior_product([m] * j) == compound(m, j)


def test_exterior_product_is_symmetric_in_factors():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.choice([3, 4])
        mats = [random_matrix(rng, n, -3, 3) for _ in range(3)]
        base = exterior_product(mats)
        for perm in itertools.permutations(mats):
            assert exterior_product(list(perm)) == base


def test_exterior_product_caps():
    m = ExactMatrix.identity(7)
    with pytest.raises(MatrixArgumentError):
        exterior_product([m, m])
    m5 = ExactMatrix.identity(5)
    with pytest.raises(MatrixArgumentError):
        exterior_product([m5] * 5)
    with pytest.raises(MatrixArgumentError):
        exterior_product([])


def test_generalized_compound_vs_exterior_product():
    # A_m^(j) carries the slot-sum normalization: C(j, m) times the
    # averaged exterior product of the same factors
    rng = random.Random(24)
    ident = ExactMatrix.identity(4)
    for _ in range(6):
        m = random_matrix(rng, 4, -3, 3)
        for j in (2, 3):
            for wedge_m in range(1, j + 1):
                factors = [m] * wedge_m + [ident] * (j - wedge_m)
                scale = Fraction(math.comb(j, wedge_m))
                assert (
                    generalized_compound(m, j, wedge_m)
                    == scale * exterior_product(factors)
                )


def test_generalized_compound_full_wedge_is_compound():
    rng = random.Random(25)
    m = random_matrix(rng, 4)
    for j in range(1, 5):
        assert generalized_compound(m, j, j) == compound(m, j)


def test_generalized_compound_range_errors():
    m = ExactMatrix.identity(3)
    with pytest.raises(MatrixArgumentError):
        generalized_compound(m, 2, 0)
    with pytest.raises(MatrixArgumentError):
        generalized_compound(m, 2, 3)
    with pytest.raises(MatrixArgumentError):
        generalized_compound(m, 4, 1)


def test_diag_fast_path_matches_slow_path():
    rng = random.Random(26)
    for _ in range(10):
        n = rng.choice([3, 4, 5])
        entries = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        d = ExactMatrix.diagonal(entries)
        for j in range(1, min(n, 4) + 1):
            for wedge_m in range(1, j + 1):
                fast = diag_generalized_compound(entries, j, wedge_m)
                slow = generalized_compound(d, j, wedge_m)
                assert fast == slow


def test_diag_generalized_compound_identity_counts():
    # all-ones diagonal: entry is e_m(1,...,1) = C(j, m)
    g = diag_generalized_compound([1, 1, 1, 1], 3, 2)
    assert g == Fraction(3) * ExactMatrix.identity(4)


def _imports(module):
    """(module imported from, names imported) of each import statement in
    a pstab module, a relative import resolved against the package."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "pstab." * (node.level > 0) + (node.module or "")
            yield base.rstrip("."), tuple(alias.name for alias in node.names)


def test_pipeline_modules_do_not_import_compound():
    # compound matrices stay behind the CLI's compound and demo commands
    # and serve the tests as oracles; the pipeline uses the char-poly kernel
    for module in ("classify", "nests", "stabilize"):
        imported = set()
        for base, names in _imports(module):
            imported.add(base)
            imported.update(f"{base}.{name}" for name in names)
        assert "pstab.compound" not in imported, f"{module}.py imports pstab.compound"


@pytest.mark.parametrize(
    "module,allowed",
    [("exactmat", {"errors"}), ("compound", {"exactmat", "errors"})],
)
def test_the_minor_kernel_layering(module, allowed):
    # exactmat is the kernel, and compound reads the all-minor generator
    # from it, never from classify
    imported = {
        base for base, _ in _imports(module) if base.split(".")[0] == "pstab"
    }
    assert imported <= {f"pstab.{name}" for name in allowed}, imported
