"""Search and verification of Q^2 chains of principal submatrices."""

import pytest

from pstab import ExactMatrix
from pstab.errors import MatrixArgumentError
from pstab.fixtures import (
    DEMO_A,
    DEMO_CHAIN,
    DEMO_SUB_234_SQUARE_DET,
    DEMO_SUB_234_SQUARE_ORDER2_SUM,
    DEMO_SUB_234_SQUARE_TRACE,
    DEMO_SUB_34_SQUARE_DET,
    DEMO_SUB_34_SQUARE_TRACE,
)
from pstab.nests import (
    NestEvidence,
    NestViolation,
    find_q2_nest,
    verify_nest,
)


def test_demo_nest_chain_and_tau():
    nest = find_q2_nest(DEMO_A)
    assert nest is not None
    assert nest.chain == DEMO_CHAIN
    assert nest.tau == (4, 3, 2, 1)


def test_demo_nest_evidence_values():
    nest = find_q2_nest(DEMO_A)
    levels = {lv.subset: lv for lv in nest.evidence.levels}
    a12 = levels[(3, 4)]
    assert a12.order_sums_square[-1] == DEMO_SUB_34_SQUARE_DET
    assert a12.order_sums_square[0] == DEMO_SUB_34_SQUARE_TRACE
    a1 = levels[(2, 3, 4)]
    assert a1.order_sums_square[-1] == DEMO_SUB_234_SQUARE_DET
    assert a1.order_sums_square[0] == DEMO_SUB_234_SQUARE_TRACE
    assert a1.order_sums_square[1] == DEMO_SUB_234_SQUARE_ORDER2_SUM


def test_verify_nest_round_trip():
    nest = find_q2_nest(DEMO_A)
    evidence = verify_nest(DEMO_A, nest.chain)
    assert isinstance(evidence, NestEvidence)
    assert evidence == nest.evidence


def test_verify_nest_reports_first_violation():
    # the {1,2} submatrix of the demo matrix is Q but its square has
    # negative trace, so a chain through it must fail at level 2
    chain = ((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4))
    violation = verify_nest(DEMO_A, chain)
    assert isinstance(violation, NestViolation)
    assert violation.level == 2
    assert violation.subset == (1, 2)
    assert violation.from_square
    assert "square" in violation.describe()


def test_verify_nest_validates_chain_shape():
    with pytest.raises(MatrixArgumentError):
        verify_nest(DEMO_A, ((1,), (1, 2)))  # wrong number of levels
    with pytest.raises(MatrixArgumentError):
        verify_nest(DEMO_A, ((1,), (2, 3), (1, 2, 3), (1, 2, 3, 4)))  # not nested
    with pytest.raises(MatrixArgumentError):
        verify_nest(DEMO_A, ((1,), (1, 1), (1, 2, 3), (1, 2, 3, 4)))  # repeats
    with pytest.raises(MatrixArgumentError):
        verify_nest(DEMO_A, ((1,), (1, 5), (1, 2, 3), (1, 2, 3, 4)))  # range


def test_find_q2_nest_none_when_full_set_fails():
    assert find_q2_nest(ExactMatrix([[0, 1], [1, 0]])) is None


def test_find_q2_nest_is_deterministic():
    assert find_q2_nest(DEMO_A) == find_q2_nest(DEMO_A)
