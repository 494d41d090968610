"""Bundled demo matrices with their independently verified quantities.

DEMO_A is the stock 4-by-4 example the demo subcommand walks through: a
P-matrix that is neither sign-symmetric nor square diagonally dominant,
yet carries a maximal Q^2 chain and so certifies as positively stable.
Every reference value below was recomputed with the brute-force routines
of the test suite's ``oracle`` module before being frozen here.
"""

from fractions import Fraction

from .exactmat import ExactMatrix

DEMO_A = ExactMatrix(
    [
        [6, -30, 1, 1],
        [1, 2, 1, -5],
        [1, 1, 10, -10],
        [1, 1, 1, 10],
    ]
)

# Scaling that breaks the naive diagonal-rescaling argument: the square of
# diag(1, 1, 1/10, 1/10) * DEMO_A has negative trace.
DEMO_D = [Fraction(1), Fraction(1), Fraction(1, 10), Fraction(1, 10)]

DEMO_DET = Fraction(5491)

DEMO_COMPOUND_2 = ExactMatrix(
    [
        [42, 5, -31, -32, 148, -6],
        [36, 59, -61, -301, 299, -20],
        [36, 5, 59, -31, -301, 9],
        [-1, 9, -5, 19, -15, 40],
        [-1, 0, 15, 1, 25, 15],
        [0, -9, 20, -9, 20, 110],
    ]
)

DEMO_COMPOUND_3 = ExactMatrix(
    [
        [383, -241, 254, -1166],
        [5, 599, 75, -474],
        [-324, 720, 631, -3329],
        [9, -20, 135, 245],
    ]
)

DEMO_SQUARE = ExactMatrix(
    [
        [8, -238, -13, 156],
        [4, -30, 8, -69],
        [7, -28, 92, -204],
        [18, -17, 22, 86],
    ]
)

# Order sums of the square: trace, order-2, order-3, determinant.
DEMO_SQUARE_ORDER_SUMS = (
    Fraction(156),
    Fraction(5530),
    Fraction(3816),
    Fraction(30151081),
)

DEMO_SCALED_SQUARE_TRACE = Fraction(-93, 5)

# The maximal Q^2 chain found by deleting rows/columns 1, 2, 3 in turn.
DEMO_CHAIN = ((4,), (3, 4), (2, 3, 4), (1, 2, 3, 4))

# Order sums of the squares of the chain levels A1 = A[2,3,4], A12 = A[3,4].
DEMO_SUB_234_SQUARE_DET = Fraction(60025)
DEMO_SUB_234_SQUARE_TRACE = Fraction(176)
DEMO_SUB_234_SQUARE_ORDER2_SUM = Fraction(12936)
DEMO_SUB_34_SQUARE_DET = Fraction(12100)
DEMO_SUB_34_SQUARE_TRACE = Fraction(180)

# Reference eigenvalues (two conjugate pairs), accurate to ~1e-4.
DEMO_EIGENVALUES = (
    complex(10.1979, 2.0302),
    complex(10.1979, -2.0302),
    complex(3.80215, 6.02751),
    complex(3.80215, -6.02751),
)
