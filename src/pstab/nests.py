"""Search for nested sequences of principal submatrices.

The stability theorem needs a maximal chain S_1 in S_2 in ... in S_n of
index sets whose principal submatrices are all Q^2-matrices.  Because the
Q^2 property of a principal submatrix depends only on its index set, the
search walks the subset lattice (at most 2^n verdicts, memoized) rather
than the n! orderings.  Given the table of principal minors that
:func:`pstab.classify.classify_full` leaves on the report of a P-matrix
(``ClassReport.minor_table``), a verdict is a sum over principal minors
already swept; without it, it is a char-poly of the principal submatrix.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .classify import _table_q2, is_q2
from .errors import MatrixArgumentError
from .exactmat import ExactMatrix, cleared, principal_submatrix, rational_str


class LevelEvidence(namedtuple("LevelEvidence", "subset order_sums order_sums_square")):
    """Order sums for one principal submatrix and its square."""

    __slots__ = ()


class NestEvidence(namedtuple("NestEvidence", "levels")):
    """The LevelEvidence of each chain level, smallest first."""

    __slots__ = ()


class NestViolation(
    namedtuple("NestViolation", "level subset order value from_square")
):
    """First failing level of a candidate chain; ``level`` is its 1-based
    position in the chain."""

    __slots__ = ()

    def describe(self):
        src = "square" if self.from_square else "matrix"
        return (
            f"level {self.level} subset {self.subset}: order-{self.order} "
            f"minor sum of the {src} is {rational_str(self.value)}"
        )


class NestCertificate(namedtuple("NestCertificate", "chain evidence")):
    """A maximal Q^2 chain and the NestEvidence of its levels.

    ``chain`` holds the index sets, sizes 1..n.  Its permutation ``tau`` is
    read off the chain, not stored: it lists the chain inner-to-outer,
    tau[0] the single element of S_1 and tau[k-1] the element added when
    growing S_{k-1} to S_k, so S_k = {tau[0], ..., tau[k-1]}.
    """

    __slots__ = ()

    @property
    def tau(self):
        """:func:`chain_tau` of the chain."""
        return chain_tau(self.chain)


def chain_tau(chain):
    """The permutation a chain defines: the element each level adds."""
    tau = [chain[0][0]]
    for prev, cur in zip(chain, chain[1:]):
        added = set(cur) - set(prev)
        if len(added) != 1:
            raise MatrixArgumentError("chain levels must grow by one index")
        tau.append(added.pop())
    return tuple(tau)


def _validate_chain(chain, n):
    chain = [tuple(sorted(s)) for s in chain]
    if len(chain) != n:
        raise MatrixArgumentError(
            f"chain must have {n} levels, got {len(chain)}"
        )
    for k, s in enumerate(chain, start=1):
        if len(s) != k or len(set(s)) != k:
            raise MatrixArgumentError(f"chain level {k} must have {k} indices")
        if any(not (1 <= i <= n) for i in s):
            raise MatrixArgumentError(f"chain level {k} has out-of-range indices")
        if k > 1 and not set(chain[k - 2]) <= set(s):
            raise MatrixArgumentError(f"chain level {k} does not contain level {k-1}")
    return chain


def _q2_test(m, minor_table):
    """The memoized Q^2 test of A[S] by index set S: read off
    ``minor_table`` (:func:`pstab.classify._table_q2`) when given, else a
    char-poly of each principal submatrix."""
    if minor_table is None:
        return functools.cache(lambda s: is_q2(principal_submatrix(m, s)))
    return functools.cache(_table_q2(minor_table, cleared(m)[1]))


def find_q2_nest(m: ExactMatrix, minor_table=None):
    """Depth-first search for a maximal Q^2 chain; None if none exists.

    Descends from the full index set, trying removable indices in
    increasing order, so the returned chain is deterministic.
    ``minor_table`` is the ``ClassReport.minor_table`` of ``m``, if any.
    """
    n = m.n
    q2 = _q2_test(m, minor_table)
    full = tuple(range(1, n + 1))
    ok, *_ = q2(full)
    if not ok:
        return None

    def descend(subset):
        if len(subset) == 1:
            return [subset]
        for e in subset:
            smaller = tuple(i for i in subset if i != e)
            ok, *_ = q2(smaller)
            if ok:
                tail = descend(smaller)
                if tail is not None:
                    return tail + [subset]
        return None

    chain = descend(full)
    if chain is None:
        return None
    evidence = _chain_evidence(chain, q2)
    assert isinstance(evidence, NestEvidence)
    return NestCertificate(chain=tuple(chain), evidence=evidence)


def _chain_evidence(chain, q2):
    """Evidence for a validated chain, or the first violation."""
    levels = []
    for level, subset in enumerate(chain, start=1):
        ok, sums_m, sums_m2, witness = q2(tuple(subset))
        if not ok:
            return NestViolation(
                level=level,
                subset=tuple(subset),
                order=witness.order,
                value=witness.value,
                from_square=all(s > 0 for s in sums_m),
            )
        levels.append(
            LevelEvidence(
                subset=tuple(subset),
                order_sums=tuple(sums_m),
                order_sums_square=tuple(sums_m2),
            )
        )
    return NestEvidence(levels=tuple(levels))


def verify_nest(m: ExactMatrix, chain, minor_table=None):
    """Re-verify an externally supplied chain.

    Returns NestEvidence when every level is Q^2, otherwise the
    NestViolation for the first failing level.  ``minor_table`` is as in
    :func:`find_q2_nest`.
    """
    chain = _validate_chain(chain, m.n)
    return _chain_evidence(chain, _q2_test(m, minor_table))
