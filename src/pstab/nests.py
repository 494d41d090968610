"""Search for nested sequences of principal submatrices.

The stability theorem needs a maximal chain S_1 in S_2 in ... in S_n of
index sets whose principal submatrices are all Q^2-matrices.  Because the
Q^2 property of a principal submatrix depends only on its index set, the
search walks the subset lattice rather than the n! orderings: verdicts
and failed descents are both memoized by index set, so it takes at most
2^n verdicts, descends from each subset at most once, and looks a verdict
up at most n 2^(n-1) + 1 times.  One reader,
:func:`pstab.classify._level_q2`, gives each verdict on A' = cA cleared
once: one char-poly of A'[S].

A nest is its levels (:class:`NestCertificate`): the chain and its
permutations are read off the levels' evidence, so the two cannot disagree.
A chain that is not a Q^2 nest raises MatrixArgumentError.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .classify import _level_q2
from .errors import MatrixArgumentError
from .exactmat import ExactMatrix, rational_str


class LevelEvidence(namedtuple("LevelEvidence", "subset order_sums order_sums_square")):
    """Order sums for one principal submatrix and its square."""

    __slots__ = ()


class NestCertificate(namedtuple("NestCertificate", "levels")):
    """A maximal Q^2 chain, held as the LevelEvidence of its levels,
    smallest first; the chain, ``tau`` and ``theta`` are read off them.

    ``chain`` holds the levels' index sets, sizes 1..n.  Its permutation
    ``tau`` lists the chain inner-to-outer, tau[0] the single element of
    S_1 and tau[k-1] the element added when growing S_{k-1} to S_k, so
    S_k = {tau[0], ..., tau[k-1]}.  ``theta`` is the permutation
    theta(tau[k-1]) = n - k + 1 by which :func:`pstab.stabilize.build_B`
    conjugates A, listed as (theta(1), ..., theta(n)).
    """

    __slots__ = ()

    @property
    def chain(self):
        return tuple(level.subset for level in self.levels)

    @property
    def tau(self):
        """:func:`chain_tau` of the chain."""
        return chain_tau(self.chain)

    @property
    def theta(self):
        tau = self.tau
        return tuple(len(tau) - tau.index(i) for i in range(1, len(tau) + 1))


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
    try:
        chain = [tuple(s) for s in chain]
    except TypeError as exc:  # a chain or a level that is not a collection
        raise MatrixArgumentError(f"chain is not a list of index sets: {exc}") from None
    if any(type(i) is not int for s in chain for i in s):  # a bool would be JSON true
        raise MatrixArgumentError("chain indices must be ints")
    chain = [tuple(sorted(s)) for s in chain]
    if len(chain) != n:
        raise MatrixArgumentError(
            f"chain must have {n} levels, got {len(chain)}"
        )
    for k, s in enumerate(chain, start=1):
        if len(s) != k or len(set(s)) != k:
            raise MatrixArgumentError(f"chain level {k} must have {k} indices")
        if any(not 1 <= i <= n for i in s):
            raise MatrixArgumentError(f"chain level {k} has out-of-range indices")
        if k > 1 and not set(chain[k - 2]) <= set(s):
            raise MatrixArgumentError(f"chain level {k} does not contain level {k-1}")
    return chain


def find_q2_nest(m: ExactMatrix):
    """Depth-first search for a maximal Q^2 chain; its NestCertificate, or
    None if none exists.

    Descends from the full index set, trying removable indices in
    increasing order, so the returned chain is deterministic.  Each index
    set tried is read once by :func:`pstab.classify._level_q2`, and each
    one that passes is descended from once: a subset below which no chain
    was found is not walked again from another path.
    """
    n = m.n
    q2 = functools.cache(_level_q2(m))
    full = tuple(range(1, n + 1))
    ok, *_ = q2(full)
    if not ok:
        return None

    @functools.cache
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
    return None if chain is None else _chain_evidence(chain, q2)


def _chain_evidence(chain, q2):
    """The NestCertificate of a validated chain; raises MatrixArgumentError
    naming its first level that is not Q^2, by 1-based position."""
    levels = []
    for level, subset in enumerate(chain, start=1):
        ok, sums_m, sums_m2, witness = q2(subset)
        if not ok:
            src = "square" if all(s > 0 for s in sums_m) else "matrix"
            raise MatrixArgumentError(
                f"level {level} subset {subset}: order-{witness.order} "
                f"minor sum of the {src} is {rational_str(witness.value)}"
            )
        levels.append(LevelEvidence(subset, tuple(sums_m), tuple(sums_m2)))
    return NestCertificate(tuple(levels))


def verify_nest(m: ExactMatrix, chain):
    """Re-verify an externally supplied chain.

    Returns the NestCertificate of the validated chain, each level's index
    set sorted, when every level is Q^2; otherwise raises
    MatrixArgumentError for the chain's shape or naming its first level
    that is not Q^2.  Each level takes one char-poly
    (:func:`pstab.classify._level_q2`), up to the first that fails.
    """
    chain = _validate_chain(chain, m.n)
    return _chain_evidence(chain, _level_q2(m))
