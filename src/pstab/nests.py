"""Search for nested sequences of principal submatrices.

The stability theorem needs a maximal chain S_1 in S_2 in ... in S_n of
index sets whose principal submatrices are all Q^2-matrices.  Because the
Q^2 property of a principal submatrix depends only on its index set, the
search walks the subset lattice rather than the n! orderings: verdicts
and failed descents are both memoized by index set, so it takes at most
2^n verdicts, descends from each subset at most once, and looks a verdict
up at most n 2^(n-1) + 1 times.  One reader,
:func:`pstab.classify._level_q2`, gives each verdict on A' = cA cleared
once: one char-poly of A'[S], except for the full set when the caller
passes the verdict that classifying A has already read off its P sweep.

The nest found is its levels' evidence, made by the code that re-verifies
a claimed chain (:func:`pstab.certificate.verify_nest`).
"""

from __future__ import annotations

import functools

from .certificate import _chain_evidence
from .classify import _level_q2
from .exactmat import ExactMatrix


def find_q2_nest(m: ExactMatrix, full=None):
    """Depth-first search for a maximal Q^2 chain; its NestCertificate, or
    None if none exists.

    Descends from the full index set, trying removable indices in
    increasing order, so the returned chain is deterministic.  Each index
    set tried is read once by :func:`pstab.classify._level_q2`, and each
    one that passes is descended from once: a subset below which no chain
    was found is not walked again from another path.  ``full``, the full
    set's Q^2 verdict as :func:`pstab.classify.is_q2` gives it, spares its
    char-poly when the caller has it.
    """
    n = m.n
    q2 = functools.cache(_level_q2(m, full))
    whole = tuple(range(1, n + 1))
    ok, *_ = q2(whole)
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

    chain = descend(whole)
    return None if chain is None else _chain_evidence(chain, q2)
