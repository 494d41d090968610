"""The three workloads: which generator fills each slot of the corpus.

A workload maps a seeded ``random.Random`` to a list of
(label, matrix rows, Truth or None).  Slots are drawn in order from the
one generator, so a seed fixes the whole corpus.  README.md gives the
reasons for each make-up.
"""

from __future__ import annotations

import corpus

# Margin by which screen's certified inputs are raised past the least
# P-making diagonal shift.  At margin 0 about one boosted n = 6 P and
# Q^2 matrix in twenty trips pstab's level-search fault; the margin keeps
# seeded inputs off it, and LEVEL_SEARCH_FAULT keeps the fault in the run.
SCREEN_MARGIN = 4


def classical(rng):
    """The two classes the paper generalises, n = 5 and 6."""
    return [
        ("spd5", corpus.spd(rng, 5), None),
        ("rowdom5", *corpus.row_dominant(rng, 5)),
        ("spd6", corpus.spd(rng, 6), None),
        ("rowdom6", *corpus.row_dominant(rng, 6)),
        ("rowdom6", *corpus.row_dominant(rng, 6)),
    ]


def skewed(rng):
    """The paper's own class: P and Q^2 with a nest, neither sign-symmetric
    nor square diagonally dominant, n = 4 and 6."""
    return [
        ("demo", corpus.DEMO_A, None),
        ("demo-perturbed", *corpus.demo_perturbation(rng)),
        ("demo-perturbed", *corpus.demo_perturbation(rng)),
        ("demo-embedded6", *corpus.demo_embedding(rng, 6)),
        ("demo-embedded6", *corpus.demo_embedding(rng, 6)),
        ("demo-embedded6", *corpus.demo_embedding(rng, 6)),
    ]


def screen(rng):
    """Screening random Jacobians, n = 6..8: mostly refutations, plus two
    fixed inputs that trip known faults."""
    return [
        ("nonp6", *corpus.non_p(rng, 6)),
        ("boosted6-notq2", *corpus.boosted(rng, 6, want_q2=False, margin=0)),
        ("boosted6", *corpus.boosted(rng, 6, want_q2=True, margin=SCREEN_MARGIN)),
        ("boosted6", *corpus.boosted(rng, 6, want_q2=True, margin=SCREEN_MARGIN)),
        ("boosted6", *corpus.boosted(rng, 6, want_q2=True, margin=SCREEN_MARGIN)),
        ("nonp7", *corpus.non_p(rng, 7)),
        ("fault-level-search", corpus.LEVEL_SEARCH_FAULT, None),
        ("fault-n8", corpus.N8_NON_P, None),
    ]


WORKLOADS = {"classical": classical, "skewed": skewed, "screen": screen}
