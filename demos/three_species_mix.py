#!/usr/bin/env python3
"""Three particles, three species, every word of the sector at once.

A descending start word (3,2,1) can sort itself through overtaking swaps, so
all six words of the sector show up over time.  The batch evaluator shares
the contour grid across every target state, which is what makes sweeping a
whole window practical.  The distribution is cross-checked against the
uniformized generator and summed as a stochasticity check.
"""

import time
from collections import defaultdict

from mstasep import (
    ParticleState,
    RateTable,
    build_generator,
    default_window,
    matrix_exponential_row,
    transition_matrix,
)

rates = RateTable((0.7, 1.2, 1.9))
start = ParticleState((0, 1, 2), (3, 2, 1))

for t in (0.25, 1.0):
    gen = build_generator(start, rates, default_window(start, rates, t))
    tic = time.perf_counter()
    results = transition_matrix(start, list(gen.states), t, rates)
    toc = time.perf_counter() - tic
    expm_probs, _ = matrix_exponential_row(gen, start, t)

    word_mass = defaultdict(float)
    for state, res in zip(gen.states, results):
        word_mass[state.species] += res.value
    dev = max(abs(r.value - p) for r, p in zip(results, expm_probs))
    total = sum(r.value for r in results)

    print(f"t={t}: {len(gen.states)} window states in {toc:.1f}s "
          f"({results[0].nodes_used} series terms per moment)")
    print(f"  mass by species word: "
          + "  ".join(f"{''.join(map(str, w))}:{m:.4f}" for w, m in sorted(word_mass.items())))
    print(f"  max |spectral - markov| = {dev:.2e}, window sum = {total:.9f}\n")

print("the lowest species ends up in front: overtaking only sorts descents,")
print("so mass flows from word 321 toward word 123 and never back")
