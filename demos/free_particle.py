#!/usr/bin/env python3
"""A single particle is a Poisson counting process.

With one particle there is no interaction at all: the walker hops right at
its species rate b, so the displacement after time t is Poisson(b*t).  The
spectral formula reproduces the pmf to near machine precision, which makes
this the simplest end-to-end sanity check of the residue series.
"""

import math

from mstasep import ParticleState, RateTable, transition_matrix

b, t = 1.4, 2.0
rates = RateTable((b,))
start = ParticleState((0,), (1,))
targets = [ParticleState((x,), (1,)) for x in range(13)]

results = transition_matrix(start, targets, t, rates)

print(f"one particle, rate b={b}, time t={t} (mean displacement {b * t:.2f})")
print(f"{'x':>3} {'computed':>22} {'poisson pmf':>22} {'abs diff':>10}")
for x, res in enumerate(results):
    exact = math.exp(-b * t) * (b * t) ** x / math.factorial(x)
    print(f"{x:>3} {res.value:>22.16f} {exact:>22.16f} {abs(res.value - exact):>10.1e}")
print(f"\nseries terms per moment: {results[0].nodes_used}, "
      f"largest error bound: {max(r.est_error for r in results):.1e}")
