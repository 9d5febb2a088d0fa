"""Ground truth for transition probabilities, independent of any spectral formula.

The jump rules are encoded directly: a particle of species l hops one site
right at rate b_l when the target site is empty, and trades places with a
right neighbour of strictly smaller species at the same rate b_l.  From
those primitives this module builds the truncated-window generator, solves
the forward equations by uniformization, and draws exact trajectories.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sparse

# default_window is imported so that callers of the oracle can keep finding it here
from .core import ParticleState, RateTable, WordBlock, default_window, validate_state


class WindowTooSmall(ValueError):
    """The requested lattice window does not contain the initial state."""


@dataclass(frozen=True)
class GeneratorWindow:
    """CTMC generator on the states reachable inside a lattice window.

    Rows of ``rate_matrix`` sum to zero except where a rightmost particle
    sits at the window edge; there the deficit equals ``leak_rates``, the
    rate of probability mass exiting the window.
    """

    lo: int
    hi: int
    states: tuple[ParticleState, ...]
    index: dict[ParticleState, int]
    rate_matrix: sparse.csr_matrix
    leak_rates: np.ndarray


@dataclass(frozen=True)
class TrajectorySample:
    seed: int
    final_state: ParticleState
    jump_count: int


def _moves(state: ParticleState, rates: RateTable):
    """Enabled jumps from a state: (rate, successor) pairs, in particle order.

    A hop off the lattice is not a concern here; windows are enforced by the
    caller.  Successors keep positions sorted because a blocked or swapping
    particle never overtakes.
    """
    pos, spc = state.positions, state.species
    n = len(pos)
    out = []
    for i in range(n):
        b = rates.rate(spc[i])
        if i + 1 < n and pos[i + 1] == pos[i] + 1:
            if spc[i] > spc[i + 1]:  # overtaking swap, positions unchanged
                new_spc = spc[:i] + (spc[i + 1], spc[i]) + spc[i + 2 :]
                out.append((b, ParticleState(pos, new_spc)))
            continue  # blocked by an equal or stronger species
        new_pos = pos[:i] + (pos[i] + 1,) + pos[i + 1 :]
        out.append((b, ParticleState(new_pos, spc)))
    return out


def build_generator(
    initial: ParticleState, rates: RateTable, window: Sequence[int]
) -> GeneratorWindow:
    """Generator over every state reachable from ``initial`` within the window.

    States are enumerated breadth-first, so the ordering is deterministic.
    Jumps that would carry a particle past the right edge contribute to the
    diagonal and to ``leak_rates`` but have no destination column.
    """
    validate_state(initial, rates)
    lo, hi = int(window[0]), int(window[1])
    if not (lo <= min(initial.positions) and max(initial.positions) <= hi):
        raise WindowTooSmall(f"initial positions {initial.positions} outside [{lo}, {hi}]")

    states: list[ParticleState] = [initial]
    index: dict[ParticleState, int] = {initial: 0}
    rows, cols, vals = [], [], []
    leak: list[float] = []
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        r = index[state]
        out_rate = 0.0
        leaked = 0.0
        for rate, nxt in _moves(state, rates):
            out_rate += rate
            if max(nxt.positions) > hi:
                leaked += rate
                continue
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
            rows.append(r)
            cols.append(index[nxt])
            vals.append(rate)
        rows.append(r)
        cols.append(r)
        vals.append(-out_rate)
        leak.append(leaked)  # BFS processes states in discovery order, so r == len(leak)
    dim = len(states)
    q = sparse.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(dim, dim)
    )
    return GeneratorWindow(
        lo=lo,
        hi=hi,
        states=tuple(states),
        index=index,
        rate_matrix=q,
        leak_rates=np.array(leak),
    )


def matrix_exponential_row(
    gen: GeneratorWindow, initial: ParticleState, t: float, tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """Row of exp(tQ) for one start state, by uniformization.

    Poisson-weighted powers of the substochastic kernel I + Q/lam keep all
    arithmetic nonnegative.  The series stops once the remaining Poisson
    tail drops below ``tol``.  Returns the probability vector over
    ``gen.states`` and the leaked-mass estimate 1 - sum(entries).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    dim = len(gen.states)
    out = np.zeros(dim)
    out[gen.index[initial]] = 1.0
    if t == 0.0:
        return out, 0.0
    lam = float(-gen.rate_matrix.diagonal().min())
    if lam == 0.0:
        return out, 0.0
    kernel_t = (sparse.identity(dim, format="csr") + gen.rate_matrix / lam).T.tocsr()
    # split the interval so exp(-mu) never underflows; the semigroup property
    # makes chaining the steps exact for the same truncated generator
    steps = max(1, math.ceil(lam * t / 500.0))
    mu = lam * t / steps
    for _ in range(steps):
        v = out
        weight = math.exp(-mu)
        remaining = 1.0 - weight
        out = weight * v
        k = 0
        while remaining > tol / steps:
            v = kernel_t @ v
            k += 1
            weight *= mu / k
            out += weight * v
            remaining -= weight
    return out, float(1.0 - out.sum())


def _run_jumps(initial: ParticleState, rates: RateTable, t: float, rng) -> tuple[ParticleState, int]:
    state = initial
    jumps = 0
    clock = 0.0
    while True:
        moves = _moves(state, rates)
        total = sum(rate for rate, _ in moves)
        clock += rng.exponential(1.0 / total)
        if clock > t:
            return state, jumps
        pick = rng.random() * total
        acc = 0.0
        for rate, nxt in moves:
            acc += rate
            if pick < acc:
                state = nxt
                break
        else:  # guard against roundoff at pick ~ total
            state = moves[-1][1]
        jumps += 1


def sample_trajectory(
    initial: ParticleState, rates: RateTable, t: float, seed: int
) -> TrajectorySample:
    """One exact trajectory, reproducible from its integer seed."""
    validate_state(initial, rates)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    final, jumps = _run_jumps(initial, rates, t, rng)
    return TrajectorySample(seed=seed, final_state=final, jump_count=jumps)


def gillespie(
    initial: ParticleState, rates: RateTable, t: float, n_samples: int, seed: int
) -> dict[ParticleState, int]:
    """Empirical distribution of the state at time t from exact simulation.

    Each trajectory gets its own generator spawned from one seed sequence,
    so results are reproducible and trajectories stay independent even if
    run in parallel.
    """
    validate_state(initial, rates)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    counts: dict[ParticleState, int] = {}
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        rng = np.random.default_rng(child)
        final, _ = _run_jumps(initial, rates, t, rng)
        counts[final] = counts.get(final, 0) + 1
    return counts


# Boundary-equation ingredients on a word block.  These never feed the
# generator above (it works from the jump rules directly); they exist so the
# spectral solution can be checked against the lattice equations it must
# satisfy where particles sit next to each other.


def hop_rate_diag(block: WordBlock, rates: RateTable, slot: int) -> np.ndarray:
    """Diagonal matrix of the rate of the species at a 1-based slot."""
    return np.diag([rates.rate(w[slot - 1]) for w in block.words]).astype(float)


def swap_gain_matrix(block: WordBlock, rates: RateTable, slot: int) -> np.ndarray:
    """Current into a word from the word with slots (slot, slot+1) swapped.

    Row w gains from swap(w) at the rate of the larger species now sitting
    on the right, for ascending rows only.
    """
    out = np.zeros((block.dim, block.dim))
    for r, w in enumerate(block.words):
        i, j = w[slot - 1], w[slot]
        if i < j:
            partner = w[: slot - 1] + (j, i) + w[slot + 1 :]
            c = block.lookup.get(partner)
            if c is not None:
                out[r, c] = rates.rate(j)
    return out


def swap_loss_diag(block: WordBlock, rates: RateTable, slot: int) -> np.ndarray:
    """Current out of a word whose slot pair is descending (a swap can fire)."""
    return np.diag(
        [rates.rate(w[slot - 1]) if w[slot - 1] > w[slot] else 0.0 for w in block.words]
    )
