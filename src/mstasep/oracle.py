"""Ground truth for transition probabilities, independent of any spectral formula.

The jump rules are encoded directly: a particle of species l hops one site
right at rate b_l when the target site is empty, and trades places with a
right neighbour of strictly smaller species at the same rate b_l.  From
those primitives this module builds the truncated-window generator, solves
the forward equations by uniformization, and draws exact trajectories.

The generator is built on arrays: the window's states come from
:func:`core.window_states` as (S, N) int64 position and word tables sorted by
(positions, species), each state's jumps are column masks of those tables,
and destination rows are found by binary search on one integer key per state.
Gillespie trajectories walk plain (positions, species) tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sparse

# default_window is imported so that callers of the oracle can keep finding it here
from .core import (
    ParticleState,
    RateTable,
    WordBlock,
    check_int,
    check_table,
    check_time,
    default_window,
    state_arrays,
    validate_state,
    window_states,
    word_codes,
)

_INT64 = np.iinfo(np.int64)


class WindowTooSmall(ValueError):
    """The requested lattice window does not contain the initial state."""


class WindowTooWide(ValueError):
    """The window is too wide for its states' integer keys to fit int64."""


class _StateList(Sequence[ParticleState]):
    """Read-only view of (S, N) position and word tables as ParticleStates, built when read."""

    __slots__ = ("_positions", "_words")

    def __init__(self, positions: np.ndarray, words: np.ndarray):
        self._positions, self._words = positions, words

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        return ParticleState(tuple(self._positions[k].tolist()), tuple(self._words[k].tolist()))

    def __iter__(self) -> Iterator[ParticleState]:
        for x, w in zip(self._positions.tolist(), self._words.tolist()):
            yield ParticleState(tuple(x), tuple(w))


class _StateIndex(Mapping[ParticleState, int]):
    """Row of each window state, by binary search on its integer key.

    The key reads (positions - lo, word - 1) as the digits of one mixed-radix
    integer, positions first: radix hi - lo + 1 for a position, N for a
    letter.  Keys therefore sort as the rows do, by (positions, species).
    """

    __slots__ = ("_lo", "_hi", "_n", "_keys", "_states")

    def __init__(self, lo: int, hi: int, n: int, keys: np.ndarray, states: _StateList):
        self._lo, self._hi, self._n, self._keys, self._states = lo, hi, n, keys, states

    def __getitem__(self, state) -> int:
        if not isinstance(state, ParticleState):
            raise KeyError(state)
        try:
            positions, words = state_arrays([state], self._n)
            check_table(positions, words, self._n)
        except ValueError:
            raise KeyError(state) from None
        if not self._lo <= positions[0, 0] <= positions[0, -1] <= self._hi:
            raise KeyError(state)
        code = _state_keys(positions, words, self._lo, self._hi)[0]
        k = int(np.searchsorted(self._keys, code))
        if k == len(self._keys) or self._keys[k] != code:
            raise KeyError(state)
        return k

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[ParticleState]:
        return iter(self._states)


def _state_keys(positions: np.ndarray, words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Mixed-radix int64 key of each row of (k, N) position and word tables (see _StateIndex)."""
    n = words.shape[1]
    keys = np.zeros(len(positions), dtype=np.int64)
    for j in range(n):
        keys = keys * (hi - lo + 1) + (positions[:, j] - lo)
    return keys * n**n + word_codes(words, n)


@dataclass(frozen=True)
class GeneratorWindow:
    """CTMC generator on the states reachable inside a lattice window.

    ``positions`` and ``words`` are read-only (S, N) int64 tables, row k the
    k-th state, sorted by (positions, species).  ``states`` views them as
    ParticleStates, each built only when read; ``index`` maps a ParticleState
    to its row in O(log S) and raises KeyError for a state outside the window.

    Rows of ``rate_matrix`` sum to zero except where a rightmost particle
    sits at the window edge; there the deficit equals ``leak_rates``, the
    rate of probability mass exiting the window.
    """

    lo: int
    hi: int
    positions: np.ndarray
    words: np.ndarray
    index: Mapping[ParticleState, int]
    rate_matrix: sparse.csr_matrix
    leak_rates: np.ndarray

    @property
    def states(self) -> Sequence[ParticleState]:
        return _StateList(self.positions, self.words)


@dataclass(frozen=True)
class TrajectorySample:
    seed: int
    final_state: ParticleState
    jump_count: int


def build_generator(
    initial: ParticleState, rates: RateTable, window: Sequence[int]
) -> GeneratorWindow:
    """Generator over every state reachable from ``initial`` within the window.

    ``window`` is a pair of integer sites (lo, hi); a float or bool edge
    raises TypeError, and a window not holding the start raises
    WindowTooSmall.  States are listed by :func:`core.window_states`, sorted by
    (positions, species).  A window whose keys (see :class:`GeneratorWindow`)
    could pass int64, (hi - lo + 1)**N * N**N > 2**63, raises WindowTooWide
    before any array is built.

    Each particle's hop or overtaking swap is one column mask over all states.
    The diagonal sums the enabled rates particle by particle, left to right.
    A hop past ``hi`` adds to the diagonal and to ``leak_rates`` but has no
    destination column.
    """
    validate_state(initial, rates)
    lo, hi = (check_int(v, "a window edge") for v in window)
    if not (lo <= min(initial.positions) and max(initial.positions) <= hi):
        raise WindowTooSmall(f"initial positions {initial.positions} outside [{lo}, {hi}]")
    n = len(initial)
    radix = hi - lo + 1
    if lo < _INT64.min:
        raise ValueError(f"window edge {lo} outside the int64 range")
    if radix**n * n**n > 2**63:
        raise WindowTooWide(f"window [{lo}, {hi}] too wide to key {n}-particle states in int64")

    positions, words = window_states(initial, hi)
    positions.setflags(write=False)
    words.setflags(write=False)
    keys = _state_keys(positions, words, lo, hi)
    b = np.array(rates.rates)[words - 1]
    dim = len(keys)
    out_rate = np.zeros(dim)
    rows, dest, vals = [], [], []
    for i in range(n):
        # a successor's key is the state's plus a fixed step: a hop adds one to position
        # digit i, a swap exchanges word digits i and i + 1
        if i + 1 < n:
            adjacent = positions[:, i + 1] == positions[:, i] + 1
            swap = adjacent & (words[:, i] > words[:, i + 1])
            hop = ~adjacent
            weight = n ** (n - 1 - i) - n ** (n - 2 - i)
            rows.append(np.flatnonzero(swap))
            dest.append(keys[swap] + (words[swap, i + 1] - words[swap, i]) * weight)
            vals.append(b[swap, i])
            moves = swap | hop
        else:
            hop = positions[:, i] < hi
            moves = True
        rows.append(np.flatnonzero(hop))
        dest.append(keys[hop] + radix ** (n - 1 - i) * n**n)
        vals.append(b[hop, i])
        out_rate += np.where(moves, b[:, i], 0.0)
    leak = np.where(positions[:, -1] == hi, b[:, -1], 0.0)
    diag = np.arange(dim)
    cols = np.searchsorted(keys, np.concatenate(dest))
    rows, cols = np.concatenate(rows + [diag]), np.concatenate([cols, diag])
    q = sparse.csr_matrix((np.concatenate(vals + [-out_rate]), (rows, cols)), shape=(dim, dim))
    return GeneratorWindow(
        lo=lo,
        hi=hi,
        positions=positions,
        words=words,
        index=_StateIndex(lo, hi, n, keys, _StateList(positions, words)),
        rate_matrix=q,
        leak_rates=leak,
    )


def matrix_exponential_row(
    gen: GeneratorWindow, initial: ParticleState, t: float, tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """Row of exp(tQ) for one start state, by uniformization.

    Poisson-weighted powers of the substochastic kernel I + Q/lam keep all
    arithmetic nonnegative.  The series stops once the remaining Poisson
    tail drops below ``tol``.  Returns the probability vector over
    ``gen.states`` and the leaked-mass estimate 1 - sum(entries).  A time
    that is not a real number raises TypeError, one not finite and
    nonnegative ValueError.
    """
    check_time(t)
    dim = gen.rate_matrix.shape[0]
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


def _run_jumps(initial: ParticleState, rates: RateTable, t: float, rng) -> tuple[tuple, tuple, int]:
    """Final positions, species and jump count of one trajectory, walked on tuples.

    Enabled jumps are listed in particle order and summed left to right; a
    blocked or swapping particle never overtakes, so positions stay sorted.
    """
    pos, spc = initial.positions, initial.species
    b = rates.rates
    n = len(pos)
    jumps = 0
    clock = 0.0
    while True:
        move_rates, slots = [], []  # slot i hops particle i, slot ~i swaps it with particle i + 1
        for i in range(n):
            if i + 1 < n and pos[i + 1] == pos[i] + 1:
                if spc[i] > spc[i + 1]:  # overtaking swap, positions unchanged
                    move_rates.append(b[spc[i] - 1])
                    slots.append(~i)
                continue  # blocked by an equal or stronger species
            move_rates.append(b[spc[i] - 1])
            slots.append(i)
        total = sum(move_rates)
        clock += rng.exponential(1.0 / total)
        if clock > t:
            return pos, spc, jumps
        pick = rng.random() * total
        acc = 0.0
        for rate, i in zip(move_rates, slots):
            acc += rate
            if pick < acc:
                break
        # past the loop unbroken (roundoff at pick ~ total), the last move fires
        if i < 0:
            i = ~i
            spc = spc[:i] + (spc[i + 1], spc[i]) + spc[i + 2 :]
        else:
            pos = pos[:i] + (pos[i] + 1,) + pos[i + 1 :]
        jumps += 1


def sample_trajectory(
    initial: ParticleState, rates: RateTable, t: float, seed: int
) -> TrajectorySample:
    """One exact trajectory, reproducible from its integer seed.

    ``t`` is checked as in :func:`matrix_exponential_row`, ``seed`` by
    :func:`core.check_int`.
    """
    validate_state(initial, rates)
    check_time(t)
    seed = check_int(seed, "seed")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pos, spc, jumps = _run_jumps(initial, rates, t, rng)
    return TrajectorySample(seed=seed, final_state=ParticleState(pos, spc), jump_count=jumps)


def gillespie(
    initial: ParticleState, rates: RateTable, t: float, n_samples: int, seed: int
) -> dict[ParticleState, int]:
    """Empirical distribution of the state at time t from exact simulation.

    Each trajectory gets its own generator spawned from one seed sequence,
    so results are reproducible and trajectories stay independent even if
    run in parallel.  ``t`` is checked as in :func:`matrix_exponential_row`,
    ``n_samples`` and ``seed`` by :func:`core.check_int`.
    """
    validate_state(initial, rates)
    check_time(t)
    if check_int(n_samples, "n_samples") < 1:
        raise ValueError("n_samples must be at least 1")
    counts: dict[tuple, int] = {}
    for child in np.random.SeedSequence(check_int(seed, "seed")).spawn(n_samples):
        rng = np.random.default_rng(child)
        pos, spc, _ = _run_jumps(initial, rates, t, rng)
        counts[pos, spc] = counts.get((pos, spc), 0) + 1
    return {ParticleState(*final): c for final, c in counts.items()}


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
