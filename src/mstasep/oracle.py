"""Ground truth for transition probabilities, independent of any spectral formula.

The jump rules are encoded once, in :func:`_jump_masks`: a particle of
species l hops one site right at rate b_l when the target site is empty, and
trades places with a right neighbour of strictly smaller species at the same
rate b_l.  From those masks this module builds the truncated-window
generator, solves the forward equations by uniformization, and draws exact
trajectories.

Both work on (S, N) int64 position and word tables.  The generator's states
are the reachable cells of :func:`core.window_grid`, position rows by words,
numbered in (positions, species) order by the grid's running count; a move's
destination is read from a table by rank, the successor row of a hop or the
partner word of a swap, and each generator row's columns come out ascending,
so nothing is sorted or searched per state.  Gillespie holds every sample as
one row, steps all rows in lockstep, and counts each chunk's final rows once.

scipy.sparse is imported inside the two functions that use it, so importing
the package (and ``mstasep prob``, which never calls the oracle) does without
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

# default_window is imported so that callers of the oracle can keep finding it here
from .core import (
    ParticleState,
    RateTable,
    WordBlock,
    check_int,
    check_real,
    check_table,
    check_time,
    default_window,
    finite_positive,
    state_arrays,
    validate_state,
    unique_rows,
    window_grid,
    word_codes,
)

if TYPE_CHECKING:
    import scipy.sparse as sparse

_INT64 = np.iinfo(np.int64)

# bytes of step arrays one chunk of Gillespie samples may hold
_STEP_BUDGET_BYTES = 1 << 24


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
        code = _row_keys(positions, self._lo, self._hi)[0] * self._n**self._n + word_codes(words, self._n)[0]
        k = int(np.searchsorted(self._keys, code))
        if k == len(self._keys) or self._keys[k] != code:
            raise KeyError(state)
        return k

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[ParticleState]:
        return iter(self._states)


def _row_keys(positions: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Mixed-radix int64 key of each row of a (k, N) position table, the positions of a state key."""
    keys = np.zeros(len(positions), dtype=np.int64)
    for j in range(positions.shape[1]):
        keys = keys * (hi - lo + 1) + (positions[:, j] - lo)
    return keys


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


def _jump_masks(positions: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The jump rules: which particles of (S, N) position and word tables may move.

    Returns (S, N) boolean masks ``hop`` and ``swap``.  Particle i may hop one
    site right when that site is empty; the rightmost particle always may, a
    window edge being the caller's to apply.  It may swap with particle i + 1
    when they are adjacent and the right one is of strictly smaller species;
    an adjacent equal or stronger neighbour blocks it.  Either move fires at
    rate ``b[words - 1]``.
    """
    adjacent = np.zeros(positions.shape, dtype=bool)
    adjacent[:, :-1] = positions[:, 1:] == positions[:, :-1] + 1
    swap = adjacent.copy()
    swap[:, :-1] &= words[:, :-1] > words[:, 1:]
    return ~adjacent, swap


def build_generator(
    initial: ParticleState, rates: RateTable, window: Sequence[int]
) -> GeneratorWindow:
    """Generator over every state reachable from ``initial`` within the window.

    ``window`` is a pair of integer sites (lo, hi); a float or bool edge
    raises TypeError, and a window not holding the start raises
    WindowTooSmall.  States are the reachable cells of
    :func:`core.window_grid`, sorted by (positions, species).  A window whose
    keys could pass int64, (hi - y_1 + 1)**N * N**N > 2**63 (the keys count
    sites from the start's leftmost site y_1, left of which no state lies),
    raises WindowTooWide before any array is built.

    The hop and swap masks of :func:`_jump_masks` give each state's moves.
    The diagonal sums the enabled rates particle by particle, left to right.
    A hop past ``hi`` adds to the diagonal and to ``leak_rates`` but has no
    destination column.

    The grid's running count numbers the states, so every destination is
    read from a table: a swap keeps the position row and takes the partner
    word (a (W, N - 1) table), a hop keeps the word and takes the successor
    row (an (R, N) table from one binary search over the R row keys).  A swap
    makes the word, and so the column, smaller, the more so at a lower slot;
    a hop makes the row larger, the more so further left.  So each row's
    columns ascend as swaps from slot 1, the diagonal, and hops from the
    rightmost particle to the leftmost, and the CSR arrays are one boolean
    compress of an (S, 2N) table.
    """
    import scipy.sparse as sparse

    validate_state(initial, rates)
    lo, hi = (check_int(v, "a window edge") for v in window)
    if not (lo <= min(initial.positions) and max(initial.positions) <= hi):
        raise WindowTooSmall(f"initial positions {initial.positions} outside [{lo}, {hi}]")
    n, first = len(initial), min(initial.positions)
    radix = hi - first + 1
    if lo < _INT64.min:
        raise ValueError(f"window edge {lo} outside the int64 range")
    if radix**n * n**n > 2**63:
        raise WindowTooWide(f"window [{first}, {hi}] too wide to key {n}-particle states in int64")

    grid_rows, grid_words, reach = window_grid(initial, hi)
    r, k = np.nonzero(reach)
    # the state number of each reachable cell; int32 where it fits, as scipy would copy int64 indices down
    rank_type = np.int32 if reach.size < 2**31 else np.int64
    rank = np.cumsum(reach, dtype=rank_type).reshape(reach.shape) - 1
    positions, words = grid_rows[r], grid_words[k]
    positions.setflags(write=False)
    words.setflags(write=False)
    row_keys, codes = _row_keys(grid_rows, first, hi), word_codes(grid_words, n)
    # a hop of particle i adds one to position digit i; a swap at slot i exchanges word digits i and i + 1.
    # A blocked hop or an ascending slot has no destination: its table entry is clamped and never read.
    hop_step = np.array([radix ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    successor = np.minimum(np.searchsorted(row_keys, row_keys[:, None] + hop_step), len(row_keys) - 1)
    swap_step = n ** np.arange(n - 1, 0, -1) - n ** np.arange(n - 2, -1, -1)
    descending = grid_words[:, :-1] > grid_words[:, 1:]
    partner = np.searchsorted(codes, codes[:, None] + (grid_words[:, 1:] - grid_words[:, :-1]) * swap_step)
    partner = np.where(descending, partner, 0)

    b = np.array(rates.rates)[words - 1]
    hop, swap = _jump_masks(positions, words)
    out_rate = np.where(hop | swap, b, 0.0).sum(axis=1)
    leak = np.where(positions[:, -1] == hi, b[:, -1], 0.0)
    hop[:, -1] &= positions[:, -1] < hi
    dim = len(positions)
    # (S, 2N) tables, a row's entries in column order: swaps by slot, the diagonal, hops right to left
    entry = np.concatenate([swap[:, :-1], np.ones((dim, 1), dtype=bool), hop[:, ::-1]], axis=1)
    indptr = np.concatenate([[0], np.cumsum(entry.sum(axis=1))])
    at = np.flatnonzero(entry)
    data = np.concatenate([b[:, :-1], -out_rate[:, None], b[:, ::-1]], axis=1).ravel()[at]
    cols = np.concatenate(
        [
            rank[r[:, None], partner[k]],
            np.arange(dim, dtype=rank_type)[:, None],
            rank[successor[r, ::-1], k[:, None]],
        ],
        axis=1,
    )
    q = sparse.csr_matrix((data, cols.ravel()[at], indptr), shape=(dim, dim))
    keys = row_keys[r] * n**n + codes[k]
    return GeneratorWindow(
        lo=lo,
        hi=hi,
        positions=positions,
        words=words,
        index=_StateIndex(first, hi, n, keys, _StateList(positions, words)),
        rate_matrix=q,
        leak_rates=leak,
    )


def matrix_exponential_row(
    gen: GeneratorWindow, initial: ParticleState, t: float, tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """Row of exp(tQ) for one start state, by uniformization.

    Poisson-weighted powers of the substochastic kernel I + Q/lam keep all
    arithmetic nonnegative.  The series stops once the remaining Poisson
    tail drops below ``tol``, or once the Poisson weight underflows to zero
    (the tail estimate has a roundoff floor).  Returns the probability vector
    over ``gen.states`` and the leaked-mass estimate 1 - sum(entries).  A time
    or ``tol`` that is not a real number raises TypeError; a time not finite
    and nonnegative, or a ``tol`` not finite and positive, ValueError.
    """
    import scipy.sparse as sparse

    check_time(t)
    if not finite_positive(check_real(tol, "tol")):
        raise ValueError(f"tol must be finite and positive, got {tol}")
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
        while remaining > tol / steps and weight > 0.0:
            v = kernel_t @ v
            k += 1
            weight *= mu / k
            out += weight * v
            remaining -= weight
    return out, float(1.0 - out.sum())


def _advance(positions: np.ndarray, words: np.ndarray, b: np.ndarray, t: float, rng) -> Iterator[np.ndarray]:
    """Run k trajectories in lockstep to time t, yielding finished rows as (j, 2N) [positions | word].

    Every live row draws one exponential holding time and one uniform per step.
    Rows whose clock passes t are yielded and drop out; each other row fires the
    particle its uniform picks through the cumulative sum of enabled rates.
    """
    clock = np.zeros(len(positions))
    while len(positions):
        hop, swap = _jump_masks(positions, words)
        cum = np.cumsum(np.where(hop | swap, b[words - 1], 0.0), axis=1)
        clock += rng.standard_exponential(len(clock)) / cum[:, -1]
        pick = rng.random(len(clock)) * cum[:, -1]
        over = clock > t
        yield np.hstack([positions[over], words[over]])
        live = ~over
        positions, words, clock, cum, swap, pick = (a[live] for a in (positions, words, clock, cum, swap, pick))
        # the first particle whose cumulative rate passes the uniform; past every one
        # (roundoff at pick ~ total), the rightmost, which can always hop
        i = np.minimum((cum <= pick[:, None]).sum(axis=1), words.shape[1] - 1)
        row = np.arange(len(i))
        swapped = swap[row, i]
        hop_row, hop_i = row[~swapped], i[~swapped]
        if (positions[hop_row, hop_i] == _INT64.max).any():
            raise ValueError(f"a particle at {_INT64.max} cannot hop: its site would pass int64")
        positions[hop_row, hop_i] += 1
        row, i = row[swapped], i[swapped]
        words[row, i], words[row, i + 1] = words[row, i + 1], words[row, i]


def _tally(
    initial: ParticleState, rates: RateTable, t: float, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states :func:`gillespie` draws, as (D, N) position and word tables and (D,) counts.

    Rows are distinct and sorted by (positions, species).  Each chunk's
    finished rows are grouped once, by :func:`core.unique_rows` over their
    2N columns, and merged into the distinct rows of the chunks before.
    """
    validate_state(initial, rates)
    check_time(t)
    if check_int(n_samples, "n_samples") < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(check_int(seed, "seed"))
    n = len(initial)
    start, word = state_arrays([initial], n)
    b = np.array(rates.rates)
    # step arrays peak at 73-454 bytes a sample for N = 1-8 (tracemalloc): under 64 (N + 1)
    chunk = max(1, _STEP_BUDGET_BYTES // (64 * (n + 1)))
    seen, counts = np.empty((0, 2 * n), dtype=np.int64), np.empty(0, dtype=np.int64)
    for first in range(0, n_samples, chunk):
        k = min(chunk, n_samples - first)
        finished = _advance(start.repeat(k, axis=0), word.repeat(k, axis=0), b, t, rng)
        seen, counts = _add_rows(seen, counts, finished)
    return seen[:, :n], seen[:, n:], counts


def _add_rows(
    seen: np.ndarray, counts: np.ndarray, blocks: Iterator[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``seen`` rows and their ``counts``, with every row of ``blocks`` added once.

    A function of its own, so that a chunk's rows are freed before the next chunk steps.
    """
    rows = np.concatenate([seen, *blocks])
    distinct, at = unique_rows(rows)
    merged = np.bincount(at[len(seen) :], minlength=len(distinct))
    np.add.at(merged, at[: len(seen)], counts)
    return rows[distinct], merged


def gillespie(
    initial: ParticleState, rates: RateTable, t: float, n_samples: int, seed: int
) -> dict[ParticleState, int]:
    """Empirical distribution of the state at time t from exact simulation.

    All samples step in lockstep on (samples, N) arrays, drawing from one
    ``np.random.default_rng(seed)``, so counts are reproducible per seed.  They
    advance in chunks of a fixed size set by ``_STEP_BUDGET_BYTES``, so memory
    stays bounded for any ``n_samples``, and each chunk's final states are
    counted in one pass (:func:`_tally`); the dict lists them sorted by
    (positions, species).  ``t`` is checked as in
    :func:`matrix_exponential_row`, ``n_samples`` and ``seed`` by
    :func:`core.check_int`.  A hop past the int64 maximum raises ValueError.
    """
    positions, words, counts = _tally(initial, rates, t, n_samples, seed)
    return {
        ParticleState(tuple(x), tuple(w)): c
        for x, w, c in zip(positions.tolist(), words.tolist(), counts.tolist())
    }


# Boundary-equation ingredients on a word block.  These never feed the
# generator above (it works from the jump rules directly); they exist so the
# spectral solution can be checked against the lattice equations it must
# satisfy where particles sit next to each other.  Each takes the rates as a
# RateTable or an (N, *batch) array and returns (dim, dim, *batch) matrices.


def _diag(d: np.ndarray) -> np.ndarray:
    return np.eye(len(d)).reshape((len(d),) * 2 + (1,) * (d.ndim - 1)) * d[:, None]


def hop_rate_diag(block: WordBlock, rates, slot: int) -> np.ndarray:
    """Diagonal matrix of the rate of the species at a 1-based slot."""
    return _diag(np.asarray(rates, dtype=float)[np.array(block.words)[:, slot - 1] - 1])


def swap_gain_matrix(block: WordBlock, rates, slot: int) -> np.ndarray:
    """Current into a word from the word with slots (slot, slot+1) swapped.

    Row w gains from swap(w) at the rate of the larger species now sitting
    on the right, for ascending rows only.  A block not closed under the
    exchange raises ValueError.
    """
    b = np.asarray(rates, dtype=float)
    _, _, asc, partner, _, _ = block.slot_table(slot)
    out = np.zeros((block.dim, block.dim) + b.shape[1:])
    out[list(asc), list(partner)] = b[np.array(block.words)[list(asc), slot] - 1]
    return out


def swap_loss_diag(block: WordBlock, rates, slot: int) -> np.ndarray:
    """Current out of a word whose slot pair is descending (a swap can fire)."""
    w = np.array(block.words)
    d = np.asarray(rates, dtype=float)[w[:, slot - 1] - 1]
    d[w[:, slot - 1] <= w[:, slot]] = 0.0
    return _diag(d)
