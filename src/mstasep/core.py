"""Domain types and combinatorics shared by the whole package.

States of the particle system pair a strictly increasing position vector
with a species word.  All operator matrices built elsewhere act on one
*sector*: the block of species words sharing a multiset, listed
lexicographically.  Elements of the symmetric group are enumerated
breadth-first from the identity so that every element carries a canonical
reduced word back to the identity.  The states reachable inside a lattice
window are listed directly from the words reachable by overtaking swaps,
each with a floor below which its positions cannot lie, as a grid of
increasing position rows by words.

Each input rule is written once, here: :func:`check_int`, :func:`check_real`
and :func:`check_time` for scalars (a bool is neither integer nor real), and
:func:`check_table` for (T, N) int64 state tables, which :func:`validate_state`
applies to one state, so positions fit int64 on every route.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

_INT64 = np.iinfo(np.int64)


class NonIncreasingPositions(ValueError):
    """Positions violate the exclusion rule (must be strictly increasing)."""


class SpeciesOutOfRange(ValueError):
    """A species label lies outside {1..N}."""


def check_int(v, name: str) -> int:
    """``operator.index(v)``; a bool, float or other non-integer raises TypeError naming ``name``."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {v!r}")


def check_real(v, name: str) -> numbers.Real:
    """``v``; raise TypeError naming ``name`` unless it is a real number (a bool is not)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {v!r}")
    return v


def finite_positive(v: numbers.Real) -> bool:
    """0 < v < inf, compared as a float (a float32 cast of the float maximum overflows)."""
    try:
        return 0 < float(v) <= sys.float_info.max  # also false for NaN
    except OverflowError:  # an int past the float range
        return False


def check_time(t: numbers.Real) -> None:
    """Raise TypeError unless t is a real number (a bool is not), ValueError unless finite and >= 0."""
    check_real(t, "time")
    if not (t == 0 or finite_positive(t)):
        raise ValueError(f"time must be finite and nonnegative, got {t}")


@dataclass(frozen=True)
class RateTable:
    """Jump rates per species, species labelled 1..N.

    Rates must be real numbers (bools and strings raise TypeError), finite
    and strictly positive; they are stored as floats.
    """

    rates: tuple[float, ...]

    def __post_init__(self):
        rates = tuple(check_real(b, "a jump rate") for b in self.rates)
        if len(rates) == 0:
            raise ValueError("rate table must not be empty")
        if not all(map(finite_positive, rates)):
            raise ValueError(f"jump rates must be finite and strictly positive, got {rates}")
        object.__setattr__(self, "rates", tuple(float(b) for b in rates))

    @property
    def n_species(self) -> int:
        return len(self.rates)

    def rate(self, species: int) -> float:
        """Rate of a 1-based species label."""
        return self.rates[species - 1]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The rates as an (N,) array: batched code takes a table or an (N, *batch) array."""
        return np.array(self.rates, dtype=dtype)


@dataclass(frozen=True)
class ParticleState:
    """Ordered particle positions plus the species word.

    ``species[i]`` is the species of the (i+1)-th leftmost particle.
    Hashable, so states can key dictionaries in the Markov-chain oracle.
    """

    positions: tuple[int, ...]
    species: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(check_int(x, "a position") for x in self.positions))
        object.__setattr__(self, "species", tuple(check_int(s, "a species label") for s in self.species))
        if len(self.positions) != len(self.species):
            raise ValueError(
                f"{len(self.positions)} positions but {len(self.species)} species labels"
            )

    def __len__(self) -> int:
        return len(self.positions)


def _int64_rows(rows, n: int, error: type[ValueError], what: str) -> np.ndarray:
    """(len(rows), n) int64 array; an entry past int64 raises ``error`` naming it."""
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, n)
    except OverflowError:
        bad = next(v for row in rows for v in row if not _INT64.min <= v <= _INT64.max)
        raise error(f"{what} {bad} outside the int64 range") from None


def state_arrays(states: Sequence[ParticleState], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(len(states), n) int64 position and word arrays of a list of states.

    A state with other than n particles, or a species label past int64,
    raises SpeciesOutOfRange; a position past int64 raises ValueError.
    """
    bad = next((s for s in states if len(s) != n), None)
    if bad is not None:
        raise SpeciesOutOfRange(f"state {bad} has {len(bad)} particles, not {n}")
    positions = _int64_rows([s.positions for s in states], n, ValueError, "position")
    words = _int64_rows([s.species for s in states], n, SpeciesOutOfRange, "species label")
    return positions, words


def _describe(positions: np.ndarray, words: np.ndarray, k: int) -> str:
    x, w = tuple(positions[k].tolist()), tuple(words[k].tolist())
    return f"{f'target {k}' if len(positions) > 1 else 'state'} (positions {x}, species {w})"


def check_table(positions: np.ndarray, words: np.ndarray, n: int) -> None:
    """Check (T, n) position and word tables against the exclusion and species-range rules.

    Arrays other than int64 raise TypeError and another shape SpeciesOutOfRange.
    Positions not strictly increasing raise NonIncreasingPositions and species
    labels outside 1..n SpeciesOutOfRange, each naming the first bad row.
    """
    if positions.dtype != np.int64 or words.dtype != np.int64:
        raise TypeError(
            f"positions and words must be int64 arrays, got {positions.dtype} and {words.dtype}"
        )
    if positions.ndim != 2 or positions.shape[1:] != (n,) or words.shape != positions.shape:
        raise SpeciesOutOfRange(
            f"states must be (T, {n}) arrays for {n} species, got {positions.shape} and {words.shape}"
        )
    bad = (positions[:, 1:] <= positions[:, :-1]).any(axis=1)
    if bad.any():
        raise NonIncreasingPositions(
            f"{_describe(positions, words, bad.argmax())}: positions are not strictly increasing"
        )
    bad = ((words < 1) | (words > n)).any(axis=1)
    if bad.any():
        raise SpeciesOutOfRange(
            f"{_describe(positions, words, bad.argmax())}: species labels outside 1..{n}"
        )


def validate_state(state: ParticleState, rates: RateTable) -> None:
    """Check a state as a one-row table (see :func:`state_arrays` and :func:`check_table`).

    Raises NonIncreasingPositions or SpeciesOutOfRange, or ValueError for a
    position past int64; returns None when the state is admissible for an
    ``rates.n_species``-particle system.
    """
    n = rates.n_species
    check_table(*state_arrays([state], n), n)


def word_codes(words: np.ndarray, radix: int) -> np.ndarray:
    """Code of each row of a (T, N) word table in base ``radix`` (letter s is digit s - 1), in word order."""
    return (words - 1) @ (radix ** np.arange(words.shape[1] - 1, -1, -1))


def unique_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (K, C) integer table, by one lexsort and its run starts.

    Returns ``(first, inverse)``: ``table[first]`` lists the distinct rows in
    lexicographic order, each at its first occurrence, and ``inverse[j]`` is
    the place of row j among them; for int64 rows the order and inverse of
    ``np.unique(table, axis=0, return_inverse=True)``.
    """
    order = np.lexsort(table.T[::-1])
    ordered = table[order]
    starts = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _swap_table(words: np.ndarray) -> np.ndarray:
    """(N, W) int64: [s, r] the row of word r of a (W, N) table with slots (s, s + 1) exchanged, or -1.

    -1 where the table lacks that word, and on row 0 (slot 0 names no pair).  The words, distinct and
    in any order, are coded in base their largest letter, and one argsort and one searchsorted find
    every exchanged word's code.  A letter below 1, or codes past int64, raise ValueError.
    """
    n, low, radix = words.shape[1], int(words.min()), int(words.max())
    if low < 1 or radix**n > _INT64.max:
        raise ValueError(f"cannot code words of length {n} over letters {low}..{radix} in int64")
    codes = word_codes(words, radix)
    order = np.argsort(codes)
    # exchanging the letters i, j at slots (s, s + 1) adds (j - i)(radix**(N - s) - radix**(N - s - 1))
    step = radix ** np.arange(n - 1, 0, -1) - radix ** np.arange(n - 2, -1, -1)
    swapped = codes[:, None] + (words[:, 1:] - words[:, :-1]) * step
    at = order[np.minimum(np.searchsorted(codes, swapped, sorter=order), len(codes) - 1)]
    table = np.full((n, len(words)), -1, dtype=np.int64)
    table[1:] = np.where(codes[at] == swapped, at, -1).T
    table.flags.writeable = False
    return table


class WordBlock:
    """An ordered, indexed collection of equal-length species words.

    This is the row/column labelling every sector matrix acts on.  Words
    are tuples of 1-based species labels, ``letters`` the same as a
    read-only (dim, N) int64 array and ``swaps`` their :func:`_swap_table`,
    which every route through the two-site factor reads.
    """

    __slots__ = ("words", "lookup", "letters", "swaps")

    def __init__(self, words: Iterable[Sequence[int]]):
        self.words: tuple[tuple[int, ...], ...] = tuple(tuple(w) for w in words)
        if not self.words:
            raise ValueError("word block must contain at least one word")
        length = len(self.words[0])
        if any(len(w) != length for w in self.words):
            raise ValueError("all words in a block must have equal length")
        self.lookup: dict[tuple[int, ...], int] = {w: i for i, w in enumerate(self.words)}
        if len(self.lookup) != len(self.words):
            raise ValueError("duplicate words in block")
        self.letters = np.array(self.words, dtype=np.int64)
        self.letters.flags.writeable = False
        self.swaps = _swap_table(self.letters)

    @property
    def dim(self) -> int:
        return len(self.words)

    @property
    def word_length(self) -> int:
        return len(self.words[0])

    def index(self, word: Sequence[int]) -> int:
        return self.lookup[tuple(word)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({len(self.words)} words of length {self.word_length})"


def _ascending_pairs(block: WordBlock, slot: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ascending at ``slot`` and their partners' rows; ValueError for a bad slot or unclosed block."""
    if not 1 <= slot < block.word_length:
        raise ValueError(f"slot {slot} outside 1..{block.word_length - 1}")
    asc = np.flatnonzero(block.letters[:, slot - 1] < block.letters[:, slot])
    partner = block.swaps[slot, asc]
    if (partner < 0).any():
        w = block.words[asc[partner.argmin()]]
        raise ValueError(f"block lacks {w} swapped at slot {slot}: not closed under the exchange")
    return asc, partner


def build_sector(multiset: Sequence[int]) -> WordBlock:
    """Sector (multiset block) for a species multiset with entries in 1..N.

    The block lists every distinct permutation of the multiset in
    lexicographic order; its size is the multinomial coefficient.  Each
    multiset's block is built once and shared: a block's arrays are read-only.
    """
    ms = tuple(sorted(int(s) for s in multiset))
    n = len(ms)
    if any(not 1 <= s <= n for s in ms):
        raise SpeciesOutOfRange(f"multiset {list(ms)} has labels outside 1..{n}")
    return _sector(ms)


@functools.cache
def _sector(ms: tuple[int, ...]) -> WordBlock:
    return WordBlock(sorted(set(itertools.permutations(ms))))


@dataclass(frozen=True)
class PermutationElem:
    """A permutation in one-line notation with its canonical predecessor link.

    ``image[i-1]`` is the value at slot i (1-based values and slots).  Every
    non-identity element stores the slot of the adjacent transposition that
    produced it from ``pred``, with the inversion count growing by exactly
    one, so following links back to the identity spells a reduced word.
    """

    image: tuple[int, ...]
    parity: int
    slot: Optional[int] = None
    pred: Optional["PermutationElem"] = None

    @property
    def is_identity(self) -> bool:
        return self.pred is None

    def chain(self) -> list["PermutationElem"]:
        """Elements from the identity up to (and including) self."""
        return (self.pred.chain() if self.pred is not None else []) + [self]


@functools.cache
def enumerate_sn(n: int) -> tuple[PermutationElem, ...]:
    """Breadth-first enumeration of the symmetric group on {1..n}, built once per n.

    Starts at the identity; children are produced by swapping an ascent at
    slot i, which raises the inversion count by one.  Each element appears
    once, linked to the first parent that reached it, so the tuple comes out
    sorted by inversion count with the identity first.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    identity = PermutationElem(image=tuple(range(1, n + 1)), parity=1)
    elems = [identity]
    seen = {identity.image}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for parent in frontier:
            w = parent.image
            for slot in range(1, n):
                if w[slot - 1] < w[slot]:  # ascent: swapping adds one inversion
                    child_image = w[: slot - 1] + (w[slot], w[slot - 1]) + w[slot + 1 :]
                    if child_image not in seen:
                        seen.add(child_image)
                        child = PermutationElem(
                            image=child_image, parity=-parent.parity, slot=slot, pred=parent
                        )
                        elems.append(child)
                        next_frontier.append(child)
        frontier = next_frontier
    return tuple(elems)


@functools.cache
def _tree_factors(n: int) -> np.ndarray:
    """(parent, slot, beta, alpha) of the last factor of each :func:`enumerate_sn` element: (4, n!) int64."""
    perms = enumerate_sn(n)
    pos = {elem.image: k for k, elem in enumerate(perms)}
    factor = np.zeros((4, len(perms)), dtype=np.int64)
    for k, elem in enumerate(perms[1:], 1):
        w = elem.pred.image
        factor[:, k] = pos[w], elem.slot, w[elem.slot], w[elem.slot - 1]
    factor.flags.writeable = False
    return factor


# ---------------------------------------------------------------------------
# the states reachable inside a lattice window
# ---------------------------------------------------------------------------


def default_window(initial: ParticleState, rates: RateTable, t: float) -> tuple[int, int]:
    """Window sized so the mass beyond the right edge is negligible.

    The rightmost particle's displacement is dominated by a Poisson count
    at the largest rate; ten standard deviations plus a constant margin
    push the tail below 1e-9.  ``t`` is checked by :func:`check_time`.
    """
    check_time(t)
    bmax = max(rates.rates)
    margin = math.ceil(bmax * t + 10.0 * math.sqrt(bmax * t) + 10.0)
    return min(initial.positions), max(initial.positions) + margin


def word_floors(initial: ParticleState) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every word reachable from the start by overtaking swaps, with its position floor.

    A swap at slot i exchanges the descending letters at slots (i, i+1) and
    needs those two particles adjacent, so it raises the floor z_i to
    max(z_i, z_{i+1} - 1); the start's floor is its own positions.  The
    floor does not depend on the path: each pair of particles swaps at most
    once, so the paths to a word are the reduced words of one permutation,
    commuting swaps touch different entries and both sides of a braid move
    give the same floor.  Words come in breadth-first order.
    """
    floors = {initial.species: initial.positions}
    words = [initial.species]
    for w in words:  # grows while it is walked: a breadth-first queue
        z = floors[w]
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                if swapped not in floors:
                    floors[swapped] = z[:i] + (max(z[i], z[i + 1] - 1),) + z[i + 1 :]
                    words.append(swapped)
    return floors


def _floor_table(initial: ParticleState) -> tuple[np.ndarray, np.ndarray]:
    """The words :func:`word_floors` reaches, in lexicographic order, and their floors: (W, N) int64 each."""
    words, floors = zip(*sorted(word_floors(initial).items()))
    return np.array(words, dtype=np.int64), np.array(floors, dtype=np.int64)


def _increasing_rows(floor: Sequence[int], hi: int) -> np.ndarray:
    """Strictly increasing int64 rows x >= floor with x[-1] <= hi, in lexicographic order."""
    n = len(floor)
    rows = np.arange(floor[0], hi - n + 2, dtype=np.int64)[:, None]
    for i in range(1, n):
        low = np.maximum(rows[:, -1] + 1, floor[i])
        count = np.maximum(hi - (n - 1 - i) - low + 1, 0)
        rows = np.repeat(rows, count, axis=0)
        col = np.repeat(low - (np.cumsum(count) - count), count) + np.arange(len(rows))
        rows = np.column_stack([rows, col])
    return rows


def window_grid(initial: ParticleState, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states of :func:`window_states` as a grid of position rows by words.

    Returns ``(rows, words, reach)``: the strictly increasing (R, N) int64 rows
    x >= the start's positions with x_N <= hi, and the (W, N) int64 words
    :func:`word_floors` reaches, each in lexicographic order, and the (R, W)
    mask of the pairs with floor(w) <= x.  Every floor lies above the start's
    positions, so the mask holds every reachable state, and it reads row-major
    in (positions, species) order.  An edge outside the int64 range raises
    ValueError.
    """
    if hi >= _INT64.max:  # x_N + 1 must fit int64 too
        raise ValueError(f"window edge {hi} outside the int64 range")
    words, floor = _floor_table(initial)
    rows = _increasing_rows(initial.positions, hi)
    reach = np.ones((len(rows), len(words)), dtype=bool)
    for j in range(len(initial)):
        reach &= rows[:, j, None] >= floor[:, j]
    return rows, words, reach


def window_size(initial: ParticleState, hi: int) -> int:
    """The number of states :func:`window_states` lists, counted exactly without listing them.

    Per reachable word, u_i = x_i - i runs over the nondecreasing rows with u_i >= L_i, L the
    running maximum of floor_i - i, and u_N <= hi - N + 1.  The bounds cut that range into
    intervals; column by column, ``ways[i]`` counts the placements of the first i columns in
    the intervals so far, and k columns share an interval of m values in C(m + k - 1, k) ways.
    Python integers: no count wraps, however wide the window.
    """
    n, top, total = len(initial), hi - len(initial) + 1, 0
    for floor in word_floors(initial).values():
        low = list(itertools.accumulate((z - i for i, z in enumerate(floor)), max))
        cuts = sorted({v for v in low if v <= top} | {top + 1})
        ways = [1] + [0] * n
        for lo, end in zip(cuts, cuts[1:]):
            placed = ways[:]
            for i in range(n):  # ways[i] times the columns i .. i + k - 1 placed in [lo, end)
                for k in range(1, n - i + 1):
                    if low[i + k - 1] > lo:
                        break
                    placed[i + k] += ways[i] * math.comb(end - lo + k - 1, k)
            ways = placed
        total += ways[n]
    return total


def window_states(initial: ParticleState, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Every state reachable from ``initial`` with no particle right of site ``hi``.

    Particles only move right, so a window's left edge never binds.  A state
    (x, w) is reachable iff w is reachable by overtaking swaps and x is
    strictly increasing with floor(w) <= x componentwise and x_N <= hi (see
    :func:`word_floors`).  Returns (T, N) int64 position and word arrays,
    sorted by (positions, species): the reachable cells of
    :func:`window_grid`, read row-major.  An edge outside the int64 range
    raises ValueError.
    """
    rows, words, reach = window_grid(initial, hi)
    r, k = np.nonzero(reach)
    return rows[r], words[k]
