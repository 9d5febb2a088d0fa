"""Domain types and combinatorics shared by the whole package.

States of the particle system pair a strictly increasing position vector
with a species word.  All operator matrices built elsewhere act on one
*sector*: the block of species words sharing a multiset, listed
lexicographically.  Elements of the symmetric group are enumerated
breadth-first from the identity so that every element carries a canonical
reduced word back to the identity.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class NonIncreasingPositions(ValueError):
    """Positions violate the exclusion rule (must be strictly increasing)."""


class SpeciesOutOfRange(ValueError):
    """A species label lies outside {1..N}."""


def finite_positive(v: numbers.Real) -> bool:
    """0 < v < inf, compared as a float (a float32 cast of the float maximum overflows)."""
    try:
        return 0 < float(v) <= sys.float_info.max  # also false for NaN
    except OverflowError:  # an int past the float range
        return False


@dataclass(frozen=True)
class RateTable:
    """Jump rates per species, species labelled 1..N.

    Rates must be real numbers (bools and strings raise TypeError), finite
    and strictly positive; they are stored as floats.
    """

    rates: tuple[float, ...]

    def __post_init__(self):
        rates = tuple(self.rates)
        if len(rates) == 0:
            raise ValueError("rate table must not be empty")
        if any(isinstance(b, bool) or not isinstance(b, numbers.Real) for b in rates):
            raise TypeError(f"jump rates must be real numbers, got {rates}")
        if not all(map(finite_positive, rates)):
            raise ValueError(f"jump rates must be finite and strictly positive, got {rates}")
        object.__setattr__(self, "rates", tuple(float(b) for b in rates))

    @property
    def n_species(self) -> int:
        return len(self.rates)

    def rate(self, species: int) -> float:
        """Rate of a 1-based species label."""
        return self.rates[species - 1]


@dataclass(frozen=True)
class ParticleState:
    """Ordered particle positions plus the species word.

    ``species[i]`` is the species of the (i+1)-th leftmost particle.
    Hashable, so states can key dictionaries in the Markov-chain oracle.
    """

    positions: tuple[int, ...]
    species: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(map(operator.index, self.positions)))
        object.__setattr__(self, "species", tuple(map(operator.index, self.species)))
        if len(self.positions) != len(self.species):
            raise ValueError(
                f"{len(self.positions)} positions but {len(self.species)} species labels"
            )

    def __len__(self) -> int:
        return len(self.positions)


def validate_state(state: ParticleState, rates: RateTable) -> None:
    """Check a state against the exclusion and species-range invariants.

    Raises NonIncreasingPositions or SpeciesOutOfRange; returns None when
    the state is admissible for an ``rates.n_species``-particle system.
    """
    n = rates.n_species
    if len(state) != n:
        raise SpeciesOutOfRange(
            f"state has {len(state)} particles but the rate table declares {n} species"
        )
    for a, b in zip(state.positions, state.positions[1:]):
        if a >= b:
            raise NonIncreasingPositions(f"positions {state.positions} are not strictly increasing")
    for s in state.species:
        if not 1 <= s <= n:
            raise SpeciesOutOfRange(f"species label {s} outside 1..{n}")


class WordBlock:
    """An ordered, indexed collection of equal-length species words.

    This is the row/column labelling every sector matrix acts on.  Words
    are tuples of 1-based species labels.
    """

    __slots__ = ("words", "lookup", "_slot_tables")

    def __init__(self, words: Iterable[Sequence[int]]):
        self._slot_tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        self.words: tuple[tuple[int, ...], ...] = tuple(tuple(w) for w in words)
        if not self.words:
            raise ValueError("word block must contain at least one word")
        length = len(self.words[0])
        if any(len(w) != length for w in self.words):
            raise ValueError("all words in a block must have equal length")
        self.lookup: dict[tuple[int, ...], int] = {w: i for i, w in enumerate(self.words)}
        if len(self.lookup) != len(self.words):
            raise ValueError("duplicate words in block")

    @property
    def dim(self) -> int:
        return len(self.words)

    @property
    def word_length(self) -> int:
        return len(self.words[0])

    def index(self, word: Sequence[int]) -> int:
        return self.lookup[tuple(word)]

    def slot_table(self, slot: int) -> tuple[tuple[int, ...], ...]:
        """Rows classed by the letters (i, j) at 1-based slots (slot, slot+1).

        Returns ``(descending, equal, ascending, partner, equal_letter,
        ascending_letter)``: rows with i > j, i == j and i < j, the row of each
        ascending row with i and j swapped, and the i of each equal and
        ascending row.  Cached per slot; raises ValueError for a bad slot or a
        block not closed under the exchange.
        """
        if slot not in self._slot_tables:
            if not 1 <= slot < self.word_length:
                raise ValueError(f"slot {slot} outside 1..{self.word_length - 1}")
            desc, eq, asc, partner, eq_letter, asc_letter = rows = ([], [], [], [], [], [])
            for r, w in enumerate(self.words):
                i, j = w[slot - 1], w[slot]
                if i > j:
                    desc.append(r)
                elif i == j:
                    eq.append(r)
                    eq_letter.append(i)
                else:
                    swapped = w[: slot - 1] + (j, i) + w[slot + 1 :]
                    if swapped not in self.lookup:
                        raise ValueError(f"block lacks {swapped}: not closed under the exchange")
                    asc.append(r)
                    partner.append(self.lookup[swapped])
                    asc_letter.append(i)
            self._slot_tables[slot] = tuple(map(tuple, rows))
        return self._slot_tables[slot]

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({len(self.words)} words of length {self.word_length})"


def build_sector(multiset: Sequence[int]) -> WordBlock:
    """Sector (multiset block) for a species multiset with entries in 1..N.

    The block lists every distinct permutation of the multiset in
    lexicographic order; its size is the multinomial coefficient.
    """
    ms = sorted(int(s) for s in multiset)
    n = len(ms)
    if any(not 1 <= s <= n for s in ms):
        raise SpeciesOutOfRange(f"multiset {ms} has labels outside 1..{n}")
    return WordBlock(sorted(set(itertools.permutations(ms))))


def sector_size(multiset: Sequence[int]) -> int:
    """Multinomial coefficient: number of distinct words over the multiset."""
    n = math.factorial(len(multiset))
    for _, group in itertools.groupby(sorted(multiset)):
        n //= math.factorial(sum(1 for _ in group))
    return n


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
        out: list[PermutationElem] = []
        elem: Optional[PermutationElem] = self
        while elem is not None:
            out.append(elem)
            elem = elem.pred
        out.reverse()
        return out


def inversions(word: Sequence[int]) -> int:
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def enumerate_sn(n: int) -> list[PermutationElem]:
    """Breadth-first enumeration of the symmetric group on {1..n}.

    Starts at the identity; children are produced by swapping an ascent at
    slot i, which raises the inversion count by one.  Each element appears
    once, linked to the first parent that reached it, so the list comes out
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
    return elems
