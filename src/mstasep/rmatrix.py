"""Two-particle scattering amplitudes and the operator calculus built on them.

The two-site matrix ``R`` couples a pair of spectral variables (xi_beta,
xi_alpha) to a pair of species slots.  Embedding ``R`` at one slot pair of
an N-letter word gives the operators whose ordered products are the
amplitude matrices ``A_sigma`` attached to permutations.  Everything here
acts on one word block (sector) at a time; the full tensor-product
operators are block-diagonal across sectors, which the test-suite checks
rather than assumes.

The factor has one encoding.  :meth:`WordBlock.slot_table` in ``core`` classes
the rows of a block at a slot, and :func:`amplitudes` is the only S/T
expression.  :func:`embed_T_l` builds the dense factor from the two (at
``slot=1`` of a block of species pairs it is the two-site matrix ``R``
itself); :class:`SlotAction` applies the same factor to batches of grid
points for the kernel in ``bethe``.

:func:`product_along_slots` is the one dense product; :func:`build_A_sigma`,
:func:`build_all_A` and :func:`consistency_residuals` call it.  Dense matrices
are plain (dim, dim) complex arrays in the block's word order.

Spectral index arguments (``beta``, ``alpha``, ...) are 1-based positions
into a :class:`SpectralPoint`; species arguments are 1-based labels into a
:class:`RateTable`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from .core import (
    PermutationElem,
    RateTable,
    WordBlock,
    build_sector,
    enumerate_sn,
)

# |1 - b*xi| below this (scaled by max(1, b)) counts as sitting on a pole.
POLE_THRESHOLD = 1e-13


class PoleOnContour(ArithmeticError):
    """A spectral value hit the pole 1/b of an amplitude denominator."""


@dataclass(frozen=True)
class SpectralPoint:
    """One tuple of spectral values, one per quadrature dimension: finite and nonzero."""

    xi: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(complex(z) for z in self.xi))
        if not all(z != 0 and cmath.isfinite(z) for z in self.xi):
            raise ValueError(f"spectral values must be finite and nonzero, got {self.xi}")

    def __len__(self) -> int:
        return len(self.xi)


def contour_bound(rates: RateTable) -> float:
    """Largest admissible contour radius.

    Keeps every amplitude pole 1/b_l strictly outside the circle and also
    respects the radius < b_l convention for rates below one.
    """
    return min(min(rates.rates), 1.0 / max(rates.rates))


def amplitudes(b, xi_beta, xi_alpha):
    """Pass-through and exchange amplitudes (S, T) of a species with rate b.

    Plain operators in division form: Python scalars and broadcast numpy
    arrays get the same expression, so the dense and grid factors agree.
    """
    denom = 1.0 - b * xi_alpha
    return -(1.0 - b * xi_beta) / denom, b * (xi_beta - xi_alpha) / denom


def _species_amplitudes(species: int, xi_beta: complex, xi_alpha: complex, rates: RateTable):
    b = rates.rate(species)
    if abs(1.0 - b * xi_alpha) < POLE_THRESHOLD * max(1.0, b):
        raise PoleOnContour(f"1 - b*xi vanished for species {species} at xi={xi_alpha}")
    return amplitudes(b, xi_beta, xi_alpha)


def embed_T_l(
    slot: int,
    beta: int,
    alpha: int,
    sp: SpectralPoint,
    rates: RateTable,
    block: WordBlock,
) -> np.ndarray:
    """Two-site matrix acting on slots (slot, slot+1) of N-letter words.

    Identity on all other slots: entry (w, w') vanishes unless w' is w or w
    with the two slots swapped.  With (i, j) the letters of w at the slot
    pair, the diagonal is S(i) when i <= j and -1 when i > j, and the
    exchange entry T(i) sits in the swapped word's column when i < j.
    ``slot`` is 1-based, 1 <= slot <= N-1.  A block not closed under the
    exchange raises ValueError.
    """
    desc, eq, asc, partner, eq_letter, asc_letter = block.slot_table(slot)
    xb, xa = sp.xi[beta - 1], sp.xi[alpha - 1]
    amps = {s: _species_amplitudes(s, xb, xa, rates) for s in {*eq_letter, *asc_letter}}
    out = np.zeros((block.dim, block.dim), dtype=complex)
    for r in desc:
        out[r, r] = -1.0
    for r, s in zip(eq, eq_letter):
        out[r, r] = amps[s][0]
    for r, c, s in zip(asc, partner, asc_letter):
        out[r, r], out[r, c] = amps[s]
    return out


class SlotAction:
    """The factor at one slot applied over a grid batch, with S and T once per species."""

    def __init__(self, block: WordBlock, slot: int, rates: RateTable):
        self.desc, self.eq, self.asc, self.partner, eq_letter, asc_letter = block.slot_table(slot)
        self.eq_col = tuple(s - 1 for s in eq_letter)  # species axis of the S/T table
        self.asc_col = tuple(s - 1 for s in asc_letter)
        self.b = np.array(rates.rates)

    def apply(
        self, xb: np.ndarray, xa: np.ndarray, v: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Left-multiply columns held as (dim, *points) by the factor at each point.

        Each word row ``v[r]`` is one array over the points, and ``xb``/``xa``
        broadcast against it, so S and T form an (N, *broadcast) table with
        one entry per species and distinct spectral pair.  Rows are written
        one by one, with no gathers.  ``out`` may be ``v`` itself: ascending
        rows are formed first from their still untouched descending partners,
        and the descending rows are negated last.
        """
        b = self.b.reshape((-1,) + (1,) * max(np.ndim(xb), np.ndim(xa)))
        s, t = amplitudes(b, xb, xa)
        if out is None:
            out = np.empty_like(v)
        tv = np.empty_like(v[0])
        for r, p, c in zip(self.asc, self.partner, self.asc_col):
            np.multiply(t[c], v[p], out=tv)
            np.multiply(s[c], v[r], out=out[r])
            np.add(out[r], tv, out=out[r])
        for r, c in zip(self.eq, self.eq_col):
            np.multiply(s[c], v[r], out=out[r])
        for r in self.desc:
            np.negative(v[r], out=out[r])
        return out


def chain_factors(sigma: PermutationElem) -> list[tuple[int, int, int]]:
    """(slot, beta, alpha) triples that build sigma from the identity.

    Each step applies the adjacent transposition at ``slot`` to the running
    permutation; the labels are the spectral indices sitting at slots
    (slot+1, slot) of the permutation *before* the swap.
    """
    factors = []
    for elem in sigma.chain():
        if elem.is_identity:
            continue
        w = elem.pred.image
        factors.append((elem.slot, w[elem.slot], w[elem.slot - 1]))
    return factors


def build_A_sigma(
    sigma: PermutationElem,
    sp: SpectralPoint,
    rates: RateTable,
    block: WordBlock,
) -> np.ndarray:
    """Amplitude matrix of a permutation: ordered product of embedded R factors.

    The product of :func:`product_along_slots` along the reduced word that the
    predecessor links spell, so the identity gets the identity matrix.
    Independence from the choice of reduced word is a consequence of the
    consistency relations and is covered by tests, not assumed here.
    """
    return product_along_slots([slot for slot, _, _ in chain_factors(sigma)], sp, rates, block)[0]


def build_all_A(
    sp: SpectralPoint, rates: RateTable, block: WordBlock
) -> dict[tuple[int, ...], np.ndarray]:
    """Amplitude matrices of the whole symmetric group, keyed by one-line image."""
    perms = enumerate_sn(block.word_length)
    return {elem.image: build_A_sigma(elem, sp, rates, block) for elem in perms}


def product_along_slots(
    slots: Sequence[int],
    sp: SpectralPoint,
    rates: RateTable,
    block: WordBlock,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Multiply embedded factors along an explicit transposition word.

    Starts at the identity permutation and applies the slots left to right,
    reading the labels off the running permutation.  Returns the product and
    the permutation reached, so two words for the same element can be
    compared entrywise.
    """
    n = block.word_length
    image = tuple(range(1, n + 1))
    acc = np.eye(block.dim, dtype=complex)
    for slot in slots:
        beta, alpha = image[slot], image[slot - 1]
        acc = embed_T_l(slot, beta, alpha, sp, rates, block) @ acc
        image = image[: slot - 1] + (image[slot], image[slot - 1]) + image[slot + 1 :]
    return acc, image


def all_sectors(n: int) -> list[WordBlock]:
    """Every multiset sector of n-letter words over species {1..n}."""
    return [build_sector(ms) for ms in combinations_with_replacement(range(1, n + 1), n)]


def consistency_residuals(sp: SpectralPoint, rates: RateTable, n: int) -> dict[str, float]:
    """Max entrywise residual of the three operator consistency relations.

    Each relation compares the products of :func:`product_along_slots` along
    two transposition words for one group element.  ``commutation``: (i, j)
    against (j, i) for slots at distance >= 2 (vacuous for n < 4).
    ``yang_baxter``: the braid (i, i+1, i) against (i+1, i, i+1).
    ``inverse``: (i, i) against the empty word, the factor with swapped labels
    being a two-sided inverse.  Each relation is evaluated on every multiset
    sector, which together cover the full tensor-product space.
    """
    if len(sp) < n:
        raise ValueError("spectral point needs at least n entries")
    relations = {
        "commutation": [((i, j), (j, i)) for i in range(1, n) for j in range(i + 2, n)],
        "yang_baxter": [((i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)],
        "inverse": [((i, i), ()) for i in range(1, n)],
    }
    res = dict.fromkeys(relations, 0.0)
    for block in all_sectors(n):
        for name, pairs in relations.items():
            for left, right in pairs:
                lhs, _ = product_along_slots(left, sp, rates, block)
                rhs, _ = product_along_slots(right, sp, rates, block)
                res[name] = max(res[name], float(np.max(np.abs(lhs - rhs))))
    return res
