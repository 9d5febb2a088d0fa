"""Two-particle scattering amplitudes and the operator calculus built on them.

The two-site matrix ``R`` couples a pair of spectral variables (xi_beta,
xi_alpha) to a pair of species slots.  Embedding ``R`` at one slot pair of
an N-letter word gives the operators whose ordered products are the
amplitude matrices ``A_sigma`` attached to permutations.  Everything here
acts on one word block (sector) at a time; the full tensor-product
operators are block-diagonal across sectors, which the test-suite checks
rather than assumes.

The factor has one encoding and one implementation: the swap table of a
:class:`core.WordBlock` pairs each word with its swapped partner at a slot,
and comparing the block's letters there classes the rows; :func:`amplitudes`
is the only S/T expression, and only :meth:`SlotAction.apply` writes them into
rows of the dense path's columns (at ``slot=1`` of a block of species pairs
that gives the two-site matrix ``R``); the spectral route reads the same
arrays (:func:`bethe._row_terms`) and evaluates no factor.
:func:`product_along_slots` is the one dense product along a transposition
word, and :func:`consistency_residuals` calls it; :func:`build_all_A` applies
one factor per permutation to its predecessor's matrix, as the term walk
does, and stacks the N! matrices on a leading axis in :func:`core.enumerate_sn`
order.  Each takes a :class:`SpectralPoint` or an (n, *batch) complex array of
spectral values and a ``RateTable`` or an (N, *batch) float array of rates,
and returns (dim, dim, *batch) complex matrices in the block's word order.

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

from .core import PermutationElem, WordBlock, _ascending_pairs, _tree_factors, build_sector

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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The values as an (n,) array: batched code takes a point or an (n, *batch) array."""
        return np.array(self.xi, dtype=dtype)


def contour_bound(rates) -> float | np.ndarray:
    """Largest admissible contour radius.

    Keeps every amplitude pole 1/b_l strictly outside the circle and also
    respects the radius < b_l convention for rates below one.  An (N, *batch)
    array of rates gives one bound per batch entry.
    """
    b = np.asarray(rates, dtype=float)
    return np.minimum(b.min(axis=0), 1.0 / b.max(axis=0))


def amplitudes(b, xi_beta, xi_alpha):
    """Pass-through and exchange amplitudes (S, T) of a species with rate b.

    Plain operators in division form, so Python scalars and broadcast numpy
    arrays get the same expression.
    """
    denom = 1.0 - b * xi_alpha
    return -(1.0 - b * xi_beta) / denom, b * (xi_beta - xi_alpha) / denom


class SlotAction:
    """The factor at one slot applied to a batch of dense columns.

    ``b`` holds the rates as an (N, *batch) array broadcasting against the
    spectral values.  S and T are formed only for the letters the block's
    rows use at the slot, so no other species' pole is ever evaluated.
    """

    def __init__(self, block: WordBlock, slot: int, b: np.ndarray):
        asc, partner = _ascending_pairs(block, slot)
        i, j = block.letters[:, slot - 1], block.letters[:, slot]
        eq, desc = np.flatnonzero(i == j), np.flatnonzero(i > j)
        self.letters = sorted(set(i[i <= j].tolist()))
        col = {s: k for k, s in enumerate(self.letters)}  # letter axis of the S/T table
        # Python ints, as apply writes row by row
        self.asc, self.partner, self.eq, self.desc = (r.tolist() for r in (asc, partner, eq, desc))
        self.asc_col, self.eq_col = ([col[s] for s in i[r].tolist()] for r in (asc, eq))
        self.b = b[[s - 1 for s in self.letters]]

    def apply(
        self, xb: np.ndarray, xa: np.ndarray, v: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Left-multiply columns held as (dim, *points) by the factor at each point.

        ``xb``, ``xa`` and the rates broadcast against each word row ``v[r]``,
        so S and T form a (letters, *points) table.  Rows are written one by
        one, with no gathers.  ``out`` may be ``v`` itself: ascending rows are
        formed first from their still untouched descending partners, and the
        descending rows are negated last.
        """
        s, t = amplitudes(self.b, xb, xa)
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
    return [(e.slot, e.pred.image[e.slot], e.pred.image[e.slot - 1]) for e in sigma.chain()[1:]]


def build_all_A(sp, rates, block: WordBlock) -> np.ndarray:
    """Amplitude matrices of the whole symmetric group, (N!, dim, dim, *batch) in enumerate_sn order.

    Walks :func:`core.enumerate_sn`, which lists every permutation after its
    predecessor, and applies one factor, the last of the permutation's
    reduced word as the tree table of ``core`` lists it, to the predecessor's
    matrix: N! - 1 factor applications.
    The identity gets the identity matrix.
    """
    xi, b = np.asarray(sp, dtype=complex), np.asarray(rates, dtype=float)
    actions = {slot: SlotAction(block, slot, b) for slot in range(1, block.word_length)}
    parent, slot, beta, alpha = _tree_factors(block.word_length).tolist()
    ident = product_along_slots((), xi, b, block)[0]
    amps = np.empty((len(parent),) + ident.shape, dtype=complex)
    amps[0] = ident
    for k in range(1, len(parent)):
        _step(actions[slot[k]], xi, beta[k], alpha[k], amps[parent[k]], out=amps[k])
    return amps


def _step(action: SlotAction, xi: np.ndarray, beta: int, alpha: int, v, out=None) -> np.ndarray:
    """One factor on dense (dim, dim, *batch) columns; a pole of a letter it uses raises."""
    b, xa = action.b, xi[alpha - 1]
    near = np.abs(1.0 - b * xa) < POLE_THRESHOLD * np.maximum(1.0, b)
    if near.any():
        raise PoleOnContour(f"1 - b*xi vanished for species {action.letters[np.argwhere(near)[0][0]]}")
    return action.apply(xi[beta - 1], xa, v, out=out)


def product_along_slots(slots: Sequence[int], sp, rates, block: WordBlock) -> tuple[np.ndarray, tuple]:
    """Multiply two-site factors along an explicit transposition word.

    Starts at the identity permutation and applies the slots left to right,
    reading the labels off the running permutation, each factor in place on
    the running columns.  Returns the product, (dim, dim, *batch), and the
    permutation reached, so two words for the same element can be compared
    entrywise.  A pole of a letter a factor uses, at any batch entry, raises
    :class:`PoleOnContour`.
    """
    xi, b = np.asarray(sp, dtype=complex), np.asarray(rates, dtype=float)
    return _product(slots, xi, b, {slot: SlotAction(block, slot, b) for slot in set(slots)}, block)


def _product(slots: Sequence[int], xi: np.ndarray, b: np.ndarray, actions: dict, block: WordBlock) -> tuple:
    """:func:`product_along_slots` on arrays, with the block's ``SlotAction`` at each slot given."""
    acc = np.zeros((block.dim,) * 2 + np.broadcast_shapes(xi.shape[1:], b.shape[1:]), dtype=complex)
    acc[np.arange(block.dim), np.arange(block.dim)] = 1.0
    image = tuple(range(1, block.word_length + 1))
    for slot in slots:
        beta, alpha = image[slot], image[slot - 1]
        _step(actions[slot], xi, beta, alpha, acc, out=acc)
        image = image[: slot - 1] + (image[slot], image[slot - 1]) + image[slot + 1 :]
    return acc, image


def all_sectors(n: int) -> list[WordBlock]:
    """Every multiset sector of n-letter words over species {1..n}."""
    return [build_sector(ms) for ms in combinations_with_replacement(range(1, n + 1), n)]


def relation_residual(relation: str, sp, rates, n: int) -> float:
    """Max entrywise residual of one relation of :func:`consistency_residuals`.

    Memory grows like (n!)**2 complex numbers per batch entry; callers split large batches.  Each
    sector's factor at each slot is built once per call and read by both sides of every pair.
    """
    xi, b = np.asarray(sp, dtype=complex), np.asarray(rates, dtype=float)
    if len(xi) < n:
        raise ValueError("spectral point needs at least n entries")
    pairs = {
        "commutation": [((i, j), (j, i)) for i in range(1, n) for j in range(i + 2, n)],
        "yang_baxter": [((i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)],
        "inverse": [((i, i), ()) for i in range(1, n)],
    }[relation]
    worst = 0.0
    slots = {slot for pair in pairs for word in pair for slot in word}
    for block in all_sectors(n):
        actions = {slot: SlotAction(block, slot, b) for slot in slots}
        for left, right in pairs:
            lhs, _ = _product(left, xi, b, actions, block)
            rhs, _ = _product(right, xi, b, actions, block)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def consistency_residuals(sp, rates, n: int) -> dict[str, float]:
    """Max entrywise residual of the three operator consistency relations.

    Each relation compares the products of :func:`product_along_slots` along
    two transposition words for one group element.  ``commutation``: (i, j)
    against (j, i) for slots at distance >= 2 (vacuous for n < 4).
    ``yang_baxter``: the braid (i, i+1, i) against (i+1, i, i+1).
    ``inverse``: (i, i) against the empty word, the factor with swapped labels
    being a two-sided inverse.  Each relation is evaluated on every multiset
    sector, which together cover the full tensor-product space, and at every
    batch entry.
    """
    return {name: relation_residual(name, sp, rates, n) for name in ("commutation", "yang_baxter", "inverse")}
