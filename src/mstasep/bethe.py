"""Finite-time transition probabilities from the contour-integral representation.

Each probability is a sum over the symmetric group of N-fold integrals over
a common circle around the origin that keeps every amplitude pole 1/b_l
outside.  At one spectral point the sum over the symmetric group is
:func:`bethe_sum`: the amplitude matrices of :func:`rmatrix.build_all_A`,
stacked on a leading permutation axis, contracted with the plane-wave phases
in one product.

The integrals are never sampled.  The factors
S = -(1 - b xi_beta)/(1 - b xi_alpha) and T = b (xi_beta - xi_alpha)/(1 - b xi_alpha)
are sums of at most two products of one-variable functions, so every entry of
A_sigma e_nu is a short sum of terms c prod_d xi_d^(a_d) prod_s (1 - b_s xi_d)^(e_ds)
with integer a and e, and the integral of a term is a product of N residues

  M(q, e) = res_0 exp(t/xi) xi^q prod_s (1 - b_s xi)^(e_s) = sum_j c_j t^(q+j+1) / (q+j+1)!,

c_j the coefficients of prod_s (1 - b_s xi)^(e_s), terms with q + j + 1 < 0
left out, q = x_i - y_d - 1 + a_d for the target position x_i that sigma
pairs with axis d.  A value is sum_sigma sum_terms c prod_d M(q_d, e_d), one
evaluation per call (the tests check it against the literal trapezoid sum
over node tuples, where that has converged).

The terms come from one walk per call over ``enumerate_sn`` (:func:`_row_terms`),
which counts signs and reads no rate: S maps a term to minus itself with
e_beta + 1 and e_alpha - 1 at the letter's species, T to itself with a_beta + 1
and to minus itself with a_alpha + 1, each with e_alpha - 1, and a descending
row negates.  Each T also brings its letter's rate, so a term's coefficient is
an integer count times prod_s b_s^(k_s), k_s = -sum_d e_ds, and like terms
cancel exactly.  Rows are classed, and paired with their swapped partners, by
the letters and swap table of the :class:`core.WordBlock` the dense path
reads, and each permutation carries
only the rows some target row depends on (:func:`_needed_rows`).  The
walk takes one inversion level at a time (:func:`_levels`), N(N-1)/2 array
passes: each pass pairs every child with its parent's terms and keeps the
pairs its slot's tables mark, and a term's row, permutation and exponents
travel packed in a few int64 words (:func:`_key_layout`) that order like the
wide keys.  The target rows' like terms merge once, at the end.  Before each
level the walk counts the bytes it would then hold (its tables, the target
rows' terms with the merge's copies, the parent level, and the new level with
its indices and moves) and raises past ``_CHUNK_BUDGET_BYTES``; its traced
peak stays within twice that count and 32 kB of Python objects.  A call
builds one moment per pole signature and distinct q (:func:`_moment_table`),
which counts its bytes first and raises ValueError past the same budget, and
gathers each target's terms, their coefficients and moment offsets formed
once for all rows, in chunks under that budget.  Each moment sums J terms,
J fixed by the start's span and scale t, and each target its terms, in a
fixed order, so a value has the same bits on repeated calls, alone or in a
batch, and however it is chunked.

Targets enter as one table: :func:`transition_arrays` takes (T, N) int64
position and word arrays, validates them with :func:`core.check_table`, keeps
the support :func:`core.word_floors` reaches (the rule
:func:`core.window_states` lists by) and, for the targets in it, builds the
sector rows, constants and per-axis distinct positions every later stage
reads.  :func:`transition_matrix` wraps it for lists of states.

Multiplying every rate by lambda and dividing t by lambda only changes the
clock, so a call reads the rates and t only through st = scale t and
beta_s = b_s / scale, both formed once: scale = 2^c is the smallest power of two
at or above the largest rate of a species the start holds, and beta_s is at most
1 there and 0 for the others (no other species enters the moments).  The table
holds the moments in units of the scale, scale^(q+1) M(q), and each term's count
is weighed by prod_s beta_s^(k_s) (its rates and the exact scale^(-sum(a)) in one
factor, as sum_s k_s = sum_d a_d), so every term of a target gains the exact
scale^P, P = sum(x) - sum(y), which its constant e^(-st sum_i beta_(s_i))
prod_s beta_s^(d_s) takes back.  Positions are taken relative to the start's
leftmost site, and a call returns the same bits for (2^k b, 2^-k t) as for
(b, t) wherever those are exact.  Products that fall below the normal float
range keep a bound: the widened ones are floored there.  A constant below the
normal float range is taken as a logarithm, and the value as
sign(sum) exp(log constant + log |sum|).  :class:`OverflowRisk` has three
rules: scale t past ``OVERFLOW_EXPONENT``, where the series' terms
(scale t)^k / k! leave the float range, and x - y_1 past int64, both before any
moment is built, and a value that is not finite, naming its first such target.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ParticleState,
    RateTable,
    WordBlock,
    _describe,
    _floor_table,
    _tree_factors,
    build_sector,
    check_int,
    check_real,
    check_table,
    check_time,
    enumerate_sn,
    finite_positive,
    state_arrays,
    unique_rows,
    validate_state,
    word_codes,
)

MAX_PARTICLES = 6

# the largest scale t a call accepts: u_k = (scale t)**k / k! peaks near exp(scale t), which passes
# the float range just above 709
OVERFLOW_EXPONENT = 700.0

# target bytes for one chunk of an array of targets by terms or trials, and the most a term walk holds
_CHUNK_BUDGET_BYTES = 2.0e8

# largest node count per dimension SpectralParams accepts
MAX_NODES_PER_DIM = 4096

_INT64 = np.iinfo(np.int64)
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_SUBNORMAL = np.finfo(float).smallest_subnormal


class NotConverged(RuntimeError):
    """The error bound of a value reaches the requested tolerance ``adapt_tol``."""


class OverflowRisk(ArithmeticError):
    """scale t passes ``OVERFLOW_EXPONENT``, a position x - y_1 int64, or a value is not finite."""


@dataclass(frozen=True)
class SpectralParams:
    """The error tolerance, and three fields that select nothing.

    ``adapt_tol`` must be a finite positive real number (bools raise
    TypeError): a value whose ``est_error`` reaches it raises
    :class:`NotConverged`.  The moments' scale comes from the rates alone, so
    ``radius``, ``nodes_per_dim`` and ``max_nodes`` select nothing.  They stay
    only because the benchmark passes them, and are validated as before:
    ``radius`` is None or a finite positive real number, and the node counts
    are integers (bools and floats raise TypeError), powers of two from 4 to
    ``MAX_NODES_PER_DIM``, ``max_nodes`` at least ``nodes_per_dim``.
    """

    radius: Optional[float] = None
    nodes_per_dim: int = 32
    adapt_tol: float = 1e-8
    max_nodes: int = 256

    def __post_init__(self):
        for name in ("adapt_tol",) if self.radius is None else ("radius", "adapt_tol"):
            v = check_real(getattr(self, name), name)
            if not finite_positive(v):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        for name in ("nodes_per_dim", "max_nodes"):
            m = check_int(getattr(self, name), name)
            if not 4 <= m <= MAX_NODES_PER_DIM or m & (m - 1):
                raise ValueError(
                    f"{name} must be a power of two from 4 to {MAX_NODES_PER_DIM}; got {m}"
                )
        if self.max_nodes < self.nodes_per_dim:
            raise ValueError("max_nodes must be >= nodes_per_dim")


@dataclass(frozen=True)
class ProbabilityResult:
    """One transition probability as computed.

    ``value`` is a real number (a sum of products of real one-dimensional
    moments), reported without clamping so rounding stays visible.
    ``est_error`` bounds |value - exact|: the series tails, all rounding, and
    a target constant that falls below the float range.
    ``nodes_used`` is J, the series terms each moment of the call sums; a
    target outside the support is an exact 0 with ``est_error`` and
    ``nodes_used`` 0.
    """

    value: float
    est_error: float
    nodes_used: int


def _moment_scale(rates: RateTable, species: Sequence[int]) -> float:
    """The smallest power of two at or above the largest rate of the given species, exactly.

    Only the species a start holds enter its moments, so a faster species it lacks sets nothing.
    ``math.frexp`` writes b = m 2**e with 1/2 <= m < 1, and b is a power of two iff m = 1/2; a
    scale past the float range is inf.
    """
    m, e = math.frexp(rates.fastest(species))
    c = e - (m == 0.5)
    return math.ldexp(1.0, c) if c < 1024 else math.inf


def rate_power_diag(positions, sector: WordBlock, rates) -> np.ndarray:
    """Diagonal of the rate-power matrix: product of b_{w(i)}^{x_i} per word, (dim, *batch)."""
    b, words = np.asarray(rates, dtype=float), sector.letters.T
    return math.prod(_int_power(b[col - 1], xk) for col, xk in zip(words, np.asarray(positions)))


def _int_power(base: np.ndarray, exp) -> np.ndarray:
    """base**exp for integer exponents, with bits that do not depend on the batch an entry sits in.

    numpy's complex power multiplies out an integer exponent element by element, while its
    float power takes a vector path only where both operands are contiguous.  A real base
    gets the real part.
    """
    power = np.power(base, exp, dtype=complex)
    return power if np.iscomplexobj(base) else power.real


def bethe_sum(positions, sp, rates, sector: WordBlock, amplitudes: np.ndarray) -> np.ndarray:
    """Spatial part of the spectral solution, summed over the symmetric group.

    Positions may be any integers (no ordering required); this is the lattice
    function whose free evolution and adjacency conditions the tests verify.
    Positions (n, *batch), spectral values, rates and the (N!, dim, dim, *batch)
    amplitude matrices of :func:`rmatrix.build_all_A` may share a trailing batch
    axis.  The plane-wave phases of all permutations, (N!, *batch), are
    contracted against the amplitudes in one product.
    """
    x, xi = np.asarray(positions), np.asarray(sp)
    images = _image_rows(len(x))
    # math.prod multiplies whole batch rows, here and in rate_power_diag, so an entry's bits do not
    # depend on the batch it sits in
    phases = math.prod(_int_power(xi[images[:, i]], x[i]) for i in range(len(x)))
    waves = np.einsum("pij...,p...->ij...", amplitudes, phases)
    return rate_power_diag(x, sector, rates)[:, None] * waves


@functools.cache
def _image_rows(n: int) -> np.ndarray:
    """Zero-based one-line images of :func:`core.enumerate_sn`, (n!, n): row p is permutation p."""
    rows = np.array([elem.image for elem in enumerate_sn(n)]) - 1
    rows.flags.writeable = False
    return rows


# ---------------------------------------------------------------------------
# the integrals as sums of products of one-dimensional moments
# ---------------------------------------------------------------------------


def _chunks(count: int, item_bytes: int) -> list[slice]:
    """Slices of ``count`` items of ``item_bytes`` each that keep every slice under the chunk budget."""
    step = max(1, int(_CHUNK_BUDGET_BYTES // max(item_bytes, 1)))
    return [slice(a, a + step) for a in range(0, count, step)]


@functools.cache
def _levels(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """The tree of :func:`core.enumerate_sn` by inversion level, built once per n.

    Returns ``(factor, bounds, axis, steps)``.  ``factor`` is :func:`core._tree_factors`, column k
    (parent, slot, beta, alpha) of permutation k's last factor.  Permutations bounds[L] .. bounds[L + 1]
    have L inversions, and their parents lie in the level before, in the same order.  ``axis[k, d]``
    is the target axis that axis d of permutation k pairs with.  ``steps[L - 1]`` holds, for each
    pass p of each permutation k of level L (p = 0 for S, 1 and 2 for T's two terms), the parent's
    place in level L - 1 and 3 (k - parent) + p.
    """
    factor, images = _tree_factors(n), _image_rows(n)
    depth = np.triu(images[:, :, None] > images[:, None, :], 1).sum(axis=(1, 2))  # inversion counts
    bounds = np.searchsorted(depth, np.arange(depth[-1] + 2))
    steps = []
    for plo, lo, hi in zip(bounds[:-2], bounds[1:-1], bounds[2:]):
        parent = factor[0, lo:hi]
        shift = 3 * (np.arange(lo, hi) - parent)[:, None] + np.arange(3)
        steps.append((np.repeat(parent - plo, 3), shift.ravel()))
    axis = np.argsort(images, axis=1)
    for table in (bounds, axis, *itertools.chain(*steps)):
        table.flags.writeable = False
    return factor, bounds, axis, steps


def _partner_cells(sector: WordBlock, slot: np.ndarray) -> np.ndarray:
    """(K, dim): at each of K slots, the flat place in a (K, dim) mask of the row reading each row.

    A row descending at the slot is read through T by its swapped partner.  Other rows, and all at slot
    0 (the identity's, paired with nothing), get place K dim, a cell appended to the mask that stays
    False.  A mask of the rows K permutations need, taken there, marks the rows they read through T.
    """
    up = sector.swaps[slot]
    read = (sector.letters[:, slot - 1] > sector.letters[:, slot]).T & (up >= 0)
    return np.where(read, up + np.arange(0, up.size, up.shape[1])[:, None], up.size)


def _needed_rows(sector: WordBlock, rows) -> np.ndarray:
    """(N!, dim) mask of the word rows each permutation's column carries, in ``enumerate_sn`` order.

    The target rows, and each parent row a carried row reads: itself, and its swapped partner where
    it ascends at the factor's slot.  Filled one level at a time, the deepest first.
    """
    (parent, slot, _, _), bounds, _, _ = _levels(sector.word_length)
    reader = _partner_cells(sector, slot)
    flat = np.zeros(reader.size + 1, dtype=bool)
    need = flat[:-1].reshape(reader.shape)
    need[:, rows] = True
    for lo, hi in zip(bounds[-2:0:-1], bounds[:1:-1]):  # every level but the identity's, deepest first
        np.logical_or.at(need, parent[lo:hi], need[lo:hi] | flat[reader[lo:hi]])
    return need


@functools.cache
def _key_layout(n: int, present: tuple[int, ...], species: int) -> tuple:
    """How the walk packs a term's key into int64 words, and what each pass adds to a key.

    Returns ``(width, a_at, e_at, identity, moves)``.  Word 0 of a key is its header, row N! +
    permutation.  The others hold every a_d and e_ds, each in [-D, D] (D = n(n-1)/2, the longest
    reduced word) and stored plus D in ``width`` bits, most significant first in the wide key's
    column order: a_1 .. a_N, then each axis's block of e at the sector's species ``present``, no
    block split across two words of 63 bits.  So keys order like the wide ones.  ``a_at[d]`` and
    ``e_at[d]`` are the word and lowest bit of a_d and of axis d's block, ``identity`` is the key of
    e_nu less its header, and ``moves[((p L + beta) L + alpha) (species + 1) + s]``, L = n + 1, what
    pass p of a factor (beta, alpha) adds to a key whose row (S) or read row (T) has letter s:
    e_beta,s + 1 and e_alpha,s - 1 for p = 0 (nothing for s = 0, a descending row), and e_alpha,s - 1
    with a_beta + 1 for p = 1, with a_alpha + 1 for p = 2.
    """
    width, depth = max(1, (n * (n - 1)).bit_length()), n * (n - 1) // 2
    at, word, free = [], 1, 63
    for bits in [width] * n + [width * len(present)] * n:
        if bits > free:
            word, free = word + 1, 63
        free -= bits
        at.append((word, free))
    at, axes, cols = np.array(at), np.arange(1, n + 1), word + 1
    unit_a = np.zeros((n + 1, cols), dtype=np.int64)
    unit_e = np.zeros((n + 1, species + 1, cols), dtype=np.int64)
    unit_a[axes, at[:n, 0]] = 1 << at[:n, 1]
    for i, s in enumerate(present):
        unit_e[axes, s, at[n:, 0]] = 1 << (at[n:, 1] + width * (len(present) - 1 - i))
    s_move = unit_e[:, None] - unit_e[None]  # indexed [beta, alpha, s]
    at_beta, at_alpha = np.broadcast_arrays(unit_a[:, None, None], unit_a[None, :, None], s_move)[:2]
    moves = np.stack([s_move, at_beta - unit_e[None], at_alpha - unit_e[None]]).reshape(-1, cols)
    out = width, at[:n], at[n:], depth * (unit_a.sum(axis=0) + unit_e.sum(axis=(0, 1))), moves
    for table in out[1:]:
        table.flags.writeable = False
    return out


def _fields(key: np.ndarray, at: np.ndarray, bits: int) -> np.ndarray:
    """The ``bits``-wide fields of packed keys at the (word, lowest bit) pairs ``at``, one column each."""
    out = key[:, at[:, 0]]
    out >>= at[:, 1]
    out &= (1 << bits) - 1
    return out


def _row_terms(sector: WordBlock, nu_idx: int, rows, species: int) -> tuple[np.ndarray, dict]:
    """The terms of each target row of sum_sigma A_sigma e_nu, and their pole signatures.

    Returns ``(poles, terms)``, ``poles`` a (signatures, ``species``) table.  ``terms[r]`` is
    ``(coef, a, sig, axis)``, one (K,) and three (K, N) int64 arrays, for each of ``rows``: term k
    is coef[k] prod_s b_s**k_s prod_d xi_d**a[k, d] (1 - b_s xi_d)**poles[sig[k, d], s], with
    k_s = -sum_d poles[sig[k, d], s], and its axis d pairs with target axis axis[k, d].  Terms are
    listed permutation by permutation in ``enumerate_sn`` order.  No rate is read: each T brings one
    b_s and one power of (1 - b_s xi) less, so a term's rates follow from its exponents (and
    sum_s k_s = sum_d a[k, d]); the walk counts signs, and like terms cancel exactly.

    The walk builds one level of :func:`_levels` at a time, a sign array and an array of packed keys
    (:func:`_key_layout`) grouped by permutation.  A child pairs with each of its parent's terms
    three times, once per pass, and keeps the pairs its tables mark: S on the rows it needs, T's two
    terms on the partners of the ascending ones.  So a child lists its S terms in parent order, then
    T's b xi_beta terms, then its -b xi_alpha terms.  Before it builds a level the walk counts what
    it would then hold: its tables, three times the target rows' terms so far (they, and the final
    merge's two copies), the parent level, 17 bytes per pair and, per new term, 32 bytes of indices
    and twice its bytes (the term, and the move that builds it).  Past ``_CHUNK_BUDGET_BYTES`` it
    raises ValueError; its traced peak stays within twice that count and 32 kB of Python objects
    (the smallest walks count a few kB).
    """
    n, dim, nperm = sector.word_length, sector.dim, math.factorial(sector.word_length)
    (_, slot, beta, alpha), bounds, axes, steps = _levels(n)
    present = tuple(sorted(set(sector.words[0])))
    width, a_at, e_at, identity, moves = _key_layout(n, present, species)
    # flat tables by (row, permutation, pass): whether a parent term on the row yields a term, its
    # header, and its move (a row of ``moves``).  S moves by the row's left letter at the slot (0 if it
    # descends), T by its right one, its ascending partner's left
    left, right = sector.letters[:, slot - 1], sector.letters[:, slot]
    need = _needed_rows(sector, rows)
    code, per_pass = (beta * (n + 1) + alpha) * (species + 1), (n + 1) ** 2 * (species + 1)
    take, head, move = (np.empty((dim, nperm, 3), dtype=t) for t in (bool, np.int32, np.int32))
    take[..., 0], take[..., 1:] = need.T, np.append(need, False)[_partner_cells(sector, slot)].T[..., None]
    head[..., 0] = np.arange(0, dim * nperm, nperm)[:, None] + np.arange(nperm)
    head[..., 1:] = (sector.swaps[slot].T * nperm + np.arange(nperm))[..., None]
    move[..., 0] = code + np.where(left > right, 0, left)
    move[..., 1] = per_pass + code + right
    move[..., 2] = move[..., 1] + per_pass
    take, head, move = take.ravel(), head.ravel(), move.ravel()
    gain = np.repeat([-1, 1, -1], per_pass)  # one sign per pass: S or a descending row, T's two terms
    is_target = np.zeros(dim, dtype=bool)
    is_target[rows] = True
    is_target = np.repeat(is_target, nperm)  # by header
    coef, size = np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    key = np.array([[nu_idx * nperm, *identity[1:]]])
    kept, tables, cols = [], take.nbytes + head.nbytes + move.nbytes + need.nbytes, key.shape[1]
    for lo, hi, step in zip(bounds[:-1], bounds[1:], itertools.chain([None], steps)):
        if step is not None:
            par, shift = step
            # each pass of each child against every term of its parent, child by child in parent order
            pairs = size[par]
            ends = np.cumsum(pairs)
            j = np.arange(ends[-1]) + np.repeat((np.cumsum(size) - size)[par] - ends + pairs, pairs)
            at = 3 * key[j, 0] + np.repeat(shift, pairs)
            keep = take[at]
            held = tables + 3 * sum(c.nbytes + k.nbytes for c, k in kept) + coef.nbytes + key.nbytes
            if held + 17 * len(at) + np.count_nonzero(keep) * (16 * cols + 48) > _CHUNK_BUDGET_BYTES:
                why = f"{_CHUNK_BUDGET_BYTES:g} bytes; split the targets by word row"
                raise ValueError(f"the term walk for {len(rows)} word rows passes its budget of {why}")
            j, at = j[keep], at[keep]
            kinds = move[at]
            coef, key = coef[j] * gain[kinds], key[j]
            key += moves[kinds]
            key[:, 0] = head[at]
            size = np.bincount(key[:, 0] % nperm - lo, minlength=hi - lo)
        mine = is_target[key[:, 0]]
        kept.append((coef[mine], key[mine]))
    # the target rows' terms: like terms merge and exact cancellations drop, sorted by row and permutation
    coef, key = (np.concatenate(part) for part in zip(*kept))
    kept.clear()
    first, at = unique_rows(key)
    coef = np.bincount(at, weights=coef, minlength=len(first)).astype(np.int64)  # exact in float
    coef, key = coef[coef != 0], key[first[coef != 0]]
    # one signature per (term, axis): the packed blocks sort like the wide rows
    depth, labels = n * (n - 1) // 2, np.array(present)
    distinct = np.sort(blocks := _fields(key, e_at, width * len(labels)), axis=None)
    new = np.ones(distinct.size, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=new[1:])
    distinct = distinct[new]
    poles = np.zeros((len(distinct), species), dtype=np.int64)
    poles[:, labels - 1] = (distinct[:, None] >> width * np.arange(len(labels))[::-1]) % (1 << width) - depth
    sig, a = np.searchsorted(distinct, blocks), _fields(key, a_at, width) - depth
    row, perm = np.divmod(key[:, 0], nperm)
    axis, rows = axes[perm], np.asarray(rows)
    bounds = zip(rows.tolist(), *(np.searchsorted(row, rows, side).tolist() for side in ("left", "right")))
    return poles, {r: (coef[lo:hi], a[lo:hi], sig[lo:hi], axis[lo:hi]) for r, lo, hi in bounds}


def _moment_table(
    q: np.ndarray, poles: np.ndarray, st: float, beta: np.ndarray, span: int, length: int
) -> np.ndarray:
    """scale**(q+1) M(q, e), the moment in units of the scale, at each q for every pole signature e,
    its |.| and a bound: (3, sig, q).

    With c_j the coefficients of prod_s (1 - beta_s xi)**e_s, ``beta`` = b / scale (0 at a species
    the start lacks, which no signature holds), and u_k = st**k / k! (0 for k < 0), st = scale t, the
    first column is sum_(j < J) c_j u_(q+j+1), J = ``length``.  The second sums |c|_j u_(q+j+1), |c|
    the product of the factors' series with |coefficients|, which bounds c and its rounding.  The
    third adds to the second bounds on the tail past J and on the rounding of the first.  Support
    targets have q >= -``span`` - 1.  A table whose arrays would pass ``_CHUNK_BUDGET_BYTES`` (each
    signature's factor series and their copies, the coefficients, and the u_k padded by the span and
    J) raises ValueError before any is built.
    """
    top = max(math.ceil(math.e**2 * st), 746)  # u_k is 0 past k = top, see below
    nbytes = 8 * length * len(poles) * (3 * len(beta) + 2) + 8 * (span + top + length)
    if nbytes > _CHUNK_BUDGET_BYTES:
        raise ValueError(
            f"the moment table for a start spanning {span} sites (J = {length}) passes its budget of "
            f"{_CHUNK_BUDGET_BYTES:g} bytes"
        )
    # each factor's binomial series, c_j / c_(j-1) = -beta (e - j + 1) / j, and their products
    steps = (poles[..., None] - np.arange(length - 1) + 0.0) * -beta[:, None] / np.arange(1, length)
    factors = np.cumprod(np.concatenate([np.ones((*poles.shape, 1)), steps], axis=-1), axis=-1)
    coef, nonzero = np.empty((len(poles), 2, length)), poles != 0
    coef[:, 0] = factors[np.arange(len(poles)), nonzero.argmax(axis=1)]  # a factor with e = 0 is 1
    coef[:, 1] = np.abs(coef[:, 0])
    for k in np.flatnonzero(nonzero.sum(axis=1) > 1):
        c, f = coef[k], factors[k]
        for s in np.flatnonzero(nonzero[k])[1:]:
            c[0], c[1] = np.convolve(c[0], f[s])[:length], np.convolve(c[1], np.abs(f[s]))[:length]
    # u where it is not 0: past k = e**2 st, u_k < e**-k, so from k = 746 on it rounds to 0
    u = np.cumprod(np.concatenate([[1.0], st / np.arange(1, top + 1)]))
    padded = np.concatenate([np.zeros(span + 1), u, np.zeros(length + 1)])  # u_k at padded[span + 1 + k]
    first = np.minimum(q, top) + span + 2
    # past J each term has k = q + j + 1 >= J - span > st, where u falls.  With beta_- the largest beta_s
    # whose e_s < 0 and E the sum of those -e_s, |c_j| <= P (j+E-1 choose E-1) beta_-**j, P = prod over
    # e_s > 0 of (1 + beta_s / beta_-)**e_s (a polynomial of degree below J has no tail), and these
    # bounds times u fall by rho < 1/3 a step: the tail is below the first, times u_(J-span), over 1 - rho
    order = np.maximum(-poles, 0).sum(axis=1)
    top_beta = np.where(poles < 0, beta, 0.0).max(axis=1)
    logs = np.log(np.where(order > 0, top_beta, 1.0))
    lead = length * logs + (np.maximum(poles, 0) * np.log1p(beta / np.exp(logs)[:, None])).sum(axis=1)
    lead += [math.lgamma(length + k) - math.lgamma(k) if k else -np.inf for k in order]
    lead -= math.lgamma(length + 1)
    rho = top_beta * (length + order) / (length + 1) * st / (length - span + 1)
    with np.errstate(divide="ignore"):  # u_(J-span) may be 0
        tail = np.exp(lead + np.log(padded[length + 1])) / (1 - rho)
    # a term rounds (species + 2)(j + 2) times in c_j, 2k times in u_k = prod_(i <= k) st / i,
    # k = q + j + 1 <= q + J, and under 48 times in its product and the pairwise sum.  A c_j or u_k
    # below the normal range loses at most tiny times the other: J tiny (max u + max |c| + 1)
    # bounds what underflow drops from a moment
    roundings = (len(beta) + 4) * length + 2 * np.maximum(q + 1, 0) + 2 * len(beta) + 64
    tail += length * _TINY * (u.max() + coef[:, 1].max(axis=1) + 1)
    out = np.empty((3, len(poles), len(q)))
    for part in _chunks(len(q), coef.nbytes + 8 * length):
        # each moment sums its J terms along one contiguous axis: the order depends on J alone
        windows = padded[first[part, None] + np.arange(length)]  # u_(q+1) .. u_(q+J) of each q
        m, a = (coef[:, :, None, :] * windows).sum(axis=-1).swapaxes(0, 1)
        out[:, :, part] = m, a, a * (1 + _EPS * roundings[part]) + tail[:, None]
    return out


def _series_values(
    y: np.ndarray,
    axes: list[tuple[np.ndarray, np.ndarray]],
    rows: np.ndarray,
    st: float,
    beta: np.ndarray,
    length: int,
    terms: tuple[np.ndarray, dict],
) -> tuple[np.ndarray, np.ndarray]:
    """The sum over permutations and a bound on its error, real values per target (constants excluded).

    Positions are relative to the start's leftmost site: ``y`` is the start's, ``axes[i]`` the
    distinct i-th target positions with each target's index into them.  ``rows`` are the targets'
    word rows and ``terms`` is :func:`_row_terms` of them.  The moments are those of
    :func:`_moment_table` at ``st`` = scale t and ``beta`` = b / scale, one per distinct q, each
    ``length`` terms long.  A term's count is weighed by prod_s beta_s**k_s: its rates prod_s b_s**k_s
    and the exact scale**(-sum(a)) of its scaled powers xi**a in one factor, as sum_s k_s = sum(a).  So
    a target's sum is scale**P times its value over the constant, P = sum(x) - sum(y).
    """
    poles, terms = terms
    coef, a, sig = (np.concatenate(part) for part in list(zip(*terms.values()))[:3])
    a_len = int(a.max(initial=0)) + 1
    sites = np.concatenate([ux for ux, _ in axes])
    q = sites - y[:, None, None] - 1 + np.arange(a_len)[:, None]  # (N, a_len, sites)
    distinct, at = np.unique(q, return_inverse=True)
    # tables[k, sig, d, a, p]: the distinct target positions p of every axis, one after another
    tables = _moment_table(distinct, poles, st, beta, int(y[-1]), length)[:, :, at.reshape(q.shape)]
    start = np.cumsum([0] + [len(ux) for ux, _ in axes[:-1]])
    index = np.stack([ix + s for (_, ix), s in zip(axes, start)], axis=1)  # (targets, N) into sites
    sums, shape, tables = np.zeros((3, len(rows))), tables.shape[1:], tables.reshape(3, -1)
    # every row's terms at once: where each term's moments start, and its coefficient
    base = np.ravel_multi_index((sig, np.arange(len(y)), a, 0), shape).T[:, None]
    # each term's weight prod_s beta_s**k_s, k_s = -sum_d e_ds at the (at most N) species a signature
    # holds: 0 <= k_s <= D = N(N - 1)/2, so k sums as the base-256 digits of one int64 per signature,
    # and beta_s**k is read from a table multiplied out, so that a power-of-two scale moves no mantissa
    depth = len(y) * (len(y) - 1) // 2
    held = np.flatnonzero((poles != 0).any(axis=0))
    shifts = 8 * np.arange(len(held))
    code = -poles[:, held] @ (1 << shifts)
    k = sum(code[col] for col in sig.T)
    powers = np.cumprod(np.column_stack([np.ones(len(held))] + [beta[held]] * depth), axis=1)
    weight = math.prod((powers[i].take(k >> f & 255) for i, f in enumerate(shifts)), start=1.0)
    # the value's coefficients, and the |terms| of both bounds (the widened one's weight at least tiny)
    size = np.abs(coef)
    c = np.stack([coef * weight, size * weight, size * np.maximum(weight, _TINY)])[:, None]
    ends = np.cumsum([len(axis) for _, _, _, axis in terms.values()]).tolist()
    order = np.argsort(rows, kind="stable")  # each row's targets in increasing order
    cuts = np.searchsorted(rows[order], [list(terms), [r + 1 for r in terms]]).tolist()
    for (_, (_, _, _, axis)), end, lo, hi in zip(terms.items(), ends, *cuts):
        span, sel = slice(end - len(axis), end), order[lo:hi]
        for part in _chunks(len(sel), axis.size * 32):
            # one advanced index keeps (N, targets, terms) C-ordered: a target's sum does not see the chunk
            ix = index[sel[None, part, None], axis.T[:, None]]
            ix += base[..., span]
            # (N, 3, targets, terms): each column's N moments multiplied in axis order
            moments = np.take(tables, ix, axis=1).swapaxes(0, 1)
            product = moments[0]  # a view of the gather's own array, multiplied in place
            for factor in (*moments[1:], c[..., span]):
                product *= factor
                # a product below the normal range loses up to 2**-1075, 2**-53 of the widened one's floor
                np.maximum(product[2], _TINY, out=product[2])
            sums[:, sel[part]] = product.sum(axis=-1)
    # widening every moment by its bound widens |terms| by at least the terms' error.  The products,
    # the weight, the sum over terms and the constant round fewer than 112 times, and what underflow
    # in the products and the weight drops is under 16 eps of the widened |terms|, floored at tiny
    value, tight, wide = sums
    return value, wide - tight + 128 * _EPS * wide


def transition_arrays(
    initial: ParticleState,
    positions: np.ndarray,
    words: np.ndarray,
    t: float,
    rates: RateTable,
    params: Optional[SpectralParams] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transition probabilities from one state to the targets of a table, as arrays.

    ``positions`` and ``words`` are (T, N) int64 arrays, row k the positions
    and species word of target k.  Returns float64 ``value`` and ``est_error``
    and int64 ``nodes_used`` arrays, one entry per target with the meaning of
    the :class:`ProbabilityResult` fields.

    All targets share one term walk and one table of moments.  The support is
    what :func:`core.word_floors` reaches: a reachable word, at or above its
    floor; every other target is an exact 0 with ``nodes_used`` 0, and builds
    no moment.  The table is validated as a whole by
    :func:`core.check_table`: positions not strictly increasing raise
    NonIncreasingPositions and species labels outside 1..N or another shape
    SpeciesOutOfRange, each naming the first bad target; a position of the
    initial state outside the int64 range raises ValueError.  An empty table
    runs every guard and returns empty arrays.  :class:`OverflowRisk` follows
    the module's three rules; no value returned is NaN or inf.  More than
    ``MAX_PARTICLES`` particles, or a term walk past its budget, raise ValueError.

    Every call evaluates once, its moments summing J = y_N - y_1 + 64 +
    ceil(8 scale t) terms, scale the smallest power of two at or above the
    largest rate of a species the start holds; the first rule, scale t at most
    ``OVERFLOW_EXPONENT``, bounds J.  An ``est_error`` that reaches
    ``adapt_tol`` raises :class:`NotConverged`.
    """
    params = params or SpectralParams()
    validate_state(initial, rates)
    n = len(initial)
    y = np.array(initial.positions, dtype=np.int64)
    positions, words = np.asarray(positions), np.asarray(words)
    check_table(positions, words, n)
    check_time(t)
    if n > MAX_PARTICLES:
        raise ValueError(f"{n} particles unsupported (limit {MAX_PARTICLES})")
    scale = _moment_scale(rates, initial.species)
    st = scale * t
    if not st <= OVERFLOW_EXPONENT:  # also a scale past the float range, even at t = 0
        raise OverflowRisk(
            f"scale t = {scale:g} * {t:g} passes {OVERFLOW_EXPONENT:g}, past which the series' terms "
            f"(scale t)**k / k! overflow; scale is the smallest power of two at or above the largest rate "
            f"of a species the start holds"
        )

    # the target table: the support (a reachable word at or above its floor), and for the targets
    # inside it their sector rows, constants and the distinct values of each position axis with
    # each target's index into them; the lexicographic word order is the code order
    x = positions
    reach, floors = _floor_table(initial)
    reach_codes, codes = word_codes(reach, n), word_codes(words, n)
    at = np.minimum(np.searchsorted(reach_codes, codes), len(reach) - 1)
    quad = (reach_codes[at] == codes) & (x >= floors[at]).all(axis=1)
    final, errs, length = np.zeros(len(x)), np.zeros(len(x)), 0
    if quad.any():
        sector = build_sector(initial.species)
        rows = np.searchsorted(word_codes(sector.letters, n), codes[quad])  # sector rows

        def overflow(bad: np.ndarray, why: str) -> None:  # raises naming the first target in bad
            if bad.any():
                raise OverflowRisk(f"{_describe(x, words, np.flatnonzero(quad)[bad.argmax()])} {why}")

        # positions relative to the start's leftmost site; each x - y[0] >= 0 must fit int64
        overflow((x[quad] > _INT64.max + min(int(y[0]), 0)).any(axis=1), "is too far from the start for int64")
        xq, y = x[quad] - y[0], y - y[0]
        axes = [np.unique(col, return_inverse=True) for col in xq.T]
        # beta = b / scale, exact, at the species the start holds and 0 at the others (whose b / scale
        # may pass the float range): the moments, the terms' weights and the constants read it
        held = np.unique(initial.species) - 1
        beta, eye = np.zeros(rates.n_species), np.eye(rates.n_species)[:, held]
        beta[held] = np.array(rates.rates)[held] / scale
        # decay * prod_s beta_s**d_s over the species s the start holds (d_s: their summed
        # displacement), over the terms' scale**P; float sums of positions never wrap
        d = (eye[words[quad] - 1] * xq[..., None]).sum(axis=1) - y @ eye[np.array(initial.species) - 1]
        decay = st * sum(beta[s - 1] for s in initial.species)
        with np.errstate(all="ignore"):  # beta_s**d_s with d_s < 0 may overflow: the value reports it
            consts = math.exp(-decay) * np.prod(beta[held] ** d, axis=1)
        # the terms a moment with q >= -span - 1 needs (every support target has x_1 >= y_1): in the
        # start's span and scale t alone, so a value has the same bits in any batch
        length = int(y[-1]) + 64 + math.ceil(8 * st)
        terms = _row_terms(sector, sector.index(initial.species), np.unique(rows), rates.n_species)
        with np.errstate(all="ignore"):  # any other overflow shows in the value, and raises there
            total, bound = _series_values(y, axes, rows, st, beta, length, terms)
            # both products may fall below the normal range, where each rounds by up to 2**-1075
            value, err = consts * total, consts * bound + 2 * _SUBNORMAL
            # a constant below the normal range has lost its relative precision, and may be 0 where
            # the value is not: there the value is sign(total) exp(log C + log |total|), log C summed
            # as logarithms.  Each logarithm and sum rounds within a few eps of its size, so the
            # exponent is off by at most eta = 64 eps (1 + the sizes), and the value by at most
            # C (2 eta |total| + bound), C < exp(log C + eta); a subnormal result rounds by 2**-1074
            low = ~(np.abs(consts) >= _TINY)
            if low.any():
                logs = np.column_stack([d[low] * np.log(beta[held]), np.full(low.sum(), -decay)])
                log_c, mag = logs.sum(axis=1), np.log(np.abs(total[low]))
                eta = 64 * _EPS * (1 + np.abs(logs).sum(axis=1) + np.where(np.isfinite(mag), np.abs(mag), 0.0))
                spread = np.log(2 * eta * np.abs(total[low]) + bound[low])
                value[low] = np.sign(total[low]) * np.exp(log_c + mag)
                err[low] = np.exp(log_c + spread + eta + 8 * _EPS * np.abs(spread)) + 2 * _SUBNORMAL
            errs[quad] = err
        overflow(~np.isfinite(value), "overflows the spectral route")
        if not errs.max() < params.adapt_tol:
            raise NotConverged(f"error bound {errs.max():.3e} reaches the tolerance {params.adapt_tol:.3e}")
        final[quad] = value
    return final, errs, np.where(quad, length, 0)


def transition_matrix(
    initial: ParticleState,
    targets: Sequence[ParticleState],
    t: float,
    rates: RateTable,
    params: Optional[SpectralParams] = None,
    threads: int = 1,
) -> list[ProbabilityResult]:
    """Transition probabilities from one state to many targets at time t.

    A thin wrapper over :func:`transition_arrays`: the targets become its
    position and word arrays (see :func:`core.state_arrays` for the errors that
    raises), and its arrays one :class:`ProbabilityResult` per target.
    ``threads`` must be an integer of at least 1 and selects nothing: every
    call runs on the calling thread.  It stays only because the benchmark's
    ``grid-n4`` job passes ``threads=1``.
    """
    if check_int(threads, "threads") < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    positions, words = state_arrays(targets, rates.n_species)
    value, errs, nodes = transition_arrays(initial, positions, words, t, rates, params=params)
    columns = (value.tolist(), errs.tolist(), nodes.tolist())
    return [ProbabilityResult(*r) for r in zip(*columns)]


def transition_probability(
    initial: ParticleState,
    target: ParticleState,
    t: float,
    rates: RateTable,
    params: Optional[SpectralParams] = None,
) -> ProbabilityResult:
    """Probability of finding the system at ``target`` at time t."""
    return transition_matrix(initial, [target], t, rates, params=params)[0]
