"""Finite-time transition probabilities from the contour-integral representation.

Each probability is a sum over the symmetric group of N-fold integrals over
a common circle around the origin.  The circle must keep every amplitude
pole 1/b_l outside; the trapezoid rule on equispaced nodes then converges
geometrically, and raising the node count along a ladder of two rungs per
octave (32, 48, 64, 96, ...) until two successive values agree gives a
computable error estimate.

The m-node rule cannot tell xi^p from xi^(p mod m), and two rules alias alike
when a start gap is a common multiple of their node counts.  So every call
probes only the rungs above the largest start gap max(y_k - x_i), a ladder of
one rung at fixed nodes (:func:`node_ladder`), and raises
:class:`NodeFloorExceeded` when too few fit; no adaptive value goes unconfirmed.

At one spectral point the sum over the symmetric group is :func:`bethe_sum`:
the amplitude matrices of :func:`rmatrix.build_all_A`, stacked on a leading
permutation axis, contracted with the plane-wave phases in one product.

The N-fold trapezoid sum never visits the grid of node tuples.  The factors
S = -(1 - b xi_beta)/(1 - b xi_alpha) and T = b (xi_beta - xi_alpha)/(1 - b xi_alpha)
are sums of at most two products of one-variable functions, so every entry of
A_sigma e_nu is a short sum of terms c prod_d xi_d^(a_d) prod_s (1 - b_s xi_d)^(e_ds)
with integer a and e, and the grid sum of a term is a product of N moments

  M(q, e) = sum_j (xi_j / m) exp(t / xi_j) xi_j^q prod_s (1 - b_s xi_j)^(e_s),

q = x_i - y_d - 1 + a_d for the target position x_i that sigma pairs with axis
d.  A probe is sum_sigma sum_terms c prod_d M(q_d, e_d), the grid sum in
another order (the tests check it against the literal sum over node tuples).
Rates and t are real and the nodes closed under conjugation, so each moment
is real, and only its real part is kept.

The terms come from one walk per call over ``enumerate_sn``, parent before
child (:func:`_row_terms`): S maps a term to minus itself with e_beta + 1 and
e_alpha - 1 at the letter's species, T to b times it with a_beta + 1 and
minus b times it with a_alpha + 1, each with e_alpha - 1, and a descending
row negates.  Rows are classed by the :meth:`core.WordBlock.slot_table` the
dense path reads, each permutation carries only the rows some target row
depends on (:func:`_needed_rows`), like terms merge, and past
``_CHUNK_BUDGET_BYTES`` of carried terms the walk raises.  A probe builds the
moments on its nodes and gathers each target's terms in chunks under that
budget.  Each moment sums its nodes, and each target its terms, in a fixed
order, so a value has the same bits on repeated calls, alone or in a batch,
and however it is chunked.

Targets enter as one table: :func:`transition_arrays` takes (T, N) int64
position and word arrays, validates them with :func:`core.check_table`, keeps
the support :func:`core.word_floors` reaches (the rule
:func:`core.window_states` lists by) and, for the targets in it, builds the
sector rows, constants and per-axis distinct positions every later stage
reads.  :func:`transition_matrix` wraps it for lists of states.

A target's node powers have size r^P on every term, P = sum(x) - sum(y) - N.
So positions are taken relative to the start's leftmost site, and the moments
take powers of the nodes times 2^c, c = -round(log2 r), which lie on a circle
of radius in [2^-1/2, 2^1/2]: each term, given the exact 2^(-c sum(a)), gains
the exact 2^(cP) and keeps its mantissa, and the target's constant takes it
back.  :class:`OverflowRisk` has three rules: N t/r past ``OVERFLOW_EXPONENT``
and x - y_1 past int64, before any probe, and a probe value that is not
finite, naming its first such target.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ParticleState,
    RateTable,
    WordBlock,
    _describe,
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
    word_floors,
)
from .rmatrix import chain_factors, contour_bound

MAX_PARTICLES = 6

# a term multiplies N moments, each with a time factor exp(t/xi): past this, exp(N t/radius) overflows
OVERFLOW_EXPONENT = 700.0

# target bytes for one chunk of an array of targets by terms or trials, and the most a term walk carries
_CHUNK_BUDGET_BYTES = 2.0e8

# largest node count per dimension SpectralParams accepts
MAX_NODES_PER_DIM = 4096

_INT64 = np.iinfo(np.int64)


class ContourInvalid(ValueError):
    """Contour radius conflicts with the pole locations of the integrand."""


class NotConverged(RuntimeError):
    """Node refinement hit the cap before reaching the requested tolerance."""


class NodeFloorExceeded(ValueError):
    """The largest start gap leaves too few rungs above it within ``max_nodes`` (see :func:`node_ladder`)."""


class OverflowRisk(ArithmeticError):
    """The N time factors overflow float64, a position x - y_1 int64, or a probe is not finite."""


@dataclass(frozen=True)
class SpectralParams:
    """Contour radius and quadrature controls.

    ``radius=None`` picks half the admissible bound at call time, once the
    rates are known.  ``radius`` and ``adapt_tol`` must be finite positive
    real numbers (bools raise TypeError).  Node counts are integers (bools and
    floats raise TypeError) and powers of two from 4 to ``MAX_NODES_PER_DIM``,
    so both are rungs of the refinement ladder (see :func:`next_rung`).  Every
    call, fixed-node or adaptive, probes the rungs from ``nodes_per_dim`` to
    ``max_nodes`` that lie above the largest start gap (see :func:`node_ladder`).
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

    ``value`` is the quadrature value, a real number (a sum of products of real
    one-dimensional moments), reported without clamping so quadrature noise
    stays visible.  ``est_error`` is the change in the value over the last
    refinement step, from the rung before ``nodes_used`` (0 for a target
    outside the support, or when adaptivity was disabled by setting
    max_nodes == nodes_per_dim).  ``nodes_used`` is a rung of
    :func:`next_rung`'s ladder: a power of two or 3/2 of one (24, 48, 96,
    192, ...), and 0 for a target outside the support, an exact zero.
    """

    value: float
    est_error: float
    nodes_used: int


def next_rung(m: int) -> int:
    """The node count after m: 3m/2 after a power of two, 4m/3 after 3/2 of one.

    From 4 the ladder runs 4, 6, 8, 12, 16, 24, 32, 48, ...: every power of two is a rung.
    """
    return m * 3 // 2 if m & (m - 1) == 0 else m * 4 // 3


def node_ladder(gap: int, params: SpectralParams) -> list[int]:
    """The rungs of :func:`next_rung` from ``nodes_per_dim`` to ``max_nodes`` above the start gap.

    Two rules alias a gap alike when it is a common multiple of their node counts, so every probe
    must exceed the largest start gap.  A fixed-node call is a ladder of one rung, an adaptive one
    needs two: a first probe and a rung to confirm it.  Fewer raise :class:`NodeFloorExceeded`.
    """
    rungs = [params.nodes_per_dim]
    while rungs[-1] < params.max_nodes:
        rungs.append(next_rung(rungs[-1]))
    ladder = [m for m in rungs if m > gap]
    if len(ladder) < min(2, len(rungs)):
        what = "a probe above it" if len(rungs) == 1 else "a first probe above it and a rung to confirm it"
        raise NodeFloorExceeded(f"the start gap {gap} needs {what} within max_nodes {params.max_nodes}")
    return ladder


def default_radius(rates: RateTable) -> float:
    """Half the admissible contour bound: poles sit at relative distance >= 2."""
    return 0.5 * contour_bound(rates)


def rate_power_diag(positions, sector: WordBlock, rates) -> np.ndarray:
    """Diagonal of the rate-power matrix: product of b_{w(i)}^{x_i} per word, (dim, *batch)."""
    b, words = np.asarray(rates, dtype=float), np.array(sector.words).T
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
# the trapezoid sum as a sum of products of one-dimensional moments
# ---------------------------------------------------------------------------


def _chunks(count: int, item_bytes: int) -> list[slice]:
    """Slices of ``count`` items of ``item_bytes`` each that keep every slice under the chunk budget."""
    step = max(1, int(_CHUNK_BUDGET_BYTES // max(item_bytes, 1)))
    return [slice(a, a + step) for a in range(0, count, step)]


def _needed_rows(sector: WordBlock, rows) -> np.ndarray:
    """(N!, dim) mask of the word rows each permutation's column carries, in ``enumerate_sn`` order.

    The target rows, and each parent row a carried row reads: itself, and its swapped partner where
    it ascends at the factor's slot.
    """
    perms = enumerate_sn(sector.word_length)
    pos = {elem.image: k for k, elem in enumerate(perms)}
    need = np.zeros((len(perms), sector.dim), dtype=bool)
    need[:, rows] = True
    for k in range(len(perms) - 1, 0, -1):  # children come after their parent
        _, _, asc, partner, _, _ = sector.slot_table(perms[k].slot)
        parent = pos[perms[k].pred.image]
        need[parent] |= need[k]
        need[parent, [p for r, p in zip(asc, partner) if need[k, r]]] = True
    return need


def _row_terms(sector: WordBlock, nu_idx: int, rows, rates: RateTable) -> tuple[np.ndarray, dict]:
    """The terms of each target row of sum_sigma A_sigma e_nu, and their pole signatures.

    Returns ``(poles, terms)``.  ``terms[r]`` is ``(coef, a, sig, axis)``, one (K,) and three
    (K, N) arrays, for each of ``rows``: term k is coef[k] prod_d xi_d**a[k, d]
    prod_s (1 - b_s xi_d)**poles[sig[k, d], s], and its axis d pairs with target axis
    axis[k, d].  Terms are listed permutation by permutation in ``enumerate_sn`` order.
    The walk raises ValueError as soon as the columns it carries pass ``_CHUNK_BUDGET_BYTES``.
    """
    n, dim, perms = sector.word_length, sector.dim, enumerate_sn(sector.word_length)
    pos = {elem.image: k for k, elem in enumerate(perms)}
    need, b, species = _needed_rows(sector, rows), np.array(rates.rates), rates.n_species
    e0 = 2 + n  # a column is a table of terms: coefficients, and keys of row, permutation, a and e
    cols = [(np.ones(1), np.array([[nu_idx] + [0] * (e0 - 1 + n * species)]))]  # the identity's e_nu
    carried = 0
    for k, elem in enumerate(perms[1:], 1):
        slot, beta, alpha = chain_factors(elem)[-1]
        _, eq, asc, partner, eq_letter, asc_letter = sector.slot_table(slot)
        letter, up = np.zeros(dim, dtype=np.int64), np.full(dim, -1)
        letter[list(eq) + list(asc)] = eq_letter + asc_letter  # 0 on a descending row
        up[list(partner)] = asc  # the ascending row that reads each partner
        coef, key = cols[pos[elem.pred.image]]
        # each carried row reads its own parent row: -term on a descending row, S on the others
        own = need[k, key[:, 0]]
        s_coef, s_key = -coef[own], key[own]
        s_letter = letter[s_key[:, 0]]
        hit = np.flatnonzero(s_letter)
        s_key[hit, e0 + (beta - 1) * species + s_letter[hit] - 1] += 1
        s_key[hit, e0 + (alpha - 1) * species + s_letter[hit] - 1] -= 1
        # an ascending row also reads its partner's: T, two terms
        reads = np.flatnonzero(up[key[:, 0]] >= 0)
        reads = reads[need[k, up[key[reads, 0]]]]
        t_key = key[reads]
        t_key[:, 0] = up[t_key[:, 0]]
        t_letter = letter[t_key[:, 0]]
        t_key[np.arange(len(reads)), e0 + (alpha - 1) * species + t_letter - 1] -= 1
        t_coef = b[t_letter - 1] * coef[reads]
        beta_key, alpha_key = t_key.copy(), t_key
        beta_key[:, 1 + beta] += 1
        alpha_key[:, 1 + alpha] += 1
        key = np.concatenate([s_key, beta_key, alpha_key])
        key[:, 1] = k
        cols.append((np.concatenate([s_coef, t_coef, -t_coef]), key))
        carried += cols[-1][0].nbytes + key.nbytes
        if carried > _CHUNK_BUDGET_BYTES:
            why = f"{_CHUNK_BUDGET_BYTES:g} bytes; split the targets by word row"
            raise ValueError(f"the term walk for {len(rows)} word rows passes its budget of {why}")
    # the target rows' terms: like terms merge and exact cancellations drop, sorted by row and permutation
    coef, key = (np.concatenate(c) for c in zip(*cols))
    read = np.isin(key[:, 0], rows)
    key = key[read]
    first, at = unique_rows(key)
    key = key[first]
    coef = np.bincount(at, weights=coef[read], minlength=len(key))
    coef, key = coef[coef != 0], key[coef != 0]
    signatures = key[:, e0:].reshape(-1, species)
    first, sig = unique_rows(signatures)
    poles = signatures[first]
    a, sig, axis = key[:, 2:e0], sig.reshape(-1, n), np.argsort(_image_rows(n), axis=1)[key[:, 1]]
    bounds = {int(r): slice(*np.searchsorted(key[:, 0], [r, r + 1])) for r in rows}  # keys sort by row first
    return poles, {r: (coef[s], a[s], sig[s], axis[s]) for r, s in bounds.items()}


def _grid_values(
    y: np.ndarray,
    axes: list[tuple[np.ndarray, np.ndarray]],
    rows: np.ndarray,
    t: float,
    rates: RateTable,
    m: int,
    radius: float,
    scale: float,
    terms: tuple[np.ndarray, dict],
) -> np.ndarray:
    """The m-node trapezoid sum over permutations, a real value per target (constants excluded).

    Positions are relative to the start's leftmost site: ``y`` is the start's, ``axes[i]`` the
    distinct i-th target positions with each target's index into them.  ``rows`` are the targets'
    word rows and ``terms`` is :func:`_row_terms` of them.  Powers are taken of ``nodes * scale``,
    a power of two.
    """
    poles, terms = terms
    nodes = radius * np.exp(2j * np.pi * np.arange(m) / m)
    # one weight per node and pole signature: node weight, time factor and the poles' powers
    pole = 1.0 - np.array(rates.rates)[:, None] * nodes  # (species, m)
    weight = nodes / m * np.exp(t / nodes) * np.prod(_int_power(pole, poles[..., None]), axis=1)
    # moments[sig, d, a, p]: the distinct target positions p of every axis, one after another
    a_len = max(int(a.max(initial=0)) for _, a, _, _ in terms.values()) + 1
    sites = np.concatenate([ux for ux, _ in axes])
    q = sites - y[:, None, None] - 1 + np.arange(a_len)[:, None]  # (N, a_len, sites)
    powers = _int_power(nodes * scale, q[..., None])
    # each moment sums its m nodes along a contiguous axis: the order depends on m alone
    moments = np.array([(powers * w).sum(axis=-1).real for w in weight]).reshape(len(weight), *q.shape)
    start = np.cumsum([0] + [len(ux) for ux, _ in axes[:-1]])
    index = np.stack([ix + s for (_, ix), s in zip(axes, start)], axis=1)  # (targets, N) into sites
    total = np.zeros(len(rows))
    for r, (coef, a, sig, axis) in terms.items():
        base = np.ravel_multi_index((sig, np.arange(len(y)), a, 0), moments.shape)
        c = coef * scale ** -a.sum(axis=1)  # the exact 2**(-c sum(a)) of the scaled powers
        sel = np.flatnonzero(rows == r)
        for part in _chunks(len(sel), a.size * 8):
            # one advanced index keeps (targets, terms, N) C-ordered: a target's sum does not see the chunk
            ix = index[sel[part, None, None], axis]
            ix += base
            total[sel[part]] = (np.prod(moments.ravel()[ix], axis=2) * c).sum(axis=1)
    return total


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

    All targets share one term walk and, per probe, one table of moments.  The
    support is what :func:`core.word_floors` reaches: a reachable word, at or
    above its floor; every other target is an exact 0 with ``nodes_used`` 0,
    and runs no probe.  The table is validated as a whole by
    :func:`core.check_table`: positions not strictly increasing raise
    NonIncreasingPositions and species labels outside 1..N or another shape
    SpeciesOutOfRange, each naming the first bad target; a position of the
    initial state outside the int64 range raises ValueError.  An empty table
    runs every guard and returns empty arrays.  :class:`OverflowRisk` follows
    the module's three rules; no value returned is NaN or inf.  More than
    ``MAX_PARTICLES`` particles, or a term walk past its budget, raise ValueError.

    Node counts climb :func:`node_ladder`, the rungs above the largest start
    gap G = max(y_k - x_i) over the targets in the support, until the largest
    change over targets between two rungs drops below ``adapt_tol``; hitting
    ``max_nodes`` without converging raises :class:`NotConverged`, and too few
    rungs above G raise :class:`NodeFloorExceeded` before any probe.  Setting
    ``max_nodes == nodes_per_dim`` disables adaptivity and evaluates once, on
    a ladder of that one rung: the gap floor still applies.
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
    radius = params.radius if params.radius is not None else default_radius(rates)
    bound = contour_bound(rates)
    if not 0 < radius < bound:
        raise ContourInvalid(f"radius {radius:g} outside (0, {bound:g}) for rates {rates.rates}")
    if t > 0 and n * t / radius > OVERFLOW_EXPONENT:
        raise OverflowRisk(f"N t/radius = {n * t / radius:g} would overflow the {n} time factors")

    # the target table: the support (a reachable word at or above its floor), and for the targets
    # inside it their sector rows, constants and the distinct values of each position axis with
    # each target's index into them; the lexicographic word order is the code order
    x = positions
    reach = dict(sorted(word_floors(initial).items()))
    reach_codes, codes = word_codes(np.array(list(reach)), n), word_codes(words, n)
    at = np.minimum(np.searchsorted(reach_codes, codes), len(reach) - 1)
    quad = (reach_codes[at] == codes) & (x >= np.array(list(reach.values()))[at]).all(axis=1)
    final, errs, m = np.zeros(len(x)), np.zeros(len(x)), 0
    if quad.any():
        sector = build_sector(initial.species)
        rows = np.searchsorted(word_codes(np.array(sector.words), n), codes[quad])  # sector rows

        def overflow(bad: np.ndarray, why: str) -> None:  # raises naming the first target in bad
            if bad.any():
                raise OverflowRisk(f"{_describe(x, words, np.flatnonzero(quad)[bad.argmax()])} {why}")

        # positions relative to the start's leftmost site; each x - y[0] >= 0 must fit int64
        overflow((x[quad] > _INT64.max + min(int(y[0]), 0)).any(axis=1), "is too far from the start for int64")
        xq, y = x[quad] - y[0], y - y[0]
        axes = [np.unique(col, return_inverse=True) for col in xq.T]
        # decay * prod_s b_s**d_s (d_s: summed displacement of species s), over the terms' scale**P
        b, eye = np.array(rates.rates), np.eye(rates.n_species)  # float sums of positions never wrap
        d = (eye[words[quad] - 1] * xq[..., None]).sum(axis=1) - y @ eye[np.array(initial.species) - 1]
        decay = math.exp(-t * sum(map(rates.rate, initial.species)))
        with np.errstate(all="ignore"):  # a tiny radius overflows scale**n: the probe reports it
            scale = np.exp2(-np.round(np.log2(radius)))
            consts = decay * scale**n * np.prod((b / scale) ** d, axis=1)
        # the terms' exponents do not depend on m
        terms = _row_terms(sector, sector.index(initial.species), np.unique(rows), rates)

        @np.errstate(all="ignore")  # any other overflow shows in the value, and raises there
        def probe(m):
            value = consts * _grid_values(y, axes, rows, t, rates, m, radius, scale, terms)
            overflow(~np.isfinite(value), f"overflows the spectral route at {m} nodes")
            return value

        ladder = node_ladder(int(y[-1] - xq[:, 0].min()), params)
        m, cur = ladder[0], probe(ladder[0])
        for m in ladder[1:]:  # a fixed-node ladder has no second rung and reports no change
            prev, cur = cur, probe(m)
            errs[quad] = np.abs(cur - prev)
            if errs.max() < params.adapt_tol:
                break
        if errs.max() >= params.adapt_tol:  # every probe is finite, so is every change
            raise NotConverged(
                f"{m} nodes per dimension reached with delta {errs.max():.3e} "
                f"(tolerance {params.adapt_tol:.3e})"
            )
        final[quad] = cur
    return final, errs, np.where(quad, m, 0)


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
    probe runs on the calling thread.  It stays only because the benchmark's
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
