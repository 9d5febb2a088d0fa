"""Finite-time transition probabilities from the contour-integral representation.

Each probability is a sum over the symmetric group of N-fold integrals over
a common circle around the origin.  The circle must keep every amplitude
pole 1/b_l outside; the trapezoid rule on equispaced nodes then converges
geometrically, and doubling the node count until two successive values
agree gives a computable error estimate.

The tensor-grid sum is evaluated by contracting, per permutation, the grid
of amplitude-column values against one matrix of weighted node powers per
dimension.  That regrouping is algebraically identical to summing the
integrand node by node (the tests check this against a literal node loop)
but shares all work between targets.

The grid is cut into slabs of rows along its first axis.  Inside a slab the
amplitude columns are built by walking the predecessor tree of
``enumerate_sn`` depth first from the identity column: each permutation
applies one two-site factor, the last of its reduced word, to its parent's
columns through :class:`rmatrix.SlotAction`, so a slab costs N! - 1 factor
applications; the identity term needs no columns, its grid sum factorizes
into column sums.  Columns are held as (dim, *slab) arrays, one contiguous
array per word row.  A parent's last child overwrites the parent's columns in
place and children are visited smallest subtree first, so at most N - 1
column arrays are alive at once (2, 3, 4, 5 at N = 3, 4, 5, 6).  Columns are
contracted where they lie; each slab adds its per-target moments in tree-walk
order, the slab sums are added in slab order and the identity term last.  This
fixed order gives the same bits at a given node count on repeated calls and for
any ``threads`` (the pool only maps slabs to workers).

Targets enter as one table: :func:`transition_arrays` takes (T, N) int64
position and word arrays, validates them as a whole with
:func:`core.check_table` and builds the support mask and, for the targets
inside the support, the sector rows (one ``searchsorted`` of
:func:`core.word_codes`), rate-power constants and per-axis distinct
positions; every later stage reads it.  :func:`transition_matrix` is
a thin wrapper that turns a list of states into those arrays and the returned
arrays into one :class:`ProbabilityResult` per target.
Positions are taken relative to the start's leftmost site: the value is
translation invariant, and a start far from the origin then overflows nothing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ParticleState,
    PermutationElem,
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
    validate_state,
    word_codes,
)
from .rmatrix import SlotAction, SpectralPoint, chain_factors, contour_bound

MAX_PARTICLES_DEFAULT = 4
MAX_PARTICLES_HARD = 6

# exp(t/xi) on the contour is bounded by exp(t/radius); past this it overflows.
OVERFLOW_EXPONENT = 700.0

# target bytes for one slab of amplitude-column values
_SLAB_BUDGET_BYTES = 2.0e8

# largest node count per dimension SpectralParams accepts
MAX_NODES_PER_DIM = 4096

_INT64 = np.iinfo(np.int64)


class ContourInvalid(ValueError):
    """Contour radius conflicts with the pole locations of the integrand."""


class NotConverged(RuntimeError):
    """Node doubling hit the cap before reaching the requested tolerance."""


class OverflowRisk(ArithmeticError):
    """A time factor, rate power or node power overflows float64, or a displacement int64."""


@dataclass(frozen=True)
class SpectralParams:
    """Contour radius and quadrature controls.

    ``radius=None`` picks half the admissible bound at call time, once the
    rates are known.  ``radius`` and ``adapt_tol`` must be finite positive
    real numbers (bools raise TypeError).  Node counts are integers (bools and
    floats raise TypeError) and powers of two from 4 to ``MAX_NODES_PER_DIM``,
    so refinement can double them.
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

    ``raw`` keeps the complex quadrature output; ``value`` is its real part,
    reported without clamping so quadrature noise stays visible.
    ``est_error`` is the change in the last node doubling (0 when the value
    is exact by a support argument, or when adaptivity was disabled by
    setting max_nodes == nodes_per_dim).
    """

    value: float
    raw: complex
    est_error: float
    nodes_used: int


def default_radius(rates: RateTable) -> float:
    """Half the admissible contour bound: poles sit at relative distance >= 2."""
    return 0.5 * contour_bound(rates)


def epsilon(pi: Sequence[int], sp: SpectralPoint, rates: RateTable) -> complex:
    """Exponent of the time factor: sum of 1/xi_k minus the total jump rate of the word."""
    return sum(1.0 / z for z in sp.xi) - sum(rates.rate(s) for s in pi)


def integrand(
    sigma: PermutationElem,
    sp: SpectralPoint,
    initial: ParticleState,
    target: ParticleState,
    t: float,
    rates: RateTable,
    sector: WordBlock,
    amplitude: np.ndarray,
) -> complex:
    """Scalar integrand of one permutation at one spectral point.

    ``amplitude`` must be the matrix :func:`rmatrix.build_A_sigma` attaches to
    ``sigma`` at ``sp``; it is a parameter so batch callers can reuse it.
    """
    x, pi = target.positions, target.species
    y, nu = initial.positions, initial.species
    val = complex(np.exp(epsilon(pi, sp, rates) * t))
    val *= amplitude[sector.index(pi), sector.index(nu)]
    for i in range(len(x)):
        val *= rates.rate(pi[i]) ** x[i] * rates.rate(nu[i]) ** (-y[i])
    for i, k in enumerate(sigma.image):
        val *= sp.xi[k - 1] ** (x[i] - y[k - 1] - 1)
    return val


def rate_power_diag(
    positions: Sequence[int], sector: WordBlock, rates: RateTable
) -> np.ndarray:
    """Diagonal of the rate-power matrix: product of b_{w(i)}^{x_i} per word."""
    out = np.ones(sector.dim)
    for r, w in enumerate(sector.words):
        for s, xv in zip(w, positions):
            out[r] *= rates.rate(s) ** xv
    return out


def bethe_sum(
    positions: Sequence[int],
    sp: SpectralPoint,
    rates: RateTable,
    sector: WordBlock,
    amplitudes: dict[tuple[int, ...], np.ndarray],
) -> np.ndarray:
    """Spatial part of the spectral solution, summed over the symmetric group.

    Positions may be any integers (no ordering required); this is the lattice
    function whose free evolution and adjacency conditions the tests verify.
    """
    n = len(positions)
    diag = rate_power_diag(positions, sector, rates)
    total = np.zeros((sector.dim, sector.dim), dtype=complex)
    for image, amp in amplitudes.items():
        phase = complex(np.prod([sp.xi[image[i] - 1] ** positions[i] for i in range(n)]))
        total += diag[:, None] * amp * phase
    return total


# ---------------------------------------------------------------------------
# batched evaluation over the tensor grid of contour nodes
# ---------------------------------------------------------------------------


def _contour_nodes(radius: float, m: int) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(m) / m)


def _slab_ranges(m: int, n: int, dim: int) -> list[tuple[int, int]]:
    # n - 1 live column arrays on the tree walk plus contraction intermediates, at least four
    per_row = m ** (n - 1) * dim * 16 * max(4, n)
    s = max(1, min(m, int(_SLAB_BUDGET_BYTES / max(per_row, 1))))
    return [(a, min(a + s, m)) for a in range(0, m, s)]


def _walk_tree(perms: list[PermutationElem]) -> list[list[int]]:
    """Children of each permutation in the predecessor tree, smallest subtree first.

    Indices are positions in ``perms``, whose breadth-first order lists every
    parent before its children.
    """
    pos = {elem.image: k for k, elem in enumerate(perms)}
    parent = [None if elem.is_identity else pos[elem.pred.image] for elem in perms]
    size = [1] * len(perms)
    for k in range(len(perms) - 1, 0, -1):
        size[parent[k]] += size[k]
    children: list[list[int]] = [[] for _ in perms]
    for k in sorted(range(1, len(perms)), key=size.__getitem__):
        children[parent[k]].append(k)
    return children


def _slab_moments(
    a: int,
    b: int,
    nodes: np.ndarray,
    children: list[list[int]],
    steps: list[tuple],
    actions: dict[int, SlotAction],
    nu_idx: int,
    n: int,
    dim: int,
) -> np.ndarray:
    """Per-target sum over the non-identity permutations of grid rows [a, b).

    Walks the predecessor tree depth first from the identity column: each
    permutation applies its last factor to its parent's columns, and a
    parent's last child does so in place.  Moments are added in walk order.
    """
    xi = [
        (nodes[a:b] if d == 0 else nodes).reshape((1,) * d + (-1,) + (1,) * (n - 1 - d))
        for d in range(n)
    ]
    total = 0.0

    def visit(k: int, v: np.ndarray) -> None:
        nonlocal total
        for j, c in enumerate(children[k]):
            (slot, beta, alpha), weighted, gather = steps[c]
            last = j == len(children[k]) - 1
            w = actions[slot].apply(xi[beta - 1], xi[alpha - 1], v, out=v if last else None)
            arr = w  # (dim, rows, m, ..., m): grid axis k_d sits at position d
            for d in range(n, 1, -1):
                arr = np.tensordot(arr, weighted[d - 1], axes=([d], [0]))
            total += np.tensordot(arr, weighted[0][a:b], axes=([1], [0])).T[gather]
            visit(c, w)

    root = np.zeros((dim, b - a) + (len(nodes),) * (n - 1), dtype=complex)
    root[nu_idx] = 1.0
    visit(0, root)
    return total


def _grid_values(
    y: np.ndarray,
    nu_idx: int,
    axes: list[tuple[np.ndarray, np.ndarray]],
    rows: np.ndarray,
    t: float,
    rates: RateTable,
    sector: WordBlock,
    perms: list[PermutationElem],
    m: int,
    radius: float,
    threads: int,
) -> np.ndarray:
    """Sum over permutations of the quadrature value per target (constants excluded).

    Positions are relative to the start's leftmost site: ``y`` is the start's,
    ``axes[i]`` the distinct i-th target positions with each target's index
    into them.  ``nu_idx`` and ``rows`` are the start's and targets' word rows.
    """
    n = len(y)
    dim = sector.dim
    nodes = _contour_nodes(radius, m)
    u = nodes / m * np.exp(t / nodes)  # node weight times time factor, per dimension
    actions = {slot: SlotAction(sector, slot, rates) for slot in range(1, n)}
    # node weights times powers of grid axis k against target axis i, built once per pair
    with np.errstate(over="ignore", invalid="ignore"):
        pair_weights = {
            (k, i): u[:, None] * nodes[:, None] ** (ux - y[k] - 1)[None, :]
            for k in range(n)
            for i, (ux, _) in enumerate(axes)
        }
    if not all(np.isfinite(w).all() for w in pair_weights.values()):
        raise OverflowRisk(f"node powers overflow at radius {radius:g}: the start spans {y[-1]} sites")
    steps = [None]  # perms[0] is the identity, whose term is the column sums below
    for elem in perms[1:]:
        inv = np.argsort(np.array(elem.image))  # inv[k] = i with sigma(i) = k+1
        steps.append((
            chain_factors(elem)[-1],
            [pair_weights[k, i] for k, i in enumerate(inv)],
            tuple(axes[i][1] for i in inv) + (rows,),
        ))

    ranges = _slab_ranges(m, n, dim)
    args = (nodes, _walk_tree(perms), steps, actions, nu_idx, n, dim)
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # map yields in slab order, so the reduction order stays fixed
            parts = list(pool.map(lambda r: _slab_moments(*r, *args), ranges))
    else:
        parts = [_slab_moments(a, b, *args) for a, b in ranges]
    # identity amplitude: the grid sum factorizes into column sums
    ident = np.prod([pair_weights[k, k].sum(axis=0)[ix] for k, (_, ix) in enumerate(axes)], axis=0)
    return sum(parts) + np.where(rows == nu_idx, ident, 0.0)


def transition_arrays(
    initial: ParticleState,
    positions: np.ndarray,
    words: np.ndarray,
    t: float,
    rates: RateTable,
    params: Optional[SpectralParams] = None,
    threads: int = 1,
    allow_large: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transition probabilities from one state to the targets of a table, as arrays.

    ``positions`` and ``words`` are (T, N) int64 arrays, row k the positions
    and species word of target k.  Returns ``(value, raw, est_error,
    nodes_used)``, one entry per target with the meaning of the
    :class:`ProbabilityResult` fields.

    All targets share the spectral grid, so the amplitude columns are built
    once per node tuple regardless of how many targets are requested.
    Targets outside the support (different species multiset, or any ordered
    position below its initial value) come back as exact zeros.  The table is
    validated as a whole by :func:`core.check_table`: positions not strictly
    increasing raise NonIncreasingPositions and species labels outside 1..N or
    another shape SpeciesOutOfRange, each naming the first bad target; a
    position of the initial state outside the int64 range raises ValueError.
    An empty table runs every guard and returns empty arrays.

    Node counts double from ``nodes_per_dim`` until the largest change over
    targets drops below ``adapt_tol``; hitting ``max_nodes`` without
    converging raises :class:`NotConverged`.  Setting
    ``max_nodes == nodes_per_dim`` disables adaptivity and evaluates once.
    """
    params = params or SpectralParams()
    validate_state(initial, rates)
    n = len(initial)
    y = np.array(initial.positions, dtype=np.int64)
    positions, words = np.asarray(positions), np.asarray(words)
    check_table(positions, words, n)
    check_time(t)
    if check_int(threads, "threads") < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if n > MAX_PARTICLES_HARD:
        raise ValueError(f"{n} particles unsupported (limit {MAX_PARTICLES_HARD})")
    if n > MAX_PARTICLES_DEFAULT and not allow_large:
        raise ValueError(
            f"{n} particles needs allow_large=True (grid cost grows like nodes**{n} * {n}!)"
        )
    radius = params.radius if params.radius is not None else default_radius(rates)
    bound = contour_bound(rates)
    if not 0 < radius < bound:
        raise ContourInvalid(f"radius {radius:g} outside (0, {bound:g}) for rates {rates.rates}")
    if t > 0 and t / radius > OVERFLOW_EXPONENT:
        raise OverflowRisk(f"t/radius = {t / radius:g} would overflow the time factor")

    # the target table: the support mask, and for the quadrature targets their
    # sector rows, rate-power constants and the distinct values of each
    # position axis with each target's index into them
    x = positions
    quad = (np.sort(words, axis=1) == sorted(initial.species)).all(axis=1)
    quad &= (x >= y).all(axis=1)
    final = np.zeros(len(x), dtype=complex)
    errs = np.zeros(len(x))
    m = 0
    if quad.any():
        sector = build_sector(initial.species)
        perms = enumerate_sn(n)
        # sector rows by word codes: the lexicographic word order is the code order
        rows = np.searchsorted(word_codes(np.array(sector.words), n), word_codes(words[quad], n))
        # positions relative to the start's leftmost site; each x - y[0] >= 0 must fit int64
        far = (x[quad] > _INT64.max + min(int(y[0]), 0)).any(axis=1)
        xq, y = x[quad] - y[0], y - y[0]
        axes = [np.unique(col, return_inverse=True) for col in xq.T]
        nu_idx = sector.index(initial.species)
        b = np.array(rates.rates)
        decay = math.exp(-t * sum(map(rates.rate, initial.species)))
        with np.errstate(over="ignore", invalid="ignore"):
            y_factor = np.prod(b[np.array(initial.species) - 1] ** -y)
            consts = decay * y_factor * np.prod(b[words[quad] - 1] ** xq, axis=1)
        far |= ~np.isfinite(consts)
        if far.any():
            k = np.flatnonzero(quad)[far.argmax()]
            raise OverflowRisk(
                f"{_describe(x, words, k)} is too far from the start: x - y[0] or b**x overflows"
            )

        def probe(m):
            return consts * _grid_values(
                y, nu_idx, axes, rows, t, rates, sector, perms, m, radius, threads
            )

        m = params.nodes_per_dim
        prev = probe(m)
        if params.max_nodes == m:
            final[quad] = prev
        else:
            while True:
                m *= 2
                cur = probe(m)
                delta = np.abs(cur - prev)
                if delta.max() < params.adapt_tol:
                    final[quad], errs[quad] = cur, delta
                    break
                if m >= params.max_nodes:
                    raise NotConverged(
                        f"{m} nodes per dimension reached with delta {delta.max():.3e} "
                        f"(tolerance {params.adapt_tol:.3e})"
                    )
                prev = cur
    return final.real.copy(), final, errs, np.where(quad, m, 0)


def transition_matrix(
    initial: ParticleState,
    targets: Sequence[ParticleState],
    t: float,
    rates: RateTable,
    params: Optional[SpectralParams] = None,
    threads: int = 1,
    allow_large: bool = False,
) -> list[ProbabilityResult]:
    """Transition probabilities from one state to many targets at time t.

    A thin wrapper over :func:`transition_arrays`: the targets become its
    position and word arrays (see :func:`core.state_arrays` for the errors that
    raises), and its arrays one :class:`ProbabilityResult` per target.
    """
    positions, words = state_arrays(targets, rates.n_species)
    value, raw, errs, nodes = transition_arrays(
        initial, positions, words, t, rates, params=params, threads=threads, allow_large=allow_large
    )
    columns = (value.tolist(), raw.tolist(), errs.tolist(), nodes.tolist())
    return [ProbabilityResult(*r) for r in zip(*columns)]


def transition_probability(
    initial: ParticleState,
    target: ParticleState,
    t: float,
    rates: RateTable,
    params: Optional[SpectralParams] = None,
    threads: int = 1,
    allow_large: bool = False,
) -> ProbabilityResult:
    """Probability of finding the system at ``target`` at time t."""
    return transition_matrix(
        initial, [target], t, rates, params=params, threads=threads, allow_large=allow_large
    )[0]
