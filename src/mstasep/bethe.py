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
column arrays are alive at once (2, 3, 4, 5 at N = 3, 4, 5, 6).  Each slab
returns every permutation's per-target moments; these are summed over slabs
in slab order, then over permutations in enumeration order, so a result at
a given node count is reproducible bit for bit.  The optional thread pool
only maps slabs to workers, it never changes the reduction order.

Targets enter as one table built per call: (T, N) position and word arrays,
the support mask, and the sector rows, rate-power constants and per-axis
distinct positions of the targets inside the support; every later stage reads it.
"""

from __future__ import annotations

import math
import numbers
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ParticleState,
    PermutationElem,
    RateTable,
    WordBlock,
    build_sector,
    enumerate_sn,
    validate_state,
)
from .rmatrix import SectorMatrix, SlotAction, SpectralPoint, chain_factors, contour_bound

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
    """t/radius is large enough that the time factor overflows float64."""


class ZeroSpectralValue(ValueError):
    """A spectral value of zero was passed where 1/xi is needed."""


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
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {v!r}")
            if not 0 < v <= sys.float_info.max:  # also false for NaN
                raise ValueError(f"{name} must be finite and positive, got {v}")
        for name in ("nodes_per_dim", "max_nodes"):
            m = getattr(self, name)
            if isinstance(m, bool) or not isinstance(m, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {m!r}")
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


def epsilon(pi: Sequence[int], sp: SpectralPoint | Sequence[complex], rates: RateTable) -> complex:
    """Exponent of the time factor: sum of 1/xi_k minus the total jump rate of the word."""
    xi = sp.xi if isinstance(sp, SpectralPoint) else tuple(sp)
    if any(z == 0 for z in xi):
        raise ZeroSpectralValue("spectral values must be nonzero")
    return sum(1.0 / z for z in xi) - sum(rates.rate(s) for s in pi)


def integrand(
    sigma: PermutationElem,
    sp: SpectralPoint,
    initial: ParticleState,
    target: ParticleState,
    t: float,
    rates: RateTable,
    sector: WordBlock,
    amplitude: SectorMatrix,
) -> complex:
    """Scalar integrand of one permutation at one spectral point.

    ``amplitude`` must be the matrix attached to ``sigma`` at ``sp``; it is
    a parameter so batch callers can reuse it across targets.
    """
    x, pi = target.positions, target.species
    y, nu = initial.positions, initial.species
    val = complex(np.exp(epsilon(pi, sp, rates) * t))
    val *= amplitude.entries[sector.index(pi), sector.index(nu)]
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
    amplitudes: dict[tuple[int, ...], SectorMatrix],
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
        total += diag[:, None] * amp.entries * phase
    return total


# ---------------------------------------------------------------------------
# batched evaluation over the tensor grid of contour nodes
# ---------------------------------------------------------------------------


def _positions_array(states: Sequence[ParticleState], n: int) -> np.ndarray:
    """(len(states), n) int64 positions; a position past int64 raises ValueError."""
    try:
        return np.array([s.positions for s in states], dtype=np.int64).reshape(-1, n)
    except OverflowError:
        bad = next(x for s in states for x in s.positions if not _INT64.min <= x <= _INT64.max)
        raise ValueError(f"position {bad} outside the int64 range") from None


def _contour_nodes(radius: float, m: int) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(m) / m)


def _slab_ranges(m: int, n: int, dim: int) -> list[tuple[int, int]]:
    # n - 1 live column arrays on the tree walk plus the contraction's copy, at least four
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
    n_targets: int,
) -> np.ndarray:
    """Per-target moments of grid rows [a, b), one row per permutation.

    Walks the predecessor tree depth first from the identity column: each
    permutation applies its last factor to its parent's columns, and a
    parent's last child does so in place.  The identity's row stays zero.
    """
    m = len(nodes)
    xi = [
        (nodes[a:b] if d == 0 else nodes).reshape((1,) * d + (-1,) + (1,) * (n - 1 - d))
        for d in range(n)
    ]
    moments = np.zeros((len(children), n_targets), dtype=complex)

    def visit(k: int, v: np.ndarray) -> None:
        for j, c in enumerate(children[k]):
            (slot, beta, alpha), weighted, gather = steps[c]
            last = j == len(children[k]) - 1
            w = actions[slot].apply(xi[beta - 1], xi[alpha - 1], v, out=v if last else None)
            # contract point-major with dim last: BLAS rounding can depend on where a
            # row sits in the matrix, so the matrices keep this one row order
            arr = np.moveaxis(w, 0, -1)  # (rows, m, ..., m, dim)
            for d in range(n, 1, -1):  # the k_d axis sits at position d-1 at this step
                arr = np.tensordot(arr, weighted[d - 1], axes=([d - 1], [0]))
            arr = np.tensordot(arr, weighted[0][a:b], axes=([0], [0]))
            moments[c] = arr.T[gather]
            visit(c, w)

    root = np.zeros((dim, b - a) + (m,) * (n - 1), dtype=complex)
    root[nu_idx] = 1.0
    visit(0, root)
    return moments


def _grid_values(
    initial: ParticleState,
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

    ``axes[i]`` holds the distinct values of the targets' i-th positions and
    each target's index into them; ``rows`` holds each target's word row.
    """
    n = len(initial)
    dim = sector.dim
    nodes = _contour_nodes(radius, m)
    u = nodes / m * np.exp(t / nodes)  # node weight times time factor, per dimension
    nu_idx = sector.index(initial.species)
    y = initial.positions
    actions = {slot: SlotAction(sector, slot, rates) for slot in range(1, n)}
    # node weights times powers of grid axis k against target axis i, built once per pair
    pair_weights = {
        (k, i): u[:, None] * nodes[:, None] ** (ux - y[k] - 1)[None, :]
        for k in range(n)
        for i, (ux, _) in enumerate(axes)
    }
    steps = []
    for elem in perms:
        inv = np.argsort(np.array(elem.image))  # inv[k] = i with sigma(i) = k+1
        steps.append((
            None if elem.is_identity else chain_factors(elem)[-1],
            [pair_weights[k, i] for k, i in enumerate(inv)],
            tuple(axes[i][1] for i in inv) + (rows,),
        ))

    ranges = _slab_ranges(m, n, dim)
    args = (nodes, _walk_tree(perms), steps, actions, nu_idx, n, dim, len(rows))
    moments = np.zeros((len(perms), len(rows)), dtype=complex)
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # map yields in slab order, so the reduction order stays fixed
            for part in pool.map(lambda r: _slab_moments(*r, *args), ranges):
                moments += part
    else:
        for a, b in ranges:
            moments += _slab_moments(a, b, *args)

    vals = np.zeros(len(rows), dtype=complex)
    for elem, (_, weighted, gather), mom in zip(perms, steps, moments):
        if elem.is_identity:
            # identity amplitude: the grid sum factorizes into column sums
            prod = np.ones(len(rows), dtype=complex)
            for w, ix in zip(weighted, gather):
                prod *= w.sum(axis=0)[ix]
            vals += np.where(rows == nu_idx, prod, 0.0)
        else:
            vals += mom
    return vals


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

    All targets share the spectral grid, so the amplitude columns are built
    once per node tuple regardless of how many targets are requested.
    Targets outside the support (different species multiset, or any ordered
    position below its initial value) come back as exact zeros.  Targets are
    validated one by one, then held as the target table the module docstring
    describes; a position outside the int64 range, in the initial state or any
    target, raises ValueError.  An empty target list runs every guard and
    returns ``[]``.

    Node counts double from ``nodes_per_dim`` until the largest change over
    targets drops below ``adapt_tol``; hitting ``max_nodes`` without
    converging raises :class:`NotConverged`.  Setting
    ``max_nodes == nodes_per_dim`` disables adaptivity and evaluates once.
    """
    params = params or SpectralParams()
    validate_state(initial, rates)
    for tg in targets:
        validate_state(tg, rates)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    n = len(initial)
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

    # the target table: (T, N) positions and words, the support mask, and for
    # the quadrature targets their sector rows, rate-power constants and the
    # distinct values of each position axis with each target's index into them
    positions = _positions_array([initial, *targets], n)
    y, x = positions[0], positions[1:]
    words = np.array([tg.species for tg in targets], dtype=np.int64).reshape(-1, n)
    quad = (np.sort(words, axis=1) == sorted(initial.species)).all(axis=1)
    quad &= (x >= y).all(axis=1)
    final = np.zeros(len(targets), dtype=complex)
    errs = np.zeros(len(targets))
    m = 0
    if quad.any():
        sector = build_sector(initial.species)
        perms = enumerate_sn(n)
        rows = np.array([sector.index(w) for w in words[quad].tolist()], dtype=np.intp)
        axes = [np.unique(col, return_inverse=True) for col in x[quad].T]
        y_factor = 1.0
        for s, yv in zip(initial.species, initial.positions):
            y_factor *= rates.rate(s) ** (-yv)
        decay = math.exp(-t * sum(map(rates.rate, initial.species)))
        consts = np.full(len(rows), decay * y_factor)
        for k, (ux, ix) in enumerate(axes):
            # Python's float ** int (np.power can differ in the last ulp), once per
            # species and distinct position, then gathered per target
            powers = [[rates.rate(s) ** v for v in ux.tolist()] for s in range(1, n + 1)]
            consts *= np.array(powers)[words[quad, k] - 1, ix]

        def probe(m):
            return consts * _grid_values(
                initial, axes, rows, t, rates, sector, perms, m, radius, threads
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
    return [
        ProbabilityResult(float(v.real), complex(v), float(e), int(k))
        for v, e, k in zip(final, errs, np.where(quad, m, 0))
    ]


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
