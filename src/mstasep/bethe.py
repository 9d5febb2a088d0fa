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
but shares all work between targets.  The two-site factors along each
permutation's reduced word are applied by :class:`rmatrix.SlotAction`, the
batched form of the factor ``rmatrix`` owns.  Grid slabs are processed in a fixed
order and reduced sequentially, so a result at a given node count is
reproducible bit for bit; the optional thread pool only maps slabs to
workers, it never changes the reduction order.

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
    real numbers (bools raise TypeError).  Node counts are powers of two so
    refinement can double them.
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
            if m < 4 or m & (m - 1):
                raise ValueError(f"{name} must be a power of two, at least 4; got {m}")
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


def _contour_nodes(radius: float, m: int) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(m) / m)


def _slab_ranges(m: int, n: int, dim: int) -> list[tuple[int, int]]:
    per_row = m ** (n - 1) * dim * 16 * 4  # v, out and temporaries
    s = max(1, min(m, int(_SLAB_BUDGET_BYTES / max(per_row, 1))))
    return [(a, min(a + s, m)) for a in range(0, m, s)]


def _slab_moments(
    a: int,
    b: int,
    nodes: np.ndarray,
    factors: list[tuple[int, int, int]],
    actions: dict[int, SlotAction],
    weighted_powers: list[np.ndarray],
    nu_idx: int,
    n: int,
    dim: int,
) -> np.ndarray:
    """Moment contribution of grid rows [a, b) for one permutation."""
    m = len(nodes)
    shape = (b - a,) + (m,) * (n - 1)
    batch = (b - a) * m ** (n - 1)
    xi = []
    for d in range(n):
        src = nodes[a:b] if d == 0 else nodes
        view = src.reshape((1,) * d + (-1,) + (1,) * (n - 1 - d))
        xi.append(np.broadcast_to(view, shape).ravel())
    v = np.zeros((batch, dim), dtype=complex)
    v[:, nu_idx] = 1.0
    for slot, beta, alpha in factors:
        v = actions[slot].apply(xi[beta - 1], xi[alpha - 1], v)
    arr = v.reshape(shape + (dim,))
    for d in range(n, 1, -1):  # the k_d axis sits at position d-1 at this step
        arr = np.tensordot(arr, weighted_powers[d - 1], axes=([d - 1], [0]))
    arr = np.tensordot(arr, weighted_powers[0][a:b], axes=([0], [0]))
    return arr.transpose(tuple(range(arr.ndim))[::-1])


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
    vals = np.zeros(len(rows), dtype=complex)

    for elem in perms:
        inv = np.argsort(np.array(elem.image))  # inv[k] = i with sigma(i) = k+1
        idx = [axes[i][1] for i in inv]
        weighted = [
            u[:, None] * nodes[:, None] ** (axes[i][0] - y[k] - 1)[None, :]
            for k, i in enumerate(inv)
        ]
        if elem.is_identity:
            # identity amplitude: the grid sum factorizes into column sums
            colsums = [w.sum(axis=0) for w in weighted]
            prod = np.ones(len(rows), dtype=complex)
            for d in range(n):
                prod *= colsums[d][idx[d]]
            vals += np.where(rows == nu_idx, prod, 0.0)
            continue
        factors = chain_factors(elem)
        mom = np.zeros(tuple(w.shape[1] for w in weighted) + (dim,), dtype=complex)
        ranges = _slab_ranges(m, n, dim)
        args = (nodes, factors, actions, weighted, nu_idx, n, dim)
        if threads > 1 and len(ranges) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                # map yields in slab order, so the reduction order stays fixed
                for part in pool.map(lambda r: _slab_moments(*r, *args), ranges):
                    mom += part
        else:
            for a, b in ranges:
                mom += _slab_moments(a, b, *args)
        vals += mom[tuple(idx) + (rows,)]
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
    describes.  An empty target list runs every guard and returns ``[]``.

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
    x = np.array([tg.positions for tg in targets], dtype=np.int64).reshape(-1, n)
    words = np.array([tg.species for tg in targets], dtype=np.int64).reshape(-1, n)
    quad = (np.sort(words, axis=1) == sorted(initial.species)).all(axis=1)
    quad &= (x >= initial.positions).all(axis=1)
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
