"""Finite-time transition probabilities from the contour-integral representation.

Each probability is a sum over the symmetric group of N-fold integrals over
a common circle around the origin.  The circle must keep every amplitude
pole 1/b_l outside; the trapezoid rule on equispaced nodes then converges
geometrically, and raising the node count along a ladder of two rungs per
octave (32, 48, 64, 96, ...) until two successive values agree gives a
computable error estimate.  No rule reuses another's nodes, so the ladder
pays (3/2)^N or (4/3)^N per confirming probe where doubling paid 2^N.

The m-node rule cannot tell xi^p from xi^(p mod m), and two rules alias alike
when a start gap is a common multiple of their node counts.  So every call
probes only the rungs above the largest start gap max(y_k - x_i), a ladder of
one rung at fixed nodes (:func:`node_ladder`), and raises
:class:`NodeFloorExceeded` when too few fit; no adaptive value goes unconfirmed.

At one spectral point the sum over the symmetric group is :func:`bethe_sum`:
the amplitude matrices of :func:`rmatrix.build_all_A`, stacked on a leading
permutation axis, contracted with the plane-wave phases in one product.  The
tensor-grid sum is evaluated instead by contracting, per permutation, the
grid of amplitude-column values against one matrix of weighted node powers
per dimension.  That regrouping is algebraically identical to summing
:func:`bethe_sum` node tuple by node tuple (the tests check this against that
literal grid sum) but shares all work between targets.

The grid is folded along its first axis.  Rates and t are real, so S, T,
exp(t/xi) and xi**p have real coefficients, and the integrand at the
conjugate node tuple is the conjugate of its value at the tuple.  The
equispaced nodes r e^(2 pi i j / m) are closed under conjugation on every
axis (whatever each axis's node count), so the grid pairs up exactly and
the sum is real.  The kernel therefore visits rows j = 0 .. m/2 of axis 0
only: rows 0 and m/2 sit at the real nodes r and -r, whose sub-grids are
closed under conjugation, and keep weight 1; each row in between stands for
itself and row m - j and gets weight 2.  These weights sit in axis 0's node
weights, which the identity term's column sums read too.  The real part of
the folded sum is the full grid sum, and its imaginary part is dropped.  A
probe visits (N! - 1)(m/2 + 1) m^(N-1) grid points, against (N! - 1) m^N, and
pays at each for the word rows it forms (below), at most (N! - 1) dim.

These rows are cut into slabs along the first axis.  Inside a slab the
amplitude columns are built by walking the predecessor tree of
``enumerate_sn`` depth first from the identity column: each permutation
applies one two-site factor, the last of its reduced word, to its parent's
columns through :class:`rmatrix.SlotAction`, so a slab costs N! - 1 factor
applications; the identity term needs no columns, its grid sum factorizes
into column sums.  Columns are held as (dim, *slab) arrays, one contiguous
array per word row.  A parent's last child overwrites the parent's columns in
place and children are visited smallest subtree first, so at most N - 1
column arrays are alive at once (2, 3, 4, 5 at N = 3, 4, 5, 6).

A target reads one word row of each column, so each permutation forms only
the rows read from it: the targets' rows, and for each child the rows the
child forms plus, where such a row ascends at the child's slot, its swapped
partner, which the factor mixes in.  The other rows of a column array hold
nothing, or the parent's values a last child left in place, and no later
step reads them.  A call whose targets read every word forms every row.
Each target row is contracted where it lies, as a view of its column array,
and added into that row's targets; each target adds its permutations in
tree-walk order, the slab sums are added in slab order and the identity term
last.  This fixed order gives the same bits at a given node count on repeated
calls and for any ``threads`` (the pool only maps slabs to workers).

Targets enter as one table: :func:`transition_arrays` takes (T, N) int64
position and word arrays, validates them with :func:`core.check_table`, keeps
the support :func:`core.word_floors` reaches (the rule
:func:`core.window_states` lists by) and, for the targets in it, builds the
sector rows, constants and per-axis distinct positions every later stage
reads.  :func:`transition_matrix` wraps it for lists of states.

A target's node powers have size r^P on every term, P = sum(x) - sum(y) - N.
So positions are taken relative to the start's leftmost site, and the powers
of the nodes times 2^c, c = -round(log2 r), which lie on a circle of radius in
[2^-1/2, 2^1/2]: each term gains the exact 2^(cP) and keeps its mantissa, and
the target's constant takes it back.  :class:`OverflowRisk` has three rules:
N t/r past ``OVERFLOW_EXPONENT`` and x - y_1 past int64, before any probe, and
a probe value that is not finite, naming its first such target.
"""

from __future__ import annotations

import functools
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
    word_floors,
)
from .rmatrix import SlotAction, chain_factors, contour_bound

MAX_PARTICLES_DEFAULT = 4
MAX_PARTICLES_HARD = 6

# the grid multiplies N time factors exp(t/xi), bounded by exp(N t/radius); past this it overflows
OVERFLOW_EXPONENT = 700.0

# target bytes for one slab of amplitude-column values
_SLAB_BUDGET_BYTES = 2.0e8

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

    ``value`` is the quadrature value, a real number (the kernel sums half of a
    conjugation-symmetric grid), reported without clamping so quadrature noise
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
# batched evaluation over the tensor grid of contour nodes
# ---------------------------------------------------------------------------


def _slab_ranges(m: int, n: int, dim: int) -> list[tuple[int, int]]:
    """Slabs of the folded first axis: its rows 0 .. m/2, cut under the slab budget."""
    # n - 1 live column arrays on the tree walk plus contraction intermediates, at least four
    per_row = m ** (n - 1) * dim * 16 * max(4, n)
    rows = m // 2 + 1
    s = max(1, min(rows, int(_SLAB_BUDGET_BYTES / max(per_row, 1))))
    return [(a, min(a + s, rows)) for a in range(0, rows, s)]


def _walk_tree(perms: tuple[PermutationElem, ...]) -> list[list[int]]:
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


@np.errstate(all="ignore")  # errstate is per thread, and slabs may run in a pool: the caller checks the probe
def _slab_moments(
    a: int,
    b: int,
    nodes: np.ndarray,
    children: list[list[int]],
    steps: list[tuple],
    nu_idx: int,
    n: int,
    dim: int,
    targets: int,
) -> np.ndarray:
    """Per-target sum over the non-identity permutations of grid rows [a, b).

    Walks the predecessor tree depth first from the identity column: each
    permutation applies its last factor to its parent's columns, and a
    parent's last child does so in place.  Each target row is contracted as a
    view and added into its targets' moments, in walk order.
    """
    xi = [
        (nodes[a:b] if d == 0 else nodes).reshape((1,) * d + (-1,) + (1,) * (n - 1 - d))
        for d in range(n)
    ]
    total = np.zeros(targets, dtype=complex)

    def visit(k: int, v: np.ndarray) -> None:
        for j, c in enumerate(children[k]):
            (beta, alpha), action, weighted, reads = steps[c]
            last = j == len(children[k]) - 1
            w = action.apply(xi[beta - 1], xi[alpha - 1], v, out=v if last else None)
            for r, sel, gather in reads:
                arr = w[r]  # (rows, m, ..., m): grid axis d sits at position d
                for d in range(n - 1, 0, -1):
                    arr = np.tensordot(arr, weighted[d], axes=([d], [0]))
                total[sel] += np.tensordot(arr, weighted[0][a:b], axes=([0], [0])).T[gather]
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
    m: int,
    radius: float,
    scale: float,
    threads: int,
) -> np.ndarray:
    """Sum over permutations of the real quadrature value per target (constants excluded).

    Positions are relative to the start's leftmost site: ``y`` is the start's,
    ``axes[i]`` the distinct i-th target positions with each target's index
    into them.  ``nu_idx`` and ``rows`` are the start's and targets' word rows.
    Powers are taken of ``nodes * scale``, a power of two (see the module docstring).
    """
    n, dim, perms = len(y), sector.dim, enumerate_sn(len(y))
    nodes = radius * np.exp(2j * np.pi * np.arange(m) / m)
    u = nodes / m * np.exp(t / nodes)  # node weight times time factor, per dimension
    # axis 0 is folded onto its rows 0 .. m/2: each row between the real nodes r and -r also
    # stands for its conjugate row m - j, and so counts twice
    fold = np.full(m // 2 + 1, 2.0)
    fold[[0, -1]] = 1.0
    axis_u = [u[: m // 2 + 1] * fold] + [u] * (n - 1)
    b = np.asarray(rates, dtype=float).reshape((-1,) + (1,) * n)  # broadcast over the grid axes
    # node weights times powers of grid axis k against target axis i, built once per pair
    pair_weights = {
        (k, i): axis_u[k][:, None] * (nodes[: len(axis_u[k]), None] * scale) ** (ux - y[k] - 1)[None, :]
        for k in range(n)
        for i, (ux, _) in enumerate(axes)
    }
    children, factors = _walk_tree(perms), [None] + [chain_factors(elem)[-1] for elem in perms[1:]]
    # the rows each permutation forms: the targets' rows, and every row a child reads, which is each
    # row the child forms and, where that row ascends at the child's slot, its swapped partner
    need = [set(rows.tolist()) for _ in perms]
    for k in range(len(perms) - 1, 0, -1):  # children come after their parent in perms
        for c in children[k]:
            _, _, asc, partner, _, _ = sector.slot_table(factors[c][0])
            need[k] |= need[c] | {p for r, p in zip(asc, partner) if r in need[c]}
    by_row = [(r, np.flatnonzero(rows == r)) for r in np.unique(rows)]
    steps = [None]  # perms[0] is the identity, whose term is the column sums below
    for k, elem in enumerate(perms[1:], 1):
        (slot, beta, alpha), inv = factors[k], np.argsort(np.array(elem.image))  # inv[d] = i with sigma(i) = d+1
        steps.append((
            (beta, alpha),
            SlotAction(sector, slot, b, rows=need[k]),
            [pair_weights[d, i] for d, i in enumerate(inv)],
            [(r, sel, tuple(axes[i][1][sel] for i in inv)) for r, sel in by_row],
        ))

    ranges = _slab_ranges(m, n, dim)
    args = (nodes, children, steps, nu_idx, n, dim, len(rows))
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # map yields in slab order, so the reduction order stays fixed
            parts = list(pool.map(lambda r: _slab_moments(*r, *args), ranges))
    else:  # not a pool of one: its thread raised window-n3's peak RSS from 86 to 92-103 MB
        parts = [_slab_moments(a, b, *args) for a, b in ranges]
    # identity amplitude: the grid sum factorizes into column sums
    ident = np.prod([pair_weights[k, k].sum(axis=0)[ix] for k, (_, ix) in enumerate(axes)], axis=0)
    # the conjugate rows left out carry the conjugate sum: the full grid sum is the real part
    return (sum(parts) + np.where(rows == nu_idx, ident, 0.0)).real


def transition_arrays(
    initial: ParticleState,
    positions: np.ndarray,
    words: np.ndarray,
    t: float,
    rates: RateTable,
    params: Optional[SpectralParams] = None,
    threads: int = 1,
    allow_large: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transition probabilities from one state to the targets of a table, as arrays.

    ``positions`` and ``words`` are (T, N) int64 arrays, row k the positions
    and species word of target k.  Returns float64 ``value`` and ``est_error``
    and int64 ``nodes_used`` arrays, one entry per target with the meaning of
    the :class:`ProbabilityResult` fields.

    All targets share the spectral grid, so the amplitude columns are built
    once per node tuple regardless of how many targets are requested.  The
    support is what :func:`core.word_floors` reaches: a reachable word, at or
    above its floor; every other target is an exact 0 with ``nodes_used`` 0,
    and runs no probe.  The table is validated as a whole by
    :func:`core.check_table`: positions not strictly increasing raise
    NonIncreasingPositions and species labels outside 1..N or another shape
    SpeciesOutOfRange, each naming the first bad target; a position of the
    initial state outside the int64 range raises ValueError.  An empty table
    runs every guard and returns empty arrays.  :class:`OverflowRisk` follows
    the module's three rules; no value returned is NaN or inf.

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
        nu_idx = sector.index(initial.species)
        # decay * prod_s b_s**d_s (d_s: summed displacement of species s), over the grid's scale**P
        b, eye = np.array(rates.rates), np.eye(rates.n_species)  # float sums of positions never wrap
        d = (eye[words[quad] - 1] * xq[..., None]).sum(axis=1) - y @ eye[np.array(initial.species) - 1]
        decay = math.exp(-t * sum(map(rates.rate, initial.species)))
        with np.errstate(all="ignore"):  # a tiny radius overflows scale**n: the probe reports it
            scale = np.exp2(-np.round(np.log2(radius)))
            consts = decay * scale**n * np.prod((b / scale) ** d, axis=1)

        @np.errstate(all="ignore")  # any other overflow shows in the value, and raises there
        def probe(m):
            value = consts * _grid_values(y, nu_idx, axes, rows, t, rates, sector, m, radius, scale, threads)
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
    allow_large: bool = False,
) -> list[ProbabilityResult]:
    """Transition probabilities from one state to many targets at time t.

    A thin wrapper over :func:`transition_arrays`: the targets become its
    position and word arrays (see :func:`core.state_arrays` for the errors that
    raises), and its arrays one :class:`ProbabilityResult` per target.
    """
    positions, words = state_arrays(targets, rates.n_species)
    value, errs, nodes = transition_arrays(
        initial, positions, words, t, rates, params=params, threads=threads, allow_large=allow_large
    )
    columns = (value.tolist(), errs.tolist(), nodes.tolist())
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
