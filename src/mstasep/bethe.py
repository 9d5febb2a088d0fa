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

The terms come from one walk per call over ``enumerate_sn``, parent before
child (:func:`_row_terms`): S maps a term to minus itself with e_beta + 1 and
e_alpha - 1 at the letter's species, T to b times it with a_beta + 1 and
minus b times it with a_alpha + 1, each with e_alpha - 1, and a descending
row negates.  Rows are classed by the :meth:`core.WordBlock.slot_table` the
dense path reads, each permutation carries only the rows some target row
depends on (:func:`_needed_rows`), like terms merge, and past
``_CHUNK_BUDGET_BYTES`` of carried terms the walk raises.  A call builds one
moment per pole signature and distinct q (:func:`_moment_table`) and gathers
each target's terms in chunks under that budget.  Each moment sums J terms,
J fixed by the start's span and scale t, and each target its terms, in a
fixed order, so a value has the same bits on repeated calls, alone or in a
batch, and however it is chunked.

Targets enter as one table: :func:`transition_arrays` takes (T, N) int64
position and word arrays, validates them with :func:`core.check_table`, keeps
the support :func:`core.word_floors` reaches (the rule
:func:`core.window_states` lists by) and, for the targets in it, builds the
sector rows, constants and per-axis distinct positions every later stage
reads.  :func:`transition_matrix` wraps it for lists of states.

A target's moments have size r^P on every term, P = sum(x) - sum(y) - N.  So
positions are taken relative to the start's leftmost site, and the table
holds scale^q M(q), scale = 2^c, c = -round(log2 r): each term, given the
exact 2^(-c sum(a)), gains the exact 2^(cP), and the target's constant takes
it back.  :class:`OverflowRisk` has three rules: N t/r past
``OVERFLOW_EXPONENT`` and x - y_1 past int64, before any moment is built,
and a value that is not finite, naming its first such target.
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

# a term multiplies N moments, each up to about exp(t/radius): past this, their product overflows
OVERFLOW_EXPONENT = 700.0

# target bytes for one chunk of an array of targets by terms or trials, and the most a term walk carries
_CHUNK_BUDGET_BYTES = 2.0e8

# largest node count per dimension SpectralParams accepts
MAX_NODES_PER_DIM = 4096

_INT64 = np.iinfo(np.int64)
_EPS = np.finfo(float).eps


class ContourInvalid(ValueError):
    """Contour radius conflicts with the pole locations of the integrand."""


class NotConverged(RuntimeError):
    """The error bound of a value reaches the requested tolerance ``adapt_tol``."""


class OverflowRisk(ArithmeticError):
    """The N time factors overflow float64, a position x - y_1 int64, or a value is not finite."""


@dataclass(frozen=True)
class SpectralParams:
    """Contour radius and error tolerance.

    ``radius=None`` picks half the admissible bound at call time, once the
    rates are known; the radius sets the power-of-two scale of the moments.
    ``radius`` and ``adapt_tol`` must be finite positive real numbers (bools
    raise TypeError).  ``nodes_per_dim`` and ``max_nodes`` select nothing and
    stay only because the benchmark passes them; they are integers (bools and
    floats raise TypeError), powers of two from 4 to ``MAX_NODES_PER_DIM``.
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
    ``est_error`` bounds |value - exact|: the series tails and all rounding.
    ``nodes_used`` is J, the series terms each moment of the call sums; a
    target outside the support is an exact 0 with ``est_error`` and
    ``nodes_used`` 0.
    """

    value: float
    est_error: float
    nodes_used: int


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
# the integrals as sums of products of one-dimensional moments
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


def _moment_table(
    q: np.ndarray, poles: np.ndarray, st: float, rates: RateTable, scale: float, span: int, length: int
) -> np.ndarray:
    """scale**q M(q, e) at each q for every pole signature e, its |.| and a bound: (3, sig, q).

    With c_j the coefficients of prod_s (1 - beta_s xi)**e_s, beta = b / scale, and u_k =
    (scale t)**k / k! (0 for k < 0), the first column is sum_(j < J) c_j u_(q+j+1) / scale, J =
    ``length``.  The second sums |c|_j u_(q+j+1) / scale, |c| the product of the factors' series
    with |coefficients|, which bounds c and its rounding.  The third adds to the second bounds on
    the tail past J and on the rounding of the first.  Support targets have q >= -``span`` - 1.
    """
    beta = np.array(rates.rates) / scale  # exact: scale is a power of two
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
    top = max(math.ceil(math.e**2 * st), 746)
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
    roundings = (rates.n_species + 4) * length + 2 * np.maximum(q + 1, 0) + 2 * rates.n_species + 64
    tail += length * np.finfo(float).tiny * (u.max() + coef[:, 1].max(axis=1) + 1)
    out = np.empty((3, len(poles), len(q)))
    step = max(1, int(_CHUNK_BUDGET_BYTES // (coef.nbytes + 8 * length)))
    for lo in range(0, len(q), step):
        part = slice(lo, lo + step)
        # each moment sums its J terms along one contiguous axis: the order depends on J alone
        windows = padded[first[part, None] + np.arange(length)]  # u_(q+1) .. u_(q+J) of each q
        m, a = (coef[:, :, None, :] * windows).sum(axis=-1).swapaxes(0, 1)
        out[:, :, part] = m, a, a * (1 + _EPS * roundings[part]) + tail[:, None]
    return out / scale


def _series_values(
    y: np.ndarray,
    axes: list[tuple[np.ndarray, np.ndarray]],
    rows: np.ndarray,
    st: float,
    rates: RateTable,
    scale: float,
    length: int,
    terms: tuple[np.ndarray, dict],
) -> tuple[np.ndarray, np.ndarray]:
    """The sum over permutations and a bound on its error, real values per target (constants excluded).

    Positions are relative to the start's leftmost site: ``y`` is the start's, ``axes[i]`` the
    distinct i-th target positions with each target's index into them.  ``rows`` are the targets'
    word rows and ``terms`` is :func:`_row_terms` of them.  The moments are those of
    :func:`_moment_table` at ``st`` = scale t, one per distinct q, each ``length`` terms long.
    """
    poles, terms = terms
    a_len = max(int(a.max(initial=0)) for _, a, _, _ in terms.values()) + 1
    sites = np.concatenate([ux for ux, _ in axes])
    q = sites - y[:, None, None] - 1 + np.arange(a_len)[:, None]  # (N, a_len, sites)
    distinct, at = np.unique(q, return_inverse=True)
    # tables[k, sig, d, a, p]: the distinct target positions p of every axis, one after another
    tables = _moment_table(distinct, poles, st, rates, scale, int(y[-1]), length)[:, :, at.reshape(q.shape)]
    start = np.cumsum([0] + [len(ux) for ux, _ in axes[:-1]])
    index = np.stack([ix + s for (_, ix), s in zip(axes, start)], axis=1)  # (targets, N) into sites
    sums, shape, tables = np.zeros((3, len(rows))), tables.shape[1:], tables.reshape(3, -1)
    for r, (coef, a, sig, axis) in terms.items():
        base = np.ravel_multi_index((sig, np.arange(len(y)), a, 0), shape).T[:, None]
        c = coef * scale ** -a.sum(axis=1)  # the exact 2**(-c sum(a)) of the scaled powers
        c = np.stack([c, np.abs(c), np.abs(c)])[:, None]  # the value's, and the |terms| of both bounds
        sel = np.flatnonzero(rows == r)
        for part in _chunks(len(sel), a.size * 32):
            # one advanced index keeps (N, targets, terms) C-ordered: a target's sum does not see the chunk
            ix = index[sel[None, part, None], axis.T[:, None]]
            ix += base
            # (N, 3, targets, terms): each column's N moments multiplied in axis order
            moments = np.take(tables, ix, axis=1).swapaxes(0, 1)
            sums[:, sel[part]] = (functools.reduce(np.multiply, moments) * c).sum(axis=-1)
    # widening every moment by its bound widens |terms| by at least the terms' error; the product,
    # the coefficient, the sum over terms and the constant round fewer than 128 times
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
    ceil(8 scale t) terms; an ``est_error`` that reaches ``adapt_tol`` raises
    :class:`NotConverged`.
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
    final, errs, length = np.zeros(len(x)), np.zeros(len(x)), 0
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
        with np.errstate(all="ignore"):  # a tiny radius overflows scale**n: the value reports it
            scale = np.exp2(-np.round(np.log2(radius)))
            consts = decay * scale**n * np.prod((b / scale) ** d, axis=1)
        overflow(np.full(len(xq), not np.isfinite(scale)), "overflows the spectral route: no float scale")
        # the terms a moment with q >= -span - 1 needs (every support target has x_1 >= y_1): in the
        # start's span and scale t alone, so a value has the same bits in any batch
        length = int(y[-1]) + 64 + math.ceil(8 * scale * t)
        terms = _row_terms(sector, sector.index(initial.species), np.unique(rows), rates)
        with np.errstate(all="ignore"):  # any other overflow shows in the value, and raises there
            total, bound = _series_values(y, axes, rows, scale * t, rates, scale, length, terms)
            value, errs[quad] = consts * total, consts * bound
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
