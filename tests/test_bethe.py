import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import draw_point, draw_rates, exact_moment, exact_terms, reference_generator
from mstasep import (
    ContourInvalid,
    NotConverged,
    OverflowRisk,
    ParticleState,
    ProbabilityResult,
    RateTable,
    SpectralParams,
    SpectralPoint,
    build_generator,
    contour_bound,
    default_window,
    enumerate_sn,
    matrix_exponential_row,
    transition_matrix,
    transition_probability,
)
from mstasep.bethe import bethe_sum, default_radius, rate_power_diag, transition_arrays
from mstasep.core import NonIncreasingPositions, SpeciesOutOfRange, build_sector, window_states
from mstasep.oracle import hop_rate_diag, swap_gain_matrix, swap_loss_diag
from mstasep.rmatrix import all_sectors, build_all_A


def test_bethe_sum_single_particle_closed_form():
    # one particle: the identity alone, b**x * xi**x
    rt = RateTable((1.4,))
    sector = build_sector([1])
    sp = SpectralPoint((0.21 - 0.08j,))
    got = bethe_sum([4], sp, rt, sector, build_all_A(sp, rt, sector))
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(1.4**4 * sp.xi[0] ** 4, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bethe_sum_is_the_sum_over_permutations(n):
    # the one contraction against the definition, term by term:
    # diag(b**x) A_sigma prod_i xi_sigma(i)**x_i summed over sigma
    rng = np.random.default_rng(40 + n)
    rt = draw_rates(rng, n)
    sp = draw_point(rng, n, rt)
    sector = build_sector(sorted(rng.integers(1, n + 1, size=n)))
    amps = build_all_A(sp, rt, sector)
    x = [int(v) for v in rng.integers(-3, 4, size=n)]
    want = sum(
        amp * np.prod([sp.xi[k - 1] ** xk for k, xk in zip(elem.image, x)])
        for elem, amp in zip(enumerate_sn(n), amps)
    )
    want = np.diag(rate_power_diag(x, sector, rt)) @ want
    got = bethe_sum(x, sp, rt, sector, amps)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bethe_sum_at_conjugate_point_is_the_conjugate(n):
    # the identity that makes every moment real: with real rates every amplitude and phase is a
    # rational function with real coefficients, so the conjugate point gives the conjugate sum
    rng = np.random.default_rng(60 + n)
    for sector in all_sectors(n):
        for x in [(-5, 0, 3, 9)[:n]] + [tuple(rng.integers(-8, 9, size=n)) for _ in range(3)]:
            rt = draw_rates(rng, n)
            sp = draw_point(rng, n, rt)
            conj = SpectralPoint(tuple(np.conj(sp.xi)))
            amps = build_all_A(sp, rt, sector)
            got = bethe_sum(x, conj, rt, sector, build_all_A(conj, rt, sector))
            want = np.conj(bethe_sum(x, sp, rt, sector, amps))
            # the summed |terms|: |diag(b**x)| |A_sigma| |prod_i xi_sigma(i)**x_i| over sigma
            terms = sum(
                np.abs(amp) * abs(np.prod([sp.xi[k - 1] ** xk for k, xk in zip(elem.image, x)]))
                for elem, amp in zip(enumerate_sn(n), amps)
            )
            terms = np.abs(rate_power_diag(x, sector, rt))[:, None] * terms
            assert (np.abs(got - want) <= 1e-13 * terms).all()


def literal_grid_values(initial, targets, t, rates, m, radius):
    """Literal tensor-grid sum: bethe_sum calls with every (target, node tuple) as a batch entry.

    Each node tuple contributes its trapezoid weight, exp(eps t), b_nu**-y and
    prod_k xi_k**(-y_k - 1) times the (target word, start word) entry of the sum.  Node
    tuples are summed 4096 at a time.
    """
    n = len(initial)
    sector = build_sector(initial.species)
    nodes = radius * np.exp(2j * np.pi * np.arange(m) / m)
    tuples = np.array(list(itertools.product(nodes, repeat=n))).T  # (n, m**n)
    y = np.array(initial.positions)
    b = np.asarray(rates)
    x = np.array([tg.positions for tg in targets]).T[:, :, None]  # (n, targets, 1)
    rows = [sector.index(tg.species) for tg in targets]
    total = 0.0
    for lo in range(0, m**n, 4096):
        xi = tuples[:, lo : lo + 4096]
        amps = build_all_A(xi[:, None], b[:, None, None], sector)  # (n!, dim, dim, 1, tuples)
        u = bethe_sum(x, xi[:, None], b[:, None, None], sector, amps)  # (dim, dim, targets, tuples)
        entries = u[rows, sector.index(initial.species), np.arange(len(targets))]
        eps = (1.0 / xi).sum(axis=0) - sum(rates.rate(s) for s in initial.species)
        start = np.prod([rates.rate(s) ** -yk for s, yk in zip(initial.species, y)])
        per_node = np.prod(xi / m, axis=0) * np.exp(eps * t) * start
        per_node *= np.prod(xi ** (-y[:, None] - 1), axis=0)
        total = total + (entries * per_node).sum(axis=1)
    return total


def assert_matches_converged_literal_loop(initial, targets, t, rates, m, tol):
    """The engine against the literal m-node loop, whose own change from m/2 nodes is below tol.

    The radius balances the pole term (b r)**(m/2) against the time term (t/r)**(m/2) / (m/2)!.
    """
    radius = math.sqrt(t / (max(rates.rates) * math.factorial(m // 2) ** (2 / m)))
    coarse, fine = (literal_grid_values(initial, targets, t, rates, k, radius) for k in (m // 2, m))
    assert np.abs(fine - coarse).max() < tol and np.abs(fine.imag).max() < tol
    for res, exp in zip(transition_matrix(initial, targets, t, rates), fine.real):
        assert abs(res.value - exp) < tol


@pytest.mark.parametrize(
    "nu,targets",
    [
        ((2, 1), [((0, 1), (1, 2)), ((1, 3), (2, 1)), ((0, 2), (2, 1))]),
        ((1, 2), [((0, 1), (1, 2)), ((2, 4), (1, 2))]),
    ],
)
def test_engine_matches_literal_node_loop_two_particles(nu, targets):
    rt = draw_rates(np.random.default_rng(17), 2)
    tgs = [ParticleState(p, s) for p, s in targets]
    assert_matches_converged_literal_loop(ParticleState((0, 1), nu), tgs, 0.8, rt, 64, 1e-13)


def test_engine_matches_literal_node_loop_three_particles():
    rt = draw_rates(np.random.default_rng(23), 3)
    initial = ParticleState((0, 1, 3), (2, 1, 2))
    tgs = [
        ParticleState((0, 1, 3), (1, 2, 2)),
        ParticleState((1, 2, 4), (2, 1, 2)),
        ParticleState((0, 2, 3), (2, 2, 1)),
    ]
    assert_matches_converged_literal_loop(initial, tgs, 0.5, rt, 64, 1e-13)


def test_single_particle_poisson():
    for b in (0.5, 2.0):
        rt = RateTable((b,))
        t = 1.3
        results = transition_matrix(
            ParticleState((0,), (1,)),
            [ParticleState((k,), (1,)) for k in range(15)],
            t,
            rt,
        )
        for k, res in enumerate(results):
            assert res.value == pytest.approx(
                math.exp(-b * t) * (b * t) ** k / math.factorial(k), abs=1e-12
            )


def test_time_zero_is_kronecker_delta():
    rt = RateTable((1.0, 2.0))
    initial = ParticleState((0, 1), (2, 1))
    gen = build_generator(initial, rt, (0, 6))
    results = transition_matrix(initial, list(gen.states), 0.0, rt)
    for state, res in zip(gen.states, results):
        if state == initial:
            assert abs(res.value - 1.0) < 1e-10
        else:
            assert abs(res.value) < 1e-10


def test_swap_probability_matches_hand_solution():
    b1, b2 = 1.0, 2.0
    rt = RateTable((b1, b2))
    t = 0.5
    res = transition_probability(
        ParticleState((0, 1), (2, 1)), ParticleState((0, 1), (1, 2)), t, rt
    )
    exact = b2 * math.exp(-b2 * t) * (1.0 - math.exp(-b1 * t)) / b1
    assert res.value == pytest.approx(exact, abs=1e-10)


def test_forbidden_word_transition_is_tiny():
    rt = RateTable((1.0, 2.0))
    res = transition_probability(
        ParticleState((0, 1), (1, 2)), ParticleState((0, 1), (2, 1)), 0.9, rt
    )
    assert abs(res.value) < 1e-10


def test_leftward_targets_are_exact_zero():
    rt = RateTable((1.0, 2.0))
    res = transition_probability(
        ParticleState((2, 5), (1, 2)), ParticleState((1, 6), (1, 2)), 0.9, rt
    )
    assert res == ProbabilityResult(0.0, 0.0, 0)


def test_different_multiset_is_exact_zero():
    rt = RateTable((1.0, 2.0))
    res = transition_probability(
        ParticleState((0, 1), (1, 2)), ParticleState((0, 1), (1, 1)), 0.9, rt
    )
    assert res.value == 0.0 and res.nodes_used == 0


@pytest.mark.parametrize(
    "start, target, rates, spectral",
    [
        # word 12 lies below its floor (4, 5): the swap needs the pair adjacent
        (((0, 5), (2, 1)), ((0, 5), (1, 2)), (1.0, 2.0), {}),
        (((0, 1), (1, 2)), ((0, 1), (2, 1)), (1.0, 2.0), {}),  # word 21 is unreachable
        # below the floor (1, 2, 5) of word 122, where a 16-node quadrature gave 3.2e-6
        (((0, 2, 5), (2, 1, 2)), ((0, 2, 5), (1, 2, 2)), (0.9, 1.6, 1.2), {"nodes_per_dim": 16, "max_nodes": 16}),
    ],
)
def test_targets_outside_the_support_run_no_probe(monkeypatch, start, target, rates, spectral):
    from mstasep import bethe

    monkeypatch.setattr(bethe, "_series_values", lambda *args: pytest.fail("a moment was built"))
    start, target, params = ParticleState(*start), ParticleState(*target), SpectralParams(**spectral)
    res = transition_probability(start, target, 0.6, RateTable(rates), params=params)
    assert res == ProbabilityResult(0.0, 0.0, 0)


@pytest.mark.parametrize("seed", range(1, 6))  # starts with a gap and two or three species
def test_support_is_the_reachable_set(monkeypatch, seed):
    # every candidate state, any word and any sites from one left of the start to three right of it:
    # the targets that reach the moments are exactly the states the jump rules reach
    from mstasep import bethe

    ones = lambda y, axes, rows, *rest: (np.ones(len(rows)), np.zeros(len(rows)))  # values, bounds
    monkeypatch.setattr(bethe, "_series_values", ones)
    rng = np.random.default_rng(seed)
    start = ParticleState(
        tuple(int(v) for v in np.sort(rng.choice(8, size=3, replace=False))),
        tuple(int(w) for w in rng.integers(1, 4, size=3)),
    )
    rt = draw_rates(rng, 3)
    lo, hi = start.positions[0] - 1, start.positions[-1] + 3
    sites = list(itertools.combinations(range(lo, hi + 1), 3))
    words = list(itertools.product((1, 2, 3), repeat=3))
    positions = np.array([x for x in sites for _ in words], dtype=np.int64)
    table = np.array(words * len(sites), dtype=np.int64)
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    _, _, nodes_used = transition_arrays(start, positions, table, 0.5, rt, params=params)
    keep = nodes_used > 0
    reached = set(zip(map(tuple, positions[keep].tolist()), map(tuple, table[keep].tolist())))
    states, _, _ = reference_generator(start, rt, (lo, hi))
    assert reached == {(s.positions, s.species) for s in states}


def test_fixed_node_calls_take_the_gap_floor():
    # the name predates the series, which has no node floor: a 32-node rule aliased gap 64 (it gave
    # -1.1e-15), and a call that asks for 32 nodes now gets the exact e^(-1.5) from J = 64 + 64 + 16 terms
    start, rt = ParticleState((0, 64), (2, 1)), RateTable((1.0, 2.0))
    res = transition_probability(start, start, 0.5, rt, params=SpectralParams(nodes_per_dim=32, max_nodes=32))
    assert abs(res.value - math.exp(-1.5)) < 1e-12 and res.nodes_used == 144


def test_batch_matches_single_calls_at_fixed_nodes():
    rng = np.random.default_rng(31)
    rt = draw_rates(rng, 2)
    initial = ParticleState((0, 1), (2, 1))
    targets = [
        ParticleState((0, 1), (1, 2)),
        ParticleState((0, 2), (2, 1)),
        ParticleState((1, 4), (1, 2)),
    ]
    params = SpectralParams(nodes_per_dim=32, max_nodes=32)
    batch = transition_matrix(initial, targets, 0.7, rt, params=params)
    for tg, res in zip(targets, batch):
        single = transition_probability(initial, tg, 0.7, rt, params=params)
        assert abs(single.value - res.value) < 1e-12


def test_threads_do_not_change_values():
    rng = np.random.default_rng(37)
    rt = draw_rates(rng, 3)
    initial = ParticleState((0, 1, 2), (3, 1, 2))
    targets = [ParticleState((0, 1, 3), (1, 3, 2)), ParticleState((0, 1, 2), (1, 2, 3))]
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    serial = transition_matrix(initial, targets, 0.4, rt, params=params, threads=1)
    threaded = transition_matrix(initial, targets, 0.4, rt, params=params, threads=2)
    for a, b in zip(serial, threaded):
        assert a.value == b.value  # threads selects nothing


def term_values(poles, terms, sp, rates, n):
    """Each permutation's term sums at one spectral point, {(axis pairing, row): value}."""
    xi, b = np.array(sp.xi), np.array(rates.rates)
    pole_values = np.prod((1.0 - b * xi[:, None, None]) ** poles[None], axis=2)  # (N, signatures)
    out = {}
    for r, (coef, a, sig, axis) in terms.items():
        for c, ak, sk, ax in zip(coef, a, sig, axis):
            value = c * np.prod(xi**ak * pole_values[np.arange(n), sk])
            out[tuple(ax), r] = out.get((tuple(ax), r), 0.0) + value
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("start", ["descending", "mixed", "ascending"])
def test_row_terms_evaluate_to_the_amplitude_entries(n, start):
    # the symbolic S and T of the term walk against rmatrix.amplitudes: every row of A_sigma e_nu
    from mstasep.bethe import _row_terms

    word = {
        "descending": tuple(range(n, 0, -1)),
        "mixed": {2: (1, 1), 3: (1, 3, 2), 4: (2, 1, 3, 1)}[n],
        "ascending": tuple(range(1, n + 1)),  # one row, one term per permutation
    }[start]
    rng = np.random.default_rng(120 + n)
    rt = draw_rates(rng, n)
    sp = draw_point(rng, n, rt)
    sector = build_sector(word)
    nu = sector.index(word)
    got = term_values(*_row_terms(sector, nu, np.arange(sector.dim), rt), sp, rt, n)
    amps = build_all_A(sp, rt, sector)
    for elem, amp in zip(enumerate_sn(n), amps):
        axis = tuple(np.argsort(elem.image).tolist())  # axis d pairs with the target axis sigma maps to d
        for r in range(sector.dim):
            want = amp[r, nu]
            assert abs(got.get((axis, r), 0.0) - want) <= 1e-13 * abs(want)
    assert {axis for axis, _ in got} <= {tuple(np.argsort(e.image).tolist()) for e in enumerate_sn(n)}
    if start == "ascending":
        poles, terms = _row_terms(sector, nu, np.arange(sector.dim), rt)
        assert {r: len(v[0]) for r, v in terms.items() if len(v[0])} == {nu: math.factorial(n)}


@pytest.mark.parametrize(
    "word, rows",
    [
        ((2, 1), None),
        ((3, 2, 1), None),
        ((2, 2, 1), None),
        ((1, 3, 2), [0, 2, 5]),
        ((1, 2, 3), None),
        ((4, 3, 2, 1), None),
        ((4, 3, 2, 1), [0, 7, 13, 23]),
        ((2, 1, 3, 1), None),
        ((2, 1, 3, 1), [1, 6]),
        ((1, 2, 3, 4), None),
        ((5, 4, 3, 2, 1), [0, 60, 119]),
    ],
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else "all" if v is None else "some",
)
def test_row_terms_match_the_exact_terms(word, rows):
    # the walk against helpers.exact_terms, a walk of dicts in exact rationals that shares no code with
    # it: the same keys, each coefficient within a few ulps of the exact one.  Float products of the
    # rates taken in different orders can leave a term whose exact contributions cancel, at a small
    # fraction of an eps of their size (eight of them in the N = 5 case)
    from mstasep.bethe import _row_terms

    rt = draw_rates(np.random.default_rng(sum(word) + len(word)), len(word))
    sector = build_sector(word)
    rows = list(range(sector.dim)) if rows is None else rows
    poles, terms = _row_terms(sector, sector.index(word), np.array(rows), rt)
    exact = exact_terms(word, rows, rt)
    got = {
        (r, tuple(ax), tuple(ak), tuple(map(tuple, poles[sk].tolist()))): c
        for r, (coef, a, sig, axis) in terms.items()
        for c, ak, sk, ax in zip(coef.tolist(), a.tolist(), sig, axis.tolist())
    }
    assert {key for key, (value, _) in exact.items() if value} <= got.keys() <= exact.keys()
    for key, c in got.items():
        value, size = exact[key]
        if value:
            assert abs(Fraction(c) - value) <= 4 * Fraction(math.ulp(float(value)))
        else:
            assert abs(c) <= np.finfo(float).eps * size


def row_reading_targets(n):
    """A descending start at sites 0 .. n-1 and three target tables: one target, a few, a window.

    The few mix words; the window, every state up to site n + 1, reads every row of the sector.
    """
    initial = ParticleState(tuple(range(n)), tuple(range(n, 0, -1)))
    rng = np.random.default_rng(70 + n)
    few = [
        (np.sort(rng.choice(n + 3, size=n, replace=False)), rng.permutation(np.arange(1, n + 1)))
        for _ in range(4)
    ]
    tables = {
        "one": tuple(np.array([col]) for col in {3: ([0, 2, 3], [2, 3, 1]), 4: ([0, 2, 3, 5], [3, 4, 1, 2])}[n]),
        "few": tuple(np.array(col) for col in zip(*few)),
        "window": window_states(initial, n + 1),
    }
    return initial, tables


def closure_rows(n, sector, target_rows, rt):
    """The rows each non-identity permutation needs: those some target row depends on.

    A row of a permutation's column is needed when a target row of that permutation or of a
    descendant in the predecessor tree depends on it through the dense factors in between.
    """
    from mstasep.rmatrix import SlotAction, chain_factors

    perms = enumerate_sn(n)
    pos = {elem.image: k for k, elem in enumerate(perms)}
    sp = draw_point(np.random.default_rng(90 + n), n, rt)
    eye = np.eye(sector.dim, dtype=complex)
    factor = [None]  # |factor| of each non-identity permutation: its dependence on the parent's rows
    for elem in perms[1:]:
        slot, beta, alpha = chain_factors(elem)[-1]
        action = SlotAction(sector, slot, np.asarray(rt))
        factor.append(np.abs(action.apply(sp.xi[beta - 1], sp.xi[alpha - 1], eye)))
    needed = []
    for k in range(1, len(perms)):
        need = set(target_rows)
        for elem in perms[k:]:  # a descendant's chain back to k: the product of |factor| along it
            dep, j = np.eye(sector.dim), pos[elem.image]
            while j > k:
                dep, j = dep @ factor[j], pos[perms[j].pred.image]
            if j == k:
                need |= set(np.flatnonzero(dep[list(target_rows)].any(axis=0)).tolist())
        needed.append(need)
    return needed


def target_rows(initial, positions, words, rt):
    """The sector and the word rows of the targets inside the support (the others build no moment)."""
    params = SpectralParams(nodes_per_dim=4, max_nodes=4)
    nodes = transition_arrays(initial, positions, words, 0.3, rt, params=params)[2]
    sector = build_sector(initial.species)
    return sector, sorted({sector.index(w) for w in words[nodes > 0].tolist()})


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("which", ["one", "few", "window"])
def test_kernel_forms_only_the_rows_targets_read(n, which):
    # the term walk carries, per permutation, exactly the rows its own and its descendants' target
    # rows depend on
    from mstasep.bethe import _needed_rows

    initial, tables = row_reading_targets(n)
    rt = draw_rates(np.random.default_rng(80 + n), n)
    sector, rows = target_rows(initial, *tables[which], rt)
    need = _needed_rows(sector, rows)
    assert [set(np.flatnonzero(m).tolist()) for m in need[1:]] == closure_rows(n, sector, rows, rt)
    carried = need[1:].sum()
    if which == "window":
        assert len(rows) == sector.dim and carried == (math.factorial(n) - 1) * sector.dim
    else:
        assert carried < (math.factorial(n) - 1) * sector.dim


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("which", ["one", "few", "window"])
def test_rows_left_unformed_are_never_read(n, which):
    # a walk restricted to the targets' rows gives their rows the same terms, bit for bit, as a walk
    # that carries every row of every column
    from mstasep.bethe import _row_terms

    initial, tables = row_reading_targets(n)
    rt = draw_rates(np.random.default_rng(80 + n), n)
    sector, rows = target_rows(initial, *tables[which], rt)
    nu = sector.index(initial.species)
    poles, terms = _row_terms(sector, nu, np.array(rows), rt)
    all_poles, all_terms = _row_terms(sector, nu, np.arange(sector.dim), rt)
    assert sorted(terms) == rows
    for r in rows:
        (coef, a, sig, axis), (all_coef, all_a, all_sig, all_axis) = terms[r], all_terms[r]
        assert len(coef) > 0
        assert coef.tobytes() == all_coef.tobytes()
        assert np.array_equal(a, all_a) and np.array_equal(axis, all_axis)
        assert np.array_equal(poles[sig], all_poles[all_sig])


@pytest.mark.parametrize("n", [3, 4])
def test_each_target_alone_matches_it_in_a_batch_reading_every_row(n):
    # one target forms only the rows it reads, a batch of every word at the same positions forms every
    # row; both contract each row against the same node powers, so the values agree bit for bit
    initial, tables = row_reading_targets(n)
    rt = draw_rates(np.random.default_rng(100 + n), n)
    params = SpectralParams(nodes_per_dim=8, max_nodes=8)
    words = np.array(list(itertools.permutations(range(1, n + 1))))
    for x in tables["few"][0][:2]:
        positions = np.repeat(x[None], len(words), axis=0)
        batch, _, nodes = transition_arrays(initial, positions, words, 0.3, rt, params=params)
        assert (nodes > 0).all()  # every word is in the support: the batch reads every row
        for k in range(len(words)):
            alone = transition_arrays(initial, positions[k : k + 1], words[k : k + 1], 0.3, rt, params=params)
            assert alone[0][0] == batch[k]


@pytest.mark.parametrize("n", [3, 4])
def test_gather_chunks_keep_the_bits(monkeypatch, n):
    # a budget of one item per chunk cuts the moment table into one chunk per distinct q and a word
    # row's targets into three or more chunks, and leaves every value's bits
    from mstasep import bethe

    initial, tables = row_reading_targets(n)
    rt = draw_rates(np.random.default_rng(43 + n), n)
    params = SpectralParams(nodes_per_dim=8, max_nodes=8)
    single, _, nodes = transition_arrays(initial, *tables["window"], 0.3, rt, params=params)
    chunks, split = [], bethe._chunks

    def one_per_chunk(count, item_bytes):  # an item past the budget: a lower budget stops the term walk
        parts = split(count, 2 * bethe._CHUNK_BUDGET_BYTES)
        chunks.append(len(parts))
        return parts

    monkeypatch.setattr(bethe, "_chunks", one_per_chunk)
    chunked = transition_arrays(initial, *tables["window"], 0.3, rt, params=params)[0]
    moments, *gathers = chunks  # the moment table is split first, then each word row's targets
    assert moments >= 3 and max(gathers) >= 3 and sum(gathers) == (nodes > 0).sum()
    assert chunked.tobytes() == single.tobytes()


def test_refinement_reports_error_and_converges():
    # the name predates the series: one evaluation, whose bound is near roundoff, and node counts that
    # select nothing
    rt = RateTable((0.9, 1.6))
    initial = ParticleState((0, 1), (2, 1))
    target = ParticleState((0, 2), (1, 2))
    res = transition_probability(initial, target, 0.8, rt)
    assert 0 < res.est_error < 1e-12 and res.nodes_used == 1 + 64 + math.ceil(8 * 4 * 0.8)  # scale 4
    res_low = transition_probability(initial, target, 0.8, rt, params=SpectralParams(nodes_per_dim=16))
    assert res_low == res


def test_empty_target_list():
    assert transition_matrix(ParticleState((0,), (1,)), [], 1.0, RateTable((1.0,))) == []


def test_contour_invalid_raised():
    rt = RateTable((1.0, 2.0))  # admissible bound: 0.5
    with pytest.raises(ContourInvalid):
        transition_probability(
            ParticleState((0, 1), (1, 2)),
            ParticleState((0, 1), (1, 2)),
            0.5,
            rt,
            params=SpectralParams(radius=0.6),
        )


def test_overflow_guard_raised():
    rt = RateTable((1.0,))
    with pytest.raises(OverflowRisk):
        transition_probability(
            ParticleState((0,), (1,)),
            ParticleState((0,), (1,)),
            400.0,
            rt,
            params=SpectralParams(radius=0.4),
        )
    # at t = 0 a subnormal radius passes the time guard; its power-of-two scale overflows float64,
    # and the spectral route names the target
    start, params = ParticleState((0, 1), (2, 1)), SpectralParams(radius=1e-310, nodes_per_dim=32, max_nodes=32)
    with pytest.raises(OverflowRisk, match=r"positions \(0, 1\).* overflows the spectral route"):
        transition_probability(start, start, 0.0, RateTable((1.0, 1.2)), params=params)


def test_positions_beyond_int64_rejected():
    rt = RateTable((1.0, 2.0))
    initial = ParticleState((0, 1), (2, 1))
    with pytest.raises(ValueError, match=str(10**20)):
        transition_matrix(initial, [ParticleState((0, 10**20), (1, 2))], 0.5, rt)
    with pytest.raises(ValueError, match=str(-(2**63) - 1)):
        transition_matrix(ParticleState((-(2**63) - 1, 0), (2, 1)), [], 0.5, rt)


def test_far_target_is_an_exact_zero():
    # (1/2)**2000 underflows in the target's constant: the value is below 1e-300, and exactly 0.0
    res = transition_probability(
        ParticleState((0, 1), (2, 1)), ParticleState((0, 2000), (1, 2)), 0.5, RateTable((1.0, 2.0))
    )
    assert res.value == 0.0 and res.est_error == 0.0


def test_far_start_is_translated_to_the_origin():
    # constants and node powers are taken relative to the start's leftmost site
    rt = RateTable((1.0, 2.0))
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    far, near = -(2**62), 0
    a = transition_matrix(
        ParticleState((far, far + 1), (2, 1)),
        [ParticleState((far, far + 2), (1, 2)), ParticleState((far + 1, far + 3), (2, 1))],
        0.5, rt, params=params,
    )
    b = transition_matrix(
        ParticleState((near, near + 1), (2, 1)),
        [ParticleState((near, near + 2), (1, 2)), ParticleState((near + 1, near + 3), (2, 1))],
        0.5, rt, params=params,
    )
    assert [r.value for r in a] == [r.value for r in b]
    assert all(math.isfinite(r.value) for r in a)


def test_displacement_beyond_int64_raises_overflow_risk():
    # x - y[0] = 2**62 + 2**63 would wrap in int64 and give NaN
    start = ParticleState((-(2**63), -(2**63) + 1), (1, 2))
    target = ParticleState((-(2**63), 2**62), (1, 2))
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    with pytest.raises(OverflowRisk, match=str(2**62)):
        transition_matrix(start, [target], 0.5, RateTable((1.0, 1.0)), params=params)


def test_spread_start_returns_e_to_the_minus_one():
    # a start spanning 2000 sites: each moment sums J = 2000 + 64 + 8 terms (radius 1/2, scale 2),
    # whose scaled coefficients (1/2)**j underflow to exact zeros rather than overflow, and the exact
    # value is exp(-t (b_1 + b_2)) = e^-1
    start = ParticleState((0, 2000), (2, 1))
    params = SpectralParams(nodes_per_dim=2048, max_nodes=2048)
    res = transition_probability(start, start, 0.5, RateTable((1.0, 1.0)), params=params)
    assert abs(res.value - math.exp(-1.0)) <= 1e-14 * math.exp(-1.0) and res.nodes_used == 2072
    assert abs(res.value - math.exp(-1.0)) <= res.est_error < 1e-11


@pytest.mark.parametrize(
    "start, target, word, rates, params, exact",
    [
        # exact: e^(-t (b_1 + b_2)) times t b_1 for the one hop of the species-1 particle
        ((0, 900), (0, 901), (2, 1), (1.0, 2.0), (2048, 2048), 0.5 * math.exp(-1.5)),
        ((0, 900), (0, 901), (2, 1), (1.0, 2.0), (1024, 2048), 0.5 * math.exp(-1.5)),
        ((0, 2000), (0, 2000), (1, 2), (1.0, 2.0), (2048, 2048), math.exp(-1.5)),
        ((0, 2000), (0, 2000), (1, 2), (1.0, 1.5), (2048, 2048), math.exp(-1.25)),  # radius 1/3
        ((0, 2100), (0, 2100), (1, 2), (1.0, 1.4), (4096, 4096), math.exp(-1.2)),
    ],
)
def test_far_starts_are_exact(start, target, word, rates, params, exact):
    res = transition_probability(
        ParticleState(start, word), ParticleState(target, word), 0.5, RateTable(rates),
        params=SpectralParams(nodes_per_dim=params[0], max_nodes=params[1]),
    )
    assert abs(res.value - exact) <= 1e-14 * exact


def test_node_powers_past_the_float_range_raise_naming_the_target():
    # the name predates the series.  Radius 0.71 lies inside the bound 1/1.4 and rounds to scale 1,
    # so beta_1 = 1.4: the coefficients 1.4**j of 1/(1 - 1.4 xi) pass the float range at j = 2110,
    # before the 2268 terms a 2200-site span needs, and the value is not finite
    start = ParticleState((0, 2200), (1, 2))
    params = SpectralParams(radius=0.71)
    with pytest.raises(OverflowRisk, match=r"positions \(0, 2200\).* overflows the spectral route"):
        transition_probability(start, start, 0.5, RateTable((1.4, 1.0)), params=params)
    # at radius 0.25 sqrt(2), where a 4096-node rule overflowed, the coefficients shrink: e^(-1.2)
    params = SpectralParams(radius=0.25 * math.sqrt(2))
    res = transition_probability(ParticleState((0, 2100), (1, 2)), ParticleState((0, 2100), (1, 2)), 0.5,
                                 RateTable((1.0, 1.4)), params=params)
    assert abs(res.value - math.exp(-1.2)) <= 1e-14 * math.exp(-1.2)


def test_time_guard_counts_every_factor(monkeypatch):
    # t/radius = 400 passes one factor, but a term multiplies N = 2 moments of about exp(t/radius)
    # each: N t/radius = 800 raises before any moment is built
    from mstasep import bethe

    monkeypatch.setattr(bethe, "_series_values", lambda *args: pytest.fail("a moment was built"))
    params = SpectralParams(radius=0.00125, nodes_per_dim=32, max_nodes=32)
    with pytest.raises(OverflowRisk, match="N t/radius = 800"):
        transition_probability(
            ParticleState((0, 1), (2, 1)), ParticleState((0, 3), (1, 2)), 0.5, RateTable((1.0, 1.2)),
            params=params,
        )


@pytest.mark.parametrize("seed", range(9))
def test_power_of_two_scale_keeps_the_grid_mantissas(seed):
    # every term of a target carries the same scale**P, P = sum(x) - sum(y) - N.  The coefficients are
    # products of ratios beta (e - j + 1) / j and u_k one of ratios scale t / i, so each term of a
    # moment is its unscaled value times 2**(c (q + 1)), exactly: the scaled sum is the unscaled one
    # times 2**(cP)
    from mstasep import bethe

    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    rt = draw_rates(rng, n)
    word = tuple(int(s) for s in rng.permutation(n) + 1)
    sector = build_sector(word)
    y = np.sort(rng.choice(5, size=n, replace=False))
    y -= y[0]
    x = np.sort(np.array([rng.choice(8, size=n, replace=False) for _ in range(6)]), axis=1)
    rows = rng.integers(sector.dim, size=len(x))
    axes = [np.unique(col, return_inverse=True) for col in x.T]
    radius = rng.uniform(0.2, 0.9) * contour_bound(rt)
    c = -round(math.log2(radius))
    terms = bethe._row_terms(sector, sector.index(word), np.unique(rows), rt)
    plain, _ = bethe._series_values(y, axes, rows, 0.4, rt, 1.0, 90, terms)
    scaled, _ = bethe._series_values(y, axes, rows, 0.4 * 2.0**c, rt, 2.0**c, 90, terms)
    powers = x.sum(axis=1) - y.sum() - n
    assert np.array_equal(scaled, np.ldexp(plain, c * powers))


@pytest.mark.parametrize("t", [0.0, 0.8, 8.0, 32.0])
@pytest.mark.parametrize(
    "q, e, rates",
    [
        ([-2001, -1000, -2], (0, -1), (1.0, 2.0)),  # the leftmost axis of a start spanning 2000 sites
        ([-2001, -3, -1, 0, 5], (2, -3), (1.0, 2.0)),
        ([-3, -1, 0, 1, 7], (2, -3), (1.3, 0.7)),  # rates with full mantissas
        ([-4, -1, 0, 3], (1, 1), (1.3, 0.7)),  # a polynomial
        ([-6, -1, 0, 2], (-1, 1, -2), (1.1, 0.7, 1.3)),
    ],
)
def test_moment_table_covers_the_exact_moments(q, e, rates, t):
    # each moment lies within its bound (third column less second) of the exact one, and its |.| plus
    # that bound covers the exact |moment|: at scale 4, the default radius of both rate pairs
    from mstasep import bethe

    span, scale = 2000, 4.0
    length = span + 64 + math.ceil(8 * scale * t)
    table = bethe._moment_table(np.array(q), np.array([e]), scale * t, RateTable(rates), scale, span, length)
    for (m, a, w), qk in zip(table[:, 0].T, q):
        exact, tail = exact_moment(qk, e, rates, t, scale)
        assert abs(Fraction(m) - exact) <= Fraction(w) - Fraction(a) + tail
        assert abs(exact) <= Fraction(w) + tail


def test_time_and_threads_type_checked():
    state = ParticleState((0, 1), (2, 1))
    rt = RateTable((1.0, 2.0))
    with pytest.raises(TypeError, match="time"):
        transition_matrix(state, [state], True, rt)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            transition_matrix(state, [state], 0.5, rt, threads=bad)
    with pytest.raises(TypeError, match="threads"):
        transition_matrix(state, [state], 0.5, rt, threads=True)


def test_spectral_params_compare_numpy_scalars_as_floats():
    # a float32 radius is compared as a float: no overflow warning from a float32 cast
    assert SpectralParams(radius=np.float32(0.2)).radius == np.float32(0.2)
    with pytest.raises(ValueError, match="radius"):
        SpectralParams(radius=10**400)


def test_repeated_calls_give_identical_bits():
    rt = RateTable((0.9, 1.6, 1.2))
    initial = ParticleState((0, 1, 3), (3, 1, 2))
    targets = [ParticleState((0, 2, 3), (1, 3, 2)), ParticleState((1, 2, 4), (3, 2, 1))]
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    runs = [transition_matrix(initial, targets, 0.4, rt, params=params) for _ in range(2)]
    assert [r.value for r in runs[0]] == [r.value for r in runs[1]]


def test_non_finite_time_rejected():
    state = ParticleState((0, 1), (2, 1))
    with pytest.raises(ValueError, match="finite"):
        transition_probability(state, state, math.nan, RateTable((1.0, 2.0)))


def test_time_past_the_float_range_rejected():
    state = ParticleState((0, 1), (2, 1))
    with pytest.raises(ValueError, match="finite"):
        transition_probability(state, state, 10**400, RateTable((1.0, 2.0)))


def test_not_converged_raised_at_cap():
    rt = RateTable((1.0, 2.0))
    with pytest.raises(NotConverged):
        transition_probability(
            ParticleState((0, 1), (2, 1)),
            ParticleState((0, 1), (1, 2)),
            0.5,
            rt,
            params=SpectralParams(nodes_per_dim=4, max_nodes=8, adapt_tol=1e-18),
        )


def test_engine_matches_literal_node_loop_four_particles():
    # 32 nodes are 2**20 node tuples, out of reach: at t = 0.01 the 8- and 16-node loops agree to 1e-7
    rt = draw_rates(np.random.default_rng(29), 4)
    initial = ParticleState((0, 1, 2, 4), (2, 1, 2, 1))
    tgs = [
        ParticleState((1, 2, 3, 5), (1, 1, 2, 2)),
        ParticleState((0, 1, 2, 5), (2, 1, 2, 1)),
        ParticleState((0, 1, 2, 4), (2, 1, 2, 1)),
        ParticleState((0, 1, 2, 4), (1, 2, 2, 1)),
    ]
    assert_matches_converged_literal_loop(initial, tgs, 0.01, rt, 16, 1e-7)


def test_four_particles_agree_with_generator():
    # end-to-end physics at N = 4: the spectral route against the uniformized generator over the
    # whole window, each value within its est_error (a 16-node rule missed by up to 1e-5 here)
    rt = RateTable((0.8, 1.3, 1.1, 1.9))
    initial = ParticleState((0, 1, 2, 3), (2, 1, 2, 1))
    t = 0.25
    gen = build_generator(initial, rt, default_window(initial, rt, t))
    probs, leak = matrix_exponential_row(gen, initial, t, tol=1e-13)
    assert leak < 1e-9
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    results = transition_matrix(initial, list(gen.states), t, rt, params=params)
    assert all(abs(r.value - p) <= r.est_error + 1e-12 for r, p in zip(results, probs))


def test_particle_count_gate():
    with pytest.raises(ValueError, match="7 particles unsupported"):
        seven = ParticleState(tuple(range(7)), (1,) * 7)
        transition_probability(seven, seven, 0.1, RateTable((1.0,) * 7))
    # five identical blocked particles run below the limit of six: only the rightmost can move, so
    # the survival probability is a bare exponential, exp(-0.5 * 0.2)
    state = ParticleState(tuple(range(5)), (1, 1, 1, 1, 1))
    slow = RateTable((0.5,) * 5)
    res = transition_probability(state, state, 0.2, slow, params=SpectralParams(nodes_per_dim=8, max_nodes=8))
    assert abs(res.value - math.exp(-0.1)) <= res.est_error < 1e-12
    assert res.nodes_used == 4 + 64 + 7  # scale 4 at the default radius 0.25


def test_term_walk_past_the_budget_raises(monkeypatch):
    # the walk over every word row of the descending N = 4 start holds about 0.2 MB at its largest
    # level; a budget of 32 kB refuses the call, naming the rows and the budget, one level past it
    from mstasep import bethe

    rt = RateTable((1.0, 4 / 3, 5 / 3, 2.0))
    start = ParticleState((0, 1, 2, 3), (4, 3, 2, 1))
    positions, words = window_states(start, 8)
    assert len(np.unique(words, axis=0)) == 24
    built, levels = [], bethe._levels

    def counted(n):  # records each of the six levels the walk starts to build
        factor, bounds, axis, steps = levels(n)
        return factor, bounds, axis, (built.append(1) or step for step in steps)

    monkeypatch.setattr(bethe, "_levels", counted)
    monkeypatch.setattr(bethe, "_CHUNK_BUDGET_BYTES", 32768)
    with pytest.raises(ValueError, match="24 word rows passes its budget of 32768 bytes"):
        transition_arrays(start, positions, words, 0.5, rt)
    assert 1 < len(built) < 6  # the first levels fit, and the walk stops before the last
    built.clear()
    monkeypatch.setattr(bethe, "_CHUNK_BUDGET_BYTES", 1)
    with pytest.raises(ValueError, match="budget of 1 bytes"):
        transition_arrays(start, positions, words, 0.5, rt)
    assert len(built) == 1


def test_near_guard_call_meets_the_error_contract():
    # the contract of ROADMAP item 16: a finite value within est_error of the oracle, or a named error.
    # At N t/radius = 680, just under the time guard, a 32-node rule returned -7.1e287 with est_error 0
    rt = RateTable((1.0, 1.2))
    start = ParticleState((0, 1), (2, 1))
    gen = build_generator(start, rt, default_window(start, rt, 0.5))
    probs, leak = matrix_exponential_row(gen, start, 0.5)
    assert leak < 1e-12
    params = SpectralParams(radius=0.5 / 340, nodes_per_dim=32, max_nodes=32)
    try:
        res = transition_probability(start, start, 0.5, rt, params=params)
    except (ContourInvalid, NotConverged, OverflowRisk):
        return
    assert math.isfinite(res.value) and abs(res.value - probs[gen.index[start]]) <= res.est_error + 1e-12


def test_imaginary_parts_stay_small_over_window():
    rng = np.random.default_rng(41)
    rt = draw_rates(rng, 2)
    initial = ParticleState((0, 1), (2, 1))
    gen = build_generator(initial, rt, default_window(initial, rt, 1.0))
    results = transition_matrix(initial, list(gen.states), 1.0, rt)
    tol = SpectralParams().adapt_tol
    assert all(-tol <= r.value <= 1.0 + tol for r in results)


def test_window_mass_sums_to_one():
    rng = np.random.default_rng(43)
    rt = draw_rates(rng, 2)
    initial = ParticleState((0, 1), (1, 1))
    gen = build_generator(initial, rt, default_window(initial, rt, 0.6))
    results = transition_matrix(initial, list(gen.states), 0.6, rt)
    assert abs(sum(r.value for r in results) - 1.0) < 1e-6


def test_spectral_params_validation():
    with pytest.raises(ValueError):
        SpectralParams(nodes_per_dim=12)  # not a power of two
    with pytest.raises(ValueError):
        SpectralParams(nodes_per_dim=2)
    with pytest.raises(ValueError):
        SpectralParams(max_nodes=16, nodes_per_dim=32)
    with pytest.raises(ValueError):
        SpectralParams(adapt_tol=0.0)
    with pytest.raises(ValueError):
        SpectralParams(radius=-0.1)
    with pytest.raises(ValueError, match="4096"):
        SpectralParams(nodes_per_dim=2**40, max_nodes=2**41)
    with pytest.raises(ValueError, match="max_nodes"):
        SpectralParams(max_nodes=8192)
    with pytest.raises(TypeError, match="nodes_per_dim"):
        SpectralParams(nodes_per_dim=True)
    with pytest.raises(TypeError, match="max_nodes"):
        SpectralParams(max_nodes=32.0)
    assert SpectralParams(nodes_per_dim=np.int64(16), max_nodes=4096).max_nodes == 4096


# ---------------------------------------------------------------------------
# lattice-equation properties of the spectral solution
# ---------------------------------------------------------------------------


def plane_wave(x, sp, rates, sector, amp, image):
    """One spectral mode: rate-power diagonal times amplitude times node powers."""
    phase = np.prod([sp.xi[image[i] - 1] ** x[i] for i in range(len(x))])
    return rate_power_diag(x, sector, rates)[:, None] * amp * phase


@pytest.mark.parametrize("n,multiset", [(2, (1, 2)), (2, (2, 2)), (3, (1, 2, 3)), (3, (1, 2, 2))])
def test_plane_wave_solves_free_lattice_equation(n, multiset):
    # substituting one mode into the free evolution equation leaves the
    # stated eigenvalue; checked entrywise at random integer points
    rng = np.random.default_rng(53)
    for _ in range(5):
        rt = draw_rates(rng, n)
        sp = draw_point(rng, n, rt)
        sector = build_sector(multiset)
        # the eigenvalue: sum of 1/xi minus the total jump rate, the same for every word in the sector
        eps = sum(1.0 / z for z in sp.xi) - sum(rt.rate(s) for s in multiset)
        for elem, amp in zip(enumerate_sn(n), build_all_A(sp, rt, sector)):
            x = [int(v) for v in rng.integers(-3, 4, size=n)]
            u_here = plane_wave(x, sp, rt, sector, amp, elem.image)
            rhs = np.zeros_like(u_here)
            for j in range(1, n + 1):
                shifted = list(x)
                shifted[j - 1] -= 1
                shifted_wave = plane_wave(shifted, sp, rt, sector, amp, elem.image)
                rhs += hop_rate_diag(sector, rt, j) @ shifted_wave
                rhs -= hop_rate_diag(sector, rt, j) @ u_here
            scale = max(np.max(np.abs(u_here)), 1e-30)
            assert np.max(np.abs(eps * u_here - rhs)) / scale < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_bethe_sum_satisfies_adjacency_condition(n):
    # the summed solution must satisfy the two-site matching condition that
    # replaces the free equation where positions collide
    rng = np.random.default_rng(59)
    for _ in range(10):
        rt = draw_rates(rng, n)
        sp = draw_point(rng, n, rt)
        multiset = sorted(rng.integers(1, n + 1, size=n))
        sector = build_sector(multiset)
        amps = build_all_A(sp, rt, sector)
        base = [int(v) for v in rng.integers(-3, 4, size=n)]
        for slot in range(1, n):
            x = list(base)
            x[slot] = x[slot - 1] + 1
            merged = list(x)
            merged[slot] = merged[slot - 1]
            lhs = hop_rate_diag(sector, rt, slot + 1) @ bethe_sum(merged, sp, rt, sector, amps)
            rhs = (
                swap_gain_matrix(sector, rt, slot)
                + hop_rate_diag(sector, rt, slot)
                - swap_loss_diag(sector, rt, slot)
            ) @ bethe_sum(x, sp, rt, sector, amps)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-30)
            assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_time_derivative_matches_generator():
    # centred difference of the computed probabilities against the forward
    # equations; the defect must shrink like h^2
    rt = RateTable((0.9, 1.7))
    initial = ParticleState((0, 1), (2, 1))
    t = 0.6
    gen = build_generator(initial, rt, default_window(initial, rt, t + 0.1))
    states = list(gen.states)
    params = SpectralParams(nodes_per_dim=64, max_nodes=64)

    def probs(at):
        return np.array(
            [r.value for r in transition_matrix(initial, states, at, rt, params=params)]
        )

    q = gen.rate_matrix
    p_mid = probs(t)
    defects = []
    for h in (0.02, 0.01):
        fd = (probs(t + h) - probs(t - h)) / (2.0 * h)
        forward = q.T @ p_mid
        defects.append(np.max(np.abs(fd - forward)))
    assert defects[1] < 1e-3
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.25)


def test_target_table_validated_as_a_whole():
    rt = RateTable((1.0, 2.0))
    start = ParticleState((0, 1), (2, 1))
    good = ParticleState((0, 2), (1, 2))
    with pytest.raises(NonIncreasingPositions, match=r"target 2 \(positions \(3, 3\)"):
        bad = [ParticleState((3, 3), (1, 2)), ParticleState((4, 4), (1, 2))]
        transition_matrix(start, [good, good, *bad], 0.5, rt)
    with pytest.raises(SpeciesOutOfRange, match=r"target 1 \(positions \(0, 3\), species \(3, 1\)"):
        transition_matrix(start, [good, ParticleState((0, 3), (3, 1))], 0.5, rt)
    with pytest.raises(SpeciesOutOfRange, match="3 particles"):
        transition_matrix(start, [good, ParticleState((0, 1, 2), (1, 2, 1))], 0.5, rt)
    with pytest.raises(SpeciesOutOfRange, match=str(2**70)):
        transition_matrix(start, [ParticleState((0, 1), (1, 2**70))], 0.5, rt)
    positions, words = np.array([[0, 2]]), np.array([[1, 2]])
    with pytest.raises(TypeError, match="int64"):
        transition_arrays(start, positions.astype(float), words, 0.5, rt)
    with pytest.raises(SpeciesOutOfRange, match="arrays"):
        transition_arrays(start, positions, words[:, :1], 0.5, rt)


def test_transition_arrays_match_the_list_wrapper():
    rt = RateTable((0.9, 1.6, 1.2))
    start = ParticleState((0, 1, 3), (3, 1, 2))
    targets = [ParticleState((0, 2, 3), (1, 3, 2)), ParticleState((-1, 2, 4), (3, 2, 1)),
               ParticleState((1, 2, 4), (3, 2, 1)), ParticleState((0, 1, 3), (3, 1, 2))]
    params = SpectralParams(nodes_per_dim=16, max_nodes=32)
    positions = np.array([tg.positions for tg in targets])
    words = np.array([tg.species for tg in targets])
    value, est_error, nodes_used = transition_arrays(start, positions, words, 0.4, rt, params=params)
    results = transition_matrix(start, targets, 0.4, rt, params=params)
    assert value.dtype == est_error.dtype == np.float64 and nodes_used.dtype == np.int64
    assert value.tolist() == [r.value for r in results]
    assert est_error.tolist() == [r.est_error for r in results]
    # the second target lies left of the start, the third's word 321 is unreachable from 312; the
    # others sum J = 3 + 64 + ceil(8 scale t) terms, scale 4 at the default radius 0.3125
    assert nodes_used.tolist() == [r.nodes_used for r in results] == [80, 0, 0, 80]
    assert (est_error[[0, 3]] > 0).all() and (est_error[[1, 2]] == 0).all()


@pytest.mark.parametrize(
    "gap, max_nodes, used",
    [(32, 256, 64), (64, 256, 128), (96, 256, 192), (128, 256, 256), (192, 512, 384)],
)
def test_gapped_start_does_not_alias(gap, max_nodes, used):
    # neither particle moves with probability e^(-(1 + 2) t).  A 32/64 node pair aliased alike at gaps
    # 64 and 128, a 32/48 pair at 96 and 192, so the node ladder confirmed these gaps only at the `used`
    # rung above them.  The series needs no rung: J = gap + 64 + 16 terms (scale 4) whatever
    # max_nodes is, and it agrees with the literal `used`-node rule, which does not alias
    rt = RateTable((1.0, 2.0))
    start = ParticleState((0, gap), (2, 1))
    res = transition_probability(start, start, 0.5, rt, params=SpectralParams(max_nodes=max_nodes))
    assert abs(res.value - math.exp(-1.5)) <= res.est_error < 1e-11
    assert res.nodes_used == gap + 80
    literal = literal_grid_values(start, [start], 0.5, rt, used, default_radius(rt))[0]
    assert abs(res.value - literal.real) < 1e-8


def test_large_time_window_matches_the_oracle():
    # N = 2 at t = 6: each moment sums J = 1 + 64 + 8 * 4 * 6 terms (scale 4), every value within
    # adapt_tol of the oracle row, and within its est_error
    rt = RateTable((1.0, 2.0))
    start = ParticleState((0, 1), (2, 1))
    gen = build_generator(start, rt, default_window(start, rt, 6.0))
    probs, leak = matrix_exponential_row(gen, start, 6.0)
    assert leak < 1e-11
    value, errs, nodes = transition_arrays(start, gen.positions, gen.words, 6.0, rt)
    assert (nodes == 257).all()
    assert np.abs(value - probs).max() <= SpectralParams().adapt_tol
    assert (np.abs(value - probs) <= errs + 1e-12).all()


@pytest.mark.parametrize("t", [8.0, 16.0])
def test_large_time_windows_meet_the_error_contract(t):
    # at t = 8 a 256-node rule lost the default radius's roundoff floor and raised NotConverged; the
    # series meets the contract on every state of the default window (4,556 and 10,100 states)
    rt = RateTable((1.0, 2.0))
    start = ParticleState((0, 1), (2, 1))
    gen = build_generator(start, rt, default_window(start, rt, t))
    probs, leak = matrix_exponential_row(gen, start, t)
    assert leak < 1e-11
    value, errs, nodes = transition_arrays(start, gen.positions, gen.words, t, rt)
    assert (nodes == 1 + 64 + 8 * 4 * int(t)).all()
    assert (np.abs(value - probs) <= errs + 1e-12).all()


@pytest.mark.parametrize(
    "n, t, hi, states, max_leak",
    [
        pytest.param(5, 0.1, 10, 55440, 1e-10, id="0.1-1e-10"),
        pytest.param(5, 0.3, 10, 55440, 1e-7, id="0.3-1e-07"),
        pytest.param(6, 0.05, 9, 151200, 5e-9, id="n6-0.05-5e-09"),
    ],
)
def test_default_five_particle_call_matches_the_oracle(n, t, hi, states, max_leak):
    # the name predates the N = 6 case and is kept so that the N = 5 node ids stay stable
    # the default adaptive path at N = 5 and 6 against the oracle row on sites 0 .. hi, whose leaked
    # mass is 1.9e-11 at N = 5, t = 0.1, 4.0e-8 at N = 5, t = 0.3 and 2.5e-9 at N = 6, t = 0.05:
    # the eight likeliest states, each within its est_error
    rt = RateTable(tuple(np.linspace(1.0, 2.0, n).tolist()))  # 1, 1.25, ..., 2 and 1, 1.2, ..., 2
    start = ParticleState(tuple(range(n)), tuple(range(n, 0, -1)))
    gen = build_generator(start, rt, (0, hi))
    probs, leak = matrix_exponential_row(gen, start, t)
    assert len(gen.states) == states and leak < max_leak
    top = np.argsort(probs)[::-1][:8]
    got = transition_matrix(start, [gen.states[k] for k in top], t, rt)
    for res, k in zip(got, top):
        assert res.nodes_used > 0 and abs(res.value - probs[k]) <= res.est_error + 1e-12


def test_largest_admitted_six_particle_call_matches_the_oracle():
    # the 100 likeliest states of the N = 6 pin's window span 57 word rows; the walk on packed keys
    # admits them under the default budget (on wide int64 keys it carried 207 MB and was refused)
    n, t = 6, 0.05
    rt = RateTable(tuple(np.linspace(1.0, 2.0, n).tolist()))
    start = ParticleState(tuple(range(n)), tuple(range(n, 0, -1)))
    gen = build_generator(start, rt, (0, 9))
    probs, leak = matrix_exponential_row(gen, start, t)
    assert leak < 5e-9
    top = np.argsort(probs)[::-1][:100]
    targets = [gen.states[k] for k in top]
    assert len({state.species for state in targets}) == 57
    got = transition_matrix(start, targets, t, rt)
    for res, k in zip(got, top):
        assert res.nodes_used > 0 and abs(res.value - probs[k]) <= res.est_error + 1e-12


@pytest.mark.parametrize(
    "word, step",
    [((5, 4, 3, 2, 1), 1), ((5, 4, 3, 2, 1), 11), ((3, 1, 2, 1, 2), 1)],
    ids=["54321-all", "54321-every-11th", "31212-all"],
)
def test_term_walk_holds_at_most_twice_its_budget(monkeypatch, word, step):
    # at the smallest budget that admits it (to 5 %), the traced peak of a walk stays within twice the
    # budget and 32 kB, as the _row_terms docstring states: the count includes the walk's tables, the
    # final merge's copies and each level's indices and moves.  On wide keys the all-rows N = 5 walk
    # peaked at 3.4 times the bytes it counted
    from mstasep import bethe

    rt = RateTable(tuple(np.linspace(1.0, 2.0, max(word)).tolist()))
    sector = build_sector(word)
    rows = np.arange(0, sector.dim, step)

    def walk(budget):
        monkeypatch.setattr(bethe, "_CHUNK_BUDGET_BYTES", budget)
        return bethe._row_terms(sector, sector.index(word), rows, rt)

    lo, hi = 1e4, 1e8
    with pytest.raises(ValueError, match="passes its budget"):
        walk(lo)
    while hi > 1.05 * lo:
        mid = math.sqrt(lo * hi)
        try:
            walk(mid)
            hi = mid
        except ValueError:
            lo = mid
    tracemalloc.start()
    try:
        walk(hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * hi + 32768


@pytest.mark.parametrize(
    "seed, n, gap, equal_rates",
    [
        (0, 2, 32, False), (1, 2, 48, True), (2, 2, 64, False), (3, 2, 64, True), (4, 2, 96, False),
        (5, 2, 96, True), (6, 3, 32, False), (7, 3, 32, True), (8, 3, 48, False), (9, 3, 48, True),
        (10, 3, 64, False),
    ],
)
def test_adaptive_path_matches_the_oracle_on_gapped_starts(seed, n, gap, equal_rates):
    # every other oracle comparison starts on contiguous sites, where no node count aliases
    rng = np.random.default_rng(seed)
    if equal_rates:
        rt = RateTable((float(rng.uniform(0.5, 2.0)),) * n)
    else:  # one rate below 1, one above, any others anywhere in [0.5, 2]
        rates = [rng.uniform(0.5, 0.9), rng.uniform(1.1, 2.0), *rng.uniform(0.5, 2.0, size=n - 2)]
        rt = RateTable(tuple(float(b) for b in rng.permutation(rates)))
    # the start spans the gap; a third particle sits next to one end, so the window stays small
    sites = [0, gap] if n == 2 else sorted([0, gap, int(rng.choice([1, gap - 1]))])
    start = ParticleState(tuple(sites), tuple(int(w) for w in rng.integers(1, n + 1, size=n)))
    t = float(rng.uniform(0.2, 0.8))
    gen = build_generator(start, rt, default_window(start, rt, t))
    probs, leak = matrix_exponential_row(gen, start, t)
    assert leak < 1e-9
    value, _, nodes_used = transition_arrays(start, gen.positions, gen.words, t, rt)
    assert np.abs(value - probs).max() < SpectralParams().adapt_tol
    assert nodes_used.max() > gap
