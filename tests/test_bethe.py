import itertools
import math

import numpy as np
import pytest

from helpers import draw_point, draw_rates
from mstasep import (
    ContourInvalid,
    NotConverged,
    OverflowRisk,
    ParticleState,
    RateTable,
    SpectralParams,
    SpectralPoint,
    build_generator,
    default_window,
    enumerate_sn,
    matrix_exponential_row,
    transition_matrix,
    transition_probability,
)
from mstasep.bethe import (
    bethe_sum,
    default_radius,
    epsilon,
    integrand,
    rate_power_diag,
    transition_arrays,
)
from mstasep.core import NonIncreasingPositions, SpeciesOutOfRange, build_sector
from mstasep.oracle import hop_rate_diag, swap_gain_matrix, swap_loss_diag
from mstasep.rmatrix import build_all_A


def test_epsilon_single_particle_zero():
    assert epsilon((1,), SpectralPoint((1.0,)), RateTable((1.0,))) == 0.0


def test_epsilon_direct_sum():
    rt = RateTable((1.0, 2.0))
    sp = SpectralPoint((0.5, 0.25))
    assert epsilon((1, 2), sp, rt) == pytest.approx(2.0 + 4.0 - 3.0)


def test_epsilon_symmetric_in_word_order():
    rt = RateTable((0.7, 1.9))
    sp = SpectralPoint((0.1 + 0.2j, -0.3j))
    assert epsilon((1, 2), sp, rt) == epsilon((2, 1), sp, rt)


def test_integrand_single_particle_closed_form():
    rt = RateTable((1.4,))
    sector = build_sector([1])
    sp = SpectralPoint((0.21 - 0.08j,))
    (elem,) = enumerate_sn(1)
    amps = build_all_A(sp, rt, sector)
    t, x, y = 0.9, 4, 1
    got = integrand(
        elem, sp, ParticleState((y,), (1,)), ParticleState((x,), (1,)), t, rt, sector,
        amps[elem.image],
    )
    xi = sp.xi[0]
    expected = np.exp((1.0 / xi - 1.4) * t) * 1.4 ** (x - y) * xi ** (x - y - 1)
    assert got == pytest.approx(expected, rel=1e-13)


def test_integrand_time_zero_identity_term():
    rt = RateTable((0.9, 1.1))
    sector = build_sector([1, 2])
    sp = SpectralPoint((0.14, -0.2j))
    ident = next(e for e in enumerate_sn(2) if e.is_identity)
    amps = build_all_A(sp, rt, sector)
    state = ParticleState((2, 5), (1, 2))
    got = integrand(ident, sp, state, state, 0.0, rt, sector, amps[ident.image])
    assert got == pytest.approx(1.0 / (sp.xi[0] * sp.xi[1]), rel=1e-13)


def test_integrand_annihilated_entry_gives_zero():
    rt = RateTable((0.9, 1.1))
    sector = build_sector([1, 2])
    sp = SpectralPoint((0.14, -0.2j))
    ident = next(e for e in enumerate_sn(2) if e.is_identity)
    amps = build_all_A(sp, rt, sector)
    got = integrand(
        ident, sp, ParticleState((0, 1), (1, 2)), ParticleState((0, 1), (2, 1)), 0.5,
        rt, sector, amps[ident.image],
    )
    assert got == 0.0


def brute_force_values(initial, targets, t, rates, m, radius):
    """Literal tensor-grid sum: weights times integrand, node tuple by node tuple."""
    n = len(initial)
    sector = build_sector(initial.species)
    perms = enumerate_sn(n)
    nodes = radius * np.exp(2j * np.pi * np.arange(m) / m)
    totals = [0j] * len(targets)
    for tup in itertools.product(range(m), repeat=n):
        sp = SpectralPoint(tuple(nodes[k] for k in tup))
        weight = np.prod([nodes[k] / m for k in tup])
        amps = build_all_A(sp, rates, sector)
        for elem in perms:
            amp = amps[elem.image]
            for j, tg in enumerate(targets):
                totals[j] += weight * integrand(elem, sp, initial, tg, t, rates, sector, amp)
    return totals


@pytest.mark.parametrize(
    "nu,targets",
    [
        ((2, 1), [((0, 1), (1, 2)), ((1, 3), (2, 1)), ((0, 2), (2, 1))]),
        ((1, 2), [((0, 1), (1, 2)), ((2, 4), (1, 2))]),
    ],
)
def test_engine_matches_literal_node_loop_two_particles(nu, targets):
    rng = np.random.default_rng(17)
    rt = draw_rates(rng, 2)
    radius = default_radius(rt)
    initial = ParticleState((0, 1), nu)
    tgs = [ParticleState(p, s) for p, s in targets]
    expected = brute_force_values(initial, tgs, 0.8, rt, 8, radius)
    params = SpectralParams(radius=radius, nodes_per_dim=8, max_nodes=8)
    got = transition_matrix(initial, tgs, 0.8, rt, params=params)
    for res, exp in zip(got, expected):
        assert res.raw == pytest.approx(exp, abs=1e-13)
        assert res.nodes_used == 8


def test_engine_matches_literal_node_loop_three_particles():
    rng = np.random.default_rng(23)
    rt = draw_rates(rng, 3)
    radius = default_radius(rt)
    initial = ParticleState((0, 1, 3), (2, 1, 2))
    tgs = [
        ParticleState((0, 1, 3), (1, 2, 2)),
        ParticleState((1, 2, 4), (2, 1, 2)),
        ParticleState((0, 2, 3), (2, 2, 1)),
    ]
    expected = brute_force_values(initial, tgs, 0.5, rt, 8, radius)
    params = SpectralParams(radius=radius, nodes_per_dim=8, max_nodes=8)
    got = transition_matrix(initial, tgs, 0.5, rt, params=params)
    for res, exp in zip(got, expected):
        assert res.raw == pytest.approx(exp, abs=1e-13)


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
    assert abs(res.raw.imag) < 1e-10


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
    assert res.value == 0.0 and res.raw == 0j and res.nodes_used == 0


def test_different_multiset_is_exact_zero():
    rt = RateTable((1.0, 2.0))
    res = transition_probability(
        ParticleState((0, 1), (1, 2)), ParticleState((0, 1), (1, 1)), 0.9, rt
    )
    assert res.value == 0.0 and res.nodes_used == 0


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
        assert abs(single.raw - res.raw) < 1e-12


def test_threads_do_not_change_values():
    rng = np.random.default_rng(37)
    rt = draw_rates(rng, 3)
    initial = ParticleState((0, 1, 2), (3, 1, 2))
    targets = [ParticleState((0, 1, 3), (1, 3, 2)), ParticleState((0, 1, 2), (1, 2, 3))]
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    serial = transition_matrix(initial, targets, 0.4, rt, params=params, threads=1)
    threaded = transition_matrix(initial, targets, 0.4, rt, params=params, threads=2)
    for a, b in zip(serial, threaded):
        assert a.raw == b.raw  # identical slab order, identical bits


def test_thread_pool_over_several_slabs(monkeypatch):
    from mstasep import bethe

    rng = np.random.default_rng(37)
    rt = draw_rates(rng, 3)
    initial = ParticleState((0, 1, 2), (3, 1, 2))
    targets = [ParticleState((0, 1, 3), (1, 3, 2)), ParticleState((0, 1, 2), (1, 2, 3))]
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    assert len(bethe._slab_ranges(16, 3, 6)) == 1
    single = transition_matrix(initial, targets, 0.4, rt, params=params)
    monkeypatch.setattr(bethe, "_SLAB_BUDGET_BYTES", 5 * 16**2 * 6 * 64)  # five grid rows per slab
    assert len(bethe._slab_ranges(16, 3, 6)) >= 2
    serial = transition_matrix(initial, targets, 0.4, rt, params=params, threads=1)
    threaded = transition_matrix(initial, targets, 0.4, rt, params=params, threads=2)
    for a, b, ref in zip(serial, threaded, single):
        assert a.raw == b.raw  # the pool keeps the slab reduction order
        assert abs(a.raw - ref.raw) <= 1e-14 * abs(ref.raw)


@pytest.mark.parametrize("n, apps", [(3, 5), (4, 23)])
def test_kernel_applies_one_factor_per_permutation(monkeypatch, n, apps):
    # the tree walk builds each non-identity amplitude column from its parent's
    from mstasep import bethe
    from mstasep.rmatrix import SlotAction

    calls = []
    apply = SlotAction.apply
    monkeypatch.setattr(
        SlotAction, "apply", lambda self, *a, **k: calls.append(1) or apply(self, *a, **k)
    )
    rt = draw_rates(np.random.default_rng(41), n)
    initial = ParticleState(tuple(range(n)), tuple(range(n, 0, -1)))
    params = SpectralParams(nodes_per_dim=4, max_nodes=4)
    transition_matrix(initial, [initial], 0.3, rt, params=params)
    assert len(calls) == apps * len(bethe._slab_ranges(4, n, math.factorial(n)))


def test_thread_pool_over_several_slabs_four_particles(monkeypatch):
    from mstasep import bethe

    rt = draw_rates(np.random.default_rng(43), 4)
    initial = ParticleState((0, 1, 2, 3), (4, 2, 1, 3))
    targets = [
        ParticleState((0, 1, 2, 4), (2, 4, 1, 3)),
        ParticleState((1, 2, 3, 5), (4, 1, 3, 2)),
        ParticleState((0, 2, 3, 4), (4, 2, 1, 3)),
    ]
    params = SpectralParams(nodes_per_dim=8, max_nodes=8)
    single = transition_matrix(initial, targets, 0.3, rt, params=params)
    monkeypatch.setattr(bethe, "_SLAB_BUDGET_BYTES", 3 * 8**3 * 24 * 64)  # three grid rows per slab
    assert len(bethe._slab_ranges(8, 4, 24)) >= 3
    serial = transition_matrix(initial, targets, 0.3, rt, params=params, threads=1)
    threaded = transition_matrix(initial, targets, 0.3, rt, params=params, threads=2)
    for a, b, ref in zip(serial, threaded, single):
        assert a.raw == b.raw  # the pool keeps the slab reduction order
        assert abs(a.raw - ref.raw) <= 1e-14 * abs(ref.raw)


def test_refinement_reports_error_and_converges():
    rt = RateTable((0.9, 1.6))
    initial = ParticleState((0, 1), (2, 1))
    target = ParticleState((0, 2), (1, 2))
    res = transition_probability(initial, target, 0.8, rt)
    assert res.est_error < 1e-8
    # halving the start resolution converges to the same value
    res_low = transition_probability(
        initial, target, 0.8, rt, params=SpectralParams(nodes_per_dim=16)
    )
    assert res.value == pytest.approx(res_low.value, abs=1e-8)


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


def test_positions_beyond_int64_rejected():
    rt = RateTable((1.0, 2.0))
    initial = ParticleState((0, 1), (2, 1))
    with pytest.raises(ValueError, match=str(10**20)):
        transition_matrix(initial, [ParticleState((0, 10**20), (1, 2))], 0.5, rt)
    with pytest.raises(ValueError, match=str(-(2**63) - 1)):
        transition_matrix(ParticleState((-(2**63) - 1, 0), (2, 1)), [], 0.5, rt)


def test_far_target_rate_power_raises_overflow_risk():
    # 2.0 ** 2000 overflows float64; the error names the target
    with pytest.raises(OverflowRisk, match="2000"):
        transition_matrix(
            ParticleState((0, 1), (2, 1)), [ParticleState((0, 2000), (1, 2))], 0.5,
            RateTable((1.0, 2.0)),
        )


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
    assert [r.raw for r in a] == [r.raw for r in b]
    assert all(math.isfinite(r.value) for r in a)


def test_displacement_beyond_int64_raises_overflow_risk():
    # x - y[0] = 2**62 + 2**63 would wrap in int64 and give NaN
    start = ParticleState((-(2**63), -(2**63) + 1), (1, 2))
    target = ParticleState((-(2**63), 2**62), (1, 2))
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    with pytest.raises(OverflowRisk, match=str(2**62)):
        transition_matrix(start, [target], 0.5, RateTable((1.0, 1.0)), params=params)


def test_spread_start_node_powers_raise_overflow_risk():
    # xi ** (x_1 - y_2 - 1) at |xi| = 0.5 overflows for a start spanning 2000 sites
    start = ParticleState((0, 2000), (2, 1))
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    with pytest.raises(OverflowRisk, match="2000 sites"):
        transition_matrix(start, [start], 0.5, RateTable((1.0, 1.0)), params=params)


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
    assert [r.raw for r in runs[0]] == [r.raw for r in runs[1]]


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
    rng = np.random.default_rng(29)
    rt = draw_rates(rng, 4)
    radius = default_radius(rt)
    initial = ParticleState((0, 1, 2, 4), (2, 1, 2, 1))
    tgs = [
        ParticleState((0, 1, 2, 4), (1, 1, 2, 2)),
        ParticleState((0, 1, 3, 5), (2, 1, 2, 1)),
    ]
    expected = brute_force_values(initial, tgs, 0.3, rt, 4, radius)
    params = SpectralParams(radius=radius, nodes_per_dim=4, max_nodes=4)
    got = transition_matrix(initial, tgs, 0.3, rt, params=params)
    for res, exp in zip(got, expected):
        assert res.raw == pytest.approx(exp, abs=1e-13)


def test_four_particles_agree_with_generator():
    # end-to-end physics at the default particle limit: one coarse spectral
    # pass against the uniformized generator over the whole window
    rt = RateTable((0.8, 1.3, 1.1, 1.9))
    initial = ParticleState((0, 1, 2, 3), (2, 1, 2, 1))
    t = 0.25
    gen = build_generator(initial, rt, default_window(initial, rt, t))
    probs, leak = matrix_exponential_row(gen, initial, t, tol=1e-13)
    assert leak < 1e-9
    params = SpectralParams(nodes_per_dim=16, max_nodes=16)
    results = transition_matrix(initial, list(gen.states), t, rt, params=params)
    dev = max(abs(r.value - p) for r, p in zip(results, probs))
    assert dev < 1e-5  # grid aliasing floor at 16 nodes, (b*r)^16 scale


def test_particle_count_gate():
    rt = RateTable((1.0,) * 5)
    state = ParticleState(tuple(range(5)), (1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="allow_large"):
        transition_probability(state, state, 0.1, rt)
    with pytest.raises(ValueError):
        seven = ParticleState(tuple(range(7)), (1,) * 7)
        transition_probability(seven, seven, 0.1, RateTable((1.0,) * 7), allow_large=True)
    # five identical blocked particles: only the rightmost can move, so the
    # survival probability is a bare exponential.  Rates below one push the
    # amplitude poles far from the contour, so one coarse pass suffices.
    slow = RateTable((0.5,) * 5)
    res = transition_probability(
        state, state, 0.2, slow, params=SpectralParams(nodes_per_dim=8, max_nodes=8),
        allow_large=True,
    )
    assert res.value == pytest.approx(math.exp(-0.1), abs=2e-4)
    assert res.nodes_used == 8


def test_imaginary_parts_stay_small_over_window():
    rng = np.random.default_rng(41)
    rt = draw_rates(rng, 2)
    initial = ParticleState((0, 1), (2, 1))
    gen = build_generator(initial, rt, default_window(initial, rt, 1.0))
    results = transition_matrix(initial, list(gen.states), 1.0, rt)
    assert max(abs(r.raw.imag) for r in results) < 1e-10
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
        amps = build_all_A(sp, rt, sector)
        for elem in enumerate_sn(n):
            x = [int(v) for v in rng.integers(-3, 4, size=n)]
            u_here = plane_wave(x, sp, rt, sector, amps[elem.image], elem.image)
            rhs = np.zeros_like(u_here)
            for j in range(1, n + 1):
                shifted = list(x)
                shifted[j - 1] -= 1
                rhs += hop_rate_diag(sector, rt, j) @ plane_wave(
                    shifted, sp, rt, sector, amps[elem.image], elem.image
                )
                rhs -= hop_rate_diag(sector, rt, j) @ u_here
            eps = epsilon(sector.words[0], sp, rt)  # same for every word in the sector
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
    value, raw, est_error, nodes_used = transition_arrays(start, positions, words, 0.4, rt, params=params)
    results = transition_matrix(start, targets, 0.4, rt, params=params)
    assert value.tolist() == [r.value for r in results] and raw.tolist() == [r.raw for r in results]
    assert est_error.tolist() == [r.est_error for r in results]
    assert nodes_used.tolist() == [r.nodes_used for r in results] == [32, 0, 32, 32]
