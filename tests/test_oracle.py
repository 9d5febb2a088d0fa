import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_generator
from mstasep import (
    ParticleState,
    RateTable,
    WindowTooSmall,
    WindowTooWide,
    build_generator,
    default_window,
    gillespie,
    matrix_exponential_row,
)
from mstasep import oracle
from mstasep.core import WordBlock, build_sector
from mstasep.oracle import hop_rate_diag, sample_trajectory, swap_gain_matrix, swap_loss_diag

B1, B2 = 0.8, 1.7
RT2 = RateTable((B1, B2))


def rate_between(gen, a, b):
    return gen.rate_matrix[gen.index[a], gen.index[b]]


def test_free_pair_rates_and_diagonal():
    # two separated particles hop independently; diagonal collects both rates
    state = ParticleState((0, 2), (1, 2))
    gen = build_generator(state, RT2, (0, 30))
    assert rate_between(gen, state, ParticleState((1, 2), (1, 2))) == B1
    assert rate_between(gen, state, ParticleState((0, 3), (1, 2))) == B2
    assert rate_between(gen, state, state) == -(B1 + B2)


def test_adjacent_descending_pair_swaps():
    # species 2 ahead of species 1: swap fires at the rate of the jumper
    state = ParticleState((0, 1), (2, 1))
    gen = build_generator(state, RT2, (0, 30))
    assert rate_between(gen, state, ParticleState((0, 1), (1, 2))) == B2
    assert rate_between(gen, state, ParticleState((0, 2), (2, 1))) == B1
    assert rate_between(gen, state, state) == -(B2 + B1)


def test_adjacent_ascending_pair_blocks():
    state = ParticleState((0, 1), (1, 2))
    gen = build_generator(state, RT2, (0, 30))
    assert rate_between(gen, state, ParticleState((0, 2), (1, 2))) == B2
    assert rate_between(gen, state, state) == -B2
    # the blocked particle contributes no transition at all
    row = gen.rate_matrix[gen.index[state]].toarray().ravel()
    assert sorted(v for v in row if v > 0) == [B2]


def test_generator_rows_sum_to_leak_deficit():
    state = ParticleState((0, 1), (2, 1))
    gen = build_generator(state, RT2, default_window(state, RT2, 1.0))
    sums = np.asarray(gen.rate_matrix.sum(axis=1)).ravel()
    assert np.allclose(sums, -gen.leak_rates, atol=1e-12)
    interior = [max(s.positions) < gen.hi for s in gen.states]
    assert np.allclose(sums[interior], 0.0, atol=1e-12)
    assert all(gen.leak_rates[i] == 0.0 for i, flag in enumerate(interior) if flag)


def test_generator_conserves_species_multiset():
    state = ParticleState((0, 1, 2), (2, 1, 2))
    gen = build_generator(state, RateTable((1.0, 1.5, 0.7)), (0, 8))
    for s in gen.states:
        assert sorted(s.species) == [1, 2, 2]


def test_window_too_small_raises():
    with pytest.raises(WindowTooSmall):
        build_generator(ParticleState((0, 5), (1, 2)), RT2, (0, 4))


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=150, deadline=None)
def test_generator_matches_the_reference_bfs(n, data):
    word = tuple(data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))
    start = tuple(sorted(data.draw(st.sets(st.integers(-3, 6), min_size=n, max_size=n))))
    lo = start[0] - data.draw(st.integers(0, 2))
    hi = start[-1] + data.draw(st.integers(0, 5))
    rates = RateTable(tuple(data.draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))))
    initial = ParticleState(start, word)
    gen = build_generator(initial, rates, (lo, hi))
    ref_states, ref_matrix, ref_leak = reference_generator(initial, rates, (lo, hi))
    assert set(gen.states) == set(ref_states) and len(gen.states) == len(ref_states)
    assert len(gen.index) == len(gen.states)
    for k, state in enumerate(gen.states):
        assert gen.index[state] == k and state in gen.index
    perm = np.array([gen.index[s] for s in ref_states])
    permuted = gen.rate_matrix[perm][:, perm]
    assert permuted.nnz == ref_matrix.nnz and (permuted != ref_matrix).nnz == 0
    assert np.array_equal(gen.leak_rates[perm], ref_leak)
    outside = [
        ParticleState(tuple(range(hi + 1 - n + 1, hi + 2)), word),  # rightmost particle past hi
        ParticleState(tuple(range(lo - n, lo)), word),  # left of the window
        ParticleState(start, (n + 1,) * n),  # species outside 1..N
    ]
    for state in outside:
        assert state not in gen.index
        with pytest.raises(KeyError):
            gen.index[state]


def test_state_views_read_the_tables():
    initial = ParticleState((0, 1, 3), (3, 1, 2))
    gen = build_generator(initial, RateTable((1.0, 1.5, 0.7)), (0, 6))
    assert gen.positions.dtype == gen.words.dtype == np.int64
    assert not gen.positions.flags.writeable and not gen.words.flags.writeable
    rows = [(tuple(x), tuple(w)) for x, w in zip(gen.positions.tolist(), gen.words.tolist())]
    assert rows == sorted(rows)  # (positions, species) order
    assert gen.states[-1] == ParticleState(*rows[-1])
    assert gen.states[1:3] == tuple(gen.states)[1:3]
    assert gen.rate_matrix.shape == (len(gen.states), len(gen.states))
    assert gen.index[initial] == rows.index(((0, 1, 3), (3, 1, 2)))
    assert "not a state" not in gen.index
    with pytest.raises(KeyError):
        gen.index[ParticleState((0, 1, 2), (3, 1, 2))]  # in the window's span, not reachable


def test_window_too_wide_for_int64_keys_raises_before_enumeration(monkeypatch):
    def no_states(*args, **kwargs):
        raise AssertionError("window enumerated before the key range was checked")

    monkeypatch.setattr(oracle, "window_states", no_states)
    initial = ParticleState((0, 1, 2, 3), (4, 3, 2, 1))
    rates = RateTable((1.0, 1.2, 0.9, 1.1))
    # (hi - lo + 1)**4 * 4**4 passes 2**63 once hi - lo + 1 exceeds 2**13.75
    with pytest.raises(WindowTooWide, match="int64"):
        build_generator(initial, rates, (0, 2**14))
    with pytest.raises(WindowTooWide):
        build_generator(initial, rates, (-(2**62), 3))
    far = ParticleState((-(2**63) - 2,), (1,))
    with pytest.raises(ValueError, match="int64"):
        build_generator(far, RateTable((1.0,)), (-(2**63) - 3, -(2**63)))
    with pytest.raises(AssertionError, match="enumerated"):  # the patch is live
        build_generator(initial, rates, (0, 2**13))


@pytest.mark.parametrize("window", [(0.7, 5.9), (0, 5.0), (True, 5), (0, np.float64(5))])
def test_window_edges_must_be_integers(window):
    with pytest.raises(TypeError):
        build_generator(ParticleState((1, 2), (2, 1)), RT2, window)


def test_window_edges_accept_numpy_integers():
    state = ParticleState((1, 2), (2, 1))
    gen = build_generator(state, RT2, (np.int64(1), np.int32(5)))
    assert (gen.lo, gen.hi) == (1, 5) and type(gen.hi) is int


BAD_TIMES = [
    (True, TypeError),
    ("0.5", TypeError),
    (0.5j, TypeError),
    (math.nan, ValueError),
    (math.inf, ValueError),
    (-0.1, ValueError),
    (-(10**400), ValueError),
    (10**400, ValueError),
]


@pytest.mark.parametrize("t, error", BAD_TIMES)
def test_oracle_time_checked_at_every_entry_point(monkeypatch, t, error):
    def no_jumps(*args, **kwargs):
        raise AssertionError("a trajectory started")

    monkeypatch.setattr(oracle, "_run_jumps", no_jumps)
    state = ParticleState((0, 1), (2, 1))
    gen = build_generator(state, RT2, (0, 8))
    with pytest.raises(error, match="time"):
        gillespie(state, RT2, t, 1, seed=0)
    with pytest.raises(error, match="time"):
        sample_trajectory(state, RT2, t, seed=0)
    with pytest.raises(error, match="time"):
        matrix_exponential_row(gen, state, t)


def test_expm_row_at_time_zero_is_indicator():
    state = ParticleState((0, 1), (1, 2))
    gen = build_generator(state, RT2, (0, 10))
    probs, leaked = matrix_exponential_row(gen, state, 0.0)
    assert probs[gen.index[state]] == 1.0 and probs.sum() == 1.0 and leaked == 0.0


def test_expm_row_single_particle_is_poisson():
    rt = RateTable((1.3,))
    state = ParticleState((0,), (1,))
    t = 1.2
    gen = build_generator(state, rt, default_window(state, rt, t))
    probs, leaked = matrix_exponential_row(gen, state, t, tol=1e-14)
    for s, p in zip(gen.states, probs):
        k = s.positions[0]
        assert p == pytest.approx(math.exp(-1.3 * t) * (1.3 * t) ** k / math.factorial(k), abs=1e-12)
    assert leaked < 1e-9


def test_expm_row_long_horizon_splits_cleanly():
    # lam*t beyond the underflow threshold of a single Poisson series
    rt = RateTable((2.0,))
    state = ParticleState((0,), (1,))
    t = 300.0
    gen = build_generator(state, rt, default_window(state, rt, t))
    probs, leaked = matrix_exponential_row(gen, state, t, tol=1e-12)
    assert leaked < 1e-9
    mode = int(2.0 * t)
    for k in (mode - 30, mode, mode + 30):
        expected = math.exp(
            -2.0 * t + k * math.log(2.0 * t) - math.lgamma(k + 1)
        )
        assert probs[gen.index[ParticleState((k,), (1,))]] == pytest.approx(
            expected, rel=1e-8, abs=1e-12
        )


def test_expm_row_nonnegative_and_substochastic():
    state = ParticleState((0, 1), (2, 1))
    gen = build_generator(state, RT2, default_window(state, RT2, 1.0))
    probs, leaked = matrix_exponential_row(gen, state, 1.0)
    assert np.all(probs >= 0)
    assert probs.sum() <= 1.0 + 1e-12
    assert abs((1.0 - probs.sum()) - leaked) < 1e-12
    assert leaked < 1e-9  # window sized by the default rule


def test_expm_matches_hand_solved_swap_system():
    # From ((0,1),(2,1)): survive both exits for s, swap at b2, then survive
    # the remaining hop-out at rate b2.  Integrating gives
    # b2 exp(-b2 t)(1 - exp(-b1 t))/b1, solved by hand from the 2-state ODE.
    t = 0.6
    initial = ParticleState((0, 1), (2, 1))
    gen = build_generator(initial, RT2, default_window(initial, RT2, t))
    probs, _ = matrix_exponential_row(gen, initial, t, tol=1e-14)
    exact_swap = B2 * math.exp(-B2 * t) * (1.0 - math.exp(-B1 * t)) / B1
    assert probs[gen.index[ParticleState((0, 1), (1, 2))]] == pytest.approx(exact_swap, abs=1e-11)
    exact_stay = math.exp(-(B1 + B2) * t)
    assert probs[gen.index[initial]] == pytest.approx(exact_stay, abs=1e-11)


def test_gillespie_time_zero_returns_initial():
    initial = ParticleState((0, 1), (1, 2))
    counts = gillespie(initial, RT2, 0.0, 50, seed=1)
    assert counts == {initial: 50}


@pytest.mark.parametrize("n_samples", [True, 2.5, np.float64(3.0)])
def test_gillespie_sample_count_must_be_an_integer(n_samples):
    with pytest.raises(TypeError, match="n_samples"):
        gillespie(ParticleState((0, 1), (2, 1)), RT2, 0.5, n_samples, seed=0)


@pytest.mark.parametrize("seed", [True, 2.5])
def test_seed_must_be_an_integer(seed):
    state = ParticleState((0, 1), (2, 1))
    with pytest.raises(TypeError, match="seed"):
        gillespie(state, RT2, 0.5, 3, seed)
    with pytest.raises(TypeError, match="seed"):
        sample_trajectory(state, RT2, 0.5, seed)


def test_numpy_integer_seed_matches_python_int():
    state = ParticleState((0, 1), (2, 1))
    assert gillespie(state, RT2, 0.5, 50, np.int64(3)) == gillespie(state, RT2, 0.5, 50, 3)
    sample = sample_trajectory(state, RT2, 0.5, np.int64(3))
    assert sample == sample_trajectory(state, RT2, 0.5, 3)
    assert type(sample.seed) is int


def test_gillespie_reproducible_and_seed_sensitive():
    initial = ParticleState((0, 1), (2, 1))
    a = gillespie(initial, RT2, 1.0, 300, seed=42)
    b = gillespie(initial, RT2, 1.0, 300, seed=42)
    c = gillespie(initial, RT2, 1.0, 300, seed=43)
    assert a == b
    assert a != c


def test_gillespie_never_produces_forbidden_word():
    initial = ParticleState((0, 1), (1, 2))
    counts = gillespie(initial, RT2, 1.5, 500, seed=3)
    for state in counts:
        assert state.species == (1, 2)  # ascending pair can never swap


def test_trajectories_never_move_left():
    initial = ParticleState((0, 3, 4), (3, 1, 2))
    rt = RateTable((0.9, 1.4, 1.1))
    for seed in range(100):
        sample = sample_trajectory(initial, rt, 0.8, seed)
        assert all(
            xf >= x0 for xf, x0 in zip(sample.final_state.positions, initial.positions)
        )
        assert sorted(sample.final_state.species) == [1, 2, 3]
        assert sample.jump_count >= sum(
            xf - x0 for xf, x0 in zip(sample.final_state.positions, initial.positions)
        )


def test_gillespie_total_variation_against_expm():
    initial = ParticleState((0, 1), (2, 1))
    t, n = 0.7, 10_000
    counts = gillespie(initial, RT2, t, n, seed=11)
    gen = build_generator(initial, RT2, default_window(initial, RT2, t))
    probs, _ = matrix_exponential_row(gen, initial, t)
    emp = {s: c / n for s, c in counts.items()}
    tv = 0.5 * sum(abs(emp.get(s, 0.0) - p) for s, p in zip(gen.states, probs))
    tv += 0.5 * sum(f for s, f in emp.items() if s not in gen.index)
    assert tv < 0.03  # O(1/sqrt(n)) at n = 1e4


def test_boundary_matrices_match_two_particle_forward_equations():
    # Full pair space, rows/cols 11, 12, 21, 22: the in/out swap currents and
    # per-slot rate diagonals of the adjacent-pair forward equations.
    rt = RateTable((B1, B2))
    block = WordBlock([(1, 1), (1, 2), (2, 1), (2, 2)])
    r1 = hop_rate_diag(block, rt, 1)
    r2 = hop_rate_diag(block, rt, 2)
    gain = swap_gain_matrix(block, rt, 1)
    loss = swap_loss_diag(block, rt, 1)
    assert np.array_equal(r1, np.diag([B1, B1, B2, B2]))
    assert np.array_equal(r2, np.diag([B1, B2, B1, B2]))
    expected_gain = np.zeros((4, 4))
    expected_gain[1, 2] = B2  # row 12 gains from 21 at the jumper's rate
    assert np.array_equal(gain, expected_gain)
    assert np.array_equal(loss, np.diag([0.0, 0.0, B2, 0.0]))


def test_boundary_matrices_on_sector_block():
    sec = build_sector([1, 2])
    rt = RateTable((B1, B2))
    assert np.array_equal(swap_gain_matrix(sec, rt, 1), np.array([[0.0, B2], [0.0, 0.0]]))
    assert np.array_equal(swap_loss_diag(sec, rt, 1), np.diag([0.0, B2]))
