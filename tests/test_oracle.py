import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chi_square_pvalue, reference_generator
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
from mstasep.oracle import hop_rate_diag, swap_gain_matrix, swap_loss_diag

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


def test_generator_bits_match_the_reference_on_n4_descending_window():
    initial = ParticleState((0, 1, 2, 3), (4, 3, 2, 1))
    rates = RateTable((1.0, 0.7, 1.9, 2.0))
    window = default_window(initial, rates, 0.15)
    gen = build_generator(initial, rates, window)
    ref_states, ref_matrix, ref_leak = reference_generator(initial, rates, window)
    row = {s: k for k, s in enumerate(ref_states)}
    order = np.array([row[s] for s in gen.states])
    ref = ref_matrix[order][:, order].tocsr()
    ref.sort_indices()
    q = gen.rate_matrix
    assert q.has_sorted_indices and len(order) == len(ref_states)
    assert q.data.tobytes() == ref.data.tobytes()
    assert np.array_equal(q.indices, ref.indices) and np.array_equal(q.indptr, ref.indptr)
    assert gen.leak_rates.tobytes() == ref_leak[order].tobytes()


@pytest.mark.parametrize(
    "start, word, rates, window",
    [
        ((0, 1, 9), (3, 2, 1), (1.0, 1.5, 0.7), (0, 12)),  # a gap of 7 sites
        ((0, 1, 6), (2, 3, 1), (0.6, 1.5, 1.1), (-2, 9)),
        ((0, 1, 2, 3, 4), (5, 4, 3, 2, 1), (1.0, 1.25, 1.5, 1.75, 2.0), (0, 6)),
        ((0, 1, 2, 4, 5), (3, 1, 5, 2, 4), (1.3, 0.6, 2.0, 1.1, 0.8), (0, 7)),
    ],
)
def test_generator_csr_matches_the_reference_bit_for_bit(start, word, rates, window):
    initial, rates = ParticleState(start, word), RateTable(rates)
    gen = build_generator(initial, rates, window)
    ref_states, ref_matrix, ref_leak = reference_generator(initial, rates, window)
    row = {s: k for k, s in enumerate(ref_states)}
    order = np.array([row[s] for s in gen.states])
    ref = ref_matrix[order][:, order].tocsr()
    ref.sort_indices()
    q = gen.rate_matrix
    assert q.has_sorted_indices and len(order) == len(ref_states)
    assert q.data.tobytes() == ref.data.tobytes()
    assert q.indices.dtype == ref.indices.dtype and q.indptr.dtype == ref.indptr.dtype
    assert np.array_equal(q.indices, ref.indices) and np.array_equal(q.indptr, ref.indptr)
    assert gen.leak_rates.tobytes() == ref_leak[order].tobytes()


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

    monkeypatch.setattr(oracle, "window_grid", no_states)
    initial = ParticleState((0, 1, 2, 3), (4, 3, 2, 1))
    rates = RateTable((1.0, 1.2, 0.9, 1.1))
    # (hi - lo + 1)**4 * 4**4 passes 2**63 once hi - lo + 1 exceeds 2**13.75
    with pytest.raises(WindowTooWide, match="int64"):
        build_generator(initial, rates, (0, 2**14))
    far = ParticleState((-(2**63) - 2,), (1,))
    with pytest.raises(ValueError, match="int64"):
        build_generator(far, RateTable((1.0,)), (-(2**63) - 3, -(2**63)))
    with pytest.raises(AssertionError, match="enumerated"):  # the patch is live
        build_generator(initial, rates, (0, 2**13))


def test_far_left_window_edge_builds_the_start_edge_window():
    # no reachable state lies left of the start's leftmost site, so the keys count sites from there:
    # a far-left edge gives the tables and the index of lo = y_1, and still rejects a state left of y_1
    initial, rates = ParticleState((0, 1), (2, 1)), RateTable((1.0, 2.0))
    near = build_generator(initial, rates, (0, 6))
    for lo in (-5, -(2**40), -(2**62)):
        far = build_generator(initial, rates, (lo, 6))
        assert far.lo == lo and far.hi == near.hi == 6
        assert np.array_equal(far.positions, near.positions) and np.array_equal(far.words, near.words)
        assert (far.rate_matrix != near.rate_matrix).nnz == 0
        assert np.array_equal(far.leak_rates, near.leak_rates)
        assert [far.index[s] for s in near.states] == list(range(len(near.states)))
        with pytest.raises(KeyError):
            far.index[ParticleState((-1, 1), (2, 1))]


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

    monkeypatch.setattr(oracle, "_advance", no_jumps)
    state = ParticleState((0, 1), (2, 1))
    gen = build_generator(state, RT2, (0, 8))
    with pytest.raises(error, match="time"):
        gillespie(state, RT2, t, 1, seed=0)
    with pytest.raises(error, match="time"):
        matrix_exponential_row(gen, state, t)


@pytest.mark.parametrize(
    "tol, error", [(0.0, ValueError), (math.nan, ValueError), (math.inf, ValueError), (True, TypeError)]
)
def test_expm_row_rejects_a_bad_tol(tol, error):
    state = ParticleState((0, 1), (2, 1))
    gen = build_generator(state, RateTable((1.0, 2.0)), (0, 8))
    with pytest.raises(error, match="tol"):
        matrix_exponential_row(gen, state, 0.5, tol=tol)


def test_expm_row_below_the_roundoff_floor_terminates():
    # the tail estimate stalls near 1e-16; the series ends once the Poisson weight underflows
    state = ParticleState((0, 1), (2, 1))
    gen = build_generator(state, RateTable((1.0, 2.0)), (0, 8))
    probs, leaked = matrix_exponential_row(gen, state, 0.5, tol=1e-17)
    default, default_leaked = matrix_exponential_row(gen, state, 0.5)
    assert np.allclose(probs, default, rtol=0, atol=1e-12)
    assert abs(leaked - default_leaked) < 1e-12


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


def test_numpy_integer_seed_matches_python_int():
    state = ParticleState((0, 1), (2, 1))
    assert gillespie(state, RT2, 0.5, 50, np.int64(3)) == gillespie(state, RT2, 0.5, 50, 3)


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
    counts = gillespie(initial, rt, 0.8, 2000, seed=0)
    assert sum(counts.values()) == 2000
    for state in counts:
        assert all(xf >= x0 for xf, x0 in zip(state.positions, initial.positions))
        assert all(a < b for a, b in zip(state.positions, state.positions[1:]))
        assert sorted(state.species) == [1, 2, 3]


def _expm_probs(initial, rates, t):
    gen = build_generator(initial, rates, default_window(initial, rates, t))
    probs, _ = matrix_exponential_row(gen, initial, t)
    return dict(zip(gen.states, probs))


@pytest.mark.parametrize(
    "start, word",
    [((0, 1, 2), (3, 2, 1)), ((0, 1, 5), (3, 1, 2))],  # swaps from the start; a gap
)
def test_gillespie_chi_square_against_expm(start, word):
    initial, rt, t, n = ParticleState(start, word), RateTable((2.0, 1.3, 0.7)), 0.8, 20_000
    counts = gillespie(initial, rt, t, n, seed=1)
    assert chi_square_pvalue(counts, _expm_probs(initial, rt, t), n) > 1e-6


def test_gillespie_runs_past_one_chunk(monkeypatch):
    initial, rt, t, n = ParticleState((0, 1, 2), (3, 2, 1)), RateTable((2.0, 1.3, 0.7)), 0.8, 5000
    # 700 samples a chunk: seven full chunks and one of 100
    monkeypatch.setattr(oracle, "_STEP_BUDGET_BYTES", 64 * 4 * 700)
    chunks = []
    advance = oracle._advance
    monkeypatch.setattr(oracle, "_advance", lambda x, *rest: chunks.append(len(x)) or advance(x, *rest))
    counts = gillespie(initial, rt, t, n, seed=2)
    assert chunks == [700] * 7 + [100]
    assert sum(counts.values()) == n
    assert chi_square_pvalue(counts, _expm_probs(initial, rt, t), n) > 1e-6


@pytest.mark.parametrize(
    "start, word, rates",
    [
        ((3,), (1,), (1.4,)),
        ((0, 1), (2, 1), (0.8, 1.7)),
        ((0, 1, 5), (3, 1, 2), (2.0, 1.3, 0.7)),
        ((0, 1, 2, 3), (4, 3, 2, 1), (1.0, 0.7, 1.9, 2.0)),
    ],
)
def test_gillespie_counts_every_row_the_stepper_finishes(monkeypatch, start, word, rates):
    n = len(start)
    monkeypatch.setattr(oracle, "_STEP_BUDGET_BYTES", 64 * (n + 1) * 300)  # 300 samples a chunk
    finished = Counter()
    advance = oracle._advance

    def counted(*args):
        for block in advance(*args):
            finished.update((tuple(r[:n]), tuple(r[n:])) for r in block.tolist())
            yield block

    monkeypatch.setattr(oracle, "_advance", counted)
    counts = gillespie(ParticleState(start, word), RateTable(rates), 0.9, 1000, seed=5)
    assert {(s.positions, s.species): c for s, c in counts.items()} == finished
    assert list(counts) == sorted(counts, key=lambda s: (s.positions, s.species))
    assert sum(finished.values()) == 1000 and len(finished) > 1


def test_gillespie_memory_stays_in_the_step_budget(monkeypatch):
    # 20,000 samples a chunk, three chunks; one chunk of 60,000 would peak near 11 MB
    budget = 64 * 4 * 20_000
    monkeypatch.setattr(oracle, "_STEP_BUDGET_BYTES", budget)
    tracemalloc.start()
    try:
        gillespie(ParticleState((0, 1, 2), (3, 2, 1)), RateTable((2.0, 1.3, 0.7)), 0.8, 60_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_gillespie_hop_past_int64_raises():
    initial = ParticleState((2**63 - 2, 2**63 - 1), (2, 1))
    with pytest.raises(ValueError, match="int64"):
        gillespie(initial, RT2, 5.0, 10, seed=0)
    assert gillespie(initial, RT2, 0.0, 10, seed=0) == {initial: 10}


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
