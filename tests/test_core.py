import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstasep import (
    NonIncreasingPositions,
    ParticleState,
    RateTable,
    SpeciesOutOfRange,
    default_window,
    enumerate_sn,
)
from helpers import inversions, reference_generator, reference_window_states, sector_size
from mstasep.core import WordBlock, build_sector, validate_state, window_states, word_floors


def test_rate_table_rejects_nonpositive():
    with pytest.raises(ValueError):
        RateTable((1.0, 0.0))
    with pytest.raises(ValueError):
        RateTable((-0.5,))
    with pytest.raises(ValueError):
        RateTable(())


def test_rate_table_rejects_coerced_values_keeps_numpy_scalars():
    for bad in ((True, 2.0), ("1", 2.0)):
        with pytest.raises(TypeError):
            RateTable(bad)
    for bad in ((float("inf"), 2.0), (float("nan"), 2.0), (10**400, 2.0)):
        with pytest.raises(ValueError):
            RateTable(bad)
    rt = RateTable((np.int64(1), np.float32(0.5), np.float64(2.0)))
    assert rt.rates == (1.0, 0.5, 2.0) and all(type(b) is float for b in rt.rates)


def test_rate_table_lookup_is_one_based():
    rt = RateTable((0.5, 2.0))
    assert rt.rate(1) == 0.5
    assert rt.rate(2) == 2.0
    assert rt.n_species == 2


def test_validate_state_accepts_valid():
    rt = RateTable((1.0, 1.0))
    validate_state(ParticleState((0, 1), (1, 2)), rt)


def test_validate_state_rejects_equal_positions():
    rt = RateTable((1.0, 1.0))
    with pytest.raises(NonIncreasingPositions):
        validate_state(ParticleState((1, 1), (1, 2)), rt)


def test_validate_state_rejects_species_out_of_range():
    rt = RateTable((1.0, 1.0))
    with pytest.raises(SpeciesOutOfRange):
        validate_state(ParticleState((0, 5), (3, 1)), rt)


def test_state_length_mismatch_rejected_at_construction():
    with pytest.raises(ValueError):
        ParticleState((0, 1, 2), (1, 2))


def test_state_rejects_non_integer_labels():
    with pytest.raises(TypeError):
        ParticleState((0.9, 1), (1, 2))
    with pytest.raises(TypeError):
        ParticleState((0, 1), ("2", 1))
    state = ParticleState(np.arange(2), (np.int64(2), 1))
    assert state == ParticleState((0, 1), (2, 1))
    assert all(type(v) is int for v in state.positions + state.species)


def test_state_rejects_bools():
    # once read as positions (0, 1) with species (1, 2)
    with pytest.raises(TypeError, match="position"):
        ParticleState((False, True), (1, 2))
    with pytest.raises(TypeError, match="species"):
        ParticleState((0, 1), (True, 2))


@pytest.mark.parametrize("t, error", [(math.nan, ValueError), (-1, ValueError), (True, TypeError)])
def test_default_window_checks_the_time(t, error):
    with pytest.raises(error, match="time"):
        default_window(ParticleState((0, 1), (2, 1)), RateTable((1.0, 2.0)), t)


def test_build_sector_two_species():
    sec = build_sector([1, 2])
    assert sec.words == ((1, 2), (2, 1))
    assert sec.dim == 2
    assert sec.index((2, 1)) == 1


def test_build_sector_single_word():
    sec = build_sector([1, 1])
    assert sec.words == ((1, 1),)
    assert sec.dim == 1


def test_build_sector_full_symmetric_group_lex_order():
    sec = build_sector([1, 2, 3])
    assert sec.words == (
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    )


def test_build_sector_rejects_bad_labels():
    with pytest.raises(SpeciesOutOfRange):
        build_sector([1, 4])  # label 4 in a 2-particle system


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sector_sizes_partition_full_space(n):
    total = sum(
        sector_size(ms) for ms in itertools.combinations_with_replacement(range(1, n + 1), n)
    )
    assert total == n**n


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_sector_invariants(n, data):
    multiset = sorted(data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))
    sec = build_sector(multiset)
    assert sec.dim == sector_size(multiset)
    assert list(sec.words) == sorted(sec.words)
    for w in sec.words:
        assert sorted(w) == multiset
    assert len(set(sec.words)) == sec.dim


def swap_table_blocks():
    sectors = [
        build_sector(ms)
        for n in range(1, 7)
        for ms in itertools.combinations_with_replacement(range(1, n + 1), n)
    ]
    union = WordBlock(build_sector([1, 1, 2]).words + build_sector([1, 2, 2]).words)
    return sectors + [union, WordBlock([(1, 1), (1, 2), (2, 1), (2, 2)])]


def test_swap_table_matches_swapping_each_word():
    # every sector with N <= 6, a union of two sectors (its words out of lexicographic order) and the
    # 4-word pair block: swaps[s, r] is the row of word r with slots (s, s + 1) exchanged, -1 if absent
    for block in swap_table_blocks():
        n = block.word_length
        assert block.letters.dtype == block.swaps.dtype == np.int64
        assert not block.letters.flags.writeable and not block.swaps.flags.writeable
        assert block.letters.tolist() == [list(w) for w in block.words]
        want = [[-1] * block.dim]
        for s in range(1, n):
            swapped = [w[: s - 1] + (w[s], w[s - 1]) + w[s + 1 :] for w in block.words]
            want.append([block.lookup.get(w, -1) for w in swapped])
        assert block.swaps.tolist() == want, block.words


def test_swap_table_marks_words_a_block_lacks():
    block = WordBlock([(1, 2, 3), (2, 1, 3)])  # built: only a slot's first use checks closure
    assert block.swaps.tolist() == [[-1, -1], [1, 0], [-1, -1]]


@pytest.mark.parametrize("words", [[(0, 1), (1, 0)], [(2**32, 1), (1, 2**32)]])
def test_swap_table_rejects_words_it_cannot_code(words):
    # a letter 0 would share its code with another word, and letters of 2**32 pass int64 at length 2
    with pytest.raises(ValueError, match="cannot code words"):
        WordBlock(words)


def test_enumerate_sn_is_built_once_per_n():
    # the kernel, build_all_A and bethe_sum share one immutable enumeration
    assert isinstance(enumerate_sn(4), tuple)
    assert enumerate_sn(4) is enumerate_sn(4)


def test_enumerate_sn_trivial():
    elems = enumerate_sn(1)
    assert len(elems) == 1 and elems[0].image == (1,) and elems[0].is_identity


def test_enumerate_sn_two():
    elems = enumerate_sn(2)
    assert [e.image for e in elems] == [(1, 2), (2, 1)]
    swap = elems[1]
    assert swap.slot == 1 and swap.pred.image == (1, 2) and swap.parity == -1


def test_enumerate_sn_three_longest_element_depth():
    elems = enumerate_sn(3)
    assert len(elems) == 6
    longest = next(e for e in elems if e.image == (3, 2, 1))
    assert len(longest.chain()) - 1 == 3  # n(n-1)/2 inversions


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_sn_chains_reconstruct_elements(n):
    elems = enumerate_sn(n)
    assert len(elems) == math.factorial(n)
    for elem in elems:
        word = list(range(1, n + 1))
        depth = 0
        for step in elem.chain():
            if step.is_identity:
                continue
            left = word[step.slot - 1]
            right = word[step.slot]
            assert left < right  # each link raises the inversion count by one
            word[step.slot - 1], word[step.slot] = right, left
            depth += 1
        assert tuple(word) == elem.image
        assert depth == inversions(elem.image)
        assert elem.parity == (-1) ** depth


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_sn_lists_one_inversion_level_after_another(n):
    # the term walk builds one level at a time: the tuple is sorted by inversion count, every element's
    # predecessor lies in the level before, and a level lists its elements in their predecessors' order
    elems = enumerate_sn(n)
    at = {elem.image: k for k, elem in enumerate(elems)}
    level = [inversions(elem.image) for elem in elems]
    parent = [at[elem.pred.image] for elem in elems[1:]]
    assert level == sorted(level) and level[-1] == n * (n - 1) // 2
    assert all(level[p] == level[k] - 1 for k, p in enumerate(parent, 1))
    assert parent == sorted(parent)


def _path_floors(initial):
    """The floor each swap path from the start reaches, grouped by the word it ends on."""
    floors = {}
    stack = [(initial.species, initial.positions)]
    while stack:
        w, z = stack.pop()
        floors.setdefault(w, set()).add(z)
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                stack.append((swapped, z[:i] + (max(z[i], z[i + 1] - 1),) + z[i + 1 :]))
    return floors


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=200, deadline=None)
def test_window_states_match_the_generator(n, data):
    word = tuple(data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))
    start = tuple(sorted(data.draw(st.sets(st.integers(-3, 6), min_size=n, max_size=n))))
    hi = start[-1] + data.draw(st.integers(0, 5))
    initial = ParticleState(start, word)
    positions, words = window_states(initial, hi)
    assert positions.dtype == words.dtype == np.int64 and positions.shape == words.shape
    rows = [tuple(x) + tuple(w) for x, w in zip(positions.tolist(), words.tolist())]
    assert rows == sorted(set(rows))  # sorted by (positions, species), no duplicates
    states, _, _ = reference_generator(initial, RateTable((1.0,) * n), (start[0], hi))
    assert {(r[:n], r[n:]) for r in rows} == {(s.positions, s.species) for s in states}
    # every path to a word reaches one floor, the one the enumerator uses
    paths = _path_floors(initial)
    floors = word_floors(initial)
    assert set(paths) == set(floors)
    for w, found in paths.items():
        lowest = tuple(min(z[i] for z in found) for i in range(n))
        assert lowest in found and floors[w] == lowest


def test_window_states_of_the_descending_three_species_start():
    positions, words = window_states(ParticleState((0, 1, 2), (3, 2, 1)), 27)
    assert len(positions) == len(words) == 19656
    assert len(word_floors(ParticleState((0, 1, 2), (3, 2, 1)))) == 6


@pytest.mark.parametrize(
    "start, word, hi",
    [
        ((0, 1, 64), (3, 2, 1), 72),
        ((0, 1, 64), (1, 3, 2), 70),
        ((0, 1, 2, 3, 4), (5, 4, 3, 2, 1), 12),
        ((0, 2, 3, 7, 8), (2, 5, 1, 4, 3), 12),
    ],
)
def test_window_states_match_the_block_enumeration(start, word, hi):
    # a gap of 62 sites and N = 5, beyond what the hypothesis draws reach
    positions, words = window_states(ParticleState(start, word), hi)
    ref_positions, ref_words = reference_window_states(ParticleState(start, word), hi)
    assert positions.dtype == words.dtype == np.int64
    assert np.array_equal(positions, ref_positions) and np.array_equal(words, ref_words)


def test_window_states_edge_past_int64_rejected():
    start = ParticleState((2**63 - 3, 2**63 - 2), (2, 1))
    with pytest.raises(ValueError, match="int64"):
        window_states(start, 2**63 + 40)
