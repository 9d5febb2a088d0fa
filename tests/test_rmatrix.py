import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import draw_point, draw_rates, inversions
from mstasep import (
    PoleOnContour,
    RateTable,
    SpectralPoint,
    consistency_residuals,
    enumerate_sn,
)
from mstasep.bethe import bethe_sum
from mstasep.core import WordBlock, build_sector
from mstasep.rmatrix import (
    SlotAction,
    all_sectors,
    amplitudes,
    build_all_A,
    chain_factors,
    product_along_slots,
)


def dense_factor(slot, beta, alpha, sp, rt, block):
    """The factor at ``slot`` as a dense matrix: SlotAction.apply on identity columns."""
    xi = np.asarray(sp)
    eye = np.eye(block.dim, dtype=complex)
    return SlotAction(block, slot, np.asarray(rt)).apply(xi[beta - 1], xi[alpha - 1], eye)


def test_amplitude_S_coincident_points_is_minus_one():
    rt = RateTable((1.3, 0.7))
    assert amplitudes(rt.rate(1), 0.1 + 0.2j, 0.1 + 0.2j)[0] == -1.0


def test_amplitude_S_vanishes_at_inverse_rate():
    rt = RateTable((2.0,))
    assert amplitudes(rt.rate(1), 0.5, 0.1)[0] == 0.0


def test_amplitude_S_direct_value():
    rt = RateTable((1.0, 1.0))
    # -(1 - 0.2)/(1 - 0.1)
    assert amplitudes(rt.rate(1), 0.2, 0.1)[0] == pytest.approx(-0.8 / 0.9, abs=1e-15)


def test_amplitude_T_coincident_points_is_zero():
    rt = RateTable((1.3, 0.7))
    assert amplitudes(rt.rate(2), 0.3j, 0.3j)[1] == 0.0


def test_amplitude_T_direct_value():
    rt = RateTable((1.0, 2.0))
    # 2*(0.2 - 0.1)/(1 - 2*0.1)
    assert amplitudes(rt.rate(2), 0.2, 0.1)[1] == pytest.approx(0.25, abs=1e-15)


def test_amplitudes_raise_on_pole():
    rt = RateTable((2.0,))
    with pytest.raises(PoleOnContour):
        product_along_slots((1,), SpectralPoint((0.5, 0.1)), rt, WordBlock([(1, 1)]))


def test_pole_of_one_trial_in_a_batch_raises():
    # slot 1 from the identity reads xa = xi_1; only the second trial has 1 - 2*xa = 0
    b = np.full((1, 3), 2.0)
    xi = np.array([[0.1, 0.5, 0.2j], [0.3, 0.1, -0.1]])
    with pytest.raises(PoleOnContour, match="species 1"):
        product_along_slots((1,), xi, b, WordBlock([(1, 1)]))
    with pytest.raises(PoleOnContour):
        build_all_A(xi, b, WordBlock([(1, 1)]))
    product_along_slots((1,), xi[:, [0, 2]], b[:, [0, 2]], WordBlock([(1, 1)]))


def test_pole_of_a_species_absent_from_the_block_is_ignored():
    # species 1 has its pole at xa = 0.5, but the block only holds species 2
    rt = RateTable((2.0, 1.0))
    sp = SpectralPoint((0.5, 0.1))
    got, _ = product_along_slots((1,), sp, rt, WordBlock([(2, 2)]))
    assert got[0, 0] == amplitudes(1.0, 0.1, 0.5)[0]
    # a descending pair uses no letter: -1 whatever the poles
    got, _ = product_along_slots((1,), sp, RateTable((1.0, 2.0)), WordBlock([(2, 1)]))
    assert got[0, 0] == -1.0


def test_spectral_point_rejects_zero():
    with pytest.raises(ValueError):
        SpectralPoint((0.1, 0.0))


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.1, float("-inf"))])
def test_spectral_point_rejects_non_finite(bad):
    # a NaN once gave all-zero consistency residuals, since max(0.0, nan) is 0.0
    with pytest.raises(ValueError, match="finite"):
        SpectralPoint((bad, 0.1, 0.2j))


def test_validate_spectral_point_enforces_admissible_disk():
    from helpers import validate_spectral_point

    rt = RateTable((1.0, 2.0))  # admissible radius: min(1, 1/2) = 0.5
    validate_spectral_point(SpectralPoint((0.2j, -0.4)), rt)
    with pytest.raises(ValueError):
        validate_spectral_point(SpectralPoint((0.2j, 0.6)), rt)


def test_build_R_coincident_points_is_minus_identity():
    rt = RateTable((1.0, 2.0))
    sp = SpectralPoint((0.2j, 0.2j))
    block = WordBlock([(1, 1), (1, 2), (2, 1), (2, 2)])
    mat = dense_factor(1, 1, 2, sp, rt, block)
    assert np.allclose(mat, -np.eye(4), atol=1e-15)


def test_build_R_single_species_block():
    rt = RateTable((1.0, 2.0))
    sp = SpectralPoint((0.1, 0.2j))
    mat = dense_factor(1, 2, 1, sp, rt, WordBlock([(2, 2)]))
    assert mat.shape == (1, 1)
    assert mat[0, 0] == amplitudes(rt.rate(2), 0.2j, 0.1)[0]


def test_build_R_mixed_pair_block_structure():
    rt = RateTable((0.8, 1.7))
    sp = SpectralPoint((0.15 + 0.1j, -0.2j))
    xb, xa = sp.xi[1], sp.xi[0]
    mat = dense_factor(1, 2, 1, sp, rt, build_sector([1, 2]))
    expected = np.array(
        [
            list(amplitudes(rt.rate(1), xb, xa)),
            [0.0, -1.0],
        ]
    )
    assert np.allclose(mat, expected, atol=1e-15)


def test_embed_coincident_points_is_minus_identity():
    rt = RateTable((1.0, 0.5, 0.9))
    sp = SpectralPoint((0.1j, 0.1j, 0.1j))
    block = build_sector([1, 2, 3])
    for slot in (1, 2):
        mat = dense_factor(slot, 3, 1, sp, rt, block)
        assert np.allclose(mat, -np.eye(6), atol=1e-15)


def test_embed_exchange_entry_three_particles():
    # slot 2 couples the last two letters: expanding the tensor product by
    # hand, entry ((1,2,3),(1,3,2)) is the exchange amplitude of species 2.
    rt = RateTable((0.6, 1.1, 1.9))
    sp = SpectralPoint((0.1 + 0.05j, -0.12j, 0.08))
    block = build_sector([1, 2, 3])
    mat = dense_factor(2, 1, 3, sp, rt, block)
    r, c = block.index((1, 2, 3)), block.index((1, 3, 2))
    b, xi = np.asarray(rt), np.asarray(sp)  # numpy's complex division, as the factor's
    assert mat[r, c] == amplitudes(b[1], xi[0], xi[2])[1]
    # words differing in the untouched first slot stay uncoupled
    assert mat[r, block.index((2, 1, 3))] == 0.0
    assert mat[r, block.index((3, 1, 2))] == 0.0


def test_A_identity_is_identity():
    rt = RateTable((1.0, 2.0, 0.5))
    rng = np.random.default_rng(3)
    sp = draw_point(rng, 3, rt)
    block = build_sector([1, 2, 3])
    assert enumerate_sn(3)[0].is_identity
    assert np.array_equal(build_all_A(sp, rt, block)[0], np.eye(6))


def test_A_single_swap_two_particles():
    rt = RateTable((1.0, 2.0))
    sp = SpectralPoint((0.05 - 0.1j, 0.2j))
    block = build_sector([1, 2])
    assert enumerate_sn(2)[1].image == (2, 1)
    got = build_all_A(sp, rt, block)[1]
    xb, xa = sp.xi[1], sp.xi[0]  # labels read off the identity: (2, 1)
    expected = np.array(
        [
            list(amplitudes(rt.rate(1), xb, xa)),
            [0.0, -1.0],
        ]
    )
    assert np.allclose(got, expected, atol=1e-15)


def test_A_collapses_to_sign_at_coincident_points():
    rt = RateTable((1.0, 2.0, 0.5))
    sp = SpectralPoint((0.1j, 0.1j, 0.1j))
    block = build_sector([1, 1, 2])
    for elem, got in zip(enumerate_sn(3), build_all_A(sp, rt, block)):
        sign = (-1) ** inversions(elem.image)
        assert np.allclose(got, sign * np.eye(block.dim), atol=1e-14)
        assert sign == elem.parity


def test_A_conserves_species_multiset_on_sector_union():
    # Build the amplitude of the longest element on a block mixing two
    # multisets; the cross blocks must vanish identically.
    rng = np.random.default_rng(11)
    rt = draw_rates(rng, 3)
    sp = draw_point(rng, 3, rt)
    sec_a, sec_b = build_sector([1, 1, 2]), build_sector([1, 2, 2])
    union = WordBlock(sec_a.words + sec_b.words)
    assert enumerate_sn(3)[-1].image == (3, 2, 1)
    mat = build_all_A(sp, rt, union)[-1]
    da = sec_a.dim
    assert np.all(mat[:da, da:] == 0)
    assert np.all(mat[da:, :da] == 0)
    # and the diagonal blocks equal the per-sector builds
    assert np.allclose(mat[:da, :da], build_all_A(sp, rt, sec_a)[-1])
    assert np.allclose(mat[da:, da:], build_all_A(sp, rt, sec_b)[-1])


def test_well_definedness_longest_element_s3():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rt = draw_rates(rng, 3)
        sp = draw_point(rng, 3, rt)
        for block in (build_sector([1, 2, 3]), build_sector([1, 1, 2])):
            left, im_left = product_along_slots((1, 2, 1), sp, rt, block)
            right, im_right = product_along_slots((2, 1, 2), sp, rt, block)
            assert im_left == im_right == (3, 2, 1)
            assert np.max(np.abs(left - right)) < 1e-12


def test_well_definedness_longest_element_s4():
    # two reduced words of the four-letter reversal that differ by more than
    # a single braid move
    rng = np.random.default_rng(6)
    for _ in range(5):
        rt = draw_rates(rng, 4)
        sp = draw_point(rng, 4, rt)
        for multiset in ([1, 2, 3, 4], [1, 1, 2, 3]):
            block = build_sector(multiset)
            left, im_left = product_along_slots((1, 2, 1, 3, 2, 1), sp, rt, block)
            right, im_right = product_along_slots((3, 2, 3, 1, 2, 3), sp, rt, block)
            assert im_left == im_right == (4, 3, 2, 1)
            assert np.max(np.abs(left - right)) < 1e-12


def test_chain_then_reversed_chain_returns_identity():
    # Walking any transposition word followed by its reverse undoes every
    # factor through the inverse relation.
    rng = np.random.default_rng(9)
    rt = draw_rates(rng, 3)
    sp = draw_point(rng, 3, rt)
    block = build_sector([1, 2, 3])
    for word in [(1,), (2,), (1, 2), (2, 1, 1), (1, 2, 1)]:
        full = word + word[::-1]
        mat, image = product_along_slots(full, sp, rt, block)
        assert image == (1, 2, 3)
        assert np.max(np.abs(mat - np.eye(block.dim))) < 1e-12


def test_chain_factors_read_labels_off_predecessor():
    elems = enumerate_sn(3)
    longest = next(e for e in elems if e.image == (3, 2, 1))
    factors = chain_factors(longest)
    assert len(factors) == 3
    # replay the chain: labels must be the pre-swap slot values
    word = [1, 2, 3]
    for slot, beta, alpha in factors:
        assert (alpha, beta) == (word[slot - 1], word[slot])
        word[slot - 1], word[slot] = word[slot], word[slot - 1]
    assert tuple(word) == (3, 2, 1)


@pytest.mark.parametrize("n", [3, 4])
def test_consistency_residuals_random_draws(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        rt = draw_rates(rng, n)
        sp = draw_point(rng, n, rt)
        res = consistency_residuals(sp, rt, n)
        assert res["inverse"] < 1e-12
        assert res["yang_baxter"] < 1e-12
        assert res["commutation"] < 1e-12


def test_consistency_residuals_vanish_at_coincident_points():
    # every factor degenerates to minus the identity, so both sides of each
    # relation agree without cancellation
    rt = RateTable((0.9, 1.4, 1.1))
    sp = SpectralPoint((0.2j, 0.2j, 0.2j))
    res = consistency_residuals(sp, rt, 3)
    assert max(res.values()) == 0.0


def test_consistency_residuals_with_degenerate_rates():
    rng = np.random.default_rng(77)
    rt = RateTable((1.2, 1.2, 1.2))
    sp = draw_point(rng, 3, rt)
    res = consistency_residuals(sp, rt, 3)
    assert max(res.values()) < 1e-12


def test_build_all_A_matches_individual_builds():
    rng = np.random.default_rng(21)
    rt = draw_rates(rng, 3)
    sp = draw_point(rng, 3, rt)
    block = build_sector([1, 2, 2])
    amps = build_all_A(sp, rt, block)
    assert amps.shape == (6, block.dim, block.dim)
    for elem, got in zip(enumerate_sn(3), amps):
        want, image = product_along_slots([slot for slot, _, _ in chain_factors(elem)], sp, rt, block)
        assert image == elem.image
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_inverse_relation_property(seed):
    rng = np.random.default_rng(seed)
    rt = draw_rates(rng, 3, lo=0.2, hi=3.0)
    sp = draw_point(rng, 3, rt)
    block = build_sector(sorted(rng.integers(1, 4, size=3)))
    for slot in (1, 2):
        fwd = dense_factor(slot, 1, 2, sp, rt, block)
        bwd = dense_factor(slot, 2, 1, sp, rt, block)
        assert np.max(np.abs(fwd @ bwd - np.eye(block.dim))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slot_action_matches_dense_factor(n):
    # the factor applied to columns of several points at once is each point's dense factor
    rng = np.random.default_rng(200 + n)
    rt = draw_rates(rng, n)
    points = [draw_point(rng, n, rt) for _ in range(4)]
    for block in all_sectors(n):
        for slot in range(1, n):
            action = SlotAction(block, slot, np.asarray(rt)[:, None])  # one point axis
            for beta, alpha in [(2, 1), (1, 2), (n, 1)]:
                xb = np.repeat([sp.xi[beta - 1] for sp in points], block.dim)
                xa = np.repeat([sp.xi[alpha - 1] for sp in points], block.dim)
                cols = np.tile(np.eye(block.dim, dtype=complex), (len(points), 1))
                got = action.apply(xb, xa, cols.T).T.reshape(len(points), block.dim, block.dim)
                for sp, g in zip(points, got):
                    want = dense_factor(slot, beta, alpha, sp, rt, block).T
                    assert np.all(np.abs(g - want) <= 1e-15 * np.abs(want))
                # in place: ascending rows read their descending partners before those change
                v = np.ascontiguousarray(cols.T)
                assert action.apply(xb, xa, v, out=v) is v
                assert v.T.reshape(got.shape).tobytes() == got.tobytes()


def test_factor_rejects_block_not_closed_under_exchange():
    rt = RateTable((1.0, 2.0, 0.5))
    sp = SpectralPoint((0.1, 0.2j, -0.15))
    with pytest.raises(ValueError, match="closed"):
        product_along_slots((1,), sp, rt, WordBlock([(1, 2)]))
    block = WordBlock([(1, 2, 3), (2, 1, 3)])
    with pytest.raises(ValueError, match="closed"):
        product_along_slots((2,), sp, rt, block)
    with pytest.raises(ValueError, match="closed"):
        SlotAction(block, 2, np.asarray(rt))


@pytest.mark.parametrize("n, apps", [(3, 5), (4, 23)])
def test_build_all_A_applies_one_factor_per_permutation(monkeypatch, n, apps):
    # each permutation's matrix is its predecessor's times one factor
    calls = []
    apply = SlotAction.apply
    monkeypatch.setattr(
        SlotAction, "apply", lambda self, *a, **k: calls.append(1) or apply(self, *a, **k)
    )
    rng = np.random.default_rng(31)
    rt = draw_rates(rng, n)
    amps = build_all_A(draw_point(rng, n, rt), rt, build_sector(range(1, n + 1)))
    assert len(amps) == apps + 1
    assert len(calls) == apps


@pytest.mark.parametrize("n", [3, 4])
def test_batch_matches_loop_over_the_same_draws(n):
    rng = np.random.default_rng(300 + n)
    rates = [draw_rates(rng, n) for _ in range(5)]
    points = [draw_point(rng, n, rt) for rt in rates]
    xi = np.stack([np.asarray(sp) for sp in points], axis=-1)  # (n, trials)
    b = np.stack([np.asarray(rt) for rt in rates], axis=-1)
    block = build_sector([1, 2, 2, 3][:n] if n == 4 else [1, 2, 3])
    word = (1, 2, 1, 3, 2, 1)[: 3 if n == 3 else 6]
    batch, image = product_along_slots(word, xi, b, block)
    assert batch.shape == (block.dim, block.dim, len(points))
    all_batch = build_all_A(xi, b, block)
    for k, (sp, rt) in enumerate(zip(points, rates)):
        one, one_image = product_along_slots(word, sp, rt, block)
        assert one_image == image
        assert np.all(np.abs(batch[..., k] - one) <= 1e-14 * np.abs(one))
        mats = build_all_A(sp, rt, block)
        assert np.all(np.abs(all_batch[..., k] - mats) <= 1e-14 * np.abs(mats))
    # the Bethe sum's bits do not depend on the batch an entry sits in, at any positions
    for x in rng.integers(-3, 4, size=(8, n, len(points))):
        waves = bethe_sum(x, xi, b, block, all_batch)
        for k, (sp, rt) in enumerate(zip(points, rates)):
            one = bethe_sum(x[:, k], sp, rt, block, all_batch[..., k])
            assert one.tobytes() == waves[..., k].tobytes()
    res = consistency_residuals(xi, b, n)
    assert res == {
        name: max(consistency_residuals(sp, rt, n)[name] for sp, rt in zip(points, rates))
        for name in res
    }
