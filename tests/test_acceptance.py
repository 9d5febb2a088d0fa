"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from helpers import draw_point, draw_rates
from mstasep import (
    ParticleState,
    RateTable,
    SpectralParams,
    build_generator,
    consistency_residuals,
    default_window,
    gillespie,
    matrix_exponential_row,
    transition_matrix,
    transition_probability,
)
from mstasep.bethe import bethe_sum
from mstasep.cli import cmd_prob, parse_config
from mstasep.core import build_sector
from mstasep.oracle import adjacent_rates
from mstasep.rmatrix import all_sectors, build_all_A, product_along_slots


def report(tag, detail):
    print(f"[{tag}] PASS {detail}")


def test_a01_free_particle_exactness():
    start = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        rt = RateTable((beta,))
        params = SpectralParams(adapt_tol=1e-12)
        initial = ParticleState((0,), (1,))
        targets = [ParticleState((x,), (1,)) for x in range(21)]
        for t in (0.1, 1.0, 5.0):
            results = transition_matrix(initial, targets, t, rt, params=params)
            for x, res in enumerate(results):
                exact = math.exp(-beta * t) * (beta * t) ** x / math.factorial(x)
                worst = max(worst, abs(res.value - exact))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    report("A01 free-particle", f"max|err|={worst:.2e} runtime={elapsed:.2f}s")


def test_a02_initial_condition():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_one, worst_rest = 0.0, 0.0
    for n in (2, 3):
        for _ in range(2):
            rt = draw_rates(rng, n)
            nu = tuple(int(v) for v in rng.integers(1, n + 1, size=n))
            initial = ParticleState(tuple(range(n)), nu)
            gen = build_generator(initial, rt, default_window(initial, rt, 0.0))
            results = transition_matrix(initial, list(gen.states), 0.0, rt)
            for state, res in zip(gen.states, results):
                if state == initial:
                    worst_one = max(worst_one, abs(res.value - 1.0))
                else:
                    worst_rest = max(worst_rest, abs(res.value))
    elapsed = time.perf_counter() - start
    assert worst_one < 1e-8 and worst_rest < 1e-8
    assert elapsed < 10.0
    report(
        "A02 initial-condition",
        f"|P-1|={worst_one:.2e} off-diag={worst_rest:.2e} runtime={elapsed:.1f}s",
    )


def test_a03_oracle_agreement_two_particles():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_dev, worst_leak = 0.0, 0.0
    for _ in range(20):
        rt = draw_rates(rng, 2)
        for nu in ((1, 1), (1, 2), (2, 1), (2, 2)):
            initial = ParticleState((0, 1), nu)
            for t in (0.1, 0.5, 1.0):
                gen = build_generator(initial, rt, default_window(initial, rt, t))
                probs, leak = matrix_exponential_row(gen, initial, t)
                results = transition_matrix(initial, list(gen.states), t, rt)
                worst_dev = max(
                    worst_dev, max(abs(r.value - p) for r, p in zip(results, probs))
                )
                worst_leak = max(worst_leak, leak)
    elapsed = time.perf_counter() - start
    assert worst_dev < 1e-6
    assert worst_leak < 1e-9
    assert elapsed < 30.0
    report(
        "A03 oracle-N2",
        f"max|bethe-expm|={worst_dev:.2e} leak={worst_leak:.1e} runtime={elapsed:.1f}s",
    )


def test_a04_oracle_agreement_three_particles():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    params = SpectralParams(nodes_per_dim=32, max_nodes=128)
    worst_dev = 0.0
    for _ in range(5):
        rt = draw_rates(rng, 3)
        for nu in ((1, 2, 3), (3, 2, 1), (2, 1, 2)):
            initial = ParticleState((0, 1, 2), nu)
            for t in (0.2, 0.8):
                gen = build_generator(initial, rt, default_window(initial, rt, t))
                probs, _ = matrix_exponential_row(gen, initial, t)
                results = transition_matrix(initial, list(gen.states), t, rt, params=params)
                worst_dev = max(
                    worst_dev, max(abs(r.value - p) for r, p in zip(results, probs))
                )
    elapsed = time.perf_counter() - start
    assert worst_dev < 1e-6
    assert elapsed < 600.0
    report("A04 oracle-N3", f"max|bethe-expm|={worst_dev:.2e} runtime={elapsed:.0f}s")


def test_a05_yang_baxter_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        rt = draw_rates(rng, 3)
        sp = draw_point(rng, 3, rt)
        worst = max(worst, consistency_residuals(sp, rt, 3)["yang_baxter"])
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    report("A05 yang-baxter", f"max residual={worst:.2e} runtime={elapsed:.2f}s")


def test_a06_inverse_and_commutation_suites():
    rng = np.random.default_rng(606)
    worst_inv, worst_comm = 0.0, 0.0
    for n in (3, 4):
        for _ in range(100):
            rt = draw_rates(rng, n)
            sp = draw_point(rng, n, rt)
            res = consistency_residuals(sp, rt, n)
            worst_inv = max(worst_inv, res["inverse"])
            worst_comm = max(worst_comm, res["commutation"])
    assert worst_inv < 1e-12
    assert worst_comm < 1e-12
    report("A06 inverse/commutation", f"inverse={worst_inv:.2e} commutation={worst_comm:.2e}")


def test_a07_well_definedness():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        rt = draw_rates(rng, 3)
        sp = draw_point(rng, 3, rt)
        for block in all_sectors(3):
            left, im_left = product_along_slots((1, 2, 1), sp, rt, block)
            right, im_right = product_along_slots((2, 1, 2), sp, rt, block)
            assert im_left == im_right == (3, 2, 1)
            worst = max(worst, float(np.max(np.abs(left - right))))
    assert worst < 1e-12
    report("A07 well-definedness", f"max|A(121)-A(212)|={worst:.2e}")


def test_a08_boundary_condition():
    rng = np.random.default_rng(808)
    worst = 0.0
    for n in (2, 3):
        for _ in range(25):
            rt = draw_rates(rng, n)
            sp = draw_point(rng, n, rt)
            sector = build_sector(sorted(rng.integers(1, n + 1, size=n)))
            amps = build_all_A(sp, rt, sector)
            base = [int(v) for v in rng.integers(-3, 4, size=n)]
            for slot in range(1, n):
                x = list(base)
                x[slot] = x[slot - 1] + 1
                merged = list(x)
                merged[slot] = merged[slot - 1]
                hop, stay, gain, partner = adjacent_rates(sector, rt, slot)
                u = bethe_sum(x, sp, rt, sector, amps)
                lhs = hop[:, None] * bethe_sum(merged, sp, rt, sector, amps)
                rhs = stay[:, None] * u + gain[:, None] * u[partner]
                scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
                worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    assert worst < 1e-10
    report("A08 boundary-condition", f"max relative residual={worst:.2e}")


def test_a09_stochasticity():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(3):
        rt = draw_rates(rng, 2)
        nu = tuple(int(v) for v in rng.integers(1, 3, size=2))
        initial = ParticleState((0, 1), nu)
        gen = build_generator(initial, rt, default_window(initial, rt, 1.0))
        results = transition_matrix(initial, list(gen.states), 1.0, rt)
        worst = max(worst, abs(sum(r.value for r in results) - 1.0))
    assert worst < 1e-6
    report("A09 stochasticity", f"max|sum-1|={worst:.2e}")


def test_a10_forbidden_transitions():
    rt = RateTable((1.0, 2.0))
    initial = ParticleState((0, 1), (1, 2))
    worst = 0.0
    for t in (0.3, 1.0):
        for k in (0, 1, 3):
            res = transition_probability(
                initial, ParticleState((k, k + 1), (2, 1)), t, rt
            )
            worst = max(worst, abs(res.value))
    below = transition_probability(initial, ParticleState((-1, 5), (1, 2)), 1.0, rt)
    assert below.value == 0.0 and below.nodes_used == 0
    assert worst < 1e-10
    report("A10 forbidden", f"max|P|={worst:.2e} leftward target exact 0")


def test_a11_monte_carlo_concordance(tmp_path):
    start = time.perf_counter()
    n_samples = 100_000
    rt = RateTable((0.9, 1.6))
    initial = ParticleState((0, 1), (2, 1))
    cfg = parse_config(
        json.dumps(
            {
                "rates": list(rt.rates),
                "initial": {"positions": [0, 1], "species": [2, 1]},
                "time": 1.0,
                "targets": "window",
            }
        )
    )
    out = tmp_path / "probs.csv"
    assert cmd_prob(cfg, out=str(out)) == 0
    computed = {}
    for row in csv.DictReader(out.open()):
        positions = tuple(int(v) for v in row["positions"].split(";"))
        species = tuple(int(v) for v in row["species"].split(","))
        computed[ParticleState(positions, species)] = float(row["value"])
    counts = gillespie(initial, rt, 1.0, n_samples, seed=2026)
    for state in counts:
        assert state in computed, f"sample {state} outside computed window"
    worst_sigma = 0.0
    for state, p in computed.items():
        freq = counts.get(state, 0) / n_samples
        # probabilities are reported unclamped; noise-level negatives clamp
        # to zero for the binomial bound, with matching absolute slack
        p_clamped = min(max(p, 0.0), 1.0)
        bound = 4.0 * math.sqrt(p_clamped * (1.0 - p_clamped) / n_samples) + 1e-9
        assert abs(freq - p) <= bound, (state, freq, p, bound)
        if bound > 1e-9:
            worst_sigma = max(worst_sigma, abs(freq - p) / bound * 4.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        "A11 monte-carlo",
        f"n={n_samples} worst deviation={worst_sigma:.2f} sigma runtime={elapsed:.0f}s",
    )


def test_a12_single_species_reduction():
    rt = RateTable((0.6, 1.1, 1.7))
    initial = ParticleState((0, 1, 2), (1, 2, 3))
    t = 0.5
    gen = build_generator(initial, rt, default_window(initial, rt, t))
    # ascending distinct species never swap: every reachable word is the original
    assert all(s.species == (1, 2, 3) for s in gen.states)
    probs, _ = matrix_exponential_row(gen, initial, t)
    results = transition_matrix(initial, list(gen.states), t, rt)
    dev = max(abs(r.value - p) for r, p in zip(results, probs))
    assert dev < 1e-6
    counts = gillespie(initial, rt, t, 2000, seed=12)
    assert all(state.species == (1, 2, 3) for state in counts)
    report("A12 single-species", f"max|bethe-expm|={dev:.2e} word fixed in all samples")
