"""The benchmark's three seeded workloads.

Each workload draws its inputs from the seed alone and hands the package only
those inputs.  ``setup`` imports the package, parses the inputs and warms up;
``job`` is the timed unit; ``digest`` shrinks a job's outputs right after it is
timed, so large objects do not pile up and inflate the peak memory of later
jobs; ``reference`` computes the ground truth once, after the timed loop; and
``check`` compares one digest against it, one ``(part, ok, error)`` per output.

The rate rule of ``draw_rates`` keeps the largest rate at 2.0, so the contour
radius, window sizes, sector sizes and node counts are the same for every
seed and only the values change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from hashlib import sha256
from pathlib import Path

import numpy as np

# max_abs_err never reads below this: the oracle's uniformization stops at a
# Poisson tail of 1e-12, so smaller differences are roundoff on both sides.
ERR_FLOOR = 1e-12

# false-alarm rate of the chi-square test of `simulate` against the oracle
SIMULATE_ALPHA = 1e-6


def draw_rates(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """One species at rate 2.0, placed at random; the others uniform in [0.5, 2]."""
    rates = [float(b) for b in rng.uniform(0.5, 2.0, size=n - 1)]
    rates.insert(int(rng.integers(n)), 2.0)
    return tuple(rates)


def descending(n: int) -> dict:
    """Species N..1 at sites 0..N-1."""
    return {"positions": list(range(n)), "species": list(range(n, 0, -1))}


def warm_up(bethe, oracle, initial, rates) -> None:
    """Run the spectral and oracle paths once at a size too small to time."""
    small = bethe.SpectralParams(nodes_per_dim=4, max_nodes=4)
    bethe.transition_matrix(initial, [initial], 0.1, rates, params=small)
    gen = oracle.build_generator(initial, rates, (0, len(initial) + 1))
    oracle.matrix_exponential_row(gen, initial, 0.1)


def fixed_nodes_seconds(bethe, initial, targets, t, rates, m: int, radius=None) -> float:
    """Wall seconds of one transition_matrix call at exactly m nodes per dimension."""
    from time import perf_counter

    params = bethe.SpectralParams(radius=radius, nodes_per_dim=m, max_nodes=m)
    start = perf_counter()
    bethe.transition_matrix(initial, targets, t, rates, params=params)
    return perf_counter() - start


def oracle_row(oracle, initial, rates, t: float) -> dict[tuple, float]:
    """Ground-truth probabilities on the default window, keyed by (positions, species)."""
    gen = oracle.build_generator(initial, rates, oracle.default_window(initial, rates, t))
    row, _ = oracle.matrix_exponential_row(gen, initial, t)
    return {(s.positions, s.species): float(p) for s, p in zip(gen.states, row)}


def read_rows(text: str) -> dict[tuple, dict]:
    """CSV written by `mstasep prob` or `simulate`, keyed by (positions, species)."""
    out = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (
            tuple(int(x) for x in row["positions"].split(";")),
            tuple(int(s) for s in row["species"].split(",")),
        )
        out[key] = row
    return out


def spectral_counts(n: int, dim: int, first_m: int, nodes_used: list[int]) -> dict[str, int]:
    """Work a transition_matrix call did, computed from its node counts.

    Node counts double from ``first_m`` to the largest ``nodes_used``; targets
    with ``nodes_used == 0`` were exact zeros and never reached the grid.
    """
    from mstasep import enumerate_sn
    from mstasep.rmatrix import chain_factors

    quad = [m for m in nodes_used if m > 0]
    ms = [first_m << k for k in range(int(math.log2(max(quad) // first_m)) + 1)] if quad else []
    factors = sum(len(chain_factors(sigma)) for sigma in enumerate_sn(n))
    return {
        "bethe.probes": len(ms),
        "bethe.quad_targets": len(quad),
        "bethe.zero_targets": len(nodes_used) - len(quad),
        "bethe.grid_points": sum(m**n * (math.factorial(n) - 1) for m in ms),
        "bethe.factor_apps": sum(m**n for m in ms) * factors,
        "bethe.column_bytes": max(ms, default=0) ** n * dim * 16,
    }


def chi_square_pvalue(counts: dict[tuple, int], probs: dict[tuple, float], n: int) -> float:
    """Goodness of fit of sample counts to probabilities.

    States expected at least five times get a cell each; the rest, and any
    sampled state outside the oracle window, share one pooled cell.
    """
    from scipy.stats import chi2

    ranked = sorted(probs, key=probs.get, reverse=True)
    cells = []
    for s in ranked:
        if n * probs[s] < 5:
            break
        cells.append([counts.get(s, 0), n * probs[s]])
    rest = [n - sum(c[0] for c in cells), n - sum(c[1] for c in cells)]
    if rest[1] >= 5 or not cells:
        cells.append(rest)
    else:
        cells[-1][0] += rest[0]
        cells[-1][1] += rest[1]
    stat = sum((o - e) ** 2 / e for o, e in cells)
    return float(chi2.sf(stat, len(cells) - 1))


class WindowN3:
    """`mstasep prob` on every window target: N = 3, t = 0.8, default SpectralParams."""

    name = "window-n3"
    t = 0.8
    first_m = 32  # SpectralParams().nodes_per_dim
    tolerance = 1e-8  # SpectralParams().adapt_tol: the accuracy the job asks for
    probe_nodes = (16, 32, 64)  # timed as separate fixed-node calls in a traced run
    job_nodes = None

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.rates = draw_rates(rng, 3)
        self.config = outdir / f"{self.name}-{seed}.json"
        self.out = outdir / f"{self.name}-{seed}.csv"
        job = {"rates": list(self.rates), "initial": descending(3), "time": self.t, "targets": "window"}
        self.config.write_text(json.dumps(job))

    def setup(self) -> None:
        from mstasep import bethe, cli, oracle

        self.cli, self.bethe, self.oracle = cli, bethe, oracle
        self.cfg = cli.parse_config(self.config.read_text())
        self.window = None  # the job's targets, resolved only when a traced run needs them
        warm_up(bethe, oracle, self.cfg.initial, self.cfg.rates)

    def job(self, call):
        return call("cli.main", self.cli.main, ["prob", "--config", str(self.config), "--out", str(self.out)])

    def digest(self, rc):
        # Outputs are bit-reproducible, so each job keeps only a hash and the
        # checks read the last job's file; memory stays flat however many jobs run.
        return rc, sha256(self.out.read_bytes()).hexdigest()

    def counts(self, digest) -> dict:
        rows = read_rows(self.out.read_text())
        return spectral_counts(3, math.factorial(3), self.first_m, [int(r["nodes_used"]) for r in rows.values()])

    def fixed(self, m: int) -> float:
        cfg = self.cfg
        if self.window is None:
            self.window = self.cli.resolve_targets(cfg)
        return fixed_nodes_seconds(self.bethe, cfg.initial, self.window, cfg.time, cfg.rates, m)

    def reference(self):
        return oracle_row(self.oracle, self.cfg.initial, self.cfg.rates, self.t)

    def check(self, digest, ref):
        rc, digest_hash = digest
        text = self.out.read_bytes()
        rows = read_rows(text.decode())
        err = max((abs(float(r["value"]) - ref.get(k, 0.0)) for k, r in rows.items()), default=math.inf)
        same = sha256(text).hexdigest() == digest_hash
        ok = rc == 0 and same and set(ref) <= set(rows) and err <= self.tolerance
        return [("prob", ok, err)]


class GridN4:
    """One transition_matrix call: N = 4, t = 0.25, 8 targets, 16 nodes fixed.

    At the default radius (0.25) the 16-node rule misses the oracle by 2e-6
    to 1e-4 on targets near the start, so the radius is set to 0.135, which
    roughly balances the pole term (r * 2.0)**16 against the exp(t/xi) term
    (t/r)**16 / 16!.  The grid work does not depend on the radius.
    """

    name = "grid-n4"
    t = 0.25
    nodes = 16
    radius = 0.135
    tolerance = 1e-6
    first_m = nodes
    probe_nodes = ()  # one 32-node probe takes about 300 s at N = 4
    job_nodes = nodes  # the job is itself a single 16-node probe

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.rates = draw_rates(rng, 4)
        picks: list[tuple] = []
        while len(picks) < 8:  # sites 0..6 and any word: all near the start
            pick = (
                tuple(int(x) for x in np.sort(rng.choice(7, size=4, replace=False))),
                tuple(int(s) for s in rng.permutation([1, 2, 3, 4])),
            )
            if pick not in picks:
                picks.append(pick)
        self.picks = picks

    def setup(self) -> None:
        from mstasep import ParticleState, RateTable, bethe, oracle

        self.bethe, self.oracle = bethe, oracle
        self.initial = ParticleState(**descending(4))
        self.rate_table = RateTable(self.rates)
        self.target_states = [ParticleState(x, w) for x, w in self.picks]
        self.params = bethe.SpectralParams(radius=self.radius, nodes_per_dim=self.nodes, max_nodes=self.nodes)
        warm_up(bethe, oracle, self.initial, self.rate_table)

    def job(self, call):
        return self.bethe.transition_matrix(
            self.initial, self.target_states, self.t, self.rate_table, params=self.params, threads=1
        )

    def digest(self, results):
        return [(r.value, r.nodes_used) for r in results]

    def counts(self, digest) -> dict:
        return spectral_counts(4, math.factorial(4), self.nodes, [m for _, m in digest])

    def fixed(self, m: int) -> float:
        args = (self.initial, self.target_states, self.t, self.rate_table, m, self.radius)
        return fixed_nodes_seconds(self.bethe, *args)

    def reference(self):
        return oracle_row(self.oracle, self.initial, self.rate_table, self.t)

    def check(self, digest, ref):
        err = max(abs(v - ref.get((s.positions, s.species), 0.0)) for (v, _), s in zip(digest, self.target_states))
        return [("transition_matrix", err <= self.tolerance, err)]


class Crosscheck:
    """Ground-truth and verification traffic; no transition_matrix call.

    One pass is an oracle row (N = 4, t = 0.15), `mstasep simulate` (N = 3,
    t = 0.8, 20,000 samples) and three `mstasep verify` suites.
    """

    name = "crosscheck"
    t_row = 0.15
    t_sim = 0.8
    samples = 20000
    suites = (
        ("yang-baxter", "--trials", "400"),
        ("welldef", "--trials", "400"),
        ("boundary", "--size", "3", "--trials", "500"),
    )
    max_leak = 1e-9
    tolerance = 1e-10  # uniformization against scipy's expm_multiply
    probe_nodes = ()
    job_nodes = None
    fixed = None  # no spectral call to time

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.rates4 = draw_rates(rng, 4)
        self.rates3 = draw_rates(rng, 3)
        self.sim_seed = int(rng.integers(2**31))
        self.verify_seed = int(rng.integers(2**31))
        self.config = outdir / f"{self.name}-{seed}.json"
        self.out = outdir / f"{self.name}-{seed}.csv"
        job = {"rates": list(self.rates3), "initial": descending(3), "time": self.t_sim, "targets": "window"}
        self.config.write_text(json.dumps(job))

    def setup(self) -> None:
        from mstasep import ParticleState, RateTable, bethe, cli, oracle

        self.cli, self.oracle = cli, oracle
        self.cfg = cli.parse_config(self.config.read_text())
        self.initial4 = ParticleState(**descending(4))
        self.rate_table4 = RateTable(self.rates4)
        warm_up(bethe, oracle, self.initial4, self.rate_table4)
        oracle.gillespie(self.cfg.initial, self.cfg.rates, 0.1, 10, 0)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "yang-baxter", "--trials", "1"])

    def row_job(self):
        """The row job; only the generator's matrix outlives it, as it would a process."""
        oracle = self.oracle
        window = oracle.default_window(self.initial4, self.rate_table4, self.t_row)
        gen = oracle.build_generator(self.initial4, self.rate_table4, window)
        row, leak = oracle.matrix_exponential_row(gen, self.initial4, self.t_row)
        return gen.rate_matrix, gen.index[self.initial4], row, leak

    def job(self, call):
        rate_matrix, start, row, leak = self.row_job()
        argv = ["simulate", "--config", str(self.config), "--samples", str(self.samples)]
        rc_sim = call("cli.main", self.cli.main, argv + ["--seed", str(self.sim_seed), "--out", str(self.out)])
        verify = []
        for suite, *extra in self.suites:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                argv = ["verify", suite, *extra, "--seed", str(self.verify_seed)]
                rc = call(f"rmatrix.verify.{suite}", self.cli.main, argv)
            verify.append((suite, rc, buf.getvalue()))
        return rate_matrix, start, row, leak, rc_sim, verify

    def digest(self, out):
        from scipy.sparse.linalg import expm_multiply

        rate_matrix, start, row, leak, rc_sim, verify = out
        unit = np.zeros(rate_matrix.shape[0])
        unit[start] = 1.0
        exact = expm_multiply(self.t_row * rate_matrix.T.tocsr(), unit)
        return {
            "states": rate_matrix.shape[0],
            "nnz": int(rate_matrix.nnz),
            "leak": float(leak),
            "row_sum": float(row.sum()),
            "row_min": float(row.min()),
            "row_err": float(np.abs(row - exact).max()),
            "rc_sim": rc_sim,
            "sim_csv": self.out.read_text(),
            "verify": verify,
        }

    def counts(self, digest) -> dict:
        return {"oracle.states": digest["states"], "oracle.nnz": digest["nnz"], "oracle.leak": digest["leak"]}

    def reference(self):
        return oracle_row(self.oracle, self.cfg.initial, self.cfg.rates, self.t_sim)

    def check(self, digest, ref):
        d = digest
        row_ok = (
            0.0 <= d["leak"] < self.max_leak
            and d["row_min"] >= 0.0
            and abs(d["row_sum"] - (1.0 - d["leak"])) <= 1e-12
            and d["row_err"] <= self.tolerance
        )
        counts = {k: int(r["count"]) for k, r in read_rows(d["sim_csv"]).items()}
        pvalue = chi_square_pvalue(counts, ref, self.samples)
        sim_ok = d["rc_sim"] == 0 and pvalue >= SIMULATE_ALPHA
        items = [("oracle-row", row_ok, d["row_err"]), (f"simulate (chi-square p = {pvalue:.2e})", sim_ok, 0.0)]
        items += [(f"verify {s}", rc == 0 and "PASS" in text, 0.0) for s, rc, text in d["verify"]]
        return items


WORKLOADS = {w.name: w for w in (WindowN3, GridN4, Crosscheck)}
