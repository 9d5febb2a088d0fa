"""Command-line surface: batch probabilities, verification suites, simulation.

Job configuration lives in a single JSON file; unknown keys anywhere are
rejected so typos surface immediately.  Probabilities are printed with 17
significant digits so output files can be compared across implementations.

``prob`` holds its targets as (T, N) int64 position and word arrays from
start to finish: explicit targets in config order, or the ``"window"``
states listed directly by :func:`core.window_states`, never through the
Markov-chain oracle.  It hands them to :func:`bethe.transition_arrays` and
writes the rows from the returned columns.

Exit codes: 0 success or pass, 1 verification failure, 2 configuration
error (also an output path that cannot be written; a particle count,
contour radius or time the spectral route rejects, ``prob`` checking these
before enumerating a window; a target so far from the start that the
spectral route overflows; ``--threads`` below 1; ``--samples`` below 1; a
negative ``--seed`` for ``simulate`` or ``verify``; a ``verify`` run with
``--trials`` below 1 or a ``--size`` outside its suite's range: yang-baxter
and welldef 3 to 6, oracle 2 to 3, stochastic 1 to 4, boundary 2 to 5), 3
quadrature failed to converge.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import bethe, oracle
from .core import (
    ParticleState,
    RateTable,
    build_sector,
    check_table,
    check_time,
    default_window,
    state_arrays,
    validate_state,
    window_states,
)
from .rmatrix import (
    SpectralPoint,
    all_sectors,
    build_all_A,
    contour_bound,
    product_along_slots,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3

SUITE_TOLERANCES = {
    "yang-baxter": 1e-12,
    "welldef": 1e-12,
    "oracle": 1e-6,
    "stochastic": 1e-6,
    "boundary": 1e-10,
}


class ConfigError(ValueError):
    """The job configuration is malformed."""


@dataclass(frozen=True)
class JobConfig:
    rates: RateTable
    initial: ParticleState
    time: float
    targets: tuple[ParticleState, ...] | str  # explicit states or "window"
    spectral: bethe.SpectralParams
    output_format: Optional[str] = None
    output_path: Optional[str] = None


def _require_keys(mapping: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(mapping)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _parse_state(obj, where: str) -> ParticleState:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object with positions and species")
    _require_keys(obj, {"positions", "species"}, {"positions", "species"}, where)
    try:
        return ParticleState(tuple(obj["positions"]), tuple(obj["species"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad state in {where}: {exc}") from exc


def parse_config(text: str) -> JobConfig:
    """Parse and validate a JSON job configuration."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    _require_keys(
        data,
        {"rates", "initial", "time", "targets", "spectral", "output"},
        {"rates", "initial", "time", "targets"},
        "config",
    )
    try:
        rates = RateTable(tuple(data["rates"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad rates: {exc}") from exc
    initial = _parse_state(data["initial"], "initial")
    try:
        validate_state(initial, rates)
    except ValueError as exc:
        raise ConfigError(f"bad state in initial: {exc}") from exc
    time = data["time"]
    try:
        check_time(time)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    raw_targets = data["targets"]
    targets: tuple[ParticleState, ...] | str
    if raw_targets == "window":
        targets = "window"
    elif isinstance(raw_targets, list):
        targets = tuple(_parse_state(tg, f"targets[{i}]") for i, tg in enumerate(raw_targets))
        try:
            check_table(*state_arrays(targets, rates.n_species), rates.n_species)
        except ValueError as exc:
            raise ConfigError(f"bad targets: {exc}") from exc
    else:
        raise ConfigError('targets must be "window" or a list of states')
    spectral_obj = data.get("spectral", {})
    if not isinstance(spectral_obj, dict):
        raise ConfigError("spectral must be an object")
    _require_keys(
        spectral_obj, {"radius", "nodes_per_dim", "adapt_tol", "max_nodes"}, set(), "spectral"
    )
    try:
        spectral = bethe.SpectralParams(**spectral_obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad spectral parameters: {exc}") from exc
    out_fmt = out_path = None
    if "output" in data:
        out_obj = data["output"]
        if not isinstance(out_obj, dict):
            raise ConfigError("output must be an object")
        _require_keys(out_obj, {"format", "path"}, set(), "output")
        out_fmt = out_obj.get("format")
        if out_fmt is not None and out_fmt not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {out_fmt!r}")
        out_path = out_obj.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError(f"output path must be a string, got {out_path!r}")
        if out_path == "":
            raise ConfigError("output path must not be empty; use '-' for standard output")
    return JobConfig(
        rates=rates,
        initial=initial,
        time=float(time),
        targets=targets,
        spectral=spectral,
        output_format=out_fmt,
        output_path=out_path,
    )


def canonical_config(cfg: JobConfig) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline.

    Parsing the output and serializing again reproduces it byte for byte.
    """
    data: dict = {
        "rates": list(cfg.rates.rates),
        "initial": {
            "positions": list(cfg.initial.positions),
            "species": list(cfg.initial.species),
        },
        "time": cfg.time,
        "targets": "window"
        if cfg.targets == "window"
        else [
            {"positions": list(tg.positions), "species": list(tg.species)} for tg in cfg.targets
        ],
        "spectral": asdict(cfg.spectral),
    }
    if cfg.output_format is not None or cfg.output_path is not None:
        out: dict = {}
        if cfg.output_format is not None:
            out["format"] = cfg.output_format
        if cfg.output_path is not None:
            out["path"] = cfg.output_path
        data["output"] = out
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def target_arrays(cfg: JobConfig) -> tuple[np.ndarray, np.ndarray]:
    """(T, N) int64 positions and words of the job's targets.

    Explicit targets keep their config order.  ``"window"`` lists every state
    reachable from the start inside the default window, sorted by (positions,
    species); the window's right edge past int64 raises ValueError.
    """
    if isinstance(cfg.targets, tuple):
        return state_arrays(cfg.targets, len(cfg.initial))
    _, hi = default_window(cfg.initial, cfg.rates, cfg.time)
    return window_states(cfg.initial, hi)


def resolve_targets(cfg: JobConfig) -> list[ParticleState]:
    """The job's targets as states: a list wrapper over :func:`target_arrays`."""
    positions, words = target_arrays(cfg)
    return [ParticleState(x, w) for x, w in zip(positions.tolist(), words.tolist())]


def _joined(table: np.ndarray, sep: str) -> list[str]:
    """Each row's integers joined by ``sep``."""
    fmt = sep.join(["%d"] * table.shape[1])
    return [fmt % row for row in map(tuple, table.tolist())]


def _write_columns(
    positions: np.ndarray, words: np.ndarray, columns: dict[str, np.ndarray], fmt: str, path: str
) -> None:
    """One row per state: its positions and species, then ``columns`` in order.

    CSV prints floats with 17 significant digits; JSON writes a list of objects.
    A path that cannot be written raises ConfigError.
    """
    keys = ["positions", "species", *columns]
    cells = [_joined(positions, ";"), _joined(words, ",")]
    if fmt == "json":
        cells += [col.tolist() for col in columns.values()]
        text = json.dumps([dict(zip(keys, row)) for row in zip(*cells)], indent=2) + "\n"
    else:
        cells += [
            [f"{v:.17g}" for v in col.tolist()] if col.dtype.kind == "f" else col.tolist()
            for col in columns.values()
        ]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        writer.writerows(zip(*cells))
        text = buf.getvalue()
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def _output_path(out: Optional[str], cfg: JobConfig) -> str:
    """``--out``, else the config's output path, else standard output."""
    return next(p for p in (out, cfg.output_path, "-") if p is not None)


def cmd_prob(cfg: JobConfig, out: Optional[str] = None, fmt: Optional[str] = None, threads: int = 1) -> int:
    """Compute one row per target and write them in target order.

    Explicit targets keep their config order; window targets are sorted by
    (positions, species), as ``simulate`` sorts its rows.
    """
    try:  # the spectral guards, then the targets: no window is enumerated for a rejected job
        bethe.transition_matrix(
            cfg.initial, [], cfg.time, cfg.rates, params=cfg.spectral, threads=threads
        )
        positions, words = target_arrays(cfg)
        value, _, est_error, nodes_used = bethe.transition_arrays(
            cfg.initial, positions, words, cfg.time, cfg.rates, params=cfg.spectral, threads=threads
        )
    except (ValueError, bethe.OverflowRisk) as exc:  # also a target far from the start
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except bethe.NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    columns = {"value": value, "est_error": est_error, "nodes_used": nodes_used}
    _write_columns(positions, words, columns, fmt or cfg.output_format or "csv", _output_path(out, cfg))
    return EXIT_OK


def cmd_simulate(
    cfg: JobConfig,
    n_samples: int,
    seed: int,
    out: Optional[str] = None,
    fmt: Optional[str] = None,
) -> int:
    """Empirical distribution from exact simulation, one row per observed state."""
    if n_samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {n_samples}")
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    counts = oracle.gillespie(cfg.initial, cfg.rates, cfg.time, n_samples, seed)
    states = sorted(counts, key=lambda s: (s.positions, s.species))
    positions, words = state_arrays(states, len(cfg.initial))
    count = np.array([counts[s] for s in states])
    freq = count / n_samples
    columns = {
        "value": freq,
        "est_error": 4.0 * np.sqrt(freq * (1.0 - freq) / n_samples),
        "nodes_used": np.full(len(states), n_samples),
        "count": count,
    }
    _write_columns(positions, words, columns, fmt or cfg.output_format or "csv", _output_path(out, cfg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _draw_rates(rng: np.random.Generator, n: int) -> RateTable:
    return RateTable(tuple(rng.uniform(0.5, 2.0, size=n)))


def _draw_point(rng: np.random.Generator, n: int, rates: RateTable) -> SpectralPoint:
    mags = rng.uniform(0.2, 0.9, size=n) * contour_bound(rates)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return SpectralPoint(tuple(mags * np.exp(1j * phases)))


def _suite_welldef(size: int, seed: int, trials: int, threads: int) -> float:
    """Braid relation: the factor products along (i, i+1, i) and (i+1, i, i+1) agree."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rates = _draw_rates(rng, size)
        sp = _draw_point(rng, size, rates)
        for block in all_sectors(size):
            for i in range(1, size - 1):
                left, im_left = product_along_slots((i, i + 1, i), sp, rates, block)
                right, im_right = product_along_slots((i + 1, i, i + 1), sp, rates, block)
                assert im_left == im_right
                worst = max(worst, float(np.max(np.abs(left - right))))
    return worst


def _suite_oracle(size: int, seed: int, trials: int, threads: int) -> float:
    rng = np.random.default_rng(seed)
    initial_positions = tuple(range(size))
    words = {
        2: [(1, 1), (1, 2), (2, 1), (2, 2)],
        3: [(1, 2, 3), (3, 2, 1), (2, 1, 2)],
    }[size]
    times = (0.1, 0.5, 1.0)
    worst = 0.0
    for _ in range(trials):
        rates = _draw_rates(rng, size)
        for word in words:
            initial = ParticleState(initial_positions, word)
            for t in times:
                gen = oracle.build_generator(initial, rates, default_window(initial, rates, t))
                probs, _ = oracle.matrix_exponential_row(gen, initial, t)
                value, _, _, _ = bethe.transition_arrays(
                    initial, gen.positions, gen.words, t, rates, threads=threads
                )
                worst = max(worst, float(np.abs(value - probs).max()))
    return worst


def _suite_stochastic(size: int, seed: int, trials: int, threads: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    t = 1.0
    for _ in range(trials):
        rates = _draw_rates(rng, size)
        word = tuple(rng.integers(1, size + 1, size=size))
        initial = ParticleState(tuple(range(size)), word)
        positions, words = window_states(initial, default_window(initial, rates, t)[1])
        value = bethe.transition_arrays(initial, positions, words, t, rates, threads=threads)[0]
        worst = max(worst, abs(1.0 - sum(value.tolist())))
    return worst


def _suite_boundary(size: int, seed: int, trials: int, threads: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rates = _draw_rates(rng, size)
        sp = _draw_point(rng, size, rates)
        word = tuple(sorted(rng.integers(1, size + 1, size=size)))
        sector = build_sector(word)
        amps = build_all_A(sp, rates, sector)
        base = [int(v) for v in rng.integers(-3, 4, size=size)]
        for slot in range(1, size):
            x = list(base)
            x[slot] = x[slot - 1] + 1  # adjacent pair at the tested slot
            merged = list(x)
            merged[slot] = merged[slot - 1]
            lhs = oracle.hop_rate_diag(sector, rates, slot + 1) @ bethe.bethe_sum(
                merged, sp, rates, sector, amps
            )
            gain = oracle.swap_gain_matrix(sector, rates, slot)
            loss = oracle.swap_loss_diag(sector, rates, slot)
            hop = oracle.hop_rate_diag(sector, rates, slot)
            rhs = (gain + hop - loss) @ bethe.bethe_sum(x, sp, rates, sector, amps)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    return worst


# runner, default size, default trials, the smallest size with anything to check,
# and the largest size it runs: dense sector matrices and windows grow like N!
_SUITE_RUNNERS = {
    "yang-baxter": (_suite_welldef, 3, 100, 3, 6),  # the same braid relation under its usual name
    "welldef": (_suite_welldef, 3, 100, 3, 6),  # a braid needs slots i, i+1 and i+2
    "oracle": (_suite_oracle, 2, 3, 2, 3),  # the start words are listed for 2 and 3
    "stochastic": (_suite_stochastic, 2, 5, 1, bethe.MAX_PARTICLES_DEFAULT),
    "boundary": (_suite_boundary, 2, 50, 2, 5),  # an adjacent pair needs two particles
}
SUITES = tuple(_SUITE_RUNNERS)


def cmd_verify(
    suite: str,
    size: Optional[int] = None,
    seed: int = 0,
    trials: Optional[int] = None,
    threads: int = 1,
) -> int:
    """Run one named property suite and report max residual against its tolerance."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    runner, default_size, default_trials, min_size, max_size = _SUITE_RUNNERS[suite]
    size = default_size if size is None else size
    trials = default_trials if trials is None else trials
    if not min_size <= size <= max_size:
        raise ConfigError(f"{suite} needs --size from {min_size} to {max_size}, got {size}")
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    residual = runner(size, seed, trials, threads)
    tol = SUITE_TOLERANCES[suite]
    passed = residual < tol
    status = "PASS" if passed else "FAIL"
    print(
        f"{suite}: size={size} trials={trials} max_residual={residual:.3e} "
        f"tolerance={tol:.1e} {status}"
    )
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def _load_config(path: str) -> JobConfig:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON job configuration")
    common.add_argument("--out", default=None, help="output path, '-' for stdout")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="mstasep",
        description="Transition probabilities for the multi-species TASEP "
        "with species-dependent rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prob", parents=[common], help="compute transition probabilities")
    p_verify = sub.add_parser("verify", parents=[common], help="run a property suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--size", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_sim = sub.add_parser(
        "simulate", parents=[common], help="empirical distribution by simulation"
    )
    p_sim.add_argument("--samples", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        if args.out == "":
            raise ConfigError("--out must not be empty; use '-' for standard output")
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if args.command == "prob":
            if args.config is None:
                raise ConfigError("prob requires --config")
            cfg = _load_config(args.config)
            return cmd_prob(cfg, out=args.out, fmt=args.format, threads=args.threads)
        if args.command == "verify":
            return cmd_verify(
                args.suite, size=args.size, seed=args.seed, trials=args.trials,
                threads=args.threads,
            )
        if args.command == "simulate":
            if args.config is None:
                raise ConfigError("simulate requires --config")
            cfg = _load_config(args.config)
            return cmd_simulate(
                cfg, n_samples=args.samples, seed=args.seed, out=args.out, fmt=args.format
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
