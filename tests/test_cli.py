import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import canonical_config, reference_columns_text, reference_generator, series_length
from mstasep import (
    ParticleState,
    RateTable,
    build_generator,
    cli,
    default_window,
    matrix_exponential_row,
    transition_matrix,
)
from mstasep.bethe import transition_arrays
from mstasep.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    ConfigError,
    JobConfig,
    cmd_prob,
    cmd_simulate,
    cmd_verify,
    main,
    parse_config,
    resolve_targets,
    target_arrays,
    _write_columns,
)


def minimal_config(**overrides):
    data = {
        "rates": [1.0, 2.0],
        "initial": {"positions": [0, 1], "species": [2, 1]},
        "time": 0.5,
        "targets": [{"positions": [0, 1], "species": [1, 2]}],
    }
    data.update(overrides)
    return json.dumps(data)


def test_parse_minimal_config():
    cfg = parse_config(minimal_config())
    assert cfg.rates == RateTable((1.0, 2.0))
    assert cfg.initial == ParticleState((0, 1), (2, 1))
    assert cfg.time == 0.5
    assert cfg.targets == (ParticleState((0, 1), (1, 2)),)
    assert cfg.spectral.nodes_per_dim == 32


def test_canonical_round_trip_is_byte_identical():
    cfg = parse_config(minimal_config(spectral={"adapt_tol": 1e-9}, output={"format": "json"}))
    text = canonical_config(cfg)
    assert canonical_config(parse_config(text)) == text


def test_window_targets_round_trip():
    cfg = parse_config(minimal_config(targets="window"))
    text = canonical_config(cfg)
    assert parse_config(text).targets == "window"
    states = resolve_targets(cfg)
    assert cfg.initial in states and len(states) > 10


@pytest.mark.parametrize(
    "patch",
    [
        {"typo": 1},
        {"initial": {"positions": [0, 1], "species": [2, 1], "extra": 0}},
        {"spectral": {"nodes": 16}},
        {"output": {"format": "csv", "where": "x"}},
        {"targets": [{"positions": [0, 1]}]},
        {"targets": 7},
        {"time": -1.0},
        {"rates": [1.0, -2.0]},
        {"initial": {"positions": [1, 1], "species": [1, 2]}},
        {"initial": {"positions": [0, 1], "species": [1, 5]}},
        {"time": True},
        {"time": float("nan")},
        {"time": float("inf")},
        {"initial": {"positions": [0.9, 1], "species": [2, 1]}},
        {"initial": {"positions": [0, 1], "species": ["2", 1]}},
        {"rates": [True, 2.0]},
        {"rates": ["1", 2.0]},
        {"rates": [1e400, 2.0]},
        {"spectral": {"adapt_tol": True}},
        {"spectral": {"adapt_tol": 1e400}},
        {"spectral": {"radius": True}},
        {"spectral": {"radius": float("nan")}},
        {"output": {"path": 1}},
        {"initial": {"positions": [0, True], "species": [2, 1]}},
        {"targets": [{"positions": [0, 1], "species": [True, 2]}]},
        {"targets": [{"positions": [0, 10**20], "species": [1, 2]}]},
        {"initial": {"positions": [-(2**63) - 1, 1], "species": [2, 1]}},
        {"spectral": {"nodes_per_dim": 2**40, "max_nodes": 2**41}},
        {"spectral": {"nodes_per_dim": True}},
        {"spectral": {"max_nodes": 32.0}},
        {"output": {"path": ""}},
    ],
)
def test_bad_configs_rejected(patch):
    with pytest.raises(ConfigError):
        parse_config(minimal_config(**patch))


def test_invalid_json_rejected():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_cmd_prob_writes_expected_csv(tmp_path):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(minimal_config())
    out_path = tmp_path / "out.csv"
    code = main(["prob", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 1
    row = rows[0]
    assert row["positions"] == "0;1" and row["species"] == "1,2"
    exact = 2.0 * math.exp(-1.0) * (1.0 - math.exp(-0.5))
    assert float(row["value"]) == pytest.approx(exact, abs=1e-10)
    assert int(row["nodes_used"]) >= 32
    # 17 significant digits: the printed value reparses to the exact double
    res = transition_matrix(
        ParticleState((0, 1), (2, 1)), [ParticleState((0, 1), (1, 2))], 0.5, RateTable((1.0, 2.0))
    )[0]
    assert float(row["value"]) == res.value


def test_cmd_prob_time_zero_window_single_unit_row(tmp_path):
    cfg = parse_config(minimal_config(time=0.0, targets="window"))
    out_path = tmp_path / "t0.csv"
    assert cmd_prob(cfg, out=str(out_path)) == EXIT_OK
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) > 1
    big = [r for r in rows if abs(float(r["value"])) > 1e-8]
    assert len(big) == 1
    assert big[0]["positions"] == "0;1" and big[0]["species"] == "2,1"
    assert float(big[0]["value"]) == pytest.approx(1.0, abs=1e-8)


def test_cmd_prob_single_particle_poisson(tmp_path):
    data = {
        "rates": [1.5],
        "initial": {"positions": [0], "species": [1]},
        "time": 2.0,
        "targets": "window",
    }
    cfg = parse_config(json.dumps(data))
    out_path = tmp_path / "poisson.csv"
    assert cmd_prob(cfg, out=str(out_path)) == EXIT_OK
    for row in csv.DictReader(out_path.open()):
        k = int(row["positions"])
        expected = math.exp(-3.0) * 3.0**k / math.factorial(k)
        assert float(row["value"]) == pytest.approx(expected, abs=1e-10)


def test_cmd_prob_json_output(tmp_path):
    cfg = parse_config(minimal_config(output={"format": "json"}))
    out_path = tmp_path / "out.json"
    assert cmd_prob(cfg, out=str(out_path)) == EXIT_OK
    rows = json.loads(out_path.read_text())
    assert isinstance(rows, list) and rows[0]["species"] == "1,2"
    assert 0 < rows[0]["value"] < 1


def test_cmd_simulate_deterministic_and_counts(tmp_path):
    cfg = parse_config(minimal_config(targets="window", time=1.0))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cmd_simulate(cfg, n_samples=400, seed=9, out=str(out_a)) == EXIT_OK
    assert cmd_simulate(cfg, n_samples=400, seed=9, out=str(out_b)) == EXIT_OK
    assert out_a.read_text() == out_b.read_text()
    rows = list(csv.DictReader(out_a.open()))
    assert sum(int(r["count"]) for r in rows) == 400
    for r in rows:
        assert float(r["value"]) == pytest.approx(int(r["count"]) / 400.0)


def _writer_tables(n, rows):
    """The first ``rows`` of 40 positions, words and four output columns, with cells that trip writers."""
    rng = np.random.default_rng(n)
    edge = np.iinfo(np.int64)
    positions = rng.integers(-60, 60, size=(40, n))
    positions[0], positions[1] = edge.max, edge.min  # int64 edges, negative positions
    words = rng.integers(1, n + 1, size=(40, n))
    value = rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40)
    value[:9] = [5e-324, 2.5e-310, -1e-320, 0.0, -0.0, 1.0, -3.0, 2.0**60, 0.1]  # subnormal, integral
    value[9:12] = [math.nan, math.inf, -math.inf]  # each format's own spelling of them
    nodes_used = rng.choice([0, 32, 48, 64, 96], size=40)
    count = rng.integers(-(2**62), 2**62, size=40)
    count[0] = edge.max
    columns = {"value": value, "est_error": np.abs(value) / 7.0, "nodes_used": nodes_used, "count": count}
    return positions[:rows], words[:rows], {key: col[:rows] for key, col in columns.items()}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("rows", [0, 40])
def test_write_columns_matches_the_csv_writer(tmp_path, n, fmt, rows):
    positions, words, columns = _writer_tables(n, rows)
    out_path = tmp_path / f"out.{fmt}"
    _write_columns(positions, words, columns, fmt, str(out_path))
    expected = reference_columns_text(positions, words, columns, fmt)
    assert out_path.read_bytes() == expected.encode()


def test_cmd_simulate_writes_the_same_bytes_as_the_csv_writer(tmp_path):
    # the benchmark's crosscheck simulate job at seed 0, whose CSV had this sha256 when
    # csv.writer wrote it cell by cell
    job = {
        "rates": [2.0, 0.9487010114756701, 1.532734965430356],
        "initial": {"positions": [0, 1, 2], "species": [3, 2, 1]},
        "time": 0.8,
        "targets": "window",
    }
    cfg_path, out_path = tmp_path / "job.json", tmp_path / "sim.csv"
    cfg_path.write_text(json.dumps(job))
    argv = ["simulate", "--config", str(cfg_path), "--samples", "20000", "--seed", "382930674"]
    assert main(argv + ["--out", str(out_path)]) == EXIT_OK
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == "41e159b041307df8b7a7ea597a85a530a6d0a978545cdd51d4fcc9f2ef37b526"


def test_float_cells_are_exactly_percent_17g(monkeypatch):
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, size=5_000, dtype=np.uint64).view(np.float64)
    ties = 1.0 + np.arange(1, 2001) * 2.0**-17  # odd j: 18 significant digits ending in 5
    tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
    neighbours = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])
    largest = np.finfo(np.float64).max
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, largest, 1e16, 1e17, 1e-5, 9.5e-5])
    x = np.concatenate([bits, -bits, subnormal, -subnormal, ties, -ties, neighbours, -neighbours, special])
    fallback, g17 = [], cli._g17

    def counted(value):
        fallback.append(value)
        return g17(value)

    monkeypatch.setattr(cli, "_g17", counted)
    got = [bytes(row[row != 0]).decode() for row in cli._float_cells(x)]  # 0 bytes dropped
    want = [format(v, ".17g") for v in x.tolist()]
    assert [(v, g) for v, g, w in zip(x.tolist(), got, want) if g != w] == []
    assert set((-ties[::2]).tolist()) | set(ties[::2].tolist()) <= set(fallback)


WINDOW_N3_SEED_0 = {  # the benchmark's window-n3 job at seed 0
    "rates": [2.0, 1.8346081869172015, 1.3357070753093394],
    "initial": {"positions": [0, 1, 2], "species": [3, 2, 1]},
    "time": 0.8,
    "targets": "window",
}


@pytest.fixture(scope="module")
def window_n3_table():
    cfg = parse_config(json.dumps(WINDOW_N3_SEED_0))
    positions, words = target_arrays(cfg)
    value, est_error, nodes_used = transition_arrays(cfg.initial, positions, words, cfg.time, cfg.rates)
    return cfg, positions, words, {"value": value, "est_error": est_error, "nodes_used": nodes_used}


def test_window_n3_table_needs_no_per_value_formatting(window_n3_table, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_g17", lambda value: calls.append(value) or b"")
    cfg = window_n3_table[0]
    assert cmd_prob(cfg, out=str(tmp_path / "out.csv")) == EXIT_OK
    assert calls == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cmd_prob_writes_the_reference_bytes_on_the_window_n3_table(window_n3_table, tmp_path, fmt):
    cfg, positions, words, columns = window_n3_table
    assert len(positions) == 19656
    out_path = tmp_path / f"out.{fmt}"
    assert cmd_prob(cfg, out=str(out_path), fmt=fmt) == EXIT_OK
    assert out_path.read_bytes() == reference_columns_text(positions, words, columns, fmt).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["prob", "simulate"])
def test_standard_output_gets_the_bytes_of_the_output_file(tmp_path, capfdbinary, command, fmt):
    cfg_path, out_path = tmp_path / "job.json", tmp_path / f"out.{fmt}"
    cfg_path.write_text(minimal_config(targets="window"))
    argv = [command, "--config", str(cfg_path), "--format", fmt]
    if command == "simulate":
        argv += ["--samples", "500"]
    assert main(argv + ["--out", str(out_path)]) == EXIT_OK
    capfdbinary.readouterr()
    assert main(argv + ["--out", "-"]) == EXIT_OK
    written = capfdbinary.readouterr().out
    assert written == out_path.read_bytes()
    assert (b"\r\n" in written) == (fmt == "csv")


def test_cmd_simulate_single_sample_at_time_zero(tmp_path):
    cfg = parse_config(minimal_config(time=0.0, targets="window"))
    out_path = tmp_path / "one.csv"
    assert cmd_simulate(cfg, n_samples=1, seed=0, out=str(out_path)) == EXIT_OK
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 1
    assert rows[0]["positions"] == "0;1" and rows[0]["species"] == "2,1"
    assert rows[0]["count"] == "1" and float(rows[0]["value"]) == 1.0


def test_cmd_simulate_never_emits_forbidden_word(tmp_path):
    data = {
        "rates": [1.0, 2.0],
        "initial": {"positions": [0, 1], "species": [1, 2]},
        "time": 1.5,
        "targets": "window",
    }
    cfg = parse_config(json.dumps(data))
    out_path = tmp_path / "sim.csv"
    assert cmd_simulate(cfg, n_samples=500, seed=3, out=str(out_path)) == EXIT_OK
    for row in csv.DictReader(out_path.open()):
        assert row["species"] == "1,2"


def test_verify_suites_pass_quickly():
    assert cmd_verify("yang-baxter", size=3, seed=0, trials=5) == EXIT_OK
    assert cmd_verify("welldef", size=3, seed=0, trials=5) == EXIT_OK
    assert cmd_verify("boundary", size=2, seed=0, trials=5) == EXIT_OK
    assert cmd_verify("stochastic", size=2, seed=0, trials=1) == EXIT_OK
    assert cmd_verify("oracle", size=2, seed=0, trials=1) == EXIT_OK


@pytest.mark.parametrize("suite, largest", [
    ("yang-baxter", 6), ("welldef", 6), ("oracle", 3), ("stochastic", 4), ("boundary", 5),
])
def test_verify_sizes_are_capped(monkeypatch, capsys, suite, largest):
    import mstasep.cli as cli_mod

    def never(*args):
        raise AssertionError("the suite ran")

    _, *limits = cli_mod._SUITE_RUNNERS[suite]
    monkeypatch.setitem(cli_mod._SUITE_RUNNERS, suite, (never, *limits))
    assert main(["verify", suite, "--size", str(largest + 1), "--trials", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    with pytest.raises(AssertionError, match="the suite ran"):  # the patch is live
        main(["verify", suite, "--size", str(largest), "--trials", "1"])


def test_verify_failure_exit_code(monkeypatch):
    import mstasep.cli as cli_mod

    *entry, _ = cli_mod._SUITE_RUNNERS["yang-baxter"]
    monkeypatch.setitem(cli_mod._SUITE_RUNNERS, "yang-baxter", (*entry, 1e-30))
    assert cmd_verify("yang-baxter", size=3, seed=0, trials=2) == EXIT_VERIFY_FAIL


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_verify_boundary_five_particles_passes(seed):
    # the summed terms reach about 1e4 times the result; the residual is scaled by them
    assert cmd_verify("boundary", size=5, seed=seed) == EXIT_OK


@pytest.mark.parametrize("size", [3, 5])
def test_verify_boundary_fails_on_a_wrong_factor(monkeypatch, capsys, size):
    from mstasep import rmatrix

    amplitudes = rmatrix.amplitudes

    def wrong(b, xb, xa):
        s, t = amplitudes(b, xb, xa)
        return s, t * (1 + 1e-6)

    monkeypatch.setattr(rmatrix, "amplitudes", wrong)
    assert cmd_verify("boundary", size=size, seed=0, trials=5) == EXIT_VERIFY_FAIL
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("suite, size, trials, budget, inner", [
    ("welldef", 4, 7, 2 * 4 * 24 * 24 * 16, "relation_residual"),  # two trials per chunk
    ("boundary", 3, 40, (2 * 6 + 8) * 6 * 6 * 16, "_boundary_residual"),  # one per chunk at dim 6
])
def test_verify_chunks_match_one_batch(monkeypatch, suite, size, trials, budget, inner):
    # a small budget splits the trial axis: same residual, no factor applied to a larger array
    import mstasep.cli as cli_mod
    from mstasep import bethe
    from mstasep.rmatrix import SlotAction

    runner = cli_mod._SUITE_RUNNERS[suite][0]
    calls = []
    checked = getattr(cli_mod, inner)
    monkeypatch.setattr(cli_mod, inner, lambda *a: calls.append(1) or checked(*a))
    whole = runner(size, 5, trials)
    unsplit = len(calls)
    calls.clear()
    monkeypatch.setattr(bethe, "_CHUNK_BUDGET_BYTES", budget)
    sizes = []
    apply = SlotAction.apply
    monkeypatch.setattr(
        SlotAction, "apply", lambda self, xb, xa, v, **k: sizes.append(v.nbytes) or apply(self, xb, xa, v, **k)
    )
    assert runner(size, 5, trials) == whole
    assert len(calls) > unsplit
    assert max(sizes) <= budget


def test_verify_unknown_suite():
    with pytest.raises(ConfigError):
        cmd_verify("nonsense")


def test_main_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(minimal_config(typo=1))
    assert main(["prob", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["prob", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert main(["simulate", "--config", str(bad), "--samples", "5"]) == EXIT_CONFIG


def test_main_empty_out_path_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(minimal_config())
    assert main(["prob", "--config", str(cfg_path), "--out", ""]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.out == ""


@pytest.mark.parametrize("command", [["prob"], ["simulate", "--samples", "5"]])
@pytest.mark.parametrize("out", ["missing_dir/x.csv", "."])
def test_main_unwritable_out_path_exit_code(tmp_path, capsys, command, out):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(minimal_config())
    out_path = tmp_path / out
    assert main(command + ["--config", str(cfg_path), "--out", str(out_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write {out_path}: ")
    assert captured.out == ""
    assert not (tmp_path / "missing_dir").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--config", "{config}", "--out", "{out}", "--seed", "1"],
        ["prob", "--config", "{config}", "--out", "{out}", "--threads", "1"],
        ["simulate", "--config", "{config}", "--out", "{out}", "--samples", "10", "--threads", "1"],
        ["verify", "welldef", "--trials", "2", "--out", "{out}"],
        ["verify", "welldef", "--trials", "2", "--config", "{config}"],
    ],
)
def test_main_rejects_a_flag_its_verb_does_not_read(tmp_path, capsys, argv):
    # argparse exits 2 before any verb runs: nothing is computed and no file is written
    cfg_path, out_path = tmp_path / "job.json", tmp_path / "never.csv"
    cfg_path.write_text(minimal_config())
    with pytest.raises(SystemExit) as exc:
        main([a.format(config=cfg_path, out=out_path) for a in argv])
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""
    assert not out_path.exists()


def test_readme_job_configuration_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme.split("### Job configuration", 1)[1], re.S).group(1)
    cfg = parse_config(block)
    assert cfg.targets == "window" and cfg.output_format == "csv"
    assert json.loads(block)["spectral"] == {"adapt_tol": cfg.spectral.adapt_tol}


@pytest.mark.parametrize("verb", ["prob", "simulate", "verify"])
def test_readme_synopsis_lists_each_verbs_flags(capsys, verb):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = re.search(r"```sh\n(.*?)```", readme.split("## Command line", 1)[1], re.S).group(1)
    (line,) = [ln for ln in synopsis.splitlines() if ln.split()[:2] == ["mstasep", verb]]
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    flags = re.compile(r"--[a-z]+")
    assert flags.findall(line) == flags.findall(usage)


def test_cmd_prob_not_converged_exit_code(tmp_path):
    cfg = parse_config(minimal_config(spectral={"adapt_tol": 1e-18}))
    out_path = tmp_path / "never.csv"
    assert cmd_prob(cfg, out=str(out_path)) == 3
    assert not out_path.exists()


def test_cmd_prob_runs_gapped_starts(tmp_path):
    # a node floor used to refuse both jobs: a gap of 256 past the default max_nodes, and gap 64 at 32
    # fixed nodes.  Each moment now sums J = gap + 64 + 8 terms (scale 2)
    out_path = tmp_path / "rows.csv"
    wide = {"initial": {"positions": [0, 256], "species": [2, 1]}, "targets": "window"}
    cfg = parse_config(minimal_config(**wide))
    assert cmd_prob(cfg, out=str(out_path)) == EXIT_OK
    rows = list(csv.DictReader(out_path.open(newline="")))
    gen = build_generator(cfg.initial, cfg.rates, default_window(cfg.initial, cfg.rates, cfg.time))
    probs, _ = matrix_exponential_row(gen, cfg.initial, cfg.time)
    used = series_length(cfg.initial, cfg.time, cfg.rates)
    assert len(rows) == len(gen.states) and {int(r["nodes_used"]) for r in rows} == {used} == {256 + 72}
    for r in rows:
        x, w = (tuple(map(int, r[k].split(sep))) for k, sep in (("positions", ";"), ("species", ",")))
        exact = probs[gen.index[ParticleState(x, w)]]
        assert abs(float(r["value"]) - exact) <= float(r["est_error"]) + 1e-12
    gapped = {"positions": [0, 64], "species": [2, 1]}
    cfg = parse_config(minimal_config(initial=gapped, targets=[gapped]))
    assert cmd_prob(cfg, out=str(out_path)) == EXIT_OK
    (row,) = csv.DictReader(out_path.open(newline=""))
    assert abs(float(row["value"]) - math.exp(-1.5)) < 1e-12
    assert int(row["nodes_used"]) == series_length(cfg.initial, cfg.time, cfg.rates) == 64 + 72


@pytest.mark.parametrize(
    "patch",
    [
        {  # a window of 14,172,246 states: its position and word arrays pass the 2e8-byte budget
            "rates": [1.0, 2.0, 1.5],
            "initial": {"positions": [0, 1, 2], "species": [3, 2, 1]},
            "time": 60.0,
            "targets": "window",
        },
        {"time": 1000.0},  # scale t = 2000 far past the overflow guard
        {  # seven particles: past the particle limit of six
            "rates": [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2],
            "initial": {"positions": [0, 1, 2, 3, 4, 5, 6], "species": [7, 6, 5, 4, 3, 2, 1]},
            "targets": [{"positions": [0, 1, 2, 3, 4, 5, 6], "species": [1, 2, 3, 4, 5, 6, 7]}],
        },
        {  # scale t = 400 passes the guard, but this target's value is not finite
            "time": 200.0,
            "targets": [{"positions": [173, 389], "species": [1, 2]}],
        },
    ],
)
def test_cmd_prob_contour_config_exit_code(tmp_path, capsys, patch):
    cfg = parse_config(minimal_config(**patch))
    out_path = tmp_path / "never.csv"
    assert cmd_prob(cfg, out=str(out_path)) == EXIT_CONFIG
    assert not out_path.exists()
    assert capsys.readouterr().err.startswith("config error: ")


FIVE_PARTICLE_JOB = {  # descending start on sites 0-4, rates 1, 1.25, ..., 2
    "rates": [1.0, 1.25, 1.5, 1.75, 2.0],
    "initial": {"positions": [0, 1, 2, 3, 4], "species": [5, 4, 3, 2, 1]},
    "time": 0.1,
    "targets": [
        {"positions": [0, 1, 2, 3, 4], "species": [5, 4, 3, 2, 1]},
        {"positions": [0, 1, 2, 3, 5], "species": [5, 4, 3, 2, 1]},
        {"positions": [0, 1, 2, 3, 4], "species": [4, 5, 3, 2, 1]},
    ],
}


def test_main_prob_runs_five_particles(tmp_path):
    cfg_path, out_path = tmp_path / "job.json", tmp_path / "rows.csv"
    cfg_path.write_text(json.dumps(FIVE_PARTICLE_JOB))
    assert main(["prob", "--config", str(cfg_path), "--out", str(out_path)]) == EXIT_OK
    cfg = parse_config(cfg_path.read_text())
    value, est_error, nodes_used = transition_arrays(cfg.initial, *target_arrays(cfg), cfg.time, cfg.rates)
    rows = list(csv.DictReader(out_path.open(newline="")))
    assert [float(r["value"]) for r in rows] == value.tolist()
    assert [float(r["est_error"]) for r in rows] == est_error.tolist()
    assert [int(r["nodes_used"]) for r in rows] == nodes_used.tolist() and (nodes_used > 0).all()


def test_main_prob_term_walk_past_the_budget_exit_code(tmp_path, monkeypatch, capsys):
    from mstasep import bethe

    monkeypatch.setattr(bethe, "_CHUNK_BUDGET_BYTES", 4096)
    cfg_path, out_path = tmp_path / "job.json", tmp_path / "never.csv"
    cfg_path.write_text(json.dumps(FIVE_PARTICLE_JOB))
    assert main(["prob", "--config", str(cfg_path), "--out", str(out_path)]) == EXIT_CONFIG
    assert not out_path.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "2 word rows passes its budget of 4096 bytes" in err


def test_main_verify_and_prob_paths(tmp_path):
    assert main(["verify", "welldef", "--trials", "2"]) == EXIT_OK
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(minimal_config())
    out_path = tmp_path / "rows.csv"
    assert main(["prob", "--config", str(cfg_path), "--out", str(out_path)]) == EXIT_OK
    assert out_path.exists()


def test_canonical_config_defaults_materialized():
    cfg = parse_config(minimal_config())
    data = json.loads(canonical_config(cfg))
    assert data["spectral"] == {"adapt_tol": 1e-08}
    assert "output" not in data


def test_job_config_is_frozen():
    cfg = parse_config(minimal_config())
    assert isinstance(cfg, JobConfig)
    with pytest.raises(AttributeError):
        cfg.time = 1.0


# every key of a full config, including list entries, as a path into the JSON tree
_CONFIG_PATHS = [
    ("rates",),
    ("rates", 0),
    ("initial",),
    ("initial", "positions"),
    ("initial", "positions", 1),
    ("initial", "species"),
    ("initial", "species", 0),
    ("time",),
    ("targets",),
    ("targets", 0),
    ("targets", 0, "positions"),
    ("targets", 0, "species", 1),
    ("spectral",),
    ("spectral", "adapt_tol"),
    ("output",),
    ("output", "format"),
    ("output", "path"),
]

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**1000, max_value=2**1400)  # JSON integers past float range
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_CONFIG_PATHS), _json_values, min_size=1, max_size=3))
def test_parse_config_fuzz(substitutions):
    data = json.loads(
        minimal_config(
            spectral={"adapt_tol": 1e-8},
            output={"format": "csv", "path": "out.csv"},
        )
    )

    def holds(node, key):
        if isinstance(node, dict):
            return isinstance(key, str) and key in node
        return isinstance(node, list) and isinstance(key, int) and key < len(node)

    # parents first; a key whose parent was already replaced is skipped
    for path, value in sorted(substitutions.items(), key=lambda kv: len(kv[0])):
        node = data
        for key in path[:-1]:
            node = node[key] if holds(node, key) else None
        if holds(node, path[-1]):
            node[path[-1]] = value
    try:
        cfg = parse_config(json.dumps(data))
    except ConfigError:
        return
    assert isinstance(cfg, JobConfig)
    text = canonical_config(cfg)
    assert canonical_config(parse_config(text)) == text


@pytest.mark.parametrize(
    "rates, start, time",
    [
        ([1.0, 2.0], {"positions": [0, 2], "species": [2, 1]}, 0.6),
        ([1.3, 0.8, 2.0], {"positions": [0, 1, 3], "species": [3, 1, 2]}, 0.3),
    ],
)
def test_cmd_prob_window_skips_the_oracle_with_identical_rows(tmp_path, monkeypatch, rates, start, time):
    import mstasep.oracle as oracle_mod

    def no_oracle(*args, **kwargs):
        raise AssertionError("prob built the Markov chain")

    cfg = parse_config(json.dumps({"rates": rates, "initial": start, "time": time, "targets": "window"}))
    out_path = tmp_path / "rows.csv"
    with monkeypatch.context() as patch:
        patch.setattr(oracle_mod, "build_generator", no_oracle)
        assert cmd_prob(cfg, out=str(out_path)) == EXIT_OK
    rows = list(csv.DictReader(out_path.open(newline="")))
    keys = [
        (tuple(map(int, r["positions"].split(";"))), tuple(map(int, r["species"].split(","))))
        for r in rows
    ]
    assert keys == sorted(keys)  # window rows come sorted by (positions, species)
    states, _, _ = reference_generator(cfg.initial, cfg.rates, default_window(cfg.initial, cfg.rates, time))
    assert set(keys) == {(s.positions, s.species) for s in states}
    results = transition_matrix(cfg.initial, list(states), time, cfg.rates)
    by_state = {(s.positions, s.species): res for s, res in zip(states, results)}
    for key, row in zip(keys, rows):
        res = by_state[key]
        assert float(row["value"]) == res.value and float(row["est_error"]) == res.est_error
        assert int(row["nodes_used"]) == res.nodes_used


def test_cmd_prob_explicit_targets_keep_config_order(tmp_path):
    targets = [
        {"positions": [1, 3], "species": [1, 2]},
        {"positions": [0, 1], "species": [2, 1]},
        {"positions": [0, 2], "species": [1, 2]},
    ]
    cfg = parse_config(minimal_config(targets=targets))
    out_path = tmp_path / "rows.csv"
    assert cmd_prob(cfg, out=str(out_path)) == EXIT_OK
    rows = list(csv.DictReader(out_path.open(newline="")))
    assert [r["positions"] for r in rows] == ["1;3", "0;1", "0;2"]
    assert [r["species"] for r in rows] == ["1,2", "2,1", "1,2"]


def test_cmd_prob_guards_run_before_window_states(tmp_path, monkeypatch, capsys):
    import mstasep.cli as cli_mod

    def no_window(*args, **kwargs):
        raise AssertionError("window enumerated before the guards ran")

    monkeypatch.setattr(cli_mod, "window_states", no_window)
    job = {
        "rates": [1.0, 2.0, 1.5],
        "initial": {"positions": [0, 1, 2], "species": [3, 2, 1]},
        "time": 200,
        "targets": "window",
    }
    out_path = tmp_path / "never.csv"
    assert cmd_prob(parse_config(json.dumps(job)), out=str(out_path)) == EXIT_CONFIG
    assert not out_path.exists()
    # scale t = 400 passes the time guard, but the window's 229,220,316 states would take 11 GB
    assert "the window holds 229220316 states" in capsys.readouterr().err
    assert cmd_prob(parse_config(json.dumps(dict(job, time=400))), out=str(out_path)) == EXIT_CONFIG
    assert not out_path.exists()
    assert "scale t = 2 * 400 passes 700" in capsys.readouterr().err
    # the patch is live: a job that passes the guards reaches the enumerator
    job["time"] = 0.5
    with pytest.raises(AssertionError, match="window enumerated"):
        cmd_prob(parse_config(json.dumps(job)), out=str(out_path))


def test_cmd_prob_window_edge_past_int64_exit_code(tmp_path, capsys):
    cfg = parse_config(
        minimal_config(initial={"positions": [2**63 - 3, 2**63 - 2], "species": [2, 1]}, targets="window")
    )
    out_path = tmp_path / "never.csv"
    assert cmd_prob(cfg, out=str(out_path)) == EXIT_CONFIG
    assert not out_path.exists()
    assert "int64" in capsys.readouterr().err


def test_cmd_simulate_hop_past_int64_exit_code(tmp_path, capsys):
    cfg = parse_config(minimal_config(initial={"positions": [2**63 - 2, 2**63 - 1], "species": [2, 1]}, time=5.0))
    out_path = tmp_path / "never.csv"
    assert cmd_simulate(cfg, n_samples=10, seed=0, out=str(out_path)) == EXIT_CONFIG
    assert not out_path.exists()
    assert "int64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{config}", "--samples", "0"],
        ["simulate", "--config", "{config}", "--samples", "10", "--seed", "-1"],
        ["verify", "welldef", "--trials", "2", "--seed", "-1"],
        ["verify", "welldef", "--trials", "0"],
        ["verify", "welldef", "--size", "2"],
        ["verify", "boundary", "--size", "1"],
        ["verify", "stochastic", "--size", "5"],
    ],
)
def test_main_rejects_arguments_that_check_nothing_or_crash(tmp_path, capsys, argv):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(minimal_config())
    out_path = tmp_path / "never.csv"
    argv = [a.format(config=cfg_path) for a in argv]
    if argv[0] == "simulate":  # verify has no output file
        argv += ["--out", str(out_path)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.out == ""
    assert not out_path.exists()
