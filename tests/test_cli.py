import csv
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_generator
from mstasep import ParticleState, RateTable, default_window, transition_matrix
from mstasep.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    ConfigError,
    JobConfig,
    canonical_config,
    cmd_prob,
    cmd_simulate,
    cmd_verify,
    main,
    parse_config,
    resolve_targets,
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
    cfg = parse_config(minimal_config(spectral={"nodes_per_dim": 64}, output={"format": "json"}))
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

    monkeypatch.setitem(cli_mod.SUITE_TOLERANCES, "yang-baxter", 1e-30)
    assert cmd_verify("yang-baxter", size=3, seed=0, trials=2) == EXIT_VERIFY_FAIL


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


def test_main_threads_below_one_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(minimal_config())
    assert main(["prob", "--config", str(cfg_path), "--threads", "0"]) == EXIT_CONFIG
    assert main(["verify", "oracle", "--trials", "1", "--threads", "-3"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.out == ""


def test_cmd_prob_rejects_threads_below_one(tmp_path, capsys):
    cfg = parse_config(minimal_config(targets="window"))
    out_path = tmp_path / "never.csv"
    assert cmd_prob(cfg, out=str(out_path), threads=0) == EXIT_CONFIG
    assert not out_path.exists()
    assert "threads" in capsys.readouterr().err


def test_cmd_prob_not_converged_exit_code(tmp_path):
    cfg = parse_config(
        minimal_config(spectral={"nodes_per_dim": 4, "max_nodes": 8, "adapt_tol": 1e-18})
    )
    out_path = tmp_path / "never.csv"
    assert cmd_prob(cfg, out=str(out_path)) == 3
    assert not out_path.exists()


@pytest.mark.parametrize(
    "patch",
    [
        {"spectral": {"radius": 0.6}},  # outside the admissible disk (0.5) of rates (1, 2)
        {"time": 1000.0},  # t/radius far past the overflow guard
        {  # five particles: past the default particle limit
            "rates": [1.0, 1.2, 1.4, 1.6, 1.8],
            "initial": {"positions": [0, 1, 2, 3, 4], "species": [5, 4, 3, 2, 1]},
            "targets": [{"positions": [0, 1, 2, 3, 4], "species": [1, 2, 3, 4, 5]}],
        },
        {  # 10.0 ** 400 overflows: the main call raises OverflowRisk
            "rates": [1.0, 10.0],
            "initial": {"positions": [0, 1], "species": [1, 2]},
            "time": 30.0,
            "targets": [{"positions": [0, 400], "species": [1, 2]}],
        },
    ],
)
def test_cmd_prob_contour_config_exit_code(tmp_path, capsys, patch):
    cfg = parse_config(minimal_config(**patch))
    out_path = tmp_path / "never.csv"
    assert cmd_prob(cfg, out=str(out_path)) == EXIT_CONFIG
    assert not out_path.exists()
    assert capsys.readouterr().err.startswith("config error: ")


def test_main_verify_and_prob_paths(tmp_path):
    assert main(["verify", "welldef", "--trials", "2"]) == EXIT_OK
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(minimal_config())
    out_path = tmp_path / "rows.csv"
    assert main(["prob", "--config", str(cfg_path), "--out", str(out_path), "--threads", "2"]) == EXIT_OK
    assert out_path.exists()


def test_canonical_config_defaults_materialized():
    cfg = parse_config(minimal_config())
    data = json.loads(canonical_config(cfg))
    assert data["spectral"] == {
        "adapt_tol": 1e-08,
        "max_nodes": 256,
        "nodes_per_dim": 32,
        "radius": None,
    }
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
    ("spectral", "radius"),
    ("spectral", "nodes_per_dim"),
    ("spectral", "adapt_tol"),
    ("spectral", "max_nodes"),
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
            spectral={"radius": 0.2, "nodes_per_dim": 16, "adapt_tol": 1e-8, "max_nodes": 64},
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
    assert "t/radius" in capsys.readouterr().err
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
    argv = [a.format(config=cfg_path) for a in argv] + ["--out", str(out_path)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.out == ""
    assert not out_path.exists()
