"""Benchmark for mstasep: seeded workloads whose outputs are checked against the oracle.

    python3 benchmarks/run.py --workload window-n3 --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs, reports the per-layer metrics and writes the spans
to ``.bench_out/trace-<workload>-<seed>.jsonl``.  A table goes to standard
output first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
output passed its check.  NOTES.md describes the workloads, the metrics and
the environment they were measured in.
"""

from __future__ import annotations

import os

# Every timing is a single-core number: one OpenBLAS thread in this process
# and in the set-up processes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import ERR_FLOOR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
PROBE_NODES = (16, 32, 64)

# span name -> per-layer metric that receives its self time
SELF_TIME_METRICS = {
    "cli.main": "cli.main_s",
    "cli.parse_config": "cli.parse_config_s",
    "cli.resolve_targets": "cli.resolve_targets_s",
    "cli.cmd_prob": "cli.write_s",
    "cli.cmd_simulate": "cli.write_s",
    "core.validate_state": "core.validate_s",
    "bethe.transition_matrix": "bethe.transition_matrix_s",
    "oracle.build_generator": "oracle.build_generator_s",
    "oracle.matrix_exponential_row": "oracle.uniformize_s",
    "oracle.gillespie": "oracle.gillespie_s",
    "rmatrix.verify.yang-baxter": "rmatrix.verify_s.yang-baxter",
    "rmatrix.verify.welldef": "rmatrix.verify_s.welldef",
    "rmatrix.verify.boundary": "rmatrix.verify_s.boundary",
}
# counts a traced job takes from what its calls return
SUMMARIES = {
    "oracle.build_generator": lambda gen: {"oracle.states": len(gen.states), "oracle.nnz": gen.rate_matrix.nnz},
}
COUNT_METRICS = (
    "bethe.probes",
    "bethe.quad_targets",
    "bethe.zero_targets",
    "bethe.grid_points",
    "bethe.factor_apps",
    "bethe.column_bytes",
    "oracle.states",
    "oracle.nnz",
)


def patch_targets():
    """Public functions wrapped in traced jobs, as (module, attribute, span name)."""
    from mstasep import bethe, cli, oracle

    return [
        (cli, "parse_config", "cli.parse_config"),
        (cli, "cmd_prob", "cli.cmd_prob"),
        (cli, "cmd_simulate", "cli.cmd_simulate"),
        (cli, "resolve_targets", "cli.resolve_targets"),
        (cli, "validate_state", "core.validate_state"),
        (bethe, "validate_state", "core.validate_state"),
        (oracle, "validate_state", "core.validate_state"),
        (bethe, "transition_matrix", "bethe.transition_matrix"),
        (oracle, "build_generator", "oracle.build_generator"),
        (oracle, "matrix_exponential_row", "oracle.matrix_exponential_row"),
        (oracle, "gillespie", "oracle.gillespie"),
    ]


def untraced_call(name, fn, *args):
    return fn(*args)


def time_setup(args) -> float:
    """Wall seconds of a fresh process that imports, parses the inputs and warms up."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    start = perf_counter()
    subprocess.run(cmd, check=True)
    return perf_counter() - start


def run_jobs(wl, seconds: float, tracer) -> list[dict]:
    """Run jobs until the next one would end past ``seconds``.

    With a tracer, jobs alternate untraced and traced, and at least one of
    each runs.  One record per job: traced flag, wall seconds, digest (None if
    the job raised) and computed counts.
    """
    records: list[dict] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        digest = counts = None
        gc.collect()  # every job starts from a collected heap
        t0 = perf_counter()
        try:
            if traced:
                tracer.start_job(len(records))
                with tracer.patched(patch_targets()):
                    out = wl.job(tracer.call)
            else:
                out = wl.job(untraced_call)
            wall = perf_counter() - t0
            digest = wl.digest(out)
            del out
            counts = wl.counts(digest)
            if traced:
                counts.update(tracer.counts)
        except Exception:
            traceback.print_exc()
            wall = perf_counter() - t0
        records.append({"traced": traced, "wall": wall, "digest": digest, "counts": counts})
        kinds = {r["traced"] for r in records}
        typical = statistics.median(r["wall"] for r in records)
        if len(kinds) == (2 if tracer else 1) and perf_counter() - start + typical > seconds:
            return records


def check_records(wl, records) -> tuple[int, int, float]:
    """Compare every job's outputs with the oracle: attempted, failed, largest error."""
    ref = wl.reference()
    attempted = failed = 0
    worst = 0.0
    for rec in records:
        if rec["digest"] is None:
            attempted += 1
            failed += 1
            continue
        for part, ok, err in wl.check(rec["digest"], ref):
            attempted += 1
            if not ok:
                failed += 1
                print(f"FAIL {wl.name} {part}: error {err:.3e}")
            worst = max(worst, err)
    for traced in (False, True):  # computed counts must repeat exactly from job to job
        seen = [r["counts"] for r in records if r["traced"] == traced and r["counts"] is not None]
        if seen:
            attempted += 1
            if any(c != seen[0] for c in seen):
                failed += 1
                print(f"FAIL {wl.name}: computed counts differ between jobs: {seen}")
    return attempted, failed, worst


def layer_metrics(wl, records, tracer, max_abs_err: float) -> dict[str, tuple]:
    """Per-layer metrics of a traced run, as name -> (value, unit)."""
    untraced = statistics.median(r["wall"] for r in records if not r["traced"])
    jobs = [i for i, r in enumerate(records) if r["traced"]]
    selfs = [tracer.self_times(j) for j in jobs]
    unknown = {name for s in selfs for name in s} - set(SELF_TIME_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    metrics: dict[str, tuple] = {}
    for metric in dict.fromkeys(SELF_TIME_METRICS.values()):
        names = [n for n, m in SELF_TIME_METRICS.items() if m == metric]
        metrics[metric] = (statistics.median(sum(s.get(n, 0.0) for n in names) for s in selfs), "s")

    counts = records[jobs[0]]["counts"]
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "bytes" if name.endswith("_bytes") else "count")
    metrics["oracle.leak"] = (counts.get("oracle.leak", 0.0), "probability")

    # Spectral calls timed on their own, outside the traced jobs.  A call at
    # 4 nodes is target preparation with a negligible grid.
    probes = dict.fromkeys(PROBE_NODES, 0.0)
    prep = 0.0
    if wl.fixed is not None:
        prep = statistics.median(wl.fixed(4) for _ in range(3))
        probes.update({m: statistics.median(wl.fixed(m) for _ in range(3)) for m in wl.probe_nodes})
    if wl.job_nodes is not None:
        probes[wl.job_nodes] = untraced
    metrics["bethe.prep_s"] = (prep, "s")
    for m in PROBE_NODES:
        metrics[f"bethe.probe_s.m{m}"] = (probes[m], "s")
    share = 0.0
    if counts.get("bethe.probes", 0) > 1:  # the last probe only confirmed the one before
        last = wl.first_m << (counts["bethe.probes"] - 1)
        call = statistics.median(tracer.span_seconds(j, "bethe.transition_matrix") for j in jobs)
        share = (probes[last] - prep) / call
    metrics["bethe.confirm_share"] = (share, "ratio")
    metrics["max_abs_err"] = (max_abs_err, "probability")

    traced = statistics.median(records[j]["wall"] for j in jobs)
    metrics["trace.solve_s"] = (traced, "s")
    metrics["trace.accounted_s"] = (statistics.median(tracer.root_seconds(j) for j in jobs), "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def environment() -> str:
    import numpy
    import scipy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def summary(values) -> str:
    values = list(values)
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_only:
        wl.setup()
        return 0
    setups = [] if args.trace else [time_setup(args) for _ in range(SETUP_REPEATS)]
    wl.setup()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(SUMMARIES)
    records = run_jobs(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, worst = check_records(wl, records)
    max_abs_err = max(worst, ERR_FLOOR)
    solve = [r["wall"] for r in records if not r["traced"]]
    complete = all(r["digest"] is not None for r in records)  # metrics only from runs with no raised job

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  env: {environment()}")
    print(f"  failed_frac = {failed}/{attempted} checks   max_abs_err = {max_abs_err:.3e} "
          f"(floor {ERR_FLOOR:g}, tolerance {wl.tolerance:g})")
    metrics: dict[str, tuple] = {}
    if args.trace:
        tracer.write(OUT / f"trace-{wl.name}-{args.seed}.jsonl")
        if complete:
            metrics = layer_metrics(wl, records, tracer, max_abs_err)
        for name, (value, unit) in metrics.items():
            label = "  [computed]" if unit in ("count", "bytes") else ""
            print(f"  {name:32s} {value:>16.6g} {unit}{label}")
    elif complete:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (statistics.median(solve), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"  setup_s     {metrics['setup_s'][0]:.4f} s   ({summary(setups)} fresh processes)")
        print(f"  solve_s     {metrics['solve_s'][0]:.4f} s   ({summary(solve)} jobs: "
              + " ".join(f"{w:.3f}" for w in solve) + ")")
        print(f"  peak_rss_mb {peak_rss_mb:.1f} MB")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a process of its own, so each peak_rss_mb is that workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "mstasep" / "__init__.py").is_file():
        print(f"error: no mstasep sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
