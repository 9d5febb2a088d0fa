"""The benchmark's workloads in tier-1: one job each at seed 0, checked as the benchmark checks it.

``benchmarks/workloads.py`` is loaded from its file (see ``helpers``), never edited, so a change to
the package that breaks what the benchmark calls or passes fails here rather than in the benchmark.
"""

import math

import pytest

from helpers import workloads


def untraced(name, fn, *args):
    return fn(*args)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_job_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, tmp_path)
    wl.setup()
    digest = wl.digest(wl.job(untraced))
    counts = wl.counts(digest)
    assert counts and all(math.isfinite(v) for v in counts.values())
    checks = wl.check(digest, wl.reference())
    assert checks and all(ok for _, ok, _ in checks), checks
    if name == "window-n3":  # the traced run's fixed-node timing: the targets and node-count fields
        assert wl.fixed(16) > 0
