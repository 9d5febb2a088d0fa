"""Importing the package loads only what every command needs; the root exports what callers use."""

import ast
import importlib
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# heavy or test-only modules that no module-level import of the package may pull in
NOT_AT_IMPORT = (
    "scipy.stats", "scipy.linalg", "scipy.sparse.linalg", "scipy.special", "hypothesis", "pytest",
)


def test_import_loads_no_heavy_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = f"import sys, mstasep; print(','.join(m for m in {NOT_AT_IMPORT!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


ROOT_EXPORTS = {
    # calls and the types they pass or return
    "ParticleState", "RateTable", "SpectralParams", "ProbabilityResult", "SpectralPoint",
    "GeneratorWindow", "transition_probability", "transition_matrix", "build_generator",
    "default_window", "matrix_exponential_row", "gillespie", "consistency_residuals",
    "contour_bound", "enumerate_sn",
    # the exceptions those calls raise
    "ContourInvalid", "NotConverged", "OverflowRisk", "NonIncreasingPositions",
    "SpeciesOutOfRange", "PoleOnContour", "WindowTooSmall", "WindowTooWide",
}


def test_root_exports_exactly_the_public_surface():
    import mstasep

    assert len(mstasep.__all__) == len(ROOT_EXPORTS)
    assert set(mstasep.__all__) == ROOT_EXPORTS
    for name in mstasep.__all__:
        assert hasattr(mstasep, name), name


def _package_imports(path):
    """(module, name) of every ``from mstasep[.mod] import name`` in a file, read with ast."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mstasep"
        for alias in node.names
    ]


def test_demo_and_benchmark_imports_resolve():
    # the scripts are parsed, never imported: the benchmark runner sets BLAS variables at import
    scripts = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    found = [(script.name, mod, name) for script in scripts for mod, name in _package_imports(script)]
    assert {"run.py", "workloads.py"} <= {script for script, _, _ in found}
    for script, mod, name in found:
        # a name resolves as an attribute or as a submodule, as in ``from mstasep import bethe``
        resolves = hasattr(importlib.import_module(mod), name) or find_spec(f"{mod}.{name}")
        assert resolves, f"{script}: from {mod} import {name}"
