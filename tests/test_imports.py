"""Importing the package loads only what every command needs; the root exports what callers use."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# heavy or test-only modules that no module-level import of the package may pull in
NOT_AT_IMPORT = (
    "scipy.stats", "scipy.linalg", "scipy.sparse.linalg", "scipy.special", "hypothesis", "pytest",
)


def _fresh_import(code):
    """Standard output of ``code`` run in a fresh interpreter that finds the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_heavy_modules():
    code = f"import sys, mstasep; print(','.join(m for m in {NOT_AT_IMPORT!r} if m in sys.modules))"
    assert _fresh_import(code) == ""


def test_import_and_cli_load_no_scipy():
    # the oracle imports scipy.sparse inside the two functions that use it
    code = "import sys, mstasep, mstasep.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _fresh_import(code) == "[]"


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
        assert _resolves(mod, name), f"{script}: from {mod} import {name}"


def _resolves(mod, name):
    """A name resolves as an attribute or as a submodule, as in ``from mstasep import bethe``."""
    module = importlib.import_module(mod)
    return hasattr(module, name) or (hasattr(module, "__path__") and find_spec(f"{mod}.{name}"))


def _readme_names():
    """(module, name) for each `module.name` in README.md and each name of its per-module import list.

    Only dotted names whose first part is ``mstasep`` or one of its modules count, so config keys
    and attributes such as ``spectral.radius`` are left alone.
    """
    import mstasep

    text = (ROOT / "README.md").read_text()
    modules = {info.name for info in pkgutil.iter_modules(mstasep.__path__)}
    found = [
        ("mstasep" if mod == "mstasep" else f"mstasep.{mod}", name)
        for mod, name in re.findall(r"`(\w+)\.(\w+)`", text)
        if mod == "mstasep" or mod in modules
    ]
    tail = text[text.index("Everything else is imported from its module"):]
    for mod, names in re.findall(r"`(mstasep\.\w+)`\s+\(([^)]*)\)", tail[: tail.index("\n\n")]):
        found += [(mod, name) for name in re.findall(r"`(\w+)`", names)]
    return found


def test_readme_names_resolve():
    found = _readme_names()
    assert {("mstasep.rmatrix", "build_all_A"), ("mstasep.bethe", "bethe_sum")} <= set(found)
    for mod, name in found:
        assert _resolves(mod, name), f"README.md names {mod}.{name}"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    import mstasep

    with open(ROOT / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == mstasep.__version__
