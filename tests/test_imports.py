"""Importing the package loads only what every command needs."""

import os
import subprocess
import sys
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
