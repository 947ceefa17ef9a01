"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import piezobeam


def test_import_loads_no_scipy():
    """SciPy is needed only for ``scipy.linalg.solve_banded`` in the
    boundary-value oracle, which imports it on first use.

    ``scipy.linalg`` alone loads dozens of SciPy modules (85 on SciPy 1.17), and ``scipy.integrate``
    pulls in ``optimize``, ``sparse``, ``special``, ``spatial`` and more, so a
    fresh interpreter that imports the package and its CLI must have loaded
    no SciPy module at all.
    """
    paths = [str(Path(piezobeam.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = (
        "import sys, piezobeam, piezobeam.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "scipy.integrate" not in loaded, f"SciPy subpackages loaded: {loaded}"
    assert not loaded, f"SciPy modules loaded: {loaded}"
