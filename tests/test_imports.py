"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import piezobeam


def test_import_leaves_scipy_integrate_unloaded():
    """SciPy is needed only for ``scipy.linalg.solve_banded``.

    ``scipy.integrate`` alone pulls in ``optimize``, ``sparse``, ``special``,
    ``spatial`` and more, so a fresh interpreter that imports the package and
    its CLI must not have loaded it.
    """
    paths = [str(Path(piezobeam.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = (
        "import sys, piezobeam, piezobeam.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.count('.') == 1 and m.startswith('scipy.'))))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "scipy.linalg" in loaded
    assert "scipy.integrate" not in loaded, f"SciPy subpackages loaded: {loaded}"
