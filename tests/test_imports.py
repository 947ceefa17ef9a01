"""What importing the package loads, and how it sets up the C allocator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import piezobeam


def _env() -> dict:
    """The environment with this checkout's package first on ``PYTHONPATH``."""
    paths = [str(Path(piezobeam.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_import_loads_no_scipy():
    """The package needs only NumPy at run time; SciPy is a test dependency.

    ``scipy.linalg`` alone loads dozens of SciPy modules (85 on SciPy 1.17),
    and ``scipy.integrate`` pulls in ``optimize``, ``sparse``, ``special``,
    ``spatial`` and more.  A fresh interpreter that imports the package and
    its CLI, then runs the boundary-value oracle (``transfer_bvp`` and
    ``transfer_damped_bvp``, solved in closed form on the grid), must have
    loaded no SciPy module at all.
    """
    code = (
        "import sys, piezobeam, piezobeam.cli; "
        "p = piezobeam.BeamParameters(1, 1, 1, 1, 1); "
        "piezobeam.transfer_bvp(1.0, p, 64); piezobeam.transfer_damped_bvp(1.0, p); "
        "print(' '.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "scipy.integrate" not in loaded, f"SciPy subpackages loaded: {loaded}"
    assert not loaded, f"SciPy modules loaded: {loaded}"


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmRSS from /proc")
def test_import_keeps_large_arrays_mapped():
    """After ``import piezobeam``, freed arrays of 16 MiB and more are unmapped, even after a larger one.

    glibc would otherwise raise its mmap threshold to the 20 MiB block's size
    and serve the 17 MiB array from the heap, where its pages stay resident
    after the free.
    """
    code = (
        "import numpy as np, piezobeam\n"
        "def rss():\n"
        "    return next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmRSS'))\n"
        "a = np.ones(20 << 17); del a\n"
        "before = rss(); b = np.ones(17 << 17); del b\n"
        "print(piezobeam._heap.fix_mmap_threshold(), (rss() - before) // 1024)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True)
    pinned, kept_mib = run.stdout.split()
    if pinned != "True":
        pytest.skip("the C library is not glibc")
    assert int(kept_mib) < 4, f"{kept_mib} MiB of a freed 17 MiB array stayed resident"
