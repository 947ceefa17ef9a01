"""Keep large arrays out of glibc's heap, so peak memory does not depend on allocation order.

glibc serves a block at or above its mmap threshold from a private mapping
and unmaps it on free.  By default the threshold adapts: freeing a mapped
block larger than the threshold raises it to that block's size, up to
32 MiB, and the trim threshold to twice that.  After the first large array
is freed, later arrays of its size are carved from the heap instead, and a
small object allocated above them keeps their pages resident.  Peak RSS
then depends on where small allocations happened to land: the
``observability_certificates`` benchmark, whose check quadrature allocates
16 MiB blocks, peaked at either 104 or 120 MiB from one checkout directory
to the next.

:func:`fix_mmap_threshold` freezes the rule at ``MMAP_THRESHOLD``: blocks of
16 MiB and more are always mapped and returned at once, and smaller ones keep
the heap's fast path.  The 16 MiB blocks are the benchmark oracle's, not the
package's: its largest working array at ``J = 256`` is the 8 MiB ``(n, n)``
float array of :func:`piezobeam.spectral.output_energy` (``n = 4J``), which a
threshold of 8 MiB would map afresh on every call (an 8.4 MiB table, since
removed, cost that benchmark 11% of its time that way).  Without the fixed
threshold that benchmark still peaked at 120 MiB from one checkout name in
eight, and with it at 104 or 108 MiB (ROADMAP item 15 has the runs), so the
setting stays until the oracle's blocks shrink.  Elsewhere than on glibc
nothing is changed.
"""

from __future__ import annotations

import ctypes
import os

MMAP_THRESHOLD = 16 << 20
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def fix_mmap_threshold() -> bool:
    """Set glibc's mmap threshold to ``MMAP_THRESHOLD`` and its trim threshold to twice that.

    Returns whether both were set; ``False`` when the C library is not glibc.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or a libc without the name
        return False
    libc = ctypes.CDLL(None)
    trim = libc.mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
    return bool(trim and libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD))
