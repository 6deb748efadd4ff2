"""Host-speed calibration for the end-to-end times.

The machine this benchmark runs on is shared: its speed swings by a
factor of up to two for tens of seconds at a time, which no median within
one run can hide.  A fixed kernel, independent of finsler4 and mixing the
same kinds of work (small numpy gathers and bincounts, Python dicts and
float arithmetic), is timed right before and right after each
measurement.  A time ``t`` is reported as ``t * NOMINAL_S / k``, where
``k`` is the mean kernel time around it: the time the measurement would
have taken on a host that runs the kernel in ``NOMINAL_S``.  A change to
finsler4 leaves ``k`` alone, so it shows in full.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# kernel time on an idle two-core x86-64 host (Python 3.11, numpy 2.4)
NOMINAL_S = 5e-4

_A = np.arange(64.0)
_IDX = np.arange(64) % 7


def _kernel() -> float:
    s = 0.0
    for _ in range(150):
        b = _A[_IDX] * 1.0001
        s += float(np.bincount(_IDX, weights=b, minlength=8)[3])
        d = {j: j * 0.5 for j in range(8)}
        s += sum(d.values())
    return s


def kernel_s(chunks: int = 3) -> float:
    """Median time of a few kernel runs, in seconds."""
    times = []
    for _ in range(chunks):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel timings into
    the time at the nominal host speed (a rate is divided by it)."""
    return NOMINAL_S / ((before + after) / 2.0)
