"""A gauge of how fast the machine runs at a given moment.

The benchmark runs on machines shared with other tenants, whose load can
slow every process on them by half for seconds or for minutes.  So the
workload process times ``reference()`` between ops, and the launcher
times it between the set-up launches.  Each timed interval is then
rescaled to the reference speed: multiplied by REFERENCE_S over the
reference time measured around it.  A program change cannot move the
reference, because it does not call affsym.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds reference() takes when the build machine (Intel Xeon, 2 vCPU)
#: runs at its usual quiet speed; it sets the unit of the rescaled times
REFERENCE_S = 0.006
#: in a workload process, reference() runs between ops this often
EVERY_S = 0.5

_MATRIX = np.random.default_rng(0).normal(size=(8, 8))


def reference():
    """Seconds taken by a fixed piece of work: a Python loop over a dict
    and small numpy eigenproblems, the mix that affsym runs."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(24000):
        acc[i % 101] = acc.get(i % 101, 0) + i * i
    for _ in range(120):
        np.linalg.eigvals(_MATRIX)
    return time.perf_counter() - t0


def reference_now():
    """The median of a few reference() timings, for a one-off reading."""
    return statistics.median(reference() for _ in range(5))


def rescale(start, seconds, ref_at, ref_s):
    """Intervals (start, seconds) rescaled to the reference speed, with the
    reference time interpolated at each interval's midpoint."""
    start, seconds = np.asarray(start), np.asarray(seconds)
    return seconds * REFERENCE_S / np.interp(start + seconds / 2, ref_at, ref_s)
