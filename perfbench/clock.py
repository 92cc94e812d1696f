"""Process measurements shared by the benchmark's parent and worker."""

from __future__ import annotations

import resource
import time


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def calibrate_ms() -> float:
    """Time a fixed piece of interpreter-bound work that uses no ampenv code.

    A float recurrence and number formatting, like the biquad loop and the
    CSV writer. On a shared 2-core virtual machine the CPU speed was
    measured to drift by about 20% over tens of seconds, and this loop
    slows down with it; the benchmark scales its times by a reference over
    this loop's time.
    """
    t0 = time.perf_counter()
    s = 0.0
    for i in range(80000):
        s = 0.3 * i + 0.7 * s
    ",".join(["%.9g" % (s * k) for k in range(8000)])
    return (time.perf_counter() - t0) * 1e3
