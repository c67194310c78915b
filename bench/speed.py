"""Times corrected for the speed of a shared machine.

The benchmark runs on hosts shared with other work, where the speed of one
core drifts by tens of percent over seconds to minutes; the same closed
sweep took 1.5 s and 2.5 s a few seconds apart on a 2-core host, and the
time of a fixed kernel of interpreter and NumPy work rose and fell with it
(correlation 0.93 to 0.96 over 100 s).  So every timed operation is
bracketed by that fixed kernel, and its time is rescaled to what it would
have been had the kernel taken ``REFERENCE_S``:

    calibrated = raw * REFERENCE_S / mean(kernel before, kernel after)

The kernel is the benchmark's own code, so a change to the program moves
the calibrated time as much as the raw time.  The raw times are kept in
each run's ``result.json``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# A usual time of the kernel on the 2-core host the bounds were measured
# on; calibrated times are seconds at that speed.
REFERENCE_S = 0.05

_X = np.linspace(0.0, 1.0, 65536)


def kernel_seconds() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work."""
    t = perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    for _ in range(40):
        np.sqrt(np.sin(_X) ** 2 + 1.0).sum()
    return perf_counter() - t


class Clock:
    """Times calls, each bracketed by the calibration kernel."""

    def __init__(self):
        for _ in range(3):  # the first calls after start-up run slow
            kernel_seconds()
        self._last = kernel_seconds()
        self.samples = [self._last]

    def time(self, fn, *args):
        """``(fn(*args), raw seconds, calibrated seconds)``."""
        t = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t
        return result, raw, self.rescale(raw)

    def rescale(self, raw: float) -> float:
        """``raw`` seconds, measured since the last kernel, at the reference speed."""
        before, self._last = self._last, kernel_seconds()
        self.samples.append(self._last)
        return raw * REFERENCE_S * 2.0 / (before + self._last)
