"""Wall-clock timing corrected for the speed the machine gives the process.

On a shared machine the CPU speed a process gets can drift by tens of
percent from minute to minute while the work stays the same.  A fixed
calibration kernel, which does not touch the package, runs before and after
every timed call; the call's wall time is scaled by CALIBRATION_S over the
mean of the two kernel times around it.  The result is in reference
seconds: the wall time the call would take on a machine where the kernel
takes CALIBRATION_S.  The drift cancels, and every change in the package's
own work still shows.

Set-up is timed inside a fresh interpreter, before numpy is loaded, so
there the kernel is interpreted arithmetic alone (FRESH_IMPORT_CODE).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Wall seconds the calibration kernel takes at reference speed.
CALIBRATION_S = 0.012
#: Wall seconds the interpreted-only kernel of FRESH_IMPORT_CODE takes at reference speed.
INTERPRETED_S = 0.007
_MATRIX = 0.2 * np.exp(1j * np.arange(256.0).reshape(16, 16))


def kernel() -> float:
    """Wall seconds of a fixed mix of small numpy calls and interpreted arithmetic."""
    start = time.perf_counter()
    v = _MATRIX[0]
    for _ in range(4000):
        v = _MATRIX @ v
        v = v / (abs(v[0]) + 1.0)
    x = 0
    for i in range(20000):
        x += i * i % 7
    return time.perf_counter() - start


#: Prints the reference seconds `import diamondsim` takes in this interpreter.
FRESH_IMPORT_CODE = f"""
import time

def kernel():
    start = time.perf_counter()
    x = 0
    for i in range(100000):
        x += i * i % 7
    return time.perf_counter() - start

before = kernel()
start = time.perf_counter()
import diamondsim
elapsed = time.perf_counter() - start
print(repr(elapsed * 2 * {INTERPRETED_S!r} / (before + kernel())))
"""


class Calibrated:
    """Times calls in reference seconds, bracketing each with the kernel."""

    def __init__(self):
        self.last = kernel()
        self.kernel_times: list[float] = []

    def time(self, fn):
        """Run fn(); return (result, wall seconds, reference seconds)."""
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            before, self.last = self.last, kernel()
            self.kernel_times += [before, self.last]
        return result, wall, wall * 2 * CALIBRATION_S / (before + self.last)

    def slowdown(self) -> float:
        """Median kernel time over CALIBRATION_S; above 1 is slower than reference."""
        return statistics.median(self.kernel_times) / CALIBRATION_S
