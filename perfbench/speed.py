"""Machine-speed reference, so that runs at different moments compare.

The benchmark runs on a host shared with other jobs, whose speed drifts by
tens of percent over seconds to minutes: raw times of the same code differ
more between runs than any bound worth keeping.  So the benchmark measures
a fixed reference kernel between timed operations and scales each timed
interval by ``REFERENCE_S`` over the kernel time around it.  A reported
time is "seconds at reference speed": how long the interval would take when
the kernel takes ``REFERENCE_S``.  On a quiet host that is the raw time.

The kernel imports nothing from chebsum, so a change to the program moves
the scaled times and never the kernel.  It mixes the two kinds of work the
program does: a sparse product of dict polynomials with tuple exponents and
int coefficients (the shape of ``Poly.__mul__``), and short NumPy
recurrences on a 2000-point array (the shape of the float evaluators).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time (median of KERNEL_REPEATS runs) on the reference
# machine, 2 shared x86_64 CPUs, Python 3.11, quiet.
REFERENCE_S = 1.6e-3
KERNEL_REPEATS = 5
# Between operations a new sample is taken once this much time has passed.
SAMPLE_INTERVAL_S = 0.2

_A = {(i % 5, (i // 5) % 3, i // 15, i % 2): (i * 7919) % 1009 - 500 for i in range(45)}
_B = {((i + 1) % 4, (i // 4) % 4, i // 16, (i + 1) % 2): (i * 104729) % 997 - 498
      for i in range(40)}
_X = np.linspace(-1.0, 1.0, 2000)


def kernel() -> int:
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    acc = np.zeros_like(_X)
    for j in range(120):
        acc = acc * _X + (j % 5)
    return len(out) + int(acc[0])


def kernel_time() -> float:
    """Median time of KERNEL_REPEATS kernel runs."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedMeter:
    """Kernel samples over a run, and the scale of any interval between them.

    ``samples[i]`` is (end time, kernel time).  An interval that started
    after sample ``i - 1`` and ended before sample ``i`` is scaled by
    ``REFERENCE_S`` over the mean of those two kernel times.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> int:
        """Take a sample now; returns the number of samples so far."""
        k = kernel_time()
        self.samples.append((time.perf_counter(), k))
        return len(self.samples)

    def due(self) -> int:
        """Take a sample if SAMPLE_INTERVAL_S has passed since the last one."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_INTERVAL_S:
            self.sample()
        return len(self.samples)

    def scale(self, after: int) -> float:
        """Scale of an interval that began after the first ``after`` samples
        and ended before the next one was taken."""
        before = self.samples[after - 1][1]
        nxt = self.samples[after][1] if after < len(self.samples) else before
        return REFERENCE_S / ((before + nxt) / 2)

    def median_scale(self) -> float:
        """Scale for the run as a whole, from the median kernel time."""
        return REFERENCE_S / statistics.median(k for _, k in self.samples)

    def median_kernel_ms(self) -> float:
        return statistics.median(k for _, k in self.samples) * 1e3
