"""Host-speed sampler: scales measured times to a fixed reference speed.

The machine this benchmark was written on is a shared VM whose speed drifts
by tens of percent over seconds and minutes, in CPU time as much as in wall
time, so two runs of the same code can differ by more than any useful
regression bound.  The sampler measures that drift while the workload runs
and divides it out.

Every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs a fixed
reference kernel (exact ``Fraction`` arithmetic, the stdlib scalar the
engine's own arithmetic is built on, with the garbage collector paused) and
records its duration r_i.  Over an interval of the workload with net time T
(wall time minus the handler's own time) the scaled time is

    T * REFERENCE_S * mean(1 / r_i)

that is, the time the same work would take at the speed where the kernel
takes ``REFERENCE_S``.  A change to the engine moves T and leaves the kernel
alone, so it moves the scaled time by the same factor.  The handler costs
about 1% of the wall time; its time is taken out of T, its effect on the
CPU caches is not.

No thread and no process is started: the handler runs in the main thread
between bytecodes.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
# The kernel's time in a typical phase of the machine in perfbench/README.md,
# so that scaled times read close to seconds there.
REFERENCE_S = 9e-5


def _kernel():
    a = Fraction(1, 3)
    for i in range(1, 16):
        a = a * Fraction(i, i + 1) + Fraction(1, i)
    return a


class SpeedSampler:
    """Samples the reference kernel on a wall-clock timer."""

    def __init__(self):
        self.busy = 0.0         # total time spent in the handler
        self.inv_sum = 0.0      # sum of 1 / r_i
        self.count = 0

    def _tick(self, _signum, _frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.busy += dt
        self.inv_sum += 1.0 / dt
        self.count += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A snapshot to measure an interval from."""
        return (time.perf_counter(), self.busy, self.inv_sum, self.count)

    def figures(self, mark):
        """(handler seconds, mean 1/r_i) over the interval since ``mark``."""
        _t0, busy0, inv0, n0 = mark
        n = self.count - n0
        if n == 0:
            raise RuntimeError("no speed sample in the interval")
        return self.busy - busy0, (self.inv_sum - inv0) / n

    def since(self, mark):
        """(net seconds, mean 1/r_i) over the interval since ``mark``."""
        wall = time.perf_counter() - mark[0]
        busy, mean_inv = self.figures(mark)
        return wall - busy, mean_inv


def scaled(net, mean_inv):
    """Net seconds at the reference speed."""
    return net * REFERENCE_S * mean_inv
