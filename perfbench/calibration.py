"""Host-speed calibration for the timed runs.

On a shared host the CPU time of a fixed piece of Python code swings by up
to 1.6x over minutes, as other tenants load the same cores and caches. Two
runs of the same code a minute apart then differ more than the changes the
benchmark is meant to show. The swing is common to all interpreted code, so
the harness measures it alongside the jobs and divides it out.

While a timed run is on, an interval timer (``ITIMER_REAL``) fires every
``INTERVAL_S`` of wall time. Its handler runs a fixed reference
kernel, written here and independent of the package, and records the
kernel's CPU time. A CPU-time timer (``ITIMER_PROF``) would not do: while
one is armed, Linux reads the process CPU clock at scheduler-tick
granularity (4 ms). The handler's time is subtracted from any job it
interrupts, so the jobs' raw times exclude it.

A calibrated time is a raw CPU time scaled by ``NOMINAL_S`` over the mean
kernel time around it: the time the job would take on a host where the
kernel takes ``NOMINAL_S``. The mean, not the median, because a job slows
by the average slowdown over its run, stalls included; on a 2-vCPU Xeon VM
the mean tracked the Church sweep jobs' times with slope 1.0 and r = 0.96,
the median with slope 0.6-0.7. A program change moves a calibrated time as
it moves the raw one, since the kernel is the same on both commits.
"""

import gc
import random
import signal
import statistics

from tracing import clock

# Reference kernel CPU time on an uncontended core of the host where the
# benchmark was sized (Intel Xeon, family 6 model 143, Python 3.11).
NOMINAL_S = 0.004
INTERVAL_S = 0.2
# A job run with at least this many kernel samples taken during it is
# calibrated by their mean rather than by its pass's.
LOCAL_MIN = 8


def reference_kernel():
    """A fixed mix of what the package does: tuple keys in dicts, sorting
    with a key function, building and walking small trees, and strings."""
    rng = random.Random(5)
    counts = {}
    for i in range(2500):
        key = (rng.randrange(300), ("x", i % 7))
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))

    def tree(n):
        return None if n == 0 else (tree(n - 1), n, tree(n - 2) if n > 1 else None)

    def size(node):
        return 0 if node is None else 1 + size(node[0]) + size(node[2])

    total = sum(size(tree(11)) for _ in range(4))
    text = "".join(f"({a}->{b[1]})" for (a, b), _ in ranked[:200])
    return total + len(text)


class Calibrator:
    """Samples the reference kernel on a wall-time timer while started."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # CPU time spent inside the handler so far
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        # The kernel's garbage is freed by reference counting; a collection
        # here would walk the job's heap and charge it to the sample.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            reference_kernel()
            elapsed = clock() - start
            self.samples.append(elapsed)
            self.spent += clock() - start
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_since(self, mark, minimum=1):
        """Mean of the samples taken since ``len(samples)`` was ``mark``, or
        None when there are fewer than ``minimum`` (at least 1)."""
        recent = self.samples[mark:]
        return statistics.fmean(recent) if len(recent) >= minimum else None
