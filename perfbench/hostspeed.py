"""Host speed, sampled while a workload runs, to normalise its times.

The benchmark shares a few cores of a busy host.  How fast those cores
run Python changes by up to 1.7x from one ten-second stretch to the
next, and by as much between two sets of runs a few minutes apart.  The
same repetition of the same code then reads anywhere from 24 to 34 s.
The hypervisor reports almost none of it as steal time, and the
process's CPU time rises with it, so neither CPU time nor ``wall - steal``
removes it.

:class:`Sampler` measures the host's speed while the workload runs: every
``INTERVAL_S`` of wall time a timer signal runs a fixed pure-Python loop
(:func:`_kernel`) in the workload's own thread and records how much
thread CPU time it took.  Thread CPU time leaves out time the thread
waits for a CPU behind the workload's own worker processes, and keeps
in whatever slows the core itself down.

:meth:`Sampler.normalise` turns a measured span into *reference
seconds*: the span, less the loop's own time, times the mean over the
span's samples of ``REFERENCE_S / sample``.  That is the time the span
would have taken on a host on which the loop takes ``REFERENCE_S``.  It
moves with the program's own work exactly as wall time does; what the
host does to both largely cancels out.  Not wholly: across a 1.5x
change in host speed, rocket-testing's reference seconds still moved
by about 9%, against 26% for its wall time.  The loop costs about 0.5%
of the run.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

INTERVAL_S = 0.02
#: Thread CPU time of one sample on the reference host.  A quiet 2-core
#: Xeon VM takes 65-75 us; the same VM on a busy host up to 1.7x that.
REFERENCE_S = 100e-6


def _kernel() -> None:
    """One sample's work: interpreter dispatch and dict access in L1.

    A kernel that also walks a table bigger than the caches was tried
    and dropped: the workload's own cache pressure slowed it, so it
    measured the workload as well as the host.
    """
    table = {}
    for i in range(600):
        key = i & 63
        table[key] = table.get(key, 0) + i


class Sampler:
    """Samples host speed on ``SIGALRM`` between ``start`` and ``stop``."""

    def __init__(self) -> None:
        #: (``time.monotonic()`` at the end of the sample, loop CPU time,
        #: loop wall time)
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        wall0 = time.monotonic()
        cpu0 = time.thread_time()
        _kernel()
        cpu = time.thread_time() - cpu0
        wall1 = time.monotonic()
        self.samples.append((wall1, cpu, wall1 - wall0))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _within(self, t0: float, t1: float):
        return [s for s in self.samples if t0 <= s[0] <= t1]

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed over [t0, t1], 1.0 being the reference host."""
        return statistics.fmean(REFERENCE_S / max(cpu, 1e-9)
                                for _end, cpu, _wall in self._within(t0, t1))

    def overhead(self, t0: float, t1: float) -> float:
        """Wall time the loop itself took inside [t0, t1]."""
        return sum(wall for _end, _cpu, wall in self._within(t0, t1))

    def normalise(self, t0: float, t1: float, seconds: float = None) -> float:
        """Reference seconds of ``seconds`` measured over [t0, t1].

        ``seconds`` defaults to the span itself; pass the span's CPU time
        to normalise that instead.
        """
        if seconds is None:
            seconds = t1 - t0
        return (seconds - self.overhead(t0, t1)) * self.speed(t0, t1)
