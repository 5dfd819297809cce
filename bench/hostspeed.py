"""Timing that cancels the host's speed swings.

The benchmark runs on a few vCPUs of a shared host whose speed swings by
tens of percent, and at times by a factor of two, within seconds.  CPU time
swings with wall time, so the slowdown is not time spent descheduled, and a
median over the calls of one run cannot remove a swing that lasts the
whole run.

``HostClock.time`` therefore samples the host's speed while it times a
call: a ``SIGALRM`` timer runs a fixed pure-Python kernel, which uses no
dsrg code, every ``PERIOD_S`` seconds during the call, and the kernel also
runs once just before and once just after it.  The call's time is its wall
time minus the time spent in the kernel, and its *normalised* time is that
wall time scaled by ``REFERENCE_S`` over the mean kernel time: the time the
call would take on a host that runs the kernel in ``REFERENCE_S``.  A swing
of the host slows the kernel and the call alike and cancels; a change in
the work the library does changes only the call.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
# A fixed scale: normalised times are seconds on a host that runs the
# kernel in 0.3 ms.  A quiet 2-vCPU host with Python 3.11 takes about that;
# a busy one takes up to 0.6 ms, and its wall times read up to twice the
# normalised ones.
REFERENCE_S = 0.0003
WARM_UP = 200


def kernel() -> int:
    """Bit-matrix work of the kind the library does: build a 40 x 40 0/1
    matrix as int rows, transpose it bit by bit, count common neighbours
    with popcounts and sort the resulting invariants.  Host swings slow it
    about as much as they slow the library; a tight arithmetic loop slowed
    more and made normalised times read low on a slow host."""
    n = 40
    rows = [sum(1 << ((i * 7 + d * d) % n) for d in range(9)) for i in range(n)]
    cols = [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]
    invariants = sorted((sum((r & c).bit_count() for c in cols[:10]), i)
                        for i, r in enumerate(rows))
    return invariants[-1][0]


class HostClock:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        for _ in range(WARM_UP):  # until the interpreter has specialised it
            kernel()

    def _sample(self, *_) -> None:
        t = perf_counter()
        kernel()
        elapsed = perf_counter() - t
        self.samples.append(elapsed)
        self.spent += elapsed

    def time(self, fn, *args):
        """Call ``fn(*args)``; return its result, its wall time without the
        kernel's, and that time normalised to the reference host speed."""
        self.samples = []
        self._sample()
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t = perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - self.spent
        self._sample()
        return result, wall, wall * REFERENCE_S / statistics.mean(self.samples)
