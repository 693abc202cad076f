"""Operation times in seconds and in reference seconds.

On a box whose cores are shared with other tenants, the same work runs
about 1.6 times slower at some moments than at others, and the box switches
between such speeds within a fraction of a second, also in the middle of
an operation.  So while a run is timing things, a timer interrupts the
main thread every ``INTERVAL_S`` and runs a fixed snippet of the
package's kind of work (BFS over adjacency lists, big-integer bit
operations) with none of its code, so no change to the package can move
it.  The snippet's CPU time gives the box's speed at that moment,
``REFERENCE_S`` over that time.

An operation's time in seconds leaves out the snippets run during it.  Its
time in reference seconds is that times the mean speed sampled during it:
seconds on a box where the snippet always takes ``REFERENCE_S``.  Every
time the benchmark reports is in reference seconds; its detail files keep
plain seconds too, and ``stability.py`` prints the spread of both over the
same runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from collections import deque

# About the snippet's CPU time on the 2-core box of the baseline, CPython 3.11.
REFERENCE_S = 0.0005
INTERVAL_S = 0.02
_RING = 600
_RING_ADJ = [[(i + 1) % _RING, (i - 1) % _RING, (i * 7 + 3) % _RING] for i in range(_RING)]


def _snippet() -> float:
    """Run the snippet; its CPU time on this thread, which leaves out any
    wait for the interpreter lock."""
    start = time.thread_time()
    for root in (0, _RING // 2):
        dist = [-1] * _RING
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in _RING_ADJ[u]:
                if dist[w] < 0:
                    dist[w] = du
                    queue.append(w)
    x = 0
    for i in range(600):
        x |= 1 << (i % 1500)
        x &= ~(1 << (i * 13 % 1500))
    return time.thread_time() - start


class Clock:
    """Times calls; inside ``with clock:`` it samples the box's speed.

    Outside the ``with`` block only the sample taken when the clock was
    made is there, so every call is scaled by that one speed.
    """

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._spent = 0.0
        self._busy = False
        self._sample()

    def _sample(self, *_signal_args) -> None:
        if self._busy:  # a late signal during a sample
            return
        self._busy = True
        try:
            start = time.perf_counter()
            speed = REFERENCE_S / _snippet()
            self.times.append(start)
            self.speeds.append(speed)
            self._spent += time.perf_counter() - start
        except RecursionError:
            # The signal came at the bottom of a deep recursion, with no
            # room for the snippet: skip this sample rather than raise into
            # the code being timed.
            pass
        finally:
            self._busy = False

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """The median speed sampled so far, as a share of the reference."""
        return statistics.median(self.speeds)

    def time(self, fn):
        """Call ``fn``; afterwards ``raw`` and ``ref`` hold its duration in
        seconds and reference seconds, also when it raised."""
        spent = self._spent
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.raw = end - start - (self._spent - spent)
            lo = bisect.bisect_left(self.times, start)
            hi = bisect.bisect_right(self.times, end)
            # A call too short to be sampled takes the latest sample.
            during = self.speeds[lo:hi] or self.speeds[hi - 1:hi]
            self.ref = self.raw * statistics.fmean(during)
