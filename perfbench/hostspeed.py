"""Host-speed correction for shared, noisy hosts.

On a shared host the same pure-Python work can run 20-70% slower for
seconds at a time because of other tenants; the guest sees no steal
time, only a slower CPU.  :class:`SpeedClock` measures that directly: a
``SIGALRM`` timer interrupts the program every :data:`TICK_S` seconds
and times a fixed calibration snippet.  The program time of each tick
interval is weighted by the host's relative speed in it,
``REFERENCE_CAL_S / snippet time``, and the weighted sum is the program
time in *reference seconds*: the seconds it would have taken on a host
where the snippet runs in :data:`REFERENCE_CAL_S`.  The snippet's own
time is excluded from both.  A change to the program moves reference
seconds as it moves wall seconds; a change in host speed does not.
"""

from __future__ import annotations

import signal
import time

TICK_S = 0.05
"""Sampling interval."""
CAL_ITERATIONS = 4_000
REFERENCE_CAL_S = 0.00067
"""The snippet's time on a quiet host: x86-64 at 2.1 GHz, CPython 3.11."""


def calibration_snippet(n: int = CAL_ITERATIONS) -> float:
    """Seconds taken by a fixed loop of dict and integer work."""
    table: dict[int, int] = {}
    acc = 0
    start = time.perf_counter()
    for i in range(n):
        table[i & 1023] = acc
        acc = (acc + table.get((i * 7) & 1023, 0) + i) & 0xFFFF
    return time.perf_counter() - start


class SpeedClock:
    """Measures the program time of a ``with`` body in reference seconds.

    Afterwards :attr:`wall_s` holds the body's wall time and
    :attr:`reference_s` the same time corrected for host speed, both
    without the calibration time.  The clock owns ``SIGALRM`` while it
    runs, so only one may run at a time, in the main thread.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.samples: list[float] = []
        self._mark = 0.0

    def _sample(self) -> None:
        span = time.perf_counter() - self._mark
        cal = calibration_snippet()
        self.wall_s += span
        self.reference_s += span * REFERENCE_CAL_S / cal
        self.samples.append(cal)
        self._mark = time.perf_counter()

    def __enter__(self) -> SpeedClock:
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self._sample())
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # the last, partial interval
