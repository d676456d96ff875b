"""Host-speed probe: report host seconds at a fixed reference speed.

The shared 2-core machine this benchmark was built on switches between
a fast and a ~1.4x slower mode many times a second, and the share of
time spent slow drifts over minutes.  Raw times of the same replay then
differ by 30% or more between runs a few minutes apart, beyond any
useful regression bound.

While a worker runs, ``SIGALRM`` fires every :data:`INTERVAL_S` and the
handler times :func:`_probe_loop`, a fixed piece of interpreter work
(calls, list and attribute stores, small-int arithmetic) that allocates
nothing the garbage collector tracks.  For a timed window, the probe's
own time is subtracted and the rest is scaled by ``NOMINAL_S`` over the
mean probe time inside the window: the seconds the window would have
taken on a machine where the probe takes ``NOMINAL_S``.  Work removed
from or added to the program still moves these seconds one for one;
only the machine's speed cancels.  Raw seconds are printed beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

INTERVAL_S = 0.02
NOMINAL_S = 1.25e-4  # median probe time on the 2-core x86-64 machine the bounds were set on


class _Cell:
    __slots__ = ("value",)


_CELL = _Cell()
_BUFFER = [0] * 64


def _step(index: int, value: int) -> int:
    return (value * 31 + index) & 0xFFFF


def _probe_loop() -> int:
    buffer, cell, value = _BUFFER, _CELL, 0
    for index in range(600):
        value = _step(index, buffer[index & 63])
        buffer[(index * 7) & 63] = value
        cell.value = value
    return value


class SpeedProbe:
    """Samples ``(start, seconds)`` of the probe loop on a wall-clock timer."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """``(reference seconds, speed)`` of the wall-clock window.

        ``speed`` is ``NOMINAL_S`` over the mean probe time in the window
        (1.0 = reference speed).  A window too short to hold a probe is
        returned raw at speed 1.0.
        """
        inside = [seconds for at, seconds in self.samples if start <= at < end]
        if not inside:
            return end - start, 1.0
        speed = NOMINAL_S / statistics.fmean(inside)
        return (end - start - sum(inside)) * speed, speed
