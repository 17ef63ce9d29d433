"""Host speed: a fixed reference kernel timed between measured operations.

The benchmark runs on a few cores of a shared host.  There the same
code ran up to about 40% slower for tens of seconds at a time, in CPU
time as much as in wall time, so no statistic taken within one run
could make two runs agree.  What does track it is a fixed kernel that
uses no program code: timed between the measured operations, its
rolling median rises and falls with the host.

A measured time is divided by the *speed factor* around it, the median
time of the nearest probes over :data:`NOMINAL_S`, so times read as on
a host that runs the kernel in ``NOMINAL_S``; rates are multiplied by
it.  The kernel never calls the program, so a program that gets slower
still reads slower.  Raw figures stay in the report file.

A pure-Python kernel tracks the program best.  Over five seeds,
dictionary updates in a loop cut the spread of the engines' median tick
time from 0.22-0.25 of its median to 0.02-0.06 at one time and to 0.13
(scalar) at another, when method calls on small objects and a keyed
sort, this kernel, left 0.035; a small-matrix numpy kernel, or one that
misses the cache on a large dictionary, tracked it less well.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the kernel takes on the nominal host, an unloaded x86_64
#: vCPU running CPython 3.11.
NOMINAL_S = 100e-6

#: Probes on either side of a moment whose median gives its factor.
NEIGHBOURS = 10


class _Body:
    __slots__ = ("x", "v")

    def __init__(self, x: float, v: float) -> None:
        self.x = x
        self.v = v

    def advance(self, dt: float) -> float:
        self.x += self.v * dt
        return self.x


def kernel() -> float:
    """The reference work: method calls on small objects, and a keyed sort."""
    bodies = [_Body(float(i), 0.5) for i in range(40)]
    total = 0.0
    for _ in range(9):
        for body in bodies:
            total += body.advance(0.1)
        bodies.sort(key=lambda body: -body.x)
    return total


class HostSpeed:
    """Probe times on one clock (``time.perf_counter`` unless given), and
    the speed factors they give."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._at: list[float] = []
        self._took: list[float] = []

    def probe(self, repeat: int = 1) -> None:
        """Time the kernel ``repeat`` times, now."""
        clock = self._clock
        for _ in range(repeat):
            started = clock()
            kernel()
            ended = clock()
            self._at.append(started)
            self._took.append(ended - started)

    def factors(self, moments) -> np.ndarray:
        """The speed factor at each of ``moments`` (times on the clock).

        It is the median over the ``NEIGHBOURS`` probes on either side
        of the moment, divided by ``NOMINAL_S``: above 1 on a slow host.
        """
        if not self._took:
            raise AssertionError("host speed: no probe was taken")
        at = np.asarray(self._at)
        took = np.asarray(self._took)
        order = np.argsort(at, kind="stable")
        at, took = at[order], took[order]
        index = np.searchsorted(at, np.asarray(moments, dtype=float))
        return np.array([
            np.median(took[max(0, i - NEIGHBOURS): i + NEIGHBOURS])
            for i in np.atleast_1d(index)
        ]) / NOMINAL_S

    def overall(self) -> float:
        """The median factor over every probe taken."""
        return float(np.median(self._took)) / NOMINAL_S
