"""Time a call and scale it to a reference machine speed.

The benchmark's machine shares its cores with other tenants.  A core's
speed flips between about full and half speed many times a second (slow
spells last from tens of milliseconds to over ten seconds), so two wall
times of the same call can differ by a factor of two.  A fixed
pure-Python calibration loop slows down with the core, so the ratio of a
call's time to the loop's time stays put while the machine swings.

`Speedometer.measure` runs the loop a few times just before and after the
call, and from a SIGALRM every TICK_S during it, so that a long call is
sampled all through.  The time spent in the ticks is taken out of the
call's wall time, and the rest is multiplied by LOOP_REF_S over the mean
loop time: seconds at the reference speed.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# the calibration loop's time at the reference speed, about its time on a
# full-speed core of the machine the README figures come from
LOOP_REF_S = 1e-4
TICK_S = 0.002
EDGE_LOOPS = 5


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 1009

    def __mul__(self, other):
        return _Residue(self.v * other.v)

    def __add__(self, other):
        return _Residue(self.v + other.v)


def loop_s() -> float:
    """Seconds one pass of the calibration loop takes now: object creation,
    method calls, integer and dict work, like lexgb's kernel.  The loop is
    the benchmark's own and never changes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = {}
        x, s = _Residue(3), _Residue(0)
        for i in range(100):
            s = s * x + _Residue(i)
            acc[(i & 15, i >> 4)] = s.v
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Measures calls one after another; the loops run after one call also
    serve as the loops before the next."""

    def __init__(self):
        self.edge: list[float] = []
        self.ticks: list[float] = []
        self.tick_s = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        self.ticks.append(loop_s())
        self.tick_s += perf_counter() - start

    def measure(self, fn, arg):
        """(output, exception, wall seconds, scaled seconds) of fn(arg); the
        wall seconds include the ticks, the scaled ones do not."""
        before = self.edge or [loop_s() for _ in range(EDGE_LOOPS)]
        self.ticks, self.tick_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        out = exc = None
        try:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            start = perf_counter()
            try:
                out = fn(arg)
            except Exception as error:  # the caller counts it as a failed operation
                exc = error
            elapsed = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.edge = [loop_s() for _ in range(EDGE_LOOPS)]
        samples = before + self.ticks + self.edge
        return out, exc, elapsed, (elapsed - self.tick_s) * LOOP_REF_S * len(samples) / sum(samples)
