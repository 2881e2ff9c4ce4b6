"""A machine-speed reference, sampled while the workload runs.

The benchmark runs on a shared host whose speed drifts by a third within a few
minutes: a fixed loop, and every workload with it, runs that much slower while
neighbours are busy, although the process keeps its CPU. Wall time alone then
measures the neighbours. ``SpeedProbe`` runs a fixed unit of work (an
interpreter loop and a chain of 64x64 matrix products, a few milliseconds, small
enough to stay in cache) from a ``SIGALRM`` handler every ``TICK_S`` seconds of
timed work. The mean time of those units over a segment (a set-up or a pass)
says how fast the machine was while that segment ran. A segment's work time is
its wall time minus the probe's own time; scaled by ``NOMINAL_UNIT_S`` over the
mean unit time, it is the time the work would have taken on a machine where
one unit takes ``NOMINAL_UNIT_S``.

With the probe off (traced runs, whose spans would absorb the probe's time),
``timed`` is a plain wall-clock timer and ``scale`` is 1.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

TICK_S = 0.1                # seconds of timed work between two probe units
NOMINAL_UNIT_S = 5.0e-3     # unit time at the speed figures are reported at

_RNG = np.random.default_rng(0x5BEED)
_M = _RNG.standard_normal((64, 64)) / 8.0


def probe_unit() -> float:
    """The fixed unit of work; returns a value so nothing is optimised away."""
    acc = {}
    for i in range(20_000):
        acc[i & 1023] = acc.get(i & 1023, 0) + i
    y = _M
    for _ in range(40):
        y = np.tanh(_M @ y)
    return float(y[0, 0]) + len(acc)


class SpeedProbe:
    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []  # seconds per probe unit, in order
        self._remaining = TICK_S        # time to the next tick, carried between segments

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_unit()
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def installed(self):
        """Install the handler for the block; the timer runs only inside ``timed``."""
        if not self.active:
            yield self
            return
        for _ in range(5):      # warm up outside any timed segment
            probe_unit()
        previous = signal.signal(signal.SIGALRM, self._tick)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """``(fn(*args), work seconds, probe units taken meanwhile)``.

        Ticks count only time spent in ``timed``, so short segments such as
        a quick set-up still collect units over their repeats."""
        first = len(self.samples)
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, self._remaining, TICK_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            if self.active:
                self._remaining = signal.setitimer(signal.ITIMER_REAL, 0.0)[0] or TICK_S
            wall = time.perf_counter() - t0
        taken = self.samples[first:]
        return out, wall - sum(taken), taken

    @staticmethod
    def scale(taken: list[float]) -> float:
        """Factor from work seconds to seconds at the nominal speed."""
        return NOMINAL_UNIT_S / statistics.fmean(taken) if taken else 1.0
