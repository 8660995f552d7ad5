"""Reference clock: stage times in seconds of a nominal-speed machine.

The core this benchmark runs on changes speed by up to +-20 % in bursts
that last seconds, with slower drifts on top. Timing a stage in wall or
CPU seconds therefore measures the machine as much as the program. The
``Sampler`` below runs a fixed reference kernel on the main thread every
``INTERVAL_S`` seconds while a stage runs (a ``SIGALRM`` interval timer
triggers it) and times each kernel call with the thread's CPU clock, so
waiting on the interpreter lock does not count. A stage's normalized
time is

    (stage wall time - wall time spent in samples) * R0 / mean sample CPU time

in ``s_ref``: seconds on this machine at nominal speed. The kernel mixes
the kinds of work the simulator does, because a kernel of numpy calls
alone tracked the numpy-bound tracker but not the object-bound channel
synthesis: (1000, 6)-array numpy ops, frozen-dataclass construction,
float math and ``repr`` formatting.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# CPU seconds of one kernel call at nominal speed on the reference machine
# (2-core VM, Python 3.11, numpy 2.4): the speed at which the default
# pipeline's stages took about as many wall seconds as they take s_ref.
R0 = 1.3e-3
INTERVAL_S = 0.05
# A stage shorter than a few intervals takes its speed from the samples
# nearest to it in time.
MIN_SAMPLES = 3

_N_ROWS = 1000
_N_OBJECTS = 160


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("non-finite point")


class ReferenceKernel:
    """A fixed amount of mixed numpy and object work, the same on every call."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20231128)
        self.states = rng.normal(50.0, 20.0, size=(_N_ROWS, 6))
        self.noise = rng.normal(0.0, 0.1, size=(_N_ROWS, 6))
        self.grid = (0.5 + np.arange(_N_ROWS)) / _N_ROWS
        self.values = [float(v) for v in rng.normal(0.0, 1.0, size=_N_OBJECTS)]

    def __call__(self) -> float:
        s = self.states
        total = 0.0
        for shift in (0.0, 0.1):
            pos = s[:, :3] + s[:, 3:] * shift + self.noise[:, :3]
            vel = s[:, 3:] + self.noise[:, 3:]
            d = np.sqrt(np.sum(pos * pos, axis=1))
            az = np.arctan2(pos[:, 1], pos[:, 0])
            el = np.arcsin(np.clip(pos[:, 2] / d, -1.0, 1.0))
            res = np.mod(az - 0.3 + np.pi, 2.0 * np.pi) - np.pi
            log_w = -0.5 * ((d - 80.0) / 5.0) ** 2 - 0.5 * (res / 0.02) ** 2 - 0.5 * (el / 0.02) ** 2
            w = np.exp(log_w - np.max(log_w))
            w /= np.sum(w)
            idx = np.minimum(np.searchsorted(np.cumsum(w), self.grid, side="right"), _N_ROWS - 1)
            total += float(np.concatenate([pos, vel], axis=1)[idx][0, 0])

        acc = 0.0
        parts = []
        for v in self.values:
            p = _Point(v, 2.0 * v, 0.5 - v)
            q = _Point(p.x + 1.5, p.y - 0.25, p.z * 3.0)
            r = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
            acc += math.atan2(q.y, q.x) + math.asin(q.z / r) + r
            parts.append(repr(q.x))
            parts.append(repr(r))
        return acc + len(",".join(parts)) + total


@dataclass(frozen=True)
class Sample:
    """One kernel call: wall start and end (perf_counter), CPU seconds, tag."""

    start: float
    end: float
    cpu: float
    tag: int


class Sampler:
    """Runs the reference kernel from a SIGALRM interval timer.

    ``tag`` is called at each sample and its value stored with it; the
    tracer uses it to attribute the sample to the span it interrupted.
    """

    def __init__(self, tag: Callable[[], int] | None = None) -> None:
        self.kernel = ReferenceKernel()
        self.samples: list[Sample] = []
        self._tag = tag
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late alarm arriving inside a sample is dropped
            return
        self._busy = True
        try:
            tag = self._tag() if self._tag is not None else -1
            t0 = time.perf_counter()
            c0 = time.thread_time()
            self.kernel()
            c1 = time.thread_time()
            t1 = time.perf_counter()
            self.samples.append(Sample(t0, t1, c1 - c0, tag))
        finally:
            self._busy = False

    def start(self) -> None:
        self.kernel()  # first call pays for lazy numpy set-up, untimed
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def within(self, start: float, end: float) -> list[Sample]:
        """Samples taken between two perf_counter readings."""
        return [s for s in self.samples if start <= s.start and s.end <= end]

    def speed_samples(self, start: float, end: float) -> list[Sample]:
        """Samples that set the machine speed for the interval.

        The samples inside it, or the MIN_SAMPLES nearest to its middle
        when it holds fewer.
        """
        inside = self.within(start, end)
        if len(inside) >= MIN_SAMPLES or len(self.samples) <= len(inside):
            return inside
        mid = 0.5 * (start + end)
        return sorted(self.samples, key=lambda s: abs(0.5 * (s.start + s.end) - mid))[:MIN_SAMPLES]

    def factor(self, start: float, end: float) -> float:
        """R0 over the mean sample CPU time: s_ref per second of work."""
        ref = self.speed_samples(start, end)
        if not ref:
            raise RuntimeError("no reference samples were taken")
        return R0 / statistics.fmean(s.cpu for s in ref)

    def normalized(self, start: float, end: float) -> float:
        """Stage time in s_ref for a stage that ran from ``start`` to ``end``."""
        sampled = sum(s.end - s.start for s in self.within(start, end))
        return (end - start - sampled) * self.factor(start, end)
