"""A fixed reference computation, sampled through a workload run to gauge the core's speed.

A small shared host does not run a process at a steady speed: the same
code can take 1.6 times as long for minutes at a time, in CPU time as in
wall time, because other tenants contend for the core, its caches and the
memory bus.  A run's wall seconds carry that drift.  The sampler times this
fixed computation every ~0.2 s during the run, from a SIGALRM handler on
the run's own thread and core, so its samples are slowed by the same
contention as the presets around them.  ``run_refs``, the run's own time
divided by the mean sample, cancels most of the drift; a change to
casimirlab moves it in proportion to the run's time.

The kernel mixes the three kinds of work the presets do, in roughly equal
time: 2-D FFT round trips with spectral products (the vortex presets), dense
128 x 128 solves (the ion-acoustic Newton closure), and elementwise
arithmetic on small arrays (the finite-dimensional and KdV steppers).  It
binds numpy's functions at import, so the tracer's counters never see it.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

import numpy as np
from numpy.fft import irfft2, rfft2
from numpy.linalg import solve

_RNG = np.random.default_rng(20141009)
_GRID = _RNG.standard_normal((64, 64))
_SYMBOL = _RNG.standard_normal((64, 33))
_MATRIX = _RNG.standard_normal((128, 128)) + 128.0 * np.eye(128)
_VECTOR = _RNG.standard_normal(128)
_SMALL = _RNG.standard_normal((2, 50))

FFT_REPS, SOLVE_REPS, SMALL_REPS = 12, 10, 450
PERIOD_S = 0.2  # mean time between samples; each sample takes ~6 ms


def kernel() -> float:
    """Run the reference computation once; return a checksum of its results."""
    total = 0.0
    for _ in range(FFT_REPS):
        h = rfft2(_GRID)
        a = irfft2(h * _SYMBOL, s=_GRID.shape)
        b = irfft2(h * (1j * _SYMBOL), s=_GRID.shape)
        total += float((a * b).sum())
    for _ in range(SOLVE_REPS):
        total += float(solve(_MATRIX, _VECTOR)[0])
    y = _SMALL
    for _ in range(SMALL_REPS):
        y = y + 0.001 * (np.sin(y) - 0.5 * y)
    return total + float(y.sum())


class Sampler:
    """Time ``kernel`` at jittered intervals while the ``with`` block runs.

    The timer is one-shot and re-armed at the end of each sample.  ``samples``
    holds each kernel time and ``spent`` the seconds the timer's samples took
    in all, which the caller subtracts from the block's wall time.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        self._jitter = random.Random(0)
        self._previous = None

    def _arm(self):
        signal.setitimer(signal.ITIMER_REAL, self.period * (0.5 + self._jitter.random()))

    def sample(self):
        """Time the kernel once; also called directly, before and after the block."""
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.sample()
        self._arm()
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._arm()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
