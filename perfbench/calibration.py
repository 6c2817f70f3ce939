"""The calibration unit (cu) that every timing metric is expressed in.

Host CPU speed on a shared machine drifts between runs, and within one run,
by far more than the changes the benchmark has to resolve. The benchmark
therefore times a fixed micro-loop of its own alongside the program: small
numpy ops on 16 x 16 float64 arrays plus the creation of one closure per
iteration, the same grain of work as one tape record. One cu is the
duration of that loop.

``CalibratedClock.between_ops`` takes a sample whenever ``INTERVAL_S`` of
wall time has passed since the last one, so samples spread through the
timed phase. The host switches speed within a run too (on the 2-core
machine this was tuned on, between a fast state and one in which this loop
takes 1.6 to 1.8 times as long, several times a second), so an interval of
work is divided by the cu measured around it: the median of the
``NEAREST`` samples closest in time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

LOOP_ITERATIONS = 100
INTERVAL_S = 0.02
NEAREST = 5


def calibration_loop() -> int:
    a = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
    b = np.ascontiguousarray(a.T)
    kept = []
    for _ in range(LOOP_ITERATIONS):
        c = a @ b
        d = c * 0.5 + a
        e = d - d.max(axis=1, keepdims=True)
        kept.append(lambda g, e=e: g @ e.T)
        a = np.tanh(e)
    return len(kept)


class CalibratedClock:
    def __init__(self):
        self.samples: list[float] = []
        self.midpoints: list[float] = []
        for _ in range(5):  # warm up
            calibration_loop()
        self._last = 0.0
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.midpoints.append(0.5 * (start + self._last))

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def cu_seconds(self) -> float:
        """The run's median cu, for context; metrics use ``local_cu``."""
        return statistics.median(self.samples)

    def local_cu(self, times: np.ndarray) -> np.ndarray:
        """For each time, the median of the ``NEAREST`` samples closest to it."""
        mids = np.asarray(self.midpoints)
        samples = np.asarray(self.samples)
        k = min(NEAREST, len(samples))
        times = np.asarray(times, dtype=float)
        # the k nearest samples lie within the k positions either side of the insertion point
        width = min(2 * k, len(mids))
        first = np.clip(np.searchsorted(mids, times) - k, 0, len(mids) - width)
        window = first[:, None] + np.arange(width)[None, :]
        distance = np.abs(mids[window] - times[:, None])
        nearest = np.take_along_axis(window, np.argsort(distance, axis=1, kind="stable")[:, :k], axis=1)
        return np.median(samples[nearest], axis=1)
