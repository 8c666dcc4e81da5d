"""Shared latency-statistics helpers: percentiles and sliding windows.

One home for the percentile math that used to be re-implemented in
``repro.serve.metrics`` (report aggregation), the serving simulator's
SLO monitor (windowed p99), and the benchmark scripts (table columns).
Everything computes :func:`numpy.percentile`'s ``linear`` method (the
window replays it op for op over an incrementally sorted copy), so every
consumer computes bit-identical numbers from the same samples —
the property the serving determinism guard and the cluster's per-replica
aggregation both rely on.
"""

from __future__ import annotations

import bisect
import math
from collections import deque

import numpy as np

#: Percentiles reported by the serving report and the bench tables.
LATENCY_PERCENTILES = (50.0, 95.0, 99.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values``; 0.0 on an empty sample."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def percentile_ms(latencies, q: float) -> float:
    """The ``q``-th percentile of ``latencies`` (seconds), in ms."""
    return percentile(latencies, q) * 1e3


class SlidingWindow:
    """A bounded FIFO of float samples with percentile queries.

    The serving degradation ladder watches the p99 of the last ``size``
    completed-request latencies; per-replica SLO monitors each own one.
    Pushing beyond ``size`` drops the oldest sample, exactly like the
    ``del window[0]`` list idiom this replaces.  A sorted copy of the
    non-NaN samples is kept up to date with :mod:`bisect`, so a query
    costs no sort.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"window size must be positive, got {size}")
        self.size = size
        self._samples: deque[float] = deque(maxlen=size)
        self._sorted: list[float] = []
        self._nans = 0

    def push(self, value: float) -> None:
        value = float(value)
        if len(self._samples) == self.size:
            oldest = self._samples[0]
            if math.isnan(oldest):
                self._nans -= 1
            else:
                del self._sorted[bisect.bisect_left(self._sorted, oldest)]
        self._samples.append(value)
        if math.isnan(value):
            self._nans += 1
        else:
            bisect.insort(self._sorted, value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def full(self) -> bool:
        return len(self._samples) == self.size

    def values(self) -> np.ndarray:
        """The window's samples, oldest first."""
        return np.asarray(self._samples, dtype=np.float64)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the windowed samples (0.0 if empty).

        Bit-equal to :func:`percentile` over :meth:`values`: the same
        virtual index, bounds rule and two-sided lerp as NumPy's
        ``linear`` method, applied to the sorted copy.
        """
        n = len(self._samples)
        if n == 0:
            return 0.0
        if self._nans:
            return math.nan
        virtual = (n - 1) * (q / 100)
        if virtual >= n - 1:
            # NumPy clamps both neighbours to the last element and keeps
            # the gamma computed against its -1 index.
            lower = upper = -1
        else:
            lower = math.floor(virtual)
            upper = lower + 1
        gamma = virtual - lower
        a, b = self._sorted[lower], self._sorted[upper]
        diff = b - a
        if gamma >= 0.5:
            return b - diff * (1 - gamma)
        return a + diff * gamma

    def clear(self) -> None:
        self._samples.clear()
        self._sorted.clear()
        self._nans = 0
