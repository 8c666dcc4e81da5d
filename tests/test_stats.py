"""Tests for the shared latency statistics: percentiles and windows."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import SlidingWindow, percentile

_SAMPLES = st.one_of(
    st.sampled_from([0.0, 1e-3, 2e-3, 1.0, np.inf, np.nan]),
    st.floats(0.0, 1.0),
)


def _same_float(a: float, b: float) -> bool:
    return np.array(a).tobytes() == np.array(b).tobytes() or (
        np.isnan(a) and np.isnan(b)
    )


class TestSlidingWindow:
    @given(
        st.integers(1, 70),
        st.lists(_SAMPLES, max_size=160),
        st.floats(0.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_percentile_bit_equal_to_numpy(self, size, samples, q):
        # Every push (and eviction) is followed by queries at the
        # serving percentiles, the edges of the range and a drawn q.
        window = SlidingWindow(size)
        for value in samples:
            window.push(value)
            for p in (0.0, 50.0, 99.0, 100.0, q):
                with np.errstate(invalid="ignore"):  # inf - inf in numpy
                    expected = percentile(window.values(), p)
                assert _same_float(window.percentile(p), expected)

    def test_fifo_eviction_and_clear(self):
        window = SlidingWindow(3)
        for value in (5.0, 1.0, 3.0, 2.0):
            window.push(value)
        np.testing.assert_array_equal(window.values(), [1.0, 3.0, 2.0])
        assert window.full
        assert window.percentile(50.0) == 2.0
        window.clear()
        assert len(window) == 0
        assert window.percentile(99.0) == 0.0
        window.push(7.0)
        assert window.percentile(99.0) == 7.0

    def test_nan_sample_poisons_until_evicted(self):
        window = SlidingWindow(2)
        window.push(np.nan)
        window.push(1.0)
        assert np.isnan(window.percentile(50.0))
        window.push(2.0)
        assert window.percentile(50.0) == 1.5

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)
