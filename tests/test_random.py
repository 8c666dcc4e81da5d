"""Tests for the sampling RNG utilities: races, alias tables, segments."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.random import (
    AliasTable,
    exponential_race_keys,
    new_rng,
    radix_argsort,
    segmented_argsort,
    segmented_race_select,
    segmented_uniform_with_replacement,
    weighted_choice_with_replacement,
    weighted_choice_without_replacement,
)
from repro.errors import ShapeError

#: Race keys with every kind of tie and non-finite value ``lexsort``
#: has to order: duplicates, signed zeros, ±inf and NaN.
_KEYS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _indptr(lengths) -> np.ndarray:
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def _race_select_oracle(keys, indptr, k) -> np.ndarray:
    """The two-key ``lexsort`` race select, one segment at a time."""
    lengths = np.diff(indptr)
    k_arr = np.broadcast_to(k, lengths.shape)
    seg_ids = np.repeat(np.arange(len(lengths)), lengths)
    order = np.lexsort((keys, seg_ids))
    picks = []
    for s in range(len(lengths)):
        in_seg = order[indptr[s] : indptr[s + 1]]
        finite = int(np.isfinite(keys[in_seg]).sum())
        picks.append(in_seg[: min(int(k_arr[s]), finite)])
    return np.concatenate(picks) if picks else np.empty(0, dtype=np.int64)


class TestExponentialRace:
    def test_zero_weight_never_wins(self):
        rng = new_rng(0)
        weights = np.array([1.0, 0.0, 2.0])
        for _ in range(50):
            keys = exponential_race_keys(weights, rng)
            assert keys[1] == np.inf

    def test_bias_drives_selection_frequency(self):
        rng = new_rng(1)
        weights = np.array([10.0, 1.0])
        wins = sum(
            int(np.argmin(exponential_race_keys(weights, rng)) == 0)
            for _ in range(2000)
        )
        # P(item0 first) = 10/11.
        assert 0.85 < wins / 2000 < 0.97


class TestWeightedChoice:
    def test_without_replacement_unique(self):
        rng = new_rng(2)
        idx = weighted_choice_without_replacement(np.ones(20), 8, rng)
        assert len(idx) == 8
        assert len(np.unique(idx)) == 8

    def test_without_replacement_short_population(self):
        rng = new_rng(3)
        idx = weighted_choice_without_replacement(
            np.array([1.0, 0.0, 2.0]), 5, rng
        )
        assert set(idx) == {0, 2}

    def test_with_replacement_distribution(self):
        rng = new_rng(4)
        idx = weighted_choice_with_replacement(np.array([3.0, 1.0]), 8000, rng)
        frac = (idx == 0).mean()
        assert 0.70 < frac < 0.80

    def test_with_replacement_empty_weights(self):
        rng = new_rng(5)
        assert len(weighted_choice_with_replacement(np.zeros(3), 5, rng)) == 0


class TestAliasTable:
    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            AliasTable.build(np.array([]))

    def test_distribution_matches_weights(self):
        rng = new_rng(6)
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        table = AliasTable.build(weights)
        draws = table.sample(40_000, rng)
        counts = np.bincount(draws, minlength=4) / 40_000
        np.testing.assert_allclose(counts, weights / weights.sum(), atol=0.02)

    def test_degenerate_uniform(self):
        rng = new_rng(7)
        table = AliasTable.build(np.zeros(3))
        draws = table.sample(3000, rng)
        counts = np.bincount(draws, minlength=3) / 3000
        np.testing.assert_allclose(counts, [1 / 3] * 3, atol=0.05)


class TestSegmentedUniform:
    def test_offsets_within_segments(self):
        rng = new_rng(8)
        lengths = np.array([3, 0, 7, 1])
        seg, off = segmented_uniform_with_replacement(lengths, 5, rng)
        assert set(np.unique(seg)) <= {0, 2, 3}
        assert np.all(off < lengths[seg])
        assert np.all(off >= 0)

    def test_counts_per_segment(self):
        rng = new_rng(9)
        lengths = np.array([2, 5])
        seg, _ = segmented_uniform_with_replacement(lengths, 4, rng)
        counts = np.bincount(seg, minlength=2)
        np.testing.assert_array_equal(counts, [4, 4])


class TestSegmentedRaceSelect:
    def test_selects_k_smallest_per_segment(self):
        keys = np.array([0.5, 0.1, 0.9, 0.3, 0.2, 0.8])
        indptr = np.array([0, 3, 6])
        picks = segmented_race_select(keys, indptr, 2)
        assert sorted(picks[:2]) == [0, 1]
        assert sorted(picks[2:]) == [3, 4]

    def test_infinite_keys_excluded(self):
        keys = np.array([np.inf, 0.1, np.inf])
        indptr = np.array([0, 3])
        picks = segmented_race_select(keys, indptr, 3)
        np.testing.assert_array_equal(picks, [1])

    def test_per_segment_k(self):
        keys = np.linspace(0, 1, 6)
        indptr = np.array([0, 3, 6])
        picks = segmented_race_select(keys, indptr, np.array([1, 2]))
        assert len(picks) == 3

    def test_key_length_checked(self):
        with pytest.raises(ShapeError):
            segmented_race_select(np.ones(3), np.array([0, 2]), 1)

    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=10),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_picks_grouped_and_bounded(self, seg_lengths, k, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(seg_lengths, dtype=np.int64)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        keys = rng.random(int(indptr[-1]))
        picks = segmented_race_select(keys, indptr, k)
        # Every pick belongs to exactly one segment, each segment yields
        # at most min(k, length) picks, with no duplicates.
        seg_of = np.searchsorted(indptr, picks, side="right") - 1
        assert len(np.unique(picks)) == len(picks)
        for s in range(len(lengths)):
            assert (seg_of == s).sum() == min(k, lengths[s])


class TestRadixArgsort:
    @given(
        st.lists(st.integers(0, 2**40), max_size=200),
        st.sampled_from([np.int64, np.uint64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_stable_argsort(self, ids, dtype):
        ids = np.array(ids, dtype=dtype)
        np.testing.assert_array_equal(
            radix_argsort(ids), np.argsort(ids, kind="stable")
        )

    @given(st.lists(st.integers(0, 2**16 - 1), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_narrow_ids(self, ids):
        for dtype in (np.uint16, np.int32):
            arr = np.array(ids, dtype=dtype)
            np.testing.assert_array_equal(
                radix_argsort(arr), np.argsort(arr, kind="stable")
            )

    def test_rejects_negative_and_float_ids(self):
        with pytest.raises(ShapeError):
            radix_argsort(np.array([3, -1]))
        with pytest.raises(TypeError):
            radix_argsort(np.array([1.0, 2.0]))


class TestSegmentedArgsort:
    """Exactness against the ``np.lexsort((keys, seg_ids))`` oracle."""

    @given(st.lists(st.tuples(_KEYS, st.integers(0, 6)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_lexsort(self, items):
        keys = np.array([key for key, _ in items], dtype=np.float64)
        seg_ids = np.array([seg for _, seg in items], dtype=np.int64)
        np.testing.assert_array_equal(
            segmented_argsort(keys, seg_ids), np.lexsort((keys, seg_ids))
        )

    @given(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=300),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_lexsort_past_one_radix_pass(self, seg_ids, seed):
        # Segment ids past 2**16 take a second (and third) 16-bit pass.
        seg_ids = np.array(seg_ids, dtype=np.int64)
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 4, size=len(seg_ids)).astype(np.float64)
        np.testing.assert_array_equal(
            segmented_argsort(keys, seg_ids), np.lexsort((keys, seg_ids))
        )

    def test_integer_keys_and_empty(self):
        keys = np.array([3, 1, 3, 2])
        seg_ids = np.array([1, 1, 0, 1])
        np.testing.assert_array_equal(
            segmented_argsort(keys, seg_ids), np.lexsort((keys, seg_ids))
        )
        empty = segmented_argsort(np.array([]), np.array([], dtype=np.int64))
        assert len(empty) == 0

    def test_rejects_bad_segments(self):
        with pytest.raises(ShapeError):
            segmented_argsort(np.ones(3), np.zeros(2, dtype=np.int64))
        with pytest.raises(ShapeError):
            segmented_argsort(np.ones(2), np.array([0, -1]))


class TestRaceSelectExactness:
    """``segmented_race_select`` equals the ``lexsort`` oracle, in order."""

    @given(
        st.lists(st.lists(_KEYS, max_size=8), min_size=1, max_size=12),
        st.one_of(
            st.integers(0, 9),
            st.lists(st.integers(0, 9), min_size=12, max_size=12),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, segments, k):
        # Empty segments, duplicate / non-finite keys, scalar or
        # per-segment k.
        indptr = _indptr([len(seg) for seg in segments])
        keys = np.array(
            [key for seg in segments for key in seg], dtype=np.float64
        )
        if not np.isscalar(k):
            k = np.array(k[: len(segments)], dtype=np.int64)
        np.testing.assert_array_equal(
            segmented_race_select(keys, indptr, k),
            _race_select_oracle(keys, indptr, k),
        )

    @given(st.integers(65_537, 70_000), st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_matches_oracle_past_65536_segments(self, n_seg, seed):
        rng = np.random.default_rng(seed)
        indptr = _indptr(rng.integers(0, 4, size=n_seg))
        # Ties across and within segments force the stable key sort.
        keys = rng.integers(0, 50, size=int(indptr[-1])).astype(np.float64)
        keys[rng.random(len(keys)) < 0.05] = np.inf
        k = rng.integers(0, 4, size=n_seg)
        np.testing.assert_array_equal(
            segmented_race_select(keys, indptr, k),
            _race_select_oracle(keys, indptr, k),
        )
