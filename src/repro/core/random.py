"""Random-number utilities shared by the sampling kernels.

The GPU samplers in the paper (and in SkyWalker, which gSampler compares
against) rely on two classic tricks that we reproduce here in vectorized
form:

* the **exponential race** (equivalently Gumbel top-k): drawing
  ``Exp(1) / w_i`` per item and keeping the ``k`` smallest yields a
  weighted sample *without* replacement in one parallel pass;
* the **alias method**: O(1) weighted sampling *with* replacement after an
  O(n) table build, which is what SkyWalker's kernels implement.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ShapeError

_DEFAULT_SEED = 2023


def new_rng(seed: int | None = _DEFAULT_SEED) -> np.random.Generator:
    """A fresh PCG64 generator; the package default seed is 2023."""
    return np.random.default_rng(seed)


def exponential_race_keys(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-item race keys: smaller key == earlier finish == selected first.

    Items with non-positive weight get ``+inf`` keys and are never chosen
    before any positively-weighted item.
    """
    weights = np.asarray(weights, dtype=np.float64)
    keys = rng.exponential(size=len(weights))
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = keys / weights
    keys[weights <= 0] = np.inf
    return keys


def weighted_choice_without_replacement(
    weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of ``k`` items drawn without replacement, prob ∝ weight.

    When fewer than ``k`` items have positive weight, all of them are
    returned (the result may be shorter than ``k``).
    """
    weights = np.asarray(weights, dtype=np.float64)
    positive = int(np.count_nonzero(weights > 0))
    take = min(k, positive)
    if take == 0:
        return np.empty(0, dtype=np.int64)
    keys = exponential_race_keys(weights, rng)
    if take == len(keys):
        return np.flatnonzero(weights > 0).astype(np.int64)
    idx = np.argpartition(keys, take - 1)[:take]
    return idx.astype(np.int64)


def weighted_choice_with_replacement(
    weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of ``k`` items drawn with replacement, prob ∝ weight."""
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0 or k <= 0:
        return np.empty(0, dtype=np.int64)
    cdf = np.cumsum(weights)
    targets = rng.random(k) * total
    return np.searchsorted(cdf, targets, side="right").astype(np.int64)


@dataclasses.dataclass
class AliasTable:
    """Walker's alias table for O(1) weighted draws with replacement."""

    prob: np.ndarray
    alias: np.ndarray

    @classmethod
    def build(cls, weights: np.ndarray) -> "AliasTable":
        """Construct the table in O(n) from non-negative weights."""
        weights = np.asarray(weights, dtype=np.float64)
        n = len(weights)
        if n == 0:
            raise ShapeError("cannot build an alias table over zero items")
        total = weights.sum()
        if total <= 0:
            # Degenerate: uniform over all items.
            scaled = np.ones(n, dtype=np.float64)
        else:
            scaled = weights * (n / total)
        prob = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        return cls(prob=prob, alias=alias)

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``k`` indices with replacement."""
        n = len(self.prob)
        slots = rng.integers(0, n, size=k)
        accept = rng.random(k) < self.prob[slots]
        return np.where(accept, slots, self.alias[slots]).astype(np.int64)


def segmented_uniform_with_replacement(
    lengths: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """For each segment, draw ``k`` uniform offsets with replacement.

    Empty segments contribute nothing.  Returns ``(segment_ids, offsets)``
    flat arrays of equal length.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    nonempty = np.flatnonzero(lengths > 0)
    if len(nonempty) == 0 or k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    seg_ids = np.repeat(nonempty, k)
    u = rng.random(len(seg_ids))
    offsets = np.floor(u * lengths[seg_ids]).astype(np.int64)
    # Guard against u == 1.0 rounding onto the segment length.
    np.minimum(offsets, lengths[seg_ids] - 1, out=offsets)
    return seg_ids, offsets


def radix_argsort(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for non-negative integer ids.

    NumPy radix-sorts only integers of 16 bits or fewer; wider ids get
    one 16-bit LSD pass per 16 bits of the largest id (one pass below
    65,536), each an O(n) radix sort, instead of a comparison sort.
    """
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise TypeError(f"radix_argsort needs integer ids, got {ids.dtype}")
    passes = 1
    if len(ids) and ids.dtype.kind == "i" and ids.min() < 0:
        raise ShapeError("radix_argsort needs non-negative ids")
    if len(ids) and ids.dtype.itemsize > 2:
        passes = max(1, -(-int(ids.max()).bit_length() // 16))
    order = np.argsort(ids.astype(np.uint16, copy=False), kind="stable")
    for shift in range(16, 16 * passes, 16):
        digit = (ids[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def segmented_argsort(keys: np.ndarray, seg_ids: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((keys, seg_ids))``, ties included.

    Sorts by segment, then key, then original index, with no two-key
    comparison sort: one argsort by key, then a :func:`radix_argsort`
    of that order by segment id.  The key sort uses NumPy's unstable
    SIMD quicksort and redoes the sort stably only when the keys hold a
    tie or a NaN, so tied keys keep index order exactly as ``lexsort``
    does.  ``seg_ids`` must be non-negative integers.
    """
    keys = np.asarray(keys)
    seg_ids = np.asarray(seg_ids)
    if keys.shape != seg_ids.shape or keys.ndim != 1:
        raise ShapeError("keys and seg_ids must be 1-D arrays of one length")
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if np.any(sorted_keys[1:] == sorted_keys[:-1]) or (
        keys.dtype.kind in "fc" and np.isnan(sorted_keys[-1])
    ):
        order = np.argsort(keys, kind="stable")
    return order[radix_argsort(seg_ids[order])]


def segmented_race_select(
    keys: np.ndarray,
    indptr: np.ndarray,
    k: int | np.ndarray,
) -> np.ndarray:
    """Positions of the ``k`` smallest keys within every indptr segment.

    ``k`` may be a scalar or a per-segment array.  Items with ``+inf``
    keys (zero weight) are never selected; segments shorter than their
    ``k`` return all their finite-key items.  Returns flat positions into
    the original arrays, grouped by segment in ascending-key order.
    """
    lengths = np.diff(indptr)
    n_seg = len(lengths)
    if keys.shape != (int(indptr[-1]),):
        raise ShapeError("keys length must equal indptr[-1]")
    k_arr = np.full(n_seg, k, dtype=np.int64) if np.isscalar(k) else np.asarray(k)
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    # uint16 segment ids skip a conversion and a max() in the radix pass.
    seg_dtype = np.uint16 if n_seg <= 1 << 16 else np.int64
    seg_ids = np.repeat(np.arange(n_seg, dtype=seg_dtype), lengths)
    order = segmented_argsort(keys, seg_ids)
    # After the sort, each segment still occupies [indptr[i], indptr[i+1])
    # and holds the same keys, so its finite count needs no sorted copy.
    take = np.minimum(k_arr, lengths)
    finite = np.isfinite(keys)
    if not finite.all():
        take = np.minimum(take, _segment_counts(finite, indptr))
    from repro.sparse.formats import gather_ranges

    picks = gather_ranges(indptr[:-1], take)
    return order[picks]


def _segment_counts(mask: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per indptr segment, how many entries of ``mask`` are set."""
    csum = np.zeros(len(mask) + 1, dtype=np.int64)
    np.cumsum(mask, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]
