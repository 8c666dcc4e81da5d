"""Shared random-walk machinery for the walk-based algorithms.

DeepWalk, Node2Vec, GraphSAINT, PinSAGE, and HetGNN all build on the same
primitive: repeatedly pick one in-neighbor per walker.  The drivers here
run whole walk batches through the fused walk-step kernel
(:func:`repro.core.sampling.uniform_walk_step`), accumulate the node
matrix, and provide visit counting for restart-based algorithms.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import new_rng, sampling
from repro.core import random as rnd
from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.sparse import INDEX_DTYPE


@dataclasses.dataclass
class WalkResult:
    """A batch of random walks.

    ``trace[t, w]`` is walker ``w``'s node after ``t`` steps (row 0 is the
    seed); ``-1`` marks walkers stranded at a dead end.
    """

    trace: np.ndarray

    @property
    def walk_length(self) -> int:
        return self.trace.shape[0] - 1

    @property
    def num_walkers(self) -> int:
        return self.trace.shape[1]

    def visited_nodes(self) -> np.ndarray:
        """Unique non-dead nodes touched by any walker."""
        flat = self.trace[self.trace >= 0]
        return np.unique(flat)


def uniform_walk(
    graph: Matrix,
    seeds: np.ndarray,
    walk_length: int,
    *,
    ctx: ExecutionContext = NULL_CONTEXT,
    rng: np.random.Generator | None = None,
) -> WalkResult:
    """Vanilla random walk (DeepWalk's sampler): one kernel per step."""
    rng = rng if rng is not None else new_rng(None)
    csc = graph.get("csc")
    cur = np.asarray(seeds, dtype=INDEX_DTYPE)
    trace = np.full((walk_length + 1, len(cur)), -1, dtype=INDEX_DTYPE)
    trace[0] = cur
    for step in range(walk_length):
        alive = np.flatnonzero(cur >= 0)
        if len(alive) == 0:
            break
        nxt = np.full(len(cur), -1, dtype=INDEX_DTYPE)
        nxt[alive] = sampling.uniform_walk_step(csc, cur[alive], rng=rng, ctx=ctx)
        trace[step + 1] = nxt
        cur = nxt
    return WalkResult(trace=trace)


def restart_walk_visit_counts(
    graph: Matrix,
    frontiers: np.ndarray,
    *,
    num_walks: int,
    walk_length: int,
    restart_prob: float,
    ctx: ExecutionContext = NULL_CONTEXT,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random walks with restart; returns per-(frontier, node) visit counts.

    This is PinSAGE's neighborhood construction: ``num_walks`` walkers per
    frontier, each restarting at its origin with probability
    ``restart_prob``, and every visit to a node is counted toward that
    frontier.  Returns ``(frontier_idx, node, count)`` flat arrays.
    """
    rng = rng if rng is not None else new_rng(None)
    csc = graph.get("csc")
    frontiers = np.asarray(frontiers, dtype=INDEX_DTYPE)
    n_frontiers = len(frontiers)
    origins = np.repeat(frontiers, num_walks)
    owner = np.repeat(
        np.arange(n_frontiers, dtype=INDEX_DTYPE), num_walks
    )
    cur = origins.copy()
    visit_keys: list[np.ndarray] = []
    n = graph.shape[0]
    for _ in range(walk_length):
        alive = np.flatnonzero(cur >= 0)
        if len(alive) == 0:
            break
        stepped = sampling.uniform_walk_step(csc, cur[alive], rng=rng, ctx=ctx)
        nxt = np.full(len(cur), -1, dtype=INDEX_DTYPE)
        nxt[alive] = stepped
        restart = rng.random(len(cur)) < restart_prob
        nxt[restart] = origins[restart]
        dead = nxt < 0
        nxt[dead] = origins[dead]  # stranded walkers restart too
        cur = nxt
        visit_keys.append(owner * n + cur)
    if not visit_keys:
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return empty, empty, empty
    keys = np.concatenate(visit_keys)
    uniq, counts = np.unique(keys, return_counts=True)
    return (
        (uniq // n).astype(INDEX_DTYPE),
        (uniq % n).astype(INDEX_DTYPE),
        counts.astype(INDEX_DTYPE),
    )


def top_k_per_segment(
    segment: np.ndarray, score: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the ``k`` highest-scored items within every segment.

    ``segment`` must be sorted ascending (as returned by the visit
    counter).  Used to pick the top-T visited neighbors in PinSAGE and
    the per-type top-k in HetGNN.
    """
    if len(segment) == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    _, dense_segment = np.unique(segment, return_inverse=True)
    order = rnd.segmented_argsort(-np.asarray(score), dense_segment)
    seg_sorted = segment[order]
    # Rank of each item within its segment after sorting by -score.
    boundaries = np.flatnonzero(np.diff(seg_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    seg_start_of = np.repeat(starts, np.diff(np.concatenate([starts, [len(seg_sorted)]])))
    rank = np.arange(len(seg_sorted)) - seg_start_of
    return order[rank < k]


def induce_subgraph(
    graph: Matrix,
    nodes: np.ndarray,
    *,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> Matrix:
    """The subgraph of ``graph`` induced by ``nodes`` (rows and columns).

    GraphSAINT, SEAL, and ShaDow all finish with an induced subgraph; with
    the matrix API it is simply a column slice followed by a row slice.
    """
    nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
    with_ctx = Matrix(
        graph.any_storage(),
        row_ids=graph.row_ids,
        col_ids=graph.col_ids,
        ctx=ctx,
        is_base_graph=graph.is_base_graph,
    )
    return with_ctx[nodes, nodes]
