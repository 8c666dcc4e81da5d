"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload has a timed ``setup(seed)`` (dataset load, partition,
sampler build and input generation) and a ``run(state, clock)`` that
performs one *repeat*: a fixed unit of work on the inputs set-up
generated.  Only the program calls inside ``with clock:`` are timed.
Repeats of one run see identical inputs, so every repeat must return the
same fingerprint; the caller counts a mismatch as a failure.  ``run``
also checks the outputs and reads the simulated-clock counters from the
program's own accessors.  Output checks run after the repeat's clock
stops.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np

#: The serving SLO (simulated seconds) for the serve-* workloads.
SLO_S = 2e-3
MB = float(1 << 20)


@dataclasses.dataclass
class Outcome:
    """What one repeat did, checked."""

    units: int
    ops: int
    failed: int
    fingerprint: str
    #: Simulated end-to-end values (deterministic for a seed).
    sim: dict[str, float]
    #: Simulated per-layer counters (see ``layers.SIM_COUNTERS``).
    counters: dict[str, float]
    problems: list[str] = dataclasses.field(default_factory=list)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _fresh_dataset(name: str, scale: float = 1.0):
    """Load ``name`` from scratch: set-up time must include the build,
    not a hit in ``load_dataset``'s in-process cache."""
    from repro import datasets

    cached = datasets.load_dataset
    while not hasattr(cached, "cache_clear"):
        cached = cached.__wrapped__
    cached.cache_clear()
    return datasets.load_dataset(name, scale=scale)


def _latency_stats(latencies_s) -> dict[str, float]:
    lat = np.asarray(latencies_s, dtype=np.float64)
    return {
        "sim_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "sim_p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "sim_latency_samples": float(lat.size),
    }


def _queue_busy_ms(contexts, suffix: str) -> float:
    return 1e3 * sum(
        q.busy_seconds
        for ctx in contexts
        for name, q in ctx.queue_stats().items()
        if name.endswith(suffix)
    )


# ----------------------------------------------------------------------
class TrainSage:
    """PipelinedTrainer, GraphSAGE (5,10) on PD: a slice of one epoch."""

    name = "train-sage"
    loop = "closed"
    FANOUTS = (5, 10)
    BATCH = 512
    STEPS = 16
    HIDDEN = 64

    def setup(self, seed: int):
        from repro.algorithms import make_algorithm

        ds = _fresh_dataset("pd")
        pipeline = make_algorithm("graphsage", fanouts=self.FANOUTS).build(
            ds.graph, ds.train_ids[: self.BATCH]
        )
        return SimpleNamespace(ds=ds, pipeline=pipeline, seed=seed)

    def run(self, state, clock, *, harvest: bool = False) -> Outcome:
        from repro.device import V100
        from repro.learning import GraphSAGEModel
        from repro.pipeline import PipelinedTrainer
        from repro.profile import Profiler

        ds = state.ds
        profiler = Profiler() if harvest else None
        with clock:
            model = GraphSAGEModel(
                ds.features.shape[1],
                self.HIDDEN,
                ds.num_classes,
                num_layers=len(self.FANOUTS),
                rng=np.random.default_rng(0),
            )
            trainer = PipelinedTrainer(
                state.pipeline, model, ds, device=V100,
                batch_size=self.BATCH, seed=state.seed,
            )
            result = trainer.train(
                1, max_batches_per_epoch=self.STEPS, profiler=profiler
            )
        params = [param for param, _grad in model.parameters()]
        fingerprint = _digest(
            result.final_loss, result.accuracy_history,
            result.total_seconds, *params,
        )
        problems = []
        if not math.isfinite(result.final_loss):
            problems.append(f"non-finite loss {result.final_loss}")
        queues = {r.queue: r for r in result.queue_reports}
        stats = result.cache_stats
        row_bytes = ds.features.shape[1] * ds.features.dtype.itemsize
        sim = {
            "sim_run_ms": result.total_seconds * 1e3,
            "final_loss": float(result.final_loss),
        }
        counters = {
            "device.launches": float(sum(r.launches for r in result.queue_reports)),
            "device.sample_busy_ms": queues["sample"].busy_seconds * 1e3,
            "device.transfer_busy_ms": queues["transfer"].busy_seconds * 1e3,
            "cache.hit_rate": stats.hit_rate if stats else 0.0,
            "cache.invalidated_rows": float(stats.invalidated_rows if stats else 0),
            "learning.steps": float(self.STEPS),
            "pipeline.overlap_reduction": result.overlap_reduction,
            "pipeline.compute_idle_frac": 1.0
            - queues["compute"].busy_seconds / result.total_seconds,
        }
        if profiler is not None:
            sim.update(_batch_latencies(profiler))
            kernels = profiler.spans_by_category("kernel")
            counters["device.bytes_moved"] = float(
                sum(k.attrs["bytes_read"] + k.attrs["bytes_written"] for k in kernels)
            )
            sample_peak = profiler.context.memory.peak_bytes
            cache_bytes = (stats.cached_rows if stats else 0) * row_bytes
            sim["sim_peak_mb"] = max(sample_peak, cache_bytes) / MB
        return Outcome(
            units=self.STEPS * self.BATCH,
            ops=self.STEPS,
            failed=self.STEPS if problems else 0,
            fingerprint=fingerprint,
            sim=sim,
            counters=counters,
            problems=problems,
        )

    def extra(self, state) -> dict[str, float]:
        return {}


def _batch_latencies(profiler) -> dict[str, float]:
    """Per-minibatch simulated latency: first kernel start to last
    kernel end among the kernels recorded inside each ``batch[i]`` span
    (sampling, feature fetch and compute run on different queues)."""
    spans = profiler.spans
    batches = [s.index for s in spans if s.category == "batch"]
    bounds = batches[1:] + [len(spans)]
    latencies = []
    for lo, hi in zip(batches, bounds):
        kernels = [s for s in spans[lo:hi] if s.category == "kernel"]
        latencies.append(
            max(k.sim_end for k in kernels) - min(k.sim_start for k in kernels)
        )
    return _latency_stats(latencies)


# ----------------------------------------------------------------------
class WalkN2V:
    """gSampler node2vec walks over PP's training nodes, driven the way
    ``repro.bench.run_sampling_epoch`` drives them (super-batches of
    ``DEFAULT_SUPERBATCH`` mini-batches on one execution context)."""

    name = "walk-n2v"
    loop = "closed"
    BATCH = 64
    CALLS = 8

    def setup(self, seed: int):
        from repro.baselines import make_system
        from repro.bench import DEFAULT_SUPERBATCH
        from repro.core import minibatches, new_rng

        ds = _fresh_dataset("pp")
        rng = new_rng(seed)
        batches = minibatches(ds.train_ids, self.BATCH, shuffle=True, rng=rng)
        batches = batches[: self.CALLS * DEFAULT_SUPERBATCH]
        pipeline = make_system("gsampler").build_pipeline(
            "node2vec", ds, batches[0]
        )
        return SimpleNamespace(
            ds=ds, pipeline=pipeline, batches=batches, rng=rng,
            superbatch=DEFAULT_SUPERBATCH,
        )

    def run(self, state, clock, *, harvest: bool = False) -> Outcome:
        from repro.device import V100, ExecutionContext

        ds = state.ds
        rng = copy.deepcopy(state.rng)
        latencies, calls = [], []
        with clock:
            ctx = ExecutionContext(V100, graph_on_device=ds.graph_on_device)
            for lo in range(0, len(state.batches), state.superbatch):
                group = state.batches[lo : lo + state.superbatch]
                before = ctx.elapsed
                calls.append(
                    state.pipeline.sample_superbatch(group, ctx=ctx, rng=rng)
                )
                latencies.append(ctx.elapsed - before)
        traces = [np.concatenate([w.trace for w in walks], axis=1) for walks in calls]
        csc = ds.graph.get("csc")
        bad_calls, problems = 0, []
        for trace in traces:
            bad = _invalid_walks(trace, csc.indptr, csc.rows)
            if bad:
                bad_calls += 1
                problems.append(f"{bad} walks leave the graph")
        sim = {
            "sim_run_ms": ctx.elapsed * 1e3,
            "sim_peak_mb": ctx.memory.peak_bytes / MB,
            **_latency_stats(latencies),
        }
        counters = {
            "device.launches": float(ctx.launch_count()),
            "device.bytes_moved": float(ctx.total_bytes()),
            "device.sample_busy_ms": ctx.busy_seconds * 1e3,
            "device.transfer_busy_ms": 0.0,
            "algorithms.walk.steps": float(
                sum(int(np.count_nonzero(t[1:] >= 0)) for t in traces)
            ),
        }
        return Outcome(
            units=sum(len(b) for b in state.batches),
            ops=len(traces),
            failed=bad_calls,
            fingerprint=_digest(*traces, latencies),
            sim=sim,
            counters=counters,
            problems=problems,
        )

    def extra(self, state) -> dict[str, float]:
        return {}


def _invalid_walks(trace: np.ndarray, indptr: np.ndarray, rows: np.ndarray) -> int:
    """Walkers with a step that is not a graph edge (``cur`` to one of
    its CSC column's rows) or that restart after terminating.

    A binary search per step over the column's rows finds the edge when
    the column is sorted; a step it misses is looked up exactly, so the
    check needs no index of its own (which would count in peak RSS).
    """
    cur, nxt = trace[:-1], trace[1:]
    moved = nxt >= 0
    src, dst = cur[moved], nxt[moved]
    ok = src >= 0
    start = np.zeros_like(src)
    end = np.zeros_like(src)
    start[ok], end[ok] = indptr[src[ok]], indptr[src[ok] + 1]
    lo, hi, last = start.copy(), end.copy(), len(rows) - 1
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        right = active & (rows[np.minimum(mid, last)] < dst)
        left = active & ~right
        lo[right] = mid[right] + 1
        hi[left] = mid[left]
    found = ok & (lo < end) & (rows[np.minimum(lo, last)] == dst)
    for i in np.flatnonzero(ok & ~found):
        found[i] = bool(np.any(rows[start[i] : end[i]] == dst[i]))
    bad = np.zeros(nxt.shape, dtype=bool)
    bad[moved] = ~found
    return int(np.count_nonzero(bad.any(axis=0)))


# ----------------------------------------------------------------------
class _Serve:
    """Shared serve-* workload: one cluster session per repeat."""

    loop = "open"
    REPLICAS = 4
    REQUESTS = 2048
    #: PD scale; the ``serve`` command's default is 0.25.
    SCALE = 1.0
    COMPOSER = "fifo"
    #: Batcher timeout (simulated seconds): the ``serve`` command's
    #: ``--max-wait-ms`` default, a quarter of the SLO.
    MAX_WAIT = 5e-4
    LADDER: tuple[float, ...] = ()
    LADDER_REQUESTS = 0

    def _cluster(self, state, updates=None):
        from repro.device import V100
        from repro.serve import ClusterSimulator, ServePolicy

        return ClusterSimulator(
            state.ds,
            device=V100,
            policy=ServePolicy.preset("full", slo=SLO_S, max_wait=self.MAX_WAIT),
            num_replicas=self.REPLICAS,
            router="shard",
            partition=state.partition,
            composer=self.COMPOSER,
            seed=state.seed,
            **self._dynamic_kwargs(updates),
        )

    def _dynamic_kwargs(self, updates) -> dict:
        return {}

    def setup(self, seed: int):
        from repro.partition import make_partition
        from repro.serve import WorkloadSpec

        ds = _fresh_dataset("pd", self.SCALE)
        state = SimpleNamespace(ds=ds, seed=seed, updates=None)
        state.partition = make_partition("greedy", ds.graph, self.REPLICAS, seed=0)
        state.updates = self._updates(state)
        cluster = self._cluster(state)
        state.requests = cluster.build_workload(
            WorkloadSpec(num_requests=self.REQUESTS, arrival_rate=self.RATE, seed=seed)
        )
        state.ladder = [
            (
                rate,
                cluster.build_workload(
                    WorkloadSpec(
                        num_requests=self.LADDER_REQUESTS, arrival_rate=rate, seed=seed
                    )
                ),
            )
            for rate in self.LADDER
        ]
        return state

    def _updates(self, state):
        return None

    def run(self, state, clock, *, harvest: bool = False) -> Outcome:
        with clock:
            cluster = self._cluster(state, state.updates)
            report = cluster.run(state.requests)
        problems = _request_problems(state.requests, report)
        problems += self._extra_problems(state, report)
        contexts = [
            ctx for r in cluster.replicas for ctx in (r.sample_ctx, r.io_ctx)
        ]
        cache = report.cache
        sim = {
            "sim_run_ms": report.makespan * 1e3,
            "sim_p50_ms": report.p50_ms,
            "sim_p99_ms": report.p99_ms,
            "sim_latency_samples": float(report.completed),
            "sim_slo_attainment": report.slo_attainment(SLO_S),
            "sim_peak_mb": max(c.memory.peak_bytes for c in contexts) / MB,
            "staleness_ms": report.mean_staleness_ms,
        }
        counters = {
            "device.launches": float(sum(c.launch_count() for c in contexts)),
            "device.bytes_moved": float(sum(c.total_bytes() for c in contexts)),
            "device.sample_busy_ms": _queue_busy_ms(contexts, "sample"),
            "device.transfer_busy_ms": _queue_busy_ms(contexts, "transfer"),
            "cache.hit_rate": cache.hit_rate if cache else 0.0,
            "cache.invalidated_rows": float(cache.invalidated_rows if cache else 0),
            "serve.queue_ms_mean": report.mean_queue_ms,
            "serve.batch_mean": report.mean_batch,
            "serve.shed": float(report.shed),
            "serve.degraded": float(report.degraded),
            "serve.lost": float(report.lost),
            "serve.cross_shard_rows": float(report.cross_shard_rows),
            "serve.link_ms": report.link_seconds * 1e3,
            "serve.dedup_rows": float(report.dedup_rows),
            "serve.mean_fused": (
                report.superbatch_requests / report.superbatch_batches
                if report.superbatch_batches
                else 0.0
            ),
            "partition.migrated_rows": float(report.migrated_rows),
            "dynamic.refresh_ms": report.refresh_ms,
            "dynamic.ingested_edges": float(report.ingested_edges),
        }
        unserved = report.shed + report.lost
        return Outcome(
            units=sum(len(r.seeds) for r in state.requests),
            ops=report.requests,
            failed=min(report.requests, unserved + len(problems)),
            fingerprint=_digest(
                report.fingerprint(), report.mean_staleness_ms,
                report.refresh_ms, report.migrated_rows,
            ),
            sim=sim,
            counters=counters,
            problems=problems,
        )

    def _extra_problems(self, state, report) -> list[str]:
        return []

    def extra(self, state) -> dict[str, float]:
        """``sim_max_rps``: the highest ladder rate whose session meets
        p99 <= SLO with nothing shed or lost (0 when none does)."""
        best = 0.0
        for rate, requests in state.ladder:
            report = self._cluster(state).run(requests)
            if report.p99_ms <= SLO_S * 1e3 and report.shed == 0 and report.lost == 0:
                best = max(best, rate)
        return {"sim_max_rps": best} if state.ladder else {}


def _request_problems(requests, report) -> list[str]:
    """Every request ends exactly once (completed, shed or lost), and a
    completed one has ``arrival <= start <= completion``."""
    problems = []
    seen: dict[int, int] = {}
    for log in report.logs:
        seen[log.rid] = seen.get(log.rid, 0) + 1
        if log.completed and not (log.arrival <= log.start <= log.completion):
            problems.append(f"request {log.rid}: bad timeline")
    for request in requests:
        if seen.get(request.rid, 0) != 1:
            problems.append(
                f"request {request.rid} ended {seen.get(request.rid, 0)} times"
            )
    if len(seen) != len(requests):
        problems.append(f"{len(seen)} logged ids for {len(requests)} requests")
    return problems


class ServeShard(_Serve):
    """4 replicas, shard router over a greedy partition, FIFO composer:
    the ``serve`` command's defaults (PD at scale 0.25, 50k req/s,
    0.5 ms batcher timeout, batches of at most 8), fewer requests."""

    name = "serve-shard"
    SCALE = 0.25
    RATE = 50_000.0
    LADDER = tuple(float(r) for r in range(300_000, 700_001, 100_000))
    LADDER_REQUESTS = 512


class ServeIngest(_Serve):
    """2 replicas, shard/greedy, super-batch composer, edge ingest with
    20% deletes, snapshots, compaction every 16 batches, rebalance."""

    name = "serve-ingest"
    REPLICAS = 2
    REQUESTS = 1024
    RATE = 60_000.0
    COMPOSER = "superbatch"
    UPDATE_EDGES = 1024
    UPDATE_RATE = 60_000.0
    #: 32 update batches of 32 edges: compaction every 16 batches runs
    #: twice a session.  With 8-edge batches it ran 8 times and took
    #: half the repeat; that memory-bound share swung the host time by
    #: 1.7x between quiet and busy periods of the shared machine.
    UPDATE_BATCH_EDGES = 32

    def _updates(self, state):
        from repro.dynamic import UpdateSpec, generate_update_stream

        spec = UpdateSpec(
            num_edges=self.UPDATE_EDGES,
            rate=self.UPDATE_RATE,
            batch_edges=self.UPDATE_BATCH_EDGES,
            delete_fraction=0.2,
            seed=state.seed,
        )
        return generate_update_stream(
            spec,
            num_nodes=state.ds.num_nodes,
            hotness=np.diff(state.ds.graph.get("csc").indptr),
        )

    def _dynamic_kwargs(self, updates) -> dict:
        from repro.dynamic import DynamicPolicy

        if updates is None:
            return {}
        return {
            "updates": updates,
            "dynamic": DynamicPolicy(
                snapshot_every=5e-4,
                compact_every=16,
                repartition_threshold=1e-4,
                max_migrate_rows=4,
            ),
        }

    def _extra_problems(self, state, report) -> list[str]:
        """The live edge count after replaying the update stream equals
        base + inserted - deleted as the session reported them."""
        from repro.dynamic import DeltaGraph

        if getattr(state, "live_edges", None) is None:
            delta = DeltaGraph(state.ds.graph)
            for batch in state.updates:
                delta.apply(batch)
            state.live_edges = delta.num_live_edges
        problems = []
        expected = state.ds.graph.nnz + report.ingested_edges - report.deleted_edges
        if state.live_edges != expected:
            problems.append(
                f"live edges {state.live_edges} != base + inserted - deleted "
                f"({expected})"
            )
        if report.update_batches != len(state.updates):
            problems.append(
                f"{report.update_batches} of {len(state.updates)} update "
                "batches applied"
            )
        return problems


WORKLOADS = {w.name: w for w in (TrainSage(), WalkN2V(), ServeShard(), ServeIngest())}
