"""The layer map: which public entry points each traced layer wraps.

Each :class:`Layer` names the ``repro`` entry points its span covers,
the workloads that must reach it (``exercised``) and the ones that must
not (``bypassed``), and the end-to-end metric it should move.  The
traced run wraps exactly these entry points; the layer-coverage
self-test in ``selfcheck.py`` reads the two workload columns.

Layers whose metrics come only from the program's own accessors (the
simulated-clock counters) carry no entry points; they are listed in
``SIM_COUNTERS`` below with the same map columns.
"""

from __future__ import annotations

import dataclasses

WORKLOADS = ("train-sage", "walk-n2v", "serve-shard", "serve-ingest")
SERVE = ("serve-shard", "serve-ingest")
SAMPLING = ("train-sage", "serve-shard", "serve-ingest")
CLOSED = ("train-sage", "walk-n2v")
NOT_TRAIN = ("walk-n2v", "serve-shard", "serve-ingest")
NOT_INGEST = ("train-sage", "walk-n2v", "serve-shard")
#: Set-up layers: ``.s`` from the traced set-up, ``calls``/``self_s``
#: per measured repeat.
SETUP_STATS = ("s", "calls", "self_s")


@dataclasses.dataclass(frozen=True)
class Layer:
    """One traced layer.

    ``entries`` are ``(module, attribute)`` pairs; a dotted attribute is
    ``Class.method`` and also wraps every subclass override.  ``phase``
    is ``"setup"`` for layers whose ``.s`` is timed during set-up and
    ``"run"`` for layers timed only during the measured repeats.
    ``calls`` and ``self_s`` always come from the measured repeats, so a
    set-up layer a repeat reaches again (``ir.compile`` when a serving
    repeat builds its cluster) shows there too.
    """

    name: str
    entries: tuple[tuple[str, str], ...]
    exercised: tuple[str, ...]
    bypassed: tuple[str, ...]
    moves: str
    phase: str = "run"
    stats: tuple[str, ...] = ("calls", "self_s")


LAYERS: tuple[Layer, ...] = (
    # -- set-up ---------------------------------------------------------
    Layer(
        "datasets.load",
        (("repro.datasets.catalog", "load_dataset"),),
        WORKLOADS, (), "setup_s on all", phase="setup", stats=SETUP_STATS,
    ),
    Layer(
        "ir.compile",
        (("repro.sampler", "compile_sampler"),),
        SAMPLING, ("walk-n2v",), "setup_s on all", phase="setup",
        stats=SETUP_STATS,
    ),
    Layer(
        "partition.build",
        (("repro.partition.partitioners", "make_partition"),),
        SERVE, CLOSED, "setup_s on serve-*",
        phase="setup", stats=SETUP_STATS,
    ),
    Layer(
        "serve.workload",
        (("repro.serve.replica", "Replica.build_workload"),),
        SERVE, CLOSED, "setup_s on serve-*",
        phase="setup", stats=SETUP_STATS,
    ),
    # -- sampling kernels -----------------------------------------------
    Layer(
        "core.race_select",
        (("repro.core.random", "segmented_race_select"),),
        SAMPLING, ("walk-n2v",),
        "seeds_per_s on train-sage, serve-shard, serve-ingest",
        stats=("calls", "self_s", "keys"),
    ),
    Layer(
        "core.sample",
        tuple(
            ("repro.core.sampling", fn)
            for fn in (
                "individual_sample",
                "labor_sample",
                "fused_extract_individual_sample",
                "fused_extract_reduce",
                "collective_sample",
            )
        ),
        SAMPLING, ("walk-n2v",),
        "seeds_per_s on train-sage, serve-shard, serve-ingest",
    ),
    Layer(
        "algorithms.walk",
        (
            ("repro.algorithms.node2vec", "Node2VecPipeline.sample_batch"),
            ("repro.algorithms.node2vec", "Node2VecPipeline.sample_superbatch"),
        ),
        ("walk-n2v",), SAMPLING, "seeds_per_s on walk-n2v",
    ),
    Layer(
        "sparse.gather_ranges",
        (("repro.sparse.formats", "gather_ranges"),),
        WORKLOADS, (), "seeds_per_s on all",
    ),
    Layer(
        "sparse.compact",
        tuple(
            ("repro.sparse.compact", fn)
            for fn in ("occupied_rows", "occupied_cols", "compact_rows", "compact_cols")
        ),
        SAMPLING, ("walk-n2v",), "seeds_per_s on all",
    ),
    # -- compiled-program execution -------------------------------------
    Layer(
        "ir.interpret",
        (("repro.ir.interpreter", "Interpreter.run"),),
        SAMPLING, ("walk-n2v",),
        "seeds_per_s on train-sage, serve-shard, serve-ingest",
    ),
    Layer(
        "sampler.run",
        (
            ("repro.sampler", "CompiledSampler.run"),
            ("repro.sampler", "CompiledSampler.run_superbatch"),
        ),
        SAMPLING, ("walk-n2v",),
        "seeds_per_s on train-sage, serve-shard, serve-ingest",
        stats=("calls", "s", "self_s"),
    ),
    Layer(
        "ir.split",
        (("repro.ir.superbatch_ops", "split_sample"),),
        ("serve-ingest",), NOT_INGEST,
        "seeds_per_s on serve-ingest",
    ),
    # -- simulator and feature cache ------------------------------------
    Layer(
        "device.record",
        (("repro.device.context", "ExecutionContext.record"),),
        WORKLOADS, (), "seeds_per_s on all (the simulator's own host cost)",
    ),
    Layer(
        "cache.gather",
        (
            ("repro.cache.gather", "plan_gather"),
            ("repro.cache.gather", "record_gather"),
            ("repro.cache.feature_cache", "FeatureCache.split"),
            ("repro.cache.tiered", "TieredFeatureStore.split"),
        ),
        SAMPLING, ("walk-n2v",), "sim_p99_ms on serve-shard; seeds_per_s",
    ),
    # -- model and training loop ----------------------------------------
    Layer(
        "learning.forward",
        (("repro.learning.models", "SampledGNN.forward"),),
        ("train-sage",), NOT_TRAIN,
        "seeds_per_s and final_loss on train-sage",
    ),
    Layer(
        "learning.backward",
        (("repro.learning.models", "SampledGNN.backward"),),
        ("train-sage",), NOT_TRAIN,
        "seeds_per_s and final_loss on train-sage",
    ),
    Layer(
        "pipeline.train",
        (("repro.pipeline.executor", "PipelinedTrainer.train"),),
        ("train-sage",), NOT_TRAIN,
        "sim_run_ms on train-sage", stats=("calls", "s", "self_s"),
    ),
    # -- serving --------------------------------------------------------
    Layer(
        "serve.route",
        (("repro.serve.router", "Router.route"),),
        SERVE, CLOSED, "seeds_per_s on serve-*",
    ),
    Layer(
        "serve.plan",
        (("repro.serve.compose", "BatchComposer.plan"),),
        SERVE, CLOSED, "seeds_per_s on serve-*",
    ),
    Layer(
        "serve.fire",
        (("repro.serve.replica", "Replica.fire_next_batch"),),
        SERVE, CLOSED, "seeds_per_s on serve-*",
    ),
    Layer(
        "serve.advance",
        (("repro.serve.replica", "Replica.advance_until"),),
        SERVE, CLOSED, "seeds_per_s on serve-*",
    ),
    Layer(
        "stats.percentile",
        (("repro.stats", "SlidingWindow.percentile"),),
        SERVE, CLOSED, "seeds_per_s on serve-*",
    ),
    Layer(
        "serve.summarize",
        (("repro.serve.metrics", "summarize"),),
        SERVE, CLOSED, "seeds_per_s on serve-*",
        stats=("calls", "s", "self_s"),
    ),
    # -- dynamic graph and partition maintenance ------------------------
    Layer(
        "dynamic.apply",
        (("repro.dynamic.delta", "DeltaGraph.apply"),),
        ("serve-ingest",), NOT_INGEST,
        "seeds_per_s and staleness_ms on serve-ingest",
    ),
    Layer(
        "dynamic.snapshot",
        (("repro.dynamic.delta", "DeltaGraph.snapshot"),),
        ("serve-ingest",), NOT_INGEST,
        "seeds_per_s and staleness_ms on serve-ingest",
    ),
    Layer(
        "dynamic.compact",
        (("repro.dynamic.delta", "DeltaGraph.compact"),),
        ("serve-ingest",), NOT_INGEST,
        "seeds_per_s and staleness_ms on serve-ingest",
    ),
    Layer(
        "partition.rebalance",
        (("repro.partition.incremental", "incremental_rebalance"),),
        ("serve-ingest",), NOT_INGEST,
        "seeds_per_s on serve-ingest",
    ),
)

#: Per-layer counters read from the program's own accessors after a
#: repeat, never timed: ``name -> (should move, workloads where it is 0)``.
#: Units and directions are declared in ``BENCHMARK.json``.
SIM_COUNTERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "device.launches": ("sim_run_ms", ()),
    "device.bytes_moved": ("sim_run_ms", ()),
    "device.sample_busy_ms": ("sim_run_ms, sim_p99_ms", ()),
    "device.transfer_busy_ms": ("sim_run_ms, sim_p99_ms", ("walk-n2v",)),
    "cache.hit_rate": ("sim_p99_ms on serve-shard", ("walk-n2v",)),
    "cache.invalidated_rows": ("sim_p99_ms on serve-ingest", NOT_INGEST),
    "algorithms.walk.steps": ("seeds_per_s on walk-n2v", SAMPLING),
    "learning.steps": ("final_loss on train-sage", NOT_TRAIN),
    "pipeline.overlap_reduction": ("sim_run_ms on train-sage", NOT_TRAIN),
    "pipeline.compute_idle_frac": ("sim_run_ms on train-sage", NOT_TRAIN),
    "serve.plans_per_batch": ("seeds_per_s on serve-*", CLOSED),
    "serve.queue_ms_mean": ("sim_p99_ms on serve-*", CLOSED),
    "serve.batch_mean": ("sim_max_rps on serve-shard", CLOSED),
    "serve.shed": ("failed_frac on serve-*", CLOSED),
    "serve.degraded": ("sim_slo_attainment on serve-*", CLOSED),
    "serve.lost": ("failed_frac on serve-*", WORKLOADS),
    "serve.cross_shard_rows": ("sim_p99_ms on serve-*", CLOSED),
    "serve.link_ms": ("sim_p99_ms on serve-*", CLOSED),
    "serve.dedup_rows": ("sim_p99_ms on serve-ingest", NOT_INGEST),
    "serve.mean_fused": ("sim_p99_ms on serve-ingest", NOT_INGEST),
    "partition.migrated_rows": ("sim_p99_ms on serve-ingest", NOT_INGEST),
    "dynamic.refresh_ms": ("sim_p99_ms and staleness_ms on serve-ingest", NOT_INGEST),
    "dynamic.ingested_edges": ("staleness_ms on serve-ingest", NOT_INGEST),
}
