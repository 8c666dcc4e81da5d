#!/usr/bin/env python3
"""Two-clock benchmark of the gSampler reproduction (``src/repro``).

Run from the repository root::

    python3 perfbench/run.py --workload serve-shard --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer's entry points in
span shims and reports the per-layer metrics.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` or ``per_layer`` names declared in
``BENCHMARK.json``).  A full record of the run goes to ``perfbench/out/``.
See ``perfbench/README.md`` for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS/OpenMP pools pinned to one thread: each workload is one process
#: on one Python thread, so a pool would only add scheduling noise.
THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
#: Set-up runs this many times per untraced run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Deterministic simulated metrics every record carries, 0 where the
#: workload has no such quantity; untraced runs print them too.
SIM_METRICS = (
    "sim_run_ms",
    "sim_p50_ms",
    "sim_p99_ms",
    "sim_latency_samples",
    "sim_peak_mb",
    "sim_slo_attainment",
    "sim_max_rps",
    "staleness_ms",
    "final_loss",
)


class ProgramMissing(Exception):
    """The checkout holds no ``src/repro`` to benchmark."""


def prepare() -> None:
    """Pin the thread pools (before NumPy loads) and put ``src`` first on
    the import path."""
    os.environ.update(THREAD_PINS)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


class Clock:
    """Accumulates the host time of the program calls a repeat makes;
    arms the span recorder for exactly that time when tracing."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.seconds = 0.0

    def __enter__(self) -> None:
        if self.recorder is not None:
            self.recorder.armed = True
        self._start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.seconds += time.perf_counter() - self._start
        if self.recorder is not None:
            self.recorder.armed = False


def calibrate() -> float:
    """Median time of a fixed NumPy loop (context only; gates nothing)."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 18)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(4):
            np.sort(data)
            np.cumsum(data)
            data @ data
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def program_digest() -> str:
    """Hash of the program and benchmark sources: fingerprints recorded
    under one digest must repeat exactly for the same seed."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _repeat_loop(workload, state, make_clock, *, seconds=0.0, count=0):
    """Run repeats until ``seconds`` of wall time pass, or ``count``
    repeats when given; returns ``(outcomes, clocks)``, one per repeat."""
    outcomes, clocks = [], []
    deadline = time.perf_counter() + seconds
    while True:
        clock = make_clock()
        outcomes.append(workload.run(state, clock))
        clocks.append(clock)
        if (len(clocks) >= count) if count else time.perf_counter() >= deadline:
            return outcomes, clocks


def _seeds_per_s(outcomes, clocks) -> float:
    """Seed units per host second of the fastest repeat.

    Repeats are identical work, so their times share a floor and only
    run slow: the shared host's slow periods slow every layer at once
    and last longer than a repeat.  The fastest repeat is the one least
    touched by them; a median moves with whatever share of the run fell
    in one (see "Steadiness" in the README)."""
    return max(o.units / c.seconds for o, c in zip(outcomes, clocks))


def _tally(reference, outcomes) -> tuple[int, int, list[str]]:
    """Attempted and failed operations; a repeat whose fingerprint
    differs from the reference's fails every operation it made."""
    attempted = reference.ops
    failed = reference.failed
    problems = list(reference.problems)
    for out in outcomes:
        attempted += out.ops
        if out.fingerprint != reference.fingerprint:
            failed += out.ops
            problems.append("fingerprint differs between repeats of one input")
        else:
            failed += out.failed
            problems += out.problems
    return attempted, failed, problems


def _check_store(workload: str, seed: int, digest: str, pin: dict) -> list[str]:
    """Compare this run's deterministic outputs with earlier runs of the
    same seed and sources, then record them."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "fingerprints.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    key = f"{digest}:{workload}:{seed}"
    problems = []
    if key in store and store[key] != pin:
        problems.append(f"deterministic outputs differ from an earlier run: {key}")
    else:
        store[key] = pin
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(path)
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    import numpy as np

    from layers import LAYERS, SIM_COUNTERS
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    meta = {
        "workload": name,
        "loop": workload.loop,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "calibration_s": calibrate(),
        "program_digest": program_digest(),
    }
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        state = None  # the previous set-up's dataset must not count in peak RSS
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    # Warm-up repeat, untimed: fills lazy caches and yields the
    # deterministic simulated metrics and the reference fingerprint.
    reference = workload.run(state, Clock(), harvest=True)
    sim = dict(reference.sim)
    sim.update(workload.extra(state))
    values: dict[str, float] = {}
    record = {"meta": meta, "setup_times_s": setup_times}
    if not trace:
        outcomes, clocks = _repeat_loop(workload, state, Clock, seconds=seconds)
        values.update(
            setup_s=statistics.median(setup_times),
            seeds_per_s=_seeds_per_s(outcomes, clocks),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        record["repeat_times_s"] = [c.seconds for c in clocks]
        record["shims_installed"] = 0
    else:
        outcomes, values, layer_record = _traced(
            workload, state, seed, seconds, LAYERS
        )
        record.update(layer_record)
        values.update(
            {name: reference.counters.get(name, 0.0) for name in SIM_COUNTERS}
        )
        values["serve.plans_per_batch"] = (
            values["serve.plan.calls"] / values["serve.fire.calls"]
            if values["serve.fire.calls"]
            else 0.0
        )
    attempted, failed, problems = _tally(reference, outcomes)
    pin = {"fingerprint": reference.fingerprint, "sim": sim}
    store_problems = _check_store(name, seed, meta["program_digest"], pin)
    if store_problems:
        failed = attempted
        problems += store_problems
    for key in SIM_METRICS:
        values[key] = float(sim.get(key, 0.0))
    values["failed_frac"] = failed / attempted
    record.update(
        attempted=attempted,
        failed=failed,
        problems=problems[:50],
        fingerprint=reference.fingerprint,
        values=values,
    )
    return record


def _traced(workload, state, seed, seconds, layers):
    """Untraced repeats for half the time, then as many traced repeats
    (and one traced set-up) with every layer shim installed."""
    import tracing

    plain, plain_clocks = _repeat_loop(workload, state, Clock, seconds=seconds / 2)
    plain_times = [c.seconds for c in plain_clocks]
    recorder = tracing.Recorder()
    installed = tracing.install(recorder, layers)
    try:
        missed = tracing.unwrapped_bindings(layers)
        if missed:
            raise RuntimeError(f"entry points left unwrapped: {missed}")
        state = None
        recorder.armed = True
        state = workload.setup(seed)
        recorder.armed = False
        setup_inclusive = dict(recorder.inclusive)
        setup_calls = dict(recorder.calls)
        recorder.reset()
        outcomes, traced_clocks = _repeat_loop(
            workload, state, lambda: Clock(recorder), count=len(plain_times)
        )
        traced_times = [c.seconds for c in traced_clocks]
    finally:
        shims = len(installed.patches)
        installed.remove()
    n = len(traced_times)
    run_s = sum(traced_times)
    top_level = sum(s for (parent, _), s in recorder.edges.items() if parent == "-")
    values: dict[str, float] = {}
    for layer in layers:
        for stat in layer.stats:
            metric = f"{layer.name}.{stat}"
            if stat == "s" and layer.phase == "setup":
                values[metric] = setup_inclusive.get(layer.name, 0.0)
            elif stat == "s":
                values[metric] = recorder.inclusive.get(layer.name, 0.0) / n
            elif stat == "self_s":
                values[metric] = recorder.self_time.get(layer.name, 0.0) / n
            elif stat == "calls":
                values[metric] = recorder.calls.get(layer.name, 0) / n
            else:
                values[metric] = recorder.counts.get(metric, 0.0) / n
    unreported = sorted(
        name
        for name, seconds in recorder.self_time.items()
        if seconds > 0 and f"{name}.self_s" not in values
    )
    if unreported:
        raise RuntimeError(f"repeat time in layers with no self_s metric: {unreported}")
    values["residual.s"] = (run_s - top_level) / n
    values["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    )
    layer_record = {
        "shims_installed": shims,
        "traced_repeats": n,
        "traced_run_s": run_s / n,
        "untraced_times_s": plain_times,
        "traced_times_s": traced_times,
        "layer_calls": {k: v / n for k, v in recorder.calls.items()},
        "layer_self_s": {k: v / n for k, v in recorder.self_time.items()},
        "layer_inclusive_s": {k: v / n for k, v in recorder.inclusive.items()},
        "setup_layer_s": setup_inclusive,
        "setup_layer_calls": setup_calls,
        "edges_s": {f"{p} > {c}": s / n for (p, c), s in recorder.edges.items()},
    }
    return plain + outcomes, values, layer_record


def result_line(record: dict, declared: dict) -> dict:
    """The result object printed last: exactly the declared metrics."""
    kind = "per_layer" if record["meta"]["trace"] else "end_to_end"
    missing = set(declared[kind]) - set(record["values"])
    if missing:
        raise KeyError(f"declared metrics not measured: {sorted(missing)}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["values"][name], "unit": unit}
            for name, unit in declared[kind].items()
        },
    }


def parse_args(argv=None) -> argparse.Namespace:
    from layers import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare()
    except ProgramMissing as exc:
        print(exc, file=sys.stderr)
        return 2
    declared = declared_metrics()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    meta = record["meta"]
    print(
        f"# {meta['workload']} ({meta['loop']} loop) seed={meta['seed']} "
        f"nproc={meta['nproc']} python={meta['python']} numpy={meta['numpy']} "
        f"pins=1 calibration_s={meta['calibration_s']:.6f}"
    )
    units = {**declared["end_to_end"], **declared["per_layer"]}
    shown = declared["per_layer"] if args.trace else {
        **declared["end_to_end"],
        **{k: units[k] for k in ("failed_frac", *SIM_METRICS)},
    }
    for name in shown:
        print(f"{name:32s} {record['values'][name]:>18.6f} {units[name]}")
    for problem in record["problems"]:
        print(f"! {problem}")
    print(json.dumps(result_line(record, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
