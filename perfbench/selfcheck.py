#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of ``repro``).

Run from the repository root (about three minutes)::

    python3 perfbench/selfcheck.py

Checks, each printed PASS or FAIL:

* layer coverage: on a short traced run of every workload, each wrapped
  layer records at least one call where ``layers.py`` says the workload
  exercises it and none where it says the workload bypasses it, and each
  simulated counter declared zero on a workload reads zero there;
* shims: a traced run leaves no shim behind, and an untraced run never
  calls the installer;
* self-time accounting: every ``self_s`` is >= 0, and the self times plus
  ``residual.s`` equal the traced run time;
* determinism: two untraced runs of one seed agree on every simulated
  metric and fingerprint, with no failed operation;
* declared metrics: ``BENCHMARK.json`` declares exactly the metrics the
  runs produce;
* hygiene: a benchmark run leaves ``git status --porcelain`` unchanged;
* bare checkout: with only ``BENCHMARK.json`` and ``perfbench/`` present
  the benchmark exits non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import traceback

import run

SEED = 1
SECONDS = 1.0
FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check(name: str):
    def decorate(fn):
        def wrapped(*args):
            try:
                fn(*args)
            except Exception:  # report every check, then exit non-zero
                FAILURES.append(name)
                print(f"FAIL {name}\n{traceback.format_exc()}", flush=True)
            else:
                print(f"PASS {name}", flush=True)

        return wrapped

    return decorate


@check("layer coverage")
def check_coverage(records: dict) -> None:
    from layers import LAYERS, SIM_COUNTERS

    for name, record in records.items():
        for layer in LAYERS:
            phase = "setup_layer_calls" if layer.phase == "setup" else "layer_calls"
            got = record[phase].get(layer.name, 0)
            if name in layer.exercised:
                expect(got >= 1, f"{layer.name} not reached on {name}")
            if name in layer.bypassed:
                expect(got == 0, f"{layer.name} reached {got} times on {name}")
        for counter, (_, zero_on) in SIM_COUNTERS.items():
            if name in zero_on:
                value = record["values"][counter]
                expect(value == 0, f"{counter} = {value} on {name}")


@check("shims removed after traced runs")
def check_no_leftovers(records: dict) -> None:
    import tracing

    for name, record in records.items():
        expect(record["shims_installed"] > 0, f"no shims installed on {name}")
    expect(not tracing.leftover_shims(), f"left over: {tracing.leftover_shims()}")


@check("untraced run installs no shim")
def check_untraced() -> None:
    import tracing

    def forbidden(*_args, **_kwargs):
        raise AssertionError("untraced run called tracing.install")

    real = tracing.install
    tracing.install = forbidden
    try:
        record = run.measure("train-sage", SEED, SECONDS, trace=False)
    finally:
        tracing.install = real
    expect(record["shims_installed"] == 0, "untraced record reports shims")
    expect(not tracing.leftover_shims(), "shims bound after an untraced run")


@check("self-time accounting")
def check_self_time(records: dict) -> None:
    for name, record in records.items():
        self_s = record["layer_self_s"]
        for layer, seconds in self_s.items():
            expect(seconds >= 0.0, f"{layer}.self_s = {seconds} on {name}")
        total = sum(self_s.values()) + record["values"]["residual.s"]
        expect(
            math.isclose(total, record["traced_run_s"], rel_tol=1e-9, abs_tol=1e-9),
            f"self + residual = {total} != traced run {record['traced_run_s']} on {name}",
        )
        expect("trace.overhead_frac" in record["values"], "no overhead_frac")


@check("determinism across runs of one seed")
def check_determinism() -> None:
    first = run.measure("serve-shard", SEED, SECONDS, trace=False)
    second = run.measure("serve-shard", SEED, SECONDS, trace=False)
    for record in (first, second):
        expect(record["failed"] == 0, f"failed operations: {record['problems']}")
    expect(first["fingerprint"] == second["fingerprint"], "fingerprints differ")
    for key, value in first["values"].items():
        if key.startswith("sim_") or key in ("final_loss", "staleness_ms"):
            expect(second["values"][key] == value, f"{key} differs")


@check("declared metrics match the measured ones")
def check_declared(records: dict, untraced: dict) -> None:
    from layers import LAYERS, SIM_COUNTERS

    declared = run.declared_metrics()
    produced = {f"{layer.name}.{stat}" for layer in LAYERS for stat in layer.stats}
    produced |= set(SIM_COUNTERS)
    expect(produced <= set(declared["per_layer"]), f"undeclared: {produced - set(declared['per_layer'])}")
    for record in records.values():
        run.result_line(record, declared)
    run.result_line(untraced, declared)


@check("git status unchanged by a run")
def check_hygiene() -> None:
    def status() -> str:
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=run.ROOT, capture_output=True, text=True, check=True,
        ).stdout

    inside = subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    if inside.returncode != 0:
        print("  (not a git work tree: skipped)")
        return
    before = status()
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-sage",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, check=True,
    )
    expect(status() == before, "git status changed by a benchmark run")


@check("bare checkout exits non-zero without a result")
def check_bare() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            run.HERE, bare / "perfbench",
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "walk-n2v",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(done.returncode != 0, "exit code 0 without a program")
        expect('"correct"' not in done.stdout, "printed a result without a program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


@check("traced runs complete")
def traced_runs(records: dict) -> None:
    for name in ("train-sage", "walk-n2v", "serve-shard", "serve-ingest"):
        records[name] = run.measure(name, SEED, SECONDS, trace=True)


def main() -> int:
    run.prepare()
    records = {}
    traced_runs(records)
    if FAILURES:
        return 1
    check_coverage(records)
    check_no_leftovers(records)
    check_self_time(records)
    untraced = run.measure("walk-n2v", SEED, SECONDS, trace=False)
    check_declared(records, untraced)
    check_untraced()
    check_determinism()
    check_hygiene()
    check_bare()
    print(json.dumps({"failed_checks": FAILURES}))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
