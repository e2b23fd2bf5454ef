"""Parallel sharded discovery benchmark: sequential vs. worker pools.

Runs incremental discovery on the LDBC generator at two scales with
``jobs`` in {1, 2, 4, 8} and byte-compares every parallel schema against
the sequential one.  Because container CPU quotas routinely make fewer
effective cores available than ``nproc`` reports, the harness first
*calibrates* the machine with fixed-work spin tasks and reports, next to
each measured wall-clock speedup, the Amdahl projection from the
measured serial fraction (shard partitioning + shard merge; the per-shard
discovery itself is fully parallel in plan mode).  On an unconstrained
host the measured speedup approaches the projection; on a quota-limited
host the calibration documents the ceiling.

The payload also records the worker payload cost: what actually crosses
the process pipe -- shard plans out and per-shard schemas back, pickled
whole -- and how long that pickle round trip takes.  The partition
timing is the driver's serial ``store.plan_shards`` call, the same
cached partition the sequential engine's ``store.batches`` uses.  A
second stage
table compares section 4.4 post-processing as the serial engine runs it
(store-backed member scans) against the sharded fold the pool uses
(``attach_partial_stats`` in each worker, one store-free
``apply_partial_stats`` at the driver), byte-compared.

Usage:

    PYTHONPATH=src python benchmarks/bench_parallel.py [--smoke]

``REPRO_BENCH_SCALE`` multiplies the base scales; ``--smoke`` shrinks
scales and worker counts for CI.  As a pytest benchmark the session
``scale`` fixture is the multiplier and no JSON is written.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.core.columns import edge_columns, node_columns
from repro.core.config import PGHiveConfig
from repro.core.incremental import IncrementalDiscovery
from repro.core.parallel import ShardResult, combine_shard_results
from repro.core.pipeline import PGHive
from repro.core.postprocess import (
    apply_partial_stats,
    attach_partial_stats,
    compute_cardinalities,
    infer_datatypes,
    infer_property_constraints,
)
from repro.datasets import get_dataset
from repro.graph.store import GraphStore
from repro.schema import serialize_pg_schema
from repro.util.tables import render_table

BASE_SCALES = (8.0, 32.0)
JOBS = (1, 2, 4, 8)
NUM_BATCHES = 8
REPEATS = 2
SPIN_ITERATIONS = 12_000_000
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _spin(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i
    return total


def calibrate_cpu(workers: int = 4) -> dict:
    """Measure how much CPU the container actually delivers.

    ``workers`` processes each execute the same fixed amount of work; on
    ``workers`` free cores the wall clock matches one task, under a CPU
    quota it stretches toward ``workers`` times one task.  The ratio is
    the machine's effective parallelism -- the hard ceiling for any
    measured wall-clock speedup below.
    """
    started = time.perf_counter()
    _spin(SPIN_ITERATIONS)
    single = time.perf_counter() - started
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        started = time.perf_counter()
        list(pool.map(_spin, [SPIN_ITERATIONS] * workers))
        group = time.perf_counter() - started
    effective = workers * single / group if group > 0 else float(workers)
    return {
        "probe_workers": workers,
        "single_task_seconds": round(single, 4),
        "parallel_group_seconds": round(group, 4),
        "effective_parallelism": round(effective, 2),
        "os_cpu_count": os.cpu_count(),
    }


def _measure_serial_components(graph, config) -> dict:
    """Time the driver's inherently serial steps and the pipe payload.

    Discovers every shard in-process (so the measurement is not polluted
    by pool scheduling), then times (a) the driver's serial partition
    (``store.plan_shards``), (b) the batch-order fold of the per-shard
    schemas, and (c) what a pool run ships across the pipe.
    """
    store = GraphStore(graph)
    started = time.perf_counter()
    plans = store.plan_shards(NUM_BATCHES, seed=config.seed)
    partition_seconds = time.perf_counter() - started
    engine = IncrementalDiscovery(config, name="shard")
    worker_compute = 0.0
    results = []
    for plan in plans:
        batch = store.materialize_shard(plan)
        batch_started = time.perf_counter()
        schema, report = engine.discover_batch_columns(
            node_columns(batch.nodes),
            edge_columns(batch.edges, batch.endpoint_labels),
            batch_index=plan.index,
        )
        worker_compute += time.perf_counter() - batch_started
        results.append(ShardResult(plan.index, schema, report))
    started = time.perf_counter()
    combine_shard_results(graph.name, results, config)
    merge_seconds = time.perf_counter() - started
    plans_bytes = len(pickle.dumps(plans))
    started = time.perf_counter()
    payload = pickle.dumps(results)
    pickle.loads(payload)
    pickle_seconds = time.perf_counter() - started
    return {
        "partition_seconds": round(partition_seconds, 6),
        "merge_tree_seconds": round(merge_seconds, 6),
        "pickle_roundtrip_seconds": round(pickle_seconds, 6),
        "pipe_payload_bytes": plans_bytes + len(payload),
        "worker_compute_seconds": round(worker_compute, 6),
    }


def _measure_postprocess(graph, config) -> dict:
    """Time section 4.4 post-processing: store passes vs. the sharded fold.

    Discovers the same shard set twice.  The serial reference combines
    plain shard schemas and then runs ``infer_property_constraints`` /
    ``infer_datatypes`` / ``compute_cardinalities`` against the store --
    one full member scan per pass.  The sharded path instead runs
    ``attach_partial_stats`` inside each shard (the one pass a pool
    worker folds into the schema it ships back) and finishes with the
    store-free ``apply_partial_stats`` on the merged schema.  Both
    results are byte-compared.
    """
    store = GraphStore(graph)
    plans = store.plan_shards(NUM_BATCHES, seed=config.seed)

    def _discover_shards(attach: bool) -> tuple[list[ShardResult], float]:
        engine = IncrementalDiscovery(config, name="shard")
        attach_seconds = 0.0
        results = []
        for plan in plans:
            batch = store.materialize_shard(plan)
            schema, report = engine.discover_batch_columns(
                node_columns(batch.nodes),
                edge_columns(batch.edges, batch.endpoint_labels),
                batch_index=plan.index,
            )
            if attach:
                started = time.perf_counter()
                attach_partial_stats(schema, batch.nodes, batch.edges)
                attach_seconds += time.perf_counter() - started
            results.append(ShardResult(plan.index, schema, report))
        return results, attach_seconds

    plain, _ = _discover_shards(attach=False)
    serial_schema = combine_shard_results(graph.name, plain, config)
    started = time.perf_counter()
    infer_property_constraints(serial_schema)
    infer_datatypes(serial_schema, store, config)
    compute_cardinalities(serial_schema, store)
    serial_seconds = time.perf_counter() - started

    with_stats, attach_seconds = _discover_shards(attach=True)
    sharded_schema = combine_shard_results(graph.name, with_stats, config)
    started = time.perf_counter()
    applied = apply_partial_stats(sharded_schema, config)
    apply_seconds = time.perf_counter() - started
    sharded_seconds = attach_seconds + apply_seconds
    return {
        "serial_store_seconds": round(serial_seconds, 6),
        "sharded_attach_seconds": round(attach_seconds, 6),
        "sharded_apply_seconds": round(apply_seconds, 6),
        "sharded_total_seconds": round(sharded_seconds, 6),
        "partial_path_engaged": applied,
        "schemas_identical": (
            serialize_pg_schema(sharded_schema)
            == serialize_pg_schema(serial_schema)
        ),
    }


def _amdahl(serial_fraction: float, workers: int) -> float:
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / workers)


def run_parallel_bench(
    multiplier: float,
    repeats: int = REPEATS,
    jobs_list: tuple[int, ...] = JOBS,
    base_scales: tuple[float, ...] = BASE_SCALES,
) -> dict:
    """Sequential vs. pooled discovery; schemas byte-compared throughout."""
    calibration = calibrate_cpu()
    runs = []
    for base_scale in base_scales:
        scale = base_scale * multiplier
        graph = get_dataset("LDBC", scale=scale, seed=0).graph
        config = PGHiveConfig(post_processing=False)
        serial = _measure_serial_components(graph, config)
        postprocess = _measure_postprocess(
            graph, PGHiveConfig(infer_value_profiles=True)
        )
        serial_seconds = (
            serial["partition_seconds"] + serial["merge_tree_seconds"]
        )
        timings: dict[int, float] = {}
        schemas: dict[int, str] = {}
        for jobs in jobs_list:
            best = float("inf")
            for _ in range(repeats):
                store = GraphStore(graph)
                job_config = PGHiveConfig(post_processing=False, jobs=jobs)
                started = time.perf_counter()
                result = PGHive(job_config).discover_incremental(
                    store, num_batches=NUM_BATCHES
                )
                best = min(best, time.perf_counter() - started)
            timings[jobs] = best
            schemas[jobs] = serialize_pg_schema(result.schema)
        sequential_seconds = timings[jobs_list[0]]
        serial_fraction = (
            serial_seconds / sequential_seconds
            if sequential_seconds > 0 else 0.0
        )
        runs.append({
            "dataset": "LDBC",
            "scale": scale,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "num_batches": NUM_BATCHES,
            "sequential_seconds": round(sequential_seconds, 6),
            "serial_components": serial,
            "serial_fraction": round(serial_fraction, 4),
            "postprocess": postprocess,
            "jobs": {
                str(jobs): {
                    "wall_seconds": round(timings[jobs], 6),
                    "measured_speedup": round(
                        sequential_seconds / timings[jobs], 3
                    ),
                    "amdahl_projected_speedup": round(
                        _amdahl(serial_fraction, jobs), 3
                    ),
                    "schemas_identical": (
                        schemas[jobs] == schemas[jobs_list[0]]
                    ),
                }
                for jobs in jobs_list
            },
        })
    return {
        "description": (
            "Incremental discovery wall-clock, sequential (jobs=1) vs. "
            f"process pools; best of {repeats} runs, byte-compared "
            "schemas.  measured_speedup is bounded above by the host's "
            "effective_parallelism (CPU-quota calibration below); "
            "amdahl_projected_speedup applies the measured serial "
            "fraction (serial plan_shards partition + shard merge) to "
            "ideal cores.  Each run's "
            "postprocess block compares the serial store-backed "
            "section 4.4 passes against the sharded partial-stats fold "
            "(attach in workers + one apply at the driver)."
        ),
        "scale_multiplier": multiplier,
        "repeats": repeats,
        "cpu_calibration": calibration,
        "runs": runs,
        "ldbc_measured_speedup": {
            f"scale{run['scale']:g}_jobs{jobs}": run["jobs"][jobs][
                "measured_speedup"
            ]
            for run in runs
            for jobs in run["jobs"]
            if jobs != "1"
        },
        "ldbc_projected_speedup": {
            f"scale{run['scale']:g}_jobs{jobs}": run["jobs"][jobs][
                "amdahl_projected_speedup"
            ]
            for run in runs
            for jobs in run["jobs"]
            if jobs != "1"
        },
        "speedup_ceiling_note": (
            "measured wall speedup cannot exceed the host's "
            "effective_parallelism; compare measured against the "
            "calibration, projected against the worker count"
        ),
        "schemas_identical": all(
            entry["schemas_identical"]
            for run in runs
            for entry in run["jobs"].values()
        ) and all(
            run["postprocess"]["schemas_identical"]
            and run["postprocess"]["partial_path_engaged"]
            for run in runs
        ),
    }


def _print_table(payload: dict) -> None:
    rows = []
    for run in payload["runs"]:
        for jobs, entry in run["jobs"].items():
            rows.append([
                f"{run['scale']:g}",
                f"{run['num_nodes']}+{run['num_edges']}",
                jobs,
                f"{entry['wall_seconds'] * 1000:.0f}",
                f"{entry['measured_speedup']:.2f}x",
                f"{entry['amdahl_projected_speedup']:.2f}x",
                "yes" if entry["schemas_identical"] else "NO",
            ])
    effective = payload["cpu_calibration"]["effective_parallelism"]
    print(render_table(
        ["scale", "n+m", "jobs", "wall ms", "measured",
         "projected", "identical"],
        rows,
        f"Parallel sharded discovery (LDBC, {NUM_BATCHES} batches; "
        f"host delivers ~{effective:g} effective cores)",
    ))
    post_rows = []
    for run in payload["runs"]:
        post = run["postprocess"]
        post_rows.append([
            f"{run['scale']:g}",
            f"{post['serial_store_seconds'] * 1000:.0f}",
            f"{post['sharded_attach_seconds'] * 1000:.0f}",
            f"{post['sharded_apply_seconds'] * 1000:.0f}",
            "yes" if post["partial_path_engaged"] else "NO",
            "yes" if post["schemas_identical"] else "NO",
        ])
    print(render_table(
        ["scale", "store ms", "attach ms", "apply ms",
         "partial", "identical"],
        post_rows,
        "Post-processing stage: serial store passes vs. sharded "
        "partial-stats fold (attach runs inside the pool workers)",
    ))


def test_parallel_discovery(benchmark, scale):
    """Pytest entry: parallel schemas byte-identical at every job count."""
    payload = benchmark.pedantic(
        lambda: run_parallel_bench(
            scale * 0.25, repeats=1, jobs_list=(1, 2), base_scales=(8.0,)
        ),
        rounds=1, iterations=1,
    )
    print()
    _print_table(payload)
    assert payload["schemas_identical"]


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    multiplier = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    if smoke:
        payload = run_parallel_bench(
            multiplier * 0.1, repeats=1, jobs_list=(1, 2),
            base_scales=(8.0,),
        )
    else:
        payload = run_parallel_bench(multiplier)
    _print_table(payload)
    if not smoke:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
    if not payload["schemas_identical"]:
        raise SystemExit("schema mismatch between job counts")


if __name__ == "__main__":
    main()
