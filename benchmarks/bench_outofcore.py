"""Out-of-core storage benchmark: slab-backed vs. in-memory discovery.

Generates a JSONL dataset whose on-disk size is several times a
configured RAM budget (fat string properties keep the byte count high
while the type structure stays small), then runs parallel incremental
discovery through both storage backends, each in a fresh subprocess so
peak RSS is attributable:

* ``memory`` -- ``load_graph_jsonl`` builds the whole ``PropertyGraph``
  in the driver, then discovery runs over a ``GraphStore``;
* ``disk`` -- ``ingest_jsonl_slabs`` scans line-aligned byte ranges of
  the file on ``JOBS`` workers and appends them to memory-mapped slab
  files in file order, then discovery runs over a ``DiskGraphStore``
  whose workers mmap the slabs read-only.

Each child records its peak RSS *delta*: ``VmHWM`` at exit minus
``VmHWM`` right after imports, i.e. growth attributable to the data,
not to the interpreter.  The gate -- also CI's bounded-memory smoke --
checks three facts per scale: the dataset is at least
``BUDGET_FACTOR``x the budget, the disk driver's delta stays *under*
the budget the dataset exceeds, and the two backends' schemas are
byte-identical.

Usage:

    PYTHONPATH=src python benchmarks/bench_outofcore.py [--smoke]

``--smoke`` runs the smallest scale only (CI); the full run writes
``BENCH_outofcore.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_outofcore.json"
SRC = Path(__file__).resolve().parent.parent / "src"
MIB = 1 << 20

#: RAM budgets (MiB) per scale; the dataset targets BUDGET_FACTOR x this.
FULL_BUDGETS_MIB = (48, 96)
SMOKE_BUDGETS_MIB = (48,)
BUDGET_FACTOR = 4.0
BLOB_BYTES = 8192
NUM_BATCHES = 4
JOBS = 2
SEED = 7

#: Node shapes cycled while writing: (label, property key) pairs give
#: the discovered schema a handful of types without shrinking rows.
SHAPES = (
    ("Person", "bio"),
    ("Post", "content"),
    ("Organization", "charter"),
)
EDGE_LABELS = ("KNOWS", "LIKES", "WORKS_AT")


def peak_rss_bytes() -> int | None:
    """This process's lifetime RSS high-water mark (Linux VmHWM)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def write_dataset(path: Path, target_bytes: int) -> tuple[int, int]:
    """Stream a JSONL graph of at least ``target_bytes`` to ``path``.

    Never holds the graph in memory: rows are formatted and written one
    at a time.  Returns ``(nodes, edges)``.
    """
    nodes = 0
    with path.open("w", encoding="utf-8") as handle:
        while handle.tell() < target_bytes:
            label, key = SHAPES[nodes % len(SHAPES)]
            blob = f"{nodes:08d}" * (BLOB_BYTES // 8)
            record = {
                "kind": "node",
                "id": nodes,
                "labels": [label],
                "properties": {key: blob, "seq": nodes},
            }
            handle.write(json.dumps(record) + "\n")
            nodes += 1
        edges = 0
        for source in range(1, nodes):
            record = {
                "kind": "edge",
                "id": edges,
                "source": source,
                "target": source - 1,
                "labels": [EDGE_LABELS[source % len(EDGE_LABELS)]],
                "properties": {},
            }
            handle.write(json.dumps(record) + "\n")
            edges += 1
    return nodes, edges


def child_main(backend: str, jsonl: str, workdir: str, schema_out: str) -> None:
    """One measured run in a fresh process; prints a JSON result line."""
    from repro.core.config import PGHiveConfig
    from repro.core.pipeline import PGHive
    from repro.graph.diskstore import ingest_jsonl_slabs
    from repro.graph.io import load_graph_jsonl
    from repro.graph.store import GraphStore
    from repro.schema import serialize_pg_schema

    baseline = peak_rss_bytes()
    started = time.perf_counter()
    if backend == "disk":
        store = ingest_jsonl_slabs(jsonl, Path(workdir) / "slabs", jobs=JOBS)
    else:
        store = GraphStore(load_graph_jsonl(jsonl))
    ingest_seconds = time.perf_counter() - started

    config = PGHiveConfig(jobs=JOBS, seed=SEED, store=backend)
    started = time.perf_counter()
    result = PGHive(config).discover_incremental(
        store, num_batches=NUM_BATCHES
    )
    discover_seconds = time.perf_counter() - started
    Path(schema_out).write_text(
        serialize_pg_schema(result.schema), encoding="utf-8"
    )
    peak = peak_rss_bytes()
    delta = None if baseline is None or peak is None else peak - baseline
    print(json.dumps({
        "backend": backend,
        "peak_rss_delta_bytes": delta,
        "ingest_seconds": round(ingest_seconds, 3),
        "discover_seconds": round(discover_seconds, 3),
        "num_types": len(result.schema.node_types)
        + len(result.schema.edge_types),
    }))


def run_child(
    backend: str, jsonl: Path, workdir: Path, schema_out: Path
) -> dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    process = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()), "--child",
            backend, str(jsonl), str(workdir), str(schema_out),
        ],
        env=env, capture_output=True, text=True, check=False,
    )
    if process.returncode != 0:
        raise RuntimeError(
            f"{backend} child failed:\n{process.stdout}\n{process.stderr}"
        )
    result: dict[str, object] = json.loads(
        process.stdout.strip().splitlines()[-1]
    )
    return result


def run_scale(budget_mib: int, root: Path) -> dict[str, object]:
    budget = budget_mib * MIB
    target = int(BUDGET_FACTOR * budget)
    workdir = root / f"scale-{budget_mib}"
    workdir.mkdir(parents=True)
    jsonl = workdir / "graph.jsonl"
    nodes, edges = write_dataset(jsonl, target)
    dataset_bytes = jsonl.stat().st_size
    runs: dict[str, dict[str, object]] = {}
    schemas: dict[str, bytes] = {}
    for backend in ("memory", "disk"):
        schema_out = workdir / f"schema-{backend}.json"
        runs[backend] = run_child(backend, jsonl, workdir, schema_out)
        schemas[backend] = schema_out.read_bytes()
    disk_delta = runs["disk"]["peak_rss_delta_bytes"]
    record: dict[str, object] = {
        "budget_mib": budget_mib,
        "dataset_bytes": dataset_bytes,
        "dataset_over_budget_factor": round(dataset_bytes / budget, 2),
        "nodes": nodes,
        "edges": edges,
        "num_batches": NUM_BATCHES,
        "jobs": JOBS,
        "memory": runs["memory"],
        "disk": runs["disk"],
        "schemas_identical": schemas["memory"] == schemas["disk"],
        "disk_under_budget": (
            disk_delta is not None and disk_delta < budget
        ),
    }
    return record


def check_bounded_memory(payload: dict[str, object]) -> None:
    """The acceptance gate; CI's smoke leg fails on any violation."""
    for record in payload["scales"]:  # type: ignore[union-attr]
        label = f"budget {record['budget_mib']} MiB"
        if record["dataset_over_budget_factor"] < BUDGET_FACTOR:
            raise SystemExit(f"{label}: dataset smaller than "
                             f"{BUDGET_FACTOR}x the budget")
        if not record["schemas_identical"]:
            raise SystemExit(f"{label}: schemas differ between backends")
        if not record["disk_under_budget"]:
            raise SystemExit(
                f"{label}: disk driver peak RSS delta "
                f"{record['disk']['peak_rss_delta_bytes']} exceeds budget"
            )


def print_table(payload: dict[str, object]) -> None:
    from repro.util.tables import render_table

    rows = []
    for record in payload["scales"]:  # type: ignore[union-attr]
        for backend in ("memory", "disk"):
            run = record[backend]
            delta = run["peak_rss_delta_bytes"]
            rows.append([
                f"{record['budget_mib']} MiB",
                f"{record['dataset_bytes'] / MIB:.0f} MiB",
                backend,
                "n/a" if delta is None else f"{delta / MIB:.0f} MiB",
                f"{run['ingest_seconds']:.1f}s",
                f"{run['discover_seconds']:.1f}s",
                "yes" if record["schemas_identical"] else "NO",
            ])
    print(render_table(
        ["budget", "dataset", "backend", "peak RSS delta", "ingest",
         "discover", "identical"],
        rows,
        title="Out-of-core discovery: driver memory by storage backend",
    ))


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        child_main(*sys.argv[2:6])
        return
    smoke = "--smoke" in sys.argv[1:]
    budgets = SMOKE_BUDGETS_MIB if smoke else FULL_BUDGETS_MIB
    with tempfile.TemporaryDirectory(prefix="pghive-bench-ooc-") as tmp:
        payload: dict[str, object] = {
            "budget_factor": BUDGET_FACTOR,
            "blob_bytes": BLOB_BYTES,
            "seed": SEED,
            "scales": [
                run_scale(budget, Path(tmp)) for budget in budgets
            ],
        }
    print_table(payload)
    if not smoke:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
    check_bounded_memory(payload)


if __name__ == "__main__":
    main()
