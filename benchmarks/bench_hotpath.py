"""Hot-path kernel benchmark: reference loops vs. batch-vectorized kernels.

Runs static discovery on the LDBC and IYP generators at two scales for
both LSH methods, once on the reference engine of ``tests/oracles/`` (the
element-at-a-time loops, i.e. the pre-kernel implementation) and once on
the production engine (distinct-pattern compaction, CSR MinHash,
vectorized banding, embedder reuse).  Both must produce byte-identical
serialized schemas; the speedup table is written to
``BENCH_hotpath.json`` at the repository root.  The ``reference_*`` and
``vectorized_*`` keys name the two engines.

Usage:

    PYTHONPATH=src python benchmarks/bench_hotpath.py

``REPRO_BENCH_SCALE`` multiplies the two base scales (default 1.0 here --
the committed JSON is generated at the default; CI smoke runs at 0.1).
As a pytest benchmark (``pytest benchmarks/bench_hotpath.py``) the session
``scale`` fixture is the multiplier and no JSON is written.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.pipeline import PGHive
from repro.datasets import get_dataset
from repro.graph.store import GraphStore
from repro.schema import serialize_pg_schema
from repro.util.tables import render_table

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    # The reference engine is a test oracle, not part of the package.
    sys.path.insert(0, str(REPO_ROOT))
from tests.oracles import discover_reference  # noqa: E402

BASE_SCALES = (2.0, 8.0)
DATASETS = ("LDBC", "IYP")
REPEATS = 3
OUTPUT = REPO_ROOT / "BENCH_hotpath.json"


def _run_once(store: GraphStore, method: LSHMethod, kernels: str):
    """One discovery run; returns (seconds, serialized schema, report).

    ``kernels`` is ``"reference"`` (the oracle engine) or
    ``"vectorized"`` (``PGHive``, the production engine).
    """
    config = PGHiveConfig(method=method, post_processing=False)
    started = time.perf_counter()
    if kernels == "reference":
        engine = discover_reference(store, config)
        schema, report = engine.schema, engine.reports[0]
    else:
        result = PGHive(config).discover(store)
        schema, report = result.schema, result.batches[0]
    elapsed = time.perf_counter() - started
    return elapsed, serialize_pg_schema(schema), report


def run_hotpath_bench(multiplier: float, repeats: int = REPEATS) -> dict:
    """Reference-vs-vectorized speedup table over datasets x scales x methods.

    Each mode runs ``repeats`` times and keeps the best wall-clock (the
    usual best-of-N protocol to suppress scheduler noise); the serialized
    schemas of the two modes are compared byte for byte.
    """
    runs = []
    for dataset in DATASETS:
        for base_scale in BASE_SCALES:
            scale = base_scale * multiplier
            store = GraphStore(get_dataset(dataset, scale=scale, seed=0).graph)
            for method in (LSHMethod.ELSH, LSHMethod.MINHASH):
                timings = {}
                schemas = {}
                stage_seconds = {}
                for kernels in ("reference", "vectorized"):
                    best = float("inf")
                    for _ in range(repeats):
                        elapsed, schema, report = _run_once(
                            store, method, kernels
                        )
                        if elapsed < best:
                            best = elapsed
                            stage_seconds[kernels] = {
                                name: round(seconds, 6)
                                for name, seconds in
                                report.stage_seconds.items()
                            }
                    timings[kernels] = best
                    schemas[kernels] = schema
                runs.append({
                    "dataset": dataset,
                    "scale": scale,
                    "num_nodes": store.count_nodes(),
                    "num_edges": store.count_edges(),
                    "method": method.value,
                    "reference_seconds": round(timings["reference"], 6),
                    "vectorized_seconds": round(timings["vectorized"], 6),
                    "speedup": round(
                        timings["reference"] / timings["vectorized"], 3
                    ),
                    "schemas_identical": (
                        schemas["reference"] == schemas["vectorized"]
                    ),
                    "reference_stage_seconds": stage_seconds["reference"],
                    "vectorized_stage_seconds": stage_seconds["vectorized"],
                })
    largest_ldbc = max(
        (r for r in runs if r["dataset"] == "LDBC"), key=lambda r: r["scale"]
    )["scale"]
    return {
        "description": (
            "Static-discovery wall-clock of the element-at-a-time reference "
            "loops (the tests/oracles engine, the pre-kernel implementation) "
            "vs. the batch-vectorized kernels (the production engine); best "
            f"of {repeats} runs each, identical seeds, byte-compared schemas."
        ),
        "scale_multiplier": multiplier,
        "repeats": repeats,
        "runs": runs,
        "ldbc_static_speedup": {
            r["method"]: r["speedup"]
            for r in runs
            if r["dataset"] == "LDBC" and r["scale"] == largest_ldbc
        },
    }


def _print_table(payload: dict) -> None:
    rows = [
        [
            run["dataset"],
            f"{run['scale']:g}",
            f"{run['num_nodes']}+{run['num_edges']}",
            run["method"],
            f"{run['reference_seconds'] * 1000:.0f}",
            f"{run['vectorized_seconds'] * 1000:.0f}",
            f"{run['speedup']:.2f}x",
            "yes" if run["schemas_identical"] else "NO",
        ]
        for run in payload["runs"]
    ]
    print(render_table(
        ["dataset", "scale", "n+m", "method", "ref ms", "vec ms",
         "speedup", "identical"],
        rows,
        "Hot-path kernels: reference loops vs. vectorized "
        f"(x{payload['scale_multiplier']:g} scale)",
    ))


def test_hotpath_speedup(benchmark, scale):
    """Pytest entry: schemas identical; kernels at least competitive."""
    payload = benchmark.pedantic(
        lambda: run_hotpath_bench(scale, repeats=1), rounds=1, iterations=1
    )
    print()
    _print_table(payload)
    assert all(run["schemas_identical"] for run in payload["runs"])
    if scale >= 1.0:
        assert all(
            speedup >= 3.0
            for speedup in payload["ldbc_static_speedup"].values()
        ), payload["ldbc_static_speedup"]


def main() -> None:
    multiplier = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    payload = run_hotpath_bench(multiplier)
    _print_table(payload)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    if not all(run["schemas_identical"] for run in payload["runs"]):
        raise SystemExit("schema mismatch between the two engines")


if __name__ == "__main__":
    main()
