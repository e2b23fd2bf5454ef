"""PG-HIVE end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload static_ldbc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload pool_disk --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the real program (``python -m repro``) and prints
every end-to-end metric; ``--trace 1`` composes the workload from the
layers' public calls and prints every per-layer metric.  Either way the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (input pin, samples, host
calibration) goes to ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import procs  # noqa: E402
from inputs import (  # noqa: E402
    PINNED_ENV,
    SRC,
    WORK,
    WORKLOADS,
    Prepared,
    child_env,
    hash_seed,
    prepare,
    program_available,
)
from measure import (  # noqa: E402
    CONTEXT,
    Samples,
    measure_cli,
    measure_serve,
    summarize,
)
from traced import PER_LAYER, run_traced, write_spans  # noqa: E402


def measure_window(
    prepared: Prepared, seconds: float, env: dict[str, str]
) -> Samples:
    if prepared.workload.serve:
        samples = Samples()
        measure_serve(prepared.plan, prepared.ref, seconds, env, samples)
        return samples
    return measure_cli(
        prepared.workload, prepared.pin, prepared.ref, seconds, env
    )


def host() -> dict[str, Any]:
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def _calibration(samples: Samples) -> dict[str, Any]:
    probes = samples.calibration
    if not probes:
        return {}
    return {
        "python_s": statistics.median(p["python_s"] for p in probes),
        "numpy_s": statistics.median(p["numpy_s"] for p in probes),
        "n": len(probes),
    }


def _print_header(prepared: Prepared, seed: int) -> None:
    pin = prepared.pin
    print(
        f"== {prepared.workload.name}: {pin.path.name} "
        f"({pin.nodes} nodes / {pin.edges} edges / {pin.bytes} bytes, "
        f"sha256 {pin.sha256[:16]}, PYTHONHASHSEED={hash_seed(seed)})"
    )


def run_untraced(
    names: list[str], seed: int, seconds: float, smoke: bool,
    results: Path,
) -> tuple[dict[str, Any], int, int]:
    """Measure the real program; round-robin over workloads for ``all``."""
    env = child_env(seed)
    prepared = {name: prepare(name, seed, smoke) for name in names}
    # The references and requests live for the whole run; keep the
    # collector from re-scanning them during in-process timings.
    gc.collect()
    gc.freeze()
    procs.run(
        [sys.executable, "-m", "repro", "--help"], env=env,
        stdout=subprocess.DEVNULL, check=True,
    )  # fills the bytecode cache before any start-up is timed
    rounds = 2 if len(names) > 1 else 1
    samples = {name: Samples() for name in names}
    for _ in range(rounds):
        for name in names:
            samples[name].extend(
                measure_window(prepared[name], seconds / rounds, env)
            )
    out: dict[str, Any] = {}
    attempted = failed = 0
    for name in names:
        metrics = summarize(samples[name])
        context = summarize(samples[name], CONTEXT)
        calibration = _calibration(samples[name])
        record = samples[name]
        attempted += record.attempted
        failed += record.failed
        _print_header(prepared[name], seed)
        for metric, stats in {**metrics, **context}.items():
            print(
                f"   {metric:<20} {stats['value']:>14.4f} {stats['unit']:<7}"
                f" n={stats['n']:<4} q1={stats['q1']:.4f} "
                f"median={stats['median']:.4f} q3={stats['q3']:.4f}"
            )
        rate = record.failed / record.attempted if record.attempted else 0.0
        print(f"   {'failure_rate':<20} {rate:>14.4f} "
              f"{record.failed}/{record.attempted} operations failed")
        for failure in record.failures:
            print(f"   ! {failure}")
        print(f"   calibration: {calibration}")
        _write_result(results, name, seed, 0, {
            "input": prepared[name].pin.to_dict(),
            "calibration": calibration,
            "metrics": metrics,
            "context": context,
            "failure_rate": rate,
            "attempted": record.attempted,
            "failed": record.failed,
            "failures": record.failures,
            "samples": {
                key: getattr(record, key) for key in (
                    "setup_s", "wall_s", "cpu_s", "peak_rss_mib",
                    "ingest_elems_per_s", "validate_ms", "batch_ms",
                    "calibration",
                )
            },
        })
        for metric, stats in metrics.items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            out[key] = {"value": stats["value"], "unit": stats["unit"]}
    return out, attempted, failed


def run_traced_mode(
    names: list[str], seed: int, seconds: float, smoke: bool,
    results: Path,
) -> tuple[dict[str, Any], int, int]:
    """Per-layer metrics from traced compositions."""
    out: dict[str, Any] = {}
    attempted = failed = 0
    for name in names:
        prepared = prepare(name, seed, smoke)
        samples = Samples()
        layer, spans = run_traced(prepared, seed, seconds, smoke, samples)
        attempted += samples.attempted
        failed += samples.failed
        _print_header(prepared, seed)
        for metric, value in layer.items():
            print(f"   {metric:<32} {value:>16.6f} {PER_LAYER[metric]}")
        print(f"   composition checks: {samples.failed}/{samples.attempted} "
              "failed")
        for failure in samples.failures:
            print(f"   ! {failure}")
        spans_path = results / f"{name}-seed{seed}.trace.json"
        write_spans(spans_path, spans)
        _write_result(results, name, seed, 1, {
            "input": prepared.pin.to_dict(),
            "metrics": layer,
            "attempted": samples.attempted,
            "failed": samples.failed,
            "failures": samples.failures,
            "spans": spans_path.name,
        })
        for metric, value in layer.items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            out[key] = {"value": value, "unit": PER_LAYER[metric]}
    return out, attempted, failed


def _write_result(
    results: Path, name: str, seed: int, trace: int, record: dict[str, Any]
) -> None:
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "pythonhashseed": hash_seed(seed), "host": host(), **record,
    }
    path = results / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not program_available():
        print(f"error: no program to benchmark at {SRC}/repro", file=sys.stderr)
        return 2
    env = child_env(args.seed)
    if any(os.environ.get(name) != env[name] for name in PINNED_ENV):
        # Schema bytes can depend on the hash seed, so the in-process
        # references must run under the same pin as every child.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  env)
    sys.path.insert(0, str(SRC))
    for sub in ("work", "tmp", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = run_traced_mode if args.trace else run_untraced
    procs.become_subreaper()
    try:
        metrics, attempted, failed = runner(
            names, args.seed, args.seconds, args.smoke, WORK / "results"
        )
    finally:
        procs.reap_all()
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
