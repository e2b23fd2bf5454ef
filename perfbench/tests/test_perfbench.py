"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``
(about two minutes: every workload runs once untraced and once traced on
smoke-scale inputs).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_every_end_to_end_metric(workload: str) -> None:
    result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert measured["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_composition_matches_program_output(workload: str) -> None:
    # ``correct`` is false when any composed schema differs from the
    # program's own bytes (CLI stdout, or the daemon's served schema).
    result = run_bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_planted_wrong_reference_counts_as_failure(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    import inputs
    import measure

    monkeypatch.setattr(measure, "MIN_JOBS", 1)
    prepared = inputs.prepare("static_ldbc", 5, smoke=True)
    prepared.ref.output += b"(planted: the program never prints this)\n"
    samples = measure.measure_cli(
        prepared.workload, prepared.pin, prepared.ref, 0.0,
        inputs.child_env(5),
    )
    assert samples.failed == 1
    assert samples.failures == ["discover schema differs from the reference"]
    assert samples.wall_s == []


def test_leftovers_of_a_finished_child_are_reaped() -> None:
    import procs

    procs.become_subreaper()
    # The shell exits at once and orphans its background sleep, as a
    # ``discover --jobs 2`` child orphans its resource tracker.
    child = subprocess.Popen(["sh", "-c", "sleep 30 & exit 0"], process_group=0)
    child.wait()
    assert procs._group_members(child.pid)
    procs.reap_group(child.pid, grace=0.2)
    assert procs._group_members(child.pid) == []


def test_refuses_to_compare_different_inputs(tmp_path: Path) -> None:
    import compare

    def result(directory: Path, digest: str) -> None:
        directory.mkdir()
        (directory / "static_ldbc-seed1-trace0.json").write_text(json.dumps({
            "workload": "static_ldbc", "seed": 1,
            "input": {"sha256": digest}, "metrics": {}, "calibration": {},
        }))

    result(tmp_path / "base", "a" * 64)
    result(tmp_path / "new", "b" * 64)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
