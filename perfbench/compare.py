"""Compare two sets of untraced benchmark results.

Usage::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are result files written by ``perfbench/run.py``
(``.perfbench/results/<workload>-seed<n>-trace0.json``) or directories of
them.  Results are matched by workload and seed.  The comparison is
refused (exit 2) when a matched pair was measured on inputs with
different SHA-256 digests: a change to ``repro.datasets`` must not pass
for a change in speed.  Otherwise each end-to-end metric's median over
seeds is printed for both sets with the relative change and the bound
from ``BENCHMARK.json``, followed by the daemon's unbounded latency
figures and the host calibration probes of each set.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Any

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[tuple[str, int], dict[str, Any]]:
    files = sorted(path.glob("*-trace0.json")) if path.is_dir() else [path]
    records = {}
    for file in files:
        record = json.loads(file.read_text())
        records[(record["workload"], record["seed"])] = record
    return records


def digest_mismatches(
    base: dict[tuple[str, int], dict[str, Any]],
    new: dict[tuple[str, int], dict[str, Any]],
) -> list[str]:
    """Matched results whose inputs differ."""
    return [
        f"{workload} seed {seed}: input {base[key]['input']['sha256'][:16]} "
        f"!= {new[key]['input']['sha256'][:16]}"
        for key in sorted(base.keys() & new.keys())
        for workload, seed in [key]
        if base[key]["input"]["sha256"] != new[key]["input"]["sha256"]
    ]


def _median(records: list[dict[str, Any]], path: tuple[str, ...]) -> float:
    values = []
    for record in records:
        value: Any = record
        for part in path:
            value = value.get(part, {}) if isinstance(value, dict) else {}
        if isinstance(value, (int, float)):
            values.append(float(value))
    return statistics.median(values) if values else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    common = sorted(base.keys() & new.keys())
    if not common:
        print("error: the two sets share no (workload, seed) result",
              file=sys.stderr)
        return 2
    mismatches = digest_mismatches(base, new)
    if mismatches:
        print("error: refusing to compare results measured on different "
              "inputs:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    for workload in sorted({workload for workload, _ in common}):
        keys = [key for key in common if key[0] == workload]
        old_runs = [base[key] for key in keys]
        new_runs = [new[key] for key in keys]
        print(f"== {workload} ({len(keys)} seeds)")
        for metric in spec:
            name = metric["name"]
            before = _median(old_runs, ("metrics", name, "value"))
            after = _median(new_runs, ("metrics", name, "value"))
            change = (after - before) / before
            worse = -change if metric["better"] == "higher" else change
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            print(f"   {name:<20} {before:>14.4f} -> {after:>14.4f} "
                  f"{metric['unit']:<7} {change:+8.2%}  bound "
                  f"{metric['bound']:.0%}  {verdict}")
        for name in ("validate_p50_ms", "validate_p90_ms", "batch_p50_ms"):
            before = _median(old_runs, ("context", name, "value"))
            after = _median(new_runs, ("context", name, "value"))
            if not math.isnan(before):  # only the daemon has these figures
                print(f"   {name:<20} {before:>14.4f} -> {after:>14.4f} "
                      f"ms      {(after - before) / before:+8.2%}  "
                      "(not bounded)")
        for probe in ("python_s", "numpy_s"):
            before = _median(old_runs, ("calibration", probe))
            after = _median(new_runs, ("calibration", probe))
            print(f"   calibration {probe:<8} {before:.4f} -> {after:.4f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
