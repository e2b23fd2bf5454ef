"""Discovery output must not depend on the string hash seed.

Set iteration order changes with ``PYTHONHASHSEED``, so any set that
reaches a tie-break (for instance two merge hosts with the same Jaccard
score) can make the schema differ between processes.  The §4.6 monotone
chain, in every engine, assumes a schema that is a pure function of
(graph, config, seed); these tests run ``pghive discover``
on a noisy, half-labeled IYP graph in three processes with different
hash seeds and require byte-identical stdout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

HASH_SEEDS = ("0", "1", "2")


@pytest.fixture(scope="module")
def noisy_iyp(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("hashseed") / "iyp.jsonl"
    assert main([
        "generate", "IYP", str(path), "--scale", "1", "--seed", "7",
        "--noise", "0.2", "--label-availability", "0.5",
    ]) == 0
    return path


def _discover_under_hash_seeds(path: Path, *flags: str) -> list[str]:
    """stdout of ``pghive discover`` once per hash seed (run concurrently)."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    procs = []
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro", "discover", str(path), *flags],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        ))
    outputs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        outputs.append(stdout)
    return outputs


@pytest.mark.parametrize(
    "flags", [(), ("--batches", "4")], ids=["static", "batches4"]
)
def test_schema_bytes_independent_of_hash_seed(noisy_iyp, flags):
    outputs = _discover_under_hash_seeds(noisy_iyp, *flags)
    assert outputs[0].startswith("CREATE GRAPH TYPE")
    assert len(set(outputs)) == 1, (
        f"{len(set(outputs))} distinct schemas across PYTHONHASHSEED "
        f"{', '.join(HASH_SEEDS)}"
    )
