"""Each subcommand imports only what it runs.

``repro.evaluation``, ``repro.baselines`` and ``scipy.stats`` (with the
``scipy.spatial``/``scipy.optimize`` it drags in) belong to ``pghive
evaluate``; every ``discover`` or ``serve`` start-up that loads them
pays for work it never runs.  Work that must not pay imports inside a
timed or forked region -- the daemon's first batch, a pool worker --
finds its modules already loaded.  Every check runs in a fresh
interpreter, since this test process has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main

#: Module prefixes no subcommand but ``evaluate`` may load.
EVALUATE_ONLY = (
    "scipy.stats",
    "scipy.spatial",
    "scipy.optimize",
    "repro.evaluation",
    "repro.baselines",
)


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("startup") / "ldbc.jsonl"
    assert main(["generate", "LDBC", str(path), "--scale", "0.3"]) == 0
    return path


def _run(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the JSON list it prints."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result: list[str] = json.loads(out.stdout.splitlines()[-1])
    return result


def _evaluate_only_modules_after(argv: list[str]) -> list[str]:
    return _run(f"""
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main({argv!r})
            except SystemExit:
                pass
        print(json.dumps(sorted(
            m for m in sys.modules if m.startswith({EVALUATE_ONLY!r})
        )))
    """)


def test_help_loads_no_evaluation_stack():
    assert _evaluate_only_modules_after(["--help"]) == []


def test_discover_loads_no_evaluation_stack(small_graph):
    argv = ["discover", str(small_graph), "--batches", "2"]
    assert _evaluate_only_modules_after(argv) == []


def test_daemon_engine_loads_before_health():
    """The engine comes in with the server module, not on a first batch."""
    missing = _run("""
        import json, sys
        import repro.cli, repro.server
        print(json.dumps([
            m for m in ("repro.core.incremental", "repro.schema.validate")
            if m not in sys.modules
        ]))
    """)
    assert missing == []


def test_daemon_first_batch_imports_nothing():
    """Once the session manager exists (before ``/health`` answers), a
    batch runs without importing a module."""
    imported = _run("""
        import json, sys
        from repro.core.config import PGHiveConfig
        from repro.server.models import BatchRequest
        from repro.server.session import SessionManager, TicketStatus
        manager = SessionManager(PGHiveConfig(server_workers=1))
        batch = BatchRequest.from_dict({
            "nodes": [
                {"id": i, "labels": ["Person"],
                 "properties": {"name": f"n{i}", "age": i}}
                for i in range(12)
            ],
            "edges": [
                {"id": 100 + i, "source": i, "target": i + 1,
                 "labels": ["KNOWS"], "properties": {}}
                for i in range(11)
            ],
        })
        manager.create("s")
        before = set(sys.modules)
        ticket = manager.submit_batch("s", batch)
        manager.shutdown()
        assert ticket.status is TicketStatus.DONE, ticket.error
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert imported == []


@pytest.mark.parametrize("method", ["elsh", "minhash"])
def test_pool_workers_import_nothing_after_fork(small_graph, tmp_path, method):
    """A forked worker finds every module its plan body needs already
    imported by the driver, so no worker of any pool imports one."""
    log = tmp_path / "worker-imports.jsonl"
    imported = _run(f"""
        import contextlib, io, json, os, sys
        import repro.core.parallel as parallel
        from repro.cli import main

        body = parallel._discover_plan_chunk
        first_seen = {{}}

        def traced(*args, **kwargs):
            seen = first_seen.setdefault(os.getpid(), set(sys.modules))
            try:
                return body(*args, **kwargs)
            finally:
                with open({str(log)!r}, "a") as fh:
                    fh.write(json.dumps(sorted(set(sys.modules) - seen)))
                    fh.write("\\n")

        parallel._discover_plan_chunk = traced
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([
                "discover", {str(small_graph)!r}, "--method", {method!r},
                "--batches", "4", "--jobs", "2",
            ]) == 0
        lines = open({str(log)!r}).read().splitlines()
        assert lines, "no plan ran in a worker"
        print(json.dumps(sorted(set().union(*map(json.loads, lines)))))
    """)
    assert imported == []
