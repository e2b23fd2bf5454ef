"""Untimed-mode measurement: the real program, driven as a user drives it.

CLI workloads spawn ``python -m repro discover`` and time it from spawn
to exit; the serve workload runs ``python -m repro serve --port 0`` and
drives it over HTTP from two client threads with one connection each.
Inside a run the operations are interleaved round-robin (start-up probe,
job, calibration probe), so a change in host speed during the run hits
every metric alike.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import procs
from inputs import (
    ROOT,
    WORK,
    Pin,
    Reference,
    ServePlan,
    Workload,
    calibration_probe,
    canonical_json,
    schema_json,
)

#: Fewest discover invocations / ingest streams in one run, however short.
MIN_JOBS = 3
#: Fewest validate requests in a serve run: p90 then has 10 samples beyond it.
MIN_VALIDATES = 100
#: Start-up probes per window: the first jobs of a CLI window are each
#: preceded by one; the serve load is preceded by this many daemons (and
#: its own start-up is a further sample).  Later jobs run back to back,
#: so a window holds more of them.
SETUP_PROBES = 3
#: Fixed interval at which the ingest client polls a ticket.
POLL_S = 0.005
#: A window stops after this many seconds even if a minimum is unmet, so
#: that a run always ends well within three minutes.
HARD_CAP_S = 100.0


@dataclass
class Samples:
    """Raw observations of one or more measurement windows."""

    setup_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    peak_rss_mib: list[float] = field(default_factory=list)
    ingest_elems_per_s: list[float] = field(default_factory=list)
    validate_ms: list[float] = field(default_factory=list)
    batch_ms: list[float] = field(default_factory=list)
    calibration: list[dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        """Count one operation; keep the first few failure messages."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok

    def extend(self, other: "Samples") -> None:
        for name in (
            "setup_s", "wall_s", "cpu_s", "peak_rss_mib",
            "ingest_elems_per_s", "validate_ms", "batch_ms", "calibration",
            "failures",
        ):
            getattr(self, name).extend(getattr(other, name))
        self.attempted += other.attempted
        self.failed += other.failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of a sample, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


#: End-to-end metric -> (unit, sample list it summarizes, statistic).
#: These are the metrics ``BENCHMARK.json`` bounds; the result line
#: carries exactly these.
END_TO_END = {
    "setup_s": ("s", "setup_s", "median"),
    "wall_s": ("s", "wall_s", "median"),
    "cpu_s": ("s", "cpu_s", "median"),
    "peak_rss_mib": ("MiB", "peak_rss_mib", "median"),
    "ingest_elems_per_s": ("elem/s", "ingest_elems_per_s", "median"),
}

#: Printed and recorded beside the bounded metrics, but not bounded: they
#: exist only on the daemon, and latency percentiles of short requests
#: follow the host's bursts of slowness (spreads of 0.34-0.45 over ten
#: runs when the host was busy).
CONTEXT = {
    "validate_p50_ms": ("ms", "validate_ms", "median"),
    "validate_p90_ms": ("ms", "validate_ms", "p90"),
    "batch_p50_ms": ("ms", "batch_ms", "median"),
}


def summarize(
    samples: Samples, table: dict[str, tuple[str, str, str]] = END_TO_END
) -> dict[str, dict[str, Any]]:
    """Each metric of ``table`` with its unit, quartiles and sample count."""
    metrics: dict[str, dict[str, Any]] = {}
    for name, (unit, source, statistic) in table.items():
        values: list[float] = getattr(samples, source)
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        value = p90(values) if statistic == "p90" else median
        metrics[name] = {
            "value": value, "unit": unit, "n": len(values),
            "q1": q1, "median": median, "q3": q3,
        }
    return metrics


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
@dataclass
class Exit:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    stderr: str


def run_program(
    args: list[str], env: dict[str, str], stdout_path: Any = None
) -> Exit:
    """Run ``python -m repro <args>`` and time it from spawn to exit.

    CPU and peak RSS come from ``os.wait4``, so they include every worker
    the child waited for.  Whatever the child leaves behind is reaped
    after the clock stops.
    """
    target = stdout_path if stdout_path is not None else os.devnull
    with open(target, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT, env=env, stdout=out, stderr=subprocess.PIPE,
            process_group=0,
        )
        assert proc.stderr is not None
        try:
            with proc.stderr:
                stderr = proc.stderr.read().decode("utf-8", "replace")
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        except BaseException:
            procs.reap_group(proc.pid, grace=0.0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    procs.reap_group(proc.pid)
    return Exit(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0, stderr,
    )


def probe_setup(env: dict[str, str], samples: Samples) -> None:
    """One start-up sample: interpreter plus ``import repro.cli``."""
    result = run_program(["--help"], env)
    if samples.record(result.code == 0, f"--help exited {result.code}"):
        samples.setup_s.append(result.wall_s)


def _keep_going(
    started: float, seconds: float, jobs: int, validates: int = MIN_VALIDATES
) -> bool:
    """Whether a window needs another round: time or a minimum is unmet."""
    elapsed = time.perf_counter() - started
    if elapsed >= HARD_CAP_S:
        return False
    return (
        elapsed < seconds or jobs < MIN_JOBS or validates < MIN_VALIDATES
    )


def run_discover(
    workload: Workload, pin: Pin, env: dict[str, str], stdout_path: Path
) -> Exit:
    """One ``pghive discover`` job; a disk store lives inside the checkout."""
    args = ["discover", str(pin.path), *workload.discover_args]
    store_dir = WORK / "work" / "slabs"
    if "--store" in workload.discover_args:
        args += ["--store-dir", str(store_dir)]
    try:
        return run_program(args, env, stdout_path)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def measure_cli(
    workload: Workload, pin: Pin, ref: Reference, seconds: float,
    env: dict[str, str],
) -> Samples:
    """Discover jobs, each followed by a calibration probe.

    The first ``SETUP_PROBES`` jobs are each preceded by a start-up probe.
    """
    samples = Samples()
    out_path = WORK / "work" / f"{workload.name}.stdout"
    elements = pin.nodes + pin.edges
    started = time.perf_counter()
    iteration = 0
    while _keep_going(started, seconds, iteration):
        if iteration < SETUP_PROBES:
            probe_setup(env, samples)
        result = run_discover(workload, pin, env, out_path)
        same = result.code == 0 and out_path.read_bytes() == ref.output
        detail = (
            f"discover exited {result.code}: {result.stderr[-300:]}"
            if result.code else "discover schema differs from the reference"
        )
        if samples.record(same, detail):
            samples.wall_s.append(result.wall_s)
            samples.cpu_s.append(result.cpu_s)
            samples.peak_rss_mib.append(result.peak_rss_mib)
            samples.ingest_elems_per_s.append(elements / result.wall_s)
        samples.calibration.append(calibration_probe())
        iteration += 1
    return samples


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class Daemon:
    """A ``pghive serve`` child on an ephemeral port."""

    def __init__(self, env: dict[str, str]) -> None:
        self.peak_rss_mib = 0.0
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, process_group=0,
        )
        try:
            self._wait_healthy()
        except BaseException:
            self._kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self) -> None:
        assert self.proc.stderr is not None
        line = self.proc.stderr.readline().decode("utf-8", "replace")
        match = re.search(r":(\d+) ", line)
        if match is None:
            raise RuntimeError(f"daemon did not report a port: {line!r}")
        self.port = int(match.group(1))
        while True:
            try:
                status, _ = self.request(
                    http.client.HTTPConnection("127.0.0.1", self.port, timeout=5),
                    "GET", "/health", close=True,
                )
            except OSError:
                status = 0
            if status == 200:
                return
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            time.sleep(0.002)

    def _kill(self) -> None:
        """Kill the daemon's whole process group and reap it."""
        procs.reap_group(self.proc.pid, grace=0.0)
        if self.proc.stderr is not None:
            self.proc.stderr.close()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    @staticmethod
    def request(
        conn: http.client.HTTPConnection, method: str, path: str,
        body: bytes | None = None, close: bool = False,
    ) -> tuple[int, Any]:
        """One request on a keep-alive connection; returns (status, JSON)."""
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, json.loads(data) if data else None
        finally:
            if close:
                conn.close()

    def cpu_s(self) -> float:
        """User+sys CPU the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Ask the daemon to shut down, then reap it (killing if needed)."""
        if self.proc.returncode is None and self.proc.poll() is None:
            try:
                self.request(self.connect(), "POST", "/shutdown", close=True)
            except (OSError, http.client.HTTPException):
                pass
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.peak_rss_mib = usage.ru_maxrss / 1024.0
                    break
                time.sleep(0.01)
            else:
                self._kill()
        procs.reap_group(self.proc.pid)
        if self.proc.stderr is not None:
            self.proc.stderr.close()


@dataclass
class StreamResult:
    wall_s: float
    batch_s: list[float]
    batch_report_s: list[float]


def ingest_stream(
    daemon: Daemon, conn: http.client.HTTPConnection, name: str,
    plan: ServePlan, ref: Reference, samples: Samples,
) -> StreamResult:
    """Ingest every batch into session ``name`` closed-loop, fetch the schema.

    Each batch is posted after the previous ticket is done; tickets are
    polled every ``POLL_S``.  The stream ends with the final JSON schema
    and one validate of every held-out request, both compared with the
    reference.
    """
    started = time.perf_counter()
    batch_s: list[float] = []
    report_s: list[float] = []
    for index, body in enumerate(plan.batch_bodies):
        posted = time.perf_counter()
        status, ticket = daemon.request(
            conn, "POST", f"/sessions/{name}/batches", body
        )
        if not samples.record(status == 202, f"batch {index}: HTTP {status}"):
            continue
        while True:
            status, info = daemon.request(conn, "GET", f"/tickets/{ticket['id']}")
            if status != 200 or info["status"] in ("done", "failed"):
                break
            time.sleep(POLL_S)
        done = status == 200 and info["status"] == "done"
        if samples.record(done, f"batch {index}: ticket {info}"):
            batch_s.append(time.perf_counter() - posted)
            report_s.append(float(info["report"]["seconds"]))
    status, payload = daemon.request(
        conn, "GET", f"/sessions/{name}/schema?format=json"
    )
    wall = time.perf_counter() - started
    samples.record(
        status == 200 and schema_json(payload["schema"]) == ref.output,
        f"stream {name}: final schema differs from the reference",
    )
    for index, request in enumerate(plan.requests):
        status, payload = daemon.request(
            conn, "POST", f"/sessions/{name}/validate", request.body
        )
        samples.record(
            status == 200
            and canonical_json(payload["report"]) == ref.validate_reports[index],
            f"stream {name}: validate {index} differs from the reference",
        )
    return StreamResult(wall, batch_s, report_s)


def validate_loop(
    daemon: Daemon, plan: ServePlan, session: list[str],
    stop: threading.Event, latencies: list[tuple[float, int]],
) -> None:
    """Closed-loop validate client on its own connection."""
    conn = daemon.connect()
    try:
        index = 0
        while not stop.is_set():
            body = plan.requests[index % len(plan.requests)].body
            started = time.perf_counter()
            try:
                status, _ = daemon.request(
                    conn, "POST", f"/sessions/{session[0]}/validate", body
                )
            except (OSError, http.client.HTTPException):
                status = 0
                conn.close()
                conn = daemon.connect()
            latencies.append((time.perf_counter() - started, status))
            index += 1
    finally:
        conn.close()


def measure_serve(
    plan: ServePlan, ref: Reference, seconds: float, env: dict[str, str],
    samples: Samples, quiescent: list[float] | None = None,
) -> list[StreamResult]:
    """Start-up probes, then ingest streams beside a validate client.

    With ``quiescent``, every held-out request is also validated five
    times over HTTP after the load has stopped, and those latencies (ms)
    are appended there instead of to the samples.
    """
    for _ in range(SETUP_PROBES):
        probe = Daemon(env)
        probe.stop()
        samples.record(True, "")
        samples.setup_s.append(probe.setup_s)
    daemon = Daemon(env)
    samples.setup_s.append(daemon.setup_s)
    stop = threading.Event()
    latencies: list[tuple[float, int]] = []
    streams: list[StreamResult] = []
    # The validate client always targets the session being ingested:
    # reads run beside writes on one session.
    session = [""]
    validator = threading.Thread(
        target=validate_loop,
        args=(daemon, plan, session, stop, latencies),
        name="perfbench-validate",
    )
    conn = daemon.connect()
    try:
        try:
            started = time.perf_counter()
            elements = sum(plan.batch_elements)
            while _keep_going(started, seconds, len(streams), len(latencies)):
                name = f"s{len(streams)}"
                status, _ = daemon.request(
                    conn, "POST", "/sessions",
                    json.dumps({"name": name}).encode(),
                )
                samples.record(status == 201, f"create {name}: HTTP {status}")
                session[0] = name
                if validator.ident is None:
                    validator.start()
                cpu_before = daemon.cpu_s()
                stream = ingest_stream(daemon, conn, name, plan, ref, samples)
                samples.cpu_s.append(daemon.cpu_s() - cpu_before)
                samples.wall_s.append(stream.wall_s)
                samples.ingest_elems_per_s.append(elements / stream.wall_s)
                samples.batch_ms.extend(t * 1000.0 for t in stream.batch_s)
                samples.calibration.append(calibration_probe())
                streams.append(stream)
        finally:
            stop.set()
            if validator.is_alive():
                validator.join()
        for request in (plan.requests * 5 if quiescent is not None else []):
            begun = time.perf_counter()
            status, _ = daemon.request(
                conn, "POST", f"/sessions/{session[0]}/validate", request.body
            )
            if samples.record(status == 200, f"validate: HTTP {status}"):
                quiescent.append((time.perf_counter() - begun) * 1000.0)
    finally:
        conn.close()
        daemon.stop()
    for latency, status in latencies:
        if samples.record(status == 200, f"validate: HTTP {status}"):
            samples.validate_ms.append(latency * 1000.0)
    samples.peak_rss_mib.append(daemon.peak_rss_mib)
    return streams
