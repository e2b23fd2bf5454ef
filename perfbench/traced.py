"""Traced mode: per-layer metrics from spans around public calls.

The traced run composes each workload from the layers' public functions
(``load_graph_jsonl``, ``GraphStore.batches``, ``node_columns`` /
``edge_columns``, ``IncrementalDiscovery.discover_batch_columns``,
``merge_schemas``, the section 4.4 passes, ``serialize_pg_schema``,
``ingest_jsonl_slabs``, ``ParallelDiscovery.discover_store``,
``SchemaService.handle``, ``validate_batch``) and records a span around
every call.  The composed schema must equal the program's own output
byte for byte; that is what makes the split faithful.

A layer's self time is its span minus the time its child spans cover.
Spans are kept in memory and written to
``.perfbench/results/<workload>-seed<seed>.trace.json`` when the run ends.
Stage splits inside ``discover_batch_columns`` (embed / vectorize /
cluster / extract) come from the program's own ``BatchReport`` timers.
Layers a workload bypasses report 0.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterator

import procs
from inputs import (
    ROOT,
    WORK,
    Pin,
    Prepared,
    Request,
    ServePlan,
    Workload,
    child_env,
    hash_seed,
    schema_json,
    wait_ticket,
)
from measure import Samples, measure_serve, run_discover, run_program

#: Per-layer metric -> unit.  Every traced run reports all of them.
PER_LAYER = {
    "cli.import_s": "s",
    "io.parse_s": "s",
    "io.records_per_s": "1/s",
    "slab.ingest_s": "s",
    "slab.bytes_per_input_byte": "ratio",
    "store.partition_s": "s",
    "columns.columnize_s": "s",
    "core.vectorize_s": "s",
    "core.embed_s": "s",
    "core.cluster_s": "s",
    "core.extract_s": "s",
    "core.merge_s": "s",
    "core.embedder_reuse_ratio": "ratio",
    "core.node_clusters": "count",
    "core.edge_clusters": "count",
    "post.constraints_s": "s",
    "post.datatypes_s": "s",
    "post.cardinality_s": "s",
    "post.values_checked": "count",
    "post.attach_s": "s",
    "post.apply_s": "s",
    "pool.wall_s": "s",
    "pool.worker_compute_s": "s",
    "pool.overhead_s": "s",
    "pool.worker_skew": "ratio",
    "pool.shard_attempts": "count",
    "pool.fallback": "count",
    "serialize.s": "s",
    "validate.check_s": "s",
    "validate.elems_per_s": "elem/s",
    "server.parse_s": "s",
    "server.batch_s": "s",
    "server.queue_wait_ms": "ms",
    "server.snapshot_ms": "ms",
    "server.http_ms": "ms",
    "check.hashseed_schema_variants": "count",
    "trace.overhead_s": "s",
}

#: Span name -> per-layer metric its summed self time feeds.
SPAN_METRICS = {
    "io.parse": "io.parse_s",
    "slab.ingest": "slab.ingest_s",
    "store.partition": "store.partition_s",
    "columns.columnize": "columns.columnize_s",
    "core.merge": "core.merge_s",
    "post.constraints": "post.constraints_s",
    "post.datatypes": "post.datatypes_s",
    "post.cardinality": "post.cardinality_s",
    "post.attach": "post.attach_s",
    "post.apply": "post.apply_s",
    "pool.discover": "pool.wall_s",
    "serialize": "serialize.s",
}

#: Validate calls timed in-process per traced run.
TRACED_VALIDATES = 20
#: Hash seeds the reference is recomputed under.
HASHSEED_VARIANTS = 3


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    """In-memory span recorder; one instance per composition run."""

    def __init__(self, run: int) -> None:
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_seconds(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus child spans)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - child_time[index]
        return dict(totals)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, seconds in tracer.self_seconds().items():
        if name in SPAN_METRICS:
            metrics[SPAN_METRICS[name]] += seconds
    return metrics


def _stage_metrics(metrics: dict[str, float], reports: list[Any]) -> None:
    """Fold the program's per-batch stage timers and cluster counts."""
    for report in reports:
        for stage in ("vectorize", "embed", "cluster", "extract"):
            metrics[f"core.{stage}_s"] += report.stage_seconds.get(stage, 0.0)
        metrics["core.node_clusters"] += report.node_clusters
        metrics["core.edge_clusters"] += report.edge_clusters
    if reports:
        reused = sum(1 for report in reports if report.embedder_reused)
        metrics["core.embedder_reuse_ratio"] = reused / len(reports)


def _post_process(tracer: Tracer, schema: Any, store: Any, config: Any) -> None:
    from repro.core.postprocess import (
        compute_cardinalities,
        infer_datatypes,
        infer_property_constraints,
    )

    with tracer.span("post.constraints"):
        infer_property_constraints(schema)
    with tracer.span("post.datatypes"):
        infer_datatypes(schema, store, config)
    with tracer.span("post.cardinality"):
        compute_cardinalities(schema, store)


def _values_checked(schema: Any) -> int:
    """Property values the datatype pass inspects (one per key per member)."""
    return sum(
        sum(type_record.property_counts.values())
        for kind in (schema.node_types, schema.edge_types)
        for type_record in kind.values()
    )


def _serialize(tracer: Tracer, schema: Any) -> bytes:
    from repro.schema.serialize_pgschema import serialize_pg_schema

    with tracer.span("serialize"):
        rendered = serialize_pg_schema(schema, "STRICT")
    return (rendered + "\n").encode("utf-8")


def compose_memory(
    workload: Workload, pin: Pin, tracer: Tracer
) -> tuple[bytes, Any, dict[str, float]]:
    """``pghive discover`` on the memory store, one public call at a time."""
    from repro.core.columns import edge_columns, node_columns
    from repro.core.config import PGHiveConfig
    from repro.core.incremental import IncrementalDiscovery
    from repro.core.type_extraction import resolve_edge_endpoints
    from repro.graph.io import load_graph_jsonl
    from repro.graph.store import GraphStore
    from repro.schema.merge import merge_schemas

    config = PGHiveConfig()
    with tracer.span("compose"):
        with tracer.span("io.parse"):
            graph = load_graph_jsonl(pin.path)
        store = GraphStore(graph)
        engine = IncrementalDiscovery(config, name=store.name)
        with tracer.span("store.partition"):
            batches = list(store.batches(workload.batches, seed=config.seed))
        for batch in batches:
            with tracer.span("columns.columnize"):
                ncols = node_columns(batch.nodes)
                ecols = edge_columns(batch.edges, batch.endpoint_labels)
            with tracer.span("core.discover"):
                batch_schema, report = engine.discover_batch_columns(
                    ncols, ecols
                )
            with tracer.span("core.merge"):
                merge_schemas(
                    engine.schema, batch_schema, config.jaccard_threshold,
                    config.endpoint_jaccard_threshold,
                )
                resolve_edge_endpoints(engine.schema)
            engine.reports.append(report)
        _post_process(tracer, engine.schema, store, config)
        output = _serialize(tracer, engine.schema)
    metrics = _layer_metrics(tracer)
    _stage_metrics(metrics, engine.reports)
    metrics["io.records_per_s"] = (
        (pin.nodes + pin.edges) / metrics["io.parse_s"]
    )
    metrics["post.values_checked"] = _values_checked(engine.schema)
    return output, engine.schema, metrics


def _parameter_seconds(parameters: dict[str, str], key: str) -> float:
    value = parameters.get(key, "")
    for token in value.split():
        if token.startswith("seconds="):
            return float(token.split("=", 1)[1])
    return float(value) if value else 0.0


def compose_pool(
    workload: Workload, pin: Pin, tracer: Tracer
) -> tuple[bytes, Any, dict[str, float]]:
    """``pghive discover --store disk --batches 8 --jobs 2``, composed.

    After the composition, the shard workers' body (materialize,
    columnize, discover, attach partial stats) is replayed in-process to
    time the layers the pool hides; the replay is not part of the
    composition total.
    """
    from repro.core.columns import edge_columns, node_columns
    from repro.core.config import PGHiveConfig
    from repro.core.incremental import IncrementalDiscovery
    from repro.core.parallel import ParallelDiscovery
    from repro.core.postprocess import (
        apply_partial_stats,
        attach_partial_stats,
        clear_partial_stats,
    )
    from repro.graph.diskstore import ingest_jsonl_slabs

    slab_dir = WORK / "work" / f"traced-slabs-{tracer.run}"
    shutil.rmtree(slab_dir, ignore_errors=True)
    jobs = int(workload.discover_args[workload.discover_args.index("--jobs") + 1])
    config = PGHiveConfig(jobs=jobs, store="disk", store_dir=str(slab_dir))
    store = None
    try:
        with tracer.span("compose"):
            with tracer.span("slab.ingest"):
                store = ingest_jsonl_slabs(
                    pin.path, slab_dir, slab_bytes=config.slab_bytes
                )
            with tracer.span("pool.discover"):
                result = ParallelDiscovery(config).discover_store(
                    store, workload.batches
                )
            with tracer.span("post.apply"):
                applied = apply_partial_stats(result.schema, config)
            if not applied:
                clear_partial_stats(result.schema)
                _post_process(tracer, result.schema, store, config)
            output = _serialize(tracer, result.schema)
        slab_bytes = sum(
            path.stat().st_size for path in slab_dir.rglob("*") if path.is_file()
        )
        engine = IncrementalDiscovery(config, name="shard")
        for plan in store.plan_shards(workload.batches, seed=config.seed):
            batch = store.materialize_shard(plan)
            with tracer.span("columns.columnize"):
                ncols = node_columns(batch.nodes)
                ecols = edge_columns(batch.edges, batch.endpoint_labels)
            shard_schema, _ = engine.discover_batch_columns(
                ncols, ecols, batch_index=plan.index
            )
            with tracer.span("post.attach"):
                attach_partial_stats(
                    shard_schema, batch.nodes, batch.edges,
                    track_values=config.infer_value_profiles,
                )
    finally:
        if store is not None:
            store.close()
        shutil.rmtree(slab_dir, ignore_errors=True)
    metrics = _layer_metrics(tracer)
    _stage_metrics(metrics, result.batches)
    metrics["slab.bytes_per_input_byte"] = slab_bytes / pin.bytes
    metrics["store.partition_s"] = _parameter_seconds(
        result.parameters, "parallel/partition"
    )
    metrics["core.merge_s"] = _parameter_seconds(
        result.parameters, "parallel/merge_seconds"
    )
    per_worker: dict[Any, float] = defaultdict(float)
    for report in result.batches:
        per_worker[report.worker] += report.seconds
    busiest = max(per_worker.values())
    metrics["pool.worker_compute_s"] = sum(per_worker.values())
    metrics["pool.overhead_s"] = metrics["pool.wall_s"] - busiest
    metrics["pool.worker_skew"] = busiest / (
        metrics["pool.worker_compute_s"] / len(per_worker)
    )
    metrics["pool.shard_attempts"] = sum(r.attempts for r in result.batches)
    metrics["pool.fallback"] = sum(
        1 for failure in result.shard_failures
        if failure.recovered_by == "fallback"
    )
    metrics["post.values_checked"] = _values_checked(result.schema)
    return output, result.schema, metrics


def compose_serve(
    plan: ServePlan, tracer: Tracer
) -> tuple[bytes, Any, dict[str, float], float]:
    """The serve stream through a socket-free ``SchemaService``."""
    from repro.core.result import BatchReport
    from repro.server import SchemaService
    from repro.server.models import BatchRequest

    service = SchemaService()
    reports: list[BatchReport] = []
    try:
        with tracer.span("compose"):
            service.handle("POST", "/sessions", {}, {"name": "traced"})
            for body in plan.batch_bodies:
                decoded = json.loads(body)
                with tracer.span("server.post"):
                    _, ticket = service.handle(
                        "POST", "/sessions/traced/batches", {}, decoded
                    )
                with tracer.span("server.ticket"):
                    info = wait_ticket(service, ticket["id"])
                reports.append(BatchReport.from_dict(info["report"]))
            session = service.sessions.get_session("traced")
            with tracer.span("server.snapshot"):
                schema = session.snapshot_schema()
            with tracer.span("serialize"):
                _, payload = service.handle(
                    "GET", "/sessions/traced/schema", {"format": ["json"]}, {}
                )
        output = schema_json(payload["schema"])
        parse_s = []
        for body in plan.batch_bodies:
            decoded = json.loads(body)
            started = time.perf_counter()
            BatchRequest.from_dict(decoded)
            parse_s.append(time.perf_counter() - started)
        handle_s = []
        for request in plan.requests * 5:
            decoded = json.loads(request.body)
            started = time.perf_counter()
            service.handle("POST", "/sessions/traced/validate", {}, decoded)
            handle_s.append(time.perf_counter() - started)
        metrics = _layer_metrics(tracer)
        _stage_metrics(metrics, reports)
        metrics["server.parse_s"] = statistics.median(parse_s)
        metrics["server.batch_s"] = statistics.median(r.seconds for r in reports)
        metrics["server.snapshot_ms"] = tracer.total("server.snapshot") * 1000
        metrics["post.values_checked"] = _values_checked(schema)
    finally:
        service.sessions.shutdown()
    return output, schema, metrics, statistics.median(handle_s)


def _validate_metrics(
    metrics: dict[str, float], requests: list[Request], schema: Any
) -> None:
    from repro.schema.validate import ValidationMode, validate_batch

    times = []
    for step in range(TRACED_VALIDATES):
        request = requests[step % len(requests)]
        started = time.perf_counter()
        validate_batch(
            request.nodes, request.edges, schema,
            ValidationMode.STRICT, request.endpoint_labels,
        )
        times.append(time.perf_counter() - started)
    check_s = statistics.median(times)
    metrics["validate.check_s"] = check_s
    metrics["validate.elems_per_s"] = (
        statistics.median(r.size for r in requests) / check_s
    )


def _import_seconds(env: dict[str, str]) -> float:
    """Median in-child time of ``import repro.cli`` over three children."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    values = []
    for _ in range(3):
        out = procs.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            check=True,
        )
        values.append(float(out.stdout.strip()))
    return statistics.median(values)


def _hashseed_variants(workload: Workload, seed: int, smoke: bool) -> int:
    """Distinct reference schemas over ``HASHSEED_VARIANTS`` hash seeds."""
    digests = set()
    for offset in range(HASHSEED_VARIANTS):
        env = child_env(seed, hash_seed(seed + offset))
        args = [sys.executable, str(Path(__file__).with_name("inputs.py")),
                "reference", workload.name, str(seed)]
        if smoke:
            args.append("--smoke")
        out = procs.run(
            args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    return len(digests)


def run_traced(
    prepared: Prepared, seed: int, seconds: float, smoke: bool,
    samples: Samples,
) -> tuple[dict[str, float], list[Span]]:
    """Compose the workload repeatedly for ``seconds``; per-layer medians.

    Every composed schema is compared with the program's own output
    (``failed`` counts mismatches), and ``trace.overhead_s`` is the traced
    total minus the untraced wall time of the same operation: for the CLI
    workloads the composition plus one start-up probe against one
    ``discover`` job, for the daemon the socket-free stream against the
    median HTTP stream.
    """
    workload, pin = prepared.workload, prepared.pin
    env = child_env(seed)
    spans: list[Span] = []
    runs: list[dict[str, float]] = []
    http_ms: list[float] = []
    if workload.serve:
        streams = measure_serve(
            prepared.plan, prepared.ref, 0.0, env, samples, quiescent=http_ms
        )
        program_output = prepared.ref.output
        untraced = statistics.median(s.wall_s for s in streams)
        queue_wait = statistics.median(
            (rtt - report) * 1000.0
            for stream in streams
            for rtt, report in zip(stream.batch_s, stream.batch_report_s)
        )
    else:
        out_path = WORK / "work" / f"{workload.name}.traced.stdout"
        result = run_discover(workload, pin, env, out_path)
        program_output = out_path.read_bytes()
        samples.record(
            result.code == 0 and program_output == prepared.ref.output,
            "untraced CLI output differs from the reference",
        )
        untraced = result.wall_s - run_program(["--help"], env).wall_s
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        tracer = Tracer(len(runs))
        if workload.serve:
            output, schema, metrics, handle_s = compose_serve(
                prepared.plan, tracer
            )
            metrics["server.queue_wait_ms"] = queue_wait
            metrics["server.http_ms"] = (
                statistics.median(http_ms) - handle_s * 1000.0
            )
        elif "--store" in workload.discover_args:
            output, schema, metrics = compose_pool(workload, pin, tracer)
        else:
            output, schema, metrics = compose_memory(workload, pin, tracer)
        metrics["trace.overhead_s"] = tracer.total("compose") - untraced
        samples.record(
            output == program_output,
            f"traced composition {tracer.run} differs from the program output",
        )
        if prepared.plan is not None:
            _validate_metrics(metrics, prepared.plan.requests, schema)
        runs.append(metrics)
        spans.extend(tracer.spans)
    layer = {
        name: statistics.median(run[name] for run in runs) for name in PER_LAYER
    }
    layer["cli.import_s"] = _import_seconds(env)
    layer["check.hashseed_schema_variants"] = _hashseed_variants(
        workload, seed, smoke
    )
    return layer, spans


def write_spans(path: Path, spans: list[Span]) -> None:
    """Write the recorded spans (name, start, end, parent, run id)."""
    path.write_text(json.dumps([asdict(span) for span in spans]))
