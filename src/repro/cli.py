"""Command-line interface: ``pghive`` (or ``python -m repro``).

Subcommands:

* ``discover`` -- run PG-HIVE on a graph (JSONL file or named synthetic
  dataset) and print/write the schema as PG-Schema or XSD;
* ``datasets`` -- list the bundled synthetic datasets with their Table 2
  statistics;
* ``generate`` -- materialize a synthetic dataset to JSONL (optionally
  with noise);
* ``evaluate`` -- run the method grid on one dataset and print F1* rows;
* ``inspect`` -- discover a graph's schema and print the operator-facing
  summary report (per-type statistics, constraints, cardinalities);
* ``verify-store`` -- scrub a slab directory's checksums and report a
  per-file verdict (exit 1 if anything is corrupt);
* ``repair`` -- roll a damaged slab directory back to its newest fully
  verified generation so it can be discovered (and resumed) again;
* ``validate`` -- check a graph against a saved schema (STRICT/LOOSE)
  and print the violation report (exit 1 on STRICT violations);
* ``serve`` -- run the discovery daemon: named incremental sessions
  over HTTP with async batch ingestion, live schema snapshots and bulk
  admission validation (see ``docs/API.md``).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.faults import InjectedFault
from repro.core.parallel import ShardRecoveryError
from repro.core.pipeline import PGHive
from repro.datasets import get_dataset, inject_noise, list_datasets
from repro.datasets.registry import dataset_spec
from repro.graph.diskstore import (
    DiskGraphStore,
    SlabIngestError,
    ingest_jsonl_slabs,
    is_slab_directory,
    write_graph_to_slabs,
)
from repro.graph.io import IngestReport, load_graph_jsonl, save_graph_jsonl
from repro.graph.scrub import repair_slab_directory, scrub_slab_directory
from repro.graph.slab import SlabCorruptionError
from repro.graph.stats import compute_statistics
from repro.graph.store import BaseGraphStore, GraphStore
from repro.schema.serialize_cypher import serialize_cypher
from repro.schema.serialize_graphql import serialize_graphql
from repro.schema.serialize_pgschema import serialize_pg_schema
from repro.schema.serialize_xsd import serialize_xsd
from repro.util.tables import render_table

#: Ephemeral slab directories created for ``--store disk`` runs without
#: ``--store-dir``; removed in :func:`main`'s cleanup.
_EPHEMERAL_STORE_DIRS: list[str] = []


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "discover": _cmd_discover,
        "datasets": _cmd_datasets,
        "generate": _cmd_generate,
        "evaluate": _cmd_evaluate,
        "inspect": _cmd_inspect,
        "verify-store": _cmd_verify_store,
        "repair": _cmd_repair,
        "validate": _cmd_validate,
        "serve": _cmd_serve,
    }.get(args.command)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except ShardRecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SlabCorruptionError, SlabIngestError) as exc:
        # Detected storage corruption / a failed ingest: one structured
        # line (these exceptions name the file and what to do next)
        # instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        # Loader/config/persistence failures (malformed dumps, corrupt
        # checkpoints, bad flag combinations) exit 1 with one clean line
        # instead of a traceback; usage errors keep exiting 2.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InjectedFault as exc:
        # A driver-side injected fault (fault-injection harness in
        # "raise" mode) is an expected failure: report it structurally
        # (the message already names the site/attempt) so recovery
        # scripts can assert on it.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, IndexError) as exc:
        # Registry lookups raise KeyError for unknown dataset names and
        # the embedding table raises IndexError on out-of-range rows;
        # both carry a human-readable message in args[0].
        detail = exc.args[0] if exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        # Residual library-level failures (e.g. a baseline's model scan
        # finding no candidate, injected ENOSPC): one structured line,
        # never a traceback, per the CLI's exception-surface invariant.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        while _EPHEMERAL_STORE_DIRS:
            shutil.rmtree(_EPHEMERAL_STORE_DIRS.pop(), ignore_errors=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pghive",
        description="PG-HIVE: hybrid incremental schema discovery "
                    "for property graphs",
    )
    sub = parser.add_subparsers(dest="command")

    discover = sub.add_parser("discover", help="discover a graph's schema")
    discover.add_argument(
        "input",
        help="path to a JSONL graph, or a bundled dataset name "
             "(see `pghive datasets`)",
    )
    discover.add_argument("--method", choices=["elsh", "minhash"],
                          default="elsh")
    discover.add_argument(
        "--format",
        choices=["pgschema", "xsd", "cypher", "graphql", "json"],
        default="pgschema",
        help="output serialization; 'json' writes the persistable "
             "schema document `pghive validate` and the daemon load",
    )
    discover.add_argument("--mode", choices=["STRICT", "LOOSE"],
                          default="STRICT",
                          help="PG-Schema strictness (pgschema format only)")
    discover.add_argument("--batches", type=int, default=1,
                          help="process incrementally in N batches")
    discover.add_argument("--jobs", type=int, default=1,
                          help="worker processes for incremental discovery "
                               "(with --batches; 1 = sequential)")
    discover.add_argument("--parallel-chunk", default="auto",
                          help="shards per pool task ('auto' or a "
                               "positive integer; with --jobs > 1)")
    discover.add_argument("--shard-timeout", type=float, default=None,
                          help="seconds before a parallel shard task is "
                               "declared hung and re-queued")
    discover.add_argument("--shard-retries", type=int, default=2,
                          help="retries per failing shard before the "
                               "in-process fallback")
    discover.add_argument("--shard-memory-limit-mb", type=float,
                          default=None,
                          help="worker RSS budget in MiB; an exceeding "
                               "shard fails structurally (kind=memory) "
                               "before the OOM killer fires and flows "
                               "through retry/fallback")
    discover.add_argument("--faults",
                          help="fault-injection spec for recovery drills, "
                               "e.g. 'shard:2:raise' (see core.faults)")
    discover.add_argument("--scale", type=float, default=1.0,
                          help="scale factor for bundled datasets")
    discover.add_argument("--seed", type=int, default=7)
    discover.add_argument("--output", help="write schema to a file")
    discover.add_argument("--profiles", action="store_true",
                          help="infer value profiles (enums, ranges)")
    discover.add_argument("--bounds", action="store_true",
                          help="compute exact cardinality bounds")
    discover.add_argument("--memoize", action="store_true",
                          help="enable the incremental memoization fast "
                               "path (with --batches); it maps batches "
                               "in-process at any --jobs")
    discover.add_argument("--on-error", choices=["raise", "skip", "collect"],
                          default="raise",
                          help="policy for malformed input records: stop "
                               "at the first (raise), drop silently "
                               "(skip), or drop and report each rejected "
                               "line (collect)")
    discover.add_argument("--checkpoint-dir",
                          help="journal run state here, at any --jobs: "
                               "the folded schema every --checkpoint-every "
                               "batches, plus completed shards that cannot "
                               "be folded yet")
    discover.add_argument("--checkpoint-every", type=int, default=1,
                          help="batches between checkpoints")
    discover.add_argument("--resume", action="store_true",
                          help="continue from the journal in "
                               "--checkpoint-dir if one exists, whatever "
                               "--jobs wrote it")
    discover.add_argument("--strict-recovery", action="store_true",
                          help="fail the run if any shard cannot be "
                               "recovered (default: degrade and report)")
    discover.add_argument("--store", choices=["memory", "disk"],
                          default="memory",
                          help="graph storage backend: in-memory objects "
                               "(default) or out-of-core memory-mapped "
                               "slab files whose schema is byte-identical "
                               "while the driver stays small")
    discover.add_argument("--store-dir",
                          help="slab directory for --store disk (also "
                               "accepted directly as the input argument); "
                               "default: an ephemeral temp directory "
                               "removed when the run finishes")
    discover.add_argument("--slab-bytes", type=int, default=4 << 20,
                          help="slab ingest commit granularity in bytes "
                               "(--store disk; default 4 MiB, min 4096)")
    discover.add_argument("--corrupt-slab-policy",
                          choices=["raise", "skip"], default="raise",
                          help="what to do when the disk backend detects "
                               "slab corruption mid-run: fail immediately "
                               "(default) or quarantine the damaged "
                               "shards and finish degraded with the "
                               "damage enumerated")

    datasets = sub.add_parser("datasets", help="list bundled datasets")
    datasets.add_argument("--scale", type=float, default=1.0)
    datasets.add_argument("--seed", type=int, default=0)

    generate = sub.add_parser("generate", help="materialize a dataset")
    generate.add_argument("name")
    generate.add_argument("output", help="target JSONL path")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--noise", type=float, default=0.0,
                          help="property removal probability")
    generate.add_argument("--label-availability", type=float, default=1.0)

    evaluate = sub.add_parser("evaluate", help="score methods on a dataset")
    evaluate.add_argument("name")
    evaluate.add_argument("--noise", type=float, default=0.0)
    evaluate.add_argument("--label-availability", type=float, default=1.0)
    evaluate.add_argument("--scale", type=float, default=1.0)
    evaluate.add_argument("--seed", type=int, default=1)

    inspect = sub.add_parser(
        "inspect", help="discover and summarize a graph's schema"
    )
    inspect.add_argument("input", help="JSONL path or bundled dataset name")
    inspect.add_argument("--scale", type=float, default=1.0)
    inspect.add_argument("--seed", type=int, default=7)
    inspect.add_argument("--max-types", type=int, default=40)
    inspect.add_argument("--hierarchy", action="store_true",
                         help="also print the inferred subtype hierarchy")

    verify_store = sub.add_parser(
        "verify-store",
        help="scrub a slab directory: verify every checksum and report "
             "a per-file verdict (exit 1 on corruption)",
    )
    verify_store.add_argument("directory", help="slab directory to scrub")

    repair = sub.add_parser(
        "repair",
        help="roll a damaged slab directory back to its newest fully "
             "verified generation (exit 1 if unrepairable)",
    )
    repair.add_argument("directory", help="slab directory to repair")

    validate = sub.add_parser(
        "validate",
        help="check a graph against a saved schema and report violations "
             "(exit 1 on STRICT violations)",
    )
    validate.add_argument(
        "input",
        help="graph to check: JSONL path, slab directory (--store disk) "
             "or bundled dataset name",
    )
    validate.add_argument(
        "schema", help="schema JSON written by `pghive discover --format "
                       "json` or repro.schema.persist.save_schema"
    )
    validate.add_argument("--mode", choices=["STRICT", "LOOSE"],
                          default="STRICT",
                          help="PG-Schema conformance strictness")
    validate.add_argument("--max-violations", type=int, default=20,
                          help="print at most this many violations")
    validate.add_argument("--scale", type=float, default=1.0,
                          help="scale factor for bundled datasets")
    validate.add_argument("--seed", type=int, default=7)
    validate.add_argument("--store", choices=["memory", "disk"],
                          default="memory",
                          help="graph storage backend of the input")

    serve = sub.add_parser(
        "serve",
        help="run the discovery daemon (named incremental sessions, "
             "async ingestion, live schemas, bulk validation over HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (loopback by default; the "
                            "daemon has no authentication layer)")
    serve.add_argument("--port", type=int, default=8850,
                       help="TCP port; 0 binds an ephemeral port and "
                            "prints it")
    serve.add_argument("--workers", type=int, default=2,
                       help="shared ingestion worker threads; batches of "
                            "one session always process in POST order")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="max queued-or-running batches per session "
                            "before posts get 503")
    serve.add_argument("--method", choices=["elsh", "minhash"],
                       default="elsh")
    serve.add_argument("--profiles", action="store_true",
                       help="infer value profiles (enums, ranges)")
    serve.add_argument("--checkpoint-dir",
                       help="journal every session's running schema here "
                            "(under sessions/<name>/) and restore all "
                            "sessions on daemon start")
    serve.add_argument("--checkpoint-every", type=int, default=1,
                       help="batches between session checkpoints")
    serve.add_argument("--seed", type=int, default=7)
    return parser


def _store_directory(args: argparse.Namespace) -> str:
    """Resolve (or create) the slab directory for a ``--store disk`` run."""
    store_dir: str | None = getattr(args, "store_dir", None)
    if store_dir is not None:
        return store_dir
    ephemeral = tempfile.mkdtemp(prefix="pghive-store-")
    _EPHEMERAL_STORE_DIRS.append(ephemeral)
    return ephemeral


def _load_input(args: argparse.Namespace) -> BaseGraphStore:
    """Resolve the discover input: file path or bundled dataset name.

    With ``--store disk`` a JSONL input streams straight into slab files
    in bounded chunks (the graph never materializes in driver memory), a
    slab directory opens as-is, and a bundled dataset is generated and
    written through to slabs.
    """
    path = Path(args.input)
    backend = getattr(args, "store", "memory")
    on_error = getattr(args, "on_error", "raise")
    if path.is_dir() and is_slab_directory(path):
        if backend != "disk":
            print(
                f"error: {args.input!r} is a slab directory; "
                f"pass --store disk to discover it",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return DiskGraphStore(path)
    if path.exists():
        report = IngestReport() if on_error != "raise" else None
        if backend == "disk":
            store = ingest_jsonl_slabs(
                path,
                _store_directory(args),
                slab_bytes=getattr(args, "slab_bytes", 4 << 20),
                on_error=on_error,
                report=report,
            )
            if report is not None and report.errors:
                print(report.describe(), file=sys.stderr)
            return store
        graph = load_graph_jsonl(path, on_error=on_error, report=report)
        if report is not None and report.errors:
            print(report.describe(), file=sys.stderr)
        return GraphStore(graph)
    try:
        dataset = get_dataset(args.input, scale=args.scale, seed=args.seed)
    except KeyError:
        print(
            f"error: {args.input!r} is neither a file nor a known dataset",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if backend == "disk":
        return write_graph_to_slabs(dataset.graph, _store_directory(args))
    return GraphStore(dataset.graph)


def _cmd_discover(args: argparse.Namespace) -> int:
    store = _load_input(args)
    config = PGHiveConfig(
        method=LSHMethod(args.method),
        seed=args.seed,
        infer_value_profiles=args.profiles,
        exact_cardinality_bounds=args.bounds,
        memoize_patterns=args.memoize,
        jobs=args.jobs,
        parallel_chunk=args.parallel_chunk,
        shard_timeout=args.shard_timeout,
        shard_retries=args.shard_retries,
        shard_memory_limit_mb=args.shard_memory_limit_mb,
        faults=args.faults,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        strict_recovery=args.strict_recovery,
        store=args.store,
        store_dir=args.store_dir,
        slab_bytes=args.slab_bytes,
        corrupt_slab_policy=args.corrupt_slab_policy,
    )
    pipeline = PGHive(config)
    if args.batches > 1:
        result = pipeline.discover_incremental(
            store, args.batches, resume=args.resume
        )
    else:
        result = pipeline.discover(store)
    if args.format == "xsd":
        rendered = serialize_xsd(result.schema)
    elif args.format == "cypher":
        rendered = serialize_cypher(result.schema)
    elif args.format == "graphql":
        rendered = serialize_graphql(result.schema)
    elif args.format == "json":
        import json as _json

        from repro.schema.persist import schema_to_dict

        rendered = _json.dumps(
            schema_to_dict(result.schema, include_members=False), indent=2
        )
    else:
        rendered = serialize_pg_schema(result.schema, args.mode)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
        print(f"schema written to {args.output}")
    else:
        print(rendered)
    print(
        f"\n-- {result.num_node_types} node types, "
        f"{result.num_edge_types} edge types in "
        f"{result.total_seconds:.2f}s",
        file=sys.stderr,
    )
    stage_seconds = result.aggregate_stage_seconds()
    if stage_seconds:
        breakdown = " ".join(
            f"{name}={seconds:.3f}s"
            for name, seconds in sorted(stage_seconds.items())
        )
        label = "stages (worker compute)" if args.jobs > 1 else "stages"
        print(f"-- {label}: {breakdown}", file=sys.stderr)
    if result.parallel_fallback and args.jobs > 1:
        print(
            f"-- note: --jobs {args.jobs} ignored "
            f"({result.parallel_fallback}); ran sequentially",
            file=sys.stderr,
        )
    if result.resumed_from or result.resumed_shards:
        print(
            f"-- resumed from checkpoint at batch {result.resumed_from}: "
            f"resumed {len(result.resumed_shards)} shard(s) from the "
            f"parallel journal",
            file=sys.stderr,
        )
    if result.shard_failures:
        print(
            f"-- recovered from {len(result.shard_failures)} shard "
            f"failure(s):",
            file=sys.stderr,
        )
        for failure in result.shard_failures:
            print(f"--   {failure.describe()}", file=sys.stderr)
        if result.degraded_shards:
            print(
                f"-- WARNING: shards {result.degraded_shards} were "
                f"dropped; the schema may be incomplete",
                file=sys.stderr,
            )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in list_datasets():
        dataset = get_dataset(name, scale=args.scale, seed=args.seed)
        stats = compute_statistics(
            dataset.graph,
            dataset.truth.node_types,
            dataset.truth.edge_types,
        )
        row = stats.as_row()
        row.append("R" if dataset_spec(name).real else "S")
        rows.append(row)
    headers = [
        "Dataset", "Nodes", "Edges", "NodeT", "EdgeT",
        "NodeL", "EdgeL", "NodeP", "EdgeP", "R/S",
    ]
    print(render_table(headers, rows, "Bundled datasets (Table 2 shape)"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = get_dataset(args.name, scale=args.scale, seed=args.seed)
    if args.noise > 0 or args.label_availability < 1.0:
        dataset = inject_noise(
            dataset,
            property_noise=args.noise,
            label_availability=args.label_availability,
            seed=args.seed + 1,
        )
    save_graph_jsonl(dataset.graph, args.output)
    print(
        f"wrote {dataset.graph.num_nodes} nodes / "
        f"{dataset.graph.num_edges} edges to {args.output}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation.harness import ALL_METHODS, run_system

    clean = get_dataset(args.name, scale=args.scale, seed=args.seed)
    noisy = inject_noise(
        clean,
        property_noise=args.noise,
        label_availability=args.label_availability,
        seed=args.seed + 1,
    )
    rows = []
    for method in ALL_METHODS:
        m = run_system(
            method, noisy,
            noise=args.noise,
            label_availability=args.label_availability,
        )
        if m.skipped:
            rows.append([method, "-", "-", "-", "-"])
        else:
            rows.append([
                method,
                f"{m.node_f1:.3f}",
                "-" if m.edge_f1 is None else f"{m.edge_f1:.3f}",
                str(m.num_node_types),
                f"{m.seconds:.2f}s",
            ])
    headers = ["method", "node F1*", "edge F1*", "#node types", "time"]
    print(render_table(
        headers, rows,
        f"{args.name} @ noise={args.noise} labels={args.label_availability}",
    ))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.schema.report import render_schema_report

    store = _load_input(args)
    result = PGHive(PGHiveConfig(seed=args.seed)).discover(store)
    print(render_schema_report(result.schema, max_types=args.max_types))
    if args.hierarchy:
        from repro.schema.hierarchy import infer_hierarchy, render_hierarchy

        relations = infer_hierarchy(result.schema)
        print("\nInferred type hierarchy:")
        print(render_hierarchy(result.schema, relations))
    return 0


def _cmd_verify_store(args: argparse.Namespace) -> int:
    report = scrub_slab_directory(args.directory)
    print(report.describe())
    return 0 if report.clean else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    report = repair_slab_directory(args.directory)
    print(report.describe())
    return 0 if report.repaired else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.schema.persist import load_schema
    from repro.schema.validate import ValidationMode, validate_batch

    store = _load_input(args)
    schema = load_schema(args.schema)
    mode = ValidationMode(args.mode)
    nodes = list(store.scan_nodes())
    edges = list(store.scan_edges())
    report = validate_batch(nodes, edges, schema, mode)
    verdict = "conforms" if report.is_valid else "violates"
    print(
        f"{store.name}: {verdict} {schema.name!r} in {mode.value} mode "
        f"({report.checked} elements checked, "
        f"{report.violating_elements} violating, "
        f"{report.violation_count} violations, "
        f"rate {report.violation_rate:.3f})"
    )
    shown = report.violations[: max(args.max_violations, 0)]
    for violation in shown:
        print(
            f"  {violation.element_kind} {violation.element_id} "
            f"[{violation.rule}] {violation.detail}"
        )
    remaining = report.violation_count - len(shown)
    if remaining > 0:
        print(f"  ... and {remaining} more (see --max-violations)")
    if mode is ValidationMode.STRICT and not report.is_valid:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import SchemaServer

    config = PGHiveConfig(
        method=LSHMethod(args.method),
        seed=args.seed,
        infer_value_profiles=args.profiles,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        server_host=args.host,
        server_port=args.port,
        server_workers=args.workers,
        server_queue_depth=args.queue_depth,
    )
    server = SchemaServer(config)
    print(
        f"pghive serve: listening on http://{server.host}:{server.port} "
        f"({config.server_workers} workers, queue depth "
        f"{config.server_queue_depth})",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        print("pghive serve: stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
