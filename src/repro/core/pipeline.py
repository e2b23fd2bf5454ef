"""PG-HIVE: the end-to-end schema discovery pipeline (Algorithm 1).

:class:`PGHive` ties the substrates together.  A *static* run processes the
whole graph as a single batch; an *incremental* run streams the store in
batches through the same engine.  Both end with the optional post-processing
passes (property constraints, datatypes, cardinalities) and produce a
:class:`~repro.core.result.DiscoveryResult` whose ``schema`` can be
serialized with :func:`repro.schema.serialize_pg_schema` /
:func:`repro.schema.serialize_xsd`.

Example:
    >>> from repro.graph import GraphBuilder, GraphStore
    >>> builder = GraphBuilder()
    >>> a = builder.node(["Person"], {"name": "Ada"})
    >>> b = builder.node(["Person"], {"name": "Bob"})
    >>> _ = builder.edge(a, b, ["KNOWS"], {"since": 2021})
    >>> result = PGHive().discover(GraphStore(builder.build()))
    >>> sorted(result.schema.node_types)
    ['Person']
"""

from __future__ import annotations

import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.config import PGHiveConfig
from repro.core.faults import FaultInjector
from repro.core.incremental import (
    IncrementalDiscovery,
    check_context,
    run_context,
)
from repro.core.postprocess import (
    apply_partial_stats,
    clear_partial_stats,
    infer_datatypes,
    schema_stats_from_dict,
    schema_stats_to_dict,
)
from repro.core.result import (
    BatchReport,
    DiscoveryResult,
    ShardFailure,
    ShardRecoveryError,
    ShardResult,
)
from repro.core.type_extraction import resolve_edge_endpoints
from repro.datasets.stream import GraphStream
from repro.graph.slab import SlabCorruptionError
from repro.graph.store import BaseGraphStore, GraphStore, ShardPlan
from repro.schema.model import SchemaGraph
from repro.schema.persist import (
    SchemaPersistError,
    clear_shard_journal,
    load_shard_journal,
    save_shard_journal_entry,
    schema_from_dict,
    schema_to_dict,
    shard_journal_dir,
)

if TYPE_CHECKING:
    from repro.core.parallel import ParallelDiscovery


def _map_in_process(
    engine: IncrementalDiscovery,
    source: BaseGraphStore | GraphStream,
    todo: Sequence[int],
    plans: Sequence[ShardPlan],
) -> Iterator[ShardResult]:
    """The in-process executor: map the ``todo`` batches lazily.

    The driver folds each yielded batch before it asks for the next --
    the fold-before-map order pattern memoization needs.  A stream
    generates every batch (generation has side effects) but maps only
    ``todo``; with ``corrupt_slab_policy="skip"`` a corrupt shard fails
    as one ``"corruption"`` event and the rest still map.
    """
    if isinstance(source, GraphStream):
        wanted = set(todo)
        for batch in source.batches():
            if batch.index in wanted:
                yield engine.map_batch(
                    batch.nodes, batch.edges, batch.endpoint_labels,
                    batch.index,
                )
        return
    skip = engine.config.corrupt_slab_policy == "skip"
    for index in todo:
        try:
            shard = engine.map_shard(source, plans[index])
        except SlabCorruptionError as exc:
            if not skip:
                raise
            failure = ShardFailure(index, 0, "corruption", str(exc))
            shard = ShardResult(index, None, None, failures=[failure])
        yield shard


class _Journal:
    """The one resume format in ``checkpoint_dir``, at any ``jobs``.

    The folded prefix is the engine's checkpoint; a completed shard that
    cannot be folded yet is a ``shards/`` entry until a prefix covers
    it.  Another run's state raises
    :class:`~repro.schema.persist.SchemaPersistError` naming the context
    key; unreadable entries are a cache, recomputed and ``skipped``.
    """

    def __init__(self, directory: str, context: dict[str, object]) -> None:
        self.directory = Path(directory)
        self.context = context
        self.skipped: list[str] = []

    def clear(self) -> None:
        """Drop the prefix and every entry: a fresh run mixes no runs."""
        IncrementalDiscovery.checkpoint_path(self.directory).unlink(
            missing_ok=True
        )
        clear_shard_journal(self.directory)

    def restore(
        self, engine: IncrementalDiscovery
    ) -> tuple[IncrementalDiscovery, dict[int, ShardResult]]:
        """The resumed engine and the usable entries past its prefix."""
        if IncrementalDiscovery.has_checkpoint(self.directory):
            engine = IncrementalDiscovery.from_checkpoint(
                self.directory, engine.config, expected_context=self.context
            )
        entries, self.skipped = load_shard_journal(self.directory)
        restored: dict[int, ShardResult] = {}
        for index, document in sorted(entries.items()):
            if index < engine.next_batch:
                continue  # covered by the prefix; its next write deletes it
            name = f"shard-{index:05d}.json"
            check_context(
                shard_journal_dir(self.directory) / name,
                document.get("context") or {},
                self.context,
            )
            try:
                schema = schema_from_dict(document.get("schema", {}))
                schema_stats_from_dict(schema, document.get("stats"))
                restored[index] = ShardResult(
                    index,
                    schema,
                    BatchReport.from_dict(document["report"]),
                    dict(document["parameters"]),
                    [ShardFailure(**f) for f in document["failures"]],
                )
            except (SchemaPersistError, KeyError, TypeError, ValueError):
                self.skipped.append(f"{name}: malformed entry")
        return engine, restored

    def record(self, shard: ShardResult) -> None:
        """Journal one completed shard that cannot be folded yet."""
        schema, report = shard.schema, shard.report
        if schema is None or report is None:
            return  # a failed shard is mapped again on resume
        save_shard_journal_entry(self.directory, shard.index, {
            "context": self.context,
            "schema": schema_to_dict(schema, include_members=True),
            "stats": schema_stats_to_dict(schema),
            "report": report.to_dict(),
            "parameters": dict(shard.parameters),
            "failures": [asdict(failure) for failure in shard.failures],
        })


class PGHive:
    """Hybrid incremental schema discovery for property graphs."""

    def __init__(self, config: PGHiveConfig | None = None) -> None:
        self.config = config or PGHiveConfig()

    def discover(self, store: BaseGraphStore) -> DiscoveryResult:
        """Run static discovery over an entire graph store."""
        return self.discover_incremental(store, num_batches=1)

    def discover_incremental(
        self,
        store: BaseGraphStore | GraphStream,
        num_batches: int,
        resume: bool = False,
    ) -> DiscoveryResult:
        """Run discovery over ``num_batches`` batches of the source.

        :meth:`drive` on the fork-pool executor when ``config.jobs > 1``
        and the run can shard (see :meth:`_parallel_fallback_reason`),
        in-process otherwise, then the §4.4 finishing step.  The output
        is the same bytes either way.

        Args:
            store: The graph store to discover, or a seeded
                :class:`~repro.datasets.stream.GraphStream` whose
                batches are discovered as they are generated.  A stream
                is generated in order, so it always runs in-process
                (``jobs > 1`` records why in ``parallel_fallback``).
            num_batches: How many batches to stream (1 = static run).
                For a stream this must equal ``stream.num_batches``.
            resume: Continue from the journal in
                ``config.checkpoint_dir`` (a fresh start when the
                directory is unset or empty), whatever ``jobs`` wrote
                it.  Batch partitioning (and stream generation) is
                deterministic for a fixed seed, so a run killed at any
                point and resumed here maps only the batches it had not
                kept, and ends with a schema identical to an
                uninterrupted run.  The journal records the source, its
                content fingerprint, the batch count, seed and §4.4
                flags; resuming another run's journal raises
                :class:`~repro.schema.persist.SchemaPersistError`
                naming the key.
        """
        if isinstance(store, GraphStream) and num_batches != store.num_batches:
            raise ValueError(
                f"a stream is pre-batched: num_batches must equal "
                f"stream.num_batches ({store.num_batches}), "
                f"got {num_batches}"
            )
        started = time.perf_counter()
        fallback_reason = self._parallel_fallback_reason(
            num_batches, streaming=isinstance(store, GraphStream)
        )
        pool = None
        if self.config.jobs > 1 and fallback_reason is None:
            from repro.core.parallel import ParallelDiscovery

            pool = ParallelDiscovery(self.config)
        result = self.drive(store, num_batches, resume, pool)
        # Sampling and --bounds read a stream's accumulated graph.
        self._finish(
            result.schema,
            GraphStore(store.graph) if isinstance(store, GraphStream)
            else store,
        )
        result.parallel_fallback = fallback_reason
        result.total_seconds = time.perf_counter() - started
        return result

    def drive(
        self,
        source: BaseGraphStore | GraphStream,
        num_batches: int,
        resume: bool = False,
        pool: "ParallelDiscovery | None" = None,
    ) -> DiscoveryResult:
        """Map batches to shard results and fold them in batch order.

        The one driver every engine runs.  The executor (``pool``, or
        the lazy in-process one) maps the batches the journal lacks;
        each result is folded by
        :meth:`~repro.core.incremental.IncrementalDiscovery.fold` once
        every lower index is folded or failed, so only results past the
        first gap are held (and journaled).  A failed shard is stepped
        past unless ``config.strict_recovery`` raises; the ``batch``
        fault site fires before each fold; the prefix is checkpointed
        every ``config.checkpoint_every`` folds and at the end.
        Endpoints are resolved once; the §4.4 stats stay on the schema.
        """
        started = time.perf_counter()
        config = self.config
        if isinstance(source, GraphStream):
            name, seed = source.graph.name, source.seed
        else:
            name, seed = source.name, config.seed
        engine = IncrementalDiscovery(config, name=name)
        pending: dict[int, ShardResult] = {}
        journal = None
        if config.checkpoint_dir:
            journal = _Journal(config.checkpoint_dir, run_context(
                name, num_batches, seed, config,
                None if isinstance(source, GraphStream)
                else source.journal_fingerprint(),
            ))
            if resume:
                engine, pending = journal.restore(engine)
            else:
                journal.clear()
        if config.strict_recovery and any(
            f.recovered_by is None for f in engine.failures
        ):
            raise ShardRecoveryError(engine.failures)  # a degraded prefix
        resumed_from = engine.next_batch
        journaled = sorted(pending)
        resumed = [r.index for r in engine.reports] + journaled
        todo = [
            index for index in range(resumed_from, num_batches)
            if index not in pending
        ]
        partition_started = time.perf_counter()
        plans: list[ShardPlan] = []
        if not isinstance(source, GraphStream):
            plans = source.plan_shards(num_batches, seed=config.seed)
        partition_seconds = time.perf_counter() - partition_started
        injector = FaultInjector.from_spec(config.faults)
        fold_seconds = 0.0

        def fold_ready() -> None:
            nonlocal fold_seconds
            while engine.next_batch in pending:
                shard = pending.pop(engine.next_batch)
                if shard.schema is None and config.strict_recovery:
                    raise ShardRecoveryError(engine.failures + shard.failures)
                if injector is not None and shard.schema is not None:
                    injector.fire("batch", shard.index)
                fold_seconds += engine.fold(shard)
                if journal is not None and (
                    (shard.index + 1) % config.checkpoint_every == 0
                    or shard.index + 1 == num_batches
                ):
                    engine.save_checkpoint(journal.directory, journal.context)

        if pool is None:
            mapped = _map_in_process(engine, source, todo, plans)
        else:
            mapped = pool.map(source, [plans[index] for index in todo])
        try:
            fold_ready()
            for shard in mapped:
                pending[shard.index] = shard
                fold_ready()
                if journal is not None and shard.index in pending:
                    journal.record(shard)
        finally:
            mapped.close()
        resolve_edge_endpoints(engine.schema)
        result = DiscoveryResult(
            schema=engine.schema,
            batches=engine.reports,
            parameters=dict(engine.parameters),
            discovery_seconds=time.perf_counter() - started,
            shard_failures=sorted(
                engine.failures, key=lambda f: (f.index, f.attempt)
            ),
            resumed_from=resumed_from,
            resumed_shards=sorted(resumed),
        )
        parameters = result.parameters
        if result.shard_failures:
            recovered = sorted({
                f.index for f in result.shard_failures
                if f.recovered_by is not None
            })
            parameters["parallel/recovery"] = (
                f"failure_events={len(result.shard_failures)} "
                f"recovered_shards={recovered} "
                f"degraded_shards={result.degraded_shards}"
            )
        if pool is not None:
            workers = {r.worker for r in engine.reports if r.worker}
            parameters["parallel/partition"] = (
                f"mode=serial seconds={partition_seconds:.6f}"
            )
            parameters["parallel/jobs"] = (
                f"jobs={config.jobs} workers_used={len(workers)} "
                f"shards={len(engine.reports)}"
            )
            parameters["parallel/merge_seconds"] = f"{fold_seconds:.6f}"
        if journal is not None and journaled:
            parameters["parallel/journal"] = (
                f"dir={journal.directory} resumed_shards={journaled}"
            )
        if journal is not None and journal.skipped:
            parameters["parallel/journal_skipped"] = " ".join(journal.skipped)
        result.refresh_assignments()
        return result

    def _parallel_fallback_reason(
        self, num_batches: int, streaming: bool = False
    ) -> str | None:
        """Why a ``jobs > 1`` request cannot use the pool executor.

        Returns ``None`` when the pool can run (or when it was never
        requested: ``jobs=1`` maps in-process, to the same bytes).  The
        pool needs independent batches of a partitioned store: a
        stream's batches are generated in order, and pattern memoization
        consults the running schema built from every earlier batch -- so
        ``--memoize`` output is the same at any ``jobs``.
        """
        from repro.core.parallel import fork_available

        if self.config.jobs <= 1:
            return None
        if streaming:
            return "a stream is generated in order"
        if num_batches <= 1:
            return "a single batch cannot be sharded"
        if self.config.memoize_patterns:
            return "pattern memoization consults the running schema"
        if not fork_available():
            return "fork start method unavailable on this platform"
        return None

    def _finish(self, schema: SchemaGraph, store: BaseGraphStore) -> None:
        """The §4.4 finishing step every engine ends with.

        Constraints, datatypes, profiles and cardinalities come from the
        stats each batch folded (:func:`apply_partial_stats`); the store
        is read only to re-sample datatypes and profiles in sampling mode
        and for exact ``--bounds``.  The stats are then dropped.
        """
        config = self.config
        if config.post_processing:
            apply_partial_stats(schema, config)
            if config.infer_datatypes_by_sampling:
                infer_datatypes(schema, store, config)
            if config.exact_cardinality_bounds:
                from repro.core.cardinality_bounds import (
                    compute_cardinality_bounds,
                )

                bounds = compute_cardinality_bounds(schema, store)
                for name, edge_bounds in bounds.items():
                    schema.edge_types[name].bounds = edge_bounds
        clear_partial_stats(schema)
