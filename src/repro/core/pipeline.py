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
from typing import Iterator

from repro.core.config import PGHiveConfig
from repro.core.faults import FaultInjector
from repro.core.incremental import IncrementalDiscovery, run_context
from repro.core.postprocess import (
    apply_partial_stats,
    clear_partial_stats,
    infer_datatypes,
)
from repro.core.result import DiscoveryResult, ShardFailure
from repro.datasets.stream import GraphStream
from repro.graph.slab import SlabCorruptionError
from repro.graph.store import BaseGraphStore, GraphBatch, GraphStore
from repro.schema.model import SchemaGraph


def _iter_batches(
    store: BaseGraphStore,
    num_batches: int,
    config: PGHiveConfig,
    failures: list[ShardFailure],
) -> Iterator[GraphBatch]:
    """Stream the store's batches, honouring ``corrupt_slab_policy``.

    With ``"skip"`` each batch is planned and materialized individually
    so a :class:`~repro.graph.slab.SlabCorruptionError` quarantines only
    the damaged shard (appended to ``failures`` as a ``"corruption"``
    record) while the surviving batches still stream.  The default
    ``"raise"`` policy takes the plain path and lets corruption
    propagate -- corrupt storage is never silently read either way.
    """
    if config.corrupt_slab_policy != "skip":
        yield from store.batches(num_batches, seed=config.seed)
        return
    for plan in store.plan_shards(num_batches, seed=config.seed):
        try:
            yield store.materialize_shard(plan)
        except SlabCorruptionError as exc:
            failures.append(
                ShardFailure(plan.index, 0, "corruption", str(exc))
            )


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

        Args:
            store: The graph store to discover, or a seeded
                :class:`~repro.datasets.stream.GraphStream` whose
                batches are discovered as they are generated.  A stream
                is generated in order, so it always runs on the
                sequential engine (``jobs > 1`` records why in
                ``parallel_fallback``).
            num_batches: How many batches to stream (1 = static run).
                For a stream this must equal ``stream.num_batches``.
            resume: Continue from the checkpoint in
                ``config.checkpoint_dir`` if one exists (no-op when the
                directory is unset or empty).  Batch partitioning (and
                stream generation) is deterministic for a fixed seed, so
                a run killed at batch ``i`` and resumed here replays
                batches ``i..`` and ends with a schema identical to an
                uninterrupted run.  The checkpoint records the source
                name, batch count and seed; resuming against a different
                plan raises
                :class:`~repro.schema.persist.SchemaPersistError`.
        """
        if isinstance(store, GraphStream) and num_batches != store.num_batches:
            raise ValueError(
                f"a stream is pre-batched: num_batches must equal "
                f"stream.num_batches ({store.num_batches}), "
                f"got {num_batches}"
            )
        started = time.perf_counter()
        config = self.config
        fallback_reason = self._parallel_fallback_reason(
            num_batches, streaming=isinstance(store, GraphStream)
        )
        if (
            isinstance(store, BaseGraphStore)
            and config.jobs > 1
            and fallback_reason is None
        ):
            from repro.core.parallel import ParallelDiscovery

            result = ParallelDiscovery(config).discover_store(
                store, num_batches, resume=resume
            )
            self._finish(result.schema, store)
            result.total_seconds = time.perf_counter() - started
            result.refresh_assignments()
            return result
        injector = FaultInjector.from_spec(config.faults)
        checkpoint_dir = config.checkpoint_dir
        shard_failures: list[ShardFailure] = []
        backing: BaseGraphStore
        if isinstance(store, GraphStream):
            # Sampling and --bounds read the stream's accumulated graph,
            # which grows as the batches below are generated.
            name, seed = store.graph.name, store.seed
            backing = GraphStore(store.graph)
            batches = store.batches()
        else:
            name, seed = store.name, config.seed
            backing = store
            batches = _iter_batches(store, num_batches, config, shard_failures)
        context = run_context(
            name, num_batches, seed, config, backing.journal_fingerprint()
        )
        engine: IncrementalDiscovery | None = None
        if (
            checkpoint_dir
            and resume
            and IncrementalDiscovery.has_checkpoint(checkpoint_dir)
        ):
            engine = IncrementalDiscovery.from_checkpoint(
                checkpoint_dir, config, expected_context=context
            )
        if engine is None:
            engine = IncrementalDiscovery(config, name=name)
        resumed_from = engine._batch_counter
        discovery_seconds = sum(r.seconds for r in engine.reports)
        for batch in batches:
            # Skip *after* producing the batch: the partition is
            # deterministic, and a stream's generator side effects keep
            # its RNG and population on track for later batches.
            if batch.index < resumed_from:
                continue
            if injector is not None:
                injector.fire("batch", batch.index)
            # The plan's index, not the engine's counter: a shard that
            # ``corrupt_slab_policy="skip"`` quarantined leaves a gap.
            report = engine.process_batch(
                batch.nodes, batch.edges, batch.endpoint_labels,
                batch_index=batch.index,
            )
            discovery_seconds += report.seconds
            if checkpoint_dir and (
                (batch.index + 1) % config.checkpoint_every == 0
                or batch.index + 1 == num_batches
            ):
                engine.save_checkpoint(checkpoint_dir, context=context)
        self._finish(engine.schema, backing)
        if config.strict_recovery and shard_failures:
            from repro.core.parallel import ShardRecoveryError

            raise ShardRecoveryError(shard_failures)
        result = DiscoveryResult(
            schema=engine.schema,
            batches=engine.reports,
            parameters=dict(engine.parameters),
            discovery_seconds=discovery_seconds,
            total_seconds=time.perf_counter() - started,
            resumed_from=resumed_from,
            parallel_fallback=fallback_reason,
            shard_failures=shard_failures,
        )
        result.refresh_assignments()
        return result

    def _parallel_fallback_reason(
        self, num_batches: int, streaming: bool = False
    ) -> str | None:
        """Why a ``jobs > 1`` request cannot use the multi-process driver.

        Returns ``None`` when parallel execution is possible (or when
        parallelism was never requested: ``jobs=1`` always takes the
        sequential path, whose output the parallel path matches byte for
        byte).  Parallel sharding requires independent batches of a
        partitioned store: a stream's batches are generated in order,
        and pattern memoization consults the running schema built from
        every earlier batch -- so ``--memoize`` output is the same at any
        ``jobs``.  ``checkpoint_dir`` does not force
        the sequential engine: checkpointed parallel runs journal
        completed shards under ``checkpoint_dir/shards/`` and resume
        mid-pool.
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
                self._apply_exact_bounds(schema, store)
        clear_partial_stats(schema)

    def _apply_exact_bounds(
        self, schema: SchemaGraph, store: BaseGraphStore
    ) -> None:
        """Exact per-endpoint cardinality bounds (store-backed pass)."""
        from repro.core.cardinality_bounds import compute_cardinality_bounds

        bounds = compute_cardinality_bounds(schema, store)
        for name, edge_bounds in bounds.items():
            schema.edge_types[name].bounds = edge_bounds
