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
from repro.core.incremental import IncrementalDiscovery
from repro.core.postprocess import (
    apply_partial_stats,
    clear_partial_stats,
    compute_cardinalities,
    infer_datatypes,
    infer_property_constraints,
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
        post_process_each_batch: bool = False,
        resume: bool = False,
    ) -> DiscoveryResult:
        """Run discovery over ``num_batches`` batches of the source.

        Args:
            store: The graph store to discover, or a seeded
                :class:`~repro.datasets.stream.GraphStream` whose
                batches are discovered as they are generated (with
                ``jobs > 1`` the workers *replay* the seeded generation
                themselves, so the live stream is never consumed).
            num_batches: How many batches to stream (1 = static run).
                For a stream this must equal ``stream.num_batches``.
            post_process_each_batch: Run the post-processing passes after
                every batch instead of only at the end (Algorithm 1's
                ``postProcessing`` flag).  The final schema is identical;
                intermediate schemas are then always fully annotated.
            resume: Continue from the checkpoint in
                ``config.checkpoint_dir`` if one exists (no-op when the
                directory is unset or empty).  Batch partitioning is
                deterministic for a fixed seed, so a run killed at batch
                ``i`` and resumed here replays batches ``i..`` and ends
                with a schema identical to an uninterrupted run.  The
                checkpoint records the source name, batch count and seed;
                resuming against a different plan raises
                :class:`~repro.schema.persist.SchemaPersistError`.
        """
        if isinstance(store, GraphStream):
            return self._discover_stream(
                store, num_batches, post_process_each_batch, resume
            )
        started = time.perf_counter()
        fallback_reason = self._parallel_fallback_reason(
            num_batches, post_process_each_batch
        )
        if (
            self.config.jobs > 1
            and num_batches > 1
            and fallback_reason is None
        ):
            from repro.core.parallel import ParallelDiscovery

            result = ParallelDiscovery(self.config).discover_store(
                store, num_batches, resume=resume
            )
            if self.config.post_processing:
                # The shard workers already folded the post-processing
                # statistics; applying them here reproduces the serial
                # passes without re-reading the store.  Configurations
                # the partial fold cannot express (sampling mode, or a
                # journal written with stats off) fall back to the
                # store-backed passes -- the schema is identical either
                # way.
                if not apply_partial_stats(result.schema, self.config):
                    clear_partial_stats(result.schema)
                    self._post_process(result.schema, store)
                elif self.config.exact_cardinality_bounds:
                    self._apply_exact_bounds(result.schema, store)
            else:
                clear_partial_stats(result.schema)
            result.total_seconds = time.perf_counter() - started
            result.refresh_assignments()
            return result
        config = self.config
        injector = FaultInjector.from_spec(config.faults)
        checkpoint_dir = config.checkpoint_dir
        context: dict[str, object] = {
            "source": store.name,
            "num_batches": num_batches,
            "seed": config.seed,
        }
        fingerprint = store.journal_fingerprint()
        if fingerprint is not None:
            # Durable stores key the checkpoint to their on-disk state,
            # so a resume never replays against a different slab
            # generation (appends change the fingerprint).
            context["store"] = fingerprint
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
            engine = IncrementalDiscovery(config, name=store.name)
        resumed_from = engine._batch_counter
        discovery_seconds = sum(r.seconds for r in engine.reports)
        shard_failures: list[ShardFailure] = []
        for batch in _iter_batches(
            store, num_batches, config, shard_failures
        ):
            if batch.index < resumed_from:
                continue  # deterministic partition: already checkpointed
            if injector is not None:
                injector.fire("batch", batch.index)
            report = engine.process_batch(
                batch.nodes, batch.edges, batch.endpoint_labels
            )
            discovery_seconds += report.seconds
            if post_process_each_batch and config.post_processing:
                self._post_process(engine.schema, store)
            if checkpoint_dir and (
                (batch.index + 1) % config.checkpoint_every == 0
                or batch.index + 1 == num_batches
            ):
                engine.save_checkpoint(checkpoint_dir, context=context)
        if config.post_processing and not post_process_each_batch:
            self._post_process(engine.schema, store)
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

    def _discover_stream(
        self,
        stream: GraphStream,
        num_batches: int,
        post_process_each_batch: bool,
        resume: bool,
    ) -> DiscoveryResult:
        """Discover a seeded stream, batch by batch or on the pool.

        The stream's batching is fixed at construction, so
        ``num_batches`` must equal ``stream.num_batches``.  With
        ``jobs > 1`` the parallel driver ships only
        :class:`~repro.datasets.stream.StreamShardPlan` scalars and the
        workers replay the seeded generation themselves; the live
        stream stays pristine and is drained afterwards only if a
        store-backed post-processing pass needs the accumulated graph.
        """
        if num_batches != stream.num_batches:
            raise ValueError(
                f"a stream is pre-batched: num_batches must equal "
                f"stream.num_batches ({stream.num_batches}), "
                f"got {num_batches}"
            )
        started = time.perf_counter()
        config = self.config
        fallback_reason = self._parallel_fallback_reason(
            num_batches, post_process_each_batch, streaming=True
        )
        if config.jobs > 1 and fallback_reason is None:
            from repro.core.parallel import ParallelDiscovery

            result = ParallelDiscovery(config).discover_stream(
                stream, resume=resume
            )
            backing: GraphStore | None = None
            if config.post_processing:
                if not apply_partial_stats(result.schema, config):
                    clear_partial_stats(result.schema)
                    backing = self._stream_store(stream)
                    self._post_process(result.schema, backing)
                elif config.exact_cardinality_bounds:
                    backing = self._stream_store(stream)
                    self._apply_exact_bounds(result.schema, backing)
            else:
                clear_partial_stats(result.schema)
            result.total_seconds = time.perf_counter() - started
            result.refresh_assignments()
            return result
        injector = FaultInjector.from_spec(config.faults)
        checkpoint_dir = config.checkpoint_dir
        context = {
            "source": stream.graph.name,
            "num_batches": num_batches,
            "seed": stream.seed,
        }
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
            engine = IncrementalDiscovery(config, name=stream.graph.name)
        resumed_from = engine._batch_counter
        discovery_seconds = sum(r.seconds for r in engine.reports)
        for batch in stream.batches():
            # Skip *after* generating: the generator's side effects keep
            # the stream RNG and population on track for later batches.
            if batch.index < resumed_from:
                continue
            if injector is not None:
                injector.fire("batch", batch.index)
            report = engine.process_batch(
                batch.nodes, batch.edges, batch.endpoint_labels
            )
            discovery_seconds += report.seconds
            if post_process_each_batch and config.post_processing:
                self._post_process(engine.schema, GraphStore(stream.graph))
            if checkpoint_dir and (
                (batch.index + 1) % config.checkpoint_every == 0
                or batch.index + 1 == num_batches
            ):
                engine.save_checkpoint(checkpoint_dir, context=context)
        if config.post_processing and not post_process_each_batch:
            self._post_process(engine.schema, GraphStore(stream.graph))
        result = DiscoveryResult(
            schema=engine.schema,
            batches=engine.reports,
            parameters=dict(engine.parameters),
            discovery_seconds=discovery_seconds,
            total_seconds=time.perf_counter() - started,
            resumed_from=resumed_from,
            parallel_fallback=fallback_reason,
        )
        result.refresh_assignments()
        return result

    @staticmethod
    def _stream_store(stream: GraphStream) -> GraphStore:
        """Store over a stream's accumulated graph, draining it if needed.

        Only valid on a stream whose live generator has not been
        partially consumed: either pristine (the parallel path never
        touches it -- workers replay seeded replicas) or fully drained.
        Draining a pristine stream here advances its RNG exactly as a
        sequential pass would, so the accumulated graph matches what the
        workers replayed.
        """
        if not stream.graph.num_nodes:
            for _ in stream.batches():
                pass
        return GraphStore(stream.graph)

    def _parallel_fallback_reason(
        self,
        num_batches: int,
        post_process_each_batch: bool,
        streaming: bool = False,
    ) -> str | None:
        """Why a ``jobs > 1`` request cannot use the multi-process driver.

        Returns ``None`` when parallel execution is possible (or when
        parallelism was never requested: ``jobs=1`` always takes the
        sequential path, whose output the parallel path matches byte for
        byte on labeled data).  Parallel sharding requires independent
        batch schemas, so per-batch post-processing forces the
        sequential engine.  Pattern memoization no longer forces it
        for stores: the pool decouples it through the two-phase snapshot
        protocol of :mod:`repro.core.absorption` (stream batches still
        couple to the running schema, so memoized streams stay
        sequential).  Checkpointed parallel runs journal completed
        shards under ``checkpoint_dir/shards/`` and resume mid-pool, so
        ``checkpoint_dir`` no longer forces the sequential engine
        either.
        """
        from repro.core.parallel import fork_available

        if self.config.jobs <= 1:
            return None
        if num_batches <= 1:
            return "a single batch cannot be sharded"
        if post_process_each_batch:
            return "per-batch post-processing couples batches sequentially"
        if streaming and self.config.memoize_patterns:
            return (
                "pattern memoization couples stream batches to the "
                "running schema"
            )
        if not fork_available():
            return "fork start method unavailable on this platform"
        return None

    def _post_process(
        self, schema: SchemaGraph, store: BaseGraphStore
    ) -> None:
        """Constraints, datatypes, cardinalities (section 4.4)."""
        infer_property_constraints(schema)
        infer_datatypes(schema, store, self.config)
        compute_cardinalities(schema, store)
        if self.config.exact_cardinality_bounds:
            self._apply_exact_bounds(schema, store)

    def _apply_exact_bounds(
        self, schema: SchemaGraph, store: BaseGraphStore
    ) -> None:
        """Exact per-endpoint cardinality bounds (store-backed pass)."""
        from repro.core.cardinality_bounds import compute_cardinality_bounds

        bounds = compute_cardinality_bounds(schema, store)
        for name, edge_bounds in bounds.items():
            schema.edge_types[name].bounds = edge_bounds
