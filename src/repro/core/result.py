"""Discovery results returned by the pipeline."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.schema.model import SchemaGraph


@dataclass
class ShardFailure:
    """One failed execution attempt of a parallel shard.

    The driver appends a record per failure *event*, so a shard that
    crashes twice and then succeeds contributes two records whose
    ``recovered_by`` is filled in retroactively.

    Attributes:
        index: Shard (global batch) index.
        attempt: 0-based execution attempt that failed.
        kind: ``"error"`` (the task raised), ``"worker-lost"`` (its
            process died / the pool broke), ``"timeout"`` (the task
            exceeded ``PGHiveConfig.shard_timeout``), ``"memory"`` (the
            worker's RSS crossed ``PGHiveConfig.shard_memory_limit_mb``
            between pipeline stages), ``"fallback-failed"`` (the final
            in-process execution raised) or ``"corruption"`` (the disk
            backend detected slab corruption while materializing the
            shard and ``corrupt_slab_policy="skip"`` quarantined it --
            never retried, never run in-process, because corrupt bytes
            fail deterministically).
        error: Human-readable cause.
        recovered_by: ``"retry"`` when a later pool attempt succeeded,
            ``"fallback"`` when the in-process re-execution did, ``None``
            while unresolved or when the shard was ultimately dropped
            (non-strict degraded run).
    """

    index: int
    attempt: int
    kind: str
    error: str
    recovered_by: str | None = None

    def describe(self) -> str:
        """One-line summary for logs and the CLI footer."""
        outcome = self.recovered_by or "unrecovered"
        return (
            f"shard {self.index} attempt {self.attempt}: "
            f"{self.kind} ({self.error}) -> {outcome}"
        )


class ShardRecoveryError(RuntimeError):
    """Raised in strict mode when a shard fails beyond all recovery.

    Carries the full failure history so callers can distinguish a
    poisoned shard (every attempt failed the same way) from flaky
    infrastructure (mixed kinds across attempts).
    """

    def __init__(self, failures: Sequence[ShardFailure]) -> None:
        self.failures = list(failures)
        unrecovered = sorted({
            f.index for f in self.failures if f.recovered_by is None
        })
        super().__init__(
            f"shards {unrecovered} failed after retries and in-process "
            f"fallback ({len(self.failures)} failure events)"
        )


@dataclass
class ShardResult:
    """One mapped batch, ready to fold: its schema, report, parameters
    and failure events (``schema``/``report`` are ``None`` when the
    batch failed beyond recovery)."""

    index: int
    schema: SchemaGraph | None
    report: BatchReport | None
    parameters: dict[str, str] = field(default_factory=dict)
    failures: list[ShardFailure] = field(default_factory=list)


@dataclass
class BatchReport:
    """Per-batch diagnostics of an incremental run.

    ``memo_node_hits``/``memo_edge_hits`` count elements absorbed by the
    DiscoPG-style known-pattern fast path (only nonzero when
    ``PGHiveConfig.memoize_patterns`` is on).

    ``stage_seconds`` breaks ``seconds`` down by pipeline stage: ``embed``
    (label-embedding fit or cache hit), ``vectorize`` (feature matrix /
    feature-set construction), ``cluster`` (LSH parameterization, hashing
    and bucketing), ``extract`` (cluster summaries + Algorithm 2) and
    ``merge`` (folding the batch schema into the running schema).
    ``embedder_reused`` is True when the batch skipped Word2Vec retraining
    because its deduplicated sentence corpus matched the previous batch.

    ``worker`` records which pool worker produced the report (``None``
    for the sequential engine); parallel runs aggregate the per-worker
    reports into a single summary with :meth:`aggregate`.

    ``attempts`` counts how many executions the batch needed: 1 for a
    clean run, more when the fault-tolerant parallel driver retried or
    re-executed the shard (the schema is identical either way, the
    attempts only cost time).
    """

    index: int
    num_nodes: int
    num_edges: int
    node_clusters: int
    edge_clusters: int
    seconds: float
    memo_node_hits: int = 0
    memo_edge_hits: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    embedder_reused: bool = False
    worker: int | None = None
    attempts: int = 1

    def add_caller_stages(
        self, stages: Mapping[str, float], started: float
    ) -> None:
        """Count a caller's own stages, and its time, into the report.

        A caller that prepares a batch (columnizes it, folds its stats)
        around the batch method times its steps in ``stages``; they go
        first in ``stage_seconds``, equal names add up, and ``seconds``
        becomes the time since ``started``, the caller's start.
        """
        merged = dict(stages)
        for name, elapsed in self.stage_seconds.items():
            merged[name] = merged.get(name, 0.0) + elapsed
        self.stage_seconds = merged
        self.seconds = time.perf_counter() - started

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (used by run checkpoints)."""
        return {
            "index": self.index,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "node_clusters": self.node_clusters,
            "edge_clusters": self.edge_clusters,
            "seconds": self.seconds,
            "memo_node_hits": self.memo_node_hits,
            "memo_edge_hits": self.memo_edge_hits,
            "stage_seconds": dict(self.stage_seconds),
            "embedder_reused": self.embedder_reused,
            "worker": self.worker,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, record: dict[str, object]) -> "BatchReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(record["index"]),
            num_nodes=int(record["num_nodes"]),
            num_edges=int(record["num_edges"]),
            node_clusters=int(record["node_clusters"]),
            edge_clusters=int(record["edge_clusters"]),
            seconds=float(record["seconds"]),
            memo_node_hits=int(record.get("memo_node_hits", 0)),
            memo_edge_hits=int(record.get("memo_edge_hits", 0)),
            stage_seconds=dict(record.get("stage_seconds", {})),
            embedder_reused=bool(record.get("embedder_reused", False)),
            worker=record.get("worker"),
            attempts=int(record.get("attempts", 1)),
        )

    @classmethod
    def aggregate(
        cls, reports: Sequence["BatchReport"], index: int = -1
    ) -> "BatchReport":
        """Combine per-shard (or per-worker) reports into one summary.

        Element and cluster counts add up; ``seconds`` is the summed
        worker compute time (CPU-style, so it can exceed the wall clock
        of a parallel run), and ``stage_seconds`` accumulates stage-wise
        via :meth:`repro.util.timing.StageTimer.add_seconds` semantics.
        """
        stages: dict[str, float] = {}
        for report in reports:
            for name, elapsed in report.stage_seconds.items():
                stages[name] = stages.get(name, 0.0) + elapsed
        return cls(
            index=index,
            num_nodes=sum(r.num_nodes for r in reports),
            num_edges=sum(r.num_edges for r in reports),
            node_clusters=sum(r.node_clusters for r in reports),
            edge_clusters=sum(r.edge_clusters for r in reports),
            seconds=sum(r.seconds for r in reports),
            memo_node_hits=sum(r.memo_node_hits for r in reports),
            memo_edge_hits=sum(r.memo_edge_hits for r in reports),
            stage_seconds=stages,
            embedder_reused=all(r.embedder_reused for r in reports)
            if reports else False,
        )


@dataclass
class DiscoveryResult:
    """Outcome of a schema discovery run.

    Attributes:
        schema: The inferred schema graph.
        node_assignment: node id -> discovered type name.
        edge_assignment: edge id -> discovered type name.
        batches: Per-batch reports (a static run has exactly one).
        parameters: Human-readable record of the LSH parameters used per
            batch and element kind, e.g. ``{"batch0/nodes": "mu=... b=..."}``.
        total_seconds: End-to-end wall-clock time of discovery (excluding
            optional post-processing unless it ran inside the pipeline).
        discovery_seconds: Time until type discovery only (the quantity
            Figure 5 plots), i.e. load + preprocess + cluster + extract.
        shard_failures: Structured record of every shard failure event a
            fault-tolerant parallel run observed (empty for clean runs).
            A recovered run's ``schema`` is byte-identical to a clean
            one; entries with ``recovered_by is None`` mark shards whose
            contribution is missing (non-strict degraded run).
        resumed_from: Length of the folded prefix a resumed run
            restored from its checkpoint (0 for a fresh run).
        resumed_shards: Every batch index restored from the journal
            instead of recomputed: the prefix's folded batches plus the
            out-of-order shard entries (empty for a fresh run).
        parallel_fallback: Human-readable reason why a ``jobs > 1``
            request ran on the sequential engine anyway (``None`` when
            parallel ran, or when parallelism was never requested).
    """

    schema: SchemaGraph
    node_assignment: dict[int, str] = field(default_factory=dict)
    edge_assignment: dict[int, str] = field(default_factory=dict)
    batches: list[BatchReport] = field(default_factory=list)
    parameters: dict[str, str] = field(default_factory=dict)
    total_seconds: float = 0.0
    discovery_seconds: float = 0.0
    shard_failures: list[ShardFailure] = field(default_factory=list)
    resumed_from: int = 0
    resumed_shards: list[int] = field(default_factory=list)
    parallel_fallback: str | None = None

    @property
    def degraded_shards(self) -> list[int]:
        """Shard indices that never produced a schema (sorted, unique)."""
        return sorted({
            f.index for f in self.shard_failures if f.recovered_by is None
        })

    @property
    def num_node_types(self) -> int:
        """Number of discovered node types."""
        return len(self.schema.node_types)

    @property
    def num_edge_types(self) -> int:
        """Number of discovered edge types."""
        return len(self.schema.edge_types)

    def aggregate_stage_seconds(self) -> dict[str, float]:
        """Stage-wise time summed over every batch report.

        For sequential runs this is the per-stage breakdown of the whole
        run; for parallel runs it is the total compute spent per stage
        across all workers (which can exceed the wall clock).
        """
        return BatchReport.aggregate(self.batches).stage_seconds

    def refresh_assignments(self) -> None:
        """Rebuild the id -> type-name maps from the schema's members."""
        self.node_assignment = {
            member: node_type.name
            for node_type in self.schema.node_types.values()
            for member in node_type.members
        }
        self.edge_assignment = {
            member: edge_type.name
            for edge_type in self.schema.edge_types.values()
            for member in edge_type.members
        }
