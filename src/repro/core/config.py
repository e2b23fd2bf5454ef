"""Configuration for the PG-HIVE pipeline."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.embeddings.word2vec import Word2VecConfig


class LSHMethod(enum.Enum):
    """Which LSH family drives the clustering (section 4.2)."""

    ELSH = "elsh"
    MINHASH = "minhash"


@dataclass
class PGHiveConfig:
    """All knobs of the PG-HIVE pipeline.

    Attributes:
        method: ELSH (p-stable projections over the hybrid vectors) or
            MinHash (Jaccard over label+property feature sets).
        word2vec: Label embedding hyperparameters (dimension ``d`` etc.).
        label_weight: Scale applied to the (unit-normalized) label
            embedding block of the hybrid vector so the semantic part stays
            comparable to the binary property block under heavy noise.
        jaccard_threshold: Theta of Algorithm 2 (default 0.9 as in the
            paper; lowering it raises recall but mixes types).
        endpoint_jaccard_threshold: Minimum Jaccard similarity between
            endpoint label sets for two same-label edge clusters to merge
            into one edge type (Definition 3.3 keeps the endpoint pair as
            part of the type).
        bucket_length: Manual ELSH bucket length ``b``; ``None`` (default)
            enables the adaptive strategy of section 4.2.
        num_tables: Manual number of hash tables ``T``; ``None`` adapts.
        alpha: Manual label-diversity factor; ``None`` adapts from L.
        adaptive_sample_size: Minimum sample used to estimate the distance
            scale mu (the paper uses max(1 % of the graph, 10k); scaled
            datasets use a smaller floor).
        adaptive_sample_fraction: Fraction of the graph sampled for mu.
        minhash_rows_per_band: Band width for MinHash banding.
        post_processing: Run constraint/datatype/cardinality inference.
        memoize_patterns: Incremental fast path in the spirit of DiscoPG's
            memorization: elements whose labels match an existing type and
            whose structure adds nothing new are absorbed directly,
            skipping vectorization and clustering.  Identical output on
            fully labeled graphs; with unlabeled elements present it
            changes which elements the batch's LSH stage sees, so the
            unlabeled ones may cluster differently.  Consults the running
            schema, so it always runs the in-process executor, at any
            ``jobs``.  Off by default.
        infer_value_profiles: Additionally profile value domains
            (enumerations, numeric/temporal ranges -- the paper's "future
            work" refinement of section 4.4).
        exact_cardinality_bounds: Additionally compute exact lower-bound
            cardinalities via endpoint participation analysis (also left
            as future work in section 4.4).
        infer_datatypes_by_sampling: Use the sampled datatype mode.
        datatype_sample_fraction / datatype_sample_minimum: Its parameters
            (paper: 10 % of the properties, at least 1000).
        jobs: Worker processes for incremental discovery.  It only picks
            the executor of the one map-then-fold driver
            (:meth:`repro.core.pipeline.PGHive.drive`): ``1`` (default)
            maps batches in-process, ``N > 1`` on a fork pool
            (:mod:`repro.core.parallel`).  Either way the driver folds
            batch schemas in batch order, so the final schema is
            byte-identical at every ``jobs`` and does not depend on
            worker completion order.  Shard results return pickled
            through the pool's own pipe.
        parallel_chunk: How many shards each pool task processes:
            ``"auto"`` balances tasks across workers, or a positive
            integer literal (e.g. ``"2"``).  Pure scheduling knob -- the
            result is identical for every chunking.
        shard_timeout: Wall-clock seconds a parallel pool task may run
            before the driver declares it hung, kills the pool workers
            and requeues the lost shards.  ``None`` (default) disables
            the watchdog.
        shard_retries: How many times a failing shard is retried in the
            pool before the driver runs it in-process as a last resort.
            Because shard discovery is pure, a retried or re-executed
            shard merges to the identical schema (Lemmas 1-2).
        shard_retry_backoff: Base seconds slept before requeueing a
            failed shard; the wait grows linearly with the attempt
            number.  Scheduling-only -- never affects the schema.
        shard_memory_limit_mb: Optional worker RSS budget in MiB.  When
            set, workers check their resident set between pipeline
            stages and raise before the kernel OOM killer fires; the
            failure surfaces as a structured
            ``ShardFailure(kind="memory")`` and flows through the
            ordinary retry / in-process-fallback machinery.  ``None``
            (default) disables the guard.
        strict_recovery: When True, a shard that still fails after pool
            retries *and* the in-process fallback raises
            :class:`~repro.core.parallel.ShardRecoveryError` instead of
            degrading the run to the surviving shards.
        faults: Fault-injection plan string
            (see :mod:`repro.core.faults`), e.g. ``"shard:2:kill"``.
            ``None`` falls back to the ``PGHIVE_FAULTS`` environment
            variable; empty disables injection.  Test/CI facility.
        checkpoint_dir: Directory for the run journal, one format at
            every ``jobs``.  The folded prefix (running schema, reports,
            parameters and failures, atomic write-and-rename) is written
            every ``checkpoint_every`` folded batches and at the end; a
            completed shard that cannot be folded yet (a lower index is
            still running) is kept as ``checkpoint_dir/shards/`` entry
            until a prefix covers it.  A fresh run clears both, and
            ``discover_incremental(..., resume=True)`` continues a killed
            run at any ``jobs`` -- mapping only the batches the journal
            lacks -- to the identical final schema.
        checkpoint_every: Prefix checkpoint cadence in folded batches
            (default 1).
        store: Which graph storage backend discovery reads from.
            ``"memory"`` (default) keeps every node and edge as Python
            objects in a :class:`~repro.graph.store.GraphStore`;
            ``"disk"`` ingests into append-only memory-mapped slab
            files and discovers through a
            :class:`~repro.graph.diskstore.DiskGraphStore`, keeping the
            driver's resident set at O(slab headers + merged schema)
            while workers map the slabs read-only.  The discovered
            schema is byte-identical between backends for every mode.
        store_dir: Slab directory for the disk backend.  ``None``
            (default) uses an ephemeral temp directory that is removed
            when the run finishes; pass a path to keep the slabs for
            later resume/re-discovery.  Ignored by the memory backend.
        slab_bytes: Commit granularity of slab ingest in bytes (default
            4 MiB, minimum 4 KiB): the ingest sink flushes and commits
            a durable manifest whenever this much property-heap data is
            buffered.  Smaller values bound ingest memory tighter and
            checkpoint more often; the stored bytes are identical
            regardless.  Ignored by the memory backend.
        corrupt_slab_policy: What discovery does when the disk backend
            detects slab corruption (a checksum/truncation failure
            raised as :class:`~repro.graph.slab.SlabCorruptionError`).
            ``"raise"`` (default) fails the run immediately -- corrupt
            storage is never silently read.  ``"skip"`` quarantines the
            affected shards instead: they are recorded as
            ``ShardFailure(kind="corruption")`` in
            ``DiscoveryResult.shard_failures`` (no retries, no in-process
            fallback -- corruption is deterministic) and discovery
            completes on the surviving shards.  ``strict_recovery=True``
            still turns any quarantined shard into a hard
            ``ShardRecoveryError`` at the end.  Ignored by the memory
            backend.
        server_host: Bind address of the discovery daemon
            (``pghive serve``).  Default ``127.0.0.1`` -- loopback only;
            the daemon has no authentication layer.
        server_port: TCP port of the discovery daemon (default 8850).
            ``0`` binds an ephemeral port (useful for tests; the chosen
            port is printed on startup).
        server_workers: Background ingestion threads shared by every
            discovery session of the daemon (default 2).  Batches of one
            session are always processed in POST order regardless of the
            worker count.
        server_queue_depth: Maximum queued-or-running batches per session
            (default 8).  Posting beyond the limit returns HTTP 503 --
            the daemon sheds load instead of buffering unboundedly.
        seed: Master RNG seed; every random component derives from it.
    """

    method: LSHMethod = LSHMethod.ELSH
    word2vec: Word2VecConfig = field(default_factory=Word2VecConfig)
    label_weight: float = 3.0
    jaccard_threshold: float = 0.9
    endpoint_jaccard_threshold: float = 0.5
    bucket_length: float | None = None
    num_tables: int | None = None
    alpha: float | None = None
    adaptive_sample_size: int = 500
    adaptive_sample_fraction: float = 0.01
    minhash_rows_per_band: int = 6
    post_processing: bool = True
    memoize_patterns: bool = False
    infer_value_profiles: bool = False
    exact_cardinality_bounds: bool = False
    infer_datatypes_by_sampling: bool = False
    datatype_sample_fraction: float = 0.1
    datatype_sample_minimum: int = 1000
    jobs: int = 1
    parallel_chunk: str = "auto"
    shard_timeout: float | None = None
    shard_retries: int = 2
    shard_retry_backoff: float = 0.05
    shard_memory_limit_mb: float | None = None
    strict_recovery: bool = False
    faults: str | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    store: str = "memory"
    store_dir: str | None = None
    slab_bytes: int = 4 << 20
    corrupt_slab_policy: str = "raise"
    server_host: str = "127.0.0.1"
    server_port: int = 8850
    server_workers: int = 2
    server_queue_depth: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if isinstance(self.method, str):
            self.method = LSHMethod(self.method.lower())
        if not 0.0 <= self.jaccard_threshold <= 1.0:
            raise ValueError("jaccard_threshold must be in [0, 1]")
        if not 0.0 <= self.endpoint_jaccard_threshold <= 1.0:
            raise ValueError("endpoint_jaccard_threshold must be in [0, 1]")
        if self.bucket_length is not None and self.bucket_length <= 0:
            raise ValueError("bucket_length must be positive when given")
        if self.num_tables is not None and self.num_tables < 1:
            raise ValueError("num_tables must be >= 1 when given")
        if self.label_weight < 0:
            raise ValueError("label_weight must be non-negative")
        if self.minhash_rows_per_band < 1:
            raise ValueError("minhash_rows_per_band must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.parallel_chunk != "auto":
            try:
                chunk = int(self.parallel_chunk)
            except (TypeError, ValueError):
                raise ValueError(
                    "parallel_chunk must be 'auto' or a positive integer "
                    f"literal, got {self.parallel_chunk!r}"
                ) from None
            if chunk < 1:
                raise ValueError("parallel_chunk must be >= 1 when numeric")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive when given")
        if self.shard_retries < 0:
            raise ValueError("shard_retries must be >= 0")
        if self.shard_retry_backoff < 0:
            raise ValueError("shard_retry_backoff must be >= 0")
        if (
            self.shard_memory_limit_mb is not None
            and self.shard_memory_limit_mb <= 0
        ):
            raise ValueError(
                "shard_memory_limit_mb must be positive when given"
            )
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.store not in ("memory", "disk"):
            raise ValueError(
                f"store must be 'memory' or 'disk', got {self.store!r}"
            )
        if self.slab_bytes < 4096:
            raise ValueError("slab_bytes must be >= 4096")
        if self.corrupt_slab_policy not in ("raise", "skip"):
            raise ValueError(
                f"corrupt_slab_policy must be 'raise' or 'skip', "
                f"got {self.corrupt_slab_policy!r}"
            )
        if not self.server_host:
            raise ValueError("server_host must be non-empty")
        if not 0 <= self.server_port <= 65535:
            raise ValueError("server_port must be in [0, 65535]")
        if self.server_workers < 1:
            raise ValueError("server_workers must be >= 1")
        if self.server_queue_depth < 1:
            raise ValueError("server_queue_depth must be >= 1")
        if self.faults:
            from repro.core.faults import FaultPlan

            FaultPlan.parse(self.faults)  # validate eagerly

    def chunk_size(self, num_shards: int) -> int:
        """Resolve ``parallel_chunk`` to shards per pool task.

        ``"auto"`` splits the shards into about two tasks per worker so a
        slow shard cannot strand the pool, while keeping per-task payload
        overhead amortized.  Never affects the discovered schema.
        """
        if self.parallel_chunk != "auto":
            return min(int(self.parallel_chunk), max(num_shards, 1))
        tasks = max(self.jobs * 2, 1)
        return max(1, -(-num_shards // tasks))
