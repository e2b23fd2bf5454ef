"""The incremental discovery engine (paper section 4.6).

Each batch of nodes and edges goes through the same pipeline as a static
run -- embed labels, vectorize, LSH-cluster, extract types (Algorithm 2) --
and the resulting batch schema is merged into the running schema with the
monotone rules of :func:`repro.schema.merge.merge_schemas`.  The running
schema therefore forms the monotone chain S_1 <= S_2 <= ... of the paper.

The engine is deliberately independent of :class:`PGHive` so it can be
driven directly by streaming code (see ``examples/incremental_streaming``).

Each batch is columnized once (:mod:`repro.core.columns`) and every
expensive stage -- embedding corpus construction, vectorization, LSH
hashing, mu estimation, refinement and cluster summarization -- runs once
per *distinct pattern* and expands to elements with fancy indexing.  A
trained embedder is also reused across batches whose deduplicated
sentence corpus is unchanged (stable-vocabulary streams skip Word2Vec
retraining entirely).

The element-at-a-time loops these kernels replaced live on as test
oracles (``tests/oracles/``); ``tests/test_hotpath_kernels.py`` asserts
that both produce byte-identical schemas for a fixed seed.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.adaptive import choose_parameters
from repro.core.columns import (
    EdgeColumns,
    NodeColumns,
    dense_first_appearance,
    edge_columns,
    node_columns,
    union_of,
)
from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.result import BatchReport, ShardFailure, ShardResult
from repro.core.postprocess import (
    attach_partial_stats,
    fold_edge,
    fold_properties,
    schema_stats_from_dict,
    schema_stats_to_dict,
)
from repro.core.type_extraction import (
    build_edge_clusters_from_columns,
    build_node_clusters_from_columns,
    extract_edge_types,
    extract_node_types,
    resolve_edge_endpoints,
)
from repro.core.vectorize import (
    EdgeVectorizer,
    EmbeddingCache,
    FeatureInterner,
    NodeVectorizer,
)
from repro.embeddings.embedder import LabelEmbedder
from repro.graph.model import Edge, Node
from repro.lsh.buckets import cluster_by_band_union, cluster_by_full_signature
from repro.lsh.elsh import EuclideanLSH
from repro.lsh.minhash import MinHashLSH
from repro.schema.merge import merge_schemas
from repro.schema.model import SchemaGraph
from repro.schema.persist import (
    SchemaPersistError,
    clear_shard_journal,
    load_checkpoint,
    save_checkpoint,
)
from repro.util.timing import StageTimer

#: Modules a batch first imports lazily, inside a call: ``np.unique``
#: loads ``numpy.ma``, Word2Vec's ``default_rng`` loads ``numpy.random``
#: and MinHash banding imports ``scipy.sparse.csgraph`` in-function.
_LAZY_IMPORTS = {
    LSHMethod.ELSH: ("numpy.ma", "numpy.random"),
    LSHMethod.MINHASH: ("numpy.ma", "numpy.random", "scipy.sparse.csgraph"),
}


def preload_engine_imports(method: LSHMethod) -> None:
    """Import now what the first batch would otherwise import lazily.

    The pool driver calls this before it forks, so no worker imports a
    module the driver lacks; the daemon calls it before it answers
    ``/health``, so the first batch carries no import cost.
    """
    for module in _LAZY_IMPORTS[method]:
        importlib.import_module(module)


def _refine_by_label_ids(
    assignment: np.ndarray, label_ids: np.ndarray, num_label_sets: int
) -> np.ndarray:
    """Split each LSH cluster by label set (interned label-set ids).

    Per Definitions 3.2/3.3, elements with different label sets belong to
    different types; an (unlikely) LSH collision between them must not
    survive into type extraction, where merging is union-only.  Unlabeled
    elements (the empty label set) keep their structural cluster, so the
    Jaccard-based merging of section 4.3 still sees them whole.  Keying on
    interned label *sets* (not concatenated tokens) keeps a literal
    ``"A&B"`` label apart from the ``{A, B}`` label set.

    Each (cluster id, label-set id) pair becomes one refined cluster,
    numbered densely in first-appearance order.
    """
    if assignment.size == 0:
        return assignment
    combined = assignment * np.int64(max(num_label_sets, 1)) + label_ids
    refined, _ = dense_first_appearance(combined)
    return refined


def run_context(
    source: str,
    num_batches: int,
    seed: int,
    config: PGHiveConfig,
    fingerprint: dict[str, str] | None = None,
) -> dict[str, object]:
    """Identify the run a journal belongs to.

    The folded prefix and every out-of-order shard entry store this
    context, and a resume refuses state whose context differs (see
    :func:`check_context`): the same source, batch plan and seed, folded
    the same way.  The discovery settings (LSH method and parameters,
    the θ thresholds, adaptive sampling, memoization, the Word2Vec
    hyperparameters) decide what each batch schema is, so batches found
    one way never fold with batches found another.  Stats are folded only with post-processing on and
    value sketches only with profiles, so resuming state folded another
    way would print wrong datatypes or empty profiles.  The store's
    ``fingerprint`` (its content digest, or a slab content digest) keeps
    state written against one input from resuming against another.
    The worker count is not part of the context: a run killed at any
    ``jobs`` resumes at any ``jobs``.
    """
    context: dict[str, object] = {
        "source": source,
        "num_batches": num_batches,
        "seed": seed,
        "method": config.method.value,
        "label_weight": config.label_weight,
        "jaccard_threshold": config.jaccard_threshold,
        "endpoint_jaccard_threshold": config.endpoint_jaccard_threshold,
        "bucket_length": config.bucket_length,
        "num_tables": config.num_tables,
        "alpha": config.alpha,
        "adaptive_sample_size": config.adaptive_sample_size,
        "adaptive_sample_fraction": config.adaptive_sample_fraction,
        "minhash_rows_per_band": config.minhash_rows_per_band,
        "memoize_patterns": config.memoize_patterns,
        "word2vec": asdict(config.word2vec),
        "post_processing": config.post_processing,
        "infer_value_profiles": config.infer_value_profiles,
    }
    if fingerprint is not None:
        context["store"] = fingerprint
    return context


def check_context(
    where: object, stored: dict[str, Any], expected: dict[str, Any]
) -> None:
    """Raise :class:`SchemaPersistError` naming the first key of
    ``expected`` that journal state at ``where`` stores differently."""
    for key, value in expected.items():
        if stored.get(key) != value:
            raise SchemaPersistError(
                f"{where}: checkpoint context mismatch for {key!r}: "
                f"checkpoint has {stored.get(key)!r}, this run expects "
                f"{value!r}"
            )


class IncrementalDiscovery:
    """Stateful schema discovery over a stream of graph batches."""

    def __init__(
        self,
        config: PGHiveConfig | None = None,
        name: str = "stream",
        schema: SchemaGraph | None = None,
    ) -> None:
        """Create an engine, optionally resuming a persisted schema.

        Args:
            config: Pipeline configuration.
            name: Name for a freshly created schema.
            schema: A previously discovered schema (e.g. loaded with
                :func:`repro.schema.persist.load_schema`) to keep
                extending; batches merge into it monotonically.
        """
        self.config = config or PGHiveConfig()
        self.schema = schema if schema is not None else SchemaGraph(name)
        self.reports: list[BatchReport] = []
        self.parameters: dict[str, str] = {}
        #: Failure events of every batch folded so far (quarantined or
        #: recovered shards); the prefix checkpoint keeps them.
        self.failures: list[ShardFailure] = []
        #: The context of the checkpoint this engine was restored from.
        self.context: dict[str, Any] = {}
        #: Length of the folded prefix: one past the last folded index.
        self.next_batch = 0
        self._batch_counter = 0
        # Embedder reuse across batches: key is the deduplicated, sorted
        # sentence corpus; Word2Vec training is deterministic, so an
        # unchanged corpus implies identical embeddings and retraining
        # would be pure waste.
        self._embedder_corpus_key: tuple | None = None
        self._cached_embedder: LabelEmbedder | None = None

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    CHECKPOINT_FILENAME = "pghive-checkpoint.json"

    @classmethod
    def checkpoint_path(cls, directory: str | Path) -> Path:
        """The checkpoint file inside ``directory``."""
        return Path(directory) / cls.CHECKPOINT_FILENAME

    def save_checkpoint(
        self, directory: str | Path, context: dict[str, Any] | None = None
    ) -> Path:
        """Write the folded prefix, the resumable half of the journal.

        One atomic document: the running schema with members and §4.4
        stats, ``next_batch``, reports, parameters, the failures folded
        past and the caller's ``context``.  Shard entries it covers are
        deleted.  The embedder cache is a pure-cost cache and is not
        kept.  Returns the checkpoint file path.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: dict[str, Any] = {
            "next_batch": self.next_batch,
            "schema_name": self.schema.name,
            "parameters": dict(self.parameters),
            "reports": [report.to_dict() for report in self.reports],
            "failures": [asdict(failure) for failure in self.failures],
            "context": {
                **(context or {}),
                "stats": schema_stats_to_dict(self.schema),
            },
        }
        path = self.checkpoint_path(directory)
        save_checkpoint(path, self.schema, manifest)
        clear_shard_journal(directory, before=self.next_batch)
        return path

    @classmethod
    def from_checkpoint(
        cls,
        directory: str | Path,
        config: PGHiveConfig | None = None,
        expected_context: dict[str, Any] | None = None,
    ) -> "IncrementalDiscovery":
        """Rebuild an engine from :meth:`save_checkpoint` output.

        The resumed engine continues exactly where the checkpointed one
        stopped (counter, parameters, reports and failures pick up at
        ``next_batch``), so folding the remaining batches gives the
        schema of an uninterrupted run.  Every key of
        ``expected_context`` must match the stored context
        (:func:`check_context`), which the engine keeps as ``context``.

        Raises:
            FileNotFoundError: No checkpoint in ``directory``.
            SchemaPersistError: Corrupt checkpoint or context mismatch.
        """
        path = cls.checkpoint_path(directory)
        schema, manifest = load_checkpoint(path)
        stored_context = manifest.get("context", {})
        check_context(path, stored_context, expected_context or {})
        schema_stats_from_dict(schema, stored_context.get("stats"))
        engine = cls(config, schema=schema)
        engine.next_batch = int(manifest.get("next_batch", 0))
        engine._batch_counter = engine.next_batch
        engine.parameters = dict(manifest.get("parameters", {}))
        engine.reports = [
            BatchReport.from_dict(record)
            for record in manifest.get("reports", ())
        ]
        engine.failures = [
            ShardFailure(**record) for record in manifest.get("failures", ())
        ]
        engine.context = stored_context
        return engine

    @classmethod
    def has_checkpoint(cls, directory: str | Path) -> bool:
        """Whether ``directory`` holds a checkpoint file."""
        return cls.checkpoint_path(directory).is_file()

    # ------------------------------------------------------------------
    # Map and fold
    # ------------------------------------------------------------------
    def process_batch(
        self,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]] | None = None,
        batch_index: int | None = None,
    ) -> BatchReport:
        """Map one batch, fold it and resolve endpoints, for streaming.

        :meth:`map_batch` then :meth:`fold`, the steps the driver
        (:meth:`repro.core.pipeline.PGHive.drive`) interleaves.

        Args:
            nodes: Batch nodes.
            edges: Batch edges (sources/targets may live in other batches).
            endpoint_labels: node id -> label set for every endpoint the
                edges reference; defaults to the labels of the batch's own
                nodes.
            batch_index: The batch's index in its source's plan, as for
                :meth:`discover_batch_columns`; defaults to the engine's
                own counter.

        Returns:
            A :class:`BatchReport` with timings (total and per stage) and
            cluster counts.
        """
        started = time.perf_counter()
        shard = self.map_batch(nodes, edges, endpoint_labels, batch_index)
        self.fold(shard)
        resolve_edge_endpoints(self.schema)
        report = self.reports[-1]
        report.seconds = time.perf_counter() - started
        return report

    def map_batch(
        self,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]] | None = None,
        batch_index: int | None = None,
    ) -> ShardResult:
        """The in-process map step: absorb known patterns, then discover.

        Memoization absorbs the elements that match types of the running
        schema first, so batch ``i`` must be mapped after batch ``i-1``
        was folded; the rest go through :meth:`discover_batch`.
        Arguments are as for :meth:`process_batch`.
        """
        started = time.perf_counter()
        if endpoint_labels is None:
            endpoint_labels = {node.id: node.labels for node in nodes}
        memo_node_hits = memo_edge_hits = 0
        if self.config.memoize_patterns:
            nodes, edges, memo_node_hits, memo_edge_hits = (
                self._absorb_known_patterns(nodes, edges, endpoint_labels)
            )
        seen = len(self.parameters)
        batch_schema, report = self.discover_batch(
            nodes, edges, endpoint_labels, batch_index
        )
        report.seconds = time.perf_counter() - started
        report.num_nodes += memo_node_hits
        report.num_edges += memo_edge_hits
        report.memo_node_hits = memo_node_hits
        report.memo_edge_hits = memo_edge_hits
        parameters = dict(list(self.parameters.items())[seen:])
        return ShardResult(report.index, batch_schema, report, parameters)

    def fold(self, shard: ShardResult) -> float:
        """Fold one mapped batch into the running schema; return seconds.

        The one fold every engine runs (the driver, the daemon and
        :func:`repro.core.parallel.combine_shard_results`): merge the
        batch schema and its stats with
        :func:`~repro.schema.merge.merge_schemas`, keep its report
        (timing the ``merge`` stage), parameters and failures, and step
        the prefix past its index; a failed batch keeps its failures
        only.  No merge reads endpoints, so callers resolve them once.
        """
        started = time.perf_counter()
        self.failures.extend(shard.failures)
        if shard.schema is not None and shard.report is not None:
            merge_schemas(
                self.schema,
                shard.schema,
                self.config.jaccard_threshold,
                self.config.endpoint_jaccard_threshold,
            )
            self.reports.append(shard.report)
            self.parameters.update(shard.parameters)
        self.next_batch = shard.index + 1
        elapsed = time.perf_counter() - started
        if shard.report is not None:
            shard.report.stage_seconds["merge"] = elapsed
        return elapsed

    def discover_batch(
        self,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
        batch_index: int | None = None,
    ) -> tuple[SchemaGraph, BatchReport]:
        """Build one batch's schema, with its §4.4 stats, without merging.

        The batch method every engine runs -- :meth:`map_batch`, the
        pool workers of :mod:`repro.core.parallel` and the daemon's
        sessions: columnize the elements, run
        :meth:`discover_batch_columns`, then (with
        ``config.post_processing``) fold the batch's post-processing
        statistics onto its types with
        :func:`~repro.core.postprocess.attach_partial_stats`, while the
        elements are still in hand.  ``batch_index`` is as for
        :meth:`discover_batch_columns`.
        """
        started = time.perf_counter()
        stages = StageTimer()
        with stages.stage("vectorize"):
            ncols = node_columns(nodes)
            ecols = edge_columns(edges, endpoint_labels)
        batch_schema, report = self.discover_batch_columns(
            ncols, ecols, batch_index
        )
        if self.config.post_processing:
            with stages.stage("stats"):
                attach_partial_stats(
                    batch_schema, nodes, edges,
                    track_values=self.config.infer_value_profiles,
                )
        stages.add_seconds(report.stage_seconds)
        report.stage_seconds = dict(stages.seconds)
        report.seconds = time.perf_counter() - started
        return batch_schema, report

    # ------------------------------------------------------------------
    # Batch body
    # ------------------------------------------------------------------
    def _process_batch_from_columns(
        self,
        ncols: NodeColumns,
        ecols: EdgeColumns,
        batch_schema: SchemaGraph,
        stages: StageTimer,
    ) -> tuple[list, list, bool]:
        """The batch body: cluster and extract types over columns.

        Every batch runs through here, sequential or not.  It is also the
        worker payload contract of the parallel driver
        (:mod:`repro.core.parallel`): everything downstream of
        columnization needs only the compact integer-id arrays, never the
        original :class:`Node`/:class:`Edge` objects.
        """
        with stages.stage("embed"):
            embedder, embedder_reused = self._fit_embedder_columns(
                ncols, ecols
            )
        # One embedding cache for both element kinds: endpoint label sets
        # embedded during the node pass are free in the edge pass.
        cache = EmbeddingCache(embedder, self.config.label_weight)
        raw_nodes = self._cluster_nodes_columns(
            ncols, len(ncols), embedder, cache, stages
        )
        with stages.stage("cluster"):
            node_assignment = _refine_by_label_ids(
                raw_nodes, ncols.label_ids, len(ncols.labels)
            )
        with stages.stage("extract"):
            node_clusters = build_node_clusters_from_columns(
                ncols, node_assignment
            )
            extract_node_types(
                batch_schema, node_clusters, self.config.jaccard_threshold
            )
        # Hybrid step: endpoints whose labels are missing are typed by the
        # node *type* they were extracted into, so edge vectors and
        # edge-type merging still see structural endpoint identity at 0 %
        # label availability.
        overrides = self._endpoint_label_overrides_columns(
            batch_schema, ncols
        )
        ecols = ecols.with_endpoint_overrides(overrides)
        raw_edges = self._cluster_edges_columns(
            ecols, len(ecols), embedder, cache, stages
        )
        with stages.stage("cluster"):
            edge_assignment = _refine_by_label_ids(
                raw_edges, ecols.label_ids, len(ecols.labels)
            )
        with stages.stage("extract"):
            edge_clusters = build_edge_clusters_from_columns(
                ecols, edge_assignment
            )
            extract_edge_types(
                batch_schema,
                edge_clusters,
                self.config.jaccard_threshold,
                self.config.endpoint_jaccard_threshold,
            )
        return node_clusters, edge_clusters, embedder_reused

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _absorb_known_patterns(
        self,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> tuple[list[Node], list[Edge], int, int]:
        """DiscoPG-style fast path: absorb elements matching known types.

        A labeled node whose label set names an existing type and whose
        property keys are a subset of that type's keys would end up merged
        into it anyway; absorb it directly (update counts, membership
        and the host's §4.4 stats, folded exactly as
        :func:`~repro.core.postprocess.attach_partial_stats` folds batch
        members) and leave it out of the expensive pipeline.  Likewise
        for labeled edges whose label, keys and endpoint labels all match
        an existing edge type.  Returns the remaining elements and the
        hit counts.
        """
        from repro.schema.merge import endpoints_compatible
        from repro.schema.model import EdgeType

        track_values = self.config.infer_value_profiles
        node_types_by_labels = {
            t.labels: t for t in self.schema.node_types.values() if t.labels
        }
        remaining_nodes: list[Node] = []
        node_hits = 0
        for node in nodes:
            host = node_types_by_labels.get(node.labels)
            if host is not None and node.property_keys <= host.property_keys:
                host.instance_count += 1
                host.property_counts.update(node.properties.keys())
                host.members.append(node.id)
                if host.stats is not None:
                    fold_properties(
                        host.stats, node.properties, host.property_keys,
                        track_values,
                    )
                node_hits += 1
            else:
                remaining_nodes.append(node)
        empty: frozenset[str] = frozenset()
        remaining_edges: list[Edge] = []
        edge_hits = 0
        for edge in edges:
            host = None
            if edge.labels:
                probe = EdgeType(
                    "?", edge.labels,
                    source_labels=endpoint_labels.get(edge.source, empty),
                    target_labels=endpoint_labels.get(edge.target, empty),
                )
                for edge_type in self.schema.edge_types_for_labels(edge.labels):
                    if (
                        edge.property_keys <= edge_type.property_keys
                        and probe.source_labels <= edge_type.source_labels
                        and probe.target_labels <= edge_type.target_labels
                        and endpoints_compatible(
                            edge_type, probe,
                            self.config.endpoint_jaccard_threshold,
                        )
                    ):
                        host = edge_type
                        break
            if host is not None:
                host.instance_count += 1
                host.property_counts.update(edge.properties.keys())
                host.members.append(edge.id)
                if host.stats is not None:
                    fold_edge(
                        host.stats, edge, host.property_keys, track_values
                    )
                edge_hits += 1
            else:
                remaining_edges.append(edge)
        return remaining_nodes, remaining_edges, node_hits, edge_hits

    def _endpoint_label_overrides_columns(
        self, batch_schema: SchemaGraph, ncols: NodeColumns
    ) -> dict[int, frozenset[str]]:
        """Type-derived label overrides for this batch's unlabeled nodes.

        An unlabeled node that was merged into a *labeled* node type (the
        paper's Example 5: Alice joins the Person type) adopts that type's
        labels as its effective endpoint identity.  Unlabeled nodes in
        ABSTRACT types get the type's pseudo cluster token instead, so edges
        still see structural endpoint identity at 0 % label availability.
        Only unlabeled batch nodes (empty canonical token) that were
        extracted into a node type receive an override, in batch node
        order; endpoints outside this batch (possible for cross-batch
        edges) keep whatever labels the stream reported for them.
        """
        from repro.core.type_extraction import PSEUDO_PREFIX

        batch_tag = f"b{self._batch_counter}"
        node_token: dict[int, frozenset[str]] = {}
        for node_type in batch_schema.node_types.values():
            if node_type.labels:
                token_set = node_type.labels
            else:
                token = f"{PSEUDO_PREFIX}{batch_tag}:{node_type.name}"
                node_type.cluster_tokens.add(token)
                token_set = frozenset({token})
            for member in node_type.members:
                node_token[member] = token_set
        tokens = ncols.labels.tokens
        return {
            node_id: node_token[node_id]
            for node_id, label_id in zip(
                ncols.ids.tolist(), ncols.label_ids.tolist()
            )
            if not tokens[label_id] and node_id in node_token
        }

    def discover_batch_columns(
        self,
        ncols: NodeColumns,
        ecols: EdgeColumns,
        batch_index: int | None = None,
    ) -> tuple[SchemaGraph, BatchReport]:
        """Build one batch's schema from columnized arrays, without merging.

        This is the unit of work the parallel driver ships to pool
        workers: the caller (or the worker itself) columnizes a shard
        once, and this method runs the vectorized pipeline on the compact
        arrays, returning the *batch* schema and its report.  The running
        schema is not touched -- the driver folds batch schemas in batch
        order with :meth:`fold`.

        Args:
            ncols / ecols: Columnized shard (see :mod:`repro.core.columns`).
            batch_index: Global shard index; keeps pseudo-label tags and
                parameter keys identical to a sequential run over the
                same batch sequence.  Defaults to the engine's internal
                counter.
        """
        if batch_index is not None:
            self._batch_counter = batch_index
        started = time.perf_counter()
        stages = StageTimer()
        batch_schema = SchemaGraph(f"batch{self._batch_counter}")
        node_clusters, edge_clusters, embedder_reused = (
            self._process_batch_from_columns(
                ncols, ecols, batch_schema, stages
            )
        )
        report = BatchReport(
            index=self._batch_counter,
            num_nodes=len(ncols),
            num_edges=len(ecols),
            node_clusters=len(node_clusters),
            edge_clusters=len(edge_clusters),
            seconds=time.perf_counter() - started,
            stage_seconds=dict(stages.seconds),
            embedder_reused=embedder_reused,
        )
        self._batch_counter += 1
        return batch_schema, report

    def _fit_embedder_columns(
        self, ncols: NodeColumns, ecols: EdgeColumns
    ) -> tuple[LabelEmbedder, bool]:
        """Train Word2Vec on this batch's label co-occurrences, or reuse.

        The sentence corpus is assembled from *distinct* (src, edge, tgt)
        label-id triples and distinct node label ids: thousands of edges
        share a handful of triples, and training once per distinct
        sentence preserves the co-occurrence structure at a fraction of
        the cost.  If the sorted corpus matches the previous batch's, the
        cached trained embedder is returned (Word2Vec training is
        deterministic, so the embeddings are identical to a fresh fit);
        otherwise a fresh embedder is fitted and cached.

        Returns:
            ``(embedder, reused)``.
        """
        sentences: set[tuple[str, ...]] = set()
        if len(ecols):
            tokens = ecols.labels.tokens
            width = max(len(tokens), 1)
            combined = (
                ecols.src_label_ids * np.int64(width) + ecols.label_ids
            ) * np.int64(width) + ecols.tgt_label_ids
            for value in np.unique(combined).tolist():
                tgt_id = value % width
                rest = value // width
                edge_id = rest % width
                src_id = rest // width
                sentence = tuple(
                    token
                    for token in (
                        tokens[src_id], tokens[edge_id], tokens[tgt_id]
                    )
                    if token
                )
                if sentence:
                    sentences.add(sentence)
        if len(ncols):
            node_tokens = ncols.labels.tokens
            for label_id in np.unique(ncols.label_ids).tolist():
                token = node_tokens[label_id]
                if token:
                    sentences.add((token,))
        corpus = sorted(sentences)
        key = tuple(corpus)
        if (
            self._cached_embedder is not None
            and self._embedder_corpus_key == key
        ):
            return self._cached_embedder, True
        embedder = LabelEmbedder(self.config.word2vec)
        embedder.fit_tokens([list(s) for s in corpus])
        self._embedder_corpus_key = key
        self._cached_embedder = embedder
        return embedder, False

    def _cluster_nodes_columns(
        self,
        columns: NodeColumns,
        count: int,
        embedder: LabelEmbedder,
        cache: EmbeddingCache,
        stages: StageTimer,
    ) -> np.ndarray:
        """Batch node clustering over distinct patterns."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        property_keys = sorted(union_of(columns.keys.sets))
        num_labels = len(union_of(columns.labels.sets))
        vectorizer = NodeVectorizer(
            property_keys,
            embedder,
            self.config.label_weight,
            embedding_cache=cache,
        )
        if self.config.method is LSHMethod.ELSH:
            with stages.stage("vectorize"):
                compact, pattern_ids = vectorizer.vectorize_patterns(columns)
            with stages.stage("cluster"):
                return self._elsh_assign(
                    compact, num_labels, kind="node", pattern_ids=pattern_ids
                )
        with stages.stage("vectorize"):
            interner = FeatureInterner()
            compact_sets, pattern_ids = vectorizer.feature_sets_patterns(
                columns, interner
            )
        with stages.stage("cluster"):
            return self._minhash_assign(
                compact_sets, count, kind="node", pattern_ids=pattern_ids
            )

    def _cluster_edges_columns(
        self,
        columns: EdgeColumns,
        count: int,
        embedder: LabelEmbedder,
        cache: EmbeddingCache,
        stages: StageTimer,
    ) -> np.ndarray:
        """Batch edge clustering over distinct patterns."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        property_keys = sorted(union_of(columns.keys.sets))
        # Distinct labels over *edge* label sets only (the shared label
        # space also holds endpoint label sets).
        edge_label_sets = [
            columns.labels.sets[i]
            for i in np.unique(columns.label_ids).tolist()
        ]
        num_labels = len(union_of(edge_label_sets))
        vectorizer = EdgeVectorizer(
            property_keys,
            embedder,
            self.config.label_weight,
            embedding_cache=cache,
        )
        if self.config.method is LSHMethod.ELSH:
            with stages.stage("vectorize"):
                compact, pattern_ids = vectorizer.vectorize_patterns(columns)
            with stages.stage("cluster"):
                return self._elsh_assign(
                    compact, num_labels, kind="edge", pattern_ids=pattern_ids
                )
        with stages.stage("vectorize"):
            interner = FeatureInterner()
            compact_sets, pattern_ids = vectorizer.feature_sets_patterns(
                columns, interner
            )
        with stages.stage("cluster"):
            return self._minhash_assign(
                compact_sets, count, kind="edge", pattern_ids=pattern_ids
            )

    def _elsh_assign(
        self,
        vectors: np.ndarray,
        num_labels: int,
        kind: str,
        pattern_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Adaptive ELSH clustering by full-signature grouping.

        With ``pattern_ids``, ``vectors`` is the compact per-pattern matrix:
        parameters, hashing and grouping all run on the handful of distinct
        patterns and the group ids expand by fancy indexing.  Because
        pattern ids are dense in first-appearance order, the expanded
        assignment carries the exact numbering of the full-matrix path.
        """
        params = choose_parameters(
            vectors,
            num_labels,
            kind=kind,
            sample_size=self.config.adaptive_sample_size,
            sample_fraction=self.config.adaptive_sample_fraction,
            seed=self.config.seed,
            bucket_length=self.config.bucket_length,
            num_tables=self.config.num_tables,
            alpha=self.config.alpha,
            pattern_ids=pattern_ids,
        )
        self.parameters[f"batch{self._batch_counter}/{kind}s"] = params.describe()
        lsh = EuclideanLSH(
            dimension=vectors.shape[1],
            bucket_length=params.bucket_length,
            num_tables=params.num_tables,
            seed=self.config.seed,
        )
        groups = cluster_by_full_signature(lsh.signatures(vectors))
        if pattern_ids is None:
            return groups
        return groups[pattern_ids]

    def _minhash_assign(
        self,
        feature_sets: list[set[int]],
        count: int,
        kind: str,
        pattern_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """MinHash clustering with banding.

        With ``pattern_ids``, ``feature_sets`` holds the distinct-pattern
        sets: signatures and banding run per pattern and the cluster ids
        expand by fancy indexing (identical rows band identically, so the
        partition and its first-appearance numbering are unchanged).
        """
        if self.config.num_tables is not None:
            num_hashes = self.config.num_tables
        else:
            # Same spirit as the ELSH heuristic: more hashes for larger
            # batches, inside the practical range.
            num_hashes = int(min(35, max(15, 5 * np.log10(max(count, 10)))))
        self.parameters[f"batch{self._batch_counter}/{kind}s"] = (
            f"minhash T={num_hashes} r={self.config.minhash_rows_per_band}"
        )
        lsh = MinHashLSH(num_hashes=num_hashes, seed=self.config.seed)
        groups = cluster_by_band_union(
            lsh.signatures(feature_sets), self.config.minhash_rows_per_band
        )
        if pattern_ids is None:
            return groups
        return groups[pattern_ids]
