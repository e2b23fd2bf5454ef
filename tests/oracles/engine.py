"""End-to-end reference engine: the element-at-a-time batch body.

:class:`ReferenceDiscovery` is an :class:`IncrementalDiscovery` whose one
batch-body method, ``_process_batch_from_columns``, runs the original
per-element pipeline instead of the distinct-pattern kernels.  Everything
around the body -- pattern memoization, the monotone merge, batch
reports, checkpoints -- is the production engine's, so a byte-identical
schema from both engines pins down exactly the kernelized stages:
corpus building, vectorization, MinHash signatures and banding, label
refinement and cluster summarization.

The body receives the batch as columns and rebuilds plain
:class:`~repro.graph.model.Node`/:class:`~repro.graph.model.Edge`
objects from them.  That is lossless for everything the pipeline reads
(ids, label sets, property *keys*, endpoints and endpoint label sets);
columnization itself is checked against raw elements by the per-kernel
properties in ``tests/test_hotpath_kernels.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.columns import EdgeColumns, NodeColumns
from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.incremental import IncrementalDiscovery
from repro.core.postprocess import (
    compute_cardinalities,
    infer_datatypes,
    infer_property_constraints,
)
from repro.core.type_extraction import (
    PSEUDO_PREFIX,
    extract_edge_types,
    extract_node_types,
)
from repro.core.vectorize import EdgeVectorizer, FeatureInterner, NodeVectorizer
from repro.embeddings.embedder import LabelEmbedder
from repro.graph.model import Edge, Node, canonical_label
from repro.graph.store import BaseGraphStore
from repro.lsh.minhash import MinHashLSH
from repro.schema.model import SchemaGraph
from repro.util.timing import StageTimer
from tests.oracles.kernels import (
    build_edge_clusters,
    build_node_clusters,
    cluster_by_band_union_reference,
    edge_feature_sets_reference,
    node_feature_sets_reference,
    refine_by_labels,
    signatures_reference,
    vectorize_edges_reference,
    vectorize_nodes_reference,
)


def elements_from_columns(
    ncols: NodeColumns, ecols: EdgeColumns
) -> tuple[list[Node], list[Edge], dict[int, frozenset[str]]]:
    """Plain nodes, edges and endpoint labels equivalent to the columns.

    Property values become ``None``: no discovery stage reads them.
    Every row of a key set gets that key set's first-seen key order,
    which cannot change feature interning (only a key set's first
    carrier interns new features).
    """
    node_labels = ncols.labels.sets
    node_keys = ncols.keys.orders
    nodes = [
        Node(node_id, node_labels[label_id], dict.fromkeys(node_keys[keyset]))
        for node_id, label_id, keyset in zip(
            ncols.ids.tolist(),
            ncols.label_ids.tolist(),
            ncols.keyset_ids.tolist(),
        )
    ]
    labels = ecols.labels.sets
    edge_keys = ecols.keys.orders
    edges: list[Edge] = []
    endpoint_labels: dict[int, frozenset[str]] = {}
    for edge_id, source, target, label_id, src_id, tgt_id, keyset in zip(
        ecols.ids.tolist(),
        ecols.source.tolist(),
        ecols.target.tolist(),
        ecols.label_ids.tolist(),
        ecols.src_label_ids.tolist(),
        ecols.tgt_label_ids.tolist(),
        ecols.keyset_ids.tolist(),
    ):
        edges.append(Edge(
            edge_id, source, target, labels[label_id],
            dict.fromkeys(edge_keys[keyset]),
        ))
        endpoint_labels[source] = labels[src_id]
        endpoint_labels[target] = labels[tgt_id]
    return nodes, edges, endpoint_labels


class ReferenceDiscovery(IncrementalDiscovery):
    """Incremental discovery with the element-at-a-time batch body.

    It refits Word2Vec on every batch, so its reports always say
    ``embedder_reused=False``.
    """

    def _process_batch_from_columns(
        self,
        ncols: NodeColumns,
        ecols: EdgeColumns,
        batch_schema: SchemaGraph,
        stages: StageTimer,
    ) -> tuple[list, list, bool]:
        nodes, edges, endpoint_labels = elements_from_columns(ncols, ecols)
        with stages.stage("embed"):
            embedder = self._fit_embedder(nodes, edges, endpoint_labels)
        # Nodes first: cluster, then extract node types so the edge stage
        # can reuse them.  Clusters are refined by label set: Definition
        # 3.2 makes distinct label sets distinct types.
        raw_nodes = self._cluster_nodes(nodes, embedder, stages)
        with stages.stage("cluster"):
            node_assignment = refine_by_labels(nodes, raw_nodes)
        with stages.stage("extract"):
            node_clusters = build_node_clusters(nodes, node_assignment)
            extract_node_types(
                batch_schema, node_clusters, self.config.jaccard_threshold
            )
        # Hybrid step: endpoints whose labels are missing are typed by the
        # node *type* they were extracted into.
        effective_labels = self._effective_endpoint_labels(
            batch_schema, nodes, endpoint_labels
        )
        raw_edges = self._cluster_edges(
            edges, effective_labels, embedder, stages
        )
        with stages.stage("cluster"):
            edge_assignment = refine_by_labels(edges, raw_edges)
        with stages.stage("extract"):
            edge_clusters = build_edge_clusters(
                edges, edge_assignment, effective_labels
            )
            extract_edge_types(
                batch_schema,
                edge_clusters,
                self.config.jaccard_threshold,
                self.config.endpoint_jaccard_threshold,
            )
        return node_clusters, edge_clusters, False

    def _effective_endpoint_labels(
        self,
        batch_schema: SchemaGraph,
        nodes: Sequence[Node],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> dict[int, frozenset[str]]:
        """Endpoint labels with type-derived labels for unlabeled nodes.

        An unlabeled node merged into a *labeled* node type adopts that
        type's labels; one in an ABSTRACT type gets the type's pseudo
        cluster token (registered on the type).  Endpoints outside the
        batch keep the labels the stream reported for them.
        """
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
        effective = dict(endpoint_labels)
        for node in nodes:
            if not node.labels and node.id in node_token:
                effective[node.id] = node_token[node.id]
        return effective

    def _fit_embedder(
        self,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> LabelEmbedder:
        """Train Word2Vec on the batch's deduplicated, sorted sentences."""
        empty: frozenset[str] = frozenset()
        sentences: set[tuple[str, ...]] = set()
        for edge in edges:
            sentence = tuple(
                token
                for token in (
                    canonical_label(endpoint_labels.get(edge.source, empty)),
                    canonical_label(edge.labels),
                    canonical_label(endpoint_labels.get(edge.target, empty)),
                )
                if token
            )
            if sentence:
                sentences.add(sentence)
        for node in nodes:
            token = canonical_label(node.labels)
            if token:
                sentences.add((token,))
        embedder = LabelEmbedder(self.config.word2vec)
        embedder.fit_tokens([list(s) for s in sorted(sentences)])
        return embedder

    def _cluster_nodes(
        self,
        nodes: Sequence[Node],
        embedder: LabelEmbedder,
        stages: StageTimer,
    ) -> np.ndarray:
        """Per-node vectors or feature sets, then LSH cluster ids."""
        if not nodes:
            return np.empty(0, dtype=np.int64)
        property_keys = sorted({k for n in nodes for k in n.properties})
        num_labels = len({label for n in nodes for label in n.labels})
        vectorizer = NodeVectorizer(
            property_keys, embedder, self.config.label_weight
        )
        if self.config.method is LSHMethod.ELSH:
            with stages.stage("vectorize"):
                vectors = vectorize_nodes_reference(vectorizer, nodes)
            with stages.stage("cluster"):
                return self._elsh_assign(vectors, num_labels, kind="node")
        with stages.stage("vectorize"):
            feature_sets = node_feature_sets_reference(
                vectorizer, nodes, FeatureInterner()
            )
        with stages.stage("cluster"):
            return self._minhash_assign(feature_sets, len(nodes), kind="node")

    def _cluster_edges(
        self,
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
        embedder: LabelEmbedder,
        stages: StageTimer,
    ) -> np.ndarray:
        """Per-edge vectors or feature sets, then LSH cluster ids."""
        if not edges:
            return np.empty(0, dtype=np.int64)
        property_keys = sorted({k for e in edges for k in e.properties})
        num_labels = len({label for e in edges for label in e.labels})
        vectorizer = EdgeVectorizer(
            property_keys, embedder, self.config.label_weight
        )
        if self.config.method is LSHMethod.ELSH:
            with stages.stage("vectorize"):
                vectors = vectorize_edges_reference(
                    vectorizer, edges, endpoint_labels
                )
            with stages.stage("cluster"):
                return self._elsh_assign(vectors, num_labels, kind="edge")
        with stages.stage("vectorize"):
            feature_sets = edge_feature_sets_reference(
                vectorizer, edges, endpoint_labels, FeatureInterner()
            )
        with stages.stage("cluster"):
            return self._minhash_assign(feature_sets, len(edges), kind="edge")

    def _minhash_assign(
        self,
        feature_sets: list[set[int]],
        count: int,
        kind: str,
        pattern_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """MinHash signatures and banding, one set and one row at a time."""
        if self.config.num_tables is not None:
            num_hashes = self.config.num_tables
        else:
            num_hashes = int(min(35, max(15, 5 * np.log10(max(count, 10)))))
        self.parameters[f"batch{self._batch_counter}/{kind}s"] = (
            f"minhash T={num_hashes} r={self.config.minhash_rows_per_band}"
        )
        lsh = MinHashLSH(num_hashes=num_hashes, seed=self.config.seed)
        return cluster_by_band_union_reference(
            signatures_reference(lsh, feature_sets),
            self.config.minhash_rows_per_band,
        )


def discover_reference(
    store: BaseGraphStore,
    config: PGHiveConfig | None = None,
    num_batches: int = 1,
) -> ReferenceDiscovery:
    """Sequential ``PGHive.discover_incremental`` on the reference engine.

    Streams the same batch partition without folding §4.4 stats, then,
    when ``config.post_processing`` is set, runs the store-backed
    reference passes over the members (constraints, datatypes,
    cardinalities; not ``exact_cardinality_bounds``).  Returns the
    engine (``.schema``, ``.reports``, ``.parameters``).
    """
    config = config or PGHiveConfig()
    engine = ReferenceDiscovery(
        dataclasses.replace(config, post_processing=False), name=store.name
    )
    for batch in store.batches(num_batches, seed=config.seed):
        engine.process_batch(batch.nodes, batch.edges, batch.endpoint_labels)
    if config.post_processing:
        infer_property_constraints(engine.schema)
        infer_datatypes(engine.schema, store, config)
        compute_cardinalities(engine.schema, store)
    return engine
