"""Element-at-a-time oracles for the hot-path kernels.

Each function here is the original per-element (or per-row, per-set)
loop that a batch kernel in ``src/repro`` replaced.  They are kept only
as executable specifications: ``tests/test_hotpath_kernels.py`` and
``tests/test_lsh.py`` property-test every kernel against its oracle
byte for byte, and :mod:`tests.oracles.engine` wires them into the
end-to-end reference engine.

Oracle -> production kernel:

* :func:`vectorize_nodes_reference` / :func:`vectorize_edges_reference`
  -> ``NodeVectorizer`` / ``EdgeVectorizer.vectorize_patterns``;
* :func:`node_feature_sets_reference` / :func:`edge_feature_sets_reference`
  -> ``feature_sets_patterns``;
* :func:`signatures_reference` -> ``MinHashLSH.signatures``;
* :func:`cluster_by_band_union_reference` -> ``cluster_by_band_union``;
* :func:`refine_by_labels` -> ``core.incremental._refine_by_label_ids``;
* :func:`build_node_clusters` / :func:`build_edge_clusters`
  -> ``build_node_clusters_from_columns`` / ``build_edge_clusters_from_columns``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.type_extraction import (
    PSEUDO_PREFIX,
    CandidateCluster,
    _split_pseudo,
)
from repro.core.vectorize import EdgeVectorizer, FeatureInterner, NodeVectorizer
from repro.graph.model import Edge, Node
from repro.lsh.buckets import _renumber
from repro.lsh.minhash import MinHashLSH
from repro.lsh.unionfind import UnionFind


def vectorize_nodes_reference(
    vectorizer: NodeVectorizer, nodes: Sequence[Node]
) -> np.ndarray:
    """(n, d+K) hybrid feature matrix, one node at a time."""
    d = vectorizer.embedder.dimension
    out = np.zeros((len(nodes), vectorizer.dimension))
    cache = vectorizer._cache
    key_index = vectorizer._key_index
    for row, node in enumerate(nodes):
        out[row, :d] = cache.for_labels(node.labels)
        for key in node.properties:
            index = key_index.get(key)
            if index is not None:
                out[row, d + index] = 1.0
    return out


def vectorize_edges_reference(
    vectorizer: EdgeVectorizer,
    edges: Sequence[Edge],
    endpoint_labels: dict[int, frozenset[str]],
) -> np.ndarray:
    """(m, 3d+Q) hybrid feature matrix, one edge at a time."""
    d = vectorizer.embedder.dimension
    out = np.zeros((len(edges), vectorizer.dimension))
    cache = vectorizer._cache
    empty: frozenset[str] = frozenset()
    key_index = vectorizer._key_index
    for row, edge in enumerate(edges):
        out[row, :d] = cache.for_labels(edge.labels)
        out[row, d:2 * d] = cache.for_labels(
            endpoint_labels.get(edge.source, empty)
        )
        out[row, 2 * d:3 * d] = cache.for_labels(
            endpoint_labels.get(edge.target, empty)
        )
        for key in edge.properties:
            index = key_index.get(key)
            if index is not None:
                out[row, 3 * d + index] = 1.0
    return out


def node_feature_sets_reference(
    vectorizer: NodeVectorizer,
    nodes: Sequence[Node],
    interner: FeatureInterner,
) -> list[set[int]]:
    """MinHash feature sets, interning features in element order."""
    return [vectorizer._node_feature_set(node, interner) for node in nodes]


def edge_feature_sets_reference(
    vectorizer: EdgeVectorizer,
    edges: Sequence[Edge],
    endpoint_labels: dict[int, frozenset[str]],
    interner: FeatureInterner,
) -> list[set[int]]:
    """MinHash edge feature sets, interning features in element order."""
    empty: frozenset[str] = frozenset()
    return [
        vectorizer._edge_feature_set(
            edge,
            endpoint_labels.get(edge.source, empty),
            endpoint_labels.get(edge.target, empty),
            interner,
        )
        for edge in edges
    ]


def signatures_reference(
    lsh: MinHashLSH, feature_sets: Sequence[Iterable[int]]
) -> np.ndarray:
    """(n, T) MinHash signature matrix, one set at a time."""
    if not feature_sets:
        return np.empty((0, lsh.num_hashes), dtype=np.int64)
    return np.vstack([lsh.signature(s) for s in feature_sets])


def cluster_by_band_union_reference(
    signatures: np.ndarray, rows_per_band: int
) -> np.ndarray:
    """LSH banding with a union-find, one row and one band at a time."""
    if rows_per_band < 1:
        raise ValueError("rows_per_band must be >= 1")
    signatures = np.atleast_2d(signatures)
    n, width = signatures.shape
    num_bands = max(1, width // rows_per_band)
    uf = UnionFind(n)
    for band in range(num_bands):
        start = band * rows_per_band
        stop = start + rows_per_band if band < num_bands - 1 else width
        first_in_bucket: dict[tuple[int, ...], int] = {}
        for row_index in range(n):
            key = tuple(int(v) for v in signatures[row_index, start:stop])
            anchor = first_in_bucket.setdefault(key, row_index)
            if anchor != row_index:
                uf.union(anchor, row_index)
    return _renumber(uf, n)


def refine_by_labels(
    elements: Sequence[Node] | Sequence[Edge], assignment: np.ndarray
) -> np.ndarray:
    """Split each LSH cluster by label set (Definitions 3.2/3.3).

    Keyed on the label *frozenset* (not the concatenated token), so a
    literal ``"A&B"`` label never aliases the ``{A, B}`` label set.
    Unlabeled elements keep their structural cluster.
    """
    if assignment.size == 0:
        return assignment
    refined: dict[tuple[int, frozenset[str]], int] = {}
    out = np.empty_like(assignment)
    for index, (element, cluster_id) in enumerate(
        zip(elements, assignment.tolist())
    ):
        key = (int(cluster_id), element.labels)
        out[index] = refined.setdefault(key, len(refined))
    return out


def build_node_clusters(
    nodes: Sequence[Node],
    assignment: np.ndarray,
    pseudo_tag: str = "",
) -> list[CandidateCluster]:
    """Summarize an LSH node assignment into candidate clusters.

    With a non-empty ``pseudo_tag``, clusters whose members are all
    unlabeled receive the pseudo-label ``~{pseudo_tag}{cluster_id}`` as
    their cluster token.
    """
    clusters: dict[int, CandidateCluster] = {}
    for node, cluster_id in zip(nodes, assignment.tolist()):
        cluster = clusters.get(int(cluster_id))
        if cluster is None:
            cluster = CandidateCluster(kind="node")
            clusters[int(cluster_id)] = cluster
        cluster.labels = cluster.labels | node.labels
        cluster.property_keys = cluster.property_keys | node.property_keys
        cluster.members.append(node.id)
        cluster.property_counts.update(node.properties.keys())
    if pseudo_tag:
        for cluster_id, cluster in clusters.items():
            if not cluster.labels:
                cluster.cluster_tokens = frozenset(
                    {f"{PSEUDO_PREFIX}{pseudo_tag}{cluster_id}"}
                )
    return [clusters[cid] for cid in sorted(clusters)]


def build_edge_clusters(
    edges: Sequence[Edge],
    assignment: np.ndarray,
    endpoint_labels: dict[int, frozenset[str]],
) -> list[CandidateCluster]:
    """Summarize an LSH edge assignment into candidate clusters.

    Pseudo-labels (``~``-prefixed cluster tokens) among the endpoint
    labels go to the clusters' token sets, not their label sets.
    """
    clusters: dict[int, CandidateCluster] = {}
    empty: frozenset[str] = frozenset()
    for edge, cluster_id in zip(edges, assignment.tolist()):
        cluster = clusters.get(int(cluster_id))
        if cluster is None:
            cluster = CandidateCluster(kind="edge")
            clusters[int(cluster_id)] = cluster
        cluster.labels = cluster.labels | edge.labels
        cluster.property_keys = cluster.property_keys | edge.property_keys
        cluster.members.append(edge.id)
        cluster.property_counts.update(edge.properties.keys())
        src_labels, src_tokens = _split_pseudo(
            endpoint_labels.get(edge.source, empty)
        )
        tgt_labels, tgt_tokens = _split_pseudo(
            endpoint_labels.get(edge.target, empty)
        )
        cluster.source_labels = cluster.source_labels | src_labels
        cluster.target_labels = cluster.target_labels | tgt_labels
        cluster.source_tokens = cluster.source_tokens | src_tokens
        cluster.target_tokens = cluster.target_tokens | tgt_tokens
    return [clusters[cid] for cid in sorted(clusters)]
