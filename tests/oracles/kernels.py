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
  -> ``build_node_clusters_from_columns`` / ``build_edge_clusters_from_columns``;
* :func:`train_word2vec_reference` -> ``Word2Vec.train`` (one
  ``rng.choice`` per SGD step instead of one per epoch);
* :func:`resolve_edge_endpoints_reference` -> ``resolve_edge_endpoints``
  (a scan over every node type per endpoint instead of inverted indexes);
* :func:`best_jaccard_host_reference` /
  :func:`best_jaccard_edge_host_reference` -> ``best_jaccard_host`` /
  ``best_jaccard_edge_host`` and
  :func:`extract_node_types_reference` -> ``extract_node_types`` (every
  candidate scored, without the key-set size bound);
* :func:`node_columns_reference` / :func:`edge_columns_reference` ->
  ``node_columns`` / ``edge_columns`` (one ``LabelSpace``/``KeySpace``
  intern per row instead of the shared row interning);
* :func:`estimate_distance_scale_reference` ->
  ``core.adaptive.estimate_distance_scale`` (the full pairwise matrix
  instead of its strict upper triangle).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.adaptive import _MIN_BUCKET
from repro.core.columns import EdgeColumns, KeySpace, LabelSpace, NodeColumns

from repro.core.type_extraction import (
    PSEUDO_PREFIX,
    CandidateCluster,
    _add_node_unique,
    _node_type_from_cluster,
    _split_pseudo,
)
from repro.core.vectorize import EdgeVectorizer, FeatureInterner, NodeVectorizer
from repro.embeddings.word2vec import Word2Vec, _sigmoid
from repro.graph.model import Edge, Node
from repro.lsh.buckets import _renumber
from repro.lsh.minhash import MinHashLSH
from repro.lsh.unionfind import UnionFind
from repro.schema.merge import (
    EdgeTypeIndex,
    NodeTypeIndex,
    endpoints_compatible,
    merge_node_types,
)
from repro.schema.model import EdgeType, NodeType, SchemaGraph
from repro.util.similarity import jaccard


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


def train_word2vec_reference(
    model: Word2Vec,
    sentences: list[list[int]],
    counts: list[int] | None = None,
) -> None:
    """Skip-gram SGD drawing each step's negatives with its own ``choice``."""
    if model.vocab_size == 0:
        return
    pairs = model._make_pairs(sentences)
    if pairs.size == 0:
        return
    if counts is None:
        noise = np.full(model.vocab_size, 1.0 / model.vocab_size)
    else:
        freq = np.maximum(np.asarray(counts, dtype=np.float64), 1.0) ** 0.75
        noise = freq / freq.sum()
    cfg = model.config
    rng = np.random.default_rng(cfg.seed + 1)
    total_steps = cfg.epochs * len(pairs)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        for idx in order:
            center, context = pairs[idx]
            lr = cfg.learning_rate * max(
                0.05, 1.0 - step / max(1, total_steps)
            )
            negatives = rng.choice(
                model.vocab_size, size=cfg.negatives, p=noise
            )
            _sgd_step_reference(model, center, context, negatives, lr)
            step += 1


def _sgd_step_reference(
    model: Word2Vec,
    center: int,
    context: int,
    negatives: np.ndarray,
    lr: float,
) -> None:
    """One negative-sampling SGD update on numpy scalars."""
    v = model._center[center]
    u_pos = model._context[context]
    score = _sigmoid(u_pos @ v)
    grad_v = (score - 1.0) * u_pos
    model._context[context] = u_pos - lr * (score - 1.0) * v
    for neg in negatives:
        if neg == context:
            continue
        u_neg = model._context[neg]
        score_neg = _sigmoid(u_neg @ v)
        grad_v = grad_v + score_neg * u_neg
        model._context[neg] = u_neg - lr * score_neg * v
    model._center[center] = v - lr * grad_v


def resolve_edge_endpoints_reference(schema: SchemaGraph) -> None:
    """Endpoint resolution scanning every node type for every endpoint."""
    for edge_type in schema.edge_types.values():
        edge_type.source_types = _matching_node_types(
            schema, edge_type.source_labels, edge_type.source_tokens
        )
        edge_type.target_types = _matching_node_types(
            schema, edge_type.target_labels, edge_type.target_tokens
        )


def _matching_node_types(
    schema: SchemaGraph,
    labels: frozenset[str],
    tokens: set[str] | frozenset[str] = frozenset(),
) -> set[str]:
    """Node types whose labels or cluster tokens match the endpoint."""
    if not labels and not tokens:
        return set()
    matched = set()
    for node_type in schema.node_types.values():
        if node_type.labels & labels:
            matched.add(node_type.name)
        elif tokens and node_type.cluster_tokens & set(tokens):
            matched.add(node_type.name)
    return matched


def best_jaccard_host_reference(
    index: NodeTypeIndex, candidate: NodeType, threshold: float
) -> NodeType | None:
    """Highest-Jaccard node type at or above the threshold, all scored."""
    best: NodeType | None = None
    best_score = threshold
    candidate_keys = candidate.property_keys
    for node_type in index.candidates(candidate):
        score = jaccard(candidate_keys, node_type.property_keys)
        if score >= best_score:
            best, best_score = node_type, score
    return best


def best_jaccard_edge_host_reference(
    index: EdgeTypeIndex,
    candidate: EdgeType,
    threshold: float,
    endpoint_threshold: float = 0.5,
) -> EdgeType | None:
    """Closest endpoint-compatible edge-type host, all candidates scored."""
    best: EdgeType | None = None
    best_score = threshold
    candidate_keys = candidate.property_keys
    for edge_type in index.candidates(candidate):
        score = jaccard(candidate_keys, edge_type.property_keys)
        if score >= best_score and endpoints_compatible(
            edge_type, candidate, endpoint_threshold
        ):
            best, best_score = edge_type, score
    return best


def extract_node_types_reference(
    schema: SchemaGraph,
    clusters: Sequence[CandidateCluster],
    theta: float,
) -> None:
    """Node half of Algorithm 2 with unpruned host searches."""
    unlabeled: list[NodeType] = []
    for cluster in clusters:
        node_type = _node_type_from_cluster(cluster)
        if cluster.is_labeled:
            existing = schema.node_type_for_labels(node_type.labels)
            if existing is not None:
                merge_node_types(existing, node_type)
            else:
                _add_node_unique(schema, node_type)
        else:
            unlabeled.append(node_type)
    labeled_index = NodeTypeIndex(schema, labeled_only=True)
    still_unlabeled: list[NodeType] = []
    for node_type in unlabeled:
        host = best_jaccard_host_reference(labeled_index, node_type, theta)
        if host is not None:
            merge_node_types(host, node_type)
            labeled_index.add(host)
        else:
            still_unlabeled.append(node_type)
    # First fit among the remaining unlabeled types, in appearance order.
    merged_pool: list[NodeType] = []
    for node_type in still_unlabeled:
        keys = node_type.property_keys
        for candidate in merged_pool:
            if jaccard(keys, candidate.property_keys) >= theta:
                merge_node_types(candidate, node_type)
                break
        else:
            merged_pool.append(node_type)
    for node_type in merged_pool:
        node_type.name = schema.next_abstract_name("NODE")
        node_type.abstract = True
        schema.add_node_type(node_type)


def node_columns_reference(nodes: Sequence[Node]) -> NodeColumns:
    """Columnize a node batch row by row."""
    n = len(nodes)
    ids = np.empty(n, dtype=np.int64)
    label_ids = np.empty(n, dtype=np.int64)
    keyset_ids = np.empty(n, dtype=np.int64)
    labels = LabelSpace()
    keys = KeySpace()
    for i, node in enumerate(nodes):
        ids[i] = node.id
        label_ids[i] = labels.intern(node.labels)
        keyset_ids[i] = keys.intern(node.properties)
    return NodeColumns(ids, label_ids, keyset_ids, labels, keys)


def edge_columns_reference(
    edges: Sequence[Edge],
    endpoint_labels: Mapping[int, frozenset[str]],
) -> EdgeColumns:
    """Columnize an edge batch (with endpoint labels) row by row."""
    m = len(edges)
    ids = np.empty(m, dtype=np.int64)
    source = np.empty(m, dtype=np.int64)
    target = np.empty(m, dtype=np.int64)
    label_ids = np.empty(m, dtype=np.int64)
    src_label_ids = np.empty(m, dtype=np.int64)
    tgt_label_ids = np.empty(m, dtype=np.int64)
    keyset_ids = np.empty(m, dtype=np.int64)
    labels = LabelSpace()
    keys = KeySpace()
    empty: frozenset[str] = frozenset()
    for i, edge in enumerate(edges):
        ids[i] = edge.id
        source[i] = edge.source
        target[i] = edge.target
        label_ids[i] = labels.intern(edge.labels)
        src_label_ids[i] = labels.intern(
            endpoint_labels.get(edge.source, empty)
        )
        tgt_label_ids[i] = labels.intern(
            endpoint_labels.get(edge.target, empty)
        )
        keyset_ids[i] = keys.intern(edge.properties)
    return EdgeColumns(
        ids, source, target, label_ids, src_label_ids, tgt_label_ids,
        keyset_ids, labels, keys,
    )


def estimate_distance_scale_reference(
    vectors: np.ndarray,
    sample_size: int,
    fraction: float,
    seed: int = 0,
    pattern_ids: np.ndarray | None = None,
) -> tuple[float, int]:
    """Mean pairwise distance over the full ``d2`` matrix of the sample."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if pattern_ids is None:
        n = vectors.shape[0]
    else:
        pattern_ids = np.asarray(pattern_ids, dtype=np.int64)
        n = int(pattern_ids.size)
    if n == 0:
        return 1.0, 0
    target = min(n, max(int(sample_size), int(math.ceil(fraction * n))))
    rng = np.random.default_rng(seed)
    if target < n:
        rows = rng.choice(n, size=target, replace=False)
        sample = (
            vectors[rows] if pattern_ids is None else vectors[pattern_ids[rows]]
        )
    else:
        sample = vectors if pattern_ids is None else vectors[pattern_ids]
    if sample.shape[0] < 2:
        return 1.0, sample.shape[0]
    sq_norms = np.square(sample).sum(axis=1)
    gram = sample @ sample.T
    d2 = np.maximum(sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram, 0.0)
    upper = np.triu_indices(sample.shape[0], k=1)
    mu = float(np.sqrt(d2[upper]).mean())
    return max(mu, _MIN_BUCKET), sample.shape[0]
