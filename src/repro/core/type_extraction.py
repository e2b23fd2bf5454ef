"""Type extraction and merging (paper Algorithm 2 / section 4.3).

The LSH assignment partitions a batch's nodes and edges into clusters.
Each cluster is summarized by its *representative pattern*: the union of
member label sets, the union of member property key sets, and (for edges)
the unions of endpoint label sets.  These candidate types are then refined:

1. labeled clusters with identical label sets merge directly (Lemma 1/2 --
   unions only, nothing is lost);
2. each unlabeled cluster merges into the labeled type with the highest
   property-set Jaccard similarity >= theta;
3. remaining unlabeled clusters merge among themselves by the same rule;
4. whatever is left becomes an ABSTRACT type;
5. edge clusters merge by label only, accumulating endpoint label sets.

The output is a batch-level :class:`~repro.schema.model.SchemaGraph` that
:func:`~repro.schema.merge.merge_schemas` folds into the running schema.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.core.columns import EdgeColumns, NodeColumns

from repro.graph.model import canonical_label
from repro.schema.merge import (
    EdgeTypeIndex,
    NodeTypeIndex,
    best_jaccard_edge_host,
    best_jaccard_host,
    find_labeled_edge_host,
    merge_edge_types,
    merge_node_types,
)
from repro.schema.model import EdgeType, NodeType, SchemaGraph
from repro.util.similarity import jaccard, jaccard_size_bound


# Prefix marking pseudo-labels derived from node cluster identity (used to
# type edge endpoints when real labels are missing); never serialized.
PSEUDO_PREFIX = "~"


@dataclass
class CandidateCluster:
    """Representative pattern of one LSH cluster (node or edge)."""

    kind: str  # "node" | "edge"
    labels: frozenset[str] = frozenset()
    property_keys: frozenset[str] = frozenset()
    members: list[int] = field(default_factory=list)
    property_counts: Counter[str] = field(default_factory=Counter)
    source_labels: frozenset[str] = frozenset()
    target_labels: frozenset[str] = frozenset()
    cluster_tokens: frozenset[str] = frozenset()
    source_tokens: frozenset[str] = frozenset()
    target_tokens: frozenset[str] = frozenset()

    @property
    def is_labeled(self) -> bool:
        """True when at least one member carried a label."""
        return bool(self.labels)

    @property
    def size(self) -> int:
        """Number of member instances."""
        return len(self.members)


def _split_pseudo(
    labels: frozenset[str],
) -> tuple[frozenset[str], frozenset[str]]:
    """Separate real labels from pseudo cluster tokens."""
    real = frozenset(l for l in labels if not l.startswith(PSEUDO_PREFIX))
    pseudo = labels - real
    return real, pseudo


def build_node_clusters_from_columns(
    columns: "NodeColumns",
    assignment: np.ndarray,
    pseudo_tag: str = "",
) -> list[CandidateCluster]:
    """Summarize an LSH node assignment into candidate clusters.

    Args:
        columns: The clustered nodes, columnized.
        assignment: Dense cluster ids aligned with the node rows.
        pseudo_tag: When non-empty, clusters whose members are all unlabeled
            receive the internal pseudo-label ``~{pseudo_tag}{cluster_id}``
            as their cluster token, which the edge stage uses to type
            endpoints structurally.

    Aggregates per distinct (cluster, label set) and (cluster, key set)
    pair instead of per element: members come from one stable argsort,
    label/key unions and property counts from ``np.unique`` over combined
    id arrays.  Output-equivalent to the element-at-a-time oracle in
    ``tests/oracles/kernels.py`` (same clusters, same member order, same
    counters).
    """
    n = len(columns)
    if n == 0:
        return []
    assignment = np.asarray(assignment, dtype=np.int64)
    order = np.argsort(assignment, kind="stable")
    sorted_assign = assignment[order]
    boundaries = np.flatnonzero(np.diff(sorted_assign)) + 1
    starts = np.concatenate(([0], boundaries))
    cluster_ids = sorted_assign[starts].tolist()
    member_groups = np.split(columns.ids[order], boundaries)

    label_sets = columns.labels.sets
    key_sets = columns.keys.sets
    key_orders = columns.keys.orders
    label_pairs = _distinct_pairs(
        assignment, columns.label_ids, max(len(label_sets), 1)
    )
    keyset_pairs, keyset_counts = _distinct_pairs(
        assignment, columns.keyset_ids, max(len(key_sets), 1),
        with_counts=True,
    )

    clusters: dict[int, CandidateCluster] = {
        cid: CandidateCluster(
            kind="node", members=group.tolist()
        )
        for cid, group in zip(cluster_ids, member_groups)
    }
    for cid, label_id in label_pairs:
        cluster = clusters[cid]
        cluster.labels = cluster.labels | label_sets[label_id]
    for (cid, keyset_id), count in zip(keyset_pairs, keyset_counts):
        cluster = clusters[cid]
        keys = key_sets[keyset_id]
        if not keys <= cluster.property_keys:
            cluster.property_keys = cluster.property_keys | keys
        counts = cluster.property_counts
        for key in key_orders[keyset_id]:
            counts[key] += count
    if pseudo_tag:
        for cluster_id, cluster in clusters.items():
            if not cluster.labels:
                cluster.cluster_tokens = frozenset(
                    {f"{PSEUDO_PREFIX}{pseudo_tag}{cluster_id}"}
                )
    return [clusters[cid] for cid in sorted(clusters)]


def build_edge_clusters_from_columns(
    columns: "EdgeColumns",
    assignment: np.ndarray,
) -> list[CandidateCluster]:
    """Summarize an LSH edge assignment into candidate clusters.

    Endpoint label sets may contain pseudo-labels (``~``-prefixed cluster
    tokens) for unlabeled endpoints; they are separated into the clusters'
    token sets so they inform endpoint compatibility without polluting the
    schema's label sets.  Aggregation runs per distinct (cluster, endpoint
    label set) pair, and the real/pseudo split once per distinct label set.
    """
    m = len(columns)
    if m == 0:
        return []
    assignment = np.asarray(assignment, dtype=np.int64)
    order = np.argsort(assignment, kind="stable")
    sorted_assign = assignment[order]
    boundaries = np.flatnonzero(np.diff(sorted_assign)) + 1
    starts = np.concatenate(([0], boundaries))
    cluster_ids = sorted_assign[starts].tolist()
    member_groups = np.split(columns.ids[order], boundaries)

    label_sets = columns.labels.sets
    key_sets = columns.keys.sets
    key_orders = columns.keys.orders
    num_labels = max(len(label_sets), 1)
    label_pairs = _distinct_pairs(assignment, columns.label_ids, num_labels)
    src_pairs = _distinct_pairs(assignment, columns.src_label_ids, num_labels)
    tgt_pairs = _distinct_pairs(assignment, columns.tgt_label_ids, num_labels)
    keyset_pairs, keyset_counts = _distinct_pairs(
        assignment, columns.keyset_ids, max(len(key_sets), 1),
        with_counts=True,
    )
    splits = [_split_pseudo(labels) for labels in label_sets]

    clusters: dict[int, CandidateCluster] = {
        cid: CandidateCluster(kind="edge", members=group.tolist())
        for cid, group in zip(cluster_ids, member_groups)
    }
    for cid, label_id in label_pairs:
        cluster = clusters[cid]
        labels = label_sets[label_id]
        if not labels <= cluster.labels:
            cluster.labels = cluster.labels | labels
    for (cid, keyset_id), count in zip(keyset_pairs, keyset_counts):
        cluster = clusters[cid]
        keys = key_sets[keyset_id]
        if not keys <= cluster.property_keys:
            cluster.property_keys = cluster.property_keys | keys
        counts = cluster.property_counts
        for key in key_orders[keyset_id]:
            counts[key] += count
    for cid, label_id in src_pairs:
        cluster = clusters[cid]
        real, pseudo = splits[label_id]
        if not real <= cluster.source_labels:
            cluster.source_labels = cluster.source_labels | real
        if not pseudo <= cluster.source_tokens:
            cluster.source_tokens = cluster.source_tokens | pseudo
    for cid, label_id in tgt_pairs:
        cluster = clusters[cid]
        real, pseudo = splits[label_id]
        if not real <= cluster.target_labels:
            cluster.target_labels = cluster.target_labels | real
        if not pseudo <= cluster.target_tokens:
            cluster.target_tokens = cluster.target_tokens | pseudo
    return [clusters[cid] for cid in sorted(clusters)]


def _distinct_pairs(
    assignment: np.ndarray,
    value_ids: np.ndarray,
    num_values: int,
    with_counts: bool = False,
) -> list[tuple[int, int]] | tuple[list[tuple[int, int]], list[int]]:
    """Distinct (cluster id, value id) pairs via one combined np.unique.

    Returns a list of ``(cluster_id, value_id)`` int tuples (and the
    occurrence count array when ``with_counts``).  Safe from overflow:
    cluster ids and value ids are both bounded by the batch size.
    """
    combined = assignment * np.int64(num_values) + value_ids
    if with_counts:
        uniq, counts = np.unique(combined, return_counts=True)
    else:
        uniq = np.unique(combined)
    pairs = [
        (int(c), int(v))
        for c, v in zip(uniq // num_values, uniq % num_values)
    ]
    if with_counts:
        return pairs, counts.tolist()
    return pairs


def extract_types(
    node_clusters: Sequence[CandidateCluster],
    edge_clusters: Sequence[CandidateCluster],
    theta: float = 0.9,
    schema_name: str = "batch",
    endpoint_theta: float = 0.5,
) -> SchemaGraph:
    """Algorithm 2: refine candidate clusters into a schema graph.

    Args:
        node_clusters / edge_clusters: LSH cluster summaries.
        theta: Jaccard threshold for merging unlabeled clusters.
        schema_name: Name of the produced schema graph.
        endpoint_theta: Endpoint-label Jaccard threshold below which two
            same-label edge clusters are treated as different edge types
            (Definition 3.3's endpoint pair).
    """
    schema = SchemaGraph(schema_name)
    extract_node_types(schema, node_clusters, theta)
    extract_edge_types(schema, edge_clusters, theta, endpoint_theta)
    resolve_edge_endpoints(schema)
    return schema


def extract_node_types(
    schema: SchemaGraph,
    clusters: Sequence[CandidateCluster],
    theta: float,
) -> None:
    """Node half of Algorithm 2."""
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
    # Unlabeled clusters: labeled hosts first, ...
    labeled_index = NodeTypeIndex(schema, labeled_only=True)
    still_unlabeled: list[NodeType] = []
    for node_type in unlabeled:
        host = best_jaccard_host(labeled_index, node_type, theta)
        if host is not None:
            merge_node_types(host, node_type)
            labeled_index.add(host)
        else:
            still_unlabeled.append(node_type)
    # ... then each other (pairwise, in first-appearance order; the
    # inverted key index keeps this near-linear when noisy unlabeled data
    # fragments into thousands of candidate clusters), ...
    merged_pool: list[NodeType] = []
    pool_by_key: dict[str, set[int]] = {}
    pool_empty: set[int] = set()
    for node_type in still_unlabeled:
        keys = node_type.property_keys
        if keys:
            candidate_ids: set[int] = set()
            for key in keys:
                candidate_ids |= pool_by_key.get(key, set())
        else:
            candidate_ids = set(pool_empty)
        host = None
        size = len(keys)
        for pool_id in sorted(candidate_ids):
            candidate = merged_pool[pool_id]
            if jaccard_size_bound(size, len(candidate.properties)) < theta:
                continue
            if jaccard(keys, candidate.property_keys) >= theta:
                host = candidate
                host_id = pool_id
                break
        if host is not None:
            merge_node_types(host, node_type)
            for key in host.property_keys:
                pool_by_key.setdefault(key, set()).add(host_id)
        else:
            pool_id = len(merged_pool)
            merged_pool.append(node_type)
            if keys:
                for key in keys:
                    pool_by_key.setdefault(key, set()).add(pool_id)
            else:
                pool_empty.add(pool_id)
    # ... and whatever remains becomes an ABSTRACT type.
    for node_type in merged_pool:
        node_type.name = schema.next_abstract_name("NODE")
        node_type.abstract = True
        schema.add_node_type(node_type)


def extract_edge_types(
    schema: SchemaGraph,
    clusters: Sequence[CandidateCluster],
    theta: float,
    endpoint_theta: float = 0.5,
) -> None:
    """Edge half: merge by label + endpoint compatibility (section 4.3)."""
    unlabeled: list[EdgeType] = []
    for cluster in clusters:
        edge_type = _edge_type_from_cluster(cluster)
        if cluster.is_labeled:
            existing = find_labeled_edge_host(
                schema, edge_type, endpoint_theta
            )
            if existing is not None:
                merge_edge_types(existing, edge_type)
            else:
                _add_edge_unique(schema, edge_type)
        else:
            unlabeled.append(edge_type)
    # Unlabeled edge clusters follow the same Jaccard fallback as nodes,
    # additionally requiring endpoint-label compatibility.  The inverted
    # index keeps the host search near-linear even when unlabeled noisy
    # data fragments into thousands of candidate clusters.
    index = EdgeTypeIndex(schema)
    for edge_type in unlabeled:
        host = best_jaccard_edge_host(
            index, edge_type, theta, endpoint_theta
        )
        if host is not None:
            merge_edge_types(host, edge_type)
            index.add(host)
        else:
            edge_type.name = schema.next_abstract_name("EDGE")
            edge_type.abstract = True
            schema.add_edge_type(edge_type)
            index.add(edge_type)


def _add_node_unique(schema: SchemaGraph, node_type: NodeType) -> None:
    """Insert a node type, suffixing on (rare) canonical-name collisions.

    Two distinct label sets can share a canonical token when a label
    literally contains the '&' join character; the types stay separate
    and the later one gets a disambiguating suffix.
    """
    name = node_type.name
    suffix = 1
    while name in schema.node_types:
        suffix += 1
        name = f"{node_type.name}@{suffix}"
    node_type.name = name
    schema.add_node_type(node_type)


def _add_edge_unique(schema: SchemaGraph, edge_type: EdgeType) -> None:
    """Insert an edge type, suffixing the name when the label is reused."""
    name = edge_type.name
    suffix = 1
    while name in schema.edge_types:
        suffix += 1
        name = f"{edge_type.name}@{suffix}"
    edge_type.name = name
    schema.add_edge_type(edge_type)


def resolve_edge_endpoints(schema: SchemaGraph) -> None:
    """Fill rho_s: map each edge type's endpoint labels to node type names.

    Labeled endpoints match node types by label intersection; unlabeled
    endpoints match ABSTRACT node types through the shared cluster tokens.
    A node type matches on a shared label or, failing that, on a shared
    token, so an endpoint resolves to the union of the node types indexed
    under its labels and under its tokens.  The two inverted indexes are
    built once per call, which makes resolution linear in the schema
    instead of (edge types x node types).
    """
    by_label: dict[str, set[str]] = {}
    by_token: dict[str, set[str]] = {}
    for node_type in schema.node_types.values():
        name = node_type.name
        for label in node_type.labels:
            by_label.setdefault(label, set()).add(name)
        for token in node_type.cluster_tokens:
            by_token.setdefault(token, set()).add(name)
    for edge_type in schema.edge_types.values():
        edge_type.source_types = _indexed_node_types(
            by_label, by_token,
            edge_type.source_labels, edge_type.source_tokens,
        )
        edge_type.target_types = _indexed_node_types(
            by_label, by_token,
            edge_type.target_labels, edge_type.target_tokens,
        )


def _indexed_node_types(
    by_label: dict[str, set[str]],
    by_token: dict[str, set[str]],
    labels: frozenset[str],
    tokens: set[str] | frozenset[str],
) -> set[str]:
    """Node type names indexed under any of the endpoint's labels/tokens."""
    matched: set[str] = set()
    for label in labels:
        matched.update(by_label.get(label, ()))
    for token in tokens:
        matched.update(by_token.get(token, ()))
    return matched


def _node_type_from_cluster(cluster: CandidateCluster) -> NodeType:
    """Candidate node type carrying the cluster's bookkeeping."""
    name = canonical_label(cluster.labels) or "__UNLABELED__"
    node_type = NodeType(
        name=name,
        labels=cluster.labels,
        abstract=not cluster.is_labeled,
        instance_count=cluster.size,
        property_counts=Counter(cluster.property_counts),
        members=list(cluster.members),
        cluster_tokens=set(cluster.cluster_tokens),
    )
    for key in cluster.property_keys:
        node_type.ensure_property(key)
    return node_type


def _edge_type_from_cluster(cluster: CandidateCluster) -> EdgeType:
    """Candidate edge type carrying the cluster's bookkeeping."""
    name = canonical_label(cluster.labels) or "__UNLABELED__"
    edge_type = EdgeType(
        name=name,
        labels=cluster.labels,
        abstract=not cluster.is_labeled,
        source_labels=cluster.source_labels,
        target_labels=cluster.target_labels,
        instance_count=cluster.size,
        property_counts=Counter(cluster.property_counts),
        members=list(cluster.members),
        source_tokens=set(cluster.source_tokens),
        target_tokens=set(cluster.target_tokens),
    )
    for key in cluster.property_keys:
        edge_type.ensure_property(key)
    return edge_type
