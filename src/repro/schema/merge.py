"""Monotone schema merge rules (paper section 4.6, Lemmas 1 and 2).

Merging two types takes the union of labels, property keys, endpoint label
sets and membership -- nothing is ever dropped, so the sequence of schemas
produced by incremental batches forms a monotone chain (S_i is always
subsumed by S_{i+1}).

``merge_schemas`` applies the paper's rules between two whole schemas:

1. node types with identical non-empty label sets merge;
2. unlabeled node types merge into a labeled type when the Jaccard
   similarity of their property key sets reaches the threshold;
3. remaining unlabeled types merge among themselves by the same criterion;
4. whatever is left joins the result as ABSTRACT types;
5. edge types merge by label when their endpoint label sets are compatible
   (Definition 3.3 makes the endpoint pair part of the edge type, so LDBC's
   LIKES over posts and LIKES over comments stay distinct types), unioning
   endpoint information.
"""

from __future__ import annotations

from repro.schema.model import EdgeType, NodeType, SchemaGraph
from repro.util.similarity import jaccard, jaccard_size_bound


def merge_node_types(into: NodeType, other: NodeType) -> NodeType:
    """Merge ``other`` into ``into`` (mutates and returns ``into``).

    Union of labels and properties; datatype/status constraints are
    reconciled conservatively: an UNKNOWN spec adopts the other side, while
    conflicting concrete datatypes generalize to STRING downstream (the
    datatype pass recomputes them from values anyway).
    """
    into.labels = into.labels | other.labels
    into.abstract = into.abstract and other.abstract
    _merge_property_specs(into, other)
    into.instance_count += other.instance_count
    into.property_counts.update(other.property_counts)
    into.members.extend(other.members)
    into.cluster_tokens |= other.cluster_tokens
    _merge_stats(into, other)
    return into


def merge_edge_types(into: EdgeType, other: EdgeType) -> EdgeType:
    """Merge ``other`` into ``into`` (mutates and returns ``into``)."""
    into.labels = into.labels | other.labels
    into.abstract = into.abstract and other.abstract
    _merge_property_specs(into, other)
    into.source_labels = into.source_labels | other.source_labels
    into.target_labels = into.target_labels | other.target_labels
    into.source_types |= other.source_types
    into.target_types |= other.target_types
    into.source_tokens |= other.source_tokens
    into.target_tokens |= other.target_tokens
    into.max_out = max(into.max_out, other.max_out)
    into.max_in = max(into.max_in, other.max_in)
    into.instance_count += other.instance_count
    into.property_counts.update(other.property_counts)
    into.members.extend(other.members)
    _merge_stats(into, other)
    return into


def _merge_stats(
    into: NodeType | EdgeType, other: NodeType | EdgeType
) -> None:
    """Fold ``other``'s partial post-processing stats into ``into``.

    With post-processing on, every batch schema's types carry
    :class:`~repro.core.postprocess.TypeStats`; folding them here means
    the post-processing reduction rides the same merges as the schemas
    themselves, in every engine's batch-order fold.  Every constituent
    fold (datatype lattice join, count sums, set unions, canonical
    bounds) is associative and commutative.  Runs without
    post-processing carry no stats and skip this entirely.
    """
    if other.stats is None:
        return
    if into.stats is None:
        into.stats = other.stats
    else:
        into.stats.merge(other.stats)


def endpoints_compatible(
    a: EdgeType, b: EdgeType, endpoint_threshold: float = 0.5
) -> bool:
    """Whether two same-label edge types describe the same relationship.

    The paper's edge types carry an endpoint pair (Definition 3.3), so two
    clusters with the same label still belong to different types when they
    connect clearly different node types (LDBC's LIKES over posts versus
    comments).  Endpoint label sets are compared with a Jaccard threshold;
    an empty side (unlabeled endpoints) is always compatible.
    """
    a_src = a.source_labels | frozenset(a.source_tokens)
    b_src = b.source_labels | frozenset(b.source_tokens)
    a_tgt = a.target_labels | frozenset(a.target_tokens)
    b_tgt = b.target_labels | frozenset(b.target_tokens)
    source_ok = (
        not a_src or not b_src
        or jaccard(a_src, b_src) >= endpoint_threshold
    )
    target_ok = (
        not a_tgt or not b_tgt
        or jaccard(a_tgt, b_tgt) >= endpoint_threshold
    )
    return source_ok and target_ok


def find_labeled_edge_host(
    base: SchemaGraph, candidate: EdgeType, endpoint_threshold: float = 0.5
) -> EdgeType | None:
    """Same-label, endpoint-compatible host for a labeled edge type."""
    for edge_type in base.edge_types_for_labels(candidate.labels):
        if endpoints_compatible(edge_type, candidate, endpoint_threshold):
            return edge_type
    return None


class NodeTypeIndex:
    """Inverted index accelerating unlabeled-node host lookups.

    A candidate can only merge into a host when their property key sets
    intersect (or are both empty), since the Jaccard threshold is positive.
    Monotone merging means indexed entries never go stale.
    """

    def __init__(self, schema: SchemaGraph, labeled_only: bool) -> None:
        self._schema = schema
        self._labeled_only = labeled_only
        self._by_key: dict[str, set[str]] = {}
        self._empty_key: set[str] = set()
        for node_type in schema.node_types.values():
            self.add(node_type)

    def add(self, node_type: NodeType) -> None:
        """(Re-)index a node type after insertion or merge."""
        if self._labeled_only and not node_type.labels:
            return
        if not self._labeled_only and node_type.labels:
            return
        name = node_type.name
        keys = node_type.property_keys
        if keys:
            for key in keys:
                self._by_key.setdefault(key, set()).add(name)
        else:
            self._empty_key.add(name)

    def candidates(self, candidate: NodeType) -> list[NodeType]:
        """Node types that could possibly host ``candidate``."""
        keys = candidate.property_keys
        if keys:
            names: set[str] = set()
            for key in keys:
                names |= self._by_key.get(key, set())
        else:
            names = set(self._empty_key)
        # Sorted: hosts with tied Jaccard scores resolve by iteration
        # order, which must not depend on the string hash seed.
        node_types = self._schema.node_types
        return [
            node_types[name] for name in sorted(names) if name in node_types
        ]


class EdgeTypeIndex:
    """Inverted index accelerating unlabeled-edge host lookups.

    A candidate can only merge into a host when (a) their property key sets
    intersect (or are both empty -- Jaccard >= theta > 0 requires overlap)
    and (b) each nonempty endpoint side shares at least one label/token
    (endpoint Jaccard >= threshold > 0 requires overlap).  The index maps
    every key, source element and target element to the edge types carrying
    it, so a lookup inspects only plausible hosts instead of the whole
    schema.  Because type merging is monotone (sets only grow), indexed
    entries never go stale; merges simply add entries.
    """

    def __init__(self, schema: SchemaGraph) -> None:
        self._schema = schema
        self._by_key: dict[str, set[str]] = {}
        self._empty_key: set[str] = set()
        self._by_src: dict[str, set[str]] = {}
        self._empty_src: set[str] = set()
        self._by_tgt: dict[str, set[str]] = {}
        self._empty_tgt: set[str] = set()
        self._all: set[str] = set()
        for edge_type in schema.edge_types.values():
            self.add(edge_type)

    def add(self, edge_type: EdgeType) -> None:
        """(Re-)index an edge type after insertion or merge."""
        name = edge_type.name
        self._all.add(name)
        keys = edge_type.property_keys
        if keys:
            for key in keys:
                self._by_key.setdefault(key, set()).add(name)
        else:
            self._empty_key.add(name)
        src = edge_type.source_labels | frozenset(edge_type.source_tokens)
        if src:
            for element in src:
                self._by_src.setdefault(element, set()).add(name)
        else:
            self._empty_src.add(name)
        tgt = edge_type.target_labels | frozenset(edge_type.target_tokens)
        if tgt:
            for element in tgt:
                self._by_tgt.setdefault(element, set()).add(name)
        else:
            self._empty_tgt.add(name)

    def candidates(self, candidate: EdgeType) -> list[EdgeType]:
        """Edge types that could possibly host ``candidate``."""
        keys = candidate.property_keys
        if keys:
            by_key: set[str] = set()
            for key in keys:
                by_key |= self._by_key.get(key, set())
        else:
            by_key = set(self._empty_key)
        src = candidate.source_labels | frozenset(candidate.source_tokens)
        if src:
            by_src = set(self._empty_src)
            for element in src:
                by_src |= self._by_src.get(element, set())
        else:
            by_src = self._all
        tgt = candidate.target_labels | frozenset(candidate.target_tokens)
        if tgt:
            by_tgt = set(self._empty_tgt)
            for element in tgt:
                by_tgt |= self._by_tgt.get(element, set())
        else:
            by_tgt = self._all
        names = by_key & by_src & by_tgt
        edge_types = self._schema.edge_types
        return [
            edge_types[name] for name in sorted(names) if name in edge_types
        ]


def merge_schemas(
    base: SchemaGraph,
    incoming: SchemaGraph,
    jaccard_threshold: float = 0.9,
    endpoint_threshold: float = 0.5,
) -> SchemaGraph:
    """Merge ``incoming`` into ``base`` following section 4.6 (mutates base).

    Returns ``base`` for chaining.  The result is the least general schema
    covering both inputs under the union semantics of Lemmas 1-2.
    """
    # --- node types: labeled first --------------------------------------
    pending_unlabeled: list[NodeType] = []
    for node_type in incoming.node_types.values():
        if node_type.labels:
            existing = base.node_type_for_labels(node_type.labels)
            if existing is not None:
                merge_node_types(existing, node_type)
            else:
                _add_with_unique_name(base, node_type)
        else:
            pending_unlabeled.append(node_type)
    # --- unlabeled node types: labeled hosts, then each other ------------
    labeled_index = NodeTypeIndex(base, labeled_only=True)
    unlabeled_index = NodeTypeIndex(base, labeled_only=False)
    for node_type in pending_unlabeled:
        host = best_jaccard_host(
            labeled_index, node_type, jaccard_threshold
        )
        if host is None:
            host = best_jaccard_host(
                unlabeled_index, node_type, jaccard_threshold
            )
        if host is not None:
            merge_node_types(host, node_type)
            labeled_index.add(host)
            unlabeled_index.add(host)
        else:
            node_type.name = base.next_abstract_name("NODE")
            node_type.abstract = True
            base.add_node_type(node_type)
            unlabeled_index.add(node_type)
    # --- edge types: merge by label + endpoint compatibility -------------
    index = EdgeTypeIndex(base)
    for edge_type in incoming.edge_types.values():
        if edge_type.labels:
            existing = find_labeled_edge_host(
                base, edge_type, endpoint_threshold
            )
        else:
            existing = best_jaccard_edge_host(
                index, edge_type, jaccard_threshold, endpoint_threshold
            )
        if existing is not None:
            merge_edge_types(existing, edge_type)
            index.add(existing)
        else:
            if not edge_type.labels:
                edge_type.name = base.next_abstract_name("EDGE")
                edge_type.abstract = True
            _add_edge_with_unique_name(base, edge_type)
            index.add(edge_type)
    return base


def _merge_property_specs(into: NodeType | EdgeType, other: NodeType | EdgeType) -> None:
    """Union property specs, keeping the more specific constraint data."""
    from repro.schema.model import DataType

    for key, spec in other.properties.items():
        mine = into.ensure_property(key)
        if mine.datatype is DataType.UNKNOWN:
            mine.datatype = spec.datatype
        elif (
            spec.datatype is not DataType.UNKNOWN
            and spec.datatype is not mine.datatype
        ):
            mine.datatype = DataType.STRING  # conflicting evidence: generalize


def best_jaccard_host(
    index: NodeTypeIndex,
    candidate: NodeType,
    threshold: float,
) -> NodeType | None:
    """Highest-Jaccard node type at or above the threshold, or None.

    Candidates whose key-set sizes alone bound the Jaccard score below
    the threshold (:func:`~repro.util.similarity.jaccard_size_bound`)
    are skipped unscored; they could never win, so the choice and its
    tie-break are those of scoring every candidate.
    """
    best: NodeType | None = None
    best_score = threshold
    candidate_keys = candidate.property_keys
    size = len(candidate_keys)
    for node_type in index.candidates(candidate):
        if jaccard_size_bound(size, len(node_type.properties)) < threshold:
            continue
        score = jaccard(candidate_keys, node_type.property_keys)
        if score >= best_score:
            best, best_score = node_type, score
    return best


def best_jaccard_edge_host(
    index: EdgeTypeIndex,
    candidate: EdgeType,
    threshold: float,
    endpoint_threshold: float = 0.5,
) -> EdgeType | None:
    """Closest edge-type host for an unlabeled edge type.

    Property-set Jaccard must reach the threshold, and the endpoint label
    sets (or cluster tokens) must be compatible -- this is what keeps
    structurally bare but differently-wired relationship types apart.
    Candidates are pruned by key-set size as in :func:`best_jaccard_host`.
    """
    best: EdgeType | None = None
    best_score = threshold
    candidate_keys = candidate.property_keys
    size = len(candidate_keys)
    for edge_type in index.candidates(candidate):
        if jaccard_size_bound(size, len(edge_type.properties)) < threshold:
            continue
        score = jaccard(candidate_keys, edge_type.property_keys)
        if score >= best_score and endpoints_compatible(
            edge_type, candidate, endpoint_threshold
        ):
            best, best_score = edge_type, score
    return best


def _add_with_unique_name(base: SchemaGraph, node_type: NodeType) -> None:
    """Insert a node type, renaming on (rare) name collisions."""
    name = node_type.name
    suffix = 1
    while name in base.node_types:
        suffix += 1
        name = f"{node_type.name}_{suffix}"
    node_type.name = name
    base.add_node_type(node_type)


def _add_edge_with_unique_name(base: SchemaGraph, edge_type: EdgeType) -> None:
    """Insert an edge type, renaming on (rare) name collisions."""
    name = edge_type.name
    suffix = 1
    while name in base.edge_types:
        suffix += 1
        name = f"{edge_type.name}_{suffix}"
    edge_type.name = name
    base.add_edge_type(edge_type)
