"""Element vectorization (paper section 4.1).

Every node becomes ``f_v in R^{d+K}``: the Word2Vec embedding of its
(sorted, concatenated) label set followed by a binary indicator over the
``K`` distinct node property keys of the dataset.  Every edge becomes
``f_e in R^{3d+Q}``: embeddings of the edge label, the source labels and
the target labels, followed by the binary indicator over the ``Q`` distinct
edge property keys.  Missing labels embed as the zero vector.

Label embeddings are unit-normalized and scaled by ``label_weight`` so the
semantic block stays comparable in magnitude to the structural block even
when property noise dominates -- this is what keeps semantically different
but structurally similar elements apart (the paper's stated motivation for
the hybrid vectors).

For the MinHash variant, elements are instead modeled as *feature sets*:
interned ids for each property key plus role-tagged ids for the label
tokens (``label:``, ``src:``, ``tgt:`` prefixes), so Jaccard similarity
sees both structure and semantics.

The batch kernels (`vectorize`, `feature_sets`, and the ``*_patterns``
compact variants the engine uses) do the expensive work once per distinct
(label set, key set) pattern and scatter with fancy indexing.  They are
property-tested byte for byte against the original element-at-a-time
loops, which live in ``tests/oracles/kernels.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.columns import (
    EdgeColumns,
    KeySpace,
    NodeColumns,
    edge_columns,
    node_columns,
)
from repro.embeddings.embedder import LabelEmbedder
from repro.graph.model import Edge, Node, canonical_label


class FeatureInterner:
    """Stable string-feature -> integer-id mapping for MinHash sets."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def intern(self, feature: str) -> int:
        """Id for a feature string, assigning the next id when new."""
        existing = self._ids.get(feature)
        if existing is not None:
            return existing
        new_id = len(self._ids)
        self._ids[feature] = new_id
        return new_id

    def __len__(self) -> int:
        return len(self._ids)


class EmbeddingCache:
    """Memoized unit-normalized, weight-scaled embeddings per label set.

    Batches contain thousands of elements but only a handful of distinct
    label sets, so caching by frozenset removes the per-element embedding
    and normalization cost from the hot path.  One cache can (and should)
    be shared between the node and edge vectorizers of the same batch:
    the incremental engine passes a single instance to both so endpoint
    label sets already embedded during the node pass are free in the edge
    pass.
    """

    def __init__(self, embedder: LabelEmbedder, weight: float) -> None:
        self._embedder = embedder
        self._weight = weight
        self._by_labels: dict[frozenset[str], np.ndarray] = {}

    @property
    def dimension(self) -> int:
        return self._embedder.dimension

    def for_labels(self, labels: frozenset[str]) -> np.ndarray:
        cached = self._by_labels.get(labels)
        if cached is None:
            cached = _scaled_embedding(
                self._embedder, canonical_label(labels), self._weight
            )
            self._by_labels[labels] = cached
        return cached


def _scaled_embedding(
    embedder: LabelEmbedder, token: str, weight: float
) -> np.ndarray:
    """Unit-normalized, weight-scaled embedding; zeros for no label."""
    vector = embedder.embed_token(token)
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return vector
    return vector / norm * weight


# Backwards-compatible alias (the cache used to be module-private).
_EmbeddingCache = EmbeddingCache


class NodeVectorizer:
    """Vectorizes nodes against a fixed property-key universe."""

    def __init__(
        self,
        property_keys: Sequence[str],
        embedder: LabelEmbedder,
        label_weight: float = 3.0,
        embedding_cache: EmbeddingCache | None = None,
    ) -> None:
        self.property_keys = list(property_keys)
        self._key_index = {key: i for i, key in enumerate(self.property_keys)}
        self.embedder = embedder
        self.label_weight = float(label_weight)
        # Vectorizer-level cache: survives across vectorize() calls and can
        # be shared with the edge vectorizer of the same batch.
        self._cache = embedding_cache or EmbeddingCache(
            embedder, self.label_weight
        )

    @property
    def dimension(self) -> int:
        """Total vector dimension d + K."""
        return self.embedder.dimension + len(self.property_keys)

    def vectorize(self, nodes: Sequence[Node]) -> np.ndarray:
        """(n, d+K) hybrid feature matrix for a batch of nodes.

        Batch kernel: embeds each distinct label set once and scatters
        pattern rows with fancy indexing.
        """
        if not nodes:
            return np.zeros((0, self.dimension))
        columns = node_columns(nodes)
        compact, pattern_ids = self.vectorize_patterns(columns)
        return compact[pattern_ids]

    def vectorize_patterns(
        self, columns: NodeColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compact (U, d+K) matrix over distinct patterns + pattern ids.

        Row ``u`` is the feature vector shared by every node whose
        ``pattern_ids`` entry is ``u``; ``compact[pattern_ids]`` therefore
        equals :meth:`vectorize`'s output.  The ELSH path hashes the
        compact matrix directly and never materializes the full one.
        """
        pattern_ids, representatives = columns.pattern_ids()
        d = self.embedder.dimension
        out = np.zeros((representatives.size, self.dimension))
        rep_label_ids = columns.label_ids[representatives]
        out[:, :d] = _embedding_rows(self._cache, columns, rep_label_ids)
        rep_keyset_ids = columns.keyset_ids[representatives]
        key_columns = _keyset_columns(columns.keys, self._key_index)
        for row, keyset_id in enumerate(rep_keyset_ids.tolist()):
            cols = key_columns[keyset_id]
            if cols.size:
                out[row, d + cols] = 1.0
        return out, pattern_ids

    def feature_sets(
        self, nodes: Sequence[Node], interner: FeatureInterner
    ) -> list[set[int]]:
        """MinHash feature sets: property keys plus the label token.

        Batch kernel: each distinct (label set, key set) pattern builds its
        set once; repeats receive copies.  Interner state and set contents
        match an element-order loop byte for byte because patterns are
        visited in first-appearance order with the first carrier's key
        order.
        """
        sets: list[set[int]] = []
        by_pattern: dict[tuple[frozenset, frozenset], set[int]] = {}
        for node in nodes:
            pattern = (node.labels, frozenset(node.properties))
            cached = by_pattern.get(pattern)
            if cached is None:
                cached = self._node_feature_set(node, interner)
                by_pattern[pattern] = cached
            sets.append(cached.copy())
        return sets

    def feature_sets_patterns(
        self, columns: NodeColumns, interner: FeatureInterner
    ) -> tuple[list[set[int]], np.ndarray]:
        """Distinct-pattern feature sets + per-node pattern ids.

        ``sets[pattern_ids[i]]`` is node ``i``'s feature set.  Interner
        state matches an element-order loop exactly (patterns are interned
        in first-appearance order).
        """
        pattern_ids, representatives = columns.pattern_ids()
        sets: list[set[int]] = []
        for rep in representatives.tolist():
            features = {
                interner.intern(f"nk:{key}")
                for key in columns.keys.orders[columns.keyset_ids[rep]]
            }
            token = columns.labels.tokens[columns.label_ids[rep]]
            if token:
                features.add(interner.intern(f"label:{token}"))
            sets.append(features)
        return sets, pattern_ids

    def _node_feature_set(
        self, node: Node, interner: FeatureInterner
    ) -> set[int]:
        features = {
            interner.intern(f"nk:{key}") for key in node.properties
        }
        token = node.label_token()
        if token:
            features.add(interner.intern(f"label:{token}"))
        return features


class EdgeVectorizer:
    """Vectorizes edges (with endpoint label context) per section 4.1."""

    def __init__(
        self,
        property_keys: Sequence[str],
        embedder: LabelEmbedder,
        label_weight: float = 3.0,
        embedding_cache: EmbeddingCache | None = None,
    ) -> None:
        self.property_keys = list(property_keys)
        self._key_index = {key: i for i, key in enumerate(self.property_keys)}
        self.embedder = embedder
        self.label_weight = float(label_weight)
        self._cache = embedding_cache or EmbeddingCache(
            embedder, self.label_weight
        )

    @property
    def dimension(self) -> int:
        """Total vector dimension 3d + Q."""
        return 3 * self.embedder.dimension + len(self.property_keys)

    def vectorize(
        self,
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> np.ndarray:
        """(m, 3d+Q) hybrid feature matrix for a batch of edges.

        Batch kernel over distinct (edge labels, endpoint labels, keys)
        patterns.

        Args:
            edges: The edges to vectorize.
            endpoint_labels: node id -> label set for every endpoint
                referenced by ``edges`` (missing entries count as unlabeled).
        """
        if not edges:
            return np.zeros((0, self.dimension))
        columns = edge_columns(edges, endpoint_labels)
        compact, pattern_ids = self.vectorize_patterns(columns)
        return compact[pattern_ids]

    def vectorize_patterns(
        self, columns: EdgeColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compact (U, 3d+Q) matrix over distinct patterns + pattern ids."""
        pattern_ids, representatives = columns.pattern_ids()
        d = self.embedder.dimension
        out = np.zeros((representatives.size, self.dimension))
        for offset, role_ids in (
            (0, columns.label_ids),
            (d, columns.src_label_ids),
            (2 * d, columns.tgt_label_ids),
        ):
            rep_ids = role_ids[representatives]
            out[:, offset:offset + d] = _embedding_rows(
                self._cache, columns, rep_ids
            )
        rep_keyset_ids = columns.keyset_ids[representatives]
        key_columns = _keyset_columns(columns.keys, self._key_index)
        for row, keyset_id in enumerate(rep_keyset_ids.tolist()):
            cols = key_columns[keyset_id]
            if cols.size:
                out[row, 3 * d + cols] = 1.0
        return out, pattern_ids

    def feature_sets(
        self,
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
        interner: FeatureInterner,
    ) -> list[set[int]]:
        """MinHash feature sets: keys, edge label, and endpoint labels.

        Batch kernel deduplicating by distinct pattern; interner state and
        sets match an element-order loop byte for byte.
        """
        sets: list[set[int]] = []
        empty: frozenset[str] = frozenset()
        by_pattern: dict[tuple, set[int]] = {}
        for edge in edges:
            src_labels = endpoint_labels.get(edge.source, empty)
            tgt_labels = endpoint_labels.get(edge.target, empty)
            pattern = (
                edge.labels, src_labels, tgt_labels,
                frozenset(edge.properties),
            )
            cached = by_pattern.get(pattern)
            if cached is None:
                cached = self._edge_feature_set(
                    edge, src_labels, tgt_labels, interner
                )
                by_pattern[pattern] = cached
            sets.append(cached.copy())
        return sets

    def feature_sets_patterns(
        self, columns: EdgeColumns, interner: FeatureInterner
    ) -> tuple[list[set[int]], np.ndarray]:
        """Distinct-pattern feature sets + per-edge pattern ids."""
        pattern_ids, representatives = columns.pattern_ids()
        tokens = columns.labels.tokens
        sets: list[set[int]] = []
        for rep in representatives.tolist():
            features = {
                interner.intern(f"ek:{key}")
                for key in columns.keys.orders[columns.keyset_ids[rep]]
            }
            token = tokens[columns.label_ids[rep]]
            if token:
                features.add(interner.intern(f"label:{token}"))
            src_token = tokens[columns.src_label_ids[rep]]
            if src_token:
                features.add(interner.intern(f"src:{src_token}"))
            tgt_token = tokens[columns.tgt_label_ids[rep]]
            if tgt_token:
                features.add(interner.intern(f"tgt:{tgt_token}"))
            sets.append(features)
        return sets, pattern_ids

    def _edge_feature_set(
        self,
        edge: Edge,
        src_labels: frozenset[str],
        tgt_labels: frozenset[str],
        interner: FeatureInterner,
    ) -> set[int]:
        features = {
            interner.intern(f"ek:{key}") for key in edge.properties
        }
        token = edge.label_token()
        if token:
            features.add(interner.intern(f"label:{token}"))
        src_token = canonical_label(src_labels)
        if src_token:
            features.add(interner.intern(f"src:{src_token}"))
        tgt_token = canonical_label(tgt_labels)
        if tgt_token:
            features.add(interner.intern(f"tgt:{tgt_token}"))
        return features


def _embedding_rows(
    cache: EmbeddingCache,
    columns: NodeColumns | EdgeColumns,
    label_ids: np.ndarray,
) -> np.ndarray:
    """(len(label_ids), d) embedding block rows for the given label ids."""
    if label_ids.size == 0:
        return np.zeros((0, cache.dimension))
    label_sets = columns.labels.sets
    return np.stack(
        [cache.for_labels(label_sets[i]) for i in label_ids.tolist()]
    )


def _keyset_columns(
    keys: KeySpace, key_index: dict[str, int]
) -> list[np.ndarray]:
    """Per key-set id: indicator column indices inside the key universe."""
    return [
        np.array(
            [key_index[k] for k in order if k in key_index], dtype=np.int64
        )
        for order in keys.orders
    ]
