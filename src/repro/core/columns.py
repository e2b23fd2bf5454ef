"""Batch columnization: one pass over elements, integer ids everywhere else.

The element-at-a-time hot path touched every :class:`Node`/:class:`Edge`
object four or five times (corpus building, vectorization, refinement,
cluster summarization), paying Python attribute access and hashing per
element per stage.  The batch kernels instead extract everything the
pipeline needs in a *single* pass:

* every distinct label set and property-key set is interned once
  (:class:`NodeRows` / :class:`EdgeRows` against batch-local tables,
  then :class:`LabelSpace` / :class:`KeySpace`),
* each element is reduced to a row of integer ids
  (:class:`NodeColumns` / :class:`EdgeColumns`),
* downstream stages operate on numpy id arrays, and the expensive work
  (embedding, hashing, set construction) happens once per *distinct
  pattern* instead of once per element.

A batch of a hundred thousand elements typically has only dozens of
distinct (label set, key set) patterns, which is what makes the
compaction worthwhile.  All kernels built on these columns are
output-equivalent (byte-identical arrays and schemas) to the
element-at-a-time loops they replaced, which live on as test oracles in
``tests/oracles/``; ``tests/test_hotpath_kernels.py`` enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.graph.model import Edge, Node, canonical_label


class LabelSpace:
    """Interner for label frozensets with per-set canonical tokens."""

    def __init__(self) -> None:
        self.sets: list[frozenset[str]] = []
        self.tokens: list[str] = []
        self._ids: dict[frozenset[str], int] = {}

    def intern(self, labels: frozenset[str]) -> int:
        """Dense id for a label set, assigning the next id when new."""
        existing = self._ids.get(labels)
        if existing is not None:
            return existing
        new_id = len(self.sets)
        self._ids[labels] = new_id
        self.sets.append(labels)
        self.tokens.append(canonical_label(labels))
        return new_id

    def __len__(self) -> int:
        return len(self.sets)


class KeySpace:
    """Interner for property-key sets, keeping the first-seen key order.

    The order matters for byte-identical MinHash feature interning: the
    element-order loop interns ``nk:<key>`` features in dictionary order of
    the first element carrying a key set, so the compact path must replay
    exactly that order.
    """

    def __init__(self) -> None:
        self.sets: list[frozenset[str]] = []
        self.orders: list[tuple[str, ...]] = []
        self._ids: dict[frozenset[str], int] = {}

    def intern(self, properties: Mapping[str, object]) -> int:
        """Dense id for a mapping's key set (first-seen order retained)."""
        keys = frozenset(properties)
        existing = self._ids.get(keys)
        if existing is not None:
            return existing
        new_id = len(self.sets)
        self._ids[keys] = new_id
        self.sets.append(keys)
        self.orders.append(tuple(properties))
        return new_id

    def __len__(self) -> int:
        return len(self.sets)


@dataclass
class NodeColumns:
    """Column-oriented view of a node batch."""

    ids: np.ndarray  # (n,) int64 node ids
    label_ids: np.ndarray  # (n,) int64 into labels.sets
    keyset_ids: np.ndarray  # (n,) int64 into keys.sets
    labels: LabelSpace
    keys: KeySpace

    def __len__(self) -> int:
        return int(self.ids.size)

    def pattern_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (label set, key set) pattern ids in first-appearance order.

        Returns:
            ``(pattern_ids, representatives)`` where ``pattern_ids[i]`` is
            the dense pattern id of element ``i`` and ``representatives[p]``
            is the index of the first element exhibiting pattern ``p``.
        """
        combined = self.label_ids * np.int64(max(len(self.keys), 1))
        combined = combined + self.keyset_ids
        return dense_first_appearance(combined)


@dataclass
class EdgeColumns:
    """Column-oriented view of an edge batch (with endpoint context)."""

    ids: np.ndarray  # (m,) int64 edge ids
    source: np.ndarray  # (m,) int64 source node ids
    target: np.ndarray  # (m,) int64 target node ids
    label_ids: np.ndarray  # (m,) int64 edge label sets
    src_label_ids: np.ndarray  # (m,) int64 source endpoint label sets
    tgt_label_ids: np.ndarray  # (m,) int64 target endpoint label sets
    keyset_ids: np.ndarray  # (m,) int64 into keys.sets
    labels: LabelSpace  # shared across edge/source/target roles
    keys: KeySpace
    #: ``source``/``target`` as the edge objects' own ints, which outlive
    #: the batch: the §4.4 degree maps key on them instead of on copies.
    endpoints: tuple[Sequence[int], Sequence[int]] | None = None

    def __len__(self) -> int:
        return int(self.ids.size)

    def pattern_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (edge labels, src labels, tgt labels, keys) pattern ids."""
        num_labels = np.int64(max(len(self.labels), 1))
        combined = self.label_ids
        combined = combined * num_labels + self.src_label_ids
        combined = combined * num_labels + self.tgt_label_ids
        combined = combined * np.int64(max(len(self.keys), 1))
        combined = combined + self.keyset_ids
        return dense_first_appearance(combined)

    def with_endpoint_overrides(
        self, overrides: Mapping[int, frozenset[str]]
    ) -> "EdgeColumns":
        """Columns with some endpoints' label sets replaced.

        Used for the hybrid step: unlabeled endpoints absorbed into a node
        type adopt that type's (pseudo-)labels before edge clustering.
        Only the affected rows are re-interned; everything else is shared.
        """
        if not overrides:
            return self
        override_ids = np.fromiter(overrides, dtype=np.int64, count=len(overrides))
        src = self.src_label_ids
        tgt = self.tgt_label_ids
        for endpoint_ids, column in ((self.source, "src"), (self.target, "tgt")):
            affected = np.flatnonzero(np.isin(endpoint_ids, override_ids))
            if affected.size == 0:
                continue
            updated = (src if column == "src" else tgt).copy()
            for row in affected.tolist():
                updated[row] = self.labels.intern(
                    overrides[int(endpoint_ids[row])]
                )
            if column == "src":
                src = updated
            else:
                tgt = updated
        return EdgeColumns(
            ids=self.ids,
            source=self.source,
            target=self.target,
            label_ids=self.label_ids,
            src_label_ids=src,
            tgt_label_ids=tgt,
            keyset_ids=self.keyset_ids,
            labels=self.labels,
            keys=self.keys,
            endpoints=self.endpoints,
        )


def intern_label_rows(
    rows: Iterable[Iterable[str]],
) -> tuple[list[int], list[frozenset[str]]]:
    """Label-set id per row, against a first-appearance table of sets.

    A row is any hashable collection of labels -- a decoded JSON list
    as a tuple, or a frozenset -- and rows naming the same *set* (in any
    order or multiplicity) share one id.  ``rows`` is read once; each
    row costs one hash, and each distinct row one set construction.
    """
    first_rows: dict[Iterable[str], int] = {}
    row_firsts = _first_rows(first_rows, rows)
    table: dict[frozenset[str], int] = {}
    ids = {
        row: table.setdefault(frozenset(raw), len(table))
        for raw, row in first_rows.items()
    }
    return list(map(ids.__getitem__, row_firsts)), list(table)


def intern_key_rows(
    properties: Iterable[Mapping[str, Any]],
) -> tuple[list[int], list[tuple[str, ...]]]:
    """Key-set id per row, with each set's first-seen key order.

    The table is :class:`KeySpace`'s: sets numbered by first appearance,
    each remembered in the key order of the first row carrying it.
    """
    first_rows: dict[tuple[str, ...], int] = {}
    row_firsts = _first_rows(first_rows, map(tuple, properties))
    table: dict[frozenset[str], int] = {}
    first_orders: list[tuple[str, ...]] = []
    ids: dict[int, int] = {}
    for order, row in first_rows.items():
        key_set = frozenset(order)
        key_id = table.get(key_set)
        if key_id is None:
            key_id = table[key_set] = len(first_orders)
            first_orders.append(order)
        ids[row] = key_id
    return list(map(ids.__getitem__, row_firsts)), first_orders


def _first_rows(first_rows: dict[Any, int], rows: Iterable[Any]) -> list[int]:
    """Each row's first row with an equal value, filling ``first_rows``.

    ``first_rows`` ends up mapping every distinct value to the row it
    first appears in, in appearance order.
    """
    first_row_of: Callable[..., int] = first_rows.setdefault
    return list(map(first_row_of, rows, count()))


@dataclass(frozen=True)
class NodeRows:
    """A node batch as rows of ids against batch-local tables.

    The one row form of a node batch: :func:`node_columns` builds it
    from element objects, and the daemon decodes request bodies straight
    into it.  ``properties`` holds each row's own mapping, uncopied.
    """

    ids: list[int]
    label_ids: list[int]  # into label_sets
    label_sets: list[frozenset[str]]
    keyset_ids: list[int]  # into key_orders
    key_orders: list[tuple[str, ...]]
    properties: Sequence[Mapping[str, Any]]

    @classmethod
    def from_nodes(cls, nodes: Sequence[Node]) -> "NodeRows":
        """The rows of element objects (see the two interners)."""
        properties = list(map(attrgetter("properties"), nodes))
        label_ids, label_sets = intern_label_rows(
            map(attrgetter("labels"), nodes)
        )
        keyset_ids, key_orders = intern_key_rows(properties)
        return cls(
            list(map(attrgetter("id"), nodes)), label_ids, label_sets,
            keyset_ids, key_orders, properties,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def row_labels(self) -> list[frozenset[str]]:
        """Each row's label set."""
        return [self.label_sets[label_id] for label_id in self.label_ids]

    def columns(self) -> NodeColumns:
        """The batch's :class:`NodeColumns`."""
        return node_columns_from_arrays(
            np.array(self.ids, dtype=np.int64),
            np.array(self.label_ids, dtype=np.int64),
            np.array(self.keyset_ids, dtype=np.int64),
            self.label_sets,
            self._key_order_at,
        )

    def _key_order_at(self, row: int) -> tuple[str, ...]:
        return self.key_orders[self.keyset_ids[row]]


@dataclass(frozen=True)
class EdgeRows:
    """An edge batch as rows of ids against batch-local tables.

    As :class:`NodeRows`, plus the endpoint id columns.  Endpoint label
    sets are not part of the rows: they depend on where the caller
    looks endpoints up, and come in through :meth:`columns`.
    """

    ids: list[int]
    source: list[int]
    target: list[int]
    label_ids: list[int]  # into label_sets
    label_sets: list[frozenset[str]]
    keyset_ids: list[int]  # into key_orders
    key_orders: list[tuple[str, ...]]
    properties: Sequence[Mapping[str, Any]]

    @classmethod
    def from_edges(cls, edges: Sequence[Edge]) -> "EdgeRows":
        """The rows of element objects (see the two interners)."""
        properties = list(map(attrgetter("properties"), edges))
        label_ids, label_sets = intern_label_rows(
            map(attrgetter("labels"), edges)
        )
        keyset_ids, key_orders = intern_key_rows(properties)
        return cls(
            list(map(attrgetter("id"), edges)),
            list(map(attrgetter("source"), edges)),
            list(map(attrgetter("target"), edges)),
            label_ids, label_sets, keyset_ids, key_orders, properties,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def columns(
        self, endpoint_labels: Mapping[int, frozenset[str]]
    ) -> EdgeColumns:
        """The batch's :class:`EdgeColumns`, with endpoint label sets.

        An endpoint missing from ``endpoint_labels`` has the empty label
        set.  The sets are interned like the rows' own, one set-table
        entry per distinct set.
        """
        empty: frozenset[str] = frozenset()
        labels_of: Callable[..., Any] = endpoint_labels.get
        endpoint_ids, endpoint_sets = intern_label_rows(
            map(labels_of, chain(self.source, self.target), repeat(empty))
        )
        ends = np.array(endpoint_ids, dtype=np.int64)
        rows = len(self.ids)
        return edge_columns_from_arrays(
            np.array(self.ids, dtype=np.int64),
            np.array(self.source, dtype=np.int64),
            np.array(self.target, dtype=np.int64),
            np.array(self.label_ids, dtype=np.int64),
            ends[:rows],
            ends[rows:],
            np.array(self.keyset_ids, dtype=np.int64),
            self.label_sets,
            endpoint_sets,
            self._key_order_at,
        )

    def _key_order_at(self, row: int) -> tuple[str, ...]:
        return self.key_orders[self.keyset_ids[row]]


def node_columns(nodes: Sequence[Node]) -> NodeColumns:
    """Columnize a node batch of element objects."""
    return NodeRows.from_nodes(nodes).columns()


def edge_columns(
    edges: Sequence[Edge],
    endpoint_labels: Mapping[int, frozenset[str]],
) -> EdgeColumns:
    """Columnize an edge batch of element objects, with endpoint labels.

    An endpoint missing from ``endpoint_labels`` has the empty label set.
    """
    return EdgeRows.from_edges(edges).columns(endpoint_labels)


PropertyColumn = Sequence[Mapping[str, Any]]
"""Batch position -> that element's property mapping."""


class ShardColumns(NamedTuple):
    """One batch as the map step reads it: columns plus property columns.

    The property columns are ``None`` where the producer was asked to
    leave them out.
    """

    nodes: NodeColumns
    edges: EdgeColumns
    node_properties: PropertyColumn | None
    edge_properties: PropertyColumn | None


def columnize_batch(
    nodes: Sequence[Node],
    edges: Sequence[Edge],
    endpoint_labels: Mapping[int, frozenset[str]],
) -> ShardColumns:
    """Columnize a batch of element objects, with its property columns.

    The property columns are the elements' own dicts, uncopied, and the
    edge columns carry the edges' own endpoint ints.  (A daemon request's
    decoded ints are not shared so: the request dies with its batch, and
    degree maps keyed on its scattered ints made snapshots slower.)
    """
    node_rows = NodeRows.from_nodes(nodes)
    edge_rows = EdgeRows.from_edges(edges)
    edge_cols = edge_rows.columns(endpoint_labels)
    edge_cols.endpoints = (edge_rows.source, edge_rows.target)
    return ShardColumns(
        node_rows.columns(), edge_cols,
        node_rows.properties, edge_rows.properties,
    )


def node_columns_from_arrays(
    ids: np.ndarray,
    label_gids: np.ndarray,
    keyset_gids: np.ndarray,
    label_sets: Sequence[frozenset[str]],
    key_order_at: Callable[[int], tuple[str, ...]],
) -> NodeColumns:
    """Columnize a node batch from pre-interned id arrays (no objects).

    The disk backend stores every node as ``(id, global label-set id,
    global key-set id)`` against store-wide interner tables.  This
    constructor remaps those *global* ids to the per-batch dense ids the
    per-row interning of :func:`node_columns` would have assigned --
    first appearance within the batch, in row order -- and re-interns
    the actual sets in that order, so the result is byte-identical to
    ``node_columns([store.node(i) for i in ids])`` without materializing
    a single :class:`~repro.graph.model.Node`.

    ``key_order_at`` maps a batch *position* to that row's property-key
    iteration order.  The row-by-row :class:`KeySpace` records the key
    order of the first row carrying each key set, and two rows with the
    same key *set* may order their dicts differently -- so the order
    must come from the batch's own representative row, not from a
    store-wide table.  It is called once per distinct key set.
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    label_gids = np.asarray(label_gids, dtype=np.int64)
    keyset_gids = np.asarray(keyset_gids, dtype=np.int64)
    label_ids, label_reps = dense_first_appearance(label_gids)
    labels = LabelSpace()
    for row in label_reps.tolist():
        labels.intern(label_sets[int(label_gids[row])])
    keyset_ids, key_reps = dense_first_appearance(keyset_gids)
    keys = KeySpace()
    for row in key_reps.tolist():
        keys.intern(dict.fromkeys(key_order_at(int(row))))
    return NodeColumns(ids, label_ids, keyset_ids, labels, keys)


def edge_columns_from_arrays(
    ids: np.ndarray,
    source: np.ndarray,
    target: np.ndarray,
    label_gids: np.ndarray,
    src_label_gids: np.ndarray,
    tgt_label_gids: np.ndarray,
    keyset_gids: np.ndarray,
    edge_label_sets: Sequence[frozenset[str]],
    node_label_sets: Sequence[frozenset[str]],
    key_order_at: Callable[[int], tuple[str, ...]],
) -> EdgeColumns:
    """Columnize an edge batch from pre-interned id arrays (no objects).

    :func:`edge_columns` interns, per row, the edge's label set followed
    by the source and target endpoint label sets into *one* shared
    :class:`LabelSpace` -- identical sets collapse to one dense id even
    when one comes from the edge table and another from the node table.
    To replay that order the three global-id columns are interleaved
    row-major (edge, src, tgt), with node-table ids offset past the edge
    table so equal integers never alias across tables; the dense pass
    then yields first-appearance representatives whose *actual* label
    sets are interned through a shared space, restoring the cross-table
    collapse byte-for-byte.

    ``key_order_at`` maps a batch position to that edge row's own
    property-key order, for the same reason as in
    :func:`node_columns_from_arrays`.
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    source = np.ascontiguousarray(source, dtype=np.int64)
    target = np.ascontiguousarray(target, dtype=np.int64)
    label_gids = np.asarray(label_gids, dtype=np.int64)
    src_label_gids = np.asarray(src_label_gids, dtype=np.int64)
    tgt_label_gids = np.asarray(tgt_label_gids, dtype=np.int64)
    keyset_gids = np.asarray(keyset_gids, dtype=np.int64)
    offset = np.int64(len(edge_label_sets))
    rows = int(ids.size)
    interleaved = np.empty(rows * 3, dtype=np.int64)
    interleaved[0::3] = label_gids
    interleaved[1::3] = src_label_gids + offset
    interleaved[2::3] = tgt_label_gids + offset
    dense, reps = dense_first_appearance(interleaved)
    labels = LabelSpace()
    mapping = np.empty(reps.size, dtype=np.int64)
    for dense_id, position in enumerate(reps.tolist()):
        tagged = int(interleaved[position])
        if tagged < int(offset):
            label_set = edge_label_sets[tagged]
        else:
            label_set = node_label_sets[tagged - int(offset)]
        mapping[dense_id] = labels.intern(label_set)
    label_ids = mapping[dense[0::3]] if rows else dense
    src_label_ids = mapping[dense[1::3]] if rows else dense
    tgt_label_ids = mapping[dense[2::3]] if rows else dense
    keyset_ids, key_reps = dense_first_appearance(keyset_gids)
    keys = KeySpace()
    for row in key_reps.tolist():
        keys.intern(dict.fromkeys(key_order_at(int(row))))
    return EdgeColumns(
        ids, source, target,
        np.ascontiguousarray(label_ids, dtype=np.int64),
        np.ascontiguousarray(src_label_ids, dtype=np.int64),
        np.ascontiguousarray(tgt_label_ids, dtype=np.int64),
        keyset_ids, labels, keys,
    )


def dense_first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for a value array, numbered in first-appearance order.

    This is the numpy analogue of the ``setdefault(key, len(mapping))``
    idiom of the element-at-a-time loops, so kernels built on it
    reproduce their cluster numbering exactly.

    Returns:
        ``(dense_ids, representatives)``: ``dense_ids[i]`` is the id of
        ``values[i]`` and ``representatives[d]`` the index of the first
        occurrence of dense id ``d``.
    """
    values = np.asarray(values)
    if values.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    _, first_index, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    appearance_order = np.argsort(first_index, kind="stable")
    remap = np.empty_like(appearance_order)
    remap[appearance_order] = np.arange(appearance_order.size)
    return (
        remap[inverse].astype(np.int64),
        first_index[appearance_order].astype(np.int64),
    )


def union_of(sets: Iterable[frozenset[str]]) -> frozenset[str]:
    """Union of several frozensets (empty union is the empty set)."""
    result: frozenset[str] = frozenset()
    for entry in sets:
        if not entry <= result:
            result = result | entry
    return result
