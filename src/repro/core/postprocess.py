"""Post-processing passes (paper section 4.4).

Three enrichment passes over a discovered schema:

* property constraints -- a property is MANDATORY for a type when it
  occurs in every instance (f_T(p) = 1), OPTIONAL otherwise.  Computed
  from the per-type occurrence counters that the merge steps keep exact
  across batches (:func:`infer_property_constraints`);
* datatypes -- each property gets the most specific datatype compatible
  with its observed values, via a full fold or the paper's sampled mode
  (10 % of values, at least 1000);
* cardinalities -- each edge type is classified from its degree
  extremes: max out-degree and max in-degree over its member edges.

§4.4 is one fold
----------------
Every engine -- sequential, pool worker, daemon session, memoized --
computes datatypes and cardinalities the same way: as *mergeable partial
statistics* (:class:`TypeStats`) folded per batch, never by reading
members back out of the store.

* :func:`attach_column_stats` folds a batch schema's members over the
  batch's columns while the batch is in hand: per-property
  :class:`~repro.core.value_profiles.PropertyPartial` folds (datatype
  lattice join, value-profile ingredients) and -- for edge types --
  **per-node degree count maps**; disk shards and daemon batches get
  it.  :func:`attach_partial_stats` runs the same per-type fold over
  the element objects of the memory store.  The memoization fast
  path folds each absorbed element with the per-element helpers
  (:func:`fold_properties`, :func:`fold_edge`);
* the stats ride on the types through the ordinary schema merge
  (:func:`repro.schema.merge.merge_node_types` /
  :func:`~repro.schema.merge.merge_edge_types` fold them whenever types
  merge), in every engine's batch-order fold;
* :func:`apply_partial_stats` turns the merged stats into statuses,
  datatypes, profiles and cardinalities.  It keeps the stats, so it can
  run after every batch; the finishing step of
  :class:`~repro.core.pipeline.PGHive` clears them.

Degree maps are merged by **summing counts per node id** before taking
the max.  Shards partition edges by *source* node, so per-shard
out-degrees happen to be complete, but a node's incoming edges span
shards: taking a max of per-shard maxima would undercount ``max_in``.
Summing per node is exact in both directions.

The store is read only where a fold cannot answer: the sampling mode
(``infer_datatypes_by_sampling``) draws one seeded sample from each
merged type's full value sequence, so the finishing step re-runs
:func:`infer_datatypes` over the store; and exact cardinality bounds
(``--bounds``) stay a store pass.  :func:`infer_datatypes` and
:func:`compute_cardinalities` are the store-backed reference the fold
is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.columns import EdgeColumns, NodeColumns, PropertyColumn
from repro.core.config import PGHiveConfig
from repro.core.datatypes import infer_datatype, infer_datatype_sampled
from repro.core.value_profiles import PropertyPartial
from repro.graph.model import Edge, Node
from repro.graph.store import BaseGraphStore
from repro.schema.model import (
    Cardinality,
    EdgeType,
    NodeType,
    PropertyStatus,
    SchemaGraph,
)


def infer_property_constraints(schema: SchemaGraph) -> None:
    """Mark every property of every type MANDATORY or OPTIONAL in place."""
    for type_record in _all_types(schema):
        for key, spec in type_record.properties.items():
            if (
                type_record.instance_count > 0
                and type_record.property_counts.get(key, 0)
                == type_record.instance_count
            ):
                spec.status = PropertyStatus.MANDATORY
            else:
                spec.status = PropertyStatus.OPTIONAL


def infer_datatypes(
    schema: SchemaGraph,
    store: BaseGraphStore,
    config: PGHiveConfig | None = None,
) -> None:
    """Assign datatypes to every property of every type in place.

    Uses the member ids recorded on each type to pull values back out of
    the store.  Honors the config's sampling mode.
    """
    config = config or PGHiveConfig()
    for node_type in schema.node_types.values():
        values_by_key = _collect_values(
            (store.node(nid) for nid in node_type.members),
            node_type.property_keys,
        )
        _assign_datatypes(node_type, values_by_key, config)
    for edge_type in schema.edge_types.values():
        values_by_key = _collect_values(
            (store.edge(eid) for eid in edge_type.members),
            edge_type.property_keys,
        )
        _assign_datatypes(edge_type, values_by_key, config)


def compute_cardinalities(schema: SchemaGraph, store: BaseGraphStore) -> None:
    """Classify every edge type's cardinality from degree extremes.

    Counts each member edge's endpoints, pulled back with ``store.edge``.
    """
    for edge_type in schema.edge_types.values():
        out_degree: Counter[int] = Counter()
        in_degree: Counter[int] = Counter()
        for edge_id in edge_type.members:
            edge = store.edge(edge_id)
            out_degree[edge.source] += 1
            in_degree[edge.target] += 1
        max_out = max(out_degree.values(), default=0)
        max_in = max(in_degree.values(), default=0)
        edge_type.max_out = max(edge_type.max_out, max_out)
        edge_type.max_in = max(edge_type.max_in, max_in)
        edge_type.cardinality = Cardinality.from_degrees(
            edge_type.max_out, edge_type.max_in
        )


def _collect_values(
    elements: Iterable[Node] | Iterable[Edge], keys: Iterable[str]
) -> dict[str, list[Any]]:
    """Property key -> list of observed values over the given elements."""
    values: dict[str, list[Any]] = {key: [] for key in keys}
    for element in elements:
        for key, value in element.properties.items():
            bucket = values.get(key)
            if bucket is not None:
                bucket.append(value)
    return values


def _assign_datatypes(
    type_record: NodeType | EdgeType,
    values_by_key: dict[str, list[Any]],
    config: PGHiveConfig,
) -> None:
    """Set the datatype (and optionally the value profile) of each spec."""
    from repro.core.value_profiles import profile_values

    for key, values in values_by_key.items():
        spec = type_record.ensure_property(key)
        if not values:
            continue
        if config.infer_datatypes_by_sampling:
            spec.datatype = infer_datatype_sampled(
                values,
                fraction=config.datatype_sample_fraction,
                minimum=config.datatype_sample_minimum,
                seed=config.seed,
            )
        else:
            spec.datatype = infer_datatype(values)
        if config.infer_value_profiles:
            spec.profile = profile_values(values, datatype=spec.datatype)


def _all_types(schema: SchemaGraph) -> Iterator[NodeType | EdgeType]:
    """Iterate node types then edge types."""
    yield from schema.node_types.values()
    yield from schema.edge_types.values()


# ---------------------------------------------------------------------------
# The §4.4 fold (mergeable partial statistics)
# ---------------------------------------------------------------------------

@dataclass
class TypeStats:
    """Mergeable post-processing statistics of one type.

    Attributes:
        properties: Property key -> partial value statistics.
        out_degrees / in_degrees: Node id -> number of member edges
            leaving / arriving at that node (edge types only; empty for
            node types).  Merged by summing counts per node id -- never
            by taking a max of per-shard maxima, which would undercount
            whenever one node's edges span shards.
    """

    properties: dict[str, PropertyPartial] = field(default_factory=dict)
    out_degrees: dict[int, int] = field(default_factory=dict)
    in_degrees: dict[int, int] = field(default_factory=dict)

    def merge(self, other: "TypeStats") -> "TypeStats":
        """Fold another shard's stats into this one (returns self)."""
        for key, partial in other.properties.items():
            mine = self.properties.get(key)
            if mine is None:
                self.properties[key] = partial
            else:
                mine.merge(partial)
        for node_id, count in other.out_degrees.items():
            self.out_degrees[node_id] = (
                self.out_degrees.get(node_id, 0) + count
            )
        for node_id, count in other.in_degrees.items():
            self.in_degrees[node_id] = self.in_degrees.get(node_id, 0) + count
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (shard journal and checkpoints)."""
        return {
            "properties": {
                key: self.properties[key].to_dict()
                for key in sorted(self.properties)
            },
            "out_degrees": {
                str(node_id): self.out_degrees[node_id]
                for node_id in sorted(self.out_degrees)
            },
            "in_degrees": {
                str(node_id): self.in_degrees[node_id]
                for node_id in sorted(self.in_degrees)
            },
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "TypeStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            properties={
                key: PropertyPartial.from_dict(partial)
                for key, partial in record.get("properties", {}).items()
            },
            out_degrees={
                int(node_id): int(count)
                for node_id, count in record.get("out_degrees", {}).items()
            },
            in_degrees={
                int(node_id): int(count)
                for node_id, count in record.get("in_degrees", {}).items()
            },
        )


def attach_column_stats(
    schema: SchemaGraph,
    ncols: NodeColumns,
    ecols: EdgeColumns,
    node_properties: PropertyColumn,
    edge_properties: PropertyColumn,
    track_values: bool = True,
) -> None:
    """Compute and attach :class:`TypeStats` for every type, from columns.

    Runs on a batch schema against the columnized batch its member ids
    refer to: a member id finds its batch position through ``ids`` (the
    last position of a repeated id), and the property columns give that
    position's properties.  Each type gathers its members' values key by
    key, in member order, and folds each key's sequence at once; degree
    counts come from ``ecols.endpoints`` (or ``ecols.source``/
    ``ecols.target``), read once per batch.  The stats equal a
    per-member fold (:func:`fold_properties` /
    :func:`fold_edge`) of the same members, which observes exactly the
    values and endpoints the store passes :func:`infer_datatypes` /
    :func:`compute_cardinalities` would read back.

    ``track_values=False`` (engines pass ``config.infer_value_profiles``)
    folds only datatypes, counts and degree maps: without profiles
    nothing reads the distinct-value sketch or the bounds, and retaining
    them would carry every distinct property value through the merge --
    unbounded memory on an out-of-core run.
    """
    node_index = _sorted_ids(ncols.ids)
    for node_type in schema.node_types.values():
        rows = _member_rows(node_index, node_type.members)
        node_type.stats = _fold_type(
            node_type, map(node_properties.__getitem__, rows), track_values,
        )
    sources, targets = ecols.endpoints or (
        ecols.source.tolist(), ecols.target.tolist()
    )
    edge_index = _sorted_ids(ecols.ids)
    for edge_type in schema.edge_types.values():
        rows = _member_rows(edge_index, edge_type.members)
        edge_type.stats = _fold_type(
            edge_type, (edge_properties[row] for row in rows), track_values,
            ((sources[row], targets[row]) for row in rows),
        )


def _member_rows(
    index: tuple[np.ndarray, np.ndarray], members: Sequence[int]
) -> list[int]:
    """The batch rows of member ids: the last row of each id.

    ``index`` is the batch's ``(order, sorted ids)``, from a stable
    argsort of its ``ids``.  A binary search, not an id -> row dict: a
    batch-wide dict of fresh ints, built and freed between the fold's
    long-lived allocations, raised the memory store's peak RSS.
    """
    order, sorted_ids = index
    wanted = np.asarray(members, dtype=np.int64)
    found = np.searchsorted(sorted_ids, wanted, side="right") - 1
    if (found < 0).any() or (sorted_ids[found] != wanted).any():
        raise KeyError("a member id is not in the batch")
    rows: list[int] = order[found].tolist()
    return rows


def _sorted_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, ids[order])`` for :func:`_member_rows`."""
    order = np.argsort(ids, kind="stable")
    return order, ids[order]


def attach_partial_stats(
    schema: SchemaGraph,
    nodes: Sequence[Node],
    edges: Sequence[Edge],
    track_values: bool = True,
) -> None:
    """:func:`attach_column_stats` over a batch of element objects.

    Members are looked up by id and read through their own attributes,
    so no batch-wide column is built and the degree maps share the
    edges' endpoint ``int`` objects instead of holding copies.
    """
    node_by_id = {node.id: node for node in nodes}
    for node_type in schema.node_types.values():
        node_type.stats = _fold_type(
            node_type,
            (node_by_id[member].properties for member in node_type.members),
            track_values,
        )
    edge_by_id = {edge.id: edge for edge in edges}
    for edge_type in schema.edge_types.values():
        members = [edge_by_id[member] for member in edge_type.members]
        edge_type.stats = _fold_type(
            edge_type, (edge.properties for edge in members), track_values,
            ((edge.source, edge.target) for edge in members),
        )


def _fold_type(
    type_record: NodeType | EdgeType,
    properties: Iterable[Mapping[str, Any]],
    track_values: bool,
    endpoints: Iterable[tuple[int, int]] = (),
) -> TypeStats:
    """One type's stats from its members' properties and endpoints.

    Values are gathered per key in member order, then each key's
    :class:`PropertyPartial` folds its whole sequence at once; each
    ``(source, target)`` pair adds one to both degree maps.
    """
    keys = type_record.property_keys
    values: dict[str, list[Any]] = {}
    for member_properties in properties:
        for key, value in member_properties.items():
            if key in keys:
                bucket = values.get(key)
                if bucket is None:
                    values[key] = bucket = []
                bucket.append(value)
    stats = TypeStats()
    for key, bucket in values.items():
        partial = PropertyPartial()
        partial.observe_all(bucket, track_values)
        stats.properties[key] = partial
    out_degrees, in_degrees = stats.out_degrees, stats.in_degrees
    for source, target in endpoints:
        out_degrees[source] = out_degrees.get(source, 0) + 1
        in_degrees[target] = in_degrees.get(target, 0) + 1
    return stats


def fold_edge(
    stats: TypeStats,
    edge: Edge,
    keys: frozenset[str],
    track_values: bool = True,
) -> None:
    """Fold one member edge: its properties and endpoint degrees."""
    fold_properties(stats, edge.properties, keys, track_values)
    stats.out_degrees[edge.source] = stats.out_degrees.get(edge.source, 0) + 1
    stats.in_degrees[edge.target] = stats.in_degrees.get(edge.target, 0) + 1


def fold_properties(
    stats: TypeStats,
    properties: Mapping[str, Any],
    keys: frozenset[str],
    track_values: bool = True,
) -> None:
    """Fold one member's properties (restricted to the type's keys).

    ``track_values=False`` keeps only the datatype lattice and the
    observation count (see :meth:`PropertyPartial.observe_datatype`).
    """
    for key, value in properties.items():
        if key not in keys:
            continue
        partial = stats.properties.get(key)
        if partial is None:
            partial = PropertyPartial()
            stats.properties[key] = partial
        if track_values:
            partial.observe(value)
        else:
            partial.observe_datatype(value)


def apply_partial_stats(
    schema: SchemaGraph, config: PGHiveConfig | None = None
) -> bool:
    """Run post-processing from the merged partial stats; returns True.

    Sets every property's status, datatype (and, with
    ``config.infer_value_profiles``, value profile) and every edge
    type's degree extremes and cardinality -- byte for byte what
    :func:`infer_property_constraints`, :func:`infer_datatypes` and
    :func:`compute_cardinalities` compute over the store.  The stats
    stay attached, so the function may run after every batch; callers
    drop them with :func:`clear_partial_stats` once the run ends.

    Raises:
        ValueError: A type carries no stats (its members were never
            folded), naming the type.
    """
    config = config or PGHiveConfig()
    infer_property_constraints(schema)
    for type_record in _all_types(schema):
        stats = type_record.stats
        if stats is None:
            raise ValueError(
                f"type {type_record.name!r} carries no post-processing "
                f"stats"
            )
        for key, spec in type_record.properties.items():
            partial = stats.properties.get(key)
            if partial is None or partial.observations == 0:
                continue
            spec.datatype = partial.datatype
            if config.infer_value_profiles:
                spec.profile = partial.to_profile()
        if isinstance(type_record, EdgeType):
            max_out = max(stats.out_degrees.values(), default=0)
            max_in = max(stats.in_degrees.values(), default=0)
            type_record.max_out = max(type_record.max_out, max_out)
            type_record.max_in = max(type_record.max_in, max_in)
            type_record.cardinality = Cardinality.from_degrees(
                type_record.max_out, type_record.max_in
            )
    return True


def clear_partial_stats(schema: SchemaGraph) -> None:
    """Drop any attached partial stats (finished schemas carry none)."""
    for type_record in _all_types(schema):
        type_record.stats = None


def schema_stats_to_dict(schema: SchemaGraph) -> dict[str, Any]:
    """Per-type stats of a schema as a JSON-serializable dict."""
    return {
        "node_types": {
            name: node_type.stats.to_dict()
            for name, node_type in sorted(schema.node_types.items())
            if node_type.stats is not None
        },
        "edge_types": {
            name: edge_type.stats.to_dict()
            for name, edge_type in sorted(schema.edge_types.items())
            if edge_type.stats is not None
        },
    }


def schema_stats_from_dict(
    schema: SchemaGraph, record: dict[str, Any] | None
) -> None:
    """Re-attach journaled stats onto a reloaded schema in place."""
    if not record:
        return
    for name, stats in record.get("node_types", {}).items():
        node_type = schema.node_types.get(name)
        if node_type is not None:
            node_type.stats = TypeStats.from_dict(stats)
    for name, stats in record.get("edge_types", {}).items():
        edge_type = schema.edge_types.get(name)
        if edge_type is not None:
            edge_type.stats = TypeStats.from_dict(stats)
