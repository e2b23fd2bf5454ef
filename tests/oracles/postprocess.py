"""Per-member §4.4 fold oracle for the column fold of ``core.postprocess``.

:func:`repro.core.postprocess.attach_column_stats` reaches each member's
properties through a position-indexed property column, gathers each
type's values key by key, folds every key's sequence at once and counts
degrees from the batch's endpoint columns.  The fold it replaced lives
here: one :func:`~repro.core.postprocess.fold_properties` /
:func:`~repro.core.postprocess.fold_edge` call per member object, each
observing one value at a time.  Both must attach equal stats
(``schema_stats_to_dict``; ``tests/test_fold_columns.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.postprocess import TypeStats, fold_edge, fold_properties
from repro.graph.model import Edge, Node
from repro.schema.model import SchemaGraph


def attach_partial_stats_reference(
    schema: SchemaGraph,
    nodes: Sequence[Node],
    edges: Sequence[Edge],
    track_values: bool = True,
) -> None:
    """Attach :class:`TypeStats` to every type, one member at a time."""
    node_by_id = {node.id: node for node in nodes}
    edge_by_id = {edge.id: edge for edge in edges}
    for node_type in schema.node_types.values():
        stats = TypeStats()
        keys = node_type.property_keys
        for member in node_type.members:
            fold_properties(
                stats, node_by_id[member].properties, keys, track_values
            )
        node_type.stats = stats
    for edge_type in schema.edge_types.values():
        stats = TypeStats()
        keys = edge_type.property_keys
        for member in edge_type.members:
            fold_edge(stats, edge_by_id[member], keys, track_values)
        edge_type.stats = stats
