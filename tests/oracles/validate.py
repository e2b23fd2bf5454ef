"""Per-element validation oracle for the columnar validator.

:func:`validate_elements` checks one element at a time against its
ranked covering types, with the same violation constructors as
:func:`repro.schema.validate.validate_columns`.  The columnar engine
must return byte-identical reports (``tests/test_validate_columns.py``
and ``tests/test_cli.py``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.graph.model import Edge, Node
from repro.schema.model import SchemaGraph
from repro.schema.validate import (
    ValidationMode,
    ValidationReport,
    Violation,
    _check_datatypes,
    _check_endpoints,
    _check_mandatory,
    _covering_edge_types_for,
    _covering_node_types_for,
    _no_type_violation,
)


def validate_elements(
    nodes: Sequence[Node],
    edges: Sequence[Edge],
    schema: SchemaGraph,
    mode: ValidationMode = ValidationMode.STRICT,
    endpoint_labels: Mapping[int, frozenset[str]] | None = None,
) -> ValidationReport:
    """Validate a batch one element at a time.

    ``endpoint_labels`` defaults to the labels of the batch's own nodes;
    unknown endpoints validate as unlabeled (endpoint checks skip them).
    """
    if endpoint_labels is None:
        endpoint_labels = {node.id: node.labels for node in nodes}
    empty: frozenset[str] = frozenset()
    report = ValidationReport(mode=mode)
    for node in nodes:
        report.checked += 1
        _validate_node(node, schema, mode, report)
    for edge in edges:
        report.checked += 1
        _validate_edge(
            edge,
            endpoint_labels.get(edge.source, empty),
            endpoint_labels.get(edge.target, empty),
            schema,
            mode,
            report,
        )
    return report


def _validate_node(
    node: Node,
    schema: SchemaGraph,
    mode: ValidationMode,
    report: ValidationReport,
) -> None:
    """A node conforms when *some* covering type accepts it.

    When every covering type rejects it, the violations of the first
    least-violating candidate are reported.
    """
    candidates = _covering_node_types_for(
        node.labels, node.property_keys, schema
    )
    if not candidates:
        report.violations.append(
            _no_type_violation("node", node.id, node.labels,
                               node.property_keys)
        )
        return
    if mode is not ValidationMode.STRICT:
        return
    best_failures: list[Violation] | None = None
    for node_type in candidates:
        failures: list[Violation] = []
        _check_mandatory(
            node.property_keys, node_type, "node", node.id, failures
        )
        _check_datatypes(
            node.properties, node_type, "node", node.id, failures
        )
        if not failures:
            return
        if best_failures is None or len(failures) < len(best_failures):
            best_failures = failures
    report.violations.extend(best_failures or [])


def _validate_edge(
    edge: Edge,
    source_labels: frozenset[str],
    target_labels: frozenset[str],
    schema: SchemaGraph,
    mode: ValidationMode,
    report: ValidationReport,
) -> None:
    """Find a covering edge type accepting the edge, or report failures."""
    candidates = _covering_edge_types_for(
        edge.labels, edge.property_keys, schema
    )
    if not candidates:
        report.violations.append(
            _no_type_violation("edge", edge.id, edge.labels, None)
        )
        return
    if mode is not ValidationMode.STRICT:
        return
    best_failures: list[Violation] | None = None
    for edge_type in candidates:
        failures: list[Violation] = []
        _check_mandatory(
            edge.property_keys, edge_type, "edge", edge.id, failures
        )
        _check_datatypes(
            edge.properties, edge_type, "edge", edge.id, failures
        )
        _check_endpoints(
            edge.id, edge_type, source_labels, target_labels, failures
        )
        if not failures:
            return
        if best_failures is None or len(failures) < len(best_failures):
            best_failures = failures
    report.violations.extend(best_failures or [])
