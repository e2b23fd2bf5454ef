"""Validating a property graph against a discovered schema.

The paper motivates constraint inference with "validation processes"; this
module closes that loop.  Validation runs in two modes mirroring PG-Schema:

* LOOSE -- every element must be *covered* by some type (labels a subset of
  a type's labels, properties a subset of its keys); extra types of data are
  reported but mandatory constraints are not enforced.
* STRICT -- additionally enforces MANDATORY properties, datatype
  compatibility of values, and (for edges) endpoint label compatibility.

The validator returns a structured report rather than raising, because
noisy real datasets are expected to violate STRICT schemas (section 4.5).

One engine, :func:`validate_columns`, checks every batch; its wrappers
:func:`validate_batch` (explicit node/edge lists: the service's validate
endpoint and ``pghive validate``) and :func:`validate_graph` (a whole
graph) columnize first.  Candidate-type matching is computed once per
distinct (label set, key set[, endpoint labels]) pattern over
:class:`~repro.core.columns.NodeColumns` /
:class:`~repro.core.columns.EdgeColumns`, so a batch of N rows costs
O(distinct patterns) for coverage, candidate ranking, mandatory and
endpoint checks; only rows whose candidate types declare checkable
datatypes for the pattern's keys are touched individually (value
compatibility is inherently per-value).  ``tests/test_validate_columns.py``
property-tests the reports byte-identical to a per-element oracle
(``tests/oracles/validate.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.columns import (
    EdgeColumns,
    NodeColumns,
    edge_columns,
    node_columns,
)
from repro.core.datatypes import infer_value_type, is_value_compatible
from repro.graph.model import Edge, Node, PropertyGraph
from repro.schema.model import (
    DataType,
    EdgeType,
    NodeType,
    PropertyStatus,
    SchemaGraph,
)


class ValidationMode(enum.Enum):
    """Conformance strictness."""

    LOOSE = "LOOSE"
    STRICT = "STRICT"


@dataclass(frozen=True, slots=True)
class Violation:
    """One conformance failure."""

    element_kind: str  # "node" | "edge"
    element_id: int
    rule: str
    detail: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the service's wire format)."""
        return {
            "element_kind": self.element_kind,
            "element_id": self.element_id,
            "rule": self.rule,
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    """Aggregate validation outcome."""

    mode: ValidationMode
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        """True when no violations were recorded."""
        return not self.violations

    @property
    def violation_count(self) -> int:
        """Raw number of recorded violations (an element may have many)."""
        return len(self.violations)

    @property
    def violating_elements(self) -> int:
        """Number of distinct elements with at least one violation."""
        return len({(v.element_kind, v.element_id) for v in self.violations})

    @property
    def violation_rate(self) -> float:
        """Fraction of checked elements that violate at least one rule.

        Counts violating *elements*, not violations: an element failing
        several rules contributes once, so the rate is always in
        ``[0, 1]``.  The raw violation count stays available as
        :attr:`violation_count`.
        """
        if self.checked == 0:
            return 0.0
        return self.violating_elements / self.checked

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the service's wire format)."""
        return {
            "mode": self.mode.value,
            "checked": self.checked,
            "valid": self.is_valid,
            "violation_count": self.violation_count,
            "violating_elements": self.violating_elements,
            "violation_rate": self.violation_rate,
            "violations": [v.to_dict() for v in self.violations],
        }


def validate_graph(
    graph: PropertyGraph,
    schema: SchemaGraph,
    mode: ValidationMode = ValidationMode.STRICT,
) -> ValidationReport:
    """Check every node and edge of ``graph`` against ``schema``."""
    return validate_batch(
        list(graph.nodes()), list(graph.edges()), schema, mode
    )


def _no_type_violation(
    kind: str,
    element_id: int,
    labels: frozenset[str],
    keys: frozenset[str] | None,
) -> Violation:
    """The coverage failure: no schema type accepts the element."""
    detail = f"no schema type covers labels={sorted(labels)}"
    if keys is not None:
        detail += f" keys={sorted(keys)}"
    return Violation(kind, element_id, "no-type", detail)


def _check_endpoints(
    edge_id: int,
    edge_type: EdgeType,
    source_labels: frozenset[str],
    target_labels: frozenset[str],
    report: list[Violation],
) -> None:
    """Endpoint labels must intersect the type's endpoint label sets."""
    if (
        edge_type.source_labels
        and source_labels
        and not (source_labels & edge_type.source_labels)
    ):
        report.append(Violation(
            "edge", edge_id, "endpoint",
            f"source labels {sorted(source_labels)} not among "
            f"{sorted(edge_type.source_labels)}",
        ))
    if (
        edge_type.target_labels
        and target_labels
        and not (target_labels & edge_type.target_labels)
    ):
        report.append(Violation(
            "edge", edge_id, "endpoint",
            f"target labels {sorted(target_labels)} not among "
            f"{sorted(edge_type.target_labels)}",
        ))


def _covering_node_types_for(
    labels: frozenset[str], keys: frozenset[str], schema: SchemaGraph
) -> list[NodeType]:
    """Covering node types, best label match first.

    Exact label matches rank before supersets; supersets rank by label
    overlap.  Ties keep schema insertion order (sort stability), which is
    deterministic because type insertion is.
    """
    covering = [
        node_type
        for node_type in schema.node_types.values()
        if (not labels or labels <= node_type.labels)
        and keys <= node_type.property_keys
    ]
    covering.sort(
        key=lambda t: (
            t.labels == labels,
            len(labels & t.labels),
        ),
        reverse=True,
    )
    return covering


def _covering_edge_types_for(
    labels: frozenset[str], keys: frozenset[str], schema: SchemaGraph
) -> list[EdgeType]:
    """Covering edge types, best label match first.

    Ranks exactly like :func:`_covering_node_types_for`: an exact label
    match outranks any superset, then label overlap breaks remaining
    ties (insertion order last).  STRICT failures are therefore reported
    against the most informative candidate -- previously a superset type
    with equal overlap could shadow the exact match.
    """
    covering = [
        edge_type
        for edge_type in schema.edge_types.values()
        if (not labels or labels <= edge_type.labels)
        and keys <= edge_type.property_keys
    ]
    covering.sort(
        key=lambda t: (
            t.labels == labels,
            len(labels & t.labels),
        ),
        reverse=True,
    )
    return covering


def _check_mandatory(
    present_keys: frozenset[str],
    type_record: NodeType | EdgeType,
    kind: str,
    element_id: int,
    report: list[Violation],
) -> None:
    """Every MANDATORY property must be present on the instance."""
    for key, spec in type_record.properties.items():
        if spec.status is PropertyStatus.MANDATORY and key not in present_keys:
            report.append(Violation(
                kind, element_id, "mandatory",
                f"missing mandatory property {key!r} of type "
                f"{type_record.name!r}",
            ))


def _check_datatypes(
    properties: Mapping[str, Any],
    type_record: NodeType | EdgeType,
    kind: str,
    element_id: int,
    report: list[Violation],
) -> None:
    """Property values must be compatible with the declared datatypes."""
    for key, value in properties.items():
        spec = type_record.properties.get(key)
        if spec is None or spec.datatype in (DataType.UNKNOWN, DataType.STRING):
            continue
        if not is_value_compatible(value, spec.datatype):
            report.append(Violation(
                kind, element_id, "datatype",
                f"property {key!r}={value!r} is {infer_value_type(value).value},"
                f" schema declares {spec.datatype.value}",
            ))


# ---------------------------------------------------------------------------
# Columnar bulk admission checking
# ---------------------------------------------------------------------------


@dataclass
class _PatternPlan:
    """Per-distinct-pattern validation plan, computed once per pattern.

    ``verdict`` short-circuits whole patterns:

    * ``"no-type"`` -- no covering candidate; every row gets the
      (pattern-constant) coverage violation;
    * ``"accept"`` -- some candidate is guaranteed to accept every row of
      the pattern without looking at values (no mandatory gaps, no
      endpoint clashes, and no checkable datatype among the pattern's
      keys), or the mode is LOOSE and a candidate covers the pattern;
    * ``"check"`` -- rows need their property values inspected against
      the (pattern-constant, pre-ranked) candidate list.
    """

    verdict: str
    kind: str
    # "no-type": the detail string shared by every row of the pattern.
    no_type_detail: str = ""
    # "check": pre-ranked candidates with their pattern-level failures.
    candidates: list["_CandidatePlan"] = field(default_factory=list)


@dataclass
class _CandidatePlan:
    """One covering type's pattern-level failure components."""

    type_record: NodeType | EdgeType
    # Pattern-constant violation details (mandatory + endpoint); a row
    # emits them around its datatype failures (see _check_row).
    mandatory_details: list[str] = field(default_factory=list)
    endpoint_details: list[str] = field(default_factory=list)
    # Whether any of the pattern's keys has a checkable declared datatype
    # on this candidate (if not, datatype failures are impossible).
    needs_values: bool = False


def validate_batch(
    nodes: Sequence[Node],
    edges: Sequence[Edge],
    schema: SchemaGraph,
    mode: ValidationMode = ValidationMode.STRICT,
    endpoint_labels: Mapping[int, frozenset[str]] | None = None,
) -> ValidationReport:
    """Columnize a batch and run the bulk admission checker.

    The convenience entry point of the service's validate endpoint and
    the ``pghive validate`` CLI.

    Args:
        nodes: Batch nodes.
        edges: Batch edges (endpoints may live outside the batch).
        schema: The schema to conform to.
        mode: PG-Schema strictness.
        endpoint_labels: node id -> label set for edge endpoints; defaults
            to the labels of the batch's own nodes.  Unknown endpoints
            validate as unlabeled (endpoint checks are skipped for them,
            matching how an absent label set behaves in the paper's LOOSE
            reading).
    """
    if endpoint_labels is None:
        endpoint_labels = {node.id: node.labels for node in nodes}
    ncols = node_columns(nodes)
    ecols = edge_columns(edges, dict(endpoint_labels))
    return validate_columns(
        schema,
        ncols,
        ecols,
        mode,
        node_properties=lambda row: nodes[row].properties,
        edge_properties=lambda row: edges[row].properties,
    )


def validate_columns(
    schema: SchemaGraph,
    ncols: NodeColumns,
    ecols: EdgeColumns,
    mode: ValidationMode = ValidationMode.STRICT,
    node_properties: Callable[[int], Mapping[str, Any]] | None = None,
    edge_properties: Callable[[int], Mapping[str, Any]] | None = None,
) -> ValidationReport:
    """Bulk admission check over columnized batches.

    Candidate matching, ranking, coverage, mandatory and endpoint checks
    run once per distinct pattern; ``node_properties`` /
    ``edge_properties`` (batch row index -> property mapping) are only
    called for rows whose pattern requires value inspection.  Omitting
    an accessor treats the corresponding rows as property-less for the
    datatype check (their key sets still drive coverage/mandatory), so
    callers that columnized away the values can still screen traffic.

    An element conforms when *some* covering type accepts it.  When
    every covering type rejects it, the violations of the first
    least-violating candidate are reported (the most informative
    failure), elements in row order, nodes before edges.
    """
    report = ValidationReport(mode=mode)
    report.checked = len(ncols) + len(ecols)

    node_plans = _node_pattern_plans(schema, ncols, mode)
    pattern_ids, _ = ncols.pattern_ids()
    for row, pattern in enumerate(pattern_ids.tolist()):
        plan = node_plans[pattern]
        if plan.verdict == "accept":
            continue
        if plan.verdict == "no-type":
            report.violations.append(Violation(
                "node", int(ncols.ids[row]), "no-type", plan.no_type_detail
            ))
            continue
        properties = node_properties(row) if node_properties else {}
        _check_row(
            plan, int(ncols.ids[row]), properties, report.violations
        )

    edge_plans = _edge_pattern_plans(schema, ecols, mode)
    epattern_ids, _ = ecols.pattern_ids()
    for row, pattern in enumerate(epattern_ids.tolist()):
        plan = edge_plans[pattern]
        if plan.verdict == "accept":
            continue
        if plan.verdict == "no-type":
            report.violations.append(Violation(
                "edge", int(ecols.ids[row]), "no-type", plan.no_type_detail
            ))
            continue
        properties = edge_properties(row) if edge_properties else {}
        _check_row(
            plan, int(ecols.ids[row]), properties, report.violations
        )
    return report


def _check_row(
    plan: _PatternPlan,
    element_id: int,
    properties: Mapping[str, Any],
    out: list[Violation],
) -> None:
    """Evaluate one row against its pattern's pre-ranked candidates.

    The first candidate with zero failures accepts; otherwise the first
    least-failing candidate's violations are reported, in mandatory ->
    datatype -> endpoint order.
    """
    kind = plan.kind
    best: list[Violation] | None = None
    for candidate in plan.candidates:
        failures = [
            Violation(kind, element_id, "mandatory", detail)
            for detail in candidate.mandatory_details
        ]
        if candidate.needs_values:
            _check_datatypes(
                properties, candidate.type_record, kind, element_id,
                failures,
            )
        failures.extend(
            Violation(kind, element_id, "endpoint", detail)
            for detail in candidate.endpoint_details
        )
        if not failures:
            return
        if best is None or len(failures) < len(best):
            best = failures
    out.extend(best or [])


def _node_pattern_plans(
    schema: SchemaGraph, ncols: NodeColumns, mode: ValidationMode
) -> list[_PatternPlan]:
    """One validation plan per distinct node (label set, key set) pattern."""
    _, representatives = ncols.pattern_ids()
    plans: list[_PatternPlan] = []
    for rep in representatives.tolist():
        labels = ncols.labels.sets[int(ncols.label_ids[rep])]
        keys = ncols.keys.sets[int(ncols.keyset_ids[rep])]
        candidates = _covering_node_types_for(labels, keys, schema)
        plans.append(_build_plan("node", candidates, labels, keys,
                                 None, None, mode))
    return plans


def _edge_pattern_plans(
    schema: SchemaGraph, ecols: EdgeColumns, mode: ValidationMode
) -> list[_PatternPlan]:
    """One plan per distinct edge (labels, src, tgt, keys) pattern."""
    _, representatives = ecols.pattern_ids()
    plans: list[_PatternPlan] = []
    for rep in representatives.tolist():
        labels = ecols.labels.sets[int(ecols.label_ids[rep])]
        src_labels = ecols.labels.sets[int(ecols.src_label_ids[rep])]
        tgt_labels = ecols.labels.sets[int(ecols.tgt_label_ids[rep])]
        keys = ecols.keys.sets[int(ecols.keyset_ids[rep])]
        candidates = _covering_edge_types_for(labels, keys, schema)
        plans.append(_build_plan("edge", candidates, labels, keys,
                                 src_labels, tgt_labels, mode))
    return plans


def _build_plan(
    kind: str,
    candidates: Sequence[NodeType] | Sequence[EdgeType],
    labels: frozenset[str],
    keys: frozenset[str],
    src_labels: frozenset[str] | None,
    tgt_labels: frozenset[str] | None,
    mode: ValidationMode,
) -> _PatternPlan:
    """Fold a pattern's candidate list into a reusable verdict."""
    if not candidates:
        template = _no_type_violation(
            kind, 0, labels, keys if kind == "node" else None
        )
        return _PatternPlan(
            "no-type", kind, no_type_detail=template.detail
        )
    if mode is not ValidationMode.STRICT:
        return _PatternPlan("accept", kind)
    plans: list[_CandidatePlan] = []
    for type_record in candidates:
        mandatory: list[Violation] = []
        _check_mandatory(keys, type_record, kind, 0, mandatory)
        endpoint: list[Violation] = []
        if (
            isinstance(type_record, EdgeType)
            and src_labels is not None
            and tgt_labels is not None
        ):
            _check_endpoints(
                0, type_record, src_labels, tgt_labels, endpoint
            )
        needs_values = any(
            (spec := type_record.properties.get(key)) is not None
            and spec.datatype not in (DataType.UNKNOWN, DataType.STRING)
            for key in keys
        )
        if not mandatory and not endpoint and not needs_values:
            # Guaranteed acceptance: every row of the pattern reaches this
            # candidate with zero failures (datatype failures are
            # impossible without checkable keys), so no row of the
            # pattern can ever emit a violation.
            return _PatternPlan("accept", kind)
        plans.append(_CandidatePlan(
            type_record,
            mandatory_details=[v.detail for v in mandatory],
            endpoint_details=[v.detail for v in endpoint],
            needs_values=needs_values,
        ))
    return _PatternPlan("check", kind, candidates=plans)
