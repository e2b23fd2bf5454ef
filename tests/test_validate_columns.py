"""Property tests: columnar bulk validation == per-element reference.

``validate_columns`` (and its wrappers ``validate_batch`` and
``validate_graph``) must produce a report byte-identical to the
per-element oracle ``tests.oracles.validate_elements`` on the same
inputs: same checked count, same violations, same order, same detail
strings.  The corpus below stresses both modes, label-free nodes, abstract
(label-free) types, endpoint mismatches, unknown endpoints, multi-candidate
ties, and schemas discovered from real graphs.
"""

import random

import pytest

from repro.core.pipeline import PGHive
from repro.graph.model import Edge, Node
from repro.schema.model import (
    DataType,
    EdgeType,
    NodeType,
    PropertyStatus,
    SchemaGraph,
)
from repro.schema.validate import (
    ValidationMode,
    validate_batch,
    validate_graph,
)
from tests.oracles import validate_elements

LABELS = ["Person", "City", "Org", "Tag"]
KEYS = ["name", "age", "since", "weight", "rank"]
DATATYPES = [
    DataType.STRING,
    DataType.INTEGER,
    DataType.FLOAT,
    DataType.BOOLEAN,
    DataType.UNKNOWN,
]
VALUES = [1, -7, "s", "2021", 2.5, True, False, 0, "x y", 99.0]


def _random_schema(rng: random.Random) -> SchemaGraph:
    schema = SchemaGraph()
    for i in range(rng.randint(1, 4)):
        labels = frozenset(rng.sample(LABELS, rng.randint(0, 2)))
        node_type = NodeType(f"NT{i}", labels)
        for key in rng.sample(KEYS, rng.randint(0, 4)):
            spec = node_type.ensure_property(key)
            spec.datatype = rng.choice(DATATYPES)
            spec.status = rng.choice(list(PropertyStatus))
        schema.add_node_type(node_type)
    for i in range(rng.randint(1, 3)):
        labels = frozenset(rng.sample(LABELS, rng.randint(0, 2)))
        edge_type = EdgeType(
            f"ET{i}",
            labels,
            source_labels=frozenset(rng.sample(LABELS, rng.randint(0, 2))),
            target_labels=frozenset(rng.sample(LABELS, rng.randint(0, 2))),
        )
        for key in rng.sample(KEYS, rng.randint(0, 3)):
            spec = edge_type.ensure_property(key)
            spec.datatype = rng.choice(DATATYPES)
            spec.status = rng.choice(list(PropertyStatus))
        schema.add_edge_type(edge_type)
    return schema


def _random_elements(
    rng: random.Random,
) -> tuple[list[Node], list[Edge], dict[int, frozenset[str]]]:
    nodes = []
    for i in range(rng.randint(0, 25)):
        labels = frozenset(rng.sample(LABELS, rng.randint(0, 2)))
        properties = {
            key: rng.choice(VALUES)
            for key in rng.sample(KEYS, rng.randint(0, 4))
        }
        nodes.append(Node(i, labels, properties))
    endpoint_labels = {node.id: node.labels for node in nodes}
    edges = []
    if nodes:
        for j in range(rng.randint(0, 20)):
            # ids beyond the batch exercise the unknown-endpoint path
            source = rng.randint(0, len(nodes) + 2)
            target = rng.randint(0, len(nodes) + 2)
            labels = frozenset(rng.sample(LABELS, rng.randint(0, 2)))
            properties = {
                key: rng.choice(VALUES)
                for key in rng.sample(KEYS, rng.randint(0, 3))
            }
            edges.append(Edge(1000 + j, source, target, labels, properties))
    return nodes, edges, endpoint_labels


def _assert_reports_identical(reference, columnar):
    assert columnar.mode == reference.mode
    assert columnar.checked == reference.checked
    assert columnar.violations == reference.violations
    assert columnar.violation_rate == reference.violation_rate


class TestColumnarEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize(
        "mode", [ValidationMode.STRICT, ValidationMode.LOOSE]
    )
    def test_random_corpus(self, seed, mode):
        rng = random.Random(seed)
        schema = _random_schema(rng)
        nodes, edges, endpoint_labels = _random_elements(rng)
        reference = validate_elements(
            nodes, edges, schema, mode, endpoint_labels
        )
        columnar = validate_batch(
            nodes, edges, schema, mode, endpoint_labels
        )
        _assert_reports_identical(reference, columnar)

    @pytest.mark.parametrize("mode", [ValidationMode.STRICT,
                                      ValidationMode.LOOSE])
    def test_discovered_schema_round_trip(
        self, figure1_store, figure1_graph, mode
    ):
        """Both engines agree on a real graph under its own schema."""
        result = PGHive().discover(figure1_store)
        nodes = list(figure1_graph.nodes())
        edges = list(figure1_graph.edges())
        reference = validate_elements(nodes, edges, result.schema, mode)
        columnar = validate_batch(nodes, edges, result.schema, mode)
        _assert_reports_identical(reference, columnar)
        _assert_reports_identical(
            reference, validate_graph(figure1_graph, result.schema, mode)
        )
        assert columnar.is_valid

    def test_empty_batch(self):
        schema = SchemaGraph()
        report = validate_batch([], [], schema)
        assert report.checked == 0
        assert report.is_valid
        assert report.violation_rate == 0.0

    def test_no_type_pattern_shares_detail_per_row(self):
        """Every row of an uncovered pattern gets the same detail string."""
        schema = SchemaGraph()
        schema.add_node_type(NodeType("P", frozenset({"Person"})))
        nodes = [
            Node(i, frozenset({"Alien"}), {"name": "x"}) for i in range(5)
        ]
        reference = validate_elements(nodes, [], schema)
        columnar = validate_batch(nodes, [], schema)
        _assert_reports_identical(reference, columnar)
        assert len(columnar.violations) == 5
        assert len({v.detail for v in columnar.violations}) == 1

    def test_value_dependent_rows_diverge_within_pattern(self):
        """Same pattern, different verdicts once values are inspected."""
        schema = SchemaGraph()
        person = NodeType("Person", frozenset({"Person"}))
        age = person.ensure_property("age")
        age.datatype = DataType.INTEGER
        age.status = PropertyStatus.OPTIONAL
        schema.add_node_type(person)
        nodes = [
            Node(0, frozenset({"Person"}), {"age": 30}),
            Node(1, frozenset({"Person"}), {"age": "old"}),
            Node(2, frozenset({"Person"}), {"age": 7}),
        ]
        reference = validate_elements(nodes, [], schema)
        columnar = validate_batch(nodes, [], schema)
        _assert_reports_identical(reference, columnar)
        assert [v.element_id for v in columnar.violations] == [1]
