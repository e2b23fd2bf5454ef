"""The daemon's row decoder against the per-record request parser.

``BatchRequest.from_dict`` decodes records in bulk passes straight into
:class:`~repro.core.columns.NodeRows`/``EdgeRows``; on any doubt it
re-runs the per-record parser (:func:`parse_nodes`, :func:`parse_edges`,
:func:`parse_endpoint_labels`).  These tests pin that a malformed
request fails with the parser's status, code and message, and that a
well-formed one decodes to the parser's elements.
"""

import json

import numpy as np
import pytest

from repro.core.columns import EdgeColumns, NodeColumns, edge_columns, node_columns
from repro.core.config import PGHiveConfig
from repro.datasets import get_dataset, inject_noise
from repro.graph.store import GraphStore
from repro.server import SchemaService
from repro.server.models import (
    ApiError,
    BatchRequest,
    decode_edges,
    decode_endpoint_labels,
    decode_nodes,
    parse_edges,
    parse_endpoint_labels,
    parse_nodes,
)
from tests.oracles.kernels import edge_columns_reference, node_columns_reference

_NODE = {"id": 1, "labels": ["A"], "properties": {"k": 1}}
_EDGE = {"id": 9, "source": 1, "target": 2, "labels": ["R"], "properties": {}}


def _with(record, **changes):
    """A copy of ``record`` with fields replaced (``_MISSING`` drops one)."""
    updated = dict(record)
    for key, value in changes.items():
        if value is _MISSING:
            updated.pop(key, None)
        else:
            updated[key] = value
    return updated


_MISSING = object()

#: One bad field per case, after some good records, so the first bad
#: record is not the first record.
_BAD_VALUES = {
    "id": [_MISSING, True, "7", 7.0, None, [7], 1 << 63, -(1 << 63) - 1],
    "labels": [None, "A", ("A",), {"A": 1}, [1], ["A", None], [["A"]],
               [True]],
    "properties": [None, [], "x", {1: "a"}, {None: 1}, {"a": 1, 2: "b"}],
}
_EDGE_BAD_VALUES = {
    **_BAD_VALUES,
    "source": [_MISSING, False, "1", 1.5, None, 1 << 64],
    "target": [_MISSING, True, "2", 2.5, None, -(1 << 64)],
}


def _node_cases():
    yield "not-a-list", {"id": 1}
    yield "string", "nodes"
    yield "none", None
    yield "record-not-object", [_NODE, ["id", 1]]
    yield "record-none", [_NODE, None]
    for field, values in _BAD_VALUES.items():
        for index, value in enumerate(values):
            bad = _with(_with(_NODE, id=3), **{field: value})
            yield f"{field}-{index}", [_NODE, _with(_NODE, id=2), bad]


def _edge_cases():
    yield "not-a-list", {"id": 1}
    yield "record-not-object", [_EDGE, 5]
    for field, values in _EDGE_BAD_VALUES.items():
        for index, value in enumerate(values):
            yield f"{field}-{index}", [
                _EDGE, _with(_with(_EDGE, id=10), **{field: value}),
                _with(_EDGE, id=11, source="bad-too"),
            ]
    # Two bad fields in one record: the parser's field order decides.
    yield "id-and-source", [_with(_EDGE, id="x", source="y")]
    yield "target-and-labels", [_with(_EDGE, target=None, labels=None)]


def _endpoint_cases():
    yield "list", [[1, ["A"]]]
    yield "string", "x"
    yield "float-key", {"1": ["A"], "1.5": ["B"]}
    yield "word-key", {"1": ["A"], "one": ["B"]}
    yield "huge-key", {"1": ["A"], str(1 << 63): ["B"]}
    yield "labels-none", {"1": ["A"], "2": None}
    yield "labels-string", {"1": "A"}
    yield "label-int", {"1": ["A"], "2": ["B", 3]}
    yield "label-list", {"1": [["A"]]}
    yield "tuple-labels", {"1": ("A",)}


def _error(parse, payload):
    try:
        result = parse(payload)
    except ApiError as error:
        return error.status, error.code, error.message
    return result


def _ids(cases):
    return [name for name, _ in cases]


@pytest.mark.parametrize(
    "payload", [p for _, p in _node_cases()], ids=_ids(_node_cases())
)
def test_malformed_nodes_fail_as_the_parser(payload):
    expected = _error(parse_nodes, payload)
    assert isinstance(expected, tuple), "case must be malformed"
    assert _error(decode_nodes, payload) == expected
    body = {"nodes": payload, "edges": []}
    assert _error(BatchRequest.from_dict, body) == expected


@pytest.mark.parametrize(
    "payload", [p for _, p in _edge_cases()], ids=_ids(_edge_cases())
)
def test_malformed_edges_fail_as_the_parser(payload):
    expected = _error(parse_edges, payload)
    assert isinstance(expected, tuple), "case must be malformed"
    assert _error(decode_edges, payload) == expected
    body = {"nodes": [_NODE], "edges": payload}
    assert _error(BatchRequest.from_dict, body) == expected


@pytest.mark.parametrize(
    "payload", [p for _, p in _endpoint_cases()], ids=_ids(_endpoint_cases())
)
def test_malformed_endpoint_labels_fail_as_the_parser(payload):
    expected = _error(parse_endpoint_labels, payload)
    assert isinstance(expected, tuple), "case must be malformed"
    assert _error(decode_endpoint_labels, payload) == expected
    body = {"nodes": [_NODE], "edges": [_EDGE], "endpoint_labels": payload}
    assert _error(BatchRequest.from_dict, body) == expected


@pytest.mark.parametrize("path", ["batches", "validate"])
def test_out_of_range_ids_are_a_400(path):
    """An id outside the int64 columns' range fails the request as a
    400 naming the first bad record, on ingest and on validate alike
    (it used to escape as a raw ``OverflowError``)."""
    huge = 9223372036854775813
    service = SchemaService(PGHiveConfig(server_workers=1))
    try:
        service.handle("POST", "/sessions", {}, {"name": "s"})
        for body, where in [
            ({"nodes": [_NODE, _with(_NODE, id=huge)]}, "nodes[1]: 'id'"),
            (
                {"nodes": [_NODE], "edges": [_with(_EDGE, target=huge)]},
                "edges[0]: 'target'",
            ),
        ]:
            with pytest.raises(ApiError) as error:
                service.handle("POST", f"/sessions/s/{path}", {}, body)
            assert error.value.status == 400
            assert error.value.message == (
                f"{where} {huge} is outside the signed 64-bit id range"
            )
    finally:
        service.sessions.shutdown()


def test_nodes_are_checked_before_edges():
    body = {"nodes": [_with(_NODE, id=None)], "edges": [_with(_EDGE, id=None)]}
    status, code, message = _error(BatchRequest.from_dict, body)
    assert (status, code) == (400, "bad-request")
    assert message.startswith("nodes[0]")


class _Sub(dict):
    pass


def test_subclasses_decode_through_the_parser():
    """Records the bulk pass does not trust (dict and int subclasses)
    still decode when the per-record parser accepts them."""
    class Id(int):
        pass

    records = [_Sub(_NODE), _with(_NODE, id=Id(5))]
    rows = decode_nodes(records)
    assert rows.ids == [1, 5] and type(rows.ids[1]) is int
    _assert_node_rows(rows, parse_nodes(records))


def _assert_columns(got, want):
    for name in ("ids", "label_ids", "keyset_ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype
    if isinstance(want, EdgeColumns):
        for name in ("source", "target", "src_label_ids", "tgt_label_ids"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.labels.sets == want.labels.sets
    assert got.labels.tokens == want.labels.tokens
    assert got.keys.sets == want.keys.sets
    assert got.keys.orders == want.keys.orders


def _assert_node_rows(rows, nodes):
    assert isinstance(rows.columns(), NodeColumns)
    _assert_columns(rows.columns(), node_columns(nodes))
    _assert_columns(rows.columns(), node_columns_reference(nodes))
    assert list(rows.properties) == [node.properties for node in nodes]


def _element_record(element):
    record = {"id": element.id}
    if hasattr(element, "source"):
        record.update(source=element.source, target=element.target)
    record["labels"] = sorted(element.labels)
    record["properties"] = dict(element.properties)
    return record


def _generated(name):
    generated = get_dataset(name, scale=0.5, seed=3)
    if name == "IYP":
        generated = inject_noise(
            generated, property_noise=0.2, label_availability=0.5, seed=4
        )
    return GraphStore(generated.graph)


@pytest.mark.parametrize("name", ["POLE", "LDBC", "IYP", "ICIJ"])
def test_decoded_columns_equal_the_object_columns(name):
    """On the generators, every decoded batch columnizes exactly as the
    parser's objects do, with the parser's endpoint map."""
    for batch in _generated(name).batches(3, seed=0):
        body = json.loads(json.dumps({
            "nodes": [_element_record(node) for node in batch.nodes],
            "edges": [_element_record(edge) for edge in batch.edges],
            "endpoint_labels": {
                str(node_id): sorted(labels)
                for node_id, labels in batch.endpoint_labels.items()
            },
        }))
        request = BatchRequest.from_dict(body)
        nodes = parse_nodes(body["nodes"])
        edges = parse_edges(body["edges"])
        endpoint_labels = parse_endpoint_labels(body["endpoint_labels"])
        assert request.endpoint_labels == endpoint_labels
        _assert_node_rows(request.nodes, nodes)
        ecols = request.edges.columns(endpoint_labels)
        _assert_columns(ecols, edge_columns(edges, endpoint_labels))
        _assert_columns(ecols, edge_columns_reference(edges, endpoint_labels))
        assert list(request.edges.properties) == [
            edge.properties for edge in edges
        ]
        assert request.edges.source == [edge.source for edge in edges]
        assert request.edges.target == [edge.target for edge in edges]


def test_key_order_is_first_seen_per_key_set():
    records = [
        {"id": 1, "properties": {"b": 1, "a": 2}},
        {"id": 2, "properties": {"a": 1, "b": 2}},
        {"id": 3, "labels": ["X", "X", "Y"]},
        {"id": 4, "labels": ["Y", "X"], "properties": {}},
    ]
    rows = decode_nodes(records)
    assert rows.key_orders == [("b", "a"), ()]
    assert rows.keyset_ids == [0, 0, 1, 1]
    assert rows.label_sets == [frozenset(), frozenset({"X", "Y"})]
    assert rows.label_ids == [0, 0, 1, 1]
    _assert_node_rows(rows, parse_nodes(records))
