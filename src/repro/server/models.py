"""Wire models of the discovery service.

Request and response payloads are plain dataclasses with explicit
``from_dict`` / ``to_dict`` conversions (the repo carries no pydantic):
parsing is total -- any malformed field raises :class:`ApiError` with a
``400`` status and a message naming the offending field, never a bare
``KeyError``/``TypeError`` escaping into the HTTP layer.

Graph payloads use the JSONL element shape the rest of the repo reads
(``{"id": int, "labels": [...], "properties": {...}}`` for nodes, plus
``source``/``target`` for edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Mapping

from repro.core.columns import (
    EdgeRows,
    NodeRows,
    intern_key_rows,
    intern_label_rows,
)
from repro.graph.model import ID_MAX, ID_MIN, Edge, Node
from repro.schema.validate import ValidationMode

#: Characters allowed in session names -- they become checkpoint
#: directory names, so path separators and dots are rejected outright.
SESSION_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)

#: Schema response formats understood by ``GET .../schema``.
SCHEMA_FORMATS = ("json", "pgschema", "graphql")


class ApiError(RuntimeError):
    """A structured HTTP-mappable service error.

    Subclasses ``RuntimeError`` so the CLI's existing top-level handler
    (``pghive`` exception surface) needs no new leak-proofing for
    server-originated failures.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_dict(self) -> dict[str, Any]:
        """The error response body."""
        return {"error": self.code, "message": self.message}


def validate_session_name(name: str) -> str:
    """Return ``name`` or raise 400 when it is unusable as a session id."""
    if not name or len(name) > 64 or not set(name) <= SESSION_NAME_CHARS:
        raise ApiError(
            400,
            "bad-session-name",
            "session names are 1-64 characters from [A-Za-z0-9_-], "
            f"got {name!r}",
        )
    return name


def _require(body: Mapping[str, Any], key: str, kind: type, where: str) -> Any:
    value = body.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ApiError(
            400,
            "bad-request",
            f"{where}: field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}",
        )
    return value


def _require_id(record: Mapping[str, Any], key: str, where: str) -> int:
    value = int(_require(record, key, int, where))
    if not ID_MIN <= value <= ID_MAX:
        raise ApiError(400, "bad-request", _out_of_range(where, key, value))
    return value


def _out_of_range(where: str, key: str, value: object) -> str:
    return f"{where}: {key!r} {value} is outside the signed 64-bit id range"


def _parse_labels(record: Mapping[str, Any], where: str) -> frozenset[str]:
    labels = record.get("labels", [])
    if not isinstance(labels, list) or not all(
        isinstance(label, str) for label in labels
    ):
        raise ApiError(
            400, "bad-request", f"{where}: 'labels' must be a list of strings"
        )
    return frozenset(labels)


def _parse_properties(
    record: Mapping[str, Any], where: str
) -> dict[str, Any]:
    properties = record.get("properties", {})
    if not isinstance(properties, dict) or not all(
        isinstance(key, str) for key in properties
    ):
        raise ApiError(
            400,
            "bad-request",
            f"{where}: 'properties' must be an object with string keys",
        )
    return properties


def parse_nodes(records: Any, where: str = "nodes") -> list[Node]:
    """Parse a JSON array of node records into model nodes."""
    if not isinstance(records, list):
        raise ApiError(400, "bad-request", f"{where!r} must be an array")
    nodes: list[Node] = []
    for position, record in enumerate(records):
        label = f"{where}[{position}]"
        if not isinstance(record, dict):
            raise ApiError(400, "bad-request", f"{label} must be an object")
        nodes.append(Node(
            id=_require_id(record, "id", label),
            labels=_parse_labels(record, label),
            properties=_parse_properties(record, label),
        ))
    return nodes


def parse_edges(records: Any, where: str = "edges") -> list[Edge]:
    """Parse a JSON array of edge records into model edges."""
    if not isinstance(records, list):
        raise ApiError(400, "bad-request", f"{where!r} must be an array")
    edges: list[Edge] = []
    for position, record in enumerate(records):
        label = f"{where}[{position}]"
        if not isinstance(record, dict):
            raise ApiError(400, "bad-request", f"{label} must be an object")
        edges.append(Edge(
            id=_require_id(record, "id", label),
            source=_require_id(record, "source", label),
            target=_require_id(record, "target", label),
            labels=_parse_labels(record, label),
            properties=_parse_properties(record, label),
        ))
    return edges


def parse_endpoint_labels(
    value: Any, where: str = "endpoint_labels"
) -> dict[int, frozenset[str]] | None:
    """Parse the optional endpoint-label map (JSON keys arrive as strings)."""
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ApiError(
            400, "bad-request", f"{where!r} must map node ids to label lists"
        )
    parsed: dict[int, frozenset[str]] = {}
    for raw_id, labels in value.items():
        try:
            node_id = int(raw_id)
        except (TypeError, ValueError):
            raise ApiError(
                400, "bad-request",
                f"{where}: key {raw_id!r} is not an integer node id",
            ) from None
        if not ID_MIN <= node_id <= ID_MAX:
            raise ApiError(
                400, "bad-request", _out_of_range(where, "key", raw_id)
            )
        if not isinstance(labels, list) or not all(
            isinstance(label, str) for label in labels
        ):
            raise ApiError(
                400, "bad-request",
                f"{where}[{raw_id}] must be a list of strings",
            )
        parsed[node_id] = frozenset(labels)
    return parsed


def decode_endpoint_labels(
    value: Any, where: str = "endpoint_labels"
) -> dict[int, frozenset[str]] | None:
    """:func:`parse_endpoint_labels` in bulk passes.

    The same result and the same errors (a bad entry re-runs the
    per-entry parser); entries with equal label lists share one
    frozenset.
    """
    if type(value) is dict:
        decoded = _decode_endpoint_map(value)
        if decoded is not None:
            return decoded
    return parse_endpoint_labels(value, where)


def _decode_endpoint_map(
    value: dict[Any, Any]
) -> dict[int, frozenset[str]] | None:
    """The endpoint map in bulk passes; ``None`` when an entry is bad."""
    try:
        node_ids = list(map(int, value))
    except (TypeError, ValueError):
        return None
    if not _in_id_range(node_ids):
        return None
    rows = list(value.values())
    if not _all_of(list, rows):
        return None
    interned = _intern_labels(rows)
    if interned is None:
        return None
    label_ids, label_sets = interned
    return dict(zip(node_ids, [label_sets[i] for i in label_ids]))


def _all_of(kind: type, values: Iterable[Any]) -> bool:
    """Whether every value's type is exactly ``kind`` (bool is not int)."""
    return set(map(type, values)) <= {kind}


def _in_id_range(ids: list[int]) -> bool:
    """Whether every id fits the signed 64-bit id range."""
    return not ids or (min(ids) >= ID_MIN and max(ids) <= ID_MAX)


def _intern_labels(
    rows: list[list[Any]],
) -> tuple[list[int], list[frozenset[str]]] | None:
    """Intern label lists; ``None`` unless every label is a ``str``.

    Only the distinct sets are checked: a non-string label survives
    into them, since no other type compares equal to a ``str``.
    """
    try:
        label_ids, label_sets = intern_label_rows(map(tuple, rows))
    except TypeError:  # an unhashable label
        return None
    if not _all_of(str, chain.from_iterable(label_sets)):
        return None
    return label_ids, label_sets


#: ``dict.get`` as a plain callable, mapped over whole record arrays.
_field: Callable[..., Any] = dict.get

#: The interned label and key-set tables of a decoded record array:
#: ``(label_ids, label_sets, keyset_ids, key_orders)``.
_Tables = tuple[
    list[int], list[frozenset[str]], list[int], list[tuple[str, ...]]
]


def _decode_rows(
    records: Any, id_fields: tuple[str, ...]
) -> tuple[list[list[int]], _Tables, list[dict[str, Any]]] | None:
    """A record array in bulk passes, or ``None`` on any doubt.

    Exact type checks only (``type(x) is int``, never a subclass or a
    bool), each over a whole field column; labels and property keys are
    checked once per distinct set.  Returns the id columns in
    ``id_fields`` order, the interned tables and the property dicts
    themselves; ``None`` sends the caller to the per-record parser,
    which raises the error at the first bad record.
    """
    if type(records) is not list or not _all_of(dict, records):
        return None
    id_columns: list[list[int]] = []
    for name in id_fields:
        column = list(map(_field, records, repeat(name)))
        if not _all_of(int, column) or not _in_id_range(column):
            return None
        id_columns.append(column)
    no_labels: list[str] = []
    labels = list(map(_field, records, repeat("labels"), repeat(no_labels)))
    no_properties: dict[str, Any] = {}
    properties = list(
        map(_field, records, repeat("properties"), repeat(no_properties))
    )
    if not _all_of(list, labels) or not _all_of(dict, properties):
        return None
    interned = _intern_labels(labels)
    if interned is None:
        return None
    label_ids, label_sets = interned
    keyset_ids, key_orders = intern_key_rows(properties)
    if not _all_of(str, chain.from_iterable(key_orders)):
        return None
    tables = (label_ids, label_sets, keyset_ids, key_orders)
    return id_columns, tables, properties


def decode_nodes(records: Any, where: str = "nodes") -> NodeRows:
    """Check and decode a JSON array of node records into rows.

    Accepts and rejects exactly what :func:`parse_nodes` does, with the
    same error, and gives the rows of its nodes.
    """
    decoded = _decode_rows(records, ("id",))
    if decoded is None:
        return NodeRows.from_nodes(parse_nodes(records, where))
    (ids,), tables, properties = decoded
    label_ids, label_sets, keyset_ids, key_orders = tables
    return NodeRows(
        ids, label_ids, label_sets, keyset_ids, key_orders, properties
    )


def decode_edges(records: Any, where: str = "edges") -> EdgeRows:
    """Check and decode a JSON array of edge records into rows.

    Accepts and rejects exactly what :func:`parse_edges` does, with the
    same error, and gives the rows of its edges.
    """
    decoded = _decode_rows(records, ("id", "source", "target"))
    if decoded is None:
        return EdgeRows.from_edges(parse_edges(records, where))
    (ids, source, target), tables, properties = decoded
    label_ids, label_sets, keyset_ids, key_orders = tables
    return EdgeRows(
        ids, source, target, label_ids, label_sets, keyset_ids, key_orders,
        properties,
    )


def parse_mode(value: Any) -> ValidationMode:
    """Parse the optional ``mode`` field (default STRICT)."""
    if value is None:
        return ValidationMode.STRICT
    if isinstance(value, str):
        try:
            return ValidationMode(value.upper())
        except ValueError:
            pass
    raise ApiError(
        400, "bad-request", f"'mode' must be STRICT or LOOSE, got {value!r}"
    )


@dataclass(frozen=True, slots=True)
class BatchRequest:
    """``POST /sessions/{name}/batches`` body, decoded to rows.

    No element object is built: the records go straight into
    :class:`~repro.core.columns.NodeRows`/``EdgeRows``, the form the
    session columnizes.
    """

    nodes: NodeRows
    edges: EdgeRows
    endpoint_labels: dict[int, frozenset[str]] | None = None

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "BatchRequest":
        """Parse and validate a batch ingestion request."""
        return cls(
            nodes=decode_nodes(body.get("nodes", [])),
            edges=decode_edges(body.get("edges", [])),
            endpoint_labels=decode_endpoint_labels(
                body.get("endpoint_labels")
            ),
        )


@dataclass(frozen=True, slots=True)
class ValidateRequest:
    """``POST /sessions/{name}/validate`` body."""

    nodes: list[Node]
    edges: list[Edge]
    mode: ValidationMode = ValidationMode.STRICT
    endpoint_labels: dict[int, frozenset[str]] | None = None

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "ValidateRequest":
        """Parse and validate a bulk admission-check request."""
        return cls(
            nodes=parse_nodes(body.get("nodes", [])),
            edges=parse_edges(body.get("edges", [])),
            mode=parse_mode(body.get("mode")),
            endpoint_labels=parse_endpoint_labels(
                body.get("endpoint_labels")
            ),
        )


@dataclass(frozen=True, slots=True)
class CreateSessionRequest:
    """``POST /sessions`` body."""

    name: str

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "CreateSessionRequest":
        """Parse and validate a session creation request."""
        name = body.get("name")
        if not isinstance(name, str):
            raise ApiError(400, "bad-request", "'name' must be a string")
        return cls(name=validate_session_name(name))


@dataclass(frozen=True, slots=True)
class SessionInfo:
    """``GET /sessions/{name}`` response body."""

    name: str
    batches: int
    pending: int
    nodes_seen: int
    edges_seen: int
    node_types: int
    edge_types: int

    def to_dict(self) -> dict[str, Any]:
        """JSON response form."""
        return {
            "name": self.name,
            "batches": self.batches,
            "pending": self.pending,
            "nodes_seen": self.nodes_seen,
            "edges_seen": self.edges_seen,
            "node_types": self.node_types,
            "edge_types": self.edge_types,
        }


@dataclass(frozen=True, slots=True)
class TicketInfo:
    """``GET /tickets/{id}`` response body."""

    id: str
    session: str
    status: str
    batch_index: int | None = None
    error: str | None = None
    report: dict[str, Any] | None = field(default=None)

    def to_dict(self) -> dict[str, Any]:
        """JSON response form; unset optional fields are omitted."""
        record: dict[str, Any] = {
            "id": self.id,
            "session": self.session,
            "status": self.status,
        }
        if self.batch_index is not None:
            record["batch_index"] = self.batch_index
        if self.error is not None:
            record["error"] = self.error
        if self.report is not None:
            record["report"] = self.report
        return record
