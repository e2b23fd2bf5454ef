"""Graph serialization: JSON-lines and Neo4j-style CSV.

JSONL is the native interchange format (one record per line, explicit
``kind`` discriminator).  The CSV flavour mirrors the ``neo4j-admin import``
layout used by several of the paper's dataset distributions: a node file
with ``id``/``labels`` columns and an edge file with ``start``/``end``/
``type`` columns, property columns alongside.

Real dumps are dirty -- truncated lines, duplicate ids, dangling edge
endpoints -- so every loader takes an ``on_error`` policy:

* ``"raise"`` (default): the first malformed record raises
  :class:`ValueError` with ``path:line`` context, matching the strict
  historical behaviour;
* ``"skip"``: malformed records are dropped and loading continues (an
  optional :class:`IngestReport` still records what was dropped);
* ``"collect"``: like ``"skip"``, but a caller-supplied
  :class:`IngestReport` is mandatory so no rejection is ever silently
  lost -- each :class:`IngestError` carries the file path, 1-based line
  number and a human-readable reason.

A record rejected under ``skip``/``collect`` never partially mutates the
graph: parsing and validation happen before insertion, and the model's
own integrity errors (duplicate ids, unknown endpoints) are caught and
converted into :class:`IngestError` entries.
"""

from __future__ import annotations

import csv
import gc
import json
import pickle
from dataclasses import dataclass, field
from itertools import groupby, starmap
from pathlib import Path
from typing import Any, Callable, Iterator, Protocol, Sequence, cast

import numpy

from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.slab import EDGE_KIND, NODE_KIND

_ON_ERROR_POLICIES = ("raise", "skip", "collect")

#: Rows buffered before a chunk is handed to the sink in one call.
DEFAULT_CHUNK_ROWS = 2048

#: Approximate payload bytes buffered before a chunk flushes early.
#: Rows with fat properties (documents, blobs) would otherwise pin
#: ``DEFAULT_CHUNK_ROWS`` of them in memory at once, defeating the disk
#: backend's bounded-memory ingest; the byte cap keeps peak chunk size
#: independent of row width while small rows still batch by count.
DEFAULT_CHUNK_BYTES = 2 << 20


#: One node row of the streaming loaders: ``(id, labels, properties)``.
NodeRow = tuple[int, frozenset[str], dict[str, Any]]

#: One edge row: ``(id, source, target, labels, properties)``.
EdgeRow = tuple[int, int, int, frozenset[str], dict[str, Any]]


class GraphSink(Protocol):
    """Chunk-oriented insertion target of the streaming loaders.

    The loaders hand the sink validated *rows* -- plain tuples, never
    :class:`~repro.graph.model.Node`/:class:`~repro.graph.model.Edge`
    objects.  An in-memory load wraps the rows into objects in
    :class:`GraphRowSink`; :class:`~repro.graph.slab.SlabWriter` takes
    the same rows straight into its columns.  Each call inserts the
    accepted rows in order and returns ``(position, reason)`` pairs for
    rejected ones.
    """

    def add_nodes(self, rows: Sequence[NodeRow]) -> list[tuple[int, str]]:
        """Insert a node-row chunk; return per-position rejects."""
        ...

    def add_edges(self, rows: Sequence[EdgeRow]) -> list[tuple[int, str]]:
        """Insert an edge-row chunk; return per-position rejects."""
        ...


class GraphRowSink:
    """:class:`GraphSink` over a :class:`PropertyGraph`.

    Wraps each row into a :class:`Node`/:class:`Edge` and hands the
    chunk to the graph's bulk :meth:`~PropertyGraph.add_nodes` /
    :meth:`~PropertyGraph.add_edges`, which own the integrity checks.
    """

    def __init__(self, graph: PropertyGraph) -> None:
        self.graph = graph

    def add_nodes(self, rows: Sequence[NodeRow]) -> list[tuple[int, str]]:
        """Insert a node-row chunk; return per-position rejects."""
        return self.graph.add_nodes(starmap(Node, rows))

    def add_edges(self, rows: Sequence[EdgeRow]) -> list[tuple[int, str]]:
        """Insert an edge-row chunk; return per-position rejects."""
        return self.graph.add_edges(starmap(Edge, rows))


@dataclass
class IngestError:
    """One rejected input record.

    Attributes:
        path: File the record came from.
        line: 1-based physical line number within that file.
        reason: Human-readable cause of the rejection.
    """

    path: str
    line: int
    reason: str

    def describe(self) -> str:
        """``path:line: reason`` -- the compiler-style one-liner."""
        return f"{self.path}:{self.line}: {self.reason}"


@dataclass
class IngestReport:
    """Outcome of a lenient (``skip``/``collect``) graph load.

    Attributes:
        errors: Every rejected record, in file order.
        nodes_loaded: Nodes successfully added to the graph.
        edges_loaded: Edges successfully added to the graph.
    """

    errors: list[IngestError] = field(default_factory=list)
    nodes_loaded: int = 0
    edges_loaded: int = 0

    @property
    def ok(self) -> bool:
        """True when no record was rejected."""
        return not self.errors

    def describe(self) -> str:
        """Multi-line summary: counts first, then one line per error."""
        lines = [
            f"loaded {self.nodes_loaded} nodes, {self.edges_loaded} edges; "
            f"rejected {len(self.errors)} records"
        ]
        lines.extend(error.describe() for error in self.errors)
        return "\n".join(lines)


class _ErrorPolicy:
    """Shared rejection handling for the loaders."""

    def __init__(
        self,
        path: str | Path,
        on_error: str,
        report: IngestReport | None,
    ) -> None:
        if on_error not in _ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR_POLICIES}, "
                f"got {on_error!r}"
            )
        if on_error == "collect" and report is None:
            raise ValueError(
                "on_error='collect' requires an IngestReport to collect into"
            )
        self.path = Path(path)
        self.on_error = on_error
        self.report = report
        #: Invoked before any reject is recorded.  The chunked ingest
        #: path points this at its flush so buffered earlier rows land
        #: (and report *their* rejects) first -- keeping error order and
        #: raise-mode behaviour identical to per-record insertion.  The
        #: hook may re-enter ``reject``; flushes clear their buffers
        #: before reporting, so re-entry is a no-op.
        self.flush_hook: Callable[[], None] | None = None

    def reject(self, line: int, reason: str) -> None:
        """Record one bad record; raise when the policy is strict."""
        if self.flush_hook is not None:
            self.flush_hook()
        if self.report is not None:
            self.report.errors.append(
                IngestError(str(self.path), line, reason)
            )
        if self.on_error == "raise":
            raise ValueError(f"{self.path}:{line}: {reason}")


class _ChunkedInserter:
    """Buffers parsed rows and hands kind-homogeneous chunks to a sink.

    The per-record ``graph.add_node`` / ``try``/``except`` round-trip
    of the original loaders dominated ingest time; this batches rows
    into ``chunk_rows``-sized chunks and lets the sink validate in one
    locals-bound loop.  A chunk flushes when full and whenever the
    record kind flips (nodes vs. edges), so insertion order -- and
    therefore integrity validation -- still follows file order exactly.
    Insert-time rejects are reported against the buffered line numbers;
    under ``on_error="raise"`` the first reject raises only once its
    chunk flushes, with the same message the per-record path produced.
    """

    def __init__(
        self,
        sink: GraphSink,
        policy: _ErrorPolicy,
        report: IngestReport | None,
        chunk_rows: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        self._sink = sink
        self._policy = policy
        self._report = report
        self._chunk_rows = chunk_rows
        self._chunk_bytes = chunk_bytes
        self._weight = 0
        self._lines: list[int] = []
        self._nodes: list[NodeRow] = []
        self._edges: list[EdgeRow] = []
        policy.flush_hook = self.flush

    def push_node(
        self, line_number: int, row: NodeRow, weight: int = 0
    ) -> None:
        """Buffer one node row, flushing when the chunk is full.

        ``weight`` is the row's approximate payload size (the loaders
        pass the raw record length); a chunk flushes early once the
        accumulated weight reaches the byte cap.
        """
        if self._edges:
            self.flush()
        self._lines.append(line_number)
        self._nodes.append(row)
        self._weight += weight
        if (
            len(self._lines) >= self._chunk_rows
            or self._weight >= self._chunk_bytes
        ):
            self.flush()

    def push_edge(
        self, line_number: int, row: EdgeRow, weight: int = 0
    ) -> None:
        """Buffer one edge row, flushing when the chunk is full."""
        if self._nodes:
            self.flush()
        self._lines.append(line_number)
        self._edges.append(row)
        self._weight += weight
        if (
            len(self._lines) >= self._chunk_rows
            or self._weight >= self._chunk_bytes
        ):
            self.flush()

    def flush(self) -> None:
        """Hand the buffered chunk to the sink and report its rejects."""
        lines = self._lines
        if not lines:
            return
        self._lines = []
        self._weight = 0
        if self._nodes:
            node_rows = self._nodes
            self._nodes = []
            rejects = self._sink.add_nodes(node_rows)
            if self._report is not None:
                self._report.nodes_loaded += len(node_rows) - len(rejects)
        else:
            edge_rows = self._edges
            self._edges = []
            rejects = self._sink.add_edges(edge_rows)
            if self._report is not None:
                self._report.edges_loaded += len(edge_rows) - len(rejects)
        for position, reason in rejects:
            self._policy.reject(lines[position], reason)


def save_graph_jsonl(graph: PropertyGraph, path: str | Path) -> None:
    """Write a graph as JSON lines (nodes first, then edges)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for node in graph.nodes():
            record = {
                "kind": "node",
                "id": node.id,
                "labels": sorted(node.labels),
                "properties": dict(node.properties),
            }
            handle.write(json.dumps(record, default=str) + "\n")
        for edge in graph.edges():
            record = {
                "kind": "edge",
                "id": edge.id,
                "source": edge.source,
                "target": edge.target,
                "labels": sorted(edge.labels),
                "properties": dict(edge.properties),
            }
            handle.write(json.dumps(record, default=str) + "\n")


def _record_int(
    record: dict[str, Any],
    key: str,
    kind: str,
    reject: Callable[[int, str], None],
    line_number: int,
) -> int | None:
    """Fetch an integer field, rejecting missing/non-integer values.

    Integers, integral floats and digit strings (the CSV loader's cells)
    pass; ``true``/``false`` and ``12.5`` are rejected, not read as 1, 0
    and 12.
    """
    if key not in record:
        reject(line_number, f"{kind} record missing {key!r}")
        return None
    value = record[key]
    if not isinstance(value, bool) and not (
        isinstance(value, float) and not value.is_integer()
    ):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    reject(line_number, f"non-integer {kind} {key} {value!r}")
    return None


def json_scanner() -> Callable[[str, int], tuple[Any, int]]:
    """The stdlib decoder's C scanner, for :func:`parse_jsonl_record`.

    ``scan_once`` is an instance attribute the type stubs leave out; it
    skips the decode()/raw_decode() wrappers ``json.loads`` adds per
    call.
    """
    scan: Callable[[str, int], tuple[Any, int]] = getattr(
        json.JSONDecoder(), "scan_once"
    )
    return scan


def parse_jsonl_record(
    line: str,
    line_number: int,
    reject: Callable[[int, str], None],
    scan: Callable[[str, int], tuple[Any, int]],
) -> NodeRow | EdgeRow | None:
    """Validate one stripped, non-blank JSONL line into a row.

    The one per-line validation of the JSONL loaders: the memory loader
    and the slab range scanner both call it, so their reject messages
    cannot drift.  Returns a :data:`NodeRow` (three fields) or an
    :data:`EdgeRow` (five fields), or ``None`` after reporting each
    problem through ``reject(line_number, reason)`` (which may raise).
    ``scan`` is :func:`json_scanner`'s C scanner: a parse that consumes
    the stripped line whole is exactly a ``json.loads`` success, and
    anything else goes back through ``json.loads`` for its exact reject
    message.
    """
    try:
        record, end = scan(line, 0)
    except (StopIteration, json.JSONDecodeError):
        end = -1
    if end != len(line):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            reject(line_number, f"invalid JSON: {exc.msg}")
            return None
    if not isinstance(record, dict):
        reject(line_number, "record is not a JSON object")
        return None
    kind = record.get("kind")
    if kind == "node":
        node_id = record.get("id")
        if type(node_id) is not int:
            node_id = _record_int(record, "id", "node", reject, line_number)
            if node_id is None:
                return None
        try:
            labels = frozenset(record.get("labels", ()))
            properties = record.get("properties", {})
            if type(properties) is not dict:
                properties = dict(properties)
        except (TypeError, ValueError):
            reject(line_number, "malformed node record")
            return None
        return (node_id, labels, properties)
    if kind == "edge":
        edge_id = record.get("id")
        source = record.get("source")
        target = record.get("target")
        if (
            type(edge_id) is not int
            or type(source) is not int
            or type(target) is not int
        ):
            # Every id field is checked (and rejected) in turn, so a
            # lenient load reports each bad field.
            fields = [
                _record_int(record, key, "edge", reject, line_number)
                for key in ("id", "source", "target")
            ]
            if any(value is None for value in fields):
                return None
            edge_id, source, target = fields
        try:
            labels = frozenset(record.get("labels", ()))
            properties = record.get("properties", {})
            if type(properties) is not dict:
                properties = dict(properties)
        except (TypeError, ValueError):
            reject(line_number, "malformed edge record")
            return None
        return (edge_id, source, target, labels, properties)
    reject(line_number, f"unknown record kind {kind!r}")
    return None


def stream_graph_jsonl(
    path: str | Path,
    sink: GraphSink | PropertyGraph,
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> None:
    """Stream a JSONL graph file into a :class:`GraphSink` in chunks.

    The workhorse behind :func:`load_graph_jsonl`: rows are parsed one
    line at a time by :func:`parse_jsonl_record` into
    :data:`NodeRow`/:data:`EdgeRow` tuples (no element objects),
    buffered into ``chunk_rows``-sized chunks, and handed to the sink in
    file order -- peak memory is one chunk, never the file.  The disk
    backend ingests through :func:`scan_jsonl_range` instead.

    Args:
        path: JSONL file to read.
        sink: Row insertion target; a :class:`PropertyGraph` is wrapped
            in a :class:`GraphRowSink`.
        on_error: ``"raise"`` | ``"skip"`` | ``"collect"`` (see module
            docstring).
        report: Sink for :class:`IngestError` records and load counts.
        chunk_rows: Rows buffered per sink call.

    Raises:
        ValueError: A malformed record under ``on_error="raise"`` (the
            message carries ``path:line``), or an invalid policy.
        FileNotFoundError: The file does not exist.
    """
    path = Path(path)
    if isinstance(sink, PropertyGraph):
        sink = GraphRowSink(sink)
    policy = _ErrorPolicy(path, on_error, report)
    inserter = _ChunkedInserter(sink, policy, report, chunk_rows)
    push_node = inserter.push_node
    push_edge = inserter.push_edge
    reject = policy.reject
    scan = json_scanner()
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            row = parse_jsonl_record(line, line_number, reject, scan)
            if row is None:
                continue
            if len(row) == 3:
                push_node(line_number, cast(NodeRow, row), len(line))
            else:
                push_edge(line_number, cast(EdgeRow, row), len(line))
    inserter.flush()


def load_graph_jsonl(
    path: str | Path,
    name: str | None = None,
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> PropertyGraph:
    """Read a graph previously written by :func:`save_graph_jsonl`.

    Args:
        path: JSONL file to read.
        name: Graph name (defaults to the file stem).
        on_error: ``"raise"`` | ``"skip"`` | ``"collect"`` (see module
            docstring).
        report: Sink for :class:`IngestError` records and load counts;
            required when ``on_error="collect"``.
        chunk_rows: Rows handed to the graph per bulk insert.

    Raises:
        ValueError: A malformed record under ``on_error="raise"`` (the
            message carries ``path:line``), or an invalid policy.
        FileNotFoundError: The file does not exist.
    """
    path = Path(path)
    graph = PropertyGraph(name or path.stem)
    stream_graph_jsonl(
        path, graph, on_error=on_error, report=report,
        chunk_rows=chunk_rows,
    )
    return graph


# ----------------------------------------------------------------------
# Line-aligned byte ranges: the slab ingest's unit of work
# ----------------------------------------------------------------------
#: Floor of the ingest range size, so small files are not cut into
#: ranges whose per-range cost outweighs the scan.
MIN_RANGE_BYTES = 64 << 10

#: A file is cut into about this many ranges, unless ``slab_bytes`` caps
#: the range size lower.
RANGES_PER_FILE = 16


def jsonl_range_bytes(file_size: int, slab_bytes: int) -> int:
    """Target byte size of one ingest range.

    Depends only on the file and ``slab_bytes`` -- never on the worker
    count -- so the range cut, the commit points and therefore the
    whole slab directory are the same at any ``jobs``.
    """
    return min(slab_bytes, max(MIN_RANGE_BYTES, file_size // RANGES_PER_FILE))


def cut_jsonl_ranges(
    path: str | Path, start: int, range_bytes: int
) -> Iterator[tuple[int, int]]:
    """Cut ``path`` from byte ``start`` into line-aligned ranges.

    Yields ``(start, stop)`` byte offsets.  A range ends just after the
    first ``\\n`` at or past ``range_bytes`` bytes into it (a line
    longer than a range extends that range), or at end of file.  Each
    range starts where the previous one stopped, so cutting from any
    range boundary of an earlier cut reproduces that cut's tail -- which
    is how a resumed ingest lands on the clean ingest's ranges.
    """
    with Path(path).open("rb") as handle:
        size = handle.seek(0, 2)
        offset = start
        while offset < size:
            handle.seek(offset + range_bytes - 1)
            stop = handle.tell() + len(handle.readline())
            yield offset, stop
            offset = stop


def _split_lines(data: bytes) -> list[str]:
    """Decode a range and split it the way text-mode iteration does.

    Universal newlines: ``\\r\\n``, ``\\r`` and ``\\n`` all end a line
    (``str.splitlines`` would also split on characters JSON strings may
    hold raw, such as ``\\u2028``).  Line terminators are dropped.
    """
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def jsonl_line_offset(
    path: str | Path, lines: int, range_bytes: int
) -> int:
    """Byte offset just past the first ``lines`` lines of ``path``.

    Walks the file range by range, counting lines, so memory stays at
    one range; how a resumed ingest turns its committed line marker back
    into the byte offset it cuts the rest of the file from.
    """
    counted = 0
    with Path(path).open("rb") as handle:
        for start, stop in cut_jsonl_ranges(path, 0, range_bytes):
            if counted == lines:
                return start
            handle.seek(start)
            data = handle.read(stop - start)
            here = data.splitlines(keepends=True)
            if counted + len(here) <= lines:
                counted += len(here)
                continue
            return start + sum(len(line) for line in here[: lines - counted])
        return handle.seek(0, 2)


@dataclass
class RowSegment:
    """A kind-homogeneous run of scanned rows, in file order.

    Every column is int64 and one entry per row.  ``label_ids`` and
    ``key_ids`` index the chunk's local interners of ``kind``; ``ends``
    are the end offsets of each row's property pickle in the chunk heap,
    whose first row starts at ``heap_start``.  Edge-only columns are
    empty on node segments.
    """

    kind: str
    lines: numpy.ndarray
    ids: numpy.ndarray
    sources: numpy.ndarray
    targets: numpy.ndarray
    label_ids: numpy.ndarray
    key_ids: numpy.ndarray
    ends: numpy.ndarray
    heap_start: int


@dataclass
class JsonlChunk:
    """One scanned byte range of a JSONL file, ready for the slab writer.

    Line numbers are local: 1 is the range's first line.  Interners are
    per kind, in first-seen order within the range (a key order is the
    first row's own dict order).  ``rejects`` are the parse rejects as
    ``(local line, reason)`` in line order; id and endpoint checks need
    the rows of earlier ranges and happen when the chunk is appended
    (:meth:`repro.graph.slab.SlabWriter.append_chunk`).
    """

    lines: int
    segments: list[RowSegment]
    heap: bytearray
    label_sets: dict[str, list[frozenset[str]]]
    key_orders: dict[str, list[tuple[str, ...]]]
    rejects: list[tuple[int, str]]


def _int64(values: list[int]) -> numpy.ndarray:
    """One int64 column from a list of row values."""
    return numpy.array(values, dtype=numpy.int64)


def scan_jsonl_range(path: str, start: int, stop: int) -> JsonlChunk:
    """Worker: scan bytes ``[start, stop)`` of a JSONL file into a chunk.

    Parses and validates each line with :func:`parse_jsonl_record`,
    then lays each kind-homogeneous run of rows out as slab columns:
    id, endpoint, local interner and heap-offset columns plus the
    pickled property heap.  Self-contained, so it runs in-process or on
    a forked worker alike.
    """
    with Path(path).open("rb") as handle:
        handle.seek(start)
        lines = _split_lines(handle.read(stop - start))
    rejects: list[tuple[int, str]] = []
    add_reject = rejects.append

    def reject(line_number: int, reason: str) -> None:
        add_reject((line_number, reason))

    scan = json_scanner()
    rows: list[tuple[int, tuple[Any, ...]]] = []
    # The parsed records hold no reference cycles, and a range's worth
    # of them stays alive until its columns are built: cyclic GC passes
    # over them would only re-traverse the whole heap, for nothing.
    paused = gc.isenabled()
    gc.disable()
    try:
        for line_number, line in enumerate(lines, start=1):
            line = line.strip()
            if line:
                row = parse_jsonl_record(line, line_number, reject, scan)
                if row is not None:
                    rows.append((line_number, row))
    finally:
        if paused:
            gc.enable()
    heap = bytearray()
    dumps = pickle.dumps
    label_sets: dict[str, list[frozenset[str]]] = {
        NODE_KIND: [], EDGE_KIND: [],
    }
    key_orders: dict[str, list[tuple[str, ...]]] = {
        NODE_KIND: [], EDGE_KIND: [],
    }
    label_index: dict[str, dict[frozenset[str], int]] = {
        NODE_KIND: {}, EDGE_KIND: {},
    }
    key_index: dict[str, dict[frozenset[str], int]] = {
        NODE_KIND: {}, EDGE_KIND: {},
    }
    segments: list[RowSegment] = []
    for is_edge, group in groupby(rows, key=lambda item: len(item[1]) == 5):
        run = list(group)
        kind = EDGE_KIND if is_edge else NODE_KIND
        heap_start = len(heap)
        labels_seen = label_index[kind]
        label_table = label_sets[kind]
        keys_seen = key_index[kind]
        key_table = key_orders[kind]
        label_ids: list[int] = []
        key_ids: list[int] = []
        ends: list[int] = []
        for _, row in run:
            labels = row[-2]
            label_id = labels_seen.get(labels)
            if label_id is None:
                label_id = labels_seen[labels] = len(label_table)
                label_table.append(labels)
            label_ids.append(label_id)
            properties = row[-1]
            key_set = frozenset(properties)
            key_id = keys_seen.get(key_set)
            if key_id is None:
                key_id = keys_seen[key_set] = len(key_table)
                key_table.append(tuple(properties))
            key_ids.append(key_id)
            heap += dumps(properties, protocol=5)
            ends.append(len(heap))
        empty: list[int] = []
        segments.append(RowSegment(
            kind,
            _int64([number for number, _ in run]),
            _int64([row[0] for _, row in run]),
            _int64([row[1] for _, row in run] if is_edge else empty),
            _int64([row[2] for _, row in run] if is_edge else empty),
            _int64(label_ids),
            _int64(key_ids),
            _int64(ends),
            heap_start,
        ))
    return JsonlChunk(
        len(lines), segments, heap, label_sets, key_orders, rejects
    )


def save_graph_csv(graph: PropertyGraph, nodes_path: str | Path,
                   edges_path: str | Path) -> None:
    """Write a graph as a node CSV and an edge CSV (Neo4j import layout).

    Property values are JSON-encoded so they round-trip with their types.
    Labels are ``;``-joined in a single column, as in Neo4j's bulk format.
    """
    node_keys = sorted(graph.node_property_keys())
    edge_keys = sorted(graph.edge_property_keys())
    with Path(nodes_path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "labels", *node_keys])
        for node in graph.nodes():
            row: list[str] = [str(node.id), ";".join(sorted(node.labels))]
            for key in node_keys:
                row.append(_encode_cell(node.properties.get(key)))
            writer.writerow(row)
    with Path(edges_path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "start", "end", "type", *edge_keys])
        for edge in graph.edges():
            row = [
                str(edge.id), str(edge.source), str(edge.target),
                ";".join(sorted(edge.labels)),
            ]
            for key in edge_keys:
                row.append(_encode_cell(edge.properties.get(key)))
            writer.writerow(row)


def _row_ints(
    row: list[str],
    count: int,
    kind: str,
    policy: _ErrorPolicy,
    line_number: int,
) -> list[int] | None:
    """Parse the leading ``count`` id cells of a CSV row as integers."""
    if len(row) <= count:
        policy.reject(line_number, f"truncated {kind} row")
        return None
    values: list[int] = []
    for cell in row[:count]:
        try:
            values.append(int(cell))
        except ValueError:
            policy.reject(
                line_number, f"non-integer {kind} id cell {cell!r}"
            )
            return None
    return values


def load_graph_csv(
    nodes_path: str | Path,
    edges_path: str | Path,
    name: str = "graph",
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> PropertyGraph:
    """Read a graph previously written by :func:`save_graph_csv`.

    Accepts the same ``on_error`` / ``report`` policy as
    :func:`load_graph_jsonl`; rejected rows are reported against the
    file they came from (node or edge CSV) with their physical line
    number.
    """
    graph = PropertyGraph(name)
    sink = GraphRowSink(graph)
    node_policy = _ErrorPolicy(nodes_path, on_error, report)
    node_inserter = _ChunkedInserter(sink, node_policy, report, chunk_rows)
    with Path(nodes_path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        keys = header[2:]
        for row in reader:
            line_number = reader.line_num
            if not row:
                continue
            ids = _row_ints(row, 1, "node", node_policy, line_number)
            if ids is None:
                continue
            labels = frozenset(part for part in row[1].split(";") if part)
            try:
                properties = _decode_cells(keys, row[2:])
            except json.JSONDecodeError as exc:
                node_policy.reject(
                    line_number, f"invalid JSON property cell: {exc.msg}"
                )
                continue
            node_inserter.push_node(line_number, (ids[0], labels, properties))
    node_inserter.flush()
    edge_policy = _ErrorPolicy(edges_path, on_error, report)
    edge_inserter = _ChunkedInserter(sink, edge_policy, report, chunk_rows)
    with Path(edges_path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        keys = header[4:]
        for row in reader:
            line_number = reader.line_num
            if not row:
                continue
            ids = _row_ints(row, 3, "edge", edge_policy, line_number)
            if ids is None:
                continue
            labels = frozenset(part for part in row[3].split(";") if part)
            try:
                properties = _decode_cells(keys, row[4:])
            except json.JSONDecodeError as exc:
                edge_policy.reject(
                    line_number, f"invalid JSON property cell: {exc.msg}"
                )
                continue
            edge_inserter.push_edge(
                line_number, (ids[0], ids[1], ids[2], labels, properties)
            )
    edge_inserter.flush()
    return graph


def load_graph_apoc_jsonl(
    path: str | Path,
    name: str | None = None,
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> PropertyGraph:
    """Read a Neo4j ``apoc.export.json`` JSONL dump.

    APOC emits one JSON object per line with ``"type": "node"`` records
    (``id``, ``labels``, ``properties``) followed by
    ``"type": "relationship"`` records whose ``start``/``end`` are nested
    node references and whose relationship type is the ``label`` field.
    Node ids in the dump are strings; they are remapped to dense ints.
    Edge ids are dense too, and a rejected relationship does not consume
    one -- the next accepted relationship takes its id, exactly as when
    rows were inserted one at a time.

    Accepts the same ``on_error`` / ``report`` policy as
    :func:`load_graph_jsonl`.
    """
    path = Path(path)
    policy = _ErrorPolicy(path, on_error, report)
    graph = PropertyGraph(name or path.stem)
    node_ids: dict[str, int] = {}
    next_edge_id = 0
    node_lines: list[int] = []
    node_buffer: list[Node] = []
    rel_lines: list[int] = []
    rel_buffer: list[tuple[int, int, frozenset[str], dict[str, Any]]] = []

    def flush_nodes() -> None:
        if not node_buffer:
            return
        lines = node_lines[:]
        chunk = node_buffer[:]
        node_lines.clear()
        node_buffer.clear()
        rejects = graph.add_nodes(chunk)
        if report is not None:
            report.nodes_loaded += len(chunk) - len(rejects)
        for position, reason in rejects:
            policy.reject(lines[position], reason)

    def flush_relationships() -> None:
        # Relationships validate against the graph, so every node that
        # preceded them in the file must land first.
        nonlocal next_edge_id
        flush_nodes()
        if not rel_buffer:
            return
        lines = rel_lines[:]
        pending = rel_buffer[:]
        rel_lines.clear()
        rel_buffer.clear()
        edges: list[Edge] = []
        edge_lines: list[int] = []
        for line_number, parts in zip(lines, pending):
            source, target, labels, properties = parts
            # Pre-validate endpoints so a rejected relationship never
            # consumes an edge id (messages match PropertyGraph.add_edge).
            if not graph.has_node(source):
                policy.reject(
                    line_number,
                    f"edge {next_edge_id}: unknown source {source}",
                )
                continue
            if not graph.has_node(target):
                policy.reject(
                    line_number,
                    f"edge {next_edge_id}: unknown target {target}",
                )
                continue
            edges.append(Edge(
                id=next_edge_id,
                source=source,
                target=target,
                labels=labels,
                properties=properties,
            ))
            edge_lines.append(line_number)
            next_edge_id += 1
        rejects = graph.add_edges(edges)
        if report is not None:
            report.edges_loaded += len(edges) - len(rejects)
        for position, reason in rejects:
            policy.reject(edge_lines[position], reason)

    policy.flush_hook = flush_relationships
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                policy.reject(line_number, f"invalid JSON: {exc.msg}")
                continue
            if not isinstance(record, dict):
                policy.reject(line_number, "record is not a JSON object")
                continue
            kind = record.get("type")
            if kind == "node":
                if "id" not in record:
                    policy.reject(line_number, "node record missing 'id'")
                    continue
                raw_id = str(record["id"])
                node_id = node_ids.setdefault(raw_id, len(node_ids))
                try:
                    node = Node(
                        id=node_id,
                        labels=frozenset(record.get("labels", ())),
                        properties=dict(record.get("properties", {})),
                    )
                except (TypeError, ValueError) as exc:
                    policy.reject(line_number, str(exc))
                    continue
                if rel_buffer:
                    flush_relationships()
                node_lines.append(line_number)
                node_buffer.append(node)
                if len(node_buffer) >= chunk_rows:
                    flush_nodes()
            elif kind == "relationship":
                try:
                    source = node_ids[str(record["start"]["id"])]
                    target = node_ids[str(record["end"]["id"])]
                except (KeyError, TypeError):
                    policy.reject(
                        line_number,
                        "relationship references an unknown node",
                    )
                    continue
                label = record.get("label")
                try:
                    labels = frozenset([label] if label else ())
                    properties = dict(record.get("properties", {}))
                except (TypeError, ValueError) as exc:
                    policy.reject(line_number, str(exc))
                    continue
                rel_lines.append(line_number)
                rel_buffer.append((source, target, labels, properties))
                if len(rel_buffer) >= chunk_rows:
                    flush_relationships()
            else:
                policy.reject(
                    line_number, f"unknown APOC record type {kind!r}"
                )
    flush_relationships()
    return graph


def _encode_cell(value: Any) -> str:
    """JSON-encode one CSV cell; absent properties become empty cells."""
    if value is None:
        return ""
    return json.dumps(value, default=str)


def _decode_cells(keys: list[str], cells: list[str]) -> dict[str, Any]:
    """Inverse of :func:`_encode_cell` over a property row."""
    properties: dict[str, Any] = {}
    for key, cell in zip(keys, cells):
        if cell == "":
            continue
        properties[key] = json.loads(cell)
    return properties
