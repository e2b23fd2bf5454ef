"""Object-at-a-time ingest oracle for the row and range ingests.

:func:`repro.graph.io.stream_graph_jsonl` parses each line with the
JSON scanner and hands ``(id, labels, properties)`` rows to its sink;
the slab ingest scans line-aligned byte ranges into column chunks and
appends them without building an element object.  The path they
replaced lives here: ``json.loads`` per line, a frozen
:class:`Node`/:class:`Edge` per record, a property ``dict`` copy, and a
slab writer that takes the objects apart again, one line at a time.
Both must produce byte-identical slab directories, equal
:class:`IngestReport`\\ s and equal graphs (``tests/test_ingest_rows.py``,
``tests/test_ingest_ranges.py``).
"""

from __future__ import annotations

import csv
import json
import pickle
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.graph.diskstore import ingest_source_key
from repro.graph.io import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_CHUNK_ROWS,
    IngestReport,
    _decode_cells,
    _ErrorPolicy,
    _record_int,
    _row_ints,
    cut_jsonl_ranges,
    jsonl_range_bytes,
)
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.slab import (
    DEFAULT_SLAB_BYTES,
    EDGE_KIND,
    NODE_KIND,
    SlabWriter,
)


class ObjectSlabWriter(SlabWriter):
    """A :class:`SlabWriter` whose appends take element objects.

    Rows are buffered until :meth:`commit`, never flushed early, so a
    raise between commits leaves the files at the last commit.
    """

    def add_nodes(self, nodes: Sequence[Node]) -> list[tuple[int, str]]:
        state = self._kinds[NODE_KIND]
        rejects: list[tuple[int, str]] = []
        columns: dict[str, list[int]] = {
            "ids": [], "labels": [], "keys": [], "propend": [],
        }
        heap = bytearray()
        for position, node in enumerate(nodes):
            if node.id in state.ids_seen:
                rejects.append((position, f"duplicate node id {node.id}"))
                continue
            state.ids_seen.add(node.id)
            columns["ids"].append(node.id)
            columns["labels"].append(state.intern_labels(node.labels))
            columns["keys"].append(state.intern_keys(node.properties))
            heap += pickle.dumps(dict(node.properties), protocol=5)
            columns["propend"].append(state.heap_end + len(heap))
        state.push(columns, heap)
        self._uncommitted += len(heap)
        return rejects

    def add_edges(self, edges: Sequence[Edge]) -> list[tuple[int, str]]:
        state = self._kinds[EDGE_KIND]
        node_ids = self._kinds[NODE_KIND].ids_seen
        rejects: list[tuple[int, str]] = []
        columns: dict[str, list[int]] = {
            "ids": [], "src": [], "tgt": [], "labels": [], "keys": [],
            "propend": [],
        }
        heap = bytearray()
        for position, edge in enumerate(edges):
            if edge.id in state.ids_seen:
                rejects.append((position, f"duplicate edge id {edge.id}"))
                continue
            if edge.source not in node_ids:
                rejects.append(
                    (position, f"edge {edge.id}: unknown source {edge.source}")
                )
                continue
            if edge.target not in node_ids:
                rejects.append(
                    (position, f"edge {edge.id}: unknown target {edge.target}")
                )
                continue
            state.ids_seen.add(edge.id)
            columns["ids"].append(edge.id)
            columns["src"].append(edge.source)
            columns["tgt"].append(edge.target)
            columns["labels"].append(state.intern_labels(edge.labels))
            columns["keys"].append(state.intern_keys(edge.properties))
            heap += pickle.dumps(dict(edge.properties), protocol=5)
            columns["propend"].append(state.heap_end + len(heap))
        state.push(columns, heap)
        self._uncommitted += len(heap)
        return rejects


class ObjectChunkedInserter:
    """Buffers element objects; flushes on a full chunk or a kind flip."""

    def __init__(
        self,
        sink: Any,
        policy: _ErrorPolicy,
        report: IngestReport | None,
        chunk_rows: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self._sink = sink
        self._policy = policy
        self._report = report
        self._chunk_rows = chunk_rows
        self._chunk_bytes = chunk_bytes
        self._weight = 0
        self._lines: list[int] = []
        self._nodes: list[Node] = []
        self._edges: list[Edge] = []
        policy.flush_hook = self.flush

    def _push(self, line_number: int, weight: int) -> None:
        self._lines.append(line_number)
        self._weight += weight
        if (
            len(self._lines) >= self._chunk_rows
            or self._weight >= self._chunk_bytes
        ):
            self.flush()

    def push_node(self, line_number: int, node: Node, weight: int = 0) -> None:
        if self._edges:
            self.flush()
        self._nodes.append(node)
        self._push(line_number, weight)

    def push_edge(self, line_number: int, edge: Edge, weight: int = 0) -> None:
        if self._nodes:
            self.flush()
        self._edges.append(edge)
        self._push(line_number, weight)

    def flush(self) -> None:
        lines = self._lines
        if not lines:
            return
        if self._nodes:
            chunk: list[Node] | list[Edge] = self._nodes
            rejects = self._sink.add_nodes(self._nodes)
            self._nodes = []
        else:
            chunk = self._edges
            rejects = self._sink.add_edges(self._edges)
            self._edges = []
        self._lines = []
        self._weight = 0
        if self._report is not None:
            loaded = len(chunk) - len(rejects)
            if isinstance(chunk[0], Node):
                self._report.nodes_loaded += loaded
            else:
                self._report.edges_loaded += loaded
        for position, reason in rejects:
            self._policy.reject(lines[position], reason)


def stream_graph_jsonl_reference(
    path: str | Path,
    sink: Any,
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    on_line: Callable[[ObjectChunkedInserter, int], None] | None = None,
) -> None:
    """``json.loads`` + one element object per line, into an object sink.

    ``on_line(inserter, line_number)`` runs after every physical line,
    blank and rejected ones included.
    """
    path = Path(path)
    policy = _ErrorPolicy(path, on_error, report)
    inserter = ObjectChunkedInserter(sink, policy, report, chunk_rows)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            _insert_line(line.strip(), line_number, policy, inserter)
            if on_line is not None:
                on_line(inserter, line_number)
    inserter.flush()


def _insert_line(
    line: str,
    line_number: int,
    policy: _ErrorPolicy,
    inserter: ObjectChunkedInserter,
) -> None:
    """Parse one stripped line into an element object and buffer it."""
    if not line:
        return
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        policy.reject(line_number, f"invalid JSON: {exc.msg}")
        return
    if not isinstance(record, dict):
        policy.reject(line_number, "record is not a JSON object")
        return
    kind = record.get("kind")
    if kind == "node":
        node_id = _record_int(record, "id", "node", policy.reject, line_number)
        if node_id is None:
            return
        try:
            node = Node(
                id=node_id,
                labels=frozenset(record.get("labels", ())),
                properties=dict(record.get("properties", {})),
            )
        except (TypeError, ValueError):
            policy.reject(line_number, "malformed node record")
            return
        inserter.push_node(line_number, node, len(line))
    elif kind == "edge":
        fields = [
            _record_int(record, key, "edge", policy.reject, line_number)
            for key in ("id", "source", "target")
        ]
        if any(value is None for value in fields):
            return
        edge_id, source, target = fields
        try:
            edge = Edge(
                id=edge_id,
                source=source,
                target=target,
                labels=frozenset(record.get("labels", ())),
                properties=dict(record.get("properties", {})),
            )
        except (TypeError, ValueError):
            policy.reject(line_number, "malformed edge record")
            return
        inserter.push_edge(line_number, edge, len(line))
    else:
        policy.reject(line_number, f"unknown record kind {kind!r}")


def load_graph_jsonl_reference(
    path: str | Path,
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> PropertyGraph:
    """The object loader: element objects straight into the graph."""
    path = Path(path)
    graph = PropertyGraph(path.stem)
    stream_graph_jsonl_reference(
        path, graph, on_error=on_error, report=report, chunk_rows=chunk_rows
    )
    return graph


def range_end_lines(path: str | Path, slab_bytes: int) -> list[int]:
    """Last line of every ingest range of ``path``, counted by bytes."""
    path = Path(path)
    range_bytes = jsonl_range_bytes(path.stat().st_size, slab_bytes)
    data = path.read_bytes()
    ends: list[int] = []
    line = 0
    for start, stop in cut_jsonl_ranges(path, 0, range_bytes):
        line += len(data[start:stop].splitlines())
        ends.append(line)
    return ends


def ingest_jsonl_slabs_reference(
    path: str | Path,
    directory: str | Path,
    slab_bytes: int = DEFAULT_SLAB_BYTES,
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> None:
    """A fresh slab ingest through the object path, line at a time.

    Commits where the range ingest does: after the last line of a
    range, once ``slab_bytes`` of payload is uncommitted.
    """
    path = Path(path)
    writer = ObjectSlabWriter(directory, name=path.stem, slab_bytes=slab_bytes)
    key = ingest_source_key(path)
    range_ends = set(range_end_lines(path, slab_bytes))
    last_line = 0

    def on_line(inserter: ObjectChunkedInserter, line_number: int) -> None:
        nonlocal last_line
        last_line = line_number
        if line_number in range_ends:
            inserter.flush()
            if writer.uncommitted_bytes >= slab_bytes:
                writer.commit({key: line_number})

    stream_graph_jsonl_reference(
        path,
        writer,
        on_error=on_error,
        report=report,
        chunk_rows=chunk_rows,
        on_line=on_line,
    )
    writer.commit({key: last_line})
    writer.close()


def load_graph_csv_reference(
    nodes_path: str | Path,
    edges_path: str | Path,
    name: str = "graph",
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> PropertyGraph:
    """The object CSV loader: element objects straight into the graph."""
    graph = PropertyGraph(name)
    for path, id_cells, kind in (
        (nodes_path, 1, "node"), (edges_path, 3, "edge"),
    ):
        policy = _ErrorPolicy(path, on_error, report)
        inserter = ObjectChunkedInserter(graph, policy, report, chunk_rows)
        with Path(path).open("r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            keys = next(reader)[id_cells + 1:]
            for row in reader:
                line_number = reader.line_num
                if not row:
                    continue
                ids = _row_ints(row, id_cells, kind, policy, line_number)
                if ids is None:
                    continue
                labels = frozenset(
                    part for part in row[id_cells].split(";") if part
                )
                try:
                    properties = _decode_cells(keys, row[id_cells + 1:])
                except json.JSONDecodeError as exc:
                    policy.reject(
                        line_number, f"invalid JSON property cell: {exc.msg}"
                    )
                    continue
                if kind == "node":
                    inserter.push_node(
                        line_number, Node(ids[0], labels, properties)
                    )
                else:
                    inserter.push_edge(line_number, Edge(
                        ids[0], ids[1], ids[2], labels, properties,
                    ))
        inserter.flush()
    return graph
