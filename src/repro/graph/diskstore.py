"""Out-of-core graph store: memory-mapped column slabs on disk.

:class:`DiskGraphStore` implements the full
:class:`~repro.graph.store.BaseGraphStore` contract over the slab files
of :mod:`repro.graph.slab`, so every discovery mode -- sequential,
incremental, parallel, memoized -- runs against graphs that never fit
in RAM.  The driver's resident set stays O(id arrays + merged schema):
node/edge *objects* are materialized only inside whichever process
consumes a shard, property payloads are unpickled row-by-row straight
out of the mapped heap, and the partition that backs ``plan_shards`` is
spilled to a scratch file whose byte ranges workers re-map read-only.

Byte-identity with the in-memory backend is the design invariant, not
an aspiration: partitioning replays the exact
``random.Random(seed).shuffle`` over the same insertion-ordered id
list, edges keep their source node's shard and insertion order (a
stable argsort over the mapped source column), and the columnize fast
path remaps the store's global interner ids to the per-batch dense ids
``node_columns`` / ``edge_columns`` would have assigned (``tests/test_diskstore.py``
property-tests all of it across worker counts and chunkings).
"""

from __future__ import annotations

import mmap
import os
import random
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy

from repro.core.columns import (
    EdgeColumns,
    NodeColumns,
    edge_columns_from_arrays,
    node_columns_from_arrays,
)
from repro.graph.io import EdgeRow, IngestReport, NodeRow, stream_graph_jsonl
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.slab import (
    DEFAULT_SLAB_BYTES,
    SlabCorruptionError,
    SlabReader,
    SlabWriter,
    read_manifest,
)
from repro.graph.store import BaseGraphStore, GraphBatch, ShardPlan

#: Rows per ingest chunk handed to the slab writer in one call.
INGEST_CHUNK_ROWS = 2048

_SCRATCH_DIR = "scratch"


class _SpilledPartition:
    """A partition spilled to one scratch file, mapped lazily per process.

    Holds only the file path plus per-shard ``(offset, count)`` ranges of
    int64 ids; the read-only mapping happens on first use in whichever
    process reads a shard, so fork-inherited copies in pool workers map
    the file themselves instead of inheriting a parent attachment.
    """

    __slots__ = ("path", "node_ranges", "edge_ranges", "_mmap")

    def __init__(
        self,
        path: Path,
        node_ranges: list[tuple[int, int]],
        edge_ranges: list[tuple[int, int]],
    ) -> None:
        self.path = path
        self.node_ranges = node_ranges
        self.edge_ranges = edge_ranges
        self._mmap: mmap.mmap | None = None

    def _view(self, offset: int, count: int) -> numpy.ndarray:
        if count == 0:
            return numpy.empty(0, dtype=numpy.int64)
        if self._mmap is None:
            with self.path.open("rb") as handle:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        return numpy.frombuffer(
            self._mmap, dtype=numpy.int64, count=count, offset=offset
        )

    def node_array(self, shard: int) -> numpy.ndarray:
        """Shard's node ids (read-only view into the mapped spill file)."""
        return self._view(*self.node_ranges[shard])

    def edge_array(self, shard: int) -> numpy.ndarray:
        """Shard's edge ids (read-only view into the mapped spill file)."""
        return self._view(*self.edge_ranges[shard])

    def close(self) -> None:
        """Unmap this process's view (the file belongs to the store)."""
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # A live id view still exports the buffer; the mapping
                # is reclaimed when that view is garbage collected.
                pass
            self._mmap = None


class SlabIngestError(RuntimeError):
    """A streaming ingest died mid-write, but the directory is resumable.

    Raised in place of the raw ``OSError`` (ENOSPC, I/O error, ...) so
    callers learn the one fact that matters: the slab directory is
    intact at its last committed manifest generation, and re-running the
    ingest with ``resume=True`` continues from there.

    Attributes:
        directory: The slab directory left at its last commit.
        source: The ingest source key (the input file path).
        committed_line: Last fully committed line of that source.
    """

    def __init__(
        self,
        message: str,
        *,
        directory: str | Path,
        source: str,
        committed_line: int,
    ) -> None:
        super().__init__(message)
        self.directory = str(directory)
        self.source = source
        self.committed_line = committed_line


class DiskGraphStore(BaseGraphStore):
    """Store contract implementation over an on-disk slab directory.

    ``verify=True`` (the default) runs the slab reader's open-time
    checksum pass; pass ``verify=False`` only when the directory was
    just verified out of band (e.g. straight after a scrub).
    """

    def __init__(self, directory: str | Path, verify: bool = True) -> None:
        self._directory = Path(directory)
        self._verify = verify
        self._reader = SlabReader(self._directory, verify=verify)
        self._partition_cache: tuple[
            tuple[int, int, bool], _SpilledPartition
        ] | None = None
        self._node_sorted: tuple[numpy.ndarray, numpy.ndarray] | None = None
        self._edge_sorted: tuple[numpy.ndarray, numpy.ndarray] | None = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Name of the stored graph (from the slab manifest)."""
        return self._reader.name

    @property
    def directory(self) -> Path:
        """The slab directory backing this store."""
        return self._directory

    @property
    def reader(self) -> SlabReader:
        """The underlying slab reader (mapped columns)."""
        return self._reader

    def journal_fingerprint(self) -> dict[str, str] | None:
        """Durable slab state, recorded in checkpoint/journal context."""
        return {"slab": self._reader.fingerprint}

    def refresh(self) -> None:
        """Re-open at the latest commit (picks up appended segments)."""
        self.close()
        self._reader = SlabReader(self._directory, verify=self._verify)

    def close(self) -> None:
        """Release every mapping held by this process."""
        if self._partition_cache is not None:
            self._partition_cache[1].close()
            self._partition_cache = None
        self._node_sorted = None
        self._edge_sorted = None
        self._reader.close()

    def __enter__(self) -> "DiskGraphStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan_nodes(self) -> Iterator[Node]:
        """Stream all nodes in insertion order."""
        return self._reader.iter_nodes()

    def scan_edges(self) -> Iterator[Edge]:
        """Stream all edges in insertion order."""
        return self._reader.iter_edges()

    def count_nodes(self) -> int:
        """Total number of nodes."""
        return self._reader.node_count

    def count_edges(self) -> int:
        """Total number of edges."""
        return self._reader.edge_count

    # ------------------------------------------------------------------
    # Point lookups (id-sorted binary search over the mapped id column)
    # ------------------------------------------------------------------
    def _node_index(self) -> tuple[numpy.ndarray, numpy.ndarray]:
        if self._node_sorted is None:
            ids = self._reader.node_ids
            order = numpy.argsort(ids, kind="stable")
            self._node_sorted = (ids[order], order)
        return self._node_sorted

    def _edge_index(self) -> tuple[numpy.ndarray, numpy.ndarray]:
        if self._edge_sorted is None:
            ids = self._reader.edge_ids
            order = numpy.argsort(ids, kind="stable")
            self._edge_sorted = (ids[order], order)
        return self._edge_sorted

    @staticmethod
    def _rows_for(
        ids: numpy.ndarray,
        index: tuple[numpy.ndarray, numpy.ndarray],
    ) -> numpy.ndarray:
        """Rows of the given element ids; ``KeyError`` on any unknown id."""
        sorted_ids, order = index
        ids = numpy.asarray(ids, dtype=numpy.int64)
        if ids.size == 0:
            return numpy.empty(0, dtype=numpy.int64)
        positions = numpy.searchsorted(sorted_ids, ids)
        in_range = positions < sorted_ids.size
        if not in_range.all():
            raise KeyError(int(ids[numpy.flatnonzero(~in_range)[0]]))
        matched = sorted_ids[positions] == ids
        if not matched.all():
            raise KeyError(int(ids[numpy.flatnonzero(~matched)[0]]))
        result: numpy.ndarray = order[positions]
        return result

    def _node_rows(self, ids: numpy.ndarray) -> numpy.ndarray:
        return self._rows_for(ids, self._node_index())

    def _edge_rows(self, ids: numpy.ndarray) -> numpy.ndarray:
        return self._rows_for(ids, self._edge_index())

    def node(self, node_id: int) -> Node:
        """Point lookup of a node (``KeyError`` when absent)."""
        row = self._node_rows(numpy.asarray([node_id], dtype=numpy.int64))
        return self._reader.node_at(int(row[0]))

    def edge(self, edge_id: int) -> Edge:
        """Point lookup of an edge (``KeyError`` when absent)."""
        row = self._edge_rows(numpy.asarray([edge_id], dtype=numpy.int64))
        return self._reader.edge_at(int(row[0]))

    # ------------------------------------------------------------------
    # Sharded scans
    # ------------------------------------------------------------------
    def plan_shards(
        self,
        num_shards: int,
        seed: int = 0,
        shuffle: bool = True,
    ) -> list[ShardPlan]:
        """Plans for materializing each batch of a sharded scan on demand.

        Warms the spilled partition, so forked workers inherit only the
        spill file path + byte ranges and map the scratch file
        themselves.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._partition(num_shards, seed, shuffle)
        return [
            ShardPlan(index, num_shards, seed, shuffle)
            for index in range(num_shards)
        ]

    def materialize_shard(self, plan: ShardPlan) -> GraphBatch:
        """Build the single batch described by ``plan``.

        Elements are materialized row-by-row from the mapped columns in
        the shard's id order; the endpoint-label map replays the
        in-memory backend's first-seen-in-edge-order walk, reading label
        sets straight from the label column without materializing
        endpoint nodes.
        """
        if not 0 <= plan.index < plan.num_shards:
            raise ValueError(
                f"shard index {plan.index} out of range for "
                f"{plan.num_shards} shards"
            )
        partition = self._partition(plan.num_shards, plan.seed, plan.shuffle)
        reader = self._reader
        node_rows = self._node_rows(partition.node_array(plan.index))
        nodes = [reader.node_at(int(row)) for row in node_rows.tolist()]
        edge_rows = self._edge_rows(partition.edge_array(plan.index))
        edges = [reader.edge_at(int(row)) for row in edge_rows.tolist()]
        endpoint_labels: dict[int, frozenset[str]] = {}
        if edges:
            label_column = reader.node_label_ids
            label_sets = reader.node_label_sets
            endpoint_ids = numpy.empty(len(edges) * 2, dtype=numpy.int64)
            for position, edge in enumerate(edges):
                endpoint_ids[position * 2] = edge.source
                endpoint_ids[position * 2 + 1] = edge.target
            endpoint_rows = self._node_rows(endpoint_ids)
            for position in range(endpoint_ids.size):
                nid = int(endpoint_ids[position])
                if nid not in endpoint_labels:
                    endpoint_labels[nid] = label_sets[
                        int(label_column[int(endpoint_rows[position])])
                    ]
        return GraphBatch(plan.index, nodes, edges, endpoint_labels)

    def _partition(
        self, num_shards: int, seed: int, shuffle: bool
    ) -> _SpilledPartition:
        """Assign nodes and edges to shards (cached for the last plan).

        Replays the in-memory backend's assignment exactly: the same
        ``random.Random(seed).shuffle`` over the same insertion-ordered
        id list (here the mapped id column), round-robin node shards,
        and every edge in its source node's shard in insertion order --
        a ``searchsorted`` lookup over the mapped source column plus a
        stable argsort, with no object loop at all.
        """
        if num_shards < 1:
            raise ValueError("num_batches must be >= 1")
        key = (num_shards, seed, shuffle)
        cached = self._partition_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        node_ids = self._reader.node_ids.tolist()
        if shuffle:
            random.Random(seed).shuffle(node_ids)
        shuffled = numpy.asarray(node_ids, dtype=numpy.int64)
        nodes_by_shard = [
            shuffled[shard::num_shards] for shard in range(num_shards)
        ]
        order = numpy.argsort(shuffled, kind="stable")
        lookup = numpy.searchsorted(
            shuffled[order], self._reader.edge_sources
        )
        edge_shards = (order % num_shards)[lookup]
        edge_order = numpy.argsort(edge_shards, kind="stable")
        bounds = numpy.searchsorted(
            edge_shards[edge_order], numpy.arange(num_shards + 1)
        )
        sorted_edge_ids = self._reader.edge_ids[edge_order]
        edges_by_shard = [
            sorted_edge_ids[bounds[shard] : bounds[shard + 1]]
            for shard in range(num_shards)
        ]
        partition = self._spill_partition(
            num_shards, seed, shuffle, nodes_by_shard, edges_by_shard
        )
        if cached is not None:
            cached[1].close()
        self._partition_cache = (key, partition)
        return partition

    def _spill_partition(
        self,
        num_shards: int,
        seed: int,
        shuffle: bool,
        nodes_by_shard_ids: Sequence[numpy.ndarray],
        edges_by_shard_ids: Sequence[numpy.ndarray],
    ) -> _SpilledPartition:
        """Write per-shard id arrays to one scratch file, keep byte ranges.

        The file is written to a temp name and atomically renamed, so a
        partition file is always complete; workers that mapped an older
        file for the same key keep reading their (replaced) inode.
        """
        scratch = self._directory / _SCRATCH_DIR
        scratch.mkdir(parents=True, exist_ok=True)
        file_name = f"partition-{num_shards}-{seed}-{int(shuffle)}.bin"
        ranges: list[tuple[int, int]] = []
        offset = 0
        tmp_path = scratch / (file_name + ".tmp")
        with tmp_path.open("wb") as handle:
            for array in (*nodes_by_shard_ids, *edges_by_shard_ids):
                contiguous = numpy.ascontiguousarray(
                    array, dtype=numpy.int64
                )
                ranges.append((offset, int(contiguous.size)))
                raw = contiguous.tobytes()
                handle.write(raw)
                offset += len(raw)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, scratch / file_name)
        return _SpilledPartition(
            scratch / file_name, ranges[:num_shards], ranges[num_shards:]
        )

    # ------------------------------------------------------------------
    # Column fast path (no object materialization at all)
    # ------------------------------------------------------------------
    def columnize_shard(
        self, plan: ShardPlan
    ) -> tuple[NodeColumns, EdgeColumns]:
        """Columnize one shard straight from the mapped columns.

        Byte-identical to columnizing the materialized batch: global
        interner ids are remapped to per-batch first-appearance dense
        ids by the from-arrays constructors.  Every executor maps disk
        shards this way (memoized runs excepted), so no Node/Edge object
        is built; only one property record per distinct key set is
        decoded, for its key order.  :meth:`shard_properties` decodes
        the rest when the §4.4 fold needs them.
        """
        partition = self._partition(plan.num_shards, plan.seed, plan.shuffle)
        reader = self._reader
        node_ids = partition.node_array(plan.index)
        node_rows = self._node_rows(node_ids)
        # Key orders must come from the representative *row's* own
        # property dict (two rows with one key set may order their dicts
        # differently); one heap unpickle per distinct key set.
        node_cols = node_columns_from_arrays(
            node_ids,
            reader.node_label_ids[node_rows],
            reader.node_keyset_ids[node_rows],
            reader.node_label_sets,
            lambda position: tuple(
                reader.node_properties_at(int(node_rows[position]))
            ),
        )
        edge_ids = partition.edge_array(plan.index)
        edge_rows = self._edge_rows(edge_ids)
        sources = reader.edge_sources[edge_rows]
        targets = reader.edge_targets[edge_rows]
        node_label_column = reader.node_label_ids
        edge_cols = edge_columns_from_arrays(
            edge_ids,
            sources,
            targets,
            reader.edge_label_ids[edge_rows],
            node_label_column[self._node_rows(sources)],
            node_label_column[self._node_rows(targets)],
            reader.edge_keyset_ids[edge_rows],
            reader.edge_label_sets,
            reader.node_label_sets,
            lambda position: tuple(
                reader.edge_properties_at(int(edge_rows[position]))
            ),
        )
        return node_cols, edge_cols

    def shard_properties(
        self, plan: ShardPlan
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """Every node and edge property record of one shard, decoded.

        In :meth:`columnize_shard`'s row order, so a batch position
        indexes both.  Decoding every record keeps the heap-decode guard
        of :meth:`~repro.graph.slab.SlabReader.node_properties_at` on
        every row the shard covers.
        """
        partition = self._partition(plan.num_shards, plan.seed, plan.shuffle)
        reader = self._reader
        node_rows = self._node_rows(partition.node_array(plan.index))
        edge_rows = self._edge_rows(partition.edge_array(plan.index))
        return (
            reader.node_properties_rows(node_rows),
            reader.edge_properties_rows(edge_rows),
        )


# ----------------------------------------------------------------------
# Building slab directories
# ----------------------------------------------------------------------
def write_graph_to_slabs(
    graph: PropertyGraph,
    directory: str | Path,
    name: str | None = None,
    slab_bytes: int = DEFAULT_SLAB_BYTES,
) -> DiskGraphStore:
    """Convert an in-memory graph into a slab directory.

    Convenience for tests, dataset generators and backend comparisons;
    large inputs should use :func:`ingest_jsonl_slabs` instead, which
    never holds the graph in RAM.
    """
    writer = SlabWriter(
        directory, name=name or graph.name, slab_bytes=slab_bytes
    )
    if writer.counts() != (0, 0):
        writer.reset()
    node_rows: list[NodeRow] = []
    for node in graph.nodes():
        node_rows.append((node.id, node.labels, dict(node.properties)))
        if len(node_rows) >= INGEST_CHUNK_ROWS:
            writer.add_nodes(node_rows)
            node_rows.clear()
    if node_rows:
        writer.add_nodes(node_rows)
    edge_rows: list[EdgeRow] = []
    for edge in graph.edges():
        edge_rows.append((
            edge.id, edge.source, edge.target, edge.labels,
            dict(edge.properties),
        ))
        if len(edge_rows) >= INGEST_CHUNK_ROWS:
            writer.add_edges(edge_rows)
            edge_rows.clear()
    if edge_rows:
        writer.add_edges(edge_rows)
    writer.commit()
    writer.close()
    return DiskGraphStore(directory)


class SlabIngestSink:
    """Streaming ingest target: chunks land on disk, commits by bytes.

    Implements the :class:`repro.graph.io.GraphSink` protocol over a
    :class:`SlabWriter` and commits the manifest (with the source's
    line-progress marker) whenever ``slab_bytes`` of payload has
    accumulated since the last commit -- the unit of crash recovery for
    a killed ingest.
    """

    def __init__(
        self, writer: SlabWriter, source_key: str, slab_bytes: int
    ) -> None:
        self._writer = writer
        self._source_key = source_key
        self._slab_bytes = slab_bytes

    def add_nodes(self, rows: Sequence[NodeRow]) -> list[tuple[int, str]]:
        """Append a node-row chunk; returns ``(position, reason)`` rejects."""
        return self._writer.add_nodes(rows)

    def add_edges(self, rows: Sequence[EdgeRow]) -> list[tuple[int, str]]:
        """Append an edge-row chunk; returns ``(position, reason)`` rejects."""
        return self._writer.add_edges(rows)

    def chunk_done(self, line_number: int) -> None:
        """Commit durably once enough bytes accumulated since the last."""
        if self._writer.uncommitted_bytes >= self._slab_bytes:
            self._writer.commit({self._source_key: line_number})

    def finish(self, line_number: int) -> None:
        """Final commit covering everything up to ``line_number``."""
        self._writer.commit({self._source_key: line_number})


def ingest_jsonl_slabs(
    path: str | Path,
    directory: str | Path,
    name: str | None = None,
    slab_bytes: int = DEFAULT_SLAB_BYTES,
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = INGEST_CHUNK_ROWS,
    resume: bool = False,
    faults: str | None = None,
) -> DiskGraphStore:
    """Stream a JSONL graph file straight into a slab directory.

    Rows land on disk in bounded chunks -- peak memory is one chunk
    plus the writer's ``slab_bytes`` buffer, independent of file size.
    With ``resume=True`` an interrupted ingest continues from the last
    committed line of the same source (earlier lines are skipped
    without parsing); otherwise any existing rows are discarded first.

    Accepts the loader ``on_error`` / ``report`` policy of
    :func:`repro.graph.io.load_graph_jsonl`; a resumed ingest reports
    only the resumed portion.  ``faults`` is a
    :class:`repro.core.faults.FaultPlan` spec for the writer's storage
    fault sites (tests/CI only).

    Raises:
        SlabIngestError: An ``OSError`` (ENOSPC, I/O error, ...) hit the
            write path.  The directory is left at its last committed
            manifest generation; rerun with ``resume=True`` to continue
            from :attr:`SlabIngestError.committed_line`.
    """
    path = Path(path)
    writer = SlabWriter(
        directory,
        name=name or path.stem,
        slab_bytes=slab_bytes,
        faults=faults,
    )
    source_key = str(path)
    if resume:
        start_line = writer.source_progress(source_key)
    else:
        if writer.counts() != (0, 0) or writer.source_progress(source_key):
            writer.reset()
        start_line = 0
    sink = SlabIngestSink(writer, source_key, slab_bytes)
    try:
        last_line = stream_graph_jsonl(
            path,
            sink,
            on_error=on_error,
            report=report,
            chunk_rows=chunk_rows,
            start_line=start_line,
            on_progress=sink.chunk_done,
        )
        sink.finish(max(last_line, start_line))
    except OSError as exc:
        writer.close()
        committed = _committed_progress(Path(directory), source_key)
        raise SlabIngestError(
            f"{path}: ingest failed mid-write ({exc}); {directory} is "
            f"intact at its last commit (line {committed} of this "
            f"source) -- rerun with resume=True to continue",
            directory=directory,
            source=source_key,
            committed_line=committed,
        ) from exc
    writer.close()
    return DiskGraphStore(directory)


def _committed_progress(directory: Path, source_key: str) -> int:
    """Durable line marker for one source (0 when unreadable/absent)."""
    try:
        manifest = read_manifest(directory)
    except (FileNotFoundError, SlabCorruptionError):
        return 0
    return int(manifest.get("sources", {}).get(source_key, 0))


def is_slab_directory(path: str | Path) -> bool:
    """Whether ``path`` looks like a slab directory (has a manifest)."""
    return (Path(path) / "manifest.json").is_file()


__all__ = [
    "DiskGraphStore",
    "SlabIngestError",
    "SlabIngestSink",
    "ingest_jsonl_slabs",
    "is_slab_directory",
    "write_graph_to_slabs",
]
