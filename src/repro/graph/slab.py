"""Append-only columnar slab files: the on-disk graph representation.

One slab directory holds one property graph as per-kind column files
plus a JSON manifest that is the *only* commit point:

* ``nodes-ids.i64`` / ``edges-ids.i64`` -- element ids, int64 per row;
* ``edges-src.i64`` / ``edges-tgt.i64`` -- edge endpoints;
* ``*-labels.i64`` -- per-row dense id into the kind's interned label
  sets (stored in the manifest, first-seen order);
* ``*-keys.i64`` -- per-row dense id into the interned property-key
  orders (first-seen key order retained, which byte-identical MinHash
  feature interning depends on);
* ``*-props.dat`` + ``*-propend.i64`` -- a pickle heap of per-row
  property dicts and the int64 *end* offset of each row's pickle, so
  row ``r`` occupies ``[propend[r-1], propend[r])``.

Column files are append-only.  Writers buffer rows and flush whole
column chunks once ``slab_bytes`` of property payload accumulates; the
manifest is rewritten atomically (temp file + ``os.replace``) only at
:meth:`SlabWriter.commit`.  Crash consistency follows from that split:

* a reader trusts nothing past the manifest's durable row counts, so a
  crash mid-append is invisible;
* a writer reopening the directory physically truncates every column
  file back to the durable lengths before appending, so a torn tail
  can never be concatenated with new rows;
* the manifest also records per-source ingest progress
  (``sources[key] -> last fully committed line number``), which is what
  lets a killed ingest resume exactly where the last commit left off.

The layout is deliberately dumb -- no compression, no btree -- because
discovery only ever needs sequential scans, vectorized slices, and
id-sorted point lookups, all of which mmap + numpy already serve.

Crash consistency alone does not protect against *silent* storage
faults -- a torn write the kernel acknowledged, a bit flip on the
medium, a rename that lost its target.  The integrity layer closes that
gap end to end:

* every column file and property heap carries a running CRC-32 over its
  durable prefix, recorded in the manifest at each commit (append-only
  files make the checksum incrementally maintainable -- no rehash of
  old bytes, ever);
* the manifest itself embeds a self-checksum (``manifest_crc``) and the
  previous manifest is preserved as ``manifest.json.bak`` before each
  replace, so a torn manifest rename is both detectable and repairable;
* :class:`SlabReader` verifies every checksum on open (and re-checks
  byte lengths on every map-in), raising a structured
  :class:`SlabCorruptionError` naming the file, the slab column and the
  corruption kind -- corrupted data is never silently read;
* each commit appends a *generation* record (row counts, byte lengths,
  interner sizes, checksums, source markers) to a bounded history, so
  the offline scrubber (:mod:`repro.graph.scrub`) can truncate a
  damaged directory back to its newest fully-verified generation;
* the write paths are instrumented with deterministic storage fault
  sites (``slab-torn-write``, ``slab-bitflip``, ``slab-enospc``,
  ``manifest-partial-rename``) so every failure mode above is
  reproducible in tests and CI (:mod:`repro.core.faults`).

The checksum is ``zlib.crc32`` (the stdlib's C-speed CRC-32); the
Castagnoli variant would need a native wheel this repo deliberately
does not depend on, and the two are equivalent detectors for random
corruption.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import pickle
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

import numpy

from repro.graph.model import Edge, Node
from repro.util.diskio import fsync_directory

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    # Runtime import is deferred to SlabWriter.__init__: core.faults
    # lives under repro.core, whose package __init__ imports the
    # parallel driver, which imports this module -- a cycle at import
    # time but not at construction time.
    from repro.core.faults import FaultInjector
    from repro.graph.io import EdgeRow, NodeRow

MANIFEST_NAME = "manifest.json"
MANIFEST_BACKUP_NAME = "manifest.json.bak"
SLAB_VERSION = 2
DEFAULT_SLAB_BYTES = 4 << 20

#: How many previous commit snapshots the manifest retains for
#: :func:`repro.graph.scrub.repair_slab_directory` to roll back to.
GENERATION_HISTORY = 8

#: Read granularity for checksum verification -- bounds scrub/open
#: memory at one chunk regardless of file size.
_CRC_CHUNK = 1 << 20

NODE_KIND = "nodes"
EDGE_KIND = "edges"

_INT_COLUMNS: dict[str, tuple[str, ...]] = {
    NODE_KIND: ("ids", "labels", "keys", "propend"),
    EDGE_KIND: ("ids", "src", "tgt", "labels", "keys", "propend"),
}


class SlabCorruptionError(RuntimeError):
    """A slab directory's on-disk state contradicts its manifest.

    Structured so callers can pinpoint and report the damage:

    Attributes:
        path: Filesystem path of the offending file (``None`` when the
            corruption is not attributable to a single file).
        slab: Which slab the damage hit -- a column identifier such as
            ``"nodes-props"`` or ``"edges-ids"``, or ``"manifest"``.
        kind: ``"checksum"`` (stored CRC does not match the bytes),
            ``"truncated"`` (file shorter than the manifest's durable
            length), ``"missing"`` (file absent but rows recorded),
            ``"manifest"`` (the manifest document itself is unreadable)
            or ``"heap-decode"`` (a property pickle failed to decode at
            read time).
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | Path | None = None,
        slab: str | None = None,
        kind: str = "corrupt",
    ) -> None:
        super().__init__(message)
        self.path = None if path is None else str(path)
        self.slab = slab
        self.kind = kind

    def __reduce__(self) -> tuple[Any, ...]:
        # Preserve the structured fields across the process-pool
        # boundary (default exception pickling only keeps ``args``).
        return (
            _rebuild_corruption_error,
            (str(self), self.path, self.slab, self.kind),
        )


def _rebuild_corruption_error(
    message: str, path: str | None, slab: str | None, kind: str
) -> "SlabCorruptionError":
    """Unpickle helper for :class:`SlabCorruptionError`."""
    return SlabCorruptionError(message, path=path, slab=slab, kind=kind)


def _column_path(directory: Path, kind: str, column: str) -> Path:
    """Path of one int64 column file."""
    return directory / f"{kind}-{column}.i64"


def _heap_path(directory: Path, kind: str) -> Path:
    """Path of the pickled-properties heap file."""
    return directory / f"{kind}-props.dat"


def manifest_checksum(manifest: Mapping[str, Any]) -> int:
    """Self-checksum of a manifest document (``manifest_crc`` excluded).

    Computed over the canonical (sorted-keys) JSON encoding of every
    other field, so any byte of a torn or bit-flipped manifest document
    fails verification in :func:`read_manifest`.
    """
    body = {
        key: value
        for key, value in manifest.items()
        if key != "manifest_crc"
    }
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def _content_fingerprint(manifest: Mapping[str, Any]) -> str:
    """Digest of the graph a manifest commits to, not of how it got there.

    Covers the running whole-file checksums and, per kind, the row
    count, heap length, interned label sets and key orders, so a
    same-size edit (a renamed label, a changed property value) changes
    it.  ``generations`` and ``sources`` stay out: they depend on the
    commit cadence (``slab_bytes``) and the input path, not on the
    content, and re-ingesting the same file another way keeps the
    fingerprint.
    """
    body = {
        "checksums": manifest.get("checksums"),
        "kinds": {
            kind: {
                field: manifest["kinds"][kind][field]
                for field in (
                    "rows", "props_bytes", "label_sets", "key_orders"
                )
            }
            for kind in (NODE_KIND, EDGE_KIND)
        },
    }
    return hashlib.blake2b(
        json.dumps(body, sort_keys=True).encode("utf-8"), digest_size=16
    ).hexdigest()


def manifest_file_lengths(manifest: Mapping[str, Any]) -> dict[str, int]:
    """Durable byte length of every data file a manifest commits to."""
    lengths: dict[str, int] = {}
    for kind in (NODE_KIND, EDGE_KIND):
        entry = manifest["kinds"][kind]
        for column in _INT_COLUMNS[kind]:
            lengths[f"{kind}-{column}.i64"] = int(entry["rows"]) * 8
        lengths[f"{kind}-props.dat"] = int(entry["props_bytes"])
    return lengths


def checksum_file_prefix(path: Path, length: int) -> int:
    """CRC-32 of a file's first ``length`` bytes, read in bounded chunks.

    Because slab files are append-only, the checksum of any *older*
    generation's durable prefix is also verifiable from the current
    file -- this is what makes repair-by-truncation sound.

    Raises:
        SlabCorruptionError: The file is missing or shorter than
            ``length`` (kinds ``"missing"`` / ``"truncated"``).
    """
    if length == 0:
        return 0
    crc = 0
    remaining = length
    try:
        with path.open("rb") as handle:
            while remaining:
                chunk = handle.read(min(remaining, _CRC_CHUNK))
                if not chunk:
                    raise SlabCorruptionError(
                        f"{path}: shorter than the expected {length} bytes",
                        path=path,
                        slab=path.stem,
                        kind="truncated",
                    )
                crc = zlib.crc32(chunk, crc)
                remaining -= len(chunk)
    except FileNotFoundError as exc:
        raise SlabCorruptionError(
            f"{path}: missing but the manifest records {length} bytes",
            path=path,
            slab=path.stem,
            kind="missing",
        ) from exc
    return crc


def verify_manifest_files(
    directory: Path, manifest: Mapping[str, Any]
) -> None:
    """Check every durable file prefix against the manifest checksums.

    Pre-integrity (v1) manifests carry no ``checksums`` mapping; they
    are accepted as-is -- the first commit by an integrity-aware writer
    upgrades them.

    Raises:
        SlabCorruptionError: A file is missing, shorter than its durable
            length, or its bytes do not match the recorded CRC.
    """
    checksums = manifest.get("checksums")
    if checksums is None:
        return
    for file_name, length in sorted(manifest_file_lengths(manifest).items()):
        stored = checksums.get(file_name)
        if stored is None:
            continue
        path = directory / file_name
        actual = checksum_file_prefix(path, length)
        if actual != int(stored):
            raise SlabCorruptionError(
                f"{path}: checksum mismatch over the durable {length} "
                f"bytes (stored {int(stored)}, computed {actual})",
                path=path,
                slab=path.stem,
                kind="checksum",
            )


def _write_manifest(
    directory: Path,
    manifest: dict[str, Any],
    injector: "FaultInjector | None" = None,
    seq: int = 0,
) -> None:
    """Atomically replace the manifest (temp + rename + parent fsync).

    The previous manifest is first preserved as ``manifest.json.bak``,
    so even a corrupted replacement leaves one verifiable document for
    :func:`repro.graph.scrub.repair_slab_directory` to fall back on.
    ``seq`` is the writer's commit ordinal, used to address the
    ``manifest-partial-rename`` fault site.
    """
    manifest["manifest_crc"] = manifest_checksum(manifest)
    payload = json.dumps(manifest, sort_keys=True)
    final = directory / MANIFEST_NAME
    if final.exists():
        backup_tmp = directory / (MANIFEST_BACKUP_NAME + ".tmp")
        with backup_tmp.open("wb") as handle:
            handle.write(final.read_bytes())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(backup_tmp, directory / MANIFEST_BACKUP_NAME)
    if injector is not None and injector.corrupts(
        "manifest-partial-rename", seq
    ):
        # Injected fault: the rename "landed" but only half the document
        # reached the target -- the reader must reject it by checksum
        # and repair must fall back to the backup.
        final.write_text(payload[: len(payload) // 2], encoding="utf-8")
        return
    tmp = directory / (MANIFEST_NAME + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    fsync_directory(directory)


def read_manifest(directory: str | Path) -> dict[str, Any]:
    """Load a slab directory's manifest, verifying its self-checksum.

    Raises:
        FileNotFoundError: No manifest -- not a slab directory.
        SlabCorruptionError: Manifest exists but is not valid slab JSON,
            or its ``manifest_crc`` does not match the document.
    """
    return parse_manifest_file(Path(directory) / MANIFEST_NAME)


def parse_manifest_file(path: Path) -> dict[str, Any]:
    """Parse and self-verify one manifest document at an explicit path.

    Used by :func:`read_manifest` for the live manifest and by the
    scrubber for ``manifest.json.bak``.
    """
    try:
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SlabCorruptionError(
            f"{path}: manifest is not valid JSON: {exc.msg}",
            path=path,
            slab="manifest",
            kind="manifest",
        ) from exc
    if not isinstance(manifest, dict) or "kinds" not in manifest:
        raise SlabCorruptionError(
            f"{path}: manifest missing 'kinds'",
            path=path,
            slab="manifest",
            kind="manifest",
        )
    stored = manifest.get("manifest_crc")
    if stored is not None and int(stored) != manifest_checksum(manifest):
        raise SlabCorruptionError(
            f"{path}: manifest self-checksum mismatch",
            path=path,
            slab="manifest",
            kind="checksum",
        )
    return manifest


def _empty_manifest(name: str) -> dict[str, Any]:
    """Fresh manifest for an empty graph."""
    manifest: dict[str, Any] = {
        "version": SLAB_VERSION,
        "name": name,
        "kinds": {
            kind: {
                "rows": 0,
                "props_bytes": 0,
                "label_sets": [],
                "key_orders": [],
            }
            for kind in (NODE_KIND, EDGE_KIND)
        },
        "sources": {},
        "generations": [],
    }
    manifest["checksums"] = {
        file_name: 0
        for file_name in sorted(manifest_file_lengths(manifest))
    }
    return manifest


class _KindState:
    """Writer-side state for one element kind (nodes or edges)."""

    __slots__ = (
        "kind", "rows", "props_bytes", "label_sets", "label_ids",
        "key_orders", "key_ids", "ids_seen", "buffers", "prop_buffer",
    )

    def __init__(self, kind: str, entry: Mapping[str, Any]) -> None:
        self.kind = kind
        self.rows = int(entry["rows"])
        self.props_bytes = int(entry["props_bytes"])
        self.label_sets: list[frozenset[str]] = [
            frozenset(labels) for labels in entry["label_sets"]
        ]
        self.label_ids: dict[frozenset[str], int] = {
            labels: index for index, labels in enumerate(self.label_sets)
        }
        self.key_orders: list[tuple[str, ...]] = [
            tuple(order) for order in entry["key_orders"]
        ]
        self.key_ids: dict[frozenset[str], int] = {
            frozenset(order): index
            for index, order in enumerate(self.key_orders)
        }
        self.ids_seen: set[int] = set()
        self.buffers: dict[str, list[int]] = {
            column: [] for column in _INT_COLUMNS[kind]
        }
        self.prop_buffer = bytearray()

    def intern_labels(self, labels: frozenset[str]) -> int:
        """Dense id for a label set (first-seen assignment)."""
        existing = self.label_ids.get(labels)
        if existing is not None:
            return existing
        new_id = len(self.label_sets)
        self.label_ids[labels] = new_id
        self.label_sets.append(labels)
        return new_id

    def intern_keys(self, properties: Mapping[str, Any]) -> int:
        """Dense id for a property-key set (first-seen order retained)."""
        keys = frozenset(properties)
        existing = self.key_ids.get(keys)
        if existing is not None:
            return existing
        new_id = len(self.key_orders)
        self.key_ids[keys] = new_id
        self.key_orders.append(tuple(properties))
        return new_id

    def manifest_entry(self) -> dict[str, Any]:
        """Durable description of this kind for the manifest."""
        return {
            "rows": self.rows,
            "props_bytes": self.props_bytes,
            "label_sets": [sorted(labels) for labels in self.label_sets],
            "key_orders": [list(order) for order in self.key_orders],
        }


class SlabWriter:
    """Appends node and edge rows to a slab directory.

    Opening an existing directory resumes from its manifest: column
    files are truncated back to the durable lengths (discarding any torn
    tail from a crash) and the id sets needed for duplicate/endpoint
    validation are rebuilt from the id columns.  ``with`` usage commits
    on clean exit and leaves the last durable state on an exception.
    """

    def __init__(
        self,
        directory: str | Path,
        name: str | None = None,
        slab_bytes: int = DEFAULT_SLAB_BYTES,
        faults: str | None = None,
    ) -> None:
        if slab_bytes < 4096:
            raise ValueError("slab_bytes must be >= 4096")
        # Deferred import: repro.core's package __init__ pulls in the
        # parallel driver, which imports this module (see module head).
        from repro.core.faults import FaultInjector

        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._slab_bytes = slab_bytes
        self._injector = FaultInjector.from_spec(faults)
        self._flush_seq = 0
        self._commit_seq = 0
        manifest_path = self._directory / MANIFEST_NAME
        if manifest_path.exists():
            manifest = read_manifest(self._directory)
            if name is not None:
                manifest["name"] = name
        else:
            manifest = _empty_manifest(name or self._directory.name)
        self._sources: dict[str, int] = {
            str(key): int(value)
            for key, value in manifest.get("sources", {}).items()
        }
        self._name = str(manifest["name"])
        self._kinds = {
            kind: _KindState(kind, manifest["kinds"][kind])
            for kind in (NODE_KIND, EDGE_KIND)
        }
        self._uncommitted = 0
        self._closed = False
        self._recover()
        self._load_id_sets()
        stored_crcs = manifest.get("checksums")
        if stored_crcs is not None:
            self._crcs: dict[str, int] = {
                str(key): int(value) for key, value in stored_crcs.items()
            }
        else:
            # v1 directory: seed the running checksums from the durable
            # bytes once; every later commit maintains them
            # incrementally from the appended chunks.
            self._crcs = {
                file_name: checksum_file_prefix(
                    self._directory / file_name, length
                )
                for file_name, length in sorted(
                    manifest_file_lengths(manifest).items()
                )
            }
        self._generations: list[dict[str, Any]] = [
            dict(generation)
            for generation in manifest.get("generations", [])
        ]
        self._last_snapshot = self._snapshot()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Truncate every column file back to the durable manifest state."""
        for kind, state in self._kinds.items():
            for column in _INT_COLUMNS[kind]:
                self._truncate(
                    _column_path(self._directory, kind, column),
                    state.rows * 8,
                )
            self._truncate(
                _heap_path(self._directory, kind), state.props_bytes
            )

    def _truncate(self, path: Path, durable: int) -> None:
        """Cut one file to its durable byte length (create if absent)."""
        if not path.exists():
            if durable:
                raise SlabCorruptionError(
                    f"{path}: missing but manifest records {durable} bytes",
                    path=path,
                    slab=path.stem,
                    kind="missing",
                )
            path.touch()
            return
        actual = path.stat().st_size
        if actual < durable:
            raise SlabCorruptionError(
                f"{path}: {actual} bytes on disk, manifest records "
                f"{durable}",
                path=path,
                slab=path.stem,
                kind="truncated",
            )
        if actual > durable:
            with path.open("r+b") as handle:
                handle.truncate(durable)

    def _load_id_sets(self) -> None:
        """Rebuild duplicate/endpoint validation sets from the id columns."""
        for kind, state in self._kinds.items():
            if state.rows:
                ids = numpy.fromfile(
                    _column_path(self._directory, kind, "ids"),
                    dtype=numpy.int64,
                    count=state.rows,
                )
                state.ids_seen = set(ids.tolist())

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def add_nodes(self, rows: Sequence[NodeRow]) -> list[tuple[int, str]]:
        """Append a node-row chunk; returns ``(position, reason)`` rejects.

        A row is ``(id, labels, properties)`` with a frozenset label set
        and a plain ``dict`` of properties (pickled as given).
        """
        state = self._kinds[NODE_KIND]
        rejects: list[tuple[int, str]] = []
        buffers = state.buffers
        ids_buf = buffers["ids"]
        labels_buf = buffers["labels"]
        keys_buf = buffers["keys"]
        end_buf = buffers["propend"]
        intern_labels = state.intern_labels
        intern_keys = state.intern_keys
        dumps = pickle.dumps
        heap = state.prop_buffer
        base = state.props_bytes
        before = len(heap)
        seen = state.ids_seen
        for position, (node_id, labels, properties) in enumerate(rows):
            if node_id in seen:
                rejects.append((position, f"duplicate node id {node_id}"))
                continue
            seen.add(node_id)
            ids_buf.append(node_id)
            labels_buf.append(intern_labels(labels))
            keys_buf.append(intern_keys(properties))
            heap += dumps(properties, protocol=5)
            end_buf.append(base + len(heap))
        self._uncommitted += len(heap) - before
        self._maybe_flush()
        return rejects

    def add_edges(self, rows: Sequence[EdgeRow]) -> list[tuple[int, str]]:
        """Append an edge-row chunk; returns ``(position, reason)`` rejects.

        A row is ``(id, source, target, labels, properties)``.  Endpoint
        validation matches :class:`~repro.graph.model.PropertyGraph`
        exactly (same reject messages), against every node committed or
        buffered so far -- nodes must precede the edges that use them,
        which both the JSONL layout and the CSV loader guarantee.
        """
        state = self._kinds[EDGE_KIND]
        node_ids = self._kinds[NODE_KIND].ids_seen
        rejects: list[tuple[int, str]] = []
        buffers = state.buffers
        ids_buf = buffers["ids"]
        src_buf = buffers["src"]
        tgt_buf = buffers["tgt"]
        labels_buf = buffers["labels"]
        keys_buf = buffers["keys"]
        end_buf = buffers["propend"]
        intern_labels = state.intern_labels
        intern_keys = state.intern_keys
        dumps = pickle.dumps
        heap = state.prop_buffer
        base = state.props_bytes
        before = len(heap)
        seen = state.ids_seen
        for position, row in enumerate(rows):
            edge_id, source, target, labels, properties = row
            if edge_id in seen:
                rejects.append((position, f"duplicate edge id {edge_id}"))
                continue
            if source not in node_ids:
                rejects.append(
                    (position, f"edge {edge_id}: unknown source {source}")
                )
                continue
            if target not in node_ids:
                rejects.append(
                    (position, f"edge {edge_id}: unknown target {target}")
                )
                continue
            seen.add(edge_id)
            ids_buf.append(edge_id)
            src_buf.append(source)
            tgt_buf.append(target)
            labels_buf.append(intern_labels(labels))
            keys_buf.append(intern_keys(properties))
            heap += dumps(properties, protocol=5)
            end_buf.append(base + len(heap))
        self._uncommitted += len(heap) - before
        self._maybe_flush()
        return rejects

    # ------------------------------------------------------------------
    # Flush / commit
    # ------------------------------------------------------------------
    @property
    def uncommitted_bytes(self) -> int:
        """Property-heap bytes appended since the last :meth:`commit`."""
        return self._uncommitted

    @property
    def name(self) -> str:
        """Graph name recorded in the manifest."""
        return self._name

    @property
    def directory(self) -> Path:
        """The slab directory."""
        return self._directory

    def counts(self) -> tuple[int, int]:
        """(nodes, edges) appended so far, including buffered rows."""
        node_state = self._kinds[NODE_KIND]
        edge_state = self._kinds[EDGE_KIND]
        return (
            node_state.rows + len(node_state.buffers["ids"]),
            edge_state.rows + len(edge_state.buffers["ids"]),
        )

    def source_progress(self, key: str) -> int:
        """Last committed progress marker for one ingest source (0 if new)."""
        return self._sources.get(key, 0)

    def _maybe_flush(self) -> None:
        """Flush buffered rows once enough property payload accumulates."""
        for state in self._kinds.values():
            if len(state.prop_buffer) >= self._slab_bytes:
                self._flush_kind(state)

    def _flush_kind(self, state: _KindState) -> None:
        """Append one kind's buffered rows to its column files.

        This is the instrumented write path: ``slab-enospc`` fires after
        the column appends (leaving a torn, recoverable tail) and
        ``slab-torn-write`` shears the freshly appended heap bytes after
        the kernel acknowledged them.  The running checksums always
        cover the *intended* bytes, so torn writes are caught at the
        next open.
        """
        added = len(state.buffers["ids"])
        if not added:
            return
        seq = self._flush_seq
        self._flush_seq += 1
        chunks = {
            column: numpy.asarray(
                state.buffers[column], dtype=numpy.int64
            ).tobytes()
            for column in _INT_COLUMNS[state.kind]
        }
        for column in _INT_COLUMNS[state.kind]:
            path = _column_path(self._directory, state.kind, column)
            with path.open("ab") as handle:
                handle.write(chunks[column])
                handle.flush()
                os.fsync(handle.fileno())
        if self._injector is not None:
            # Columns are already appended past the manifest state here,
            # so an injected ENOSPC leaves exactly the torn tail that
            # reopen-recovery must truncate away.
            self._injector.fire("slab-enospc", seq)
        pending = len(state.prop_buffer)
        heap_path = _heap_path(self._directory, state.kind)
        with heap_path.open("ab") as handle:
            # memoryview avoids duplicating the whole pending heap just
            # to write it -- the buffer can be many megabytes.
            handle.write(memoryview(state.prop_buffer))
            handle.flush()
            os.fsync(handle.fileno())
        if self._injector is not None and self._injector.corrupts(
            "slab-torn-write", seq
        ):
            # Injected fault: only half the acknowledged heap append
            # reached the medium.
            with heap_path.open("r+b") as handle:
                handle.truncate(state.props_bytes + pending // 2)
        for column in _INT_COLUMNS[state.kind]:
            file_name = f"{state.kind}-{column}.i64"
            self._crcs[file_name] = zlib.crc32(
                chunks[column], self._crcs.get(file_name, 0)
            )
            state.buffers[column].clear()
        self._crcs[heap_path.name] = zlib.crc32(
            memoryview(state.prop_buffer),
            self._crcs.get(heap_path.name, 0),
        )
        state.props_bytes += pending
        state.prop_buffer.clear()
        state.rows += added

    def _snapshot(self) -> dict[str, Any]:
        """Generation record of the current durable state.

        Stores counts (not contents) for the interner lists: slab files
        and interners are append-only, so truncating both back to these
        counts reconstructs the generation exactly, and the stored
        checksums verify the rollback (prefix CRCs of append-only files
        never change).
        """
        return {
            "kinds": {
                kind: {
                    "rows": state.rows,
                    "props_bytes": state.props_bytes,
                    "label_sets": len(state.label_sets),
                    "key_orders": len(state.key_orders),
                }
                for kind, state in sorted(self._kinds.items())
            },
            "checksums": dict(self._crcs),
            "sources": dict(self._sources),
        }

    def _flip_durable_byte(self) -> None:
        """Injected medium fault: XOR the last durable payload byte."""
        node_state = self._kinds[NODE_KIND]
        edge_state = self._kinds[EDGE_KIND]
        candidates = (
            (_heap_path(self._directory, NODE_KIND), node_state.props_bytes),
            (_heap_path(self._directory, EDGE_KIND), edge_state.props_bytes),
            (
                _column_path(self._directory, NODE_KIND, "ids"),
                node_state.rows * 8,
            ),
        )
        for path, durable in candidates:
            if durable <= 0:
                continue
            with path.open("r+b") as handle:
                handle.seek(durable - 1)
                byte = handle.read(1)
                handle.seek(durable - 1)
                handle.write(bytes((byte[0] ^ 0xFF,)))
            return

    def commit(self, sources: Mapping[str, int] | None = None) -> None:
        """Flush all buffers and atomically publish the new durable state.

        Each commit that changes the durable state also archives the
        *previous* state as a generation record (bounded to
        ``GENERATION_HISTORY``), giving the offline scrubber verified
        rollback points.

        Args:
            sources: Optional per-source progress markers to merge into
                the manifest (``key -> last fully processed line``); a
                resumed ingest reads them back via
                :meth:`source_progress`.
        """
        for state in self._kinds.values():
            self._flush_kind(state)
        if sources:
            for key, value in sources.items():
                self._sources[str(key)] = int(value)
        snapshot = self._snapshot()
        if snapshot != self._last_snapshot:
            self._generations.append(self._last_snapshot)
            if len(self._generations) > GENERATION_HISTORY:
                del self._generations[:-GENERATION_HISTORY]
            self._last_snapshot = snapshot
        manifest = {
            "version": SLAB_VERSION,
            "name": self._name,
            "kinds": {
                kind: state.manifest_entry()
                for kind, state in self._kinds.items()
            },
            "sources": dict(self._sources),
            "checksums": dict(self._crcs),
            "generations": [
                dict(generation) for generation in self._generations
            ],
        }
        seq = self._commit_seq
        self._commit_seq += 1
        _write_manifest(self._directory, manifest, self._injector, seq)
        self._uncommitted = 0
        if self._injector is not None and self._injector.corrupts(
            "slab-bitflip", seq
        ):
            self._flip_durable_byte()

    def reset(self) -> None:
        """Discard all rows and start the directory over (fresh manifest)."""
        for kind in (NODE_KIND, EDGE_KIND):
            for column in _INT_COLUMNS[kind]:
                _column_path(self._directory, kind, column).unlink(
                    missing_ok=True
                )
            _heap_path(self._directory, kind).unlink(missing_ok=True)
        manifest = _empty_manifest(self._name)
        seq = self._commit_seq
        self._commit_seq += 1
        _write_manifest(self._directory, manifest, self._injector, seq)
        self._sources = {}
        self._kinds = {
            kind: _KindState(kind, manifest["kinds"][kind])
            for kind in (NODE_KIND, EDGE_KIND)
        }
        self._crcs = {
            str(key): int(value)
            for key, value in manifest["checksums"].items()
        }
        self._generations = []
        self._uncommitted = 0
        self._recover()
        self._last_snapshot = self._snapshot()

    def close(self) -> None:
        """Drop buffered (uncommitted) rows without publishing them."""
        self._closed = True

    def __enter__(self) -> "SlabWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is None:
            self.commit()
        self.close()


class _KindView:
    """Reader-side mmap view of one kind's columns."""

    __slots__ = (
        "kind", "rows", "label_sets", "key_orders", "_columns", "_heap",
        "_heap_path", "_handles",
    )

    def __init__(
        self, directory: Path, kind: str, entry: Mapping[str, Any]
    ) -> None:
        self.kind = kind
        self.rows = int(entry["rows"])
        self.label_sets: tuple[frozenset[str], ...] = tuple(
            frozenset(labels) for labels in entry["label_sets"]
        )
        self.key_orders: tuple[tuple[str, ...], ...] = tuple(
            tuple(order) for order in entry["key_orders"]
        )
        self._handles: list[tuple[Any, mmap.mmap]] = []
        self._columns: dict[str, numpy.ndarray] = {}
        props_bytes = int(entry["props_bytes"])
        for column in _INT_COLUMNS[kind]:
            path = _column_path(directory, kind, column)
            self._columns[column] = self._map_array(path, self.rows)
        self._heap_path = _heap_path(directory, kind)
        self._heap = self._map_bytes(self._heap_path, props_bytes)

    def _map_array(self, path: Path, rows: int) -> numpy.ndarray:
        """Memory-map one int64 column, logically truncated to ``rows``."""
        if rows == 0:
            return numpy.empty(0, dtype=numpy.int64)
        mapped = self._map(path, rows * 8)
        return numpy.frombuffer(mapped, dtype=numpy.int64, count=rows)

    def _map_bytes(self, path: Path, length: int) -> "mmap.mmap | bytes":
        """Memory-map the property heap (empty heap maps to ``b""``)."""
        if length == 0:
            return b""
        return self._map(path, length)

    def _map(self, path: Path, length: int) -> mmap.mmap:
        """Open + mmap one file read-only, tracking the handle pair."""
        handle = path.open("rb")
        try:
            if os.fstat(handle.fileno()).st_size < length:
                raise SlabCorruptionError(
                    f"{path}: shorter than the manifest's {length} bytes",
                    path=path,
                    slab=path.stem,
                    kind="truncated",
                )
            mapped = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        except BaseException:
            handle.close()
            raise
        self._handles.append((handle, mapped))
        return mapped

    def column(self, name: str) -> numpy.ndarray:
        """One int64 column as a read-only array."""
        return self._columns[name]

    def properties_at(self, row: int) -> dict[str, Any]:
        """Unpickle one row's property dict from the heap.

        Raises:
            SlabCorruptionError: The pickle bytes fail to decode or
                decode to something other than a dict (kind
                ``"heap-decode"``) -- the last line of defence against
                damage that appeared *after* the open-time checksum
                pass (the mmap reflects later file writes).
        """
        ends = self._columns["propend"]
        start = int(ends[row - 1]) if row else 0
        return self._decode(row, self._heap[start : int(ends[row])])

    def properties_rows(self, rows: numpy.ndarray) -> list[dict[str, Any]]:
        """:meth:`properties_at` of each row, in order, with one column read."""
        rows = numpy.asarray(rows, dtype=numpy.int64)
        ends = self._columns["propend"]
        stops = ends[rows]
        starts = numpy.where(rows > 0, ends[rows - 1], 0)
        heap = self._heap
        return [
            self._decode(row, heap[start:stop])
            for row, start, stop in zip(
                rows.tolist(), starts.tolist(), stops.tolist()
            )
        ]

    def _decode(self, row: int, payload: bytes) -> dict[str, Any]:
        """Unpickle one row's property record, or raise heap-decode."""
        try:
            result: dict[str, Any] = pickle.loads(payload)
        except Exception as exc:
            raise SlabCorruptionError(
                f"{self._heap_path}: property pickle for {self.kind} row "
                f"{row} failed to decode: {exc}",
                path=self._heap_path,
                slab=f"{self.kind}-props",
                kind="heap-decode",
            ) from exc
        if not isinstance(result, dict):
            raise SlabCorruptionError(
                f"{self._heap_path}: property pickle for {self.kind} row "
                f"{row} decoded to {type(result).__name__}, not dict",
                path=self._heap_path,
                slab=f"{self.kind}-props",
                kind="heap-decode",
            )
        return result

    def close(self) -> None:
        """Release every mmap and file handle."""
        self._columns = {}
        self._heap = b""
        for handle, mapped in self._handles:
            try:
                mapped.close()
            except BufferError:  # pragma: no cover - exported view alive
                pass
            handle.close()
        self._handles = []


class SlabReader:
    """Read-only mmap view of a slab directory at its last commit.

    Every column is exposed as a numpy array over the mapped bytes,
    logically truncated to the manifest's durable row counts, so rows
    appended (but not committed) after the reader opened are invisible.

    With ``verify=True`` (the default) every durable file prefix is
    checked against the manifest's CRC-32 record before any mapping is
    handed out -- a torn write, bit flip or partial rename surfaces as a
    structured :class:`SlabCorruptionError` instead of silently wrong
    data.  ``verify=False`` skips the scan (one full read of the
    directory) for callers that just verified it out of band, e.g. the
    scrubber re-opening a directory it scrubbed.
    """

    def __init__(self, directory: str | Path, verify: bool = True) -> None:
        self._directory = Path(directory)
        manifest = read_manifest(self._directory)
        if verify:
            verify_manifest_files(self._directory, manifest)
        self._name = str(manifest["name"])
        self._sources: dict[str, int] = {
            str(key): int(value)
            for key, value in manifest.get("sources", {}).items()
        }
        self._kinds = {
            kind: _KindView(self._directory, kind, manifest["kinds"][kind])
            for kind in (NODE_KIND, EDGE_KIND)
        }
        self._fingerprint = _content_fingerprint(manifest)

    @property
    def name(self) -> str:
        """Graph name recorded in the manifest."""
        return self._name

    @property
    def fingerprint(self) -> str:
        """Content digest of the durable state (see _content_fingerprint)."""
        return self._fingerprint

    @property
    def directory(self) -> Path:
        """The slab directory."""
        return self._directory

    @property
    def node_count(self) -> int:
        """Durable node rows."""
        return self._kinds[NODE_KIND].rows

    @property
    def edge_count(self) -> int:
        """Durable edge rows."""
        return self._kinds[EDGE_KIND].rows

    @property
    def node_ids(self) -> numpy.ndarray:
        """Node ids in insertion order."""
        return self._kinds[NODE_KIND].column("ids")

    @property
    def node_label_ids(self) -> numpy.ndarray:
        """Per-node dense label-set ids (into :attr:`node_label_sets`)."""
        return self._kinds[NODE_KIND].column("labels")

    @property
    def node_keyset_ids(self) -> numpy.ndarray:
        """Per-node dense key-set ids (into :attr:`node_key_orders`)."""
        return self._kinds[NODE_KIND].column("keys")

    @property
    def node_label_sets(self) -> tuple[frozenset[str], ...]:
        """Interned node label sets in first-seen order."""
        return self._kinds[NODE_KIND].label_sets

    @property
    def node_key_orders(self) -> tuple[tuple[str, ...], ...]:
        """Interned node property-key orders in first-seen order."""
        return self._kinds[NODE_KIND].key_orders

    @property
    def edge_ids(self) -> numpy.ndarray:
        """Edge ids in insertion order."""
        return self._kinds[EDGE_KIND].column("ids")

    @property
    def edge_sources(self) -> numpy.ndarray:
        """Edge source node ids in insertion order."""
        return self._kinds[EDGE_KIND].column("src")

    @property
    def edge_targets(self) -> numpy.ndarray:
        """Edge target node ids in insertion order."""
        return self._kinds[EDGE_KIND].column("tgt")

    @property
    def edge_label_ids(self) -> numpy.ndarray:
        """Per-edge dense label-set ids (into :attr:`edge_label_sets`)."""
        return self._kinds[EDGE_KIND].column("labels")

    @property
    def edge_keyset_ids(self) -> numpy.ndarray:
        """Per-edge dense key-set ids (into :attr:`edge_key_orders`)."""
        return self._kinds[EDGE_KIND].column("keys")

    @property
    def edge_label_sets(self) -> tuple[frozenset[str], ...]:
        """Interned edge label sets in first-seen order."""
        return self._kinds[EDGE_KIND].label_sets

    @property
    def edge_key_orders(self) -> tuple[tuple[str, ...], ...]:
        """Interned edge property-key orders in first-seen order."""
        return self._kinds[EDGE_KIND].key_orders

    def source_progress(self, key: str) -> int:
        """Committed ingest progress marker for one source (0 if unseen)."""
        return self._sources.get(key, 0)

    def node_properties_at(self, row: int) -> dict[str, Any]:
        """One node row's property dict, original key order preserved."""
        return self._kinds[NODE_KIND].properties_at(row)

    def edge_properties_at(self, row: int) -> dict[str, Any]:
        """One edge row's property dict, original key order preserved."""
        return self._kinds[EDGE_KIND].properties_at(row)

    def node_properties_rows(self, rows: numpy.ndarray) -> list[dict[str, Any]]:
        """The property dicts of many node rows, in order."""
        return self._kinds[NODE_KIND].properties_rows(rows)

    def edge_properties_rows(self, rows: numpy.ndarray) -> list[dict[str, Any]]:
        """The property dicts of many edge rows, in order."""
        return self._kinds[EDGE_KIND].properties_rows(rows)

    def node_at(self, row: int) -> Node:
        """Materialize the node stored at ``row``."""
        view = self._kinds[NODE_KIND]
        return Node(
            id=int(view.column("ids")[row]),
            labels=view.label_sets[int(view.column("labels")[row])],
            properties=view.properties_at(row),
        )

    def edge_at(self, row: int) -> Edge:
        """Materialize the edge stored at ``row``."""
        view = self._kinds[EDGE_KIND]
        return Edge(
            id=int(view.column("ids")[row]),
            source=int(view.column("src")[row]),
            target=int(view.column("tgt")[row]),
            labels=view.label_sets[int(view.column("labels")[row])],
            properties=view.properties_at(row),
        )

    def iter_nodes(self) -> Iterator[Node]:
        """Stream every node in insertion order."""
        for row in range(self.node_count):
            yield self.node_at(row)

    def iter_edges(self) -> Iterator[Edge]:
        """Stream every edge in insertion order."""
        for row in range(self.edge_count):
            yield self.edge_at(row)

    def close(self) -> None:
        """Release every mmap held by this reader."""
        for view in self._kinds.values():
            view.close()

    def __enter__(self) -> "SlabReader":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
