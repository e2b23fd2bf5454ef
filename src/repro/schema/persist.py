"""Schema persistence: save and resume discovered schemas as JSON.

Incremental discovery is only useful in practice if the running schema
survives process restarts: a nightly job loads yesterday's schema,
processes the day's batches, and stores the result.  This module
round-trips a :class:`~repro.schema.model.SchemaGraph` through a stable
JSON document, including the bookkeeping the incremental engine needs
(instance counts, per-property occurrence counters, cluster tokens) --
with or without the raw member id lists.

Two failure-hardening facilities live here as well:

* every decode error -- truncated or corrupt JSON, missing required
  fields, unknown format versions -- surfaces as a single
  :class:`SchemaPersistError` with the file path in the message, so a
  nightly job distinguishes "yesterday's schema is damaged" from its own
  bugs with one except clause;
* the run journal's on-disk halves, each written atomically (temp file +
  ``os.replace``) so a crash at any instant leaves whole documents,
  never a torn mix.  :func:`save_checkpoint` / :func:`load_checkpoint`
  hold the *folded prefix* (the running schema plus its manifest), and
  :func:`save_shard_journal_entry` / :func:`load_shard_journal` /
  :func:`clear_shard_journal` hold completed shards that could not be
  folded yet, one document each under ``<checkpoint_dir>/shards/``.
  The monotone merge (Lemmas 1-2) and shard purity are what make
  resuming from them safe at any worker count: folding the remaining
  batches gives the identical final schema.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any

from repro.util.diskio import fsync_directory
from repro.schema.model import (
    Cardinality,
    DataType,
    EdgeType,
    NodeType,
    PropertySpec,
    PropertyStatus,
    SchemaGraph,
)

_FORMAT_VERSION = 1
_CHECKPOINT_VERSION = 1
_SHARD_JOURNAL_VERSION = 1

_ABSTRACT_NAME_RE = re.compile(r"^ABSTRACT_[A-Z]+_(\d+)$")


class SchemaPersistError(ValueError):
    """A persisted schema or checkpoint could not be decoded.

    Raised for corrupt/truncated JSON, documents missing required
    fields, and format versions newer than this code understands.
    Subclasses ``ValueError`` so pre-existing callers that caught the
    old ad-hoc errors keep working.
    """


def schema_to_dict(
    schema: SchemaGraph, include_members: bool = True
) -> dict[str, Any]:
    """Serializable dict form of a schema graph."""
    return {
        "format_version": _FORMAT_VERSION,
        "name": schema.name,
        "node_types": [
            _node_type_to_dict(t, include_members)
            for t in schema.node_types.values()
        ],
        "edge_types": [
            _edge_type_to_dict(t, include_members)
            for t in schema.edge_types.values()
        ],
    }


def schema_from_dict(data: dict[str, Any]) -> SchemaGraph:
    """Rebuild a schema graph from :func:`schema_to_dict` output.

    Raises:
        SchemaPersistError: If the document is not a schema dict, names
            an unsupported format version, or is missing required fields.
    """
    if not isinstance(data, dict):
        raise SchemaPersistError(
            f"schema document must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise SchemaPersistError(
            f"unsupported schema format version {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    schema = SchemaGraph(data.get("name", "schema"))
    try:
        for record in data.get("node_types", ()):
            schema.add_node_type(_node_type_from_dict(record))
        for record in data.get("edge_types", ()):
            schema.add_edge_type(_edge_type_from_dict(record))
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaPersistError(
            f"malformed schema document: {exc!r}"
        ) from exc
    # Restore the abstract-name counter so future merges into the
    # reloaded schema never re-issue an ABSTRACT_*_n name already taken
    # (a resumed unlabeled run would otherwise hit a duplicate-name
    # error on its next merge).
    counter = 0
    for name in list(schema.node_types) + list(schema.edge_types):
        match = _ABSTRACT_NAME_RE.match(name)
        if match is not None:
            counter = max(counter, int(match.group(1)))
    schema._abstract_counter = counter
    return schema


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    ``os.replace`` is atomic on POSIX, so a reader (or a crash) observes
    either the full old file or the full new one.  The temp file is
    fsynced before the rename and the parent directory after it --
    without the directory fsync the rename itself can revert (or, for a
    first write, vanish) on power loss despite the data being durable.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_schema(
    schema: SchemaGraph, path: str | Path, include_members: bool = True
) -> None:
    """Write a schema to a JSON file (atomic write-and-rename)."""
    _atomic_write_text(
        Path(path),
        json.dumps(schema_to_dict(schema, include_members), indent=2),
    )


def load_schema(path: str | Path) -> SchemaGraph:
    """Read a schema previously written by :func:`save_schema`.

    Raises:
        SchemaPersistError: Corrupt/truncated JSON or an unreadable
            document (the message carries the file path).
        FileNotFoundError: The file does not exist.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaPersistError(
            f"{path}: corrupt or truncated schema JSON: {exc}"
        ) from exc
    try:
        return schema_from_dict(data)
    except SchemaPersistError as exc:
        raise SchemaPersistError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Run checkpoints (schema + manifest in one atomic document)
# ---------------------------------------------------------------------------

def save_checkpoint(
    path: str | Path, schema: SchemaGraph, manifest: dict[str, Any]
) -> None:
    """Journal a running schema plus its batch manifest atomically.

    The two halves travel in one document on purpose: separate files
    could be replaced at different instants, and a crash in between
    would leave a schema ahead of its manifest -- resuming from that
    would re-merge batches and double-count instances.  One
    ``os.replace`` keeps schema and manifest consistent by construction.
    """
    document = {
        "checkpoint_version": _CHECKPOINT_VERSION,
        "manifest": manifest,
        "schema": schema_to_dict(schema, include_members=True),
    }
    _atomic_write_text(Path(path), json.dumps(document))


def load_checkpoint(
    path: str | Path,
) -> tuple[SchemaGraph, dict[str, Any]]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns:
        ``(schema, manifest)``.

    Raises:
        SchemaPersistError: Corrupt/truncated JSON, an unsupported
            checkpoint version, or a malformed embedded schema.
        FileNotFoundError: The file does not exist.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaPersistError(
            f"{path}: corrupt or truncated checkpoint JSON: {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise SchemaPersistError(f"{path}: checkpoint must be a JSON object")
    version = document.get("checkpoint_version")
    if version != _CHECKPOINT_VERSION:
        raise SchemaPersistError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(this build reads version {_CHECKPOINT_VERSION})"
        )
    manifest = document.get("manifest")
    if not isinstance(manifest, dict):
        raise SchemaPersistError(f"{path}: checkpoint manifest missing")
    try:
        schema = schema_from_dict(document.get("schema"))
    except SchemaPersistError as exc:
        raise SchemaPersistError(f"{path}: {exc}") from exc
    return schema, manifest


# ---------------------------------------------------------------------------
# Out-of-order shard entries (one atomic document per completed shard)
# ---------------------------------------------------------------------------
#
# A pool completes shards in any order; a completed shard that cannot be
# folded yet (a lower index is still running) is journaled as its own
# atomic document, and deleted once a prefix checkpoint covers it.  The
# entry *content* (shard schema, partial stats, report, context) is
# assembled by :mod:`repro.core.pipeline`, which owns those types; this
# module only guarantees atomicity, versioning and tolerant enumeration.

def shard_journal_dir(directory: str | Path) -> Path:
    """Where a checkpoint directory keeps its parallel shard entries."""
    return Path(directory) / "shards"


def save_shard_journal_entry(
    directory: str | Path, index: int, document: dict[str, Any]
) -> Path:
    """Atomically journal one completed parallel shard; returns the path.

    The entry lands as ``shards/shard-<index>.json`` under the checkpoint
    directory, via the same temp-file + ``os.replace`` protocol as the
    sequential checkpoint, so readers never observe a torn entry.
    """
    journal = shard_journal_dir(directory)
    journal.mkdir(parents=True, exist_ok=True)
    path = journal / f"shard-{index:05d}.json"
    payload = dict(document)
    payload["journal_version"] = _SHARD_JOURNAL_VERSION
    payload["index"] = index
    _atomic_write_text(path, json.dumps(payload))
    return path


def load_shard_journal(
    directory: str | Path,
) -> tuple[dict[int, dict[str, Any]], list[str]]:
    """Read every readable shard journal entry under a checkpoint dir.

    Returns:
        ``(entries, skipped)`` -- shard index -> decoded entry document,
        plus the file names that could not be used (corrupt JSON, foreign
        journal versions, missing index).  Unusable entries are *skipped*
        rather than fatal: the resuming driver simply recomputes those
        shards, which is always safe, and surfaces the names.
    """
    journal = shard_journal_dir(directory)
    entries: dict[int, dict[str, Any]] = {}
    skipped: list[str] = []
    if not journal.is_dir():
        return entries, skipped
    for path in sorted(journal.glob("shard-*.json")):
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            skipped.append(path.name)
            continue
        if (
            not isinstance(document, dict)
            or document.get("journal_version") != _SHARD_JOURNAL_VERSION
            or not isinstance(document.get("index"), int)
        ):
            skipped.append(path.name)
            continue
        entries[int(document["index"])] = document
    return entries, skipped


def clear_shard_journal(
    directory: str | Path, before: int | None = None
) -> int:
    """Delete shard journal entries; returns how many were removed.

    A fresh (non-resume) run clears every entry so a later resume can
    never mix two runs' shards; a prefix checkpoint deletes the entries
    it covers (index below ``before``).
    """
    journal = shard_journal_dir(directory)
    if not journal.is_dir():
        return 0
    removed = 0
    for path in sorted(journal.glob("shard-*.json")):
        index = path.stem.partition("-")[2]
        if before is not None and not (
            index.isdigit() and int(index) < before
        ):
            continue
        try:
            path.unlink()
        except OSError:
            continue
        removed += 1
    return removed


# ---------------------------------------------------------------------------
# Record conversion
# ---------------------------------------------------------------------------

def _spec_to_dict(spec: PropertySpec) -> dict[str, Any]:
    return {
        "key": spec.key,
        "datatype": spec.datatype.name,
        "status": spec.status.name,
    }


def _spec_from_dict(record: dict[str, Any]) -> PropertySpec:
    return PropertySpec(
        key=record["key"],
        datatype=DataType[record.get("datatype", "UNKNOWN")],
        status=PropertyStatus[record.get("status", "OPTIONAL")],
    )


def _node_type_to_dict(
    node_type: NodeType, include_members: bool
) -> dict[str, Any]:
    return {
        "name": node_type.name,
        "labels": sorted(node_type.labels),
        "abstract": node_type.abstract,
        "properties": [
            _spec_to_dict(s) for _, s in sorted(node_type.properties.items())
        ],
        "instance_count": node_type.instance_count,
        "property_counts": dict(node_type.property_counts),
        "cluster_tokens": sorted(node_type.cluster_tokens),
        "members": list(node_type.members) if include_members else [],
    }


def _node_type_from_dict(record: dict[str, Any]) -> NodeType:
    node_type = NodeType(
        name=record["name"],
        labels=frozenset(record.get("labels", ())),
        abstract=bool(record.get("abstract", False)),
        instance_count=int(record.get("instance_count", 0)),
        property_counts=Counter(record.get("property_counts", {})),
        members=list(record.get("members", ())),
        cluster_tokens=set(record.get("cluster_tokens", ())),
    )
    for spec_record in record.get("properties", ()):
        spec = _spec_from_dict(spec_record)
        node_type.properties[spec.key] = spec
    return node_type


def _edge_type_to_dict(
    edge_type: EdgeType, include_members: bool
) -> dict[str, Any]:
    return {
        "name": edge_type.name,
        "labels": sorted(edge_type.labels),
        "abstract": edge_type.abstract,
        "properties": [
            _spec_to_dict(s) for _, s in sorted(edge_type.properties.items())
        ],
        "source_labels": sorted(edge_type.source_labels),
        "target_labels": sorted(edge_type.target_labels),
        "source_types": sorted(edge_type.source_types),
        "target_types": sorted(edge_type.target_types),
        "source_tokens": sorted(edge_type.source_tokens),
        "target_tokens": sorted(edge_type.target_tokens),
        "cardinality": edge_type.cardinality.name,
        "max_out": edge_type.max_out,
        "max_in": edge_type.max_in,
        "instance_count": edge_type.instance_count,
        "property_counts": dict(edge_type.property_counts),
        "members": list(edge_type.members) if include_members else [],
    }


def _edge_type_from_dict(record: dict[str, Any]) -> EdgeType:
    edge_type = EdgeType(
        name=record["name"],
        labels=frozenset(record.get("labels", ())),
        abstract=bool(record.get("abstract", False)),
        source_labels=frozenset(record.get("source_labels", ())),
        target_labels=frozenset(record.get("target_labels", ())),
        source_types=set(record.get("source_types", ())),
        target_types=set(record.get("target_types", ())),
        source_tokens=set(record.get("source_tokens", ())),
        target_tokens=set(record.get("target_tokens", ())),
        cardinality=Cardinality[record.get("cardinality", "UNKNOWN")],
        max_out=int(record.get("max_out", 0)),
        max_in=int(record.get("max_in", 0)),
        instance_count=int(record.get("instance_count", 0)),
        property_counts=Counter(record.get("property_counts", {})),
        members=list(record.get("members", ())),
    )
    for spec_record in record.get("properties", ()):
        spec = _spec_from_dict(spec_record)
        edge_type.properties[spec.key] = spec
    return edge_type
