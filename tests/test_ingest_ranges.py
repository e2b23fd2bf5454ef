"""Slab ingest over line-aligned byte ranges, at any ``jobs``.

:func:`repro.graph.diskstore.ingest_jsonl_slabs` cuts its input into
ranges whose size depends only on the file and ``slab_bytes``, scans
them in-process (``jobs=1``) or on a fork pool, and appends the chunks
in file order.  So every ``jobs`` must leave the same bytes -- the whole
directory, manifest included -- the same :class:`IngestReport`, and the
data of the line-at-a-time object oracle of :mod:`tests.oracles.ingest`
(``tests/test_ingest_rows.py`` runs its malformed corpus the same way).
Crashes are resumable at any ``jobs``, and no ingest outcome leaves a
worker process behind.
"""

import json
import multiprocessing
import os
import shutil

import pytest

from repro.core.parallel import fork_available
from repro.graph import diskstore
from repro.graph.diskstore import (
    RANGES_IN_FLIGHT_PER_JOB,
    SlabIngestError,
    ingest_jsonl_slabs,
    ingest_source_key,
)
from repro.graph.io import IngestReport
from repro.graph.slab import SlabCorruptionError, SlabWriter, read_manifest
from tests.oracles.ingest import (
    ingest_jsonl_slabs_reference,
    range_end_lines,
)

SLAB_BYTES = 4096
POLICIES = ("raise", "skip", "collect")
JOBS = (1, 2, 3) if fork_available() else (1,)
#: Line width (newline included) that divides a 4 KiB range exactly.
WIDTH = 128

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="pool ingest requires fork"
)


def _padded(record, width=WIDTH):
    """``record`` as one JSON line of exactly ``width`` bytes with ``\\n``."""
    record = dict(record, properties=dict(record["properties"], pad=""))
    line = json.dumps(record)
    record["properties"]["pad"] = "p" * (width - 1 - len(line))
    line = json.dumps(record)
    assert len(line) == width - 1
    return line


def _node(node_id, label="Person", **properties):
    return {"kind": "node", "id": node_id, "labels": [label],
            "properties": properties}


def _edge(edge_id, source, target, label="KNOWS", **properties):
    return {"kind": "edge", "id": edge_id, "source": source,
            "target": target, "labels": [label], "properties": properties}


def _boundary_corpus():
    """Raw bytes whose 4 KiB ranges hit every cut the ingest must get right.

    96 fixed-width node lines fill three ranges exactly, so one range
    boundary falls inside the node run and one right at the node→edge
    flip.  Then: one node line longer than a range, blank lines, CRLF
    line ends, an edge to a node that only appears in a later range,
    and no trailing newline.
    """
    lines = [_padded(_node(i, n=i)) for i in range(96)]
    lines += [_padded(_edge(i, i, i + 1, w=i)) for i in range(40)]
    lines.append(json.dumps(_node(500, "Wide", blob="w" * 6000)))
    lines += ["", "   "]
    lines += [_padded(_edge(100 + i, i, 500)) for i in range(20)]
    lines.append(json.dumps(_edge(200, 0, 900)))  # node 900 comes later
    lines += [_padded(_edge(300 + i, 500, i, w=i)) for i in range(30)]
    lines.append(json.dumps(_node(900, "Late")))
    lines.append(json.dumps(_edge(201, 900, 0)))
    body = "\n".join(lines[:150]) + "\n" + "\r\n".join(lines[150:])
    return body.encode("utf-8")


def _tree(directory):
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def _data(directory):
    return {
        name: data for name, data in _tree(directory).items()
        if name.endswith((".i64", ".dat"))
    }


def _ingest(path, directory, policy="skip", **kwargs):
    """``(report, error message)`` of one ingest."""
    report = IngestReport()
    try:
        ingest_jsonl_slabs(
            path, directory, slab_bytes=SLAB_BYTES, on_error=policy,
            report=report, **kwargs,
        ).close()
    except ValueError as exc:
        return report, str(exc)
    return report, None


@pytest.fixture
def boundary_corpus(tmp_path):
    path = tmp_path / "boundary.jsonl"
    path.write_bytes(_boundary_corpus())
    return path


def test_boundary_corpus_cuts_where_intended(boundary_corpus):
    """The ranges of the corpus: 32 lines each up to the node→edge flip,
    and one range stretched by the line longer than a range."""
    ends = range_end_lines(boundary_corpus, SLAB_BYTES)
    assert ends[:4] == [32, 64, 96, 128]
    assert 137 in ends and 136 not in ends  # the wide line ends a range
    assert len(ends) == 7


@pytest.mark.parametrize("policy", POLICIES)
def test_boundary_corpus_identical_at_any_jobs(
    boundary_corpus, tmp_path, policy
):
    oracle_report = IngestReport()
    try:
        ingest_jsonl_slabs_reference(
            boundary_corpus, tmp_path / "oracle", slab_bytes=SLAB_BYTES,
            on_error=policy, report=oracle_report,
        )
        oracle_error = None
    except ValueError as exc:
        oracle_error = str(exc)
    oracle = _tree(tmp_path / "oracle")
    for jobs in JOBS:
        report, error = _ingest(
            boundary_corpus, tmp_path / f"jobs-{jobs}", policy, jobs=jobs
        )
        assert error == oracle_error
        assert report.errors == oracle_report.errors
        if policy != "raise":
            assert report == oracle_report
        assert _tree(tmp_path / f"jobs-{jobs}") == oracle
    if policy == "raise":
        assert oracle_error is not None
        assert oracle_error.endswith(":160: edge 200: unknown target 900")
    else:
        assert [(e.line, e.reason) for e in report.errors] == [
            (160, "edge 200: unknown target 900"),
        ]
        assert report.nodes_loaded == 98
        assert report.edges_loaded == 91


def test_rejected_first_row_does_not_set_the_key_order(tmp_path):
    """A rejected duplicate that first shows a key set must not leave its
    key order (or its label set) in the interners: the first *accepted*
    row's order wins, as row-at-a-time interning had it."""
    lines = [
        json.dumps(_node(1, b=1, a=2)),
        json.dumps(_node(1, "Ghost", y=1, x=2)),   # duplicate: rejected
        json.dumps(_node(2, x=3, y=4)),            # first accepted {x, y}
        json.dumps(_edge(1, 1, 2, z=1)),
        json.dumps(_edge(1, 2, 1, "GHOST", q=1)),  # duplicate: rejected
        json.dumps(_edge(2, 2, 1, q=2)),
    ]
    path = tmp_path / "keys.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report, error = _ingest(path, tmp_path / "slabs", "collect")
    assert error is None and len(report.errors) == 2
    ingest_jsonl_slabs_reference(
        path, tmp_path / "oracle", slab_bytes=SLAB_BYTES, on_error="skip"
    )
    assert _tree(tmp_path / "slabs") == _tree(tmp_path / "oracle")
    kinds = read_manifest(tmp_path / "slabs")["kinds"]
    assert kinds["nodes"]["key_orders"] == [["b", "a"], ["x", "y"]]
    assert kinds["nodes"]["label_sets"] == [["Person"]]
    assert kinds["edges"]["label_sets"] == [["KNOWS"]]


@needs_fork
@pytest.mark.parametrize("jobs", (2, 3))
def test_ranges_in_flight_stay_bounded(
    boundary_corpus, tmp_path, monkeypatch, jobs
):
    """The parent never has more than 2 x jobs ranges submitted and not
    yet appended, however many ranges the file has."""
    pulled = 0
    in_flight = []
    cut = diskstore.cut_jsonl_ranges

    def counting_cut(*args):
        nonlocal pulled
        for item in cut(*args):
            pulled += 1
            yield item

    append = SlabWriter.append_chunk

    def recording_append(writer, chunk):
        in_flight.append(pulled - len(in_flight))
        return append(writer, chunk)

    monkeypatch.setattr(diskstore, "cut_jsonl_ranges", counting_cut)
    monkeypatch.setattr(SlabWriter, "append_chunk", recording_append)
    _ingest(boundary_corpus, tmp_path / "slabs", jobs=jobs)
    ranges = len(range_end_lines(boundary_corpus, SLAB_BYTES))
    assert len(in_flight) == ranges > RANGES_IN_FLIGHT_PER_JOB * jobs
    assert max(in_flight) == RANGES_IN_FLIGHT_PER_JOB * jobs


def test_same_input_in_two_directories_gives_the_same_bytes(
    boundary_corpus, tmp_path
):
    copies = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        copies.append(tmp_path / name / "graph.jsonl")
        shutil.copy(boundary_corpus, copies[-1])
        _ingest(copies[-1], tmp_path / name / "slabs")
    assert _tree(tmp_path / "a" / "slabs") == _tree(tmp_path / "b" / "slabs")
    assert read_manifest(tmp_path / "a" / "slabs")["sources"] == {
        f"graph.jsonl:{boundary_corpus.stat().st_size}": 192,
    }


def test_resume_under_an_unknown_source_key_starts_over(
    boundary_corpus, tmp_path
):
    """A directory whose progress marker is keyed otherwise (the input
    path, as before the file-name-and-size key) is ingested afresh."""
    with SlabWriter(tmp_path / "slabs", name="boundary") as writer:
        writer.add_nodes([(0, frozenset({"Old"}), {})])
        writer.commit({str(boundary_corpus): 1})
    _ingest(boundary_corpus, tmp_path / "slabs", resume=True)
    _ingest(boundary_corpus, tmp_path / "clean")
    assert _data(tmp_path / "slabs") == _data(tmp_path / "clean")
    assert read_manifest(tmp_path / "slabs")["sources"] == \
        read_manifest(tmp_path / "clean")["sources"]


@needs_fork
@pytest.mark.parametrize(
    "fault", ("slab-enospc:4:enospc", "slab-torn-write:3:corrupt")
)
def test_crash_at_jobs_2_resumes_at_any_jobs(boundary_corpus, tmp_path, fault):
    """A storage fault kills a jobs=2 ingest; resumed at jobs 1 or 2 --
    after a repair, for a torn write -- the directory ends byte-identical
    to a clean ingest, and no worker is left running."""
    from repro.graph.scrub import repair_slab_directory

    crashed = tmp_path / "crashed"
    with pytest.raises((SlabIngestError, SlabCorruptionError)) as info:
        ingest_jsonl_slabs(
            boundary_corpus, crashed, slab_bytes=SLAB_BYTES, on_error="skip",
            faults=fault, jobs=2,
        ).close()
    assert multiprocessing.active_children() == []
    if isinstance(info.value, SlabIngestError):
        assert info.value.committed_line == read_manifest(crashed)[
            "sources"
        ].get(ingest_source_key(boundary_corpus), 0)
    else:
        assert repair_slab_directory(crashed).repaired
    _ingest(boundary_corpus, tmp_path / "clean")
    for jobs in (1, 2):
        resumed = tmp_path / f"resumed-{jobs}"
        shutil.copytree(crashed, resumed)
        _ingest(boundary_corpus, resumed, resume=True, jobs=jobs)
        assert _tree(resumed) == _tree(tmp_path / "clean")
    assert multiprocessing.active_children() == []


@needs_fork
def test_dead_scan_worker_raises_with_the_committed_line(
    boundary_corpus, tmp_path, monkeypatch
):
    """A worker that dies mid-range surfaces as SlabIngestError carrying
    the durable progress, the pool is gone, and a resume completes."""
    scan = diskstore.scan_jsonl_range

    def dying_scan(path, start, stop):
        if start >= 5 * SLAB_BYTES:
            os._exit(3)
        return scan(path, start, stop)

    monkeypatch.setattr(diskstore, "scan_jsonl_range", dying_scan)
    slab_dir = tmp_path / "slabs"
    with pytest.raises(SlabIngestError) as info:
        ingest_jsonl_slabs(
            boundary_corpus, slab_dir, slab_bytes=SLAB_BYTES, jobs=2,
            on_error="skip",
        )
    assert multiprocessing.active_children() == []
    committed = read_manifest(slab_dir)["sources"].get(
        ingest_source_key(boundary_corpus), 0
    )
    assert info.value.committed_line == committed
    assert committed < 192  # the ranges past 20 KiB never landed
    assert "worker died" in str(info.value)
    monkeypatch.setattr(diskstore, "scan_jsonl_range", scan)
    _ingest(boundary_corpus, slab_dir, resume=True, jobs=2)
    _ingest(boundary_corpus, tmp_path / "clean")
    assert _tree(slab_dir) == _tree(tmp_path / "clean")
