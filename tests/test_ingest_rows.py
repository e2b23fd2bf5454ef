"""Row and range ingest against the object-at-a-time oracle.

:func:`repro.graph.io.stream_graph_jsonl` hands ``(id, labels,
properties)`` rows to its sink, and the slab ingest scans line-aligned
byte ranges into column chunks; neither builds element objects.  On a
malformed corpus, under every error policy and -- for the slab ingest
-- at every ``jobs``, both must behave exactly like the object path
kept in :mod:`tests.oracles.ingest`, whatever that path's chunk size: byte-identical slab directories (``manifest.json``
included), equal :class:`IngestReport`\\ s, the same first error under
``raise``, and equal in-memory graphs from the JSONL and CSV loaders.
A killed ingest resumes to the bytes of a clean one.
"""

import json
import os

import pytest

from repro.core.parallel import fork_available
from repro.graph.diskstore import INGEST_CHUNK_ROWS, ingest_jsonl_slabs
from repro.graph.io import (
    IngestReport,
    load_graph_csv,
    load_graph_jsonl,
    stream_graph_jsonl,
)
from repro.graph.model import PropertyGraph
from repro.graph.slab import SlabWriter
from tests.oracles.ingest import (
    ingest_jsonl_slabs_reference,
    load_graph_csv_reference,
    load_graph_jsonl_reference,
)

SLAB_BYTES = 4096
POLICIES = ("raise", "skip", "collect")
CHUNKS = (1, INGEST_CHUNK_ROWS)
JOBS = (1, 2, 3) if fork_available() else (1,)


def _node(node_id, labels=("Person",), **properties):
    return json.dumps({
        "kind": "node", "id": node_id, "labels": list(labels),
        "properties": properties,
    })


def _edge(edge_id, source, target, labels=("KNOWS",), **properties):
    return json.dumps({
        "kind": "edge", "id": edge_id, "source": source, "target": target,
        "labels": list(labels), "properties": properties,
    })


#: Valid rows with enough property payload to commit mid-stream at
#: ``SLAB_BYTES``, around every kind of malformed line.
MALFORMED_LINES = [
    *(_node(i, pad="p" * 120, n=i) for i in range(40)),
    "",                                                   # blank
    "   \t ",                                             # whitespace only
    '{"kind": "node", "id": 100,',                        # invalid JSON
    '{"kind": "node", "id": 101} trailing',               # trailing text
    '{"kind": "node", "id": 102} {"kind": "node", "id": 103}',  # two objects
    '\ufeff{"kind": "node", "id": 104}',                  # BOM
    "[1, 2, 3]",                                          # not an object
    '"just a string"',                                    # not an object
    "42",                                                 # not an object
    '{"kind": "hyperedge", "id": 105}',                   # unknown kind
    '{"id": 106}',                                        # missing kind
    '{"kind": "node", "id": "512", "labels": ["Person"]}',  # "512" -> 512
    '{"kind": "node", "id": 512.0}',                      # duplicate of 512
    '{"kind": "node", "id": 513.0, "labels": ["Post"]}',  # 513.0 -> 513
    '{"kind": "node", "id": true, "labels": []}',         # bool id
    '{"kind": "node", "id": null}',                       # null id
    '{"kind": "node", "labels": ["X"]}',                  # missing id
    '{"kind": "node", "id": "x1"}',                       # non-integer id
    '{"kind": "node", "id": 200, "properties": [["a", 1], ["b", 2]]}',
    '{"kind": "node", "id": 201, "properties": "ab"}',    # string props
    '{"kind": "node", "id": 202, "properties": ""}',      # "" -> {}
    '{"kind": "node", "id": 203, "properties": 5}',       # int props
    '{"kind": "node", "id": 204, "labels": "Person"}',    # string labels
    '{"kind": "node", "id": 205, "labels": null}',        # null labels
    '{"kind": "node", "id": 206, "labels": [["L"]]}',     # unhashable label
    '{"kind": "node", "id": 207, "properties": '
    '{"a": {"a": [1, {"a": "\\u00e9"}]}, "b": null}}',    # nested, shared keys
    _node(0, ("Dup",)),                                   # duplicate node id
    _node(-5, ("Neg",), k=-1.5),
    _edge(0, 0, 512, since=2001),
    _edge(0, 1, 2),                                       # duplicate edge id
    _edge(1, 0, 999),                                     # dangling target
    _edge(2, 998, 0),                                     # dangling source
    '{"kind": "edge", "id": "3", "source": "0", "target": "513"}',
    '{"kind": "edge", "id": null, "source": "x", "labels": []}',  # 3 rejects
    '{"kind": "edge", "id": 4.0, "source": true, "target": 2.0}',  # bool
    '{"kind": "edge", "id": 5, "source": 1, "target": 2, '
    '"properties": [["w", 1]], "labels": "KNOWS"}',
    '{"kind": "edge", "id": 6, "source": 1, "target": 2, "labels": 7}',
    _node(300, ("Late",), after="edges"),                 # kind flip
    _edge(7, 300, 0, ("LIKES",)),
    *(_edge(10 + i, i, i + 1, pad="e" * 120) for i in range(30)),
    '{"kind": "edge", "id": 8, "source": 1}',             # missing target
]


#: Lines of :data:`MALFORMED_LINES` a lenient load rejects, and the
#: rejects it reports (one edge line has three bad fields).
BAD_LINES = 26
REJECTS = 28


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(MALFORMED_LINES) + "\n", encoding="utf-8")
    return path


def _tree(directory):
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def _run(loader):
    """``(result, None)`` or ``(None, error message)``."""
    try:
        return loader(), None
    except ValueError as exc:
        return None, str(exc)


def _graph_elements(graph):
    return list(graph.nodes()), list(graph.edges())


def _report(policy):
    return IngestReport() if policy == "collect" else None


@pytest.mark.parametrize("chunk_rows", CHUNKS)
@pytest.mark.parametrize("policy", POLICIES)
def test_slab_ingest_matches_object_oracle(
    corpus, tmp_path, policy, chunk_rows
):
    """Every line of the corpus, under every policy and oracle chunk
    size, at every ``jobs``: the same slab bytes, report and first
    error.  Under ``raise`` the offending line is dropped and the ingest
    rerun until the corpus loads, so each bad line raises once."""
    lines = list(MALFORMED_LINES)
    errors = []
    for attempt in range(len(lines)):
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        oracle_dir = tmp_path / f"oracle-{attempt}"
        oracle_report = _report(policy)
        _, oracle_error = _run(lambda: ingest_jsonl_slabs_reference(
            corpus, oracle_dir, slab_bytes=SLAB_BYTES, on_error=policy,
            report=oracle_report, chunk_rows=chunk_rows,
        ))
        for jobs in JOBS:
            rows_dir = tmp_path / f"rows-{attempt}-{jobs}"
            rows_report = _report(policy)
            _, rows_error = _run(lambda: ingest_jsonl_slabs(
                corpus, rows_dir, slab_bytes=SLAB_BYTES, on_error=policy,
                report=rows_report, jobs=jobs,
            ).close())
            assert rows_error == oracle_error
            assert rows_report == oracle_report
            assert _tree(rows_dir) == _tree(oracle_dir)
        if oracle_error is None:
            break
        errors.append(oracle_error)
        line = int(oracle_error.split(":")[1])
        del lines[line - 1]
    if policy == "raise":
        assert len(errors) == BAD_LINES  # each bad line raised in turn
    else:
        assert errors == []
    if policy == "collect":
        assert len(oracle_report.errors) == REJECTS


@pytest.mark.parametrize("chunk_rows", CHUNKS)
@pytest.mark.parametrize("policy", POLICIES)
def test_memory_load_matches_object_oracle(corpus, policy, chunk_rows):
    rows_report, oracle_report = _report(policy), _report(policy)
    rows, rows_error = _run(lambda: load_graph_jsonl(
        corpus, on_error=policy, report=rows_report, chunk_rows=chunk_rows,
    ))
    oracle, oracle_error = _run(lambda: load_graph_jsonl_reference(
        corpus, on_error=policy, report=oracle_report, chunk_rows=chunk_rows,
    ))
    assert rows_error == oracle_error
    assert rows_report == oracle_report
    if policy == "raise":
        assert rows_error is not None
    else:
        assert rows.name == oracle.name
        assert _graph_elements(rows) == _graph_elements(oracle)
        assert rows.num_nodes > 40 and rows.num_edges > 30


def test_property_graph_sink_is_wrapped(corpus):
    """A bare PropertyGraph is still a valid stream_graph_jsonl sink."""
    graph = PropertyGraph("corpus")
    stream_graph_jsonl(corpus, graph, on_error="skip")
    oracle = load_graph_jsonl_reference(corpus, on_error="skip")
    assert _graph_elements(graph) == _graph_elements(oracle)


CSV_NODES = "\n".join([
    "id,labels,name,age",
    '0,Person,"""Ada""",36',
    "1,Person;Admin,\"\"\"Bob\"\"\",",
    "",
    '0,Dup,"""dup""",1',                  # duplicate id
    "x,Person,1,2",                       # non-integer id cell
    "7",                                  # truncated row
    '2,Post,{bad json,3',                 # invalid JSON cell
    "3,,,",                               # unlabeled, no properties
    '4,Person,"[1, 2]","{""k"": 1}"',
]) + "\n"

CSV_EDGES = "\n".join([
    "id,start,end,type,weight",
    "0,0,1,KNOWS,0.5",
    "0,1,0,KNOWS,",                       # duplicate id
    "1,0,99,KNOWS,",                      # dangling end
    "2,98,0,KNOWS,",                      # dangling start
    "3,1,x,KNOWS,",                       # non-integer id cell
    "4,1",                                # truncated row
    "5,1,3,LIKES;SEES,[oops",             # invalid JSON cell
    "6,3,4,,2",
]) + "\n"


@pytest.mark.parametrize("chunk_rows", CHUNKS)
@pytest.mark.parametrize("policy", POLICIES)
def test_csv_load_matches_object_oracle(tmp_path, policy, chunk_rows):
    nodes_path = tmp_path / "nodes.csv"
    edges_path = tmp_path / "edges.csv"
    nodes_path.write_text(CSV_NODES, encoding="utf-8")
    edges_path.write_text(CSV_EDGES, encoding="utf-8")
    rows_report, oracle_report = _report(policy), _report(policy)
    rows, rows_error = _run(lambda: load_graph_csv(
        nodes_path, edges_path, on_error=policy, report=rows_report,
        chunk_rows=chunk_rows,
    ))
    oracle, oracle_error = _run(lambda: load_graph_csv_reference(
        nodes_path, edges_path, on_error=policy, report=oracle_report,
        chunk_rows=chunk_rows,
    ))
    assert rows_error == oracle_error
    assert rows_report == oracle_report
    if policy == "raise":
        assert rows_error is not None
    else:
        assert _graph_elements(rows) == _graph_elements(oracle)
        assert rows.num_nodes == 4 and rows.num_edges == 2
    if policy == "collect":
        assert len(rows_report.errors) == 10


@pytest.mark.skipif(not fork_available(), reason="kill tests require fork")
@pytest.mark.parametrize("resume_jobs", (1, 2))
def test_killed_ingest_resumes_to_clean_bytes(corpus, tmp_path, resume_jobs):
    """The child dies right after its first durable commit; a resumed
    ingest of the rest, at any ``jobs``, ends byte-identical to a clean
    ingest."""
    slab_dir = tmp_path / "slabs"
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child dies deliberately
        commit = SlabWriter.commit

        def die_after_commit(writer, sources=None):
            commit(writer, sources)
            os._exit(137)

        SlabWriter.commit = die_after_commit
        ingest_jsonl_slabs(
            corpus, slab_dir, slab_bytes=SLAB_BYTES, on_error="skip"
        )
        os._exit(1)  # should have died at the first commit
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 137
    ingest_jsonl_slabs(
        corpus, slab_dir, slab_bytes=SLAB_BYTES, on_error="skip",
        resume=True, jobs=resume_jobs,
    ).close()
    clean_dir = tmp_path / "clean"
    ingest_jsonl_slabs(
        corpus, clean_dir, slab_bytes=SLAB_BYTES, on_error="skip",
    ).close()
    assert _tree(slab_dir) == _tree(clean_dir)
