"""Round-trip tests for JSONL and CSV graph serialization."""

import pytest

from repro.core.pipeline import PGHive
from repro.graph.diskstore import ingest_jsonl_slabs
from repro.graph.io import (
    IngestReport,
    load_graph_apoc_jsonl,
    load_graph_csv,
    load_graph_jsonl,
    save_graph_csv,
    save_graph_jsonl,
)
from repro.graph.store import GraphStore
from repro.schema.serialize_pgschema import serialize_pg_schema


def _assert_graphs_equal(a, b):
    assert a.num_nodes == b.num_nodes
    assert a.num_edges == b.num_edges
    for node in a.nodes():
        other = b.node(node.id)
        assert other.labels == node.labels
        assert dict(other.properties) == dict(node.properties)
    for edge in a.edges():
        other = b.edge(edge.id)
        assert (other.source, other.target) == (edge.source, edge.target)
        assert other.labels == edge.labels
        assert dict(other.properties) == dict(edge.properties)


class TestJsonl:
    def test_round_trip(self, figure1_graph, tmp_path):
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(figure1_graph, path)
        loaded = load_graph_jsonl(path)
        _assert_graphs_equal(figure1_graph, loaded)

    def test_name_defaults_to_stem(self, figure1_graph, tmp_path):
        path = tmp_path / "mygraph.jsonl"
        save_graph_jsonl(figure1_graph, path)
        assert load_graph_jsonl(path).name == "mygraph"

    def test_blank_lines_ignored(self, figure1_graph, tmp_path):
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(figure1_graph, path)
        path.write_text(path.read_text() + "\n\n", encoding="utf-8")
        _assert_graphs_equal(figure1_graph, load_graph_jsonl(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "hyperedge", "id": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="unknown record kind"):
            load_graph_jsonl(path)

    def test_wide_rows_flush_chunks_by_bytes(self, tmp_path):
        """Fat properties must cap peak chunk size, not buffer 2048 rows."""
        import json as jsonlib

        from repro.graph.io import DEFAULT_CHUNK_BYTES, stream_graph_jsonl

        blob = "x" * (DEFAULT_CHUNK_BYTES // 4)
        path = tmp_path / "wide.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for i in range(16):
                handle.write(jsonlib.dumps({
                    "kind": "node", "id": i, "labels": ["Doc"],
                    "properties": {"body": blob},
                }) + "\n")

        class Recorder:
            def __init__(self):
                self.chunks = []

            def add_nodes(self, nodes):
                self.chunks.append(len(nodes))
                return []

            def add_edges(self, edges):
                self.chunks.append(len(edges))
                return []

        sink = Recorder()
        stream_graph_jsonl(path, sink)
        assert sum(sink.chunks) == 16
        # Each row is ~DEFAULT_CHUNK_BYTES/4 of payload, so chunks flush
        # every few rows instead of holding all 16 documents at once.
        assert max(sink.chunks) <= 4
        assert len(sink.chunks) >= 4


DIRTY_JSONL = "\n".join([
    '{"kind": "node", "id": 0, "labels": ["Person"], '
    '"properties": {"name": "Ada"}}',                       # line 1 ok
    '{"kind": "node", "id": 1, "labels": ["Person"]}',      # line 2 ok
    '{"kind": "node", "id": 0, "labels": ["Dup"]}',         # 3: duplicate id
    '{"kind": "node", "id": "abc"}',                        # 4: non-int id
    "this is not json",                                     # 5: bad JSON
    '{"kind": "hyperedge", "id": 9}',                       # 6: unknown kind
    '{"kind": "edge", "id": 0, "source": 0, "target": 1, '
    '"labels": ["KNOWS"]}',                                 # line 7 ok
    '{"kind": "edge", "id": 1, "source": 0, "target": 42}',  # 8: no endpoint
    '{"kind": "edge", "id": 2, "source": 1}',               # 9: missing field
]) + "\n"


class TestJsonlErrorPolicies:
    def test_raise_is_default_with_line_context(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        path.write_text(DIRTY_JSONL, encoding="utf-8")
        with pytest.raises(ValueError, match=r"dirty\.jsonl:3: duplicate"):
            load_graph_jsonl(path)

    def test_skip_drops_bad_records(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        path.write_text(DIRTY_JSONL, encoding="utf-8")
        graph = load_graph_jsonl(path, on_error="skip")
        assert graph.num_nodes == 2
        assert graph.num_edges == 1
        assert graph.node(0).properties["name"] == "Ada"

    def test_collect_reports_every_rejected_line(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        path.write_text(DIRTY_JSONL, encoding="utf-8")
        report = IngestReport()
        graph = load_graph_jsonl(path, on_error="collect", report=report)
        assert graph.num_nodes == 2 and graph.num_edges == 1
        assert report.nodes_loaded == 2
        assert report.edges_loaded == 1
        assert [e.line for e in report.errors] == [3, 4, 5, 6, 8, 9]
        reasons = {e.line: e.reason for e in report.errors}
        assert "duplicate node id 0" in reasons[3]
        assert "non-integer node id 'abc'" in reasons[4]
        assert "invalid JSON" in reasons[5]
        assert "unknown record kind" in reasons[6]
        assert "unknown" in reasons[8]  # model's unknown-endpoint error
        assert "missing 'target'" in reasons[9]
        assert not report.ok
        assert str(path) + ":3:" in report.describe()

    def test_collect_requires_report(self, tmp_path, figure1_graph):
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(figure1_graph, path)
        with pytest.raises(ValueError, match="requires an IngestReport"):
            load_graph_jsonl(path, on_error="collect")

    def test_invalid_policy_rejected(self, tmp_path, figure1_graph):
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(figure1_graph, path)
        with pytest.raises(ValueError, match="on_error"):
            load_graph_jsonl(path, on_error="ignore")

    def test_clean_file_reports_ok(self, tmp_path, figure1_graph):
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(figure1_graph, path)
        report = IngestReport()
        loaded = load_graph_jsonl(path, on_error="collect", report=report)
        assert report.ok
        assert report.nodes_loaded == loaded.num_nodes
        assert report.edges_loaded == loaded.num_edges


NON_INTEGER_IDS = "\n".join([
    '{"kind": "node", "id": 12.5, "labels": ["A"]}',
    '{"kind": "node", "id": true, "labels": ["B"]}',
    '{"kind": "node", "id": false, "labels": ["C"]}',
    '{"kind": "node", "id": "7", "labels": ["D"]}',       # digit string
    '{"kind": "node", "id": 3.0, "labels": ["E"]}',       # integral float
    '{"kind": "edge", "id": 9, "source": 7, "target": 2.5}',
]) + "\n"


class TestNonIntegerIds:
    """``12.5``, ``true`` and ``false`` are not ids 12, 1 and 0."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        path.write_text(NON_INTEGER_IDS, encoding="utf-8")
        return path

    def test_raise(self, path):
        with pytest.raises(
            ValueError, match=r"ids\.jsonl:1: non-integer node id 12\.5"
        ):
            load_graph_jsonl(path)

    def test_skip(self, path):
        graph = load_graph_jsonl(path, on_error="skip")
        assert sorted(node.id for node in graph.nodes()) == [3, 7]
        assert graph.num_edges == 0

    def test_collect(self, path, tmp_path):
        report = IngestReport()
        load_graph_jsonl(path, on_error="collect", report=report)
        reasons = {e.line: e.reason for e in report.errors}
        assert sorted(reasons) == [1, 2, 3, 6]
        assert "non-integer node id 12.5" in reasons[1]
        assert "non-integer node id True" in reasons[2]
        assert "non-integer node id False" in reasons[3]
        assert "non-integer edge target 2.5" in reasons[6]
        slab_report = IngestReport()
        ingest_jsonl_slabs(
            path, tmp_path / "slabs", on_error="collect", report=slab_report
        ).close()
        assert slab_report == report


OUT_OF_RANGE_IDS = "\n".join([
    '{"kind": "node", "id": 1, "labels": ["A"]}',
    '{"kind": "node", "id": 9223372036854775813, "labels": ["A"]}',
    '{"kind": "node", "id": -9223372036854775809, "labels": ["A"]}',
    '{"kind": "node", "id": 9223372036854775807, "labels": ["B"]}',
    '{"kind": "edge", "id": 5, "source": 1, "target": 18446744073709551616}',
    '{"kind": "edge", "id": 6, "source": 1, "target": 9223372036854775807}',
]) + "\n"


class TestOutOfRangeIds:
    """Ids outside the signed 64-bit range of the id columns are rejected
    at their line, with one message on both loaders and under every
    policy; the int64 extremes themselves load and discover."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        path.write_text(OUT_OF_RANGE_IDS, encoding="utf-8")
        return path

    def test_raise(self, path, tmp_path):
        message = (
            r"ids\.jsonl:2: node id 9223372036854775813 outside the "
            r"signed 64-bit range"
        )
        with pytest.raises(ValueError, match=message):
            load_graph_jsonl(path)
        with pytest.raises(ValueError, match=message):
            ingest_jsonl_slabs(path, tmp_path / "slabs")

    @pytest.mark.parametrize("on_error", ["skip", "collect"])
    def test_lenient_loads_agree(self, path, tmp_path, on_error):
        report = IngestReport()
        graph = load_graph_jsonl(path, on_error=on_error, report=report)
        assert [(e.line, e.reason) for e in report.errors] == [
            (2, "node id 9223372036854775813 outside the signed 64-bit "
                "range"),
            (3, "node id -9223372036854775809 outside the signed 64-bit "
                "range"),
            (5, "edge target 18446744073709551616 outside the signed "
                "64-bit range"),
        ]
        slab_report = IngestReport()
        store = ingest_jsonl_slabs(
            path, tmp_path / "slabs", on_error=on_error, report=slab_report
        )
        assert slab_report == report
        memory = GraphStore(graph)
        assert [n.id for n in graph.nodes()] == [1, (1 << 63) - 1]
        assert serialize_pg_schema(PGHive().discover(store).schema) == (
            serialize_pg_schema(PGHive().discover(memory).schema)
        )
        store.close()


class TestCsv:
    def test_round_trip(self, figure1_graph, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        edges_path = tmp_path / "edges.csv"
        save_graph_csv(figure1_graph, nodes_path, edges_path)
        loaded = load_graph_csv(nodes_path, edges_path)
        _assert_graphs_equal(figure1_graph, loaded)

    def test_value_types_survive(self, figure1_graph, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        edges_path = tmp_path / "edges.csv"
        save_graph_csv(figure1_graph, nodes_path, edges_path)
        loaded = load_graph_csv(nodes_path, edges_path)
        # "since" was written as an int and must come back as an int.
        knows = [e for e in loaded.edges() if "since" in e.properties]
        assert knows and isinstance(knows[0].properties["since"], int)

    def test_multi_label_column(self, tmp_path):
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder()
        b.node(["Person", "Student"], {"name": "x"})
        nodes_path = tmp_path / "n.csv"
        edges_path = tmp_path / "e.csv"
        save_graph_csv(b.build(), nodes_path, edges_path)
        loaded = load_graph_csv(nodes_path, edges_path)
        assert loaded.node(0).labels == frozenset({"Person", "Student"})


class TestCsvErrorPolicies:
    def _dirty_files(self, tmp_path, figure1_graph):
        nodes_path = tmp_path / "nodes.csv"
        edges_path = tmp_path / "edges.csv"
        save_graph_csv(figure1_graph, nodes_path, edges_path)
        # Corrupt the node file: a non-integer id row and a duplicate.
        with nodes_path.open("a", encoding="utf-8", newline="") as handle:
            handle.write("not-a-number,Person\n")
            handle.write("0,Duplicate\n")
        # Corrupt the edge file: a dangling endpoint.
        with edges_path.open("a", encoding="utf-8", newline="") as handle:
            handle.write("999,0,424242,KNOWS\n")
        return nodes_path, edges_path

    def test_raise_names_file_and_line(self, tmp_path, figure1_graph):
        nodes_path, edges_path = self._dirty_files(tmp_path, figure1_graph)
        bad_line = len(nodes_path.read_text().splitlines()) - 1
        with pytest.raises(
            ValueError, match=rf"nodes\.csv:{bad_line}: non-integer"
        ):
            load_graph_csv(nodes_path, edges_path)

    def test_collect_reports_both_files(self, tmp_path, figure1_graph):
        nodes_path, edges_path = self._dirty_files(tmp_path, figure1_graph)
        report = IngestReport()
        graph = load_graph_csv(
            nodes_path, edges_path, on_error="collect", report=report
        )
        assert graph.num_nodes == figure1_graph.num_nodes
        assert graph.num_edges == figure1_graph.num_edges
        assert len(report.errors) == 3
        paths = {e.path for e in report.errors}
        assert str(nodes_path) in paths and str(edges_path) in paths
        reasons = " ".join(e.reason for e in report.errors)
        assert "non-integer" in reasons
        assert "duplicate node id 0" in reasons


class TestApocErrorPolicies:
    def test_skip_drops_dangling_relationship(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_text("\n".join([
            '{"type": "node", "id": "a", "labels": ["Person"], '
            '"properties": {}}',
            '{"type": "relationship", "label": "KNOWS", '
            '"start": {"id": "a"}, "end": {"id": "ghost"}}',
        ]) + "\n", encoding="utf-8")
        report = IngestReport()
        graph = load_graph_apoc_jsonl(
            path, on_error="collect", report=report
        )
        assert graph.num_nodes == 1 and graph.num_edges == 0
        assert len(report.errors) == 1
        assert report.errors[0].line == 2
        assert "unknown node" in report.errors[0].reason

    def test_raise_remains_default(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_text('{"type": "mystery"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="unknown APOC record type"):
            load_graph_apoc_jsonl(path)
