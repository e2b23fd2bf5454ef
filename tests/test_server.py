"""Tests for the discovery daemon (schema API server).

Covers the full session lifecycle over real HTTP (ephemeral ports, no
fixtures on the network), the concurrency contract (parallel batch
posts to independent sessions, validate-during-ingest, no torn schema
reads), backpressure, checkpoint/restart, and single-batch equivalence
with the one-shot pipeline.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import PGHiveConfig
from repro.core.pipeline import PGHive
from repro.datasets import get_dataset, inject_noise
from repro.graph.store import GraphStore
from repro.schema.persist import schema_from_dict, schema_to_dict
from repro.server import ApiError, SchemaServer, SchemaService
from repro.server.models import (
    BatchRequest,
    parse_edges,
    parse_nodes,
    validate_session_name,
)
from repro.server.pool import SessionWorkerPool
from repro.server.session import SessionManager, TicketStatus


def _node(node_id, labels=("Person",), **properties):
    return {"id": node_id, "labels": list(labels), "properties": properties}


def _edge(edge_id, source, target, labels=("KNOWS",), **properties):
    return {
        "id": edge_id,
        "source": source,
        "target": target,
        "labels": list(labels),
        "properties": properties,
    }


def _record(element):
    """The JSON record of a model node or edge."""
    record = {"id": element.id}
    if hasattr(element, "source"):
        record["source"] = element.source
        record["target"] = element.target
    record["labels"] = sorted(element.labels)
    record["properties"] = dict(element.properties)
    return record


def _settle(service, ticket_id, timeout=60.0):
    """Poll a socket-free service until the ticket leaves the queue."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, info = service.handle("GET", f"/tickets/{ticket_id}", {}, {})
        if info["status"] in ("done", "failed"):
            return info
        time.sleep(0.005)
    raise AssertionError(f"ticket {ticket_id} did not settle")


def _batch(start=0, count=12, label="Person"):
    nodes = [
        _node(start + i, labels=(label,), name=f"n{start + i}", age=i)
        for i in range(count)
    ]
    edges = [
        _edge(10_000 + start + i, start + i, start + (i + 1) % count,
              since=2020)
        for i in range(count - 1)
    ]
    return {"nodes": nodes, "edges": edges}


class _Client:
    """Tiny urllib JSON client against one server."""

    def __init__(self, server: SchemaServer) -> None:
        self.base = f"http://127.0.0.1:{server.port}"

    def call(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def wait_ticket(self, ticket_id, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, ticket = self.call("GET", f"/tickets/{ticket_id}")
            assert status == 200
            if ticket["status"] in ("done", "failed"):
                return ticket
            time.sleep(0.02)
        raise AssertionError(f"ticket {ticket_id} did not settle")

    def ingest(self, session, batch):
        status, ticket = self.call(
            "POST", f"/sessions/{session}/batches", batch
        )
        assert status == 202, ticket
        settled = self.wait_ticket(ticket["id"])
        assert settled["status"] == "done", settled.get("error")
        return settled


@pytest.fixture
def server():
    instance = SchemaServer(
        PGHiveConfig(server_port=0, server_workers=2)
    ).start_background()
    yield instance
    instance.shutdown()


@pytest.fixture
def client(server):
    return _Client(server)


class TestLifecycle:
    def test_health(self, client):
        status, body = client.call("GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["leaked_task_errors"] == 0

    def test_full_session_lifecycle(self, client):
        status, body = client.call("POST", "/sessions", {"name": "s1"})
        assert status == 201 and body["name"] == "s1"

        status, _ = client.call("POST", "/sessions", {"name": "s1"})
        assert status == 409

        settled = client.ingest("s1", _batch())
        assert settled["batch_index"] == 0
        assert settled["report"]["num_nodes"] == 12

        status, info = client.call("GET", "/sessions/s1")
        assert status == 200
        assert info["batches"] == 1
        assert info["nodes_seen"] == 12
        assert info["node_types"] >= 1

        status, listing = client.call("GET", "/sessions")
        assert [s["name"] for s in listing["sessions"]] == ["s1"]

        status, deleted = client.call("DELETE", "/sessions/s1")
        assert status == 200 and deleted == {"deleted": "s1"}
        assert client.call("GET", "/sessions/s1")[0] == 404

    def test_schema_formats(self, client):
        client.call("POST", "/sessions", {"name": "fmt"})
        client.ingest("fmt", _batch())
        status, pg = client.call("GET", "/sessions/fmt/schema")
        assert status == 200
        assert "CREATE GRAPH TYPE" in pg["schema"]
        status, gql = client.call(
            "GET", "/sessions/fmt/schema?format=graphql"
        )
        assert "type Person" in gql["schema"]
        status, doc = client.call("GET", "/sessions/fmt/schema?format=json")
        schema = schema_from_dict(doc["schema"])
        assert any(
            t.labels == frozenset({"Person"})
            for t in schema.node_types.values()
        )
        assert client.call(
            "GET", "/sessions/fmt/schema?format=yaml"
        )[0] == 400

    def test_validate_endpoint(self, client):
        client.call("POST", "/sessions", {"name": "adm"})
        client.ingest("adm", _batch())
        good = {"nodes": [_node(500, name="ok", age=1)], "edges": []}
        status, body = client.call("POST", "/sessions/adm/validate", good)
        assert status == 200
        assert body["report"]["valid"] is True
        bad = {
            "nodes": [_node(501, labels=("Alien",), zap=3)],
            "edges": [],
            "mode": "STRICT",
        }
        status, body = client.call("POST", "/sessions/adm/validate", bad)
        assert body["report"]["valid"] is False
        assert body["report"]["violations"][0]["rule"] == "no-type"
        assert 0.0 <= body["report"]["violation_rate"] <= 1.0

    def test_validate_uses_session_label_memory(self, client):
        """Edges referencing nodes from earlier batches resolve labels."""
        client.call("POST", "/sessions", {"name": "mem"})
        client.ingest("mem", _batch(start=0, count=8))
        probe = {
            "nodes": [],
            "edges": [_edge(9_999, 0, 1, since=2024)],
            "mode": "STRICT",
        }
        status, body = client.call("POST", "/sessions/mem/validate", probe)
        assert status == 200
        assert body["report"]["valid"] is True, body["report"]

    def test_error_surface(self, client):
        assert client.call("GET", "/nope")[0] == 404
        assert client.call("DELETE", "/health")[0] == 405
        assert client.call("GET", "/sessions/ghost")[0] == 404
        assert client.call("GET", "/tickets/t-77")[0] == 404
        assert client.call(
            "POST", "/sessions", {"name": "../evil"}
        )[0] == 400
        status, body = client.call(
            "POST", "/sessions", {"name": "bad-batch"}
        )
        assert status == 201
        status, body = client.call(
            "POST", "/sessions/bad-batch/batches",
            {"nodes": [{"labels": "oops"}]},
        )
        assert status == 400
        assert body["error"] == "bad-request"


class TestConcurrency:
    def test_parallel_ingest_independent_sessions(self, client):
        """Concurrent batch posts to N sessions all land, schemas intact."""
        names = [f"c{i}" for i in range(3)]
        for name in names:
            assert client.call("POST", "/sessions", {"name": name})[0] == 201
        results = {}

        def run(name, offset):
            tickets = []
            for batch_number in range(3):
                status, ticket = client.call(
                    "POST", f"/sessions/{name}/batches",
                    _batch(start=offset + batch_number * 50, count=10),
                )
                assert status == 202
                tickets.append(ticket["id"])
            results[name] = [client.wait_ticket(t) for t in tickets]

        threads = [
            threading.Thread(target=run, args=(name, i * 1000))
            for i, name in enumerate(names)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for name in names:
            settled = results[name]
            assert [t["status"] for t in settled] == ["done"] * 3
            # Per-session FIFO: batch indices in POST order.
            assert [t["batch_index"] for t in settled] == [0, 1, 2]
            status, info = client.call("GET", f"/sessions/{name}")
            assert info["batches"] == 3
            assert info["nodes_seen"] == 30

    def test_validate_during_ingest_never_tears(self, client):
        """Schema/validate reads during ingestion always see a
        well-formed snapshot (never a half-merged schema)."""
        client.call("POST", "/sessions", {"name": "torn"})
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                status, body = client.call(
                    "GET", "/sessions/torn/schema?format=json"
                )
                if status != 200:
                    failures.append(body)
                    return
                try:
                    schema_from_dict(body["schema"])
                except Exception as exc:  # noqa: BLE001 - recording
                    failures.append(repr(exc))
                    return
                status, verdict = client.call(
                    "POST", "/sessions/torn/validate",
                    {"nodes": [_node(1, name="x", age=1)], "edges": []},
                )
                if status != 200:
                    failures.append(verdict)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        tickets = []
        for batch_number in range(4):
            status, ticket = client.call(
                "POST", "/sessions/torn/batches",
                _batch(start=batch_number * 40, count=10,
                       label=f"L{batch_number}"),
            )
            assert status == 202
            tickets.append(ticket["id"])
        for ticket_id in tickets:
            assert client.wait_ticket(ticket_id)["status"] == "done"
        stop.set()
        thread.join(timeout=30)
        assert not failures, failures

    def test_backpressure_returns_503(self):
        config = PGHiveConfig(
            server_port=0, server_workers=1, server_queue_depth=2
        )
        with SchemaServer(config).start_background() as server:
            client = _Client(server)
            client.call("POST", "/sessions", {"name": "full"})
            # Occupy the lone worker so no posted batch can drain: the
            # session queue then fills to exactly its depth.
            gate = threading.Event()
            server.service.sessions._pool.dispatch(gate.wait)
            try:
                statuses = [
                    client.call(
                        "POST", "/sessions/full/batches",
                        _batch(start=batch_number * 30, count=25),
                    )[0]
                    for batch_number in range(4)
                ]
            finally:
                gate.set()
            assert statuses == [202, 202, 503, 503]


class TestEquivalenceAndRestart:
    def test_single_batch_matches_oneshot_pipeline(
        self, client, figure1_graph
    ):
        """One posted batch discovers the same types as PGHive.discover."""
        expected = PGHive(PGHiveConfig()).discover(
            GraphStore(figure1_graph)
        ).schema
        client.call("POST", "/sessions", {"name": "fig1"})
        nodes = [
            {
                "id": n.id,
                "labels": sorted(n.labels),
                "properties": dict(n.properties),
            }
            for n in figure1_graph.nodes()
        ]
        edges = [
            {
                "id": e.id,
                "source": e.source,
                "target": e.target,
                "labels": sorted(e.labels),
                "properties": dict(e.properties),
            }
            for e in figure1_graph.edges()
        ]
        client.ingest("fig1", {"nodes": nodes, "edges": edges})
        _, doc = client.call("GET", "/sessions/fig1/schema?format=json")
        served = schema_from_dict(doc["schema"])
        assert {
            (t.labels, t.property_keys) for t in served.node_types.values()
        } == {
            (t.labels, t.property_keys)
            for t in expected.node_types.values()
        }

    @pytest.mark.parametrize("dataset,noisy", [
        ("POLE", False), ("LDBC", False), ("IYP", True),
    ])
    def test_batches_match_oneshot_incremental(self, dataset, noisy):
        """Four posted batches serve the one-shot ``--batches 4`` schema,
        byte for byte apart from the session name."""
        generated = get_dataset(dataset, scale=1, seed=1)
        if noisy:
            generated = inject_noise(
                generated, property_noise=0.2, label_availability=0.5,
                seed=2,
            )
        config = PGHiveConfig(server_workers=1)
        store = GraphStore(generated.graph)
        expected = schema_to_dict(
            PGHive(config).discover_incremental(store, 4).schema,
            include_members=False,
        )
        service = SchemaService(config)
        try:
            service.handle("POST", "/sessions", {}, {"name": "s"})
            for batch in store.batches(4, seed=config.seed):
                body = json.loads(json.dumps({
                    "nodes": [_record(node) for node in batch.nodes],
                    "edges": [_record(edge) for edge in batch.edges],
                    "endpoint_labels": {
                        str(node_id): sorted(labels)
                        for node_id, labels in batch.endpoint_labels.items()
                    },
                }))
                status, ticket = service.handle(
                    "POST", "/sessions/s/batches", {}, body
                )
                assert status == 202
                assert _settle(service, ticket["id"])["status"] == "done"
            _, served = service.handle(
                "GET", "/sessions/s/schema", {"format": ["json"]}, {}
            )
        finally:
            service.sessions.shutdown()
        assert served["schema"]["name"] == "s"
        assert json.dumps(
            {**served["schema"], "name": None}, sort_keys=True
        ) == json.dumps({**expected, "name": None}, sort_keys=True)

    def test_checkpoint_restart_restores_sessions(self, tmp_path):
        config = PGHiveConfig(
            server_port=0, checkpoint_dir=str(tmp_path / "ckpt")
        )
        with SchemaServer(config).start_background() as server:
            client = _Client(server)
            client.call("POST", "/sessions", {"name": "durable"})
            client.ingest("durable", _batch(count=10))
            _, before = client.call(
                "GET", "/sessions/durable/schema?format=json"
            )
        # A new daemon over the same checkpoint dir restores the session.
        with SchemaServer(config).start_background() as revived:
            client = _Client(revived)
            status, info = client.call("GET", "/sessions/durable")
            assert status == 200
            assert info["batches"] == 1
            assert info["nodes_seen"] == 10
            _, after = client.call(
                "GET", "/sessions/durable/schema?format=json"
            )
            assert after["schema"] == before["schema"]
            # And it keeps ingesting from where it left off.
            settled = client.ingest("durable", _batch(start=100, count=6))
            assert settled["batch_index"] == 1


class TestSessionLayerDirect:
    """Unit-level checks that do not need sockets."""

    def test_unsupported_config_rejected(self):
        with pytest.raises(ApiError) as excinfo:
            SessionManager(PGHiveConfig(memoize_patterns=True))
        assert excinfo.value.status == 400
        with pytest.raises(ApiError):
            SessionManager(PGHiveConfig(jobs=2))

    def test_session_name_validation(self):
        assert validate_session_name("ok-name_1") == "ok-name_1"
        for bad in ("", "a/b", "a b", "x" * 65, "dot.dot"):
            with pytest.raises(ApiError):
                validate_session_name(bad)

    def test_parse_rejects_malformed_elements(self):
        with pytest.raises(ApiError):
            parse_nodes([{"id": "seven"}])
        with pytest.raises(ApiError):
            parse_edges([{"id": 1, "source": 2}])
        request = BatchRequest.from_dict(
            {"nodes": [_node(1, name="a")], "edges": []}
        )
        rows = request.nodes
        assert rows.label_sets[rows.label_ids[0]] == frozenset({"Person"})

    def test_batch_endpoint_precedence(self):
        """A batch's edge endpoints take the request's endpoint_labels,
        then the batch's nodes (last row wins), then the label memory
        of earlier batches, and unknown endpoints the empty set."""
        manager = SessionManager(PGHiveConfig(server_workers=1))
        try:
            session = manager.create("s")
            session._node_labels.update({
                1: frozenset({"Old"}), 2: frozenset({"Old"}),
                3: frozenset({"Old"}),
            })
            request = BatchRequest.from_dict({
                "nodes": [_node(2, labels=("First",)),
                          _node(3, labels=("Batch",)),
                          _node(2, labels=("Last",))],
                "edges": [_edge(10, 1, 2), _edge(11, 3, 4),
                          _edge(12, 5, 2)],
                "endpoint_labels": {"3": ["Explicit"], "7": ["Unused"]},
            })
            labels = session._endpoint_labels(request)
            assert {node_id: labels.get(node_id) for node_id in
                    (1, 2, 3, 4, 5)} == {
                1: frozenset({"Old"}),
                2: frozenset({"Last"}),
                3: frozenset({"Explicit"}),
                4: frozenset(),
                5: frozenset(),
            }
        finally:
            manager.shutdown()

    def test_exception_after_discovery_fails_the_ticket(self, monkeypatch):
        """An exception raised after the batch left the queue -- here by
        the report serialization -- fails the ticket; it never stays
        RUNNING.  ``shutdown()`` drains the queue before it returns."""
        from repro.core.result import BatchReport

        def broken_to_dict(self):
            raise RuntimeError("report serialization failed")

        monkeypatch.setattr(BatchReport, "to_dict", broken_to_dict)
        manager = SessionManager(PGHiveConfig(server_workers=1))
        manager.create("s")
        ticket = manager.submit_batch(
            "s", BatchRequest.from_dict(_batch(count=6))
        )
        manager.shutdown()
        assert ticket.status is TicketStatus.FAILED
        assert ticket.error

    def test_shutdown_drains_every_queued_batch(self):
        """A session runs one batch per pool task and re-dispatches its
        drain behind whatever is queued, stop sentinels included:
        ``shutdown()`` must still run every queued batch first."""
        store = GraphStore(get_dataset("POLE", scale=1, seed=1).graph)
        service = SchemaService(PGHiveConfig(server_workers=1))
        service.handle("POST", "/sessions", {}, {"name": "s"})
        tickets = []
        for batch in store.batches(4, seed=0):
            status, ticket = service.handle(
                "POST", "/sessions/s/batches", {},
                {
                    "nodes": [_record(node) for node in batch.nodes],
                    "edges": [_record(edge) for edge in batch.edges],
                },
            )
            assert status == 202
            tickets.append(ticket["id"])
        service.sessions.shutdown()
        assert [
            service.handle("GET", f"/tickets/{ticket}", {}, {})[1]["status"]
            for ticket in tickets
        ] == ["done"] * 4

    def test_leaked_task_exception_is_counted(self):
        """A task that raises is counted, and the worker that ran it
        still runs the next task.  ``shutdown()`` drains the queue before
        it returns, so both tasks have run by then."""
        pool = SessionWorkerPool(1)
        ran = []

        def leaky():
            raise RuntimeError("leaked")

        pool.dispatch(leaky)
        pool.dispatch(lambda: ran.append("later"))
        pool.shutdown()
        assert pool.leaked_task_errors == 1
        assert ran == ["later"]

    def test_health_reports_leaked_task_errors(self):
        def leaky():
            raise RuntimeError("leaked")

        service = SchemaService(PGHiveConfig(server_workers=1))
        service.sessions._pool.dispatch(leaky)
        service.sessions.shutdown()
        status, body = service.handle("GET", "/health", {}, {})
        assert status == 200 and body["leaked_task_errors"] == 1

    def test_shutdown_endpoint_stops_server(self):
        server = SchemaServer(
            PGHiveConfig(server_port=0)
        ).start_background()
        client = _Client(server)
        status, body = client.call("POST", "/shutdown")
        assert status == 200 and body == {"stopping": True}
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                client.call("GET", "/health")
            except (ConnectionError, OSError):
                break
            time.sleep(0.05)
        else:  # pragma: no cover - diagnostics only
            raise AssertionError("server still answering after /shutdown")
