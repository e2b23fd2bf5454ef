"""HTTP surface of the discovery daemon.

Stdlib-only (``http.server.ThreadingHTTPServer``): one handler thread
per connection parses the request, and all actual work happens in
:class:`SchemaService` / the session layer -- the handler owns no
state, so concurrent clients contend only on the per-session locks.

Routes (see ``docs/API.md`` for payloads):

=======  ===================================  ==========================
Method   Path                                 Action
=======  ===================================  ==========================
GET      ``/health``                          liveness, session count,
                                              leaked task errors
POST     ``/sessions``                        create a named session
GET      ``/sessions``                        list sessions
GET      ``/sessions/{name}``                 session counters
DELETE   ``/sessions/{name}``                 drop a session
POST     ``/sessions/{name}/batches``         enqueue a batch (ticket)
GET      ``/tickets/{id}``                    ticket status
GET      ``/sessions/{name}/schema``          live schema snapshot
POST     ``/sessions/{name}/validate``        bulk admission check
POST     ``/shutdown``                        stop the daemon
=======  ===================================  ==========================
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, ClassVar
from urllib.parse import parse_qs, urlsplit

from repro.core.config import PGHiveConfig
from repro.schema.persist import schema_to_dict
from repro.schema.serialize_graphql import serialize_graphql
from repro.schema.serialize_pgschema import serialize_pg_schema
from repro.server.models import (
    SCHEMA_FORMATS,
    ApiError,
    BatchRequest,
    CreateSessionRequest,
    ValidateRequest,
    parse_mode,
)
from repro.server.session import SessionManager

#: Request bodies beyond this are rejected with 413 before parsing.
MAX_BODY_BYTES = 64 << 20


class SchemaService:
    """Routing and request semantics, independent of the HTTP plumbing.

    ``handle`` maps ``(method, path, query, body)`` to
    ``(status, response dict)``; every failure is an :class:`ApiError`,
    which the transport layer renders uniformly.  Keeping this free of
    ``http.server`` types makes the full surface drivable from tests
    without sockets.
    """

    def __init__(self, config: PGHiveConfig | None = None) -> None:
        self.sessions = SessionManager(config)
        #: Set by :class:`SchemaServer`; invoked by ``POST /shutdown``.
        self.on_shutdown: Callable[[], None] | None = None

    _ROUTES: ClassVar[list[tuple[str, re.Pattern[str], str]]] = [
        ("GET", re.compile(r"^/health$"), "health"),
        ("POST", re.compile(r"^/sessions$"), "create_session"),
        ("GET", re.compile(r"^/sessions$"), "list_sessions"),
        ("GET", re.compile(r"^/sessions/([^/]+)$"), "session_info"),
        ("DELETE", re.compile(r"^/sessions/([^/]+)$"), "delete_session"),
        ("POST", re.compile(r"^/sessions/([^/]+)/batches$"), "post_batch"),
        ("GET", re.compile(r"^/sessions/([^/]+)/schema$"), "get_schema"),
        ("POST", re.compile(r"^/sessions/([^/]+)/validate$"), "validate"),
        ("GET", re.compile(r"^/tickets/([^/]+)$"), "ticket_status"),
        ("POST", re.compile(r"^/shutdown$"), "shutdown"),
    ]

    def handle(
        self,
        method: str,
        path: str,
        query: dict[str, list[str]],
        body: dict[str, Any],
    ) -> tuple[int, dict[str, Any]]:
        """Dispatch one request; raises :class:`ApiError` on failure."""
        allowed: list[str] = []
        for route_method, pattern, endpoint in self._ROUTES:
            match = pattern.match(path)
            if match is None:
                continue
            if route_method != method:
                allowed.append(route_method)
                continue
            handler: Callable[..., tuple[int, dict[str, Any]]] = getattr(
                self, f"_do_{endpoint}"
            )
            return handler(*match.groups(), query=query, body=body)
        if allowed:
            raise ApiError(
                405,
                "method-not-allowed",
                f"{path} supports {sorted(set(allowed))}, not {method}",
            )
        raise ApiError(404, "no-such-route", f"no route for {path}")

    # -- endpoints ------------------------------------------------------
    def _do_health(
        self, query: dict[str, list[str]], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        return 200, {
            "status": "ok",
            "sessions": len(self.sessions.list_sessions()),
            "leaked_task_errors": self.sessions.leaked_task_errors,
        }

    def _do_create_session(
        self, query: dict[str, list[str]], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        request = CreateSessionRequest.from_dict(body)
        session = self.sessions.create(request.name)
        return 201, session.info().to_dict()

    def _do_list_sessions(
        self, query: dict[str, list[str]], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        return 200, {
            "sessions": [
                session.info().to_dict()
                for session in self.sessions.list_sessions()
            ]
        }

    def _do_session_info(
        self, name: str, query: dict[str, list[str]], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        return 200, self.sessions.get_session(name).info().to_dict()

    def _do_delete_session(
        self, name: str, query: dict[str, list[str]], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        self.sessions.delete(name)
        return 200, {"deleted": name}

    def _do_post_batch(
        self, name: str, query: dict[str, list[str]], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        request = BatchRequest.from_dict(body)
        ticket = self.sessions.submit_batch(name, request)
        return 202, ticket.info().to_dict()

    def _do_ticket_status(
        self, ticket_id: str, query: dict[str, list[str]],
        body: dict[str, Any],
    ) -> tuple[int, dict[str, Any]]:
        return 200, self.sessions.ticket(ticket_id).info().to_dict()

    def _do_get_schema(
        self, name: str, query: dict[str, list[str]], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        fmt = query.get("format", ["pgschema"])[0]
        if fmt not in SCHEMA_FORMATS:
            raise ApiError(
                400,
                "bad-format",
                f"format must be one of {sorted(SCHEMA_FORMATS)}, "
                f"got {fmt!r}",
            )
        mode = parse_mode(query.get("mode", [None])[0])
        schema = self.sessions.get_session(name).snapshot_schema()
        serialized: str | dict[str, Any]
        if fmt == "json":
            serialized = schema_to_dict(schema, include_members=False)
        elif fmt == "graphql":
            serialized = serialize_graphql(schema)
        else:
            serialized = serialize_pg_schema(schema, mode=mode.value)
        return 200, {"session": name, "format": fmt, "schema": serialized}

    def _do_validate(
        self, name: str, query: dict[str, list[str]], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        request = ValidateRequest.from_dict(body)
        report = self.sessions.get_session(name).validate(request)
        return 200, {"session": name, "report": report.to_dict()}

    def _do_shutdown(
        self, query: dict[str, list[str]], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        hook = self.on_shutdown
        if hook is None:
            raise ApiError(
                409, "not-stoppable", "this service has no shutdown hook"
            )
        # Stop from a helper thread: BaseServer.shutdown() blocks until
        # serve_forever() returns, and this handler is *inside* a
        # serve_forever-spawned thread -- the response must flush first.
        threading.Thread(
            target=hook, name="pghive-serve-shutdown", daemon=True
        ).start()
        return 200, {"stopping": True}


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON transport around :class:`SchemaService`."""

    service: ClassVar[SchemaService]
    server_version = "pghive-serve"
    protocol_version = "HTTP/1.1"

    # The default implementation stamps wall-clock lines onto stderr for
    # every request; the daemon stays quiet (and deterministic).
    def log_message(self, format: str, *args: Any) -> None:
        return

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413, "body-too-large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(
                400, "bad-json", f"request body is not JSON: {exc}"
            ) from None
        if not isinstance(body, dict):
            raise ApiError(
                400, "bad-json", "request body must be a JSON object"
            )
        return body

    def _respond(self, status: int, payload: dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str) -> None:
        try:
            split = urlsplit(self.path)
            body = self._read_body()
            status, payload = self.service.handle(
                method, split.path, parse_qs(split.query), body
            )
        except ApiError as exc:
            self._respond(exc.status, exc.to_dict())
        except Exception as exc:
            self._respond(
                500,
                {"error": "internal", "message": f"{type(exc).__name__}: {exc}"},
            )
        else:
            self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("DELETE")


class SchemaServer:
    """The daemon: a threading HTTP server bound to a :class:`SchemaService`.

    ``server_port=0`` binds an ephemeral port (tests); :attr:`port`
    reports the bound one either way.  Use as a context manager or call
    :meth:`shutdown` explicitly -- it stops the listener *and* the shared
    session worker pool.
    """

    def __init__(self, config: PGHiveConfig | None = None) -> None:
        self.config = config or PGHiveConfig()
        self.service = SchemaService(self.config)

        bound_service = self.service

        class BoundHandler(_Handler):
            service = bound_service

        self._httpd = ThreadingHTTPServer(
            (self.config.server_host, self.config.server_port), BoundHandler
        )
        self._httpd.daemon_threads = True
        self.service.on_shutdown = self.shutdown
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        """The bound address."""
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even for ``server_port=0``)."""
        return int(self._httpd.server_address[1])

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (blocking)."""
        self._httpd.serve_forever()

    def start_background(self) -> "SchemaServer":
        """Serve from a daemon thread; returns self (test harness)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="pghive-serve", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting, close the socket, stop the worker pool."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self.service.sessions.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SchemaServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
