"""Named incremental discovery sessions and their manager.

Each session owns one :class:`~repro.core.incremental.IncrementalDiscovery`
engine and processes its posted batches strictly in POST order on the
shared :class:`~repro.server.pool.SessionWorkerPool`.  Concurrency
contract:

* **Per-session FIFO** -- a session schedules at most one drain task at a
  time and re-enqueues itself after each batch, so batches of one
  session never run concurrently or out of order, while batches of
  *different* sessions overlap freely on the pool.
* **No torn schema reads** -- the running schema is only mutated (merge +
  endpoint resolution) under the session's schema lock, and every read
  path (schema snapshot, bulk validate, session info) deep-copies the
  schema under the same lock before serializing or validating outside
  it.  Readers therefore always observe a schema that was the complete
  result of some batch prefix.
* **Backpressure** -- at most ``server_queue_depth`` batches may be
  queued-or-running per session; excess posts fail with 503 instead of
  buffering unboundedly.

With ``checkpoint_dir`` set, a session writes its folded prefix -- the
engine checkpoint every one-shot run writes, with the accumulated
endpoint-label memory in its context -- after every ``checkpoint_every``
batches under ``<checkpoint_dir>/sessions/<name>/``, and the manager
restores every journaled session on daemon start -- a crashed daemon
resumes with the exact schemas it last checkpointed.
"""

from __future__ import annotations

import copy
import enum
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque

from repro.core.config import PGHiveConfig
from repro.core.incremental import IncrementalDiscovery, preload_engine_imports
from repro.core.postprocess import apply_partial_stats, clear_partial_stats
from repro.core.result import BatchReport, ShardResult
from repro.core.type_extraction import resolve_edge_endpoints
from repro.schema.model import SchemaGraph
from repro.schema.validate import ValidationReport, validate_batch
from repro.server.models import (
    ApiError,
    BatchRequest,
    SessionInfo,
    TicketInfo,
    ValidateRequest,
    validate_session_name,
)
from repro.server.pool import SessionWorkerPool
from repro.util.timing import StageTimer


class TicketStatus(enum.Enum):
    """Lifecycle of an asynchronous batch ingestion."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Ticket:
    """Tracks one posted batch through the ingestion pipeline."""

    id: str
    session: str
    status: TicketStatus = TicketStatus.QUEUED
    batch_index: int | None = None
    error: str | None = None
    report: dict[str, Any] | None = field(default=None)

    def info(self) -> TicketInfo:
        """The wire view of this ticket."""
        return TicketInfo(
            id=self.id,
            session=self.session,
            status=self.status.value,
            batch_index=self.batch_index,
            error=self.error,
            report=self.report,
        )


#: PGHiveConfig features a daemon session cannot honor, with the reason.
#: Rejected at session creation rather than surprising at batch time.
UNSUPPORTED_SESSION_FEATURES = {
    "memoize_patterns": "mutates schema types outside the merge step",
    "infer_datatypes_by_sampling": "needs a global store-backed pass",
    "exact_cardinality_bounds": "needs a global store-backed pass",
}


def check_session_config(config: PGHiveConfig) -> None:
    """Reject config features the session processing model cannot honor."""
    for feature, reason in sorted(UNSUPPORTED_SESSION_FEATURES.items()):
        if getattr(config, feature):
            raise ApiError(
                400,
                "unsupported-config",
                f"daemon sessions do not support {feature}: {reason}",
            )
    if config.jobs > 1:
        raise ApiError(
            400,
            "unsupported-config",
            "daemon sessions process batches on the shared server pool; "
            "per-session process pools (jobs > 1) ride the one-shot "
            "'pghive discover' path",
        )


class DiscoverySession:
    """One named incremental discovery stream inside the daemon."""

    def __init__(
        self,
        name: str,
        config: PGHiveConfig,
        pool: SessionWorkerPool,
        checkpoint_dir: Path | None,
    ) -> None:
        self.name = name
        self.config = config
        self._pool = pool
        self._checkpoint_dir = checkpoint_dir
        # _state_lock guards the work queue / scheduling flags;
        # _schema_lock guards the running schema and label memory.  A
        # drain task takes them one at a time, never nested.
        self._state_lock = threading.Lock()
        self._schema_lock = threading.Lock()
        self._work: Deque[tuple[Ticket, BatchRequest]] = deque()
        self._scheduled = False
        self._in_flight = 0
        self._node_labels: dict[int, frozenset[str]] = {}
        self._nodes_seen = 0
        self._edges_seen = 0
        self.engine = IncrementalDiscovery(config, name=name)
        if checkpoint_dir is not None and IncrementalDiscovery.has_checkpoint(
            checkpoint_dir
        ):
            self._restore(checkpoint_dir)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def enqueue(self, ticket: Ticket, request: BatchRequest) -> None:
        """Enqueue a batch; raises 503 when the session queue is full."""
        with self._state_lock:
            if (
                len(self._work) + self._in_flight
                >= self.config.server_queue_depth
            ):
                raise ApiError(
                    503,
                    "queue-full",
                    f"session {self.name!r} has "
                    f"{self.config.server_queue_depth} batches queued or "
                    "running; retry after tickets complete",
                )
            self._work.append((ticket, request))
            if not self._scheduled:
                self._scheduled = True
                self._pool.dispatch(self._drain)

    def _drain(self) -> None:
        """Process exactly one queued batch, then reschedule if needed."""
        with self._state_lock:
            if not self._work:
                self._scheduled = False
                return
            ticket, request = self._work.popleft()
            self._in_flight += 1
        ticket.status = TicketStatus.RUNNING
        try:
            # The DONE bookkeeping sits inside the try: any exception
            # after dequeue must fail the ticket, never leave it RUNNING.
            report = self._process(request)
            report_dict = report.to_dict()
            ticket.batch_index = report.index
            ticket.report = report_dict
            ticket.status = TicketStatus.DONE
        except Exception as exc:
            ticket.error = f"{type(exc).__name__}: {exc}"
            ticket.status = TicketStatus.FAILED
        finally:
            with self._state_lock:
                self._in_flight -= 1
                if self._work:
                    self._pool.dispatch(self._drain)
                else:
                    self._scheduled = False

    def _process(self, request: BatchRequest) -> BatchReport:
        """Run one batch through discovery and merge it into the schema.

        The request's rows are columnized and discovered outside the
        schema lock, as the disk store's shards are (the engine's
        ``discover_batch_columns``, which folds the §4.4 stats over the
        property columns); only the engine's fold, endpoint resolution
        and the label-memory update hold it, so readers block for the
        merge alone, never a discovery.
        """
        nodes, edges = request.nodes, request.edges
        started = time.perf_counter()
        stages = StageTimer()
        with stages.stage("vectorize"):
            ncols = nodes.columns()
            ecols = edges.columns(self._endpoint_labels(request))
        batch_schema, report = self.engine.discover_batch_columns(
            ncols, ecols, None, nodes.properties, edges.properties
        )
        report.add_caller_stages(stages.seconds, started)
        with self._schema_lock:
            self.engine.fold(ShardResult(report.index, batch_schema, report))
            resolve_edge_endpoints(self.engine.schema)
            self._node_labels.update(zip(nodes.ids, nodes.row_labels()))
            self._nodes_seen += len(nodes)
            self._edges_seen += len(edges)
            if (
                self._checkpoint_dir is not None
                and len(self.engine.reports) % self.config.checkpoint_every
                == 0
            ):
                self._save_checkpoint()
        return report

    def _endpoint_labels(
        self, request: BatchRequest
    ) -> dict[int, frozenset[str]]:
        """Label sets of the batch's edge endpoints.

        The request's ``endpoint_labels`` win, then the batch's own
        nodes (the last row of a repeated id), then the session's label
        memory, which is read only for the endpoints.  It is read
        without the schema lock: only the drain task of this session
        writes it, and the session runs one batch at a time, so no
        write can overlap this read.
        """
        nodes, edges = request.nodes, request.edges
        memory = self._node_labels
        empty: frozenset[str] = frozenset()
        labels = {
            node_id: memory.get(node_id, empty)
            for node_id in dict.fromkeys(edges.source + edges.target)
        }
        labels.update(zip(nodes.ids, nodes.row_labels()))
        if request.endpoint_labels:
            labels.update(request.endpoint_labels)
        return labels

    # ------------------------------------------------------------------
    # Reads (snapshot semantics -- no torn reads)
    # ------------------------------------------------------------------
    def snapshot_schema(self) -> SchemaGraph:
        """A consistent, post-processed copy of the running schema.

        Deep-copied under the schema lock, so the copy always reflects a
        complete batch prefix.  Partial post-processing stats are applied
        to the *copy* (statuses, datatypes, cardinalities); the live
        schema keeps its foldable stats for future merges.
        """
        with self._schema_lock:
            schema = copy.deepcopy(self.engine.schema)
        if self.config.post_processing:
            apply_partial_stats(schema, self.config)
        clear_partial_stats(schema)
        return schema

    def validate(self, request: ValidateRequest) -> ValidationReport:
        """Bulk admission check of a batch against the current schema.

        Endpoint labels resolve from the request's own nodes first, then
        the explicit ``endpoint_labels`` map, then the session's
        accumulated label memory (endpoints ingested in earlier batches).
        """
        schema = self.snapshot_schema()
        with self._schema_lock:
            endpoint_labels = dict(self._node_labels)
        endpoint_labels.update(
            {node.id: node.labels for node in request.nodes}
        )
        if request.endpoint_labels:
            endpoint_labels.update(request.endpoint_labels)
        return validate_batch(
            request.nodes,
            request.edges,
            schema,
            request.mode,
            endpoint_labels,
        )

    def info(self) -> SessionInfo:
        """Current session counters (consistent but non-blocking)."""
        with self._state_lock:
            pending = len(self._work) + self._in_flight
        with self._schema_lock:
            return SessionInfo(
                name=self.name,
                batches=len(self.engine.reports),
                pending=pending,
                nodes_seen=self._nodes_seen,
                edges_seen=self._edges_seen,
                node_types=len(self.engine.schema.node_types),
                edge_types=len(self.engine.schema.edge_types),
            )

    def pending(self) -> int:
        """Batches queued or running right now."""
        with self._state_lock:
            return len(self._work) + self._in_flight

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def _save_checkpoint(self) -> None:
        """Journal engine + session state (caller holds the schema lock)."""
        if self._checkpoint_dir is None:
            return
        context = {
            "session": self.name,
            "nodes_seen": self._nodes_seen,
            "edges_seen": self._edges_seen,
            "node_labels": [
                [node_id, sorted(labels)]
                for node_id, labels in sorted(self._node_labels.items())
            ],
        }
        self.engine.save_checkpoint(self._checkpoint_dir, context)

    def _restore(self, directory: Path) -> None:
        """Rebuild session state from a previous daemon's checkpoint."""
        self.engine = IncrementalDiscovery.from_checkpoint(
            directory, self.config, expected_context={"session": self.name}
        )
        context = self.engine.context
        self._node_labels = {
            int(node_id): frozenset(labels)
            for node_id, labels in context.get("node_labels", [])
        }
        self._nodes_seen = int(context.get("nodes_seen", 0))
        self._edges_seen = int(context.get("edges_seen", 0))


class SessionManager:
    """Registry of live sessions plus the shared ingestion pool."""

    def __init__(self, config: PGHiveConfig | None = None) -> None:
        self.config = config or PGHiveConfig()
        check_session_config(self.config)
        preload_engine_imports(self.config.method)
        self._pool = SessionWorkerPool(self.config.server_workers)
        self._lock = threading.Lock()
        self._sessions: dict[str, DiscoverySession] = {}
        self._tickets: dict[str, Ticket] = {}
        self._ticket_counter = 0
        if self.config.checkpoint_dir is not None:
            self._restore_sessions(Path(self.config.checkpoint_dir))

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def _session_checkpoint_dir(self, name: str) -> Path | None:
        if self.config.checkpoint_dir is None:
            return None
        return Path(self.config.checkpoint_dir) / "sessions" / name

    def _restore_sessions(self, checkpoint_root: Path) -> None:
        """Recreate every session journaled under ``checkpoint_dir``."""
        sessions_dir = checkpoint_root / "sessions"
        if not sessions_dir.is_dir():
            return
        for entry in sorted(sessions_dir.iterdir()):
            if not entry.is_dir() or not IncrementalDiscovery.has_checkpoint(
                entry
            ):
                continue
            name = validate_session_name(entry.name)
            self._sessions[name] = DiscoverySession(
                name, self.config, self._pool, entry
            )

    def create(self, name: str) -> DiscoverySession:
        """Create a named session; 409 when the name is taken."""
        validate_session_name(name)
        with self._lock:
            if name in self._sessions:
                raise ApiError(
                    409, "session-exists", f"session {name!r} already exists"
                )
            session = DiscoverySession(
                name,
                self.config,
                self._pool,
                self._session_checkpoint_dir(name),
            )
            self._sessions[name] = session
            return session

    def get_session(self, name: str) -> DiscoverySession:
        """Look up a session; 404 when unknown."""
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise ApiError(
                404, "no-such-session", f"no session named {name!r}"
            )
        return session

    def delete(self, name: str) -> None:
        """Drop a session from the registry; 409 while work is pending.

        The checkpoint directory (if any) is left on disk -- deletion
        removes the live session, not its durable history.
        """
        session = self.get_session(name)
        if session.pending():
            raise ApiError(
                409,
                "session-busy",
                f"session {name!r} has batches in flight; "
                "wait for its tickets to finish",
            )
        with self._lock:
            self._sessions.pop(name, None)

    def list_sessions(self) -> list[DiscoverySession]:
        """All live sessions, sorted by name."""
        with self._lock:
            return [
                self._sessions[name] for name in sorted(self._sessions)
            ]

    # ------------------------------------------------------------------
    # Tickets
    # ------------------------------------------------------------------
    def submit_batch(self, name: str, request: BatchRequest) -> Ticket:
        """Enqueue a batch on ``name``'s session; returns the ticket."""
        session = self.get_session(name)
        with self._lock:
            self._ticket_counter += 1
            ticket = Ticket(f"t-{self._ticket_counter}", session=name)
            self._tickets[ticket.id] = ticket
        try:
            session.enqueue(ticket, request)
        except ApiError:
            with self._lock:
                self._tickets.pop(ticket.id, None)
            raise
        return ticket

    def ticket(self, ticket_id: str) -> Ticket:
        """Look up a ticket; 404 when unknown."""
        with self._lock:
            ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise ApiError(
                404, "no-such-ticket", f"no ticket named {ticket_id!r}"
            )
        return ticket

    @property
    def leaked_task_errors(self) -> int:
        """Exceptions that escaped a pool task (reported on ``/health``)."""
        return self._pool.leaked_task_errors

    def shutdown(self) -> None:
        """Stop the worker pool (queued work is drained first)."""
        self._pool.shutdown()
