"""Parallel sharded discovery: a fault-tolerant multi-process pipeline.

The incremental engine computes each batch schema *independently* of the
running schema, and the merge rules of :mod:`repro.schema.merge` are
union-only (Lemmas 1-2).  Batch discovery therefore parallelizes
embarrassingly: shard the source into batches, discover each shard's
schema in a worker process, and fold the per-shard schemas in batch
order with :func:`repro.schema.merge.merge_schemas`, exactly as the
sequential engine folds each batch into its running schema.  Pattern
memoization is the exception -- it reads the running schema -- so
:class:`repro.core.pipeline.PGHive` never sends a memoized run here.

Payload contract
----------------
The pool has one input, a graph store
(:meth:`ParallelDiscovery.discover_store`).  The driver calls
:meth:`~repro.graph.store.BaseGraphStore.plan_shards` -- the same cached
partition :meth:`~repro.graph.store.BaseGraphStore.batches` streams in
the sequential engine -- and forks.  Workers never receive pickled
:class:`~repro.graph.model.Node` / :class:`~repro.graph.model.Edge`
objects: each gets :class:`~repro.graph.store.ShardPlan` scalars and
materializes + columnizes its shards against the fork-inherited store
(the disk backend columnizes straight from its mapped slabs when no
per-element pass needs the objects).  Shard results come back pickled
through the pool's own pipe: a shard schema is small next to the graph
it summarizes.

Failure model and recovery
--------------------------
Because shard discovery is a *pure* function of the shard payload, any
shard may be re-executed any number of times, anywhere, and merge to the
identical schema -- re-execution is the entire recovery strategy:

* a task that **raises** is split into single-shard tasks; a failing
  single shard is retried up to ``config.shard_retries`` times with
  linear backoff (``config.shard_retry_backoff``);
* a **dead worker** (``BrokenProcessPool``: OOM kill, segfault, injected
  ``kill`` fault) breaks the whole pool; the driver respawns the pool
  and requeues only the shards whose results were lost;
* a task exceeding ``config.shard_timeout`` seconds is declared **hung**;
  the pool's processes are killed, the pool respawns, the timed-out
  shards are blamed and everything else requeues untouched;
* with ``config.shard_memory_limit_mb`` set, workers check their RSS
  between pipeline stages and raise :class:`ShardMemoryError` *before*
  the kernel OOM killer fires; the failure surfaces as a structured
  ``ShardFailure(kind="memory")`` and retries/falls back normally (the
  in-process fallback is unguarded -- the driver has the parent's
  headroom);
* a shard that exhausts its pool retries is re-executed **in-process**
  as a last resort; a shard that *still* fails is dropped from the run
  unless ``config.strict_recovery`` raises :class:`ShardRecoveryError`.

Determinism contract
--------------------
The final schema is a pure function of the set of *successful* shard
schemas: the driver sorts them by shard index and folds them in that
order, so the result is independent of worker count, chunking,
completion order, and of how many attempts each shard needed.  It is the
sequential engine's fold over the same batches, so the result is
byte-identical to ``jobs=1`` (``tests/test_parallel.py`` enforces both
properties).
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.config import PGHiveConfig
from repro.core.faults import FaultInjector
from repro.core.incremental import (
    IncrementalDiscovery,
    preload_engine_imports,
    run_context,
)
from repro.core.postprocess import (
    schema_stats_from_dict,
    schema_stats_to_dict,
)
from repro.core.result import BatchReport, DiscoveryResult, ShardFailure
from repro.core.type_extraction import resolve_edge_endpoints
from repro.graph.slab import SlabCorruptionError
from repro.graph.store import BaseGraphStore, ShardPlan
from repro.schema.merge import merge_schemas
from repro.schema.model import SchemaGraph
from repro.schema.persist import (
    SchemaPersistError,
    clear_shard_journal,
    load_shard_journal,
    save_shard_journal_entry,
    schema_from_dict,
    schema_to_dict,
)

__all__ = [
    "ParallelDiscovery",
    "ShardMemoryError",
    "ShardRecoveryError",
    "ShardResult",
    "combine_shard_results",
    "fork_available",
]


class ShardRecoveryError(RuntimeError):
    """Raised in strict mode when a shard fails beyond all recovery.

    Carries the full failure history so callers can distinguish a
    poisoned shard (every attempt failed the same way) from flaky
    infrastructure (mixed kinds across attempts).
    """

    def __init__(self, failures: Sequence[ShardFailure]) -> None:
        self.failures = list(failures)
        unrecovered = sorted({
            f.index for f in self.failures if f.recovered_by is None
        })
        super().__init__(
            f"shards {unrecovered} failed after retries and in-process "
            f"fallback ({len(self.failures)} failure events)"
        )


class ShardMemoryError(RuntimeError):
    """A worker's resident set exceeded ``config.shard_memory_limit_mb``.

    Raised between pipeline stages inside pool workers only; surfaces at
    the driver as a ``ShardFailure(kind="memory")`` and flows through
    the ordinary retry / in-process-fallback machinery.
    """


@dataclass
class ShardResult:
    """One shard's independently discovered schema plus diagnostics."""

    index: int
    schema: SchemaGraph
    report: BatchReport
    parameters: dict[str, str] = field(default_factory=dict)


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform.

    The pool relies on copy-on-write inheritance of the parent's store;
    without ``fork`` (e.g. Windows, or macOS policies forcing ``spawn``)
    the driver falls back to sequential discovery.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def combine_shard_results(
    name: str,
    results: Sequence[ShardResult],
    config: PGHiveConfig,
) -> SchemaGraph:
    """Fold per-shard schemas into the final schema (pure function).

    Sorts by shard index and merges each shard schema into a fresh named
    schema with :func:`~repro.schema.merge.merge_schemas` -- the left
    fold the sequential engine computes, one batch at a time -- then
    resolves edge endpoint types once.  Resolution only overwrites
    ``source_types``/``target_types``, which no merge decision reads, so
    resolving after the last merge equals resolving after every one.
    Because the fold depends only on the *sorted* results, any
    permutation of ``results`` (worker completion order) yields the
    identical schema.
    """
    final = SchemaGraph(name)
    for result in sorted(results, key=lambda r: r.index):
        merge_schemas(
            final,
            result.schema,
            config.jaccard_threshold,
            config.endpoint_jaccard_threshold,
        )
    resolve_edge_endpoints(final)
    return final


# ----------------------------------------------------------------------
# Worker side.  State shared by fork inheritance: the parent sets
# ``_PARENT_STATE`` immediately before creating the pool, children
# inherit the reference copy-on-write, and nothing graph-sized is ever
# pickled.  (Pool tasks themselves carry only shard plans, plus the
# per-shard attempt numbers the fault injector keys on.)
# ----------------------------------------------------------------------
@dataclass
class _ParentState:
    """Everything a forked worker inherits from the driver."""

    source: BaseGraphStore
    config: PGHiveConfig


_PARENT_STATE: _ParentState | None = None


def _worker_injector(config: PGHiveConfig) -> FaultInjector | None:
    return FaultInjector.from_spec(config.faults)


def _current_rss_mb() -> float:
    """Resident set size of this process in MiB."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0


def _check_memory(
    config: PGHiveConfig, in_worker: bool, stage: str, index: int
) -> None:
    """Raise :class:`ShardMemoryError` when the worker RSS is over budget.

    Only armed inside pool workers: the in-process fallback runs in the
    driver, whose resident set includes the whole parent store, so a
    budget sized for workers would spuriously kill the recovery path.
    """
    limit = config.shard_memory_limit_mb
    if limit is None or not in_worker:
        return
    rss = _current_rss_mb()
    if rss > limit:
        raise ShardMemoryError(
            f"shard {index}: worker rss {rss:.1f} MiB exceeds "
            f"shard_memory_limit_mb={limit:g} after {stage}"
        )


def _discover_plan_chunk(
    plans: Sequence[ShardPlan],
    attempts: Sequence[int],
    in_worker: bool = True,
) -> list[ShardResult]:
    """Worker: materialize, columnize and discover a chunk of shards.

    A chunk of *consecutive* shard indices shares one engine, so the
    cross-batch embedder reuse of the sequential engine still applies
    within the chunk (reuse never changes output, only cost).
    """
    state = _PARENT_STATE
    if state is None:
        raise RuntimeError("worker has no inherited parent state")
    source, config = state.source, state.config
    injector = _worker_injector(config)
    engine = IncrementalDiscovery(config, name="shard")
    columnizer = getattr(source, "columnize_shard", None)
    results: list[ShardResult] = []
    for plan, attempt in zip(plans, attempts):
        if injector is not None:
            injector.fire("shard", plan.index, attempt, in_worker=in_worker)
        seen = len(engine.parameters)
        if columnizer is not None and not config.post_processing:
            # Out-of-core fast path: the disk backend columnizes a shard
            # straight from its mapped slab columns, byte-identical to
            # materializing objects first but without ever holding them.
            # The §4.4 fold still needs the object form, so
            # post-processing runs take the materializing path below.
            ncols, ecols = columnizer(plan)
            _check_memory(config, in_worker, "columnization", plan.index)
            schema, report = engine.discover_batch_columns(
                ncols, ecols, batch_index=plan.index
            )
        else:
            batch = source.materialize_shard(plan)
            _check_memory(config, in_worker, "materialization", plan.index)
            schema, report = engine.discover_batch(
                batch.nodes, batch.edges, batch.endpoint_labels,
                batch_index=plan.index,
            )
        _check_memory(config, in_worker, "discovery", plan.index)
        report.worker = os.getpid()
        params = dict(list(engine.parameters.items())[seen:])
        results.append(ShardResult(plan.index, schema, report, params))
    return results


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes and discard the executor.

    A hung worker cannot be cancelled through the executor API, so the
    timeout watchdog resorts to SIGKILL; the executor object is then
    abandoned (broken) and the driver builds a fresh one.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already-dead races
            pass
    pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# Shard journal (parallel-path checkpointing)
# ----------------------------------------------------------------------
class _ShardJournal:
    """Journals completed shards under ``<checkpoint_dir>/shards/``.

    Each entry is one atomic JSON document (shard schema with members,
    partial post-processing stats, batch report, parameters) plus the
    :func:`~repro.core.incremental.run_context` the sequential
    checkpoint also records.  A resumed run loads every entry whose
    context matches, skips those shards in the pool, and merges
    journaled and fresh results identically -- shard purity guarantees
    a journaled shard equals its recomputation byte for byte.  Entries
    that cannot be used (corrupt files, foreign versions, a different
    run context) are recomputed and reported, never fatal.
    """

    def __init__(self, directory: str, context: dict[str, object]) -> None:
        self.directory = Path(directory)
        self.context = dict(context)
        self.skipped: list[str] = []

    def reset(self) -> None:
        """Drop all entries (fresh run: never mix two runs' shards)."""
        clear_shard_journal(self.directory)

    def record(self, shard: ShardResult) -> None:
        """Atomically journal one completed shard."""
        document: dict[str, object] = {
            "context": self.context,
            "schema": schema_to_dict(shard.schema, include_members=True),
            "stats": schema_stats_to_dict(shard.schema),
            "report": shard.report.to_dict(),
            "parameters": dict(shard.parameters),
        }
        save_shard_journal_entry(self.directory, shard.index, document)

    def load(self) -> dict[int, ShardResult]:
        """Rebuild ShardResults from every usable journaled entry."""
        entries, self.skipped = load_shard_journal(self.directory)
        results: dict[int, ShardResult] = {}
        for index in sorted(entries):
            document = entries[index]
            if document.get("context") != self.context:
                self.skipped.append(
                    f"shard-{index:05d}.json: context mismatch"
                )
                continue
            try:
                schema = schema_from_dict(document.get("schema", {}))
            except SchemaPersistError:
                self.skipped.append(
                    f"shard-{index:05d}.json: malformed schema"
                )
                continue
            schema_stats_from_dict(schema, document.get("stats"))
            report = BatchReport.from_dict(document.get("report", {}))
            parameters = {
                str(key): str(value)
                for key, value in document.get("parameters", {}).items()
            }
            results[index] = ShardResult(index, schema, report, parameters)
        return results


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
class ParallelDiscovery:
    """Multi-process batch discovery with retry, respawn, and fallback.

    Drives ``config.jobs`` worker processes over the shards of one graph
    store (:meth:`discover_store`), then combines the per-shard schemas
    with :func:`combine_shard_results`.  Each worker runs the engine's
    one batch method, so with post-processing on its shard types carry
    the folded §4.4 statistics (:class:`~repro.core.postprocess.TypeStats`)
    through the merge, and :class:`repro.core.pipeline.PGHive`
    finishes the merged schema exactly as it finishes a sequential one.
    See the module docstring for the failure model and for why memoized
    runs never reach the pool.
    """

    def __init__(self, config: PGHiveConfig | None = None) -> None:
        self.config = config or PGHiveConfig()

    def _prepare_journal(
        self, context: dict[str, object], resume: bool
    ) -> tuple["_ShardJournal | None", dict[int, ShardResult]]:
        if not self.config.checkpoint_dir:
            return None, {}
        journal = _ShardJournal(self.config.checkpoint_dir, context)
        if resume:
            return journal, journal.load()
        journal.reset()
        return journal, {}

    def discover_store(
        self, store: BaseGraphStore, num_batches: int, resume: bool = False
    ) -> DiscoveryResult:
        """Shard ``store`` into ``num_batches`` and discover in parallel.

        The driver partitions serially with ``store.plan_shards`` -- the
        cached partition the sequential engine's ``store.batches`` uses,
        so every shard is byte-identical to the batch ``jobs=1`` sees --
        and forked workers inherit that partition with the store.

        When ``config.checkpoint_dir`` is set, every completed shard is
        journaled atomically under ``<checkpoint_dir>/shards/``; with
        ``resume=True``, shards already journaled by a crashed run with
        the same context (source, batch count, seed, post-processing
        flags) are loaded instead of recomputed, and the merged schema is
        byte-identical to an uninterrupted run.  A non-resume run clears
        the journal first.
        """
        started = time.perf_counter()
        config = self.config
        journal, preloaded = self._prepare_journal(
            run_context(
                store.name, num_batches, config.seed, config,
                store.journal_fingerprint(),
            ),
            resume,
        )
        partition_started = time.perf_counter()
        plans = store.plan_shards(num_batches, seed=config.seed)
        partition_seconds = time.perf_counter() - partition_started
        todo = [plan for plan in plans if plan.index not in preloaded]
        chunk = config.chunk_size(len(plans))
        shard_results, failures = self._run_pool(
            [todo[i : i + chunk] for i in range(0, len(todo), chunk)],
            _ParentState(store, config),
            journal,
        )
        all_results = [preloaded[index] for index in sorted(preloaded)]
        all_results += shard_results
        extra = {
            "parallel/partition": (
                f"mode=serial seconds={partition_seconds:.6f}"
            ),
        }
        result = self._combine(
            store.name, all_results, failures, started, extra
        )
        self._note_resume(result, journal, preloaded)
        return result

    @staticmethod
    def _note_resume(
        result: DiscoveryResult,
        journal: "_ShardJournal | None",
        preloaded: dict[int, ShardResult],
    ) -> None:
        if preloaded and journal is not None:
            result.resumed_shards = sorted(preloaded)
            result.parameters["parallel/journal"] = (
                f"dir={journal.directory} "
                f"resumed_shards={sorted(preloaded)}"
            )
        if journal is not None and journal.skipped:
            result.parameters["parallel/journal_skipped"] = (
                " ".join(journal.skipped)
            )

    # ------------------------------------------------------------------
    # Pool loop with recovery
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        chunks: Sequence[list[ShardPlan]],
        state: _ParentState,
        journal: "_ShardJournal | None" = None,
    ) -> tuple[list[ShardResult], list[ShardFailure]]:
        """Run the pool to completion, recovering from task failures.

        Tasks start as the caller's chunks at attempt 0.  A failed task
        of several shards is split into single-shard tasks at the *same*
        attempt (re-running an innocent shard is free thanks to purity,
        and the faulty one then fails alone and is blamed precisely); a
        failed single shard is retried with backoff until its attempt
        budget runs out, then handed to the in-process fallback.
        """
        if not chunks:
            return [], []
        global _PARENT_STATE
        preload_engine_imports(self.config.method)
        context = multiprocessing.get_context("fork")
        _PARENT_STATE = state
        config = self.config
        workers = max(1, min(config.jobs, len(chunks)))
        timeout = config.shard_timeout
        results: dict[int, ShardResult] = {}
        failures: list[ShardFailure] = []
        fallback: list[tuple[ShardPlan, int]] = []
        pending: deque[tuple[list[ShardPlan], list[int]]] = deque(
            (list(chunk), [0] * len(chunk)) for chunk in chunks
        )
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        running: dict[object, tuple[list[ShardPlan], list[int], float]] = {}

        def collect(shards: list[ShardResult], attempts: list[int]) -> None:
            for shard, attempt in zip(shards, attempts):
                shard.report.attempts = attempt + 1
                results[shard.index] = shard
                if journal is not None:
                    journal.record(shard)
                if attempt > 0:
                    self._mark_recovered(failures, shard.index, "retry")

        def requeue(plans: list[ShardPlan], attempts: list[int], kind: str,
                    error: str) -> None:
            """Split / blame / retry / fall back after one task failure."""
            if len(plans) > 1:
                # Blame is per-shard: rerun each alone at the same
                # attempt so the faulty one fails in isolation next.
                for plan, attempt in zip(plans, attempts):
                    pending.append(([plan], [attempt]))
                return
            plan, attempt = plans[0], attempts[0]
            failures.append(ShardFailure(plan.index, attempt, kind, error))
            if attempt + 1 <= config.shard_retries:
                if config.shard_retry_backoff:
                    time.sleep(config.shard_retry_backoff * (attempt + 1))
                pending.append(([plan], [attempt + 1]))
            else:
                fallback.append((plan, attempt + 1))

        def quarantine(
            plans: list[ShardPlan],
            attempts: list[int],
            exc: SlabCorruptionError,
        ) -> None:
            """Handle detected slab corruption per ``corrupt_slab_policy``.

            ``raise`` makes corruption fatal immediately.  ``skip``
            splits multi-shard chunks for precise blame (the re-run of
            an innocent shard is pure and cheap), then records the
            corrupt shard as a degraded ``"corruption"`` failure with
            *no* retries and no in-process fallback -- unlike a flaky
            worker, corrupt bytes fail deterministically, so re-reading
            them anywhere only repeats the error.
            """
            if config.corrupt_slab_policy != "skip":
                raise exc
            if len(plans) > 1:
                for plan, attempt in zip(plans, attempts):
                    pending.append(([plan], [attempt]))
                return
            failures.append(ShardFailure(
                plans[0].index, attempts[0], "corruption",
                str(exc),
            ))

        try:
            while pending or running:
                while pending and len(running) < workers:
                    plans, attempts = pending.popleft()
                    try:
                        future = pool.submit(
                            _discover_plan_chunk, plans, attempts
                        )
                    except BrokenProcessPool:
                        # The pool broke between iterations.  Put the
                        # task back; drain the dead futures through the
                        # wait() below, or respawn at once if none.
                        pending.appendleft((plans, attempts))
                        if running:
                            break
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = ProcessPoolExecutor(
                            max_workers=workers, mp_context=context
                        )
                        continue
                    running[future] = (plans, attempts, time.monotonic())
                done, _ = wait(
                    set(running),
                    timeout=0.05 if timeout else None,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    plans, attempts, _started = running.pop(future)
                    try:
                        collect(
                            future.result(),  # type: ignore[attr-defined]
                            attempts,
                        )
                    except BrokenProcessPool:
                        broken = True
                        requeue(plans, attempts, "worker-lost",
                                "worker process died")
                    except ShardMemoryError as exc:
                        requeue(plans, attempts, "memory", str(exc))
                    except SlabCorruptionError as exc:
                        quarantine(plans, attempts, exc)
                    except Exception as exc:
                        requeue(plans, attempts, "error",
                                f"{type(exc).__name__}: {exc}")
                if broken:
                    # Every other in-flight future died with the pool;
                    # their work is lost, so they requeue through the
                    # same blame path (splitting chunks keeps the
                    # eventual blame per-shard precise).
                    for plans, attempts, _started in running.values():
                        requeue(plans, attempts, "worker-lost",
                                "worker process died")
                    running.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(
                        max_workers=workers, mp_context=context
                    )
                elif timeout and running:
                    now = time.monotonic()
                    timed_out = [
                        future
                        for future, (_p, _a, task_started) in running.items()
                        if now - task_started > timeout
                    ]
                    if timed_out:
                        for future in timed_out:
                            plans, attempts, _started = running.pop(future)
                            requeue(
                                plans, attempts, "timeout",
                                f"exceeded shard_timeout={timeout:g}s",
                            )
                        # Innocent in-flight tasks are lost with the
                        # killed pool but not blamed: they requeue whole
                        # at their current attempts.
                        for plans, attempts, _started in running.values():
                            pending.append((plans, attempts))
                        running.clear()
                        _terminate_pool(pool)
                        pool = ProcessPoolExecutor(
                            max_workers=workers, mp_context=context
                        )
            # Last resort: poisoned shards run in the driver process,
            # where a crashing worker environment cannot take them down
            # (and where the RSS guard is deliberately unarmed).
            for plan, attempt in sorted(
                fallback, key=lambda item: item[0].index
            ):
                index = plan.index
                try:
                    shards = _discover_plan_chunk(
                        [plan], [attempt], in_worker=False
                    )
                except Exception as exc:
                    failures.append(ShardFailure(
                        index, attempt, "fallback-failed",
                        f"{type(exc).__name__}: {exc}",
                    ))
                    continue
                for shard in shards:
                    shard.report.attempts = attempt + 1
                    results[shard.index] = shard
                    if journal is not None:
                        journal.record(shard)
                self._mark_recovered(failures, index, "fallback")
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            _PARENT_STATE = None
        failures.sort(key=lambda f: (f.index, f.attempt))
        if config.strict_recovery and any(
            f.recovered_by is None for f in failures
        ):
            raise ShardRecoveryError(failures)
        return sorted(results.values(), key=lambda r: r.index), failures

    @staticmethod
    def _mark_recovered(
        failures: list[ShardFailure], index: int, how: str
    ) -> None:
        for failure in failures:
            if failure.index == index and failure.recovered_by is None:
                failure.recovered_by = how

    def _combine(
        self,
        name: str,
        shard_results: list[ShardResult],
        failures: list[ShardFailure],
        started: float,
        extra_parameters: dict[str, str] | None = None,
    ) -> DiscoveryResult:
        merge_started = time.perf_counter()
        schema = combine_shard_results(name, shard_results, self.config)
        ordered = sorted(shard_results, key=lambda r: r.index)
        merge_seconds = time.perf_counter() - merge_started
        parameters: dict[str, str] = {}
        for shard in ordered:
            parameters.update(shard.parameters)
        workers = {r.report.worker for r in ordered if r.report.worker}
        parameters["parallel/jobs"] = (
            f"jobs={self.config.jobs} workers_used={len(workers)} "
            f"shards={len(ordered)}"
        )
        parameters["parallel/merge_seconds"] = f"{merge_seconds:.6f}"
        if failures:
            recovered = sorted({
                f.index for f in failures if f.recovered_by is not None
            })
            dropped = sorted({
                f.index for f in failures if f.recovered_by is None
            })
            parameters["parallel/recovery"] = (
                f"failure_events={len(failures)} "
                f"recovered_shards={recovered} degraded_shards={dropped}"
            )
        if extra_parameters:
            parameters.update(extra_parameters)
        result = DiscoveryResult(
            schema=schema,
            batches=[r.report for r in ordered],
            parameters=parameters,
            discovery_seconds=time.perf_counter() - started,
            shard_failures=failures,
        )
        result.refresh_assignments()
        return result
