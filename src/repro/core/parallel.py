"""The fork-pool executor: shard discovery on worker processes.

Incremental discovery is a map-then-fold (see
:meth:`repro.core.pipeline.PGHive.drive`): each batch schema is a pure
function of its shard, and the driver folds the schemas in batch order
with :meth:`~repro.core.incremental.IncrementalDiscovery.fold`.  This
module is the executor that maps shards on ``config.jobs`` forked
worker processes; the in-process executor serves everything else.
Pattern memoization reads the running schema, so a memoized run never
reaches the pool.

Payload contract
----------------
The driver calls
:meth:`~repro.graph.store.BaseGraphStore.plan_shards` -- the same
cached partition the in-process executor maps -- and the pool
forks.  Workers never receive pickled
:class:`~repro.graph.model.Node` / :class:`~repro.graph.model.Edge`
objects: each gets :class:`~repro.graph.store.ShardPlan` scalars and
maps its shards against the fork-inherited store with
:meth:`~repro.core.incremental.IncrementalDiscovery.map_shard` (the
disk backend columnizes straight from its mapped slabs and builds no
element objects).  Shard results come back pickled
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
  ``kill`` fault) breaks the whole pool; the executor respawns the pool
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
  as a last resort; a shard that *still* fails is yielded as a failed
  result, which the driver steps past -- or, with
  ``config.strict_recovery``, raises :class:`ShardRecoveryError` for.

Determinism contract
--------------------
The executor yields shards in completion order; the driver folds them
in batch order, so the result is independent of worker count, chunking,
completion order, and of how many attempts each shard needed, and
byte-identical to ``jobs=1`` (``tests/test_parallel.py`` enforces both
properties).
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import time
from collections import defaultdict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.config import PGHiveConfig
from repro.core.faults import FaultInjector
from repro.core.incremental import (
    IncrementalDiscovery,
    preload_engine_imports,
)
from repro.core.result import (
    DiscoveryResult,
    ShardFailure,
    ShardRecoveryError,
    ShardResult,
)
from repro.core.type_extraction import resolve_edge_endpoints
from repro.graph.slab import SlabCorruptionError
from repro.graph.store import BaseGraphStore, ShardPlan
from repro.schema.model import SchemaGraph

__all__ = [
    "ParallelDiscovery",
    "ShardMemoryError",
    "ShardRecoveryError",
    "ShardResult",
    "combine_shard_results",
    "fork_available",
]


class ShardMemoryError(RuntimeError):
    """A worker's resident set exceeded ``config.shard_memory_limit_mb``.

    Raised between pipeline stages inside pool workers only; surfaces at
    the driver as a ``ShardFailure(kind="memory")`` and flows through
    the ordinary retry / in-process-fallback machinery.
    """


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform.

    The pool relies on copy-on-write inheritance of the parent's store;
    without ``fork`` (e.g. Windows, or macOS policies forcing ``spawn``)
    the driver maps every batch in-process.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def combine_shard_results(
    name: str,
    results: Sequence[ShardResult],
    config: PGHiveConfig,
) -> SchemaGraph:
    """Fold shard results into a named schema, in batch order.

    The driver's fold outside the driver: sort by shard index, fold each
    result with :meth:`~repro.core.incremental.IncrementalDiscovery.fold`
    and resolve edge endpoints once.  Because the fold depends only on
    the *sorted* results, any permutation of ``results`` (worker
    completion order) yields the identical schema.
    """
    engine = IncrementalDiscovery(config, name=name)
    for result in sorted(results, key=lambda r: r.index):
        engine.fold(result)
    resolve_edge_endpoints(engine.schema)
    return engine.schema


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
    """Worker: map a chunk of shards through their store's batch source.

    A chunk of *consecutive* shard indices shares one engine, so the
    cross-batch embedder reuse of the sequential engine still applies
    within the chunk (reuse never changes output, only cost).
    """
    state = _PARENT_STATE
    if state is None:
        raise RuntimeError("worker has no inherited parent state")
    source, config = state.source, state.config
    injector = FaultInjector.from_spec(config.faults)
    engine = IncrementalDiscovery(config, name="shard")
    results: list[ShardResult] = []
    for plan, attempt in zip(plans, attempts):
        if injector is not None:
            injector.fire("shard", plan.index, attempt, in_worker=in_worker)
        shard = engine.map_shard(source, plan)
        _check_memory(config, in_worker, "discovery", plan.index)
        if shard.report is not None:
            shard.report.worker = os.getpid()
        results.append(shard)
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
# Executor
# ----------------------------------------------------------------------
class ParallelDiscovery:
    """The fork-pool executor, with retry, respawn, timeout and fallback.

    :meth:`map` drives ``config.jobs`` worker processes over shard
    plans of one graph store and yields each shard as it completes;
    :meth:`discover_store` runs the one map-then-fold driver with this
    executor.  See the module docstring for the failure model and for
    why memoized runs never reach the pool.
    """

    def __init__(self, config: PGHiveConfig | None = None) -> None:
        self.config = config or PGHiveConfig()

    def discover_store(
        self, store: BaseGraphStore, num_batches: int, resume: bool = False
    ) -> DiscoveryResult:
        """:meth:`repro.core.pipeline.PGHive.drive` on this executor.

        The folded schema keeps its §4.4 stats for the caller to apply.
        """
        from repro.core.pipeline import PGHive

        return PGHive(self.config).drive(store, num_batches, resume, self)

    def map(
        self, store: BaseGraphStore, plans: Sequence[ShardPlan]
    ) -> Iterator[ShardResult]:
        """Map ``plans`` on the pool; yield each shard as it completes.

        Each plan yields one result: its schema and the failures it
        recovered from, or no schema and the failures that sank it.
        Tasks start as chunks of consecutive plans at attempt 0.  A
        failed task of several shards is split into single-shard tasks
        at the *same* attempt (re-running an innocent shard is free
        thanks to purity, and the faulty one then fails alone); a failed
        single shard is retried with backoff until its attempt budget
        runs out, then run in-process.  Closing the generator shuts the
        pool down.
        """
        if not plans:
            return
        global _PARENT_STATE
        config = self.config
        preload_engine_imports(config.method)
        context = multiprocessing.get_context("fork")
        _PARENT_STATE = _ParentState(store, config)
        chunk = config.chunk_size(len(plans))
        pending: deque[tuple[list[ShardPlan], list[int]]] = deque(
            (list(plans[i : i + chunk]), [0] * len(plans[i : i + chunk]))
            for i in range(0, len(plans), chunk)
        )
        workers = max(1, min(config.jobs, len(pending)))
        timeout = config.shard_timeout
        events: defaultdict[int, list[ShardFailure]] = defaultdict(list)
        fallback: list[tuple[ShardPlan, int]] = []
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        running: dict[object, tuple[list[ShardPlan], list[int], float]] = {}

        def done(shard: ShardResult, attempt: int, how: str) -> ShardResult:
            if shard.report is not None:
                shard.report.attempts = attempt + 1
            shard.failures = events.pop(shard.index, [])
            for failure in shard.failures:
                failure.recovered_by = how
            return shard

        def failed(index: int) -> ShardResult:
            return ShardResult(index, None, None, failures=events.pop(index))

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
            events[plan.index].append(
                ShardFailure(plan.index, attempt, kind, error)
            )
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
        ) -> ShardResult | None:
            """Handle detected slab corruption per ``corrupt_slab_policy``.

            ``raise`` makes corruption fatal immediately.  ``skip``
            splits multi-shard chunks for precise blame (the re-run of
            an innocent shard is pure and cheap), then fails the corrupt
            shard with one ``"corruption"`` event and *no* retries and
            no in-process fallback -- unlike a flaky worker, corrupt
            bytes fail deterministically, so re-reading them anywhere
            only repeats the error.
            """
            if config.corrupt_slab_policy != "skip":
                raise exc
            if len(plans) > 1:
                for plan, attempt in zip(plans, attempts):
                    pending.append(([plan], [attempt]))
                return None
            index = plans[0].index
            events[index].append(
                ShardFailure(index, attempts[0], "corruption", str(exc))
            )
            return failed(index)

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
                finished, _ = wait(
                    set(running),
                    timeout=0.05 if timeout else None,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in finished:
                    plans, attempts, _started = running.pop(future)
                    try:
                        shards = future.result()  # type: ignore[attr-defined]
                    except BrokenProcessPool:
                        broken = True
                        requeue(plans, attempts, "worker-lost",
                                "worker process died")
                    except ShardMemoryError as exc:
                        requeue(plans, attempts, "memory", str(exc))
                    except SlabCorruptionError as exc:
                        quarantined = quarantine(plans, attempts, exc)
                        if quarantined is not None:
                            yield quarantined
                    except Exception as exc:
                        requeue(plans, attempts, "error",
                                f"{type(exc).__name__}: {exc}")
                    else:
                        for shard, attempt in zip(shards, attempts):
                            yield done(shard, attempt, "retry")
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
                try:
                    (shard,) = _discover_plan_chunk(
                        [plan], [attempt], in_worker=False
                    )
                except Exception as exc:
                    events[plan.index].append(ShardFailure(
                        plan.index, attempt, "fallback-failed",
                        f"{type(exc).__name__}: {exc}",
                    ))
                    yield failed(plan.index)
                    continue
                yield done(shard, attempt, "fallback")
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            _PARENT_STATE = None
