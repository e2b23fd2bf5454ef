"""Recovery-path tests driven by the deterministic fault harness.

The invariant under test throughout: a run that crashed, hung, or lost
workers -- and recovered -- produces a schema *byte-identical* to a clean
sequential run.  Shard purity plus the union-only merge (Lemmas 1-2) is
what makes re-execution a correct recovery strategy, and these tests are
the executable form of that argument for the pool's shard plans and
for the sequential engine's checkpoints (stores and streams alike).
"""

import os

import pytest

from repro.core import PGHive, PGHiveConfig
from repro.core.faults import InjectedFault
from repro.core.incremental import IncrementalDiscovery
from repro.core.parallel import ShardRecoveryError, fork_available
from repro.datasets import get_dataset
from repro.datasets.registry import dataset_spec
from repro.datasets.stream import GraphStream
from repro.graph.builder import GraphBuilder
from repro.graph.store import GraphStore
from repro.schema.model import DataType
from repro.schema.persist import SchemaPersistError
from repro.schema.serialize_pgschema import serialize_pg_schema

NUM_BATCHES = 4

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="parallel driver requires fork"
)

fault_sweep = pytest.mark.skipif(
    not os.environ.get("PGHIVE_TEST_FAULTS"),
    reason="set PGHIVE_TEST_FAULTS=1 to run the fault stress sweep",
)


@pytest.fixture(scope="module")
def ldbc_graph():
    return get_dataset("ldbc", scale=1, seed=0).graph


@pytest.fixture(scope="module")
def sequential_schema(ldbc_graph):
    result = PGHive(PGHiveConfig()).discover_incremental(
        GraphStore(ldbc_graph), num_batches=NUM_BATCHES
    )
    return serialize_pg_schema(result.schema)


@needs_fork
class TestWorkerCrashRecovery:
    def test_raised_shard_retries_to_identical_schema(
        self, ldbc_graph, sequential_schema
    ):
        config = PGHiveConfig(
            jobs=2, faults="shard:2:raise", shard_retry_backoff=0.0
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema
        events = [f for f in result.shard_failures if f.index == 2]
        assert events and all(f.kind == "error" for f in events)
        assert all(f.recovered_by == "retry" for f in events)
        assert "injected fault" in events[0].error
        report = next(r for r in result.batches if r.index == 2)
        assert report.attempts >= 2
        assert not result.degraded_shards
        assert "parallel/recovery" in result.parameters

    def test_chunked_task_splits_to_blame_one_shard(
        self, ldbc_graph, sequential_schema
    ):
        """A failing multi-shard task re-runs split; only the faulty
        shard accumulates failure records."""
        config = PGHiveConfig(
            jobs=2, parallel_chunk="2", faults="shard:1:raise",
            shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema
        assert {f.index for f in result.shard_failures} == {1}

    def test_killed_worker_respawns_and_retries(
        self, ldbc_graph, sequential_schema
    ):
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", faults="shard:1:kill",
            shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema
        kinds = {f.kind for f in result.shard_failures}
        assert kinds == {"worker-lost"}
        assert any(f.index == 1 for f in result.shard_failures)
        assert all(
            f.recovered_by is not None for f in result.shard_failures
        )

    def test_poisoned_shard_recovers_via_in_process_fallback(
        self, ldbc_graph, sequential_schema
    ):
        """``kill`` with an unlimited budget defeats every pool retry;
        the in-process fallback (where kill is a no-op) completes the
        run with an identical schema."""
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", faults="shard:0:kill:99",
            shard_retries=1, shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema
        assert any(
            f.index == 0 and f.recovered_by == "fallback"
            for f in result.shard_failures
        )
        assert not result.degraded_shards

    def test_strict_mode_raises_on_unrecoverable_shard(self, ldbc_graph):
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", faults="shard:0:raise:99",
            shard_retries=0, shard_retry_backoff=0.0,
            strict_recovery=True,
        )
        with pytest.raises(ShardRecoveryError) as excinfo:
            PGHive(config).discover_incremental(
                GraphStore(ldbc_graph), num_batches=NUM_BATCHES
            )
        assert 0 in {f.index for f in excinfo.value.failures}

    def test_nonstrict_mode_degrades_and_reports(self, ldbc_graph):
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", faults="shard:0:raise:99",
            shard_retries=0, shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert result.degraded_shards == [0]
        assert any(
            f.kind == "fallback-failed" for f in result.shard_failures
        )
        # The surviving shards still merge into a usable schema.
        assert result.schema.node_types
        assert "degraded_shards=[0]" in result.parameters[
            "parallel/recovery"
        ]


@needs_fork
class TestTimeoutRecovery:
    def test_hung_shard_is_killed_and_requeued(
        self, ldbc_graph, sequential_schema
    ):
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", faults="shard:1:hang:1:30",
            shard_timeout=1.0, shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema
        timeouts = [
            f for f in result.shard_failures if f.kind == "timeout"
        ]
        assert timeouts and all(f.index == 1 for f in timeouts)
        assert all(f.recovered_by is not None for f in timeouts)


@needs_fork
class TestPoolKillRecovery:
    """Runs whose workers are killed -- by a crash or by the timeout
    watchdog -- still recover to the sequential schema."""

    def test_sigkilled_worker_recovers_identical(
        self, ldbc_graph, sequential_schema
    ):
        """A worker SIGKILLed mid-shard loses its result; the driver
        respawns the pool and re-runs the shard."""
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1",
            faults="shard:1:kill", shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema
        assert {f.kind for f in result.shard_failures} == {"worker-lost"}

    def test_timeout_kill_recovers_identical(
        self, ldbc_graph, sequential_schema
    ):
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1",
            faults="shard:1:hang:1:30", shard_timeout=1.0,
            shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema
        assert any(f.kind == "timeout" for f in result.shard_failures)


@needs_fork
@fault_sweep
class TestFaultStressSweep:
    """CI-only sweep (PGHIVE_TEST_FAULTS=1): wider fault surfaces."""

    def test_probabilistic_wildcard_faults_still_identical(
        self, ldbc_graph, sequential_schema
    ):
        """Every shard's first attempt fails with p=0.5 (seeded, so
        reproducible); the recovered schema never drifts."""
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1",
            faults="shard:*:raise:1:0:0.5", shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema
        assert not result.degraded_shards

    def test_every_shard_fails_once_still_identical(
        self, ldbc_graph, sequential_schema
    ):
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", faults="shard:*:raise",
            shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema
        assert {f.index for f in result.shard_failures} == set(
            range(NUM_BATCHES)
        )


class TestCheckpointResume:
    def test_crash_at_batch_then_resume_is_identical(
        self, tmp_path, ldbc_graph, sequential_schema
    ):
        """Kill-at-batch-i equivalence: a run that dies mid-stream and
        resumes from its checkpoint ends byte-identical to a clean run."""
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        crashing = PGHiveConfig(
            checkpoint_dir=str(ckpt), faults="batch:2:raise"
        )
        with pytest.raises(InjectedFault):
            PGHive(crashing).discover_incremental(
                store, num_batches=NUM_BATCHES
            )
        assert IncrementalDiscovery.has_checkpoint(ckpt)
        resumed = PGHive(
            PGHiveConfig(checkpoint_dir=str(ckpt))
        ).discover_incremental(
            store, num_batches=NUM_BATCHES, resume=True
        )
        assert resumed.resumed_from == 2
        assert serialize_pg_schema(resumed.schema) == sequential_schema
        assert [r.index for r in resumed.batches] == list(
            range(NUM_BATCHES)
        )

    def test_checkpoint_cadence_controls_replay_window(
        self, tmp_path, ldbc_graph, sequential_schema
    ):
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        crashing = PGHiveConfig(
            checkpoint_dir=str(ckpt), checkpoint_every=2,
            faults="batch:3:raise",
        )
        with pytest.raises(InjectedFault):
            PGHive(crashing).discover_incremental(
                store, num_batches=NUM_BATCHES
            )
        resumed = PGHive(PGHiveConfig(
            checkpoint_dir=str(ckpt), checkpoint_every=2
        )).discover_incremental(
            store, num_batches=NUM_BATCHES, resume=True
        )
        # Batches 0-1 were checkpointed; batch 2 completed after the
        # last checkpoint and is replayed (idempotent by purity).
        assert resumed.resumed_from == 2
        assert serialize_pg_schema(resumed.schema) == sequential_schema

    def test_resume_without_checkpoint_is_clean_start(
        self, tmp_path, ldbc_graph, sequential_schema
    ):
        result = PGHive(
            PGHiveConfig(checkpoint_dir=str(tmp_path / "empty"))
        ).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES, resume=True
        )
        assert result.resumed_from == 0
        assert serialize_pg_schema(result.schema) == sequential_schema

    def test_resume_rejects_mismatched_plan(self, tmp_path, ldbc_graph):
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        PGHive(
            PGHiveConfig(checkpoint_dir=str(ckpt))
        ).discover_incremental(store, num_batches=NUM_BATCHES)
        with pytest.raises(SchemaPersistError, match="context mismatch"):
            PGHive(
                PGHiveConfig(checkpoint_dir=str(ckpt))
            ).discover_incremental(
                store, num_batches=NUM_BATCHES + 1, resume=True
            )

    @pytest.mark.parametrize("written,key", [
        ({"post_processing": False}, "post_processing"),
        ({"infer_value_profiles": False}, "infer_value_profiles"),
    ])
    def test_resume_refuses_checkpoint_folded_another_way(
        self, tmp_path, ldbc_graph, written, key
    ):
        """A checkpoint without stats (or without value sketches) cannot
        finish a run that needs them: resume refuses it by name."""
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        PGHive(PGHiveConfig(
            checkpoint_dir=str(ckpt), **written
        )).discover_incremental(store, num_batches=NUM_BATCHES)
        with pytest.raises(SchemaPersistError, match=key):
            PGHive(PGHiveConfig(
                checkpoint_dir=str(ckpt), infer_value_profiles=True
            )).discover_incremental(
                store, num_batches=NUM_BATCHES, resume=True
            )

    def test_completed_run_resumes_to_same_schema(
        self, tmp_path, ldbc_graph, sequential_schema
    ):
        """Resuming a finished run replays nothing and restores the
        checkpointed schema verbatim."""
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        PGHive(
            PGHiveConfig(checkpoint_dir=str(ckpt))
        ).discover_incremental(store, num_batches=NUM_BATCHES)
        resumed = PGHive(
            PGHiveConfig(checkpoint_dir=str(ckpt))
        ).discover_incremental(
            store, num_batches=NUM_BATCHES, resume=True
        )
        assert resumed.resumed_from == NUM_BATCHES
        assert serialize_pg_schema(resumed.schema) == sequential_schema

    @needs_fork
    def test_checkpoint_no_longer_forces_sequential_engine(
        self, tmp_path, ldbc_graph, sequential_schema
    ):
        """jobs > 1 with a checkpoint_dir used to silently fall back to
        the sequential engine; it now journals and stays parallel.  A
        completed run leaves only the folded prefix: every shard was
        folded, so no out-of-order entry survives."""
        ckpt = tmp_path / "ckpt"
        config = PGHiveConfig(jobs=2, checkpoint_dir=str(ckpt))
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert result.parallel_fallback is None
        assert all(r.worker is not None for r in result.batches)
        assert serialize_pg_schema(result.schema) == sequential_schema
        assert IncrementalDiscovery.has_checkpoint(ckpt)
        assert not sorted((ckpt / "shards").glob("shard-*.json"))

    def test_forced_sequential_fallback_is_reported(self, ldbc_graph):
        """When parallelism genuinely cannot run, the result says why."""
        config = PGHiveConfig(jobs=2, memoize_patterns=True)
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert all(r.worker is None for r in result.batches)
        assert result.parallel_fallback is not None
        assert "pattern memoization" in result.parallel_fallback

    def test_clean_parallel_run_reports_no_fallback(self, ldbc_graph):
        result = PGHive(PGHiveConfig(jobs=1)).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert result.parallel_fallback is None

    def test_stream_engine_checkpoint_roundtrip(self, tmp_path):
        """GraphStream sources checkpoint at the engine level: resume
        mid-stream and finish identical to an uninterrupted engine."""
        spec = dataset_spec("ldbc")
        config = PGHiveConfig(post_processing=False)
        reference = IncrementalDiscovery(config, name="s")
        for batch in GraphStream(spec, num_batches=4, seed=3).batches():
            reference.process_batch(
                batch.nodes, batch.edges, batch.endpoint_labels
            )
        partial = IncrementalDiscovery(config, name="s")
        for index, batch in enumerate(
            GraphStream(spec, num_batches=4, seed=3).batches()
        ):
            if index == 2:
                break
            partial.process_batch(
                batch.nodes, batch.edges, batch.endpoint_labels
            )
        partial.save_checkpoint(tmp_path, context={"stream": "ldbc"})
        resumed = IncrementalDiscovery.from_checkpoint(
            tmp_path, config, expected_context={"stream": "ldbc"}
        )
        for index, batch in enumerate(
            GraphStream(spec, num_batches=4, seed=3).batches()
        ):
            if index < 2:
                continue
            resumed.process_batch(
                batch.nodes, batch.edges, batch.endpoint_labels
            )
        assert serialize_pg_schema(resumed.schema) == serialize_pg_schema(
            reference.schema
        )
        assert len(resumed.reports) == len(reference.reports)


@needs_fork
class TestParallelJournalResume:
    """Crash-resume for the parallel path via the shard journal (a
    stream at jobs=2 runs the sequential engine and its checkpoint)."""

    def test_killed_pool_resumes_from_journal(
        self, tmp_path, ldbc_graph, sequential_schema
    ):
        """A jobs>1 run that dies mid-pool leaves its completed shards
        journaled; a resume recomputes only the missing ones and ends
        byte-identical to a clean run."""
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        crashing = PGHiveConfig(
            jobs=2, parallel_chunk="1", checkpoint_dir=str(ckpt),
            faults="shard:2:raise:99", shard_retries=0,
            shard_retry_backoff=0.0, strict_recovery=True,
        )
        with pytest.raises(ShardRecoveryError):
            PGHive(crashing).discover_incremental(
                store, num_batches=NUM_BATCHES
            )
        journaled = sorted((ckpt / "shards").glob("shard-*.json"))
        assert journaled, "completed shards must be journaled pre-crash"
        assert not any("shard-00002" in p.name for p in journaled)
        resumed = PGHive(PGHiveConfig(
            jobs=2, parallel_chunk="1", checkpoint_dir=str(ckpt)
        )).discover_incremental(
            store, num_batches=NUM_BATCHES, resume=True
        )
        assert resumed.resumed_shards
        assert 2 not in resumed.resumed_shards
        assert "parallel/journal" in resumed.parameters
        assert serialize_pg_schema(resumed.schema) == sequential_schema

    def test_completed_parallel_run_resumes_from_journal_alone(
        self, tmp_path, ldbc_graph, sequential_schema
    ):
        """Resuming a finished parallel run recomputes nothing."""
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        config = PGHiveConfig(jobs=2, checkpoint_dir=str(ckpt))
        PGHive(config).discover_incremental(store, num_batches=NUM_BATCHES)
        resumed = PGHive(
            PGHiveConfig(jobs=2, checkpoint_dir=str(ckpt))
        ).discover_incremental(
            store, num_batches=NUM_BATCHES, resume=True
        )
        assert resumed.resumed_shards == list(range(NUM_BATCHES))
        assert serialize_pg_schema(resumed.schema) == sequential_schema

    def test_fresh_run_clears_stale_journal(self, tmp_path, ldbc_graph):
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        config = PGHiveConfig(jobs=2, checkpoint_dir=str(ckpt))
        PGHive(config).discover_incremental(store, num_batches=NUM_BATCHES)
        (ckpt / "shards").mkdir(exist_ok=True)
        (ckpt / "shards" / "shard-99999.json").write_text(
            "{not json", encoding="utf-8"
        )
        result = PGHive(
            PGHiveConfig(jobs=2, checkpoint_dir=str(ckpt))
        ).discover_incremental(store, num_batches=NUM_BATCHES)
        assert result.resumed_shards == []
        assert IncrementalDiscovery.has_checkpoint(ckpt)
        assert not sorted((ckpt / "shards").glob("shard-*.json"))

    def test_mismatched_context_is_recomputed_not_fatal(
        self, tmp_path, ldbc_graph, sequential_schema
    ):
        """A journal written under a different seed is another run's
        state: the resume refuses it by name, as at every jobs, and a
        fresh run then recomputes everything and stays correct."""
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        PGHive(PGHiveConfig(
            jobs=2, checkpoint_dir=str(ckpt), seed=99
        )).discover_incremental(store, num_batches=NUM_BATCHES)
        with pytest.raises(SchemaPersistError, match="'seed'"):
            PGHive(PGHiveConfig(
                jobs=2, checkpoint_dir=str(ckpt)
            )).discover_incremental(
                store, num_batches=NUM_BATCHES, resume=True
            )
        fresh = PGHive(PGHiveConfig(
            jobs=2, checkpoint_dir=str(ckpt)
        )).discover_incremental(store, num_batches=NUM_BATCHES)
        assert fresh.resumed_shards == []
        assert serialize_pg_schema(fresh.schema) == sequential_schema

    def test_stat_less_entries_are_recomputed(self, tmp_path):
        """Shards journaled with post-processing off carry no stats.  A
        resume with it on must not fold them -- folding only fresh
        shards would print the datatype of those shards alone -- so it
        refuses the entries by name; a fresh run recomputes them."""
        def build(text_ids):
            builder = GraphBuilder("mixed")
            ids = [
                builder.node(["T"], {"v": "text" if i in text_ids else i})
                for i in range(400)
            ]
            for source, target in zip(ids, ids[1:]):
                builder.edge(source, target, ["R"])
            return builder.build()

        probe = GraphStore(build(set()))
        text_ids = {
            node.id
            for plan in probe.plan_shards(4, seed=7)[:2]
            for node in probe.materialize_shard(plan).nodes
        }
        store = GraphStore(build(text_ids))
        ckpt = tmp_path / "ckpt"
        with pytest.raises(ShardRecoveryError):
            PGHive(PGHiveConfig(
                jobs=2, seed=7, checkpoint_dir=str(ckpt),
                post_processing=False, parallel_chunk="1",
                faults="shard:0:raise:99", shard_retries=0,
                shard_retry_backoff=0.0, strict_recovery=True,
            )).discover_incremental(store, num_batches=4)
        assert sorted((ckpt / "shards").glob("shard-*.json"))
        config = PGHiveConfig(jobs=2, seed=7, checkpoint_dir=str(ckpt))
        with pytest.raises(SchemaPersistError, match="post_processing"):
            PGHive(config).discover_incremental(
                store, num_batches=4, resume=True
            )
        fresh = PGHive(config).discover_incremental(store, num_batches=4)
        clean = PGHive(PGHiveConfig(seed=7)).discover_incremental(
            store, num_batches=4
        )
        (node_type,) = fresh.schema.node_types.values()
        assert node_type.properties["v"].datatype is DataType.STRING
        assert fresh.resumed_shards == []
        assert serialize_pg_schema(fresh.schema) == serialize_pg_schema(
            clean.schema
        )

    def test_corrupt_journal_entry_is_recomputed(
        self, tmp_path, ldbc_graph, sequential_schema
    ):
        """Out-of-order entries are a cache: a torn one is recomputed
        and reported.  (Shard 0 failing leaves 1..3 unfoldable, so the
        crashed run journals them as entries.)"""
        ckpt = tmp_path / "ckpt"
        store = GraphStore(ldbc_graph)
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", checkpoint_dir=str(ckpt),
            faults="shard:0:raise:99", shard_retries=0,
            shard_retry_backoff=0.0, strict_recovery=True,
        )
        with pytest.raises(ShardRecoveryError):
            PGHive(config).discover_incremental(
                store, num_batches=NUM_BATCHES
            )
        (ckpt / "shards" / "shard-00001.json").write_text(
            "{truncated", encoding="utf-8"
        )
        resumed = PGHive(
            PGHiveConfig(jobs=2, checkpoint_dir=str(ckpt))
        ).discover_incremental(
            store, num_batches=NUM_BATCHES, resume=True
        )
        assert 1 not in resumed.resumed_shards
        assert "parallel/journal_skipped" in resumed.parameters
        assert serialize_pg_schema(resumed.schema) == sequential_schema

    def test_killed_stream_pool_resumes_from_journal(self, tmp_path):
        """A jobs=2 stream run checkpoints at the engine level: a crash
        at batch 2 resumes there and matches a jobs=1 stream run."""
        spec = dataset_spec("ldbc")
        reference = PGHive(PGHiveConfig(jobs=1)).discover_incremental(
            GraphStream(spec, num_batches=4, seed=3), num_batches=4
        )
        ckpt = tmp_path / "ckpt"
        crashing = PGHiveConfig(
            jobs=2, checkpoint_dir=str(ckpt), faults="batch:2:raise"
        )
        with pytest.raises(InjectedFault):
            PGHive(crashing).discover_incremental(
                GraphStream(spec, num_batches=4, seed=3), num_batches=4
            )
        assert IncrementalDiscovery.has_checkpoint(ckpt)
        assert not (ckpt / "shards").exists()
        resumed = PGHive(PGHiveConfig(
            jobs=2, checkpoint_dir=str(ckpt)
        )).discover_incremental(
            GraphStream(spec, num_batches=4, seed=3), num_batches=4,
            resume=True,
        )
        assert resumed.parallel_fallback is not None
        assert resumed.resumed_from == 2
        assert serialize_pg_schema(resumed.schema) == serialize_pg_schema(
            reference.schema
        )

    def test_completed_stream_run_resumes_from_journal_alone(
        self, tmp_path
    ):
        """Resuming a finished jobs=2 stream run replays no batch."""
        spec = dataset_spec("ldbc")
        ckpt = tmp_path / "ckpt"
        config = PGHiveConfig(jobs=2, checkpoint_dir=str(ckpt))
        first = PGHive(config).discover_incremental(
            GraphStream(spec, num_batches=4, seed=3), num_batches=4
        )
        resumed = PGHive(
            PGHiveConfig(jobs=2, checkpoint_dir=str(ckpt))
        ).discover_incremental(
            GraphStream(spec, num_batches=4, seed=3), num_batches=4,
            resume=True,
        )
        assert resumed.resumed_from == 4
        assert serialize_pg_schema(resumed.schema) == serialize_pg_schema(
            first.schema
        )
