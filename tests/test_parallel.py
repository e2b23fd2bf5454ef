"""Tests for the multi-process sharded discovery driver.

The determinism contract under test: the final schema is a pure function
of the shard sequence -- independent of worker count, chunk size, and the
order in which shard results arrive -- and byte-identical to the
sequential engine's output.
"""

import dataclasses
import importlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ParallelDiscovery,
    PGHive,
    PGHiveConfig,
    combine_shard_results,
)
from repro.core.columns import edge_columns, node_columns
from repro.core.incremental import IncrementalDiscovery
from repro.core.parallel import ShardResult, fork_available
from repro.core.postprocess import (
    TypeStats,
    apply_partial_stats,
    attach_partial_stats,
    compute_cardinalities,
    infer_datatypes,
    infer_property_constraints,
)
from repro.datasets import get_dataset, inject_noise
from repro.datasets.registry import dataset_spec
from repro.datasets.stream import GraphStream
from repro.graph.diskstore import write_graph_to_slabs
from repro.graph.store import GraphStore
from repro.schema.serialize_pgschema import serialize_pg_schema

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel driver requires fork"
)

NUM_BATCHES = 6


@pytest.fixture(scope="module")
def ldbc_graph():
    return get_dataset("ldbc", scale=1, seed=0).graph


@pytest.fixture(scope="module")
def noisy_iyp_graph():
    """Half-labeled, noisy input: unlabeled types merge by Jaccard."""
    return inject_noise(
        get_dataset("IYP", scale=0.5, seed=1),
        property_noise=0.2,
        label_availability=0.5,
        seed=1,
    ).graph


@pytest.fixture(scope="module")
def sequential_schema(ldbc_graph):
    result = PGHive(PGHiveConfig()).discover_incremental(
        GraphStore(ldbc_graph), num_batches=NUM_BATCHES
    )
    return serialize_pg_schema(result.schema)


def _shard_results(graph, config):
    """Discover every shard's schema independently (no pool)."""
    store = GraphStore(graph)
    engine = IncrementalDiscovery(config, name="shard")
    results = []
    for plan in store.plan_shards(NUM_BATCHES, seed=config.seed):
        batch = store.materialize_shard(plan)
        schema, report = engine.discover_batch_columns(
            node_columns(batch.nodes),
            edge_columns(batch.edges, batch.endpoint_labels),
            batch_index=plan.index,
        )
        results.append(ShardResult(plan.index, schema, report))
    return results


class TestWorkerCountInvariance:
    def test_env_jobs_matches_sequential(
        self, ldbc_graph, sequential_schema, test_jobs
    ):
        """The CI-configured worker count (PGHIVE_TEST_JOBS) agrees."""
        result = PGHive(PGHiveConfig(jobs=test_jobs)).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema

    @pytest.mark.parametrize(
        "graph_name, store, jobs",
        [
            pytest.param("ldbc", "memory", 2, id="2"),
            pytest.param("ldbc", "memory", 3, id="3"),
            pytest.param("noisy-iyp", "memory", 2, id="noisy-iyp-memory"),
            pytest.param("noisy-iyp", "disk", 2, id="noisy-iyp-disk"),
        ],
    )
    def test_byte_identical_to_sequential(
        self, request, tmp_path, graph_name, store, jobs
    ):
        """The pool folds shard schemas in batch order, like the
        sequential engine, so unlabeled noisy input matches too."""
        if graph_name == "ldbc":
            graph = request.getfixturevalue("ldbc_graph")
            expected = request.getfixturevalue("sequential_schema")
        else:
            graph = request.getfixturevalue("noisy_iyp_graph")
            expected = serialize_pg_schema(
                PGHive(PGHiveConfig()).discover_incremental(
                    GraphStore(graph), num_batches=NUM_BATCHES
                ).schema
            )
        source = GraphStore(graph)
        if store == "disk":
            source = write_graph_to_slabs(graph, tmp_path / "slabs")
            request.addfinalizer(source.close)
        result = PGHive(PGHiveConfig(jobs=jobs)).discover_incremental(
            source, num_batches=NUM_BATCHES
        )
        assert result.parallel_fallback is None
        assert serialize_pg_schema(result.schema) == expected

    def test_assignments_match_sequential(self, ldbc_graph):
        seq = PGHive(PGHiveConfig()).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        par = PGHive(PGHiveConfig(jobs=2)).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert par.node_assignment == seq.node_assignment
        assert par.edge_assignment == seq.edge_assignment

    def test_lsh_parameters_match_sequential(self, ldbc_graph):
        seq = PGHive(PGHiveConfig()).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        par = PGHive(PGHiveConfig(jobs=2)).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        batch_params = {
            k: v for k, v in par.parameters.items()
            if not k.startswith("parallel/")
        }
        assert batch_params == seq.parameters

    @pytest.mark.parametrize("chunk", ["1", "3", "auto"])
    def test_chunk_size_invariance(
        self, ldbc_graph, sequential_schema, chunk
    ):
        config = PGHiveConfig(jobs=2, parallel_chunk=chunk)
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema


class TestMergeOrderInvariance:
    def test_combine_is_permutation_invariant(self, ldbc_graph):
        """Worker completion order cannot change the final schema."""
        config = PGHiveConfig(post_processing=False)
        results = _shard_results(ldbc_graph, config)
        reference = serialize_pg_schema(
            combine_shard_results("g", results, config)
        )
        rng = random.Random(11)
        for _ in range(5):
            shuffled = list(results)
            rng.shuffle(shuffled)
            combined = combine_shard_results("g", shuffled, config)
            assert serialize_pg_schema(combined) == reference

    def test_combine_matches_sequential_fold(self, ldbc_graph):
        config = PGHiveConfig(post_processing=False)
        combined = combine_shard_results(
            ldbc_graph.name, _shard_results(ldbc_graph, config), config
        )
        seq = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(combined) == serialize_pg_schema(
            seq.schema
        )


class TestTransportInvariance:
    """Shard results have one handoff -- pickled through the pool's own
    pipe -- and it moves bytes, never schema content."""

    @pytest.mark.parametrize("transport", ["pickle"])
    def test_byte_identical_to_sequential(
        self, ldbc_graph, sequential_schema, transport
    ):
        result = PGHive(PGHiveConfig(jobs=2)).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert result.parallel_fallback is None
        assert all(r.worker is not None for r in result.batches)
        assert serialize_pg_schema(result.schema) == sequential_schema
        assert "parallel/transport" not in result.parameters
        # Each shard result crosses the pipe through this codec; a round
        # trip must leave every shard's schema content unchanged.
        codec = importlib.import_module(transport)
        config = PGHiveConfig(post_processing=False)
        for shard in _shard_results(ldbc_graph, config):
            shipped = codec.loads(codec.dumps(shard))
            assert shipped.index == shard.index
            assert serialize_pg_schema(shipped.schema) == (
                serialize_pg_schema(shard.schema)
            )

    def test_env_transport_matches_sequential(self, ldbc_graph, test_jobs):
        """Plain shard schemas (no partial stats) cross the same pipe;
        at the CI-configured worker count (PGHIVE_TEST_JOBS) the driver
        still equals the sequential engine."""
        config = PGHiveConfig(post_processing=False)
        sequential = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        result = ParallelDiscovery(
            PGHiveConfig(post_processing=False, jobs=test_jobs)
        ).discover_store(GraphStore(ldbc_graph), NUM_BATCHES)
        assert re.fullmatch(
            r"mode=serial seconds=\d+\.\d+",
            result.parameters["parallel/partition"],
        )
        assert serialize_pg_schema(result.schema) == serialize_pg_schema(
            sequential.schema
        )

    def test_config_validation(self):
        """No option selects a handoff; the worker memory budget is
        still validated."""
        assert not [
            f.name for f in dataclasses.fields(PGHiveConfig)
            if "transport" in f.name
        ]
        with pytest.raises(ValueError):
            PGHiveConfig(shard_memory_limit_mb=0)


class TestMemoryGuard:
    def test_over_budget_shards_fail_and_fall_back(self, ldbc_graph):
        """An absurdly small budget fails every pool attempt with
        kind="memory"; the unguarded in-process fallback still recovers
        the run to the exact sequential schema."""
        sequential = PGHive(PGHiveConfig()).discover_incremental(
            GraphStore(ldbc_graph), num_batches=2
        )
        config = PGHiveConfig(
            jobs=2,
            shard_memory_limit_mb=0.5,
            shard_retries=0,
            shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=2
        )
        assert result.shard_failures
        assert {f.kind for f in result.shard_failures} == {"memory"}
        assert all(
            f.recovered_by == "fallback" for f in result.shard_failures
        )
        assert serialize_pg_schema(result.schema) == serialize_pg_schema(
            sequential.schema
        )

    def test_generous_budget_never_trips(self, ldbc_graph):
        config = PGHiveConfig(jobs=2, shard_memory_limit_mb=16384.0)
        result = PGHive(config).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert not result.shard_failures


# Runs one jobs=2 discovery in a fresh interpreter and prints the pid of
# multiprocessing's resource tracker (None when nothing started it).
_TRACKER_PROBE = """
import sys, tempfile
from multiprocessing import resource_tracker
from repro.core import PGHive, PGHiveConfig
from repro.datasets import get_dataset
from repro.graph.diskstore import write_graph_to_slabs
from repro.graph.store import GraphStore

graph = get_dataset("ldbc", scale=1, seed=0).graph
with tempfile.TemporaryDirectory() as directory:
    if sys.argv[1] == "disk":
        store = write_graph_to_slabs(graph, directory)
    else:
        store = GraphStore(graph)
    result = PGHive(PGHiveConfig(jobs=2)).discover_incremental(
        store, num_batches=4
    )
    assert all(r.worker is not None for r in result.batches)
    if sys.argv[1] == "disk":
        store.close()
print(resource_tracker._resource_tracker._pid)
"""


class TestNoResourceTracker:
    """Shard results travel through the pool pipe alone: a pooled run
    creates no shared-memory segment, so multiprocessing never starts
    the resource tracker process that would outlive the run."""

    @pytest.mark.parametrize("store", ["memory", "disk"])
    def test_pool_run_starts_no_resource_tracker(self, store):
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        probe = subprocess.run(
            [sys.executable, "-c", _TRACKER_PROBE, store],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "None"


class TestStreamParallel:
    def test_stream_pipeline_matches_sequential(self):
        """A stream is generated in order: jobs=2 runs the sequential
        engine, says why, and prints the jobs=1 bytes."""
        spec = dataset_spec("ldbc")
        seq = PGHive(PGHiveConfig(jobs=1)).discover_incremental(
            GraphStream(spec, num_batches=5, seed=3), num_batches=5
        )
        par = PGHive(PGHiveConfig(jobs=2)).discover_incremental(
            GraphStream(spec, num_batches=5, seed=3), num_batches=5
        )
        assert seq.parallel_fallback is None
        assert par.parallel_fallback == "a stream is generated in order"
        assert all(r.worker is None for r in par.batches)
        assert serialize_pg_schema(par.schema) == serialize_pg_schema(
            seq.schema
        )

    def test_stream_batch_count_is_validated(self):
        spec = dataset_spec("ldbc")
        with pytest.raises(ValueError):
            PGHive(PGHiveConfig(jobs=2)).discover_incremental(
                GraphStream(spec, num_batches=5, seed=3), num_batches=4
            )

    def test_memoized_stream_stays_sequential(self):
        """A memoized stream keeps the sequential engine too."""
        spec = dataset_spec("ldbc")
        result = PGHive(
            PGHiveConfig(jobs=2, memoize_patterns=True)
        ).discover_incremental(
            GraphStream(spec, num_batches=3, seed=3), num_batches=3
        )
        assert result.parallel_fallback is not None
        assert all(r.worker is None for r in result.batches)


def _postprocessed_shards(graph, config, num_batches, track_values=True):
    """Discover + attach partial post-processing stats per shard."""
    store = GraphStore(graph)
    engine = IncrementalDiscovery(config, name="shard")
    results = []
    for plan in store.plan_shards(num_batches, seed=config.seed):
        batch = store.materialize_shard(plan)
        schema, report = engine.discover_batch_columns(
            node_columns(batch.nodes),
            edge_columns(batch.edges, batch.endpoint_labels),
            batch_index=plan.index,
        )
        attach_partial_stats(
            schema, batch.nodes, batch.edges, track_values=track_values
        )
        results.append(ShardResult(plan.index, schema, report))
    return results


class TestShardedPostprocess:
    """The §4.4 fold must equal the store-backed reference passes byte
    for byte, for any engine, shard count and merge order."""

    def _serial_schema(self, graph, config, num_batches):
        """The reference: discover without §4.4, then run the passes
        that read every member back out of the store."""
        store = GraphStore(graph)
        schema = PGHive(
            dataclasses.replace(config, post_processing=False)
        ).discover_incremental(store, num_batches=num_batches).schema
        infer_property_constraints(schema)
        infer_datatypes(schema, store, config)
        compute_cardinalities(schema, store)
        return serialize_pg_schema(schema)

    @pytest.mark.parametrize("num_batches", [2, 3, 5])
    def test_partial_stats_match_serial_for_any_shard_count(
        self, ldbc_graph, num_batches
    ):
        config = PGHiveConfig(infer_value_profiles=True)
        results = _postprocessed_shards(ldbc_graph, config, num_batches)
        combined = combine_shard_results(
            ldbc_graph.name, results, config
        )
        # The partial path must actually engage, not silently fall back.
        assert apply_partial_stats(combined, config)
        assert serialize_pg_schema(combined) == self._serial_schema(
            ldbc_graph, config, num_batches
        )

    def test_datatype_only_stats_retain_no_values(self, ldbc_graph):
        """Without profiles, workers must not ship values to the driver.

        The datatype-only fold keeps the merged schema byte-identical to
        the serial run while every partial's distinct-value sketch and
        bounds stay empty -- the invariant behind the out-of-core
        bounded-memory claim (driver stats stay O(schema), not O(data)).
        """
        config = PGHiveConfig()
        assert not config.infer_value_profiles
        results = _postprocessed_shards(
            ldbc_graph, config, NUM_BATCHES, track_values=False
        )
        for shard in results:
            for schema_types in (
                shard.schema.node_types, shard.schema.edge_types
            ):
                for type_record in schema_types.values():
                    for partial in type_record.stats.properties.values():
                        assert partial.distinct == set()
                        assert partial.numeric_min is None
                        assert partial.text_min is None
                        assert partial.observations > 0
        combined = combine_shard_results(ldbc_graph.name, results, config)
        assert apply_partial_stats(combined, config)
        assert serialize_pg_schema(combined) == self._serial_schema(
            ldbc_graph, config, NUM_BATCHES
        )

    def test_partial_stats_permutation_invariant(self, ldbc_graph):
        config = PGHiveConfig(infer_value_profiles=True)
        reference = self._serial_schema(ldbc_graph, config, NUM_BATCHES)
        rng = random.Random(7)
        for _ in range(4):
            # Re-discover fresh shards each round: combine mutates them.
            shuffled = _postprocessed_shards(
                ldbc_graph, config, NUM_BATCHES
            )
            rng.shuffle(shuffled)
            combined = combine_shard_results(
                ldbc_graph.name, shuffled, config
            )
            assert apply_partial_stats(combined, config)
            assert serialize_pg_schema(combined) == reference

    def test_parallel_profiles_match_sequential(self, ldbc_graph):
        seq = PGHive(
            PGHiveConfig(infer_value_profiles=True)
        ).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        par = PGHive(
            PGHiveConfig(jobs=2, infer_value_profiles=True)
        ).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(par.schema) == serialize_pg_schema(
            seq.schema
        )

    def test_sampling_mode_falls_back_to_serial_passes(self, ldbc_graph):
        """Sampled datatype inference re-samples from the store at the
        end, but the pool still runs: a sampled jobs=2 run is sharded
        and matches jobs=1."""
        seq = PGHive(
            PGHiveConfig(infer_datatypes_by_sampling=True)
        ).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        par = PGHive(
            PGHiveConfig(jobs=2, infer_datatypes_by_sampling=True)
        ).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert par.parallel_fallback is None
        assert all(r.worker is not None for r in par.batches)
        assert serialize_pg_schema(par.schema) == serialize_pg_schema(
            seq.schema
        )

    def test_final_schema_carries_no_stats(self, ldbc_graph):
        for jobs in (1, 2):
            result = PGHive(PGHiveConfig(jobs=jobs)).discover_incremental(
                GraphStore(ldbc_graph), num_batches=NUM_BATCHES
            )
            for node_type in result.schema.node_types.values():
                assert node_type.stats is None, jobs
            for edge_type in result.schema.edge_types.values():
                assert edge_type.stats is None, jobs


class TestDegreeMerge:
    """Summed per-node degree maps must equal whole-graph extremes."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 6),
        st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_summed_maps_match_store_extremes(
        self, endpoints, num_shards, seed
    ):
        """Random edge multiset, random split: merging per-shard count
        maps by summation reproduces the whole-graph degree extremes."""
        from collections import Counter

        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        node_ids = {}
        for source, target in endpoints:
            for raw in (source, target):
                if raw not in node_ids:
                    node_ids[raw] = builder.node(["N"], {})
        for s, t in endpoints:
            builder.edge(node_ids[s], node_ids[t], ["E"], {})
        edges = list(builder.build().edges())
        rng = random.Random(seed)
        shards = [TypeStats() for _ in range(num_shards)]
        for edge in edges:
            stats = rng.choice(shards)
            stats.out_degrees[edge.source] = (
                stats.out_degrees.get(edge.source, 0) + 1
            )
            stats.in_degrees[edge.target] = (
                stats.in_degrees.get(edge.target, 0) + 1
            )
        rng.shuffle(shards)
        merged = shards[0]
        for other in shards[1:]:
            merged.merge(other)
        max_out = max(merged.out_degrees.values(), default=0)
        max_in = max(merged.in_degrees.values(), default=0)
        out_degree = Counter(edge.source for edge in edges)
        in_degree = Counter(edge.target for edge in edges)
        assert (max_out, max_in) == (
            max(out_degree.values()), max(in_degree.values())
        )

    def test_max_of_maxes_would_undercount(self):
        """The regression the summed merge prevents: one node's incoming
        edges split across shards."""
        a, b = TypeStats(), TypeStats()
        a.in_degrees[7] = 2
        b.in_degrees[7] = 3
        a.merge(b)
        assert a.in_degrees[7] == 5  # not max(2, 3)


class TestReportsAndFallbacks:
    def test_per_worker_reports(self, ldbc_graph):
        result = PGHive(PGHiveConfig(jobs=2)).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert [r.index for r in result.batches] == list(range(NUM_BATCHES))
        assert all(r.worker is not None for r in result.batches)
        aggregated = result.aggregate_stage_seconds()
        assert {"embed", "vectorize", "cluster", "extract"} <= set(
            aggregated
        )
        assert "parallel/jobs" in result.parameters
        assert "parallel/merge_seconds" in result.parameters

    def test_memoization_rides_the_pool(self, noisy_iyp_graph):
        """The memo fast path consults the running schema, so jobs=2
        runs the sequential engine, says why, and prints the jobs=1
        bytes -- on noisy, half-labeled input too."""
        graph = noisy_iyp_graph
        seq, par = (
            PGHive(
                PGHiveConfig(jobs=jobs, memoize_patterns=True)
            ).discover_incremental(GraphStore(graph), num_batches=4)
            for jobs in (1, 2)
        )
        assert par.parallel_fallback == (
            "pattern memoization consults the running schema"
        )
        assert all(r.worker is None for r in par.batches)
        assert serialize_pg_schema(par.schema) == serialize_pg_schema(
            seq.schema
        )

    def test_jobs1_takes_sequential_path(self, ldbc_graph):
        result = PGHive(PGHiveConfig(jobs=1)).discover_incremental(
            GraphStore(ldbc_graph), num_batches=NUM_BATCHES
        )
        assert all(r.worker is None for r in result.batches)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PGHiveConfig(jobs=0)
        with pytest.raises(ValueError):
            PGHiveConfig(parallel_chunk="sometimes")
        with pytest.raises(ValueError):
            PGHiveConfig(parallel_chunk="0")

    def test_chunk_size_resolution(self):
        config = PGHiveConfig(jobs=4)
        # auto: about two tasks per worker
        assert config.chunk_size(16) == 2
        assert config.chunk_size(3) == 1
        explicit = PGHiveConfig(jobs=4, parallel_chunk="3")
        assert explicit.chunk_size(16) == 3
        assert explicit.chunk_size(2) == 2
