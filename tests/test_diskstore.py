"""Out-of-core slab backend: disk/memory equivalence and recovery.

The contract under test: :class:`~repro.graph.diskstore.DiskGraphStore`
is observationally identical to the in-memory
:class:`~repro.graph.store.GraphStore` -- every scan, lookup, partition,
shard materialization and discovery mode produces byte-identical output
-- while holding only mmap views instead of the graph.  The recovery
half: a kill during slab ingest or during discovery resumes to the same
bytes an uninterrupted run produces.
"""

import dataclasses
import json
import os
import re

import numpy
import pytest

from repro.core import PGHive, PGHiveConfig
from repro.core.columns import edge_columns, node_columns
from repro.core.faults import InjectedFault
from repro.core.incremental import IncrementalDiscovery
from repro.core.parallel import ShardRecoveryError, fork_available
from repro.datasets import get_dataset
from repro.graph.builder import GraphBuilder
from repro.graph.model import Node
from repro.graph.diskstore import (
    DiskGraphStore,
    SlabIngestError,
    ingest_jsonl_slabs,
    ingest_source_key,
    is_slab_directory,
    write_graph_to_slabs,
)
from repro.graph.io import IngestReport, load_graph_jsonl, save_graph_jsonl
from repro.graph.scrub import repair_slab_directory, scrub_slab_directory
from repro.graph.slab import SlabCorruptionError, SlabReader, SlabWriter
from repro.graph.store import GraphStore
from repro.schema.persist import SchemaPersistError
from repro.schema.serialize_pgschema import serialize_pg_schema

NUM_BATCHES = 4

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="kill tests require fork"
)


@pytest.fixture(scope="module")
def ldbc_graph():
    return get_dataset("ldbc", scale=1, seed=0).graph


@pytest.fixture(scope="module")
def memory_store(ldbc_graph):
    return GraphStore(ldbc_graph)


@pytest.fixture(scope="module")
def disk_store(ldbc_graph, tmp_path_factory):
    store = write_graph_to_slabs(
        ldbc_graph, tmp_path_factory.mktemp("ldbc-slabs")
    )
    yield store
    store.close()


@pytest.fixture(scope="module")
def sequential_schema(memory_store):
    result = PGHive(PGHiveConfig()).discover_incremental(
        memory_store, num_batches=NUM_BATCHES
    )
    return serialize_pg_schema(result.schema)


def _nodes_equal(a, b):
    assert a.id == b.id
    assert a.labels == b.labels
    assert dict(a.properties) == dict(b.properties)
    assert list(a.properties) == list(b.properties)  # key order too


def _edges_equal(a, b):
    assert a.id == b.id
    assert (a.source, a.target) == (b.source, b.target)
    assert a.labels == b.labels
    assert dict(a.properties) == dict(b.properties)
    assert list(a.properties) == list(b.properties)


def _batches_equal(a, b):
    assert [n.id for n in a.nodes] == [n.id for n in b.nodes]
    assert [e.id for e in a.edges] == [e.id for e in b.edges]
    for x, y in zip(a.nodes, b.nodes):
        _nodes_equal(x, y)
    for x, y in zip(a.edges, b.edges):
        _edges_equal(x, y)
    assert a.endpoint_labels == b.endpoint_labels


class TestStoreContractEquivalence:
    def test_identity_and_counts(self, memory_store, disk_store):
        assert disk_store.name == memory_store.name
        assert disk_store.count_nodes() == memory_store.count_nodes()
        assert disk_store.count_edges() == memory_store.count_edges()
        assert is_slab_directory(disk_store.directory)

    def test_scans_preserve_insertion_order(self, memory_store, disk_store):
        for a, b in zip(memory_store.scan_nodes(), disk_store.scan_nodes()):
            _nodes_equal(a, b)
        for a, b in zip(memory_store.scan_edges(), disk_store.scan_edges()):
            _edges_equal(a, b)

    def test_point_lookups(self, memory_store, disk_store):
        for node in list(memory_store.scan_nodes())[:50]:
            _nodes_equal(node, disk_store.node(node.id))
        for edge in list(memory_store.scan_edges())[:50]:
            _edges_equal(edge, disk_store.edge(edge.id))
            src, tgt = memory_store.endpoints(edge)
            dsrc, dtgt = disk_store.endpoints(disk_store.edge(edge.id))
            _nodes_equal(src, dsrc)
            _nodes_equal(tgt, dtgt)

    def test_missing_ids_raise(self, disk_store):
        with pytest.raises(KeyError):
            disk_store.node(10**9)
        with pytest.raises(KeyError):
            disk_store.edge(10**9)

    @pytest.mark.parametrize("num_shards,seed,shuffle", [
        (1, 0, True), (3, 0, True), (3, 42, True), (4, 7, False),
    ])
    def test_partition_tables_identical(
        self, memory_store, disk_store, num_shards, seed, shuffle
    ):
        """Both backends put every node and edge in the same shard, in
        the same order."""
        plans = memory_store.plan_shards(num_shards, seed, shuffle)
        assert disk_store.plan_shards(num_shards, seed, shuffle) == plans
        for plan in plans:
            mem = memory_store.materialize_shard(plan)
            dsk = disk_store.materialize_shard(plan)
            assert [n.id for n in dsk.nodes] == [n.id for n in mem.nodes]
            assert [e.id for e in dsk.edges] == [e.id for e in mem.edges]

    def test_batches_identical(self, memory_store, disk_store):
        for a, b in zip(
            memory_store.batches(3, seed=1), disk_store.batches(3, seed=1)
        ):
            _batches_equal(a, b)

    def test_shard_plans_materialize_identically(
        self, memory_store, disk_store
    ):
        mem_plans = memory_store.plan_shards(4, seed=9)
        dsk_plans = disk_store.plan_shards(4, seed=9)
        for mp, dp in zip(mem_plans, dsk_plans):
            _batches_equal(
                memory_store.materialize_shard(mp),
                disk_store.materialize_shard(dp),
            )

    def test_fingerprint_tracks_durable_state(self, disk_store, tmp_path):
        assert disk_store.journal_fingerprint() is not None
        builder = GraphBuilder("tiny")
        builder.node(["A"], {"x": 1})
        store = write_graph_to_slabs(builder.build(), tmp_path / "tiny")
        before = store.journal_fingerprint()
        with SlabWriter(tmp_path / "tiny") as writer:
            writer.add_nodes([(99, frozenset({"B"}), {"y": 2})])
            writer.commit()
        store.refresh()
        assert store.journal_fingerprint() != before
        store.close()

    def test_memory_store_fingerprints_its_content(self, memory_store):
        """The memory store's fingerprint is its content: an equal copy
        agrees, and editing one property value changes it."""
        fingerprint = memory_store.journal_fingerprint()
        assert fingerprint is not None
        assert fingerprint["nodes"] == str(memory_store.count_nodes())
        graph = memory_store.graph.copy()
        assert GraphStore(graph).journal_fingerprint() == fingerprint
        node = next(graph.nodes())
        graph.replace_node(
            Node(node.id, node.labels, dict(node.properties, probe="x"))
        )
        assert GraphStore(graph).journal_fingerprint() != fingerprint


class TestColumnizeShard:
    def test_columnize_matches_materialized_batch(
        self, memory_store, disk_store
    ):
        for plan in disk_store.plan_shards(3, seed=5):
            batch = memory_store.materialize_shard(
                memory_store.plan_shards(3, seed=5)[plan.index]
            )
            ref_n = node_columns(batch.nodes)
            ref_e = edge_columns(batch.edges, batch.endpoint_labels)
            got_n, got_e, _, _ = disk_store.columnize_shard(plan)
            numpy.testing.assert_array_equal(got_n.ids, ref_n.ids)
            numpy.testing.assert_array_equal(got_n.label_ids, ref_n.label_ids)
            numpy.testing.assert_array_equal(
                got_n.keyset_ids, ref_n.keyset_ids
            )
            assert got_n.labels.sets == ref_n.labels.sets
            assert got_n.labels.tokens == ref_n.labels.tokens
            assert got_n.keys.sets == ref_n.keys.sets
            assert got_n.keys.orders == ref_n.keys.orders
            numpy.testing.assert_array_equal(got_e.ids, ref_e.ids)
            numpy.testing.assert_array_equal(
                got_e.label_ids, ref_e.label_ids
            )
            numpy.testing.assert_array_equal(
                got_e.keyset_ids, ref_e.keyset_ids
            )
            numpy.testing.assert_array_equal(got_e.source, ref_e.source)
            numpy.testing.assert_array_equal(got_e.target, ref_e.target)
            numpy.testing.assert_array_equal(
                got_e.src_label_ids, ref_e.src_label_ids
            )
            numpy.testing.assert_array_equal(
                got_e.tgt_label_ids, ref_e.tgt_label_ids
            )
            assert got_e.labels.sets == ref_e.labels.sets
            assert got_e.labels.tokens == ref_e.labels.tokens
            assert got_e.keys.sets == ref_e.keys.sets
            assert got_e.keys.orders == ref_e.keys.orders

    def test_key_order_follows_shard_representative_row(self, tmp_path):
        """Two rows share a key *set* but not a key *order*: each shard's
        interner must record its own first row's order, exactly as the
        per-batch :func:`node_columns` path does."""
        builder = GraphBuilder("order")
        builder.node(["P"], {"a": 1, "b": 2})
        builder.node(["P"], {"b": 3, "a": 4})  # same set, reversed order
        graph = builder.build()
        store = write_graph_to_slabs(graph, tmp_path / "order")
        memory = GraphStore(graph)
        for plan_m, plan_d in zip(
            memory.plan_shards(2, seed=0), store.plan_shards(2, seed=0)
        ):
            batch = memory.materialize_shard(plan_m)
            ncols = store.columnize_shard(plan_d).nodes
            assert ncols.keys.orders == node_columns(batch.nodes).keys.orders
        store.close()


class TestDiscoveryByteIdentity:
    def test_sequential_discover(self, memory_store, disk_store):
        mem = PGHive().discover(memory_store)
        dsk = PGHive().discover(disk_store)
        assert serialize_pg_schema(dsk.schema) == \
            serialize_pg_schema(mem.schema)

    def test_incremental_discover(self, disk_store, sequential_schema):
        result = PGHive(PGHiveConfig()).discover_incremental(
            disk_store, num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema

    @needs_fork
    @pytest.mark.parametrize("post_processing", [True, False])
    def test_parallel_discover(
        self, memory_store, disk_store, sequential_schema, post_processing
    ):
        """jobs=2 on disk equals jobs=1 in memory.  Without
        post-processing the workers columnize straight from the slabs."""
        expected = sequential_schema
        if not post_processing:
            expected = serialize_pg_schema(PGHive(PGHiveConfig(
                post_processing=False
            )).discover_incremental(
                memory_store, num_batches=NUM_BATCHES
            ).schema)
        result = PGHive(PGHiveConfig(
            jobs=2, post_processing=post_processing
        )).discover_incremental(disk_store, num_batches=NUM_BATCHES)
        assert re.fullmatch(
            r"mode=serial seconds=\d+\.\d+",
            result.parameters["parallel/partition"],
        )
        assert serialize_pg_schema(result.schema) == expected

    def test_postprocessed_modes(self, memory_store, disk_store):
        config = PGHiveConfig(
            infer_value_profiles=True, exact_cardinality_bounds=True
        )
        mem = PGHive(config).discover(memory_store)
        dsk = PGHive(config).discover(disk_store)
        assert serialize_pg_schema(dsk.schema) == \
            serialize_pg_schema(mem.schema)


class TestIngest:
    def test_jsonl_ingest_equals_memory_load(self, ldbc_graph, tmp_path):
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(ldbc_graph, path)
        store = ingest_jsonl_slabs(path, tmp_path / "slabs")
        loaded = load_graph_jsonl(path)
        assert store.count_nodes() == loaded.num_nodes
        assert store.count_edges() == loaded.num_edges
        for node, other in zip(loaded.nodes(), store.scan_nodes()):
            _nodes_equal(node, other)
        for edge, other in zip(loaded.edges(), store.scan_edges()):
            _edges_equal(edge, other)
        store.close()

    def test_collect_report_matches_memory_loader(self, tmp_path):
        lines = [
            json.dumps({"kind": "node", "id": 0, "labels": ["P"]}),
            json.dumps({"kind": "node", "id": 0, "labels": ["Dup"]}),
            "not json",
            json.dumps({"kind": "edge", "id": 0, "source": 0, "target": 9}),
        ]
        path = tmp_path / "dirty.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        mem_report = IngestReport()
        load_graph_jsonl(path, on_error="collect", report=mem_report)
        dsk_report = IngestReport()
        store = ingest_jsonl_slabs(
            path, tmp_path / "slabs", on_error="collect", report=dsk_report
        )
        assert [(e.line, e.reason) for e in dsk_report.errors] == \
            [(e.line, e.reason) for e in mem_report.errors]
        assert store.count_nodes() == 1
        assert store.count_edges() == 0
        store.close()

    def test_raise_policy_reports_same_first_error(self, tmp_path):
        lines = [
            json.dumps({"kind": "node", "id": 0}),
            json.dumps({"kind": "node", "id": 0}),
            "not json",
        ]
        path = tmp_path / "dirty.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"dirty\.jsonl:2: duplicate"):
            load_graph_jsonl(path)
        with pytest.raises(ValueError, match=r"dirty\.jsonl:2: duplicate"):
            ingest_jsonl_slabs(path, tmp_path / "slabs")

    def test_reingest_without_resume_resets(self, figure1_graph, tmp_path):
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(figure1_graph, path)
        first = ingest_jsonl_slabs(path, tmp_path / "slabs")
        first.close()
        again = ingest_jsonl_slabs(path, tmp_path / "slabs")
        assert again.count_nodes() == figure1_graph.num_nodes
        assert again.count_edges() == figure1_graph.num_edges
        again.close()


class TestKillRecovery:
    @needs_fork
    def test_kill_during_ingest_resumes_byte_identical(
        self, ldbc_graph, tmp_path
    ):
        """SIGKILL-equivalent death mid-ingest: the child commits a slab
        prefix and dies without cleanup; a resumed ingest completes to
        the same bytes (and schema) as an uninterrupted one."""
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(ldbc_graph, path)
        slab_dir = tmp_path / "slabs"
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child dies deliberately
            commit = SlabWriter.commit

            def die_after_commit(writer, sources=None):
                commit(writer, sources)
                os._exit(137)

            SlabWriter.commit = die_after_commit
            ingest_jsonl_slabs(path, slab_dir, slab_bytes=4096)
            os._exit(1)  # should have died at the first commit
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 137
        probe = SlabWriter(slab_dir, name=path.stem)
        progress = probe.source_progress(ingest_source_key(path))
        probe.close()
        assert 0 < progress  # a durable prefix exists...
        resumed = ingest_jsonl_slabs(path, slab_dir, resume=True)
        clean = ingest_jsonl_slabs(path, tmp_path / "clean")
        assert resumed.reader.fingerprint != ""
        for a, b in zip(clean.scan_nodes(), resumed.scan_nodes()):
            _nodes_equal(a, b)
        for a, b in zip(clean.scan_edges(), resumed.scan_edges()):
            _edges_equal(a, b)
        assert serialize_pg_schema(PGHive().discover(resumed).schema) == \
            serialize_pg_schema(PGHive().discover(clean).schema)
        resumed.close()
        clean.close()

    def test_crash_at_batch_then_resume_on_disk(
        self, disk_store, sequential_schema, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        crashing = PGHiveConfig(
            checkpoint_dir=str(ckpt), faults="batch:2:raise"
        )
        with pytest.raises(InjectedFault):
            PGHive(crashing).discover_incremental(
                disk_store, num_batches=NUM_BATCHES
            )
        assert IncrementalDiscovery.has_checkpoint(ckpt)
        resumed = PGHive(
            PGHiveConfig(checkpoint_dir=str(ckpt))
        ).discover_incremental(
            disk_store, num_batches=NUM_BATCHES, resume=True
        )
        assert resumed.resumed_from == 2
        assert serialize_pg_schema(resumed.schema) == sequential_schema

    @needs_fork
    def test_killed_worker_recovers_on_disk(
        self, disk_store, sequential_schema
    ):
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", faults="shard:1:kill",
            shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            disk_store, num_batches=NUM_BATCHES
        )
        assert serialize_pg_schema(result.schema) == sequential_schema

    @needs_fork
    def test_parallel_crash_then_resume_on_disk(
        self, disk_store, sequential_schema, tmp_path
    ):
        """A jobs>1 run over slabs dies mid-pool; resume recomputes only
        the missing shards, byte-identical to a clean run."""
        ckpt = tmp_path / "ckpt"
        crashing = PGHiveConfig(
            jobs=2, parallel_chunk="1", checkpoint_dir=str(ckpt),
            faults="shard:2:raise:99", shard_retries=0,
            shard_retry_backoff=0.0, strict_recovery=True,
        )
        with pytest.raises(ShardRecoveryError):
            PGHive(crashing).discover_incremental(
                disk_store, num_batches=NUM_BATCHES
            )
        assert sorted((ckpt / "shards").glob("shard-*.json"))
        resumed = PGHive(PGHiveConfig(
            jobs=2, parallel_chunk="1", checkpoint_dir=str(ckpt)
        )).discover_incremental(
            disk_store, num_batches=NUM_BATCHES, resume=True
        )
        assert resumed.resumed_shards
        assert 2 not in resumed.resumed_shards
        assert serialize_pg_schema(resumed.schema) == sequential_schema

class TestCorruption:
    """Injected storage corruption: detect, scrub, repair, resume.

    The invariant: no injected damage is ever *silently read* -- every
    scenario either surfaces as a structured ``SlabCorruptionError`` or
    is quarantined as a ``ShardFailure(kind="corruption")`` -- and after
    ``repair`` plus a resumed ingest the slabs are byte-identical to an
    undamaged run.
    """

    DATA_FILES = (
        "nodes-ids.i64", "nodes-labels.i64", "nodes-keys.i64",
        "nodes-propend.i64", "nodes-props.dat",
        "edges-ids.i64", "edges-src.i64", "edges-tgt.i64",
        "edges-labels.i64", "edges-keys.i64", "edges-propend.i64",
        "edges-props.dat",
    )

    def _assert_same_slabs(self, damaged, clean):
        for name in self.DATA_FILES:
            assert (damaged / name).read_bytes() == \
                (clean / name).read_bytes(), name

    def test_ingest_bitflip_detected_repaired_resumed(
        self, ldbc_graph, tmp_path
    ):
        """A bit flip after a mid-ingest commit: the next open refuses
        the directory, repair rolls back to the last verified
        generation, and a resumed ingest restores identical bytes."""
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(ldbc_graph, path)
        # 64 KiB commits: five in all, the second while nodes are still
        # arriving, so the generation history reaches back past the flip.
        clean = ingest_jsonl_slabs(path, tmp_path / "clean",
                                   slab_bytes=65536)
        slab_dir = tmp_path / "slabs"
        # The final open inside ingest_jsonl_slabs verifies checksums:
        # the flip is caught at the first read after the damage.
        with pytest.raises(SlabCorruptionError) as info:
            ingest_jsonl_slabs(path, slab_dir, slab_bytes=65536,
                               faults="slab-bitflip:1:corrupt")
        assert info.value.kind == "checksum"
        with pytest.raises(SlabCorruptionError):
            DiskGraphStore(slab_dir)
        report = repair_slab_directory(slab_dir)
        assert report.repaired
        assert report.restored.startswith("generation")
        assert scrub_slab_directory(slab_dir).clean
        resumed = ingest_jsonl_slabs(path, slab_dir, slab_bytes=65536,
                                     resume=True)
        resumed.close()
        self._assert_same_slabs(slab_dir, tmp_path / "clean")
        with DiskGraphStore(slab_dir) as repaired_store:
            assert serialize_pg_schema(
                PGHive().discover(repaired_store).schema
            ) == serialize_pg_schema(PGHive().discover(clean).schema)
        clean.close()

    def test_ingest_torn_write_detected_repaired_resumed(
        self, ldbc_graph, tmp_path
    ):
        """A sheared heap append (the kernel acknowledged bytes that
        never reached the medium) surfaces as a truncation at open."""
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(ldbc_graph, path)
        # 64 KiB commits: flush 3 is the first edge flush, in the third
        # of five commits, so the history reaches back past the tear.
        ingest_jsonl_slabs(path, tmp_path / "clean",
                           slab_bytes=65536).close()
        slab_dir = tmp_path / "slabs"
        with pytest.raises(SlabCorruptionError):
            ingest_jsonl_slabs(path, slab_dir, slab_bytes=65536,
                               faults="slab-torn-write:3:corrupt")
        with pytest.raises(SlabCorruptionError):
            SlabReader(slab_dir)
        report = scrub_slab_directory(slab_dir)
        assert not report.clean
        assert any(v.status in ("truncated", "checksum")
                   for v in report.verdicts)
        assert repair_slab_directory(slab_dir).repaired
        ingest_jsonl_slabs(path, slab_dir, slab_bytes=65536,
                           resume=True).close()
        self._assert_same_slabs(slab_dir, tmp_path / "clean")

    def test_enospc_raises_structured_error_and_resumes(
        self, ldbc_graph, tmp_path
    ):
        """A full disk mid-flush aborts ingest with the committed
        progress attached; freeing space and resuming loses nothing."""
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(ldbc_graph, path)
        ingest_jsonl_slabs(path, tmp_path / "clean",
                           slab_bytes=4096).close()
        slab_dir = tmp_path / "slabs"
        with pytest.raises(SlabIngestError) as info:
            ingest_jsonl_slabs(path, slab_dir, slab_bytes=4096,
                               faults="slab-enospc:4:enospc")
        assert info.value.directory == str(slab_dir)
        assert info.value.source == ingest_source_key(path)
        assert info.value.committed_line >= 0
        resumed = ingest_jsonl_slabs(path, slab_dir, slab_bytes=4096,
                                     resume=True)
        assert resumed.reader.source_progress(ingest_source_key(path)) > 0
        resumed.close()
        self._assert_same_slabs(slab_dir, tmp_path / "clean")

    def test_truncated_manifest_repair_and_resume(self, tmp_path):
        """The second commit's manifest rename lands half-written: the
        reader rejects it by checksum, repair falls back to the backup
        (the first commit), and a resumed writer restores equality."""

        def batch(start):
            return [
                (i, frozenset({"P"}), {"x": i})
                for i in range(start, start + 8)
            ]

        slab_dir = tmp_path / "slabs"
        writer = SlabWriter(slab_dir, name="t",
                            faults="manifest-partial-rename:1:corrupt")
        writer.add_nodes(batch(0))
        writer.commit({"src": 8})
        writer.add_nodes(batch(8))
        writer.commit({"src": 16})  # manifest lands truncated
        writer.close()
        with pytest.raises(SlabCorruptionError) as info:
            SlabReader(slab_dir)
        assert info.value.kind == "manifest"
        report = repair_slab_directory(slab_dir)
        assert report.repaired
        probe = SlabWriter(slab_dir, name="t")
        assert probe.source_progress("src") == 8  # backup = first commit
        probe.add_nodes(batch(8))
        probe.commit({"src": 16})
        probe.close()
        reference = tmp_path / "reference"
        with SlabWriter(reference, name="t") as ref:
            ref.add_nodes(batch(0))
            ref.commit({"src": 8})
            ref.add_nodes(batch(8))
            ref.commit({"src": 16})
        for name in ("nodes-ids.i64", "nodes-props.dat"):
            assert (slab_dir / name).read_bytes() == \
                (reference / name).read_bytes()

    @staticmethod
    def _damage_first_record(slab_dir, kind):
        ends = numpy.fromfile(
            slab_dir / f"{kind}-propend.i64", dtype=numpy.int64
        )
        with (slab_dir / f"{kind}-props.dat").open("r+b") as handle:
            handle.write(b"\xff" * int(ends[0]))

    @pytest.fixture
    def damaged_store(self, ldbc_graph, tmp_path):
        """A verified-open store whose first node property record is
        then damaged on disk (the mmap sees the new bytes): open-time
        verification cannot catch it, the read-time guard must."""
        store = write_graph_to_slabs(ldbc_graph, tmp_path / "slabs")
        self._damage_first_record(tmp_path / "slabs", "nodes")
        yield store
        store.close()

    @pytest.fixture
    def damaged_edge_store(self, ldbc_graph, tmp_path):
        """The same with the first *edge* property record damaged: edge
        records are read for the §4.4 fold, so the guard must see it."""
        store = write_graph_to_slabs(ldbc_graph, tmp_path / "slabs")
        self._damage_first_record(tmp_path / "slabs", "edges")
        yield store
        store.close()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_damaged_edge_record_raises_heap_decode(
        self, damaged_edge_store, jobs
    ):
        if jobs > 1 and not fork_available():
            pytest.skip("the pool requires fork")
        config = PGHiveConfig(
            jobs=jobs, parallel_chunk="1", corrupt_slab_policy="raise",
            shard_retry_backoff=0.0,
        )
        with pytest.raises(SlabCorruptionError) as info:
            PGHive(config).discover_incremental(
                damaged_edge_store, num_batches=NUM_BATCHES
            )
        assert info.value.kind == "heap-decode"
        assert info.value.slab == "edges-props"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_damaged_edge_record_skips_one_shard(
        self, damaged_edge_store, jobs
    ):
        if jobs > 1 and not fork_available():
            pytest.skip("the pool requires fork")
        config = PGHiveConfig(
            jobs=jobs, parallel_chunk="1", corrupt_slab_policy="skip",
            shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            damaged_edge_store, num_batches=NUM_BATCHES
        )
        assert [f.kind for f in result.shard_failures] == ["corruption"]
        assert "edges-props.dat" in result.shard_failures[0].error
        assert len(result.degraded_shards) == 1
        assert len(result.batches) == NUM_BATCHES - 1

    def test_raise_policy_fails_fast_sequential(self, damaged_store):
        config = PGHiveConfig(corrupt_slab_policy="raise")
        with pytest.raises(SlabCorruptionError) as info:
            PGHive(config).discover_incremental(
                damaged_store, num_batches=NUM_BATCHES
            )
        assert info.value.kind == "heap-decode"

    def test_skip_policy_quarantines_sequential(self, damaged_store):
        config = PGHiveConfig(corrupt_slab_policy="skip")
        result = PGHive(config).discover_incremental(
            damaged_store, num_batches=NUM_BATCHES
        )
        assert result.degraded_shards
        assert all(
            f.kind == "corruption" for f in result.shard_failures
        )
        assert result.schema.node_types  # undamaged shards contributed

    def test_skip_then_resume_replays_no_batch(
        self, damaged_store, tmp_path
    ):
        """Batches after a quarantined shard keep their plan indices, so
        a run killed at the last batch resumes there, not one batch
        earlier (which would fold a batch twice)."""
        batches = 6  # the damaged record lands in shard 3 of 6
        config = PGHiveConfig(
            corrupt_slab_policy="skip", checkpoint_dir=str(tmp_path / "ck")
        )
        whole = PGHive(config).discover_incremental(
            damaged_store, num_batches=batches
        )
        survivors = [
            i for i in range(batches) if i not in whole.degraded_shards
        ]
        assert whole.degraded_shards and survivors[-1] == batches - 1
        assert [r.index for r in whole.batches] == survivors
        crashing = PGHiveConfig(
            corrupt_slab_policy="skip", checkpoint_dir=str(tmp_path / "ck"),
            faults=f"batch:{batches - 1}:raise",
        )
        with pytest.raises(InjectedFault):
            PGHive(crashing).discover_incremental(
                damaged_store, num_batches=batches
            )
        resumed = PGHive(config).discover_incremental(
            damaged_store, num_batches=batches, resume=True
        )
        assert resumed.resumed_from == batches - 1
        assert [r.index for r in resumed.batches] == survivors
        assert sorted(resumed.parameters) == sorted(whole.parameters)
        assert serialize_pg_schema(resumed.schema) == serialize_pg_schema(
            whole.schema
        )

    @needs_fork
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quarantine_survives_resume_without_rereads(
        self, damaged_store, tmp_path, jobs
    ):
        """The prefix keeps the failures it folded past: a run that
        crashes after quarantining a shard resumes with the same
        degraded shards, strict mode still refuses it, and no folded
        plan is materialized again (a re-read would hit the corruption,
        or cost a batch, for nothing)."""
        batches = 6  # the damaged record lands in shard 3 of 6
        log = tmp_path / "materialized.log"
        store = _CountingStore(damaged_store, log)
        ckpt = str(tmp_path / "ck")
        config = PGHiveConfig(
            jobs=jobs, parallel_chunk="1", corrupt_slab_policy="skip",
            checkpoint_dir=ckpt,
        )
        whole = PGHive(config).discover_incremental(
            store, num_batches=batches
        )
        assert whole.degraded_shards == [3]
        with pytest.raises(InjectedFault):
            PGHive(dataclasses.replace(
                config, faults=f"batch:{batches - 1}:raise"
            )).discover_incremental(store, num_batches=batches)
        log.write_text("", encoding="utf-8")
        resumed = PGHive(config).discover_incremental(
            store, num_batches=batches, resume=True
        )
        # The last plan is read again -- unless the pool finished it
        # before the one ahead of it, so the journal kept it out of order
        # and the resume restores it instead.  Either way no folded plan
        # is read again.
        journaled = batches - 1 in resumed.resumed_shards
        assert log.read_text(encoding="utf-8").split() == (
            [] if journaled else [str(batches - 1)]
        )
        assert resumed.resumed_from == batches - 1
        assert resumed.degraded_shards == whole.degraded_shards
        assert serialize_pg_schema(resumed.schema) == serialize_pg_schema(
            whole.schema
        )
        with pytest.raises(ShardRecoveryError):
            PGHive(dataclasses.replace(
                config, strict_recovery=True
            )).discover_incremental(store, num_batches=batches, resume=True)

    def test_skip_policy_with_strict_recovery_still_fails(
        self, damaged_store
    ):
        config = PGHiveConfig(
            corrupt_slab_policy="skip", strict_recovery=True
        )
        with pytest.raises(ShardRecoveryError):
            PGHive(config).discover_incremental(
                damaged_store, num_batches=NUM_BATCHES
            )

    @needs_fork
    def test_skip_policy_quarantines_parallel(self, damaged_store):
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", corrupt_slab_policy="skip",
            shard_retry_backoff=0.0,
        )
        result = PGHive(config).discover_incremental(
            damaged_store, num_batches=NUM_BATCHES
        )
        assert result.degraded_shards
        corrupted = [
            f for f in result.shard_failures if f.kind == "corruption"
        ]
        assert corrupted
        assert all(f.recovered_by is None for f in corrupted)

    @needs_fork
    def test_raise_policy_fails_fast_parallel(self, damaged_store):
        config = PGHiveConfig(
            jobs=2, parallel_chunk="1", corrupt_slab_policy="raise",
            shard_retry_backoff=0.0,
        )
        with pytest.raises(SlabCorruptionError):
            PGHive(config).discover_incremental(
                damaged_store, num_batches=NUM_BATCHES
            )


class _CountingStore:
    """A store that appends the plan index of each shard it hands out,
    as objects or as columns, to ``log`` (a file, so forked pool workers
    are counted too)."""

    def __init__(self, store, log):
        self._store = store
        self._log = log

    def __getattr__(self, name):
        return getattr(self._store, name)

    def _count(self, plan):
        with open(self._log, "a", encoding="utf-8") as handle:
            handle.write(f"{plan.index}\n")

    def materialize_shard(self, plan):
        self._count(plan)
        return self._store.materialize_shard(plan)

    def columnize_shard(self, plan, properties=True):
        self._count(plan)
        return self._store.columnize_shard(plan, properties)


class TestJournalInvalidation:
    @needs_fork
    def test_slab_generation_change_invalidates_journal(
        self, ldbc_graph, tmp_path
    ):
        """The journal records the slab fingerprint: appending to the
        store between runs makes it stale, and a resume refuses it by
        name instead of folding shards of the old generation."""
        ckpt = tmp_path / "ckpt"
        store = write_graph_to_slabs(ldbc_graph, tmp_path / "slabs")
        config = PGHiveConfig(jobs=2, checkpoint_dir=str(ckpt))
        PGHive(config).discover_incremental(store, num_batches=NUM_BATCHES)
        same = PGHive(config).discover_incremental(
            store, num_batches=NUM_BATCHES, resume=True
        )
        assert same.resumed_shards == list(range(NUM_BATCHES))
        with SlabWriter(tmp_path / "slabs") as writer:
            writer.add_nodes([(10**6, frozenset({"Zz"}), {"q": 1})])
            writer.commit()
        store.refresh()
        with pytest.raises(SchemaPersistError, match="'store'"):
            PGHive(config).discover_incremental(
                store, num_batches=NUM_BATCHES, resume=True
            )
        store.close()
