"""Tests for the dynamic graph stream generator."""

import pytest

from repro.core.incremental import IncrementalDiscovery
from repro.datasets.registry import dataset_spec
from repro.datasets.stream import GraphStream, StreamBatchPlan
from repro.evaluation.f1star import majority_f1
from repro.schema.evolution import SchemaEvolutionTracker


class TestGraphStream:
    def test_emits_requested_batches(self):
        stream = GraphStream(dataset_spec("POLE"), num_batches=4, seed=1)
        batches = list(stream)
        assert len(batches) == 4
        assert all(len(b.nodes) == 100 for b in batches)

    def test_population_accumulates(self):
        stream = GraphStream(
            dataset_spec("POLE"), num_batches=3,
            plan=StreamBatchPlan(nodes_per_batch=50, edges_per_batch=60),
            seed=1,
        )
        list(stream)
        assert stream.graph.num_nodes == 150
        assert stream.graph.num_edges <= 180

    def test_edges_cross_batch_boundaries(self):
        stream = GraphStream(dataset_spec("POLE"), num_batches=5, seed=1)
        batches = list(stream)
        later = batches[-1]
        batch_node_ids = {n.id for n in later.nodes}
        crossing = [
            e for e in later.edges
            if e.source not in batch_node_ids or e.target not in batch_node_ids
        ]
        assert crossing, "a realistic stream links back to older nodes"

    def test_endpoint_labels_cover_all_edge_endpoints(self):
        stream = GraphStream(dataset_spec("POLE"), num_batches=3, seed=1)
        for batch in stream:
            for edge in batch.edges:
                assert edge.source in batch.endpoint_labels
                assert edge.target in batch.endpoint_labels

    def test_drift_delays_types(self):
        drift = {"Crime": 2, "PARTY_TO": 2}
        stream = GraphStream(
            dataset_spec("POLE"), num_batches=4, drift=drift, seed=1
        )
        batches = list(stream)
        early_types = {
            stream.truth.node_types[n.id]
            for b in batches[:2] for n in b.nodes
        }
        late_types = {
            stream.truth.node_types[n.id]
            for b in batches[2:] for n in b.nodes
        }
        assert "Crime" not in early_types
        assert "Crime" in late_types

    def test_ground_truth_complete(self):
        stream = GraphStream(dataset_spec("MB6"), num_batches=3, seed=2)
        list(stream)
        assert set(stream.truth.node_types) == {
            n.id for n in stream.graph.nodes()
        }
        assert set(stream.truth.edge_types) == {
            e.id for e in stream.graph.edges()
        }

    def test_invalid_batch_count(self):
        with pytest.raises(ValueError):
            GraphStream(dataset_spec("POLE"), num_batches=0)


class TestStreamDiscovery:
    def test_incremental_discovery_over_stream_with_drift(self):
        """The schema grows when drifting types appear and the tracker
        sees the change; final accuracy stays high."""
        drift = {"Vehicle": 3, "PhoneCall": 3, "CALLER": 3, "CALLED": 3}
        stream = GraphStream(
            dataset_spec("POLE"), num_batches=6, drift=drift, seed=3,
            plan=StreamBatchPlan(nodes_per_batch=120, edges_per_batch=150),
        )
        engine = IncrementalDiscovery()
        tracker = SchemaEvolutionTracker(stability_window=2)
        changes = []
        for batch in stream:
            engine.process_batch(batch.nodes, batch.edges, batch.endpoint_labels)
            step = tracker.observe(engine.schema)
            changes.append(step.changed)
        # Something structurally new arrived mid-stream (the drift).
        assert any(changes[3:]),  "drifting types must extend the schema"
        assignment = {
            member: t.name
            for t in engine.schema.node_types.values()
            for member in t.members
        }
        score = majority_f1(assignment, stream.truth.node_types)
        assert score.headline >= 0.99
        labels = {
            frozenset(t.labels)
            for t in engine.schema.node_types.values()
        }
        assert frozenset({"Vehicle"}) in labels
