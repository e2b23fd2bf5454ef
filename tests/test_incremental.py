"""Tests for incremental discovery (section 4.6)."""

import pytest

from repro.core.config import PGHiveConfig
from repro.core.incremental import IncrementalDiscovery
from repro.core.pipeline import PGHive
from repro.datasets import get_dataset
from repro.evaluation.f1star import majority_f1
from repro.graph.store import GraphStore
from repro.schema.diff import diff_schemas
from repro.schema.model import SchemaGraph


def _copy_schema(schema: SchemaGraph) -> SchemaGraph:
    """Cheap structural snapshot for monotonicity checks."""
    import copy

    return copy.deepcopy(schema)


class TestIncrementalEngine:
    def test_monotone_schema_chain(self):
        """S_i is always subsumed by S_{i+1} (paper's monotone chain)."""
        dataset = get_dataset("POLE", scale=0.4, seed=3)
        store = GraphStore(dataset.graph)
        engine = IncrementalDiscovery()
        previous = _copy_schema(engine.schema)
        for batch in store.batches(5, seed=1):
            engine.process_batch(batch.nodes, batch.edges, batch.endpoint_labels)
            diff = diff_schemas(previous, engine.schema)
            assert diff.is_monotone_extension, (
                f"batch {batch.index} removed schema information: {diff}"
            )
            previous = _copy_schema(engine.schema)

    def test_batch_reports(self):
        dataset = get_dataset("POLE", scale=0.3, seed=3)
        store = GraphStore(dataset.graph)
        engine = IncrementalDiscovery()
        for batch in store.batches(3, seed=1):
            report = engine.process_batch(
                batch.nodes, batch.edges, batch.endpoint_labels
            )
            assert report.seconds > 0
            assert report.num_nodes == len(batch.nodes)
        assert [r.index for r in engine.reports] == [0, 1, 2]

    def test_incremental_matches_static_types_on_clean_data(self):
        dataset = get_dataset("POLE", scale=0.4, seed=3)
        static = PGHive().discover(GraphStore(dataset.graph))
        incremental = PGHive().discover_incremental(
            GraphStore(dataset.graph), num_batches=4
        )
        assert set(static.schema.node_types) == set(
            incremental.schema.node_types
        )

    def test_incremental_f1_stays_high(self):
        dataset = get_dataset("POLE", scale=0.4, seed=3)
        result = PGHive().discover_incremental(
            GraphStore(dataset.graph), num_batches=5
        )
        scores = majority_f1(result.node_assignment, dataset.truth.node_types)
        assert scores.headline >= 0.99

    def test_property_constraints_exact_across_batches(self):
        """MANDATORY/OPTIONAL must match the static answer exactly,
        because per-type counters accumulate across batches."""
        dataset = get_dataset("POLE", scale=0.4, seed=3)
        static = PGHive().discover(GraphStore(dataset.graph))
        incremental = PGHive().discover_incremental(
            GraphStore(dataset.graph), num_batches=5
        )
        for name, static_type in static.schema.node_types.items():
            incr_type = incremental.schema.node_types[name]
            assert incr_type.instance_count == static_type.instance_count
            for key, spec in static_type.properties.items():
                assert incr_type.properties[key].status is spec.status, (
                    f"{name}.{key}"
                )

    def test_empty_batch_is_harmless(self):
        engine = IncrementalDiscovery()
        report = engine.process_batch([], [], {})
        assert report.num_nodes == 0
        assert engine.schema.num_types == 0

    def test_new_labels_in_later_batches(self):
        """A label first seen in batch 2 still becomes a type."""
        from repro.graph.builder import GraphBuilder

        engine = IncrementalDiscovery()
        b1 = GraphBuilder()
        b1.node(["A"], {"x": 1})
        graph1 = b1.build()
        engine.process_batch(list(graph1.nodes()), [], None)
        b2 = GraphBuilder()
        b2.node(["B"], {"y": 2})
        graph2 = b2.build()
        engine.process_batch(list(graph2.nodes()), [], None)
        labels = {
            frozenset(t.labels) for t in engine.schema.node_types.values()
        }
        assert frozenset({"A"}) in labels and frozenset({"B"}) in labels

    def test_ten_batch_run_completes(self):
        dataset = get_dataset("MB6", scale=0.3, seed=3)
        result = PGHive().discover_incremental(
            GraphStore(dataset.graph), num_batches=10
        )
        assert len(result.batches) == 10
        scores = majority_f1(result.node_assignment, dataset.truth.node_types)
        assert scores.headline >= 0.95
