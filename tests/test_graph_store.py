"""Unit tests for the GraphStore facade (the Neo4j substitute)."""

import pytest

from repro.core.postprocess import TypeStats, apply_partial_stats, fold_edge
from repro.graph.builder import GraphBuilder
from repro.schema.model import EdgeType, SchemaGraph


class TestScans:
    def test_counts_match_graph(self, figure1_store):
        assert figure1_store.count_nodes() == 7
        assert figure1_store.count_edges() == 6
        assert len(list(figure1_store.scan_nodes())) == 7
        assert len(list(figure1_store.scan_edges())) == 6

    def test_endpoints(self, figure1_store):
        edge = next(figure1_store.scan_edges())
        source, target = figure1_store.endpoints(edge)
        assert source.id == edge.source and target.id == edge.target


class TestBatches:
    def test_batches_partition_nodes(self, figure1_store):
        batches = list(figure1_store.batches(3, seed=1))
        assert len(batches) == 3
        seen = [n.id for b in batches for n in b.nodes]
        assert sorted(seen) == list(range(7))

    def test_batches_partition_edges_by_source(self, figure1_store):
        batches = list(figure1_store.batches(2, seed=1))
        edge_ids = sorted(e.id for b in batches for e in b.edges)
        assert edge_ids == list(range(6))
        # Each edge must live in the batch of its source node.
        for batch in batches:
            node_ids = {n.id for n in batch.nodes}
            for edge in batch.edges:
                assert edge.source in node_ids

    def test_batch_endpoint_labels_cover_cross_batch_targets(self, figure1_store):
        for batch in figure1_store.batches(3, seed=1):
            for edge in batch.edges:
                assert edge.source in batch.endpoint_labels
                assert edge.target in batch.endpoint_labels

    def test_single_batch_is_whole_graph(self, figure1_store):
        (batch,) = figure1_store.batches(1)
        assert len(batch.nodes) == 7
        assert len(batch.edges) == 6
        assert batch.size == 13

    def test_invalid_batch_count(self, figure1_store):
        with pytest.raises(ValueError):
            list(figure1_store.batches(0))

    def test_batching_is_seed_deterministic(self, figure1_store):
        first = [
            [n.id for n in b.nodes] for b in figure1_store.batches(3, seed=5)
        ]
        second = [
            [n.id for n in b.nodes] for b in figure1_store.batches(3, seed=5)
        ]
        assert first == second


class TestShardPlans:
    def test_shards_reproduce_batches_exactly(self, figure1_store):
        batches = list(figure1_store.batches(3, seed=5))
        plans = figure1_store.plan_shards(3, seed=5)
        for batch, plan in zip(batches, plans):
            shard = figure1_store.materialize_shard(plan)
            assert [n.id for n in shard.nodes] == [n.id for n in batch.nodes]
            assert [e.id for e in shard.edges] == [e.id for e in batch.edges]
            assert shard.endpoint_labels == batch.endpoint_labels
            assert shard.index == batch.index

    def test_shards_materialize_in_any_order(self, figure1_store):
        plans = figure1_store.plan_shards(3, seed=5)
        reversed_nodes = [
            [n.id for n in figure1_store.materialize_shard(p).nodes]
            for p in reversed(plans)
        ]
        forward_nodes = [
            [n.id for n in figure1_store.materialize_shard(p).nodes]
            for p in plans
        ]
        assert reversed_nodes == forward_nodes[::-1]

    def test_plans_are_picklable_scalars(self, figure1_store):
        import pickle

        plans = figure1_store.plan_shards(2, seed=1)
        restored = pickle.loads(pickle.dumps(plans))
        assert restored == plans
        shard = figure1_store.materialize_shard(restored[1])
        assert shard.index == 1

    def test_out_of_range_index_rejected(self, figure1_store):
        from repro.graph.store import ShardPlan

        with pytest.raises(ValueError):
            figure1_store.materialize_shard(ShardPlan(3, 3))
        with pytest.raises(ValueError):
            figure1_store.columnize_shard(ShardPlan(-1, 3))

    def test_invalid_shard_count(self, figure1_store):
        with pytest.raises(ValueError):
            figure1_store.plan_shards(0)

    def test_partition_cache_reused(self, figure1_store):
        figure1_store.plan_shards(3, seed=5)
        cached = figure1_store._partition_cache
        figure1_store.materialize_shard(
            figure1_store.plan_shards(3, seed=5)[0]
        )
        assert figure1_store._partition_cache is cached
        # A different sharding replaces the (single-entry) cache.
        figure1_store.plan_shards(2, seed=5)
        assert figure1_store._partition_cache is not cached


def _fold_extremes(graph, edge_ids):
    """Degree extremes through the §4.4 fold: each edge folds into a
    ``TypeStats`` degree map, which ``apply_partial_stats`` reduces."""
    edge_type = EdgeType("R", stats=TypeStats())
    schema = SchemaGraph("g")
    schema.add_edge_type(edge_type)
    for edge_id in edge_ids:
        fold_edge(edge_type.stats, graph.edge(edge_id), frozenset())
    assert apply_partial_stats(schema)
    return edge_type.max_out, edge_type.max_in


class TestDegreeExtremes:
    def test_fan_out(self):
        b = GraphBuilder()
        hub = b.node(["Hub"])
        leaves = [b.node(["Leaf"]) for _ in range(4)]
        edge_ids = [b.edge(hub, leaf, ["HAS"]) for leaf in leaves]
        assert _fold_extremes(b.build(), edge_ids) == (4, 1)

    def test_fan_in(self):
        b = GraphBuilder()
        sink = b.node(["Sink"])
        sources = [b.node(["Src"]) for _ in range(3)]
        edge_ids = [b.edge(s, sink, ["TO"]) for s in sources]
        assert _fold_extremes(b.build(), edge_ids) == (1, 3)

    def test_empty_edge_set(self, figure1_graph):
        assert _fold_extremes(figure1_graph, []) == (0, 0)
