"""The shared partition against the object-at-a-time oracle.

Every store shards through :class:`repro.graph.store.BaseGraphStore`:
a numpy partition over row positions plus one endpoint-label walk.  On
both backends each shard must equal
:func:`tests.oracles.partition.batches_reference` -- the same members in
the same order, and ``endpoint_labels`` in the same first-seen order --
for any shard count (empty shards included), seed and ``shuffle``, and
on graphs with no edges, self-loops, negative or sparse ids, and edges
whose source sits in a later shard than their target.
"""

from __future__ import annotations

import mmap
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import columnize_batch
from repro.graph.diskstore import write_graph_to_slabs
from repro.graph.model import ID_MAX, ID_MIN, Edge, Node, PropertyGraph
from repro.graph.store import GraphStore
from tests.oracles.partition import batches_reference

LABELS = [frozenset(), frozenset({"A"}), frozenset({"B"}),
          frozenset({"A", "B"})]


def _shape(batch):
    return (
        batch.index,
        [node.id for node in batch.nodes],
        [edge.id for edge in batch.edges],
        list(batch.endpoint_labels.items()),
    )


def _assert_matches_oracle(store, num_shards, seed, shuffle):
    expected = batches_reference(store, num_shards, seed, shuffle)
    plans = store.plan_shards(num_shards, seed, shuffle)
    assert [plan.index for plan in plans] == list(range(num_shards))
    # Shards materialize in any order; compare in reverse.
    for plan in reversed(plans):
        got = store.materialize_shard(plan)
        want = expected[plan.index]
        assert _shape(got) == _shape(want)
        shard = store.columnize_shard(plan)
        reference = columnize_batch(
            want.nodes, want.edges, want.endpoint_labels
        )
        for got_cols, want_cols in (
            (shard.nodes, reference.nodes), (shard.edges, reference.edges),
        ):
            assert np.array_equal(got_cols.ids, want_cols.ids)
            assert np.array_equal(got_cols.label_ids, want_cols.label_ids)
            assert got_cols.labels.sets == want_cols.labels.sets
        assert np.array_equal(
            shard.edges.tgt_label_ids, reference.edges.tgt_label_ids
        )
        assert list(shard.node_properties) == list(reference.node_properties)
        assert list(shard.edge_properties) == list(reference.edge_properties)
    assert [_shape(b) for b in store.batches(num_shards, seed, shuffle)] == [
        _shape(b) for b in expected
    ]


@st.composite
def graphs(draw):
    """Small graphs with sparse, negative and extreme ids."""
    node_ids = draw(st.lists(
        st.one_of(
            st.integers(-50, 50), st.sampled_from([ID_MIN, ID_MAX]),
            st.integers(ID_MIN, ID_MAX),
        ),
        max_size=12, unique=True,
    ))
    graph = PropertyGraph("g")
    for node_id in node_ids:
        labels = draw(st.sampled_from(LABELS))
        graph.add_node(Node(node_id, labels, {"k": node_id % 7}))
    if node_ids:
        ends = st.sampled_from(node_ids)
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=20))
        edge_ids = draw(st.lists(
            st.integers(-10**6, 10**6), min_size=len(pairs),
            max_size=len(pairs), unique=True,
        ))
        for edge_id, (source, target) in zip(edge_ids, pairs):
            graph.add_edge(Edge(edge_id, source, target, frozenset({"R"})))
    return graph


@given(
    graph=graphs(),
    data=st.data(),
    seed=st.sampled_from([0, 1, 7, 12345]),
    shuffle=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_partition_matches_oracle_on_both_stores(graph, data, seed, shuffle):
    num_shards = data.draw(st.integers(1, graph.num_nodes + 3))
    _assert_matches_oracle(GraphStore(graph), num_shards, seed, shuffle)
    with tempfile.TemporaryDirectory() as directory:
        with write_graph_to_slabs(graph, Path(directory) / "s") as disk:
            _assert_matches_oracle(disk, num_shards, seed, shuffle)


def _fixed_graph():
    """Node 30 goes to shard 0, node -4 to shard 1 (no shuffle): the
    edges out of -4 have their source in a later shard than their
    target, and 7 -> 7 is a self-loop."""
    graph = PropertyGraph("fixed")
    for node_id, labels in [(30, {"A"}), (-4, {"B"}), (7, set())]:
        graph.add_node(Node(node_id, frozenset(labels), {}))
    graph.add_edge(Edge(1, -4, 30, frozenset({"R"})))
    graph.add_edge(Edge(2, 7, 7, frozenset({"S"})))
    graph.add_edge(Edge(3, -4, 7, frozenset({"R"})))
    graph.add_edge(Edge(4, 30, -4, frozenset({"R"})))
    return graph


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_fixed_cross_shard_edges(backend, tmp_path):
    graph = _fixed_graph()
    store = (
        GraphStore(graph) if backend == "memory"
        else write_graph_to_slabs(graph, tmp_path / "s")
    )
    batches = list(store.batches(3, shuffle=False))
    assert [_shape(b) for b in batches] == [
        (0, [30], [4], [(30, frozenset({"A"})), (-4, frozenset({"B"}))]),
        (1, [-4], [1, 3], [(-4, frozenset({"B"})), (30, frozenset({"A"})),
                           (7, frozenset())]),
        (2, [7], [2], [(7, frozenset())]),
    ]
    for shards in (1, 2, 3, 5, 8):
        for seed in (0, 3):
            for shuffle in (True, False):
                _assert_matches_oracle(store, shards, seed, shuffle)


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_empty_graph(backend, tmp_path):
    graph = PropertyGraph("empty")
    store = (
        GraphStore(graph) if backend == "memory"
        else write_graph_to_slabs(graph, tmp_path / "s")
    )
    _assert_matches_oracle(store, 3, 0, True)
    assert all(b.size == 0 for b in store.batches(3))


def test_replaced_partition_unmaps_its_spill(tmp_path):
    """The disk store's partition rows are views of its mapped spill
    file; replacing the cached partition releases that mapping."""
    store = write_graph_to_slabs(_fixed_graph(), tmp_path / "s")
    store.plan_shards(3, seed=5)
    view = store._partition_cache[1].nodes[0]
    while isinstance(view, np.ndarray):
        view = view.base
    spill = weakref.ref(view.obj)
    assert isinstance(spill(), mmap.mmap)
    del view
    store.plan_shards(2, seed=5)
    assert spill() is None
    assert (tmp_path / "s" / "scratch" / "partition-3-5-1.bin").is_file()
    store.close()
