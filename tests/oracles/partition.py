"""Object-at-a-time partition oracle for the shared shard contract.

:class:`repro.graph.store.BaseGraphStore` partitions *row positions*
with numpy (:func:`repro.graph.store.partition_rows`) and walks each
shard's endpoint labels once, for every backend.  The loop it replaced
lives here: shuffle the insertion-ordered node *ids*, deal them
round-robin, put each edge in its source node's shard in scan order,
and record each endpoint's label set at its first sighting, walking the
shard's edges in order, source before target.
"""

from __future__ import annotations

import random
from collections import defaultdict

from repro.graph.model import Edge, Node
from repro.graph.store import BaseGraphStore, GraphBatch


def batches_reference(
    store: BaseGraphStore,
    num_shards: int,
    seed: int = 0,
    shuffle: bool = True,
) -> list[GraphBatch]:
    """Every batch of ``store.batches(num_shards, seed, shuffle)``."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    node_by_id = {node.id: node for node in store.scan_nodes()}
    node_ids = list(node_by_id)
    if shuffle:
        random.Random(seed).shuffle(node_ids)
    assignment = {
        node_id: position % num_shards
        for position, node_id in enumerate(node_ids)
    }
    edges_by_shard: dict[int, list[Edge]] = defaultdict(list)
    for edge in store.scan_edges():
        edges_by_shard[assignment[edge.source]].append(edge)
    nodes_by_shard: list[list[Node]] = [[] for _ in range(num_shards)]
    for node_id in node_ids:
        nodes_by_shard[assignment[node_id]].append(node_by_id[node_id])
    batches = []
    for index in range(num_shards):
        edges = edges_by_shard.get(index, [])
        endpoint_labels: dict[int, frozenset[str]] = {}
        for edge in edges:
            for node_id in (edge.source, edge.target):
                if node_id not in endpoint_labels:
                    endpoint_labels[node_id] = node_by_id[node_id].labels
        batches.append(
            GraphBatch(index, nodes_by_shard[index], edges, endpoint_labels)
        )
    return batches
