"""Dynamic graph streams: evolving data for the incremental engine.

The paper motivates incrementality with "dynamic environments where
updates are frequent".  :class:`GraphStream` simulates such an
environment on top of a dataset spec: it emits batches of *new* nodes and
edges over time, where

* edges may attach to nodes from earlier batches (the stream remembers
  the growing population), and
* type *drift* can be scheduled: selected node/edge types only start
  appearing after a given batch index, so the schema genuinely evolves
  mid-stream instead of being fully determined by batch one.

Each emitted batch is a :class:`~repro.graph.store.GraphBatch`-compatible
record (nodes, edges, endpoint labels), and the stream accumulates the
full graph plus ground truth so results remain scorable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.datasets.spec import DatasetSpec, EdgeTypeSpec, NodeTypeSpec
from repro.datasets.synthetic import (
    GroundTruth,
    _make_properties,
    _pick_variant,
)
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.store import GraphBatch


@dataclass
class StreamBatchPlan:
    """Sizing of each emitted batch."""

    nodes_per_batch: int = 100
    edges_per_batch: int = 200


class GraphStream:
    """Emits batches of an evolving property graph.

    Args:
        spec: The dataset spec to draw types from.
        num_batches: How many batches to emit.
        plan: Per-batch sizing.
        drift: Mapping of type name (node or edge) -> first batch index at
            which the type may appear.  Unlisted types appear from batch 0.
        seed: RNG seed.
    """

    def __init__(
        self,
        spec: DatasetSpec,
        num_batches: int = 10,
        plan: StreamBatchPlan | None = None,
        drift: dict[str, int] | None = None,
        seed: int = 0,
    ) -> None:
        if num_batches < 1:
            raise ValueError("num_batches must be >= 1")
        self.spec = spec
        self.num_batches = num_batches
        self.plan = plan or StreamBatchPlan()
        self.drift = dict(drift or {})
        self._seed = seed
        self._rng = random.Random(seed)
        self.graph = PropertyGraph(f"{spec.name}-stream")
        self.truth = GroundTruth()
        self._nodes_by_type: dict[str, list[int]] = {
            t.name: [] for t in spec.node_types
        }
        self._next_node_id = 0
        self._next_edge_id = 0

    @property
    def seed(self) -> int:
        """The stream's RNG seed (identifies the generated sequence)."""
        return self._seed

    def __iter__(self) -> Iterator[GraphBatch]:
        return self.batches()

    def batches(self) -> Iterator[GraphBatch]:
        """Generate the stream."""
        for index in range(self.num_batches):
            yield self._make_batch(index)

    # ------------------------------------------------------------------
    def _active_node_types(self, batch_index: int) -> list[NodeTypeSpec]:
        return [
            t for t in self.spec.node_types
            if self.drift.get(t.name, 0) <= batch_index
        ]

    def _active_edge_types(self, batch_index: int) -> list[EdgeTypeSpec]:
        return [
            t for t in self.spec.edge_types
            if self.drift.get(t.name, 0) <= batch_index
            and self._nodes_by_type[t.source]
            and self._nodes_by_type[t.target]
        ]

    def _make_batch(self, index: int) -> GraphBatch:
        rng = self._rng
        node_types = self._active_node_types(index)
        new_nodes: list[Node] = []
        weights = [t.weight for t in node_types]
        for _ in range(self.plan.nodes_per_batch):
            type_spec = rng.choices(node_types, weights=weights, k=1)[0]
            node = Node(
                id=self._next_node_id,
                labels=frozenset(_pick_variant(type_spec, rng)),
                properties=_make_properties(type_spec.properties, rng),
            )
            self._next_node_id += 1
            self.graph.add_node(node)
            self.truth.node_types[node.id] = type_spec.name
            self._nodes_by_type[type_spec.name].append(node.id)
            new_nodes.append(node)
        edge_types = self._active_edge_types(index)
        new_edges: list[Edge] = []
        if edge_types:
            edge_weights = [t.weight for t in edge_types]
            for _ in range(self.plan.edges_per_batch):
                edge_spec = rng.choices(edge_types, weights=edge_weights, k=1)[0]
                # Endpoints drawn from the whole population so far: edges
                # routinely cross batch boundaries, as in real streams.
                source = rng.choice(self._nodes_by_type[edge_spec.source])
                target = rng.choice(self._nodes_by_type[edge_spec.target])
                edge = Edge(
                    id=self._next_edge_id,
                    source=source,
                    target=target,
                    labels=frozenset(edge_spec.labels),
                    properties=_make_properties(edge_spec.properties, rng),
                )
                self._next_edge_id += 1
                self.graph.add_edge(edge)
                self.truth.edge_types[edge.id] = edge_spec.name
                new_edges.append(edge)
        endpoint_labels = {
            node_id: self.graph.node(node_id).labels
            for edge in new_edges
            for node_id in (edge.source, edge.target)
        }
        return GraphBatch(index, new_nodes, new_edges, endpoint_labels)
