"""In-memory graph store standing in for the Neo4j backend.

The original PG-HIVE loads nodes and edges from Neo4j "using a single query
to ensure similar structure" and streams the data in batches for the
incremental mode.  :class:`GraphStore` reproduces exactly that contract:

* ``scan_nodes()`` / ``scan_edges()`` stream every element,
* ``batches(batch_size)`` yields subgraph streams for incremental runs,
* ``node(id)`` / ``edge(id)`` point lookups let the sampled datatype
  inference and the exact cardinality bounds of section 4.4 read a
  type's members back.

All randomness is seeded so experiments are reproducible.
"""

from __future__ import annotations

import hashlib
import random
from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.graph.model import Edge, Node, PropertyGraph


@dataclass(frozen=True)
class ShardPlan:
    """Self-contained recipe for one shard of a node-partitioned scan.

    A plan is tiny (four scalars) and picklable, so a pool of workers can
    each receive a plan and call :meth:`GraphStore.materialize_shard`
    independently -- against a fork-inherited store or any store wrapping
    the same graph -- and obtain exactly the batch that
    :meth:`GraphStore.batches` would have yielded at ``index``.
    """

    index: int
    num_shards: int
    seed: int = 0
    shuffle: bool = True


class _Partition:
    """Materialized node/edge partition shared by all shards of one plan."""

    __slots__ = ("nodes_by_shard", "edges_by_shard", "labels_by_id")

    def __init__(
        self,
        nodes_by_shard: list[list[Node]],
        edges_by_shard: dict[int, list[Edge]],
        labels_by_id: dict[int, frozenset[str]],
    ) -> None:
        self.nodes_by_shard = nodes_by_shard
        self.edges_by_shard = edges_by_shard
        self.labels_by_id = labels_by_id


class BaseGraphStore(ABC):
    """The store contract every discovery mode runs against.

    Two backends implement it: :class:`GraphStore` (the historical
    in-memory facade over a :class:`PropertyGraph`) and
    :class:`repro.graph.diskstore.DiskGraphStore` (memory-mapped column
    slabs for graphs bigger than RAM).  The algorithmic layers --
    vectorization, clustering, the parallel driver, post-processing --
    depend only on this interface, and the contract is *byte-identity*:
    for the same logical graph both backends must partition, shuffle
    and materialize exactly the same elements in exactly the same
    order, so discovery output never depends on where the bytes live.

    Everything deterministic about sharding lives here: the partition
    semantics (insertion-ordered ids, ``random.Random(seed).shuffle``,
    round-robin assignment, edges following their source node) are part
    of the interface, not an implementation detail.
    """

    # ------------------------------------------------------------------
    # Identity and scans
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def name(self) -> str:
        """Name of the stored graph."""

    @abstractmethod
    def scan_nodes(self) -> Iterator[Node]:
        """Stream all nodes in insertion order."""

    @abstractmethod
    def scan_edges(self) -> Iterator[Edge]:
        """Stream all edges in insertion order."""

    @abstractmethod
    def count_nodes(self) -> int:
        """Total number of nodes."""

    @abstractmethod
    def count_edges(self) -> int:
        """Total number of edges."""

    @abstractmethod
    def node(self, node_id: int) -> Node:
        """Point lookup of a node (``KeyError`` when absent)."""

    @abstractmethod
    def edge(self, edge_id: int) -> Edge:
        """Point lookup of an edge (``KeyError`` when absent)."""

    def endpoints(self, edge: Edge) -> tuple[Node, Node]:
        """Source and target node of an edge."""
        return self.node(edge.source), self.node(edge.target)

    # ------------------------------------------------------------------
    # Sharded scans
    # ------------------------------------------------------------------
    def batches(
        self,
        num_batches: int,
        seed: int = 0,
        shuffle: bool = True,
    ) -> Iterator["GraphBatch"]:
        """Split the graph into ``num_batches`` node-partitioned batches.

        Mirrors the paper's evaluation setup ("we randomly separate the
        graph into 10 batches").  Nodes are partitioned; an edge is
        assigned to the batch of its source node, and the batch record
        carries the endpoint label information an edge needs for
        vectorization even when the other endpoint lives in an earlier
        or later batch.
        """
        for plan in self.plan_shards(num_batches, seed, shuffle):
            yield self.materialize_shard(plan)

    @abstractmethod
    def plan_shards(
        self,
        num_shards: int,
        seed: int = 0,
        shuffle: bool = True,
    ) -> list[ShardPlan]:
        """Plans for materializing each batch of a sharded scan on demand."""

    @abstractmethod
    def materialize_shard(self, plan: ShardPlan) -> "GraphBatch":
        """Build the single batch described by ``plan``."""

    def journal_fingerprint(self) -> dict[str, str] | None:
        """Content marker for the run journal's context.

        Something that changes whenever the stored graph does, so a
        resumed run can refuse a journal written against different
        data; ``None`` when the backend cannot tell.
        """
        return None


class GraphStore(BaseGraphStore):
    """Query facade over a :class:`PropertyGraph`.

    The algorithmic layers (vectorization, clustering, post-processing)
    depend only on the :class:`BaseGraphStore` contract, never on the
    concrete graph, so a real database driver could be swapped in by
    implementing the same methods.
    """

    def __init__(self, graph: PropertyGraph) -> None:
        self._graph = graph
        self._partition_cache: tuple[
            tuple[int, int, bool], _Partition
        ] | None = None

    @property
    def graph(self) -> PropertyGraph:
        """The wrapped graph."""
        return self._graph

    @property
    def name(self) -> str:
        """Name of the wrapped graph."""
        return self._graph.name

    # ------------------------------------------------------------------
    # Streaming scans (the "single query" of section 4.1)
    # ------------------------------------------------------------------
    def scan_nodes(self) -> Iterator[Node]:
        """Stream all nodes."""
        return self._graph.nodes()

    def scan_edges(self) -> Iterator[Edge]:
        """Stream all edges."""
        return self._graph.edges()

    def count_nodes(self) -> int:
        """Total number of nodes."""
        return self._graph.num_nodes

    def count_edges(self) -> int:
        """Total number of edges."""
        return self._graph.num_edges

    def node(self, node_id: int) -> Node:
        """Point lookup of a node."""
        return self._graph.node(node_id)

    def edge(self, edge_id: int) -> Edge:
        """Point lookup of an edge."""
        return self._graph.edge(edge_id)

    def endpoints(self, edge: Edge) -> tuple[Node, Node]:
        """Source and target node of an edge."""
        return self._graph.endpoints(edge.id)

    # ------------------------------------------------------------------
    # Batch streaming for the incremental mode (section 4.6)
    # ------------------------------------------------------------------
    def plan_shards(
        self,
        num_shards: int,
        seed: int = 0,
        shuffle: bool = True,
    ) -> list[ShardPlan]:
        """Plans for materializing each batch of a sharded scan on demand.

        ``materialize_shard(plan_shards(n)[k])`` is exactly the ``k``-th
        batch of ``batches(n)``; shards can therefore be built in any
        order, concurrently, and in separate processes.  Calling this in
        the parent also warms the partition cache, so forked workers
        inherit the assignment instead of recomputing it.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._partition(num_shards, seed, shuffle)
        return [
            ShardPlan(index, num_shards, seed, shuffle)
            for index in range(num_shards)
        ]

    def materialize_shard(self, plan: ShardPlan) -> "GraphBatch":
        """Build the single batch described by ``plan``."""
        if not 0 <= plan.index < plan.num_shards:
            raise ValueError(
                f"shard index {plan.index} out of range for "
                f"{plan.num_shards} shards"
            )
        partition = self._partition(plan.num_shards, plan.seed, plan.shuffle)
        return self._make_batch(partition, plan.index)

    def journal_fingerprint(self) -> dict[str, str] | None:
        """Element counts plus a digest over every element in id order.

        Labels, endpoints and properties all enter the digest, so an
        edited input never resumes a journal of the old one.  It costs a
        pass over the graph, so the driver asks only when it journals.
        """
        digest = hashlib.blake2b(digest_size=16)
        nodes = sorted(self._graph.nodes(), key=lambda n: n.id)
        edges = sorted(self._graph.edges(), key=lambda e: e.id)
        for element in [*nodes, *edges]:
            ends = (
                (element.source, element.target)
                if isinstance(element, Edge) else ()
            )
            digest.update(repr((
                element.id, ends, sorted(element.labels),
                sorted(element.properties.items()),
            )).encode("utf-8"))
        return {
            "nodes": str(self.count_nodes()),
            "edges": str(self.count_edges()),
            "digest": digest.hexdigest(),
        }

    def _partition(
        self, num_shards: int, seed: int, shuffle: bool
    ) -> _Partition:
        """Assign nodes and edges to shards (cached for the last plan)."""
        if num_shards < 1:
            raise ValueError("num_batches must be >= 1")
        key = (num_shards, seed, shuffle)
        cached = self._partition_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        node_ids = [node.id for node in self._graph.nodes()]
        if shuffle:
            random.Random(seed).shuffle(node_ids)
        assignment: dict[int, int] = {}
        for index, node_id in enumerate(node_ids):
            assignment[node_id] = index % num_shards
        edges_by_shard: dict[int, list[Edge]] = defaultdict(list)
        for edge in self._graph.edges():
            edges_by_shard[assignment[edge.source]].append(edge)
        nodes_by_shard: list[list[Node]] = [[] for _ in range(num_shards)]
        labels_by_id: dict[int, frozenset[str]] = {}
        for nid in node_ids:
            node = self._graph.node(nid)
            nodes_by_shard[assignment[nid]].append(node)
            labels_by_id[nid] = node.labels
        partition = _Partition(nodes_by_shard, dict(edges_by_shard),
                               labels_by_id)
        self._partition_cache = (key, partition)
        return partition

    def _make_batch(
        self, partition: _Partition, batch_index: int
    ) -> "GraphBatch":
        edges = partition.edges_by_shard.get(batch_index, [])
        # Endpoints are looked up once per distinct node id (an edge
        # list mentions the same hub nodes over and over).
        labels_by_id = partition.labels_by_id
        endpoint_labels: dict[int, frozenset[str]] = {}
        for edge in edges:
            for nid in (edge.source, edge.target):
                if nid not in endpoint_labels:
                    endpoint_labels[nid] = labels_by_id[nid]
        return GraphBatch(
            batch_index, partition.nodes_by_shard[batch_index], edges,
            endpoint_labels,
        )


class GraphBatch:
    """One increment of streamed data: nodes, edges, and endpoint labels.

    ``endpoint_labels`` maps the node ids referenced by this batch's edges to
    their label sets, because edge vectorization (section 4.1) embeds the
    source and target labels and an endpoint may not belong to this batch.
    """

    def __init__(
        self,
        index: int,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> None:
        self.index = index
        self.nodes = list(nodes)
        self.edges = list(edges)
        self.endpoint_labels = dict(endpoint_labels)

    @property
    def size(self) -> int:
        """Total number of elements (nodes plus edges) in the batch."""
        return len(self.nodes) + len(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GraphBatch(index={self.index}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)})"
        )
