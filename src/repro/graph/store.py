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
from dataclasses import dataclass
from itertools import chain, count
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from repro.graph.model import Edge, Node, PropertyGraph

if TYPE_CHECKING:
    from repro.core.columns import ShardColumns


@dataclass(frozen=True)
class ShardPlan:
    """Self-contained recipe for one shard of a node-partitioned scan.

    A plan is tiny (four scalars) and picklable, so a pool of workers can
    each receive a plan and call :meth:`BaseGraphStore.materialize_shard`
    independently -- against a fork-inherited store or any store holding
    the same graph -- and obtain exactly the batch that
    :meth:`BaseGraphStore.batches` would have yielded at ``index``.
    """

    index: int
    num_shards: int
    seed: int = 0
    shuffle: bool = True


class ShardRows(NamedTuple):
    """One partition: each shard's node rows and edge rows, in order."""

    nodes: list[np.ndarray]
    edges: list[np.ndarray]


def partition_rows(
    num_nodes: int,
    source_rows: np.ndarray,
    num_shards: int,
    seed: int,
    shuffle: bool,
) -> ShardRows:
    """Each shard's node rows and edge rows, in shard member order.

    Row ``r`` is the ``r``-th element a scan yields.  The node rows are
    shuffled with ``random.Random(seed).shuffle`` (whose permutation
    depends only on the list length, so shuffling positions gives the
    plan that shuffling ids would) and dealt round-robin; every edge
    joins its source node's shard, in scan order (a stable argsort over
    ``source_rows``, the node row of each edge's source).
    """
    positions = list(range(num_nodes))
    if shuffle:
        random.Random(seed).shuffle(positions)
    order = np.asarray(positions, dtype=np.int64)
    shard_of_row = np.empty(num_nodes, dtype=np.int64)
    shard_of_row[order] = np.arange(num_nodes, dtype=np.int64) % num_shards
    edge_shards = shard_of_row[np.asarray(source_rows, dtype=np.int64)]
    edge_order = np.argsort(edge_shards, kind="stable")
    bounds = np.searchsorted(
        edge_shards[edge_order], np.arange(num_shards + 1)
    ).tolist()
    return ShardRows(
        [order[shard::num_shards] for shard in range(num_shards)],
        [
            edge_order[bounds[shard] : bounds[shard + 1]]
            for shard in range(num_shards)
        ],
    )


class BaseGraphStore(ABC):
    """The store contract every discovery mode runs against.

    Two backends implement it: :class:`GraphStore` (the historical
    in-memory facade over a :class:`PropertyGraph`) and
    :class:`repro.graph.diskstore.DiskGraphStore` (memory-mapped column
    slabs for graphs bigger than RAM).  The algorithmic layers --
    vectorization, clustering, the parallel driver, post-processing --
    depend only on this interface, and the contract is *byte-identity*:
    for the same logical graph every backend partitions, shuffles and
    materializes exactly the same elements in exactly the same order,
    so discovery output never depends on where the bytes live.

    A backend supplies scans, counts, point lookups, its journal
    fingerprint and *row access* (``_source_rows``, ``_nodes_at``,
    ``_edges_at``, ``_node_labels_of``).  The base owns everything
    about sharding: :meth:`plan_shards`, the one cached partition
    (:func:`partition_rows`, over row positions),
    :meth:`materialize_shard` with its endpoint-label walk, and the map
    step's :meth:`columnize_shard`.
    """

    _partition_cache: tuple[tuple[int, int, bool], ShardRows] | None = None

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

    def journal_fingerprint(self) -> dict[str, str] | None:
        """Content marker for the run journal's context.

        Something that changes whenever the stored graph does, so a
        resumed run can refuse a journal written against different
        data; ``None`` when the backend cannot tell.
        """
        return None

    # ------------------------------------------------------------------
    # Row access (rows are scan positions)
    # ------------------------------------------------------------------
    @abstractmethod
    def _source_rows(self) -> np.ndarray:
        """The node row of every edge's source, in edge row order.

        Called whenever a partition is built, so a backend may take the
        row snapshot its shards will read here.
        """

    @abstractmethod
    def _nodes_at(self, rows: np.ndarray) -> list[Node]:
        """The nodes at ``rows``, in that order."""

    @abstractmethod
    def _edges_at(self, rows: np.ndarray) -> list[Edge]:
        """The edges at ``rows``, in that order."""

    @abstractmethod
    def _node_labels_of(self, node_ids: Sequence[int]) -> list[frozenset[str]]:
        """The label set of each node id, in that order."""

    def _keep_partition(
        self, key: tuple[int, int, bool], partition: ShardRows
    ) -> ShardRows:
        """Where the partition of ``key`` lives (in RAM unless overridden)."""
        return partition

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
        self._partition(num_shards, seed, shuffle)
        return [
            ShardPlan(index, num_shards, seed, shuffle)
            for index in range(num_shards)
        ]

    def materialize_shard(self, plan: ShardPlan) -> "GraphBatch":
        """Build the single batch described by ``plan``.

        ``endpoint_labels`` walks the batch's edges in order, source
        before target, and keeps each endpoint's label set at its first
        sighting.
        """
        partition = self._shard_partition(plan)
        nodes = self._nodes_at(partition.nodes[plan.index])
        edges = self._edges_at(partition.edges[plan.index])
        endpoint_ids = list(dict.fromkeys(
            chain.from_iterable(map(attrgetter("source", "target"), edges))
        ))
        endpoint_labels = dict(
            zip(endpoint_ids, self._node_labels_of(endpoint_ids))
        )
        return GraphBatch(plan.index, nodes, edges, endpoint_labels)

    def columnize_shard(
        self, plan: ShardPlan, properties: bool = True
    ) -> "ShardColumns":
        """The map step's view of one shard: columns and property columns.

        Equal to columnizing :meth:`materialize_shard`'s batch, with the
        elements' own property dicts as the property columns.  With
        ``properties=False`` a backend may leave them out (``None``).
        """
        from repro.core.columns import columnize_batch

        batch = self.materialize_shard(plan)
        return columnize_batch(batch.nodes, batch.edges, batch.endpoint_labels)

    def _shard_partition(self, plan: ShardPlan) -> ShardRows:
        """The partition behind ``plan``, after checking its index."""
        if not 0 <= plan.index < plan.num_shards:
            raise ValueError(
                f"shard index {plan.index} out of range for "
                f"{plan.num_shards} shards"
            )
        return self._partition(plan.num_shards, plan.seed, plan.shuffle)

    def _partition(
        self, num_shards: int, seed: int, shuffle: bool
    ) -> ShardRows:
        """Assign node and edge rows to shards (cached for the last plan)."""
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        key = (num_shards, seed, shuffle)
        cached = self._partition_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        source_rows = self._source_rows()
        partition = self._keep_partition(key, partition_rows(
            self.count_nodes(), source_rows, num_shards, seed, shuffle
        ))
        self._partition_cache = (key, partition)
        return partition


class GraphStore(BaseGraphStore):
    """Query facade over a :class:`PropertyGraph`.

    The algorithmic layers (vectorization, clustering, post-processing)
    depend only on the :class:`BaseGraphStore` contract, never on the
    concrete graph, so a real database driver could be swapped in by
    implementing the same methods.
    """

    def __init__(self, graph: PropertyGraph) -> None:
        self._graph = graph
        self._node_list: list[Node] = []
        self._edge_list: list[Edge] = []

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
    # Row access: a snapshot of the graph's insertion order
    # ------------------------------------------------------------------
    def _source_rows(self) -> np.ndarray:
        self._node_list = list(self._graph.nodes())
        self._edge_list = list(self._graph.edges())
        row_of = dict(zip(map(attrgetter("id"), self._node_list), count()))
        return np.fromiter(
            map(row_of.__getitem__, map(attrgetter("source"), self._edge_list)),
            dtype=np.int64, count=len(self._edge_list),
        )

    def _nodes_at(self, rows: np.ndarray) -> list[Node]:
        return list(map(self._node_list.__getitem__, rows.tolist()))

    def _edges_at(self, rows: np.ndarray) -> list[Edge]:
        return list(map(self._edge_list.__getitem__, rows.tolist()))

    def _node_labels_of(self, node_ids: Sequence[int]) -> list[frozenset[str]]:
        node = self._graph.node
        return [node(node_id).labels for node_id in node_ids]

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
