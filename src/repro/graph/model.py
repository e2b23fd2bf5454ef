"""Core property graph data model (paper Definition 3.1).

A property graph is a tuple ``G = (V, E, rho, lambda, pi)`` where ``V`` and
``E`` are disjoint finite sets of nodes and edges, ``rho`` maps each edge to
an ordered pair of nodes, ``lambda`` assigns label sets to nodes and edges,
and ``pi`` assigns key-value properties to nodes and edges.

Nodes and edges are lightweight immutable records.  Label sets are stored as
``frozenset`` so that they can be used directly as dictionary keys (the
clustering and merging steps group elements by label set constantly).
Properties are plain ``dict`` objects mapping property keys to values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

#: The element id range: ids are signed 64-bit integers, the dtype of
#: every id column, so input parsers reject ids outside it.
ID_MIN = -(1 << 63)
ID_MAX = (1 << 63) - 1


def _normalize_labels(labels: Iterable[str] | None) -> frozenset[str]:
    """Return a canonical frozenset of labels, treating ``None`` as empty."""
    if labels is None:
        return frozenset()
    return frozenset(str(label) for label in labels)


def canonical_label(labels: Iterable[str]) -> str:
    """Canonical single-token name for a label set.

    The paper sorts multi-label sets alphabetically and concatenates them so
    that a multi-labeled element behaves like a single unique label (section
    4.1).  The empty set maps to the empty string, which downstream code
    interprets as "unlabeled".
    """
    return "&".join(sorted(labels))


@dataclass(frozen=True, slots=True)
class Node:
    """A property graph node: identity, label set, and properties.

    Attributes:
        id: Unique node identifier within its graph.
        labels: Possibly-empty frozenset of string labels.
        properties: Mapping of property key to value.  Values may be any
            JSON-serializable Python object; datatype inference interprets
            them later.
    """

    id: int
    labels: frozenset[str] = field(default_factory=frozenset)
    properties: Mapping[str, Any] = field(default_factory=dict)

    @property
    def property_keys(self) -> frozenset[str]:
        """The set of property keys present on this node."""
        return frozenset(self.properties)

    @property
    def is_labeled(self) -> bool:
        """True when the node carries at least one label."""
        return bool(self.labels)

    def label_token(self) -> str:
        """Canonical concatenated label token (empty string if unlabeled)."""
        return canonical_label(self.labels)

    def with_labels(self, labels: Iterable[str]) -> "Node":
        """Return a copy of this node with a replaced label set."""
        return Node(self.id, _normalize_labels(labels), dict(self.properties))

    def without_properties(self, keys: Iterable[str]) -> "Node":
        """Return a copy of this node with the given property keys removed."""
        drop = set(keys)
        kept = {k: v for k, v in self.properties.items() if k not in drop}
        return Node(self.id, self.labels, kept)


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed property graph edge with labels and properties.

    Attributes:
        id: Unique edge identifier within its graph.
        source: Source node id.
        target: Target node id.
        labels: Possibly-empty frozenset of string labels (edge type names).
        properties: Mapping of property key to value.
    """

    id: int
    source: int
    target: int
    labels: frozenset[str] = field(default_factory=frozenset)
    properties: Mapping[str, Any] = field(default_factory=dict)

    @property
    def property_keys(self) -> frozenset[str]:
        """The set of property keys present on this edge."""
        return frozenset(self.properties)

    @property
    def is_labeled(self) -> bool:
        """True when the edge carries at least one label."""
        return bool(self.labels)

    def label_token(self) -> str:
        """Canonical concatenated label token (empty string if unlabeled)."""
        return canonical_label(self.labels)

    def with_labels(self, labels: Iterable[str]) -> "Edge":
        """Return a copy of this edge with a replaced label set."""
        return Edge(
            self.id, self.source, self.target,
            _normalize_labels(labels), dict(self.properties),
        )

    def without_properties(self, keys: Iterable[str]) -> "Edge":
        """Return a copy of this edge with the given property keys removed."""
        drop = set(keys)
        kept = {k: v for k, v in self.properties.items() if k not in drop}
        return Edge(self.id, self.source, self.target, self.labels, kept)


class PropertyGraph:
    """An in-memory directed multigraph with labeled, attributed elements.

    Implements Definition 3.1.  Node and edge ids are caller-assigned
    integers; the graph enforces uniqueness and referential integrity (an
    edge may only reference existing nodes).
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._edges: dict[int, Edge] = {}
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Insert a node; raises ``ValueError`` on a duplicate id."""
        if node.id in self._nodes:
            raise ValueError(f"duplicate node id {node.id}")
        self._nodes[node.id] = node
        self._out.setdefault(node.id, [])
        self._in.setdefault(node.id, [])

    def add_edge(self, edge: Edge) -> None:
        """Insert an edge; both endpoints must already exist."""
        if edge.id in self._edges:
            raise ValueError(f"duplicate edge id {edge.id}")
        if edge.source not in self._nodes:
            raise ValueError(f"edge {edge.id}: unknown source {edge.source}")
        if edge.target not in self._nodes:
            raise ValueError(f"edge {edge.id}: unknown target {edge.target}")
        self._edges[edge.id] = edge
        self._out[edge.source].append(edge.id)
        self._in[edge.target].append(edge.id)

    def add_nodes(self, nodes: Iterable[Node]) -> list[tuple[int, str]]:
        """Bulk node insert: collects rejects instead of raising.

        The chunked ingest path of :mod:`repro.graph.io` hands whole
        chunks to the graph in one call -- one method dispatch and one
        locals-bound loop per chunk instead of a ``try``/``except``
        round-trip per record.  Returns ``(position, reason)`` pairs for
        records that violate integrity (same reasons as
        :meth:`add_node` raises); accepted records are inserted in
        order.
        """
        rejects: list[tuple[int, str]] = []
        nodes_map = self._nodes
        out_map = self._out
        in_map = self._in
        for position, node in enumerate(nodes):
            node_id = node.id
            if node_id in nodes_map:
                rejects.append((position, f"duplicate node id {node_id}"))
                continue
            nodes_map[node_id] = node
            out_map[node_id] = []
            in_map[node_id] = []
        return rejects

    def add_edges(self, edges: Iterable[Edge]) -> list[tuple[int, str]]:
        """Bulk edge insert: collects rejects instead of raising.

        Counterpart of :meth:`add_nodes` for edges; integrity checks
        (duplicate id, unknown endpoints) match :meth:`add_edge`.
        """
        rejects: list[tuple[int, str]] = []
        nodes_map = self._nodes
        edges_map = self._edges
        out_map = self._out
        in_map = self._in
        for position, edge in enumerate(edges):
            edge_id = edge.id
            if edge_id in edges_map:
                rejects.append((position, f"duplicate edge id {edge_id}"))
                continue
            if edge.source not in nodes_map:
                rejects.append(
                    (position, f"edge {edge_id}: unknown source {edge.source}")
                )
                continue
            if edge.target not in nodes_map:
                rejects.append(
                    (position, f"edge {edge_id}: unknown target {edge.target}")
                )
                continue
            edges_map[edge_id] = edge
            out_map[edge.source].append(edge_id)
            in_map[edge.target].append(edge_id)
        return rejects

    def remove_edge(self, edge_id: int) -> Edge:
        """Delete an edge; returns the removed record."""
        edge = self._edges.pop(edge_id)
        self._out[edge.source].remove(edge_id)
        self._in[edge.target].remove(edge_id)
        return edge

    def remove_node(self, node_id: int) -> Node:
        """Delete a node and every incident edge; returns the node."""
        node = self._nodes[node_id]
        for edge_id in list(self._out.get(node_id, ())):
            self.remove_edge(edge_id)
        for edge_id in list(self._in.get(node_id, ())):
            self.remove_edge(edge_id)
        del self._nodes[node_id]
        self._out.pop(node_id, None)
        self._in.pop(node_id, None)
        return node

    def replace_node(self, node: Node) -> None:
        """Replace an existing node in place (id must exist)."""
        if node.id not in self._nodes:
            raise KeyError(node.id)
        self._nodes[node.id] = node

    def replace_edge(self, edge: Edge) -> None:
        """Replace an existing edge in place (id and endpoints must match)."""
        old = self._edges.get(edge.id)
        if old is None:
            raise KeyError(edge.id)
        if (old.source, old.target) != (edge.source, edge.target):
            raise ValueError("replace_edge cannot change endpoints")
        self._edges[edge.id] = edge

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """Fetch one node by id (raises ``KeyError`` if absent)."""
        return self._nodes[node_id]

    def edge(self, edge_id: int) -> Edge:
        """Fetch one edge by id (raises ``KeyError`` if absent)."""
        return self._edges[edge_id]

    def has_node(self, node_id: int) -> bool:
        """True when the node id exists in this graph."""
        return node_id in self._nodes

    def has_edge(self, edge_id: int) -> bool:
        """True when the edge id exists in this graph."""
        return edge_id in self._edges

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes in insertion order."""
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in insertion order."""
        return iter(self._edges.values())

    def out_edges(self, node_id: int) -> list[Edge]:
        """Edges whose source is ``node_id``."""
        return [self._edges[eid] for eid in self._out.get(node_id, [])]

    def in_edges(self, node_id: int) -> list[Edge]:
        """Edges whose target is ``node_id``."""
        return [self._edges[eid] for eid in self._in.get(node_id, [])]

    def endpoints(self, edge_id: int) -> tuple[Node, Node]:
        """The (source, target) node pair of an edge -- the rho function."""
        edge = self._edges[edge_id]
        return self._nodes[edge.source], self._nodes[edge.target]

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of edges in the graph."""
        return len(self._edges)

    def node_property_keys(self) -> frozenset[str]:
        """Union of property keys over all nodes (the global set K_n)."""
        keys: set[str] = set()
        for node in self._nodes.values():
            keys.update(node.properties)
        return frozenset(keys)

    def edge_property_keys(self) -> frozenset[str]:
        """Union of property keys over all edges (the global set K_e)."""
        keys: set[str] = set()
        for edge in self._edges.values():
            keys.update(edge.properties)
        return frozenset(keys)

    def node_labels(self) -> frozenset[str]:
        """Union of individual labels over all nodes."""
        labels: set[str] = set()
        for node in self._nodes.values():
            labels.update(node.labels)
        return frozenset(labels)

    def edge_labels(self) -> frozenset[str]:
        """Union of individual labels over all edges."""
        labels: set[str] = set()
        for edge in self._edges.values():
            labels.update(edge.labels)
        return frozenset(labels)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def subgraph(self, node_ids: Iterable[int], name: str | None = None) -> "PropertyGraph":
        """Induced subgraph on the given node ids (edges with both ends kept)."""
        keep = set(node_ids)
        sub = PropertyGraph(name or f"{self.name}-sub")
        for nid in keep:
            if nid in self._nodes:
                sub.add_node(self._nodes[nid])
        for edge in self._edges.values():
            if edge.source in keep and edge.target in keep:
                sub.add_edge(edge)
        return sub

    def copy(self, name: str | None = None) -> "PropertyGraph":
        """Shallow structural copy of the graph."""
        dup = PropertyGraph(name or self.name)
        for node in self._nodes.values():
            dup.add_node(node)
        for edge in self._edges.values():
            dup.add_edge(edge)
        return dup

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PropertyGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
