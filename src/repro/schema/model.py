"""Schema graph model (paper Definitions 3.2-3.4).

A :class:`SchemaGraph` holds :class:`NodeType` and :class:`EdgeType`
records.  Types additionally carry the bookkeeping that post-processing and
incremental merging need: instance membership, per-property occurrence
counts (so MANDATORY/OPTIONAL stays exact across batch merges), and for edge
types the observed endpoint label sets and degree extremes.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    # These modules import this one; under ``from __future__ import
    # annotations`` the names below stay lazy strings at runtime, so the
    # cycle never materializes.
    from repro.core.cardinality_bounds import CardinalityBounds
    from repro.core.postprocess import TypeStats
    from repro.core.value_profiles import ValueProfile


class DataType(enum.Enum):
    """GQL-style property data types (section 3, extended set)."""

    INTEGER = "INT"
    FLOAT = "DOUBLE"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"
    STRING = "STRING"
    LIST = "LIST"
    UNKNOWN = "UNKNOWN"


class PropertyStatus(enum.Enum):
    """Completeness constraint on a property (section 4.4)."""

    MANDATORY = "MANDATORY"
    OPTIONAL = "OPTIONAL"


class Cardinality(enum.Enum):
    """Edge-type cardinality classes inferred from degree extremes.

    The paper maps (max_out, max_in) as: (1,1) -> 1:1, (>1,1) -> N:1,
    (1,>1) -> 1:N, (>1,>1) -> M:N.  (Lower bounds are not determined; see
    section 4.4.)
    """

    ONE_TO_ONE = "1:1"
    N_TO_ONE = "N:1"
    ONE_TO_N = "1:N"
    M_TO_N = "M:N"
    UNKNOWN = "?"

    @staticmethod
    def from_degrees(max_out: int, max_in: int) -> "Cardinality":
        """Classify a (max out-degree, max in-degree) pair."""
        if max_out <= 0 or max_in <= 0:
            return Cardinality.UNKNOWN
        if max_out == 1 and max_in == 1:
            return Cardinality.ONE_TO_ONE
        if max_out > 1 and max_in == 1:
            # A single source reaches many targets and every target has one
            # incoming edge: each *target* maps to one source, sources fan
            # out -- the paper writes this pair as N:1 seen from the target.
            return Cardinality.ONE_TO_N
        if max_out == 1 and max_in > 1:
            return Cardinality.N_TO_ONE
        return Cardinality.M_TO_N


@dataclass
class PropertySpec:
    """One property of a type: key, datatype, completeness constraint.

    ``profile`` optionally carries a refined value-domain description
    (enumeration members, numeric/temporal range bounds) produced by
    :mod:`repro.core.value_profiles`.
    """

    key: str
    datatype: DataType = DataType.UNKNOWN
    status: PropertyStatus = PropertyStatus.OPTIONAL
    profile: ValueProfile | None = None

    def render(self) -> str:
        """PG-Schema-style rendering, e.g. ``OPTIONAL age INT``."""
        prefix = "OPTIONAL " if self.status is PropertyStatus.OPTIONAL else ""
        text = f"{prefix}{self.key} {self.datatype.value}"
        if self.profile is not None:
            annotation = self.profile.render()
            if annotation:
                text += f" /* {annotation} */"
        return text


@dataclass
class NodeType:
    """A node type (Definition 3.2) plus discovery bookkeeping.

    Attributes:
        name: Unique type name within its schema ('&'-joined sorted labels,
            or ``ABSTRACT_n`` for unlabeled types).
        labels: Union of label sets observed in the type's instances.
        abstract: True when no instance carried a label (PG-Schema ABSTRACT).
        properties: Property key -> :class:`PropertySpec`.
        instance_count: Number of instances merged into this type.
        property_counts: Property key -> number of instances carrying it.
        members: Graph element ids assigned to this type (may be cleared by
            ``SchemaGraph.detach_members`` to save memory).
        cluster_tokens: Internal pseudo-labels identifying the LSH node
            clusters this type came from.  Used to resolve edge endpoints
            when real labels are missing; never serialized.
        stats: Mergeable partial post-processing statistics folded per
            batch when post-processing is on
            (:class:`~repro.core.postprocess.TypeStats`); merged with the
            types, read by :func:`~repro.core.postprocess.apply_partial_stats`
            and cleared at the end of a run.  ``None`` in finished schemas.
    """

    name: str
    labels: frozenset[str] = frozenset()
    abstract: bool = False
    properties: dict[str, PropertySpec] = field(default_factory=dict)
    instance_count: int = 0
    property_counts: Counter[str] = field(default_factory=Counter)
    members: list[int] = field(default_factory=list)
    cluster_tokens: set[str] = field(default_factory=set)
    stats: TypeStats | None = None

    @property
    def property_keys(self) -> frozenset[str]:
        """The set of property keys known for this type."""
        return frozenset(self.properties)

    def ensure_property(self, key: str) -> PropertySpec:
        """Get-or-create the spec for a property key."""
        spec = self.properties.get(key)
        if spec is None:
            spec = PropertySpec(key)
            self.properties[key] = spec
        return spec

    def property_frequency(self, key: str) -> float:
        """f_T(p): fraction of instances carrying property ``key``."""
        if self.instance_count == 0:
            return 0.0
        return self.property_counts.get(key, 0) / self.instance_count


@dataclass
class EdgeType:
    """An edge type (Definition 3.3) plus discovery bookkeeping.

    Attributes:
        name: Unique type name within its schema.
        labels: Union of label sets observed on the edges.
        abstract: True when no instance carried a label.
        properties: Property key -> :class:`PropertySpec`.
        source_labels / target_labels: Unions of endpoint label sets
            (the R component of edge patterns).
        source_types / target_types: Names of the node types this edge type
            connects (the rho_s function), filled by type extraction.
        cardinality: Inferred cardinality class.
        max_out / max_in: Observed degree extremes backing the cardinality.
        instance_count, property_counts, members: As for node types.
        source_tokens / target_tokens: Internal pseudo-labels of the node
            clusters seen at the endpoints when real labels were missing.
            Used for endpoint-compatibility checks; never serialized.
        stats: Mergeable partial post-processing statistics (property
            partials plus per-node degree count maps) attached by parallel
            shard workers; see :attr:`NodeType.stats`.
    """

    name: str
    labels: frozenset[str] = frozenset()
    abstract: bool = False
    properties: dict[str, PropertySpec] = field(default_factory=dict)
    source_labels: frozenset[str] = frozenset()
    target_labels: frozenset[str] = frozenset()
    source_types: set[str] = field(default_factory=set)
    target_types: set[str] = field(default_factory=set)
    cardinality: Cardinality = Cardinality.UNKNOWN
    bounds: CardinalityBounds | None = None
    max_out: int = 0
    max_in: int = 0
    instance_count: int = 0
    property_counts: Counter[str] = field(default_factory=Counter)
    members: list[int] = field(default_factory=list)
    source_tokens: set[str] = field(default_factory=set)
    target_tokens: set[str] = field(default_factory=set)
    stats: TypeStats | None = None

    @property
    def property_keys(self) -> frozenset[str]:
        """The set of property keys known for this type."""
        return frozenset(self.properties)

    def ensure_property(self, key: str) -> PropertySpec:
        """Get-or-create the spec for a property key."""
        spec = self.properties.get(key)
        if spec is None:
            spec = PropertySpec(key)
            self.properties[key] = spec
        return spec

    def property_frequency(self, key: str) -> float:
        """f_T(p): fraction of instances carrying property ``key``."""
        if self.instance_count == 0:
            return 0.0
        return self.property_counts.get(key, 0) / self.instance_count


class SchemaGraph:
    """The inferred schema: node types, edge types, and their connectivity.

    Type names are unique keys.  ``rho_s`` is represented by each edge
    type's ``source_types``/``target_types`` sets (an edge type may connect
    several node types after merging, which the serializers expand).
    """

    def __init__(self, name: str = "schema") -> None:
        self.name = name
        self._node_types: dict[str, NodeType] = {}
        self._edge_types: dict[str, EdgeType] = {}
        self._abstract_counter = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node_type(self, node_type: NodeType) -> None:
        """Insert a node type; raises on duplicate names."""
        if node_type.name in self._node_types:
            raise ValueError(f"duplicate node type {node_type.name!r}")
        self._node_types[node_type.name] = node_type

    def add_edge_type(self, edge_type: EdgeType) -> None:
        """Insert an edge type; raises on duplicate names."""
        if edge_type.name in self._edge_types:
            raise ValueError(f"duplicate edge type {edge_type.name!r}")
        self._edge_types[edge_type.name] = edge_type

    def remove_node_type(self, name: str) -> NodeType:
        """Remove and return a node type."""
        return self._node_types.pop(name)

    def remove_edge_type(self, name: str) -> EdgeType:
        """Remove and return an edge type."""
        return self._edge_types.pop(name)

    def next_abstract_name(self, kind: str = "NODE") -> str:
        """Fresh name for an ABSTRACT (unlabeled) type."""
        self._abstract_counter += 1
        return f"ABSTRACT_{kind}_{self._abstract_counter}"

    def detach_members(self) -> None:
        """Drop instance membership lists (frees memory after evaluation)."""
        for node_type in self._node_types.values():
            node_type.members = []
        for edge_type in self._edge_types.values():
            edge_type.members = []

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def node_types(self) -> dict[str, NodeType]:
        """Name -> node type mapping (live view)."""
        return self._node_types

    @property
    def edge_types(self) -> dict[str, EdgeType]:
        """Name -> edge type mapping (live view)."""
        return self._edge_types

    def node_type_for_labels(self, labels: Iterable[str]) -> NodeType | None:
        """Find the node type whose label set equals the given labels."""
        target = frozenset(labels)
        for node_type in self._node_types.values():
            if node_type.labels == target:
                return node_type
        return None

    def edge_types_for_labels(self, labels: Iterable[str]) -> list[EdgeType]:
        """All edge types whose label set equals the given labels.

        Several edge types may share a label set when they connect different
        endpoint types (e.g. LDBC's LIKES over posts and comments).
        """
        target = frozenset(labels)
        return [
            edge_type
            for edge_type in self._edge_types.values()
            if edge_type.labels == target
        ]

    @property
    def num_types(self) -> int:
        """Total number of node plus edge types."""
        return len(self._node_types) + len(self._edge_types)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SchemaGraph(name={self.name!r}, "
            f"node_types={len(self._node_types)}, "
            f"edge_types={len(self._edge_types)})"
        )
