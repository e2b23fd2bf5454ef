"""Property graph schema model and tooling.

Implements the PG-Schema-style target model of the paper (Definitions
3.2-3.4): node types, edge types with endpoint pairs and cardinalities,
property specifications with datatypes and MANDATORY/OPTIONAL constraints,
and the schema graph that assembles them.  Also provides the monotone merge
rules of section 4.6, PG-Schema and XSD serializers, a conformance validator
(STRICT and LOOSE modes), and a structural schema diff.
"""

from repro.schema.model import (
    Cardinality,
    DataType,
    EdgeType,
    NodeType,
    PropertySpec,
    PropertyStatus,
    SchemaGraph,
)
from repro.schema.merge import merge_edge_types, merge_node_types, merge_schemas
from repro.schema.serialize_pgschema import serialize_pg_schema
from repro.schema.serialize_xsd import serialize_xsd
from repro.schema.serialize_cypher import serialize_cypher
from repro.schema.serialize_graphql import serialize_graphql
from repro.schema.validate import (
    ValidationMode,
    ValidationReport,
    Violation,
    validate_batch,
    validate_columns,
    validate_graph,
)
from repro.schema.diff import SchemaDiff, diff_schemas
from repro.schema.align import (
    AliasCandidate,
    apply_alignment,
    propose_alignments,
)
from repro.schema.hierarchy import (
    SubtypeRelation,
    infer_hierarchy,
    render_hierarchy,
)
from repro.schema.persist import load_schema, save_schema
from repro.schema.evolution import (
    SchemaEvolutionTracker,
    refresh_schema,
)
from repro.schema.report import render_schema_report, summarize_schema
from repro.schema.patterns_report import (
    pattern_breakdown,
    render_pattern_breakdown,
)

__all__ = [
    "AliasCandidate",
    "Cardinality",
    "DataType",
    "EdgeType",
    "NodeType",
    "PropertySpec",
    "PropertyStatus",
    "SchemaDiff",
    "SchemaEvolutionTracker",
    "SchemaGraph",
    "SubtypeRelation",
    "ValidationMode",
    "ValidationReport",
    "Violation",
    "apply_alignment",
    "diff_schemas",
    "merge_edge_types",
    "merge_node_types",
    "merge_schemas",
    "infer_hierarchy",
    "load_schema",
    "propose_alignments",
    "refresh_schema",
    "render_hierarchy",
    "pattern_breakdown",
    "render_pattern_breakdown",
    "render_schema_report",
    "save_schema",
    "serialize_cypher",
    "serialize_graphql",
    "serialize_pg_schema",
    "serialize_xsd",
    "summarize_schema",
    "validate_batch",
    "validate_columns",
    "validate_graph",
]
