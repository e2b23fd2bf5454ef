"""Property graph substrate.

This subpackage implements the property graph data model of the paper
(Definition 3.1): a directed multigraph whose nodes and edges carry label
sets and key-value properties.  It replaces the Neo4j storage layer used by
the original PG-HIVE implementation with two interchangeable backends
behind the :class:`BaseGraphStore` contract -- the in-memory
:class:`GraphStore` and the out-of-core :class:`DiskGraphStore`, whose
memory-mapped slab files let ingest and discovery run without ever holding
the graph in RAM.  Both stream the same batches of (labels, properties,
endpoints) records, byte-identically.
"""

from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.builder import GraphBuilder
from repro.graph.store import BaseGraphStore, GraphStore
from repro.graph.slab import SlabCorruptionError, SlabReader, SlabWriter
from repro.graph.scrub import (
    FileVerdict,
    RepairReport,
    ScrubReport,
    repair_slab_directory,
    scrub_slab_directory,
)
from repro.graph.diskstore import (
    DiskGraphStore,
    SlabIngestError,
    ingest_jsonl_slabs,
    is_slab_directory,
    write_graph_to_slabs,
)
from repro.graph.patterns import (
    EdgePattern,
    NodePattern,
    edge_pattern_of,
    extract_patterns,
    node_pattern_of,
)
from repro.graph.stats import GraphStatistics, compute_statistics
from repro.graph.io import (
    GraphRowSink,
    GraphSink,
    IngestError,
    IngestReport,
    load_graph_apoc_jsonl,
    load_graph_csv,
    load_graph_jsonl,
    save_graph_csv,
    save_graph_jsonl,
    stream_graph_jsonl,
)
from repro.graph.query import Traversal, match_edges, match_nodes, match_pattern

# NOTE: repro.graph.planner is intentionally NOT imported here -- it layers
# on repro.schema (for statistics), and importing it at package level would
# create a cycle.  Import it explicitly: ``from repro.graph.planner import
# plan_pattern``.

__all__ = [
    "BaseGraphStore",
    "DiskGraphStore",
    "Edge",
    "EdgePattern",
    "FileVerdict",
    "GraphBuilder",
    "GraphRowSink",
    "GraphSink",
    "GraphStatistics",
    "GraphStore",
    "IngestError",
    "IngestReport",
    "Node",
    "NodePattern",
    "PropertyGraph",
    "RepairReport",
    "ScrubReport",
    "SlabCorruptionError",
    "SlabIngestError",
    "SlabReader",
    "SlabWriter",
    "compute_statistics",
    "edge_pattern_of",
    "extract_patterns",
    "Traversal",
    "ingest_jsonl_slabs",
    "is_slab_directory",
    "load_graph_apoc_jsonl",
    "load_graph_csv",
    "load_graph_jsonl",
    "match_edges",
    "match_nodes",
    "match_pattern",
    "node_pattern_of",
    "repair_slab_directory",
    "save_graph_csv",
    "save_graph_jsonl",
    "scrub_slab_directory",
    "stream_graph_jsonl",
    "write_graph_to_slabs",
]
