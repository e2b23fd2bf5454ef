"""Tests for Algorithm 2: cluster summarization, extraction, merging."""

import numpy as np
import pytest

from repro.core.type_extraction import (
    CandidateCluster,
    extract_types,
    resolve_edge_endpoints,
)
from repro.graph.model import Edge, Node
from tests.oracles.kernels import build_edge_clusters, build_node_clusters


def _nodes(*specs):
    return [
        Node(i, frozenset(labels), {k: 1 for k in keys})
        for i, (labels, keys) in enumerate(specs)
    ]


class TestBuildClusters:
    def test_node_cluster_unions(self):
        nodes = _nodes(
            (("Person",), ("name",)),
            (("Person",), ("name", "age")),
            ((), ("zip",)),
        )
        assignment = np.array([0, 0, 1])
        clusters = build_node_clusters(nodes, assignment)
        assert len(clusters) == 2
        first = clusters[0]
        assert first.labels == frozenset({"Person"})
        assert first.property_keys == frozenset({"name", "age"})
        assert first.property_counts["name"] == 2
        assert first.members == [0, 1]
        assert not clusters[1].is_labeled

    def test_edge_cluster_endpoint_unions_and_token_split(self):
        edges = [
            Edge(0, 1, 2, frozenset({"KNOWS"}), {}),
            Edge(1, 3, 4, frozenset({"KNOWS"}), {"since": 1}),
        ]
        endpoint_labels = {
            1: frozenset({"Person"}),
            2: frozenset({"Person"}),
            3: frozenset({"~b0:ABSTRACT_NODE_1"}),
            4: frozenset({"Person"}),
        }
        clusters = build_edge_clusters(edges, np.array([0, 0]), endpoint_labels)
        (cluster,) = clusters
        assert cluster.source_labels == frozenset({"Person"})
        assert cluster.source_tokens == frozenset({"~b0:ABSTRACT_NODE_1"})
        assert cluster.property_keys == frozenset({"since"})


class TestExtractTypes:
    def _cluster(self, kind="node", labels=(), keys=(), members=(0,),
                 src=(), tgt=()):
        from collections import Counter

        return CandidateCluster(
            kind=kind,
            labels=frozenset(labels),
            property_keys=frozenset(keys),
            members=list(members),
            property_counts=Counter({k: len(members) for k in keys}),
            source_labels=frozenset(src),
            target_labels=frozenset(tgt),
        )

    def test_labeled_clusters_with_equal_labels_merge(self):
        clusters = [
            self._cluster(labels=("Post",), keys=("imgFile",), members=(0,)),
            self._cluster(labels=("Post",), keys=("content",), members=(1,)),
        ]
        schema = extract_types(clusters, [])
        assert len(schema.node_types) == 1
        post = schema.node_types["Post"]
        assert post.property_keys == frozenset({"imgFile", "content"})
        assert post.instance_count == 2

    def test_unlabeled_merges_into_similar_labeled(self):
        """Paper Example 5: Alice's cluster joins the Person cluster."""
        clusters = [
            self._cluster(labels=("Person",), keys=("name", "gender", "bday"),
                          members=(0, 1)),
            self._cluster(labels=(), keys=("name", "gender", "bday"),
                          members=(2,)),
        ]
        schema = extract_types(clusters, [])
        assert len(schema.node_types) == 1
        assert schema.node_types["Person"].members == [0, 1, 2]

    def test_dissimilar_unlabeled_becomes_abstract(self):
        clusters = [
            self._cluster(labels=("Person",), keys=("name",)),
            self._cluster(labels=(), keys=("lat", "lon"), members=(1,)),
        ]
        schema = extract_types(clusters, [])
        assert len(schema.node_types) == 2
        abstract = [t for t in schema.node_types.values() if t.abstract]
        assert len(abstract) == 1
        assert abstract[0].name.startswith("ABSTRACT_NODE")

    def test_unlabeled_pair_merges_together(self):
        clusters = [
            self._cluster(labels=(), keys=("a", "b"), members=(0,)),
            self._cluster(labels=(), keys=("a", "b"), members=(1,)),
        ]
        schema = extract_types(clusters, [])
        assert len(schema.node_types) == 1

    def test_theta_controls_merging(self):
        clusters = [
            self._cluster(labels=("T",), keys=("a", "b", "c")),
            self._cluster(labels=(), keys=("a", "b"), members=(1,)),
        ]
        strict = extract_types(clusters, [], theta=0.9)
        loose = extract_types(clusters, [], theta=0.6)
        assert len(strict.node_types) == 2
        assert len(loose.node_types) == 1

    def test_same_label_different_endpoints_stay_distinct(self):
        """LDBC LIKES: posts vs comments are different edge types."""
        clusters = [
            self._cluster("edge", labels=("LIKES",), members=(0,),
                          src=("Person",), tgt=("Post",)),
            self._cluster("edge", labels=("LIKES",), members=(1,),
                          src=("Person",), tgt=("Comment",)),
        ]
        schema = extract_types([], clusters)
        assert len(schema.edge_types) == 2
        names = set(schema.edge_types)
        assert "LIKES" in names and "LIKES@2" in names

    def test_same_label_compatible_endpoints_merge(self):
        clusters = [
            self._cluster("edge", labels=("KNOWS",), keys=("since",),
                          members=(0,), src=("Person",), tgt=("Person",)),
            self._cluster("edge", labels=("KNOWS",), members=(1,),
                          src=("Person",), tgt=("Person",)),
        ]
        schema = extract_types([], clusters)
        assert len(schema.edge_types) == 1
        assert schema.edge_types["KNOWS"].instance_count == 2

    def test_unlabeled_edge_merges_by_structure_and_endpoints(self):
        clusters = [
            self._cluster("edge", labels=("WORKS_AT",), keys=("from",),
                          members=(0,), src=("Person",), tgt=("Org",)),
            self._cluster("edge", labels=(), keys=("from",),
                          members=(1,), src=("Person",), tgt=("Org",)),
        ]
        schema = extract_types([], clusters)
        assert len(schema.edge_types) == 1

    def test_unlabeled_edge_with_wrong_endpoints_kept_apart(self):
        clusters = [
            self._cluster("edge", labels=("WORKS_AT",), keys=("from",),
                          members=(0,), src=("Person",), tgt=("Org",)),
            self._cluster("edge", labels=(), keys=("from",),
                          members=(1,), src=("Robot",), tgt=("Factory",)),
        ]
        schema = extract_types([], clusters)
        assert len(schema.edge_types) == 2

    def test_resolve_edge_endpoints(self):
        node_clusters = [
            self._cluster(labels=("Person",), keys=("name",), members=(0,)),
            self._cluster(labels=("Org",), keys=("url",), members=(1,)),
        ]
        edge_clusters = [
            self._cluster("edge", labels=("WORKS_AT",), members=(0,),
                          src=("Person",), tgt=("Org",)),
        ]
        schema = extract_types(node_clusters, edge_clusters)
        works_at = schema.edge_types["WORKS_AT"]
        assert works_at.source_types == {"Person"}
        assert works_at.target_types == {"Org"}


class TestFigure1EndToEnd:
    def test_discovers_example_types(self, figure1_store):
        from repro.core.pipeline import PGHive

        result = PGHive().discover(figure1_store)
        names = set(result.schema.node_types)
        assert {"Person", "Organization", "Post", "Place"} <= names
        # Alice (unlabeled) must be assigned to Person (Example 5).
        assert result.node_assignment[2] == "Person"
        # Both Post patterns merge into one Post type (Example 5).
        post = result.schema.node_types["Post"]
        assert post.property_keys == frozenset({"imgFile", "content"})
        edge_names = set(result.schema.edge_types)
        assert {"KNOWS", "LIKES", "WORKS_AT", "LOCATED_IN"} <= edge_names
