"""Unit tests for IncrementalDiscovery's internal stages."""

import numpy as np
import pytest

from repro.core.config import PGHiveConfig
from repro.core.incremental import IncrementalDiscovery
from repro.graph.model import Edge, Node
from repro.schema.model import SchemaGraph
from tests.oracles import ReferenceDiscovery
from tests.oracles.kernels import refine_by_labels


def _node(node_id, labels=(), keys=()):
    return Node(node_id, frozenset(labels), {k: 1 for k in keys})


class TestRefineByLabels:
    def test_splits_mixed_label_cluster(self):
        nodes = [_node(0, ["A"]), _node(1, ["B"]), _node(2, ["A"])]
        assignment = np.array([0, 0, 0])
        refined = refine_by_labels(nodes, assignment)
        assert refined[0] == refined[2]
        assert refined[0] != refined[1]

    def test_keeps_unlabeled_together(self):
        nodes = [_node(0), _node(1), _node(2, ["A"])]
        refined = refine_by_labels(nodes, np.array([0, 0, 0]))
        assert refined[0] == refined[1]
        assert refined[0] != refined[2]

    def test_respects_original_clusters(self):
        nodes = [_node(0, ["A"]), _node(1, ["A"])]
        refined = refine_by_labels(nodes, np.array([0, 1]))
        assert refined[0] != refined[1]

    def test_label_set_not_token_is_the_key(self):
        nodes = [_node(0, ["A&B"]), _node(1, ["A", "B"])]
        refined = refine_by_labels(nodes, np.array([0, 0]))
        assert refined[0] != refined[1]

    def test_empty_input(self):
        out = refine_by_labels([], np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_ids_dense_in_first_appearance_order(self):
        nodes = [_node(0, ["B"]), _node(1, ["A"]), _node(2, ["B"])]
        refined = refine_by_labels(nodes, np.array([0, 0, 0]))
        assert refined.tolist() == [0, 1, 0]


class TestFitEmbedder:
    def test_dedupes_sentences(self):
        """Thousands of same-shaped edges train like a handful."""
        engine = ReferenceDiscovery()
        nodes = [_node(i, ["Person"]) for i in range(100)]
        edges = [
            Edge(i, i % 100, (i + 1) % 100, frozenset({"KNOWS"}), {})
            for i in range(500)
        ]
        labels = {n.id: n.labels for n in nodes}
        embedder = engine._fit_embedder(nodes, edges, labels)
        # Only two tokens exist despite 500 edges.
        assert len(embedder.vocabulary) == 2

    def test_handles_no_edges(self):
        engine = ReferenceDiscovery()
        nodes = [_node(0, ["A"]), _node(1, ["B"])]
        embedder = engine._fit_embedder(nodes, [], {})
        assert "A" in embedder.vocabulary and "B" in embedder.vocabulary


class TestEffectiveEndpointLabels:
    def test_unlabeled_member_of_labeled_type_gets_real_labels(self):
        from repro.schema.model import NodeType

        engine = ReferenceDiscovery()
        batch_schema = SchemaGraph("b")
        person = NodeType("Person", frozenset({"Person"}), members=[0, 1])
        batch_schema.add_node_type(person)
        nodes = [_node(0, ["Person"]), _node(1)]  # node 1 unlabeled
        endpoint_labels = {0: frozenset({"Person"}), 1: frozenset()}
        effective = engine._effective_endpoint_labels(
            batch_schema, nodes, endpoint_labels
        )
        assert effective[1] == frozenset({"Person"})

    def test_abstract_type_members_get_pseudo_token(self):
        from repro.schema.model import NodeType

        engine = ReferenceDiscovery()
        batch_schema = SchemaGraph("b")
        ghost = NodeType("ABSTRACT_NODE_1", abstract=True, members=[0])
        batch_schema.add_node_type(ghost)
        nodes = [_node(0)]
        effective = engine._effective_endpoint_labels(
            batch_schema, nodes, {0: frozenset()}
        )
        (token,) = effective[0]
        assert token.startswith("~")
        assert token in ghost.cluster_tokens

    def test_out_of_batch_endpoints_untouched(self):
        engine = ReferenceDiscovery()
        effective = engine._effective_endpoint_labels(
            SchemaGraph("b"), [], {42: frozenset({"Other"})}
        )
        assert effective[42] == frozenset({"Other"})


class TestAbsorbKnownPatterns:
    def _primed_engine(self):
        engine = IncrementalDiscovery(PGHiveConfig(memoize_patterns=True))
        nodes = [_node(i, ["T"], ["a", "b"]) for i in range(4)]
        engine.process_batch(nodes, [], None)
        return engine

    def test_known_structure_absorbed(self):
        engine = self._primed_engine()
        report = engine.process_batch([_node(10, ["T"], ["a"])], [], None)
        assert report.memo_node_hits == 1
        assert 10 in engine.schema.node_types["T"].members

    def test_new_property_key_goes_through_pipeline(self):
        engine = self._primed_engine()
        report = engine.process_batch(
            [_node(11, ["T"], ["a", "zz"])], [], None
        )
        assert report.memo_node_hits == 0
        assert "zz" in engine.schema.node_types["T"].property_keys

    def test_new_label_goes_through_pipeline(self):
        engine = self._primed_engine()
        report = engine.process_batch([_node(12, ["U"], ["a"])], [], None)
        assert report.memo_node_hits == 0
        assert any(
            t.labels == frozenset({"U"})
            for t in engine.schema.node_types.values()
        )

    def test_unlabeled_never_absorbed(self):
        engine = self._primed_engine()
        report = engine.process_batch([_node(13, [], ["a", "b"])], [], None)
        assert report.memo_node_hits == 0
