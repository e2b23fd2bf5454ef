"""Tests for schema merging (section 4.6, Lemmas 1-2) and the index."""

import copy
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema.merge import (
    EdgeTypeIndex,
    endpoints_compatible,
    find_labeled_edge_host,
    merge_edge_types,
    merge_node_types,
    merge_schemas,
)
from repro.schema.model import DataType, EdgeType, NodeType, SchemaGraph


def _node_type(name, labels=(), keys=(), count=0):
    node_type = NodeType(
        name, frozenset(labels), instance_count=count,
        property_counts=Counter({k: count for k in keys}),
    )
    for key in keys:
        node_type.ensure_property(key)
    return node_type


def _edge_type(name, labels=(), keys=(), src=(), tgt=()):
    edge_type = EdgeType(
        name, frozenset(labels),
        source_labels=frozenset(src), target_labels=frozenset(tgt),
    )
    for key in keys:
        edge_type.ensure_property(key)
    return edge_type


labels_strategy = st.frozensets(
    st.sampled_from(["A", "B", "C", "D"]), max_size=3
)
keys_strategy = st.frozensets(
    st.sampled_from(["k1", "k2", "k3", "k4", "k5"]), max_size=5
)


class TestMergeNodeTypes:
    @given(labels_strategy, keys_strategy, labels_strategy, keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_lemma1_monotonicity(self, labels_a, keys_a, labels_b, keys_b):
        """Lemma 1: merging never loses labels or property keys."""
        a = _node_type("a", labels_a, keys_a)
        b = _node_type("b", labels_b, keys_b)
        merged = merge_node_types(a, b)
        assert labels_a <= merged.labels and labels_b <= merged.labels
        assert keys_a <= merged.property_keys
        assert keys_b <= merged.property_keys

    def test_counts_accumulate(self):
        a = _node_type("a", ("X",), ("k",), count=3)
        b = _node_type("b", ("X",), ("k",), count=2)
        merged = merge_node_types(a, b)
        assert merged.instance_count == 5
        assert merged.property_counts["k"] == 5

    def test_datatype_conflict_generalizes_to_string(self):
        a = _node_type("a", keys=("k",))
        b = _node_type("b", keys=("k",))
        a.properties["k"].datatype = DataType.INTEGER
        b.properties["k"].datatype = DataType.DATE
        merged = merge_node_types(a, b)
        assert merged.properties["k"].datatype is DataType.STRING

    def test_unknown_adopts_other(self):
        a = _node_type("a", keys=("k",))
        b = _node_type("b", keys=("k",))
        b.properties["k"].datatype = DataType.BOOLEAN
        assert merge_node_types(a, b).properties["k"].datatype is DataType.BOOLEAN


class TestMergeEdgeTypes:
    @given(labels_strategy, keys_strategy, labels_strategy, labels_strategy)
    @settings(max_examples=60, deadline=None)
    def test_lemma2_monotonicity(self, labels, keys, src, tgt):
        """Lemma 2: labels, keys and endpoints survive merging."""
        a = _edge_type("a", labels, keys, src, tgt)
        b = _edge_type("b", {"X"}, {"kx"}, {"S"}, {"T"})
        merged = merge_edge_types(a, b)
        assert labels <= merged.labels and "X" in merged.labels
        assert keys <= merged.property_keys and "kx" in merged.property_keys
        assert src <= merged.source_labels and "S" in merged.source_labels
        assert tgt <= merged.target_labels and "T" in merged.target_labels

    def test_degree_extremes_take_max(self):
        a = _edge_type("a")
        b = _edge_type("b")
        a.max_out, a.max_in = 3, 1
        b.max_out, b.max_in = 1, 7
        merged = merge_edge_types(a, b)
        assert (merged.max_out, merged.max_in) == (3, 7)


class TestEndpointsCompatible:
    def test_same_endpoints(self):
        a = _edge_type("a", src=("Person",), tgt=("Post",))
        b = _edge_type("b", src=("Person",), tgt=("Post",))
        assert endpoints_compatible(a, b)

    def test_disjoint_targets_incompatible(self):
        a = _edge_type("a", src=("Person",), tgt=("Post",))
        b = _edge_type("b", src=("Person",), tgt=("Comment",))
        assert not endpoints_compatible(a, b)

    def test_empty_side_always_compatible(self):
        a = _edge_type("a", src=(), tgt=())
        b = _edge_type("b", src=("Person",), tgt=("Post",))
        assert endpoints_compatible(a, b)

    def test_tokens_participate(self):
        a = _edge_type("a")
        b = _edge_type("b")
        a.source_tokens = {"~b0:X"}
        b.source_tokens = {"~b0:Y"}
        assert not endpoints_compatible(a, b)
        b.source_tokens = {"~b0:X"}
        assert endpoints_compatible(a, b)

    def test_threshold_matters(self):
        a = _edge_type("a", src=("P", "Q", "R"), tgt=("T",))
        b = _edge_type("b", src=("P",), tgt=("T",))
        assert not endpoints_compatible(a, b, endpoint_threshold=0.5)
        assert endpoints_compatible(a, b, endpoint_threshold=0.3)


class TestMergeSchemas:
    def test_labeled_node_types_merge_by_equal_label_sets(self):
        base = SchemaGraph("base")
        base.add_node_type(_node_type("Person", ("Person",), ("name",), 2))
        incoming = SchemaGraph("inc")
        incoming.add_node_type(_node_type("Person", ("Person",), ("age",), 3))
        merge_schemas(base, incoming)
        assert len(base.node_types) == 1
        merged = base.node_types["Person"]
        assert merged.property_keys == frozenset({"name", "age"})
        assert merged.instance_count == 5

    def test_different_label_sets_stay_distinct(self):
        base = SchemaGraph("base")
        base.add_node_type(_node_type("Person", ("Person",)))
        incoming = SchemaGraph("inc")
        incoming.add_node_type(
            _node_type("Person&Student", ("Person", "Student"))
        )
        merge_schemas(base, incoming)
        assert len(base.node_types) == 2

    def test_unlabeled_merges_into_similar_labeled(self):
        base = SchemaGraph("base")
        base.add_node_type(
            _node_type("Person", ("Person",), ("name", "age"), 2)
        )
        incoming = SchemaGraph("inc")
        incoming.add_node_type(_node_type("x", (), ("name", "age"), 1))
        merge_schemas(base, incoming, jaccard_threshold=0.9)
        assert len(base.node_types) == 1
        assert base.node_types["Person"].instance_count == 3

    def test_unlabeled_below_threshold_becomes_abstract(self):
        base = SchemaGraph("base")
        base.add_node_type(_node_type("Person", ("Person",), ("name",)))
        incoming = SchemaGraph("inc")
        incoming.add_node_type(_node_type("x", (), ("zipcode", "lat"), 1))
        merge_schemas(base, incoming, jaccard_threshold=0.9)
        assert len(base.node_types) == 2
        abstracts = [t for t in base.node_types.values() if t.abstract]
        assert len(abstracts) == 1

    def test_edge_merge_respects_endpoints(self):
        base = SchemaGraph("base")
        base.add_edge_type(
            _edge_type("LIKES", ("LIKES",), src=("Person",), tgt=("Post",))
        )
        incoming = SchemaGraph("inc")
        incoming.add_edge_type(
            _edge_type("LIKES", ("LIKES",), src=("Person",), tgt=("Comment",))
        )
        merge_schemas(base, incoming)
        assert len(base.edge_types) == 2  # kept apart: different targets

    def test_edge_merge_same_endpoints(self):
        base = SchemaGraph("base")
        base.add_edge_type(
            _edge_type("KNOWS", ("KNOWS",), ("since",), ("Person",), ("Person",))
        )
        incoming = SchemaGraph("inc")
        incoming.add_edge_type(
            _edge_type("KNOWS", ("KNOWS",), (), ("Person",), ("Person",))
        )
        merge_schemas(base, incoming)
        assert len(base.edge_types) == 1
        assert "since" in base.edge_types["KNOWS"].property_keys

    def test_merge_is_monotone_chain(self):
        """S_i subsumed by S_{i+1}: everything from both inputs survives."""
        base = SchemaGraph("base")
        base.add_node_type(_node_type("A", ("A",), ("k1",)))
        snapshot_labels = {t.labels for t in base.node_types.values()}
        incoming = SchemaGraph("inc")
        incoming.add_node_type(_node_type("B", ("B",), ("k2",)))
        incoming.add_node_type(_node_type("A", ("A",), ("k3",)))
        merge_schemas(base, incoming)
        merged_labels = {t.labels for t in base.node_types.values()}
        assert snapshot_labels <= merged_labels
        assert base.node_types["A"].property_keys >= {"k1", "k3"}


def _nt_fingerprint(node_type: NodeType):
    """Canonical content of a node type, ignoring name and member order."""
    return (
        node_type.labels,
        node_type.property_keys,
        frozenset(
            (k, p.datatype) for k, p in node_type.properties.items()
        ),
        node_type.instance_count,
        frozenset(node_type.property_counts.items()),
        frozenset(node_type.members),
        node_type.abstract,
        frozenset(node_type.cluster_tokens),
    )


def _et_fingerprint(edge_type: EdgeType):
    """Canonical content of an edge type, ignoring name and member order."""
    return (
        edge_type.labels,
        edge_type.property_keys,
        frozenset(
            (k, p.datatype) for k, p in edge_type.properties.items()
        ),
        edge_type.source_labels,
        edge_type.target_labels,
        frozenset(edge_type.source_tokens),
        frozenset(edge_type.target_tokens),
        edge_type.max_out,
        edge_type.max_in,
        edge_type.instance_count,
        frozenset(edge_type.property_counts.items()),
        frozenset(edge_type.members),
        edge_type.abstract,
    )


datatype_strategy = st.sampled_from(
    [DataType.UNKNOWN, DataType.INTEGER, DataType.DATE]
)


@st.composite
def node_types(draw, require_labels=False):
    labels = draw(labels_strategy)
    if require_labels and not labels:
        labels = frozenset({draw(st.sampled_from(["A", "B", "C", "D"]))})
    keys = draw(keys_strategy)
    node_type = _node_type(
        "nt", labels, keys, count=draw(st.integers(0, 5))
    )
    for key in keys:
        node_type.properties[key].datatype = draw(datatype_strategy)
    node_type.members = draw(
        st.lists(st.integers(0, 99), max_size=4, unique=True)
    )
    return node_type


@st.composite
def edge_types(draw):
    # Endpoint families are equal-or-disjoint so endpoint compatibility
    # at threshold 0.5 is itself an equivalence relation -- the regime
    # in which batch-schema merging is order-independent (fully labeled
    # data keeps endpoint label sets per edge label disjoint or equal).
    family = draw(st.sampled_from([("S1",), ("S2",), ("S3", "S4")]))
    target = draw(st.sampled_from([("T1",), ("T2",)]))
    label = draw(st.sampled_from(["E1", "E2", "E3"]))
    edge_type = _edge_type(
        "et", (label,), draw(keys_strategy), family, target
    )
    edge_type.instance_count = draw(st.integers(0, 5))
    edge_type.members = draw(
        st.lists(st.integers(0, 99), max_size=4, unique=True)
    )
    edge_type.max_out = draw(st.integers(0, 4))
    edge_type.max_in = draw(st.integers(0, 4))
    return edge_type


class TestMergeAlgebra:
    """The type-level merges are commutative and associative monoids.

    Type content (modulo name and member order) therefore does not
    depend on the order in which two types meet.
    """

    @given(node_types(), node_types())
    @settings(max_examples=80, deadline=None)
    def test_merge_node_types_commutative(self, a, b):
        ab = merge_node_types(copy.deepcopy(a), copy.deepcopy(b))
        ba = merge_node_types(copy.deepcopy(b), copy.deepcopy(a))
        assert _nt_fingerprint(ab) == _nt_fingerprint(ba)

    @given(node_types(), node_types(), node_types())
    @settings(max_examples=80, deadline=None)
    def test_merge_node_types_associative(self, a, b, c):
        left = merge_node_types(
            merge_node_types(copy.deepcopy(a), copy.deepcopy(b)),
            copy.deepcopy(c),
        )
        right = merge_node_types(
            copy.deepcopy(a),
            merge_node_types(copy.deepcopy(b), copy.deepcopy(c)),
        )
        assert _nt_fingerprint(left) == _nt_fingerprint(right)

    @given(edge_types(), edge_types())
    @settings(max_examples=80, deadline=None)
    def test_merge_edge_types_commutative(self, a, b):
        ab = merge_edge_types(copy.deepcopy(a), copy.deepcopy(b))
        ba = merge_edge_types(copy.deepcopy(b), copy.deepcopy(a))
        assert _et_fingerprint(ab) == _et_fingerprint(ba)

    @given(edge_types(), edge_types(), edge_types())
    @settings(max_examples=80, deadline=None)
    def test_merge_edge_types_associative(self, a, b, c):
        left = merge_edge_types(
            merge_edge_types(copy.deepcopy(a), copy.deepcopy(b)),
            copy.deepcopy(c),
        )
        right = merge_edge_types(
            copy.deepcopy(a),
            merge_edge_types(copy.deepcopy(b), copy.deepcopy(c)),
        )
        assert _et_fingerprint(left) == _et_fingerprint(right)


class TestEdgeTypeIndex:
    def _schema_with(self, *edge_types):
        schema = SchemaGraph()
        for edge_type in edge_types:
            schema.add_edge_type(edge_type)
        return schema

    def test_candidates_include_key_sharers(self):
        host = _edge_type("E1", ("E",), ("k1", "k2"), ("S",), ("T",))
        schema = self._schema_with(host)
        index = EdgeTypeIndex(schema)
        candidate = _edge_type("c", (), ("k1",), ("S",), ("T",))
        assert host in index.candidates(candidate)

    def test_candidates_exclude_disjoint_keys(self):
        host = _edge_type("E1", ("E",), ("k1",), ("S",), ("T",))
        index = EdgeTypeIndex(self._schema_with(host))
        candidate = _edge_type("c", (), ("zz",), ("S",), ("T",))
        assert index.candidates(candidate) == []

    def test_empty_key_candidates_match_empty_key_types(self):
        host = _edge_type("E1", ("E",), (), ("S",), ("T",))
        index = EdgeTypeIndex(self._schema_with(host))
        candidate = _edge_type("c", (), (), ("S",), ("T",))
        assert host in index.candidates(candidate)

    def test_endpoint_filter(self):
        host = _edge_type("E1", ("E",), (), ("S",), ("T",))
        index = EdgeTypeIndex(self._schema_with(host))
        candidate = _edge_type("c", (), (), ("OTHER",), ("T",))
        assert index.candidates(candidate) == []

    @given(
        keys_strategy, labels_strategy, labels_strategy,
        keys_strategy, labels_strategy, labels_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_index_never_misses_a_valid_host(
        self, hk, hs, ht, ck, cs, ct
    ):
        """Soundness: any type passing the exact checks is in candidates."""
        from repro.schema.merge import endpoints_compatible
        from repro.util.similarity import jaccard

        host = _edge_type("h", ("L",), hk, hs, ht)
        candidate = _edge_type("c", (), ck, cs, ct)
        index = EdgeTypeIndex(self._schema_with(host))
        passes = (
            jaccard(frozenset(ck), frozenset(hk)) >= 0.9
            and endpoints_compatible(host, candidate, 0.5)
        )
        if passes:
            assert host in index.candidates(candidate)
