"""Equivalence tests for the per-batch fold: production vs. oracle loops.

Folding a batch into the running schema trains Word2Vec, searches Jaccard
hosts and resolves edge endpoints.  Each of those has a cheaper
production form (epoch-drawn negatives, a key-set size bound, inverted
endpoint indexes) and the original loop in ``tests/oracles/kernels.py``;
these properties assert identical results, plus the boundary cases where
an off-by-one in the size bound would change a merge.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.type_extraction import (
    CandidateCluster,
    extract_node_types,
    extract_types,
    resolve_edge_endpoints,
)
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig
from repro.schema.merge import (
    EdgeTypeIndex,
    NodeTypeIndex,
    best_jaccard_edge_host,
    best_jaccard_host,
)
from repro.schema.model import EdgeType, NodeType, SchemaGraph
from repro.util.similarity import jaccard, jaccard_size_bound
from tests.oracles.kernels import (
    best_jaccard_edge_host_reference,
    best_jaccard_host_reference,
    extract_node_types_reference,
    resolve_edge_endpoints_reference,
    train_word2vec_reference,
)

_LABELS = ["Person", "Org", "Post", "Tag"]
_TOKENS = ["~b0c0", "~b0c1", "~b1c0", "~b1c1"]
_KEYS = [f"k{i}" for i in range(12)]
_THETAS = [0.9, 0.75, 0.5, 1.0, 0.3]

_labels = st.frozensets(st.sampled_from(_LABELS), max_size=2)
_tokens = st.sets(st.sampled_from(_TOKENS), max_size=2)
_keys = st.frozensets(st.sampled_from(_KEYS), max_size=len(_KEYS))


def _with_keys(record: NodeType | EdgeType, keys) -> NodeType | EdgeType:
    for key in sorted(keys):
        record.ensure_property(key)
    return record


# ----------------------------------------------------------------------
# Word2Vec: one negative draw per epoch
# ----------------------------------------------------------------------
@st.composite
def word2vec_cases(draw):
    vocab = draw(st.integers(1, 6))
    token = st.integers(0, vocab - 1)
    sentences = draw(
        st.lists(st.lists(token, min_size=0, max_size=5), max_size=8)
    )
    counts = draw(
        st.none() | st.lists(st.integers(0, 9), min_size=vocab, max_size=vocab)
    )
    config = Word2VecConfig(
        dimension=draw(st.integers(1, 6)),
        window=draw(st.integers(1, 3)),
        negatives=draw(st.integers(0, 6)),
        epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    return vocab, sentences, counts, config


@settings(max_examples=80, deadline=None)
@given(word2vec_cases())
def test_word2vec_matches_per_step_oracle(case):
    """Same center and context vectors, bit for bit; a vocabulary of one
    to six tokens with up to six negatives makes negatives that equal the
    context, and repeated negatives, the common case."""
    vocab, sentences, counts, config = case
    model = Word2Vec(vocab, config)
    oracle = Word2Vec(vocab, config)
    model.train(sentences, counts)
    train_word2vec_reference(oracle, sentences, counts)
    assert np.array_equal(model._center, oracle._center)
    assert np.array_equal(model._context, oracle._context)


def test_word2vec_matches_oracle_on_label_corpus():
    """A corpus shaped like a batch's label corpus: many short sentences
    over a few dozen tokens with skewed counts."""
    rng = np.random.default_rng(5)
    vocab = 40
    sentences = [
        rng.integers(0, vocab, size=int(rng.integers(2, 4))).tolist()
        for _ in range(150)
    ]
    counts = np.bincount(
        np.concatenate([np.asarray(s) for s in sentences]), minlength=vocab
    ).tolist()
    model = Word2Vec(vocab)
    oracle = Word2Vec(vocab)
    model.train(sentences, counts)
    train_word2vec_reference(oracle, sentences, counts)
    assert np.array_equal(model.vectors, oracle.vectors)


# ----------------------------------------------------------------------
# Endpoint resolution: inverted indexes vs. a scan
# ----------------------------------------------------------------------
@st.composite
def endpoint_schemas(draw):
    schema = SchemaGraph("resolve")
    for i in range(draw(st.integers(0, 8))):
        schema.add_node_type(
            NodeType(
                name=f"N{i}",
                labels=draw(_labels),
                cluster_tokens=draw(_tokens),
            )
        )
    for i in range(draw(st.integers(0, 8))):
        schema.add_edge_type(
            EdgeType(
                name=f"E{i}",
                source_labels=draw(_labels),
                target_labels=draw(_labels),
                source_tokens=draw(_tokens),
                target_tokens=draw(_tokens),
                # Stale sets the resolution must overwrite.
                source_types=set(draw(st.sets(st.sampled_from(["N0", "X"])))),
            )
        )
    return schema


def _endpoint_sets(schema: SchemaGraph) -> list[tuple[str, set, set]]:
    return [
        (name, edge_type.source_types, edge_type.target_types)
        for name, edge_type in schema.edge_types.items()
    ]


@settings(max_examples=150, deadline=None)
@given(endpoint_schemas())
def test_resolve_edge_endpoints_matches_scan(schema):
    oracle = copy.deepcopy(schema)
    resolve_edge_endpoints(schema)
    resolve_edge_endpoints_reference(oracle)
    assert _endpoint_sets(schema) == _endpoint_sets(oracle)


@pytest.mark.parametrize(
    "labels, tokens, expected",
    [
        (frozenset({"Person"}), set(), {"Person", "Person&Student"}),
        (frozenset(), {"~b0c1"}, {"ABSTRACT_1"}),
        (frozenset({"Org"}), {"~b0c1"}, {"Org", "ABSTRACT_1"}),
        (frozenset(), set(), set()),
        (frozenset({"Robot"}), {"~b9c9"}, set()),
    ],
    ids=["labels-only", "tokens-only", "both", "empty", "no-match"],
)
def test_resolve_endpoint_kinds(labels, tokens, expected):
    schema = SchemaGraph("kinds")
    schema.add_node_type(NodeType("Person", labels=frozenset({"Person"})))
    schema.add_node_type(
        NodeType("Person&Student", labels=frozenset({"Person", "Student"}))
    )
    schema.add_node_type(
        NodeType("Org", labels=frozenset({"Org"}), cluster_tokens={"~b0c0"})
    )
    schema.add_node_type(NodeType("ABSTRACT_1", cluster_tokens={"~b0c1"}))
    schema.add_edge_type(
        EdgeType(
            "E", source_labels=labels, source_tokens=tokens,
            target_labels=labels, target_tokens=tokens,
        )
    )
    oracle = copy.deepcopy(schema)
    resolve_edge_endpoints(schema)
    resolve_edge_endpoints_reference(oracle)
    edge_type = schema.edge_types["E"]
    assert edge_type.source_types == expected
    assert edge_type.target_types == expected
    assert _endpoint_sets(schema) == _endpoint_sets(oracle)
    # Every edge type gets its own set: merges mutate them in place.
    assert edge_type.source_types is not edge_type.target_types


# ----------------------------------------------------------------------
# Jaccard host search: the key-set size bound
# ----------------------------------------------------------------------
@st.composite
def node_host_cases(draw):
    schema = SchemaGraph("hosts")
    for i in range(draw(st.integers(0, 10))):
        labeled = draw(st.booleans())
        node_type = NodeType(
            name=f"T{i:02d}",
            labels=frozenset({f"L{i}"}) if labeled else frozenset(),
        )
        schema.add_node_type(_with_keys(node_type, draw(_keys)))
    candidate = _with_keys(NodeType("candidate"), draw(_keys))
    labeled_only = draw(st.booleans())
    return schema, candidate, labeled_only, draw(st.sampled_from(_THETAS))


@settings(max_examples=200, deadline=None)
@given(node_host_cases())
def test_best_jaccard_host_matches_unpruned(case):
    schema, candidate, labeled_only, theta = case
    index = NodeTypeIndex(schema, labeled_only=labeled_only)
    host = best_jaccard_host(index, candidate, theta)
    assert host is best_jaccard_host_reference(index, candidate, theta)


@st.composite
def edge_host_cases(draw):
    schema = SchemaGraph("edge-hosts")
    for i in range(draw(st.integers(0, 10))):
        edge_type = EdgeType(
            name=f"E{i:02d}",
            source_labels=draw(_labels),
            target_labels=draw(_labels),
            source_tokens=draw(_tokens),
            target_tokens=draw(_tokens),
        )
        schema.add_edge_type(_with_keys(edge_type, draw(_keys)))
    candidate = _with_keys(
        EdgeType(
            "candidate",
            source_labels=draw(_labels),
            target_labels=draw(_labels),
            source_tokens=draw(_tokens),
            target_tokens=draw(_tokens),
        ),
        draw(_keys),
    )
    endpoint_theta = draw(st.sampled_from([0.5, 0.25, 1.0]))
    return schema, candidate, draw(st.sampled_from(_THETAS)), endpoint_theta


@settings(max_examples=200, deadline=None)
@given(edge_host_cases())
def test_best_jaccard_edge_host_matches_unpruned(case):
    schema, candidate, theta, endpoint_theta = case
    index = EdgeTypeIndex(schema)
    host = best_jaccard_edge_host(index, candidate, theta, endpoint_theta)
    assert host is best_jaccard_edge_host_reference(
        index, candidate, theta, endpoint_theta
    )


@st.composite
def node_cluster_lists(draw):
    clusters = []
    for i in range(draw(st.integers(0, 12))):
        labeled = draw(st.booleans())
        clusters.append(
            CandidateCluster(
                kind="node",
                labels=draw(_labels) if labeled else frozenset(),
                property_keys=draw(_keys),
                members=[i],
            )
        )
    return clusters, draw(st.sampled_from(_THETAS))


def _node_type_rows(schema: SchemaGraph) -> list[tuple]:
    return [
        (name, t.labels, t.abstract, sorted(t.properties), t.members)
        for name, t in schema.node_types.items()
    ]


@settings(max_examples=150, deadline=None)
@given(node_cluster_lists())
def test_extract_node_types_matches_unpruned(case):
    """Labeled hosts, then the first-fit pool of unlabeled types."""
    clusters, theta = case
    schema = SchemaGraph("batch")
    oracle = SchemaGraph("batch")
    extract_node_types(schema, copy.deepcopy(clusters), theta)
    extract_node_types_reference(oracle, copy.deepcopy(clusters), theta)
    assert _node_type_rows(schema) == _node_type_rows(oracle)


class TestSizeBoundBoundaries:
    """Pairs whose size ratio sits on the threshold must be scored."""

    def test_nine_of_ten_subset_still_merges(self):
        keys = [f"k{i}" for i in range(10)]
        assert jaccard(frozenset(keys[:9]), frozenset(keys)) == 0.9
        assert jaccard_size_bound(9, 10) == 0.9
        schema = SchemaGraph("s")
        host = _with_keys(NodeType("Host", labels=frozenset({"Host"})), keys)
        schema.add_node_type(host)
        candidate = _with_keys(NodeType("c"), keys[:9])
        index = NodeTypeIndex(schema, labeled_only=True)
        assert best_jaccard_host(index, candidate, 0.9) is host
        # The reverse direction too: a 10-key candidate, a 9-key host.
        small = SchemaGraph("s")
        host9 = _with_keys(NodeType("H", labels=frozenset({"H"})), keys[:9])
        small.add_node_type(host9)
        index = NodeTypeIndex(small, labeled_only=True)
        candidate10 = _with_keys(NodeType("c"), keys)
        assert best_jaccard_host(index, candidate10, 0.9) is host9

    def test_nine_of_ten_unlabeled_clusters_pool_together(self):
        keys = [f"k{i}" for i in range(10)]
        clusters = [
            CandidateCluster(
                "node", property_keys=frozenset(keys), members=[0]
            ),
            CandidateCluster(
                "node", property_keys=frozenset(keys[:9]), members=[1]
            ),
        ]
        schema = extract_types(clusters, [], theta=0.9)
        assert len(schema.node_types) == 1
        assert next(iter(schema.node_types.values())).members == [0, 1]

    def test_ratio_exactly_theta_is_scored_not_pruned(self):
        """|A| = 3, |B| = 4 at theta = 0.75: the bound equals theta, so
        the pair is scored; a subset merges, a non-subset does not."""
        assert jaccard_size_bound(3, 4) == 0.75
        subset = frozenset({"a", "b", "c"})
        host_keys = {"a", "b", "c", "d"}
        schema = SchemaGraph("s")
        host = _with_keys(
            NodeType("Host", labels=frozenset({"Host"})), host_keys
        )
        schema.add_node_type(host)
        index = NodeTypeIndex(schema, labeled_only=True)
        candidate = _with_keys(NodeType("c"), subset)
        assert best_jaccard_host(index, candidate, 0.75) is host
        other = _with_keys(NodeType("o"), {"a", "b", "x"})
        assert best_jaccard_host(index, other, 0.75) is None
        assert best_jaccard_host_reference(index, other, 0.75) is None

    def test_ratio_below_theta_is_pruned_and_unmergeable(self):
        assert jaccard_size_bound(8, 10) < 0.9
        keys = [f"k{i}" for i in range(10)]
        assert jaccard(frozenset(keys[:8]), frozenset(keys)) < 0.9

    @pytest.mark.parametrize("sizes", [(0, 0), (0, 5), (5, 0)])
    def test_empty_key_sets_claim_no_bound(self, sizes):
        assert jaccard_size_bound(*sizes) == 1.0

    def test_empty_key_sets_host_each_other(self):
        schema = SchemaGraph("s")
        host = NodeType("ABSTRACT_1")
        schema.add_node_type(host)
        index = NodeTypeIndex(schema, labeled_only=False)
        assert best_jaccard_host(index, NodeType("c"), 0.9) is host
        edges = SchemaGraph("e")
        edge_host = EdgeType("ABSTRACT_E1")
        edges.add_edge_type(edge_host)
        edge_index = EdgeTypeIndex(edges)
        edge_candidate = EdgeType("c")
        host_found = best_jaccard_edge_host(edge_index, edge_candidate, 0.9)
        assert host_found is edge_host

    def test_empty_candidate_never_hosts_in_keyed_type(self):
        schema = SchemaGraph("s")
        schema.add_node_type(
            _with_keys(NodeType("Host", labels=frozenset({"Host"})), {"a"})
        )
        index = NodeTypeIndex(schema, labeled_only=True)
        assert best_jaccard_host(index, NodeType("c"), 0.9) is None
