"""Equivalence tests: batch-vectorized kernels vs. reference loops.

Every hot-path kernel (vectorization, MinHash feature sets, banding,
label refinement, cluster summarization) has an element-at-a-time oracle
in ``tests/oracles/``; these properties assert byte-identical outputs on
random graphs, and that the production engine and the reference engine
(:class:`tests.oracles.ReferenceDiscovery`) discover byte-identical
schemas end to end.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import edge_columns, node_columns
from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.incremental import IncrementalDiscovery, _refine_by_label_ids
from repro.core.pipeline import PGHive
from repro.core.type_extraction import (
    build_edge_clusters_from_columns,
    build_node_clusters_from_columns,
)
from repro.core.vectorize import EdgeVectorizer, FeatureInterner, NodeVectorizer
from repro.datasets import get_dataset, inject_noise
from repro.embeddings.embedder import LabelEmbedder
from repro.graph.builder import GraphBuilder
from repro.graph.model import Edge, Node
from repro.graph.store import GraphStore
from repro.lsh.buckets import cluster_by_band_union
from repro.schema import serialize_pg_schema
from tests.oracles import ReferenceDiscovery, discover_reference
from tests.oracles.kernels import (
    build_edge_clusters,
    build_node_clusters,
    cluster_by_band_union_reference,
    edge_columns_reference,
    edge_feature_sets_reference,
    node_columns_reference,
    node_feature_sets_reference,
    refine_by_labels,
    vectorize_edges_reference,
    vectorize_nodes_reference,
)

#: Engine classes keyed by the mode names the loops below iterate.
ENGINES = {"vectorized": IncrementalDiscovery, "reference": ReferenceDiscovery}

_LABELS = ["Person", "Org", "Post", ""]
_KEYS = ["name", "age", "url", "score"]


def _embedder() -> LabelEmbedder:
    embedder = LabelEmbedder()
    embedder.fit_tokens([
        ["Person", "KNOWS", "Person"],
        ["Org", "AT", "Post"],
        ["Person", "LIKES", "Post"],
    ])
    return embedder


@st.composite
def node_batches(draw):
    count = draw(st.integers(0, 25))
    nodes = []
    for i in range(count):
        label = draw(st.sampled_from(_LABELS))
        keys = draw(st.sets(st.sampled_from(_KEYS), max_size=3))
        nodes.append(
            Node(i, frozenset([label] if label else []), {k: 1 for k in keys})
        )
    return nodes


@st.composite
def edge_batches(draw):
    count = draw(st.integers(0, 25))
    num_endpoints = 8
    endpoint_labels = {}
    for nid in range(num_endpoints):
        label = draw(st.sampled_from(_LABELS))
        if draw(st.booleans()):
            endpoint_labels[nid] = frozenset([label] if label else [])
    edges = []
    for i in range(count):
        label = draw(st.sampled_from(["KNOWS", "LIKES", ""]))
        keys = draw(st.sets(st.sampled_from(["since", "w"]), max_size=2))
        edges.append(Edge(
            100 + i,
            draw(st.integers(0, num_endpoints - 1)),
            draw(st.integers(0, num_endpoints - 1)),
            frozenset([label] if label else []),
            {k: 1 for k in keys},
        ))
    return edges, endpoint_labels


@st.composite
def small_graphs(draw):
    """Random small property graphs (some unlabeled, arbitrary props)."""
    num_nodes = draw(st.integers(2, 12))
    builder = GraphBuilder("random")
    for _ in range(num_nodes):
        label = draw(st.sampled_from(_LABELS))
        keys = draw(st.sets(st.sampled_from(_KEYS), max_size=3))
        builder.node([label] if label else [], {k: 1 for k in keys})
    for _ in range(draw(st.integers(0, 16))):
        label = draw(st.sampled_from(["KNOWS", "LIKES", ""]))
        keys = draw(st.sets(st.sampled_from(["since", "w"]), max_size=2))
        builder.edge(
            draw(st.integers(0, num_nodes - 1)),
            draw(st.integers(0, num_nodes - 1)),
            [label] if label else [],
            {k: 1 for k in keys},
        )
    return builder.build()


def _assert_same_columns(got, want):
    names = ["ids", "label_ids", "keyset_ids"]
    if hasattr(want, "source"):
        names += ["source", "target", "src_label_ids", "tgt_label_ids"]
    for name in names:
        assert getattr(got, name).dtype == np.int64, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.labels.sets == want.labels.sets
    assert got.labels.tokens == want.labels.tokens
    assert got.keys.sets == want.keys.sets
    assert got.keys.orders == want.keys.orders


class TestColumnizers:
    """The shared row interning columnizes as one intern per row did."""

    @settings(max_examples=60, deadline=None)
    @given(node_batches())
    def test_node_columns_match_reference(self, nodes):
        _assert_same_columns(node_columns(nodes), node_columns_reference(nodes))

    @settings(max_examples=60, deadline=None)
    @given(edge_batches())
    def test_edge_columns_match_reference(self, batch):
        edges, endpoint_labels = batch
        _assert_same_columns(
            edge_columns(edges, endpoint_labels),
            edge_columns_reference(edges, endpoint_labels),
        )


class TestVectorizeKernels:
    @settings(max_examples=40, deadline=None)
    @given(node_batches())
    def test_node_vectorize_matches_reference(self, nodes):
        vectorizer = NodeVectorizer(_KEYS, _embedder())
        batch = vectorizer.vectorize(nodes)
        reference = vectorize_nodes_reference(vectorizer, nodes)
        assert batch.tobytes() == reference.tobytes()
        if nodes:
            compact, pattern_ids = vectorizer.vectorize_patterns(
                node_columns(nodes)
            )
            assert compact[pattern_ids].tobytes() == reference.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(edge_batches())
    def test_edge_vectorize_matches_reference(self, batch):
        edges, endpoint_labels = batch
        vectorizer = EdgeVectorizer(["since", "w"], _embedder())
        vectorized = vectorizer.vectorize(edges, endpoint_labels)
        reference = vectorize_edges_reference(
            vectorizer, edges, endpoint_labels
        )
        assert vectorized.tobytes() == reference.tobytes()
        if edges:
            compact, pattern_ids = vectorizer.vectorize_patterns(
                edge_columns(edges, endpoint_labels)
            )
            assert compact[pattern_ids].tobytes() == reference.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(node_batches())
    def test_node_feature_sets_match_reference(self, nodes):
        """Sets AND interner state must match the element-order loop."""
        vectorizer = NodeVectorizer(_KEYS, _embedder())
        batch_interner = FeatureInterner()
        reference_interner = FeatureInterner()
        batch = vectorizer.feature_sets(nodes, batch_interner)
        reference = node_feature_sets_reference(
            vectorizer, nodes, reference_interner
        )
        assert batch == reference
        assert batch_interner._ids == reference_interner._ids
        if nodes:
            pattern_interner = FeatureInterner()
            compact, pattern_ids = vectorizer.feature_sets_patterns(
                node_columns(nodes), pattern_interner
            )
            assert [compact[p] for p in pattern_ids.tolist()] == reference
            assert pattern_interner._ids == reference_interner._ids

    @settings(max_examples=40, deadline=None)
    @given(edge_batches())
    def test_edge_feature_sets_match_reference(self, batch):
        edges, endpoint_labels = batch
        vectorizer = EdgeVectorizer(["since", "w"], _embedder())
        batch_interner = FeatureInterner()
        reference_interner = FeatureInterner()
        got = vectorizer.feature_sets(edges, endpoint_labels, batch_interner)
        reference = edge_feature_sets_reference(
            vectorizer, edges, endpoint_labels, reference_interner
        )
        assert got == reference
        assert batch_interner._ids == reference_interner._ids
        if edges:
            pattern_interner = FeatureInterner()
            compact, pattern_ids = vectorizer.feature_sets_patterns(
                edge_columns(edges, endpoint_labels), pattern_interner
            )
            assert [compact[p] for p in pattern_ids.tolist()] == reference
            assert pattern_interner._ids == reference_interner._ids


class TestClusteringKernels:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 40),
        st.integers(1, 20),
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
    )
    def test_band_union_matches_reference(self, n, width, rows_per_band, seed):
        signatures = np.random.default_rng(seed).integers(
            0, 4, size=(n, width)
        ).astype(np.int64)
        batch = cluster_by_band_union(signatures, rows_per_band)
        reference = cluster_by_band_union_reference(signatures, rows_per_band)
        assert np.array_equal(batch, reference)

    @settings(max_examples=40, deadline=None)
    @given(node_batches(), st.integers(0, 2**31 - 1))
    def test_refine_by_label_ids_matches_reference(self, nodes, seed):
        assignment = np.random.default_rng(seed).integers(
            0, max(1, len(nodes) // 2 + 1), size=len(nodes)
        ).astype(np.int64)
        reference = refine_by_labels(nodes, assignment)
        columns = node_columns(nodes)
        batch = _refine_by_label_ids(
            assignment, columns.label_ids, len(columns.labels)
        )
        assert np.array_equal(batch, reference)

    @settings(max_examples=40, deadline=None)
    @given(node_batches(), st.integers(0, 2**31 - 1))
    def test_node_cluster_builder_matches_reference(self, nodes, seed):
        assignment = np.random.default_rng(seed).integers(
            0, max(1, len(nodes) // 2 + 1), size=len(nodes)
        ).astype(np.int64)
        for pseudo_tag in ("", "b0"):
            reference = build_node_clusters(nodes, assignment, pseudo_tag)
            batch = build_node_clusters_from_columns(
                node_columns(nodes), assignment, pseudo_tag
            )
            assert len(batch) == len(reference)
            for got, want in zip(batch, reference):
                assert got.labels == want.labels
                assert got.property_keys == want.property_keys
                assert got.members == want.members
                assert got.property_counts == want.property_counts
                assert got.cluster_tokens == want.cluster_tokens

    @settings(max_examples=40, deadline=None)
    @given(edge_batches(), st.integers(0, 2**31 - 1))
    def test_edge_cluster_builder_matches_reference(self, batch, seed):
        edges, endpoint_labels = batch
        # Mix in a pseudo-token endpoint, as the engine's hybrid step does.
        endpoint_labels = dict(endpoint_labels)
        endpoint_labels[0] = frozenset({"~b0:ABSTRACT_NODE_1"})
        assignment = np.random.default_rng(seed).integers(
            0, max(1, len(edges) // 2 + 1), size=len(edges)
        ).astype(np.int64)
        reference = build_edge_clusters(edges, assignment, endpoint_labels)
        got_clusters = build_edge_clusters_from_columns(
            edge_columns(edges, endpoint_labels), assignment
        )
        assert len(got_clusters) == len(reference)
        for got, want in zip(got_clusters, reference):
            assert got.labels == want.labels
            assert got.property_keys == want.property_keys
            assert got.members == want.members
            assert got.property_counts == want.property_counts
            assert got.source_labels == want.source_labels
            assert got.target_labels == want.target_labels
            assert got.source_tokens == want.source_tokens
            assert got.target_tokens == want.target_tokens


class TestEndToEndEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(small_graphs())
    def test_schemas_byte_identical_elsh(self, graph):
        self._assert_modes_agree(graph, LSHMethod.ELSH)

    @settings(max_examples=15, deadline=None)
    @given(small_graphs())
    def test_schemas_byte_identical_minhash(self, graph):
        self._assert_modes_agree(graph, LSHMethod.MINHASH)

    def test_noisy_memoized_batches_byte_identical(self):
        """Noisy, half-labeled input in memoized batches: the §4.4 fold,
        memo hosts included, equals the reference's store passes."""
        graph = inject_noise(
            get_dataset("IYP", scale=0.5, seed=1),
            property_noise=0.2,
            label_availability=0.5,
            seed=1,
        ).graph
        self._assert_modes_agree(
            graph, LSHMethod.ELSH, num_batches=4, memoize_patterns=True
        )

    @staticmethod
    def _assert_modes_agree(graph, method, num_batches=1, **options):
        store = GraphStore(graph)
        config = PGHiveConfig(method=method, **options)
        production = PGHive(config).discover_incremental(
            store, num_batches
        ).schema
        reference = discover_reference(store, config, num_batches).schema
        assert serialize_pg_schema(production) == serialize_pg_schema(
            reference
        )


class TestEmbedderReuse:
    def test_stable_vocabulary_reuses_embedder(self):
        """Identical-corpus batches skip retraining and flag the report."""
        engine = IncrementalDiscovery()
        nodes = [
            Node(i, frozenset({"Person"}), {"name": 1}) for i in range(6)
        ]
        first = engine.process_batch(nodes[:3], [], None)
        second = engine.process_batch(nodes[3:], [], None)
        assert not first.embedder_reused
        assert second.embedder_reused

    def test_vocabulary_change_refits(self):
        engine = IncrementalDiscovery()
        engine.process_batch(
            [Node(0, frozenset({"Person"}), {})], [], None
        )
        report = engine.process_batch(
            [Node(1, frozenset({"Org"}), {})], [], None
        )
        assert not report.embedder_reused

    def test_reuse_chain_identical_to_refit_chain(self):
        """Reusing the cached embedder must not change any batch schema.

        The reference engine refits Word2Vec every batch; training is
        deterministic, so the reused embedder is equivalent and the
        monotone schema chain must be byte-identical.
        """
        rng = np.random.default_rng(11)
        batches = []
        for b in range(4):
            nodes = [
                Node(
                    b * 100 + i,
                    frozenset({"Person"} if i % 2 else {"Org"}),
                    {"name": 1} if i % 3 else {"age": 1},
                )
                for i in range(10)
            ]
            edges = [
                Edge(
                    b * 1000 + i,
                    b * 100 + int(rng.integers(0, 10)),
                    b * 100 + int(rng.integers(0, 10)),
                    frozenset({"KNOWS"}),
                    {},
                )
                for i in range(8)
            ]
            batches.append((nodes, edges))
        chains = {}
        for kernels in ("vectorized", "reference"):
            engine = ENGINES[kernels]()
            chain = []
            for nodes, edges in batches:
                engine.process_batch(nodes, edges, None)
                chain.append(serialize_pg_schema(engine.schema))
            chains[kernels] = chain
        assert chains["vectorized"] == chains["reference"]


class TestStageTiming:
    def test_batch_report_has_stage_seconds(self):
        for kernels in ("vectorized", "reference"):
            engine = ENGINES[kernels]()
            report = engine.process_batch(
                [Node(0, frozenset({"A"}), {"x": 1})],
                [Edge(1, 0, 0, frozenset({"R"}), {})],
                None,
            )
            for stage in ("embed", "vectorize", "cluster", "extract", "merge"):
                assert stage in report.stage_seconds, (kernels, stage)
                assert report.stage_seconds[stage] >= 0.0
            assert sum(report.stage_seconds.values()) <= report.seconds + 0.05
