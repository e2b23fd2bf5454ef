"""End-to-end tests for the PGHive pipeline (Algorithm 1)."""

import pytest

from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.pipeline import PGHive
from repro.datasets import get_dataset, inject_noise
from repro.evaluation.f1star import majority_f1
from repro.graph.store import GraphStore


class TestStaticDiscovery:
    def test_clean_pole_is_perfect(self):
        dataset = get_dataset("POLE", scale=0.4, seed=3)
        result = PGHive().discover(GraphStore(dataset.graph))
        node_scores = majority_f1(result.node_assignment, dataset.truth.node_types)
        edge_scores = majority_f1(result.edge_assignment, dataset.truth.edge_types)
        assert node_scores.headline == pytest.approx(1.0)
        assert edge_scores.headline == pytest.approx(1.0)
        assert result.num_node_types == 11

    def test_minhash_variant(self):
        dataset = get_dataset("POLE", scale=0.4, seed=3)
        config = PGHiveConfig(method=LSHMethod.MINHASH)
        result = PGHive(config).discover(GraphStore(dataset.graph))
        scores = majority_f1(result.node_assignment, dataset.truth.node_types)
        assert scores.headline == pytest.approx(1.0)

    def test_string_method_accepted(self):
        config = PGHiveConfig(method="minhash")
        assert config.method is LSHMethod.MINHASH

    def test_every_element_assigned(self, figure1_store):
        result = PGHive().discover(figure1_store)
        assert set(result.node_assignment) == set(range(7))
        assert set(result.edge_assignment) == set(range(6))

    def test_determinism(self, figure1_store):
        first = PGHive().discover(figure1_store)
        second = PGHive().discover(figure1_store)
        assert first.node_assignment == second.node_assignment
        assert set(first.schema.node_types) == set(second.schema.node_types)

    def test_noise_robustness_with_full_labels(self):
        dataset = inject_noise(
            get_dataset("POLE", scale=0.4, seed=3), 0.4, 1.0, seed=4
        )
        result = PGHive().discover(GraphStore(dataset.graph))
        scores = majority_f1(result.node_assignment, dataset.truth.node_types)
        assert scores.headline >= 0.95

    def test_zero_label_availability_still_works(self):
        dataset = inject_noise(
            get_dataset("POLE", scale=0.4, seed=3), 0.0, 0.0, seed=4
        )
        result = PGHive().discover(GraphStore(dataset.graph))
        scores = majority_f1(result.node_assignment, dataset.truth.node_types)
        assert scores.headline >= 0.85
        # All discovered node types must be ABSTRACT (no labels exist).
        assert all(t.abstract for t in result.schema.node_types.values())

    def test_manual_lsh_parameters_respected(self, figure1_store):
        config = PGHiveConfig(bucket_length=5.0, num_tables=19)
        result = PGHive(config).discover(figure1_store)
        assert "b=5.000 T=19" in result.parameters["batch0/nodes"]

    def test_timings_recorded(self, figure1_store):
        result = PGHive().discover(figure1_store)
        assert result.total_seconds > 0
        assert 0 < result.discovery_seconds <= result.total_seconds
        assert len(result.batches) == 1

    def test_empty_graph(self):
        from repro.graph.model import PropertyGraph

        result = PGHive().discover(GraphStore(PropertyGraph()))
        assert result.num_node_types == 0
        assert result.num_edge_types == 0


class TestConfigValidation:
    def test_no_kernels_field(self):
        with pytest.raises(TypeError):
            PGHiveConfig(kernels="reference")

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            PGHiveConfig(jaccard_threshold=1.5)

    def test_bad_bucket_length(self):
        with pytest.raises(ValueError):
            PGHiveConfig(bucket_length=-1.0)

    def test_bad_num_tables(self):
        with pytest.raises(ValueError):
            PGHiveConfig(num_tables=0)

    def test_bad_label_weight(self):
        with pytest.raises(ValueError):
            PGHiveConfig(label_weight=-0.1)

    def test_bad_endpoint_threshold(self):
        with pytest.raises(ValueError):
            PGHiveConfig(endpoint_jaccard_threshold=2.0)

    def test_unknown_method_string(self):
        with pytest.raises(ValueError):
            PGHiveConfig(method="simhash")
