"""Tests for adaptive LSH parameterization (section 4.2)."""

import numpy as np
import pytest

from repro.core.adaptive import (
    AdaptiveParameters,
    choose_num_tables,
    choose_parameters,
    estimate_distance_scale,
    label_alpha,
)
from tests.oracles.kernels import estimate_distance_scale_reference


class TestLabelAlpha:
    def test_few_labels_tighter_buckets(self):
        assert label_alpha(0) == 0.8
        assert label_alpha(3) == 0.8

    def test_medium_labels_neutral(self):
        assert label_alpha(4) == 1.0
        assert label_alpha(10) == 1.0

    def test_many_labels_wider_buckets(self):
        assert label_alpha(11) == 1.5
        assert label_alpha(100) == 1.5


class TestDistanceScale:
    def test_known_configuration(self):
        # Two points at distance 3: mu must be exactly 3.
        vectors = np.array([[0.0, 0.0], [3.0, 0.0]])
        mu, size = estimate_distance_scale(vectors, 10, 1.0)
        assert mu == pytest.approx(3.0)
        assert size == 2

    def test_identical_points_floor(self):
        vectors = np.zeros((5, 3))
        mu, _ = estimate_distance_scale(vectors, 10, 1.0)
        assert mu > 0.0  # floored, never zero

    def test_sampling_respects_minimum(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(1000, 4))
        _, size = estimate_distance_scale(
            vectors, sample_size=50, fraction=0.01
        )
        assert size == 50

    def test_fraction_dominates_when_larger(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(1000, 4))
        _, size = estimate_distance_scale(
            vectors, sample_size=10, fraction=0.2
        )
        assert size == 200

    def test_empty_and_singleton(self):
        assert estimate_distance_scale(np.zeros((0, 2)), 5, 0.1)[1] == 0
        mu, size = estimate_distance_scale(np.zeros((1, 2)), 5, 0.1)
        assert size == 1 and mu > 0

    @pytest.mark.parametrize("trial", range(40))
    def test_triangle_is_bit_identical_to_full_matrix(self, trial):
        """The upper-triangle kernel returns the full-matrix ``mu`` bit
        for bit, on dense, binary and pattern-compact inputs."""
        rng = np.random.default_rng(trial)
        rows = int(rng.integers(2, 700))
        width = int(rng.integers(1, 40))
        dense = rng.normal(scale=rng.uniform(0.1, 50), size=(rows, width))
        binary = (rng.random((rows, width)) < 0.3).astype(np.float64)
        patterns = rng.normal(size=(int(rng.integers(1, 30)), width))
        pattern_ids = rng.integers(0, patterns.shape[0], size=rows)
        sample_size = int(rng.integers(2, 600))
        fraction = float(rng.uniform(0.0, 0.5))
        for vectors, ids in (
            (dense, None), (binary, None), (patterns, pattern_ids),
        ):
            args = (vectors, sample_size, fraction, trial)
            got = estimate_distance_scale(*args, pattern_ids=ids)
            want = estimate_distance_scale_reference(*args, pattern_ids=ids)
            assert got[1] == want[1]
            assert got[0].hex() == want[0].hex()


class TestChooseNumTables:
    def test_clamped_to_practical_range(self):
        assert 15 <= choose_num_tables(0.01, 0.8, 100) <= 35
        assert 15 <= choose_num_tables(1000.0, 1.5, 10**9) <= 35

    def test_edges_use_smaller_heuristic(self):
        node_t = choose_num_tables(5.0, 1.0, 10_000, "node")
        edge_t = choose_num_tables(5.0, 1.0, 10_000, "edge")
        assert edge_t <= node_t


class TestChooseParameters:
    def _vectors(self):
        rng = np.random.default_rng(1)
        return rng.normal(size=(200, 6))

    def test_adaptive_bucket_tracks_mu(self):
        params = choose_parameters(self._vectors(), num_labels=5)
        assert params.bucket_length == pytest.approx(
            1.2 * params.mu * 1.0, rel=1e-9
        )

    def test_alpha_applied(self):
        few = choose_parameters(self._vectors(), num_labels=2)
        many = choose_parameters(self._vectors(), num_labels=20)
        assert few.alpha == 0.8 and many.alpha == 1.5
        assert many.bucket_length > few.bucket_length

    def test_manual_overrides_win(self):
        params = choose_parameters(
            self._vectors(), num_labels=5,
            bucket_length=9.9, num_tables=17, alpha=1.23,
        )
        assert params.bucket_length == 9.9
        assert params.num_tables == 17
        assert params.alpha == 1.23

    def test_describe_mentions_everything(self):
        params = choose_parameters(self._vectors(), num_labels=5)
        text = params.describe()
        assert "mu=" in text and "b=" in text and "T=" in text

    def test_is_frozen_record(self):
        params = AdaptiveParameters(1.0, 20, 1.0, 1.0, 10)
        with pytest.raises(AttributeError):
            params.bucket_length = 2.0
