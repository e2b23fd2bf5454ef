"""Tests for the LSH substrate: union-find, ELSH, MinHash, bucketing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.buckets import (
    cluster_by_band_union,
    cluster_by_full_signature,
    cluster_by_table_union,
    groups_from_assignment,
)
from repro.lsh.elsh import EuclideanLSH
from repro.lsh.minhash import MinHashLSH
from repro.lsh.unionfind import UnionFind
from tests.oracles.kernels import signatures_reference


class TestUnionFind:
    def test_initial_components(self):
        uf = UnionFind(5)
        assert uf.num_components == 5
        assert not uf.connected(0, 1)

    def test_union_and_find(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.connected(0, 1)
        assert not uf.union(0, 1)  # already merged
        assert uf.num_components == 4

    def test_transitivity(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)
        assert not uf.connected(0, 3)

    def test_components_listing(self):
        uf = UnionFind(4)
        uf.union(0, 2)
        components = uf.components()
        sizes = sorted(len(m) for m in components.values())
        assert sizes == [1, 1, 2]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    @given(st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=50
    ))
    def test_components_partition_invariant(self, pairs):
        """Union-find always partitions the universe."""
        uf = UnionFind(20)
        for a, b in pairs:
            uf.union(a, b)
        components = uf.components()
        members = sorted(m for group in components.values() for m in group)
        assert members == list(range(20))
        assert uf.num_components == len(components)


class TestEuclideanLSH:
    def test_signature_shape(self):
        lsh = EuclideanLSH(dimension=4, bucket_length=1.0, num_tables=7)
        sigs = lsh.signatures(np.random.default_rng(0).normal(size=(10, 4)))
        assert sigs.shape == (10, 7)
        assert sigs.dtype == np.int64

    def test_identical_vectors_identical_signatures(self):
        lsh = EuclideanLSH(dimension=3, bucket_length=2.0, num_tables=5)
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(lsh.signature(v), lsh.signature(v.copy()))

    def test_nearby_vectors_mostly_collide(self):
        lsh = EuclideanLSH(dimension=8, bucket_length=5.0, num_tables=20, seed=1)
        base = np.ones(8)
        near = base + 0.01
        agreement = np.mean(lsh.signature(base) == lsh.signature(near))
        assert agreement > 0.9

    def test_distant_vectors_mostly_differ(self):
        lsh = EuclideanLSH(dimension=8, bucket_length=0.5, num_tables=20, seed=1)
        a = np.zeros(8)
        b = np.full(8, 10.0)
        agreement = np.mean(lsh.signature(a) == lsh.signature(b))
        assert agreement < 0.3

    def test_collision_probability_monotone_in_distance(self):
        lsh = EuclideanLSH(dimension=2, bucket_length=1.0, num_tables=3)
        probs = [lsh.collision_probability(d) for d in (0.0, 0.5, 1.0, 3.0)]
        assert probs[0] == 1.0
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_or_and_composition_bounds(self):
        lsh = EuclideanLSH(dimension=2, bucket_length=1.0, num_tables=4)
        p = lsh.collision_probability(0.8)
        assert lsh.and_collision_probability(0.8) == pytest.approx(p ** 4)
        assert lsh.or_collision_probability(0.8) == pytest.approx(
            1 - (1 - p) ** 4
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EuclideanLSH(0, 1.0, 1)
        with pytest.raises(ValueError):
            EuclideanLSH(2, 0.0, 1)
        with pytest.raises(ValueError):
            EuclideanLSH(2, 1.0, 0)

    def test_dimension_mismatch(self):
        lsh = EuclideanLSH(dimension=3, bucket_length=1.0, num_tables=2)
        with pytest.raises(ValueError, match="dimension"):
            lsh.signatures(np.zeros((2, 4)))


class TestMinHash:
    def test_identical_sets_identical_signatures(self):
        mh = MinHashLSH(num_hashes=16, seed=2)
        assert np.array_equal(mh.signature({1, 2, 3}), mh.signature({3, 2, 1}))

    def test_empty_sets_collide_with_each_other_only(self):
        mh = MinHashLSH(num_hashes=8)
        empty_a, empty_b = mh.signature(set()), mh.signature(set())
        assert np.array_equal(empty_a, empty_b)
        assert not np.array_equal(empty_a, mh.signature({5}))

    def test_jaccard_estimation_accuracy(self):
        mh = MinHashLSH(num_hashes=512, seed=3)
        a = set(range(100))
        b = set(range(50, 150))  # true J = 50/150 = 1/3
        estimate = MinHashLSH.estimate_jaccard(mh.signature(a), mh.signature(b))
        assert abs(estimate - 1 / 3) < 0.08

    def test_disjoint_sets_rarely_agree(self):
        mh = MinHashLSH(num_hashes=128, seed=4)
        estimate = MinHashLSH.estimate_jaccard(
            mh.signature(set(range(50))),
            mh.signature(set(range(1000, 1050))),
        )
        assert estimate < 0.1

    @given(
        st.sets(st.integers(0, 10_000), min_size=1, max_size=30),
        st.sets(st.integers(0, 10_000), min_size=1, max_size=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_estimate_within_sampling_noise(self, a, b):
        """MinHash estimate stays within binomial noise of true Jaccard."""
        mh = MinHashLSH(num_hashes=256, seed=7)
        true_j = len(a & b) / len(a | b)
        estimate = MinHashLSH.estimate_jaccard(mh.signature(a), mh.signature(b))
        assert abs(estimate - true_j) < 0.25

    def test_invalid_num_hashes(self):
        with pytest.raises(ValueError):
            MinHashLSH(0)

    def test_signature_length_mismatch(self):
        mh = MinHashLSH(4)
        with pytest.raises(ValueError):
            MinHashLSH.estimate_jaccard(
                mh.signature({1}), MinHashLSH(8).signature({1})
            )

    def test_signatures_empty_input_returns_0xT(self):
        """Regression: signatures([]) used to crash in np.vstack."""
        mh = MinHashLSH(num_hashes=12, seed=1)
        batch = mh.signatures([])
        assert batch.shape == (0, 12)
        assert batch.dtype == np.int64
        reference = signatures_reference(mh, [])
        assert reference.shape == (0, 12)
        assert reference.dtype == np.int64

    def test_signatures_all_empty_sets(self):
        mh = MinHashLSH(num_hashes=6, seed=2)
        batch = mh.signatures([set(), set()])
        assert np.array_equal(
            batch, signatures_reference(mh, [set(), set()])
        )

    @given(
        st.lists(
            st.sets(st.integers(0, 5_000), max_size=20),
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_signatures_match_reference(self, sets):
        """The CSR/reduceat batch kernel is bit-equal to the per-set loop."""
        mh = MinHashLSH(num_hashes=9, seed=5)
        batch = mh.signatures(sets)
        reference = signatures_reference(mh, sets)
        assert batch.dtype == reference.dtype
        assert np.array_equal(batch, reference)


class TestBuckets:
    def test_full_signature_groups_equal_rows(self):
        sigs = np.array([[1, 2], [1, 2], [3, 4], [1, 2], [3, 5]])
        assignment = cluster_by_full_signature(sigs)
        assert assignment.tolist() == [0, 0, 1, 0, 2]

    def test_table_union_merges_on_any_column(self):
        sigs = np.array([[1, 9], [1, 8], [2, 8], [3, 7]])
        # rows 0-1 share col0, rows 1-2 share col1 -> {0,1,2}, {3}
        assignment = cluster_by_table_union(sigs)
        assert assignment[0] == assignment[1] == assignment[2]
        assert assignment[3] != assignment[0]

    def test_band_union_requires_full_band(self):
        sigs = np.array([
            [1, 2, 3, 4],
            [1, 2, 9, 9],
            [5, 5, 3, 4],
            [7, 7, 7, 7],
        ])
        assignment = cluster_by_band_union(sigs, rows_per_band=2)
        # row0/row1 share band (1,2); row0/row2 share band (3,4).
        assert assignment[0] == assignment[1] == assignment[2]
        assert assignment[3] != assignment[0]

    def test_band_rows_validation(self):
        with pytest.raises(ValueError):
            cluster_by_band_union(np.zeros((2, 4), dtype=int), 0)

    def test_groups_from_assignment(self):
        groups = groups_from_assignment(np.array([0, 1, 0, 2]))
        assert groups == [[0, 2], [1], [3]]

    def test_more_tables_more_selective_under_and(self):
        """AND-composition: adding tables never merges more."""
        rng = np.random.default_rng(5)
        data = rng.normal(size=(60, 6))
        few = EuclideanLSH(6, 2.0, 3, seed=9)
        many = EuclideanLSH(6, 2.0, 12, seed=9)
        n_few = len(set(cluster_by_full_signature(
            few.signatures(data)).tolist()))
        n_many = len(set(cluster_by_full_signature(
            many.signatures(data)).tolist()))
        assert n_many >= n_few
