"""Ablation: the DiscoPG-style memoization fast path.

Measures incremental discovery with and without ``memoize_patterns`` over
a 10-batch stream.  With clean, repetitive data, batches after the first
consist almost entirely of known patterns, so the fast path absorbs them
without vectorization or clustering while per-batch time collapses.  On
these fully labeled datasets the output stays identical.  On a graph with
unlabeled elements memoization changes which elements each batch's LSH
stage sees, so the unlabeled ones may cluster into different types (the
schema still validates the graph).
"""

from __future__ import annotations

from repro.core.config import PGHiveConfig
from repro.core.pipeline import PGHive
from repro.datasets import get_dataset
from repro.evaluation.f1star import majority_f1
from repro.graph.store import GraphStore
from repro.util.tables import render_table

DATASETS = ("POLE", "LDBC", "CORD19")
NUM_BATCHES = 10


def test_ablation_memoization(benchmark, scale):
    def run_all():
        outcome = {}
        for name in DATASETS:
            dataset = get_dataset(name, scale=scale, seed=1)
            store = GraphStore(dataset.graph)
            plain = PGHive(
                PGHiveConfig(post_processing=False)
            ).discover_incremental(store, NUM_BATCHES)
            memoized = PGHive(
                PGHiveConfig(post_processing=False, memoize_patterns=True)
            ).discover_incremental(store, NUM_BATCHES)
            outcome[name] = (dataset, plain, memoized)
        return outcome

    outcome = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, (dataset, plain, memoized) in outcome.items():
        plain_time = sum(r.seconds for r in plain.batches)
        memo_time = sum(r.seconds for r in memoized.batches)
        hits = sum(
            r.memo_node_hits + r.memo_edge_hits for r in memoized.batches
        )
        total = sum(r.num_nodes + r.num_edges for r in memoized.batches)
        plain_f1 = majority_f1(
            plain.node_assignment, dataset.truth.node_types
        ).headline
        memo_f1 = majority_f1(
            memoized.node_assignment, dataset.truth.node_types
        ).headline
        rows.append([
            name,
            f"{plain_time * 1000:.0f} ms",
            f"{memo_time * 1000:.0f} ms",
            f"{plain_time / max(memo_time, 1e-9):.1f}x",
            f"{hits}/{total}",
            f"{plain_f1:.3f}",
            f"{memo_f1:.3f}",
        ])
        # Identical outcome, meaningfully faster.
        assert set(plain.schema.node_types) == set(memoized.schema.node_types)
        assert memo_f1 == plain_f1
        assert memo_time < plain_time
        assert hits >= 0.5 * total

    print()
    print(render_table(
        ["dataset", "plain", "memoized", "speedup", "memo hits",
         "F1 plain", "F1 memoized"],
        rows,
        f"Ablation: incremental memoization over {NUM_BATCHES} batches",
    ))
