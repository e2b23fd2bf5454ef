"""Figure 6: F1* heatmaps over the (T, alpha) grid vs the adaptive choice.

For each dataset (0 % noise, 100 % labels, ELSH) we sweep the number of
hash tables T and the bucket-length factor alpha, print the resulting F1*
heatmap with the adaptive configuration marked, and check the paper's
conclusion: the adaptive choice lands within a small margin of the best
grid cell on every dataset.
"""

from __future__ import annotations

from repro.core.adaptive import choose_parameters, estimate_distance_scale
from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.pipeline import PGHive
from repro.datasets import get_dataset
from repro.evaluation.f1star import majority_f1
from repro.graph.store import GraphStore
from repro.util.tables import render_table

T_GRID = (15, 20, 25, 30, 35)
ALPHA_GRID = (0.5, 0.8, 1.0, 1.5, 2.0)


def _run_with(dataset, bucket_length, num_tables):
    config = PGHiveConfig(
        method=LSHMethod.ELSH,
        bucket_length=bucket_length,
        num_tables=num_tables,
        post_processing=False,
    )
    result = PGHive(config).discover(GraphStore(dataset.graph))
    return majority_f1(result.node_assignment, dataset.truth.node_types).headline


def test_fig6_parameter_heatmap(benchmark, scale, datasets):
    def sweep():
        outcome = {}
        for name in datasets:
            dataset = get_dataset(name, scale=min(scale, 0.4), seed=1)
            # The alpha grid scales the same adaptive base bucket (1.2 mu)
            # the pipeline would use, so the axes match section 4.2.
            from repro.core.columns import edge_columns, node_columns
            from repro.core.incremental import IncrementalDiscovery

            nodes = list(dataset.graph.nodes())
            embedder, _ = IncrementalDiscovery()._fit_embedder_columns(
                node_columns(nodes),
                edge_columns(
                    list(dataset.graph.edges()),
                    {n.id: n.labels for n in nodes},
                ),
            )
            from repro.core.vectorize import NodeVectorizer

            keys = sorted({k for n in nodes for k in n.properties})
            vectors = NodeVectorizer(keys, embedder).vectorize(nodes)
            mu, _ = estimate_distance_scale(vectors, 500, 0.01)
            b_base = 1.2 * mu
            grid_scores = {}
            for alpha in ALPHA_GRID:
                for num_tables in T_GRID:
                    grid_scores[(alpha, num_tables)] = _run_with(
                        dataset, b_base * alpha, num_tables
                    )
            num_labels = len(dataset.graph.node_labels())
            adaptive = choose_parameters(vectors, num_labels)
            adaptive_f1 = _run_with(
                dataset, adaptive.bucket_length, adaptive.num_tables
            )
            outcome[name] = (grid_scores, adaptive, adaptive_f1)
        return outcome

    outcome = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    for name, (grid_scores, adaptive, adaptive_f1) in outcome.items():
        rows = []
        for alpha in ALPHA_GRID:
            row = [f"a={alpha}"]
            for num_tables in T_GRID:
                marker = ""
                if (
                    abs(alpha - adaptive.alpha) < 1e-9
                    and num_tables == adaptive.num_tables
                ):
                    marker = " x"
                row.append(f"{grid_scores[(alpha, num_tables)]:.3f}{marker}")
            rows.append(row)
        best = max(grid_scores.values())
        print(render_table(
            ["", *(f"T={t}" for t in T_GRID)],
            rows,
            f"Figure 6 {name}: best={best:.3f} "
            f"adaptive={adaptive_f1:.3f} "
            f"(adaptive a={adaptive.alpha}, T={adaptive.num_tables})",
        ))
        print()
        # Paper: the adaptive choice is close to the best-performing cell.
        assert adaptive_f1 >= best - 0.05, (name, adaptive_f1, best)
