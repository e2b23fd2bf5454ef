"""Experiment harness: run systems over dataset/noise/label grids.

The benchmark scripts (one per paper table/figure) are thin wrappers over
:func:`run_grid`, which executes every combination of dataset, method,
noise level and label availability and records F1* and wall-clock time.
Methods that cannot handle a configuration (GMMSchema and SchemI below
100 % label availability) are recorded as skipped, mirroring the missing
lines in the paper's figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines import GMMSchema, SchemI, UnsupportedDataError
from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.incremental import preload_engine_imports
from repro.core.pipeline import PGHive
from repro.core.result import DiscoveryResult
from repro.datasets import GeneratedDataset, get_dataset, inject_noise
from repro.evaluation.f1star import majority_f1
from repro.graph.io import IngestReport
from repro.graph.store import GraphStore

METHOD_ELSH = "PG-HIVE-ELSH"
METHOD_MINHASH = "PG-HIVE-MinHash"
METHOD_GMM = "GMMSchema"
METHOD_SCHEMI = "SchemI"

ALL_METHODS = (METHOD_ELSH, METHOD_MINHASH, METHOD_GMM, METHOD_SCHEMI)


@dataclass(frozen=True, slots=True)
class Measurement:
    """One (dataset, method, noise, availability) observation.

    ``shard_failure_events`` counts the failure records a fault-tolerant
    parallel run accumulated (0 for clean and sequential runs);
    ``degraded_shards`` counts shards that never contributed a schema, so
    a nonzero value flags a potentially incomplete measurement.
    ``ingest_errors`` carries the rejected-line count of the run's
    :class:`~repro.graph.io.IngestReport` when the caller loaded the
    dataset from disk (0 when ingestion was clean or synthetic).
    """

    dataset: str
    method: str
    noise: float
    label_availability: float
    skipped: bool = False
    node_f1: float = 0.0  # headline (micro) F1*
    edge_f1: float | None = None
    node_f1_macro: float = 0.0
    edge_f1_macro: float | None = None
    seconds: float = 0.0
    num_node_types: int = 0
    num_edge_types: int = 0
    shard_failure_events: int = 0
    degraded_shards: int = 0
    ingest_errors: int = 0


@dataclass
class ExperimentGrid:
    """A sweep specification."""

    datasets: tuple[str, ...]
    methods: tuple[str, ...] = ALL_METHODS
    noise_levels: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4)
    label_availabilities: tuple[float, ...] = (1.0, 0.5, 0.0)
    scale: float = 1.0
    seed: int = 1
    noise_seed: int = 2
    pghive_config: dict[str, object] = field(default_factory=dict)


def make_system(
    method: str, config_overrides: dict[str, object] | None = None
) -> PGHive | GMMSchema | SchemI:
    """Instantiate a discovery system by method name."""
    overrides = dict(config_overrides or {})
    lsh = {METHOD_ELSH: LSHMethod.ELSH, METHOD_MINHASH: LSHMethod.MINHASH}
    if method in lsh:
        # One-time lazy imports stay out of run_system's timed region.
        preload_engine_imports(lsh[method])
        return PGHive(PGHiveConfig(method=lsh[method], **overrides))
    if method == METHOD_GMM:
        return GMMSchema()
    if method == METHOD_SCHEMI:
        return SchemI()
    raise ValueError(f"unknown method {method!r}")


def run_system(
    method: str,
    dataset: GeneratedDataset,
    noise: float = 0.0,
    label_availability: float = 1.0,
    config_overrides: dict[str, object] | None = None,
    ingest_report: IngestReport | None = None,
) -> Measurement:
    """Run one system on one (possibly noisy) dataset configuration.

    Pass the :class:`~repro.graph.io.IngestReport` of a lenient disk load
    as ``ingest_report`` to surface its rejected-record count in the
    measurement (synthetic datasets have none).
    """
    system = make_system(method, config_overrides)
    store = GraphStore(dataset.graph)
    ingest_errors = len(ingest_report.errors) if ingest_report else 0
    started = time.perf_counter()
    try:
        result: DiscoveryResult = system.discover(store)
    except UnsupportedDataError:
        return Measurement(
            dataset=dataset.spec.name,
            method=method,
            noise=noise,
            label_availability=label_availability,
            skipped=True,
            ingest_errors=ingest_errors,
        )
    elapsed = time.perf_counter() - started
    node_scores = majority_f1(result.node_assignment, dataset.truth.node_types)
    if result.edge_assignment:
        edge_scores = majority_f1(
            result.edge_assignment, dataset.truth.edge_types
        )
        edge_f1: float | None = edge_scores.headline
        edge_macro: float | None = edge_scores.macro_f1
    else:
        edge_f1 = None
        edge_macro = None
    return Measurement(
        dataset=dataset.spec.name,
        method=method,
        noise=noise,
        label_availability=label_availability,
        node_f1=node_scores.headline,
        edge_f1=edge_f1,
        node_f1_macro=node_scores.macro_f1,
        edge_f1_macro=edge_macro,
        seconds=elapsed,
        num_node_types=len(result.schema.node_types),
        num_edge_types=len(result.schema.edge_types),
        shard_failure_events=len(result.shard_failures),
        degraded_shards=len(result.degraded_shards),
        ingest_errors=ingest_errors,
    )


def run_grid(grid: ExperimentGrid) -> list[Measurement]:
    """Execute a full sweep; clean datasets are generated once per name."""
    measurements: list[Measurement] = []
    for dataset_name in grid.datasets:
        clean = get_dataset(dataset_name, scale=grid.scale, seed=grid.seed)
        for availability in grid.label_availabilities:
            for noise in grid.noise_levels:
                noisy = inject_noise(
                    clean,
                    property_noise=noise,
                    label_availability=availability,
                    seed=grid.noise_seed,
                )
                for method in grid.methods:
                    measurements.append(run_system(
                        method,
                        noisy,
                        noise=noise,
                        label_availability=availability,
                        config_overrides=grid.pghive_config,
                    ))
    return measurements
