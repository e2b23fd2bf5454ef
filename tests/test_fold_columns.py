"""The §4.4 column fold against the per-member object fold.

:func:`repro.core.postprocess.attach_column_stats` must attach exactly
the stats of :func:`tests.oracles.postprocess.attach_partial_stats_reference`
on every batch, from either store's ``columnize_shard``, with and
without value tracking.  The datatype shortcut it rides on
(:func:`repro.core.datatypes.join_value_type`) must classify every
string as the full cascade does, in any feed order.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.core.config import PGHiveConfig
from repro.core.datatypes import (
    infer_datatype,
    infer_value_type,
    join_types,
    join_value_type,
)
from repro.core.incremental import IncrementalDiscovery
from repro.core.postprocess import (
    attach_column_stats,
    attach_partial_stats,
    schema_stats_to_dict,
)
from repro.core.value_profiles import PropertyPartial
from repro.datasets import get_dataset, inject_noise
from repro.graph.diskstore import write_graph_to_slabs
from repro.graph.store import GraphStore
from repro.schema.model import DataType
from tests.oracles.postprocess import attach_partial_stats_reference

NUM_BATCHES = 3


def _graph(case: str):
    if case == "ldbc":
        return get_dataset("LDBC", scale=0.5, seed=3).graph
    if case == "iyp-noisy":
        return inject_noise(
            get_dataset("IYP", scale=0.5, seed=3),
            property_noise=0.2, label_availability=0.5, seed=4,
        ).graph
    if case == "pole-unlabeled":
        return inject_noise(
            get_dataset("POLE", scale=0.5, seed=3),
            label_availability=0.0, seed=4,
        ).graph
    if case == "mb6-multilabel":
        return get_dataset("MB6", scale=0.5, seed=3).graph
    raise ValueError(case)


CASES = ["ldbc", "iyp-noisy", "pole-unlabeled", "mb6-multilabel"]


@pytest.fixture(scope="module", params=CASES)
def graph(request):
    return _graph(request.param)


def _batch_schemas(store):
    """Each shard's stat-less batch schema with the shard's columns."""
    engine = IncrementalDiscovery(PGHiveConfig(), name="shard")
    for plan in store.plan_shards(NUM_BATCHES, seed=0):
        ncols, ecols, node_props, edge_props = store.columnize_shard(plan)
        schema, _ = engine.discover_batch_columns(
            ncols, ecols, batch_index=plan.index
        )
        assert all(t.stats is None for t in schema.node_types.values())
        yield plan, schema, ncols, ecols, node_props, edge_props


@pytest.mark.parametrize("track_values", [False, True])
@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_column_fold_equals_object_fold(
    graph, backend, track_values, tmp_path
):
    if backend == "memory":
        store = GraphStore(graph)
    else:
        store = write_graph_to_slabs(graph, tmp_path / "slabs")
    folded = 0
    try:
        for plan, schema, ncols, ecols, node_props, edge_props in (
            _batch_schemas(store)
        ):
            batch = store.materialize_shard(plan)
            expected = copy.deepcopy(schema)
            attach_partial_stats_reference(
                expected, batch.nodes, batch.edges, track_values
            )
            attach_column_stats(
                schema, ncols, ecols, node_props, edge_props, track_values,
            )
            assert schema_stats_to_dict(schema) == schema_stats_to_dict(
                expected
            )
            wrapped = copy.deepcopy(schema)
            attach_partial_stats(
                wrapped, batch.nodes, batch.edges, track_values
            )
            assert schema_stats_to_dict(wrapped) == schema_stats_to_dict(
                expected
            )
            folded += len(ecols)
    finally:
        if backend == "disk":
            store.close()
    assert folded  # every case has edges to count degrees over


# ----------------------------------------------------------------------
# The classification shortcut
# ----------------------------------------------------------------------
_TRICKY = [
    "2024-02-29", "2023-02-29", "2024-02-30", "2024-13-45", "2024-13-45T00:00",
    "2024-01-31T23:59:59", "2024-01-31T24:00", "2024-01-31T23:60",
    "2024-01-31T23:59:60", "2024-01-31 08:15", "2024-01-31T08:15:00.123Z",
    "2024-01-31T08:15+01:00", "2024-01-31T08:15+24:00",
    "2024-01-31T08:15-0530", " 2024-01-31T08:15:00 ", "\t2024-01-31\n",
    " 2024-01-31", "29/02/2024", "29/02/2023", "31/04/2024", "01/13/2024",
    "+12", "-7", "12", " 12 ", "1e5", "1.5", ".5", "5.", "-1.5E-3",
    "TRUE", "false", "True ", "yes", "", " ", "text", "2024", "2024-01",
    "12:30", "nan", "inf", "Nan",
]


def _corpus(seed: int, size: int = 60) -> list:
    """Valid dates and timestamps only (seed % 3 == 0), the same with
    one near miss at a random place (1), or with 30% of anything (2)."""
    rng = random.Random(seed)
    temporal = [v for v in _TRICKY if infer_value_type(v) in (
        DataType.DATE, DataType.TIMESTAMP)]
    pool = _TRICKY + [1, 2.5, 3.0, True, [1, 2]]
    noise = 0.3 if seed % 3 == 2 else 0.0
    values = [
        rng.choice(pool) if rng.random() < noise else rng.choice(temporal)
        for _ in range(size)
    ]
    if seed % 3 == 1:
        values[rng.randrange(size)] = rng.choice(
            ["2024-02-30", "2024-13-45T00:00", "2024-01-31T23:60", "+12"]
        )
    return values


def test_shortcut_classifies_as_the_cascade():
    lattice = [DataType.UNKNOWN, *(
        t for t in DataType if t is not DataType.UNKNOWN
    )]
    for value in _TRICKY:
        for current in lattice:
            assert join_value_type(current, value) == join_types(
                current, infer_value_type(value)
            ), (current, value)


@pytest.mark.parametrize("seed", range(9))
def test_every_feed_order_matches_infer_datatype(seed):
    values = _corpus(seed)
    rng = random.Random(seed)
    orders = [values, sorted(values, key=repr), values[::-1]]
    orders += [rng.sample(values, len(values)) for _ in range(4)]
    for order in orders:
        expected = infer_datatype(order)
        one_by_one = PropertyPartial()
        for value in order:
            one_by_one.observe_datatype(value)
        whole = PropertyPartial()
        whole.observe_all(order, track_values=False)
        cut = rng.randrange(len(order) + 1)
        left, right = PropertyPartial(), PropertyPartial()
        left.observe_all(order[:cut])
        right.observe_all(order[cut:])
        merged = left.merge(right)
        assert one_by_one.datatype == expected
        assert whole.datatype == expected
        assert merged.datatype == expected
        tracked = PropertyPartial()
        for value in order:
            tracked.observe(value)
        bulk = PropertyPartial()
        bulk.observe_all(order)
        # repr: a NaN bound ("nan" parses) is never equal to itself.
        assert repr(bulk.to_dict()) == repr(tracked.to_dict())
