"""One map-then-fold driver and one journal, at every ``jobs``.

Every engine maps batches to shard results and folds them in batch
order through :meth:`repro.core.pipeline.PGHive.drive`; only the
executor differs (in-process for ``jobs=1``, a fork pool otherwise).
The journal in ``checkpoint_dir`` -- the folded prefix plus completed
shards that could not be folded yet -- therefore has one format, and a
run killed at one ``jobs`` resumes at another to the same bytes.
"""

import copy
import shutil
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LSHMethod, PGHive, PGHiveConfig
from repro.core.faults import InjectedFault
from repro.core.incremental import IncrementalDiscovery
from repro.core.parallel import (
    ShardResult,
    combine_shard_results,
    fork_available,
)
from repro.core.result import ShardFailure
from repro.datasets import get_dataset, inject_noise
from repro.embeddings.word2vec import Word2VecConfig
from repro.graph.diskstore import ingest_jsonl_slabs, write_graph_to_slabs
from repro.graph.io import save_graph_jsonl
from repro.graph.store import GraphStore
from repro.schema.persist import SchemaPersistError
from repro.schema.serialize_pgschema import serialize_pg_schema

NUM_BATCHES = 4

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the pool executor requires fork"
)


def _graph(seed, noise=0.0):
    """LDBC under one name, so only the content tells two inputs apart."""
    dataset = get_dataset("ldbc", scale=0.5, seed=seed)
    if noise:
        dataset = inject_noise(dataset, property_noise=noise, seed=seed)
    return dataset.graph.copy(name="g")


@pytest.fixture(scope="module")
def graph():
    return _graph(1)


@pytest.fixture(scope="module")
def clean_bytes(graph):
    return serialize_pg_schema(
        PGHive(PGHiveConfig()).discover_incremental(
            GraphStore(graph), num_batches=NUM_BATCHES
        ).schema
    )


@needs_fork
@pytest.mark.parametrize("backend", ["memory", "disk"])
@pytest.mark.parametrize("crash_jobs, resume_jobs", [(1, 2), (2, 1)])
def test_crash_at_one_jobs_resumes_at_the_other(
    tmp_path, graph, clean_bytes, backend, crash_jobs, resume_jobs
):
    """The ``batch`` fault fires in the driver's fold at any jobs; the
    resume keeps the folded prefix and prints the clean bytes."""
    store = GraphStore(graph)
    if backend == "disk":
        store = write_graph_to_slabs(graph, tmp_path / "slabs")
    ckpt = str(tmp_path / "ckpt")
    with pytest.raises(InjectedFault):
        PGHive(PGHiveConfig(
            jobs=crash_jobs, checkpoint_dir=ckpt, faults="batch:2:raise"
        )).discover_incremental(store, num_batches=NUM_BATCHES)
    resumed = PGHive(PGHiveConfig(
        jobs=resume_jobs, checkpoint_dir=ckpt
    )).discover_incremental(store, num_batches=NUM_BATCHES, resume=True)
    assert resumed.resumed_from == 2
    assert resumed.resumed_shards[:2] == [0, 1]
    assert [r.index for r in resumed.batches] == list(range(NUM_BATCHES))
    assert serialize_pg_schema(resumed.schema) == clean_bytes
    if backend == "disk":
        store.close()


@needs_fork
@pytest.mark.parametrize("first_jobs, fresh_jobs", [(1, 2), (2, 1)])
def test_fresh_run_leaves_no_state_for_the_other_jobs(
    tmp_path, graph, first_jobs, fresh_jobs
):
    """A fresh run clears the whole journal, so resuming it at the
    other jobs prints the current input's schema, not the old one's."""
    ckpt = str(tmp_path / "ckpt")
    PGHive(PGHiveConfig(
        jobs=first_jobs, checkpoint_dir=ckpt
    )).discover_incremental(GraphStore(graph), num_batches=NUM_BATCHES)
    current = GraphStore(_graph(2, noise=0.3))
    PGHive(PGHiveConfig(
        jobs=fresh_jobs, checkpoint_dir=ckpt
    )).discover_incremental(current, num_batches=NUM_BATCHES)
    resumed = PGHive(PGHiveConfig(
        jobs=first_jobs, checkpoint_dir=ckpt
    )).discover_incremental(current, num_batches=NUM_BATCHES, resume=True)
    expected = PGHive(PGHiveConfig()).discover_incremental(
        current, num_batches=NUM_BATCHES
    )
    assert serialize_pg_schema(resumed.schema) == serialize_pg_schema(
        expected.schema
    )
    assert resumed.resumed_shards == list(range(NUM_BATCHES))


def test_edited_input_refuses_the_journal(tmp_path, graph):
    """The memory store's content fingerprint is in the run context, so
    an edited input under the same name cannot resume a mixed schema."""
    ckpt = str(tmp_path / "ckpt")
    with pytest.raises(InjectedFault):
        PGHive(PGHiveConfig(
            checkpoint_dir=ckpt, faults="batch:2:raise"
        )).discover_incremental(GraphStore(graph), num_batches=NUM_BATCHES)
    edited = GraphStore(_graph(2, noise=0.3))
    with pytest.raises(SchemaPersistError, match="'store'"):
        PGHive(PGHiveConfig(checkpoint_dir=ckpt)).discover_incremental(
            edited, num_batches=NUM_BATCHES, resume=True
        )


def _crash_at_batch_2(store, ckpt, **settings):
    with pytest.raises(InjectedFault):
        PGHive(PGHiveConfig(
            checkpoint_dir=ckpt, faults="batch:2:raise", **settings
        )).discover_incremental(store, num_batches=NUM_BATCHES)


@pytest.fixture(scope="module")
def ldbc_jsonl(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("jsonl") / "g.jsonl"
    save_graph_jsonl(graph, path)
    return path


def test_disk_journal_refuses_a_same_size_edit(tmp_path, ldbc_jsonl):
    """The slab fingerprint digests the whole-file checksums and the
    interned label sets, so renaming one node's label to another of the
    same length (same rows, same heap bytes) refuses the journal."""
    path = tmp_path / "g.jsonl"
    shutil.copy(ldbc_jsonl, path)
    ckpt = str(tmp_path / "ckpt")
    store = ingest_jsonl_slabs(path, tmp_path / "slabs")
    _crash_at_batch_2(store, ckpt)
    store.close()
    text = path.read_text(encoding="utf-8")
    edited = text.replace('"labels": ["Person"]', '"labels": ["Persom"]', 1)
    assert edited != text and len(edited) == len(text)
    path.write_text(edited, encoding="utf-8")
    store = ingest_jsonl_slabs(path, tmp_path / "slabs")
    with pytest.raises(SchemaPersistError, match="'store'"):
        PGHive(PGHiveConfig(checkpoint_dir=ckpt)).discover_incremental(
            store, num_batches=NUM_BATCHES, resume=True
        )
    store.close()


@pytest.mark.parametrize("resume_slab_bytes", [None, 1 << 16])
def test_disk_journal_resumes_a_reingested_input(
    tmp_path, ldbc_jsonl, resume_slab_bytes
):
    """An unedited input resumes to the clean bytes, also when it is
    re-ingested with another ``slab_bytes``: the commit cadence changes
    the manifest's generations, not the fingerprint."""
    clean_store = ingest_jsonl_slabs(ldbc_jsonl, tmp_path / "clean")
    clean = serialize_pg_schema(PGHive(PGHiveConfig()).discover_incremental(
        clean_store, num_batches=NUM_BATCHES
    ).schema)
    clean_store.close()
    ckpt = str(tmp_path / "ckpt")
    store = ingest_jsonl_slabs(ldbc_jsonl, tmp_path / "slabs")
    _crash_at_batch_2(store, ckpt)
    store.close()
    store = ingest_jsonl_slabs(
        ldbc_jsonl, tmp_path / "slabs",
        **({} if resume_slab_bytes is None
           else {"slab_bytes": resume_slab_bytes}),
    )
    resumed = PGHive(PGHiveConfig(checkpoint_dir=ckpt)).discover_incremental(
        store, num_batches=NUM_BATCHES, resume=True
    )
    store.close()
    assert resumed.resumed_from == 2
    assert serialize_pg_schema(resumed.schema) == clean


@pytest.fixture(scope="module")
def noisy_iyp():
    dataset = get_dataset("iyp", scale=0.5, seed=7)
    return GraphStore(inject_noise(
        dataset, property_noise=0.2, label_availability=0.5, seed=8
    ).graph)


@pytest.fixture(scope="module")
def elsh_crash(tmp_path_factory, noisy_iyp):
    """A journal of an ELSH run killed at batch 2."""
    ckpt = tmp_path_factory.mktemp("elsh") / "ckpt"
    _crash_at_batch_2(noisy_iyp, str(ckpt))
    return ckpt


@pytest.mark.parametrize("key, value", [
    ("method", LSHMethod.MINHASH),
    ("label_weight", 2.0),
    ("jaccard_threshold", 0.8),
    ("endpoint_jaccard_threshold", 0.4),
    ("bucket_length", 1.5),
    ("num_tables", 9),
    ("alpha", 0.5),
    ("adaptive_sample_size", 200),
    ("adaptive_sample_fraction", 0.05),
    ("minhash_rows_per_band", 4),
    ("memoize_patterns", True),
    ("word2vec", Word2VecConfig(dimension=8)),
])
def test_resume_refuses_other_discovery_settings(
    tmp_path, noisy_iyp, elsh_crash, key, value
):
    """Batches discovered one way never fold with batches discovered
    another: each discovery setting is in the run context, and a
    resume that changes it is refused by name."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(elsh_crash, ckpt)
    with pytest.raises(SchemaPersistError, match=f"'{key}'"):
        PGHive(PGHiveConfig(
            checkpoint_dir=str(ckpt), **{key: value}
        )).discover_incremental(
            noisy_iyp, num_batches=NUM_BATCHES, resume=True
        )


NUM_SHARDS = 6


@pytest.fixture(scope="module")
def shard_results():
    """Every shard of a small graph, discovered independently."""
    config = PGHiveConfig()
    store = GraphStore(get_dataset("ldbc", scale=0.5, seed=3).graph)
    engine = IncrementalDiscovery(config, name="shard")
    results = []
    for plan in store.plan_shards(NUM_SHARDS, seed=config.seed):
        batch = store.materialize_shard(plan)
        shard = engine.map_batch(
            batch.nodes, batch.edges, batch.endpoint_labels, plan.index
        )
        results.append(shard)
    return store, results


class _PermutedExecutor:
    """Yields prepared shard results in a given completion order and
    checks, before each yield, what the driver still holds."""

    def __init__(self, shards, order, failed):
        self.shards = shards
        self.order = order
        self.failed = failed

    def map(self, store, plans):
        assert [plan.index for plan in plans] == list(range(NUM_SHARDS))
        held = {}
        yielded = set()
        for step, index in enumerate(self.order):
            prefix = min(
                set(range(NUM_SHARDS)) - yielded, default=NUM_SHARDS
            )
            for earlier, ref in held.items():
                if earlier == self.order[step - 1]:
                    continue  # the driver's loop variable still names it
                assert (ref() is not None) == (earlier > prefix), (
                    f"step {step}: shard {earlier} held={ref() is not None} "
                    f"with folded prefix {prefix}"
                )
            if index in self.failed:
                failure = ShardFailure(index, 0, "error", "injected")
                shard = ShardResult(index, None, None, failures=[failure])
            else:
                shard = copy.deepcopy(self.shards[index])
            held[index] = weakref.ref(shard)
            yielded.add(index)
            yield shard
            del shard


@settings(max_examples=25, deadline=None)
@given(
    order=st.permutations(range(NUM_SHARDS)),
    failed=st.sets(st.integers(0, NUM_SHARDS - 1), max_size=1),
)
def test_any_completion_order_folds_like_the_sorted_fold(
    shard_results, order, failed
):
    """The driver folds each result once every lower index is folded or
    failed: the schema equals the sorted fold byte for byte, and the
    driver never holds a result below its folded prefix."""
    store, shards = shard_results
    config = PGHiveConfig()
    result = PGHive(config).drive(
        store, NUM_SHARDS, pool=_PermutedExecutor(shards, order, failed)
    )
    expected = combine_shard_results(
        store.name,
        [copy.deepcopy(s) for s in shards if s.index not in failed],
        config,
    )
    assert serialize_pg_schema(result.schema) == serialize_pg_schema(
        expected
    )
    assert [r.index for r in result.batches] == sorted(
        set(range(NUM_SHARDS)) - failed
    )
    assert result.degraded_shards == sorted(failed)

