"""Shared fixtures: the paper's Figure 1 example graph and helpers."""

from __future__ import annotations

import os

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.model import PropertyGraph
from repro.graph.store import BaseGraphStore, GraphStore


@pytest.fixture
def figure1_graph() -> PropertyGraph:
    """The running example of the paper (Figure 1).

    Persons Bob and John (labeled), Alice (unlabeled but structurally a
    Person), an Organization, two structurally-different Posts, and a
    Place, wired with KNOWS / LIKES / WORKS_AT / LOCATED_IN edges.
    """
    b = GraphBuilder("figure1")
    bob = b.node(["Person"], {"name": "Bob", "gender": "m", "bday": "19/12/1999"})
    john = b.node(["Person"], {"name": "John", "gender": "m", "bday": "01/02/1988"})
    alice = b.node([], {"name": "Alice", "gender": "f", "bday": "05/06/1995"})
    org = b.node(["Organization"], {"name": "ICS", "url": "https://ics.example"})
    post_img = b.node(["Post"], {"imgFile": "cat.png"})
    post_txt = b.node(["Post"], {"content": "hello world"})
    place = b.node(["Place"], {"name": "Heraklion"})
    b.edge(alice, john, ["KNOWS"], {"since": 2015})
    b.edge(bob, john, ["KNOWS"], {})
    b.edge(alice, post_img, ["LIKES"], {})
    b.edge(john, post_txt, ["LIKES"], {})
    b.edge(bob, org, ["WORKS_AT"], {"from": 2020})
    b.edge(alice, place, ["LOCATED_IN"], {})
    return b.build()


@pytest.fixture
def figure1_store(figure1_graph, tmp_path_factory) -> BaseGraphStore:
    """Store over the Figure 1 graph.

    CI's out-of-core leg re-runs the suite with
    ``PGHIVE_TEST_STORE=disk``, swapping in a slab-backed
    :class:`~repro.graph.diskstore.DiskGraphStore`; the backends are
    byte-identical, so every consumer keeps its expectations.
    """
    if os.environ.get("PGHIVE_TEST_STORE", "memory") == "disk":
        from repro.graph.diskstore import write_graph_to_slabs

        store = write_graph_to_slabs(
            figure1_graph, tmp_path_factory.mktemp("slabs")
        )
        yield store
        store.close()
    else:
        yield GraphStore(figure1_graph)


@pytest.fixture
def test_jobs() -> int:
    """Worker count for the dedicated parallel-discovery tests.

    CI exercises the multi-process path with ``PGHIVE_TEST_JOBS=2``; the
    variable only feeds tests that request this fixture, so the rest of
    the suite keeps its sequential expectations.
    """
    return int(os.environ.get("PGHIVE_TEST_JOBS", "2"))


@pytest.fixture
def two_type_graph() -> PropertyGraph:
    """A minimal two-type graph with clean separation, handy for units."""
    b = GraphBuilder("twotypes")
    people = [
        b.node(["Person"], {"name": f"p{i}", "age": i}) for i in range(10)
    ]
    cities = [
        b.node(["City"], {"name": f"c{i}", "population": 1000 * i})
        for i in range(5)
    ]
    for i, person in enumerate(people):
        b.edge(person, cities[i % 5], ["LIVES_IN"], {})
    return b.build()
