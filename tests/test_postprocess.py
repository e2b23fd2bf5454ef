"""Tests for post-processing: constraints, datatypes, cardinalities."""

import re

import pytest

from repro.core.config import PGHiveConfig
from repro.core.pipeline import PGHive
from repro.core.postprocess import (
    apply_partial_stats,
    compute_cardinalities,
    infer_datatypes,
    infer_property_constraints,
)
from repro.graph.builder import GraphBuilder
from repro.graph.store import GraphStore
from repro.schema.model import (
    Cardinality,
    DataType,
    PropertyStatus,
)


def _discover(graph, **config_kwargs):
    config = PGHiveConfig(**config_kwargs)
    return PGHive(config).discover(GraphStore(graph)), GraphStore(graph)


class TestPropertyConstraints:
    def test_mandatory_when_on_every_instance(self, figure1_store):
        result = PGHive().discover(figure1_store)
        person = result.schema.node_types["Person"]
        assert person.properties["name"].status is PropertyStatus.MANDATORY
        assert person.properties["gender"].status is PropertyStatus.MANDATORY

    def test_optional_when_missing_somewhere(self, figure1_store):
        """Paper Example 6: imgFile is optional for Post."""
        result = PGHive().discover(figure1_store)
        post = result.schema.node_types["Post"]
        assert post.properties["imgFile"].status is PropertyStatus.OPTIONAL
        assert post.properties["content"].status is PropertyStatus.OPTIONAL

    def test_edge_constraints(self, figure1_store):
        result = PGHive().discover(figure1_store)
        knows = result.schema.edge_types["KNOWS"]
        # One KNOWS edge has "since", the other does not.
        assert knows.properties["since"].status is PropertyStatus.OPTIONAL
        works_at = result.schema.edge_types["WORKS_AT"]
        assert works_at.properties["from"].status is PropertyStatus.MANDATORY

    def test_direct_invocation_idempotent(self, figure1_store):
        result = PGHive().discover(figure1_store)
        infer_property_constraints(result.schema)
        infer_property_constraints(result.schema)
        person = result.schema.node_types["Person"]
        assert person.properties["name"].status is PropertyStatus.MANDATORY


class TestDatatypes:
    def test_figure1_types(self, figure1_store):
        """Paper Example 7: name/gender strings, bday a date."""
        result = PGHive().discover(figure1_store)
        person = result.schema.node_types["Person"]
        assert person.properties["name"].datatype is DataType.STRING
        assert person.properties["bday"].datatype is DataType.DATE
        knows = result.schema.edge_types["KNOWS"]
        assert knows.properties["since"].datatype is DataType.INTEGER

    def test_sampling_mode_runs(self, figure1_store):
        config = PGHiveConfig(
            infer_datatypes_by_sampling=True,
            datatype_sample_minimum=2,
            datatype_sample_fraction=0.5,
        )
        result = PGHive(config).discover(figure1_store)
        person = result.schema.node_types["Person"]
        assert person.properties["bday"].datatype is DataType.DATE

    def test_mixed_values_generalize(self):
        b = GraphBuilder()
        b.node(["T"], {"v": 1})
        b.node(["T"], {"v": "not a number"})
        result, _ = _discover(b.build())
        t = result.schema.node_types["T"]
        assert t.properties["v"].datatype is DataType.STRING


class TestCardinalities:
    def _graph_with_style(self, style):
        b = GraphBuilder()
        sources = [b.node(["S"], {"k": 1}) for _ in range(6)]
        targets = [b.node(["T"], {"k": 1}) for _ in range(6)]
        if style == "1:1":
            for s, t in zip(sources, targets):
                b.edge(s, t, ["R"])
        elif style == "N:1":  # many sources -> one target
            for s in sources:
                b.edge(s, targets[0], ["R"])
        elif style == "1:N":  # one source -> many targets
            for t in targets:
                b.edge(sources[0], t, ["R"])
        else:  # M:N
            for s in sources:
                for t in targets[:3]:
                    b.edge(s, t, ["R"])
        return b.build()

    @pytest.mark.parametrize("style,expected", [
        ("1:1", Cardinality.ONE_TO_ONE),
        ("N:1", Cardinality.N_TO_ONE),
        ("1:N", Cardinality.ONE_TO_N),
        ("M:N", Cardinality.M_TO_N),
    ])
    def test_styles_recovered(self, style, expected):
        result, _ = _discover(self._graph_with_style(style))
        edge_type = result.schema.edge_types["R"]
        assert edge_type.cardinality is expected

    def test_figure1_works_at(self, figure1_store):
        """Paper Example 8: WORKS_AT Person->Org is N:1-shaped."""
        result = PGHive().discover(figure1_store)
        works_at = result.schema.edge_types["WORKS_AT"]
        # Single observation: (1, 1) -> 1:1 bound; degree extremes recorded.
        assert works_at.max_out == 1 and works_at.max_in == 1

    def test_post_processing_disabled(self, figure1_graph):
        result, _ = _discover(figure1_graph, post_processing=False)
        knows = result.schema.edge_types["KNOWS"]
        assert knows.cardinality is Cardinality.UNKNOWN
        person = result.schema.node_types["Person"]
        assert person.properties["name"].datatype is DataType.UNKNOWN

    def test_applying_without_stats_names_the_type(self, figure1_graph):
        """A run without post-processing folds no stats; applying them
        anyway is an error naming a type, not a silent partial answer."""
        result, _ = _discover(figure1_graph, post_processing=False)
        first = next(iter(result.schema.node_types))
        with pytest.raises(ValueError, match=re.escape(repr(first))):
            apply_partial_stats(result.schema)
