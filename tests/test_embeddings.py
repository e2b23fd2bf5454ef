"""Tests for the label embedding substrate (vocab, Word2Vec, embedder)."""

import numpy as np
import pytest

from repro.embeddings.embedder import LabelEmbedder
from repro.embeddings.vocab import Vocabulary, build_label_corpus
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig


class TestVocabulary:
    def test_add_and_index(self):
        vocab = Vocabulary()
        assert vocab.add("Person") == 0
        assert vocab.add("Org") == 1
        assert vocab.add("Person") == 0  # idempotent index
        assert vocab.count("Person") == 2
        assert len(vocab) == 2

    def test_rejects_empty_token(self):
        with pytest.raises(ValueError):
            Vocabulary().add("")

    def test_token_roundtrip(self):
        vocab = Vocabulary()
        vocab.add("A")
        vocab.add("B")
        assert vocab.token(1) == "B"
        assert "A" in vocab and "C" not in vocab

    def test_counts_in_index_order(self):
        vocab = Vocabulary()
        vocab.add("A", count=3)
        vocab.add("B")
        assert vocab.counts_in_index_order() == [3, 1]


class TestCorpus:
    def test_figure1_corpus(self, figure1_graph):
        vocab, sentences = build_label_corpus(figure1_graph)
        assert "Person" in vocab
        assert "KNOWS" in vocab
        # Edges with unlabeled endpoints still yield >= 2-token sentences
        # when edge label + one endpoint label exist.
        assert all(len(s) >= 2 for s in sentences)

    def test_multilabel_becomes_one_token(self):
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder()
        a = b.node(["Student", "Person"])
        c = b.node(["Org"])
        b.edge(a, c, ["WORKS_AT"])
        vocab, sentences = build_label_corpus(b.build())
        assert "Person&Student" in vocab
        assert len(sentences) == 1 and len(sentences[0]) == 3


class TestWord2Vec:
    def _train_small(self):
        # Tokens 0 and 1 share the context token 2; tokens 3 and 4 share
        # context 5.  Skip-gram should place 0 near 1 and 3 near 4.
        sentences = ([[0, 2], [1, 2], [3, 5], [4, 5]]) * 15
        model = Word2Vec(6, Word2VecConfig(dimension=8, epochs=10, seed=3))
        model.train(sentences)
        return model

    def test_shared_context_tokens_are_closer(self):
        model = self._train_small()
        assert model.similarity(0, 1) > model.similarity(0, 3)
        assert model.similarity(3, 4) > model.similarity(4, 1)

    def test_deterministic(self):
        a = self._train_small().vectors
        b = self._train_small().vectors
        assert np.allclose(a, b)

    def test_vector_bounds(self):
        model = self._train_small()
        with pytest.raises(IndexError):
            model.vector(99)
        assert model.vector(0).shape == (8,)

    def test_empty_corpus_ok(self):
        model = Word2Vec(3, Word2VecConfig(dimension=4))
        model.train([])
        assert model.is_trained
        assert model.vector(0).shape == (4,)

    def test_zero_vocab(self):
        model = Word2Vec(0)
        model.train([])
        assert model.is_trained

    def test_counts_must_cover_the_vocabulary(self):
        """A count list of the wrong length is an error, not a silent
        uniform noise distribution."""
        model = Word2Vec(3, Word2VecConfig(dimension=4))
        with pytest.raises(ValueError, match="2 token counts .* 3 tokens"):
            model.train([[0, 1], [1, 2]], counts=[4, 1])
        with pytest.raises(ValueError, match="4 token counts .* 3 tokens"):
            model.train([[0, 1], [1, 2]], counts=[4, 1, 1, 1])

    def test_counts_none_is_uniform(self):
        model = Word2Vec(3, Word2VecConfig(dimension=4))
        uniform = model._noise_distribution(None)
        assert np.array_equal(uniform, np.full(3, 1 / 3))


class TestLabelEmbedder:
    def test_unlabeled_is_zero_vector(self, figure1_graph):
        embedder = LabelEmbedder().fit(figure1_graph)
        assert np.all(embedder.embed([]) == 0.0)
        assert np.all(embedder.embed_token("") == 0.0)

    def test_identical_label_sets_identical_vectors(self, figure1_graph):
        embedder = LabelEmbedder().fit(figure1_graph)
        a = embedder.embed(["Person"])
        b = embedder.embed(["Person"])
        assert np.allclose(a, b)

    def test_different_labels_differ(self, figure1_graph):
        embedder = LabelEmbedder().fit(figure1_graph)
        assert not np.allclose(
            embedder.embed(["Person"]), embedder.embed(["Organization"])
        )

    def test_unseen_token_fallback_is_deterministic(self, figure1_graph):
        embedder = LabelEmbedder().fit(figure1_graph)
        first = embedder.embed_token("NeverSeenLabel")
        second = embedder.embed_token("NeverSeenLabel")
        assert np.allclose(first, second)
        assert not np.all(first == 0.0)
        other = embedder.embed_token("AnotherUnseen")
        assert not np.allclose(first, other)

    def test_fit_tokens(self):
        embedder = LabelEmbedder()
        embedder.fit_tokens([["A", "B"], ["A", "C"]])
        assert embedder.vocabulary.index("A") == 0
        assert embedder.embed_token("A").shape == (embedder.dimension,)


class TestMostSimilar:
    def test_shared_context_tokens_rank_high(self, figure1_graph):
        embedder = LabelEmbedder().fit(figure1_graph)
        # Person co-occurs with KNOWS on both sides; KNOWS should rank
        # among Person's nearest tokens.
        neighbors = dict(embedder.most_similar("Person", k=10))
        assert "KNOWS" in neighbors

    def test_excludes_self(self, figure1_graph):
        embedder = LabelEmbedder().fit(figure1_graph)
        assert all(
            token != "Person"
            for token, _ in embedder.most_similar("Person", k=3)
        )

    def test_unfitted_returns_empty(self):
        assert LabelEmbedder().most_similar("x") == []


class TestEmbedderPersistence:
    def test_round_trip_preserves_embeddings(self, figure1_graph):
        original = LabelEmbedder().fit(figure1_graph)
        rebuilt = LabelEmbedder.from_dict(original.to_dict())
        for token in original.vocabulary.tokens():
            assert np.allclose(
                original.embed_token(token), rebuilt.embed_token(token)
            )

    def test_round_trip_is_json_safe(self, figure1_graph):
        import json

        original = LabelEmbedder().fit(figure1_graph)
        payload = json.dumps(original.to_dict())
        rebuilt = LabelEmbedder.from_dict(json.loads(payload))
        assert np.allclose(
            original.embed(["Person"]), rebuilt.embed(["Person"])
        )

    def test_unfitted_cannot_serialize(self):
        with pytest.raises(RuntimeError):
            LabelEmbedder().to_dict()

    def test_shape_mismatch_rejected(self, figure1_graph):
        data = LabelEmbedder().fit(figure1_graph).to_dict()
        data["vectors"] = [[0.0]]
        with pytest.raises(ValueError):
            LabelEmbedder.from_dict(data)
