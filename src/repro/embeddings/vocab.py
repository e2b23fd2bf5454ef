"""Vocabulary and corpus construction over property graph labels.

Following section 4.1 of the paper, a multi-labeled element is treated as a
single vocabulary token: its labels are sorted alphabetically and
concatenated.  The training corpus is built from label co-occurrence:

* every edge contributes the "sentence" ``[src_token, edge_token, tgt_token]``
  (skipping empty tokens), so edge labels sit between the node labels they
  connect, and
* every labeled node contributes its own token as a unigram occurrence so
  isolated labels still enter the vocabulary.

This gives the skip-gram model meaningful context windows even though the
raw data is a graph rather than text.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.graph.model import PropertyGraph, canonical_label


class Vocabulary:
    """Bidirectional token <-> index mapping with frequency counts."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._tokens: list[str] = []
        self._counts: Counter[str] = Counter()

    def add(self, token: str, count: int = 1) -> int:
        """Register ``count`` occurrences of ``token``; return its index."""
        if not token:
            raise ValueError("empty token cannot enter the vocabulary")
        if token not in self._index:
            self._index[token] = len(self._tokens)
            self._tokens.append(token)
        self._counts[token] += count
        return self._index[token]

    def index(self, token: str) -> int:
        """Index of a known token (raises ``KeyError`` otherwise)."""
        return self._index[token]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self._tokens)

    def token(self, index: int) -> str:
        """Token at a given index."""
        return self._tokens[index]

    def count(self, token: str) -> int:
        """Number of recorded occurrences of ``token``."""
        return self._counts.get(token, 0)

    def tokens(self) -> Sequence[str]:
        """All tokens in index order."""
        return tuple(self._tokens)

    def counts_in_index_order(self) -> list[int]:
        """Occurrence counts aligned with token indices."""
        return [self._counts[token] for token in self._tokens]


def build_label_corpus(
    graph: PropertyGraph,
) -> tuple[Vocabulary, list[list[int]]]:
    """Build the label vocabulary and skip-gram sentences for a graph.

    Returns:
        ``(vocabulary, sentences)`` where each sentence is a list of token
        indices.  Unlabeled elements contribute nothing (they are embedded
        as zero vectors downstream).
    """
    vocabulary = Vocabulary()
    sentences: list[list[int]] = []
    for edge in graph.edges():
        source, target = graph.endpoints(edge.id)
        sentence = [
            canonical_label(source.labels),
            canonical_label(edge.labels),
            canonical_label(target.labels),
        ]
        indices = [vocabulary.add(tok) for tok in sentence if tok]
        if len(indices) >= 2:
            sentences.append(indices)
        # Single-token "sentences" still register vocabulary occurrences via
        # the add() calls above; they carry no context so are not kept.
    for node in graph.nodes():
        token = canonical_label(node.labels)
        if token:
            vocabulary.add(token)
    return vocabulary, sentences

