"""Skip-gram Word2Vec with negative sampling, implemented in numpy.

This is the classic Mikolov et al. formulation: for each (center, context)
pair drawn from a sentence window, maximize ``log sigma(u_ctx . v_center)``
and minimize ``log sigma(u_neg . v_center)`` for ``k`` negative samples
drawn from the unigram distribution raised to the 3/4 power.

The corpora here are tiny (one sentence per edge over at most a few dozen
distinct label tokens), so a straightforward mini-batched numpy
implementation trains in milliseconds while giving the property the paper
relies on: identical label tokens get identical embeddings, and label
tokens that co-occur on connected elements end up close in the embedding
space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Word2VecConfig:
    """Hyperparameters for skip-gram training.

    Attributes:
        dimension: Embedding size ``d`` (the paper's example uses 5; we
            default to 16 which separates label tokens comfortably).
        window: Context window radius.
        negatives: Negative samples per positive pair.
        epochs: Passes over the training pairs.
        learning_rate: Initial SGD step size (linearly decayed).
        seed: RNG seed for initialization and sampling.
    """

    dimension: int = 16
    window: int = 2
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.05
    seed: int = 13


class Word2Vec:
    """A trained skip-gram model over an integer-token corpus."""

    def __init__(self, vocab_size: int, config: Word2VecConfig | None = None) -> None:
        self.config = config or Word2VecConfig()
        self.vocab_size = vocab_size
        rng = np.random.default_rng(self.config.seed)
        d = self.config.dimension
        bound = 0.5 / d
        self._center = rng.uniform(-bound, bound, size=(vocab_size, d))
        self._context = np.zeros((vocab_size, d))
        self._trained = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, sentences: list[list[int]], counts: list[int] | None = None) -> None:
        """Fit embeddings on sentences of token indices.

        Args:
            sentences: Token-index sentences; pairs are generated with the
                configured window.
            counts: Optional per-token occurrence counts, one per
                vocabulary index, used for the negative-sampling
                distribution; uniform when omitted.

        Raises:
            ValueError: ``counts`` does not have ``vocab_size`` entries.
        """
        if self.vocab_size == 0:
            self._trained = True
            return
        pairs = self._make_pairs(sentences)
        if pairs.size == 0:
            self._trained = True
            return
        noise = self._noise_distribution(counts)
        rng = np.random.default_rng(self.config.seed + 1)
        cfg = self.config
        total_steps = cfg.epochs * len(pairs)
        step = 0
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(pairs))
            # One draw per epoch: ``choice`` with ``p`` maps one uniform
            # per sample through the noise CDF, so row i holds exactly
            # the negatives a per-step call would have drawn at step i.
            negatives = rng.choice(
                self.vocab_size, size=(len(pairs), cfg.negatives), p=noise
            )
            for (center, context), step_negatives in zip(
                pairs[order].tolist(), negatives.tolist()
            ):
                lr = cfg.learning_rate * max(
                    0.05, 1.0 - step / max(1, total_steps)
                )
                self._sgd_step(center, context, step_negatives, lr)
                step += 1
        self._trained = True

    def _make_pairs(self, sentences: list[list[int]]) -> np.ndarray:
        """Expand sentences into (center, context) index pairs."""
        window = self.config.window
        pairs: list[tuple[int, int]] = []
        for sentence in sentences:
            for position, center in enumerate(sentence):
                lo = max(0, position - window)
                hi = min(len(sentence), position + window + 1)
                for other in range(lo, hi):
                    if other != position:
                        pairs.append((center, sentence[other]))
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(pairs, dtype=np.int64)

    def _noise_distribution(self, counts: list[int] | None) -> np.ndarray:
        """Unigram^0.75 negative-sampling distribution; uniform without counts.

        Raises:
            ValueError: ``counts`` does not have one entry per token.
        """
        if counts is None:
            return np.full(self.vocab_size, 1.0 / self.vocab_size)
        if len(counts) != self.vocab_size:
            raise ValueError(
                f"{len(counts)} token counts for a vocabulary of "
                f"{self.vocab_size} tokens"
            )
        freq = np.asarray(counts, dtype=np.float64)
        freq = np.maximum(freq, 1.0) ** 0.75
        return freq / freq.sum()

    def _sgd_step(
        self, center: int, context: int, negatives: list[int], lr: float
    ) -> None:
        """One negative-sampling SGD update."""
        v = self._center[center]
        u_pos = self._context[context]
        score = _sigmoid(float(u_pos @ v))
        grad_v = (score - 1.0) * u_pos
        self._context[context] = u_pos - lr * (score - 1.0) * v
        for neg in negatives:
            if neg == context:
                continue
            u_neg = self._context[neg]
            score_neg = _sigmoid(float(u_neg @ v))
            grad_v = grad_v + score_neg * u_neg
            self._context[neg] = u_neg - lr * score_neg * v
        self._center[center] = v - lr * grad_v

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def vector(self, index: int) -> np.ndarray:
        """Embedding of one token (read-only copy)."""
        if not 0 <= index < self.vocab_size:
            raise IndexError(index)
        return self._center[index].copy()

    @property
    def vectors(self) -> np.ndarray:
        """The full (vocab_size, dimension) embedding matrix (copy)."""
        return self._center.copy()

    @property
    def is_trained(self) -> bool:
        """True once :meth:`train` has been called."""
        return self._trained

    def similarity(self, a: int, b: int) -> float:
        """Cosine similarity between two token embeddings."""
        va, vb = self._center[a], self._center[b]
        denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
        if denom == 0.0:
            return 0.0
        return float(va @ vb / denom)


def _sigmoid(x: float) -> float:
    """Numerically-clamped logistic function."""
    if x >= 0:
        z = np.exp(-min(x, 35.0))
        return 1.0 / (1.0 + z)
    z = np.exp(max(x, -35.0))
    return z / (1.0 + z)
