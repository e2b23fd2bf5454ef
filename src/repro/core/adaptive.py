"""Adaptive LSH parameterization (paper section 4.2).

Before clustering, PG-HIVE samples a small portion of the data, estimates
the distance scale ``mu`` (average pairwise Euclidean distance over the
sample), and derives:

* the base bucket length ``b_base = 1.2 * mu`` (the 1.2 factor avoids
  over-fragmentation when the sample distances are small),
* a label-diversity factor ``alpha``: 0.8 when the dataset has at most 3
  distinct labels, 1.0 for 4-10, 1.5 for more than 10,
* the bucket length ``b = b_base * alpha``,
* the number of tables ``T`` scaled by dataset size and label diversity,
  clamped into the practically useful range [15, 35] for nodes and
  [15, 35] for edges (the paper's "practical ranges"; edges also work with
  slightly smaller alpha).

Users can always override any of the three values through
:class:`~repro.core.config.PGHiveConfig`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_T_MIN, _T_MAX = 15, 35
_MIN_BUCKET = 1e-3


@dataclass(frozen=True, slots=True)
class AdaptiveParameters:
    """The resolved clustering parameters for one batch."""

    bucket_length: float
    num_tables: int
    alpha: float
    mu: float
    sample_size: int

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"mu={self.mu:.3f} alpha={self.alpha:.2f} "
            f"b={self.bucket_length:.3f} T={self.num_tables} "
            f"(sample={self.sample_size})"
        )


def label_alpha(num_labels: int) -> float:
    """The alpha heuristic from the number of distinct labels L."""
    if num_labels <= 3:
        return 0.8
    if num_labels <= 10:
        return 1.0
    return 1.5


def estimate_distance_scale(
    vectors: np.ndarray,
    sample_size: int,
    fraction: float,
    seed: int = 0,
    pattern_ids: np.ndarray | None = None,
) -> tuple[float, int]:
    """Average pairwise Euclidean distance over a random sample.

    Samples ``max(sample_size, fraction * n)`` rows (all rows when fewer)
    and averages the distances of every pair of sampled rows.  Only the
    strict upper triangle is computed, with the element operations and
    summation order of the full-matrix form
    (``tests/oracles/kernels.py``), so ``mu`` is bit-identical to it.

    When ``pattern_ids`` is given, ``vectors`` is a compact per-pattern
    matrix and logical row ``i`` is ``vectors[pattern_ids[i]]``.  The same
    RNG draws are made over the logical row count and the sampled rows are
    gathered through the indirection, so the estimate is bit-identical to
    running on the expanded matrix without ever materializing it.

    Returns:
        ``(mu, actual_sample_size)``.  ``mu`` is at least a tiny positive
        epsilon so the derived bucket length stays valid even for
        degenerate (all-identical) data.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if pattern_ids is None:
        n = vectors.shape[0]
    else:
        pattern_ids = np.asarray(pattern_ids, dtype=np.int64)
        n = int(pattern_ids.size)
    if n == 0:
        return 1.0, 0
    target = min(n, max(int(sample_size), int(math.ceil(fraction * n))))
    rng = np.random.default_rng(seed)
    if target < n:
        rows = rng.choice(n, size=target, replace=False)
        sample = (
            vectors[rows] if pattern_ids is None else vectors[pattern_ids[rows]]
        )
    else:
        sample = vectors if pattern_ids is None else vectors[pattern_ids]
    if sample.shape[0] < 2:
        return 1.0, sample.shape[0]
    sq_norms = np.square(sample).sum(axis=1)
    gram = sample @ sample.T
    upper = _upper_triangle(sample.shape[0])
    d2 = np.maximum(
        np.broadcast_to(sq_norms[:, None], gram.shape)[upper]
        + np.broadcast_to(sq_norms[None, :], gram.shape)[upper]
        - 2.0 * gram[upper],
        0.0,
    )
    mu = float(np.sqrt(d2).mean())
    return max(mu, _MIN_BUCKET), sample.shape[0]


@functools.lru_cache(maxsize=8)
def _upper_triangle(size: int) -> np.ndarray:
    """Boolean mask of the strict upper triangle of a ``size`` square.

    Masking gathers in row-major order, as ``np.triu_indices`` does.
    Cached per sample size (read-only): every batch of a run samples
    the same ``sample_size`` rows once it has that many, and a bool
    mask holds an eighth of the bytes of the two index arrays.
    """
    mask = np.triu(np.ones((size, size), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def choose_num_tables(
    b_base: float, alpha: float, count: int, kind: str = "node"
) -> int:
    """The paper's T heuristic, clamped to the practical range [15, 35].

    Nodes: ``T = b_base * max(5, alpha * min(25, log10 N))``;
    edges use the slightly smaller floor/cap ``max(3, ...)``/``min(20, .)``.
    The raw product depends on the magnitude of ``b_base``, so the final
    clamp into the empirically useful range (paper: "T in [15, 35] works
    well across datasets") makes the heuristic scale-free.
    """
    log_count = math.log10(max(count, 10))
    if kind == "edge":
        raw = b_base * max(3.0, alpha * min(20.0, log_count))
    else:
        raw = b_base * max(5.0, alpha * min(25.0, log_count))
    return int(min(_T_MAX, max(_T_MIN, round(raw))))


def choose_parameters(
    vectors: np.ndarray,
    num_labels: int,
    kind: str = "node",
    sample_size: int = 500,
    sample_fraction: float = 0.01,
    seed: int = 0,
    bucket_length: float | None = None,
    num_tables: int | None = None,
    alpha: float | None = None,
    pattern_ids: np.ndarray | None = None,
) -> AdaptiveParameters:
    """Resolve (b, T, alpha) for a batch, honoring manual overrides.

    Args:
        vectors: The feature matrix the parameters will cluster.
        num_labels: Distinct label count L of the dataset.
        kind: ``"node"`` or ``"edge"`` (edges use the smaller T heuristic).
        sample_size / sample_fraction: Sampling policy for mu.
        seed: RNG seed for the sample.
        bucket_length / num_tables / alpha: Manual overrides; ``None``
            means adapt.
        pattern_ids: When given, ``vectors`` is a compact per-pattern
            matrix and the logical batch is ``vectors[pattern_ids]`` (see
            :func:`estimate_distance_scale`); parameters come out
            bit-identical to the expanded call.
    """
    mu, actual = estimate_distance_scale(
        vectors, sample_size, sample_fraction, seed, pattern_ids=pattern_ids
    )
    count = vectors.shape[0] if pattern_ids is None else int(pattern_ids.size)
    resolved_alpha = label_alpha(num_labels) if alpha is None else float(alpha)
    b_base = 1.2 * mu
    resolved_b = (
        max(_MIN_BUCKET, b_base * resolved_alpha)
        if bucket_length is None
        else float(bucket_length)
    )
    resolved_t = (
        choose_num_tables(b_base, resolved_alpha, count, kind)
        if num_tables is None
        else int(num_tables)
    )
    return AdaptiveParameters(
        bucket_length=resolved_b,
        num_tables=resolved_t,
        alpha=resolved_alpha,
        mu=mu,
        sample_size=actual,
    )
