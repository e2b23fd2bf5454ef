"""MinHash LSH over sets, approximating Jaccard similarity.

Each element is a set of integer feature ids.  A signature consists of ``T``
min-wise hashes computed with a universal hash family

    h_j(x) = (a_j * x + b_j) mod P

over the Mersenne prime ``P = 2^31 - 1``; the signature entry is the
minimum of ``h_j`` over the set.  Two sets agree on one signature entry with
probability equal to their Jaccard similarity, which is the property the
paper invokes in section 4.2.  All products of values below ``P`` fit in
``uint64``, so the whole computation vectorizes safely in numpy.

For clustering, signatures are cut into bands of ``rows_per_band``
consecutive entries; sets sharing any full band land in the same candidate
bucket (classic LSH banding: AND within a band, OR over bands).

:meth:`MinHashLSH.signatures` is a batch kernel: it flattens all sets into
one CSR-style ragged array, bit-mixes and hashes every feature in a single
vectorized pass, and takes all ``n x T`` minima with
``np.minimum.reduceat``.  It is bit-equal to stacking
:meth:`MinHashLSH.signature` set by set (min-wise hashing is order- and
duplicate-independent); ``tests/oracles/kernels.py`` keeps that loop as
the oracle.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

_PRIME = (1 << 31) - 1  # Mersenne prime 2^31-1; products fit in uint64.
_EMPTY_SENTINEL = _PRIME  # outside the hash range [0, P)

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB


class MinHashLSH:
    """Min-wise hashing with ``T`` hash functions.

    Args:
        num_hashes: Signature length ``T``.
        seed: RNG seed for the hash family coefficients.
    """

    def __init__(self, num_hashes: int, seed: int = 0) -> None:
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_hashes = int(num_hashes)
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, _PRIME, size=self.num_hashes, dtype=np.uint64)
        self._b = rng.integers(0, _PRIME, size=self.num_hashes, dtype=np.uint64)

    def signature(self, feature_set: Iterable[int]) -> np.ndarray:
        """Length-T MinHash signature of one feature set.

        Feature ids are bit-mixed (splitmix64 finalizer) before the
        universal hash -- a linear hash over *contiguous* ids is not
        min-wise independent and would bias the Jaccard estimate.  The
        empty set hashes to a dedicated sentinel signature so empty sets
        collide with each other and with nothing else.
        """
        features = np.fromiter(
            (_mix64(int(f)) % _PRIME for f in feature_set),
            dtype=np.uint64,
            count=-1,
        )
        if features.size == 0:
            return np.full(self.num_hashes, _EMPTY_SENTINEL, dtype=np.int64)
        hashed = (self._a[:, None] * features[None, :] + self._b[:, None]) % np.uint64(_PRIME)
        return hashed.min(axis=1).astype(np.int64)

    def signatures(self, feature_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Stacked (n, T) signature matrix for many sets (batch kernel).

        All sets are flattened into one ragged array; the splitmix64 mix
        and the universal hash run vectorized over every feature, and the
        per-set minima come from ``np.minimum.reduceat`` over the segment
        offsets.  Empty sets are excluded from the reduction (``reduceat``
        mishandles zero-length segments) and filled with the sentinel row
        afterwards.  An empty input yields a well-formed (0, T) matrix.
        """
        materialized = [
            s if isinstance(s, (set, frozenset, list, tuple)) else list(s)
            for s in feature_sets
        ]
        n = len(materialized)
        if n == 0:
            return np.empty((0, self.num_hashes), dtype=np.int64)
        lengths = np.fromiter(
            (len(s) for s in materialized), dtype=np.int64, count=n
        )
        total = int(lengths.sum())
        out = np.full((n, self.num_hashes), _EMPTY_SENTINEL, dtype=np.int64)
        if total == 0:
            return out
        flat = np.fromiter(
            chain.from_iterable(materialized), dtype=np.uint64, count=total
        )
        mixed = _mix64_batch(flat) % np.uint64(_PRIME)
        nonempty = lengths > 0
        starts = np.zeros(int(nonempty.sum()), dtype=np.int64)
        np.cumsum(lengths[nonempty][:-1], out=starts[1:])
        # (T, F) hash table; products of values < P fit in uint64.
        hashed = (
            self._a[:, None] * mixed[None, :] + self._b[:, None]
        ) % np.uint64(_PRIME)
        minima = np.minimum.reduceat(hashed, starts, axis=1)
        out[nonempty] = minima.T.astype(np.int64)
        return out

    @staticmethod
    def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Fraction of agreeing signature entries (estimates Jaccard)."""
        if sig_a.shape != sig_b.shape:
            raise ValueError("signatures must have equal length")
        return float(np.mean(sig_a == sig_b))


def _mix64(value: int) -> int:
    """splitmix64 finalizer: decorrelates structured (e.g. contiguous) ids."""
    value = value & _UINT64_MASK
    value = (value ^ (value >> 30)) * _MIX_MULT_1 & _UINT64_MASK
    value = (value ^ (value >> 27)) * _MIX_MULT_2 & _UINT64_MASK
    return (value ^ (value >> 31)) & _UINT64_MASK


def _mix64_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix64` over a uint64 array (wraps mod 2^64)."""
    values = values.astype(np.uint64, copy=True)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(_MIX_MULT_1)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(_MIX_MULT_2)
    return values ^ (values >> np.uint64(31))
