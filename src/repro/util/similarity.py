"""Set similarity measures used throughout the merging steps."""

from __future__ import annotations

from typing import AbstractSet, Hashable


def jaccard(a: AbstractSet[Hashable], b: AbstractSet[Hashable]) -> float:
    """Jaccard similarity |A n B| / |A u B|; two empty sets count as 1.0.

    The empty/empty convention matters for unlabeled clusters with no
    properties: they should be considered identical, not dissimilar.
    """
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def jaccard_size_bound(size_a: int, size_b: int) -> float:
    """Upper bound on Jaccard similarity from the two set sizes alone.

    ``|A n B| <= min(|A|, |B|)`` and ``|A u B| >= max(|A|, |B|)``, so the
    exact Jaccard ratio is at most ``min / max``.  Rounding a float
    division is monotone, so the *computed* :func:`jaccard` is at most
    the computed bound too: ``jaccard_size_bound(|A|, |B|) < theta``
    proves ``jaccard(A, B) < theta`` with no boundary case lost (J = 9/10
    against theta = 0.9 has bound 9/10 and is kept).  Returns 1.0 -- no
    bound -- when either set is empty.
    """
    if size_a == 0 or size_b == 0:
        return 1.0
    if size_a <= size_b:
        return size_a / size_b
    return size_b / size_a


def overlap_coefficient(
    a: AbstractSet[Hashable], b: AbstractSet[Hashable]
) -> float:
    """Szymkiewicz-Simpson overlap |A n B| / min(|A|, |B|)."""
    if not a or not b:
        return 1.0 if not a and not b else 0.0
    return len(a & b) / min(len(a), len(b))
