"""Friedman test and Nemenyi post-hoc analysis (Figure 3).

Given a score matrix of shape (test cases x methods), the paper follows
the standard Demsar protocol: rank the methods within every test case
(rank 1 = best), run the Friedman test on the average ranks, and compare
pairs of methods with the Nemenyi critical distance

    CD = q_alpha * sqrt(k (k + 1) / (6 N))

where ``k`` is the number of methods, ``N`` the number of test cases, and
``q_alpha`` the Studentized-range-based critical value.  Two methods are
significantly different when their average ranks differ by at least CD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import ModuleType
from typing import Sequence

import numpy as np

# Critical values q_alpha for the Nemenyi test (infinite df), alpha = 0.05,
# indexed by the number of compared methods k (Demsar 2006, Table 5).
_Q_ALPHA_05 = {
    2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949,
    8: 3.031, 9: 3.102, 10: 3.164,
}
# alpha = 0.10 row, same source.
_Q_ALPHA_10 = {
    2: 1.645, 3: 2.052, 4: 2.291, 5: 2.460, 6: 2.589, 7: 2.693,
    8: 2.780, 9: 2.855, 10: 2.920,
}


@cache
def _stats() -> ModuleType:
    """Cached ``scipy.stats`` import, resolved on the first rank test.

    ``scipy.stats`` is the costliest import in the package; loading it
    here rather than at module level keeps it off ``import
    repro.evaluation`` and off every run that computes no ranks.
    """
    from scipy import stats

    return stats


@dataclass(frozen=True, slots=True)
class NemenyiResult:
    """Aggregate outcome of the rank analysis."""

    methods: tuple[str, ...]
    avg_ranks: tuple[float, ...]
    critical_distance: float
    friedman_chi2: float
    friedman_p: float
    num_cases: int

    def significantly_different(self, a: str, b: str) -> bool:
        """True when methods a and b differ by at least the CD."""
        rank_a = self.avg_ranks[self.methods.index(a)]
        rank_b = self.avg_ranks[self.methods.index(b)]
        return abs(rank_a - rank_b) >= self.critical_distance

    def ranking(self) -> list[tuple[str, float]]:
        """Methods sorted best (lowest average rank) first."""
        pairs = sorted(zip(self.methods, self.avg_ranks), key=lambda p: p[1])
        return [(name, float(rank)) for name, rank in pairs]


def average_ranks(scores: np.ndarray) -> np.ndarray:
    """Average rank per method (columns), rank 1 = highest score.

    Ties receive the average of the tied ranks, as in the standard
    Friedman procedure.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    # rankdata ranks ascending; we want descending scores = rank 1.
    ranks = np.vstack([
        _stats().rankdata(-row, method="average") for row in scores
    ])
    return ranks.mean(axis=0)


def friedman_statistic(scores: np.ndarray) -> tuple[float, float]:
    """Friedman chi-squared statistic and p-value over a score matrix."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n, k = scores.shape
    if k < 2:
        raise ValueError("need at least two methods")
    if n < 2:
        raise ValueError("need at least two test cases")
    columns = [scores[:, j] for j in range(k)]
    statistic, p_value = _stats().friedmanchisquare(*columns)
    return float(statistic), float(p_value)


def nemenyi_critical_distance(
    num_methods: int, num_cases: int, alpha: float = 0.05
) -> float:
    """The Nemenyi CD for k methods over N cases."""
    table = _Q_ALPHA_05 if alpha <= 0.05 else _Q_ALPHA_10
    if num_methods not in table:
        raise ValueError(
            f"no critical value tabulated for k={num_methods}"
        )
    q = table[num_methods]
    return q * float(
        np.sqrt(num_methods * (num_methods + 1) / (6.0 * num_cases))
    )


def nemenyi_test(
    scores: np.ndarray,
    methods: Sequence[str],
    alpha: float = 0.05,
) -> NemenyiResult:
    """Full rank analysis of a (cases x methods) score matrix."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if scores.shape[1] != len(methods):
        raise ValueError("methods must match the number of score columns")
    ranks = average_ranks(scores)
    chi2, p_value = friedman_statistic(scores)
    cd = nemenyi_critical_distance(len(methods), scores.shape[0], alpha)
    return NemenyiResult(
        methods=tuple(methods),
        avg_ranks=tuple(float(r) for r in ranks),
        critical_distance=cd,
        friedman_chi2=chi2,
        friedman_p=p_value,
        num_cases=scores.shape[0],
    )
