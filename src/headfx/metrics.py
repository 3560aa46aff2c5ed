"""Run-level evaluation metrics.

The six summary columns reported for every completed simulation: Gini
coefficient of the audience distribution, top-3 share, viewer mobility,
tail share, average satisfaction, and quality improvement. All functions
are pure and RNG-free.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonFiniteError, require

__all__ = [
    "MetricsSummary",
    "METRIC_COLUMNS",
    "gini",
    "top_k_share",
    "viewer_mobility",
    "quality_improvement",
    "summarize",
]

METRIC_COLUMNS = (
    "gini",
    "top3_share",
    "viewer_mobility",
    "tail_share",
    "avg_satisfaction",
    "quality_improvement",
)


def _finite(x, name: str) -> np.ndarray:
    """x as a float array, if every entry is finite; name is the metric's."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"{name} requires finite entries")
    return x


@dataclass(frozen=True)
class MetricsSummary:
    """One summary row for a completed run."""

    gini: float
    top3_share: float
    viewer_mobility: float
    tail_share: float
    avg_satisfaction: float
    quality_improvement: float


def gini(x) -> float:
    """Mean-absolute-difference Gini: sum_ij |x_i - x_j| / (2 n^2 mean).

    0 for a uniform vector, (n-1)/n for a one-hot vector; no small-sample
    correction is applied.
    """
    x = _finite(x, "gini")
    if x.ndim != 1 or x.size == 0:
        raise DimensionMismatchError("gini expects a non-empty 1-d vector")
    if np.any(x < 0):
        raise DomainError("gini requires non-negative entries")
    total = x.sum()
    if total <= 0:
        raise DomainError("gini requires a positive total")
    n = x.size
    # Sorted-cumulative form, O(n log n); equivalent to the double loop.
    xs = np.sort(x)
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.sum(ranks * xs) - (n + 1) * total) / (n * total))


def top_k_share(counts, k: int) -> float:
    """Share of the k largest entries in the total; ties taken by value."""
    counts = _finite(counts, "top_k_share")
    if counts.ndim != 1 or counts.size == 0:
        raise DimensionMismatchError("top_k_share expects a non-empty 1-d vector")
    require("k", k, 1, counts.size, integer=True)
    total = counts.sum()
    if total <= 0:
        raise DomainError("top_k_share requires a positive total")
    top = np.sort(counts)[::-1][:k]
    return float(top.sum() / total)


def viewer_mobility(history) -> float:
    """Mean over consecutive rounds of the mean per-streamer |count change|."""
    counts = _finite(list(history), "viewer_mobility")
    if counts.ndim != 2 or counts.shape[0] < 2:
        raise DomainError("viewer_mobility needs at least 2 rounds of counts")
    deltas = np.abs(np.diff(counts, axis=0))
    return float(deltas.mean())


def quality_improvement(q_initial, q_final) -> float:
    """Mean per-streamer quality change from start to finish."""
    q0 = _finite(q_initial, "quality_improvement")
    q1 = _finite(q_final, "quality_improvement")
    if q0.shape != q1.shape:
        raise DimensionMismatchError(
            f"quality vectors differ in shape: {q0.shape} vs {q1.shape}"
        )
    return float(np.mean(q1 - q0))


def summarize(history, q_initial) -> MetricsSummary:
    """Package the six metrics for a completed round history.

    Gini, top-3 share, and satisfaction are taken from the final round;
    mobility uses the full count history; quality improvement compares
    final qualities to the pre-simulation initial ones. For fewer than
    three streamers k is clamped to N with a warning.
    """
    history = list(history)
    if not history:
        raise DomainError("summarize requires a non-empty history")
    final = history[-1]
    counts = np.asarray(final.viewer_counts, dtype=float)

    k = 3
    if counts.size < 3:
        warnings.warn(
            f"fewer than 3 streamers; clamping top-k to k={counts.size}",
            stacklevel=2,
        )
        k = counts.size
    top3 = top_k_share(counts, k)

    if len(history) >= 2:
        mobility = viewer_mobility([r.viewer_counts for r in history])
    else:
        mobility = 0.0

    return MetricsSummary(
        gini=gini(counts),
        top3_share=top3,
        viewer_mobility=mobility,
        tail_share=1.0 - top3,
        avg_satisfaction=float(final.mean_satisfaction),
        quality_improvement=quality_improvement(q_initial, final.qualities),
    )
