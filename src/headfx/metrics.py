"""Run-level evaluation metrics.

The six summary columns reported for every completed simulation: Gini
coefficient of the audience distribution, top-3 share, viewer mobility,
tail share, average satisfaction, and quality improvement. All functions
are pure and RNG-free.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, require, require_array

__all__ = [
    "MetricsSummary",
    "METRIC_COLUMNS",
    "gini",
    "top_k_share",
    "viewer_mobility",
    "quality_improvement",
    "summarize",
]


@dataclass(frozen=True)
class MetricsSummary:
    """One summary row for a completed run."""

    gini: float
    top3_share: float
    viewer_mobility: float
    tail_share: float
    avg_satisfaction: float
    quality_improvement: float


# The summary columns, in the order every table writes them.
METRIC_COLUMNS = tuple(f.name for f in fields(MetricsSummary))


def gini(x) -> float:
    """Mean-absolute-difference Gini: sum_ij |x_i - x_j| / (2 n^2 mean).

    0 for a uniform vector, (n-1)/n for a one-hot vector; no small-sample
    correction is applied.
    """
    x = require_array("x", x, 0)
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
    counts = require_array("counts", counts, 0)
    require("k", k, 1, counts.size, integer=True)
    total = counts.sum()
    if total <= 0:
        raise DomainError("top_k_share requires a positive total")
    top = np.sort(counts)[::-1][:k]
    return float(top.sum() / total)


def viewer_mobility(history) -> float:
    """Mean over consecutive rounds of the mean per-streamer |count change|.

    history holds one row of counts per round, a (rounds, N) array.
    """
    counts = require_array("history", history, 0, shape=(None, None))
    if counts.shape[0] < 2:
        raise DomainError("viewer_mobility needs at least 2 rounds of counts")
    deltas = np.abs(np.diff(counts, axis=0))
    return float(deltas.mean())


def quality_improvement(q_initial, q_final) -> float:
    """Mean per-streamer quality change from start to finish."""
    q0 = require_array("q_initial", q_initial)
    q1 = require_array("q_final", q_final, shape=q0.shape)
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
        mobility = viewer_mobility(np.array([r.viewer_counts for r in history]))
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
