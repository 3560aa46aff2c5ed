"""Tests for the evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfx.abm import RoundRecord
from headfx.errors import DimensionMismatchError, DomainError, NonFiniteError
from headfx.metrics import (
    gini,
    quality_improvement,
    summarize,
    top_k_share,
    viewer_mobility,
)


def gini_double_loop(x):
    """O(n^2) mean-absolute-difference oracle."""
    x = np.asarray(x, dtype=float)
    n = x.size
    total = sum(abs(a - b) for a in x for b in x)
    return total / (2.0 * n * n * x.mean())


class TestGini:
    def test_uniform_is_zero(self):
        assert gini(np.full(9, 4.2)) == pytest.approx(0.0, abs=1e-15)

    def test_one_hot_closed_form(self):
        assert gini(np.array([100.0, 0.0, 0.0, 0.0])) == pytest.approx(0.75)
        for n in (2, 5, 15):
            x = np.zeros(n)
            x[0] = 7.0
            assert gini(x) == pytest.approx((n - 1) / n, rel=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.uniform(0, 100, size=rng.integers(2, 40))
            assert gini(x) == pytest.approx(gini_double_loop(x), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=25),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, xs, k):
        x = np.array(xs)
        assert gini(k * x) == pytest.approx(gini(x), abs=1e-9)

    def test_permutation_invariance_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = rng.uniform(0, 10, size=12)
            g = gini(x)
            assert 0.0 <= g <= 11.0 / 12.0 + 1e-12
            assert gini(rng.permutation(x)) == pytest.approx(g, abs=1e-12)

    def test_rejections(self):
        with pytest.raises(DomainError):
            gini(np.zeros(4))
        with pytest.raises(DomainError):
            gini(np.array([1.0, -0.5]))
        with pytest.raises(DimensionMismatchError):
            gini(np.array([]))


class TestTopKShare:
    def test_hand_values(self):
        assert top_k_share(np.array([40.0, 30, 20, 10]), 3) == pytest.approx(0.9)
        assert top_k_share(np.full(15, 1.0), 3) == pytest.approx(0.2)

    def test_complement_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.uniform(0, 50, size=10) + 1e-9
            top3 = top_k_share(x, 3)
            tail = 1.0 - top3
            assert top3 + tail == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_k_and_full_at_n(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 10, size=8)
        shares = [top_k_share(x, k) for k in range(1, 9)]
        assert all(a <= b + 1e-15 for a, b in zip(shares, shares[1:]))
        assert shares[-1] == pytest.approx(1.0)

    def test_value_based_ties(self):
        # tie at the cut: the largest k values count regardless of index
        assert top_k_share(np.array([5.0, 1.0, 5.0, 1.0]), 2) == pytest.approx(10 / 12)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            top_k_share(np.ones(3), 4)
        with pytest.raises(DomainError):
            top_k_share(np.ones(3), 0)

    def test_zero_total_rejected(self):
        with pytest.raises(DomainError, match="top_k_share requires a positive total"):
            top_k_share(np.zeros(3), 2)


class TestViewerMobility:
    def test_constant_history_is_zero(self):
        assert viewer_mobility([[5, 5], [5, 5], [5, 5]]) == 0.0

    def test_two_round_flip(self):
        assert viewer_mobility([[10, 0], [0, 10]]) == pytest.approx(10.0)

    def test_three_round_hand_value(self):
        # |deltas| per round pair: (4,0) then (0,2); per-pair means 2 and 1
        assert viewer_mobility([[0, 0], [4, 0], [4, 2]]) == pytest.approx(1.5)

    def test_time_reversal_invariance(self):
        rng = np.random.default_rng(14)
        hist = rng.integers(0, 40, size=(6, 5))
        assert viewer_mobility(hist) == pytest.approx(viewer_mobility(hist[::-1]))

    def test_single_round_rejected(self):
        with pytest.raises(DomainError):
            viewer_mobility([[1, 2, 3]])


class TestQualityImprovement:
    def test_identical_is_zero(self):
        q = np.array([0.3, 0.8])
        assert quality_improvement(q, q) == 0.0

    def test_hand_mean(self):
        assert quality_improvement([0.5, 0.5], [0.6, 0.8]) == pytest.approx(0.2)

    def test_antisymmetry(self):
        rng = np.random.default_rng(16)
        a, b = rng.uniform(0, 1, size=(2, 9))
        assert quality_improvement(a, b) == pytest.approx(-quality_improvement(b, a))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quality_improvement([0.5], [0.5, 0.6])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "metric",
    [
        lambda bad: gini([bad, 1.0]),
        lambda bad: top_k_share([bad, 1.0, 2.0], 2),
        lambda bad: viewer_mobility([[1.0, bad], [2.0, 3.0]]),
        lambda bad: quality_improvement([bad], [1.0]),
        lambda bad: quality_improvement([1.0], [bad]),
    ],
    ids=["gini", "top_k_share", "viewer_mobility", "quality_initial", "quality_final"],
)
def test_non_finite_input_rejected(metric, bad):
    # as dynamics.hhi: no metric returns NaN for a non-finite entry
    with pytest.raises(NonFiniteError, match=r"\[[\d, ]+\] must be finite"):
        metric(bad)


def _record(idx, counts, qualities, sat):
    counts = np.asarray(counts)
    return RoundRecord(
        round_index=idx,
        viewer_counts=counts,
        streamer_revenues=0.8 * counts.astype(float),
        platform_revenue=0.2 * float(counts.sum()),
        qualities=np.asarray(qualities, dtype=float),
        mean_satisfaction=sat,
    )


class TestSummarize:
    def test_hand_built_fixture(self):
        # all six values computed by hand before implementation:
        # final counts (5,3,1,1): gini = 28/(2*16*2.5) = 0.35, top3 = 0.9
        # mobility: |(5,3,1,1)-(4,3,2,1)| = (1,0,1,0) -> 0.5
        # quality improvement: mean((0.6,0.5,0.4,0.5)-(0.4,0.5,0.6,0.5)) = 0
        history = [
            _record(1, [4, 3, 2, 1], [0.5, 0.5, 0.5, 0.5], 0.7),
            _record(2, [5, 3, 1, 1], [0.6, 0.5, 0.4, 0.5], 0.9),
        ]
        summary = summarize(history, q_initial=np.array([0.4, 0.5, 0.6, 0.5]))
        assert summary.gini == pytest.approx(0.35, abs=1e-12)
        assert summary.top3_share == pytest.approx(0.9, abs=1e-12)
        assert summary.viewer_mobility == pytest.approx(0.5, abs=1e-12)
        assert summary.tail_share == pytest.approx(0.1, abs=1e-12)
        assert summary.avg_satisfaction == pytest.approx(0.9)
        assert summary.quality_improvement == pytest.approx(0.0, abs=1e-15)

    def test_single_streamer_clamps_k_with_warning(self):
        history = [
            _record(1, [10], [0.5], 0.5),
            _record(2, [10], [0.5], 0.5),
        ]
        with pytest.warns(UserWarning, match="clamping top-k"):
            summary = summarize(history, q_initial=np.array([0.5]))
        assert summary.gini == pytest.approx(0.0)
        assert summary.top3_share == pytest.approx(1.0)
        assert summary.viewer_mobility == pytest.approx(0.0)

    def test_empty_history_rejected(self):
        with pytest.raises(DomainError):
            summarize([], np.array([0.5]))
