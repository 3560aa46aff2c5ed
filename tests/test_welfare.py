"""Tests for welfare accounting and promotion-share optimization."""

import dataclasses
import math
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfx.abm import SimConfig, simulate
from headfx.core import (
    Market,
    MarketState,
    PlatformParams,
    StreamerParams,
    TrafficAllocation,
    choice_probabilities,
    deterministic_utility,
)
from headfx.equilibrium import FixedPointConfig
from headfx.errors import DomainError, NonFiniteError, NumericalError
from headfx.harness import parse_instance
from headfx import abm, welfare
from headfx.logit import softmax, viewer_fixed_point
from headfx.welfare import (
    WelfareBreakdown,
    grid_search_allocation,
    optimize_allocation,
    simplex_project,
    total_welfare,
)


_INSTANCE_N3 = Path(__file__).resolve().parents[1] / "configs" / "instance_n3.json"


def instance(alphas, q, m=50.0, beta=0.0, tau=0.2, prices=None, c=2.0):
    n = len(alphas)
    plat = PlatformParams(
        n_streamers=n, n_viewers=m, beta=beta, tau=tau,
        prices=np.asarray(prices, dtype=float) if prices is not None else None,
    )
    streamers = [StreamerParams(alpha=a, eta=1.0, cost_coefficient=c) for a in alphas]
    state = MarketState(n=np.full(n, m / n), q=np.asarray(q, dtype=float))
    return plat, streamers, state


class TestConsumerSurplus:
    def test_single_streamer(self):
        plat, streamers, state = instance([1.0], [0.8], m=100, prices=[0.3])
        # one option: CS = M (alpha q - p)
        assert total_welfare(plat, streamers, state).consumer_surplus == pytest.approx(
            100 * (0.8 - 0.3), abs=1e-9
        )

    def test_uniform_price_increase_translates(self):
        plat, streamers, state = instance([1.0, 0.8], [0.6, 0.5], prices=[0.1, 0.2])
        base = total_welfare(plat, streamers, state).consumer_surplus
        shifted_plat = dataclasses.replace(plat, prices=plat.prices + 0.25)
        shifted = total_welfare(shifted_plat, streamers, state).consumer_surplus
        assert base - shifted == pytest.approx(50 * 0.25, abs=1e-9)

    def test_head_effect_approximation(self):
        # one streamer holds essentially the whole market
        m = 100.0
        plat = PlatformParams(
            n_streamers=2, n_viewers=m, beta=0.3, prices=np.array([0.2, 0.2])
        )
        streamers = [StreamerParams(alpha=1.0, cost_coefficient=2.0)] * 2
        state = MarketState(n=np.array([m - 1e-4, 1e-4]), q=np.array([1.5, 0.0]))
        cs = total_welfare(plat, streamers, state).consumer_surplus
        approx = m * (1.0 * 1.5 - 0.2 + 0.3 * m)
        assert abs(cs - approx) / abs(approx) < 0.01


class TestProducerSurplus:
    def test_zero_state(self):
        plat, streamers, _ = instance([1.0, 1.0], [0.0, 0.0])
        state = MarketState(n=np.zeros(2), q=np.zeros(2))
        assert total_welfare(plat, streamers, state).producer_surplus == 0.0

    def test_one_hot_matches_head_effect_form(self):
        plat, streamers, _ = instance([1.0, 1.0], [0.0, 0.0], m=100, tau=0.2, c=2.0)
        state = MarketState(n=np.array([100.0, 0.0]), q=np.array([1.2, 0.0]))
        expected = 0.8 * 1.0 * 100 - 2.0 * 1.2**2
        assert total_welfare(plat, streamers, state).producer_surplus == pytest.approx(
            expected, abs=1e-6
        )

    def test_linear_in_revenue_rate(self):
        plat, streamers, state = instance([1.0, 0.9], [0.5, 0.4], m=80)
        base = total_welfare(plat, streamers, state).producer_surplus
        doubled = total_welfare(
            dataclasses.replace(plat, revenue_per_viewer=2.0), streamers, state
        ).producer_surplus
        cost_part = 2.0 * (0.5**2 + 0.4**2)
        assert doubled + cost_part == pytest.approx(2 * (base + cost_part), rel=1e-12)


class TestPlatformProfit:
    def test_values(self):
        for tau, want in ((0.0, 0.0), (0.2, 200.0), (0.4, 400.0)):
            plat, streamers, state = instance([1.0, 1.0], [0.5, 0.5], m=1000, tau=tau)
            assert total_welfare(plat, streamers, state).platform_profit == pytest.approx(want)

    def test_independent_of_the_market_state(self):
        # the commission tau R M is taken whatever the audiences and qualities
        plat, streamers, _ = instance([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], beta=0.001)
        states = [
            MarketState(n=np.full(3, 50 / 3), q=np.full(3, 0.5)),
            MarketState(n=np.array([50.0, 0.0, 0.0]), q=np.array([1.5, 0.0, 0.0])),
            MarketState(n=np.array([0.0, 10.0, 40.0]), q=np.array([0.1, 0.9, 0.2])),
        ]
        profits = {total_welfare(plat, streamers, state).platform_profit for state in states}
        assert profits == {0.2 * 1.0 * 50}


class TestTotalWelfare:
    def test_components_sum(self):
        plat, streamers, state = instance([1.0, 0.7], [0.5, 0.9], beta=0.001)
        breakdown = total_welfare(plat, streamers, state)
        parts = (
            breakdown.consumer_surplus
            + breakdown.producer_surplus
            + breakdown.platform_profit
        )
        assert breakdown.total == parts
        # summed left to right: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert WelfareBreakdown(0.1, 0.2, 0.3).total == (0.1 + 0.2) + 0.3 != 0.6

    @pytest.mark.parametrize("alphas, q, prices, shares", [
        ([1.1, 0.9], [0.6, 0.5], [0.3, 0.05], [0.7, 0.3]),
        ([1.2, 1.0, 0.4], [0.8, 0.7, 0.5], [0.1, 0.4, 0.25], [0.5, 0.2, 0.3]),
    ])
    def test_reported_welfare_is_the_optimizers_welfare(self, alphas, q, prices, shares):
        # total_welfare at the fixed point and the welfare the optimizer
        # climbs are one kernel's formulas at one state, so bitwise equal
        plat, streamers, _ = instance(alphas, q, beta=0.003, prices=prices)
        q = np.asarray(q, dtype=float)
        theta = TrafficAllocation(np.array(shares))
        cfg = FixedPointConfig(tol=1e-12, max_iter=5000)
        market = Market.from_params(plat, streamers)
        raw = welfare._welfare_raw(market, q, theta.theta, cfg, plat.symmetric_split())
        state = MarketState(n=np.maximum(raw[1], 0.0), q=q)
        assert total_welfare(plat, streamers, state, theta).total == raw[0].total

    def test_symmetric_audience_at_uniform_theta(self):
        plat, streamers, _ = instance([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], beta=0.001)
        sol = optimize_allocation(plat, streamers, np.full(3, 0.5))
        assert sol.theta.theta == pytest.approx(np.full(3, 1 / 3), abs=1e-8)
        assert sol.state.n == pytest.approx(np.full(3, 50 / 3), abs=1e-8)

    def test_permutation_equivariance(self):
        alphas = [1.2, 0.8, 1.0]
        q = np.array([0.7, 0.5, 0.6])
        plat, streamers, _ = instance(alphas, q, beta=0.002, prices=[0.1, 0.3, 0.2])
        state = MarketState(n=np.array([20.0, 10.0, 20.0]), q=q)
        theta = TrafficAllocation(np.array([0.5, 0.2, 0.3]))
        w = total_welfare(plat, streamers, state, theta)
        perm = [2, 0, 1]
        plat_p = dataclasses.replace(plat, prices=plat.prices[perm])
        streamers_p = [streamers[i] for i in perm]
        state_p = MarketState(n=state.n[perm], q=q[perm])
        w_p = total_welfare(plat_p, streamers_p, state_p, TrafficAllocation(theta.theta[perm]))
        for field in ("consumer_surplus", "producer_surplus", "platform_profit", "total"):
            assert getattr(w_p, field) == pytest.approx(getattr(w, field), rel=1e-12)


def _gradient(plat, streamers, q, theta):
    """(welfare, gradient, audiences) of welfare._welfare_raw at a raw theta,
    the viewer fixed point solved to 1e-13."""
    market = Market.from_params(plat, streamers)
    cfg = welfare._default_fixed_point(market, tol=1e-13, max_iter=20000)
    breakdown, n, g, converged = welfare._welfare_raw(
        market, np.asarray(q, dtype=float), np.asarray(theta, dtype=float), cfg,
        plat.symmetric_split(),
    )
    assert converged
    return breakdown.total, g, n


class TestWelfareGradient:
    def test_symmetric_gradient_equal(self):
        plat, streamers, _ = instance([1.0] * 3, [0.5] * 3, beta=0.001)
        _, g, _ = _gradient(plat, streamers, [0.5] * 3, np.full(3, 1 / 3))
        assert np.max(g) - np.min(g) < 1e-9

    def test_without_network_effect_or_prices_it_is_m_phi_p(self):
        # beta = 0 leaves no equilibrium feedback and zero prices no payments,
        # so g = M phi softmax(v) = M phi P
        plat, streamers, _ = instance([1.2, 1.0, 0.4], [0.8, 0.7, 0.5])
        plat = dataclasses.replace(plat, phi=1.7)
        theta = np.array([0.6, 0.3, 0.1])
        _, g, n = _gradient(plat, streamers, [0.8, 0.7, 0.5], theta)
        state = MarketState(n=n, q=np.array([0.8, 0.7, 0.5]))
        p = choice_probabilities(
            deterministic_utility(plat, streamers, state, TrafficAllocation(theta))
        )
        assert g == pytest.approx(50.0 * 1.7 * p, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_differences(self, seed):
        # prices, an interior theta and beta M < 2, where the fixed point is unique
        rng = np.random.default_rng(seed)
        big_n = int(rng.integers(2, 6))
        plat = PlatformParams(
            n_streamers=big_n, n_viewers=50, beta=float(rng.uniform(0.0, 1.9)) / 50,
            phi=float(rng.uniform(0.3, 2.0)), prices=rng.uniform(0.0, 2.0, big_n),
        )
        streamers = [StreamerParams(alpha=float(a), cost_coefficient=2.0)
                     for a in rng.uniform(0.5, 2.0, big_n)]
        q, theta = rng.uniform(0.0, 1.0, big_n), rng.dirichlet(np.ones(big_n))
        _, g, _ = _gradient(plat, streamers, q, theta)
        h = 1e-5
        central = [
            (_gradient(plat, streamers, q, theta + step)[0]
             - _gradient(plat, streamers, q, theta - step)[0]) / (2 * h)
            for step in h * np.eye(big_n)
        ]
        assert np.max(np.abs(g - central)) <= 1e-7 * (1 + np.abs(g).max())

    def test_singular_feedback_raises(self):
        # beta M = 2 at the symmetric split: I - beta M (diag P - P P^T) is singular
        plat, streamers, _ = instance([1.0, 1.0], [0.5, 0.5], beta=0.04)
        with pytest.raises(NumericalError, match="singular"):
            optimize_allocation(plat, streamers, np.array([0.5, 0.5]))


class TestSimplexProject:
    def test_already_on_simplex_unchanged(self):
        v = np.array([0.2, 0.5, 0.3])
        assert simplex_project(v).theta == pytest.approx(v, abs=1e-15)

    def test_clamp_case(self):
        assert simplex_project(np.array([2.0, 0.0])).theta == pytest.approx([1.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = rng.normal(scale=3.0, size=6)
            once = simplex_project(v).theta
            twice = simplex_project(once).theta
            assert twice == pytest.approx(once, abs=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            a = rng.normal(scale=2.0, size=5)
            b = rng.normal(scale=2.0, size=5)
            pa, pb = simplex_project(a).theta, simplex_project(b).theta
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_nearest_point_against_grid_oracle(self):
        rng = np.random.default_rng(44)
        step = 0.01
        ii, jj = np.meshgrid(np.arange(101), np.arange(101), indexing="ij")
        mask = ii + jj <= 100
        grid = np.stack([ii[mask], jj[mask], 100 - ii[mask] - jj[mask]], axis=1) * step
        for _ in range(25):
            v = rng.normal(scale=1.5, size=3)
            proj = simplex_project(v).theta
            dists = np.linalg.norm(grid - v, axis=1)
            best = grid[np.argmin(dists)]
            assert np.linalg.norm(v - proj) <= dists.min() + 1e-12
            assert np.max(np.abs(proj - best)) <= 2 * step

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            simplex_project(np.array([np.nan, 0.0]))


def _interior_optimum_instance():
    """A priced 2-streamer instance whose welfare peaks inside the simplex,
    near theta = (0.694, 0.306): welfare falls towards either vertex."""
    plat, streamers, _ = instance([4.0, 2.0], [0.6, 0.2], beta=0.01, prices=[5.0, 1.0])
    return dataclasses.replace(plat, phi=0.5), streamers, np.array([0.6, 0.2])


def _record_welfare_raw(monkeypatch):
    """The (arguments, result) of every optimizer call to _welfare_raw, in order."""
    calls = []
    raw = welfare._welfare_raw

    def record(*args):
        calls.append((args, raw(*args)))
        return calls[-1][1]

    monkeypatch.setattr(welfare, "_welfare_raw", record)
    return calls


class TestOptimizeAllocation:
    def test_symmetric_instance_uniform_from_uniform_start(self):
        plat, streamers, _ = instance([1.0] * 3, [0.5] * 3, beta=0.002)
        sol = optimize_allocation(plat, streamers, np.full(3, 0.5))
        assert sol.converged
        assert sol.kkt_residual < 1e-8
        assert sol.theta.theta == pytest.approx(np.full(3, 1 / 3), abs=1e-8)

    def test_random_starts_reach_kkt_points(self):
        plat, streamers, _ = instance([1.0] * 3, [0.5] * 3, beta=0.002)
        rng = np.random.default_rng(45)
        for _ in range(3):
            init = TrafficAllocation(rng.dirichlet(np.ones(3)))
            sol = optimize_allocation(plat, streamers, np.full(3, 0.5), init_theta=init)
            assert sol.converged and sol.kkt_residual <= 1e-8

    def test_matches_grid_oracle_on_asymmetric_instance(self):
        plat, streamers, _ = instance([1.2, 1.0, 0.4], [0.8, 0.7, 0.5], beta=0.002)
        q = np.array([0.8, 0.7, 0.5])
        sol = optimize_allocation(plat, streamers, q)
        theta_grid, w_grid = grid_search_allocation(plat, streamers, q, resolution=0.001)
        assert sol.welfare >= w_grid - 1e-6 * abs(w_grid)
        assert np.max(np.abs(sol.theta.theta - theta_grid.theta)) <= 5e-3
        assert sol.kkt_residual < 1e-8

    def test_weak_streamer_gets_zero_share(self):
        plat, streamers, _ = instance([1.2, 1.0, 0.2], [0.8, 0.7, 0.3], beta=0.001)
        q = np.array([0.8, 0.7, 0.3])
        sol = optimize_allocation(plat, streamers, q)
        theta_grid, _ = grid_search_allocation(plat, streamers, q, resolution=0.001)
        assert 2 in sol.active_set
        assert set(sol.active_set) == set(np.flatnonzero(theta_grid.theta == 0.0).tolist())

    def test_simplex_constraints_exact(self):
        plat, streamers, _ = instance([1.1, 0.9], [0.6, 0.5], beta=0.001)
        sol = optimize_allocation(plat, streamers, np.array([0.6, 0.5]))
        assert np.all(sol.theta.theta >= 0)
        assert sol.theta.theta.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unconverged_fixed_point_is_not_reported_converged(self):
        plat, streamers, _ = instance([1.2, 1.0, 0.4], [0.8, 0.7, 0.5], beta=0.002)
        q = np.array([0.8, 0.7, 0.5])
        # A loose KKT tolerance is met at once; only the one-sweep fixed
        # point stands between the solution and converged=True.
        loose = optimize_allocation(plat, streamers, q, tol=1e6)
        assert loose.converged
        starved = optimize_allocation(
            plat, streamers, q, tol=1e6, fp_cfg=FixedPointConfig(max_iter=1)
        )
        assert starved.kkt_residual <= 1e6
        assert not starved.converged

    def test_priced_instance_reaches_the_oracle_vertex(self):
        # The instance a gradient without the prices stalled on: it pointed
        # at the expensive streamer while welfare falls that way.
        plat, streamers, _ = instance([4.0, 1.0], [0.8, 0.0], prices=[3.0, 0.0])
        q = np.array([0.8, 0.0])
        sol = optimize_allocation(plat, streamers, q)
        theta_grid, w_grid = grid_search_allocation(plat, streamers, q)
        assert sol.converged and sol.kkt_residual <= 1e-8
        assert np.array_equal(sol.theta.theta, [0.0, 1.0])
        assert np.array_equal(theta_grid.theta, [0.0, 1.0])
        assert sol.welfare == pytest.approx(167.4703381575767, rel=1e-12)
        assert sol.welfare >= w_grid - 1e-9 * abs(w_grid)

    def test_priced_instance_reaches_an_interior_optimum(self):
        plat, streamers, q = _interior_optimum_instance()
        sol = optimize_allocation(plat, streamers, q)
        theta_grid, w_grid = grid_search_allocation(plat, streamers, q)
        assert sol.converged and sol.kkt_residual <= 1e-8
        assert 0.0 < theta_grid.theta[0] < 1.0
        assert np.max(np.abs(sol.theta.theta - theta_grid.theta)) <= 1e-3
        assert sol.welfare >= w_grid - 1e-9 * abs(w_grid)

    def test_line_search_halves_steps_that_lower_welfare(self, monkeypatch):
        # A step far above 1 / |g| projects onto the vertex of the largest
        # gradient entry, where welfare is below the start's: that trial is
        # halved, not taken, no step that loses more than float noise is
        # taken, and a search cut at max_iter is not reported converged.
        plat, streamers, q = _interior_optimum_instance()
        calls = _record_welfare_raw(monkeypatch)
        sol = optimize_allocation(plat, streamers, q, step=100.0, max_iter=2)
        assert sol.iterations == 2
        assert len(calls) > 1 + 2  # the start and an accepted step per iteration
        start = calls[0][1][0].total
        assert np.array_equal(calls[1][0][2], [1.0, 0.0]) and calls[1][1][0].total < start
        assert 0.0 < sol.theta.theta[0] < 1.0
        assert sol.welfare >= start - 2 * 1e-12 * (1.0 + abs(start))
        assert not sol.converged and sol.kkt_residual > 1e-8

    @pytest.mark.parametrize("m", [500, 5_000, 50_000])
    def test_interior_optimum_converges_at_large_m(self, m):
        # beta M held at 0.5: the gradient grows with M, and a line search
        # that re-grew its step zig-zagged for all 500 iterations.
        plat, streamers, q = _interior_optimum_instance()
        small = optimize_allocation(plat, streamers, q)
        scaled = dataclasses.replace(plat, n_viewers=m, beta=plat.beta * plat.n_viewers / m)
        sol = optimize_allocation(scaled, streamers, q)
        assert small.converged and sol.converged and sol.kkt_residual <= 1e-8
        assert np.max(np.abs(sol.theta.theta - small.theta.theta)) <= 1e-6

    def test_stops_when_no_halved_step_keeps_the_welfare(self, monkeypatch):
        # With a one-sweep fixed point even the shortest trial step lands on
        # a lower welfare here: 60 halvings, then the search gives up at the
        # start.
        plat, streamers, q = _interior_optimum_instance()
        calls = _record_welfare_raw(monkeypatch)
        sol = optimize_allocation(plat, streamers, q, fp_cfg=FixedPointConfig(max_iter=1))
        assert len(calls) == 1 + 60
        # each trial moves half as far as the one before, until the move is
        # below float resolution
        moves = [abs(args[2][0] - 0.5) for args, _ in calls[1:]]
        inside = [d for d in moves if 1e-9 < d < 0.5]
        assert len(inside) > 10
        assert inside[1:] == pytest.approx([d / 2 for d in inside[:-1]], rel=1e-6)
        assert sol.iterations == 1
        assert np.array_equal(sol.theta.theta, [0.5, 0.5])
        assert not sol.converged and sol.kkt_residual > 1e-8

    def test_solution_is_the_accepted_evaluation(self, monkeypatch):
        # theta, audiences, breakdown and KKT residual are one evaluation's;
        # re-projecting this theta would turn its zero share into 7.4e-17
        # and take it out of the active set.
        q = [0.6, 0.2, 0.4]
        plat, streamers, _ = instance(
            [4.505307378137692, 1.8755254062342854, 2.4538058108285026], q,
            beta=0.006907130081516795,
            prices=[5.143194514067462, 0.858498170689439, 3.2625256522505657],
        )
        plat = dataclasses.replace(plat, phi=0.6199067729262099)
        calls = _record_welfare_raw(monkeypatch)
        sol = optimize_allocation(plat, streamers, np.array(q))
        assert sol.converged and 0.0 < sol.theta.theta[0] < 1.0
        assert sol.theta.theta[2] == 0.0 and sol.active_set == (2,)
        breakdown, n, g, _ = [r for a, r in calls if np.array_equal(a[2], sol.theta.theta)][-1]
        assert sol.breakdown == breakdown and np.array_equal(sol.state.n, n)
        assert sol.kkt_residual == welfare._kkt_residual(g, sol.theta.theta)

    @pytest.mark.parametrize("max_iter, damping", [(8, 1.0), (40, 0.5)])
    def test_unconverged_line_search_is_not_reported_converged(
        self, monkeypatch, max_iter, damping
    ):
        # The KKT test passes, but every fixed point the search solved
        # stopped at max_iter, the accepted one among them.
        plat, streamers, q = parse_instance(_INSTANCE_N3)
        calls = _record_welfare_raw(monkeypatch)
        sol = optimize_allocation(
            plat, streamers, q,
            fp_cfg=FixedPointConfig(tol=1e-13, max_iter=max_iter, damping=damping),
        )
        assert not any(result[3] for _, result in calls)
        assert sol.kkt_residual <= 1e-8
        assert sol.converged is False

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tol": float("nan")}, "tol must be finite and > 0"),
            ({"tol": -1.0}, "tol must be finite and > 0"),
            ({"tol": 0.0}, "tol must be finite and > 0"),
            ({"tol": "1e-8"}, "tol must be a number"),
            ({"step": float("nan")}, "step must be finite and > 0"),
            ({"step": float("inf")}, "step must be finite and > 0"),
            ({"max_iter": 0}, "max_iter must be >= 1"),
            ({"max_iter": 2.5}, "max_iter must be an integer"),
            ({"max_iter": True}, "max_iter must be an integer"),
        ],
    )
    def test_controls_checked_at_the_boundary(self, kwargs, message):
        plat, streamers, _ = instance([1.1, 0.9], [0.6, 0.5], beta=0.001)
        with pytest.raises(DomainError, match=message):
            optimize_allocation(plat, streamers, np.array([0.6, 0.5]), **kwargs)

    def test_two_streamer_grid_equivalence(self):
        plat, streamers, _ = instance([1.1, 0.9], [0.6, 0.5], beta=0.001)
        q = np.array([0.6, 0.5])
        sol = optimize_allocation(plat, streamers, q)
        _, w_grid = grid_search_allocation(plat, streamers, q, resolution=0.001)
        assert sol.welfare >= w_grid - 1e-6 * abs(w_grid)


def _row_major_fixed_point(v_theta, m, beta, fp_cfg):
    """Returns the audiences, the sweep the iteration stopped on (None when
    it ran out of max_iter) and the residual of its last sweep."""
    n = np.full_like(v_theta, m / v_theta.shape[1])
    residual = np.inf
    for sweep in range(fp_cfg.max_iter):
        v = v_theta + beta * n
        v = v - v.max(axis=1, keepdims=True)
        e = np.exp(v)
        target = m * e / e.sum(axis=1, keepdims=True)
        residual = np.max(np.abs(n - target))
        if residual <= fp_cfg.tol:
            return n, sweep, residual
        n = (1.0 - fp_cfg.damping) * n + fp_cfg.damping * target
    return n, None, residual


def _row_major_grid_oracle(platform, streamers, q, resolution, fp_cfg, block=None):
    """The grid oracle as first written: one (K, N) row per grid point.

    Kept as the bitwise reference for the streamer-major, block-wise
    oracle: the fixed point iterates each run of block rows on its own (all
    rows together when block is None). Returns the best theta and welfare
    and, at every grid point, the grid, v_theta, the audiences and the
    welfare, with the sweep and residual each block's fixed point stopped on.
    """
    big_n = platform.n_streamers
    alpha = np.array([s.alpha for s in streamers])
    c = np.array([s.cost_coefficient for s in streamers])
    m = float(platform.n_viewers)
    k = int(round(1.0 / resolution))
    if big_n == 2:
        i = np.arange(k + 1)
        thetas = np.stack([i, k - i], axis=1) / k
    else:
        i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        mask = i + j <= k
        thetas = np.stack([i[mask], j[mask], k - i[mask] - j[mask]], axis=1) / k
    v_theta = (alpha * q - platform.prices)[None, :] + platform.phi * thetas
    rows = block or len(v_theta)
    n, sweeps, residuals = zip(*(
        _row_major_fixed_point(v_theta[a:a + rows], m, platform.beta, fp_cfg)
        for a in range(0, len(v_theta), rows)
    ))
    n = np.concatenate(n)

    v = v_theta + platform.beta * n
    shift = v.max(axis=1, keepdims=True)
    e = np.exp(v - shift)
    p = e / e.sum(axis=1)[:, None]
    v_gross = v + platform.prices[None, :]
    shift_g = v_gross.max(axis=1, keepdims=True)
    lse = shift_g[:, 0] + np.log(np.exp(v_gross - shift_g).sum(axis=1))
    cs = m * (lse - p @ platform.prices)
    ps = (1.0 - platform.tau) * platform.revenue_per_viewer * n.sum(axis=1) - np.sum(
        c * q * q
    )
    w = cs + ps + platform.tau * platform.revenue_per_viewer * m
    best = int(np.argmax(w))
    return SimpleNamespace(
        theta=simplex_project(thetas[best]), w_best=float(w[best]), thetas=thetas,
        v_theta=v_theta, n=n, w=w, sweeps=sweeps, residuals=residuals,
    )


# (alphas, q, prices): N = 2 and 3, without and with prices
_GRID_CASES = [
    ([1.1, 0.9], [0.6, 0.5], None),
    ([1.1, 0.9], [0.6, 0.5], [0.3, 0.05]),
    ([1.2, 1.0, 0.4], [0.8, 0.7, 0.5], None),
    ([1.2, 1.0, 0.4], [0.8, 0.7, 0.5], [0.1, 0.4, 0.25]),
]


def _grid_instance(alphas, q, prices):
    plat, streamers, _ = instance(alphas, q, beta=0.003, prices=prices)
    return plat, streamers, np.asarray(q, dtype=float)


@pytest.mark.parametrize("alphas, q, prices", [c for c in _GRID_CASES if c[2] is not None])
def test_solution_breakdown_is_total_welfare_at_its_state(alphas, q, prices):
    # the optimizer keeps the breakdown of the evaluation it accepted
    # instead of revaluing its state; the two agree bitwise
    plat, streamers, q = _grid_instance(alphas, q, prices)
    sol = optimize_allocation(plat, streamers, q)
    want = total_welfare(plat, streamers, sol.state, sol.theta)
    for field in dataclasses.fields(WelfareBreakdown):
        assert getattr(sol.breakdown, field.name) == getattr(want, field.name)


def _grid_run(plat, streamers, q, cfg, resolution=0.01):
    """grid_search_allocation's theta and welfare, and the allocations,
    audiences and welfare of every column its blocks solved, in column
    order: each block's are copied as the block returns, on whichever
    thread ran it."""
    solve, solved = welfare._grid_block, {}

    def recording(market, q, k, cfg, cols, buffers):
        best = solve(market, q, k, cfg, cols, buffers)
        columns = buffers[0][:, :, :cols.stop - cols.start]
        thetas = np.empty_like(columns[0])
        welfare._simplex_columns(plat.n_streamers, k, cols, thetas)
        solved[cols.start] = thetas, columns[1].copy(), columns[3, 1].copy()
        return best

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(welfare, "_grid_block", recording)
        theta, w = grid_search_allocation(plat, streamers, q, resolution=resolution, fp_cfg=cfg)
    blocks = [solved[start] for start in sorted(solved)]
    return theta, w, tuple(np.concatenate(parts, axis=-1) for parts in zip(*blocks))


def _assert_grid_matches_reference(plat, streamers, q, cfg, resolution=0.01, block=None):
    """theta, welfare and audiences bitwise the row-major oracle's, at every
    grid point, with the reference's fixed point run on blocks of block rows."""
    ref = _row_major_grid_oracle(plat, streamers, q, resolution, cfg, block)
    theta, w_best, (thetas, n, w) = _grid_run(plat, streamers, q, cfg, resolution)
    assert np.array_equal(theta.theta, ref.theta.theta)
    assert w_best == ref.w_best
    # the argmax breaks ties by column order, so the columns keep the rows' order
    assert np.array_equal(thetas, ref.thetas.T)
    assert np.array_equal(n, ref.n.T)
    assert np.array_equal(w, ref.w)


# A column-block width that divides neither grid at resolution 0.01
# (K = 101 at N = 2, 5151 at N = 3), so blocks stop at different sweeps.
_BLOCK = 97


@pytest.fixture
def blocks_of_97_columns(monkeypatch):
    def use(big_n):
        monkeypatch.setattr(welfare, "_BLOCK_CELLS", _BLOCK * big_n)

    return use


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"{w}-workers")
def workers(request, monkeypatch):
    """The grid oracle's thread count, whatever CPUs this machine has, with
    the threads switched as often as the interpreter allows, so that two
    blocks sharing a buffer set would show in their outputs."""
    monkeypatch.setattr(welfare, "cpu_count", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


def _nan_in_block(monkeypatch, block):
    """Give the last column of the given 97-column block a NaN theta, and so
    a NaN v_theta and residual on its first sweep."""
    columns = welfare._simplex_columns

    def nan_in_last_column(big_n, k, cols, out):
        columns(big_n, k, cols, out)
        if cols.start == block * _BLOCK:
            out[1, -1] = np.nan

    monkeypatch.setattr(welfare, "_simplex_columns", nan_in_last_column)


class TestGridOracle:
    @pytest.mark.parametrize("alphas, q, prices", _GRID_CASES)
    def test_bitwise_equal_to_row_major_reference(self, alphas, q, prices):
        plat, streamers, q = _grid_instance(alphas, q, prices)
        _assert_grid_matches_reference(
            plat, streamers, q, FixedPointConfig(tol=1e-10, max_iter=5000)
        )

    @pytest.mark.parametrize("alphas, q, prices", _GRID_CASES)
    def test_grid_welfare_is_the_kernel_welfare(self, alphas, q, prices):
        # the grid's welfare, _welfare_parts on each streamer-major block,
        # agrees bitwise with _welfare_parts on the C-ordered (K, N) grid
        plat, streamers, q = _grid_instance(alphas, q, prices)
        market = Market.from_params(plat, streamers)
        cfg = FixedPointConfig(tol=1e-10, max_iter=5000)
        _, _, (thetas, n, w) = _grid_run(plat, streamers, q, cfg)
        v_theta = (market.alpha * q - market.prices)[:, np.newaxis] + market.phi * thetas
        v = np.ascontiguousarray((v_theta + market.beta * n).T)
        cs, ps, pi = welfare._welfare_parts(market, q, v, softmax(v), np.ascontiguousarray(n.T))
        assert np.array_equal(w, cs + ps + pi)

    @pytest.mark.parametrize("damping", [0.5, 1.0])
    @pytest.mark.parametrize("alphas, q, prices", _GRID_CASES)
    def test_blocks_bitwise_equal_to_row_major_reference(
        self, blocks_of_97_columns, workers, alphas, q, prices, damping
    ):
        plat, streamers, q = _grid_instance(alphas, q, prices)
        blocks_of_97_columns(plat.n_streamers)
        cfg = FixedPointConfig(tol=1e-10, max_iter=5000, damping=damping)
        _assert_grid_matches_reference(plat, streamers, q, cfg, block=_BLOCK)

    @pytest.mark.parametrize("damping", [0.5, 1.0])
    def test_max_iter_counts_the_sweeps_of_each_block(self, blocks_of_97_columns, damping):
        plat, streamers, q = _grid_instance(*_GRID_CASES[3])
        blocks_of_97_columns(3)
        cfg = FixedPointConfig(tol=1e-10, max_iter=5000, damping=damping)
        sweep = max(_row_major_grid_oracle(plat, streamers, q, 0.01, cfg, _BLOCK).sweeps)
        # the first block that needs more sweeps raises, naming its own residual
        short = dataclasses.replace(cfg, max_iter=sweep)
        ref = _row_major_grid_oracle(plat, streamers, q, 0.01, short, _BLOCK)
        residual = ref.residuals[ref.sweeps.index(None)]
        message = rf"residual {residual:.3g} > .*\(max_iter={sweep}\)"
        with pytest.raises(NumericalError, match=message):
            grid_search_allocation(plat, streamers, q, resolution=0.01, fp_cfg=short)
        _assert_grid_matches_reference(
            plat, streamers, q, dataclasses.replace(cfg, max_iter=sweep + 1), block=_BLOCK
        )

    def test_max_iter_reached_in_a_later_block(self, blocks_of_97_columns, workers):
        # Undamped at tol 1e-14 the first 24 blocks of this instance stop by
        # sweep 14, but block 24's residual bounces in rounding noise above
        # tol: it raises at max_iter and names its own residual.
        plat, streamers, q = _grid_instance(*_GRID_CASES[2])
        blocks_of_97_columns(3)
        cfg = FixedPointConfig(tol=1e-14, max_iter=40, damping=1.0)
        ref = _row_major_grid_oracle(plat, streamers, q, 0.01, cfg, _BLOCK)
        assert ref.sweeps.index(None) == 24
        message = rf"residual {ref.residuals[24]:.3g} > .*\(max_iter=40\)"
        with pytest.raises(NumericalError, match=message):
            grid_search_allocation(plat, streamers, q, resolution=0.01, fp_cfg=cfg)

    def test_earlier_blocks_error_wins_over_a_later_fast_failure(
        self, monkeypatch, blocks_of_97_columns, workers
    ):
        # block 25 fails on its first sweep while block 24, started first,
        # runs out of max_iter; the loop would raise block 24's error
        plat, streamers, q = _grid_instance(*_GRID_CASES[2])
        blocks_of_97_columns(3)
        cfg = FixedPointConfig(tol=1e-14, max_iter=40, damping=1.0)
        ref = _row_major_grid_oracle(plat, streamers, q, 0.01, cfg, _BLOCK)
        _nan_in_block(monkeypatch, 25)
        message = rf"residual {ref.residuals[24]:.3g} > .*\(max_iter=40\)"
        with pytest.raises(NumericalError, match=message):
            grid_search_allocation(plat, streamers, q, resolution=0.01, fp_cfg=cfg)

    def test_no_block_starts_after_a_failure(self, monkeypatch, blocks_of_97_columns, workers):
        # Every other block first sleeps, releasing the interpreter lock, so
        # block 10's NaN fails while the blocks started before it still run.
        # Of the 54 blocks none after block 10 + workers starts.
        plat, streamers, q = _grid_instance(*_GRID_CASES[2])
        blocks_of_97_columns(3)
        solve, started = welfare._grid_block, []

        def counting(market, q, k, cfg, cols, buffers):
            started.append(cols.start // _BLOCK)
            if cols.start != 10 * _BLOCK:
                time.sleep(0.002)
            return solve(market, q, k, cfg, cols, buffers)

        monkeypatch.setattr(welfare, "_grid_block", counting)
        _nan_in_block(monkeypatch, 10)
        with pytest.raises(NumericalError, match="residual nan"):
            grid_search_allocation(
                plat, streamers, q, resolution=0.01, fp_cfg=FixedPointConfig(tol=1e-10)
            )
        assert sorted(started)[:11] == list(range(11))
        assert max(started) <= 10 + workers

    def test_nan_in_one_later_block_raises(self, monkeypatch, blocks_of_97_columns):
        plat, streamers, q = _grid_instance(*_GRID_CASES[2])
        blocks_of_97_columns(3)
        cfg = FixedPointConfig(tol=1e-10, max_iter=5000)
        blocks = welfare._column_blocks(3, 100)
        assert len(blocks) == -(-(101 * 102 // 2) // _BLOCK)
        last = len(blocks) - 1
        # the last column, in the last block, gets a NaN theta and so a NaN v_theta
        _nan_in_block(monkeypatch, last)
        market = Market.from_params(plat, streamers)
        buffers = welfare._grid_buffers(3, _BLOCK)
        # every earlier block converges to a finite best welfare
        for cols in blocks[:last]:
            assert math.isfinite(welfare._grid_block(market, q, 100, cfg, cols, buffers)[1])
        with pytest.raises(NumericalError, match="residual nan"):
            welfare._grid_block(market, q, 100, cfg, blocks[last], buffers)

    def test_non_convergence_raises(self):
        plat, streamers, _ = instance([1.2, 1.0, 0.4], [0.8, 0.7, 0.5], beta=0.002)
        with pytest.raises(NumericalError, match=r"residual \d.*\(max_iter=1\)"):
            grid_search_allocation(
                plat, streamers, np.array([0.8, 0.7, 0.5]), resolution=0.01,
                fp_cfg=FixedPointConfig(max_iter=1),
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_residual_raises(self, blocks_of_97_columns, workers):
        plat, streamers, _ = instance([1.2, 1.0, 0.4], [0.8, 0.7, 0.5], beta=0.002)
        blocks_of_97_columns(3)
        # the largest float is a valid quality; alpha q overflows to a
        # non-finite utility, silently on every worker thread
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(NumericalError, match="residual nan"):
            grid_search_allocation(
                plat, streamers, np.array([np.finfo(float).max, 0.7, 0.5]), resolution=0.01
            )

    @pytest.mark.parametrize(
        "resolution", [0.0, 2.0, -0.01, math.nan, math.inf, 5e-324, "0.01", True]
    )
    def test_bad_resolution_rejected_before_any_work(self, monkeypatch, resolution):
        plat, streamers, q = _grid_instance(*_GRID_CASES[2])

        def no_work(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(welfare, "_column_blocks", no_work)
        with pytest.raises(DomainError, match="resolution"):
            grid_search_allocation(plat, streamers, q, resolution=resolution)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 1.0, 2.0, -np.inf, np.nan]), min_size=1,
                        max_size=30),
        width=st.integers(1, 7),
    )
    def test_first_max_is_argmax_over_all_blocks(self, values, width):
        # ties and NaN straddling blocks, each block reduced to its own first
        # maximum as _grid_block reduces it
        w = np.array(values)
        maxima = []
        for a in range(0, w.size, width):
            best = a + int(np.argmax(w[a:a + width]))
            maxima.append((best, float(w[best])))
        index, value = welfare._first_max(maxima)
        best = int(np.argmax(w))
        assert index == best
        assert np.array_equal(value, w[best], equal_nan=True)

    def test_traced_peak_is_a_few_blocks(self, monkeypatch):
        # numpy reports its data buffers to tracemalloc; the whole-grid
        # (3, 501501) arrays took about 41 MB. Two workers hold two buffer
        # sets of about 1.7 MB each, whatever CPUs this machine has.
        monkeypatch.setattr(welfare, "cpu_count", lambda: 2)
        plat, streamers, q = _ORACLE_INSTANCES["instance_n3"]()
        tracemalloc.start()
        try:
            grid_search_allocation(plat, streamers, q, resolution=0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_abm_traced_peak_is_a_few_bytes_per_viewer(self, monkeypatch, workers):
        # The ABM at M = 100,000, N = 50: three float64 viewer columns, two
        # int8 ones and the (M,) realized utilities make 3.4 MB, the block
        # buffers 1.1 MB per worker thread. More than one worker adds the
        # 0.1 MB copy of the last choices. Every column kept as float64 or
        # int64, with three fresh (M,) arrays a round, peaks above 9 MB on
        # one worker.
        monkeypatch.setattr(abm, "cpu_count", lambda: workers)
        # lazy imports, the thread pool's among them: two blocks of viewers
        simulate(SimConfig(n_streamers=50, n_viewers=2000, n_rounds=1))
        tracemalloc.start()
        try:
            simulate(SimConfig(n_streamers=50, n_viewers=100_000, n_rounds=3, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6 + 1.3e6 * (workers - 1)


# Each entry point's own (tol, max_iter) when it is called without a config.
_DEFAULT_CONTROLS = {
    "grid": (1e-10, 5000),
    "optimize": (1e-13, 20000),
}


def _entry_point_outputs(site, plat, streamers, q, cfg):
    if site == "grid":
        best, w = grid_search_allocation(plat, streamers, q, resolution=0.02, fp_cfg=cfg)
        return best.theta, w
    sol = optimize_allocation(plat, streamers, q, fp_cfg=cfg)
    return sol.theta.theta, sol.welfare, sol.kkt_residual, sol.iterations, sol.converged


def _random_instance(seed):
    """A 3-streamer instance drawn as acceptance criterion 10 and the
    benchmark's generated optimize-theta instance draw theirs."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.5, 1.3, 3)
    q = rng.uniform(0.4, 0.9, 3)
    plat = PlatformParams(
        n_streamers=3, n_viewers=50, beta=float(rng.uniform(0.0, 0.004)), tau=0.2
    )
    streamers = [StreamerParams(alpha=float(a), eta=1.0, cost_coefficient=2.0) for a in alphas]
    return plat, streamers, q


_ORACLE_INSTANCES = {
    **{f"criterion10_seed{seed}": lambda seed=seed: _random_instance(seed)
       for seed in range(200, 210)},
    "instance_n3": lambda: parse_instance(_INSTANCE_N3),
    "generated_seed0": lambda: _random_instance(0),
}


class TestDefaultDamping:
    """Without a config, the welfare layer iterates undamped when beta M < 2."""

    @pytest.mark.parametrize("site", sorted(_DEFAULT_CONTROLS))
    @pytest.mark.parametrize("beta, damping", [(0.002, 1.0), (0.05, 0.5)],
                             ids=["contraction", "beta_m_2.5"])
    def test_default_is_the_explicit_config(self, site, beta, damping):
        plat, streamers, _ = instance([1.2, 1.0, 0.4], [0.8, 0.7, 0.5], beta=beta)
        q = np.array([0.8, 0.7, 0.5])
        tol, max_iter = _DEFAULT_CONTROLS[site]
        explicit = FixedPointConfig(damping=damping, tol=tol, max_iter=max_iter)
        default = _entry_point_outputs(site, plat, streamers, q, None)
        given_cfg = _entry_point_outputs(site, plat, streamers, q, explicit)
        assert len(default) == len(given_cfg)
        for a, b in zip(default, given_cfg):
            assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        big_n=st.sampled_from([2, 3]),
        m=st.floats(1.0, 200.0),
        beta_m=st.floats(0.0, 1.9),
        data=st.data(),
    )
    def test_undamped_agrees_with_damped_in_no_more_sweeps(self, big_n, m, beta_m, data):
        unit = st.floats(0.0, 1.0)
        alphas = data.draw(st.lists(st.floats(0.2, 2.0), min_size=big_n, max_size=big_n))
        q = np.array(data.draw(st.lists(unit, min_size=big_n, max_size=big_n)))
        prices = data.draw(st.none() | st.lists(unit, min_size=big_n, max_size=big_n))
        weights = data.draw(st.none() | st.lists(st.floats(0.01, 1.0), min_size=big_n,
                                                 max_size=big_n))
        theta = None if weights is None else np.array(weights) / sum(weights)
        plat, streamers, _ = instance(alphas, q, m=m, beta=beta_m / m, prices=prices)
        market = Market.from_params(plat, streamers)
        assert market.beta * market.m < 2.0
        tol = 1e-10
        solved = {}
        for damping in (1.0, 0.5):
            cfg = FixedPointConfig(damping=damping, tol=tol, max_iter=20000)
            n, converged, sweeps, _ = viewer_fixed_point(
                market, q[np.newaxis], plat.symmetric_split()[np.newaxis], cfg, theta
            )
            assert converged[0]
            solved[damping] = n[0], int(sweeps[0])
        (n_undamped, sweeps_undamped), (n_damped, sweeps_damped) = solved[1.0], solved[0.5]
        # each end point is within tol / (1 - beta M / 2) of the unique fixed point
        bound = 2.0 * tol / (1.0 - market.beta * market.m / 2.0)
        assert np.max(np.abs(n_undamped - n_damped)) <= bound
        assert sweeps_undamped <= sweeps_damped

    @pytest.mark.parametrize("name", list(_ORACLE_INSTANCES))
    def test_grid_argmax_unchanged_from_the_damped_oracle(self, name):
        plat, streamers, q = _ORACLE_INSTANCES[name]()
        assert plat.beta * plat.n_viewers < 2.0
        theta, w = grid_search_allocation(plat, streamers, q, resolution=0.002)
        theta_damped, w_damped = grid_search_allocation(
            plat, streamers, q, resolution=0.002,
            fp_cfg=FixedPointConfig(tol=1e-10, max_iter=5000),
        )
        assert np.array_equal(theta.theta, theta_damped.theta)
        assert abs(w - w_damped) <= 1e-9 * abs(w_damped)
