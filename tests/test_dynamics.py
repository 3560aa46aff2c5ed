"""Tests for the continuous-time dynamics."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfx import cli, dynamics
from headfx.core import (
    Market,
    MarketState,
    PlatformParams,
    StreamerParams,
    TrafficAllocation,
    choice_probabilities,
    deterministic_utility,
)
from headfx.dynamics import (
    IntegratorConfig,
    _integrate_batch,
    _stacked_flow,
    assess_stability,
    hhi,
    integrate,
    jacobian,
    path_dependence_experiment,
    phase_portrait,
    stability_at,
)
from headfx.equilibrium import FixedPointConfig, find_critical_beta, solve_joint_equilibrium
from headfx.errors import DimensionMismatchError, DivergenceError, DomainError, NonFiniteError

CFG = FixedPointConfig(tol=1e-12, max_iter=60000)


def symmetric_instance(n=2, m=100.0, alpha=1.0, c=2.0, beta=0.0, tau=0.2):
    plat = PlatformParams(n_streamers=n, n_viewers=m, beta=beta, tau=tau)
    streamers = [StreamerParams(alpha=alpha, eta=1.0, cost_coefficient=c)] * n
    return plat, streamers


def flow_at(plat, streamers, state, theta=None):
    """(dn/dt, dq/dt) at one state, from the stacked flow that integrate and jacobian use."""
    s = np.stack([state.n, state.q])
    theta_vec = None if theta is None else theta.theta
    return _stacked_flow(Market.from_params(plat, streamers), theta_vec, s)(s).reshape(-1)


class TestRhs:
    def test_vanishes_at_equilibrium(self):
        plat, streamers = symmetric_instance(beta=0.01)
        eq = solve_joint_equilibrium(plat, streamers, CFG)
        assert eq.converged
        deriv = flow_at(plat, streamers, eq.state)
        assert np.max(np.abs(deriv)) < 10 * CFG.tol * 100

    def test_audience_above_target_decreases(self):
        plat, streamers = symmetric_instance(beta=0.0)
        # symmetric utilities -> M P = (50, 50); start above for streamer 0
        state = MarketState(n=np.array([80.0, 20.0]), q=np.array([0.5, 0.5]))
        deriv = flow_at(plat, streamers, state)
        assert deriv[0] < 0 and deriv[1] > 0


SHORT = IntegratorConfig(dt=0.1, t_end=1.0)


class TestStateLength:
    @pytest.mark.parametrize(
        "call",
        [
            lambda plat, streamers, state: jacobian(plat, streamers, state),
            lambda plat, streamers, state: stability_at(plat, streamers, state),
            lambda plat, streamers, state: integrate(plat, streamers, state, SHORT),
            lambda plat, streamers, state: path_dependence_experiment(
                plat, streamers, 1.0, SHORT, state0=state
            ),
            lambda plat, streamers, state: phase_portrait(plat, streamers, [state, state], SHORT),
            # a start of the right length first, so the starts differ in length
            lambda plat, streamers, state: phase_portrait(
                plat, streamers, [MarketState(n=np.full(3, 10.0), q=np.full(3, 0.5)), state], SHORT
            ),
        ],
        ids=["jacobian", "stability_at", "integrate", "path_dependence", "portrait",
             "portrait_mixed"],
    )
    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_state_rejected(self, call, length):
        plat, streamers = symmetric_instance(n=3, beta=0.05)
        state = MarketState(n=np.full(length, 10.0), q=np.full(length, 0.5))
        with pytest.raises(DimensionMismatchError,
                           match=rf"state.n must have shape \(3,\), got \({length},\)"):
            call(plat, streamers, state)


class TestIntegrate:
    def test_constant_at_equilibrium(self):
        plat, streamers = symmetric_instance(beta=0.01)
        eq = solve_joint_equilibrium(plat, streamers, CFG)
        traj = integrate(
            plat, streamers, eq.state, IntegratorConfig(dt=0.01, t_end=10.0, record_every=100)
        )
        drift_n = np.max(np.abs(traj.n - eq.state.n))
        drift_q = np.max(np.abs(traj.q - eq.state.q))
        assert max(drift_n, drift_q) < 1e-8

    def test_converges_to_symmetric_point_from_asymmetric_start(self):
        plat, streamers = symmetric_instance(beta=0.002)
        eq = solve_joint_equilibrium(plat, streamers, CFG)
        state0 = MarketState(n=np.array([70.0, 30.0]), q=np.array([0.8, 0.3]))
        traj = integrate(
            plat, streamers, state0, IntegratorConfig(dt=0.02, t_end=60.0, record_every=500)
        )
        assert np.max(np.abs(traj.terminal.n - eq.state.n)) < 1e-6 * 100
        assert np.max(np.abs(traj.terminal.q - eq.state.q)) < 1e-6 * 100

    def test_step_halving_changes_little_and_order_is_high(self):
        plat, streamers = symmetric_instance(beta=0.01)
        state0 = MarketState(n=np.array([70.0, 30.0]), q=np.array([0.8, 0.3]))

        def terminal(dt):
            cfg = IntegratorConfig(dt=dt, t_end=5.0, record_every=10**9)
            traj = integrate(plat, streamers, state0, cfg)
            return np.concatenate([traj.terminal.n, traj.terminal.q])

        ref = terminal(0.0125)
        e1 = np.max(np.abs(terminal(0.2) - ref))
        e2 = np.max(np.abs(terminal(0.1) - ref))
        e3 = np.max(np.abs(terminal(0.05) - ref))
        order12 = np.log2(e1 / e2)
        order23 = np.log2(e2 / e3)
        assert order12 >= 3.5 and order23 >= 3.5
        # halving from an already-fine step barely moves the terminal state
        fine = terminal(0.01)
        finer = terminal(0.005)
        assert np.max(np.abs(fine - finer)) < 1e-6 * 100

    def test_total_audience_relaxes_exponentially(self):
        # d(sum n)/dt = gamma (M - sum n) exactly, so the gap decays as exp(-gamma t)
        plat, streamers = symmetric_instance(beta=0.05)
        state0 = MarketState(n=np.array([30.0, 30.0]), q=np.array([0.5, 0.5]))
        traj = integrate(
            plat, streamers, state0, IntegratorConfig(dt=0.01, t_end=5.0, record_every=50)
        )
        gap0 = 60.0 - 100.0
        for t, n in zip(traj.times, traj.n):
            expected = 100.0 + gap0 * np.exp(-plat.gamma * t)
            assert n.sum() == pytest.approx(expected, rel=1e-6)

    def test_divergence_error_names_time(self):
        plat, streamers = symmetric_instance(beta=0.2)
        state0 = MarketState(n=np.array([60.0, 40.0]), q=np.array([0.5, 0.5]))
        with pytest.raises(DivergenceError, match="t="):
            # dt far beyond the stability limit of the stiff feedback
            integrate(plat, streamers, state0, IntegratorConfig(dt=40.0, t_end=400.0))


class TestIntegratorConfig:
    @pytest.mark.parametrize("field", ["dt", "t_end"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_step_and_horizon_must_be_finite_and_positive(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite and > 0"):
            IntegratorConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, 2.5, 3.0, True])
    def test_record_every_must_be_a_positive_integer(self, value):
        with pytest.raises(DomainError, match="record_every must be"):
            IntegratorConfig(record_every=value)

    def test_numpy_integer_stride_accepted(self):
        assert IntegratorConfig(record_every=np.int64(3)).record_every == 3

    @pytest.mark.parametrize(
        "t_end,dt", [(1e300, 1e-10), (200.0, 5e-324), (1e300, 1e-5)]
    )
    def test_step_count_must_fit_an_array(self, t_end, dt):
        with pytest.raises(DomainError, match="t_end / dt must be at most"):
            IntegratorConfig(dt=dt, t_end=t_end)

    @pytest.mark.parametrize("t_end,dt", [(1e-3, 0.01), (0.01, 0.05), (200.0, 500.0)])
    def test_horizon_shorter_than_half_a_step_rejected(self, t_end, dt):
        with pytest.raises(DomainError, match="rounds to zero RK4 steps"):
            IntegratorConfig(dt=dt, t_end=t_end)

    def test_horizon_of_half_a_step_or_more_takes_a_step(self):
        assert IntegratorConfig(dt=0.01, t_end=0.006).n_steps == 1


class TestJacobian:
    def test_single_streamer_beta_zero_diagonal(self):
        plat = PlatformParams(n_streamers=1, n_viewers=100, beta=0.0, gamma=1.7)
        streamers = [StreamerParams(alpha=1.0, cost_coefficient=2.0)]
        state = MarketState(n=np.array([100.0]), q=np.array([0.5]))
        jac = jacobian(plat, streamers, state)
        # P is constant, so d ndot / dn = -gamma exactly
        assert jac[0, 0] == pytest.approx(-1.7, abs=1e-6)

    def test_audience_block_is_the_logit_identity(self):
        # d ndot / dn = gamma (beta M J - I) and d ndot / dq = gamma M J diag alpha,
        # J = diag P - P P^T, formed by these operations bitwise
        plat = PlatformParams(n_streamers=3, n_viewers=90, beta=0.01, gamma=1.3, phi=0.7,
                              prices=np.array([0.2, 0.0, 0.5]))
        streamers = [StreamerParams(alpha=a, cost_coefficient=2.0) for a in (1.0, 0.8, 1.2)]
        state = MarketState(n=np.array([40.0, 30.0, 20.0]), q=np.array([0.5, 0.6, 0.4]))
        theta = TrafficAllocation(np.array([0.5, 0.2, 0.3]))
        p = choice_probabilities(deterministic_utility(plat, streamers, state, theta))
        dp_dv = np.diag(p) - np.outer(p, p)
        alpha = np.array([1.0, 0.8, 1.2])
        jac = jacobian(plat, streamers, state, theta)
        assert jac[:3, :3].tobytes() == (1.3 * (90.0 * 0.01 * dp_dv - np.eye(3))).tobytes()
        assert jac[:3, 3:].tobytes() == (1.3 * 90.0 * dp_dv * alpha).tobytes()

    def test_diagonal_analytic_entry_is_gamma_times_sensitivity(self):
        from headfx.core import audience_quality_sensitivity

        plat, streamers = symmetric_instance(beta=0.01)
        state = MarketState(n=np.array([55.0, 45.0]), q=np.array([0.6, 0.4]))
        dndq = jacobian(plat, streamers, state)[:2, 2:]
        sens = audience_quality_sensitivity(plat, streamers, state)
        assert np.diag(dndq) == pytest.approx(plat.gamma * sens, rel=1e-12)

    def test_permutation_conjugates_jacobian(self):
        plat = PlatformParams(n_streamers=3, n_viewers=90, beta=0.01)
        streamers = [StreamerParams(alpha=a, cost_coefficient=2.0) for a in (1.0, 0.8, 1.2)]
        state = MarketState(n=np.array([40.0, 30.0, 20.0]), q=np.array([0.5, 0.6, 0.4]))
        jac = jacobian(plat, streamers, state)
        perm = np.array([2, 0, 1])
        streamers_p = [streamers[i] for i in perm]
        state_p = MarketState(n=state.n[perm], q=state.q[perm])
        jac_p = jacobian(plat, streamers_p, state_p)
        full_perm = np.concatenate([perm, perm + 3])
        assert jac_p == pytest.approx(jac[np.ix_(full_perm, full_perm)], abs=1e-6)


class TestStability:
    def test_diagonal_cases(self):
        stable = assess_stability(np.diag([-1.0, -2.0]))
        assert stable.stable
        assert stable.eigen_real_parts == pytest.approx([-1.0, -2.0])
        unstable = assess_stability(np.diag([-1.0, 0.5]))
        assert not unstable.stable

    def test_rejections(self):
        with pytest.raises(DimensionMismatchError):
            assess_stability(np.zeros((2, 3)))
        with pytest.raises(NonFiniteError):
            assess_stability(np.array([[np.nan, 0.0], [0.0, -1.0]]))

    def test_symmetric_point_unstable_above_threshold(self):
        plat, streamers = symmetric_instance(n=2, beta=0.12, c=2.0)
        q_sym = 0.8 * 100 * 1.0 * 0.25 / (2 * 2.0)
        state = MarketState(n=np.array([50.0, 50.0]), q=np.array([q_sym, q_sym]))
        report = stability_at(plat, streamers, state)
        assert not report.stable
        assert report.eigen_real_parts[0] > 0


class TestPathDependence:
    def test_no_feedback_contracts(self):
        plat, streamers = symmetric_instance(beta=0.0)
        record = path_dependence_experiment(
            plat, streamers, delta0=0.1, cfg=IntegratorConfig(dt=0.05, t_end=60.0, record_every=100)
        )
        assert record.terminal_share_gap < 1e-6
        assert abs(record.gap_plus[0]) > abs(record.gap_plus[-1])

    def test_strong_feedback_locks_in_the_favored_streamer(self):
        plat, streamers = symmetric_instance(beta=0.2)
        record = path_dependence_experiment(
            plat, streamers, delta0=0.1, cfg=IntegratorConfig(dt=0.02, t_end=150.0, record_every=200)
        )
        assert record.winner_plus == 0
        assert record.winner_minus == 1
        for traj in (record.trajectory_plus, record.trajectory_minus):
            assert traj.terminal.n.max() / traj.terminal.n.sum() > 0.95

    def test_swapping_the_advantage_swaps_the_winner(self):
        plat, streamers = symmetric_instance(beta=0.2)
        cfg = IntegratorConfig(dt=0.02, t_end=150.0, record_every=200)
        q_sym = np.full(2, 0.8 * 100 * 0.25 / 4.0)
        base = MarketState(n=np.array([50.0, 50.0]), q=q_sym)
        record = path_dependence_experiment(plat, streamers, 0.1, cfg, state0=base)
        # giving streamer 1 the advantage instead mirrors the outcome
        swapped = MarketState(n=np.array([49.95, 50.05]), q=q_sym)
        traj = integrate(plat, streamers, swapped, cfg)
        assert record.winner_plus == 0
        assert int(np.argmax(traj.terminal.n)) == 1

    def test_delta_domain(self):
        plat, streamers = symmetric_instance()
        with pytest.raises(DomainError):
            path_dependence_experiment(plat, streamers, 0.0, IntegratorConfig(dt=0.1, t_end=1.0))

    def test_needs_two_streamers(self):
        plat, streamers = symmetric_instance(n=1)
        with pytest.raises(DomainError, match="path dependence needs at least 2 streamers"):
            path_dependence_experiment(plat, streamers, 1.0, IntegratorConfig(dt=0.1, t_end=1.0))


class TestHHI:
    def test_uniform(self):
        for n in (2, 5, 15):
            assert hhi(np.full(n, 3.0)) == pytest.approx(1.0 / n)

    def test_one_hot(self):
        assert hhi(np.array([0.0, 7.0, 0.0])) == pytest.approx(1.0)

    def test_hand_value(self):
        assert hhi(np.array([60.0, 40.0])) == pytest.approx(0.52)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        n = rng.uniform(0, 10, size=8)
        n[0] += 1.0
        for k in (0.1, 2.0, 1e6):
            assert hhi(k * n) == pytest.approx(hhi(n), rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            hhi(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NonFiniteError, match="finite"):
            hhi(np.array([bad, 1.0]))


class TestPhasePortrait:
    def test_constant_at_equilibrium_grid(self):
        plat, streamers = symmetric_instance(beta=0.01)
        eq = solve_joint_equilibrium(plat, streamers, CFG)
        grid = [eq.state] * 3
        result = phase_portrait(
            plat, streamers, grid, IntegratorConfig(dt=0.05, t_end=2.0, record_every=4)
        )
        assert not result.failures
        for traj in result.completed():
            assert np.max(np.abs(traj.n - eq.state.n)) < 1e-8

    def test_sample_count_bookkeeping(self):
        plat, streamers = symmetric_instance(beta=0.01)
        state = MarketState(n=np.array([60.0, 40.0]), q=np.array([0.5, 0.5]))
        cfg = IntegratorConfig(dt=0.1, t_end=10.0, record_every=5)
        result = phase_portrait(plat, streamers, [state, state], cfg)
        expected = 10.0 / 0.1 / 5 + 1
        for traj in result.completed():
            assert traj.times.shape == (expected,)
            assert traj.n.shape == traj.q.shape == (expected, 2)
        total_rows = sum(t.n.shape[0] for t in result.completed())
        assert total_rows == expected * 2

    def test_concentration_nondecreasing_under_strong_feedback(self):
        plat, streamers = symmetric_instance(beta=0.2)
        q_sym = np.full(2, 0.8 * 100 * 0.25 / 4.0)
        rng = np.random.default_rng(32)
        grid = []
        for _ in range(25):
            bump = rng.uniform(-1.0, 1.0)
            grid.append(
                MarketState(n=np.array([50.0 + bump, 50.0 - bump]), q=q_sym)
            )
        result = phase_portrait(
            plat, streamers, grid, IntegratorConfig(dt=0.02, t_end=80.0, record_every=400)
        )
        assert not result.failures
        for traj in result.completed():
            assert hhi(traj.terminal.n) >= hhi(traj.n[0]) - 1e-6

    def test_empty_grid_rejected(self):
        plat, streamers = symmetric_instance()
        with pytest.raises(DomainError):
            phase_portrait(plat, streamers, [], IntegratorConfig(dt=0.1, t_end=1.0))


# The per-vector flow and the single-start RK4 integrator that ran before
# the state was stacked, one start per Python loop and the logit formulas
# written out. Kept as the bitwise reference for the stacked integrator
# and flow; their central differences check the closed-form jacobian.


def _reference_flow(platform, streamers, theta=None):
    market = Market.from_params(platform, streamers)
    cost_slope = 2.0 * market.c

    def f(n, q):
        v = market.alpha * q - market.prices + market.network(n)
        if theta is not None:
            v = v + market.phi * theta.theta
        e = np.exp(v - v.max())
        p = e / e.sum()
        dn = market.gamma * (market.m * p - n)
        dq = market.eta * (market.revenue * p * (1.0 - p) - cost_slope * q)
        return dn, dq

    return f


def _reference_jacobian(platform, streamers, state, theta=None):
    big_n = platform.n_streamers
    x0 = np.concatenate([state.n, state.q])
    flow = _reference_flow(platform, streamers, theta)

    def f(x):
        return np.concatenate(flow(x[:big_n], x[big_n:]))

    jac = np.empty((2 * big_n, 2 * big_n))
    for i in range(2 * big_n):
        h = 1e-6 * (1.0 + abs(x0[i]))
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (f(xp) - f(xm)) / (2.0 * h)
    return jac


def _reference_integrate(platform, streamers, state0, cfg, theta=None):
    """Returns (times, n matrix, q matrix) or raises DivergenceError."""
    m = float(platform.n_viewers)
    dt = cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    f = _reference_flow(platform, streamers, theta)

    n = state0.n.copy()
    q = state0.q.copy()
    times, ns, qs = [0.0], [n.copy()], [q.copy()]
    for step in range(1, n_steps + 1):
        k1n, k1q = f(n, q)
        k2n, k2q = f(n + 0.5 * dt * k1n, q + 0.5 * dt * k1q)
        k3n, k3q = f(n + 0.5 * dt * k2n, q + 0.5 * dt * k2q)
        k4n, k4q = f(n + dt * k3n, q + dt * k3q)
        n = n + (dt / 6.0) * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        q = np.maximum(q, 0.0)
        n = np.maximum(n, 0.0)
        t = step * dt
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(q))):
            raise DivergenceError(f"non-finite state at t={t:.6g}", t=t)
        if max(np.max(np.abs(n)), np.max(np.abs(q))) > 1e12:
            raise DivergenceError(f"state exceeded {1e12:g} at t={t:.6g}", t=t)
        if np.any(n > m * (1.0 + 1e-3)):
            raise DivergenceError(f"audience left [0, M] at t={t:.6g}; decrease dt", t=t)
        if step % cfg.record_every == 0 or step == n_steps:
            times.append(t)
            ns.append(n.copy())
            qs.append(q.copy())
    return np.array(times), np.array(ns), np.array(qs)


def _reference_outcome(platform, streamers, state0, cfg, theta=None):
    try:
        return _reference_integrate(platform, streamers, state0, cfg, theta)
    except DivergenceError as exc:
        return exc


def _assert_same_bytes(got, want):
    # np.array_equal counts -0.0 equal to 0.0; the integrator's exit rests on byte identity
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_same_path(traj, ref):
    times, ns, qs = ref
    _assert_same_bytes(traj.times, times)
    _assert_same_bytes(traj.n, ns)
    _assert_same_bytes(traj.q, qs)
    terminal = traj.terminal
    _assert_same_bytes(terminal.n, ns[-1])
    _assert_same_bytes(terminal.q, qs[-1])


def _twin_starts(state0, delta0, m):
    n_plus = state0.n.copy()
    n_plus[0] = min(n_plus[0] + delta0 / 2.0, m)
    n_minus = state0.n.copy()
    n_minus[0] = max(n_minus[0] - delta0 / 2.0, 0.0)
    return MarketState(n_plus, state0.q.copy()), MarketState(n_minus, state0.q.copy())


class TestBatchMatchesReference:
    @pytest.mark.parametrize("record_every", [1, 100])
    @pytest.mark.parametrize("n", [2, 15])
    def test_path_dependence_twins(self, record_every, n):
        plat = PlatformParams(n_streamers=n, n_viewers=1000.0, beta=0.15 if n > 2 else 0.002)
        rng = np.random.default_rng(n)
        streamers = [
            StreamerParams(alpha=0.6, eta=float(e), cost_coefficient=float(c))
            for e, c in zip(rng.uniform(0.8, 1.2, n), rng.uniform(0.1, 0.3, n))
        ]
        cfg = IntegratorConfig(dt=0.05, t_end=15.0, record_every=record_every)
        state0 = MarketState(n=np.full(n, 1000.0 / n), q=rng.uniform(0.5, 2.0, n))
        record = path_dependence_experiment(plat, streamers, 1.0, cfg, state0=state0)
        plus, minus = _twin_starts(state0, 1.0, 1000.0)
        ref_plus = _reference_integrate(plat, streamers, plus, cfg)
        ref_minus = _reference_integrate(plat, streamers, minus, cfg)
        _assert_same_path(record.trajectory_plus, ref_plus)
        _assert_same_path(record.trajectory_minus, ref_minus)
        _assert_same_path(integrate(plat, streamers, plus, cfg), ref_plus)
        _assert_same_path(integrate(plat, streamers, minus, cfg), ref_minus)
        assert np.array_equal(record.times, ref_plus[0])
        assert np.array_equal(record.gap_plus, ref_plus[1][:, 0] - ref_plus[1][:, 1])
        assert np.array_equal(record.gap_minus, ref_minus[1][:, 0] - ref_minus[1][:, 1])
        assert record.winner_plus == int(np.argmax(ref_plus[1][-1]))
        assert record.winner_minus == int(np.argmax(ref_minus[1][-1]))
        assert record.terminal_hhi_plus == hhi(ref_plus[1][-1])
        assert record.terminal_hhi_minus == hhi(ref_minus[1][-1])

    def test_default_start_twins(self):
        plat, streamers = symmetric_instance(n=3, beta=0.05)
        cfg = IntegratorConfig(dt=0.05, t_end=10.0, record_every=7)
        record = path_dependence_experiment(plat, streamers, 0.5, cfg)
        p = np.full(3, 1.0 / 3)
        q0 = (1.0 - 0.2) * 1.0 * 100.0 * np.ones(3) * p * (1.0 - p) / (2.0 * np.full(3, 2.0))
        state0 = MarketState(n=np.full(3, 100.0 / 3), q=q0)
        assert np.array_equal(record.trajectory_plus.q[0], q0)
        plus, minus = _twin_starts(state0, 0.5, 100.0)
        _assert_same_path(record.trajectory_plus, _reference_integrate(plat, streamers, plus, cfg))
        _assert_same_path(
            record.trajectory_minus, _reference_integrate(plat, streamers, minus, cfg)
        )

    def _twin_error(self, plat, streamers, state0, delta0, cfg):
        with pytest.raises(DivergenceError) as info:
            path_dependence_experiment(plat, streamers, delta0, cfg, state0=state0)
        return info.value

    def test_only_the_minus_twin_diverges(self):
        plat, streamers = symmetric_instance(beta=0.01)
        # streamer 0 starts far above M: the plus twin is clamped to M,
        # the minus twin stays outside the box
        state0 = MarketState(n=np.array([300.0, 0.0]), q=np.array([0.5, 0.5]))
        cfg = IntegratorConfig(dt=0.05, t_end=5.0)
        plus, minus = _twin_starts(state0, 10.0, 100.0)
        assert not isinstance(_reference_outcome(plat, streamers, plus, cfg), Exception)
        want = _reference_outcome(plat, streamers, minus, cfg)
        assert isinstance(want, DivergenceError)
        got = self._twin_error(plat, streamers, state0, 10.0, cfg)
        assert str(got) == str(want) and got.t == want.t

    def test_both_twins_diverge_and_the_plus_twin_wins(self):
        plat, streamers = symmetric_instance(beta=0.2)
        state0 = MarketState(n=np.array([65.0, 35.0]), q=np.array([5.0, 9.0]))
        cfg = IntegratorConfig(dt=5.0, t_end=60.0)
        plus, minus = _twin_starts(state0, 5.0, 100.0)
        want = _reference_outcome(plat, streamers, plus, cfg)
        other = _reference_outcome(plat, streamers, minus, cfg)
        # the minus twin fails first, yet the plus twin's error is raised
        assert isinstance(want, DivergenceError) and isinstance(other, DivergenceError)
        assert other.t < want.t
        got = self._twin_error(plat, streamers, state0, 5.0, cfg)
        assert str(got) == str(want) and got.t == want.t

    def test_single_start_divergence(self):
        plat, streamers = symmetric_instance(beta=0.2)
        state0 = MarketState(n=np.array([60.0, 40.0]), q=np.array([0.5, 0.5]))
        cfg = IntegratorConfig(dt=40.0, t_end=400.0)
        want = _reference_outcome(plat, streamers, state0, cfg)
        with pytest.raises(DivergenceError) as info:
            integrate(plat, streamers, state0, cfg)
        assert str(info.value) == str(want) and info.value.t == want.t

    def test_phase_portrait_with_diverging_middle_starts(self):
        plat, streamers = symmetric_instance(beta=0.05)
        q = np.array([0.8, 1.2])
        grid = [
            MarketState(n=np.array([70.0, 30.0]), q=q),
            MarketState(n=np.array([500.0, 500.0]), q=q),  # leaves [0, M]
            MarketState(n=np.array([40.0, 60.0]), q=q),
            MarketState(n=np.array([50.0, 50.0]), q=np.array([2e12, 0.5])),  # explodes
            # the largest float: its first step overflows to a non-finite state
            MarketState(n=np.array([50.0, 50.0]), q=np.array([np.finfo(float).max, 0.5])),
            MarketState(n=np.array([10.0, 90.0]), q=q),
        ]
        cfg = IntegratorConfig(dt=0.05, t_end=8.0, record_every=3)
        with np.errstate(invalid="ignore", over="ignore"):
            result = phase_portrait(plat, streamers, grid, cfg)
            refs = [_reference_outcome(plat, streamers, s, cfg) for s in grid]
        want_failures = tuple(
            (i, str(r)) for i, r in enumerate(refs) if isinstance(r, DivergenceError)
        )
        assert [i for i, _ in want_failures] == [1, 3, 4]
        assert {msg.split(" at ")[0] for _, msg in want_failures} == {
            "audience left [0, M]", "state exceeded 1e+12", "non-finite state",
        }
        assert result.failures == want_failures
        for traj, ref in zip(result.trajectories, refs):
            if isinstance(ref, DivergenceError):
                assert traj is None
            else:
                _assert_same_path(traj, ref)


@pytest.fixture
def flow_calls(monkeypatch):
    """Counts the calls of every flow _stacked_flow builds, across rebuilds."""
    calls = []
    build = dynamics._stacked_flow

    def counting_build(market, theta_vec, s):
        f = build(market, theta_vec, s)

        def counted(x):
            calls.append(None)
            return f(x)

        return counted

    monkeypatch.setattr(dynamics, "_stacked_flow", counting_build)
    return calls


@pytest.fixture(scope="module")
def criterion7():
    """Criterion 7's seed-0 pair at half its beta*, from (51, 49) at 1.05 x equilibrium q.

    The integrate call of the solver_loops benchmark; with dt 0.05 its
    RK4 step returns the state bytewise from step 1,223 of 4,000 on.
    """
    rng = np.random.default_rng(0)
    alpha, eta, cost = rng.uniform(0.9, 1.1, 2), rng.uniform(0.8, 1.2, 2), rng.uniform(2.5, 3.5, 2)
    streamers = [StreamerParams(alpha=float(a), eta=float(e), cost_coefficient=float(c))
                 for a, e, c in zip(alpha, eta, cost)]
    plat = PlatformParams(n_streamers=2, n_viewers=100, beta=0.0, tau=0.2)
    fp = FixedPointConfig(tol=1e-11, max_iter=60000)
    plat = dataclasses.replace(
        plat, beta=0.5 * find_critical_beta(plat, streamers, 1e-4, 1.0, 0.95, fp)
    )
    eq = solve_joint_equilibrium(plat, streamers, fp)
    return plat, streamers, MarketState(n=np.array([51.0, 49.0]), q=eq.state.q * 1.05)


class TestSettledExit:
    """The loop ends once a step returns the state bytewise; the reference never exits."""

    @pytest.mark.parametrize("record_every", [4000, 7, 5000])
    def test_criterion7_matches_reference(self, criterion7, flow_calls, record_every):
        # 7 does not divide 4,000 steps; 5,000 leaves no record before the exit
        plat, streamers, state0 = criterion7
        cfg = IntegratorConfig(dt=0.05, t_end=200.0, record_every=record_every)
        traj = integrate(plat, streamers, state0, cfg)
        assert len(flow_calls) < 4 * 1300
        _assert_same_path(traj, _reference_integrate(plat, streamers, state0, cfg))
        if record_every == 5000:
            assert traj.times.tolist() == [0.0, 200.0]

    def test_phase_portrait_exits_on_a_compacted_batch(self, criterion7, flow_calls):
        plat, streamers, state0 = criterion7
        grid = [
            state0,
            MarketState(n=np.array([500.0, 500.0]), q=state0.q),  # leaves [0, M] at step 1
            MarketState(n=np.array([60.0, 40.0]), q=state0.q),
            MarketState(n=np.array([45.0, 55.0]), q=state0.q * 0.9),
        ]
        cfg = IntegratorConfig(dt=0.05, t_end=200.0, record_every=300)
        result = phase_portrait(plat, streamers, grid, cfg)
        assert len(flow_calls) < 4 * cfg.n_steps
        refs = [_reference_outcome(plat, streamers, s, cfg) for s in grid]
        assert result.failures == ((1, str(refs[1])),)
        assert refs[1].t == cfg.dt and result.trajectories[1] is None
        for i in (0, 2, 3):
            _assert_same_path(result.trajectories[i], refs[i])

    def test_twins_that_never_settle_take_every_step(self, tmp_path, flow_calls):
        baseline = Path(__file__).resolve().parents[1] / "configs" / "baseline.json"
        code = cli.main(["dynamics", "--kind", "path-dependence", "--config", str(baseline),
                         "--dt", "0.05", "--out", str(tmp_path)])
        assert code == 0
        assert len(flow_calls) == 4 * IntegratorConfig(dt=0.05, t_end=200.0).n_steps


def _family_case(k, n, with_theta, with_prices, dt):
    """A seeded market with K starts; 37 steps, sampled every 5th and at the end."""
    rng = np.random.default_rng([k, n, with_theta, with_prices])
    plat = PlatformParams(
        n_streamers=n, n_viewers=100.0, beta=float(rng.uniform(0.02, 0.3)),
        prices=rng.uniform(0.0, 0.3, n) if with_prices else None,
    )
    streamers = [
        StreamerParams(alpha=float(a), eta=float(e), cost_coefficient=float(c))
        for a, e, c in zip(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n),
                           rng.uniform(1.0, 3.0, n))
    ]
    theta = TrafficAllocation(rng.dirichlet(np.ones(n))) if with_theta else None
    starts = [
        MarketState(n=n0, q=q0)
        for n0, q0 in zip(rng.dirichlet(np.full(n, 0.3), size=k) * 100.0,
                          rng.uniform(0.0, 3.0, (k, n)))
    ]
    cfg = IntegratorConfig(dt=dt, t_end=37 * dt, record_every=5)
    return plat, streamers, theta, starts, cfg


def _family_run(k, n, with_theta, with_prices, dt):
    """(batch trajectories, batch failures, reference outcomes) of one family case."""
    plat, streamers, theta, starts, cfg = _family_case(k, n, with_theta, with_prices, dt)
    with np.errstate(all="ignore"):
        trajs, failures = _integrate_batch(
            Market.from_params(plat, streamers), np.stack([s.n for s in starts]),
            np.stack([s.q for s in starts]), cfg, None if theta is None else theta.theta,
        )
        refs = [_reference_outcome(plat, streamers, s, cfg, theta) for s in starts]
    return trajs, failures, refs


FAMILY = [
    (k, n, with_theta, with_prices)
    for k in (1, 2, 5) for n in (1, 2, 3, 6, 15)
    for with_theta in (False, True) for with_prices in (False, True)
]


class TestStackedFlowMatchesReference:
    @pytest.mark.parametrize("dt", [0.05, 0.5])
    @pytest.mark.parametrize("k,n,with_theta,with_prices", FAMILY)
    def test_integrator(self, k, n, with_theta, with_prices, dt):
        trajs, failures, refs = _family_run(k, n, with_theta, with_prices, dt)
        assert {i: (str(e), e.t) for i, e in failures.items()} == {
            i: (str(r), r.t) for i, r in enumerate(refs) if isinstance(r, DivergenceError)
        }
        for traj, ref in zip(trajs, refs):
            if isinstance(ref, DivergenceError):
                assert traj is None
            else:
                _assert_same_path(traj, ref)

    def test_large_step_diverges_some_rows_mid_run_while_others_finish(self):
        mixed = []
        for k, n, with_theta, with_prices in FAMILY:
            _, failures, _ = _family_run(k, n, with_theta, with_prices, 0.5)
            if 0 < len(failures) < k and min(e.t for e in failures.values()) > 0.5:
                mixed.append((k, n, with_theta, with_prices))
        assert len(mixed) >= 2

    @pytest.mark.parametrize("k,n,with_theta,with_prices", FAMILY)
    def test_jacobian_matches_central_differences(self, k, n, with_theta, with_prices):
        plat, streamers, theta, starts, _ = _family_case(k, n, with_theta, with_prices, 0.05)
        for state in starts:
            jac = jacobian(plat, streamers, state, theta)
            ref = _reference_jacobian(plat, streamers, state, theta)
            assert np.max(np.abs(jac - ref)) <= 1e-7 * (1 + np.abs(jac).max())

    @pytest.mark.parametrize("network_form", ["level", "log"], indirect=True)
    @pytest.mark.parametrize("k,n,with_theta,with_prices", [c for c in FAMILY if c[0] == 2])
    def test_integrate_rhs_and_jacobian(self, network_form, k, n, with_theta, with_prices):
        plat, streamers, theta, starts, cfg = _family_case(k, n, with_theta, with_prices, 0.05)
        outcome = _reference_outcome(plat, streamers, starts[0], cfg, theta)
        _assert_same_path(integrate(plat, streamers, starts[0], cfg, theta), outcome)
        rows = []
        for state in starts:
            rows.append(np.stack(_reference_flow(plat, streamers, theta)(state.n, state.q)))
            assert np.array_equal(flow_at(plat, streamers, state, theta), rows[-1].reshape(-1))
            jac = jacobian(plat, streamers, state, theta)
            ref = _reference_jacobian(plat, streamers, state, theta)
            assert np.max(np.abs(jac - ref)) <= 1e-7 * (1 + np.abs(jac).max())
        s = np.stack([np.stack([x.n for x in starts]), np.stack([x.q for x in starts])])
        theta_vec = None if theta is None else theta.theta
        got = _stacked_flow(Market.from_params(plat, streamers), theta_vec, s)(s)
        _assert_same_bytes(got, np.stack(rows, axis=1))


@pytest.fixture
def network_form(request, monkeypatch):
    """The network term's form in core.Market: the shipped level term beta n,
    or the log form beta log1p(n) with slope beta / (1 + n) patched in, which
    the flow and its Jacobian must follow with no edit of their own."""
    if request.param == "log":
        monkeypatch.setattr(
            Market, "network",
            lambda self, n, out=None: np.multiply(self.beta, np.log1p(n), out=out),
        )
        monkeypatch.setattr(Market, "network_slope", lambda self, n: self.beta / (1.0 + n))
    return request.param


class TestBatchProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4),
        st.sampled_from([0.05, 0.5, 4.0]), st.integers(1, 7),
    )
    def test_integrator_rows_are_independent(self, seed, k, n, dt, record_every):
        rng = np.random.default_rng(seed)
        plat = PlatformParams(
            n_streamers=n, n_viewers=100.0, beta=float(rng.uniform(0.0, 0.3)),
            prices=rng.uniform(0.0, 0.3, n),
        )
        alpha, eta, c = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n), rng.uniform(1.0, 3.0, n)
        market = Market.from_params(plat, [
            StreamerParams(alpha=float(a), eta=float(e), cost_coefficient=float(b))
            for a, e, b in zip(alpha, eta, c)
        ])
        n0 = rng.dirichlet(np.ones(n), size=k) * 100.0
        q0 = rng.uniform(0.0, 3.0, (k, n))
        perm = rng.permutation(k)
        cfg = IntegratorConfig(dt=dt, t_end=20 * dt, record_every=record_every)

        def paths(trajectories):
            return [None if t is None else (t.n, t.q) for t in trajectories]

        def messages(failures):
            return {i: (str(e), e.t) for i, e in failures.items()}

        trajs, failures = _integrate_batch(market, n0, q0, cfg, None)
        trajs_p, failures_p = _integrate_batch(market, n0[perm], q0[perm], cfg, None)
        assert messages(failures_p) == {
            int(np.flatnonzero(perm == i)[0]): v for i, v in messages(failures).items()
        }
        for i in range(k):
            single, single_failures = _integrate_batch(
                market, n0[i : i + 1], q0[i : i + 1], cfg, None
            )
            for got in (paths(single)[0], paths(trajs_p)[int(np.flatnonzero(perm == i)[0])]):
                want = paths(trajs)[i]
                if want is None:
                    assert got is None
                else:
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert messages(single_failures) == (
                {0: messages(failures)[i]} if i in failures else {}
            )
