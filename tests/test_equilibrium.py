"""Tests for the static equilibrium solvers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfx import equilibrium
from headfx.core import (
    Market,
    MarketState,
    PlatformParams,
    StreamerParams,
    TrafficAllocation,
    choice_probabilities,
)
from headfx.equilibrium import (
    FixedPointConfig,
    _joint_equilibrium_batch,
    enumerate_equilibria,
    find_critical_beta,
    max_share_from_perturbed_start,
    solve_joint_equilibrium,
)
from headfx.errors import BracketError, DomainError, NumericalError
from headfx.logit import viewer_fixed_point

CFG = FixedPointConfig(tol=1e-11, max_iter=40000)


def symmetric_instance(n=2, m=100.0, alpha=1.0, c=2.0, beta=0.0, tau=0.2):
    plat = PlatformParams(n_streamers=n, n_viewers=m, beta=beta, tau=tau)
    streamers = [StreamerParams(alpha=alpha, eta=1.0, cost_coefficient=c)] * n
    return plat, streamers


def fixed_point(plat, streamers, q, n0, cfg, theta=None):
    """logit.viewer_fixed_point from one start: (n, converged, iterations, residual)."""
    n, converged, iterations, residual = viewer_fixed_point(
        Market.from_params(plat, streamers), np.asarray(q, dtype=float)[np.newaxis],
        np.asarray(n0, dtype=float)[np.newaxis], cfg, theta,
    )
    return n[0], bool(converged[0]), int(iterations[0]), float(residual[0])


class TestViewerFixedPoint:
    def test_beta_zero_matches_closed_form(self):
        plat = PlatformParams(
            n_streamers=3, n_viewers=100, beta=0.0, prices=np.array([0.1, 0.0, 0.2])
        )
        streamers = [StreamerParams(alpha=a) for a in (1.0, 0.8, 1.2)]
        q = np.array([0.5, 0.7, 0.4])
        closed = 100 * choice_probabilities(
            np.array([1.0 * 0.5 - 0.1, 0.8 * 0.7, 1.2 * 0.4 - 0.2])
        )
        # undamped iteration lands in one effective step
        n, _, iterations, _ = fixed_point(
            plat, streamers, q, np.full(3, 100 / 3), dataclasses.replace(CFG, damping=1.0)
        )
        assert iterations <= 2
        assert n == pytest.approx(closed, abs=1e-9 * 100)
        # damping does not move the fixed point
        n, converged, _, _ = fixed_point(plat, streamers, q, np.full(3, 100 / 3), CFG)
        assert n == pytest.approx(closed, abs=1e-9 * 100)
        assert converged

    def test_symmetric_two_streamers_small_beta(self):
        plat, streamers = symmetric_instance(beta=0.001)
        n, converged, _, _ = fixed_point(
            plat, streamers, np.array([0.5, 0.5]), np.array([50.0, 50.0]), CFG
        )
        assert converged
        assert n == pytest.approx([50.0, 50.0], abs=1e-8)

    def test_strong_beta_concentrates_and_satisfies_logit_identity(self):
        plat, streamers = symmetric_instance(beta=0.2)  # beta*M = 20 >> ln 2
        q = np.array([0.5, 0.5])
        n_star, converged, _, _ = fixed_point(plat, streamers, q, np.array([60.0, 40.0]), CFG)
        assert converged
        assert n_star.max() / 100.0 > 0.95
        # direct damped-map oracle, independently iterated
        n = np.array([60.0, 40.0])
        for _ in range(20000):
            v = 1.0 * q - 0.0 + 0.2 * n
            e = np.exp(v - v.max())
            n = 0.5 * n + 0.5 * 100 * e / e.sum()
        assert n == pytest.approx(n_star, abs=1e-7)
        # logit ratio identity at the fixed point (log form): the tiny
        # loser audience carries the solver residual, so compare logs
        top, other = np.argmax(n_star), np.argmin(n_star)
        dq = q[top] - q[other]
        assert np.log(n_star[top] / n_star[other]) == pytest.approx(
            1.0 * dq + 0.2 * (n_star[top] - n_star[other]), abs=1e-4
        )

    def test_residual_reported_on_non_convergence(self):
        plat, streamers = symmetric_instance(beta=0.2)
        _, converged, _, residual = fixed_point(
            plat,
            streamers,
            np.array([0.5, 0.5]),
            np.array([60.0, 40.0]),
            FixedPointConfig(tol=1e-14, max_iter=3),
        )
        assert not converged
        assert residual > 1e-14

    def test_iterates_stay_within_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            plat = PlatformParams(
                n_streamers=n, n_viewers=100, beta=float(rng.uniform(0, 0.3))
            )
            streamers = [StreamerParams(alpha=float(a)) for a in rng.uniform(0.5, 1.5, n)]
            n_star, _, _, _ = fixed_point(
                plat, streamers, rng.uniform(0, 1, n), 100 * rng.dirichlet(np.ones(n)), CFG
            )
            assert np.all(n_star >= 0) and np.all(n_star <= 100)
            assert n_star.sum() == pytest.approx(100, abs=1e-7)


class TestJointEquilibrium:
    def test_zero_alpha_gives_zero_quality_uniform_audience(self):
        plat = PlatformParams(n_streamers=3, n_viewers=90, beta=0.0)
        streamers = [StreamerParams(alpha=0.0, cost_coefficient=1.0)] * 3
        res = solve_joint_equilibrium(plat, streamers, CFG)
        assert res.converged
        assert res.state.q == pytest.approx(np.zeros(3), abs=1e-12)
        assert res.state.n == pytest.approx(np.full(3, 30.0), abs=1e-8)

    def test_start_outside_box_rejected(self):
        plat, streamers = symmetric_instance()
        with pytest.raises(DomainError, match=r"n0\[0\] must lie in \[0, 100.0\]"):
            solve_joint_equilibrium(plat, streamers, CFG, n0=np.array([150.0, 0.0]))

    @pytest.mark.parametrize(
        "n0", [[150.0, 0.0], [-1.0, 50.0], [50.0, 100.0 + 1e-9], [np.nan, 50.0]]
    )
    def test_start_outside_box_rejected_before_any_sweep(self, monkeypatch, n0):
        def sweep(*args):
            raise AssertionError("a viewer sweep ran from a rejected start")

        monkeypatch.setattr(equilibrium, "viewer_fixed_point", sweep)
        plat, streamers = symmetric_instance()
        with pytest.raises(DomainError, match=r"n0\[\d\] must lie in \[0, 100.0\]"):
            solve_joint_equilibrium(plat, streamers, CFG, n0=np.array(n0))

    def test_symmetric_quality_closed_form(self):
        plat, streamers = symmetric_instance(beta=0.001, c=2.0)
        res = solve_joint_equilibrium(plat, streamers, CFG)
        assert res.converged
        q_expected = (1 - 0.2) * 1.0 * 100 * 1.0 * 0.25 / (2 * 2.0)
        assert res.state.q == pytest.approx([q_expected] * 2, abs=1e-6)

    def test_idempotent_at_convergence(self):
        plat, streamers = symmetric_instance(beta=0.01, c=2.0)
        res = solve_joint_equilibrium(plat, streamers, CFG)
        again = solve_joint_equilibrium(plat, streamers, CFG, n0=res.state.n, q0=res.state.q)
        assert np.max(np.abs(again.state.n - res.state.n)) <= 10 * CFG.tol
        assert np.max(np.abs(again.state.q - res.state.q)) <= 10 * CFG.tol

    def test_defining_equations_hold(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            plat = PlatformParams(
                n_streamers=n, n_viewers=100, beta=float(rng.uniform(0, 0.01)),
                tau=0.2,
            )
            streamers = [
                StreamerParams(alpha=float(a), cost_coefficient=float(c))
                for a, c in zip(rng.uniform(0.8, 1.2, n), rng.uniform(1.5, 3.0, n))
            ]
            res = solve_joint_equilibrium(plat, streamers, CFG)
            assert res.converged
            state = res.state
            p = choice_probabilities(
                np.array([s.alpha for s in streamers]) * state.q + 0.0 + plat.beta * state.n
            )
            assert np.max(np.abs(state.n - 100 * p)) <= CFG.tol * 10
            marginal = 2.0 * np.array([s.cost_coefficient for s in streamers]) * state.q
            revenue = 0.8 * 100 * np.array([s.alpha for s in streamers]) * p * (1 - p)
            assert np.all(np.abs(marginal - revenue) <= 1e-7 * (1 + np.abs(marginal)))

    def test_convergence_on_the_last_allowed_round_is_reported(self):
        plat = PlatformParams(n_streamers=3, n_viewers=10, beta=0.0)
        streamers = [StreamerParams(alpha=a, cost_coefficient=2.0) for a in (1.0, 0.8, 1.2)]
        cfg = FixedPointConfig(tol=1e-10, max_iter=1000)
        free = solve_joint_equilibrium(plat, streamers, cfg)
        assert free.converged
        rounds = free.iterations
        exact = solve_joint_equilibrium(
            plat, streamers, dataclasses.replace(cfg, max_iter=rounds)
        )
        assert exact.converged
        assert exact.iterations == rounds
        assert np.array_equal(exact.state.n, free.state.n)
        assert np.array_equal(exact.state.q, free.state.q)
        short = solve_joint_equilibrium(
            plat, streamers, dataclasses.replace(cfg, max_iter=rounds - 1)
        )
        assert not short.converged


class TestEnumerate:
    def test_unique_below_threshold(self):
        plat, streamers = symmetric_instance(n=2, beta=0.005, c=2.0)
        found = enumerate_equilibria(plat, streamers, dataclasses.replace(CFG, n_starts=32), seed=0)
        assert len(found) == 1

    def test_mirrored_equilibria_above_threshold(self):
        plat, streamers = symmetric_instance(n=2, beta=0.2, c=2.0)
        found = enumerate_equilibria(plat, streamers, dataclasses.replace(CFG, n_starts=16), seed=1)
        assert len(found) >= 2
        dominant = {int(np.argmax(eq.state.n)) for eq in found}
        assert dominant == {0, 1}

    def test_single_streamer(self):
        plat = PlatformParams(n_streamers=1, n_viewers=50, beta=0.0)
        streamers = [StreamerParams(alpha=1.0, cost_coefficient=2.0)]
        found = enumerate_equilibria(plat, streamers, dataclasses.replace(CFG, n_starts=4), seed=2)
        assert len(found) == 1
        assert found[0].state.n == pytest.approx([50.0], abs=1e-8)

    def test_equilibrium_set_permutation_equivariant(self):
        plat = PlatformParams(n_streamers=3, n_viewers=90, beta=0.003)
        alphas = [1.0, 0.9, 1.1]
        streamers = [StreamerParams(alpha=a, cost_coefficient=2.0) for a in alphas]
        found = enumerate_equilibria(plat, streamers, dataclasses.replace(CFG, n_starts=8), seed=3)
        perm = [2, 0, 1]
        streamers_p = [streamers[i] for i in perm]
        found_p = enumerate_equilibria(
            plat, streamers_p, dataclasses.replace(CFG, n_starts=8), seed=3
        )
        assert len(found) == len(found_p) == 1
        assert found_p[0].state.n == pytest.approx(found[0].state.n[perm], abs=1e-6)


class TestCriticalBeta:
    def test_classification_monotone_on_grid(self):
        plat, streamers = symmetric_instance(n=2, c=2.0)
        flags = []
        for beta in np.linspace(1e-4, 0.3, 20):
            share, _ = max_share_from_perturbed_start(
                dataclasses.replace(plat, beta=float(beta)), streamers, CFG
            )
            flags.append(share >= 0.95)
        assert flags == sorted(flags)

    def test_zero_beta_never_concentrated(self):
        for n in (2, 5):
            plat, streamers = symmetric_instance(n=n, c=2.0)
            share, _ = max_share_from_perturbed_start(plat, streamers, CFG)
            assert share < 0.95

    def test_bisection_brackets_the_threshold(self):
        plat, streamers = symmetric_instance(n=2, c=2.0)
        beta_star = find_critical_beta(plat, streamers, 1e-4, 0.3, 0.95, CFG)
        delta = 2 * 1e-3 * (0.3 - 1e-4)
        below, _ = max_share_from_perturbed_start(
            dataclasses.replace(plat, beta=beta_star - delta), streamers, CFG
        )
        above, _ = max_share_from_perturbed_start(
            dataclasses.replace(plat, beta=beta_star + delta), streamers, CFG
        )
        assert below < 0.95 <= above

    def test_bad_bracket_raises(self):
        plat, streamers = symmetric_instance(n=2, c=2.0)
        with pytest.raises(BracketError, match="straddle"):
            find_critical_beta(plat, streamers, 1e-5, 1e-4, 0.95, CFG)

    @pytest.mark.parametrize("beta_lo, beta_hi", [(0.3, 0.3), (0.3, 1e-4)])
    def test_bracket_order_validated(self, beta_lo, beta_hi):
        plat, streamers = symmetric_instance(n=2, c=2.0)
        with pytest.raises(DomainError, match=r"need beta_lo < beta_hi, got \[0.3, "):
            find_critical_beta(plat, streamers, beta_lo, beta_hi, 0.95, CFG)

    def test_threshold_domain_validated(self):
        plat, streamers = symmetric_instance(n=2, c=2.0)
        with pytest.raises(DomainError):
            find_critical_beta(plat, streamers, 1e-4, 0.3, 0.4, CFG)


class TestFixedPointConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            FixedPointConfig(damping=0.0)
        with pytest.raises(DomainError):
            FixedPointConfig(damping=1.5)
        with pytest.raises(DomainError):
            FixedPointConfig(tol=0.0)
        with pytest.raises(DomainError):
            FixedPointConfig(max_iter=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a NaN tol is never reached and an infinite one reports any
        # first sweep as converged
        with pytest.raises(DomainError, match="tol must be finite and > 0"):
            FixedPointConfig(tol=tol)

    @pytest.mark.parametrize("field", ["max_iter", "n_starts"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            FixedPointConfig(**{field: value})
        with pytest.raises(DomainError):
            FixedPointConfig(n_starts=0)


# The single-start solvers as first written, one start per Python loop.
# Kept as the bitwise reference for the batched (K, N) kernels.


def _reference_viewer_fixed_point(platform, alpha, q, n0, cfg, theta_vec):
    m = float(platform.n_viewers)
    n = np.asarray(n0, dtype=float).copy()
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        v = alpha * q - platform.prices + platform.beta * n
        if theta_vec is not None:
            v = v + platform.phi * theta_vec
        e = np.exp(v - v.max())
        target = m * (e / e.sum())
        residual = float(np.max(np.abs(n - target)))
        if not np.isfinite(residual):
            raise NumericalError("non-finite residual in viewer fixed-point iteration")
        if residual <= cfg.tol:
            break
        n = (1.0 - cfg.damping) * n + cfg.damping * target
    return n, residual <= cfg.tol, iterations, residual


def _reference_quality(platform, alpha, c, p):
    raw = (
        (1.0 - platform.tau) * platform.revenue_per_viewer * platform.n_viewers
        * alpha * p * (1.0 - p) / (2.0 * c)
    )
    return np.clip(raw, 0.0, 10.0)


def _reference_joint(platform, streamers, cfg, n0=None, q0=None, theta=None):
    """Returns (n, q, converged, iterations, residual) of one start."""
    m = float(platform.n_viewers)
    big_n = platform.n_streamers
    alpha = np.array([s.alpha for s in streamers])
    c = np.array([s.cost_coefficient for s in streamers])
    theta_vec = theta.theta if theta is not None else None
    n = np.full(big_n, m / big_n) if n0 is None else np.asarray(n0, dtype=float).copy()
    if q0 is None:
        v = alpha * np.zeros(big_n) - platform.prices + platform.beta * n
        if theta_vec is not None:
            v = v + platform.phi * theta_vec
        e = np.exp(v - v.max())
        q = _reference_quality(platform, alpha, c, e / e.sum())
    else:
        q = np.asarray(q0, dtype=float).copy()
    settled = False
    outer = 0
    for outer in range(1, cfg.max_iter + 1):
        n_new, inner_converged, _, _ = _reference_viewer_fixed_point(
            platform, alpha, q, n, cfg, theta_vec
        )
        q_target = _reference_quality(platform, alpha, c, n_new / m)
        q_new = (1.0 - cfg.damping) * q + cfg.damping * q_target
        change = max(
            float(np.max(np.abs(n_new - n))), float(np.max(np.abs(q_new - q)))
        )
        n, q = n_new, q_new
        if inner_converged and change <= cfg.tol:
            settled = True
            break
    n_pol, polished, _, residual = _reference_viewer_fixed_point(
        platform, alpha, q, n, cfg, theta_vec
    )
    return n_pol, q, settled and polished, outer, residual


def _reference_enumerate(platform, streamers, cfg, seed):
    rng = np.random.default_rng(seed)
    m = float(platform.n_viewers)
    starts = rng.dirichlet(np.ones(platform.n_streamers), size=cfg.n_starts) * m
    distinct = []
    for n0 in starts:
        n, q, converged, iterations, residual = _reference_joint(
            platform, streamers, cfg, n0=n0
        )
        if not converged:
            continue
        if all(
            max(float(np.max(np.abs(n - d[0]))), float(np.max(np.abs(q - d[1]))))
            >= 10.0 * cfg.tol
            for d in distinct
        ):
            distinct.append((n, q, converged, iterations, residual))
    distinct.sort(key=lambda d: float(d[0].max() / d[0].sum()), reverse=True)
    return distinct


def _as_tuple(res):
    return res.state.n, res.state.q, res.converged, res.iterations, res.residual


def _assert_bitwise(got, want):
    n, q, converged, iterations, residual = got
    n_ref, q_ref, converged_ref, iterations_ref, residual_ref = want
    assert np.array_equal(n, n_ref)
    assert np.array_equal(q, q_ref)
    assert converged == converged_ref
    assert iterations == iterations_ref
    assert residual == residual_ref


def _instance(n, beta, prices, seed=0, m=100.0):
    rng = np.random.default_rng(seed)
    plat = PlatformParams(
        n_streamers=n, n_viewers=m, beta=beta, tau=0.2,
        prices=rng.uniform(0.0, 0.5, n) if prices else None,
    )
    streamers = [
        StreamerParams(alpha=float(a), cost_coefficient=float(c))
        for a, c in zip(rng.uniform(0.8, 1.2, n), rng.uniform(1.5, 3.0, n))
    ]
    return plat, streamers


class TestBatchMatchesReference:
    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("prices", [False, True])
    @pytest.mark.parametrize("beta", [0.005, 0.2], ids=["unique", "tipping"])
    def test_enumeration(self, n, prices, beta):
        plat, streamers = _instance(n, beta, prices)
        cfg = FixedPointConfig(tol=1e-11, max_iter=40000, n_starts=12)
        found = enumerate_equilibria(plat, streamers, cfg, seed=n)
        reference = _reference_enumerate(plat, streamers, cfg, seed=n)
        assert len(found) == len(reference) >= 1
        for res, ref in zip(found, reference):
            _assert_bitwise(_as_tuple(res), ref)

    @pytest.mark.parametrize("prices, max_iter", [(False, 145), (True, 46)])
    def test_enumeration_with_a_short_round_budget(self, prices, max_iter):
        # Some starts settle within the budget and some do not, so rows
        # leave the batch on different rounds and others run out.
        plat, streamers = _instance(5, 0.005, prices)
        cfg = FixedPointConfig(tol=1e-11, max_iter=max_iter, n_starts=12)
        starts = np.random.default_rng(5).dirichlet(np.ones(5), size=12) * 100.0
        flags = [_reference_joint(plat, streamers, cfg, n0=s)[2] for s in starts]
        assert any(flags) and not all(flags)
        found = enumerate_equilibria(plat, streamers, cfg, seed=5)
        reference = _reference_enumerate(plat, streamers, cfg, seed=5)
        assert len(found) == len(reference) >= 1
        for res, ref in zip(found, reference):
            _assert_bitwise(_as_tuple(res), ref)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("prices", [False, True])
    @pytest.mark.parametrize("with_theta", [False, True])
    def test_joint_batch_per_start(self, n, prices, with_theta):
        plat, streamers = _instance(n, 0.01, prices, seed=n + 7)
        rng = np.random.default_rng(n)
        theta = TrafficAllocation(rng.dirichlet(np.ones(n))) if with_theta else None
        cfg = FixedPointConfig(tol=1e-11, max_iter=40000)
        starts = rng.dirichlet(np.ones(n), size=4) * 100.0
        batch = _joint_equilibrium_batch(
            Market.from_params(plat, streamers), starts, None, cfg,
            None if theta is None else theta.theta,
        )
        for i, n0 in enumerate(starts):
            want = _reference_joint(plat, streamers, cfg, n0=n0, theta=theta)
            _assert_bitwise(tuple(x[i] for x in batch), want)
            single = solve_joint_equilibrium(plat, streamers, cfg, n0=n0, theta=theta)
            _assert_bitwise(_as_tuple(single), want)

    def test_single_start_solvers(self):
        plat, streamers = _instance(3, 0.02, True, seed=3)
        alpha = np.array([s.alpha for s in streamers])
        theta = TrafficAllocation(np.array([0.2, 0.5, 0.3]))
        q = np.array([0.4, 0.9, 0.6])
        n0 = np.array([10.0, 30.0, 60.0])
        for cfg in (CFG, FixedPointConfig(tol=1e-14, max_iter=7)):
            for th in (None, theta):
                theta_vec = None if th is None else th.theta
                n, converged, iterations, residual = fixed_point(
                    plat, streamers, q, n0, cfg, theta_vec
                )
                ref = _reference_viewer_fixed_point(plat, alpha, q, n0, cfg, theta_vec)
                _assert_bitwise((n, q, converged, iterations, residual), (ref[0], q) + ref[1:])
            q0 = np.array([1.0, 0.1, 2.0])
            _assert_bitwise(
                _as_tuple(solve_joint_equilibrium(plat, streamers, cfg, n0=n0, q0=q0)),
                _reference_joint(plat, streamers, cfg, n0=n0, q0=q0),
            )

    def test_non_finite_residual_raises_from_the_batch(self):
        plat = PlatformParams(n_streamers=2, n_viewers=100, beta=0.01)
        cfg = FixedPointConfig(tol=1e-11, max_iter=100)
        market = Market.from_params(plat, [StreamerParams(alpha=1.0)] * 2)
        q = np.array([[0.5, 0.5], [np.inf, 0.5], [0.2, 0.1]])
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="non-finite"):
            viewer_fixed_point(market, q, np.full((3, 2), 50.0), cfg, None)

    def test_non_finite_residual_raises_from_a_single_row(self):
        # one start runs as a plain vector, with its own check
        plat = PlatformParams(n_streamers=2, n_viewers=100, beta=0.01)
        cfg = FixedPointConfig(tol=1e-11, max_iter=100)
        market = Market.from_params(plat, [StreamerParams(alpha=1.0)] * 2)
        q = np.array([[np.inf, 0.5]])
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="non-finite"):
            viewer_fixed_point(market, q, np.full((1, 2), 50.0), cfg, None)


def _batch_case(draw_seed, k, n):
    rng = np.random.default_rng(draw_seed)
    plat = PlatformParams(
        n_streamers=n, n_viewers=100.0, beta=float(rng.uniform(0.0, 0.05)),
        prices=rng.uniform(0.0, 0.3, n),
    )
    alpha = rng.uniform(0.5, 1.5, n)
    c = rng.uniform(1.5, 3.0, n)
    streamers = [
        StreamerParams(alpha=float(a), cost_coefficient=float(b)) for a, b in zip(alpha, c)
    ]
    starts = rng.dirichlet(np.ones(n), size=k) * 100.0
    q = rng.uniform(0.0, 2.0, (k, n))
    return Market.from_params(plat, streamers), starts, q, rng.permutation(k)


class TestBatchProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5),
        st.integers(1, 400),
    )
    def test_viewer_fixed_point_rows_are_independent(self, seed, k, n, max_iter):
        market, starts, q, perm = _batch_case(seed, k, n)
        cfg = FixedPointConfig(tol=1e-11, max_iter=max_iter)
        batch = viewer_fixed_point(market, q, starts, cfg, None)
        permuted = viewer_fixed_point(market, q[perm], starts[perm], cfg, None)
        for got, want in zip(permuted, batch):
            assert np.array_equal(got, want[perm])
        for i in range(k):
            single = viewer_fixed_point(market, q[i : i + 1], starts[i : i + 1], cfg, None)
            for got, want in zip(single, batch):
                assert np.array_equal(got[0], want[i])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4), st.integers(1, 80))
    def test_joint_rows_are_independent(self, seed, k, n, max_iter):
        market, starts, q, perm = _batch_case(seed, k, n)
        cfg = FixedPointConfig(tol=1e-10, max_iter=max_iter)
        for q0 in (None, q):
            batch = _joint_equilibrium_batch(market, starts, q0, cfg, None)
            permuted = _joint_equilibrium_batch(
                market, starts[perm], None if q0 is None else q0[perm], cfg, None
            )
            for got, want in zip(permuted, batch):
                assert np.array_equal(got, want[perm])
            for i in range(k):
                single = _joint_equilibrium_batch(
                    market, starts[i : i + 1], None if q0 is None else q0[i : i + 1], cfg, None
                )
                for got, want in zip(single, batch):
                    assert np.array_equal(got[0], want[i])
