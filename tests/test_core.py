"""Tests for the closed-form market primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfx import dynamics, equilibrium, welfare
from headfx.core import (
    PERTURBATION,
    Market,
    MarketState,
    PlatformParams,
    StreamerParams,
    TrafficAllocation,
    audience_quality_sensitivity,
    choice_probabilities,
    deterministic_utility,
    streamer_profit,
)
from headfx.errors import DimensionMismatchError, DomainError, NonFiniteError

# softmax((1, 0)) = (e/(1+e), 1/(1+e)), evaluated in float64
SOFTMAX_1_0 = (0.7310585786300049, 0.2689414213699951)


def make_platform(n=2, m=100, **kw):
    return PlatformParams(n_streamers=n, n_viewers=m, **kw)


def make_streamers(alphas, c=0.2):
    return [StreamerParams(alpha=a, eta=1.0, cost_coefficient=c) for a in alphas]


class TestDeterministicUtility:
    def test_all_zero_inputs(self):
        plat = make_platform(beta=0.0)
        streamers = make_streamers([1.0, 1.0])
        state = MarketState(n=np.zeros(2), q=np.zeros(2))
        assert np.array_equal(deterministic_utility(plat, streamers, state), [0.0, 0.0])

    def test_hand_evaluation(self):
        # alpha q - p + beta n = 1*0.5 - 0.2 + 0.15*10 = 1.8
        plat = make_platform(beta=0.15, prices=np.array([0.2, 0.2]))
        streamers = make_streamers([1.0, 1.0])
        state = MarketState(n=np.array([10.0, 10.0]), q=np.array([0.5, 0.5]))
        v = deterministic_utility(plat, streamers, state)
        assert v == pytest.approx([1.8, 1.8], abs=1e-12)

    def test_theta_coupling_adds_phi_theta(self):
        plat = make_platform(beta=0.15, phi=2.0, prices=np.array([0.2, 0.2]))
        streamers = make_streamers([1.0, 1.0])
        state = MarketState(n=np.array([10.0, 10.0]), q=np.array([0.5, 0.5]))
        base = deterministic_utility(plat, streamers, state)
        bumped = deterministic_utility(
            plat, streamers, state, TrafficAllocation(np.array([1.0, 0.0]))
        )
        assert bumped - base == pytest.approx([2.0, 0.0], abs=1e-12)

    def test_dimension_mismatch_names_vector(self):
        plat = make_platform()
        streamers = make_streamers([1.0, 1.0])
        state = MarketState(n=np.zeros(3), q=np.zeros(3))
        with pytest.raises(DimensionMismatchError, match="state.n"):
            deterministic_utility(plat, streamers, state)


class TestChoiceProbabilities:
    def test_constant_vector_is_uniform(self):
        for n in (1, 2, 7):
            p = choice_probabilities(np.full(n, 3.7))
            assert p == pytest.approx(np.full(n, 1.0 / n), abs=1e-15)

    def test_frozen_two_option_values(self):
        p = choice_probabilities(np.array([1.0, 0.0]))
        assert p == pytest.approx(SOFTMAX_1_0, abs=1e-15)

    def test_huge_utilities_do_not_overflow(self):
        p = choice_probabilities(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            choice_probabilities(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError):
            choice_probabilities(np.array([np.inf, 0.0]))

    def test_simplex_and_positivity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.uniform(-50.0, 50.0, size=rng.integers(1, 12))
            p = choice_probabilities(v)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.uniform(-50.0, 50.0, size=6)
            shift = rng.uniform(-100.0, 100.0)
            assert choice_probabilities(v) == pytest.approx(
                choice_probabilities(v + shift), abs=1e-12
            )


class TestStreamerProfit:
    def test_zero(self):
        plat = make_platform()
        assert streamer_profit(0.0, 0.0, plat, StreamerParams(alpha=1.0)) == 0.0

    def test_hand_value(self):
        plat = make_platform(m=1000, tau=0.2, revenue_per_viewer=1.0)
        s = StreamerParams(alpha=1.0, cost_coefficient=0.2)
        assert streamer_profit(100.0, 0.5, plat, s) == pytest.approx(79.95)

    def test_strictly_concave_in_quality(self):
        rng = np.random.default_rng(3)
        plat = make_platform()
        for _ in range(100):
            qa, qb = np.sort(rng.uniform(0, 5, size=2))
            if qa == qb:
                continue
            s = StreamerParams(alpha=1.0, cost_coefficient=rng.uniform(0.05, 3.0))
            ends = streamer_profit(10.0, qa, plat, s) + streamer_profit(10.0, qb, plat, s)
            assert streamer_profit(10.0, (qa + qb) / 2, plat, s) > ends / 2

    def test_negative_quality_rejected(self):
        with pytest.raises(DomainError):
            streamer_profit(0.0, -0.1, make_platform(), StreamerParams(alpha=1.0))

    def test_full_commission_rejected_at_construction(self):
        with pytest.raises(DomainError):
            make_platform(tau=1.0)


def fd_audience_sensitivity(platform, streamers, state, i, h=1e-5):
    """Central difference of M*P_i in q_i, holding n fixed."""

    def n_i(qi):
        q = state.q.copy()
        q[i] = qi
        probe = MarketState(n=state.n, q=q)
        v = deterministic_utility(platform, streamers, probe)
        return platform.n_viewers * choice_probabilities(v)[i]

    return (n_i(state.q[i] + h) - n_i(state.q[i] - h)) / (2.0 * h)


class TestAudienceQualitySensitivity:
    def test_symmetric_pair(self):
        plat = make_platform(m=100, beta=0.1)
        streamers = make_streamers([1.3, 1.3])
        state = MarketState(n=np.array([50.0, 50.0]), q=np.array([0.5, 0.5]))
        sens = audience_quality_sensitivity(plat, streamers, state)
        assert sens == pytest.approx([100 * 1.3 * 0.25] * 2, rel=1e-12)

    def test_matches_finite_difference(self):
        plat = make_platform(n=3, m=100, beta=0.02, prices=np.array([0.1, 0.0, 0.3]))
        streamers = make_streamers([1.0, 0.8, 1.2])
        state = MarketState(n=np.array([40.0, 35.0, 25.0]), q=np.array([0.6, 0.4, 0.7]))
        sens = audience_quality_sensitivity(plat, streamers, state)
        for i in range(3):
            fd = fd_audience_sensitivity(plat, streamers, state, i)
            assert abs(sens[i] - fd) <= 1e-6 * abs(fd)

    def test_finite_difference_oracle_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            plat = PlatformParams(
                n_streamers=n,
                n_viewers=float(rng.uniform(10, 1000)),
                beta=float(rng.uniform(0, 0.01)),
                prices=rng.uniform(0, 0.5, n),
            )
            streamers = make_streamers(rng.uniform(0.2, 2.0, n))
            shares = rng.dirichlet(np.ones(n))
            state = MarketState(n=plat.n_viewers * shares, q=rng.uniform(0.1, 2.0, n))
            sens = audience_quality_sensitivity(plat, streamers, state)
            for i in range(n):
                fd = fd_audience_sensitivity(plat, streamers, state, i)
                assert abs(sens[i] - fd) <= 1e-5 * max(abs(fd), 1e-9)

    def test_dominant_streamer_limit(self):
        plat = make_platform(m=100, beta=0.0)
        streamers = make_streamers([1.0, 1.0])
        state = MarketState(n=np.array([100.0, 0.0]), q=np.array([50.0, 0.0]))
        sens = audience_quality_sensitivity(plat, streamers, state)
        assert sens[0] < 1e-15


class TestPermutationEquivariance:
    def test_all_outputs_permute(self):
        rng = np.random.default_rng(5)
        n = 4
        plat = PlatformParams(
            n_streamers=n, n_viewers=200, beta=0.03, prices=rng.uniform(0, 0.4, n)
        )
        streamers = make_streamers(rng.uniform(0.5, 1.5, n))
        state = MarketState(n=200 * rng.dirichlet(np.ones(n)), q=rng.uniform(0, 1, n))
        perm = rng.permutation(n)

        plat_p = PlatformParams(
            n_streamers=n, n_viewers=200, beta=0.03, prices=plat.prices[perm]
        )
        streamers_p = [streamers[i] for i in perm]
        state_p = MarketState(n=state.n[perm], q=state.q[perm])

        v = deterministic_utility(plat, streamers, state)
        v_p = deterministic_utility(plat_p, streamers_p, state_p)
        assert v_p == pytest.approx(v[perm], abs=1e-12)
        assert choice_probabilities(v_p) == pytest.approx(
            choice_probabilities(v)[perm], abs=1e-12
        )
        sens = audience_quality_sensitivity(plat, streamers, state)
        sens_p = audience_quality_sensitivity(plat_p, streamers_p, state_p)
        assert sens_p == pytest.approx(sens[perm], rel=1e-12)


class TestDomainGuards:
    def test_platform_invariants(self):
        with pytest.raises(DomainError):
            PlatformParams(n_streamers=0, n_viewers=10)
        with pytest.raises(DomainError):
            make_platform(gamma=0.0)
        with pytest.raises(DomainError):
            make_platform(phi=0.0)
        with pytest.raises(DomainError):
            make_platform(beta=-0.1)
        with pytest.raises(DimensionMismatchError):
            make_platform(prices=np.zeros(3))

    def test_streamer_invariants(self):
        with pytest.raises(DomainError):
            StreamerParams(alpha=-1.0)
        with pytest.raises(DomainError):
            StreamerParams(alpha=1.0, eta=0.0)
        with pytest.raises(DomainError):
            StreamerParams(alpha=1.0, cost_coefficient=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"m": np.nan}, {"prices": np.array([0.0, np.nan])}]
        + [{f: np.nan} for f in ("beta", "tau", "revenue_per_viewer", "gamma", "phi")]
        + [{"prices": np.array([0.0, np.inf])}]
        + [{f: np.inf} for f in ("beta", "revenue_per_viewer", "gamma", "phi")],
    )
    def test_platform_nan_rejected(self, kwargs):
        with pytest.raises(DomainError):
            make_platform(**kwargs)

    @pytest.mark.parametrize("m", [0, -1, np.nan, np.inf])
    def test_a_market_has_viewers(self, m):
        with pytest.raises(DomainError, match="n_viewers must be finite and > 0"):
            make_platform(m=m)

    @pytest.mark.parametrize("field", ["alpha", "eta", "cost_coefficient"])
    def test_streamer_nan_rejected(self, field):
        with pytest.raises(DomainError):
            StreamerParams(**{"alpha": 1.0, field: np.nan})

    @pytest.mark.parametrize("field", ["alpha", "eta", "cost_coefficient"])
    def test_streamer_infinity_rejected(self, field):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            StreamerParams(**{"alpha": 1.0, field: np.inf})

    def test_traffic_allocation_invariants(self):
        TrafficAllocation(np.array([0.25, 0.75]))
        with pytest.raises(DomainError):
            TrafficAllocation(np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            TrafficAllocation(np.array([-0.1, 1.1]))
        for theta in ([np.nan, np.nan], [np.nan, 1.0]):
            with pytest.raises(DomainError):
                TrafficAllocation(np.array(theta))

    @pytest.mark.parametrize(
        "n, q",
        [([np.nan, 1.0], [0.5, 0.5]), ([1.0, 1.0], [0.5, np.nan]),
         ([np.inf, 1.0], [0.5, 0.5]), ([1.0, 1.0], [0.5, np.inf])],
    )
    def test_nan_market_state_rejected(self, n, q):
        with pytest.raises(NonFiniteError):
            MarketState(n=np.array(n), q=np.array(q))


_SHORT_RUN = dynamics.IntegratorConfig(dt=0.1, t_end=1.0)
# every public analytic entry point, called as f(platform, streamers, state)
_ANALYTIC_ENTRY_POINTS = {
    "deterministic_utility": deterministic_utility,
    "audience_quality_sensitivity": audience_quality_sensitivity,
    "solve_joint_equilibrium":
        lambda p, s, x: equilibrium.solve_joint_equilibrium(p, s, equilibrium.FixedPointConfig()),
    "enumerate_equilibria":
        lambda p, s, x: equilibrium.enumerate_equilibria(p, s, equilibrium.FixedPointConfig(), 0),
    "max_share_from_perturbed_start": lambda p, s, x:
        equilibrium.max_share_from_perturbed_start(p, s, equilibrium.FixedPointConfig()),
    "find_critical_beta": lambda p, s, x: equilibrium.find_critical_beta(p, s, 0.0, 1.0),
    "integrate": lambda p, s, x: dynamics.integrate(p, s, x, _SHORT_RUN),
    "jacobian": dynamics.jacobian,
    "stability_at": dynamics.stability_at,
    "path_dependence_experiment":
        lambda p, s, x: dynamics.path_dependence_experiment(p, s, 1.0, _SHORT_RUN),
    "phase_portrait": lambda p, s, x: dynamics.phase_portrait(p, s, [x], _SHORT_RUN),
    "total_welfare": welfare.total_welfare,
    "optimize_allocation": lambda p, s, x: welfare.optimize_allocation(p, s, x.q),
    "grid_search_allocation":
        lambda p, s, x: welfare.grid_search_allocation(p, s, x.q, resolution=0.1),
}


@pytest.mark.parametrize("entry", _ANALYTIC_ENTRY_POINTS.values(), ids=_ANALYTIC_ENTRY_POINTS)
def test_streamer_count_is_checked_by_every_entry_point(entry):
    # two streamers for a three-streamer platform
    platform = make_platform(n=3)
    state = MarketState(n=np.full(3, 100.0 / 3), q=np.full(3, 0.5))
    with pytest.raises(DimensionMismatchError,
                       match="streamers has length 2, expected n_streamers 3"):
        entry(platform, make_streamers([1.0, 1.0]), state)


# this one runs a public solver per probe, and each solve builds its own market
_PROBES = ("find_critical_beta",)


def count_market_builds(monkeypatch) -> list:
    """The platforms Market.from_params is called with from now on."""
    builds = []
    from_params = Market.from_params.__func__

    def counted(cls, platform, streamers):
        builds.append(platform)
        return from_params(cls, platform, streamers)

    monkeypatch.setattr(Market, "from_params", classmethod(counted))
    return builds


@pytest.mark.parametrize(
    "entry", [f for name, f in _ANALYTIC_ENTRY_POINTS.items() if name not in _PROBES],
    ids=[name for name in _ANALYTIC_ENTRY_POINTS if name not in _PROBES],
)
def test_every_entry_point_builds_one_market(entry, monkeypatch):
    builds = count_market_builds(monkeypatch)
    state = MarketState(n=np.full(3, 100.0 / 3), q=np.full(3, 0.5))
    entry(make_platform(n=3, beta=0.001), make_streamers([1.0, 1.1, 0.9]), state)
    assert len(builds) == 1


def test_critical_beta_builds_one_market_per_probe(monkeypatch):
    probes = []
    probe = equilibrium.max_share_from_perturbed_start

    def counted(platform, streamers, cfg):
        probes.append(platform.beta)
        return probe(platform, streamers, cfg)

    monkeypatch.setattr(equilibrium, "max_share_from_perturbed_start", counted)
    builds = count_market_builds(monkeypatch)
    equilibrium.find_critical_beta(make_platform(n=3), make_streamers([1.0, 1.1, 0.9]), 0.0, 1.0)
    # both bracket ends, then one probe per halving down to 1e-3 of the width
    assert len(probes) == 12
    assert [platform.beta for platform in builds] == probes


class TestMarket:
    """Every coefficient of the bundle equals, bit for bit, the inline
    expression the solvers used before it had one home."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.one_of(st.integers(1, 10**7), st.floats(0.0, 1e7, exclude_min=True)),
        tau=st.floats(0.0, 0.99),
        r=st.floats(0.0, 10.0),
        with_prices=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fields_equal_the_inline_expressions(self, n, m, tau, r, with_prices, seed):
        rng = np.random.default_rng(seed)
        platform = PlatformParams(
            n_streamers=n, n_viewers=m, beta=float(rng.uniform(0.0, 0.5)), tau=tau,
            revenue_per_viewer=r, gamma=float(rng.uniform(0.1, 2.0)),
            phi=float(rng.uniform(0.1, 2.0)),
            prices=rng.uniform(0.0, 1.0, n) if with_prices else None,
        )
        streamers = [
            StreamerParams(alpha=float(a), eta=float(e), cost_coefficient=float(c))
            for a, e, c in zip(rng.uniform(0, 2, n), rng.uniform(0.1, 2, n), rng.uniform(0.1, 3, n))
        ]
        market = Market.from_params(platform, streamers)

        alpha = np.array([s.alpha for s in streamers], dtype=float)
        eta = np.array([s.eta for s in streamers], dtype=float)
        c = np.array([s.cost_coefficient for s in streamers], dtype=float)
        revenue = (1.0 - platform.tau) * platform.revenue_per_viewer * platform.n_viewers * alpha
        for got, want in ((market.alpha, alpha), (market.eta, eta), (market.c, c),
                          (market.prices, platform.prices), (market.revenue, revenue)):
            assert got.dtype == np.float64 and np.array_equal(got, want)
        m_float = float(platform.n_viewers)
        assert type(market.m) is float and market.m == m_float
        for name in ("beta", "phi", "gamma", "tau", "revenue_per_viewer"):
            assert getattr(market, name) == getattr(platform, name)

        big_n = platform.n_streamers
        assert np.array_equal(platform.symmetric_split(), np.full(big_n, m_float / big_n))
        n0 = np.full(big_n, m_float / big_n)
        n0[0] = min(n0[0] + PERTURBATION * m_float, m_float)
        assert np.array_equal(platform.perturbed_start(), n0)

