"""Tests for the agent-based platform simulation."""

import copy
import dataclasses
import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfx import abm, logit
from headfx.abm import (
    PolicyIntervention,
    SimConfig,
    SimState,
    apply_policy,
    init_platform,
    run_round,
    simulate,
)
from headfx.errors import DomainError, NonFiniteError
from headfx.harness import SCENARIO_NAMES, canonical_policies, make_scenario
from headfx.metrics import gini

# sha256 of every RoundRecord of Table 1 (four scenarios x seeds 0-9,
# default config), pinned before the Gumbel noise moved to numpy's
# vectorised log; mean_satisfaction enters as the .6g text the CSVs write
TABLE1_HISTORY_SHA256 = "b098349d6fa448ec715e28984b1257abefe215832333a97866ca6cbfd7226457"


def hash_history(records, h):
    for rec in records:
        h.update(np.int64(rec.round_index).tobytes())
        h.update(np.asarray(rec.viewer_counts, dtype=np.int64).tobytes())
        h.update(np.asarray(rec.streamer_revenues, dtype=np.float64).tobytes())
        h.update(np.float64(rec.platform_revenue).tobytes())
        h.update(np.asarray(rec.qualities, dtype=np.float64).tobytes())
        h.update(f"{rec.mean_satisfaction:.6g}".encode())


def small_cfg(**kw):
    defaults = dict(n_streamers=5, n_viewers=60, n_rounds=8, seed=7)
    defaults.update(kw)
    return SimConfig(**defaults)


def identical_streamers(state, q=0.5, c=0.2, content_type=0):
    """Give every streamer of a fresh state the same quality, cost and type."""
    state.quality[:] = q
    state.cost_coef[:] = c
    state.content_type[:] = content_type
    return state


def reference_round_utilities(state, boost):
    """The whole (M, N) utility matrix under the round's (N,) exposure boost,
    built the way rounds used to build it."""
    cfg = state.cfg
    lognet = np.log1p(state.prev_counts.astype(float))
    u = state.quality_sens[:, None] * state.quality[None, :]
    u = u + cfg.network_effect_beta * state.network_sens[:, None] * lognet[None, :]
    if cfg.prices is not None:
        u = u - state.price_sens[:, None] * state.prices[None, :]
    u = u + cfg.match_bonus * (state.preferred[:, None] == state.content_type[None, :])
    u = u + np.log(boost)[None, :]
    if cfg.interaction_weight != 0.0:
        u = u + cfg.interaction_weight * state.interaction[:, None] * lognet[None, :]
    rows = np.flatnonzero(state.last_choice >= 0)
    u[rows, state.last_choice[rows]] += state.loyalty[rows]
    u[:, ~state.active] = -np.inf
    return u


def reference_choose_streamers(state, boost):
    """One whole-matrix utility build and one (M, N) Gumbel draw; like the
    kernel, it writes the picks to state.last_choice and returns the round's
    (counts, realized)."""
    cfg = state.cfg
    m, n = cfg.n_viewers, cfg.n_streamers
    utilities = reference_round_utilities(state, boost)
    if cfg.random_effect_scale > 0:
        noise = state.rng.gumbel(0.0, cfg.random_effect_scale, size=(m, n))
    else:
        noise = np.zeros((m, n))
    total = utilities + noise
    choices = np.argmax(total, axis=1)
    state.last_choice[:] = choices
    return np.bincount(choices, minlength=n), total[np.arange(m), choices]


def twin_of(state):
    """A state sharing nothing the round kernels write with state: its own
    generator and last choices."""
    return dataclasses.replace(
        state, rng=copy.deepcopy(state.rng), last_choice=state.last_choice.copy(),
    )


def assert_same_history(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.round_index == rb.round_index
        assert np.array_equal(ra.viewer_counts, rb.viewer_counts)
        assert np.array_equal(ra.streamer_revenues, rb.streamer_revenues)
        assert ra.platform_revenue == rb.platform_revenue
        assert np.array_equal(ra.qualities, rb.qualities)
        assert ra.mean_satisfaction == rb.mean_satisfaction


class TestInitPlatform:
    def test_seed_determinism(self):
        cfg = small_cfg()
        a, b = init_platform(cfg), init_platform(cfg)
        for field in dataclasses.fields(SimState):
            if field.name not in ("cfg", "rng"):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name))
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_clipped_normal_quality_mean(self):
        cfg = SimConfig(n_streamers=10000, n_viewers=1, n_rounds=0, seed=11)
        state = init_platform(cfg)
        q0 = state.quality
        assert abs(q0.mean() - 0.5) < 0.02
        assert q0.min() >= 0.1 and q0.max() <= 0.9
        assert np.array_equal(simulate(cfg).q_initial, q0)
        c = state.cost_coef
        assert c.min() >= 0.1 and c.max() <= 0.3

    def test_viewer_fields_within_bounds(self):
        # a config whose rounds read the interaction and price columns
        cfg = SimConfig(n_streamers=2, n_viewers=100000, n_rounds=0, seed=12,
                        interaction_weight=0.3, prices=(0.1, 0.2))
        state = init_platform(cfg)
        fields = {
            "interaction": (0.2, 0.8),
            "price_sens": (0.3, 0.7),
            "quality_sens": (0.4, 0.8),
            "network_sens": (0.1, 0.4),
            "loyalty": (0.3, 0.7),
        }
        for name, (lo, hi) in fields.items():
            vals = getattr(state, name)
            assert vals.shape == (cfg.n_viewers,)
            assert vals.min() >= lo and vals.max() <= hi
        assert set(state.preferred) == {0, 1, 2}
        assert np.all(state.last_choice == -1)

    @pytest.mark.parametrize("interaction_weight", [0.0, 0.3])
    @pytest.mark.parametrize("prices", [None, (0.1, 0.4, 0.2)])
    def test_kept_columns_do_not_change_the_stream(self, interaction_weight, prices):
        cfg = SimConfig(n_streamers=3, n_viewers=500, n_rounds=0, seed=17,
                        interaction_weight=interaction_weight, prices=prices)
        state = init_platform(cfg)
        # every column drawn in init_platform's order, all kept
        rng = np.random.default_rng(cfg.seed)
        rng.normal(0.5, 0.2, size=3)
        rng.uniform(0.1, 0.3, size=3)
        rng.integers(0, cfg.n_content_types, size=3)
        drawn = {"interaction": rng.uniform(0.2, 0.8, size=500),
                 "price_sens": rng.uniform(0.3, 0.7, size=500),
                 "quality_sens": rng.uniform(0.4, 0.8, size=500),
                 "network_sens": rng.uniform(0.1, 0.4, size=500),
                 "preferred": rng.integers(0, cfg.n_content_types, size=500),
                 "loyalty": rng.uniform(0.3, 0.7, size=500)}
        assert state.rng.bit_generator.state == rng.bit_generator.state
        for name in ("quality_sens", "network_sens", "loyalty", "preferred"):
            assert np.array_equal(getattr(state, name), drawn[name])
        assert state.preferred.dtype == np.int8 and state.last_choice.dtype == np.int8
        for name, kept in (("interaction", interaction_weight != 0.0),
                           ("price_sens", prices is not None)):
            if kept:
                assert np.array_equal(getattr(state, name), drawn[name])
            else:
                assert getattr(state, name) is None

    @pytest.mark.parametrize(
        "n_streamers, n_content_types, dtypes",
        [(128, 3, (np.int8, np.int8)), (129, 128, (np.int16, np.int8)),
         (200, 129, (np.int16, np.int16))],
    )
    def test_index_columns_take_the_smallest_dtype(self, n_streamers, n_content_types, dtypes):
        cfg = SimConfig(n_streamers=n_streamers, n_viewers=10, n_rounds=0,
                        n_content_types=n_content_types)
        state = init_platform(cfg)
        assert (state.last_choice.dtype, state.preferred.dtype) == dtypes
        assert state.preferred.max() < n_content_types


class ZeroDrawGenerator:
    """A generator whose random(out=) leaves one 0.0 in one block's draws;
    everything else, rng.gumbel and the state included, is delegated."""

    def __init__(self, rng, block, cell):
        self._rng, self._block, self._cell = rng, block, cell
        self.blocks = 0

    def random(self, *args, out=None, **kwargs):
        result = self._rng.random(*args, out=out, **kwargs)
        if self.blocks == self._block:
            out[self._cell] = 0.0
        self.blocks += 1
        return result

    def __getattr__(self, name):
        return getattr(self._rng, name)


def zero_draw_at(rng, cell):
    """Put rng where its draw number cell (from 0) of rng.random is 0.0,
    keeping its 32-bit buffer. PCG64 outputs 0 from a state whose two 64-bit
    halves are equal, and its stream has period 2^128, so advancing by
    -(cell + 1) modulo 2^128 steps back cell + 1 draws from such a state."""
    bit_generator = rng.bit_generator
    saved = bit_generator.state
    half = saved["state"]["state"] >> 64
    bit_generator.state = {**saved, "state": {**saved["state"], "state": half << 64 | half}}
    bit_generator.advance(-(cell + 1) % 2**128)
    bit_generator.state = {**bit_generator.state, "has_uint32": saved["has_uint32"],
                           "uinteger": saved["uinteger"]}


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"{w}-workers")
def workers(request, monkeypatch):
    """The round kernel's thread count, whatever CPUs this machine has, with
    the threads switched as often as the interpreter allows, so that two
    threads sharing a buffer would show in their outputs."""
    monkeypatch.setattr(abm, "cpu_count", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


@st.composite
def noisy_round_states(draw):
    """A mid-run state whose viewer count sits near a block boundary, with
    any scale and any set of exited streamers short of all of them."""
    n = draw(st.sampled_from([1, 2, 15, 40, 50, 200]))
    rows = abm._BLOCK_CELLS // n
    m = draw(st.sampled_from([1, 37, rows - 1, rows, rows + 1, 2 * rows + 3]).filter(
        lambda m: 1 <= m <= 5000))
    cfg = SimConfig(
        n_streamers=n, n_viewers=m, seed=draw(st.integers(0, 2**32 - 1)),
        random_effect_scale=draw(st.sampled_from([0.0, 0.05, 0.2, 1.0])),
        interaction_weight=draw(st.sampled_from([0.0, 0.3])),
    )
    state = init_platform(cfg)
    fill = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state.last_choice[:] = fill.integers(-1, n, size=m)
    state.prev_counts = fill.integers(0, 3 * m // n + 1, size=n)
    state.quality = fill.uniform(0.0, 1.0, size=n)
    keep = draw(st.integers(0, n - 1))
    exits = draw(st.sampled_from(["none", "some", "all_but_one"]))
    if exits == "some":
        state.active = fill.random(n) < 0.7
    elif exits == "all_but_one":
        state.active[:] = False
    state.active[keep] = True
    return state


# streamer count of the block tests; a block then holds BLOCK_ROWS viewers
BLOCK_N = 40
BLOCK_ROWS = abm._BLOCK_CELLS // BLOCK_N
BLOCK_SIZES = (700, BLOCK_ROWS, BLOCK_ROWS + 1, int(2.5 * BLOCK_ROWS))


class TestChooseStreamers:
    """The row-block round kernel against the whole-matrix reference."""

    @staticmethod
    def mid_run_state(m, **kw):
        """A state and a round's boost: mixed loyalty (some viewers have no
        last choice), uneven audiences, two exited streamers, a live boost,
        nonzero prices and a generator holding a buffered 32-bit output, as
        an odd number of the population's integer draws leaves it."""
        cfg = SimConfig(
            n_streamers=BLOCK_N, n_viewers=m, seed=21, interaction_weight=0.3,
            prices=tuple(np.linspace(0.0, 0.6, BLOCK_N)), **kw,
        )
        state = init_platform(cfg)
        draw = np.random.default_rng(5)
        state.last_choice[:] = draw.integers(-1, BLOCK_N, size=m)
        state.prev_counts = draw.integers(0, 3 * m // BLOCK_N, size=BLOCK_N)
        state.quality = draw.uniform(0.0, 1.0, size=BLOCK_N)
        boost = np.ones(BLOCK_N)
        boost[::3] = 1.2
        state.active[[4, 17]] = False
        state.rng.bit_generator.state = {**state.rng.bit_generator.state, "has_uint32": 1,
                                         "uinteger": 2**31 + 5}
        return state, boost

    @pytest.mark.parametrize("m", BLOCK_SIZES)
    @pytest.mark.parametrize("scale", [0.2, 0.0])
    def test_one_round_matches_whole_matrix(self, workers, m, scale):
        state, boost = self.mid_run_state(m, random_effect_scale=scale)
        twin = twin_of(state)
        counts, realized = abm._choose_streamers(state, boost)
        ref_counts, ref_realized = reference_choose_streamers(twin, boost)
        assert np.array_equal(state.last_choice, twin.last_choice)
        assert np.array_equal(counts, ref_counts)
        # the noise goes through numpy's SIMD log, the reference's through libm
        np.testing.assert_array_max_ulp(realized, ref_realized, maxulp=2)
        assert state.rng.bit_generator.state == twin.rng.bit_generator.state
        assert not np.isin(state.last_choice, [4, 17]).any()

    @pytest.mark.parametrize("bonus", [0, 1])
    def test_integer_bonus_runs_as_its_float(self, bonus):
        m = int(1.5 * BLOCK_ROWS)
        state, boost = self.mid_run_state(m, match_bonus=bonus)
        twin = twin_of(state)
        as_float = twin_of(self.mid_run_state(m, match_bonus=float(bonus))[0])
        counts, realized = abm._choose_streamers(state, boost)
        ref_counts, ref_realized = reference_choose_streamers(twin, boost)
        float_counts, float_realized = abm._choose_streamers(as_float, boost)
        assert np.array_equal(counts, ref_counts)
        np.testing.assert_array_max_ulp(realized, ref_realized, maxulp=2)
        assert np.array_equal(counts, float_counts)
        assert np.array_equal(realized, float_realized)

    @settings(max_examples=100, deadline=None)
    @given(state=noisy_round_states(), workers=st.sampled_from([1, 2, 3]))
    def test_noise_kernel_matches_gumbel_reference(self, state, workers):
        twin = twin_of(state)
        boost = np.ones(state.cfg.n_streamers)
        utility = reference_round_utilities(state, boost)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(abm, "cpu_count", lambda: workers)
            counts, realized = abm._choose_streamers(state, boost)
        ref_counts, ref_realized = reference_choose_streamers(twin, boost)
        choices = state.last_choice
        assert np.array_equal(choices, twin.last_choice)
        assert np.array_equal(counts, ref_counts)
        assert state.active[choices].all()
        assert state.rng.bit_generator.state == twin.rng.bit_generator.state
        # Each log may round 1 ulp apart, which moves the noise by at most
        # eps (scale + 3 |noise|). Where noise and utility cancel near zero
        # that is many ulp of the sum, so the bound is on the operands.
        picked = utility[np.arange(len(choices)), choices]
        scale = state.cfg.random_effect_scale
        bound = 4 * np.finfo(float).eps * (scale + np.abs(picked) + np.abs(ref_realized))
        assert np.all(np.abs(realized - ref_realized) <= bound)

    @pytest.mark.parametrize("m", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"random_effect_scale": 0.0}, {"interaction_weight": 0.4},
         {"prices": tuple(np.linspace(0.0, 0.5, BLOCK_N))}],
        ids=["default", "no_noise", "interaction", "prices"],
    )
    def test_histories_match_whole_matrix(self, monkeypatch, m, overrides):
        cfg = SimConfig(
            n_streamers=BLOCK_N, n_viewers=m, n_rounds=20, seed=3,
            policy_schedule=canonical_policies("Combined"),
            exit_revenue_floor=0.3 * m / BLOCK_N, **overrides,
        )
        state = init_platform(cfg)
        blocked = [run_round(state, cfg, idx) for idx in range(1, cfg.n_rounds + 1)]
        assert not state.active.all()  # some streamers exited
        monkeypatch.setattr(abm, "_choose_streamers", reference_choose_streamers)
        whole = simulate(cfg)
        assert_same_history(blocked, whole.records)

    def test_zero_draw_redoes_block_with_gumbel(self, monkeypatch):
        # one worker walks every block with state.rng, the wrapper itself
        monkeypatch.setattr(abm, "cpu_count", lambda: 1)
        m = int(2.5 * BLOCK_ROWS)
        state, boost = self.mid_run_state(m, random_effect_scale=0.2)
        twin = twin_of(state)
        state.rng = ZeroDrawGenerator(state.rng, block=1, cell=(5, 7))
        counts, realized = abm._choose_streamers(state, boost)
        ref_counts, ref_realized = reference_choose_streamers(twin, boost)
        assert state.rng.blocks == 3
        assert np.array_equal(state.last_choice, twin.last_choice)
        assert np.array_equal(counts, ref_counts)
        redone = slice(BLOCK_ROWS, 2 * BLOCK_ROWS)
        assert np.array_equal(realized[redone], ref_realized[redone])
        np.testing.assert_array_max_ulp(realized, ref_realized, maxulp=2)
        assert state.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_zero_draw_in_a_thread_redoes_the_round(self, workers):
        # The 0.0 sits in block 1, which the second thread walks at two or
        # three workers, so only a generator advanced to the right cell
        # draws it; the round is then walked again in the calling thread.
        m = int(2.5 * BLOCK_ROWS)
        state, boost = self.mid_run_state(m, random_effect_scale=0.2)
        zero_draw_at(state.rng, (BLOCK_ROWS + 5) * BLOCK_N + 7)
        twin = twin_of(state)
        counts, realized = abm._choose_streamers(state, boost)
        ref_counts, ref_realized = reference_choose_streamers(twin, boost)
        assert np.array_equal(state.last_choice, twin.last_choice)
        assert np.array_equal(counts, ref_counts)
        redone = slice(BLOCK_ROWS, 2 * BLOCK_ROWS)
        assert np.array_equal(realized[redone], ref_realized[redone])
        np.testing.assert_array_max_ulp(realized, ref_realized, maxulp=2)
        assert state.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_histories_equal_at_any_worker_count(self, monkeypatch):
        # three blocks of viewers, the last half full: two workers walk one
        # block and two, three workers one each
        cfg = SimConfig(
            n_streamers=BLOCK_N, n_viewers=int(2.5 * BLOCK_ROWS), n_rounds=12, seed=4,
            policy_schedule=canonical_policies("Combined"), interaction_weight=0.3,
            exit_revenue_floor=0.3 * 2.5 * BLOCK_ROWS / BLOCK_N,
        )
        histories = []
        for count in (1, 2, 3):
            monkeypatch.setattr(abm, "cpu_count", lambda count=count: count)
            histories.append(simulate(cfg).records)
        assert cfg.n_viewers * cfg.n_streamers > abm._BLOCK_CELLS
        for history in histories[1:]:
            assert_same_history(histories[0], history)

    def test_zero_sensitivities_give_zero_utility(self):
        cfg = small_cfg(random_effect_scale=0.0, match_bonus=0.0, prices=(0.5,) * 5)
        state = init_platform(cfg)
        for name in ("price_sens", "quality_sens", "network_sens", "loyalty"):
            getattr(state, name)[:] = 0.0
        state.prev_counts[:] = 7
        _, realized = abm._choose_streamers(state, np.ones(5))
        assert np.all(realized == 0.0)

    def test_boost_enters_as_log_weight(self):
        cfg = SimConfig(n_streamers=1, n_viewers=50, random_effect_scale=0.0)
        state = init_platform(cfg)
        state.prev_counts[:] = 3
        _, base = abm._choose_streamers(state, np.ones(1))
        state.last_choice[:] = -1  # the next call would add each viewer's loyalty
        _, boosted = abm._choose_streamers(state, np.full(1, 2.0))
        assert boosted - base == pytest.approx(np.full(50, np.log(2.0)), abs=1e-12)

    def test_exited_streamer_never_chosen(self):
        cfg = small_cfg(random_effect_scale=0.0)
        state = init_platform(cfg)
        state.quality[:] = 0.0
        state.quality[0] = 1.0  # the favourite of every viewer, but gone
        state.active[0] = False
        counts, realized = abm._choose_streamers(state, np.ones(cfg.n_streamers))
        assert counts[0] == 0 and counts.sum() == cfg.n_viewers
        assert not np.any(state.last_choice == 0)
        assert np.all(np.isfinite(realized))


# The 0.999 quantile of the chi-square distribution with 14 degrees of freedom.
CHI2_14_Q999 = 36.123


class TestChoiceIsLogit:
    def test_counts_follow_the_logit_probabilities(self):
        # The argmax of u + Gumbel(0, s) is the logit softmax(u / s)
        # (McFadden 1974; Train, Discrete Choice Methods, ch. 3). With no
        # last choice there is no loyalty term, so every round draws from
        # the same per-viewer probabilities. Seeds and round count were
        # fixed before the statistic was computed.
        rounds = 100
        cfg = SimConfig(n_streamers=15, n_viewers=2000, seed=11)
        state = init_platform(cfg)
        state.prev_counts = np.random.default_rng(12).integers(0, 300, size=15)
        boost = np.ones(15)
        expected = rounds * logit.softmax(
            reference_round_utilities(state, boost) / cfg.random_effect_scale).sum(axis=0)
        observed = np.zeros(15, dtype=np.int64)
        for _ in range(rounds):
            state.last_choice[:] = -1
            counts, _ = abm._choose_streamers(state, boost)
            observed += counts
        assert observed.sum() == rounds * cfg.n_viewers
        assert np.sum((observed - expected) ** 2 / expected) < CHI2_14_Q999


# Mean-field allowance of the skeleton test, in viewers. The skeleton feeds
# the network term log1p of the expected counts; the ABM feeds it the
# realized ones, and viewers' choices are correlated through them, so the
# mean field is exact only as M grows (Brock & Durlauf 2001). At M 1,000 and
# N 15 a streamer's count scatters by about sqrt(M / N), 8 viewers a round;
# the allowance is 1 % of M, 10 viewers, of that order.
SKELETON_ALLOWANCE = 10.0
# Batch means of the ABM's late rounds: 10 batches of 10 rounds, compared
# within this many standard errors plus the allowance.
SKELETON_BATCHES, SKELETON_Z = 10, 4.0


def skeleton_counts(state, boost, tol=1e-6, max_rounds=2000):
    """The ABM's deterministic skeleton under a fixed (N,) exposure boost:
    each viewer's expected choice distribution, iterated from state's first
    round until the expected (N,) counts move less than tol in a round;
    returns those counts.

    The network term reads the expected counts through state.prev_counts,
    and the loyalty term by setting every last_choice to each streamer in
    turn, so every utility comes from abm._systematic_utility. Investment,
    decay and exits must be off: the qualities and the market stay fixed.
    """
    cfg = state.cfg
    m, n = cfg.n_viewers, cfg.n_streamers
    u, term = np.empty((m, n)), np.empty((m, n))

    def choice_given(last):
        state.last_choice[:] = last
        utility = abm._systematic_utility(state, boost, slice(0, m), u, term)
        return logit.softmax(utility / cfg.random_effect_scale)

    p = choice_given(-1)  # round 1: nobody has a last choice, prev_counts is 0
    for _ in range(max_rounds):
        counts = p.sum(axis=0)
        state.prev_counts = counts
        p = sum(p[:, [last]] * choice_given(last) for last in range(n))
        if np.abs(p.sum(axis=0) - counts).max() < tol:
            return p.sum(axis=0)
    raise AssertionError(f"the skeleton did not settle in {max_rounds} rounds")


class TestDeterministicSkeleton:
    @pytest.mark.parametrize("beta", [0.15, 0.5, 1.0, 2.0])
    def test_abm_follows_its_skeleton(self, beta):
        # Seed, rounds, batches and bound were fixed before the first run.
        cfg = SimConfig(n_streamers=15, n_viewers=1000, n_rounds=200, seed=0,
                        network_effect_beta=beta, quality_responsiveness=0.0,
                        quality_decay_rate=0.0, exit_revenue_floor=0.0)
        expected = skeleton_counts(init_platform(cfg), np.ones(cfg.n_streamers))
        late = np.array([rec.viewer_counts for rec in simulate(cfg).records[100:]])
        batches = late.reshape(SKELETON_BATCHES, -1, cfg.n_streamers).mean(axis=1)
        se = batches.std(axis=0, ddof=1) / np.sqrt(SKELETON_BATCHES)
        gap = np.abs(late.mean(axis=0) - expected)
        assert np.all(gap <= SKELETON_Z * se + SKELETON_ALLOWANCE), (gap, se)


class TestRunRound:
    def test_counts_conserve_viewers_and_revenue(self):
        cfg = small_cfg(n_rounds=6)
        run = simulate(cfg)
        for rec in run.records:
            assert rec.viewer_counts.sum() == cfg.n_viewers
            total = rec.platform_revenue + rec.streamer_revenues.sum()
            assert total == cfg.revenue_per_viewer * cfg.n_viewers

    def test_quality_stays_in_unit_interval(self):
        run = simulate(SimConfig(seed=3))
        for rec in run.records:
            assert np.all(rec.qualities >= 0.0) and np.all(rec.qualities <= 1.0)

    def test_frozen_quality_without_decay_or_response(self):
        cfg = small_cfg(
            quality_decay_rate=0.0,
            quality_responsiveness=0.0,
            investment_min_revenue=0.0,
            exit_revenue_floor=0.0,
        )
        run = simulate(cfg)
        q0 = run.q_initial
        for rec in run.records:
            assert rec.qualities == pytest.approx(q0, abs=1e-15)

    def test_round_one_uniform_for_identical_streamers(self):
        # binomial bound on the mean count over 10 seeds
        counts = []
        for seed in range(10):
            cfg = SimConfig(
                n_streamers=15, n_viewers=1000, n_rounds=1, seed=seed,
                match_bonus=0.0, exit_revenue_floor=0.0, investment_min_revenue=0.0,
            )
            state = identical_streamers(init_platform(cfg))
            rec = run_round(state, cfg, 1)
            counts.append(rec.viewer_counts)
        mean_counts = np.mean(counts, axis=0)
        p = 1.0 / 15
        sigma = np.sqrt(1000 * p * (1 - p))
        assert np.all(np.abs(mean_counts - 1000 * p) <= 3 * sigma / np.sqrt(10))

    def test_exit_after_persistent_low_revenue(self):
        cfg = SimConfig(
            n_streamers=3, n_viewers=90, n_rounds=10, seed=5,
            exit_revenue_floor=10.0, exit_patience=2, match_bonus=0.0,
            investment_min_revenue=0.0,
        )
        state = identical_streamers(init_platform(cfg), q=0.9)
        # one hopeless streamer: bottom quality, never chosen much
        state.quality[2] = 0.0
        records = [run_round(state, cfg, idx) for idx in range(1, 11)]
        assert not state.active[2]
        assert records[-1].viewer_counts[2] == 0
        # exits are permanent
        assert all(rec.viewer_counts[2] == 0 for rec in records[4:])

    def test_a_round_writes_only_the_round_to_round_state(self):
        cfg = small_cfg(n_rounds=12, policy_schedule=canonical_policies("Combined"))
        state = init_platform(cfg)
        state.prev_counts = np.arange(cfg.n_streamers) * 3  # ranks for the policies
        before = copy.deepcopy(state)
        run_round(state, cfg, 10)  # every Combined policy is in force
        carried = ("quality", "active", "lean_rounds", "prev_counts", "last_choice", "rng")
        for field in dataclasses.fields(SimState):
            if field.name in carried:
                continue
            old, new = getattr(before, field.name), getattr(state, field.name)
            if isinstance(old, np.ndarray):
                assert old.dtype == new.dtype and old.tobytes() == new.tobytes(), field.name
            else:
                assert old == new, field.name

    def test_a_config_other_than_the_states_is_rejected(self):
        cfg = small_cfg()
        state = init_platform(cfg)
        before = state.quality.copy()
        with pytest.raises(DomainError, match="the config its state was built from"):
            run_round(state, dataclasses.replace(cfg, revenue_per_viewer=2.0), 1)
        assert np.array_equal(state.quality, before)


class TestPolicies:
    def test_noop_parameterizations_reproduce_baseline_bitwise(self):
        base_cfg = SimConfig(n_rounds=25, seed=9)
        noop = (
            PolicyIntervention("high_tax", start_round=5, top_k=3, raised_share=0.2),
            PolicyIntervention("boost_small", start_round=5, bottom_fraction=0.5,
                               boost_multiplier=1.0),
            PolicyIntervention("subsidy", start_round=5, bottom_fraction=0.5,
                               per_round_amount=0.0),
        )
        noop_cfg = dataclasses.replace(base_cfg, policy_schedule=noop)
        a = simulate(base_cfg).records
        b = simulate(noop_cfg).records
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.viewer_counts, rb.viewer_counts)
            assert np.array_equal(ra.streamer_revenues, rb.streamer_revenues)
            assert ra.platform_revenue == rb.platform_revenue
            assert np.array_equal(ra.qualities, rb.qualities)
            assert ra.mean_satisfaction == rb.mean_satisfaction

    def test_high_tax_cuts_retained_revenue_exactly(self):
        policy = PolicyIntervention("high_tax", start_round=2, top_k=3, raised_share=0.4)
        cfg = SimConfig(n_rounds=3, seed=4, policy_schedule=(policy,))
        run = simulate(cfg)
        rec1, rec2 = run.records[0], run.records[1]
        top3 = np.argsort(-rec1.viewer_counts, kind="stable")[:3]
        for i in range(cfg.n_streamers):
            share = 0.6 if i in top3 else 0.8
            assert rec2.streamer_revenues[i] == pytest.approx(
                share * rec2.viewer_counts[i] * cfg.revenue_per_viewer
            )

    def test_subsidy_is_platform_funded(self):
        policy = PolicyIntervention("subsidy", start_round=1, bottom_fraction=0.5,
                                    per_round_amount=5.0)
        cfg = SimConfig(n_rounds=2, seed=4, policy_schedule=(policy,))
        run = simulate(cfg)
        rec = run.records[0]
        assert rec.platform_revenue + rec.streamer_revenues.sum() == pytest.approx(
            cfg.revenue_per_viewer * cfg.n_viewers
        )

    def test_rank_parameters_validated(self):
        with pytest.raises(DomainError):
            PolicyIntervention("high_tax", top_k=0)
        with pytest.raises(DomainError):
            PolicyIntervention("boost_small", bottom_fraction=0.0)
        with pytest.raises(DomainError):
            PolicyIntervention("subsidy", per_round_amount=-1.0)
        with pytest.raises(DomainError):
            PolicyIntervention("nonsense")

    @pytest.mark.parametrize(
        "policy, lever, written",
        [
            (PolicyIntervention("high_tax", top_k=2, raised_share=0.7), "share", 0.7),
            (PolicyIntervention("boost_small", bottom_fraction=0.5, boost_multiplier=1.2),
             "boost", 1.2),
            (PolicyIntervention("subsidy", bottom_fraction=0.5, per_round_amount=12.0),
             "subsidy", 12.0),
        ],
    )
    def test_each_policy_writes_its_own_lever(self, policy, lever, written):
        state = init_platform(small_cfg())
        state.prev_counts = np.array([5, 40, 0, 12, 30])
        state.active[2] = False  # the smallest audience, but gone
        levers = {"share": np.full(5, 0.2), "boost": np.ones(5), "subsidy": np.zeros(5)}
        expected = {name: v.copy() for name, v in levers.items()}
        expected[lever][[1, 4] if policy.kind == "high_tax" else [0, 3]] = written
        apply_policy(policy, state, **levers)
        for name, values in levers.items():
            assert np.array_equal(values, expected[name]), name

    @pytest.mark.parametrize(
        "policy, message",
        [
            (PolicyIntervention("high_tax", top_k=3), "high_tax top_k 3 exceeds n_streamers 2"),
            (PolicyIntervention("boost_small", bottom_fraction=0.4),
             "boost_small bottom_fraction 0.4 selects no streamer of 2"),
            (PolicyIntervention("subsidy", bottom_fraction=0.4),
             "subsidy bottom_fraction 0.4 selects no streamer of 2"),
        ],
    )
    def test_schedule_must_rank_the_streamers(self, policy, message):
        with pytest.raises(DomainError, match=message):
            SimConfig(n_streamers=2, policy_schedule=(policy,))
        # the same policy fits one streamer more, or a fraction that selects one
        fits = dataclasses.replace(policy, top_k=2, bottom_fraction=0.5)
        assert SimConfig(n_streamers=2, policy_schedule=(fits,)).policy_schedule == (fits,)


# SimConfig's count and real fields, as its domain table lists them
SIM_INT_FIELDS = [name for name, domain in abm._SIM_DOMAINS.items() if domain.integer]
SIM_FLOAT_FIELDS = [name for name, domain in abm._SIM_DOMAINS.items() if not domain.integer]


class TestRunSimulation:
    def test_table1_histories_are_pinned(self):
        h = hashlib.sha256()
        for name in SCENARIO_NAMES:
            sim = make_scenario(name).sim
            for seed in range(10):
                hash_history(simulate(dataclasses.replace(sim, seed=seed)).records, h)
        assert h.hexdigest() == TABLE1_HISTORY_SHA256

    def test_zero_rounds(self):
        assert simulate(small_cfg(n_rounds=0)).records == ()

    def test_seed_determinism_full_history(self):
        cfg = SimConfig(n_rounds=20, seed=13)
        a = simulate(cfg).records
        b = simulate(cfg).records
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.viewer_counts, rb.viewer_counts)
            assert np.array_equal(ra.qualities, rb.qualities)
            assert ra.mean_satisfaction == rb.mean_satisfaction

    def test_baseline_final_gini_band(self):
        # reference band for the default configuration across ten seeds
        values = []
        for seed in range(10):
            run = simulate(SimConfig(seed=seed))
            values.append(gini(run.records[-1].viewer_counts))
        assert all(0.35 <= g <= 0.75 for g in values)

    def test_gini_monotone_in_network_effect(self):
        betas = (0.05, 0.15, 0.25)
        means = []
        for beta in betas:
            vals = [
                gini(simulate(SimConfig(network_effect_beta=beta, seed=s)).records[-1].viewer_counts)
                for s in range(10)
            ]
            means.append(np.mean(vals))
        assert means[0] <= means[1] <= means[2]

    @pytest.mark.parametrize("name", SIM_FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_config_values_rejected(self, name, value):
        with pytest.raises(NonFiniteError, match=name):
            SimConfig(**{name: value})

    def test_nan_fails_every_range_check(self):
        nan = float("nan")
        for kw in ({"n_rounds": nan}, {"exit_patience": nan}, {"n_content_types": nan}):
            with pytest.raises(DomainError):
                SimConfig(**kw)
        with pytest.raises(NonFiniteError, match="prices"):
            SimConfig(n_streamers=2, prices=(0.1, nan))
        with pytest.raises(DomainError):
            PolicyIntervention("boost_small", boost_multiplier=nan)
        with pytest.raises(DomainError):
            PolicyIntervention("subsidy", per_round_amount=nan)

    def test_negative_prices_rejected(self):
        # the domain PlatformParams accepts, so the analytic commands take every config
        with pytest.raises(DomainError, match=r"prices\[0\] must be finite and >= 0, got -1.0"):
            SimConfig(n_streamers=3, prices=(-1.0, 0.0, 2.0))

    @pytest.mark.parametrize("prices", [("x",), 5, "0", (True,), (np.bool_(False),), (None,)])
    def test_prices_must_be_numbers(self, prices):
        with pytest.raises(DomainError, match="prices must (be an array of numbers|have shape)"):
            SimConfig(n_streamers=1, prices=prices)

    def test_prices_are_kept_as_a_tuple_of_floats(self):
        cfg = SimConfig(n_streamers=3, prices=[0, np.float32(0.5), 1])
        assert cfg.prices == (0.0, 0.5, 1.0)
        assert all(type(p) is float for p in cfg.prices)

    @pytest.mark.parametrize("schedule", [("high_tax",), 5, ({"kind": "high_tax"},)])
    def test_policy_schedule_must_hold_policies(self, schedule):
        with pytest.raises(DomainError,
                           match="policy_schedule must be a sequence of PolicyIntervention"):
            SimConfig(policy_schedule=schedule)

    @pytest.mark.parametrize("name", SIM_INT_FIELDS)
    @pytest.mark.parametrize("value", [100.5, 2.0, True, "3"])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize("name", ["start_round", "top_k"])
    @pytest.mark.parametrize("value", [2.5, 3.0, False])
    def test_policy_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            PolicyIntervention("high_tax", **{name: value})

    def test_numpy_integers_accepted(self):
        policy = PolicyIntervention("high_tax", start_round=np.int32(2), top_k=np.int64(2))
        cfg = SimConfig(
            n_streamers=np.int64(4), n_viewers=np.int64(40), n_rounds=np.int64(3),
            exit_patience=np.int16(2), n_content_types=np.uint8(2), seed=1,
            policy_schedule=(policy,),
        )
        assert len(simulate(cfg).records) == 3

    @pytest.mark.parametrize("name", SIM_INT_FIELDS)
    def test_counts_beyond_intp_rejected(self, name):
        # numpy cannot size an array past its intp maximum
        with pytest.raises(DomainError, match=f"{name} must be at most"):
            SimConfig(**{name: int(np.iinfo(np.intp).max) + 1})

    @pytest.mark.parametrize("name", ["match_bonus", "network_effect_beta"])
    @pytest.mark.parametrize("value", ["0.3", None, [0.3], True])
    def test_float_fields_reject_non_numbers(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be a number"):
            SimConfig(**{name: value})

    def test_negative_seed_rejected(self):
        # numpy's generator would raise its own ValueError in simulate; a
        # fractional seed fails test_integer_fields_reject_non_integers
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            SimConfig(seed=-1)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_boost_investment_must_be_a_bool(self, value):
        with pytest.raises(DomainError, match="boost_investment must be true or false"):
            SimConfig(boost_investment=value)
        assert not SimConfig(boost_investment=np.bool_(False)).boost_investment

    def test_policy_amounts_reject_non_numbers(self):
        with pytest.raises(DomainError, match="per_round_amount must be a number"):
            PolicyIntervention("subsidy", per_round_amount="x")

    def test_policy_start_round_validated_against_horizon(self):
        with pytest.raises(DomainError):
            SimConfig(
                n_rounds=5,
                policy_schedule=(PolicyIntervention("high_tax", start_round=10),),
            )
