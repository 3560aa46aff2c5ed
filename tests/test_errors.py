"""Tests for errors.require, the one check of a scalar input's domain, and
for every config class and solver control that states its domains with it."""

import math
import sys

import numpy as np
import pytest

from headfx.abm import PolicyIntervention, SimConfig
from headfx.core import PlatformParams, StreamerParams
from headfx.dynamics import IntegratorConfig
from headfx.equilibrium import FixedPointConfig, enumerate_equilibria
from headfx.errors import DomainError, NonFiniteError, require
from headfx.harness import ScenarioSpec, run_scenario
from headfx.metrics import top_k_share
from headfx.welfare import grid_search_allocation, optimize_allocation


class TestRequire:
    @pytest.mark.parametrize("value", [0, 0.5, 1, np.float64(0.25), np.int8(1)])
    def test_values_inside_pass(self, value):
        require("x", value, 0, 1)

    @pytest.mark.parametrize(
        "value, low, high, ends",
        [(0, 0, 1, "(]"), (1, 0, 1, "[)"), (-1e-300, 0, None, "[]"), (2, None, 1, "[]")],
    )
    def test_ends_are_honoured(self, value, low, high, ends):
        with pytest.raises(DomainError):
            require("x", value, low, high, ends)

    @pytest.mark.parametrize("low, high", [(None, None), (0, None), (None, 1), (0, 1)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -(10**400)])
    def test_non_finite_fails_every_interval(self, value, low, high):
        with pytest.raises(NonFiniteError):
            require("x", value, low, high)

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_bool_is_not_a_number(self, value, integer):
        with pytest.raises(DomainError, match="x must be a"):
            require("x", value, integer=integer)

    def test_integers_fit_intp(self):
        require("n", sys.maxsize, 1, integer=True)
        with pytest.raises(DomainError, match=f"n must be at most {sys.maxsize}"):
            require("n", sys.maxsize + 1, 1, integer=True)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("x", -1, 0), "x must be finite and >= 0, got -1"),
            (("x", 0, 0, None, "()"), "x must be finite and > 0, got 0"),
            (("x", 1.0, 0, 1, "[)"), r"x must lie in \[0, 1\), got 1.0"),
            (("x", math.nan), "x must be finite, got nan"),
            (("n", 0, 1, None, "[]", True), "n must be >= 1, got 0"),
            (("k", 4, 1, 3, "[]", True), r"k must lie in \[1, 3\], got 4"),
            (("x", 10**400), "x must be finite, got an int of 1329 bits"),
            (("n", -(2**70), 0, None, "[]", True), "n must be >= 0, got a negative int of 71 bits"),
            (("n", 10**5000, 1, None, "[]", True), "n must be at most"),
        ],
    )
    def test_messages_state_the_domain(self, args, message):
        with pytest.raises(DomainError, match=message):
            require(*args)


def _policy(kind):
    return lambda **kw: PolicyIntervention(kind, **kw)


_PLATFORM = PlatformParams(n_streamers=2, n_viewers=10)
_STREAMERS = [StreamerParams(alpha=1.0)] * 2
_Q = np.array([0.5, 0.5])
_SPEC = ScenarioSpec(name="Baseline", sim=SimConfig(n_streamers=3, n_viewers=20, n_rounds=2),
                     n_seeds=1)

# Every class and solver control that checks scalar inputs: how to call
# it with one keyword set, its real fields, and its integer fields.
CHECKED = {
    "PlatformParams": (
        lambda **kw: PlatformParams(**{"n_streamers": 2, "n_viewers": 10, **kw}),
        ["n_viewers", "beta", "tau", "revenue_per_viewer", "gamma", "phi"],
        ["n_streamers"],
    ),
    "StreamerParams": (
        lambda **kw: StreamerParams(**{"alpha": 1.0, **kw}),
        ["alpha", "eta", "cost_coefficient"],
        [],
    ),
    "FixedPointConfig": (FixedPointConfig, ["damping", "tol"], ["max_iter", "n_starts"]),
    "IntegratorConfig": (IntegratorConfig, ["dt", "t_end"], ["record_every"]),
    "ScenarioSpec": (
        lambda **kw: ScenarioSpec(name="Baseline", sim=SimConfig(), **kw),
        [],
        ["n_seeds", "seed_base"],
    ),
    "SimConfig": (
        SimConfig,
        ["base_revenue_share", "network_effect_beta", "quality_decay_rate",
         "random_effect_scale", "revenue_per_viewer", "match_bonus", "quality_responsiveness",
         "investment_audience_scale", "investment_min_revenue", "investment_step_cap",
         "subsidy_quality_efficiency", "exit_revenue_floor", "interaction_weight"],
        ["n_streamers", "n_viewers", "n_rounds", "seed", "exit_patience", "n_content_types"],
    ),
    "PolicyIntervention-high_tax": (_policy("high_tax"), ["raised_share"],
                                    ["start_round", "top_k"]),
    "PolicyIntervention-boost_small": (_policy("boost_small"),
                                       ["bottom_fraction", "boost_multiplier"], ["start_round"]),
    "PolicyIntervention-subsidy": (_policy("subsidy"), ["bottom_fraction", "per_round_amount"],
                                   ["start_round"]),
    "optimize_allocation": (
        lambda **kw: optimize_allocation(_PLATFORM, _STREAMERS, _Q, **kw),
        ["step", "tol"],
        ["max_iter"],
    ),
    "grid_search_allocation": (
        lambda **kw: grid_search_allocation(_PLATFORM, _STREAMERS, _Q, **kw),
        ["resolution"],
        [],
    ),
    "run_scenario": (lambda **kw: run_scenario(_SPEC, **kw), [], ["threads"]),
    "enumerate_equilibria": (
        lambda **kw: enumerate_equilibria(_PLATFORM, _STREAMERS, FixedPointConfig(n_starts=2),
                                          **kw),
        [],
        ["seed"],
    ),
    "top_k_share": (lambda **kw: top_k_share([1.0, 2.0], **kw), [], ["k"]),
}

CASES = [
    pytest.param(owner, field, value, id=f"{owner}-{field}-{label}")
    for owner, (_, reals, integers) in CHECKED.items()
    for fields, values in (
        (reals, [("true", True), ("str", "x"), ("none", None), ("1e400", 10**400),
                 ("nan", math.nan)]),
        (integers, [("2.5", 2.5), ("true", True), ("nan", math.nan)]),
    )
    for field in fields
    for label, value in values
]


@pytest.mark.parametrize("owner, field, value", CASES)
def test_every_scalar_input_is_checked(owner, field, value):
    # DomainError and nothing else: never a TypeError, an OverflowError or
    # a numpy error from a later comparison or allocation
    with pytest.raises(DomainError, match=field):
        CHECKED[owner][0](**{field: value})
