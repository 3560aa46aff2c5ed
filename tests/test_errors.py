"""Tests for errors.require and errors.require_array, the one check of a
scalar input's and an array input's domain, and for every config class,
solver control and public vector argument that states its domain with them;
and for errors.cpu_count and errors.map_in_threads, the one decision of a
kernel's thread count and the one way to run blocks on those threads."""

import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from headfx.abm import PolicyIntervention, SimConfig
from headfx.core import (
    MarketState,
    PlatformParams,
    StreamerParams,
    TrafficAllocation,
    choice_probabilities,
    deterministic_utility,
)
from headfx.dynamics import IntegratorConfig, hhi, integrate, jacobian
from headfx.equilibrium import (
    FixedPointConfig,
    enumerate_equilibria,
    find_critical_beta,
    solve_joint_equilibrium,
)
from headfx.errors import (
    DimensionMismatchError,
    DomainError,
    NonFiniteError,
    cpu_count,
    map_in_threads,
    require,
    require_array,
)
from headfx.harness import ScenarioSpec, run_scenario
from headfx.metrics import gini, quality_improvement, top_k_share
from headfx.welfare import grid_search_allocation, optimize_allocation, simplex_project


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


class TestRequireArray:
    def test_float_array_comes_back_uncopied(self):
        x = np.array([0.5, 1.0])
        assert require_array("x", x, 0) is x

    @pytest.mark.parametrize("value", [[1, 2], (1.0, 2), np.array([1, 2], dtype=np.int8),
                                       [np.float32(1), np.int64(2)]])
    def test_numbers_become_floats(self, value):
        out = require_array("x", value)
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "value",
        [[True, 1.0], [np.bool_(False), 2], np.array([True]), ["1"], [1.0, "2"], [None],
         None, "12", [[1.0], [1.0, 2.0]], [1j]],
    )
    def test_only_numbers_pass(self, value):
        with pytest.raises(DomainError, match="x must be an array of numbers"):
            require_array("x", value)

    @pytest.mark.parametrize(
        "value, shape, message",
        [
            ([1.0, 2.0], (3,), r"x must have shape \(3,\), got \(2,\)"),
            ([[1.0, 2.0]], (None,), r"x must have shape \(any,\), got \(1, 2\)"),
            (1.0, (None,), r"x must have shape \(any,\), got \(\)"),
            ([1.0, 2.0], (None, 2), r"x must have shape \(any, 2\), got \(2,\)"),
            ([], (None,), "x must have at least one entry"),
            (np.empty((0, 2)), (None, 2), "x must have at least one entry"),
        ],
    )
    def test_shape_is_checked(self, value, shape, message):
        with pytest.raises(DimensionMismatchError, match=message):
            require_array("x", value, shape=shape)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            (("x", [1.0, -1.0], 0), DomainError, r"x\[1\] must be finite and >= 0, got -1.0"),
            (("x", [0.0, 1.0], 0, 1, "(]"), DomainError, r"x\[0\] must lie in \(0, 1\], got 0.0"),
            (("x", [[1.0, 2.0], [np.nan, 0.0]], None, None, "[]", (None, None)), NonFiniteError,
             r"x\[1, 0\] must be finite, got nan"),
            (("x", [1.0, np.inf], 0), NonFiniteError, r"x\[1\] must be finite and >= 0, got inf"),
            (("x", [10**400]), NonFiniteError, "x must be finite, got an int too large"),
        ],
    )
    def test_first_bad_entry_is_named(self, args, error, message):
        with pytest.raises(error, match=message):
            require_array(*args)

    def test_dimension_mismatch_is_a_domain_error(self):
        assert issubclass(DimensionMismatchError, DomainError)


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
    "find_critical_beta": (
        lambda **kw: find_critical_beta(_PLATFORM, _STREAMERS,
                                        **{"beta_lo": 0.0, "beta_hi": 1.0, **kw}),
        ["beta_lo", "beta_hi"],
        [],
    ),
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


_PLATFORM3 = PlatformParams(n_streamers=3, n_viewers=100)
_STREAMERS3 = [StreamerParams(alpha=1.0)] * 3
_HALVES = [0.5, 0.5, 0.5]

# Every public vector argument: its name in messages, a call taking it,
# whether its length is fixed (at 3 streamers) and whether its domain is >= 0.
VECTORS = {
    "MarketState.n": ("state.n", lambda v: MarketState(n=v, q=_HALVES), False, True),
    "MarketState.q": ("state.q", lambda v: MarketState(n=_HALVES, q=v), True, True),
    "TrafficAllocation": ("theta", TrafficAllocation, False, True),
    "PlatformParams.prices": (
        "prices", lambda v: PlatformParams(n_streamers=3, n_viewers=100, prices=v), True, True),
    "SimConfig.prices": ("prices", lambda v: SimConfig(n_streamers=3, prices=v), True, True),
    "choice_probabilities": ("V", choice_probabilities, False, False),
    "hhi": ("n", hhi, False, True),
    "gini": ("x", gini, False, True),
    "top_k_share": ("counts", lambda v: top_k_share(v, 1), False, True),
    "quality_improvement.q_initial": (
        "q_initial", lambda v: quality_improvement(v, _HALVES), False, False),
    "quality_improvement.q_final": (
        "q_final", lambda v: quality_improvement(_HALVES, v), True, False),
    "simplex_project": ("v", simplex_project, False, False),
    "solve_joint_equilibrium.n0": (
        "n0", lambda v: solve_joint_equilibrium(_PLATFORM3, _STREAMERS3, FixedPointConfig(), n0=v),
        True, True),
    "solve_joint_equilibrium.q0": (
        "q0", lambda v: solve_joint_equilibrium(_PLATFORM3, _STREAMERS3, FixedPointConfig(), q0=v),
        True, True),
    "optimize_allocation.q": (
        "q", lambda v: optimize_allocation(_PLATFORM3, _STREAMERS3, v), True, True),
    "grid_search_allocation.q": (
        "q", lambda v: grid_search_allocation(_PLATFORM3, _STREAMERS3, v), True, True),
}

VECTOR_CASES = [
    pytest.param(owner, value, id=f"{owner}-{label}")
    for owner, (_, _, fixed_length, non_negative) in VECTORS.items()
    for label, value in [
        ("nan", [0.5, math.nan, 0.5]),
        ("inf", [0.5, math.inf, 0.5]),
        ("length", [0.5, 0.5] if fixed_length else []),
        ("2d", [_HALVES]),
        ("bool", [True, False, True]),
        ("str", [0.5, "0.5", 0.5]),
        ("mixed_true", [True, 0.5, 0.5]),
    ] + ([("negative", [0.5, -1.0, 0.5])] if non_negative else [])
]


@pytest.mark.parametrize("owner, value", VECTOR_CASES)
def test_every_vector_input_is_checked(owner, value):
    # DomainError naming the argument, never a numpy error or an answer
    name, call, _, _ = VECTORS[owner]
    with pytest.raises(DomainError, match=rf"^{re.escape(name)}(\[[\d, ]+\])? must"):
        call(value)


_STATE3 = MarketState(n=[30.0, 30.0, 40.0], q=_HALVES)
_PAIR = TrafficAllocation([0.5, 0.5])


@pytest.mark.parametrize(
    "call",
    [
        lambda: deterministic_utility(_PLATFORM3, _STREAMERS3, _STATE3, _PAIR),
        lambda: integrate(_PLATFORM3, _STREAMERS3, _STATE3, IntegratorConfig(dt=0.1, t_end=1.0),
                          _PAIR),
        lambda: jacobian(_PLATFORM3, _STREAMERS3, _STATE3, _PAIR),
        lambda: solve_joint_equilibrium(_PLATFORM3, _STREAMERS3, FixedPointConfig(), theta=_PAIR),
        lambda: optimize_allocation(_PLATFORM3, _STREAMERS3, _HALVES, init_theta=_PAIR),
    ],
    ids=["deterministic_utility", "integrate", "jacobian", "solve_joint_equilibrium",
         "optimize_allocation"],
)
def test_allocation_length_is_checked_against_the_market(call):
    with pytest.raises(DimensionMismatchError, match=r"theta must have shape \(3,\), got \(2,\)"):
        call()


class TestCpuCount:
    # harness's pool forks; spawn starts the worker from a fresh import
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_a_pool_worker_runs_its_kernels_on_one_thread(self, method):
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            assert pool.submit(cpu_count).result(timeout=60) == 1
        assert cpu_count() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("count, expected", [(7, 7), (None, 1)])
    def test_without_an_affinity_call_every_cpu_counts(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert cpu_count() == expected


class TestMapInThreads:
    def test_one_worker_runs_in_the_calling_thread(self):
        calls = []

        def record(item):
            calls.append((item, threading.get_ident()))
            if item == 2:
                raise KeyError(item)
            return 10 * item

        assert map_in_threads(record, [0, 1], 1) == [0, 10]
        with pytest.raises(KeyError):
            map_in_threads(record, [0, 1, 2, 3], 1)
        # in order, and nothing after the first failing item starts
        assert [item for item, _ in calls] == [0, 1, 0, 1, 2]
        assert {thread for _, thread in calls} == {threading.get_ident()}

    def test_one_worker_never_loads_the_thread_pool(self):
        run = (
            "import sys\n"
            "from headfx.errors import map_in_threads\n"
            "assert map_in_threads(abs, [-1, 2], 1) == [1, 2]\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", run], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.split() == ["False"]
