"""Closed-form market primitives.

Viewer utilities, multinomial-logit choice probabilities, streamer
profits, quadratic quality costs, and the analytic audience/quality
sensitivity. Everything here is a pure function of its inputs; all other
modules build on these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    Domain,
    DomainError,
    require,
    require_array,
    require_fields,
)
from .logit import logit_slope, softmax, utility

__all__ = [
    "PlatformParams",
    "StreamerParams",
    "Market",
    "MarketState",
    "TrafficAllocation",
    "PERTURBATION",
    "deterministic_utility",
    "choice_probabilities",
    "streamer_profit",
    "audience_quality_sensitivity",
]

# The perturbed symmetric start nudges streamer 0 up by this fraction of M,
# which fixes which streamer dominates whenever concentration occurs.
PERTURBATION = 1e-3


_PLATFORM_DOMAINS = {
    "n_streamers": Domain(1, integer=True),
    # a real: a market of 100.0 viewers is a market of 100
    "n_viewers": Domain(0, ends="()"),
    "beta": Domain(0),
    "tau": Domain(0, 1, "[)"),
    "revenue_per_viewer": Domain(0),
    "gamma": Domain(0, ends="()"),
    "phi": Domain(0, ends="()"),
}
_STREAMER_DOMAINS = {
    "alpha": Domain(0),
    "eta": Domain(0, ends="()"),
    "cost_coefficient": Domain(0, ends="()"),
}


@dataclass(frozen=True)
class PlatformParams:
    """Global market constants shared by every streamer and viewer.

    prices has one entry per streamer; beta is the network-effect weight
    of the level network term beta n (Market.network), tau the platform
    commission, gamma the viewer adjustment rate, and phi the
    traffic-sensitivity factor that couples promotion shares into utility.
    """

    n_streamers: int
    n_viewers: int
    beta: float = 0.0
    tau: float = 0.2
    revenue_per_viewer: float = 1.0
    gamma: float = 1.0
    phi: float = 1.0
    prices: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        require_fields(self, _PLATFORM_DOMAINS)
        prices = np.zeros(self.n_streamers) if self.prices is None else self.prices
        object.__setattr__(self, "prices", require_array(
            "prices", prices, 0, shape=(self.n_streamers,)))


@dataclass(frozen=True)
class StreamerParams:
    """Per-streamer constants: attractiveness, adjustment speed, cost curvature."""

    alpha: float
    eta: float = 1.0
    cost_coefficient: float = 0.2

    def __post_init__(self):
        require_fields(self, _STREAMER_DOMAINS)


@dataclass(frozen=True)
class Market:
    """The per-streamer arrays and derived coefficients every solver reads.

    alpha, eta, c (cost coefficients), prices and revenue, the marginal
    revenue coefficient (1 - tau) R M alpha, are (N,) arrays; m is M as a
    float. Built by from_params from inputs their classes validated, with
    DimensionMismatchError unless there is one StreamerParams a streamer.
    """

    alpha: np.ndarray
    eta: np.ndarray
    c: np.ndarray
    prices: np.ndarray
    m: float
    beta: float
    phi: float
    gamma: float
    tau: float
    revenue_per_viewer: float
    revenue: np.ndarray

    @classmethod
    def from_params(cls, platform: PlatformParams, streamers) -> "Market":
        if len(streamers) != platform.n_streamers:
            raise DimensionMismatchError(f"streamers has length {len(streamers)}, expected "
                                         f"n_streamers {platform.n_streamers}")
        alpha = np.array([s.alpha for s in streamers], dtype=float)
        return cls(
            alpha=alpha,
            eta=np.array([s.eta for s in streamers], dtype=float),
            c=np.array([s.cost_coefficient for s in streamers], dtype=float),
            prices=platform.prices,
            m=float(platform.n_viewers),
            beta=platform.beta,
            phi=platform.phi,
            gamma=platform.gamma,
            tau=platform.tau,
            revenue_per_viewer=platform.revenue_per_viewer,
            revenue=(1.0 - platform.tau) * platform.revenue_per_viewer * platform.n_viewers * alpha,
        )

    def network(self, n, out=None):
        """The network term beta n at audiences n of any shape, into out if given."""
        return np.multiply(self.beta, n, out=out)

    def network_slope(self, n):
        """dV_i/dn_i at audiences n: beta for the level term. Non-increasing in
        n >= 0 (beta / (1 + n) for a log form), so network_slope(0.0) is its
        supremum; a scalar or (N,) slope scales columns: m * slope * J = M J diag(slope)."""
        return self.beta

    def utility(self, state: MarketState, theta: TrafficAllocation | None = None) -> np.ndarray:
        """Systematic utility V = alpha q - prices + network(n) (+ phi theta) at a
        state whose n and theta are checked to have one entry a streamer. The
        idiosyncratic taste term lives in the logit (or in the agents' noise)."""
        require_array("state.n", state.n, shape=self.alpha.shape)
        th = None if theta is None else require_array("theta", theta.theta, shape=self.alpha.shape)
        return utility(self.alpha, state.q, self.prices, self.network(state.n), self.phi, th)

    def symmetric_split(self) -> np.ndarray:
        """The audience split m / N for every streamer."""
        return np.full(self.alpha.shape[0], self.m / self.alpha.shape[0])

    def perturbed_start(self) -> np.ndarray:
        """The symmetric split with streamer 0 nudged up by PERTURBATION * m."""
        n0 = self.symmetric_split()
        n0[0] = min(n0[0] + PERTURBATION * self.m, self.m)
        return n0


@dataclass(frozen=True)
class MarketState:
    """Viewer counts and content qualities at one instant of model time."""

    n: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        n = require_array("state.n", self.n, 0)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", require_array("state.q", self.q, 0, shape=n.shape))


@dataclass(frozen=True)
class TrafficAllocation:
    """Promotion shares on the probability simplex."""

    theta: np.ndarray

    def __post_init__(self):
        theta = require_array("theta", self.theta, 0)
        total = float(theta.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise DomainError(f"theta must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "theta", theta)


def deterministic_utility(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> np.ndarray:
    """Systematic utility alpha q - p + beta n (+ phi theta) at a state; see Market.utility."""
    return Market.from_params(platform, streamers).utility(state, theta)


def choice_probabilities(v) -> np.ndarray:
    """Multinomial-logit probabilities via the max-shifted softmax.

    Shift-invariant and overflow-safe: network-effect terms can reach
    hundreds of utility units at large audiences.
    """
    return softmax(require_array("V", v))


def streamer_profit(
    n_i: float,
    q_i: float,
    platform: PlatformParams,
    streamer: StreamerParams,
) -> float:
    """Per-period profit (1 - tau) R n_i minus the quadratic quality cost c q_i^2."""
    require("n_i", n_i, 0)
    require("q_i", q_i, 0)
    revenue = (1.0 - platform.tau) * platform.revenue_per_viewer * n_i
    return revenue - streamer.cost_coefficient * q_i * q_i


def audience_quality_sensitivity(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> np.ndarray:
    """Own-quality audience response M alpha_i P_i (1 - P_i), holding n fixed."""
    market = Market.from_params(platform, streamers)
    p = choice_probabilities(market.utility(state, theta))
    return logit_slope(platform.n_viewers * market.alpha, p)
