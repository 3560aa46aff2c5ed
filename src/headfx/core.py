"""Closed-form market primitives.

Viewer utilities, multinomial-logit choice probabilities, streamer
profits, quadratic quality costs, and the analytic audience/quality
sensitivity. Everything here is a pure function of its inputs; all other
modules build on these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonFiniteError
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
    "cost",
    "streamer_profit",
    "audience_quality_sensitivity",
]

# The perturbed symmetric start nudges streamer 0 up by this fraction of M,
# which fixes which streamer dominates whenever concentration occurs.
PERTURBATION = 1e-3


def _as_float_vector(x, name: str, n: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatchError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


@dataclass(frozen=True)
class PlatformParams:
    """Global market constants shared by every streamer and viewer.

    prices has one entry per streamer; beta is the network-effect weight
    (utility per current viewer), tau the platform commission, gamma the
    viewer adjustment rate, and phi the traffic-sensitivity factor that
    couples promotion shares into utility.
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
        if not self.n_streamers >= 1:
            raise DomainError(f"n_streamers must be >= 1, got {self.n_streamers}")
        if not 0 < self.n_viewers < math.inf:
            raise DomainError(f"n_viewers must be finite and > 0, got {self.n_viewers}")
        if not 0.0 <= self.tau < 1.0:
            raise DomainError(f"tau must lie in [0, 1), got {self.tau}")
        # Every check is written so that NaN fails it.
        for name in ("beta", "revenue_per_viewer"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("gamma", "phi"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        prices = self.prices
        if prices is None:
            prices = np.zeros(self.n_streamers)
        prices = _as_float_vector(prices, "prices", self.n_streamers)
        if not np.all((prices >= 0) & (prices < math.inf)):
            raise DomainError(f"prices must be finite and >= 0, got {prices.tolist()}")
        object.__setattr__(self, "prices", prices)


@dataclass(frozen=True)
class StreamerParams:
    """Per-streamer constants: attractiveness, adjustment speed, cost curvature."""

    alpha: float
    eta: float = 1.0
    cost_coefficient: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise DomainError(f"alpha must be finite and >= 0, got {self.alpha}")
        for name in ("eta", "cost_coefficient"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class Market:
    """The per-streamer arrays and derived coefficients every solver reads.

    alpha, eta, c (cost coefficients), prices and revenue, the marginal
    revenue coefficient (1 - tau) R M alpha, are (N,) arrays; m is M as a
    float. Built by from_params from inputs their classes validated.
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

    def symmetric_split(self) -> np.ndarray:
        """The audience split m / N for every streamer."""
        return np.full(self.alpha.shape[0], self.m / self.alpha.shape[0])

    def perturbed_start(self, perturbation: float = PERTURBATION) -> np.ndarray:
        """The symmetric split with streamer 0 nudged up by perturbation * m."""
        n0 = self.symmetric_split()
        n0[0] = min(n0[0] + perturbation * self.m, self.m)
        return n0


@dataclass(frozen=True)
class MarketState:
    """Viewer counts and content qualities at one instant of model time."""

    n: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        n = _as_float_vector(self.n, "state.n")
        q = _as_float_vector(self.q, "state.q", n.shape[0])
        if np.any(n < 0):
            raise DomainError("state.n must be >= 0")
        if np.any(q < 0):
            raise DomainError("state.q must be >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class TrafficAllocation:
    """Promotion shares on the probability simplex."""

    theta: np.ndarray

    def __post_init__(self):
        theta = _as_float_vector(self.theta, "theta")
        if np.any(theta < 0):
            raise DomainError("theta entries must be >= 0")
        total = float(theta.sum())
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"theta must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "theta", theta)


def deterministic_utility(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> np.ndarray:
    """Systematic utility V_i = alpha_i q_i - p_i + beta n_i (+ phi theta_i).

    The idiosyncratic taste term lives in the logit (or, for agents, in
    explicit noise draws) and is deliberately excluded here.
    """
    N = platform.n_streamers
    if len(streamers) != N:
        raise DimensionMismatchError(f"streamers has length {len(streamers)}, expected {N}")
    _as_float_vector(state.n, "state.n", N)
    _as_float_vector(state.q, "state.q", N)
    alpha = Market.from_params(platform, streamers).alpha
    th = None if theta is None else _as_float_vector(theta.theta, "theta", N)
    return utility(alpha, state.q, platform.prices, platform.beta, state.n, platform.phi, th)


def choice_probabilities(v) -> np.ndarray:
    """Multinomial-logit probabilities via the max-shifted softmax.

    Shift-invariant and overflow-safe: network-effect terms can reach
    hundreds of utility units at large audiences.
    """
    v = _as_float_vector(v, "V")
    if v.shape[0] < 1:
        raise DimensionMismatchError("V must have at least one entry")
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise NonFiniteError(f"V contains a non-finite entry at index {bad}")
    return softmax(v)


def cost(q, c):
    """Quadratic content-production cost c * q**2 (strictly convex)."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise DomainError("quality must be >= 0")
    if np.any(np.asarray(c, dtype=float) <= 0):
        raise DomainError("cost coefficient must be > 0")
    out = c * q * q
    return float(out) if out.ndim == 0 else out


def streamer_profit(
    n_i: float,
    q_i: float,
    platform: PlatformParams,
    streamer: StreamerParams,
) -> float:
    """Per-period profit (1 - tau) R n_i minus the quality cost."""
    if n_i < 0:
        raise DomainError(f"n_i must be >= 0, got {n_i}")
    revenue = (1.0 - platform.tau) * platform.revenue_per_viewer * n_i
    return revenue - cost(q_i, streamer.cost_coefficient)


def audience_quality_sensitivity(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> np.ndarray:
    """Own-quality audience response M alpha_i P_i (1 - P_i), holding n fixed."""
    v = deterministic_utility(platform, streamers, state, theta)
    p = choice_probabilities(v)
    alpha = Market.from_params(platform, streamers).alpha
    return logit_slope(platform.n_viewers * alpha, p)
