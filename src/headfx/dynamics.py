"""Continuous-time audience/quality dynamics.

Fixed-step RK4 integration of the coupled system

    dn_i/dt = gamma (M P_i - n_i)
    dq_i/dt = eta_i ((1 - tau) R M alpha_i P_i (1 - P_i) - 2 c_i q_i)

plus local stability via the Jacobian, twin-run path-dependence
experiments, concentration (HHI), and phase-portrait sweeps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    Market,
    MarketState,
    PlatformParams,
    TrafficAllocation,
    choice_probabilities,
    deterministic_utility,
)
from .errors import (
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    NonFiniteError,
    require_integers,
)
from .logit import logit_slope, quality_best_response, softmax, utility

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "StabilityReport",
    "PathDependenceRecord",
    "PortraitResult",
    "rhs",
    "best_response_quality",
    "integrate",
    "jacobian",
    "analytic_viewer_blocks",
    "assess_stability",
    "stability_at",
    "path_dependence_experiment",
    "hhi",
    "phase_portrait",
]

# Integration aborts when any state magnitude passes this bound.
_EXPLOSION_BOUND = 1e12
# The finite-difference Jacobian steps coordinate i by this times (1 + |x_i|).
_JACOBIAN_STEP = 1e-6
# Slack on the runtime check that audiences stay inside [0, M].
_N_BOUND_SLACK = 1e-3


@dataclass(frozen=True)
class IntegratorConfig:
    """Step, horizon and sampling stride of the fixed-step classic RK4 integrator."""

    dt: float = 0.01
    t_end: float = 200.0
    record_every: int = 1

    def __post_init__(self):
        require_integers(self, ("record_every",))
        if not 0.0 < self.dt < math.inf:
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
        if not 0.0 < self.t_end < math.inf:
            raise DomainError(f"t_end must be finite and > 0, got {self.t_end}")
        if not self.t_end / self.dt <= sys.maxsize:
            raise DomainError(
                f"t_end / dt must be at most {sys.maxsize} steps, got {self.t_end / self.dt:g}"
            )
        if self.record_every < 1:
            raise DomainError(f"record_every must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled path of the market state at strictly increasing times.

    times has shape (T,); n and q have shape (T, N), row j holding the
    audiences and qualities at times[j].
    """

    times: np.ndarray
    n: np.ndarray
    q: np.ndarray

    @property
    def terminal(self) -> MarketState:
        return MarketState(n=self.n[-1], q=self.q[-1], t=float(self.times[-1]))


@dataclass(frozen=True)
class StabilityReport:
    """Real parts of the Jacobian spectrum and the stability verdict."""

    eigen_real_parts: np.ndarray
    stable: bool


def _flow(market: Market, theta_vec, rows: int | None = None):
    """The flow's right-hand side f(n, q) -> (dn/dt, dq/dt).

    The constant vectors of the formulas (the market's, and the cost
    slope 2 c) are formed once, by the same operations in the same order
    as inside the whole expressions, so f is bitwise the formulas
    evaluated in full. For a batch of rows they are tiled to (rows, N):
    numpy's elementwise loops are much faster on equal shapes than on
    broadcast ones.
    """
    m, beta, gamma, phi = market.m, market.beta, market.gamma, market.phi
    alpha, eta, prices, revenue = market.alpha, market.eta, market.prices, market.revenue
    cost_slope = 2.0 * market.c
    if rows is not None:
        alpha, eta, prices, revenue, cost_slope = (
            np.tile(x, (rows, 1)) for x in (alpha, eta, prices, revenue, cost_slope)
        )
        if theta_vec is not None:
            theta_vec = np.tile(theta_vec, (rows, 1))

    def f(n, q):
        p = softmax(utility(alpha, q, prices, beta, n, phi, theta_vec))
        dn = gamma * (m * p - n)
        dq = eta * (logit_slope(revenue, p) - cost_slope * q)
        return dn, dq

    return f


def rhs(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> np.ndarray:
    """Time derivative (dn/dt, dq/dt) of length 2N at the given state."""
    if not (np.all(np.isfinite(state.n)) and np.all(np.isfinite(state.q))):
        raise NonFiniteError("state contains non-finite entries")
    if state.n.shape[0] != platform.n_streamers:
        raise DimensionMismatchError(
            f"state has {state.n.shape[0]} streamers, expected {platform.n_streamers}"
        )
    theta_vec = theta.theta if theta is not None else None
    dn, dq = _flow(Market.from_params(platform, streamers), theta_vec)(state.n, state.q)
    return np.concatenate([dn, dq])


def best_response_quality(platform: PlatformParams, streamers, shares) -> np.ndarray:
    """Myopic best-response quality with the choice probabilities held at shares."""
    market = Market.from_params(platform, streamers)
    return quality_best_response(market.revenue, market.c, np.asarray(shares, dtype=float))


def _divergence(n, q, m: float, t: float) -> DivergenceError | None:
    """The error a state fails its integration checks with, or None."""
    if not (np.isfinite(n).all() and np.isfinite(q).all()):
        return DivergenceError(f"non-finite state at t={t:.6g}", t=t)
    if max(np.abs(n).max(), np.abs(q).max()) > _EXPLOSION_BOUND:
        return DivergenceError(f"state exceeded {_EXPLOSION_BOUND:g} at t={t:.6g}", t=t)
    if (n > m * (1.0 + _N_BOUND_SLACK)).any():
        return DivergenceError(f"audience left [0, M] at t={t:.6g}; decrease dt", t=t)
    return None


def _integrate_batch(market: Market, n0, q0, cfg, theta_vec):
    """Classic RK4 for K starts at once, as (K, N) arrays.

    Every row goes through the operations of a single-start run in the
    same order, so each row's path is bitwise the one it would take
    alone; a single start is integrated as a plain vector. The
    divergence checks run on the whole batch; only on a step where one
    fails are the rows told apart, and each failing row leaves the batch
    with the error a single-start run would raise there.

    Returns (trajectories, failures): a list with one Trajectory per row
    (None for a failed row) and a dict from row index to DivergenceError.
    """
    m = market.m
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    n_steps = int(round(cfg.t_end / dt))
    n_records = 1 + n_steps // cfg.record_every + (n_steps % cfg.record_every != 0)

    n = np.array(n0, dtype=float)
    q = np.array(q0, dtype=float)
    n_rec = np.empty((n_records,) + n.shape)
    q_rec = np.empty((n_records,) + q.shape)
    n_rec[0] = n
    q_rec[0] = q
    times = [0.0]
    rows = np.arange(n.shape[0])
    failures: dict[int, DivergenceError] = {}
    if rows.size == 1:
        n, q = n[0], q[0]
        f = _flow(market, theta_vec)
    else:
        f = _flow(market, theta_vec, rows.size)

    for step in range(1, n_steps + 1):
        k1n, k1q = f(n, q)
        k2n, k2q = f(n + half * k1n, q + half * k1q)
        k3n, k3q = f(n + half * k2n, q + half * k2q)
        k4n, k4q = f(n + dt * k3n, q + dt * k3q)
        n = n + sixth * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
        q = q + sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        q = np.maximum(q, 0.0)
        n = np.maximum(n, 0.0)
        t = step * dt

        error = _divergence(n, q, m, t)
        if error is not None:
            if n.ndim == 1:
                failures[int(rows[0])] = error
                break
            errors = [_divergence(n[i], q[i], m, t) for i in range(rows.size)]
            failed = np.array([e is not None for e in errors])
            for i in np.flatnonzero(failed):
                failures[int(rows[i])] = errors[i]
            if failed.all():
                break
            rows, n, q = rows[~failed], n[~failed], q[~failed]
            f = _flow(market, theta_vec, rows.size)

        if step % cfg.record_every == 0 or step == n_steps:
            if rows.size == n_rec.shape[1]:
                n_rec[len(times)] = n
                q_rec[len(times)] = q
            else:
                n_rec[len(times), rows] = n
                q_rec[len(times), rows] = q
            times.append(t)

    return [
        None
        if row in failures
        else Trajectory(times=np.array(times), n=n_rec[:, row], q=q_rec[:, row])
        for row in range(n_rec.shape[1])
    ], failures


def integrate(
    platform: PlatformParams,
    streamers,
    state0: MarketState,
    cfg: IntegratorConfig,
    theta: TrafficAllocation | None = None,
) -> Trajectory:
    """Classic RK4 with post-step projection of q onto [0, inf).

    The quality drift can transiently push q below zero near q = 0, so
    each accepted step clamps q (and shaves float-noise negatives off n).
    Blow-ups and audiences escaping [0, M] raise DivergenceError naming t.
    """
    theta_vec = theta.theta if theta is not None else None
    (trajectory,), failures = _integrate_batch(
        Market.from_params(platform, streamers), state0.n[np.newaxis], state0.q[np.newaxis],
        cfg, theta_vec,
    )
    if failures:
        raise failures[0]
    return trajectory


def jacobian(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> np.ndarray:
    """Central finite-difference Jacobian of the flow, 2N x 2N.

    Per-coordinate step h_i = _JACOBIAN_STEP * (1 + |x_i|) on the stacked
    state x = (n, q).
    """
    theta_vec = theta.theta if theta is not None else None
    big_n = platform.n_streamers
    x0 = np.concatenate([state.n, state.q])
    flow = _flow(Market.from_params(platform, streamers), theta_vec)

    def f(x):
        return np.concatenate(flow(x[:big_n], x[big_n:]))

    dim = 2 * big_n
    jac = np.empty((dim, dim))
    for i in range(dim):
        h = _JACOBIAN_STEP * (1.0 + abs(x0[i]))
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (f(xp) - f(xm)) / (2.0 * h)
    return jac


def analytic_viewer_blocks(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form audience-row Jacobian blocks (d ndot/dn, d ndot/dq).

    Uses dP_i/dV_j = P_i (delta_ij - P_j) with dV_j/dn_j = beta and
    dV_j/dq_j = alpha_j; exposed to cross-validate the numeric Jacobian.
    """
    market = Market.from_params(platform, streamers)
    p = choice_probabilities(deterministic_utility(platform, streamers, state, theta))
    dp_dv = np.diag(p) - np.outer(p, p)
    dndot_dn = market.gamma * (market.m * market.beta * dp_dv - np.eye(platform.n_streamers))
    dndot_dq = market.gamma * market.m * dp_dv * market.alpha[np.newaxis, :]
    return dndot_dn, dndot_dq


def assess_stability(jac: np.ndarray) -> StabilityReport:
    """Eigenvalue test: stable iff every real part is below -1e-9."""
    jac = np.asarray(jac, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise DimensionMismatchError(f"Jacobian must be square, got shape {jac.shape}")
    if not np.all(np.isfinite(jac)):
        raise NonFiniteError("Jacobian contains non-finite entries")
    real_parts = np.sort(np.linalg.eigvals(jac).real)[::-1]
    return StabilityReport(eigen_real_parts=real_parts, stable=bool(real_parts[0] < -1e-9))


def stability_at(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> StabilityReport:
    """Jacobian + eigenvalue assessment in one call."""
    return assess_stability(jacobian(platform, streamers, state, theta))


def hhi(n) -> float:
    """Herfindahl-Hirschman index of an audience vector, in [1/N, 1]."""
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise DomainError("audience entries must be >= 0")
    total = n.sum()
    if total <= 0:
        raise DomainError("cannot compute HHI of an all-zero vector")
    shares = n / total
    return float(np.sum(shares * shares))


@dataclass(frozen=True)
class PathDependenceRecord:
    """Twin-run divergence record.

    gap_plus/gap_minus track n_0(t) - n_1(t) inside each twin; the plus
    twin starts with streamer 0 ahead by delta0/2, the minus twin behind
    by the same amount.
    """

    times: np.ndarray
    gap_plus: np.ndarray
    gap_minus: np.ndarray
    winner_plus: int
    winner_minus: int
    dominant_share_plus: float
    dominant_share_minus: float
    terminal_hhi_plus: float
    terminal_hhi_minus: float
    trajectory_plus: Trajectory
    trajectory_minus: Trajectory

    @property
    def terminal_share_gap(self) -> float:
        """Largest terminal |share_0 - share_1| across the two twins."""
        m_plus = self.trajectory_plus.terminal.n.sum()
        m_minus = self.trajectory_minus.terminal.n.sum()
        return float(
            max(abs(self.gap_plus[-1]) / m_plus, abs(self.gap_minus[-1]) / m_minus)
        )


def path_dependence_experiment(
    platform: PlatformParams,
    streamers,
    delta0: float,
    cfg: IntegratorConfig,
    state0: MarketState | None = None,
) -> PathDependenceRecord:
    """Integrate twin systems whose starts differ only in n_0 by +-delta0/2.

    The default start is the symmetric audience split with the myopic
    best-response quality, which for identical streamers sits exactly on
    the symmetric branch so the twins isolate the perturbation.
    """
    market = Market.from_params(platform, streamers)
    big_n = platform.n_streamers
    if big_n < 2:
        raise DomainError("path dependence needs at least 2 streamers")
    if not 0.0 < delta0 < market.m:
        raise DomainError(f"delta0 must lie in (0, M), got {delta0}")

    if state0 is None:
        q_base = quality_best_response(market.revenue, market.c, np.full(big_n, 1.0 / big_n))
        state0 = MarketState(n=market.symmetric_split(), q=q_base, t=0.0)

    n_plus = state0.n.copy()
    n_plus[0] = min(n_plus[0] + delta0 / 2.0, market.m)
    n_minus = state0.n.copy()
    n_minus[0] = max(n_minus[0] - delta0 / 2.0, 0.0)

    # Both twins run as one batch; the plus twin's error wins, as it
    # would if the twins ran one after the other.
    (traj_plus, traj_minus), failures = _integrate_batch(
        market, np.stack([n_plus, n_minus]), np.stack([state0.q, state0.q]), cfg, None
    )
    if failures:
        raise failures[min(failures)]

    term_plus = traj_plus.n[-1]
    term_minus = traj_minus.n[-1]
    return PathDependenceRecord(
        times=traj_plus.times,
        gap_plus=traj_plus.n[:, 0] - traj_plus.n[:, 1],
        gap_minus=traj_minus.n[:, 0] - traj_minus.n[:, 1],
        winner_plus=int(np.argmax(term_plus)),
        winner_minus=int(np.argmax(term_minus)),
        dominant_share_plus=float(term_plus.max() / term_plus.sum()),
        dominant_share_minus=float(term_minus.max() / term_minus.sum()),
        terminal_hhi_plus=hhi(term_plus),
        terminal_hhi_minus=hhi(term_minus),
        trajectory_plus=traj_plus,
        trajectory_minus=traj_minus,
    )


@dataclass(frozen=True)
class PortraitResult:
    """Trajectories for a grid of starts; diverged runs are recorded, not raised."""

    trajectories: tuple[Trajectory | None, ...]
    failures: tuple[tuple[int, str], ...]

    def completed(self) -> list[Trajectory]:
        return [t for t in self.trajectories if t is not None]


def phase_portrait(
    platform: PlatformParams,
    streamers,
    initial_states,
    cfg: IntegratorConfig,
) -> PortraitResult:
    """Integrate every grid start as one batch, collecting per-run divergence failures."""
    initial_states = list(initial_states)
    if not initial_states:
        raise DomainError("phase_portrait needs a non-empty grid of initial states")
    trajectories, failures = _integrate_batch(
        Market.from_params(platform, streamers), np.stack([s0.n for s0 in initial_states]),
        np.stack([s0.q for s0 in initial_states]), cfg, None,
    )
    failures = [(idx, str(failures[idx])) for idx in sorted(failures)]
    return PortraitResult(trajectories=tuple(trajectories), failures=tuple(failures))
