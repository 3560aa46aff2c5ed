"""Continuous-time audience/quality dynamics.

Fixed-step RK4 integration of the coupled system

    dn_i/dt = gamma (M P_i - n_i)
    dq_i/dt = eta_i ((1 - tau) R M alpha_i P_i (1 - P_i) - 2 c_i q_i)

plus local stability via the flow's closed-form Jacobian, twin-run
path-dependence experiments, concentration (HHI), and phase-portrait
sweeps.

The flow works on a stacked state: a (2, N) array for one start, or
(2, K, N) for K starts, row 0 holding n and row 1 holding q. Its
coefficients are stacked the same way, so dn/dt and dq/dt come out of
the same array operations; multiplying by 1.0 is exact, so every entry
goes through the operations of the formulas above in their order.

The flow is autonomous and each RK4 step deterministic, so once a step
returns the state bytewise unchanged every later step would too: the
integration loop stops there and fills the remaining records with that
state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .core import Market, MarketState, PlatformParams, TrafficAllocation
from .errors import DivergenceError, Domain, DomainError, require, require_array, require_fields
from .logit import choice_jacobian, quality_best_response, softmax, utility

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "StabilityReport",
    "PathDependenceRecord",
    "PortraitResult",
    "integrate",
    "jacobian",
    "assess_stability",
    "stability_at",
    "path_dependence_experiment",
    "hhi",
    "phase_portrait",
]

# Integration aborts when any state magnitude passes this bound.
_EXPLOSION_BOUND = 1e12
# Slack on the runtime check that audiences stay inside [0, M].
_N_BOUND_SLACK = 1e-3


_INTEGRATOR_DOMAINS = {
    "dt": Domain(0, ends="()"),
    "t_end": Domain(0, ends="()"),
    "record_every": Domain(1, integer=True),
}


@dataclass(frozen=True)
class IntegratorConfig:
    """Step, horizon and sampling stride of the fixed-step classic RK4 integrator."""

    dt: float = 0.01
    t_end: float = 200.0
    record_every: int = 1

    def __post_init__(self):
        require_fields(self, _INTEGRATOR_DOMAINS)
        if not self.t_end / self.dt <= sys.maxsize:
            raise DomainError(
                f"t_end / dt must be at most {sys.maxsize} steps, got {self.t_end / self.dt:g}"
            )
        if self.n_steps == 0:
            raise DomainError(f"t_end {self.t_end:g} / dt {self.dt:g} rounds to zero RK4 steps")

    @property
    def n_steps(self) -> int:
        """Number of RK4 steps: t_end / dt rounded to the nearest integer."""
        return int(round(self.t_end / self.dt))


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
        return MarketState(n=self.n[-1], q=self.q[-1])


@dataclass(frozen=True)
class StabilityReport:
    """Real parts of the Jacobian spectrum and the stability verdict."""

    eigen_real_parts: np.ndarray
    stable: bool


def _stack_rows(shape, top, bottom) -> np.ndarray:
    """An array of the stacked state's shape with top in row 0 and bottom in row 1."""
    rows = np.empty(shape)
    rows[0], rows[1] = top, bottom
    return rows


def _stacked_flow(market: Market, theta_vec, s: np.ndarray):
    """The flow's right-hand side f(s) -> ds/dt for states shaped like s.

    The utility is logit.utility with market.network(n), alpha, prices and
    promotion tiled to one row. The other coefficients are rows shaped like
    s, formed once by the formulas' own operations: (m, revenue) for the
    rate, (1, 2 c) for the drain and (gamma, eta) for the speed. Equal
    shapes keep numpy's elementwise loops off their slower broadcast path.
    """
    rate = _stack_rows(s.shape, market.m, market.revenue)
    drain = _stack_rows(s.shape, 1.0, 2.0 * market.c)
    speed = _stack_rows(s.shape, market.gamma, market.eta)
    alpha = np.broadcast_to(market.alpha, s.shape[1:]).copy()
    prices = np.broadcast_to(market.prices, s.shape[1:]).copy()
    theta = None if theta_vec is None else np.broadcast_to(theta_vec, s.shape[1:]).copy()

    def f(s):
        p = softmax(utility(alpha, s[1], prices, market.network(s[0]), market.phi, theta))
        # (m P, revenue P (1 - P)): the q row is logit_slope(revenue, P)
        slope = rate * p
        slope[1] *= 1.0 - p
        return speed * (slope - drain * s)

    return f


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
    """Classic RK4 for K starts at once, on the stacked (2, K, N) state.

    Each row goes through a single-start run's operations in the same
    order, so its path is bitwise the one it takes alone; a single start
    runs as a (2, N) state. One comparison with a stacked bound,
    min(M (1 + slack), 1e12) for n and 1e12 for q, checks each clamped
    step; only when it fails are the rows told apart, and each failing
    row leaves with the error a single-start run would raise there.

    The loop ends on the step that returns the whole (compacted) state
    with the same bytes it started from (so -0.0 and 0.0 differ): every
    later step would return it again, so the remaining records take it
    and the remaining record times their own step times dt. A buffer of
    records numpy cannot allocate raises DomainError.

    Returns (trajectories, failures): a list with one Trajectory per row
    (None for a failed row) and a dict from row index to DivergenceError.
    """
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    n_steps = cfg.n_steps
    every = cfg.record_every
    n_records = 1 + n_steps // every + (n_steps % every != 0)

    s = np.stack([np.asarray(n0, dtype=float), np.asarray(q0, dtype=float)])
    try:
        rec = np.empty((2, n_records) + s.shape[1:])
    except (ValueError, MemoryError):
        raise DomainError(
            f"{n_records} trajectory records of {s.shape[1]} start(s) do not fit in memory; "
            f"raise record_every (--record-every), now {every}"
        ) from None
    rec[:, 0] = s
    record = 1
    rows = np.arange(s.shape[1])
    if rows.size == 1:
        s = s[:, 0]
    failures: dict[int, DivergenceError] = {}
    f = _stacked_flow(market, theta_vec, s)
    n_bound = min(market.m * (1.0 + _N_BOUND_SLACK), _EXPLOSION_BOUND)
    bound = _stack_rows(s.shape, n_bound, _EXPLOSION_BOUND)

    for step in range(1, n_steps + 1):
        start = s
        k1 = f(s)
        k2 = f(s + half * k1)
        k3 = f(s + half * k2)
        k4 = f(s + dt * k3)
        s = np.maximum(s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
        settled = s.tobytes() == start.tobytes()

        # the clamped state is >= 0 or NaN, so this is every check of _divergence
        if not (s <= bound).all():
            t = step * dt
            errors = [_divergence(n, q, market.m, t) for n, q in zip(*s.reshape(2, rows.size, -1))]
            failed = np.array([e is not None for e in errors])
            failures.update((int(rows[i]), errors[i]) for i in np.flatnonzero(failed))
            if failed.all():
                break
            rows, s, bound = rows[~failed], s[:, ~failed], bound[:, ~failed]
            f = _stacked_flow(market, theta_vec, s)

        if settled or step % every == 0 or step == n_steps:
            stop = n_records if settled else record + 1
            rec[:, record:stop, rows] = s.reshape(2, 1, rows.size, -1)
            record = stop
        if settled:
            break

    times = np.append(np.arange(0, n_steps, every), n_steps) * dt
    return [
        None
        if row in failures
        else Trajectory(times=times.copy(), n=rec[0, :, row], q=rec[1, :, row])
        for row in range(rec.shape[2])
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
    Once a step returns the state bytewise unchanged, the loop stops and
    the remaining samples repeat that state, as every later step would.
    """
    market = Market.from_params(platform, streamers)
    shape = market.alpha.shape
    require_array("state.n", state0.n, shape=shape)
    theta_vec = None if theta is None else require_array("theta", theta.theta, shape=shape)
    (trajectory,), failures = _integrate_batch(
        market, state0.n[np.newaxis], state0.q[np.newaxis], cfg, theta_vec
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
    """Closed-form Jacobian of the flow, 2N x 2N, rows and columns ordered (n, q).

    With J = dP/dV = diag P - P P^T (logit.choice_jacobian), dV/dn =
    diag(slope), slope = Market.network_slope(n), dV/dq = diag alpha and
    S = diag(eta rev (1 - 2P)) J, rev = (1 - tau) R M alpha (Market.revenue):

        [[gamma (M J diag(slope) - I),  gamma M J diag alpha        ],
         [S diag(slope),                S diag alpha - diag(2 c eta)]]
    """
    market = Market.from_params(platform, streamers)
    p = softmax(market.utility(state, theta))
    slope = market.network_slope(state.n)
    dp_dv = choice_jacobian(p)
    s = (market.eta * market.revenue * (1.0 - 2.0 * p))[:, np.newaxis] * dp_dv
    return np.block([
        [market.gamma * (market.m * slope * dp_dv - np.eye(p.size)),
         market.gamma * market.m * dp_dv * market.alpha],
        [s * slope, s * market.alpha - np.diag(2.0 * market.c * market.eta)],
    ])


def assess_stability(jac: np.ndarray) -> StabilityReport:
    """Eigenvalue test: stable iff every real part is below -1e-9."""
    jac = require_array("Jacobian", jac, shape=(None, None))
    require_array("Jacobian", jac, shape=(jac.shape[0],) * 2)
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
    n = require_array("n", n, 0)
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
    require("delta0", delta0, 0, market.m, "()")

    if state0 is None:
        q_base = quality_best_response(market.revenue, market.c, np.full(big_n, 1.0 / big_n))
        state0 = MarketState(n=market.symmetric_split(), q=q_base)
    else:
        require_array("state.n", state0.n, shape=market.alpha.shape)

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
    market = Market.from_params(platform, streamers)
    for s0 in initial_states:
        require_array("state.n", s0.n, shape=market.alpha.shape)
    trajectories, failures = _integrate_batch(
        market, np.stack([s0.n for s0 in initial_states]),
        np.stack([s0.q for s0 in initial_states]), cfg, None,
    )
    failures = [(idx, str(failures[idx])) for idx in sorted(failures)]
    return PortraitResult(trajectories=tuple(trajectories), failures=tuple(failures))
