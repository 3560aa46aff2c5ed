"""Welfare accounting and promotion-share optimization.

Consumer surplus via the logit expected-maximum-utility identity,
producer surplus and platform profit, the welfare gradient with respect
to promotion shares, projected gradient ascent over the probability
simplex with a KKT stopping rule, a brute-force simplex grid oracle for
verification, a myopic re-optimizing dynamic allocator, and the
concentrated-vs-dispersed welfare comparison.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (
    Market,
    MarketState,
    PlatformParams,
    TrafficAllocation,
    choice_probabilities,
    deterministic_utility,
)
from .dynamics import IntegratorConfig, Trajectory, integrate
from .equilibrium import (
    FixedPointConfig,
    find_critical_beta,
    max_share_from_perturbed_start,
)
from .errors import (
    BracketError,
    DomainError,
    NonFiniteError,
    NumericalError,
    require_integers,
    require_numbers,
)
from .logit import logit_slope, logsumexp, softmax, utility, viewer_fixed_point

__all__ = [
    "WelfareBreakdown",
    "AllocationSolution",
    "MyopicStep",
    "HeadEffectComparison",
    "consumer_surplus",
    "producer_surplus",
    "platform_profit",
    "total_welfare",
    "welfare_at_theta",
    "welfare_gradient_theta",
    "numeric_welfare_gradient_theta",
    "simplex_project",
    "optimize_allocation",
    "grid_search_allocation",
    "myopic_dynamic_allocation",
    "time_averaged_welfare",
    "head_effect_welfare_comparison",
]


@dataclass(frozen=True)
class WelfareBreakdown:
    """CS, PS, platform profit, and their sum."""

    consumer_surplus: float
    producer_surplus: float
    platform_profit: float
    total: float

    def __post_init__(self):
        parts = self.consumer_surplus + self.producer_surplus + self.platform_profit
        if abs(self.total - parts) > 1e-9 * (1.0 + abs(parts)):
            raise DomainError("welfare total does not match its components")

    @classmethod
    def from_components(cls, cs: float, ps: float, pi: float) -> "WelfareBreakdown":
        return cls(cs, ps, pi, cs + ps + pi)


def consumer_surplus(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> float:
    """Aggregate viewer surplus M * (E[max gross utility] - expected payment).

    Gross benefit is the logsumexp aggregate over price-free utilities;
    payments are netted out once, at the choice-probability-weighted
    price, so a uniform price increase of c lowers surplus by exactly M*c.
    Choices themselves follow the price-inclusive utilities.
    """
    v_net = deterministic_utility(platform, streamers, state, theta)
    p = choice_probabilities(v_net)
    v_gross = v_net + platform.prices
    expected_price = float(p @ platform.prices)
    return platform.n_viewers * (float(logsumexp(v_gross)) - expected_price)


def producer_surplus(platform: PlatformParams, streamers, state: MarketState) -> float:
    """Total streamer profit: commission-net revenue minus quality costs."""
    c = Market.from_params(platform, streamers).c
    revenue = (1.0 - platform.tau) * platform.revenue_per_viewer * state.n.sum()
    return float(revenue - np.sum(c * state.q * state.q))


def platform_profit(platform: PlatformParams) -> float:
    """Commission take tau * R * M; independent of the market state."""
    return platform.tau * platform.revenue_per_viewer * platform.n_viewers


def total_welfare(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> WelfareBreakdown:
    """CS + PS + platform profit at the given state."""
    return WelfareBreakdown.from_components(
        consumer_surplus(platform, streamers, state, theta),
        producer_surplus(platform, streamers, state),
        platform_profit(platform),
    )


def _default_fixed_point(market: Market, tol: float, max_iter: int = 5000) -> FixedPointConfig:
    """The viewer fixed-point config the welfare layer uses when none is given.

    The map T(n) = M softmax(base + beta n) has the symmetric positive
    semidefinite Jacobian beta M (diag P - P P^T), whose rows have absolute
    sums at most beta M / 2. So for beta M < 2 it is a max-norm contraction
    with a unique fixed point, and the undamped iteration (damping 1)
    converges at least as fast as any damped one; otherwise the iteration
    keeps the default damping of FixedPointConfig.
    """
    cfg = FixedPointConfig(tol=tol, max_iter=max_iter)
    if market.beta * market.m < 2.0:
        return dataclasses.replace(cfg, damping=1.0)
    return cfg


def _welfare_raw(market: Market, q, theta_vec, cfg, n0):
    """Welfare at the viewer equilibrium for a raw (possibly off-simplex)
    promotion vector; used by the optimizer and finite-difference probes.

    Returns (welfare, n, p, converged, residual) of the fixed point."""
    n, converged, _, residual = viewer_fixed_point(
        market, q[np.newaxis], n0[np.newaxis], cfg, theta_vec
    )
    n = n[0]
    v = utility(market.alpha, q, market.prices, market.beta, n, market.phi, theta_vec)
    w, p = _welfare_of(market, q, v, n)
    return float(w), n, p, bool(converged[0]), float(residual[0])


def _welfare_of(market: Market, q, v, n):
    """Total welfare and choice probabilities at utilities v and audiences n,
    each of shape (..., N); the three parts as in consumer_surplus,
    producer_surplus and platform_profit."""
    p = softmax(v)
    cs = market.m * (logsumexp(v + market.prices) - p @ market.prices)
    net = (1.0 - market.tau) * market.revenue_per_viewer
    ps = net * n.sum(axis=-1) - np.sum(market.c * q * q)
    return cs + ps + market.tau * market.revenue_per_viewer * market.m, p


def welfare_at_theta(
    platform: PlatformParams,
    streamers,
    q,
    theta: TrafficAllocation,
    cfg: FixedPointConfig | None = None,
    n0=None,
) -> tuple[WelfareBreakdown, MarketState]:
    """Re-solve the viewer equilibrium under theta and evaluate welfare.

    Quality is held fixed: the promotion instrument steers audiences, and
    the welfare derivatives being reproduced treat q as given. Raises
    NumericalError naming the residual when the viewer fixed point has
    not converged within cfg.max_iter iterations. Without cfg the fixed
    point runs to tol 1e-12 within 5000 sweeps, undamped when beta M < 2
    (the map is then a max-norm contraction with factor at most beta M / 2)
    and with damping 0.5 otherwise; a given cfg is used as it is.
    """
    q = np.asarray(q, dtype=float)
    market = Market.from_params(platform, streamers)
    if cfg is None:
        cfg = _default_fixed_point(market, tol=1e-12)
    n0 = market.symmetric_split() if n0 is None else np.asarray(n0, dtype=float)
    _, n, _, converged, residual = _welfare_raw(market, q, theta.theta, cfg, n0)
    if not converged:
        raise NumericalError(
            f"viewer fixed point under theta did not converge: residual {residual:.3g} > "
            f"tol {cfg.tol:.3g} (max_iter={cfg.max_iter})"
        )
    state = MarketState(n=np.maximum(n, 0.0), q=q, t=0.0)
    return total_welfare(platform, streamers, state, theta), state


def _foc_gradient(platform: PlatformParams, p) -> np.ndarray:
    m, phi = platform.n_viewers, platform.phi
    return m * p / phi + logit_slope(platform.revenue_per_viewer * m, p) * phi


def welfare_gradient_theta(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation,
) -> np.ndarray:
    """Analytic welfare gradient g_i = M P_i / phi + R M P_i (1 - P_i) phi.

    This is the first-order condition's left side: the consumer-surplus
    term plus the combined producer/platform audience response. It treats
    the choice probabilities as locally fixed (no equilibrium feedback);
    see numeric_welfare_gradient_theta for the full-feedback probe.
    """
    v = deterministic_utility(platform, streamers, state, theta)
    p = choice_probabilities(v)
    return _foc_gradient(platform, p)


def numeric_welfare_gradient_theta(
    platform: PlatformParams,
    streamers,
    q,
    theta: TrafficAllocation,
    cfg: FixedPointConfig | None = None,
    h: float = 1e-6,
) -> np.ndarray:
    """Central finite differences of welfare through the equilibrium re-solve.

    Diagnostic companion to the analytic gradient; the two are not
    asserted to agree because the analytic form ignores the audience
    feedback through the fixed point. Without cfg each re-solve runs to
    tol 1e-13 within 5000 sweeps, undamped when beta M < 2 (a max-norm
    contraction with factor at most beta M / 2) and with damping 0.5
    otherwise; a given cfg is used as it is.
    """
    q = np.asarray(q, dtype=float)
    market = Market.from_params(platform, streamers)
    if cfg is None:
        cfg = _default_fixed_point(market, tol=1e-13)
    n0 = market.symmetric_split()
    big_n = platform.n_streamers
    grad = np.empty(big_n)
    base = np.asarray(theta.theta, dtype=float)
    for i in range(big_n):
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        w_up = _welfare_raw(market, q, up, cfg, n0)[0]
        w_dn = _welfare_raw(market, q, dn, cfg, n0)[0]
        grad[i] = (w_up - w_dn) / (2.0 * h)
    return grad


def simplex_project(v) -> TrafficAllocation:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("simplex_project expects a non-empty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("simplex_project requires finite entries")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    support = np.flatnonzero(u - cumulative / ranks > 0)[-1] + 1
    lam = cumulative[support - 1] / support
    w = np.maximum(v - lam, 0.0)
    return TrafficAllocation(theta=w)


@dataclass(frozen=True)
class AllocationSolution:
    """Result of projected gradient ascent over promotion shares."""

    theta: TrafficAllocation
    welfare: float
    kkt_residual: float
    active_set: tuple[int, ...]
    iterations: int
    converged: bool


def _kkt_residual(g: np.ndarray, theta: np.ndarray) -> float:
    support = theta > 0.0
    lam = float(g[support].mean())
    res = float(np.max(np.abs(g[support] - lam))) if support.any() else 0.0
    zeros = ~support
    if zeros.any():
        res = max(res, float(np.max(np.maximum(0.0, g[zeros] - lam))))
    return res


def optimize_allocation(
    platform: PlatformParams,
    streamers,
    q,
    init_theta: TrafficAllocation | None = None,
    step: float = 0.1,
    tol: float = 1e-8,
    max_iter: int = 500,
    fp_cfg: FixedPointConfig | None = None,
) -> AllocationSolution:
    """Projected gradient ascent on the promotion simplex.

    Each iteration re-solves the viewer equilibrium at the current theta,
    evaluates the analytic first-order-condition gradient, and moves
    theta <- project(theta + s g) with a backtracking line search that
    never accepts a welfare decrease (beyond float noise). Terminates on
    the complementary-slackness KKT residual, tol, within max_iter steps;
    step is the largest step tried. Without fp_cfg the viewer fixed point
    runs to tol 1e-13 within 20000 sweeps, undamped when beta M < 2 (a
    max-norm contraction with factor at most beta M / 2) and with damping
    0.5 otherwise; a given fp_cfg is used as it is.
    """
    controls = SimpleNamespace(step=step, tol=tol, max_iter=max_iter)
    require_integers(controls, ("max_iter",))
    require_numbers(controls, ("step", "tol"))
    for name, value in (("step", step), ("tol", tol)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    q = np.asarray(q, dtype=float)
    market = Market.from_params(platform, streamers)
    if fp_cfg is None:
        fp_cfg = _default_fixed_point(market, tol=1e-13, max_iter=20000)
    big_n = platform.n_streamers

    theta = (
        np.full(big_n, 1.0 / big_n)
        if init_theta is None
        else np.asarray(init_theta.theta, dtype=float).copy()
    )
    w_cur, n_warm, p, _, _ = _welfare_raw(market, q, theta, fp_cfg, market.symmetric_split())

    s_prev = step
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = _foc_gradient(platform, p)
        residual = _kkt_residual(g, theta)
        if residual <= tol:
            break
        s = min(step, 2.0 * s_prev)
        accepted = False
        for _ in range(60):
            trial = simplex_project(theta + s * g).theta
            w_trial, n_trial, p_trial, _, _ = _welfare_raw(market, q, trial, fp_cfg, n_warm)
            if w_trial >= w_cur - 1e-12 * (1.0 + abs(w_cur)):
                theta, w_cur, n_warm, p = trial, w_trial, n_trial, p_trial
                s_prev = s
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break

    g = _foc_gradient(platform, p)
    residual = _kkt_residual(g, theta)
    allocation = simplex_project(theta)
    _, n, _, fp_converged, _ = _welfare_raw(market, q, allocation.theta, fp_cfg, n_warm)
    state = MarketState(n=np.maximum(n, 0.0), q=q, t=0.0)
    breakdown = total_welfare(platform, streamers, state, allocation)
    return AllocationSolution(
        theta=allocation,
        welfare=breakdown.total,
        kkt_residual=residual,
        active_set=tuple(int(i) for i in np.flatnonzero(allocation.theta == 0.0)),
        iterations=iterations,
        converged=residual <= tol and fp_converged,
    )


def _grid_viewer_fixed_point(v_theta, m, beta, cfg):
    """Viewer fixed point, damped by cfg.damping, for every grid row at once.

    Iterates streamer-major: reductions and broadcasts over the short
    streamer axis are far slower along the trailing axis of a (K, N)
    array than along the leading axis of its (N, K) transpose. Every
    element sees the same operations in the same order as a row-wise
    damped iteration, so the result is bitwise the same. Returns the
    audiences as a C-ordered (K, N) array: on a transposed view, the
    BLAS product p @ prices in the welfare evaluation rounds differently.
    The work buffers live only in this scope, so they are freed before
    the caller's welfare evaluation allocates its own temporaries.
    """
    v_theta_t = np.ascontiguousarray(v_theta.T)
    big_n, k = v_theta_t.shape
    n = np.full((big_n, k), m / big_n)
    v = np.empty_like(n)
    target = np.empty_like(n)
    row = np.empty(k)
    residual = np.inf
    for _ in range(cfg.max_iter):
        np.multiply(beta, n, out=v)
        np.add(v_theta_t, v, out=v)
        np.max(v, axis=0, out=row)
        np.subtract(v, row, out=v)
        np.exp(v, out=v)
        np.sum(v, axis=0, out=row)
        np.multiply(m, v, out=target)
        np.divide(target, row, out=target)
        np.subtract(n, target, out=v)
        np.abs(v, out=v)
        residual = float(v.max())
        if residual <= cfg.tol:
            return np.ascontiguousarray(n.T)
        if not np.isfinite(residual):
            break
        np.multiply(1.0 - cfg.damping, n, out=n)
        np.multiply(cfg.damping, target, out=target)
        np.add(n, target, out=n)
    raise NumericalError(
        f"grid oracle fixed point did not converge: residual {residual:.3g} > "
        f"tol {cfg.tol:.3g} (max_iter={cfg.max_iter})"
    )


def grid_search_allocation(
    platform: PlatformParams,
    streamers,
    q,
    resolution: float = 0.001,
    fp_cfg: FixedPointConfig | None = None,
) -> tuple[TrafficAllocation, float]:
    """Brute-force welfare maximization over a simplex grid (N = 2 or 3).

    Solves the viewer fixed point for every grid allocation in one
    vectorized iteration; independent oracle for the optimizer. Without
    fp_cfg it runs to tol 1e-10 within 5000 sweeps, undamped when
    beta M < 2 (a max-norm contraction with factor at most beta M / 2)
    and with damping 0.5 otherwise; a given fp_cfg is used as it is.
    Raises NumericalError if that iteration has not converged after
    fp_cfg.max_iter sweeps or its residual turns non-finite.
    """
    big_n = platform.n_streamers
    if big_n not in (2, 3):
        raise DomainError("grid oracle supports 2 or 3 streamers")
    q = np.asarray(q, dtype=float)
    market = Market.from_params(platform, streamers)
    if fp_cfg is None:
        fp_cfg = _default_fixed_point(market, tol=1e-10)

    k = int(round(1.0 / resolution))
    if big_n == 2:
        i = np.arange(k + 1)
        thetas = np.stack([i, k - i], axis=1) / k
    else:
        i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        mask = i + j <= k
        thetas = np.stack([i[mask], j[mask], k - i[mask] - j[mask]], axis=1) / k

    base = market.alpha * q - market.prices
    v_theta = base[None, :] + market.phi * thetas
    n = _grid_viewer_fixed_point(v_theta, market.m, market.beta, fp_cfg)

    w, _ = _welfare_of(market, q, v_theta + market.beta * n, n)
    best = int(np.argmax(w))
    return simplex_project(thetas[best]), float(w[best])


@dataclass(frozen=True)
class MyopicStep:
    """One re-optimization instant of the greedy dynamic allocator."""

    t: float
    theta: TrafficAllocation
    welfare: WelfareBreakdown
    segment: Trajectory


def myopic_dynamic_allocation(
    platform: PlatformParams,
    streamers,
    state0: MarketState,
    horizon: float,
    reopt_every: float,
    integrator_cfg: IntegratorConfig | None = None,
    fp_cfg: FixedPointConfig | None = None,
    opt_tol: float = 1e-8,
) -> list[MyopicStep]:
    """Greedy promotion control: re-optimize theta, hold it, integrate.

    This is an explicit approximation: each segment maximizes the static
    welfare at the segment's starting quality rather than the discounted
    welfare stream, so it is not the continuous-time optimum.
    """
    if horizon <= 0 or reopt_every <= 0:
        raise DomainError("horizon and reopt_every must be > 0")
    if integrator_cfg is None:
        integrator_cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    steps: list[MyopicStep] = []
    state = state0
    t = 0.0
    theta_prev: TrafficAllocation | None = None
    while t < horizon - 1e-12:
        sol = optimize_allocation(
            platform, streamers, state.q, init_theta=theta_prev, tol=opt_tol,
            fp_cfg=fp_cfg,
        )
        theta_prev = sol.theta
        span = min(reopt_every, horizon - t)
        seg_cfg = dataclasses.replace(integrator_cfg, t_end=span)
        segment = integrate(platform, streamers, state, seg_cfg, theta=sol.theta)
        steps.append(
            MyopicStep(
                t=t,
                theta=sol.theta,
                welfare=total_welfare(platform, streamers, state, sol.theta),
                segment=segment,
            )
        )
        state = MarketState(n=segment.n[-1], q=segment.q[-1])
        t += span
    return steps


def time_averaged_welfare(platform, streamers, steps: list[MyopicStep]) -> float:
    """Mean instantaneous welfare over every recorded sample of a run."""
    totals = [
        total_welfare(platform, streamers, MarketState(n=n, q=q), step.theta).total
        for step in steps
        for n, q in zip(step.segment.n, step.segment.q)
    ]
    return float(np.mean(totals))


@dataclass(frozen=True)
class HeadEffectComparison:
    """Welfare at the concentrated vs the dispersed equilibrium."""

    beta_star: float
    beta_dispersed: float
    beta_concentrated: float
    dispersed: WelfareBreakdown
    concentrated: WelfareBreakdown
    dispersed_state: MarketState
    concentrated_state: MarketState
    dispersed_max_share: float
    concentrated_max_share: float

    def component_deltas(self) -> dict[str, float]:
        """concentrated minus dispersed, per component."""
        return {
            "consumer_surplus": self.concentrated.consumer_surplus
            - self.dispersed.consumer_surplus,
            "producer_surplus": self.concentrated.producer_surplus
            - self.dispersed.producer_surplus,
            "platform_profit": self.concentrated.platform_profit
            - self.dispersed.platform_profit,
            "total": self.concentrated.total - self.dispersed.total,
        }


def head_effect_welfare_comparison(
    platform: PlatformParams,
    streamers,
    cfg: FixedPointConfig | None = None,
    share_threshold: float = 0.95,
) -> HeadEffectComparison:
    """Compare welfare across the concentration threshold.

    Locates the critical network-effect strength for this instance, then
    evaluates the welfare breakdown at the equilibria reached from the
    perturbed-symmetric start at half and at twice that strength.
    """
    if cfg is None:
        cfg = FixedPointConfig()
    big_n = platform.n_streamers
    m = platform.n_viewers
    beta_lo = 1e-6
    beta_hi = 4.0 * big_n / m
    plat_probe = dataclasses.replace(platform, beta=beta_hi)
    share, _ = max_share_from_perturbed_start(plat_probe, streamers, cfg)
    doublings = 0
    while share < share_threshold:
        beta_hi *= 2.0
        doublings += 1
        if doublings > 20:
            raise BracketError("could not bracket the critical network effect")
        plat_probe = dataclasses.replace(platform, beta=beta_hi)
        share, _ = max_share_from_perturbed_start(plat_probe, streamers, cfg)
    beta_star = find_critical_beta(
        platform, streamers, beta_lo, beta_hi, share_threshold, cfg
    )

    results = {}
    for label, beta in (("dispersed", 0.5 * beta_star), ("concentrated", 2.0 * beta_star)):
        plat = dataclasses.replace(platform, beta=beta)
        max_share, res = max_share_from_perturbed_start(plat, streamers, cfg)
        results[label] = (
            total_welfare(plat, streamers, res.state),
            res.state,
            max_share,
        )
    return HeadEffectComparison(
        beta_star=beta_star,
        beta_dispersed=0.5 * beta_star,
        beta_concentrated=2.0 * beta_star,
        dispersed=results["dispersed"][0],
        concentrated=results["concentrated"][0],
        dispersed_state=results["dispersed"][1],
        concentrated_state=results["concentrated"][1],
        dispersed_max_share=results["dispersed"][2],
        concentrated_max_share=results["concentrated"][2],
    )
