"""Static equilibrium solvers.

Joint (n, q) equilibria by alternating the damped viewer fixed point
n = M * P(n, q) of ``logit.viewer_fixed_point`` with the closed-form
quality best response, multi-start enumeration of distinct
equilibria, and bisection for the critical network-effect strength at
which near-symmetric markets collapse into a concentrated outcome.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import Market, MarketState, PlatformParams, TrafficAllocation
from .errors import BracketError, DomainError, require_integers
from .logit import quality_best_response, softmax, utility, viewer_fixed_point

__all__ = [
    "FixedPointConfig",
    "EquilibriumResult",
    "solve_joint_equilibrium",
    "enumerate_equilibria",
    "find_critical_beta",
    "max_share_from_perturbed_start",
]

@dataclass(frozen=True)
class FixedPointConfig:
    """Iteration controls for the fixed-point and joint solvers."""

    damping: float = 0.5
    tol: float = 1e-10
    max_iter: int = 5000
    n_starts: int = 32

    def __post_init__(self):
        require_integers(self, ("max_iter", "n_starts"))
        if not 0.0 < self.damping <= 1.0:
            raise DomainError(f"damping must lie in (0, 1], got {self.damping}")
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.n_starts < 1:
            raise DomainError(f"n_starts must be >= 1, got {self.n_starts}")


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of a solve: final state, convergence flag, effort, residual.

    residual is the max-norm of n - M * P(n, q) at the returned state.
    """

    state: MarketState
    converged: bool
    iterations: int
    residual: float

    def shares(self) -> np.ndarray:
        total = self.state.n.sum()
        return self.state.n / total if total > 0 else self.state.n

    def max_share(self) -> float:
        return float(self.shares().max()) if self.state.n.sum() > 0 else 0.0


def _check_audiences(n, m: float) -> None:
    if np.any(n < 0) or np.any(n > m):
        raise DomainError("n0 entries must lie in [0, M]")


def _joint_equilibrium_batch(market: Market, n0, q0, cfg, theta_vec):
    """Alternate viewer fixed points and quality best responses for K starts.

    n0 is a (K, N) array of audience starts; q0 is (K, N) or None for the
    myopic best response to each start. Each row runs the outer rounds of
    a single-start solve with the same operations in the same order, and
    leaves the batch on the round it settles; the final viewer polish runs
    for every row at once. Returns (n, q, converged, iterations, residual)
    of shapes (K, N), (K, N), (K,), (K,) and (K,).
    """
    alpha, c, prices, revenue = market.alpha, market.c, market.prices, market.revenue
    m, beta, phi = market.m, market.beta, market.phi
    n = np.array(n0, dtype=float)
    if q0 is None:
        p = softmax(utility(alpha, np.zeros_like(n), prices, beta, n, phi, theta_vec))
        q = quality_best_response(revenue, c, p)
    else:
        q = np.array(q0, dtype=float)

    n_out = np.empty_like(n)
    q_out = np.empty_like(q)
    settled = np.zeros(n.shape[0], dtype=bool)
    rounds = np.full(n.shape[0], cfg.max_iter)
    rows = np.arange(n.shape[0])
    for outer in range(1, cfg.max_iter + 1):
        _check_audiences(n, m)
        n_new, inner_converged, _, _ = viewer_fixed_point(market, q, n, cfg, theta_vec)
        p = n_new / m
        q_target = quality_best_response(revenue, c, p)
        q_new = (1.0 - cfg.damping) * q + cfg.damping * q_target
        change_n = np.max(np.abs(n_new - n), axis=1)
        change_q = np.max(np.abs(q_new - q), axis=1)
        # max(change_n, change_q) as Python's max picks it, NaN included
        change = np.where(change_q > change_n, change_q, change_n)
        n, q = n_new, q_new
        done = inner_converged & (change <= cfg.tol)
        if done.any():
            finished = rows[done]
            n_out[finished] = n[done]
            q_out[finished] = q[done]
            settled[finished] = True
            rounds[finished] = outer
            active = ~done
            if not active.any():
                break
            rows, n, q = rows[active], n[active], q[active]
    else:  # the rows still active never settled: keep their last round
        n_out[rows] = n
        q_out[rows] = q

    _check_audiences(n_out, m)
    n_polished, polished, _, residual = viewer_fixed_point(market, q_out, n_out, cfg, theta_vec)
    return n_polished, q_out, settled & polished, rounds, residual


def _results(n, q, converged, iterations, residual) -> list[EquilibriumResult]:
    return [
        EquilibriumResult(
            state=MarketState(n=n[i], q=q[i]),
            converged=bool(converged[i]),
            iterations=int(iterations[i]),
            residual=float(residual[i]),
        )
        for i in range(n.shape[0])
    ]


def solve_joint_equilibrium(
    platform: PlatformParams,
    streamers,
    cfg: FixedPointConfig,
    n0=None,
    q0=None,
    theta: TrafficAllocation | None = None,
) -> EquilibriumResult:
    """Alternate viewer fixed points with quality best responses.

    Stops when the joint max-norm change of (n, q) over one outer round
    is at most cfg.tol; the returned residual is re-evaluated from a
    final viewer polish at the converged quality.
    """
    market = Market.from_params(platform, streamers)
    theta_vec = theta.theta if theta is not None else None
    n = market.symmetric_split() if n0 is None else np.asarray(n0, dtype=float)
    q = None if q0 is None else np.asarray(q0, dtype=float)[np.newaxis]
    (result,) = _results(*_joint_equilibrium_batch(market, n[np.newaxis], q, cfg, theta_vec))
    return result


def _cluster_distance(a: EquilibriumResult, b: EquilibriumResult) -> float:
    da = np.max(np.abs(a.state.n - b.state.n))
    dq = np.max(np.abs(a.state.q - b.state.q))
    return float(max(da, dq))


def enumerate_equilibria(
    platform: PlatformParams,
    streamers,
    cfg: FixedPointConfig,
    seed: int,
) -> list[EquilibriumResult]:
    """Multi-start probe for distinct joint equilibria.

    Runs the joint solver from cfg.n_starts Dirichlet-uniform audience
    vectors on the scaled simplex as one (n_starts, N) batch, drops
    non-converged runs, and merges results within max-norm distance
    10 * cfg.tol of an earlier find (in start order). Returned equilibria
    are sorted by descending max audience share.
    """
    market = Market.from_params(platform, streamers)
    rng = np.random.default_rng(seed)
    starts = rng.dirichlet(np.ones(platform.n_streamers), size=cfg.n_starts) * market.m
    solved = _joint_equilibrium_batch(market, starts, None, cfg, None)

    distinct: list[EquilibriumResult] = []
    for res in _results(*solved):
        if not res.converged:
            continue
        if all(_cluster_distance(res, other) >= 10.0 * cfg.tol for other in distinct):
            distinct.append(res)
    distinct.sort(key=lambda r: r.max_share(), reverse=True)
    return distinct


def max_share_from_perturbed_start(
    platform: PlatformParams,
    streamers,
    cfg: FixedPointConfig,
) -> tuple[float, EquilibriumResult]:
    """Deterministic concentration probe used by the critical-beta search.

    Starts the joint solver from Market.perturbed_start: the symmetric
    audience split with coordinate 0 nudged up by core.PERTURBATION * M.
    """
    n0 = Market.from_params(platform, streamers).perturbed_start()
    res = solve_joint_equilibrium(platform, streamers, cfg, n0=n0)
    return res.max_share(), res


def find_critical_beta(
    platform: PlatformParams,
    streamers,
    beta_lo: float,
    beta_hi: float,
    share_threshold: float = 0.95,
    cfg: FixedPointConfig | None = None,
) -> float:
    """Bisect for the smallest beta at which the market concentrates.

    A beta value is classified concentrated when the perturbed-symmetric
    probe reaches a max share of at least share_threshold. The bracket
    ends must classify differently; bisection stops once the bracket
    shrinks below 1e-3 of its initial width and returns the midpoint.
    """
    if cfg is None:
        cfg = FixedPointConfig()
    if not beta_lo < beta_hi:
        raise DomainError(f"need beta_lo < beta_hi, got [{beta_lo}, {beta_hi}]")
    big_n = platform.n_streamers
    if not 1.0 / big_n < share_threshold < 1.0:
        raise DomainError(
            f"share_threshold must lie in (1/N, 1) = ({1.0 / big_n}, 1), got {share_threshold}"
        )

    def concentrated(beta: float) -> bool:
        plat = dataclasses.replace(platform, beta=beta)
        share, _ = max_share_from_perturbed_start(plat, streamers, cfg)
        return share >= share_threshold

    lo, hi = float(beta_lo), float(beta_hi)
    c_lo, c_hi = concentrated(lo), concentrated(hi)
    if c_lo == c_hi:
        raise BracketError(
            "bracket does not straddle threshold: "
            f"beta={lo} and beta={hi} both classify concentrated={c_lo}"
        )
    width0 = hi - lo
    while hi - lo > 1e-3 * width0:
        mid = 0.5 * (lo + hi)
        if concentrated(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
