"""Welfare accounting and promotion-share optimization.

Consumer surplus via the logit expected-maximum-utility identity,
producer surplus and platform profit, the equilibrium welfare's gradient
in the promotion shares, projected gradient ascent over the probability
simplex with a KKT stopping rule, and a brute-force simplex grid oracle
for verification, whose independent column blocks run on one thread per
available CPU.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import Market, MarketState, PlatformParams, TrafficAllocation, choice_probabilities
from .equilibrium import FixedPointConfig
from .errors import DomainError, NumericalError, cpu_count, map_in_threads, require, require_array
from .logit import choice_jacobian, logsumexp, softmax, utility, viewer_fixed_point

__all__ = [
    "WelfareBreakdown",
    "AllocationSolution",
    "total_welfare",
    "simplex_project",
    "optimize_allocation",
    "grid_search_allocation",
]


@dataclass(frozen=True)
class WelfareBreakdown:
    """CS, PS, platform profit, and their sum."""

    consumer_surplus: float
    producer_surplus: float
    platform_profit: float

    @property
    def total(self) -> float:
        return self.consumer_surplus + self.producer_surplus + self.platform_profit


def _welfare_parts(market: Market, q, v, p, n):
    """Consumer surplus, producer surplus and platform profit at utilities v,
    their choice probabilities p = softmax(v) and audiences n, each of shape
    (..., N): the formulas of every welfare this module reports. p is an
    argument so that total_welfare can take it from choice_probabilities,
    which rejects a non-finite v.

    Consumer surplus is M (E[max gross utility] - expected payment): gross
    benefit is the log-sum-exp over price-free utilities and payments are
    netted out once, at the probability-weighted price, so a uniform price
    increase of c lowers it by exactly M c while choices follow the
    price-inclusive v. Producer surplus is the streamers' commission-net
    revenue minus their quality costs c q^2. Platform profit is the
    commission take tau R M, whatever the market state.
    """
    cs = market.m * (logsumexp(v + market.prices) - p @ market.prices)
    ps = (1.0 - market.tau) * market.revenue_per_viewer * n.sum(axis=-1) - np.sum(
        market.c * q * q
    )
    return cs, ps, market.tau * market.revenue_per_viewer * market.m


def total_welfare(
    platform: PlatformParams,
    streamers,
    state: MarketState,
    theta: TrafficAllocation | None = None,
) -> WelfareBreakdown:
    """CS + PS + platform profit at the given state."""
    market = Market.from_params(platform, streamers)
    v = market.utility(state, theta)
    cs, ps, pi = _welfare_parts(market, state.q, v, choice_probabilities(v), state.n)
    return WelfareBreakdown(float(cs), float(ps), float(pi))


def _default_fixed_point(market: Market, tol: float, max_iter: int = 5000) -> FixedPointConfig:
    """The viewer fixed-point config the welfare layer uses when none is given.

    The map T(n) = M softmax(base + network(n)) has the Jacobian
    M (diag P - P P^T) diag(network_slope(n)), whose rows have absolute
    sums at most M network_slope(0.0) / 2. Below 2 it is a max-norm
    contraction with a unique fixed point, and the undamped iteration
    (damping 1) converges at least as fast as any damped one; otherwise
    the iteration keeps the default damping of FixedPointConfig.
    """
    cfg = FixedPointConfig(tol=tol, max_iter=max_iter)
    if market.network_slope(0.0) * market.m < 2.0:
        return dataclasses.replace(cfg, damping=1.0)
    return cfg


def _welfare_raw(market: Market, q, theta_vec, cfg, n0):
    """Welfare breakdown and its gradient g at the viewer equilibrium for a
    promotion vector; the optimizer's one evaluation of a point.

    The audiences sum to M, so only consumer surplus moves with theta. By
    the implicit function theorem, with the symmetric J = dP/dV and the
    network term's slope D = diag(Market.network_slope(n)) (beta I for the
    level term), g = M phi solve(I - M J D, softmax(v + prices) - J prices).
    Where an eigenvalue of I - M J D is <= 0 the equilibrium is unstable
    and g follows that unstable branch; a singular I - M J D raises
    NumericalError. Returns (breakdown, n, g, converged): the breakdown is
    total_welfare's at (n, q) and theta_vec, converged the fixed point's."""
    n, converged, _, _ = viewer_fixed_point(market, q[np.newaxis], n0[np.newaxis], cfg, theta_vec)
    n = n[0]
    v = utility(market.alpha, q, market.prices, market.network(n), market.phi, theta_vec)
    p = softmax(v)
    cs, ps, pi = _welfare_parts(market, q, v, p, n)
    jac = choice_jacobian(p)
    try:
        dv = np.linalg.solve(np.eye(p.size) - market.network_slope(n) * market.m * jac,
                             softmax(v + market.prices) - jac @ market.prices)
    except np.linalg.LinAlgError:
        raise NumericalError("welfare gradient: I - M dP/dV dV/dn is singular") from None
    g = market.m * market.phi * dv
    breakdown = WelfareBreakdown(float(cs), float(ps), float(pi))
    return breakdown, n, g, bool(converged[0])


def simplex_project(v) -> TrafficAllocation:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = require_array("v", v)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    support = np.flatnonzero(u - cumulative / ranks > 0)[-1] + 1
    lam = cumulative[support - 1] / support
    w = np.maximum(v - lam, 0.0)
    return TrafficAllocation(theta=w)


@dataclass(frozen=True)
class AllocationSolution:
    """Result of projected gradient ascent over promotion shares, with the
    viewer equilibrium under theta and its welfare breakdown."""

    theta: TrafficAllocation
    state: MarketState
    breakdown: WelfareBreakdown
    kkt_residual: float
    active_set: tuple[int, ...]
    iterations: int
    converged: bool

    @property
    def welfare(self) -> float:
        return self.breakdown.total


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
    takes the gradient of the welfare there (see _welfare_raw), and moves
    theta <- project(theta + s g) with a backtracking line search that
    never accepts a welfare decrease (beyond float noise). Terminates on
    the complementary-slackness KKT residual, tol, within max_iter steps.
    step is the first step tried; each search starts from the last
    accepted step and only halves it. Without fp_cfg the viewer fixed
    point runs to tol 1e-13 within 20000 sweeps, undamped when beta M < 2
    (a max-norm contraction with factor at most beta M / 2) and with
    damping 0.5 otherwise; a given fp_cfg is used as it is. The result is
    the last accepted evaluation, converged only if its KKT residual is at
    most tol and its fixed point converged. Raises NumericalError where
    I - beta M dP/dV is singular at a visited equilibrium.
    """
    require("step", step, 0, ends="()")
    require("tol", tol, 0, ends="()")
    require("max_iter", max_iter, 1, integer=True)
    market = Market.from_params(platform, streamers)
    big_n = platform.n_streamers
    q = require_array("q", q, 0, shape=(big_n,))
    if fp_cfg is None:
        fp_cfg = _default_fixed_point(market, tol=1e-13, max_iter=20000)

    theta = (
        np.full(big_n, 1.0 / big_n)
        if init_theta is None
        else require_array("init_theta", init_theta.theta, shape=(big_n,)).copy()
    )
    breakdown, n, g, converged = _welfare_raw(market, q, theta, fp_cfg, platform.symmetric_split())

    s = step
    for iterations in range(1, max_iter + 1):
        residual = _kkt_residual(g, theta)
        if residual <= tol:
            break
        for _ in range(60):
            trial = simplex_project(theta + s * g).theta
            evaluation = _welfare_raw(market, q, trial, fp_cfg, n)
            if evaluation[0].total >= breakdown.total - 1e-12 * (1.0 + abs(breakdown.total)):
                break
            s *= 0.5
        else:
            break
        theta = trial
        breakdown, n, g, converged = evaluation

    residual = _kkt_residual(g, theta)
    return AllocationSolution(
        theta=TrafficAllocation(theta),
        state=MarketState(n=n, q=q),
        breakdown=breakdown,
        kkt_residual=residual,
        active_set=tuple(int(i) for i in np.flatnonzero(theta == 0.0)),
        iterations=iterations,
        converged=residual <= tol and converged,
    )


# The grid oracle solves its grid in column blocks of about this many
# cells, so that a block's allocations, audiences, utilities and work
# buffers stay in cache while it iterates (16,384 columns at N = 3).
_BLOCK_CELLS = 3 << 14


def _simplex_columns(big_n: int, k: int, cols: slice, out: np.ndarray) -> None:
    """Write the columns cols of the simplex grid with coordinates in
    multiples of 1/k (N = 2 or 3) into the (N, width) out.

    Column c is (c, k - c) / k at N = 2. At N = 3 the columns come in the
    order of the rows of meshgrid(i, j, indexing="ij") masked to
    i + j <= k, on which the argmax tie-break depends: i outer, j = 0..k-i
    inner, so run i starts at column i (k + 1) - i (i - 1) / 2. The
    coordinates are integers divided by k, so a column has the same bits
    whichever block it falls in.
    """
    c = np.arange(cols.start, cols.stop)
    if big_n == 2:
        np.divide(c, k, out=out[0])
        np.divide(k - c, k, out=out[1])
        return
    i = np.arange(k + 1)
    starts = i * (k + 1) - i * (i - 1) // 2
    # integer steps in place, exact, so each worker holds three temporaries
    first = np.searchsorted(starts, c, side="right")
    first -= 1
    c -= starts[first]
    np.divide(first, k, out=out[0])
    np.divide(c, k, out=out[1])
    first += c
    np.subtract(k, first, out=first)
    np.divide(first, k, out=out[2])


def _block_exp_utilities(market, v_theta, n, v, e, row) -> None:
    """Write v = v_theta + network(n), e = exp(v - max v) and its column
    sums row for a streamer-major (N, width) block; e may be v."""
    market.network(n, out=v)
    np.add(v_theta, v, out=v)
    np.max(v, axis=0, out=row)
    np.subtract(v, row, out=e)
    np.exp(e, out=e)
    np.sum(e, axis=0, out=row)


def _block_fixed_point(v_theta, n, market, cfg, v, target, row) -> None:
    """Viewer fixed point, damped by cfg.damping, for one column block.

    v_theta is the block's streamer-major (N, width) utilities without the
    market's network term, n its audiences, iterated in place from their
    start; v, target and row are work buffers of the same width. Reductions over
    the short streamer axis are far faster along the leading axis than
    along the trailing axis of a (width, N) array.

    The block stops on the first sweep where its largest residual is at
    most cfg.tol, so every column ends within tol of its image and the
    block gets bitwise what the same iteration run on its columns alone
    gets. Raises NumericalError, naming the block's residual, when the
    residual turns non-finite or is still above tol after cfg.max_iter
    sweeps.
    """
    for _ in range(cfg.max_iter):
        # target = T(n) = m softmax(v_theta + network(n)), v = |n - target|
        _block_exp_utilities(market, v_theta, n, v, v, row)
        np.multiply(market.m, v, out=target)
        np.divide(target, row, out=target)
        np.subtract(n, target, out=v)
        np.abs(v, out=v)
        residual = float(v.max())
        if not cfg.tol < residual < math.inf:
            break
        if cfg.damping == 1.0:
            # 0 n + 1 target is target for the finite n, target >= 0 of a sweep
            np.copyto(n, target)
        else:
            np.multiply(1.0 - cfg.damping, n, out=n)
            np.multiply(cfg.damping, target, out=target)
            np.add(n, target, out=n)
    if not residual < math.inf:
        raise NumericalError(
            f"non-finite residual {residual:.3g} in grid oracle fixed-point iteration"
        )
    if residual > cfg.tol:
        raise NumericalError(
            f"grid oracle fixed point did not converge: residual {residual:.3g} > "
            f"tol {cfg.tol:.3g} (max_iter={cfg.max_iter})"
        )


def _column_blocks(big_n: int, k: int) -> list[slice]:
    """The column ranges of the simplex grid at step 1/k, in column order:
    blocks of max(1, _BLOCK_CELLS // N) columns, the last one narrower."""
    size = k + 1 if big_n == 2 else (k + 1) * (k + 2) // 2
    width = max(1, _BLOCK_CELLS // big_n)
    return [slice(start, min(start + width, size)) for start in range(0, size, width)]


def _grid_buffers(big_n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """One worker's buffers for blocks of up to width columns: v_theta, n
    and two work arrays, each (N, width), and one (width,) row."""
    return np.empty((4, big_n, width)), np.empty(width)


def _grid_block(market: Market, q, k: int, cfg: FixedPointConfig, cols: slice, buffers):
    """Build, solve and value the columns cols of the simplex grid at step
    1/k in buffers (see _grid_buffers); returns the grid index of the
    block's first best column, or of its first NaN welfare, and that
    welfare.

    The allocations are written into a work array and only v_theta is kept
    from them. Once v_theta and p are spent, their arrays hold the later
    steps' rows, so a block's audiences end in the second (N, width)
    array and its (width,) total welfare in row 1 of the fourth. The
    welfare is _welfare_parts at utilities v_theta + network(n), given p
    as a C-ordered (width, N) copy, since the BLAS product p @ prices
    rounds differently on a transposed view. A block whose fixed point
    fails raises NumericalError (see _block_fixed_point).
    """
    big_n = market.alpha.shape[0]
    b = cols.stop - cols.start
    columns, row = buffers
    vtb, nb, vb, eb = columns[:, :, :b]
    rb = row[:b]
    _simplex_columns(big_n, k, cols, eb)
    np.multiply(market.phi, eb, out=vtb)
    np.add((market.alpha * q - market.prices)[:, np.newaxis], vtb, out=vtb)
    nb.fill(market.m / big_n)
    _block_fixed_point(vtb, nb, market, cfg, vb, eb, rb)
    # p = softmax(v), v = v_theta + network(n); v_theta is spent from here
    _block_exp_utilities(market, vtb, nb, vb, eb, rb)
    np.divide(eb, rb, out=eb)
    # p's rows lie over the spent v_theta, the welfare over p's spent row 1
    p_rows = columns[0].reshape(-1)[:b * big_n].reshape(b, big_n)
    np.copyto(p_rows, eb.T)
    cs, ps, pi = _welfare_parts(market, q, vb.T, p_rows, nb.T)
    wb = eb[1]
    np.add(cs + ps, pi, out=wb)
    best = int(np.argmax(wb))
    return cols.start + best, float(wb[best])


def _first_max(maxima) -> tuple[int, float]:
    """The index and value of the first maximum over blocks of values,
    given each block's (index, value) of its own first maximum or first
    NaN, in block order.

    Keeps np.argmax's rules on the values concatenated: the first index of
    the maximum, or the first NaN when there is one. A block's argmax
    finds its own first maximum or first NaN, and the argmax over the
    block maxima picks the first block that holds the overall one.
    """
    indices, values = zip(*maxima)
    best = int(np.argmax(values))
    return indices[best], values[best]


def grid_search_allocation(
    platform: PlatformParams,
    streamers,
    q,
    resolution: float = 0.001,
    fp_cfg: FixedPointConfig | None = None,
) -> tuple[TrafficAllocation, float]:
    """Brute-force welfare maximization over a simplex grid (N = 2 or 3).

    Solves the viewer fixed point for every grid allocation; independent
    oracle for the optimizer. The grid is split into cache-sized column
    blocks that share no state: each block builds its allocations,
    iterates until its own residual is at most the tol, and values them,
    and only its best column is kept. The blocks run on cpu_count()
    threads (at most one per block), each with its own buffers reused
    from block to block; with one thread (one CPU, or a pool worker) they
    run in the calling thread. The columns come in the order of a
    row-major (i, j) meshgrid filtered to i + j <= k, k = round(1 / resolution), and ties
    in welfare go to the first column, so the result is the same for any
    thread count. Without fp_cfg the fixed point runs to tol 1e-10 within
    5000 sweeps, undamped when beta M < 2 (a max-norm contraction with
    factor at most beta M / 2) and with damping 0.5 otherwise; a given
    fp_cfg is used as it is. Raises DomainError unless resolution is a
    finite number > 0 with k >= 1, and NumericalError if a block of the
    grid has not converged after fp_cfg.max_iter sweeps or a residual
    turns non-finite: once a block fails no further block starts, and the
    error is that of the first failing block in column order.
    """
    big_n = platform.n_streamers
    if big_n not in (2, 3):
        raise DomainError("grid oracle supports 2 or 3 streamers")
    require("resolution", resolution, 0, ends="()")
    steps = 1.0 / resolution
    if not (math.isfinite(steps) and round(steps) >= 1):
        raise DomainError(
            f"resolution must be finite and > 0 with round(1 / resolution) >= 1, "
            f"got {resolution}"
        )
    q = require_array("q", q, 0, shape=(big_n,))
    market = Market.from_params(platform, streamers)
    if fp_cfg is None:
        fp_cfg = _default_fixed_point(market, tol=1e-10)

    k = round(steps)
    blocks = _column_blocks(big_n, k)
    workers = min(cpu_count(), len(blocks))
    # one buffer set per worker: at most workers blocks run at once
    free = [_grid_buffers(big_n, blocks[0].stop) for _ in range(workers)]

    def solve(cols):
        buffers = free.pop()
        try:
            return _grid_block(market, q, k, fp_cfg, cols, buffers)
        finally:
            free.append(buffers)

    best, welfare = _first_max(map_in_threads(solve, blocks, workers))
    theta = np.empty((big_n, 1))
    _simplex_columns(big_n, k, slice(best, best + 1), theta)
    return TrafficAllocation(theta[:, 0]), welfare
