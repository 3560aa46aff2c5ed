"""Batched multinomial-logit kernels.

The formulas every model layer shares: the systematic utility, the
max-shifted softmax and log-sum-exp, the logit slope coef P (1 - P), the
choice Jacobian dP/dV = diag P - P P^T, the closed-form quality best
response, and the damped viewer fixed point n = M P(n) (logit identities
as in Train, *Discrete Choice Methods with Simulation*, ch. 3). The
formulas take raw arrays of shape (..., N), work over the last axis and
take a 1-D input as one vector; a row of a batch gets bitwise the result
of the 1-D call on that row. The fixed point reads its coefficients and
network term from a ``core.Market`` by attribute, importing nothing from
``core``. Nothing here validates its inputs: the public entry points in
``core`` do, and the solvers call these kernels inside their iterations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

__all__ = ["Q_MAX", "utility", "softmax", "logsumexp", "logit_slope", "choice_jacobian",
           "quality_best_response", "viewer_fixed_point"]

# Quality best responses are clamped to [0, Q_MAX] to guard divergence in
# early iterations; keep interior optima below this in test instances.
Q_MAX = 10.0


def utility(alpha, q, prices, network, phi, theta=None):
    """Systematic utility V = alpha q - prices + network (+ phi theta)."""
    v = alpha * q - prices + network
    if theta is not None:
        v = v + phi * theta
    return v


def softmax(v: np.ndarray) -> np.ndarray:
    """Max-shifted logit probabilities exp(V) / sum exp(V)."""
    # the same values without keepdims: faster in the solvers' vector loops;
    # the ufunc reductions skip the Python wrappers of ndarray.max and .sum
    if v.ndim == 1:
        e = np.exp(v - np.maximum.reduce(v))
        return e / np.add.reduce(e)
    e = np.exp(v - np.maximum.reduce(v, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def logsumexp(v: np.ndarray):
    """Max-shifted log sum exp(V): a scalar for a vector, shape (...,) for a batch."""
    m = np.maximum.reduce(v, axis=-1, keepdims=True)
    e = v - m
    np.exp(e, out=e)
    return m[..., 0] + np.log(np.add.reduce(e, axis=-1))


def logit_slope(coef, p):
    """coef * P (1 - P): coef times the own-utility derivative of P."""
    return coef * p * (1.0 - p)


def choice_jacobian(p):
    """dP/dV = diag P - P P^T, of shape (..., N, N) for P of shape (..., N);
    for a 1-D p, bitwise np.diag(p) - np.outer(p, p)."""
    outer = p[..., :, np.newaxis] * p[..., np.newaxis, :]
    return p[..., np.newaxis] * np.eye(p.shape[-1]) - outer


def quality_best_response(revenue, c, p):
    """Quality solving 2 c q = revenue P (1 - P), clamped to [0, Q_MAX].

    revenue is the marginal-revenue coefficient (1 - tau) R M alpha; the
    quadratic cost c q^2 makes the first-order condition closed-form.
    """
    return np.clip(logit_slope(revenue, p) / (2.0 * c), 0.0, Q_MAX)


def viewer_fixed_point(market, q, n0, cfg, theta):
    """Damped viewer fixed point n = m softmax(V(n)) for K starts at once.

    market is a core.Market, read by attribute; V is utility(alpha, q,
    prices, market.network(n), phi, theta), its constant part computed once
    by the same operations; q and n0 are (K, N) arrays, cfg supplies
    damping, tol and max_iter, and theta is an (N,) promotion vector or
    None. Each row takes the steps of a single-start iteration,
    n <- (1 - damping) n + damping m softmax(V(n)), so its result is
    bitwise the one it would get alone, and leaves the batch on the
    iteration its residual first drops to cfg.tol; the batch is compacted
    only then, and a lone active row runs as a plain vector. Raises
    NumericalError as soon as an active row's residual turns non-finite.

    Returns (n, converged, iterations, residual) of shapes (K, N), (K,),
    (K,) and (K,); rows that never converged keep their last damped
    iterate, iterations = cfg.max_iter and their last residual.
    """
    network, m = market.network, market.m
    tol, damping = cfg.tol, cfg.damping
    keep = 1.0 - damping
    n = np.array(n0, dtype=float)
    base = market.alpha * np.asarray(q, dtype=float) - market.prices
    theta_term = market.phi * theta if theta is not None else None

    n_out = np.empty_like(n)
    converged = np.zeros(n.shape[0], dtype=bool)
    iterations = np.full(n.shape[0], cfg.max_iter)
    residual = np.full(n.shape[0], np.inf)
    rows = np.arange(n.shape[0])
    if rows.size == 1:
        n, base = n[0], base[0]
    res = np.inf
    for it in range(1, cfg.max_iter + 1):
        v = base + network(n)
        if theta_term is not None:
            v = v + theta_term
        target = m * softmax(v)
        gap = np.abs(n - target)
        if n.ndim == 1:
            res = float(np.maximum.reduce(gap))
            if not math.isfinite(res):
                raise NumericalError("non-finite residual in viewer fixed-point iteration")
            if res <= tol:
                n_out[rows] = n
                converged[rows] = True
                iterations[rows] = it
                residual[rows] = res
                return n_out, converged, iterations, residual
        else:
            res = np.maximum.reduce(gap, axis=1)
            if not np.isfinite(res).all():
                raise NumericalError("non-finite residual in viewer fixed-point iteration")
            done = res <= tol
            if done.any():
                finished = rows[done]
                n_out[finished] = n[done]
                converged[finished] = True
                iterations[finished] = it
                residual[finished] = res[done]
                active = np.flatnonzero(~done)
                if active.size == 0:
                    return n_out, converged, iterations, residual
                rows = rows[active]
                # a lone survivor continues as a plain vector
                pick = active[0] if active.size == 1 else active
                n, target, base, res = n[pick], target[pick], base[pick], res[pick]
        n = keep * n + damping * target
    n_out[rows] = n
    residual[rows] = res
    return n_out, converged, iterations, residual
