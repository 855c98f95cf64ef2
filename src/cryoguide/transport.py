"""Entropy-regularized optimal transport between point clouds.

Log-domain Sinkhorn with optional marginal relaxation ("reach"): mass
farther than about `reach` angstroms is forgiven instead of force-matched,
implemented as unbalanced OT with KL penalty scale rho = reach**2 and the
standard damped updates.  Costs are reported through the dual objective,
which is stationary at the optimum and therefore second-order accurate.

The self term OT(X, X) of the debiased divergence is solved with the
symmetric averaged update f <- (f + T(f)) / 2 on a single potential f = g
(Feydy et al., "Interpolating between Optimal Transport and MMD using
Sinkhorn Divergences", AISTATS 2019), which converges in a handful of
iterations where the alternating updates need thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pointcloud import PointCloud


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 1.0          # entropic regularization (A^2)
    reach: float = 10.0           # marginal relaxation scale (A); inf/None = balanced
    max_iters: int = 500
    tol: float = 1e-6
    use_weights: bool = False     # use cloud intensities as masses (else uniform)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.reach is not None and not self.reach > 0:
            raise ValueError(f"reach must be positive or None, got {self.reach}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")

    @property
    def balanced(self) -> bool:
        return self.reach is None or math.isinf(self.reach)


@dataclass(frozen=True)
class TransportPlan:
    gamma: np.ndarray             # (N, M) nonnegative coupling
    f: np.ndarray                 # dual potential on X (N,)
    g: np.ndarray                 # dual potential on Y (M,)
    converged: bool
    iterations: int


def _masses(cloud: PointCloud, cfg: SinkhornConfig) -> np.ndarray:
    if cfg.use_weights:
        return cloud.weights
    n = len(cloud)
    return np.full(n, 1.0 / n)


def _lse(M, axis):
    """logsumexp with max-subtraction; tolerates -inf entries (zero masses)."""
    m = np.max(M, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(M - m), axis=axis))


def _cost(X, Y):
    """Half squared distances, the cost whose gradient divergence_grad takes."""
    return 0.5 * np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)


def _damp(cfg: SinkhornConfig) -> float:
    """Scale of the potential update: 1 when balanced, rho / (rho + eps) for
    the KL-relaxed marginals."""
    if cfg.balanced:
        return 1.0
    rho = cfg.reach ** 2
    return rho / (rho + cfg.epsilon)


def _solve(X, a, Y, b, cfg: SinkhornConfig):
    eps = cfg.epsilon
    C = _cost(X, Y)
    with np.errstate(divide="ignore"):
        la = np.log(a)[:, None]
        lb = np.log(b)[None, :]
    damp = _damp(cfg)

    # g-independent / f-independent parts of the update arguments
    fk = lb - C / eps
    gk = la - C / eps
    pk = la + lb - C / eps   # log-plan = pk + f/eps + g/eps

    f = np.zeros(len(X))
    g = np.zeros(len(Y))
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        f_old = f
        f = -damp * eps * _lse(fk + g[None, :] / eps, axis=1)
        g = -damp * eps * _lse(gk + f[:, None] / eps, axis=0)
        if cfg.balanced:
            # after the g update columns are exact; rows measure the residual.
            # the check costs as much as an update, so run it sparsely.
            if it % 10 and it != cfg.max_iters:
                continue
            row = np.exp(_lse(pk + f[:, None] / eps + g[None, :] / eps, axis=1))
            err = np.max(np.abs(row - a))
        else:
            err = np.max(np.abs(f - f_old))
        if err < cfg.tol:
            converged = True
            break
    gamma = np.exp(pk + f[:, None] / eps + g[None, :] / eps)
    return f, g, gamma, converged, it


def _solve_self(X, a, cfg: SinkhornConfig):
    """OT(X, X) on one symmetric potential: f <- (f + T(f)) / 2.

    T is the Sinkhorn update with g = f; averaging damps the oscillation
    that the plain iteration f <- T(f) shows on symmetric problems.  Stops
    when the update moves f by less than `tol`.
    """
    eps = cfg.epsilon
    C = _cost(X, X)
    with np.errstate(divide="ignore"):
        la = np.log(a)
    damp = _damp(cfg)
    fk = la[None, :] - C / eps

    f = np.zeros(len(X))
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        f_new = 0.5 * (f - damp * eps * _lse(fk + f[None, :] / eps, axis=1))
        err = np.max(np.abs(f_new - f))
        f = f_new
        if err < cfg.tol:
            converged = True
            break
    gamma = np.exp(la[:, None] + la[None, :]
                   + (f[:, None] + f[None, :] - C) / eps)
    return f, gamma, converged, it


def _dual_value(a, f, b, g, cfg: SinkhornConfig) -> float:
    if cfg.balanced:
        return float(a @ f + b @ g)
    rho = cfg.reach ** 2
    scale = rho + cfg.epsilon / 2.0
    return float(a @ (scale * (1.0 - np.exp(-f / rho)))
                 + b @ (scale * (1.0 - np.exp(-g / rho))))


def ot_epsilon(X: PointCloud, Y: PointCloud,
               cfg: SinkhornConfig = SinkhornConfig()) -> tuple[float, TransportPlan]:
    """Entropic OT cost between two clouds and the coupling that achieves it.

    The returned plan carries a `converged` flag; an exhausted iteration
    budget degrades the flag rather than raising, since guidance tolerates
    approximate plans.  Passing the same cloud object twice (`Y is X`)
    selects the symmetric self-term solver, whose plan has `g` equal to `f`.
    """
    if len(X) == 0 or len(Y) == 0:
        raise ValueError("ot_epsilon requires nonempty point clouds")
    a = _masses(X, cfg)
    if Y is X:
        f, gamma, converged, it = _solve_self(X.points, a, cfg)
        g, b = f, a
    else:
        b = _masses(Y, cfg)
        f, g, gamma, converged, it = _solve(X.points, a, Y.points, b, cfg)
    cost = _dual_value(a, f, b, g, cfg)
    return cost, TransportPlan(gamma=gamma, f=f, g=g, converged=converged, iterations=it)


def sinkhorn_divergence(X: PointCloud, Y: PointCloud,
                        cfg: SinkhornConfig = SinkhornConfig()) -> float:
    """Debiased transport divergence D(X,Y) = OT(X,Y) - OT(X,X)/2 - OT(Y,Y)/2."""
    cxy, _ = ot_epsilon(X, Y, cfg)
    cxx, _ = ot_epsilon(X, X, cfg)
    cyy, _ = ot_epsilon(Y, Y, cfg)
    return cxy - 0.5 * cxx - 0.5 * cyy


def divergence_grad(X: PointCloud, Y: PointCloud,
                    cfg: SinkhornConfig = SinkhornConfig()) -> np.ndarray:
    """Gradient of sinkhorn_divergence with respect to the X positions.

    Envelope form: the converged plans are held fixed, so for the half-sum
    of squared distances cost the cross term contributes
    sum_j gamma_ij (x_i - y_j) and the (symmetric) self term twice that
    with Y = X.  Exact at convergence.
    """
    _, pxy = ot_epsilon(X, Y, cfg)
    _, pxx = ot_epsilon(X, X, cfg)
    P = X.points
    Q = Y.points
    gx = pxy.gamma.sum(axis=1)[:, None] * P - pxy.gamma @ Q
    gxx = 2.0 * (pxx.gamma.sum(axis=1)[:, None] * P - pxx.gamma @ P)
    return gx - 0.5 * gxx
