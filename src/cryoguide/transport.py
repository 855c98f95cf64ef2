"""Entropy-regularized optimal transport between point clouds.

Log-domain Sinkhorn with optional marginal relaxation ("reach"): mass
farther than about `reach` angstroms is forgiven instead of force-matched,
implemented as unbalanced OT with KL penalty scale rho = reach**2.  Costs
are reported through the dual objective, which is stationary at the optimum
and therefore second-order accurate.

The cross term OT(X, Y) runs three alternating (damped) Sinkhorn sweeps and
then Newton steps on the concave dual (Brauer, Clason, Lorenz & Wirth, "A
Sinkhorn-Newton method for entropic optimal transport", arXiv:1710.06635),
with a backtracking line search.  The Hessian's f-block is diagonal, so
each step is one dense solve on the smaller cloud through its Schur
complement.  It converges in tens of steps where the alternating updates
need thousands; any step that cannot be taken falls back to one sweep.

The self term OT(X, X) of the debiased divergence is solved with the
symmetric averaged update f <- (f + T(f)) / 2 on a single potential f = g
(Feydy et al., "Interpolating between Optimal Transport and MMD using
Sinkhorn Divergences", AISTATS 2019), which converges in a handful of
iterations where the alternating updates need thousands.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .pointcloud import PointCloud


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 1.0          # entropic regularization (A^2)
    reach: float = 10.0           # marginal relaxation scale (A); inf/None = balanced
    max_iters: int = 500
    tol: float = 1e-6             # cross term: largest marginal residual;
                                  # self term: largest potential update
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


# Newton cross solver: alternating sweeps before the first step; the Armijo
# constant and the number of step halvings of the line search; the ridge
# added to the Hessian diagonal, relative to its largest entry; and the
# largest change of any potential in one step, in units of epsilon, which
# lets a plan entry grow at most e^200-fold in a trial, far from overflow.
_WARMUP_SWEEPS = 3
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
_RIDGE = 1e-12
_MAX_MOVE = 100.0


def _schur_direction(d_big, d_small, K, r_big, r_small):
    """Solve [[diag(d_big), K], [K^T, diag(d_small)]] (u, v) = (r_big, r_small)
    by eliminating the diagonal block: one dense solve on the small side.
    Returns None when the direction is not finite."""
    Kd = K / d_big[:, None]
    S = np.diag(d_small) - K.T @ Kd
    try:
        v = np.linalg.solve(S, r_small - Kd.T @ r_big)
    except np.linalg.LinAlgError:
        return None
    u = (r_big - K @ v) / d_big
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        return None
    return u, v


def _solve(X, a, Y, b, cfg: SinkhornConfig):
    """OT(X, Y): alternating warm-up sweeps, then damped Newton steps on the
    concave dual; a step that fails is replaced by one sweep.

    The dual's gradient is the marginal residual (a e^{-f/rho} - gamma 1,
    b e^{-g/rho} - gamma^T 1), with a and b in place of the exponentials
    when balanced, and the solve converges when its largest entry is below
    `tol`.  The Hessian's f- and g-blocks are diagonal, so each step is one
    Schur-complement solve on the smaller cloud.  A small ridge keeps that
    solve regular where the balanced gauge (f + c, g - c) or an underflowed
    coupling between groups of points leaves the Hessian singular; the
    resulting long steps are capped at `_MAX_MOVE * eps` and then halved
    until the dual rises enough (Armijo) or the residual falls.  Trial
    points that overflow are rejected without warnings.
    """
    eps = cfg.epsilon
    balanced = cfg.balanced
    rho = None if balanced else cfg.reach ** 2
    C = _cost(X, Y)
    with np.errstate(divide="ignore"):
        la = np.log(a)[:, None]
        lb = np.log(b)[None, :]
    damp = _damp(cfg)
    n, m = C.shape

    # g-independent / f-independent parts of the update arguments
    fk = lb - C / eps
    gk = la - C / eps
    pk = la + lb - C / eps   # log-plan = pk + f/eps + g/eps

    def point(f, g):
        """Dual value (up to a constant), the f and g halves of the marginal
        residual and its largest magnitude, plan and relaxed marginals at
        (f, g); overflow gives a non-finite value or residual."""
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = np.exp(pk + (f[:, None] + g[None, :]) / eps)
            if balanced:
                ua, ub = a, b
                value = a @ f + b @ g - eps * gamma.sum()
            else:
                ua = a * np.exp(-f / rho)
                ub = b * np.exp(-g / rho)
                value = -rho * (ua.sum() + ub.sum()) - eps * gamma.sum()
            rf = ua - gamma.sum(axis=1)
            rg = ub - gamma.sum(axis=0)
        # np.maximum, not max: a NaN in either half must carry through
        res = np.maximum(np.abs(rf).max(), np.abs(rg).max())
        return value, rf, rg, res, gamma, ua, ub

    def newton(f, g, value, rf, rg, res, gamma, ua, ub):
        K = gamma / eps
        hf, hg = K.sum(axis=1), K.sum(axis=0)
        if not balanced:
            hf = hf + ua / rho
            hg = hg + ub / rho
        ridge = _RIDGE * max(hf.max(), hg.max())
        if n >= m:
            d = _schur_direction(hf + ridge, hg + ridge, K, rf, rg)
        else:
            d = _schur_direction(hg + ridge, hf + ridge, K.T, rg, rf)
            d = None if d is None else d[::-1]
        if d is None:
            return None
        df, dg = d
        slope = rf @ df + rg @ dg
        move = max(np.abs(df).max(), np.abs(dg).max())
        t = 1.0 if move <= _MAX_MOVE * eps else _MAX_MOVE * eps / move
        for _ in range(_MAX_HALVINGS):
            ft, gt = f + t * df, g + t * dg
            trial = point(ft, gt)
            value_t, res_t = trial[0], trial[3]
            # the residual test accepts steps whose rise in the dual is
            # below float resolution at tight tolerances
            if np.isfinite(value_t) and np.isfinite(res_t) and (
                    value_t >= value + _ARMIJO * t * slope or res_t < res):
                return ft, gt, trial
            t *= 0.5
        return None

    f = np.zeros(n)
    g = np.zeros(m)
    state = None   # point(f, g)
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        step = newton(f, g, *state) if it > _WARMUP_SWEEPS else None
        if step is None:
            f = -damp * eps * _lse(fk + g[None, :] / eps, axis=1)
            g = -damp * eps * _lse(gk + f[:, None] / eps, axis=0)
            state = point(f, g)
        else:
            f, g, state = step
        if state[3] < cfg.tol:
            converged = True
            break
    return f, g, state[4], converged, it


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
                    cfg: SinkhornConfig = SinkhornConfig(),
                    on_cross_plan: Callable[[TransportPlan], None] | None = None
                    ) -> np.ndarray:
    """Gradient of sinkhorn_divergence with respect to the X positions.

    Envelope form: the converged plans are held fixed, so for the half-sum
    of squared distances cost the cross term contributes
    sum_j gamma_ij (x_i - y_j) and the (symmetric) self term twice that
    with Y = X.  Exact at convergence.  `on_cross_plan`, when given, is
    called with the cross term's TransportPlan, so a caller can keep its
    iteration count and convergence flag.
    """
    _, pxy = ot_epsilon(X, Y, cfg)
    if on_cross_plan is not None:
        on_cross_plan(pxy)
    _, pxx = ot_epsilon(X, X, cfg)
    P = X.points
    Q = Y.points
    gx = pxy.gamma.sum(axis=1)[:, None] * P - pxy.gamma @ Q
    gxx = 2.0 * (pxx.gamma.sum(axis=1)[:, None] * P - pxx.gamma @ P)
    return gx - 0.5 * gxx
