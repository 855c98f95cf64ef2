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
from collections.abc import Callable, Sequence
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

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if math.isinf(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.reach is not None and not self.reach > 0:
            raise ValueError(f"reach must be positive or None, got {self.reach}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        # tol = 0 runs exactly max_iters sweeps
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")

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


def _masses(cloud: PointCloud) -> np.ndarray:
    """Uniform masses: guidance matches positions, not map intensities."""
    n = len(cloud)
    return np.full(n, 1.0 / n)


# The solvers' loops reduce small arrays with the ufuncs' own reduce: the
# ndarray methods and np.sum/np.max add a Python layer that costs about a
# microsecond a call here, for the same bits.
_sum = np.add.reduce
_max = np.maximum.reduce


def _rowdot(x, y):
    """Dot product of each row of x with the same row of y (either may be
    one vector for all rows): a stacked (1, n) @ (n, 1) product, which
    takes the bits of x[k] @ y[k] alone, where (B, n) @ y need not."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _lse(M, axis):
    """logsumexp with max-subtraction; tolerates -inf entries (zero masses).
    Call it with divide-by-zero warnings off."""
    m = _max(M, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis=axis) + np.log(_sum(np.exp(M - m), axis=axis))


def _cost(X, Y):
    """Half squared distances, the cost whose gradient divergence_grad takes:
    (N, M) for one cloud X (N, 3), (B, N, M) for a stack X (B, N, 3).

    The axes are added in place in the order x, y, z, as np.sum over a
    length-3 axis takes them (the rule of pointcloud._assign), so the bits
    are those of the broadcast form without its (..., N, M, 3) temporary.
    """
    d = (X[..., 0, None] - Y[:, 0]) ** 2
    d += (X[..., 1, None] - Y[:, 1]) ** 2
    d += (X[..., 2, None] - Y[:, 2]) ** 2
    d *= 0.5
    return d


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
    for each row of a stack by eliminating the diagonal block: one dense
    solve on the small side per row.

    Returns u, v and the rows whose direction is not finite, whose u and v
    are zero.  A singular matrix fails its row alone.  Call it with divide,
    overflow and invalid-value warnings off.
    """
    rows, k = d_small.shape
    Kd = K / d_big[:, :, None]
    S = np.zeros((rows, k, k))
    S.reshape(rows, k * k)[:, ::k + 1] = d_small
    S -= K.transpose(0, 2, 1) @ Kd
    rhs = r_small - (r_big[:, None, :] @ Kd)[:, 0]
    try:
        v = np.linalg.solve(S, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:   # raised for the whole stack
        v = np.full((rows, k), np.nan)
        for i in range(rows):
            try:
                v[i] = np.linalg.solve(S[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    u = (r_big - (K @ v[:, :, None])[:, :, 0]) / d_big
    if np.isfinite(u).all() and np.isfinite(v).all():
        return u, v, []
    bad = ~(np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1))
    u[bad] = 0.0
    v[bad] = 0.0
    return u, v, np.flatnonzero(bad).tolist()


def _solve(X, a, Y, b, cfg: SinkhornConfig):
    """OT(X, Y): alternating warm-up sweeps, then damped Newton steps on the
    concave dual; a step that fails is replaced by one sweep.

    X is a stack of clouds (B, N, 3) with masses a (B, N), each against the
    cloud Y (M, 3) with masses b (M,).  Returns f (B, N), g (B, M), gamma
    (B, N, M) and per-row converged flags and iteration counts.  Every row
    takes its own sweeps, Newton steps, step halvings and stop, and leaves
    the stack when it converges, so its result is bitwise that of its cloud
    solved alone.

    The dual's gradient is the marginal residual (a e^{-f/rho} - gamma 1,
    b e^{-g/rho} - gamma^T 1), with a and b in place of the exponentials
    when balanced, and the solve converges when its largest entry is below
    `tol`.  The Hessian's f- and g-blocks are diagonal, so each step is one
    Schur-complement solve on the smaller cloud.  A small ridge keeps that
    solve regular where the balanced gauge (f + c, g - c) or an underflowed
    coupling between groups of points leaves the Hessian singular; the
    resulting long steps are capped at `_MAX_MOVE * eps` and then halved
    until the dual rises enough (Armijo) or the residual falls.  The solve
    runs with overflow warnings off: a trial point that overflows is
    rejected, a direction that is not finite gives a sweep, and a sweep
    that overflows leaves a residual that never meets `tol`.
    """
    eps = cfg.epsilon
    balanced = cfg.balanced
    rho = None if balanced else cfg.reach ** 2
    C = _cost(X, Y)
    with np.errstate(divide="ignore"):
        la = np.log(a)[:, :, None]
        lb = np.log(b)
    damp = _damp(cfg)
    B, n, m = C.shape

    # g-independent / f-independent parts of the update arguments
    Ce = C / eps
    fk = lb - Ce
    gk = la - Ce
    pk = la + lb - Ce   # log-plan = pk + f/eps + g/eps

    def point(f, g, rows=None):
        """Dual value (up to a constant), the f and g halves of the marginal
        residual and its largest magnitude, plan and relaxed marginals
        (None when balanced) at (f, g) for all rows or the given ones;
        overflow gives a non-finite value or residual."""
        ar, pkr = (a, pk) if rows is None else (a[rows], pk[rows])
        gamma = np.exp(pkr + (f[:, :, None] + g[:, None, :]) / eps)
        if balanced:
            ua = ub = None
            value = _rowdot(ar, f) + _rowdot(b, g) - eps * _sum(gamma, axis=(1, 2))
            rf = ar - _sum(gamma, axis=2)
            rg = b - _sum(gamma, axis=1)
        else:
            ua = ar * np.exp(-f / rho)
            ub = b * np.exp(-g / rho)
            value = (-rho * (_sum(ua, axis=1) + _sum(ub, axis=1))
                     - eps * _sum(gamma, axis=(1, 2)))
            rf = ua - _sum(gamma, axis=2)
            rg = ub - _sum(gamma, axis=1)
        # np.maximum, not max: a NaN in either half must carry through
        res = np.maximum(_max(np.abs(rf), axis=1), _max(np.abs(rg), axis=1))
        return value, rf, rg, res, gamma, ua, ub

    def newton(f, g, value, rf, rg, res, gamma, ua, ub):
        """One damped Newton step per row: the new (f, g), their point and
        the rows that did not take it, which need a sweep."""
        K = gamma / eps
        hf, hg = _sum(K, axis=2), _sum(K, axis=1)
        if not balanced:
            hf = hf + ua / rho
            hg = hg + ub / rho
        ridge = (_RIDGE * np.maximum(_max(hf, axis=1), _max(hg, axis=1)))[:, None]
        if n >= m:
            df, dg, failed = _schur_direction(hf + ridge, hg + ridge, K, rf, rg)
        else:
            dg, df, failed = _schur_direction(hg + ridge, hf + ridge, K.transpose(0, 2, 1),
                                              rg, rf)
        slope = (_rowdot(rf, df) + _rowdot(rg, dg)).tolist()
        move = np.maximum(_max(np.abs(df), axis=1), _max(np.abs(dg), axis=1)).tolist()
        cap = _MAX_MOVE * eps
        t = [1.0 if mv <= cap else cap / mv for mv in move]
        value, res = value.tolist(), res.tolist()
        searching = [i for i in range(len(f)) if i not in failed]
        # each trial evaluates every row, an accepted one at its accepted
        # step, so the last trial holds every accepted point
        for _ in range(_MAX_HALVINGS):
            tc = np.array(t)[:, None]
            ft, gt = f + tc * df, g + tc * dg
            trial = point(ft, gt)
            value_t, res_t = trial[0].tolist(), trial[3].tolist()
            # the residual test accepts steps whose rise in the dual is
            # below float resolution at tight tolerances
            searching = [i for i in searching if not (
                math.isfinite(value_t[i]) and math.isfinite(res_t[i]) and (
                    value_t[i] >= value[i] + _ARMIJO * t[i] * slope[i]
                    or res_t[i] < res[i]))]
            if not searching:
                break
            for i in searching:
                t[i] *= 0.5
        return ft, gt, trial, sorted(failed + searching)

    live = np.arange(B)   # the samples that the rows below hold
    finished = []         # (samples, f, g, gamma, converged, iterations)
    f = np.zeros((B, n))
    g = np.zeros((B, m))
    state = None   # point(f, g)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, cfg.max_iters + 1):
            sweep = None   # the rows that take a sweep: None for all
            if it > _WARMUP_SWEEPS:
                ft, gt, trial, sweep = newton(f, g, *state)
                if not sweep:
                    f, g, state = ft, gt, trial
                else:
                    took = np.ones(len(f), dtype=bool)
                    took[sweep] = False
                    f, g = np.where(took[:, None], ft, f), np.where(took[:, None], gt, g)
                    state = [None if x is None else
                             np.where(took.reshape(-1, *[1] * (x.ndim - 1)), x, y)
                             for x, y in zip(trial, state)]
            if sweep is None or sweep:
                rows = slice(None) if sweep is None else sweep
                fs = -damp * eps * _lse(fk[rows] + g[rows][:, None, :] / eps, axis=2)
                gs = -damp * eps * _lse(gk[rows] + fs[:, :, None] / eps, axis=1)
                swept = point(fs, gs, sweep)
                if sweep is None:
                    f, g, state = fs, gs, swept
                else:
                    f[sweep], g[sweep] = fs, gs
                    for x, y in zip(state, swept):
                        if x is not None:
                            x[sweep] = y
            done = [r < cfg.tol for r in state[3].tolist()]
            if all(done):
                finished.append((live, f, g, state[4], True, it))
                break
            if any(done):
                done = np.array(done)
                finished.append((live[done], f[done], g[done], state[4][done], True, it))
                keep = ~done
                live, f, g, fk, gk, pk, a = (x[keep] for x in (live, f, g, fk, gk, pk, a))
                state = [None if x is None else x[keep] for x in state]
        else:
            finished.append((live, f, g, state[4], False, cfg.max_iters))

    if len(finished) == 1:   # every row stopped together
        _, f, g, gamma, conv, it = finished[0]
        return f, g, gamma, np.full(B, conv), np.full(B, it)
    f, g, gamma = np.empty((B, n)), np.empty((B, m)), np.empty((B, n, m))
    converged, iterations = np.empty(B, dtype=bool), np.empty(B, dtype=int)
    for rows, *parts in finished:
        f[rows], g[rows], gamma[rows], converged[rows], iterations[rows] = parts
    return f, g, gamma, converged, iterations


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
    with np.errstate(divide="ignore"):
        for it in range(1, cfg.max_iters + 1):
            f_new = 0.5 * (f - damp * eps * _lse(fk + f[None, :] / eps, axis=1))
            err = _max(np.abs(f_new - f))
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
    a = _masses(X)
    if Y is X:
        f, gamma, converged, it = _solve_self(X.points, a, cfg)
        g, b = f, a
    else:
        b = _masses(Y)
        F, G, gammas, conv, its = _solve(X.points[None], a[None], Y.points, b, cfg)
        f, g, gamma, converged, it = F[0], G[0], gammas[0], bool(conv[0]), int(its[0])
    cost = _dual_value(a, f, b, g, cfg)
    return cost, TransportPlan(gamma=gamma, f=f, g=g, converged=converged, iterations=it)


def sinkhorn_divergence(X: PointCloud, Y: PointCloud,
                        cfg: SinkhornConfig = SinkhornConfig()) -> float:
    """Debiased transport divergence D(X,Y) = OT(X,Y) - OT(X,X)/2 - OT(Y,Y)/2."""
    cxy, _ = ot_epsilon(X, Y, cfg)
    cxx, _ = ot_epsilon(X, X, cfg)
    cyy, _ = ot_epsilon(Y, Y, cfg)
    return cxy - 0.5 * cxx - 0.5 * cyy


def divergence_grad(X: Sequence[PointCloud], Y: PointCloud,
                    cfg: SinkhornConfig = SinkhornConfig(),
                    on_plans: Callable[[TransportPlan, TransportPlan], None] | None = None
                    ) -> list[np.ndarray]:
    """Gradient of sinkhorn_divergence with respect to the positions of each
    cloud of X, a sequence of clouds of one size.

    Envelope form: the converged plans are held fixed, so for the half-sum
    of squared distances cost the cross term contributes
    sum_j gamma_ij (x_i - y_j) and the (symmetric) self term twice that
    with Y = X.  Exact at convergence.

    The cross terms against Y are solved as one stack, each bitwise its own
    solve, and the self terms one cloud at a time.  `on_plans`, when given,
    is called with each cloud's cross-term and self-term TransportPlans in
    order, so a caller can keep their iteration counts and convergence
    flags.
    """
    Q = Y.points
    F, G, gammas, converged, iterations = _solve(
        np.stack([c.points for c in X]), np.stack([_masses(c) for c in X]),
        Q, _masses(Y), cfg)
    grads = []
    for k, c in enumerate(X):
        gamma = gammas[k]
        _, pxx = ot_epsilon(c, c, cfg)
        if on_plans is not None:
            on_plans(TransportPlan(gamma=gamma, f=F[k], g=G[k], converged=bool(converged[k]),
                                   iterations=int(iterations[k])), pxx)
        P = c.points
        gx = gamma.sum(axis=1)[:, None] * P - gamma @ Q
        gxx = 2.0 * (pxx.gamma.sum(axis=1)[:, None] * P - pxx.gamma @ P)
        grads.append(gx - 0.5 * gxx)
    return grads
