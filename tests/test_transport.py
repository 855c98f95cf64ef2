"""Entropy-regularized transport tests: cost oracles, divergence, gradients."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryoguide.forward import grid_for_model, simulate_map
from cryoguide.pointcloud import PointCloud, extract_pointcloud
from cryoguide.priors import chain_template, hinged_chain_modes
from cryoguide import transport
from cryoguide.transport import (SinkhornConfig, TransportPlan,
                                 divergence_grad, ot_epsilon,
                                 sinkhorn_divergence)

# at epsilon = 1e-3 the cross solver meets the 1e-9 marginal tolerance on
# these small clouds within a few hundred iterations; the budget is headroom,
# and the tests check the reported cost
TIGHT = SinkhornConfig(epsilon=1e-3, reach=None, max_iters=10_000, tol=1e-9)


def brute_force_balanced_cost(X, Y):
    """Unregularized balanced OT over uniform masses via assignment enumeration.

    Valid when len(X) == len(Y): the optimal coupling of two uniform discrete
    measures of equal size is a permutation (Birkhoff), so enumerate them.
    """
    n = len(X)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(0.5 * np.sum((X[i] - Y[j]) ** 2) for i, j in enumerate(perm)) / n
        best = min(best, cost)
    return best


def clouds(seed, n=4, m=None, spread=3.0):
    rng = np.random.default_rng(seed)
    m = n if m is None else m
    return (PointCloud(rng.uniform(-spread, spread, (n, 3))),
            PointCloud(rng.uniform(-spread, spread, (m, 3))))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            SinkhornConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="reach"):
            SinkhornConfig(reach=-1.0)
        with pytest.raises(ValueError, match="max_iters"):
            SinkhornConfig(max_iters=0)
        with pytest.raises(ValueError, match="^epsilon must be finite, got inf$"):
            SinkhornConfig(epsilon=np.inf)
        # an infinite tol would stop every solve after one sweep, flagged
        # converged; a negative one would run every solve to max_iters
        for tol in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^tol must be >= 0 and finite, got {tol}$"):
                SinkhornConfig(tol=tol)
        assert SinkhornConfig(tol=0.0).tol == 0.0   # exactly max_iters sweeps

    def test_balanced_flag(self):
        assert SinkhornConfig(reach=None).balanced
        assert SinkhornConfig(reach=np.inf).balanced
        assert not SinkhornConfig(reach=10.0).balanced


class TestCost:
    def test_singleton_pair_half_squared_distance(self):
        X = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        Y = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        cost, plan = ot_epsilon(X, Y, TIGHT)
        assert cost == pytest.approx(0.5, abs=1e-2)
        assert plan.converged
        np.testing.assert_allclose(plan.gamma, [[1.0]], atol=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_small_clouds_match_assignment_enumeration(self, seed):
        X, Y = clouds(seed, n=4)
        cost, _ = ot_epsilon(X, Y, TIGHT)
        want = brute_force_balanced_cost(X.points, Y.points)
        assert cost == pytest.approx(want, rel=0.01)

    def test_balanced_marginals_satisfied(self):
        X, Y = clouds(9, n=5, m=7)
        cfg = SinkhornConfig(epsilon=0.5, reach=None, tol=1e-10, max_iters=5000)
        _, plan = ot_epsilon(X, Y, cfg)
        np.testing.assert_allclose(plan.gamma.sum(axis=1), 1 / 5, atol=1e-8)
        np.testing.assert_allclose(plan.gamma.sum(axis=0), 1 / 7, atol=1e-8)

    def test_nonconvergence_flag_not_error(self):
        X, Y = clouds(2, n=6)
        cfg = SinkhornConfig(epsilon=0.01, reach=None, max_iters=1, tol=1e-12)
        cost, plan = ot_epsilon(X, Y, cfg)
        assert plan.converged is False
        assert plan.iterations == 1 and type(plan.iterations) is int
        assert np.isfinite(cost)

    def test_empty_cloud_unconstructible(self):
        # the nonempty precondition is enforced at PointCloud construction
        with pytest.raises(ValueError, match="at least one point"):
            PointCloud(np.zeros((0, 3)))

    def test_marginal_violation_decreases_with_iterations(self):
        X, Y = clouds(13, n=5, m=6)
        a = np.full(5, 1 / 5)
        viols = []
        for it in range(1, 41):
            cfg = SinkhornConfig(epsilon=1.0, reach=None, max_iters=it, tol=0.0)
            _, plan = ot_epsilon(X, Y, cfg)
            viols.append(np.max(np.abs(plan.gamma.sum(axis=1) - a)))
        diffs = np.diff(viols)
        assert np.all(diffs <= 1e-12)
        assert viols[-1] < viols[0] / 1e4

    def test_cost_is_the_broadcast_sum_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n, m = (int(v) for v in rng.integers(1, 40, 2))
            scale = 10.0 ** rng.uniform(-2, 3)
            Y = rng.normal(0, scale, (m, 3))
            for X in (rng.normal(0, scale, (n, 3)),
                      rng.normal(0, scale, (int(rng.integers(1, 8)), n, 3))):
                assert transport._cost(X, Y).tobytes() == broadcast_cost(X, Y).tobytes()

    def test_plan_fields(self):
        X, Y = clouds(4, n=3, m=5)
        _, plan = ot_epsilon(X, Y, SinkhornConfig())
        assert isinstance(plan, TransportPlan)
        assert plan.gamma.shape == (3, 5)
        assert plan.f.shape == (3,) and plan.g.shape == (5,)
        assert np.all(plan.gamma >= 0)


REACHES = [40.0, 10.0, None]


def chain_cloud():
    """The 30-bead minority mode of the demo prior, the size of a guided
    sample's self term."""
    return PointCloud(hinged_chain_modes()[1])


def self_grad(X, plan):
    """The self term's position gradient 2 (diag(gamma 1) X - gamma X)."""
    P = X.points
    return 2.0 * (plan.gamma.sum(axis=1)[:, None] * P - plan.gamma @ P)


def converged_reference(X, reach):
    """OT(X, X) from the cross-term solver, on an equal but distinct cloud."""
    cfg = SinkhornConfig(epsilon=1.0, reach=reach, max_iters=30_000, tol=1e-10)
    _, plan = ot_epsilon(X, PointCloud(X.points.copy()), cfg)
    assert plan.converged
    return plan


class TestSelfTerm:
    @pytest.mark.parametrize("reach", REACHES)
    def test_converges_in_few_iterations(self, reach):
        X = chain_cloud()
        _, plan = ot_epsilon(X, X, SinkhornConfig(epsilon=1.0, reach=reach))
        assert plan.converged
        assert plan.iterations <= 20

    @pytest.mark.parametrize("reach", REACHES)
    def test_plan_matches_alternating_solver(self, reach):
        X = chain_cloud()
        _, plan = ot_epsilon(X, X, SinkhornConfig(epsilon=1.0, reach=reach))
        ref = converged_reference(X, reach)
        np.testing.assert_allclose(plan.gamma, ref.gamma, rtol=0,
                                   atol=1e-6 * ref.gamma.max())

    def test_balanced_potentials_equal(self):
        X = chain_cloud()
        _, plan = ot_epsilon(X, X, SinkhornConfig(epsilon=1.0, reach=None))
        np.testing.assert_array_equal(plan.f, plan.g)

    @pytest.mark.parametrize("reach", REACHES)
    def test_gradient_direction_matches_converged_reference(self, reach):
        X = chain_cloud()
        _, plan = ot_epsilon(X, X, SinkhornConfig(epsilon=1.0, reach=reach))
        got = self_grad(X, plan)
        want = self_grad(X, converged_reference(X, reach))
        cos = np.sum(got * want) / (np.linalg.norm(got) * np.linalg.norm(want))
        assert cos >= 0.999

    def test_budget_exhaustion_reported(self):
        X = chain_cloud()
        cfg = SinkhornConfig(epsilon=1.0, reach=40.0, max_iters=1, tol=1e-12)
        _, plan = ot_epsilon(X, X, cfg)
        assert not plan.converged
        assert plan.iterations == 1


def target_cloud():
    """A 7-point cloud fitted to the map of the demo prior's majority mode, the
    size of a guided sample's cross term against chain_cloud()."""
    model = chain_template(hinged_chain_modes()[0])
    dmap = simulate_map(model, grid_for_model(model, voxel_size=1.0, pad=4.0),
                        resolution=2.0)
    return extract_pointcloud(dmap, 7, seed=0)


@functools.lru_cache(maxsize=None)
def alternating_reference(reach):
    """OT(chain_cloud(), target_cloud()) at epsilon = 1 from plain
    alternating log-domain Sinkhorn updates, f = -p lse(log b + g - C) and
    g = -p lse(log a + f - C) with p = rho / (rho + 1), run until the
    potentials stop moving."""
    X, Y = chain_cloud(), target_cloud()
    la = np.log(np.full((len(X), 1), 1 / len(X)))
    lb = np.log(np.full((1, len(Y)), 1 / len(Y)))
    C = 0.5 * np.sum((X.points[:, None] - Y.points[None]) ** 2, axis=2)
    p = 1.0 if reach is None else reach ** 2 / (reach ** 2 + 1.0)

    def lse(M, axis):
        top = M.max(axis=axis, keepdims=True)
        return np.squeeze(top + np.log(np.exp(M - top).sum(axis=axis,
                                                          keepdims=True)))

    f, g = np.zeros((len(X), 1)), np.zeros((1, len(Y)))
    for _ in range(100_000):
        f_new = -p * lse(lb + g - C, axis=1)[:, None]
        g_new = -p * lse(la + f_new - C, axis=0)[None, :]
        moved = max(np.abs(f_new - f).max(), np.abs(g_new - g).max())
        f, g = f_new, g_new
        if moved < 1e-12:
            break
    return np.exp(la + lb + f + g - C)


def cross_grad(X, Y, gamma):
    """The cross term's position gradient diag(gamma 1) X - gamma Y."""
    return gamma.sum(axis=1)[:, None] * X.points - gamma @ Y.points


class TestCrossTerm:
    @pytest.mark.parametrize("reach", REACHES)
    def test_converges_in_few_iterations(self, reach):
        _, plan = ot_epsilon(chain_cloud(), target_cloud(),
                             SinkhornConfig(epsilon=1.0, reach=reach))
        assert plan.converged
        assert plan.iterations <= 60

    def test_stretched_balanced_target_converges(self):
        # a target twice the chain's size leaves groups of points that barely
        # exchange mass, so the balanced Newton direction is very long there;
        # capping the first trial step keeps it from stalling in halvings
        Y = PointCloud(2.0 * target_cloud().points)
        _, plan = ot_epsilon(chain_cloud(), Y,
                             SinkhornConfig(epsilon=1.0, reach=None))
        assert plan.converged
        assert plan.iterations <= 100

    @pytest.mark.parametrize("reach", REACHES)
    def test_plan_matches_alternating_reference(self, reach):
        X, Y = chain_cloud(), target_cloud()
        cfg = SinkhornConfig(epsilon=1.0, reach=reach, tol=1e-9)
        _, plan = ot_epsilon(X, Y, cfg)
        ref = alternating_reference(reach)
        np.testing.assert_allclose(plan.gamma, ref, rtol=0,
                                   atol=1e-6 * ref.max())

    @pytest.mark.parametrize("reach", REACHES)
    def test_gradient_direction_matches_reference(self, reach):
        X, Y = chain_cloud(), target_cloud()
        _, plan = ot_epsilon(X, Y, SinkhornConfig(epsilon=1.0, reach=reach))
        got = cross_grad(X, Y, plan.gamma)
        want = cross_grad(X, Y, alternating_reference(reach))
        cos = np.sum(got * want) / (np.linalg.norm(got) * np.linalg.norm(want))
        assert cos >= 0.999

    @pytest.mark.parametrize("reach", [None, 10.0])
    def test_underflowed_plan_stays_finite(self, reach):
        # at epsilon = 1e-3 most plan entries underflow to exactly zero, which
        # splits the coupling into separate groups of points and leaves the
        # Newton system singular without its ridge
        X, Y = chain_cloud(), target_cloud()
        _, warm = ot_epsilon(X, Y, SinkhornConfig(epsilon=1e-3, reach=reach,
                                                  max_iters=3))
        assert np.count_nonzero(warm.gamma == 0) > warm.gamma.size // 2
        cost, plan = ot_epsilon(X, Y, SinkhornConfig(epsilon=1e-3, reach=reach))
        assert np.isfinite(cost)
        assert np.all(np.isfinite(plan.gamma))


def concatenated_residual_solve(X, a, Y, b, cfg):
    """transport._solve as it was written with one concatenated residual r,
    kept to pin the solver's bookkeeping: same arithmetic, same path."""
    eps = cfg.epsilon
    balanced = cfg.balanced
    rho = None if balanced else cfg.reach ** 2
    C = transport._cost(X, Y)
    with np.errstate(divide="ignore"):
        la = np.log(a)[:, None]
        lb = np.log(b)[None, :]
    damp = transport._damp(cfg)
    n, m = C.shape
    fk = lb - C / eps
    gk = la - C / eps
    pk = la + lb - C / eps

    def point(f, g):
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = np.exp(pk + (f[:, None] + g[None, :]) / eps)
            if balanced:
                ua, ub = a, b
                value = a @ f + b @ g - eps * gamma.sum()
            else:
                ua = a * np.exp(-f / rho)
                ub = b * np.exp(-g / rho)
                value = -rho * (ua.sum() + ub.sum()) - eps * gamma.sum()
            r = np.concatenate([ua - gamma.sum(axis=1), ub - gamma.sum(axis=0)])
        return value, r, gamma, ua, ub

    def newton(f, g, value, r, gamma, ua, ub):
        K = gamma / eps
        hf, hg = K.sum(axis=1), K.sum(axis=0)
        if not balanced:
            hf = hf + ua / rho
            hg = hg + ub / rho
        ridge = transport._RIDGE * max(hf.max(), hg.max())
        if n >= m:
            d = single_schur_direction(hf + ridge, hg + ridge, K, r[:n], r[n:])
        else:
            d = single_schur_direction(hg + ridge, hf + ridge, K.T, r[n:], r[:n])
            d = None if d is None else d[::-1]
        if d is None:
            return None
        df, dg = d
        slope = r[:n] @ df + r[n:] @ dg
        res = np.max(np.abs(r))
        move = max(np.abs(df).max(), np.abs(dg).max())
        cap = transport._MAX_MOVE * eps
        t = 1.0 if move <= cap else cap / move
        for _ in range(transport._MAX_HALVINGS):
            ft, gt = f + t * df, g + t * dg
            trial = point(ft, gt)
            if np.isfinite(trial[0]) and np.all(np.isfinite(trial[1])) and (
                    trial[0] >= value + transport._ARMIJO * t * slope
                    or np.max(np.abs(trial[1])) < res):
                return ft, gt, trial
            t *= 0.5
        return None

    f = np.zeros(n)
    g = np.zeros(m)
    state = None
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        step = newton(f, g, *state) if it > transport._WARMUP_SWEEPS else None
        if step is None:
            f = -damp * eps * transport._lse(fk + g[None, :] / eps, axis=1)
            g = -damp * eps * transport._lse(gk + f[:, None] / eps, axis=0)
            state = point(f, g)
        else:
            f, g, state = step
        if np.max(np.abs(state[1])) < cfg.tol:
            converged = True
            break
    return f, g, state[2], converged, it


class TestCrossSolverBookkeeping:
    """_solve on a stack of one against the copy above with one concatenated
    residual; the weighted case passes the clouds' intensity weights as
    masses."""

    @pytest.mark.parametrize("swap", [False, True], ids=["n>=m", "n<m"])
    @pytest.mark.parametrize("cfg,weighted,converges", [
        (SinkhornConfig(epsilon=1.0, reach=None), False, True),
        (SinkhornConfig(epsilon=1.0, reach=10.0), False, True),
        (SinkhornConfig(epsilon=1.0, reach=10.0), True, True),
        (SinkhornConfig(epsilon=1e-3, reach=None), False, False),
        (SinkhornConfig(epsilon=1e-3, reach=10.0), False, False),
    ], ids=["balanced", "relaxed", "weighted", "balanced-eps1e-3",
            "relaxed-eps1e-3"])
    def test_bitwise_equal_to_concatenated_residual(self, cfg, weighted, converges, swap):
        X, Y = chain_cloud(), target_cloud()
        if swap:
            X, Y = Y, X
        if weighted:
            a, b = X.weights, Y.weights
        else:
            a, b = transport._masses(X), transport._masses(Y)
        got = transport._solve(X.points[None], a[None], Y.points, b, cfg)
        want = concatenated_residual_solve(X.points, a, Y.points, b, cfg)
        for name, x, y in zip(("f", "g", "gamma"), got[:3], want[:3]):
            assert x[0].tobytes() == y.tobytes(), name
        assert (bool(got[3][0]), int(got[4][0])) == want[3:]
        assert want[3] is converges


def broadcast_cost(X, Y):
    """transport._cost as it was written, through an (..., N, M, 3) temporary."""
    return 0.5 * np.sum((X[..., :, None, :] - Y) ** 2, axis=-1)


def single_schur_direction(d_big, d_small, K, r_big, r_small):
    """transport._schur_direction as it was written for one sample."""
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


def single_solve(X, a, Y, b, cfg, log=None):
    """transport._solve as it was written for one cloud X (N, 3), the oracle
    of the stacked solve; `log`, when given, counts its step halvings and
    the Newton steps it replaced by a sweep."""
    log = {} if log is None else log
    log.setdefault("halvings", 0)
    log.setdefault("fallbacks", 0)
    eps = cfg.epsilon
    balanced = cfg.balanced
    rho = None if balanced else cfg.reach ** 2
    C = broadcast_cost(X, Y)
    with np.errstate(divide="ignore"):
        la = np.log(a)[:, None]
        lb = np.log(b)[None, :]
    damp = transport._damp(cfg)
    n, m = C.shape
    fk = lb - C / eps
    gk = la - C / eps
    pk = la + lb - C / eps

    def point(f, g):
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
        res = np.maximum(np.abs(rf).max(), np.abs(rg).max())
        return value, rf, rg, res, gamma, ua, ub

    def newton(f, g, value, rf, rg, res, gamma, ua, ub):
        K = gamma / eps
        hf, hg = K.sum(axis=1), K.sum(axis=0)
        if not balanced:
            hf = hf + ua / rho
            hg = hg + ub / rho
        ridge = transport._RIDGE * max(hf.max(), hg.max())
        if n >= m:
            d = single_schur_direction(hf + ridge, hg + ridge, K, rf, rg)
        else:
            d = single_schur_direction(hg + ridge, hf + ridge, K.T, rg, rf)
            d = None if d is None else d[::-1]
        if d is None:
            return None
        df, dg = d
        slope = rf @ df + rg @ dg
        move = max(np.abs(df).max(), np.abs(dg).max())
        cap = transport._MAX_MOVE * eps
        t = 1.0 if move <= cap else cap / move
        for _ in range(transport._MAX_HALVINGS):
            ft, gt = f + t * df, g + t * dg
            trial = point(ft, gt)
            value_t, res_t = trial[0], trial[3]
            if np.isfinite(value_t) and np.isfinite(res_t) and (
                    value_t >= value + transport._ARMIJO * t * slope or res_t < res):
                return ft, gt, trial
            t *= 0.5
            log["halvings"] += 1
        return None

    f = np.zeros(n)
    g = np.zeros(m)
    state = None
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        step = newton(f, g, *state) if it > transport._WARMUP_SWEEPS else None
        if step is None:
            log["fallbacks"] += it > transport._WARMUP_SWEEPS
            f = -damp * eps * transport._lse(fk + g[None, :] / eps, axis=1)
            g = -damp * eps * transport._lse(gk + f[:, None] / eps, axis=0)
            state = point(f, g)
        else:
            f, g, state = step
        if state[3] < cfg.tol:
            converged = True
            break
    return f, g, state[4], converged, it


def stacked_case(seed, size, n=None, m=None):
    """`size` clouds of one size, jittered copies of one random cloud as a
    replicate's samples are, random masses, and one random target."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 40))
    m = m or int(rng.integers(1, 12))
    base = rng.uniform(-3, 3, (n, 3))
    X = base + rng.normal(0, rng.uniform(0.1, 2.0), (size, n, 3))
    a = rng.uniform(0.2, 1.0, (size, n))
    b = rng.uniform(0.2, 1.0, m)
    return X, a / a.sum(axis=1, keepdims=True), rng.uniform(-3, 3, (m, 3)), b / b.sum()


def assert_rows_match_alone(X, a, Y, b, cfg, logs=None):
    """Each row of the stacked solve is bitwise the row solved alone."""
    got = transport._solve(X, a, Y, b, cfg)
    assert got[0].shape == (len(X), X.shape[1]) and got[2].shape == (len(X), X.shape[1], len(Y))
    for k in range(len(X)):
        log = {}
        want = single_solve(X[k], a[k], Y, b, cfg, log)
        for name, x, y in zip(("f", "g", "gamma"), got[:3], want[:3]):
            assert x[k].tobytes() == y.tobytes(), (name, k)
        assert (bool(got[3][k]), int(got[4][k])) == want[3:], k
        if logs is not None:
            logs.append((log, want[3:]))
    return got


STACK_CONFIGS = [
    SinkhornConfig(epsilon=1.0, reach=None),
    SinkhornConfig(epsilon=1.0, reach=10.0),
    SinkhornConfig(epsilon=0.3, reach=40.0),
    SinkhornConfig(epsilon=0.5, reach=None, tol=1e-10),
]


class TestStackedCrossSolve:
    """The stacked cross solve against single_solve, one row at a time."""

    @pytest.mark.parametrize("cfg", STACK_CONFIGS, ids=["balanced", "relaxed",
                                                       "weighted", "tight"])
    def test_rows_match_solving_alone(self, cfg):
        logs = []
        for seed in range(40):
            assert_rows_match_alone(*stacked_case(seed, 1 + seed % 7), cfg, logs)
        # the cases cover rows that stop at different iterations within one
        # stack, line searches that halve, and every row converged
        assert len({it for _, (_, it) in logs}) > 5
        assert sum(log["halvings"] for log, _ in logs) > 0
        assert all(conv for _, (conv, _) in logs)

    @pytest.mark.parametrize("reach", [None, 10.0])
    def test_unconverged_rows(self, reach):
        # the 30-bead chain against the 7-point cloud at epsilon = 1e-3 does
        # not converge (see CHANGES.md); jittered copies make a stack of three
        rng = np.random.default_rng(5)
        X = chain_cloud().points + rng.normal(0, 0.05, (3, 30, 3))
        a = np.full((3, 30), 1 / 30)
        Y = target_cloud()
        cfg = SinkhornConfig(epsilon=1e-3, reach=reach, max_iters=80)
        got = assert_rows_match_alone(X, a, Y.points, Y.weights, cfg)
        assert not got[3].any() and (got[4] == 80).all()

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 4])
    def test_warm_up_sweeps_only(self, max_iters):
        cfg = SinkhornConfig(epsilon=0.5, reach=10.0, max_iters=max_iters, tol=1e-12)
        for seed in range(6):
            got = assert_rows_match_alone(*stacked_case(seed, 1 + seed), cfg)
            assert (got[4] == max_iters).all()

    def test_singular_schur_matrix_fails_its_row_alone(self, monkeypatch):
        """A stacked np.linalg.solve raises for the whole stack when one matrix
        is singular; only that row may fall back to a sweep."""
        X, a, Y, b = stacked_case(3, 5, n=9, m=6)
        cfg = SinkhornConfig(epsilon=1.0, reach=None)
        real = np.linalg.solve
        seen = []

        def recording(S, r):
            seen.append(S.copy())
            return real(S, r)

        monkeypatch.setattr(np.linalg, "solve", recording)
        single_solve(X[2], a[2], Y, b, cfg)
        singular = seen[1]    # the matrix of row 2's second Newton step

        def failing(S, r):
            if any(np.array_equal(s, singular) for s in S.reshape(-1, *singular.shape)):
                raise np.linalg.LinAlgError("Singular matrix")
            return real(S, r)

        monkeypatch.setattr(np.linalg, "solve", failing)
        logs = []
        assert_rows_match_alone(X, a, Y, b, cfg, logs)
        assert [log["fallbacks"] for log, _ in logs] == [0, 0, 1, 0, 0]


class TestDivergence:
    def test_self_divergence_vanishes(self):
        for seed in range(5):
            X, _ = clouds(seed, n=6)
            assert abs(sinkhorn_divergence(X, X)) < 1e-6

    def test_symmetry_balanced(self):
        cfg = SinkhornConfig(epsilon=1.0, reach=None, max_iters=5000, tol=1e-9)
        for seed in range(3):
            X, Y = clouds(seed, n=5, m=5)
            dxy = sinkhorn_divergence(X, Y, cfg)
            dyx = sinkhorn_divergence(Y, X, cfg)
            assert dxy == pytest.approx(dyx, abs=1e-8)

    def test_grows_with_separation(self):
        X, _ = clouds(7, n=6)
        cfg = SinkhornConfig(epsilon=1.0, reach=10.0)
        prev = -np.inf
        for shift in (0.5, 1.0, 2.0, 4.0):
            Y = PointCloud(X.points + np.array([shift, 0.0, 0.0]))
            d = sinkhorn_divergence(X, Y, cfg)
            assert d > prev
            prev = d

    def test_singleton_separation_ordering_balanced(self):
        X = PointCloud(np.zeros((1, 3)))
        cfg = SinkhornConfig(epsilon=1.0, reach=None)
        d1 = sinkhorn_divergence(X, PointCloud(np.array([[1.0, 0, 0]])), cfg)
        d2 = sinkhorn_divergence(X, PointCloud(np.array([[2.0, 0, 0]])), cfg)
        assert d2 > d1 > 0
        # singleton self-terms vanish, so D equals the forced-plan cost
        assert d1 == pytest.approx(0.5, abs=1e-9)
        assert d2 == pytest.approx(2.0, abs=1e-9)

    def test_unbalanced_saturates_beyond_reach(self):
        # balanced cost grows quadratically without bound; with finite reach
        # the penalty for unmatched mass caps the divergence
        X = PointCloud(np.zeros((1, 3)))
        cfg = SinkhornConfig(epsilon=1.0, reach=5.0, max_iters=5000)
        d_near = sinkhorn_divergence(X, PointCloud(np.array([[10.0, 0, 0]])), cfg)
        d_far = sinkhorn_divergence(X, PointCloud(np.array([[100.0, 0, 0]])), cfg)
        assert d_far < 100 * d_near  # nowhere near the 100x of quadratic growth
        assert d_far < 2.0 * (5.0 ** 2 + 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6),
           st.booleans())
    def test_nonnegative_and_finite(self, seed, n, m, unbalanced):
        rng = np.random.default_rng(seed)
        X = PointCloud(rng.normal(0, 2, (n, 3)))
        Y = PointCloud(rng.normal(0, 2, (m, 3)))
        cfg = SinkhornConfig(epsilon=1.0, reach=10.0 if unbalanced else None,
                             max_iters=2000, tol=1e-8)
        d = sinkhorn_divergence(X, Y, cfg)
        assert np.isfinite(d)
        assert d > -1e-7


class TestGradient:
    @pytest.mark.parametrize("reach", [None, 10.0])
    def test_matches_finite_differences(self, reach):
        rng = np.random.default_rng(17)
        X = PointCloud(rng.uniform(-3, 3, (5, 3)))
        Y = PointCloud(rng.uniform(-3, 3, (7, 3)))
        cfg = SinkhornConfig(epsilon=0.5, reach=reach, max_iters=10_000, tol=1e-10)
        [grad] = divergence_grad([X], Y, cfg)
        h = 1e-4
        fd = np.zeros_like(grad)
        for i in range(len(X)):
            for ax in range(3):
                for sgn, _ in ((1.0, 0), (-1.0, 1)):
                    pts = X.points.copy()
                    pts[i, ax] += sgn * h
                    val = sinkhorn_divergence(PointCloud(pts, X.weights), Y, cfg)
                    fd[i, ax] += sgn * val / (2 * h)
        scale = max(np.abs(fd).max(), 1e-12)
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-3 * scale)

    def test_zero_at_coincident_clouds(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-3, 3, (6, 3))
        X = PointCloud(pts)
        Y = PointCloud(pts.copy())
        [grad] = divergence_grad([X], Y, SinkhornConfig(epsilon=1.0, reach=10.0,
                                                        max_iters=5000, tol=1e-10))
        assert np.abs(grad).max() < 1e-5

    def test_singleton_points_along_displacement(self):
        X = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        Y = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        [grad] = divergence_grad([X], Y, SinkhornConfig(epsilon=0.5, reach=None))
        assert grad[0, 0] > 0.5  # pushes X toward Y under descent
        np.testing.assert_allclose(grad[0, 1:], 0.0, atol=1e-10)

    def test_shape(self):
        X, Y = clouds(30, n=4, m=7)
        assert [g.shape for g in divergence_grad([X, X], Y)] == [(4, 3), (4, 3)]

    def test_each_cloud_of_a_stack_as_alone(self):
        rng = np.random.default_rng(31)
        Xs = [PointCloud(rng.uniform(-3, 3, (5, 3))) for _ in range(4)]
        Y = PointCloud(rng.uniform(-3, 3, (7, 3)))
        stacked_plans = []
        grads = divergence_grad(Xs, Y, on_plans=lambda *p: stacked_plans.append(p))
        for X, grad, plans in zip(Xs, grads, stacked_plans):
            alone_plans = []
            [alone] = divergence_grad([X], Y, on_plans=lambda *p: alone_plans.append(p))
            assert np.array_equal(grad, alone)
            for got, want in zip(plans, alone_plans[0]):
                assert np.array_equal(got.gamma, want.gamma)
                assert (got.iterations, got.converged) == (want.iterations, want.converged)
