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

    def test_weighted_masses_used_when_enabled(self):
        pts = np.array([[0.0, 0, 0], [4.0, 0, 0]])
        X = PointCloud(pts, np.array([0.9, 0.1]))
        Y = PointCloud(pts.copy(), np.array([0.9, 0.1]))
        cfg_w = SinkhornConfig(epsilon=1e-3, reach=None, max_iters=2000,
                               tol=1e-9, use_weights=True)
        _, plan = ot_epsilon(X, Y, cfg_w)
        np.testing.assert_allclose(plan.gamma.sum(axis=1), [0.9, 0.1], atol=1e-6)

    def test_nonconvergence_flag_not_error(self):
        X, Y = clouds(2, n=6)
        cfg = SinkhornConfig(epsilon=0.01, reach=None, max_iters=1, tol=1e-12)
        cost, plan = ot_epsilon(X, Y, cfg)
        assert not plan.converged
        assert plan.iterations == 1
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
            d = transport._schur_direction(hf + ridge, hg + ridge, K, r[:n], r[n:])
        else:
            d = transport._schur_direction(hg + ridge, hf + ridge, K.T, r[n:], r[:n])
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
    """_solve against the copy above with one concatenated residual."""

    @pytest.mark.parametrize("swap", [False, True], ids=["n>=m", "n<m"])
    @pytest.mark.parametrize("cfg,converges", [
        (SinkhornConfig(epsilon=1.0, reach=None), True),
        (SinkhornConfig(epsilon=1.0, reach=10.0), True),
        (SinkhornConfig(epsilon=1.0, reach=10.0, use_weights=True), True),
        (SinkhornConfig(epsilon=1e-3, reach=None), False),
        (SinkhornConfig(epsilon=1e-3, reach=10.0), False),
    ], ids=["balanced", "relaxed", "weighted", "balanced-eps1e-3",
            "relaxed-eps1e-3"])
    def test_bitwise_equal_to_concatenated_residual(self, cfg, converges, swap):
        X, Y = chain_cloud(), target_cloud()
        if swap:
            X, Y = Y, X
        args = (X.points, transport._masses(X, cfg), Y.points,
                transport._masses(Y, cfg), cfg)
        got = transport._solve(*args)
        want = concatenated_residual_solve(*args)
        for name, x, y in zip(("f", "g", "gamma"), got[:3], want[:3]):
            assert x.tobytes() == y.tobytes(), name
        assert got[3:] == want[3:]
        assert got[3] is converges


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
        grad = divergence_grad(X, Y, cfg)
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
        grad = divergence_grad(X, Y, SinkhornConfig(epsilon=1.0, reach=10.0,
                                                    max_iters=5000, tol=1e-10))
        assert np.abs(grad).max() < 1e-5

    def test_singleton_points_along_displacement(self):
        X = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        Y = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        grad = divergence_grad(X, Y, SinkhornConfig(epsilon=0.5, reach=None))
        assert grad[0, 0] > 0.5  # pushes X toward Y under descent
        np.testing.assert_allclose(grad[0, 1:], 0.0, atol=1e-10)

    def test_shape(self):
        X, Y = clouds(30, n=4, m=7)
        assert divergence_grad(X, Y).shape == (4, 3)
