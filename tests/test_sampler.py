"""Sampling engine tests: schedules, analytic priors, guidance plumbing."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from cryoguide import sampler as sampler_module
from cryoguide.forward import grid_for_model, simulate_map
from cryoguide.pointcloud import extract_pointcloud
from cryoguide.priors import chain_template, two_mode_chain_prior
from cryoguide.sampler import (GaussianMixturePrior, GuidanceContext,
                               GuidanceSchedule, NoiseSchedule, SampleStats,
                               SamplingError, ScoreModel,
                               gaussian_posterior_guidance, gradient_normalize,
                               lambda_global, make_schedule, sample_guided,
                               sample_unguided, sample_with_guide,
                               tweedie_estimate, _logsumexp)
from cryoguide import transport as transport_module
from cryoguide.transport import SinkhornConfig


class CountingModel(ScoreModel):
    def __init__(self, inner):
        self.inner = inner
        self.n_atoms = inner.n_atoms
        self.calls = 0

    def score(self, x, sigma):
        self.calls += 1
        return self.inner.score(x, sigma)


class NanModel(ScoreModel):
    n_atoms = 1

    def score(self, x, sigma):
        return np.full(3, np.nan)


class TestNoiseSchedule:
    def test_sigma_ladder_shape(self):
        sched = NoiseSchedule(sigma_min=0.01, sigma_max=80.0, n_steps=50)
        s = sched.sigmas()
        assert len(s) == 51
        assert s[0] == pytest.approx(80.0)
        assert s[-2] == pytest.approx(0.01)
        assert s[-1] == 0.0
        assert np.all(np.diff(s) < 0)

    def test_interpolation_oracle(self):
        # level i interpolates sigma^(1/rho) linearly between the endpoints
        sched = NoiseSchedule(sigma_min=0.004, sigma_max=160.0, rho=7.0,
                              n_steps=200)
        s = sched.sigmas()
        i = 77
        u = 160.0 ** (1 / 7) + i / 199 * (0.004 ** (1 / 7) - 160.0 ** (1 / 7))
        assert s[i] == pytest.approx(u ** 7, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma_min"):
            NoiseSchedule(sigma_min=2.0, sigma_max=1.0)
        with pytest.raises(ValueError, match="n_steps"):
            NoiseSchedule(n_steps=1)
        with pytest.raises(ValueError, match="rho"):
            NoiseSchedule(rho=0.0)
        with pytest.raises(ValueError, match="churn"):
            NoiseSchedule(churn=-0.1)
        for name in ("sigma_max", "rho", "churn"):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
                NoiseSchedule(**{name: np.inf})
        for floor in (np.inf, -0.1, np.nan):
            with pytest.raises(ValueError, match="^churn_floor must be >= 0 and finite"):
                NoiseSchedule(churn=0.4, churn_floor=floor)
        assert NoiseSchedule(churn=0.4, churn_floor=0.0).churn_floor == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1e-3, 1.0), st.floats(2.0, 500.0), st.floats(1.0, 10.0),
           st.integers(2, 300))
    def test_monotone_for_valid_params(self, smin, smax, rho, n):
        s = NoiseSchedule(sigma_min=smin, sigma_max=smax, rho=rho,
                          n_steps=n).sigmas()
        assert np.all(np.diff(s) < 0)
        assert np.all(np.isfinite(s))


class TestGaussianMixturePrior:
    def test_single_mode_score_closed_form(self):
        mu = np.array([1.0, -2.0, 0.5])
        prior = GaussianMixturePrior([(mu, 0.7, 1.0)])
        x = np.array([0.3, 0.4, -1.0])
        sigma = 2.0
        want = (mu - x) / (0.7 ** 2 + sigma ** 2)
        np.testing.assert_allclose(prior.score(x, sigma), want, rtol=1e-12)

    def test_two_mode_score_matches_softmax_formula(self):
        m0 = np.zeros(6)
        m1 = np.full(6, 3.0)
        prior = GaussianMixturePrior([(m0, 1.0, 0.75), (m1, 0.5, 0.25)])
        x = np.linspace(-1, 2, 6)
        sigma = 0.8
        s2 = np.array([1.0, 0.25]) + sigma ** 2
        logp = (np.log([0.75, 0.25])
                - 0.5 * np.array([np.sum((x - m0) ** 2), np.sum((x - m1) ** 2)]) / s2
                - 0.5 * 6 * np.log(s2))
        r = np.exp(logp - logp.max())
        r /= r.sum()
        want = r[0] * (m0 - x) / s2[0] + r[1] * (m1 - x) / s2[1]
        np.testing.assert_allclose(prior.score(x, sigma), want, rtol=1e-10)

    def test_weights_normalized_and_mode_coords(self):
        prior = GaussianMixturePrior([(np.zeros(6), 1.0, 19.0),
                                      (np.ones(6), 1.0, 1.0)])
        np.testing.assert_allclose(prior.weights, [0.95, 0.05])
        assert prior.mode_coords(1).shape == (2, 3)
        assert prior.n_atoms == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            GaussianMixturePrior([])
        with pytest.raises(ValueError, match="std"):
            GaussianMixturePrior([(np.zeros(3), 0.0, 1.0)])
        with pytest.raises(ValueError, match="weight"):
            GaussianMixturePrior([(np.zeros(3), 1.0, 0.0)])
        with pytest.raises(ValueError, match="dimension"):
            GaussianMixturePrior([(np.zeros(3), 1.0, 1.0), (np.zeros(6), 1.0, 1.0)])
        with pytest.raises(ValueError, match="multiple of 3"):
            GaussianMixturePrior([(np.zeros(4), 1.0, 1.0)])
        with pytest.raises(ValueError, match="^mode std must be positive and finite, got inf$"):
            GaussianMixturePrior([(np.zeros(3), np.inf, 1.0)])
        with pytest.raises(ValueError, match="^mode weight must be positive and finite, got inf$"):
            GaussianMixturePrior([(np.zeros(3), 1.0, 1.0), (np.zeros(3), 1.0, np.inf)])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^mode mean must be finite$"):
                GaussianMixturePrior([(np.array([0.0, bad, 0.0]), 1.0, 1.0)])


def bits(x):
    """The float64 bit patterns of x, so that NaNs compare too."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def lse_vectors(rng, rows, length):
    """Random vectors of one length at scales 1e-3 to 1e6; in a third of
    them some entries are set to the row's maximum, a tie that SciPy counts
    apart from the sum."""
    scale = 10.0 ** rng.uniform(-3, 6, (rows, 1))
    a = (rng.standard_normal((rows, length)) + rng.uniform(-1, 1, (rows, 1))) * scale
    tie = (rng.random((rows, 1)) < 1 / 3) & (rng.random((rows, length)) < 0.5)
    return np.where(tie, a.max(axis=1, keepdims=True), a)


class TestLogSumExp:
    """The score's private log-sum-exp against scipy.special.logsumexp."""

    def test_matches_scipy_bitwise(self):
        rng = np.random.default_rng(2024)
        for length in (1, 2, 3, 4):
            a = lse_vectors(rng, 25_000, length)
            want = logsumexp(a, axis=1)
            # one row at a time, as the score called SciPy, equals the batch
            for row, w in zip(a[:500], want[:500]):
                assert bits(logsumexp(row)) == bits(w)
            got = np.array([_logsumexp(row) for row in a])
            assert np.count_nonzero(bits(got) != bits(want)) == 0
            # and all rows at once, as a batch of samples scores them
            assert np.count_nonzero(bits(_logsumexp(a)) != bits(want)) == 0

    @pytest.mark.parametrize("a", [
        [-np.inf], [-np.inf, -np.inf], [-np.inf, 1.5], [2.0, -np.inf, 2.0],
        [-np.inf, -1e6, -1e6 - 1e-9],
        [np.inf], [np.inf, 1.0], [-np.inf, np.inf], [np.inf, np.inf],
        [np.nan, 1.0], [1e308, 1e308], [1e308, -1e308, 7.0]])
    def test_infinite_entries_and_fallback(self, a):
        a = np.array(a, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            assert bits(_logsumexp(a)) == bits(logsumexp(a))


    def test_batch_with_non_finite_rows(self):
        a = np.array([[-np.inf, 1.5], [np.inf, 1.0], [np.nan, 1.0], [1e308, 1e308],
                      [2.0, 3.0], [-np.inf, -np.inf]])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            assert (bits(_logsumexp(a)) == bits(logsumexp(a, axis=1))).all()


def scipy_score(prior, x, sigma):
    """GaussianMixturePrior.score as it was written with scipy's logsumexp."""
    x = np.asarray(x, dtype=np.float64).ravel()
    dim = x.size
    s2 = prior.taus ** 2 + sigma ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        logs = (np.log(prior.weights)
                - 0.5 * np.sum((x[None, :] - prior.means) ** 2, axis=1) / s2
                - 0.5 * dim * np.log(s2))
        r = np.exp(logs - logsumexp(logs))
        return ((r / s2)[:, None] * (prior.means - x[None, :])).sum(axis=0)


class TestScoreMatchesScipyVersion:
    def test_bitwise_over_the_ladder(self):
        two_mode, _ = two_mode_chain_prior()
        rng = np.random.default_rng(3)
        three_mode = GaussianMixturePrior(
            [(rng.normal(0, 5, 12), tau, w)
             for tau, w in ((0.5, 0.7), (1.0, 0.2), (2.0, 0.1))])
        sigmas = NoiseSchedule(sigma_min=0.004, sigma_max=2560.0, n_steps=60).sigmas()[:-1]
        for prior in (two_mode, three_mode):
            mid = prior.means.mean(axis=0)
            points = [mid, prior.means[0], prior.means[-1]]
            points += [mid + rng.normal(0, scale, mid.size) for scale in (0.1, 3.0, 1e3)]
            for x in points:
                for sigma in sigmas:
                    assert (bits(prior.score(x, sigma))
                            == bits(scipy_score(prior, x, sigma))).all()

    def test_diverged_x_still_fails_in_tweedie(self):
        prior, _ = two_mode_chain_prior()
        x = np.full(prior.n_atoms * 3, 1e200)
        assert (bits(prior.score(x, 1.0)) == bits(scipy_score(prior, x, 1.0))).all()
        with pytest.raises(SamplingError, match="non-finite score"):
            tweedie_estimate(x, 1.0, prior)


class TestTweedie:
    def test_gaussian_closed_form(self):
        mu = np.array([2.0, 0.0, -1.0])
        prior = GaussianMixturePrior([(mu, 1.5, 1.0)])
        x = np.array([0.0, 1.0, 4.0])
        sigma = 0.9
        want = x + sigma ** 2 * (mu - x) / (1.5 ** 2 + sigma ** 2)
        np.testing.assert_allclose(tweedie_estimate(x, sigma, prior), want,
                                   rtol=1e-12)

    def test_nan_score_raises(self):
        with pytest.raises(SamplingError, match="non-finite score"):
            tweedie_estimate(np.zeros(3), 1.0, NanModel())


class TestGradientNormalize:
    def test_rms_equals_reference(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(10, 3))
        out = gradient_normalize(g, 0.37)
        rms = np.sqrt(np.mean(np.sum(out.reshape(-1, 3) ** 2, axis=1)))
        assert rms == pytest.approx(0.37, rel=1e-12)

    def test_direction_preserved_and_scale_invariant(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(4, 3))
        a = gradient_normalize(g, 1.0)
        b = gradient_normalize(100.0 * g, 1.0)
        np.testing.assert_allclose(a, b, rtol=1e-12)
        np.testing.assert_allclose(np.cross(a.ravel()[:3], g.ravel()[:3]),
                                   0.0, atol=1e-12)

    def test_zero_gradient_passthrough(self):
        g = np.zeros((5, 3))
        np.testing.assert_array_equal(gradient_normalize(g, 1.0), g)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(1e-6, 1e3))
    def test_rms_property(self, seed, ref):
        g = np.random.default_rng(seed).normal(size=(6, 3))
        out = gradient_normalize(g, ref)
        rms = np.sqrt(np.mean(np.sum(out ** 2, axis=1)))
        assert rms == pytest.approx(ref, rel=1e-9)


class TestGuidanceSchedule:
    def test_presets(self):
        syn = make_schedule("synthetic")
        assert (syn.t_warm, syn.t_global, syn.t_local, syn.t_relax) == (125, 25, 25, 25)
        exp = make_schedule("experimental")
        assert (exp.t_warm, exp.t_global, exp.t_local, exp.t_relax) == (100, 50, 25, 25)
        assert syn.n_steps == exp.n_steps == 200

    def test_preset_errors(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            make_schedule("movie")

    def test_lambda_anneal_endpoints(self):
        g = GuidanceSchedule(0, 25, 0, 0)
        assert lambda_global(0, g) == pytest.approx(0.25)
        assert lambda_global(25, g) == pytest.approx(0.05)
        assert lambda_global(12.5, g) == pytest.approx(0.15)
        # monotone nonincreasing across the stage
        vals = [lambda_global(t, g) for t in range(26)]
        assert np.all(np.diff(vals) < 0)

    def test_negative_stage_rejected(self):
        with pytest.raises(ValueError, match="t_warm"):
            GuidanceSchedule(-1, 10, 10, 10)
        with pytest.raises(ValueError, match="lambda_local"):
            GuidanceSchedule(1, 1, 1, 1, lambda_local=-0.5)
        for name in ("lambda_global_start", "lambda_global_end", "lambda_local"):
            with pytest.raises(ValueError, match=f"{name} must be >= 0, got nan"):
                GuidanceSchedule(1, 1, 1, 1, **{name: float("nan")})
            with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
                GuidanceSchedule(1, 1, 1, 1, **{name: np.inf})


def two_atom_system():
    """Tiny guided setup: 2-atom single-mode prior plus its own simulated map."""
    coords = np.array([[0.0, 0.0, 0.0], [3.8, 0.0, 0.0]])
    prior = GaussianMixturePrior([(coords.ravel(), 1.0, 1.0)])
    template = chain_template(coords)
    grid = grid_for_model(template, voxel_size=1.0, pad=5.0)
    dmap = simulate_map(template, grid, resolution=2.0)
    cloud = extract_pointcloud(dmap, k=2, seed=0)
    ctx = GuidanceContext(target_map=dmap, target_cloud=cloud, resolution=2.0)
    return prior, template, ctx


SMALL_SCHED = NoiseSchedule(sigma_min=0.05, sigma_max=40.0, n_steps=40)


class TestIntegration:
    def test_deterministic_per_seed(self):
        prior, _, _ = two_atom_system()
        a = sample_unguided(prior, schedule=SMALL_SCHED, seed=5)
        b = sample_unguided(prior, schedule=SMALL_SCHED, seed=5)
        c = sample_unguided(prior, schedule=SMALL_SCHED, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_one_score_eval_per_step(self):
        prior, _, _ = two_atom_system()
        counting = CountingModel(prior)
        sample_unguided(counting, schedule=SMALL_SCHED, seed=0)
        assert counting.calls == 40

    def test_churn_consumes_noise_deterministically(self):
        prior, _, _ = two_atom_system()
        churny = NoiseSchedule(sigma_min=0.05, sigma_max=40.0, n_steps=40,
                               churn=0.4, churn_floor=0.05)
        a = sample_unguided(prior, schedule=churny, seed=3)
        b = sample_unguided(prior, schedule=churny, seed=3)
        plain = sample_unguided(prior, schedule=SMALL_SCHED, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, plain)

    def test_unguided_matches_prior_statistics(self):
        mu = np.array([1.0, -1.0, 2.0, 0.0, 3.0, -2.0])
        tau = 1.3
        prior = GaussianMixturePrior([(mu, tau, 1.0)])
        # one lockstep batch; each draw is bitwise the one drawn alone
        draws = np.array([d.ravel() for d in
                          sample_unguided(prior, schedule=SMALL_SCHED, seed=list(range(150)))])
        se_mean = tau / np.sqrt(150)
        assert np.all(np.abs(draws.mean(axis=0) - mu) < 5 * se_mean)
        pooled_std = (draws - mu).std()
        assert pooled_std == pytest.approx(tau, rel=0.15)

    def test_guide_hook_contract(self):
        """The hook sees the Tweedie pair at sigma_hat, once per step, in order."""
        prior, _, _ = two_atom_system()
        churny = NoiseSchedule(sigma_min=0.05, sigma_max=40.0, n_steps=40,
                               churn=0.3, churn_floor=0.05)
        sigmas = churny.sigmas()
        seen = []

        def probe(i, x_hat, tweedie_disp, s_hat, s_next):
            x = x_hat + tweedie_disp
            want = x + s_hat ** 2 * prior.score(x, s_hat)
            np.testing.assert_allclose(x_hat, want, rtol=1e-10, atol=1e-12)
            seen.append((i, s_hat, s_next))
            return None

        sample_with_guide(prior, churny, 0, probe)
        assert [i for i, _, _ in seen] == list(range(40))
        for i, s_hat, s_next in seen:
            gamma = 0.3 if sigmas[i] > 0.05 else 0.0
            assert s_hat == pytest.approx(sigmas[i] * (1 + gamma))
            assert s_next == sigmas[i + 1]

    def test_none_guide_is_bit_exact_noop(self):
        prior, _, _ = two_atom_system()
        plain = sample_unguided(prior, schedule=SMALL_SCHED, seed=9)
        hooked = sample_with_guide(prior, SMALL_SCHED, 9,
                                   lambda *a: None)
        np.testing.assert_array_equal(plain, hooked)

    def test_constant_guide_displaces(self):
        prior, _, _ = two_atom_system()
        plain = sample_unguided(prior, schedule=SMALL_SCHED, seed=9)
        shifted = sample_with_guide(prior, SMALL_SCHED, 9,
                                    lambda *a: np.full(6, 0.01))
        assert not np.array_equal(plain, shifted)
        assert np.all(np.isfinite(shifted))

    def test_nonfinite_guide_aborts(self):
        prior, _, _ = two_atom_system()
        with pytest.raises(SamplingError, match="non-finite coordinates"):
            sample_with_guide(prior, SMALL_SCHED, 0,
                              lambda *a: np.full(6, np.inf))


class TestGuidedTrajectory:
    def test_stage_accounting(self):
        prior, template, ctx = two_atom_system()
        gsched = GuidanceSchedule(25, 5, 5, 5)
        model, stats = sample_guided(prior, ctx, SMALL_SCHED, gsched, template,
                                     seed=0)
        assert model.coords().shape == (2, 3)
        assert stats.score_evals == 40
        assert stats.global_evals == 5
        assert stats.local_evals == 5
        assert stats.frame is None  # no reference registered

    def test_stage_mismatch_rejected(self):
        prior, template, ctx = two_atom_system()
        with pytest.raises(ValueError, match="stages sum"):
            sample_guided(prior, ctx, SMALL_SCHED, GuidanceSchedule(1, 1, 1, 1),
                          template, seed=0)

    def test_zero_lambda_equals_unguided_bitwise(self):
        prior, template, ctx = two_atom_system()
        gsched = GuidanceSchedule(25, 5, 5, 5, lambda_global_start=0.0,
                                  lambda_global_end=0.0, lambda_local=0.0)
        guided, stats = sample_guided(prior, ctx, SMALL_SCHED, gsched, template,
                                      seed=4)
        plain = sample_unguided(prior, schedule=SMALL_SCHED, seed=4)
        np.testing.assert_array_equal(guided.coords(), plain)
        assert stats.global_evals == 0 and stats.local_evals == 0

    def test_guidance_pulls_toward_map(self):
        prior, template, ctx = two_atom_system()
        gsched = GuidanceSchedule(25, 5, 5, 5)
        mu = prior.mode_coords(0)
        dists = {"guided": [], "plain": []}
        for seed in range(5):
            guided, _ = sample_guided(prior, ctx, SMALL_SCHED, gsched, template,
                                      seed=seed)
            plain = sample_unguided(prior, schedule=SMALL_SCHED, seed=seed)
            dists["guided"].append(np.sqrt(np.mean((guided.coords() - mu) ** 2)))
            dists["plain"].append(np.sqrt(np.mean((plain - mu) ** 2)))
        assert np.mean(dists["guided"]) < np.mean(dists["plain"])

    def test_cross_term_solves_recorded(self):
        # the criterion-01 demo: minority-mode map, 7-point cloud, reach 40
        prior, template = two_mode_chain_prior()
        minority = chain_template(prior.mode_coords(1))
        dmap = simulate_map(minority, grid_for_model(minority, 1.0, pad=4.0),
                            resolution=2.0)
        ctx = GuidanceContext(target_map=dmap,
                              target_cloud=extract_pointcloud(dmap, 7, seed=0),
                              resolution=2.0,
                              sinkhorn=SinkhornConfig(epsilon=1.0, reach=40.0))
        sched = NoiseSchedule(sigma_min=0.064, sigma_max=2560.0, n_steps=200,
                              churn=0.4)
        _, stats = sample_guided(prior, ctx, sched, make_schedule("synthetic"),
                                 template, seed=0)
        assert stats.global_evals == 25
        assert stats.ot_cross_solves == stats.global_evals
        assert stats.ot_cross_unconverged == 0
        assert stats.ot_cross_solves <= stats.ot_cross_iterations \
            <= 60 * stats.ot_cross_solves
        assert stats.ot_self_solves == 25 and stats.ot_self_unconverged == 0
        assert stats.ot_self_solves <= stats.ot_self_iterations

    def test_sample_guided_writes_template(self):
        prior, template, ctx = two_atom_system()
        gsched = GuidanceSchedule(25, 5, 5, 5)
        model, _ = sample_guided(prior, ctx, SMALL_SCHED, gsched, template,
                                 seed=1)
        assert len(model) == 2
        assert [a.atom_name for a in model.atoms] == \
            [a.atom_name for a in template.atoms]
        assert not np.array_equal(model.coords(), template.coords())

    def test_sample_guided_template_mismatch(self):
        prior, template, ctx = two_atom_system()
        big = chain_template(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="atoms"):
            sample_guided(prior, ctx, SMALL_SCHED, GuidanceSchedule(25, 5, 5, 5),
                          big, seed=0)


class TestExactPosteriorGuidance:
    def test_requires_single_mode(self):
        prior = GaussianMixturePrior([(np.zeros(3), 1.0, 0.5),
                                      (np.ones(3), 1.0, 0.5)])
        with pytest.raises(ValueError, match="single-mode"):
            gaussian_posterior_guidance(prior, np.zeros(3), 0.5)

    def test_matches_analytic_posterior_moments(self):
        tau, s_obs = 1.0, 0.5
        mu = np.zeros(3)
        y = np.array([1.2, -0.8, 0.4])
        prior = GaussianMixturePrior([(mu, tau, 1.0)])
        sched = NoiseSchedule(sigma_min=0.01, sigma_max=40.0, n_steps=100)
        guide = gaussian_posterior_guidance(prior, y, s_obs)
        draws = np.array([d.ravel() for d in
                          sample_with_guide(prior, sched, list(range(250)), guide)])
        post_mean = y * tau ** 2 / (tau ** 2 + s_obs ** 2)
        post_var = tau ** 2 * s_obs ** 2 / (tau ** 2 + s_obs ** 2)
        se = np.sqrt(post_var / 250)
        assert np.all(np.abs(draws.mean(axis=0) - post_mean) < 5 * se)
        assert (draws - post_mean).var() == pytest.approx(post_var, rel=0.25)


class TestGuidanceContext:
    def test_reference_reshaped(self):
        prior, _, ctx = two_atom_system()
        ctx2 = GuidanceContext(target_map=ctx.target_map,
                               target_cloud=ctx.target_cloud, resolution=2.0,
                               reference=np.arange(6.0))
        assert ctx2.reference.shape == (2, 3)


def demo_context(reference=None):
    """The criterion-01 demo's prior, template and guidance context, at a
    40-step schedule with churn, optionally with a reference frame."""
    prior, template = two_mode_chain_prior()
    minority = chain_template(prior.mode_coords(1))
    dmap = simulate_map(minority, grid_for_model(minority, 1.0, pad=4.0),
                        resolution=2.0)
    ctx = GuidanceContext(target_map=dmap,
                          target_cloud=extract_pointcloud(dmap, 7, seed=0),
                          resolution=2.0, reference=reference,
                          sinkhorn=SinkhornConfig(epsilon=1.0, reach=40.0))
    return prior, template, ctx


DEMO_SCHED = NoiseSchedule(sigma_min=0.064, sigma_max=2560.0, n_steps=40, churn=0.4)
DEMO_STAGES = GuidanceSchedule(25, 5, 5, 5)
SEEDS = np.random.SeedSequence(314).spawn(7)


def stats_key(stats):
    """SampleStats as comparable bytes: its counts, frame and error."""
    fields = dict(vars(stats))
    frame = fields.pop("frame")
    error = fields.pop("error")
    return (fields, None if frame is None else
            (frame.rotation.tobytes(), frame.translation.tobytes()), repr(error))


def batches_holding(j):
    """Batches of 2, 3 and 7 seeds that hold seed j at different places."""
    others = [k for k in range(7) if k != j]
    return [[SEEDS[others[0]], SEEDS[j]], [SEEDS[j]] + [SEEDS[k] for k in others[3:5]],
            list(SEEDS)]


class TestLockstepBatch:
    """Sample j drawn alone has the bytes it has in any batch."""

    @pytest.mark.parametrize("with_reference", [False, True])
    def test_guided(self, with_reference):
        minority = two_mode_chain_prior()[0].mode_coords(1)
        prior, template, ctx = demo_context(minority + 0.5 if with_reference else None)
        for j in (0, 4):
            alone, stats = sample_guided(prior, ctx, DEMO_SCHED, DEMO_STAGES, template, SEEDS[j])
            assert (stats.frame is not None) == with_reference
            for seeds in batches_holding(j):
                model, got = sample_guided(prior, ctx, DEMO_SCHED, DEMO_STAGES, template,
                                           seeds)[seeds.index(SEEDS[j])]
                assert model.coords().tobytes() == alone.coords().tobytes()
                assert stats_key(got) == stats_key(stats)

    def test_unguided_with_churn(self):
        prior, _ = two_mode_chain_prior()
        for j in (1, 6):
            alone = sample_unguided(prior, DEMO_SCHED, SEEDS[j])
            for seeds in batches_holding(j):
                got = sample_unguided(prior, DEMO_SCHED, seeds)[seeds.index(SEEDS[j])]
                assert got.tobytes() == alone.tobytes()

    def test_exact_posterior_guidance(self):
        prior = GaussianMixturePrior([(np.zeros(6), 1.0, 1.0)])
        guide = gaussian_posterior_guidance(prior, np.linspace(-1, 1, 6), 0.5)
        for j in (2, 3):
            alone = sample_with_guide(prior, DEMO_SCHED, SEEDS[j], guide)
            for seeds in batches_holding(j):
                got = sample_with_guide(prior, DEMO_SCHED, seeds, guide)
                assert got[seeds.index(SEEDS[j])].tobytes() == alone.tobytes()

    def test_score_rows_are_scored_alone(self):
        prior, _ = two_mode_chain_prior()
        x = prior.means[1] + np.random.default_rng(1).normal(0, 5, (9, prior.means.shape[1]))
        for sigma in (0.1, 3.0, 300.0):
            batch = prior.score(x, sigma)
            assert batch.shape == x.shape
            for row, want in zip(batch, x):
                assert bits(row).tobytes() == bits(prior.score(want, sigma)).tobytes()


class TestBatchFailures:
    """A sample that fails leaves its batch with the error it gives alone;
    the others keep their bytes, and nothing warns."""

    def draw_all(self, draw):
        alone = []
        for seed in SEEDS:
            try:
                alone.append(draw(seed))
            except Exception as exc:
                alone.append(exc)
        return alone, draw(list(SEEDS))

    def check(self, alone, batch):
        for a, b in zip(alone, batch):
            if isinstance(a, Exception):
                assert type(b) is type(a) and str(b) == str(a)
            else:   # coordinates, or a (model, stats) pair
                a, b = (a[0].coords(), b[0].coords()) if isinstance(a, tuple) else (a, b)
                assert b.tobytes() == a.tobytes()

    def test_non_finite_coordinates(self):
        prior, _ = two_mode_chain_prior()

        def guide(i, x_hat, tweedie_disp, s_hat, s_next):
            # at step 12, the rows whose noisy first coordinate is positive:
            # a property of each sample alone
            trips = (i == 12) & ((x_hat + tweedie_disp)[:, :1] > 0)
            return np.where(trips, np.inf, 0.0) * np.ones_like(x_hat)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone, batch = self.draw_all(lambda s: sample_with_guide(prior, DEMO_SCHED, s, guide))
        failed = [a for a in alone if isinstance(a, SamplingError)]
        assert 0 < len(failed) < 7
        assert all(str(a).startswith("non-finite coordinates at step 12 ") for a in failed)
        self.check(alone, batch)

    def test_non_finite_score(self):
        prior, _ = two_mode_chain_prior()

        class Breaks(ScoreModel):
            """The prior, but NaN at the 10th step for rows whose noisy first
            coordinate is positive."""
            n_atoms = prior.n_atoms
            calls = 0

            def score(self, x, sigma):
                self.calls += 1
                s = prior.score(x, sigma)
                if self.calls == 10:
                    s[x[:, 0] > 0] = np.nan
                return s

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone, batch = self.draw_all(lambda s: sample_unguided(Breaks(), DEMO_SCHED, s))
        failed = [a for a in alone if isinstance(a, SamplingError)]
        assert 0 < len(failed) < 7
        assert all(str(a).startswith("non-finite score at sigma=") for a in failed)
        self.check(alone, batch)

    @pytest.mark.parametrize("where", ["local", "cross", "self", "displace"])
    def test_guidance_error_fails_its_sample_alone(self, monkeypatch, where):
        prior, template, ctx = demo_context()

        def trips(value):
            # a property of the sample's own coordinates, true for about
            # one call in nine
            return int(abs(value) * 1e6) % 9 == 0

        if where == "local":
            real_local = sampler_module.density_loss_grad_coords

            def stub(coords, *args):
                if trips(coords[0, 0]):
                    raise RuntimeError(f"stub failure at {coords[0, 0]!r}")
                return real_local(coords, *args)

            monkeypatch.setattr(sampler_module, "density_loss_grad_coords", stub)
        elif where == "cross":   # the stacked solve raises if any of its rows trips
            real_solve = transport_module._solve

            def stub(X, a, Y, b, cfg):
                if any(trips(v) for v in X[:, 0, 0]):
                    raise RuntimeError("stub failure in the cross term")
                return real_solve(X, a, Y, b, cfg)

            monkeypatch.setattr(transport_module, "_solve", stub)
        elif where == "self":
            real_ot = transport_module.ot_epsilon

            def stub(X, Y, cfg):
                if Y is X and trips(X.points[0, 0]):
                    raise RuntimeError(f"stub failure at {X.points[0, 0]!r}")
                return real_ot(X, Y, cfg)

            monkeypatch.setattr(transport_module, "ot_epsilon", stub)
        else:
            real_normalize = sampler_module.gradient_normalize

            def stub(grad, reference_step):
                if trips(grad[0, 0]):
                    raise RuntimeError(f"stub failure at {grad[0, 0]!r}")
                return real_normalize(grad, reference_step)

            monkeypatch.setattr(sampler_module, "gradient_normalize", stub)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone, batch = self.draw_all(lambda s: sample_guided(
                prior, ctx, DEMO_SCHED, DEMO_STAGES, template, s))
        failed = [a for a in alone if isinstance(a, Exception)]
        assert 0 < len(failed) < 7
        assert all(type(a) is RuntimeError and str(a).startswith("stub failure ")
                   for a in failed)
        self.check(alone, batch)
        for a, b in zip(alone, batch):
            if not isinstance(a, Exception):
                assert stats_key(b[1]) == stats_key(a[1])
