"""Diffusion sampling engine with staged density guidance.

Variance-exploding iterated denoising over a Karras-style sigma ladder.
Each step makes exactly one score evaluation; guidance displacements are
added to the post-denoising update, evaluated at the Tweedie estimate.
The guided run has four stages: warm-up (no guidance), global (point-cloud
transport gradient), local (voxel density gradient), relax (no guidance).

Samples are drawn as a lockstep batch: one (B, 3n) state, one score
evaluation per step for the whole batch, one stacked cross-term and one
stacked self-term solve per global step and one stacked density gradient
per local step.  Every sample keeps its own random stream, frame, stats
and failure, so its bytes are those it has when drawn alone.
"""

from __future__ import annotations

import abc
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .alignment import RigidTransform, kabsch
from .forward import BlurOperator, density_loss_grad_coords
from .pointcloud import PointCloud
from .structure import AtomicModel
from .transport import SinkhornConfig, TransportPlan, divergence_grad
from .volume import DensityMap

log = logging.getLogger(__name__)


class SamplingError(RuntimeError):
    """Raised when a trajectory produces non-finite coordinates."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Sigma ladder and integrator constants.

    sigma_i interpolates sigma_max..sigma_min in sigma^(1/rho) space over
    n_steps levels, with a terminal 0 appended.  `churn` re-noises the state
    before each score evaluation (sigma_hat = sigma*(1+churn) while
    sigma > churn_floor).
    """
    sigma_min: float = 0.004
    sigma_max: float = 160.0
    rho: float = 7.0
    n_steps: int = 200
    churn: float = 0.0
    churn_floor: float = 0.05

    def __post_init__(self):
        if not (0 < self.sigma_min < self.sigma_max):
            raise ValueError(f"need 0 < sigma_min < sigma_max, got "
                             f"({self.sigma_min}, {self.sigma_max})")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.churn < 0:
            raise ValueError(f"churn must be >= 0, got {self.churn}")
        if not 0 <= self.churn_floor < math.inf:     # NaN fails too
            raise ValueError(f"churn_floor must be >= 0 and finite, got {self.churn_floor}")
        for name in ("sigma_max", "rho", "churn"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def sigmas(self) -> np.ndarray:
        """Strictly decreasing levels, length n_steps + 1, terminal 0."""
        i = np.arange(self.n_steps)
        inv = 1.0 / self.rho
        u = (self.sigma_max ** inv
             + i / (self.n_steps - 1) * (self.sigma_min ** inv - self.sigma_max ** inv))
        return np.concatenate([u ** self.rho, [0.0]])


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """`scipy.special.logsumexp` of each row of a float64 array (its last
    axis), bit for bit as SciPy takes that row alone.

    SciPy 1.17's formula without its array-API dispatch, which on the
    prior's few modes costs several times the arithmetic: the maximal
    entries are counted in m and left out of the sum.  A non-finite result
    is recomputed as log(sum(exp(row))), as SciPy does.  Call it with
    divide, overflow and invalid-value warnings off, as SciPy runs it.
    """
    # the ufuncs' own reduce: np.sum and the ndarray methods add a Python
    # layer that costs more than the arithmetic on the prior's few modes
    a_max = np.maximum.reduce(a, axis=-1, keepdims=True)
    top = a == a_max
    m = np.add.reduce(top, axis=-1)
    s = np.add.reduce(np.exp(np.where(top, -np.inf, a) - a_max), axis=-1)
    out = np.log1p(s / m) + np.log(m) + a_max[..., 0]
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        out = np.where(np.isfinite(out), out, np.log(np.sum(np.exp(a), axis=-1)))
    return out


class ScoreModel(abc.ABC):
    """Noised-score interface: grad_x log p_sigma(x)."""

    n_atoms: int

    @abc.abstractmethod
    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Score of the sigma-noised distribution at flat coordinates x, a
        (B, 3n) batch with one row per sample still running, B >= 1; the
        result has x's shape."""


class GaussianMixturePrior(ScoreModel):
    """Isotropic Gaussian mixture with a closed-form noised score.

    Under variance-exploding noising, mode m at level sigma has covariance
    (tau_m^2 + sigma^2) I, so the noised score is exactly computable —
    this is the stand-in for a learned model that makes oracle tests possible.
    """

    def __init__(self, modes):
        means, taus, weights = [], [], []
        for mean, tau, weight in modes:
            mean = np.asarray(mean, dtype=np.float64).ravel()
            for what, value in (("std", tau), ("weight", weight)):
                if not 0 < value < math.inf:        # NaN fails too
                    raise ValueError(f"mode {what} must be positive and finite, got {value}")
            if not np.isfinite(mean).all():
                raise ValueError("mode mean must be finite")
            means.append(mean)
            taus.append(float(tau))
            weights.append(float(weight))
        if not means:
            raise ValueError("need at least one mode")
        dims = {m.size for m in means}
        if len(dims) != 1:
            raise ValueError(f"mode means disagree in dimension: {sorted(dims)}")
        dim = dims.pop()
        if dim % 3 != 0:
            raise ValueError(f"mean dimension {dim} is not a multiple of 3")
        self.means = np.stack(means)
        self.taus = np.asarray(taus)
        w = np.asarray(weights)
        self.weights = w / w.sum()
        self._log_weights = np.log(self.weights)
        self.n_atoms = dim // 3

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        dim = self.means.shape[1]
        X = x.reshape(-1, dim)
        s2 = self.taus ** 2 + sigma ** 2
        # a diverged row gives a non-finite score, which the sampler reports;
        # each row's bits are those of the row scored alone
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            logs = (self._log_weights
                    - 0.5 * np.add.reduce((X[:, None, :] - self.means) ** 2, axis=2) / s2
                    - 0.5 * dim * np.log(s2))
            r = np.exp(logs - _logsumexp(logs)[:, None])
            out = np.add.reduce((r / s2)[:, :, None] * (self.means - X[:, None, :]), axis=1)
        return out.reshape(x.shape)

    def mode_coords(self, m: int) -> np.ndarray:
        return self.means[m].reshape(-1, 3)


@dataclass(frozen=True)
class GuidanceSchedule:
    """Stage lengths (in steps) and guidance strengths."""
    t_warm: int
    t_global: int
    t_local: int
    t_relax: int
    lambda_global_start: float = 0.25
    lambda_global_end: float = 0.05
    lambda_local: float = 0.5

    def __post_init__(self):
        for name in ("t_warm", "t_global", "t_local", "t_relax"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("lambda_global_start", "lambda_global_end", "lambda_local"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def n_steps(self) -> int:
        return self.t_warm + self.t_global + self.t_local + self.t_relax


_SCHEDULE_STAGES = {
    "synthetic": (125, 25, 25, 25),
    "experimental": (100, 50, 25, 25),
}


def make_schedule(kind: str) -> GuidanceSchedule:
    """Stage preset by map provenance (both presets span 200 steps)."""
    if kind not in _SCHEDULE_STAGES:
        raise ValueError(f"unknown schedule kind {kind!r}; "
                         f"choose from {sorted(_SCHEDULE_STAGES)}")
    return GuidanceSchedule(*_SCHEDULE_STAGES[kind])


def lambda_global(t: float, gsched: GuidanceSchedule) -> float:
    """Cosine anneal from lambda_global_start to lambda_global_end over the
    global stage: lam(t) = end + (start - end) (1 + cos(pi t / T_g)) / 2."""
    lo, hi = gsched.lambda_global_end, gsched.lambda_global_start
    if gsched.t_global == 0:
        return hi
    return lo + 0.5 * (hi - lo) * (1.0 + math.cos(math.pi * t / gsched.t_global))


@dataclass(frozen=True)
class GuidanceContext:
    """Read-only inputs shared by every guided sample of a run; a registered
    replicate swaps in only its own `reference`."""
    target_map: DensityMap
    target_cloud: PointCloud
    resolution: float
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    blur: BlurOperator = field(default_factory=BlurOperator)
    reference: np.ndarray | None = None   # docked unguided reference (n, 3)

    def __post_init__(self):
        if self.reference is not None:
            ref = np.asarray(self.reference, dtype=np.float64).reshape(-1, 3)
            object.__setattr__(self, "reference", ref)


@dataclass
class SampleStats:
    score_evals: int = 0
    global_evals: int = 0
    local_evals: int = 0
    frame: RigidTransform | None = None   # stage-entry alignment, model -> map
    # each global evaluation solves one cross and one self term
    ot_cross_iterations: int = 0          # cross-term iterations, summed
    ot_cross_unconverged: int = 0         # cross terms that hit max_iters
    ot_self_iterations: int = 0           # self terms, likewise
    ot_self_unconverged: int = 0
    error: Exception | None = None        # what failed this sample, if anything

    def record_plans(self, cross: TransportPlan, self_term: TransportPlan) -> None:
        self.global_evals += 1
        self.ot_cross_iterations += cross.iterations
        self.ot_cross_unconverged += not cross.converged
        self.ot_self_iterations += self_term.iterations
        self.ot_self_unconverged += not self_term.converged


def _tweedie_rows(x: np.ndarray, sigma: float, model: ScoreModel):
    """Denoised estimates x + sigma^2 * score(x, sigma) of a (B, 3n) batch
    and the rows whose score is not finite; a diverging row overflows
    quietly."""
    s = model.score(x, sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        x_hat = x + sigma ** 2 * s
    if np.isfinite(s).all():
        return x_hat, []
    return x_hat, np.flatnonzero(~np.isfinite(s).reshape(len(x), -1).all(axis=1))


def tweedie_estimate(x: np.ndarray, sigma: float, model: ScoreModel) -> np.ndarray:
    """Denoised posterior-mean estimate x + sigma^2 * score(x, sigma) of flat
    coordinates x, (3n,) or a (B, 3n) batch."""
    x = np.asarray(x, dtype=np.float64)
    x_hat, bad = _tweedie_rows(x.reshape(-1, x.shape[-1]), sigma, model)
    if len(bad):
        raise SamplingError(f"non-finite score at sigma={sigma:.6g}")
    return x_hat.reshape(x.shape)


def gradient_normalize(grad: np.ndarray, reference_step: float) -> np.ndarray:
    """Rescale per-atom gradient vectors to RMS magnitude `reference_step`.

    Guidance strengths are dimensionless multiples of the denoiser's own
    displacement.  That does not make one strength work at every churn: the
    move is added whole, not scaled by the Euler step, and on the demo map
    the guided samples reach the minority mode at churn 0.1-0.4 but diverge
    at churn 0 (measured; see ROADMAP item 1).  Zero gradient passes
    through unchanged.
    """
    g = np.asarray(grad, dtype=np.float64)
    rms = np.sqrt(np.mean(np.sum(g.reshape(-1, 3) ** 2, axis=1)))
    if rms == 0:
        return g
    return g * (reference_step / rms)


def _integrate(model: ScoreModel, schedule: NoiseSchedule, seeds, guide=None,
               stats: list[SampleStats] | None = None):
    """Reverse-process integration of a lockstep batch, one score evaluation
    per step for all samples.

    Row b of the (B, 3n) state is the sample drawn from `seeds[b]` with its
    own Generator, which draws in sample order each step, so its bytes do
    not depend on the other rows; `seeds` is a non-empty sequence.  `guide(i,
    xhat, tweedie_disp, sigma_hat, sigma_next)` gets the (B', 3n) rows of
    the samples still running and may return a displacement for them
    (added to the updated state) or None when inactive.  A sample whose
    score or coordinates turn non-finite, or whose guidance fails (the
    guide sets the error in its stats), leaves the batch with the error in
    its `SampleStats`, and its row of the result is NaN.  Returns the
    (B, 3n) result, the stats and each step's wall time.
    """
    sigmas = schedule.sigmas()
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if not rngs:
        raise ValueError("need at least one seed")
    stats = [SampleStats() for _ in rngs] if stats is None else stats
    n_dim = model.n_atoms * 3
    live = list(range(len(rngs)))   # the samples that the rows of x hold
    x = np.stack([rng.standard_normal(n_dim) for rng in rngs]) * sigmas[0]
    out = np.full_like(x, np.nan)
    step_s = np.zeros(len(sigmas) - 1)

    def drop(rows, error, evals):
        """Take rows out of the batch after `evals` score evaluations;
        `error()` becomes the failure of each of their samples that has none
        recorded.  Returns the kept rows."""
        nonlocal live
        keep = np.ones(len(live), dtype=bool)
        keep[rows] = False
        for r in rows:
            st = stats[live[r]]
            st.score_evals += evals
            if st.error is None:
                st.error = error()
        live = [b for b, k in zip(live, keep) if k]
        return keep

    t0 = time.perf_counter()
    for i in range(len(sigmas) - 1):
        s, s_next = sigmas[i], sigmas[i + 1]
        gamma = schedule.churn if s > schedule.churn_floor else 0.0
        s_hat = s * (1.0 + gamma)
        if gamma > 0:
            noise = np.empty_like(x)
            for r, b in enumerate(live):
                rngs[b].standard_normal(out=noise[r])
            x = x + np.sqrt(s_hat ** 2 - s ** 2) * noise
        x_hat, bad = _tweedie_rows(x, s_hat, model)
        if len(bad):
            keep = drop(bad,
                        lambda: SamplingError(f"non-finite score at sigma={s_hat:.6g}"), i)
            x, x_hat = x[keep], x_hat[keep]
        # a diverging row overflows quietly and fails the finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            x_next = x + (s_next - s_hat) / s_hat * (x - x_hat)
        bad = []
        if guide is not None and live:
            delta = guide(i, x_hat, x - x_hat, s_hat, s_next)
            if delta is not None:
                with np.errstate(over="ignore", invalid="ignore"):
                    x_next = x_next + np.asarray(delta).reshape(x_next.shape)
            bad = [r for r, b in enumerate(live) if stats[b].error is not None]
        if not np.isfinite(x_next).all():
            bad = sorted(set(bad).union(
                np.flatnonzero(~np.isfinite(x_next).all(axis=1)).tolist()))
        if bad:
            keep = drop(bad, lambda: SamplingError(
                f"non-finite coordinates at step {i} (sigma={s:.6g})"), i + 1)
            x_next = x_next[keep]
        x = x_next
        t1 = time.perf_counter()
        step_s[i], t0 = t1 - t0, t1
        if not live:
            break
    for b in live:
        stats[b].score_evals += i + 1
    out[live] = x
    return out, stats, step_s


def _outcomes(results, stats):
    """Each sample's result, or the exception that failed it."""
    return [st.error if st.error is not None else res for res, st in zip(results, stats)]


def sample_with_guide(model: ScoreModel, schedule: NoiseSchedule, seeds, guide):
    """Draw one sample per seed of the sequence `seeds` as one lockstep batch
    under the guidance hook `guide`, or none; returns a list with, per seed,
    the (n_atoms, 3) coordinates or the exception that failed that sample
    alone.  The hook sees the (B, 3n) rows of the samples still running and
    returns a displacement of that shape or None."""
    x, stats, _ = _integrate(model, schedule, seeds, guide=guide)
    return _outcomes(x.reshape(len(x), -1, 3), stats)


def sample_unguided(model: ScoreModel, schedule: NoiseSchedule, seeds):
    """Draw one unguided sample per seed, as `sample_with_guide` without a
    hook."""
    return sample_with_guide(model, schedule, seeds, None)


def _make_multiscale_guide(ctx: GuidanceContext, gsched: GuidanceSchedule,
                           amps: np.ndarray, stats: list[SampleStats]):
    """Build the staged guidance hook for a batch of trajectories.

    At entry to the global stage each denoised estimate is superposed onto
    the docked reference (when one is provided); gradients are then
    evaluated in the map frame and rotated back into the sampling frame.
    Each global step solves the batch's cross terms as one stack and its
    self terms as another, and each local step takes the batch's density
    gradients as one stack; the frame and the displacement are per sample.
    A sample whose guidance raises records the error in its stats and gets
    no displacement; when a stacked call raises, each sample is taken
    alone, so only the samples that raise alone fail.
    """
    t_w, t_g, t_l = gsched.t_warm, gsched.t_global, gsched.t_local

    def transport(world, sts):
        """Transport gradients of a stack of map-frame rows, each row counted
        with its plans once every one is solved."""
        plans = []
        grads = divergence_grad(world, ctx.target_cloud, ctx.sinkhorn,
                                on_plans=lambda *p: plans.append(p))
        for st, p in zip(sts, plans):
            st.record_plans(*p)
        return grads

    def density(world, sts):
        """Density gradients of a stack of map-frame rows, each row counted."""
        grads = density_loss_grad_coords(world, amps, ctx.target_map, ctx.resolution,
                                         ctx.blur)
        for st in sts:
            st.local_evals += 1
        return grads

    def guide(i, x_hat, tweedie_disp, s_hat, s_next):
        if not (t_w <= i < t_w + t_g + t_l):
            return None
        live = [st for st in stats if st.error is None]   # the rows, in order
        pts = x_hat.reshape(len(live), -1, 3)

        def each(fn):
            """fn(r, stats) for each row still running; a row whose call
            raises gets None and records the error, which fails its sample
            alone."""
            out = [None] * len(live)
            for r, st in enumerate(live):
                if st.error is None:
                    try:
                        out[r] = fn(r, st)
                    except Exception as exc:
                        st.error = exc
            return out

        if i == t_w and ctx.reference is not None:
            def set_frame(r, st):
                st.frame, _ = kabsch(pts[r], ctx.reference)

            each(set_frame)
        if i < t_w + t_g:
            lam, layer = lambda_global(i - t_w, gsched), transport
        else:
            lam, layer = gsched.lambda_local, density
        if lam == 0.0:
            return None

        def grads_of(rows):
            """The stage's gradients of these rows, taken in the map frame as
            one stack."""
            sts = [live[r] for r in rows]
            world = np.array([pts[r] if st.frame is None else st.frame.apply(pts[r])
                              for r, st in zip(rows, sts)])
            return layer(world, sts)

        rows = [r for r, st in enumerate(live) if st.error is None]
        try:
            grads = dict(zip(rows, grads_of(rows)))
        except Exception:   # each row alone, so only the rows that raise alone fail
            grads = each(lambda r, st: grads_of([r])[0])
        delta = np.zeros_like(x_hat)

        def displace(r, st):
            ref_step = float(np.sqrt(np.mean(
                np.sum(tweedie_disp[r].reshape(-1, 3) ** 2, axis=1))))
            grad = grads[r]
            if st.frame is not None:
                grad = grad @ st.frame.rotation   # rotate back to the sampling frame
            delta[r] = (-lam * gradient_normalize(grad, ref_step)).ravel()

        each(displace)
        return delta

    return guide


def sample_guided(model: ScoreModel, ctx: GuidanceContext,
                  schedule: NoiseSchedule, gsched: GuidanceSchedule,
                  template: AtomicModel, seeds):
    """Draw one density-guided sample per seed of the sequence `seeds` as one
    lockstep batch, onto the template's atoms, whose atomic numbers are the
    splat amplitudes; returns a list with, per seed, the map-frame model and
    its stats, or the exception that failed that sample alone.  One info
    line gives the batch's wall time in each stage.
    """
    if len(template) != model.n_atoms:
        raise ValueError(f"template has {len(template)} atoms, "
                         f"model expects {model.n_atoms}")
    if ctx.reference is not None and len(ctx.reference) != model.n_atoms:
        raise ValueError(f"reference has {len(ctx.reference)} atoms, "
                         f"model expects {model.n_atoms}")
    if gsched.n_steps != schedule.n_steps:
        raise ValueError(f"guidance stages sum to {gsched.n_steps}, "
                         f"schedule has {schedule.n_steps} steps")
    seeds = list(seeds)
    stats = [SampleStats() for _ in seeds]
    guide = _make_multiscale_guide(ctx, gsched, template.atomic_numbers(), stats)
    x, _, step_s = _integrate(model, schedule, seeds, guide=guide, stats=stats)
    stages = np.split(step_s, np.cumsum([gsched.t_warm, gsched.t_global, gsched.t_local]))
    log.info("batch of %d samples: warm-up %.3f s, global %.3f s, local %.3f s, relax %.3f s",
             len(seeds), *(part.sum() for part in stages))
    models = []
    for row, st in zip(x, stats):
        if st.error is None:
            coords = row.reshape(-1, 3)
            if st.frame is not None:
                coords = st.frame.apply(coords)
            models.append((template.with_coords(coords), st))
        else:
            models.append(None)
    return _outcomes(models, stats)


def gaussian_posterior_guidance(prior: GaussianMixturePrior,
                                observation: np.ndarray, obs_std: float):
    """Exact likelihood-score guidance for a single-mode Gaussian prior.

    For an observation y = x0 + N(0, obs_std^2 I) of the clean coordinates,
    the likelihood score at noise level sigma is available in closed form,
    and adding (sigma_hat - sigma_next)*sigma_hat times it to each
    update turns the unguided reverse process into the exact posterior one.
    Used to validate the guidance injection point against analytic oracles.
    """
    if len(prior.taus) != 1:
        raise ValueError("exact posterior guidance requires a single-mode prior")
    tau = float(prior.taus[0])
    y = np.asarray(observation, dtype=np.float64).ravel()
    s_obs2 = float(obs_std) ** 2

    def guide(i, x_hat, tweedie_disp, s_hat, s_next):
        c = tau ** 2 / (tau ** 2 + s_hat ** 2)
        v = tau ** 2 * s_hat ** 2 / (tau ** 2 + s_hat ** 2)
        g = c * (y - x_hat) / (v + s_obs2)
        return (s_hat - s_next) * s_hat * g

    return guide
