"""Diffusion sampling engine with staged density guidance.

Variance-exploding iterated denoising over a Karras-style sigma ladder.
Each step makes exactly one score evaluation; guidance displacements are
added to the post-denoising update, evaluated at the Tweedie estimate.
The guided run has four stages: warm-up (no guidance), global (point-cloud
transport gradient), local (voxel density gradient), relax (no guidance).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .alignment import RigidTransform, kabsch
from .forward import BlurOperator, density_loss_grad_coords
from .pointcloud import PointCloud
from .structure import AtomicModel
from .transport import SinkhornConfig, TransportPlan, divergence_grad
from .volume import DensityMap


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

    def sigmas(self) -> np.ndarray:
        """Strictly decreasing levels, length n_steps + 1, terminal 0."""
        i = np.arange(self.n_steps)
        inv = 1.0 / self.rho
        u = (self.sigma_max ** inv
             + i / (self.n_steps - 1) * (self.sigma_min ** inv - self.sigma_max ** inv))
        return np.concatenate([u ** self.rho, [0.0]])


def _logsumexp(a: np.ndarray) -> np.floating:
    """`scipy.special.logsumexp(a)` of a 1-D float64 array, bit for bit.

    SciPy 1.17's formula without its array-API dispatch, which on the
    prior's few modes costs several times the arithmetic: the maximal
    entries are counted in m and left out of the sum.  A non-finite result is recomputed as
    log(sum(exp(a))), as SciPy does.  Call it with divide, overflow and
    invalid-value warnings off, as SciPy runs it.
    """
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
    out = np.log1p(s / m) + np.log(m) + a_max
    if not np.isfinite(out):
        return np.log(np.sum(np.exp(a)))
    return out


class ScoreModel(abc.ABC):
    """Noised-score interface: grad_x log p_sigma(x)."""

    n_atoms: int

    @abc.abstractmethod
    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Score of the sigma-noised distribution at flat coordinates x."""


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
            if tau <= 0:
                raise ValueError(f"mode std must be positive, got {tau}")
            if weight <= 0:
                raise ValueError(f"mode weight must be positive, got {weight}")
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
        x = np.asarray(x, dtype=np.float64).ravel()
        dim = x.size
        s2 = self.taus ** 2 + sigma ** 2
        # a diverged x gives a non-finite score, which tweedie_estimate reports
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            logs = (self._log_weights
                    - 0.5 * np.sum((x[None, :] - self.means) ** 2, axis=1) / s2
                    - 0.5 * dim * np.log(s2))
            r = np.exp(logs - _logsumexp(logs))
            return ((r / s2)[:, None] * (self.means - x[None, :])).sum(axis=0)

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
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

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
    """Read-only inputs shared by every guided sample of a replicate."""
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
    ot_cross_solves: int = 0              # Sinkhorn cross-term solves
    ot_cross_iterations: int = 0          # their iterations, summed
    ot_cross_unconverged: int = 0         # those that hit max_iters

    def record_cross_plan(self, plan: TransportPlan) -> None:
        self.ot_cross_solves += 1
        self.ot_cross_iterations += plan.iterations
        self.ot_cross_unconverged += not plan.converged


def tweedie_estimate(x: np.ndarray, sigma: float, model: ScoreModel) -> np.ndarray:
    """Denoised posterior-mean estimate x + sigma^2 * score(x, sigma)."""
    s = model.score(x, sigma)
    if not np.all(np.isfinite(s)):
        raise SamplingError(f"non-finite score at sigma={sigma:.6g}")
    return x + sigma ** 2 * s


def gradient_normalize(grad: np.ndarray, reference_step: float) -> np.ndarray:
    """Rescale per-atom gradient vectors to RMS magnitude `reference_step`.

    Guidance strengths are dimensionless; tying the gradient scale to the
    denoiser's own displacement makes them transferable across systems.
    Zero gradient passes through unchanged.
    """
    g = np.asarray(grad, dtype=np.float64)
    rms = np.sqrt(np.mean(np.sum(g.reshape(-1, 3) ** 2, axis=1)))
    if rms == 0:
        return g
    return g * (reference_step / rms)


def _integrate(model: ScoreModel, schedule: NoiseSchedule, seed, guide=None,
               stats: SampleStats | None = None) -> np.ndarray:
    """Reverse-process integration; one score evaluation per step.

    `guide(i, xhat, tweedie_disp, sigma_hat, sigma_next)` may return a
    displacement (added to the updated state) or None when inactive.
    """
    sigmas = schedule.sigmas()
    rng = np.random.default_rng(seed)
    n_dim = model.n_atoms * 3
    x = rng.standard_normal(n_dim) * sigmas[0]
    for i in range(len(sigmas) - 1):
        s, s_next = sigmas[i], sigmas[i + 1]
        gamma = schedule.churn if s > schedule.churn_floor else 0.0
        s_hat = s * (1.0 + gamma)
        if gamma > 0:
            x = x + np.sqrt(s_hat ** 2 - s ** 2) * rng.standard_normal(n_dim)
        x_hat = tweedie_estimate(x, s_hat, model)
        if stats is not None:
            stats.score_evals += 1
        x_next = x + (s_next - s_hat) / s_hat * (x - x_hat)
        if guide is not None:
            delta = guide(i, x_hat, x - x_hat, s_hat, s_next)
            if delta is not None:
                x_next = x_next + np.asarray(delta).ravel()
        if not np.all(np.isfinite(x_next)):
            raise SamplingError(
                f"non-finite coordinates at step {i} (sigma={s:.6g})")
        x = x_next
    return x


def sample_unguided(model: ScoreModel, schedule: NoiseSchedule = NoiseSchedule(),
                    seed=0) -> np.ndarray:
    """Draw one unguided sample; returns (n_atoms, 3) coordinates."""
    return _integrate(model, schedule, seed).reshape(-1, 3)


def _make_multiscale_guide(ctx: GuidanceContext, gsched: GuidanceSchedule,
                           amps: np.ndarray, stats: SampleStats):
    """Build the staged guidance hook for one trajectory.

    At entry to the global stage the denoised estimate is superposed onto the
    docked reference (when one is provided); gradients are then evaluated in
    the map frame and rotated back into the sampling frame.
    """
    t_w, t_g, t_l = gsched.t_warm, gsched.t_global, gsched.t_local

    def guide(i, x_hat, tweedie_disp, s_hat, s_next):
        if not (t_w <= i < t_w + t_g + t_l):
            return None
        pts = x_hat.reshape(-1, 3)
        if i == t_w and ctx.reference is not None:
            stats.frame, _ = kabsch(pts, ctx.reference)
        frame = stats.frame
        world = frame.apply(pts) if frame is not None else pts
        ref_step = float(np.sqrt(np.mean(
            np.sum(tweedie_disp.reshape(-1, 3) ** 2, axis=1))))
        if i < t_w + t_g:
            lam = lambda_global(i - t_w, gsched)
            if lam == 0.0:
                return None
            grad = divergence_grad(PointCloud(world), ctx.target_cloud,
                                   ctx.sinkhorn,
                                   on_cross_plan=stats.record_cross_plan)
            stats.global_evals += 1
        else:
            lam = gsched.lambda_local
            if lam == 0.0:
                return None
            grad = density_loss_grad_coords(world, amps, ctx.target_map,
                                            ctx.resolution, ctx.blur)
            stats.local_evals += 1
        if frame is not None:
            grad = grad @ frame.rotation   # rotate back to the sampling frame
        return (-lam * gradient_normalize(grad, ref_step)).ravel()

    return guide


def sample_guided(model: ScoreModel, ctx: GuidanceContext,
                  schedule: NoiseSchedule, gsched: GuidanceSchedule,
                  template: AtomicModel, seed=0
                  ) -> tuple[AtomicModel, SampleStats]:
    """Draw one density-guided sample onto the template's atoms, whose atomic
    numbers are the splat amplitudes; returns the map-frame model and stats."""
    if len(template) != model.n_atoms:
        raise ValueError(f"template has {len(template)} atoms, "
                         f"model expects {model.n_atoms}")
    if gsched.n_steps != schedule.n_steps:
        raise ValueError(f"guidance stages sum to {gsched.n_steps}, "
                         f"schedule has {schedule.n_steps} steps")
    stats = SampleStats()
    guide = _make_multiscale_guide(ctx, gsched, template.atomic_numbers(), stats)
    coords = _integrate(model, schedule, seed, guide=guide, stats=stats).reshape(-1, 3)
    if stats.frame is not None:
        coords = stats.frame.apply(coords)
    return template.with_coords(coords), stats


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


def sample_with_guide(model: ScoreModel, schedule: NoiseSchedule, seed,
                      guide) -> np.ndarray:
    """Draw one sample under an arbitrary guidance hook; (n_atoms, 3) output."""
    return _integrate(model, schedule, seed, guide=guide).reshape(-1, 3)
