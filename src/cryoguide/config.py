"""Flat key=value run configuration with command-line overrides.

Every sampling / guidance constant lives here so a single text file plus a
seed reproduces a run byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .sampler import GuidanceSchedule, NoiseSchedule, make_schedule
from .transport import SinkhornConfig


@dataclass
class RunConfig:
    # inputs (paths; empty string = not supplied)
    map: str = ""
    reference: str = ""
    template: str = ""
    outdir: str = "out"

    # prior: "chain-two-mode" or "chain-single"
    prior: str = "chain-two-mode"
    prior_hinge_deg: float = 72.0
    prior_tau: float = 1.0
    prior_minor_weight: float = 0.05

    # noise schedule
    sigma_min: float = 0.004
    sigma_max: float = 160.0
    rho: float = 7.0
    n_steps: int = 200
    churn: float = 0.0
    churn_floor: float = 0.05

    # guidance stages: preset kind, or "custom" using the t_* fields
    schedule_kind: str = "synthetic"
    t_warm: int = 125
    t_global: int = 25
    t_local: int = 25
    t_relax: int = 25
    lambda_global_start: float = 0.25
    lambda_global_end: float = 0.05
    lambda_local: float = 0.5

    # forward model / transport
    resolution: float = 2.0
    blur_sigma: float = 0.0
    epsilon: float = 1.0
    reach: float = 10.0
    sinkhorn_max_iters: int = 500
    sinkhorn_tol: float = 1e-6
    k_points: int = 0          # 0 = derive from atom count and voxel size

    # registration protocol
    register: bool = False
    dock_rotations: int = 576

    # run shape
    n_samples: int = 25
    n_replicates: int = 3
    seed: int = 0

    def noise_schedule(self) -> NoiseSchedule:
        return NoiseSchedule(sigma_min=self.sigma_min, sigma_max=self.sigma_max,
                             rho=self.rho, n_steps=self.n_steps,
                             churn=self.churn, churn_floor=self.churn_floor)

    def guidance_schedule(self) -> GuidanceSchedule:
        """Guidance stages and strengths.  An unknown schedule kind, a
        negative stage, or a negative or NaN strength is a ConfigError.  That
        the stages add up to n_steps is left to the guided run, the one that
        uses them."""
        try:
            if self.schedule_kind == "custom":
                stages = (self.t_warm, self.t_global, self.t_local, self.t_relax)
            else:
                base = make_schedule(self.schedule_kind)
                stages = (base.t_warm, base.t_global, base.t_local, base.t_relax)
            return GuidanceSchedule(*stages,
                                    lambda_global_start=self.lambda_global_start,
                                    lambda_global_end=self.lambda_global_end,
                                    lambda_local=self.lambda_local)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def sinkhorn_config(self) -> SinkhornConfig:
        reach = self.reach if self.reach > 0 else None
        return SinkhornConfig(epsilon=self.epsilon, reach=reach,
                              max_iters=self.sinkhorn_max_iters,
                              tol=self.sinkhorn_tol)


class ConfigError(ValueError):
    pass


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_STAGE_KEYS = ("t_warm", "t_global", "t_local", "t_relax")


def _coerce(key: str, text: str):
    typ = _FIELD_TYPES[key]
    text = text.strip()
    if typ == "bool":
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    convert = {"int": int, "float": float}.get(typ, str)
    try:
        value = convert(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {typ}, got {text!r}") from None
    if value != value:  # NaN
        raise ConfigError(f"{key}: expected a number, got {text!r}")
    return value


def apply_setting(cfg: RunConfig, key: str, value: str) -> None:
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    setattr(cfg, key, _coerce(key, value))


def load_config(path: str | None = None, overrides=()) -> RunConfig:
    """Parse `key = value` lines (# comments allowed), then apply overrides.
    The t_* keys are read only under schedule_kind = custom; under a preset
    they are an error, not a value silently dropped."""
    pairs = []
    if path is not None:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, "
                                      f"got {raw.rstrip()!r}")
                pairs.append(line.split("=", 1))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        pairs.append(item.split("=", 1))
    cfg = RunConfig()
    for key, value in pairs:
        apply_setting(cfg, key.strip(), value)
    given = {key.strip() for key, _ in pairs}
    stage_keys = [key for key in _STAGE_KEYS if key in given]
    if stage_keys and cfg.schedule_kind != "custom":
        raise ConfigError(f"{', '.join(stage_keys)} only apply to schedule_kind = "
                          f"custom, not {cfg.schedule_kind!r}")
    return cfg
