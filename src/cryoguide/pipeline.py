"""Replicate orchestration for guided and unguided sampling runs.

Produces `<outdir>/rep<k>/sample<j>.pdb`, a tab-separated manifest with one
row per sample, and a per-replicate best-of-N summary.  Per-sample RNG
streams are derived from (seed, replicate, sample), so a config and its
seed reproduce the same files.  Samples are drawn one after another in this
process.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .alignment import dock_to_map
from .config import ConfigError, RunConfig
from .metrics import evaluate, rscc
from .pointcloud import PointCloud, cluster_count, extract_pointcloud
from .priors import chain_template, single_mode_chain_prior, two_mode_chain_prior
from .forward import BlurOperator
from .sampler import GuidanceContext, SampleStats, sample_guided, sample_unguided
from .structure import read_pdb, write_pdb
from .volume import DensityMap, read_mrc

log = logging.getLogger(__name__)

@dataclass
class SampleRecord:
    replicate: int
    index: int
    seed_key: str
    path: str
    status: str            # "ok" or an error message
    rscc: float | None
    rmsd: float | None


def _check_run_shape(cfg: RunConfig) -> None:
    """Reject a run shape that makes no samples, a negative seed or cloud
    size, or a non-positive or infinite resolution, before any file is
    written."""
    for key, least in (("n_samples", 1), ("n_replicates", 1), ("dock_rotations", 0),
                       ("seed", 0), ("k_points", 0)):
        value = getattr(cfg, key)
        if value < least:
            raise ConfigError(f"{key} must be >= {least}, got {value}")
    if not cfg.resolution > 0:
        raise ConfigError(f"resolution must be > 0, got {cfg.resolution}")
    if math.isinf(cfg.resolution):
        raise ConfigError(f"resolution must be finite, got {cfg.resolution}")


def _sample_seed(cfg_seed: int, rep: int, j: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(cfg_seed, spawn_key=(rep, j))


def _prior_and_template(cfg: RunConfig):
    if cfg.prior == "chain-two-mode":
        prior, template = two_mode_chain_prior(hinge_deg=cfg.prior_hinge_deg,
                                               tau=cfg.prior_tau,
                                               minor_weight=cfg.prior_minor_weight)
    elif cfg.prior == "chain-single":
        prior, template = single_mode_chain_prior(tau=cfg.prior_tau)
    else:
        raise ConfigError(f"unknown prior {cfg.prior!r}")
    if cfg.template:
        template = read_pdb(cfg.template)
        if len(template) != prior.n_atoms:
            raise ConfigError(f"template atom count {len(template)} does not "
                              f"match prior ({prior.n_atoms})")
    return prior, template


def build_context(cfg: RunConfig, dmap: DensityMap, cloud: PointCloud, prior,
                  rep: int) -> GuidanceContext:
    """Assemble the guidance inputs for one replicate: the run's point cloud,
    blur, and — when registration is on — an unguided reference docked into
    the map.

    The reference draws from the RNG stream one past the sample indices.
    """
    blur = BlurOperator(sigma_b=cfg.blur_sigma)
    reference = None
    if cfg.register:
        ref_seed = _sample_seed(cfg.seed, rep, cfg.n_samples)
        ref_coords = sample_unguided(prior, cfg.noise_schedule(), ref_seed)
        ref_model = chain_template(ref_coords)
        transform, score = dock_to_map(ref_model, dmap, cfg.resolution,
                                       n_rotations=cfg.dock_rotations,
                                       seed=cfg.seed)
        reference = transform.apply(ref_coords)
        log.info("replicate %d: docked reference, score %.4f, rotation %.2f deg",
                 rep, score, transform.angle_degrees())
    return GuidanceContext(target_map=dmap, target_cloud=cloud,
                           resolution=cfg.resolution,
                           sinkhorn=cfg.sinkhorn_config(), blur=blur,
                           reference=reference)


def _run(cfg: RunConfig, guided: bool) -> list[SampleRecord]:
    """Every replicate and sample, the manifest and the summary.

    Per-sample failures are logged and recorded; the run only fails outright
    when nothing succeeds.
    """
    _check_run_shape(cfg)
    if guided and not cfg.map:
        raise ConfigError("config needs a map path")
    if cfg.map and not os.path.exists(cfg.map):
        raise ConfigError(f"map file not found: {cfg.map}")
    dmap = read_mrc(cfg.map) if cfg.map else None
    prior, template = _prior_and_template(cfg)
    reference = read_pdb(cfg.reference) if cfg.reference else None
    schedule = cfg.noise_schedule()
    # both commands reject invalid guidance, transport and blur settings,
    # though sample uses none of them
    gsched = cfg.guidance_schedule()
    cfg.sinkhorn_config()
    try:
        BlurOperator(sigma_b=cfg.blur_sigma)
    except ValueError as exc:
        raise ConfigError(f"blur_sigma: {exc}") from None
    if guided and gsched.n_steps != schedule.n_steps:
        raise ConfigError(f"guidance stages sum to {gsched.n_steps}, "
                          f"n_steps = {schedule.n_steps}")

    cloud = None
    if guided:   # one cloud serves every replicate
        k = cfg.k_points or cluster_count(prior.n_atoms, dmap.voxel_size)
        cloud = extract_pointcloud(dmap, k, seed=cfg.seed)

    os.makedirs(cfg.outdir, exist_ok=True)
    records: list[SampleRecord] = []
    for rep in range(cfg.n_replicates):
        rep_dir = os.path.join(cfg.outdir, f"rep{rep}")
        os.makedirs(rep_dir, exist_ok=True)
        ctx = build_context(cfg, dmap, cloud, prior, rep) if guided else None
        for j in range(cfg.n_samples):
            seed, seed_key = _sample_seed(cfg.seed, rep, j), f"{cfg.seed}:{rep}:{j}"
            try:
                if guided:
                    model, stats = sample_guided(prior, ctx, schedule, gsched, template, seed)
                else:
                    model = template.with_coords(sample_unguided(prior, schedule, seed))
                    stats = None
            except Exception as exc:    # fails this sample alone
                log.warning("rep %d sample %d failed: %s", rep, j, exc)
                log.debug("rep %d sample %d failed", rep, j, exc_info=True)
                records.append(SampleRecord(rep, j, seed_key, "", str(exc),
                                            None, None))
                continue
            path = os.path.join(rep_dir, f"sample{j}.pdb")
            write_pdb(model, path)
            cc = rscc(model, dmap, cfg.resolution) if dmap is not None else None
            rmsd = evaluate(model, reference).rmsd_all if reference else None
            records.append(SampleRecord(rep, j, seed_key, path, "ok", cc,
                                        rmsd))
            log.info("rep %d sample %d: rscc %s%s", rep, j, _fmt(cc) or "-",
                     _fmt_stats(stats))

    _write_manifest(cfg, records)
    _write_summary(cfg, records)
    if not any(r.status == "ok" for r in records):
        raise RuntimeError("all samples failed")
    return records


def run_guided(cfg: RunConfig) -> list[SampleRecord]:
    """Density-guided run against `cfg.map`: one point cloud per run, one
    guidance context per replicate."""
    return _run(cfg, guided=True)


def run_unguided(cfg: RunConfig) -> list[SampleRecord]:
    """Unguided baseline run; the map, when given, only scores the samples."""
    return _run(cfg, guided=False)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def _fmt_stats(stats: SampleStats | None) -> str:
    if stats is None:
        return ""
    return (f", guidance evals {stats.global_evals} global + {stats.local_evals}"
            f" local, cross-term solves {stats.ot_cross_solves}"
            f" ({stats.ot_cross_iterations} iterations,"
            f" {stats.ot_cross_unconverged} unconverged)")


def _write_manifest(cfg: RunConfig, records: list[SampleRecord]) -> None:
    path = os.path.join(cfg.outdir, "manifest.tsv")
    with open(path, "w") as fh:
        fh.write("replicate\tsample\tseed\tstatus\trscc\trmsd\n")
        for r in records:
            fh.write(f"{r.replicate}\t{r.index}\t{r.seed_key}\t{r.status}\t"
                     f"{_fmt(r.rscc)}\t{_fmt(r.rmsd)}\n")


def _write_summary(cfg: RunConfig, records: list[SampleRecord]) -> None:
    path = os.path.join(cfg.outdir, "summary.tsv")
    with open(path, "w") as fh:
        fh.write("replicate\tn_ok\tbest_sample\tbest_rscc\tbest_rmsd\n")
        for rep in range(cfg.n_replicates):
            ok = [r for r in records if r.replicate == rep and r.status == "ok"]
            if not ok:
                fh.write(f"{rep}\t0\t\t\t\n")
                continue
            best_sample, best_rscc = "", None
            if ok[0].rscc is not None:  # without a map nothing is ranked
                best = max(ok, key=lambda r: (r.rscc, -r.index))
                best_sample, best_rscc = best.index, best.rscc
            rmsds = [r.rmsd for r in ok if r.rmsd is not None]
            best_rmsd = min(rmsds) if rmsds else None
            fh.write(f"{rep}\t{len(ok)}\t{best_sample}\t{_fmt(best_rscc)}\t"
                     f"{_fmt(best_rmsd)}\n")
