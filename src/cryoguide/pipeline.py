"""Replicate orchestration for guided and unguided sampling runs.

Produces `<outdir>/rep<k>/sample<j>.pdb`, a tab-separated manifest with one
row per sample, and a per-replicate best-of-N summary.  Per-sample RNG
streams are derived from (seed, replicate, sample), so a config and its
seed reproduce the same files.  A replicate's samples are drawn in this
process as one lockstep batch (see `sampler`), and each sample's bytes are
those it has when drawn alone.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .alignment import dock_to_map
from .config import ConfigError, RunConfig
from .metrics import evaluate, rscc
from .pointcloud import cluster_count, extract_pointcloud
from .priors import chain_template, single_mode_chain_prior, two_mode_chain_prior
from .forward import BlurOperator
from .sampler import (GuidanceContext, NoiseSchedule, SampleStats, sample_guided,
                      sample_unguided)
from .structure import read_pdb, write_pdb
from .volume import read_mrc

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
    """The run's prior and its default chain template.  A prior_minor_weight
    outside (0, 1), a non-positive or infinite prior_tau or an infinite
    prior_hinge_deg is a ConfigError that names the key, whichever prior the
    run uses."""
    if not 0 < cfg.prior_minor_weight < 1:     # NaN fails too
        raise ConfigError(f"prior_minor_weight: minor mode weight must be in (0, 1), "
                          f"got {cfg.prior_minor_weight}")
    if not 0 < cfg.prior_tau < math.inf:
        raise ConfigError(f"prior_tau: mode std must be positive and finite, "
                          f"got {cfg.prior_tau}")
    if not math.isfinite(cfg.prior_hinge_deg):
        raise ConfigError(f"prior_hinge_deg: hinge_deg must be finite, "
                          f"got {cfg.prior_hinge_deg}")
    if cfg.prior == "chain-two-mode":
        return two_mode_chain_prior(hinge_deg=cfg.prior_hinge_deg, tau=cfg.prior_tau,
                                    minor_weight=cfg.prior_minor_weight)
    if cfg.prior == "chain-single":
        return single_mode_chain_prior(tau=cfg.prior_tau)
    raise ConfigError(f"unknown prior {cfg.prior!r}")


def build_context(cfg: RunConfig, ctx: GuidanceContext, prior, schedule: NoiseSchedule,
                  rep: int) -> GuidanceContext:
    """One replicate's guidance context: the run's `ctx` itself, or, when
    registration is on, `ctx` with an unguided reference docked into its map.

    The reference is drawn on `schedule` from the RNG stream one past the
    sample indices; a reference that fails to draw raises.
    """
    if not cfg.register:
        return ctx
    [ref_coords] = sample_unguided(prior, schedule,
                                   [_sample_seed(cfg.seed, rep, cfg.n_samples)])
    if isinstance(ref_coords, Exception):
        raise ref_coords
    transform, score = dock_to_map(chain_template(ref_coords), ctx.target_map,
                                   ctx.resolution, n_rotations=cfg.dock_rotations,
                                   seed=cfg.seed)
    log.info("replicate %d: docked reference, score %.4f, rotation %.2f deg",
             rep, score, transform.angle_degrees())
    return replace(ctx, reference=transform.apply(ref_coords))


def _run(cfg: RunConfig, guided: bool) -> list[SampleRecord]:
    """Every replicate and sample, the manifest and the summary.

    Set up in one pass: every setting, built once and kept; the input files;
    one guidance context for every replicate; then the outputs.  A sample
    that fails to draw or to score, or every sample of a replicate whose
    dock fails, is logged and recorded with no PDB; the run only fails
    outright when nothing succeeds.
    """
    # both commands reject invalid guidance, transport and blur settings,
    # though sample uses none of them
    _check_run_shape(cfg)
    schedule = cfg.noise_schedule()
    gsched = cfg.guidance_schedule()
    sinkhorn = cfg.sinkhorn_config()
    try:
        blur = BlurOperator(sigma_b=cfg.blur_sigma)
    except ValueError as exc:
        raise ConfigError(f"blur_sigma: {exc}") from None
    prior, template = _prior_and_template(cfg)
    if guided and gsched.n_steps != schedule.n_steps:
        raise ConfigError(f"guidance stages sum to {gsched.n_steps}, "
                          f"n_steps = {schedule.n_steps}")
    if guided and not cfg.map:
        raise ConfigError("config needs a map path")

    if cfg.map and not os.path.exists(cfg.map):
        raise ConfigError(f"map file not found: {cfg.map}")
    dmap = read_mrc(cfg.map) if cfg.map else None
    if cfg.template:
        template = read_pdb(cfg.template)
        if len(template) != prior.n_atoms:
            raise ConfigError(f"template atom count {len(template)} does not "
                              f"match prior ({prior.n_atoms})")
    reference = read_pdb(cfg.reference) if cfg.reference else None
    if reference is not None:   # a sample pairs with it as the template does
        try:
            evaluate(template, reference)
        except ValueError as exc:
            raise ConfigError(f"reference: {exc}") from None

    run_ctx = None
    if guided:   # one cloud and one context serve every replicate
        k = cfg.k_points or cluster_count(prior.n_atoms, dmap.voxel_size)
        cloud = extract_pointcloud(dmap, k, seed=cfg.seed)
        run_ctx = GuidanceContext(target_map=dmap, target_cloud=cloud,
                                  resolution=cfg.resolution, sinkhorn=sinkhorn,
                                  blur=blur)

    os.makedirs(cfg.outdir, exist_ok=True)
    records: list[SampleRecord] = []
    for rep in range(cfg.n_replicates):
        rep_dir = os.path.join(cfg.outdir, f"rep{rep}")
        os.makedirs(rep_dir, exist_ok=True)
        seeds = [_sample_seed(cfg.seed, rep, j) for j in range(cfg.n_samples)]
        try:
            if guided:
                ctx = build_context(cfg, run_ctx, prior, schedule, rep)
                draws = sample_guided(prior, ctx, schedule, gsched, template, seeds)
            else:
                draws = [d if isinstance(d, Exception) else (template.with_coords(d), None)
                         for d in sample_unguided(prior, schedule, seeds)]
        except Exception as exc:    # a dock or the batch fails every sample
            draws = [exc] * cfg.n_samples
        for j, draw in enumerate(draws):
            seed_key = f"{cfg.seed}:{rep}:{j}"
            if not isinstance(draw, Exception):
                model, stats = draw
                try:    # a sample that cannot be scored, say off the map, fails
                    cc = rscc(model, dmap, cfg.resolution) if dmap is not None else None
                    rmsd = evaluate(model, reference).rmsd_all if reference else None
                except ValueError as exc:
                    draw = exc
            if isinstance(draw, Exception):     # fails this sample alone
                log.warning("rep %d sample %d failed: %s", rep, j, draw)
                log.debug("rep %d sample %d failed", rep, j, exc_info=draw)
                records.append(SampleRecord(rep, j, seed_key, "", str(draw),
                                            None, None))
                continue
            path = os.path.join(rep_dir, f"sample{j}.pdb")
            write_pdb(model, path)
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
    """Density-guided run against `cfg.map`: one point cloud and one guidance
    context per run; a replicate adds only its docked reference."""
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
            f" local, cross-term solves {stats.global_evals}"
            f" ({stats.ot_cross_iterations} iterations,"
            f" {stats.ot_cross_unconverged} unconverged), self-term solves"
            f" {stats.global_evals} ({stats.ot_self_iterations} iterations,"
            f" {stats.ot_self_unconverged} unconverged)")


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
