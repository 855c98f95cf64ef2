"""Replicate orchestration for guided and unguided sampling runs.

Produces `<outdir>/rep<k>/sample<j>.pdb`, a tab-separated manifest with one
row per sample, and a per-replicate best-of-N summary.  Per-sample RNG
streams are derived from (seed, replicate, sample), so serial and parallel
executions emit identical files.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .alignment import dock_to_map
from .config import ConfigError, RunConfig
from .metrics import evaluate, rscc
from .pointcloud import cluster_count, extract_pointcloud
from .priors import chain_template, single_mode_chain_prior, two_mode_chain_prior
from .forward import BlurOperator
from .sampler import GuidanceContext, SampleStats, sample_guided, sample_unguided
from .structure import read_pdb, write_pdb
from .volume import DensityMap, read_mrc

log = logging.getLogger(__name__)

WORKERS_ENV = "CRYOGUIDE_WORKERS"


@dataclass
class SampleRecord:
    replicate: int
    index: int
    seed_key: str
    path: str
    status: str            # "ok" or an error message
    rscc: float | None
    rmsd: float | None


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {n}")
    return n


def _check_run_shape(cfg: RunConfig) -> None:
    """Reject a run shape that makes no samples, before any file is written."""
    for key, least in (("n_samples", 1), ("n_replicates", 1), ("dock_rotations", 0)):
        value = getattr(cfg, key)
        if value < least:
            raise ConfigError(f"{key} must be >= {least}, got {value}")


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


def build_context(cfg: RunConfig, dmap: DensityMap, prior, rep: int
                  ) -> GuidanceContext:
    """Assemble the guidance inputs for one replicate: point cloud, blur, and —
    when registration is on — an unguided reference docked into the map.

    The reference draws from the RNG stream one past the sample indices.
    """
    k = cfg.k_points or cluster_count(prior.n_atoms, dmap.voxel_size)
    cloud = extract_pointcloud(dmap, k, seed=cfg.seed)
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


def _run_one(task):
    """One sample and its `SampleStats`, guided unless the task has no guidance
    context (then the stats are None); any failure is returned, not raised, so
    that it fails this sample alone and the serial and the pooled map record it
    the same way."""
    prior, template, ctx, schedule, gsched, seed = task
    try:
        if ctx is None:
            return template.with_coords(sample_unguided(prior, schedule, seed)), None
        return sample_guided(prior, ctx, schedule, gsched, template, seed)
    except Exception as exc:
        # the traceback does not survive the trip back from a worker process
        log.debug("sample failed", exc_info=True)
        return exc


def _submit(pool: ProcessPoolExecutor, task) -> Future:
    """Submit one sample; a pool already broken gives a future holding that error."""
    try:
        return pool.submit(_run_one, task)
    except BrokenProcessPool as exc:
        failed = Future()
        failed.set_exception(exc)
        return failed


def _map_samples(tasks, workers: int):
    """Each task's result or failure, in task order, from `workers` processes.

    One pool serves one replicate.  If a worker process dies, every task the
    pool has not finished yields a RuntimeError in place of its result, and
    the next replicate starts a fresh pool.
    """
    if workers == 1:
        yield from map(_run_one, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [_submit(pool, task) for task in tasks]
        for fut in futures:
            try:
                yield fut.result()
            except BrokenProcessPool as exc:
                yield RuntimeError(f"worker process died: {exc}")


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
    # both commands reject invalid guidance settings, though sample uses none
    gsched = cfg.guidance_schedule()
    if guided and gsched.n_steps != schedule.n_steps:
        raise ConfigError(f"guidance stages sum to {gsched.n_steps}, "
                          f"n_steps = {schedule.n_steps}")

    os.makedirs(cfg.outdir, exist_ok=True)
    records: list[SampleRecord] = []
    workers = _worker_count()

    for rep in range(cfg.n_replicates):
        rep_dir = os.path.join(cfg.outdir, f"rep{rep}")
        os.makedirs(rep_dir, exist_ok=True)
        ctx = build_context(cfg, dmap, prior, rep) if guided else None
        tasks = ((prior, template, ctx, schedule, gsched,
                  _sample_seed(cfg.seed, rep, j))
                 for j in range(cfg.n_samples))
        for j, out in enumerate(_map_samples(tasks, workers)):
            seed_key = f"{cfg.seed}:{rep}:{j}"
            if isinstance(out, Exception):
                log.warning("rep %d sample %d failed: %s", rep, j, out)
                records.append(SampleRecord(rep, j, seed_key, "", str(out),
                                            None, None))
                continue
            model, stats = out
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
    """Density-guided run against `cfg.map`, one guidance context per replicate."""
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
