"""The benchmark's workloads: inputs made from a seed, one timed end-to-end
call each, and the checks on that call's outputs.

Every workload writes its inputs as files under a work directory and hands
cryoguide only those files (or the config that names them).  The call goes
through module attributes (``pipeline.run_guided``, ``volume.read_mrc``, ...)
so that a traced run, which swaps those attributes for timed wrappers, sees it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from cryoguide import forward, metrics, pipeline, pointcloud, priors, structure, volume
from cryoguide.alignment import rotation_about
from cryoguide.config import RunConfig

RESOLUTION = 2.0


@dataclass
class Outcome:
    """What one end-to-end call produced, and how its checks went."""
    samples: int = 0
    failed_samples: int = 0
    rmsd: list[float] = field(default_factory=list)
    rscc: list[float] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.samples + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_samples + sum(not ok for ok in self.checks.values())


def _jittered_grid(model, rng: np.random.Generator, pad: float = 4.0):
    """Grid around `model` with its origin shifted by a seeded sub-voxel offset,
    so each seed voxelizes the same structure differently."""
    grid = forward.grid_for_model(model, voxel_size=1.0, pad=pad)
    return replace(grid, origin=grid.origin - rng.uniform(0.0, 1.0, 3))


def _stages(n_steps: int) -> dict:
    """Config fields for the guidance stages: the synthetic preset at its own
    200 steps, else the same 5:1:1:1 split scaled to `n_steps` (smoke runs)."""
    if n_steps == 200:
        return dict(schedule_kind="synthetic")
    t = n_steps // 8
    return dict(schedule_kind="custom", t_warm=n_steps - 3 * t, t_global=t,
                t_local=t, t_relax=t)


def _raw_rmsd(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


class _GuidedWorkload:
    """Shared call and output reading for the two `pipeline.run_guided` workloads."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.cfg: RunConfig | None = None

    def call(self, outdir: str, item: int) -> list:
        # one input per run, so every call is the same and `item` is unused
        return pipeline.run_guided(replace(self.cfg, outdir=outdir))

    def _base_outcome(self, records) -> tuple[Outcome, list]:
        out = Outcome(samples=len(records))
        ok = [r for r in records if r.status == "ok"]
        out.failed_samples = len(records) - len(ok)
        out.rscc = [r.rscc for r in ok]
        return out, [structure.read_pdb(r.path) for r in ok]


class GuidedDemo(_GuidedWorkload):
    """Criterion-01 demo: two-mode chain prior, map of the minority mode."""

    name = "guided-demo"
    RUN_SEED = 0         # criterion 01's sampling seed

    def __init__(self, workdir: str, seed: int, n_samples: int = 3,
                 n_steps: int = 200):
        super().__init__(workdir, seed)
        self.n_samples = n_samples
        self.n_steps = n_steps

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        prior, _ = priors.two_mode_chain_prior()
        self.majority = priors.chain_template(prior.mode_coords(0))
        self.minority = priors.chain_template(prior.mode_coords(1))
        dmap = forward.simulate_map(self.minority, _jittered_grid(self.minority, rng),
                                    RESOLUTION)
        map_path = os.path.join(self.workdir, "minority.mrc")
        ref_path = os.path.join(self.workdir, "minority.pdb")
        volume.write_mrc(dmap, map_path)
        structure.write_pdb(self.minority, ref_path)
        self.cfg = RunConfig(map=map_path, reference=ref_path, prior="chain-two-mode",
                             sigma_min=0.064, sigma_max=2560.0, churn=0.4,
                             reach=40.0, n_steps=self.n_steps, k_points=7,
                             register=False, n_samples=self.n_samples,
                             n_replicates=1, seed=self.RUN_SEED,
                             **_stages(self.n_steps))

    def check(self, records) -> Outcome:
        out, models = self._base_outcome(records)
        out.rmsd = [r.rmsd for r in records if r.status == "ok"]
        # criterion 01: a sample hits when it is closer to the minority mode
        # than to the majority one, and at least 90 % of samples must hit
        hits = sum(metrics.evaluate(m, self.minority).rmsd_all
                   < metrics.evaluate(m, self.majority).rmsd_all for m in models)
        out.checks["minority_hits_90pct"] = hits >= 0.9 * out.samples
        out.counts["minority_hits"] = hits
        return out


class RegisteredDock(_GuidedWorkload):
    """Registration set-up: the map shows the truth rigidly displaced, so the
    pipeline must dock a reference into it before guiding."""

    name = "registered-dock"
    RUN_SEED = 3         # test_registration.py's sampling seed
    RMSD_LIMIT = 2.5

    def __init__(self, workdir: str, seed: int, n_samples: int = 2,
                 n_steps: int = 200):
        super().__init__(workdir, seed)
        self.n_samples = n_samples
        self.n_steps = n_steps

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        prior, _ = priors.single_mode_chain_prior()
        anchor = prior.mode_coords(0)
        r = rotation_about(np.array([0.3, 1.0, -0.2]), 25.0)
        com = anchor.mean(axis=0)
        self.truth = (anchor - com) @ r.T + com + np.array([8.0, -5.0, 6.0])
        truth_model = priors.chain_template(self.truth)
        dmap = forward.simulate_map(truth_model, _jittered_grid(truth_model, rng),
                                    RESOLUTION)
        map_path = os.path.join(self.workdir, "displaced.mrc")
        volume.write_mrc(dmap, map_path)
        self.cfg = RunConfig(map=map_path, prior="chain-single",
                             sigma_min=0.064, sigma_max=2560.0, churn=0.4,
                             n_steps=self.n_steps, k_points=7, register=True,
                             n_samples=self.n_samples, n_replicates=1,
                             seed=self.RUN_SEED, **_stages(self.n_steps))

    def check(self, records) -> Outcome:
        out, models = self._base_outcome(records)
        out.rmsd = [_raw_rmsd(m.coords(), self.truth) for m in models]
        for j, d in enumerate(out.rmsd):
            out.checks[f"sample{j}_raw_rmsd"] = d < self.RMSD_LIMIT
        return out


def protein_like_model(rng: np.random.Generator, n_chains: int, n_residues: int,
                       box: float) -> structure.AtomicModel:
    """Chains of N/CA/C/O residues whose CA trace is a 3.8 A random walk folded
    back into a `box`-sided cube; every 16th residue carries an SG in place of
    its O, so the model has some sulfur."""
    atoms = []
    for c in range(n_chains):
        chain = "ABCDEFGHIJ"[c]
        ca = rng.uniform(0.2 * box, 0.8 * box, 3)
        for i in range(n_residues):
            if i:
                step = rng.standard_normal(3)
                ca = box - np.abs(box - np.abs(ca + 3.8 * step / np.linalg.norm(step)))
            u = rng.standard_normal((3, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            n, c_ = ca + 1.46 * u[0], ca + 1.52 * u[1]
            sulfur = i % 16 == 7
            last = ("S", "SG", c_ + 1.81 * u[2]) if sulfur else ("O", "O", c_ + 1.23 * u[2])
            res_name = "CYS" if sulfur else "ALA"
            for element, name, pos in (("N", "N", n), ("C", "CA", ca), ("C", "C", c_), last):
                atoms.append(structure.Atom(element=element, pos=pos, chain_id=chain,
                                            res_index=i + 1, res_name=res_name,
                                            atom_name=name))
    return structure.AtomicModel(tuple(atoms), provenance="perfbench")


class MapScore:
    """Map preparation and decoy scoring at 5k-atom scale: no transport, no
    docking and no sampler."""

    name = "map-score"
    BLUR = 0.5
    STEP = 0.15          # per-axis perturbation added per decoy rank (A)
    PDB_TOL = 1e-3
    # Models per run, one per call in turn.  One pass took 4.2 to 5.6 s from
    # model to model, mostly in k-means, so a run's median over several
    # models moves less from seed to seed than one model's would.
    N_MODELS = 4

    def __init__(self, workdir: str, seed: int, n_chains: int = 4,
                 n_residues: int = 300, box: float = 47.0, k: int = 8,
                 n_decoys: int = 8):
        self.workdir = workdir
        self.seed = seed
        self.n_chains, self.n_residues, self.box = n_chains, n_residues, box
        self.k = k
        self.n_decoys = n_decoys

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for j in range(self.N_MODELS):
            model = protein_like_model(rng, self.n_chains, self.n_residues, self.box)
            path = os.path.join(self.workdir, f"model{j}.pdb")
            structure.write_pdb(model, path)
            grid = _jittered_grid(model, rng)
            noise = [self.STEP * (i + 1) * rng.standard_normal((len(model), 3))
                     for i in range(self.n_decoys)]
            self.inputs.append((path, grid, noise))

    def call(self, outdir: str, item: int) -> dict:
        model_path, grid, noise = self.inputs[item % self.N_MODELS]
        os.makedirs(outdir, exist_ok=True)
        model = structure.read_pdb(model_path)
        sim = forward.simulate_map(model, grid, RESOLUTION,
                                   forward.BlurOperator(self.BLUR))
        map_path = os.path.join(outdir, "model.mrc")
        volume.write_mrc(sim, map_path)
        dmap = volume.read_mrc(map_path)
        level = 0.05 * float(dmap.data.max())
        prepped = volume.threshold(dmap, level)
        prepped = volume.dust(prepped, 10)
        prepped = volume.crop_pad(prepped, level, 2)
        prepped = volume.mask_near_model(prepped, model, 3.0)
        cloud = pointcloud.extract_pointcloud(prepped, self.k, seed=self.seed)
        coords = model.coords()
        paths = []
        for i, n in enumerate(noise):
            paths.append(os.path.join(outdir, f"decoy{i}.pdb"))
            structure.write_pdb(model.with_coords(coords + n), paths[-1])
        decoys = [structure.read_pdb(p) for p in paths]
        order = metrics.rank_samples(decoys, prepped, RESOLUTION)
        reports = [metrics.evaluate(d, model, dmap=prepped, resolution=RESOLUTION)
                   for d in decoys]
        return dict(sim=sim, dmap=dmap, prepped=prepped, cloud=cloud, coords=coords,
                    noise=noise, decoys=decoys, order=order, reports=reports)

    def check(self, res: dict) -> Outcome:
        out = Outcome()
        reports = res["reports"]
        out.rmsd = [r.rmsd_all for r in reports]
        out.rscc = [r.rscc for r in reports]
        out.checks["mrc_roundtrip_bit_exact"] = bool(np.array_equal(
            res["dmap"].data, res["sim"].data.astype(np.float32)))
        out.checks["pdb_roundtrip_1e-3"] = all(
            np.max(np.abs(d.coords() - (res["coords"] + n))) <= self.PDB_TOL
            for d, n in zip(res["decoys"], res["noise"]))
        out.checks["rscc_falls_with_perturbation"] = (
            res["order"] == list(range(self.n_decoys))
            and all(a > b for a, b in zip(out.rscc, out.rscc[1:])))
        out.checks["cloud_weights_sum_to_1"] = bool(abs(res["cloud"].weights.sum() - 1.0) < 1e-12)
        out.counts["k"] = self.k
        out.counts["positive_voxels"] = int((res["prepped"].data > 0).sum())
        return out


WORKLOADS = {w.name: w for w in (GuidedDemo, RegisteredDock, MapScore)}
