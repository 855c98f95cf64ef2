"""Registration protocol integration test.

A single-mode chain prior is anchored at the canonical pose while the target
map lives in a rigidly displaced frame.  With registration enabled the
pipeline must dock an unguided reference into the map, steer sampling in that
frame, and emit samples whose raw (unsuperposed) coordinates land on the
displaced structure.
"""

import numpy as np
import pytest

from cryoguide.alignment import rotation_about
from cryoguide.config import RunConfig
from cryoguide.forward import grid_for_model, simulate_map
from cryoguide.metrics import rscc
from cryoguide.pipeline import build_context, run_guided
from cryoguide.priors import chain_template, single_mode_chain_prior
from cryoguide.structure import read_pdb, write_pdb
from cryoguide.volume import write_mrc


def raw_rmsd(a, b):
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


@pytest.fixture(scope="module")
def displaced_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("register")
    prior, template = single_mode_chain_prior()
    anchor = prior.mode_coords(0)
    r = rotation_about(np.array([0.3, 1.0, -0.2]), 25.0)
    com = anchor.mean(axis=0)
    truth = (anchor - com) @ r.T + com + np.array([8.0, -5.0, 6.0])
    truth_model = chain_template(truth)
    grid = grid_for_model(truth_model, voxel_size=1.0, pad=4.0)
    dmap = simulate_map(truth_model, grid, resolution=2.0)
    write_mrc(dmap, root / "displaced.mrc")
    write_pdb(truth_model, root / "truth.pdb")
    return root, truth, dmap, prior


def registered_config(root, outdir):
    return RunConfig(
        map=str(root / "displaced.mrc"),
        outdir=str(outdir),
        prior="chain-single",
        sigma_min=0.064, sigma_max=2560.0,   # ladder matched to the demo scale
        churn=0.4,
        schedule_kind="synthetic", n_steps=200,
        k_points=7,
        register=True,
        n_samples=2, n_replicates=1, seed=3,
    )


class TestBuildContext:
    def test_registration_off_has_no_reference(self, displaced_setup):
        root, _, dmap, prior = displaced_setup
        cfg = registered_config(root, root / "ctx")
        cfg.register = False
        ctx = build_context(cfg, dmap, prior, rep=0)
        assert ctx.reference is None

    def test_registration_docks_reference(self, displaced_setup):
        root, truth, dmap, prior = displaced_setup
        cfg = registered_config(root, root / "ctx2")
        ctx = build_context(cfg, dmap, prior, rep=0)
        assert ctx.reference is not None and ctx.reference.shape == (30, 3)
        # the docked unguided reference sits near the displaced truth without
        # any further alignment (the prior is tight, tau = 1)
        assert raw_rmsd(ctx.reference, truth) < 2.5


class TestRegisteredRun:
    def test_guided_samples_land_in_map_frame(self, displaced_setup):
        root, truth, _, prior = displaced_setup
        outdir = root / "run"
        records = run_guided(registered_config(root, outdir))
        assert all(r.status == "ok" for r in records)
        anchor = prior.mode_coords(0)
        for r in records:
            sample = read_pdb(r.path).coords()
            # raw world-frame agreement with the displaced structure ...
            assert raw_rmsd(sample, truth) < 2.5
            # ... far better than staying at the prior's anchored pose
            assert raw_rmsd(sample, truth) < raw_rmsd(anchor, truth) / 3
        # the manifest rscc is computed against the displaced map in world
        # coordinates, so it separates registered from misregistered poses:
        # the anchor pose correlates at ~0 while a sample with ~1.5 A of
        # coordinate noise still lands near 0.2 at this resolution.
        anchor_rscc = rscc(chain_template(anchor), displaced_setup[2], 2.0)
        assert abs(anchor_rscc) < 0.05
        assert np.all([r.rscc > anchor_rscc + 0.05 for r in records])
