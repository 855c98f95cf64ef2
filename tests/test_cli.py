"""Command-line interface tests (exercised through main(argv))."""

import logging
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cryoguide import pipeline, sampler
from cryoguide.cli import main
from cryoguide.config import ConfigError, load_config
from cryoguide.forward import BlurOperator, grid_for_model, simulate_map
from cryoguide.priors import chain_template, hinged_chain_modes
from cryoguide.sampler import GuidanceSchedule, NoiseSchedule, SamplingError
from cryoguide.structure import read_pdb, write_pdb
from cryoguide.transport import SinkhornConfig
from cryoguide.volume import read_mrc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared fixtures: a 30-bead chain PDB and its simulated 2 A map."""
    root = tmp_path_factory.mktemp("cli")
    model = chain_template(hinged_chain_modes()[0])
    pdb = root / "chain.pdb"
    write_pdb(model, pdb)
    assert main(["simulate-map", str(pdb), "-o", str(root / "chain.mrc"),
                 "--resolution", "2.0", "--voxel", "1.0", "--pad", "4.0"]) == 0
    return root


def base_config(workdir, outdir, extra=""):
    path = outdir / "run.cfg"
    path.write_text(
        f"map = {workdir / 'chain.mrc'}\n"
        f"outdir = {outdir / 'out'}\n"
        "n_steps = 40\n"
        "schedule_kind = custom\n"
        "t_warm = 25\n"
        "t_global = 5\n"
        "t_local = 5\n"
        "t_relax = 5\n"
        "n_samples = 2\n"
        "n_replicates = 2\n"
        "k_points = 7\n"
        "seed = 11\n"
        + extra)
    return path


def output_tree(outdir):
    """Every file under `outdir`, by relative path, with its bytes."""
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


BAD_GUIDANCE = [(["schedule_kind=bogus"], "unknown schedule kind 'bogus'"),
                (["lambda_local=-1"], "lambda_local must be >= 0, got -1.0"),
                (["lambda_global_start=-0.5"],
                 "lambda_global_start must be >= 0, got -0.5"),
                (["lambda_global_end=-2"], "lambda_global_end must be >= 0, got -2.0"),
                (["schedule_kind=custom", "t_warm=-1"], "t_warm must be >= 0"),
                (["lambda_local=inf"], "lambda_local must be finite, got inf"),
                (["lambda_global_start=inf"], "lambda_global_start must be finite, got inf"),
                (["lambda_global_end=inf"], "lambda_global_end must be finite, got inf"),
                # noise schedule and prior settings
                (["sigma_max=inf"], "sigma_max must be finite, got inf"),
                (["rho=inf"], "rho must be finite, got inf"),
                (["churn=inf"], "churn must be finite, got inf"),
                (["prior_tau=inf"], "mode std must be positive and finite, got inf"),
                (["prior_hinge_deg=inf"], "hinge_deg must be finite, got inf"),
                (["prior_tau=0"], "prior_tau: mode std must be positive and finite, got 0.0"),
                (["prior_minor_weight=inf"],
                 "prior_minor_weight: minor mode weight must be in (0, 1), got inf"),
                (["prior_minor_weight=0"],
                 "prior_minor_weight: minor mode weight must be in (0, 1), got 0.0"),
                (["prior_minor_weight=1"],
                 "prior_minor_weight: minor mode weight must be in (0, 1), got 1.0"),
                (["prior_minor_weight=-0.5"],
                 "prior_minor_weight: minor mode weight must be in (0, 1), got -0.5"),
                (["prior=chain-single", "prior_minor_weight=2"],
                 "prior_minor_weight: minor mode weight must be in (0, 1), got 2.0"),
                (["prior=chain-single", "prior_hinge_deg=-inf"],
                 "prior_hinge_deg: hinge_deg must be finite, got -inf"),
                (["churn=0.4", "churn_floor=inf"], "churn_floor must be >= 0 and finite, got inf"),
                (["churn_floor=-0.1"], "churn_floor must be >= 0 and finite, got -0.1"),
                # transport, forward-model and seed settings, checked as early
                (["reach=-5"], "reach must be >= 0 (0 = balanced), got -5.0"),
                (["epsilon=0"], "epsilon must be positive, got 0.0"),
                (["sinkhorn_max_iters=0"], "sinkhorn_max_iters must be >= 1, got 0"),
                (["sinkhorn_tol=-1"], "sinkhorn_tol must be >= 0 and finite, got -1.0"),
                (["sinkhorn_tol=inf"], "sinkhorn_tol must be >= 0 and finite, got inf"),
                (["epsilon=inf"], "epsilon must be finite, got inf"),
                (["seed=-1"], "seed must be >= 0, got -1"),
                (["k_points=-3"], "k_points must be >= 0, got -3"),
                (["resolution=0"], "resolution must be > 0, got 0.0"),
                (["resolution=inf"], "resolution must be finite, got inf"),
                (["blur_sigma=-1"], "blur_sigma: blur width must be finite and >= 0, got -1.0"),
                (["blur_sigma=inf"], "blur_sigma: blur width must be finite and >= 0, got inf")]

BAD_RUN_SHAPES = [("n_samples=0", "n_samples must be >= 1, got 0"),
                  ("n_replicates=0", "n_replicates must be >= 1, got 0"),
                  ("dock_rotations=-1", "dock_rotations must be >= 0, got -1")]


class TestSimulateMap:
    def test_matches_library_call(self, workdir):
        model = read_pdb(workdir / "chain.pdb")
        grid = grid_for_model(model, 1.0, 4.0)
        want = simulate_map(model, grid, 2.0)
        got = read_mrc(workdir / "chain.mrc")
        assert got.data.shape == want.data.shape
        np.testing.assert_allclose(got.data, want.data, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(got.origin, want.origin, atol=1e-5)

    def test_nonpositive_resolution_rejected_by_parser(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate-map", str(workdir / "chain.pdb"), "-o", "x.mrc",
                  "--resolution", "0"])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--pad", "nan"), ("--pad", "inf"), ("--pad", "-50"),
        ("--blur", "-1"), ("--blur", "nan"), ("--blur", "inf")])
    def test_bad_pad_or_blur_rejected_by_parser(self, workdir, tmp_path, capsys,
                                                flag, value):
        out = tmp_path / "x.mrc"
        with pytest.raises(SystemExit) as exc:
            main(["simulate-map", str(workdir / "chain.pdb"), "-o", str(out),
                  "--resolution", "2", flag, value])
        assert exc.value.code == 2
        assert "must be non-negative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_fails(self, workdir, tmp_path, capsys):
        rc = main(["simulate-map", str(tmp_path / "none.pdb"),
                   "-o", str(tmp_path / "x.mrc"), "--resolution", "2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPointcloud:
    def test_explicit_k(self, workdir, tmp_path):
        out = tmp_path / "cloud.tsv"
        assert main(["pointcloud", str(workdir / "chain.mrc"),
                     "-o", str(out), "-k", "7"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x\ty\tz\tweight"
        assert len(lines) == 8
        weights = [float(l.split("\t")[3]) for l in lines[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-4)

    def test_k_from_model(self, workdir, tmp_path):
        out = tmp_path / "cloud.tsv"
        assert main(["pointcloud", str(workdir / "chain.mrc"), "-o", str(out),
                     "--model", str(workdir / "chain.pdb")]) == 0
        # 30 atoms, 1 A voxels -> floor(30/4) = 7 centers
        assert len(out.read_text().splitlines()) == 8

    def test_requires_some_sizing(self, workdir, tmp_path, capsys):
        rc = main(["pointcloud", str(workdir / "chain.mrc"),
                   "-o", str(tmp_path / "c.tsv")])
        assert rc == 1
        assert "supply -k or --model" in capsys.readouterr().err

    def test_negative_k_rejected(self, workdir, tmp_path, capsys):
        rc = main(["pointcloud", str(workdir / "chain.mrc"),
                   "-o", str(tmp_path / "c.tsv"), "-k", "-3"])
        assert rc == 1
        assert "k must be >= 1, got -3" in capsys.readouterr().err
        assert not (tmp_path / "c.tsv").exists()


class TestScore:
    def test_identity_keyval(self, workdir, capsys):
        pdb = str(workdir / "chain.pdb")
        assert main(["score", pdb, pdb, "--keyval"]) == 0
        kv = dict(line.split("=") for line in
                  capsys.readouterr().out.strip().splitlines())
        assert float(kv["rmsd_all"]) == 0.0
        assert float(kv["tm_score"]) == 1.0
        assert kv["n_paired"] == "30"  # one CA bead per residue

    def test_with_map_and_local(self, workdir, capsys):
        pdb = str(workdir / "chain.pdb")
        assert main(["score", pdb, pdb, "--map", str(workdir / "chain.mrc"),
                     "--resolution", "2.0", "--local", "A:1:15",
                     "--keyval"]) == 0
        kv = dict(line.split("=") for line in
                  capsys.readouterr().out.strip().splitlines())
        assert float(kv["rscc"]) == pytest.approx(1.0, abs=1e-4)
        assert float(kv["rmsd_local"]) == 0.0

    def test_bad_local_spec(self, workdir, capsys):
        pdb = str(workdir / "chain.pdb")
        assert main(["score", pdb, pdb, "--local", "A:9"]) == 1
        assert "CHAIN:LO:HI" in capsys.readouterr().err


class TestAlign:
    def test_superposes_and_writes(self, workdir, tmp_path, capsys):
        model = read_pdb(workdir / "chain.pdb")
        from cryoguide.alignment import rotation_about
        r = rotation_about(np.array([0.0, 1.0, 0.2]), 40.0)
        moved = model.with_coords(model.coords() @ r.T + [8.0, -3.0, 5.0])
        mob = tmp_path / "moved.pdb"
        write_pdb(moved, mob)
        out = tmp_path / "aligned.pdb"
        assert main(["align", str(mob), str(workdir / "chain.pdb"),
                     "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rmsd:" in printed
        aligned = read_pdb(out)
        np.testing.assert_allclose(aligned.coords(), model.coords(), atol=2e-3)

    def test_count_mismatch(self, workdir, tmp_path, capsys):
        model = read_pdb(workdir / "chain.pdb")
        short = model.__class__(model.atoms[:10])
        sp = tmp_path / "short.pdb"
        write_pdb(short, sp)
        assert main(["align", str(sp), str(workdir / "chain.pdb")]) == 1
        assert "atom counts differ" in capsys.readouterr().err


class TestPrep:
    def test_threshold_dust_crop(self, workdir, tmp_path):
        out = tmp_path / "prep.mrc"
        assert main(["prep", str(workdir / "chain.mrc"), "-o", str(out),
                     "--level", "0.5", "--min-size", "2", "--crop",
                     "--pad", "2"]) == 0
        raw = read_mrc(workdir / "chain.mrc")
        prepped = read_mrc(out)
        assert prepped.data.size <= raw.data.size
        assert prepped.data.max() == pytest.approx(raw.data.max(), rel=1e-6)
        nz = prepped.data[prepped.data != 0]
        assert np.all(nz >= 0.5)

    def test_mask_model(self, workdir, tmp_path):
        out = tmp_path / "masked.mrc"
        assert main(["prep", str(workdir / "chain.mrc"), "-o", str(out),
                     "--mask-model", str(workdir / "chain.pdb"),
                     "--mask-radius", "3.0"]) == 0
        assert read_mrc(out).data.shape == read_mrc(workdir / "chain.mrc").data.shape

    @pytest.mark.parametrize("radius", ["-1", "0", "nan"])
    def test_bad_mask_radius_rejected_by_parser(self, workdir, tmp_path, capsys, radius):
        out = tmp_path / "masked.mrc"
        with pytest.raises(SystemExit) as exc:
            main(["prep", str(workdir / "chain.mrc"), "-o", str(out),
                  "--mask-model", str(workdir / "chain.pdb"),
                  "--mask-radius", radius])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_non_finite_level_rejected_by_parser(self, workdir, tmp_path, capsys, level):
        out = tmp_path / "prep.mrc"
        with pytest.raises(SystemExit) as exc:
            main(["prep", str(workdir / "chain.mrc"), "-o", str(out), f"--level={level}"])
        assert exc.value.code == 2
        assert f"must be finite, got {level}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_crop_pad_rejected_by_parser(self, workdir, tmp_path, capsys):
        out = tmp_path / "prep.mrc"
        with pytest.raises(SystemExit) as exc:
            main(["prep", str(workdir / "chain.mrc"), "-o", str(out),
                  "--level", "0.5", "--crop", "--pad", "-3"])
        assert exc.value.code == 2
        assert "must be non-negative, got -3" in capsys.readouterr().err
        assert not out.exists()


class TestGuide:
    def test_run_layout_and_manifest(self, workdir, tmp_path):
        cfg = base_config(workdir, tmp_path)
        assert main(["guide", "--config", str(cfg)]) == 0
        outdir = tmp_path / "out"
        for rep in (0, 1):
            for j in (0, 1):
                assert (outdir / f"rep{rep}" / f"sample{j}.pdb").exists()
        manifest = (outdir / "manifest.tsv").read_text().splitlines()
        assert manifest[0] == "replicate\tsample\tseed\tstatus\trscc\trmsd"
        assert len(manifest) == 5
        row = manifest[1].split("\t")
        assert row[:4] == ["0", "0", "11:0:0", "ok"]
        assert 0.0 < float(row[4]) <= 1.0
        assert row[5] == ""  # no reference supplied
        summary = (outdir / "summary.tsv").read_text().splitlines()
        assert summary[0].startswith("replicate\tn_ok")
        assert len(summary) == 3

    def test_manifest_reproducible_across_runs(self, workdir, tmp_path):
        cfg_a = base_config(workdir, tmp_path)
        a = tmp_path / "out"
        assert main(["guide", "--config", str(cfg_a)]) == 0
        b_dir = tmp_path / "second"
        b_dir.mkdir()
        assert main(["guide", "--config", str(cfg_a),
                     "--set", f"outdir={b_dir / 'out'}"]) == 0
        m_a = (a / "manifest.tsv").read_bytes()
        m_b = (b_dir / "out" / "manifest.tsv").read_bytes()
        assert m_a == m_b
        pdb_a = (a / "rep0" / "sample1.pdb").read_bytes()
        pdb_b = (b_dir / "out" / "rep0" / "sample1.pdb").read_bytes()
        assert pdb_a == pdb_b

    def test_zero_guidance_equals_unguided_baseline(self, workdir, tmp_path):
        zeros = ("lambda_global_start = 0\nlambda_global_end = 0\n"
                 "lambda_local = 0\nn_samples = 1\nn_replicates = 1\n")
        cfg = base_config(workdir, tmp_path, extra=zeros)
        guided_dir = tmp_path / "g"
        plain_dir = tmp_path / "u"
        assert main(["guide", "--config", str(cfg),
                     "--set", f"outdir={guided_dir}"]) == 0
        assert main(["sample", "--config", str(cfg),
                     "--set", f"outdir={plain_dir}"]) == 0
        assert (guided_dir / "rep0" / "sample0.pdb").read_bytes() == \
            (plain_dir / "rep0" / "sample0.pdb").read_bytes()

    def test_missing_map_fails(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("map = /nonexistent/m.mrc\n")
        assert main(["guide", "--config", str(cfg)]) == 1
        assert "not found" in capsys.readouterr().err

    def test_all_failed_samples_recorded(self, workdir, tmp_path, capsys):
        cfg = base_config(workdir, tmp_path, extra="lambda_local = 1e300\n")
        assert main(["guide", "--config", str(cfg)]) == 1
        assert "all samples failed" in capsys.readouterr().err
        outdir = tmp_path / "out"
        rows = (outdir / "manifest.tsv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all("non-finite score" in row.split("\t")[3] for row in rows)
        assert not list(outdir.rglob("*.pdb"))

    def test_unexpected_error_fails_one_sample(self, workdir, tmp_path, monkeypatch):
        # a replicate's samples share one batch; each local step evaluates
        # them in order, so the second call is rep 0's sample 1
        real = sampler.density_loss_grad_coords
        calls = []

        def fail_rep0_sample1(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("stub failure")
            return real(*args)

        monkeypatch.setattr(sampler, "density_loss_grad_coords", fail_rep0_sample1)
        assert main(["guide", "--config", str(base_config(workdir, tmp_path))]) == 0
        outdir = tmp_path / "out"
        rows = [r.split("\t") for r in
                (outdir / "manifest.tsv").read_text().splitlines()[1:]]
        assert [r[3] for r in rows] == ["ok", "stub failure", "ok", "ok"]
        assert rows[1][4:] == ["", ""]
        assert not (outdir / "rep0" / "sample1.pdb").exists()

    def test_scoring_error_fails_one_sample(self, workdir, tmp_path, monkeypatch):
        """A sample whose RSCC raises, as one off the map does, fails alone:
        no PDB and an empty RSCC and RMSD, and every other output is the
        run's without the fault."""
        cfg = base_config(workdir, tmp_path)
        assert main(["guide", "--config", str(cfg), "--set",
                     f"outdir={tmp_path / 'plain'}"]) == 0
        want = output_tree(tmp_path / "plain")
        real = pipeline.rscc
        calls = []

        def fail_rep0_sample1(*args):
            calls.append(args)
            if len(calls) == 2:     # samples are scored in order
                raise ValueError("zero variance in map or simulated density")
            return real(*args)

        monkeypatch.setattr(pipeline, "rscc", fail_rep0_sample1)
        assert main(["guide", "--config", str(cfg)]) == 0
        got = output_tree(tmp_path / "out")
        rows = [r.split("\t") for r in got.pop("manifest.tsv").decode().splitlines()]
        want_rows = [r.split("\t") for r in want.pop("manifest.tsv").decode().splitlines()]
        assert rows[2] == ["0", "1", "11:0:1",
                           "zero variance in map or simulated density", "", ""]
        assert rows[:2] + rows[3:] == want_rows[:2] + want_rows[3:]
        summary = got.pop("summary.tsv").decode().splitlines()
        want_summary = want.pop("summary.tsv").decode().splitlines()
        assert summary[1].split("\t")[:3] == ["0", "1", "0"]
        assert summary[::2] == want_summary[::2]    # the header and rep 1
        del want["rep0/sample1.pdb"]
        assert got == want

    def test_dock_error_fails_one_replicate(self, workdir, tmp_path, monkeypatch):
        """A dock that raises fails its replicate's samples and no others."""
        cfg = base_config(workdir, tmp_path, extra="n_replicates = 3\nregister = true\n"
                          "dock_rotations = 24\n")
        assert main(["guide", "--config", str(cfg), "--set",
                     f"outdir={tmp_path / 'plain'}"]) == 0
        want = output_tree(tmp_path / "plain")
        real = pipeline.dock_to_map
        calls = []

        def fail_rep1(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("stub dock failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "dock_to_map", fail_rep1)
        assert main(["guide", "--config", str(cfg)]) == 0
        got = output_tree(tmp_path / "out")
        rows = [r.split("\t") for r in got["manifest.tsv"].decode().splitlines()[1:]]
        assert [r[3] for r in rows] == ["ok", "ok", "stub dock failure",
                                        "stub dock failure", "ok", "ok"]
        assert got["summary.tsv"].decode().splitlines()[2] == "1\t0\t\t\t"
        for rep in ("rep0", "rep2"):
            assert {k: v for k, v in got.items() if k.startswith(rep)} == \
                {k: v for k, v in want.items() if k.startswith(rep)}
        assert not any(k.startswith("rep1") for k in got)

    def test_one_pointcloud_per_run(self, workdir, tmp_path, monkeypatch):
        real = pipeline.extract_pointcloud
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "extract_pointcloud", counted)
        cfg = base_config(workdir, tmp_path, extra="n_samples = 1\nn_replicates = 3\n")
        assert main(["guide", "--config", str(cfg)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("register", [False, True])
    def test_settings_and_context_built_once_per_run(self, workdir, tmp_path, monkeypatch,
                                                     register):
        built = Counter()

        def count(owner, attr, key):
            real = getattr(owner, attr)

            def counted(*args, **kwargs):
                built[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)

        for cls in (NoiseSchedule, GuidanceSchedule, SinkhornConfig, BlurOperator):
            count(cls, "__post_init__", cls.__name__)
        count(pipeline, "two_mode_chain_prior", "prior")
        count(pipeline, "GuidanceContext", "GuidanceContext")
        contexts = []
        real_sample = pipeline.sample_guided

        def recorded(prior, ctx, *args):
            contexts.append(ctx)
            return real_sample(prior, ctx, *args)
        monkeypatch.setattr(pipeline, "sample_guided", recorded)
        cfg = base_config(workdir, tmp_path, extra="n_samples = 1\nn_replicates = 3\n"
                          f"register = {register}\ndock_rotations = 24\n")
        assert main(["guide", "--config", str(cfg)]) == 0
        assert built == {"NoiseSchedule": 1, "GuidanceSchedule": 1, "SinkhornConfig": 1,
                         "BlurOperator": 1, "prior": 1, "GuidanceContext": 1}
        first = contexts[0]
        assert len(contexts) == 3
        for ctx in contexts:
            assert ctx.target_map is first.target_map
            assert ctx.target_cloud is first.target_cloud
            assert ctx.sinkhorn is first.sinkhorn and ctx.blur is first.blur
        if register:    # only its docked reference sets a replicate's context apart
            assert len({id(ctx) for ctx in contexts}) == 3
            assert all(ctx.reference is not None for ctx in contexts)
        else:
            assert all(ctx is first for ctx in contexts)

    @pytest.mark.parametrize("command,setting,message", [
        (command, setting, message) for command in ("guide", "sample")
        for setting, message in (
            ("churn_floor=inf", "churn_floor must be >= 0 and finite, got inf"),
            ("prior_tau=0", "prior_tau: mode std must be positive and finite, got 0.0"),
            ("blur_sigma=-1", "blur_sigma: blur width must be finite and >= 0, got -1.0"))
    ] + [("guide", "t_warm=99", "guidance stages sum to 114, n_steps = 40")])
    def test_settings_checked_before_any_file(self, workdir, tmp_path, capsys,
                                              command, setting, message):
        cfg = base_config(workdir, tmp_path, extra=f"map = {tmp_path / 'missing.mrc'}\n")
        assert main([command, "--config", str(cfg), "--set", setting]) == 1
        assert message in capsys.readouterr().err
        assert main([command, "--config", str(cfg)]) == 1
        assert f"map file not found: {tmp_path / 'missing.mrc'}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key(self, workdir, tmp_path, capsys):
        cfg = base_config(workdir, tmp_path)
        for key in ("warp_speed", "dock_per_sample", "step_scale", "noise_scale"):
            assert main(["guide", "--config", str(cfg),
                         "--set", f"{key}=true"]) == 1
            assert f"unknown config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["reach", "lambda_local", "sinkhorn_tol"])
    def test_nan_setting_rejected(self, workdir, tmp_path, capsys, key):
        cfg = base_config(workdir, tmp_path)
        assert main(["guide", "--config", str(cfg), "--set", f"{key}=nan"]) == 1
        assert f"{key}: expected a number, got 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.tsv").exists()

    @pytest.mark.parametrize("setting,message", BAD_RUN_SHAPES)
    def test_empty_run_shape_rejected(self, workdir, tmp_path, capsys,
                                      setting, message):
        cfg = base_config(workdir, tmp_path)
        assert main(["guide", "--config", str(cfg), "--set", setting]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.tsv").exists()

    def test_bad_stage_sum(self, workdir, tmp_path, capsys):
        cfg = base_config(workdir, tmp_path)
        assert main(["guide", "--config", str(cfg),
                     "--set", "t_warm=99"]) == 1
        assert "stages sum" in capsys.readouterr().err
        # the synthetic preset spans 200 steps, not the base config's 40
        preset = tmp_path / "preset.cfg"
        preset.write_text("".join(line for line in cfg.read_text().splitlines(True)
                                  if not line.startswith("t_")))
        assert main(["guide", "--config", str(preset),
                     "--set", "schedule_kind=synthetic"]) == 1
        assert "guidance stages sum to 200, n_steps = 40" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.tsv").exists()

    def test_stage_key_needs_custom_schedule(self, workdir, tmp_path, capsys):
        cfg = base_config(workdir, tmp_path)
        for kind in ("synthetic", "experimental"):
            assert main(["guide", "--config", str(cfg),
                         "--set", f"schedule_kind={kind}"]) == 1
            assert ("t_warm, t_global, t_local, t_relax only apply to "
                    f"schedule_kind = custom, not '{kind}'") in capsys.readouterr().err
        # a stage key set on the command line under the default preset
        with pytest.raises(ConfigError, match="t_global only apply"):
            load_config(None, ["t_global=75"])
        assert not (tmp_path / "out" / "manifest.tsv").exists()

    def test_log_reports_sample_stats(self, workdir, tmp_path, caplog):
        cfg = base_config(workdir, tmp_path, extra="n_replicates = 1\n")
        with caplog.at_level(logging.INFO, logger="cryoguide"):
            assert main(["guide", "--config", str(cfg)]) == 0
        messages = [r.getMessage() for r in caplog.records]
        lines = [m for m in messages if m.startswith("rep 0 sample ")]
        assert len(lines) == 2
        pattern = (r"rep 0 sample \d: rscc 0\.\d{6}, guidance evals 5 global \+ 5 local, "
                   r"cross-term solves 5 \((\d+) iterations, 0 unconverged\), "
                   r"self-term solves 5 \((\d+) iterations, 0 unconverged\)")
        for line in lines:
            match = re.fullmatch(pattern, line)
            assert match, line
            assert int(match.group(1)) >= 5 and int(match.group(2)) >= 5
        # the replicate's one batch logs its wall time in each stage
        stages = [m for m in messages if m.startswith("batch of ")]
        assert len(stages) == 1
        assert re.fullmatch(r"batch of 2 samples: warm-up \d+\.\d{3} s, global \d+\.\d{3} s, "
                            r"local \d+\.\d{3} s, relax \d+\.\d{3} s", stages[0])


class TestSampleCommand:
    @pytest.mark.parametrize("setting,message", BAD_RUN_SHAPES)
    def test_empty_run_shape_rejected(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "u.cfg"
        cfg.write_text(f"outdir = {tmp_path / 'out'}\n"
                       "n_steps = 40\nn_samples = 2\nn_replicates = 1\n")
        assert main(["sample", "--config", str(cfg), "--set", setting]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.tsv").exists()

    @pytest.mark.parametrize("command", ["guide", "sample"])
    @pytest.mark.parametrize("settings,message", BAD_GUIDANCE,
                             ids=[settings[-1] for settings, _ in BAD_GUIDANCE])
    def test_bad_guidance_setting_rejected(self, workdir, tmp_path, capsys,
                                           command, settings, message):
        # guide needs the map; sample rejects the settings without one too
        cfg = tmp_path / "u.cfg"
        cfg.write_text((f"map = {workdir / 'chain.mrc'}\n" if command == "guide" else "")
                       + f"outdir = {tmp_path / 'out'}\n"
                       "n_steps = 40\nn_samples = 2\nn_replicates = 1\n")
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        assert main([command, "--config", str(cfg), *overrides]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runs_without_map(self, workdir, tmp_path):
        cfg = tmp_path / "u.cfg"
        cfg.write_text(f"outdir = {tmp_path / 'out'}\n"
                       "n_steps = 40\nn_samples = 2\nn_replicates = 1\n")
        assert main(["sample", "--config", str(cfg)]) == 0
        manifest = (tmp_path / "out" / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 3
        assert manifest[1].split("\t")[4] == ""  # no map -> no rscc

    def test_summary_without_map(self, tmp_path):
        cfg = tmp_path / "u.cfg"
        cfg.write_text(f"outdir = {tmp_path / 'out'}\n"
                       "n_steps = 40\nn_samples = 2\nn_replicates = 2\n")
        assert main(["sample", "--config", str(cfg)]) == 0
        summary = (tmp_path / "out" / "summary.tsv").read_text().splitlines()
        assert summary == ["replicate\tn_ok\tbest_sample\tbest_rscc\tbest_rmsd",
                           "0\t2\t\t\t", "1\t2\t\t\t"]

    def test_output_tree_reproducible(self, workdir, tmp_path):
        cfg = base_config(workdir, tmp_path)
        outputs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            assert main(["sample", "--config", str(cfg),
                         "--set", f"outdir={outdir}"]) == 0
            outputs.append(output_tree(outdir))
        assert sorted(outputs[0]) == ["manifest.tsv", "rep0/sample0.pdb",
                                      "rep0/sample1.pdb", "rep1/sample0.pdb",
                                      "rep1/sample1.pdb", "summary.tsv"]
        assert outputs[0] == outputs[1]

    def test_failed_draw_fails_one_sample(self, workdir, tmp_path, monkeypatch):
        real = pipeline.sample_unguided

        def fail_rep0_sample1(prior, schedule, seeds):
            draws = real(prior, schedule, seeds)
            return [SamplingError("stub failure") if seed.spawn_key == (0, 1) else draw
                    for seed, draw in zip(seeds, draws)]

        monkeypatch.setattr(pipeline, "sample_unguided", fail_rep0_sample1)
        assert main(["sample", "--config", str(base_config(workdir, tmp_path))]) == 0
        outdir = tmp_path / "out"
        assert not (outdir / "rep0" / "sample1.pdb").exists()
        rows = [r.split("\t") for r in
                (outdir / "manifest.tsv").read_text().splitlines()[1:]]
        assert [r[3] for r in rows] == ["ok", "stub failure", "ok", "ok"]
        assert rows[1][4:] == ["", ""]

    def test_missing_map_fails(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "u.cfg"
        cfg.write_text(f"outdir = {tmp_path / 'out'}\n"
                       "map = /nonexistent/m.mrc\n")
        assert main(["sample", "--config", str(cfg)]) == 1
        assert "not found" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()


def test_readme_demo_config_parses(tmp_path):
    """The README's demo.cfg block loads and builds both schedules."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Then create `demo\.cfg`:\n\n```text\n(.*?)```", readme, re.S)
    assert block, "README has no demo.cfg block"
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text(block.group(1))
    cfg = load_config(str(cfg_path))
    assert (cfg.schedule_kind, cfg.n_steps, cfg.n_samples) == ("synthetic", 200, 50)
    assert cfg.noise_schedule().sigmas().size == 201
    gsched = cfg.guidance_schedule()
    assert (gsched.t_warm, gsched.t_global, gsched.t_local, gsched.t_relax) == \
        (125, 25, 25, 25)


@pytest.mark.parametrize("reach,balanced", [("0", True), ("inf", True), ("10", False)])
def test_reach_zero_means_balanced(reach, balanced):
    assert load_config(None, [f"reach={reach}"]).sinkhorn_config().balanced is balanced
