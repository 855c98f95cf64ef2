"""Minimal-size runs of every workload, traced and untraced, and the
benchmark's refusal to run without the program's source."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tr
import workloads

SMOKE = {
    "guided-demo": dict(n_samples=1, n_steps=16),
    "registered-dock": dict(n_samples=1, n_steps=16),
    "map-score": dict(n_chains=2, n_residues=20, box=14.0, k=4, n_decoys=3),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run(name, tmp_path):
    wl = workloads.WORKLOADS[name](str(tmp_path), seed=0, **SMOKE[name])
    wl.prepare()
    m = run.measure(wl, seconds=0, trace=True, workdir=str(tmp_path))
    assert len(m["times"][False]) == 1 and len(m["times"][True]) == 1

    untraced = run.result(m, setup_s=0.5, kernel_ok=None, trace=False)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 2
    assert [k for k in untraced["metrics"]] == [n for n, _ in run.END_TO_END]
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    traced = run.result(m, setup_s=None, kernel_ok=None, trace=True)
    assert set(traced["metrics"]) == {n for n, _, _ in tr.PER_LAYER}
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layer["forward.splat.calls"] > 0
    if name == "map-score":
        assert layer["transport.ot_cross.calls"] == 0 == layer["alignment.dock.calls"]
        assert layer["pointcloud.extract.k"] == 4
    else:
        assert layer["sampler.score.calls"] == 16 * (1 + (name == "registered-dock"))
        assert layer["transport.ot_self.calls"] == layer["sampler.global_evals"] == 2
        assert layer["alignment.dock.calls"] == (name == "registered-dock")
    json.dumps(traced)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "map-score",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
