"""Digest the output trees of a fixed matrix of small command-line runs.

    PYTHONPATH=src python3 tools/tree_digests.py [NAME ...]

Writes the demo inputs (the minority-mode chain model of the README's quick
start and the map simulated from it) to a temporary directory, runs each
case of the matrix through `cryoguide.cli.main` into a directory of its
own, and prints one `sha256  name` line per case, under a header line that
names the NumPy and SciPy versions.  The digest covers every
file of the case's output tree, by relative path and bytes in sorted path
order, and the run's exit status.  Two checkouts that print the same lines
wrote the same bytes.  Names given on the command line run only those cases.

The matrix: `simulate-map` with and without `--blur`; `guide` on the demo
inputs at blur 0 and 0.5, churn 0 and 0.4, registration off and on, each
2 replicates of 2 samples in 32 steps; and the matching `sample` runs, at
churn 0 and 0.4, which use neither blur nor registration.

The trees hold coordinates rounded to 0.001 A, which can hide a last-bit
change, so two more lines digest the unrounded float64 coordinates of the
same draws made in process.  `draws-raw` covers the guided draws at blur 0
and 0.5 and the unguided draws, each at churn 0 and 0.4, with registration
off.  `draws-raw-registered` covers, per replicate, the docked reference
that `pipeline.build_context` makes and the guided draws registered to it,
at blur 0 and 0.5 and churn 0 and 0.4.

`tools/tree_digests.txt` holds the whole listing, which
`tests/test_tree_digests.py` recomputes; regenerate it with

    PYTHONPATH=src python3 tools/tree_digests.py > tools/tree_digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import logging
import os
import sys
import tempfile

DEMO_CONFIG = {
    "prior": "chain-two-mode", "schedule_kind": "custom", "n_steps": 32,
    "t_warm": 20, "t_global": 4, "t_local": 4, "t_relax": 4,
    "sigma_min": 0.064, "sigma_max": 2560.0, "reach": 40.0, "k_points": 7,
    "n_samples": 2, "n_replicates": 2, "seed": 0, "dock_rotations": 60,
}


def cases() -> dict[str, list[str]]:
    """Each case's name and its command-line arguments, with `{in}` for the
    input directory and `{out}` for the case's output directory."""
    runs = {"simulate-map": ["simulate-map", "{in}/minority.pdb", "-o", "{out}/map.mrc",
                             "--resolution", "2.0", "--voxel", "1.0", "--pad", "4.0"]}
    runs["simulate-map-blur"] = runs["simulate-map"] + ["--blur", "0.5"]
    for blur, churn, register in itertools.product(("0", "0.5"), ("0", "0.4"), ("0", "1")):
        runs[f"guide-blur{blur}-churn{churn}-register{register}"] = [
            "guide", "--config", "{in}/demo.cfg", "--set", "outdir={out}",
            "--set", f"blur_sigma={blur}", "--set", f"churn={churn}",
            "--set", f"register={register}"]
    for churn in ("0", "0.4"):
        runs[f"sample-churn{churn}"] = ["sample", "--config", "{in}/demo.cfg",
                                        "--set", "outdir={out}", "--set", f"churn={churn}"]
    return runs


def write_inputs(directory: str) -> None:
    from cryoguide.forward import grid_for_model, simulate_map
    from cryoguide.priors import chain_template, two_mode_chain_prior
    from cryoguide.structure import write_pdb
    from cryoguide.volume import write_mrc

    prior, _ = two_mode_chain_prior()
    model = chain_template(prior.mode_coords(1))
    write_pdb(model, os.path.join(directory, "minority.pdb"))
    grid = grid_for_model(model, voxel_size=1.0, pad=4.0)
    write_mrc(simulate_map(model, grid, 2.0), os.path.join(directory, "minority.mrc"))
    with open(os.path.join(directory, "demo.cfg"), "w") as fh:
        fh.write(f"map = {os.path.join(directory, 'minority.mrc')}\n")
        for key, value in DEMO_CONFIG.items():
            fh.write(f"{key} = {value}\n")


def tree_digest(root: str, status: int) -> str:
    h = hashlib.sha256(f"exit {status}\n".encode())
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, files in os.walk(root) for f in files)
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _demo_run(inputs: str):
    """The demo config, its prior and template, and one guidance context per
    blur, 0 and 0.5, built as the guided run builds its own."""
    from cryoguide.config import load_config
    from cryoguide.forward import BlurOperator
    from cryoguide.pipeline import _prior_and_template
    from cryoguide.pointcloud import extract_pointcloud
    from cryoguide.sampler import GuidanceContext
    from cryoguide.volume import read_mrc

    cfg = load_config(os.path.join(inputs, "demo.cfg"))
    prior, template = _prior_and_template(cfg)
    dmap = read_mrc(cfg.map)
    cloud = extract_pointcloud(dmap, cfg.k_points, seed=cfg.seed)
    contexts = [GuidanceContext(target_map=dmap, target_cloud=cloud,
                                resolution=cfg.resolution, sinkhorn=cfg.sinkhorn_config(),
                                blur=BlurOperator(blur)) for blur in (0.0, 0.5)]
    return cfg, prior, template, contexts


def _digest_draws(h, draws) -> None:
    """Add each draw's float64 coordinates to h, or its error if it failed."""
    import numpy as np

    for d in draws:
        if isinstance(d, Exception):
            h.update(f"error {type(d).__name__}: {d}\n".encode())
        else:
            h.update(np.ascontiguousarray(d, dtype="<f8").tobytes())


def raw_digest(inputs: str) -> str:
    """sha256 of the unrounded coordinates of the demo config's draws, made
    in process: guided at blur 0 and 0.5 and unguided, each at churn 0 and
    0.4, registration off.  A draw that fails adds its error instead."""
    from dataclasses import replace

    from cryoguide.pipeline import _sample_seed
    from cryoguide.sampler import sample_guided, sample_unguided

    cfg, prior, template, contexts = _demo_run(inputs)
    seeds = [_sample_seed(cfg.seed, rep, j)
             for rep in range(cfg.n_replicates) for j in range(cfg.n_samples)]
    h = hashlib.sha256()
    for churn in (0.0, 0.4):
        schedule = replace(cfg, churn=churn).noise_schedule()
        draws = []
        for ctx in contexts:
            draws += [d if isinstance(d, Exception) else d[0].coords() for d in
                      sample_guided(prior, ctx, schedule, cfg.guidance_schedule(),
                                    template, seeds)]
        draws += sample_unguided(prior, schedule, seeds)
        _digest_draws(h, draws)
    return h.hexdigest()


def raw_registered_digest(inputs: str) -> str:
    """sha256 of the unrounded coordinates of the demo config's registered
    draws, made in process through `pipeline.build_context`: at churn 0 and
    0.4 and blur 0 and 0.5, per replicate, the docked reference and then
    the replicate's guided draws in the map frame.  A draw that fails adds
    its error instead."""
    from dataclasses import replace

    from cryoguide.pipeline import _sample_seed, build_context
    from cryoguide.sampler import sample_guided

    cfg, prior, template, contexts = _demo_run(inputs)
    h = hashlib.sha256()
    for churn in (0.0, 0.4):
        run = replace(cfg, churn=churn, register=True)
        schedule = run.noise_schedule()
        for run_ctx in contexts:
            for rep in range(run.n_replicates):
                ctx = build_context(run, run_ctx, prior, schedule, rep)
                seeds = [_sample_seed(run.seed, rep, j) for j in range(run.n_samples)]
                draws = [ctx.reference]
                draws += [d if isinstance(d, Exception) else d[0].coords() for d in
                          sample_guided(prior, ctx, schedule, run.guidance_schedule(),
                                        template, seeds)]
                _digest_draws(h, draws)
    return h.hexdigest()


# the in-process lines, digested after the trees in this order
RAW = {"draws-raw": raw_digest, "draws-raw-registered": raw_registered_digest}


def digests(names=None) -> list[str]:
    """The `sha256  name` lines of the named cases (all when None), in the
    matrix's order, the in-process lines last."""
    from cryoguide import cli

    runs = cases()
    unknown = sorted(set(names or ()) - set(runs) - set(RAW))
    if unknown:
        raise ValueError(f"unknown cases {unknown}; known: {sorted(runs) + list(RAW)}")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        write_inputs(inputs)
        for name, argv in runs.items():
            if names is not None and name not in names:
                continue
            out = os.path.join(tmp, name)
            os.makedirs(out)
            argv = [a.replace("{in}", inputs).replace("{out}", out) for a in argv]
            # the runs' log lines and error messages are not part of a tree
            with contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(argv)
            lines.append(f"{tree_digest(out, status)}  {name}")
        for name, digest in RAW.items():
            if names is None or name in names:
                lines.append(f"{digest(inputs)}  {name}")
    return lines


def versions() -> str:
    """The header line of the listing: the digests hold for these versions."""
    import numpy
    import scipy

    return f"# numpy {numpy.__version__}, scipy {scipy.__version__}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="cases to run (default: all)")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.ERROR)   # before cli.main sets up its own
    print(versions())
    for line in digests(args.names or None):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
