"""Digest the output trees of a fixed matrix of small command-line runs.

    PYTHONPATH=src python3 tools/tree_digests.py [NAME ...]

Writes the demo inputs (the minority-mode chain model of the README's quick
start and the map simulated from it) to a temporary directory, runs each
case of the matrix through `cryoguide.cli.main` into a directory of its
own, and prints one `sha256  name` line per case.  The digest covers every
file of the case's output tree, by relative path and bytes in sorted path
order, and the run's exit status.  Two checkouts that print the same lines
wrote the same bytes.  Names given on the command line run only those cases.

The matrix: `simulate-map` with and without `--blur`; `guide` on the demo
inputs at blur 0 and 0.5, churn 0 and 0.4, registration off and on, each
2 replicates of 2 samples in 32 steps; and the matching `sample` runs, at
churn 0 and 0.4, which use neither blur nor registration.
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


def digests(names=None) -> list[str]:
    """The `sha256  name` lines of the named cases (all when None), in the
    matrix's order."""
    from cryoguide import cli

    runs = cases()
    unknown = sorted(set(names or ()) - set(runs))
    if unknown:
        raise ValueError(f"unknown cases {unknown}; known: {sorted(runs)}")
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
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="cases to run (default: all)")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.ERROR)   # before cli.main sets up its own
    for line in digests(args.names or None):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
