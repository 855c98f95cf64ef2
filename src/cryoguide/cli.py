"""Command-line surface: map preparation, point clouds, sampling, scoring."""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import __version__
from .alignment import kabsch
from .config import ConfigError, load_config
from .forward import BlurOperator, grid_for_model, simulate_map
from .metrics import evaluate
from .pipeline import run_guided, run_unguided
from .pointcloud import cluster_count, extract_pointcloud
from .structure import read_pdb, write_pdb
from .volume import crop_pad, dust, mask_near_model, read_mrc, threshold, write_mrc

log = logging.getLogger(__name__)


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not (value >= 0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be non-negative and finite, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def cmd_simulate_map(args) -> int:
    model = read_pdb(args.model)
    shape = tuple(args.shape) if args.shape else None
    grid = grid_for_model(model, args.voxel, args.pad, shape=shape)
    dmap = simulate_map(model, grid, args.resolution, blur=BlurOperator(sigma_b=args.blur))
    write_mrc(dmap, args.out)
    log.info("wrote %s: shape %s, voxel %.3f A", args.out, dmap.shape, dmap.voxel_size)
    return 0


def cmd_pointcloud(args) -> int:
    dmap = read_mrc(args.map)
    k = args.k
    if k == 0:
        if not args.model:
            raise ConfigError("pointcloud: supply -k or --model to size the cloud")
        k = cluster_count(len(read_pdb(args.model)), dmap.voxel_size)
    cloud = extract_pointcloud(dmap, k, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write("x\ty\tz\tweight\n")
        for p, w in zip(cloud.points, cloud.weights):
            fh.write(f"{p[0]:.6f}\t{p[1]:.6f}\t{p[2]:.6f}\t{w:.6f}\n")
    log.info("wrote %d cluster centers to %s", len(cloud), args.out)
    return 0


def cmd_run(args) -> int:
    """`guide` and `sample`: `args.run` is run_guided or run_unguided."""
    cfg = load_config(args.config, args.set or ())
    records = args.run(cfg)
    n_ok = sum(1 for r in records if r.status == "ok")
    log.info("%s run complete: %d/%d samples ok", args.kind, n_ok, len(records))
    return 0


def _parse_local(text: str) -> tuple[str, int, int]:
    try:
        chain, lo, hi = text.split(":")
        return chain, int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--local expects CHAIN:LO:HI, got {text!r}") from None


def cmd_score(args) -> int:
    sample = read_pdb(args.sample)
    reference = read_pdb(args.reference)
    dmap = read_mrc(args.map) if args.map else None
    local = _parse_local(args.local) if args.local else None
    report = evaluate(sample, reference, dmap=dmap, local_range=local,
                      resolution=args.resolution)
    if args.keyval:
        print(f"rmsd_all={report.rmsd_all:.6f}")
        print(f"rmsd_ca={report.rmsd_ca:.6f}")
        print(f"tm_score={report.tm_score:.6f}")
        if report.rmsd_local is not None:
            print(f"rmsd_local={report.rmsd_local:.6f}")
        if report.rscc is not None:
            print(f"rscc={report.rscc:.6f}")
        print(f"n_paired={report.n_paired}")
        print(f"n_unpaired={report.n_unpaired}")
    else:
        print(f"all-atom RMSD : {report.rmsd_all:8.3f} A")
        print(f"CA RMSD       : {report.rmsd_ca:8.3f} A")
        print(f"TM-score      : {report.tm_score:8.3f}")
        if report.rmsd_local is not None:
            print(f"local RMSD    : {report.rmsd_local:8.3f} A")
        if report.rscc is not None:
            print(f"RSCC          : {report.rscc:8.3f}")
        print(f"paired atoms  : {report.n_paired} ({report.n_unpaired} unpaired)")
    return 0


def cmd_align(args) -> int:
    mobile = read_pdb(args.mobile)
    target = read_pdb(args.target)
    if len(mobile) != len(target):
        raise ConfigError(f"align: atom counts differ "
                          f"({len(mobile)} vs {len(target)})")
    transform, rmsd = kabsch(mobile.coords(), target.coords())
    with np.printoptions(precision=6, suppress=True):
        print("rotation:")
        print(transform.rotation)
        print(f"translation: {transform.translation}")
    print(f"rmsd: {rmsd:.6f} A")
    if args.out:
        write_pdb(mobile.with_coords(transform.apply(mobile.coords())), args.out)
        log.info("wrote aligned model to %s", args.out)
    return 0


def cmd_prep(args) -> int:
    dmap = read_mrc(args.map)
    if args.level is not None:
        dmap = threshold(dmap, args.level)
    if args.min_size > 1:
        dmap = dust(dmap, args.min_size)
    if args.crop:
        dmap = crop_pad(dmap, args.level if args.level is not None else 0.0,
                        args.pad)
    if args.mask_model:
        model = read_pdb(args.mask_model)
        dmap = mask_near_model(dmap, model, args.mask_radius)
    write_mrc(dmap, args.out)
    log.info("wrote prepared map %s: shape %s", args.out, dmap.shape)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryoguide",
        description="Density-guided diffusion sampling toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-map", help="splat a model onto a density grid")
    p.add_argument("model", help="input PDB")
    p.add_argument("-o", "--out", required=True, help="output MRC")
    p.add_argument("--resolution", type=_positive_float, required=True,
                   help="nominal resolution (A)")
    p.add_argument("--voxel", type=_positive_float, default=1.0,
                   help="voxel size (A)")
    p.add_argument("--pad", type=_nonnegative_float, default=4.0,
                   help="padding around the model (A)")
    p.add_argument("--shape", type=int, nargs=3, metavar=("W", "H", "D"),
                   help="fixed grid dimensions centered on the model")
    p.add_argument("--blur", type=_nonnegative_float, default=0.0,
                   help="extra Gaussian blur sigma (A); 0 = none")
    p.set_defaults(func=cmd_simulate_map)

    p = sub.add_parser("pointcloud", help="extract a weighted point cloud")
    p.add_argument("map", help="input MRC")
    p.add_argument("-o", "--out", required=True, help="output TSV")
    p.add_argument("-k", type=int, default=0,
                   help="cluster count (0 = derive from --model)")
    p.add_argument("--model", default="", help="PDB used to size the cloud")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pointcloud)

    for name, run, kind, text in (
            ("guide", run_guided, "guided", "run density-guided sampling replicates"),
            ("sample", run_unguided, "unguided", "run unguided baseline sampling")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry")
        p.set_defaults(func=cmd_run, run=run, kind=kind)

    p = sub.add_parser("score", help="evaluate a sample against a reference")
    p.add_argument("sample")
    p.add_argument("reference")
    p.add_argument("--map", default="", help="optional MRC for RSCC")
    p.add_argument("--resolution", type=_positive_float, default=None,
                   help="resolution for RSCC (A)")
    p.add_argument("--local", default="", metavar="CHAIN:LO:HI",
                   help="residue range for local RMSD")
    p.add_argument("--keyval", action="store_true",
                   help="machine-readable key=value output")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("align", help="superpose two models")
    p.add_argument("mobile")
    p.add_argument("target")
    p.add_argument("-o", "--out", default="", help="write the aligned mobile PDB")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("prep", help="threshold / dust / crop / mask a map")
    p.add_argument("map", help="input MRC")
    p.add_argument("-o", "--out", required=True, help="output MRC")
    p.add_argument("--level", type=_finite_float, default=None,
                   help="threshold level (values below become 0)")
    p.add_argument("--min-size", type=int, default=1,
                   help="remove connected components smaller than this")
    p.add_argument("--crop", action="store_true",
                   help="crop to the above-level bounding box plus --pad")
    p.add_argument("--pad", type=_nonnegative_int, default=2, help="crop padding (voxels)")
    p.add_argument("--mask-model", default="", help="keep density near this PDB")
    p.add_argument("--mask-radius", type=_positive_float, default=4.0,
                   help="mask radius (A)")
    p.set_defaults(func=cmd_prep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:   # the package's errors too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
