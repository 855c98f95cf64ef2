"""Splatting kernels with checked inputs.

`splat` and `splat_grad` check their inputs here, then call the NumPy kernels
in `_splat_py`: a non-finite coordinate would otherwise drop its atom silently.
"""

import numpy as np

from . import _splat_py

BACKEND = "python"  # re-exported as cryoguide.KERNEL_BACKEND


def _checked(coords, amps, voxel, sigma):
    coords = np.asarray(coords, dtype=np.float64)
    amps = np.asarray(amps, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must have shape (n, 3), got {coords.shape}")
    if amps.shape != (len(coords),):
        raise ValueError(f"amps must have shape ({len(coords)},) to match coords, "
                         f"got {amps.shape}")
    bad = np.count_nonzero(~np.isfinite(coords))
    if bad:
        raise ValueError(f"coords contain {bad} non-finite coordinate(s)")
    if not voxel > 0:
        raise ValueError(f"voxel must be positive, got {voxel}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return coords, amps


def splat(coords, amps, shape, origin, voxel, sigma):
    coords, amps = _checked(coords, amps, voxel, sigma)
    return _splat_py.splat(coords, amps, shape, origin, voxel, sigma)


def splat_grad(coords, amps, field, origin, voxel, sigma):
    coords, amps = _checked(coords, amps, voxel, sigma)
    return _splat_py.splat_grad(coords, amps, field, origin, voxel, sigma)


__all__ = ["splat", "splat_grad", "BACKEND"]
