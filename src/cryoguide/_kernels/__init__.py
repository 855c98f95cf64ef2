"""Splatting kernel backend selection.

Uses the compiled Cython extension when it imports and falls back to the
pure-numpy implementation otherwise.  `splat` and `splat_grad` check their
inputs here, before either backend sees them: a non-finite coordinate would
otherwise drop its atom silently.
"""

import numpy as np

try:
    from . import _splat_cy as _backend

    BACKEND = "cython"
except ImportError:
    from . import _splat_py as _backend

    BACKEND = "python"


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
    return _backend.splat(coords, amps, shape, origin, voxel, sigma)


def splat_grad(coords, amps, field, origin, voxel, sigma):
    coords, amps = _checked(coords, amps, voxel, sigma)
    return _backend.splat_grad(coords, amps, field, origin, voxel, sigma)


__all__ = ["splat", "splat_grad", "BACKEND"]
