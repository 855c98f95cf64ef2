"""Splatting kernels with checked inputs.

`splat` and `splat_grad` check their inputs here, then call the NumPy kernels
in `_splat_py`: a non-finite coordinate would otherwise drop its atom silently,
and a non-finite grid or width would give a map of zeros or of NaN.  Both take
one model's (n, 3) coordinates or a stack (B, n, 3) of models that share the
amplitudes (n,); each row of a stack gets the bits of its own call.
`cryoguide.forward` checks its inputs with `_checked` before it calls
`_splat_py.residual_grad`, the unblurred loss gradient, directly.
"""

import math

import numpy as np

from . import _splat_py

BACKEND = "python"  # re-exported as cryoguide.KERNEL_BACKEND


def _checked(coords, amps, origin, voxel, sigma):
    coords = np.asarray(coords, dtype=np.float64)
    amps = np.asarray(amps, dtype=np.float64)
    if coords.ndim not in (2, 3) or coords.shape[-1] != 3:
        raise ValueError(f"coords must have shape (n, 3) or (B, n, 3), got {coords.shape}")
    n = coords.shape[-2]
    if amps.shape != (n,):
        raise ValueError(f"amps must have shape ({n},) to match coords, got {amps.shape}")
    bad = np.count_nonzero(~np.isfinite(coords))
    if bad:
        raise ValueError(f"coords contain {bad} non-finite coordinate(s)")
    if not np.isfinite(origin).all():
        raise ValueError(f"origin must be finite, got {origin}")
    for name, value in (("voxel", voxel), ("sigma", sigma)):
        if not 0 < value < math.inf:    # NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    return coords, amps


def splat(coords, amps, shape, origin, voxel, sigma):
    coords, amps = _checked(coords, amps, origin, voxel, sigma)
    return _splat_py.splat(coords, amps, shape, origin, voxel, sigma)


def splat_grad(coords, amps, field, origin, voxel, sigma):
    coords, amps = _checked(coords, amps, origin, voxel, sigma)
    field = np.asarray(field)
    if field.ndim != coords.ndim + 1 or field.shape[:-3] != coords.shape[:-2]:
        raise ValueError(f"field must hold one (w, h, d) grid per row of coords "
                         f"{coords.shape}, got {field.shape}")
    return _splat_py.splat_grad(coords, amps, field, origin, voxel, sigma)


__all__ = ["splat", "splat_grad", "BACKEND"]
