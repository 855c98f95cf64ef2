"""Cryo-EM forward model: Gaussian splatting, blur operator, guidance loss and gradient.

The measurement model is y = B(Gamma(x, s)) + noise, where Gamma splats one
truncated Gaussian per heavy atom (amplitude = atomic number, width tied to the
nominal resolution) and B is an isotropic Gaussian blur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._kernels import _splat_py
from .structure import ATOMIC_NUMBERS, AtomicModel
from .volume import DensityMap

SIGMA_PER_RESOLUTION = 0.225  # splat width sigma = 0.225 * nominal resolution (A)
# Largest working set density_loss_grad_coords holds for one chunk of a
# stack: its (rows, w, h, d) maps, where a 200^3 map is 64 MB a row and
# 1.6 GB for 25 rows at once, or, taken at the stencils alone, its atoms'
# stencil window entries, which peak at under _ENTRY_BYTES each.
_STACK_BYTES = 1 << 24
_ENTRY_BYTES = 64


def atom_sigma(resolution: float) -> float:
    if not 0 < resolution < math.inf:    # NaN fails too
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    return SIGMA_PER_RESOLUTION * resolution


@dataclass(frozen=True)
class BlurOperator:
    """Isotropic Gaussian blur; sigma_b = 0 is the identity."""

    sigma_b: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma_b) and self.sigma_b >= 0):
            raise ValueError(f"blur width must be finite and >= 0, got {self.sigma_b}")

    def kernel1d(self, voxel_size: float) -> np.ndarray:
        """Symmetric 1D kernel truncated at 4 sigma, renormalized to unit sum."""
        if self.sigma_b == 0:
            return np.array([1.0])
        sv = self.sigma_b / voxel_size
        radius = int(np.floor(4.0 * sv))
        i = np.arange(-radius, radius + 1)
        k = np.exp(-(i * i) / (2.0 * sv * sv))
        return k / k.sum()

    def apply(self, data: np.ndarray, voxel_size: float) -> np.ndarray:
        """Separable correlation with zero padding; self-adjoint by symmetry.
        Blurs the last three axes, so each map of a (B, w, h, d) stack is
        blurred as it is alone."""
        if self.sigma_b == 0:
            return data
        from scipy import ndimage   # local: `import cryoguide` must not load scipy
        k = self.kernel1d(voxel_size)
        out = data
        for axis in (-3, -2, -1):
            out = ndimage.correlate1d(out, k, axis=axis, mode="constant", cval=0.0)
        return out


def simulate_map(model: AtomicModel, grid: DensityMap, resolution: float,
                 blur: BlurOperator = BlurOperator()) -> DensityMap:
    """Splat the model onto the geometry of `grid` (its data values are ignored)."""
    if len(model) == 0:
        raise ValueError("simulate_map: empty model")
    sigma = atom_sigma(resolution)
    data = _kernels.splat(model.coords(), model.atomic_numbers(),
                          grid.data.shape, grid.origin, grid.voxel_size, sigma)
    if blur.sigma_b:    # only a real blur calls apply, which a benchmark trace counts
        data = blur.apply(data, grid.voxel_size)
    return replace(grid, data=data, resolution=resolution)


def grid_for_model(model: AtomicModel, voxel_size: float, pad: float,
                   shape: tuple[int, int, int] | None = None) -> DensityMap:
    """Empty map tightly enclosing the model plus `pad` Angstroms per side.

    If `shape` is given the grid is centered on the model with that fixed shape
    instead (used to reproduce fixed-dimension simulated maps).
    """
    if not (np.isfinite(pad) and pad >= 0):
        raise ValueError(f"pad must be finite and >= 0, got {pad}")
    coords = model.coords()
    if shape is None:
        lo = coords.min(axis=0) - pad
        hi = coords.max(axis=0) + pad
        dims = np.maximum(np.ceil((hi - lo) / voxel_size).astype(int) + 1, 1)
        origin = lo
    else:
        dims = np.asarray(shape, dtype=int)
        center = 0.5 * (coords.min(axis=0) + coords.max(axis=0))
        origin = center - 0.5 * (dims - 1) * voxel_size
    return DensityMap(data=np.zeros(tuple(dims)), voxel_size=voxel_size, origin=origin)


def density_loss(model: AtomicModel, target: DensityMap, resolution: float,
                 blur: BlurOperator = BlurOperator()) -> float:
    """Squared-error data fit ||y - B(Gamma(x))||^2 summed over voxels."""
    sim = simulate_map(model, target, resolution, blur)
    diff = target.data - sim.data
    return float(np.sum(diff * diff))


def density_loss_grad(model: AtomicModel, target: DensityMap, resolution: float,
                      blur: BlurOperator = BlurOperator()) -> np.ndarray:
    """Analytic gradient of density_loss with respect to atom coordinates, (N, 3)."""
    return density_loss_grad_coords(model.coords(), model.atomic_numbers(),
                                    target, resolution, blur)


def density_loss_grad_coords(coords: np.ndarray, amps: np.ndarray, target: DensityMap,
                             resolution: float, blur: BlurOperator = BlurOperator()
                             ) -> np.ndarray:
    """density_loss_grad on raw coordinates (n, 3), or on a stack (B, n, 3)
    of models that share the amplitudes (n,) (sampler hot path); an empty
    stack gives a (0, n, 3) gradient.

    Without a blur the residual is needed only at the voxels that the
    atoms' stencils touch.  Where a row's stencil entries take fewer bytes
    than a map, the gradient is taken at those voxels alone and no map is
    made; otherwise each row's map is made.  A stack is taken a chunk of
    rows at a time, each chunk's stencil entries or maps within
    _STACK_BYTES, and each row's gradient has the bits of its own call.
    """
    sigma = atom_sigma(resolution)
    coords, amps = _kernels._checked(coords, amps, target.origin, target.voxel_size, sigma)
    stack = coords[None] if coords.ndim == 2 else coords
    side = int(8.0 * sigma / target.voxel_size) + 1    # the widest stencil window
    stencil_bytes = _ENTRY_BYTES * stack.shape[1] * side ** 3
    map_bytes = 8 * target.data.size
    sparse = not blur.sigma_b and stencil_bytes < map_bytes
    rows = max(1, _STACK_BYTES // max(1, stencil_bytes if sparse else map_bytes))
    grad = np.empty(stack.shape)
    for s in range(0, len(stack), rows):
        chunk = stack[s:s + rows]
        if sparse:
            grad[s:s + rows] = 2.0 * _splat_py.residual_grad(
                chunk, amps, target.data, target.origin, target.voxel_size, sigma)
        else:
            grad[s:s + rows] = _loss_grad_rows(chunk, amps, target, sigma, blur)
    return grad[0] if coords.ndim == 2 else grad


def _loss_grad_rows(stack, amps, target, sigma, blur):
    """The loss gradients of a stack whose maps are held at once; they are
    freed when it returns, before the next chunk's are made.

    The blur is self-adjoint, so the chain rule reduces to correlating the
    residual with the blur kernel and differentiating the splats against it.
    The residual is formed in place, in the simulated maps' own array.
    """
    sim = _kernels.splat(stack, amps, target.data.shape, target.origin,
                         target.voxel_size, sigma)
    if blur.sigma_b:
        sim = blur.apply(sim, target.voxel_size)
    resid = np.subtract(sim, target.data, out=sim)
    if blur.sigma_b:
        resid = blur.apply(resid, target.voxel_size)
    return 2.0 * _kernels.splat_grad(stack, amps, resid, target.origin,
                                     target.voxel_size, sigma)
