"""Cryo-EM forward model: Gaussian splatting, blur operator, guidance loss and gradient.

The measurement model is y = B(Gamma(x, s)) + noise, where Gamma splats one
truncated Gaussian per heavy atom (amplitude = atomic number, width tied to the
nominal resolution) and B is an isotropic Gaussian blur.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from . import _kernels
from .structure import ATOMIC_NUMBERS, AtomicModel
from .volume import DensityMap

SIGMA_PER_RESOLUTION = 0.225  # splat width sigma = 0.225 * nominal resolution (A)


def atom_sigma(resolution: float) -> float:
    if not resolution > 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
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
        """Separable correlation with zero padding; self-adjoint by symmetry."""
        if self.sigma_b == 0:
            return data
        k = self.kernel1d(voxel_size)
        out = data
        for axis in range(3):
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
    if not sim.same_grid(target):
        raise ValueError("density_loss: grid mismatch between simulation and target")
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
    """density_loss_grad on raw coordinate/amplitude arrays (sampler hot path).

    The blur is self-adjoint, so the chain rule reduces to correlating the
    residual with the blur kernel and differentiating the splats against it.
    The residual is formed in place, in the simulated map's own array.
    """
    sigma = atom_sigma(resolution)
    sim = _kernels.splat(coords, amps, target.data.shape, target.origin,
                         target.voxel_size, sigma)
    if blur.sigma_b:
        sim = blur.apply(sim, target.voxel_size)
    resid = np.subtract(sim, target.data, out=sim)
    if blur.sigma_b:
        resid = blur.apply(resid, target.voxel_size)
    return 2.0 * _kernels.splat_grad(coords, amps, resid, target.origin,
                                     target.voxel_size, sigma)
