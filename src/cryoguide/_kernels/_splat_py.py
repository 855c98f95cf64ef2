"""Pure-numpy splatting kernels (fallback when the compiled extension is absent).

Both backends implement the same contract:

  splat(coords, amps, shape, origin, voxel, sigma) -> (w, h, d) float64 array
      Accumulates one truncated Gaussian per atom:
      data[v] += amp * exp(-|v_world - p|^2 / (2 sigma^2))  for |v_world - p| <= 4 sigma.

  splat_grad(coords, amps, field, origin, voxel, sigma) -> (n, 3) float64 array
      Returns per-atom sums  sum_v field[v] * amp * exp(-d^2/(2 sigma^2)) * (v_world - p) / sigma^2,
      i.e. the inner product of `field` with the coordinate derivative of the splat.

Each atom touches the box of voxels within 4 sigma of it along every axis,
clipped to the grid.  `stencils` builds those boxes for a block of atoms at
once, as fixed L x L x L windows (L the widest box) with a mask of the box, and
caps each block at _CHUNK_ENTRIES window entries so temporaries stay small.

The floating-point result is the same as visiting the atoms one by one in input
order: offsets are `idx * voxel + origin - p` and `d2 = (dx^2 + dy^2) + dz^2`;
`splat` scatters with the unbuffered, in-order `np.add.at`, so each voxel sums
its atoms in input order; `splat_grad` sums each atom's box as one C-ordered
run with `np.sum`'s pairwise order.
"""

import numpy as np

_CHUNK_ENTRIES = 1 << 16  # window entries per block of atoms


def stencils(coords, origin, voxel, shape, rad):
    """Yield the voxel windows of the atoms whose box within `rad` meets the grid.

    Yields (atoms, box, flat, ax, d2) per block of m atoms, in input order:
    atoms, their indices into `coords`; box, an (m, L, L, L) mask of each
    atom's clipped box, which starts at window index 0 on every axis; flat,
    the flat voxel index of every window entry (clipped into the grid where
    box is False); ax, the three world offsets v_world - p, shaped to broadcast
    to (m, L, L, L); d2, the squared distance.
    """
    coords = np.asarray(coords, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    top = np.asarray(shape) - 1
    c = (coords - origin) / voxel
    lo = np.maximum(np.ceil(c - rad / voxel), 0)
    hi = np.minimum(np.floor(c + rad / voxel), top)
    atoms = np.flatnonzero(np.all(lo <= hi, axis=1))
    if len(atoms) == 0:
        return
    lo = lo[atoms].astype(np.int64)
    hi = hi[atoms].astype(np.int64)
    L = int((hi - lo).max()) + 1
    k = np.arange(L)
    m = max(1, _CHUNK_ENTRIES // L ** 3)
    for s in range(0, len(atoms), m):
        idx = lo[s:s + m, :, None] + k                       # (m, 3, L)
        inside = idx <= hi[s:s + m, :, None]
        off = idx * voxel + origin[:, None] - coords[atoms[s:s + m], :, None]
        ax = (off[:, 0, :, None, None], off[:, 1, None, :, None],
              off[:, 2, None, None, :])
        d2 = ax[0] ** 2 + ax[1] ** 2 + ax[2] ** 2
        box = (inside[:, 0, :, None, None] & inside[:, 1, None, :, None]
               & inside[:, 2, None, None, :])
        idx = np.minimum(idx, top[:, None])
        flat = ((idx[:, 0, :, None, None] * shape[1] + idx[:, 1, None, :, None])
                * shape[2] + idx[:, 2, None, None, :])
        yield atoms[s:s + m], box, flat, ax, d2


def _weights(a, d2, sigma):
    rad = 4.0 * sigma
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    return np.where(d2 <= rad * rad, a[:, None, None, None] * np.exp(-d2 * inv2s2), 0.0)


def splat(coords, amps, shape, origin, voxel, sigma):
    amps = np.asarray(amps, dtype=np.float64)
    shape = tuple(shape)
    data = np.zeros(shape, dtype=np.float64)
    out = data.reshape(-1)
    for atoms, box, flat, _, d2 in stencils(coords, origin, voxel, shape, 4.0 * sigma):
        np.add.at(out, flat[box], _weights(amps[atoms], d2, sigma)[box])
    return data


def splat_grad(coords, amps, field, origin, voxel, sigma):
    amps = np.asarray(amps, dtype=np.float64)
    field = np.ascontiguousarray(field, dtype=np.float64)
    grad = np.zeros((len(coords), 3), dtype=np.float64)
    invs2 = 1.0 / (sigma * sigma)
    values = field.reshape(-1)
    for atoms, box, flat, ax, d2 in stencils(coords, origin, voxel, field.shape,
                                             4.0 * sigma):
        fw = values[flat] * _weights(amps[atoms], d2, sigma) * invs2
        sizes = np.count_nonzero(box, axis=(1, 2, 3))
        starts = np.cumsum(sizes) - sizes
        terms = [(fw * a)[box] for a in ax]
        for size in np.unique(sizes):
            rows = np.flatnonzero(sizes == size)
            run = starts[rows, None] + np.arange(size)
            for i in range(3):
                grad[atoms[rows], i] = terms[i][run].sum(axis=1)
    return grad
