"""The NumPy splatting kernels, the only implementation of the Gaussian splat.

The contract (inputs are checked by `cryoguide._kernels` before they get here):

  splat(coords, amps, shape, origin, voxel, sigma) -> (w, h, d) float64 array
      Accumulates one truncated Gaussian per atom:
      data[v] += amp * exp(-|v_world - p|^2 / (2 sigma^2))  for |v_world - p| <= 4 sigma.

  splat_grad(coords, amps, field, origin, voxel, sigma) -> (n, 3) float64 array
      Returns per-atom sums  sum_v field[v] * amp * exp(-d^2/(2 sigma^2)) * (v_world - p) / sigma^2,
      i.e. the inner product of `field` with the coordinate derivative of the splat.

  residual_grad(coords, amps, target, origin, voxel, sigma) -> (n, 3) float64 array
      Returns splat_grad(coords, amps, splat(coords, amps, ...) - target, ...)
      for a target map (w, h, d), with the bits of that formula, and makes no
      map: it walks the stencils once, sums the splat at the voxels they
      touch alone, and reads the target there.  It is not checked by
      `cryoguide._kernels`; `forward.density_loss_grad_coords` checks its
      inputs and calls it for the unblurred loss gradient.

All three also take a stack: coords (B, n, 3), the same amps (n,) for every
row, and, for splat_grad, a field (B, w, h, d), while residual_grad takes one
target for every row; they then return (B, w, h, d) maps and (B, n, 3)
gradients.  An (n, 3) call is the stack of one.

Each atom touches the box of voxels within 4 sigma of it along every axis,
clipped to the grid.  `stencils` builds those boxes for a block of atoms at
once, as fixed L x L x L windows (L the widest box) with a mask of the box, and
caps each block at _CHUNK_ENTRIES window entries so temporaries stay small.
The atoms of row b index the b-th grid of a (B, w, h, d) buffer: the offset
b * w is added to the first axis's index terms, not to every window entry.

The floating-point result is the same as visiting the atoms one by one in input
order, and each row of a stack is bitwise its own call: offsets are
`idx * voxel + origin - p` and `d2 = (dx^2 + dy^2) + dz^2`; `splat` scatters
with the unbuffered, in-order `np.add.at`, so each voxel sums its own row's
atoms in input order, and `residual_grad` sums them in the same order with
`np.bincount` into one slot per touched voxel; `splat_grad` and
`residual_grad` share `_atom_sums`, which sums each atom's box as one
C-ordered run with `np.sum`'s pairwise order.
"""

import numpy as np

_CHUNK_ENTRIES = 1 << 16  # window entries per block of atoms


def stencils(coords, origin, voxel, shape, rad):
    """Yield the voxel windows of the atoms whose box within `rad` meets the grid.

    coords is (n, 3), or a stack (B, n, 3) whose row b lies on the b-th grid
    of a (B, *shape) buffer.  Yields (atoms, box, flat, ax, d2) per block of
    m atoms, in input order: atoms, their indices into the stack's B * n
    atoms taken row by row; box, an (m, L, L, L) mask of each atom's clipped
    box, which starts at window index 0 on every axis; flat, the flat index
    into the buffer of every window entry (clipped into the atom's grid where
    box is False); ax, the three world offsets v_world - p, shaped to
    broadcast to (m, L, L, L); d2, the squared distance.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[-2]
    coords = coords.reshape(-1, 3)
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
    plane = atoms // n * shape[0]   # first-axis index of each atom's grid
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
        first = idx[:, 0] + plane[s:s + m, None]
        flat = ((first[:, :, None, None] * shape[1] + idx[:, 1, None, :, None])
                * shape[2] + idx[:, 2, None, None, :])
        yield atoms[s:s + m], box, flat, ax, d2


def _weights(a, d2, sigma):
    rad = 4.0 * sigma
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    return np.where(d2 <= rad * rad, a[:, None, None, None] * np.exp(-d2 * inv2s2), 0.0)


def splat(coords, amps, shape, origin, voxel, sigma):
    coords = np.asarray(coords, dtype=np.float64)
    shape = tuple(shape)
    data = np.zeros(coords.shape[:-2] + shape, dtype=np.float64)
    amps = np.asarray(amps, dtype=np.float64)
    out = data.reshape(-1)
    for atoms, box, flat, _, d2 in stencils(coords, origin, voxel, shape, 4.0 * sigma):
        np.add.at(out, flat[box], _weights(amps[atoms % len(amps)], d2, sigma)[box])
    return data


def splat_grad(coords, amps, field, origin, voxel, sigma):
    coords = np.asarray(coords, dtype=np.float64)
    field = np.ascontiguousarray(field, dtype=np.float64)
    grad = np.zeros(coords.shape, dtype=np.float64)
    amps = np.asarray(amps, dtype=np.float64)
    invs2 = 1.0 / (sigma * sigma)
    values = field.reshape(-1)
    out = grad.reshape(-1, 3)
    for atoms, box, flat, ax, d2 in stencils(coords, origin, voxel, field.shape[-3:],
                                             4.0 * sigma):
        w = _weights(amps[atoms % len(amps)], d2, sigma)[box]
        _atom_sums(out, atoms, box, values[flat[box]] * w * invs2, ax)
    return grad


def residual_grad(coords, amps, target, origin, voxel, sigma):
    coords = np.asarray(coords, dtype=np.float64)
    grad = np.zeros(coords.shape, dtype=np.float64)
    amps = np.asarray(amps, dtype=np.float64)
    invs2 = 1.0 / (sigma * sigma)
    blocks, flats = [], []
    for atoms, box, flat, ax, d2 in stencils(coords, origin, voxel, target.shape,
                                             4.0 * sigma):
        blocks.append((atoms, box, ax, _weights(amps[atoms % len(amps)], d2, sigma)[box]))
        flats.append(flat[box])
    if not blocks:
        return grad
    voxels, slot = _touched(np.concatenate(flats))
    # bincount adds in input order from zero, as splat's np.add.at does
    resid = np.bincount(slot, weights=np.concatenate([b[3] for b in blocks]),
                        minlength=len(voxels))
    resid -= target.reshape(-1)[voxels % target.size]
    out = grad.reshape(-1, 3)
    s = 0
    for atoms, box, ax, w in blocks:
        _atom_sums(out, atoms, box, resid[slot[s:s + len(w)]] * w * invs2, ax)
        s += len(w)
    return grad


def _touched(flat):
    """The distinct voxels of flat in increasing order, and each entry's
    index among them: np.unique(flat, return_inverse=True) by a stable
    sort, which is fast where each atom's entries come in increasing order."""
    order = flat.argsort(kind="stable")
    flat = flat[order]
    first = np.empty(len(flat), dtype=bool)
    first[0] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    slot = np.empty(len(flat), dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    return flat[first], slot


def _atom_sums(out, atoms, box, fw, ax):
    """out[atoms] = each atom's sum over its box of fw * (v_world - p): fw
    holds the block's box entries in C order, so each atom's box is one
    contiguous run, summed with np.sum's pairwise order."""
    sizes = np.count_nonzero(box, axis=(1, 2, 3))
    starts = np.cumsum(sizes) - sizes
    terms = [fw * np.broadcast_to(a, box.shape)[box] for a in ax]
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        run = starts[rows, None] + np.arange(size)
        for i in range(3):
            out[atoms[rows], i] = terms[i][run].sum(axis=1)
