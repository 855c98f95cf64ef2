"""Density map container, MRC2014 I/O, and map preprocessing.

Grid convention used throughout the package: data has shape (w, h, d) with x
the fastest-varying axis, and the world coordinate of voxel (i, j, k) is
origin + voxel_size * (i, j, k).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels._splat_py import stencils


class MapFormatError(ValueError):
    """Malformed or unsupported MRC content."""


HEADER_SIZE = 1024
_MODE_DTYPES = {0: np.dtype("<i1"), 1: np.dtype("<i2"), 2: np.dtype("<f4")}
_F32_MAX = float(np.finfo(np.float32).max)
_F32_TINY = float(np.finfo(np.float32).tiny)   # smallest normal float32


@dataclass(frozen=True)
class DensityMap:
    """3D intensity grid with world placement.

    data: (w, h, d) array, x fastest; world of voxel (i,j,k) = origin + voxel_size*(i,j,k).
    It is stored as a read-only, C-contiguous float64 array, whatever the
    layout it was given in, so that arithmetic with the C-ordered grids of
    the splat kernels runs in one memory order.
    """

    data: np.ndarray
    voxel_size: float
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    resolution: float | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64, order="C")
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError(f"map data must be 3D and nonempty, got shape {data.shape}")
        n_bad = data.size - np.count_nonzero(np.isfinite(data))
        if n_bad:
            raise ValueError(f"map data has {n_bad} non-finite voxels")
        if not (self.voxel_size > 0 and np.isfinite(self.voxel_size)):
            raise ValueError(f"voxel_size must be positive and finite, got {self.voxel_size}")
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        if not np.isfinite(origin).all():
            raise ValueError(f"origin must be finite, got {origin}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "origin", origin)
        self.data.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def voxel_world_coords(self) -> np.ndarray:
        """World coordinates of every voxel center, shape (w, h, d, 3)."""
        grids = np.meshgrid(*(np.arange(n) for n in self.data.shape), indexing="ij")
        return np.stack(grids, axis=-1) * self.voxel_size + self.origin


def read_mrc(path) -> DensityMap:
    """Read an MRC2014 volume (modes 0, 1, 2; little-endian)."""
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise MapFormatError(f"{path}: truncated header ({len(header)} bytes)")
        if header[208:212] != b"MAP ":
            raise MapFormatError(f"{path}: missing 'MAP ' magic at byte 208")
        machst = header[212:216]
        if machst[0] == 0x11:
            raise MapFormatError(f"{path}: big-endian MRC files are not supported")

        nc, nr, ns, mode = struct.unpack("<4i", header[0:16])
        ncstart, nrstart, nsstart = struct.unpack("<3i", header[16:28])
        mx, my, mz = struct.unpack("<3i", header[28:40])
        xlen, ylen, zlen = struct.unpack("<3f", header[40:52])
        mapc, mapr, maps = struct.unpack("<3i", header[64:76])
        nsymbt = struct.unpack("<i", header[92:96])[0]
        orix, oriy, oriz = struct.unpack("<3f", header[196:208])

        if min(nc, nr, ns) < 1:
            raise MapFormatError(f"{path}: non-positive dimensions ({nc},{nr},{ns})")
        if mode not in _MODE_DTYPES:
            raise MapFormatError(f"{path}: unsupported mode {mode} (expected 0, 1, or 2)")
        if sorted((mapc, mapr, maps)) != [1, 2, 3]:
            raise MapFormatError(f"{path}: invalid axis mapping ({mapc},{mapr},{maps})")
        if min(mx, my, mz) < 1:
            raise MapFormatError(f"{path}: non-positive sampling ({mx},{my},{mz})")

        if not np.isfinite([xlen, ylen, zlen]).all():
            raise MapFormatError(f"{path}: non-finite cell lengths ({xlen}, {ylen}, {zlen})")
        voxels = np.array([xlen / mx, ylen / my, zlen / mz])
        if voxels.min() <= 0:
            raise MapFormatError(f"{path}: non-positive voxel size {voxels}")
        if (voxels.max() - voxels.min()) > 1e-4 * voxels.max():
            raise MapFormatError(f"{path}: anisotropic voxel sizes {voxels} are not supported")
        voxel_size = float(voxels.mean())

        if nsymbt < 0:
            raise MapFormatError(f"{path}: negative extended header size {nsymbt}")
        fh.seek(HEADER_SIZE + nsymbt)
        dtype = _MODE_DTYPES[mode]
        count = nc * nr * ns
        payload = fh.read(count * dtype.itemsize)
        if len(payload) < count * dtype.itemsize:
            raise MapFormatError(
                f"{path}: truncated payload ({len(payload)} of {count * dtype.itemsize} bytes)")

    # File order: column fastest, section slowest -> arr[sec, row, col].
    arr = np.frombuffer(payload, dtype=dtype).reshape(ns, nr, nc)
    arr = np.transpose(arr, (2, 1, 0))  # axes now (col, row, sec)
    # Permute (col, row, sec) onto crystal (x, y, z) axes.
    perm = np.array([mapc - 1, mapr - 1, maps - 1])
    inv = np.argsort(perm)
    data = np.transpose(arr, inv).astype(np.float64, order="C")
    nstart = np.array([ncstart, nrstart, nsstart], dtype=np.float64)[inv]

    origin = np.array([orix, oriy, oriz], dtype=np.float64)
    if np.all(origin == 0.0) and np.any(nstart != 0):
        origin = nstart * voxel_size
    return DensityMap(data=data, voxel_size=voxel_size, origin=origin)


def write_mrc(dmap: DensityMap, path) -> None:
    """Write a mode-2 (float32) MRC2014 volume; read_mrc inverts it exactly.

    Data, origin or cell lengths beyond float32's range, or cell lengths
    below its smallest normal value, which the file cannot hold, raise
    ValueError before the file is opened.
    """
    nx, ny, nz = dmap.data.shape
    cell = (nx * dmap.voxel_size, ny * dmap.voxel_size, nz * dmap.voxel_size)
    for what, lo, hi in (("map data", dmap.data.min(), dmap.data.max()),
                         ("origin", min(dmap.origin), max(dmap.origin)),
                         ("cell lengths", min(cell), max(cell))):
        if max(-lo, hi) > _F32_MAX:
            raise ValueError(f"{path}: {what} out of float32 range "
                             f"(min {lo:g}, max {hi:g}; limit {_F32_MAX:g})")
    if min(cell) < _F32_TINY:
        raise ValueError(f"{path}: cell lengths {cell} below float32's smallest "
                         f"normal value {_F32_TINY:g}")
    data32 = dmap.data.astype("<f4")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, rms = data32.mean(), data32.std()
    if not np.isfinite([mean, rms]).all():   # the float32 sums overflowed
        mean, rms = data32.mean(dtype=np.float64), data32.std(dtype=np.float64)
    header = bytearray(HEADER_SIZE)
    struct.pack_into("<4i", header, 0, nx, ny, nz, 2)
    struct.pack_into("<3i", header, 16, 0, 0, 0)
    struct.pack_into("<3i", header, 28, nx, ny, nz)
    struct.pack_into("<3f", header, 40, *cell)
    struct.pack_into("<3f", header, 52, 90.0, 90.0, 90.0)
    struct.pack_into("<3i", header, 64, 1, 2, 3)
    struct.pack_into("<3f", header, 76,
                     float(data32.min()), float(data32.max()), float(mean))
    struct.pack_into("<i", header, 88, 1)          # ISPG: 3D volume
    struct.pack_into("<i", header, 92, 0)          # no extended header
    struct.pack_into("<i", header, 108, 20140)     # NVERSION
    struct.pack_into("<3f", header, 196, *dmap.origin)
    header[208:212] = b"MAP "
    header[212:216] = bytes([0x44, 0x41, 0x00, 0x00])
    struct.pack_into("<f", header, 216, float(rms))
    struct.pack_into("<i", header, 220, 1)
    label = b"cryoguide"
    header[224:224 + len(label)] = label

    payload = np.ascontiguousarray(np.transpose(data32, (2, 1, 0)))
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(payload.tobytes())


def threshold(dmap: DensityMap, level: float) -> DensityMap:
    """Zero all voxels with value below `level`."""
    if not np.isfinite(level):
        raise ValueError(f"threshold: level must be finite, got {level}")
    return replace(dmap, data=np.where(dmap.data < level, 0.0, dmap.data))


def dust(dmap: DensityMap, min_size: int) -> DensityMap:
    """Zero connected components (26-connectivity) smaller than min_size voxels."""
    if min_size <= 1:
        return dmap
    from scipy import ndimage   # local: `import cryoguide` must not load scipy
    labels, n = ndimage.label(dmap.data != 0, structure=np.ones((3, 3, 3)))
    if n == 0:
        return dmap
    sizes = np.bincount(labels.ravel())
    small = sizes < min_size
    small[0] = False
    return replace(dmap, data=np.where(small[labels], 0.0, dmap.data))


def crop_pad(dmap: DensityMap, level: float, pad: int) -> DensityMap:
    """Crop to the bounding box of voxels >= level, padded by `pad` voxels per side.

    Padding beyond the original volume is zero-filled; world coordinates of
    retained voxels are preserved via the origin update.
    """
    if pad < 0:
        raise ValueError(f"crop_pad: pad must be >= 0, got {pad}")
    mask = dmap.data >= level
    if not mask.any():
        raise ValueError(f"crop_pad: no voxel reaches level {level}")
    idx = np.argwhere(mask)
    lo = idx.min(axis=0) - pad
    hi = idx.max(axis=0) + pad
    shape = tuple(hi - lo + 1)
    out = np.zeros(shape)
    src_lo = np.maximum(lo, 0)
    src_hi = np.minimum(hi, np.array(dmap.data.shape) - 1)
    dst_lo = src_lo - lo
    dst_hi = dst_lo + (src_hi - src_lo)
    out[dst_lo[0]:dst_hi[0] + 1, dst_lo[1]:dst_hi[1] + 1, dst_lo[2]:dst_hi[2] + 1] = \
        dmap.data[src_lo[0]:src_hi[0] + 1, src_lo[1]:src_hi[1] + 1, src_lo[2]:src_hi[2] + 1]
    return replace(dmap, data=out, origin=dmap.origin + lo * dmap.voxel_size)


def mask_near_model(dmap: DensityMap, model, radius: float) -> DensityMap:
    """Zero voxels whose centers lie farther than `radius` from every atom."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"mask_near_model: radius must be finite and positive, got {radius}")
    coords = model.coords()
    if len(coords) == 0:
        raise ValueError("mask_near_model: model has no atoms")
    keep = np.zeros(dmap.data.size, dtype=bool)
    r2 = radius * radius
    for _, box, flat, _, d2 in stencils(coords, dmap.origin, dmap.voxel_size,
                                        dmap.data.shape, radius):
        keep[flat[box & (d2 <= r2)]] = True
    return replace(dmap, data=np.where(keep.reshape(dmap.data.shape), dmap.data, 0.0))
