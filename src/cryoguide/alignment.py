"""Rigid-body registration: Kabsch superposition and map docking.

Docking scores a pose by sum_i a_i U(x_i): atomic numbers times a blurred,
zero-mean target read at the atoms.  A rigid motion keeps the splat's sum
and norm, so this ranks poses as the Pearson correlation of splat and
blurred target would.  A translation scan for each of a quasi-uniform
rotation set picks candidates; coordinate descent refines them down a
ladder of blur levels; one splat of the final pose gives the Pearson score.

The scan shifts the model by whole voxels, which keeps each atom's
trilinear weights, so all shifts of one rotation are one gather from the
field and one matrix product.  The refinement moves every pose of a level
in lockstep, one interpolation call per move, while each pose keeps its own
steps and stopping test.  Both return bitwise the poses that one
interpolation call per rotation and one descent per pose would.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from ._kernels import splat
from .forward import atom_sigma
from .structure import AtomicModel
from .volume import DensityMap

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RigidTransform:
    rotation: np.ndarray      # (3, 3) proper orthogonal
    translation: np.ndarray   # (3,) angstroms

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-10:
            raise ValueError("rotation is not orthogonal")
        if abs(np.linalg.det(R) - 1.0) > 1e-10:
            raise ValueError("rotation must be proper (det = +1)")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords) @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)

    def angle_degrees(self) -> float:
        """Rotation angle of the transform, in degrees."""
        c = (np.trace(self.rotation) - 1.0) / 2.0
        return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def kabsch(mobile: np.ndarray, target: np.ndarray) -> tuple[RigidTransform, float]:
    """Least-squares rigid superposition of `mobile` onto `target`.

    Returns the proper-rotation transform (reflections excluded via the
    determinant sign correction on the smallest singular vector) and the
    post-alignment RMSD.
    """
    P = np.asarray(mobile, dtype=np.float64).reshape(-1, 3)
    Q = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if len(P) != len(Q):
        raise ValueError(f"kabsch: length mismatch ({len(P)} vs {len(Q)})")
    if len(P) < 3:
        raise ValueError(f"kabsch: need >= 3 points, got {len(P)}")
    cP, cQ = P.mean(axis=0), Q.mean(axis=0)
    H = (P - cP).T @ (Q - cQ)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = cQ - R @ cP
    rmsd = float(np.sqrt(np.mean(np.sum((P @ R.T + t - Q) ** 2, axis=1))))
    return RigidTransform(R, t), rmsd


def rotation_about(axis: np.ndarray, degrees: float) -> np.ndarray:
    """Rodrigues rotation matrix about `axis` by `degrees`."""
    axis = np.asarray(axis, dtype=np.float64)
    if not np.isfinite(axis).all():
        raise ValueError(f"rotation_about: axis must be finite, got {axis}")
    if not np.isfinite(degrees):
        raise ValueError(f"rotation_about: degrees must be finite, got {degrees}")
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("rotation_about: axis must be nonzero")
    axis = axis / norm
    a = np.radians(degrees)
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(a) * K + (1.0 - np.cos(a)) * (K @ K)


def _quat_matrix(w, x, y, z) -> np.ndarray:
    """Rotation matrix of the unit quaternion (w, x, y, z)."""
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])


def quasi_uniform_rotations(n: int) -> list[np.ndarray]:
    """Low-discrepancy rotation set: Halton points mapped through the uniform
    quaternion construction."""
    def vdc(i, base):
        f, r = 1.0, 0.0
        while i > 0:
            f /= base
            r += f * (i % base)
            i //= base
        return r

    out = []
    for i in range(1, n + 1):
        u1, u2, u3 = vdc(i, 2), vdc(i, 3), vdc(i, 5)
        x = np.sqrt(1 - u1) * np.sin(2 * np.pi * u2)
        y = np.sqrt(1 - u1) * np.cos(2 * np.pi * u2)
        z = np.sqrt(u1) * np.sin(2 * np.pi * u3)
        w = np.sqrt(u1) * np.cos(2 * np.pi * u3)
        out.append(_quat_matrix(w, x, y, z))
    return out


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a.ravel() - a.mean()
    b = b.ravel() - b.mean()
    den = np.sqrt((a @ a) * (b @ b))
    return float((a @ b) / den) if den > 0 else 0.0


# (extra blur sigma_x in A, poses kept after refining at it)
_LADDER = ((8.0, 4), (4.0, 4), (2.0, 1), (1.0, 1), (0.0, 1))
_SCAN_KEEP = 16   # scan candidates refined at the first level


def _level_field(target, voxel, sigma_atom, sigma_x):
    """Zero-mean target blurred by hypot(sigma_atom, sqrt(2) * sigma_x): the
    pose score at blur level sigma_x reads this field at the atoms."""
    U = gaussian_filter(target, np.hypot(sigma_atom, np.sqrt(2) * sigma_x) / voxel,
                        mode="constant", truncate=4.0)
    U -= U.mean()
    return U


def _padded_pairs(U):
    """U followed by two zero planes on each high face, stored as z-adjacent
    pairs: entry [i, j, k] holds (V[i, j, k], V[i, j, k + 1]) of that padded
    field V (the next row's first value at a row's end, which no read uses).
    The zero planes are what `_lattice_scores` reads for points off the map,
    and `[:n0, :n1, :n2, 0]` is a view of U."""
    pairs = np.zeros(tuple(n + 2 for n in U.shape) + (2,))
    pairs[:U.shape[0], :U.shape[1], :U.shape[2], 0] = U
    flat = pairs.reshape(-1, 2)
    flat[:-1, 1] = flat[1:, 0]
    return pairs


def _lattice_scores(pairs, x, amps, ax):
    """sum_i amps_i U(x_i + s) for every whole-voxel shift s of the lattice
    ax[0] x ax[1] x ax[2] (integer arrays; the last axis varies fastest).

    `pairs` is `_padded_pairs(U)` and x is (n_atoms, 3) in voxels.  U is read
    as map_coordinates(order=1, mode="constant") reads it: trilinear where the
    point lies in [0, n - 1] on every axis, else 0.  A whole-voxel shift keeps
    each atom's trilinear weights, so they are computed once; an axis whose
    shifted coordinate is off the map indexes the zero plane n instead.  So
    the reads, 4 corner pairs x shifts x atoms, are one gather.
    """
    n = np.array(pairs.shape[:3]) - 2
    strides = np.array(pairs.strides[:3]) // pairs.strides[2]
    base = np.floor(x)
    frac = x - base
    terms = []   # per axis, (shifts, atoms) flat-index terms of the low corner
    for k in range(3):
        shifted = x[:, k] + ax[k][:, None]   # the coordinate map_coordinates tests
        on_map = (shifted >= 0) & (shifted <= n[k] - 1)
        i = np.where(on_map, base[:, k] + ax[k][:, None], n[k]).astype(np.intp)
        terms.append(strides[k] * i)
    i0, i1, i2 = terms
    c0 = np.stack([i0, i0 + strides[0]])[:, None, :, None, None]
    c1 = np.stack([i1, i1 + strides[1]])[None, :, None, :, None]
    idx = (c0 + c1) + i2   # (x corner, y corner, x, y, z shift, atom)
    vals = np.take(pairs.reshape(-1, 2), idx.reshape(4, -1), axis=0)
    w = np.stack([1.0 - frac, frac])   # (corner, atom, axis)
    weights = (w[:, None, :, None, 0] * w[None, :, :, None, 1]
               * (w[:, :, 2].T * amps[:, None]))
    # (4 xy corners, shifts, atoms x 2 z corners) @ (4, atoms x 2 z corners)
    return np.matmul(vals.reshape(4, -1, 2 * len(amps)),
                     weights.reshape(4, -1, 1)).sum(axis=0)[:, 0]


def _refine(coords, amps, com, R, t, U, origin, voxel, sigma_eff):
    """Coordinate descent on the lookup score of every pose (R stacked (P, 3, 3),
    t (P, 3)) over 3 rotation (about the centre of mass) + 3 translation
    parameters; returns the refined (R, t, scores) and the lookup count.

    The poses descend in lockstep: each move is tried on every pose still
    descending, with one lookup for all of them.  A pose halves its own steps
    when a sweep of the 12 moves gains no more than 1e-6 of its entry score,
    and stops once that happens with its rotation step under 0.25 degrees.
    Every pose does the arithmetic it would do alone, so the result is bitwise
    that of refining the poses one at a time.
    """
    axes = np.eye(3)

    def score(Rc, tc):
        pts = (coords @ Rc.transpose(0, 2, 1) + tc[:, None, :] - origin) / voxel
        vals = map_coordinates(U, pts.reshape(-1, 3).T, order=1, mode="constant")
        # a (1, atoms) @ (atoms,) product per pose: the same dot as a lone pose
        return np.matmul(vals.reshape(len(Rc), 1, -1), amps)[:, 0]

    R, t = R.copy(), t.copy()
    sc = score(R, t)
    lookups = 1
    tol = 1e-6 * np.abs(sc)
    # step sizes after k halvings, rotation (degrees) and translation (A),
    # down to the first rotation step under 0.25 degrees, where a pose stops
    degrees, shifts = [max(2.0, sigma_eff)], [max(0.5, sigma_eff / 2)]
    while degrees[-1] >= 0.25:
        degrees.append(degrees[-1] / 2.0)
        shifts.append(shifts[-1] / 2.0)
    shifts = np.array(shifts)
    # turns[k, p, s]: the step rotation about axis p, sign s, after k halvings
    turns = np.array([[[rotation_about(axes[p], sgn * d) for sgn in (1.0, -1.0)]
                       for p in range(3)] for d in degrees])
    halvings = np.zeros(len(R), dtype=np.intp)
    live = np.arange(len(R))
    while live.size:
        improved = np.zeros(len(R), dtype=bool)
        for p in range(6):
            for s, sgn in enumerate((1.0, -1.0)):
                Rl, tl = R[live], t[live]
                if p < 3:
                    Rn = turns[halvings[live], p, s] @ Rl
                    tn = tl + (com - Rn @ com) - (com - Rl @ com)
                else:
                    step = sgn * shifts[halvings[live]]
                    Rn, tn = Rl, tl + step[:, None] * axes[p - 3]
                scn = score(Rn, tn)
                lookups += 1
                up = scn > sc[live] + tol[live]
                won = live[up]
                R[won], t[won], sc[won] = Rn[up], tn[up], scn[up]
                improved[won] = True
        stalled = ~improved[live]
        done = stalled & (halvings[live] == len(degrees) - 1)
        halvings[live[stalled & ~done]] += 1
        live = live[~done]
    return R, t, sc, lookups


def dock_to_map(model: AtomicModel, dmap: DensityMap, resolution: float,
                n_rotations: int = 576, seed: int = 0) -> tuple[RigidTransform, float]:
    """Rigid-dock `model` into `dmap`; returns (transform, Pearson score).

    Rotation candidates are the identity plus `n_rotations` quasi-uniform
    rotations (optionally offset by a seed-drawn rotation, the usual
    randomized low-discrepancy trick; seed 0 keeps the raw set).  Each is
    paired with its best lattice translation at the first blur level, and
    the top 16 poses are refined down the blur ladder.  The score is the
    Pearson correlation of the docked model's splat with the map.
    """
    if len(model) == 0:
        raise ValueError("dock_to_map: empty model")
    target = dmap.data
    if float(target.max() - target.min()) == 0.0:
        raise ValueError("dock_to_map: target map has zero variance")
    coords = model.coords()
    amps = model.atomic_numbers().astype(np.float64)
    voxel = dmap.voxel_size
    origin = dmap.origin
    com = coords.mean(axis=0)
    sigma_atom = atom_sigma(resolution)

    start = time.perf_counter()
    sigma_x0 = _LADDER[0][0]
    pairs = _padded_pairs(_level_field(target, voxel, sigma_atom, sigma_x0))
    U = pairs[tuple(slice(n) for n in target.shape) + (0,)]

    # 0-inclusive symmetric shift lattice, +-25% of each extent, step half the
    # first level's splat width
    extents = np.array(target.shape) * voxel
    ranges = [max(1, int(e * 0.25 // voxel)) for e in extents]
    step = max(1, int(np.hypot(sigma_atom, sigma_x0) / (2 * voxel)))
    ax = [np.unique(np.concatenate([np.arange(0, r + 1, step),
                                    -np.arange(0, r + 1, step)]))
          for r in ranges]
    shifts = np.array([(sx, sy, sz) for sx in ax[0] for sy in ax[1] for sz in ax[2]],
                      dtype=np.float64)

    rotations = [np.eye(3)] + quasi_uniform_rotations(n_rotations)
    if seed != 0:
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        off = _quat_matrix(*q)
        rotations = [np.eye(3)] + [off @ R for R in rotations[1:]]

    cands = []
    for R in rotations:
        x = ((coords - com) @ R.T + com - origin) / voxel
        dots = _lattice_scores(pairs, x, amps, ax)
        j = int(np.argmax(dots))
        cands.append((dots[j], R, com - R @ com + shifts[j] * voxel))
    del pairs   # U, a view of it, holds it only until the next level
    cands.sort(key=lambda c: -c[0])   # stable: ties keep candidate order
    R = np.array([c[1] for c in cands[:_SCAN_KEEP]])
    t = np.array([c[2] for c in cands[:_SCAN_KEEP]])
    scan_s = time.perf_counter() - start

    levels = []
    for level, (sigma_x, keep) in enumerate(_LADDER):
        start = time.perf_counter()
        if level:
            U = _level_field(target, voxel, sigma_atom, sigma_x)
        sigma_eff = float(np.hypot(sigma_atom, sigma_x))
        R, t, sc, lookups = _refine(coords, amps, com, R, t, U, origin, voxel,
                                    sigma_eff)
        best = np.argsort(-sc, kind="stable")[:keep]   # ties keep pose order
        R, t = R[best], t[best]
        levels.append(f"{sigma_x:g} A {time.perf_counter() - start:.3f} s "
                      f"{lookups} lookups")
    log.debug("dock: scan %.3f s over %d rotations x %d shifts; refinement %s",
              scan_s, len(rotations), len(shifts), ", ".join(levels))

    R, t = R[0], t[0]
    sim = splat(coords @ R.T + t, amps, target.shape, origin, voxel, sigma_atom)
    return RigidTransform(R, t), _pearson(sim, target)
