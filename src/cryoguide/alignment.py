"""Rigid-body registration: Kabsch superposition and map docking.

Docking scores a pose by sum_i a_i U(x_i): atomic numbers times a blurred,
zero-mean target read at the atoms.  A rigid motion keeps the splat's sum
and norm, so this ranks poses as the Pearson correlation of splat and
blurred target would.  A translation scan for each of a quasi-uniform
rotation set picks candidates; coordinate descent refines them down a
ladder of blur levels; one splat of the final pose gives the Pearson score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from ._kernels import splat
from .forward import atom_sigma
from .structure import AtomicModel
from .volume import DensityMap


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

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equal to applying `other` first, then self."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

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
    return U - U.mean()


def _lookup_scores(U, idx, amps):
    """sum_i amps_i * U(idx_i) for each pose; idx is (..., n_atoms, 3) in voxels."""
    vals = map_coordinates(U, idx.reshape(-1, 3).T, order=1, mode="constant")
    return vals.reshape(-1, len(amps)) @ amps


def _refine(coords, amps, com, R, t, U, origin, voxel, sigma_eff):
    """Coordinate descent on the lookup score over 3 rotation (about the
    centre of mass) + 3 translation parameters, halving the steps when no
    move gains more than 1e-6 of the entry score."""
    axes = np.eye(3)

    def score(Rc, tc):
        return float(_lookup_scores(U, (coords @ Rc.T + tc - origin) / voxel, amps)[0])

    sc = score(R, t)
    tol = 1e-6 * abs(sc)
    steps = np.array([max(2.0, sigma_eff)] * 3 + [max(0.5, sigma_eff / 2)] * 3)
    while True:
        improved = False
        for p in range(6):
            for sgn in (1.0, -1.0):
                if p < 3:
                    Rn = rotation_about(axes[p], sgn * steps[p]) @ R
                    tn = t + (com - Rn @ com) - (com - R @ com)
                else:
                    Rn, tn = R, t + sgn * steps[p] * axes[p - 3]
                scn = score(Rn, tn)
                if scn > sc + tol:
                    R, t, sc = Rn, tn, scn
                    improved = True
        if not improved:
            if steps[0] < 0.25:
                return R, t, sc
            steps = steps / 2.0


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

    sigma_x0 = _LADDER[0][0]
    U = _level_field(target, voxel, sigma_atom, sigma_x0)

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
        idx = ((coords - com) @ R.T + com - origin) / voxel
        dots = _lookup_scores(U, idx[None, :, :] + shifts[:, None, :], amps)
        j = int(np.argmax(dots))
        cands.append((dots[j], R, com - R @ com + shifts[j] * voxel))
    cands.sort(key=lambda c: -c[0])   # stable: ties keep candidate order
    poses = [(R, t) for _, R, t in cands[:_SCAN_KEEP]]

    for level, (sigma_x, keep) in enumerate(_LADDER):
        if level:
            U = _level_field(target, voxel, sigma_atom, sigma_x)
        sigma_eff = float(np.hypot(sigma_atom, sigma_x))
        refined = [_refine(coords, amps, com, R, t, U, origin, voxel, sigma_eff)
                   for R, t in poses]
        refined.sort(key=lambda c: -c[2])
        poses = [(R, t) for R, t, _ in refined[:keep]]

    R, t = poses[0]
    sim = splat(coords @ R.T + t, amps, target.shape, origin, voxel, sigma_atom)
    return RigidTransform(R, t), _pearson(sim, target)
