"""Density map -> compact weighted point cloud via weighted k-means.

Every assignment (Lloyd updates, restart objective, `kmeans_objective`) uses
one rule: nearest center by squared distance, ties to the lowest index.
Assignments run one center at a time and the center updates are grouped sums,
so memory stays O(voxels) at any k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .volume import DensityMap


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray           # (k, 3) world coordinates (A)
    weights: np.ndarray = field(default=None)  # (k,) normalized to sum 1

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if len(pts) == 0:
            raise ValueError("point cloud must contain at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite coordinates")
        w = self.weights
        if w is None:
            w = np.ones(len(pts))
        w = np.asarray(w, dtype=np.float64).reshape(-1)
        if len(w) != len(pts):
            raise ValueError(f"{len(w)} weights for {len(pts)} points")
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w / w.sum())

    def __len__(self) -> int:
        return len(self.points)


def cluster_count(n_atoms: int, voxel_size: float) -> int:
    """Number of cluster centers: max(1, floor(n_atoms / (4 voxel_size^3)))."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if not voxel_size > 0:
        raise ValueError(f"voxel_size must be positive, got {voxel_size}")
    return max(1, int(n_atoms / (4.0 * voxel_size ** 3)))


def _assign(cols, centers):
    """Nearest center of each point and its squared distance; ties go to the
    lowest center index.

    One center at a time over the coordinate columns, so memory is O(N) at
    any k.  The sum is ordered x, y, z, as np.sum over a length-3 axis
    takes it, so distances are bitwise those of the (N, k, 3) broadcast.
    """
    x, y, z = cols
    # the narrowest label type lets the stable argsort in _cluster_sums radix-sort
    labels = np.zeros(len(x), dtype=np.min_scalar_type(len(centers) - 1))
    d2min = None
    for j, (cx, cy, cz) in enumerate(centers.tolist()):
        d2 = np.square(x - cx)
        d2 += np.square(y - cy)
        d2 += np.square(z - cz)
        if d2min is None:
            d2min = d2
            continue
        closer = d2 < d2min                     # strict: ties keep the lower index
        labels[closer] = j
        np.minimum(d2min, d2, out=d2min)
    return labels, d2min


def _cluster_sums(labels, w, k):
    """Point count and weight sum of each cluster.

    Each weight sum is NumPy's pairwise sum over the cluster's weights in
    index order, as np.average and `w[labels == j].sum()` take it; a
    sequential np.bincount sum differs from it in the last bits.
    """
    counts = np.bincount(labels, minlength=k)
    ends = np.cumsum(counts).tolist()
    ws = w[np.argsort(labels, kind="stable")]
    sums = np.array([ws[start:end].sum() for start, end in zip([0] + ends, ends)])
    return counts, sums


def _kmeans_once(pts, cols, wcols, w, k, rng):
    # weighted k-means++ seeding
    centers = np.empty((k, 3))
    centers[0] = pts[rng.choice(len(pts), p=w / w.sum())]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        p = w * d2
        total = p.sum()
        if total <= 0:  # all mass already on chosen centers
            centers[j] = pts[rng.integers(len(pts))]
        else:
            centers[j] = pts[rng.choice(len(pts), p=p / total)]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))

    for _ in range(100):
        labels, d2min = _assign(cols, centers)
        counts, sums = _cluster_sums(labels, w, k)
        full = counts > 0
        new_centers = np.empty_like(centers)
        for d in range(3):
            # sequential sums in index order, as np.average's numerator
            num = np.bincount(labels, weights=wcols[d], minlength=k)
            new_centers[full, d] = num[full] / sums[full]
        if not full.all():
            # repair: move empty clusters to the highest-weighted, worst-fit voxel
            new_centers[~full] = pts[np.argmax(w * d2min)]
        if np.max(np.abs(new_centers - centers)) < 1e-4:
            centers = new_centers
            break
        centers = new_centers
    labels, d2min = _assign(cols, centers)
    objective = float(np.sum(w * d2min))
    return centers, labels, objective


def _positive_voxels(dmap: DensityMap):
    """World coordinates (N, 3), their contiguous x, y, z columns (3, N) and
    intensities of the map's positive voxels."""
    pos = dmap.data > 0
    pts = np.argwhere(pos) * dmap.voxel_size + dmap.origin
    return pts, np.ascontiguousarray(pts.T), dmap.data[pos]


def extract_pointcloud(dmap: DensityMap, k: int, seed: int = 0,
                       restarts: int = 10) -> PointCloud:
    """Weighted k-means (k-means++ seeding, best of `restarts`) over positive voxels.

    Each voxel is assigned to its nearest center, ties going to the lowest
    center index; the same rule gives the Lloyd updates, the objective that
    picks the best restart, and `kmeans_objective`.  Point weights are each
    cluster's share of total intensity.
    """
    if k < 1:
        raise ValueError(f"extract_pointcloud: k must be >= 1, got {k}")
    if restarts < 1:
        raise ValueError(f"extract_pointcloud: restarts must be >= 1, got {restarts}")
    pts, cols, w = _positive_voxels(dmap)
    if len(pts) < k:
        raise ValueError(f"extract_pointcloud: {len(pts)} positive voxels < k = {k}")
    wcols = w * cols

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers, labels, obj = _kmeans_once(pts, cols, wcols, w, k, rng)
        if best is None or obj < best[2]:
            best = (centers, labels, obj)
    centers, labels, _ = best
    _, shares = _cluster_sums(labels, w, k)
    return PointCloud(points=centers, weights=shares)


def kmeans_objective(dmap: DensityMap, centers: np.ndarray) -> float:
    """Weighted assignment objective of `centers` on the map's positive voxels."""
    _, cols, w = _positive_voxels(dmap)
    _, d2min = _assign(cols, np.asarray(centers, dtype=np.float64).reshape(-1, 3))
    return float(np.sum(w * d2min))
