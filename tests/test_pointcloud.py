"""Weighted k-means point-cloud extraction tests."""

import itertools
import warnings

import numpy as np
import pytest

from cryoguide.pointcloud import (PointCloud, _assign, cluster_count,
                                  extract_pointcloud, kmeans_objective)
from cryoguide.volume import DensityMap


def map_from_voxels(voxel_idx, values, shape=(6, 6, 6), voxel=1.0, origin=(0, 0, 0)):
    data = np.zeros(shape)
    for (i, j, k), v in zip(voxel_idx, values):
        data[i, j, k] = v
    return DensityMap(data, voxel, np.asarray(origin, dtype=float))


def brute_force_objective(pts, w, k):
    """Global optimum of the weighted k-means objective by partition enumeration.

    Uses sum_j sum_{i in j} w_i |p_i - c_j|^2 = sum_i w_i |p_i|^2 - sum_j |s_j|^2 / W_j
    with s_j the weighted coordinate sum and W_j the weight of cluster j, which
    lets every labeling be scored with batched tensor ops.
    """
    pts = np.asarray(pts, dtype=float)
    w = np.asarray(w, dtype=float)
    n = len(pts)
    labels = np.array(list(itertools.product(range(k), repeat=n)))  # (M, n)
    onehot = labels[:, :, None] == np.arange(k)                     # (M, n, k)
    W = np.einsum("mnk,n->mk", onehot, w)                           # (M, k)
    s = np.einsum("mnk,nd->mkd", onehot, w[:, None] * pts)          # (M, k, d)
    total = np.sum(w * np.sum(pts ** 2, axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        per_cluster = np.where(W > 0, np.sum(s ** 2, axis=2) / np.where(W > 0, W, 1.0), 0.0)
    return float(np.min(total - per_cluster.sum(axis=1)))


def reference_kmeans_once(pts, w, k, rng):
    """The (N, k, 3) broadcast and per-cluster np.average loop that
    _kmeans_once replaced, kept as the bitwise oracle."""
    centers = np.empty((k, 3))
    centers[0] = pts[rng.choice(len(pts), p=w / w.sum())]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        p = w * d2
        total = p.sum()
        if total <= 0:
            centers[j] = pts[rng.integers(len(pts))]
        else:
            centers[j] = pts[rng.choice(len(pts), p=p / total)]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))

    for _ in range(100):
        dist2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(dist2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            sel = labels == j
            if sel.any():
                new_centers[j] = np.average(pts[sel], axis=0, weights=w[sel])
            else:
                worst = np.argmax(w * dist2[np.arange(len(pts)), labels])
                new_centers[j] = pts[worst]
        if np.max(np.abs(new_centers - centers)) < 1e-4:
            centers = new_centers
            break
        centers = new_centers
    dist2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(dist2, axis=1)
    objective = float(np.sum(w * dist2[np.arange(len(pts)), labels]))
    return centers, labels, objective


def reference_extract(dmap, k, seed=0, restarts=10):
    """extract_pointcloud before grouped sums; returns the cloud and the
    best restart's objective."""
    pos = dmap.data > 0
    pts = np.argwhere(pos) * dmap.voxel_size + dmap.origin
    w = dmap.data[pos]
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers, labels, obj = reference_kmeans_once(pts, w, k, rng)
        if best is None or obj < best[2]:
            best = (centers, labels, obj)
    centers, labels, obj = best
    shares = np.array([w[labels == j].sum() for j in range(k)])
    return PointCloud(points=centers, weights=shares), obj


def assert_matches_reference(dmap, k, seed, restarts=10):
    got = extract_pointcloud(dmap, k, seed=seed, restarts=restarts)
    want, objective = reference_extract(dmap, k, seed=seed, restarts=restarts)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert kmeans_objective(dmap, got.points) == objective
    return got


class TestPointCloud:
    def test_weights_normalized(self):
        pc = PointCloud(np.zeros((3, 3)), np.array([1.0, 1.0, 2.0]))
        np.testing.assert_allclose(pc.weights, [0.25, 0.25, 0.5])
        assert len(pc) == 3

    def test_default_weights_uniform(self):
        pc = PointCloud(np.zeros((4, 3)))
        np.testing.assert_allclose(pc.weights, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-finite"):
            PointCloud(np.array([[np.inf, 0, 0]]))
        with pytest.raises(ValueError, match="weights"):
            PointCloud(np.zeros((2, 3)), np.array([1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            PointCloud(np.zeros((2, 3)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="positive sum"):
            PointCloud(np.zeros((2, 3)), np.array([0.0, 0.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite weights"):
                PointCloud(np.zeros((2, 3)), np.array([bad, 1.0]))
        with warnings.catch_warnings():     # a sum that overflows, quietly
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive sum.*sum finite; got sum inf"):
                PointCloud(np.zeros((2, 3)), np.array([1e308, 1e308]))


class TestClusterCount:
    @pytest.mark.parametrize("n,v,want", [
        (4000, 1.0, 1000),
        (4000, 2.0, 125),
        (30, 1.0, 7),
        (1, 1.0, 1),
        (3, 1.0, 1),       # floor would give 0 -> clamped to 1
        (100, 1.5, 7),     # 100 / 13.5 = 7.407 -> 7
    ])
    def test_values(self, n, v, want):
        assert cluster_count(n, v) == want

    def test_validation(self):
        with pytest.raises(ValueError, match="n_atoms"):
            cluster_count(0, 1.0)
        with pytest.raises(ValueError, match="voxel_size"):
            cluster_count(10, 0.0)


class TestExtractPointcloud:
    def test_k1_center_is_intensity_weighted_mean(self):
        idx = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]
        vals = [1.0, 2.0, 3.0]
        dmap = map_from_voxels(idx, vals, voxel=1.5, origin=(1.0, -2.0, 0.5))
        pc = extract_pointcloud(dmap, k=1)
        pts = np.asarray(idx) * 1.5 + np.array([1.0, -2.0, 0.5])
        want = np.average(pts, axis=0, weights=vals)
        np.testing.assert_allclose(pc.points[0], want, atol=1e-9)
        np.testing.assert_allclose(pc.weights, [1.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_partitions(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 10, 3
        flat = rng.choice(6 * 6 * 6, size=n, replace=False)
        idx = np.stack(np.unravel_index(flat, (6, 6, 6)), axis=1)
        vals = rng.uniform(0.5, 3.0, n)
        dmap = map_from_voxels(idx, vals)
        pc = extract_pointcloud(dmap, k=k, seed=7, restarts=10)
        pts = idx.astype(float)
        got = kmeans_objective(dmap, pc.points)
        want = brute_force_objective(pts, vals, k)
        assert got == pytest.approx(want, abs=1e-9)

    def test_weights_are_intensity_shares(self):
        # two well-separated blobs, 3:1 intensity ratio
        idx = [(0, 0, 0), (0, 0, 1), (5, 5, 4), (5, 5, 5)]
        vals = [1.5, 1.5, 0.5, 0.5]
        dmap = map_from_voxels(idx, vals)
        pc = extract_pointcloud(dmap, k=2)
        np.testing.assert_allclose(sorted(pc.weights), [0.25, 0.75])
        assert pc.weights.sum() == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        data = np.where(rng.random((8, 8, 8)) < 0.2, rng.random((8, 8, 8)), 0.0)
        dmap = DensityMap(data, 1.0, np.zeros(3))
        a = extract_pointcloud(dmap, k=5, seed=3)
        b = extract_pointcloud(dmap, k=5, seed=3)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_negative_voxels_ignored(self):
        data = np.zeros((4, 4, 4))
        data[1, 1, 1] = 2.0
        data[2, 2, 2] = -5.0
        dmap = DensityMap(data, 1.0, np.zeros(3))
        pc = extract_pointcloud(dmap, k=1)
        np.testing.assert_allclose(pc.points[0], [1.0, 1.0, 1.0])

    def test_too_few_positive_voxels_errors(self):
        dmap = map_from_voxels([(0, 0, 0)], [1.0])
        with pytest.raises(ValueError, match="positive voxels"):
            extract_pointcloud(dmap, k=2)

    def test_k_equals_n_gives_zero_objective(self):
        idx = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)]
        dmap = map_from_voxels(idx, [1.0, 2.0, 3.0, 4.0])
        pc = extract_pointcloud(dmap, k=4)
        assert kmeans_objective(dmap, pc.points) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sorted(pc.weights), [0.1, 0.2, 0.3, 0.4])

    def test_duplicate_position_mass(self):
        # k > distinct positions exercises the empty-cluster repair path:
        # with 2 distinct voxels and k=3 one cluster must land on a duplicate
        idx = [(0, 0, 0), (5, 5, 5)]
        dmap = map_from_voxels(idx, [1.0, 1.0])
        pc = extract_pointcloud(dmap, k=2)
        got = {tuple(p) for p in pc.points}
        assert got == {(0.0, 0.0, 0.0), (5.0, 5.0, 5.0)}


class TestMatchesReference:
    """Bitwise equal to the broadcast-and-np.average k-means it replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_maps(self, seed):
        rng = np.random.default_rng(100 + seed)
        data = np.where(rng.random((12, 11, 10)) < 0.4, rng.lognormal(0, 1.5, (12, 11, 10)), 0.0)
        origin = (-7.25, 0.0, -0.0) if seed % 2 else (3.5, -1.0, 12.0)
        dmap = DensityMap(data, 0.9, np.array(origin))
        assert_matches_reference(dmap, k=int(2 + 3 * seed), seed=seed, restarts=4)

    def test_one_cluster_beyond_a_pairwise_block(self):
        # 10,648 voxels in one cluster: the weight sum spans more than one
        # 8,192-element block of NumPy's pairwise summation
        rng = np.random.default_rng(4)
        dmap = DensityMap(rng.random((22, 22, 22)) + 0.01, 1.0, np.zeros(3))
        assert_matches_reference(dmap, k=1, seed=0, restarts=2)

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_between_two_centers(self, seed):
        # three equal voxels on a line: centers seeded on the two ends are
        # equidistant from the middle one, which goes to the lower index
        data = np.ones((3, 1, 1))
        dmap = DensityMap(data, 1.0, np.zeros(3))
        got = assert_matches_reference(dmap, k=2, seed=seed, restarts=1)
        assert sorted(got.weights.tolist()) == pytest.approx([1 / 3, 2 / 3])

    @pytest.mark.parametrize("seed", range(6))
    def test_empty_cluster_repair(self, seed):
        # at an origin of 1e17 A (float spacing 16 A) the four voxels collapse
        # onto two positions, so seeding repeats a center, the tie rule
        # leaves its cluster empty and the repair moves it
        data = np.zeros((32, 1, 1))
        data[[0, 1, 30, 31], 0, 0] = [1.0, 2.0, 0.5, 1.5]
        dmap = DensityMap(data, 1.0, np.array([1e17, 0.0, 0.0]))
        got = assert_matches_reference(dmap, k=3, seed=seed, restarts=1)
        assert sorted(got.weights.tolist()) == [0.0, 0.4, 0.6]

    def test_assign_ties_go_to_lowest_index(self):
        cols = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        centers = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        labels, d2min = _assign(cols, centers)
        assert labels.tolist() == [0, 1, 0]
        assert d2min.tolist() == [1.0, 0.0, 0.0]


class TestArguments:
    @pytest.mark.parametrize("k", [0, -2])
    def test_bad_k(self, k):
        dmap = map_from_voxels([(0, 0, 0), (3, 3, 3)], [1.0, 1.0])
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            extract_pointcloud(dmap, k=k)

    def test_bad_restarts(self):
        dmap = map_from_voxels([(0, 0, 0), (3, 3, 3)], [1.0, 1.0])
        with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
            extract_pointcloud(dmap, k=1, restarts=0)
