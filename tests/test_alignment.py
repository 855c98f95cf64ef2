"""Rigid alignment and density docking tests."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter, map_coordinates

from cryoguide import alignment
from cryoguide.alignment import (RigidTransform, _lattice_scores, _level_field,
                                 _padded_pairs, _pearson, _quat_matrix, _refine,
                                 dock_to_map, kabsch, quasi_uniform_rotations,
                                 rotation_about)
from cryoguide.forward import atom_sigma, grid_for_model, simulate_map
from cryoguide.priors import chain_template, hinged_chain_modes, single_mode_chain_prior
from cryoguide.structure import Atom, AtomicModel


def rand_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class TestRigidTransform:
    def test_identity(self):
        t = RigidTransform.identity()
        pts = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(t.apply(pts), pts)
        assert t.angle_degrees() == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="orthogonal"):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError, match="proper"):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        t = RigidTransform(rand_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(7, 3))
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)

    def test_compose(self):
        rng = np.random.default_rng(2)
        t1 = RigidTransform(rand_rotation(rng), rng.normal(size=3))
        t2 = RigidTransform(rand_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(5, 3))
        np.testing.assert_allclose(t2.compose(t1).apply(pts),
                                   t2.apply(t1.apply(pts)), atol=1e-12)

    def test_angle_degrees(self):
        r = rotation_about(np.array([0.0, 0.0, 1.0]), 37.0)
        t = RigidTransform(r, np.zeros(3))
        assert t.angle_degrees() == pytest.approx(37.0, abs=1e-9)


class TestRotationAbout:
    def test_quarter_turn_z(self):
        r = rotation_about(np.array([0.0, 0.0, 1.0]), 90.0)
        np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_axis_fixed(self):
        axis = np.array([0.1, 0.9, -0.4])
        r = rotation_about(axis, 63.0)
        np.testing.assert_allclose(r @ axis, axis, atol=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_about(np.zeros(3), 10.0)

    @pytest.mark.parametrize("axis,degrees,bad", [
        ([0.0, 0.0, 1.0], np.nan, "degrees"), ([0.0, 0.0, 1.0], np.inf, "degrees"),
        ([0.0, np.nan, 1.0], 10.0, "axis"), ([np.inf, 0.0, 1.0], 10.0, "axis")])
    def test_non_finite_argument_rejected(self, axis, degrees, bad):
        with pytest.raises(ValueError, match=f"^rotation_about: {bad} must be finite"):
            rotation_about(np.array(axis), degrees)


class TestQuasiUniformRotations:
    def test_count_and_validity(self):
        rots = quasi_uniform_rotations(64)
        assert len(rots) == 64
        for r in rots:
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_covers_orientations(self):
        # every random orientation should have a sampled rotation within ~40 deg
        rots = quasi_uniform_rotations(576)
        rng = np.random.default_rng(0)
        for _ in range(20):
            target = rand_rotation(rng)
            best = min(RigidTransform(r @ target.T, np.zeros(3)).angle_degrees()
                       for r in rots)
            assert best < 40.0


class TestKabsch:
    def test_exact_recovery(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(10, 3))
        r = rotation_about(np.array([0.0, 0.0, 1.0]), 90.0)
        target = pts @ r.T + np.array([5.0, 0.0, 0.0])
        transform, rmsd = kabsch(pts, target)
        assert rmsd == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(transform.rotation, r, atol=1e-10)
        np.testing.assert_allclose(transform.apply(pts), target, atol=1e-10)

    def test_mirror_has_positive_floor(self):
        # chiral 4-point set vs its mirror image: no proper rotation reaches 0.
        # oracle: dense rotation sampling confirms the floor is real.
        pts = np.array([[0.0, 0, 0], [1.9, 0, 0], [0, 1.3, 0], [0, 0, 0.8]])
        mirrored = pts * np.array([-1.0, 1.0, 1.0])
        _, rmsd = kabsch(pts, mirrored)
        assert rmsd > 0.1
        best_sampled = np.inf
        for r in quasi_uniform_rotations(500):
            rot = pts @ r.T
            rot = rot - rot.mean(axis=0) + mirrored.mean(axis=0)
            best_sampled = min(best_sampled,
                               np.sqrt(np.mean(np.sum((rot - mirrored) ** 2, axis=1))))
        assert rmsd <= best_sampled + 1e-9

    def test_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            kabsch(np.zeros((4, 3)), np.zeros((5, 3)))
        with pytest.raises(ValueError, match=">= 3"):
            kabsch(np.zeros((2, 3)), np.zeros((2, 3)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_optimal_under_random_rigid_motion(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 3, (8, 3))
        r = rand_rotation(rng)
        shift = rng.normal(0, 10, 3)
        noisy = pts @ r.T + shift + rng.normal(0, 0.1, (8, 3))
        transform, rmsd = kabsch(pts, noisy)
        residual = np.sqrt(np.mean(np.sum((transform.apply(pts) - noisy) ** 2, axis=1)))
        assert rmsd == pytest.approx(residual, abs=1e-9)
        # rmsd must not exceed that of the generating transform itself
        gen = np.sqrt(np.mean(np.sum((pts @ r.T + shift - noisy) ** 2, axis=1)))
        assert rmsd <= gen + 1e-9


@pytest.fixture(scope="module")
def chain_map():
    coords = hinged_chain_modes()[0]
    model = chain_template(coords)
    grid = grid_for_model(model, voxel_size=1.0, pad=4.0)
    dmap = simulate_map(model, grid, resolution=2.0)
    return model, dmap


class TestDock:
    def test_self_dock_identity(self, chain_map):
        model, dmap = chain_map
        transform, score = dock_to_map(model, dmap, resolution=2.0,
                                       n_rotations=64)
        assert score > 0.99
        assert transform.angle_degrees() < 2.0
        assert np.linalg.norm(transform.translation) < 0.5

    def test_recovers_half_turn(self, chain_map):
        model, dmap = chain_map
        r = rotation_about(np.array([0.0, 0.0, 1.0]), 180.0)
        com = model.coords().mean(axis=0)
        moved = model.with_coords((model.coords() - com) @ r.T + com)
        transform, score = dock_to_map(moved, dmap, resolution=2.0)
        assert score > 0.98
        docked = transform.apply(moved.coords())
        rmsd = np.sqrt(np.mean(np.sum((docked - model.coords()) ** 2, axis=1)))
        assert rmsd < 1.0

    def test_recovers_random_pose(self, chain_map):
        model, dmap = chain_map
        rng = np.random.default_rng(5)
        r = rand_rotation(rng)
        com = model.coords().mean(axis=0)
        moved = model.with_coords((model.coords() - com) @ r.T + com + [6.0, -4.0, 3.0])
        transform, score = dock_to_map(moved, dmap, resolution=2.0)
        docked = transform.apply(moved.coords())
        rmsd = np.sqrt(np.mean(np.sum((docked - model.coords()) ** 2, axis=1)))
        assert score > 0.95
        assert rmsd < 1.5

    def test_one_splat_scores_the_returned_pose(self, chain_map, monkeypatch):
        # poses are ranked by interpolated lookups; only the reported
        # Pearson score splats the model
        model, dmap = chain_map
        real_splat = alignment.splat
        calls = []

        def counting_splat(*args, **kwargs):
            calls.append(args)
            return real_splat(*args, **kwargs)

        monkeypatch.setattr(alignment, "splat", counting_splat)
        transform, score = dock_to_map(model, dmap, resolution=2.0,
                                       n_rotations=64)
        assert len(calls) == 1
        sim = real_splat(transform.apply(model.coords()),
                         model.atomic_numbers().astype(np.float64),
                         dmap.data.shape, dmap.origin, dmap.voxel_size,
                         atom_sigma(2.0))
        assert score == pytest.approx(_pearson(sim, dmap.data), abs=1e-12)

    def test_errors(self, chain_map):
        model, dmap = chain_map
        with pytest.raises(ValueError, match="empty"):
            dock_to_map(AtomicModel(()), dmap, 2.0)
        flat = dmap.__class__(np.zeros((4, 4, 4)), 1.0, np.zeros(3))
        with pytest.raises(ValueError, match="variance"):
            dock_to_map(model, flat, 2.0)


# Oracles: the per-rotation scan, per-pose refinement and dock that the
# batched forms replaced.  The batched forms must reproduce their poses bitwise.

def oracle_lookup_scores(U, idx, amps):
    """sum_i amps_i * U(idx_i) for each pose; idx is (..., n_atoms, 3) in voxels."""
    vals = map_coordinates(U, idx.reshape(-1, 3).T, order=1, mode="constant")
    return vals.reshape(-1, len(amps)) @ amps


def oracle_refine(coords, amps, com, R, t, U, origin, voxel, sigma_eff):
    axes = np.eye(3)

    def score(Rc, tc):
        return float(oracle_lookup_scores(U, (coords @ Rc.T + tc - origin) / voxel,
                                          amps)[0])

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


def oracle_level_field(target, voxel, sigma_atom, sigma_x):
    U = gaussian_filter(target, np.hypot(sigma_atom, np.sqrt(2) * sigma_x) / voxel,
                        mode="constant", truncate=4.0)
    return U - U.mean()


def oracle_dock(model, dmap, resolution, n_rotations=576, seed=0):
    target = dmap.data
    coords = model.coords()
    amps = model.atomic_numbers().astype(np.float64)
    voxel, origin = dmap.voxel_size, dmap.origin
    com = coords.mean(axis=0)
    sigma_atom = atom_sigma(resolution)
    ladder = ((8.0, 4), (4.0, 4), (2.0, 1), (1.0, 1), (0.0, 1))
    U = oracle_level_field(target, voxel, sigma_atom, ladder[0][0])
    extents = np.array(target.shape) * voxel
    ranges = [max(1, int(e * 0.25 // voxel)) for e in extents]
    step = max(1, int(np.hypot(sigma_atom, ladder[0][0]) / (2 * voxel)))
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
        dots = oracle_lookup_scores(U, idx[None, :, :] + shifts[:, None, :], amps)
        j = int(np.argmax(dots))
        cands.append((dots[j], R, com - R @ com + shifts[j] * voxel))
    cands.sort(key=lambda c: -c[0])
    poses = [(R, t) for _, R, t in cands[:16]]
    for level, (sigma_x, keep) in enumerate(ladder):
        if level:
            U = oracle_level_field(target, voxel, sigma_atom, sigma_x)
        sigma_eff = float(np.hypot(sigma_atom, sigma_x))
        refined = [oracle_refine(coords, amps, com, R, t, U, origin, voxel, sigma_eff)
                   for R, t in poses]
        refined.sort(key=lambda c: -c[2])
        poses = [(R, t) for R, t, _ in refined[:keep]]
    R, t = poses[0]
    sim = alignment.splat(coords @ R.T + t, amps, target.shape, origin, voxel,
                          sigma_atom)
    return RigidTransform(R, t), _pearson(sim, target)


@pytest.fixture(scope="module")
def registration_map():
    """The registration test's target: the single-mode chain's anchor pose,
    turned 25 degrees and moved by (8, -5, 6) A, simulated at 2 A."""
    prior, _ = single_mode_chain_prior()
    anchor = prior.mode_coords(0)
    r = rotation_about(np.array([0.3, 1.0, -0.2]), 25.0)
    com = anchor.mean(axis=0)
    truth = chain_template((anchor - com) @ r.T + com + np.array([8.0, -5.0, 6.0]))
    grid = grid_for_model(truth, voxel_size=1.0, pad=4.0)
    dmap = simulate_map(truth, grid, resolution=2.0)
    assert dmap.data.shape == (66, 50, 47)
    return chain_template(anchor), dmap


def lattice_case(U, x, amps, ax):
    """(new scores, oracle scores) of one scan."""
    shifts = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
    expected = oracle_lookup_scores(U, x[None] + shifts[:, None].astype(float), amps)
    return _lattice_scores(_padded_pairs(U), x, amps, ax), expected


def assert_scan_matches(got, expected):
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.argmax(got) == np.argmax(expected)


class TestLatticeScan:
    """The gather scan against one map_coordinates call per rotation."""

    AX = [np.arange(-6, 7, 2), np.arange(-4, 5, 2), np.arange(-6, 7, 3)]

    def test_random_rotations(self, chain_map):
        model, dmap = chain_map
        U = _level_field(dmap.data, dmap.voxel_size, atom_sigma(2.0), 8.0)
        coords = model.coords()
        amps = model.atomic_numbers().astype(np.float64)
        com = coords.mean(axis=0)
        rng = np.random.default_rng(11)
        for _ in range(12):
            R = rand_rotation(rng)
            x = ((coords - com) @ R.T + com - dmap.origin) / dmap.voxel_size
            x += rng.uniform(-3.0, 3.0, 3)
            assert_scan_matches(*lattice_case(U, x, amps, self.AX))

    def test_face_integer_and_outside_points(self):
        rng = np.random.default_rng(12)
        U = rng.normal(size=(9, 11, 8))
        n = np.array(U.shape)
        amps = rng.uniform(1.0, 8.0, 40)
        x = rng.uniform(0.0, 1.0, (40, 3)) * (n - 1)
        x[:8, 0] = n[0] - 1                       # on the high x face
        x[8:14, 1] = n[1] - 1 - 4                 # on the high y face after +4
        x[14:20, 2] = 0.0                         # on the low z face
        x[20:28] = np.round(x[20:28])             # on lattice points
        x[28:34, 0] = rng.uniform(-8.0, -0.01, 6)     # off the low x face
        x[34:40, 2] = n[2] - 1 + rng.uniform(0.01, 8.0, 6)  # off the high z face
        x[38, 1] = n[1] - 1 + 1e-13               # just off the high y face
        assert_scan_matches(*lattice_case(U, x, amps, self.AX))

    @pytest.mark.parametrize("thickness", [1, 2, 3])
    def test_thin_maps(self, thickness):
        rng = np.random.default_rng(thickness)
        U = rng.normal(size=(12, thickness, 10))
        amps = rng.uniform(1.0, 8.0, 25)
        x = rng.uniform(-2.0, 12.0, (25, 3))
        x[:, 1] = rng.choice(np.arange(thickness, dtype=float), 25)
        x[:5, 1] = rng.uniform(0.0, thickness - 1, 5)
        ax = [np.arange(-4, 5, 2), np.arange(-2, 3), np.arange(-3, 4, 3)]
        assert_scan_matches(*lattice_case(U, x, amps, ax))


class TestBatchedDock:
    def test_lockstep_refine_matches_serial(self, chain_map):
        model, dmap = chain_map
        coords = model.coords()
        amps = model.atomic_numbers().astype(np.float64)
        com = coords.mean(axis=0)
        sigma_eff = float(np.hypot(atom_sigma(2.0), 4.0))
        U = _level_field(dmap.data, dmap.voxel_size, atom_sigma(2.0), 4.0)
        rng = np.random.default_rng(13)
        Rs, ts = [], []
        for _ in range(16):
            R = rotation_about(rng.normal(size=3), rng.uniform(0.0, 40.0))
            Rs.append(R)
            ts.append(com - R @ com + rng.uniform(-3.0, 3.0, 3))
        R, t, sc, lookups = _refine(coords, amps, com, np.array(Rs), np.array(ts), U,
                                    dmap.origin, dmap.voxel_size, sigma_eff)
        assert lookups > 12
        for i in range(16):
            Ro, to, so = oracle_refine(coords, amps, com, Rs[i], ts[i], U, dmap.origin,
                                       dmap.voxel_size, sigma_eff)
            np.testing.assert_array_equal(R[i], Ro)
            np.testing.assert_array_equal(t[i], to)
            assert sc[i] == so

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dock_matches_serial_dock(self, chain_map, registration_map, seed):
        # the chain map at 64 rotations (the self-dock tests' count), the
        # registration map at the pipeline's default 576
        for (model, dmap), n_rot in ((chain_map, 64), (registration_map, 576)):
            transform, score = dock_to_map(model, dmap, 2.0, n_rotations=n_rot,
                                           seed=seed)
            expected, expected_score = oracle_dock(model, dmap, 2.0, n_rotations=n_rot,
                                                   seed=seed)
            np.testing.assert_array_equal(transform.rotation, expected.rotation)
            np.testing.assert_array_equal(transform.translation, expected.translation)
            assert score == expected_score

    def test_memory_stays_near_the_map_size(self, registration_map):
        # the scan gathers from the field stored once as z-adjacent pairs; a
        # copy packing all 8 trilinear corners would alone take 8x the map
        model, dmap = registration_map
        tracemalloc.start()
        try:
            dock_to_map(model, dmap, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * dmap.data.nbytes

    def test_logs_scan_and_refinement_split(self, chain_map, caplog):
        model, dmap = chain_map
        with caplog.at_level(logging.DEBUG, logger="cryoguide.alignment"):
            dock_to_map(model, dmap, 2.0, n_rotations=8)
        [line] = [r.getMessage() for r in caplog.records if "dock:" in r.getMessage()]
        assert "over 9 rotations x " in line
        assert len(alignment._LADDER) == line.count(" lookups")
