"""Rigid alignment and density docking tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryoguide import alignment
from cryoguide.alignment import (RigidTransform, _pearson, dock_to_map, kabsch,
                                 quasi_uniform_rotations, rotation_about)
from cryoguide.forward import atom_sigma, grid_for_model, simulate_map
from cryoguide.priors import chain_template, hinged_chain_modes
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
