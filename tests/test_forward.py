"""Forward-model tests: splatting, blur operator, loss, and analytic gradient."""

import tracemalloc

import numpy as np
import pytest

import cryoguide
from cryoguide import _kernels, forward
from cryoguide.forward import (SIGMA_PER_RESOLUTION, BlurOperator, atom_sigma,
                               density_loss, density_loss_grad,
                               density_loss_grad_coords, grid_for_model,
                               simulate_map)
from cryoguide._kernels import _splat_py
from cryoguide.structure import Atom, AtomicModel
from cryoguide.volume import DensityMap, mask_near_model


def dense_splat(coords, amps, shape, origin, voxel, sigma):
    """Independent full-grid oracle: evaluate every voxel, no blocking."""
    idx = np.stack(np.meshgrid(*(np.arange(n) for n in shape), indexing="ij"), -1)
    world = idx * voxel + np.asarray(origin)
    out = np.zeros(shape)
    rad2 = (4.0 * sigma) ** 2
    for p, a in zip(np.asarray(coords, float), np.asarray(amps, float)):
        d2 = np.sum((world - p) ** 2, axis=-1)
        out += np.where(d2 <= rad2, a * np.exp(-d2 / (2 * sigma * sigma)), 0.0)
    return out


def _loop_block(p, origin, voxel, shape, rad):
    c = (p - origin) / voxel
    lo = np.maximum(np.ceil(c - rad / voxel), 0).astype(np.int64)
    hi = np.minimum(np.floor(c + rad / voxel), np.asarray(shape) - 1).astype(np.int64)
    return lo, hi


def loop_splat(coords, amps, shape, origin, voxel, sigma):
    """Reference: the per-atom loop the vectorized kernel must match bitwise."""
    coords = np.asarray(coords, dtype=np.float64)
    amps = np.asarray(amps, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    data = np.zeros(tuple(shape), dtype=np.float64)
    rad = 4.0 * sigma
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    for p, a in zip(coords, amps):
        lo, hi = _loop_block(p, origin, voxel, shape, rad)
        if np.any(lo > hi):
            continue
        ax = [np.arange(lo[i], hi[i] + 1) * voxel + origin[i] - p[i] for i in range(3)]
        d2 = (ax[0][:, None, None] ** 2 + ax[1][None, :, None] ** 2
              + ax[2][None, None, :] ** 2)
        blk = np.where(d2 <= rad * rad, a * np.exp(-d2 * inv2s2), 0.0)
        data[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] += blk
    return data


def loop_splat_grad(coords, amps, field, origin, voxel, sigma):
    """Reference: the per-atom loop the vectorized gradient must match bitwise."""
    coords = np.asarray(coords, dtype=np.float64)
    amps = np.asarray(amps, dtype=np.float64)
    field = np.asarray(field, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    shape = field.shape
    grad = np.zeros((len(coords), 3), dtype=np.float64)
    rad = 4.0 * sigma
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    invs2 = 1.0 / (sigma * sigma)
    for ai, (p, a) in enumerate(zip(coords, amps)):
        lo, hi = _loop_block(p, origin, voxel, shape, rad)
        if np.any(lo > hi):
            continue
        ax = [np.arange(lo[i], hi[i] + 1) * voxel + origin[i] - p[i] for i in range(3)]
        d2 = (ax[0][:, None, None] ** 2 + ax[1][None, :, None] ** 2
              + ax[2][None, None, :] ** 2)
        w = np.where(d2 <= rad * rad, a * np.exp(-d2 * inv2s2), 0.0)
        fw = field[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] * w * invs2
        grad[ai, 0] = np.sum(fw * ax[0][:, None, None])
        grad[ai, 1] = np.sum(fw * ax[1][None, :, None])
        grad[ai, 2] = np.sum(fw * ax[2][None, None, :])
    return grad


def loop_mask_near_model(dmap, model, radius):
    """Reference: the per-atom loop the vectorized mask must match exactly."""
    coords = model.coords()
    keep = np.zeros(dmap.data.shape, dtype=bool)
    shape = np.array(dmap.data.shape)
    r2 = radius * radius
    for p in coords:
        c = (p - dmap.origin) / dmap.voxel_size
        lo = np.maximum(np.ceil(c - radius / dmap.voxel_size), 0).astype(int)
        hi = np.minimum(np.floor(c + radius / dmap.voxel_size), shape - 1).astype(int)
        if np.any(lo > hi):
            continue
        ax = [np.arange(lo[i], hi[i] + 1) * dmap.voxel_size + dmap.origin[i] - p[i]
              for i in range(3)]
        d2 = ax[0][:, None, None] ** 2 + ax[1][None, :, None] ** 2 + ax[2][None, None, :] ** 2
        keep[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] |= d2 <= r2
    return np.where(keep, dmap.data, 0.0)


def carbon_chain(coords):
    return AtomicModel(tuple(Atom("C", p, "A", i + 1, "GLY", "CA")
                             for i, p in enumerate(coords)))


class TestAtomSigma:
    def test_value(self):
        assert atom_sigma(2.0) == pytest.approx(0.45)
        assert SIGMA_PER_RESOLUTION == 0.225

    def test_nonpositive_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="resolution"):
                atom_sigma(bad)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_rejected(self, bad):
        # an infinite width once splatted every atom's full amplitude onto
        # every voxel: a flat map
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            atom_sigma(bad)
        model = carbon_chain(np.array([[1.0, 2.0, 3.0], [2.0, 2.5, 3.0]]))
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            simulate_map(model, grid_for_model(model, 1.0, pad=3.0), bad)


class TestSplat:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        coords = rng.uniform(2.0, 8.0, (6, 3))
        amps = rng.uniform(1.0, 9.0, 6)
        shape, origin, voxel, sigma = (11, 10, 12), np.array([0.5, -0.25, 0.0]), 1.0, 0.9
        got = _kernels.splat(coords, amps, shape, origin, voxel, sigma)
        want = dense_splat(coords, amps, shape, origin, voxel, sigma)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_truncated_at_four_sigma(self):
        sigma = 0.5
        data = _kernels.splat(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]),
                              (9, 9, 9), np.array([-4.0, -4.0, -4.0]), 1.0, sigma)
        # voxel at distance 2.0 = 4 sigma is kept, distance 3.0 is cut
        assert data[6, 4, 4] > 0  # |(2,0,0)| = 4 sigma exactly
        assert data[7, 4, 4] == 0.0
        assert data[4, 4, 4] == pytest.approx(1.0)

    def test_atom_outside_grid_contributes_nothing(self):
        data = _kernels.splat(np.array([[100.0, 0.0, 0.0]]), np.array([1.0]),
                              (5, 5, 5), np.zeros(3), 1.0, 0.5)
        assert np.all(data == 0.0)

    def test_zero_atoms_give_an_empty_map(self):
        data = _kernels.splat(np.zeros((0, 3)), np.zeros(0), (4, 5, 6), np.zeros(3), 1.0, 0.5)
        assert data.shape == (4, 5, 6) and np.all(data == 0.0)
        grad = _kernels.splat_grad(np.zeros((0, 3)), np.zeros(0), np.ones((4, 5, 6)),
                                   np.zeros(3), 1.0, 0.5)
        assert grad.shape == (0, 3)

    def test_bad_inputs_rejected(self):
        coords, amps = np.full((5, 3), 2.0), np.ones(3)
        field, origin = np.ones((6, 6, 6)), np.zeros(3)
        with pytest.raises(ValueError, match=r"amps must have shape \(5,\)"):
            _kernels.splat(coords, amps, field.shape, origin, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"amps must have shape \(5,\)"):
            _kernels.splat_grad(coords, amps, field, origin, 1.0, 0.5)
        target = DensityMap(field, 1.0, origin)
        with pytest.raises(ValueError, match=r"amps must have shape \(5,\)"):
            density_loss_grad_coords(coords, amps, target, 2.0)
        with pytest.raises(ValueError, match=r"coords must have shape \(n, 3\)"):
            _kernels.splat(np.ones((5, 2)), np.ones(5), field.shape, origin, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"coords must have shape \(n, 3\)"):
            _kernels.splat_grad(np.ones(3), np.ones(1), field, origin, 1.0, 0.5)
        for row, count in (([np.nan, 1.0, 1.0], 1), ([np.inf, -np.inf, 1.0], 2)):
            bad = np.array([row, [2.0, 2.0, 2.0]])
            with pytest.raises(ValueError, match=f"{count} non-finite coordinate"):
                _kernels.splat(bad, np.ones(2), field.shape, origin, 1.0, 0.5)
            with pytest.raises(ValueError, match=f"{count} non-finite coordinate"):
                _kernels.splat_grad(bad, np.ones(2), field, origin, 1.0, 0.5)
        for voxel, sigma, what in ((0.0, 0.5, "voxel"), (-1.0, 0.5, "voxel"),
                                   (1.0, 0.0, "sigma"), (1.0, float("nan"), "sigma")):
            with pytest.raises(ValueError, match=f"{what} must be positive"):
                _kernels.splat(coords, np.ones(5), field.shape, origin, voxel, sigma)
            with pytest.raises(ValueError, match=f"{what} must be positive"):
                _kernels.splat_grad(coords, np.ones(5), field, origin, voxel, sigma)

    @pytest.mark.parametrize("origin, voxel, sigma, message", [
        (np.zeros(3), float("inf"), 0.5, "voxel must be positive and finite, got inf"),
        (np.zeros(3), 1.0, float("inf"), "sigma must be positive and finite, got inf"),
        (np.array([0.0, np.nan, 0.0]), 1.0, 0.5, r"origin must be finite, got \[ 0. nan  0.\]"),
    ], ids=["voxel", "sigma", "origin"])
    def test_non_finite_geometry_rejected(self, origin, voxel, sigma, message):
        # each once gave a map of zeros, of NaN or of every atom's full
        # amplitude instead of an error
        coords = np.array([[2.0, 2.0, 2.0], [3.0, 2.5, 2.0]])
        field = np.ones((6, 6, 6))
        with pytest.raises(ValueError, match=message):
            _kernels.splat(coords, np.ones(2), field.shape, origin, voxel, sigma)
        with pytest.raises(ValueError, match=message):
            _kernels.splat_grad(coords, np.ones(2), field, origin, voxel, sigma)
        with pytest.raises(ValueError, match=message):
            _kernels.splat_grad(coords[None], np.ones(2), field[None], origin, voxel, sigma)

    def test_field_must_hold_one_grid_per_row(self):
        coords, amps, origin = np.full((2, 5, 3), 2.0), np.ones(5), np.zeros(3)
        for field in (np.ones((6, 6, 6)), np.ones((3, 6, 6, 6)), np.ones((1, 2, 6, 6, 6))):
            with pytest.raises(ValueError, match=r"field must hold one \(w, h, d\) grid "
                                                 r"per row of coords \(2, 5, 3\)"):
                _kernels.splat_grad(coords, amps, field, origin, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"per row of coords \(5, 3\)"):
            _kernels.splat_grad(coords[0], amps, np.ones((1, 6, 6, 6)), origin, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"coords must have shape \(n, 3\) or \(B, n, 3\)"):
            _kernels.splat(coords[None], amps, (6, 6, 6), origin, 1.0, 0.5)

    def test_splat_grad_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        coords = rng.uniform(1.0, 6.0, (4, 3))
        amps = rng.uniform(1.0, 9.0, 4)
        shape, origin, voxel, sigma = (8, 8, 8), np.zeros(3), 1.0, 0.8
        field = rng.normal(size=shape)
        got = _kernels.splat_grad(coords, amps, field, origin, voxel, sigma)

        # oracle: grad_i = sum_v field[v] * d/dp_i [amp * g(|v - p|)]
        idx = np.stack(np.meshgrid(*(np.arange(n) for n in shape), indexing="ij"), -1)
        world = idx * voxel + origin
        rad2 = (4.0 * sigma) ** 2
        want = np.zeros_like(got)
        for i, (p, a) in enumerate(zip(coords, amps)):
            diff = world - p
            d2 = np.sum(diff ** 2, axis=-1)
            w = np.where(d2 <= rad2, a * np.exp(-d2 / (2 * sigma**2)), 0.0)
            want[i] = np.sum((field * w / sigma**2)[..., None] * diff, axis=(0, 1, 2))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestBlurOperator:
    def test_zero_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(6, 5, 4))
        assert BlurOperator(0.0).apply(data, 1.0) is data

    def test_kernel_unit_sum_and_symmetric(self):
        k = BlurOperator(1.3).kernel1d(0.7)
        assert k.sum() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(k, k[::-1])
        assert len(k) == 2 * int(np.floor(4 * 1.3 / 0.7)) + 1

    def test_self_adjoint(self):
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=(2, 7, 6, 5))
        blur = BlurOperator(0.9)
        lhs = np.sum(blur.apply(u, 1.0) * v)
        rhs = np.sum(u * blur.apply(v, 1.0))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_preserves_constant_interior(self):
        # far from boundaries a unit-sum kernel leaves a constant field fixed
        data = np.ones((17, 17, 17))
        out = BlurOperator(1.0).apply(data, 1.0)
        assert out[8, 8, 8] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("sigma_b", [float("nan"), float("inf")])
    def test_non_finite_width_rejected(self, sigma_b):
        with pytest.raises(ValueError, match="blur width must be finite and >= 0"):
            BlurOperator(sigma_b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            BlurOperator(-0.1)


class TestSimulateMap:
    def test_amplitude_is_atomic_number(self):
        grid = DensityMap(np.zeros((7, 7, 7)), 1.0, np.array([-3.0, -3.0, -3.0]))
        res = 2.0
        m_c = AtomicModel((Atom("C", (0, 0, 0)),))
        m_o = AtomicModel((Atom("O", (0, 0, 0)),))
        d_c = simulate_map(m_c, grid, res).data
        d_o = simulate_map(m_o, grid, res).data
        np.testing.assert_allclose(d_o, d_c * (8.0 / 6.0), rtol=1e-12)
        assert d_c[3, 3, 3] == pytest.approx(6.0)

    def test_empty_model_rejected(self):
        grid = DensityMap(np.zeros((4, 4, 4)), 1.0, np.zeros(3))
        with pytest.raises(ValueError, match="empty"):
            simulate_map(AtomicModel(()), grid, 2.0)

    def test_blur_applied(self):
        # grid big enough that splat tail + blur kernel stay interior,
        # so the unit-sum kernel conserves total mass
        grid = DensityMap(np.zeros((15, 15, 15)), 1.0, np.full(3, -7.0))
        m = AtomicModel((Atom("C", (0, 0, 0)),))
        plain = simulate_map(m, grid, 2.0).data
        blurred = simulate_map(m, grid, 2.0, BlurOperator(1.0)).data
        assert blurred[7, 7, 7] < plain[7, 7, 7]
        assert blurred.sum() == pytest.approx(plain.sum(), rel=1e-12)


class TestGridForModel:
    def test_tight_box_covers_model(self):
        m = carbon_chain([[0.0, 0.0, 0.0], [7.3, 4.1, 2.9]])
        g = grid_for_model(m, voxel_size=1.0, pad=4.0)
        lo = g.origin
        hi = g.origin + (np.array(g.data.shape) - 1) * g.voxel_size
        assert np.all(lo <= -4.0 + 1e-9) and np.all(hi >= np.array([7.3, 4.1, 2.9]) + 4.0 - 1.0)
        assert np.all(g.data == 0)

    def test_fixed_shape_centered(self):
        m = carbon_chain([[10.0, 10.0, 10.0]])
        g = grid_for_model(m, voxel_size=2.0, pad=0.0, shape=(5, 5, 5))
        assert g.data.shape == (5, 5, 5)
        center = g.origin + 0.5 * (np.array(g.data.shape) - 1) * g.voxel_size
        np.testing.assert_allclose(center, [10.0, 10.0, 10.0])

    @pytest.mark.parametrize("pad", [-50.0, float("nan"), float("inf")])
    def test_bad_pad_rejected(self, pad):
        m = carbon_chain([[0.0, 0.0, 0.0], [7.3, 4.1, 2.9]])
        with pytest.raises(ValueError, match="pad must be finite and >= 0"):
            grid_for_model(m, voxel_size=1.0, pad=pad)


class TestLossAndGradient:
    def _system(self, seed, n=5, blur=BlurOperator()):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(3.0, 9.0, (n, 3))
        model = carbon_chain(coords)
        grid = grid_for_model(model, voxel_size=1.0, pad=4.0)
        truth = carbon_chain(coords + rng.normal(0, 0.8, coords.shape))
        target = simulate_map(truth, grid, 2.0, blur)
        return model, target

    def test_loss_zero_at_truth(self):
        model, target = self._system(5)
        assert density_loss(model.with_coords(target_coords := model.coords()),
                            simulate_map(model.with_coords(target_coords), target, 2.0),
                            2.0) == pytest.approx(0.0, abs=1e-18)

    def test_loss_decreases_toward_truth(self):
        rng = np.random.default_rng(8)
        coords = rng.uniform(3.0, 9.0, (5, 3))
        truth = carbon_chain(coords)
        grid = grid_for_model(truth, voxel_size=1.0, pad=4.0)
        target = simulate_map(truth, grid, 2.0)
        near = density_loss(truth.with_coords(coords + 0.1), target, 2.0)
        far = density_loss(truth.with_coords(coords + 1.0), target, 2.0)
        assert 0 < near < far

    @pytest.mark.parametrize("seed,blur", [(21, BlurOperator()), (22, BlurOperator(1.5))],
                             ids=["21-None", "22-blur1"])
    def test_gradient_matches_finite_differences(self, seed, blur):
        model, target = self._system(seed, blur=blur)
        grad = density_loss_grad(model, target, 2.0, blur)
        coords = model.coords()
        h = 1e-4
        fd = np.zeros_like(grad)
        for i in range(coords.shape[0]):
            for ax in range(3):
                for sgn, slot in ((1.0, 0), (-1.0, 1)):
                    c = coords.copy()
                    c[i, ax] += sgn * h
                    val = density_loss(model.with_coords(c), target, 2.0, blur)
                    fd[i, ax] += sgn * val / (2 * h)
        scale = np.abs(fd).max()
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-3 * max(scale, 1.0))

    def test_grad_coords_matches_model_variant(self):
        model, target = self._system(23)
        g1 = density_loss_grad(model, target, 2.0)
        g2 = density_loss_grad_coords(model.coords(), model.atomic_numbers().astype(float),
                                      target, 2.0)
        np.testing.assert_allclose(g1, g2)

    @pytest.mark.parametrize("blur", [BlurOperator(), BlurOperator(1.5)],
                             ids=["None", "blur1"])
    def test_grad_on_fortran_ordered_map_bitwise(self, blur):
        """The in-place residual on the C-ordered map gives the bits of
        2 * splat_grad(blur(blur(splat) - target)) taken against the target as
        read_mrc used to return it, Fortran-ordered."""
        model, target = self._system(25, n=8, blur=blur)
        data_f = np.asfortranarray(target.data)
        coords, amps = model.coords(), model.atomic_numbers().astype(float)
        sigma = atom_sigma(2.0)
        sim = _kernels.splat(coords, amps, data_f.shape, target.origin,
                             target.voxel_size, sigma)
        sim = blur.apply(sim, target.voxel_size)
        resid = blur.apply(sim - data_f, target.voxel_size)
        want = 2.0 * _kernels.splat_grad(coords, amps, resid, target.origin,
                                         target.voxel_size, sigma)
        fmap = DensityMap(data=data_f, voxel_size=target.voxel_size,
                          origin=target.origin)
        got = density_loss_grad_coords(coords, amps, fmap, 2.0, blur)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(fmap.data, data_f)  # target untouched

    def test_gradient_zero_at_exact_fit(self):
        model, _ = self._system(24)
        grid = grid_for_model(model, voxel_size=1.0, pad=4.0)
        target = simulate_map(model, grid, 2.0)
        grad = density_loss_grad(model, target, 2.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-10)


class TestKernelBackends:
    def test_backend_name_exposed(self):
        assert _kernels.BACKEND == "python"
        assert cryoguide.KERNEL_BACKEND == "python"

    def test_numpy_kernels_match_per_atom_loops_bitwise(self):
        # the reference loops above are the kernels this package used to run;
        # the vectorized ones must reproduce them exactly, not to a tolerance
        rng = np.random.default_rng(41)
        shape, origin = (19, 16, 14), np.array([-2.0, 1.5, 0.25])
        field = rng.normal(size=shape)
        data = rng.uniform(0.1, 1.0, shape)
        for voxel in (0.7, 1.0, 1.3):
            hi = origin + (np.array(shape) - 1) * voxel
            grid = DensityMap(data, voxel, origin)
            for res in (1.0, 2.0, 3.3, 4.0, 6.0):
                sigma = atom_sigma(res)
                # 60 atoms within 6 A of the box, many of them partly outside it,
                # and two wholly outside, one past each corner
                near = rng.uniform(origin - 6.0, hi + 6.0, (60, 3))
                far = np.array([origin - 40.0, hi + 40.0])
                if (voxel, res) == (0.7, 6.0):
                    n_blocks = sum(1 for _ in _splat_py.stencils(
                        near, origin, voxel, shape, 4.0 * sigma))
                    assert n_blocks > 1
                for coords in (np.vstack([near[:30], far, near[30:]]), near[:1],
                               far[:1], np.zeros((0, 3))):
                    amps = rng.uniform(-2.0, 9.0, len(coords))
                    assert np.array_equal(
                        _splat_py.splat(coords, amps, shape, origin, voxel, sigma),
                        loop_splat(coords, amps, shape, origin, voxel, sigma))
                    assert np.array_equal(
                        _splat_py.splat_grad(coords, amps, field, origin, voxel, sigma),
                        loop_splat_grad(coords, amps, field, origin, voxel, sigma))
                    if len(coords):
                        model = carbon_chain(coords)
                        radius = 4.0 * sigma
                        assert np.array_equal(
                            mask_near_model(grid, model, radius).data,
                            loop_mask_near_model(grid, model, radius))


class TestStackedKernels:
    """A (B, n, 3) stack through splat, splat_grad and the loss gradient:
    each row bitwise its own (n, 3) call and the per-atom loops above."""

    def case(self, rng, B, voxel, res):
        shape, origin = (17, 14, 12), np.array([-2.0, 1.5, 0.25])
        hi = origin + (np.array(shape) - 1) * voxel
        # 11 atoms a row within 6 A of the box, many of them partly outside
        # it, and one wholly outside, past a corner
        coords = rng.uniform(origin - 6.0, hi + 6.0, (B, 12, 3))
        coords[:, 5] = hi + 40.0
        return (coords, rng.uniform(-2.0, 9.0, 12), shape, origin,
                rng.normal(size=(B,) + shape), atom_sigma(res))

    def test_rows_match_their_own_calls_and_the_loops(self):
        rng = np.random.default_rng(43)
        crossed = False
        for B in (1, 2, 5):
            for voxel in (0.7, 1.3):
                for res in (2.0, 6.0):
                    coords, amps, shape, origin, field, sigma = self.case(rng, B, voxel, res)
                    # a stencil block that holds the atoms of two rows
                    crossed |= any(len(set(atoms // 12)) > 1 for atoms, *_ in
                                   _splat_py.stencils(coords, origin, voxel, shape, 4 * sigma))
                    maps = _kernels.splat(coords, amps, shape, origin, voxel, sigma)
                    grads = _kernels.splat_grad(coords, amps, field, origin, voxel, sigma)
                    assert maps.shape == (B,) + shape and grads.shape == coords.shape
                    for b in range(B):
                        for got, alone, loop in (
                                (maps[b],
                                 _kernels.splat(coords[b], amps, shape, origin, voxel, sigma),
                                 loop_splat(coords[b], amps, shape, origin, voxel, sigma)),
                                (grads[b],
                                 _kernels.splat_grad(coords[b], amps, field[b], origin,
                                                     voxel, sigma),
                                 loop_splat_grad(coords[b], amps, field[b], origin,
                                                 voxel, sigma))):
                            assert got.tobytes() == alone.tobytes() == loop.tobytes()
        assert crossed

    def test_empty_rows(self):
        maps = _kernels.splat(np.zeros((3, 0, 3)), np.zeros(0), (4, 5, 6), np.zeros(3), 1.0, 0.5)
        assert maps.shape == (3, 4, 5, 6) and not maps.any()
        grads = _kernels.splat_grad(np.zeros((3, 0, 3)), np.zeros(0), np.ones((3, 4, 5, 6)),
                                    np.zeros(3), 1.0, 0.5)
        assert grads.shape == (3, 0, 3)

    @pytest.mark.parametrize("blur", [BlurOperator(), BlurOperator(0.9)], ids=["sharp", "blur"])
    @pytest.mark.parametrize("rows", [None, 2], ids=["one-chunk", "chunks-of-2"])
    def test_loss_gradient_rows_match_their_own_calls(self, monkeypatch, blur, rows):
        rng = np.random.default_rng(47)
        truth = carbon_chain(rng.uniform(3.0, 9.0, (5, 3)))
        target = simulate_map(truth, grid_for_model(truth, voxel_size=1.0, pad=4.0), 2.0, blur)
        coords = rng.uniform(2.0, 10.0, (5, 7, 3))
        amps = rng.uniform(1.0, 9.0, 7)
        alone = [density_loss_grad_coords(c, amps, target, 2.0, blur) for c in coords]
        if rows is not None:   # chunks of `rows` maps, the last one short
            monkeypatch.setattr(forward, "_STACK_BYTES", rows * 8 * target.data.size)
        for B in (1, 5):
            got = density_loss_grad_coords(coords[:B], amps, target, 2.0, blur)
            assert got.shape == (B, 7, 3)
            assert [g.tobytes() for g in got] == [a.tobytes() for a in alone[:B]]

    # the peak in caps: one chunk's maps, and with a blur also the two
    # that a blur pass holds at once (unchunked: 3.2 and 9.5 caps)
    @pytest.mark.parametrize("blur, caps", [(BlurOperator(), 1.25), (BlurOperator(0.9), 3.25)],
                             ids=["sharp", "blur"])
    def test_chunked_maps_stay_under_the_cap(self, blur, caps):
        """At 60 rows of a 48^3 map the stack's maps would take 53 MB, more
        than three times the cap; in chunks, the peak stays near one cap a map
        held at once."""
        target = DensityMap(np.ones((48, 48, 48)), 1.0, np.zeros(3))
        rng = np.random.default_rng(53)
        coords = rng.uniform(10.0, 38.0, (60, 4, 3))
        assert 60 * 8 * target.data.size > 3 * forward._STACK_BYTES
        tracemalloc.start()
        try:
            density_loss_grad_coords(coords, np.full(4, 6.0), target, 2.0, blur)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= caps * forward._STACK_BYTES


def full_map_grad(coords, amps, target, origin, voxel, sigma):
    """The unblurred loss gradient with its maps: 2 splat_grad(splat - target)."""
    sim = _kernels.splat(coords, amps, target.shape, origin, voxel, sigma)
    return 2.0 * _kernels.splat_grad(coords, amps, sim - target, origin, voxel, sigma)


class TestStencilGradient:
    """The unblurred loss gradient taken at the stencils' voxels alone has
    the bits of the full-map formula, and makes no map."""

    def case(self, rng, B, voxel, res, shape=(17, 14, 12)):
        origin = np.array([-2.0, 1.5, 0.25])
        hi = origin + (np.array(shape) - 1) * voxel
        # 12 atoms a row within 3 A of the box, some of them partly outside
        # it, one wholly outside, past a corner, and one of amplitude 0
        coords = rng.uniform(origin - 3.0, hi + 3.0, (B, 12, 3))
        coords[:, 5] = hi + 40.0
        amps = rng.uniform(-2.0, 9.0, 12)
        amps[7] = 0.0
        return coords, amps, origin, rng.normal(size=shape), atom_sigma(res)

    def test_kernel_matches_the_full_map_formula(self, monkeypatch):
        rng = np.random.default_rng(59)
        # a few hundred window entries a block, so a row spans several blocks
        monkeypatch.setattr(_splat_py, "_CHUNK_ENTRIES", 200)
        blocks = set()
        for B in (1, 2, 5):
            for voxel in (0.7, 1.3):
                for res in (2.0, 6.0):
                    coords, amps, origin, target, sigma = self.case(rng, B, voxel, res)
                    blocks.add(len(list(_splat_py.stencils(coords, origin, voxel,
                                                           target.shape, 4 * sigma))) > 1)
                    got = 2.0 * _splat_py.residual_grad(coords, amps, target, origin,
                                                        voxel, sigma)
                    want = full_map_grad(coords, amps, target, origin, voxel, sigma)
                    assert got.tobytes() == want.tobytes()
                    for b in range(B):
                        alone = 2.0 * _splat_py.residual_grad(coords[b], amps, target,
                                                              origin, voxel, sigma)
                        assert got[b].tobytes() == alone.tobytes()
        assert blocks == {True}

    def test_no_atom_on_the_grid(self):
        coords = np.full((2, 3, 3), 500.0)
        got = _splat_py.residual_grad(coords, np.ones(3), np.ones((4, 5, 6)), np.zeros(3),
                                      1.0, 0.5)
        assert got.shape == (2, 3, 3) and not got.any()

    @pytest.mark.parametrize("res", [2.0, 6.0])
    @pytest.mark.parametrize("rows", [None, 1, 2], ids=["one-chunk", "chunks-of-1",
                                                        "chunks-of-2"])
    def test_loss_gradient_matches_the_full_map_formula(self, monkeypatch, res, rows):
        rng = np.random.default_rng(61)
        for B in (1, 2, 5):
            for voxel in (0.7, 1.3):
                coords, amps, origin, data, sigma = self.case(rng, B, voxel, res,
                                                              shape=(40, 36, 30))
                target = DensityMap(data, voxel, origin)
                want = full_map_grad(coords, amps, data, origin, voxel, sigma)
                side = int(8.0 * sigma / voxel) + 1
                row_bytes = forward._ENTRY_BYTES * 12 * side ** 3
                # at 2 A the stencils take fewer bytes than a map and are
                # used alone; at 6 A the maps are made
                assert (row_bytes < 8 * data.size) == (res == 2.0)
                if rows is not None:
                    monkeypatch.setattr(forward, "_STACK_BYTES",
                                        rows * min(row_bytes, 8 * data.size))
                got = density_loss_grad_coords(coords, amps, target, res)
                assert got.tobytes() == want.tobytes()

    def test_peak_stays_far_below_one_map(self):
        """8 rows of 4 atoms against a 96^3 map (6.75 MiB a map): the
        full-map formula peaks at two maps, the stencils at a few
        thousand entries."""
        rng = np.random.default_rng(71)
        target = DensityMap(rng.normal(size=(96, 96, 96)), 1.0, np.zeros(3))
        coords = rng.uniform(10.0, 86.0, (8, 4, 3))
        density_loss_grad_coords(coords[:1], np.full(4, 6.0), target, 2.0)  # first-call setup
        tracemalloc.start()
        try:
            density_loss_grad_coords(coords, np.full(4, 6.0), target, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * target.data.nbytes

    def test_chunked_stencils_stay_under_the_cap(self):
        """50 rows of 300 atoms have 960,000 stencil window entries, more
        than three caps at _ENTRY_BYTES an entry; in chunks, the peak stays
        within one cap."""
        rng = np.random.default_rng(73)
        target = DensityMap(rng.normal(size=(64, 64, 64)), 1.0, np.zeros(3))
        coords = rng.uniform(4.0, 60.0, (50, 300, 3))
        entries = coords.shape[0] * coords.shape[1] * 4 ** 3   # 4^3 windows at 2 A
        assert forward._ENTRY_BYTES * entries > 3 * forward._STACK_BYTES
        density_loss_grad_coords(coords[:1], np.full(300, 6.0), target, 2.0)
        tracemalloc.start()
        try:
            density_loss_grad_coords(coords, np.full(300, 6.0), target, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= forward._STACK_BYTES

    @pytest.mark.parametrize("blur", [BlurOperator(), BlurOperator(0.9)], ids=["sharp", "blur"])
    def test_empty_stack(self, blur):
        target = DensityMap(np.ones((8, 8, 8)), 1.0, np.zeros(3))
        got = density_loss_grad_coords(np.zeros((0, 4, 3)), np.full(4, 6.0), target, 2.0,
                                       blur)
        assert got.shape == (0, 4, 3)
