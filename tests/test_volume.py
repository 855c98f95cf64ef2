"""Volume container, MRC I/O, and map preprocessing tests.

The reader is checked against byte fixtures assembled by hand in the tests
(independent of the writer), including permuted-axis files.
"""

import struct

import numpy as np
import pytest

from cryoguide.priors import chain_template
from cryoguide.volume import (DensityMap, MapFormatError, crop_pad, dust,
                              mask_near_model, read_mrc, threshold, write_mrc)


def build_mrc_bytes(volume_xyz, voxel, mapcrs=(1, 2, 3), nstart_crs=(0, 0, 0),
                    origin=(0.0, 0.0, 0.0), mode=2, machst=b"\x44\x41\x00\x00",
                    magic=b"MAP ", cell=None):
    """Assemble MRC2014 file bytes directly from the definition.

    `volume_xyz[i, j, k]` is the value at crystal axes (x, y, z); the file
    stores columns along axis mapc, rows along mapr, sections along maps.
    """
    v = np.asarray(volume_xyz)
    dims_xyz = v.shape
    cidx, ridx, sidx = (m - 1 for m in mapcrs)
    nc, nr, ns = dims_xyz[cidx], dims_xyz[ridx], dims_xyz[sidx]
    header = bytearray(1024)
    struct.pack_into("<4i", header, 0, nc, nr, ns, mode)
    struct.pack_into("<3i", header, 16, *nstart_crs)
    struct.pack_into("<3i", header, 28, *dims_xyz)
    if cell is None:
        cell = tuple(d * voxel for d in dims_xyz)
    struct.pack_into("<3f", header, 40, *cell)
    struct.pack_into("<3f", header, 52, 90.0, 90.0, 90.0)
    struct.pack_into("<3i", header, 64, *mapcrs)
    struct.pack_into("<i", header, 92, 0)
    struct.pack_into("<3f", header, 196, *origin)
    header[208:212] = magic
    header[212:216] = machst

    dtype = {0: "<i1", 1: "<i2", 2: "<f4"}[mode]
    file_arr = np.empty((ns, nr, nc), dtype=dtype)
    for s in range(ns):
        for r in range(nr):
            for c in range(nc):
                idx = [0, 0, 0]
                idx[cidx], idx[ridx], idx[sidx] = c, r, s
                file_arr[s, r, c] = v[tuple(idx)]
    return bytes(header) + file_arr.tobytes()


def assert_stored_layout(dmap):
    assert dmap.data.dtype == np.float64
    assert dmap.data.flags.c_contiguous
    assert not dmap.data.flags.writeable


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestReadMrc:
    def test_plain_axis_order(self, tmp_path, rng):
        v = rng.standard_normal((2, 3, 4)).astype(np.float32)
        path = tmp_path / "plain.mrc"
        path.write_bytes(build_mrc_bytes(v, voxel=1.5))
        m = read_mrc(path)
        np.testing.assert_array_equal(m.data, v.astype(np.float64))
        assert m.voxel_size == pytest.approx(1.5, abs=1e-6)
        np.testing.assert_allclose(m.origin, 0.0)

    def test_permuted_axes_recovered(self, tmp_path, rng):
        v = rng.standard_normal((2, 3, 4)).astype(np.float32)
        for mapcrs in [(1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2),
                       (3, 2, 1)]:
            path = tmp_path / f"perm{mapcrs[0]}{mapcrs[1]}{mapcrs[2]}.mrc"
            path.write_bytes(build_mrc_bytes(v, voxel=1.0, mapcrs=mapcrs))
            m = read_mrc(path)
            np.testing.assert_array_equal(m.data, v.astype(np.float64))
            assert_stored_layout(m)

    def test_modes_0_and_1(self, tmp_path, rng):
        v = rng.integers(-100, 100, size=(3, 3, 3))
        for mode in (0, 1):
            vv = v.astype(np.int8) if mode == 0 else v.astype(np.int16)
            path = tmp_path / f"mode{mode}.mrc"
            path.write_bytes(build_mrc_bytes(vv, voxel=2.0, mode=mode))
            m = read_mrc(path)
            np.testing.assert_array_equal(m.data, vv.astype(np.float64))

    def test_origin_field_wins(self, tmp_path, rng):
        v = rng.standard_normal((2, 2, 2)).astype(np.float32)
        path = tmp_path / "origin.mrc"
        path.write_bytes(build_mrc_bytes(v, voxel=1.0, origin=(1.0, -2.0, 3.5),
                                         nstart_crs=(9, 9, 9)))
        m = read_mrc(path)
        np.testing.assert_allclose(m.origin, [1.0, -2.0, 3.5], atol=1e-6)

    def test_nstart_fallback_when_origin_zero(self, tmp_path, rng):
        v = rng.standard_normal((2, 3, 4)).astype(np.float32)
        # columns along y, rows along z, sections along x: nstart_crs is in
        # (col, row, sec) order and must land on (x, y, z) = (-1, 2, 3)
        path = tmp_path / "nstart.mrc"
        path.write_bytes(build_mrc_bytes(v, voxel=1.5, mapcrs=(2, 3, 1),
                                         nstart_crs=(2, 3, -1)))
        m = read_mrc(path)
        np.testing.assert_allclose(m.origin, np.array([-1, 2, 3]) * 1.5, atol=1e-6)

    def test_bad_magic_rejected(self, tmp_path, rng):
        v = rng.standard_normal((2, 2, 2)).astype(np.float32)
        path = tmp_path / "bad.mrc"
        path.write_bytes(build_mrc_bytes(v, voxel=1.0, magic=b"XXXX"))
        with pytest.raises(MapFormatError, match="magic"):
            read_mrc(path)

    def test_big_endian_rejected(self, tmp_path, rng):
        v = rng.standard_normal((2, 2, 2)).astype(np.float32)
        path = tmp_path / "be.mrc"
        path.write_bytes(build_mrc_bytes(v, voxel=1.0,
                                         machst=b"\x11\x11\x00\x00"))
        with pytest.raises(MapFormatError, match="big-endian"):
            read_mrc(path)

    def test_anisotropic_rejected(self, tmp_path, rng):
        v = rng.standard_normal((2, 2, 2)).astype(np.float32)
        path = tmp_path / "aniso.mrc"
        path.write_bytes(build_mrc_bytes(v, voxel=1.0, cell=(2.0, 2.0, 3.0)))
        with pytest.raises(MapFormatError, match="anisotropic"):
            read_mrc(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        v = rng.standard_normal((3, 3, 3)).astype(np.float32)
        blob = build_mrc_bytes(v, voxel=1.0)
        path = tmp_path / "trunc.mrc"
        path.write_bytes(blob[:-8])
        with pytest.raises(MapFormatError, match="truncated"):
            read_mrc(path)

    def test_unsupported_mode_rejected(self, tmp_path, rng):
        v = rng.standard_normal((2, 2, 2)).astype(np.float32)
        blob = bytearray(build_mrc_bytes(v, voxel=1.0))
        struct.pack_into("<i", blob, 12, 4)   # mode 4: complex, unsupported
        path = tmp_path / "mode4.mrc"
        path.write_bytes(bytes(blob))
        with pytest.raises(MapFormatError, match="mode"):
            read_mrc(path)


class TestWriteMrc:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        data = rng.standard_normal((5, 4, 3)).astype(np.float32).astype(np.float64)
        m = DensityMap(data=data, voxel_size=1.25, origin=np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "rt.mrc"
        write_mrc(m, path)
        back = read_mrc(path)
        assert np.array_equal(back.data, m.data)          # bit-exact payload
        assert back.voxel_size == pytest.approx(1.25, abs=1e-6)
        np.testing.assert_allclose(back.origin, m.origin, atol=1e-6)

    def test_header_statistics(self, tmp_path):
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        path = tmp_path / "stats.mrc"
        write_mrc(DensityMap(data=data, voxel_size=1.0), path)
        blob = path.read_bytes()
        dmin, dmax, dmean = struct.unpack("<3f", blob[76:88])
        assert dmin == 0.0 and dmax == 23.0
        assert dmean == pytest.approx(data.mean(), rel=1e-6)
        assert struct.unpack("<i", blob[108:112])[0] == 20140


class TestDensityMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMap(data=np.zeros((2, 2)), voxel_size=1.0)
        with pytest.raises(ValueError):
            DensityMap(data=np.zeros((2, 2, 2)), voxel_size=0.0)
        with pytest.raises(ValueError, match="2 non-finite voxels"):
            DensityMap(data=np.array([np.nan, np.inf, 0.0]).reshape(3, 1, 1),
                       voxel_size=1.0)

    def test_data_read_only(self):
        m = DensityMap(data=np.zeros((2, 2, 2)), voxel_size=1.0)
        with pytest.raises(ValueError):
            m.data[0, 0, 0] = 1.0

    def test_data_stored_c_contiguous(self, rng):
        values = rng.standard_normal((3, 4, 5))
        for given in (np.asfortranarray(values), values.astype(np.float32),
                      values.transpose(2, 0, 1), values[:, ::2, 1:]):
            m = DensityMap(data=given, voxel_size=1.0)
            assert_stored_layout(m)
            np.testing.assert_array_equal(m.data, given.astype(np.float64))

    def test_voxel_world_coords(self):
        m = DensityMap(data=np.zeros((2, 2, 2)), voxel_size=2.0,
                       origin=np.array([1.0, 0.0, -1.0]))
        w = m.voxel_world_coords()
        np.testing.assert_allclose(w[0, 0, 0], [1.0, 0.0, -1.0])
        np.testing.assert_allclose(w[1, 1, 1], [3.0, 2.0, 1.0])


class TestThreshold:
    def test_below_level_zeroed_at_level_kept(self):
        data = np.array([0.1, 0.5, 0.6, -1.0, 0.0]).reshape(5, 1, 1)
        m = threshold(DensityMap(data=data, voxel_size=1.0), 0.5)
        np.testing.assert_array_equal(m.data.ravel(), [0.0, 0.5, 0.6, 0.0, 0.0])

    def test_idempotent(self, rng):
        data = rng.standard_normal((4, 4, 4))
        m1 = threshold(DensityMap(data=data, voxel_size=1.0), 0.3)
        m2 = threshold(m1, 0.3)
        np.testing.assert_array_equal(m1.data, m2.data)


class TestDust:
    def test_small_component_removed(self):
        data = np.zeros((8, 8, 8))
        data[1:4, 1, 1] = 1.0        # 3-voxel component
        data[6, 6, 6] = 1.0          # singleton
        m = dust(DensityMap(data=data, voxel_size=1.0), min_size=2)
        assert m.data[6, 6, 6] == 0.0
        assert m.data[1, 1, 1] == 1.0 and m.data[3, 1, 1] == 1.0

    def test_diagonal_voxels_are_connected(self):
        # 26-connectivity: a diagonal pair is one 2-voxel component
        data = np.zeros((4, 4, 4))
        data[1, 1, 1] = 1.0
        data[2, 2, 2] = 1.0
        m = dust(DensityMap(data=data, voxel_size=1.0), min_size=2)
        assert m.data[1, 1, 1] == 1.0 and m.data[2, 2, 2] == 1.0

    def test_min_size_one_is_identity(self, rng):
        data = (rng.random((4, 4, 4)) > 0.5).astype(float)
        m = DensityMap(data=data, voxel_size=1.0)
        np.testing.assert_array_equal(dust(m, 1).data, data)


class TestCropPad:
    def test_crop_box_and_origin(self):
        data = np.zeros((10, 10, 10), order="F")
        data[3:5, 4:7, 5] = 2.0
        m = DensityMap(data=data, voxel_size=2.0, origin=np.array([1.0, 1.0, 1.0]))
        c = crop_pad(m, level=1.0, pad=1)
        assert c.shape == (4, 5, 3)               # bbox (2,3,1) + 2*pad
        assert_stored_layout(c)
        np.testing.assert_allclose(c.origin, [1 + 2 * 2.0, 1 + 3 * 2.0, 1 + 4 * 2.0])
        # world position of retained density is unchanged
        np.testing.assert_array_equal(c.data[1:3, 1:4, 1], 2.0)

    def test_pad_beyond_volume_zero_filled(self):
        data = np.ones((2, 2, 2))
        m = DensityMap(data=data, voxel_size=1.0)
        c = crop_pad(m, level=0.5, pad=2)
        assert c.shape == (6, 6, 6)
        assert c.data.sum() == data.sum()
        np.testing.assert_allclose(c.origin, [-2.0, -2.0, -2.0])
        np.testing.assert_array_equal(c.data[2:4, 2:4, 2:4], 1.0)

    def test_empty_selection_errors(self):
        m = DensityMap(data=np.zeros((3, 3, 3)), voxel_size=1.0)
        with pytest.raises(ValueError, match="no voxel"):
            crop_pad(m, level=1.0, pad=0)

    def test_negative_pad_rejected(self):
        data = np.zeros((10, 10, 10))
        data[3:7, 3:7, 3:7] = 2.0
        m = DensityMap(data=data, voxel_size=1.0)
        with pytest.raises(ValueError, match="pad must be >= 0, got -1"):
            crop_pad(m, level=1.0, pad=-1)


class TestMaskNearModel:
    def test_keeps_only_near_density(self):
        data = np.ones((9, 9, 9))
        m = DensityMap(data=data, voxel_size=1.0)
        model = chain_template(np.array([[4.0, 4.0, 4.0]]))
        out = mask_near_model(m, model, radius=2.0)
        assert out.data[4, 4, 4] == 1.0
        assert out.data[4, 4, 6] == 1.0           # distance exactly radius kept
        assert out.data[4, 4, 7] == 0.0
        assert out.data[0, 0, 0] == 0.0
        # oracle: voxel kept iff within radius of the atom
        w = m.voxel_world_coords()
        d2 = np.sum((w - np.array([4.0, 4.0, 4.0])) ** 2, axis=-1)
        np.testing.assert_array_equal(out.data != 0, d2 <= 4.0)

    def test_bad_radius_errors(self):
        m = DensityMap(data=np.ones((3, 3, 3)), voxel_size=1.0)
        model = chain_template(np.array([[1.0, 1.0, 1.0]]))
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="radius must be finite and positive"):
                mask_near_model(m, model, radius=bad)

    def test_empty_model_errors(self):
        m = DensityMap(data=np.ones((3, 3, 3)), voxel_size=1.0)
        from cryoguide.structure import AtomicModel
        with pytest.raises(ValueError, match="no atoms"):
            mask_near_model(m, AtomicModel(()), radius=1.0)
