"""Evaluation metric tests: RMSD, TM-score, RSCC, ranking."""

import logging

import numpy as np
import pytest

from cryoguide.forward import grid_for_model, simulate_map
from cryoguide.metrics import (EvalReport, _pair_atoms, _rmsd, evaluate, rank_samples,
                               rscc, tm_d0)
from cryoguide.alignment import kabsch, rotation_about
from cryoguide.structure import Atom, AtomicModel
from cryoguide.volume import DensityMap


def ca_model(coords, chain="A", start=1):
    return AtomicModel(tuple(
        Atom("C", p, chain, start + i, "GLY", "CA")
        for i, p in enumerate(coords)))


def rigid_move(model, degrees=30.0, shift=(10.0, -5.0, 2.0)):
    r = rotation_about(np.array([0.2, 1.0, -0.3]), degrees)
    return model.with_coords(model.coords() @ r.T + np.asarray(shift))


def reference_evaluate(sample, reference, dmap=None, local_range=None, resolution=None):
    """evaluate as it was, walking the Atom records; kept as the oracle of
    the columnar one for models whose (chain, residue, atom name) keys are
    unique.  `atoms` is built once per model, as it is built on each read."""
    def key(atom):
        return (atom.chain_id, atom.res_index, atom.atom_name)

    sample_atoms, reference_atoms = sample.atoms, reference.atoms
    ref_index = {}
    for j, atom in enumerate(reference_atoms):
        ref_index.setdefault(key(atom), j)
    pairs = [(i, ref_index[key(atom)]) for i, atom in enumerate(sample_atoms)
             if key(atom) in ref_index]
    n_unpaired = (len(sample) - len(pairs)) + (len(reference) - len(pairs))
    sam = sample.coords()
    ref = reference.coords()
    si = np.array([i for i, _ in pairs])
    ri = np.array([j for _, j in pairs])
    ca_mask = np.array([sample_atoms[i].atom_name == "CA" for i, _ in pairs])
    transform, rmsd_ca = kabsch(sam[si][ca_mask], ref[ri][ca_mask])
    moved = transform.apply(sam[si])
    rmsd_all = _rmsd(moved, ref[ri])
    n_res = sum(1 for a in reference_atoms if a.atom_name == "CA")
    d0 = tm_d0(n_res)
    d = np.sqrt(np.sum((moved[ca_mask] - ref[ri][ca_mask]) ** 2, axis=1))
    tm = float(np.sum(1.0 / (1.0 + (d / d0) ** 2)) / n_res)
    rmsd_local = None
    if local_range is not None:
        chain, lo, hi = local_range
        in_range = np.array([reference_atoms[j].chain_id == chain
                             and lo <= reference_atoms[j].res_index <= hi
                             for _, j in pairs])
        rmsd_local = _rmsd(moved[in_range], ref[ri][in_range])
    rscc_val = None if dmap is None else rscc(sample, dmap, resolution)
    return EvalReport(rmsd_all=rmsd_all, rmsd_ca=rmsd_ca, tm_score=tm,
                      rmsd_local=rmsd_local, rscc=rscc_val,
                      n_paired=len(pairs), n_unpaired=n_unpaired)


def reference_pairs(sample, reference):
    """evaluate's atom pairing as it was: a dict from each (chain, residue
    number, atom name) key to its first atom on each side, walked in the
    sample's order.  Returns the (sample, reference) index arrays."""
    def first_index(model):
        first = {}
        for i, key in enumerate(zip(model.chain_ids.tolist(), model.res_indices.tolist(),
                                    model.atom_names.tolist())):
            first.setdefault(key, i)
        return first

    ref_index = first_index(reference)
    pairs = [(i, ref_index[key]) for key, i in first_index(sample).items() if key in ref_index]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def random_protein(rng, n_chains=3, n_residues=40):
    """N/CA/C/O residues on several chains, numbered from a negative start,
    with a two-letter metal every tenth residue."""
    atoms = []
    for c in range(n_chains):
        start = int(rng.integers(-30, 5))
        for i in range(n_residues):
            kinds = [("N", "N"), ("C", "CA"), ("C", "C"), ("O", "O")]
            if i % 10 == 3:
                kinds.append(("ZN", "ZN") if c % 2 else ("FE", "FE"))
            for element, name in kinds:
                atoms.append(Atom(element, rng.uniform(-40, 40, 3), "ABCD"[c],
                                  start + i, "ALA", name))
    return AtomicModel(tuple(atoms))


@pytest.fixture(scope="module")
def reference100():
    rng = np.random.default_rng(42)
    return ca_model(rng.uniform(-30, 30, (100, 3)))


class TestTmD0:
    def test_formula(self):
        # independent scalar: d0(100) = 1.24 * 85^(1/3) - 1.8
        assert tm_d0(100) == pytest.approx(1.24 * 85.0 ** (1 / 3) - 1.8,
                                           abs=1e-12)

    def test_floor(self):
        assert tm_d0(15) == 0.5
        assert tm_d0(5) == 0.5
        assert tm_d0(21) == pytest.approx(max(0.5, 1.24 * 6 ** (1 / 3) - 1.8),
                                          abs=1e-12)


class TestEvaluate:
    def test_identity(self, reference100):
        rep = evaluate(reference100, reference100)
        assert rep.rmsd_all == pytest.approx(0.0, abs=1e-12)
        assert rep.rmsd_ca == pytest.approx(0.0, abs=1e-12)
        assert rep.tm_score == pytest.approx(1.0, abs=1e-12)
        assert rep.n_paired == 100 and rep.n_unpaired == 0

    def test_rigid_transform_removed(self, reference100):
        moved = rigid_move(reference100)
        rep = evaluate(moved, reference100)
        assert rep.rmsd_all == pytest.approx(0.0, abs=1e-8)
        assert rep.tm_score == pytest.approx(1.0, abs=1e-8)

    def test_metrics_invariant_under_common_rigid_motion(self, reference100):
        rng = np.random.default_rng(7)
        sample = ca_model(reference100.coords() + rng.normal(0, 1.0, (100, 3)))
        base = evaluate(sample, reference100, local_range=("A", 10, 40))
        moved = evaluate(rigid_move(sample, 77.0, (3.0, 8.0, -12.0)),
                         reference100, local_range=("A", 10, 40))
        assert moved.rmsd_all == pytest.approx(base.rmsd_all, abs=1e-8)
        assert moved.rmsd_ca == pytest.approx(base.rmsd_ca, abs=1e-8)
        assert moved.tm_score == pytest.approx(base.tm_score, abs=1e-8)
        assert moved.rmsd_local == pytest.approx(base.rmsd_local, abs=1e-8)

    def test_tm_exact_when_alignment_is_identity(self, reference100):
        # co-located residue pair displaced in opposite directions: their
        # cross-covariance contributions cancel exactly, so the superposition
        # is the identity and the TM sum can be pinned in closed form
        coords = reference100.coords().copy()
        coords[7] = coords[3]
        ref = ca_model(coords)
        d0 = tm_d0(100)
        sample_coords = coords.copy()
        sample_coords[3] += [d0, 0.0, 0.0]
        sample_coords[7] -= [d0, 0.0, 0.0]
        rep = evaluate(ca_model(sample_coords), ref)
        assert rep.tm_score == pytest.approx((98 + 2 * 0.5) / 100, abs=1e-12)

    def test_tm_one_displaced_residue(self, reference100):
        # one residue off by exactly d0 -> (99 + 0.5)/100; the global
        # superposition shifts slightly, hence the loose tolerance
        coords = reference100.coords().copy()
        coords[0] += [tm_d0(100), 0.0, 0.0]
        rep = evaluate(ca_model(coords), reference100)
        assert rep.tm_score == pytest.approx(0.995, abs=5e-4)

    def test_unpaired_atoms_counted(self, reference100):
        extra = reference100.atoms + (Atom("C", (0, 0, 0), "B", 1, "GLY", "CA"),)
        rep = evaluate(AtomicModel(extra), reference100)
        assert rep.n_paired == 100
        assert rep.n_unpaired == 1
        # a repeated key pairs only its first occurrence, on either side
        five = ca_model(reference100.coords()[:5])
        doubled = AtomicModel(five.atoms + five.atoms[2:3])
        for sample, reference in ((doubled, five), (five, doubled)):
            rep = evaluate(sample, reference)
            assert (rep.n_paired, rep.n_unpaired) == (5, 1)

    def test_atom_name_mismatch_excluded(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(0, 5, (6, 3))
        ref = ca_model(coords)
        atoms = list(ca_model(coords).atoms)
        atoms[5] = Atom("C", atoms[5].pos, "A", 6, "GLY", "CB")
        rep = evaluate(AtomicModel(tuple(atoms)), ref)
        assert rep.n_paired == 5
        assert rep.n_unpaired == 2  # one 'CB' on each side has no partner

    def test_too_few_ca_rejected(self):
        a = AtomicModel((Atom("C", (0, 0, 0), "A", 1, "GLY", "CA"),
                         Atom("C", (1, 0, 0), "A", 2, "GLY", "CA"),
                         Atom("N", (2, 0, 0), "A", 3, "GLY", "N")))
        with pytest.raises(ValueError, match="alpha-carbons"):
            evaluate(a, a)

    def test_disjoint_models_rejected(self, reference100):
        other = ca_model(np.zeros((4, 3)), chain="Z")
        with pytest.raises(ValueError, match="paired"):
            evaluate(other, reference100)

    def test_local_range(self, reference100):
        coords = reference100.coords().copy()
        coords[9:20] += [2.0, 0.0, 0.0]  # residues 10..20 displaced
        rep = evaluate(ca_model(coords), reference100,
                       local_range=("A", 30, 60))
        # distant residues stay near-exact while the global fit absorbs
        # the local bump, so the local RMSD is far below the displacement
        assert rep.rmsd_local < 1.0
        assert rep.rmsd_all > rep.rmsd_local

    def test_local_range_empty_errors(self, reference100):
        with pytest.raises(ValueError, match="range"):
            evaluate(reference100, reference100, local_range=("A", 500, 600))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_evaluate(self, seed):
        rng = np.random.default_rng(seed)
        reference = random_protein(rng)
        # the sample: reference atoms, moved and perturbed, some dropped, in
        # shuffled order, plus atoms on a chain the reference lacks
        keep = set(rng.permutation(len(reference))[: len(reference) - 25].tolist())
        atoms = [a for i, a in enumerate(reference.atoms) if i in keep]
        atoms = [atoms[i] for i in rng.permutation(len(atoms))]
        atoms += [Atom("C", rng.uniform(-40, 40, 3), "Z", i, "GLY", "CA") for i in range(6)]
        r = rotation_about(rng.normal(size=3), 50.0)
        coords = np.array([a.pos for a in atoms]) @ r.T + rng.normal(0, 1.5, (len(atoms), 3))
        sample = AtomicModel(atoms).with_coords(coords)
        grid = grid_for_model(reference, voxel_size=3.0, pad=4.0)
        dmap = simulate_map(reference, grid, 4.0)
        for kwargs in ({}, dict(local_range=("B", -10, 12)),
                       dict(dmap=dmap, resolution=4.0, local_range=("C", 0, 30))):
            got = evaluate(sample, reference, **kwargs)
            assert got == reference_evaluate(sample, reference, **kwargs)
            assert got.n_unpaired == 25 + 6

    @pytest.mark.parametrize("seed", range(12))
    def test_pairing_matches_reference_pairs(self, seed):
        """Both sides draw atoms from one pool of keys, with repeats, so that
        keys repeat on either side and some atoms have no partner."""
        rng = np.random.default_rng(seed)
        pool = random_protein(rng, n_chains=3, n_residues=12).atoms
        sides = []
        for _ in range(2):
            picks = rng.integers(len(pool), size=int(rng.integers(0, 2 * len(pool))))
            # or up to three atoms on keys the pool may lack
            extra = AtomicModel([Atom("C", (0, 0, 0), "Q", 7, "GLY", "CA"),
                                 Atom("C", (0, 0, 0), "A", 999, "GLY", "CA"),
                                 Atom("C", (0, 0, 0), "A", 1, "GLY", "CB")][:rng.integers(4)])
            sides.append(AtomicModel([pool[i] for i in picks])
                         if rng.random() < 0.8 else extra)
        sample, reference = sides
        si, ri = _pair_atoms(sample, reference)
        want_si, want_ri = reference_pairs(sample, reference)
        assert si.dtype == want_si.dtype and ri.dtype == want_ri.dtype
        np.testing.assert_array_equal(si, want_si)
        np.testing.assert_array_equal(ri, want_ri)
        if np.count_nonzero(sample.atom_names[si] == "CA") >= 3:
            rep = evaluate(sample, reference)
            assert rep.n_paired == len(want_si)
            assert rep.n_unpaired == len(sample) + len(reference) - 2 * len(want_si)

    def test_pairing_of_repeated_keys(self):
        # keys: a, b, a, c in the sample; c, a, a, d in the reference
        def model(keys):
            return AtomicModel([Atom("C", (0, 0, 0), chain, res, "GLY", "CA")
                                for chain, res in keys])
        a, b, c, d = ("A", 1), ("A", 2), ("B", 1), ("B", 2)
        si, ri = _pair_atoms(model([a, b, a, c]), model([c, a, a, d]))
        assert si.tolist() == [0, 3] and ri.tolist() == [1, 0]

    def test_rscc_uses_map_resolution_metadata(self, reference100):
        sub = ca_model(reference100.coords()[:10])
        grid = grid_for_model(sub, voxel_size=2.0, pad=4.0)
        dmap = simulate_map(sub, grid, resolution=3.0)
        rep = evaluate(sub, sub, dmap=dmap)  # resolution from map metadata
        assert rep.rscc == pytest.approx(1.0, abs=1e-12)
        bare = DensityMap(dmap.data, dmap.voxel_size, dmap.origin)
        with pytest.raises(ValueError, match="resolution"):
            evaluate(sub, sub, dmap=bare)


@pytest.fixture(scope="module")
def model_and_map():
    rng = np.random.default_rng(11)
    model = ca_model(rng.uniform(0, 12, (8, 3)))
    grid = grid_for_model(model, voxel_size=1.0, pad=4.0)
    return model, simulate_map(model, grid, resolution=2.0)


class TestRscc:
    def test_self_correlation_is_one(self, model_and_map):
        model, dmap = model_and_map
        assert rscc(model, dmap, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_negated_map_is_minus_one(self, model_and_map):
        model, dmap = model_and_map
        neg = DensityMap(-dmap.data, dmap.voxel_size, dmap.origin)
        assert rscc(model, neg, 2.0) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_intensity_invariance(self, model_and_map):
        model, dmap = model_and_map
        scaled = DensityMap(3.7 * dmap.data + 11.0, dmap.voxel_size, dmap.origin)
        assert rscc(model, scaled, 2.0) == pytest.approx(
            rscc(model, dmap, 2.0), abs=1e-10)

    def test_decorrelated_on_noise(self, model_and_map):
        model, dmap = model_and_map
        rng = np.random.default_rng(99)
        noise = DensityMap(rng.normal(size=dmap.data.shape), dmap.voxel_size,
                           dmap.origin)
        far = model.with_coords(model.coords() + 500.0)
        # a model entirely outside the grid has zero simulated variance
        with pytest.raises(ValueError, match="variance"):
            rscc(far, noise, 2.0)
        near_edge = model.with_coords(model.coords() + 8.0)
        assert abs(rscc(near_edge, noise, 2.0)) < 0.05

    def test_zero_variance_map_rejected(self, model_and_map):
        model, dmap = model_and_map
        flat = DensityMap(np.ones_like(dmap.data), dmap.voxel_size, dmap.origin)
        with pytest.raises(ValueError, match="variance"):
            rscc(model, flat, 2.0)


class TestRanking:
    def test_single_sample(self, model_and_map):
        model, dmap = model_and_map
        assert rank_samples([model], dmap, 2.0) == [0]

    def test_simulated_sample_ranks_first(self, model_and_map):
        model, dmap = model_and_map
        rng = np.random.default_rng(1)
        noisy = model.with_coords(model.coords() + rng.normal(0, 2, (8, 3)))
        assert rank_samples([noisy, model], dmap, 2.0) == [1, 0]

    def test_monotone_perturbation_order(self, model_and_map):
        model, dmap = model_and_map
        rng = np.random.default_rng(2)
        direction = rng.normal(size=(8, 3))
        direction /= np.sqrt(np.mean(np.sum(direction ** 2, axis=1)))
        samples = [model.with_coords(model.coords() + amp * direction)
                   for amp in (2.0, 0.5, 0.0, 1.0, 4.0)]
        assert rank_samples(samples, dmap, 2.0) == [2, 1, 3, 0, 4]

    def test_failing_sample_skipped_with_warning(self, model_and_map, caplog):
        model, dmap = model_and_map
        far = model.with_coords(model.coords() + 500.0)
        with caplog.at_level(logging.WARNING, logger="cryoguide.metrics"):
            order = rank_samples([far, model], dmap, 2.0)
        assert order == [1]
        assert any("skipped" in rec.message for rec in caplog.records)

    def test_empty_rejected(self, model_and_map):
        _, dmap = model_and_map
        with pytest.raises(ValueError, match="at least one"):
            rank_samples([], dmap, 2.0)


class TestReport:
    def test_fields(self, model_and_map):
        model, dmap = model_and_map
        rep = evaluate(model, model, dmap=dmap, resolution=2.0)
        assert isinstance(rep, EvalReport)
        assert 0 < rep.tm_score <= 1
        assert rep.rscc is not None and abs(rep.rscc) <= 1
        assert np.isfinite(rep.rmsd_all) and np.isfinite(rep.rmsd_ca)
