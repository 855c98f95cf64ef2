"""Atomic model container and PDB I/O tests."""

import ast
import pickle
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from cryoguide.structure import (ATOMIC_NUMBERS, Atom, AtomicModel,
                                 PdbFormatError, _infer_element, ca_subset,
                                 read_pdb, residue_range_subset, write_pdb)


def atom_line(serial=1, name=" CA ", altloc=" ", res="GLY", chain="A",
              resseq=1, x=1.0, y=2.0, z=3.0, occ="  1.00", b="  0.00",
              element=" C"):
    return (f"ATOM  {serial:5d} {name:<4.4}{altloc}{res:>3s} {chain}"
            f"{resseq:4d}    {x:8.3f}{y:8.3f}{z:8.3f}{occ:>6.6}{b:>6.6}"
            f"          {element:>2s}")


def reference_write_pdb(model, path):
    """write_pdb as it was with one f-string per record, kept as the
    byte-for-byte oracle."""
    lines = []
    serial = 0
    prev = model.atoms[0]
    for atom in model.atoms:
        if atom.chain_id != prev.chain_id:
            serial += 1
            lines.append(f"TER   {serial:5d}      {prev.res_name:>3s} "
                         f"{prev.chain_id}{prev.res_index:4d}")
        serial += 1
        name = atom.atom_name
        if len(name) < 4 and len(atom.element) == 1:
            name = " " + name
        lines.append(
            f"ATOM  {serial:5d} {name:<4s} {atom.res_name:>3s} {atom.chain_id}"
            f"{atom.res_index:4d}    {atom.pos[0]:8.3f}{atom.pos[1]:8.3f}{atom.pos[2]:8.3f}"
            f"{1.0:6.2f}{0.0:6.2f}          {atom.element:>2s}")
        prev = atom
    serial += 1
    lines.append(f"TER   {serial:5d}      {prev.res_name:>3s} {prev.chain_id}{prev.res_index:4d}")
    lines.append("END")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_read_pdb(path):
    """read_pdb as it was, building one Atom per record; kept as the oracle
    of the columnar reader.  Returns the tuple of Atoms."""
    atoms = []
    in_first_model = True
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            rec = line[:6]
            if rec == "MODEL ":
                continue
            if rec == "ENDMDL":
                in_first_model = False
                continue
            if not in_first_model or not rec.startswith("ATOM"):
                continue
            if len(line.rstrip("\n")) < 54:
                raise PdbFormatError(f"line {lineno}: ATOM record too short")
            if line[16] not in (" ", "A"):
                continue
            x, y, z = float(line[30:38]), float(line[38:46]), float(line[46:54])
            occ_field = line[54:60].strip()
            if (float(occ_field) if occ_field else 1.0) <= 0:
                continue
            element = line[76:78].strip().upper() if len(line) >= 78 else ""
            if not element:
                element = _infer_element(line[12:16])
            if element in ("H", "D"):
                continue
            atoms.append(Atom(element, (x, y, z), line[21], int(line[22:26]),
                              line[17:20].strip() or "UNK", line[12:16].strip()))
    return tuple(atoms)


def assert_same_atoms(model, atoms):
    """`model` holds exactly `atoms`: coordinates bit for bit, fields equal."""
    want = np.array([a.pos for a in atoms], dtype=np.float64).reshape(-1, 3)
    assert model.coords().tobytes() == want.tobytes()
    assert [(a.element, a.chain_id, a.res_index, a.res_name, a.atom_name)
            for a in model.atoms] == \
        [(a.element, a.chain_id, a.res_index, a.res_name, a.atom_name) for a in atoms]


# (element columns, atom name field, residue name): one-letter elements,
# two-letter ones written and inferred, and hydrogens the reader drops
_RECORD_KINDS = [(" N", " N  ", "ALA"), (" C", " CA ", "ALA"), (" C", " C  ", "GLY"),
                 (" O", " O  ", "GLY"), ("FE", "FE  ", "HEM"), ("  ", "ZN  ", "ZN"),
                 ("  ", " CA ", "SER"), ("  ", " OG1", "THR"), (" S", " SG ", "CYS"),
                 ("SE", "SE  ", "MSE"), (" H", " H  ", "ALA"), ("  ", "CA  ", " CA")]


def random_pdb_lines(rng, n):
    """ATOM records over chains A-C with negative residue numbers, altlocs,
    zero and blank occupancies, hydrogens, and records the reader skips."""
    lines = ["REMARK random model", "MODEL        1"]
    for i in range(n):
        element, name, res = _RECORD_KINDS[rng.integers(len(_RECORD_KINDS))]
        x, y, z = rng.uniform(-999.0, 9999.0, 3) if i % 5 else rng.normal(0, 20, 3)
        resseq = int(rng.integers(-999, 10000)) if i % 9 == 0 else i // 4 - 10
        altloc = " AB"[rng.integers(3)] if i % 4 == 0 else " "
        occ = ("  1.00", "  0.00", "      ", "  0.50")[rng.integers(4)]
        lines.append(atom_line(serial=i + 1, name=name, altloc=altloc, res=res,
                               chain="ABC"[i * 3 // n], resseq=resseq, x=x, y=y, z=z,
                               occ=occ, element=element))
        if i % 17 == 0:
            lines.append(f"HETATM{i:5d}  O   HOH A 201      1.000   1.000   1.000"
                         "  1.00  0.00           O")
    lines += ["ENDMDL", "MODEL        2", atom_line(serial=1, x=9.0), "ENDMDL", "END"]
    return lines


def write_lines(tmp_path, lines, fname="m.pdb"):
    path = tmp_path / fname
    path.write_text("\n".join(lines) + "\n")
    return path


class TestAtom:
    def test_element_validated_and_uppercased(self):
        a = Atom(element="fe", pos=(0, 0, 0))
        assert a.element == "FE"
        with pytest.raises(ValueError, match="element"):
            Atom(element="Xx", pos=(0, 0, 0))

    def test_non_finite_position_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Atom(element="C", pos=(0.0, np.nan, 0.0))


class TestReadPdb:
    def test_basic_fields(self, tmp_path):
        path = write_lines(tmp_path, [
            atom_line(serial=1, name=" N  ", element=" N", x=11.104, y=13.207,
                      z=10.567, res="ALA", chain="B", resseq=42),
        ])
        m = read_pdb(path)
        assert len(m) == 1
        a = m.atoms[0]
        assert (a.element, a.chain_id, a.res_index, a.res_name, a.atom_name) \
            == ("N", "B", 42, "ALA", "N")
        np.testing.assert_allclose(a.pos, [11.104, 13.207, 10.567])

    def test_altloc_filter(self, tmp_path):
        path = write_lines(tmp_path, [
            atom_line(serial=1, altloc=" ", x=1.0),
            atom_line(serial=2, altloc="A", x=2.0, resseq=2),
            atom_line(serial=3, altloc="B", x=3.0, resseq=3),
        ])
        m = read_pdb(path)
        assert [a.pos[0] for a in m.atoms] == [1.0, 2.0]

    def test_zero_occupancy_skipped_blank_kept(self, tmp_path):
        path = write_lines(tmp_path, [
            atom_line(serial=1, occ="  0.00"),
            atom_line(serial=2, occ="      ", resseq=2),
            atom_line(serial=3, occ="  0.50", resseq=3),
        ])
        m = read_pdb(path)
        assert [a.res_index for a in m.atoms] == [2, 3]

    def test_hydrogens_dropped(self, tmp_path):
        path = write_lines(tmp_path, [
            atom_line(serial=1, name=" CA ", element=" C"),
            atom_line(serial=2, name=" H  ", element=" H", resseq=2),
            atom_line(serial=3, name=" D  ", element=" D", resseq=3),
        ])
        m = read_pdb(path)
        assert len(m) == 1 and m.atoms[0].element == "C"

    def test_hetatm_and_other_records_ignored(self, tmp_path):
        path = write_lines(tmp_path, [
            "HEADER    TEST",
            atom_line(serial=1),
            "HETATM    2  O   HOH A 201      1.000   1.000   1.000  1.00  0.00           O",
            "REMARK nothing",
        ])
        assert len(read_pdb(path)) == 1

    def test_first_model_only(self, tmp_path):
        path = write_lines(tmp_path, [
            "MODEL        1",
            atom_line(serial=1, x=1.0),
            "ENDMDL",
            "MODEL        2",
            atom_line(serial=1, x=9.0),
            "ENDMDL",
        ])
        m = read_pdb(path)
        assert len(m) == 1 and m.atoms[0].pos[0] == 1.0

    def test_element_inferred_from_name(self, tmp_path):
        # blank element columns: ordinary atom names start at column 14,
        # two-letter elements are left-justified in the name field
        path = write_lines(tmp_path, [
            atom_line(serial=1, name=" CA ", element="  "),          # alpha carbon
            atom_line(serial=2, name="FE  ", element="  ", res="HEM", resseq=2),
            atom_line(serial=3, name=" OG1", element="  ", res="THR", resseq=3),
            atom_line(serial=4, name="1CB ", element="  ", resseq=4),
        ])
        m = read_pdb(path)
        assert [a.element for a in m.atoms] == ["C", "FE", "O", "C"]

    def test_calcium_vs_alpha_carbon(self, tmp_path):
        # left-justified CA in the name field is the element calcium
        path = write_lines(tmp_path, [
            atom_line(serial=1, name="CA  ", element="  ", res=" CA", resseq=1),
        ])
        m = read_pdb(path)
        assert m.atoms[0].element == "CA"
        assert ATOMIC_NUMBERS["CA"] == 20

    def test_short_record_errors_with_line_number(self, tmp_path):
        path = write_lines(tmp_path, [atom_line(serial=1), "ATOM      2  CA"])
        with pytest.raises(PdbFormatError, match="line 2"):
            read_pdb(path)

    def test_bad_coordinate_errors(self, tmp_path):
        bad = atom_line(serial=1).replace("   1.000", "  1.0.00", 1)
        path = write_lines(tmp_path, [bad])
        with pytest.raises(PdbFormatError, match="line 1.*coordinate"):
            read_pdb(path)

    @pytest.mark.parametrize("value", ["     nan", "     inf", "    -inf"])
    def test_non_finite_coordinate_names_line(self, tmp_path, value):
        bad = atom_line(serial=2, resseq=2).replace("   1.000", value, 1)
        path = write_lines(tmp_path, [atom_line(serial=1), bad, atom_line(serial=3, resseq=3)])
        with pytest.raises(PdbFormatError, match="line 2: non-finite coordinate"):
            read_pdb(path)

    def test_empty_file_errors(self, tmp_path):
        path = write_lines(tmp_path, ["REMARK empty"])
        with pytest.raises(PdbFormatError, match="no usable ATOM"):
            read_pdb(path)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_reader(self, tmp_path, seed):
        path = write_lines(tmp_path, random_pdb_lines(np.random.default_rng(seed), 300))
        model = read_pdb(path)
        assert_same_atoms(model, reference_read_pdb(path))
        assert model.provenance == str(path)
        assert {"FE", "ZN", "SE", "CA"} <= set(model.elements.tolist())
        assert model.res_indices.min() < 0 and len(set(model.chain_ids.tolist())) == 3


class TestWritePdb:
    def test_round_trip_coordinates_to_milliangstrom(self, tmp_path):
        rng = np.random.default_rng(7)
        coords = rng.uniform(-500, 500, (20, 3))
        atoms = tuple(Atom(element="C", pos=p, chain_id="A", res_index=i + 1,
                           res_name="GLY", atom_name="CA")
                      for i, p in enumerate(coords))
        path = tmp_path / "rt.pdb"
        write_pdb(AtomicModel(atoms), path)
        back = read_pdb(path)
        assert len(back) == 20
        np.testing.assert_allclose(back.coords(), coords, atol=5.001e-4)

    def test_metadata_round_trip(self, tmp_path):
        atoms = (Atom("N", (1, 2, 3), "B", 7, "ALA", "N"),
                 Atom("FE", (4, 5, 6), "B", 8, "HEM", "FE"))
        path = tmp_path / "meta.pdb"
        write_pdb(AtomicModel(atoms), path)
        back = read_pdb(path)
        assert [(a.element, a.chain_id, a.res_index, a.res_name, a.atom_name)
                for a in back.atoms] == [("N", "B", 7, "ALA", "N"),
                                         ("FE", "B", 8, "HEM", "FE")]

    def test_ter_per_chain_and_end(self, tmp_path):
        atoms = (Atom("C", (0, 0, 0), "A", 1), Atom("C", (1, 0, 0), "B", 1))
        path = tmp_path / "ter.pdb"
        write_pdb(AtomicModel(atoms), path)
        recs = [line[:6].strip() for line in path.read_text().splitlines()]
        assert recs == ["ATOM", "TER", "ATOM", "TER", "END"]

    def test_serials_sequential_including_ter(self, tmp_path):
        atoms = (Atom("C", (0, 0, 0), "A", 1), Atom("C", (1, 0, 0), "B", 1))
        path = tmp_path / "serial.pdb"
        write_pdb(AtomicModel(atoms), path)
        serials = [int(line[6:11]) for line in path.read_text().splitlines()
                   if line[:6].strip() in ("ATOM", "TER")]
        assert serials == [1, 2, 3, 4]

    def test_column_layout(self, tmp_path):
        atoms = (Atom("C", (1.5, -2.25, 3.125), "A", 1, "GLY", "CA"),)
        path = tmp_path / "cols.pdb"
        write_pdb(AtomicModel(atoms), path)
        line = path.read_text().splitlines()[0]
        assert line[0:6] == "ATOM  "
        assert line[12:16] == " CA "
        assert line[17:20] == "GLY"
        assert line[21] == "A"
        assert float(line[30:38]) == 1.5
        assert float(line[38:46]) == -2.25
        assert float(line[46:54]) == 3.125
        assert line[76:78] == " C"

    def test_coordinate_overflow_errors(self, tmp_path):
        for pos in ((10000.0, 0, 0), (-1000.0, 0, 0)):
            atoms = (Atom("C", pos, "A", 1),)
            with pytest.raises(ValueError, match="overflow"):
                write_pdb(AtomicModel(atoms), tmp_path / "big.pdb")

    def test_empty_model_errors(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_pdb(AtomicModel(()), tmp_path / "empty.pdb")

    @pytest.mark.parametrize("fields,match", [
        (dict(res_index=12345), "residue number 12345"),
        (dict(res_index=10000), "residue number 10000"),
        (dict(res_index=-1000), "residue number -1000"),
        (dict(res_index=1.5), "residue number 1.5"),
        (dict(atom_name="CA123"), "atom name 'CA123'"),
        (dict(res_name="GLYX"), "residue name 'GLYX'"),
        (dict(chain_id="AB"), "chain ID 'AB'"),
        (dict(chain_id=""), "chain ID ''"),
    ])
    def test_field_overflow_errors(self, tmp_path, fields, match):
        atoms = (Atom("C", (0, 0, 0), "A", 1),
                 Atom(**{**dict(element="C", pos=(1, 0, 0), chain_id="A",
                                res_index=2, res_name="GLY", atom_name="CA"),
                         **fields}))
        path = tmp_path / "wide.pdb"
        with pytest.raises(ValueError, match=match):
            write_pdb(AtomicModel(atoms), path)
        assert not path.exists()

    def test_field_limits_written(self, tmp_path):
        atoms = (Atom("C", (0, 0, 0), "A", -999, "GLY", "CA"),
                 Atom("C", (1, 0, 0), "A", 9999, "GLY", "CA"))
        path = tmp_path / "edge.pdb"
        write_pdb(AtomicModel(atoms), path)
        assert [a.res_index for a in read_pdb(path).atoms] == [-999, 9999]

    def test_serial_overflow_errors(self, tmp_path):
        # 99,998 atoms in one chain end on TER serial 99,999 and fit; one
        # more chain break pushes the last TER to 100,001
        atom = Atom("C", (0, 0, 0), "A", 1)
        fits = AtomicModel((atom,) * 99998)
        write_pdb(fits, tmp_path / "fits.pdb")
        last = (tmp_path / "fits.pdb").read_text().splitlines()[-2]
        assert last.startswith("TER   99999")
        wide = AtomicModel((atom,) * 99998 + (Atom("C", (0, 0, 0), "B", 1),))
        with pytest.raises(ValueError, match="100001 records overflow"):
            write_pdb(wide, tmp_path / "wide.pdb")
        assert not (tmp_path / "wide.pdb").exists()

    def test_bytes_match_reference_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        specs = [("N", "N", "ALA"), ("C", "CA", "ALA"), ("C", "C", "ALA"),
                 ("O", "O", "ALA"), ("FE", "FE", "HEM"), ("C", "HG21", "THR"),
                 ("ZN", "ZN", "ZN"), ("S", "SG", "CYS"), ("CA", "CA", "CA")]
        atoms = []
        for i in range(60):
            element, name, res = specs[i % len(specs)]
            pos = rng.uniform(-999.0, 9999.0, 3) if i % 7 else rng.uniform(-20, 20, 3)
            if i % 11 == 0:
                pos[:2] = (-0.0, -0.0004)        # both write as -0.000
            atoms.append(Atom(element, pos, "ABC"[i // 20], i % 20 + 1 - 5 * (i % 3), res, name))
        model = AtomicModel(tuple(atoms))
        write_pdb(model, tmp_path / "new.pdb")
        reference_write_pdb(model, tmp_path / "ref.pdb")
        got = (tmp_path / "new.pdb").read_bytes()
        assert got == (tmp_path / "ref.pdb").read_bytes()
        assert b"  -0.000  -0.000" in got and b" HG21 THR" in got


class TestSubsets:
    def _model(self):
        atoms = (Atom("N", (0, 0, 0), "A", 1, "ALA", "N"),
                 Atom("C", (1, 0, 0), "A", 1, "ALA", "CA"),
                 Atom("C", (2, 0, 0), "A", 2, "GLY", "CA"),
                 Atom("C", (3, 0, 0), "B", 1, "GLY", "CA"))
        return AtomicModel(atoms)

    def test_ca_subset(self):
        m = ca_subset(self._model())
        assert len(m) == 3
        assert all(a.atom_name == "CA" for a in m.atoms)

    def test_residue_range_subset(self):
        m = residue_range_subset(self._model(), "A", 1, 1)
        assert len(m) == 2
        assert {a.res_index for a in m.atoms} == {1}
        with pytest.raises(ValueError, match="lo"):
            residue_range_subset(self._model(), "A", 3, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_masks_match_atom_filters(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        model = read_pdb(write_lines(tmp_path, random_pdb_lines(rng, 300)))
        atoms = model.atoms
        cas = ca_subset(model)
        assert_same_atoms(cas, [a for a in atoms if a.atom_name == "CA"])
        assert cas.provenance == model.provenance
        for chain, lo, hi in (("B", -20, 40), ("A", -999, -5), ("C", 500, 9999),
                              ("Z", 0, 10), ("A", 7, 7)):
            sub = residue_range_subset(model, chain, lo, hi)
            assert_same_atoms(sub, [a for a in atoms
                                    if a.chain_id == chain and lo <= a.res_index <= hi])


class TestAtomicModel:
    def test_with_coords_preserves_metadata(self):
        atoms = (Atom("N", (0, 0, 0), "A", 1, "ALA", "N"),)
        m = AtomicModel(atoms, provenance="x")
        m2 = m.with_coords(np.array([[9.0, 9.0, 9.0]]))
        assert m2.atoms[0].res_name == "ALA" and m2.provenance == "x"
        np.testing.assert_allclose(m2.atoms[0].pos, [9.0, 9.0, 9.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_with_coords_rejects_non_finite(self, bad):
        m = AtomicModel((Atom("N", (0, 0, 0)), Atom("C", (1, 0, 0))))
        coords = np.zeros((2, 3))
        coords[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            m.with_coords(coords)

    def test_with_coords_copies_input(self):
        m = AtomicModel((Atom("N", (0, 0, 0)),))
        coords = np.array([[1.0, 2.0, 3.0]])
        m2 = m.with_coords(coords)
        coords[0, 0] = 9.0
        assert m2.atoms[0].pos.tolist() == [1.0, 2.0, 3.0]

    def test_with_coords_shares_metadata_not_coords(self):
        m = AtomicModel((Atom("N", (0, 0, 0), "A", 1, "ALA", "N"),
                         Atom("FE", (1, 0, 0), "B", -3, "HEM", "FE")))
        coords = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        m2 = m.with_coords(coords)
        for name in ("elements", "chain_ids", "res_indices", "res_names", "atom_names"):
            assert np.shares_memory(getattr(m2, name), getattr(m, name))
        assert not np.shares_memory(m2.coords(), coords)
        assert not np.shares_memory(m2.coords(), m.coords())

    def test_columns_read_only_and_attributes_frozen(self):
        m = AtomicModel((Atom("N", (0, 0, 0), "A", 1, "ALA", "N"),), provenance="x")
        for column in (m.coords(), m.elements, m.chain_ids, m.res_indices,
                       m.res_names, m.atom_names):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        m.atoms[0].pos[0] = 5.0       # a record is a copy
        assert m.coords()[0, 0] == 0.0
        for name in ("provenance", "elements", "atoms", "_xyz", "anything"):
            with pytest.raises(FrozenInstanceError):
                setattr(m, name, None)
        with pytest.raises(FrozenInstanceError):
            del m.elements
        assert m.provenance == "x" and m.elements.tolist() == ["N"]

    def test_non_integer_residue_number_rejected(self):
        with pytest.raises(ValueError, match="residue number 2.0 is not an integer"):
            AtomicModel((Atom("C", (0, 0, 0), res_index=2.0),))

    def test_pickle_round_trip(self, tmp_path):
        m = read_pdb(write_lines(tmp_path, random_pdb_lines(np.random.default_rng(5), 60)))
        back = pickle.loads(pickle.dumps(m))
        assert_same_atoms(back, m.atoms)
        assert back.provenance == m.provenance
        assert not back.coords().flags.writeable and not back.atom_names.flags.writeable
        assert back.res_indices.dtype == np.int64

    def test_empty_model(self):
        m = AtomicModel(())
        assert len(m) == 0 and m.atoms == () and m.coords().shape == (0, 3)
        assert m.atomic_numbers().shape == (0,)

    def test_atomic_numbers(self):
        atoms = (Atom("C", (0, 0, 0)), Atom("O", (1, 0, 0)), Atom("FE", (2, 0, 0)))
        np.testing.assert_array_equal(AtomicModel(atoms).atomic_numbers(),
                                      [6, 8, 26])


def test_only_structure_reads_atoms():
    """Every module but structure.py works on the model's columns: no other
    reads `.atoms`, the per-atom records."""
    package = Path(__file__).resolve().parents[1] / "src" / "cryoguide"
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py") if path.name != "structure.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "atoms")
    assert readers == []
