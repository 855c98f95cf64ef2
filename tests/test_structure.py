"""Atomic model container and PDB I/O tests."""

import numpy as np
import pytest

from cryoguide.structure import (ATOMIC_NUMBERS, Atom, AtomicModel,
                                 PdbFormatError, ca_subset, read_pdb,
                                 residue_range_subset, write_pdb)


def atom_line(serial=1, name=" CA ", altloc=" ", res="GLY", chain="A",
              resseq=1, x=1.0, y=2.0, z=3.0, occ="  1.00", b="  0.00",
              element=" C"):
    return (f"ATOM  {serial:5d} {name:<4.4}{altloc}{res:>3s} {chain}"
            f"{resseq:4d}    {x:8.3f}{y:8.3f}{z:8.3f}{occ:>6.6}{b:>6.6}"
            f"          {element:>2s}")


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

    def test_empty_file_errors(self, tmp_path):
        path = write_lines(tmp_path, ["REMARK empty"])
        with pytest.raises(PdbFormatError, match="no usable ATOM"):
            read_pdb(path)


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


class TestAtomicModel:
    def test_with_coords_preserves_metadata(self):
        atoms = (Atom("N", (0, 0, 0), "A", 1, "ALA", "N"),)
        m = AtomicModel(atoms, provenance="x")
        m2 = m.with_coords(np.array([[9.0, 9.0, 9.0]]))
        assert m2.atoms[0].res_name == "ALA" and m2.provenance == "x"
        np.testing.assert_allclose(m2.atoms[0].pos, [9.0, 9.0, 9.0])

    def test_atomic_numbers(self):
        atoms = (Atom("C", (0, 0, 0)), Atom("O", (1, 0, 0)), Atom("FE", (2, 0, 0)))
        np.testing.assert_array_equal(AtomicModel(atoms).atomic_numbers(),
                                      [6, 8, 26])
