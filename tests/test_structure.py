"""Atomic model container and PDB I/O tests."""

import ast
import pickle
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_width_error(model):
    """write_pdb's field check as it was, one atom at a time: the message
    for the first atom with a field too wide for its column, or None."""
    for atom in model.atoms:
        if not -999 <= atom.res_index <= 9999:
            problem = f"residue number {atom.res_index!r} (an integer from -999 to 9999)"
        elif len(atom.atom_name) > 4:
            problem = f"atom name {atom.atom_name!r} (at most 4 characters)"
        elif len(atom.res_name) > 3:
            problem = f"residue name {atom.res_name!r} (at most 3 characters)"
        elif len(atom.chain_id) != 1:
            problem = f"chain ID {atom.chain_id!r} (exactly 1 character)"
        else:
            continue
        return f"write_pdb: {problem} does not fit its fixed-width PDB column"
    return None


def reference_read_pdb(path):
    """read_pdb as it was, one line at a time, kept as the oracle of the
    columnar reader: the same model, or the same PdbFormatError.  Two
    changes: a bad occupancy field raised a bare ValueError then, and raises
    the reader's numbered message now; an atom name with no element to infer
    raised an unnumbered message then, and is numbered now."""
    rows, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("ENDMDL"):
                break
            if not line.startswith("ATOM"):
                continue
            if len(line.rstrip("\n")) < 54:
                raise PdbFormatError(f"line {lineno}: ATOM record too short")
            if line[16] not in (" ", "A"):
                continue
            try:
                xyz = float(line[30:38]), float(line[38:46]), float(line[46:54])
            except ValueError as exc:
                raise PdbFormatError(f"line {lineno}: bad coordinate field: {exc}") from exc
            occ_field = line[54:60].strip()
            try:
                if occ_field and float(occ_field) <= 0:
                    continue
            except ValueError as exc:
                raise PdbFormatError(f"line {lineno}: bad occupancy field: {exc}") from exc
            element = line[76:78].strip().upper() if len(line) >= 78 else ""
            if not element:
                try:
                    element = _infer_element(line[12:16])
                except PdbFormatError as exc:
                    raise PdbFormatError(f"line {lineno}: {exc}") from exc
            if element in ("H", "D"):
                continue
            if element not in ATOMIC_NUMBERS:
                raise PdbFormatError(f"line {lineno}: unrecognized element {element!r}")
            try:
                res_index = int(line[22:26])
            except ValueError as exc:
                raise PdbFormatError(f"line {lineno}: bad residue number: {exc}") from exc
            rows.append((element, xyz, line[21], res_index,
                         line[17:20].strip() or "UNK", line[12:16].strip()))
            linenos.append(lineno)
    if not rows:
        raise PdbFormatError(f"{path}: no usable ATOM records")
    model = AtomicModel._from_columns(*zip(*rows), str(path))
    finite = np.isfinite(model.coords()).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise PdbFormatError(f"line {linenos[row]}: non-finite coordinate "
                             f"{model.coords()[row]}")
    return model


def read_outcome(reader, path):
    """What `reader` makes of a file: its columns (values and dtypes) and
    provenance, or the PdbFormatError's message."""
    try:
        model = reader(path)
    except PdbFormatError as exc:
        return str(exc)
    return [(c.dtype.str, c.tobytes()) for c in model._columns()] + [model.provenance]


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
        assert read_outcome(read_pdb, path) == read_outcome(reference_read_pdb, path)
        assert model.provenance == str(path)
        assert {"FE", "ZN", "SE", "CA"} <= set(model.elements.tolist())
        assert model.res_indices.min() < 0 and len(set(model.chain_ids.tolist())) == 3


    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_edge_records_match_reference_reader(self, tmp_path, seed, newline):
        """Line endings, a last line with and without its newline, 76- to
        78-character records (the element columns count when the record,
        newline included, reaches column 78), blank chains and tabs."""
        rng = np.random.default_rng(seed)
        lines = random_pdb_lines(rng, 60)[:-4]          # no second model
        for i in range(40):
            line = atom_line(serial=100 + i, resseq=i,
                             name=("FE  ", "\tCA ", " C\t ", "CA  ", " N  ")[i % 5],
                             chain=" AB"[rng.integers(3)],
                             element=("FE", " C", "  ", "NA", " N")[rng.integers(5)])
            lines.insert(int(rng.integers(len(lines) + 1)), line[:(76, 77, 78, 80)[i % 4]])
        lines[-1] = lines[-1][:77]
        for end in ("", newline):
            path = tmp_path / f"edge{len(end)}.pdb"
            path.write_bytes((newline.join(lines) + end).encode())
            got = read_outcome(read_pdb, path)
            assert not isinstance(got, str), got
            assert got == read_outcome(reference_read_pdb, path)

    def test_element_columns_count_from_column_78_newline_included(self, tmp_path):
        # column 77 holds "F" of "FE": with a newline the record reaches
        # column 78 and reads fluorine; as a last line without one, the
        # element is inferred from the name, iron
        line = atom_line(name="FE  ", element="FE")[:77]
        path = tmp_path / "cut.pdb"
        for end, element in (("\n", "F"), ("", "FE")):
            path.write_text(line + end)
            assert read_pdb(path).elements.tolist() == [element]

    # one bad record as line 2 of three, and the message the reader gave
    # for it before it read fields column-wise (a bad occupancy field and an
    # atom name with no element to infer had no line number then)
    _BAD_RECORDS = [
        ("ATOM      2  CA  GLY A   2       1.000",
         "line 2: ATOM record too short"),
        (atom_line(serial=2, resseq=2).replace("   1.000", "  1.0.00", 1),
         "line 2: bad coordinate field: could not convert string to float: '  1.0.00'"),
        (atom_line(serial=2, resseq=2, occ="  x.00"),
         "line 2: bad occupancy field: could not convert string to float: 'x.00'"),
        (atom_line(serial=2, resseq=2).replace("A   2", "A  x2", 1),
         "line 2: bad residue number: invalid literal for int() with base 10: '  x2'"),
        (atom_line(serial=2, resseq=2, element="XX"),
         "line 2: unrecognized element 'XX'"),
        (atom_line(serial=2, resseq=2, name=" 12 ", element="  "),
         "line 2: cannot infer element from atom name ' 12 '"),
        (atom_line(serial=2, resseq=2).replace("   2.000", "     nan", 1),
         "line 2: non-finite coordinate [ 1. nan  3.]"),
    ]

    @pytest.mark.parametrize("bad,message", _BAD_RECORDS, ids=[
        "short", "coordinate", "occupancy", "residue-number", "unknown-element",
        "uninferable-element", "non-finite"])
    def test_error_messages(self, tmp_path, bad, message):
        path = write_lines(tmp_path, [atom_line(serial=1), bad, atom_line(serial=3, resseq=3)])
        with pytest.raises(PdbFormatError) as exc:
            read_pdb(path)
        assert str(exc.value) == message == read_outcome(reference_read_pdb, path)

    def test_first_failing_record_wins(self, tmp_path):
        """Checks run column-wise, but the error is the first failing
        record's, whichever check fails it; a bad field in a record that a
        filter drops is no error."""
        late_check = atom_line(serial=2, resseq=2).replace("A   2", "A  x2", 1)
        early_check = "ATOM      3  CA  GLY A   3       1.000"
        non_finite = atom_line(serial=2, resseq=2).replace("   2.000", "     inf", 1)
        skipped = [atom_line(serial=5, altloc="B").replace("   1.000", "  1.0.00", 1),
                   atom_line(serial=6, element=" H").replace("A   1", "A  x1", 1),
                   atom_line(serial=7, occ="  0.00", element="XX")]
        dropped = [*skipped, atom_line(serial=8, altloc="B", occ="  x.00"),
                   atom_line(serial=9, altloc="B").replace("   2.000", "     nan", 1),
                   atom_line(serial=10, occ="  0.00", name=" 12 ", element="  "),
                   atom_line(serial=11, occ="  0.00").replace("   3.000", "     inf", 1),
                   atom_line(serial=12, element=" D", resseq=12).replace("A  12", "A  x2", 1)]
        for lines, message in (
                ([atom_line(serial=1), late_check, early_check],
                 "line 2: bad residue number: invalid literal for int() with base 10: '  x2'"),
                ([atom_line(serial=1), non_finite, late_check.replace(" 2 ", " 3 ")],
                 "line 3: bad residue number: invalid literal for int() with base 10: '  x2'"),
                ([atom_line(serial=1), *skipped, non_finite],
                 "line 5: non-finite coordinate [ 1. inf  3.]"),
                ([atom_line(serial=1), *dropped, atom_line(serial=13, resseq=13)], None)):
            path = write_lines(tmp_path, lines)
            got = read_outcome(read_pdb, path)
            assert got == read_outcome(reference_read_pdb, path)
            if message is None:
                assert read_pdb(path).res_indices.tolist() == [1, 13]
            else:
                assert got == message

    @pytest.mark.parametrize("seed", range(20))
    def test_random_errors_match_reference_reader(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        lines = random_pdb_lines(rng, 40)
        for bad, _ in self._BAD_RECORDS:                # up to one of each kind
            if rng.random() < 0.5:
                lines.insert(int(rng.integers(2, len(lines) - 4)), bad)
        path = write_lines(tmp_path, lines)
        assert read_outcome(read_pdb, path) == read_outcome(reference_read_pdb, path)

    def test_blocks_of_records_match_reference_reader(self, tmp_path):
        """A file longer than one parse block: the columns, the widest
        element column (iron in the last block only) and the line of the
        first bad record are the file's, whichever block they fall in.
        Records that fail different checks in one block, in reverse check
        order, give the first of them, whichever check found it."""
        lines = random_pdb_lines(np.random.default_rng(21), 3000)
        lines = [line.replace(" FE  HEM", " CA  HEM") for line in lines]
        lines.insert(2800, atom_line(serial=9999, name="FE  ", res="HEM", element="FE"))
        path = write_lines(tmp_path, lines)
        got = read_outcome(read_pdb, path)
        assert got == read_outcome(reference_read_pdb, path)
        assert got[0][0] == "<U2"
        # each record also fails the last check, which must not name it
        reverse = [line.replace("A   1", "A  x1", 1) for line in (
            atom_line(), atom_line(element="XX"), atom_line(name=" 12 ", element="  "),
            atom_line(occ="  x.00"), atom_line().replace("   3.000", "  3.0.00", 1),
            atom_line().replace("   2.000", "  2.0.00", 1),
            atom_line().replace("   1.000", "  1.0.00", 1),
            "ATOM      3  CA  GLY A   1       1.000")]
        for first, check in enumerate(("bad residue number", "unrecognized element",
                                       "cannot infer element", "bad occupancy field",
                                       *["bad coordinate field"] * 3, "ATOM record too short")):
            path = write_lines(tmp_path, lines[:1500] + reverse[first:] + lines[1500:])
            got = read_outcome(read_pdb, path)
            assert got == read_outcome(reference_read_pdb, path)
            assert got.startswith(f"line 1501: {check}")
        late = atom_line(serial=2, resseq=2).replace("A   2", "A  x2", 1)
        for at, bad in ((1500, late), (2500, "ATOM      3  CA  GLY A   3       1.000")):
            lines.insert(at, bad)
            path = write_lines(tmp_path, lines)
            assert read_outcome(read_pdb, path) == read_outcome(reference_read_pdb, path)
        assert read_outcome(read_pdb, path).startswith("line 1501: bad residue number")

    def test_nan_occupancy_kept(self, tmp_path):
        path = write_lines(tmp_path, [atom_line(serial=1, occ="   nan"),
                                      atom_line(serial=2, resseq=2, occ=" -0.00")])
        assert read_pdb(path).res_indices.tolist() == [1]

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

    def test_first_offending_atom_named(self, tmp_path):
        # atom 1 has a wide chain ID, atom 2 a wide name and residue number:
        # atom 1 is named, and for atom 2 the residue number comes first
        atoms = [Atom("C", (0, 0, 0), "A", 1), Atom("C", (1, 0, 0), "AB", 2),
                 Atom("C", (2, 0, 0), "A", 10000, "GLY", "CA123")]
        path = tmp_path / "wide.pdb"
        for model, message in (
                (AtomicModel(atoms), "write_pdb: chain ID 'AB' (exactly 1 character) "
                                     "does not fit its fixed-width PDB column"),
                (AtomicModel(atoms[2:]), "write_pdb: residue number 10000 (an integer from "
                                         "-999 to 9999) does not fit its fixed-width PDB column")):
            with pytest.raises(ValueError) as exc:
                write_pdb(model, path)
            assert str(exc.value) == message == reference_width_error(model)
            assert not path.exists()

    @pytest.mark.parametrize("seed", range(8))
    def test_field_messages_match_reference_check(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        wide = [dict(res_index=12345), dict(res_index=-1000), dict(atom_name="CA123"),
                dict(res_name="GLYX"), dict(chain_id="AB"), dict(chain_id="")]
        atoms = []
        for i in range(50):
            fields = dict(chain_id="AB"[i // 25], res_index=i, res_name="ALA", atom_name="CA")
            if rng.random() < 0.1:
                fields.update(wide[rng.integers(len(wide))])
            if rng.random() < 0.05:
                fields.update(wide[rng.integers(len(wide))])
            atoms.append(Atom("C", rng.uniform(-20, 20, 3), **fields))
        model = AtomicModel(atoms)
        message = reference_width_error(model)
        path = tmp_path / "m.pdb"
        if message is None:
            write_pdb(model, path)
            reference_write_pdb(model, tmp_path / "ref.pdb")
            assert path.read_bytes() == (tmp_path / "ref.pdb").read_bytes()
        else:
            with pytest.raises(ValueError) as exc:
                write_pdb(model, path)
            assert str(exc.value) == message

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


_NAME = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789'", min_size=1, max_size=4)
_ATOMS = st.lists(st.tuples(
    st.sampled_from(sorted(set(ATOMIC_NUMBERS) - {"H"})),
    st.tuples(*[st.floats(-999.0, 9999.0)] * 3),
    st.sampled_from("ABCZ"), st.integers(-999, 9999),
    st.text("ACDEGHIKLMNPQRSTVWY", min_size=1, max_size=3), _NAME), min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(_ATOMS)
def test_write_read_round_trip(tmp_path_factory, records):
    """write_pdb then read_pdb gives the model back: every column equal, and
    the coordinates to the 3 decimals that the format keeps."""
    model = AtomicModel([Atom(*r) for r in records])
    path = tmp_path_factory.mktemp("round") / "m.pdb"
    write_pdb(model, path)
    back = read_pdb(path)
    for name in ("elements", "chain_ids", "res_indices", "res_names", "atom_names"):
        assert getattr(back, name).tolist() == getattr(model, name).tolist()
    np.testing.assert_allclose(back.coords(), model.coords(), rtol=0, atol=5e-4 + 1e-9)

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

    def test_atomic_numbers_match_lookup_per_atom(self, tmp_path):
        model = read_pdb(write_lines(tmp_path, random_pdb_lines(np.random.default_rng(9), 200)))
        got = model.atomic_numbers()
        want = np.array([ATOMIC_NUMBERS[e] for e in model.elements.tolist()], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (len(model),)
        assert got.tobytes() == want.tobytes()


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
