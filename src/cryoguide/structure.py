"""Atomic model container and fixed-width PDB I/O (heavy atoms only)."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

ATOMIC_NUMBERS = {
    "H": 1, "B": 5, "C": 6, "N": 7, "O": 8, "F": 9, "NA": 11, "MG": 12,
    "P": 15, "S": 16, "CL": 17, "K": 19, "CA": 20, "MN": 25, "FE": 26,
    "CO": 27, "NI": 28, "CU": 29, "ZN": 30, "SE": 34, "BR": 35, "I": 53,
}


class PdbFormatError(ValueError):
    """Unparseable PDB content."""


@dataclass(frozen=True)
class Atom:
    element: str
    pos: np.ndarray
    chain_id: str = "A"
    res_index: int = 1
    res_name: str = "GLY"
    atom_name: str = "CA"

    def __post_init__(self):
        if self.element.upper() not in ATOMIC_NUMBERS:
            raise ValueError(f"unrecognized element {self.element!r}")
        pos = np.asarray(self.pos, dtype=np.float64).reshape(3)
        if not np.isfinite(pos).all():
            raise ValueError(f"non-finite atom position {pos}")
        object.__setattr__(self, "element", self.element.upper())
        object.__setattr__(self, "pos", pos)


def _checked_atom(element, pos, chain_id, res_index, res_name, atom_name) -> Atom:
    """Atom built without Atom's per-atom checks, for fields the caller has
    checked: an upper-case element in ATOMIC_NUMBERS and a finite float64
    (3,) `pos`."""
    atom = object.__new__(Atom)
    set_field = object.__setattr__
    set_field(atom, "element", element)
    set_field(atom, "pos", pos)
    set_field(atom, "chain_id", chain_id)
    set_field(atom, "res_index", res_index)
    set_field(atom, "res_name", res_name)
    set_field(atom, "atom_name", atom_name)
    return atom


def _non_finite_row(coords: np.ndarray) -> int | None:
    """Index of the first row of an (N, 3) array holding a NaN or inf, if any."""
    finite = np.isfinite(coords).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


@dataclass(frozen=True)
class AtomicModel:
    atoms: tuple[Atom, ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def __len__(self) -> int:
        return len(self.atoms)

    def coords(self) -> np.ndarray:
        """(N, 3) coordinate array in atom order."""
        if not self.atoms:
            return np.zeros((0, 3))
        return np.array([a.pos for a in self.atoms])

    def atomic_numbers(self) -> np.ndarray:
        return np.array([ATOMIC_NUMBERS[a.element] for a in self.atoms], dtype=np.float64)

    def with_coords(self, coords: np.ndarray, provenance: str | None = None) -> "AtomicModel":
        """Copy of the model with coordinates replaced, metadata preserved."""
        coords = np.array(coords, dtype=np.float64).reshape(len(self.atoms), 3)
        row = _non_finite_row(coords)
        if row is not None:
            raise ValueError(f"non-finite atom position {coords[row]} (atom {row})")
        atoms = tuple(_checked_atom(a.element, p, a.chain_id, a.res_index,
                                    a.res_name, a.atom_name)
                      for a, p in zip(self.atoms, coords))
        return AtomicModel(atoms, self.provenance if provenance is None else provenance)


def _infer_element(name_field: str) -> str:
    """Element from a PDB atom name when columns 77-78 are blank.

    Names left-justified in the 4-character field (column 13 occupied) denote
    two-letter elements (FE, ZN, calcium CA); ordinary protein atoms start at
    column 14 and their element is the first letter.
    """
    if name_field[:1] not in ("", " ") and not name_field[0].isdigit():
        two = name_field[:2].strip().upper()
        if len(two) == 2 and two in ATOMIC_NUMBERS:
            return two
    for ch in name_field.strip():
        if ch.isalpha():
            return ch.upper()
    raise PdbFormatError(f"cannot infer element from atom name {name_field!r}")


def read_pdb(path) -> AtomicModel:
    """Parse ATOM records: first model, altloc ' '/'A', occupancy > 0, no hydrogens."""
    fields, xyz, linenos = [], [], []
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
            altloc = line[16]
            if altloc not in (" ", "A"):
                continue
            try:
                x = float(line[30:38])
                y = float(line[38:46])
                z = float(line[46:54])
            except ValueError as exc:
                raise PdbFormatError(f"line {lineno}: bad coordinate field: {exc}") from exc
            occ_field = line[54:60].strip()
            occupancy = float(occ_field) if occ_field else 1.0
            if occupancy <= 0:
                continue
            element = line[76:78].strip().upper() if len(line) >= 78 else ""
            if not element:
                element = _infer_element(line[12:16])
            if element in ("H", "D"):
                continue
            if element not in ATOMIC_NUMBERS:
                raise PdbFormatError(f"line {lineno}: unrecognized element {element!r}")
            try:
                res_index = int(line[22:26])
            except ValueError as exc:
                raise PdbFormatError(f"line {lineno}: bad residue number: {exc}") from exc
            fields.append((element, line[21], res_index,
                           line[17:20].strip() or "UNK", line[12:16].strip()))
            xyz.append((x, y, z))
            linenos.append(lineno)
    if not fields:
        raise PdbFormatError(f"{path}: no usable ATOM records")
    coords = np.array(xyz, dtype=np.float64)
    row = _non_finite_row(coords)
    if row is not None:
        raise PdbFormatError(f"line {linenos[row]}: non-finite coordinate {coords[row]}")
    atoms = tuple(_checked_atom(element, p, chain_id, res_index, res_name, atom_name)
                  for (element, chain_id, res_index, res_name, atom_name), p
                  in zip(fields, coords))
    return AtomicModel(atoms, provenance=str(path))


_ATOM_RECORD = "ATOM  %5d %-4s %3s %s%4d    %8.3f%8.3f%8.3f  1.00  0.00          %2s"
_TER_RECORD = "TER   %5d      %3s %s%4d"


def _field_width_error(atom: Atom) -> str | None:
    """What of `atom` does not fit its fixed-width PDB column, if anything."""
    if not (isinstance(atom.res_index, numbers.Integral) and -999 <= atom.res_index <= 9999):
        return f"residue number {atom.res_index!r} (an integer from -999 to 9999)"
    if len(atom.atom_name) > 4:
        return f"atom name {atom.atom_name!r} (at most 4 characters)"
    if len(atom.res_name) > 3:
        return f"residue name {atom.res_name!r} (at most 3 characters)"
    if len(atom.chain_id) != 1:
        return f"chain ID {atom.chain_id!r} (exactly 1 character)"
    return None


def write_pdb(model: AtomicModel, path) -> None:
    """Emit fixed-width ATOM records with TER per chain and END.

    A value that does not fit its column (coordinate, residue number, serial,
    atom, residue or chain name) raises ValueError before anything is written.
    """
    if not model.atoms:
        raise ValueError("write_pdb: empty model")
    coords = model.coords()
    for c in (coords.min(), coords.max()):   # the widest 8.3f fields
        if len(f"{c:8.3f}") > 8:
            raise ValueError(
                f"write_pdb: coordinate {c:.3f} A overflows the fixed-width "
                "PDB format (range -999.999 to 9999.999)")
    lines = []
    serial = 0
    prev = model.atoms[0]
    for atom, (x, y, z) in zip(model.atoms, coords.tolist()):
        problem = _field_width_error(atom)
        if problem:
            raise ValueError(f"write_pdb: {problem} does not fit its fixed-width PDB column")
        if atom.chain_id != prev.chain_id:
            serial += 1
            lines.append(_TER_RECORD % (serial, prev.res_name, prev.chain_id, prev.res_index))
        serial += 1
        name = atom.atom_name
        if len(name) < 4 and len(atom.element) == 1:
            name = " " + name
        lines.append(_ATOM_RECORD % (serial, name, atom.res_name, atom.chain_id,
                                     atom.res_index, x, y, z, atom.element))
        prev = atom
    serial += 1
    if serial > 99999:
        raise ValueError(f"write_pdb: {serial} records overflow the 5-digit PDB "
                         "serial number (at most 99999, TER records included)")
    lines.append(_TER_RECORD % (serial, prev.res_name, prev.chain_id, prev.res_index))
    lines.append("END")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ca_subset(model: AtomicModel) -> AtomicModel:
    """Atoms named CA, original order preserved."""
    return AtomicModel(tuple(a for a in model.atoms if a.atom_name == "CA"),
                       provenance=model.provenance)


def residue_range_subset(model: AtomicModel, chain: str, lo: int, hi: int) -> AtomicModel:
    """Atoms on `chain` with lo <= res_index <= hi."""
    if lo > hi:
        raise ValueError(f"residue range lo {lo} > hi {hi}")
    return AtomicModel(tuple(a for a in model.atoms
                             if a.chain_id == chain and lo <= a.res_index <= hi),
                       provenance=model.provenance)
