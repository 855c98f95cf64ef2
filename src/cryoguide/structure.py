"""Atomic model container and fixed-width PDB I/O (heavy atoms only)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
        coords = np.asarray(coords, dtype=np.float64).reshape(len(self.atoms), 3)
        atoms = tuple(replace(a, pos=p) for a, p in zip(self.atoms, coords))
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
            atoms.append(Atom(
                element=element,
                pos=(x, y, z),
                chain_id=line[21],
                res_index=res_index,
                res_name=line[17:20].strip() or "UNK",
                atom_name=line[12:16].strip(),
            ))
    if not atoms:
        raise PdbFormatError(f"{path}: no usable ATOM records")
    return AtomicModel(tuple(atoms), provenance=str(path))


def write_pdb(model: AtomicModel, path) -> None:
    """Emit fixed-width ATOM records with TER per chain and END."""
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
