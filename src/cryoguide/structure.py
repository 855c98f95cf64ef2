"""Atomic model container and fixed-width PDB I/O (heavy atoms only)."""

from __future__ import annotations

import numbers
from dataclasses import FrozenInstanceError, dataclass, fields

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


def _non_finite_row(coords: np.ndarray) -> int | None:
    """Index of the first row of an (N, 3) array holding a NaN or inf, if any."""
    finite = np.isfinite(coords).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


class AtomicModel:
    """Atoms as read-only columns, one per Atom field: `elements`, (N, 3) float64
    coordinates (`coords()`), `chain_ids`, `res_indices`, `res_names` and
    `atom_names`.  `atoms` builds Atom records on demand; nothing can be rebound."""

    # the columns in Atom's field order, then the provenance
    __slots__ = ("elements", "_xyz", "chain_ids", "res_indices", "res_names",
                 "atom_names", "provenance")

    def __new__(cls, atoms, provenance: str = ""):
        atoms = tuple(atoms)
        for a in atoms:
            if not isinstance(a.res_index, numbers.Integral):
                raise ValueError(f"residue number {a.res_index!r} is not an integer")
        columns = [[getattr(a, f.name) for a in atoms] for f in fields(Atom)]
        columns[1] = np.reshape(columns[1], (-1, 3))
        return cls._from_columns(*columns, provenance)

    @classmethod
    def _from_columns(cls, *columns) -> AtomicModel:
        """Every model is made here, from checked columns (upper-case elements
        of ATOMIC_NUMBERS, finite coordinates) and the provenance in
        `__slots__` order.  A column already of its dtype is shared."""
        model = object.__new__(cls)
        for name, column, dtype in zip(cls.__slots__, columns,
                                       (str, np.float64, str, np.int64, str, str)):
            column = np.asarray(column, dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(model, name, column)
        object.__setattr__(model, "provenance", columns[-1])
        return model

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def _take(self, index) -> AtomicModel:
        return self._from_columns(*(c[index] for c in self._columns()), self.provenance)

    def __reduce__(self):
        return self._from_columns, (*self._columns(), self.provenance)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms as Atom records, built on each read."""
        return tuple(map(Atom, *(c.tolist() for c in self._columns())))

    def coords(self) -> np.ndarray:
        """(N, 3) coordinate array in atom order (read-only)."""
        return self._xyz

    def atomic_numbers(self) -> np.ndarray:
        return np.array([ATOMIC_NUMBERS[e] for e in self.elements.tolist()], dtype=np.float64)

    def with_coords(self, coords: np.ndarray, provenance: str | None = None) -> AtomicModel:
        """Copy of the model with coordinates replaced, sharing its metadata."""
        xyz = np.array(coords, dtype=np.float64).reshape(len(self), 3)
        row = _non_finite_row(xyz)
        if row is not None:
            raise ValueError(f"non-finite atom position {xyz[row]} (atom {row})")
        elements, _, *metadata = self._columns()
        return self._from_columns(elements, xyz, *metadata,
                                  self.provenance if provenance is None else provenance)


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
    rows, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("ENDMDL"):       # the first model ends
                break
            if not line.startswith("ATOM"):
                continue
            if len(line.rstrip("\n")) < 54:
                raise PdbFormatError(f"line {lineno}: ATOM record too short")
            if line[16] not in (" ", "A"):      # altloc
                continue
            try:
                xyz = float(line[30:38]), float(line[38:46]), float(line[46:54])
            except ValueError as exc:
                raise PdbFormatError(f"line {lineno}: bad coordinate field: {exc}") from exc
            occ_field = line[54:60].strip()     # blank: occupancy 1
            if occ_field and float(occ_field) <= 0:
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
            rows.append((element, xyz, line[21], res_index,
                         line[17:20].strip() or "UNK", line[12:16].strip()))
            linenos.append(lineno)
    if not rows:
        raise PdbFormatError(f"{path}: no usable ATOM records")
    model = AtomicModel._from_columns(*zip(*rows), str(path))
    row = _non_finite_row(model.coords())
    if row is not None:
        raise PdbFormatError(f"line {linenos[row]}: non-finite coordinate "
                             f"{model.coords()[row]}")
    return model


_ATOM_RECORD = "ATOM  %5d %-4s %3s %s%4d    %8.3f%8.3f%8.3f  1.00  0.00          %2s"
_TER_RECORD = "TER   %5d      %3s %s%4d"


def _field_width_error(chain_id: str, res_index: int, res_name: str,
                       atom_name: str) -> str | None:
    """Which field of an atom does not fit its fixed-width PDB column, if any."""
    if not -999 <= res_index <= 9999:
        return f"residue number {res_index!r} (an integer from -999 to 9999)"
    if len(atom_name) > 4:
        return f"atom name {atom_name!r} (at most 4 characters)"
    if len(res_name) > 3:
        return f"residue name {res_name!r} (at most 3 characters)"
    if len(chain_id) != 1:
        return f"chain ID {chain_id!r} (exactly 1 character)"
    return None


def write_pdb(model: AtomicModel, path) -> None:
    """Emit fixed-width ATOM records with TER per chain and END.

    A value that does not fit its column (coordinate, residue number, serial,
    atom, residue or chain name) raises ValueError before anything is written.
    """
    if not len(model):
        raise ValueError("write_pdb: empty model")
    for c in (model.coords().min(), model.coords().max()):   # the widest 8.3f fields
        if len(f"{c:8.3f}") > 8:
            raise ValueError(
                f"write_pdb: coordinate {c:.3f} A overflows the fixed-width "
                "PDB format (range -999.999 to 9999.999)")
    lines = []      # the records so far; the next one's serial is len(lines) + 1
    ter = None      # (residue name, chain, residue number) of the previous atom
    for element, (x, y, z), chain_id, res_index, res_name, atom_name in zip(
            *(c.tolist() for c in model._columns())):
        problem = _field_width_error(chain_id, res_index, res_name, atom_name)
        if problem:
            raise ValueError(f"write_pdb: {problem} does not fit its fixed-width PDB column")
        if ter and chain_id != ter[1]:
            lines.append(_TER_RECORD % (len(lines) + 1, *ter))
        if len(atom_name) < 4 and len(element) == 1:
            atom_name = " " + atom_name
        lines.append(_ATOM_RECORD % (len(lines) + 1, atom_name, res_name, chain_id,
                                     res_index, x, y, z, element))
        ter = (res_name, chain_id, res_index)
    if len(lines) >= 99999:
        raise ValueError(f"write_pdb: {len(lines) + 1} records overflow the 5-digit PDB "
                         "serial number (at most 99999, TER records included)")
    lines.append(_TER_RECORD % (len(lines) + 1, *ter))
    lines.append("END")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ca_subset(model: AtomicModel) -> AtomicModel:
    """Atoms named CA, original order preserved."""
    return model._take(model.atom_names == "CA")


def residue_range_subset(model: AtomicModel, chain: str, lo: int, hi: int) -> AtomicModel:
    """Atoms on `chain` with lo <= res_index <= hi."""
    if lo > hi:
        raise ValueError(f"residue range lo {lo} > hi {hi}")
    res = model.res_indices
    return model._take((model.chain_ids == chain) & (lo <= res) & (res <= hi))
