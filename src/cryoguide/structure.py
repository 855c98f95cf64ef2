"""Atomic model container and fixed-width PDB I/O (heavy atoms only)."""

from __future__ import annotations

import itertools
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
        """(N,) float64 atomic numbers, looked up once per distinct element."""
        elements, inverse = np.unique(self.elements, return_inverse=True)
        return np.array([ATOMIC_NUMBERS[e] for e in elements.tolist()],
                        dtype=np.float64)[inverse.ravel()]

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


def _convert(fields: np.ndarray, parse, dtype, rows: np.ndarray, what: str,
             distinct: bool = True) -> tuple[np.ndarray, dict]:
    """`parse(field)` for each field, as an array of `dtype`, so that Python's
    own float, int and str rules hold.  `parse` runs once per distinct field,
    or once per field if `distinct` is False (for fields that seldom repeat).

    Also returns, for each field it rejects, rows[i] (for field i) mapped to
    "bad <what>: <error>" or a PdbFormatError's own message; the rejected
    field's value is `dtype()`."""
    values, inverse = np.unique(fields, return_inverse=True) if distinct else (fields, None)
    try:
        parsed = np.array(list(map(parse, values.tolist())), dtype=dtype)
    except ValueError:                          # the error path: field by field
        parsed, failed = [], {}
        for row, field in zip(rows.tolist(), fields.tolist()):
            try:
                parsed.append(parse(field))
            except ValueError as exc:
                parsed.append(dtype())
                failed[row] = str(exc) if isinstance(exc, PdbFormatError) else f"bad {what}: {exc}"
        return np.array(parsed, dtype=dtype), failed
    return (parsed if inverse is None else parsed[inverse.ravel()]), {}


def _text(codes: np.ndarray) -> np.ndarray:
    """One string per row of an (n, w) array of UCS-4 codes (trailing NULs dropped)."""
    return np.ascontiguousarray(codes).view(f"<U{codes.shape[1]}")[:, 0]


def _occupancy(field: str) -> float:
    field = field.strip()
    return float(field) if field else 1.0            # blank: occupancy 1


def _element(key: str) -> str:
    """Element from a record's atom name field and element columns, joined:
    one of ATOMIC_NUMBERS, or D (deuterium), which the reader drops."""
    element = key[4:].strip().upper() or _infer_element(key[:4])
    if element not in ATOMIC_NUMBERS and element != "D":
        raise PdbFormatError(f"unrecognized element {element!r}")
    return element


def _residue_name(field: str) -> str:
    return field.strip() or "UNK"


_ALTLOCS = np.array([ord(" "), ord("A")], dtype=np.uint32)


def _atom_lines(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The first model's ATOM records, their line numbers, and whether each
    ends in a newline (every line but the last does)."""
    with open(path) as fh:                      # text mode: universal newlines
        text = fh.read()
    end = ("\n" + text).find("\nENDMDL")        # the first model ends
    lines = (text if end < 0 else text[:end]).split("\n")
    del text                                    # only the lines are used from here on
    is_atom = np.fromiter(map(str.startswith, lines, itertools.repeat("ATOM")), bool, len(lines))
    linenos = np.flatnonzero(is_atom) + 1
    return list(itertools.compress(lines, is_atom)), linenos, linenos < len(lines)


def _parse_block(lines: list[str], linenos: np.ndarray, newline: np.ndarray) -> tuple:
    """The line numbers and columns (elements, xyz, chain IDs, residue
    numbers, residue and atom names) of the records in `lines` that pass the
    filters, or PdbFormatError for the first record that fails a check.

    One pass: each check runs once over the records still live, in the order
    a record meets them, and a record leaves when a check rejects it or a
    filter drops it; the first rejected record then raises."""
    records = np.array(lines, dtype="<U78")     # no field lies past column 78
    codes = records.view(np.uint32).reshape(len(records), 78)
    length = np.char.str_len(records)
    live = length >= 54
    failures = dict.fromkeys(np.flatnonzero(~live).tolist(), "ATOM record too short")
    live &= np.isin(codes[:, 16], _ALTLOCS)
    xyz = np.zeros((len(records), 3))
    for j, lo in enumerate((30, 38, 46)):       # x, y, then z
        rows = np.flatnonzero(live)
        xyz[rows, j], failed = _convert(_text(codes[rows, lo:lo + 8]), float, np.float64,
                                        rows, "coordinate field", distinct=False)
        live[list(failed)] = False
        failures.update(failed)
    rows = np.flatnonzero(live)
    occupancy, failed = _convert(_text(codes[rows, 54:60]), _occupancy, np.float64,
                                 rows, "occupancy field")
    live[rows[occupancy <= 0]] = False          # a NaN occupancy is kept
    live[list(failed)] = False
    failures.update(failed)
    # atom name field, then the element columns when the record, newline
    # included, reaches column 78
    rows = np.flatnonzero(live)
    key = codes[:, [12, 13, 14, 15, 76, 77]][rows]
    key[length[rows] + newline[rows] < 78, 4:] = 0
    elements, failed = _convert(_text(key), _element, str, rows, "element")
    live[rows[(elements == "H") | (elements == "D")]] = False
    live[list(failed)] = False
    failures.update(failed)
    kept = np.flatnonzero(live)
    res_indices, failed = _convert(_text(codes[kept, 22:26]), int, np.int64, kept,
                                   "residue number")
    failures.update(failed)
    if failures:
        row = min(failures)
        raise PdbFormatError(f"line {linenos[row]}: {failures[row]}")
    return (linenos[kept], elements[live[rows]], xyz[kept], _text(codes[kept, 21:22]),
            res_indices,
            _convert(_text(codes[kept, 17:20]), _residue_name, str, kept, "residue name")[0],
            _convert(_text(codes[kept, 12:16]), str.strip, str, kept, "atom name")[0])


# records parsed at a time: one array for a whole 4,800-atom file (1.5 MB)
# fragmented the heap and raised map-score's peak RSS by about 2 MB, while
# blocks keep each array near 0.3 MB
_BLOCK = 1024


def read_pdb(path) -> AtomicModel:
    """Parse ATOM records: first model, altloc ' '/'A', occupancy > 0, no hydrogens.

    A record that fails a check raises PdbFormatError naming its line; when
    several fail, the first of them in the file does.  Each block of records
    is checked in one pass (see _parse_block).
    """
    lines, linenos, newline = _atom_lines(path)
    blocks = [_parse_block(lines[lo:lo + _BLOCK], linenos[lo:lo + _BLOCK],
                           newline[lo:lo + _BLOCK]) for lo in range(0, len(lines), _BLOCK)]
    if not any(len(block[0]) for block in blocks):
        raise PdbFormatError(f"{path}: no usable ATOM records")
    linenos, *columns = map(np.concatenate, zip(*blocks))
    model = AtomicModel._from_columns(*columns, str(path))
    row = _non_finite_row(model.coords())
    if row is not None:
        raise PdbFormatError(f"line {linenos[row]}: non-finite coordinate "
                             f"{model.coords()[row]}")
    return model


_ATOM_RECORD = "ATOM  %5d %-4s %3s %s%4d    %8.3f%8.3f%8.3f  1.00  0.00          %2s"
_TER_RECORD = "TER   %5d      %3s %s%4d"


def _field_width_error(chain_ids: np.ndarray, res_indices: np.ndarray,
                       res_names: np.ndarray, atom_names: np.ndarray) -> str | None:
    """The field of the first atom whose value does not fit its fixed-width
    PDB column (the first such field in the order below), or None."""
    checks = (
        (~((-999 <= res_indices) & (res_indices <= 9999)), res_indices,
         "residue number {!r} (an integer from -999 to 9999)"),
        (np.char.str_len(atom_names) > 4, atom_names, "atom name {!r} (at most 4 characters)"),
        (np.char.str_len(res_names) > 3, res_names, "residue name {!r} (at most 3 characters)"),
        (np.char.str_len(chain_ids) != 1, chain_ids, "chain ID {!r} (exactly 1 character)"),
    )
    bad = np.logical_or.reduce([fails for fails, _, _ in checks])
    if not bad.any():
        return None
    atom = int(np.argmax(bad))
    return next(text.format(column[atom].item()) for fails, column, text in checks
                if fails[atom])


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
    elements, xyz, chain_ids, res_indices, res_names, atom_names = model._columns()
    problem = _field_width_error(chain_ids, res_indices, res_names, atom_names)
    if problem:
        raise ValueError(f"write_pdb: {problem} does not fit its fixed-width PDB column")
    # a TER record ends each chain; the atom after it starts the next chain
    starts = np.flatnonzero(chain_ids[1:] != chain_ids[:-1]) + 1
    n_records = len(model) + len(starts)       # the last TER's serial is one more
    if n_records >= 99999:
        raise ValueError(f"write_pdb: {n_records + 1} records overflow the 5-digit PDB "
                         "serial number (at most 99999, TER records included)")
    serials = np.arange(1, len(model) + 1) + np.searchsorted(starts, np.arange(len(model)),
                                                             side="right")
    pad = (np.char.str_len(atom_names) < 4) & (np.char.str_len(elements) == 1)
    names = np.where(pad, np.char.add(" ", atom_names), atom_names)
    columns = (serials, names, res_names, chain_ids, res_indices, *xyz.T, elements)
    with open(path, "w") as fh:     # chain by chain: its ATOM records, then its TER
        for lo, hi in zip([0, *starts.tolist()], [*starts.tolist(), len(model)]):
            fields = np.empty((hi - lo, len(columns)), dtype=object)   # a row per record
            for j, column in enumerate(columns):
                fields[:, j] = column[lo:hi]            # as Python ints, strs and floats
            serial, _, res_name, chain_id, res_index = fields[-1, :5].tolist()
            fh.write("\n".join([_ATOM_RECORD] * (hi - lo) + [_TER_RECORD, ""])
                     % (*fields.ravel().tolist(), serial + 1, res_name, chain_id, res_index))
        fh.write("END\n")


def ca_subset(model: AtomicModel) -> AtomicModel:
    """Atoms named CA, original order preserved."""
    return model._take(model.atom_names == "CA")


def residue_range_subset(model: AtomicModel, chain: str, lo: int, hi: int) -> AtomicModel:
    """Atoms on `chain` with lo <= res_index <= hi."""
    if lo > hi:
        raise ValueError(f"residue range lo {lo} > hi {hi}")
    res = model.res_indices
    return model._take((model.chain_ids == chain) & (lo <= res) & (res <= hi))
