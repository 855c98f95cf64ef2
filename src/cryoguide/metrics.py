"""Structure and map-model evaluation: RMSD, TM-score, RSCC, sample ranking."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .alignment import kabsch
from .forward import simulate_map
from .structure import AtomicModel
from .volume import DensityMap

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalReport:
    rmsd_all: float
    rmsd_ca: float
    tm_score: float
    rmsd_local: float | None = None
    rscc: float | None = None
    n_paired: int = 0
    n_unpaired: int = 0


def tm_d0(n_residues: int) -> float:
    """Distance scale of the template-modeling score, floored at 0.5 A."""
    if n_residues <= 15:   # cube-root argument would be <= 0; floor applies
        return 0.5
    return max(0.5, 1.24 * (n_residues - 15) ** (1.0 / 3.0) - 1.8)


def _pair_atoms(sample: AtomicModel, reference: AtomicModel) -> tuple[np.ndarray, np.ndarray]:
    """(sample, reference) indices of the atoms with the same (chain, residue
    number, atom name) key, in sample order; a key repeated on either side
    pairs its first atom only."""
    n = len(sample)
    keys = [np.concatenate([getattr(sample, name), getattr(reference, name)])
            for name in ("atom_names", "res_indices", "chain_ids")]
    # a stable sort by key puts each key's atoms in index order: the
    # sample's (indices below n) first, then the reference's
    order = np.lexsort(keys)
    differs = np.zeros(max(len(order) - 1, 0), dtype=bool)
    for key in keys:
        ranked = key[order]
        differs |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(np.concatenate(([True], differs)))[:len(order)]
    n_sample = np.add.reduceat((order < n).astype(np.intp), starts)
    paired = (n_sample > 0) & (n_sample < np.diff(starts, append=len(order)))
    si = order[starts[paired]]
    ri = order[starts[paired] + n_sample[paired]] - n
    in_sample_order = np.argsort(si)
    return si[in_sample_order], ri[in_sample_order]


def _rmsd(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


def evaluate(sample: AtomicModel, reference: AtomicModel,
             dmap: DensityMap | None = None,
             local_range: tuple[str, int, int] | None = None,
             resolution: float | None = None) -> EvalReport:
    """Superpose `sample` onto `reference` (Kabsch on paired alpha-carbons)
    and report RMSDs, TM-score, and optionally local RMSD and RSCC.

    RSCC is computed against the unsuperposed sample coordinates: a map-guided
    sample is already in the map frame, so realigning it to the reference
    would break its registration.
    """
    si, ri = _pair_atoms(sample, reference)
    n_paired = len(si)
    if not n_paired:
        raise ValueError("no atoms could be paired between sample and reference")
    sam = sample.coords()[si]
    ref = reference.coords()[ri]
    ca_mask = sample.atom_names[si] == "CA"
    if int(ca_mask.sum()) < 3:
        raise ValueError(f"need >= 3 paired alpha-carbons, got {int(ca_mask.sum())}")

    transform, rmsd_ca = kabsch(sam[ca_mask], ref[ca_mask])
    moved = transform.apply(sam)
    rmsd_all = _rmsd(moved, ref)

    n_res = int(np.count_nonzero(reference.atom_names == "CA"))
    d0 = tm_d0(n_res)
    d = np.sqrt(np.sum((moved[ca_mask] - ref[ca_mask]) ** 2, axis=1))
    tm = float(np.sum(1.0 / (1.0 + (d / d0) ** 2)) / n_res)

    rmsd_local = None
    if local_range is not None:
        chain, lo, hi = local_range
        res_index = reference.res_indices[ri]
        in_range = (reference.chain_ids[ri] == chain) & (lo <= res_index) & (res_index <= hi)
        if not in_range.any():
            raise ValueError(f"no paired atoms in range {local_range}")
        rmsd_local = _rmsd(moved[in_range], ref[in_range])

    rscc_val = None
    if dmap is not None:
        res = resolution if resolution is not None else dmap.resolution
        if res is None:
            raise ValueError("map correlation needs a resolution "
                             "(argument or map metadata)")
        rscc_val = rscc(sample, dmap, res)

    return EvalReport(rmsd_all=rmsd_all, rmsd_ca=rmsd_ca, tm_score=tm,
                      rmsd_local=rmsd_local, rscc=rscc_val,
                      n_paired=n_paired,
                      n_unpaired=len(sample) + len(reference) - 2 * n_paired)


def rscc(model: AtomicModel, dmap: DensityMap, resolution: float) -> float:
    """Pearson correlation between the map and the model's simulated density."""
    sim = simulate_map(model, dmap, resolution).data.ravel()
    obs = dmap.data.ravel()
    sim = sim - sim.mean()
    obs = obs - obs.mean()
    den = np.sqrt((sim @ sim) * (obs @ obs))
    if den == 0:
        raise ValueError("zero variance in map or simulated density")
    return float((sim @ obs) / den)


def rank_samples(samples: list[AtomicModel], dmap: DensityMap,
                 resolution: float) -> list[int]:
    """Indices sorted by descending RSCC; ties keep submission order.

    Samples whose correlation fails to evaluate are skipped with a warning.
    """
    if not samples:
        raise ValueError("rank_samples needs at least one sample")
    scored = []
    for i, s in enumerate(samples):
        try:
            scored.append((i, rscc(s, dmap, resolution)))
        except ValueError as exc:
            log.warning("sample %d skipped during ranking: %s", i, exc)
    scored.sort(key=lambda t: (-t[1], t[0]))
    return [i for i, _ in scored]
