"""Analytic score-model priors and the demo system builders.

The priors here play the role of a pretrained structure generator: Gaussian
mixtures over bead-chain conformations whose noised scores are exact, so
sampling behavior can be checked against closed-form oracles.
"""

from __future__ import annotations

import numpy as np

from .alignment import rotation_about
from .sampler import GaussianMixturePrior
from .structure import Atom, AtomicModel


def hinged_chain_modes(hinge_deg: float = 72.0, n_beads: int = 30,
                       bond: float = 3.8) -> tuple[np.ndarray, np.ndarray]:
    """Two conformations of a three-segment bead chain.

    Conformation A walks three straight segments with distinct directions
    (no screw symmetry, so rigid docking has a unique answer); conformation B
    rotates the final half about a hinge through the middle bead.  Both are
    returned centered on A's mean.
    """
    d1 = np.array([1.0, 0.0, 0.0])
    d2 = np.array([0.25, 1.0, 0.15])
    d2 = d2 / np.linalg.norm(d2)
    d3 = np.array([-0.2, 0.3, 1.0])
    d3 = d3 / np.linalg.norm(d3)
    pts = [np.zeros(3)]
    for i in range(1, n_beads):
        third = n_beads // 3
        d = d1 if i <= third else (d2 if i <= 2 * third else d3)
        pts.append(pts[-1] + bond * d)
    a = np.array(pts)
    hinge = n_beads // 2
    b = a.copy()
    R = rotation_about(np.array([0.1, 0.9, -0.4]), hinge_deg)
    b[hinge:] = (a[hinge:] - a[hinge - 1]) @ R.T + a[hinge - 1]
    center = a.mean(axis=0)
    return a - center, b - center


def chain_template(coords: np.ndarray, chain_id: str = "A") -> AtomicModel:
    """Carbon-alpha-only poly-glycine model over the given coordinates."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    atoms = [Atom(element="C", pos=p, chain_id=chain_id, res_index=i + 1,
                  res_name="GLY", atom_name="CA")
             for i, p in enumerate(coords)]
    return AtomicModel(tuple(atoms), provenance="chain-template")


def two_mode_chain_prior(hinge_deg: float = 72.0, tau: float = 1.0,
                         minor_weight: float = 0.05, n_beads: int = 30
                         ) -> tuple[GaussianMixturePrior, AtomicModel]:
    """Bimodal chain prior: majority mode A, minority hinged mode B.

    The default hinge keeps the modes more than 8 A apart (all-atom RMSD
    after superposition), far enough that mode assignment is unambiguous.
    """
    a, b = hinged_chain_modes(hinge_deg=hinge_deg, n_beads=n_beads)
    prior = GaussianMixturePrior([(a, tau, 1.0 - minor_weight),
                                  (b, tau, minor_weight)])
    return prior, chain_template(a)


def single_mode_chain_prior(tau: float = 1.0, n_beads: int = 30
                            ) -> tuple[GaussianMixturePrior, AtomicModel]:
    """Unimodal chain prior (conformation A only)."""
    a, _ = hinged_chain_modes(n_beads=n_beads)
    prior = GaussianMixturePrior([(a, tau, 1.0)])
    return prior, chain_template(a)

