"""cryoguide: density-guided diffusion sampling against analytic score models.

Simulates cryo-EM-style density from atomic models, extracts compact point
clouds, and steers a variance-exploding diffusion sampler toward a target
map with staged global (optimal-transport) and local (voxel-residual)
guidance.  Includes MRC/PDB I/O, rigid docking, and evaluation metrics.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND as KERNEL_BACKEND
from .alignment import RigidTransform, dock_to_map, kabsch
from .forward import (BlurOperator, atom_sigma, density_loss, density_loss_grad,
                      grid_for_model, simulate_map)
from .metrics import EvalReport, evaluate, rank_samples, rscc
from .pointcloud import PointCloud, cluster_count, extract_pointcloud
from .sampler import (GaussianMixturePrior, GuidanceContext, GuidanceSchedule,
                      NoiseSchedule, SamplingError, ScoreModel, lambda_global,
                      make_schedule, sample_guided, sample_unguided,
                      tweedie_estimate)
from .structure import Atom, AtomicModel, PdbFormatError, read_pdb, write_pdb
from .transport import (SinkhornConfig, TransportPlan, divergence_grad,
                        ot_epsilon, sinkhorn_divergence)
from .volume import (DensityMap, MapFormatError, crop_pad, dust,
                     mask_near_model, read_mrc, threshold, write_mrc)

__all__ = [
    "KERNEL_BACKEND", "RigidTransform", "dock_to_map", "kabsch",
    "BlurOperator", "atom_sigma", "density_loss",
    "density_loss_grad", "grid_for_model", "simulate_map",
    "EvalReport", "evaluate", "rank_samples", "rscc",
    "PointCloud", "cluster_count", "extract_pointcloud",
    "GaussianMixturePrior", "GuidanceContext", "GuidanceSchedule",
    "NoiseSchedule", "SamplingError", "ScoreModel", "lambda_global",
    "make_schedule", "sample_guided", "sample_unguided", "tweedie_estimate",
    "Atom", "AtomicModel", "PdbFormatError", "read_pdb", "write_pdb",
    "SinkhornConfig", "TransportPlan", "divergence_grad", "ot_epsilon",
    "sinkhorn_divergence",
    "DensityMap", "MapFormatError", "crop_pad", "dust", "mask_near_model",
    "read_mrc", "threshold", "write_mrc",
]
