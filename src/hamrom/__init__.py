"""Structure-preserving POD reduced-order models for Hamiltonian PDEs.

Pipeline: build a semi-discrete Hamiltonian benchmark (1D wave or KdV) as a
polynomial-gradient flow, integrate it with the energy-conserving
average-vector-field scheme, extract a POD basis from snapshots (optionally
gradient-augmented or shifted), project onto it - either plainly (G-ROM) or
with the structure-preserving reduced operator (SP-ROM variants) - and compare
errors and energy behavior against the full-order benchmark.
"""

from .avf import AvfScheme, AvfStepper, StepFailure, Trajectory, integrate
from .experiments import (
    ExperimentConfig,
    RomSpec,
    build_system,
    default_mu_grid,
    fom_trajectory,
    mu_sweep,
    run_experiment,
    table_preset,
    tail_bound_check,
)
from .fileio import read_config, read_matrix, write_matrix
from .linalg import (
    LuFactorization,
    NumericalError,
    RankError,
    SingularMatrixError,
    thin_svd_snapshots,
)
from .metrics import (
    EnergyReport,
    RomReport,
    e_inf_scalar,
    e_inf_wave,
    energy_report,
    squared_errors,
)
from .pod import (
    PodBasis,
    SnapshotFrame,
    SnapshotSet,
    collect_snapshots,
    collect_wave_snapshots,
    compute_basis,
    enrich_with_ic_residual,
    projection_error,
    sigma_tail,
    snapshot_frames,
)
from .rom import ReducedModel, RomVariant, encode, reduce_operators, run_rom
from .systems import (
    DiagonalQuadratic,
    EnergyPolynomial,
    Grid1D,
    PeriodicStencil,
    PolyGradFlow,
    ProjectedQuadratic,
    TensorQuadratic,
    build_kdv_fom,
    build_wave_fom,
    central_diff_matrix,
    eval_energy,
    eval_grad,
    kdv_initial,
    laplacian_matrix,
    wave_initial,
)

__all__ = [
    "AvfScheme",
    "AvfStepper",
    "DiagonalQuadratic",
    "EnergyPolynomial",
    "EnergyReport",
    "ExperimentConfig",
    "Grid1D",
    "LuFactorization",
    "NumericalError",
    "PeriodicStencil",
    "PodBasis",
    "PolyGradFlow",
    "ProjectedQuadratic",
    "RankError",
    "ReducedModel",
    "RomReport",
    "RomSpec",
    "RomVariant",
    "SingularMatrixError",
    "SnapshotFrame",
    "SnapshotSet",
    "StepFailure",
    "TensorQuadratic",
    "Trajectory",
    "build_kdv_fom",
    "build_system",
    "build_wave_fom",
    "central_diff_matrix",
    "collect_snapshots",
    "collect_wave_snapshots",
    "compute_basis",
    "default_mu_grid",
    "e_inf_scalar",
    "e_inf_wave",
    "encode",
    "energy_report",
    "enrich_with_ic_residual",
    "eval_energy",
    "eval_grad",
    "fom_trajectory",
    "integrate",
    "kdv_initial",
    "laplacian_matrix",
    "mu_sweep",
    "projection_error",
    "read_config",
    "read_matrix",
    "reduce_operators",
    "run_experiment",
    "run_rom",
    "sigma_tail",
    "snapshot_frames",
    "squared_errors",
    "table_preset",
    "tail_bound_check",
    "thin_svd_snapshots",
    "wave_initial",
    "write_matrix",
]

__version__ = "0.1.0"
