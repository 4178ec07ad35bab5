"""qmkit: quantum trajectories from phase-space actions, plus the
statistical prediction layer that motivates them.

Two halves share one package.  The wave side builds second-order
solutions on real grids, extracts a never-stationary phase action from
independent solution pairs, and audits the resulting trajectory and
curvature identities.  The statistics side treats unit vectors as pure
outcome-predictors and checks the algebra that forces squared moduli,
complex amplitudes, and unbiased-basis tomography.
"""

from . import saqm
from .errors import (
    ArgumentOutOfRange,
    DegeneratePair,
    DerivativeVanishes,
    DimensionMismatch,
    GridTooSmall,
    InvalidEffect,
    LevelsUnresolved,
    NegativeEigenvalue,
    NoEigenvalueInRange,
    NodeCountMismatch,
    NonMonotoneMap,
    NonMonotoneTime,
    NotSeriesParallel,
    Overflow,
    PoleOnGrid,
    QmkitError,
    UnsupportedDimension,
)
from .grids import RealGrid, SampledFunction, sample
from .qshje import (
    ReducedAction,
    ScanRow,
    Trajectory,
    bipolar_reconstruct,
    classical_limit_scan,
    floyd_trajectory,
    quantum_potential,
    qshje_residual,
    reduced_action_from_pair,
    suggest_trajectory_grid,
    write_residual_csv,
    write_trajectory_csv,
)
from .schrodinger1d import (
    EigenResult,
    Potential,
    SolutionPair,
    Wavefunction,
    find_eigenvalues,
    load_potential_table,
    numerov_integrate,
    pair_from_wavefunctions,
    shoot_mismatch,
    solution_pair,
    wronskian_profile,
)
from .schwarzian import (
    MoebiusMap,
    apply_moebius,
    cocycle_deviation,
    moebius_invariance_deviation,
    schwarzian,
    transform_W,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentOutOfRange",
    "DegeneratePair",
    "DerivativeVanishes",
    "DimensionMismatch",
    "EigenResult",
    "GridTooSmall",
    "InvalidEffect",
    "LevelsUnresolved",
    "MoebiusMap",
    "NegativeEigenvalue",
    "NoEigenvalueInRange",
    "NodeCountMismatch",
    "NonMonotoneMap",
    "NonMonotoneTime",
    "NotSeriesParallel",
    "Overflow",
    "PoleOnGrid",
    "Potential",
    "QmkitError",
    "RealGrid",
    "ReducedAction",
    "SampledFunction",
    "ScanRow",
    "SolutionPair",
    "Trajectory",
    "UnsupportedDimension",
    "Wavefunction",
    "apply_moebius",
    "bipolar_reconstruct",
    "classical_limit_scan",
    "cocycle_deviation",
    "find_eigenvalues",
    "floyd_trajectory",
    "load_potential_table",
    "moebius_invariance_deviation",
    "numerov_integrate",
    "pair_from_wavefunctions",
    "quantum_potential",
    "qshje_residual",
    "reduced_action_from_pair",
    "saqm",
    "sample",
    "schwarzian",
    "shoot_mismatch",
    "solution_pair",
    "suggest_trajectory_grid",
    "transform_W",
    "write_residual_csv",
    "write_trajectory_csv",
    "wronskian_profile",
]
