"""qmkit: quantum trajectories from phase-space actions, plus the
statistical prediction layer that motivates them.

Two halves share one package.  The wave side builds second-order
solutions on real grids, extracts a never-stationary phase action from
independent solution pairs, and audits the resulting trajectory and
curvature identities.  The statistics side treats unit vectors as pure
outcome-predictors and checks the algebra that forces squared moduli,
complex amplitudes, and unbiased-basis tomography.
"""

import importlib

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

# Eager: the function qmkit.schwarzian shares its name with its submodule,
# and only an import of the submodule that runs before this rebinding
# leaves the function in place.
from .schwarzian import (
    MoebiusMap,
    apply_moebius,
    cocycle_deviation,
    moebius_invariance_deviation,
    schwarzian,
    transform_W,
)

#: Names resolved on first use (PEP 562), so ``import qmkit`` loads no
#: solver layer.  They are looked up on every access, not stored here: a
#: name rebound in its own module is seen through the package as well.
_LAZY = {
    **dict.fromkeys(("ReducedAction", "ScanRow", "Trajectory", "bipolar_reconstruct",
                     "classical_limit_scan", "floyd_trajectory", "quantum_potential",
                     "qshje_residual", "reduced_action_from_pair", "suggest_trajectory_grid",
                     "write_residual_csv", "write_trajectory_csv"), ".qshje"),
    **dict.fromkeys(("EigenResult", "Potential", "SolutionPair", "Wavefunction",
                     "find_eigenvalues", "load_potential_table", "pair_from_wavefunctions",
                     "shoot_mismatch", "solution_pair"), ".schrodinger1d"),
}


def __getattr__(name):
    if name == "saqm":
        return importlib.import_module(".saqm", __name__)
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
]
