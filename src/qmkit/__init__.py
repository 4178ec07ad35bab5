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

from . import errors, grids, schwarzian as _schwarzian
from .errors import *  # noqa: F403
from .grids import *  # noqa: F403

# Eager: the function qmkit.schwarzian shares its name with its submodule,
# and only an import of the submodule that runs before this rebinding
# leaves the function in place.
from .schwarzian import *  # noqa: F403

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

__all__ = sorted([*errors.__all__, *grids.__all__, *_schwarzian.__all__, *_LAZY, "saqm"])
