"""Statistical prediction layer: predictors, amplitude rules, tomography,
and exact counting identities.  Each submodule's ``__all__`` is the one
list of what it exports; this package re-exports all four."""

from . import amplitudes, counting, predictors, tomography
from .amplitudes import *  # noqa: F403
from .counting import *  # noqa: F403
from .predictors import *  # noqa: F403
from .tomography import *  # noqa: F403

__all__ = sorted([*amplitudes.__all__, *counting.__all__, *predictors.__all__,
                  *tomography.__all__])
