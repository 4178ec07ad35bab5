"""Semantic exception hierarchy shared by every qmkit module."""

from __future__ import annotations

__all__ = [
    "ArgumentOutOfRange",
    "DegeneratePair",
    "DerivativeVanishes",
    "DimensionMismatch",
    "GridTooSmall",
    "InvalidEffect",
    "LevelsUnresolved",
    "NegativeEigenvalue",
    "NoEigenvalueInRange",
    "NodeCountMismatch",
    "NonMonotoneMap",
    "NonMonotoneTime",
    "NotSeriesParallel",
    "Overflow",
    "PoleOnGrid",
    "QmkitError",
    "UnsupportedDimension",
]


class QmkitError(Exception):
    """Base class for all qmkit errors."""


class GridTooSmall(QmkitError):
    """Grid has too few points for the requested stencil or operation."""


class DerivativeVanishes(QmkitError):
    """A first derivative fell below the resolvable floor on the grid."""


class PoleOnGrid(QmkitError):
    """A fractional-linear map has a pole at (or numerically on) a grid point."""


class NonMonotoneMap(QmkitError):
    """A coordinate change is not strictly monotone on the grid."""


class Overflow(QmkitError):
    """Exponential growth exceeded the representable range.

    The caller must renormalize or shrink the integration domain.
    """


class NoEigenvalueInRange(QmkitError):
    """No discrete level was found inside the requested energy window."""


class LevelsUnresolved(QmkitError):
    """Levels lie closer than float resolution, or a level search hit its cap."""


class NodeCountMismatch(QmkitError):
    """An eigenfunction's node count differs from its level index.

    Usually the grid under-resolves the level and a finer grid is needed.
    """


class DegeneratePair(QmkitError):
    """Two wavefunctions are linearly dependent (vanishing Wronskian)."""


class NonMonotoneTime(QmkitError):
    """A trajectory's time parameter failed to be strictly monotone."""


class DimensionMismatch(QmkitError):
    """Operands live in spaces of incompatible dimension."""


class UnsupportedDimension(QmkitError):
    """The requested construction is unavailable in this dimension."""


class NegativeEigenvalue(QmkitError):
    """A reconstructed density matrix has a negative eigenvalue."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NotSeriesParallel(QmkitError):
    """A transition network cannot be reduced by series/parallel moves."""


class InvalidEffect(QmkitError):
    """An operator is not a valid measurement effect."""


class ArgumentOutOfRange(QmkitError):
    """A numeric argument left its mathematically allowed range."""
