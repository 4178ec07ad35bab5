"""Uniform real grids and sampled functions.

Everything downstream (Schwarzian calculus, wave equation integration,
trajectory reconstruction) works on uniformly spaced samples.  A sampled
function may optionally carry caller-supplied first/second/third derivative
arrays; when they are absent, derivatives are produced by centered finite
differences and the usable domain shrinks by two points at each edge.
Sampled columns leave the package as CSV through one writer, each value
to 17 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import GridTooSmall

__all__ = ["RealGrid", "SampledFunction", "sample"]

#: Minimum number of points that keeps every stencil well defined.
MIN_POINTS = 9

#: Relative floor below which a first derivative counts as vanishing.
DERIVATIVE_FLOOR = 1e-12


@dataclass(frozen=True)
class RealGrid:
    """Uniform one-dimensional coordinate grid on [q_min, q_max]."""

    q_min: float
    q_max: float
    n_points: int

    def __post_init__(self):
        if not np.isfinite(self.q_min) or not np.isfinite(self.q_max):
            raise ValueError("grid bounds must be finite")
        if not self.q_min < self.q_max:
            raise ValueError(f"q_min must be < q_max, got [{self.q_min}, {self.q_max}]")
        if not math.isfinite(self.n_points) or int(self.n_points) != self.n_points:
            raise ValueError("n_points must be an integer")
        # Stored as the int it equals, so that points() can slice with it.
        object.__setattr__(self, "n_points", int(self.n_points))
        if self.n_points < MIN_POINTS:
            raise GridTooSmall(
                f"grid needs at least {MIN_POINTS} points, got {self.n_points}"
            )
        # The Numerov coefficients square the spacing, and a potential such as
        # q^2 sampled on a grid through 0 squares up to the span: both must stay
        # finite.
        span = self.q_max - self.q_min
        if not math.isfinite(span * span):
            raise ValueError(f"grid span q_max - q_min = {span:.3g} squared leaves the "
                             "float range")

    @property
    def spacing(self) -> float:
        return (self.q_max - self.q_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        """The n points, each half counted from its own end: q_min + i h (as
        np.linspace builds them) up to the centre, q_max - (n - 1 - i) h past
        it, and (q_min + q_max)/2 at the centre of an odd count.  Both ends
        are exact, every point lies within a few ulps of max(|q_min|,
        |q_max|) of np.linspace's, and a grid symmetric about 0 is exactly
        odd, so an even potential samples exactly mirror-symmetric."""
        n, half = self.n_points, self.n_points // 2
        steps = self.spacing * np.arange(n - half)
        q = np.concatenate([self.q_min + steps, self.q_max - steps[half - 1::-1]])
        if n % 2:
            q[half] = 0.5 * self.q_min + 0.5 * self.q_max
        return q

    def interior(self, trim: int) -> "RealGrid":
        """Grid with `trim` points removed from each edge (same spacing)."""
        if trim == 0:
            return self
        h = self.spacing
        return RealGrid(
            self.q_min + trim * h, self.q_max - trim * h, self.n_points - 2 * trim
        )


@dataclass(frozen=True)
class SampledFunction:
    """Real- or complex-valued samples over a RealGrid.

    `derivatives`, when given, is a tuple of three arrays holding exact
    first, second and third derivatives at every grid point.  Operations
    that need derivatives prefer these and fall back to finite differences
    otherwise.
    """

    grid: RealGrid
    values: np.ndarray
    derivatives: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) != self.grid.n_points:
            raise ValueError("values must be a 1-d array matching the grid")
        if self.derivatives is not None:
            if len(self.derivatives) != 3:
                raise ValueError("derivatives must supply all three orders")
            ds = tuple(np.asarray(d) for d in self.derivatives)
            for d in ds:
                if d.shape != values.shape:
                    raise ValueError("derivative arrays must match the sample shape")
            object.__setattr__(self, "derivatives", ds)


def sample(
    grid: RealGrid,
    func: Callable[[np.ndarray], np.ndarray],
    derivatives: tuple[Callable, Callable, Callable] | None = None,
) -> SampledFunction:
    """Sample a callable (and optionally its derivatives) on a grid."""
    q = grid.points()
    ds = None
    if derivatives is not None:
        d1, d2, d3 = derivatives
        ds = (np.asarray(d1(q)), np.asarray(d2(q)), np.asarray(d3(q)))
    return SampledFunction(grid, np.asarray(func(q)), ds)


def fd1(values: np.ndarray, spacing: float) -> np.ndarray:
    """Centered first derivative; length n-2, aligned to points 1..n-2."""
    return (values[2:] - values[:-2]) / (2.0 * spacing)


def fd2(values: np.ndarray, spacing: float) -> np.ndarray:
    """Centered second derivative; length n-2, aligned to points 1..n-2."""
    return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (spacing * spacing)


def fd3(values: np.ndarray, spacing: float) -> np.ndarray:
    """Centered third derivative; length n-4, aligned to points 2..n-3.

    Raises ValueError where 2 h^3 leaves the float range (h above about
    5.6e102): dividing by inf would read 0 and silently drop the term."""
    cube = 2.0 * spacing * spacing * spacing
    if not math.isfinite(cube):
        raise ValueError(f"grid spacing {spacing:.3g} cubed leaves the float range; "
                         "the third difference is not representable")
    return (values[4:] - 2.0 * values[3:-1] + 2.0 * values[1:-3] - values[:-4]) / cube


def derivative_table(
    f: SampledFunction,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """First three derivatives of ``f`` on a common interior.

    Returns ``(d1, d2, d3, trim)`` where the arrays are aligned to grid
    points ``trim .. n-1-trim``.  Exact caller-supplied derivatives come
    back untrimmed; finite differences lose two points at each edge.
    """
    if f.derivatives is not None:
        d1, d2, d3 = f.derivatives
        return d1, d2, d3, 0
    h = f.grid.spacing
    v = f.values
    # Align the three-point stencils to the five-point third derivative.
    return fd1(v, h)[1:-1], fd2(v, h)[1:-1], fd3(v, h), 2


#: Rows per write: one write per row reaches a pipe reader in thousands of
#: small pieces (about 5 MB more peak RSS in a reader of a 36001-row
#: trajectory), while the whole text at once costs the writer's memory.
_CSV_BLOCK_ROWS = 4096


def _write_csv(target, header: str, columns) -> None:
    """Write a header and one row per sample, each value as %.17g, to a
    path or an open text stream."""
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    owned = isinstance(target, (str, Path))
    handle = open(target, "w", newline="") if owned else target
    try:
        handle.write(header + "\n")
        table = np.column_stack(columns)
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            # One format per block, of Python floats: numpy scalars format
            # slower, to the same text.
            block = table[start:start + _CSV_BLOCK_ROWS]
            handle.write((row_format * len(block)) % tuple(block.ravel().tolist()))
    finally:
        if owned:
            handle.close()
