"""Schwarzian calculus on sampled functions.

The Schwarzian derivative of a three-times differentiable function f is

    {f, x} = f'''/f' - (3/2) (f''/f')^2.

It is the basic invariant of fractional-linear (Moebius) substitutions:
composing f with any nondegenerate map x -> (A x + B)/(C x + D) leaves
{f, x} unchanged, and the maps themselves have vanishing Schwarzian.  The
helpers here quantify those statements on a grid, evaluate the cocycle
identity obeyed by coordinate changes, and apply the induced inhomogeneous
transformation law for quadratic differentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DerivativeVanishes, NonMonotoneMap, PoleOnGrid
from .grids import DERIVATIVE_FLOOR, RealGrid, SampledFunction, derivative_table

__all__ = [
    "MoebiusMap",
    "apply_moebius",
    "cocycle_deviation",
    "moebius_invariance_deviation",
    "schwarzian",
    "transform_W",
]


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional-linear map w -> (a w + b)/(c w + d) with complex entries."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if not np.isfinite([self.a, self.b, self.c, self.d]).all():
            raise ValueError("coefficients must be finite")
        scale = max(abs(self.a) + abs(self.b) + abs(self.c) + abs(self.d), 1.0)
        if abs(self.determinant) <= 1e-12 * scale * scale:
            raise ValueError("degenerate coefficient matrix: a d - b c ~ 0")

    @property
    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)


def _check_first_derivative(d1: np.ndarray) -> None:
    mag = np.abs(d1)
    top = mag.max()
    if top == 0.0 or mag.min() < DERIVATIVE_FLOOR * top:
        raise DerivativeVanishes(
            "first derivative falls below the resolvable floor on the grid"
        )


def _check_monotone(d1: np.ndarray, name: str) -> None:
    real = d1.real if np.iscomplexobj(d1) else d1
    if not (np.all(real > 0.0) or np.all(real < 0.0)):
        raise NonMonotoneMap(f"{name} must be strictly monotone on the grid")


def _braces(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> np.ndarray:
    """{f, x} from samples of f', f'' and f'''; the one copy of the formula."""
    r2 = d2 / d1
    return d3 / d1 - 1.5 * r2 * r2


def schwarzian(f: SampledFunction) -> SampledFunction:
    """Schwarzian derivative of ``f`` with respect to its grid coordinate.

    Uses exact derivatives when ``f`` carries them, centered finite
    differences otherwise.  Finite differences cannot reach the outermost
    two points on each side, so the result lives on the corresponding
    interior grid; those boundary points are dropped rather than padded.
    """
    d1, d2, d3, trim = derivative_table(f)
    _check_first_derivative(d1)
    return SampledFunction(f.grid.interior(trim), _braces(d1, d2, d3))


def apply_moebius(m: MoebiusMap, f: SampledFunction) -> SampledFunction:
    """Compose ``f`` with a Moebius map acting on its codomain.

    Returns samples of g = (a f + b)/(c f + d).  When ``f`` carries exact
    derivatives, the chain rule produces exact derivatives of g as well,
    so downstream Schwarzian evaluations keep analytic accuracy.
    """
    denom = m.c * f.values + m.d
    scale = abs(m.c) * np.abs(f.values).max() + abs(m.d) + 1.0
    if np.abs(denom).min() <= 1e-12 * scale:
        raise PoleOnGrid("the map c f + d vanishes at a grid point")
    values = (m.a * f.values + m.b) / denom
    real_map = (
        complex(m.a).imag == 0
        and complex(m.b).imag == 0
        and complex(m.c).imag == 0
        and complex(m.d).imag == 0
    )
    if np.isrealobj(f.values) and real_map:
        values = values.real

    derivatives = None
    if f.derivatives is not None:
        det = m.determinant
        d1, d2, d3 = f.derivatives
        g1 = det * d1 / denom**2
        g2 = det * (d2 * denom - 2.0 * m.c * d1 * d1) / denom**3
        g3 = det * (
            d3 * denom**2 - 6.0 * m.c * d1 * d2 * denom + 6.0 * m.c**2 * d1**3
        ) / denom**4
        if np.isrealobj(values):
            g1, g2, g3 = g1.real, g2.real, g3.real
        derivatives = (g1, g2, g3)
    return SampledFunction(f.grid, values, derivatives)


def moebius_invariance_deviation(f: SampledFunction, m: MoebiusMap) -> float:
    """Sup-norm gap between the Schwarzians of ``f`` and of the mapped ``f``.

    Identically zero in exact arithmetic for any nondegenerate map; the
    returned number therefore measures discretization plus roundoff.
    """
    s_f = schwarzian(f)
    s_g = schwarzian(apply_moebius(m, f))
    return float(np.abs(s_f.values - s_g.values).max())


def cocycle_deviation(
    qa: SampledFunction,
    qb_grid: RealGrid,
    qc: SampledFunction,
    *,
    xi: float,
    mass: float,
) -> float:
    """Numerical defect of the cocycle law obeyed by coordinate pairings.

    With (x; y) = -(xi^2 / 4 mass) {x, y}, strictly monotone coordinate
    maps qa and qc of a common base coordinate satisfy

        (qa; qc) = (d base / d qc)^2 [ (qa; base) - (qc; base) ].

    The left side is evaluated independently through chain-rule derivatives
    of qa with respect to qc, never through the right side, so the returned
    sup-norm gap is a genuine consistency check of the Schwarzian calculus.
    """
    if qa.grid != qb_grid or qc.grid != qb_grid:
        raise ValueError("qa and qc must be sampled over the base grid")
    a1, a2, a3, trim_a = derivative_table(qa)
    c1, c2, c3, trim_c = derivative_table(qc)
    _check_first_derivative(a1)
    _check_first_derivative(c1)
    _check_monotone(a1, "qa")
    _check_monotone(c1, "qc")

    trim = max(trim_a, trim_c)

    def aligned(arr: np.ndarray, own_trim: int) -> np.ndarray:
        cut = trim - own_trim
        return arr[cut : len(arr) - cut] if cut else arr

    a1, a2, a3 = (aligned(a, trim_a) for a in (a1, a2, a3))
    c1, c2, c3 = (aligned(c, trim_c) for c in (c1, c2, c3))

    # Chain rule: derivatives of qa with respect to the qc coordinate.
    f1 = a1 / c1
    f2 = (a2 * c1 - a1 * c2) / c1**3
    f3 = (a3 * c1**2 - a1 * c3 * c1 - 3.0 * a2 * c1 * c2 + 3.0 * a1 * c2**2) / c1**5

    factor = -(xi * xi) / (4.0 * mass)
    lhs = factor * _braces(f1, f2, f3)
    rhs = factor * (_braces(a1, a2, a3) - _braces(c1, c2, c3)) / c1**2
    return float(np.abs(lhs - rhs).max())


def transform_W(
    W: SampledFunction,
    coordinate_map: SampledFunction,
    *,
    xi: float,
    mass: float,
) -> SampledFunction:
    """Transform the combination W = V - E into a new coordinate.

    Both inputs are sampled over the destination coordinate grid:
    ``coordinate_map`` holds the old coordinate q as a strictly monotone
    function of the new one q', and ``W`` holds the old W composed with
    that map.  The transformation law is

        W'(q') = (dq/dq')^2 W(q(q')) + (q; q'),

    with the pairing (q; q') = -(xi^2 / 4 mass) {q, q'}.
    """
    if W.grid != coordinate_map.grid:
        raise ValueError("W and coordinate_map must share one grid")
    d1, d2, d3, trim = derivative_table(coordinate_map)
    _check_first_derivative(d1)
    _check_monotone(d1, "coordinate_map")

    w_vals = W.values[trim : W.grid.n_points - trim] if trim else W.values
    values = d1 * d1 * w_vals + (-(xi * xi) / (4.0 * mass)) * _braces(d1, d2, d3)
    return SampledFunction(W.grid.interior(trim), values)
