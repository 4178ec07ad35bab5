"""Stationary one-dimensional wave equation on a uniform grid.

The second-order equation psi'' = -g(q) psi with g = 2 m (E - V)/hbar^2 is
integrated by the Numerov three-term recurrence (sixth-order local error),
marched in ratio form y_{i+1}/y_i: no march overflows, and every node is
one negative ratio.  Bound states of confining potentials are located by
shooting: one sweep of decaying solutions inward from both edges to the
rightmost turning point yields the number of levels below the trial energy
(a Sturm count) and a pole-free match.  Each level starts from the
classical action quantization (1/pi hbar) int p dq = n + 1/2 and is
polished by Newton steps on the match, whose energy derivative the sweep
itself yields (Cooley's corrector on the Numerov recurrence); the Sturm
count sets each step's direction and bisects wherever a step would leave
the level's count bracket.  Every sweep of one search reads the potential
sampled once on the grid, and each level's eigenfunction is spliced from
the two marches of the sweep that ended its polish, with no further
march.  The module also builds the canonical solution pairs that the
reduced-action reconstruction consumes.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DegeneratePair, GridTooSmall, LevelsUnresolved, NodeCountMismatch,
                     NoEigenvalueInRange, Overflow)
from .grids import RealGrid

__all__ = [
    "EigenResult",
    "Potential",
    "SolutionPair",
    "Wavefunction",
    "find_eigenvalues",
    "load_potential_table",
    "numerov_integrate",
    "pair_from_wavefunctions",
    "shoot_mismatch",
    "solution_pair",
    "wronskian_profile",
]

#: Magnitude bound of stored samples: products of two of them stay finite.
_MAX_MAGNITUDE = 1e140

#: The Newton polish stops once its step is below half this width relative
#: to max(1, |E|).
_LEVEL_RTOL = 1e-12

#: Iteration cap of each level's action guess and of its Newton polish.
_LEVEL_MAX_ITER = 200

#: The level guess stops within this many quanta of its action target.
_GUESS_TOL = 1e-6


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """A one-dimensional potential plus the constants hbar and mass.

    ``kind`` selects the shape: "harmonic" (0.5 m omega^2 q^2),
    "infinite_well" (V = 0 on [0, length] with hard walls), "linear"
    (slope * q), "free" (V = 0, not confining) or "tabulated" (linear
    interpolation of a strictly increasing sample table).
    """

    kind: str
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    length: float = 1.0
    slope: float = 1.0
    table_q: np.ndarray | None = None
    table_v: np.ndarray | None = None

    _KINDS = ("harmonic", "infinite_well", "linear", "free", "tabulated")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not np.all(np.isfinite([self.hbar, self.mass, self.omega, self.length, self.slope])):
            raise ValueError("hbar, mass, omega, length and slope must be finite")
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be positive")
        if self.kind == "infinite_well" and self.length <= 0:
            raise ValueError("well length must be positive")
        # The potential's energy scale must be a float the solvers can square
        # and divide by: m omega^2 for the oscillator, hbar^2/(m L^2) for the well.
        if self.kind == "harmonic" and not math.isfinite(self.mass * (self.omega * self.omega)):
            raise ValueError(f"m omega^2 overflows the float range (omega = {self.omega!r}, "
                             f"m = {self.mass!r})")
        if self.kind == "infinite_well":
            unit = self.hbar / self.length * (self.hbar / self.length) / self.mass
            if not sys.float_info.min <= unit <= sys.float_info.max:
                raise ValueError(f"the well's energy unit hbar^2/(m L^2) = {unit!r} leaves the "
                                 f"normal float range (L = {self.length!r}, m = {self.mass!r})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def harmonic(cls, mass: float = 1.0, omega: float = 1.0, hbar: float = 1.0):
        return cls(kind="harmonic", hbar=hbar, mass=mass, omega=omega)

    @classmethod
    def infinite_well(cls, length: float = 1.0, mass: float = 1.0, hbar: float = 1.0):
        return cls(kind="infinite_well", hbar=hbar, mass=mass, length=length)

    @classmethod
    def linear(cls, slope: float = 1.0, mass: float = 1.0, hbar: float = 1.0):
        return cls(kind="linear", hbar=hbar, mass=mass, slope=slope)

    @classmethod
    def free(cls, mass: float = 1.0, hbar: float = 1.0):
        return cls(kind="free", hbar=hbar, mass=mass)

    @classmethod
    def tabulated(cls, q, v, mass: float = 1.0, hbar: float = 1.0):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        if q.ndim != 1 or q.shape != v.shape or len(q) < 2:
            raise ValueError("tabulated potential needs two matching 1-d columns")
        if not np.all(np.diff(q) > 0):
            raise ValueError("tabulated sample points must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("tabulated potential values must be finite")
        return cls(kind="tabulated", hbar=hbar, mass=mass, table_q=q, table_v=v)

    # -- behavior ----------------------------------------------------------

    @property
    def hard_wall(self) -> bool:
        return self.kind == "infinite_well"

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.kind == "harmonic":
            return 0.5 * self.mass * self.omega**2 * q * q
        if self.kind == "linear":
            return self.slope * q
        if self.kind in ("free", "infinite_well"):
            return np.zeros_like(q)
        pad = 1e-9 * (self.table_q[-1] - self.table_q[0])
        if q.min() < self.table_q[0] - pad or q.max() > self.table_q[-1] + pad:
            raise ValueError("grid leaves the tabulated potential's range")
        return np.interp(q, self.table_q, self.table_v)

    def default_grid(self) -> RealGrid:
        if self.kind == "infinite_well":
            return RealGrid(0.0, self.length, 2001)
        if self.kind == "tabulated":
            return RealGrid(float(self.table_q[0]), float(self.table_q[-1]), 4001)
        return RealGrid(-10.0, 10.0, 4001)


def load_potential_table(
    path: str | Path, mass: float = 1.0, hbar: float = 1.0
) -> Potential:
    """Read a two-column CSV of (q, V) samples into a tabulated potential.

    A single non-numeric header row is tolerated; sample points must be
    strictly increasing.
    """
    qs: list[float] = []
    vs: list[float] = []
    with open(path, newline="") as handle:
        for row_number, row in enumerate(csv.reader(handle)):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"row {row_number + 1}: expected two columns")
            try:
                q, v = float(row[0]), float(row[1])
            except ValueError:
                if row_number == 0:
                    continue  # header
                raise ValueError(f"row {row_number + 1}: non-numeric entry") from None
            qs.append(q)
            vs.append(v)
    return Potential.tabulated(qs, vs, mass=mass, hbar=hbar)


# ---------------------------------------------------------------------------
# wavefunctions and pairs


@dataclass(frozen=True)
class Wavefunction:
    """Samples of one solution at a fixed energy."""

    grid: RealGrid
    values: np.ndarray
    energy: float

    def __post_init__(self):
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) != self.grid.n_points:
            raise ValueError("values must be a 1-d array matching the grid")
        if not np.any(values != 0.0):
            raise ValueError("wavefunction must not vanish identically")


@dataclass(frozen=True)
class SolutionPair:
    """Two linearly independent real solutions with Wronskian u v' - v u'.

    Pairs produced by :func:`solution_pair` are rescaled so the Wronskian
    equals hbar, which pins the overall normalization of the reduced
    action built from them.
    """

    u: Wavefunction
    v: Wavefunction
    wronskian: float

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("pair members must share one grid")
        if self.u.energy != self.v.energy:
            raise ValueError("pair members must share one energy")
        if self.wronskian == 0.0:
            raise DegeneratePair("pair has vanishing Wronskian")


@dataclass(frozen=True)
class EigenResult:
    """Bound-state energies with node counts and normalized eigenfunctions,
    each signed so that its leftmost lobe (its first sample above 1e-9 of
    its peak) is positive."""

    energies: np.ndarray
    node_counts: tuple[int, ...]
    wavefunctions: tuple[Wavefunction, ...]

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "energies", energies)
        if not (len(energies) == len(self.node_counts) == len(self.wavefunctions)):
            raise ValueError("result fields must have matching lengths")
        if len(energies) and np.any(np.diff(energies) <= 0):
            raise ValueError("energies must be strictly increasing")


# ---------------------------------------------------------------------------
# the Numerov march in ratio form (a plain-float loop: it cannot vectorize)


def _g_values(potential: Potential, energy: float, v: np.ndarray) -> np.ndarray:
    """g = 2 m (E - V) / hbar^2 over the sampled potential ``v``."""
    return 2.0 * potential.mass * (energy - v) / potential.hbar**2


def _coefficients(potential: Potential, energy: float, grid: RealGrid,
                  v: np.ndarray) -> np.ndarray:
    """Numerov coefficients c_i = 1 + h^2 g_i / 12 over the sampled potential."""
    return 1.0 + (grid.spacing**2 / 12.0) * _g_values(potential, energy, v)


def _ratios(c: np.ndarray, y0: float, y1: float) -> np.ndarray:
    """Ratios r_i = y_{i+1}/y_i of the Numerov solution seeded by (y0, y1),
    as one float array.

    The recurrence c_{i+1} y_{i+1} = (12 - 10 c_i) y_i - c_{i-1} y_{i-1}
    becomes r_i = ((12 - 10 c_i) - c_{i-1}/r_{i-1}) / c_{i+1} (Johnson,
    J. Chem. Phys. 69, 4678 (1978)): it cannot overflow, and every sign
    change of the solution is one negative ratio.  A zero seed y0 gives
    r_0 = inf.  An exact zero sample y_{k+1} = 0 is stored as r_k = 0
    followed by the two-step ratio y_{k+2}/y_k = -c_k/c_{k+2}.  The
    shooting sweeps keep these arrays: an eigenfunction is rebuilt from the
    sweep that ended its level's Newton polish, without marching again.
    """
    coeff = c.tolist()
    first = y1 / y0 if y0 else math.inf
    return np.fromiter(_ratio_steps(coeff, (12.0 - 10.0 * c).tolist(), first), float,
                       len(coeff) - 1)


def _ratio_steps(coeff: list[float], diag: list[float], r: float):
    """The ratios of :func:`_ratios`, one plain-float step at a time."""
    yield r
    for d, cp, cn in zip(diag[1:-1], coeff, coeff[2:]):
        try:
            r = (d - cp / r) / cn
        except ZeroDivisionError:  # r = 0: bridge the zero sample, go on from 1/0
            yield -cp / cn
            r = math.inf
            continue
        yield r


def _samples(ratios: np.ndarray, y0: float, y1: float, log: bool = False):
    """Samples of the Numerov solution seeded by (y0, y1), rebuilt from its
    ratios.  Raises Overflow past the range where products of two samples
    stay finite; with ``log`` it returns (log|y|, sign y), which cannot."""
    factors = np.concatenate([[y0], ratios])
    zero = factors == 0.0  # exact zero samples; the next factor bridges each
    factors[zero] = 1.0
    if not y0:
        factors[1] = y1
    if log:
        logs = np.cumsum(np.log(np.abs(factors)))
        logs[zero] = -np.inf
        return logs, np.cumprod(np.sign(factors))
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.cumprod(factors)
    values[zero] = 0.0
    if not np.abs(values).max() <= _MAX_MAGNITUDE:
        raise Overflow("integration exceeded the representable range; "
                       "renormalize or shrink the domain")
    return values


def numerov_integrate(
    potential: Potential,
    energy: float,
    grid: RealGrid,
    direction: str = "left-to-right",
    seed: tuple[float, float] = (0.0, 1e-6),
) -> Wavefunction:
    """Integrate psi'' = -g psi across the grid from a two-value seed.

    ``seed`` holds psi at the first two points along the sweep direction
    ("left-to-right" or "right-to-left").  Raises Overflow when the
    solution leaves the representable range; the caller must then
    renormalize or shrink the domain.
    """
    if direction not in ("left-to-right", "right-to-left"):
        raise ValueError("direction must be 'left-to-right' or 'right-to-left'")
    order = slice(None, None, -1 if direction == "right-to-left" else 1)
    c = _coefficients(potential, energy, grid, potential.evaluate(grid.points()))[order]
    values = _samples(_ratios(c, *seed), *seed)[order]
    return Wavefunction(grid, values, energy)


# ---------------------------------------------------------------------------
# shooting


def _decay_seeds(potential: Potential, energy: float, grid: RealGrid, v: np.ndarray):
    """Starting values of the solutions decaying into the left and right edges
    (their scale is immaterial: only their ratios are marched)."""
    if potential.hard_wall:
        return (0.0, 1.0), (0.0, 1.0)
    gaps = v[[0, -1]] - energy
    if gaps.min() <= 0.0:
        raise ValueError("energy is not classically forbidden at the grid edge; "
                         "the decaying seed is undefined")
    kappa = np.sqrt(2.0 * potential.mass * gaps) / potential.hbar
    return tuple((1.0, math.exp(k * grid.spacing)) for k in kappa)


def _matching_index(v: np.ndarray, energy: float) -> int:
    """Rightmost classical turning point's index; grid midpoint if none."""
    w = v - energy
    crossings = np.nonzero(w[:-1] * w[1:] <= 0.0)[0]
    index = int(crossings[-1]) if len(crossings) else len(v) // 2
    return min(max(index, 2), len(v) - 3)


def shoot_mismatch(potential: Potential, energy: float, grid: RealGrid) -> float:
    """The match w of :func:`find_eigenvalues`'s sweep at ``energy``: the
    Casoratian of the edge-decaying solutions (positive at their edges) at
    the rightmost turning point (grid midpoint if none), both tails scaled to
    unit length.  It is the sine of the angle between the tails, so it lies
    in [-1, 1], has no poles, and vanishes exactly at the levels."""
    return _shoot(potential, energy, grid)[1]


def _end(ratios: np.ndarray) -> tuple[int, float, float]:
    """Sign changes of a march up to its next-to-last sample p, and its last
    two samples (p, q) scaled to unit length with p >= 0.  An exact zero
    sample keeps the sign of the sample before it."""
    nodes = int(np.count_nonzero(ratios[:-1] < 0.0))
    last = float(ratios[-1])
    if ratios[-2] == 0.0:  # p = 0; the last ratio bridges over it
        return nodes, 0.0, math.copysign(1.0, last)
    norm = math.hypot(1.0, last)
    return nodes, 1.0 / norm, last / norm


def _shoot(potential: Potential, energy: float, grid: RealGrid,
           v: np.ndarray | None = None, im: int | None = None):
    """One sweep: (levels below ``energy``, match w, matching index im, and
    the two marches as (ratios, y0, y1) of a and of b).

    ``v`` is the potential sampled on the grid (sampled here if not given).
    Decaying solutions a (marched to im+1) and b (down to im) meet at the
    rightmost turning point unless ``im`` is given.  w is their Casoratian
    at (im, im+1), written cancellation-free and scaled to the sine of the
    angle between them, so it is pole-free and smooth in energy at fixed
    im.  The Sturm count (a's sign changes up to im, b's from im on, plus
    one when b1/b0 > a1/a0) does not depend on im."""
    if v is None:
        v = potential.evaluate(grid.points())
    c = _coefficients(potential, energy, grid, v)
    if im is None:
        im = _matching_index(v, energy)
    seed_l, seed_r = _decay_seeds(potential, energy, grid, v)
    left = _ratios(c[: im + 2], *seed_l)
    right = _ratios(c[im:][::-1], *seed_r)
    # Unit tails up to the signs (-1)^nl and (-1)^nr of a0 and b1.
    nl, a0, a1 = _end(left)
    nr, b1, b0 = _end(right)
    cross = a0 * b1 - b0 * a1
    w = -cross if (nl + nr) % 2 else cross
    count = nl + nr + (b0 < 0.0) + (cross < 0.0 if b0 < 0.0 else cross > 0.0)
    return count, w, im, ((left, *seed_l), (right, *seed_r))


def _action_guess(potential: Potential, v: np.ndarray, grid: RealGrid, quanta: float,
                  lo: float, hi: float) -> float | None:
    """Energy in (lo, hi) where the classical action (1/pi hbar) int p dq over
    the sampled potential ``v`` equals ``quanta`` (Bohr-Sommerfeld), found by
    Illinois regula falsi; None when the action does not reach ``quanta``
    inside the bracket."""
    def excess(energy):
        p = np.sqrt(np.maximum(2.0 * potential.mass * (energy - v), 0.0))
        return float(np.trapezoid(p, dx=grid.spacing)) / (math.pi * potential.hbar) - quanta

    f_lo, f_hi = excess(lo), excess(hi)
    if not f_lo < 0.0 < f_hi:
        return None
    side = 0
    for _ in range(_LEVEL_MAX_ITER):
        guess = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f = excess(guess)
        if abs(f) <= _GUESS_TOL:
            break
        if f < 0.0:  # halve the stale end's value when the same end moves twice
            lo, f_lo, f_hi = guess, f, (0.5 * f_hi if side < 0 else f_hi)
            side = -1
        else:
            hi, f_hi, f_lo = guess, f, (0.5 * f_lo if side > 0 else f_lo)
            side = 1
    return guess


def _match_slope(potential: Potential, grid: RealGrid, left, right):
    """Newton data of one sweep of :func:`_shoot`, from its marches (ratios,
    y0, y1) of a and b: |dw/dE| at fixed im, the cosine of the angle between
    the tails (a_im, a_im+1) and (b_im, b_im+1) of the edge-positive
    solutions, and both marches in grid order as (log|y|, sign y).

    With z_i = c_i y_i the Numerov recurrence gives D_i - D_{i-1} =
    -(2 m h^2/hbar^2) y_i^2 for D_i = z_i dz_{i+1}/dE - z_{i+1} dz_i/dE
    (Cooley's corrector, Math. Comp. 15, 363 (1961), on the discrete
    march).  So the angle between the tails turns at (2 m h^2/hbar^2)
    (sum_{i<=im} a_i^2 + sum_{i>im} b_i^2) with a and b scaled to unit
    tails, which is |dw/dE| wherever w vanishes.  The soft-edge seed terms
    (weight e^{-2 int kappa}) and the factor 1/(c_im c_im+1) ~ 1 are
    dropped.  The sums are taken in log form: a decaying solution can grow
    past the float range before it reaches the matching point."""
    left_log, left_sign = _samples(*left, log=True)
    right_log, right_sign = (part[::-1] for part in _samples(*right, log=True))
    # log of each tail's length, and each march's samples scaled by it
    left_unit = left_log - 0.5 * np.logaddexp(*(2.0 * left_log[-2:]))
    right_unit = right_log - 0.5 * np.logaddexp(*(2.0 * right_log[:2]))
    weight = np.exp(2.0 * left_unit[:-1]).sum() + np.exp(2.0 * right_unit[1:]).sum()
    cosine = np.dot(left_sign[-2:] * right_sign[:2], np.exp(left_unit[-2:] + right_unit[:2]))
    slope = 2.0 * potential.mass * (grid.spacing / potential.hbar) ** 2 * weight
    return float(slope), float(cosine), (left_log, left_sign), (right_log, right_sign)


def _assemble_eigenfunction(grid: RealGrid, energy: float, index: int,
                            left, right) -> Wavefunction:
    """Splice the two marches of one sweep at ``energy``, given in grid order
    as (log|y|, sign y): the left one ends at im+1, the right one starts at
    im.  Raise NodeCountMismatch unless the result has ``index`` nodes."""
    (left_log, left_sign), (right_log, right_sign) = left, right
    im = len(left_log) - 2

    # The two marches overlap on indices im and im+1.  A node of the true
    # eigenfunction can sit on either grid point, leaving a roundoff-level
    # sample with a meaningless sign, so anchor the splice at the overlap
    # sample where both marches stand farther from zero.
    j = int(np.argmax(left_log[im:] + right_log[:2]))
    shift = left_log[im + j] - right_log[j]
    if not math.isfinite(shift):
        raise DegeneratePair("matching point collapsed to zero on both sides")
    logs = np.concatenate([left_log[:im], right_log + shift])
    signs = np.concatenate([left_sign[:im], right_sign * left_sign[im + j] * right_sign[j]])
    values = signs * np.exp(logs - logs.max())  # peak 1: the squares stay finite

    # A node can land exactly on a grid point, leaving a roundoff-level
    # sample whose sign is noise; count sign changes over the samples that
    # stand clear of that noise so such a node is seen once, not twice.
    # The first of them sets the overall sign.
    clear = values[np.abs(values) > 1e-9]
    norm = math.sqrt(float(np.trapezoid(values * values, dx=grid.spacing)))
    values = values * (math.copysign(1.0, clear[0]) / norm)
    nodes = int(np.count_nonzero(clear[:-1] * clear[1:] < 0.0))
    if nodes != index:
        raise NodeCountMismatch(f"level {index} at E = {energy!r} shows {nodes} nodes; the "
                                "grid under-resolves it or a node is below the noise floor")
    return Wavefunction(grid, values, energy)


def find_eigenvalues(
    potential: Potential,
    e_range: tuple[float, float],
    max_count: int,
    grid: RealGrid | None = None,
) -> EigenResult:
    """Bound states of a confining (or hard-wall) potential in an energy window.

    Each trial energy costs one sweep giving the count of levels below it
    and a pole-free match w, the counts kept in one table shared by the
    window.  Level k starts from the action quantization (1/pi hbar) int p
    dq = k + 1/2 (k + 1 between hard walls) over the sampled potential,
    solved inside its count bracket (from the bracket's midpoint when the
    action does not reach it there).  Each sweep then takes one Newton step
    |w|/|dw/dE| toward the level, the way its count points (up at count k,
    down at k + 1); the matching point stays where the first sweep counting
    k or k + 1 put it.  A step off the count bracket, a count other than k
    or k + 1, or a sweep nearer another root of w bisects the bracket
    instead, so the counts alone decide every level.  The polish stops at
    the sweep whose step is below half of 1e-12 max(1, |E|), or of the
    energy resolution of the Numerov coefficients where that is wider, and
    returns that sweep's energy.  The potential is sampled once per call and
    every sweep reads that sample; the eigenfunction of level k is spliced
    from the marches of that last sweep.  Levels closer than float spacing
    or than that energy resolution raise LevelsUnresolved (a tunnelling
    doublet the grid cannot split), an eigenfunction without k nodes raises
    NodeCountMismatch (the grid under-resolves it).  For soft potentials
    only energies classically forbidden at both grid edges are searchable;
    a window with no such level raises NoEigenvalueInRange.
    The window's floor is raised to the potential's minimum on the grid,
    below which no level lies; a grid whose spacing there is at least
    sqrt(12) decay lengths (a Numerov coefficient <= 0) raises GridTooSmall.
    """
    if grid is None:
        grid = potential.default_grid()
    if potential.hard_wall and max(abs(grid.q_min), abs(grid.q_max - potential.length)) >= 1e-9:
        raise ValueError("hard-wall grids must span exactly [0, length]")
    e_lo, e_hi = float(e_range[0]), float(e_range[1])
    if not (math.isfinite(e_lo) and math.isfinite(e_hi) and e_lo < e_hi):
        raise ValueError("energy range must be finite and satisfy lo < hi")
    if max_count < 1:
        raise ValueError("max_count must be at least 1")

    v = potential.evaluate(grid.points())
    e_lo = max(e_lo, float(v.min()))  # no level lies below the potential's minimum
    search_hi = e_hi
    if not potential.hard_wall:
        ceiling = float(min(v[0], v[-1]))
        search_hi = min(e_hi, ceiling - 1e-9 * max(1.0, abs(ceiling)))
    if search_hi <= e_lo:
        raise NoEigenvalueInRange("no energy in the window lies above the potential's "
                                  "minimum and is confined on this grid")
    h = grid.spacing
    kappa = math.sqrt(2.0 * potential.mass * max(float(v.max()) - e_lo, 0.0)) / potential.hbar
    if 1.0 - (h * kappa) ** 2 / 12.0 <= 0.0:  # the smallest Numerov coefficient at the floor
        raise GridTooSmall(f"grid spacing h = {h:.3g} is at least sqrt(12) times the shortest "
                           f"decay length {1.0 / kappa:.3g} at E = {e_lo!r}; the grid "
                           "cannot represent a decaying tail")

    # Energies closer than this leave every Numerov coefficient within two ulps.
    resolution = 12.0 * math.ulp(1.0) / (potential.mass * (grid.spacing / potential.hbar) ** 2)
    doublet = ("two levels near E = %r lie closer than float spacing or than the grid's "
               f"energy resolution {resolution:.1e}; the grid cannot separate them")
    # Every sweep reads the sampled v; the table keeps each sweep's count.
    counts = {e: _shoot(potential, e, grid, v)[0] for e in (e_lo, search_hi)}
    k_lo, k_hi = counts[e_lo], counts[search_hi]
    if k_hi <= k_lo:
        raise NoEigenvalueInRange("no level inside the energy window")

    def bracket(k):
        return (max(e for e, count in counts.items() if count <= k),
                min(e for e, count in counts.items() if count > k))

    energies, functions = [], []
    levels = range(k_lo, min(k_hi, k_lo + max_count))
    maslov = 1.0 if potential.hard_wall else 0.5  # level 0's action, in units of 2 pi hbar
    for k in levels:
        lo, hi = bracket(k)
        guess = _action_guess(potential, v, grid, k + maslov, lo, hi)
        energy = guess if guess is not None and lo < guess < hi else 0.5 * (lo + hi)
        im = None
        for _ in range(_LEVEL_MAX_ITER):
            count, w, at, marches = _shoot(potential, energy, grid, v, im)
            counts[energy] = count
            lo, hi = bracket(k)
            if count in (k, k + 1):
                im = at  # unchanged once set: _shoot keeps a given im
                slope, cosine, left, right = _match_slope(potential, grid, *marches)
            # Level k lies above (count k) or below (count k + 1), within the
            # count bracket.  Where it is the root of w nearest this sweep
            # (the tails' cosine then has the sign (-1)^k it has at level k),
            # it also lies within one Newton step |w|/|dw/dE|; there the
            # sweep steps toward it, or stops once the step is below the
            # polish tolerance.  Any other sweep bisects the count bracket.
            if count in (k, k + 1) and (cosine > 0.0) == (k % 2 == 0):
                step = min(hi - lo, abs(w) / slope)
                if step <= 0.5 * max(_LEVEL_RTOL * max(1.0, abs(energy)), resolution):
                    break
                trial = energy + step if count == k else energy - step
                if lo < trial < hi:
                    energy = trial
                    continue
            energy = 0.5 * (lo + hi)
            if not lo < energy < hi:
                raise LevelsUnresolved(doublet % energy)
        else:
            raise LevelsUnresolved(f"level {k} not polished in {_LEVEL_MAX_ITER} steps")
        if energies and energy - energies[-1] < resolution:
            raise LevelsUnresolved(doublet % energy)
        energies.append(energy)
        functions.append(_assemble_eigenfunction(grid, energy, k, left, right))

    return EigenResult(np.array(energies), tuple(levels), tuple(functions))


# ---------------------------------------------------------------------------
# canonical solution pairs


def wronskian_profile(
    u: np.ndarray, v: np.ndarray, g: np.ndarray, spacing: float
) -> np.ndarray:
    """Pointwise estimates of the Wronskian u v' - v u' along the grid.

    Uses midpoint product differences at steps h and 2h combined by
    Richardson extrapolation, which is accurate to O(h^6) and therefore
    flat to roundoff for genuine solution pairs even on coarse grids.
    """
    h = spacing
    d_h = u[1:] * v[:-1] - v[1:] * u[:-1]
    gm_h = 0.5 * (g[:-1] + g[1:])
    w_h = -d_h / (h * (1.0 - h * h * gm_h / 6.0))

    d_2h = u[2:] * v[:-2] - v[2:] * u[:-2]
    w_2h = -d_2h / (2.0 * h * (1.0 - 4.0 * h * h * g[1:-1] / 6.0))

    w_h_centered = 0.5 * (w_h[:-1] + w_h[1:])
    return (16.0 * w_h_centered - w_2h) / 15.0


def _median(values: np.ndarray) -> float:
    """np.median of a 1-d float array, by one partition: np.median imports
    numpy.ma on first use, which costs a fresh process more than the rest
    of a trajectory run's validation."""
    half, odd = divmod(len(values), 2)
    part = np.partition(values, (half, -1) if odd else (half - 1, half, -1))
    if np.isnan(part[-1]):  # a NaN sorts last and makes the median NaN
        return math.nan
    return float(part[half] if odd else 0.5 * (part[half - 1] + part[half]))


def _validated_wronskian(
    u: np.ndarray, v: np.ndarray, g: np.ndarray, spacing: float
) -> float:
    profile = wronskian_profile(u, v, g, spacing)
    wbar = _median(profile)
    spread = float(np.abs(profile - wbar).max())
    if wbar == 0.0 or spread > 0.5 * abs(wbar):
        raise DegeneratePair("solutions are (numerically) linearly dependent")
    # The estimator differences nearly parallel products, so its noise
    # floor is eps * |u v| / (h |W|); constancy can only be enforced down
    # to that floor when the pair grows large at non-eigenvalue energies.
    noise_floor = (
        32.0
        * np.finfo(float).eps
        * float(np.abs(u * v).max())
        / (spacing * abs(wbar))
    )
    if spread > max(1e-7, noise_floor) * abs(wbar):
        raise DegeneratePair(
            f"Wronskian varies by {spread / abs(wbar):.2e} relative; "
            "the inputs are not consistent solutions on this grid"
        )
    return wbar


def _taylor_start(g: np.ndarray, h: float, i0: int, value: float,
                  derivative: float) -> tuple[float, float]:
    """Fourth-order series values at q0 +/- h from (psi, psi') at q0."""
    # Python floats and products, not **: on a huge spacing they overflow
    # to inf silently, and the march reports Overflow.
    g_minus, g0, g_plus = g[i0 - 1:i0 + 2].tolist()
    g1 = (g_plus - g_minus) / (2.0 * h)
    g2 = (g_plus - 2.0 * g0 + g_minus) / (h * h)
    d2 = -g0 * value
    d3 = -g1 * value - g0 * derivative
    d4 = -g2 * value - 2.0 * g1 * derivative + g0 * g0 * value
    h2, h3 = h * h, h * h * h
    plus = value + h * derivative + h2 * d2 / 2.0 + h3 * d3 / 6.0 + h2 * h2 * d4 / 24.0
    minus = value - h * derivative + h2 * d2 / 2.0 - h3 * d3 / 6.0 + h2 * h2 * d4 / 24.0
    return plus, minus


def _launch(g: np.ndarray, grid: RealGrid) -> tuple[int, float, float]:
    """The launch of :func:`solution_pair`: sample i0 (the centre, clamped to
    [2, n - 3]), slope kappa = max(sqrt|g(q0)|, 1/width) of the sine-like
    member, and d(ln kappa)/dg(q0), which is zero on the 1/width floor."""
    i0 = min(max(grid.n_points // 2, 2), grid.n_points - 3)
    root = math.sqrt(abs(g[i0]))
    floor = 1.0 / (grid.q_max - grid.q_min)
    if root >= floor:
        return i0, root, 0.5 / g[i0]
    return i0, floor, 0.0


def solution_pair(potential: Potential, energy: float, grid: RealGrid) -> SolutionPair:
    """Two independent real solutions at one energy, Wronskian scaled to hbar.

    The pair is launched from the grid centre with cosine-like and sine-like
    initial data whose slope matches the local classical wavenumber.  That
    choice keeps u^2 + v^2 free of spurious beats in the classically allowed
    region, which is what makes the semiclassical limit of the reconstructed
    action clean.  Any other independent pair would satisfy the same
    stationary identities.
    """
    h = grid.spacing
    sampled = potential.evaluate(grid.points())
    g = _g_values(potential, energy, sampled)
    c = _coefficients(potential, energy, grid, sampled)
    i0, kappa, _ = _launch(g, grid)
    u, v = (np.concatenate([_samples(_ratios(c[i0::-1], at, minus), at, minus)[:0:-1],
                            _samples(_ratios(c[i0:], at, plus), at, plus)])
            for at, (plus, minus) in ((1.0, _taylor_start(g, h, i0, 1.0, 0.0)),
                                      (0.0, _taylor_start(g, h, i0, 0.0, kappa))))
    return pair_from_wavefunctions(Wavefunction(grid, u, energy), Wavefunction(grid, v, energy),
                                   potential)


def pair_from_wavefunctions(
    u: Wavefunction, v: Wavefunction, potential: Potential
) -> SolutionPair:
    """Validate and normalize a caller-supplied pair to Wronskian = hbar.

    Raises DegeneratePair when the two inputs are linearly dependent or
    are not consistent solutions of the same equation on the shared grid.
    """
    if u.grid != v.grid or u.energy != v.energy:
        raise ValueError("pair members must share grid and energy")
    g = _g_values(potential, u.energy, potential.evaluate(u.grid.points()))
    wbar = _validated_wronskian(u.values, v.values, g, u.grid.spacing)
    scale = math.sqrt(potential.hbar / abs(wbar))
    flip = 1.0 if wbar > 0 else -1.0
    return SolutionPair(
        Wavefunction(u.grid, u.values * scale, u.energy),
        Wavefunction(v.grid, v.values * scale * flip, v.energy),
        potential.hbar,
    )
