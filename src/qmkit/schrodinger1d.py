"""Stationary one-dimensional wave equation on a uniform grid.

The second-order equation psi'' = -g(q) psi with g = 2 m (E - V)/hbar^2 is
integrated by the Numerov three-term recurrence (sixth-order local error),
marched in ratio form on z_i = c_i y_i with one subtraction and one
division per grid point, and handed on as the ratios y_{i+1}/y_i: no march
overflows, and every node is one negative ratio.  Bound states of
confining potentials are located by shooting: one sweep of decaying
solutions inward from both edges to the rightmost turning point yields the
number of levels below the trial energy (a Sturm count) and a pole-free
match.  Where the sampled potential is exactly its own mirror image (an
even potential on a grid symmetric about 0, a hard-wall well), the sweep
matches at the grid centre.  Wherever the edge seeds are equal and the
Numerov coefficients of the march in from the right edge mirror those of
the march in from the left, at the centre or at a turning point right of
it, the sweep marches only from the left edge: the right march is a prefix
of that one, bit for bit, and so are its samples over their end sample,
up to one scale factor.  Each level
starts from the classical action quantization (1/pi hbar) int p dq =
n + 1/2 and is polished by Newton steps on the match, whose energy
derivative the sweep itself yields (Cooley's corrector on the Numerov
recurrence); the Sturm count sets each step's direction and bisects
wherever a step would leave the level's count bracket.  Newton converges
quadratically there, so two Newton sweeps in a row predict the step after
them; where that predicted step passes the stop test, the polish ends on
the second sweep's trial energy without sweeping it.  Every sweep of one
search reads the potential sampled once on the grid, and the window's top
only where a count bracket needs it.
Each level's eigenfunction is spliced from the marches of its last sweep,
each over its end sample, or, at an unswept trial, from those of its last
two sweeps extrapolated linearly in energy to it, with no further march.
The module also builds the canonical solution pairs that the
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
from .grids import RealGrid, fd1, fd2

__all__ = [
    "EigenResult",
    "Potential",
    "SolutionPair",
    "Wavefunction",
    "find_eigenvalues",
    "load_potential_table",
    "pair_from_wavefunctions",
    "shoot_mismatch",
    "solution_pair",
]

#: Magnitude bound of stored samples: products of two of them stay finite.
_MAX_MAGNITUDE = 1e140

#: The Newton polish stops once its step is below half this width relative
#: to |E|, or half the grid's energy resolution where that is wider: no
#: absolute floor, so a level on any energy scale is polished alike.
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
        if self.kind == "tabulated":
            q = np.asarray(self.table_q, dtype=float)
            v = np.asarray(self.table_v, dtype=float)
            object.__setattr__(self, "table_q", q)
            object.__setattr__(self, "table_v", v)
            if q.ndim != 1 or q.shape != v.shape or len(q) < 2:
                raise ValueError("tabulated potential needs two matching 1-d columns")
            if not np.all(np.isfinite(q)):
                raise ValueError("tabulated sample points must be finite")
            if not np.all(q[1:] > q[:-1]):
                raise ValueError("tabulated sample points must be strictly increasing")
            if not math.isfinite(float(q[-1]) - float(q[0])):
                raise ValueError("tabulated sample points must span a finite range")
            if not np.all(np.isfinite(v)):
                raise ValueError("tabulated potential values must be finite")

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
        return cls(kind="tabulated", hbar=hbar, mass=mass, table_q=q, table_v=v)

    # -- behavior ----------------------------------------------------------

    @property
    def hard_wall(self) -> bool:
        return self.kind == "infinite_well"

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        """V at the points ``q``; ValueError where V leaves the float range
        (an analytic V overflowing, or a table's interpolation slope)."""
        q = np.asarray(q, dtype=float)
        if self.kind == "tabulated":
            pad = 1e-9 * (self.table_q[-1] - self.table_q[0])
            if q.min() < self.table_q[0] - pad or q.max() > self.table_q[-1] + pad:
                raise ValueError("grid leaves the tabulated potential's range")
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "harmonic":
                v = 0.5 * self.mass * self.omega**2 * q * q
            elif self.kind == "linear":
                v = self.slope * q
            elif self.kind == "tabulated":
                v = np.interp(q, self.table_q, self.table_v)
            else:
                v = np.zeros_like(q)
        if not np.isfinite(v).all():
            raise ValueError(f"the {self.kind} potential leaves the float range at "
                             f"|q| = {np.abs(q[~np.isfinite(v)]).max():.3g}")
        return v

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
    return 2.0 * potential.mass * (energy - v) / (potential.hbar * potential.hbar)


def _numerov_scale(potential: Potential, grid: RealGrid) -> float:
    """The Numerov scale s = h^2 2m/(12 hbar^2), through which alone the
    shooting sweeps see hbar, the mass and the spacing h: c = 1 + s (E - V).
    Raises ValueError unless s is a normal float."""
    # Python float products, not **: a float power past the range raises
    # OverflowError, a product gives inf.
    h, hbar = grid.spacing, potential.hbar
    scale = h * h / 12.0 * (2.0 * potential.mass / (hbar * hbar))
    if not sys.float_info.min <= scale <= sys.float_info.max:
        raise ValueError(f"the Numerov scale h^2 2m/(12 hbar^2) = {scale!r} leaves the normal "
                         f"float range (h = {h!r}, hbar = {hbar!r}, m = {potential.mass!r})")
    return scale


def _coefficients(potential: Potential, energy: float, grid: RealGrid,
                  v: np.ndarray) -> np.ndarray:
    """Numerov coefficients c_i = 1 + s (E - V_i) = 1 + h^2 g_i/12 over the
    sampled potential, s the Numerov scale; a value past the float range
    reads inf.  A coefficient c_i <= 0 (a spacing h of at least sqrt(12)
    decay lengths) raises GridTooSmall, naming the shortest decay length
    h/sqrt(12 (1 - c_min)) at ``energy``.  A non-finite ``energy`` raises
    ValueError: every sweep and every solution pair starts here."""
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy!r}")
    with np.errstate(over="ignore"):
        c = 1.0 + _numerov_scale(potential, grid) * (energy - v)
    low = float(c.min())
    if low <= 0.0:
        h = grid.spacing
        raise GridTooSmall(f"a Numerov coefficient 1 + h^2 g/12 is {low:.3g} <= 0: grid "
                           f"spacing h = {h:.3g} is at least sqrt(12) times the shortest decay "
                           f"length {h / math.sqrt(12.0 * (1.0 - low)):.3g} at E = {energy!r}; "
                           "the grid cannot represent a decaying tail")
    return c


def _ratios(c: np.ndarray, y0: float, y1: float) -> np.ndarray:
    """Ratios r_i = y_{i+1}/y_i of the Numerov solution seeded by (y0, y1),
    as one float array, from coefficients c of :func:`_coefficients`.

    The recurrence c_{i+1} y_{i+1} = (12 - 10 c_i) y_i - c_{i-1} y_{i-1} is
    marched in z_i = c_i y_i, where it reads z_{i+1} + z_{i-1} = D_i z_i
    with D_i = (12 - 10 c_i)/c_i; its numerator is the plain recurrence's
    own float, so an exact zero there is one here.  The ratios rho_i =
    z_{i+1}/z_i obey rho_i = D_i - 1/rho_{i-1}, one subtraction and one
    division per point (Johnson's ratio form, J. Chem. Phys. 69, 4678
    (1978)), marched as plain floats read straight from D's buffer, and one
    array product r_i = rho_i c_i/c_{i+1} turns them into y-ratios.  The
    march cannot overflow, and every sign change of the solution is one
    negative ratio.  A zero seed y0 gives r_0 = inf.  An exact zero sample
    y_{k+1} = 0 is stored as r_k = 0 followed by the two-step ratio
    y_{k+2}/y_k = -c_k/c_{k+2} (z_{k+2} = -z_k).  The shooting sweeps keep
    these arrays: an eigenfunction is rebuilt from the last sweeps of its
    level's Newton polish, without marching again.
    """
    first = y1 / y0 if y0 else math.inf
    diag = (12.0 - 10.0 * c[1:-1]) / c[1:-1]
    c0, c1 = c[:2].tolist()  # a Python-float zero divides by raising, not with a warning
    rho = np.fromiter(_ratio_steps(memoryview(diag), first / (c0 / c1)), float, len(c) - 1)
    ratios = rho * (c[:-1] / c[1:])
    ratios[0] = first  # the seed's own ratio, not its round trip through c
    if not rho[:-1].all():  # each exact zero is bridged by the next ratio
        zero = np.flatnonzero(rho[:-1] == 0.0)
        ratios[zero + 1] = -c[zero] / c[zero + 2]
    return ratios


def _ratio_steps(diag, rho: float):
    """The z-ratios rho of :func:`_ratios`, one plain-float step at a time;
    after a zero the two-step ratio -1 is yielded and the march goes on
    from 1/0."""
    yield rho
    for d in diag:
        try:
            rho = d - 1.0 / rho
        except ZeroDivisionError:  # rho = 0: z_{k+2} = -z_k, then z_{k+2}/z_{k+1} = inf
            yield -1.0
            rho = math.inf
            continue
        yield rho


def _samples(ratios: np.ndarray, y0: float, y1: float) -> np.ndarray:
    """Samples of the Numerov solution seeded by (y0, y1), rebuilt from its
    ratios.  Raises Overflow past the range where products of two samples
    stay finite."""
    factors = np.concatenate([[y0], ratios])
    zero = np.flatnonzero(factors == 0.0)  # exact zero samples; the next factor bridges each
    factors[zero] = 1.0
    if not y0:
        factors[1] = y1
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.cumprod(factors)
    values[zero] = 0.0
    if not np.abs(values).max() <= _MAX_MAGNITUDE:
        raise Overflow("integration exceeded the representable range; "
                       "renormalize or shrink the domain")
    return values


def _end_scaled(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A march's samples t_i = y_i/y_e over its end sample y_e (one reversed
    cumulative product of its ratios and one reciprocal), and its factors:
    the ratios with 1 in place of each exact zero sample's, so y_e is the
    last nonzero one of the last two samples and the factors multiply to
    y_e/y_0 (to y_e/y_1 from r_1 on, behind a hard wall's r_0 = inf).  A
    product past the float range gives t = 0, as r_0 = inf does to t_0;
    for a positive seed t_0 has the sign of y_e."""
    zero = ratios == 0.0
    factors = np.where(zero, 1.0, ratios)
    t = np.ones(len(ratios) + 1)
    with np.errstate(over="ignore"):
        np.cumprod(factors[::-1], out=t[-2::-1])
    np.reciprocal(t[:-1], out=t[:-1])
    t[1:][zero] = 0.0
    return t, factors


# ---------------------------------------------------------------------------
# shooting


def _decay_seeds(potential: Potential, energy: float, grid: RealGrid, v: np.ndarray):
    """Starting values (1, e^{kappa h}) of the solutions decaying into the
    left and right edges, kappa h = sqrt(12 s (V - E)) with s the Numerov
    scale (their scale is immaterial: only their ratios are marched)."""
    if potential.hard_wall:
        return (0.0, 1.0), (0.0, 1.0)
    gaps = (float(v[0]) - energy, float(v[-1]) - energy)
    if min(gaps) <= 0.0:
        raise ValueError("energy is not classically forbidden at the grid edge; "
                         "the decaying seed is undefined")
    twelve_s = 12.0 * _numerov_scale(potential, grid)
    return tuple((1.0, math.exp(math.sqrt(twelve_s * gap))) for gap in gaps)


def _matching_index(v: np.ndarray, energy: float) -> int:
    """Rightmost classical turning point's index; grid midpoint if none.
    A mirror-symmetric search does not use it: it matches at the centre."""
    w = v - energy
    crossings = np.nonzero(w[:-1] * w[1:] <= 0.0)[0]
    index = int(crossings[-1]) if len(crossings) else len(v) // 2
    return min(max(index, 2), len(v) - 3)


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


def shoot_mismatch(potential: Potential, energy: float, grid: RealGrid,
                   v: np.ndarray | None = None, im: int | None = None):
    """One sweep at ``energy``: (levels below it, match w, matching index
    im, the two marches as (ratios, y0, y1) of a and of b, the cosine of
    the angle between the tails, and c_im c_im+1).  Every sweep of
    :func:`find_eigenvalues` is one call of this function.

    ``v`` is the potential sampled on the grid (sampled here if not given).
    Decaying solutions a (marched to im+1) and b (down to im) meet at the
    rightmost turning point (the grid midpoint if none), clamped to [2, n - 3],
    unless ``im`` is given (the grid centre (n - 1)//2 where
    :func:`find_eigenvalues` finds ``v`` equal to its mirror image); a given
    im outside [2, n - 3] raises ValueError.  b's march reads only the
    coefficients c[im:] reversed and its seed, so where the two edge seeds
    are equal, im >= (n - 1)//2 and c[im:][::-1] equals c[:n - im] exactly
    (always so at the centre of mirror samples, and in most turning-point
    sweeps of a nearly even table), it is bit for bit the first n - im - 1
    ratios of a's: b is taken as that prefix view and one march serves
    both.  w is their Casoratian at (im, im+1), written cancellation-free
    with both tails (positive at their edges) scaled to unit length: the
    sine of the angle between the tails, so it lies in [-1, 1], has no
    poles, is smooth in energy at fixed im and vanishes exactly at the
    levels; the cosine is their dot product.  The Sturm count (a's sign
    changes up to im, b's from im on, plus one when b1/b0 > a1/a0) does not
    depend on im.

    Only w and the count are the stable contract.  ``v``, ``im``, the
    marches, the cosine and c_im c_im+1 (of the coefficients the sweep
    marched) are the solver's internal data, for :func:`find_eigenvalues`'
    Newton step, and may change with it."""
    if v is None:
        v = potential.evaluate(grid.points())
    c = _coefficients(potential, energy, grid, v)
    n = len(v)
    if im is None:
        im = _matching_index(v, energy)
    elif not 2 <= im <= n - 3:
        raise ValueError(f"matching index {im!r} lies outside [2, {n - 3}]")
    seed_l, seed_r = _decay_seeds(potential, energy, grid, v)
    left = _ratios(c[: im + 2], *seed_l)
    if (seed_l == seed_r and im >= (n - 1) // 2
            and np.array_equal(c[im:][::-1], c[: n - im])):
        right = left[: n - im - 1]
    else:
        right = _ratios(c[im:][::-1], *seed_r)
    # Unit tails up to the signs (-1)^nl and (-1)^nr of a0 and b1.
    nl, a0, a1 = _end(left)
    nr, b1, b0 = _end(right)
    cross = a0 * b1 - b0 * a1
    count = nl + nr + (b0 < 0.0) + (cross < 0.0 if b0 < 0.0 else cross > 0.0)
    sign = -1.0 if (nl + nr) % 2 else 1.0
    return (count, sign * cross, im, ((left, *seed_l), (right, *seed_r)),
            sign * (a0 * b0 + a1 * b1), float(c[im] * c[im + 1]))


def _action_guess(potential: Potential, v: np.ndarray, grid: RealGrid, quanta: float,
                  lo: float, hi: float) -> float | None:
    """Energy in (lo, hi) where the classical action (1/pi hbar) int p dq over
    the sampled potential ``v`` equals ``quanta`` (Bohr-Sommerfeld), found by
    Illinois regula falsi; None when the action does not reach ``quanta``
    inside the bracket.

    p vanishes wherever v >= hi, so the action reads only the span of samples
    below the bracket top, as one weighted sum: the trapezoid's weight h, or
    h/2 on a grid end (where p need not vanish, as between hard walls)."""
    below = np.flatnonzero(v < hi)
    if not below.size:
        return None
    first, last = int(below[0]), int(below[-1]) + 1
    two_m = 2.0 * potential.mass
    two_m_v = two_m * v[first:last]
    weights = np.full(last - first, grid.spacing / (math.pi * potential.hbar))
    if first == 0:
        weights[0] *= 0.5
    if last == len(v):
        weights[-1] *= 0.5

    def excess(energy):
        p = np.subtract(two_m * energy, two_m_v)
        np.maximum(p, 0.0, out=p)
        np.sqrt(p, out=p)
        return float(p @ weights) - quanta

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
    """Newton data of one sweep of :func:`shoot_mismatch`, from its marches
    (ratios, y0, y1) of a and b: c_im c_im+1 |dw/dE| at fixed im, and each
    march as (t, factors) of :func:`_end_scaled`, in march order.  Where
    b's ratios are a prefix view of a's (see :func:`shoot_mismatch`), b's
    pair is a's rescaled, (t_a[:m + 1]/t_a[m], factors_a[:m]) over its m
    ratios, without a second product: equal to b's own up to the roundoff
    of the products, unless t_a[m] is zero or subnormal, where b's is built
    afresh.

    With z_i = c_i y_i the Numerov recurrence gives C_i - C_{i-1} =
    -K y_i^2, K = 2 m h^2/hbar^2 = 12 s with s the Numerov scale, for C_i =
    z_i dz_{i+1}/dE - z_{i+1} dz_i/dE (Cooley's corrector, Math. Comp. 15,
    363 (1961), on the discrete march).  So the Casoratian of the z tails
    turns at K (-C_0^a/K + sum_{0<i<=im} a_i^2 + sum_{im<i<n-1} b_i^2 -
    C_0^b/K) with a and b scaled to unit tails, which is c_im c_im+1 |dw/dE|
    wherever w vanishes (w is the y tails' Casoratian); C_0 is each march's
    value at its seed.  A hard wall's seed (0, 1) has C_0 = 0.  The
    decaying seed (1, e^{kappa h}) of a soft edge moves with kappa, where
    dkappa/dE = -m/(hbar^2 kappa), so -C_0/K = e^{kappa h} (c_0 c_1/(2
    kappa h) - (c_0 - c_1)/12): it stands for the tail beyond the grid edge.
    It is taken as e^{kappa h} c_0^2/(2 kappa h) with c_0 = 1 - (kappa
    h)^2/12, which drops terms of order h^3 dV/dq.  The sums read each
    march over its end sample, t = y/y_e, which no growth before the
    matching point overflows; its tail (t_{n-2}, t_{n-1}) scales it to unit
    length."""
    weight, sides = 0.0, []
    for ratios, y0, y1 in (left, right):
        m = len(ratios)
        if sides and ratios.base is left[0] and abs(sides[0][0][m]) >= sys.float_info.min:
            t_a, f_a = sides[0]  # b's march is a prefix of a's: rescale a's product
            t, factors = t_a[: m + 1] / t_a[m], f_a[:m]
        else:
            t, factors = _end_scaled(ratios)
        first, p, q = float(ratios[0]), float(t[-2]), float(t[-1])
        squares = float(t[:-1] @ t[:-1])
        if y0 and first > 1.0:  # a decaying seed: its sample's square becomes -C_0/K
            kappa_h = math.log(first)
            seed = first * (1.0 - kappa_h * kappa_h / 12.0) ** 2 / (2.0 * kappa_h)
            squares += (seed - 1.0) * float(t[0]) ** 2
        norm = math.hypot(p, q)
        weight += squares / (norm * norm)
        sides.append((t, factors))
    return 12.0 * _numerov_scale(potential, grid) * weight, *sides


def _assemble_eigenfunction(grid: RealGrid, energy: float, index: int,
                            left: np.ndarray, right: np.ndarray) -> Wavefunction:
    """Splice the two marches at ``energy`` (of one sweep, or extrapolated
    to it from two), each over its own end sample, in grid order: the left
    one ends at im+1, the right one starts at im.  Raise NodeCountMismatch
    unless the result has ``index`` nodes."""
    im = len(left) - 2

    # The two marches overlap on indices im and im+1.  A node of the true
    # eigenfunction can sit on either grid point, leaving a roundoff-level
    # sample with a meaningless sign, so anchor the splice at the overlap
    # sample where both marches stand farther from zero.
    overlap = np.abs(left[im:] * right[:2]).tolist()
    j = int(overlap[1] > overlap[0])
    if not overlap[j]:
        raise DegeneratePair("matching point collapsed to zero on both sides")
    values = np.empty(grid.n_points)
    values[:im] = left[:im]
    np.multiply(right, left[im + j] / right[j], out=values[im:])
    values /= np.abs(values).max()  # peak 1: the squares stay finite

    # A node can land exactly on a grid point, leaving a roundoff-level
    # sample whose sign is noise; count sign changes over the samples that
    # stand clear of that noise so such a node is seen once, not twice.
    # The first of them sets the overall sign.
    clear = values[np.abs(values) > 1e-9]
    ends = values[0] * values[0] + values[-1] * values[-1]
    norm = math.sqrt(grid.spacing * (float(values @ values) - 0.5 * ends))  # the trapezoid
    values *= math.copysign(1.0 / norm, clear[0])
    negative = np.signbit(clear)
    nodes = int(np.count_nonzero(negative[:-1] != negative[1:]))
    if nodes != index:
        raise NodeCountMismatch(f"level {index} at E = {energy!r} shows {nodes} nodes; the "
                                "grid under-resolves it or a node is below the noise floor")
    return Wavefunction(grid, values, energy)


class _CountTable:
    """The Sturm counts of one window's sweeps by energy, from its floor's on.
    The top is swept once, when a bracket needs it; every sweep matches at
    the grid centre where the sampled ``v`` is its own mirror image."""

    def __init__(self, potential, grid, v, floor, top, resolution):
        self.potential, self.grid, self.v, self.top = potential, grid, v, top
        self.centre = (len(v) - 1) // 2 if np.array_equal(v, v[::-1]) else None
        self.counts = {floor: shoot_mismatch(potential, floor, grid, v, self.centre)[0]}
        self.resolution, self.doublet = resolution, (
            "two levels near E = %r lie closer than float spacing or than the grid's energy "
            f"resolution {resolution:.1e}; the grid cannot separate them")

    def bracket(self, k):  # the window's top bounds level k until a sweep counts more than k
        return (max(e for e, count in self.counts.items() if count <= k),
                min((e for e, count in self.counts.items() if count > k), default=self.top))

    def beyond_top(self, k):  # whether level k lies above the window
        if self.top not in self.counts:
            self.counts[self.top] = shoot_mismatch(self.potential, self.top, self.grid,
                                                   self.v, self.centre)[0]
        return self.counts[self.top] <= k


def _polish_level(k: int, trial: float | None, im: int | None, table: _CountTable):
    """Level k of ``table``'s window from ``trial`` (from its count bracket's
    midpoint where None or outside it): its energy and its two marches'
    (t, factors) to splice, or None where it lies above the window.

    Each sweep takes one Newton step |w|/|dw/dE| toward the level, the way
    its count points (up at count k, down at k + 1); the matching point
    stays ``im`` where given, else where the first sweep counting k or k + 1
    put it.  A step reaching the bracket's end, a count other than k or
    k + 1, or a sweep nearer another root of w bisects the bracket instead;
    a guess outside it, a bisection or a step reaching the top first sweeps
    the window's top.  The polish stops at the sweep whose step is below
    half of 1e-12 |E|, or of the window's energy resolution where that is
    wider, and returns its energy.  It also stops one sweep earlier, on the
    trial E +/- s of a Newton sweep with step s that follows another with
    step s_prev (no bisection between them), when the contraction rate r =
    max(s/s_prev, |secant - slope|/slope) is at most 1/2 and the predicted
    next step r s passes that stop test.  The secant is w's through the two
    sweeps, so a slope that misjudges w (a doublet's fast turn) forbids the
    prediction.  That trial, inside the count bracket, is returned unswept.
    A bisection between adjacent floats, or a level not polished in 200
    sweeps, raises LevelsUnresolved."""
    potential, grid, v = table.potential, table.grid, table.v
    start = int(potential.hard_wall)  # a hard wall's r_0 = inf; its y_1 = 1 in every sweep
    step, tolerance, last = math.inf, 0.0, None  # last: a Newton sweep's (energy, w, step, sides)
    for _ in range(_LEVEL_MAX_ITER):
        lo, hi = table.bracket(k)
        if trial is None or not lo < trial < hi:
            if hi == table.top and table.beyond_top(k):
                return None
            if step <= tolerance:  # the last Newton sweep's bracket is within the tolerance
                return energy, sides
            last, trial = None, 0.5 * (lo + hi)
            if not lo < trial < hi:
                raise LevelsUnresolved(table.doublet % trial)
        energy = trial
        count, w, at, marches, cosine, c_match = shoot_mismatch(potential, energy, grid, v, im)
        table.counts[energy] = count
        lo, hi = table.bracket(k)
        # Level k lies above at count k, below at k + 1; a cosine of sign (-1)^k: w's nearest root.
        step, trial = math.inf, None
        if count in (k, k + 1):
            im = at  # unchanged once set: a given im is kept
            slope, *sides = _match_slope(potential, grid, *marches)
            slope /= c_match  # |dw/dE|: the slope of the z tails over c_im c_im+1
            if (cosine > 0.0) == (k % 2 == 0):
                step = min(hi - lo, abs(w) / slope)
        tolerance = 0.5 * max(_LEVEL_RTOL * abs(energy), table.resolution)
        if step < hi - lo:
            if step <= tolerance:
                return energy, sides
            trial = energy + step if count == k else energy - step
            # The predicted stop, with the trial's marches linear in energy:
            # y + tau (y - y_last) = y_e ((1 + tau) t - tau q t_last), q = y_e,last/y_e.
            if last and lo < trial < hi:
                last_energy, last_w, last_step, last_sides = last
                secant = abs(w - last_w) / abs(energy - last_energy)
                rate = max(step / last_step, abs(secant - slope) / slope)
                if rate <= 0.5 and rate * step <= tolerance:
                    tau = (trial - energy) / (energy - last_energy)
                    return trial, [((1.0 + tau) * t - tau * np.prod(f_last[start:] / f[start:])
                                    * t_last, f)
                                   for (t, f), (t_last, f_last) in zip(sides, last_sides)]
            last = energy, w, step, sides
    raise LevelsUnresolved(f"level {k} not polished in {_LEVEL_MAX_ITER} steps")


def find_eigenvalues(
    potential: Potential,
    e_range: tuple[float, float],
    max_count: int,
    grid: RealGrid | None = None,
) -> EigenResult:
    """Bound states of a confining (or hard-wall) potential in an energy window.

    Each trial energy costs one sweep giving the count of levels below it
    and a pole-free match w, the counts kept in one table shared by the
    window.  Level k starts from the action quantization (1/pi hbar)
    int p dq = k + 1/2 (k + 1 between hard walls) over the sampled
    potential, solved inside its count bracket, and is polished there by
    Newton steps and bisections (:func:`_polish_level`), so the counts alone
    decide every level; the search ends once the window's top counts at most
    k levels.  No bound of the search is absolute, so a change of units by
    powers of two scales every level exactly.  Level k's eigenfunction is
    spliced from its last sweep's marches, or from its last two sweeps'
    extrapolated linearly in energy to an unswept trial.  Levels closer than
    float spacing or than the energy resolution 2 ulp(1)/s of the Numerov
    coefficients (s the Numerov scale) raise LevelsUnresolved (a tunnelling
    doublet the grid cannot split), an eigenfunction without k nodes raises
    NodeCountMismatch (the grid under-resolves it).  For soft potentials
    only energies classically forbidden at both grid edges are searchable:
    the top stays below the lower edge value V_e by max(1e-9 |V_e|,
    resolution), and a window with no such level raises
    NoEigenvalueInRange.  A top above the energy max V + 1/s, where the
    smallest Numerov coefficient is 2 and past which the grid holds no level
    (between hard walls, where coefficients may otherwise overflow), is
    lowered to it.  The window's floor is raised to the potential's minimum
    on the grid, below which no level lies; the first sweep, at the floor,
    raises GridTooSmall where the spacing is at least sqrt(12) decay lengths
    (a Numerov coefficient <= 0).  A hard-wall grid must span [0, L] to
    within 1e-9 L.
    """
    if grid is None:
        grid = potential.default_grid()
    if (potential.hard_wall and max(abs(grid.q_min), abs(grid.q_max - potential.length))
            >= 1e-9 * potential.length):
        raise ValueError("hard-wall grids must span exactly [0, length]")
    e_lo, e_hi = float(e_range[0]), float(e_range[1])
    if not (math.isfinite(e_lo) and math.isfinite(e_hi) and e_lo < e_hi):
        raise ValueError("energy range must be finite and satisfy lo < hi")
    if max_count < 1:
        raise ValueError("max_count must be at least 1")

    v = potential.evaluate(grid.points())
    e_lo = max(e_lo, float(v.min()))  # no level lies below the potential's minimum
    scale = _numerov_scale(potential, grid)
    # Energies closer than this leave every Numerov coefficient within two ulps.
    resolution = 2.0 * math.ulp(1.0) / scale
    search_hi = e_hi
    if not potential.hard_wall:
        ceiling = float(min(v[0], v[-1]))
        search_hi = min(e_hi, ceiling - max(1e-9 * abs(ceiling), resolution))
    # Where every Numerov coefficient exceeds 3/2, D_i < -2 and each march
    # flips sign at every sample: the count is at its largest and no level
    # lies higher.  A top past the energy where the smallest coefficient is
    # 2 (whose coefficients may overflow) is lowered to it; a soft edge
    # already keeps the top below it.
    search_hi = min(search_hi, float(v.max()) + 1.0 / scale)
    if search_hi <= e_lo:
        raise NoEigenvalueInRange("no energy in the window lies above the potential's "
                                  "minimum, below the grid's highest level and is "
                                  "confined on this grid")
    table = _CountTable(potential, grid, v, e_lo, search_hi, resolution)
    maslov = 1.0 if potential.hard_wall else 0.5  # level 0's action, in units of 2 pi hbar
    energies, functions = [], []
    levels = range(table.counts[e_lo], table.counts[e_lo] + max_count)
    for k in levels:
        guess = _action_guess(potential, v, grid, k + maslov, *table.bracket(k))
        level = _polish_level(k, guess, table.centre, table)
        if level is None:
            break
        energy, ((left, _), (right, _)) = level
        if energies and energy - energies[-1] < resolution:
            raise LevelsUnresolved(table.doublet % energy)
        energies.append(energy)
        functions.append(_assemble_eigenfunction(grid, energy, k, left, right[::-1]))
    if not energies:
        raise NoEigenvalueInRange("no level inside the energy window")
    return EigenResult(np.array(energies), tuple(levels[:len(energies)]), tuple(functions))


# ---------------------------------------------------------------------------
# canonical solution pairs


def _wronskian_profile(
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
    profile = _wronskian_profile(u, v, g, spacing)
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
    # On a huge spacing these overflow to inf and the march reports Overflow.
    # fd1/fd2 are numpy and warn where they overflow, so the caller silences
    # over/invalid warnings (as solution_pair does); the rest are Python
    # floats and products, not **, which reach inf where ** would raise.
    g0, stencil = float(g[i0]), g[i0 - 1:i0 + 2]
    g1, g2 = fd1(stencil, h).item(), fd2(stencil, h).item()
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
    # g or c past the float range reads inf: GridTooSmall where c is -inf,
    # Overflow from _samples where the march is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
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
