"""Reduced action, quantum potential and trajectories on a grid.

Given two independent real solutions u, v of the stationary wave equation
with Wronskian W = u v' - v u', the reduced action is reconstructed as

    S0 = hbar * arctan(v / u)    (continuously unwrapped),
    S0' = hbar * W / (u^2 + v^2) (exact, no differencing),

so that exp(2 i S0 / hbar) equals the ratio of the two conjugate complex
combinations of the pair.  The conjugate momentum S0' never vanishes: it
is bounded below by hbar |W| / max(u^2 + v^2).  The quantum potential

    Q = (hbar^2 / 4 m) {S0, q}

turns the stationary Hamilton-Jacobi identity

    (S0')^2 / 2m + V - E + Q = 0

into a pointwise residual check.  Trajectory time is Jacobi's
t = dS0/dE, taken in closed form from the same pair: the Duhamel formula
for the energy derivatives of u and v turns it into three cumulative
integrals of u^2, u v and v^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonMonotoneTime
from .grids import RealGrid, SampledFunction, _write_csv, fd1, fd2
from .schrodinger1d import (Potential, SolutionPair, Wavefunction, _g_values, _launch,
                            solution_pair)
from .schwarzian import _braces

__all__ = [
    "ReducedAction",
    "ScanRow",
    "Trajectory",
    "bipolar_reconstruct",
    "classical_limit_scan",
    "floyd_trajectory",
    "qshje_residual",
    "quantum_potential",
    "reduced_action_from_pair",
    "suggest_trajectory_grid",
    "write_residual_csv",
    "write_trajectory_csv",
]


@dataclass(frozen=True)
class ReducedAction:
    """Reduced action samples with the exact conjugate momentum S0'."""

    grid: RealGrid
    S0: np.ndarray
    S0_prime: np.ndarray
    energy: float
    hbar: float
    mass: float

    def __post_init__(self):
        S0 = np.asarray(self.S0, dtype=float)
        S0p = np.asarray(self.S0_prime, dtype=float)
        object.__setattr__(self, "S0", S0)
        object.__setattr__(self, "S0_prime", S0p)
        n = self.grid.n_points
        if len(S0) != n or len(S0p) != n:
            raise ValueError("samples must match the grid")
        if np.any(S0p == 0.0):
            raise ValueError("S0_prime must never vanish")
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Time-parametrized motion samples (t, q, p) with strictly rising t.

    ``action`` is the reduced action at ``energy`` over the whole grid.
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: float
    action: ReducedAction

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        for name, arr in (("t", t), ("q", q), ("p", p)):
            object.__setattr__(self, name, arr)
        if not (len(t) == len(q) == len(p)):
            raise ValueError("t, q, p must have matching lengths")
        if np.any(np.diff(t) <= 0.0):
            raise NonMonotoneTime("trajectory time must be strictly increasing")


@dataclass(frozen=True)
class ScanRow:
    """Per-hbar summary produced by the semiclassical scan."""

    hbar: float
    sup_abs_quantum_potential: float
    momentum_deviation: float
    min_abs_momentum: float


def reduced_action_from_pair(
    pair: SolutionPair, *, hbar: float, mass: float
) -> ReducedAction:
    """Reconstruct the reduced action from a solution pair.

    The phase arctan(v/u) is unwrapped into a continuous branch, oriented
    so that a positive Wronskian gives S0' > 0, and S0' is evaluated in
    closed form from the Wronskian rather than by differencing S0.
    """
    u = pair.u.values
    v = pair.v.values
    envelope = u * u + v * v
    if envelope.min() <= 0.0:
        raise ValueError("u and v vanish together; not an independent pair")
    phase = np.unwrap(np.arctan2(v, u))
    return ReducedAction(
        grid=pair.u.grid,
        S0=hbar * phase,
        S0_prime=hbar * pair.wronskian / envelope,
        energy=pair.u.energy,
        hbar=hbar,
        mass=mass,
    )


def quantum_potential(action: ReducedAction) -> SampledFunction:
    """Q = (hbar^2 / 4 m) {S0, q} from the exact S0' samples.

    The second and third derivatives of S0 come from centered differences
    of S0', so the result loses one point at each grid edge.
    """
    h = action.grid.spacing
    p = action.S0_prime
    factor = action.hbar**2 / (4.0 * action.mass)
    return SampledFunction(action.grid.interior(1),
                           factor * _braces(p[1:-1], fd1(p, h), fd2(p, h)))


def _central_slice(n: int) -> slice:
    trim = int(math.floor(0.05 * n))
    return slice(trim, n - trim)


def _residual_samples(
    action: ReducedAction, potential: Potential
) -> tuple[SampledFunction, np.ndarray]:
    """Q and the defect (S0')^2 / 2m + V - E + Q, both on Q's interior grid."""
    q_pot = quantum_potential(action)
    p = action.S0_prime[1:-1]
    kinetic = p * p / (2.0 * action.mass)
    values = kinetic + potential.evaluate(q_pot.grid.points()) - action.energy + q_pot.values
    return q_pot, values


def qshje_residual(action: ReducedAction, potential: Potential) -> float:
    """Sup-norm defect of the stationary Hamilton-Jacobi identity.

    Evaluates |(S0')^2 / 2m + V - E + Q| on the central 90% of the grid
    (the outer 5% per side is excluded, where one-sided seeding and
    stencil truncation dominate).
    """
    _, values = _residual_samples(action, potential)
    window = _central_slice(action.grid.n_points)
    # Map the 90% window of the full grid onto the trimmed interior.
    lo = max(window.start - 1, 0)
    hi = min(window.stop - 1, len(values))
    return float(np.abs(values[lo:hi]).max())


def bipolar_reconstruct(action: ReducedAction, A: complex, B: complex) -> Wavefunction:
    """Assemble (S0')^(-1/2) (A e^{i S0/hbar} + B e^{-i S0/hbar}).

    With the Wronskian convention W = hbar, the choices (A, B) = (1/2, 1/2)
    and (1/(2i), -1/(2i)) reproduce the original pair members up to one
    global scale.  Returns complex samples on the action's grid.
    """
    if A == 0 and B == 0:
        raise ValueError("A and B must not both vanish")
    phase = action.S0 / action.hbar
    amplitude = np.abs(action.S0_prime) ** -0.5
    values = amplitude * (A * np.exp(1j * phase) + B * np.exp(-1j * phase))
    return Wavefunction(action.grid, values, action.energy)


def floyd_trajectory(potential: Potential, energy: float, grid: RealGrid) -> Trajectory:
    """Trajectory time t = dS0/dE from the one solution pair at E.

    With theta = S0/hbar = arctan(v/u), the Duhamel formula for du/dE and
    dv/dE of the pair launched at q0 gives, with Iab = integral of a b from
    q0 to q and W the pair's Wronskian,

        dtheta/dE = (2m/hbar^2) (u^2 Ivv - 2 u v Iuv + v^2 Iuu) / (W (u^2 + v^2))
                    + (kappa_E / kappa) u v / (u^2 + v^2).

    The second term is the energy dependence of the launch slope kappa.  t
    is shifted to start at zero and paired with the exact momentum at E.
    The outer 5% of points per side is excluded; non-monotone time on the
    rest raises NonMonotoneTime rather than being silently repaired.  On
    the double well (q^2 - 1)^2 tabulated at 1201 points on [-5, 5], on
    the grid of :func:`suggest_trajectory_grid`, it does so at every E from
    0.1 to 2.3 (in steps of 0.1), above the barrier at E = 1 too; from 2.4
    to 5 the time is monotone.  The linear ramp at E = 0.5 raises it too,
    on the suggested grid and on grids whose right end lies in the
    forbidden side ([-4, 2.5], [-1.5, 2.5]): its time turns back in the
    allowed region, so the cause is the centre-launched microstate, as on
    the double well, not the grid.  ``action`` is the reduced action at E
    over the whole grid.
    """
    hbar, mass = potential.hbar, potential.mass
    pair = solution_pair(potential, energy, grid)
    action = reduced_action_from_pair(pair, hbar=hbar, mass=mass)

    q = grid.points()
    i0, _, log_slope = _launch(_g_values(potential, energy, potential.evaluate(q)), grid)
    u, v = pair.u.values, pair.v.values
    f = np.stack([u * u, u * v, v * v])
    steps = 0.5 * grid.spacing * (f[:, 1:] + f[:, :-1])
    # Trapezoid sums outward from i0 on each side: one cumsum from the edge,
    # less its value at i0, would cancel the growing tails' huge sums.
    iuu, iuv, ivv = np.concatenate([-np.cumsum(steps[:, i0 - 1::-1], axis=1)[:, ::-1],
                                    np.zeros((3, 1)), np.cumsum(steps[:, i0:], axis=1)], axis=1)
    spread = (u * u * ivv - 2.0 * u * v * iuv + v * v * iuu) / pair.wronskian
    t = (2.0 * mass / hbar) * (spread + log_slope * u * v) / (u * u + v * v)  # hbar dtheta/dE

    window = _central_slice(grid.n_points)
    t = t[window]
    return Trajectory(t - t[0], q[window], action.S0_prime[window], energy, action)


# ---------------------------------------------------------------------------
# semiclassical scan


#: WKB action held by each forbidden tail of a scan grid.
_TAIL_ACTION = 3.0

#: Analytic potentials are probed on the boxes [-4 * 2^k, 4 * 2^k], |k| <= _OCTAVES.
_OCTAVES = 64


def _scan_grid(potential: Potential, energy: float,
               *, min_points: int = 4001) -> tuple[RealGrid, float, float]:
    """Grid and turning points (allowed-interval ends) for one energy at the
    potential's hbar.

    Hard walls give [0, L].  A table is probed on its own range; any other
    potential on the first box [-4 * 2^k, 4 * 2^k], k = 0, 1, ...,
    `_OCTAVES`, whose two ends are classically forbidden.  A potential
    confined in no box gets the table's range or [-4, 4], unpadded.  Each
    turning point is padded outward to the first sample of the box's
    16001-sample probe where the trapezoid sum of kappa dq reaches
    `_TAIL_ACTION` (or to the probe's end), at 80 samples per shortest
    wavelength.  While the padded interval lies strictly inside the halved
    box, the box halves, down to k = -`_OCTAVES`, so no length scale is
    assumed.  The pair is marched outward from the centre, so
    deeper tails would only amplify the growing solution, by
    e^(2*_TAIL_ACTION), and with it the roundoff.  A non-finite ``energy``,
    or one below the potential's minimum (0 between hard walls), raises
    ValueError.
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy!r}")

    def confining(box):  # both ends classically forbidden
        return bool((potential.evaluate(np.array(box)) > energy).all())

    if potential.hard_wall:
        if energy < 0.0:  # below the well's floor
            raise ValueError("energy lies below the potential minimum")
        return RealGrid(0.0, potential.length, min_points), 0.0, potential.length
    if potential.kind == "tabulated":
        boxes = [(float(potential.table_q[0]), float(potential.table_q[-1]))]
    else:
        boxes = [(-4.0 * 2.0**k, 4.0 * 2.0**k) for k in range(_OCTAVES + 1)]
    box = next((box for box in boxes if confining(box)), None)
    if box is None:
        return RealGrid(*boxes[0], min_points), *boxes[0]
    hbar, mass = potential.hbar, potential.mass
    while True:
        probe = np.linspace(*box, 16001)
        w = potential.evaluate(probe) - energy
        allowed = np.nonzero(w < 0.0)[0]
        if len(allowed) == 0:
            raise ValueError("energy lies below the potential minimum")
        first, last = allowed[0], allowed[-1]  # in [1, n - 2]: the box ends are forbidden
        kappa = np.sqrt(2.0 * mass * np.clip(w, 0.0, None)) / hbar
        steps = 0.5 * (kappa[:-1] + kappa[1:]) * (probe[1] - probe[0])
        lo = max(first - 1 - np.searchsorted(np.cumsum(steps[first - 1::-1]), _TAIL_ACTION), 0)
        hi = min(last + 1 + np.searchsorted(np.cumsum(steps[last:]), _TAIL_ACTION),
                 len(probe) - 1)
        half = (0.5 * box[0], 0.5 * box[1])
        if (potential.kind == "tabulated" or half[1] < 4.0 * 2.0**-_OCTAVES
                or not half[0] < probe[lo] <= probe[hi] < half[1]):
            break
        box = half
    spacing = 2.0 * math.pi * hbar / math.sqrt(2.0 * mass * float(-w.min())) / 80.0
    n = min(max(int(math.ceil((probe[hi] - probe[lo]) / spacing)) + 1, min_points), 400001)
    return RealGrid(float(probe[lo]), float(probe[hi]), n), float(probe[first]), float(probe[last])


def suggest_trajectory_grid(potential: Potential, energy: float) -> RealGrid:
    """Domain suited to action and trajectory work at one energy.

    Covers the classically allowed interval plus short forbidden-tail
    pads, finely sampled, at the potential's own length scale (a box of
    [-4, 4] doubled or halved by powers of two, see `_scan_grid`), with at
    least 40001 points.  Long tails are deliberately excluded: time
    increments decay exponentially there and, in deep enough tails
    (harmonic E = 0.5 on [-7, 7]), drop below the float resolution of t,
    which breaks the strict monotonicity of the time column; deeper still,
    the growing solution branch loses the decaying one to roundoff.
    """
    grid, _, _ = _scan_grid(potential, energy, min_points=40001)
    return grid


def classical_limit_scan(potential: Potential, energy: float, hbar_sequence) -> list[ScanRow]:
    """Track the quantum potential as hbar shrinks at fixed energy.

    For each hbar the pair, action and quantum potential are rebuilt on a
    domain adapted to that hbar, and the scan reports sup|Q|, the gap
    between |S0'| and the classical momentum and min|S0'| over the central
    80% of the classically allowed interval.  The report is descriptive:
    callers assert the trends they need.
    """
    rows = []
    for hb in hbar_sequence:
        scaled = replace(potential, hbar=float(hb))
        grid, q_lo_t, q_hi_t = _scan_grid(scaled, energy)
        pair = solution_pair(scaled, energy, grid)
        action = reduced_action_from_pair(pair, hbar=float(hb), mass=scaled.mass)
        q_pot = quantum_potential(action)

        width = q_hi_t - q_lo_t
        qs = grid.points()
        inside = (qs >= q_lo_t + 0.1 * width) & (qs <= q_hi_t - 0.1 * width)
        sup_q = float(np.abs(q_pot.values[inside[1:-1]]).max())  # Q lives on points 1..n-2
        p = action.S0_prime[inside]
        p_classical = np.sqrt(2.0 * scaled.mass * (energy - potential.evaluate(qs[inside])))
        deviation = float(
            np.minimum(np.abs(p - p_classical), np.abs(p + p_classical)).max()
        )
        rows.append(
            ScanRow(
                hbar=float(hb),
                sup_abs_quantum_potential=sup_q,
                momentum_deviation=deviation,
                min_abs_momentum=float(np.abs(p).min()),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# exports


def write_trajectory_csv(trajectory: Trajectory, target) -> None:
    """Write a trajectory as CSV with columns t, q, p (17 significant digits)."""
    _write_csv(target, "t,q,p", (trajectory.t, trajectory.q, trajectory.p))


def write_residual_csv(action: ReducedAction, potential: Potential, target) -> None:
    """Write columns q, S0, p, Q, residual on the quantum potential's domain."""
    q_pot, residual = _residual_samples(action, potential)
    columns = (q_pot.grid.points(), action.S0[1:-1], action.S0_prime[1:-1],
               q_pot.values, residual)
    _write_csv(target, "q,S0,p,Q,residual", columns)
