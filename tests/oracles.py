"""Independent reference computations used as test oracles.

Every numeric expectation frozen into the test suite traces back to one of
the helpers here: symbolic differentiation for Schwarzian-derivative
values, 2x2 matrix algebra for fractional-linear composition, closed-form
spectra and eigenfunctions for the built-in potentials, a full-sweep Numerov
node count and the levels found by bisecting on it, the plain Numerov
recurrence, a sample-by-sample walk that picks the trajectory grid,
brute-force path enumeration for amplitude networks, and trajectory time by
central differences in energy.
Only the last calls the library: it differences the library's reduced
action at neighbouring energies, the route to t = dS0/dE that the closed
form under test replaced.
"""

from __future__ import annotations

import math

import numpy as np
import sympy as sp

from qmkit import Potential, RealGrid, SampledFunction, reduced_action_from_pair, solution_pair
from qmkit.saqm import AmplitudeNetwork

_X = sp.Symbol("x")


def schwarzian_expr(f: sp.Expr) -> sp.Expr:
    """Symbolic Schwarzian derivative f'''/f' - (3/2)(f''/f')^2."""
    d1 = sp.diff(f, _X)
    d2 = sp.diff(f, _X, 2)
    d3 = sp.diff(f, _X, 3)
    return sp.simplify(d3 / d1 - sp.Rational(3, 2) * (d2 / d1) ** 2)


def sampled_with_exact_derivatives(f: sp.Expr, grid: RealGrid) -> SampledFunction:
    """Sample a sympy expression and its first three derivatives on a grid."""
    funcs = [sp.lambdify(_X, sp.diff(f, _X, order), "numpy") for order in range(4)]
    q = grid.points()
    # Constant derivatives lambdify to scalars; broadcast them to the grid.
    vals = [
        np.broadcast_to(np.asarray(fn(q), dtype=complex), q.shape).copy()
        for fn in funcs
    ]
    if all(np.abs(v.imag).max() == 0.0 for v in vals):
        vals = [v.real for v in vals]
    return SampledFunction(grid, vals[0], (vals[1], vals[2], vals[3]))


def schwarzian_samples(f: sp.Expr, grid: RealGrid) -> np.ndarray:
    """Numerical samples of the symbolic Schwarzian on a grid."""
    s = schwarzian_expr(f)
    return np.asarray(sp.lambdify(_X, s, "numpy")(grid.points()), dtype=complex)


def compose_moebius_coefficients(
    outer: tuple[complex, complex, complex, complex],
    inner: tuple[complex, complex, complex, complex],
) -> tuple[complex, complex, complex, complex]:
    """Coefficients of the composed map via 2x2 matrix multiplication."""
    m1 = np.array([[outer[0], outer[1]], [outer[2], outer[3]]], dtype=complex)
    m2 = np.array([[inner[0], inner[1]], [inner[2], inner[3]]], dtype=complex)
    prod = m1 @ m2
    return (prod[0, 0], prod[0, 1], prod[1, 0], prod[1, 1])


def harmonic_level(n: int, hbar: float = 1.0, omega: float = 1.0) -> float:
    """Closed-form oscillator level (n + 1/2) * hbar * omega."""
    return (n + 0.5) * hbar * omega


def well_level(n: int, length: float = 1.0, hbar: float = 1.0,
               mass: float = 1.0) -> float:
    """Closed-form hard-wall level n^2 pi^2 hbar^2 / (2 m L^2), n >= 1."""
    return (n * math.pi * hbar / length) ** 2 / (2.0 * mass)


def numerov_node_count(g: np.ndarray, h: float) -> int:
    """Sign changes of the Numerov solution of psi'' = -g psi that starts as
    (0, 1e-30) at the left end and is marched across the whole grid.

    This is the textbook node count of one full left-to-right sweep: the
    number of levels below the energy whenever the right end lies deep in
    a forbidden region (or on a hard wall).
    """
    c = (1.0 + h * h * np.asarray(g, dtype=float) / 12.0).tolist()
    prev, cur, nodes = 0.0, 1e-30, 0
    for i in range(1, len(c) - 1):
        nxt = ((12.0 - 10.0 * c[i]) * cur - c[i - 1] * prev) / c[i + 1]
        nodes += cur * nxt < 0.0
        prev, cur = cur, nxt
        if abs(cur) > 1e100:
            prev, cur = prev / abs(cur), cur / abs(cur)
    return int(nodes)


def numerov_level_by_count_bisection(g_of_energy, h: float, index: int,
                                     lo: float, hi: float) -> float:
    """Energy at which the full-sweep node count of :func:`numerov_node_count`
    steps from ``index`` to ``index + 1``, found by bisection inside [lo, hi]
    until the bracket is two adjacent floats; ``g_of_energy(E)`` gives g on
    the grid.  The upper end of that bracket is returned.

    No match, slope or guess enters: only the sign changes of the textbook
    march, so this referees where a shooting search puts level ``index``.
    """
    def nodes(energy):
        return numerov_node_count(g_of_energy(energy), h)

    if not nodes(lo) <= index < nodes(hi):
        raise ValueError(f"[{lo!r}, {hi!r}] does not bracket level {index}")
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if nodes(mid) <= index:
            lo = mid
        else:
            hi = mid
    return hi


def numerov_samples(g: np.ndarray, h: float, y0: float, y1: float) -> np.ndarray:
    """Samples of the Numerov solution of psi'' = -g psi seeded by (y0, y1),
    marched by the plain three-term recurrence with no rescaling."""
    c = (1.0 + h * h * np.asarray(g, dtype=float) / 12.0).tolist()
    y = [y0, y1]
    for i in range(1, len(c) - 1):
        y.append(((12.0 - 10.0 * c[i]) * y[i] - c[i - 1] * y[i - 1]) / c[i + 1])
    return np.array(y)


def scan_grid_by_walk(potential: Potential, energy: float,
                      *, min_points: int = 4001) -> tuple[RealGrid, float, float]:
    """The trajectory grid rule, walked one probe sample at a time.

    The box is [0, L] between hard walls, the table's range for a tabulated
    potential and the first of [-4, 4], ..., [-64, 64] (checked on 8001
    samples) whose ends are classically forbidden otherwise; a potential
    confined in none gets that first box, unpadded.  On a 16001-sample probe
    of the box, each turning point is padded outward sample by sample until
    the trapezoid sum of kappa = sqrt(2 m (V - E))/hbar reaches 3 (or the
    probe ends), and the spacing is 1/80 of the shortest de Broglie
    wavelength, with between ``min_points`` and 400001 points.  Returns the
    grid and the turning points.
    """
    if potential.hard_wall:
        return RealGrid(0.0, potential.length, min_points), 0.0, potential.length
    if potential.kind == "tabulated":
        box_lo, box_hi = float(potential.table_q[0]), float(potential.table_q[-1])
        probe = np.linspace(box_lo, box_hi, 16001)
        w = potential.evaluate(probe) - energy
        if w[0] <= 0.0 or w[-1] <= 0.0:
            return RealGrid(box_lo, box_hi, min_points), box_lo, box_hi
    else:
        for candidate in (4.0, 8.0, 16.0, 32.0, 64.0):
            w = potential.evaluate(np.linspace(-candidate, candidate, 8001)) - energy
            if w[0] > 0.0 and w[-1] > 0.0:
                box_lo, box_hi = -candidate, candidate
                break
        else:
            return RealGrid(-4.0, 4.0, min_points), -4.0, 4.0
        probe = np.linspace(box_lo, box_hi, 16001)
        w = potential.evaluate(probe) - energy

    allowed = np.nonzero(w < 0.0)[0]
    if len(allowed) == 0:
        raise ValueError("energy lies below the potential minimum")
    kappa = np.sqrt(2.0 * potential.mass * np.clip(w, 0.0, None)) / potential.hbar
    dq = probe[1] - probe[0]

    def padded(i: int, step: int) -> float:
        total = 0.0
        while 0 < i < len(probe) - 1:
            total += 0.5 * (kappa[i] + kappa[i + step]) * dq
            i += step
            if total >= 3.0:
                break
        return probe[i]

    q_lo, q_hi = padded(allowed[0], -1), padded(allowed[-1], +1)
    wavelength = 2.0 * math.pi * potential.hbar / math.sqrt(2.0 * potential.mass * float(-w.min()))
    n = min(max(int(math.ceil((q_hi - q_lo) / (wavelength / 80.0))) + 1, min_points), 400001)
    return (RealGrid(float(q_lo), float(q_hi), n),
            float(probe[allowed[0]]), float(probe[allowed[-1]]))


def floyd_time_by_central_difference(potential: Potential, energy: float,
                                     grid: RealGrid) -> np.ndarray:
    """Trajectory time t = dS0/dE on the central 90% of the grid, from 0.

    Central differences of the reduced action over E +/- dE at dE = 1e-2 and
    1e-3, Richardson-extrapolated to cancel their O(dE^2) error; roundoff
    barely touches steps this large.
    """
    def central(step):
        lo, hi = (reduced_action_from_pair(solution_pair(potential, energy + s, grid),
                                           hbar=potential.hbar, mass=potential.mass).S0
                  for s in (-step, step))
        return (hi - lo) / (2.0 * step)

    coarse, fine = central(1e-2), central(1e-3)
    t = fine + (fine - coarse) / 99.0
    trim = int(math.floor(0.05 * grid.n_points))
    t = t[trim:grid.n_points - trim]
    return t - t[0]


def harmonic_eigenfunction(n: int, q: np.ndarray) -> np.ndarray:
    """Normalized oscillator state n (hbar = m = omega = 1), signed so that
    its leftmost lobe is positive: (-1)^n H_n(q) exp(-q^2/2) / norm."""
    hermite = np.polynomial.hermite.Hermite.basis(n)(q)
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return (-1) ** n * hermite * np.exp(-0.5 * q * q) / norm


def well_eigenfunction(n: int, q: np.ndarray, length: float = 1.0) -> np.ndarray:
    """Normalized hard-wall state sqrt(2/L) sin(n pi q/L), n >= 1."""
    return math.sqrt(2.0 / length) * np.sin(n * math.pi * q / length)


def path_sum_amplitude(network: AmplitudeNetwork) -> complex:
    """Total amplitude by brute-force enumeration of source->sink paths.

    Sums the product of edge amplitudes over every directed path.  This is
    the defining semantics of series-parallel composition, evaluated here
    without any reduction machinery, so it can referee the reducer.
    """
    outgoing: dict = {}
    for tail, head, amplitude in network.edges:
        outgoing.setdefault(tail, []).append((head, amplitude))

    def walk(node, carried: complex) -> complex:
        if node == network.sink:
            return carried
        return sum(
            (walk(head, carried * amp) for head, amp in outgoing.get(node, [])),
            start=complex(0.0),
        )

    return walk(network.source, complex(1.0))
