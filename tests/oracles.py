"""Independent reference computations used as test oracles.

Every numeric expectation frozen into the test suite traces back to one of
the helpers here: symbolic differentiation for Schwarzian-derivative
values, 2x2 matrix algebra for fractional-linear composition, closed-form
spectra and eigenfunctions for the built-in potentials, a full-sweep Numerov
node count and the levels found by bisecting on it, the plain Numerov
recurrence (in float or long double), the shooting slope's sums of squares
taken in log form, the Matrix Numerov spectrum of one dense eigensolve, a
sample-by-sample walk that picks the trajectory grid,
brute-force path enumeration for amplitude networks, their validity by
walking forward from the source and backward from the sink, random
series-parallel networks built by composing checked networks, and
trajectory time by central differences in energy.
Only the last two call the library: one composes networks with
``series_network`` and ``parallel_network``, the route that building one
network from its composed edges replaced, and one differences the
library's reduced action at neighbouring energies, the route to
t = dS0/dE that the closed form under test replaced.
"""

from __future__ import annotations

import math

import numpy as np
import sympy as sp

from qmkit import Potential, RealGrid, SampledFunction, reduced_action_from_pair, solution_pair
from qmkit.saqm import AmplitudeNetwork, parallel_network, series_network, single_edge
from qmkit.saqm.amplitudes import _AMPLITUDE_POOL

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
    return numerov_recurrence(1.0 + h * h * np.asarray(g, dtype=float) / 12.0, y0, y1)


def numerov_recurrence(c: np.ndarray, y0: float, y1: float, dtype=float) -> np.ndarray:
    """The plain recurrence c_{i+1} y_{i+1} = (12 - 10 c_i) y_i - c_{i-1} y_{i-1}
    over the coefficients ``c``, seeded by (y0, y1) and run in ``dtype``
    (np.longdouble gives a reference for float roundoff), as float samples."""
    c = [dtype(value) for value in np.asarray(c, dtype=float).tolist()]
    twelve, ten = dtype(12.0), dtype(10.0)
    y = [dtype(y0), dtype(y1)]
    for i in range(1, len(c) - 1):
        y.append(((twelve - ten * c[i]) * y[i] - c[i - 1] * y[i - 1]) / c[i + 1])
    return np.array(y, dtype=dtype).astype(float)


def log_form_match_slope(left, right, h: float, mass: float = 1.0,
                         hbar: float = 1.0) -> float:
    """|dw/dE| of one shooting sweep from its two marches (ratios, y0, y1),
    with every sum taken in log form.

    Each march is rebuilt as log|y| by a cumulative sum of log|factor| over
    the factors (y0, r_0, r_1, ...): an exact zero sample's factor is read
    as 1 and its log set to -inf (the next ratio bridges it), and a zero y0
    hands its factor to y1.  Its samples up to the next-to-last are squared
    on the scale of its last two (the tail's length, by log-sum-exp); a
    decaying seed (y0 = 1, r_0 = e^{kappa h} > 1) weights its sample by
    e^{kappa h} c_0^2/(2 kappa h), c_0 = 1 - (kappa h)^2/12.  The slope is
    2 m (h/hbar)^2 times both marches' sums.  No march overflows here, so
    this referees the solver's sums over samples scaled to their end.
    """
    weight = 0.0
    for ratios, y0, y1 in (left, right):
        factors = np.concatenate([[y0], ratios])
        zero = np.flatnonzero(factors == 0.0)
        factors[zero] = 1.0
        if not y0:
            factors[1] = y1
        logs = np.cumsum(np.log(np.abs(factors)))
        logs[zero] = -np.inf
        p, q = float(logs[-2]), float(logs[-1])
        norm = max(p, q) + 0.5 * math.log1p(math.exp(-2.0 * abs(p - q)))
        squares = np.exp(2.0 * (logs[:-1] - norm))
        first = float(ratios[0])
        if y0 and first > 1.0:
            kappa_h = math.log(first)
            squares[0] *= first * (1.0 - kappa_h * kappa_h / 12.0) ** 2 / (2.0 * kappa_h)
        weight += float(squares.sum())
    return 2.0 * mass * (h / hbar) ** 2 * weight


def matrix_numerov_levels(v: np.ndarray, h: float) -> np.ndarray:
    """Eigenvalues of the Matrix Numerov Hamiltonian -(1/2) B^-1 A + diag V
    (hbar = m = 1) over the potential ``v`` sampled on a grid of spacing
    ``h``, on its interior points with psi = 0 at both ends (Pillai, Goglio
    & Walker, Am. J. Phys. 80, 1017 (2012)), in ascending order.

    A = (1, -2, 1)/h^2 and B = (1, 10, 1)/12 are the Numerov stencils.  No
    march enters: one dense eigensolve referees the shooting search on the
    same discretization.  A and B are polynomials in one shift matrix, so
    they commute and B^-1 A is symmetric up to roundoff.
    """
    n = len(v) - 2
    shift = np.eye(n, k=1) + np.eye(n, k=-1)
    a = (shift - 2.0 * np.eye(n)) / (h * h)
    b = (shift + 10.0 * np.eye(n)) / 12.0
    kinetic = -0.5 * np.linalg.solve(b, a)
    return np.linalg.eigvalsh(0.5 * (kinetic + kinetic.T) + np.diag(v[1:-1]))


def scan_grid_by_walk(potential: Potential, energy: float,
                      *, min_points: int = 4001) -> tuple[RealGrid, float, float]:
    """The trajectory grid rule, walked one probe sample at a time.

    The box is [0, L] between hard walls, whose floor is 0: an energy below
    it raises ValueError.  It is the table's range for a tabulated
    potential.  Otherwise it is the first of [-4 * 2^k, 4 * 2^k], k = 0,
    1, ..., 64 (checked on 8001 samples) whose ends are classically
    forbidden.  A potential confined in no box gets the table's range or
    [-4, 4], unpadded.  On a 16001-sample probe of the box, each turning
    point is padded outward sample by sample until the trapezoid sum of
    kappa = sqrt(2 m (V - E))/hbar reaches 3 (or the probe ends).  A box
    that is not a table's is halved, down to k = -64, for as long as both
    padded ends lie strictly inside the halved box, and padded afresh on
    its own probe.  The spacing is 1/80 of the shortest de Broglie
    wavelength, with between ``min_points`` and 400001 points.  Returns the
    grid and the turning points.
    """
    if potential.hard_wall:
        if energy < 0.0:
            raise ValueError("energy lies below the potential minimum")
        return RealGrid(0.0, potential.length, min_points), 0.0, potential.length
    if potential.kind == "tabulated":
        box_lo, box_hi = float(potential.table_q[0]), float(potential.table_q[-1])
        w = potential.evaluate(np.array([box_lo, box_hi])) - energy
        if w[0] <= 0.0 or w[-1] <= 0.0:
            return RealGrid(box_lo, box_hi, min_points), box_lo, box_hi
    else:
        def confined(size: float) -> bool:
            w = potential.evaluate(np.linspace(-size, size, 8001)) - energy
            return w[0] > 0.0 and w[-1] > 0.0

        size = next((4.0 * 2.0**k for k in range(65) if confined(4.0 * 2.0**k)), None)
        if size is None:
            return RealGrid(-4.0, 4.0, min_points), -4.0, 4.0
        box_lo, box_hi = -size, size

    def padded_walk(box_lo: float, box_hi: float):
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

        return (padded(allowed[0], -1), padded(allowed[-1], +1),
                probe[allowed[0]], probe[allowed[-1]], w)

    q_lo, q_hi, turn_lo, turn_hi, w = padded_walk(box_lo, box_hi)
    while (potential.kind != "tabulated" and box_hi / 2.0 >= 4.0 * 2.0**-64
           and box_lo / 2.0 < q_lo and q_hi < box_hi / 2.0):
        box_lo, box_hi = box_lo / 2.0, box_hi / 2.0
        q_lo, q_hi, turn_lo, turn_hi, w = padded_walk(box_lo, box_hi)

    wavelength = 2.0 * math.pi * potential.hbar / math.sqrt(2.0 * potential.mass * float(-w.min()))
    n = min(max(int(math.ceil((q_hi - q_lo) / (wavelength / 80.0))) + 1, min_points), 400001)
    return RealGrid(float(q_lo), float(q_hi), n), float(turn_lo), float(turn_hi)


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


def _reachable(starts, adjacency: dict) -> set:
    """Every node reached from ``starts`` along ``adjacency``, starts included."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def network_defect(pairs, source, sink) -> str | None:
    """"cycle" where a node of the (tail, head) ``pairs`` reaches itself,
    "stranded" where a node (``source`` and ``sink`` included) is not both
    reached from the source and reaching the sink, else None."""
    successors: dict = {}
    predecessors: dict = {}
    for tail, head in pairs:
        successors.setdefault(tail, []).append(head)
        predecessors.setdefault(head, []).append(tail)
    if any(node in _reachable(heads, successors) for node, heads in successors.items()):
        return "cycle"
    nodes = {source, sink, *successors, *predecessors}
    on_paths = _reachable([source], successors) & _reachable([sink], predecessors)
    return "stranded" if nodes - on_paths else None


def composed_series_parallel(rng: np.random.Generator, max_edges: int):
    """Random series-parallel network and its algebraic amplitude, built by
    composing a checked network at every level of the recursion, with the
    draws of ``rng`` that ``random_series_parallel`` makes."""

    def build(budget: int):
        if budget <= 1 or rng.random() < 0.3:
            amp = _AMPLITUDE_POOL[int(rng.integers(len(_AMPLITUDE_POOL)))]
            return single_edge(amp), amp
        left_budget = int(rng.integers(1, budget))
        first, a1 = build(left_budget)
        second, a2 = build(budget - left_budget)
        if rng.random() < 0.5:
            return series_network(first, second), a1 * a2
        return parallel_network(first, second), a1 + a2

    return build(int(rng.integers(2, max_edges + 1)))
