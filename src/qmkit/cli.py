"""Command-line front end: spectra, trajectories, and invariant audits.

Data goes to stdout (or ``--out``); human-readable summaries go to
stderr.  Exit codes: 0 success, 1 usage or input error, 2 empty result,
3 audit invariant failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections.abc import Container
from typing import TYPE_CHECKING

import numpy as np

from .errors import (GridTooSmall, NegativeEigenvalue, NodeCountMismatch, NoEigenvalueInRange,
                     QmkitError)
from .grids import RealGrid, SampledFunction, _write_csv
from .schwarzian import MoebiusMap, cocycle_deviation, moebius_invariance_deviation, schwarzian

# The solver layers (schrodinger1d, qshje, saqm) and json are imported by the
# commands that use them, so a process pays only for what its subcommand runs.
if TYPE_CHECKING:
    from .schrodinger1d import Potential

__all__ = ["main", "cmd_spectrum", "cmd_trajectory", "cmd_audit"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_EMPTY = 2
_EXIT_AUDIT_FAILED = 3

_DEFAULT_TOLERANCES: dict[str, float] = {
    "curvature_analytic": 1e-6,
    "curvature_fd": 1e-3,
    "moebius_invariance": 1e-6,
    "cocycle": 1e-5,
    "mub_overlap": 1e-10,
    "tomography_roundtrip": 1e-10,
    "no_signalling": 1e-12,
    "amplitude_algebra": 1e-15,
}

class _UsageError(Exception):
    """Bad flags or unparsable inputs; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exceptions and reads
    a token starting with "-" and a digit, or "-." and a digit, as a value
    (``--grid -10:10:4001``), as argparse does from Python 3.13 on; no
    option of qmkit looks like that."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    """The command's parser: each subcommand's ``run`` default is the
    ``cmd_*`` function that runs it, read from this module at each call, so
    a rebound ``cmd_*`` (perfbench's tracer wraps them) is the one run."""
    parser = _Parser(prog="qmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # spectrum and trajectory solve a potential and write data; audit writes
    # only its JSON report.
    data = _Parser(add_help=False)
    data.add_argument("--potential", type=parse_potential, required=True, help=_POTENTIAL_HELP)
    data.add_argument("--grid", type=_parse_grid, metavar="QMIN:QMAX:N",
                      help="qmin:qmax:n, e.g. -10:10:4001")
    data.add_argument("--format", choices=("csv", "json"), default="csv")
    data.add_argument("--out", help="write data to this file instead of stdout")

    p_spec = sub.add_parser("spectrum", parents=[data],
                            help="bound-state energies and node counts")
    p_spec.add_argument("--range", type=_parse_range, required=True, dest="energy_range",
                        metavar="LO:HI", help="lo:hi")
    p_spec.add_argument("--count", type=int, default=64, help="maximum levels to report")
    p_spec.set_defaults(run=cmd_spectrum)

    p_traj = sub.add_parser("trajectory", parents=[data],
                            help="time-parameterized path (t, q, p)")
    p_traj.add_argument("--energy", type=float, required=True)
    p_traj.set_defaults(run=cmd_trajectory)

    p_audit = sub.add_parser("audit", help="run an invariant suite, emit a JSON report")
    p_audit.add_argument("suite", choices=(*_AUDIT_RUNNERS, "all"))
    p_audit.add_argument("--out", help="write the report to this file instead of stdout")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--tol-override", action="append", default=[], metavar="NAME=VALUE",
                         help="override an audit tolerance; repeatable")
    p_audit.set_defaults(run=cmd_audit)
    return parser


def _parse_grid(text: str) -> RealGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--grid wants qmin:qmax:n, got {text!r}")
    try:
        return RealGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except (ValueError, QmkitError) as exc:
        raise _UsageError(f"bad grid {text!r}: {exc}") from exc


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"--range wants lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise _UsageError(f"bad range {text!r}: {exc}") from exc
    return lo, hi


def _parse_assignments(items: list[str], names: Container[str], what: str) -> dict[str, float]:
    """Each NAME=VALUE item as {NAME: float(VALUE)}, the last item of a name
    winning; every NAME must be one of ``names``, and ``what`` names an item
    in messages."""
    values: dict[str, float] = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise _UsageError(f"{what} wants NAME=VALUE, got {item!r}")
        if name not in names:
            raise _UsageError(f"unknown {what} {name!r}")
        try:
            values[name] = float(value)
        except ValueError as exc:
            raise _UsageError(f"bad {what} value in {item!r}") from exc
    return values


def _parse_overrides(pairs: list[str]) -> dict[str, float]:
    """The audit tolerances: the defaults, each NAME=VALUE pair's value in
    place of its name's, every value positive and finite."""
    overrides = _parse_assignments(pairs, _DEFAULT_TOLERANCES, "tolerance")
    for name, value in overrides.items():
        if not 0 < value < math.inf:
            raise _UsageError(f"tolerance {name} must be positive and finite")
    return {**_DEFAULT_TOLERANCES, **overrides}


# Each ``--potential`` kind: its ``Potential`` kind, and the ``Potential``
# field each parameter sets.  Parameters left out keep the field's default.
_POTENTIAL_KINDS: dict[str, tuple[str, dict[str, str]]] = {
    "harmonic": ("harmonic", {"m": "mass", "w": "omega"}),
    "well": ("infinite_well", {"L": "length", "m": "mass"}),
    "linear": ("linear", {"a": "slope", "m": "mass"}),
    "free": ("free", {"m": "mass"}),
}

_POTENTIAL_HELP = ", ".join(
    f"{kind}[:{','.join(f'{name}=..' for name in fields)}]"
    for kind, (_, fields) in _POTENTIAL_KINDS.items()
) + " or table:PATH (a q,V CSV)"


def parse_potential(text: str) -> Potential:
    """A ``--potential`` value: ``table:PATH``, or a kind of
    ``_POTENTIAL_KINDS`` with optional ``:NAME=VALUE,...`` parameters."""
    from .schrodinger1d import Potential, load_potential_table

    kind, _, rest = text.partition(":")
    try:
        if kind == "table":
            if not rest:
                raise _UsageError("table potential wants table:PATH")
            return load_potential_table(rest)
        if kind in _POTENTIAL_KINDS:
            shape, fields = _POTENTIAL_KINDS[kind]
            params = _parse_assignments(rest.split(",") if rest else [], fields,
                                        "potential parameter")
            return Potential(shape, **{fields[name]: value for name, value in params.items()})
    except (OSError, ValueError, QmkitError) as exc:
        raise _UsageError(f"bad potential spec {text!r}: {exc}") from exc
    raise _UsageError(f"unknown potential kind {kind!r}")


def _emit(text: str, out_path: str | None) -> None:
    """Write text and a newline to stdout or to ``out_path``."""
    text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .schrodinger1d import find_eigenvalues

    e_range = args.energy_range
    try:
        result = find_eigenvalues(args.potential, e_range, args.count, grid=args.grid)
    except NoEigenvalueInRange as exc:
        print(f"no levels: {exc}", file=sys.stderr)
        return _EXIT_EMPTY
    if args.format == "json":
        import json
        _emit(json.dumps({"energies": list(result.energies),
                          "node_counts": list(result.node_counts)}), args.out)
    else:
        columns = (np.arange(len(result.energies)), result.energies, result.node_counts)
        _write_csv(sys.stdout if args.out is None else args.out, "index,energy,nodes", columns)
    print(f"{len(result.energies)} level(s) in [{e_range[0]}, {e_range[1]}]", file=sys.stderr)
    return _EXIT_OK


def cmd_trajectory(args: argparse.Namespace) -> int:
    from .qshje import (floyd_trajectory, qshje_residual, suggest_trajectory_grid,
                        write_trajectory_csv)

    grid, potential, energy = args.grid, args.potential, args.energy
    if grid is None:
        # The potential's generic default grid is wrong for trajectory work:
        # deep forbidden tails starve the time column of resolvable increments.
        grid = suggest_trajectory_grid(potential, energy)
    trajectory = floyd_trajectory(potential, energy, grid)
    residual = qshje_residual(trajectory.action, potential)
    if args.format == "json":
        import json
        _emit(json.dumps({"energy": trajectory.energy, "t": trajectory.t.tolist(),
                          "q": trajectory.q.tolist(), "p": trajectory.p.tolist()}), args.out)
    else:
        write_trajectory_csv(trajectory, sys.stdout if args.out is None else args.out)
    # Two digits: march roundoff alone moves the sup-norm by a few percent.
    print(
        f"{trajectory.t.size} samples, energy {energy}, "
        f"motion-law residual sup-norm {residual:.1e}",
        file=sys.stderr,
    )
    return _EXIT_OK


def _report(suite: str, checks) -> dict:
    """Turn ``(name, cases, max_deviation, tolerance)`` entries into a suite
    report; a check passes when its deviation is within its tolerance."""
    records = [
        {"name": name, "cases": int(cases), "max_deviation": float(deviation),
         "tolerance": float(tolerance), "passed": bool(deviation <= tolerance)}
        for name, cases, deviation, tolerance in checks
    ]
    return {"suite": suite, "checks": records, "passed": all(r["passed"] for r in records)}


def _audit_schwarzian(tol: dict[str, float], rng: np.random.Generator) -> list:
    grid = RealGrid(0.0, 1.0, 2001)
    x = grid.points()
    f = np.exp(2j * x)
    analytic = SampledFunction(grid, f, (2j * f, -4.0 * f, -8j * f))
    dev_analytic = np.abs(schwarzian(analytic).values - 2.0).max()
    dev_fd = np.abs(schwarzian(SampledFunction(grid, f)).values - 2.0).max()

    base_grid = RealGrid(-1.0, 1.0, 2001)
    xb = base_grid.points()

    def cubic(c3, c1, c0) -> SampledFunction:  # c3 x^3 + c1 x + c0 with exact derivatives
        return SampledFunction(base_grid, c3 * xb**3 + c1 * xb + c0,
                               (3.0 * c3 * xb**2 + c1, 6.0 * c3 * xb, np.full_like(xb, 6.0 * c3)))

    fixed = cubic(1.0, 1.0, 0.0)
    worst = 0.0
    produced = 0
    while produced < 20:
        a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
        if abs(a * d - b * c) < 0.5:
            continue
        if np.abs(c * fixed.values + d).min() < 0.2:
            continue
        worst = max(worst, moebius_invariance_deviation(fixed, MoebiusMap(a, b, c, d)))
        produced += 1

    # Monotone random cubics: c3 in [0.2, 1.5), c1 in [0.5, 2), c0 in [-1, 1).
    lo, hi = (0.2, 0.5, -1.0), (1.5, 2.0, 1.0)
    worst_cocycle = max(
        cocycle_deviation(cubic(*rng.uniform(lo, hi)), base_grid, cubic(*rng.uniform(lo, hi)),
                          xi=1.0, mass=1.0)
        for _ in range(10)
    )

    return [
        ("unit_phase_curvature_analytic", 1, dev_analytic, tol["curvature_analytic"]),
        ("unit_phase_curvature_fd", 1, dev_fd, tol["curvature_fd"]),
        ("moebius_invariance", 20, worst, tol["moebius_invariance"]),
        ("cocycle", 10, worst_cocycle, tol["cocycle"]),
    ]


def _audit_tomography(tol: dict[str, float], rng: np.random.Generator) -> list:
    from .saqm import (ProbabilityTable, density_from_table, mub_set, no_signalling_check,
                       random_density, table_from_density)

    mubs = {n: mub_set(n) for n in (2, 3, 5)}

    def roundtrip_error(dim: int) -> float:
        state = random_density(dim, rng)
        table = table_from_density(state, mubs[dim])
        back = density_from_table(table, mubs[dim])
        return float(np.linalg.norm(back.matrix - state.matrix))

    qubit = max(roundtrip_error(2) for _ in range(100))
    qutrit = max(roundtrip_error(3) for _ in range(50))

    # Certain outcomes on all three qubit bases reconstruct a matrix with
    # eigenvalues (1 +- sqrt(3)) / 2, which must be rejected as unphysical.
    overfilled = ProbabilityTable(np.array([[1.0, 0.0]] * 3))
    try:
        lowest = density_from_table(overfilled, mubs[2]).eigenvalues.min()
    except NegativeEigenvalue as exc:
        lowest = exc.min_eigenvalue

    # Second-factor choices: the sigma_z and sigma_x bases.
    worst_signal = max(
        no_signalling_check(random_density(4, rng), mubs[2].bases[:2], mubs[2])
        for _ in range(50)
    )

    return [
        ("mub_overlap", len(mubs), max(m.overlap_deviation() for m in mubs.values()),
         tol["mub_overlap"]),
        ("qubit_roundtrip", 100, qubit, tol["tomography_roundtrip"]),
        ("qutrit_roundtrip", 50, qutrit, tol["tomography_roundtrip"]),
        ("overfilled_table_min_eigenvalue", 1, abs(lowest - (0.5 - math.sqrt(3.0) / 2.0)),
         1e-12),
        ("no_signalling", 50, worst_signal, tol["no_signalling"]),
    ]


def _audit_counting(tol: dict[str, float], rng: np.random.Generator) -> list:
    """Exact checks with tolerance 0: each deviation counts broken
    identities, except the g identity's, which is its largest integer defect."""
    from .saqm import hardy_counts, real_space_violation, wootters_g_identity

    checks = []
    for (n1, n2), joint, product in (((2, 2), 10, 9), ((2, 3), 21, 18)):
        v = real_space_violation(n1, n2)
        broken = (v.K_joint != joint) + (v.K_product != product) + (not v.violates)
        name = f"real_pair_{n1}x{n2}_K_joint_{joint}_K_product_{product}"
        checks.append((name, 1, broken, 0))

    powers = [(n**r, hardy_counts(n, r)) for r in (1, 2) for n in range(1, 13)]
    broken = sum(
        (not c.monotone_ok) + (not c.composite_ok) + (c.count != power) for power, c in powers
    )
    checks.append(("power_law_structure", len(powers), broken, 0))

    sizes = (2, 3, 5)
    g = [wootters_g_identity(n1, n2, r) for r in (1, 2) for n1 in sizes for n2 in sizes]
    checks.append(("g_identity", len(g), max(g), 0))
    return checks


def _audit_amplitudes(tol: dict[str, float], rng: np.random.Generator) -> list:
    from .saqm import (compose_amplitudes, parallel_network, random_series_parallel,
                       reverse_amplitude, series_network, shuffled_network, single_edge)

    worst_tree = 0.0
    worst_shuffle = 0.0
    for _ in range(100):
        network, expected = random_series_parallel(rng)
        worst_tree = max(worst_tree, abs(compose_amplitudes(network) - expected))
        permuted = shuffled_network(network, rng)
        worst_shuffle = max(worst_shuffle, abs(compose_amplitudes(permuted) - expected))

    worst_distributive = 0.0
    for _ in range(50):
        a, b, c = (complex(rng.normal(), rng.normal()) for _ in range(3))
        lhs = compose_amplitudes(
            series_network(parallel_network(single_edge(a), single_edge(b)), single_edge(c))
        )
        worst_distributive = max(worst_distributive, abs(lhs - (a * c + b * c)))

    amps = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    total = sum(a * reverse_amplitude(a) for a in amps)

    return [
        ("tree_value", 100, worst_tree, tol["amplitude_algebra"]),
        ("order_invariance", 100, worst_shuffle, tol["amplitude_algebra"]),
        ("distributivity", 50, worst_distributive, 1e-12),
        ("reverse_completeness", 1, abs(total - 1.0), 1e-15),
    ]


# The suites `audit all` runs, drawing from one generator in this order.
_AUDIT_RUNNERS = {
    "schwarzian": _audit_schwarzian,
    "tomography": _audit_tomography,
    "counting": _audit_counting,
    "amplitudes": _audit_amplitudes,
}


def cmd_audit(args: argparse.Namespace) -> int:
    import json

    tol = _parse_overrides(args.tol_override)
    rng = np.random.default_rng(args.seed)
    if args.suite == "all":
        suites = {name: _report(name, run(tol, rng)) for name, run in _AUDIT_RUNNERS.items()}
        report = {"suites": suites, "passed": all(s["passed"] for s in suites.values())}
    else:
        report = _report(args.suite, _AUDIT_RUNNERS[args.suite](tol, rng))
    _emit(json.dumps(report, indent=2), args.out)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"audit {args.suite}: {status}", file=sys.stderr)
    return _EXIT_OK if report["passed"] else _EXIT_AUDIT_FAILED


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (GridTooSmall, NodeCountMismatch) as exc:  # from a spectrum or trajectory grid
        print(f"error: {exc}; try a finer --grid qmin:qmax:n", file=sys.stderr)
        return _EXIT_USAGE
    except (_UsageError, ValueError, QmkitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
