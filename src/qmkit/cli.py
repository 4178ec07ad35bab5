"""Command-line front end: spectra, trajectories, and invariant audits.

Data goes to stdout (or ``--out``); human-readable summaries go to
stderr.  Exit codes: 0 success, 1 usage or input error, 2 empty result,
3 audit invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from .errors import NegativeEigenvalue, NodeCountMismatch, NoEigenvalueInRange, QmkitError
from .grids import RealGrid, SampledFunction
from .qshje import floyd_trajectory, qshje_residual, suggest_trajectory_grid, write_trajectory_csv
from .schrodinger1d import Potential, find_eigenvalues, load_potential_table
from .schwarzian import MoebiusMap, cocycle_deviation, moebius_invariance_deviation, schwarzian
from .saqm import (
    ProbabilityTable,
    compose_amplitudes,
    density_from_table,
    hardy_counts,
    mub_set,
    no_signalling_check,
    parallel_network,
    random_density,
    random_series_parallel,
    real_space_violation,
    reverse_amplitude,
    series_network,
    shuffled_network,
    single_edge,
    table_from_density,
    wootters_g_identity,
)

__all__ = ["RunConfig", "main", "cmd_spectrum", "cmd_trajectory", "cmd_audit"]

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

_AUDIT_SUITES = ("schwarzian", "tomography", "counting", "amplitudes")


class _UsageError(Exception):
    """Bad flags or unparsable inputs; mapped to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run-wide settings shared by all subcommands."""

    hbar: float = 1.0
    mass: float = 1.0
    grid: RealGrid | None = None
    output_format: str = "csv"
    output_path: str | None = None
    tolerances: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf and 0 < self.mass < math.inf):
            raise ValueError("physical constants must be positive and finite")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        merged = dict(_DEFAULT_TOLERANCES)
        for name, value in self.tolerances.items():
            if name not in _DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance name {name!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"tolerance {name} must be positive and finite")
            merged[name] = value
        object.__setattr__(self, "tolerances", merged)


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exceptions."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--grid", help="qmin:qmax:n, e.g. -10:10:4001")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write data to this file instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--tol-override",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override an audit tolerance; repeatable",
        )

    p_spec = sub.add_parser("spectrum", help="bound-state energies and node counts")
    p_spec.add_argument("--potential", required=True)
    p_spec.add_argument("--range", required=True, dest="energy_range", help="lo:hi")
    p_spec.add_argument("--count", type=int, default=64, help="maximum levels to report")
    common(p_spec)

    p_traj = sub.add_parser("trajectory", help="time-parameterized path (t, q, p)")
    p_traj.add_argument("--potential", required=True)
    p_traj.add_argument("--energy", type=float, required=True)
    p_traj.add_argument("--de", type=float, default=None, help="energy step for dt = dS/dE")
    common(p_traj)

    p_audit = sub.add_parser("audit", help="run an invariant suite, emit a JSON report")
    p_audit.add_argument("suite", choices=_AUDIT_SUITES + ("all",))
    common(p_audit)

    return parser


def _parse_grid(text: str | None) -> RealGrid | None:
    if text is None:
        return None
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _UsageError(f"--range bounds must be finite, got {text!r}")
    if not lo < hi:
        raise _UsageError(f"--range needs lo < hi, got {text!r}")
    return lo, hi


def _parse_overrides(pairs: list[str]) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise _UsageError(f"--tol-override wants NAME=VALUE, got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise _UsageError(f"bad tolerance value in {pair!r}") from exc
    return overrides


def _parse_params(text: str, allowed: dict[str, float]) -> dict[str, float]:
    """Parse 'k=v,k=v' against a dict of allowed keys with defaults."""
    params = dict(allowed)
    if not text:
        return params
    for item in text.split(","):
        key, sep, value = item.partition("=")
        if not sep or key not in allowed:
            raise _UsageError(f"bad potential parameter {item!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise _UsageError(f"bad potential parameter {item!r}") from exc
    return params


def parse_potential(text: str, *, hbar: float = 1.0, mass: float = 1.0) -> Potential:
    """Mini-grammar: harmonic[:m=..,w=..], well:L=.., linear:a=..,
    table:PATH, free."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "harmonic":
            p = _parse_params(rest, {"m": mass, "w": 1.0})
            return Potential.harmonic(mass=p["m"], omega=p["w"], hbar=hbar)
        if kind == "well":
            p = _parse_params(rest, {"L": 1.0, "m": mass})
            return Potential.infinite_well(length=p["L"], mass=p["m"], hbar=hbar)
        if kind == "linear":
            p = _parse_params(rest, {"a": 1.0, "m": mass})
            return Potential.linear(slope=p["a"], mass=p["m"], hbar=hbar)
        if kind == "free":
            if rest:
                p = _parse_params(rest, {"m": mass})
                return Potential.free(mass=p["m"], hbar=hbar)
            return Potential.free(mass=mass, hbar=hbar)
        if kind == "table":
            if not rest:
                raise _UsageError("table potential wants table:PATH")
            return load_potential_table(rest, mass=mass, hbar=hbar)
    except (OSError, ValueError, QmkitError) as exc:
        raise _UsageError(f"bad potential spec {text!r}: {exc}") from exc
    raise _UsageError(f"unknown potential kind {kind!r}")


def _emit(text: str, out_path: str | None) -> None:
    """Write text ending in a newline to stdout or to ``out_path``."""
    text = text if text.endswith("\n") else text + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_spectrum(
    config: RunConfig, potential_text: str, range_text: str, count: int
) -> int:
    potential = parse_potential(text=potential_text, hbar=config.hbar, mass=config.mass)
    e_range = _parse_range(range_text)
    if count < 1:
        raise _UsageError("--count must be at least 1")
    try:
        result = find_eigenvalues(potential, e_range, count, grid=config.grid)
    except NoEigenvalueInRange as exc:
        print(f"no levels: {exc}", file=sys.stderr)
        return _EXIT_EMPTY
    except NodeCountMismatch as exc:
        print(f"error: {exc}; try a finer --grid qmin:qmax:n", file=sys.stderr)
        return _EXIT_USAGE
    if config.output_format == "json":
        payload = json.dumps(
            {
                "energies": list(result.energies),
                "node_counts": list(result.node_counts),
            }
        )
    else:
        lines = ["index,energy,nodes"]
        for i, (energy, nodes) in enumerate(zip(result.energies, result.node_counts)):
            lines.append("%d,%.17g,%d" % (i, energy, nodes))
        payload = "\n".join(lines) + "\n"
    _emit(payload, config.output_path)
    print(f"{len(result.energies)} level(s) in [{e_range[0]}, {e_range[1]}]", file=sys.stderr)
    return _EXIT_OK


def cmd_trajectory(
    config: RunConfig, potential_text: str, energy: float, de: float | None
) -> int:
    potential = parse_potential(text=potential_text, hbar=config.hbar, mass=config.mass)
    if not math.isfinite(energy) or (de is not None and not math.isfinite(de)):
        raise _UsageError("--energy and --de must be finite")
    # The potential's generic default grid is wrong for trajectory work:
    # deep forbidden tails starve the time column of resolvable increments.
    grid = config.grid if config.grid is not None else suggest_trajectory_grid(
        potential, energy
    )
    trajectory = floyd_trajectory(potential, energy, grid, dE=de)
    residual = qshje_residual(trajectory.action, potential)
    if config.output_format == "json":
        payload = json.dumps(
            {
                "energy": trajectory.energy,
                "t": trajectory.t.tolist(),
                "q": trajectory.q.tolist(),
                "p": trajectory.p.tolist(),
            }
        )
        _emit(payload, config.output_path)
    else:
        target = sys.stdout if config.output_path is None else config.output_path
        write_trajectory_csv(trajectory, target)
    print(
        f"{trajectory.t.size} samples, energy {energy}, "
        f"motion-law residual sup-norm {residual:.3e}",
        file=sys.stderr,
    )
    return _EXIT_OK


def _check(name: str, deviation: float, tolerance: float) -> dict:
    return {"name": name, "max_deviation": deviation, "tolerance": tolerance,
            "passed": deviation < tolerance}


def _audit_schwarzian(config: RunConfig, rng: np.random.Generator) -> dict:
    tol = config.tolerances

    grid = RealGrid(0.0, 1.0, 2001)
    x = grid.points()
    f = np.exp(2j * x)
    analytic = SampledFunction(grid, f, (2j * f, -4.0 * f, -8j * f))
    dev_analytic = float(np.abs(schwarzian(analytic).values - 2.0).max())
    dev_fd = float(np.abs(schwarzian(SampledFunction(grid, f)).values - 2.0).max())

    base_grid = RealGrid(-1.0, 1.0, 2001)
    xb = base_grid.points()
    cubic = SampledFunction(
        base_grid,
        xb**3 + xb,
        (3.0 * xb**2 + 1.0, 6.0 * xb, np.full_like(xb, 6.0)),
    )
    worst = 0.0
    produced = 0
    while produced < 20:
        a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
        if abs(a * d - b * c) < 0.5:
            continue
        if np.abs(c * cubic.values + d).min() < 0.2:
            continue
        worst = max(worst, moebius_invariance_deviation(cubic, MoebiusMap(a, b, c, d)))
        produced += 1

    def random_monotone_cubic() -> SampledFunction:
        c3 = rng.uniform(0.2, 1.5)
        c1 = rng.uniform(0.5, 2.0)
        c0 = rng.uniform(-1.0, 1.0)
        vals = c3 * xb**3 + c1 * xb + c0
        return SampledFunction(
            base_grid,
            vals,
            (3.0 * c3 * xb**2 + c1, 6.0 * c3 * xb, np.full_like(xb, 6.0 * c3)),
        )

    worst_cocycle = 0.0
    for _ in range(10):
        qa = random_monotone_cubic()
        qc = random_monotone_cubic()
        worst_cocycle = max(
            worst_cocycle,
            cocycle_deviation(qa, base_grid, qc, xi=config.hbar, mass=config.mass),
        )

    checks = [
        _check("unit_phase_curvature_analytic", dev_analytic, tol["curvature_analytic"]),
        _check("unit_phase_curvature_fd", dev_fd, tol["curvature_fd"]),
        _check("moebius_invariance_20_maps", worst, tol["moebius_invariance"]),
        _check("cocycle_10_pairs", worst_cocycle, tol["cocycle"]),
    ]
    return {"suite": "schwarzian", "checks": checks, "passed": all(c["passed"] for c in checks)}


def _audit_tomography(config: RunConfig, rng: np.random.Generator) -> dict:
    tol = config.tolerances
    report: dict = {"suite": "tomography"}
    ok = True

    overlap_errors = {}
    for n in (2, 3, 5):
        mubs = mub_set(n)
        worst = 0.0
        for i in range(len(mubs.bases)):
            for j in range(i + 1, len(mubs.bases)):
                cross = np.abs(mubs.bases[i].vectors.conj() @ mubs.bases[j].vectors.T) ** 2
                worst = max(worst, float(np.abs(cross - 1.0 / n).max()))
        overlap_errors[str(n)] = worst
        ok = ok and worst < tol["mub_overlap"]
    report["mub_overlap_errors"] = overlap_errors

    def roundtrip_error(dim: int, mubs) -> float:
        state = random_density(dim, rng)
        table = table_from_density(state, mubs)
        back = density_from_table(table, mubs)
        return float(np.linalg.norm(back.matrix - state.matrix))

    mubs2 = mub_set(2)
    mubs3 = mub_set(3)
    qubit_errors = [roundtrip_error(2, mubs2) for _ in range(100)]
    qutrit_errors = [roundtrip_error(3, mubs3) for _ in range(50)]
    report["roundtrip_errors"] = qubit_errors
    report["roundtrip_errors_qutrit"] = qutrit_errors
    ok = ok and max(qubit_errors + qutrit_errors) < tol["tomography_roundtrip"]

    try:
        density_from_table(
            ProbabilityTable(np.array([[1.0, 0.0]] * 3)), mubs2
        )
        report["overfilled_table_rejected"] = False
        ok = False
    except NegativeEigenvalue as exc:
        report["overfilled_table_rejected"] = True
        report["overfilled_table_min_eigenvalue"] = exc.min_eigenvalue

    sigma_z = mubs2.bases[0]
    sigma_x = mubs2.bases[1]
    worst_signal = 0.0
    for _ in range(50):
        joint = random_density(4, rng)
        worst_signal = max(
            worst_signal, no_signalling_check(joint, (sigma_z, sigma_x), mubs2)
        )
    report["no_signalling_max"] = worst_signal
    ok = ok and worst_signal < tol["no_signalling"]

    report["passed"] = ok
    return report


def _audit_counting(config: RunConfig, rng: np.random.Generator) -> dict:
    report: dict = {"suite": "counting"}
    ok = True

    pair = report["real_qubit_pair"] = asdict(real_space_violation(2, 2))
    ok = ok and pair == {"K_joint": 10, "K_product": 9, "violates": True}

    mixed = report["real_mixed_pair"] = asdict(real_space_violation(2, 3))
    ok = ok and mixed == {"K_joint": 21, "K_product": 18, "violates": True}

    structure_ok = True
    for r in (1, 2):
        for n in range(1, 13):
            counts = hardy_counts(n, r)
            structure_ok = structure_ok and counts.monotone_ok and counts.composite_ok
            structure_ok = structure_ok and counts.count == n**r
    report["power_law_checks_ok"] = structure_ok
    ok = ok and structure_ok

    deviations = []
    for r in (1, 2):
        for n1 in (2, 3, 5):
            for n2 in (2, 3, 5):
                deviations.append(wootters_g_identity(n1, n2, r))
    report["g_identity_max_deviation"] = max(deviations)
    ok = ok and max(deviations) == 0

    report["passed"] = ok
    return report


def _audit_amplitudes(config: RunConfig, rng: np.random.Generator) -> dict:
    tol = config.tolerances
    report: dict = {"suite": "amplitudes"}
    ok = True

    worst_tree = 0.0
    worst_shuffle = 0.0
    for _ in range(100):
        network, expected = random_series_parallel(rng)
        worst_tree = max(worst_tree, abs(compose_amplitudes(network) - expected))
        permuted = shuffled_network(network, rng)
        worst_shuffle = max(worst_shuffle, abs(compose_amplitudes(permuted) - expected))
    report["tree_value_max_deviation"] = worst_tree
    report["order_invariance_max_deviation"] = worst_shuffle
    ok = ok and worst_tree <= tol["amplitude_algebra"]
    ok = ok and worst_shuffle <= tol["amplitude_algebra"]

    worst_distributive = 0.0
    for _ in range(50):
        a, b, c = (complex(rng.normal(), rng.normal()) for _ in range(3))
        lhs = compose_amplitudes(
            series_network(parallel_network(single_edge(a), single_edge(b)), single_edge(c))
        )
        worst_distributive = max(worst_distributive, abs(lhs - (a * c + b * c)))
    report["distributivity_max_deviation"] = worst_distributive
    ok = ok and worst_distributive <= 1e-12

    amps = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    total = sum(a * reverse_amplitude(a) for a in amps)
    report["reverse_completeness_deviation"] = abs(total - 1.0)
    ok = ok and abs(total - 1.0) < 1e-15

    report["passed"] = ok
    return report


_AUDIT_RUNNERS = {
    "schwarzian": _audit_schwarzian,
    "tomography": _audit_tomography,
    "counting": _audit_counting,
    "amplitudes": _audit_amplitudes,
}


def _plain(value):
    """Recursively strip numpy scalar types so json.dumps accepts the report."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def cmd_audit(config: RunConfig, suite: str) -> int:
    rng = np.random.default_rng(config.seed)
    if suite == "all":
        suites = {name: _AUDIT_RUNNERS[name](config, rng) for name in _AUDIT_SUITES}
        report = {"suites": suites, "passed": all(s["passed"] for s in suites.values())}
    else:
        report = _AUDIT_RUNNERS[suite](config, rng)
    report = _plain(report)
    _emit(json.dumps(report, indent=2), config.output_path)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"audit {suite}: {status}", file=sys.stderr)
    return _EXIT_OK if report["passed"] else _EXIT_AUDIT_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = RunConfig(
            grid=_parse_grid(getattr(args, "grid", None)),
            output_format=getattr(args, "format", "csv"),
            output_path=getattr(args, "out", None),
            tolerances=_parse_overrides(getattr(args, "tol_override", [])),
            seed=getattr(args, "seed", 0),
        )
        if args.command == "spectrum":
            return cmd_spectrum(config, args.potential, args.energy_range, args.count)
        if args.command == "trajectory":
            return cmd_trajectory(config, args.potential, args.energy, args.de)
        return cmd_audit(config, args.suite)
    except (_UsageError, ValueError, QmkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
