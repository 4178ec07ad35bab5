"""Self-test of the benchmark's checkers and tracer.

    python3 perfbench/selftest.py

Each checker first accepts a genuine output of its task, then must reject
the same output after one corruption: a shifted energy, a wrong node
count, a non-monotone time column, a rescaled pair, a perturbed
probability table, a failed exit code, and so on.  The tracer must give
identical counts on two traced runs of the same tasks.  Prints the
mismatch calls per level of ``find_eigenvalues`` on harmonic 0:40 and the
well 0:2000.  Exits 1 if any check misbehaves.
"""

from __future__ import annotations

import dataclasses
import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qmkit as qm  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Installed, Recorder, SpanStats  # noqa: E402

problems: list[str] = []


def expect(label: str, verdict: wl.Verdict, status: str) -> None:
    mark = "ok " if verdict.status == status else "BAD"
    print(f"{mark} {label}: {verdict.status} {verdict.note}")
    if verdict.status != status:
        problems.append(label)


def first(workload: str, kind: str, seed: int = 7) -> wl.Task:
    tasks = wl.WORKLOADS[workload].tasks(seed)
    return next(task for task in islice(tasks, 200) if task.kind == kind)


def spectrum() -> None:
    for kind in ("harmonic", "well", "tabulated"):
        task = first("spectrum", kind)
        energies, nodes = wl.spectrum_run(task)
        expect(f"spectrum {kind} genuine", wl.spectrum_check(task, (energies, nodes)), "ok")
        shifted = energies.copy()
        shifted[-1] += 1e-3
        expect(f"spectrum {kind} shifted energy", wl.spectrum_check(task, (shifted, nodes)),
               "fail")
        wrong = (nodes[0] + 1,) + tuple(nodes[1:])
        expect(f"spectrum {kind} wrong node count", wl.spectrum_check(task, (energies, wrong)),
               "fail")
    task = first("spectrum", "harmonic")
    energies, nodes = wl.spectrum_run(task)
    nudged = energies.copy()
    nudged[0] += 1e-4
    expect("spectrum fallback-sized error", wl.spectrum_check(task, (nudged, nodes)), "known")
    short = wl.spectrum_check(task, (energies[:-1], nodes[:-1]))
    expect("spectrum missing level", short, "fail")


def trajectory() -> None:
    task = first("trajectory", "pipeline")
    out = wl.trajectory_run(task)
    expect("pipeline genuine", wl.trajectory_check(task, out), "ok")
    t = out.t.copy()
    t[100], t[101] = t[101], t[100]
    expect("pipeline non-monotone t", wl.check_pipeline(dataclasses.replace(out, t=t)), "fail")
    expect("pipeline rescaled pair",
           wl.check_pipeline(dataclasses.replace(out, v=out.v * 1.01)), "fail")
    s0p = out.s0_prime.copy()
    s0p[len(s0p) // 2] = 0.0
    expect("pipeline S0' below bound",
           wl.check_pipeline(dataclasses.replace(out, s0_prime=s0p)), "fail")
    expect("pipeline large residual",
           wl.check_pipeline(dataclasses.replace(out, residual=1e-3)), "fail")
    cut = out.trajectory_csv[: out.trajectory_csv.rindex("\n", 0, -1) + 1]
    expect("pipeline truncated CSV",
           wl.check_pipeline(dataclasses.replace(out, trajectory_csv=cut)), "fail")

    task = first("trajectory", "scan")
    scan = dataclasses.replace(task, args={**task.args, "energy": 0.5})
    rows = wl.trajectory_run(scan)
    expect("scan genuine", wl.trajectory_check(scan, rows), "ok")
    bad = list(rows)
    bad[3] = dataclasses.replace(bad[3], momentum_deviation=float("nan"))
    expect("scan NaN row", wl.trajectory_check(scan, bad), "fail")
    expect("scan missing row", wl.trajectory_check(scan, rows[:-1]), "fail")
    expect("scan at E = 2 degenerate pair",
           wl.trajectory_error(task, qm.DegeneratePair("x")), "known")
    expect("scan at E = 0.5 degenerate pair",
           wl.trajectory_error(scan, qm.DegeneratePair("x")), "fail")
    expect("pipeline non-monotone time",
           wl.trajectory_error(first("trajectory", "pipeline"), qm.NonMonotoneTime("x")), "fail")


def audit() -> None:
    for kind in ("tomography", "no_signalling", "network", "moebius", "cocycle", "counting"):
        task = first("audit", kind)
        out = wl.audit_run(task)
        expect(f"audit {kind} genuine", wl.audit_check(task, out), "ok")
        item, rest = out[0], out[1:]
        if kind == "tomography":
            state, vectors, rows, back = item
            perturbed = rows.copy()
            perturbed[1, 0] += 1e-6
            perturbed[1, 1] -= 1e-6
            bad = (state, vectors, perturbed, back)
            expect("audit perturbed table", wl.audit_check(task, [bad] + rest), "fail")
            bad = (state, vectors, rows, back + 1e-9)
            expect("audit round-trip off", wl.audit_check(task, [bad] + rest), "fail")
            expect("audit missing result", wl.audit_check(task, rest), "fail")
            continue
        if kind == "network":
            expected, value, shuffled = item
            bad = (expected, value, shuffled + 1e-12)
        elif kind == "counting":
            count, monotone_ok, composite_ok, _ = item
            bad = (count, monotone_ok, composite_ok, 1)
        else:
            bad = item + 1e-3
        expect(f"audit {kind} corrupted", wl.audit_check(task, rest + [bad]), "fail")


def cli() -> None:
    for kind in ("spectrum", "trajectory", "audit"):
        task = first("cli", kind)
        code, stdout, stderr = wl.cli_run(task)
        expect(f"cli {kind} genuine", wl.check_cli(task, code, stdout, stderr), "ok")
        expect(f"cli {kind} exit code", wl.check_cli(task, 3, stdout, stderr), "fail")
        lines = stdout.splitlines()
        if kind == "spectrum":
            index, energy, nodes = lines[1].split(",")
            lines[1] = f"{index},{float(energy) + 1e-3!r},{nodes}"
        elif kind == "trajectory":
            lines[10], lines[11] = lines[11], lines[10]
        else:
            stdout = stdout.replace('"passed": true', '"passed": false')
            lines = stdout.splitlines()
        expect(f"cli {kind} corrupted output",
               wl.check_cli(task, 0, "\n".join(lines) + "\n", stderr), "fail")


def tracer() -> None:
    tasks = [first("spectrum", "harmonic"), first("trajectory", "pipeline")]
    counts = []
    for _ in range(2):
        recorder = Recorder()
        installed = Installed(recorder)
        for number, task in enumerate(tasks):
            recorder.task = number
            wl.WORKLOADS["spectrum" if number == 0 else "trajectory"].run(task)
        installed.remove()
        stats = SpanStats(recorder.spans)
        counts.append((dict(stats.calls), {k: dict(v) for k, v in stats.sizes.items()}))
    same = counts[0] == counts[1]
    print(f"{'ok ' if same else 'BAD'} tracer counts repeat exactly")
    if not same:
        problems.append("tracer repeat")
    if hasattr(sys.modules["qmkit.schrodinger1d"].shoot_mismatch, "__wrapped__"):
        problems.append("wrappers not removed")

    for label, potential, window in (
        ("harmonic 0:40", qm.Potential.harmonic(), (0.0, 40.0)),
        ("well 0:2000", qm.Potential.infinite_well(), (0.0, 2000.0)),
    ):
        recorder = Recorder()
        installed = Installed(recorder)
        qm.find_eigenvalues(potential, window, 64)
        installed.remove()
        stats = SpanStats(recorder.spans)
        levels = stats.sizes["schrodinger1d.find_eigenvalues"]["levels"]
        per_level = stats.calls["schrodinger1d.shoot_mismatch"] / levels
        print(f"    find_eigenvalues {label}: {levels} levels, "
              f"{per_level:.2f} shoot_mismatch calls per level")


def main() -> int:
    spectrum()
    trajectory()
    audit()
    cli()
    tracer()
    if problems:
        print(f"selftest: {len(problems)} problem(s): {', '.join(problems)}")
        return 1
    print("selftest: all checkers reject corrupted outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
