"""qmkit benchmark: one seeded workload per run, metrics as JSON on stdout.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the run measures the workload untraced for ``--seconds``
and prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes over a fixed prefix of the task stream and
prints the per-layer metrics.  The last stdout line is the result object;
the line before it (``report``) adds the figures that are not bounded
metrics: failure fractions, accuracy, the tail percentile and the sample
count.  See NOTES.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Setup is repeated in this many child processes; setup_s is the median.
SETUP_CHILDREN = 2
#: Wall-clock probes of interpreter start and `import qmkit` per trace run.
PROBES = 3


def import_qmkit():
    """Import qmkit from this checkout's src/ or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import qmkit
    except ImportError as exc:
        sys.exit(f"perfbench: qmkit is not importable from {SRC}: {exc}")
    if SRC.resolve() not in Path(qmkit.__file__).resolve().parents:
        sys.exit(f"perfbench: qmkit came from {qmkit.__file__}, not from {SRC}")
    return qmkit


def cli_child(argv: list[str]) -> int:
    """Run ``qmkit.cli.main(argv)`` under the wrappers; print one envelope."""
    import_qmkit()
    import qmkit.cli
    from tracer import Installed, Recorder

    recorder = Recorder()
    installed = Installed(recorder)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = qmkit.cli.main(argv)
    installed.remove()
    print(json.dumps({"code": code, "stdout": captured.getvalue(), "spans": recorder.spans}))
    return 0


class Tally:
    """Task times and verdicts of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.status = {"ok": 0, "known": 0, "fail": 0}
        self.figures: dict[str, float] = {}
        self.notes: dict[str, int] = {}

    def run(self, workload, task, recorder=None) -> float:
        start = time.perf_counter()
        try:
            output = workload.run(task, recorder)
        except Exception as exc:  # a task that raises is counted, not fatal
            elapsed = time.perf_counter() - start
            verdict = workload.error(task, exc)
        else:
            elapsed = time.perf_counter() - start
            try:
                verdict = workload.check(task, output)
            except (ValueError, IndexError, KeyError, TypeError) as exc:  # malformed output
                from workloads import Verdict

                verdict = Verdict("fail", f"{task.kind}: unreadable output: {exc}")
        self.times.append(elapsed)
        self.by_kind.setdefault(task.kind, []).append(elapsed)
        self.status[verdict.status] += 1
        if verdict.status != "ok":
            key = f"{verdict.status}: {verdict.note}"
            if verdict.status == "fail" and key not in self.notes:
                print(f"perfbench: task failed: {verdict.note}", file=sys.stderr)
            self.notes[key] = self.notes.get(key, 0) + 1
        for name, value in verdict.figures.items():
            self.figures[name] = max(value, self.figures.get(name, value))
        return elapsed

    @property
    def attempted(self) -> int:
        return len(self.times)


def setup(workloads, name: str, seed: int):
    """Input generation plus one warm-up task; returns its seconds."""
    workload = workloads.WORKLOADS[name]
    workload.run(next(workload.tasks(seed)))
    return time.perf_counter() - T0


def child_setups(args) -> list[float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    values = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              timeout=120, check=True)
        values.append(float(proc.stdout.split()[-1]))
    return values


def tail(times: list[float]) -> tuple[float, float]:
    """Value with ten samples beyond it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, workloads):
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    tasks = workload.tasks(args.seed)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        tally.run(workload, next(tasks))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = [args.setup_s] + child_setups(args)
    tail_s, tail_pct = tail(tally.times)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "tasks_per_s": metric(tally.attempted / sum(tally.times), "1/s"),
        "task_p50_s": metric(statistics.median(tally.times), "s"),
        "task_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    report = {
        "workload": args.workload,
        "tasks": tally.attempted,
        "task_tail_percentile": round(tail_pct, 1),
        "failed_frac": (tally.status["known"] + tally.status["fail"]) / tally.attempted,
        "known_defect_frac": tally.status["known"] / tally.attempted,
        "unexpected_failures": tally.status["fail"],
        "setup_samples_s": setups,
        "kind_p50_s": {k: statistics.median(v) for k, v in tally.by_kind.items()},
    }
    if "level_error" in tally.figures:
        report["max_level_error"] = tally.figures["level_error"]
    if "hj_residual" in tally.figures:
        report["max_hj_residual"] = tally.figures["hj_residual"]
    report["outcomes"] = tally.notes
    return tally, metrics, report


def traced(args, workloads):
    from tracer import Installed, Recorder, SpanStats

    workload = workloads.WORKLOADS[args.workload]
    prefix = list(islice(workload.tasks(args.seed), workload.prefix))
    tally = Tally()
    plain_s, traced_s = [], []
    first = Recorder()
    start = time.perf_counter()
    # Another pair of passes only if it is expected to end within --seconds.
    while not traced_s or (time.perf_counter() - start) * (1 + 1 / len(traced_s)) < args.seconds:
        plain_s.append(sum(tally.run(workload, task) for task in prefix))
        recorder = first if not traced_s else Recorder()
        installed = Installed(recorder)
        total = 0.0
        for number, task in enumerate(prefix):
            recorder.task = number
            total += tally.run(workload, task, recorder)
        installed.remove()
        traced_s.append(total)

    # Untraced wall time of each qmkit subcommand, from the first pass.
    walls = {}
    if workload.name == "cli":
        for task, elapsed in zip(prefix, tally.times):
            walls.setdefault(task.kind, []).append(elapsed)

    # Functions the workload never calls are measured on the first tasks
    # of the other workloads, so that every per-layer figure is measured.
    cover = Recorder()
    for other in workloads.WORKLOADS.values():
        if other.name == args.workload:
            continue
        tasks = list(islice(other.tasks(args.seed), other.cover))
        if other.name == "cli":
            for task in tasks:
                walls.setdefault(task.kind, []).append(tally.run(other, task))
        installed = Installed(cover)
        for number, task in enumerate(tasks):
            cover.task = f"{other.name}:{number}"
            tally.run(other, task, cover)
        installed.remove()

    env = workloads.child_env()
    interpreter, imports = [], []
    for _ in range(PROBES):
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        interpreter.append(time.perf_counter() - begin)
        probe = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import qmkit; "
             "print(time.perf_counter() - t)"],
            check=True, env=env, cwd=ROOT, capture_output=True, text=True)
        imports.append(float(probe.stdout))

    mine, theirs = SpanStats(first.spans), SpanStats(cover.spans)

    def stats(name: str) -> SpanStats:
        return mine if mine.calls[name] else theirs

    metrics = {}
    s1 = "schrodinger1d."
    find, shoot, pair = s1 + "find_eigenvalues", s1 + "shoot_mismatch", s1 + "solution_pair"
    s = stats(find)
    metrics[find + ".s_per_level"] = metric(s.per(find, "levels"), "s/level")
    metrics[find + ".self_s"] = metric(s.self_time[find], "s")
    levels = s.sizes[find]["levels"]
    metrics[shoot + ".calls_per_level"] = metric(
        s.calls[shoot] / levels if levels else 0.0, "calls/level")
    metrics[shoot + ".ns_per_point"] = metric(stats(shoot).per(shoot, "points") * 1e9, "ns/point")
    metrics[pair + ".calls"] = metric(stats(pair).calls[pair], "count")
    metrics[pair + ".ns_per_point"] = metric(stats(pair).per(pair, "points") * 1e9, "ns/point")

    timed = [
        ("qshje.suggest_trajectory_grid", "busy"), ("qshje.floyd_trajectory", "self"),
        ("qshje.reduced_action_from_pair", "busy"), ("qshje.quantum_potential", "busy"),
        ("qshje.qshje_residual", "busy"), ("qshje.classical_limit_scan", "self"),
        ("saqm.mub_set", "busy"), ("saqm.random_density", "busy"),
        ("saqm.table_from_density", "busy"), ("saqm.density_from_table", "busy"),
        ("saqm.no_signalling_check", "self"), ("saqm.compose_amplitudes", "busy"),
        ("saqm.hardy_counts", "busy"), ("schwarzian.moebius_invariance_deviation", "busy"),
        ("schwarzian.cocycle_deviation", "busy"),
    ]
    for name, kind in timed:
        s = stats(name)
        value = s.busy[name] if kind == "busy" else s.self_time[name]
        metrics[f"{name}.{kind}_s"] = metric(value, "s")
        if name == "saqm.mub_set":
            metrics["saqm.mub_set.calls"] = metric(s.calls[name], "count")
    traj, res, scan = "qshje.write_trajectory_csv", "qshje.write_residual_csv", \
        "qshje.classical_limit_scan"
    metrics[traj + ".ns_per_row"] = metric(stats(traj).per(traj, "rows") * 1e9, "ns/row")
    metrics[traj + ".bytes"] = metric(stats(traj).sizes[traj]["bytes"], "bytes")
    metrics[res + ".ns_per_row"] = metric(stats(res).per(res, "rows") * 1e9, "ns/row")
    s = stats(scan)
    metrics[scan + ".failed_frac"] = metric(s.failed[scan] / s.calls[scan], "frac")

    metrics["cli.interpreter_s"] = metric(statistics.median(interpreter), "s")
    metrics["cli.import_s"] = metric(statistics.median(imports), "s")
    for command in ("spectrum", "trajectory", "audit"):
        metrics[f"cli.{command}.wall_s"] = metric(statistics.median(walls[command]), "s")
    s = stats("cli.main")
    metrics["cli.main.self_s"] = metric(s.self_time["cli.main"], "s")
    metrics["cli.solution_pair_per_trajectory"] = metric(
        s.children_per_parent("cli.cmd_trajectory", pair), "calls/run")
    metrics["trace.overhead_frac"] = metric(
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0, "frac")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as handle:
        json.dump({"first_pass": first.spans, "coverage": cover.spans}, handle)
    report = {
        "workload": args.workload,
        "tasks": tally.attempted,
        "passes": len(traced_s),
        "prefix_tasks": len(prefix),
        "unexpected_failures": tally.status["fail"],
        "outcomes": tally.notes,
    }
    return tally, metrics, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("spectrum", "trajectory", "audit", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cli-child", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.cli_child is not None:
        return cli_child(args.cli_child)
    if args.workload is None:
        parser.error("--workload is required")

    import_qmkit()
    import workloads

    args.setup_s = setup(workloads, args.workload, args.seed)
    if args.setup_only:
        print(args.setup_s)
        return 0
    run = traced if args.trace else untraced
    tally, metrics, report = run(args, workloads)
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": tally.status["fail"] == 0,
        "attempted": tally.attempted,
        "failed": tally.status["fail"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
