"""End-to-end tests for the command-line front end, driven in process
through main() so exit codes, stdout data, and stderr summaries are all
observable."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmkit
from qmkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checks_by_name(report: dict) -> dict:
    return {check["name"]: check for check in report["checks"]}


def parse_csv(text: str):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSpectrum:
    def test_harmonic_levels_match_the_ladder(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--potential", "harmonic", "--range", "0:6"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["index", "energy", "nodes"]
        assert len(rows) == 6
        for n, row in enumerate(rows):
            assert abs(float(row[1]) - (n + 0.5)) < 1e-6
            assert int(row[2]) == n
        assert "6 level(s)" in err

    def test_well_levels_match_the_square_law(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--potential", "well:L=1", "--range", "0:60"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        for n, row in enumerate(rows, start=1):
            assert abs(float(row[1]) - (n * math.pi) ** 2 / 2.0) < 1e-4

    @pytest.mark.parametrize("spec, potential, window, count", [
        ("harmonic", qmkit.Potential.harmonic(), (0.0, 6.0), 64),
        ("well:L=1", qmkit.Potential.infinite_well(1.0), (0.0, 2000.0), 7),
    ], ids=["harmonic", "well"])
    def test_csv_holds_integer_columns_and_the_exact_levels(self, capsys, spec, potential,
                                                            window, count):
        # Index and nodes are written as integers, and every energy parses
        # back to find_eigenvalues' level bit for bit.
        code, out, _ = run(capsys, "spectrum", "--potential", spec,
                           "--range", "%r:%r" % window, "--count", str(count))
        result = qmkit.find_eigenvalues(potential, window, count)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["index", "energy", "nodes"]
        assert [(index, nodes) for index, _, nodes in rows] == [
            (str(k), str(nodes)) for k, nodes in enumerate(result.node_counts)]
        assert [float(energy) for _, energy, _ in rows] == result.energies.tolist()

    def test_free_particle_has_no_levels(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--potential", "free", "--range", "0:10"
        )
        assert code == 2
        assert out == ""
        assert "no levels" in err

    def test_json_format_exposes_energies_and_nodes(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum", "--potential", "harmonic", "--range", "0:3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"energies", "node_counts"}
        assert payload["node_counts"] == [0, 1, 2]

    def test_output_file_receives_the_data(self, capsys, tmp_path):
        target = tmp_path / "levels.csv"
        code, out, _ = run(
            capsys,
            "spectrum", "--potential", "harmonic", "--range", "0:2",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert header == ["index", "energy", "nodes"]
        assert len(rows) == 2

    def test_negative_grid_bounds_use_the_equals_form(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum", "--potential", "harmonic", "--range", "0:2",
            "--grid=-8:8:3001",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2

    @pytest.mark.parametrize("argv, flag, value", [
        (["spectrum", "--potential", "harmonic"], "--range", "-1:3"),
        (["spectrum", "--potential", "harmonic", "--range", "0:3"], "--grid", "-10:10:4001"),
        (["trajectory", "--potential", "harmonic", "--energy", "1.3"], "--grid", "-5:5:1001"),
    ], ids=["range", "spectrum-grid", "trajectory-grid"])
    def test_a_negative_value_reads_alike_after_a_space_or_an_equals_sign(self, capsys, argv,
                                                                          flag, value):
        spaced = run(capsys, *argv, flag, value)
        assert spaced == run(capsys, *argv, f"{flag}={value}")
        assert spaced[0] == 0 and spaced[1]

    def test_help_names_the_shape_of_range_and_grid(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--help")
        assert code == 0
        assert "--range LO:HI" in out and "--grid QMIN:QMAX:N" in out
        assert "ENERGY_RANGE" not in out

    def test_non_finite_frequency_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--potential", "harmonic:w=nan", "--range", "0:6"
        )
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_under_resolved_levels_exit_with_a_grid_hint(self, capsys):
        code, out, err = run(
            capsys,
            "spectrum", "--potential", "harmonic:w=1000", "--range", "0:5000",
            "--count", "3",
        )
        assert code == 1
        assert out == ""
        assert "--grid" in err

    def test_window_floor_far_below_the_potential_is_solved(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--potential", "harmonic", "--range=-1e6:5", "--count", "5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(row[2]) for row in rows] == [0, 1, 2, 3, 4]

    def test_tiny_well_over_a_huge_window_exits_promptly(self):
        src = str(Path(qmkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "qmkit", "spectrum", "--potential", "well:L=0.001",
             "--range", "0:1e9", "--count", "5"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert done.returncode == 0
        _, rows = parse_csv(done.stdout)
        assert [int(row[2]) for row in rows] == [0, 1, 2, 3, 4]

    def test_levels_far_below_one_are_polished_like_the_unit_ones(self, capsys):
        # m = 1e300 makes the well's levels 1e-300 times those of m = 1; the
        # grid's energy resolution there is 1.1e-308.
        _, out, _ = run(capsys, "spectrum", "--potential", "well", "--range", "0:100")
        expected = 1e-300 * float(parse_csv(out)[1][1][1])
        for top in ("1e300", "1e-296"):
            code, out, _ = run(capsys, "spectrum", "--potential", "well:m=1e300",
                               "--range", f"0:{top}", "--count", "3")
            assert code == 0
            assert abs(float(parse_csv(out)[1][1][1]) - expected) <= 1.1e-308

    def test_an_oscillator_in_units_of_1e_minus_20_is_found(self, capsys):
        # Energy unit hbar omega = 1e-20 and length unit 1e-10: the grid is
        # the default [-10, 10] at 4001 points, in those units.
        _, out, _ = run(capsys, "spectrum", "--potential", "harmonic", "--range", "0:10",
                        "--count", "3")
        expected = [float(row[1]) for row in parse_csv(out)[1]]
        code, out, _ = run(capsys, "spectrum", "--potential", "harmonic:m=1e40,w=1e-20",
                           "--range", "0:1e-19", "--count", "3", "--grid=-1e-9:1e-9:4001")
        assert code == 0
        levels = [float(row[1]) * 1e20 for row in parse_csv(out)[1]]
        assert levels == pytest.approx(expected, rel=1e-11, abs=0.0)

    def test_a_well_grid_off_by_a_multiple_of_the_length_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "--potential", "well:L=1e-12",
                             "--range", "0:1e30", "--count", "2", "--grid", "0:1e-10:2001")
        assert code == 1
        assert out == ""
        assert "hard-wall grids must span exactly [0, length]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--potential", "cubic", "--range", "0:6"),
            ("spectrum", "--potential", "harmonic", "--range", "6:0"),
            ("spectrum", "--potential", "harmonic", "--range", "0:6", "--count", "0"),
            ("spectrum", "--potential", "harmonic", "--range", "0:6", "--grid", "bad"),
            ("spectrum", "--potential", "table:no_such_file.csv", "--range", "0:6"),
            ("spectrum", "--potential", "harmonic", "--range", "0:inf"),
        ],
    )
    def test_bad_inputs_exit_with_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--potential", "harmonic:w=1e300", "--range", "0:5"),
        ("trajectory", "--potential", "harmonic:w=1e300", "--energy", "1"),
        ("spectrum", "--potential", "well:L=1e300", "--range", "0:5"),
        ("trajectory", "--potential", "well:L=1e300", "--energy", "1"),
        ("spectrum", "--potential", "well:L=1e-300", "--range", "0:5"),
    ],
    ids=["spectrum-huge-omega", "trajectory-huge-omega", "spectrum-huge-well",
         "trajectory-huge-well", "spectrum-tiny-well"],
)
def test_extreme_finite_parameters_are_usage_errors(capsys, argv):
    # Finite parameters whose energy scale leaves the float range are
    # refused where the potential is built, not met as an OverflowError or
    # ZeroDivisionError deep inside a solver.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "float range" in err


@pytest.mark.parametrize("argv, condition", [
    (("spectrum", "--potential", "harmonic", "--range", "nan:1"), "finite"),
    (("spectrum", "--potential", "harmonic", "--range", "5:1"), "lo < hi"),
    (("spectrum", "--potential", "harmonic", "--range", "0:inf"), "finite"),
    (("spectrum", "--potential", "harmonic", "--range", "0:6", "--count", "0"), "at least 1"),
    (("trajectory", "--potential", "harmonic", "--energy", "inf"), "finite"),
], ids=["range-nan", "range-reversed", "range-inf", "count-zero", "energy-inf"])
def test_values_the_library_refuses_are_input_errors(capsys, argv, condition):
    # The library checks these values; the command line reports its refusal.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and condition in err


@pytest.mark.parametrize("argv, named", [
    (("spectrum", "--potential", "harmonic", "--range=a:1"), "'a:1'"),
    (("audit", "all", "--tol-override", "cocycle"), "'cocycle'"),
    (("spectrum", "--potential", "harmonic:w=x", "--range", "0:3"), "'w=x'"),
    (("spectrum", "--potential", "table:", "--range", "0:3"), "table:"),
    (("spectrum", "--potential", "harmonic:q=1", "--range", "0:3"), "'q"),
    (("spectrum", "--potential", "well:w=1", "--range", "0:3"), "'w"),
], ids=["range-not-a-number", "override-without-equals", "parameter-not-a-number",
        "table-without-path", "harmonic-unknown-parameter", "well-unknown-parameter"])
def test_a_malformed_item_is_an_input_error_that_names_it(capsys, argv, named):
    # ``named`` is the offending item, or the start of its quoted name.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "--potential", "harmonic", "--range", "0:3"),
    ("trajectory", "--potential", "harmonic", "--energy", "0.5"),
], ids=["spectrum", "trajectory"])
def test_a_grid_too_large_to_allocate_is_a_usage_error(argv):
    # 1e17 points need hundreds of PiB, more than the 2^57-byte virtual
    # address space of any current 64-bit processor, so numpy's request is
    # refused at once, also where the kernel overcommits memory.
    src = str(Path(qmkit.__file__).resolve().parents[1])
    grid = "--grid=-10:10:100000000000000000"
    done = subprocess.run([sys.executable, "-m", "qmkit", *argv, grid], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("length", ["1e100", "1e150"])
def test_huge_well_trajectory_reports_overflow(capsys, length):
    # The well's energy unit stays in range, but the suggested grid spacing
    # L/40000 is so large that the pair's launch series overflows.
    code, out, err = run(capsys, "trajectory", "--potential", f"well:L={length}",
                         "--energy", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("trajectory", "--potential", "harmonic", "--energy", "2", "--grid=-1e200:1e200:11"),
    ("spectrum", "--potential", "harmonic", "--range", "0:5", "--grid=-1e300:1e300:101"),
    ("spectrum", "--potential", "harmonic:w=1e100", "--range", "0:5", "--grid=-1e100:1e100:101"),
    ("spectrum", "--potential", "harmonic:w=1e154", "--range", "0:5"),
    ("trajectory", "--potential", "linear:a=1e307", "--energy", "1"),
], ids=["trajectory-huge-grid", "spectrum-huge-grid", "spectrum-huge-potential",
        "spectrum-huge-omega", "trajectory-huge-slope"])
def test_a_huge_grid_or_potential_is_a_usage_error(argv):
    # Refused where the grid is parsed or the potential sampled, not met as
    # an OverflowError from the squared spacing or an overflow warning from
    # the potential.  A fresh process, because pytest would capture a
    # warning off stderr.
    src = str(Path(qmkit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "qmkit", *argv], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    assert "float range" in done.stderr


@pytest.mark.parametrize("argv, unused", [
    (["spectrum", "--potential", "harmonic", "--range", "0:3"], ["qmkit.saqm", "qmkit.qshje"]),
    (["audit", "counting"], ["qmkit.schrodinger1d", "qmkit.qshje"]),
], ids=["spectrum", "audit-counting"])
def test_a_subcommand_loads_only_the_layers_it_runs(argv, unused):
    # A fresh process imports qmkit and its command line; each subcommand
    # imports the solver layers it calls, and no other.
    src = str(Path(qmkit.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, json, sys\n"
        "from qmkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('qmkit'))]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    code, loaded = json.loads(done.stdout)
    assert code == 0, done.stderr
    assert "qmkit.cli" in loaded
    assert not set(unused) & set(loaded), loaded


class TestOutputTarget:
    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--potential", "harmonic", "--range", "0:2"),
            ("trajectory", "--potential", "free", "--energy", "0.5", "--grid", "0:10:501"),
            ("audit", "counting"),
        ],
        ids=["spectrum", "trajectory", "audit"],
    )
    @pytest.mark.parametrize("target", ["missing-directory", "directory", "empty"])
    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path, argv, target):
        out = {"missing-directory": str(tmp_path / "absent" / "x.csv"),
               "directory": str(tmp_path), "empty": ""}[target]
        code, stdout, err = run(capsys, *argv, "--out", out)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--potential", "harmonic", "--range", "0:3", "--format", "json"),
            ("audit", "counting"),
            ("spectrum", "--potential", "harmonic", "--range", "0:3"),
            ("trajectory", "--potential", "free", "--energy", "0.5", "--grid", "0:10:501"),
        ],
        ids=["spectrum-json", "audit", "spectrum-csv", "trajectory-csv"],
    )
    def test_out_file_holds_the_bytes_of_stdout(self, capsys, tmp_path, argv):
        target = tmp_path / "out"
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        code, empty, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert empty == ""
        assert stdout.endswith("\n")
        assert target.read_bytes() == stdout.encode("utf-8")


class TestFlagScope:
    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--potential", "harmonic", "--range", "0:2", "--seed", "3"),
            ("spectrum", "--potential", "harmonic", "--range", "0:2",
             "--tol-override", "cocycle=1"),
            ("trajectory", "--potential", "free", "--energy", "0.5", "--seed", "3"),
            ("trajectory", "--potential", "free", "--energy", "0.5",
             "--tol-override", "cocycle=1"),
            ("trajectory", "--potential", "free", "--energy", "0.5", "--de", "0"),
            ("audit", "counting", "--grid", "0:1:11"),
            ("audit", "counting", "--format", "csv"),
        ],
        ids=["spectrum-seed", "spectrum-tol", "trajectory-seed", "trajectory-tol",
             "trajectory-de", "audit-grid", "audit-format"],
    )
    def test_flags_the_subcommand_does_not_read_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err


class TestTrajectory:
    def test_one_run_marches_one_solution_pair(self, capsys, monkeypatch):
        # One pair at E, four marches; time and the residual both read it.
        from qmkit import schrodinger1d

        calls = []
        march = schrodinger1d._ratios

        def counted(*args, **kwargs):
            calls.append(args)
            return march(*args, **kwargs)

        monkeypatch.setattr(schrodinger1d, "_ratios", counted)
        code, _, err = run(
            capsys, "trajectory", "--potential", "harmonic", "--energy", "0.5"
        )
        assert code == 0
        assert "residual sup-norm" in err
        assert len(calls) == 4

    def test_one_run_imports_no_masked_arrays(self):
        # np.median imports numpy.ma on first use, which costs a fresh
        # process more than the Wronskian check that needs the median.
        src = str(Path(qmkit.__file__).resolve().parents[1])
        script = (
            "import contextlib, io, sys\n"
            "from qmkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['trajectory', '--potential', 'harmonic', '--energy', '1.3'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert done.stdout.split() == ["0", "False"], done.stderr

    def test_spectrum_and_trajectory_runs_import_neither_json_nor_csv(self):
        # Only --format json, audit reports and table potentials need them.
        src = str(Path(qmkit.__file__).resolve().parents[1])
        script = (
            "import contextlib, io, sys\n"
            "from qmkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['spectrum', '--potential', 'harmonic', '--range', '0:3']),\n"
            "             main(['trajectory', '--potential', 'harmonic', '--energy', '1.3'])]\n"
            "print(*codes, 'json' in sys.modules, 'csv' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert done.stdout.split() == ["0", "0", "False", "False"], done.stderr

    def test_one_run_samples_v_once_and_wraps_one_pair(self, capsys, monkeypatch):
        # The pair is validated and scaled where it is marched, and the time
        # reads its launch without sampling V on the grid again.
        from qmkit import schrodinger1d
        from qmkit.schrodinger1d import Potential, Wavefunction

        calls = {"evaluate": 0, "wavefunction": 0, "ratios": 0}
        evaluate, post_init, march = (Potential.evaluate, Wavefunction.__post_init__,
                                      schrodinger1d._ratios)

        def counted_evaluate(self, q):
            calls["evaluate"] += np.size(q) == 40001
            return evaluate(self, q)

        def counted_post_init(self):
            calls["wavefunction"] += 1
            post_init(self)

        def counted_march(*args):
            calls["ratios"] += 1
            return march(*args)

        monkeypatch.setattr(Potential, "evaluate", counted_evaluate)
        monkeypatch.setattr(Wavefunction, "__post_init__", counted_post_init)
        monkeypatch.setattr(schrodinger1d, "_ratios", counted_march)
        code, _, err = run(capsys, "trajectory", "--potential", "harmonic", "--energy", "1.3")
        assert code == 0
        assert err.startswith("36001 samples")  # the central 90% of a 40001-point grid
        assert calls == {"evaluate": 1, "wavefunction": 2, "ratios": 4}

    def test_free_particle_time_column_is_linear(self, capsys):
        code, out, err = run(
            capsys,
            "trajectory", "--potential", "free", "--energy", "0.5",
            "--grid", "0:10:1001",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "q", "p"]
        t = np.array([float(r[0]) for r in rows])
        q = np.array([float(r[1]) for r in rows])
        fit = np.polyval(np.polyfit(q, t, 1), q)
        assert np.abs(t - fit).max() / (t.max() - t.min()) < 1e-4
        assert "residual sup-norm" in err

    def test_harmonic_time_is_monotone_with_small_residual(self, capsys):
        code, out, err = run(
            capsys, "trajectory", "--potential", "harmonic", "--energy", "0.5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        t = np.array([float(r[0]) for r in rows])
        assert np.all(np.diff(t) > 0.0)
        residual = float(err.rsplit("sup-norm", 1)[1].strip())
        assert residual < 1e-5

    @pytest.mark.parametrize("spec, energy, unit", [
        ("harmonic:m=1e-6", "1.5", 1.0),  # length unit 1e3
        ("harmonic:m=1e40,w=1e-20", "1.5e-20", 1e-20),  # length unit 1e-10
    ])
    def test_an_oscillator_far_from_unit_length_gets_its_own_grid(self, capsys, spec,
                                                                 energy, unit):
        # The residual is held to the same bound in the potential's unit hbar omega.
        code, out, err = run(capsys, "trajectory", "--potential", spec, "--energy", energy)
        assert code == 0, err
        _, rows = parse_csv(out)
        t = np.array([float(r[0]) for r in rows])
        assert len(t) >= 36001
        assert np.all(np.diff(t) > 0.0)
        residual = float(err.rsplit("sup-norm", 1)[1].strip())
        assert residual <= 1e-5 * unit

    def test_json_format_carries_all_three_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "trajectory", "--potential", "free", "--energy", "0.5",
            "--grid", "0:10:501", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"energy", "t", "q", "p"}
        assert len(payload["t"]) == len(payload["q"]) == len(payload["p"])

    def test_non_finite_energy_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "trajectory", "--potential", "harmonic", "--energy", "nan"
        )
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_non_positive_numerov_coefficient_is_an_input_error(self, capsys):
        # h = 1 and V - E = 10 at q = 10 give c = 1 - 20/12 < 0 (and c = 0 at q = 6).
        code, out, err = run(
            capsys, "trajectory", "--potential", "linear", "--energy", "0",
            "--grid=-10:10:21",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "try a finer --grid" in err


class TestAudit:
    @pytest.mark.parametrize("suite", ["schwarzian", "tomography", "counting", "amplitudes"])
    def test_each_suite_passes_on_a_correct_build(self, capsys, suite):
        code, out, err = run(capsys, "audit", suite)
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == suite
        assert report["passed"] is True
        assert f"audit {suite}: PASS" in err

    def test_audit_all_aggregates_every_suite(self, capsys):
        code, out, _ = run(capsys, "audit", "all")
        assert code == 0
        report = json.loads(out)
        assert set(report["suites"]) == {
            "schwarzian", "tomography", "counting", "amplitudes"
        }
        assert report["passed"] is True

    def test_counting_report_contains_the_qubit_pair_overshoot(self, capsys):
        code, out, _ = run(capsys, "audit", "counting")
        assert code == 0
        pair = checks_by_name(json.loads(out))["real_pair_2x2_K_joint_10_K_product_9"]
        assert pair == {"name": "real_pair_2x2_K_joint_10_K_product_9", "cases": 1,
                        "max_deviation": 0.0, "tolerance": 0.0, "passed": True}

    def test_tomography_report_has_one_hundred_tight_round_trips(self, capsys):
        code, out, _ = run(capsys, "audit", "tomography")
        assert code == 0
        checks = checks_by_name(json.loads(out))
        assert checks["qubit_roundtrip"]["cases"] == 100
        assert checks["qubit_roundtrip"]["max_deviation"] < 1e-10
        assert checks["qutrit_roundtrip"]["cases"] == 50
        assert checks["qutrit_roundtrip"]["max_deviation"] < 1e-10
        # |lowest eigenvalue - (1/2 - sqrt(3)/2)| of the rejected overfilled table
        overfilled = checks["overfilled_table_min_eigenvalue"]
        assert overfilled["max_deviation"] <= 1e-12
        assert overfilled["passed"] is True

    def test_reports_are_deterministic_for_a_fixed_seed(self, capsys):
        first = run(capsys, "audit", "tomography", "--seed", "7")
        second = run(capsys, "audit", "tomography", "--seed", "7")
        assert first == second

    def test_different_seeds_draw_different_samples(self, capsys):
        _, out7, _ = run(capsys, "audit", "tomography", "--seed", "7")
        _, out8, _ = run(capsys, "audit", "tomography", "--seed", "8")
        sampled = ("qubit_roundtrip", "qutrit_roundtrip", "no_signalling")
        errors7 = [checks_by_name(json.loads(out7))[name]["max_deviation"] for name in sampled]
        errors8 = [checks_by_name(json.loads(out8))[name]["max_deviation"] for name in sampled]
        assert errors7 != errors8

    def test_impossible_tolerance_fails_the_audit(self, capsys):
        code, out, err = run(
            capsys, "audit", "tomography", "--tol-override", "mub_overlap=1e-30"
        )
        assert code == 3
        assert json.loads(out)["passed"] is False
        assert "FAIL" in err

    @pytest.mark.parametrize("override", [(), ("--tol-override", "no_signalling=1e-300")],
                             ids=["defaults", "one-check-failing"])
    def test_every_suite_report_is_a_list_of_check_records(self, capsys, override):
        def strict(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, out, _ = run(capsys, "audit", "all", "--seed", "3", *override)
        report = json.loads(out, parse_constant=strict)
        assert code == (0 if report["passed"] else 3)
        assert report["passed"] is (not override)
        for suite, body in report["suites"].items():
            assert set(body) == {"suite", "checks", "passed"}
            assert body["suite"] == suite
            assert body["checks"]
            for check in body["checks"]:
                assert set(check) == {"name", "cases", "max_deviation", "tolerance", "passed"}
                assert isinstance(check["cases"], int) and check["cases"] >= 1
                assert check["passed"] is (check["max_deviation"] <= check["tolerance"])
            assert body["passed"] is all(check["passed"] for check in body["checks"])
        assert report["passed"] is all(body["passed"] for body in report["suites"].values())

    @pytest.mark.parametrize(
        "name",
        ["curvature_analytic", "curvature_fd", "moebius_invariance", "cocycle",
         "mub_overlap", "tomography_roundtrip", "no_signalling", "amplitude_algebra"],
    )
    def test_each_tolerance_override_reaches_its_checks(self, capsys, name):
        code, out, _ = run(capsys, "audit", "all", "--tol-override", f"{name}=1e-300")
        report = json.loads(out)
        overridden = [check for body in report["suites"].values()
                      for check in body["checks"] if check["tolerance"] == 1e-300]
        assert overridden
        if name == "amplitude_algebra":
            # Dyadic amplitudes compose exactly, so no tolerance is too tight.
            assert code == 0
            assert all(check["max_deviation"] == 0.0 for check in overridden)
        else:
            assert code == 3
            assert not all(check["passed"] for check in overridden)

    def test_unknown_tolerance_name_is_an_input_error(self, capsys):
        code, _, err = run(
            capsys, "audit", "tomography", "--tol-override", "no_such_knob=1e-3"
        )
        assert code == 1
        assert "unknown tolerance" in err

    def test_malformed_tolerance_value_is_an_input_error(self, capsys):
        code, _, _ = run(
            capsys, "audit", "tomography", "--tol-override", "mub_overlap=tiny"
        )
        assert code == 1

    def test_non_finite_tolerance_is_an_input_error(self, capsys):
        code, _, err = run(
            capsys, "audit", "tomography", "--tol-override", "mub_overlap=nan"
        )
        assert code == 1
        assert "finite" in err

    def test_unknown_suite_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "audit", "everything")
        assert code == 1
        assert "error:" in err

    def test_report_can_be_written_to_a_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "audit", "counting", "--out", str(target))
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert report["passed"] is True
