"""A fuzz of the command-line grammar, run in process through main().

Argument lists are drawn from the subcommands' flags with well-formed,
extreme, non-finite and malformed values, in any order, with flags left
out (the required ones only where no subcommand is given) or added where
they do not belong.  Every case must end in one of the
documented exit codes with no traceback and no warning.  The draw is
derandomized and each case runs under a wall-clock bound.  Trajectory cases
always carry a --grid of at most 2001 points: the suggested grid has 40001
or more, which would cost the fuzz most of its time on one kind of case.
"""

from __future__ import annotations

import contextlib
import io
import signal
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qmkit.cli import main

#: Wall-clock seconds one case may take.
_CASE_SECONDS = 10.0

_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "2.5", "40", "1e-300", "5e-324", "1e300",
                     "-1e200", "1e154", "nan", "inf", "-inf", "", "x", "1:2"]),
    st.floats(-50.0, 50.0).map(repr),
    st.floats().map(repr),
    st.integers(-100, 10**6).map(str),
)
# Well-formed values are drawn as often as anything else, so that more
# cases get past the parser into the solvers.
_SMALL_GRIDS = st.one_of(
    st.tuples(st.floats(-20.0, 0.0).map(repr), st.floats(0.5, 20.0).map(repr),
              st.integers(101, 2001).map(str)).map(":".join),
    st.tuples(_NUMBERS, _NUMBERS, st.integers(-3, 2001).map(str)).map(":".join),
)
_GRIDS = st.one_of(_SMALL_GRIDS, st.sampled_from(["", "x", "0:1", "0:1:2.5", "0:1:1e3"]))
_RANGES = st.one_of(st.tuples(st.floats(-5.0, 50.0).map(repr),
                              st.floats(0.0, 100.0).map(repr)).map(":".join),
                    st.tuples(_NUMBERS, _NUMBERS).map(":".join), _NUMBERS)
_COUNTS = st.one_of(st.integers(0, 80).map(str), st.sampled_from(["", "x", "1.5", "-1"]))
_SEEDS = st.one_of(st.integers(-5, 10**9).map(str), _NUMBERS)
_ENERGIES = st.one_of(st.floats(-1.0, 50.0).map(repr), _NUMBERS)

_PARAMETERS = {"harmonic": ("m", "w"), "well": ("L", "m"), "linear": ("a", "m"), "free": ("m",)}
_POTENTIALS = st.one_of(
    st.sampled_from(["harmonic", "well", "linear", "free", "table:", "table:@TABLE",
                     "table:@BAD", "table:@INF", "table:@HUGE", "table:@WIDE", "table:@MISSING",
                     "banana", "", "harmonic:", "harmonic:w", "well:L=1,L=2"]),
    st.sampled_from(sorted(_PARAMETERS)).flatmap(
        lambda kind: st.lists(st.tuples(st.sampled_from(_PARAMETERS[kind] + ("q",)), _NUMBERS),
                              max_size=3)
        .map(lambda items, kind=kind: kind + ":" + ",".join(f"{k}={v}" for k, v in items))),
)
_FORMATS = st.sampled_from(["csv", "json", "csv", "json", "xml", ""])
_OUTS = st.sampled_from(["@OUT", "@OUT", "@DIR", "@MISSING/out.txt"])
_TOLERANCES = st.tuples(st.sampled_from(["mub_overlap", "cocycle", "amplitude_algebra",
                                         "no_such_knob", ""]),
                        st.sampled_from(["=", "=", "", "=="]), _NUMBERS).map("".join)


def _given(flag, values):
    """``flag`` with one drawn value, as two tokens or as flag=value (as two
    tokens a value such as "-inf" reads as a flag: a usage error)."""
    return st.tuples(values, st.booleans()).map(
        lambda drawn: [f"{flag}={drawn[0]}"] if drawn[1] else [flag, drawn[0]])


def _options(command, required, optional):
    """``command`` and its flags, each with one drawn value, in a drawn
    order: every (flag, values) of ``required``, and each of ``optional`` or
    not."""
    parts = st.tuples(*(_given(flag, values) for flag, values in required),
                      *(st.one_of(st.just([]), _given(flag, values)) for flag, values in optional))
    return parts.flatmap(st.permutations).map(
        lambda drawn: [*command, *(token for part in drawn for token in part)])


_ARGV = st.tuples(
    st.one_of(
        _options(["spectrum"], [("--potential", _POTENTIALS), ("--range", _RANGES)],
                 [("--count", _COUNTS), ("--grid", _GRIDS), ("--format", _FORMATS),
                  ("--out", _OUTS)]),
        _options(["trajectory"], [("--potential", _POTENTIALS), ("--energy", _ENERGIES),
                                  ("--grid", _SMALL_GRIDS)],
                 [("--format", _FORMATS), ("--out", _OUTS)]),
        st.sampled_from(["schwarzian", "tomography", "counting", "amplitudes", "all",
                         "everything"]).flatmap(
            lambda suite: _options(["audit", suite], [],
                                   [("--seed", _SEEDS), ("--tol-override", _TOLERANCES),
                                    ("--out", _OUTS)])),
        st.lists(st.sampled_from(["spectrum", "trajectory", "audit", "--help", "-h", "x", ""]),
                 max_size=2),
    ),
    st.lists(st.sampled_from(["--bogus", "--grid", "--seed", "-h", "extra"]), max_size=1),
).map(lambda drawn: drawn[0] + drawn[1])


class _CaseTimeout(Exception):
    """A fuzz case outlived its wall-clock bound."""


@pytest.fixture(scope="module")
def places(tmp_path_factory):
    """Stand-ins for the placeholders in drawn arguments."""
    root = tmp_path_factory.mktemp("fuzz")
    q = np.linspace(-6.0, 6.0, 201)
    (root / "table.csv").write_text(
        "q,V\n" + "".join(f"{x!r},{0.5 * x * x!r}\n" for x in q.tolist()))
    (root / "bad.csv").write_text("q,V\n0,1\n1,x\n")
    (root / "inf.csv").write_text("q,V\n0,1\ninf,1\n")
    (root / "wide.csv").write_text("q,V\n-1.7e308,1\n1.7e308,1\n")
    # Finite samples whose interpolation slope overflows.
    q = np.linspace(-1.0, 1.0, 201)
    (root / "huge.csv").write_text(
        "q,V\n" + "".join(f"{x!r},{1.7e308 if abs(x) > 0.5 else 0.0!r}\n" for x in q.tolist()))
    return {"@TABLE": str(root / "table.csv"), "@BAD": str(root / "bad.csv"),
            "@INF": str(root / "inf.csv"), "@HUGE": str(root / "huge.csv"),
            "@WIDE": str(root / "wide.csv"),
            "@MISSING": str(root / "missing"), "@OUT": str(root / "out.txt"),
            "@DIR": str(root)}


def _placed(token: str, places: dict) -> str:
    for placeholder, path in places.items():
        token = token.replace(placeholder, path)
    return token


def _expire(signum, frame):
    raise _CaseTimeout(f"a case ran past {_CASE_SECONDS} s")


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_ARGV)
# Found by this fuzz or next to what it found: a floor check squaring a
# Python float (OverflowError), a pair whose g or c overflows (warnings), and
# a hard-wall window whose top overflows every Numerov coefficient; tables
# with a non-finite sample point, with an interpolation slope past the float
# range, and with a span past it; a readable table through both solvers; and
# oscillators of length 1e3 and 1e-10 on their suggested trajectory grids.
@example(argv=["spectrum", "--potential", "harmonic:m=1e50", "--range", "0:1",
               "--grid=-1e100:1e100:9"])
@example(argv=["trajectory", "--potential", "harmonic", "--energy", "0", "--grid", "0:1e154:9"])
@example(argv=["trajectory", "--potential", "harmonic", "--energy", "1e308", "--grid", "0:1:9"])
@example(argv=["spectrum", "--potential", "well:m=1e300", "--range", "0:1e300"])
@example(argv=["trajectory", "--potential", "table:@INF", "--energy", "2"])
@example(argv=["trajectory", "--potential", "table:@HUGE", "--energy", "5"])
@example(argv=["spectrum", "--potential", "table:@WIDE", "--range", "0:1"])
@example(argv=["spectrum", "--potential", "table:@TABLE", "--range", "0:10"])
@example(argv=["trajectory", "--potential", "table:@TABLE", "--energy", "2"])
@example(argv=["trajectory", "--potential", "harmonic:m=1e-6", "--energy", "1.5"])
@example(argv=["trajectory", "--potential", "harmonic:m=1e40,w=1e-20", "--energy", "1.5e-20"])
def test_every_argument_list_ends_in_a_documented_exit_code(places, argv):
    argv = [_placed(token, places) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, _CASE_SECONDS)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3), (argv, code)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv
