"""Stationary-equation solver against closed-form oracles.

Free-particle integrations are compared with sin/cos expressions, the
harmonic ground state with its Gaussian, and both built-in spectra with
their textbook formulas (n + 1/2 and n^2 pi^2 / 2).  Convergence order is
measured directly by halving the spacing.
"""

from __future__ import annotations

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmkit.schrodinger1d as schrodinger1d
from oracles import (harmonic_eigenfunction, harmonic_level, log_form_match_slope,
                     matrix_numerov_levels, numerov_level_by_count_bisection,
                     numerov_node_count, numerov_recurrence, numerov_samples,
                     well_eigenfunction, well_level)
from qmkit import (
    DegeneratePair,
    GridTooSmall,
    LevelsUnresolved,
    NodeCountMismatch,
    NoEigenvalueInRange,
    Overflow,
    Potential,
    RealGrid,
    Wavefunction,
    classical_limit_scan,
    find_eigenvalues,
    load_potential_table,
    pair_from_wavefunctions,
    shoot_mismatch,
    solution_pair,
)

HARMONIC_GRID = RealGrid(-10.0, 10.0, 4001)
WELL_GRID = RealGrid(0.0, 1.0, 2001)


# ---------------------------------------------------------------------------
# potentials and ingestion


def test_potential_constants_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        Potential.harmonic(mass=-1.0)
    with pytest.raises(ValueError, match="positive"):
        Potential.free(hbar=0.0)


@pytest.mark.parametrize("name", ["hbar", "mass", "omega", "length", "slope"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_potential_constants_must_be_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        Potential(kind="harmonic", **{name: value})


def _built_directly(q, v):
    return Potential(kind="tabulated", table_q=np.array(q), table_v=np.array(v))


#: The two ways to build a tabulated potential; each must apply the table rules.
TABLE_BUILDS = (Potential.tabulated, _built_directly)


def test_tabulated_values_must_be_finite():
    for build in TABLE_BUILDS:
        with pytest.raises(ValueError, match="finite"):
            build([0.0, 1.0, 2.0], [0.0, math.nan, 4.0])


def test_unknown_potential_kind_rejected():
    with pytest.raises(ValueError, match="unknown potential kind"):
        Potential(kind="banana")


def test_tabulated_requires_strictly_increasing_points():
    for build in TABLE_BUILDS:
        for q, v in (([0.0, 1.0, 1.0], [0.0, 0.5, 1.0]), ([1.0, 0.0], [0.0, 1.0])):
            with pytest.raises(ValueError, match="strictly increasing"):
                build(q, v)


def test_a_tabulated_potential_without_a_table_is_refused():
    with pytest.raises(ValueError, match="^tabulated potential needs two matching 1-d columns$"):
        Potential(kind="tabulated")


@pytest.mark.parametrize("q", [[0.0, math.inf], [-math.inf, 0.0, 1.0], [-1.7e308, 1.7e308]],
                         ids=["inf", "minus-inf", "span-overflows"])
def test_tabulated_sample_points_must_span_a_finite_range(q):
    for build in TABLE_BUILDS:
        with pytest.raises(ValueError, match="finite"):
            build(q, [1.0] * len(q))


def test_tabulated_evaluate_rejects_an_interpolation_past_the_float_range():
    q = np.linspace(-1.0, 1.0, 201)
    pot = Potential.tabulated(q, np.where(np.abs(q) > 0.5, 1.7e308, 0.0))
    with pytest.raises(ValueError, match="float range"):
        pot.evaluate(np.linspace(-1.0, 1.0, 4001))


def test_tabulated_evaluate_rejects_points_outside_range():
    pot = Potential.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    with pytest.raises(ValueError, match="range"):
        pot.evaluate(np.array([-0.5]))


def test_load_potential_table_tolerates_header(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("q,V\n0.0,0.0\n0.5,0.125\n1.0,0.5\n")
    pot = load_potential_table(path)
    assert pot.kind == "tabulated"
    assert pot.evaluate(np.array([0.25]))[0] == pytest.approx(0.0625, abs=1e-12)


def test_load_potential_table_skips_blank_rows(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("0.0,0.0\n\n0.5,0.125\n  \n1.0,0.5\n\n")
    pot = load_potential_table(path)
    assert pot.evaluate(np.array([0.0, 0.5, 1.0])).tolist() == [0.0, 0.125, 0.5]


def test_load_potential_table_rejects_single_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0\n1.0\n")
    with pytest.raises(ValueError, match="two columns"):
        load_potential_table(path)


def test_wavefunction_rejects_identically_zero_samples():
    with pytest.raises(ValueError, match="vanish"):
        Wavefunction(WELL_GRID, np.zeros(WELL_GRID.n_points), 1.0)


def test_grid_rejects_degenerate_and_tiny_shapes():
    with pytest.raises(ValueError):
        RealGrid(1.0, 1.0, 100)
    with pytest.raises(GridTooSmall):
        RealGrid(0.0, 1.0, 5)
    for n in (9.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            RealGrid(0.0, 1.0, n)


def test_grid_stores_an_integral_point_count_as_an_int():
    grid = RealGrid(0.0, 1.0, 9.0)
    assert grid == RealGrid(0.0, 1.0, 9) and type(grid.n_points) is int
    assert np.array_equal(grid.points(), RealGrid(0.0, 1.0, 9).points())
    assert type(RealGrid(0.0, 1.0, np.int64(9)).n_points) is int


@pytest.mark.parametrize("q_min, q_max, n", [
    (-10.0, 10.0, 4001), (-10.0, 10.0, 4000), (-6.0, 6.0, 4001), (-1.0, 1.0, 9),
    (-1.0, 1.0, 10), (0.0, 1.0, 2001), (0.0, 1.0, 2000), (-7.5, 2.25, 1001),
])
def test_grid_points_keep_ends_and_are_odd_when_symmetric(q_min, q_max, n):
    q = RealGrid(q_min, q_max, n).points()
    assert q[0] == q_min and q[-1] == q_max
    assert np.abs(q - np.linspace(q_min, q_max, n)).max() <= 2.0 * math.ulp(max(-q_min, q_max))
    if q_min == -q_max:  # then an even potential samples exactly mirror-symmetric
        assert np.array_equal(q, -q[::-1])


@pytest.mark.parametrize("q_min, q_max", [(-1e200, 1e200), (1e154, 2.5e154)])
def test_grid_rejects_a_span_whose_square_overflows(q_min, q_max):
    with pytest.raises(ValueError, match="float range"):
        RealGrid(q_min, q_max, 11)


# ---------------------------------------------------------------------------
# the Numerov march


def _march(potential, energy, grid, seed=(0.0, 1e-6), direction="left-to-right"):
    """Samples of the solver's Numerov march from ``seed``, psi at the first
    two points along ``direction`` ("left-to-right" or "right-to-left")."""
    order = slice(None, None, -1 if direction == "right-to-left" else 1)
    c = schrodinger1d._coefficients(potential, energy, grid,
                                    potential.evaluate(grid.points()))[order]
    return schrodinger1d._samples(schrodinger1d._ratios(c, *seed), *seed)[order]


def test_free_particle_matches_sine_closed_form():
    grid = RealGrid(0.0, 10.0, 4001)
    h = grid.spacing
    values = _march(Potential.free(), 0.5, grid, seed=(0.0, math.sin(h)))
    assert np.abs(values - np.sin(grid.points())).max() < 1e-8


@settings(max_examples=20, deadline=None)
@given(k=st.floats(min_value=0.5, max_value=3.0))
def test_free_particle_matches_sine_for_random_wavenumbers(k):
    grid = RealGrid(0.0, 10.0, 4001)
    h = grid.spacing
    energy = 0.5 * k * k
    values = _march(Potential.free(), energy, grid, seed=(0.0, math.sin(k * h)))
    assert np.abs(values - np.sin(k * grid.points())).max() < 1e-6


def test_zero_energy_free_solution_is_linear():
    grid = RealGrid(0.0, 10.0, 4001)
    values = _march(Potential.free(), 0.0, grid, seed=(0.0, grid.spacing))
    assert np.abs(values - grid.points()).max() < 1e-10


def test_harmonic_ground_state_matches_gaussian():
    h = HARMONIC_GRID.spacing
    seed = (math.exp(-0.5 * 10.0**2), math.exp(-0.5 * (-10.0 + h) ** 2))
    values = _march(Potential.harmonic(), 0.5, HARMONIC_GRID, seed=seed)
    q = HARMONIC_GRID.points()
    true = np.exp(-0.5 * q * q)
    # Past the right turning point the marched solution picks up the
    # growing branch from roundoff; compare where the state has support.
    mask = q <= 5.0
    rel = np.abs(values[mask] - true[mask]).max() / true[mask].max()
    assert rel < 1e-6


def test_right_to_left_direction_matches_mirror_solution():
    grid = RealGrid(0.0, 10.0, 4001)
    h = grid.spacing
    seed = (math.sin(10.0), math.sin(10.0 - h))
    values = _march(Potential.free(), 0.5, grid, seed=seed, direction="right-to-left")
    assert np.abs(values - np.sin(grid.points())).max() < 1e-8


def test_unbounded_growth_raises_overflow():
    grid = RealGrid(0.0, 40.0, 4001)
    with pytest.raises(Overflow):
        _march(Potential.harmonic(), 0.0, grid, seed=(1.0, 1.1))


@pytest.mark.parametrize("direction", ["left-to-right", "right-to-left"])
@pytest.mark.parametrize("seed", [(0.0, 1.0), (1.0, 0.0), (0.0, -2.5)])
def test_exact_zero_samples_match_the_plain_recurrence_exactly(direction, seed):
    # h = 0.1 and E = 120 give c = 1.2 everywhere, so 12 - 10 c = 0 and the
    # recurrence steps y_{i+1} = -y_{i-1}: every other sample is exactly 0.
    grid = RealGrid(0.0, 1.0, 11)
    values = _march(Potential.free(), 120.0, grid, seed=seed, direction=direction)
    expected = numerov_samples(np.full(11, 240.0), grid.spacing, *seed)
    if direction == "right-to-left":
        expected = expected[::-1]
    assert np.array_equal(values, expected)


@pytest.mark.parametrize(
    "potential, energy, grid, seed",
    [
        (Potential.harmonic(), 3.7, HARMONIC_GRID, (0.0, 1e-6)),
        (Potential.infinite_well(1.0), 40.0, WELL_GRID, (0.0, 1e-6)),
        (Potential.linear(), 1.0, RealGrid(-5.0, 5.0, 2001), (0.0, 1e-6)),
        (Potential.free(), 0.5, RealGrid(0.0, 10.0, 4001), (0.0, math.sin(0.0025))),
    ],
    ids=["harmonic", "well", "linear", "free"],
)
def test_integration_matches_the_plain_recurrence(potential, energy, grid, seed):
    values = _march(potential, energy, grid, seed=seed)
    g = 2.0 * (energy - potential.evaluate(grid.points()))
    expected = numerov_samples(g, grid.spacing, *seed)
    assert np.abs(values - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is plain double on this platform")
@pytest.mark.parametrize("energy", [0.77, 1.3, 1.9, 3.4])
@pytest.mark.parametrize("grid, start, bound", [
    (RealGrid(-3.299, 3.299, 40001), 20000, 5e-9),  # the centre-out half of a trajectory grid
    (HARMONIC_GRID, 0, 2e-11),
], ids=["half-40001", "full-4001"])
def test_march_roundoff_against_a_long_double_recurrence(grid, start, bound, energy):
    # Both runs read the same float coefficients, so the difference is the
    # float march's own roundoff.  The energies lie off the levels, where
    # a march is well conditioned.
    potential = Potential.harmonic()
    c = schrodinger1d._coefficients(potential, energy, grid,
                                    potential.evaluate(grid.points()))[start:]
    for seed in ((0.0, grid.spacing), (1.0, 1.0)):
        values = schrodinger1d._samples(schrodinger1d._ratios(c, *seed), *seed)
        expected = numerov_recurrence(c, *seed, dtype=np.longdouble)
        assert np.abs(values - expected).max() <= bound * np.abs(expected).max()


@pytest.mark.parametrize("grid", [RealGrid(0.0, 10.0, 11), RealGrid(-10.0, 10.0, 21)])
def test_non_positive_numerov_coefficient_raises_grid_too_small(grid):
    # h = 1 and V - E = q on the ramp give c = 1 - q/6: zero at q = 6, negative past it.
    with pytest.raises(GridTooSmall, match="coefficient"):
        _march(Potential.linear(), 0.0, grid)
    with pytest.raises(GridTooSmall, match="coefficient"):
        solution_pair(Potential.linear(), 0.0, grid)


# ---------------------------------------------------------------------------
# shoot_mismatch


def test_mismatch_vanishes_at_harmonic_ground_level():
    assert abs(shoot_mismatch(Potential.harmonic(), 0.5, HARMONIC_GRID)[1]) < 1e-8


def test_mismatch_large_off_spectrum():
    assert abs(shoot_mismatch(Potential.harmonic(), 0.7, HARMONIC_GRID)[1]) > 1e-2


def test_mismatch_vanishes_at_well_ground_level():
    energy = well_level(1)
    assert abs(shoot_mismatch(Potential.infinite_well(1.0), energy, WELL_GRID)[1]) < 1e-8


def test_mismatch_is_bounded_between_levels():
    # The match is the sine of an angle: no pole anywhere in the window.
    values = [shoot_mismatch(Potential.harmonic(), energy, HARMONIC_GRID)[1]
              for energy in np.linspace(0.01, 9.9, 991)]
    assert max(abs(w) for w in values) <= 1.0


@pytest.mark.parametrize("im", [-1, 0, 1, 3999, 4000, 4001])
def test_a_given_matching_index_off_the_clamped_range_is_refused(im):
    with pytest.raises(ValueError, match=r"outside \[2, 3998\]"):
        shoot_mismatch(Potential.harmonic(), 0.7, HARMONIC_GRID, None, im)


def test_the_count_does_not_depend_on_a_given_matching_index():
    counts = [shoot_mismatch(Potential.harmonic(), 0.7, HARMONIC_GRID, None, im)[0]
              for im in (None, 2, 2000, 3998)]
    assert counts == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# find_eigenvalues


def test_harmonic_spectrum_matches_closed_form():
    result = find_eigenvalues(Potential.harmonic(), (0.0, 6.0), 64, HARMONIC_GRID)
    expected = [harmonic_level(n) for n in range(6)]
    assert len(result.energies) == 6
    assert np.abs(result.energies - np.array(expected)).max() < 1e-6


def test_well_spectrum_matches_closed_form():
    result = find_eigenvalues(Potential.infinite_well(1.0), (0.0, 60.0), 64, WELL_GRID)
    expected = [well_level(n) for n in (1, 2, 3)]
    assert len(result.energies) == 3
    assert np.abs(result.energies - np.array(expected)).max() < 1e-4


def test_free_particle_has_no_discrete_levels():
    with pytest.raises(NoEigenvalueInRange):
        find_eigenvalues(Potential.free(), (0.0, 10.0), 64, RealGrid(0.0, 10.0, 2001))


def test_window_between_levels_is_empty():
    with pytest.raises(NoEigenvalueInRange):
        find_eigenvalues(Potential.harmonic(), (0.6, 1.4), 64, HARMONIC_GRID)


def test_a_well_window_past_the_grids_top_level_ends_at_it():
    # Above the energy where every Numerov coefficient is 2 each march flips
    # sign at every sample, so the 9-point well holds its 7 levels below it
    # (c = 2 at E = 384, c = 3/2 at 192) and a higher top is read there.
    # With m = 1e300 a top at 1e300 would overflow every coefficient.
    grid = RealGrid(0.0, 1.0, 9)
    well = Potential.infinite_well(1.0)
    result = find_eigenvalues(well, (0.0, 1e300), 64, grid)
    assert result.node_counts == tuple(range(7))
    oracle = [numerov_level_by_count_bisection(lambda e: np.full(9, 2.0 * e), grid.spacing,
                                               k, 0.0, 384.0) for k in range(7)]
    tolerance = _polish_tolerance(well, grid, result.energies)
    assert np.all(np.abs(result.energies - oracle) <= tolerance)
    for window in ((192.0, 1e300), (385.0, 1e300)):
        with pytest.raises(NoEigenvalueInRange):
            find_eigenvalues(well, window, 64, grid)
    heavy = Potential.infinite_well(1.0, mass=1e300)
    result = find_eigenvalues(heavy, (0.0, 1e300), 3)
    assert result.node_counts == (0, 1, 2)
    expected = np.array([well_level(n, mass=1e300) for n in (1, 2, 3)])
    assert np.all(np.abs(result.energies / expected - 1.0) < 1e-6)


def test_node_counts_follow_the_node_theorem():
    result = find_eigenvalues(Potential.harmonic(), (0.0, 6.0), 64, HARMONIC_GRID)
    assert result.node_counts == (0, 1, 2, 3, 4, 5)
    well = find_eigenvalues(Potential.infinite_well(1.0), (0.0, 60.0), 64, WELL_GRID)
    assert well.node_counts == (0, 1, 2)


def test_eigenfunctions_are_orthonormal():
    result = find_eigenvalues(Potential.harmonic(), (0.0, 6.0), 64, HARMONIC_GRID)
    h = HARMONIC_GRID.spacing
    for i, psi_i in enumerate(result.wavefunctions):
        for j, psi_j in enumerate(result.wavefunctions):
            inner = float(np.trapezoid(psi_i.values * psi_j.values, dx=h))
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-6


def test_eigenfunction_sign_puts_the_first_lobe_positive():
    # Mirror-symmetric states have two equal peaks, so the largest sample
    # cannot fix the sign; the leftmost lobe does.
    harmonic = find_eigenvalues(Potential.harmonic(), (0.0, 10.0), 64, HARMONIC_GRID)
    well = find_eigenvalues(Potential.infinite_well(1.0), (0.0, 700.0), 64, WELL_GRID)
    assert len(harmonic.energies) == 10 and len(well.energies) == 11
    for n, psi in enumerate(harmonic.wavefunctions):
        expected = harmonic_eigenfunction(n, HARMONIC_GRID.points())
        assert np.abs(psi.values - expected).max() < 1e-6, n
    for n, psi in enumerate(well.wavefunctions, start=1):
        expected = well_eigenfunction(n, WELL_GRID.points())
        assert np.abs(psi.values - expected).max() < 1e-6, n


def test_energies_come_out_strictly_increasing():
    result = find_eigenvalues(Potential.harmonic(), (0.0, 6.0), 64, HARMONIC_GRID)
    assert np.all(np.diff(result.energies) > 0)


def test_max_count_truncates_the_list():
    result = find_eigenvalues(Potential.harmonic(), (0.0, 6.0), 3, HARMONIC_GRID)
    assert len(result.energies) == 3


def test_hard_wall_grid_must_span_the_well():
    with pytest.raises(ValueError, match="span"):
        find_eigenvalues(
            Potential.infinite_well(1.0), (0.0, 60.0), 64, RealGrid(0.0, 0.9, 2001)
        )


def test_eigenvalue_error_shrinks_at_fourth_order():
    # Halving the spacing must shrink the eigenvalue error ~16x (fourth
    # order); over two halvings the compounded factor far exceeds 30.
    errors = []
    for n in (251, 501, 1001):
        grid = RealGrid(-10.0, 10.0, n)
        result = find_eigenvalues(Potential.harmonic(), (0.0, 1.0), 1, grid)
        errors.append(abs(float(result.energies[0]) - 0.5))
    assert errors[0] / errors[1] > 12.0
    assert errors[1] / errors[2] > 12.0
    assert errors[0] / errors[2] > 30.0


def test_non_finite_energy_window_rejected():
    for window in ((math.nan, 6.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            find_eigenvalues(Potential.harmonic(), window, 64, HARMONIC_GRID)


def test_tiny_well_over_a_huge_window_returns():
    result = find_eigenvalues(Potential.infinite_well(0.001), (0.0, 1e9), 5)
    expected = np.array([well_level(n, length=0.001) for n in range(1, 6)])
    assert result.node_counts == (0, 1, 2, 3, 4)
    assert np.abs(result.energies / expected - 1.0).max() < 1e-6


@pytest.mark.parametrize("kind", ["harmonic", "well"])
def test_units_scaled_by_powers_of_two_scale_the_spectrum_exactly(kind):
    # Energy x 2^-60 and length x 2^-30 make the mass x 2^120 at hbar = 1:
    # the Numerov coefficients, seeds and action are the unit problem's, bit
    # for bit, so every level is 2^-60 times its unit value and every
    # normalized sample 2^15 times its own.
    energy, length = 2.0**-60, 2.0**-30
    if kind == "harmonic":
        unit, scaled = Potential.harmonic(), Potential.harmonic(mass=2.0**120, omega=energy)
        window, count, grid = (0.0, 44.0), 40, HARMONIC_GRID
    else:
        unit, scaled = Potential.infinite_well(), Potential.infinite_well(length, mass=2.0**120)
        window, count, grid = (0.0, 2000.0), 20, WELL_GRID
    expected = find_eigenvalues(unit, window, count, grid)
    result = find_eigenvalues(scaled, (window[0] * energy, window[1] * energy), count,
                              RealGrid(grid.q_min * length, grid.q_max * length, grid.n_points))
    assert np.array_equal(result.energies, expected.energies * energy)
    assert result.node_counts == expected.node_counts
    for got, want in zip(result.wavefunctions, expected.wavefunctions, strict=True):
        assert np.array_equal(got.values, want.values * 2.0**15)


def test_an_hbar_whose_numerov_scale_underflows_is_a_value_error():
    # hbar^2 = 1e320 overflows: the scale h^2 2m/(12 hbar^2) reads 0.
    potential = Potential.harmonic(hbar=1e160)
    with pytest.raises(ValueError, match="Numerov scale"):
        find_eigenvalues(potential, (0.0, 10.0), 3, HARMONIC_GRID)
    with pytest.raises(ValueError, match="Numerov scale"):
        solution_pair(potential, 0.5, HARMONIC_GRID)
    with pytest.raises(ValueError, match="Numerov scale"):
        classical_limit_scan(Potential.harmonic(), 0.5, [1e160])


def test_under_resolved_levels_raise_instead_of_returning_rows():
    # h = 0.005 leaves about six points across the omega = 1000 ground state.
    with pytest.raises(GridTooSmall, match="h = 0.005 .* decay length 0.0001"):
        find_eigenvalues(Potential.harmonic(omega=1000.0), (0.0, 5000.0), 3)


def test_window_floor_below_the_potential_minimum_is_raised_to_it():
    # At E = -1e6 every Numerov coefficient is negative; no level lies
    # below min V = 0, so the search starts there.
    result = find_eigenvalues(Potential.harmonic(), (-1e6, 5.0), 5)
    assert result.node_counts == (0, 1, 2, 3, 4)
    assert np.abs(result.energies - (np.arange(5) + 0.5)).max() <= 1e-5


def test_levels_closer_than_float_spacing_raise():
    # A deep symmetric double well: each tunnelling doublet is split far
    # below the float spacing of its energy, so no bracket can hold one.
    q = np.linspace(-6.0, 6.0, 4001)
    double_well = Potential.tabulated(q, 2.0 * (q * q - 9.0) ** 2)
    with pytest.raises(LevelsUnresolved, match="float spacing"):
        find_eigenvalues(double_well, (0.0, 30.0), 4)


def test_doublet_below_the_grid_energy_resolution_raises():
    # Levels 0 and 1 of this well are split far below the energy
    # resolution of a 4001-point grid and polish to one energy.
    q = np.linspace(-10.0, 10.0, 4001)
    double_well = Potential.tabulated(q, (q * q - 25.0) ** 2)
    with pytest.raises(LevelsUnresolved, match="energy resolution"):
        find_eigenvalues(double_well, (0.0, 30.0), 4)


@pytest.mark.parametrize("amplitude", [2.0 * (1.0 - 1e-12), 2.0 * (1.0 + 1e-12),
                                       2.0 * (1.0 + 1e-9), 1.99, 2.01])
def test_unresolved_doublet_has_one_message(amplitude):
    # Each of these doublets ends at find_eigenvalues' check that two
    # polished levels lie within the energy resolution; the collapsed count
    # bracket of _polish_level, the other raise site, is pinned below.
    q = np.linspace(-6.0, 6.0, 4001)
    double_well = Potential.tabulated(q, amplitude * (q * q - 9.0) ** 2)
    with pytest.raises(LevelsUnresolved, match="float spacing or than the grid's energy "
                                                "resolution"):
        find_eigenvalues(double_well, (0.0, 30.0), 4)


def test_a_collapsed_count_bracket_reports_the_doublet():
    # Counts 0 and 1 at adjacent floats leave level 0 no trial between them.
    potential, grid = Potential.harmonic(), RealGrid(-10.0, 10.0, 4001)
    v = potential.evaluate(grid.points())
    table = schrodinger1d._CountTable(potential, grid, v, 0.0, 5.0, 1e-9)
    table.counts.update({0.5: 0, math.nextafter(0.5, 1.0): 1})
    with pytest.raises(LevelsUnresolved, match="float spacing or than the grid's energy "
                                                "resolution"):
        schrodinger1d._polish_level(0, None, None, table)


def test_deep_double_well_ground_state_is_normalized():
    # The left march crosses a barrier of height 625 and grows to about
    # 1e163; squaring those samples must not overflow the normalization.
    q = np.linspace(-10.0, 10.0, 4001)
    double_well = Potential.tabulated(q, (q * q - 25.0) ** 2)
    result = find_eigenvalues(double_well, (0.0, 30.0), 1)
    psi = result.wavefunctions[0].values
    assert result.node_counts == (0,)
    assert float(np.trapezoid(psi * psi, dx=q[1] - q[0])) == pytest.approx(1.0, abs=1e-9)


def test_a_tail_below_the_float_range_of_its_end_sample_stays_silent():
    # Under the barrier of 50 (q^2 - 9)^2 + q/100 a march's far tail,
    # scaled to its end sample, falls below 1e-308 of it and reads 0, with
    # no overflow warning; the search still ends at level 1, whose
    # eigenfunction shows no node.
    q = np.linspace(-6.0, 6.0, 8001)
    potential = Potential.tabulated(q, 50.0 * (q * q - 9.0) ** 2 + 0.01 * q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NodeCountMismatch, match="^level 1 "):
            find_eigenvalues(potential, (0.0, 100.0), 64)


# ---------------------------------------------------------------------------
# shooting work and accuracy gates (machine-independent)


def _solve_counting_sweeps(potential, window):
    """find_eigenvalues plus its shooting sweeps per level."""
    calls = []
    shoot = schrodinger1d.shoot_mismatch

    def counted(*args):
        calls.append(args)
        return shoot(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schrodinger1d, "shoot_mismatch", counted)
        result = find_eigenvalues(potential, window, 64)
    return result, len(calls) / len(result.energies)


@pytest.fixture(scope="module")
def harmonic_to_forty():
    return _solve_counting_sweeps(Potential.harmonic(), (0.0, 40.0))


def test_harmonic_window_costs_at_most_2_5_sweeps_per_level(harmonic_to_forty):
    result, per_level = harmonic_to_forty
    assert len(result.energies) == 40
    assert per_level <= 2.5


def test_harmonic_levels_to_forty_reach_method_accuracy(harmonic_to_forty):
    result, _ = harmonic_to_forty
    expected = np.array([harmonic_level(n) for n in range(40)])
    assert np.abs(result.energies - expected).max() <= 1e-5


def test_well_window_costs_at_most_2_2_sweeps_per_level():
    result, per_level = _solve_counting_sweeps(Potential.infinite_well(1.0), (0.0, 2000.0))
    assert len(result.energies) == 20
    assert per_level <= 2.2


def test_tabulated_window_costs_at_most_2_3_sweeps_per_level():
    q = np.linspace(-10.0, 10.0, 1401)
    result, per_level = _solve_counting_sweeps(Potential.tabulated(q, 0.5 * q * q), (0.0, 20.0))
    assert len(result.energies) == 20
    assert per_level <= 2.3


_TOTALS_Q = np.linspace(-6.0, 6.0, 201)


@pytest.mark.parametrize("potential, window, levels, sweeps", [
    (Potential.harmonic(), (0.0, 6.0), 6, 14),
    (Potential.infinite_well(1.0), (0.0, 200.0), 6, 13),
    (Potential.tabulated(_TOTALS_Q, 0.5 * _TOTALS_Q**2), (0.0, 10.0), 10, 22),
], ids=["harmonic", "well", "tabulated"])
def test_a_window_takes_its_exact_sweep_total(potential, window, levels, sweeps):
    # The gates above bound averages per level; these totals pin each
    # window's sweeps, so a polish that takes one sweep more or less shows.
    result, per_level = _solve_counting_sweeps(potential, window)
    assert len(result.energies) == levels
    assert per_level * levels == pytest.approx(sweeps, abs=1e-9)


@contextlib.contextmanager
def _recorded_sweeps():
    """The energies of the shooting sweeps made inside the block."""
    energies = []
    shoot = schrodinger1d.shoot_mismatch

    def recorded(potential, energy, *args):
        energies.append(energy)
        return shoot(potential, energy, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schrodinger1d, "shoot_mismatch", recorded)
        yield energies


_WINDOW_Q = np.linspace(-10.0, 10.0, 1201)


@pytest.mark.parametrize("potential, window, count", [
    (Potential.harmonic(omega=1.1), (4.0 * 1.1, 8.0 * 1.1), 4),
    (Potential.infinite_well(1.0), (0.0, 200.0), 6),
    (Potential.tabulated(_WINDOW_Q, 0.5 * _WINDOW_Q**2), (0.0, 6.0), 6),
], ids=["harmonic", "well", "tabulated"])
def test_a_window_holding_max_count_levels_never_sweeps_its_top(potential, window, count):
    # Every polish sweep lies strictly inside its level's count bracket, so
    # the sweeps at the window's ends are the floor's and the top's; the
    # last level asked for needs no count above it.
    with _recorded_sweeps() as energies:
        result = find_eigenvalues(potential, window, count)
    assert len(result.energies) == count
    assert [e for e in energies if not window[0] < e < window[1]] == [window[0]]


def test_a_window_with_fewer_levels_sweeps_its_top_once():
    with _recorded_sweeps() as energies:
        result = find_eigenvalues(Potential.harmonic(), (0.0, 6.0), 64)
    assert result.node_counts == tuple(range(6))
    expected = np.array([harmonic_level(n) for n in range(6)])
    assert np.abs(result.energies - expected).max() <= 1e-5
    assert [e for e in energies if not 0.0 < e < 6.0] == [0.0, 6.0]


def test_an_empty_window_is_found_empty_in_two_sweeps():
    # Level 1 (E = 1.5) lies above the window, and its action guess says so.
    with _recorded_sweeps() as energies, pytest.raises(NoEigenvalueInRange):
        find_eigenvalues(Potential.harmonic(), (0.6, 1.4), 64)
    assert len(energies) <= 2


def _polish_tolerance(potential, grid, energies):
    """max(1e-12 max(1, |E|), energy resolution of the Numerov coefficients)."""
    resolution = 12.0 * math.ulp(1.0) / (potential.mass * (grid.spacing / potential.hbar) ** 2)
    return np.maximum(1e-12 * np.maximum(1.0, np.abs(energies)), resolution)


_DOUBLE_801 = np.linspace(-6.0, 6.0, 801)
_DOUBLE_4001 = np.linspace(-6.0, 6.0, 4001)


@pytest.mark.parametrize("potential, window, grid", [
    (Potential.harmonic(), (0.0, 40.0), HARMONIC_GRID),
    (Potential.infinite_well(1.0), (0.0, 2000.0), WELL_GRID),
    (Potential.tabulated(_DOUBLE_801, (_DOUBLE_801**2 - 4.0) ** 2 + 0.5 * _DOUBLE_801),
     (-5.0, 40.0), RealGrid(-6.0, 6.0, 801)),
    # The ground state's doublet partner lies 1.6e-5 above it, where w
    # turns fast: one sweep there takes a tiny step with a slope 1e4 times
    # the last one's, which the steps' ratio alone reads as converged.
    (Potential.tabulated(_DOUBLE_4001, (_DOUBLE_4001**2 - 4.0) ** 2), (0.0, 40.0),
     RealGrid(-6.0, 6.0, 4001)),
], ids=["harmonic", "well", "asymmetric-double-well", "symmetric-double-well"])
def test_a_sweep_at_each_level_would_end_the_polish(potential, window, grid):
    # A polish may end on a predicted step without sweeping its last
    # energy.  Sweeping it anyway must count k or k + 1 levels below it
    # and take a Newton step within the polish tolerance.
    v = potential.evaluate(grid.points())
    result = find_eigenvalues(potential, window, 64, grid)
    tolerance = _polish_tolerance(potential, grid, result.energies)
    for k, energy, limit in zip(result.node_counts, result.energies, tolerance):
        count, w, _, marches, _, _ = schrodinger1d.shoot_mismatch(potential, energy, grid, v)
        slope = schrodinger1d._match_slope(potential, grid, *marches)[0]
        assert count in (k, k + 1), k
        assert abs(w) / slope <= limit, k


def test_harmonic_eigenfunctions_keep_the_accuracy_of_a_swept_level():
    # An eigenfunction whose level ended on a predicted step is
    # extrapolated to that level from its last two sweeps.  Spliced from
    # the last sweep as it stands, it would be off by up to 4.7e-8.
    result = find_eigenvalues(Potential.harmonic(), (0.0, 10.0), 64, HARMONIC_GRID)
    assert result.node_counts == tuple(range(10))
    for n, psi in enumerate(result.wavefunctions):
        expected = harmonic_eigenfunction(n, HARMONIC_GRID.points())
        assert np.abs(psi.values - expected).max() <= 2e-9, n


_TABLE_Q = np.linspace(-10.0, 10.0, 1201)
_DOUBLE_Q = np.linspace(-5.0, 5.0, 2001)


@pytest.mark.parametrize("potential, window, count", [
    (Potential.harmonic(), (0.0, 200.0), 6),
    (Potential.infinite_well(1.0), (0.0, 200.0), 6),
    (Potential.tabulated(_TABLE_Q, 0.5 * _TABLE_Q**2), (0.0, 200.0), 6),
    # Level 0 sits in the lower, left well, and the match is taken at the
    # right well's outer turning point: there the level's tail is so small
    # that w turns over by pi within float spacing, and sweeps just above
    # the level see level 1 as the nearer root of w.
    (Potential.tabulated(_DOUBLE_Q, (_DOUBLE_Q**2 - 4.0) ** 2 + 0.5 * _DOUBLE_Q), (-5.0, 30.0), 2),
], ids=["harmonic", "well", "tabulated", "asymmetric-double-well"])
def test_levels_match_the_count_bisection_oracle(potential, window, count):
    grid = potential.default_grid()
    v = potential.evaluate(grid.points())
    result = find_eigenvalues(potential, window, count, grid)
    assert result.node_counts == tuple(range(count))
    oracle = [numerov_level_by_count_bisection(lambda e: 2.0 * (e - v), grid.spacing, k, *window)
              for k in range(count)]
    tolerance = _polish_tolerance(potential, grid, result.energies)
    assert np.all(np.abs(result.energies - oracle) <= tolerance)


@pytest.mark.parametrize("n", [11, 21, 41])
def test_every_level_of_a_coarse_well_matches_the_count_bisection_oracle(n):
    # The Numerov coefficients reach 1.2-1.5 at these grids' top levels, so
    # w turns slower than the z tails' slope by c_im c_im+1.  A Newton step
    # without that factor stopped short: 1.03 tolerances off on 11 points.
    potential = Potential.infinite_well(1.0)
    grid = RealGrid(0.0, 1.0, n)
    v = potential.evaluate(grid.points())
    result = find_eigenvalues(potential, (0.0, 1e6), 100, grid)
    assert result.node_counts == tuple(range(n - 2))
    oracle = [numerov_level_by_count_bisection(lambda e: 2.0 * (e - v), grid.spacing, k, 0.0, 1e6)
              for k in result.node_counts]
    tolerance = _polish_tolerance(potential, grid, result.energies)
    assert np.all(np.abs(result.energies - oracle) <= tolerance)


def test_levels_match_the_matrix_numerov_oracle():
    # One dense eigensolve of the same discretization, with no march: the
    # asymmetric double well (q^2 - 4)^2 + q/2, tabulated, up to E = 40.
    q = np.linspace(-6.0, 6.0, 801)
    potential = Potential.tabulated(q, (q * q - 4.0) ** 2 + 0.5 * q)
    grid = RealGrid(-6.0, 6.0, 801)
    levels = matrix_numerov_levels(potential.evaluate(grid.points()), grid.spacing)
    oracle = levels[(levels > -5.0) & (levels < 40.0)]
    result = find_eigenvalues(potential, (-5.0, 40.0), 100, grid)
    assert len(result.energies) == len(oracle) == 16
    # The oracle's own roundoff is a few eps times the matrix norm.
    tolerance = (_polish_tolerance(potential, grid, result.energies)
                 + 4.0 * np.finfo(float).eps * np.abs(levels).max())
    assert np.all(np.abs(result.energies - oracle) <= tolerance)


@pytest.mark.parametrize("offset", [-1e-3, -1e-6, 1e-6, 1e-3])
@pytest.mark.parametrize("potential, level", [(Potential.harmonic(), 2), (Potential.harmonic(), 30),
                                              (Potential.infinite_well(1.0), 0),
                                              (Potential.infinite_well(1.0), 1)],
                         ids=["harmonic-2", "harmonic-30", "well-0", "well-1"])
def test_newton_slope_matches_a_central_difference(potential, level, offset):
    # The Newton step's |dw/dE| against (w(E + d) - w(E - d)) / 2d at the
    # sweep's own matching index, near the level and a little away from it.
    grid = potential.default_grid()
    v = potential.evaluate(grid.points())
    exact = harmonic_level(level) if potential.kind == "harmonic" else well_level(level + 1)
    energy = exact + offset
    _, _, im, marches, _, _ = schrodinger1d.shoot_mismatch(potential, energy, grid, v)
    slope = schrodinger1d._match_slope(potential, grid, *marches)[0]
    w_hi, w_lo = (schrodinger1d.shoot_mismatch(potential, energy + d, grid, v, im)[1]
                  for d in (1e-5, -1e-5))
    assert slope == pytest.approx(abs(w_hi - w_lo) / 2e-5, rel=0.05)


_SLOPE_Q = np.linspace(-6.0, 6.0, 4001)


@pytest.mark.parametrize("potential, grid, energies", [
    (Potential.harmonic(), HARMONIC_GRID, (0.5, 2.5 + 1e-6, 7.3, 30.5 - 1e-3, 39.9)),
    (Potential.infinite_well(1.0), WELL_GRID, (well_level(1) + 1e-6, 200.0, 1999.0)),
    (Potential.tabulated(_SLOPE_Q, (_SLOPE_Q**2 - 4.0) ** 2 + 0.5 * _SLOPE_Q),
     RealGrid(-6.0, 6.0, 4001), (-0.9, 0.3, 12.0, 35.0)),
    # Every coefficient is 1.2 at E = 120 on 11 points: the marches there
    # hold exact zero samples, the left one's last sample among them.
    (Potential.infinite_well(1.0), RealGrid(0.0, 1.0, 11), (120.0 - 1e-7, 120.0, 120.0 + 1e-7)),
], ids=["harmonic", "well", "asymmetric-double-well", "well-11-points"])
def test_newton_slope_matches_the_log_form_sums(potential, grid, energies):
    # The sums over samples scaled to their end sample against the same
    # sums taken in log form, sweep by sweep.
    v = potential.evaluate(grid.points())
    for energy in energies:
        marches = schrodinger1d.shoot_mismatch(potential, energy, grid, v)[3]
        slope = schrodinger1d._match_slope(potential, grid, *marches)[0]
        expected = log_form_match_slope(*marches, grid.spacing)
        assert slope == pytest.approx(expected, rel=1e-12), energy


_EDGE_Q = np.linspace(-6.0, 6.0, 2001)


def test_a_level_near_the_soft_edge_polishes_on_the_slope_with_the_seed_terms():
    # Level 17 of q^2/2 cut at |q| = 6 lies 0.59 below the edge potential,
    # so the tails the decaying seeds stand for carry 11% of dw/dE.  Without
    # them the Newton steps overshoot: w alternated sign and the polish took
    # 10 sweeps to reach 17.411712646237095.
    potential = Potential.tabulated(_EDGE_Q, 0.5 * _EDGE_Q**2)
    grid = potential.default_grid()
    result, per_level = _solve_counting_sweeps(potential, (16.6, 17.9))
    assert result.node_counts == (17,)
    assert per_level - 2 <= 5  # the window's two edge sweeps, then the polish
    energy = result.energies[0]
    limit = _polish_tolerance(potential, grid, result.energies)[0]
    assert abs(energy - 17.411712646237095) <= limit
    v = potential.evaluate(grid.points())
    _, _, im, marches, _, _ = schrodinger1d.shoot_mismatch(potential, energy, grid, v)
    slope = schrodinger1d._match_slope(potential, grid, *marches)[0]
    for d in (1e-7, 1e-5, 1e-3):
        w_hi, w_lo = (schrodinger1d.shoot_mismatch(potential, energy + e, grid, v, im)[1]
                      for e in (d, -d))
        assert slope == pytest.approx(abs(w_hi - w_lo) / (2.0 * d), rel=1e-4), d


_ACTION_Q = np.linspace(-6.0, 6.0, 4001)


@pytest.mark.parametrize("potential, grid, top", [
    (Potential.harmonic(), HARMONIC_GRID, 40.0),
    (Potential.infinite_well(1.0), WELL_GRID, 2000.0),
    (Potential.tabulated(_ACTION_Q, (_ACTION_Q**2 - 4.0) ** 2), RealGrid(-6.0, 6.0, 4001), 40.0),
], ids=["harmonic", "well", "double-well"])
def test_action_guess_solves_the_trapezoid_action(potential, grid, top):
    # The guess reads only the samples below its bracket top, as a weighted
    # sum; over the full grid, np.trapezoid's action at the guess must be
    # k + 1/2 quanta (k + 1 between hard walls).  The end samples keep their
    # half weights: between hard walls p does not vanish there.
    v = potential.evaluate(grid.points())
    maslov = 1.0 if potential.hard_wall else 0.5
    for k in range(10):
        guess = schrodinger1d._action_guess(potential, v, grid, k + maslov, float(v.min()), top)
        p = np.sqrt(np.maximum(2.0 * potential.mass * (guess - v), 0.0))
        action = float(np.trapezoid(p, dx=grid.spacing)) / (math.pi * potential.hbar)
        assert abs(action - (k + maslov)) <= schrodinger1d._GUESS_TOL, k


def _solve_counting_calls(potential, window, grid=None):
    """find_eigenvalues' result over ``window`` (up to 64 levels), its calls
    of shoot_mismatch, _ratios and Potential.evaluate, and under "matched at" the
    matching indices its sweeps took."""
    calls = {"shoot_mismatch": 0, "_ratios": 0, "evaluate": 0, "matched at": set()}

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            result = function(*args, **kwargs)
            if name == "shoot_mismatch":
                calls["matched at"].add(result[2])
            return result
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for name in ("shoot_mismatch", "_ratios"):
            patch.setattr(schrodinger1d, name, counting(name, getattr(schrodinger1d, name)))
        patch.setattr(Potential, "evaluate", counting("evaluate", Potential.evaluate))
        result = find_eigenvalues(potential, window, 64, grid)
    return result, calls


@pytest.mark.parametrize("potential, window, marches", [
    (Potential.harmonic(), (0.0, 40.0), 1),
    (Potential.infinite_well(1.0), (0.0, 60.0), 1),
    (Potential.tabulated(_DOUBLE_801, (_DOUBLE_801**2 - 4.0) ** 2 + 0.5 * _DOUBLE_801),
     (-5.0, 40.0), 2),
], ids=["harmonic", "well", "asymmetric-double-well"])
def test_one_march_a_sweep_on_mirror_samples_else_two(potential, window, marches):
    # One march per sweep where the sampled potential is its own mirror
    # image, two elsewhere, and none after the polish: every eigenfunction
    # comes from the polish sweeps at its level, and every sweep reads the
    # one sample of the potential that find_eigenvalues takes.
    result, calls = _solve_counting_calls(potential, window)
    assert len(result.energies) >= 3
    assert calls["_ratios"] == marches * calls["shoot_mismatch"]
    assert calls["evaluate"] == 1


@pytest.mark.parametrize("energy", [0.7, 5.5, 23.2])
@pytest.mark.parametrize("potential, grid", [
    (Potential.harmonic(), RealGrid(-10.0, 10.0, 4001)),
    (Potential.harmonic(), RealGrid(-10.0, 10.0, 4000)),
    (Potential.infinite_well(1.0), RealGrid(0.0, 1.0, 2001)),
    (Potential.infinite_well(1.0), RealGrid(0.0, 1.0, 2000)),
], ids=["harmonic-odd", "harmonic-even", "well-odd", "well-even"])
def test_mirror_sweep_reads_the_right_march_off_the_left(potential, grid, energy):
    # On mirror-symmetric samples the march in from the right edge is bit
    # for bit a prefix of the one in from the left (on an even count, all
    # of it), so one march gives the two-march sweep at the centre.
    v = potential.evaluate(grid.points())
    assert np.array_equal(v, v[::-1])
    centre = (grid.n_points - 1) // 2
    mirrored, calls = _counted_sweep(energy, v, potential=potential, im=centre, grid=grid)
    marched, two_calls = _counted_sweep(energy, v, _listed_seeds, potential, centre, grid)
    assert (calls, two_calls) == (1, 2)
    assert mirrored[:3] == marched[:3]
    for (ratios, *seed), (expected, *expected_seed) in zip(mirrored[3], marched[3]):
        assert np.array_equal(ratios, expected) and seed == expected_seed


_LINSPACE_Q = np.linspace(-10.0, 10.0, 1501)
_LINSPACE_TABLE = Potential.tabulated(_LINSPACE_Q, 0.5 * _LINSPACE_Q**2)


def _counted_sweep(energy, v, decay_seeds=schrodinger1d._decay_seeds,
                   potential=_LINSPACE_TABLE, im=None, grid=None):
    """shoot_mismatch on ``grid``, by default the potential's own (at the rightmost
    turning point unless ``im`` is given), and its number of _ratios calls."""
    calls = []
    ratios = schrodinger1d._ratios
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schrodinger1d, "_ratios", lambda *args: calls.append(1) or ratios(*args))
        patch.setattr(schrodinger1d, "_decay_seeds", decay_seeds)
        sweep = schrodinger1d.shoot_mismatch(potential, energy, grid or potential.default_grid(),
                                             v, im)
    return sweep, len(calls)


def _listed_seeds(*args, decay_seeds=schrodinger1d._decay_seeds):
    # The right seed as a list compares unequal to the left one, a tuple of
    # the same values, so shoot_mismatch marches b although its coefficients mirror.
    seed_l, seed_r = decay_seeds(*args)
    return seed_l, list(seed_r)


@pytest.mark.parametrize("energy", [0.7, 5.5, 23.2])
def test_a_turning_point_sweep_whose_coefficients_mirror_marches_once(energy):
    # The linspace table samples not quite evenly on the grid, so the search
    # matches at the turning point, but its coefficients over the right
    # march's span mirror the left's exactly: b is a prefix of a, bit for bit.
    grid = _LINSPACE_TABLE.default_grid()
    v = _LINSPACE_TABLE.evaluate(grid.points())
    assert not np.array_equal(v, v[::-1])
    once, calls = _counted_sweep(energy, v)
    twice, two_calls = _counted_sweep(energy, v, _listed_seeds)
    assert (calls, two_calls) == (1, 2)
    assert once[2] > (grid.n_points - 1) // 2
    assert once[:3] == twice[:3]
    for (ratios, *seed), (expected, *expected_seed) in zip(once[3], twice[3]):
        assert np.array_equal(ratios, expected) and seed == expected_seed


def test_a_coefficient_off_its_mirror_brings_back_the_second_march():
    # One sample right of the match, in b's span, nudged so its coefficient
    # no longer equals its mirror's.
    grid = _LINSPACE_TABLE.default_grid()
    v = _LINSPACE_TABLE.evaluate(grid.points())
    v[2900] *= 1.0 + 1e-9
    c = schrodinger1d._coefficients(_LINSPACE_TABLE, 5.5, grid, v)
    assert c[2900] != c[grid.n_points - 1 - 2900]
    sweep, calls = _counted_sweep(5.5, v)
    assert calls == 2
    assert sweep[2] < 2900


def test_a_match_left_of_the_centre_marches_twice():
    # Left of the centre b's march is longer than a's, so no prefix of a's
    # can stand for it, though the coefficients mirror.
    potential = Potential.harmonic()
    v = potential.evaluate(HARMONIC_GRID.points())
    centre = (HARMONIC_GRID.n_points - 1) // 2
    for im in (1800, centre - 1):
        (_, _, _, (_, (right, *_)), _, _), calls = _counted_sweep(5.5, v, potential=potential,
                                                                  im=im)
        assert calls == 2 and len(right) == HARMONIC_GRID.n_points - im - 1


@pytest.mark.parametrize("potential, energy", [
    (_LINSPACE_TABLE, 0.7), (_LINSPACE_TABLE, 23.2), (Potential.harmonic(), 5.5),
    (Potential.infinite_well(1.0), 4.9), (Potential.infinite_well(1.0), 1973.9),
], ids=["table-low", "table-high", "harmonic", "well-low", "well-high"])
def test_a_prefix_side_rescales_the_left_product(potential, energy):
    # t_a[:m + 1]/t_a[m] divides two products of a's factors where
    # _end_scaled(b) takes one of b's: each sample carries at most about one
    # ulp per factor from it to a's end on each side.
    grid = potential.default_grid()
    _, _, _, marches, _, _ = schrodinger1d.shoot_mismatch(potential, energy, grid)
    (left, *_), (right, *_) = marches
    assert right.base is left
    _, _, (t, factors) = schrodinger1d._match_slope(potential, grid, *marches)
    expected_t, expected_factors = schrodinger1d._end_scaled(right)
    assert np.array_equal(factors, expected_factors)
    factors_to_end = len(left) + 1 - np.arange(len(t))
    assert np.all(np.abs(t - expected_t) <= 4.0 * factors_to_end * np.spacing(np.abs(expected_t)))


def test_a_prefix_side_ending_on_a_zero_sample_is_scaled_afresh(monkeypatch):
    # At E = 120 on 11 points the solution 0, 1, 0, -1, ... has a zero at
    # every even sample.  Matched at im = 6, b's march ends on sample 4,
    # where a's product over its end reads exactly 0: no scale to divide by.
    grid = RealGrid(0.0, 1.0, 11)
    well = Potential.infinite_well(1.0)
    _, _, _, marches, _, _ = schrodinger1d.shoot_mismatch(well, 120.0, grid, None, 6)
    (left, *_), (right, *_) = marches
    assert right.base is left and len(right) == 4
    end_scaled = schrodinger1d._end_scaled
    scaled = []
    monkeypatch.setattr(schrodinger1d, "_end_scaled", lambda r: scaled.append(r) or end_scaled(r))
    _, (t_a, _), (t, factors) = schrodinger1d._match_slope(well, grid, *marches)
    assert t_a[4] == 0.0 and len(scaled) == 2
    expected_t, expected_factors = end_scaled(right)
    assert np.array_equal(t, expected_t) and np.array_equal(factors, expected_factors)


def _nudged(v):
    """``v`` with its last sample one ulp higher: no longer its own mirror
    image, so find_eigenvalues takes its two-march path."""
    v = np.array(v, dtype=float)
    v[-1] = np.nextafter(v[-1], np.inf)
    return v


_MIRROR_SHAPES = pytest.mark.parametrize(
    "shape", [lambda q: (q * q - 4.0) ** 2, lambda q: 3.0 * (q * q - 2.0) ** 2],
    ids=["deep-double-well", "shallow-double-well"])


@_MIRROR_SHAPES
def test_a_mirror_table_gives_the_two_march_levels(shape):
    grid = RealGrid(-6.0, 6.0, 4001)
    q = grid.points()
    result, calls = _solve_counting_calls(Potential.tabulated(q, shape(q)), (0.0, 40.0))
    assert calls["_ratios"] == calls["shoot_mismatch"]
    potential = Potential.tabulated(q, _nudged(shape(q)))
    reference, calls = _solve_counting_calls(potential, (0.0, 40.0))
    assert (grid.n_points - 1) // 2 not in calls["matched at"]
    assert result.node_counts == reference.node_counts == tuple(range(len(result.energies)))
    tolerance = _polish_tolerance(potential, grid, reference.energies)
    assert np.all(np.abs(result.energies - reference.energies) <= tolerance)


@_MIRROR_SHAPES
def test_a_mirror_table_matches_the_matrix_oracle(shape):
    grid = RealGrid(-6.0, 6.0, 801)
    potential = Potential.tabulated(grid.points(), shape(grid.points()))
    result, calls = _solve_counting_calls(potential, (0.0, 40.0), grid)
    assert calls["_ratios"] == calls["shoot_mismatch"]
    levels = matrix_numerov_levels(potential.evaluate(grid.points()), grid.spacing)
    oracle = levels[(levels > 0.0) & (levels < 40.0)]
    assert len(result.energies) == len(oracle) >= 12
    # The bound of test_levels_match_the_matrix_numerov_oracle.
    tolerance = (_polish_tolerance(potential, grid, result.energies)
                 + 4.0 * np.finfo(float).eps * np.abs(levels).max())
    assert np.all(np.abs(result.energies - oracle) <= tolerance)


@pytest.mark.parametrize("potential, window, grid", [
    (Potential.harmonic(), (0.0, 40.0), RealGrid(-10.0, 10.0, 4000)),
    (Potential.infinite_well(1.0), (0.0, 2000.0), RealGrid(0.0, 1.0, 2000)),
], ids=["harmonic", "well"])
def test_an_even_point_grid_gives_the_two_march_levels(potential, window, grid, monkeypatch):
    # The centre index (n - 1)//2 of an even count leaves the right march
    # the whole of the left one.
    result, calls = _solve_counting_calls(potential, window, grid)
    assert calls["_ratios"] == calls["shoot_mismatch"]
    evaluate = Potential.evaluate
    monkeypatch.setattr(Potential, "evaluate", lambda self, q: _nudged(evaluate(self, q)))
    reference, calls = _solve_counting_calls(potential, window, grid)
    assert (grid.n_points - 1) // 2 not in calls["matched at"]
    assert result.node_counts == reference.node_counts == tuple(range(len(result.energies)))
    tolerance = _polish_tolerance(potential, grid, reference.energies)
    assert np.all(np.abs(result.energies - reference.energies) <= tolerance)


def _far_guess(potential, v, grid, quanta, lo, hi):
    return lo + 0.01 * (hi - lo)


@pytest.mark.parametrize("guess", [lambda *args: None, _far_guess], ids=["none", "far"])
@pytest.mark.parametrize("potential, window", [(Potential.harmonic(), (0.0, 40.0)),
                                               (Potential.infinite_well(1.0), (0.0, 60.0))],
                         ids=["harmonic", "well"])
def test_counts_not_the_guess_decide_the_levels(potential, window, guess, monkeypatch):
    reference = find_eigenvalues(potential, window, 64)
    monkeypatch.setattr(schrodinger1d, "_action_guess", guess)
    result = find_eigenvalues(potential, window, 64)
    assert result.node_counts == reference.node_counts
    spacing = potential.default_grid().spacing
    resolution = 12.0 * math.ulp(1.0) / spacing**2
    tolerance = np.maximum(1e-12 * np.maximum(1.0, np.abs(reference.energies)), resolution)
    assert np.all(np.abs(result.energies - reference.energies) <= tolerance)
    if potential.kind == "harmonic":
        expected = np.array([harmonic_level(n) for n in range(40)])
        assert np.abs(result.energies - expected).max() <= 1e-5


@pytest.mark.parametrize(
    "potential, grid, top",
    [
        (Potential.harmonic(), HARMONIC_GRID, 40.0),
        (Potential.infinite_well(1.0), WELL_GRID, 2000.0),
    ],
)
def test_one_sweep_count_equals_full_grid_node_count(potential, grid, top):
    q = grid.points()
    for energy in np.linspace(0.0137, top, 300):
        g = 2.0 * (energy - potential.evaluate(q))
        count = schrodinger1d.shoot_mismatch(potential, float(energy), grid)[0]
        assert count == numerov_node_count(g, grid.spacing), energy


def test_count_sees_a_node_on_an_exact_zero_sample_once():
    # On 11 points with E = 120 every Numerov coefficient is 1.2 and the
    # solution 0, 1, 0, -1, ... meets both walls: E is the discrete level
    # with 4 nodes, each on an exact zero sample.  Four levels lie below
    # it, and five below energies just above it.
    grid = RealGrid(0.0, 1.0, 11)
    well = Potential.infinite_well(1.0)
    energies = (120.0 - 1e-7, 120.0, 120.0 + 1e-7)
    shots = [schrodinger1d.shoot_mismatch(well, e, grid) for e in energies]
    counts = [shot[0] for shot in shots]
    assert counts == [4, 4, 5]
    assert shots[1][1] == 0.0  # the match vanishes on the level
    for e, count in zip(energies[::2], counts[::2]):
        assert count == numerov_node_count(np.full(11, 2.0 * e), grid.spacing)


# ---------------------------------------------------------------------------
# solution pairs


def test_free_pair_is_cosine_and_sine():
    grid = RealGrid(0.0, 10.0, 4001)
    pair = solution_pair(Potential.free(), 0.5, grid)
    x = grid.points() - 5.0
    assert np.abs(pair.u.values - np.cos(x)).max() < 1e-8
    assert np.abs(pair.v.values - np.sin(x)).max() < 1e-8
    assert pair.wronskian == pytest.approx(1.0, abs=1e-12)


def test_free_pair_scaling_for_other_wavenumbers():
    # With the Wronskian pinned to hbar the pair is sqrt(hbar/k) cos/sin.
    grid = RealGrid(0.0, 10.0, 4001)
    k = 2.0
    pair = solution_pair(Potential.free(), 0.5 * k * k, grid)
    x = grid.points() - 5.0
    amp = math.sqrt(1.0 / k)
    assert np.abs(pair.u.values - amp * np.cos(k * x)).max() < 1e-7
    assert np.abs(pair.v.values - amp * np.sin(k * x)).max() < 1e-7


def test_pair_wronskian_profile_is_flat():
    grid = RealGrid(-4.0, 4.0, 4001)
    pot = Potential.harmonic()
    pair = solution_pair(pot, 0.5, grid)
    g = 2.0 * (0.5 - pot.evaluate(grid.points()))
    profile = schrodinger1d._wronskian_profile(pair.u.values, pair.v.values, g, grid.spacing)
    assert np.abs(profile - 1.0).max() < 1e-8


def test_pair_exists_away_from_the_spectrum():
    grid = RealGrid(-4.0, 4.0, 4001)
    pair = solution_pair(Potential.harmonic(), 0.7, grid)
    assert pair.wronskian == pytest.approx(1.0)


def test_identical_seeds_rejected_as_degenerate():
    grid = RealGrid(0.0, 10.0, 2001)
    h = grid.spacing
    wave = Wavefunction(grid, _march(Potential.free(), 0.5, grid, seed=(0.0, math.sin(h))), 0.5)
    with pytest.raises(DegeneratePair):
        pair_from_wavefunctions(wave, wave, Potential.free())


def test_caller_supplied_pair_is_rescaled_to_hbar():
    grid = RealGrid(0.0, 10.0, 4001)
    q = grid.points()
    u = Wavefunction(grid, 3.0 * np.cos(q), 0.5)
    v = Wavefunction(grid, 3.0 * np.sin(q), 0.5)
    pair = pair_from_wavefunctions(u, v, Potential.free())
    assert pair.wronskian == pytest.approx(1.0)
    # 3 cos * 3 sin has Wronskian 9; the common rescale is 1/3.
    assert np.abs(pair.u.values - np.cos(q)).max() < 1e-9


def test_pair_members_must_share_grid_and_energy():
    grid = RealGrid(0.0, 10.0, 2001)
    q = grid.points()
    u = Wavefunction(grid, np.cos(q), 0.5)
    v = Wavefunction(grid, np.sin(q), 0.6)
    with pytest.raises(ValueError, match="share"):
        pair_from_wavefunctions(u, v, Potential.free())


def test_inconsistent_samples_rejected():
    # sin(x) and x are independent but not solutions of one equation, so
    # their Wronskian profile is not constant and must be refused.
    grid = RealGrid(0.5, 10.0, 2001)
    q = grid.points()
    u = Wavefunction(grid, np.sin(q), 0.5)
    v = Wavefunction(grid, q.copy(), 0.5)
    with pytest.raises(DegeneratePair):
        pair_from_wavefunctions(u, v, Potential.free())


def test_a_slightly_inconsistent_pair_is_refused_by_the_relative_spread():
    # cos q and sin 1.001q: the Wronskian profile stays within half its
    # median, so only the relative spread check (5.2e-4 against 1e-7) refuses.
    grid = RealGrid(0.5, 10.0, 2001)
    q = grid.points()
    u = Wavefunction(grid, np.cos(q), 0.5)
    v = Wavefunction(grid, np.sin(1.001 * q), 0.5)
    with pytest.raises(DegeneratePair, match="varies"):
        pair_from_wavefunctions(u, v, Potential.free())


@pytest.mark.parametrize("size", [7, 8, 4001, 4002])
def test_wronskian_median_equals_numpy_median(size):
    profile = np.random.default_rng(size).normal(1.0, 1e-9, size)
    assert schrodinger1d._median(profile) == np.median(profile)
    profile[size // 3] = np.nan
    assert math.isnan(schrodinger1d._median(profile))
