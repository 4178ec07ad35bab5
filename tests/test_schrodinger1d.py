"""Stationary-equation solver against closed-form oracles.

Free-particle integrations are compared with sin/cos expressions, the
harmonic ground state with its Gaussian, and both built-in spectra with
their textbook formulas (n + 1/2 and n^2 pi^2 / 2).  Convergence order is
measured directly by halving the spacing.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmkit.schrodinger1d as schrodinger1d
from oracles import (harmonic_eigenfunction, harmonic_level, numerov_level_by_count_bisection,
                     numerov_node_count, numerov_samples, well_eigenfunction, well_level)
from qmkit import (
    DegeneratePair,
    GridTooSmall,
    LevelsUnresolved,
    NoEigenvalueInRange,
    Overflow,
    Potential,
    RealGrid,
    Wavefunction,
    find_eigenvalues,
    load_potential_table,
    numerov_integrate,
    pair_from_wavefunctions,
    shoot_mismatch,
    solution_pair,
    wronskian_profile,
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


def test_tabulated_values_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        Potential.tabulated([0.0, 1.0, 2.0], [0.0, math.nan, 4.0])


def test_unknown_potential_kind_rejected():
    with pytest.raises(ValueError, match="unknown potential kind"):
        Potential(kind="banana")


def test_tabulated_requires_strictly_increasing_points():
    with pytest.raises(ValueError, match="strictly increasing"):
        Potential.tabulated([0.0, 1.0, 1.0], [0.0, 0.5, 1.0])


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


# ---------------------------------------------------------------------------
# numerov_integrate


def test_free_particle_matches_sine_closed_form():
    grid = RealGrid(0.0, 10.0, 4001)
    h = grid.spacing
    wave = numerov_integrate(Potential.free(), 0.5, grid, seed=(0.0, math.sin(h)))
    assert np.abs(wave.values - np.sin(grid.points())).max() < 1e-8


@settings(max_examples=20, deadline=None)
@given(k=st.floats(min_value=0.5, max_value=3.0))
def test_free_particle_matches_sine_for_random_wavenumbers(k):
    grid = RealGrid(0.0, 10.0, 4001)
    h = grid.spacing
    energy = 0.5 * k * k
    wave = numerov_integrate(
        Potential.free(), energy, grid, seed=(0.0, math.sin(k * h))
    )
    assert np.abs(wave.values - np.sin(k * grid.points())).max() < 1e-6


def test_zero_energy_free_solution_is_linear():
    grid = RealGrid(0.0, 10.0, 4001)
    wave = numerov_integrate(Potential.free(), 0.0, grid, seed=(0.0, grid.spacing))
    assert np.abs(wave.values - grid.points()).max() < 1e-10


def test_harmonic_ground_state_matches_gaussian():
    h = HARMONIC_GRID.spacing
    seed = (math.exp(-0.5 * 10.0**2), math.exp(-0.5 * (-10.0 + h) ** 2))
    wave = numerov_integrate(Potential.harmonic(), 0.5, HARMONIC_GRID, seed=seed)
    q = HARMONIC_GRID.points()
    true = np.exp(-0.5 * q * q)
    # Past the right turning point the marched solution picks up the
    # growing branch from roundoff; compare where the state has support.
    mask = q <= 5.0
    rel = np.abs(wave.values[mask] - true[mask]).max() / true[mask].max()
    assert rel < 1e-6


def test_right_to_left_direction_matches_mirror_solution():
    grid = RealGrid(0.0, 10.0, 4001)
    h = grid.spacing
    seed = (math.sin(10.0), math.sin(10.0 - h))
    wave = numerov_integrate(
        Potential.free(), 0.5, grid, direction="right-to-left", seed=seed
    )
    assert np.abs(wave.values - np.sin(grid.points())).max() < 1e-8


def test_invalid_direction_rejected():
    with pytest.raises(ValueError, match="direction"):
        numerov_integrate(Potential.free(), 0.5, WELL_GRID, direction="up")


def test_unbounded_growth_raises_overflow():
    grid = RealGrid(0.0, 40.0, 4001)
    with pytest.raises(Overflow):
        numerov_integrate(Potential.harmonic(), 0.0, grid, seed=(1.0, 1.1))


@pytest.mark.parametrize("direction", ["left-to-right", "right-to-left"])
@pytest.mark.parametrize("seed", [(0.0, 1.0), (1.0, 0.0), (0.0, -2.5)])
def test_exact_zero_samples_match_the_plain_recurrence_exactly(direction, seed):
    # h = 0.1 and E = 120 give c = 1.2 everywhere, so 12 - 10 c = 0 and the
    # recurrence steps y_{i+1} = -y_{i-1}: every other sample is exactly 0.
    grid = RealGrid(0.0, 1.0, 11)
    wave = numerov_integrate(Potential.free(), 120.0, grid, direction=direction, seed=seed)
    expected = numerov_samples(np.full(11, 240.0), grid.spacing, *seed)
    if direction == "right-to-left":
        expected = expected[::-1]
    assert np.array_equal(wave.values, expected)


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
    wave = numerov_integrate(potential, energy, grid, seed=seed)
    g = 2.0 * (energy - potential.evaluate(grid.points()))
    expected = numerov_samples(g, grid.spacing, *seed)
    assert np.abs(wave.values - expected).max() <= 1e-10 * np.abs(expected).max()


# ---------------------------------------------------------------------------
# shoot_mismatch


def test_mismatch_vanishes_at_harmonic_ground_level():
    assert abs(shoot_mismatch(Potential.harmonic(), 0.5, HARMONIC_GRID)) < 1e-8


def test_mismatch_large_off_spectrum():
    assert abs(shoot_mismatch(Potential.harmonic(), 0.7, HARMONIC_GRID)) > 1e-2


def test_mismatch_vanishes_at_well_ground_level():
    energy = well_level(1)
    assert abs(shoot_mismatch(Potential.infinite_well(1.0), energy, WELL_GRID)) < 1e-8


def test_mismatch_is_bounded_between_levels():
    # The match is the sine of an angle: no pole anywhere in the window.
    values = [shoot_mismatch(Potential.harmonic(), energy, HARMONIC_GRID)
              for energy in np.linspace(0.01, 9.9, 991)]
    assert max(abs(w) for w in values) <= 1.0


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
    # Rounding decides whether the count bracket collapses to adjacent
    # floats or two polished levels coincide; both report one condition.
    q = np.linspace(-6.0, 6.0, 4001)
    double_well = Potential.tabulated(q, amplitude * (q * q - 9.0) ** 2)
    with pytest.raises(LevelsUnresolved, match="float spacing or than the grid's energy "
                                                "resolution"):
        find_eigenvalues(double_well, (0.0, 30.0), 4)


def test_deep_double_well_ground_state_is_normalized():
    # The left march crosses a barrier of height 625 and grows to about
    # 1e163; squaring those samples must not overflow the normalization.
    q = np.linspace(-10.0, 10.0, 4001)
    double_well = Potential.tabulated(q, (q * q - 25.0) ** 2)
    result = find_eigenvalues(double_well, (0.0, 30.0), 1)
    psi = result.wavefunctions[0].values
    assert result.node_counts == (0,)
    assert float(np.trapezoid(psi * psi, dx=q[1] - q[0])) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# shooting work and accuracy gates (machine-independent)


def _solve_counting_sweeps(potential, window):
    """find_eigenvalues plus its shooting sweeps per level."""
    calls = []
    shoot = schrodinger1d._shoot

    def counted(*args):
        calls.append(args)
        return shoot(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schrodinger1d, "_shoot", counted)
        result = find_eigenvalues(potential, window, 64)
    return result, len(calls) / len(result.energies)


@pytest.fixture(scope="module")
def harmonic_to_forty():
    return _solve_counting_sweeps(Potential.harmonic(), (0.0, 40.0))


def test_harmonic_window_costs_at_most_3_5_sweeps_per_level(harmonic_to_forty):
    result, per_level = harmonic_to_forty
    assert len(result.energies) == 40
    assert per_level <= 3.5


def test_harmonic_levels_to_forty_reach_method_accuracy(harmonic_to_forty):
    result, _ = harmonic_to_forty
    expected = np.array([harmonic_level(n) for n in range(40)])
    assert np.abs(result.energies - expected).max() <= 1e-5


def test_well_window_costs_at_most_3_sweeps_per_level():
    result, per_level = _solve_counting_sweeps(Potential.infinite_well(1.0), (0.0, 2000.0))
    assert len(result.energies) == 20
    assert per_level <= 3.0


def _polish_tolerance(potential, grid, energies):
    """max(1e-12 max(1, |E|), energy resolution of the Numerov coefficients)."""
    resolution = 12.0 * math.ulp(1.0) / (potential.mass * (grid.spacing / potential.hbar) ** 2)
    return np.maximum(1e-12 * np.maximum(1.0, np.abs(energies)), resolution)


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
    _, _, im, marches = schrodinger1d._shoot(potential, energy, grid, v)
    slope = schrodinger1d._match_slope(potential, grid, *marches)[0]
    w_hi, w_lo = (schrodinger1d._shoot(potential, energy + d, grid, v, im)[1]
                  for d in (1e-5, -1e-5))
    assert slope == pytest.approx(abs(w_hi - w_lo) / 2e-5, rel=0.05)


@pytest.mark.parametrize("potential, window", [(Potential.harmonic(), (0.0, 40.0)),
                                               (Potential.infinite_well(1.0), (0.0, 60.0))],
                         ids=["harmonic", "well"])
def test_each_sweep_marches_twice_and_the_potential_is_sampled_once(potential, window):
    # Two marches per sweep and none after it: every eigenfunction comes
    # from the polish sweep at its level, and every sweep reads the one
    # sample of the potential that find_eigenvalues takes.
    calls = {"_shoot": 0, "_ratios": 0, "evaluate": 0}

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_shoot", "_ratios"):
            patch.setattr(schrodinger1d, name, counting(name, getattr(schrodinger1d, name)))
        patch.setattr(Potential, "evaluate", counting("evaluate", Potential.evaluate))
        result = find_eigenvalues(potential, window, 64)
    assert len(result.energies) >= 3
    assert calls["_ratios"] == 2 * calls["_shoot"]
    assert calls["evaluate"] == 1


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
        count = schrodinger1d._shoot(potential, float(energy), grid)[0]
        assert count == numerov_node_count(g, grid.spacing), energy


def test_count_sees_a_node_on_an_exact_zero_sample_once():
    # On 11 points with E = 120 every Numerov coefficient is 1.2 and the
    # solution 0, 1, 0, -1, ... meets both walls: E is the discrete level
    # with 4 nodes, each on an exact zero sample.  Four levels lie below
    # it, and five below energies just above it.
    grid = RealGrid(0.0, 1.0, 11)
    well = Potential.infinite_well(1.0)
    energies = (120.0 - 1e-7, 120.0, 120.0 + 1e-7)
    shots = [schrodinger1d._shoot(well, e, grid) for e in energies]
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
    profile = wronskian_profile(pair.u.values, pair.v.values, g, grid.spacing)
    assert np.abs(profile - 1.0).max() < 1e-8


def test_pair_exists_away_from_the_spectrum():
    grid = RealGrid(-4.0, 4.0, 4001)
    pair = solution_pair(Potential.harmonic(), 0.7, grid)
    assert pair.wronskian == pytest.approx(1.0)


def test_identical_seeds_rejected_as_degenerate():
    grid = RealGrid(0.0, 10.0, 2001)
    h = grid.spacing
    wave = numerov_integrate(Potential.free(), 0.5, grid, seed=(0.0, math.sin(h)))
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


@pytest.mark.parametrize("size", [7, 8, 4001, 4002])
def test_wronskian_median_equals_numpy_median(size):
    profile = np.random.default_rng(size).normal(1.0, 1e-9, size)
    assert schrodinger1d._median(profile) == np.median(profile)
    profile[size // 3] = np.nan
    assert math.isnan(schrodinger1d._median(profile))
