"""Tests for the reduced-action module: momentum reconstruction, the
stationary Hamilton-Jacobi residual, bipolar wavefunction round trips,
trajectory timing, and the small-hbar scan."""

from __future__ import annotations

import dataclasses
import io
import itertools
import math

import numpy as np
import pytest

from qmkit import (
    Potential,
    RealGrid,
    Wavefunction,
    bipolar_reconstruct,
    classical_limit_scan,
    floyd_trajectory,
    pair_from_wavefunctions,
    qshje_residual,
    quantum_potential,
    reduced_action_from_pair,
    solution_pair,
    suggest_trajectory_grid,
    write_residual_csv,
    write_trajectory_csv,
)
from qmkit.errors import DegeneratePair, NonMonotoneTime
from qmkit.qshje import _scan_grid

from oracles import floyd_time_by_central_difference, scan_grid_by_walk

FREE_GRID = RealGrid(0.0, 10.0, 1001)
HARMONIC_GRID = RealGrid(-4.0, 4.0, 80001)
BIPOLAR_GRID = RealGrid(-4.0, 4.0, 4001)
_QUARTIC_Q = np.linspace(-4.0, 4.0, 801)
QUARTIC = Potential.tabulated(_QUARTIC_Q, 0.5 * _QUARTIC_Q**2 + 0.1 * _QUARTIC_Q**4)
_TABLE_Q = np.linspace(-5.0, 5.0, 1201)

# Potentials for the grid-rule oracle: confined in the first box or a later
# one, confined in none (linear, free, and every table at E = 700), hard walls.
SCAN_POTENTIALS = {
    "harmonic": Potential.harmonic(),
    "harmonic-m2-omega3": Potential.harmonic(mass=2.0, omega=3.0),
    "linear": Potential.linear(),
    "free": Potential.free(),
    "well": Potential.infinite_well(1.0),
    "tabulated-quartic": Potential.tabulated(_TABLE_Q, 0.5 * _TABLE_Q**2 + 0.1 * _TABLE_Q**4),
    "tabulated-double-well": Potential.tabulated(_TABLE_Q, (_TABLE_Q**2 - 1.0) ** 2),
}

# Reference grids for the random-energy residual sweeps.  Windows are kept
# shallow enough in the classically forbidden tails that the outward march
# does not amplify roundoff past the residual gate at the lowest energies.
RESIDUAL_CASES = [
    ("harmonic", Potential.harmonic(), RealGrid(-4.0, 4.0, 80001), 0.3, 5.0),
    ("well", Potential.infinite_well(length=1.0), RealGrid(0.0, 1.0, 20001), 1.0, 50.0),
    ("linear", Potential.linear(slope=1.0), RealGrid(-2.0, 2.0, 27001), 0.3, 5.0),
    ("free", Potential.free(), RealGrid(0.0, 10.0, 1001), 0.3, 5.0),
]


def free_action(energy: float = 0.5):
    pot = Potential.free()
    pair = solution_pair(pot, energy, FREE_GRID)
    return pot, pair, reduced_action_from_pair(pair, hbar=1.0, mass=1.0)


def harmonic_action(energy: float, grid: RealGrid = HARMONIC_GRID):
    pot = Potential.harmonic()
    pair = solution_pair(pot, energy, grid)
    return pot, pair, reduced_action_from_pair(pair, hbar=1.0, mass=1.0)


class TestReducedAction:
    def test_free_particle_action_is_linear(self):
        _, _, action = free_action(0.5)
        x = FREE_GRID.points()
        straight = action.S0 - action.S0[0]
        assert np.abs(straight - 1.0 * (x - x[0])).max() < 1e-8

    def test_free_particle_momentum_is_constant_k(self):
        _, _, action = free_action(0.5)
        assert np.abs(action.S0_prime - 1.0).max() < 1e-8

    def test_harmonic_momentum_positive_and_peaked_at_envelope_minimum(self):
        _, pair, action = harmonic_action(0.5)
        envelope = pair.u.values**2 + pair.v.values**2
        assert action.S0_prime.min() > 0.0
        assert np.argmax(action.S0_prime) == np.argmin(envelope)

    def test_momentum_lower_bound_holds_exactly(self):
        for energy in (0.5, 0.7, 2.5):
            _, pair, action = harmonic_action(energy)
            envelope = pair.u.values**2 + pair.v.values**2
            bound = action.hbar * abs(pair.wronskian) / envelope.max()
            assert bound > 0.0
            assert np.abs(action.S0_prime).min() >= bound * (1.0 - 1e-12)

    def test_phase_unwrap_matches_solution_ratio(self):
        for _, pair, action in (free_action(0.5), harmonic_action(0.5)):
            psi = pair.u.values + 1j * pair.v.values
            ratio = np.exp(2j * action.S0 / action.hbar) * psi.conj() / psi
            assert np.abs(ratio - 1.0).max() < 1e-8

    def test_action_is_continuous_despite_many_phase_wraps(self):
        _, _, action = harmonic_action(2.5)
        jumps = np.abs(np.diff(action.S0))
        assert jumps.max() < 0.5 * math.pi * action.hbar

    def test_degenerate_inputs_are_rejected(self):
        _, pair, _ = harmonic_action(0.5)
        with pytest.raises(DegeneratePair, match="Wronskian"):
            dataclasses.replace(pair, wronskian=0.0)


class TestQuantumPotential:
    def test_free_particle_curvature_term_vanishes(self):
        _, _, action = free_action(0.5)
        correction = quantum_potential(action)
        assert np.abs(correction.values).max() < 1e-8

    def test_affine_rescaling_of_action_leaves_correction_unchanged(self):
        _, _, action = harmonic_action(0.5, BIPOLAR_GRID)
        baseline = quantum_potential(action).values
        for a in (2.0, -3.0):
            for b in (0.0, 1.7):
                scaled = dataclasses.replace(
                    action, S0=a * action.S0 + b, S0_prime=a * action.S0_prime
                )
                rescaled = quantum_potential(scaled).values
                assert np.abs(rescaled - baseline).max() < 1e-8

    def test_correction_lives_on_the_interior_grid(self):
        _, _, action = harmonic_action(0.5, BIPOLAR_GRID)
        correction = quantum_potential(action)
        assert correction.values.size == BIPOLAR_GRID.n_points - 2


class TestResidual:
    def test_free_particle_closed_form_residual(self):
        pot = Potential.free()
        x = FREE_GRID.points()
        u = Wavefunction(FREE_GRID, np.cos(x), 0.5)
        v = Wavefunction(FREE_GRID, np.sin(x), 0.5)
        pair = pair_from_wavefunctions(u, v, pot)
        action = reduced_action_from_pair(pair, hbar=1.0, mass=1.0)
        assert qshje_residual(action, pot) < 1e-10

    @pytest.mark.parametrize("energy", [0.5, 0.7, 2.5])
    def test_harmonic_residual_at_reference_energies(self, energy):
        pot, _, action = harmonic_action(energy)
        assert qshje_residual(action, pot) < 1e-5

    @pytest.mark.parametrize("name,pot,grid,e_lo,e_hi", RESIDUAL_CASES)
    def test_residual_at_ten_random_energies(self, name, pot, grid, e_lo, e_hi):
        rng = np.random.default_rng(42)
        for energy in rng.uniform(e_lo, e_hi, 10):
            pair = solution_pair(pot, float(energy), grid)
            action = reduced_action_from_pair(pair, hbar=pot.hbar, mass=pot.mass)
            assert qshje_residual(action, pot) < 1e-5

    def test_residual_holds_away_from_eigenvalues(self):
        pot, _, action = harmonic_action(0.7)
        assert qshje_residual(action, pot) < 1e-5


class TestBipolar:
    @pytest.mark.parametrize("energy", [0.5, 1.5])
    def test_round_trip_recovers_both_pair_members(self, energy):
        pot = Potential.harmonic()
        pair = solution_pair(pot, energy, BIPOLAR_GRID)
        action = reduced_action_from_pair(pair, hbar=1.0, mass=1.0)
        cases = [
            (0.5 + 0j, 0.5 + 0j, pair.u.values),
            (1.0 / 2j, -1.0 / 2j, pair.v.values),
        ]
        for A, B, reference in cases:
            rebuilt = bipolar_reconstruct(action, A, B).values
            j = int(np.argmax(np.abs(reference)))
            scale = reference[j] / rebuilt[j]
            deviation = np.abs(scale * rebuilt - reference).max()
            assert deviation / np.abs(reference).max() < 1e-5

    def test_single_branch_gives_free_plane_wave(self):
        _, _, action = free_action(0.5)
        rebuilt = bipolar_reconstruct(action, 1.0, 0.0).values
        x = FREE_GRID.points()
        target = np.exp(1j * x) / math.sqrt(1.0)
        j = int(np.argmax(np.abs(target)))
        scale = target[j] / rebuilt[j]
        deviation = np.abs(scale * rebuilt - target).max()
        assert deviation / np.abs(target).max() < 1e-8

    def test_vanishing_coefficients_are_rejected(self):
        _, _, action = free_action(0.5)
        with pytest.raises(ValueError, match="both vanish"):
            bipolar_reconstruct(action, 0.0, 0.0)


class TestTrajectory:
    def test_free_particle_time_is_linear_in_position(self):
        pot = Potential.free()
        for energy, slope in ((0.5, 1.0), (2.0, 0.5)):
            trajectory = floyd_trajectory(pot, energy, FREE_GRID)
            coeffs = np.polyfit(trajectory.q, trajectory.t, 1)
            fit = np.polyval(coeffs, trajectory.q)
            span = trajectory.t.max() - trajectory.t.min()
            assert np.abs(trajectory.t - fit).max() / span < 1e-4
            assert abs(coeffs[0] - slope) < 1e-3 * slope

    def test_doubling_energy_halves_the_slope(self):
        pot = Potential.free()
        slow = floyd_trajectory(pot, 0.5, FREE_GRID)
        fast = floyd_trajectory(pot, 2.0, FREE_GRID)
        slope = lambda tr: np.polyfit(tr.q, tr.t, 1)[0]
        assert abs(slope(slow) / slope(fast) - 2.0) < 1e-3

    def test_time_starts_at_zero_and_rises(self):
        pot = Potential.harmonic()
        grid = suggest_trajectory_grid(pot, 0.5)
        trajectory = floyd_trajectory(pot, 0.5, grid)
        assert trajectory.t[0] == 0.0
        assert np.all(np.diff(trajectory.t) > 0.0)

    def test_momentum_column_matches_reduced_action(self):
        pot = Potential.free()
        trajectory = floyd_trajectory(pot, 0.5, FREE_GRID)
        assert np.abs(trajectory.p - 1.0).max() < 1e-8

    @pytest.mark.parametrize(
        "potential, energy",
        [(Potential.harmonic(), 0.5), (Potential.harmonic(), 1.5), (QUARTIC, 1.0)],
        ids=["harmonic-0.5", "harmonic-1.5", "quartic-1.0"],
    )
    def test_time_matches_the_central_difference_oracle(self, potential, energy):
        grid = suggest_trajectory_grid(potential, energy)
        reference = floyd_time_by_central_difference(potential, energy, grid)
        t = floyd_trajectory(potential, energy, grid).t
        assert np.abs(t - reference).max() < 2e-6

    def test_deep_forbidden_tails_keep_time_rising(self):
        # At E = 0.5 a [-6, 6] window reaches far past the turning points;
        # the time column still rises strictly there and, aligned at q = 0,
        # matches the suggested grid's on their overlap.
        pot = Potential.harmonic()
        wide = floyd_trajectory(pot, 0.5, RealGrid(-6.0, 6.0, 40001))
        assert np.all(np.diff(wide.t) > 0.0)
        narrow = floyd_trajectory(pot, 0.5, suggest_trajectory_grid(pot, 0.5))
        overlap = wide.q[(wide.q >= narrow.q[0]) & (wide.q <= narrow.q[-1])]

        def aligned(trajectory):
            t = np.interp(overlap, trajectory.q, trajectory.t)
            return t - np.interp(0.0, trajectory.q, trajectory.t)

        assert np.abs(aligned(wide) - aligned(narrow)).max() < 1e-7

    @pytest.mark.parametrize("energy", [0.4, 0.5, 0.6])
    def test_double_well_microstate_time_turns_back(self, energy):
        # The centre-launched pair's t = dS0/dE is not monotone here: a
        # property of that microstate, reported rather than repaired.
        q = np.linspace(-4.0, 4.0, 1601)
        pot = Potential.tabulated(q, (q * q - 1.0) ** 2)
        with pytest.raises(NonMonotoneTime):
            floyd_trajectory(pot, energy, suggest_trajectory_grid(pot, energy))


class TestClassicalLimitScan:
    HBARS = [1.0, 0.5, 0.25, 0.125]

    def test_harmonic_curvature_term_shrinks_with_hbar(self):
        rows = classical_limit_scan(Potential.harmonic(), 2.5, self.HBARS)
        sups = [row.sup_abs_quantum_potential for row in rows]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_momentum_approaches_the_classical_profile(self):
        rows = classical_limit_scan(Potential.harmonic(), 2.5, self.HBARS)
        deviations = [row.momentum_deviation for row in rows]
        assert all(a > b for a, b in zip(deviations, deviations[1:]))

    def test_momentum_never_vanishes_along_the_scan(self):
        rows = classical_limit_scan(Potential.harmonic(), 2.5, self.HBARS)
        assert all(row.min_abs_momentum > 0.0 for row in rows)

    def test_free_particle_rows_have_no_curvature_term(self):
        rows = classical_limit_scan(Potential.free(), 0.5, self.HBARS)
        assert all(row.sup_abs_quantum_potential < 1e-8 for row in rows)

    def test_rows_echo_the_requested_hbar_sequence(self):
        rows = classical_limit_scan(Potential.harmonic(), 2.5, self.HBARS)
        assert [row.hbar for row in rows] == self.HBARS


class TestScanGrid:
    @pytest.mark.parametrize("name", sorted(SCAN_POTENTIALS))
    def test_grid_matches_the_walk_oracle(self, name):
        for energy, hbar, min_points in itertools.product(
                (0.3, 2.7, 30.0, 700.0), (0.02, 0.3, 1.0), (4001, 40001)):
            potential = dataclasses.replace(SCAN_POTENTIALS[name], hbar=hbar)
            expected = scan_grid_by_walk(potential, energy, min_points=min_points)
            assert _scan_grid(potential, energy, min_points=min_points) == expected, \
                (energy, hbar, min_points)

    @pytest.mark.parametrize("name", ["harmonic", "tabulated-double-well"])
    def test_energy_below_the_minimum_is_rejected(self, name):
        for rule in (_scan_grid, scan_grid_by_walk):
            with pytest.raises(ValueError, match="below the potential minimum"):
                rule(SCAN_POTENTIALS[name], -0.5)


class TestCsvExports:
    def test_trajectory_csv_round_trips_exactly(self):
        trajectory = floyd_trajectory(Potential.free(), 0.5, FREE_GRID)
        buffer = io.StringIO()
        write_trajectory_csv(trajectory, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "t,q,p"
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
        assert np.array_equal(data[:, 0], trajectory.t)
        assert np.array_equal(data[:, 1], trajectory.q)
        assert np.array_equal(data[:, 2], trajectory.p)

    def test_residual_csv_has_expected_columns(self):
        pot, _, action = free_action(0.5)
        buffer = io.StringIO()
        write_residual_csv(action, pot, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "q,S0,p,Q,residual"
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
        # One point is trimmed per edge by the derivative stencils.
        assert data.shape == (FREE_GRID.n_points - 2, 5)
        assert np.abs(data[:, 4]).max() < 1e-8

    def test_residual_csv_column_matches_the_residual_norm(self):
        pot = Potential.harmonic()
        _, _, action = harmonic_action(0.5, RealGrid(-4.0, 4.0, 4001))
        buffer = io.StringIO()
        write_residual_csv(action, pot, buffer)
        residual = np.loadtxt(io.StringIO(buffer.getvalue()), delimiter=",",
                              skiprows=1)[:, 4]
        # The central 90% of the full grid, shifted onto the interior rows.
        trim = int(math.floor(0.05 * action.grid.n_points))
        window = residual[trim - 1 : action.grid.n_points - trim - 1]
        assert np.abs(window).max() == qshje_residual(action, pot)
