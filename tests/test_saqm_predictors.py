"""Tests for predictors: outcome probabilities, the exponent-rigidity
scan, statistical distance, and geodesic state paths."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmkit.errors import DimensionMismatch
from qmkit.saqm import (
    MeasurementBasis,
    Predictor,
    born_probabilities,
    continuous_path,
    exponent_deviation,
    random_predictor,
    statistical_distance,
)

DIMS = st.sampled_from([2, 3, 5])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

SQRT2 = math.sqrt(2.0)
PLUS = Predictor(np.array([1.0, 1.0]) / SQRT2)
QUBIT_STANDARD = MeasurementBasis.standard(2)


def random_basis(dim: int, rng: np.random.Generator) -> MeasurementBasis:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(raw)
    return MeasurementBasis(q.T)


def has_two_distinct_moduli(psi: Predictor, basis: MeasurementBasis) -> bool:
    """Scan filter: non-eigenstate with two different nonzero moduli."""
    moduli = np.sort(np.abs(basis.vectors.conj() @ psi.components))[::-1]
    nonzero = moduli[moduli > 1e-6]
    return len(nonzero) >= 2 and nonzero[0] - nonzero[-1] > 1e-6


class TestPredictorValidation:
    def test_unit_norm_is_required(self):
        with pytest.raises(ValueError, match="norm"):
            Predictor(np.array([1.0, 1.0]))

    def test_empty_vector_is_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Predictor(np.array([]))

    def test_basis_rows_must_be_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            MeasurementBasis(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))

    def test_basis_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="square matrix"):
            MeasurementBasis(np.ones((2, 3)))


class TestBornProbabilities:
    def test_basis_vectors_give_certainty(self):
        basis = MeasurementBasis.standard(3)
        for j in range(3):
            psi = Predictor(np.eye(3)[j])
            probs = born_probabilities(psi, basis)
            expected = np.zeros(3)
            expected[j] = 1.0
            assert np.abs(probs - expected).max() < 1e-15

    def test_balanced_qubit_superposition(self):
        probs = born_probabilities(PLUS, QUBIT_STANDARD)
        assert np.abs(probs - 0.5).max() < 1e-15

    @settings(deadline=None, max_examples=60)
    @given(dim=DIMS, seed=SEEDS)
    def test_random_states_give_normalized_distributions(self, dim, seed):
        rng = np.random.default_rng(seed)
        psi = random_predictor(dim, rng)
        basis = random_basis(dim, rng)
        probs = born_probabilities(psi, basis)
        assert probs.min() >= 0.0
        assert probs.max() <= 1.0 + 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_dimension_mismatch_is_reported(self):
        with pytest.raises(DimensionMismatch, match="dim 2 vs basis dim 3"):
            born_probabilities(PLUS, MeasurementBasis.standard(3))


class TestExponentDeviation:
    def test_square_modulus_exponent_is_consistent(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5):
            psi = random_predictor(dim, rng)
            basis = random_basis(dim, rng)
            assert exponent_deviation(psi, basis, 2.0) < 1e-12

    def test_linear_exponent_fails_on_balanced_superposition(self):
        deviation = exponent_deviation(PLUS, QUBIT_STANDARD, 1.0)
        assert abs(deviation - (SQRT2 - 1.0)) < 1e-12

    def test_eigenstates_hide_the_exponent(self):
        psi = Predictor(np.array([0.0, 1.0], dtype=complex))
        for k in (0.5, 1.0, 2.0, 3.0):
            assert exponent_deviation(psi, QUBIT_STANDARD, k) < 1e-12

    def test_nonpositive_exponent_is_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            exponent_deviation(PLUS, QUBIT_STANDARD, 0.0)

    def test_rigidity_scan_singles_out_the_square(self):
        rng = np.random.default_rng(2024)
        collected = 0
        worst_at_two = 0.0
        best_away = {1.0: np.inf, 1.5: np.inf, 3.0: np.inf}
        while collected < 100:
            dim = int(rng.choice([2, 3, 5]))
            psi = random_predictor(dim, rng)
            basis = random_basis(dim, rng)
            if not has_two_distinct_moduli(psi, basis):
                continue
            collected += 1
            worst_at_two = max(worst_at_two, exponent_deviation(psi, basis, 2.0))
            for k in best_away:
                best_away[k] = min(best_away[k], exponent_deviation(psi, basis, k))
        assert worst_at_two < 1e-12
        assert all(value > 1e-3 for value in best_away.values())


class TestStatisticalDistance:
    def test_same_eigenket_has_zero_distance(self):
        psi = Predictor(np.array([1.0, 0.0], dtype=complex))
        assert statistical_distance(psi, psi, QUBIT_STANDARD) == 0.0

    def test_distinct_eigenkets_are_maximally_apart(self):
        e0 = Predictor(np.array([1.0, 0.0], dtype=complex))
        e1 = Predictor(np.array([0.0, 1.0], dtype=complex))
        distance = statistical_distance(e0, e1, QUBIT_STANDARD)
        assert abs(distance - math.pi / 2.0) < 1e-12

    def test_eigenket_to_arbitrary_state_is_the_hilbert_angle(self):
        rng = np.random.default_rng(11)
        e0 = Predictor(np.array([1.0, 0.0], dtype=complex))
        for _ in range(20):
            psi = random_predictor(2, rng)
            distance = statistical_distance(e0, psi, QUBIT_STANDARD)
            angle = math.acos(min(abs(psi.components[0]), 1.0))
            assert abs(distance - angle) < 1e-12

    @settings(deadline=None, max_examples=60)
    @given(dim=DIMS, seed=SEEDS)
    def test_symmetric_and_bounded(self, dim, seed):
        rng = np.random.default_rng(seed)
        psi1 = random_predictor(dim, rng)
        psi2 = random_predictor(dim, rng)
        basis = random_basis(dim, rng)
        forward = statistical_distance(psi1, psi2, basis)
        backward = statistical_distance(psi2, psi1, basis)
        assert forward == backward
        assert 0.0 <= forward <= math.pi / 2.0 + 1e-12

    def test_dimension_mismatch_is_reported(self):
        e0 = Predictor(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(DimensionMismatch):
            statistical_distance(e0, e0, MeasurementBasis.standard(3))


class TestContinuousPath:
    def test_identical_endpoints_give_a_constant_path(self):
        path = continuous_path(PLUS, PLUS, 5)
        assert len(path) == 6
        for state in path:
            assert np.abs(state.components - PLUS.components).max() < 1e-14

    def test_quarter_turn_passes_through_the_balanced_state(self):
        e0 = Predictor(np.array([1.0, 0.0], dtype=complex))
        e1 = Predictor(np.array([0.0, 1.0], dtype=complex))
        path = continuous_path(e0, e1, 4)
        assert len(path) == 5
        middle = np.abs(path[2].components)
        assert np.abs(middle - 1.0 / SQRT2).max() < 1e-12

    def test_endpoint_is_reached_up_to_global_phase(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 5):
            a = random_predictor(dim, rng)
            b = random_predictor(dim, rng)
            path = continuous_path(a, b, 16)
            overlap = abs(np.vdot(b.components, path[-1].components))
            assert abs(overlap - 1.0) < 1e-10

    def test_every_step_stays_on_the_unit_sphere(self):
        rng = np.random.default_rng(5)
        a = random_predictor(3, rng)
        b = random_predictor(3, rng)
        for state in continuous_path(a, b, 12):
            assert abs(np.linalg.norm(state.components) - 1.0) < 1e-12

    def test_distance_from_start_grows_monotonically(self):
        e0 = Predictor(np.array([1.0, 0.0], dtype=complex))
        e1 = Predictor(np.array([0.0, 1.0], dtype=complex))
        path = continuous_path(e0, e1, 8)
        angles = [
            statistical_distance(path[0], state, QUBIT_STANDARD)
            for state in path
        ]
        assert all(a < b for a, b in zip(angles, angles[1:]))
        steps = [
            statistical_distance(first, second, QUBIT_STANDARD)
            for first, second in zip(path, path[1:])
        ]
        assert all(step < math.pi / 2.0 for step in steps)

    def test_a_path_from_a_state_to_itself_stays_put(self):
        psi = Predictor(np.array([0.6, 0.8j]))
        path = continuous_path(psi, psi, 3)
        assert len(path) == 4
        assert all(np.array_equal(state.components, psi.components) for state in path)

    @pytest.mark.parametrize("angle", [1e-8, 1e-9, 1e-10])
    def test_a_small_angle_is_walked_to_its_end(self, angle):
        start = Predictor(np.array([1.0, 0.0]))
        end = Predictor(np.array([math.cos(angle), math.sin(angle)]))
        path = continuous_path(start, end, 4)
        assert np.abs(path[-1].components - end.components).max() <= 1e-15

    def test_bad_step_count_is_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            continuous_path(PLUS, PLUS, 0)

    def test_dimension_mismatch_is_reported(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DimensionMismatch):
            continuous_path(PLUS, random_predictor(3, rng), 4)
