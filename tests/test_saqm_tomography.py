"""Tests for unbiased-basis tomography: basis construction, the
table/state bijection, effect probabilities, and no-signalling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qmkit import MoebiusMap
from qmkit.errors import (
    DimensionMismatch,
    InvalidEffect,
    NegativeEigenvalue,
    UnsupportedDimension,
)
from qmkit.saqm import (
    DensityMatrix,
    MeasurementBasis,
    MubSet,
    Predictor,
    ProbabilityTable,
    density_from_table,
    exponent_deviation,
    mub_set,
    no_signalling_check,
    partial_trace,
    random_density,
    table_from_density,
    trace_probability,
)

S = 1.0 / math.sqrt(2.0)
QUBIT_MUBS = mub_set(2)
BELL = DensityMatrix(
    0.5
    * np.array(
        [
            [1, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [1, 0, 0, 1],
        ],
        dtype=complex,
    )
)


def cross_overlaps(mubs) -> float:
    """Worst deviation of any cross-basis |<e|f>|^2 from 1/N."""
    target = 1.0 / mubs.dim
    worst = 0.0
    for i in range(len(mubs.bases)):
        for j in range(i + 1, len(mubs.bases)):
            overlap = (
                np.abs(mubs.bases[i].vectors.conj() @ mubs.bases[j].vectors.T) ** 2
            )
            worst = max(worst, float(np.abs(overlap - target).max()))
    return worst


class TestDensityMatrix:
    def test_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_requires_unit_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NegativeEigenvalue) as captured:
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
        assert captured.value.min_eigenvalue == pytest.approx(-0.5)

    def test_pure_state_projector(self):
        psi = Predictor(np.array([S, S], dtype=complex))
        rho = DensityMatrix.pure(psi)
        assert np.abs(rho.matrix - 0.5).max() < 1e-15

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(3)
        assert np.abs(rho.matrix - np.eye(3) / 3.0).max() == 0.0


class TestMubConstruction:
    def test_qubit_set_is_the_three_spin_axes(self):
        expected = [
            np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
            np.array([[S, S], [S, -S]], dtype=complex),
            np.array([[S, 1j * S], [S, -1j * S]], dtype=complex),
        ]
        assert len(QUBIT_MUBS.bases) == 3
        for basis, target in zip(QUBIT_MUBS.bases, expected):
            assert np.abs(basis.vectors - target).max() < 1e-15
        assert cross_overlaps(QUBIT_MUBS) < 1e-10

    @pytest.mark.parametrize("dim", [3, 5])
    def test_odd_prime_sets_are_unbiased(self, dim):
        mubs = mub_set(dim)
        assert len(mubs.bases) == dim + 1
        assert cross_overlaps(mubs) < 1e-10

    @pytest.mark.parametrize("dim", [4, 6, 9])
    def test_unsupported_dimensions_are_refused(self, dim):
        with pytest.raises(UnsupportedDimension, match=str(dim)):
            mub_set(dim)


class TestProbabilityTable:
    def test_rows_must_sum_to_one(self):
        rows = np.array([[0.6, 0.6], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="sum to one"):
            ProbabilityTable(rows)

    def test_entries_must_be_probabilities(self):
        rows = np.array([[1.5, -0.5], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityTable(rows)

    def test_shape_must_match_a_complete_set(self):
        with pytest.raises(ValueError, match="dim\\+1 rows"):
            ProbabilityTable(np.full((2, 2), 0.5))


class TestTableFromDensity:
    def test_maximally_mixed_gives_flat_rows(self):
        table = table_from_density(DensityMatrix.maximally_mixed(2), QUBIT_MUBS)
        assert np.abs(table.rows - 0.5).max() < 1e-15

    def test_computational_ground_state_rows(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        table = table_from_density(rho, QUBIT_MUBS)
        assert np.abs(table.rows[0] - np.array([1.0, 0.0])).max() < 1e-15
        assert np.abs(table.rows[1] - 0.5).max() < 1e-15
        assert np.abs(table.rows[2] - 0.5).max() < 1e-15

    def test_entries_stay_in_range_for_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            table = table_from_density(random_density(2, rng), QUBIT_MUBS)
            assert table.rows.min() >= 0.0
            assert table.rows.max() <= 1.0

    def test_dimension_mismatch_is_reported(self):
        with pytest.raises(DimensionMismatch):
            table_from_density(DensityMatrix.maximally_mixed(3), QUBIT_MUBS)


class TestDensityFromTable:
    def test_flat_table_reconstructs_the_mixed_state(self):
        table = ProbabilityTable(np.full((3, 2), 0.5))
        rho = density_from_table(table, QUBIT_MUBS)
        assert np.abs(rho.matrix - np.eye(2) / 2.0).max() < 1e-15

    def test_qubit_round_trip_is_the_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            rho = random_density(2, rng)
            back = density_from_table(table_from_density(rho, QUBIT_MUBS), QUBIT_MUBS)
            assert np.linalg.norm(back.matrix - rho.matrix) < 1e-10

    def test_qutrit_round_trip_is_the_identity(self):
        mubs = mub_set(3)
        rng = np.random.default_rng(22)
        for _ in range(50):
            rho = random_density(3, rng)
            back = density_from_table(table_from_density(rho, mubs), mubs)
            assert np.linalg.norm(back.matrix - rho.matrix) < 1e-10

    def test_overfilled_table_is_not_a_state(self):
        # Claiming certainty in all three spin directions at once puts the
        # Bloch vector at length sqrt(3) > 1.
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NegativeEigenvalue) as captured:
            density_from_table(ProbabilityTable(rows), QUBIT_MUBS)
        expected = 0.5 - math.sqrt(3.0) / 2.0
        assert captured.value.min_eigenvalue == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_is_reported(self):
        table = ProbabilityTable(np.full((3, 2), 0.5))
        with pytest.raises(DimensionMismatch):
            density_from_table(table, mub_set(3))


class TestTraceProbability:
    def test_identity_effect_is_certain(self):
        rng = np.random.default_rng(31)
        rho = random_density(3, rng)
        assert trace_probability(rho, np.eye(3)) == 1.0

    def test_ground_projector_on_the_balanced_state(self):
        plus = DensityMatrix.pure(Predictor(np.array([S, S], dtype=complex)))
        effect = np.diag([1.0, 0.0]).astype(complex)
        assert trace_probability(plus, effect) == pytest.approx(0.5, abs=1e-15)

    def test_zero_effect_is_impossible(self):
        assert trace_probability(DensityMatrix.maximally_mixed(2), np.zeros((2, 2))) == 0.0

    def test_non_hermitian_effects_are_invalid(self):
        with pytest.raises(InvalidEffect, match="Hermitian"):
            trace_probability(
                DensityMatrix.maximally_mixed(2),
                np.array([[0.0, 1.0], [0.0, 0.0]]),
            )

    def test_effects_with_spectrum_beyond_one_are_invalid(self):
        with pytest.raises(InvalidEffect, match=r"\[0, 1\]"):
            trace_probability(DensityMatrix.maximally_mixed(2), 2.0 * np.eye(2))

    def test_dimension_mismatch_is_reported(self):
        with pytest.raises(DimensionMismatch):
            trace_probability(DensityMatrix.maximally_mixed(2), np.eye(3))


class TestPartialTrace:
    def test_product_state_reduces_to_its_factors(self):
        rng = np.random.default_rng(41)
        rho_a = random_density(2, rng)
        rho_b = random_density(3, rng)
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
        left = partial_trace(joint, (2, 3), keep=0)
        right = partial_trace(joint, (2, 3), keep=1)
        assert np.abs(left.matrix - rho_a.matrix).max() < 1e-12
        assert np.abs(right.matrix - rho_b.matrix).max() < 1e-12

    def test_entangled_state_reduces_to_the_mixed_state(self):
        for keep in (0, 1):
            reduced = partial_trace(BELL, (2, 2), keep=keep)
            assert np.abs(reduced.matrix - np.eye(2) / 2.0).max() < 1e-12

    def test_factor_dimensions_must_compose(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(BELL, (3, 2), keep=0)

    def test_keep_selector_is_validated(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(BELL, (2, 2), keep=2)


class TestNoSignalling:
    SIDE_B = (QUBIT_MUBS.bases[0], QUBIT_MUBS.bases[1])

    def test_product_states_cannot_signal(self):
        rng = np.random.default_rng(51)
        joint = DensityMatrix(
            np.kron(random_density(2, rng).matrix, random_density(2, rng).matrix)
        )
        assert no_signalling_check(joint, self.SIDE_B, QUBIT_MUBS) < 1e-14

    def test_maximal_entanglement_cannot_signal(self):
        assert no_signalling_check(BELL, self.SIDE_B, QUBIT_MUBS) < 1e-12

    def test_random_two_qubit_states_cannot_signal(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            joint = random_density(4, rng)
            assert no_signalling_check(joint, self.SIDE_B, QUBIT_MUBS) < 1e-12

    def test_mismatched_side_bases_are_reported(self):
        bad = (QUBIT_MUBS.bases[0], mub_set(3).bases[0])
        with pytest.raises(DimensionMismatch):
            no_signalling_check(BELL, bad, QUBIT_MUBS)


_QUTRIT_STANDARD = MeasurementBasis.standard(3)
_HALF_MIXED = DensityMatrix(np.eye(2) / 2)

# Each value check of the tomography records and functions that no other
# test reaches: a call that fails it, the error it raises and its message.
_REFUSED = {
    "density-not-square": (lambda: DensityMatrix(np.ones((2, 3))), ValueError, "square"),
    "density-empty": (lambda: DensityMatrix(np.zeros((0, 0))), ValueError, "at least 1x1"),
    "mubs-none": (lambda: MubSet(()), ValueError, "at least one basis"),
    "mubs-mixed-dimensions": (lambda: MubSet((QUBIT_MUBS.bases[0], _QUTRIT_STANDARD,
                                              QUBIT_MUBS.bases[1])),
                              DimensionMismatch, "share one dimension"),
    "mubs-incomplete": (lambda: MubSet(QUBIT_MUBS.bases[:2]), ValueError,
                        "dimension 2 has 3 bases, got 2"),
    "mubs-repeated": (lambda: MubSet((*QUBIT_MUBS.bases[:2], QUBIT_MUBS.bases[0])), ValueError,
                      "not unbiased"),
    "table-one-dimensional": (lambda: ProbabilityTable(np.array([0.5, 0.5])), ValueError,
                              "two-dimensional"),
    "effect-not-square": (lambda: trace_probability(_HALF_MIXED, np.ones((2, 3))),
                          InvalidEffect, "square"),
    "factors-do-not-compose": (lambda: no_signalling_check(
        BELL, (_QUTRIT_STANDARD, _QUTRIT_STANDARD), QUBIT_MUBS),
        DimensionMismatch, r"\(2, 3\) do not compose to 4"),
}


@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_a_tomography_value_check_refuses(name):
    call, error, message = _REFUSED[name]
    with pytest.raises(error, match=message):
        call()


# Each statistics-side record or function, fed one non-finite input: a NaN
# compares false against every tolerance, so it is refused before any check.
_NON_FINITE = {
    "predictor-nan": (lambda: Predictor(np.array([math.nan, 1.0])), ValueError),
    "predictor-inf": (lambda: Predictor(np.array([math.inf, 0.0])), ValueError),
    "basis-nan": (lambda: MeasurementBasis(np.full((2, 2), math.nan)), ValueError),
    "basis-inf": (lambda: MeasurementBasis(np.array([[math.inf, 0.0], [0.0, 1.0]])), ValueError),
    "table-nan": (lambda: density_from_table(ProbabilityTable(np.full((3, 2), math.nan)),
                                             QUBIT_MUBS), ValueError),
    "density-nan": (lambda: DensityMatrix(np.full((2, 2), math.nan)), ValueError),
    "moebius-nan": (lambda: MoebiusMap(math.nan, 0.0, 0.0, 1.0), ValueError),
    "moebius-inf": (lambda: MoebiusMap(math.inf, 0.0, 0.0, 1.0), ValueError),
    "effect-nan": (lambda: trace_probability(DensityMatrix.maximally_mixed(2),
                                             np.full((2, 2), math.nan)), InvalidEffect),
    "exponent-nan": (lambda: exponent_deviation(Predictor(np.array([S, S])),
                                                QUBIT_MUBS.bases[0], math.nan), ValueError),
    "exponent-inf": (lambda: exponent_deviation(Predictor(np.array([S, S])),
                                                QUBIT_MUBS.bases[0], math.inf), ValueError),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE))
def test_a_non_finite_input_is_refused(name):
    call, error = _NON_FINITE[name]
    with pytest.raises(error, match="finite"):
        call()
