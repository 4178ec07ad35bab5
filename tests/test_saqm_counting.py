"""Tests for the exact counting identities: power-law parameter counts,
the real-space overshoot, and the shifted composition law."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmkit.saqm import (
    hardy_counts,
    parameter_count,
    real_space_count,
    real_space_violation,
    wootters_g_identity,
)

DIMS = st.integers(min_value=2, max_value=50)
EXPONENTS = st.sampled_from([1, 2])


class TestParameterCount:
    def test_classical_and_quadratic_counts(self):
        assert parameter_count(2, 1) == 2
        assert parameter_count(2, 2) == 4
        assert parameter_count(5, 2) == 25

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            parameter_count(0, 2)

    def test_exponent_must_be_one_or_two(self):
        with pytest.raises(ValueError, match="exponent"):
            parameter_count(2, 3)

    def test_real_space_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1, got 0"):
            real_space_count(0)


class TestHardyCounts:
    def test_quadratic_qubit_count(self):
        counts = hardy_counts(2, 2)
        assert counts.count == 4
        assert counts.monotone_ok is True
        assert counts.composite_ok is True

    def test_classical_qubit_count(self):
        assert hardy_counts(2, 1).count == 2

    def test_composite_dimension_factorizes(self):
        counts = hardy_counts(4, 2)
        assert counts.count == 16
        assert counts.count == parameter_count(2, 2) * parameter_count(2, 2)
        assert counts.composite_ok is True

    @settings(deadline=None, max_examples=60)
    @given(dim=DIMS, exponent=EXPONENTS)
    def test_checks_hold_for_every_dimension(self, dim, exponent):
        counts = hardy_counts(dim, exponent)
        assert counts.count == dim**exponent
        assert counts.monotone_ok is True
        assert counts.composite_ok is True


class TestRealSpaceCounts:
    def test_triangular_counts(self):
        assert real_space_count(2) == 3
        assert real_space_count(3) == 6
        assert real_space_count(4) == 10

    def test_qubit_pair_overshoots_the_product(self):
        comparison = real_space_violation(2, 2)
        assert comparison.K_joint == 10
        assert comparison.K_product == 9
        assert comparison.violates is True

    def test_mixed_pair_overshoots_the_product(self):
        comparison = real_space_violation(2, 3)
        assert comparison.K_joint == 21
        assert comparison.K_product == 18
        assert comparison.violates is True

    def test_complex_counterpart_has_no_overshoot(self):
        joint = parameter_count(2 * 2, 2)
        product = parameter_count(2, 2) * parameter_count(2, 2)
        assert joint == product == 16

    @settings(deadline=None, max_examples=60)
    @given(first=DIMS, second=DIMS)
    def test_every_real_pair_violates(self, first, second):
        comparison = real_space_violation(first, second)
        assert comparison.K_joint > comparison.K_product
        assert comparison.violates is True

    def test_small_dimensions_are_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            real_space_violation(1, 2)


class TestWoottersIdentity:
    def test_quadratic_qubit_pair(self):
        # g(4) = 15 decomposes as 3 + 3 + 9.
        assert wootters_g_identity(2, 2, 2) == 0

    @settings(deadline=None, max_examples=60)
    @given(first=DIMS, second=DIMS, exponent=EXPONENTS)
    def test_identity_is_exact_for_all_pairs(self, first, second, exponent):
        assert wootters_g_identity(first, second, exponent) == 0

    def test_unshifted_counts_break_the_composition(self):
        joint = parameter_count(2 * 2, 2)
        composed = (
            parameter_count(2, 2)
            + parameter_count(2, 2)
            + parameter_count(2, 2) * parameter_count(2, 2)
        )
        assert joint != composed

    def test_small_dimensions_are_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            wootters_g_identity(2, 1, 2)
