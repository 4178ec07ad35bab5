"""Schwarzian-derivative calculus against symbolic oracles.

Expected values come from sympy differentiation (see oracles.py): the
constant-2 Schwarzians of the exponential twist and the tangent, the
vanishing Schwarzian of fractional-linear maps, and the cocycle identity,
which sympy confirms is exactly zero for smooth monotone maps.
"""

from __future__ import annotations

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    compose_moebius_coefficients,
    sampled_with_exact_derivatives,
    schwarzian_samples,
)
from qmkit import (
    DerivativeVanishes,
    GridTooSmall,
    MoebiusMap,
    NonMonotoneMap,
    PoleOnGrid,
    RealGrid,
    SampledFunction,
    apply_moebius,
    cocycle_deviation,
    moebius_invariance_deviation,
    sample,
    schwarzian,
    transform_W,
)

X = sp.Symbol("x")

COEFF = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def grid_on(lo: float, hi: float, n: int = 801) -> RealGrid:
    return RealGrid(lo, hi, n)


# ---------------------------------------------------------------------------
# schwarzian


def test_affine_function_has_zero_schwarzian():
    # Finite-difference third derivatives of exact linear samples carry
    # eps/h^3 rounding noise (~1e-8 here); the gate allows for that.
    f = sample(grid_on(-1.0, 1.0), lambda q: q)
    result = schwarzian(f)
    assert np.abs(result.values).max() < 1e-6


def test_moebius_sample_has_zero_schwarzian_with_exact_derivatives():
    f = sampled_with_exact_derivatives((2 * X + 1) / (X + 3), grid_on(0.0, 1.0))
    result = schwarzian(f)
    assert np.abs(result.values).max() < 1e-6


def test_moebius_sample_has_zero_schwarzian_with_finite_differences():
    f = sample(grid_on(0.0, 1.0), lambda q: (2 * q + 1) / (q + 3))
    result = schwarzian(f)
    assert np.abs(result.values).max() < 1e-3


def test_exponential_twist_schwarzian_is_constant_two():
    # sympy oracle: S[exp(2ix)] simplifies to the integer 2.
    assert sp.simplify(sp.sympify("2")) == 2
    grid = grid_on(0.0, 1.0)
    f = sampled_with_exact_derivatives(sp.exp(2 * sp.I * X), grid)
    result = schwarzian(f)
    oracle = schwarzian_samples(sp.exp(2 * sp.I * X), grid)
    assert np.abs(oracle - 2.0).max() < 1e-12
    assert np.abs(result.values - 2.0).max() < 1e-6


def test_tangent_schwarzian_is_constant_two():
    grid = grid_on(0.1, 1.0)
    f = sampled_with_exact_derivatives(sp.tan(X), grid)
    result = schwarzian(f)
    oracle = schwarzian_samples(sp.tan(X), grid)
    assert np.abs(oracle - 2.0).max() < 1e-12
    assert np.abs(result.values - 2.0).max() < 1e-6


def test_finite_difference_schwarzian_lives_on_interior_grid():
    grid = grid_on(0.0, 1.0, 101)
    result = schwarzian(sample(grid, lambda q: (2 * q + 1) / (q + 3)))
    assert result.grid.n_points == grid.n_points - 4
    assert result.grid.q_min == pytest.approx(grid.q_min + 2 * grid.spacing)
    assert result.grid.q_max == pytest.approx(grid.q_max - 2 * grid.spacing)


def test_vanishing_first_derivative_raises():
    f = sample(grid_on(-1.0, 1.0), lambda q: q * q)
    with pytest.raises(DerivativeVanishes):
        schwarzian(f)


def test_grid_smaller_than_stencil_is_rejected():
    with pytest.raises(GridTooSmall):
        RealGrid(0.0, 1.0, 8)


def test_schwarzian_works_on_minimal_grid():
    f = sampled_with_exact_derivatives(sp.tan(X), grid_on(0.1, 1.0, 9))
    result = schwarzian(f)
    assert np.abs(result.values - 2.0).max() < 1e-6


def test_a_large_spacing_keeps_the_third_derivative_term():
    # exp(kq) at kh = 1/3: {f, q} h^2 is the same on h = 1 and on
    # h = 1e100/12, where h^3 is near 1e297.  Without the f'''/f' term
    # it would read three times too large.
    def scaled(length: float) -> np.ndarray:
        grid = grid_on(0.0, length, 13)
        f = sample(grid, lambda q: np.exp(q * (4.0 / length)))
        return schwarzian(f).values * grid.spacing * grid.spacing

    unit, large = scaled(12.0), scaled(1e100)
    assert np.abs(unit + 0.5 / 9.0).max() < 0.01
    np.testing.assert_allclose(large, unit, rtol=1e-12)


@pytest.mark.parametrize("func", [lambda q: q, lambda q: np.exp(q / 2.5e119)],
                         ids=["linear", "exponential"])
def test_a_spacing_whose_cube_leaves_the_float_range_is_refused(func):
    # At h = 1e120/12, 2 h^3 is inf: the third difference would read 0.
    with pytest.raises(ValueError, match="cubed"):
        schwarzian(sample(grid_on(0.0, 1e120, 13), func))


def test_codomain_affine_rescale_preserves_schwarzian():
    grid = grid_on(0.1, 1.0)
    f = sampled_with_exact_derivatives(sp.tan(X), grid)
    for a in (2.0, -3.0):
        for b in (0.0, 1.7):
            rescaled = apply_moebius(MoebiusMap(a, b, 0.0, 1.0), f)
            gap = np.abs(schwarzian(rescaled).values - schwarzian(f).values).max()
            assert gap < 1e-6


# ---------------------------------------------------------------------------
# apply_moebius


def test_identity_map_returns_same_samples():
    f = sample(grid_on(0.0, 1.0), lambda q: q**3 + q)
    mapped = apply_moebius(MoebiusMap.identity(), f)
    assert np.allclose(mapped.values, f.values, rtol=0.0, atol=0.0)


def test_inversion_of_coordinate_samples():
    grid = grid_on(1.0, 2.0)
    mapped = apply_moebius(MoebiusMap(0.0, 1.0, 1.0, 0.0), sample(grid, lambda q: q))
    assert np.allclose(mapped.values, 1.0 / grid.points(), atol=1e-14)


def test_composition_matches_coefficient_matrix_product():
    # Oracle: composing maps multiplies their 2x2 coefficient matrices.
    grid = grid_on(0.0, 1.0)
    f = sample(grid, lambda q: q + 2.0)
    outer, inner = (2.0, 1.0, 0.5, 3.0), (1.0, -0.5, 0.25, 1.5)
    composed = compose_moebius_coefficients(outer, inner)
    stepwise = apply_moebius(
        MoebiusMap(*outer), apply_moebius(MoebiusMap(*inner), f)
    )
    direct = apply_moebius(MoebiusMap(*composed), f)
    assert np.abs(stepwise.values - direct.values).max() < 1e-12


def test_degenerate_coefficients_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        MoebiusMap(1.0, 2.0, 2.0, 4.0)


def test_pole_on_grid_raises():
    f = sample(grid_on(0.5, 1.5), lambda q: q)
    with pytest.raises(PoleOnGrid):
        apply_moebius(MoebiusMap(1.0, 0.0, 1.0, -1.0), f)


def test_chain_rule_derivatives_match_symbolic():
    # Exact derivatives of (a f + b)/(c f + d) from the chain rule must
    # agree with sympy differentiating the composite expression.
    grid = grid_on(0.0, 1.0)
    f = sampled_with_exact_derivatives(X**3 + X + 3, grid)
    m = MoebiusMap(2.0, 1.0, 0.5, 3.0)
    mapped = apply_moebius(m, f)
    composite = (2 * (X**3 + X + 3) + 1) / (sp.Rational(1, 2) * (X**3 + X + 3) + 3)
    oracle = sampled_with_exact_derivatives(composite, grid)
    for got, want in zip(mapped.derivatives, oracle.derivatives):
        assert np.abs(got - want).max() < 1e-10


# ---------------------------------------------------------------------------
# moebius invariance


def test_invariance_for_translation_of_tangent():
    f = sampled_with_exact_derivatives(sp.tan(X), grid_on(0.1, 1.0))
    assert moebius_invariance_deviation(f, MoebiusMap(1.0, 1.0, 0.0, 1.0)) < 1e-6


def test_invariance_for_dilation_of_exponential_twist():
    f = sampled_with_exact_derivatives(sp.exp(2 * sp.I * X), grid_on(0.0, 1.0))
    assert moebius_invariance_deviation(f, MoebiusMap(2.0, 0.0, 0.0, 1.0)) < 1e-6


def test_invariance_of_affine_function_is_exact():
    f = sampled_with_exact_derivatives(X, grid_on(-1.0, 1.0))
    assert moebius_invariance_deviation(f, MoebiusMap(3.0, 1.0, 2.0, 5.0)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(a=COEFF, b=COEFF, c=COEFF, d=COEFF)
def test_invariance_holds_for_random_nondegenerate_maps(a, b, c, d):
    assume(abs(a * d - b * c) > 0.1)
    grid = grid_on(0.5, 1.5, 401)
    f = sampled_with_exact_derivatives(X**3 + X + 3, grid)
    scale = abs(c) * float(np.abs(f.values).max()) + abs(d) + 1.0
    assume(float(np.abs(c * f.values + d).min()) > 0.05 * scale)
    assert moebius_invariance_deviation(f, MoebiusMap(a, b, c, d)) < 1e-6


# ---------------------------------------------------------------------------
# cocycle


def test_cocycle_identity_for_identity_maps_is_zero():
    grid = grid_on(0.5, 1.5)
    ident = sampled_with_exact_derivatives(X, grid)
    assert cocycle_deviation(ident, grid, ident, xi=1.0, mass=0.5) < 1e-12


def test_cocycle_moebius_against_identity_is_zero():
    grid = grid_on(0.5, 1.5)
    qa = sampled_with_exact_derivatives((2 * X + 1) / (X + 3), grid)
    qc = sampled_with_exact_derivatives(X, grid)
    assert cocycle_deviation(qa, grid, qc, xi=1.0, mass=0.5) < 1e-10


def test_cocycle_cubic_against_exponential():
    # sympy oracle check (once, symbolically): the cocycle defect of
    # qa = x^3 + x against qc = e^x simplifies to exactly zero, so the
    # numerical deviation below measures pure discretization error.
    grid = grid_on(0.5, 1.5, 2001)
    qa = sampled_with_exact_derivatives(X**3 + X, grid)
    qc = sampled_with_exact_derivatives(sp.exp(X), grid)
    assert cocycle_deviation(qa, grid, qc, xi=1.0, mass=0.5) < 1e-5


def test_cocycle_rejects_non_monotone_map():
    grid = grid_on(-1.0, 1.0)
    qa = sampled_with_exact_derivatives(X**2, grid)
    qc = sampled_with_exact_derivatives(X, grid)
    with pytest.raises((NonMonotoneMap, DerivativeVanishes)):
        cocycle_deviation(qa, grid, qc, xi=1.0, mass=0.5)


def test_cocycle_rejects_mismatched_grids():
    grid = grid_on(0.5, 1.5)
    other = grid_on(0.5, 1.5, 101)
    qa = sampled_with_exact_derivatives(X**3 + X, grid)
    qc = sampled_with_exact_derivatives(sp.exp(X), other)
    with pytest.raises(ValueError, match="base grid"):
        cocycle_deviation(qa, grid, qc, xi=1.0, mass=0.5)


@settings(max_examples=25, deadline=None)
@given(
    c3=st.floats(min_value=0.2, max_value=1.5),
    c1=st.floats(min_value=0.5, max_value=2.0),
    c0=st.floats(min_value=-1.0, max_value=1.0),
)
def test_cocycle_holds_for_random_monotone_cubics(c3, c1, c0):
    grid = grid_on(0.5, 1.5, 801)
    qa = sampled_with_exact_derivatives(c3 * X**3 + c1 * X + c0, grid)
    qc = sampled_with_exact_derivatives(sp.exp(X), grid)
    assert cocycle_deviation(qa, grid, qc, xi=1.0, mass=0.5) < 1e-5


# ---------------------------------------------------------------------------
# transform_W


def test_transform_by_identity_returns_same_samples():
    grid = grid_on(0.5, 1.5)
    w = sample(grid, lambda q: q * q - 1.0)
    ident = sampled_with_exact_derivatives(X, grid)
    out = transform_W(w, ident, xi=1.0, mass=0.5)
    assert np.abs(out.values - w.values).max() < 1e-12


def test_inhomogeneous_term_maps_zero_w_to_schwarzian_pairing():
    # Oracle: sympy gives S[x^3+x] = 6(1 - 6x^2)/(9x^4 + 6x^2 + 1), so the
    # transformed W must equal -(xi^2/4m) times those samples pointwise.
    grid = grid_on(0.5, 1.5)
    w = SampledFunction(grid, np.zeros(grid.n_points))
    cubic = sampled_with_exact_derivatives(X**3 + X, grid)
    out = transform_W(w, cubic, xi=1.0, mass=0.5)
    oracle = schwarzian_samples(X**3 + X, grid).real
    expected = -(1.0**2 / (4.0 * 0.5)) * oracle
    assert np.abs(out.values - expected).max() < 1e-10
    assert np.abs(out.values).min() > 0.0


def test_classical_transform_is_quadratic_differential_rule():
    # The law less its value at W = 0 leaves the homogeneous part d1^2 W.
    grid = grid_on(0.5, 1.5)
    w = sample(grid, lambda q: np.sin(q))
    zero = SampledFunction(grid, np.zeros(grid.n_points))
    cubic = sampled_with_exact_derivatives(X**3 + X, grid)
    out = transform_W(w, cubic, xi=1.0, mass=0.5)
    pairing = transform_W(zero, cubic, xi=1.0, mass=0.5)
    d1 = cubic.derivatives[0]
    assert np.abs(out.values - pairing.values - d1 * d1 * w.values).max() < 1e-12


def test_transform_rejects_non_monotone_map():
    grid = grid_on(-1.0, 1.0)
    w = sample(grid, lambda q: q)
    parabola = sampled_with_exact_derivatives(X**2, grid)
    with pytest.raises((NonMonotoneMap, DerivativeVanishes)):
        transform_W(w, parabola, xi=1.0, mass=0.5)


_WIDE = RealGrid(-1.0, 1.0, 2000)  # 2000 points: q = 0 is none, so no slope of q² vanishes


# Each value check of the coordinate-map functions that no other test pins:
# a call that fails it, the error it raises and its message.
_REFUSED = {
    "transform-two-grids": (lambda: transform_W(SampledFunction(grid_on(0.0, 1.0, 9), np.ones(9)),
                                                SampledFunction(grid_on(0.0, 2.0, 9),
                                                                np.arange(9.0)),
                                                xi=1.0, mass=1.0),
                            ValueError, "share one grid"),
    "cocycle-parabola": (lambda: cocycle_deviation(sample(_WIDE, lambda q: q), _WIDE,
                                                   sample(_WIDE, lambda q: q * q),
                                                   xi=1.0, mass=1.0),
                         NonMonotoneMap, "qc must be strictly monotone"),
}


@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_a_coordinate_map_value_check_refuses(name):
    call, error, message = _REFUSED[name]
    with pytest.raises(error, match=message):
        call()


def test_sample_evaluates_each_derivative_callable_on_the_grid():
    grid = grid_on(0.0, 1.0, 9)
    f = sample(grid, np.sin, (np.cos, lambda q: -np.sin(q), lambda q: -np.cos(q)))
    q = grid.points()
    assert np.array_equal(f.values, np.sin(q))
    for got, expected in zip(f.derivatives, (np.cos(q), -np.sin(q), -np.cos(q))):
        assert np.array_equal(got, expected)
