"""Exact counting identities for specification-parameter growth laws.

A preparation scheme that distinguishes ``n`` states needs some number of
real parameters to pin down; the power law ``n**r`` (with ``r = 1`` for
classical probability vectors and ``r = 2`` for complex state spaces) is
the one that is both strictly monotone and multiplicative over composite
systems.  The real-vector-space alternative ``n(n+1)/2`` fails
multiplicativity, which these helpers exhibit with exact integer
arithmetic — no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "HardyCounts",
    "RealSpaceComparison",
    "hardy_counts",
    "parameter_count",
    "real_space_count",
    "real_space_violation",
    "wootters_g_identity",
]


@dataclass(frozen=True)
class HardyCounts:
    """Power-law parameter count plus its two structural checks."""

    count: int
    monotone_ok: bool
    composite_ok: bool


@dataclass(frozen=True)
class RealSpaceComparison:
    """Joint versus product parameter counts for real state spaces."""

    K_joint: int
    K_product: int
    violates: bool


def parameter_count(dimension: int, exponent: int) -> int:
    """The power-law count ``dimension ** exponent`` as an exact integer."""
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    if exponent not in (1, 2):
        raise ValueError(f"exponent must be 1 or 2, got {exponent}")
    return dimension**exponent


def _factor_pairs(n: int):
    d = 1
    while d * d <= n:
        if n % d == 0:
            yield d, n // d
        d += 1


def hardy_counts(dimension: int, exponent: int) -> HardyCounts:
    """Power-law count with monotonicity and multiplicativity verified.

    ``monotone_ok`` checks that the count strictly grows from this
    dimension to the next; ``composite_ok`` checks the product rule
    ``count(a*b) == count(a) * count(b)`` over every factorization of the
    dimension.  Both are computed, not assumed.
    """
    count = parameter_count(dimension, exponent)
    monotone_ok = parameter_count(dimension + 1, exponent) > count
    composite_ok = all(
        parameter_count(a, exponent) * parameter_count(b, exponent) == count
        for a, b in _factor_pairs(dimension)
    )
    return HardyCounts(count=count, monotone_ok=monotone_ok, composite_ok=composite_ok)


def real_space_count(dimension: int) -> int:
    """Parameter count of a real state space: ``n(n+1)/2`` exactly."""
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    return dimension * (dimension + 1) // 2


def real_space_violation(dim_first: int, dim_second: int) -> RealSpaceComparison:
    """Show that real-space counts overshoot the separable product.

    The joint count for the composite dimension exceeds the product of
    the factor counts whenever both factors are at least 2, so separate
    local data cannot account for the joint parameters.
    """
    if dim_first < 2 or dim_second < 2:
        raise ValueError("both factor dimensions must be at least 2")
    joint = real_space_count(dim_first * dim_second)
    product = real_space_count(dim_first) * real_space_count(dim_second)
    return RealSpaceComparison(
        K_joint=joint, K_product=product, violates=joint > product
    )


def wootters_g_identity(dim_first: int, dim_second: int, exponent: int) -> int:
    """Deviation of the shifted count ``g(n) = n**r - 1`` from its
    composition law ``g(ab) = g(a) + g(b) + g(a)g(b)``.

    Exact integer arithmetic; the result is 0 for every pair of
    dimensions, which is precisely what fails for a miscalibrated offset.
    """
    if dim_first < 2 or dim_second < 2:
        raise ValueError("both factor dimensions must be at least 2")

    def g(n: int) -> int:
        return parameter_count(n, exponent) - 1

    joint = g(dim_first * dim_second)
    composed = g(dim_first) + g(dim_second) + g(dim_first) * g(dim_second)
    return abs(joint - composed)
