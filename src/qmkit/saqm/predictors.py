"""Predictors, outcome probabilities and statistical distance.

A predictor is a unit complex vector; outcome probabilities for a
measurement basis are the squared moduli of its components in that basis.
The squared-modulus rule is singled out by an exponent-rigidity scan: for
a generic predictor the moduli-power sum equals one only at power two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ArgumentOutOfRange, DimensionMismatch

__all__ = [
    "MeasurementBasis",
    "Predictor",
    "born_probabilities",
    "continuous_path",
    "exponent_deviation",
    "random_predictor",
    "statistical_distance",
]

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Predictor:
    """Unit-norm complex state vector."""

    components: np.ndarray

    def __post_init__(self):
        components = np.asarray(self.components, dtype=complex)
        object.__setattr__(self, "components", components)
        if components.ndim != 1 or len(components) == 0:
            raise ValueError("components must form a nonempty vector")
        if not np.isfinite(components).all():
            raise ValueError("predictor components must be finite")
        norm = np.linalg.norm(components)
        if abs(norm - 1.0) > _UNIT_TOL:
            raise ValueError(f"predictor norm {norm!r} is not 1 within {_UNIT_TOL}")

    @property
    def dim(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal basis stored as rows of an N x N complex matrix."""

    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=complex)
        object.__setattr__(self, "vectors", vectors)
        if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
            raise ValueError("vectors must form a square matrix of rows")
        if not np.isfinite(vectors).all():
            raise ValueError("basis vectors must be finite")
        gram = vectors @ vectors.conj().T
        if np.abs(gram - np.eye(len(vectors))).max() > _UNIT_TOL:
            raise ValueError("basis rows are not orthonormal within 1e-12")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def standard(cls, dim: int) -> "MeasurementBasis":
        return cls(np.eye(dim, dtype=complex))


def _amplitudes(psi: Predictor, basis: MeasurementBasis) -> np.ndarray:
    if psi.dim != basis.dim:
        raise DimensionMismatch(
            f"predictor dim {psi.dim} vs basis dim {basis.dim}"
        )
    return basis.vectors.conj() @ psi.components


def born_probabilities(psi: Predictor, basis: MeasurementBasis) -> np.ndarray:
    """Outcome distribution |<a_k|psi>|^2; sums to one within 1e-12."""
    amps = _amplitudes(psi, basis)
    return (amps * amps.conj()).real


def exponent_deviation(psi: Predictor, basis: MeasurementBasis, k: float) -> float:
    """| sum_k |<a_k|psi>|^k  -  1 |, the defect of a trial exponent k.

    Zero (to roundoff) at k = 2 for every predictor; away from k = 2 it
    vanishes only for basis eigenstates, which is the rigidity that forces
    the squared-modulus rule.
    """
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"the exponent k must be finite and positive, got {k!r}")
    moduli = np.abs(_amplitudes(psi, basis))
    return float(abs(np.sum(moduli**k) - 1.0))


def statistical_distance(
    psi1: Predictor, psi2: Predictor, basis: MeasurementBasis
) -> float:
    """Distinguishability angle arccos( sum_i |a_i^(1)| |a_i^(2)| ).

    Symmetric, bounded by [0, pi/2], zero when the two predictors give the
    same outcome moduli and maximal when their supports are disjoint.
    """
    m1 = np.abs(_amplitudes(psi1, basis))
    m2 = np.abs(_amplitudes(psi2, basis))
    overlap = float(np.sum(m1 * m2))
    if overlap > 1.0 + 1e-12 or overlap < -1e-12:
        raise ArgumentOutOfRange(f"modulus overlap {overlap!r} outside [0, 1]")
    return float(np.arccos(min(max(overlap, 0.0), 1.0)))


def continuous_path(
    psi_a: Predictor, psi_b: Predictor, steps: int
) -> list[Predictor]:
    """Great-circle interpolation from psi_a to psi_b (up to global phase).

    Returns steps + 1 unit predictors generated by one fixed rotation in
    the plane spanned by the endpoints, so consecutive states differ by
    the same small angle.  The final state matches psi_b up to a global
    phase.
    """
    if psi_a.dim != psi_b.dim:
        raise DimensionMismatch("endpoints live in different dimensions")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    a = psi_a.components
    b = psi_b.components
    inner = np.vdot(a, b)
    # Rotate b's global phase so the overlap with a is real nonnegative.
    if abs(inner) > 0:
        b = b * (abs(inner) / inner)
    overlap = np.vdot(a, b).real
    normal = b - overlap * a
    sine = float(np.linalg.norm(normal))
    if sine == 0.0:
        return [Predictor(a.copy()) for _ in range(steps + 1)]
    # atan2 resolves angles far below the 2e-8 that arccos of the overlap can.
    theta = math.atan2(sine, overlap)
    normal = normal / sine
    path = []
    for j in range(steps + 1):
        angle = theta * j / steps
        state = np.cos(angle) * a + np.sin(angle) * normal
        state = state / np.linalg.norm(state)
        path.append(Predictor(state))
    return path


def random_predictor(dim: int, rng: np.random.Generator) -> Predictor:
    """Haar-like random unit vector (normalized complex Gaussian)."""
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Predictor(raw / np.linalg.norm(raw))
