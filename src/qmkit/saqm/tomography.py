"""State reconstruction from complete sets of mutually unbiased bases.

A full set of ``N + 1`` mutually unbiased bases in dimension ``N`` makes
outcome frequencies a faithful coordinate system for density matrices:
the state is the probability-weighted sum of the basis projectors minus
the identity.  Tables of hypothetical frequencies can therefore be fed
back through the same formula, and tables that correspond to no physical
state are detected by a negative reconstructed eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    DimensionMismatch,
    InvalidEffect,
    NegativeEigenvalue,
    UnsupportedDimension,
)
from .predictors import MeasurementBasis, Predictor

__all__ = [
    "DensityMatrix",
    "MubSet",
    "ProbabilityTable",
    "density_from_table",
    "mub_set",
    "no_signalling_check",
    "partial_trace",
    "random_density",
    "table_from_density",
    "trace_probability",
]

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10
_UNBIASED_TOL = 1e-10
_PROBABILITY_SLACK = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state matrix.

    Positivity is enforced with a small floor: an eigenvalue below
    ``-1e-10`` raises NegativeEigenvalue carrying the offending value,
    which is how unphysical reconstructions announce themselves.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("state matrix must be square")
        if m.shape[0] < 1:
            raise ValueError("state matrix must be at least 1x1")
        if not np.isfinite(m).all():
            raise ValueError("state matrix entries must be finite")
        if np.abs(m - m.conj().T).max() > _HERMITIAN_TOL:
            raise ValueError("state matrix must be Hermitian")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(f"state matrix must have unit trace, got {trace}")
        lowest = float(np.linalg.eigvalsh(m).min())
        if lowest < _EIGENVALUE_FLOOR:
            raise NegativeEigenvalue(
                f"state matrix has negative eigenvalue {lowest}",
                min_eigenvalue=lowest,
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @classmethod
    def pure(cls, psi: Predictor) -> "DensityMatrix":
        """Rank-one projector onto a unit predictor."""
        v = psi.components
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)


@dataclass(frozen=True)
class MubSet:
    """``dim + 1`` pairwise unbiased orthonormal bases.

    Unbiased means every cross-basis overlap has squared modulus
    ``1/dim``; together with orthonormality this is what makes the
    projector sum reconstruction exact.  ``vectors[b, i]`` is the i-th
    vector of basis b.
    """

    bases: tuple[MeasurementBasis, ...]
    vectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bases = tuple(self.bases)
        object.__setattr__(self, "bases", bases)
        if not bases:
            raise ValueError("at least one basis required")
        dim = bases[0].dim
        for basis in bases:
            if basis.dim != dim:
                raise DimensionMismatch("all bases must share one dimension")
        if len(bases) != dim + 1:
            raise ValueError(
                f"a complete set in dimension {dim} has {dim + 1} bases, "
                f"got {len(bases)}"
            )
        vectors = np.stack([basis.vectors for basis in bases])
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        deviation = self.overlap_deviation()
        if deviation > _UNBIASED_TOL:
            raise ValueError(f"bases are not unbiased: overlap deviation {deviation:.3g}")

    @property
    def dim(self) -> int:
        return self.bases[0].dim

    def overlap_deviation(self) -> float:
        """Largest | |<a|b>|^2 - 1/dim | over vectors a, b of distinct bases."""
        first, second = np.triu_indices(len(self.bases), 1)
        v = self.vectors
        cross = np.abs(v[first].conj() @ v[second].transpose(0, 2, 1)) ** 2
        return float(np.abs(cross - 1.0 / self.dim).max())


@dataclass(frozen=True)
class ProbabilityTable:
    """Outcome probabilities, one row per basis of a complete set."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("probability table must be two-dimensional")
        n_bases, dim = rows.shape
        if n_bases != dim + 1:
            raise ValueError(
                f"table must have dim+1 rows of dim entries, got {rows.shape}"
            )
        if not np.isfinite(rows).all():
            raise ValueError("probabilities must be finite")
        if rows.min() < -_PROBABILITY_SLACK or rows.max() > 1.0 + _PROBABILITY_SLACK:
            raise ValueError("probabilities must lie in [0, 1]")
        sums = rows.sum(axis=1)
        if np.abs(sums - 1.0).max() > _PROBABILITY_SLACK * dim:
            raise ValueError("each row must sum to one")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def mub_set(dimension: int) -> MubSet:
    """Complete set of mutually unbiased bases.

    Dimension n = 2 or an odd prime: the standard basis, then for a = 0 ..
    n - 1 the basis whose vector b has components omega^((a j^2 + s b j)
    mod s n)/sqrt(n), omega = e^(2 pi i/(s n)), with s = 2 for the qubit
    (its three spin axes) and s = 1 for odd primes.  Other dimensions raise
    UnsupportedDimension — no complete construction is attempted.
    """
    if dimension != 2 and not _is_odd_prime(dimension):
        raise UnsupportedDimension(
            f"complete unbiased-basis sets are provided for dimension 2 and odd "
            f"primes, not {dimension}"
        )
    n, s = dimension, 2 if dimension == 2 else 1
    omega = np.exp(2j * np.pi / (s * n))
    j_idx = np.arange(n)
    bases = [MeasurementBasis(np.eye(n, dtype=complex))]
    for a in range(n):
        vectors = np.empty((n, n), dtype=complex)
        for b in range(n):
            vectors[b] = omega ** ((a * j_idx * j_idx + s * b * j_idx) % (s * n))
        bases.append(MeasurementBasis(vectors / math.sqrt(n)))
    return MubSet(tuple(bases))


def table_from_density(state: DensityMatrix, mubs: MubSet) -> ProbabilityTable:
    """Outcome probabilities of every basis in the set, one row per basis."""
    if state.dim != mubs.dim:
        raise DimensionMismatch(
            f"state dimension {state.dim} does not match basis dimension {mubs.dim}"
        )
    rows = np.einsum("bij,jk,bik->bi", mubs.vectors.conj(), state.matrix, mubs.vectors).real
    return ProbabilityTable(np.clip(rows, 0.0, 1.0))


def density_from_table(table: ProbabilityTable, mubs: MubSet) -> DensityMatrix:
    """Reconstruct the state as the weighted projector sum minus identity.

    Raises NegativeEigenvalue when the table is not the statistics of any
    physical state.
    """
    if table.dim != mubs.dim:
        raise DimensionMismatch(
            f"table dimension {table.dim} does not match basis dimension {mubs.dim}"
        )
    accum = np.einsum("bi,bij,bik->jk", table.rows, mubs.vectors, mubs.vectors.conj())
    return DensityMatrix(accum - np.eye(table.dim))


def trace_probability(state: DensityMatrix, effect: np.ndarray) -> float:
    """Probability assigned by the state to a measurement effect.

    The effect must be Hermitian with spectrum inside [0, 1]; anything
    else raises InvalidEffect.  The returned value is clamped to [0, 1]
    against roundoff.
    """
    e = np.array(effect, dtype=complex)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise InvalidEffect("effect must be a square matrix")
    if not np.isfinite(e).all():
        raise InvalidEffect("effect entries must be finite")
    if e.shape[0] != state.dim:
        raise DimensionMismatch(
            f"effect dimension {e.shape[0]} does not match state dimension {state.dim}"
        )
    if np.abs(e - e.conj().T).max() > _HERMITIAN_TOL:
        raise InvalidEffect("effect must be Hermitian")
    spectrum = np.linalg.eigvalsh(e)
    if spectrum.min() < -_PROBABILITY_SLACK or spectrum.max() > 1.0 + _PROBABILITY_SLACK:
        raise InvalidEffect(
            f"effect spectrum must lie in [0, 1], got "
            f"[{spectrum.min()}, {spectrum.max()}]"
        )
    value = float(np.trace(state.matrix @ e).real)
    return min(1.0, max(0.0, value))


def partial_trace(state: DensityMatrix, dims: tuple[int, int], keep: int) -> DensityMatrix:
    """Reduced state of one factor of a bipartite system.

    ``dims`` gives the factor dimensions, ``keep`` (0 or 1) selects which
    factor survives.
    """
    d_a, d_b = dims
    if d_a * d_b != state.dim:
        raise DimensionMismatch(
            f"factor dimensions {dims} do not compose to {state.dim}"
        )
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    tensor = state.matrix.reshape(d_a, d_b, d_a, d_b)
    if keep == 0:
        reduced = np.einsum("ijkj->ik", tensor)
    else:
        reduced = np.einsum("ijik->jk", tensor)
    return DensityMatrix(reduced)


def no_signalling_check(
    rho_joint: DensityMatrix,
    side_b_bases: tuple[MeasurementBasis, MeasurementBasis],
    mub_a: MubSet,
) -> float:
    """Largest change a remote basis choice makes to local statistics.

    The first factor's complete outcome table is computed three ways:
    from joint statistics with each of the two second-factor basis
    choices, and directly from the reduced state.  The result is the
    worst discrepancy between any two of the three tables, which is zero
    up to roundoff for every physical joint state.  The first factor is
    the left slot of the tensor-product ordering.
    """
    basis_b_first, basis_b_second = side_b_bases
    d_a = mub_a.dim
    d_b = basis_b_first.dim
    if basis_b_second.dim != d_b:
        raise DimensionMismatch("the two second-factor bases differ in dimension")
    if d_a * d_b != rho_joint.dim:
        raise DimensionMismatch(
            f"factor dimensions ({d_a}, {d_b}) do not compose to {rho_joint.dim}"
        )

    rho = rho_joint.matrix.reshape(d_a, d_b, d_a, d_b)

    def conditioned_table(basis_b: MeasurementBasis) -> np.ndarray:
        # Sum over the second factor's outcomes j of <a_ri b_j| rho |a_ri b_j>.
        b = basis_b.vectors
        return np.einsum("rix,jy,xyuv,riu,jv->ri",
                         mub_a.vectors.conj(), b.conj(), rho, mub_a.vectors, b).real

    first = conditioned_table(basis_b_first)
    second = conditioned_table(basis_b_second)
    reduced = partial_trace(rho_joint, (d_a, d_b), keep=0)
    direct = table_from_density(reduced, mub_a).rows
    return float(np.ptp([first, second, direct], axis=0).max())


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state from a normalized Wishart draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    return DensityMatrix(w / np.trace(w).real)
