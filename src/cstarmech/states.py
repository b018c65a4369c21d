"""States as density matrices: positive, unit-trace functionals A -> tr(bA).

The checks and the uncertainty kernel work on stacks of shape (S, n, n) and
name the first row that fails; the scalar API is a batch of one over them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    _as_stack,
    _exceeds,
    _first_bad,
    _hermitian_part,
    _lapack,
    _not_selfadjoint,
    _require_finite,
)
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidStateError,
    NonObservableError,
)

__all__ = [
    "DensityState",
    "UncertaintyReport",
    "check_densities",
    "check_observables",
    "expectation",
    "from_vector",
    "is_pure",
    "mix",
    "variance",
    "uncertainty_check",
    "uncertainty_bounds",
    "has_definite_value",
]

_STATE_TOL = 1e-12
_OBSERVABLE_TOL = 1e-10


def _traces(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=1, axis2=2)


def check_densities(b) -> np.ndarray:
    """Check a stack of density matrices and return it as a complex array.

    Each matrix must be finite, self-adjoint within 1e-12 max(||b||, 1), of
    trace one within 1e-12 and without an eigenvalue below -1e-12. The
    self-adjointness test takes one batched SVD pair over only the rows its
    Frobenius bounds leave open, the eigenvalues one batched call; an
    InvalidStateError names the first failing row.
    """
    m = _as_stack(b, InvalidStateError, "density ")
    _first_bad(_not_selfadjoint(m, _STATE_TOL), InvalidStateError,
               "density matrix is not self-adjoint")
    traces = _traces(m)
    _first_bad(np.abs(traces - 1.0) > _STATE_TOL, InvalidStateError,
               "trace must be 1, got {}", traces)
    _first_bad(_lapack("eigvalsh", _hermitian_part(m)).min(axis=1) < -_STATE_TOL,
               InvalidStateError, "density matrix has a negative eigenvalue")
    return m


def check_observables(a) -> np.ndarray:
    """Check a stack of observables and return it as a complex array.

    Each matrix must be finite (else InvalidInputError) and self-adjoint
    within 1e-10 max(||A||, 1) (else NonObservableError), decided as in
    check_densities; the error names the first failing row.
    """
    m = _as_stack(a, InvalidInputError, "observable ")
    _first_bad(_not_selfadjoint(m, _OBSERVABLE_TOL), NonObservableError,
               "observable must be self-adjoint")
    return m


@dataclass(frozen=True)
class DensityState:
    """Density matrix b: self-adjoint, positive semidefinite, trace one."""

    b: np.ndarray

    def __post_init__(self):
        m = check_densities([self.b])[0]  # a fresh copy: the caller's array stays writeable
        object.__setattr__(self, "b", m)
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls(np.eye(dim) / dim)


def _check_dims(omega: DensityState, a: AlgebraElement):
    if omega.dim != a.dim:
        raise DimensionMismatchError(f"state dim {omega.dim} vs element dim {a.dim}")


def expectation(omega: DensityState, a: AlgebraElement) -> complex:
    """tr(b A); real (up to round-off) when A is self-adjoint."""
    _check_dims(omega, a)
    return complex(np.trace(omega.b @ a.entries))


def from_vector(psi) -> DensityState:
    """Pure state b = |psi><psi|; non-unit input is normalized with a warning."""
    v = np.asarray(psi, dtype=complex).ravel()
    nrm = np.linalg.norm(v)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise InvalidInputError("cannot build a state from the zero vector")
    if abs(nrm - 1.0) > 1e-10:
        warnings.warn(f"state vector norm {nrm:.3e} != 1; normalizing", stacklevel=2)
    v = v / nrm  # also for a unit vector: exact unit trace
    return DensityState(np.outer(v, v.conj()))


def is_pure(omega: DensityState, tol: float = 1e-10) -> bool:
    """True iff b is (numerically) a rank-one projection: ||b^2 - b|| < tol
    and tr(b^2) > 1 - tol. Frobenius bounds decide the norm test; an SVD
    runs only when ||b^2 - b|| lies near tol."""
    b = omega.b
    b2 = b @ b
    d = (b2 - b)[None]
    # ||d|| >= tol, as ||d|| > the float just below tol (scale max(||0||, 1) = 1)
    if _exceeds(d, np.zeros_like(d), np.nextafter(tol, -np.inf))[0]:
        return False
    return float(np.trace(b2).real) > 1.0 - tol


def mix(states, weights) -> DensityState:
    """Convex combination sum_i p_i b_i."""
    states = list(states)
    w = np.asarray(weights, dtype=float)
    if len(states) != w.size or len(states) == 0:
        raise InvalidInputError("need one weight per state")
    if np.any(w < -_STATE_TOL):
        raise InvalidInputError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > _STATE_TOL:
        raise InvalidInputError(f"weights must sum to 1, got {w.sum()}")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimensionMismatchError("all states must share one dimension")
    return DensityState(sum(p * s.b for p, s in zip(w, states)))


def _variances(b: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
    """omega(A^2) - omega(A)^2 per row, clipped at zero, for checked
    densities ``b``; returns it with the checked observables."""
    a = check_observables(a)
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(f"state dim {b.shape[-1]} vs element dim {a.shape[-1]}")
    if len(a) != len(b):
        raise DimensionMismatchError(f"{len(b)} states vs {len(a)} observables")
    a_sq = a @ a
    _require_finite(a_sq, InvalidInputError)
    mean = _traces(b @ a).real
    second = _traces(b @ a_sq).real
    var = second - mean * mean
    _first_bad(var < -_STATE_TOL * np.maximum(second, 1.0), InvalidStateError,
               "variance {} below round-off floor", var)
    return np.where(var < 0.0, 0.0, var), a


def variance(omega: DensityState, a: AlgebraElement) -> float:
    """omega(A^2) - omega(A)^2 for self-adjoint A, clipped at zero."""
    return float(_variances(omega.b[None], a.entries[None])[0][0])


@dataclass(frozen=True)
class UncertaintyReport:
    lhs: float
    rhs: float
    holds: bool


def _bounds(b: np.ndarray, a1, a2) -> tuple[np.ndarray, np.ndarray]:
    """Delta(A1) Delta(A2) and |omega([A1, A2])| / 2 per row, for checked
    densities ``b``."""
    var1, a1 = _variances(b, a1)
    var2, a2 = _variances(b, a2)
    comm = a1 @ a2 - a2 @ a1
    _require_finite(comm, InvalidInputError)
    z = _traces(b @ comm)
    # np.hypot rounds |z| as Python's abs(complex) does; np.abs may not
    return np.sqrt(var1) * np.sqrt(var2), np.hypot(z.real, z.imag) / 2.0


def uncertainty_bounds(b, a1, a2) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of Delta(A1) Delta(A2) >= |omega([A1, A2])| / 2 for each
    row of (S, n, n) stacks of density matrices and observable pairs.

    Every density and observable is checked as DensityState and variance
    check them; an error names the first failing row.
    """
    return _bounds(check_densities(b), a1, a2)


def uncertainty_check(
    omega: DensityState, a1: AlgebraElement, a2: AlgebraElement
) -> UncertaintyReport:
    """Check Delta(A1) Delta(A2) >= |omega([A1, A2])| / 2, within
    1e-10 max(||A1||_F ||A2||_F, 1)."""
    lhs, rhs = _bounds(omega.b[None], a1.entries[None], a2.entries[None])
    lhs, rhs = float(lhs[0]), float(rhs[0])
    # both sides round in proportion to ||A1|| ||A2||, which the Frobenius
    # norms bound from above
    scale = max(np.linalg.norm(a1.entries) * np.linalg.norm(a2.entries), 1.0)
    return UncertaintyReport(lhs=lhs, rhs=rhs, holds=lhs >= rhs - 1e-10 * scale)


def has_definite_value(omega: DensityState, a: AlgebraElement, tol: float = 1e-10) -> bool:
    """True iff A is dispersion-free in omega."""
    return variance(omega, a) < tol
