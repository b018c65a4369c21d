"""Spectra of normal elements, functional calculus, and the induced
probability measure of an observable in a state.

Everything is finite dimensional, so the spectrum is the eigenvalue set and
the measure is purely atomic: weight tr(b P_k) on each clustered eigenspace
projection P_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import AlgebraElement, _operator_norms, classify, operator_norm
from .errors import EvaluationDomainError, InvalidInputError, NumericalError
from .states import DensityState, _check_dims

__all__ = [
    "SpectralMeasure",
    "spectrum",
    "spectral_measure",
    "apply_function",
]

_CLUSTER_FLOOR = 1e-12


@dataclass(frozen=True)
class SpectralMeasure:
    """Atomic probability measure on the spectrum of a normal element."""

    atoms: tuple  # of (eigenvalue: complex, weight: float)
    source_dim: int

    def moment(self, k: int) -> complex:
        return sum(w * lam**k for lam, w in self.atoms)

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def eigenvalues(self) -> np.ndarray:
        return np.array([lam for lam, _ in self.atoms])


def _normal_eigensystem(a: AlgebraElement, tol: float):
    """Eigenvalues, an orthonormal eigenbasis and the norm of a normal matrix."""
    flags = classify(a, tol)
    if not flags.normal:
        raise InvalidInputError("element is not normal within tolerance")
    m = a.entries
    try:
        if flags.selfadjoint:
            vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
            return vals.astype(complex), vecs, operator_norm(a)
        t, z = scipy.linalg.schur(m, output="complex")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    # for a normal matrix the Schur form is diagonal up to round-off
    off_norm, norm = _operator_norms(np.stack([t - np.diag(np.diag(t)), m]))
    if off_norm > max(tol, 1e-9) * max(norm, 1.0):
        raise InvalidInputError("element is not normal within tolerance")
    return np.diag(t), z, float(norm)


def _cluster(values: np.ndarray, ctol: float):
    """Single-linkage clusters of eigenvalues (linked at distance <= ctol),
    ordered by first member in lexicographic order; returns (cluster means,
    list of index arrays)."""
    order = np.lexsort((values.imag, values.real))
    v = values[order]
    # transitive closure by squaring; the 0/1 path counts are exact floats
    link = (np.abs(v[:, None] - v[None, :]) <= ctol).astype(float)
    while ((closed := (link @ link > 0).astype(float)) != link).any():
        link = closed
    first = link.argmax(axis=1)  # each member's cluster, by its first member
    # not np.unique, whose sort pages in numpy's SIMD quicksort (~0.3 MB resident)
    groups = [order[first == f] for f in np.flatnonzero(first == np.arange(len(v)))]
    return [complex(values[g].mean()) for g in groups], groups


def spectrum(a: AlgebraElement, tol: float = 1e-8) -> list[complex]:
    """Clustered eigenvalues of a normal element.

    Self-adjoint inputs yield real outputs exactly (eigh path)."""
    vals, _, norm = _normal_eigensystem(a, tol)
    means, _ = _cluster(vals, max(tol * norm, _CLUSTER_FLOOR))
    return means


def spectral_measure(
    omega: DensityState, a: AlgebraElement, tol: float = 1e-8
) -> SpectralMeasure:
    """Probability measure of a normal element A in the state omega.

    Each atom carries weight tr(b P_k) with P_k the projection onto the
    clustered eigenspace; moments then reproduce omega(A^k).
    """
    _check_dims(omega, a)
    vals, vecs, norm = _normal_eigensystem(a, tol)
    means, groups = _cluster(vals, max(tol * norm, _CLUSTER_FLOOR))
    weights = []
    for g in groups:
        v = vecs[:, g]
        p = v @ v.conj().T
        weights.append(float(np.trace(omega.b @ p).real))
    w = np.clip(np.array(weights), 0.0, 1.0)
    total = w.sum()
    if abs(total - 1.0) > 1e-8:
        raise NumericalError(f"spectral weights sum to {total}, expected 1")
    w = w / total
    atoms = tuple(zip(means, w.tolist()))
    return SpectralMeasure(atoms=atoms, source_dim=a.dim)


def apply_function(f, a: AlgebraElement, tol: float = 1e-8) -> AlgebraElement:
    """Functional calculus: apply a scalar function to the eigenvalues of a
    normal element in its eigenbasis."""
    vals, vecs, _ = _normal_eigensystem(a, tol)
    fv = np.asarray([f(lam) for lam in vals], dtype=complex)
    if not np.all(np.isfinite(fv)):
        raise EvaluationDomainError("function produced non-finite values on the spectrum")
    return AlgebraElement(vecs @ np.diag(fv) @ vecs.conj().T)
