"""Spectra of normal elements, functional calculus, and the induced
probability measure of an observable in a state.

Everything is finite dimensional, so the spectrum is the eigenvalue set and
the measure is purely atomic: weight tr(b P_k) on each clustered eigenspace
projection P_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, _exceeds, _hermitian_part, _lapack, classify
from .errors import EvaluationDomainError, InvalidInputError, NumericalError
from .states import DensityState, _check_dims

__all__ = [
    "SpectralMeasure",
    "spectrum",
    "spectral_measure",
    "apply_function",
]

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
    """Eigenvalues and an orthonormal eigenbasis of a normal matrix. A Schur
    form is accepted when its off-diagonal part is within max(tol, 1e-9)
    max(||a||, 1), which Frobenius bounds decide."""
    flags = classify(a, tol)
    if not flags.normal:
        raise InvalidInputError("element is not normal within tolerance")
    m = a.entries
    if flags.selfadjoint:
        vals, vecs = _lapack("eigh", _hermitian_part(m))
        return vals.astype(complex), vecs
    t, z = _lapack("schur", m, output="complex")
    # for a normal matrix the Schur form is diagonal up to round-off
    if _exceeds((t - np.diag(np.diag(t)))[None], m[None], max(tol, 1e-9))[0]:
        raise InvalidInputError("element is not normal within tolerance")
    return np.diag(t), z


def _clusters(values: np.ndarray, rel: float) -> list[np.ndarray]:
    """The one eigenvalue cut: index arrays of the single-linkage clusters at
    distance <= max(rel max|lambda|, 1e-12) (max|lambda| = ||a|| for a normal
    a), members and clusters in lexicographic (real, imag) order."""
    ctol = max(rel * float(np.abs(values).max()), 1e-12)
    order = np.lexsort((values.imag, values.real))
    v = values[order]
    # transitive closure by squaring; the 0/1 path counts are exact floats
    link = (np.abs(v[:, None] - v[None, :]) <= ctol).astype(float)
    while ((closed := (link @ link > 0).astype(float)) != link).any():
        link = closed
    first = link.argmax(axis=1)  # each member's cluster, by its first member
    # not np.unique, whose sort pages in numpy's SIMD quicksort (~0.3 MB resident)
    return [order[first == f] for f in np.flatnonzero(first == np.arange(len(v)))]


def spectrum(a: AlgebraElement, tol: float = 1e-8) -> list[complex]:
    """Clustered eigenvalues of a normal element.

    Self-adjoint inputs yield real outputs exactly (eigh path)."""
    vals, _ = _normal_eigensystem(a, tol)
    return [complex(vals[g].mean()) for g in _clusters(vals, tol)]


def spectral_measure(
    omega: DensityState, a: AlgebraElement, tol: float = 1e-8
) -> SpectralMeasure:
    """Probability measure of a normal element A in the state omega.

    Each atom carries weight tr(b P_k) with P_k the projection onto the
    clustered eigenspace; moments then reproduce omega(A^k).
    """
    _check_dims(omega, a)
    vals, vecs = _normal_eigensystem(a, tol)
    means, weights = [], []
    for g in _clusters(vals, tol):
        v = vecs[:, g]
        p = v @ v.conj().T
        means.append(complex(vals[g].mean()))
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
    vals, vecs = _normal_eigensystem(a, tol)
    fv = np.asarray([f(lam) for lam in vals], dtype=complex)
    if not np.all(np.isfinite(fv)):
        raise EvaluationDomainError("function produced non-finite values on the spectrum")
    return AlgebraElement(vecs @ np.diag(fv) @ vecs.conj().T)
