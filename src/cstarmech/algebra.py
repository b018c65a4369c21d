"""Finite-dimensional matrix *-algebras.

Elements are square complex matrices; the involution is the conjugate
transpose and the norm is the operator (largest singular value) norm.
Self-adjoint elements play the role of observables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, InvalidInputError, NumericalError

__all__ = [
    "AlgebraElement",
    "AlgebraBasis",
    "ElementFlags",
    "adjoint",
    "operator_norm",
    "commutator",
    "classify",
    "generate_algebra",
    "is_commutative",
]

DEFAULT_TOL = 1e-10


def _first_bad(bad: np.ndarray, error, what: str, values=None):
    """Raise ``error`` naming the first row that ``bad`` flags; ``what`` is
    formatted with that row's entry of ``values``, if given."""
    if bad.any():
        k = int(np.argmax(bad))
        msg = what if values is None else what.format(values[k])
        raise error(f"row {k}: {msg}" if bad.size > 1 else msg)


def _require_finite(m: np.ndarray, error, what: str = "matrix"):
    _first_bad(~np.isfinite(m).all(axis=(1, 2)), error, f"{what} entries must be finite")


def _as_stack(m, error=InvalidInputError, what: str = "") -> np.ndarray:
    """The one admission gate for matrix input: a non-empty (S, n, n) stack of
    finite complex matrices with n >= 1. Anything else is ``error``: ragged or
    non-numeric input, a shape refusal naming the count and the shape of the
    members, or the first row with a non-finite entry. One matrix m enters as
    the batch of one [m], which the gate copies, and a refusal names the
    shape m had."""
    try:
        a = np.array(m, dtype=complex, ndmin=1, copy=None)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what}matrix input is ragged or not numeric: {exc}") from exc
    if a.ndim != 3 or a.size == 0 or a.shape[1] != a.shape[2]:
        raise error(f"expected square {what}matrices of size n >= 1, "
                    f"got {len(a)} of shape {a.shape[1:]}")
    _require_finite(a, error, f"{what}matrix")
    return a


@dataclass(frozen=True)
class AlgebraElement:
    """A square complex matrix regarded as an element of a *-algebra.

    Instances are immutable; arithmetic returns new elements.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_stack([self.entries])[0])
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "AlgebraElement":
        return cls(np.eye(dim))

    def _check_dim(self, other: "AlgebraElement"):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other):
        self._check_dim(other)
        return AlgebraElement(self.entries + other.entries)

    def __sub__(self, other):
        self._check_dim(other)
        return AlgebraElement(self.entries - other.entries)

    def __mul__(self, scalar):
        return AlgebraElement(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return AlgebraElement(-self.entries)

    def __matmul__(self, other):
        self._check_dim(other)
        return AlgebraElement(self.entries @ other.entries)


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Conjugate transpose; an exact involution."""
    return AlgebraElement(a.entries.conj().T)


def _lapack(kernel: str, *args, **kw):
    """The one gateway to the dense factorizations: numpy.linalg's ``kernel``
    where numpy has it and no ``lapack_driver`` is named, else scipy.linalg's,
    looked up at each call so that patched and counted entry points see it.
    A LinAlgError (LAPACK's INFO > 0) becomes a NumericalError naming the kernel."""
    lib = np.linalg if hasattr(np.linalg, kernel) and "lapack_driver" not in kw else scipy.linalg
    try:
        return getattr(lib, kernel)(*args, **kw)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK {kernel} failed: {exc}") from exc


def _svd(m: np.ndarray, full_matrices: bool = False, compute_uv: bool = True):
    """numpy's SVD (LAPACK gesdd), redone with gesvd if it fails; NumericalError if both fail.

    Divide and conquer (gesdd) can fail to converge on clustered singular
    values where gesvd does not.
    """
    try:
        return np.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        return _lapack("svd", m, full_matrices=full_matrices, compute_uv=compute_uv,
                       lapack_driver="gesvd")


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """m/2 + m*/2 over the last two axes: m + m* can overflow, the halves not."""
    return m / 2 + m.conj().swapaxes(-1, -2) / 2


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (S, n, n) stack: the one
    C* norm kernel. Non-finite entries are refused, since a NaN norm passes
    every ``>`` check. If the batched SVD fails, each matrix goes through
    ``_svd``, which raises NumericalError if it fails too."""
    if not np.isfinite(stack).all():
        raise InvalidInputError("matrix entries must be finite")
    try:
        return np.linalg.norm(stack, 2, axis=(-2, -1))
    except np.linalg.LinAlgError:
        return np.array([_svd(m, compute_uv=False)[0] for m in stack])


# Relative slack of the certificate in _exceeds: covers the rounding of a
# computed Frobenius norm of n^2 complex entries, about n^2 u (Higham, ch. 3),
# for every n up to 10^4, and the SVD's own rounding, about n u.
_CERT_SLACK = 1e-6
# Absolute slack per dimension: squares below the smallest subnormal round
# to it or to zero, which moves a Frobenius norm by at most n times this.
_UNDERFLOW = 2.0 * np.sqrt(np.finfo(float).smallest_subnormal)


def _exceeds(d: np.ndarray, m: np.ndarray, tol: float) -> np.ndarray:
    """||d|| > tol max(||m||, 1) in the C* norm, for each row of (S, n, n)
    stacks: the verdict of every "within tol of its norm" check.

    Frobenius norms decide it without an SVD, by ||A||_F / sqrt(n) <= ||A||
    <= ||A||_F (Golub & Van Loan, 4th ed., 2.3): a row passes for certain
    when ||d||_F <= (1 - slack) tol max(||m||_F / sqrt(n), 1) and fails for
    certain when ||d||_F / sqrt(n) > (1 + slack) tol max(||m||_F, 1).
    Only the rows between the two, and the rows whose Frobenius norm
    overflows, go to ``_operator_norms``, so the verdict is the SVD's on
    every row.
    """
    n = d.shape[-1]
    slack, root_n = n * _UNDERFLOW, np.sqrt(n)
    # an overflowing (or empty) row gives inf or NaN here and goes to the band
    with np.errstate(all="ignore"):
        fro_d = np.linalg.norm(d, axis=(-2, -1))
        fro_m = np.linalg.norm(m, axis=(-2, -1))
        passes = fro_d + slack <= (1 - _CERT_SLACK) * tol * np.maximum(fro_m / root_n, 1.0)
        fails = (fro_d - slack) / root_n > (1 + _CERT_SLACK) * tol * np.maximum(fro_m, 1.0)
    finite = np.isfinite(fro_d) & np.isfinite(fro_m)
    out = fails & finite
    band = ~(finite & (passes | fails))
    if band.any():
        out[band] = _operator_norms(d[band]) > tol * np.maximum(_operator_norms(m[band]), 1.0)
    return out


def _not_selfadjoint(m: np.ndarray, tol: float) -> np.ndarray:
    """The one self-adjointness gate: flags each row of a (S, n, n) stack m
    whose m - m* overflows or _exceeds tol max(||m||, 1)."""
    with np.errstate(over="ignore"):
        d = m - m.conj().swapaxes(-1, -2)
    overflow = ~np.isfinite(d).all(axis=(1, 2))
    d[overflow] = 0
    return overflow | _exceeds(d, m, tol)


def operator_norm(a) -> float:
    """Largest singular value of the matrix (the C* norm)."""
    m = a.entries[None] if isinstance(a, AlgebraElement) else _as_stack([a])
    return float(_operator_norms(m)[0])


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """AB - BA."""
    a._check_dim(b)
    return AlgebraElement(a.entries @ b.entries - b.entries @ a.entries)


@dataclass(frozen=True)
class ElementFlags:
    selfadjoint: bool
    normal: bool
    unitary: bool
    positive: bool


def classify(a: AlgebraElement, tol: float = DEFAULT_TOL) -> ElementFlags:
    """Test the defining identities of self-adjoint / normal / unitary /
    positive elements by _exceeds, within tol max(||m||, 1) in operator norm,
    or tol max(||m m*||, 1) for m m* - m* m and m m* - 1. An m with an entry
    of 2^500 or more is first scaled by the power of two 2^-s that brings its
    largest entry into [1, 2), so that m m* cannot overflow: ||m|| >= 1 before
    and after, every bound is homogeneous, and the unitary row is m m* - 2^-2s 1."""
    if not 0 < tol:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    m = a.entries
    s = int(np.frexp(np.abs(m).max())[1]) - 1  # the largest entry lies in [2^s, 2^(s+1))
    m, s = (m * 2.0**-s, s) if s >= 500 else (m, 0)
    sa = not _not_selfadjoint(m[None], tol)[0]
    # ||m m*|| = ||m||^2 scales the normal and unitary rows; the positive row
    # is the part of the Hermitian part's spectrum below zero
    below = np.zeros_like(m)
    below[0, 0] = max(-_lapack("eigvalsh", _hermitian_part(m))[0], 0.0)
    mh = m.conj().T
    mm = m @ mh
    nrm, uni, neg = _exceeds(np.stack([mm - mh @ m, mm - np.eye(a.dim) * 2.0**(-2 * s), below]),
                             np.stack([mm, mm, m]), tol)
    return ElementFlags(selfadjoint=sa, normal=not nrm, unitary=not uni, positive=sa and not neg)


@dataclass(frozen=True)
class AlgebraBasis:
    """Ordered, Frobenius-orthonormal basis of a matrix subalgebra.

    Produced by :func:`generate_algebra`; the span then contains the
    identity and is closed under adjoints and products.
    """

    dim: int
    elements: tuple
    tol: float = field(default=DEFAULT_TOL)

    def __len__(self):
        return len(self.elements)

    def matrices(self) -> np.ndarray:
        """Stack of basis matrices, shape (len, dim, dim)."""
        return np.stack([e.entries for e in self.elements])

    def coefficients(self, m: np.ndarray) -> np.ndarray:
        """Expansion coefficients of ``m`` in the (orthonormal) basis."""
        stack = self.matrices()
        return np.einsum("kij,ij->k", stack.conj(), m)


def _orthonormal_rows(rows: np.ndarray, rel_tol: float) -> np.ndarray:
    """Orthonormal basis of the row space, rank cut at rel_tol * s_max."""
    _, s, vh = _svd(rows)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    return vh[s > rel_tol * s[0]]


def generate_algebra(generators, tol: float = DEFAULT_TOL) -> AlgebraBasis:
    """Basis of the unital *-algebra generated by the given elements.

    Starts from the identity, the generators and their adjoints, then
    alternates pairwise products with rank-revealing orthonormalization
    (Frobenius inner product) until the dimension stabilizes. Terminates
    because the dimension is bounded by dim**2.
    """
    gens = list(generators)
    if not gens:
        raise InvalidInputError("need at least one generator")
    # the rank cut keeps the rows above tol s_max, none of them for tol >= 1
    if not 0 < tol < 1:
        raise InvalidInputError(f"tol must lie in (0, 1), got {tol}")
    n = gens[0].dim
    for g in gens:
        if g.dim != n:
            raise DimensionMismatchError("generators must share one dimension")

    seed = [np.eye(n)]
    for g in gens:
        seed.append(g.entries)
        seed.append(g.entries.conj().T)
    rows = np.stack([m.ravel() for m in seed])
    basis = _orthonormal_rows(rows, tol)

    while True:
        mats = basis.reshape(-1, n, n)
        prods = np.einsum("aij,bjk->abik", mats, mats).reshape(-1, n * n)
        adjs = mats.conj().transpose(0, 2, 1).reshape(-1, n * n)
        new_basis = _orthonormal_rows(np.vstack([basis, adjs, prods]), tol)
        if new_basis.shape[0] == basis.shape[0] or basis.shape[0] == n * n:
            basis = new_basis
            break
        basis = new_basis

    elements = tuple(AlgebraElement(v.reshape(n, n)) for v in basis)
    return AlgebraBasis(dim=n, elements=elements, tol=tol)


def is_commutative(basis: AlgebraBasis, tol: float = DEFAULT_TOL) -> bool:
    """True iff all pairwise commutators vanish within ``tol``."""
    mats = basis.matrices()
    for i in range(len(mats) - 1):
        rest = mats[i + 1:]
        if (_operator_norms(mats[i] @ rest - rest @ mats[i]) >= tol).any():
            return False
    return True
