"""GNS construction for states on finite-dimensional matrix *-algebras,
plus commutants, irreducibility, and intertwiner search.

The construction works on an orthonormal, multiplicatively closed
:class:`~cstarmech.algebra.AlgebraBasis` (build one with
``generate_algebra``). A state enters abstractly, as its values on the basis
elements; the Gram matrix G_jk = omega(A_j* A_k) then determines the
Hilbert space as the quotient of the coefficient space by the null space
of G.

Every Sylvester solve is one ``_sylvester_null`` call, restricted to the
eigen-block pairs that ``_restriction`` finds (Murota, Kanno, Kojima &
Kojima, Japan J. Indust. Appl. Math. 27, 2010): for the commutant through
the rho_j whose adjoints it must also commute with (Fuglede's theorem;
Putnam, Amer. J. Math. 73, 1951), for the intertwiner space through every
rho_j, since a unitary intertwiner also intertwines the adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraBasis,
    AlgebraElement,
    _as_stack,
    _hermitian_part,
    _lapack,
    _not_selfadjoint,
    _operator_norms,
    _orthonormal_rows,
    _svd,
    operator_norm,
)
from .errors import ClosureError, InvalidInputError, InvalidStateError
from .spectral import _clusters
from .states import DensityState

__all__ = [
    "AbstractState",
    "GnsResult",
    "structure_tensor",
    "gns_construct",
    "commutant",
    "is_irreducible",
    "find_intertwiner",
]


def structure_tensor(basis: AlgebraBasis, tol: float = 1e-10) -> np.ndarray:
    """Coefficients P[l, j, k] of A_j A_k = sum_l P[l,j,k] A_l.

    Raises ClosureError if some product leaves the span by more than tol.
    """
    mats = basis.matrices()
    d = len(basis)
    prods = np.einsum("jab,kbc->jkac", mats, mats)
    coeffs = np.einsum("lab,jkab->ljk", mats.conj(), prods)
    recon = coeffs.reshape(d, d * d).T @ mats.reshape(d, -1)  # row jk: sum_l P[l,j,k] A_l
    err = float(np.sqrt((np.abs(prods.reshape(d * d, -1) - recon) ** 2).sum(axis=1)).max())
    if err > max(tol, 1e-10) * 10:
        raise ClosureError(
            f"basis is not multiplicatively closed (residual {err:.2e}); "
            "run generate_algebra first"
        )
    return coeffs


@dataclass(frozen=True)
class AbstractState:
    """A state given by its values on the elements of an AlgebraBasis."""

    basis: AlgebraBasis
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (len(self.basis),):
            raise InvalidInputError("need one value per basis element")
        object.__setattr__(self, "values", v)
        ident = self.basis.coefficients(np.eye(self.basis.dim))
        val_ident = complex(ident @ v)
        if abs(val_ident - 1.0) > 1e-10:
            raise InvalidStateError(f"omega(1) = {val_ident}, expected 1")

    @classmethod
    def from_density(cls, basis: AlgebraBasis, omega: DensityState) -> "AbstractState":
        if omega.dim != basis.dim:
            raise InvalidInputError("state and basis dimensions differ")
        vals = np.einsum("ab,kba->k", omega.b, basis.matrices())
        return cls(basis=basis, values=vals)

    def is_pure(self, tol: float = 1e-10) -> bool:
        """True iff the state is pure on the algebra its basis spans.

        The basis is Frobenius-orthonormal, so E = sum_k conj(omega(A_k)) A_k
        is the state's density inside the algebra: omega(A) = tr(E A) there.
        The state is pure iff E = c p for a projection p that is minimal in
        the algebra, i.e. span{p A_k p} is one-dimensional. On all of M_n
        this says that the density matrix is a rank-one projection.
        """
        mats = self.basis.matrices()
        e = np.einsum("k,kab->ab", self.values.conj(), mats)
        evals, evecs = _lapack("eigh", _hermitian_part(e))
        top = evals[-1]
        support = evals > tol * top
        if np.any(top - evals[support] > tol * top):
            return False  # E is not a multiple of a projection
        v = evecs[:, support]
        # span{p A_k p} has the dimension of span{V* A_k V}, p = V V*
        comp = np.einsum("ai,kab,bj->kij", v.conj(), mats, v).reshape(len(mats), -1)
        s = _svd(comp, compute_uv=False)
        return s.size < 2 or s[1] <= tol * s[0]

    def gram(self, struct: np.ndarray | None = None) -> np.ndarray:
        """G_jk = omega(A_j* A_k), computed through the structure tensor."""
        basis = self.basis
        if struct is None:
            struct = structure_tensor(basis, basis.tol)
        mats = basis.matrices()
        # A_j* = sum_m s[j, m] A_m
        s = np.einsum("mab,jba->jm", mats.conj(), mats.conj())
        # omega(A_m A_k) = sum_l P[l,m,k] omega(A_l)
        prod_vals = np.einsum("lmk,l->mk", struct, self.values)
        return np.einsum("jm,mk->jk", s, prod_vals)


@dataclass(frozen=True)
class GnsResult:
    """Output of the GNS construction.

    rep[j] represents the j-th basis element on the quotient Hilbert space;
    quotient_map sends algebra coefficient vectors to Hilbert coordinates,
    and cyclic_vector is the image of the identity.
    """

    hilbert_dim: int
    rep: tuple
    cyclic_vector: np.ndarray
    quotient_map: np.ndarray
    gram_rank_tol: float

    def represent(self, coeffs: np.ndarray) -> np.ndarray:
        """Representation matrix of sum_j coeffs_j A_j."""
        return sum(c * r for c, r in zip(coeffs, self.rep))


def gns_construct(omega: AbstractState) -> GnsResult:
    """Run the GNS construction for a state on a closed algebra basis.

    The Hilbert space is the range of the Gram matrix above the rank
    threshold max(1e-10 lambda_max, 1e-14); left multiplication descends to
    the quotient and the class of the identity is the cyclic vector. The
    Gram matrix must be Hermitian within 1e-10 max(||G||, 1), by algebra's
    self-adjointness gate.
    """
    basis = omega.basis
    struct = structure_tensor(basis, basis.tol)
    g = omega.gram(struct)
    if _not_selfadjoint(g[None], 1e-10)[0]:
        skew = operator_norm(g - g.conj().T)
        raise InvalidStateError(f"Gram matrix not Hermitian (error {skew:.2e})")
    evals, evecs = _lapack("eigh", _hermitian_part(g))
    scale = max(evals.max(), 0.0)
    threshold = max(1e-10 * scale, 1e-14)
    if evals.min() < -threshold:
        raise InvalidStateError(
            f"state is not positive: Gram eigenvalue {evals.min():.2e}"
        )
    keep = evals > threshold
    hdim = int(keep.sum())
    if hdim == 0:
        raise InvalidStateError("Gram matrix has rank zero")
    w = evecs[:, keep]
    d_half = np.sqrt(evals[keep])

    # quotient map Q: coefficient space -> Hilbert coordinates,
    # <Qc1, Qc2> = c1* G c2; pseudo-inverse lifts back.
    q = d_half[:, None] * w.conj().T
    q_pinv = w / d_half[None, :]

    rep = tuple(q @ struct[:, j, :] @ q_pinv for j in range(len(basis)))

    ident = basis.coefficients(np.eye(basis.dim))
    psi = q @ ident
    # fix the global phase: first significant coordinate real positive
    nz = np.flatnonzero(np.abs(psi) > 1e-12 * max(np.linalg.norm(psi), 1.0))
    if nz.size:
        phase = psi[nz[0]] / abs(psi[nz[0]])
        # a global phase on the quotient map leaves the rep matrices intact
        q = q / phase
        psi = psi / phase
    return GnsResult(
        hilbert_dim=hdim,
        rep=rep,
        cyclic_vector=psi,
        quotient_map=q,
        gram_rank_tol=threshold,
    )


def _null_space(stack: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal null vectors of ``stack``, one per row.

    These are the right singular vectors with s <= tol * max(s_max, 1),
    plus the directions a wide stack leaves unconstrained. A tall stack is
    first reduced to its R factor, which has the same singular values and
    right singular vectors.
    """
    # full right singular basis is only needed when the stack is wide
    full = stack.shape[0] < stack.shape[1]
    if not full:
        stack = _lapack("qr", stack, mode="r")
    _, s, vh = _svd(stack, full_matrices=full)
    scale = max(s[0] if s.size else 0.0, 1.0)
    null_mask = np.concatenate([s <= tol * scale, np.ones(vh.shape[0] - s.size, bool)])
    return vh[null_mask].conj()


def _sylvester_null(left, right, tol: float, z, pairs) -> np.ndarray:
    """Orthonormal basis, as an (r, h, h) stack, of the M with
    right_j M = M left_j for every j of two (k, h, h) stacks.

    M = Zr X Zl* for ``z = (Zl, Zr)``, with X supported on the index pairs
    ``pairs = (a, b)``. Column p of the stacked system is
    right~_j E_ab - E_ab left~_j, with right~ = Zr* right Zr, left~ = Zl* left Zl.
    """
    (zl, zr), (a, b) = z, pairs
    k, h = left.shape[:2]
    left, right = zl.conj().T @ left @ zl, zr.conj().T @ right @ zr
    col = np.arange(a.size)
    stack = np.zeros((k, h, h, a.size), dtype=complex)
    stack[:, :, b, col] = right[:, :, a]  # right E_ab: column b is right's column a
    stack[:, a, :, col] -= left[:, b, :].swapaxes(0, 1)  # E_ab left: row a is left's row b
    null = _null_space(stack.reshape(k * h * h, a.size), tol)
    x = np.zeros((len(null), h, h), dtype=complex)
    x[:, a, b] = null
    return zr @ x @ zl.conj().T


def _restriction(left, right, flag):
    """Eigenbases z = (Zl, Zr) of generic Hermitian xl, xr with M xl = xr M
    for every M sought, and the index pairs (a, b) with eigenvalue a of xr
    and b of xl in one cluster.

    xl = sum_j flag_j (c_j left_j + h.c.) with seeded random c_j, and xr
    the same on right_j: every M sought must have right_j* M = M left_j*
    for each flagged j. The 2h eigenvalues are clustered together by
    spectral._clusters(., 1e-8), which errs toward merging and so only
    costs time; with nothing flagged, x = 0 and every pair is returned.
    """
    rng = np.random.default_rng(0)
    c = (rng.standard_normal(len(flag)) + 1j * rng.standard_normal(len(flag))) * flag
    x = np.stack([np.tensordot(c, m, axes=1) for m in (left, right)])
    evals, z = _lapack("eigh", x + x.conj().transpose(0, 2, 1))
    labels = np.empty(evals.size, dtype=int)
    for k, members in enumerate(_clusters(evals.ravel(), 1e-8)):
        labels[members] = k
    lab_l, lab_r = labels.reshape(evals.shape)
    return z, np.nonzero(lab_r[:, None] == lab_l[None, :])


def commutant(rep, tol: float = 1e-10) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of {M : M rho_j = rho_j M for all j}.

    Always contains the identity direction. It is the Sylvester null space
    of all rep matrices, restricted through the rho_j whose adjoint every
    member also commutes with: the normal ones (Fuglede's theorem) and
    those whose adjoint lies in the span of the rep.
    """
    mats = _as_stack(rep)
    adj = mats.conj().transpose(0, 2, 1)
    fro = np.maximum(np.linalg.norm(mats, axis=(1, 2)), 1.0)
    dev = np.linalg.norm(mats @ adj - adj @ mats, axis=(1, 2))
    rows = _orthonormal_rows(mats.reshape(len(mats), -1), 1e-12)  # basis of the span
    adj_rows = adj.reshape(len(mats), -1)
    off_span = np.linalg.norm(adj_rows - (adj_rows @ rows.conj().T) @ rows, axis=1)
    flag = (dev <= 1e-12 * fro**2) | (off_span <= 1e-12 * fro)
    return list(_sylvester_null(mats, mats, tol, *_restriction(mats, mats, flag)))


def is_irreducible(rep, tol: float = 1e-10) -> bool:
    """True iff the commutant is trivial (dimension one)."""
    return len(commutant(rep, tol)) == 1


def find_intertwiner(rep1, rep2, tol: float = 1e-8, map_vector=None):
    """Unitary U with U rho1_j = rho2_j U for all j, or None.

    The candidates are a basis of the Sylvester null space of the pair,
    restricted to M rho1_j* = rho2_j* M as well (which every unitary
    intertwiner satisfies, and which drops the members that could hide one
    on input that is not *-closed), and one seeded combination of it. If
    map_vector=(v_from, v_to) is given, the one candidate is the member of
    that space that best satisfies U v_from = v_to in the least-squares
    sense (the uniqueness clause for cyclic vectors). A candidate's unitary
    polar factor is returned once it intertwines and maps v_from to v_to.
    """
    m1, m2 = _as_stack(rep1), _as_stack(rep2)
    if len(m1) != len(m2):
        raise InvalidInputError("representations must share the basis indexing")
    if m1.shape[1] != m2.shape[1]:
        return None
    null = _sylvester_null(m1, m2, tol, *_restriction(m1, m2, np.ones(len(m1), bool)))
    scale = max(_operator_norms(np.concatenate([m1, m2])).max(), 1.0)

    if map_vector is not None:
        v_from, v_to = (np.asarray(v, dtype=complex).ravel() for v in map_vector)
        coef, *_ = _lapack("lstsq", (null @ v_from).T, v_to, rcond=None)
        candidates = [np.tensordot(coef, null, axes=1)]
    else:
        candidates = list(null)
        if len(null) > 1:
            rng = np.random.default_rng(0)
            coef = rng.standard_normal(len(null)) + 1j * rng.standard_normal(len(null))
            candidates.append(np.tensordot(coef, null, axes=1))

    for u0 in candidates:
        uu, sv, vvh = _svd(u0)
        if sv[0] == 0.0 or sv[-1] <= tol * sv[0]:
            continue  # singular: not invertible, no unitary polar factor
        u = uu @ vvh
        resid = _operator_norms(u @ m1 - m2 @ u).max()
        if resid > tol * scale:
            continue
        if map_vector is None or np.linalg.norm(u @ v_from - v_to) <= tol * max(
            np.linalg.norm(v_to), 1.0
        ):
            return u
    return None
