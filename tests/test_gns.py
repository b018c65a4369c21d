import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarmech import gns
from cstarmech.algebra import AlgebraBasis, AlgebraElement, generate_algebra, operator_norm
from cstarmech.errors import ClosureError, InvalidInputError, InvalidStateError
from cstarmech.gns import (
    AbstractState,
    commutant,
    find_intertwiner,
    gns_construct,
    is_irreducible,
    structure_tensor,
)
from cstarmech.sampling import random_density, random_selfadjoint, random_unitary
from cstarmech.states import DensityState, expectation, from_vector, is_pure
from cstarmech.weyl import clock_shift

from conftest import SX, SY, SZ, random_generators


def full_matrix_basis(n, rng=None):
    gens = [AlgebraElement(SX), AlgebraElement(SY)] if n == 2 else None
    if gens is None:
        r = np.random.default_rng(7) if rng is None else rng
        gens = [
            AlgebraElement(
                (lambda m: (m + m.conj().T) / 2)(
                    r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
                )
            )
            for _ in range(2)
        ]
    basis = generate_algebra(gens)
    assert len(basis) == n * n
    return basis


@functools.cache
def full_basis(n):
    """A basis of all of M_n from fixed generators, built once per n."""
    return full_matrix_basis(n)


def gns_from_density(basis, omega):
    return gns_construct(AbstractState.from_density(basis, omega))


class TestStructureTensor:
    def test_closed_basis(self):
        basis = full_matrix_basis(2)
        struct = structure_tensor(basis)
        mats = basis.matrices()
        recon = np.einsum("ljk,lab->jkab", struct, mats)
        prods = np.einsum("jab,kbc->jkac", mats, mats)
        np.testing.assert_allclose(recon, prods, atol=1e-12)

    def test_rejects_unclosed_span(self):
        # span{I, sx} is not closed under sx @ sz ... use {I, upper shift}
        e = AlgebraElement([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        basis = AlgebraBasis(
            dim=3,
            elements=(AlgebraElement.identity(3) * (1 / np.sqrt(3)), e * (1 / np.sqrt(2))),
        )
        with pytest.raises(ClosureError):
            structure_tensor(basis)


class TestAbstractState:
    def test_from_density_values(self):
        basis = full_matrix_basis(2)
        omega = DensityState(np.diag([1.0, 0.0]))
        st = AbstractState.from_density(basis, omega)
        for el, val in zip(basis.elements, st.values):
            assert val == pytest.approx(expectation(omega, el), abs=1e-12)

    def test_rejects_unnormalized(self):
        basis = full_matrix_basis(2)
        st = AbstractState.from_density(basis, DensityState.maximally_mixed(2))
        with pytest.raises(InvalidStateError):
            AbstractState(basis, 2.0 * st.values)

    def test_gram_hermitian_psd(self, rng):
        basis = full_matrix_basis(3, rng)
        st = AbstractState.from_density(basis, random_density(rng, 3))
        g = st.gram()
        np.testing.assert_allclose(g, g.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh((g + g.conj().T) / 2).min() > -1e-10


class TestGnsDimensions:
    def test_pure_state_on_m2_gives_dim_2(self):
        basis = full_matrix_basis(2)
        res = gns_from_density(basis, DensityState(np.diag([1.0, 0.0])))
        assert res.hilbert_dim == 2

    def test_tracial_state_on_m2_gives_dim_4(self):
        basis = full_matrix_basis(2)
        res = gns_from_density(basis, DensityState.maximally_mixed(2))
        assert res.hilbert_dim == 4

    def test_trivial_algebra_gives_dim_1(self):
        basis = generate_algebra([AlgebraElement.identity(3)])
        assert len(basis) == 1
        res = gns_from_density(basis, DensityState.maximally_mixed(3))
        assert res.hilbert_dim == 1

    def test_refuses_a_state_that_is_not_positive(self):
        # omega(A) = tr(diag(1.5, -0.5) A) on the diagonal algebra: unit
        # trace, but omega(E_22* E_22) = -0.5
        basis = generate_algebra([AlgebraElement(np.diag([1.0, -1.0]))])
        values = np.einsum("ab,kba->k", np.diag([1.5, -0.5]), basis.matrices())
        with pytest.raises(InvalidStateError, match=r"^state is not positive: Gram eigenvalue -5.00e-01$"):
            gns_construct(AbstractState(basis, values))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dim_equals_n_times_rank(self, n, rng):
        basis = full_matrix_basis(n, rng)
        for rank in range(1, n + 1):
            omega = random_density(rng, n, rank=rank)
            res = gns_from_density(basis, omega)
            assert res.hilbert_dim == n * rank


class TestGnsInvariants:
    def test_reconstruction(self, rng):
        for n in (2, 3):
            basis = full_matrix_basis(n, rng)
            omega = random_density(rng, n)
            st = AbstractState.from_density(basis, omega)
            res = gns_construct(st)
            psi = res.cyclic_vector
            for j, val in enumerate(st.values):
                got = complex(psi.conj() @ res.rep[j] @ psi)
                assert got == pytest.approx(val, abs=1e-9)

    def test_cyclic_vector_unit(self, rng):
        basis = full_matrix_basis(2)
        res = gns_from_density(basis, random_density(rng, 2))
        assert np.linalg.norm(res.cyclic_vector) == pytest.approx(1.0, abs=1e-10)

    def test_rep_is_star_homomorphism(self, rng):
        basis = full_matrix_basis(2)
        res = gns_from_density(basis, random_density(rng, 2))
        struct = structure_tensor(basis)
        reps = [np.asarray(r) for r in res.rep]
        # products map correctly
        for j in range(len(basis)):
            for k in range(len(basis)):
                target = sum(struct[l, j, k] * reps[l] for l in range(len(basis)))
                np.testing.assert_allclose(reps[j] @ reps[k], target, atol=1e-9)
        # identity maps to the identity
        ident = basis.coefficients(np.eye(2))
        np.testing.assert_allclose(
            res.represent(ident), np.eye(res.hilbert_dim), atol=1e-9
        )

    def test_rep_preserves_adjoints(self, rng):
        basis = full_matrix_basis(3, rng)
        res = gns_from_density(basis, random_density(rng, 3))
        a = random_selfadjoint(rng, 3)
        mat = res.represent(basis.coefficients(a.entries))
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-9)

    def test_rep_is_norm_contraction(self, rng):
        basis = full_matrix_basis(3, rng)
        res = gns_from_density(basis, random_density(rng, 3))
        for _ in range(10):
            a = random_selfadjoint(rng, 3)
            rep_norm = operator_norm(res.represent(basis.coefficients(a.entries)))
            assert rep_norm <= operator_norm(a) + 1e-8

    def test_cyclicity(self, rng):
        basis = full_matrix_basis(2)
        res = gns_from_density(basis, DensityState.maximally_mixed(2))
        orbit = np.stack([np.asarray(r) @ res.cyclic_vector for r in res.rep], axis=1)
        assert np.linalg.matrix_rank(orbit, tol=1e-10) == res.hilbert_dim


class TestCommutant:
    def test_full_matrix_rep_trivial(self):
        assert len(commutant([SX, SY, SZ, np.eye(2)])) == 1

    def test_scalar_rep_full_commutant(self):
        assert len(commutant([np.eye(2)])) == 4

    def test_diagonal_rep(self):
        assert len(commutant([np.diag([1.0, 2.0]).astype(complex)])) == 2

    def test_members_commute(self, rng):
        rep = [np.diag([1.0, 1.0, 3.0]).astype(complex)]
        for m in commutant(rep):
            for r in rep:
                np.testing.assert_allclose(m @ r, r @ m, atol=1e-9)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_refuses_non_finite_entries(self, count):
        rep = [np.eye(2, dtype=complex) for _ in range(count)]
        rep[-1] = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError, match="finite"):
            commutant(rep)

    def test_clock_shift_irreducible(self):
        for n in (2, 3, 8):
            pair = clock_shift(n)
            assert is_irreducible([pair.U, pair.V])


def full_stack_dim(rep, tol=1e-10):
    """Commutant dimension from the plain Sylvester stack of every rep
    matrix: singular values s <= tol * max(s_max, 1) of the stacked
    M -> rho_j M - M rho_j in column-major vec."""
    h = rep[0].shape[0]
    eye = np.eye(h)
    stack = np.vstack([np.kron(eye, r) - np.kron(r.T, eye) for r in rep])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s <= tol * max(s[0], 1.0)))


@pytest.fixture
def builder_calls(monkeypatch):
    """Arguments of every gns._sylvester_null call."""
    calls = []
    real = gns._sylvester_null

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gns, "_sylvester_null", spy)
    return calls


def commutant_input(rng, rep, n, count, form):
    """The rep itself, or a set the restriction must not split: a proper
    subset of it (not *-closed), random non-normal matrices, strictly upper
    triangular ones, or one normal matrix with repeated eigenvalues beside
    non-normal ones, generic or block diagonal in its eigenbasis."""
    if form == "rep":
        return rep
    if form == "subset":
        size = int(rng.integers(1, len(rep))) if len(rep) > 1 else 1
        return [rep[i] for i in rng.choice(len(rep), size=size, replace=False)]
    mats = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    if form == "nonnormal":
        return list(mats)
    if form == "nilpotent":
        return list(np.triu(mats, 1))
    u = random_unitary(rng, n)
    d = rng.integers(0, 3, n).astype(float)
    if form == "normal_and_blocks":
        mats = u @ ((d[:, None] == d[None, :]) * mats) @ u.conj().T
    return [u @ np.diag(d) @ u.conj().T, *mats]


class TestCommutantPaths:
    @settings(max_examples=60)
    @given(
        n=st.integers(2, 5),
        rank_frac=st.floats(0.0, 1.0),
        count=st.integers(1, 3),
        kind=st.sampled_from(["full", "commuting", "blocks"]),
        form=st.sampled_from(
            ["rep", "subset", "nonnormal", "nilpotent", "normal_and_generic", "normal_and_blocks"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_stack(self, n, rank_frac, count, kind, form, seed):
        rng = np.random.default_rng(seed)
        rank = 1 + int(rank_frac * (n - 1) + 0.5)
        basis = generate_algebra(random_generators(rng, n, count, kind))
        res = gns_from_density(basis, random_density(rng, n, rank=rank))
        rep = commutant_input(rng, [np.asarray(r) for r in res.rep], n, count, form)
        got = commutant(rep)
        assert len(got) == full_stack_dim(rep)
        for m in got:
            for r in rep:
                scale = max(1.0, np.linalg.norm(r, 2))
                np.testing.assert_allclose(m @ r, r @ m, atol=1e-9 * scale)

    def test_unrestricted_when_nothing_is_flagged(self, builder_calls):
        # span{E_12, E_13, E_14}: no member is normal and no adjoint lies in
        # the span, so the one builder call runs on all 16 index pairs
        rep = []
        for j in (1, 2, 3):
            e = np.zeros((4, 4), dtype=complex)
            e[0, j] = 1.0
            rep.append(e)
        got = commutant(rep)
        (args,) = builder_calls
        assert len(args[0]) == 3 and len(args[4][0]) == 16
        assert len(got) == full_stack_dim(rep) == 4
        for m in got:
            for r in rep:
                np.testing.assert_allclose(m @ r, r @ m, atol=1e-12)

    def test_gns_rep_restricted_to_blocks(self, rng, builder_calls):
        # a rank-2 state on M_3: rep = 1_2 (x) M_3 in some basis, so a generic
        # Hermitian rep element has three double eigenvalues: 12 of 36 pairs
        basis = full_matrix_basis(3, rng)
        res = gns_from_density(basis, random_density(rng, 3, rank=2))
        found = commutant(res.rep)
        (args,) = builder_calls
        assert len(args[0]) == 9 and len(args[4][0]) == 12
        assert len(found) == full_stack_dim(res.rep) == 4
        flat = np.stack([m.ravel() for m in found])
        np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(4), atol=1e-12)


gns_cases = dict(
    n=st.integers(2, 4),
    rank_frac=st.floats(0.0, 1.0),
    count=st.integers(1, 3),
    kind=st.sampled_from(["full", "commuting", "blocks"]),
    seed=st.integers(0, 2**32 - 1),
)


def random_case(n, rank_frac, count, kind, seed):
    """A random algebra of the given kind and a state of random rank on it."""
    rng = np.random.default_rng(seed)
    basis = generate_algebra(random_generators(rng, n, count, kind))
    rank = 1 + int(rank_frac * (n - 1) + 0.5)
    return rng, basis, AbstractState.from_density(basis, random_density(rng, n, rank=rank))


class TestGnsProperties:
    """GNS reconstruction and the *-homomorphism property on random
    algebras, checked against plain-numpy coefficients of A_j* and A_j A_k
    (every basis element has Frobenius norm 1, so ||pi(A_j)|| <= 1)."""

    @settings(max_examples=25)
    @given(**gns_cases)
    def test_reconstruction(self, **case):
        _, _, omega = random_case(**case)
        res = gns_construct(omega)
        psi, rep = res.cyclic_vector, np.stack(res.rep)
        got = np.einsum("a,jab,b->j", psi.conj(), rep, psi)
        np.testing.assert_allclose(got, omega.values, rtol=0, atol=1e-9)

    @settings(max_examples=25)
    @given(**gns_cases)
    def test_star_homomorphism(self, **case):
        _, basis, omega = random_case(**case)
        rep = np.stack(gns_construct(omega).rep)
        mats = basis.matrices()
        adj = np.einsum("mab,jba->jm", mats.conj(), mats.conj())  # A_j* = sum_m adj_jm A_m
        prod = np.einsum("lab,jac,kcb->ljk", mats.conj(), mats, mats)  # P_ljk
        np.testing.assert_allclose(rep.conj().transpose(0, 2, 1),
                                   np.einsum("jm,mab->jab", adj, rep), rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.einsum("jab,kbc->jkac", rep, rep),
                                   np.einsum("ljk,lac->jkac", prod, rep), rtol=0, atol=1e-8)

    @settings(max_examples=40)
    @given(eigenvector=st.booleans(), **gns_cases)
    def test_purity_iff_irreducibility(self, eigenvector, **case):
        # an eigenvector of a generic self-adjoint element of the algebra lies
        # under one of its minimal projections: a pure state on the algebra
        rng, basis, omega = random_case(**case)
        if eigenvector:
            c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            b = np.tensordot(c, basis.matrices(), axes=1)
            v = np.linalg.eigh(b + b.conj().T)[1][:, 0]
            omega = AbstractState.from_density(basis, from_vector(v))
        res = gns_construct(omega)
        assert omega.is_pure() == is_irreducible(res.rep)
        assert omega.is_pure() == (full_stack_dim(res.rep) == 1)


class TestAlgebraPurity:
    def test_vector_state_on_diagonals_is_mixed(self):
        basis = generate_algebra([AlgebraElement(SZ)])
        plus = from_vector(np.array([1.0, 1.0]) / np.sqrt(2))
        assert is_pure(plus)
        assert not AbstractState.from_density(basis, plus).is_pure()

    def test_basis_vector_state_on_diagonals_is_pure(self):
        basis = generate_algebra([AlgebraElement(SZ)])
        assert AbstractState.from_density(basis, from_vector([1.0, 0.0])).is_pure()

    def test_matches_density_purity_on_full_algebra(self, rng):
        basis = full_matrix_basis(3, rng)
        for rank in (1, 2, 3):
            omega = random_density(rng, 3, rank=rank)
            assert AbstractState.from_density(basis, omega).is_pure() == is_pure(omega)
        tracial = DensityState.maximally_mixed(3)
        assert not AbstractState.from_density(basis, tracial).is_pure()

    @settings(max_examples=100)
    @given(
        n=st.integers(2, 5),
        form=st.sampled_from(["pure", "rank", "mixture"]),
        rank_frac=st.floats(0.0, 1.0),
        # log10 of the mixture weight, outside the tolerance band [1e-11, 1e-9]
        log_eps=st.one_of(st.floats(-16.0, -11.5), st.floats(-8.5, np.log10(0.5))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_density_purity(self, n, form, rank_frac, log_eps, seed):
        rng = np.random.default_rng(seed)
        if form == "pure":
            omega = from_vector(random_unitary(rng, n)[:, 0])
        elif form == "rank":
            omega = random_density(rng, n, rank=1 + int(rank_frac * (n - 1) + 0.5))
        else:  # (1 - eps)|psi><psi| + eps|phi><phi|, phi orthogonal to psi
            psi, phi = random_unitary(rng, n)[:, :2].T
            eps = 10.0**log_eps
            omega = DensityState((1 - eps) * np.outer(psi, psi.conj())
                                 + eps * np.outer(phi, phi.conj()))
        state = AbstractState.from_density(full_basis(n), omega)
        assert state.is_pure() == is_pure(omega)

    def test_matches_irreducibility_on_a_non_factor(self, rng):
        # M_2 + M_1: a vector state is pure exactly when it lives in one block
        gens = []
        for corner in (5.0, 0.0):
            g = np.zeros((3, 3), dtype=complex)
            g[:2, :2] = random_selfadjoint(rng, 2).entries
            g[2, 2] = corner
            gens.append(AlgebraElement(g))
        basis = generate_algebra(gens)
        assert len(basis) == 5
        cases = {(1, 0, 0): True, (0, 0, 1): True, (1, 1, 0): True, (1, 0, 1): False}
        for vec, pure in cases.items():
            v = np.array(vec) / np.linalg.norm(vec)
            omega = AbstractState.from_density(basis, from_vector(v))
            assert omega.is_pure() == pure
            assert is_irreducible(gns_construct(omega).rep) == pure
        omega = AbstractState.from_density(basis, random_density(rng, 3, rank=2))
        assert not omega.is_pure() and not is_irreducible(gns_construct(omega).rep)


class TestPurityIrreducibility:
    def test_pure_gives_irreducible(self, rng):
        basis = full_matrix_basis(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        res = gns_from_density(basis, from_vector(v / np.linalg.norm(v)))
        assert is_irreducible(res.rep)

    def test_mixed_gives_reducible(self, rng):
        basis = full_matrix_basis(2)
        res = gns_from_density(basis, DensityState(np.diag([0.7, 0.3])))
        assert not is_irreducible(res.rep)

    def test_equivalence_over_random_states(self, rng):
        basis = full_matrix_basis(3, rng)
        for _ in range(10):
            rank = int(rng.integers(1, 4))
            omega = random_density(rng, 3, rank=rank)
            res = gns_from_density(basis, omega)
            assert is_irreducible(res.rep) == is_pure(omega)


def assert_unitary_intertwiner(u, rep1, rep2):
    assert u is not None
    np.testing.assert_allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-10)
    scale = max(1.0, max(np.linalg.norm(r, 2) for r in [*rep1, *rep2]))
    for a, b in zip(rep1, rep2):
        np.testing.assert_allclose(u @ a, b @ u, atol=1e-8 * scale)


class TestIntertwiner:
    def test_identity_rep_pair(self):
        rep = [SX, SY]
        u = find_intertwiner(rep, rep)
        assert u is not None
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-10)

    def test_conjugated_pair(self, rng):
        w = random_unitary(rng, 3)
        rep1 = [random_selfadjoint(rng, 3).entries for _ in range(2)] + [np.eye(3)]
        rep2 = [w @ r @ w.conj().T for r in rep1]
        u = find_intertwiner(rep1, rep2)
        assert u is not None
        for a, b in zip(rep1, rep2):
            np.testing.assert_allclose(u @ a, b @ u, atol=1e-8)

    def test_one_svd_per_candidate(self, rng, monkeypatch):
        # the singularity test and the polar factor read one SVD
        args = []
        real = gns._svd
        monkeypatch.setattr(gns, "_svd", lambda m, **kw: args.append(m) or real(m, **kw))
        pair, w = clock_shift(4), random_unitary(rng, 4)
        rep1 = [pair.U, pair.V]
        assert find_intertwiner(rep1, [w @ r @ w.conj().T for r in rep1]) is not None
        assert args and len({id(m) for m in args}) == len(args)

    def test_nilpotent_against_itself(self):
        # the identity intertwines; the non-unitary members of the plain
        # intertwiner space (polynomials in N3) must not hide it
        n3 = np.triu(np.arange(1, 10).reshape(3, 3), 1).astype(complex)
        assert_unitary_intertwiner(find_intertwiner([n3], [n3]), [n3], [n3])

    def test_conjugated_non_normal(self, rng):
        m = rng.standard_normal((3, 3))
        w = random_unitary(rng, 3)
        rep2 = [w @ m @ w.conj().T]
        assert_unitary_intertwiner(find_intertwiner([m], rep2), [m], rep2)

    def test_restricted_to_matched_blocks(self, rng, builder_calls):
        # a generic Hermitian combination of clock and shift has 16 simple
        # eigenvalues, shared with its conjugate: 16 of the 256 index pairs
        pair = clock_shift(16)
        w = random_unitary(rng, 16)
        rep1 = [pair.U, pair.V]
        rep2 = [w @ r @ w.conj().T for r in rep1]
        u = find_intertwiner(rep1, rep2)
        (args,) = builder_calls
        assert len(args[0]) == 2 and len(args[4][0]) == 16
        assert_unitary_intertwiner(u, rep1, rep2)

    @settings(max_examples=25)
    @given(**gns_cases)
    def test_conjugated_gns_rep(self, **case):
        # cyclicity of psi makes w the only intertwiner that maps psi to w psi
        rng, _, omega = random_case(**case)
        res = gns_construct(omega)
        w = random_unitary(rng, res.hilbert_dim)
        rep2 = [w @ r @ w.conj().T for r in res.rep]
        assert_unitary_intertwiner(find_intertwiner(res.rep, rep2), res.rep, rep2)
        psi = res.cyclic_vector
        u = find_intertwiner(res.rep, rep2, map_vector=(psi, w @ psi))
        np.testing.assert_allclose(u, w, rtol=0, atol=1e-7)

    def test_inequivalent_reps(self):
        # diag(3, 4) shares no eigenvalue with diag(1, 2), so the
        # restriction leaves no index pair at all
        rep1 = [np.diag([1.0, 2.0]).astype(complex)]
        e0 = np.array([1.0, 0.0])
        for diag in ([1.0, 3.0], [3.0, 4.0]):
            rep2 = [np.diag(diag).astype(complex)]
            assert find_intertwiner(rep1, rep2) is None
            assert find_intertwiner(rep1, rep2, map_vector=(e0, e0)) is None

    def test_map_vector_picks_the_member(self, rng):
        # diag(1, 2, 3) is reducible: its intertwiners w D form a 3-dimensional
        # space (D diagonal), and the cyclic vector fixes D
        w = random_unitary(rng, 3)
        rep1 = [np.diag([1.0, 2.0, 3.0]).astype(complex)]
        rep2 = [w @ rep1[0] @ w.conj().T]
        target = w @ np.diag([1.0, 1j, -1.0])
        v_from = np.ones(3) / np.sqrt(3)
        u = find_intertwiner(rep1, rep2, map_vector=(v_from, target @ v_from))
        assert u is not None
        np.testing.assert_allclose(u, target, atol=1e-8)
        # without the vector, some other member of the space is returned
        other = find_intertwiner(rep1, rep2)
        assert other is not None
        assert np.linalg.norm(other @ v_from - target @ v_from) > 1e-3

    def test_dimension_mismatch(self):
        assert find_intertwiner([np.eye(2)], [np.eye(3)]) is None

    def test_refuses_non_finite_entries(self):
        with pytest.raises(InvalidInputError, match="finite"):
            find_intertwiner([[[np.nan, 0.0], [0.0, 1.0]]], [np.eye(2)])

    def test_refuses_non_square_matrices(self):
        with pytest.raises(InvalidInputError, match="shape"):
            find_intertwiner([np.ones((2, 3))], [np.ones((2, 3))])

    def test_gns_uniqueness_under_basis_reordering(self, rng):
        """The same state through two differently ordered generating sets
        produces unitarily equivalent GNS triples matching cyclic vectors."""
        omega = random_density(rng, 2)
        g1 = [AlgebraElement(SX), AlgebraElement(SY)]
        g2 = [AlgebraElement(SY), AlgebraElement(SZ)]
        b1, b2 = generate_algebra(g1), generate_algebra(g2)
        r1 = gns_construct(AbstractState.from_density(b1, omega))
        r2 = gns_construct(AbstractState.from_density(b2, omega))
        assert r1.hilbert_dim == r2.hilbert_dim
        # align the reps through the common concrete algebra M2
        rep1 = [np.asarray(r1.represent(b1.coefficients(m))) for m in (SX, SY, SZ)]
        rep2 = [np.asarray(r2.represent(b2.coefficients(m))) for m in (SX, SY, SZ)]
        u = find_intertwiner(
            rep1, rep2, map_vector=(r1.cyclic_vector, r2.cyclic_vector)
        )
        assert u is not None
        np.testing.assert_allclose(
            u @ r1.cyclic_vector, r2.cyclic_vector, atol=1e-8
        )
