import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cstarmech
from cstarmech.algebra import (
    _CERT_SLACK,
    AlgebraElement,
    ElementFlags,
    _exceeds,
    _operator_norms,
    _orthonormal_rows,
    adjoint,
    classify,
    commutator,
    generate_algebra,
    is_commutative,
    operator_norm,
)
from cstarmech.dynamics import eigen_spectrum
from cstarmech.errors import DimensionMismatchError, InvalidInputError, NumericalError
from cstarmech.gns import (
    AbstractState,
    _null_space,
    _restriction,
    commutant,
    find_intertwiner,
    gns_construct,
    is_irreducible,
)
from cstarmech.sampling import random_density, random_element, random_selfadjoint, random_unitary
from cstarmech.spectral import spectrum
from cstarmech.states import (
    DensityState,
    check_densities,
    check_observables,
    from_vector,
    uncertainty_bounds,
)
from cstarmech.weyl import clock_shift

from conftest import SX, SY, SZ, lapack_fails, random_generators


class TestAdjoint:
    def test_selfadjoint_fixed_point(self):
        a = AlgebraElement(SX)
        np.testing.assert_array_equal(adjoint(a).entries, SX)

    def test_conjugate_transpose(self):
        a = AlgebraElement([[0, 1], [0, 0]])
        np.testing.assert_array_equal(adjoint(a).entries, [[0, 0], [1, 0]])

    def test_antilinear_on_scalars(self):
        a = AlgebraElement(1j * np.eye(2))
        np.testing.assert_array_equal(adjoint(a).entries, -1j * np.eye(2))

    def test_involution_exact(self, rng):
        a = random_element(rng, 5)
        np.testing.assert_array_equal(adjoint(adjoint(a)).entries, a.entries)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(AlgebraElement(np.eye(2))) == pytest.approx(1.0)

    def test_selfadjoint_max_abs_eigenvalue(self):
        assert operator_norm(AlgebraElement(np.diag([3.0, -4.0]))) == pytest.approx(4.0)

    def test_nilpotent(self):
        # A*A = diag(0, 4), largest singular value sqrt(4) = 2
        assert operator_norm(AlgebraElement([[0, 2], [0, 0]])) == pytest.approx(2.0)


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        a = random_element(rng, 3)
        np.testing.assert_array_equal(commutator(a, a).entries, np.zeros((3, 3)))

    def test_pauli_commutator(self):
        expected = SX @ SY - SY @ SX  # = 2i sz by direct multiplication
        np.testing.assert_allclose(expected, 2j * SZ)
        got = commutator(AlgebraElement(SX), AlgebraElement(SY))
        np.testing.assert_allclose(got.entries, 2j * SZ)

    def test_diagonals_commute(self, rng):
        a = AlgebraElement(np.diag(rng.standard_normal(4)))
        b = AlgebraElement(np.diag(rng.standard_normal(4)))
        assert operator_norm(commutator(a, b)) == 0.0

    def test_antisymmetry_exact(self, rng):
        a, b = random_element(rng, 4), random_element(rng, 4)
        np.testing.assert_array_equal(
            commutator(a, b).entries, -commutator(b, a).entries
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(AlgebraElement(np.eye(2)), AlgebraElement(np.eye(3)))


class TestClassify:
    def test_pauli_z(self):
        flags = classify(AlgebraElement(SZ), 1e-10)
        assert (flags.selfadjoint, flags.normal, flags.unitary, flags.positive) == (
            True,
            True,
            True,
            False,
        )

    def test_nilpotent_nothing(self):
        flags = classify(AlgebraElement([[0, 1], [0, 0]]), 1e-10)
        assert not any(
            [flags.selfadjoint, flags.normal, flags.unitary, flags.positive]
        )

    def test_identity_everything(self):
        flags = classify(AlgebraElement(np.eye(3)), 1e-10)
        assert all([flags.selfadjoint, flags.normal, flags.unitary, flags.positive])

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_tol_not_positive_rejected(self, tol):
        with pytest.raises(InvalidInputError, match="tol must be positive"):
            classify(AlgebraElement(np.eye(2)), tol)

    def test_large_entries_are_rescaled_not_refused(self):
        # m m* overflows here; the exact power-of-two rescale keeps it finite,
        # and every warning is an error in this suite
        a = AlgebraElement(np.diag([1e200, 1.0]))
        assert classify(a) == ElementFlags(True, True, False, True)
        assert spectrum(a) == [1.0, 1e200]


def classify_reference(m, tol, unit=1.0):
    """classify's flags from plain SVDs, as it decided them before its rows
    went through _exceeds; returns them with each row's (error, bound / tol).
    The unitary row is m m* - unit 1."""
    mh = m.conj().T
    norm, sa_err, nrm_err, uni_err = np.linalg.svd(
        np.stack([m, m - mh, m @ mh - mh @ m, m @ mh - unit * np.eye(len(m))]),
        compute_uv=False)[:, 0]
    scale = max(norm, 1.0)
    below = max(-np.linalg.eigvalsh((m + mh) / 2).min(), 0.0)
    sa = bool(sa_err <= tol * scale)
    flags = ElementFlags(sa, bool(nrm_err <= tol * scale**2), bool(uni_err <= tol * scale**2),
                         sa and bool(below <= tol * scale))
    return flags, {"selfadjoint": (sa_err, scale), "normal": (nrm_err, scale**2),
                   "unitary": (uni_err, scale**2), "positive": (below, scale)}


def near_row(rng, n, row, eps):
    """An element whose ``row`` identity fails by about eps: a positive
    definite element, a normal one or a unitary plus eps times a unit-norm
    perturbation, or a Hermitian one with the eigenvalue -eps."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g /= np.linalg.svd(g, compute_uv=False)[0]
    u = random_unitary(rng, n)
    if row == "selfadjoint":
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return x @ x.conj().T / n + np.eye(n) + eps * g
    if row == "normal":
        return (u * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) @ u.conj().T + eps * g
    if row == "unitary":
        return u + eps * g
    lam = rng.uniform(0.0, 1.0, n)
    lam[0] = -eps
    h = (u * lam) @ u.conj().T
    return (h + h.conj().T) / 2


class TestClassifyVerdicts:
    """classify's flags, decided by _exceeds, equal the SVD formulas'."""

    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           size=st.sampled_from([0.25, 1.0, 1e3]), eps=st.sampled_from([1e-9, 1e-5, 1e-2]),
           rel=st.floats(1e-12, 1e-3), sign=st.sampled_from([-1, 1]))
    @example(n=3, seed=0, size=1e3, eps=1e-5, rel=1e-4, sign=1)
    @example(n=3, seed=0, size=1.0, eps=1e-5, rel=1e-4, sign=-1)
    def test_matches_the_svd_formulas(self, n, seed, size, eps, rel, sign):
        # each row in turn is put within rel of its bound, and exactly on it,
        # by the choice of tol. ||m m*|| and ||m||^2 differ in their last
        # bits, so the normal and unitary rows are put exactly on the bound
        # only where both scales are 1, and rel is at least 1e-12
        rng = np.random.default_rng(seed)
        for row in ("selfadjoint", "normal", "unitary", "positive"):
            m = size * near_row(rng, n, row, eps)
            err, bound = classify_reference(m, 1.0)[1][row]
            if err == 0.0:
                continue  # an element of size one is always normal
            on = row in ("selfadjoint", "positive") or size < 1.0
            for tol in [err / bound * (1 + sign * rel)] + [err / bound] * on:
                assert classify(AlgebraElement(m), tol) == classify_reference(m, tol)[0], row

    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), exponent=st.integers(500, 1000),
           eps=st.sampled_from([1e-9, 1e-5, 1e-2]), rel=st.floats(1e-12, 1e-3),
           sign=st.sampled_from([-1, 1]))
    def test_large_elements_match_their_rescaled_copy(self, n, seed, exponent, eps, rel, sign):
        # m = 2^exponent m1, m1's largest entry in [1, 2), is decided as the
        # formulas decide m1 with m1 m1* - 2^(-2 exponent) 1 as the unitary row;
        # ||m1|| >= 1, so only the selfadjoint and positive rows are put
        # exactly on the bound
        rng = np.random.default_rng(seed)
        unit = 2.0 ** (-2 * exponent)
        for row in ("selfadjoint", "normal", "unitary", "positive"):
            m1 = near_row(rng, n, row, eps)
            m1 = m1 * 2.0 ** (1 - np.frexp(np.abs(m1).max())[1])
            err, bound = classify_reference(m1, 1.0, unit)[1][row]
            if err == 0.0:
                continue
            on = row in ("selfadjoint", "positive")
            for tol in [err / bound * (1 + sign * rel)] + [err / bound] * on:
                want = classify_reference(m1, tol, unit)[0]
                assert classify(AlgebraElement(m1 * 2.0**exponent), tol) == want, row


class TestGenerateAlgebra:
    def test_identity_generates_scalars(self):
        basis = generate_algebra([AlgebraElement(np.eye(2))])
        assert len(basis) == 1

    def test_sz_generates_diagonals(self):
        basis = generate_algebra([AlgebraElement(SZ)])
        assert len(basis) == 2

    def test_sx_sz_generate_full_m2(self):
        basis = generate_algebra([AlgebraElement(SX), AlgebraElement(SZ)])
        assert len(basis) == 4

    def test_idempotent(self, rng):
        basis = generate_algebra([random_element(rng, 3)])
        again = generate_algebra(list(basis.elements))
        assert len(again) == len(basis)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_algebra([])

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 1.0, 2.0, 1e300, np.inf, np.nan])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # a rank cut at tol >= 1 keeps no row, and NaN compares false
        with pytest.raises(InvalidInputError, match="tol must lie in"):
            generate_algebra([AlgebraElement(SZ)], tol)


class TestIsCommutative:
    def test_diagonal_algebra(self):
        basis = generate_algebra([AlgebraElement(SZ)])
        assert is_commutative(basis)

    def test_full_m2(self):
        basis = generate_algebra([AlgebraElement(SX), AlgebraElement(SZ)])
        assert not is_commutative(basis)

    def test_normal_generator_gives_abelian_algebra(self, rng):
        g = random_element(rng, 3)
        normal = g @ adjoint(g)  # self-adjoint, hence normal
        basis = generate_algebra([normal])
        assert is_commutative(basis, 1e-8)

    @given(n=st.integers(2, 4), count=st.integers(1, 3),
           kind=st.sampled_from(["full", "commuting", "blocks"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_pairwise_loop(self, n, count, kind, seed):
        basis = generate_algebra(random_generators(np.random.default_rng(seed), n, count, kind))
        elems = basis.elements
        want = all(operator_norm(commutator(elems[i], elems[j])) < 1e-10
                   for i in range(len(elems)) for j in range(i + 1, len(elems)))
        assert is_commutative(basis) == want


class TestNormAxioms:
    """Spot checks; the bulk statistics live in the acceptance suite."""

    def test_cstar_identity(self, rng):
        for n in (2, 5, 9):
            a = random_element(rng, n)
            lhs = operator_norm(adjoint(a) @ a)
            rhs = operator_norm(a) ** 2
            assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_square_norm_selfadjoint(self, rng):
        a = random_selfadjoint(rng, 6)
        assert operator_norm(a @ a) == pytest.approx(operator_norm(a) ** 2, rel=1e-10)

    def test_difference_of_squares_bound(self, rng):
        for _ in range(20):
            a = random_selfadjoint(rng, 4)
            b = random_selfadjoint(rng, 4)
            lhs = operator_norm(a @ a - b @ b)
            assert lhs <= max(operator_norm(a @ a), operator_norm(b @ b)) + 1e-10

    def test_submultiplicative(self, rng):
        a, b = random_element(rng, 5), random_element(rng, 5)
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10


@st.composite
def elements(draw, count, selfadjoint):
    """``count`` elements of one M_n, n in 1..5, with entries scaled by
    10^-3..10^3 so that every bound is checked relative to the norms."""
    n = draw(st.integers(1, 5))
    parts = draw(hnp.arrays(float, (count, 2, n, n),
                            elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    m = (parts[:, 0] + 1j * parts[:, 1]) * 10.0 ** draw(st.integers(-3, 3))
    if selfadjoint:
        m = (m + np.conj(np.swapaxes(m, 1, 2))) / 2
    return [AlgebraElement(x) for x in m]


REL = 1e-12  # relative to the squared norms compared
# absolute floor of a few subnormal units, for products that underflow; it
# is below every normal float, so it leaves each bound in that range as is
ABS = 8 * np.finfo(float).smallest_subnormal
# every entry 4.93081093e-160: the entries are normal, their products are not
TINY = [AlgebraElement(np.full((3, 3), 4.93081093e-160))] * 2


class TestSegalAxioms:
    """The C* identity and Segal's axioms for the observables (self-adjoint
    elements) with the Jordan product a o b = ((a+b)^2 - (a-b)^2) / 4."""

    @given(elements(1, selfadjoint=False))
    @example(TINY[:1])
    def test_cstar_identity(self, elems):
        (a,) = elems
        norm_sq = operator_norm(a) ** 2
        assert abs(operator_norm(adjoint(a) @ a) - norm_sq) <= max(REL * norm_sq, ABS)

    @given(elements(1, selfadjoint=True))
    @example(TINY[:1])
    def test_square_norm_of_observable(self, elems):
        (a,) = elems
        norm_sq = operator_norm(a) ** 2
        assert abs(operator_norm(a @ a) - norm_sq) <= max(REL * norm_sq, ABS)

    @given(elements(2, selfadjoint=True))
    def test_difference_of_squares(self, elems):
        a, b = elems
        bound = max(operator_norm(a @ a), operator_norm(b @ b))
        assert operator_norm(a @ a - b @ b) <= bound * (1 + REL)

    @given(elements(2, selfadjoint=True))
    @example(TINY)
    def test_jordan_product(self, elems):
        a, b = elems
        jordan = ((a + b) @ (a + b) - (a - b) @ (a - b)) * 0.25
        symmetrized = (a @ b + b @ a) * 0.5
        scale = (operator_norm(a) + operator_norm(b)) ** 2
        assert operator_norm(jordan - symmetrized) <= max(REL * scale, ABS)


class TestNormKernel:
    @given(st.integers(1, 6).flatmap(lambda count: elements(count, selfadjoint=False)))
    def test_batch_equals_scalar(self, elems):
        norms = _operator_norms(np.stack([a.entries for a in elems]))
        assert [float(x) for x in norms] == [operator_norm(a) for a in elems]

    def test_norms_only_in_algebra(self):
        # every C* norm goes through algebra._operator_norms: no other module
        # takes an ord-2 numpy norm or wraps a fresh array to measure it
        found = []
        for path in sorted(Path(cstarmech.__file__).parent.glob("*.py")):
            if path.name == "algebra.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = ast.unparse(node.func)
                if func.endswith("linalg.norm"):
                    ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
                    if any(isinstance(o, ast.Constant) and o.value == 2 for o in ords):
                        found.append(f"{path.name}:{node.lineno}")
                elif (func.endswith("operator_norm") and node.args
                      and isinstance(node.args[0], ast.Call)
                      and ast.unparse(node.args[0].func).endswith("AlgebraElement")):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_sorts_only_in_spectral(self):
        # every eigenvalue cut is spectral._clusters: no other module sorts,
        # so no second clustering can come back unnoticed
        family = {"sort", "argsort", "unique", "searchsorted", "lexsort"}
        found = []
        for path in sorted(Path(cstarmech.__file__).parent.glob("*.py")):
            if path.name == "spectral.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([alias.name for alias in node.names]
                         if isinstance(node, ast.ImportFrom) else
                         [getattr(node, "attr", getattr(node, "id", None))])
                if family & set(names):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_states_and_dynamics_take_no_norm(self):
        # their verdicts all go through the certificate algebra._exceeds, so
        # no SVD norm can come back into them unnoticed
        for name in ("states.py", "dynamics.py"):
            tree = ast.parse((Path(cstarmech.__file__).parent / name).read_text())
            used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
            used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            assert not used & {"_operator_norms", "operator_norm"}, name

    def test_factorizations_only_in_algebra(self):
        # every dense factorization goes through algebra's gateway, _lapack or
        # _svd, so no module but algebra sees a LinAlgError
        lapack = {"cholesky", "eig", "eigh", "eigh_tridiagonal", "eigvals", "eigvalsh",
                  "eigvalsh_tridiagonal", "inv", "lstsq", "lu", "pinv", "qr", "schur", "solve",
                  "svd", "svdvals", "LinAlgError"}
        found = []
        for path in sorted(Path(cstarmech.__file__).parent.glob("*.py")):
            if path.name == "algebra.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Attribute) and ast.unparse(node.value).endswith("linalg"):
                    names = {node.attr}
                else:
                    continue
                if names & lapack:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_private_fft_only_in_dynamics(self):
        # the Strang stepper calls numpy's private pocketfft gufuncs; one
        # import in one module holds that dependency
        found = []
        for path in sorted(Path(cstarmech.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [ast.unparse(node)]
                else:
                    continue
                if any("_pocketfft_umath" in name for name in names):
                    found.append(path.name)
        assert found == ["dynamics.py"]


def svd_verdict(d, m, tol):
    """||d|| > tol max(||m||, 1) from plain SVDs."""
    norm_d, norm_m = np.linalg.svd(np.stack([d, m]), compute_uv=False)[:, 0]
    return bool(norm_d > tol * max(norm_m, 1.0))


def frobenius(x):
    """The Frobenius norm as _exceeds computes it."""
    return np.linalg.norm(x[None], axis=(-2, -1))[0]


class TestCertifiedVerdict:
    """_exceeds decides ||d|| > tol max(||m||, 1) as the SVD does, on rows
    near the bound, on both edges of its band and at overflow scale."""

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([1e-12, 1e-10, 1e-300]),
           rows=st.lists(st.tuples(st.integers(1, 8),
                                   st.sampled_from(["near", "pass edge", "fail edge", "overflow"]),
                                   st.floats(-1e-3, 1e-3),
                                   st.sampled_from([0.0, 0.1, 1.0, 1e3])),
                         min_size=1, max_size=4))
    @example(n=4, seed=0, tol=1e-10, rows=[(1, "near", 1e-3, 1e3), (4, "near", -1e-3, 0.0)])
    def test_matches_the_svd_verdict(self, n, seed, tol, rows):
        rng = np.random.default_rng(seed)
        ds, ms = [], []
        for rank, where, rel, m_scale in rows:
            # rank flat singular values: ||d||_F / ||d|| = sqrt(rank), 1 to sqrt(n)
            s = (np.arange(n) < rank).astype(float)
            d = (random_unitary(rng, n) * s) @ random_unitary(rng, n)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = (1e200 if where == "overflow" else m_scale) * g
            if where == "pass edge":
                edge = (1 - _CERT_SLACK) * tol * max(frobenius(m) / np.sqrt(n), 1.0)
            elif where == "fail edge":
                edge = np.sqrt(n) * (1 + _CERT_SLACK) * tol * max(frobenius(m), 1.0)
            else:
                edge = None
                d *= (1 + rel) * tol * max(np.linalg.svd(m, compute_uv=False)[0], 1.0)
            if edge is not None:
                d *= edge / frobenius(d)
            ds.append(d)
            ms.append(m)
        got = _exceeds(np.stack(ds), np.stack(ms), tol)
        assert got.tolist() == [svd_verdict(d, m, tol) for d, m in zip(ds, ms)]

    def test_exact_zero_passes_without_an_svd(self, gesdd_fails):
        m = np.stack([np.eye(3), 1e3 * np.eye(3)]).astype(complex)
        assert _exceeds(np.zeros_like(m), m, 1e-12).tolist() == [False, False]
        assert gesdd_fails == []


def gesvd(m, full_matrices=True, compute_uv=True):
    return scipy.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv,
                            lapack_driver="gesvd")


@pytest.fixture
def gesdd_fails(monkeypatch):
    """numpy's SVD (LAPACK gesdd), alone and inside ord-2 norms, raises as
    it does when it does not converge; returns the list of failed calls."""
    failed = []
    real_norm = np.linalg.norm

    def svd(*args, **kwargs):
        failed.append("svd")
        raise np.linalg.LinAlgError("SVD did not converge")

    def norm(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            failed.append("norm")
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "norm", norm)
    return failed


class TestLapackGateway:
    """algebra._lapack turns a failed factorization into a NumericalError
    that names the kernel."""

    @pytest.mark.parametrize("lib, kernel, call", [
        (scipy.linalg, "schur", lambda: spectrum(AlgebraElement(clock_shift(3).U))),
        (np.linalg, "lstsq", lambda: find_intertwiner([SX, SZ], [SX, SZ],
                                                       map_vector=([1, 0], [1, 0]))),
        (np.linalg, "qr", lambda: random_unitary(np.random.default_rng(0), 3)),
    ], ids=["schur", "lstsq", "qr"])
    def test_failure_names_the_kernel(self, monkeypatch, lib, kernel, call):
        monkeypatch.setattr(lib, kernel, lapack_fails)
        with pytest.raises(NumericalError, match=f"^LAPACK {kernel} failed: did not converge$"):
            call()


class TestSvdFallback:
    """Every SVD site returns LAPACK gesvd's result when gesdd fails, and
    raises NumericalError when gesvd fails too."""

    def test_operator_norm(self, gesdd_fails, rng):
        m = random_element(rng, 6).entries
        assert operator_norm(m) == gesvd(m, compute_uv=False)[0]
        assert gesdd_fails == ["norm", "svd"]

    def test_batched_norms_fall_back_per_matrix(self, gesdd_fails, rng):
        stack = np.stack([random_element(rng, 4).entries for _ in range(3)])
        want = [gesvd(m, compute_uv=False)[0] for m in stack]
        assert list(_operator_norms(stack)) == want
        assert gesdd_fails == ["norm", "svd", "svd", "svd"]

    def test_operator_norm_failure_is_numerical_error(self, gesdd_fails, monkeypatch, rng):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(scipy.linalg, "svd", fails)
        with pytest.raises(NumericalError):
            operator_norm(random_element(rng, 3))
        with pytest.raises(NumericalError):
            _operator_norms(np.stack([random_element(rng, 3).entries] * 2))
        # a row in the band of the Frobenius certificate still reaches the SVD:
        # ||b - b*|| = 8e-13 passes 1e-12, but ||b - b*||_F = 1.13e-12 is no proof
        b = random_density(rng, 3).b.copy()
        b[0, 1] += 4e-13
        b[1, 0] -= 4e-13
        with pytest.raises(NumericalError):
            check_densities(b[None])

    def test_gesvd_failure_is_numerical_error(self, gesdd_fails, monkeypatch, rng):
        stack = np.vstack([np.kron(np.eye(3), a) - np.kron(a.T, np.eye(3))
                           for a in (np.diag([1.0, 1.0, 2.0]), np.eye(3))])
        basis = generate_algebra([AlgebraElement(SX), AlgebraElement(SY)])
        state = AbstractState.from_density(basis, from_vector([1.0, 0.0]))
        rep = [random_selfadjoint(rng, 3).entries for _ in range(2)]
        monkeypatch.setattr(scipy.linalg, "svd", lapack_fails)
        for call in (lambda: _orthonormal_rows(stack, 1e-10), lambda: _null_space(stack, 1e-10),
                     state.is_pure, lambda: find_intertwiner(rep, rep)):
            with pytest.raises(NumericalError, match="^LAPACK svd failed: did not converge$"):
                call()

    def test_orthonormal_rows(self, gesdd_fails, rng):
        rows = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 9))  # rank 3
        _, s, vh = gesvd(rows, full_matrices=False)
        np.testing.assert_array_equal(_orthonormal_rows(rows, 1e-10), vh[s > 1e-10 * s[0]])
        assert len(_orthonormal_rows(rows, 1e-10)) == 3
        assert gesdd_fails

    def sites(self, rng):
        """Results of the gns SVD sites: a null space, a purity verdict and
        an intertwiner, whose polar step takes an SVD."""
        stack = np.vstack([np.kron(np.eye(3), a) - np.kron(a.T, np.eye(3))
                           for a in (np.diag([1.0, 1.0, 2.0]), np.eye(3))])
        basis = generate_algebra([AlgebraElement(SX), AlgebraElement(SY)])
        pure = AbstractState.from_density(basis, from_vector([1.0, 0.0])).is_pure()
        w = random_unitary(rng, 3)
        rep1 = [random_selfadjoint(rng, 3).entries for _ in range(2)]
        u = find_intertwiner(rep1, [w @ r @ w.conj().T for r in rep1])
        return _null_space(stack, 1e-10), pure, u

    def test_gns_sites(self, gesdd_fails, monkeypatch):
        null, pure, u = self.sites(np.random.default_rng(3))
        assert gesdd_fails
        monkeypatch.setattr(np.linalg, "svd", gesvd)
        ref_null, ref_pure, ref_u = self.sites(np.random.default_rng(3))
        assert null.shape[0] == 5 and pure and ref_pure and u is not None
        np.testing.assert_array_equal(null, ref_null)
        np.testing.assert_array_equal(u, ref_u)

    def test_gns_construct(self, gesdd_fails, monkeypatch):
        # the Gram Hermiticity check is a certain pass of its Frobenius bound,
        # so no SVD runs and gesdd's failure cannot reach it
        basis = generate_algebra([AlgebraElement(SX), AlgebraElement(SY)])
        omega = AbstractState.from_density(basis, DensityState(np.diag([0.7, 0.3])))
        gesdd_fails.clear()
        res = gns_construct(omega)
        assert gesdd_fails == []
        monkeypatch.undo()
        ref = gns_construct(omega)
        assert res.hilbert_dim == ref.hilbert_dim == 4
        np.testing.assert_array_equal(np.stack(res.rep), np.stack(ref.rep))
        np.testing.assert_array_equal(res.cyclic_vector, ref.cyclic_vector)

    def test_restricted_commutant(self, gesdd_fails, monkeypatch):
        # clock and shift are unitary, so a generic Hermitian combination of
        # them has 8 distinct eigenvalues and the Sylvester search runs on 8
        # of the 64 index pairs; the span and the null space take one SVD each
        rep = [clock_shift(8).U, clock_shift(8).V]
        got = commutant(rep)
        assert gesdd_fails == ["svd", "svd"]
        monkeypatch.setattr(np.linalg, "svd", gesvd)
        mats = np.stack(rep)
        assert len(_restriction(mats, mats, np.ones(2, bool))[1][0]) == 8
        ref = commutant(rep)
        assert len(got) == 1
        np.testing.assert_array_equal(got, ref)


# every public entry point that takes matrix input: one matrix, or a stack
MATRIX_CALLERS = {
    "AlgebraElement": AlgebraElement,
    "operator_norm": operator_norm,
    "DensityState": DensityState,
    "eigen_spectrum": lambda m: eigen_spectrum(m, 1),
}
STACK_CALLERS = {
    "check_densities": check_densities,
    "check_observables": check_observables,
    "uncertainty_bounds": lambda s: uncertainty_bounds(s, s, s),
    "commutant": commutant,
    "is_irreducible": is_irreducible,
    "find_intertwiner": lambda s: find_intertwiner(s, s),
}
BAD_MATRICES = {
    "0x0": np.zeros((0, 0)),
    "non-square": np.ones((2, 3)),
    "non-numeric": [[1.0, "x"], [0.0, 1.0]],
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
}
EMPTY = {"empty": [], "empty stack": np.zeros((0, 2, 2))}
BAD_INPUTS = [pytest.param(call, m, id=f"{name}-{case}")
              for name, call in MATRIX_CALLERS.items()
              for case, m in {**BAD_MATRICES, **EMPTY}.items()]
BAD_INPUTS += [pytest.param(call, s, id=f"{name}-{case}")
               for name, call in STACK_CALLERS.items()
               for case, s in {**{k: [m] for k, m in BAD_MATRICES.items()}, **EMPTY}.items()]


class TestAdmissionGate:
    @pytest.mark.parametrize("call, bad", BAD_INPUTS)
    def test_refusal_is_an_input_error(self, call, bad):
        with warnings.catch_warnings(), pytest.raises(InvalidInputError):
            warnings.simplefilter("error")
            call(bad)

    def test_scalar_refusal_names_the_shape_passed(self):
        with pytest.raises(InvalidInputError, match=r"got 1 of shape \(2, 3\)$"):
            AlgebraElement(np.ones((2, 3)))
        with pytest.raises(InvalidInputError, match=r"got 0 of shape \(2, 2\)$"):
            check_densities(np.zeros((0, 2, 2)))

    def test_caller_array_stays_writeable(self):
        a, b = np.array(SX), np.eye(2, dtype=complex) / 2
        elem, state = AlgebraElement(a), DensityState(b)
        assert a.flags.writeable and b.flags.writeable
        assert not (elem.entries.flags.writeable or state.b.flags.writeable)
        a[0, 0], b[0, 0] = 7.0, 7.0
        np.testing.assert_array_equal(elem.entries, SX)
        np.testing.assert_array_equal(state.b, np.eye(2) / 2)

    def test_admission_only_in_algebra(self):
        # every matrix input passes algebra's one gate, _as_stack: no other
        # module compares two axes of one shape (or a shape with (h, h)),
        # reduces isfinite over the axes of a stack, or raises a message
        # about square matrices
        found = []
        for path in sorted(Path(cstarmech.__file__).parent.glob("*.py")):
            if path.name == "algebra.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare) and all(
                        isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                    sides = [node.left, *node.comparators]
                    axes = [ast.unparse(x.value) for x in sides if isinstance(x, ast.Subscript)
                            and isinstance(x.value, ast.Attribute) and x.value.attr == "shape"]
                    pairs = [x for x in sides if isinstance(x, ast.Tuple) and len(x.elts) == 2
                             and ast.unparse(x.elts[0]) == ast.unparse(x.elts[1])]
                    shapes = [x for x in sides if isinstance(x, ast.Attribute) and x.attr == "shape"]
                    hit = len(axes) > len(set(axes)) or bool(pairs and shapes)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    hit = (node.func.attr == "all" and "isfinite" in ast.unparse(node.func.value)
                           and any(kw.arg == "axis" for kw in node.keywords))
                elif isinstance(node, ast.Raise):
                    hit = "square" in ast.unparse(node).lower()
                else:
                    continue
                if hit:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []
