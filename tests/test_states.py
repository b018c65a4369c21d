import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstarmech.algebra import AlgebraElement, adjoint
from cstarmech.errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidStateError,
    NonObservableError,
)
from cstarmech.sampling import (
    density_matrix,
    random_density,
    random_element,
    random_pure_vector,
    random_selfadjoint,
    random_unitary,
    selfadjoint_matrix,
)
from cstarmech.states import (
    DensityState,
    _variances,
    check_densities,
    check_observables,
    expectation,
    from_vector,
    has_definite_value,
    is_pure,
    mix,
    uncertainty_bounds,
    uncertainty_check,
    variance,
)

from conftest import SX, SY, SZ


class TestDensityState:
    def test_rejects_non_selfadjoint(self):
        with pytest.raises(InvalidStateError):
            DensityState(np.array([[0.5, 0.5], [0.0, 0.5]]))
        # b - b* overflows: not self-adjoint, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="^density matrix is not self-adjoint$"):
                DensityState([[0.5, 1e308], [-1e308, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            DensityState(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            DensityState(np.diag([1.5, -0.5]))


class TestExpectation:
    def test_maximally_mixed_traceless(self):
        omega = DensityState.maximally_mixed(2)
        assert expectation(omega, AlgebraElement(SZ)) == pytest.approx(0.0)

    def test_up_eigenstate(self):
        omega = DensityState(np.diag([1.0, 0.0]))
        assert expectation(omega, AlgebraElement(SZ)) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.7, 1.0])
    def test_diagonal_mixture(self, p):
        omega = DensityState(np.diag([p, 1 - p]))
        assert expectation(omega, AlgebraElement(SZ)) == pytest.approx(2 * p - 1)

    def test_normalization(self, rng):
        omega = random_density(rng, 5)
        assert expectation(omega, AlgebraElement.identity(5)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_positivity(self, rng):
        omega = random_density(rng, 4)
        for _ in range(20):
            a = random_element(rng, 4)
            val = expectation(omega, adjoint(a) @ a)
            assert val.real >= -1e-12
            assert abs(val.imag) <= 1e-12 * max(val.real, 1.0)

    def test_cauchy_schwarz(self, rng):
        omega = random_density(rng, 4)
        for _ in range(20):
            a = random_element(rng, 4)
            lhs = abs(expectation(omega, a)) ** 2
            rhs = expectation(omega, adjoint(a) @ a).real
            assert lhs <= rhs + 1e-10


class TestFromVector:
    def test_basis_vector(self):
        omega = from_vector([1, 0])
        np.testing.assert_allclose(omega.b, np.diag([1.0, 0.0]))

    def test_superposition(self):
        omega = from_vector(np.array([1, 1]) / np.sqrt(2))
        np.testing.assert_allclose(omega.b, np.full((2, 2), 0.5), atol=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 1.3, np.pi])
    def test_phase_invariance(self, theta):
        omega = from_vector([0, np.exp(1j * theta)])
        np.testing.assert_allclose(omega.b, np.diag([0.0, 1.0]), atol=1e-15)

    def test_normalizes_with_warning(self):
        with pytest.warns(UserWarning):
            omega = from_vector([2.0, 0.0])
        np.testing.assert_allclose(omega.b, np.diag([1.0, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            from_vector([0.0, 0.0])


class TestPurityAndMixtures:
    def test_projection_is_pure(self):
        assert is_pure(DensityState(np.diag([1.0, 0.0])))

    def test_maximally_mixed_not_pure(self):
        assert not is_pure(DensityState.maximally_mixed(2))

    def test_90_10_mixture_not_pure(self):
        omega = mix(
            [DensityState(np.diag([1.0, 0.0])), DensityState(np.diag([0.0, 1.0]))],
            [0.9, 0.1],
        )
        # tr(b^2) = 0.81 + 0.01 = 0.82 < 1
        assert np.trace(omega.b @ omega.b).real == pytest.approx(0.82)
        assert not is_pure(omega)

    def test_trivial_mix(self, rng):
        omega = random_density(rng, 3)
        np.testing.assert_array_equal(mix([omega], [1.0]).b, omega.b)

    def test_symmetric_mix(self):
        omega = mix(
            [DensityState(np.diag([1.0, 0.0])), DensityState(np.diag([0.0, 1.0]))],
            [0.5, 0.5],
        )
        np.testing.assert_allclose(omega.b, np.eye(2) / 2)

    def test_mix_is_affine(self, rng):
        s1, s2 = random_density(rng, 3), random_density(rng, 3)
        a = random_selfadjoint(rng, 3)
        mixed = mix([s1, s2], [0.3, 0.7])
        direct = 0.3 * expectation(s1, a) + 0.7 * expectation(s2, a)
        assert expectation(mixed, a) == pytest.approx(direct, abs=1e-12)

    def test_mixture_of_distinct_pure_states_not_pure(self, rng):
        for _ in range(10):
            v1, v2 = random_pure_vector(rng, 3), random_pure_vector(rng, 3)
            if abs(np.vdot(v1, v2)) > 1 - 1e-6:
                continue
            assert not is_pure(mix([from_vector(v1), from_vector(v2)], [0.5, 0.5]))

    def test_bad_weights(self):
        with pytest.raises(InvalidInputError):
            mix([DensityState.maximally_mixed(2)], [0.5])


class TestVariance:
    def test_eigenstate_zero_variance(self):
        omega = DensityState(np.diag([1.0, 0.0]))
        assert variance(omega, AlgebraElement(SZ)) == 0.0

    def test_maximally_mixed(self):
        assert variance(DensityState.maximally_mixed(2), AlgebraElement(SZ)) == (
            pytest.approx(1.0)
        )

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_diagonal_mixture(self, p):
        omega = DensityState(np.diag([p, 1 - p]))
        # omega(sz^2) - omega(sz)^2 = 1 - (2p-1)^2 = 4p(1-p)
        assert variance(omega, AlgebraElement(SZ)) == pytest.approx(4 * p * (1 - p))

    def test_rejects_non_selfadjoint(self, rng):
        with pytest.raises(NonObservableError):
            variance(random_density(rng, 2), AlgebraElement([[0, 1], [0, 0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonObservableError, match="^observable must be self-adjoint$"):
                check_observables([[[0, 1e308], [-1e308, 0]]])


class TestUncertainty:
    def test_commuting_pair(self, rng):
        omega = random_density(rng, 3)
        a = random_selfadjoint(rng, 3)
        rep = uncertainty_check(omega, a, a @ a)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_saturated_pauli_pair(self):
        omega = DensityState(np.diag([1.0, 0.0]))
        rep = uncertainty_check(omega, AlgebraElement(SX), AlgebraElement(SY))
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)
        assert rep.holds

    def test_random_draws(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 5))
            rep = uncertainty_check(
                random_density(rng, n),
                random_selfadjoint(rng, n),
                random_selfadjoint(rng, n),
            )
            assert rep.holds

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_saturated_pair_holds_at_large_norm(self, rng, scale):
        # u|0> and the rotated pair s u sx u*, s u sy u* attain the bound
        # exactly, so only rounding, which grows as s^2, sets the margin
        for _ in range(200):
            u = random_unitary(rng, 2)
            omega = DensityState(u @ np.diag([1.0, 0.0]) @ u.conj().T)
            rep = uncertainty_check(omega, AlgebraElement(scale * u @ SX @ u.conj().T),
                                    AlgebraElement(scale * u @ SY @ u.conj().T))
            assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
            assert rep.holds


class TestDefiniteValues:
    def test_eigenstate(self):
        omega = DensityState(np.diag([1.0, 0.0]))
        assert has_definite_value(omega, AlgebraElement(SZ), 1e-10)

    def test_mixed_state(self):
        assert not has_definite_value(
            DensityState.maximally_mixed(2), AlgebraElement(SZ), 1e-10
        )

    def test_scalars_dispersion_free(self, rng):
        omega = random_density(rng, 4)
        assert has_definite_value(omega, 2.5 * AlgebraElement.identity(4), 1e-10)


def test_state_family_separates_observables(rng):
    """Some spanning family of density matrices distinguishes any two
    distinct self-adjoint elements."""
    n = 3
    family = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        family.append(from_vector(e))
    for j in range(n):
        for k in range(j + 1, n):
            for amp in (1.0, 1j):
                v = np.zeros(n, dtype=complex)
                v[j] = 1.0
                v[k] = amp
                family.append(from_vector(v / np.sqrt(2)))
    for _ in range(25):
        a1 = random_selfadjoint(rng, n)
        a2 = random_selfadjoint(rng, n)
        gap = max(
            abs(expectation(s, a1) - expectation(s, a2)) for s in family
        )
        assert gap > 1e-8


def per_draw_bounds(b, a1, a2):
    """The per-draw arithmetic of the uncertainty check in plain numpy and
    Python floats, as it was before the stack kernel: the reference the
    kernel must match bit for bit."""

    def var(a):
        mean = complex(np.trace(b @ a)).real
        second = complex(np.trace(b @ (a @ a))).real
        v = second - mean * mean
        return 0.0 if v < 0.0 else v

    lhs = float(np.sqrt(var(a1)) * np.sqrt(var(a2)))
    return lhs, abs(complex(np.trace(b @ (a1 @ a2 - a2 @ a1)))) / 2.0


def draw_stacks(seed, size, n, commuting_rows=(), pure_rows=()):
    """Random stacks; A2 = A1^2 on commuting rows, and on pure rows b is a
    rank-one projection p and A2 = p, whose variance rounds to about +-1e-16."""
    rng = np.random.default_rng(seed)
    b = np.stack([density_matrix(rng, n, 1 if k in pure_rows else None)
                  for k in range(size)])
    a1 = np.stack([selfadjoint_matrix(rng, n) for _ in range(size)])
    a2 = np.stack([a1[k] @ a1[k] if k in commuting_rows
                   else b[k] if k in pure_rows else selfadjoint_matrix(rng, n)
                   for k in range(size)])
    return b, a1, a2


class TestStacks:
    @given(size=st.integers(1, 20), n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           commuting=st.booleans(), pure=st.booleans())
    def test_rows_match_the_scalar_check_bit_for_bit(self, size, n, seed, commuting, pure):
        b, a1, a2 = draw_stacks(seed, size, n, commuting_rows={0} if commuting else (),
                                pure_rows={size - 1} if pure else ())
        lhs, rhs = uncertainty_bounds(b, a1, a2)
        assert lhs.shape == rhs.shape == (size,)
        for k in range(size):
            rep = uncertainty_check(
                DensityState(b[k]), AlgebraElement(a1[k]), AlgebraElement(a2[k])
            )
            assert (lhs[k], rhs[k]) == (rep.lhs, rep.rhs) == per_draw_bounds(b[k], a1[k], a2[k])

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("plant, error", [
        ("trace", InvalidStateError),
        ("sign", InvalidStateError),
        ("overflowing sign", InvalidStateError),
        ("asymmetry", InvalidStateError),
        ("overflowing asymmetry", InvalidStateError),
        ("nan density", InvalidStateError),
        ("a1 not self-adjoint", NonObservableError),
        ("a1 overflowing asymmetry", NonObservableError),
        ("a2 not self-adjoint", NonObservableError),
        ("a2 infinite", InvalidInputError),
    ])
    def test_bad_row_is_named(self, k, plant, error):
        b, a1, a2 = draw_stacks(7, 5, 3)
        if plant == "trace":
            b[k] *= 1.5
        elif plant == "sign":
            b[k] = np.diag([1.5, -0.25, -0.25])
        elif plant == "overflowing sign":  # self-adjoint, trace one, b + b* overflows
            b[k] = [[0.5, 1e308, 0], [1e308, 0.25, 0], [0, 0, 0.25]]
        elif plant == "asymmetry":
            b[k, 0, 1] += 1e-6
        elif plant == "overflowing asymmetry":  # b - b* overflows, all else finite
            b[k, 0, 1], b[k, 1, 0] = 1e308, -1e308
        elif plant == "nan density":
            b[k, 1, 1] = np.nan
        elif plant == "a1 not self-adjoint":
            a1[k, 0, 2] += 1e-6
        elif plant == "a1 overflowing asymmetry":
            a1[k, 0, 1], a1[k, 1, 0] = 1e308, -1e308
        elif plant == "a2 not self-adjoint":
            a2[k, 2, 1] += 1j
        else:
            a2[k, 0, 0] = np.inf
        with warnings.catch_warnings(), pytest.raises(error, match=rf"^row {k}: "):
            warnings.simplefilter("error")
            uncertainty_bounds(b, a1, a2)

    def test_variance_floor_names_the_row(self):
        # an unchecked "density" with a large negative eigenvalue
        b = np.stack([np.eye(2) / 2, np.diag([2.0, -1.0])]).astype(complex)
        a = np.stack([np.diag([1.0, -1.0])] * 2)
        with pytest.raises(InvalidStateError, match=r"^row 1: variance -8.0 below"):
            _variances(b, a)

    def test_dimension_mismatch(self):
        b, a1, a2 = draw_stacks(3, 4, 3)
        with pytest.raises(DimensionMismatchError):
            uncertainty_bounds(b, a1[:, :2, :2], a2)
        with pytest.raises(DimensionMismatchError):
            uncertainty_bounds(b, a1, a2[:3])
        with pytest.raises(InvalidStateError):
            check_densities(b[0])

    def test_one_batched_norm_pair_per_stack(self, monkeypatch):
        # Frobenius bounds decide every row of a random stack, so no ord-2
        # (SVD) norm runs; a row planted in the band between the certain
        # pass and the certain fail takes one batched pair over that row only
        b, a1, _ = draw_stacks(5, 16, 4)
        svd_rows, eigvalsh_calls = [], []
        real_norm, real_eigvalsh = np.linalg.norm, np.linalg.eigvalsh

        def norm(x, ord=None, axis=None, keepdims=False):
            if ord == 2:
                svd_rows.append(len(x))
            return real_norm(x, ord, axis, keepdims)

        def eigvalsh(*args, **kwargs):
            eigvalsh_calls.append(1)
            return real_eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", norm)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        check_densities(b)
        assert (svd_rows, len(eigvalsh_calls)) == ([], 1)
        check_observables(a1)
        assert (svd_rows, len(eigvalsh_calls)) == ([], 1)
        # ||b - b*|| = 8e-13 passes 1e-12, but ||b - b*||_F = 1.13e-12 is no proof
        skew = np.zeros((4, 4))
        skew[0, 1], skew[1, 0] = 4e-13, -4e-13
        b[3] += skew
        check_densities(b)
        assert (svd_rows, len(eigvalsh_calls)) == ([1, 1], 2)

    def test_scalar_errors_name_no_row(self):
        with pytest.raises(InvalidStateError, match=r"^trace must be 1"):
            DensityState(np.eye(2))
