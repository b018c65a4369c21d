import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstarmech.algebra import AlgebraElement, classify, operator_norm
from cstarmech.errors import InvalidInputError
from cstarmech.gns import find_intertwiner, is_irreducible
from cstarmech.sampling import random_unitary
from cstarmech.weyl import (
    Grid1D,
    ObstructionReport,
    WaveFunction,
    build_momentum,
    build_position,
    clock_shift,
    grid_weyl_ops,
    heisenberg_obstruction_report,
)

from conftest import SX, SZ


class TestGrid:
    def test_points_and_spacing(self):
        g = Grid1D(N=8, L=4.0)
        assert g.dx == pytest.approx(0.5)
        np.testing.assert_allclose(g.points, -2.0 + 0.5 * np.arange(8))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidInputError):
            Grid1D(N=12, L=1.0)

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidInputError):
            Grid1D(N=8, L=0.0)

    @pytest.mark.parametrize("length", [float("inf"), float("nan")])
    def test_rejects_non_finite_length(self, length):
        with pytest.raises(InvalidInputError, match="L must be positive and finite"):
            Grid1D(N=8, L=length)


class TestWaveFunction:
    def test_norm_uses_dx_weight(self):
        g = Grid1D(N=4, L=2.0)
        psi = WaveFunction(g, np.ones(4))
        assert psi.norm() == pytest.approx(np.sqrt(2.0))

    def test_gaussian_normalized(self):
        g = Grid1D(N=256, L=20.0)
        psi = WaveFunction.gaussian(g, x0=1.0, p0=2.0, sigma=0.8)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_unit_vector(self):
        g = Grid1D(N=64, L=10.0)
        v = WaveFunction.gaussian(g).to_unit_vector()
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestClockShift:
    def test_n2_is_pauli_pair(self):
        pair = clock_shift(2)
        np.testing.assert_allclose(pair.U, SZ, atol=1e-15)
        np.testing.assert_allclose(pair.V, SX, atol=1e-15)

    def test_n3_phase(self):
        pair = clock_shift(3)
        lhs = pair.U @ pair.V
        rhs = pair.zeta * pair.V @ pair.U
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)
        assert pair.zeta == pytest.approx(np.exp(2j * np.pi / 3))

    @pytest.mark.parametrize("n", [*range(2, 13), 16, 64, 256, 1024])
    def test_exact_relation(self, n):
        pair = clock_shift(n)
        resid = pair.U @ pair.V - pair.zeta * pair.V @ pair.U
        assert np.abs(resid).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_unitary_and_order_n(self, n):
        pair = clock_shift(n)
        for m in (pair.U, pair.V):
            assert classify(AlgebraElement(m)).unitary
            np.testing.assert_allclose(
                np.linalg.matrix_power(m, n), np.eye(n), atol=1e-12
            )

    @pytest.mark.parametrize("n", [*range(2, 13), 64])
    def test_irreducible(self, n):
        pair = clock_shift(n)
        assert is_irreducible([pair.U, pair.V])

    def test_conjugated_pair_intertwiner(self, rng):
        for n in range(2, 13):
            pair = clock_shift(n)
            w = random_unitary(rng, n)
            rep1 = [pair.U, pair.V]
            rep2 = [w @ pair.U @ w.conj().T, w @ pair.V @ w.conj().T]
            u = find_intertwiner(rep1, rep2)
            assert u is not None
            for a, b in zip(rep1, rep2):
                assert np.linalg.norm(u @ a - b @ u, 2) < 1e-8
            # the pair is irreducible, so the intertwiner is w up to a phase
            phase = np.trace(w.conj().T @ u) / n
            assert abs(phase) == pytest.approx(1.0, abs=1e-8)
            np.testing.assert_allclose(u, phase * w, rtol=0, atol=1e-8)


class TestWeylProperties:
    """The grid phase relation, and inequivalent clock/shift pairs."""

    @given(st.integers(1, 6), st.floats(1.0, 30.0), st.integers(-3, 3), st.integers(-64, 64))
    def test_grid_phase_relation(self, log_n, length, m, s):
        grid = Grid1D(N=2**log_n, L=length)
        alpha, beta = 2 * np.pi * m / length, s * grid.dx
        u, v = grid_weyl_ops(grid, alpha, beta)
        np.testing.assert_allclose(u @ v, np.exp(-1j * alpha * beta) * (v @ u),
                                   rtol=0, atol=1e-10)

    @given(st.integers(3, 12))
    def test_adjoint_shift_is_inequivalent(self, n):
        # U V* = zeta^-1 V* U: another phase constant, so no intertwiner
        pair = clock_shift(n)
        assert find_intertwiner([pair.U, pair.V], [pair.U, pair.V.conj().T]) is None


class TestGridWeylOps:
    def test_commutation_phase(self):
        g = Grid1D(N=8, L=4.0)
        alpha, beta = 2 * np.pi / g.L, g.dx
        u, v = grid_weyl_ops(g, alpha, beta)
        lhs = u @ v
        rhs = np.exp(-1j * alpha * beta) * (v @ u)
        assert np.abs(lhs - rhs).max() < 1e-12
        assert np.exp(-1j * alpha * beta) == pytest.approx(np.exp(-2j * np.pi / g.N))

    def test_u_group_law(self):
        g = Grid1D(N=32, L=8.0)
        u1, _ = grid_weyl_ops(g, 1.0, 0.0)
        u2, _ = grid_weyl_ops(g, 2.5, 0.0)
        u3, _ = grid_weyl_ops(g, 3.5, 0.0)
        np.testing.assert_allclose(u1 @ u2, u3, atol=1e-12)

    def test_u_adjoint_inverts_parameter(self):
        g = Grid1D(N=32, L=8.0)
        u, _ = grid_weyl_ops(g, 1.7, 0.0)
        um, _ = grid_weyl_ops(g, -1.7, 0.0)
        np.testing.assert_allclose(u.conj().T, um, atol=1e-12)

    def test_v_translates_samples(self):
        g = Grid1D(N=8, L=4.0)
        _, v = grid_weyl_ops(g, 0.0, g.dx)
        psi = np.arange(8, dtype=complex)
        np.testing.assert_allclose(v @ psi, np.roll(psi, -1))

    def test_v_composition(self):
        g = Grid1D(N=16, L=4.0)
        _, v1 = grid_weyl_ops(g, 0.0, g.dx)
        _, v2 = grid_weyl_ops(g, 0.0, 3 * g.dx)
        np.testing.assert_allclose(
            np.linalg.matrix_power(v1, 3), v2, atol=1e-12
        )

    def test_off_lattice_beta_rejected(self):
        g = Grid1D(N=8, L=4.0)
        with pytest.raises(InvalidInputError):
            grid_weyl_ops(g, 0.0, 0.3)


class TestPositionMomentum:
    def test_position_diagonal(self):
        g = Grid1D(N=8, L=4.0)
        np.testing.assert_allclose(build_position(g), np.diag(g.points))

    def test_momentum_hermitian(self):
        g = Grid1D(N=64, L=10.0)
        p = build_momentum(g)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-14)

    def test_momentum_on_plane_wave(self):
        g = Grid1D(N=64, L=8.0)
        k = 2 * np.pi / g.L * 3
        psi = np.exp(1j * k * g.points)
        np.testing.assert_allclose(build_momentum(g) @ psi, k * psi, atol=1e-10)

    def test_translation_generated_by_momentum(self):
        # V(beta) = exp(i beta P) shifts psi(x) -> psi(x + beta)
        import scipy.linalg

        g = Grid1D(N=64, L=8.0)
        beta = 2 * g.dx
        _, v = grid_weyl_ops(g, 0.0, beta)
        expp = scipy.linalg.expm(1j * beta * build_momentum(g))
        np.testing.assert_allclose(expp, v, atol=1e-10)

    def test_packet_momentum_expectation(self):
        g = Grid1D(N=256, L=30.0)
        p0 = 2 * np.pi / g.L * 8
        psi = WaveFunction.gaussian(g, p0=p0, sigma=1.0)
        got = psi.braket(build_momentum(g))
        assert got.real == pytest.approx(p0, abs=1e-8)
        assert abs(got.imag) < 1e-10


def dense_obstruction_report(grid):
    """The report from dense matrices: X = diag(x) as a matrix, dense
    products, an SVD for every norm and probes built as WaveFunctions."""
    x, p = build_position(grid), build_momentum(grid)
    c = p @ x - x @ p
    sigma, k = grid.L / 24, 2 * np.pi / grid.L * 4

    def deviation(mat, centers):
        probes = np.stack([WaveFunction.gaussian(grid, x0=x0, p0=p0, sigma=sigma).to_unit_vector()
                           for x0 in centers for p0 in (0.0, k)], axis=1)
        return float(np.linalg.norm(mat @ probes, axis=0).max())

    quarter = grid.L / 4
    interior = np.linspace(-quarter / 2, quarter / 2, 5)
    devs = {s: deviation(c - 1j * s * np.eye(grid.N), interior) for s in (1, -1)}
    sign = 1 if devs[1] <= devs[-1] else -1
    d = c - 1j * sign * np.eye(grid.N)
    bounds, xn = [], np.eye(grid.N, dtype=complex)
    for n in range(1, 11):
        xn_next = xn @ x
        comm = p @ xn_next - xn_next @ p
        bounds.append((n, n / 2.0, np.linalg.norm(comm, 2) / (2 * np.linalg.norm(xn, 2))))
        xn = xn_next
    return ObstructionReport(
        trace_of_commutator=complex(np.trace(c)),
        sign=sign,
        interior_deviation=devs[sign],
        boundary_deviation=deviation(d, [-grid.L / 2, grid.L / 2 - grid.dx]),
        full_matrix_deviation=np.linalg.norm(d, 2),
        norm_product=np.linalg.norm(x, 2) * np.linalg.norm(p, 2),
        lower_bounds=tuple(bounds),
    )


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("length", [8.0, 20.0])
def test_report_matches_the_dense_reference(n, length):
    grid = Grid1D(N=n, L=length)
    got, want = heisenberg_obstruction_report(grid), dense_obstruction_report(grid)
    assert got.trace_of_commutator == want.trace_of_commutator
    assert got.sign == want.sign
    for field in ("interior_deviation", "boundary_deviation", "full_matrix_deviation"):
        assert getattr(got, field) == pytest.approx(
            getattr(want, field), rel=0, abs=1e-12 * want.norm_product), field
    assert got.norm_product == pytest.approx(want.norm_product, rel=1e-12)
    assert [b[:2] for b in got.lower_bounds] == [b[:2] for b in want.lower_bounds]
    for g, w in zip(got.lower_bounds, want.lower_bounds):
        assert g[2] == pytest.approx(w[2], rel=1e-12)


@pytest.fixture(scope="module")
def report():
    return heisenberg_obstruction_report(Grid1D(N=256, L=20.0))


class TestObstruction:

    def test_trace_vanishes(self, report):
        assert abs(report.trace_of_commutator) < 1e-10

    def test_interior_acts_as_scalar(self, report):
        assert report.interior_deviation < 1e-6

    def test_full_matrix_far_from_scalar(self, report):
        assert report.full_matrix_deviation >= 1.0

    def test_boundary_breaks_relation(self, report):
        assert report.boundary_deviation > 1e3 * report.interior_deviation

    def test_norm_product_exceeds_growing_bound(self, report):
        # ||X|| ||P|| >= ||[P, X^n]|| / (2 ||X^{n-1}||) >= n/2; the growing
        # floor is what rules out bounded realizations of the relation
        for n, theory, empirical in report.lower_bounds:
            assert theory == n / 2
            assert empirical >= theory
            assert empirical <= report.norm_product + 1e-9
        assert report.lower_bounds[-1][0] == 10

    def test_sign_convention(self, report):
        assert report.sign in (-1, 1)


class TestMinimumUncertainty:
    def test_gaussian_saturates_product(self):
        g = Grid1D(N=512, L=30.0)
        psi = WaveFunction.gaussian(g, sigma=1 / np.sqrt(2))
        x, p = build_position(g), build_momentum(g)
        var_x = psi.braket(x @ x).real - psi.braket(x).real ** 2
        var_p = psi.braket(p @ p).real - psi.braket(p).real ** 2
        product = np.sqrt(var_x * var_p)
        assert product == pytest.approx(0.5, abs=1e-3)
