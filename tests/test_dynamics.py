from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cstarmech import dynamics
from cstarmech.algebra import AlgebraElement, commutator, operator_norm
from cstarmech.dynamics import (
    EvolutionConfig,
    RadialGrid,
    build_hamiltonian,
    ehrenfest_check,
    eigen_spectrum,
    evolve_heisenberg,
    evolve_schrodinger,
    make_potential,
    picture_equivalence_check,
    radial_hydrogen_spectrum,
    run_trajectory,
)
from cstarmech.errors import DimensionMismatchError, InvalidInputError, NumericalError
from cstarmech.sampling import random_selfadjoint
from cstarmech.weyl import Grid1D, WaveFunction

from conftest import SX, SY, SZ

GRID = Grid1D(N=256, L=20.0)


def cfg(potential="harmonic", dt=1e-3, t_final=1.0, method="split-operator", **kw):
    return EvolutionConfig(
        dt=dt, t_final=t_final, potential=make_potential(potential, **kw), method=method
    )


class TestPotentials:
    def test_catalog(self):
        x = np.linspace(-2, 2, 5)
        np.testing.assert_allclose(make_potential("free")(x), 0.0)
        np.testing.assert_allclose(make_potential("harmonic", omega=2.0)(x), 2 * x**2)
        np.testing.assert_allclose(make_potential("quartic", a=0.5)(x), 0.5 * x**4)
        well = make_potential("well", v0=10.0, width=2.0)(x)
        np.testing.assert_allclose(well, [10.0, 10.0, 0.0, 10.0, 10.0])

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            make_potential("linear")

    def test_config_rejects_bad_dt(self):
        with pytest.raises(InvalidInputError):
            EvolutionConfig(dt=-0.1, t_final=1.0, potential=make_potential("free"))

    @pytest.mark.parametrize("dt, t_final", [
        (np.nan, 1.0), (np.inf, 1.0), (1e-3, np.nan), (1e-3, np.inf), (np.inf, np.inf),
    ])
    def test_config_rejects_non_finite(self, dt, t_final):
        with pytest.raises(InvalidInputError, match="finite"):
            EvolutionConfig(dt=dt, t_final=t_final, potential=make_potential("free"))

    def test_steps_round_to_nearest(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        c = EvolutionConfig(dt=0.1, t_final=0.3, potential=make_potential("free"))
        assert c.steps == 3
        assert abs(c.steps * c.dt - c.t_final) <= 1e-12

    @pytest.mark.parametrize("dt, t_final", [(0.3, 1.0), (0.4, 1.0), (0.3, 0.1)])
    def test_config_rejects_unreachable_t_final(self, dt, t_final):
        with pytest.raises(InvalidInputError):
            EvolutionConfig(dt=dt, t_final=t_final, potential=make_potential("free"))

    @pytest.mark.parametrize(
        "dt, t_final",
        [(1e-3, 0.5), (5e-4, 0.5), (0.05, 0.5), (0.0125, 0.5), (1e-3, 2 * np.pi)],
    )
    def test_config_accepts_reachable_t_final(self, dt, t_final):
        c = EvolutionConfig(dt=dt, t_final=t_final, potential=make_potential("free"))
        assert c.steps == round(t_final / dt)

    def test_config_steps(self):
        assert cfg(dt=1e-2, t_final=1.0).steps == 100


class TestHamiltonian:
    def test_hermitian(self):
        h = build_hamiltonian(GRID, make_potential("harmonic"))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-13)

    def test_free_eigenvalues_are_half_k_squared(self):
        g = Grid1D(N=32, L=8.0)
        h = build_hamiltonian(g, make_potential("free"))
        expected = np.sort(0.5 * g.frequencies**2)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-10)

    def test_harmonic_spectrum_half_integers(self):
        h = build_hamiltonian(Grid1D(N=1024, L=20.0), make_potential("harmonic"))
        low = eigen_spectrum(h, 5)
        np.testing.assert_allclose(low, np.arange(5) + 0.5, atol=1e-4)


class TestSchrodingerEvolution:
    def test_zero_time_is_identity(self):
        psi0 = WaveFunction.gaussian(GRID, sigma=1.0)
        out = evolve_schrodinger(psi0, cfg(t_final=0.0))
        np.testing.assert_allclose(out.samples, psi0.samples, atol=1e-14)

    def test_free_packet_drift(self):
        g = Grid1D(N=512, L=60.0)
        p0 = 2 * np.pi / g.L * 20
        psi0 = WaveFunction.gaussian(g, x0=-5.0, p0=p0, sigma=1.5)
        _, traj = run_trajectory(psi0, cfg("free", dt=1e-3, t_final=2.0))
        assert traj.x_mean[-1] - traj.x_mean[0] == pytest.approx(
            p0 * 2.0, abs=1e-4
        )
        assert traj.p_mean[-1] == pytest.approx(p0, abs=1e-8)

    def test_coherent_state_period(self):
        # ground-width packet displaced in a unit oscillator returns at 2 pi
        psi0 = WaveFunction.gaussian(GRID, x0=1.0, sigma=1 / np.sqrt(2))
        out = evolve_schrodinger(psi0, cfg(dt=1e-3, t_final=2 * np.pi + 1e-3))
        overlap = abs(np.vdot(psi0.samples, out.samples) * GRID.dx)
        assert overlap == pytest.approx(1.0, abs=1e-3)

    def test_composition_law(self):
        psi0 = WaveFunction.gaussian(GRID, x0=0.5, sigma=1.0)
        one_shot = evolve_schrodinger(psi0, cfg(dt=1e-3, t_final=0.8))
        half = evolve_schrodinger(psi0, cfg(dt=1e-3, t_final=0.4))
        two_shot = evolve_schrodinger(half, cfg(dt=1e-3, t_final=0.4))
        err = np.sqrt(np.sum(np.abs(one_shot.samples - two_shot.samples) ** 2) * GRID.dx)
        assert err < 1e-8

    def test_methods_agree(self):
        g = Grid1D(N=128, L=16.0)
        psi0 = WaveFunction.gaussian(g, x0=0.5, sigma=1.0)
        config = cfg(dt=1e-4, t_final=0.5)
        a = evolve_schrodinger(psi0, config)
        b = evolve_schrodinger(
            psi0, cfg(dt=1e-4, t_final=0.5, method="exact-diagonalization")
        )
        err = np.sqrt(np.sum(np.abs(a.samples - b.samples) ** 2) * g.dx)
        assert err < 1e-5

    def test_norm_and_energy_conserved(self):
        psi0 = WaveFunction.gaussian(GRID, x0=1.0, sigma=0.9)
        _, traj = run_trajectory(psi0, cfg(dt=1e-3, t_final=1.0))
        assert np.abs(traj.norm - 1.0).max() < 1e-10
        rel = np.abs(traj.energy - traj.energy[0]).max() / abs(traj.energy[0])
        assert rel < 1e-6

    def test_strang_second_order(self):
        g = Grid1D(N=128, L=16.0)
        psi0 = WaveFunction.gaussian(g, x0=0.7, sigma=1.0)
        exact = evolve_schrodinger(
            psi0, cfg(dt=1e-3, t_final=0.5, method="exact-diagonalization")
        )
        errs = []
        for dt in (0.05, 0.025, 0.0125):
            out = evolve_schrodinger(psi0, cfg(dt=dt, t_final=0.5))
            errs.append(
                np.sqrt(np.sum(np.abs(out.samples - exact.samples) ** 2) * g.dx)
            )
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.8) and np.all(orders < 2.2)

    def test_rejects_unnormalized_input(self):
        psi = WaveFunction(GRID, 2.0 * WaveFunction.gaussian(GRID).samples)
        with pytest.raises(InvalidInputError):
            evolve_schrodinger(psi, cfg())

    def test_trajectory_ends_where_evolve_schrodinger_ends(self):
        psi0 = WaveFunction.gaussian(GRID, x0=0.8, p0=0.3, sigma=0.9)
        config = cfg(dt=1e-3, t_final=0.2)
        final, _ = run_trajectory(psi0, config)
        assert np.array_equal(final.samples, evolve_schrodinger(psi0, config).samples)

    def test_trajectory_refuses_exact_method(self):
        # a recorded run is Strang stepping; it must not pass off Strang
        # samples as exact ones
        psi0 = WaveFunction.gaussian(GRID, x0=1.0)
        with pytest.raises(InvalidInputError):
            run_trajectory(psi0, cfg(dt=0.05, t_final=0.5, method="exact-diagonalization"))


class TestHeisenbergPicture:
    def test_larmor_half_turn(self):
        # H = sz/2 rotates sx to -sx after t = pi
        h = AlgebraElement(SZ) * 0.5
        a_t = evolve_heisenberg(AlgebraElement(SX), h, np.pi)
        np.testing.assert_allclose(a_t.entries, -SX, atol=1e-12)

    def test_conserved_when_commuting(self, rng):
        h = random_selfadjoint(rng, 4)
        a0 = h @ h + 2.0 * h
        a_t = evolve_heisenberg(a0, h, 1.7)
        np.testing.assert_allclose(a_t.entries, a0.entries, atol=1e-10)

    def test_spectrum_preserved(self, rng):
        a0 = random_selfadjoint(rng, 4)
        h = random_selfadjoint(rng, 4)
        s0 = np.linalg.eigvalsh(a0.entries)
        st = np.linalg.eigvalsh(evolve_heisenberg(a0, h, 0.9).entries)
        np.testing.assert_allclose(st, s0, atol=1e-10)

    def test_derivative_is_i_commutator(self, rng):
        a0 = random_selfadjoint(rng, 3)
        h = random_selfadjoint(rng, 3)
        eps = 1e-6
        num = (
            evolve_heisenberg(a0, h, eps).entries
            - evolve_heisenberg(a0, h, -eps).entries
        ) / (2 * eps)
        expected = 1j * commutator(h, a0).entries
        np.testing.assert_allclose(num, expected, atol=1e-6)

    def test_automorphism_respects_products(self, rng):
        a = random_selfadjoint(rng, 3)
        b = random_selfadjoint(rng, 3)
        h = random_selfadjoint(rng, 3)
        t = 0.6
        lhs = evolve_heisenberg(a @ b, h, t).entries
        rhs = (evolve_heisenberg(a, h, t) @ evolve_heisenberg(b, h, t)).entries
        assert np.linalg.norm(lhs - rhs, 2) < 1e-9

    def test_picture_equivalence(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a0 = random_selfadjoint(rng, n)
            h = random_selfadjoint(rng, n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rep = picture_equivalence_check(v, a0, h, t=1.3)
            assert rep.gap < 1e-8

    def test_rejects_non_selfadjoint_hamiltonian(self):
        with pytest.raises(InvalidInputError):
            evolve_heisenberg(
                AlgebraElement(SX), AlgebraElement([[0, 1], [0, 0]]), 1.0
            )

    def test_picture_check_rejects_non_selfadjoint_hamiltonian(self):
        with pytest.raises(InvalidInputError):
            picture_equivalence_check(
                np.array([1.0, 0.0]), AlgebraElement(SX),
                AlgebraElement([[0, 1], [0, 0]]), 1.0,
            )

    def test_picture_check_rejects_mismatched_observable(self):
        with pytest.raises(DimensionMismatchError):
            picture_equivalence_check(
                np.array([1.0, 0.0]), AlgebraElement(np.eye(3)), AlgebraElement(SZ), 1.0
            )


class TestBoundStates:
    def test_well_levels_increase_and_fill_in(self):
        g = Grid1D(N=512, L=20.0)
        h = build_hamiltonian(g, make_potential("well", v0=50.0, width=2.0))
        low = eigen_spectrum(h, 4)
        assert np.all(np.diff(low) > 0)
        # bound levels sit inside the well depth
        assert low[0] > 0 and low[-1] < 50.0

    @pytest.mark.parametrize(
        "h",
        [np.zeros((3, 4)), [[0.0, 1.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]]],
        ids=["non-square", "non-self-adjoint", "nan"],
    )
    def test_eigen_spectrum_refuses_invalid_input(self, h):
        with pytest.raises(InvalidInputError):
            eigen_spectrum(np.array(h), 1)

    @pytest.mark.parametrize("run", [
        lambda h: eigen_spectrum(h, 1),
        lambda h: evolve_heisenberg(AlgebraElement(SX), AlgebraElement(h), 1.0),
    ], ids=["eigen_spectrum", "evolve_heisenberg"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_skew_part_is_not_self_adjoint(self, run):
        # h - h* overflows: refused by the self-adjointness gate, no numpy warning
        with pytest.raises(InvalidInputError, match="^Hamiltonian must be self-adjoint$"):
            run(np.array([[1e308, -1e308], [1e308, 1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_self_adjoint_near_the_float_limit(self):
        # h + h* overflows here, h / 2 + h* / 2 does not
        lowest = eigen_spectrum(np.array([[1e308, 1e308], [1e308, 1.0]]), 1)
        assert lowest[0] == pytest.approx(1e308 * (1 - np.sqrt(5)) / 2, rel=1e-12)

    def test_quartic_levels_spread_faster_than_harmonic(self):
        g = Grid1D(N=512, L=16.0)
        hq = eigen_spectrum(build_hamiltonian(g, make_potential("quartic")), 6)
        gaps = np.diff(hq)
        assert np.all(np.diff(gaps) > 0)  # widening gaps, unlike harmonic


class TestHydrogen:
    def test_bohr_levels(self):
        grid = RadialGrid(r_max=200.0, M=4000)
        vals = radial_hydrogen_spectrum(grid, 3)
        bohr = np.array([-1 / (2 * n**2) for n in (1, 2, 3)])
        np.testing.assert_allclose(vals, bohr, rtol=1e-2)

    def test_node_counts(self):
        grid = RadialGrid(r_max=120.0, M=2400)
        vals, vecs = radial_hydrogen_spectrum(grid, 3, return_vectors=True)
        for n, col in enumerate(vecs.T):
            main = col[np.abs(col) > 1e-6 * np.abs(col).max()]
            nodes = int(np.sum(np.sign(main[:-1]) != np.sign(main[1:])))
            assert nodes == n

    def test_grid_refinement_converges(self):
        e_coarse = radial_hydrogen_spectrum(RadialGrid(80.0, 800), 1)[0]
        e_fine = radial_hydrogen_spectrum(RadialGrid(80.0, 1600), 1)[0]
        assert abs(e_fine + 0.5) < abs(e_coarse + 0.5)

    def test_rejects_small_grid(self):
        with pytest.raises(InvalidInputError):
            RadialGrid(r_max=10.0, M=8)


class TestEhrenfest:
    def test_harmonic_gaps_small(self):
        psi0 = WaveFunction.gaussian(GRID, x0=1.0, sigma=1 / np.sqrt(2))
        rep = ehrenfest_check(psi0, cfg(dt=1e-3, t_final=0.5))
        assert rep.dX_dt_gap < 1e-4
        assert rep.dP_dt_gap < 1e-4
        assert rep.force_sign == -1

    def test_quartic_gaps_small(self):
        g = Grid1D(N=512, L=20.0)
        psi0 = WaveFunction.gaussian(g, x0=0.5, sigma=0.8)
        rep = ehrenfest_check(psi0, cfg("quartic", a=0.25, dt=5e-4, t_final=0.3))
        assert rep.dX_dt_gap < 1e-4
        assert rep.dP_dt_gap < 1e-3
        assert rep.force_sign == -1

    def test_needs_derivative(self):
        psi0 = WaveFunction.gaussian(GRID)
        with pytest.raises(InvalidInputError):
            ehrenfest_check(psi0, cfg("well", dt=1e-3, t_final=0.1))

    def test_refuses_exact_method(self):
        psi0 = WaveFunction.gaussian(GRID, x0=1.0)
        with pytest.raises(InvalidInputError):
            ehrenfest_check(
                psi0, cfg(dt=0.05, t_final=0.5, method="exact-diagonalization")
            )

    def test_gaps_match_reference_recomputation(self):
        g = Grid1D(N=64, L=12.0)
        psi0 = WaveFunction.gaussian(g, x0=0.8, p0=-0.4, sigma=0.8)
        config = cfg("quartic", a=0.25, dt=0.01, t_final=0.2)
        rep = ehrenfest_check(psi0, config)
        _, traj = run_trajectory(psi0, config)

        # reference <V'(X)> = <X^3> at every recorded time, from a plain
        # Strang loop
        x, dt = g.points, config.dt
        half_v = np.exp(-0.5j * dt * 0.25 * x**4)
        kin = np.exp(-0.5j * dt * g.frequencies**2)
        psi = psi0.samples
        vp = []
        for _ in range(config.steps + 1):
            vp.append(np.sum(x**3 * np.abs(psi) ** 2) / np.sum(np.abs(psi) ** 2))
            psi = half_v * np.fft.ifft(kin * np.fft.fft(half_v * psi))
        vp = np.array(vp)

        dxdt = (traj.x_mean[2:] - traj.x_mean[:-2]) / (2 * dt)
        dpdt = (traj.p_mean[2:] - traj.p_mean[:-2]) / (2 * dt)
        assert rep.force_sign == -1
        assert rep.dX_dt_gap == pytest.approx(
            np.max(np.abs(dxdt - traj.p_mean[1:-1])), rel=1e-9, abs=1e-15
        )
        assert rep.dP_dt_gap == pytest.approx(
            np.max(np.abs(dpdt + vp[1:-1])), rel=1e-9, abs=1e-15
        )


def strang_states(psi0, config, scale_from=None):
    """Every Strang state at t = 0, dt, ..., steps * dt from a plain numpy
    loop, one state and one FFT at a time. From step ``scale_from`` on, each
    inverse FFT is scaled by 1 + 1e-5."""
    x, k, dt = psi0.grid.points, psi0.grid.frequencies, config.dt
    half_v = np.exp(-0.5j * dt * config.potential(x))
    kin = np.exp(-0.5j * dt * k**2)
    psi = psi0.samples
    yield psi
    for step in range(1, config.steps + 1):
        inner = np.fft.ifft(kin * np.fft.fft(half_v * psi))
        if scale_from is not None and step >= scale_from:
            inner *= 1 + 1e-5
        psi = half_v * inner
        yield psi


def per_step_diagnostics(psi0, config):
    """<X>, <P>, <H>, the norm and <V'(X)> of every Strang state, one state
    and one FFT at a time; the final state."""
    grid = psi0.grid
    x, k, dx = grid.points, grid.frequencies, grid.dx
    w = dx / grid.N
    vvals = config.potential(x)
    vprime = config.potential.derivative(x)
    rows = []
    for psi in strang_states(psi0, config):
        dens, dens_hat = np.abs(psi) ** 2, np.abs(np.fft.fft(psi)) ** 2
        nrm2 = np.sum(dens) * dx
        en = (np.sum(0.5 * k**2 * dens_hat) * w + np.sum(vvals * dens) * dx) / nrm2
        rows.append((np.sum(x * dens) * dx / nrm2, np.sum(k * dens_hat) * w / nrm2,
                     en, np.sqrt(nrm2), np.sum(vprime * dens) * dx / nrm2))
    return psi, np.array(rows).T


def ehrenfest_gaps(x_mean, p_mean, vp_means, dt):
    dxdt = (x_mean[2:] - x_mean[:-2]) / (2 * dt)
    dpdt = (p_mean[2:] - p_mean[:-2]) / (2 * dt)
    gap_x = float(np.max(np.abs(dxdt - p_mean[1:-1])))
    gap_plus = float(np.max(np.abs(dpdt - vp_means[1:-1])))
    gap_minus = float(np.max(np.abs(dpdt + vp_means[1:-1])))
    if gap_minus <= gap_plus:
        return gap_x, gap_minus, -1
    return gap_x, gap_plus, +1


class TestBatchedDiagnostics:
    """The diagnostics read the Strang states in blocks of dynamics._BLOCK;
    every block boundary gives the bits of the one-state-at-a-time sums."""

    @pytest.mark.parametrize("steps", [0, 1, 31, 32, 33, 67])
    @pytest.mark.parametrize("potential, kw", [("quartic", {"a": 0.25}),
                                               ("harmonic", {"omega": 1.3}), ("free", {})])
    def test_match_per_step_reference(self, steps, potential, kw, monkeypatch):
        g = Grid1D(N=64, L=12.0)
        psi0 = WaveFunction.gaussian(g, x0=0.8, p0=-0.4, sigma=0.8)
        config = cfg(potential, dt=0.01, t_final=0.01 * steps, **kw)
        psi_ref, (x_mean, p_mean, energy, norm, vp_means) = per_step_diagnostics(psi0, config)

        ffts = []
        fft = np.fft.fft

        def logged_fft(a, *args, **kwargs):
            ffts.append(np.shape(a))
            return fft(a, *args, **kwargs)

        assert evolve_schrodinger(psi0, config).samples.tobytes() == psi_ref.tobytes()
        monkeypatch.setattr(np.fft, "fft", logged_fft)
        psi, traj = run_trajectory(psi0, config)
        assert psi.samples.tobytes() == psi_ref.tobytes()
        for got, want in ((traj.times, 0.01 * np.arange(steps + 1)), (traj.x_mean, x_mean),
                          (traj.p_mean, p_mean), (traj.energy, energy), (traj.norm, norm)):
            assert got.tobytes() == want.tobytes()
        # one FFT of at most _BLOCK rows per block, beside the stepper's own
        blocks = [shape[0] for shape in ffts if len(shape) == 2]
        assert blocks == [min(dynamics._BLOCK, steps + 1 - start)
                          for start in range(0, steps + 1, dynamics._BLOCK)]

        if steps < 3:
            with pytest.raises(InvalidInputError):
                ehrenfest_check(psi0, config)
            return
        rep = ehrenfest_check(psi0, config)
        assert (rep.dX_dt_gap, rep.dP_dt_gap, rep.force_sign) == ehrenfest_gaps(
            x_mean, p_mean, vp_means, config.dt)


class TestBlockStepper:
    """The stepper writes its states into blocks of dynamics._BLOCK rows and
    checks their norms once per block."""

    GRID = Grid1D(N=64, L=12.0)

    def psi0(self):
        return WaveFunction.gaussian(self.GRID, x0=0.8, p0=-0.4, sigma=0.8)

    @pytest.mark.parametrize("n", [2**p for p in range(1, 13)])
    def test_kernels_give_the_bytes_of_np_fft(self, n):
        # the stepper calls the gufuncs behind np.fft.fft and np.fft.ifft with
        # the factors those pass for norm=None; a numpy that changes either
        # fails here, not as drift in the evolved states
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        blowup = z.copy()
        blowup[n // 2] = np.inf
        for a in (z, blowup):
            for kernel, factor, want in ((dynamics.fft, 1.0, np.fft.fft(a)),
                                         (dynamics.ifft, 1 / n, np.fft.ifft(a))):
                out = np.empty_like(a)
                kernel(a, factor, out=out)
                inplace = a.copy()
                kernel(inplace, factor, out=inplace)
                assert out.tobytes() == inplace.tobytes() == want.tobytes()

    def test_returned_states_own_their_memory(self):
        config = cfg(dt=0.01, t_final=0.4)
        out = evolve_schrodinger(self.psi0(), config)
        final, _ = run_trajectory(self.psi0(), config)
        assert out.samples.base is None and final.samples.base is None

    # k = 32 of 32 steps drifts first in a block of one row
    @pytest.mark.parametrize("k, steps", [(1, 67), (31, 67), (32, 67), (33, 67), (32, 32)])
    @pytest.mark.parametrize("run", [evolve_schrodinger, run_trajectory, ehrenfest_check])
    def test_forced_drift_names_the_first_step(self, k, steps, run, monkeypatch):
        config = cfg(dt=0.01, t_final=0.01 * steps)
        psi = next(islice(strang_states(self.psi0(), config, scale_from=k), k, None))
        nrm = np.sqrt(np.sum(np.abs(psi) ** 2) * self.GRID.dx)
        calls = []
        ifft = dynamics.ifft

        def drifting_ifft(a, *args, out=None, **kwargs):
            calls.append(None)
            res = ifft(a, *args, out=out, **kwargs)
            if len(calls) >= k:
                res *= 1 + 1e-5
            return res

        monkeypatch.setattr(dynamics, "ifft", drifting_ifft)
        with pytest.raises(NumericalError) as exc:
            run(self.psi0(), config)
        assert str(exc.value) == f"norm drifted to {nrm} at step {k}"

    @pytest.mark.parametrize("k, steps", [(1, 67), (32, 67), (33, 67), (32, 32)])
    @pytest.mark.parametrize("run", [evolve_schrodinger, run_trajectory, ehrenfest_check])
    def test_nan_state_names_the_first_step(self, k, steps, run, monkeypatch):
        # a NaN norm is no drift for ">" but is for "not <="
        config = cfg(dt=0.01, t_final=0.01 * steps)
        calls = []
        ifft = dynamics.ifft

        def nan_ifft(a, *args, out=None, **kwargs):
            calls.append(None)
            res = ifft(a, *args, out=out, **kwargs)
            if len(calls) == k:
                res[0] = np.nan
            return res

        monkeypatch.setattr(dynamics, "ifft", nan_ifft)
        with pytest.raises(NumericalError) as exc:
            run(self.psi0(), config)
        assert str(exc.value) == f"norm drifted to nan at step {k}"

    @pytest.mark.parametrize("run", [evolve_schrodinger, run_trajectory, ehrenfest_check])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_phase_is_refused_before_the_first_step(self, run, monkeypatch):
        # dt V overflows, so exp(-i dt V / 2) is NaN: refused, no numpy warning
        calls = []
        monkeypatch.setattr(dynamics, "fft", lambda *args, **kwargs: calls.append(None))
        psi0 = WaveFunction.gaussian(Grid1D(N=64, L=20.0), x0=0.0, p0=0.0, sigma=1.0)
        with pytest.raises(NumericalError, match="^Strang phases are not finite"):
            run(psi0, cfg("quartic", dt=1e5, t_final=3e5, a=1e300))
        assert calls == []


TIMES = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def hamiltonian_system(draw):
    """A Hermitian H, matrices A and B and a vector v, all of one size n."""
    n = draw(st.integers(1, 6))
    entries = st.floats(-3.0, 3.0, allow_subnormal=False)
    re, im = draw(hnp.arrays(float, (2, 3 * n + 1, n), elements=entries))
    z = re + 1j * im
    h = z[:n]
    return (h + h.conj().T) / 2, z[n : 2 * n], z[2 * n : 3 * n], z[3 * n]


def dense_unitary(prop, t):
    n = prop.evals.size
    return np.column_stack([prop.state(e, t) for e in np.eye(n)])


class TestDynamicsProperties:
    @settings(max_examples=20)
    @given(
        x0=st.floats(-1.5, 1.5), p0=st.floats(-1.5, 1.5), sigma=st.floats(0.6, 1.4)
    )
    def test_strang_is_second_order(self, x0, p0, sigma):
        g = Grid1D(N=128, L=16.0)
        psi0 = WaveFunction.gaussian(g, x0=x0, p0=p0, sigma=sigma)
        exact = evolve_schrodinger(
            psi0, cfg(dt=0.05, t_final=0.5, method="exact-diagonalization")
        )
        errs = [
            np.linalg.norm(evolve_schrodinger(psi0, cfg(dt=dt, t_final=0.5)).samples
                           - exact.samples) * np.sqrt(g.dx)
            for dt in (0.05, 0.025)
        ]
        assert 1.8 <= np.log2(errs[0] / errs[1]) <= 2.2

    @given(hamiltonian_system(), TIMES, TIMES)
    def test_propagator_group_law_and_unitarity(self, system, s, t):
        h, _, _, v = system
        n = h.shape[0]
        prop = dynamics._Propagator(h)
        tol = 1e-12 * n * (1 + np.linalg.norm(h, 2) * (abs(s) + abs(t)))
        u_s, u_t = dense_unitary(prop, s), dense_unitary(prop, t)
        np.testing.assert_allclose(u_s @ u_t, dense_unitary(prop, s + t), atol=tol)
        np.testing.assert_allclose(u_t.conj().T @ u_t, np.eye(n), atol=1e-12 * n)
        np.testing.assert_allclose(prop.state(v, t), u_t @ v, atol=tol * (1 + np.linalg.norm(v)))

    @given(hamiltonian_system(), TIMES)
    def test_heisenberg_is_star_automorphism(self, system, t):
        h, a, b, _ = system
        n = h.shape[0]

        def alpha(m):
            return evolve_heisenberg(AlgebraElement(m), AlgebraElement(h), t).entries

        na, nb = np.linalg.norm(a, 2), np.linalg.norm(b, 2)
        tol = 1e-11 * n * (1 + na) * (1 + nb)
        np.testing.assert_allclose(alpha(a @ b), alpha(a) @ alpha(b), atol=tol)
        np.testing.assert_allclose(alpha(a.conj().T), alpha(a).conj().T, atol=tol)
        np.testing.assert_allclose(alpha(a + b), alpha(a) + alpha(b), atol=tol)
        np.testing.assert_allclose(alpha(np.eye(n)), np.eye(n), atol=1e-12 * n)
        assert abs(np.linalg.norm(alpha(a), 2) - na) <= tol
