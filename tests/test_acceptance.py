"""End-to-end acceptance suite.

Each test covers one contracted property of the library and prints a single
pass line with the measured figure of merit. Run with `pytest -s` to see
the lines as they go by.
"""

import json
import time

import numpy as np
import pytest

from cstarmech.algebra import AlgebraElement, adjoint, operator_norm
from cstarmech.cli import main as cli_main
from cstarmech.dynamics import (
    EvolutionConfig,
    RadialGrid,
    build_hamiltonian,
    eigen_spectrum,
    evolve_schrodinger,
    make_potential,
    picture_equivalence_check,
    radial_hydrogen_spectrum,
    run_trajectory,
)
from cstarmech.gns import (
    AbstractState,
    find_intertwiner,
    gns_construct,
    is_irreducible,
)
from cstarmech.classical import HARMONIC, PhasePoint, bracket_table, hamilton_flow
from cstarmech.algebra import generate_algebra
from cstarmech.sampling import (
    random_density,
    random_element,
    random_selfadjoint,
    random_unitary,
)
from cstarmech.spectral import spectral_measure
from cstarmech.states import expectation, is_pure, uncertainty_check
from cstarmech.weyl import (
    Grid1D,
    WaveFunction,
    build_momentum,
    build_position,
    clock_shift,
    grid_weyl_ops,
    heisenberg_obstruction_report,
)

from conftest import CLI_CONFIGS

SEED = 20240817


def report(line):
    print(f"\n[acceptance] {line}")


def test_01_cstar_norm_identities():
    rng = np.random.default_rng([SEED, 1])
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        a = random_element(rng, n)
        na = operator_norm(a)
        err1 = abs(operator_norm(adjoint(a) @ a) - na**2) / na**2
        sa = random_selfadjoint(rng, n)
        ns = operator_norm(sa)
        err2 = abs(operator_norm(sa @ sa) - ns**2) / ns**2
        worst = max(worst, err1, err2)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    report(
        f"PASS 1 C* norm identities: max relative error {worst:.2e} "
        f"over 1000 draws in {elapsed:.1f}s"
    )


def test_02_uncertainty_theorem():
    rng = np.random.default_rng([SEED, 2])
    violations = 0
    min_margin = np.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        rep = uncertainty_check(
            random_density(rng, n), random_selfadjoint(rng, n), random_selfadjoint(rng, n)
        )
        min_margin = min(min_margin, rep.lhs - rep.rhs)
        if not rep.holds:
            violations += 1
    assert violations == 0

    g = Grid1D(N=512, L=30.0)
    psi = WaveFunction.gaussian(g, sigma=1 / np.sqrt(2))
    x, p = build_position(g), build_momentum(g)
    var_x = psi.braket(x @ x).real - psi.braket(x).real ** 2
    var_p = psi.braket(p @ p).real - psi.braket(p).real ** 2
    product = float(np.sqrt(var_x * var_p))
    assert abs(product - 0.5) <= 1e-3
    report(
        f"PASS 2 uncertainty: 0 violations in 10000 draws "
        f"(min margin {min_margin:.2e}); Gaussian dX dP = {product:.6f}"
    )


def test_03_gns_reconstruction_and_purity():
    rng = np.random.default_rng([SEED, 3])
    bases = {}
    for n in (2, 3, 4):
        gens = [random_selfadjoint(rng, n) for _ in range(2)]
        bases[n] = generate_algebra(gens)
        assert len(bases[n]) == n * n
    worst_recon = 0.0
    mismatches = 0
    dim_errors = 0
    for i in range(100):
        n = (2, 3, 4)[i % 3]
        rank = int(rng.integers(1, n + 1))
        omega = random_density(rng, n, rank=rank)
        st = AbstractState.from_density(bases[n], omega)
        res = gns_construct(st)
        psi = res.cyclic_vector
        recon = np.array([np.vdot(psi, r @ psi) for r in res.rep])
        worst_recon = max(worst_recon, float(np.abs(recon - st.values).max()))
        if is_irreducible(res.rep) != is_pure(omega):
            mismatches += 1
        if res.hilbert_dim != n * rank:
            dim_errors += 1
    assert worst_recon <= 1e-9
    assert mismatches == 0
    assert dim_errors == 0
    report(
        f"PASS 3 GNS: max reconstruction error {worst_recon:.2e}, "
        f"0 purity/irreducibility mismatches, dim = n*rank in 100/100 runs"
    )


def test_04_spectral_measure_moments():
    rng = np.random.default_rng([SEED, 4])
    worst_moment = 0.0
    worst_weight = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = random_selfadjoint(rng, n)
        omega = random_density(rng, n)
        mu = spectral_measure(omega, a)
        worst_weight = max(worst_weight, abs(float(mu.weights().sum()) - 1.0))
        power = AlgebraElement.identity(n)
        for k in range(4):
            gap = abs(mu.moment(k) - expectation(omega, power))
            worst_moment = max(worst_moment, gap)
            power = power @ a
    assert worst_moment <= 1e-9
    assert worst_weight <= 1e-10
    report(
        f"PASS 4 spectral measure: max moment gap {worst_moment:.2e} (k=0..3), "
        f"max weight-sum error {worst_weight:.2e}"
    )


def test_05_weyl_relations_and_intertwiner():
    rng = np.random.default_rng([SEED, 5])
    worst_clock = 0.0
    for n in (2, 3, 8, 64, 256, 1024):
        pair = clock_shift(n)
        resid = float(
            np.abs(pair.U @ pair.V - pair.zeta * pair.V @ pair.U).max()
        )
        worst_clock = max(worst_clock, resid)
    assert worst_clock <= 1e-12

    g = Grid1D(N=64, L=8.0)
    alpha, beta = 2 * np.pi / g.L, g.dx
    u, v = grid_weyl_ops(g, alpha, beta)
    grid_resid = float(
        np.linalg.norm(u @ v - np.exp(-1j * alpha * beta) * v @ u, 2)
    )
    assert grid_resid <= 1e-10

    pair = clock_shift(5)
    w = random_unitary(rng, 5)
    rep1 = [pair.U, pair.V]
    rep2 = [w @ m @ w.conj().T for m in rep1]
    uu = find_intertwiner(rep1, rep2)
    assert uu is not None
    residual = max(np.linalg.norm(uu @ a - b @ uu, 2) for a, b in zip(rep1, rep2))
    assert residual <= 1e-8
    report(
        f"PASS 5 Weyl: clock-shift residual {worst_clock:.2e} (n up to 1024), "
        f"grid phase residual {grid_resid:.2e}, intertwiner residual {residual:.2e}"
    )


def test_06_heisenberg_obstruction():
    rep = heisenberg_obstruction_report(Grid1D(N=256, L=20.0))
    assert abs(rep.trace_of_commutator) <= 1e-10
    assert rep.interior_deviation < 1e-6
    assert rep.full_matrix_deviation >= 1.0
    floor = rep.lower_bounds[-1][1]
    assert rep.norm_product >= floor
    report(
        f"PASS 6 obstruction: |tr[P,X]| = {abs(rep.trace_of_commutator):.2e}, "
        f"interior deviation {rep.interior_deviation:.2e}, "
        f"full deviation {rep.full_matrix_deviation:.1f} >= 1"
    )


def test_07_dynamics():
    grid = Grid1D(N=256, L=20.0)
    psi0 = WaveFunction.gaussian(grid, x0=1.0, sigma=1 / np.sqrt(2))
    cfg = EvolutionConfig(
        dt=1e-3, t_final=1.0, potential=make_potential("harmonic")
    )
    _, traj = run_trajectory(psi0, cfg)
    norm_drift = float(np.abs(traj.norm - 1.0).max())
    energy_drift = float(
        np.abs(traj.energy - traj.energy[0]).max() / abs(traj.energy[0])
    )
    assert norm_drift <= 1e-10
    assert energy_drift <= 1e-6

    g2 = Grid1D(N=128, L=16.0)
    psi = WaveFunction.gaussian(g2, x0=0.7, sigma=1.0)
    exact = evolve_schrodinger(
        psi,
        EvolutionConfig(
            dt=1e-3, t_final=0.5, potential=make_potential("harmonic"),
            method="exact-diagonalization",
        ),
    )
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        out = evolve_schrodinger(
            psi, EvolutionConfig(dt=dt, t_final=0.5, potential=make_potential("harmonic"))
        )
        errs.append(np.sqrt(np.sum(np.abs(out.samples - exact.samples) ** 2) * g2.dx))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders >= 1.8) & (orders <= 2.2))

    rng = np.random.default_rng([SEED, 7])
    h = random_selfadjoint(rng, 4)
    a0 = random_selfadjoint(rng, 4)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    gap = picture_equivalence_check(vec, a0, h, t=1.1).gap
    assert gap <= 1e-8

    hmat = build_hamiltonian(Grid1D(N=1024, L=20.0), make_potential("harmonic"))
    low = eigen_spectrum(hmat, 5)
    spec_err = float(np.abs(low - (np.arange(5) + 0.5)).max())
    assert spec_err <= 1e-4
    report(
        f"PASS 7 dynamics: norm drift {norm_drift:.2e}, energy drift {energy_drift:.2e} "
        f"(1000 steps); Strang orders {np.round(orders, 3).tolist()}; "
        f"picture gap {gap:.2e}; harmonic levels off by {spec_err:.2e}"
    )


def test_08_hydrogen_spectrum():
    t0 = time.monotonic()
    vals = radial_hydrogen_spectrum(RadialGrid(r_max=200.0, M=4000), 3)
    elapsed = time.monotonic() - t0
    bohr = np.array([-1 / (2 * n**2) for n in (1, 2, 3)])
    rel = float(np.abs((vals - bohr) / bohr).max())
    assert rel <= 0.01
    assert elapsed < 60.0
    report(
        f"PASS 8 hydrogen: levels {np.round(vals, 6).tolist()} within "
        f"{rel:.2%} of -1/(2n^2) in {elapsed:.2f}s"
    )


def test_09_classical_baseline():
    rng = np.random.default_rng([SEED, 9])
    rows = bracket_table(100, rng)
    assert len(rows) == 300
    worst = max(err for *_, err in rows)
    assert worst <= 1e-6

    _, traj = hamilton_flow(
        HARMONIC, PhasePoint(np.array([1.0]), np.array([0.0])), dt=1e-2, steps=100_000
    )
    energies = np.array([HARMONIC(z) for z in traj])
    drift = float(np.abs(energies - energies[0]).max())
    assert drift < 1e-4
    report(
        f"PASS 9 classical: max bracket error {worst:.2e} at 100 points, "
        f"leapfrog energy drift {drift:.2e} over 100000 steps"
    )


def test_10_cli_determinism(tmp_path):
    checked = 0
    for command, cfg in CLI_CONFIGS.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run_id in (1, 2):
            out = tmp_path / f"{command}_{run_id}"
            code = cli_main(
                [command, "--config", str(cfg_path), "--out", str(out)]
            )
            assert code == 0, f"{command} exited {code}"
            outs.append(out)
        for f1 in sorted(outs[0].iterdir()):
            if f1.name == "manifest.json":
                continue  # carries wall-clock duration
            f2 = outs[1] / f1.name
            assert f2.exists(), f"{command}: missing {f1.name} on rerun"
            assert f1.read_bytes() == f2.read_bytes(), (
                f"{command}: {f1.name} differs between reruns"
            )
            checked += 1
    report(
        f"PASS 10 determinism: {checked} output files byte-identical across "
        f"reruns of all 6 subcommands"
    )
