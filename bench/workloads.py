"""The three benchmark workloads: one job each, its inputs, and its checks.

Every job of a workload has the same make-up; only the seeded numbers in
its inputs change. Inputs come from ``numpy.random.default_rng([seed, j])``
for job ``j`` and reach the program as CLI config files or plain arrays.
The checks use plain numpy and properties the methods must have, never a
stored copy of earlier output.

The program is reached through its module objects (``cs.gns.commutant``,
not a name imported here), so the traced run sees every call.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np


class CheckError(AssertionError):
    """A job's output breaks a property the method must have."""


class JobFailed(RuntimeError):
    """The program refused a job's input (a CLI exit code other than 0 and
    the failed-check code)."""


def require(ok, check: str, detail: str = ""):
    if not ok:
        raise CheckError(f"{check}: {detail}" if detail else check)


def read_csv(path: Path) -> dict:
    """Numeric CSV columns by header name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = list(zip(*rows[1:])) if len(rows) > 1 else [()] * len(rows[0])
    return {name: np.array(col, dtype=float) for name, col in zip(rows[0], cols)}


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def pairs_to_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def density(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    b = g @ g.conj().T
    return b / np.trace(b).real


def opnorm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


class Workload:
    """One job: ``make_input`` (untimed), ``run`` (timed), ``check``."""

    name = ""

    def __init__(self, cs: SimpleNamespace, workdir: Path):
        self.cs = cs
        self.workdir = Path(workdir)

    def fresh(self, sub: str) -> Path:
        """An empty directory for one job's files."""
        d = self.workdir / sub
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def cli_args(self, command: str, config: dict, seed: int | None = None,
                 tag: str | None = None) -> list:
        """Write ``config`` into a fresh directory; return the CLI arguments."""
        d = self.fresh(tag or command)
        cfg = d / "config.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--out", str(d / "out")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return argv

    def call(self, argv: list) -> Path:
        """Run one CLI subcommand in-process; return its output directory."""
        code = self.cs.cli.main(argv)
        if code == self.cs.cli.EXIT_CHECK_FAILED:
            raise CheckError(f"cli.{argv[0]}: the program's own check failed")
        if code != 0:
            raise JobFailed(f"cstarmech {argv[0]} exited {code}")
        return Path(argv[argv.index("--out") + 1])


# ---------------------------------------------------------------------------
# ensemble: the uncertainty bound over random states and observables


class Ensemble(Workload):
    """One CLI ``uncertainty`` run at dim 8 with the commuting row on."""

    name = "ensemble"
    # rows recomputed independently from the regenerated inputs
    recheck_rows = (0, 1, 2, 50, 99)

    def __init__(self, cs, workdir, dim: int = 8, draws: int = 100):
        super().__init__(cs, workdir)
        self.dim, self.draws = dim, draws

    def make_input(self, seed: int, j: int):
        rng = np.random.default_rng([seed, j])
        cli_seed = int(rng.integers(2**31))
        cfg = {"dim": self.dim, "samples": self.draws, "include_commuting": True}
        argv = self.cli_args("uncertainty", cfg, cli_seed)
        return SimpleNamespace(seed=cli_seed, argv=argv)

    def run(self, spec):
        return self.call(spec.argv)

    def regenerate(self, seed: int, i: int):
        """Draw i's state and observables, in the CLI's documented order."""
        n = self.dim
        rng = np.random.default_rng([seed, i])
        rho = density(rng, n, n)
        a1 = hermitian(rng, n)
        a2 = a1 @ a1 if i == 0 else hermitian(rng, n)
        return rho, a1, a2

    def check(self, spec, out: Path):
        cols = read_csv(out / "uncertainty.csv")
        summary = read_json(out / "summary.json")
        lhs, rhs, margin = cols["lhs"], cols["rhs"], cols["margin"]
        require(lhs.size == self.draws and summary["samples"] == self.draws,
                "ensemble.rows", f"{lhs.size} rows for {self.draws} draws")
        require(summary["violations"] == 0, "ensemble.violations")
        require(np.all(lhs >= rhs - 1e-10), "ensemble.robertson",
                f"lhs < rhs on row {int(np.argmin(lhs - rhs))}")
        require(np.allclose(margin, lhs - rhs, rtol=0, atol=1e-12),
                "ensemble.margin")
        for i in self.recheck_rows:
            if i >= self.draws:
                continue
            rho, a1, a2 = self.regenerate(spec.seed, i)

            def var(a):
                mean = np.trace(rho @ a).real
                return max(np.trace(rho @ a @ a).real - mean * mean, 0.0)

            want_lhs = np.sqrt(var(a1)) * np.sqrt(var(a2))
            want_rhs = abs(np.trace(rho @ (a1 @ a2 - a2 @ a1))) / 2
            scale = opnorm(a1) * opnorm(a2)
            require(abs(lhs[i] - want_lhs) <= 1e-9 * scale, "ensemble.recompute",
                    f"row {i} lhs {lhs[i]!r} vs {want_lhs!r}")
            require(abs(rhs[i] - want_rhs) <= 1e-9 * scale, "ensemble.recompute",
                    f"row {i} rhs {rhs[i]!r} vs {want_rhs!r}")
            if i == 0:
                require(rhs[0] <= 1e-12 * scale, "ensemble.commuting_row",
                        f"rhs {rhs[0]!r} for a commuting pair")


# ---------------------------------------------------------------------------
# structure: GNS, commutants, spectral measures and the Weyl obstruction


class Structure(Workload):
    """GNS on a pure and a rank-2 state of the algebra two random
    self-adjoint generators make (generically all of M_n), the commutant
    of both representations, one spectral measure, the Weyl CLI and the
    obstruction report."""

    name = "structure"

    # n = 5: the commutant does over half the work and a 40 s run still has
    # more than 100 jobs (see README.md, Sizes)
    def __init__(self, cs, workdir, n: int = 5, rank: int = 2, grid_n: int = 64,
                 weyl_n: int = 16):
        super().__init__(cs, workdir)
        self.n, self.rank, self.grid_n, self.weyl_n = n, rank, grid_n, weyl_n

    def make_input(self, seed: int, j: int):
        n = self.n
        rng = np.random.default_rng([seed, j])
        gens = [hermitian(rng, n), hermitian(rng, n)]
        states = {"pure": density(rng, n, 1), "mixed": density(rng, n, self.rank)}
        length = float(rng.uniform(8.0, 24.0))
        argv = {}
        for label, rho in states.items():
            cfg = {"generators": [matrix_json(g) for g in gens],
                   "state": {"density": matrix_json(rho)}}
            argv[label] = self.cli_args("gns", cfg, tag=f"gns_{label}")
        argv["weyl"] = self.cli_args(
            "weyl", {"n": self.weyl_n, "grid": {"N": self.grid_n, "L": length}})
        return SimpleNamespace(gens=gens, states=states, length=length, argv=argv)

    def run(self, spec):
        cs = self.cs
        gns_out, comm = {}, {}
        for label in spec.states:
            out = gns_out[label] = self.call(spec.argv[label])
            data = json.loads((out / "gns_result.json").read_text())
            rep = [cs.serialization.matrix_from_json(m) for m in data["rep"]]
            comm[label] = cs.gns.commutant(rep)
        measure = cs.spectral.spectral_measure(
            cs.states.DensityState(spec.states["mixed"]),
            cs.algebra.AlgebraElement(spec.gens[0]))
        weyl_out = self.call(spec.argv["weyl"])
        report = cs.weyl.heisenberg_obstruction_report(
            cs.weyl.Grid1D(N=self.grid_n, L=spec.length))
        return SimpleNamespace(gns_out=gns_out, commutant=comm, measure=measure,
                               weyl_out=weyl_out, obstruction=report)

    def check(self, spec, res):
        n = self.n
        basis = self.cs.algebra.generate_algebra(
            [self.cs.algebra.AlgebraElement(g) for g in spec.gens]).matrices()
        d = basis.shape[0]
        require(d == n * n, "structure.basis", f"dimension {d}, expected {n * n}")
        flat = basis.reshape(d, -1)
        require(np.allclose(flat.conj() @ flat.T, np.eye(d), atol=1e-10),
                "structure.basis", "not Frobenius-orthonormal")
        # coefficients of A_j* and of A_j A_k in the basis
        adj = np.einsum("mab,jba->jm", basis.conj(), basis.conj())
        prod = np.einsum("lab,jac,kcb->ljk", basis.conj(), basis, basis)
        for label, rho in spec.states.items():
            rank = 1 if label == "pure" else self.rank
            self.check_gns(label, rho, rank, basis, adj, prod,
                           res.gns_out[label], res.commutant[label])
        self.check_measure(spec, res.measure)
        self.check_weyl(res.weyl_out, spec.length)
        self.check_obstruction(res.obstruction, spec.length)

    def check_gns(self, label, rho, rank, basis, adj, prod, out, comm):
        n = self.n
        verdicts = read_json(out / "verdicts.json")
        data = read_json(out / "gns_result.json")
        rep = pairs_to_array(data["rep"])
        psi = pairs_to_array(data["cyclic_vector"])
        h = n * rank
        require(data["hilbert_dim"] == h and rep.shape[1:] == (h, h),
                "structure.hilbert_dim",
                f"{label}: {data['hilbert_dim']}, expected n*rank = {h}")
        require(verdicts["irreducible"] == (rank == 1) and verdicts["pure"] == (rank == 1),
                "structure.verdicts", f"{label}: {verdicts}")
        scale = max(1.0, float(np.abs(rep).max()))
        # <psi, pi(A_j) psi> = tr(rho A_j)
        got = np.einsum("a,jab,b->j", psi.conj(), rep, psi)
        want = np.einsum("ab,jba->j", rho, basis)
        require(np.abs(got - want).max() <= 1e-9 * scale, "structure.expectation",
                f"{label}: error {np.abs(got - want).max():.2e}")
        # pi(A_j)* = pi(A_j*)
        err = np.abs(rep.conj().transpose(0, 2, 1) - np.einsum("jm,mab->jab", adj, rep)).max()
        require(err <= 1e-9 * scale, "structure.adjoint", f"{label}: error {err:.2e}")
        # pi(A_j) pi(A_k) = pi(A_j A_k)
        err = np.abs(np.einsum("jab,kbc->jkac", rep, rep)
                     - np.einsum("ljk,lac->jkac", prod, rep)).max()
        require(err <= 1e-8 * scale**2, "structure.product", f"{label}: error {err:.2e}")
        # commutant dimension rank^2: irreducible exactly when pure
        require(len(comm) == rank * rank, "structure.commutant",
                f"{label}: dimension {len(comm)}, expected {rank * rank}")
        for m in comm:
            resid = np.abs(np.einsum("ab,jbc->jac", m, rep)
                           - np.einsum("jab,bc->jac", rep, m)).max()
            require(resid <= 1e-8 * scale, "structure.commutant",
                    f"{label}: element does not commute ({resid:.2e})")

    def check_measure(self, spec, mu):
        rho, a = spec.states["mixed"], spec.gens[0]
        lam = np.array([z for z, _ in mu.atoms])
        w = np.array([wt for _, wt in mu.atoms])
        scale = max(1.0, opnorm(a))
        ak = np.eye(self.n)
        for k in range(5):
            got = np.sum(w * lam**k)
            want = np.trace(rho @ ak)
            require(abs(got - want) <= 1e-9 * scale**k, "structure.moments",
                    f"moment {k}: {got!r} vs {want!r}")
            ak = ak @ a

    def check_weyl(self, out: Path, length: float):
        rep = read_json(out / "weyl_report.json")
        cs_, grid = rep["clock_shift"], rep["grid"]
        require(cs_["n"] == self.weyl_n and grid["N"] == self.grid_n
                and grid["L"] == length, "structure.weyl", "config not echoed")
        require(cs_["relation_residual"] <= 1e-12 * self.weyl_n
                and cs_["unitarity_residual"] <= 1e-12
                and cs_["order_residual"] <= 1e-10 * self.weyl_n
                and grid["relation_residual"] <= 1e-10,
                "structure.weyl", f"residuals {cs_} {grid}")

    def check_obstruction(self, rep, length: float):
        big_n = self.grid_n
        # ||X|| = L/2 and ||P|| = pi N / L on the periodic grid
        want = np.pi * big_n / 2
        require(abs(rep.norm_product - want) <= 1e-9 * want, "structure.obstruction",
                f"norm product {rep.norm_product!r}, expected pi N / 2 = {want!r}")
        require(abs(rep.trace_of_commutator) <= 1e-9 * want * big_n,
                "structure.obstruction", f"tr[P, X] = {rep.trace_of_commutator!r}")
        require(rep.full_matrix_deviation >= 1.0 - 1e-9, "structure.obstruction",
                f"full deviation {rep.full_matrix_deviation!r} < 1")
        require(rep.sign == -1, "structure.obstruction", f"sign {rep.sign}")
        emp = max(b[2] for b in rep.lower_bounds)
        require(rep.norm_product >= emp * (1 - 1e-12), "structure.obstruction",
                f"norm product {rep.norm_product!r} below bound {emp!r}")


# ---------------------------------------------------------------------------
# trajectory: split-operator dynamics next to the classical leapfrog


class Trajectory(Workload):
    """A recorded Strang run of a harmonic coherent packet from a seeded
    (x0, p0), the Ehrenfest check, unrecorded runs at dt and dt/2 against
    the exact propagator, and the classical CLI for the same duration."""

    name = "trajectory"

    def __init__(self, cs, workdir, grid_n: int = 128, length: float = 16.0,
                 dt: float = 1e-3, t_final: float = 0.5, classical_dt: float = 1e-3,
                 points: int = 8):
        super().__init__(cs, workdir)
        self.grid_n, self.length, self.dt, self.t_final = grid_n, length, dt, t_final
        self.classical_dt, self.points = classical_dt, points

    @property
    def classical_steps(self) -> int:
        return int(round(self.t_final / self.classical_dt))

    def make_input(self, seed: int, j: int):
        rng = np.random.default_rng([seed, j])
        x0, p0 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        cli_seed = int(rng.integers(2**31))
        evolve = {
            "grid": {"N": self.grid_n, "L": self.length},
            "potential": {"name": "harmonic", "params": {"omega": 1.0}},
            "dt": self.dt, "t_final": self.t_final,
            "initial": {"x0": x0, "p0": p0, "sigma": 2**-0.5},
        }
        classical = {"points": self.points, "dt": self.classical_dt,
                     "steps": self.classical_steps}
        argv_e = self.cli_args("evolve", evolve)
        argv_c = self.cli_args("classical", classical, cli_seed)
        return SimpleNamespace(x0=x0, p0=p0, seed=cli_seed,
                               argv={"evolve": argv_e, "classical": argv_c})

    def run(self, spec):
        cs = self.cs
        evolve_out = self.call(spec.argv["evolve"])
        grid = cs.weyl.Grid1D(N=self.grid_n, L=self.length)
        psi0 = cs.weyl.WaveFunction.gaussian(grid, x0=spec.x0, p0=spec.p0,
                                             sigma=2**-0.5)
        pot = cs.dynamics.make_potential("harmonic", omega=1.0)

        def cfg(dt, method="split-operator"):
            return cs.dynamics.EvolutionConfig(dt=dt, t_final=self.t_final,
                                               potential=pot, method=method)

        ehrenfest = cs.dynamics.ehrenfest_check(psi0, cfg(self.dt))
        finals = [cs.dynamics.evolve_schrodinger(psi0, cfg(dt))
                  for dt in (self.dt, self.dt / 2)]
        exact = cs.dynamics.evolve_schrodinger(psi0, cfg(self.dt, "exact-diagonalization"))
        classical_out = self.call(spec.argv["classical"])
        return SimpleNamespace(
            evolve_out=evolve_out, classical_out=classical_out, ehrenfest=ehrenfest,
            strang=[f.samples for f in finals], exact=exact.samples, dx=grid.dx)

    def check(self, spec, res):
        self.check_evolve(spec, res.evolve_out)
        self.check_strang(res)
        self.check_ehrenfest(spec, res.ehrenfest)
        self.check_classical(spec, res.classical_out)

    def check_evolve(self, spec, out: Path):
        x0, p0, dt = spec.x0, spec.p0, self.dt
        cols = read_csv(out / "trajectory.csv")
        summary = read_json(out / "evolve_summary.json")
        t = cols["t"]
        require(t.size == int(round(self.t_final / dt)) + 1
                and abs(t[-1] - self.t_final) <= 1e-9, "trajectory.times",
                f"{t.size} rows ending at t = {t[-1]!r}")
        # velocity Verlet on the means: error <= dt^2 (|x0| + |p0|) (t/24 + 1/8)
        tol = 2 * dt**2 * (abs(x0) + abs(p0)) * (self.t_final / 24 + 1 / 8) + 1e-10
        x_err = np.abs(cols["x_mean"] - (x0 * np.cos(t) + p0 * np.sin(t))).max()
        p_err = np.abs(cols["p_mean"] - (p0 * np.cos(t) - x0 * np.sin(t))).max()
        require(x_err <= tol, "trajectory.x_mean", f"error {x_err:.2e} > {tol:.2e}")
        require(p_err <= tol, "trajectory.p_mean", f"error {p_err:.2e} > {tol:.2e}")
        norm_drift = np.abs(cols["norm"] - 1.0).max()
        e = cols["energy"]
        # coherent packet: <H> = (x0^2 + p0^2 + 1) / 2
        e_want = (x0**2 + p0**2 + 1) / 2
        e_drift = np.abs(e - e[0]).max() / e[0]
        require(norm_drift <= 1e-8 and summary["norm_drift"] <= 1e-8,
                "trajectory.norm_drift", f"{norm_drift:.2e}")
        require(e_drift <= 1e-6 and summary["energy_drift_rel"] <= 1e-6
                and abs(e[0] - e_want) <= 1e-9 * e_want,
                "trajectory.energy", f"drift {e_drift:.2e}, E0 {e[0]!r} vs {e_want!r}")

    def check_strang(self, res):
        errs = [np.linalg.norm(s - res.exact) * np.sqrt(res.dx) for s in res.strang]
        order = np.log2(errs[0] / errs[1])
        require(1.8 <= order <= 2.2, "trajectory.strang_order",
                f"order {order:.3f} from errors {errs}")

    def check_ehrenfest(self, spec, rep):
        tol = self.dt**2 * (abs(spec.x0) + abs(spec.p0) + 1) + 1e-10
        require(rep.force_sign == -1, "trajectory.ehrenfest", f"sign {rep.force_sign}")
        require(rep.dX_dt_gap <= tol and rep.dP_dt_gap <= tol, "trajectory.ehrenfest",
                f"gaps {rep.dX_dt_gap:.2e}, {rep.dP_dt_gap:.2e} > {tol:.2e}")

    def check_classical(self, spec, out: Path):
        dt, steps = self.classical_dt, self.classical_steps
        cols = read_csv(out / "harmonic_trajectory.csv")
        t, q = cols["t"], cols["q"]
        require(t.size == steps + 1, "trajectory.leapfrog", f"{t.size} rows")
        tol = 2 * dt**2 * (self.t_final / 24 + 1 / 8)
        err = np.abs(q - np.cos(t)).max()
        require(err <= tol, "trajectory.leapfrog", f"q(t) error {err:.2e} > {tol:.2e}")
        summary = read_json(out / "classical_summary.json")
        require(summary["energy_drift"] < 1e-4, "trajectory.leapfrog",
                f"energy drift {summary['energy_drift']:.2e}")
        # the bracket table, against points regenerated from the seed
        with open(out / "bracket_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        require(len(rows) == 3 * self.points, "trajectory.poisson", f"{len(rows)} rows")
        rng = np.random.default_rng(spec.seed)
        for i in range(self.points):
            qz, pz = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            want = {"{X,P_X}=1": 1.0, "{Q,Q}=0": 0.0,
                    "{L_X,L_Y}=L_Z": qz[0] * pz[1] - qz[1] * pz[0]}
            for label, point, lhs, rhs, _ in rows[3 * i: 3 * i + 3]:
                require(int(point) == i and label in want, "trajectory.poisson",
                        f"row {label} {point}")
                require(abs(float(rhs) - want[label]) <= 1e-12 * (1 + abs(want[label]))
                        and abs(float(lhs) - want[label]) <= 1e-6,
                        "trajectory.poisson", f"{label} at point {i}: {lhs} vs {want[label]}")


WORKLOADS = {w.name: w for w in (Ensemble, Structure, Trajectory)}
