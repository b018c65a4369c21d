"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q

Each workload runs end to end, and each correctness check is shown to
reject a deliberately corrupted result.
"""

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import CheckError, Ensemble, Structure, Trajectory  # noqa: E402

TINY = {
    Ensemble: dict(dim=3, draws=5),
    Structure: dict(n=2, rank=2, grid_n=16, weyl_n=4),
    Trajectory: dict(grid_n=64, dt=5e-3, t_final=0.1, classical_dt=1e-2, points=2),
}


@pytest.fixture(scope="module")
def cs():
    sys.path.insert(0, str(run.SRC))
    return run.import_program()


def job(cs, tmp_path, cls, seed=3):
    wl = cls(cs, tmp_path, **TINY[cls])
    spec = wl.make_input(seed, 0)
    return wl, spec, wl.run(spec)


def rewrite_csv(path: Path, column: str, row: int, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(float(change(float(rows[row + 1][col]))))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def rewrite_json(path: Path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def rejects(wl, spec, result, check: str):
    with pytest.raises(CheckError, match=f"^{check}"):
        wl.check(spec, result)


@pytest.mark.parametrize("cls", [Ensemble, Structure, Trajectory])
def test_workload_end_to_end(cs, tmp_path, cls):
    wl, spec, result = job(cs, tmp_path, cls)
    wl.check(spec, result)


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "structure",
         "--seed", "5", "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_bare_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def failing_ensemble(main):
    """The tiny ensemble workload; every odd measured job's CLI run is
    ``main(argv)`` in place of the program, the other jobs run as usual."""
    class Failing(Ensemble):
        def __init__(self, cs, workdir):
            super().__init__(cs, workdir, **TINY[Ensemble])

        def make_input(self, seed, j):
            spec = super().make_input(seed, j)
            spec.fails = j < run.WARMUP_BASE and j % 2 == 1
            return spec

        def run(self, spec):
            if not spec.fails:
                return super().run(spec)
            real = self.cs
            self.cs = SimpleNamespace(cli=SimpleNamespace(
                main=main, EXIT_CHECK_FAILED=real.cli.EXIT_CHECK_FAILED))
            try:
                return super().run(spec)
            finally:
                self.cs = real
    return Failing


def raise_attribute_error(argv):
    raise AttributeError("an API the benchmark relies on is gone")


@pytest.mark.parametrize("main, correct, failed", [
    (lambda argv: 1, False, False),   # the program's own check failed
    (lambda argv: 2, True, True),     # the program refused the input
    (raise_attribute_error, False, False),
])
def test_failing_jobs_fail_the_run(monkeypatch, capsys, main, correct, failed):
    monkeypatch.setitem(run.WORKLOADS, "ensemble", failing_ensemble(main))
    code = run.main(["--workload", "ensemble", "--seed", "1", "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["attempted"] >= 2
    assert result["correct"] is correct
    assert (result["failed"] > 0) is failed


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    tr.active = True
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    tr.end[1], tr.start[1] = 3.0, 1.0
    tr.end[0], tr.start[0] = 5.0, 0.0
    assert list(tr.self_times()) == [3.0, 2.0]
    assert list(tr.parent) == [-1, 0]


def test_job_shares(tmp_path):
    tr = spans.Tracer()
    tr.active = True
    with tr.span("bench.job"):
        with tr.span("inner"):
            pass
    tr.start[0], tr.end[0] = 0.0, 4.0
    tr.start[1], tr.end[1] = 1.0, 4.0
    tr.write(tmp_path / "trace.npz")
    assert spans.job_shares(tmp_path / "trace.npz") == [(0.75, "inner"), (0.25, "bench.job")]


def test_tracer_wraps_every_binding():
    cs = run.import_program()   # the modules now in sys.modules, which it wraps
    tr = spans.Tracer()
    tr.install()
    try:
        assert cs.cli.uncertainty_check is cs.states.uncertainty_check
        assert cs.cli.uncertainty_check.__wrapped__.__module__ == "cstarmech.states"
        tr.active = True
        cs.algebra.operator_norm(np.eye(2))
        tr.active = False
        cs.algebra.operator_norm(np.eye(2))
    finally:
        tr.uninstall()
    assert not hasattr(cs.cli.uncertainty_check, "__wrapped__")
    per_job = tr.per_job(1)
    assert per_job["algebra.operator_norm.calls"][0] == 1
    assert per_job["kernel.norm.calls"][0] == 1


# -- ensemble ---------------------------------------------------------------


def ensemble_job(cs, tmp_path):
    wl, spec, out = job(cs, tmp_path, Ensemble)
    _, a1, _ = wl.regenerate(spec.seed, 0)
    scale = np.linalg.norm(a1, 2) ** 3
    return wl, spec, out, scale


def set_row(out, row, lhs=None, rhs=None):
    """Change one row's lhs or rhs, keeping its margin consistent."""
    path = out / "uncertainty.csv"
    with open(path, newline="") as fh:
        old_lhs, old_rhs, _ = (float(v) for v in list(csv.reader(fh))[row + 1])
    lhs = old_lhs if lhs is None else lhs
    rhs = old_rhs if rhs is None else rhs
    for column, value in (("lhs", lhs), ("rhs", rhs), ("margin", lhs - rhs)):
        rewrite_csv(path, column, row, lambda _, value=value: value)
    return old_lhs


def test_ensemble_rejects_robertson_violation(cs, tmp_path):
    wl, spec, out, _ = ensemble_job(cs, tmp_path)
    lhs = set_row(out, 2)
    set_row(out, 2, rhs=lhs + 1.0)
    rejects(wl, spec, out, "ensemble.robertson")


def test_ensemble_rejects_margin(cs, tmp_path):
    wl, spec, out, _ = ensemble_job(cs, tmp_path)
    rewrite_csv(out / "uncertainty.csv", "margin", 1, lambda v: v + 1e-6)
    rejects(wl, spec, out, "ensemble.margin")


def test_ensemble_rejects_commuting_row(cs, tmp_path):
    wl, spec, out, scale = ensemble_job(cs, tmp_path)
    set_row(out, 0, rhs=1e-10 * scale)
    rejects(wl, spec, out, "ensemble.commuting_row")


def test_ensemble_rejects_recomputed_row(cs, tmp_path):
    wl, spec, out, _ = ensemble_job(cs, tmp_path)
    lhs = set_row(out, 1)
    set_row(out, 1, lhs=lhs * (1 + 1e-6))
    rejects(wl, spec, out, "ensemble.recompute")


def test_ensemble_rejects_summary(cs, tmp_path):
    wl, spec, out, _ = ensemble_job(cs, tmp_path)
    rewrite_json(out / "summary.json", lambda d: d.update(violations=1))
    rejects(wl, spec, out, "ensemble.violations")


# -- structure --------------------------------------------------------------


def gns_file(res, label="mixed"):
    return res.gns_out[label] / "gns_result.json"


def perturb_rep(res, label, change):
    """Apply ``change(rep, psi)`` to one stored GNS representation."""
    def edit(data):
        rep = np.asarray(data["rep"], dtype=float)
        rep = rep[..., 0] + 1j * rep[..., 1]
        psi = np.asarray(data["cyclic_vector"], dtype=float)
        psi = psi[:, 0] + 1j * psi[:, 1]
        rep = change(rep, psi)
        data["rep"] = np.stack([rep.real, rep.imag], axis=-1).tolist()
    rewrite_json(gns_file(res, label), edit)


def orthogonal_projector(psi):
    """A Hermitian K with <psi, K psi> = 0."""
    w = np.zeros_like(psi)
    w[np.argmin(np.abs(psi))] = 1.0
    w = w - psi * np.vdot(psi, w) / np.vdot(psi, psi)
    return np.outer(w, w.conj())


def test_structure_rejects_hilbert_dim(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Structure)
    rewrite_json(gns_file(res), lambda d: d.update(hilbert_dim=d["hilbert_dim"] + 1))
    rejects(wl, spec, res, "structure.hilbert_dim")


def test_structure_rejects_verdicts(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Structure)
    rewrite_json(res.gns_out["mixed"] / "verdicts.json",
                 lambda d: d.update(irreducible=True))
    rejects(wl, spec, res, "structure.verdicts")


def test_structure_rejects_expectation(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Structure)
    rewrite_json(gns_file(res, "pure"),
                 lambda d: d["cyclic_vector"][0].__setitem__(0, d["cyclic_vector"][0][0] + 1e-3))
    rejects(wl, spec, res, "structure.expectation")


def test_structure_rejects_adjoint(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Structure)

    def change(rep, psi):
        rep[1] += 1e-3j * orthogonal_projector(psi)
        return rep
    perturb_rep(res, "mixed", change)
    rejects(wl, spec, res, "structure.adjoint")


def test_structure_rejects_product(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Structure)
    basis = cs.algebra.generate_algebra(
        [cs.algebra.AlgebraElement(g) for g in spec.gens]).matrices()
    traces = np.einsum("jaa->j", basis)

    def change(rep, psi):
        # a *-linear map that keeps adjoints and <psi, . psi> but not products
        return rep + 1e-3 * traces[:, None, None] * orthogonal_projector(psi)
    perturb_rep(res, "mixed", change)
    rejects(wl, spec, res, "structure.product")


def test_structure_rejects_commutant(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Structure)
    res.commutant["mixed"] = res.commutant["mixed"][:-1]
    rejects(wl, spec, res, "structure.commutant")
    res.commutant["mixed"].append(np.diag(np.arange(len(res.commutant["mixed"][0]))))
    rejects(wl, spec, res, "structure.commutant")


def test_structure_rejects_moments(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Structure)
    atoms = [(lam, w) for lam, w in res.measure.atoms]
    atoms[0] = (atoms[0][0] + 1e-3, atoms[0][1])
    res.measure = SimpleNamespace(atoms=tuple(atoms))
    rejects(wl, spec, res, "structure.moments")


def test_structure_rejects_weyl(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Structure)
    rewrite_json(res.weyl_out / "weyl_report.json",
                 lambda d: d["grid"].update(relation_residual=1e-3))
    rejects(wl, spec, res, "structure.weyl")


@pytest.mark.parametrize("field, value", [
    ("norm_product", 1.0), ("trace_of_commutator", 1e-3j),
    ("full_matrix_deviation", 0.5), ("sign", 1)])
def test_structure_rejects_obstruction(cs, tmp_path, field, value):
    wl, spec, res = job(cs, tmp_path, Structure)
    res.obstruction = dataclasses.replace(res.obstruction, **{field: value})
    rejects(wl, spec, res, "structure.obstruction")


# -- trajectory -------------------------------------------------------------


@pytest.mark.parametrize("column, change, check", [
    ("x_mean", lambda v: v + 1e-5, "trajectory.x_mean"),
    ("p_mean", lambda v: v - 1e-5, "trajectory.p_mean"),
    ("norm", lambda v: v + 1e-7, "trajectory.norm_drift"),
    ("energy", lambda v: v * (1 + 1e-5), "trajectory.energy"),
])
def test_trajectory_rejects_evolve(cs, tmp_path, column, change, check):
    wl, spec, res = job(cs, tmp_path, Trajectory)
    rewrite_csv(res.evolve_out / "trajectory.csv", column, 5, change)
    rejects(wl, spec, res, check)


def test_trajectory_rejects_short_run(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Trajectory)
    path = res.evolve_out / "trajectory.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    rejects(wl, spec, res, "trajectory.times")


def test_trajectory_rejects_strang_order(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Trajectory)
    res.strang = [res.strang[0], res.strang[0]]
    rejects(wl, spec, res, "trajectory.strang_order")


def test_trajectory_rejects_ehrenfest(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Trajectory)
    res.ehrenfest = dataclasses.replace(res.ehrenfest, force_sign=1)
    rejects(wl, spec, res, "trajectory.ehrenfest")
    res.ehrenfest = dataclasses.replace(res.ehrenfest, force_sign=-1, dP_dt_gap=1e-3)
    rejects(wl, spec, res, "trajectory.ehrenfest")


def test_trajectory_rejects_leapfrog(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Trajectory)
    rewrite_csv(res.classical_out / "harmonic_trajectory.csv", "q", 4, lambda v: v + 1e-3)
    rejects(wl, spec, res, "trajectory.leapfrog")


def test_trajectory_rejects_poisson(cs, tmp_path):
    wl, spec, res = job(cs, tmp_path, Trajectory)
    rewrite_csv(res.classical_out / "bracket_table.csv", "lhs", 5, lambda v: v + 1e-4)
    rejects(wl, spec, res, "trajectory.poisson")
