import argparse
import ast
import csv
import inspect
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from cstarmech import cli
from cstarmech.classical import HARMONIC, PhasePoint, bracket_table, hamilton_flow
from cstarmech.cli import main
from cstarmech.errors import NumericalError
from cstarmech.sampling import density_matrix, random_density, random_selfadjoint
from cstarmech.serialization import dump_json, matrix_to_json, trajectory_to_csv
from cstarmech.states import uncertainty_check

from conftest import CLI_CONFIGS, SUITE_SEED, SX, SY, SZ, lapack_fails


def write_cfg(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def run(tmp_path, command, cfg, seed=None, outname="out"):
    cfg_path = write_cfg(tmp_path, cfg, name=f"{command}_{outname}.json")
    out = tmp_path / outname
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


def pure_state_cfg():
    return {
        "generators": [matrix_to_json(SX), matrix_to_json(SY)],
        "state": {"density": matrix_to_json(np.diag([1.0, 0.0]))},
    }


class TestUncertainty:
    def test_clean_run(self, tmp_path):
        code, out = run(
            tmp_path, "uncertainty",
            {"dim": 3, "samples": 50, "include_commuting": True}, seed=11,
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 0
        assert (out / "uncertainty.csv").exists()
        assert (out / "manifest.json").exists()

    def test_bad_dim_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "uncertainty", {"dim": 1})
        assert code == 2

    @staticmethod
    def per_draw_outputs(out, dim, samples, commuting, seed):
        """uncertainty.csv and summary.json from one checked draw at a time."""
        rows = []
        for i in range(samples):
            rng = np.random.default_rng([seed, i])
            omega = random_density(rng, dim)
            a1 = random_selfadjoint(rng, dim)
            a2 = a1 @ a1 if commuting and i == 0 else random_selfadjoint(rng, dim)
            rep = uncertainty_check(omega, a1, a2)
            rows.append((rep.lhs, rep.rhs, rep.lhs - rep.rhs))
        lhs, rhs, margin = np.array(rows).T
        out.mkdir()
        (out / "uncertainty.csv").write_text(
            trajectory_to_csv({"lhs": lhs, "rhs": rhs, "margin": margin})
        )
        summary = {"dim": dim, "samples": samples,
                   "violations": int(np.sum(margin < -1e-10)),
                   "min_margin": float(margin.min())}
        dump_json(summary, out / "summary.json")

    # dim 4 draws fit one block; at dim 8 a block holds 32 draws, so the
    # dim 8 counts sit one below, on and one above a block edge, and past two
    @pytest.mark.parametrize("dim, samples", [
        *[pytest.param(4, s, id=str(s)) for s in (1, 16, 17, 37)],
        *[pytest.param(8, s, id=f"dim8-{s}") for s in (31, 32, 33, 65)],
    ])
    @pytest.mark.parametrize("commuting", [True, False])
    def test_blocks_match_per_draw_reference(self, tmp_path, dim, samples, commuting):
        cfg = {"dim": dim, "samples": samples, "include_commuting": commuting}
        code, out = run(tmp_path, "uncertainty", cfg, seed=21)
        assert code == 0
        self.per_draw_outputs(tmp_path / "ref", dim, samples, commuting, seed=21)
        for name in ("uncertainty.csv", "summary.json"):
            assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_failed_draw_check_names_the_draw(self, tmp_path, monkeypatch, capsys):
        real = cli._uncertainty_draws

        def draws(seed, n, rows, commuting):
            b, a1, a2 = real(seed, n, rows, commuting)
            if bad in rows:
                b[rows.index(bad)] *= 2  # trace 2
            return b, a1, a2

        monkeypatch.setattr(cli, "_uncertainty_draws", draws)
        # dim 3 draws all fit one block; dim 8 draw 40 is row 8 of the second
        for dim, bad, text in [(3, 19, "draws 0-69, row 19: trace must be 1"),
                               (8, 40, "draws 32-63, row 8: trace must be 1")]:
            code, out = run(tmp_path, "uncertainty", {"dim": dim, "samples": 70},
                            outname=f"out{dim}")
            assert code == 2
            assert text in capsys.readouterr().err
            assert not (out / "uncertainty.csv").exists()

    @pytest.mark.parametrize("commuting", [True, False])
    def test_memory_is_bounded_by_the_block(self, commuting):
        def peak(samples):
            cfg = {"dim": 8, "samples": samples, "include_commuting": commuting}
            tracemalloc.start()
            try:
                cli.cmd_uncertainty(cfg, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(100), peak(1000)
        assert max(small, large) <= 1 << 20
        assert large <= 1.25 * small


class TestGns:
    def test_pure_state(self, tmp_path):
        code, out = run(tmp_path, "gns", pure_state_cfg())
        assert code == 0
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert verdicts["hilbert_dim"] == 2
        assert verdicts["irreducible"] and verdicts["pure"]
        assert verdicts["reconstruction_max_error"] <= 1e-9

    def test_tracial_state(self, tmp_path):
        cfg = pure_state_cfg()
        cfg["state"]["density"] = matrix_to_json(np.eye(2) / 2)
        code, out = run(tmp_path, "gns", cfg)
        assert code == 0
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert verdicts["hilbert_dim"] == 4
        assert not verdicts["irreducible"] and not verdicts["pure"]

    def test_purity_is_judged_on_the_generated_algebra(self, tmp_path):
        # |+> is pure on M_2 but restricts to the tracial state on the diagonals
        cfg = {
            "generators": [matrix_to_json(SZ)],
            "state": {"density": matrix_to_json(np.full((2, 2), 0.5))},
        }
        code, out = run(tmp_path, "gns", cfg)
        assert code == 0
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert verdicts["hilbert_dim"] == 2
        assert not verdicts["irreducible"] and not verdicts["pure"]

    def test_missing_state_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "gns", {"generators": [matrix_to_json(SX)]})
        assert code == 2

    def test_malformed_matrix_is_config_error(self, tmp_path):
        cfg = pure_state_cfg()
        cfg["generators"][0] = [[1.0, 0.0]]
        code, _ = run(tmp_path, "gns", cfg)
        assert code == 2


class TestWeyl:
    def test_clock_shift_and_grid(self, tmp_path):
        code, out = run(tmp_path, "weyl", {"n": 16, "grid": {"N": 64, "L": 8.0}})
        assert code == 0
        rep = json.loads((out / "weyl_report.json").read_text())
        assert rep["clock_shift"]["relation_residual"] <= 1e-12 * 16
        assert rep["grid"]["relation_residual"] <= 1e-10
        # the sidecar names every bound the checks use
        tols = json.loads((out / "weyl_report.json.meta.json").read_text())["tolerances"]
        assert tols == {"clock_shift": {"relation_residual": 1e-12 * 16,
                                        "unitarity_residual": 1e-12,
                                        "order_residual": 1e-10 * 16},
                        "grid": {"relation_residual": 1e-10}}
        checks = read_manifest(out)["checks"]
        assert [c["name"] for c in checks] == [
            "clock_shift.relation_residual", "clock_shift.unitarity_residual",
            "clock_shift.order_residual", "grid.relation_residual"]
        for c in checks:
            section, key = c["name"].split(".")
            assert c["tol"] == tols[section][key]

    def test_empty_config_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "weyl", {})
        assert code == 2


class TestEvolve:
    CFG = {
        "grid": {"N": 256, "L": 20.0},
        "potential": {"name": "harmonic", "params": {"omega": 1.0}},
        "dt": 1e-3,
        "t_final": 0.5,
        "initial": {"x0": 1.0, "sigma": 0.7071067811865476},
    }

    def test_run_and_outputs(self, tmp_path):
        code, out = run(tmp_path, "evolve", self.CFG)
        assert code == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["norm_drift"] <= 1e-8
        assert summary["energy_drift_rel"] <= 1e-6
        header = (out / "trajectory.csv").read_text().split("\n", 1)[0]
        assert header == "t,x_mean,p_mean,energy,norm"

    def test_unknown_potential_is_config_error(self, tmp_path):
        cfg = dict(self.CFG, potential={"name": "linear"})
        code, _ = run(tmp_path, "evolve", cfg)
        assert code == 2

    def test_non_numeric_grid_size_is_config_error(self, tmp_path):
        cfg = dict(self.CFG, grid={"N": "abc", "L": 20.0})
        code, out = run(tmp_path, "evolve", cfg)
        assert code == 2
        assert not (out / "trajectory.csv").exists()

    def test_unreachable_t_final_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "evolve", dict(self.CFG, dt=0.3, t_final=1.0))
        assert code == 2


class TestSpectrum:
    def test_grid_harmonic_with_expectation(self, tmp_path):
        cfg = {
            "kind": "grid",
            "grid": {"N": 512, "L": 20.0},
            "potential": {"name": "harmonic"},
            "k": 4,
            "expect": {"values": [0.5, 1.5, 2.5, 3.5], "tol": 1e-4},
        }
        code, out = run(tmp_path, "spectrum", cfg)
        assert code == 0
        check = json.loads((out / "spectrum_check.json").read_text())
        assert check["ok"] and check["max_error"] <= 1e-4

    def test_radial_hydrogen(self, tmp_path):
        cfg = {
            "kind": "radial",
            "r_max": 120.0,
            "M": 2400,
            "k": 2,
            "expect": {"values": [-0.5, -0.125], "tol": 0.01, "relative": True},
        }
        code, out = run(tmp_path, "spectrum", cfg)
        assert code == 0
        vals = json.loads((out / "spectrum.json").read_text())["eigenvalues"]
        assert len(vals) == 2 and vals[0] < vals[1] < 0

    def test_failed_expectation_exits_1(self, tmp_path):
        cfg = {
            "kind": "grid",
            "grid": {"N": 128, "L": 16.0},
            "potential": {"name": "harmonic"},
            "k": 2,
            "expect": {"values": [0.4, 1.4], "tol": 1e-6},
        }
        code, _ = run(tmp_path, "spectrum", cfg)
        assert code == 1

    def test_unknown_kind_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "spectrum", {"kind": "lattice"})
        assert code == 2


class TestClassical:
    def test_run(self, tmp_path):
        cfg = {"points": 20, "dt": 1e-2, "steps": 500}
        code, out = run(tmp_path, "classical", cfg, seed=3)
        assert code == 0
        summary = json.loads((out / "classical_summary.json").read_text())
        assert summary["max_bracket_error"] <= 1e-6
        assert summary["energy_drift"] < 1e-4
        assert (out / "harmonic_trajectory.csv").exists()
        # the bracket table as a plain csv.writer writes its rows
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["relation", "point", "lhs", "rhs", "abs_err"])
        for label, i, *values in bracket_table(20, np.random.default_rng(3)):
            writer.writerow([label, i, *map(repr, values)])
        assert (out / "bracket_table.csv").read_text() == buf.getvalue()

    def test_trajectory_columns_match_the_observable(self, tmp_path):
        # the H column holds HARMONIC(z) of every point, bit for bit
        code, out = run(tmp_path, "classical", {"points": 2, "dt": 0.02, "steps": 150})
        assert code == 0
        times, traj = hamilton_flow(HARMONIC, PhasePoint([1.0], [0.0]), 0.02, 150)
        want = trajectory_to_csv({"t": times, "q": [z.q[0] for z in traj],
                                  "p": [z.p[0] for z in traj],
                                  "H": [HARMONIC(z) for z in traj]})
        assert (out / "harmonic_trajectory.csv").read_text() == want

    def test_energy_overflow_is_the_observables_domain_error(self, tmp_path, capsys):
        # an unstable leapfrog (dt = 2.5) keeps finite coordinates past 1e154,
        # where (p^2 + q^2) / 2 overflows
        with np.errstate(over="ignore"):
            code, out = run(tmp_path, "classical", {"points": 2, "dt": 2.5, "steps": 370})
        message = "observable 'harmonic' non-finite at z"
        assert code == read_manifest(out)["exit_code"] == 2
        assert read_manifest(out)["error"] == {"class": "EvaluationDomainError",
                                               "message": message}
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "harmonic_trajectory.csv").exists()

    @pytest.mark.parametrize("steps, message", [
        (2000, "phase point must be finite"),
        (370, "observable 'harmonic' non-finite at z"),
    ], ids=["flow", "energy"])
    def test_flow_overflow_is_one_stderr_line(self, tmp_path, capsys, steps, message):
        # at dt = 2.5 the leapfrog itself overflows before step 2000, and the
        # energy of its finite coordinates before step 370; numpy adds no
        # warning to the refused phase point or energy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "classical", {"points": 2, "dt": 2.5, "steps": steps})
        assert code == read_manifest(out)["exit_code"] == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestHarness:
    def test_missing_config_file(self, tmp_path):
        code = main(
            ["weyl", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code = main(["weyl", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_jobs_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {"n": 4})
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["weyl", "--config", str(cfg_path), "--out", str(out), "--jobs", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed(self, tmp_path):
        code, out = run(tmp_path, "uncertainty", {"dim": 2, "samples": 3}, seed=-1)
        assert code == 2
        assert not (out / "uncertainty.csv").exists()

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, _ = run(tmp_path, "weyl", {"n": 4})
        assert code == 0
        assert built == []

    def test_manifest_contents(self, tmp_path):
        code, out = run(tmp_path, "weyl", {"n": 4})
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "weyl"
        assert manifest["exit_code"] == 0
        assert len(manifest["config_sha256"]) == 64

    def test_sidecar_metadata(self, tmp_path):
        code, out = run(tmp_path, "weyl", {"n": 4})
        assert code == 0
        meta = json.loads((out / "weyl_report.json.meta.json").read_text())
        assert "tolerances" in meta and "config_sha256" in meta

    def test_rerun_is_deterministic(self, tmp_path):
        cfg = {"dim": 2, "samples": 25}
        _, out1 = run(tmp_path, "uncertainty", cfg, seed=9, outname="r1")
        _, out2 = run(tmp_path, "uncertainty", cfg, seed=9, outname="r2")
        for name in ("uncertainty.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_samples(self, tmp_path):
        cfg = {"dim": 2, "samples": 25}
        _, out1 = run(tmp_path, "uncertainty", cfg, seed=1, outname="s1")
        _, out2 = run(tmp_path, "uncertainty", cfg, seed=2, outname="s2")
        assert (out1 / "uncertainty.csv").read_text() != (
            out2 / "uncertainty.csv"
        ).read_text()


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


class TestManifestOnEveryExit:
    """Every run that got past argument parsing leaves a manifest with its
    exit code and, on exits 2 and 3, the error's class and message."""

    def test_exit_0(self, tmp_path):
        code, out = run(tmp_path, "weyl", {"n": 4}, seed=5)
        manifest = read_manifest(out)
        assert code == manifest["exit_code"] == 0
        assert manifest["error"] is None and manifest["seed"] == 5

    def test_exit_1_check_failed(self, tmp_path, capsys):
        cfg = {"kind": "grid", "grid": {"N": 128, "L": 16.0},
               "potential": {"name": "harmonic"}, "k": 2,
               "expect": {"values": [0.4, 1.4], "tol": 1e-6}}
        code, out = run(tmp_path, "spectrum", cfg)
        manifest = read_manifest(out)
        assert code == manifest["exit_code"] == 1
        assert manifest["error"] is None
        assert len(manifest["config_sha256"]) == 64
        assert capsys.readouterr().err == "spectrum: contracted check failed\n"

    def test_exit_2_bad_config_value(self, tmp_path, capsys):
        code, out = run(tmp_path, "uncertainty", {"dim": 1})
        manifest = read_manifest(out)
        assert code == manifest["exit_code"] == 2
        message = "dim must be >= 2 and samples >= 1"
        assert manifest["error"] == {"class": "ConfigError", "message": message}
        assert manifest["config_sha256"] == cli._config_hash({"dim": 1})
        assert manifest["seed"] == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_exit_2_library_refusal(self, tmp_path):
        cfg = {"grid": {"N": 100, "L": 8.0}, "potential": {"name": "free"},
               "dt": 0.1, "t_final": 1.0}
        code, out = run(tmp_path, "evolve", cfg)
        assert code == read_manifest(out)["exit_code"] == 2
        assert read_manifest(out)["error"]["class"] == "InvalidInputError"

    @pytest.mark.parametrize("text, kind", [(None, "FileNotFoundError"),
                                            ("{not json", "JSONDecodeError"),
                                            ("[1, 2]", "ConfigError")])
    def test_exit_2_config_not_loaded(self, tmp_path, text, kind, capsys):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "o"
        code = main(["weyl", "--config", str(path), "--out", str(out)])
        manifest = read_manifest(out)
        assert code == manifest["exit_code"] == 2
        assert manifest["error"]["class"] == kind
        assert manifest["seed"] is None
        # a config that parsed is hashed even when it is refused
        assert (manifest["config_sha256"] is None) == (kind != "ConfigError")
        err = capsys.readouterr().err
        assert err == f"config error: {manifest['error']['message']}\n"

    def test_exit_2_out_names_a_file(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {"n": 4})
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        code = main(["weyl", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        # the file is left alone and the manifest, best effort, is skipped
        assert out.read_text() == "a file, not a directory"
        err = capsys.readouterr().err
        assert err.startswith("config error: [Errno") and str(out) in err

    def test_exit_3_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def clock_shift(n):
            raise NumericalError("eigensolver did not converge")

        monkeypatch.setattr(cli, "clock_shift", clock_shift)
        code, out = run(tmp_path, "weyl", {"n": 4})
        manifest = read_manifest(out)
        assert code == manifest["exit_code"] == 3
        assert manifest["error"] == {"class": "NumericalError",
                                     "message": "eigensolver did not converge"}
        assert capsys.readouterr().err == "numerical failure: eigensolver did not converge\n"


SPECTRUM_MISS = {"kind": "grid", "grid": {"N": 128, "L": 16.0},
                 "potential": {"name": "harmonic"}, "k": 2,
                 "expect": {"values": [0.4, 1.4], "tol": 1e-6}}


# finite dt and V whose product overflows in the Strang phase exp(-i dt V / 2)
STRANG_OVERFLOW = {"grid": {"N": 64, "L": 20.0},
                   "potential": {"name": "quartic", "params": {"a": 1e300}},
                   "dt": 1e5, "t_final": 1e5}

RADIAL = {"kind": "radial", "r_max": 40.0, "M": 64, "k": 2}
# omega**2 overflows a Python float
HARMONIC_OVERFLOW = {"name": "harmonic", "params": {"omega": 1e200}}


class TestRunRecord:
    """Each subcommand returns its outputs and checks; main writes them."""

    @pytest.mark.parametrize("command, cfg, want", [
        *((command, cfg, 0) for command, cfg in CLI_CONFIGS.items()),
        ("spectrum", SPECTRUM_MISS, 1),
        ("weyl", {"n": 8, "grid": {"N": 32, "L": 8.0}, "alpha": 1.0}, 1),
    ])
    def test_checks_decide_the_exit_code(self, tmp_path, command, cfg, want):
        code, out = run(tmp_path, command, cfg)
        checks = read_manifest(out)["checks"]
        assert code == want == int(not all(c["ok"] for c in checks))
        for c in checks:
            assert set(c) == {"name", "value", "tol", "ok"}
            assert isinstance(c["name"], str) and isinstance(c["ok"], bool)
            assert all(v is None or isinstance(v, (bool, int, float)) for v in
                       (c["value"], c["tol"]))
        if command != "spectrum" or "expect" in cfg:
            assert checks

    @pytest.mark.parametrize("command, cfg", [
        ("classical", {"points": 2, "dt": 2.5, "steps": 2000}),
        ("spectrum", dict(SPECTRUM_MISS, expect={"values": "abc"})),
        ("spectrum", dict(SPECTRUM_MISS, expect={"values": []})),
        ("spectrum", dict(SPECTRUM_MISS, expect={"values": [0.5, 1.5, 2.5]})),
        ("spectrum", dict(SPECTRUM_MISS, expect={"values": [[0.5], [1.5]]})),
        ("spectrum", dict(SPECTRUM_MISS, expect={"values": [0.0, 1.5], "relative": True})),
        ("gns", dict(CLI_CONFIGS["gns"], tol=float("nan"))),
        ("gns", dict(CLI_CONFIGS["gns"], tol=1e300)),
        ("evolve", dict(CLI_CONFIGS["evolve"], dt=float("nan"))),
        ("evolve", dict(CLI_CONFIGS["evolve"], dt=float("inf"))),
        ("evolve", dict(CLI_CONFIGS["evolve"], t_final=float("inf"))),
        ("classical", dict(CLI_CONFIGS["classical"], points=-1)),
        ("evolve", dict(CLI_CONFIGS["evolve"], grid={"N": 128, "L": float("inf")})),
        ("weyl", {"n": 4, "grid": {"N": 32, "L": float("inf")}}),
        ("evolve", STRANG_OVERFLOW),
        ("spectrum", dict(RADIAL, r_max=float("nan"))),
        ("spectrum", dict(RADIAL, r_max=float("inf"))),
        ("spectrum", dict(RADIAL, r_max=1e300)),
        ("spectrum", dict(RADIAL, r_max=1e-300)),
        ("spectrum", dict(CLI_CONFIGS["spectrum"], potential=HARMONIC_OVERFLOW)),
        ("evolve", dict(CLI_CONFIGS["evolve"], potential=HARMONIC_OVERFLOW)),
    ])
    @pytest.mark.filterwarnings("error")
    def test_failed_run_leaves_only_the_manifest(self, tmp_path, capsys, command, cfg):
        code, out = run(tmp_path, command, cfg)
        # an overflowing Strang phase is a numerical failure, the rest config errors
        assert code == (3 if cfg is STRANG_OVERFLOW else 2)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert read_manifest(out)["checks"] is None
        assert "Warning" not in capsys.readouterr().err

    def test_commands_do_no_file_io(self):
        tree = ast.parse(inspect.getsource(cli))
        commands = [f for f in tree.body
                    if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
        assert sorted(f.name for f in commands) == sorted(
            f"cmd_{name}" for name in cli.COMMANDS)
        for f in commands:
            assert [a.arg for a in f.args.args] == ["cfg", "seed"], f.name
            called = {getattr(n.func, "id", getattr(n.func, "attr", None))
                      for n in ast.walk(f) if isinstance(n, ast.Call)}
            assert not called & {"open", "write_text", "dump_json", "mkdir"}, f.name


class TestLapackFailure:
    """A LAPACK failure in any kernel a subcommand reaches is exit 3 with
    only the manifest, whose error names the kernel."""

    @pytest.mark.parametrize("entries, command, cfg", [
        ([(np.linalg, "eigvalsh")], "uncertainty", CLI_CONFIGS["uncertainty"]),
        ([(np.linalg, "eigvalsh")], "spectrum", CLI_CONFIGS["spectrum"]),
        ([(np.linalg, "eigh")], "gns", CLI_CONFIGS["gns"]),
        ([(np.linalg, "qr")], "gns", CLI_CONFIGS["gns"]),
        # gesdd, then its gesvd retry
        ([(np.linalg, "svd"), (scipy.linalg, "svd")], "gns", CLI_CONFIGS["gns"]),
        ([(scipy.linalg, "eigh_tridiagonal")], "spectrum", RADIAL),
    ], ids=["eigvalsh-uncertainty", "eigvalsh-spectrum", "eigh-gns", "qr-gns", "svd-gns",
            "eigh_tridiagonal-spectrum"])
    def test_exit_3_names_the_kernel(self, tmp_path, monkeypatch, capsys, entries, command, cfg):
        for lib, name in entries:
            monkeypatch.setattr(lib, name, lapack_fails)
        code, out = run(tmp_path, command, cfg)
        manifest = read_manifest(out)
        message = f"LAPACK {entries[0][1]} failed: did not converge"
        assert code == manifest["exit_code"] == 3
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert manifest["error"] == {"class": "NumericalError", "message": message}
        assert capsys.readouterr().err == f"numerical failure: {message}\n"


def rank2_gns_cfg(rng):
    """GNS of a rank-2 state on M_3, which two random generators make."""
    return {"generators": [matrix_to_json(random_selfadjoint(rng, 3).entries) for _ in range(2)],
            "state": {"density": matrix_to_json(density_matrix(rng, 3, rank=2))}}


class TestJsonBytes:
    """Every JSON file main writes has the bytes json.dump(sort_keys=True,
    indent=2) gives its parsed content: float reprs round-trip exactly, so a
    real representation file covers dump_json's float-nest path."""

    @pytest.mark.parametrize("command, cfg", [
        *CLI_CONFIGS.items(),
        ("gns", rank2_gns_cfg(np.random.default_rng(SUITE_SEED))),
    ])
    def test_files_match_the_stdlib_writer(self, tmp_path, command, cfg):
        code, out = run(tmp_path, command, cfg)
        assert code == 0
        files = sorted(out.glob("*.json"))
        assert len(files) >= 3  # manifest, an output and its sidecar
        for path in files:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path.name
