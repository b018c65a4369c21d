"""Command-line front end.

Subcommands: uncertainty | gns | weyl | evolve | spectrum | classical.
Each maps a JSON config and a seed to output files, with the tolerances
of their sidecars, and checks; ``main`` writes them and a manifest, and
exits 0 only if every check passed (1 check failure, 2 config error,
3 numerical failure).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import AlgebraElement, _operator_norms, generate_algebra, operator_norm
from .classical import HARMONIC, PhasePoint, _leapfrog, bracket_table
from .dynamics import (
    EvolutionConfig,
    RadialGrid,
    build_hamiltonian,
    eigen_spectrum,
    make_potential,
    radial_hydrogen_spectrum,
    run_trajectory,
)
from .errors import CstarmechError, InvalidInputError, NumericalError
from .gns import AbstractState, gns_construct, is_irreducible
from .sampling import _uncertainty_draws
from .serialization import (
    dump_json,
    gns_result_to_json,
    matrix_from_json,
    table_to_csv,
    trajectory_to_csv,
)
from .states import DensityState, uncertainty_bounds, uncertainty_check
from .weyl import Grid1D, WaveFunction, clock_shift, grid_weyl_ops

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


_REQUIRED = object()


def _field(cfg: dict, key: str, kind=None, default=_REQUIRED):
    """cfg[key], else the default, converted by ``kind`` if one is given.

    A missing required field and a value ``kind`` rejects are ConfigErrors.
    """
    if key in cfg:
        value = cfg[key]
    elif default is _REQUIRED:
        raise ConfigError(f"config field {key!r} is required")
    else:
        value = default
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field {key!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


# normals per block of uncertainty draws (32 draws at dim 8): every
# intermediate of a block is held at once, so a fixed float count bounds
# the memory at every dim
_BLOCK_FLOATS = 12288


def _check(name: str, value, tol, ok=None) -> dict:
    """One contracted check; unless ``ok`` is given it holds when value <= tol."""
    return {"name": name, "value": value, "tol": tol,
            "ok": bool(value <= tol if ok is None else ok)}


def cmd_uncertainty(cfg: dict, seed: int):
    dim = _field(cfg, "dim", int, 2)
    samples = _field(cfg, "samples", int, 1000)
    include_commuting = bool(cfg.get("include_commuting", False))
    if dim < 2 or samples < 1:
        raise ConfigError("dim must be >= 2 and samples >= 1")

    lhs, rhs = np.empty(samples), np.empty(samples)
    block = max(1, _BLOCK_FLOATS // (6 * dim * dim))
    for start in range(0, samples, block):
        rows = range(start, min(start + block, samples))
        try:
            lhs[rows], rhs[rows] = uncertainty_bounds(
                *_uncertainty_draws(seed, dim, rows, include_commuting))
        except InvalidInputError as exc:
            raise type(exc)(f"draws {start}-{rows[-1]}, {exc}") from exc
    margin = lhs - rhs
    csv_text = trajectory_to_csv({"lhs": lhs, "rhs": rhs, "margin": margin})
    tols = {"violation_tol": 1e-10}
    violations = int(np.sum(margin < -tols["violation_tol"]))
    summary = {
        "dim": dim,
        "samples": samples,
        "violations": violations,
        "min_margin": float(margin.min()),
    }
    # ok: no margin below -violation_tol (a NaN margin is not counted)
    check = _check("min_margin", summary["min_margin"], tols["violation_tol"], violations == 0)
    return {"uncertainty.csv": (csv_text, tols), "summary.json": (summary, tols)}, [check]


def cmd_gns(cfg: dict, seed: int):
    gens_json = _field(cfg, "generators")
    state_json = _field(cfg, "state")
    tol = _field(cfg, "tol", float, 1e-10)
    try:
        gens = [AlgebraElement(matrix_from_json(g)) for g in gens_json]
        density = DensityState(matrix_from_json(_field(state_json, "density")))
    except (InvalidInputError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad algebra/state description: {exc}") from exc

    basis = generate_algebra(gens, tol)
    omega = AbstractState.from_density(basis, density)
    result = gns_construct(omega)

    psi = result.cyclic_vector
    recon = np.array([np.vdot(psi, r @ psi) for r in result.rep])
    recon_err = float(np.abs(recon - omega.values).max())
    irreducible = bool(is_irreducible(result.rep))
    pure = bool(omega.is_pure())

    verdicts = {
        "hilbert_dim": result.hilbert_dim,
        "reconstruction_max_error": recon_err,
        "irreducible": irreducible,
        "pure": pure,
    }
    tols = {"reconstruction_tol": 1e-9}
    outputs = {"gns_result.json": (gns_result_to_json(result), {"rank_tol": result.gram_rank_tol}),
               "verdicts.json": (verdicts, tols)}
    same = irreducible == pure
    return outputs, [_check("reconstruction_max_error", recon_err, tols["reconstruction_tol"]),
                     _check("irreducible_iff_pure", same, None, same)]


def cmd_weyl(cfg: dict, seed: int):
    report, tols = {}, {}  # tols[section][key] bounds report[section][key]

    if "n" in cfg:
        n = _field(cfg, "n", int)
        pair = clock_shift(n)
        u, v, eye = pair.U, pair.V, np.eye(n)
        rel, uni, cyc_u, cyc_v = map(float, _operator_norms(np.stack([
            u @ v - pair.zeta * v @ u,
            u @ u.conj().T - eye,
            np.linalg.matrix_power(u, n) - eye,
            np.linalg.matrix_power(v, n) - eye,
        ])))
        report["clock_shift"] = {
            "n": n,
            "relation_residual": rel,
            "unitarity_residual": uni,
            "order_residual": max(cyc_u, cyc_v),
        }
        tols["clock_shift"] = {"relation_residual": 1e-12 * n, "unitarity_residual": 1e-12,
                               "order_residual": 1e-10 * n}

    if "grid" in cfg:
        grid = _grid_from_cfg(cfg)
        alpha = _field(cfg, "alpha", float, 2 * np.pi / grid.L)
        beta = _field(cfg, "beta", float, grid.dx)
        u, v = grid_weyl_ops(grid, alpha, beta)
        phase = np.exp(-1j * alpha * beta)
        report["grid"] = {
            "N": grid.N,
            "L": grid.L,
            "alpha": alpha,
            "beta": beta,
            "relation_residual": operator_norm(u @ v - phase * v @ u),
        }
        tols["grid"] = {"relation_residual": 1e-10}

    if not report:
        raise ConfigError("weyl config needs 'n' and/or 'grid'")
    checks = [_check(f"{section}.{key}", report[section][key], tol)
              for section, bounds in tols.items() for key, tol in bounds.items()]
    return {"weyl_report.json": (report, tols)}, checks


def _grid_from_cfg(cfg: dict) -> Grid1D:
    g = _field(cfg, "grid")
    return Grid1D(N=_field(g, "N", int), L=_field(g, "L", float))


def _potential_from_cfg(cfg: dict):
    p = _field(cfg, "potential")
    try:
        return make_potential(_field(p, "name"), **p.get("params", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential parameters: {exc}") from exc


def cmd_evolve(cfg: dict, seed: int):
    grid = _grid_from_cfg(cfg)
    potential = _potential_from_cfg(cfg)
    run = EvolutionConfig(
        dt=_field(cfg, "dt", float),
        t_final=_field(cfg, "t_final", float),
        potential=potential,
    )
    init = cfg.get("initial", {})
    psi0 = WaveFunction.gaussian(
        grid,
        x0=_field(init, "x0", float, 0.0),
        p0=_field(init, "p0", float, 0.0),
        sigma=_field(init, "sigma", float, 1.0),
    )
    _, traj = run_trajectory(psi0, run)
    csv_text = trajectory_to_csv({"t": traj.times, "x_mean": traj.x_mean, "p_mean": traj.p_mean,
                                  "energy": traj.energy, "norm": traj.norm})
    norm_drift = float(np.abs(traj.norm - 1.0).max())
    e0 = traj.energy[0]
    energy_drift = float(np.abs(traj.energy - e0).max() / max(abs(e0), 1e-30))
    summary = {"norm_drift": norm_drift, "energy_drift_rel": energy_drift}
    tols = {"norm_drift": 1e-8, "energy_drift_rel": 1e-6}
    return ({"trajectory.csv": (csv_text, tols), "evolve_summary.json": (summary, tols)},
            [_check(name, summary[name], tol) for name, tol in tols.items()])


def cmd_spectrum(cfg: dict, seed: int):
    kind = cfg.get("kind", "grid")
    if kind == "grid":
        grid = _grid_from_cfg(cfg)
        potential = _potential_from_cfg(cfg)
        k = _field(cfg, "k", int, 5)
        h = build_hamiltonian(grid, potential)
        vals = eigen_spectrum(h, k)
    elif kind == "radial":
        rgrid = RadialGrid(
            r_max=_field(cfg, "r_max", float), M=_field(cfg, "M", int)
        )
        k = _field(cfg, "k", int, 3)
        vals = radial_hydrogen_spectrum(rgrid, k)
    else:
        raise ConfigError(f"unknown spectrum kind {kind!r}")

    outputs = {"spectrum.json": ({"kind": kind, "eigenvalues": [float(v) for v in vals]}, {})}
    checks = []
    if "expect" in cfg:
        expected = _field(cfg["expect"], "values", lambda v: np.asarray(v, dtype=float))
        rel = bool(cfg["expect"].get("relative", False))
        if expected.ndim > 1 or not 1 <= expected.size <= len(vals) or rel and not expected.all():
            raise ConfigError(f"expect.values must be a flat list of 1 to {len(vals)} values, "
                              f"none 0 if relative, got shape {expected.shape}")
        tol = _field(cfg["expect"], "tol", float, 1e-4)
        err = np.abs(vals[: expected.size] - expected)
        if rel:
            err = err / np.abs(expected)
        check = _check("max_error", float(err.max()), tol)  # a NaN error fails
        outputs["spectrum_check.json"] = ({"max_error": check["value"], "tol": tol,
                                           "relative": rel, "ok": check["ok"]}, {"tol": tol})
        checks.append(check)
    return outputs, checks


def cmd_classical(cfg: dict, seed: int):
    rows = bracket_table(_field(cfg, "points", int, 100), np.random.default_rng(seed))
    worst = max([0.0] + [row[-1] for row in rows])
    bracket_csv = table_to_csv(["relation", "point", "lhs", "rhs", "abs_err"], rows)

    # harmonic trajectory from z0 = (1, 0) with analytic gradients
    dt = _field(cfg, "dt", float, 1e-2)
    steps = _field(cfg, "steps", int, 10000)
    qs, ps = _leapfrog(HARMONIC, np.ones(1), np.zeros(1), dt, steps)
    q, p = qs[:, 0], ps[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        energies = 0.5 * (p * p + q * q)  # HARMONIC(z), bit for bit
        if not (ok := np.isfinite(energies)).all():
            HARMONIC(PhasePoint(qs[ok.argmin()], ps[ok.argmin()]))  # raises its domain error
    csv_text = trajectory_to_csv({"t": dt * np.arange(steps + 1), "q": q, "p": p, "H": energies})
    drift = float(np.abs(energies - energies[0]).max())

    tols = {"bracket_tol": 1e-6, "energy_drift_tol": 1e-4}
    summary = {"max_bracket_error": worst, "energy_drift": drift}
    outputs = {"bracket_table.csv": (bracket_csv, tols),
               "harmonic_trajectory.csv": (csv_text, tols),
               "classical_summary.json": (summary, tols)}
    tol = tols["energy_drift_tol"]
    return outputs, [_check("max_bracket_error", worst, tols["bracket_tol"]),
                     _check("energy_drift", drift, tol, drift < tol)]  # strict


COMMANDS = {
    "uncertainty": cmd_uncertainty,
    "gns": cmd_gns,
    "weyl": cmd_weyl,
    "evolve": cmd_evolve,
    "spectrum": cmd_spectrum,
    "classical": cmd_classical,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarmech",
        description="Run desk-scale demonstrations and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed (default: config, else 0)")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    start = time.monotonic()
    out = Path(args.out)
    cfg_hash = seed = error = checks = None
    code = EXIT_CONFIG_ERROR
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        cfg_hash = _config_hash(cfg)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        seed = args.seed if args.seed is not None else _field(cfg, "seed", int, 0)
        if seed < 0:
            raise ConfigError("seed must be >= 0")
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        error = exc
    else:
        try:
            outputs, checks = COMMANDS[args.command](cfg, seed)
        except NumericalError as exc:
            code, error = EXIT_NUMERICAL, exc
        except (ConfigError, CstarmechError) as exc:
            error = exc
        else:
            for name, (body, tolerances) in outputs.items():
                path = out / name
                if isinstance(body, str):
                    path.write_text(body)
                else:
                    dump_json(body, path)
                dump_json({"tolerances": tolerances, "config_sha256": cfg_hash},
                          path.with_suffix(path.suffix + ".meta.json"))
            code = EXIT_OK if all(c["ok"] for c in checks) else EXIT_CHECK_FAILED
    if error is not None:
        kind = "numerical failure" if code == EXIT_NUMERICAL else "config error"
        print(f"{kind}: {error}", file=sys.stderr)

    manifest = {
        "command": args.command,
        "config_path": str(args.config),
        "config_sha256": cfg_hash,
        "seed": seed,
        "out_dir": str(out),
        "version": __version__,
        "duration_s": round(time.monotonic() - start, 6),
        "exit_code": code,
        "error": None if error is None else {"class": type(error).__name__,
                                             "message": str(error)},
        "checks": checks,
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        dump_json(manifest, out / "manifest.json")
    except OSError:
        if error is None:
            raise  # on a failed run the manifest is best effort
    if code == EXIT_CHECK_FAILED:
        print(f"{args.command}: contracted check failed", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
