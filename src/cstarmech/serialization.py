"""JSON/CSV serialization for matrices, states, measures, and run outputs.

Matrices travel as row-major nested lists of [re, im] pairs; series data as
CSV. Writers are deterministic: same object, same bytes.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .errors import InvalidInputError
from .gns import GnsResult
from .spectral import SpectralMeasure
from .weyl import Grid1D, WaveFunction

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "measure_to_json",
    "measure_from_json",
    "gns_result_to_json",
    "wavefunction_to_csv",
    "wavefunction_from_csv",
    "table_to_csv",
    "trajectory_to_csv",
]


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed matrix JSON: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise InvalidInputError(
            f"matrix JSON must be rows of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def measure_to_json(mu: SpectralMeasure) -> list:
    return [
        {"lambda": [float(lam.real), float(lam.imag)], "weight": float(w)}
        for lam, w in mu.atoms
    ]


def measure_from_json(data, source_dim: int) -> SpectralMeasure:
    atoms = tuple(
        (complex(a["lambda"][0], a["lambda"][1]), float(a["weight"])) for a in data
    )
    return SpectralMeasure(atoms=atoms, source_dim=source_dim)


def _vector_to_json(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def gns_result_to_json(res: GnsResult) -> dict:
    return {
        "hilbert_dim": res.hilbert_dim,
        "gram_rank_tol": res.gram_rank_tol,
        "cyclic_vector": _vector_to_json(res.cyclic_vector),
        "quotient_map": matrix_to_json(res.quotient_map),
        "rep": [matrix_to_json(r) for r in res.rep],
    }


def wavefunction_to_csv(psi: WaveFunction) -> tuple[str, dict]:
    """CSV body (columns x, re, im) plus the grid-metadata sidecar dict."""
    body = trajectory_to_csv({"x": psi.grid.points, "re_psi": psi.samples.real,
                              "im_psi": psi.samples.imag})
    return body, {"N": psi.grid.N, "L": psi.grid.L, "dx": psi.grid.dx}


def wavefunction_from_csv(body: str, meta: dict) -> WaveFunction:
    grid = Grid1D(N=int(meta["N"]), L=float(meta["L"]))
    rows = list(csv.reader(io.StringIO(body)))
    if rows and rows[0][:1] == ["x"]:
        rows = rows[1:]
    if len(rows) != grid.N:
        raise InvalidInputError(f"expected {grid.N} samples, got {len(rows)}")
    vals = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    return WaveFunction(grid, vals)


def table_to_csv(header, rows) -> str:
    """CSV from a header and rows, cells stringified and quoted by csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def trajectory_to_csv(columns: dict) -> str:
    """CSV from named, equal-length columns (insertion order preserved)."""
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    if any(a.shape != arrays[0].shape for a in arrays):
        raise InvalidInputError("all trajectory columns must have equal length")
    # a float repr never needs CSV quoting, so the rows skip csv.writer
    cols = [map(repr, map(float, a.tolist())) for a in arrays]
    return table_to_csv(names, ()) + "".join(",".join(row) + "\n" for row in zip(*cols))


def dump_json(obj, path):
    """Deterministic JSON file write (sorted keys, fixed separators)."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
