"""JSON/CSV serialization for matrices, states, measures, and run outputs.

Matrices travel as row-major nested lists of [re, im] pairs; series data as
CSV. Writers are deterministic: same object, same bytes.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

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


def _pairs(a) -> list:
    """Nested lists of [re, im] Python floats, one pair per entry of ``a``."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise InvalidInputError(f"a matrix must be 2-D, got shape {m.shape}")
    return _pairs(m)


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


def gns_result_to_json(res: GnsResult) -> dict:
    return {
        "hilbert_dim": res.hilbert_dim,
        "gram_rank_tol": res.gram_rank_tol,
        "cyclic_vector": _pairs(res.cyclic_vector),
        "quotient_map": matrix_to_json(res.quotient_map),
        "rep": _pairs(np.stack(res.rep)),
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


_CHUNK = 256  # most floats one template fills: bounds the text held at once


def _floatstr(x) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar(o):
    """json's text for a str, None, bool, int or float; None for anything else."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True or o is False:
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _floatstr(o)
    return None


def _key(k) -> str:
    text = k if isinstance(k, str) else _scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return encode_basestring_ascii(text)


def _float_nest(lst):
    """(shape, floats in row-major order) if ``lst`` is a regular nest of
    lists of at most _CHUNK Python floats, else None."""
    shape, level = [], [lst]
    while (kinds := set(map(type, level))) == {list}:
        sizes = set(map(len, level))
        if len(sizes) != 1 or len(level) * (n := sizes.pop()) > _CHUNK:
            return None
        shape.append(n)
        level = list(chain.from_iterable(level))
    return (tuple(shape), level) if kinds == {float} else None


@functools.lru_cache(maxsize=64)
def _template(shape: tuple, depth: int) -> str:
    """The indent-2 text of a nest of ``shape`` at ``depth``, a %r per float."""
    item = "%r" if len(shape) == 1 else _template(shape[1:], depth + 1)
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + "  " * depth + "]"


def _chunks(o, depth: int):
    """The text of ``o`` at nesting ``depth``, as json.dump(sort_keys=True,
    indent=2) writes it: one chunk per float nest, else per token."""
    text = _scalar(o)
    if text is not None:
        yield text
        return
    if isinstance(o, (list, tuple)):
        if (nest := _float_nest(o)) is not None:
            shape, floats = nest
            text = _template(shape, depth) % tuple(floats)
            if not math.isfinite(sum(floats)):  # a nan or inf, or an overflowed sum
                # %r writes nan, inf and -inf, and no finite repr holds those words
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            yield text
            return
        brackets, items = "[]", (("", v) for v in o)
    elif isinstance(o, dict):
        brackets, items = "{}", ((_key(k) + ": ", v) for k, v in sorted(o.items()))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        yield brackets
        return
    pad = "\n" + "  " * (depth + 1)
    sep = brackets[0] + pad
    for prefix, value in items:
        yield sep + prefix
        yield from _chunks(value, depth + 1)
        sep = "," + pad
    yield "\n" + "  " * depth + brackets[1]


def dump_json(obj, path):
    """Deterministic JSON file write: the bytes of
    ``json.dump(obj, fh, sort_keys=True, indent=2)`` and a newline.

    The stdlib takes its pure-Python encoder once ``indent`` is set; this
    writer follows the same rules but fills each small regular nest of floats
    (a representation matrix, a row of the quotient map) from one cached
    template, and streams one chunk per nest. It refuses what json refuses
    with the same exception type, except a cyclic object, which ends in
    RecursionError where json raises ValueError.
    """
    with open(path, "w") as fh:
        fh.writelines(_chunks(obj, 0))
        fh.write("\n")
