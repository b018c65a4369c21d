"""In-memory span tracer for the traced benchmark run.

The tracer replaces every module-level binding of the traced library
functions with one wrapper per function, so a call made through any import
path opens a span. Each span records its name, start, end and parent; a
span's self time is its duration minus the duration of its child spans.
The benchmark opens one root span per job, so every span of a job leads
back to the same root.

The numpy/scipy linalg and FFT entry points are counted, not spanned: a
trajectory job makes thousands of FFT calls, a span each would dominate the
traced run, and their time stays inside the self time of the layer that
called them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# <module>.<function> for every traced layer function; a class name traces
# its constructor (validation included).
TRACED = (
    "sampling.random_density",
    "sampling.random_selfadjoint",
    "states.DensityState",
    "states.expectation",
    "states.variance",
    "states.uncertainty_check",
    "states.is_pure",
    "algebra.classify",
    "algebra.operator_norm",
    "algebra.commutator",
    "algebra.generate_algebra",
    "gns.structure_tensor",
    "gns.gns_construct",
    "gns.commutant",
    "gns.is_irreducible",
    "spectral.spectral_measure",
    "weyl.clock_shift",
    "weyl.heisenberg_obstruction_report",
    "weyl.build_momentum",
    "dynamics.run_trajectory",
    "dynamics.evolve_schrodinger",
    "dynamics.ehrenfest_check",
    "dynamics.build_hamiltonian",
    "classical.hamilton_flow",
    "classical.poisson_bracket",
    "serialization.trajectory_to_csv",
    "serialization.gns_result_to_json",
    "serialization.matrix_from_json",
    "serialization.dump_json",
    "cli.main",
)

# kernel name -> (module, attribute) entry points counted under it
KERNELS = {
    "svd": (("numpy.linalg", "svd"),),
    "norm": (("numpy.linalg", "norm"),),
    "eigh": (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh")),
    "schur": (("scipy.linalg", "schur"),),
    "fft": (("numpy.fft", "fft"), ("numpy.fft", "ifft")),
}

PACKAGE = "cstarmech"


class Tracer:
    """Spans and kernel counts, recorded only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.kernel_calls = {k: 0 for k in KERNELS}
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._id(name)) if self.active else None
        try:
            yield
        finally:
            if sid is not None:
                self._close(sid)

    @contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own correctness checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _spanning(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def _counting(self, kernel: str, fn):
        calls = self.kernel_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[kernel] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _setattr(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced functions in every loaded program module."""
        program = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for qual in TRACED:
            module, attr = qual.split(".")
            target = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            if isinstance(target, type):
                self._setattr(target, "__init__",
                              self._spanning(qual, target.__init__))
                continue
            wrapper = self._spanning(qual, target)
            for m in program:
                for name, value in list(vars(m).items()):
                    if value is target:
                        self._setattr(m, name, wrapper)
        for kernel, entries in KERNELS.items():
            for module, attr in entries:
                owner = sys.modules[module]
                self._setattr(owner, attr,
                              self._counting(kernel, getattr(owner, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Self time in seconds of every span."""
        return self_times(np.frombuffer(self.start, dtype=float),
                          np.frombuffer(self.end, dtype=float),
                          np.frombuffer(self.parent, dtype=np.int32))

    def per_job(self, jobs: int) -> dict:
        """``<name>.calls`` and ``<name>.self_ms`` per job for every traced
        function, and ``kernel.<k>.calls`` per job."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        self_s = self.self_times()
        out = {}
        for qual in TRACED:
            mask = ids == self._ids[qual]
            out[f"{qual}.calls"] = (float(mask.sum()) / jobs, "count")
            out[f"{qual}.self_ms"] = (float(self_s[mask].sum()) * 1e3 / jobs, "ms")
        for kernel, calls in self.kernel_calls.items():
            out[f"kernel.{kernel}.calls"] = (calls / jobs, "count")
        return out

    def write(self, path: Path):
        """Save every span: name, start, end (perf_counter seconds), parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def self_times(start, end, parent) -> np.ndarray:
    """A span's duration minus the durations of its child spans."""
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def job_shares(path: Path) -> list:
    """(share, name) for every span name in a written trace: its self time
    over the summed time of the ``bench.job`` root spans, largest first."""
    z = np.load(path)
    names, name_id = list(z["names"]), z["name_id"]
    self_s = self_times(z["start"], z["end"], z["parent"])
    job = name_id == names.index("bench.job")
    total = float((z["end"][job] - z["start"][job]).sum())
    shares = [(float(self_s[name_id == i].sum()) / total, n) for i, n in enumerate(names)]
    return sorted(shares, reverse=True)
