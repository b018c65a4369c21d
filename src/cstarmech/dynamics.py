"""Quantum time evolution, bound-state spectra, and the particle in a
potential.

Schroedinger-picture evolution uses Strang-split FFT stepping (exactly
unitary per step, second order in dt) or dense exact diagonalization;
Heisenberg-picture evolution conjugates observables by exp(-itH). The
hydrogen check reduces to the l = 0 radial operator on an offset grid that
never touches r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .algebra import AlgebraElement, commutator
from .errors import (
    DimensionMismatchError,
    EvaluationDomainError,
    InvalidInputError,
    NumericalError,
)
from .weyl import Grid1D, WaveFunction, build_momentum, build_position

__all__ = [
    "Potential",
    "make_potential",
    "EvolutionConfig",
    "RadialGrid",
    "Trajectory",
    "build_hamiltonian",
    "evolve_schrodinger",
    "run_trajectory",
    "evolve_heisenberg",
    "picture_equivalence_check",
    "eigen_spectrum",
    "radial_hydrogen_spectrum",
    "ehrenfest_check",
]


@dataclass(frozen=True)
class Potential:
    """Named potential with point values and (optional) derivative."""

    name: str
    values: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        v = np.asarray(self.values(x), dtype=float)
        if not np.all(np.isfinite(v)):
            raise EvaluationDomainError(f"potential {self.name!r} non-finite on grid")
        return v


def make_potential(name: str, **params) -> Potential:
    """Catalog: free | harmonic | quartic | well | coulomb."""
    if name == "free":
        return Potential("free", lambda x: np.zeros_like(x), lambda x: np.zeros_like(x))
    if name == "harmonic":
        omega = float(params.get("omega", 1.0))
        return Potential(
            "harmonic",
            lambda x: 0.5 * omega**2 * x**2,
            lambda x: omega**2 * x,
            {"omega": omega},
        )
    if name == "quartic":
        a = float(params.get("a", 1.0))
        return Potential("quartic", lambda x: a * x**4, lambda x: 4 * a * x**3, {"a": a})
    if name == "well":
        v0 = float(params.get("v0", 50.0))
        width = float(params.get("width", 2.0))
        return Potential(
            "well",
            lambda x: np.where(np.abs(x) < width / 2, 0.0, v0),
            None,
            {"v0": v0, "width": width},
        )
    if name == "coulomb":
        return Potential("coulomb", lambda x: -1.0 / x, lambda x: 1.0 / x**2)
    raise InvalidInputError(f"unknown potential {name!r}")


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters for a single run."""

    dt: float
    t_final: float
    potential: Potential
    method: str = "split-operator"

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidInputError("dt must be positive")
        if self.t_final < 0:
            raise InvalidInputError("t_final must be nonnegative")
        if self.method not in ("split-operator", "exact-diagonalization"):
            raise InvalidInputError(f"unknown method {self.method!r}")
        # steps rounds t_final / dt, so the run always ends within half a
        # step of t_final; a run that would end further than a quarter step
        # away (dt=0.3, t_final=1.0 stops at 0.9) is refused
        if abs(self.steps * self.dt - self.t_final) > self.dt / 4:
            raise InvalidInputError("t_final must be within dt/4 of a multiple of dt")

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


def build_hamiltonian(grid: Grid1D, potential: Potential) -> np.ndarray:
    """Dense H = P^2/2 + V(X) on the periodic grid; exactly Hermitian."""
    p = build_momentum(grid)
    h = p @ p / 2 + np.diag(potential(grid.points)).astype(complex)
    return (h + h.conj().T) / 2


@dataclass(frozen=True)
class Trajectory:
    """Observable track along an evolution run."""

    times: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    energy: np.ndarray
    norm: np.ndarray


def _split_operator_run(psi0: WaveFunction, cfg: EvolutionConfig, record: bool):
    grid = psi0.grid
    x = grid.points
    k = grid.frequencies
    vvals = cfg.potential(x)
    half_v = np.exp(-0.5j * cfg.dt * vvals)
    kin = np.exp(-0.5j * cfg.dt * k**2)

    psi = psi0.samples.copy()
    dx = grid.dx
    rows = []

    def observables(ps):
        ps_hat = np.fft.fft(ps)
        w = dx / grid.N  # Parseval weight for the FFT convention
        nrm2 = np.sum(np.abs(ps) ** 2) * dx
        xm = float(np.sum(x * np.abs(ps) ** 2) * dx / nrm2)
        pm = float(np.sum(k * np.abs(ps_hat) ** 2) * w / nrm2)
        en = float(
            (np.sum(0.5 * k**2 * np.abs(ps_hat) ** 2) * w
             + np.sum(vvals * np.abs(ps) ** 2) * dx) / nrm2
        )
        return xm, pm, en, float(np.sqrt(nrm2))

    if record:
        rows.append(observables(psi))
    for step in range(cfg.steps):
        psi = half_v * psi
        psi = np.fft.ifft(kin * np.fft.fft(psi))
        psi = half_v * psi
        nrm = np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
        if abs(nrm - 1.0) > 1e-6:
            raise NumericalError(f"norm drifted to {nrm} at step {step + 1}")
        if record:
            rows.append(observables(psi))

    final = WaveFunction(grid, psi)
    if not record:
        return final, None
    arr = np.array(rows)
    times = cfg.dt * np.arange(cfg.steps + 1)
    return final, Trajectory(times, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def _exact_run(psi0: WaveFunction, cfg: EvolutionConfig):
    grid = psi0.grid
    h = build_hamiltonian(grid, cfg.potential)
    evals, evecs = np.linalg.eigh(h)
    coeffs = evecs.conj().T @ psi0.samples
    psi = evecs @ (np.exp(-1j * evals * cfg.t_final) * coeffs)
    return WaveFunction(grid, psi)


def evolve_schrodinger(psi0: WaveFunction, cfg: EvolutionConfig) -> WaveFunction:
    """Evolve psi0 to t_final under H = P^2/2 + V(X)."""
    if abs(psi0.norm() - 1.0) > 1e-8:
        raise InvalidInputError("initial wave function must be normalized")
    if cfg.method == "exact-diagonalization":
        return _exact_run(psi0, cfg)
    final, _ = _split_operator_run(psi0, cfg, record=False)
    return final


def run_trajectory(psi0: WaveFunction, cfg: EvolutionConfig):
    """Split-operator run recording <X>, <P>, <H>, and the norm per step."""
    if abs(psi0.norm() - 1.0) > 1e-8:
        raise InvalidInputError("initial wave function must be normalized")
    return _split_operator_run(psi0, cfg, record=True)


def evolve_heisenberg(a0: AlgebraElement, h: AlgebraElement, t: float) -> AlgebraElement:
    """A(t) = exp(itH) A0 exp(-itH) via eigendecomposition of H."""
    if a0.dim != h.dim:
        raise DimensionMismatchError("observable and Hamiltonian dimensions differ")
    hm = h.entries
    if np.linalg.norm(hm - hm.conj().T, 2) > 1e-10 * max(np.linalg.norm(hm, 2), 1.0):
        raise InvalidInputError("Hamiltonian must be self-adjoint")
    try:
        evals, evecs = np.linalg.eigh((hm + hm.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    u = evecs @ np.diag(np.exp(1j * evals * t)) @ evecs.conj().T
    return AlgebraElement(u @ a0.entries @ u.conj().T)


@dataclass(frozen=True)
class PictureReport:
    schrodinger_value: complex
    heisenberg_value: complex
    gap: float


def picture_equivalence_check(
    psi0: np.ndarray, a0: AlgebraElement, h: AlgebraElement, t: float
) -> PictureReport:
    """Compare <psi(t)|A0 psi(t)> with <psi0|A(t) psi0> (exact propagators)."""
    v = np.asarray(psi0, dtype=complex).ravel()
    if v.size != h.dim:
        raise DimensionMismatchError("state vector does not match Hamiltonian")
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise InvalidInputError("zero state vector")
    v = v / nrm
    evals, evecs = np.linalg.eigh(h.entries)
    psi_t = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ v))
    s_val = complex(np.vdot(psi_t, a0.entries @ psi_t))
    a_t = evolve_heisenberg(a0, h, t)
    h_val = complex(np.vdot(v, a_t.entries @ v))
    return PictureReport(s_val, h_val, abs(s_val - h_val))


def eigen_spectrum(h: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues of a self-adjoint matrix, ascending."""
    m = np.asarray(h, dtype=complex)
    if k < 1 or k > m.shape[0]:
        raise InvalidInputError(f"k must be in 1..{m.shape[0]}")
    try:
        evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return evals[:k]


@dataclass(frozen=True)
class RadialGrid:
    """Offset radial grid r_i = i dr, i = 1..M, Dirichlet at 0 and r_max."""

    r_max: float
    M: int

    def __post_init__(self):
        if self.r_max <= 0:
            raise InvalidInputError("r_max must be positive")
        if self.M < 16:
            raise InvalidInputError("need at least 16 radial points")

    @property
    def dr(self) -> float:
        return self.r_max / (self.M + 1)

    @property
    def points(self) -> np.ndarray:
        return self.dr * np.arange(1, self.M + 1)


def radial_hydrogen_spectrum(
    grid: RadialGrid, k: int, return_vectors: bool = False
):
    """Lowest k eigenvalues of -(1/2) u'' - u/r on the offset radial grid.

    Three-point Laplacian, Dirichlet ends; the Coulomb term is never
    evaluated at r = 0. The low eigenvalues are negative and discrete.
    """
    if k < 1 or k > grid.M:
        raise InvalidInputError(f"k must be in 1..{grid.M}")
    r = grid.points
    dr = grid.dr
    diag = 1.0 / dr**2 - 1.0 / r
    off = np.full(grid.M - 1, -0.5 / dr**2)
    try:
        if return_vectors:
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                diag, off, select="i", select_range=(0, k - 1)
            )
            return vals, vecs
        vals = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, k - 1), eigvals_only=True
        )
        return vals
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"radial eigensolver failed: {exc}") from exc


@dataclass(frozen=True)
class EhrenfestReport:
    dX_dt_gap: float
    dP_dt_gap: float
    force_sign: int  # sign s with d<P>/dt = s <V'(X)>


def ehrenfest_check(psi0: WaveFunction, cfg: EvolutionConfig) -> EhrenfestReport:
    """Compare d<X>/dt with <P> and d<P>/dt with +-<V'(X)> along a run.

    Time derivatives come from central differences on the recorded
    trajectory; the force sign that actually matches is reported.
    """
    if cfg.potential.derivative is None:
        raise InvalidInputError("potential needs a derivative for the Ehrenfest check")
    if cfg.steps < 3:
        raise InvalidInputError("need at least 3 steps")
    grid = psi0.grid
    x = grid.points
    vprime = np.asarray(cfg.potential.derivative(x), dtype=float)

    final, traj = run_trajectory(psi0, cfg)
    del final

    # <V'(X)> per recorded time needs the full wave function; rerun cheaply
    # by evolving step by step with the same splitting.
    vp_means = []
    psi = psi0.samples.copy()
    k = grid.frequencies
    half_v = np.exp(-0.5j * cfg.dt * cfg.potential(x))
    kin = np.exp(-0.5j * cfg.dt * k**2)
    dx = grid.dx
    for step in range(cfg.steps + 1):
        nrm2 = np.sum(np.abs(psi) ** 2) * dx
        vp_means.append(float(np.sum(vprime * np.abs(psi) ** 2) * dx / nrm2))
        if step < cfg.steps:
            psi = half_v * (np.fft.ifft(kin * np.fft.fft(half_v * psi)))
    vp_means = np.array(vp_means)

    dxdt = (traj.x_mean[2:] - traj.x_mean[:-2]) / (2 * cfg.dt)
    dpdt = (traj.p_mean[2:] - traj.p_mean[:-2]) / (2 * cfg.dt)
    mid = slice(1, -1)
    gap_x = float(np.max(np.abs(dxdt - traj.p_mean[mid])))
    gap_plus = float(np.max(np.abs(dpdt - vp_means[mid])))
    gap_minus = float(np.max(np.abs(dpdt + vp_means[mid])))
    if gap_minus <= gap_plus:
        return EhrenfestReport(dX_dt_gap=gap_x, dP_dt_gap=gap_minus, force_sign=-1)
    return EhrenfestReport(dX_dt_gap=gap_x, dP_dt_gap=gap_plus, force_sign=+1)
