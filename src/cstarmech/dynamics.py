"""Quantum time evolution, bound-state spectra, and the particle in a
potential.

Each picture has one integrator. One Strang-split FFT stepper (exactly
unitary per step, second order in dt) writes the Schroedinger-picture
states into blocks of 32 with one norm check per block; plain runs keep
the last state, and recorded trajectories and the Ehrenfest check reduce
each block as it comes. One eigendecomposition propagator gives exact
evolution of states and of observables (Heisenberg picture). The hydrogen
check reduces to the l = 0 radial operator on an offset grid that never
touches r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from numpy.fft._pocketfft_umath import fft, ifft

from .algebra import AlgebraElement, _as_matrix, _not_selfadjoint
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
        if not 0 < self.dt < np.inf:
            raise InvalidInputError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_final < np.inf:
            raise InvalidInputError(f"t_final must be finite and >= 0, got {self.t_final}")
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


def _require_normalized(psi0: WaveFunction):
    if abs(psi0.norm() - 1.0) > 1e-8:
        raise InvalidInputError("initial wave function must be normalized")


_BLOCK = 32  # Strang states per block: the stepper and diagnostics hold O(32 N) numbers


def _strang_blocks(psi0: WaveFunction, cfg: EvolutionConfig):
    """Yield (states, dens, nrm2) for the Strang states at t = 0, dt, ...,
    steps * dt, in fresh blocks of up to _BLOCK rows, with dens = |states|^2
    and nrm2 = sum dens dx per row.

    Strang splitting exp(-i dt V/2) exp(-i dt P^2/2) exp(-i dt V/2), the
    kinetic factor in Fourier space (Feit, Fleck & Steiger 1982). Each step
    writes straight into its row, with the operands of
    half_v * ifft(kin * fft(half_v * psi)) in that order. The transforms are
    the pocketfft gufuncs that np.fft.fft and np.fft.ifft wrap, called with
    the factors those wrappers pass for norm=None (1 forward, 1 / N back):
    the same bits without the wrappers' per-call dispatch. It is unitary per
    step, so a norm drift beyond 1e-6, or a NaN norm, is a NumericalError
    naming the first step with one; the norms are checked once per block
    (t = 0 passes, as _require_normalized holds it within 1e-8). A phase
    factor that is not finite is a NumericalError before the first step.
    """
    if cfg.method != "split-operator":
        raise InvalidInputError(f"Strang stepping cannot run method {cfg.method!r}")
    _require_normalized(psi0)
    dx = psi0.grid.dx
    with np.errstate(all="ignore"):  # an overflowing phase is refused below
        half_v = np.exp(-0.5j * cfg.dt * cfg.potential(psi0.grid.points))
        kin = np.exp(-0.5j * cfg.dt * psi0.grid.frequencies**2)
    if not (np.isfinite(half_v).all() and np.isfinite(kin).all()):
        raise NumericalError("Strang phases are not finite: dt V or dt k^2 overflows")
    n, total = psi0.grid.N, cfg.steps + 1
    buf = np.empty(n, dtype=complex)
    for start in range(0, total, _BLOCK):
        states = np.empty((min(_BLOCK, total - start), n), dtype=complex)
        rows = iter(states)
        if start == 0:
            psi = next(rows)
            psi[:] = psi0.samples
        for row in rows:
            np.multiply(half_v, psi, out=buf)
            fft(buf, 1.0, out=buf)
            np.multiply(kin, buf, out=buf)
            ifft(buf, 1 / n, out=row)
            np.multiply(half_v, row, out=row)
            psi = row
        dens = np.abs(states) ** 2
        nrm2 = np.sum(dens, axis=1) * dx
        drift = ~(np.abs(np.sqrt(nrm2) - 1.0) <= 1e-6)  # NaN drifts too
        if drift.any():
            i = int(drift.argmax())
            raise NumericalError(f"norm drifted to {np.sqrt(nrm2[i])} at step {start + i}")
        yield states, dens, nrm2


class _Propagator:
    """exp(-itH) of a Hermitian matrix H from one eigendecomposition."""

    def __init__(self, hm: np.ndarray):
        try:
            self.evals, self.evecs = np.linalg.eigh(hm)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed: {exc}") from exc

    def state(self, v: np.ndarray, t: float) -> np.ndarray:
        """exp(-itH) v by phases in the eigenbasis; no dense unitary."""
        return self.evecs @ (np.exp(-1j * self.evals * t) * (self.evecs.conj().T @ v))

    def observable(self, a: np.ndarray, t: float) -> np.ndarray:
        """exp(itH) a exp(-itH)."""
        u = (self.evecs * np.exp(1j * self.evals * t)) @ self.evecs.conj().T
        return u @ a @ u.conj().T


def _hermitian(h) -> np.ndarray:
    """(h + h*)/2 of a finite square matrix h that is self-adjoint within
    1e-10 of its norm, by algebra's self-adjointness gate; anything else,
    an h - h* that overflows included, is an InvalidInputError."""
    hm = _as_matrix(h)
    if _not_selfadjoint(hm[None], hm.conj().T[None], 1e-10)[0]:
        raise InvalidInputError("Hamiltonian must be self-adjoint")
    # halves first: h + h* can overflow where h / 2 + h* / 2 cannot
    return hm / 2 + hm.conj().T / 2


def evolve_schrodinger(psi0: WaveFunction, cfg: EvolutionConfig) -> WaveFunction:
    """Evolve psi0 to t_final under H = P^2/2 + V(X)."""
    if cfg.method == "exact-diagonalization":
        _require_normalized(psi0)
        prop = _Propagator(build_hamiltonian(psi0.grid, cfg.potential))
        return WaveFunction(psi0.grid, prop.state(psi0.samples, cfg.t_final))
    for states, _, _ in _strang_blocks(psi0, cfg):
        pass
    return WaveFunction(psi0.grid, states[-1].copy())


def _strang_sums(psi0: WaveFunction, cfg: EvolutionConfig, x_weights, k_weights):
    """Weighted sums over every Strang state psi at t = 0, dt, ..., steps * dt.

    Returns (psi at t_final, nrm2, xs, ks), with nrm2[t] = sum |psi|^2 dx,
    xs[i, t] = sum f_i |psi|^2 dx for f_i in x_weights, and ks[i, t] the same
    over |fft(psi)|^2 with the Parseval weight dx / N for g_i in k_weights.
    The stepper's blocks are read as they come, one FFT and one axis sum
    per weight each; every row is reduced in the same order as on its own.
    """
    dx = psi0.grid.dx
    w = dx / psi0.grid.N  # Parseval weight for the FFT convention
    nrm2, xs, ks = [], [], []
    for states, dens, norms in _strang_blocks(psi0, cfg):
        dens_hat = np.abs(np.fft.fft(states, axis=1)) ** 2
        nrm2.append(norms)
        xs.append([np.sum(f * dens, axis=1) * dx for f in x_weights])
        ks.append([np.sum(g * dens_hat, axis=1) * w for g in k_weights])
    return (states[-1].copy(), np.concatenate(nrm2),
            np.concatenate(xs, axis=1), np.concatenate(ks, axis=1))


def run_trajectory(psi0: WaveFunction, cfg: EvolutionConfig):
    """Split-operator run recording <X>, <P>, <H>, and the norm per step."""
    grid = psi0.grid
    k = grid.frequencies
    psi, nrm2, (x_sum, v_sum), (p_sum, t_sum) = _strang_sums(
        psi0, cfg, (grid.points, cfg.potential(grid.points)), (k, 0.5 * k**2))
    times = cfg.dt * np.arange(cfg.steps + 1)
    return WaveFunction(grid, psi), Trajectory(
        times, x_sum / nrm2, p_sum / nrm2, (t_sum + v_sum) / nrm2, np.sqrt(nrm2))


def evolve_heisenberg(a0: AlgebraElement, h: AlgebraElement, t: float) -> AlgebraElement:
    """A(t) = exp(itH) A0 exp(-itH) via eigendecomposition of H."""
    if a0.dim != h.dim:
        raise DimensionMismatchError("observable and Hamiltonian dimensions differ")
    return AlgebraElement(_Propagator(_hermitian(h.entries)).observable(a0.entries, t))


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
    if v.size != h.dim or a0.dim != h.dim:
        raise DimensionMismatchError("state vector or observable does not match Hamiltonian")
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise InvalidInputError("zero state vector")
    v = v / nrm
    prop = _Propagator(_hermitian(h.entries))
    psi_t = prop.state(v, t)
    s_val = complex(np.vdot(psi_t, a0.entries @ psi_t))
    h_val = complex(np.vdot(v, prop.observable(a0.entries, t) @ v))
    return PictureReport(s_val, h_val, abs(s_val - h_val))


def eigen_spectrum(h: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues of a self-adjoint matrix, ascending; any other
    input is an InvalidInputError."""
    m = _hermitian(h)
    if k < 1 or k > m.shape[0]:
        raise InvalidInputError(f"k must be in 1..{m.shape[0]}")
    try:
        evals = np.linalg.eigvalsh(m)
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
        return scipy.linalg.eigh_tridiagonal(
            diag, off, eigvals_only=not return_vectors, select="i", select_range=(0, k - 1)
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"radial eigensolver failed: {exc}") from exc


@dataclass(frozen=True)
class EhrenfestReport:
    dX_dt_gap: float
    dP_dt_gap: float
    force_sign: int  # sign s with d<P>/dt = s <V'(X)>


def ehrenfest_check(psi0: WaveFunction, cfg: EvolutionConfig) -> EhrenfestReport:
    """Compare d<X>/dt with <P> and d<P>/dt with +-<V'(X)> along a run.

    <X>, <P> and <V'(X)> are recorded in one Strang pass; time derivatives
    come from central differences on them, and the force sign that actually
    matches is reported.
    """
    if cfg.potential.derivative is None:
        raise InvalidInputError("potential needs a derivative for the Ehrenfest check")
    if cfg.steps < 3:
        raise InvalidInputError("need at least 3 steps")
    x = psi0.grid.points
    vprime = np.asarray(cfg.potential.derivative(x), dtype=float)
    _, nrm2, (x_sum, vp_sum), (p_sum,) = _strang_sums(
        psi0, cfg, (x, vprime), (psi0.grid.frequencies,))
    x_mean, p_mean, vp_means = x_sum / nrm2, p_sum / nrm2, vp_sum / nrm2

    dxdt = (x_mean[2:] - x_mean[:-2]) / (2 * cfg.dt)
    dpdt = (p_mean[2:] - p_mean[:-2]) / (2 * cfg.dt)
    mid = slice(1, -1)
    gap_x = float(np.max(np.abs(dxdt - p_mean[mid])))
    gap_plus = float(np.max(np.abs(dpdt - vp_means[mid])))
    gap_minus = float(np.max(np.abs(dpdt + vp_means[mid])))
    if gap_minus <= gap_plus:
        return EhrenfestReport(dX_dt_gap=gap_x, dP_dt_gap=gap_minus, force_sign=-1)
    return EhrenfestReport(dX_dt_gap=gap_x, dP_dt_gap=gap_plus, force_sign=+1)
