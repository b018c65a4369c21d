"""Finite Weyl systems and the 1D grid realization of position/momentum.

Two realizations live here:

* clock-and-shift pairs (U, V) of any dimension n, satisfying the exact
  discrete relation U V = zeta V U with zeta = exp(2 pi i / n);
* periodic-grid operators: multiplication unitaries, lattice translations,
  the diagonal position matrix, and the Fourier-multiplier momentum matrix.

Convention: momentum is P = -i d/dx, so V(beta) = exp(i beta P) translates
samples as psi(x + beta) and wave packets with positive <P> move toward
increasing x under free evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _hermitian_part, _operator_norms
from .errors import InvalidInputError

__all__ = [
    "Grid1D",
    "WaveFunction",
    "WeylPair",
    "clock_shift",
    "grid_weyl_ops",
    "build_position",
    "build_momentum",
    "heisenberg_obstruction_report",
    "ObstructionReport",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid of N points on [-L/2, L/2)."""

    N: int
    L: float

    def __post_init__(self):
        if self.N < 2 or (self.N & (self.N - 1)) != 0:
            raise InvalidInputError("N must be a power of two")
        if not 0 < self.L < np.inf:
            raise InvalidInputError(f"L must be positive and finite, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def points(self) -> np.ndarray:
        return -self.L / 2 + self.dx * np.arange(self.N)

    @property
    def frequencies(self) -> np.ndarray:
        """Signed angular frequencies k_m on the FFT lattice."""
        return 2 * np.pi * np.fft.fftfreq(self.N, d=self.dx)


@dataclass(frozen=True)
class WaveFunction:
    """Complex samples on a Grid1D; ||psi||^2 = sum |psi_j|^2 dx."""

    grid: Grid1D
    samples: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.samples, dtype=complex)
        if v.shape != (self.grid.N,):
            raise InvalidInputError(f"need {self.grid.N} samples, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("samples must be finite")
        object.__setattr__(self, "samples", v)
        v.setflags(write=False)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.dx))

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise InvalidInputError("cannot normalize the zero wave function")
        return WaveFunction(self.grid, self.samples / n)

    def braket(self, op: np.ndarray) -> complex:
        """<psi | op psi> with the dx-weighted inner product."""
        return complex(np.vdot(self.samples, op @ self.samples) * self.grid.dx)

    def to_unit_vector(self) -> np.ndarray:
        """Coordinates in the orthonormal lattice basis (norm 1 in l2)."""
        return self.normalized().samples * np.sqrt(self.grid.dx)

    @classmethod
    def gaussian(cls, grid: Grid1D, x0: float = 0.0, p0: float = 0.0,
                 sigma: float = 1.0) -> "WaveFunction":
        """Normalized Gaussian packet exp(-(x-x0)^2/(4 sigma^2) + i p0 x)."""
        x = grid.points
        psi = np.exp(-((x - x0) ** 2) / (4 * sigma**2) + 1j * p0 * x)
        return cls(grid, psi).normalized()


@dataclass(frozen=True)
class WeylPair:
    """Clock matrix U and shift matrix V with U V = zeta V U."""

    n: int
    U: np.ndarray
    V: np.ndarray

    @property
    def zeta(self) -> complex:
        return np.exp(2j * np.pi / self.n)


def clock_shift(n: int) -> WeylPair:
    """Clock-and-shift pair in dimension n >= 2.

    U = diag(1, zeta, ..., zeta^(n-1)); V cycles the standard basis,
    V e_k = e_{k+1 mod n}. Both are unitary with U^n = V^n = I.
    """
    if n < 2:
        raise InvalidInputError("clock-shift dimension must be at least 2")
    zeta = np.exp(2j * np.pi / n)
    u = np.diag(zeta ** np.arange(n))
    v = np.roll(np.eye(n), 1, axis=0).astype(complex)
    return WeylPair(n=n, U=u, V=v)


def grid_weyl_ops(grid: Grid1D, alpha: float, beta: float):
    """Multiplication unitary e^{i alpha x} and lattice translation by beta.

    beta must sit on the grid lattice; the translation wraps periodically.
    The exact phase relation U V = V U e^{-i alpha beta} holds whenever
    alpha is an integer multiple of 2 pi / L.
    """
    s_float = beta / grid.dx
    s = round(s_float)
    if abs(s_float - s) > 1e-9:
        raise InvalidInputError(
            f"beta = {beta} is not an integer multiple of dx = {grid.dx}"
        )
    u = np.diag(np.exp(1j * alpha * grid.points))
    # (V psi)_j = psi_{j+s mod N}  <->  psi(x + beta)
    v = np.zeros((grid.N, grid.N), dtype=complex)
    v[np.arange(grid.N), (np.arange(grid.N) + s) % grid.N] = 1.0
    return u, v


def build_position(grid: Grid1D) -> np.ndarray:
    """Diagonal position matrix X."""
    return np.diag(grid.points).astype(complex)


def build_momentum(grid: Grid1D) -> np.ndarray:
    """Momentum P = -i d/dx as a Fourier multiplier; exactly Hermitian."""
    k = grid.frequencies
    eye = np.eye(grid.N, dtype=complex)
    p = np.fft.ifft(k[:, None] * np.fft.fft(eye, axis=0), axis=0)
    return _hermitian_part(p)  # strip round-off asymmetry


@dataclass(frozen=True)
class ObstructionReport:
    """Evidence that [P, X] = i c I has no finite-dimensional realization."""

    trace_of_commutator: complex
    sign: int                      # s with [P, X] ~ i s I on interior states
    interior_deviation: float
    boundary_deviation: float
    full_matrix_deviation: float   # ||C - i s I|| in operator norm, >= 1
    norm_product: float            # ||X|| ||P||
    lower_bounds: tuple            # (n, n/2, empirical ||[P,X^n]|| / (2||X^{n-1}||))


def heisenberg_obstruction_report(grid: Grid1D) -> ObstructionReport:
    """Quantify how the canonical commutation relation fails on a grid.

    The commutator C = [P, X] has trace zero, so it cannot equal i s I;
    yet applied to smooth packets supported in the middle of the box it
    acts as i s I to spectral accuracy. Deviations are measured on packet
    families in the interior and near the wrap-around boundary, and the
    norm product ||X|| ||P|| is compared with the growing bound n/2
    extracted from [P, X^n].

    X = diag(x) stays the vector x: [P, f(X)] is p * f(x) - f(x)[:, None] * p
    elementwise, and ||f(X)|| = max |f(x)|.
    """
    x = grid.points
    p = build_momentum(grid)
    c = p * x - x[:, None] * p
    trace = complex(np.trace(c))

    # Gaussian probes, at momentum 0 and 8 pi / L, on 5 interior centers
    # (the first 10 columns) and 2 centers at the wrap-around boundary
    quarter = grid.L / 4
    centers = [*np.linspace(-quarter / 2, quarter / 2, 5), -grid.L / 2, grid.L / 2 - grid.dx]
    x0, p0 = np.repeat(centers, 2), np.tile([0.0, 2 * np.pi / grid.L * 4], len(centers))
    probes = np.exp(-((x[:, None] - x0) ** 2) / (4 * (grid.L / 24) ** 2) + 1j * p0 * x[:, None])
    probes /= np.linalg.norm(probes, axis=0)
    cp = c @ probes
    resid = {s: np.linalg.norm(cp - 1j * s * probes, axis=0) for s in (1, -1)}
    sign = min(resid, key=lambda s: resid[s][:10].max())
    c.flat[:: grid.N + 1] -= 1j * sign  # c is now C - i s I
    full_dev, norm_p = _operator_norms(np.stack([c, p]))
    norm_x = np.abs(x).max()

    bounds = []
    xn = np.ones(grid.N)  # X^{n-1}, starting at n = 1
    for n in range(1, 11):
        xn_next = xn * x
        comm_norm = _operator_norms((p * xn_next - xn_next[:, None] * p)[None])[0]
        bounds.append((n, n / 2.0, float(comm_norm / (2 * np.abs(xn).max()))))
        xn = xn_next

    return ObstructionReport(
        trace_of_commutator=trace,
        sign=sign,
        interior_deviation=float(resid[sign][:10].max()),
        boundary_deviation=float(resid[sign][10:].max()),
        full_matrix_deviation=float(full_dev),
        norm_product=float(norm_x * norm_p),
        lower_bounds=tuple(bounds),
    )
