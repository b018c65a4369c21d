"""Classical baseline on flat phase space R^2n.

Observables are real functions of (q, p); the Poisson bracket is hard-coded
in canonical (Darboux) coordinates and evaluated with central differences
unless an analytic gradient is supplied. States with finite support model
pure points and mixtures; Hamiltonian flow uses leapfrog for separable
H = T(p) + V(q), stepping raw (q, p) arrays that are checked as PhasePoint
checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationDomainError, InvalidInputError

__all__ = [
    "PhasePoint",
    "ClassicalObservable",
    "ClassicalState",
    "config_observable",
    "momentum_observable",
    "poisson_bracket",
    "classical_expectation",
    "is_dispersion_free",
    "hamilton_flow",
    "HARMONIC",
    "BRACKET_RELATIONS",
    "bracket_table",
]


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) of phase space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape or q.ndim != 1:
            raise InvalidInputError("q and p must be 1D arrays of equal length")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise InvalidInputError("phase point must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.size

    @classmethod
    def _checked(cls, q: np.ndarray, p: np.ndarray) -> "PhasePoint":
        """A point from 1D float arrays that already passed the checks above."""
        z = object.__new__(cls)
        object.__setattr__(z, "q", q)
        object.__setattr__(z, "p", p)
        return z


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all(), several times faster on the few entries of a
    phase point."""
    return all(map(math.isfinite, a.tolist()))


def _coords(new: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``new`` if the float arrays (new, other) pass PhasePoint's checks given
    that ``other`` does, PhasePoint's error otherwise."""
    if new.shape != other.shape:
        raise InvalidInputError("q and p must be 1D arrays of equal length")
    if not _all_finite(new):
        raise InvalidInputError("phase point must be finite")
    return new


@dataclass(frozen=True)
class ClassicalObservable:
    """A real function of a PhasePoint, optionally with analytic gradient.

    gradient(z) must return (dA/dq, dA/dp) as arrays of length z.n.
    """

    evaluator: Callable[[PhasePoint], float]
    label: str = ""
    gradient: Optional[Callable[[PhasePoint], tuple]] = None

    def __call__(self, z: PhasePoint) -> float:
        val = float(self.evaluator(z))
        if not math.isfinite(val):
            raise EvaluationDomainError(f"observable {self.label!r} non-finite at z")
        return val


def config_observable(f: Callable, label: str = "Q(f)") -> ClassicalObservable:
    """Observable depending on position only: (q, p) -> f(q)."""
    return ClassicalObservable(lambda z: float(f(z.q)), label=label)


def momentum_observable(v: Callable, label: str = "P(v)") -> ClassicalObservable:
    """Observable p . v(q) for a vector field v on configuration space."""
    return ClassicalObservable(
        lambda z: float(np.dot(z.p, np.asarray(v(z.q), dtype=float))), label=label
    )


def _default_step(z: PhasePoint) -> float:
    scale = max(1.0, float(np.max(np.abs(z.q))), float(np.max(np.abs(z.p))))
    return 1e-5 * scale


def _gradient(a: ClassicalObservable, z: PhasePoint, h: float | None):
    """(dA/dq, dA/dp) at z, analytic when available, else central differences
    with step h (``_default_step(z)`` when None)."""
    if a.gradient is not None:
        gq, gp = a.gradient(z)
        return np.asarray(gq, dtype=float), np.asarray(gp, dtype=float)
    if h is None:
        h = _default_step(z)
    n = z.n
    gq = np.empty(n)
    gp = np.empty(n)
    for i in range(n):
        dq = np.zeros(n)
        dq[i] = h
        gq[i] = (a(PhasePoint._checked(_coords(z.q + dq, z.p), z.p))
                 - a(PhasePoint._checked(_coords(z.q - dq, z.p), z.p))) / (2 * h)
        gp[i] = (a(PhasePoint._checked(z.q, _coords(z.p + dq, z.q)))
                 - a(PhasePoint._checked(z.q, _coords(z.p - dq, z.q)))) / (2 * h)
    return gq, gp


def poisson_bracket(
    a: ClassicalObservable,
    b: ClassicalObservable,
    z: PhasePoint,
    h: float | None = None,
) -> float:
    """{A, B} = sum_i dA/dq_i dB/dp_i - dA/dp_i dB/dq_i at z."""
    if h is None:
        h = _default_step(z)
    if h <= 0:
        raise InvalidInputError("finite-difference step must be positive")
    aq, ap = _gradient(a, z, h)
    bq, bp = _gradient(b, z, h)
    return float(np.dot(aq, bp) - np.dot(ap, bq))


@dataclass(frozen=True)
class ClassicalState:
    """Finitely supported probability measure on phase space."""

    atoms: tuple  # of (PhasePoint, weight)

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise InvalidInputError("state needs at least one atom")
        w = np.array([wt for _, wt in atoms], dtype=float)
        if np.any(w < 0):
            raise InvalidInputError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidInputError(f"weights must sum to 1, got {w.sum()}")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def pure(cls, z: PhasePoint) -> "ClassicalState":
        return cls(atoms=((z, 1.0),))


def classical_expectation(omega: ClassicalState, a: ClassicalObservable) -> float:
    """sum_i w_i A(z_i)."""
    return float(sum(w * a(z) for z, w in omega.atoms))


def is_dispersion_free(
    omega: ClassicalState, observables, tol: float = 1e-10
) -> bool:
    """True iff omega(A_i A_j) = omega(A_i) omega(A_j) for all pairs."""
    obs = list(observables)
    means = [classical_expectation(omega, a) for a in obs]
    for i, a in enumerate(obs):
        for j, b in enumerate(obs):
            prod = ClassicalObservable(lambda z, a=a, b=b: a(z) * b(z))
            if abs(classical_expectation(omega, prod) - means[i] * means[j]) >= tol:
                return False
    return True


def _leapfrog(h_obs: ClassicalObservable, q0: np.ndarray, p0: np.ndarray, dt: float,
              steps: int, fd_step: float | None = None):
    """:func:`hamilton_flow` from the coordinates of a PhasePoint, as float
    arrays (qs, ps) of shape (steps+1, n), one row per step."""
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    if steps < 0:
        raise InvalidInputError("steps must be nonnegative")

    def force(q: np.ndarray, p: np.ndarray):
        gq, gp = _gradient(h_obs, PhasePoint._checked(q, p), fd_step)
        if not (_all_finite(gq) and _all_finite(gp)):
            raise EvaluationDomainError("non-finite force during flow")
        return gq, gp

    # the state is checked as each new array is made, where the
    # PhasePoint built from it would have checked it; _coords refuses an
    # overflowed (non-finite) array, so numpy need not warn about it too
    qs, ps = np.empty((steps + 1, q0.size)), np.empty((steps + 1, p0.size))
    qs[0], ps[0] = q, p = q0, p0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            try:
                p_half = _coords(p - 0.5 * dt * force(q, p)[0], q)
                q = _coords(q + dt * force(q, p_half)[1], p_half)
                p = _coords(p_half - 0.5 * dt * force(q, p_half)[0], q)
            except EvaluationDomainError as exc:
                raise EvaluationDomainError(f"flow failed at step {step}: {exc}") from exc
            qs[step + 1], ps[step + 1] = q, p
    return qs, ps


def hamilton_flow(
    h_obs: ClassicalObservable,
    z0: PhasePoint,
    dt: float,
    steps: int,
    fd_step: float | None = None,
):
    """Leapfrog (Stoermer-Verlet) trajectory for separable H = T(p) + V(q).

    Returns (times, trajectory) with trajectory a list of steps+1
    PhasePoints, the first being z0. Separability is what makes the
    kick-drift-kick splitting symplectic; gradients come from
    h_obs.gradient when present.
    """
    qs, ps = _leapfrog(h_obs, z0.q, z0.p, dt, steps, fd_step)
    return dt * np.arange(steps + 1), [z0] + list(map(PhasePoint._checked, qs[1:], ps[1:]))


# (label, A, B, {A, B} as a function of z): canonical relations on R^6
BRACKET_RELATIONS = (
    ("{X,P_X}=1",
     config_observable(lambda q: q[0], "X"),
     momentum_observable(lambda q: np.array([1.0, 0.0, 0.0]), "P_X"),
     lambda z: 1.0),
    ("{Q,Q}=0",
     config_observable(lambda q: q[0] ** 2 + q[1], "Q(f1)"),
     config_observable(lambda q: np.sin(q[2]) + q[0] * q[1], "Q(f2)"),
     lambda z: 0.0),
    ("{L_X,L_Y}=L_Z",
     momentum_observable(lambda q: np.array([0.0, -q[2], q[1]]), "L_X"),
     momentum_observable(lambda q: np.array([q[2], 0.0, -q[0]]), "L_Y"),
     momentum_observable(lambda q: np.array([-q[1], q[0], 0.0]), "L_Z")),
)

# H = (|p|^2 + |q|^2) / 2 with its analytic gradient
HARMONIC = ClassicalObservable(
    lambda z: 0.5 * float(z.p @ z.p + z.q @ z.q),
    "harmonic",
    gradient=lambda z: (z.q, z.p),
)


def bracket_table(points: int, rng: np.random.Generator) -> list:
    """Rows (label, point, lhs, rhs, abs_err) of BRACKET_RELATIONS at
    ``points`` phase points drawn uniformly from [-2, 2]^6, q before p."""
    if points < 0:
        raise InvalidInputError(f"points must be nonnegative, got {points}")
    rows = []
    for i in range(points):
        z = PhasePoint(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        for label, a, b, rhs in BRACKET_RELATIONS:
            lhs_val, rhs_val = poisson_bracket(a, b, z), rhs(z)
            rows.append((label, i, lhs_val, rhs_val, abs(lhs_val - rhs_val)))
    return rows
