"""Seeded random generators for matrices, observables, and states.

Entries are independent standard complex Gaussians, symmetrized or
positivized as needed; everything is driven by an explicit numpy Generator
so runs are reproducible. ``density_matrix`` and ``selfadjoint_matrix`` are
the raw, unchecked draws; ``random_density`` and ``random_selfadjoint`` wrap
them in checked objects, consuming the generator in the same order.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement
from .states import DensityState

__all__ = [
    "density_matrix",
    "selfadjoint_matrix",
    "random_element",
    "random_selfadjoint",
    "random_unitary",
    "random_density",
    "random_pure_vector",
]


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_element(rng: np.random.Generator, n: int) -> AlgebraElement:
    return AlgebraElement(_ginibre(rng, n))


def selfadjoint_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _ginibre(rng, n)
    return (g + g.conj().T) / 2


def random_selfadjoint(rng: np.random.Generator, n: int) -> AlgebraElement:
    return AlgebraElement(selfadjoint_matrix(rng, n))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density_matrix(
    rng: np.random.Generator, n: int, rank: int | None = None
) -> np.ndarray:
    """Density matrix of the given rank (full rank by default)."""
    r = n if rank is None else rank
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    b = g @ g.conj().T
    return b / np.trace(b).real


def random_density(
    rng: np.random.Generator, n: int, rank: int | None = None
) -> DensityState:
    """Mixed state of the given rank (full rank by default)."""
    return DensityState(density_matrix(rng, n, rank))


def random_pure_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)
