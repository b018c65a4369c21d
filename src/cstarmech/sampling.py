"""Seeded random generators for matrices, observables, and states.

Entries are independent standard complex Gaussians, symmetrized or
positivized as needed; everything is driven by an explicit numpy Generator
so runs are reproducible. ``density_matrix`` and ``selfadjoint_matrix`` are
the raw, unchecked draws; ``random_density`` and ``random_selfadjoint`` wrap
them in checked objects, consuming the generator in the same order.
``_uncertainty_draws`` builds a block of the CLI's uncertainty draws as
stacks, bit for bit the single draws.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, _hermitian_part, _lapack
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


def _densities(g: np.ndarray) -> np.ndarray:
    """g g* / tr(g g*).real for each (n, k) matrix of a (..., n, k) stack."""
    b = g @ g.conj().swapaxes(-1, -2)
    return b / np.trace(b, axis1=-2, axis2=-1).real[..., None, None]


def random_element(rng: np.random.Generator, n: int) -> AlgebraElement:
    return AlgebraElement(_ginibre(rng, n))


def selfadjoint_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return _hermitian_part(_ginibre(rng, n))


def random_selfadjoint(rng: np.random.Generator, n: int) -> AlgebraElement:
    return AlgebraElement(selfadjoint_matrix(rng, n))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = _lapack("qr", _ginibre(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density_matrix(
    rng: np.random.Generator, n: int, rank: int | None = None
) -> np.ndarray:
    """Density matrix of the given rank (full rank by default)."""
    r = n if rank is None else rank
    return _densities(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))


def random_density(
    rng: np.random.Generator, n: int, rank: int | None = None
) -> DensityState:
    """Mixed state of the given rank (full rank by default)."""
    return DensityState(density_matrix(rng, n, rank))


def random_pure_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _uncertainty_draws(seed: int, n: int, draws: range, commuting: bool):
    """(b, a1, a2) stacks of the uncertainty sample's draws ``draws``.

    Draw i is, from ``default_rng([seed, i])``, density_matrix(rng, n) and
    then two selfadjoint_matrix(rng, n); with ``commuting``, draw 0 takes
    a2 = a1 @ a1, whose commutator with a1 vanishes, in place of the
    second. Each draw fills its 6n^2 normals at once, which is the order
    the single draws consume them in.
    """
    x = np.zeros((len(draws), 3, 2, n, n))  # zeros: draw 0's unused slot stays finite
    for xi, i in zip(x, draws):
        rng = np.random.default_rng([seed, i])
        rng.standard_normal(out=xi[:2] if commuting and i == 0 else xi)
    g = x[:, :, 0] + 1j * x[:, :, 1]
    a = _hermitian_part(g[:, 1:])
    a1, a2 = a[:, 0], a[:, 1]
    if commuting and 0 in draws:
        k = draws.index(0)
        a2[k] = a1[k] @ a1[k]
    return _densities(g[:, 0]), a1, a2
