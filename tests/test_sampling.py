import numpy as np
import pytest

from cstarmech.sampling import _densities, _uncertainty_draws, density_matrix, selfadjoint_matrix

from conftest import SUITE_SEED


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("commuting", [True, False])
def test_uncertainty_draws_are_the_single_draws(n, commuting):
    rows = range(7)
    b, a1, a2 = _uncertainty_draws(SUITE_SEED, n, rows, commuting)
    for k, i in enumerate(rows):
        rng = np.random.default_rng([SUITE_SEED, i])
        want_b, want_a1 = density_matrix(rng, n), selfadjoint_matrix(rng, n)
        want_a2 = want_a1 @ want_a1 if commuting and i == 0 else selfadjoint_matrix(rng, n)
        for got, want in ((b[k], want_b), (a1[k], want_a1), (a2[k], want_a2)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, rank", [(3, 1), (4, 2), (4, None)])
def test_density_stack_is_density_matrix(n, rank):
    # the stack formula on draws of g gives density_matrix's rows bit for bit
    k = n if rank is None else rank
    g = []
    for i in range(5):
        rng = np.random.default_rng([SUITE_SEED, i])
        g.append(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    b = _densities(np.stack(g))
    for i in range(5):
        want = density_matrix(np.random.default_rng([SUITE_SEED, i]), n, rank)
        assert b[i].tobytes() == want.tobytes()
