import numpy as np
import pytest
from hypothesis import settings

# every property test is deterministic: fixed example order, no example
# database, no per-example deadline
settings.register_profile("cstarmech", deadline=None, derandomize=True, database=None)
settings.load_profile("cstarmech")

# single recorded seed for every randomized test in the suite
SUITE_SEED = 20240817


@pytest.fixture
def rng():
    return np.random.default_rng(SUITE_SEED)


# Pauli matrices used all over the suite
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
