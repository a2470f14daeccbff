import numpy as np
import pytest

from sectorsum import CommutingPair, MatrixOperator, certify_sector


def certified(matrix, angle) -> MatrixOperator:
    op = MatrixOperator(np.asarray(matrix, dtype=complex))
    certify_sector(op, angle)
    return op


@pytest.fixture(scope="session")
def diag14():
    return certified(np.diag([1.0, 4.0]), 0.9 * np.pi)


@pytest.fixture(scope="session")
def scalar1():
    return certified([[1.0]], 0.9 * np.pi)


@pytest.fixture(scope="session")
def dense_pair():
    # N and N^2 + I commute but neither is normal
    N = np.diag([1.0, 5.0 / 3.0, 7.0 / 3.0, 3.0]) + 0.3 * np.eye(4, k=1)
    pair = CommutingPair(certified(N, 0.85 * np.pi), certified(N @ N + np.eye(4), 0.85 * np.pi))
    assert pair.A.normal_basis() is None and pair.B.normal_basis() is None
    return pair
