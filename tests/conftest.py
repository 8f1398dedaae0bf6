import gc

import numpy as np
import pytest

from fraclab import Ball, ConsistencyError, build_domain, kernels, sample


# The dense oracles: the I x I arrays that the package never forms.


def lattice_gather(weights, index):
    """Dense matrix with entries weights[center + index_i - index_j], for an offset array of odd side.

    A table's weights, the crop of side 2n-1, hold every offset index_i - index_j of an n-node grid.
    """
    lin = np.ravel_multi_index(index.T, weights.shape)
    return weights.ravel()[weights.size // 2 + lin[:, None] - lin[None, :]]


def dense_pairs(table):
    """The dense interior pair-weight matrix w(z_i - z_j) gathered from the crop, zero diagonal: the oracle of the FFT operators."""
    P = lattice_gather(table.weights, table.domain.interior_index)
    np.fill_diagonal(P, 0.0)
    return P


def dense_stiffness(table):
    """The matrix a [(T + 2N c) delta_ij - w_ij - c (stride-2 neighbours of i)], c = I0(2)/(8 h^2).

    It runs the M-matrix checks of assemble on the matrix itself and raises
    the same ConsistencyError messages.
    """
    dom = table.domain
    n, N = dom.interior_count, dom.dimension
    # I0(2) from the cell integral itself, not from the table's local_moment
    c = kernels.origin_cell_moment(dom.h, N, 2 - N - table.sigma) / (8.0 * dom.h**2)
    A = -dense_pairs(table)
    idx = np.arange(n)
    A[idx, idx] = table.total_weight + table.tail + 2 * N * c
    pos = np.full((dom.nodes_per_axis,) * N, -1, dtype=int)
    pos[dom.interior_mask] = idx
    for k in range(N):
        for step in (2, -2):
            nb = dom.interior_index.copy()
            nb[:, k] += step
            valid = (nb[:, k] >= 0) & (nb[:, k] < dom.nodes_per_axis)
            j = np.full(n, -1, dtype=int)
            j[valid] = pos[tuple(nb[valid].T)]
            A[idx[j >= 0], j[j >= 0]] -= c
    A *= table.norm_const
    diag = np.diag(A).copy()
    if not np.all((diag > 0) & (diag < np.inf)):
        raise ConsistencyError("stiffness diagonal must be positive and finite")
    if (A - np.diag(diag)).max() > 1e-14 * diag.max():
        raise ConsistencyError("stiffness off-diagonal entries must be nonpositive")
    if not np.all(A.sum(axis=1) > 0):
        raise ConsistencyError("stiffness rows must be strictly diagonally dominant")
    return A


@pytest.fixture(scope="session")
def dom1d():
    """Unit-ball 1D domain, 200 nodes, boundary aligned with cell edges."""
    return build_domain(Ball(center=(0.0,), radius=1.0), 200, margin_cells=20)


@pytest.fixture(scope="session")
def dom1d_small():
    return build_domain(Ball(center=(0.0,), radius=1.0), 80, margin_cells=8)


@pytest.fixture(scope="session")
def dom2d():
    """Unit-disk 2D domain, moderate resolution."""
    return build_domain(Ball(center=(0.0, 0.0), radius=1.0), 40, margin_cells=4)


@pytest.fixture(scope="session")
def bump1d(dom1d):
    return sample(lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 3, dom1d)


@pytest.fixture(scope="session")
def bump2d(dom2d):
    return sample(
        lambda x, y: np.maximum(1.0 - (x**2 + y**2) / 0.8**2, 0.0) ** 2, dom2d
    )


@pytest.fixture
def table_builds(monkeypatch):
    """(sigma, cutoff radius) of every kernel table built during the test."""
    builds = []
    build = kernels.build_kernel_table

    def counted(*args, **kwargs):
        table = build(*args, **kwargs)
        builds.append((table.sigma, table.domain.cutoff_radius))
        return table

    monkeypatch.setattr(kernels, "build_kernel_table", counted)
    return builds


@pytest.fixture
def no_gc():
    """Run the test with the cycle collector off, so only reference counting frees objects."""
    gc.disable()
    yield
    gc.enable()
