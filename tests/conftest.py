import gc

import numpy as np
import pytest

from fraclab import Ball, build_domain, kernels, sample


def dense_pairs(table):
    """The dense interior pair-weight matrix w(z_i - z_j), zero diagonal: the oracle of the FFT operators."""
    P = kernels.lattice_gather(table.weights, table.domain.interior_index)
    np.fill_diagonal(P, 0.0)
    return P


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


@pytest.fixture(autouse=True)
def no_kernel_cache(monkeypatch):
    """Every test starts without a kernel cache directory; cache tests set their own."""
    monkeypatch.delenv("FRACLAB_CACHE_DIR", raising=False)


@pytest.fixture
def table_builds(monkeypatch):
    """(sigma, cutoff radius) of every kernel table built during the test."""
    builds = []
    build = kernels.build_kernel_table

    def counted(*args, **kwargs):
        table = build(*args, **kwargs)
        builds.append((table.sigma, table.cutoff_radius))
        return table

    monkeypatch.setattr(kernels, "build_kernel_table", counted)
    return builds


@pytest.fixture
def no_gc():
    """Run the test with the cycle collector off, so only reference counting frees objects."""
    gc.disable()
    yield
    gc.enable()
