"""Light 3D coverage: the machinery is dimension-generic but 3D stays small."""

import numpy as np
import pytest

from fraclab import (
    Ball,
    assemble,
    build_domain,
    gagliardo_double_sum,
    get_table,
    sample,
    solve_poisson,
)


@pytest.fixture(scope="module")
def setup3d():
    dom = build_domain(Ball(center=(0.0, 0.0, 0.0), radius=1.0), 10, margin_cells=1, cutoff_factor=2.0)
    tab = get_table(dom, 1.2)
    return dom, tab


def test_3d_table_invariants(setup3d):
    dom, tab = setup3d
    assert np.all(tab.kappa > 0)
    W = tab.weights
    assert W.shape == (2 * dom.nodes_per_axis - 1,) * 3
    assert np.allclose(W, W[::-1, ::-1, ::-1], rtol=0, atol=0)


def test_3d_solve_and_energy_identity(setup3d):
    dom, tab = setup3d
    s = 0.6
    u = sample(lambda x, y, z: np.maximum(1 - (x * x + y * y + z * z) / 0.64, 0) ** 2, dom)
    assert tab.lattice_radius == int(2.0 * dom.bbox_diameter / dom.h)
    op = assemble(dom, s)
    v = solve_poisson(u, s)
    assert v.interior.min() >= 0.0
    lhs = op.energy(u)
    rhs = 0.5 * tab.norm_const * gagliardo_double_sum(u, 2.0, s, "d_omega")
    assert lhs == pytest.approx(rhs, rel=1e-13)
