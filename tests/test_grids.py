import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import (
    Annulus,
    Ball,
    Box,
    ConfigurationError,
    GridDomain,
    ParameterError,
    build_domain,
    hardy_ratio,
    integrate,
    lp_norm,
    power_law_cell_average,
    sample,
)
from fraclab import grids
from fraclab.grids import node_radii


def test_ball_1d_nine_nodes_seven_interior():
    dom = GridDomain(Ball(center=(0.0,), radius=1.0), [-1.25], [1.25], 9)
    assert dom.interior_count == 7


def test_box_2d_interior_count_is_separable():
    dom = build_domain(Box(lo=(-1.0, -1.0), hi=(1.0, 1.0)), 20, margin_cells=2)
    per_axis = [
        int(np.sum((ax > -1.0) & (ax < 1.0))) for ax in dom.axis_centers
    ]
    assert dom.interior_count == per_axis[0] * per_axis[1]


def test_tiny_ball_empty_interior_raises():
    # 6 cells of width ~0.42: no node center falls inside the tiny ball
    with pytest.raises(ConfigurationError):
        GridDomain(Ball(center=(0.0,), radius=0.01), [-1.25], [1.25], 6)


def test_margin_enforced():
    # interior node on the outer layer must be rejected
    with pytest.raises(ConfigurationError):
        GridDomain(Ball(center=(0.0,), radius=2.0), [-1.0], [1.0], 9)


@pytest.mark.parametrize("shape", [Ball(center=(), radius=1.0), Box(lo=(), hi=()), Annulus(0.3, 1.0, center=())])
def test_zero_dimensional_shape_refused(shape):
    with pytest.raises(ConfigurationError, match="shape has no dimensions"):
        build_domain(shape, 10)


def test_annulus_needs_a_centre():
    # an annulus without one built a 1D domain, whatever dimension its points had
    with pytest.raises(TypeError):
        Annulus(0.3, 1.0)


def test_four_dimensional_grid_refused(monkeypatch):
    # a 4D domain built, and its table grew past the build estimate, which models N <= 3
    monkeypatch.setattr(grids, "_grid_bytes", lambda N, n: pytest.fail("estimated a grid"))
    with pytest.raises(ConfigurationError, match="^dimension must be 1, 2 or 3, got 4$"):
        build_domain(Ball(center=(0.0,) * 4, radius=1.0), 6)
    with pytest.raises(ConfigurationError, match="^dimension must be 1, 2 or 3, got 4$"):
        GridDomain(Box(lo=(-1.0,) * 4, hi=(1.0,) * 4), [-1.5] * 4, [1.5] * 4, 6)


@pytest.mark.parametrize("N, n", [(1, 200000), (2, 400), (3, 40)])
@pytest.mark.parametrize(
    "shape",
    [lambda N: Ball((0.0,) * N, 1.0), lambda N: Box((-1.0,) * N, (1.0,) * N), lambda N: Annulus(0.3, 1.0, (0.0,) * N)],
    ids=["ball", "box", "annulus"],
)
def test_grid_peak_matches_refusal_estimate(N, n, shape):
    # measured 1.06-1.25 (1D), 1.01 (2D) and 1.01-1.02 (3D) times the traced peak
    tracemalloc.start()
    try:
        dom = build_domain(shape(N), n, margin_cells=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    need = grids._grid_bytes(N, n, dom.interior_count)
    assert peak <= need <= 1.5 * peak


def test_grid_refused_before_allocation(monkeypatch):
    # the predicate's estimate is checked before the mesh is allocated, the
    # interior's before interior_index and interior_coords
    I = build_domain(Ball((0.0, 0.0), 1.0), 400).interior_count
    monkeypatch.setattr(grids, "available_memory", lambda: grids._grid_bytes(2, 400) - 1)
    with pytest.raises(ConfigurationError, match=r"^the 2D grid at n = 400 needs 2.64 MB, but only 2.64 MB"):
        build_domain(Ball((0.0, 0.0), 1.0), 400)
    monkeypatch.setattr(grids, "available_memory", lambda: grids._grid_bytes(2, 400, I) - 1)
    with monkeypatch.context() as m:
        m.setattr(np, "argwhere", lambda a: pytest.fail("gathered the interior"))
        with pytest.raises(ConfigurationError, match=r"^the 2D grid at n = 400 needs 4.94 MB, but only 4.94 MB"):
            build_domain(Ball((0.0, 0.0), 1.0), 400)
    assert build_domain(Ball((0.0, 0.0), 1.0), 399).nodes_per_axis == 399


def _point_array_grid(dom):
    """Mask and interior coordinates of dom by the point-array predicate: the full mesh, its stacked points and np.linalg.norm."""
    mesh = np.meshgrid(*dom.axis_centers, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    shape = dom.shape
    if isinstance(shape, Box):
        inside = np.all((pts > np.asarray(shape.lo)) & (pts < np.asarray(shape.hi)), axis=-1)
    else:
        r = np.linalg.norm(pts - np.asarray(shape.center), axis=-1)
        inside = r < shape.radius if isinstance(shape, Ball) else (r > shape.r_inner) & (r < shape.r_outer)
    return inside.reshape(dom.interior_mask.shape), pts[inside]


def test_mask_idempotent(dom2d):
    assert dom2d.shape.contains(*dom2d.interior_coords.T).all()
    # recompute the full mask from the point-array predicate: must match the stored one
    mask, _ = _point_array_grid(dom2d)
    assert np.array_equal(mask, dom2d.interior_mask)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_distance_rounds_as_norm(N):
    # the Ball and Annulus predicates give np.linalg.norm's bits, so no node changes sides
    pts = np.random.default_rng(N).standard_normal((10000, N))
    c = (0.13, -0.21, 0.07)[:N]
    assert grids._distance(pts.T, c).tobytes() == np.linalg.norm(pts - np.asarray(c), axis=-1).tobytes()


@pytest.mark.parametrize("origin_offset", [False, True])
@pytest.mark.parametrize("N, n", [(1, 9), (1, 40), (1, 1001), (2, 8), (2, 41), (2, 120), (3, 7), (3, 24)])
@pytest.mark.parametrize(
    "shape",
    [
        lambda N: Ball((0.0,) * N, 1.0),
        lambda N: Ball((0.13, -0.21, 0.07)[:N], 0.9),
        lambda N: Box((-1.0,) * N, (1.0,) * N),
        lambda N: Box((-1.0, -0.7, -0.5)[:N], (0.8, 1.0, 0.6)[:N]),
        lambda N: Annulus(0.3, 1.0, (0.0,) * N),
        lambda N: Annulus(0.25, 0.95, (0.13, -0.21, 0.07)[:N]),
        lambda N: Annulus(0.0, 1.0, (0.0,) * N),  # the ball less its centre
    ],
    ids=["ball", "offset-ball", "box", "offset-box", "annulus", "offset-annulus", "centreless-annulus"],
)
def test_open_mesh_matches_point_array(shape, N, n, origin_offset):
    # the predicate on the open mesh gives the point-array mask and coordinates bit for bit
    dom = build_domain(shape(N), n, margin_cells=2 + n // 10, origin_offset=origin_offset)
    mask, coords = _point_array_grid(dom)
    assert mask.tobytes() == dom.interior_mask.tobytes()
    assert coords.tobytes() == dom.interior_coords.tobytes()
    assert dom.interior_coords.shape == (dom.interior_count, N)


def test_annulus_excludes_hole():
    dom = build_domain(Annulus(r_inner=0.3, r_outer=1.0, center=(0.0, 0.0)), 30, 3)
    r = np.linalg.norm(dom.interior_coords, axis=1)
    assert r.min() > 0.3 and r.max() < 1.0


def test_sample_constant_and_exterior_zero(dom1d):
    u = sample(lambda x: np.ones_like(x), dom1d)
    assert np.all(u.interior == 1.0)
    assert np.all(u.values[~dom1d.interior_mask] == 0.0)


def test_sample_odd_symmetry(dom1d):
    u = sample(lambda x: x, dom1d)
    assert np.allclose(u.interior + u.interior[::-1], 0.0, atol=1e-14)


def test_sample_singular_raises():
    dom = GridDomain(Ball(center=(0.0,), radius=1.0), [-1.25], [1.25], 9)
    # node at the origin exists on this odd grid
    assert np.any(np.abs(dom.interior_coords) < 1e-14)
    with np.errstate(divide="ignore"):
        with pytest.raises(ParameterError):
            sample(lambda x: np.abs(x) ** (-1.0), dom)


def test_integrate_constant_box():
    dom = build_domain(Box(lo=(-1.0,), hi=(1.0,)), 400, margin_cells=40)
    u = sample(lambda x: np.ones_like(x), dom)
    assert integrate(u) == pytest.approx(2.0, abs=2 * dom.h)


def test_integrate_zero(dom1d):
    assert integrate(dom1d.zeros()) == 0.0


def test_integrate_hat_refinement():
    # kink and boundary sit on cell edges, so midpoint is exact here; the
    # refinement study still certifies at-least-first-order behavior
    errs = []
    for n in (50, 100, 200):
        dom = build_domain(Box(lo=(-1.0,), hi=(1.0,)), n, margin_cells=n // 10)
        u = sample(lambda x: 1.0 - np.abs(x), dom)
        errs.append(abs(integrate(u) - 1.0))
        assert errs[-1] <= 0.5 * dom.h
    assert max(errs) < 1e-12


def test_integrate_parabola_second_order():
    errs = []
    for n in (50, 100, 200):
        dom = GridDomain(Ball(center=(0.0,), radius=1.0), [-1.31], [1.43], n)
        u = sample(lambda x: 1.0 - x**2, dom)
        errs.append(abs(integrate(u) - 4.0 / 3.0))
    assert errs[0] / errs[2] > 3.0  # at least ~first order under two halvings


def test_integrate_linear_monotone(dom1d, bump1d):
    v = sample(lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 3 + 0.5, dom1d)
    assert integrate(v) >= integrate(bump1d)
    w = bump1d + bump1d
    assert integrate(w) == pytest.approx(2.0 * integrate(bump1d), rel=1e-14)


def test_lp_norm_constant(dom1d):
    u = sample(lambda x: np.full_like(x, 3.0), dom1d)
    vol = integrate(sample(lambda x: np.ones_like(x), dom1d))
    assert lp_norm(u, 2.0) == pytest.approx(3.0 * vol**0.5, rel=1e-12)


def test_lp_norm_hat_closed_form():
    dom = build_domain(Box(lo=(-1.0,), hi=(1.0,)), 500, margin_cells=50)
    u = sample(lambda x: 1.0 - np.abs(x), dom)
    assert lp_norm(u, 2.0) == pytest.approx(math.sqrt(2.0 / 3.0), abs=3 * dom.h)


def test_lp_norm_inf_vs_p(bump1d):
    dom = bump1d.domain
    vol = integrate(sample(lambda x: np.ones_like(x), dom))
    assert lp_norm(bump1d, math.inf) >= lp_norm(bump1d, 2.0) / vol**0.5


def test_lp_norm_p_below_one_rejected(bump1d):
    with pytest.raises(ParameterError):
        lp_norm(bump1d, 0.5)


@settings(max_examples=30, deadline=None)
@given(
    c=st.one_of(st.just(0.0), st.floats(1e-3, 50), st.floats(-50, -1e-3)),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
)
def test_lp_norm_absolute_homogeneity(c, p):
    dom = build_domain(Ball(center=(0.0,), radius=1.0), 40, margin_cells=4)
    u = sample(lambda x: 1.0 - x**2, dom)
    assert lp_norm(c * u, p) == pytest.approx(abs(c) * lp_norm(u, p), rel=1e-12, abs=0.0)


def _origin_node_grid():
    # an odd node count on a symmetric box puts the middle node at the origin
    return build_domain(Ball(center=(0.0, 0.0), radius=1.0), 9, margin_cells=1)


def test_node_radii_refuses_a_node_at_the_origin():
    with pytest.raises(ParameterError, match="node at the origin"):
        node_radii(_origin_node_grid())
    dom = build_domain(Ball(center=(0.0, 0.0), radius=1.0), 9, margin_cells=1, origin_offset=True)
    assert node_radii(dom) == pytest.approx(np.linalg.norm(dom.interior_coords, axis=1), rel=0, abs=0)
    assert node_radii(dom).min() > 0.5 * dom.h


@pytest.mark.parametrize(
    "caller",
    [
        lambda dom: hardy_ratio(sample(lambda x, y: 1.0 - x**2 - y**2, dom), 0.6, 2.0, 1.2),
        lambda dom: power_law_cell_average(dom, 0.5),
    ],
    ids=["hardy_ratio", "power_law_cell_average"],
)
def test_origin_node_check_is_shared(caller):
    with pytest.raises(ParameterError, match="^grid has a node at the origin; use origin_offset=True$"):
        caller(_origin_node_grid())
