import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fraclab import (
    Annulus,
    Ball,
    GridDomain,
    ParameterError,
    apply_B_sq,
    apply_D_s2,
    apply_frac_laplacian,
    apply_frac_power,
    apply_riesz_gradient,
    assemble,
    build_domain,
    central_gradient,
    get_table,
    riesz_potential,
    sample,
    solve_poisson,
)
from conftest import dense_pairs, dense_stiffness, lattice_gather
from fraclab import kernels, operators
from fraclab.kernels import _cell_crop, origin_cell_moment
from fraclab.operators import PAIR_BLOCK_ROWS, PAIR_THREAD_MIN, pair_power_sum

S = 0.6


def test_zero_maps_to_zero(dom1d):
    z = dom1d.zeros()
    assert np.all(apply_frac_laplacian(z, S).values == 0.0)
    assert np.all(apply_D_s2(z, S).values == 0.0)
    assert np.all(apply_B_sq(z, S, 2.0).values == 0.0)
    assert np.all(apply_frac_power(z, 0.5).values == 0.0)
    assert np.all(apply_riesz_gradient(z, S) == 0.0)
    assert np.all(riesz_potential(z, 0.5).values == 0.0)


def test_frac_laplacian_linearity(dom1d, bump1d):
    v = sample(lambda x: np.cos(2.0 * x) - math.cos(2.0), dom1d)
    a, b = 1.7, -0.4
    left = apply_frac_laplacian(a * bump1d + b * v, S).interior
    right = a * apply_frac_laplacian(bump1d, S).interior + b * apply_frac_laplacian(v, S).interior
    assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(right))


def test_frac_power_linearity(dom1d, bump1d):
    v = sample(lambda x: x**2 - 1.0, dom1d)
    left = apply_frac_power(2.0 * bump1d + 0.3 * v, 0.5).interior
    right = 2.0 * apply_frac_power(bump1d, 0.5).interior + 0.3 * apply_frac_power(v, 0.5).interior
    assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(right))


def test_D_s2_quadratic_homogeneity(bump1d):
    c = -2.5
    left = apply_D_s2(c * bump1d, S).interior
    right = c**2 * apply_D_s2(bump1d, S).interior
    assert left == pytest.approx(right, rel=1e-13)
    assert apply_D_s2(bump1d, S).interior.min() >= 0.0


def test_D_s2_vanishes_only_for_zero(bump1d):
    D = apply_D_s2(bump1d, S).interior
    assert D.max() > 0.0
    # exterior-zero nonzero function has positive nonlocal gradient square somewhere
    assert np.count_nonzero(D) > 0


def test_B_sq_is_sqrt_of_D_s2(bump1d):
    B = apply_B_sq(bump1d, S, 2.0).interior
    D = apply_D_s2(bump1d, S).interior
    assert np.max(np.abs(B**2 - D)) <= 1e-12 * D.max()


def test_B_sq_one_homogeneous(bump1d):
    c = -3.0
    left = apply_B_sq(c * bump1d, S, 1.5).interior
    right = abs(c) * apply_B_sq(bump1d, S, 1.5).interior
    assert left == pytest.approx(right, rel=1e-12)


def test_B_sq_parameter_validation(bump1d):
    with pytest.raises(ParameterError):
        apply_B_sq(bump1d, S, 1.0)
    with pytest.raises(ParameterError):
        apply_B_sq(bump1d, 0.9, 3.5)  # order s*q >= N+2


def test_B_sq_takes_orders_from_2_below_N_plus_2(bump1d):
    # s*q = 2.25: the table carries no normalization, and B_s^q reads a_{N,s}
    B = apply_B_sq(bump1d, 0.9, 2.5).interior
    assert np.all(np.isfinite(B)) and B.min() >= 0.0 and B.max() > 0.0


def test_self_adjointness(dom1d, bump1d):
    v = sample(lambda x: np.maximum(1.0 - (x / 0.5) ** 2, 0.0) ** 2, dom1d)
    hN = dom1d.h
    left = float(apply_frac_laplacian(bump1d, S).interior @ v.interior) * hN
    right = float(bump1d.interior @ apply_frac_laplacian(v, S).interior) * hN
    assert left == pytest.approx(right, rel=1e-13)


def test_local_limit_monotone_small_grid():
    # coarse version of the s -> 1 study: errors vs the 5-point Laplacian
    # shrink monotonically in s (the converged-grid version runs in acceptance)
    from fraclab import Ball, build_domain

    dom = build_domain(Ball(center=(0.0,), radius=5.0), 1200, margin_cells=120)
    u = sample(lambda x: np.maximum(1.0 - (x / 2.5) ** 2, 0.0) ** 3, dom)
    full = u.values
    lap = np.zeros_like(full)
    lap[1:-1] = (2.0 * full[1:-1] - full[2:] - full[:-2]) / dom.h**2
    lap_i = lap[dom.interior_mask]
    errs = []
    for s in (0.8, 0.9, 0.95):
        Au = apply_frac_laplacian(u, s).interior
        errs.append(np.abs(Au - lap_i).max() / np.abs(lap_i).max())
    assert errs[0] > errs[1] > errs[2]


def test_riesz_gradient_parity(dom2d, bump2d):
    g = apply_riesz_gradient(bump2d, S)
    # reflect through x -> -x: for the radial bump, each component is odd
    idx = dom2d.interior_coords
    order = np.lexsort(idx.T)
    flipped = np.lexsort((-idx).T)
    assert np.allclose(g[order, 0], -g[flipped, 0], atol=1e-12 * np.abs(g).max())


def test_riesz_gradient_sign_on_slope(dom1d):
    u = sample(lambda x: 1.0 - x**2, dom1d)
    g = apply_riesz_gradient(u, S)[:, 0]
    x = dom1d.interior_coords[:, 0]
    inner = np.abs(x) < 0.5
    assert np.all(g[inner] * (-2.0 * x[inner]) >= -1e-10)  # matches sign of u'


def test_riesz_potential_positivity_monotone(dom1d, bump1d):
    lam = 0.5
    p1 = riesz_potential(bump1d, lam).interior
    assert p1.min() >= 0.0
    bigger = sample(
        lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 3 + 0.1, bump1d.domain
    )
    p2 = riesz_potential(bigger, lam).interior
    assert np.all(p2 >= p1 - 1e-14)


def test_riesz_potential_far_field(dom1d):
    lam = 0.5
    radius = 0.04
    g = sample(lambda x: (np.abs(x + 0.8) < radius).astype(float), dom1d)
    mass = float(g.interior.sum()) * dom1d.h
    pot = riesz_potential(g, lam).interior
    x = dom1d.interior_coords[:, 0]
    far = x > -0.8 + 10.0 * radius
    expected = mass * np.abs(x[far] + 0.8) ** (-lam)
    rel = np.abs(pot[far] - expected) / expected
    assert rel.max() < 0.01


def test_riesz_potential_lambda_range(dom1d, bump1d):
    with pytest.raises(ParameterError):
        riesz_potential(bump1d, 1.0)
    with pytest.raises(ParameterError):
        riesz_potential(bump1d, 0.0)


def test_frac_power_pointwise_bound(dom1d_small):
    # |(-Delta)^{t/2} v| <= c (|v| + J_{N+t-1}(|grad v|) + ||v||_1) on a solved
    # instance; the fitted c must be finite and stable under refinement
    from fraclab import Ball, build_domain, lp_norm

    t = 0.5
    cs = []
    for n in (80, 160):
        dom = build_domain(Ball(center=(0.0,), radius=1.0), n, margin_cells=n // 10)
        v = solve_poisson(sample(lambda x: np.ones_like(x), dom), S)
        lhs = np.abs(apply_frac_power(v, t).interior)
        gradmag = np.sqrt((central_gradient(v) ** 2).sum(axis=1))
        J = riesz_potential(dom.from_interior(gradmag), dom.dimension + t - 1.0).interior
        rhs = np.abs(v.interior) + J + lp_norm(v, 1.0)
        cs.append(float((lhs / rhs).max()))
    assert all(np.isfinite(c) for c in cs)
    assert cs[1] <= 2.0 * cs[0] + 1e-12


def test_riesz_gradient_potential_bound(dom1d_small):
    # |grad^s v| <= 1/(N-(1-s)) J_{N-(1-s)}(|grad v|) node-wise on a solved instance
    dom = dom1d_small
    v = solve_poisson(sample(lambda x: np.ones_like(x), dom), S)
    g = np.sqrt((apply_riesz_gradient(v, S) ** 2).sum(axis=1))
    gradmag = np.sqrt((central_gradient(v) ** 2).sum(axis=1))
    lam = dom.dimension - (1.0 - S)
    J = riesz_potential(dom.from_interior(gradmag), lam).interior
    bound = J / (dom.dimension - (1.0 - S))
    # the continuum inequality allows a modest discretization slack
    assert np.all(g <= bound * 1.05 + 1e-12)


def _dense_riesz_gradient(u, table):
    # the direct pair sum sum_j (z_j - z_i)_k/|z_j - z_i| w_ij u_j over interior j
    dom = u.domain
    ij = dom.interior_index
    P = dense_pairs(table)
    d = ij[None, :, :] - ij[:, None, :]
    r = np.sqrt((d.astype(float) ** 2).sum(axis=-1))
    np.maximum(r, 1e-300, out=r)
    return np.stack([((d[..., k] / r) * P) @ u.interior for k in range(dom.dimension)], axis=1)


@pytest.mark.parametrize(
    "shape, n, offset, tight_cutoff",
    [
        (Ball(center=(0.0,), radius=1.0), 90, False, False),
        (Ball(center=(0.0, 0.0), radius=1.0), 30, False, False),
        (Ball(center=(0.0, 0.0, 0.0), radius=1.0), 11, False, True),
        (Annulus(0.35, 1.0, (0.0, 0.0)), 28, False, False),
        (Ball(center=(0.0, 0.0), radius=1.0), 27, True, False),
        (Ball(center=(0.0, 0.0), radius=1.0), 26, False, True),
        (Ball(center=(0.0,), radius=1.0), 41, True, True),
    ],
)
def test_riesz_gradient_matches_dense_sum(shape, n, offset, tight_cutoff):
    dom = build_domain(shape, n, margin_cells=2, origin_offset=offset)
    if tight_cutoff:
        dom = GridDomain(shape, dom.lo, dom.hi, n, cutoff_radius=dom.bbox_diameter + dom.h)
    u = sample(
        lambda *x: np.exp(-sum((xk - 0.2 * (k + 1)) ** 2 for k, xk in enumerate(x))) + 0.3 * x[0],
        dom,
    )
    table = get_table(dom, S)
    g = apply_riesz_gradient(u, S)
    ref = _dense_riesz_gradient(u, table)
    assert g.shape == ref.shape
    assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()


def _dense_signed(u, table):
    # a * [T u - P u + L0 u] with the dense stiffness matrix
    return dense_stiffness(table) @ u.interior


def _dense_D_s2(u, table):
    ui = u.interior
    P = dense_pairs(table)
    g2 = (central_gradient(u) ** 2).sum(axis=1)
    pair = ui**2 * (table.total_weight + table.tail) - 2.0 * ui * (P @ ui) + P @ ui**2
    N = u.domain.dimension
    I0 = origin_cell_moment(u.domain.h, N, 2 - N - table.sigma)
    return np.maximum(0.5 * table.norm_const * (pair + g2 * I0), 0.0)


# (N, n, margin_cells) and the bounds on max |FFT - dense| / max |dense| for
# (-Delta)^0.6, (-Delta)^{0.5/2} and D_0.6^2.  Measured: 1D 1.0e-15, 7.7e-16,
# 2.8e-15; 2D 1.1e-15, 1.0e-15, 1.9e-15; 3D 5.3e-16, 4.1e-16, 5.7e-16.  Each
# bound is three times the measured difference, rounded up.
@pytest.mark.parametrize(
    "N, n, margin, bounds",
    [
        (1, 120, 2, (4e-15, 3e-15, 9e-15)),
        (2, 30, 2, (4e-15, 4e-15, 6e-15)),
        (3, 11, 1, (2e-15, 2e-15, 2e-15)),
    ],
)
def test_fft_operators_match_dense_forms(N, n, margin, bounds):
    dom = build_domain(Ball(center=(0.0,) * N, radius=1.0), n, margin_cells=margin)
    u = sample(
        lambda *x: np.exp(-sum((xk - 0.2 * (k + 1)) ** 2 for k, xk in enumerate(x))) + 0.3 * x[0],
        dom,
    )
    pairs = [
        (apply_frac_laplacian(u, S), _dense_signed(u, get_table(dom, 2.0 * S))),
        (apply_frac_power(u, 0.5), _dense_signed(u, get_table(dom, 0.5))),
        (apply_D_s2(u, S), _dense_D_s2(u, get_table(dom, 2.0 * S))),
    ]
    for (got, ref), bound in zip(pairs, bounds):
        assert np.abs(got.interior - ref).max() <= bound * np.abs(ref).max()


def test_signed_operators_share_one_symbol_per_table(monkeypatch):
    # a fresh domain: the symbol is computed once, on first use, and every signed operator reads it
    calls = []
    symbol = kernels._symbol

    def counted(table):
        calls.append(table.sigma)
        return symbol(table)

    monkeypatch.setattr(kernels, "_symbol", counted)
    dom = build_domain(Ball(center=(0.0, 0.0), radius=1.0), 20, margin_cells=2)
    u = sample(lambda x, y: np.maximum(1.0 - x**2 - y**2, 0.0), dom)
    first = apply_frac_laplacian(u, S)
    op = assemble(dom, S)
    assert apply_frac_laplacian(u, S).values.tobytes() == first.values.tobytes()
    assert op.symbol is get_table(dom, 2.0 * S).symbol
    apply_frac_power(u, 0.5)
    apply_frac_power(u, 0.5)
    assert calls == [2.0 * S, 0.5]


def test_kernel_transforms_computed_once_per_table(monkeypatch):
    # a fresh domain: the crop transform serves kappa, the symbol and D_s^2, and the
    # Riesz kernels are transformed once; repeated calls give the same bits
    calls = []
    spectrum = kernels._spectrum

    def counted(kernel, domain):
        calls.append(kernel.shape[: kernel.ndim - domain.dimension])
        return spectrum(kernel, domain)

    monkeypatch.setattr(kernels, "_spectrum", counted)
    dom = build_domain(Ball(center=(0.0, 0.0), radius=1.0), 20, margin_cells=2)
    u = sample(lambda x, y: np.maximum(1.0 - x**2 - y**2, 0.0) * (x + 0.3), dom)
    first = apply_D_s2(u, S), apply_riesz_gradient(u, S)
    assemble(dom, S)
    again = apply_D_s2(u, S), apply_riesz_gradient(u, S)
    assert first[0].values.tobytes() == again[0].values.tobytes()
    assert first[1].tobytes() == again[1].tobytes()
    # the D_s^2 table (order 2s), then the Riesz table (order s) and its 2-stack of kernels
    assert calls == [(), (), (2,)]
    table = get_table(dom, S)
    assert not table.spectrum.flags.writeable and not table.riesz_spectrum.flags.writeable


@pytest.fixture(scope="module")
def dom2d_64():
    """The 2D disk of the Picard benchmark: n = 64, I = 2472."""
    dom = build_domain(Ball(center=(0.0, 0.0), radius=1.0), 64, margin_cells=4)
    assert dom.interior_count == 2472
    return dom


@pytest.mark.parametrize(
    "apply",
    [
        lambda u: apply_D_s2(u, S),
        lambda u: apply_frac_laplacian(u, S),
        lambda u: apply_B_sq(u, S, 1.8),
        lambda u: riesz_potential(u, 1.3),
    ],
    ids=["D_s2", "frac_laplacian", "B_sq", "riesz_potential"],
)
def test_operators_allocate_no_dense_array(dom2d_64, apply):
    u = sample(lambda x, y: np.maximum(1.0 - x**2 - y**2, 0.0) ** 2, dom2d_64)
    apply(u)  # builds the kernel table outside the measurement
    tracemalloc.start()
    try:
        apply(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * dom2d_64.interior_count**2


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pair_power_sum_matches_full_rows(dom2d, p):
    assert dom2d.interior_count % PAIR_BLOCK_ROWS != 0
    u = sample(lambda x, y: np.cos(1.3 * x) * (1.0 - x**2 - y**2) + 0.2 * y, dom2d)
    table = get_table(dom2d, 0.6 * p / 2.0)
    ui = u.interior
    ref = (np.abs(ui[:, None] - ui[None, :]) ** p * dense_pairs(table)).sum(axis=1)
    got = pair_power_sum(table, ui, p)
    assert np.abs(got - ref).max() <= 1e-13 * ref.max()


def _dense_pair_power_sum(table, ui, p):
    # the upper-triangle loop as it ran on the dense pair matrix
    P = dense_pairs(table)
    n = len(ui)
    out = np.zeros(n)
    below = np.tri(PAIR_BLOCK_ROWS, k=-1, dtype=bool)
    for i0 in range(0, n, PAIR_BLOCK_ROWS):
        i1 = min(i0 + PAIR_BLOCK_ROWS, n)
        diff = ui[i0:i1, None] - ui[None, i0:]
        np.abs(diff, out=diff)
        diff **= p
        diff *= P[i0:i1, i0:]
        diff[:, : i1 - i0][below[: i1 - i0, : i1 - i0]] = 0.0
        out[i0:i1] += diff.sum(axis=1)
        out[i0:] += diff.sum(axis=0)
    return out


@pytest.mark.parametrize(
    "p, order, high", [(1.5, 0.45, False), (2.0, 0.6, False), (3.0, 0.9, False), (3.0, 2.7, True)]
)
def test_pair_power_sum_equals_dense_loop(dom2d, p, order, high):
    assert dom2d.interior_count % PAIR_BLOCK_ROWS != 0
    u = sample(lambda x, y: np.cos(1.3 * x) * (1.0 - x**2 - y**2) + 0.2 * y, dom2d)
    table = get_table(dom2d, order)
    assert (table.norm_const is None) == high
    got = pair_power_sum(table, u.interior, p)
    assert np.array_equal(got, _dense_pair_power_sum(table, u.interior, p))


@pytest.fixture
def pools(monkeypatch):
    """max_workers of every pool pair_power_sum starts during the test: one thread fewer than compute."""
    started = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(operators, "ThreadPoolExecutor", Counted)
    return started


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_pair_power_sum_bits_independent_of_worker_count(dom2d, monkeypatch, pools, p):
    # every call on threads, more workers than cores, switching threads as often as possible
    monkeypatch.setattr(operators, "PAIR_THREAD_MIN", 0)
    u = sample(lambda x, y: np.cos(1.3 * x) * (1.0 - x**2 - y**2) + 0.2 * y, dom2d)
    table = get_table(dom2d, 0.6 * p / 2.0)
    dense = _dense_pair_power_sum(table, u.interior, p)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(operators, "_usable_cpus", lambda: workers)
            assert np.array_equal(pair_power_sum(table, u.interior, p), dense)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [1, 2]


def test_pair_power_sum_threads_only_above_the_pair_threshold(dom2d, dom2d_64, monkeypatch, pools):
    monkeypatch.setattr(operators, "_usable_cpus", lambda: 2)
    assert dom2d.interior_count**2 < PAIR_THREAD_MIN <= dom2d_64.interior_count**2
    for dom in (dom2d, dom2d_64):
        pair_power_sum(get_table(dom, 2.0 * S), np.ones(dom.interior_count), 2.0)
    assert pools == [1]


@pytest.mark.parametrize("workers", [1, 2])
def test_pair_power_sum_memory_per_worker(dom2d_64, monkeypatch, workers):
    # two PAIR_BLOCK_ROWS x I buffers per worker, plus O(I) vectors and slab sums
    monkeypatch.setattr(operators, "_usable_cpus", lambda: workers)
    I = dom2d_64.interior_count
    table = get_table(dom2d_64, 2.0 * S)
    ui = np.cos(0.37 * np.arange(I))
    tracemalloc.start()
    try:
        pair_power_sum(table, ui, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (workers * 2 * PAIR_BLOCK_ROWS + 64) * I * 8


@pytest.mark.parametrize("N, n", [(1, 60), (2, 24), (3, 9)])
def test_pair_matrix_equals_offset_indexing(N, n):
    # the tightest cutoff a domain allows, so the crop the slabs are gathered
    # from reaches close to the lattice edge
    shape = Annulus(0.3, 1.0, (0.0,) * N)
    dom = build_domain(shape, n, margin_cells=2)
    dom = GridDomain(shape, dom.lo, dom.hi, n, cutoff_radius=dom.bbox_diameter + dom.h)
    table = get_table(dom, 0.9)
    ij = dom.interior_index
    d = ij[:, None, :] - ij[None, :, :]
    expected = table.weights[tuple(d[..., k] + n - 1 for k in range(N))]
    assert not np.any(np.diag(expected))
    # on the one-hot vector e_k every i != k has one nonzero pair term, |0 - 1|^p w_ik = w_ik;
    # k runs over both sides of a slab edge
    I = len(ij)
    for k in sorted({0, 1, PAIR_BLOCK_ROWS - 1, PAIR_BLOCK_ROWS, I // 2, I - 1} & set(range(I))):
        e = np.zeros(I)
        e[k] = 1.0
        others = np.arange(I) != k
        assert np.array_equal(pair_power_sum(table, e, 1.5)[others], expected[others, k])


@pytest.mark.parametrize(
    "N,n,lam,origin_offset",
    [(2, 20, 1.3, False), (2, 17, 0.4, True), (3, 8, 2.2, False), (3, 7, 0.9, True)],
)
def test_riesz_potential_matrix_matches_offset_rows(N, n, lam, origin_offset):
    # reference: one cell integral per interior pair offset, as an I^2 x N array
    from fraclab.kernels import cell_kernel_integrals

    dom = build_domain(Ball(center=(0.0,) * N, radius=1.0), n, margin_cells=2, origin_offset=origin_offset)
    ij = dom.interior_index
    flat = (ij[:, None, :] - ij[None, :, :]).reshape(-1, N)
    nonzero = np.any(flat != 0, axis=1)
    vals = np.zeros(len(flat))
    vals[nonzero] = cell_kernel_integrals(np.sort(np.abs(flat[nonzero]), axis=1), -lam, dom.h)
    vals[~nonzero] = origin_cell_moment(dom.h, N, -lam)
    V = vals.reshape(len(ij), len(ij))
    # the cell-integral crop riesz_potential correlates with, gathered
    W, _ = _cell_crop(dom, -lam, n - 1, ball=False)
    W[(n - 1,) * N] = origin_cell_moment(dom.h, N, -lam)
    assert np.array_equal(lattice_gather(W, ij), V)
    g = dom.from_interior(np.cos(3.0 * dom.interior_coords).prod(axis=1))
    got = riesz_potential(g, lam).interior
    ref = V @ g.interior
    # FFT against the dense product: measured at most 8.8e-16 over these cases;
    # the bound is three times that, rounded up
    assert np.abs(got - ref).max() <= 3e-15 * np.abs(ref).max()


def _torsion(N, n, s):
    # Getoor's torsion function c (1-|x|^2)_+^s, whose (-Delta)^s is 1 on the unit ball; returns c and u
    dom = build_domain(Ball(center=(0.0,) * N, radius=1.0), n, margin_cells=2)
    c = math.gamma(N / 2) / (4.0**s * math.gamma(1.0 + s) * math.gamma(N / 2 + s))
    return c, sample(lambda *xs: c * np.maximum(1.0 - sum(x * x for x in xs), 0.0) ** s, dom)


def _torsion_core(N, n, s):
    # the operator's values on the core |x| < 0.5, where they should be 1
    _, u = _torsion(N, n, s)
    core = (u.domain.interior_coords**2).sum(axis=1) < 0.25
    return apply_frac_laplacian(u, s).interior[core]


ORIGIN_CELL_XFAIL = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the origin cell counts the local term N times"
)


@pytest.mark.parametrize(
    "N, n",
    [(1, 800), pytest.param(2, 64, marks=ORIGIN_CELL_XFAIL), pytest.param(3, 16, marks=ORIGIN_CELL_XFAIL)],
)
def test_torsion_anchor_near_the_local_limit(N, n):
    # measured: 1.0134-1.0135 in 1D, 1.927-1.932 in 2D, 2.905-2.916 in 3D
    assert np.abs(_torsion_core(N, n, 0.99) - 1.0).max() <= 0.02


def test_torsion_anchor_error_falls_with_refinement():
    # measured: 4.0e-3 at n = 400, 2.3e-3 at n = 800
    coarse, fine = (np.abs(_torsion_core(1, n, 0.6) - 1.0).max() for n in (400, 800))
    assert fine < coarse


def _D_s2_anchor_error(N, n, s):
    # D_s^2(u) = u (-Delta)^s u - (1/2) (-Delta)^s (u^2) for Getoor's torsion function u,
    # where (-Delta)^s u = 1 and (-Delta)^s (1-|x|^2)_+^{2s} is Dyda's closed form with one 2F1;
    # returns max |got - exact| / max |exact| on the core 0.3 < |x| < 0.6
    from scipy.special import hyp2f1

    c, u = _torsion(N, n, s)
    r2 = (u.domain.interior_coords**2).sum(axis=1)
    core = (r2 > 0.09) & (r2 < 0.36)
    k = c * c * 4.0**s * math.gamma(2 * s + 1) * math.gamma(N / 2 + s) / (math.gamma(s + 1) * math.gamma(N / 2))
    exact = u.interior[core] - 0.5 * k * hyp2f1(N / 2 + s, -s, N / 2, r2[core])
    got = apply_D_s2(u, s).interior[core]
    return np.abs(got - exact).max() / np.abs(exact).max()


@pytest.mark.parametrize(
    "N, n",
    [(1, 1600), pytest.param(2, 128, marks=ORIGIN_CELL_XFAIL), pytest.param(3, 32, marks=ORIGIN_CELL_XFAIL)],
)
def test_D_s2_anchor_near_the_local_limit(N, n):
    # measured at s = 0.9: 3.75e-2 in 1D, 0.413 in 2D, 0.960 in 3D
    assert _D_s2_anchor_error(N, n, 0.9) <= 0.1


def _polynomial_anchor_error(N, n, s):
    # at p = s+1 Dyda's formula is a polynomial: (-Delta)^s (1-|x|^2)_+^{s+1} =
    # 4^s Gamma(s+2) Gamma(N/2+s) / Gamma(N/2) (1 - (1+2s/N)|x|^2) on the unit ball;
    # returns max |got - exact| / max |exact| on the core |x| < 0.5
    dom = build_domain(Ball(center=(0.0,) * N, radius=1.0), n, margin_cells=2)
    u = sample(lambda *xs: np.maximum(1.0 - sum(x * x for x in xs), 0.0) ** (s + 1.0), dom)
    r2 = (dom.interior_coords**2).sum(axis=1)
    core = r2 < 0.25
    c = 4.0**s * math.gamma(s + 2.0) * math.gamma(N / 2 + s) / math.gamma(N / 2)
    exact = c * (1.0 - (1.0 + 2.0 * s / N) * r2[core])
    got = apply_frac_laplacian(u, s).interior[core]
    return np.abs(got - exact).max() / np.abs(exact).max()


@pytest.mark.parametrize("s, coarse_bound, fine_bound", [(0.3, 2e-4, 8e-5), (0.6, 6e-3, 4e-3), (0.9, 6e-2, 5e-2)])
def test_polynomial_anchor_error_falls_with_refinement(s, coarse_bound, fine_bound):
    # measured at n = 400 and 800: 1.44e-4 and 5.46e-5 (s = 0.3), 4.72e-3 and
    # 2.70e-3 (s = 0.6), 4.77e-2 and 4.15e-2 (s = 0.9)
    coarse, fine = (_polynomial_anchor_error(1, n, s) for n in (400, 800))
    assert fine < coarse
    assert coarse <= coarse_bound and fine <= fine_bound


@pytest.mark.parametrize(
    "N, n",
    [(1, 800), pytest.param(2, 128, marks=ORIGIN_CELL_XFAIL), pytest.param(3, 32, marks=ORIGIN_CELL_XFAIL)],
)
def test_polynomial_anchor_near_the_local_limit(N, n):
    # measured at s = 0.9: 4.15e-2 in 1D, 0.439 in 2D, 1.11 in 3D
    assert _polynomial_anchor_error(N, n, 0.9) <= 0.1


def test_D_s2_anchor_error_falls_with_refinement():
    # measured: 2.22e-3 at n = 800, 1.28e-3 at n = 1600
    coarse, fine = (_D_s2_anchor_error(1, n, 0.6) for n in (800, 1600))
    assert fine < coarse
