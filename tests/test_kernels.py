import functools
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from fraclab import (
    Ball,
    ConfigurationError,
    GridDomain,
    IterationConfig,
    ParameterError,
    ProblemSpec,
    apply_B_sq,
    apply_D_s2,
    apply_frac_laplacian,
    apply_riesz_gradient,
    assemble,
    ball_membership,
    build_domain,
    gagliardo_double_sum,
    get_table,
    normalization_constant,
    normalization_constant_quadrature,
    picard_iterate,
    sample,
    sphere_area,
)
from conftest import dense_pairs
from fraclab import grids, kernels
from fraclab.kernels import build_kernel_table, cell_kernel_integrals


def test_normalization_half_1d():
    # Gamma(-1/2) = -2 sqrt(pi) gives a_{1,1/2} = 1/pi
    assert normalization_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_normalization_half_2d():
    assert normalization_constant(2, 0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_normalization_positive_range():
    for N in (1, 2, 3):
        for s in (0.1, 0.5, 0.9, 0.99):
            assert normalization_constant(N, s) > 0.0


def test_normalization_rejects_bad_s():
    for s in (0.0, 1.0, -0.3, 1.2):
        with pytest.raises(ParameterError):
            normalization_constant(2, s)


def test_normalization_quadrature_matches_gamma():
    val = normalization_constant_quadrature(2, 0.75)
    assert val == pytest.approx(normalization_constant(2, 0.75), rel=1e-3)


def test_kernel_weights_1d_exact():
    dom = build_domain(Ball(center=(0.0,), radius=1.0), 50, margin_cells=5)
    h = dom.h
    tab = get_table(dom, 1.0)
    # the crop of side 2n-1, zero offset at n-1; first offset: integral of
    # y^-2 over [h/2, 3h/2] = (2/h)(1 - 1/3)
    assert tab.weights.shape == (2 * dom.nodes_per_axis - 1,)
    w1 = tab.weights[dom.nodes_per_axis]
    assert w1 == pytest.approx((2.0 / h) * (1.0 - 1.0 / 3.0), rel=1e-14)


def test_kernel_table_invariants(dom2d):
    tab = get_table(dom2d, 1.2)
    W = tab.weights
    n = dom2d.nodes_per_axis
    assert W.shape == (2 * n - 1, 2 * n - 1)
    nz = W > 0
    assert np.array_equal(nz, nz[::-1, ::-1])  # w_z = w_{-z} support
    assert np.allclose(W, W[::-1, ::-1], rtol=0, atol=0)  # exact symmetry
    assert np.all(tab.kappa > 0)
    center = W[n - 1, n - 1]
    assert center == 0.0


def test_weight_sum_bounded_by_fullspace(dom1d):
    sigma = 1.3
    tab = get_table(dom1d, sigma)
    h = dom1d.h
    # sum of all weights plus tail is below the integral over |y| > h/2
    full = 2.0 * (h / 2.0) ** (-sigma) / sigma
    assert tab.total_weight + tab.tail <= full * (1.0 + 1e-12)
    assert tab.total_weight + tab.tail >= 0.9 * full


def _with_cutoff(dom, R):
    return GridDomain(dom.shape, dom.lo, dom.hi, dom.nodes_per_axis, cutoff_radius=R)


def test_tail_formula_and_monotonicity(dom2d):
    sigma = 1.5
    t_small = build_kernel_table(_with_cutoff(dom2d, 6.0), sigma)
    t_big = build_kernel_table(_with_cutoff(dom2d, 12.0), sigma)
    assert t_big.tail < t_small.tail
    R_eff = (t_small.lattice_radius + 0.5) * dom2d.h
    assert t_small.tail == pytest.approx(
        sphere_area(1) * R_eff ** (-sigma) / sigma, rel=1e-12
    )


def test_cutoff_too_small_rejected(dom1d):
    # the cutoff is a domain property, checked where the domain is built
    with pytest.raises(ConfigurationError, match="cutoff radius"):
        _with_cutoff(dom1d, 0.5 * dom1d.bbox_diameter)
    with pytest.raises(ConfigurationError, match="cutoff radius"):
        build_domain(dom1d.shape, dom1d.nodes_per_axis, margin_cells=20, cutoff_factor=0.5)
    with pytest.raises(ConfigurationError, match="cutoff radius"):
        build_domain(dom1d.shape, dom1d.nodes_per_axis, margin_cells=20, cutoff_factor=math.nan)
    # an infinite cutoff passed, and the table build died in an OverflowError
    with pytest.raises(ConfigurationError, match="^cutoff radius must be finite, got inf$"):
        build_domain(dom1d.shape, dom1d.nodes_per_axis, margin_cells=20, cutoff_factor=math.inf)
    assert _with_cutoff(dom1d, dom1d.bbox_diameter + dom1d.h).cutoff_radius == dom1d.bbox_diameter + dom1d.h


def test_domain_cutoff_reaches_every_table_reader(table_builds):
    # each reader asks for its own order, so each builds a table, and every
    # build is at the cutoff the domain was made with
    dom = build_domain(Ball(center=(0.0,), radius=1.0), 40, margin_cells=4, cutoff_factor=6.0)
    u = sample(lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 2, dom)
    assemble(dom, 0.6)
    apply_frac_laplacian(u, 0.4)
    apply_frac_laplacian(u, 0.25)
    apply_D_s2(u, 0.35)
    apply_B_sq(u, 0.6, 1.5)
    apply_riesz_gradient(u, 0.45)
    gagliardo_double_sum(u, 1.8, 0.6)
    ball_membership(u, 0.6, 0.1, 3.0, 1.0)
    spec = ProblemSpec(rhs_kind="riesz_grad_q", s=0.6, lam=0.02, mu=u, f=u, q=1.5)
    rep = picard_iterate(spec, IterationConfig(max_iter=5))
    rep.history
    ball_membership(rep.u_final, 0.6, 0.2, 2.0, 1.0)
    orders = [1.2, 0.8, 0.5, 0.7, 0.6 * 1.5, 0.45, 0.6 * 1.8, (0.6 + 0.1) * 3.0, 0.6, (0.6 + 0.2) * 2.0]
    assert sorted(table_builds) == sorted((sigma, 6.0 * dom.bbox_diameter) for sigma in orders)


def test_order_out_of_range_rejected(dom1d):
    with pytest.raises(ParameterError, match=r"kernel order sigma must lie in \(0,3\)"):
        build_kernel_table(dom1d, 3.0)
    with pytest.raises(ParameterError):
        build_kernel_table(dom1d, 0.0)
    # every order below N+2 builds; from 2 up the table carries no normalization
    tab = build_kernel_table(dom1d, 2.4)
    assert tab.norm_const is None


@pytest.mark.parametrize(
    "call",
    [
        lambda u: apply_B_sq(u, 0.9, 3.5),  # s*q = 3.15 >= N+2
        lambda u: apply_B_sq(u, 0.6, 5.0),  # s*q rounds to N+2
        lambda u: gagliardo_double_sum(u, 4.0, 0.8),  # s*p = 3.2 >= N+2
        lambda u: gagliardo_double_sum(u, 6.0, 0.5, "omega_omega"),  # s*p = N+2
        lambda u: ball_membership(u, 0.6, 0.1, 5.0, 1.0),  # (s+eps)*r = 3.5 >= N+2
        lambda u: ball_membership(u, 0.5, 0.25, 4.0, 1.0),  # (s+eps)*r = N+2
    ],
    ids=["B_sq", "B_sq_at_N+2", "gagliardo", "gagliardo_at_N+2", "ball", "ball_at_N+2"],
)
def test_pair_sum_orders_refused_before_any_build(call, table_builds):
    # every pair sum reaches its table through get_table, whose build refuses the order
    u = sample(lambda x: 1.0 - x**2, _small_domain())
    with pytest.raises(ParameterError, match="kernel order sigma must lie in"):
        call(u)
    assert table_builds == []


def _small_domain():
    return build_domain(Ball(center=(0.0,), radius=1.0), 40, margin_cells=4)


def test_get_table_memoizes(table_builds):
    dom = _small_domain()
    assert get_table(dom, 1.2) is get_table(dom, 1.2)
    assert len(table_builds) == 1


def test_nonpositive_kappa_rejected(monkeypatch, dom1d):
    # pair row sums beyond the full-space mass leave no exterior mass
    monkeypatch.setattr(kernels, "_box_product", lambda values, spectrum, domain: np.full(domain.interior_count, np.inf))
    with pytest.raises(ConfigurationError, match="kappa must be positive"):
        build_kernel_table(dom1d, 1.2)


def test_dropped_domain_frees_its_tables(no_gc):
    # a table holds its domain weakly and the memo is keyed weakly by domain,
    # so reference counting alone frees the domain and its tables
    dom = build_domain(Ball(center=(0.0, 0.0), radius=1.0), 16, margin_cells=2)
    u = sample(lambda x, y: 1.0 - x**2 - y**2, dom)
    assemble(dom, 0.6)
    apply_D_s2(u, 0.6)
    apply_riesz_gradient(u, 0.6)
    refs = [weakref.ref(dom), weakref.ref(get_table(dom, 1.2)), weakref.ref(get_table(dom, 0.6))]
    del dom, u
    assert all(ref() is None for ref in refs)


def test_orphaned_table_raises():
    table = get_table(_small_domain(), 1.2)
    with pytest.raises(ParameterError, match="domain of this kernel table no longer exists"):
        table.domain
    with pytest.raises(ParameterError, match="no longer exists"):
        table.local_moment(2.0)


# ---------------------------------------------------------------------------
# the previous algorithms, kept as references for the sorted-offset table build
# and the closed-form normalization panels
# ---------------------------------------------------------------------------

_REF_SUBDIV = ((32, 1), (16, 3), (8, 8), (4, 24), (2, np.inf))


def _ref_subdiv_for(rinf):
    out = np.full(rinf.shape, 2, dtype=int)
    for nsub, up in reversed(_REF_SUBDIV):
        out[rinf <= up] = nsub
    return out


def _ref_cell_kernel_integrals(offsets, exponent, h):
    offsets = np.asarray(offsets, dtype=int)
    ndim = offsets.shape[1]
    if ndim == 1:
        z = np.abs(offsets[:, 0]).astype(float)
        lo, hi = (z - 0.5) * h, (z + 0.5) * h
        e1 = exponent + 1.0
        return (hi**e1 - lo**e1) / e1
    canon = np.sort(np.abs(offsets), axis=1)
    uniq, inverse = np.unique(canon, axis=0, return_inverse=True)
    rinf = uniq.max(axis=1)
    vals = np.zeros(len(uniq))
    for nsub in np.unique(_ref_subdiv_for(rinf)):
        sel = _ref_subdiv_for(rinf) == nsub
        zg = uniq[sel].astype(float)
        off1 = (np.arange(nsub) + 0.5) / nsub - 0.5
        grids = np.meshgrid(*([off1] * ndim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        out = np.zeros(len(zg))
        chunk = max(1, int(4e6 // max(len(pts), 1)))
        for i in range(0, len(zg), chunk):
            y = (zg[i : i + chunk, None, :] + pts[None, :, :]) * h
            r2 = (y**2).sum(axis=-1)
            out[i : i + chunk] = (r2 ** (exponent / 2.0)).sum(axis=1) * (h / nsub) ** ndim
        vals[sel] = out
    return vals[inverse.reshape(-1)]


def _ref_table(domain, sigma, R):
    """Weights, total weight and kappa built from every lattice row, deduplicated by np.unique."""
    N, h = domain.dimension, domain.h
    M = int(math.floor(R / h))
    mesh = np.meshgrid(*([np.arange(-M, M + 1)] * N), indexing="ij")
    zz = np.stack([m.ravel() for m in mesh], axis=1)
    r = np.linalg.norm(zz, axis=1)
    inside = (r <= M) & (r > 0)
    W = np.zeros((2 * M + 1,) * N)
    W[tuple(zz[inside, k] + M for k in range(N))] = _ref_cell_kernel_integrals(zz[inside], -(N + sigma), h)
    total = float(W.sum())
    tail = sphere_area(N - 1) * ((M + 0.5) * h) ** (-sigma) / sigma
    idx = domain.interior_index
    P = W[tuple((idx[:, None, k] - idx[None, :, k]) + M for k in range(N))]
    np.fill_diagonal(P, 0.0)
    return W, total, total + tail - P.sum(axis=1)


# |total_weight - W.sum()| / W.sum() over these cases, measured: at most 2.7e-16;
# the bound is three times that, rounded up
TOTAL_ROUNDING = 8.2e-16


@pytest.mark.parametrize(
    "N,n,sigma,cutoff_factor,high",
    [
        (1, 60, 1.2, None, False),
        (1, 60, 2.5, 1.6, True),
        (2, 24, 1.3, None, False),
        (2, 20, 3.1, 1.5, True),
        (3, 6, 0.8, None, False),
        (3, 8, 4.2, 1.7, True),
    ],
)
def test_table_matches_full_lattice_build(N, n, sigma, cutoff_factor, high):
    dom = build_domain(
        Ball(center=(0.0,) * N, radius=1.0), n, margin_cells=2, cutoff_factor=cutoff_factor or 4.0
    )
    tab = build_kernel_table(dom, sigma)
    assert (tab.norm_const is None) == high
    W, total, kappa = _ref_table(dom, sigma, dom.cutoff_radius)
    M = tab.lattice_radius
    assert np.array_equal(tab.weights, W[(slice(M - n + 1, M + n),) * N])
    # the table sums its sorted offsets times their multiplicities, not the lattice
    assert abs(tab.total_weight - total) <= TOTAL_ROUNDING * total
    # kappa is an FFT correlation: measured at most 7.8e-16 T over these cases
    T = tab.total_weight + tab.tail
    assert np.abs(tab.kappa - kappa).max() <= 2.5e-15 * T


@pytest.mark.parametrize("N, M", [(1, 40), (2, 30), (3, 12)])
def test_multiplicity_sum_equals_mirrored_lattice_sum(N, M):
    dom = build_domain(Ball(center=(0.0,) * N, radius=1.0), 6, margin_cells=2)
    z = kernels._sorted_offsets(N, M)[1:]
    z = z[(z * z).sum(axis=1) <= M * M]
    # the lattice |z_k| <= M holding the row of the sorted offset each entry mirrors, -1 where none
    rows = np.full((M + 1,) * N, -1)
    for perm in itertools.permutations(range(N)):
        rows[tuple(z[:, k] for k in perm)] = np.arange(len(z))
    rows = rows[np.ix_(*[np.abs(np.arange(-M, M + 1))] * N)]
    assert np.array_equal(np.bincount(rows[rows >= 0], minlength=len(z)), kernels._multiplicity(z))
    vals = cell_kernel_integrals(z, -(N + 1.3), dom.h)
    W = np.where(rows >= 0, vals[rows], 0.0)
    crop, total = kernels._cell_crop(dom, -(N + 1.3), M)
    assert abs(total - W.sum()) <= TOTAL_ROUNDING * W.sum()
    assert np.array_equal(crop, W[(slice(M - 5, M + 6),) * N])


@pytest.mark.parametrize("N, n", [(1, 40), (2, 24), (3, 8)])
def test_chunked_build_equals_unchunked(N, n, monkeypatch):
    dom = build_domain(Ball(center=(0.0,) * N, radius=1.0), n, margin_cells=2)
    monkeypatch.setattr(kernels, "OFFSET_CHUNK_ROWS", 10**9)
    whole = build_kernel_table(dom, 1.2)
    M = whole.lattice_radius
    (rows,) = kernels._offset_chunks(N, M)
    monkeypatch.setattr(kernels, "OFFSET_CHUNK_ROWS", 50)
    chunks = list(kernels._offset_chunks(N, M))
    assert len(chunks) > 3 and np.array_equal(np.concatenate(chunks), rows)
    # cell_kernel_integrals takes the rows as given: sorted, nonnegative, never the origin
    assert rows.min() >= 0 and np.all(np.diff(rows, axis=1) >= 0) and np.all(rows[:, -1] > 0)
    chunked = build_kernel_table(dom, 1.2)
    assert chunked.weights.tobytes() == whole.weights.tobytes()
    assert chunked.total_weight == whole.total_weight
    assert chunked.kappa.tobytes() == whole.kappa.tobytes()


# max-norms on both sides of every edge of the subdivision classes, and two far ones
CLASS_EDGES = (1, 2, 3, 4, 8, 9, 24, 25, 100, 1000)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_cell_integrals_match_deduplicated_reference(N):
    rng = np.random.default_rng(N)
    offsets = rng.integers(-30, 31, size=(400, N))
    offsets = offsets[np.any(offsets != 0, axis=1)]
    offsets = np.concatenate([offsets, -offsets[:, ::-1]])  # mirrored duplicates
    edges = rng.integers(-1000, 1001, size=(40 * len(CLASS_EDGES), N))
    m = np.repeat(CLASS_EDGES, 40)
    edges = np.clip(edges, -m[:, None], m[:, None])
    edges[np.arange(len(m)), rng.integers(0, N, size=len(m))] = m * rng.choice([-1, 1], size=len(m))
    # more far-class rows (max-norm > 24) than one pass of QUAD_POINTS points takes
    far = rng.integers(-400, 401, size=(kernels.QUAD_POINTS // 2**N + 500, N))
    far[:, 0] = rng.integers(25, 401, size=len(far)) * rng.choice([-1, 1], size=len(far))
    offsets = np.concatenate([offsets, edges, far])
    # table orders 0.3, 1.2 and 1.9, ball_membership's high order N + 1.5, and the Riesz potential
    # orders 0.5 and N - 0.2 of test_operators._dense_riesz_potential
    for exponent in (-(N + 0.3), -(N + 1.2), -(N + 1.9), -(2 * N + 1.5), -0.5, -(N - 0.2)):
        got = cell_kernel_integrals(np.sort(np.abs(offsets), axis=1), exponent, 0.05)
        assert np.array_equal(got, _ref_cell_kernel_integrals(offsets, exponent, 0.05))


# one Gauss-Legendre rule per node count, shared by the reference's panels
_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def _ref_normalization_quadrature(N, s, r_min=1e-6, r_max=400.0, panel_order=32):
    def sphere_slice(r, n_theta):
        if N == 1:
            return 2.0 * (1.0 - np.cos(r))
        if N == 2:
            th = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
            vals = 1.0 - np.cos(r[:, None] * np.cos(th)[None, :])
            return (2.0 * math.pi / n_theta) * vals.sum(axis=1)
        t, wt = _leggauss(min(n_theta, 4000))
        wfac = wt * (1.0 - t**2) ** ((N - 3) / 2.0)
        vals = 1.0 - np.cos(r[:, None] * t[None, :])
        return sphere_area(N - 2) * (vals * wfac[None, :]).sum(axis=1)

    SN = sphere_area(N - 1)
    total = SN / (2.0 * N) * r_min ** (2.0 - 2 * s) / (2.0 - 2 * s)
    x, w = np.polynomial.legendre.leggauss(64)
    u0, u1 = math.log(r_min), math.log(math.pi)
    u = (u0 + u1) / 2.0 + (u1 - u0) / 2.0 * x
    total += (u1 - u0) / 2.0 * float((w * sphere_slice(np.exp(u), 96) * np.exp(-2.0 * s * u)).sum())
    xg, wg = np.polynomial.legendre.leggauss(panel_order)
    edges = np.arange(math.pi, r_max + math.pi, math.pi)
    # the angular rule that resolves the last panel serves every panel
    n_theta = max(96, int(4 * edges[-1]) + 32)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        r = mid + half * xg
        total += half * float((wg * sphere_slice(r, n_theta) * r ** (-1 - 2 * s)).sum())
    total += SN * r_max ** (-2.0 * s) / (2.0 * s)
    return 1.0 / total


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("s", [0.05, 0.5, 0.914])
def test_normalization_quadrature_matches_angular_panels(N, s):
    got = normalization_constant_quadrature(N, s)
    assert got == pytest.approx(_ref_normalization_quadrature(N, s), rel=1e-12)



# max |kappa - (T - P 1)| / T for orders 1.2 and 1.8, measured: 4.0e-16 and
# 2.6e-16 (1D, n = 132), 6.1e-16 and 6.1e-16 (1D, 200), 6.8e-16 and 8.9e-16
# (2D, 24), 3.0e-16 and 3.4e-16 (3D, 10).  Relative to kappa itself, which is a
# small difference of large terms in 1D, the same differences reach 8.2e-12.
# Each bound is three times the larger measured value, rounded up.
KAPPA_BOUNDS = {(1, 132): 1.5e-15, (1, 200): 2e-15, (2, 24): 3e-15, (3, 10): 1.1e-15}


@pytest.mark.parametrize("N,n", [(1, 132), (1, 200), (2, 24), (3, 10)])
def test_kappa_block_sums_equal_pair_row_sums(N, n):
    # kappa = T - (crop correlated with 1_interior) by FFT, against the dense pair row sums
    dom = build_domain(Ball(center=(0.0,) * N, radius=1.0), n, margin_cells=2)
    for sigma in (1.2, 1.8):
        tab = get_table(dom, sigma)
        T = tab.total_weight + tab.tail
        ref = T - dense_pairs(tab).sum(axis=1)
        assert np.abs(tab.kappa - ref).max() <= KAPPA_BOUNDS[N, n] * T


def test_dense_array_refused_beyond_available_memory(monkeypatch):
    # the estimate of the build's peak is checked first; a fresh domain, so assemble builds its table
    dom = build_domain(Ball(center=(0.0, 0.0), radius=1.0), 40, margin_cells=4)
    M = int(math.floor(dom.cutoff_radius / dom.h))
    need = kernels._build_bytes(2, 40, M)
    assert (M, need) == (226, 2641520)
    monkeypatch.setattr(grids, "available_memory", lambda: need - 1)
    with pytest.raises(ConfigurationError, match="the 2D kernel table at n = 40, lattice radius 226, needs 2.52 MB"):
        build_kernel_table(dom, 1.2)
    with pytest.raises(ConfigurationError, match="needs"):
        assemble(dom, 0.6)
    monkeypatch.setattr(grids, "available_memory", lambda: need)
    assert build_kernel_table(dom, 1.2).weights.shape == (79, 79)


@pytest.mark.parametrize("N,n", [(1, 20000), (2, 128), (3, 10), (3, 20)])
def test_table_build_peak_matches_refusal_estimate(N, n):
    # the estimate bounds the traced peak from above: measured 1.16 (1D), 1.24 (2D),
    # 1.39 and 1.23 (3D) times the peak; 1.19 (2D) as a process's first build, which
    # also imports numpy.fft
    dom = build_domain(Ball(center=(0.0,) * N, radius=1.0), n, margin_cells=2)
    need = kernels._build_bytes(N, n, int(math.floor(dom.cutoff_radius / dom.h)))
    tracemalloc.start()
    try:
        build_kernel_table(dom, 1.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= need <= 1.5 * peak


def test_available_memory_falls_back_to_sysconf(monkeypatch):
    assert grids.available_memory() > 0

    def unreadable(*args, **kwargs):
        raise OSError("no /proc here")

    monkeypatch.setattr(grids, "open", unreadable, raising=False)
    pages = {"SC_AVPHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(grids.os, "sysconf", lambda name: pages[name])
    assert grids.available_memory() == 4096 * 1000

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(grids.os, "sysconf", unknown)
    assert grids.available_memory() is None


@pytest.mark.parametrize("N, n_max", [(1, 69), (2, 69), (3, 23)])
def test_fft_helpers_match_scipy_fft_bits(N, n_max):
    import scipy.fft as sp_fft  # the oracle; the package does not import it

    rng = np.random.default_rng(N)
    for n in range(3, n_max + 1):
        shape = (kernels._next_fast_len(2 * n - 1),) * N
        axes = tuple(range(-N, 0))
        # grid values zero-padded to the box, with and without a stack axis
        for lead in ((), (N,)):
            values = rng.standard_normal(lead + (n,) * N)
            got = kernels._rfftn(values, shape)
            assert got.tobytes() == sp_fft.rfftn(values, shape, axes=axes).tobytes()
            spec = got * rng.standard_normal(got.shape[-N:])
            want = sp_fft.irfftn(spec, shape, axes=axes)[(Ellipsis,) + (slice(0, n),) * N]
            assert kernels._irfftn(spec, shape, n).tobytes() == want.tobytes()


def test_next_fast_len_matches_scipy():
    import scipy.fft as sp_fft

    assert [kernels._next_fast_len(n) for n in range(1, 5000)] == [
        sp_fft.next_fast_len(n, real=True) for n in range(1, 5000)
    ]
