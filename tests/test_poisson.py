import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from fraclab import (
    Ball,
    ConsistencyError,
    ParameterError,
    apply_frac_laplacian,
    assemble,
    build_domain,
    gagliardo_double_sum,
    get_table,
    sample,
    solve_poisson,
)
from conftest import dense_stiffness
from fraclab import poisson

S = 0.6


@pytest.fixture(scope="module")
def solver1d(dom1d):
    return assemble(dom1d, S)


def _dense(dom):
    return dense_stiffness(get_table(dom, 2.0 * S))


def test_matrix_matches_apply(dom1d, bump1d):
    mv = _dense(dom1d) @ bump1d.interior
    direct = apply_frac_laplacian(bump1d, S).interior
    assert np.max(np.abs(mv - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_matrix_symmetry_exact(dom1d):
    A = _dense(dom1d)
    assert np.max(np.abs(A - A.T)) == 0.0


def test_m_matrix_structure(dom2d):
    A = _dense(dom2d)
    d = np.diag(A)
    assert np.all(d > 0)
    off = A - np.diag(d)
    assert off.max() <= 0.0
    assert np.all(A.sum(axis=1) > 0)  # strict diagonal dominance


def test_smallest_eigenvalue_positive_by_inverse_iteration(dom1d_small):
    op = assemble(dom1d_small, S)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(dom1d_small.interior_count)
    v /= np.linalg.norm(v)
    lam = None
    for _ in range(60):
        w = op.solve_vector(v)
        lam = 1.0 / np.linalg.norm(w)
        v = w * lam
    assert lam is not None and lam > 0.0
    # residual of the eigenpair
    r = apply_frac_laplacian(dom1d_small.from_interior(v), S).interior - lam * v
    assert np.linalg.norm(r) < 1e-8 * lam


def test_zero_rhs(dom1d):
    v = solve_poisson(dom1d.zeros(), S)
    assert np.all(v.values == 0.0)


def test_maximum_principle_zero_tolerance(dom1d):
    rng = np.random.default_rng(11)
    h = dom1d.from_interior(rng.random(dom1d.interior_count))
    v = solve_poisson(h, S)
    assert v.interior.min() >= 0.0


def test_solver_linearity(dom1d, bump1d):
    f2 = sample(lambda x: np.cos(x), dom1d)
    va = solve_poisson(bump1d, S)
    vb = solve_poisson(f2, S)
    vc = solve_poisson(2.0 * bump1d + (-0.7) * f2, S)
    combo = 2.0 * va.interior - 0.7 * vb.interior
    assert np.max(np.abs(vc.interior - combo)) <= 1e-10 * np.max(np.abs(combo))


def test_comparison_principle(dom1d):
    h1 = sample(lambda x: 1.0 + 0.2 * np.sin(3 * x), dom1d)
    h2 = sample(lambda x: 1.5 + 0.2 * np.sin(3 * x), dom1d)
    v1 = solve_poisson(h1, S)
    v2 = solve_poisson(h2, S)
    assert np.all(v2.interior >= v1.interior - 1e-14)


def test_energy_identity(dom1d, bump1d):
    op = assemble(dom1d, S)
    tab = get_table(dom1d, 2.0 * S)
    lhs = op.energy(bump1d)
    rhs = 0.5 * tab.norm_const * gagliardo_double_sum(bump1d, 2.0, S, "d_omega")
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_residual_bound(dom1d):
    h = sample(lambda x: np.exp(x), dom1d)
    v = solve_poisson(h, S)
    res = apply_frac_laplacian(v, S).interior - h.interior
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(h.interior)


def test_s_harmonic_profile():
    # h = 1 on the 1D unit ball: v approaches C (1-x^2)^s with the closed-form
    # constant C = Gamma(1/2) / (2^{2s} Gamma(1/2+s) Gamma(1+s))
    s = 0.75
    dom = build_domain(Ball(center=(0.0,), radius=1.0), 640, margin_cells=64)
    v = solve_poisson(sample(lambda x: np.ones_like(x), dom), s)
    C = math.gamma(0.5) / (2.0 ** (2 * s) * math.gamma(0.5 + s) * math.gamma(1.0 + s))
    exact = sample(lambda x: C * (1.0 - x**2) ** s, dom)
    rel = np.linalg.norm(v.interior - exact.interior) / np.linalg.norm(exact.interior)
    assert rel < 0.02


def _dim_domain(dim, dom1d, dom2d):
    if dim == 3:
        return build_domain(Ball(center=(0.0, 0.0, 0.0), radius=1.0), 10, margin_cells=1)
    return dom1d if dim == 1 else dom2d


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_assemble_bit_identical_to_reference(dim, dom1d, dom2d):
    # one operator core: the stiffness matvec is apply_frac_laplacian, bit for bit
    dom = _dim_domain(dim, dom1d, dom2d)
    v = np.random.default_rng(dim).standard_normal(dom.interior_count)
    got = assemble(dom, S).matvec(v)
    assert got.tobytes() == apply_frac_laplacian(dom.from_interior(v), S).interior.tobytes()


def _doctored(table, how):
    # a weight and its mirror change together: the weights stay symmetric
    W = table.weights.copy()
    c, N = table.domain.nodes_per_axis - 1, table.domain.dimension
    near = ([c - 1, c + 1],) + (c,) * (N - 1)
    if how == "negative_weight":
        W[near] = -W[near]
    elif how == "tiny_negative_weight":  # inside the 1e-14 off-diagonal tolerance
        W[near] = -1e-16 * table.total_weight
    elif how == "nan_weight":
        W[near] = np.nan
    elif how == "half_total":
        return replace(table, total_weight=0.5 * table.total_weight)
    elif how == "negative_total":
        return replace(table, total_weight=-2.0 * (table.total_weight + table.tail))
    elif how == "infinite_total":
        return replace(table, total_weight=np.inf)
    return replace(table, weights=W)


@pytest.mark.parametrize(
    "how, message",
    [
        ("negative_weight", "off-diagonal"),
        ("tiny_negative_weight", None),
        ("nan_weight", "diagonally dominant"),
        ("half_total", "diagonally dominant"),
        ("negative_total", "diagonal must be positive"),
        ("infinite_total", "positive and finite"),
    ],
)
def test_assemble_rejects_what_reference_rejects(dom1d_small, monkeypatch, how, message):
    # the dense reference runs the same checks on the I x I matrix itself
    table = _doctored(get_table(dom1d_small, 2.0 * S), how)
    monkeypatch.setattr(poisson, "get_table", lambda *args: table)
    if message is None:
        v = np.random.default_rng(2).standard_normal(dom1d_small.interior_count)
        ref = dense_stiffness(table) @ v
        assert np.linalg.norm(assemble(dom1d_small, S).matvec(v) - ref) <= 1e-14 * np.linalg.norm(ref)
        return
    with pytest.raises(ConsistencyError, match=message) as ref:
        dense_stiffness(table)
    with pytest.raises(ConsistencyError) as new:
        assemble(dom1d_small, S)
    assert str(new.value) == str(ref.value)


def test_assemble_allocates_only_the_stiffness_matrix(dom2d):
    # the operator holds one symbol of the FFT box, (L, L/2+1) with L = 80 here
    get_table(dom2d, 2.0 * S)
    tracemalloc.start()
    try:
        assemble(dom2d, S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * dom2d.interior_count**2


def test_solve_vector_matches_checked_cho_solve(dom1d):
    # PCG against a checked Cholesky solve of the dense matrix: measured 9.6e-15
    op = assemble(dom1d, S)
    rhs = np.random.default_rng(5).standard_normal(dom1d.interior_count)
    ref = cho_solve(cho_factor(_dense(dom1d), lower=True), rhs)
    assert np.abs(op.solve_vector(rhs) - ref).max() <= 3e-14 * np.abs(ref).max()


# max |PCG - dense| / max |dense| for the bump max(0, 1 - |x|^2/0.5)^2, measured
# per (N, s): 1D n = 400 (I = 392): 1.9e-15, 8.1e-14, 8.2e-14; 2D n = 48
# (I = 1264): 1.0e-15, 2.7e-15, 1.3e-15; 3D n = 16 (I = 280): 1.1e-15,
# 1.0e-15, 8.3e-16.  Each bound is three times the measured value, rounded up.
@pytest.mark.parametrize(
    "N, n, s, bound",
    [
        (1, 400, 0.3, 6e-15),
        (1, 400, 0.6, 2.5e-13),
        (1, 400, 0.9, 2.5e-13),
        (2, 48, 0.3, 3.1e-15),
        (2, 48, 0.6, 8e-15),
        (2, 48, 0.9, 4e-15),
        (3, 16, 0.3, 3.3e-15),
        (3, 16, 0.6, 3.1e-15),
        (3, 16, 0.9, 2.5e-15),
    ],
)
def test_pcg_matches_dense_solve(N, n, s, bound):
    dom = build_domain(Ball(center=(0.0,) * N, radius=1.0), n, margin_cells=4)
    rhs = np.maximum(0.0, 1.0 - (dom.interior_coords**2).sum(axis=1) / 0.5) ** 2
    ref = np.linalg.solve(dense_stiffness(get_table(dom, 2.0 * s)), rhs)
    got = assemble(dom, s).solve_vector(rhs)
    assert np.abs(got - ref).max() <= bound * np.abs(ref).max()


def test_pcg_past_iteration_cap_is_consistency_error(dom1d, monkeypatch):
    op = assemble(dom1d, S)
    monkeypatch.setattr(poisson, "PCG_MAX_ITER", 2)
    with pytest.raises(ConsistencyError, match="conjugate gradients"):
        op.solve_vector(np.ones(dom1d.interior_count))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_matvec_matches_dense_before_and_after_factorization(dim, dom1d, dom2d):
    # a solve leaves the symbol as it was, so the matvec is the same after it
    dom = _dim_domain(dim, dom1d, dom2d)
    op = assemble(dom, S)
    v = np.random.default_rng(7).standard_normal(dom.interior_count)
    ref = _dense(dom) @ v
    before = op.matvec(v)
    op.solve_vector(v)
    after = op.matvec(v)
    assert after.tobytes() == before.tobytes()
    assert np.linalg.norm(before - ref) <= 1e-14 * np.linalg.norm(ref)


def test_infinite_diagonal_fails_factorization(dom1d_small, monkeypatch):
    # an infinite diagonal passes the sign checks; it is refused before any solve
    table = replace(get_table(dom1d_small, 2.0 * S), total_weight=np.inf)
    monkeypatch.setattr(poisson, "get_table", lambda *args: table)
    with pytest.raises(ConsistencyError, match="diagonal must be positive and finite"):
        assemble(dom1d_small, S)


def test_assemble_and_solve_allocate_no_dense_array():
    # a fresh domain: the table build, assembly and one solve together stay
    # below a tenth of one I x I array; the largest allocation is the weight
    # lattice, 6.6 MB at I = 4060
    dom = build_domain(Ball(center=(0.0, 0.0), radius=1.0), 80, margin_cells=4)
    n = dom.interior_count
    assert n == 4060
    rhs = np.ones(n)
    tracemalloc.start()
    try:
        op = assemble(dom, S)
        v = op.solve_vector(rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * n**2
    assert np.linalg.norm(op.matvec(v) - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_rhs_is_parameter_error(solver1d, dom1d, bad):
    rhs = np.ones(dom1d.interior_count)
    rhs[3] = bad
    with pytest.raises(ParameterError):
        solver1d.solve_vector(rhs)
    with pytest.raises(ParameterError):
        solve_poisson(dom1d.from_interior(rhs), S)
