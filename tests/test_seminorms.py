import math
import sys
import tracemalloc

import numpy as np
import pytest

from fraclab import (
    Ball,
    ConfigurationError,
    ConsistencyError,
    ParameterError,
    QuadratureError,
    apply_D_s2,
    ball_membership,
    build_domain,
    gagliardo_double_sum,
    get_table,
    hardy_constant,
    hardy_constant_mc,
    hardy_ratio,
    integrate,
    sample,
    sphere_area,
)
from fraclab import grids, operators, seminorms
from fraclab.nonexistence import radial_bump

S = 0.6


def test_gagliardo_zero(dom1d):
    assert gagliardo_double_sum(dom1d.zeros(), 2.0, S) == 0.0


def test_gagliardo_region_monotone(bump1d):
    inner = gagliardo_double_sum(bump1d, 2.0, S, "omega_omega")
    full = gagliardo_double_sum(bump1d, 2.0, S, "d_omega")
    assert inner <= full


def test_gagliardo_refuses_an_unknown_region(bump1d):
    # "full_space" was an alias of "d_omega": for exterior-zero functions the two sums agree
    for region in ("full_space", "D_omega"):
        with pytest.raises(ParameterError, match=r"^region must be one of \('omega_omega', 'd_omega'\)"):
            gagliardo_double_sum(bump1d, 2.0, S, region)


def test_gagliardo_p_homogeneity(bump1d):
    for p in (1.0, 1.5, 2.0):
        base = gagliardo_double_sum(bump1d, p, S)
        scaled = gagliardo_double_sum(-2.0 * bump1d, p, S)
        assert scaled == pytest.approx(2.0**p * base, rel=1e-13)


def test_gagliardo_rejects_high_order(bump1d):
    with pytest.raises(ParameterError):
        gagliardo_double_sum(bump1d, 5.0, S)  # s*p = 3.0 = N+2


def test_ball_membership_is_the_gagliardo_sum_at_order_s_plus_eps(table_builds):
    # (s+eps)*r = 2.8 lies in [2, N+2): both calls read the one table of that order
    dom = build_domain(Ball(center=(0.0,), radius=1.0), 60, margin_cells=6)
    u = sample(lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 3, dom)
    value = gagliardo_double_sum(u, 4.0, S + 0.1)
    assert ball_membership(u, S, 0.1, 4.0, 1.0)[1] == value
    assert [sigma for sigma, _ in table_builds] == [(S + 0.1) * 4.0]


def test_decomposition_identity_1d(dom1d, bump1d):
    tab = get_table(dom1d, 2.0 * S)
    lhs = gagliardo_double_sum(bump1d, 2.0, S, "d_omega")
    rhs = (2.0 / tab.norm_const) * integrate(apply_D_s2(bump1d, S)) + float(
        (bump1d.interior**2 * tab.kappa).sum()
    ) * dom1d.h
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_decomposition_identity_2d(dom2d, bump2d):
    tab = get_table(dom2d, 2.0 * S)
    lhs = gagliardo_double_sum(bump2d, 2.0, S, "d_omega")
    rhs = (2.0 / tab.norm_const) * integrate(apply_D_s2(bump2d, S)) + float(
        (bump2d.interior**2 * tab.kappa).sum()
    ) * dom2d.h**2
    assert lhs == pytest.approx(rhs, rel=1e-13)


def _phi(N, s, p, sigma):
    # Phi_{N,s,p}(sigma), the angular factor hardy_constant integrates
    return seminorms._phi_quad(N, (N + p * s) / 2.0, sigma)[0]


def test_phi_at_zero_is_sphere_area():
    for N in (2, 3):
        assert _phi(N, 0.6, 2.0, 0.0) == pytest.approx(sphere_area(N - 1), rel=1e-10)
    assert _phi(3, 0.6, 2.0, 0.0) == pytest.approx(4.0 * math.pi, rel=1e-10)


def _sharp_constant_p2(N, s):
    # independent closed form of the sharp constant at p = 2
    from fraclab import normalization_constant

    ch = 2.0 ** (2 * s) * math.gamma((N + 2 * s) / 4.0) ** 2 / math.gamma((N - 2 * s) / 4.0) ** 2
    return 2.0 * ch / normalization_constant(N, s)


def test_hardy_constant_positive_and_quadratic_case():
    for (N, s, p) in ((2, 0.6, 2.0), (3, 0.75, 2.0), (2, 0.8, 1.5), (3, 0.55, 3.0)):
        res = hardy_constant(N, s, p)
        assert res.value > 0.0
        assert res.error_estimate <= 1e-6
        if p == 2.0:
            assert res.value == pytest.approx(_sharp_constant_p2(N, s), rel=1e-8)


def test_hardy_constant_vs_mc():
    res = hardy_constant(2, 0.6, 2.0)
    mc, err = hardy_constant_mc(2, 0.6, 2.0)
    assert abs(mc - res.value) / res.value < 1e-3
    assert err < 1e-2 * res.value


@pytest.mark.parametrize("N, s, p", [(2, 0.45, 2.0), (3, 0.3, 2.0), (2, 0.3, 3.0)])
def test_hardy_constant_below_ps_one(N, s, p):
    # ps < 1: sigma = e^-tau underflows far out on the tau panel
    res = hardy_constant(N, s, p)
    assert res.error_estimate <= 1e-6
    mc, err = hardy_constant_mc(N, s, p, samples=500_000)
    assert abs(res.value - mc) <= 4.0 * err
    if p == 2.0:
        assert res.value == pytest.approx(_sharp_constant_p2(N, s), rel=1e-8)


def test_hardy_constant_validation():
    with pytest.raises(ParameterError):
        hardy_constant(1, 0.6, 2.0)
    with pytest.raises(ParameterError):
        hardy_constant(2, 0.6, 1.0)
    with pytest.raises(QuadratureError):
        hardy_constant(2, 0.6, 2.0, tol=1e-16)
    # err > tol is never true for a NaN tol, so 3:0.87:1.24 returned an estimate that tol = 1e-6 refuses
    for tol in (math.nan, math.inf, 0.0):
        with pytest.raises(ParameterError, match=f"^tol must be positive and finite, got {tol}$"):
            hardy_constant(3, 0.87, 1.24, tol=tol)


@pytest.mark.parametrize("fn", [hardy_constant, hardy_constant_mc])
def test_hardy_functions_share_argument_check(fn):
    with pytest.raises(ParameterError, match=r"^s must lie in \(0,1\), got 1.2$"):
        fn(2, 1.2, 2.0)
    with pytest.raises(ParameterError, match="^p must exceed 1, got 1.0$"):
        fn(2, 0.6, 1.0)
    with pytest.raises(ParameterError, match="^p must exceed 1, got nan$"):
        fn(2, 0.6, math.nan)
    # the integral form needs ps < N; past it the quadrature overflowed or took a
    # complex power while the Monte-Carlo oracle returned a number, and at ps = N
    # both returned 0
    for N, s, p in [(2, 0.9, 3.0), (3, 0.9, 3.5), (2, 0.5, 4.0)]:
        with pytest.raises(ParameterError, match=rf"^p\*s must lie in \(0,{N}\), got {p * s}$"):
            fn(N, s, p)


def _one_shot_mc(N, s, p, samples, seed):
    # the estimator as a single pass over all samples, both inverse CDFs
    # evaluated everywhere, Phi read through the same table; the chunked
    # oracle must reproduce its bits
    rng = np.random.default_rng(seed)
    beta = (N + p * s) / 2.0
    k = (N - p * s) / p
    ps = p * s
    g = p - ps
    cphi = seminorms._phi_coeff(N, beta)
    U = rng.random(samples)
    pick = rng.random(samples) < 0.5
    sigma = np.where(pick, U ** (1.0 / ps), 1.0 - U ** (1.0 / g))
    u = 1.0 - sigma
    dens = 0.5 * ps * np.maximum(sigma, 1e-300) ** (ps - 1.0) + 0.5 * g * np.maximum(u, 1e-300) ** (
        g - 1.0
    )
    F = np.empty(samples)
    near = u < seminorms._U_SWITCH
    far = ~near
    F[far] = (
        sigma[far] ** (ps - 1.0)
        * np.abs(1.0 - sigma[far] ** k) ** p
        * seminorms._phi_closed(N, beta, sigma[far], seminorms._hyp_table(beta) if N == 2 else None)
    )
    F[near] = k**p * cphi * np.maximum(u[near], 1e-300) ** (p - 1.0 - ps)
    vals = 2.0 * F / dens
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize("N, s, p", [(2, 0.6, 2.0), (3, 0.45, 2.6)])
@pytest.mark.parametrize(
    "samples", [1000, seminorms.MC_CHUNK, 3 * seminorms.MC_CHUNK + 17]
)
def test_hardy_mc_chunks_match_one_shot_bits(N, s, p, samples):
    assert hardy_constant_mc(N, s, p, samples, seed=7) == _one_shot_mc(N, s, p, samples, 7)


def test_hardy_mc_independent_of_worker_count(monkeypatch):
    # more workers than chunks and cores, switching threads as often as possible
    samples = 5 * seminorms.MC_CHUNK + 3
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 8):
            monkeypatch.setattr(operators, "_usable_cpus", lambda: workers)
            results.append(hardy_constant_mc(2, 0.6, 2.0, samples, seed=11))
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == results[2]


def test_hardy_mc_memory_per_sample(monkeypatch):
    # the values array plus one temporary of the closing std: ~16 B per sample; the
    # refusal's estimate adds two chunks in flight and bounds the peak from above
    monkeypatch.setattr(operators, "_usable_cpus", lambda: 2)
    samples = 2_000_000
    tracemalloc.start()
    try:
        hardy_constant_mc(2, 0.6, 2.0, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * samples
    # measured: peak 32.02 MB, estimate 42.55 MB
    assert peak <= seminorms._mc_bytes(samples) <= 1.5 * peak


@pytest.mark.parametrize("N, s, p", [(2, 0.6, 2.0), (3, 0.3, 2.0)])
@pytest.mark.parametrize("samples", [2, 1000, seminorms.MC_CHUNK, 3 * seminorms.MC_CHUNK])
def test_hardy_mc_peak_within_refusal_estimate(monkeypatch, N, s, p, samples):
    # small counts, where the chunk temporaries outweigh the values array; measured
    # up to 0.88 times the estimate (one full chunk, N = 2)
    monkeypatch.setattr(operators, "_usable_cpus", lambda: 2)
    hardy_constant_mc(N, s, p, 2)  # scipy's first import is not the oracle's memory
    tracemalloc.start()
    try:
        hardy_constant_mc(N, s, p, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= seminorms._mc_bytes(samples)


def test_hardy_mc_refused_beyond_available_memory(monkeypatch):
    need = seminorms._mc_bytes(1000)
    monkeypatch.setattr(grids, "available_memory", lambda: need - 1)
    with pytest.raises(ConfigurationError, match=r"^the Monte-Carlo Hardy oracle at 1000 samples needs .* MB, but only"):
        hardy_constant_mc(2, 0.6, 2.0, 1000)
    monkeypatch.setattr(grids, "available_memory", lambda: need)
    assert math.isfinite(hardy_constant_mc(2, 0.6, 2.0, 1000)[0])


def _table_x():
    # dense in [0, 1] and log-dense up to the largest x of the far branch
    rng = np.random.default_rng(3)
    x_max = 4.0 / seminorms._U_SWITCH**2
    return np.concatenate(
        [
            rng.uniform(0.0, 1.0, 5_000),
            np.exp(rng.uniform(math.log(1e-12), math.log(x_max), 40_000)),
            [0.0, 0.5, 1.0, 2.0, 3.0, x_max],
        ]
    )


def test_hyp_table_matches_hyp2f1():
    from scipy.special import hyp2f1

    x = _table_x()
    betas = np.random.default_rng(5).uniform(1.0, 2.0, 20)
    for beta in [*betas, 1.0 + 1e-9, 1.25, 2.0]:
        ref = hyp2f1(beta, 0.5, 1.0, -x)
        got = seminorms._hyp_eval(seminorms._hyp_table(beta), x)
        assert np.abs(got / ref - 1.0).max() < 1e-13, beta


def test_hyp_table_at_ps_one_matches_elliptic_form():
    # beta = 3/2, where hyp2f1 overflows from x ~ 9e15 on
    from scipy.special import ellipe

    x = _table_x()
    ref = (2.0 / math.pi) * ellipe(x / (1.0 + x)) / np.sqrt(1.0 + x)
    got = seminorms._hyp_eval(seminorms._hyp_table(1.5), x)
    assert np.all(np.isfinite(got))
    assert np.abs(got / ref - 1.0).max() < 1e-13


@pytest.mark.parametrize("samples", [1000, 300_000])
def test_hardy_mc_calls_hyp2f1_on_the_table_nodes_only(monkeypatch, samples):
    import scipy.special

    evaluated = []
    hyp2f1 = scipy.special.hyp2f1

    def counting(a, b, c, z):
        evaluated.append(np.size(z))
        return hyp2f1(a, b, c, z)

    monkeypatch.setattr(scipy.special, "hyp2f1", counting)
    hardy_constant_mc(2, 0.6, 2.0, samples)
    assert 0 < sum(evaluated) <= (seminorms._CHEB_DEGREE + 1) * seminorms._PIECES


def test_hardy_mc_finite_at_ps_one():
    # ps = 1 (beta = 3/2) returned (inf, nan) when Phi called hyp2f1 per sample
    mc, err = hardy_constant_mc(2, 0.75, 4.0 / 3.0)
    assert math.isfinite(mc) and math.isfinite(err)
    assert abs(mc - hardy_constant(2, 0.75, 4.0 / 3.0).value) <= 5.0 * err


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_hardy_mc_refuses_a_non_finite_estimate(monkeypatch):
    monkeypatch.setattr(seminorms, "_phi_closed", lambda N, beta, sigma, table: np.full_like(sigma, np.inf))
    with pytest.raises(ConsistencyError, match="^Monte-Carlo Hardy estimate inf with standard error nan is not finite$"):
        hardy_constant_mc(2, 0.6, 2.0, 1000)


@pytest.mark.parametrize("samples", [0, 1, -5, 2.5, 1e6, True])
def test_hardy_mc_refuses_unusable_sample_counts(samples):
    with pytest.raises(ParameterError, match="samples must be an integer >= 2"):
        hardy_constant_mc(2, 0.6, 2.0, samples)


@pytest.mark.parametrize("seed", [-1, 2.5])
def test_hardy_mc_refuses_unusable_seeds(seed):
    # default_rng(-1) raised a ValueError from a pool thread
    with pytest.raises(ParameterError, match=f"^seed must be an integer >= 0, got {seed}$"):
        hardy_constant_mc(2, 0.6, 2.0, 1000, seed=seed)


def test_hardy_ratio_scale_invariance(dom2d):
    phi = radial_bump(dom2d, (0.1, 0.0), 0.5)
    r1 = hardy_ratio(phi, S, 2.0, 2.0 * S)
    r2 = hardy_ratio(4.0 * phi, S, 2.0, 2.0 * S)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_hardy_ratio_above_sharp_constant(dom2d):
    lam = hardy_constant(2, S, 2.0).value
    for center, rho in (((0.0, 0.0), 0.6), ((0.2, -0.1), 0.4), ((-0.3, 0.2), 0.5)):
        phi = radial_bump(dom2d, center, rho)
        assert hardy_ratio(phi, S, 2.0, 2.0 * S) >= lam * 0.98


def test_hardy_ratio_requires_offset_grid():
    from fraclab import GridDomain

    dom = GridDomain(Ball(center=(0.0,), radius=1.0), [-1.25], [1.25], 9)
    u = sample(lambda x: 1.0 - x**2, dom)
    with pytest.raises(ParameterError):
        hardy_ratio(u, S, 2.0, 1.2)


def test_hardy_ratio_zero_denominator(dom2d):
    with pytest.raises(ParameterError):
        hardy_ratio(dom2d.zeros(), S, 2.0, 1.2)


def test_epsilon_weight_decay_chain():
    # the weight-excess decay: ratio_beta(phi_r) <= r^eps ratio_{ps}(phi_r)
    # exactly on the grid, and the normalized quotient decays ~ 2^eps per halving
    eps = 0.4
    n = 64
    dom = build_domain(Ball(center=(0.0, 0.0), radius=1.0), n, margin_cells=n // 10)
    ps = 2.0 * S
    ratios_b, ratios_ps = [], []
    for r in (1.0, 0.5, 0.25):
        phi = radial_bump(dom, (0.0, 0.0), r)
        ratios_b.append(hardy_ratio(phi, S, 2.0, ps + eps))
        ratios_ps.append(hardy_ratio(phi, S, 2.0, ps))
        assert ratios_b[-1] <= r**eps * ratios_ps[-1] * (1.0 + 1e-12)
    d = [rb / rp for rb, rp in zip(ratios_b, ratios_ps)]
    assert d[0] / d[1] >= 2.0**eps * 0.9
    assert d[1] / d[2] >= 2.0**eps * 0.9
