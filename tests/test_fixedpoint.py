import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import (
    Ball,
    IterationConfig,
    ParameterError,
    ProblemSpec,
    StiffnessOperator,
    apply_frac_power,
    assemble,
    ball_membership,
    build_domain,
    lemma_g_root,
    lemma_g_value,
    manufacture_forcing,
    picard_iterate,
    sample,
    threshold_from_constants,
)
from fraclab.fixedpoint import ThresholdConstants

S = 0.6


@pytest.fixture(scope="module")
def small():
    return build_domain(Ball(center=(0.0,), radius=1.0), 160, margin_cells=16)


def test_lemma_g_root_unit_case():
    c_star, t_star = lemma_g_root(1.0, 1.0, 2.0)
    assert c_star == pytest.approx(0.25, rel=1e-15)
    assert t_star == pytest.approx(0.25, rel=1e-15)
    assert abs(lemma_g_value(1.0, 1.0, 2.0, c_star, t_star)) <= 1e-15


def test_lemma_g_root_a2_case():
    c_star, t_star = lemma_g_root(2.0, 1.0, 2.0)
    assert c_star == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert t_star == pytest.approx(1.0 / 16.0, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(1e-3, 1e3),
    b=st.floats(1e-3, 1e3),
    p=st.floats(1.1, 8.0),
)
def test_lemma_g_root_residual_and_uniqueness(a, b, p):
    c_star, t_star = lemma_g_root(a, b, p)
    g_at_root = lemma_g_value(a, b, p, c_star, t_star)
    scale = max(t_star, a**p * (b * t_star + c_star) ** p)
    assert abs(g_at_root) <= 1e-12 * scale
    # g > 0 away from the root (global minimum at t*)
    ts = t_star * np.concatenate([np.geomspace(1e-3, 0.8, 40), np.geomspace(1.25, 1e3, 40)])
    vals = lemma_g_value(a, b, p, c_star, ts)
    assert np.all(vals > -1e-12 * scale)
    assert np.all(vals[ts < 0.5 * t_star] > 0)
    assert np.all(vals[ts > 2.0 * t_star] > 0)


def test_lemma_g_root_validation():
    with pytest.raises(ParameterError):
        lemma_g_root(0.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        lemma_g_root(1.0, 1.0, 1.0)


def test_threshold_all_ones_P_lambda():
    c = ThresholdConstants(reg_constant=1.0, mu_inf=1.0, f_norm=1.0, embed_constant=1.0)
    done = threshold_from_constants(c, "P_lambda")
    assert done.lambda_star == pytest.approx(0.25, rel=1e-15)
    assert done.l == pytest.approx(0.25, rel=1e-15)
    assert done.identity_residual <= 1e-12


def test_threshold_P_tilde_identity():
    c = ThresholdConstants(reg_constant=1.3, mu_inf=0.7, f_norm=2.1, embed_constant=0.9)
    done = threshold_from_constants(c, "P_tilde")
    # the defining identity C2 (C11 ||mu|| l + lambda* ||f||) = l^{1/3}
    lhs = 1.3 * (0.9 * 0.7 * done.l + done.lambda_star * 2.1)
    assert lhs == pytest.approx(done.l ** (1.0 / 3.0), rel=1e-12)


def test_threshold_lambda_star_antitone():
    base = ThresholdConstants(reg_constant=1.0, mu_inf=1.0, f_norm=1.0, embed_constant=1.0)
    lam0 = threshold_from_constants(base, "P_lambda").lambda_star
    lam_mu = threshold_from_constants(
        ThresholdConstants(reg_constant=1.0, mu_inf=2.0, f_norm=1.0, embed_constant=1.0),
        "P_lambda",
    ).lambda_star
    lam_f = threshold_from_constants(
        ThresholdConstants(reg_constant=1.0, mu_inf=1.0, f_norm=3.0, embed_constant=1.0),
        "P_lambda",
    ).lambda_star
    assert lam_mu < lam0 and lam_f < lam0


@pytest.mark.parametrize("variant", ["lambda_star", "l_equation"])
def test_threshold_Q_lambda_both_variants(variant):
    rng = np.random.default_rng(5)
    for _ in range(50):
        C3, mu, f, om = rng.uniform(0.1, 3.0, 4)
        q = rng.uniform(1.2, 4.0)
        m = rng.uniform(1.0, 3.0)
        r = q * m * rng.uniform(1.05, 2.0)
        c = ThresholdConstants(
            reg_constant=C3,
            mu_inf=mu,
            f_norm=f,
            omega_measure=om,
            r=r,
            q=q,
            m=m,
            omega_exponent_variant=variant,
        )
        done = threshold_from_constants(c, "Q_lambda")
        e = (r - q * m) / r
        if variant == "l_equation":
            e /= m
        lhs = C3 * (om**e * mu * done.l + done.lambda_star * f)
        assert abs(lhs - done.l ** (1.0 / q)) <= 1e-12 * done.l ** (1.0 / q)


def test_threshold_scheme_mismatch():
    c = ThresholdConstants(reg_constant=1.0, mu_inf=1.0, f_norm=1.0)
    with pytest.raises(ParameterError):
        threshold_from_constants(c, "P_lambda")  # missing embed_constant
    with pytest.raises(ParameterError):
        threshold_from_constants(c, "Q_lambda")  # missing omega/r/q/m
    with pytest.raises(ParameterError):
        threshold_from_constants(c, "nope")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["mu", "f"])
def test_problem_spec_refuses_nonfinite_fields(small, name, value):
    # rhs(0) = lambda f holds only for finite mu: a non-finite mu makes mu * 0 a NaN
    dom = small
    fields = {"mu": dom.from_interior(np.ones(dom.interior_count)), "f": dom.zeros()}
    bad = np.ones(dom.interior_count)
    bad[dom.interior_count // 2] = value
    fields[name] = dom.from_interior(bad)
    with pytest.raises(ParameterError, match=f"^{name} must be finite at every node$"):
        ProblemSpec(rhs_kind="D_s2", s=S, lam=0.3, **fields)


@pytest.mark.parametrize("lam", [0.0, -0.3, math.nan, math.inf])
def test_problem_spec_refuses_nonpositive_or_nonfinite_lambda(small, lam):
    # a NaN or infinite lambda used to pass, and failed only in the first solve
    dom = small
    with pytest.raises(ParameterError, match="^lambda must be positive and finite"):
        ProblemSpec(rhs_kind="D_s2", s=S, lam=lam, mu=dom.from_interior(np.ones(dom.interior_count)), f=dom.zeros())


def test_problem_spec_refuses_an_overflowing_forcing(small):
    # the first Picard pass solves lambda f; an infinite one is bad data, not a divergence
    dom = small
    with pytest.raises(ParameterError, match=r"^lambda \* f must be finite at every node$"):
        ProblemSpec(rhs_kind="D_s2", s=S, lam=1e300, mu=dom.from_interior(np.ones(dom.interior_count)),
                    f=dom.from_interior(np.full(dom.interior_count, 1e10)))


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("abs_frac_power_q", {"t": 0.5}, "abs_frac_power_q requires q > 1, got None"),
        ("abs_frac_power_q", {"t": 0.5, "q": 1.0}, "abs_frac_power_q requires q > 1, got 1.0"),
        ("riesz_grad_q", {}, "riesz_grad_q requires q > 1, got None"),
        ("riesz_grad_q", {"q": 0.5}, "riesz_grad_q requires q > 1, got 0.5"),
        ("B_sq_alpha", {"alpha": 1.2}, "B_sq_alpha requires q > 1, got None"),
        ("B_sq_alpha", {"q": 1.0, "alpha": 1.2}, "B_sq_alpha requires q > 1, got 1.0"),
        ("abs_frac_power_q", {"q": 1.5}, r"abs_frac_power_q requires t in \(0,1\), got None"),
        ("abs_frac_power_q", {"t": 0.0, "q": 1.5}, r"abs_frac_power_q requires t in \(0,1\), got 0.0"),
        ("abs_frac_power_q", {"t": 1.0, "q": 0.5}, r"abs_frac_power_q requires t in \(0,1\), got 1.0"),
        ("B_sq_alpha", {"q": 1.5}, "B_sq_alpha requires 1 < alpha <= q, got alpha=None"),
        ("B_sq_alpha", {"q": 1.5, "alpha": 1.0}, "B_sq_alpha requires 1 < alpha <= q, got alpha=1.0"),
        ("B_sq_alpha", {"q": 1.5, "alpha": 1.6}, "B_sq_alpha requires 1 < alpha <= q, got alpha=1.6"),
        ("riesz_grad_q", {"q": math.nan}, "riesz_grad_q requires q > 1, got nan"),
        ("B_sq_alpha", {"q": math.nan, "alpha": 1.2}, "B_sq_alpha requires q > 1, got nan"),
        ("D_s2", {"m": math.nan}, "integrability label m must be >= 1, got nan"),
    ],
)
def test_problem_spec_refuses_each_kinds_parameters(small, kind, params, message):
    dom = small
    with pytest.raises(ParameterError, match=f"^{message}$"):
        ProblemSpec(rhs_kind=kind, s=S, lam=0.3, mu=dom.from_interior(np.ones(dom.interior_count)), f=dom.zeros(), **params)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tolerance", math.nan),
        ("tolerance", math.inf),
        ("tolerance", 0.0),
        ("divergence_norm", math.nan),
        ("divergence_norm", math.inf),
        ("divergence_norm", -1.0),
    ],
)
def test_iteration_config_refuses_nonpositive_or_nonfinite(key, value):
    # a NaN tolerance ran every iteration to max_iter, a NaN divergence_norm could
    # never diverge, and a negative one declared the first iterate diverged
    with pytest.raises(ParameterError, match=f"^{key} must be positive and finite, got {value}$"):
        IterationConfig(**{key: value})


def test_picard_zero_forcing_converges_at_zero(small, monkeypatch):
    # zero forcing is read off lambda f: the loop runs no pass, so no operator is applied and nothing is solved
    dom = small
    mu = sample(lambda x: np.ones_like(x), dom)
    spec = ProblemSpec(rhs_kind="D_s2", s=S, lam=0.3, mu=mu, f=dom.zeros())
    rhs_calls, solves = _count_calls(monkeypatch)
    rep = picard_iterate(spec, IterationConfig())
    assert rep.verdict == "converged"
    assert rep.iterations == 0
    assert rep.final_residual == 0.0
    assert np.all(rep.u_final.values == 0.0)
    assert rhs_calls == []
    assert solves == []


def test_picard_manufactured_recovery(small):
    dom = small
    mu = sample(lambda x: np.full_like(x, 0.5), dom)
    u_star = sample(lambda x: 0.2 * np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 2, dom)
    spec0 = ProblemSpec(rhs_kind="D_s2", s=S, lam=0.05, mu=mu, f=dom.zeros())
    f = manufacture_forcing(spec0, u_star)
    spec = ProblemSpec(rhs_kind="D_s2", s=S, lam=0.05, mu=mu, f=f)
    rep = picard_iterate(spec, IterationConfig(tolerance=1e-12, max_iter=100))
    assert rep.verdict == "converged"
    err = np.abs(rep.u_final.interior - u_star.interior).max() / np.abs(u_star.interior).max()
    assert err <= 1e-6
    assert rep.final_residual <= 1e-8


def test_picard_monotone_iterates_for_positive_data(small):
    dom = small
    solver = assemble(dom, S)
    mu = sample(lambda x: np.ones_like(x), dom)
    f = sample(lambda x: np.maximum(1.0 - (x / 0.9) ** 2, 0.0), dom)
    spec = ProblemSpec(rhs_kind="D_s2", s=S, lam=0.2, mu=mu, f=f)

    # replicate the iteration to inspect monotonicity node-wise
    u = dom.zeros()
    prev = u.interior
    from fraclab.fixedpoint import _nonlinear

    for _ in range(8):
        u = dom.from_interior(solver.solve_vector(_nonlinear(spec, u) + spec.lam * f.interior))
        assert np.all(u.interior >= prev - 1e-14)
        assert np.all(u.interior >= 0.0)
        prev = u.interior


def test_picard_B_sq_alpha_matches_D_s2(small):
    dom = small
    mu = sample(lambda x: np.full_like(x, 0.8), dom)
    f = sample(lambda x: np.maximum(1.0 - (x / 0.7) ** 2, 0.0) ** 2, dom)
    cfg = IterationConfig(tolerance=1e-11, max_iter=60)
    rep_d = picard_iterate(ProblemSpec(rhs_kind="D_s2", s=S, lam=0.05, mu=mu, f=f), cfg)
    rep_b = picard_iterate(
        ProblemSpec(rhs_kind="B_sq_alpha", s=S, lam=0.05, mu=mu, f=f, q=2.0, alpha=2.0),
        cfg,
    )
    assert rep_d.verdict == rep_b.verdict == "converged"
    diff = np.abs(rep_d.u_final.interior - rep_b.u_final.interior).max()
    assert diff <= 1e-11 * np.abs(rep_d.u_final.interior).max()


def test_picard_lambda_doubling_eventually_diverges(small):
    dom = small
    mu = sample(lambda x: np.ones_like(x), dom)
    f = sample(lambda x: np.maximum(1.0 - x**2, 0.0), dom)
    lam = 0.25
    verdicts = []
    for _ in range(14):
        spec = ProblemSpec(rhs_kind="D_s2", s=S, lam=lam, mu=mu, f=f)
        rep = picard_iterate(spec, IterationConfig(tolerance=1e-9, max_iter=120))
        verdicts.append(rep.verdict)
        if rep.verdict == "diverged":
            break
        lam *= 2.0
    assert verdicts[-1] == "diverged"


def test_picard_deterministic(small):
    dom = small
    mu = sample(lambda x: np.ones_like(x), dom)
    f = sample(lambda x: np.maximum(1.0 - x**2, 0.0), dom)
    spec = ProblemSpec(rhs_kind="D_s2", s=S, lam=0.1, mu=mu, f=f)
    cfg = IterationConfig(tolerance=1e-10, max_iter=80)
    r1 = picard_iterate(spec, cfg)
    r2 = picard_iterate(spec, cfg)
    assert r1.verdict == r2.verdict and r1.iterations == r2.iterations
    assert np.array_equal(r1.u_final.values, r2.u_final.values)


def test_picard_all_rhs_kinds_converge_small_lambda(small):
    dom = small
    mu = sample(lambda x: np.full_like(x, 0.5), dom)
    f = sample(lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 2, dom)
    kinds = [
        dict(rhs_kind="D_s2"),
        dict(rhs_kind="u_times_D_s2"),
        dict(rhs_kind="abs_frac_power_q", t=0.5, q=1.5),
        dict(rhs_kind="riesz_grad_q", q=1.5),
        dict(rhs_kind="B_sq_alpha", q=2.0, alpha=1.5),
    ]
    for kw in kinds:
        spec = ProblemSpec(s=S, lam=0.02, mu=mu, f=f, **kw)
        rep = picard_iterate(spec, IterationConfig(tolerance=1e-10, max_iter=150))
        assert rep.verdict == "converged", kw
        assert rep.final_residual <= 1e-8


def _count_calls(monkeypatch):
    """Lists that record each _nonlinear call and each solve's right-hand side."""
    from fraclab import fixedpoint

    rhs_calls, solves = [], []
    nonlinear = fixedpoint._nonlinear
    solve = StiffnessOperator.solve_vector
    monkeypatch.setattr(fixedpoint, "_nonlinear", lambda spec, u: rhs_calls.append(u) or nonlinear(spec, u))
    monkeypatch.setattr(StiffnessOperator, "solve_vector", lambda self, b: solves.append(b) or solve(self, b))
    return rhs_calls, solves


def test_picard_first_iterate_reuses_the_forcing_solve(small, monkeypatch):
    # every rhs family vanishes at u = 0: the solve of lambda f that sets the
    # divergence norm is the first iterate, so a run solves once per iteration
    # and evaluates the rhs once per later iterate, plus once for the residual
    dom = small
    solver = assemble(dom, S)
    mu = sample(lambda x: np.full_like(x, 0.5), dom)
    f = sample(lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 2, dom)
    solve = StiffnessOperator.solve_vector
    rhs_calls, solves = _count_calls(monkeypatch)
    for lam, max_iter, verdict in [(0.02, 150, "converged"), (0.02, 3, "max_iter"), (5.0, 150, "diverged")]:
        rhs_calls.clear()
        solves.clear()
        spec = ProblemSpec(rhs_kind="riesz_grad_q", s=S, lam=lam, mu=mu, f=f, q=1.5)
        rep = picard_iterate(spec, IterationConfig(tolerance=1e-10, max_iter=max_iter))
        k = rep.iterations
        assert rep.verdict == verdict
        assert len(rhs_calls) == (k if verdict == "converged" else k - 1)
        assert len(solves) == len(rep.iterates) == k
        assert solves[0].tobytes() == (spec.lam * f.interior).tobytes()
        assert rep.iterates[0].interior.tobytes() == solve(solver, solves[0]).tobytes()


def test_picard_u_final_is_the_last_iterate_on_every_exit(small, monkeypatch):
    from fraclab import fixedpoint

    dom = small
    mu = sample(lambda x: np.full_like(x, 0.5), dom)
    f = sample(lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 2, dom)
    for lam, max_iter, verdict in [(0.02, 150, "converged"), (0.02, 3, "max_iter"), (5.0, 150, "diverged")]:
        spec = ProblemSpec(rhs_kind="riesz_grad_q", s=S, lam=lam, mu=mu, f=f, q=1.5)
        rep = picard_iterate(spec, IterationConfig(tolerance=1e-10, max_iter=max_iter))
        assert rep.verdict == verdict
        assert rep.u_final is rep.iterates[-1]

    # a non-finite rhs on the third pass stops the loop before it stores an iterate
    nonlinear = fixedpoint._nonlinear
    calls = []

    def blows_up(spec, u):
        calls.append(u)
        return np.full(dom.interior_count, np.inf) if len(calls) == 2 else nonlinear(spec, u)

    monkeypatch.setattr(fixedpoint, "_nonlinear", blows_up)
    spec = ProblemSpec(rhs_kind="D_s2", s=S, lam=0.02, mu=mu, f=f)
    rep = picard_iterate(spec, IterationConfig(tolerance=1e-10, max_iter=150))
    assert (rep.verdict, rep.iterations, len(rep.iterates)) == ("diverged", 3, 2)
    assert rep.u_final is rep.iterates[-1]

    rep = picard_iterate(ProblemSpec(rhs_kind="D_s2", s=S, lam=0.02, mu=mu, f=dom.zeros()), IterationConfig())
    assert rep.iterates == []
    assert rep.u_final.domain is dom and not rep.u_final.values.any()


def _eager_history(spec, config, solver):
    """History as the Picard loop first recorded it, every norm on every pass."""
    from fraclab.fixedpoint import _nonlinear

    dom = spec.domain
    hN = dom.h**dom.dimension
    forcing = spec.lam * spec.f.interior
    base = solver.solve_vector(forcing)
    div_norm = 1e6 * max(float(np.abs(base).max()), 1e-300)
    history = {"sup_norm": [], "energy_norm": [], "frac_half_norm": [], "successive_diff": []}
    u = dom.zeros()
    if not np.any(_nonlinear(spec, u) + forcing):
        return history
    for _ in range(config.max_iter):
        rhs = _nonlinear(spec, u) + forcing
        if not np.all(np.isfinite(rhs)):
            break
        v = solver.solve_vector(rhs)
        if not np.all(np.isfinite(v)):
            break
        u_new = dom.from_interior(v)
        sup = float(np.abs(v).max())
        diff = float(np.abs(v - u.interior).max()) / max(sup, 1e-300)
        history["sup_norm"].append(sup)
        history["energy_norm"].append(math.sqrt(max(solver.energy(u_new), 0.0)))
        w = np.abs(apply_frac_power(u_new, spec.s).interior)
        history["frac_half_norm"].append(float((w**2.0).sum() * hN) ** (1.0 / 2.0))
        history["successive_diff"].append(diff)
        u = u_new
        if sup > div_norm or diff <= config.tolerance:
            break
    return history


@pytest.mark.parametrize(
    "kw",
    [
        dict(rhs_kind="D_s2", lam=0.5),
        dict(rhs_kind="D_s2", lam=5.0),  # diverges
        dict(rhs_kind="u_times_D_s2", lam=0.5),
        dict(rhs_kind="abs_frac_power_q", lam=0.5, t=0.5, q=1.5),
        dict(rhs_kind="riesz_grad_q", lam=0.5, q=1.5),  # stops at max_iter
        dict(rhs_kind="B_sq_alpha", lam=0.5, q=2.0, alpha=1.5),
    ],
    ids=lambda kw: f"{kw['rhs_kind']}-{kw['lam']}",
)
def test_history_on_read_matches_eager_loop(dom1d_small, kw):
    solver = assemble(dom1d_small, S)
    mu = sample(lambda x: np.full_like(x, 0.5), dom1d_small)
    f = sample(lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 2, dom1d_small)
    spec = ProblemSpec(s=S, mu=mu, f=f, **kw)
    cfg = IterationConfig(tolerance=1e-10, max_iter=40)
    rep = picard_iterate(spec, cfg)
    assert len(rep.iterates) > 1
    assert rep.history == _eager_history(spec, cfg, solver)


def test_integrability_window_warning(small):
    dom = small
    mu = sample(lambda x: np.ones_like(x), dom)
    f = dom.zeros()
    # N=1, s=0.6: window is (0.833, 5); m=20 falls outside and warns
    spec = ProblemSpec(rhs_kind="D_s2", s=S, lam=0.1, mu=mu, f=f, m=20.0)
    with pytest.warns(UserWarning):
        picard_iterate(spec, IterationConfig(max_iter=2))


def test_ball_membership_zero_and_monotone(small):
    dom = small
    member, value = ball_membership(dom.zeros(), S, 0.1, 2.0, 0.5)
    assert member and value == 0.0
    u = sample(lambda x: 0.1 * np.maximum(1.0 - x**2, 0.0) ** 2, dom)
    m_small, v1 = ball_membership(u, S, 0.1, 2.0, 1e-6)
    m_big, v2 = ball_membership(u, S, 0.1, 2.0, 1e6)
    assert v1 == v2
    assert (not m_small) and m_big


def test_ball_membership_high_order_path(small):
    dom = small
    u = sample(lambda x: 0.1 * np.maximum(1.0 - x**2, 0.0) ** 2, dom)
    # order (s+eps)*r = 0.7*4 = 2.8 < N+2 = 3: direct pairwise summation path
    member, value = ball_membership(u, S, 0.1, 4.0, 1e9)
    assert member and math.isfinite(value)
    with pytest.raises(ParameterError):
        ball_membership(u, S, 0.1, 5.0, 1.0)  # order 3.5 > N+2


def test_converged_iterate_in_derived_ball(small):
    # end-to-end: all-ones constants give l = 1/4; a small-lambda converged
    # iterate stays in the ball of radius l for the (s+eps, r) seminorm
    dom = small
    done = threshold_from_constants(
        ThresholdConstants(reg_constant=1.0, mu_inf=1.0, f_norm=1.0, embed_constant=1.0),
        "P_lambda",
    )
    mu = sample(lambda x: np.ones_like(x), dom)
    f = sample(lambda x: 0.05 * np.maximum(1.0 - x**2, 0.0) ** 2, dom)
    spec = ProblemSpec(rhs_kind="D_s2", s=S, lam=min(0.05, done.lambda_star), mu=mu, f=f)
    rep = picard_iterate(spec, IterationConfig(tolerance=1e-10, max_iter=100))
    assert rep.verdict == "converged"
    member, seminorm = ball_membership(rep.u_final, S, 0.05, 2.0, done.l)
    assert member is True
    assert seminorm <= done.l
