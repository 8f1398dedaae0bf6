"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

import fraclab as fl
from fraclab.cli import run as cli_run
from fraclab.fixedpoint import ThresholdConstants, lemma_g_value
from conftest import dense_stiffness


@contextmanager
def criterion(num, name):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL [{time.time() - t0:.1f}s]")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS [{time.time() - t0:.1f}s]")


# ---------------------------------------------------------------------------
# 1. normalization cross-check
# ---------------------------------------------------------------------------


def test_criterion_1_normalization():
    with criterion(1, "normalization cross-check"):
        t0 = time.time()
        for (N, s) in ((1, 0.5), (1, 0.75), (2, 0.5), (2, 0.75), (3, 0.9)):
            gamma_val = fl.normalization_constant(N, s)
            quad_val = fl.normalization_constant_quadrature(N, s)
            assert abs(quad_val - gamma_val) / gamma_val < 1e-3, (N, s)
        assert abs(fl.normalization_constant(1, 0.5) - 1.0 / math.pi) < 1e-10 / math.pi
        assert abs(fl.normalization_constant(2, 0.5) - 1.0 / (2 * math.pi)) < 1e-10
        assert time.time() - t0 <= 60.0


# ---------------------------------------------------------------------------
# 2. local limits s -> 1-
# ---------------------------------------------------------------------------


def test_criterion_2_local_limits():
    with criterion(2, "local limits s->1-"):
        t0 = time.time()
        dom = fl.build_domain(fl.Ball(center=(0.0,), radius=5.0), 4000, margin_cells=400)
        u = fl.sample(lambda x: np.maximum(1.0 - (x / 2.5) ** 2, 0.0) ** 3, dom)
        full = u.values
        lap = np.zeros_like(full)
        lap[1:-1] = (2.0 * full[1:-1] - full[2:] - full[:-2]) / dom.h**2
        lap_i = lap[dom.interior_mask]
        g2 = (fl.central_gradient(u) ** 2).sum(axis=1)
        errs_a, errs_d = [], []
        for s in (0.8, 0.9, 0.95):
            Au = fl.apply_frac_laplacian(u, s).interior
            D = fl.apply_D_s2(u, s).interior
            errs_a.append(float(np.abs(Au - lap_i).max() / np.abs(lap_i).max()))
            errs_d.append(float(np.abs(D - g2).max() / g2.max()))
        assert errs_a[0] > errs_a[1] > errs_a[2], errs_a
        assert errs_d[0] > errs_d[1] > errs_d[2], errs_d
        assert errs_a[2] <= 0.10, errs_a
        assert errs_d[2] <= 0.10, errs_d
        assert time.time() - t0 <= 300.0


# ---------------------------------------------------------------------------
# 3. Poisson solver identities and self-convergence
# ---------------------------------------------------------------------------


def test_criterion_3_poisson():
    with criterion(3, "Poisson identities + self-convergence"):
        t0 = time.time()
        s = 0.6
        dom = fl.build_domain(fl.Ball(center=(0.0,), radius=1.0), 200, margin_cells=20)
        op = fl.assemble(dom, s)
        A = dense_stiffness(fl.get_table(dom, 2 * s))
        assert np.max(np.abs(A - A.T)) == 0.0
        d = np.diag(A)
        assert np.all(d > 0) and (A - np.diag(d)).max() <= 0.0
        assert np.all(A.sum(axis=1) > 0)

        rng = np.random.default_rng(42)
        h = dom.from_interior(rng.random(dom.interior_count))
        v = fl.solve_poisson(h, s)
        assert v.interior.min() >= 0.0  # maximum principle, zero tolerance

        bump = fl.sample(lambda x: np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 3, dom)
        tab = fl.get_table(dom, 2 * s)
        lhs = op.energy(bump)
        rhs = 0.5 * tab.norm_const * fl.gagliardo_double_sum(bump, 2.0, s, "d_omega")
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

        sols = {}
        for n in (40, 80, 160, 320, 640, 1280):
            dn = fl.build_domain(fl.Ball(center=(0.0,), radius=1.0), n, margin_cells=n // 10)
            sols[n] = (dn, fl.solve_poisson(fl.sample(lambda x: np.ones_like(x), dn), s))
        dom_f, u_f = sols[1280]
        xf = dom_f.interior_coords[:, 0]
        errs = []
        for n in (40, 80, 160, 320, 640):
            dn, un = sols[n]
            ref = np.interp(dn.interior_coords[:, 0], xf, u_f.interior)
            errs.append(math.sqrt(dn.h) * np.linalg.norm(un.interior - ref))
        factors = [a / b for a, b in zip(errs, errs[1:])]
        assert all(f >= 1.5 for f in factors), factors
        assert time.time() - t0 <= 300.0


# ---------------------------------------------------------------------------
# 4. Hardy suite
# ---------------------------------------------------------------------------


def test_criterion_4_hardy():
    with criterion(4, "Hardy suite"):
        t0 = time.time()
        for (N, s, p) in ((2, 0.6, 2.0), (3, 0.75, 2.0), (2, 0.8, 1.5)):
            res = fl.hardy_constant(N, s, p)
            mc, _ = fl.hardy_constant_mc(N, s, p)
            assert abs(res.value - mc) / res.value < 1e-3, (N, s, p)

        s, p = 0.6, 2.0
        lam = fl.hardy_constant(2, s, p).value
        dom = fl.build_domain(fl.Ball(center=(0.0, 0.0), radius=1.0), 48, margin_cells=5)
        centers = [
            (0.0, 0.0), (0.2, 0.1), (-0.3, 0.2), (0.1, -0.4), (-0.2, -0.2),
            (0.4, 0.0), (0.0, 0.35), (-0.45, -0.1), (0.25, 0.25), (-0.15, 0.3),
        ]
        count = 0
        worst = math.inf
        for cx, cy in centers:
            for rho in (0.3, 0.45, 0.6, 0.8, 0.55):
                rho_eff = min(rho, 0.98 - math.hypot(cx, cy))
                phi = fl.radial_bump(dom, (cx, cy), rho_eff)
                worst = min(worst, fl.hardy_ratio(phi, s, p, p * s))
                count += 1
        assert count == 50
        assert worst >= lam * 0.98, (worst, lam)

        table = fl.optimality_obstruction(2, 0.55, 1.0, 0.25, [1.0, 0.5, 0.25], nodes_per_axis=96)
        qs = [q for _, q in table]
        assert all(a > b for a, b in zip(qs, qs[1:])), qs
        assert qs[0] / qs[-1] >= 1.3, qs
        assert time.time() - t0 <= 600.0


# ---------------------------------------------------------------------------
# 5. Lemma-g roots and threshold identities
# ---------------------------------------------------------------------------


def test_criterion_5_thresholds():
    with criterion(5, "root formula + threshold identities"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            a, b = rng.uniform(0.05, 20.0, 2)
            p = rng.uniform(1.1, 6.0)
            c_star, t_star = fl.lemma_g_root(a, b, p)
            g = lemma_g_value(a, b, p, c_star, t_star)
            scale = max(t_star, a**p * (b * t_star + c_star) ** p)
            assert abs(g) <= 1e-12 * scale

        done = fl.threshold_from_constants(
            ThresholdConstants(reg_constant=1.0, mu_inf=1.0, f_norm=1.0, embed_constant=1.0),
            "P_lambda",
        )
        assert done.lambda_star == 0.25 and done.l == 0.25

        for _ in range(1000):
            c1, c10, mu, f = rng.uniform(0.05, 10.0, 4)
            d = fl.threshold_from_constants(
                ThresholdConstants(reg_constant=c1, mu_inf=mu, f_norm=f, embed_constant=c10),
                "P_lambda",
            )
            lhs = c1 * (c10 * mu * d.l + d.lambda_star * f)
            assert abs(lhs - math.sqrt(d.l)) <= 1e-12 * math.sqrt(d.l)

        for _ in range(1000):
            c2, c11, mu, f = rng.uniform(0.05, 10.0, 4)
            d = fl.threshold_from_constants(
                ThresholdConstants(reg_constant=c2, mu_inf=mu, f_norm=f, embed_constant=c11),
                "P_tilde",
            )
            lhs = c2 * (c11 * mu * d.l + d.lambda_star * f)
            assert abs(lhs - d.l ** (1.0 / 3.0)) <= 1e-12 * d.l ** (1.0 / 3.0)

        for variant in ("lambda_star", "l_equation"):
            for _ in range(1000):
                c3, mu, f, om = rng.uniform(0.1, 5.0, 4)
                q = rng.uniform(1.2, 4.0)
                m = rng.uniform(1.0, 3.0)
                r = q * m * rng.uniform(1.05, 2.0)
                d = fl.threshold_from_constants(
                    ThresholdConstants(
                        reg_constant=c3, mu_inf=mu, f_norm=f, omega_measure=om,
                        r=r, q=q, m=m, omega_exponent_variant=variant,
                    ),
                    "Q_lambda",
                )
                e = (r - q * m) / r
                if variant == "l_equation":
                    e /= m
                lhs = c3 * (om**e * mu * d.l + d.lambda_star * f)
                assert abs(lhs - d.l ** (1.0 / q)) <= 1e-12 * d.l ** (1.0 / q), variant


# ---------------------------------------------------------------------------
# 6. fixed point: manufactured recovery, divergence ladder, B equivalence
# ---------------------------------------------------------------------------


def test_criterion_6_fixed_point():
    with criterion(6, "fixed-point driver"):
        t0 = time.time()
        s = 0.6
        dom = fl.build_domain(fl.Ball(center=(0.0,), radius=1.0), 160, margin_cells=16)
        mu = fl.sample(lambda x: np.full_like(x, 0.5), dom)
        u_star = fl.sample(lambda x: 0.05 * np.maximum(1.0 - (x / 0.8) ** 2, 0.0) ** 2, dom)
        kinds = [
            dict(rhs_kind="D_s2"),
            dict(rhs_kind="u_times_D_s2"),
            dict(rhs_kind="abs_frac_power_q", t=0.5, q=1.5),
            dict(rhs_kind="riesz_grad_q", q=1.5),
            dict(rhs_kind="B_sq_alpha", q=2.0, alpha=1.5),
        ]
        for kw in kinds:
            spec0 = fl.ProblemSpec(s=s, lam=0.05, mu=mu, f=dom.zeros(), **kw)
            f = fl.manufacture_forcing(spec0, u_star)
            spec = fl.ProblemSpec(s=s, lam=0.05, mu=mu, f=f, **kw)
            rep = fl.picard_iterate(spec, fl.IterationConfig(tolerance=1e-11, max_iter=100))
            assert rep.verdict == "converged", kw
            assert rep.iterations <= 100
            err = np.abs(rep.u_final.interior - u_star.interior).max() / np.abs(
                u_star.interior
            ).max()
            assert err <= 1e-6, (kw, err)

        # lambda-doubling ladder on mu >= mu1 > 0, f >= 0
        f_pos = fl.sample(lambda x: np.maximum(1.0 - x**2, 0.0), dom)
        mu1 = fl.sample(lambda x: np.ones_like(x), dom)
        lam, verdicts = 0.25, []
        for _ in range(16):
            rep = fl.picard_iterate(
                fl.ProblemSpec(rhs_kind="D_s2", s=s, lam=lam, mu=mu1, f=f_pos),
                fl.IterationConfig(tolerance=1e-9, max_iter=150),
            )
            verdicts.append(rep.verdict)
            if rep.verdict == "diverged":
                break
            lam *= 2.0
        assert verdicts[-1] == "diverged", verdicts

        # P_lambda / B_s^2 equivalence to machine precision
        cfg = fl.IterationConfig(tolerance=1e-11, max_iter=80)
        f_small = fl.sample(lambda x: np.maximum(1.0 - (x / 0.7) ** 2, 0.0) ** 2, dom)
        rd = fl.picard_iterate(fl.ProblemSpec(rhs_kind="D_s2", s=s, lam=0.05, mu=mu, f=f_small), cfg)
        rb = fl.picard_iterate(
            fl.ProblemSpec(rhs_kind="B_sq_alpha", s=s, lam=0.05, mu=mu, f=f_small, q=2.0, alpha=2.0),
            cfg,
        )
        assert rd.verdict == rb.verdict == "converged"
        diff = np.abs(rd.u_final.interior - rb.u_final.interior).max()
        assert diff <= 1e-12 * np.abs(rd.u_final.interior).max()
        assert time.time() - t0 <= 900.0


# ---------------------------------------------------------------------------
# 7. non-existence certificates
# ---------------------------------------------------------------------------


def test_criterion_7_nonexistence():
    with criterion(7, "non-existence certificates"):
        s = 0.75
        dom = fl.build_domain(fl.Ball(center=(0.0, 0.0), radius=1.0), 32, margin_cells=3)
        f = fl.sample(lambda x, y: np.ones_like(x), dom)
        phi = fl.radial_bump(dom, (0.0, 0.0), 0.6)

        c1 = fl.lambda_star_star(phi, f, 1.0, s)
        c_scaled = fl.lambda_star_star(3.0 * phi, f, 1.0, s)
        assert abs(c_scaled.value - c1.value) <= 1e-10 * c1.value

        c_half = fl.lambda_star_star(phi, f, 2.0, s)
        assert c_half.value == c1.value / 2.0

        family = fl.bump_family(dom, [(0.0, 0.0), (0.15, -0.1)], [0.4, 0.6, 0.8])
        _, best = fl.certify(1.0, f, 1.0, s, family)
        below, _ = fl.certify(0.5 * best.value, f, 1.0, s, family)
        above, _ = fl.certify(2.0 * best.value, f, 1.0, s, family)
        above2, _ = fl.certify(8.0 * best.value, f, 1.0, s, family)
        assert (not below) and above and above2


# ---------------------------------------------------------------------------
# 8. exponent oracle: 40 hand-checked cases + forced relations
# ---------------------------------------------------------------------------

EXPONENT_CASES = [
    # (prop, N, s, t, m, case, upper, inclusive); upper None means infinity
    ("P3.1", 2, F(3, 4), F(1, 2), F(1), 1, F(2), False),
    ("P3.1", 2, F(3, 4), F(1, 2), F(2), 3, F(8), False),
    ("P3.1", 2, F(3, 4), F(1, 2), F(3, 2), 3, F(24, 5), False),
    ("P3.1", 2, F(3, 4), F(1, 2), F(5, 4), 2, F(10, 3), True),
    ("P3.1", 2, F(3, 4), F(1, 2), F(4), 4, None, False),
    ("P3.1", 3, F(3, 5), F(1, 2), F(1), 1, F(30, 23), False),
    ("P3.1", 3, F(3, 5), F(1, 2), F(2), 2, F(15, 4), True),
    ("P3.1", 3, F(3, 5), F(1, 2), F(3), 3, F(15, 2), False),
    ("P3.1", 3, F(3, 5), F(1, 2), F(15), 4, None, False),
    ("P3.1", 2, F(9, 10), F(3, 10), F(1), 1, F(4), False),
    ("Cor-t=s", 2, F(3, 4), None, F(1), 1, F(8, 5), False),
    ("Cor-t=s", 2, F(3, 4), None, F(5, 4), 2, F(40, 17), True),
    ("Cor-t=s", 2, F(3, 4), None, F(2), 3, F(16, 3), False),
    ("Cor-t=s", 2, F(3, 4), None, F(4), 4, None, False),
    ("Cor-t=s", 3, F(4, 5), None, F(1), 1, F(15, 11), False),
    ("P-cr2", 2, F(3, 4), F(1, 2), F(3, 2), 1, F(6), False),
    ("P-cr2", 2, F(3, 4), F(1, 2), F(2), 2, None, False),
    ("P-cr2", 3, F(3, 5), F(1, 5), F(11, 4), 1, F(33), False),
    ("P-cr2", 3, F(7, 10), F(2, 5), F(5, 2), 1, F(15), False),
    ("P-cr3", 2, F(3, 4), F(4, 5), F(2), 1, F(20, 3), False),
    ("P-cr3", 3, F(3, 5), F(7, 10), F(4), 1, F(12), False),
    ("P-rg1", 2, F(3, 4), F(3, 4), F(1), 1, F(8, 5), False),
    ("P-rg1", 2, F(3, 4), F(1, 2), F(3, 2), 2, F(6), True),
    ("P-rg1", 2, F(3, 4), F(1, 2), F(2), 3, None, False),
    ("P-rg1", 3, F(3, 5), F(1, 2), F(1), 1, F(30, 23), False),
    ("P-rg1", 3, F(3, 5), F(3, 5), F(2), 2, F(10, 3), True),
    ("Cor-rg1", 2, F(3, 4), None, F(1), 1, F(8, 5), False),
    ("Cor-rg1", 2, F(3, 4), None, F(2), 2, F(8), True),
    ("Cor-rg1", 2, F(3, 4), None, F(3), 3, None, False),
    ("Cor-rg1", 3, F(4, 5), None, F(7, 2), 2, F(105, 2), True),
    ("L-LPPS", 2, F(3, 4), None, F(1), 1, F(4), False),
    ("L-LPPS", 2, F(3, 4), None, F(5, 4), 2, F(20), True),
    ("L-LPPS", 2, F(3, 4), None, F(2), 3, None, False),
    ("L-LPPS", 3, F(3, 5), None, F(2), 2, F(10), True),
    ("L-LPPS", 3, F(9, 10), None, F(1), 1, F(5, 2), False),
    ("L-AP", 2, F(3, 4), None, F(1), 1, F(4, 3), False),
    ("L-AP", 2, F(3, 4), None, F(2), 2, F(4), True),
    ("L-AP", 2, F(3, 4), None, F(4), 3, None, False),
    ("L-AP", 3, F(4, 5), None, F(2), 2, F(10, 3), True),
    ("L-AP", 3, F(7, 10), None, F(1), 1, F(15, 13), False),
]


def test_criterion_8_exponent_oracle():
    with criterion(8, "exponent oracle, 40 cases + relations"):
        assert len(EXPONENT_CASES) == 40
        for prop, N, s, t, m, case, upper, inclusive in EXPONENT_CASES:
            r = fl.exponent_range(prop, N, s, t, m)
            assert r.case_index == case, (prop, N, s, t, m)
            if upper is None:
                assert r.upper == math.inf, (prop, N, s, t, m)
            else:
                assert r.upper == upper, (prop, N, s, t, m, r.upper)
            assert r.upper_inclusive == inclusive, (prop, N, s, t, m)
            assert r.lower == 1

        # forced relation: Cor-t=s equals P3.1 evaluated at t = s, exactly
        for (N, s, m) in ((2, F(3, 4), F(1)), (2, F(3, 4), F(5, 4)), (3, F(3, 5), F(3)), (2, F(7, 10), F(40))):
            a = fl.exponent_range("Cor-t=s", N, s, None, m)
            b = fl.exponent_range("P3.1", N, s, s, m)
            assert (a.upper, a.upper_inclusive, a.case_index) == (
                b.upper,
                b.upper_inclusive,
                b.case_index,
            )

        # forced relation: the P3.1 case-2 formula at t = 1 is the L-AP bound
        for (N, s, m) in ((3, F(4, 5), F(5, 4)), (2, F(3, 4), F(5, 4)), (3, F(3, 5), F(2))):
            formula_at_t1 = m * N / (N - m * (2 * s - 1))
            lap = fl.exponent_range("L-AP", N, s, None, m)
            assert formula_at_t1 == lap.upper


# ---------------------------------------------------------------------------
# 9. regularity probe
# ---------------------------------------------------------------------------


def test_criterion_9_regularity_probe():
    with criterion(9, "regularity probe classifications"):
        t0 = time.time()
        s, t, m = 0.6, 0.5, 1.0
        p_star = fl.p31_case1_threshold(1, s, t)
        levels = (32, 256, 2048)

        smooth = fl.regularity_probe(0.0, s, t, 0.8 * p_star, levels, m=m, N=1)
        assert smooth.classification == "bounded", smooth.growth_factors

        sup = fl.regularity_probe((1 - 0.01) / m, s, t, 1.2 * p_star, levels, m=m, N=1)
        assert sup.classification == "growing", sup.growth_factors

        sub = fl.regularity_probe((1 - 0.35) / m, s, t, 0.8 * p_star, levels, m=m, N=1)
        assert sub.classification == "bounded", sub.growth_factors

        assert len(levels) >= 3
        assert time.time() - t0 <= 600.0


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

SOLVE_CFG = """
[domain]
shape = ball
dimension = 1
nodes_per_axis = 40
margin_cells = 4

[problem]
s = 0.6

[run]
levels = 40,80,160
"""

SWEEP_CFG = """
[domain]
dimension = 1
nodes_per_axis = 80
margin_cells = 8

[problem]
s = 0.6
f = bump:0.9

[run]
lambda_sweep = 0.05,0.1,0.2
"""


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "CLI bit-reproducibility"):
        for name, sub, cfg_text in (
            ("solve", "solve", SOLVE_CFG),
            ("sweep", "sweep", SWEEP_CFG),
        ):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(cfg_text)
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name}_{tag}"
                assert cli_run(sub, cfg, out) == 0
                outs.append((out / f"{sub}.csv").read_bytes())
            assert outs[0] == outs[1]
