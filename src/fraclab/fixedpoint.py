"""Picard iteration for the nonlocal fixed-point problems and their constants.

The driver realizes successive substitution  u_{k+1} = S(rhs(u_k)),  u_0 = 0,
for five right-hand-side families, each a nonlinear part built from the
nonlocal operators plus lambda f.  The nonlinear part vanishes at u = 0, so
the loop's first pass solves lambda f alone, and zero forcing runs no pass:

    D_s2:              mu * D_s^2(u)             + lambda f
    u_times_D_s2:      mu * u * D_s^2(u)         + lambda f
    abs_frac_power_q:  mu * |(-Delta)^{t/2} u|^q + lambda f
    riesz_grad_q:      mu * |grad^s u|^q         + lambda f
    B_sq_alpha:        mu * (B_s^q u)^alpha      + lambda f

The solution map S is fixed by the domain and s of the problem, so no solver
is passed in: picard_iterate assembles the stiffness operator once per call,
and manufacture_forcing applies the one it assembles.  Convergence is
declared on the relative successive difference; divergence on non-finite
iterates or a sup-norm runaway.  The loop keeps only what the verdict needs,
the iterates and their successive differences, and the report is built once
after it, its u_final read off the last iterate; the history norms (sup,
energy and the L^r norm of (-Delta)^{s/2} u) are computed from the stored
iterates the first time a report's history is read.  Every operator
reads its kernel table at the cutoff radius of the shared domain.  The
closed-form root of

    g(t) = a^p (b t + c*)^p - t,   c* = (p-1)/p * (1/(p a^p b))^{1/(p-1)}

drives the smallness thresholds: lambda* is the largest forcing scale for
which g keeps a root, and l = t* is the invariant-ball radius parameter; a
caller tests an iterate against that ball with seminorms.ball_membership.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ParameterError, check_range, check_unit_interval
from .grids import GridFunction, lp_norm
from .operators import (
    apply_B_sq,
    apply_D_s2,
    apply_frac_power,
    apply_riesz_gradient,
)
from .poisson import StiffnessOperator, assemble

__all__ = [
    "RHS_KINDS",
    "SCHEMES",
    "ProblemSpec",
    "IterationConfig",
    "IterationReport",
    "ThresholdConstants",
    "lemma_g_root",
    "lemma_g_value",
    "threshold_from_constants",
    "picard_iterate",
    "manufacture_forcing",
]

RHS_KINDS = ("D_s2", "u_times_D_s2", "abs_frac_power_q", "riesz_grad_q", "B_sq_alpha")
SCHEMES = ("P_lambda", "P_tilde", "Q_lambda")
OMEGA_EXPONENT_VARIANTS = ("lambda_star", "l_equation")
# power r of the frac_half_norm history column ||(-Delta)^{s/2} u||_r
FRAC_HALF_NORM_R = 2.0


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the nonlinear problem: which rhs family, and its data."""

    rhs_kind: str
    s: float
    lam: float
    mu: GridFunction
    f: GridFunction
    m: float | None = None
    t: float | None = None
    q: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.rhs_kind not in RHS_KINDS:
            raise ParameterError(f"rhs_kind must be one of {RHS_KINDS}, got {self.rhs_kind!r}")
        check_unit_interval("s", self.s)
        check_range("lambda", self.lam, 0.0)
        if self.mu.domain is not self.f.domain:
            raise ParameterError("mu and f must live on the same domain")
        for name in ("mu", "f"):
            if not np.isfinite(getattr(self, name).values).all():
                raise ParameterError(f"{name} must be finite at every node")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.lam * self.f.values).all():
                raise ParameterError("lambda * f must be finite at every node")
        if self.rhs_kind == "abs_frac_power_q" and (self.t is None or not 0.0 < self.t < 1.0):
            raise ParameterError(f"abs_frac_power_q requires t in (0,1), got {self.t}")
        if self.rhs_kind in ("abs_frac_power_q", "riesz_grad_q", "B_sq_alpha") and (self.q is None or not self.q > 1.0):
            raise ParameterError(f"{self.rhs_kind} requires q > 1, got {self.q}")
        if self.rhs_kind == "B_sq_alpha":
            if self.alpha is None or not 1.0 < self.alpha <= self.q:
                raise ParameterError(
                    f"B_sq_alpha requires 1 < alpha <= q, got alpha={self.alpha}"
                )
        if self.m is not None:
            check_range("integrability label m", self.m, 1.0, closed=True)

    @property
    def domain(self):
        return self.mu.domain


@dataclass(frozen=True)
class IterationConfig:
    tolerance: float = 1e-9
    max_iter: int = 200
    divergence_norm: float | None = None  # None: 1e6 * ||S(lambda f)||_inf

    def __post_init__(self):
        check_range("tolerance", self.tolerance, 0.0)
        if self.max_iter < 1:
            raise ParameterError("max_iter must be >= 1")
        if self.divergence_norm is not None:
            check_range("divergence_norm", self.divergence_norm, 0.0)


@dataclass
class IterationReport:
    """Verdict of a Picard run, with the iterates it produced.

    history maps sup_norm, energy_norm, frac_half_norm and successive_diff to
    one value per iterate; the norms are computed when history is first read.
    """

    verdict: str  # converged | diverged | max_iter
    iterations: int
    final_residual: float | None
    iterates: list[GridFunction] = field(repr=False)
    successive_diffs: list[float]
    spec: ProblemSpec = field(repr=False)
    solver: StiffnessOperator = field(repr=False)

    @property
    def u_final(self) -> GridFunction:
        """The last stored iterate, or u = 0 when there is none."""
        return self.iterates[-1] if self.iterates else self.spec.domain.zeros()

    @cached_property
    def history(self) -> dict[str, list[float]]:
        return {
            "sup_norm": [float(np.abs(u.interior).max()) for u in self.iterates],
            "energy_norm": [math.sqrt(max(self.solver.energy(u), 0.0)) for u in self.iterates],
            "frac_half_norm": [
                lp_norm(apply_frac_power(u, self.spec.s), FRAC_HALF_NORM_R)
                for u in self.iterates
            ],
            "successive_diff": list(self.successive_diffs),
        }


@dataclass(frozen=True)
class ThresholdConstants:
    """User-supplied regularity/embedding constants plus derived thresholds.

    reg_constant is the scheme's regularity constant (C1, C2 or C3);
    embed_constant the companion embedding constant (C10 or C11, unused for
    Q_lambda where |Omega|^e takes its place).
    """

    reg_constant: float
    mu_inf: float
    f_norm: float
    embed_constant: float | None = None
    omega_measure: float | None = None
    r: float | None = None
    q: float | None = None
    m: float | None = None
    omega_exponent_variant: str = "l_equation"
    lambda_star: float | None = None
    l: float | None = None
    c_star: float | None = None
    identity_residual: float | None = None


def lemma_g_root(a: float, b: float, p: float) -> tuple[float, float]:
    """Root data of g(t) = a^p (b t + c*)^p - t.

    Returns (c*, t*) with c* = (p-1)/p (1/(p a^p b))^{1/(p-1)} and
    t* = 1/(p b) (1/(p a^p b))^{1/(p-1)}; g(t*) = 0 and t* is the unique root.
    """
    check_range("a", a, 0.0)
    check_range("b", b, 0.0)
    check_range("p", p, 1.0)
    log_core = -(math.log(p) + p * math.log(a) + math.log(b)) / (p - 1.0)
    if abs(log_core) > 690.0:
        raise ParameterError(
            f"root magnitude exp({log_core:.1f}) exceeds the floating-point range"
        )
    core = math.exp(log_core)
    c_star = (p - 1.0) / p * core
    t_star = core / (p * b)
    return c_star, t_star


def lemma_g_value(a: float, b: float, p: float, c: float, t) -> np.ndarray:
    """g(t) = a^p (b t + c)^p - t, vectorized in t."""
    t = np.asarray(t, dtype=float)
    return a**p * (b * t + c) ** p - t


def threshold_from_constants(constants: ThresholdConstants, scheme: str) -> ThresholdConstants:
    """Complete the constants with lambda*, l and the root data of their scheme.

    Schemes map to (a, b, p) as  P_lambda: (C1, C10 ||mu||, 2),
    P_tilde: (C2, C11 ||mu||, 3),  Q_lambda: (C3, |Omega|^e ||mu||, q)  where
    the |Omega| exponent e is (r-qm)/r or (r-qm)/(mr) per the variant switch;
    both variants are kept because the two source formulas disagree, and each
    is completed self-consistently so its defining identity holds exactly.
    """
    if scheme not in SCHEMES:
        raise ParameterError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    c = constants
    for name in ("reg_constant", "mu_inf", "f_norm"):
        check_range(name, getattr(c, name), 0.0)

    if scheme in ("P_lambda", "P_tilde"):
        check_range("embed_constant", c.embed_constant, 0.0)
        a = c.reg_constant
        b = c.embed_constant * c.mu_inf
        p = 2.0 if scheme == "P_lambda" else 3.0
    else:
        for name in ("omega_measure", "r", "m"):
            check_range(name, getattr(c, name), 0.0)
        check_range("q", c.q, 1.0)
        if c.omega_exponent_variant not in OMEGA_EXPONENT_VARIANTS:
            raise ParameterError(
                f"omega_exponent_variant must be one of {OMEGA_EXPONENT_VARIANTS}"
            )
        e = (c.r - c.q * c.m) / c.r
        if c.omega_exponent_variant == "l_equation":
            e = e / c.m
        a = c.reg_constant
        b = c.omega_measure**e * c.mu_inf
        p = c.q

    c_star, l = lemma_g_root(a, b, p)  # l is the root t*
    lam_star = c_star / c.f_norm
    residual = abs(a * (b * l + lam_star * c.f_norm) - l ** (1.0 / p)) / l ** (1.0 / p)
    return replace(
        c,
        lambda_star=lam_star,
        l=l,
        c_star=c_star,
        identity_residual=residual,
    )


def _nonlinear(spec: ProblemSpec, u: GridFunction) -> np.ndarray:
    """The right-hand side less lambda f: mu times the family's operator term, 0 at u = 0."""
    mu = spec.mu.interior
    if spec.rhs_kind == "D_s2":
        return mu * apply_D_s2(u, spec.s).interior
    if spec.rhs_kind == "u_times_D_s2":
        return mu * u.interior * apply_D_s2(u, spec.s).interior
    if spec.rhs_kind == "abs_frac_power_q":
        return mu * np.abs(apply_frac_power(u, spec.t).interior) ** spec.q
    if spec.rhs_kind == "riesz_grad_q":
        g = apply_riesz_gradient(u, spec.s)
        return mu * ((g**2).sum(axis=1)) ** (spec.q / 2.0)
    b = apply_B_sq(u, spec.s, spec.q).interior
    return mu * b**spec.alpha


def _warn_integrability_window(spec: ProblemSpec) -> None:
    # the existence arguments normalize m into (N/2s, N/(2s-1)); larger m still
    # embeds on a bounded domain, so this is advisory only
    if spec.m is None or spec.rhs_kind not in ("D_s2", "u_times_D_s2"):
        return
    N = spec.domain.dimension
    lo = N / (2.0 * spec.s)
    hi = N / (2.0 * spec.s - 1.0) if spec.s > 0.5 else math.inf
    if not lo < spec.m < hi:
        warnings.warn(
            f"integrability label m={spec.m} outside the normalized window "
            f"({lo:.4g}, {hi:.4g}); proceeding",
            stacklevel=3,
        )


def picard_iterate(spec: ProblemSpec, config: IterationConfig) -> IterationReport:
    """Run u_{k+1} = S(rhs(u_k)) from u_0 = 0 until the verdict is decided.

    The nonlinear part vanishes at u = 0, so the first pass solves lambda f
    alone, and its sup norm sets the default divergence norm.  Zero forcing
    runs no pass: u = 0 is the fixed point, converged after 0 iterations.
    """
    _warn_integrability_window(spec)
    dom = spec.domain
    solver = assemble(dom, spec.s)
    forcing = spec.lam * spec.f.interior
    passes = config.max_iter if forcing.any() else 0
    verdict, iterations, final_residual = ("max_iter", passes, None) if passes else ("converged", 0, 0.0)
    div_norm = config.divergence_norm

    iterates: list[GridFunction] = []
    diffs: list[float] = []
    u, rhs = dom.zeros(), forcing
    for k in range(1, passes + 1):
        if k > 1:
            rhs = _nonlinear(spec, u) + forcing
        # a non-finite rhs fails the finite check below without a solve
        v = solver.solve_vector(rhs) if np.all(np.isfinite(rhs)) else rhs
        if not np.all(np.isfinite(v)):
            verdict, iterations = "diverged", k
            break
        sup = float(np.abs(v).max())
        if div_norm is None:
            div_norm = 1e6 * max(sup, 1e-300)
        diff = float(np.abs(v - u.interior).max()) / max(sup, 1e-300)
        u = dom.from_interior(v)
        iterates.append(u)
        diffs.append(diff)
        if sup > div_norm:
            verdict, iterations = "diverged", k
            break
        if diff <= config.tolerance:
            verdict, iterations = "converged", k
            final_residual = solver.relative_residual(u.interior, _nonlinear(spec, u) + forcing)
            break

    return IterationReport(
        verdict=verdict,
        iterations=iterations,
        final_residual=final_residual,
        iterates=iterates,
        successive_diffs=diffs,
        spec=spec,
        solver=solver,
    )


def manufacture_forcing(spec: ProblemSpec, u_star: GridFunction) -> GridFunction:
    """Forcing f making u_star an exact discrete fixed point of spec's map.

    Solves  lambda f = A u* - nonlinear(u*)  for f: the stiffness action less
    the right-hand side's nonlinear part; spec.f is not read.
    """
    nonlinear = _nonlinear(spec, u_star)
    f_vec = (assemble(spec.domain, spec.s).matvec(u_star.interior) - nonlinear) / spec.lam
    return spec.domain.from_interior(f_vec)
