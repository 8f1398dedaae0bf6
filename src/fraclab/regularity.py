"""Exact-arithmetic exponent tables and empirical refinement probes.

Each regularity statement maps (N, s, t, m) to an admissible integrability
range [1, upper) or [1, upper] for the solution of the fractional Poisson
problem, with the case split driven by where m sits relative to N/2s,
N/(2s-t), N/(2s-1) or N/s.  All bounds are evaluated in exact rational
arithmetic (floats are converted to their exact binary rationals), and
hypothesis violations raise with the violated condition named rather than
returning a silent range.

The probe side solves the Poisson problem with power data |x|^-beta over a
refinement ladder and classifies the growth of a target seminorm.  The data
is represented by exact cell averages and normalized to unit discrete L^m
norm, so the measured quantity tracks the solution-to-data bound the
exponent tables speak about rather than the slow completion of a barely
integrable data norm.  A ProbeReport holds what the probe found (the route,
the levels, the measured values, their growth factors and the
classification); the arguments stay with the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import HypothesisViolation, ParameterError, check_range, check_unit_interval
from .grids import GridDomain, GridFunction, centered_ball_domain, node_radii
from .operators import apply_frac_power
from .poisson import solve_poisson
from .seminorms import gagliardo_double_sum

__all__ = [
    "PROPOSITIONS",
    "PROPOSITIONS_WITH_T",
    "ExponentRange",
    "exponent_range",
    "p31_case1_threshold",
    "ProbeReport",
    "regularity_probe",
    "power_law_cell_average",
]

PROPOSITIONS = (
    "P3.1",     # W^{t,p} range from L^m data, t in (0,1), four cases
    "Cor-t=s",  # P3.1 specialized to t = s
    "P-cr2",    # refinement for m >= N/2s, t in (0,s)
    "P-cr3",    # refinement for N/2s <= m < N/s, t in (s,1)
    "P-rg1",    # L^p range of (-Delta)^{t/2} v, t in (0,s]
    "Cor-rg1",  # L^p range of |grad^s v|
    "L-LPPS",   # L^p range of v itself
    "L-AP",     # W^{1,p} range of v
)
# the statements that take an order t; every other one is evaluated at t = None
PROPOSITIONS_WITH_T = ("P3.1", "P-cr2", "P-cr3", "P-rg1")

INF = math.inf


@dataclass(frozen=True)
class ExponentRange:
    """Admissible range [lower, upper) or [lower, upper] for one statement."""

    proposition: str
    case_index: int
    N: int
    s: Fraction
    t: Fraction | None
    m: Fraction
    upper: Fraction | float  # math.inf for unbounded ranges
    upper_inclusive: bool
    lower: Fraction = Fraction(1)

    def contains(self, p) -> bool:
        p = _frac(p)
        if p < self.lower:
            return False
        if self.upper == INF:
            return True
        return p <= self.upper if self.upper_inclusive else p < self.upper


def _frac(x) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ParameterError(f"cannot interpret {x!r} as an exact rational") from None


def _common_checks(N: int, s: Fraction, m: Fraction) -> None:
    if N < 2:
        raise HypothesisViolation("N >= 2")
    if not Fraction(1, 2) < s < 1:
        raise HypothesisViolation("s in (1/2, 1)")
    if m < 1:
        raise HypothesisViolation("m >= 1")


def exponent_range(proposition: str, N: int, s, t=None, m=1) -> ExponentRange:
    """Exact admissible exponent range of one regularity statement.

    t is required by PROPOSITIONS_WITH_T; Cor-t=s fixes t = s and the
    remaining statements have no t.  Strictness follows the statements: strict
    upper bounds for m = 1 and for the m >= N/2s cases, inclusive bounds for
    the interior 1 < m cases.
    """
    if proposition not in PROPOSITIONS:
        raise ParameterError(f"unknown proposition {proposition!r}; choose from {PROPOSITIONS}")
    s = _frac(s)
    m = _frac(m)
    _common_checks(N, s, m)
    t_f = None if t is None else _frac(t)

    def rng(case, upper, inclusive):
        return ExponentRange(
            proposition=proposition,
            case_index=case,
            N=N,
            s=s,
            t=t_f,
            m=m,
            upper=upper,
            upper_inclusive=inclusive,
        )

    if proposition in ("P3.1", "Cor-t=s"):
        if proposition == "Cor-t=s":
            if t_f is not None and t_f != s:
                raise HypothesisViolation("t = s")
            t_f = s
        elif t_f is None or not 0 < t_f < 1:
            raise HypothesisViolation("t in (0, 1)")
        if m == 1:
            return rng(1, N / (N - (2 * s - t_f)), False)
        if m < Fraction(N) / (2 * s):
            return rng(2, m * N / (N - m * (2 * s - t_f)), True)
        if m < Fraction(N) / (2 * s - 1):
            return rng(3, m * N / (t_f * (N - m * (2 * s - 1))), False)
        return rng(4, INF, False)

    if proposition == "P-cr2":
        if t_f is None or not 0 < t_f < s:
            raise HypothesisViolation("t in (0, s)")
        if m < Fraction(N) / (2 * s):
            raise HypothesisViolation("m >= N/(2s)")
        if m < Fraction(N) / (2 * s - t_f):
            return rng(1, m * N / (N - m * (2 * s - t_f)), False)
        return rng(2, INF, False)

    if proposition == "P-cr3":
        if t_f is None or not s < t_f < 1:
            raise HypothesisViolation("t in (s, 1)")
        if m < Fraction(N) / (2 * s):
            raise HypothesisViolation("m >= N/(2s)")
        if m >= Fraction(N) / s:
            raise HypothesisViolation("m < N/s")
        return rng(1, m * N / (N - m * (2 * s - t_f)), False)

    # P-rg1, Cor-rg1, L-LPPS and L-AP are one rule in d = 2s-t, s, 2s, 2s-1:
    # m = 1: N/(N-d), strict; 1 < m < N/d: mN/(N-md), inclusive; m >= N/d: unbounded
    if proposition == "P-rg1":
        if t_f is None or not 0 < t_f <= s:
            raise HypothesisViolation("t in (0, s]")
        d = 2 * s - t_f
    elif t_f is not None:
        raise HypothesisViolation(f"{proposition} takes no t parameter")
    else:
        d = {"Cor-rg1": s, "L-LPPS": 2 * s, "L-AP": 2 * s - 1}[proposition]
    if m == 1:
        return rng(1, N / (N - d), False)
    if m < Fraction(N) / d:
        return rng(2, m * N / (N - m * d), True)
    return rng(3, INF, False)


def p31_case1_threshold(N: int, s: float, t: float) -> float:
    """Float value of the m = 1 bound N/(N-(2s-t)), without hypothesis gating.

    Exposed for refinement probes run outside the stated hypothesis window
    (notably N = 1, kept as a documented fast-oracle extension).
    """
    den = N - (2.0 * s - t)
    if den <= 0.0:
        return math.inf
    return N / den


# ---------------------------------------------------------------------------
# refinement probes
# ---------------------------------------------------------------------------

GROW_FACTOR = 1.2
BOUNDED_FACTOR = 1.05


@dataclass
class ProbeReport:
    route: str  # "seminorm" or "frac_power_lp"
    node_counts: tuple[int, ...]
    values: list[float]
    growth_factors: list[float]
    classification: str  # growing | bounded | inconclusive


def power_law_cell_average(domain: GridDomain, beta: float) -> GridFunction:
    """Exact (1D) or subdivided-midpoint cell averages of |x|^-beta.

    Cell averaging keeps the discrete L^m mass of barely integrable data
    stable across refinement levels, which midpoint sampling does not.
    """
    check_range("beta", beta, 0.0, domain.dimension)
    coords = domain.interior_coords
    h = domain.h
    if domain.dimension == 1:
        x = np.abs(coords[:, 0])
        if (x < h / 2 - 1e-12 * h).any():
            raise ParameterError("a cell straddles the origin; shift the grid")
        e = 1.0 - beta
        lo = np.maximum(x - h / 2, 0.0)
        hi = x + h / 2
        vals = (hi**e - lo**e) / (e * h)
        return domain.from_interior(vals)
    r = node_radii(domain)
    vals = r ** (-beta)
    near = r < 4.0 * h
    if near.any():
        nsub = 16
        off1 = ((np.arange(nsub) + 0.5) / nsub - 0.5) * h
        grids = np.meshgrid(*([off1] * domain.dimension), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        y = coords[near][:, None, :] + pts[None, :, :]
        rr = np.linalg.norm(y, axis=-1)
        vals[near] = (rr ** (-beta)).mean(axis=1)
    return domain.from_interior(vals)


def regularity_probe(
    beta: float,
    s: float,
    t: float,
    p: float,
    node_counts,
    m: float = 1.0,
    N: int = 1,
    radius: float = 1.0,
) -> ProbeReport:
    """Solve with |x|^-beta data over a refinement ladder and classify growth.

    The measured quantity is the Gagliardo p-power sum of order t when the
    kernel order t*p stays below 2, and the p-power of the L^p norm of
    (-Delta)^{t/2} u otherwise (recorded in the report).  The switch at 2 is
    the probe's own choice of what to measure, kept so that its reports do
    not change; gagliardo_double_sum takes larger orders too.  Data is normalized
    to unit discrete L^m norm at every level.  Classification: growing when
    the last two inter-level factors are all >= 1.2, bounded when all <= 1.05,
    inconclusive otherwise.
    """
    check_range("beta", beta, 0.0, N, closed=True)
    check_unit_interval("s", s)
    check_unit_interval("t", t)
    check_range("p", p, 1.0, closed=True)
    check_range("m", m, 1.0, closed=True)
    node_counts = tuple(int(n) for n in node_counts)
    if len(node_counts) < 2:
        raise ParameterError("need at least two refinement levels")
    order = t * p
    route = "seminorm" if order < 2.0 - 1e-12 else "frac_power_lp"

    values = []
    for n in node_counts:
        dom = centered_ball_domain(N, n, radius)
        if beta > 0:
            f = power_law_cell_average(dom, beta)
        else:
            f = dom.from_interior(np.ones(dom.interior_count))
        fm = (np.abs(f.interior) ** m).sum() * dom.h**dom.dimension
        f = f * (1.0 / fm ** (1.0 / m))
        u = solve_poisson(f, s)
        if route == "seminorm":
            values.append(gagliardo_double_sum(u, p, t, "d_omega"))
        else:
            g = apply_frac_power(u, t)
            values.append(float((np.abs(g.interior) ** p).sum() * dom.h**dom.dimension))

    factors = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    last = factors[-2:]
    if all(f >= GROW_FACTOR for f in last):
        classification = "growing"
    elif all(f <= BOUNDED_FACTOR for f in last):
        classification = "bounded"
    else:
        classification = "inconclusive"
    return ProbeReport(
        route=route,
        node_counts=node_counts,
        values=values,
        growth_factors=factors,
        classification=classification,
    )
