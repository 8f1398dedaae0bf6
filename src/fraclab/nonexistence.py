"""Test-function certificates against solvability for large forcing.

For an exterior-zero test function phi with positive data pairing, the
quotient

    lambda**(phi) = (1/mu_1) * [phi]^2_{s,2,D_Omega} / int f phi^2 dx

certifies that no energy-class solution can exist for any lambda above it.
It is fixed by phi, f, mu_1 and s alone, so lambda_star_star evaluates each
member of a family of smooth bumps once and returns the least quotient, and
a caller compares every lambda with that one number.  The
companion obstruction experiment evaluates the same quadratic quotient with
the weight |x|^-(N-eps)/m against bumps supported in shrinking balls, whose
strict decay shows that no uniform positive lower bound survives the
weight-exponent excess over 2s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_range, check_unit_interval
from .grids import GridDomain, GridFunction, centered_ball_domain, integrate, sample
from .seminorms import gagliardo_double_sum, hardy_ratio

__all__ = [
    "Certificate",
    "lambda_star_star",
    "radial_bump",
    "bump_family",
    "optimality_obstruction",
]


@dataclass(frozen=True)
class Certificate:
    phi_id: str
    value: float  # lambda**(phi)


def _certificate(phi: GridFunction, f: GridFunction, mu1: float, s: float, phi_id: str) -> Certificate | None:
    """lambda**(phi), or None when the pairing int f phi^2 is not positive."""
    check_range("mu1", mu1, 0.0)
    if f.domain is not phi.domain:
        raise ParameterError("f and phi must live on the same domain")
    num = gagliardo_double_sum(phi, 2.0, s, "d_omega")
    den = integrate(f.domain.from_interior(f.interior * phi.interior**2))
    if not den > 0.0:
        return None
    return Certificate(phi_id=phi_id, value=num / (mu1 * den))


def lambda_star_star(f: GridFunction, mu1: float, s: float, family) -> Certificate:
    """The least lambda**(phi) over the family: no solution exists for any lambda above its value.

    family yields (id, GridFunction) pairs, each evaluated once; members with
    nonpositive pairing are skipped.  An empty family, or one whose pairings
    are all nonpositive, is an error.  Any other refusal (a bad mu1 or s, a
    member on another domain than f) is raised at the first member it
    concerns.
    """
    best: Certificate | None = None
    members = 0
    for phi_id, phi in family:
        members += 1
        cert = _certificate(phi, f, mu1, s, phi_id)
        if cert is not None and (best is None or cert.value < best.value):
            best = cert
    if members == 0:
        raise ParameterError("no admissible test function: the family is empty")
    if best is None:
        raise ParameterError("no admissible test function: all pairings were nonpositive")
    return best


def radial_bump(domain: GridDomain, center, rho: float) -> GridFunction:
    """Smooth compact bump (1 - |x-c|^2/rho^2)_+^2 sampled on the grid."""
    check_range("rho", rho, 0.0)
    c = np.asarray(center, dtype=float)

    def expr(*coords):
        r2 = sum((coords[k] - c[k]) ** 2 for k in range(domain.dimension))
        return np.maximum(1.0 - r2 / rho**2, 0.0) ** 2

    return sample(expr, domain)


def bump_family(domain: GridDomain, centers, rhos) -> list[tuple[str, GridFunction]]:
    """Deterministic grid of bumps over given centers and widths."""
    out = []
    for c in centers:
        for rho in rhos:
            cid = ",".join(f"{float(v):g}" for v in np.atleast_1d(c))
            out.append((f"bump[c=({cid}),rho={float(rho):g}]", radial_bump(domain, np.atleast_1d(c), rho)))
    return out


def optimality_obstruction(
    N: int,
    s: float,
    m: float,
    eps: float,
    radii,
    nodes_per_axis: int = 80,
) -> list[tuple[float, float]]:
    """Quotient table [phi_r]^2 / int phi_r^2 |x|^-(N-eps)/m over shrinking r.

    Requires (N-eps)/m > 2s (checked), so the weight exponent exceeds the
    Hardy-critical 2s and the quotient decays like r^((N-eps)/m - 2s).
    Returns [(r, quotient)] in the given radius order.
    """
    check_unit_interval("s", s)
    check_unit_interval("eps", eps)
    check_range("m", m, 1.0, closed=True)
    beta = (N - eps) / m
    if not beta > 2.0 * s:
        raise ParameterError(
            f"hypothesis (N-eps)/m > 2s fails: {beta:.4g} <= {2.0 * s:.4g} (need m < N/(2s))"
        )
    radii = [float(r) for r in radii]
    if not radii:
        raise ParameterError("radii list is empty")
    dom = centered_ball_domain(N, nodes_per_axis, max(radii))
    table = []
    for r in radii:
        phi = radial_bump(dom, np.zeros(N), r)
        table.append((r, hardy_ratio(phi, s, 2.0, beta)))
    return table
