"""Gagliardo seminorms and the sharp Hardy constant.

The discrete Gagliardo p-power sum over a pair region uses the same
cell-averaged tables as the operators, at kernel order sigma = s*p:

    [u]^p = h^N [ sum_{i,j} |u_i-u_j|^p w_ij  (+ kappa and origin-cell terms) ]

Regions: "omega_omega" integrates over interior x interior only; "d_omega"
adds both exterior blocks (each contributing |u_i|^p kappa_i once); for
exterior-zero functions the full-space value coincides with d_omega.  Because
the weights, kappa and the origin moment are shared with the operator module,
and the per-node terms come from its one integrand (operators._d_omega_integrand),
the decomposition identity against the nonlocal gradient square and the
operator energy identity hold to machine precision.  The kernel order s*p
may pass 2, within the range of every table; the origin cell needs p > s*p,
which s < 1 gives.  ball_membership is the same sum at order s+eps, the
invariant-ball check that a caller applies to an iterate of the fixed-point
driver.

The sharp Hardy constant is evaluated, for ps < N (both oracles refuse any
other triple), from its one-dimensional double integral

    Lambda_{N,s,p} = 2 int_0^1 sigma^{ps-1} |1 - sigma^{(N-ps)/p}|^p
                     Phi_{N,s,p}(sigma) dsigma,
    Phi_{N,s,p}(sigma) = |S^{N-2}| int_{-1}^1 (1-t^2)^{(N-3)/2}
                         (1 - 2 sigma t + sigma^2)^{-(N+ps)/2} dt,

by nested adaptive quadrature with an exp substitution near sigma = 0, a
power substitution that flattens the (1-sigma)^{p-1-ps} endpoint, and a
closed-form term for the last stretch where Phi enters its asymptotic regime
Phi(1-u) ~ c_Phi u^{-1-ps}.  An independent Monte-Carlo estimator of the same
double integral (importance sampling in sigma, closed-form Phi) serves as the
cross-check oracle.  It runs in chunks of MC_CHUNK samples on every usable
core and holds about 16 bytes per sample (the per-sample values and one
temporary of the closing standard deviation); MC_CHUNK alone bounds the
temporaries of a chunk, its Clenshaw sums included.  Each chunk draws its
slice of the single seeded stream, so the estimate does not depend on the
number of workers or the order the chunks finish in.  For N = 2,

    Phi(sigma) = 2 pi u^{-2 beta} 2F1(beta, 1/2; 1; -x),  u = 1-sigma,
    x = 4 sigma/u^2,  beta = (N+ps)/2,

and each call tabulates the 2F1 factor once, before its threads start: a
degree-22 Chebyshev interpolant on [0, 1] and on every [2^(e-1), 2^e] up to
the largest x with u >= _U_SWITCH (1,311 node values in all, within about
4e-15 of the function), read by Clenshaw's recurrence over all the samples
of a chunk at once.  At beta = 3/2 the node values come from the
complete elliptic integral E, where scipy's hyp2f1 overflows.  A mean or
standard error that is not finite raises ConsistencyError.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParameterError, QuadratureError, check_range, check_unit_interval
from .grids import GridFunction, node_radii
from .kernels import get_table, sphere_area
from . import operators

__all__ = [
    "REGIONS",
    "HardyResult",
    "gagliardo_double_sum",
    "ball_membership",
    "hardy_constant",
    "hardy_constant_mc",
    "check_hardy_mc_args",
    "hardy_ratio",
]

REGIONS = ("omega_omega", "d_omega")

_U_SWITCH = 1e-8  # 1 - sigma below which the endpoint asymptotics take over
MC_CHUNK = 1 << 15  # samples per independent chunk of the Monte-Carlo oracle
_CHEB_DEGREE = 22  # of each dyadic piece of the N = 2 table of Phi
# the table's pieces reach the binary exponent of the largest x = 4 sigma/(1-sigma)^2 with 1-sigma >= _U_SWITCH
_PIECES = math.frexp(4.0 / _U_SWITCH**2)[1] + 1


@dataclass(frozen=True)
class HardyResult:
    value: float
    error_estimate: float
    N: int
    s: float
    p: float


def gagliardo_double_sum(u: GridFunction, p: float, s: float, region: str = "d_omega") -> float:
    """Discrete Gagliardo p-power sum of order s over the given pair region.

    The kernel order is s*p, in the range of every table
    (kernels.build_kernel_table); the sum reads no normalization.
    """
    check_unit_interval("s", s)
    check_range("p", p, 1.0, closed=True)
    if region not in REGIONS:
        raise ParameterError(f"region must be one of {REGIONS}, got {region!r}")
    dom = u.domain
    pairs, exterior, origin = operators._d_omega_integrand(u, get_table(dom, s * p), p)
    # each exterior block holds |u_i|^p kappa_i once
    kap = 2.0 * float(exterior.sum()) if region == "d_omega" else 0.0
    return (float(pairs.sum()) + kap + float(origin.sum())) * dom.h**dom.dimension


def ball_membership(
    u: GridFunction,
    s: float,
    eps: float,
    r: float,
    radius: float,
) -> tuple[bool, float]:
    """Test the invariant-ball condition [u]^r_{s+eps, r, D_Omega} <= radius^{r/2}.

    The seminorm is gagliardo_double_sum at order s+eps and power r.
    """
    check_range("eps", eps, 0.0)
    check_unit_interval("s+eps", s + eps)
    check_range("r", r, 1.0, closed=True)
    check_range("radius", radius, 0.0)
    value = gagliardo_double_sum(u, r, s + eps)
    return value <= radius ** (r / 2.0), value


# ---------------------------------------------------------------------------
# Hardy constant
# ---------------------------------------------------------------------------


def _phi_coeff(N: int, beta: float) -> float:
    # lim_{u->0} u^{1+ps} Phi(1-u) = |S^{N-2}| B((N-1)/2, beta-(N-1)/2) / 2
    from scipy.special import betaln

    return sphere_area(N - 2) * 0.5 * math.exp(betaln((N - 1) / 2.0, beta - (N - 1) / 2.0))


def _phi_quad(N: int, beta: float, sigma: float) -> tuple[float, float]:
    """Angular factor Phi by adaptive quadrature, peaked-core split near sigma=1."""
    from scipy.integrate import quad

    SN2 = sphere_area(N - 2)
    usq = (1.0 - sigma) ** 2

    def f(th):
        return math.sin(th) ** (N - 2) * (usq + 4.0 * sigma * math.sin(th / 2.0) ** 2) ** (-beta)

    u = 1.0 - sigma
    if u >= 0.1:
        v, e = quad(f, 0.0, math.pi, limit=200)
        return SN2 * v, SN2 * e
    cut = min(10.0 * u, math.pi / 2.0)
    v1, e1 = quad(lambda tau: u * f(u * tau), 0.0, cut / u, limit=200)
    v2, e2 = quad(lambda w: math.exp(w) * f(math.exp(w)), math.log(cut), math.log(math.pi), limit=200)
    return SN2 * (v1 + v2), SN2 * (e1 + e2)


def _check_hardy_args(N: int, s: float, p: float) -> None:
    check_unit_interval("s", s)
    check_range("p", p, 1.0)
    # the integral form of Lambda_{N,s,p} holds for ps < N only
    check_range("p*s", p * s, 0.0, N)


def hardy_constant(N: int, s: float, p: float, tol: float = 1e-6) -> HardyResult:
    """Sharp Hardy constant Lambda_{N,s,p} by nested adaptive quadrature.

    Raises QuadratureError (reporting the achieved estimate) if the combined
    error estimate exceeds tol.
    """
    check_range("N", N, 2, closed=True)
    _check_hardy_args(N, s, p)
    check_range("tol", tol, 0.0)
    from scipy.integrate import quad

    beta = (N + p * s) / 2.0
    k = (N - p * s) / p
    ps = p * s
    g = p - ps
    phi_err = [0.0]

    def phi(sigma: float) -> float:
        v, e = _phi_quad(N, beta, sigma)
        phi_err[0] = max(phi_err[0], e / max(abs(v), 1e-300))
        return v

    def F(sigma: float) -> float:
        return sigma ** (ps - 1.0) * abs(1.0 - sigma**k) ** p * phi(sigma)

    # sigma = e^-tau; the powers of sigma are folded into exponentials so that
    # an underflowed sigma cannot meet a negative power when ps < 1
    v1, e1 = quad(
        lambda tau: math.exp(-ps * tau) * abs(1.0 - math.exp(-k * tau)) ** p * phi(math.exp(-tau)),
        math.log(2.0),
        math.inf,
        limit=300,
    )

    w_switch = _U_SWITCH**g
    endpoint = k**p * _phi_coeff(N, beta) * w_switch / g
    v2, e2 = quad(
        lambda w: F(1.0 - w ** (1.0 / g)) * (1.0 / g) * w ** (1.0 / g - 1.0),
        w_switch,
        0.5**g,
        limit=300,
    )
    lam = 2.0 * (v1 + v2 + endpoint)
    err = 2.0 * (e1 + e2) + phi_err[0] * lam + 2.0 * endpoint * _U_SWITCH
    if not math.isfinite(lam) or err > tol:
        raise QuadratureError(
            f"Hardy constant quadrature reached error estimate {err:.3e} > tol {tol:.3e}"
        )
    return HardyResult(value=lam, error_estimate=err, N=N, s=s, p=p)


def _hyp_table(beta: float) -> np.ndarray:
    """Chebyshev coefficients of F(x) = 2F1(beta, 1/2; 1; -x), shape (_CHEB_DEGREE+1, _PIECES).

    The pieces cover x in [0, 4/_U_SWITCH^2].  Piece 0 covers [0, 1] and piece e >= 1 covers [2^(e-1), 2^e]; each is
    interpolated at the first-kind Chebyshev points of its degree.  At
    beta = 3/2 (ps = 1) the node values come from the elliptic form
    F(x) = (2/pi) E(x/(1+x)) / sqrt(1+x): scipy's hyp2f1 returns inf there
    from x ~ 9e15 on.
    """
    from scipy.special import ellipe, hyp2f1

    n = _CHEB_DEGREE + 1
    theta = math.pi * (np.arange(n) + 0.5) / n
    y = np.cos(theta)[:, None]
    e = np.arange(_PIECES)
    x = np.where(e > 0, np.ldexp(y + 3.0, e - 2), 0.5 * (y + 1.0))
    if beta == 1.5:
        F = (2.0 / math.pi) * ellipe(x / (1.0 + x)) / np.sqrt(1.0 + x)
    else:
        F = hyp2f1(beta, 0.5, 1.0, -x)
    T = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    T[0] *= 0.5
    return T @ F


def _hyp_eval(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F(x) from its _hyp_table by Clenshaw's recurrence."""
    m, e = np.frexp(x)
    piece = np.maximum(e, 0)
    y2 = np.where(e > 0, 8.0 * m - 6.0, 4.0 * x - 2.0)  # twice the coordinate in [-1, 1) on the piece
    b1, b2 = table[-1].take(piece), 0.0
    for row in table[-2:0:-1]:
        b1, b2 = y2 * b1 + (row.take(piece) - b2), b1
    return 0.5 * y2 * b1 - b2 + table[0].take(piece)


def _phi_closed(N: int, beta: float, sigma: np.ndarray, table: np.ndarray | None) -> np.ndarray:
    """Closed forms of Phi for N in {2,3} and 1 - sigma >= _U_SWITCH, used only by the MC oracle.

    N = 2 reads its 2F1 factor from table = _hyp_table(beta); N = 3 needs none.
    """
    u = 1.0 - sigma
    if N == 2:
        return 2.0 * math.pi * u ** (-2.0 * beta) * _hyp_eval(table, 4.0 * sigma / u**2)
    bm1 = beta - 1.0
    sg = np.maximum(sigma, 1e-8)
    return 2.0 * math.pi / (2.0 * sg * bm1) * (u ** (-2.0 * bm1) - (1.0 + sg) ** (-2.0 * bm1))


def check_hardy_mc_args(N: int, s: float, p: float, samples: int) -> None:
    """The arguments hardy_constant_mc accepts: N in {2,3}, s in (0,1), p > 1, ps < N, an integer samples >= 2."""
    if N not in (2, 3):
        raise ParameterError(f"Monte-Carlo Hardy oracle implemented for N in {{2,3}}, got {N}")
    _check_hardy_args(N, s, p)
    if not isinstance(samples, (int, np.integer)) or samples < 2:
        raise ParameterError(f"samples must be an integer >= 2, got {samples!r}")


def _uniforms(seed: int, offset: int, n: int) -> np.ndarray:
    """Draws offset .. offset+n-1 of the uniform stream of default_rng(seed)."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(offset)  # one 64-bit step per double
    return rng.random(n)


def hardy_constant_mc(
    N: int,
    s: float,
    p: float,
    samples: int = 2_000_000,
    seed: int = 20240801,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the same Hardy double integral.

    Importance mixture in sigma (densities ~ sigma^{ps-1} near 0 and
    (1-sigma)^{p-ps-1} near 1, both with exact inverse CDFs) keeps the
    integrand bounded; returns (estimate, standard error).  Sample i uses
    draws i and samples+i of the default_rng(seed) stream, so chunks of
    MC_CHUNK samples run on parallel threads and the result is the same for
    any worker count.
    """
    check_hardy_mc_args(N, s, p, samples)
    beta = (N + p * s) / 2.0
    table = _hyp_table(beta) if N == 2 else None
    k = (N - p * s) / p
    ps = p * s
    g = p - ps
    cphi = _phi_coeff(N, beta)
    vals = np.empty(samples)

    def chunk(c0: int) -> None:
        n = min(MC_CHUNK, samples - c0)
        U = _uniforms(seed, c0, n)
        pick = _uniforms(seed, samples + c0, n) < 0.5
        rest = ~pick
        sigma = np.empty(n)
        sigma[pick] = U[pick] ** (1.0 / ps)
        sigma[rest] = 1.0 - U[rest] ** (1.0 / g)
        u = 1.0 - sigma
        dens = 0.5 * ps * np.maximum(sigma, 1e-300) ** (ps - 1.0) + 0.5 * g * np.maximum(
            u, 1e-300
        ) ** (g - 1.0)
        F = np.empty(n)
        near = u < _U_SWITCH
        far = ~near
        F[far] = (
            sigma[far] ** (ps - 1.0)
            * np.abs(1.0 - sigma[far] ** k) ** p
            * _phi_closed(N, beta, sigma[far], table)
        )
        F[near] = k**p * cphi * np.maximum(u[near], 1e-300) ** (p - 1.0 - ps)
        vals[c0 : c0 + n] = 2.0 * F / dens

    starts = range(0, samples, MC_CHUNK)
    # the numpy ufuncs and take release the GIL; each chunk fills its own
    # slice of vals, and the reduction below is over the whole array
    with ThreadPoolExecutor(max_workers=min(operators._usable_cpus(), len(starts))) as pool:
        list(pool.map(chunk, starts))
    mean, stderr = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ConsistencyError(
            f"Monte-Carlo Hardy estimate {mean} with standard error {stderr} is not finite"
        )
    return mean, stderr


def hardy_ratio(phi: GridFunction, s: float, p: float, weight_exponent: float) -> float:
    """Quotient [phi]^p_{s,p,D_Omega} / int |phi|^p |x|^-weight_exponent dx.

    Requires an origin-offset grid (no node at 0) and a nonzero denominator.
    """
    dom = phi.domain
    radii = node_radii(dom)
    num = gagliardo_double_sum(phi, p, s, "d_omega")
    den = float(
        (np.abs(phi.interior) ** p * radii ** (-weight_exponent)).sum()
        * dom.h**dom.dimension
    )
    if not den > 0.0:
        raise ParameterError("weighted denominator vanishes: phi must be nonzero")
    return num / den
