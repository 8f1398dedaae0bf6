"""Cell-averaged hypersingular kernel tables and the normalization constant.

Every nonlocal operator here is driven by translation-invariant weights

    w_z = integral over cell(z) of |y|^-(N+sigma) dy,   z in Z^N \\ {0},

accumulated for lattice offsets with |z| h <= R, plus an analytic far-field
tail  omega_{N-1} R^-sigma / sigma  for the mass beyond the cutoff.  Cell
averaging (exact antiderivatives in 1D, tensor-midpoint subdivision in 2D/3D)
keeps every weight positive and symmetric, which is what gives the assembled
operators their M-matrix structure and discrete maximum principle.

The per-node exterior mass

    kappa_i = sum of w_z over offsets leaving the interior + tail(R)

turns exterior-zero boundary conditions into a pure diagonal term, so all
operators reduce to interior sums sharing one table.  Identities such as
the energy identity and the Gagliardo decomposition then hold to machine
precision by construction, because every module reads the same weights.

The normalization constant

    a_{N,s} = ( int_{R^N} (1 - cos xi_1) |xi|^-(N+2s) dxi )^-1
            = -2^{2s} Gamma(N/2+s) / ( pi^{N/2} Gamma(-s) )

is provided both in closed form and via direct quadrature of the defining
integral (spherical reduction, log-substitution near 0, pi-length panels with
an analytic remainder), the latter serving as an independent oracle.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParameterError
from .grids import GridDomain

__all__ = [
    "normalization_constant",
    "normalization_constant_quadrature",
    "sphere_area",
    "KernelTable",
    "build_kernel_table",
    "get_table",
    "save_kernel_table",
    "load_kernel_table",
    "CacheMismatch",
    "origin_cell_moment",
    "cell_kernel_integrals",
]

CACHE_MAGIC = b"FLKT"
CACHE_VERSION = 1
# rows of the pair matrix handled per block; a 64 x I float64 block stays in cache
PAIR_BLOCK_ROWS = 64


def sphere_area(d: int) -> float:
    """Surface measure |S^d| of the unit d-sphere; |S^0| = 2."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def normalization_constant(N: int, s: float) -> float:
    """a_{N,s} = -2^{2s} Gamma(N/2+s) / (pi^{N/2} Gamma(-s)); positive on (0,1)."""
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    if not 0.0 < s < 1.0:
        raise ParameterError(f"s must lie in (0,1), got {s}")
    return -(2.0 ** (2 * s)) * math.gamma(N / 2.0 + s) / (
        math.pi ** (N / 2.0) * math.gamma(-s)
    )


def _sphere_slice(r: np.ndarray, N: int, n_theta: int) -> np.ndarray:
    """psi_N(r) = integral over S^{N-1} of (1 - cos(r w_1)) dsigma(w)."""
    if N == 1:
        return 2.0 * (1.0 - np.cos(r))
    if N == 2:
        th = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
        vals = 1.0 - np.cos(r[:, None] * np.cos(th)[None, :])
        return (2.0 * math.pi / n_theta) * vals.sum(axis=1)
    t, wt = np.polynomial.legendre.leggauss(min(n_theta, 4000))
    wfac = wt * (1.0 - t**2) ** ((N - 3) / 2.0)
    vals = 1.0 - np.cos(r[:, None] * t[None, :])
    return sphere_area(N - 2) * (vals * wfac[None, :]).sum(axis=1)


def normalization_constant_quadrature(
    N: int,
    s: float,
    r_min: float = 1e-6,
    r_max: float = 400.0,
    panel_order: int = 32,
) -> float:
    """Evaluate a_{N,s} by quadrature of its defining Fourier integral.

    Independent of the Gamma formula: reduces to the radial integral of
    psi_N(r) r^{-1-2s}, handled with a small-r Taylor patch, a log-substituted
    panel on (r_min, pi), pi-length Gauss panels to r_max and the exact
    |S^{N-1}| remainder beyond (the oscillatory remainder is dropped; it is
    O(r_max^{-2s-(N-1)/2})).
    """
    if not 0.0 < s < 1.0:
        raise ParameterError(f"s must lie in (0,1), got {s}")
    SN = sphere_area(N - 1)
    total = SN / (2.0 * N) * r_min ** (2.0 - 2 * s) / (2.0 - 2 * s)

    x, w = np.polynomial.legendre.leggauss(64)
    u0, u1 = math.log(r_min), math.log(math.pi)
    u = (u0 + u1) / 2.0 + (u1 - u0) / 2.0 * x
    r = np.exp(u)
    total += (u1 - u0) / 2.0 * float(
        (w * _sphere_slice(r, N, 96) * np.exp(-2.0 * s * u)).sum()
    )

    xg, wg = np.polynomial.legendre.leggauss(panel_order)
    edges = np.arange(math.pi, r_max + math.pi, math.pi)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        r = mid + half * xg
        n_theta = max(96, int(4 * b) + 32)
        total += half * float((wg * _sphere_slice(r, N, n_theta) * r ** (-1 - 2 * s)).sum())

    total += SN * r_max ** (-2.0 * s) / (2.0 * s)
    return 1.0 / total


# ---------------------------------------------------------------------------
# cell integrals
# ---------------------------------------------------------------------------

_SUBDIV_SCHEDULE = ((32, 1), (16, 3), (8, 8), (4, 24), (2, np.inf))


def _subdiv_for(rinf: np.ndarray) -> np.ndarray:
    out = np.full(rinf.shape, 2, dtype=int)
    for nsub, up in reversed(_SUBDIV_SCHEDULE):
        out[rinf <= up] = nsub
    return out


def cell_kernel_integrals(offsets: np.ndarray, exponent: float, h: float) -> np.ndarray:
    """Integrals of |y|^exponent over cells centered at offsets*h (no origin cell).

    1D uses exact antiderivatives; higher dimensions use tensor-midpoint
    subdivision graded by the max-norm distance of the cell.
    """
    offsets = np.asarray(offsets, dtype=int)
    if offsets.ndim == 1:
        offsets = offsets[:, None]
    ndim = offsets.shape[1]
    if np.any(np.all(offsets == 0, axis=1)):
        raise ParameterError("origin cell must be handled via origin_cell_moment")

    if ndim == 1:
        z = np.abs(offsets[:, 0]).astype(float)
        lo = (z - 0.5) * h
        hi = (z + 0.5) * h
        e1 = exponent + 1.0
        if abs(e1) < 1e-14:
            return np.log(hi / lo)
        return (hi**e1 - lo**e1) / e1

    # canonicalize by sorted absolute offsets so mirrored cells share one value
    canon = np.sort(np.abs(offsets), axis=1)
    uniq, inverse = np.unique(canon, axis=0, return_inverse=True)
    rinf = uniq.max(axis=1)
    vals = np.zeros(len(uniq))
    for nsub in np.unique(_subdiv_for(rinf)):
        sel = _subdiv_for(rinf) == nsub
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
    return vals[inverse]


def origin_cell_moment(h: float, N: int, power: float) -> float:
    """Integral of |z|^power over the origin cell [-h/2, h/2]^N (power > -N)."""
    if power <= -N:
        raise ParameterError(f"|z|^{power} is not integrable over the origin cell in R^{N}")
    g = power + N
    if N == 1:
        return 2.0 * (h / 2.0) ** g / g
    if N == 2:
        th = (np.arange(256) + 0.5) * (math.pi / 4.0) / 256
        rmax = (h / 2.0) / np.cos(th)
        return float(8.0 * (rmax**g / g).sum() * (math.pi / 4.0) / 256)
    if N == 3:
        ball = sphere_area(2) * (h / 2.0) ** g / g
        nsub = 24
        off1 = ((np.arange(nsub) + 0.5) / nsub - 0.5) * h
        X, Y, Z = np.meshgrid(off1, off1, off1, indexing="ij")
        r = np.sqrt(X**2 + Y**2 + Z**2)
        outside = r > h / 2.0
        corner = float((r[outside] ** power).sum() * (h / nsub) ** 3)
        return ball + corner
    raise ParameterError(f"origin cell moments implemented for N <= 3, got N={N}")


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------


@dataclass
class KernelTable:
    """Cell-averaged weights of the kernel |y|^-(N+sigma) on one grid.

    weights is a dense offset array of shape (2M+1,)*N with the zero offset at
    the center index and value 0 there; kappa holds the exterior mass of every
    interior node, already including the analytic tail.
    """

    domain: GridDomain
    sigma: float
    cutoff_radius: float
    lattice_radius: int
    weights: np.ndarray
    total_weight: float
    tail: float
    norm_const: float | None
    kappa: np.ndarray
    shape_hash: str
    _pair: np.ndarray | None = field(default=None, repr=False)

    def origin_moment(self, p: float) -> float:
        """Integral of |z|^{p-N-sigma} over the origin cell (requires p > sigma)."""
        return origin_cell_moment(self.domain.h, self.domain.dimension, p - self.domain.dimension - self.sigma)

    def pair_matrix(self) -> np.ndarray:
        """Dense interior-to-interior weight matrix w(z_i - z_j), zero diagonal.

        Entries are gathered from the flat weight array at linear offsets
        center + lin_i - lin_j, one block of rows at a time.
        """
        if self._pair is None:
            shape = self.weights.shape
            W = self.weights.reshape(-1)
            lin = np.ravel_multi_index(self.domain.interior_index.T, shape)
            center = np.ravel_multi_index((self.lattice_radius,) * len(shape), shape)
            n = len(lin)
            P = np.empty((n, n))
            for i0 in range(0, n, PAIR_BLOCK_ROWS):
                i1 = min(i0 + PAIR_BLOCK_ROWS, n)
                np.take(W, (center + lin[i0:i1, None]) - lin[None, :], out=P[i0:i1])
            np.fill_diagonal(P, 0.0)
            self._pair = P
        return self._pair

    def row_sums(self) -> np.ndarray:
        return self.pair_matrix().sum(axis=1)


def build_kernel_table(
    domain: GridDomain,
    sigma: float,
    cutoff_radius: float | None = None,
    allow_high_order: bool = False,
) -> KernelTable:
    """Build the weight table of order sigma (kernel exponent N + sigma).

    sigma must lie in (0,2) for operator use; seminorm machinery may pass
    allow_high_order=True to reach orders up to N+2 (no normalization then).
    """
    N = domain.dimension
    hi_cap = N + 2.0
    if not 0.0 < sigma < (hi_cap if allow_high_order else 2.0):
        cap = "N+2" if allow_high_order else "2"
        raise ParameterError(f"kernel order sigma must lie in (0,{cap}), got {sigma}")
    R = 4.0 * domain.bbox_diameter if cutoff_radius is None else float(cutoff_radius)
    if R < domain.bbox_diameter + domain.h:
        raise ConfigurationError(
            f"cutoff radius {R:.4g} smaller than bounding-box diameter + one cell"
        )
    h = domain.h
    M = int(math.floor(R / h))

    axes = [np.arange(-M, M + 1)] * N
    mesh = np.meshgrid(*axes, indexing="ij")
    zz = np.stack([m.ravel() for m in mesh], axis=1)
    r = np.linalg.norm(zz, axis=1)
    inside = (r <= M) & (r > 0)
    W = np.zeros((2 * M + 1,) * N)
    vals = cell_kernel_integrals(zz[inside], -(N + sigma), h)
    W[tuple(zz[inside, k] + M for k in range(N))] = vals

    total = float(W.sum())
    tail = sphere_area(N - 1) * ((M + 0.5) * h) ** (-sigma) / sigma
    norm = normalization_constant(N, sigma / 2.0) if sigma < 2.0 else None

    table = KernelTable(
        domain=domain,
        sigma=float(sigma),
        cutoff_radius=R,
        lattice_radius=M,
        weights=W,
        total_weight=total,
        tail=tail,
        norm_const=norm,
        kappa=np.empty(0),
        shape_hash=domain.shape_hash(),
    )
    table.kappa = total + tail - table.row_sums()
    if not np.all(table.kappa > 0):
        raise ConfigurationError("exterior mass kappa must be positive on a bounded domain")
    return table


def get_table(
    domain: GridDomain,
    sigma: float,
    cutoff_radius: float | None = None,
    allow_high_order: bool = False,
) -> KernelTable:
    """Memoized table lookup on the domain (tables are immutable once built)."""
    key = (round(float(sigma), 14), cutoff_radius, allow_high_order)
    tab = domain._tables.get(key)
    if tab is None:
        tab = build_kernel_table(domain, sigma, cutoff_radius, allow_high_order)
        domain._tables[key] = tab
    return tab


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------


class CacheMismatch(ValueError):
    """Cache file is corrupted, has a wrong version, or keys a different table."""


_HEADER = struct.Struct("<4sIIIdddII64s")


def save_kernel_table(table: KernelTable, path) -> None:
    """Write the table in the binary cache format (bit-exact round trip)."""
    W = np.ascontiguousarray(table.weights, dtype="<f8")
    kap = np.ascontiguousarray(table.kappa, dtype="<f8")
    header = _HEADER.pack(
        CACHE_MAGIC,
        CACHE_VERSION,
        table.domain.dimension,
        table.domain.nodes_per_axis,
        table.sigma,
        table.domain.h,
        table.cutoff_radius,
        table.lattice_radius,
        len(kap),
        table.shape_hash.encode(),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(W.tobytes())
        fh.write(kap.tobytes())


def load_kernel_table(path, domain: GridDomain, sigma: float, cutoff_radius: float | None = None) -> KernelTable:
    """Load a cached table; raises CacheMismatch unless all key fields agree."""
    R = 4.0 * domain.bbox_diameter if cutoff_radius is None else float(cutoff_radius)
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
            if len(raw) != _HEADER.size:
                raise CacheMismatch("truncated header")
            (magic, version, N, n_axis, sig, h, Rfile, M, n_int, shash) = _HEADER.unpack(raw)
            if magic != CACHE_MAGIC:
                raise CacheMismatch("bad magic")
            if version != CACHE_VERSION:
                raise CacheMismatch(f"version {version} != {CACHE_VERSION}")
            key_ok = (
                N == domain.dimension
                and n_axis == domain.nodes_per_axis
                and sig == float(sigma)
                and h == domain.h
                and Rfile == R
                and n_int == domain.interior_count
                and shash.decode() == domain.shape_hash()
            )
            if not key_ok:
                raise CacheMismatch("key fields do not match this domain/order")
            n_w = (2 * M + 1) ** N
            W = np.frombuffer(fh.read(n_w * 8), dtype="<f8")
            kap = np.frombuffer(fh.read(n_int * 8), dtype="<f8")
            if W.size != n_w or kap.size != n_int:
                raise CacheMismatch("truncated payload")
    except OSError as exc:
        raise CacheMismatch(f"unreadable cache file: {exc}") from exc

    W = W.reshape((2 * M + 1,) * N).copy()
    tail = sphere_area(N - 1) * ((M + 0.5) * h) ** (-sigma) / sigma
    norm = normalization_constant(N, sigma / 2.0) if sigma < 2.0 else None
    return KernelTable(
        domain=domain,
        sigma=float(sigma),
        cutoff_radius=R,
        lattice_radius=M,
        weights=W,
        total_weight=float(W.sum()),
        tail=tail,
        norm_const=norm,
        kappa=kap.copy(),
        shape_hash=domain.shape_hash(),
    )
