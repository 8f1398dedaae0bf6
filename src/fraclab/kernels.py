"""Cell-averaged hypersingular kernel tables and the normalization constant.

Every nonlocal operator here is driven by translation-invariant weights

    w_z = integral over cell(z) of |y|^-(N+sigma) dy,   z in Z^N \\ {0},

accumulated for lattice offsets with |z| h <= R, the cutoff radius of the
domain (GridDomain.cutoff_radius), plus an analytic far-field
tail  omega_{N-1} R^-sigma / sigma  for the mass beyond the cutoff.  Cell
averaging (exact antiderivatives in 1D, tensor-midpoint subdivision in 2D/3D)
keeps every weight positive and symmetric, which is what gives the assembled
operators their M-matrix structure and discrete maximum principle.  A cell
integral depends only on the sorted absolute offset, so each sorted offset
0 <= z_1 <= ... <= z_N is integrated once and mirrored into the lattice.

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

get_table is the one way any code reaches a table.  It memoizes each order
per domain and, when FRACLAB_CACHE_DIR is set, keeps every table it serves
in that directory, one file per domain and order; the file name carries the
domain's cutoff radius.  The files use a binary format (save_kernel_table /
load_kernel_table) whose header carries the key fields and a sha256 of the
weights and kappa; a file that fails any check raises CacheMismatch, and
get_table then rebuilds it with a warning.  The memo is keyed weakly by
domain and a table holds its domain weakly, so a table serves its domain
without keeping it alive: when the last reference to a domain goes, its
tables go with it, by reference counting alone.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import struct
import sys
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .errors import ConfigurationError, ParameterError, check_unit_interval
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
    "cell_lattice",
    "lattice_gather",
    "lattice_row_sums",
    "available_memory",
]

CACHE_MAGIC = b"FLKT"
CACHE_VERSION = 2
# rows per block of every pair-weight loop; a 64 x I float64 block stays in cache
PAIR_BLOCK_ROWS = 64


def sphere_area(d: int) -> float:
    """Surface measure |S^d| of the unit d-sphere; |S^0| = 2."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def normalization_constant(N: int, s: float) -> float:
    """a_{N,s} = -2^{2s} Gamma(N/2+s) / (pi^{N/2} Gamma(-s)); positive on (0,1)."""
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    check_unit_interval("s", s)
    return -(2.0 ** (2 * s)) * math.gamma(N / 2.0 + s) / (
        math.pi ** (N / 2.0) * math.gamma(-s)
    )


def _sphere_slice(r: np.ndarray, N: int) -> np.ndarray:
    """psi_N(r) = integral over S^{N-1} of (1 - cos(r w_1)) dsigma(w), by an angular rule.

    Used on the log panel r < pi, where the closed form below loses digits to
    the cancellation in 1 - Gamma(N/2) (2/r)^{N/2-1} J_{N/2-1}(r).
    """
    n_theta = 96
    if N == 1:
        return 2.0 * (1.0 - np.cos(r))
    if N == 2:
        th = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
        vals = 1.0 - np.cos(r[:, None] * np.cos(th)[None, :])
        return (2.0 * math.pi / n_theta) * vals.sum(axis=1)
    t, wt = np.polynomial.legendre.leggauss(n_theta)
    wfac = wt * (1.0 - t**2) ** ((N - 3) / 2.0)
    vals = 1.0 - np.cos(r[:, None] * t[None, :])
    return sphere_area(N - 2) * (vals * wfac[None, :]).sum(axis=1)


def _sphere_slice_closed(r: np.ndarray, N: int) -> np.ndarray:
    """psi_N(r) = |S^{N-1}| (1 - Gamma(N/2) (2/r)^{N/2-1} J_{N/2-1}(r)), for r >= pi."""
    nu = N / 2.0 - 1.0
    return sphere_area(N - 1) * (1.0 - math.gamma(N / 2.0) * (2.0 / r) ** nu * special.jv(nu, r))


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
    O(r_max^{-2s-(N-1)/2})).  The log panel integrates psi_N over the sphere;
    the pi-length panels use its Bessel closed form, all panels at once.
    """
    check_unit_interval("s", s)
    SN = sphere_area(N - 1)
    total = SN / (2.0 * N) * r_min ** (2.0 - 2 * s) / (2.0 - 2 * s)

    x, w = np.polynomial.legendre.leggauss(64)
    u0, u1 = math.log(r_min), math.log(math.pi)
    u = (u0 + u1) / 2.0 + (u1 - u0) / 2.0 * x
    r = np.exp(u)
    total += (u1 - u0) / 2.0 * float(
        (w * _sphere_slice(r, N) * np.exp(-2.0 * s * u)).sum()
    )

    xg, wg = np.polynomial.legendre.leggauss(panel_order)
    edges = np.arange(math.pi, r_max + math.pi, math.pi)
    mid = (edges[:-1, None] + edges[1:, None]) / 2.0
    half = (edges[1:, None] - edges[:-1, None]) / 2.0
    r = mid + half * xg
    total += float((half * wg * _sphere_slice_closed(r, N) * r ** (-1 - 2 * s)).sum())

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
    subdivision graded by the max-norm distance of the cell.  The integral
    depends only on the sorted absolute offsets, and callers that need a whole
    lattice pass each sorted offset once (see cell_lattice).
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

    canon = np.sort(np.abs(offsets), axis=1)
    subdiv = _subdiv_for(canon[:, -1])
    vals = np.empty(len(canon))
    for nsub in np.unique(subdiv):
        sel = subdiv == nsub
        zg = canon[sel].astype(float)
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
    return vals


def _sorted_offsets(N: int, K: int) -> np.ndarray:
    """Rows 0 <= z_1 <= ... <= z_N <= K in lexicographic order; the first is the origin."""
    z = np.arange(K + 1)[:, None]
    for _ in range(N - 1):
        last = z[:, -1]
        counts = K + 1 - last
        starts = np.cumsum(counts) - counts
        step = np.arange(counts.sum()) - np.repeat(starts, counts)
        z = np.column_stack([np.repeat(z, counts, axis=0), np.repeat(last, counts) + step])
    return z


def cell_lattice(N: int, K: int, exponent: float, h: float, ball: bool) -> np.ndarray:
    """Cell integrals of |y|^exponent on the offset lattice |z_k| <= K, shape (2K+1,)*N.

    Mirrored cells share one value, so cell_kernel_integrals runs once per
    sorted offset 0 <= z_1 <= ... <= z_N and the values are copied to every
    permutation and sign.  ball=True keeps only offsets with |z| <= K (zero
    beyond); the center entry is 0.
    """
    z = _sorted_offsets(N, K)[1:]
    if ball:
        z = z[(z * z).sum(axis=1) <= K * K]
    vals = cell_kernel_integrals(z, exponent, h)
    orthant = np.zeros((K + 1,) * N)
    for perm in itertools.permutations(range(N)):
        orthant[tuple(z[:, k] for k in perm)] = vals
    mirror = np.abs(np.arange(-K, K + 1))
    return orthant[np.ix_(*[mirror] * N)]


def available_memory() -> int | None:
    """Bytes of memory available to a new allocation, or None where it cannot be read.

    Reads MemAvailable from /proc/meminfo and falls back to the free physical
    pages that os.sysconf reports.
    """
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, AttributeError):
        return None


def _gathered_rows(weights: np.ndarray, index: np.ndarray, out: np.ndarray | None = None):
    """Yield (i0, i1, block): rows i0:i1 of the matrix weights[center + index_i - index_j].

    weights is an offset lattice of odd side length with the zero offset at
    its center; entries are gathered from the flat array at linear offsets
    center + lin_i - lin_j, PAIR_BLOCK_ROWS rows at a time.  Each block is a
    view of out when it is given, and otherwise one reused scratch buffer.
    """
    shape = weights.shape
    W = weights.reshape(-1)
    lin = np.ravel_multi_index(index.T, shape)
    center = np.ravel_multi_index(tuple(k // 2 for k in shape), shape)
    n = len(lin)
    scratch = np.empty((min(PAIR_BLOCK_ROWS, n), n)) if out is None else None
    for i0 in range(0, n, PAIR_BLOCK_ROWS):
        i1 = min(i0 + PAIR_BLOCK_ROWS, n)
        block = out[i0:i1] if out is not None else scratch[: i1 - i0]
        np.take(W, (center + lin[i0:i1, None]) - lin[None, :], out=block)
        yield i0, i1, block


def lattice_gather(weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Dense matrix with entries weights[center + index_i - index_j].

    This is where every I x I array of the package is allocated.  It first
    estimates the array's 8 I^2 bytes and raises ConfigurationError, naming
    the estimate, when that exceeds the memory available.
    """
    n = len(index)
    need = 8 * n * n
    avail = available_memory()
    if avail is not None and need > avail:
        raise ConfigurationError(
            f"a dense {n} x {n} float64 array needs {need / 2**20:.1f} MB, "
            f"but only {avail / 2**20:.1f} MB of memory is available; use fewer nodes"
        )
    out = np.empty((n, n))
    for _ in _gathered_rows(weights, index, out):
        pass
    return out


def lattice_row_sums(weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row sums of lattice_gather(weights, index) with its diagonal zeroed.

    Sums one row block at a time, so no I x I array is allocated; each row is
    summed as a contiguous row of the full matrix would be, so the sums equal
    the full matrix's row sums bit for bit.
    """
    sums = np.empty(len(index))
    for i0, i1, block in _gathered_rows(weights, index):
        rows = np.arange(i1 - i0)
        block[rows, rows + i0] = 0.0
        block.sum(axis=1, out=sums[i0:i1])
    return sums


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
    interior node, already including the analytic tail.  The table refers to
    its domain weakly; once the domain is gone, reading domain raises
    ParameterError.
    """

    _domain: weakref.ref = field(repr=False)
    sigma: float
    cutoff_radius: float
    lattice_radius: int
    weights: np.ndarray
    total_weight: float
    tail: float
    norm_const: float | None
    kappa: np.ndarray
    shape_hash: str

    @property
    def domain(self) -> GridDomain:
        domain = self._domain()
        if domain is None:
            raise ParameterError("the domain of this kernel table no longer exists")
        return domain

    def origin_moment(self, p: float) -> float:
        """Integral of |z|^{p-N-sigma} over the origin cell (requires p > sigma)."""
        return origin_cell_moment(self.domain.h, self.domain.dimension, p - self.domain.dimension - self.sigma)


def _make_table(
    domain: GridDomain, sigma: float, M: int, W: np.ndarray, kappa: np.ndarray | None = None
) -> KernelTable:
    """Complete a weight lattice with the tail, normalization and exterior mass.

    kappa is computed from the pair row sums, block by block without an
    I x I array, unless given (a cache load); it must be positive either way.
    """
    N = domain.dimension
    total = float(W.sum())
    table = KernelTable(
        _domain=weakref.ref(domain),
        sigma=float(sigma),
        cutoff_radius=domain.cutoff_radius,
        lattice_radius=M,
        weights=W,
        total_weight=total,
        tail=sphere_area(N - 1) * ((M + 0.5) * domain.h) ** (-sigma) / sigma,
        norm_const=normalization_constant(N, sigma / 2.0) if sigma < 2.0 else None,
        kappa=np.empty(0),
        shape_hash=domain.shape_hash(),
    )
    if kappa is None:
        kappa = total + table.tail - lattice_row_sums(W, domain.interior_index)
    table.kappa = kappa
    if not np.all(table.kappa > 0):
        raise ConfigurationError("exterior mass kappa must be positive on a bounded domain")
    return table


def _check_order(N: int, sigma: float, allow_high_order: bool) -> None:
    if not 0.0 < sigma < (N + 2.0 if allow_high_order else 2.0):
        cap = "N+2" if allow_high_order else "2"
        raise ParameterError(f"kernel order sigma must lie in (0,{cap}), got {sigma}")


def build_kernel_table(domain: GridDomain, sigma: float, allow_high_order: bool = False) -> KernelTable:
    """Build the weight table of order sigma (kernel exponent N + sigma) at the domain's cutoff.

    sigma must lie in (0,2) for operator use; seminorm machinery may pass
    allow_high_order=True to reach orders up to N+2 (no normalization then).
    """
    N = domain.dimension
    _check_order(N, sigma, allow_high_order)
    M = int(math.floor(domain.cutoff_radius / domain.h))
    W = cell_lattice(N, M, -(N + sigma), domain.h, ball=True)
    return _make_table(domain, sigma, M, W)


# the tables of each live domain by order; an entry goes when its domain does
_MEMO: weakref.WeakKeyDictionary[GridDomain, dict] = weakref.WeakKeyDictionary()


def get_table(domain: GridDomain, sigma: float, allow_high_order: bool = False) -> KernelTable:
    """The table of order sigma on domain: memoized, then disk-cached, then built.

    Tables are immutable once built, so each order is built once per domain,
    at the domain's cutoff radius.  When FRACLAB_CACHE_DIR is set, a table
    missing from the memo is loaded from that directory, or built and saved
    there; a cache file that fails its checks is rebuilt with a warning.  The order is checked before
    the cache is read, so a high-order file never serves a call that did not
    allow high orders.
    """
    _check_order(domain.dimension, sigma, allow_high_order)
    key = round(float(sigma), 14)
    memo = _MEMO.setdefault(domain, {})
    table = memo.get(key)
    if table is not None:
        return table
    cache_dir = os.environ.get("FRACLAB_CACHE_DIR")
    path = None
    if cache_dir:
        name = f"{domain.shape_hash()[:16]}_{float(sigma)!r}_{domain.cutoff_radius!r}_{domain.nodes_per_axis}.flkt"
        path = Path(cache_dir) / name
    if path is not None and path.exists():
        try:
            table = load_kernel_table(path, domain, sigma)
        except CacheMismatch as exc:
            print(f"warning: rebuilding kernel cache {path} ({exc})", file=sys.stderr)
    if table is None:
        table = build_kernel_table(domain, sigma, allow_high_order)
        if path is not None:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                save_kernel_table(table, path)
            except OSError as exc:
                print(f"warning: could not write kernel cache {path} ({exc})", file=sys.stderr)
    memo[key] = table
    return table


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------


class CacheMismatch(ValueError):
    """Cache file is corrupted, has a wrong version, or keys a different table."""


_HEADER = struct.Struct("<4sIIIdddII64s32s")


def _payload_digest(W: np.ndarray, kappa: np.ndarray) -> bytes:
    """sha256 of the little-endian payload bytes (both arrays are contiguous)."""
    digest = hashlib.sha256(W)
    digest.update(kappa)
    return digest.digest()


def save_kernel_table(table: KernelTable, path) -> None:
    """Write the table in the binary cache format (bit-exact round trip).

    The file is written under a temporary name in the same directory and then
    renamed, so a reader never sees a partly written table.
    """
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
        _payload_digest(W, kap),
    )
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(memoryview(W).cast("B"))
            fh.write(memoryview(kap).cast("B"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_kernel_table(path, domain: GridDomain, sigma: float) -> KernelTable:
    """Load a cached table; raises CacheMismatch unless all key fields and the payload digest agree."""
    R = domain.cutoff_radius
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
            if len(raw) != _HEADER.size:
                raise CacheMismatch("truncated header")
            (magic, version, N, n_axis, sig, h, Rfile, M, n_int, shash, digest) = _HEADER.unpack(raw)
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
                and M == math.floor(R / h)
                and n_int == domain.interior_count
                and shash.decode() == domain.shape_hash()
            )
            if not key_ok:
                raise CacheMismatch("key fields do not match this domain/order")
            W = np.empty((2 * M + 1,) * N, dtype="<f8")
            kap = np.empty(n_int, dtype="<f8")
            if fh.readinto(W) != W.nbytes or fh.readinto(kap) != kap.nbytes:
                raise CacheMismatch("truncated payload")
    except OSError as exc:
        raise CacheMismatch(f"unreadable cache file: {exc}") from exc
    if _payload_digest(W, kap) != digest:
        raise CacheMismatch("payload sha256 does not match the header")

    try:
        return _make_table(domain, sigma, M, W, kap)
    except ConfigurationError as exc:
        raise CacheMismatch(str(exc)) from exc
