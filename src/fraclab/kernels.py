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
0 <= z_1 <= ... <= z_N is integrated once (_cell_crop).  The grid reaches
only offsets |z_k| <= n-1, so only those are mirrored, into the crop of side
2n-1 that a table keeps as its weights; the rest enter the total weight
alone, each times the number of offsets it stands for.  The sorted offsets
are generated and integrated in chunks of their largest entry, so the
(2M+1)^N lattice out to M = floor(R/h), or an array of all the sorted
offsets, is never formed.

The per-node exterior mass

    kappa_i = sum of w_z over offsets leaving the interior + tail(R)

turns exterior-zero boundary conditions into a pure diagonal term, so all
operators reduce to interior sums sharing one table.  Identities such as
the energy identity and the Gagliardo decomposition then hold to machine
precision by construction, because every module reads the same weights.

The interior pair weights w(z_i - z_j) depend on the node offset only, so no
I x I array is ever formed: every interior sum that is linear in the data is
one FFT correlation with the crop (_box_product with the crop's _spectrum),
on a periodic box of side next_fast_len(2n-1) that keeps wrapped terms off
the grid.  kappa is such a correlation with the interior indicator,
kappa = total + tail - (crop correlated with 1_interior).  The transform
of the crop (KernelTable.spectrum), the symbol of the signed operators on
that box (KernelTable.symbol) and the transform of the Riesz kernels
(KernelTable.riesz_spectrum) are computed once per table.  The transforms
are numpy.fft's, taken in the passes and scaling of scipy.fft's pocketfft,
so they give its bits (_rfftn, _irfftn).  A build whose
estimated peak (_build_bytes: one chunk of offsets with its quadrature
temporaries, or the crop with the FFT box) exceeds the memory available is
refused before it allocates.

The normalization constant

    a_{N,s} = ( int_{R^N} (1 - cos xi_1) |xi|^-(N+2s) dxi )^-1
            = -2^{2s} Gamma(N/2+s) / ( pi^{N/2} Gamma(-s) )

is provided both in closed form and via direct quadrature of the defining
integral (spherical reduction, log-substitution near 0, pi-length panels with
an analytic remainder), the latter serving as an independent oracle.

get_table is the one way any code reaches a table.  It builds each order
once per domain, in the process that uses it, and memoizes it.  The memo is
keyed weakly by domain and a table holds its domain weakly, so a table serves
its domain without keeping it alive: when the last reference to a domain
goes, its tables go with it, by reference counting alone.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ParameterError, check_range, check_unit_interval
from .grids import GridDomain, _check_memory

__all__ = [
    "normalization_constant",
    "normalization_constant_quadrature",
    "sphere_area",
    "KernelTable",
    "build_kernel_table",
    "get_table",
    "origin_cell_moment",
    "cell_kernel_integrals",
]


def sphere_area(d: int) -> float:
    """Surface measure |S^d| of the unit d-sphere; |S^0| = 2."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def normalization_constant(N: int, s: float) -> float:
    """a_{N,s} = -2^{2s} Gamma(N/2+s) / (pi^{N/2} Gamma(-s)); positive on (0,1)."""
    check_range("N", N, 1, closed=True)
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
    from scipy.special import jv

    nu = N / 2.0 - 1.0
    return sphere_area(N - 1) * (1.0 - math.gamma(N / 2.0) * (2.0 / r) ** nu * jv(nu, r))


NORM_R_MIN = 1e-6
NORM_R_MAX = 400.0
NORM_PANEL_ORDER = 32


def normalization_constant_quadrature(N: int, s: float) -> float:
    """Evaluate a_{N,s} by quadrature of its defining Fourier integral.

    Independent of the Gamma formula: reduces to the radial integral of
    psi_N(r) r^{-1-2s}, handled with a small-r Taylor patch, a log-substituted
    panel on (NORM_R_MIN, pi), pi-length Gauss panels to NORM_R_MAX and the
    exact |S^{N-1}| remainder beyond (the oscillatory remainder is dropped;
    it is O(NORM_R_MAX^{-2s-(N-1)/2})).  The log panel integrates psi_N over
    the sphere; the pi-length panels use its Bessel closed form, all panels
    at once.
    """
    check_unit_interval("s", s)
    SN = sphere_area(N - 1)
    total = SN / (2.0 * N) * NORM_R_MIN ** (2.0 - 2 * s) / (2.0 - 2 * s)

    x, w = np.polynomial.legendre.leggauss(64)
    u0, u1 = math.log(NORM_R_MIN), math.log(math.pi)
    u = (u0 + u1) / 2.0 + (u1 - u0) / 2.0 * x
    r = np.exp(u)
    total += (u1 - u0) / 2.0 * float(
        (w * _sphere_slice(r, N) * np.exp(-2.0 * s * u)).sum()
    )

    xg, wg = np.polynomial.legendre.leggauss(NORM_PANEL_ORDER)
    edges = np.arange(math.pi, NORM_R_MAX + math.pi, math.pi)
    mid = (edges[:-1, None] + edges[1:, None]) / 2.0
    half = (edges[1:, None] - edges[:-1, None]) / 2.0
    r = mid + half * xg
    total += float((half * wg * _sphere_slice_closed(r, N) * r ** (-1 - 2 * s)).sum())

    total += SN * NORM_R_MAX ** (-2.0 * s) / (2.0 * s)
    return 1.0 / total


# ---------------------------------------------------------------------------
# cell integrals
# ---------------------------------------------------------------------------

# (nsub, up): a cell whose max-norm offset lies above the previous up and at most up
# is integrated at nsub^N midpoints
_SUBDIV_SCHEDULE = ((32, 1), (16, 3), (8, 8), (4, 24), (2, np.inf))
# quadrature points per pass of cell_kernel_integrals, which bounds its temporaries
QUAD_POINTS = 2**16


def cell_kernel_integrals(offsets: np.ndarray, exponent: float, h: float) -> np.ndarray:
    """Integrals of |y|^exponent over cells centered at offsets*h.

    offsets has shape (rows, N), and exponent != -1 (a table passes
    -(N+sigma) with sigma > 0, the operator tests' dense Riesz potential
    _dense_riesz_potential -lam with 0 < lam < N).
    Each row of offsets is a sorted absolute offset 0 <= z_1 <= ... <= z_N,
    not the origin (whose cell origin_cell_moment integrates), and is taken
    as given: the integral depends only on that sorted offset, and
    _cell_crop passes each one once, as the offset walk yields it.  1D uses
    exact antiderivatives; higher dimensions use tensor-midpoint subdivision
    graded by the max-norm distance z_N of the cell.

    The cells of one subdivision class are taken in chunks of rows, so that
    a chunk has at most QUAD_POINTS midpoints.  r^2 at the nsub^N midpoints
    of the chunk's cells is one array of shape (nsub, ..., nsub, rows), the
    rows last so that each pass runs along them.  Axis k adds the squares
    ((z_k + o) h)^2 of its nsub midpoint offsets o, computed once per row and
    broadcast along the other axes, to r^2 in axis order: the order in which
    a sum over the N coordinates of each midpoint adds them, so r^2 has the
    bits of that sum, with no array of midpoint coordinates.  r^2 is raised
    to exponent/2 in place, and each cell's midpoints, copied to one
    contiguous row, are summed by numpy's pairwise sum over that row.
    """
    offsets = np.asarray(offsets, dtype=int)
    ndim = offsets.shape[1]
    if ndim == 1:
        z = offsets[:, 0].astype(float)
        lo = (z - 0.5) * h
        hi = (z + 0.5) * h
        e1 = exponent + 1.0
        return (hi**e1 - lo**e1) / e1

    rinf = offsets[:, -1]
    vals = np.empty(len(offsets))
    prev_up = 0
    for nsub, up in _SUBDIV_SCHEDULE:
        idx = np.flatnonzero((rinf > prev_up) & (rinf <= up))
        prev_up = up
        off1 = (np.arange(nsub) + 0.5) / nsub - 0.5
        chunk = max(1, QUAD_POINTS // nsub**ndim)
        for i in range(0, len(idx), chunk):
            rows = idx[i : i + chunk]
            r2 = np.zeros((nsub,) * ndim + (len(rows),))
            for k in range(ndim):
                y = off1[:, None] + offsets[rows, k]
                y *= h
                y *= y
                r2 += y.reshape((1,) * k + (nsub,) + (1,) * (ndim - 1 - k) + (len(rows),))
            r2 **= exponent / 2.0
            vals[rows] = r2.reshape(-1, len(rows)).T.copy().sum(axis=1) * (h / nsub) ** ndim
    return vals


# sorted offsets per cell_kernel_integrals call; a chunk takes whole layers of
# one largest coordinate, so it exceeds this only when one layer does
OFFSET_CHUNK_ROWS = 2**14


def _ends(N: int, K: int) -> np.ndarray:
    """comb(m + N - 1, N) for m = 0..K+1: how many of the sorted offsets have z_N < m."""
    m = np.arange(K + 2)
    ends = np.ones(K + 2, dtype=int)
    for k in range(1, N + 1):
        ends = ends * (m - 1 + k) // k
    return ends


def _layers(prefixes: np.ndarray, ends: np.ndarray, m0: int, m1: int, room: np.ndarray | None = None) -> np.ndarray:
    """The sorted offsets with m0 <= z_N < m1, from the (N-1)-row sorted offsets and _ends(N, .).

    Layer m appends m to the first ends[m+1] - ends[m] prefixes, those with
    largest entry <= m.  A room per prefix keeps only the offsets whose
    appended m has m^2 <= room, before any offset is formed.
    """
    sizes = np.diff(ends[m0 : m1 + 1])
    m = np.repeat(np.arange(m0, m1), sizes)
    # the row of each offset among its layer's prefixes
    idx = np.arange(len(m)) - np.repeat(ends[m0:m1] - ends[m0], sizes)
    if room is not None:
        keep = m * m <= room[idx]
        m, idx = m[keep], idx[keep]
    return np.column_stack([prefixes[idx], m])


def _sorted_offsets(N: int, K: int) -> np.ndarray:
    """Rows 0 <= z_1 <= ... <= z_N <= K, ordered by z_N and within it in this order.

    The first row is the origin, and the rows with z_N < m are the first comb(m + N - 1, N).
    """
    z = np.zeros((1, 0), dtype=int)
    for d in range(1, N + 1):
        z = _layers(z, _ends(d, K), 0, K + 1)
    return z


def _offset_chunks(N: int, M: int):
    """Yield the sorted offsets 0 < |z| <= M, 0 <= z_1 <= ... <= z_N, in _sorted_offsets order, by chunks.

    A chunk is a run of whole layers of z_N that spans at most
    OFFSET_CHUNK_ROWS rows before the |z| <= M filter, or one larger layer,
    so only the (N-1)-row prefixes and one chunk are alive at a time.
    """
    prefixes, ends = _sorted_offsets(N - 1, M), _ends(N, M)
    # |z|^2 <= M^2 leaves each prefix M^2 - |prefix|^2 for the square of its last entry
    room = M * M - (prefixes * prefixes).sum(axis=1)
    m0 = 1
    while m0 <= M:
        m1 = max(m0 + 1, int(np.searchsorted(ends, ends[m0] + OFFSET_CHUNK_ROWS, side="right")) - 1)
        yield _layers(prefixes, ends, m0, m1, room)
        m0 = m1


def _multiplicity(z: np.ndarray) -> np.ndarray:
    """How many lattice offsets each sorted offset stands for: its distinct permutations times 2^(nonzero entries)."""
    N = z.shape[1]
    # N! over the product of the factorials of the lengths of the runs of equal entries
    run, repeats = np.ones(len(z)), np.ones(len(z))
    for k in range(1, N):
        run = np.where(z[:, k] == z[:, k - 1], run + 1.0, 1.0)
        repeats *= run
    return math.factorial(N) / repeats * 2.0 ** np.count_nonzero(z, axis=1)


def _build_bytes(N: int, n: int, M: int) -> int:
    """An upper estimate of the peak bytes of _cell_crop and of one FFT correlation with its crop.

    The offset walk holds the orthant of side n, two arrays over the layers,
    the comb(M + N - 1, N - 1) prefixes of _offset_chunks and the arrays of
    chunks of R rows.  It peaks either in _layers, which builds a chunk while
    the last one and its values are held and the mirroring copies them, at
    (3N + 6) R words, or in cell_kernel_integrals, which holds the chunk,
    class masks, row indices and values and the last chunk's values,
    (N + 4) R words, beside r^2 at QUAD_POINTS points, its
    transposed copy and the squares of the last axis (QUAD_POINTS / 2^(N-1)).
    A chunk exceeds OFFSET_CHUNK_ROWS only by one layer, and no layer has more
    rows than there are prefixes.  The FFT correlation holds the crop, two
    grid arrays and four half spectra of the box.  2^16 words more cover the
    small allocations.
    """
    prefixes = math.comb(M + N - 1, N - 1)
    R = min(max(OFFSET_CHUNK_ROWS, prefixes), math.comb(M + N, N) - 1)
    quad = 2 * QUAD_POINTS + 2 * QUAD_POINTS // 2**N if N > 1 else 0
    walk = n**N + 2 * (M + 2) + N * prefixes + max((3 * N + 6) * R, (N + 4) * R + quad)
    L = _next_fast_len(2 * n - 1)
    fft = (2 * n - 1) ** N + 2 * n**N + 8 * L ** (N - 1) * (L // 2 + 1)
    return 8 * (max(walk, fft) + 2**16)


def _cell_crop(domain: GridDomain, exponent: float, M: int) -> tuple[np.ndarray, float]:
    """Cell integrals of |y|^exponent on the offsets |z| <= M with |z_k| <= n-1, and their sum over every |z| <= M.

    The crop has shape (2n-1,)*N with the zero offset at the center, where it
    is 0.  Mirrored cells share one value, so cell_kernel_integrals runs once
    per sorted offset 0 <= z_1 <= ... <= z_N with |z| <= M, chunk by chunk
    (_offset_chunks), and only those with z_N <= n-1 are mirrored into the
    crop.  The sum counts each sorted offset with its multiplicity; it is
    summed layer by layer of z_N, so it does not depend on the chunks.

    The estimate of the peak (_build_bytes) is made first, and one larger than
    the memory available is a ConfigurationError that names it.
    """
    N, K = domain.dimension, domain.nodes_per_axis - 1
    _check_memory(
        _build_bytes(N, K + 1, M),
        f"the {N}D kernel table at n = {K + 1}, lattice radius {M},",
        "use fewer nodes or a smaller cutoff_factor",
    )
    orthant = np.zeros((K + 1,) * N)
    layer_sums = np.zeros(M + 1)
    for z in _offset_chunks(N, M):
        vals = cell_kernel_integrals(z, exponent, domain.h)
        near = np.searchsorted(z[:, -1], K, side="right")
        for perm in itertools.permutations(range(N)):
            orthant[tuple(z[:near, k] for k in perm)] = vals[:near]
        starts = np.flatnonzero(np.diff(z[:, -1], prepend=0))
        layer_sums[z[starts, -1]] = np.add.reduceat(vals * _multiplicity(z), starts)
    mirror = np.abs(np.arange(-K, K + 1))
    return orthant[np.ix_(*[mirror] * N)], float(layer_sums.sum())


def origin_cell_moment(h: float, N: int, power: float) -> float:
    """Integral of |z|^power over the origin cell [-h/2, h/2]^N (power > -N)."""
    check_range("power", power, -N)
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

    weights holds the offsets the grid reaches, |z_k| <= n-1: an array of
    shape (2n-1,)*N with the zero offset at the center index and value 0
    there.  total_weight is the sum over the whole ball |z| <= lattice_radius
    = floor(R/h), and tail the analytic mass beyond it; kappa holds the
    exterior mass of every interior node, already including the tail.  The table refers to
    its domain weakly; once the domain is gone, reading domain raises
    ParameterError.
    """

    _domain: weakref.ref = field(repr=False)
    sigma: float
    lattice_radius: int
    weights: np.ndarray
    total_weight: float
    tail: float
    norm_const: float | None
    kappa: np.ndarray

    @property
    def domain(self) -> GridDomain:
        domain = self._domain()
        if domain is None:
            raise ParameterError("the domain of this kernel table no longer exists")
        return domain

    def local_moment(self, p: float) -> float:
        """The origin-cell coefficient: the integral of |z|^{p-N-sigma} over the origin cell (requires p > sigma)."""
        return origin_cell_moment(self.domain.h, self.domain.dimension, p - self.domain.dimension - self.sigma)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The transform of the crop on the FFT box (_spectrum), computed once per table; read-only."""
        return _read_only(_spectrum(self.weights, self.domain))

    @cached_property
    def symbol(self) -> np.ndarray:
        """The signed operator's symbol on the FFT box (_symbol), computed once per table; read-only."""
        return _read_only(_symbol(self))

    @cached_property
    def riesz_spectrum(self) -> np.ndarray:
        """The N-stack transform of the odd kernels z_k/|z| w_z on the crop, computed once per table; read-only."""
        return _read_only(_riesz_spectrum(self))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _next_fast_len(n: int) -> int:
    """The least 5-smooth integer >= n, as scipy.fft.next_fast_len(n, real=True) gives it."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _rfftn(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """rfftn over the last len(shape) axes, zero-padded to shape.

    The passes are those of scipy's pocketfft: a real transform along the last
    axis, then complex transforms along the leading axes in increasing order.
    """
    out = np.fft.rfft(a, shape[-1], axis=-1)
    for k, L in enumerate(shape[:-1], start=-len(shape)):
        out = np.fft.fft(out, L, axis=k)
    return out


def _irfftn(a: np.ndarray, shape: tuple[int, ...], n: int) -> np.ndarray:
    """The corner [:n] on every axis of irfftn over the last len(shape) axes.

    The passes are those of scipy's pocketfft: complex transforms along the
    leading axes in increasing order, then the real one along the last axis,
    and the 1/prod(shape) scaling last, as a product.  Each line is transformed
    on its own, so a pass that skips the lines outside the corner leaves the
    corner's bits as they are.
    """
    N = len(shape)
    for k in range(N - 1):
        a = np.fft.ifft(a, shape[k], axis=k - N, norm="forward")
        a = a[(Ellipsis, slice(0, n)) + (slice(None),) * (N - 1 - k)]
    return np.fft.irfft(a, shape[-1], axis=-1, norm="forward")[..., :n] * (1.0 / math.prod(shape))


def _box_shape(domain: GridDomain) -> tuple[int, ...]:
    """The periodic FFT box, of side L = _next_fast_len(2n-1) on every axis."""
    return (_next_fast_len(2 * domain.nodes_per_axis - 1),) * domain.dimension


def _spectrum(kernel: np.ndarray, domain: GridDomain) -> np.ndarray:
    """The transform that makes _box_product the correlation with kernel.

    kernel has side 2n-1 with the zero offset at the center; it is mirrored
    and wrapped onto the box with the zero offset at the origin.  Leading stack
    axes are kept.
    """
    N, n = domain.dimension, domain.nodes_per_axis
    shape = _box_shape(domain)
    box = np.zeros(kernel.shape[: kernel.ndim - N] + shape)
    box[(Ellipsis,) + (slice(0, 2 * n - 1),) * N] = kernel[(Ellipsis,) + (slice(None, None, -1),) * N]
    return _rfftn(np.roll(box, 1 - n, axis=tuple(range(-N, 0))), shape)


def _box_product(values: np.ndarray, spectrum: np.ndarray, domain: GridDomain) -> np.ndarray:
    """irfftn(spectrum * rfftn(values)) on the box, at the interior nodes.

    values is an exterior-zero grid array, zero-padded to the box; since the
    box side is at least 2n-1, no wrapped term reaches the grid.  Leading
    stack axes of either argument broadcast.
    """
    shape = _box_shape(domain)
    return _irfftn(spectrum * _rfftn(values, shape), shape, domain.nodes_per_axis)[..., domain.interior_mask]


def _stride_coupling(table: KernelTable) -> float:
    """c = I0(2)/(8 h^2), I0 = local_moment: the weight of each stride-2 neighbour in the origin-cell term.

    That term, c sum_k (2 u_i - u_{i+2e_k} - u_{i-2e_k}), has the quadratic
    form (I0(2)/2) sum_i |grad_h u_i|^2 over every node, exterior ones
    included; operators._local_term at p = 2 is the same sum over the
    interior nodes.
    """
    return table.local_moment(2.0) / (8.0 * table.domain.h**2)


def _diagonal(table: KernelTable) -> float:
    """a (T + 2N c): the coefficient of u_i in the signed operator."""
    return table.norm_const * (table.total_weight + table.tail + 2 * table.domain.dimension * _stride_coupling(table))


def _symbol(table: KernelTable) -> np.ndarray:
    """The signed operator's symbol on the FFT box: a [(T + 2N c) - W^(xi) - 2c sum_k cos 2 xi_k].

    The operator is the correlation with the even kernel
    a [(T + 2N c) delta_0 - w_z - c sum_k (delta_{2e_k} + delta_{-2e_k})], so its
    transform is real.  It is positive, since |W^| <= total < T.
    """
    dom = table.domain
    shape = _box_shape(dom)
    freqs = [np.fft.fftfreq(L) for L in shape[:-1]] + [np.fft.rfftfreq(shape[-1])]
    stride = sum(np.cos(4.0 * np.pi * f) for f in np.meshgrid(*freqs, indexing="ij", sparse=True))
    W = table.spectrum.real
    return _diagonal(table) - table.norm_const * (W + 2.0 * _stride_coupling(table) * stride)


def _riesz_spectrum(table: KernelTable) -> np.ndarray:
    """The transform of K_k(z) = z_k/|z| w_z on the crop, stacked over k = 1..N (see apply_riesz_gradient)."""
    W = table.weights
    z = np.indices(W.shape, dtype=float) - (table.domain.nodes_per_axis - 1)
    r = np.sqrt((z**2).sum(axis=0))
    np.maximum(r, 1e-300, out=r)
    return _spectrum(z / r * W, table.domain)


def build_kernel_table(domain: GridDomain, sigma: float) -> KernelTable:
    """Build the weight table of order sigma (kernel exponent N + sigma) at the domain's cutoff.

    Every table, whatever reads it, has an order sigma in (0, N+2); one of
    order 2 or more carries no normalization (norm_const is None).
    """
    N = domain.dimension
    check_range("kernel order sigma", sigma, 0.0, N + 2.0)
    M = int(math.floor(domain.cutoff_radius / domain.h))
    W, total = _cell_crop(domain, -(N + sigma), M)
    table = KernelTable(
        _domain=weakref.ref(domain),
        sigma=float(sigma),
        lattice_radius=M,
        weights=W,
        total_weight=total,
        tail=sphere_area(N - 1) * ((M + 0.5) * domain.h) ** (-sigma) / sigma,
        norm_const=normalization_constant(N, sigma / 2.0) if sigma < 2.0 else None,
        kappa=np.empty(0),
    )
    # the full-space mass less the pair row sums, one FFT correlation
    table.kappa = total + table.tail - _box_product(domain.interior_mask.astype(float), table.spectrum, domain)
    if not np.all(table.kappa > 0):
        raise ConfigurationError("exterior mass kappa must be positive on a bounded domain")
    return table


# the tables of each live domain by order; an entry goes when its domain does
_MEMO: weakref.WeakKeyDictionary[GridDomain, dict] = weakref.WeakKeyDictionary()


def get_table(domain: GridDomain, sigma: float) -> KernelTable:
    """The table of order sigma on domain, built on first use and memoized.

    Tables are immutable once built, so each order is built once per domain,
    at the domain's cutoff radius, and serves every caller.  An order outside
    the range is refused by build_kernel_table, so the memo never holds one.
    """
    key = round(float(sigma), 14)
    memo = _MEMO.setdefault(domain, {})
    table = memo.get(key)
    if table is None:
        table = memo[key] = build_kernel_table(domain, sigma)
    return table
