"""Discrete nonlocal operators sharing one kernel table per (domain, order).

All operators act on exterior-zero grid functions and return the same, and
each takes its table from kernels.get_table by order, at the cutoff radius
of the domain.  The one signed operator, apply_frac_laplacian, is a product
with its real symbol on the FFT box (KernelTable.symbol, computed once per
table), the one path that poisson.StiffnessOperator uses too; (-Delta)^{t/2}
is apply_frac_laplacian at s = t/2.  kernels._symbol writes the symbol's
rows, whose origin cell is the stride-2 coupling of kernels._stride_coupling.  The
squared gradient  D_s^2(u) = (a/2) int |u(x)-u(y)|^2 |x-y|^-(N+2s) dy, its
q-th power generalization B_s^q and the Gagliardo sums take their absolutely
integrable origin cell from _local_term, |grad_h u|^p times
KernelTable.local_moment(p), the coefficient that the stride-2 coupling reads
at p = 2.  So the energy identity

    <A u, u>_h = (a/2) * gagliardo_double_sum(u, 2, s, D_omega)

holds to machine precision for every u whose central differences vanish at
the exterior nodes (kernels._stride_coupling).  B_s^q and the
Gagliardo sums read their per-node terms from one function,
_d_omega_integrand: the pair sums, the kappa block and the origin cell.

The interior pair-weight matrix P is never formed: its entries depend on the
node offset only.  D_s^2 and the Riesz gradient are FFT correlations with
weights on the offsets |z_k| <= n-1 (the table's crop), and the transforms of
the crop and of the Riesz kernels are kept on the table as well
(KernelTable.spectrum, KernelTable.riesz_spectrum).  The p-power pair sums
(B_s^q, Gagliardo) gather row slabs of P from that crop, pairs once each.
From PAIR_THREAD_MIN ordered pairs up, the slabs run on as many threads as
there are usable CPUs; the calling thread adds their sums in slab order, so
every core count gives the bits of one thread.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from .errors import check_range, check_unit_interval
from .grids import GridFunction
from .kernels import KernelTable, _box_product, get_table, normalization_constant

__all__ = [
    "central_gradient",
    "apply_frac_laplacian",
    "apply_D_s2",
    "apply_B_sq",
    "apply_riesz_gradient",
    "pair_power_sum",
]

# rows per slab of the pair sums: each thread holds two PAIR_BLOCK_ROWS x I
# float64 buffers (0.6 MB each at I = 2472, 8.6 MB at I = 33552)
PAIR_BLOCK_ROWS = 32
# ordered pairs I^2 below which the slabs run on the calling thread; a pool
# costs more than it saves there (I of about 1000 on two cores)
PAIR_THREAD_MIN = 1 << 20


def central_gradient(u: GridFunction) -> np.ndarray:
    """Central-difference gradient at interior nodes, shape (interior_count, N).

    Exterior neighbors contribute their value 0, consistent with the
    exterior-zero condition.
    """
    dom = u.domain
    full = u.values
    # np.roll wraps round only into the outermost layer, which GridDomain keeps
    # exterior: the wrapped entries are exterior zeros, and no interior node reads them
    return np.stack(
        [
            ((np.roll(full, -1, k) - np.roll(full, 1, k)) / (2.0 * dom.h))[dom.interior_mask]
            for k in range(dom.dimension)
        ],
        axis=1,
    )


def apply_frac_laplacian(u: GridFunction, s: float) -> GridFunction:
    """(-Delta)^s u in symmetrized second-difference form (kernel order 2s); (-Delta)^{t/2} is s = t/2."""
    check_unit_interval("s", s)
    return u.domain.from_interior(_box_product(u.values, get_table(u.domain, 2.0 * s).symbol, u.domain))


def _usable_cpus() -> int:
    """The CPUs this process may run on: how many threads a pair sum or the Monte-Carlo oracle computes on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def pair_power_sum(table: KernelTable, ui: np.ndarray, p: float) -> np.ndarray:
    """sum_j |u_i - u_j|^p w_ij over interior j.

    The weights are exactly symmetric, so each unordered pair is evaluated
    once: row slabs (i0:i1, i0:) sweep the upper triangle and gather their
    weights from the crop.  The slabs run on up to _usable_cpus() threads,
    the calling thread among them (on it alone below PAIR_THREAD_MIN ordered
    pairs), and the calling thread adds each slab's row sums to the slab's
    nodes and its column sums to the partner nodes in slab order, so the
    bits do not depend on the thread count.
    """
    crop = table.weights
    lin = np.ravel_multi_index(table.domain.interior_index.T, crop.shape)
    crop, n = crop.ravel(), len(lin)
    centred = crop.size // 2 + lin
    below = np.tri(PAIR_BLOCK_ROWS, k=-1, dtype=bool)
    starts = range(0, n, PAIR_BLOCK_ROWS)
    workers = min(_usable_cpus(), len(starts)) if n * n >= PAIR_THREAD_MIN else 1
    size = min(PAIR_BLOCK_ROWS, n) * n
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put((np.empty(size), np.empty(size)))

    def slab(i0: int) -> tuple[np.ndarray, np.ndarray]:
        wbuf, buf = buffers.get()
        i1 = min(i0 + PAIR_BLOCK_ROWS, n)
        shape = (i1 - i0, n - i0)
        m = shape[0] * shape[1]
        # buf holds the offset indices until take has read them, then the differences
        at = np.subtract(centred[i0:i1, None], lin[None, i0:], out=buf[:m].view(np.intp).reshape(shape))
        # every index is in range; mode="clip" lets take fill w without a buffer
        w = np.take(crop, at, out=wbuf[:m].reshape(shape), mode="clip")
        diff = np.subtract(ui[i0:i1, None], ui[None, i0:], out=buf[:m].reshape(shape))
        np.abs(diff, out=diff)
        diff **= p
        diff *= w
        # the diagonal block holds its pairs twice; keep the upper copy
        diff[:, : i1 - i0][below[: i1 - i0, : i1 - i0]] = 0.0
        sums = diff.sum(axis=1), diff.sum(axis=0)
        buffers.put((wbuf, buf))
        return sums

    out = np.zeros(n)
    # the calling thread computes every workers-th slab and a pool the others,
    # so no more threads compute than there are usable CPUs
    with ThreadPoolExecutor(max_workers=workers - 1) if workers > 1 else nullcontext() as pool:
        theirs = {i0: pool.submit(slab, i0) for k, i0 in enumerate(starts) if k % workers}
        for i0 in starts:
            rows, cols = theirs.pop(i0).result() if i0 in theirs else slab(i0)
            out[i0 : i0 + len(rows)] += rows
            out[i0:] += cols
    return out


def _local_term(u: GridFunction, table: KernelTable, p: float) -> np.ndarray:
    """|grad_h u_i|^p * local_moment(p) at every interior node: the origin cell of the p-power pair sum."""
    return ((central_gradient(u) ** 2).sum(axis=1)) ** (p / 2.0) * table.local_moment(p)


def apply_D_s2(u: GridFunction, s: float) -> GridFunction:
    """Nonlocal gradient square D_s^2(u); nonnegative at every node."""
    check_unit_interval("s", s)
    table = get_table(u.domain, 2.0 * s)
    ui = u.interior
    Pu, Pu2 = _box_product(np.stack([u.values, u.values**2]), table.spectrum, u.domain)
    pair = ui**2 * (table.total_weight + table.tail) - 2.0 * ui * Pu + Pu2
    out = 0.5 * table.norm_const * (pair + _local_term(u, table, 2.0))
    return u.domain.from_interior(np.maximum(out, 0.0))


def _d_omega_integrand(u: GridFunction, table: KernelTable, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-node terms of the p-power pair sum over D_Omega with the table's weights.

    Returns sum_j |u_i - u_j|^p w_ij over interior j, the exterior block
    |u_i|^p kappa_i and the origin cell _local_term: the one
    integrand of B_s^q and of the Gagliardo sums.
    """
    ui = u.interior
    return pair_power_sum(table, ui, p), np.abs(ui) ** p * table.kappa, _local_term(u, table, p)


def apply_B_sq(u: GridFunction, s: float, q: float) -> GridFunction:
    """q-th root nonlocal gradient B_s^q(u); reduces to sqrt(D_s^2) at q = 2.

    Uses the kernel of order s*q (exponent N + s*q), in the range of every
    table (kernels.build_kernel_table), and the normalization a_{N,s}.
    """
    check_unit_interval("s", s)
    check_range("q", q, 1.0)
    pairs, exterior, origin = _d_omega_integrand(u, get_table(u.domain, s * q), q)
    norm = normalization_constant(u.domain.dimension, s)
    out = (norm / q * (pairs + exterior + origin)) ** (1.0 / q)
    return u.domain.from_interior(out)


def apply_riesz_gradient(u: GridFunction, s: float) -> np.ndarray:
    """Riesz fractional gradient: N columns of values at interior nodes.

    Component k at node i is  sum_j (u_i - u_j) ((x_i - x_j)_k/|x_i - x_j|) w_ij
    with the zero exterior contribution folded in and the analytic far tail
    dropped by odd symmetry (kernel order sigma = s).  The u_i term vanishes by
    the same symmetry, leaving  sum_j K_k(z_j - z_i) u_j  with the odd kernel
    K_k(z) = z_k/|z| w_z.  That is a lattice correlation of the exterior-zero
    grid function with K_k cropped to offsets |z_k| <= n-1, evaluated by FFT
    with the transform of the N kernels that the table keeps.
    """
    check_unit_interval("s", s)
    return _box_product(u.values, get_table(u.domain, s).riesz_spectrum, u.domain).T
