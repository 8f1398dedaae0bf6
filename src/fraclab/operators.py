"""Discrete nonlocal operators sharing one kernel table per (domain, order).

All operators act on exterior-zero grid functions and return the same, and
each takes its table from kernels.get_table by order, at the cutoff radius
of the domain.  With
P the interior pair-weight matrix, kappa the exterior mass and T = total+tail
the full-space weight mass, the signed operators take the form

    (-Delta)^sigma/2-type:   a * [ T u - P u + L0 u ]

where L0 is the origin-cell term: the symmetrized stride-2 second difference
weighted by half the origin moment  I0(2) = int_{cell0} |z|^{2-N-sigma} dz.
L0 is exactly the symmetric operator whose quadratic form matches the
|grad_h u|^2 * I0(2) origin term used by the squared operators and by the
Gagliardo sums, so the energy identity

    <A u, u>_h = (a/2) * gagliardo_double_sum(u, 2, s, D_omega)

holds to machine precision, not just asymptotically.

The squared gradient  D_s^2(u) = (a/2) int |u(x)-u(y)|^2 |x-y|^-(N+2s) dy  and
its q-th power generalization B_s^q use the same tables; their origin cell is
absolutely integrable and approximated by |grad_h u|^{2 or q} * I0(2 or q).
B_s^q and the Gagliardo sums read their per-node terms from one function,
_d_omega_integrand: the pair sums, the kappa block and the origin cell.

P is never formed: its entries depend on the node offset only.  A signed
operator is a product with its real symbol on the FFT box (KernelTable.symbol,
computed once per table), the one path that poisson.StiffnessOperator uses
too; D_s^2, the Riesz gradient and the Riesz potential are FFT correlations
with weights on the offsets |z_k| <= n-1 (the table's crop, or for the Riesz
potential a crop built the same way), and the transforms of the crop and of
the Riesz kernels are kept on the table as well
(KernelTable.spectrum, KernelTable.riesz_spectrum).  The p-power pair sums
(B_s^q, Gagliardo) gather row slabs of P from that crop, pairs once each.
"""

from __future__ import annotations

import numpy as np

from .errors import check_range, check_unit_interval
from .grids import GridFunction
from .kernels import (
    KernelTable,
    _box_product,
    _cell_crop,
    _correlate,
    get_table,
    normalization_constant,
    origin_cell_moment,
)

__all__ = [
    "central_gradient",
    "apply_frac_laplacian",
    "apply_frac_power",
    "apply_D_s2",
    "apply_B_sq",
    "apply_riesz_gradient",
    "riesz_potential",
    "pair_power_sum",
]

# rows per block of every pair-weight loop; a 64 x I float64 block stays in cache
PAIR_BLOCK_ROWS = 64


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


def _signed_apply(u: GridFunction, table: KernelTable) -> GridFunction:
    return u.domain.from_interior(_box_product(u.values, table.symbol, u.domain))


def apply_frac_laplacian(u: GridFunction, s: float) -> GridFunction:
    """(-Delta)^s u in symmetrized second-difference form (kernel order 2s)."""
    check_unit_interval("s", s)
    return _signed_apply(u, get_table(u.domain, 2.0 * s))


def apply_frac_power(u: GridFunction, t: float) -> GridFunction:
    """(-Delta)^{t/2} u: same structure with kernel order t and constant a_{N,t/2}."""
    check_unit_interval("t", t)
    return _signed_apply(u, get_table(u.domain, t))


def _pair_slabs(table: KernelTable):
    """Yield (i0, i1, w): pair weights of slab (i0:i1, i0:), gathered from the crop into one reused buffer."""
    crop = table.weights
    lin = np.ravel_multi_index(table.domain.interior_index.T, crop.shape)
    crop, n = crop.ravel(), len(lin)
    centred = crop.size // 2 + lin
    size = min(PAIR_BLOCK_ROWS, n) * n
    buf, idx = np.empty(size), np.empty(size, dtype=lin.dtype)
    for i0 in range(0, n, PAIR_BLOCK_ROWS):
        i1 = min(i0 + PAIR_BLOCK_ROWS, n)
        shape = (i1 - i0, n - i0)
        at = np.subtract(centred[i0:i1, None], lin[None, i0:], out=idx[: shape[0] * shape[1]].reshape(shape))
        # every index is in range; mode="clip" lets take fill w without a buffer
        yield i0, i1, np.take(crop, at, out=buf[: at.size].reshape(shape), mode="clip")


def pair_power_sum(table: KernelTable, ui: np.ndarray, p: float) -> np.ndarray:
    """sum_j |u_i - u_j|^p w_ij over interior j.

    The weights are exactly symmetric, so each unordered pair is evaluated
    once: row slabs sweep the upper triangle and add their row sums to the
    slab's nodes and their column sums to the partner nodes.
    """
    out = np.zeros(len(ui))
    below = np.tri(PAIR_BLOCK_ROWS, k=-1, dtype=bool)
    buf = np.empty(min(PAIR_BLOCK_ROWS, len(ui)) * len(ui))
    for i0, i1, w in _pair_slabs(table):
        diff = np.subtract(ui[i0:i1, None], ui[None, i0:], out=buf[: w.size].reshape(w.shape))
        np.abs(diff, out=diff)
        diff **= p
        diff *= w
        # the diagonal block holds its pairs twice; keep the upper copy
        diff[:, : i1 - i0][below[: i1 - i0, : i1 - i0]] = 0.0
        out[i0:i1] += diff.sum(axis=1)
        out[i0:] += diff.sum(axis=0)
    return out


def apply_D_s2(u: GridFunction, s: float) -> GridFunction:
    """Nonlocal gradient square D_s^2(u); nonnegative at every node."""
    check_unit_interval("s", s)
    table = get_table(u.domain, 2.0 * s)
    ui = u.interior
    Pu, Pu2 = _box_product(np.stack([u.values, u.values**2]), table.spectrum, u.domain)
    grad = central_gradient(u)
    g2 = (grad**2).sum(axis=1)
    pair = ui**2 * (table.total_weight + table.tail) - 2.0 * ui * Pu + Pu2
    out = 0.5 * table.norm_const * (pair + g2 * table.origin_moment(2.0))
    return u.domain.from_interior(np.maximum(out, 0.0))


def _d_omega_integrand(u: GridFunction, table: KernelTable, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-node terms of the p-power pair sum over D_Omega with the table's weights.

    Returns sum_j |u_i - u_j|^p w_ij over interior j, the exterior block
    |u_i|^p kappa_i and the origin cell |grad_h u_i|^p I0(p): the one
    integrand of B_s^q and of the Gagliardo sums.
    """
    ui = u.interior
    gp = ((central_gradient(u) ** 2).sum(axis=1)) ** (p / 2.0)
    return pair_power_sum(table, ui, p), np.abs(ui) ** p * table.kappa, gp * table.origin_moment(p)


def apply_B_sq(u: GridFunction, s: float, q: float) -> GridFunction:
    """q-th root nonlocal gradient B_s^q(u); reduces to sqrt(D_s^2) at q = 2.

    Uses the kernel of order s*q (exponent N + s*q), so s*q < 2 is required;
    get_table refuses larger orders.
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


def riesz_potential(g: GridFunction, lam: float) -> GridFunction:
    """Riesz potential J_lam(g)(x_i) = sum_j g_j * int_{cell j} |x_i - y|^-lam dy.

    The coincident cell is included; it is integrable since lam < N.  The
    cell integrals depend only on the node offset, so the sum is a correlation
    with the cell integrals on offsets |z_k| <= n-1, a crop built as a
    table's is (kernels._cell_crop).
    """
    dom = g.domain
    check_range("lambda", lam, 0.0, dom.dimension)
    N, K = dom.dimension, dom.nodes_per_axis - 1
    W, _ = _cell_crop(dom, -lam, K, ball=False)
    W[(K,) * N] = origin_cell_moment(dom.h, N, -lam)
    return dom.from_interior(_correlate(g.values, W, dom))
