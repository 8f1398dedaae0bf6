"""Matrix-free solution of the fractional Poisson problem.

The stiffness operator is the fractional Laplacian on interior nodes, with
the rows that kernels._symbol writes.  Its entries depend on the node offset
only (Toeplitz structure), so it is the restriction to the interior of a
convolution, and StiffnessOperator holds one real array: the symbol of that
convolution on the periodic FFT box of side L = next_fast_len(2n-1).  A v
zero-pads v into the box, multiplies its transform by the symbol and restricts
the result to the interior; apply_frac_laplacian is the same product.  The
same product with the reciprocal symbol is the circulant preconditioner of the
conjugate-gradient solve (R. Chan & M. Ng, SIAM Review 38, 1996).

The operator is symmetric by weight symmetry and an M-matrix: its diagonal
(kernels._diagonal) is positive, its off-diagonal entries -a w_z and -a c
(kernels._stride_coupling) are nonpositive, and its rows are strictly
dominant thanks to kappa_i > 0; hence it is positive definite and obeys a
discrete maximum principle.  assemble checks all three on the table and one
product A 1 (the row sums), in O(I log I); no I x I array is formed anywhere.

The operator is fixed by the domain and the order s, so no caller passes one
in: solve_poisson assembles on the domain of its right-hand side, whose
kernel table is memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ParameterError, check_unit_interval
from .grids import GridDomain, GridFunction
from .kernels import _box_product, _diagonal, get_table

__all__ = [
    "StiffnessOperator",
    "assemble",
    "solve_poisson",
]

RESIDUAL_TOL = 1e-10
# conjugate gradients stop at this relative residual, and fail past this many iterations
PCG_RTOL = 1e-14
PCG_MAX_ITER = 500


def _unit(b: np.ndarray) -> float:
    """The power of two that brings max|b| into [1/2, 1); 1 for b = 0, at most 2^1023 for a subnormal max|b|."""
    return math.ldexp(1.0, min(-math.frexp(float(np.abs(b).max(initial=0.0)))[1], 1023))


@dataclass
class StiffnessOperator:
    """Discrete (-Delta)^s over interior nodes, held as its symbol on the FFT box."""

    domain: GridDomain
    symbol: np.ndarray = field(repr=False)

    def _box_apply(self, symbol: np.ndarray, v: np.ndarray) -> np.ndarray:
        full = np.zeros((self.domain.nodes_per_axis,) * self.domain.dimension)
        full[self.domain.interior_mask] = v
        return _box_product(full, symbol, self.domain)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v, as the fractional Laplacian of the exterior-zero extension of v."""
        return self._box_apply(self.symbol, v)

    def relative_residual(self, v: np.ndarray, b: np.ndarray) -> float:
        """|A v - b| / max(|b|, 1e-300), both norms taken of values scaled by _unit(b)."""
        scale = _unit(b)
        return float(np.linalg.norm(scale * (self.matvec(v) - b))) / max(float(np.linalg.norm(scale * b)), 1e-300)

    def energy(self, u: GridFunction) -> float:
        """<A u, u>_h; equals (a/2) * gagliardo d_omega sum by weight sharing."""
        ui = u.interior
        return float(ui @ self.matvec(ui)) * self.domain.h**self.domain.dimension

    def solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A v = rhs by conjugate gradients, preconditioned with the reciprocal symbol.

        Iterates from 0 until the updated residual is at most PCG_RTOL of
        |rhs|; a solve still above it after PCG_MAX_ITER iterations is a
        ConsistencyError, and a non-finite right-hand side a ParameterError.
        It iterates on rhs scaled by _unit(rhs), so no inner product over- or
        underflows; the scaling is exact, so x keeps the bits of an unscaled
        solve that stays in range.
        """
        rhs = np.asarray(rhs, dtype=float)
        if not np.all(np.isfinite(rhs)):
            raise ParameterError("right-hand side has non-finite entries")
        x = np.zeros_like(rhs)
        if not rhs.any():
            return x
        scale = _unit(rhs)
        r = rhs * scale
        stop = PCG_RTOL * np.linalg.norm(r)
        p, rz = np.zeros_like(rhs), 1.0  # with p = 0 the first direction is z
        inverse_symbol = 1.0 / self.symbol
        for _ in range(PCG_MAX_ITER):
            z = self._box_apply(inverse_symbol, r)
            rz, rz_prev = r @ z, rz
            p = z + (rz / rz_prev) * p
            Ap = self.matvec(p)
            alpha = rz / (p @ Ap)
            x += alpha * p
            r -= alpha * Ap
            if np.linalg.norm(r) <= stop:
                return x / scale
        raise ConsistencyError(
            f"conjugate gradients did not reach a relative residual of {PCG_RTOL} in {PCG_MAX_ITER} iterations"
        )


def assemble(domain: GridDomain, s: float) -> StiffnessOperator:
    """The interior stiffness operator, with its M-matrix structure verified."""
    check_unit_interval("s", s)
    table = get_table(domain, 2.0 * s)
    diag = _diagonal(table)
    if not 0.0 < diag < np.inf:
        raise ConsistencyError("stiffness diagonal must be positive and finite")
    # the off-diagonal entries are -a w_z, for w_z in the crop, and -a c
    if -table.norm_const * table.weights.min() > 1e-14 * diag:
        raise ConsistencyError("stiffness off-diagonal entries must be nonpositive")
    op = StiffnessOperator(domain=domain, symbol=table.symbol)
    # A 1 is the vector of row sums
    if not np.all(op.matvec(np.ones(domain.interior_count)) > 0):
        raise ConsistencyError("stiffness rows must be strictly diagonally dominant")
    return op


def solve_poisson(h: GridFunction, s: float) -> GridFunction:
    """Solve (-Delta)^s v = h in Omega, v = 0 outside, on the domain of h; verifies the residual."""
    solver = assemble(h.domain, s)
    rhs = h.interior
    v = solver.solve_vector(rhs)
    res = solver.relative_residual(v, rhs)
    if res > RESIDUAL_TOL:
        raise ConsistencyError(f"solver residual {res:.3e} exceeds {RESIDUAL_TOL}")
    return solver.domain.from_interior(v)
