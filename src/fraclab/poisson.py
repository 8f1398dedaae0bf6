"""Dense assembly and direct solution of the fractional Poisson problem.

The stiffness matrix is the literal matrix form of the fractional Laplacian
application: row i carries  a * [ (total+tail) delta_ij - w_ij + L0_ij ].  It
is symmetric by weight symmetry and an M-matrix (positive diagonal,
nonpositive off-diagonal, strictly dominant thanks to kappa_i > 0), hence
positive definite; one Cholesky factorization serves every right-hand side of
a Picard run.

The dense path holds one I x I array from assembly to the last solve, so an
8 GB machine reaches about I = 3 * 10^4.  Assembly gathers A straight from the
kernel table's weight lattice and runs its M-matrix checks on A itself.  The
Cholesky factor L overwrites the upper triangle of the C-ordered A in place
(LAPACK dpotrf on its Fortran-ordered transpose).  The products A u behind
apply, energy and the residual checks are apply_frac_laplacian, by FFT, and
never read the array.  The factor is checked for non-finite values once, when
it is formed, through its diagonal; each solve then checks only its
right-hand side, in O(I).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

from .errors import ConsistencyError, ParameterError, check_unit_interval
from .grids import GridDomain, GridFunction, lp_norm
from .kernels import KernelTable, get_table, lattice_gather
from .operators import apply_frac_laplacian
from .seminorms import gagliardo_double_sum

__all__ = [
    "StiffnessOperator",
    "FactorizedSolver",
    "assemble",
    "solve_poisson",
    "solution_operator_continuity",
    "ContinuityReport",
]

RESIDUAL_TOL = 1e-10


@dataclass
class StiffnessOperator:
    """Discrete (-Delta)^s over interior nodes, with its dense symmetric matrix.

    The matrix is readable until the first factorize(), which overwrites its
    upper triangle with the Cholesky factor; matvec, apply and energy apply
    the operator by FFT and never read the matrix.
    """

    domain: GridDomain
    s: float
    table: KernelTable
    _matrix: np.ndarray = field(repr=False)
    # the solver that factorized _matrix, held weakly so the two form no cycle
    _solver: weakref.ref | None = field(default=None, repr=False)

    @property
    def matrix(self) -> np.ndarray:
        if self._solver is not None:
            raise ParameterError("the stiffness matrix was factorized in place; use apply()")
        return self._matrix

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v, as the fractional Laplacian of the exterior-zero extension of v."""
        return apply_frac_laplacian(self.domain.from_interior(v), self.s).interior

    def apply(self, u: GridFunction) -> GridFunction:
        return self.domain.from_interior(self.matvec(u.interior))

    def energy(self, u: GridFunction) -> float:
        """<A u, u>_h; equals (a/2) * gagliardo d_omega sum by weight sharing."""
        ui = u.interior
        return float(ui @ self.matvec(ui)) * self.domain.h**self.domain.dimension

    def factorize(self) -> "FactorizedSolver":
        """The Cholesky solver; factorizes in place once, later calls return the same solver."""
        solver = self._solver() if self._solver is not None else None
        return solver if solver is not None else FactorizedSolver(self)


def assemble(domain: GridDomain, s: float) -> StiffnessOperator:
    """Assemble the interior stiffness matrix and verify its M-matrix structure."""
    check_unit_interval("s", s)
    table = get_table(domain, 2.0 * s)
    a = table.norm_const
    n = domain.interior_count
    A = lattice_gather(table.weights, domain.interior_index)
    np.negative(A, out=A)
    idx = np.arange(n)
    A[idx, idx] = table.total_weight + table.tail

    # origin cell: stride-2 second difference, coefficient I0(2)/(8 h^2) per axis
    c = table.origin_moment(2.0) / (8.0 * domain.h**2)
    pos = np.full((domain.nodes_per_axis,) * domain.dimension, -1, dtype=int)
    pos[domain.interior_mask] = idx
    ij = domain.interior_index
    for k in range(domain.dimension):
        for sign in (1, -1):
            nb = ij.copy()
            nb[:, k] += 2 * sign
            valid = (nb[:, k] >= 0) & (nb[:, k] < domain.nodes_per_axis)
            j = np.full(n, -1, dtype=int)
            j[valid] = pos[tuple(nb[valid].T)]
            hit = j >= 0
            A[idx[hit], j[hit]] -= c
            A[idx, idx] += c
    A *= a

    diag = A.diagonal().copy()
    if not np.all(diag > 0):
        raise ConsistencyError("stiffness diagonal must be positive")
    # mask the diagonal so the maximum runs over the off-diagonal entries only
    np.fill_diagonal(A, -np.inf)
    off_max = A.max()
    np.fill_diagonal(A, diag)
    if off_max > 1e-14 * diag.max():
        raise ConsistencyError("stiffness off-diagonal entries must be nonpositive")
    row_excess = A.sum(axis=1)
    if not np.all(row_excess > 0):
        raise ConsistencyError("stiffness rows must be strictly diagonally dominant")
    return StiffnessOperator(domain=domain, s=s, table=table, _matrix=A)


class FactorizedSolver:
    """Cholesky factorization of a StiffnessOperator, reusable across solves.

    The first solver of an operator factorizes its matrix in place; a solver
    made for an operator already factorized reuses that factor.
    """

    def __init__(self, operator: StiffnessOperator):
        self.operator = operator
        self.domain = operator.domain
        # A is symmetric, so its C-ordered buffer read in Fortran order is A
        # again; dpotrf writes L over that view's lower triangle, which is the
        # upper triangle of the C-ordered array
        self._factor = operator._matrix.T
        first = operator._solver is None
        operator._solver = weakref.ref(self)
        info = dpotrf(self._factor, lower=1, clean=0, overwrite_a=1)[1] if first else 0
        # LAPACK stops at a nonpositive pivot, and a non-finite entry of L
        # makes the diagonal entry of its row non-finite
        d = self._factor.diagonal()
        if info != 0 or not np.all((d > 0) & (d < np.inf)):
            raise ConsistencyError(f"stiffness factorization failed (LAPACK info {info})")

    def solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A v = rhs; a non-finite right-hand side is a ParameterError.

        The factor was checked for non-finite values when it was formed, so
        the I x I factor is not scanned again on every solve.
        """
        rhs = np.asarray(rhs, dtype=float)
        if not np.all(np.isfinite(rhs)):
            raise ParameterError("right-hand side has non-finite entries")
        return cho_solve((self._factor, True), rhs, check_finite=False)


def solve_poisson(solver: FactorizedSolver, h: GridFunction) -> GridFunction:
    """Solve (-Delta)^s v = h in Omega, v = 0 outside; verifies the residual."""
    if h.domain is not solver.domain:
        raise ParameterError("right-hand side lives on a different domain")
    rhs = h.interior
    v = solver.solve_vector(rhs)
    res = np.linalg.norm(solver.operator.matvec(v) - rhs)
    scale = np.linalg.norm(rhs)
    if scale > 0 and res > RESIDUAL_TOL * scale:
        raise ConsistencyError(f"solver residual {res / scale:.3e} exceeds {RESIDUAL_TOL}")
    return solver.domain.from_interior(v)


@dataclass
class ContinuityReport:
    """Seminorm gaps of S(h_n) against S(h_limit) for a data sequence."""

    p_values: tuple[float, ...]
    data_l1_gaps: list[float]
    seminorm_gaps: list[dict[float, float]]


def solution_operator_continuity(
    solver: FactorizedSolver,
    h_sequence: list[GridFunction],
    h_limit: GridFunction,
    p_values: tuple[float, ...] | None = None,
) -> ContinuityReport:
    """Diagnostic: W-seminorm convergence of solutions under L^1 data convergence."""
    dom = solver.domain
    N, s = dom.dimension, solver.operator.s
    if p_values is None:
        p_cap = N / (N - s)
        p_values = (1.0, 0.5 * (1.0 + p_cap))
    for p in p_values:
        if p >= N / (N - s):
            raise ParameterError(f"sampled p must satisfy p < N/(N-s) = {N / (N - s):.4g}")
    v_limit = solve_poisson(solver, h_limit)
    gaps = []
    data_gaps = []
    for h_n in h_sequence:
        v_n = solve_poisson(solver, h_n)
        diff = v_n - v_limit
        data_gaps.append(lp_norm(h_n - h_limit, 1.0))
        gaps.append({p: gagliardo_double_sum(diff, p, s, "d_omega") for p in p_values})
    return ContinuityReport(p_values=tuple(p_values), data_l1_gaps=data_gaps, seminorm_gaps=gaps)
