"""fraclab: a desk-scale laboratory for fractional Laplacian problems.

Grids, cell-averaged hypersingular kernel tables, nonlocal operators,
Gagliardo/Hardy functionals, a matrix-free fractional Poisson solver, a Picard
fixed-point driver with closed-form smallness thresholds, exact-arithmetic
regularity exponent tables and non-existence certificates, plus the
`fraclab` batch CLI.
"""

from .errors import (
    ConfigurationError,
    ConsistencyError,
    FraclabError,
    HypothesisViolation,
    ParameterError,
    QuadratureError,
)
from .grids import (
    Annulus,
    Ball,
    Box,
    GridDomain,
    GridFunction,
    build_domain,
    integrate,
    lp_norm,
    sample,
)
from .kernels import (
    KernelTable,
    get_table,
    normalization_constant,
    normalization_constant_quadrature,
    sphere_area,
)
from .operators import (
    apply_B_sq,
    apply_D_s2,
    apply_frac_laplacian,
    apply_riesz_gradient,
    central_gradient,
)
from .seminorms import (
    HardyResult,
    ball_membership,
    gagliardo_double_sum,
    hardy_constant,
    hardy_constant_mc,
    hardy_ratio,
)
from .poisson import (
    StiffnessOperator,
    assemble,
    solve_poisson,
)
from .fixedpoint import (
    IterationConfig,
    IterationReport,
    ProblemSpec,
    ThresholdConstants,
    lemma_g_root,
    lemma_g_value,
    manufacture_forcing,
    picard_iterate,
    threshold_from_constants,
)
from .regularity import (
    ExponentRange,
    ProbeReport,
    exponent_range,
    p31_case1_threshold,
    power_law_cell_average,
    regularity_probe,
)
from .nonexistence import (
    Certificate,
    bump_family,
    lambda_star_star,
    optimality_obstruction,
    radial_bump,
)

__version__ = "0.1.0"
