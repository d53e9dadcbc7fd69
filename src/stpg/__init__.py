"""Space-time Petrov-Galerkin solver for parabolic problems with random
coefficients, with a numerical verification harness for its stability
constants, norm equivalences, quasi-optimality bounds and moment
estimates."""

from .constants import (
    ConstantsReport,
    cfl_adjusted_infsup_bound,
    cfl_constant,
    cfl_omega,
    discrete_infsup,
    quasi_opt_ratio,
    theoretical_constants,
    weighted_cfl,
)
from .fem import Mesh, SpatialPair, assemble, build_mesh, dual_norm
from .oracle import (
    ModeSolution,
    dense_infsup,
    exact_error,
    exact_mode_profile,
    projection_stability,
    semidiscrete_reference,
    validate_mode_profile,
)
from .solver import (
    Discretization,
    PathwiseSolveError,
    TimeGrid,
    assemble_full_system,
    assemble_load,
    best_approximation,
    build_grams,
    evaluate_norm,
    forcing_dual_norm_sq,
    mode_blocks,
    solve_pathwise,
    trial_energy_norm,
)
from .stochastic import (
    CoefficientModel,
    MomentExponents,
    ParameterDomain,
    classify_trend,
    lp_norm,
    moment_exponents,
    predict_max_moment,
    predict_pbar,
    quadrature,
    singular_example_moments,
)

__version__ = "0.1.0"
