"""Copula-based dependence estimation for competing-risks durations.

Simulates dependent competing-risks data with Weibull margins, estimates
the conditional joint survival surface and its covariate derivatives with
product kernels, and recovers the Archimedean copula parameter from the
surface's curvature ratio using a covariate exclusion restriction.
"""

from .copula import (
    CopulaFamily,
    CopulaModel,
    GeneratorValue,
    NoRootError,
    ThetaSolution,
    check_ordering_condition,
    generator,
    joint_survival,
    kendalls_tau,
    phi_log_deriv_ratio,
    theta_for_tau,
    theta_from_ratio,
)
from .data import (
    Sample,
    read_dataset_csv,
    write_dataset_csv,
    write_mc_replicates_csv,
    write_theta_series_csv,
)
from .dgp import (
    DgpConfig,
    LatentDraws,
    WeibullMarginal,
    conditional_copula_inverse,
    default_config,
    oracle_surface,
    simulate,
    simulate_latent,
)
from .estimator import (
    AllPointsExcludedError,
    GridSpec,
    McSummary,
    ThetaSeries,
    monte_carlo,
    solve_surface,
    summarize_replicates,
    theta_series,
    trim_series,
)
from .kernel import EmptyNeighborhoodError, KernelSpec, SurfaceEstimate, estimate_surface_grid

__version__ = "0.3.0"

__all__ = [
    "AllPointsExcludedError",
    "CopulaFamily",
    "CopulaModel",
    "DgpConfig",
    "EmptyNeighborhoodError",
    "GeneratorValue",
    "GridSpec",
    "KernelSpec",
    "LatentDraws",
    "McSummary",
    "NoRootError",
    "Sample",
    "SurfaceEstimate",
    "ThetaSeries",
    "ThetaSolution",
    "WeibullMarginal",
    "check_ordering_condition",
    "conditional_copula_inverse",
    "default_config",
    "estimate_surface_grid",
    "generator",
    "joint_survival",
    "kendalls_tau",
    "monte_carlo",
    "oracle_surface",
    "phi_log_deriv_ratio",
    "read_dataset_csv",
    "simulate",
    "simulate_latent",
    "solve_surface",
    "summarize_replicates",
    "theta_for_tau",
    "theta_from_ratio",
    "theta_series",
    "trim_series",
    "write_dataset_csv",
    "write_mc_replicates_csv",
    "write_theta_series_csv",
    "__version__",
]
