"""Copula-based dependence estimation for competing-risks durations.

Simulates dependent competing-risks data with Weibull margins, estimates
the conditional joint survival surface and its covariate derivatives with
product kernels, and recovers the Archimedean copula parameter from the
surface's curvature ratio using a covariate exclusion restriction.
"""

from .copula import (
    CopulaFamily,
    CopulaModel,
    NoRootError,
    ThetaSolution,
    check_ordering_condition,
    kendalls_tau,
    theta_for_tau,
    theta_from_ratio,
)
from .data import Sample, read_dataset_csv, write_dataset_csv
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
    theta_series,
)
from .kernel import KernelSpec, SurfaceEstimate, estimate_surface_grid

__version__ = "0.4.0"

__all__ = [
    "AllPointsExcludedError",
    "CopulaFamily",
    "CopulaModel",
    "DgpConfig",
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
    "kendalls_tau",
    "monte_carlo",
    "oracle_surface",
    "read_dataset_csv",
    "simulate",
    "simulate_latent",
    "solve_surface",
    "theta_for_tau",
    "theta_from_ratio",
    "theta_series",
    "write_dataset_csv",
    "__version__",
]
