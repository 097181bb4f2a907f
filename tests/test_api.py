"""The package's public names: adding or removing one is a deliberate act."""

import importlib

import coprisk

PUBLIC_NAMES = [
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
    "__version__",
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
]

SUBMODULES = ("copula", "data", "dgp", "estimator", "kernel")


def test_package_exports_exactly_the_public_names():
    assert sorted(coprisk.__all__) == PUBLIC_NAMES
    assert len(set(coprisk.__all__)) == len(coprisk.__all__)


def test_copula_families_are_exactly_the_three_with_a_parameter():
    assert [f.value for f in coprisk.CopulaFamily] == ["clayton", "gumbel", "frank"]


def test_every_name_in_every_all_resolves():
    modules = [coprisk, *(importlib.import_module(f"coprisk.{name}") for name in SUBMODULES)]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
