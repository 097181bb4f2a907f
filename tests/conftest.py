"""Session fixtures shared across test modules.

The expensive Monte Carlo objects are built once per session and reused by
the module tests and the acceptance suite; every fixture is fully seeded,
so all downstream assertions are deterministic.
"""

import math
import time

import numpy as np
import pytest

from coprisk.copula import CopulaFamily
from coprisk.dgp import default_config, oracle_surface, simulate
from coprisk.estimator import AllPointsExcludedError, GridSpec, monte_carlo, theta_series
from coprisk.kernel import KernelSpec, estimate_surface_grid

BENCH_BANDWIDTH = 0.3


def _fd_stencil_is_clean(sample, spec, z, delta) -> bool:
    """True when no observation sits within a few finite-difference steps of
    a kernel-window edge at z.

    The kernel weight is continuous but has slope kinks where an observation
    crosses |u| = 1; a finite-difference stencil straddling such an edge
    measures the kink, not the smooth branch the analytic derivative lives
    on.  Screening candidate points keeps the FD oracle honest.
    """
    h = np.asarray(spec.bandwidths, dtype=float)
    u = np.abs((np.asarray(z, dtype=float) - sample.z) / h)
    margin = 3.0 * delta / h  # stencil shifts move |u| by at most ~2*delta/h
    return bool(np.all(np.abs(u - 1.0) > margin))


@pytest.fixture(scope="session")
def fd_clean_points():
    """Deterministic picker of FD-checkable evaluation points.

    Walks the candidate (t, z) list in order and keeps points whose stencil
    is clear of kernel-window edges and whose estimated derivatives are
    large enough for a relative comparison to be meaningful.
    """

    def pick(sample, spec, candidates, delta, count, min_first=0.0, min_cross=0.0):
        chosen = []
        for t, z in candidates:
            z = np.asarray(z, dtype=float)
            if not _fd_stencil_is_clean(sample, spec, z, delta):
                continue
            est = estimate_surface_grid(sample, spec, [t], z)[0]
            if abs(est.dpi_hat[0]) < min_first or abs(est.dpi_hat[1]) < min_first:
                continue
            if abs(est.d2pi_hat) < min_cross:
                continue
            chosen.append((float(t), z))
            if len(chosen) == count:
                break
        return chosen

    return pick


@pytest.fixture(scope="session")
def fixture_runtimes():
    """Wall-clock build time of the expensive session fixtures, by name.

    Tests asserting runtime budgets read the cost of the shared fixture
    they consume instead of re-running the computation.
    """
    return {}


@pytest.fixture(scope="session")
def bench_sample_100k():
    """One benchmark-design sample of 100k observations."""
    return simulate(default_config(100_000, seed=860_001))


@pytest.fixture(scope="session")
def mc50_study(fixture_runtimes):
    """The fifty-replicate study at the benchmark design, n=100k, summarized
    under the 1.3:2.5 trim window and, in its ``untrimmed``, over the whole
    grid.  Reused by the estimator distribution tests and the acceptance
    suite.
    """
    cfg = default_config(100_000, seed=9_000_000)
    spec = KernelSpec((BENCH_BANDWIDTH, BENCH_BANDWIDTH))
    start = time.perf_counter()
    summary = monte_carlo(cfg, spec, GridSpec(trim_lo=1.3, trim_hi=2.5), CopulaFamily.CLAYTON, 50)
    fixture_runtimes["mc50_study"] = time.perf_counter() - start
    return summary


@pytest.fixture(scope="session")
def consistency_runs(fixture_runtimes):
    """Estimation errors across 20 seeds for n in {5000, 20000, 80000}.

    Bandwidth follows the shrinking rule h_n = 0.3 * (n / 100000)**(-1/7).
    Each run records the surface-level error at duration 1.5 and the
    trimmed parameter error, so both consistency trends read off one pass.
    """
    start = time.perf_counter()
    out = {}
    grid = GridSpec(trim_lo=1.3, trim_hi=2.5)
    for n in (5_000, 20_000, 80_000):
        h = BENCH_BANDWIDTH * (n / 100_000.0) ** (-1.0 / 7.0)
        spec = KernelSpec((h, h))
        runs = []
        for r in range(20):
            cfg = default_config(n, seed=51_000 + r)
            sample = simulate(cfg)
            zbar = sample.mean_covariates()
            pi_error = abs(
                estimate_surface_grid(sample, spec, [1.5], zbar)[0].pi_hat
                - oracle_surface(cfg, [1.5], zbar)[0, 0]
            )
            try:
                theta_error = abs(
                    theta_series(sample, spec, grid, CopulaFamily.CLAYTON).theta_hat - 0.5
                )
            except AllPointsExcludedError:
                # a run that produced no estimate at all is maximally wrong;
                # small samples legitimately fail this way now and then
                theta_error = math.inf
            runs.append((pi_error, theta_error))
        out[n] = runs
    fixture_runtimes["consistency_runs"] = time.perf_counter() - start
    return out
