"""Dependence-parameter estimation over a duration grid, with trimming and
a seeded Monte Carlo replication harness.

The estimator works in two steps.  A surface comes first: one (pi, dpi1,
dpi2, d2pi) row per duration grid point, a NaN row where there is no
estimate.  The copula parameter solving the generator curvature identity at
(pi, R), R = d2pi / (dpi1 * dpi2), is then the pointwise estimate
theta_hat(t); the reported estimator averages it over grid points inside a
trimming window, skipping unusable points (no estimate, level outside
(0, 1), nonfinite ratio, out-of-domain parameter, or no root).

solve_surface is the one solve step and takes a given surface as that
(G, 4) float array, the layout of ThetaSeries.surface and surface.csv.
theta_series is the route from a sample: it builds the kernel surface along
the grid and hands it to solve_surface.  monte_carlo is the one replicate
driver.  Replicates are independent jobs with derived seeds; aggregation is
keyed by replicate index, so summaries are bitwise independent of worker
count and scheduling.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .copula import CopulaFamily, NoRootError, theta_from_ratio
from .data import Sample
from .dgp import DgpConfig, oracle_surface, simulate
from .kernel import EmptyNeighborhoodError, KernelSpec, _surface_rows

__all__ = [
    "AllPointsExcludedError",
    "GridSpec",
    "McSummary",
    "ThetaSeries",
    "default_trim_from_series",
    "monte_carlo",
    "oracle_surface_estimates",
    "solve_surface",
    "summarize_replicates",
    "theta_series",
    "trim_series",
]

_SOLVABLE_FAMILIES = (CopulaFamily.CLAYTON, CopulaFamily.GUMBEL, CopulaFamily.FRANK)


class AllPointsExcludedError(RuntimeError):
    """No usable grid point survived definedness and trimming."""


class _DegenerateRangeError(ValueError):
    """A sample's percentile duration range cannot hold the grid's points."""


def _check_t_grid(t_grid) -> tuple[float, ...]:
    tg = tuple(float(t) for t in t_grid)
    if len(tg) == 0:
        raise ValueError("t_grid must be nonempty")
    if not all(math.isfinite(t) for t in tg):
        raise ValueError("t_grid must be finite")
    if not all(a < b for a, b in zip(tg, tg[1:])):
        raise ValueError("t_grid must be strictly increasing")
    return tg


def _check_trim(trim_lo: float, trim_hi: float) -> None:
    if math.isnan(trim_lo) or math.isnan(trim_hi):
        raise ValueError("trim bounds must not be NaN")
    if not trim_lo < trim_hi:
        raise ValueError(f"trim_lo must be below trim_hi, got {trim_lo!r} >= {trim_hi!r}")


@dataclass(frozen=True)
class GridSpec:
    """Duration grid, covariate evaluation point, and trimming window.

    ``t_grid=None`` resolves per sample to ``n_points`` equally spaced
    durations between the 0.5th and 99.5th empirical percentiles of the
    observed durations (extreme quantiles carry no kernel mass); a range
    too narrow to hold ``n_points`` distinct values raises ValueError.
    ``z_eval=None`` resolves to the sample mean covariate vector.  The trim
    window defaults to no trimming.
    """

    t_grid: tuple[float, ...] | None = None
    z_eval: tuple[float, ...] | None = None
    trim_lo: float = -math.inf
    trim_hi: float = math.inf
    n_points: int = 500

    def __post_init__(self) -> None:
        if self.t_grid is not None:
            object.__setattr__(self, "t_grid", _check_t_grid(self.t_grid))
        if self.z_eval is not None:
            ze = tuple(float(v) for v in self.z_eval)
            if not all(math.isfinite(v) for v in ze):
                raise ValueError("z_eval must be finite")
            object.__setattr__(self, "z_eval", ze)
        _check_trim(self.trim_lo, self.trim_hi)
        if not isinstance(self.n_points, int) or self.n_points < 2:
            raise ValueError(f"n_points must be an integer >= 2, got {self.n_points!r}")

    def resolve(self, sample: Sample) -> tuple[np.ndarray, np.ndarray]:
        """Concrete (t_grid, z_eval) for a sample: the explicit values where
        given, else the sample's percentile grid and mean covariate vector.
        A surface given without a sample needs no GridSpec: solve_surface
        takes its grid and trim window directly."""
        if self.t_grid is not None:
            t = np.asarray(self.t_grid, dtype=float)
        else:
            lo, hi = np.percentile(sample.t, (0.5, 99.5))
            t = np.linspace(lo, hi, self.n_points)
            # percentiles a few ulps apart give repeated points, not just lo == hi
            if not np.all(np.diff(t) > 0.0):
                raise _DegenerateRangeError("degenerate duration range; supply t_grid explicitly")
        if self.z_eval is not None:
            z = np.asarray(self.z_eval, dtype=float)
        else:
            z = sample.mean_covariates()
        return t, z


@dataclass(frozen=True)
class ThetaSeries:
    """Pointwise parameter estimates along the duration grid.

    ``theta_pointwise`` holds the solved value where one exists (NaN where
    the surface gave nothing to solve), ``defined`` marks points whose
    solution exists and lies inside the family domain, and ``included``
    additionally applies the trim window; ``theta_hat`` is the arithmetic
    mean of the included values.  ``iterations`` and ``near_independence``
    are root-solver diagnostics (zero/False for closed-form families).
    ``surface`` is the solved surface, one (pi, dpi1, dpi2, d2pi) row per
    grid point, NaN where there was no surface estimate.
    """

    t: np.ndarray
    theta_pointwise: np.ndarray
    defined: np.ndarray
    included: np.ndarray
    iterations: np.ndarray
    near_independence: np.ndarray
    surface: np.ndarray
    theta_hat: float
    n_included: int
    trim_lo: float
    trim_hi: float

    def __post_init__(self) -> None:
        for arr in (
            self.t,
            self.theta_pointwise,
            self.defined,
            self.included,
            self.iterations,
            self.near_independence,
            self.surface,
        ):
            arr.setflags(write=False)


def oracle_surface_estimates(config: DgpConfig, t_grid, z) -> np.ndarray:
    """Exact Clayton surface along ``t_grid`` at ``z`` as the (G, 4) array
    solve_surface takes (for tests and the oracle-check command)."""
    oracle = [oracle_surface(config, float(t), z) for t in np.asarray(t_grid, dtype=float)]
    return np.array([(o.pi, o.dpi_dz1, o.dpi_dz2, o.d2pi_dz1dz2) for o in oracle], dtype=float)


def _solve_pointwise(surface, family):
    n = surface.shape[0]
    theta = np.full(n, np.nan)
    defined = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=np.int64)
    near0 = np.zeros(n, dtype=bool)
    for i, (pi, dpi1, dpi2, d2pi) in enumerate(surface.tolist()):
        if not (0.0 < pi < 1.0):  # also skips the NaN rows of missing estimates
            continue
        denom = dpi1 * dpi2
        if denom == 0.0 or not math.isfinite(denom):
            continue
        ratio = d2pi / denom
        if not math.isfinite(ratio):
            continue
        try:
            sol = theta_from_ratio(family, pi, ratio)
        except NoRootError:
            continue
        theta[i] = sol.theta
        iterations[i] = sol.iterations
        near0[i] = sol.near_independence
        defined[i] = sol.admissible  # out-of-domain values stay visible, not averaged
    return theta, defined, iterations, near0


def _assemble(t, surface, theta, defined, iterations, near0, trim_lo, trim_hi) -> ThetaSeries:
    _check_trim(trim_lo, trim_hi)
    included = defined & (t >= trim_lo) & (t <= trim_hi)
    n_included = int(np.count_nonzero(included))
    if n_included == 0:
        raise AllPointsExcludedError(
            f"no grid point is both defined ({int(np.count_nonzero(defined))} defined)"
            f" and inside the trim window [{trim_lo}, {trim_hi}]"
        )
    theta_hat = float(np.mean(theta[included]))
    return ThetaSeries(
        t=t.copy(),
        theta_pointwise=theta,
        defined=defined,
        included=included,
        iterations=iterations,
        near_independence=near0,
        surface=surface,
        theta_hat=theta_hat,
        n_included=n_included,
        trim_lo=float(trim_lo),
        trim_hi=float(trim_hi),
    )


def solve_surface(
    t_grid, surface, family: CopulaFamily, trim_lo: float = -math.inf, trim_hi: float = math.inf
) -> ThetaSeries:
    """Solve a given surface point by point and average it under the trim
    window.

    ``surface`` is a (G, 4) float array, one (pi, dpi1, dpi2, d2pi) row per
    point of ``t_grid``, a NaN row where there is no estimate: the layout of
    ThetaSeries.surface and surface.csv.  ``t_grid`` is checked as GridSpec
    checks it (nonempty, finite, strictly increasing).  Raises
    AllPointsExcludedError when nothing survives definedness and trimming.
    """
    if family not in _SOLVABLE_FAMILIES:
        raise ValueError(f"family {family!r} has no dependence parameter to estimate")
    t = np.asarray(_check_t_grid(t_grid), dtype=float)
    surface = np.array(surface, dtype=float)  # a copy: the series freezes its arrays
    if surface.shape != (t.size, 4):
        raise ValueError(f"surface must have shape ({t.size}, 4), got {surface.shape}")
    return _assemble(t, surface, *_solve_pointwise(surface, family), trim_lo, trim_hi)


def theta_series(
    sample: Sample, spec: KernelSpec, grid: GridSpec, family: CopulaFamily
) -> ThetaSeries:
    """Pointwise theta estimates along the duration grid of a sample, plus
    their trimmed average.

    Resolves the grid against ``sample``, estimates the kernel surface along
    it and hands that surface to solve_surface under the grid's trim window;
    the returned series carries the surface it solved.  Raises
    AllPointsExcludedError when the kernel window at the evaluation point is
    empty or nothing survives definedness and trimming.
    """
    t, z = grid.resolve(sample)
    try:
        rows, _ = _surface_rows(sample, spec, t, z)
    except EmptyNeighborhoodError as exc:  # no kernel mass at z: whole curve undefined
        raise AllPointsExcludedError(str(exc)) from None
    # (pi, dpi1, dpi2, d2pi): the first two covariate derivatives
    return solve_surface(t, rows[:, (0, 1, 2, -1)], family, grid.trim_lo, grid.trim_hi)


def trim_series(series: ThetaSeries, trim_lo: float, trim_hi: float) -> ThetaSeries:
    """Re-average an existing series under a different trim window.

    Pointwise values, definedness and diagnostics are reused unchanged;
    only the inclusion mask and the average move.
    """
    return _assemble(
        series.t,
        series.surface,
        series.theta_pointwise,
        series.defined,
        series.iterations,
        series.near_independence,
        trim_lo,
        trim_hi,
    )


def default_trim_from_series(series: ThetaSeries, stability_window: int = 25) -> tuple[float, float]:
    """Suggest a trim window where the pointwise series is locally stable.

    Slides a centered window of ``stability_window`` defined points and
    keeps those whose median absolute deviation stays within 3x the
    grid-wide median of such deviations; the widest contiguous run of
    qualifying windows becomes the suggestion.  Falls back to the full
    grid range (with a warning) when nothing qualifies.  A suggestion is
    never applied silently; callers opt in.
    """
    if not isinstance(stability_window, int) or stability_window < 3:
        raise ValueError(f"stability_window must be an integer >= 3, got {stability_window!r}")
    full = (float(series.t[0]), float(series.t[-1]))
    t = series.t[series.defined]
    th = series.theta_pointwise[series.defined]
    w = stability_window
    if t.size < w:
        warnings.warn(
            "too few defined points for a stability window; using the full range",
            stacklevel=2,
        )
        return full
    n_win = t.size - w + 1
    mads = np.empty(n_win)
    for i in range(n_win):
        seg = th[i : i + w]
        mads[i] = np.median(np.abs(seg - np.median(seg)))
    threshold = 3.0 * float(np.median(mads))
    ok = mads <= threshold  # <=: a constant series (all-zero deviations) keeps everything
    if not ok.any():
        warnings.warn("no stable window found; using the full range", stacklevel=2)
        return full
    # widest contiguous run of qualifying windows
    best_start, best_len = 0, 0
    run_start = None
    for i, flag in enumerate(np.append(ok, False)):
        if flag and run_start is None:
            run_start = i
        elif not flag and run_start is not None:
            if i - run_start > best_len:
                best_start, best_len = run_start, i - run_start
            run_start = None
    return float(t[best_start]), float(t[best_start + best_len - 1 + w - 1])


# ----------------------------------------------------------------------
# Monte Carlo harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class McSummary:
    """Replicate-level estimates with mean and nearest-rank percentiles.

    ``replicate_thetas`` is NaN at failed replicates; ``mean``/``p05``/
    ``p95`` summarize the successes.  ``series`` holds the replicate series
    the summary was trimmed from (None where a replicate produced none;
    untrimmed when built by monte_carlo), so one study can be summarized
    again under another window.
    """

    replicate_thetas: np.ndarray
    n_included: np.ndarray
    failed: np.ndarray
    mean: float
    p05: float
    p95: float
    n_failed: int
    series: tuple[ThetaSeries | None, ...]

    def __post_init__(self) -> None:
        for arr in (self.replicate_thetas, self.n_included, self.failed):
            arr.setflags(write=False)


def _nearest_rank(sorted_values: np.ndarray, percent: float) -> float:
    k = max(1, math.ceil(percent / 100.0 * sorted_values.size))
    return float(sorted_values[k - 1])


def _untrimmed(grid: GridSpec) -> GridSpec:
    return replace(grid, trim_lo=-math.inf, trim_hi=math.inf)


def _replicate_job(args) -> ThetaSeries | None:
    dgp, spec, grid, family = args
    sample = simulate(dgp)
    try:
        return theta_series(sample, spec, grid, family)
    except AllPointsExcludedError:
        return None


def _worker_count(workers: int, replicates: int) -> int:
    """Processes to start: never more than replicates or CPUs (a fork pool
    starts every worker at once)."""
    return min(workers, replicates, os.cpu_count() or 1)


def summarize_replicates(
    series_list: list[ThetaSeries | None],
    trim_lo: float,
    trim_hi: float,
) -> McSummary:
    """Trim each replicate series, then aggregate the replicate averages.

    A replicate fails (recorded, never raised) when it produced no series
    at all or trimming empties its mask; the summary raises
    AllPointsExcludedError only when every replicate failed.
    """
    n = len(series_list)
    if n == 0:
        raise ValueError("need at least one replicate series")
    thetas = np.full(n, np.nan)
    n_included = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=bool)
    for r, series in enumerate(series_list):
        if series is None:
            failed[r] = True
            continue
        try:
            trimmed = trim_series(series, trim_lo, trim_hi)
        except AllPointsExcludedError:
            failed[r] = True
            continue
        thetas[r] = trimmed.theta_hat
        n_included[r] = trimmed.n_included
    ok = np.sort(thetas[~failed])
    if ok.size == 0:
        raise AllPointsExcludedError("every replicate failed under this trim window")
    return McSummary(
        replicate_thetas=thetas,
        n_included=n_included,
        failed=failed,
        mean=float(np.mean(ok)),
        p05=_nearest_rank(ok, 5.0),
        p95=_nearest_rank(ok, 95.0),
        n_failed=int(np.count_nonzero(failed)),
        series=tuple(series_list),
    )


def monte_carlo(
    dgp: DgpConfig,
    spec: KernelSpec,
    grid: GridSpec,
    family: CopulaFamily,
    replicates: int,
    *,
    workers: int = 1,
) -> McSummary:
    """Simulate-and-estimate ``replicates`` times and summarize under the
    grid's trim window.

    Replicate r uses seed (dgp.seed + r) mod 2**64, so the summary is a pure
    function of the arguments.  Each replicate series is computed untrimmed
    and kept in ``series``, so the study can be re-summarized under other
    windows without re-running it.  ``workers`` > 1 spreads replicates over
    at most that many processes (also capped at the replicate and CPU
    counts) without changing any value.
    """
    if not isinstance(replicates, int) or replicates < 1:
        raise ValueError(f"replicates must be a positive integer, got {replicates!r}")
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    untrimmed = _untrimmed(grid)
    jobs = [
        (replace(dgp, seed=(dgp.seed + r) % 2**64), spec, untrimmed, family)
        for r in range(replicates)
    ]
    n_workers = _worker_count(workers, replicates)
    if n_workers == 1:
        series = [_replicate_job(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only a pool needs it

        pool = ProcessPoolExecutor(max_workers=n_workers)
        try:
            series = list(pool.map(_replicate_job, jobs))
        finally:
            pool.shutdown(cancel_futures=True)  # an interrupt drops the queued replicates
    return summarize_replicates(series, grid.trim_lo, grid.trim_hi)
