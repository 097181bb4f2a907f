"""Dependence-parameter estimation over a duration grid, with trimming and
a seeded Monte Carlo replication harness.

The estimator works in two steps.  A surface comes first: one (pi, dpi1,
dpi2, d2pi) row per duration grid point, a NaN row where there is no
estimate.  The copula parameter solving the generator curvature identity at
(pi, R), R = d2pi / (dpi1 * dpi2), is then the pointwise estimate
theta_hat(t); the reported estimator averages it over grid points inside a
trimming window, skipping unusable points (no estimate, level outside
(0, 1), nonfinite ratio, out-of-domain parameter, or no root).

Every surface is that (G, 4) float array, the layout of ThetaSeries.surface,
surface.csv and dgp.oracle_surface.  solve_surface checks one, solves it and
builds the series; theta_series, the route from a sample, ends by calling it
on the array the kernel built along its grid.  A grid without a usable point,
whether the kernel window is empty or nothing survives definedness and
trimming, raises AllPointsExcludedError.  monte_carlo is the one replicate
harness.  Replicates are independent jobs with derived seeds, each returning
its average under the trim window and over the whole grid from one series;
aggregation is keyed by replicate index, so both summaries are bitwise
independent of worker count and scheduling.  With k > 1 workers the study
forks k children on the package's one fork-join path (_fork._forked) and
runs no replicate itself: child i runs replicates i, i + k, ... and sends
their records back pickled through its own pipe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._fork import _forked, _worker_count
from .copula import CopulaFamily, _solve_ratio
from .data import Sample
from .dgp import DgpConfig, simulate
from .kernel import AllPointsExcludedError, KernelSpec, _surface_rows

__all__ = [
    "GridSpec",
    "McSummary",
    "ThetaSeries",
    "monte_carlo",
    "solve_surface",
    "theta_series",
]


# the percentiles of the durations that bound a resolved grid
_GRID_PERCENTILES = (0.5, 99.5)


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


def _percentiles(x: np.ndarray, percents) -> np.ndarray:
    """``np.percentile(x, percents)`` bit for bit, without the np.unique
    that imports numpy.ma: numpy's "linear" method on the order statistics
    k and k + 1 around each virtual index (n - 1) q, as one copy partitioned
    at k alone and the minimum above k, and numpy's _lerp (switch at 1/2)."""
    index = (x.size - 1) * np.true_divide(percents, 100)
    below = np.floor(index).astype(np.intp)
    a, b = np.empty((2, below.size))
    part = x.copy()
    for i, k in enumerate(below.tolist()):
        part.partition(k)  # one kth at a time: several at once cost far more
        a[i], b[i] = part[k], part[min(k + 1, x.size - 1) :].min()
    g, diff = index - below, b - a
    return np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)


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
            lo, hi = _percentiles(sample.t, _GRID_PERCENTILES)
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
    solution exists and is admissible under ThetaSolution's estimation rule
    (a Frank theta inside FRANK_DEAD_ZONE counts), and ``included``
    additionally applies the trim window; ``theta_hat`` is the arithmetic
    mean of the included values.  ``surface`` is the solved surface, one
    (pi, dpi1, dpi2, d2pi) row per grid point, NaN where there was no
    surface estimate.
    """

    t: np.ndarray
    theta_pointwise: np.ndarray
    defined: np.ndarray
    included: np.ndarray
    surface: np.ndarray
    theta_hat: float
    n_included: int
    trim_lo: float
    trim_hi: float

    def __post_init__(self) -> None:
        for arr in (self.t, self.theta_pointwise, self.defined, self.included, self.surface):
            arr.setflags(write=False)


def _solve_pointwise(surface, family):
    pi, dpi1, dpi2, d2pi = surface.T
    with np.errstate(over="ignore", invalid="ignore"):  # a nonfinite point is skipped below
        denom = dpi1 * dpi2
        # a level outside (0, 1) also marks the NaN rows of missing estimates
        solvable = (pi > 0.0) & (pi < 1.0) & np.isfinite(denom) & (denom != 0.0)
        ratio = np.divide(d2pi, denom, out=np.full_like(pi, np.nan), where=solvable)
    solvable &= np.isfinite(ratio)
    theta = np.full_like(pi, np.nan)
    defined = np.zeros(pi.shape, dtype=bool)
    # a Frank point without a root stays NaN and undefined; out-of-domain
    # values stay visible, not averaged
    theta[solvable], defined[solvable] = _solve_ratio(family, pi[solvable], ratio[solvable])
    return theta, defined


def _window_mean(t, theta, defined, trim_lo, trim_hi) -> tuple[np.ndarray, float, int]:
    """The points defined and inside the trim window, the mean of their
    values (NaN where there is none) and their count."""
    _check_trim(trim_lo, trim_hi)
    included = defined & (t >= trim_lo) & (t <= trim_hi)
    n_included = int(np.count_nonzero(included))
    return included, float(np.mean(theta[included])) if n_included else math.nan, n_included


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
    t = np.asarray(_check_t_grid(t_grid), dtype=float)
    surface = np.array(surface, dtype=float)  # a copy: the series freezes its arrays
    if surface.shape != (t.size, 4):
        raise ValueError(f"surface must have shape ({t.size}, 4), got {surface.shape}")
    theta, defined = _solve_pointwise(surface, family)
    included, theta_hat, n_included = _window_mean(t, theta, defined, trim_lo, trim_hi)
    if n_included == 0:
        raise AllPointsExcludedError(
            f"no grid point is both defined ({int(np.count_nonzero(defined))} defined)"
            f" and inside the trim window [{trim_lo}, {trim_hi}]"
        )
    return ThetaSeries(
        t=t,
        theta_pointwise=theta,
        defined=defined,
        included=included,
        surface=surface,
        theta_hat=theta_hat,
        n_included=n_included,
        trim_lo=float(trim_lo),
        trim_hi=float(trim_hi),
    )


def theta_series(
    sample: Sample, spec: KernelSpec, grid: GridSpec, family: CopulaFamily
) -> ThetaSeries:
    """Pointwise theta estimates along the duration grid of a sample, plus
    their trimmed average.

    Resolves the grid against ``sample``, estimates the (G, 4) kernel
    surface along it and solves that array under the grid's trim window
    with solve_surface; the returned series carries the surface it solved.
    AllPointsExcludedError means the kernel window at the evaluation point
    is empty or nothing survives definedness and trimming; a family that is
    no CopulaFamily member raises ValueError in the solve, after the kernel.
    """
    t, z = grid.resolve(sample)
    surface, _ = _surface_rows(sample, spec, t, z)
    return solve_surface(t, surface, family, grid.trim_lo, grid.trim_hi)


# ----------------------------------------------------------------------
# Monte Carlo harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class McSummary:
    """Replicate-level estimates with mean and nearest-rank percentiles.

    ``replicate_thetas`` is NaN and ``n_included`` 0 at failed replicates;
    ``mean``/``p05``/``p95`` summarize the successes.  ``untrimmed`` is the
    same study summarized over the whole grid, and None on that summary.
    """

    replicate_thetas: np.ndarray
    n_included: np.ndarray
    failed: np.ndarray
    mean: float
    p05: float
    p95: float
    n_failed: int
    untrimmed: McSummary | None = None

    def __post_init__(self) -> None:
        for arr in (self.replicate_thetas, self.n_included, self.failed):
            arr.setflags(write=False)


def _nearest_rank(sorted_values: np.ndarray, percent: float) -> float:
    k = max(1, math.ceil(percent / 100.0 * sorted_values.size))
    return float(sorted_values[k - 1])


def _replicate_job(dgp, spec, grid, family) -> tuple[float, int, float, int]:
    """One replicate's (theta_hat, n_included) under the grid's trim window,
    then over the whole grid: both averages of one untrimmed series, and
    (NaN, 0) where there is none."""
    try:
        series = theta_series(simulate(dgp), spec, replace(grid, trim_lo=-math.inf, trim_hi=math.inf), family)
    except AllPointsExcludedError:
        return math.nan, 0, math.nan, 0
    _, theta_hat, n_included = _window_mean(
        series.t, series.theta_pointwise, series.defined, grid.trim_lo, grid.trim_hi
    )
    return theta_hat, n_included, series.theta_hat, series.n_included


def _replicates(dgps, spec, grid, family) -> list:
    """The records of the replicates ``dgps``, one after another: a worker's task."""
    return [_replicate_job(dgp, spec, grid, family) for dgp in dgps]


def _summarize(thetas, n_included) -> McSummary:
    """Aggregate replicate averages; a replicate with no included point
    failed.  Raises AllPointsExcludedError when every replicate failed."""
    thetas, n_included = np.array(thetas, dtype=float), np.array(n_included, dtype=np.int64)
    failed = n_included == 0
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
    grid's trim window, and in ``untrimmed`` over the whole grid.

    Replicate r uses seed (dgp.seed + r) mod 2**64, so the summary is a pure
    function of the arguments.  A replicate fails (recorded, never raised)
    where no grid point survives definedness and the window; the study
    raises AllPointsExcludedError only when every replicate failed.
    ``workers`` > 1 forks at most that many worker processes (also capped
    at the replicate count and the CPUs this process may use, and none
    where the platform does not fork) without changing any value; a
    worker's exception is raised here with its own type.
    """
    if isinstance(replicates, bool) or not isinstance(replicates, int) or replicates < 1:
        raise ValueError(f"replicates must be a positive integer, got {replicates!r}")
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    dgps = [replace(dgp, seed=(dgp.seed + r) % 2**64) for r in range(replicates)]
    n_workers = _worker_count(workers, replicates)
    if n_workers == 1:
        records = _replicates(dgps, spec, grid, family)
    else:
        # worker i runs replicates i, i + n_workers, ...
        tasks = [functools.partial(_replicates, dgps[i::n_workers], spec, grid, family) for i in range(n_workers)]
        with _forked(tasks) as join:
            shares = join()
        records = [None] * replicates
        for i, share in enumerate(shares):
            records[i::n_workers] = share
    thetas, n_included, whole_thetas, whole_n_included = zip(*records)
    return replace(_summarize(thetas, n_included), untrimmed=_summarize(whole_thetas, whole_n_included))
