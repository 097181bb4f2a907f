"""Working-set gates for the estimate pipeline: simulate, the dataset CSV
writer, the grid and the kernel surface.

tracemalloc traces numpy's data buffers as well as Python objects, so the
traced peak of a call, less what it returns, is the most its temporaries
held at once.  Each stage works in blocks of rows; what may grow with the
sample is the sample itself and the one duration copy that the grid's
percentiles partition.  The budgets leave room for numpy versions whose
temporaries differ a little; the growth gates allow no row-sized temporary.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from coprisk.copula import CopulaFamily
from coprisk.data import Sample, write_dataset_csv
from coprisk.dgp import default_config, simulate
from coprisk.estimator import GridSpec, theta_series
from coprisk.kernel import KernelSpec

KIB = 1024
MIB = 1024 * KIB
SPEC = KernelSpec((0.3, 0.3))
GRID = GridSpec(n_points=500, trim_lo=1.3, trim_hi=2.5)
FAMILIES = [(CopulaFamily.CLAYTON, 0.5), (CopulaFamily.GUMBEL, 1.25), (CopulaFamily.FRANK, 1.86)]


def _peak(fn, *args):
    """fn(*args) and the traced peak of memory allocated while it ran."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak


def _column(n: int) -> int:
    return 8 * n  # one float64 column of the sample


def _simulate_beyond_output(n: int, family=CopulaFamily.CLAYTON, theta=0.5) -> int:
    sample, peak = _peak(simulate, default_config(n, seed=24, theta=theta, family=family))
    return peak - sum(a.nbytes for a in (sample.t, sample.delta, sample.z))


def _write_peak(sample: Sample, path) -> int:
    return _peak(write_dataset_csv, sample, path)[1]


def _resolve_beyond_copy(sample: Sample) -> int:
    return _peak(GRID.resolve, sample)[1] - _column(len(sample))


@pytest.fixture(scope="module")
def sample_100k():
    sample = simulate(default_config(100_000, seed=24))
    theta_series(sample, SPEC, GRID, CopulaFamily.CLAYTON)  # one-time set-up is not counted
    return sample


@pytest.fixture(scope="module")
def small_and_large(sample_100k):
    return simulate(default_config(50_000, seed=24)), simulate(default_config(200_000, seed=24))


@pytest.mark.parametrize("family, theta", FAMILIES, ids=lambda v: getattr(v, "value", None))
def test_simulate_holds_its_output_and_block_temporaries(sample_100k, family, theta):
    assert _simulate_beyond_output(100_000, family, theta) <= 1.5 * MIB


def test_dataset_writer_holds_block_temporaries(sample_100k, tmp_path):
    write_dataset_csv(sample_100k, tmp_path / "warm.csv")  # builds the formatter's tables
    assert _write_peak(sample_100k, tmp_path / "dataset.csv") <= 1.25 * MIB


def test_grid_resolve_holds_one_duration_copy(sample_100k):
    assert _resolve_beyond_copy(sample_100k) <= 64 * KIB


def test_theta_series_holds_block_and_window_temporaries(sample_100k):
    _, peak = _peak(theta_series, sample_100k, SPEC, GRID, CopulaFamily.CLAYTON)
    assert peak <= 1.25 * MIB + _column(len(sample_100k))


# From n = 50,000 to 200,000 no stage's peak beyond its outputs and the
# duration copy may grow by 64 KiB; one float64 column grows by 1.1 MiB.


def test_simulate_does_not_grow_with_the_sample(sample_100k):
    assert _simulate_beyond_output(200_000) - _simulate_beyond_output(50_000) < 64 * KIB


def test_dataset_writer_does_not_grow_with_the_sample(small_and_large, tmp_path):
    small, large = small_and_large
    write_dataset_csv(small, tmp_path / "warm.csv")
    assert _write_peak(large, tmp_path / "large.csv") - _write_peak(small, tmp_path / "small.csv") < 64 * KIB


def test_grid_resolve_does_not_grow_with_the_sample(small_and_large):
    small, large = small_and_large
    assert _resolve_beyond_copy(large) - _resolve_beyond_copy(small) < 64 * KIB


def test_theta_series_does_not_grow_with_the_sample(small_and_large):
    # the same grid, point and window at both sizes: the rows added lie far
    # outside the window, so only a row-sized temporary could grow the peak
    small, _ = small_and_large
    large = Sample(
        np.tile(small.t, 4),
        np.tile(small.delta, 4),
        np.concatenate([small.z + shift for shift in (0.0, 100.0, 200.0, 300.0)]),
    )
    t_grid, z_eval = GRID.resolve(small)
    grid = GridSpec(t_grid=tuple(t_grid), z_eval=tuple(z_eval), trim_lo=1.3, trim_hi=2.5)
    small_series, small_peak = _peak(theta_series, small, SPEC, grid, CopulaFamily.CLAYTON)
    large_series, large_peak = _peak(theta_series, large, SPEC, grid, CopulaFamily.CLAYTON)
    assert np.array_equal(large_series.surface, small_series.surface, equal_nan=True)
    assert large_peak - small_peak < 64 * KIB
