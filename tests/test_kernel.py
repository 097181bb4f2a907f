"""Kernel estimator tests: closed forms, raw sums, quotient-rule derivatives."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from coprisk.data import Sample
from coprisk.dgp import default_config, oracle_surface, simulate
from coprisk.kernel import EmptyNeighborhoodError, KernelSpec, _ZWeights, estimate_surface_grid

# one observation at the origin, unit bandwidths: the kernel mass at (x, 0)
# is K(x) * K(0) = 0.75 * K(x), and its z1-slope is K'(x) * K(0)
ORIGIN = Sample([1.0], [1], [[0.0, 0.0]])
UNIT = KernelSpec((1.0, 1.0))


def mass(x):
    """b_at_z at covariate point (x, 0); zero where the window is empty."""
    try:
        return estimate_surface_grid(ORIGIN, UNIT, [0.5], [x, 0.0])[0].b_at_z
    except EmptyNeighborhoodError:
        return 0.0


def mass_slope(x):
    return _ZWeights(ORIGIN, UNIT, np.array([x, 0.0])).b_grad[0]


def raw_sums(sample, spec, t, z):
    """Numerator/denominator sums of the private weight class at (t, z)."""
    w = _ZWeights(sample, spec, np.asarray(z, dtype=float))
    a, a_grad, a_cross = w.sums_at(t)
    return SimpleNamespace(a=a, b=w.b, a_grad=a_grad, b_grad=w.b_grad, a_cross=a_cross, b_cross=w.b_cross)


@pytest.fixture(scope="module")
def sample_5000():
    return simulate(default_config(5_000, seed=640_321))


# ----------------------------------------------------------------------
# kernel closed forms
# ----------------------------------------------------------------------


def test_kernel_values():
    k0 = 0.75  # K(0), the factor of the second coordinate
    assert mass(0.0) == k0 * 0.75
    assert mass(1.0) == 0.0
    assert mass(-1.0) == 0.0
    assert mass(2.0) == 0.0
    assert mass(-3.5) == 0.0
    assert mass(0.5) == k0 * (0.75 * 0.75)


def test_kernel_derivative_values():
    k0 = 0.75  # K(0), the factor of the second coordinate
    assert mass_slope(0.0) == 0.0
    assert mass_slope(0.5) == k0 * -0.75
    assert mass_slope(1.0) == k0 * -1.5
    assert mass_slope(-1.0) == k0 * 1.5
    assert mass_slope(1.5) == 0.0
    assert mass_slope(-2.0) == 0.0


def test_kernel_symmetry():
    for u in np.linspace(0.0, 1.5, 40):
        assert mass(u) == mass(-u)
        assert mass_slope(u) == -mass_slope(-u)


def test_kernel_integrates_to_one_by_simpson():
    # composite Simpson is exact for quadratics, so only roundoff remains;
    # the mass carries the factor K(0) = 0.75 of the second coordinate
    n = 2000
    xs = np.linspace(-1.0, 1.0, n + 1)
    ys = np.array([mass(x) for x in xs])
    coef = np.ones(n + 1)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    integral = (2.0 / n) / 3.0 * float(coef @ ys)
    assert abs(integral - 0.75) < 1e-10


def test_kernel_second_moment_is_one_fifth():
    n = 2000
    xs = np.linspace(-1.0, 1.0, n + 1)
    ys = np.array([x * x * mass(x) for x in xs])
    coef = np.ones(n + 1)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    integral = (2.0 / n) / 3.0 * float(coef @ ys)
    assert abs(integral - 0.75 * 0.2) < 1e-10


# ----------------------------------------------------------------------
# KernelSpec
# ----------------------------------------------------------------------


def test_kernel_spec_normalizes_bandwidths():
    spec = KernelSpec([1, 0.5])
    assert spec.bandwidths == (1.0, 0.5)
    assert spec.d == 2


@pytest.mark.parametrize("bw", [(), (0.0, 0.3), (-0.1, 0.3), (math.inf, 0.3), (math.nan, 0.3)])
def test_kernel_spec_rejects_bad_bandwidths(bw):
    with pytest.raises(ValueError):
        KernelSpec(bw)


# ----------------------------------------------------------------------
# raw sums
# ----------------------------------------------------------------------


def test_single_observation_at_evaluation_point():
    sample = Sample([2.0], [1], [[0.3, -0.4]])
    spec = KernelSpec((0.5, 0.7))
    sums = raw_sums(sample, spec, 1.0, [0.3, -0.4])
    expected = (0.75 / 0.5) * (0.75 / 0.7)
    assert sums.a == expected
    assert sums.b == expected
    assert sums.a_grad == (0.0, 0.0)  # K'(0) = 0
    assert sums.b_grad == (0.0, 0.0)
    assert sums.a_cross == 0.0
    assert sums.b_cross == 0.0
    # duration past the single observation empties the indicator sum only
    later = raw_sums(sample, spec, 3.0, [0.3, -0.4])
    assert later.a == 0.0
    assert later.b == expected


def test_sample_outside_support_gives_all_zeros():
    sample = Sample([1.0, 2.0], [1, 2], [[5.0, 5.0], [5.2, 4.8]])
    spec = KernelSpec((0.3, 0.3))
    sums = raw_sums(sample, spec, 1.0, [0.0, 0.0])
    assert sums.a == sums.b == sums.a_cross == sums.b_cross == 0.0
    assert sums.a_grad == (0.0, 0.0)
    assert sums.b_grad == (0.0, 0.0)


def test_raw_sums_first_derivatives_match_finite_differences():
    sample = simulate(default_config(50, seed=1_234))
    spec = KernelSpec((0.8, 0.8))
    z = np.array([0.1, -0.2])
    t = float(np.median(sample.t))
    step = 1e-6
    sums = raw_sums(sample, spec, t, z)
    for k in range(2):
        zp, zm = z.copy(), z.copy()
        zp[k] += step
        zm[k] -= step
        up, um = raw_sums(sample, spec, t, zp), raw_sums(sample, spec, t, zm)
        fd_a = (up.a - um.a) / (2.0 * step)
        fd_b = (up.b - um.b) / (2.0 * step)
        assert sums.a_grad[k] == pytest.approx(fd_a, rel=1e-6)
        assert sums.b_grad[k] == pytest.approx(fd_b, rel=1e-6)


def test_raw_sums_cross_derivative_matches_finite_differences():
    sample = simulate(default_config(50, seed=1_234))
    spec = KernelSpec((0.8, 0.8))
    z = np.array([0.1, -0.2])
    t = float(np.median(sample.t))
    step = 1e-4  # the 4-point stencil is exact for products of quadratics
    sums = raw_sums(sample, spec, t, z)

    def shifted(d1, d2, field):
        s = raw_sums(sample, spec, t, [z[0] + d1, z[1] + d2])
        return getattr(s, field)

    for field, got in (("a", sums.a_cross), ("b", sums.b_cross)):
        fd = (
            shifted(step, step, field)
            - shifted(step, -step, field)
            - shifted(-step, step, field)
            + shifted(-step, -step, field)
        ) / (4.0 * step * step)
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-7)


# ----------------------------------------------------------------------
# surface estimates
# ----------------------------------------------------------------------


def test_estimate_matches_raw_sums():
    sample = simulate(default_config(400, seed=5))
    spec = KernelSpec((0.4, 0.4))
    z = [0.05, -0.05]
    sums = raw_sums(sample, spec, 1.0, z)
    est = estimate_surface_grid(sample, spec, [1.0], z)[0]
    assert est.b_at_z == sums.b
    assert est.pi_hat == sums.a / sums.b


def test_all_durations_beyond_t_give_flat_one():
    sample = simulate(default_config(200, seed=8))
    spec = KernelSpec((0.6, 0.6))
    t0 = 0.5 * float(np.min(sample.t))
    est = estimate_surface_grid(sample, spec, [t0], [0.0, 0.0])[0]
    assert est.pi_hat == 1.0
    assert est.dpi_hat == (0.0, 0.0)
    assert abs(est.d2pi_hat) < 1e-9


def test_all_durations_below_t_give_flat_zero():
    sample = simulate(default_config(200, seed=8))
    spec = KernelSpec((0.6, 0.6))
    t1 = 2.0 * float(np.max(sample.t))
    est = estimate_surface_grid(sample, spec, [t1], [0.0, 0.0])[0]
    assert est.pi_hat == 0.0
    assert est.dpi_hat == (0.0, 0.0)
    assert est.d2pi_hat == 0.0


def test_pi_hat_bounded_and_weakly_decreasing():
    sample = simulate(default_config(500, seed=21))
    spec = KernelSpec((0.4, 0.4))
    grid = np.linspace(0.05, 6.0, 120)
    ests = estimate_surface_grid(sample, spec, grid, [0.0, 0.0])
    pis = [e.pi_hat for e in ests]
    assert all(0.0 <= p <= 1.0 for p in pis)
    assert all(a >= b for a, b in zip(pis, pis[1:]))


def test_grid_evaluation_is_bitwise_identical_to_pointwise():
    sample = simulate(default_config(2_000, seed=77))
    spec = KernelSpec((0.3, 0.3))
    z = [0.02, -0.01]
    grid = np.linspace(0.2, 3.0, 50)
    from_grid = estimate_surface_grid(sample, spec, grid, z)
    for t, g in zip(grid, from_grid):
        (p,) = estimate_surface_grid(sample, spec, [t], z)
        assert (g.pi_hat, g.dpi_hat, g.d2pi_hat, g.b_at_z) == (
            p.pi_hat,
            p.dpi_hat,
            p.d2pi_hat,
            p.b_at_z,
        )


def test_empty_neighborhood_raises():
    sample = Sample([1.0, 2.0], [1, 2], [[5.0, 5.0], [5.2, 4.8]])
    spec = KernelSpec((0.3, 0.3))
    with pytest.raises(EmptyNeighborhoodError):
        estimate_surface_grid(sample, spec, [1.0], [0.0, 0.0])
    with pytest.raises(EmptyNeighborhoodError):
        estimate_surface_grid(sample, spec, [0.5, 1.0], [0.0, 0.0])


def test_input_validation():
    sample = simulate(default_config(20, seed=2))
    spec = KernelSpec((0.3, 0.3))
    with pytest.raises(ValueError):
        estimate_surface_grid(sample, KernelSpec((0.3, 0.3, 0.3)), [1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        estimate_surface_grid(sample, spec, [1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        estimate_surface_grid(sample, spec, [1.0], [0.0, math.nan])
    with pytest.raises(ValueError):
        estimate_surface_grid(sample, spec, [math.nan], [0.0, 0.0])
    with pytest.raises(ValueError):
        estimate_surface_grid(sample, spec, [], [0.0, 0.0])


# ----------------------------------------------------------------------
# estimator derivatives vs finite differences of the estimator itself
# ----------------------------------------------------------------------


FD_CANDIDATES = [
    (t, (z1, z2))
    for t in (1.1, 1.3, 1.5, 1.7, 1.9)
    for (z1, z2) in (
        (0.0, 0.0),
        (0.15, -0.1),
        (-0.12, 0.08),
        (0.05, 0.2),
        (0.2, 0.1),
        (-0.05, -0.15),
        (0.1, 0.05),
        (-0.2, 0.15),
    )
]


def test_first_derivative_estimates_match_finite_differences(sample_5000, fd_clean_points):
    spec = KernelSpec((0.3, 0.3))
    step = 1e-6
    points = fd_clean_points(sample_5000, spec, FD_CANDIDATES, step, 3, min_first=0.02)
    assert len(points) == 3
    for t, z in points:
        est = estimate_surface_grid(sample_5000, spec, [t], z)[0]
        for k in range(2):
            zp, zm = z.copy(), z.copy()
            zp[k] += step
            zm[k] -= step
            fd = (
                estimate_surface_grid(sample_5000, spec, [t], zp)[0].pi_hat
                - estimate_surface_grid(sample_5000, spec, [t], zm)[0].pi_hat
            ) / (2.0 * step)
            assert est.dpi_hat[k] == pytest.approx(fd, rel=1e-4)


def test_cross_derivative_estimate_matches_finite_differences(sample_5000, fd_clean_points):
    spec = KernelSpec((0.3, 0.3))
    step = 1e-5
    points = fd_clean_points(sample_5000, spec, FD_CANDIDATES, step, 3, min_cross=0.05)
    assert len(points) == 3
    for t, z in points:
        est = estimate_surface_grid(sample_5000, spec, [t], z)[0]

        def pi_at(d1, d2):
            return estimate_surface_grid(sample_5000, spec, [t], [z[0] + d1, z[1] + d2])[0].pi_hat

        fd = (
            pi_at(step, step) - pi_at(step, -step) - pi_at(-step, step) + pi_at(-step, -step)
        ) / (4.0 * step * step)
        assert est.d2pi_hat == pytest.approx(fd, rel=1e-4)


# ----------------------------------------------------------------------
# statistical behavior
# ----------------------------------------------------------------------


def test_pi_hat_error_median_decreases_with_sample_size(consistency_runs):
    medians = [
        float(np.median([pi_err for pi_err, _ in consistency_runs[n]]))
        for n in (5_000, 20_000, 80_000)
    ]
    assert medians[0] > medians[1] > medians[2]


def test_cross_derivative_variance_shrinks_at_parametric_rate():
    # with the bandwidth held fixed the estimator variance is O(1/n); the
    # log-log slope across a 16x range of n should sit near -1
    sizes = (2_000, 8_000, 32_000)
    variances = []
    spec = KernelSpec((0.3, 0.3))
    for n in sizes:
        vals = []
        for r in range(20):
            sample = simulate(default_config(n, seed=36_500 + r))
            vals.append(estimate_surface_grid(sample, spec, [1.5], [0.0, 0.0])[0].d2pi_hat)
        variances.append(float(np.var(vals, ddof=1)))
    slope = float(np.polyfit(np.log(sizes), np.log(variances), 1)[0])
    assert -1.5 < slope < -0.5


def test_pi_hat_tracks_oracle_at_scale(bench_sample_100k):
    cfg = default_config(100_000, seed=860_001)
    spec = KernelSpec((0.3, 0.3))
    zbar = bench_sample_100k.mean_covariates()
    for t in (1.0, 1.5, 2.0):
        est = estimate_surface_grid(bench_sample_100k, spec, [t], zbar)[0]
        assert est.pi_hat == pytest.approx(oracle_surface(cfg, t, zbar).pi, abs=0.02)
