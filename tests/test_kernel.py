"""Kernel estimator tests: closed forms, raw sums, quotient-rule derivatives."""

import hashlib
import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import coprisk.kernel
from coprisk.copula import CopulaFamily
from coprisk.data import Sample
from coprisk.dgp import default_config, oracle_surface, simulate
from coprisk.kernel import (
    AllPointsExcludedError,
    KernelSpec,
    _suffix_sums,
    _surface_rows,
    _ZWeights,
    estimate_surface_grid,
)

# one observation at the origin, unit bandwidths: the kernel mass at (x, 0)
# is K(x) * K(0) = 0.75 * K(x), and its z1-slope is K'(x) * K(0)
ORIGIN = Sample([1.0], [1], [[0.0, 0.0]])
UNIT = KernelSpec((1.0, 1.0))


def mass(x):
    """b_at_z at covariate point (x, 0); zero where the window is empty."""
    try:
        return estimate_surface_grid(ORIGIN, UNIT, [0.5], [x, 0.0])[0].b_at_z
    except AllPointsExcludedError:
        return 0.0


def mass_slope(x):
    """z1-slope of the kernel mass at (x, 0): b_grad[0], row 0 of the sweep."""
    return _ZWeights(ORIGIN, UNIT, np.array([x, 0.0])).sums([0.5])[0, 1]


def raw_sums(sample, spec, t, z):
    """Numerator/denominator sums of the private weight class's sweep at (t, z)."""
    weights = _ZWeights(sample, spec, np.asarray(z, dtype=float))
    (b, *b_grad, b_cross), (a, *a_grad, a_cross) = weights.sums([t]).tolist()
    return SimpleNamespace(
        a=a, b=b, a_grad=tuple(a_grad), b_grad=tuple(b_grad), a_cross=a_cross, b_cross=b_cross
    )


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


MAX = 1.7976931348623157e308
TINY = 2.0**-1022  # the least normal float
# One pool of terms per column set: signed zeros, subnormals and exponents
# from 1e-300 to 1e300; every finite float; subnormals near 0 only; or
# floats near the top of the range, so that wide spans, subnormal sums and
# sums past the range each come up often.
SUM_TERMS = (
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0]),
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    ),
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, MAX, -MAX, 1.0, -1.0]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY, -TINY]),
        st.floats(min_value=-(2.0**-1000), max_value=2.0**-1000),
    ),
    st.one_of(
        st.sampled_from([0.0, -0.0, MAX, -MAX]),
        st.floats(min_value=2.0**1015, max_value=MAX),
        st.floats(min_value=-MAX, max_value=-(2.0**1015)),
    ),
)


def _reference_sum(values: list) -> float | None:
    """math.fsum, or where its partials overflow the exact sum rounded by
    Fraction's true division; None when the sum is beyond the float range."""
    try:
        total = math.fsum(values)
    except OverflowError:
        try:
            total = float(sum(map(Fraction, values), Fraction(0)))
        except OverflowError:
            return None
    return None if math.isinf(total) else total


@st.composite
def columns_and_starts(draw):
    m = draw(st.integers(0, 40))
    c = draw(st.integers(1, 4))
    columns = draw(arrays(float, (m, c), elements=draw(st.sampled_from(SUM_TERMS))))
    if draw(st.booleans()):  # one all-zero column
        columns[:, draw(st.integers(0, c - 1))] = draw(st.sampled_from([0.0, -0.0]))
    starts = draw(st.lists(st.integers(0, m), min_size=1, max_size=12))  # unsorted, repeated, m
    block = draw(st.sampled_from([1, 2, 3, 7, 1 << 20]))  # row blocks of the limb sums
    return columns, starts, block


def _column(*values):
    return np.array(values, dtype=float)[:, None]


# Ties to even that a far lower term breaks (the sticky bit must see limbs
# below the 96 bits that rounding reads), and the top of the range: MAX
# plus half its ulp rounds past it, less the least subnormal it does not.
@given(columns_and_starts())
@example((_column(1.0, 2.0**-53, 2.0**-200), [0, 1, 2, 3], 1 << 20))
@example((_column(-1.0, -(2.0**-53), -5e-324), [0, 1, 2, 3], 1 << 20))
@example((_column(1.0, 2.0**-53, 2.0**-300, -(2.0**-300)), [0, 2, 1], 1))
@example((_column(MAX, math.ulp(MAX) / 2, -5e-324), [2, 1, 0], 1 << 20))
@example((_column(MAX, math.ulp(MAX) / 2), [1, 0], 1 << 20))
@settings(max_examples=1000, deadline=None)
def test_suffix_sweep_equals_fsum(case):
    columns, starts, block = case
    want = [[_reference_sum(columns[s:, j].tolist()) for j in range(columns.shape[1])] for s in starts]
    with mock.patch.object(coprisk.kernel, "_BLOCK_ROWS", block):
        if any(w is None for row in want for w in row):
            with pytest.raises(OverflowError):  # _ZWeights.sums turns it into ValueError
                _suffix_sums(columns, np.array(starts, dtype=np.intp))
            return
        got = _suffix_sums(columns, np.array(starts, dtype=np.intp))
    assert got.shape == (len(starts), columns.shape[1])
    for row, want_row in zip(got.tolist(), want):
        for value, w in zip(row, want_row):
            assert value == w
            assert math.copysign(1.0, value) == math.copysign(1.0, w)


def test_limb_sweep_carries_past_the_top_limb():
    # 8192 mantissas of 53 one-bits, shifted 31 bits above the least term,
    # put 2**20 - 1 each into their top limb: the sum needs the carry limb
    big = math.nextafter(2.0, 0.0)
    columns = np.array([[big, -big]] * 8192 + [[2.0**-31, -(2.0**-31)]])
    starts = [0, 1, 4096, 8191, 8192, 8193]
    got = _suffix_sums(columns, np.array(starts))
    want = [[math.fsum(columns[s:, j].tolist()) for j in range(2)] for s in starts]
    assert got.tolist() == want


@pytest.mark.parametrize(
    "at_z, h",
    [
        (1, 1e-160),  # the weight K(0)^2 / h^2 of the observation at z overflows
        (4, 1e-154),  # each weight is finite, their sum is not
    ],
)
def test_overflowing_kernel_weights_raise(at_z, h):
    sample = Sample(
        [1.0 + k for k in range(at_z + 2)], [1] * (at_z + 2), [[-1.0, -1.0]] + [[0.0, 0.0]] * at_z + [[1.0, 1.0]]
    )
    with pytest.raises(ValueError, match="kernel weights overflow"):
        estimate_surface_grid(sample, KernelSpec((h, h)), [0.5], [0.0, 0.0])


def test_kernel_mass_whose_square_underflows_gives_nonfinite_derivatives():
    # b = 2 (0.75 / 1e100)**2 is about 1e-200, and b * b underflows to 0: the
    # surface level stays a ratio of sums, and the quotient-rule derivatives
    # come out NaN instead of raising ZeroDivisionError
    sample = Sample([1.0, 2.0], [1, 2], [[0.0, 0.0], [0.5, 0.5]])
    (est,) = estimate_surface_grid(sample, KernelSpec((1e100, 1e100)), [1.5], [0.0, 0.0])
    assert est.pi_hat == 0.5
    assert all(math.isnan(v) for v in (*est.dpi_hat, est.d2pi_hat))


# ----------------------------------------------------------------------
# window selection
# ----------------------------------------------------------------------


def _window_durations(sample, spec, z):
    """Durations of the rows in the window by the (n, d) mask, sorted."""
    with np.errstate(over="ignore"):  # an overflowing distance is outside
        u = (np.asarray(z, dtype=float) - sample.z) / np.asarray(spec.bandwidths)
    return np.sort(sample.t[np.all(np.abs(u) <= 1.0, axis=1)])


def _distinct_durations(n):
    return 1.0 + np.arange(n, dtype=float)  # a duration names its row


def test_window_keeps_rows_exactly_at_the_support_edge():
    h = 0.5
    edge = [-h, h, np.nextafter(-h, -1.0), np.nextafter(h, 1.0), 0.0]
    z = np.array([[a, b] for a in edge for b in edge])
    sample = Sample(_distinct_durations(len(z)), [1] * len(z), z)
    spec = KernelSpec((h, h))
    weights = _ZWeights(sample, spec, np.zeros(2))
    want = _window_durations(sample, spec, [0.0, 0.0])
    assert want.size == 9  # |u| = 1 exactly stays inside; one ulp past it does not
    assert weights.t_sorted.tolist() == want.tolist()
    assert weights.columns.shape == (9, 4)


@pytest.mark.parametrize("d", [2, 3])
def test_window_matches_the_full_mask(d):
    rng = np.random.default_rng(40 + d)
    n = 3000
    sample = Sample(_distinct_durations(n), rng.integers(1, 3, n), rng.normal(size=(n, d)))
    for h in (0.2, 0.7, 3.0):
        spec = KernelSpec((h,) * d)
        for z in (np.zeros(d), rng.normal(size=d)):
            weights = _ZWeights(sample, spec, z)
            assert weights.t_sorted.tolist() == _window_durations(sample, spec, z).tolist()
            assert weights.columns.shape == (weights.t_sorted.size, 4)


_B = coprisk.kernel._BLOCK_ROWS


@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 3 * _B + 5])
def test_blocked_window_is_one_unblocked_pass(n):
    # the window search and the limb sums run a block of rows at a time: the
    # rows inside, in their order, and every surface bit are one pass's
    rng = np.random.default_rng(n)
    sample = Sample(0.1 + rng.exponential(size=n), rng.integers(1, 3, n), rng.normal(size=(n, 3)))
    spec, z = KernelSpec((0.8, 0.8, 1.5)), np.array([0.1, -0.2, 0.3])
    h = np.asarray(spec.bandwidths)
    want = np.flatnonzero(np.all(np.abs((z - sample.z) / h) <= 1.0, axis=1))
    grid = np.quantile(sample.t, np.linspace(0.05, 0.95, 40))
    assert np.array_equal(coprisk.kernel._window(sample, h, z), want)
    rows, _ = _surface_rows(sample, spec, grid, z)
    with mock.patch.object(coprisk.kernel, "_BLOCK_ROWS", n):
        assert np.array_equal(coprisk.kernel._window(sample, h, z), want)
        one_pass, _ = _surface_rows(sample, spec, grid, z)
    assert rows.tobytes() == one_pass.tobytes()


def test_window_distances_that_overflow_raise_no_warning():
    # (z - Z) / h overflows for the far rows of the first and of the second
    # coordinate; the rows at z keep finite distances and overflowing weights
    h = 1e-308
    z = [[0.0, 0.0], [1e10, 0.0], [0.0, -1e10], [0.0, 0.0]]
    sample = Sample(_distinct_durations(4), [1] * 4, z)
    spec = KernelSpec((h, h))
    assert _window_durations(sample, spec, [0.0, 0.0]).tolist() == [1.0, 4.0]
    with pytest.raises(ValueError, match="kernel weights overflow"):
        _ZWeights(sample, spec, np.zeros(2))
    with pytest.raises(ValueError, match="kernel weights overflow"):
        estimate_surface_grid(sample, spec, [0.5], [0.0, 0.0])


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


def _scalar_quotient_rule(a, a_grad, a_cross, b, b_grad, b_cross):
    """The surface of one grid point from its sums, in Python floats."""
    b2 = b * b
    return [
        a / b,
        *((ak * b - a * bk) / b2 for ak, bk in zip(a_grad, b_grad)),
        a_cross / b
        - (b_grad[0] * a_grad[1] + a_grad[0] * b_grad[1] + b_cross * a) / b2
        + 2.0 * b_grad[0] * a * b_grad[1] / (b2 * b),
    ]


@pytest.mark.parametrize("d", [2, 3])
def test_array_quotient_rule_equals_the_scalar_formulas(d):
    rng = np.random.default_rng(7 + d)
    n = 4000
    sample = Sample(rng.exponential(size=n), rng.integers(1, 3, n), rng.normal(size=(n, d)))
    spec = KernelSpec(tuple(0.6 + 0.1 * k for k in range(d)))
    z = rng.normal(scale=0.2, size=d)
    grid = np.linspace(0.01, 3.0, 60)
    rows, b = _surface_rows(sample, spec, grid, z)
    (b_sum, *b_grad, b_cross), *a_rows = _ZWeights(sample, spec, z).sums(grid).tolist()
    assert b == b_sum
    want = [_scalar_quotient_rule(a, a_grad, a_cross, b, b_grad, b_cross) for a, *a_grad, a_cross in a_rows]
    assert rows.tolist() == want
    ests = estimate_surface_grid(sample, spec, grid, z)
    assert [[e.pi_hat, *e.dpi_hat, e.d2pi_hat] for e in ests] == want
    assert all(e.b_at_z == b for e in ests)


def test_third_covariate_surface_bits_are_pinned():
    # a third covariate only weights the estimate; the digest was taken from a
    # sweep that also carried dpi_3, so these four columns keep those bits
    base = simulate(default_config(20_000, seed=4242))
    z3 = np.random.default_rng(7).normal(0.0, 0.5, len(base))
    sample = Sample(base.t, base.delta, np.column_stack((base.z, z3)))
    spec = KernelSpec((0.3, 0.3, 0.5))
    rows, b = _surface_rows(sample, spec, np.linspace(0.2, 3.0, 50), (0.0, 0.1, -0.2))
    assert rows.shape == (50, 4)
    assert b == 4189.377330358959
    digest = hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest()
    assert digest == "adca2b0e9ef04d7963facef47ef8edd46104ae24ddfdd2fab1922b2a472932c2"


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
    empty = "^no kernel mass at the evaluation covariate point$"
    with pytest.raises(AllPointsExcludedError, match=empty):
        estimate_surface_grid(sample, spec, [1.0], [0.0, 0.0])
    with pytest.raises(AllPointsExcludedError, match=empty):
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
    spec = KernelSpec((0.3, 0.3))
    for family, theta in (
        (CopulaFamily.CLAYTON, 0.5), (CopulaFamily.GUMBEL, 1.25), (CopulaFamily.FRANK, 1.86)
    ):
        cfg = default_config(100_000, seed=860_001, theta=theta, family=family)
        # the fixture is the Clayton design's sample at this seed
        sample = bench_sample_100k if family is CopulaFamily.CLAYTON else simulate(cfg)
        zbar = sample.mean_covariates()
        for t in (1.0, 1.5, 2.0):
            est = estimate_surface_grid(sample, spec, [t], zbar)[0]
            assert est.pi_hat == pytest.approx(oracle_surface(cfg, [t], zbar)[0, 0], abs=0.02)
