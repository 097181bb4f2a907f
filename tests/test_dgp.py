"""Simulator tests: margins, conditional sampling, reproducibility, oracle surface."""

import hashlib
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import kendalltau

from coprisk import dgp
from coprisk.copula import (
    CopulaFamily,
    CopulaModel,
    _dphi,
    _phi,
    _phi_inv,
    kendalls_tau,
    theta_from_ratio,
)
from coprisk.data import Sample
from coprisk.dgp import (
    DEFAULT_MARGINALS,
    DgpConfig,
    WeibullMarginal,
    _ndtri,
    conditional_copula_inverse,
    default_config,
    oracle_surface,
    simulate,
    simulate_latent,
)

# Probability that cause 1 is the observed failure under the benchmark design
# (Clayton theta = 0.5, margins (0.5, 1, 1) and (1, 1, 1), centered normal
# covariates with variance 0.5).  Computed by Gauss-Hermite quadrature over
# the covariate gap composed with adaptive quadrature of the conditional
# copula derivative; stable to the digits shown across 60/96/140 nodes.
CAUSE_ONE_PROBABILITY = 0.3416655


@pytest.fixture(scope="module")
def bench_latent_100k():
    return simulate_latent(default_config(100_000, seed=20_260_817))


# ----------------------------------------------------------------------
# Weibull margin
# ----------------------------------------------------------------------


def test_invert_survival_unit_examples():
    assert WeibullMarginal(1.0, 1.0, 1.0).invert_survival(math.exp(-1.0), 0.0) == pytest.approx(
        1.0, rel=1e-12
    )
    assert WeibullMarginal(0.5, 1.0, 1.0).invert_survival(math.exp(-1.0), 0.0) == pytest.approx(
        2.0, rel=1e-12
    )


@pytest.mark.parametrize("lam, eta, beta", [(0.5, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 1.7, -0.4)])
def test_survival_round_trip(lam, eta, beta):
    m = WeibullMarginal(lam, eta, beta)
    for t in (0.05, 0.5, 1.0, 3.0):
        for z in (-1.0, 0.0, 0.8):
            s = m.survival(t, z)
            assert 0.0 < s < 1.0
            assert m.invert_survival(s, z) == pytest.approx(t, rel=1e-12)


def test_survival_dz_matches_finite_difference():
    m = WeibullMarginal(0.5, 1.3, 0.9)
    h = 1e-6
    for t in (0.2, 1.0, 2.5):
        for z in (-0.7, 0.0, 0.6):
            fd = (m.survival(t, z + h) - m.survival(t, z - h)) / (2.0 * h)
            assert m.survival_dz(t, z) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize(
    "lam, eta, beta",
    [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, math.inf)],
)
def test_weibull_rejects_bad_parameters(lam, eta, beta):
    with pytest.raises(ValueError):
        WeibullMarginal(lam, eta, beta)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def test_default_config_is_the_benchmark_design():
    cfg = default_config(10, 1)
    assert cfg.copula == CopulaModel(CopulaFamily.CLAYTON, 0.5)
    assert cfg.marginals == DEFAULT_MARGINALS
    assert DEFAULT_MARGINALS == (WeibullMarginal(0.5, 1.0, 1.0), WeibullMarginal(1.0, 1.0, 1.0))
    assert cfg.covariate_sd == pytest.approx(math.sqrt(0.5), rel=0, abs=0)


def test_covariate_scale_readings():
    # the paper's scale 0.5 read as the variance (the default) and as the SD
    as_variance = default_config(200, 1)
    as_sd = default_config(200, 1, covariate_sd=0.5)
    assert as_variance.covariate_sd == math.sqrt(0.5)
    assert as_sd.covariate_sd == 0.5
    # the field scales the same standard normal draws
    np.testing.assert_allclose(
        simulate_latent(as_sd).z / 0.5, simulate_latent(as_variance).z / math.sqrt(0.5), rtol=1e-15
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"n": -5},
        {"seed": -1},
        {"seed": 2**64},
        {"covariate_sd": 0.0},
        {"covariate_sd": -1.0},
        {"covariate_sd": math.nan},
        {"covariate_sd": math.inf},
    ],
)
def test_config_validation_rejects(kwargs):
    base = dict(copula=CopulaModel(CopulaFamily.CLAYTON, 0.5), n=10, seed=1)
    base.update(kwargs)
    with pytest.raises(ValueError):
        DgpConfig(**base)


def test_config_rejects_wrong_marginal_count():
    with pytest.raises(ValueError):
        DgpConfig(
            copula=CopulaModel(CopulaFamily.CLAYTON, 0.5),
            n=10,
            seed=1,
            marginals=(WeibullMarginal(1.0, 1.0, 1.0),),
        )


def test_single_observation_sample_works():
    s = simulate(default_config(1, seed=3))
    assert len(s) == 1
    assert s.delta[0] in (1, 2)


# ----------------------------------------------------------------------
# conditional copula inverse
# ----------------------------------------------------------------------


def _bisect_conditional(model: CopulaModel, s1: float, v2: float) -> float:
    """Independent scalar oracle: bisect the conditional cdf built from the
    generator's array routes, dphi(s1) / dphi(C(s1, s2)) = v2 with
    C(s1, s2) = phi_inv(phi(s1) + phi(s2))."""
    fam, theta = model.family, model.theta
    dphi_s1, phi_s1 = _dphi(fam, theta, s1), _phi(fam, theta, s1)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        c = _phi_inv(fam, theta, phi_s1 + _phi(fam, theta, mid))
        cdf = 0.0 if c == 0.0 else dphi_s1 / _dphi(fam, theta, c)
        if cdf < v2:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "model",
    [
        CopulaModel(CopulaFamily.CLAYTON, 0.5),
        CopulaModel(CopulaFamily.CLAYTON, 3.0),
        CopulaModel(CopulaFamily.CLAYTON, -0.5),
        CopulaModel(CopulaFamily.GUMBEL, 2.0),
        CopulaModel(CopulaFamily.FRANK, 3.0),
        CopulaModel(CopulaFamily.FRANK, -2.0),
    ],
    ids=lambda m: f"{m.family.value}-{m.theta}",
)
def test_conditional_inverse_matches_bisection_oracle(model):
    for s1 in (0.08, 0.35, 0.62, 0.91):
        for v2 in (0.06, 0.5, 0.94):
            got = conditional_copula_inverse(model, s1, v2)
            want = _bisect_conditional(model, s1, v2)
            assert got == pytest.approx(want, abs=1e-10)


ALL_FAMILIES = [
    CopulaModel(CopulaFamily.CLAYTON, 0.5),
    CopulaModel(CopulaFamily.CLAYTON, -1.0),
    CopulaModel(CopulaFamily.GUMBEL, 1.25),
    CopulaModel(CopulaFamily.GUMBEL, 5.0),
    CopulaModel(CopulaFamily.FRANK, 1.86),
    CopulaModel(CopulaFamily.FRANK, -50.0),
    CopulaModel(CopulaFamily.FRANK, 1000.0),
]


def test_conditional_inverse_vectorizes():
    # a scalar, a 1-element array, a strided column and a broadcast pair all
    # give each element the bits it gets in a contiguous array; numpy's
    # scalar power differs from its array loop in the last bit
    u = np.random.Generator(np.random.Philox(key=12)).random((3_000, 4))
    for model in ALL_FAMILIES:
        s1, v2 = u[:, 2], u[:, 3]
        out = conditional_copula_inverse(model, np.ascontiguousarray(s1), np.ascontiguousarray(v2))
        assert out.shape == (3_000,)
        assert np.array_equal(conditional_copula_inverse(model, s1, v2), out)
        for i in range(0, 3_000, 7):
            scalar = conditional_copula_inverse(model, float(s1[i]), float(v2[i]))
            assert type(scalar) is float
            assert scalar == out[i]
            assert conditional_copula_inverse(model, s1[i : i + 1], v2[i : i + 1])[0] == out[i]
        grid = conditional_copula_inverse(model, s1[:40, None], v2[:30])
        assert grid.shape == (40, 30)
        for i in range(40):
            row = conditional_copula_inverse(model, np.full(30, s1[i]), v2[:30])
            assert np.array_equal(grid[i], row)


def test_conditional_inverse_near_independence_matches_v2():
    model = CopulaModel(CopulaFamily.CLAYTON, 1e-8)
    for s1 in (0.1, 0.5, 0.9):
        for v2 in (0.05, 0.4, 0.95):
            assert conditional_copula_inverse(model, s1, v2) == pytest.approx(v2, abs=1e-5)


def test_conditional_inverse_countermonotone_edge():
    model = CopulaModel(CopulaFamily.CLAYTON, -1.0)
    for s1 in (0.25, 0.5, 0.75):
        for v2 in (0.1, 0.9):
            assert conditional_copula_inverse(model, s1, v2) == 1.0 - s1


@pytest.mark.parametrize(
    "s1, v2",
    [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (math.nan, 0.5), (0.5, math.nan)],
)
def test_conditional_inverse_rejects_boundary_inputs(s1, v2):
    # NaN compares false both ways, so it must fail the range test too
    for model in ALL_FAMILIES:
        with pytest.raises(ValueError):
            conditional_copula_inverse(model, s1, v2)
        with pytest.raises(ValueError):
            conditional_copula_inverse(model, np.array([0.3, s1]), np.array([0.3, v2]))


# ----------------------------------------------------------------------
# accuracy against the exact root, from a 50-digit decimal oracle
# ----------------------------------------------------------------------

EPS = 2.0 ** -52
UNIT_EDGES = (2.0 ** -53, 1.0 - 2.0 ** -53)
_LO, _HI = Decimal(UNIT_EDGES[0]), Decimal(UNIT_EDGES[1])


def _expm1(x: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec += 30  # e**x - 1 cancels about -log10|x| digits
        r = x.exp() - 1
    return +r


def _gumbel_exact(theta: float, s1: float, v2: float) -> Decimal:
    """The Gumbel conditional inverse of the exact inputs, to 50 digits,
    clipped to the simulator's range.

    Newton's method on l1 expm1(t) + (theta - 1) t = -log v2 from an upper
    bound of the root, then -log s2 = l1 expm1(theta t) ** (1 / theta).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        th = Decimal(theta)
        ell = -Decimal(s1).ln()
        rhs = -Decimal(v2).ln()
        t = min((1 + rhs / ell).ln(), rhs / (th - 1))
        for _ in range(200):
            e = _expm1(t)
            step = (ell * e + (th - 1) * t - rhs) / (ell * (e + 1) + th - 1)
            t -= step
            if abs(step) <= abs(t) * Decimal("1e-40"):
                break
        else:
            raise AssertionError("the oracle did not converge")
        s2 = (-ell * _expm1(th * t) ** (1 / th)).exp()
        return min(max(s2, _LO), _HI)


def _frank_exact(theta: float, s1: float, v2: float) -> Decimal:
    """The Frank conditional inverse of the exact inputs, to 50 digits,
    clipped: exp(-theta s2) = (v2 e**-theta + (1 - v2) a) / (v2 + (1 - v2) a)
    with a = exp(-theta s1), a ratio of positive sums."""
    with localcontext() as ctx:
        ctx.prec = 50
        ctx.Emax, ctx.Emin = 10 ** 9, -(10 ** 9)  # exp(+-theta) for any float theta
        th, s, v = Decimal(theta), Decimal(s1), Decimal(v2)
        a = (-th * s).exp()
        s2 = -((v * (-th).exp() + (1 - v) * a) / (v + (1 - v) * a)).ln() / th
        return min(max(s2, _LO), _HI)


def _clayton_exact(theta: float, s1: float, v2: float) -> Decimal:
    """The Clayton conditional inverse of the exact inputs, to 50 digits,
    clipped: s2**-theta = 1 + (v2 s1**(theta + 1))**(-theta / (theta + 1)) - s1**-theta."""
    with localcontext() as ctx:
        ctx.prec = 80  # the last two terms cancel where v2 is near 1
        ctx.Emax, ctx.Emin = 10 ** 9, -(10 ** 9)  # s1**-theta for a large theta
        th, s, v = Decimal(theta), Decimal(s1), Decimal(v2)
        x = 1 + (v * s ** (th + 1)) ** (-th / (th + 1)) - s ** -th
        s2 = (-x.ln() / th).exp()
        ctx.prec = 50
        return min(max(+s2, _LO), _HI)


def _assert_gumbel_accurate(theta, s1, v2):
    """Relative error at most 16 eps max(1, -log s2) against the exact root.

    The factor -log s2 is exp's: w = -log s2 comes out within a few ulp,
    and s2 = exp(-w) turns an absolute error of w into a relative one.
    """
    got = np.atleast_1d(conditional_copula_inverse(CopulaModel(CopulaFamily.GUMBEL, theta), s1, v2))
    s1, v2 = np.broadcast_arrays(np.asarray(s1, dtype=float), np.asarray(v2, dtype=float))
    for g, a, b in zip(got.ravel().tolist(), s1.ravel().tolist(), v2.ravel().tolist()):
        exact = _gumbel_exact(theta, a, b)
        bound = 16 * EPS * max(1.0, -math.log(float(exact))) * float(exact)
        assert abs(Decimal(g) - exact) <= Decimal(bound), (theta, a, b, g, exact)


def _assert_frank_accurate(theta, s1, v2):
    """At most 16 ulp from the exact root."""
    got = np.atleast_1d(conditional_copula_inverse(CopulaModel(CopulaFamily.FRANK, theta), s1, v2))
    s1, v2 = np.broadcast_arrays(np.asarray(s1, dtype=float), np.asarray(v2, dtype=float))
    for g, a, b in zip(got.ravel().tolist(), s1.ravel().tolist(), v2.ravel().tolist()):
        exact = _frank_exact(theta, a, b)
        assert abs(Decimal(g) - exact) <= 16 * Decimal(math.ulp(float(exact))), (theta, a, b, g, exact)


def _clayton_overflow_points():
    """Clayton draws where expm1 of the first exponent a1 = -theta / (theta
    + 1) * log(v2 s1**(theta + 1)) overflows, seeded: at theta 20, 50, 1000
    and 1e5, ten where the second exponent -theta log s1 overflows too and
    ten where it does not (-log s1 up to 35 / theta below the threshold,
    v2 log-uniform), plus named cases down to the least subnormal."""
    log_max = math.log(sys.float_info.max)
    rng = np.random.default_rng(2_718)
    points = [(50.0, 8e-7, 1e-5), (50.0, 2.0**-53, 0.3), (1.0, 1e-300, 1e-300), (0.6, 5e-324, 5e-324)]
    for theta in (20.0, 50.0, 1000.0, 1e5):
        for lo, hi in ((log_max / theta, 37.0), ((log_max - 35.0) / theta, log_max / theta)):
            s1 = np.exp(-rng.uniform(lo, hi, 400))
            v2 = np.exp(-rng.uniform(0.0, 37.0, 400))
            a1 = -(theta / (theta + 1.0)) * (np.log(v2) + (theta + 1.0) * np.log(s1))
            keep = np.flatnonzero(a1 > log_max)[:10]
            points += [(theta, a, b) for a, b in zip(s1[keep].tolist(), v2[keep].tolist())]
    return points


CLAYTON_OVERFLOW = _clayton_overflow_points()


# v2 near 1 and a large theta |log s1|: e1 - e2, a difference of two rounded
# expm1 values of nearly equal arguments, came out below -1 (log1p gave NaN),
# exactly -1 (log1p gave -inf, and the draw the 1 - 2**-53 ceiling) and
# exactly 0 (the ceiling again, for a root of 7.35e-14)
CLAYTON_CANCELLED = (
    (5.0, 3.4753965793830132e-06, 0.9999999999999994),
    (2.0, 8.364664276902932e-08, 0.9999999999999999),
    (5.0, 1.0832416705580414e-16, 0.9999999999999917),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_clayton_inverse_is_accurate_where_expm1_overflows():
    """Relative error at most 8 eps max(1, -log s2) against the exact root.

    Before the log-space branch these draws came out as the 2**-53 floor
    where only the first expm1 overflowed, and as NaN where both did.
    """
    only_first = both = 0
    for theta, s1, v2 in CLAYTON_OVERFLOW:
        log_max = math.log(sys.float_info.max)
        second = -theta * math.log(s1) > log_max
        only_first, both = only_first + (not second), both + second
        got = conditional_copula_inverse(CopulaModel(CopulaFamily.CLAYTON, theta), s1, v2)
        exact = _clayton_exact(theta, s1, v2)
        bound = 8 * EPS * max(1.0, -math.log(float(exact))) * float(exact)
        assert abs(Decimal(got) - exact) <= Decimal(bound), (theta, s1, v2, got, exact)
    assert only_first >= 40 and both >= 40  # both failure modes are covered
    # the example of the named case: the root, not the floor
    assert conditional_copula_inverse(CopulaModel(CopulaFamily.CLAYTON, 50.0), 8e-7, 1e-5) == pytest.approx(
        6.38338266906694e-07, rel=1e-14
    )
    # the draws where the two rounded expm1 values cancelled
    for theta, s1, v2 in CLAYTON_CANCELLED:
        got = conditional_copula_inverse(CopulaModel(CopulaFamily.CLAYTON, theta), s1, v2)
        exact = _clayton_exact(theta, s1, v2)
        assert abs(Decimal(got) - exact) <= 8 * Decimal(math.ulp(float(exact))), (theta, s1, v2, got, exact)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [0.3, 0.5, 2.0, 5.0, 50.0])
def test_clayton_inverse_log_spaced_sweep_is_accurate(theta):
    """Relative error at most 8 eps max(1, -log s2) against the exact root,
    over s1 = exp(-U(0, 40)) with v2 uniform for half the draws and
    1 - 10**-U(0, 16) for the other half.

    While most theta > 0 draws took log1p(e1 - e2), that difference lost up
    to about 26 bits short of any cancellation mask; this sweep measured up
    to 8.3e7 there, and 2.7 with 1 + p taken for every draw.
    """
    rng = np.random.default_rng(20_261_019)
    s1 = np.exp(-rng.uniform(0.0, 40.0, 600))
    v2 = np.concatenate([rng.uniform(0.0, 1.0, 300), 1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 300)])
    v2 = np.clip(v2, *UNIT_EDGES)
    got = conditional_copula_inverse(CopulaModel(CopulaFamily.CLAYTON, theta), s1, v2)
    for g, a, b in zip(got.tolist(), s1.tolist(), v2.tolist()):
        exact = _clayton_exact(theta, a, b)
        bound = 8 * EPS * max(1.0, -math.log(float(exact))) * float(exact)
        assert abs(Decimal(g) - exact) <= Decimal(bound), (theta, a, b, g, exact)


# Gumbel 50: phi(s1) underflows to 0 and C(s1, s2) rounds to 1 near s2 = 1;
# the 40 halvings this simulator once ran walked to 0.9999999999995453
# there, although the root is 0.99999956.  Mirrored: s1 near 0, v2 near 1.
SATURATED = (50.0, 0.9999996838467762, 1.3885405830054312e-07)
SATURATED_MIRROR = (50.0, 1.0 - 0.9999996838467762, 1.0 - 1.3885405830054312e-07)
# where -log v2 is large and w small, so the last Newton step's residual
# cancels terms of about 37, 430 or 744 down to about 1; with -log v2 and
# (theta - 1) t rounded to doubles there, the errors are 10, 22 and 9 eps
# times max(1, -log s2), against 0.5, 0.6 and 0.04 with them carried exactly
GUMBEL_CANCELLING = [
    (1.9500525, UNIT_EDGES[1], UNIT_EDGES[0]),
    (12.664645458407232, UNIT_EDGES[1], 6.99626459152167e-188),
    (20.0, UNIT_EDGES[1], 5e-324),
]
gumbel_thetas = st.one_of(
    st.floats(min_value=1.0 + 2.0 ** -52, max_value=1.01),
    st.floats(min_value=1.0 + 1e-4, max_value=100.0),
)
units = st.one_of(
    st.sampled_from(UNIT_EDGES),
    st.floats(min_value=2.0 ** -53, max_value=1.0 - 2.0 ** -53),
    st.floats(min_value=2.0 ** -53, max_value=0.5).map(lambda e: 1.0 - e),
)


@given(gumbel_thetas, units, units)
@example(*SATURATED)
@example(*SATURATED_MIRROR)
@example(*GUMBEL_CANCELLING[0])
@example(*GUMBEL_CANCELLING[1])
@example(*GUMBEL_CANCELLING[2])
@example(5.0, 0.5, UNIT_EDGES[0])
@example(50.0, UNIT_EDGES[0], UNIT_EDGES[1])
@example(50.0, UNIT_EDGES[1], UNIT_EDGES[0])
@example(100.0, UNIT_EDGES[1], UNIT_EDGES[1])
@example(1.0 + 1e-4, UNIT_EDGES[0], UNIT_EDGES[0])
@example(1.0 + 2.0 ** -52, UNIT_EDGES[1], 7.5e-10)
@example(1.000001, 0.16265136497070776, 0.9999979934478894)
@settings(max_examples=300, deadline=None)
def test_gumbel_inverse_scalar_is_accurate(theta, s1, v2):
    _assert_gumbel_accurate(theta, s1, v2)


@given(gumbel_thetas, st.lists(st.tuples(units, units), min_size=1, max_size=20))
@example(SATURATED[0], [SATURATED[1:], SATURATED_MIRROR[1:], UNIT_EDGES, UNIT_EDGES[::-1]])
@settings(max_examples=60, deadline=None)
def test_gumbel_inverse_array_is_accurate(theta, pairs):
    s1, v2 = np.array(pairs).T
    _assert_gumbel_accurate(theta, s1, v2)


def test_gumbel_inverse_broadcasts_accurately():
    rng = np.random.default_rng(4)
    s1, v2 = rng.random(3), rng.random(5)
    _assert_gumbel_accurate(1.25, 0.3, v2)
    _assert_gumbel_accurate(1.25, s1, 0.7)
    _assert_gumbel_accurate(1.25, s1[:, None], v2)


def _log_spaced_units(rng, n):
    # each coordinate uniform, or log-spaced to 1e-16 from either end of (0, 1)
    side = rng.integers(0, 3, n)
    e = 10.0 ** rng.uniform(-16.0, 0.0, n)
    return np.clip(np.where(side == 0, rng.random(n), np.where(side == 1, e, 1.0 - e)), *UNIT_EDGES)


@pytest.mark.parametrize("theta", [1.0001, 1.25, 5.0, 50.0])
def test_gumbel_inverse_log_spaced_sweep_is_accurate(theta):
    # 1,000 of 20,000 draws per theta, each checked against the oracle and
    # against a scalar call
    rng = np.random.default_rng(600_613)
    n = 20_000
    s1, v2 = _log_spaced_units(rng, n), _log_spaced_units(rng, n)
    got = conditional_copula_inverse(CopulaModel(CopulaFamily.GUMBEL, theta), s1, v2)
    picked = rng.choice(n, 1_000, replace=False)
    for i in picked.tolist():
        assert got[i] == conditional_copula_inverse(
            CopulaModel(CopulaFamily.GUMBEL, theta), float(s1[i]), float(v2[i])
        )
    _assert_gumbel_accurate(theta, s1[picked], v2[picked])


# ----------------------------------------------------------------------
# agreement with the 40-step bisection the simulator ran before 0.2.0
# ----------------------------------------------------------------------


def _forty_halvings(model: CopulaModel, s1, v2):
    """Reference: the 40-step bisection every bisection family once ran."""
    s1 = np.asarray(s1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    fam, theta = model.family, model.theta
    lo = np.zeros(np.broadcast(s1, v2).shape)
    hi = np.ones_like(lo)
    dphi_s1 = _dphi(fam, theta, s1)
    phi_s1 = _phi(fam, theta, s1)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        c = _phi_inv(fam, theta, phi_s1 + _phi(fam, theta, mid))
        cdf = dphi_s1 / _dphi(fam, theta, c)
        below = cdf < v2
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = np.clip(0.5 * (lo + hi), 2.0 ** -53, 1.0 - 2.0 ** -53)
    if out.ndim == 0:
        return float(out)
    return out


def _assert_gumbel_agrees_with_halvings(theta, s1, v2, checked=None):
    """The exact inverse lies within one level-40 cell (2**-40) of the 40
    halvings' midpoint; where it does not, the halvings' float cdf misled
    them, and the exact inverse is the closer of the two to the true root.

    With ``checked`` set, the oracle sees only that many of the disagreeing
    draws: the farthest apart half and a random half of the rest.
    """
    model = CopulaModel(CopulaFamily.GUMBEL, theta)
    got = conditional_copula_inverse(model, s1, v2)
    # extreme theta and unit draws overflow or divide by zero in the halvings
    with np.errstate(all="ignore"):
        want = _forty_halvings(model, s1, v2)
    assert type(got) is type(want)
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    s1, v2 = np.broadcast_arrays(np.asarray(s1, dtype=float), np.asarray(v2, dtype=float))
    gap = np.abs(got - want).ravel()
    apart = np.flatnonzero(gap > 2.0 ** -40)
    if checked is not None and apart.size > checked:
        by_gap = apart[np.argsort(gap[apart], kind="stable")]
        rest = np.random.default_rng(40).choice(by_gap[: -checked // 2], checked // 2, replace=False)
        apart = np.concatenate([by_gap[-checked // 2 :], rest])
    got, want, s1, v2 = got.ravel(), want.ravel(), s1.ravel(), v2.ravel()
    for g, h, a, b in zip(got[apart].tolist(), want[apart].tolist(), s1[apart].tolist(), v2[apart].tolist()):
        exact = _gumbel_exact(theta, a, b)
        assert abs(Decimal(g) - exact) < abs(Decimal(h) - exact), (theta, a, b, g, h, exact)


@given(gumbel_thetas, units, units)
@example(*SATURATED)
@example(*SATURATED_MIRROR)
@example(50.0, UNIT_EDGES[0], UNIT_EDGES[1])
@example(50.0, UNIT_EDGES[1], UNIT_EDGES[0])
@example(100.0, UNIT_EDGES[1], UNIT_EDGES[1])
@example(1.0 + 1e-4, UNIT_EDGES[0], UNIT_EDGES[0])
@settings(max_examples=300, deadline=None)
def test_gumbel_inverse_scalar_equals_forty_halvings(theta, s1, v2):
    _assert_gumbel_agrees_with_halvings(theta, s1, v2)


@given(gumbel_thetas, st.lists(st.tuples(units, units), min_size=1, max_size=40))
@example(SATURATED[0], [SATURATED[1:], SATURATED_MIRROR[1:], UNIT_EDGES, UNIT_EDGES[::-1]])
@settings(max_examples=100, deadline=None)
def test_gumbel_inverse_array_equals_forty_halvings(theta, pairs):
    s1, v2 = np.array(pairs).T
    _assert_gumbel_agrees_with_halvings(theta, s1, v2)


def test_gumbel_inverse_broadcasts_like_forty_halvings():
    rng = np.random.default_rng(4)
    s1, v2 = rng.random(3), rng.random(5)
    _assert_gumbel_agrees_with_halvings(1.25, 0.3, v2)
    _assert_gumbel_agrees_with_halvings(1.25, s1, 0.7)
    _assert_gumbel_agrees_with_halvings(1.25, s1[:, None], v2)


@pytest.mark.parametrize("theta", [1.0001, 1.25, 5.0, 50.0])
def test_gumbel_inverse_log_spaced_sweep_equals_forty_halvings(theta):
    # 200k draws per theta, each coordinate uniform, or log-spaced to 1e-16
    # from either end of (0, 1); up to 72k of them leave the halvings' cell
    # at theta = 50, by as much as 0.99, so the oracle checks 2,000 of those
    rng = np.random.default_rng(600_613)
    n = 200_000
    s1, v2 = _log_spaced_units(rng, n), _log_spaced_units(rng, n)
    _assert_gumbel_agrees_with_halvings(theta, s1, v2, checked=2_000)


frank_thetas = st.one_of(
    st.sampled_from([-700.0, -50.0, -8.0, -1e-6, 1e-6, 0.5, 1.86, 20.0, 50.0, 700.0]),
    st.floats(min_value=-700.0, max_value=-1e-6),
    st.floats(min_value=1e-6, max_value=700.0),
)


@given(frank_thetas, units, units)
@example(1.86, 2.7779375739722667e-06, 0.9525023924802107)
@example(50.0, 0.7025885133855037, 2.7094990789315446e-14)
@example(-50.0, 0.9999999999973758, 0.294693182079087)
@example(20.0, 0.9990575803895373, 1.992453610316173e-08)
@example(50.0, UNIT_EDGES[0], UNIT_EDGES[1])
@example(50.0, UNIT_EDGES[1], UNIT_EDGES[0])
@example(-50.0, UNIT_EDGES[1], UNIT_EDGES[1])
@example(-50.0, UNIT_EDGES[0], UNIT_EDGES[0])
@settings(max_examples=400, deadline=None)
def test_frank_inverse_is_accurate(theta, s1, v2):
    _assert_frank_accurate(theta, s1, v2)


@pytest.mark.parametrize("theta", [-1.86, 1.86, -50.0, 50.0])
def test_frank_inverse_log_spaced_sweep_is_accurate(theta):
    rng = np.random.default_rng(600_614)
    _assert_frank_accurate(theta, _log_spaced_units(rng, 2_000), _log_spaced_units(rng, 2_000))


@pytest.mark.parametrize("theta", [-1e6, -1000.0, -700.5, 700.5, 1000.0, 1e6])
def test_frank_inverse_past_the_direct_range_is_accurate_in_absolute_terms(theta):
    # past |theta| = 700 the two sums are taken in logs, whose rounding is
    # absolute: about eps in s2, against 2**-41 for the 40 halvings before
    rng = np.random.default_rng(600_615)
    s1 = np.concatenate([_log_spaced_units(rng, 300), [UNIT_EDGES[0], UNIT_EDGES[1], 0.5]])
    v2 = np.concatenate([_log_spaced_units(rng, 300), [UNIT_EDGES[1], UNIT_EDGES[0], 0.5]])
    got = conditional_copula_inverse(CopulaModel(CopulaFamily.FRANK, theta), s1, v2)
    for g, a, b in zip(got.tolist(), s1.tolist(), v2.tolist()):
        assert abs(Decimal(g) - _frank_exact(theta, a, b)) <= 4 * Decimal(EPS), (a, b)


def test_frank_inverse_at_huge_theta_is_the_frechet_bound():
    # s2 -> s1 as theta -> inf and s2 -> 1 - s1 as theta -> -inf, O(1/theta)
    rng = np.random.default_rng(600_616)
    s1, v2 = _log_spaced_units(rng, 300), _log_spaced_units(rng, 300)
    upper = conditional_copula_inverse(CopulaModel(CopulaFamily.FRANK, 1e300), s1, v2)
    lower = conditional_copula_inverse(CopulaModel(CopulaFamily.FRANK, -1e300), s1, v2)
    assert np.allclose(upper, s1, rtol=0, atol=4 * EPS)
    assert np.allclose(lower, np.clip(1.0 - s1, *UNIT_EDGES), rtol=0, atol=4 * EPS)


def test_frank_counterexample_to_a_cell_certificate_is_pinned():
    # Frank's float cdf is not monotone, so no few-point certificate could
    # stand in for its 40 halvings; they returned 0.8767657630455687 here,
    # 425,947 ulp from the exact root 0.876765763092858390...  The closed
    # form returns the double nearest to it.
    model = CopulaModel(CopulaFamily.FRANK, 1.86)
    s1, v2 = 2.7779375739722667e-06, 0.9525023924802107
    assert conditional_copula_inverse(model, s1, v2) == 0.8767657630928584
    assert conditional_copula_inverse(model, np.array([s1]), np.array([v2]))[0] == 0.8767657630928584
    exact = _frank_exact(1.86, s1, v2)
    assert abs(Decimal(0.8767657630928584) - exact) <= Decimal(math.ulp(0.8767657630928584)) / 2


# ----------------------------------------------------------------------
# sampled dependence strength
# ----------------------------------------------------------------------


def test_latent_kendall_tau_matches_population_value(bench_latent_100k):
    tau_hat = kendalltau(bench_latent_100k.s1, bench_latent_100k.s2).statistic
    assert abs(tau_hat - 0.2) < 0.01  # population tau of Clayton 0.5 is 0.5/2.5


def test_latent_kendall_tau_stable_across_batches(bench_latent_100k):
    s1 = bench_latent_100k.s1.reshape(20, 5000)
    s2 = bench_latent_100k.s2.reshape(20, 5000)
    for b in range(20):
        tau_b = kendalltau(s1[b], s2[b]).statistic
        assert abs(tau_b - 0.2) < 0.05  # ~5 standard errors at batch size 5000


@pytest.mark.parametrize(
    "model",
    [CopulaModel(CopulaFamily.GUMBEL, 2.0), CopulaModel(CopulaFamily.FRANK, 3.0),
     CopulaModel(CopulaFamily.FRANK, -2.0)],
    ids=lambda m: f"{m.family.value}-{m.theta}",
)
def test_bisection_families_sample_at_their_population_tau(model):
    cfg = DgpConfig(copula=model, n=20_000, seed=90_210)
    lat = simulate_latent(cfg)
    tau_hat = kendalltau(lat.s1, lat.s2).statistic
    assert abs(tau_hat - kendalls_tau(model)) < 0.02


# ----------------------------------------------------------------------
# observed sample
# ----------------------------------------------------------------------


def test_cause_one_probability_matches_quadrature():
    sample = simulate(default_config(100_000, seed=77_001))
    p_hat = float(np.mean(sample.delta == 1))
    assert abs(p_hat - CAUSE_ONE_PROBABILITY) < 0.01


def test_same_seed_reproduces_bitwise():
    cfg = default_config(500, seed=42)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.z, b.z)


# sha256 over the bytes of t (<f8), delta (<i8) and z (<f8) of
# simulate(default_config(2000, seed=11, theta=..., family=...)).  Gumbel's
# and Frank's were computed when they first drew from the exact conditional
# inverse (version 0.2.0), and held at 0.3.0, whose normal quantile moved no
# covariate of these rows; Clayton's was re-pinned at 0.3.0, where every
# theta > 0 draw took its cancellation-free form.
DGP_DIGESTS = [
    (CopulaFamily.CLAYTON, 0.5, "f5a471cad310f2ed5db94a5114b81bca740e4feda814b2cf706ff641acfc6eea"),
    (CopulaFamily.GUMBEL, 1.25, "b17091c2265287780c1355950576cbbfd9af0f504ef6ea3b8e7da869d7d1c04c"),
    (CopulaFamily.FRANK, 1.86, "86eb4f086727397b3332327bc78b48f986ef98cc78750eeb6fe5201e3d2a94e7"),
]


@pytest.mark.parametrize("family, theta, digest", DGP_DIGESTS, ids=lambda v: getattr(v, "value", None))
def test_simulate_matches_golden_digest(family, theta, digest):
    assert _sample_digest(simulate(default_config(2000, seed=11, theta=theta, family=family))) == digest


def _sample_digest(sample: Sample) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sample.t, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(sample.delta, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(sample.z, dtype="<f8").tobytes())
    return h.hexdigest()


# The same digest at n = 100,000 (7 blocks of rows), re-pinned at version
# 0.3.0, when the normal quantile moved to numpy's log.
DGP_DIGESTS_100K = [
    (CopulaFamily.GUMBEL, 1.25, "90074b7170d33a3a237b7ace21703e7cd6c6867a038ac5e3c3fde948f81d2cfa"),
    (CopulaFamily.GUMBEL, 5.0, "145d6437995d79d2858d7d357e840b508d6de6d40dab22f777054d6a7278cafc"),
    (CopulaFamily.GUMBEL, 50.0, "2eaaa86d3f084ba88747f3f57d0ea696ed8e2c9b0a0b54e4a884aa594fdba491"),
    (CopulaFamily.FRANK, 1.86, "f5a4d18c29f84e0f4c351cf6f62f580f2b90cd9181c086a9e30b3c1a6e8f34e5"),
]


@pytest.mark.parametrize("family, theta, digest", DGP_DIGESTS_100K, ids=lambda v: getattr(v, "value", None))
def test_simulate_matches_golden_digest_at_benchmark_size(family, theta, digest):
    assert _sample_digest(simulate(default_config(100_000, seed=11, theta=theta, family=family))) == digest


def _around(x: float, ulps: int) -> list[float]:
    """x and its `ulps` floating-point neighbours on either side."""
    down, up = [x], [x]
    for _ in range(ulps):
        down.append(float(np.nextafter(down[-1], -math.inf)))
        up.append(float(np.nextafter(up[-1], math.inf)))
    return sorted(set(down + up))


def _covariate_uniforms(seed: int, n: int) -> np.ndarray:
    # the covariate uniforms of a design, as a strided (n, 2) view: _ndtri
    # must give each element its own bits in any layout
    u = np.random.Generator(np.random.Philox(key=seed)).random((n, 4))
    np.maximum(u, 2.0 ** -53, out=u)
    return u[:, :2]


EXP_M2 = math.exp(-2.0)
EXP_M32 = math.exp(-32.0)  # sqrt(-2 log y) = 8 switches the tail approximation

# pi to 100 digits, for the density's 1 / sqrt(2 pi)
_PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
)


def _normal_upper_tail(a: Decimal) -> Decimal:
    """1 - Phi(a) for a >= 0, in the caller's precision.

    Below 8 from the series Phi(a) - 1/2 = pdf(a) sum a**(2k+1) / (2k+1)!!,
    whose terms are positive (it cancels to at most 16 digits there); from
    8 on from Laplace's continued fraction pdf(a) / (a + 1/(a + 2/(a + ...))),
    by the modified Lentz method.
    """
    pdf = (-a * a / 2).exp() / (2 * _PI).sqrt()
    if a < 8:
        term = total = a
        k = 3
        while term > total * Decimal("1e-80"):
            term = term * a * a / k
            total += term
            k += 2
        return Decimal("0.5") - pdf * total
    f = c = a
    d = Decimal(0)
    k = 1
    while True:
        d = 1 / (a + k * d)
        c = a + k / c
        delta = c * d
        f *= delta
        if abs(delta - 1) < Decimal("1e-60"):
            return pdf / f
        k += 1


def _normal_cdf(x: Decimal) -> Decimal:
    """The standard normal cdf to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 90
        q = _normal_upper_tail(abs(x))
        return +(q if x < 0 else 1 - q)


# Measured against 50-digit mpmath over about 260k inputs (covariate
# uniforms, log-uniform tails down to 2**-1074, and the neighbourhoods of
# every |z| = 2**k, k = -4..3): at most 4.3 ulp, in the central branch just
# inside |z| = 1, where the ulp halves; the C library's log gave the same
NDTRI_ULPS = 5
# scipy's ndtri is the same Cephes routine on the C library's log: each is
# within NDTRI_ULPS of the exact quantile, so they are within twice that of
# each other (over the 200k covariate uniforms of seed 1, 2 ulp was measured)
NDTRI_SCIPY_ULPS = 2 * NDTRI_ULPS


def _ndtri_cases(test):
    """Hypothesis arrays in [0, 1] and the branch edges, the subnormals and
    the covariate uniforms of simulate_latent as examples."""
    for u in (
        np.array([2.0 ** -53, 1.0 - 2.0 ** -53, 2.0 ** -1074, 0.5]),
        np.array(_around(EXP_M2, 1) + _around(1.0 - EXP_M2, 1)),
        np.array(_around(EXP_M32, 64) + _around(1.0 - EXP_M32, 2)),
        _covariate_uniforms(1, 256),
        _covariate_uniforms(2, 256),
        _covariate_uniforms(3, 256),
    ):
        test = example(u)(test)
    strategy = arrays(np.float64, st.integers(1, 32), elements=st.floats(min_value=0.0, max_value=1.0))
    return settings(max_examples=100, deadline=None)(given(strategy)(test))


@_ndtri_cases
def test_ndtri_is_accurate(u):
    """Within NDTRI_ULPS of the exact quantile: Phi(z - k ulp) <= u <= Phi(z + k ulp)."""
    got = _ndtri(u)
    assert got.shape == u.shape
    for y, z in zip(u.ravel().tolist(), got.ravel().tolist()):
        if y in (0.0, 1.0):
            assert z == (-math.inf if y == 0.0 else math.inf)
            continue
        step = NDTRI_ULPS * Decimal(math.ulp(z))
        assert _normal_cdf(Decimal(z) - step) <= Decimal(y) <= _normal_cdf(Decimal(z) + step), (y, z)


@_ndtri_cases
def test_ndtri_agrees_with_scipy(u):
    got = _ndtri(u)
    want = scipy_ndtri(u)
    assert got.shape == want.shape
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(np.signbit(got), np.signbit(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= NDTRI_SCIPY_ULPS * np.spacing(np.abs(want[finite])))


@_ndtri_cases
def test_ndtri_port_equals_scipy_bitwise(u):
    # the central rational keeps Cephes' operation order and takes no log, so
    # wherever y > exp(-2) after folding the port still has scipy's bits
    got = _ndtri(u)
    want = scipy_ndtri(u)
    assert got.shape == want.shape
    central = np.where(u > 1.0 - EXP_M2, 1.0 - u, u) > EXP_M2
    assert np.array_equal(got[central], want[central])
    assert np.array_equal(np.signbit(got[central]), np.signbit(want[central]))


def test_ndtri_port_edges():
    got = _ndtri(np.array([0.0, 1.0, -0.5, 1.5, math.nan, -math.inf, math.inf, -1e300, 1e300, -5e-324]))
    assert got[0] == -math.inf and got[1] == math.inf
    assert np.isnan(got[2:]).all()
    assert _ndtri(0.5).shape == ()


def test_ndtri_bits_do_not_depend_on_the_array_layout():
    # simulate hands _ndtri contiguous (2, rows) blocks; a strided view, a
    # split into blocks, a flat array or a scalar must give the same bits
    view = _covariate_uniforms(4, 20_000)
    edges = np.array([0.0, 2.0 ** -1074, 2.0 ** -53, EXP_M32, EXP_M2, 0.5, 1.0 - EXP_M2, 1.0 - 2.0 ** -53, 1.0])
    view[: edges.size, 0] = edges
    want = _ndtri(np.ascontiguousarray(view))
    assert np.array_equal(_ndtri(view), want)
    stops = np.cumsum([1, 3, 7, 17, 255, 1_023, 4_097, 8_191])
    blocks = np.concatenate([_ndtri(b) for b in np.split(view, stops)])
    assert np.array_equal(blocks, want)
    assert np.array_equal(_ndtri(view.ravel()), want.ravel())
    flat = view.ravel()[:2_000].tolist()
    assert np.array_equal([float(_ndtri(y)) for y in flat], want.ravel()[:2_000])
    assert np.array_equal(np.signbit(blocks), np.signbit(want))


def test_different_seeds_differ():
    a = simulate(default_config(500, seed=42))
    b = simulate(default_config(500, seed=43))
    assert not np.array_equal(a.t, b.t)


def test_observed_is_the_minimum_with_its_cause(bench_latent_100k):
    lat = bench_latent_100k
    obs = lat.observed()
    assert isinstance(obs, Sample)
    assert np.array_equal(obs.t, np.minimum(lat.t1, lat.t2))
    assert np.array_equal(obs.delta == 2, lat.t2 < lat.t1)
    assert np.array_equal(obs.z, lat.z)


@pytest.mark.parametrize(
    "n", [1] + [k * dgp._BLOCK_ROWS + e for k in (1, 2) for e in (-1, 0, 1)]
)
def test_uniform_blocks_are_one_draw(n):
    # Philox continues its stream across blocks: the blocks are the rows of
    # one (n, 4) draw, lifted to the floor, at the first and second block edge
    cfg = default_config(n, seed=2_026)
    want = np.random.Generator(np.random.Philox(key=cfg.seed)).random((n, 4))
    np.maximum(want, 2.0 ** -53, out=want)
    blocks = [(rows, u) for rows, u, *_ in dgp._latent_blocks(cfg)]
    assert len(blocks) == -(-n // dgp._BLOCK_ROWS)
    assert [rows.stop for rows, _ in blocks][-1] == n
    for rows, u in blocks:
        assert u.flags.c_contiguous and u.shape == (4, rows.stop - rows.start)
        assert np.array_equal(u, want[rows].T)
    lat = simulate_latent(cfg)
    assert np.array_equal(lat.s1, want[:, 2])
    observed = lat.observed()
    sample = simulate(cfg)
    for got, ref in ((sample.t, observed.t), (sample.delta, observed.delta), (sample.z, observed.z)):
        assert np.array_equal(got, ref)


def test_simulate_equals_latent_observed():
    cfg = default_config(1_000, seed=11)
    direct = simulate(cfg)
    via_latent = simulate_latent(cfg).observed()
    assert np.array_equal(direct.t, via_latent.t)
    assert np.array_equal(direct.delta, via_latent.delta)
    assert np.array_equal(direct.z, via_latent.z)


def test_covariate_sample_moments(bench_latent_100k):
    z = bench_latent_100k.z
    sd = math.sqrt(0.5)
    assert abs(z.mean()) < 0.01
    assert np.allclose(z.std(axis=0), sd, atol=0.01)
    # the two covariates are drawn independently
    assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) < 0.02


def test_latent_margins_are_the_weibull_laws():
    # With a vanishing covariate scale the observed margins reduce to fixed
    # Weibull laws; the empirical cdfs must stay inside a 99.9% DKW band.
    n = 20_000
    cfg = default_config(n, seed=31_415, covariate_sd=math.sqrt(1e-12))
    lat = simulate_latent(cfg)
    band = math.sqrt(math.log(2.0 / 0.001) / (2.0 * n))  # ~0.0138

    def sup_deviation(values, cdf):
        x = np.sort(values)
        f = cdf(x)
        hi = np.max(np.arange(1, n + 1) / n - f)
        lo = np.max(f - np.arange(0, n) / n)
        return max(hi, lo)

    # cause 1: hazard 0.5 t, cause 2: hazard t (z = 0)
    assert sup_deviation(lat.t1, lambda x: -np.expm1(-0.5 * x)) < band
    assert sup_deviation(lat.t2, lambda x: -np.expm1(-x)) < band


# ----------------------------------------------------------------------
# exact surface
# ----------------------------------------------------------------------

# one design parameter or more per family, on both sides of 0 for Frank;
# Clayton keeps the bare ids it had as the only family
ORACLE_MODELS = [
    pytest.param(CopulaFamily.CLAYTON, 0.5, id="0.5"),
    pytest.param(CopulaFamily.CLAYTON, 2.5, id="2.5"),
    pytest.param(CopulaFamily.GUMBEL, 1.25, id="gumbel-1.25"),
    pytest.param(CopulaFamily.GUMBEL, 3.0, id="gumbel-3.0"),
    pytest.param(CopulaFamily.FRANK, -3.0, id="frank--3.0"),
    pytest.param(CopulaFamily.FRANK, 1.86, id="frank-1.86"),
    pytest.param(CopulaFamily.FRANK, 8.0, id="frank-8.0"),
]


def _oracle_pi(cfg, t, z):
    return oracle_surface(cfg, [t], z)[0, 0]


@pytest.mark.parametrize("family, theta", ORACLE_MODELS)
def test_oracle_surface_first_derivatives_match_finite_differences(family, theta):
    cfg = default_config(10, seed=1, theta=theta, family=family)
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(50):
        t = float(rng.uniform(0.3, 2.5))
        z = rng.uniform(-1.0, 1.0, size=2)
        _, dpi1, dpi2, _ = oracle_surface(cfg, [t], z)[0]
        fd1 = (_oracle_pi(cfg, t, [z[0] + h, z[1]]) - _oracle_pi(cfg, t, [z[0] - h, z[1]])) / (2.0 * h)
        fd2 = (_oracle_pi(cfg, t, [z[0], z[1] + h]) - _oracle_pi(cfg, t, [z[0], z[1] - h])) / (2.0 * h)
        assert dpi1 == pytest.approx(fd1, rel=1e-6)
        assert dpi2 == pytest.approx(fd2, rel=1e-6)


@pytest.mark.parametrize("family, theta", ORACLE_MODELS)
def test_oracle_surface_cross_derivative_matches_finite_differences(family, theta):
    cfg = default_config(10, seed=1, theta=theta, family=family)
    rng = np.random.default_rng(11)

    def stencil(t, z, h):
        return (
            _oracle_pi(cfg, t, [z[0] + h, z[1] + h])
            - _oracle_pi(cfg, t, [z[0] + h, z[1] - h])
            - _oracle_pi(cfg, t, [z[0] - h, z[1] + h])
            + _oracle_pi(cfg, t, [z[0] - h, z[1] - h])
        ) / (4.0 * h * h)

    for _ in range(50):
        t = float(rng.uniform(0.3, 2.5))
        z = rng.uniform(-1.0, 1.0, size=2)
        d2pi = oracle_surface(cfg, [t], z)[0, 3]
        # one Richardson step cancels the h**2 error, so a step of 1e-3 keeps
        # the roundoff (about 1e-16 / h**2) far below the abs floor; a plain
        # stencil at 1e-4 reaches 1.3e-9 at Gumbel theta = 3
        fd = (4.0 * stencil(t, z, 1e-3) - stencil(t, z, 2e-3)) / 3.0
        assert d2pi == pytest.approx(fd, rel=1e-6, abs=1e-9)


def _clayton_closed_form(cfg, t_grid, z):
    """Clayton's surface from its own closed form, row by row in floats."""
    theta = cfg.copula.theta
    m1, m2 = cfg.marginals
    out = np.zeros((len(t_grid), 4))
    for i, t in enumerate(t_grid):
        s1, s2 = float(m1.survival(t, z[0])), float(m2.survival(t, z[1]))
        ds1, ds2 = float(m1.survival_dz(t, z[0])), float(m2.survival_dz(t, z[1]))
        g = s1 ** -theta + s2 ** -theta - 1.0
        if g <= 0.0:
            continue
        dg = g ** (-(1.0 + 1.0 / theta))
        out[i] = (
            g ** (-1.0 / theta),
            s1 ** -(theta + 1.0) * dg * ds1,
            s2 ** -(theta + 1.0) * dg * ds2,
            (1.0 + theta) * g ** (-(2.0 + 1.0 / theta)) * (s1 * s2) ** -(theta + 1.0) * ds1 * ds2,
        )
    return out


@pytest.mark.parametrize("theta", [-0.5, 0.5, 2.5, 8.0])
def test_oracle_surface_matches_clayton_closed_form(theta):
    cfg = default_config(10, seed=1, theta=theta)
    t_grid = np.linspace(0.05, 5.0, 100)
    for z in ((0.0, 0.0), (0.4, -0.3), (-0.5, 0.25)):
        generic = oracle_surface(cfg, t_grid, z)
        closed = _clayton_closed_form(cfg, t_grid, z)
        np.testing.assert_array_equal(generic == 0.0, closed == 0.0)
        np.testing.assert_allclose(generic, closed, rtol=1e-13, atol=0.0)


def test_oracle_surface_negative_theta_derivatives_and_zero_region():
    cfg = default_config(10, seed=1, theta=-0.5)
    # interior point: the joint survival is positive and smooth; far tail:
    # the countermonotone-side copula assigns exactly zero mass
    surf, far = oracle_surface(cfg, [0.5, 4.0], [0.0, 0.0])
    assert surf[0] > 0.0
    h = 1e-5
    fd1 = (_oracle_pi(cfg, 0.5, [h, 0.0]) - _oracle_pi(cfg, 0.5, [-h, 0.0])) / (2.0 * h)
    assert surf[1] == pytest.approx(fd1, rel=1e-6)
    assert far.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_identification_identity_recovers_theta_on_grid():
    # smoke-scale version of the end-to-end identity: the curvature ratio of
    # the exact surface must return the generating theta at machine accuracy
    cfg = default_config(10, seed=1)
    for v in np.linspace(-0.8, 0.8, 5):
        for pi, dpi1, dpi2, d2pi in oracle_surface(cfg, np.linspace(0.5, 2.5, 5), [v, v]).tolist():
            sol = theta_from_ratio(CopulaFamily.CLAYTON, pi, d2pi / (dpi1 * dpi2))
            assert sol.admissible
            assert abs(sol.theta - 0.5) < 1e-10


def test_oracle_surface_limits_in_duration():
    cfg = default_config(10, seed=1)
    assert _oracle_pi(cfg, 1e-8, [0.3, -0.2]) == pytest.approx(1.0, abs=1e-6)
    pis = oracle_surface(cfg, np.linspace(0.1, 5.0, 40), [0.0, 0.0])[:, 0]
    assert np.all(np.diff(pis) < 0.0)  # strictly decreasing in t


def test_oracle_surface_rejects_bad_inputs():
    cfg = default_config(10, seed=1)
    for bad_t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            oracle_surface(cfg, [1.0, bad_t], [0.0, 0.0])
    for bad_grid in (1.0, [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            oracle_surface(cfg, bad_grid, [0.0, 0.0])
    with pytest.raises(ValueError):
        oracle_surface(cfg, [1.0], [0.0, 0.0, 0.0])
    for bad_z in ([math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]):
        with pytest.raises(ValueError, match="finite"):
            oracle_surface(cfg, [1.0], bad_z)
