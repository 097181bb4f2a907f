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
    generator,
    joint_survival,
    kendalls_tau,
    theta_from_ratio,
)
from coprisk.data import Sample
from coprisk.dgp import (
    DEFAULT_MARGINALS,
    DgpConfig,
    WeibullMarginal,
    _libm_log,
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
    as_variance = default_config(10, 1, covariate_scale=0.25)
    as_sd = default_config(10, 1, covariate_scale=0.25, scale_is_sd=True)
    assert as_variance.covariate_sd == 0.5
    assert as_sd.covariate_sd == 0.25


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"n": -5},
        {"seed": -1},
        {"seed": 2**64},
        {"covariate_scale": 0.0},
        {"covariate_scale": -1.0},
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
    public generator API, dphi(s1) / dphi(C(s1, s2)) = v2."""
    dphi_s1 = generator(model, s1).dphi
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        c = joint_survival(model, s1, mid)
        cdf = 0.0 if c == 0.0 else dphi_s1 / generator(model, c).dphi
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
    CopulaModel(CopulaFamily.INDEPENDENCE),
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


def test_conditional_inverse_independence_returns_v2():
    model = CopulaModel(CopulaFamily.INDEPENDENCE)
    assert conditional_copula_inverse(model, 0.37, 0.81) == 0.81


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


def test_independence_family_samples_near_zero_tau():
    cfg = DgpConfig(copula=CopulaModel(CopulaFamily.INDEPENDENCE), n=20_000, seed=7)
    lat = simulate_latent(cfg)
    assert abs(kendalltau(lat.s1, lat.s2).statistic) < 0.02


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
# simulate(default_config(2000, seed=11, theta=..., family=...)).  Clayton's
# was computed while the simulator still drew its normal covariates with
# scipy.special.ndtri; the numpy port must leave every bit unchanged.
# Gumbel's and Frank's were computed when they first drew from the exact
# conditional inverse (version 0.2.0).
DGP_DIGESTS = [
    (CopulaFamily.CLAYTON, 0.5, "089dc85c62528e7ca71991fdf5ab1c14395cca0c4eb1b912bd51aafc2565f597"),
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


# The same digest at n = 100,000 (13 chunks of the Gumbel and Frank
# inverse), computed with the exact conditional inverse of version 0.2.0.
DGP_DIGESTS_100K = [
    (CopulaFamily.GUMBEL, 1.25, "a24d48f6563e15fd9b8616aa9cf683f871fe4ce9b3f1dc81db61fd10907df0f0"),
    (CopulaFamily.GUMBEL, 5.0, "62fa8ef6d8f5280350e3f13e8db79955624452f422eafc8432a15d8cd0a45322"),
    (CopulaFamily.GUMBEL, 50.0, "5594def9a6ad465291e9e4e579d8c4e277590eb8a67b11469820e275bb5c9ac0"),
    (CopulaFamily.FRANK, 1.86, "8e777cc6d6659164c21a6a206fc68bcc6058f9a238cc6bca8edf4ac50a9fde13"),
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


def _covariate_uniforms(seed: int, n: int = 100_000) -> np.ndarray:
    # the strided view simulate_latent hands to the normal quantile
    u = np.random.Generator(np.random.Philox(key=seed)).random((n, 4))
    np.maximum(u, 2.0 ** -53, out=u)
    return u[:, :2]


EXP_M2 = math.exp(-2.0)
EXP_M32 = math.exp(-32.0)  # sqrt(-2 log y) = 8 switches the tail approximation


@given(arrays(np.float64, st.integers(1, 32), elements=st.floats(min_value=0.0, max_value=1.0)))
@example(np.array([2.0 ** -53, 1.0 - 2.0 ** -53, 2.0 ** -1074, 0.5]))
@example(np.array(_around(EXP_M2, 1) + _around(1.0 - EXP_M2, 1)))
@example(np.array(_around(EXP_M32, 64) + _around(1.0 - EXP_M32, 2)))
@example(_covariate_uniforms(1))
@example(_covariate_uniforms(2))
@example(_covariate_uniforms(3))
@settings(max_examples=300, deadline=None)
def test_ndtri_port_equals_scipy_bitwise(u):
    got = _ndtri(u)
    want = scipy_ndtri(u)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_ndtri_port_edges():
    got = _ndtri(np.array([0.0, 1.0, -0.5, 1.5, math.nan]))
    assert got[0] == -math.inf and got[1] == math.inf
    assert np.isnan(got[2:]).all()
    assert _ndtri(0.5).shape == ()


def _assert_math_log_bits(x: np.ndarray) -> None:
    got = _libm_log(x)
    want = np.array([math.log(v) for v in x.tolist()])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# Inputs whose long-double log rounds to the other neighbour of libm's:
# the first three sit on a rounding midpoint in 80-bit long double, the
# last two 0.0005 ulp inside it.
LOG_TIES = [0.103585119275355, 0.03804501922627016, 0.07490847772571527,
            2.8748247306961168, 5.068765757392663]
# where the two logs of _ndtri land on a power of two (the ulp halves below it)
LOG_POWERS_OF_TWO = (
    _around(EXP_M2, 2) + _around(math.exp(-4.0), 2) + _around(math.exp(-8.0), 2)
    + _around(math.exp(-16.0), 2) + _around(EXP_M32, 2) + _around(math.e, 2)
    + _around(math.exp(2.0), 2)
)
tail_ys = st.floats(min_value=2.0 ** -53, max_value=EXP_M2, exclude_min=True)
tail_xs = st.floats(min_value=2.0, max_value=9.0)


@given(arrays(np.float64, st.integers(1, 64), elements=st.one_of(tail_ys, tail_xs)))
@example(np.array(LOG_TIES))
@example(np.array(LOG_POWERS_OF_TWO))
@example(np.array([2.0 ** -53 * (1.0 + 2.0 ** -52), EXP_M2, 2.0, 9.0]))
@settings(max_examples=300, deadline=None)
def test_libm_log_equals_math_log_bitwise(x):
    # the two arguments _ndtri takes logs of: y in (2**-53, e**-2] and
    # x = sqrt(-2 log y) in [2, 9)
    _assert_math_log_bits(x)


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63, reason="ties pinned for the 80-bit long double"
)
def test_libm_log_band_is_needed_at_ties(monkeypatch):
    ties = np.array(LOG_TIES)
    _assert_math_log_bits(ties)
    monkeypatch.setattr(dgp, "_LOG_BAND", 0.0)
    got = _libm_log(ties)
    assert all(g != math.log(v) for g, v in zip(got.tolist(), LOG_TIES))


def test_libm_log_all_fallback_gives_the_same_bits(monkeypatch):
    # a band over half an ulp keeps no long-double value, as on a platform
    # whose long double is no wider than double
    calls = []
    log = math.log

    def spy(v):
        calls.append(v)
        return log(v)

    x = np.concatenate([_covariate_uniforms(4, 2_000).ravel(), np.linspace(2.0, 9.0, 1_001)])
    want = _libm_log(x)
    monkeypatch.setattr(dgp, "_LOG_BAND", 1.0)
    monkeypatch.setattr(math, "log", spy)
    got = _libm_log(x)
    assert len(calls) == x.size
    assert np.array_equal(got, want)


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
    cfg = default_config(n, seed=31_415, covariate_scale=1e-12)
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
# closed-form Clayton surface
# ----------------------------------------------------------------------


def _oracle_pi(cfg, t, z):
    return oracle_surface(cfg, [t], z)[0, 0]


@pytest.mark.parametrize("theta", [0.5, 2.5])
def test_oracle_surface_first_derivatives_match_finite_differences(theta):
    cfg = default_config(10, seed=1, theta=theta)
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


@pytest.mark.parametrize("theta", [0.5, 2.5])
def test_oracle_surface_cross_derivative_matches_finite_differences(theta):
    cfg = default_config(10, seed=1, theta=theta)
    rng = np.random.default_rng(11)
    h = 1e-4
    for _ in range(50):
        t = float(rng.uniform(0.3, 2.5))
        z = rng.uniform(-1.0, 1.0, size=2)
        d2pi = oracle_surface(cfg, [t], z)[0, 3]
        fd = (
            _oracle_pi(cfg, t, [z[0] + h, z[1] + h])
            - _oracle_pi(cfg, t, [z[0] + h, z[1] - h])
            - _oracle_pi(cfg, t, [z[0] - h, z[1] + h])
            + _oracle_pi(cfg, t, [z[0] - h, z[1] - h])
        ) / (4.0 * h * h)
        # abs floor covers stencil roundoff (~1e-11) where the derivative is tiny
        assert d2pi == pytest.approx(fd, rel=1e-6, abs=1e-9)


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
    gumbel_cfg = DgpConfig(copula=CopulaModel(CopulaFamily.GUMBEL, 2.0), n=10, seed=1)
    with pytest.raises(ValueError):
        oracle_surface(gumbel_cfg, [1.0], [0.0, 0.0])
    cfg = default_config(10, seed=1)
    for bad_t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            oracle_surface(cfg, [1.0, bad_t], [0.0, 0.0])
    for bad_grid in (1.0, [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            oracle_surface(cfg, bad_grid, [0.0, 0.0])
    with pytest.raises(ValueError):
        oracle_surface(cfg, [1.0], [0.0, 0.0, 0.0])
