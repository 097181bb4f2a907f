"""Generator algebra, theta inversion, and tau tests.

Frozen reference numbers were produced with mpmath at 50 significant
digits: generator values and derivatives from the raw generator
expressions, curvature ratios from high-precision central differences at
step 1e-6, Frank taus from high-precision quadrature of the Debye
integrand.  Runtime oracles (bisection, quotient identities) only use the
public generator values, never the code paths they are checking.  The Brent
and QUADPACK ports are checked bit for bit against scipy.optimize.brentq and
scipy.integrate.quad, which they port.
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq as scipy_brentq

from coprisk import (
    CopulaFamily,
    CopulaModel,
    NoRootError,
    check_ordering_condition,
    generator,
    inverse_generator,
    joint_survival,
    kendalls_tau,
    phi_log_deriv_ratio,
    theta_for_tau,
    theta_from_ratio,
)
from coprisk._quadpack import quad
from coprisk.copula import (
    FRANK_BRACKET,
    FRANK_DEAD_ZONE,
    _brentq,
    _debye_integrand,
    _frank_curvature,
)

CLAYTON = CopulaFamily.CLAYTON
GUMBEL = CopulaFamily.GUMBEL
FRANK = CopulaFamily.FRANK
INDEP = CopulaFamily.INDEPENDENCE

# mpmath 50-digit references
CLAYTON_HALF_PHI = 0.82842712474619010
CLAYTON_HALF_DPHI_FD = -2.8284271247532612  # central diff, step 1e-6
CLAYTON_HALF_D2PHI_FD = 8.4852813742633190  # central diff, step 1e-6
FRANK2_JOINT_06_09 = 0.56133431581268420
GUMBEL2_RATIO_HALF_FD = -4.8853900817718965  # central diff, step 1e-6
FRANK1_RATIO_HALF_FD = -2.5414940825375930  # central diff, step 1e-6
FRANK3_RATIO_04 = -4.2930382820799994
FRANK_TAU_5 = 0.45670095816011690
FRANK_TAU_1 = 0.11001853644899311


def theta_strategy(family):
    if family is CLAYTON:
        return st.one_of(
            st.floats(min_value=-1.0, max_value=-1e-3),
            st.floats(min_value=1e-3, max_value=30.0),
        )
    if family is GUMBEL:
        return st.floats(min_value=1.0 + 1e-3, max_value=30.0)
    return st.one_of(
        st.floats(min_value=-30.0, max_value=-1e-3),
        st.floats(min_value=1e-3, max_value=30.0),
    )


# ----------------------------------------------------------------------
# generator values and derivatives
# ----------------------------------------------------------------------


def test_generator_at_one_is_zero():
    for fam, th in [(CLAYTON, 0.5), (GUMBEL, 2.0), (FRANK, 1.0), (INDEP, None)]:
        assert generator(CopulaModel(fam, th), 1.0).phi == 0.0


def test_gumbel_unit_e_inverse():
    # phi(s) = (-log s)^theta, so s = 1/e gives exactly 1
    val = generator(CopulaModel(GUMBEL, 2.0), math.exp(-1.0))
    assert val.phi == pytest.approx(1.0, abs=1e-14)


def test_clayton_half_against_frozen_oracle():
    val = generator(CopulaModel(CLAYTON, 0.5), 0.5)
    assert val.phi == pytest.approx(CLAYTON_HALF_PHI, rel=1e-14)
    assert val.dphi == pytest.approx(CLAYTON_HALF_DPHI_FD, rel=1e-6)
    assert val.d2phi == pytest.approx(CLAYTON_HALF_D2PHI_FD, rel=1e-6)


@pytest.mark.parametrize(
    "family,theta",
    [(CLAYTON, 0.5), (CLAYTON, -0.5), (GUMBEL, 2.5), (FRANK, 1.5), (FRANK, -4.0)],
)
def test_derivatives_match_runtime_finite_differences(family, theta):
    # dphi via 5-point stencil at 1e-4 keeps float roundoff below 1e-8 rel
    model = CopulaModel(family, theta)
    h = 1e-4
    for s in (0.2, 0.5, 0.8):
        f = lambda x: generator(model, x).phi
        d1 = (f(s - 2 * h) - 8 * f(s - h) + 8 * f(s + h) - f(s + 2 * h)) / (12 * h)
        d2 = (f(s + h) - 2 * f(s) + f(s - h)) / (h * h)
        val = generator(model, s)
        assert val.dphi == pytest.approx(d1, rel=1e-8)
        assert val.d2phi == pytest.approx(d2, rel=1e-5)


@pytest.mark.parametrize("family", [CLAYTON, GUMBEL, FRANK, INDEP])
def test_generator_shape(family):
    theta = {CLAYTON: 0.7, GUMBEL: 1.8, FRANK: -2.0, INDEP: None}[family]
    model = CopulaModel(family, theta)
    for s in np.linspace(0.01, 0.99, 25):
        val = generator(model, float(s))
        assert val.phi > 0.0
        assert val.dphi < 0.0
        assert val.d2phi >= 0.0


@given(st.floats(min_value=1e-4, max_value=1.0))
@settings(max_examples=120, deadline=None)
def test_generator_decreasing_convex_clayton_edge(s):
    # theta = -1 is the domain edge: linear generator 1 - s
    val = generator(CopulaModel(CLAYTON, -1.0), s)
    assert val.phi == pytest.approx(1.0 - s, rel=1e-12, abs=1e-15)
    assert val.dphi == pytest.approx(-1.0, rel=1e-12)
    assert val.d2phi == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# inverse generator
# ----------------------------------------------------------------------


def test_inverse_at_zero_is_one():
    for fam, th in [(CLAYTON, 0.5), (CLAYTON, -0.5), (GUMBEL, 2.0), (FRANK, 3.0), (INDEP, None)]:
        assert inverse_generator(CopulaModel(fam, th), 0.0) == 1.0


def test_clayton_negative_theta_convention():
    # phi(0) = -1/theta = 2: at and past it the inverse is exactly 0
    model = CopulaModel(CLAYTON, -0.5)
    assert inverse_generator(model, 2.0) == 0.0
    assert inverse_generator(model, 2.5) == 0.0
    assert inverse_generator(model, 1.999999) > 0.0


@pytest.mark.parametrize("family", [CLAYTON, GUMBEL, FRANK])
@given(data=st.data(), s=st.floats(min_value=1e-4, max_value=1.0))
@settings(max_examples=350, deadline=None)
def test_generator_round_trip(family, data, s):
    theta = data.draw(theta_strategy(family))
    model = CopulaModel(family, theta)
    back = inverse_generator(model, generator(model, s).phi)
    assert back == pytest.approx(s, abs=1e-10)


def test_round_trip_independence():
    model = CopulaModel(INDEP)
    for s in (1e-4, 0.3, 0.99, 1.0):
        assert inverse_generator(model, generator(model, s).phi) == pytest.approx(s, abs=1e-12)


# ----------------------------------------------------------------------
# joint survival
# ----------------------------------------------------------------------


def test_joint_survival_unit_margin_is_identity():
    for fam, th in [(CLAYTON, 0.5), (GUMBEL, 2.0), (FRANK, -3.0), (INDEP, None)]:
        model = CopulaModel(fam, th)
        assert joint_survival(model, 1.0, 0.7) == pytest.approx(0.7, abs=1e-12)
        assert joint_survival(model, 0.7, 1.0) == pytest.approx(0.7, abs=1e-12)


def test_clayton_joint_survival_closed_form():
    model = CopulaModel(CLAYTON, 0.5)
    expected = (0.8 ** -0.5 + 0.8 ** -0.5 - 1.0) ** -2.0
    assert joint_survival(model, 0.8, 0.8) == pytest.approx(expected, rel=1e-13)


def test_frank_joint_survival_against_frozen_and_bisection():
    model = CopulaModel(FRANK, 2.0)
    got = joint_survival(model, 0.6, 0.9)
    assert got == pytest.approx(FRANK2_JOINT_06_09, abs=1e-12)
    # runtime oracle: invert phi by plain bisection on the public generator
    total = generator(model, 0.6).phi + generator(model, 0.9).phi
    lo, hi = 1e-12, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if generator(model, mid).phi > total:  # phi decreasing: too far left
            lo = mid
        else:
            hi = mid
    assert got == pytest.approx(0.5 * (lo + hi), abs=1e-10)


@pytest.mark.parametrize("family", [CLAYTON, GUMBEL, FRANK])
@given(
    data=st.data(),
    s1=st.floats(min_value=1e-3, max_value=1.0),
    s2=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_joint_survival_frechet_bounds(family, data, s1, s2):
    theta = data.draw(theta_strategy(family))
    pi = joint_survival(CopulaModel(family, theta), s1, s2)
    assert 0.0 <= pi <= min(s1, s2) + 1e-12


# ----------------------------------------------------------------------
# curvature ratio
# ----------------------------------------------------------------------


def test_ratio_closed_forms_against_frozen_fd():
    assert phi_log_deriv_ratio(CopulaModel(CLAYTON, 0.5), 0.5) == -3.0
    assert phi_log_deriv_ratio(CopulaModel(GUMBEL, 2.0), 0.5) == pytest.approx(
        GUMBEL2_RATIO_HALF_FD, rel=1e-6
    )
    assert phi_log_deriv_ratio(CopulaModel(FRANK, 1.0), 0.5) == pytest.approx(
        FRANK1_RATIO_HALF_FD, rel=1e-6
    )
    assert phi_log_deriv_ratio(CopulaModel(INDEP), 0.25) == -4.0


@pytest.mark.parametrize("family", [CLAYTON, GUMBEL, FRANK])
@given(data=st.data(), pi=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=150, deadline=None)
def test_ratio_equals_generator_quotient(family, data, pi):
    theta = data.draw(theta_strategy(family))
    model = CopulaModel(family, theta)
    val = generator(model, pi)
    assert phi_log_deriv_ratio(model, pi) == pytest.approx(
        val.d2phi / val.dphi, rel=1e-10
    )


def test_ratio_is_negative():
    for fam, th in [(CLAYTON, 3.0), (GUMBEL, 5.0), (FRANK, 8.0), (FRANK, -8.0)]:
        for pi in (0.05, 0.5, 0.95):
            assert phi_log_deriv_ratio(CopulaModel(fam, th), pi) < 0.0


# ----------------------------------------------------------------------
# theta from the curvature ratio
# ----------------------------------------------------------------------


def test_clayton_theta_closed_form():
    # ratio (theta+1)/pi with pi=0.8, theta=0.5 gives R=1.875
    sol = theta_from_ratio(CLAYTON, 0.8, 1.875)
    assert sol.theta == pytest.approx(0.5, abs=1e-15)
    assert sol.admissible
    assert sol.iterations == 0


def test_frank_root_against_frozen_ratio():
    sol = theta_from_ratio(FRANK, 0.4, -FRANK3_RATIO_04)
    assert sol.theta == pytest.approx(3.0, abs=1e-9)
    assert sol.admissible
    assert sol.iterations > 0
    assert not sol.near_independence


@pytest.mark.parametrize(
    "family,thetas",
    [
        (CLAYTON, [-1.0, -0.5, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0]),
        (GUMBEL, [1.1, 1.5, 2.0, 3.0, 5.0, 8.0]),
        (FRANK, [-20.0, -5.0, -0.5, 0.5, 2.0, 5.0, 20.0]),
    ],
)
def test_theta_round_trip_through_ratio(family, thetas):
    for theta in thetas:
        model = CopulaModel(family, theta)
        for pi in (0.1, 0.3, 0.5, 0.7, 0.9):
            ratio = -phi_log_deriv_ratio(model, pi)
            sol = theta_from_ratio(family, pi, ratio)
            assert sol.theta == pytest.approx(theta, abs=1e-8)
            assert sol.admissible


def test_gumbel_inadmissible_flagged_not_raised():
    # pi*R < 1 forces theta < 1, outside the Gumbel domain
    sol = theta_from_ratio(GUMBEL, 0.5, 1.0)
    assert sol.theta < 1.0
    assert not sol.admissible


def test_clayton_inadmissible_flagged():
    sol = theta_from_ratio(CLAYTON, 0.5, -1.0)
    assert sol.theta == -1.5
    assert not sol.admissible


def test_frank_no_root_raises():
    # the Frank curvature is negative for every theta, so R < 0 cannot match
    with pytest.raises(NoRootError):
        theta_from_ratio(FRANK, 0.5, -1.0)


def test_frank_near_independence_dead_zone():
    # a ratio of 1/pi corresponds to the theta -> 0 limit
    sol = theta_from_ratio(FRANK, 0.5, 2.0)
    assert abs(sol.theta) < 1e-6
    assert sol.near_independence


def test_frank_curvature_monotone_in_theta():
    # strict decrease over the bracket backs uniqueness of the root
    pis = (0.2, 0.5, 0.8)
    grid = np.linspace(-50.0, 50.0, 401)
    for pi in pis:
        vals = [phi_log_deriv_ratio(CopulaModel(FRANK, t), pi) if t != 0 else -1.0 / pi for t in grid]
        assert np.all(np.diff(vals) < 0.0)


# ----------------------------------------------------------------------
# Brent port: scipy.optimize.brentq is the bitwise oracle
# ----------------------------------------------------------------------


def _same_float(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)  # signed zeros and NaNs too


_PI = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e).filter(lambda p: p < 1.0),
)
_THETA = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-1e-6, max_value=1e-6),
)


@given(pi=_PI, theta=_THETA)
@example(pi=2.0**-53, theta=3.0)
@example(pi=1.0 - 2.0**-53, theta=-3.0)
@example(pi=1e-12, theta=49.0)
@example(pi=0.5, theta=1e-6)
@example(pi=0.5, theta=-1e-6)
@example(pi=0.5, theta=0.0)
@example(pi=1.0 - 2.0**-53, theta=-50.0)
@settings(max_examples=400, deadline=None)
def test_brentq_port_equals_scipy_bitwise(pi, theta):
    # the Frank curvature equation exactly as theta_from_ratio sets it up
    ratio = -_frank_curvature(theta, pi)
    lo, hi = FRANK_BRACKET

    def g(th):
        return _frank_curvature(th, pi) + ratio

    glo, ghi = g(lo), g(hi)
    assume(glo != 0.0 and ghi != 0.0 and (glo > 0.0) != (ghi > 0.0))
    want, res = scipy_brentq(g, lo, hi, xtol=1e-10, full_output=True)
    root, iterations = _brentq(g, lo, hi, 1e-10)
    assert _same_float(root, want)
    assert iterations == res.iterations
    sol = theta_from_ratio(FRANK, pi, ratio)
    assert _same_float(sol.theta, want)
    assert sol.iterations == res.iterations


def _scipy_debye1(x):
    """D1 as computed before the QUADPACK port: scipy's quad on t/(e^t - 1)."""

    def integrand(t):
        if t == 0.0:
            return 1.0
        return t / math.expm1(t)

    val, _ = scipy_quad(integrand, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val / x


@pytest.mark.parametrize("tau", [-0.9, -0.45, -0.1, 0.001, 0.2, 0.3, 0.75, 0.98])
def test_theta_for_tau_brent_equals_scipy_bitwise(tau):
    # scipy on both sides of the reference: its Brent on a tau curve built
    # from its quad, so neither port appears in it
    lo, hi = (1e-6, 500.0) if tau > 0 else (-500.0, -1e-6)

    def f(th):
        return 1.0 - 4.0 / th * (1.0 - _scipy_debye1(th)) - tau

    assert _same_float(theta_for_tau(FRANK, tau), scipy_brentq(f, lo, hi, xtol=1e-12))


def test_brentq_port_exact_zero_at_an_end():
    # scipy returns the same end but leaves its iteration count unset there
    # (it reports whatever its stack held), so only the root is compared
    for f, a, b in ((lambda x: x - 0.5, 0.5, 1.0), (lambda x: 1.0 - x, 0.5, 1.0)):
        root, iterations = _brentq(f, a, b, 1e-10)
        assert _same_float(root, scipy_brentq(f, a, b, xtol=1e-10))
        assert iterations == 0
    pi = 0.3
    sol = theta_from_ratio(FRANK, pi, -_frank_curvature(50.0, pi))
    assert (sol.theta, sol.iterations) == (50.0, 0)


def _step(x):
    return 1.0 if x > 0.1 else -1.0


def _nan_inside(x):
    return x - 0.7 if x in (0.0, 1.0) else math.nan


@pytest.mark.parametrize(
    "f, a, b, xtol, error",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, 1e-10, ValueError),  # no sign change
        (_step, -1e300, 1e300, 1e-300, RuntimeError),  # 100 halvings of 1e300 fall short
        (lambda x: math.nan, 0.0, 1.0, 1e-10, ValueError),  # NaN at an end
        (_nan_inside, 0.0, 1.0, 1e-10, ValueError),  # NaN at the first step
    ],
)
def test_brentq_port_raises_as_scipy(f, a, b, xtol, error):
    with pytest.raises(error):
        scipy_brentq(f, a, b, xtol=xtol)
    with pytest.raises(error):
        _brentq(f, a, b, xtol)


# ----------------------------------------------------------------------
# QUADPACK port: scipy.integrate.quad is the bitwise oracle
# ----------------------------------------------------------------------


def _assert_quad_equals_scipy(f, a, b, epsabs, epsrel, limit):
    want = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    got = quad(f, a, b, epsabs, epsrel, limit)
    assert _same_float(got[0], want[0]), (got, want[:2])
    assert _same_float(got[1], want[1]), (got, want[:2])
    assert got[2] == want[2]["neval"]
    return got


_DEBYE_X = st.one_of(
    st.floats(min_value=-500.0, max_value=709.0),
    st.floats(min_value=-8.0, max_value=2.85).map(lambda e: 10.0**e),
    st.floats(min_value=-8.0, max_value=2.69).map(lambda e: -(10.0**e)),
)


@given(x=_DEBYE_X)
@example(x=FRANK_DEAD_ZONE)
@example(x=-FRANK_DEAD_ZONE)
@example(x=500.0)
@example(x=-500.0)
@example(x=709.0)
@example(x=5e-324)
@example(x=-5e-324)
# where the integral overflows, quad returns NaN after up to 200 subintervals
@example(x=-(10.0**154.5))
@example(x=-1e155)
@example(x=-1e200)
@example(x=-sys.float_info.max)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quad_port_equals_scipy_bitwise_on_the_debye_integrand(x):
    _assert_quad_equals_scipy(_debye_integrand, 0.0, x, 1e-12, 1e-12, 200)


@pytest.mark.parametrize("x, subintervals", [(1.86, 1), (-500.0, 6), (500.0, 7), (709.0, 8)])
def test_quad_port_subdivides_as_scipy(x, subintervals):
    _, _, neval = _assert_quad_equals_scipy(_debye_integrand, 0.0, x, 1e-12, 1e-12, 200)
    assert neval == 42 * subintervals - 21  # 21 points per subinterval, counted as QUADPACK does


def test_quad_port_rejects_tolerances_as_scipy():
    # with no absolute tolerance, epsrel below 50 eps cannot be met
    with pytest.raises(ValueError):
        scipy_quad(_debye_integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-15)
    with pytest.raises(ValueError):
        quad(_debye_integrand, 0.0, 1.0, 0.0, 1e-15, 50)


def _singular(kind, c):
    if kind == 0:
        return lambda t: 1.0 / math.sqrt(abs(t - c)) if t != c else 0.0
    if kind == 1:
        return lambda t: math.log(abs(t - c)) if t != c else 0.0
    return lambda t: 1.0 if t > c else -2.0


@given(
    kind=st.integers(0, 2),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    c=st.floats(-3.0, 3.0),
    eps=st.sampled_from(
        [(0.0, 1e-12), (1e-14, 1e-14), (1e-12, 1e-12), (1.49e-8, 1.49e-8), (1e-4, 0.0)]
    ),
    limit=st.sampled_from([1, 2, 3, 10, 50]),
)
# an error estimate set by the epsilon algorithm's floor of 5 eps |result|
@example(
    kind=1,
    a=1.4314273793644903,
    b=-0.7882329777540997,
    c=2.0645056000821533,
    eps=(1e-14, 1e-14),
    limit=10,
)
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quad_port_equals_scipy_bitwise_on_singular_integrands(kind, a, b, c, eps, limit):
    # the epsilon algorithm, the error-list ordering and the exits of a short
    # subdivision limit, which the smooth Debye integrand reaches less often
    _assert_quad_equals_scipy(_singular(kind, c), a, b, *eps, limit)


# ----------------------------------------------------------------------
# Kendall's tau
# ----------------------------------------------------------------------


def test_tau_closed_forms():
    assert kendalls_tau(CopulaModel(CLAYTON, 0.5)) == pytest.approx(0.2, abs=1e-15)
    assert kendalls_tau(CopulaModel(GUMBEL, 2.0)) == 0.5
    assert kendalls_tau(CopulaModel(INDEP)) == 0.0


def test_frank_tau_against_frozen_quadrature():
    assert kendalls_tau(CopulaModel(FRANK, 5.0)) == pytest.approx(FRANK_TAU_5, abs=1e-10)
    assert kendalls_tau(CopulaModel(FRANK, 1.0)) == pytest.approx(FRANK_TAU_1, abs=1e-10)


def test_frank_tau_antisymmetry_and_small_theta():
    for th in (0.5, 2.0, 5.0, 15.0):
        assert kendalls_tau(CopulaModel(FRANK, -th)) == pytest.approx(
            -kendalls_tau(CopulaModel(FRANK, th)), abs=1e-12
        )
    # tau ~ theta/9 near zero
    assert abs(kendalls_tau(CopulaModel(FRANK, 0.001))) < 1e-3


@pytest.mark.parametrize("theta", [712.0, 1000.0])
def test_frank_tau_past_the_expm1_overflow(theta):
    # e^t overflows for t > 709.78 inside the Debye integral; there
    # D1(theta) = pi^2/(6 theta) up to terms below e^-709
    asymptote = 1.0 - 4.0 / theta * (1.0 - math.pi**2 / (6.0 * theta))
    assert kendalls_tau(CopulaModel(FRANK, theta)) == pytest.approx(asymptote, abs=1e-15)


@pytest.mark.parametrize(
    "family,tau",
    [
        (CLAYTON, 0.2),
        (CLAYTON, -0.2),
        (CLAYTON, -0.5),
        (GUMBEL, 0.5),
        (FRANK, 0.2),
        (FRANK, -0.45),
    ],
)
def test_theta_for_tau_round_trip(family, tau):
    theta = theta_for_tau(family, tau)
    assert kendalls_tau(CopulaModel(family, theta)) == pytest.approx(tau, abs=1e-10)


def test_theta_for_tau_rejects_unreachable():
    with pytest.raises(ValueError):
        theta_for_tau(GUMBEL, -0.2)
    with pytest.raises(ValueError):
        theta_for_tau(CLAYTON, 0.0)
    with pytest.raises(ValueError):
        theta_for_tau(FRANK, 0.999)  # beyond the invertible bracket


# ----------------------------------------------------------------------
# ordering condition
# ----------------------------------------------------------------------


def test_ordering_condition_holds_within_families():
    grid = np.linspace(0.005, 0.995, 200)
    assert check_ordering_condition(CLAYTON, 2.0, 0.5, grid)
    assert check_ordering_condition(GUMBEL, 3.0, 1.5, grid)
    assert check_ordering_condition(FRANK, 4.0, 1.0, grid)
    assert check_ordering_condition(FRANK, 1.0, -3.0, grid)


def test_ordering_condition_rejects_bad_input():
    grid = np.linspace(0.01, 0.99, 50)
    with pytest.raises(ValueError):
        check_ordering_condition(CLAYTON, 0.5, 0.5, grid)  # equal thetas
    with pytest.raises(ValueError):
        check_ordering_condition(CLAYTON, 0.5, 2.0, grid)  # wrong order
    with pytest.raises(ValueError):
        check_ordering_condition(CLAYTON, 2.0, 0.5, [0.5, 0.4])  # not increasing
    with pytest.raises(ValueError):
        check_ordering_condition(CLAYTON, 2.0, 0.5, [0.0, 0.5])  # touches 0
    with pytest.raises(ValueError):
        check_ordering_condition(INDEP, 1.0, 0.0, grid)


# ----------------------------------------------------------------------
# domain validation
# ----------------------------------------------------------------------


def test_model_domain_rejections():
    with pytest.raises(ValueError):
        CopulaModel(CLAYTON, 0.0)
    with pytest.raises(ValueError):
        CopulaModel(CLAYTON, -1.2)
    with pytest.raises(ValueError):
        CopulaModel(GUMBEL, 1.0)
    with pytest.raises(ValueError):
        CopulaModel(FRANK, 0.0)
    # the dead zone around 0, where the generator loses precision and is NaN
    # once exp(-theta) rounds to 1
    for tiny in (1e-17, -1e-17, 5e-7, -math.nextafter(FRANK_DEAD_ZONE, 0.0)):
        with pytest.raises(ValueError, match="Frank"):
            CopulaModel(FRANK, tiny)
    CopulaModel(FRANK, FRANK_DEAD_ZONE)  # the dead zone's edges are legal
    CopulaModel(FRANK, -FRANK_DEAD_ZONE)
    with pytest.raises(ValueError):
        CopulaModel(CLAYTON, math.nan)
    with pytest.raises(ValueError):
        CopulaModel(CLAYTON, math.inf)
    with pytest.raises(ValueError):
        CopulaModel(INDEP, 1.0)
    CopulaModel(CLAYTON, -1.0)  # closed edge is legal
    CopulaModel(INDEP)


def test_argument_domain_rejections():
    model = CopulaModel(CLAYTON, 0.5)
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            generator(model, bad)
    with pytest.raises(ValueError):
        inverse_generator(model, -1e-9)
    with pytest.raises(ValueError):
        joint_survival(model, 0.0, 0.5)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            phi_log_deriv_ratio(model, bad)
        with pytest.raises(ValueError):
            theta_from_ratio(CLAYTON, bad, 1.0)
    with pytest.raises(ValueError):
        theta_from_ratio(CLAYTON, 0.5, math.inf)
    with pytest.raises(ValueError):
        theta_from_ratio(INDEP, 0.5, 1.0)
