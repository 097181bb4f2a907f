"""Generator algebra, theta inversion, and tau tests.

Frozen reference numbers were produced with mpmath at 50 significant
digits: generator values and derivatives from the raw generator
expressions, curvature ratios from high-precision central differences at
step 1e-6, Frank taus from the closed form pi^2/6 + x log(1 - e^-x) -
Li2(e^-x) of the Debye integral, checked against mpmath's quadrature of the
integrand, and Frank theta(tau) roots by mpmath's findroot on that closed
form.  Runtime oracles (bisection, quotient identities) only use the
generator values of the array routes _phi, _dphi and _d2phi, never the
code paths they are checking.  The Frank roots, of the curvature equation
and of the tau curve, are checked against roots of the exact equations
found in 50-digit ``decimal`` arithmetic.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coprisk import (
    CopulaFamily,
    CopulaModel,
    NoRootError,
    check_ordering_condition,
    kendalls_tau,
    theta_for_tau,
    theta_from_ratio,
)
from coprisk.copula import (
    _FRANK_TAU_SERIES,
    FRANK_BRACKET,
    FRANK_DEAD_ZONE,
    _d2phi,
    _dphi,
    _frank_curvature,
    _phi,
    _phi_inv,
)

CLAYTON = CopulaFamily.CLAYTON
GUMBEL = CopulaFamily.GUMBEL
FRANK = CopulaFamily.FRANK

# mpmath 50-digit references
CLAYTON_HALF_PHI = 0.82842712474619010
CLAYTON_HALF_DPHI_FD = -2.8284271247532612  # central diff, step 1e-6
CLAYTON_HALF_D2PHI_FD = 8.4852813742633190  # central diff, step 1e-6
FRANK2_JOINT_06_09 = 0.56133431581268420
GUMBEL2_RATIO_HALF_FD = -4.8853900817718965  # central diff, step 1e-6
FRANK1_RATIO_HALF_FD = -2.5414940825375930  # central diff, step 1e-6
FRANK3_RATIO_04 = -4.2930382820799994
# Frank (theta, tau): near 0, on both sides of the series switch at |theta| = 3,
# and out to where e^theta overflows and beyond
FRANK_TAU = (
    (1e-06, 1.1111111111111e-07),
    (-1e-06, -1.1111111111111e-07),
    (0.001, 0.00011111111000000002),
    (0.1, 0.01111000018892774),
    (1.0, 0.1100185364489931),
    (1.86, 0.19991108467560106),
    (2.9999999999999996, 0.3072469594307237),
    (3.0, 0.3072469594307238),
    (-3.0, -0.3072469594307238),
    (5.0, 0.4567009581601169),
    (20.0, 0.81644934023564),
    (-38.0, -0.8992934461685547),
    (500.0, 0.9920263189450695),
    (712.0, 0.9943950016890769),
    (10000.0, 0.9996000657973627),
)
# Frank tau -> theta roots, to 21 digits
FRANK_THETA_FOR_TAU = (
    (0.2, 1.86088378085859532516),
    (-0.45, -4.89420211201305068095),
    (0.001, 0.00900000729000767254855),
    (0.75, 14.1385039129865714486),
    (0.98, 198.341309665014731145),
    (-0.9, -38.281209952464068377),
)


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


def _generator(model, s):
    """phi, phi', phi'' at s through the array routes the solve, oracle-check
    and oracle_surface evaluate."""
    fam, th = model.family, model.theta
    s = np.asarray(s, dtype=float)
    return _phi(fam, th, s), _dphi(fam, th, s), _d2phi(fam, th, s)


def _joint(model, s1, s2):
    """pi = phi_inv(phi(s1) + phi(s2)), composed as oracle_surface composes it."""
    fam, th = model.family, model.theta
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    return _phi_inv(fam, th, _phi(fam, th, s1) + _phi(fam, th, s2))


def _ratio(model, pi):
    """The curvature phi''/phi' at pi, the quotient oracle-check inverts."""
    _, dphi, d2phi = _generator(model, pi)
    return d2phi / dphi


def test_generator_at_one_is_zero():
    for fam, th in [(CLAYTON, 0.5), (GUMBEL, 2.0), (FRANK, 1.0)]:
        assert _phi(fam, th, 1.0) == 0.0


def test_gumbel_unit_e_inverse():
    # phi(s) = (-log s)^theta, so s = 1/e gives exactly 1
    assert _phi(GUMBEL, 2.0, math.exp(-1.0)) == pytest.approx(1.0, abs=1e-14)


def test_clayton_half_against_frozen_oracle():
    phi, dphi, d2phi = _generator(CopulaModel(CLAYTON, 0.5), 0.5)
    assert phi == pytest.approx(CLAYTON_HALF_PHI, rel=1e-14)
    assert dphi == pytest.approx(CLAYTON_HALF_DPHI_FD, rel=1e-6)
    assert d2phi == pytest.approx(CLAYTON_HALF_D2PHI_FD, rel=1e-6)


@pytest.mark.parametrize(
    "family,theta",
    [(CLAYTON, 0.5), (CLAYTON, -0.5), (GUMBEL, 2.5), (FRANK, 1.5), (FRANK, -4.0)],
)
def test_derivatives_match_runtime_finite_differences(family, theta):
    # dphi via 5-point stencil at 1e-4 keeps float roundoff below 1e-8 rel
    model = CopulaModel(family, theta)
    h = 1e-4
    s = np.array([0.2, 0.5, 0.8])
    f = lambda x: _phi(family, theta, x)
    d1 = (f(s - 2 * h) - 8 * f(s - h) + 8 * f(s + h) - f(s + 2 * h)) / (12 * h)
    d2 = (f(s + h) - 2 * f(s) + f(s - h)) / (h * h)
    _, dphi, d2phi = _generator(model, s)
    np.testing.assert_allclose(dphi, d1, rtol=1e-8)
    np.testing.assert_allclose(d2phi, d2, rtol=1e-5)


@pytest.mark.parametrize("family", [CLAYTON, GUMBEL, FRANK])
def test_generator_shape(family):
    theta = {CLAYTON: 0.7, GUMBEL: 1.8, FRANK: -2.0}[family]
    phi, dphi, d2phi = _generator(CopulaModel(family, theta), np.linspace(0.01, 0.99, 25))
    assert np.all(phi > 0.0)
    assert np.all(dphi < 0.0)
    assert np.all(d2phi >= 0.0)


@given(st.floats(min_value=1e-4, max_value=1.0))
@settings(max_examples=120, deadline=None)
def test_generator_decreasing_convex_clayton_edge(s):
    # theta = -1 is the domain edge: linear generator 1 - s
    phi, dphi, d2phi = _generator(CopulaModel(CLAYTON, -1.0), s)
    assert phi == pytest.approx(1.0 - s, rel=1e-12, abs=1e-15)
    assert dphi == pytest.approx(-1.0, rel=1e-12)
    assert d2phi == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# inverse generator, through the joint survival phi_inv(phi(s1) + phi(s2))
# ----------------------------------------------------------------------


def test_inverse_at_zero_is_one():
    # phi(1) = 0, so C(1, 1) is phi_inv(0)
    for fam, th in [(CLAYTON, 0.5), (CLAYTON, -0.5), (GUMBEL, 2.0), (FRANK, 3.0)]:
        assert _joint(CopulaModel(fam, th), 1.0, 1.0) == 1.0


def test_clayton_negative_theta_convention():
    # phi(0) = -1/theta = 2: at and past it the inverse is exactly 0
    model = CopulaModel(CLAYTON, -0.5)
    assert _phi(CLAYTON, -0.5, 0.25) == 1.0
    assert _joint(model, 0.25, 0.25) == 0.0  # phi sum 2
    assert _joint(model, 0.2, 0.2) == 0.0  # phi sum about 2.21
    assert _joint(model, 0.2500001, 0.2500001) > 0.0  # phi sum just below 2


@pytest.mark.parametrize("family", [CLAYTON, GUMBEL, FRANK])
@given(data=st.data(), s=st.floats(min_value=1e-4, max_value=1.0))
@settings(max_examples=350, deadline=None)
def test_generator_round_trip(family, data, s):
    # C(s, 1) = phi_inv(phi(s) + 0)
    theta = data.draw(theta_strategy(family))
    model = CopulaModel(family, theta)
    assert _phi(family, theta, 1.0) == 0.0
    assert _joint(model, s, 1.0) == pytest.approx(s, abs=1e-10)


# ----------------------------------------------------------------------
# joint survival
# ----------------------------------------------------------------------


def test_joint_survival_unit_margin_is_identity():
    for fam, th in [(CLAYTON, 0.5), (GUMBEL, 2.0), (FRANK, -3.0)]:
        model = CopulaModel(fam, th)
        assert _joint(model, 1.0, 0.7) == pytest.approx(0.7, abs=1e-12)
        assert _joint(model, 0.7, 1.0) == pytest.approx(0.7, abs=1e-12)


def test_clayton_joint_survival_closed_form():
    model = CopulaModel(CLAYTON, 0.5)
    expected = (0.8 ** -0.5 + 0.8 ** -0.5 - 1.0) ** -2.0
    assert _joint(model, 0.8, 0.8) == pytest.approx(expected, rel=1e-13)


def test_frank_joint_survival_against_frozen_and_bisection():
    model = CopulaModel(FRANK, 2.0)
    got = _joint(model, 0.6, 0.9)
    assert got == pytest.approx(FRANK2_JOINT_06_09, abs=1e-12)
    # runtime oracle: invert phi by plain bisection on the generator values
    total = _phi(FRANK, 2.0, 0.6) + _phi(FRANK, 2.0, 0.9)
    lo, hi = 1e-12, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _phi(FRANK, 2.0, mid) > total:  # phi decreasing: too far left
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
    pi = _joint(CopulaModel(family, theta), s1, s2)
    assert 0.0 <= pi <= min(s1, s2) + 1e-12


# ----------------------------------------------------------------------
# curvature ratio
# ----------------------------------------------------------------------


def _ratio_closed_form(model, pi):
    """phi''/phi' per family: Clayton -(theta+1)/pi, Gumbel
    -(1 + (theta-1)/(-log pi))/pi and Frank theta/(e^(-theta*pi) - 1)."""
    fam, th = model.family, model.theta
    if fam is CLAYTON:
        return -(th + 1.0) / pi
    if fam is GUMBEL:
        return -(1.0 + (th - 1.0) / (-np.log(pi))) / pi
    return _curvature(th, pi)  # the curvature the Frank halvings evaluate


def test_ratio_closed_forms_against_frozen_fd():
    assert _ratio(CopulaModel(CLAYTON, 0.5), 0.5) == -3.0
    assert _ratio(CopulaModel(GUMBEL, 2.0), 0.5) == pytest.approx(GUMBEL2_RATIO_HALF_FD, rel=1e-6)
    assert _ratio(CopulaModel(FRANK, 1.0), 0.5) == pytest.approx(FRANK1_RATIO_HALF_FD, rel=1e-6)


@pytest.mark.parametrize("family", [CLAYTON, GUMBEL, FRANK])
@given(data=st.data(), pi=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=150, deadline=None)
def test_ratio_equals_generator_quotient(family, data, pi):
    # the quotient of the array derivatives is the closed form the solve inverts
    theta = data.draw(theta_strategy(family))
    model = CopulaModel(family, theta)
    assert _ratio(model, pi) == pytest.approx(_ratio_closed_form(model, pi), rel=1e-10)


def test_ratio_is_negative():
    pis = np.array([0.05, 0.5, 0.95])
    for fam, th in [(CLAYTON, 3.0), (GUMBEL, 5.0), (FRANK, 8.0), (FRANK, -8.0)]:
        assert np.all(_ratio(CopulaModel(fam, th), pis) < 0.0)


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
            ratio = -_ratio(model, pi)
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


def test_frank_curvature_monotone_in_theta():
    # strict decrease over the bracket backs uniqueness of the root
    pis = (0.2, 0.5, 0.8)
    grid = np.linspace(-50.0, 50.0, 401)
    for pi in pis:
        assert np.all(np.diff(_frank_curvature(grid, pi)) < 0.0)


# ----------------------------------------------------------------------
# Frank roots against 50-digit roots of the exact equations
# ----------------------------------------------------------------------

EPS = 2.0**-52
# pi to 60 digits, for the pi^2/6 of the Debye integral
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _same_float(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)  # signed zeros and NaNs too


@cache
def _bernoulli(m: int) -> Fraction:
    return Fraction(1) if m == 0 else -sum(math.comb(m + 1, j) * _bernoulli(j) for j in range(m)) / (m + 1)


def _frank_curvature_exact(theta: Decimal, pi: Decimal) -> Decimal:
    """theta/(e^(-theta pi) - 1) in the current context, -1/pi at theta = 0."""
    if theta == 0:
        return -1 / pi
    x = -theta * pi
    with localcontext() as ctx:
        ctx.prec += max(0, -x.adjusted())  # e^x - 1 cancels about -log10|x| digits
        den = x.exp() - 1
    return theta / den


def _frank_root_exact(pi: float, ratio: float) -> tuple[Decimal, Decimal]:
    """The Frank theta in FRANK_BRACKET whose exact curvature at the exact pi
    is -ratio, by 50-digit bisection to 1e-30, with the curvature's slope
    in theta there."""
    with localcontext() as ctx:
        ctx.prec = 50
        p, r = Decimal(pi), Decimal(ratio)
        lo, hi = (Decimal(end) for end in FRANK_BRACKET)
        while hi - lo > Decimal("1e-30"):
            mid = (lo + hi) / 2
            if _frank_curvature_exact(mid, p) + r > 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        h = Decimal("1e-10")
        slope = (_frank_curvature_exact(root + h, p) - _frank_curvature_exact(root - h, p)) / (2 * h)
    return root, slope


def _frank_tau_exact(x: Decimal) -> Decimal:
    """Frank's tau 1 - 4/x + 4/x^2 int_0^x t/(e^t - 1) dt for x > 0, in the
    current context: the integral from its Bernoulli series below x = 2, and
    as pi^2/6 - sum_k e^(-kx) (x/k + 1/k^2) from 2 on (A&S 27.1)."""
    tiny = Decimal(10) ** -(getcontext().prec + 5)
    if x < 2:
        integral = Decimal(0)
        for m in itertools.chain((0, 1), itertools.count(2, 2)):  # odd B_m vanish past B_1
            b = _bernoulli(m)
            term = Decimal(b.numerator) / b.denominator * x ** (m + 1) / ((m + 1) * math.factorial(m))
            integral += term
            if abs(term) < tiny:
                break
    else:
        integral = PI_60 * PI_60 / 6
        q = (-x).exp()
        qk, k = q, 1
        while qk * x > tiny:
            integral -= qk * (x / k + Decimal(1) / (k * k))
            qk *= q
            k += 1
    return 1 - 4 / x + 4 * integral / (x * x)


def _frank_theta_for_tau_exact(tau: float) -> Decimal:
    """The Frank theta whose exact tau is the exact tau, by 50-digit
    bisection to a relative 1e-30; tau is odd in theta."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = abs(Decimal(tau))
        lo, hi = Decimal("1e-6"), Decimal(500)
        while hi - lo > hi * Decimal("1e-30"):
            mid = (lo + hi) / 2
            if _frank_tau_exact(mid) < t:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2 if tau > 0 else -(lo + hi) / 2


def _curvature(theta: float, pi: float) -> float:
    # the array helper the solve uses, on one element as the solve takes it
    return float(_frank_curvature(np.array([theta]), np.array([pi]))[0])


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
def test_frank_root_against_50_digit_root(pi, theta):
    # the Frank curvature equation as the estimator meets it: a double ratio
    # from a double curvature
    ratio = -_curvature(theta, pi)
    g_lo, g_hi = (_curvature(end, pi) + ratio for end in FRANK_BRACKET)
    assume(g_lo > 0.0 > g_hi)
    sol = theta_from_ratio(FRANK, pi, ratio)
    root, slope = _frank_root_exact(pi, ratio)
    # 1e-13, plus the root shift of a 4-ulp error in the double curvature:
    # no double evaluation of it pins a root better, and below pi = 0.02
    # that shift (8 eps/pi near theta = 0) is the larger term
    bound = Decimal(1e-13) + 4 * Decimal(EPS) * abs(Decimal(ratio)) / abs(slope)
    assert abs(Decimal(sol.theta) - root) <= bound, (sol.theta, root, bound)
    assert sol.iterations == 64


@pytest.mark.parametrize("tau", [-0.9, -0.45, -0.1, 0.001, 0.2, 0.3, 0.75, 0.98])
def test_theta_for_tau_against_50_digit_roots(tau):
    # the frozen table's bound, on both tau branches and near both bracket ends
    root = _frank_theta_for_tau_exact(tau)
    assert abs(Decimal(theta_for_tau(FRANK, tau)) - root) <= abs(root) * Decimal(1e-14)


def test_frank_zero_at_a_bracket_end_returns_that_end():
    pi = 0.3
    for end in FRANK_BRACKET:
        assert theta_from_ratio(FRANK, pi, -_curvature(end, pi)).theta == end


# ----------------------------------------------------------------------
# Kendall's tau
# ----------------------------------------------------------------------


def test_tau_closed_forms():
    assert kendalls_tau(CopulaModel(CLAYTON, 0.5)) == pytest.approx(0.2, abs=1e-15)
    assert kendalls_tau(CopulaModel(GUMBEL, 2.0)) == 0.5


def test_frank_tau_against_frozen_quadrature():
    for theta, tau in FRANK_TAU:
        got = kendalls_tau(CopulaModel(FRANK, theta))
        assert abs(got - tau) <= 4 * math.ulp(tau), (theta, got, tau)


def test_frank_tau_series_coefficients_from_bernoulli_numbers():
    want = tuple(
        float(4 * _bernoulli(2 * k) / ((2 * k + 1) * math.factorial(2 * k)))
        for k in range(1, len(_FRANK_TAU_SERIES) + 1)
    )
    assert len(want) == 30
    assert all(_same_float(a, b) for a, b in zip(_FRANK_TAU_SERIES, want))


_FRANK_THETAS = st.floats(
    min_value=FRANK_DEAD_ZONE, max_value=sys.float_info.max
) | st.floats(min_value=-sys.float_info.max, max_value=-FRANK_DEAD_ZONE)


@given(st.lists(_FRANK_THETAS, min_size=1, max_size=20))
@example([1e300, -1e300])
@example([-1e200, -1e155, -(10.0**154.5)])
@example([-sys.float_info.max, sys.float_info.max])
@example([FRANK_DEAD_ZONE, -FRANK_DEAD_ZONE, 3.0, math.nextafter(3.0, 0.0), 709.0, 712.0])
@settings(max_examples=300, deadline=None)
def test_frank_tau_is_finite_bounded_odd_and_monotone(thetas):
    thetas = sorted(thetas)
    taus = [kendalls_tau(CopulaModel(FRANK, th)) for th in thetas]
    for th, tau in zip(thetas, taus):
        assert math.isfinite(tau) and -1.0 <= tau <= 1.0, (th, tau)
        assert _same_float(kendalls_tau(CopulaModel(FRANK, -th)), -tau), th
    assert all(a <= b for a, b in zip(taus, taus[1:])), list(zip(thetas, taus))


def test_frank_tau_antisymmetry_and_small_theta():
    for th in (0.5, 2.0, 5.0, 15.0):
        assert kendalls_tau(CopulaModel(FRANK, -th)) == pytest.approx(
            -kendalls_tau(CopulaModel(FRANK, th)), abs=1e-12
        )
    # tau ~ theta/9 near zero
    assert abs(kendalls_tau(CopulaModel(FRANK, 0.001))) < 1e-3


@pytest.mark.parametrize("theta", [712.0, 1000.0])
def test_frank_tau_past_the_expm1_overflow(theta):
    # e^theta overflows for theta > 709.78; there D1(theta) = pi^2/(6 theta)
    # up to terms below e^-709
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


@pytest.mark.parametrize("tau, root", FRANK_THETA_FOR_TAU)
def test_frank_theta_for_tau_against_frozen_roots(tau, root):
    assert theta_for_tau(FRANK, tau) == pytest.approx(root, rel=1e-14, abs=0.0)


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
    CopulaModel(CLAYTON, -1.0)  # closed edge is legal


def test_argument_domain_rejections():
    for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            theta_from_ratio(CLAYTON, bad, 1.0)
    with pytest.raises(ValueError):
        theta_from_ratio(CLAYTON, 0.5, math.inf)
