"""Archimedean copula families for dependent competing-risks durations.

Generator algebra on arrays (phi, its first two derivatives, and its
inverse), Kendall's tau, and recovery of the dependence parameter theta
from the curvature ratio of a conditional joint survival surface.  The
identification step inverts

    phi_theta''(pi) / phi_theta'(pi) = -R,

where R is the measured ratio between the cross covariate derivative of the
joint survival surface and the product of its two first covariate
derivatives.  One array function inverts it for every family: Clayton and
Gumbel in closed form, Frank by a fixed number of vectorised halvings of a
bracket.  The Frank root is within 1e-13 of the exact root at levels pi
from 0.02 up (2.3e-14 measured against 50 digits); below that, the rounding
of the double curvature bounds it, up to about 5e-16/pi near theta = 0.

All generators are evaluated in cancellation-safe forms (expm1/log1p) so
that near-independence parameters remain usable.  Independence itself is no
family here: it is the Clayton limit theta -> 0.

Frank's Kendall tau 1 - (4/theta)(1 - D1(theta)), with D1 the first Debye
function, is summed from two series of D1 (Abramowitz and Stegun 27.1),
with no quadrature and no cancellation near theta = 0, and inverted by
bisection down to adjacent doubles.  No code path here imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "CopulaFamily",
    "CopulaModel",
    "NoRootError",
    "ThetaSolution",
    "FRANK_BRACKET",
    "FRANK_DEAD_ZONE",
    "check_ordering_condition",
    "kendalls_tau",
    "theta_for_tau",
    "theta_from_ratio",
]

# Search bracket for the Frank theta root, and the half-width of the dead
# zone around theta = 0 that no Frank model or tau inversion enters.
FRANK_BRACKET = (-50.0, 50.0)
FRANK_DEAD_ZONE = 1e-6

# 64 halvings take the 100-wide bracket below 1e-17, under an ulp of every
# root of magnitude 1/32 or more
_FRANK_HALVINGS = 64


class NoRootError(RuntimeError):
    """The Frank curvature equation has no root inside the search bracket."""


class CopulaFamily(Enum):
    """Supported Archimedean families."""

    CLAYTON = "clayton"
    GUMBEL = "gumbel"
    FRANK = "frank"


@dataclass(frozen=True)
class CopulaModel:
    """A copula family paired with its dependence parameter.

    Parameter domains: Clayton theta in [-1, inf) excluding 0, Gumbel theta
    in (1, inf), Frank any finite theta with |theta| >= FRANK_DEAD_ZONE
    (closer to 0 its generator loses precision, and is NaN once exp(-theta)
    rounds to 1).  A family that is not a CopulaFamily member, such as its
    name as a string, raises ValueError.
    """

    family: CopulaFamily
    theta: float

    def __post_init__(self) -> None:
        fam = self.family
        theta = self.theta
        if not isinstance(fam, CopulaFamily):
            raise ValueError(f"family must be a CopulaFamily, got {fam!r}")
        if theta is None or not math.isfinite(theta):
            raise ValueError(f"{fam.value} copula needs a finite theta, got {theta!r}")
        if fam is CopulaFamily.CLAYTON and (theta < -1.0 or theta == 0.0):
            raise ValueError(f"Clayton theta must lie in [-1, inf) and be nonzero, got {theta}")
        if fam is CopulaFamily.GUMBEL and theta <= 1.0:
            raise ValueError(f"Gumbel theta must exceed 1, got {theta}")
        if fam is CopulaFamily.FRANK and abs(theta) < FRANK_DEAD_ZONE:
            raise ValueError(f"Frank |theta| must be at least {FRANK_DEAD_ZONE}, got {theta!r}")


@dataclass(frozen=True)
class ThetaSolution:
    """Result of inverting the curvature ratio for theta.

    ``admissible`` is False when the solved value falls outside the family
    domain (kept as a flag, not an error, because single grid points of an
    estimated surface may stray).  ``iterations`` counts the halvings of the
    Frank root search (0 for the closed-form families).
    """

    theta: float
    admissible: bool
    iterations: int = 0


# ----------------------------------------------------------------------
# generator primitives (validated inputs; scalars or ndarrays)
# ----------------------------------------------------------------------


def _phi(family: CopulaFamily, theta: float, s):
    if family is CopulaFamily.CLAYTON:
        return np.expm1(-theta * np.log(s)) / theta
    if family is CopulaFamily.GUMBEL:
        return (-np.log(s)) ** theta
    # Frank: identical np ops in both terms so phi(1) cancels to exactly 0;
    # clamp the remaining sub-ulp artifacts (phi >= 0 by convexity)
    if theta > 0:
        raw = np.log1p(-np.exp(-theta)) - np.log1p(-np.exp(-theta * s))
    else:
        q = -theta
        raw = q * (1.0 - s) + np.log1p(-np.exp(-q)) - np.log1p(-np.exp(-q * s))
    return np.maximum(raw, 0.0)


def _dphi(family: CopulaFamily, theta: float, s):
    if family is CopulaFamily.CLAYTON:
        return -np.exp(-(theta + 1.0) * np.log(s))
    if family is CopulaFamily.GUMBEL:
        ell = -np.log(s)
        return -theta * ell ** (theta - 1.0) / s
    return -theta / np.expm1(theta * s)


def _d2phi(family: CopulaFamily, theta: float, s):
    if family is CopulaFamily.CLAYTON:
        return (theta + 1.0) * np.exp(-(theta + 2.0) * np.log(s))
    if family is CopulaFamily.GUMBEL:
        ell = -np.log(s)
        return theta * ((theta - 1.0) * ell ** (theta - 2.0) + ell ** (theta - 1.0)) / (s * s)
    x = -np.abs(theta * s)  # Frank's e^x/(e^x-1)^2 is symmetric in the sign of x
    return theta * theta * np.exp(x) / np.expm1(x) ** 2


def _phi_inv(family: CopulaFamily, theta: float, u):
    if family is CopulaFamily.CLAYTON:
        tu = theta * u
        ok = tu > -1.0  # theta < 0 has phi(0) = -1/theta; past it the inverse is 0
        lg = np.log1p(np.where(ok, tu, 0.0))
        return np.where(ok, np.exp(-lg / theta), 0.0)
    if family is CopulaFamily.GUMBEL:
        return np.exp(-(u ** (1.0 / theta)))
    if theta > 0:
        # Frank's 1 + expm1(-theta)e^{-u} rewritten without cancellation so
        # the inverse stays accurate near u = 0 for large theta
        return -np.log(np.exp(-u - theta) - np.expm1(-u)) / theta
    q = -theta
    x = q + math.log1p(-math.exp(-q)) - u
    return _softplus(x) / q


def _softplus(x):
    ax = np.abs(x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-ax))


def _frank_curvature(theta, pi):
    """phi''/phi' at pi for the Frank family, theta/expm1(-theta*pi),
    elementwise.  Below |theta*pi| = 1e-16 it takes the limit -1/pi, within
    an ulp of -(1/pi)(1 + theta*pi/2 + ...); a subnormal pi gives -inf."""
    x = theta * pi
    near = np.abs(x) < 1e-16
    with np.errstate(over="ignore"):
        return np.where(near, -1.0 / pi, theta / np.where(near, 1.0, np.expm1(-x)))


def _solve_ratio(family: CopulaFamily, pi, ratio):
    """Solve phi_theta''(pi)/phi_theta'(pi) = -ratio for theta, elementwise.

    ``pi`` in (0, 1) and finite ``ratio`` are arrays of one shape.  Returns
    (theta, admissible).  Clayton and Gumbel invert in closed form.  Frank
    bisects theta/expm1(-theta*pi) + ratio, which falls strictly in theta,
    _FRANK_HALVINGS times over FRANK_BRACKET; an exact zero at a bracket end
    returns that end, and no sign change over the bracket gives NaN.  A
    family that is not a CopulaFamily member raises ValueError.
    """
    if family is CopulaFamily.CLAYTON:
        theta = pi * ratio - 1.0
        return theta, (theta >= -1.0) & (theta != 0.0)
    if family is CopulaFamily.GUMBEL:
        theta = 1.0 + (1.0 - pi * ratio) * np.log(pi)
        return theta, theta > 1.0
    if family is not CopulaFamily.FRANK:
        raise ValueError(f"family must be a CopulaFamily, got {family!r}")
    lo_end, hi_end = FRANK_BRACKET
    lo = np.full(pi.shape, lo_end)
    hi = np.full(pi.shape, hi_end)
    g_lo = _frank_curvature(lo, pi) + ratio
    g_hi = _frank_curvature(hi, pi) + ratio
    for _ in range(_FRANK_HALVINGS):
        mid = 0.5 * (lo + hi)
        above = _frank_curvature(mid, pi) + ratio > 0.0  # the root lies above mid
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    theta = np.select(
        [g_lo == 0.0, g_hi == 0.0, (g_lo > 0.0) & (g_hi < 0.0)],
        [lo_end, hi_end, 0.5 * (lo + hi)],
        np.nan,
    )
    return theta, np.isfinite(theta) & (theta != 0.0)


# ----------------------------------------------------------------------
# the scalar solve
# ----------------------------------------------------------------------


def _check_scalar(name: str, x, lo: float, hi: float) -> float:
    x = float(x)
    if not lo < x < hi:  # NaN fails too
        raise ValueError(f"{name} must lie in ({lo}, {hi}), got {x!r}")
    return x


def theta_from_ratio(family: CopulaFamily, pi: float, ratio: float) -> ThetaSolution:
    """Solve phi_theta''(pi)/phi_theta'(pi) = -ratio for theta.

    Parameters
    ----------
    family : CopulaFamily
        Clayton, Gumbel or Frank.
    pi : float
        Joint survival level in (0, 1) at which the surface was measured.
    ratio : float
        Measured cross-derivative ratio R = d2pi / (dpi_1 * dpi_2).

    Returns
    -------
    ThetaSolution
        Clayton: theta = pi*R - 1 (admissible when >= -1 and nonzero).
        Gumbel: theta = 1 + (1 - pi*R) log pi (admissible when > 1).
        Frank: the root of theta/(e^(-theta*pi)-1) + R over [-50, 50], by
        64 halvings, within 1e-13 of the exact root for pi >= 0.02.
        The same array solve the estimator runs over a grid, on one
        element, so both give the same bits.

    Raises
    ------
    NoRootError
        Frank only, when the bracket shows no sign change.
    """
    pi = _check_scalar("pi", pi, 0.0, 1.0)
    ratio = float(ratio)
    if not math.isfinite(ratio):
        raise ValueError(f"ratio must be finite, got {ratio!r}")
    theta, admissible = _solve_ratio(family, np.array([pi]), np.array([ratio]))
    th = float(theta[0])
    if family is not CopulaFamily.FRANK:
        return ThetaSolution(th, bool(admissible[0]))
    if math.isnan(th):
        lo, hi = FRANK_BRACKET
        raise NoRootError(f"no Frank theta in [{lo}, {hi}] matches ratio {ratio!r} at pi {pi!r}")
    return ThetaSolution(th, bool(admissible[0]), iterations=_FRANK_HALVINGS)


# 4 B_2k / ((2k + 1) (2k)!) for k = 1..30, B_2k the Bernoulli numbers: the
# Taylor coefficients of Frank's tau in odd powers of theta, rounded to doubles
_FRANK_TAU_SERIES = (
    0.1111111111111111, -0.0011111111111111111, 1.889644746787604e-05,
    -3.6743092298647856e-07, 7.5915479955884e-09, -1.6259046580576902e-10,
    3.568676408182581e-12, -7.97571834428843e-14, 1.8075920118479673e-15,
    -4.142607044872499e-17, 9.580874484104748e-19, -2.2327143497300036e-20,
    5.236603021673285e-22, -1.2349679209706961e-23, 2.926390261080881e-25,
    -6.963382628936004e-27, 1.66305425784556e-28, -3.984859395313849e-30,
    9.576137699584661e-32, -2.307338942146956e-33, 5.572717918588032e-35,
    -1.3488487861940358e-36, 3.271283511024841e-38, -7.948043324609544e-40,
    1.9343114072162203e-41, -4.7147748994873535e-43, 1.150838563246903e-44,
    -2.812823639262411e-46, 6.883441258013258e-48, -1.6864289562241783e-49,
)
_PI2_6_M1 = 0.6449340668482264  # pi^2/6 - 1


def _frank_tau(theta: float) -> float:
    """Frank's Kendall tau, an odd function of theta, within 3 ulp.

    Below |theta| = 3 it sums the Taylor series of tau (radius 2 pi).  From 3
    on it takes D1(x) = (pi^2/6 - sum_k e^(-kx) (x/k + 1/k^2))/x, dropping the
    terms below e^-40, as tau = (1 - 2/x)^2 + 4 (pi^2/6 - 1 - sum)/x^2: two
    positive terms, where 1 - 4/x + 4 D1(x)/x cancels.
    """
    x = abs(theta)
    if x < 3.0:
        x2 = x * x
        acc = 0.0
        for c in reversed(_FRANK_TAU_SERIES):
            acc = acc * x2 + c
        tau = acc * x
    else:
        tail = 0.0
        for k in range(math.ceil(40.0 / x) + 1, 0, -1):  # smallest terms first
            tail += math.exp(-k * x) * (x / k + 1.0 / (k * k))
        tau = (1.0 - 2.0 / x) ** 2 + 4.0 * (_PI2_6_M1 - tail) / x / x
    return math.copysign(tau, theta)


def kendalls_tau(model: CopulaModel) -> float:
    """Population Kendall's tau of the model.

    Clayton theta/(theta+2), Gumbel 1 - 1/theta, Frank
    1 - (4/theta)(1 - D1(theta)) with D1 the first Debye function, summed
    from its series (within 3 ulp, and exactly odd in theta).
    """
    fam, theta = model.family, model.theta
    if fam is CopulaFamily.CLAYTON:
        return theta / (theta + 2.0)
    if fam is CopulaFamily.GUMBEL:
        return 1.0 - 1.0 / theta
    return _frank_tau(theta)


def theta_for_tau(family: CopulaFamily, tau: float) -> float:
    """Parameter value whose population Kendall's tau equals tau.

    Clayton and Gumbel invert in closed form; Frank bisects its tau curve
    down to adjacent doubles and takes the one whose tau is nearer.  Raises
    ValueError when tau is unreachable inside the family domain (e.g. tau <=
    0 for Gumbel, tau = 0 anywhere).
    """
    tau = float(tau)
    if not -1.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (-1, 1), got {tau!r}")
    if tau == 0.0:
        raise ValueError("tau = 0 is the independence limit, not a family member")
    if family is CopulaFamily.CLAYTON:
        th = 2.0 * tau / (1.0 - tau)
    elif family is CopulaFamily.GUMBEL:
        th = 1.0 / (1.0 - tau)
    elif family is CopulaFamily.FRANK:
        lo, hi = (FRANK_DEAD_ZONE, 500.0) if tau > 0 else (-500.0, -FRANK_DEAD_ZONE)
        if not _frank_tau(lo) <= tau <= _frank_tau(hi):
            raise ValueError(f"tau {tau!r} is out of the invertible Frank range")
        # tau rises with theta: halve until lo and hi are adjacent doubles
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if _frank_tau(mid) < tau:
                lo = mid
            else:
                hi = mid
        th = lo if tau - _frank_tau(lo) < _frank_tau(hi) - tau else hi
    else:
        raise ValueError(f"family must be a CopulaFamily, got {family!r}")
    CopulaModel(family, th)  # domain check; raises ValueError if unreachable
    return float(th)


def check_ordering_condition(
    family: CopulaFamily, theta1: float, theta2: float, grid
) -> bool:
    """True when phi'_theta2(s) / phi'_theta1(s) strictly increases over grid.

    Requires theta1 > theta2, both inside the family domain, and a strictly
    increasing grid inside (0, 1).  A True result certifies (numerically)
    that the two parameter values are distinguishable from the curvature
    ratio, which is what makes the theta inversion single-valued.
    """
    CopulaModel(family, theta1)
    CopulaModel(family, theta2)
    if not theta1 > theta2:
        raise ValueError(f"need theta1 > theta2, got {theta1!r} <= {theta2!r}")
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if not (np.all(np.diff(g) > 0.0) and g[0] > 0.0 and g[-1] < 1.0):
        raise ValueError("grid must be strictly increasing inside (0, 1)")
    ratio = _dphi(family, theta2, g) / _dphi(family, theta1, g)
    return bool(np.all(np.diff(ratio) > 0.0))
