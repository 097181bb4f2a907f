"""Archimedean copula families for dependent competing-risks durations.

Generator algebra (phi, its first two derivatives, and its inverse), joint
survival composition, Kendall's tau, and recovery of the dependence
parameter theta from the curvature ratio of a conditional joint survival
surface.  The identification step inverts

    phi_theta''(pi) / phi_theta'(pi) = -R,

where R is the measured ratio between the cross covariate derivative of the
joint survival surface and the product of its two first covariate
derivatives.  Clayton and Gumbel invert in closed form; Frank needs a
bracketed monotone root search.

All generators are evaluated in cancellation-safe forms (expm1/log1p) so
that near-independence parameters remain usable.

Frank's root searches use ``_brentq``, a port of scipy's Brent routine
that returns the same root bits and iteration count.  Frank's Kendall tau
integrates the Debye function with ``coprisk._quadpack``, a port of the
QUADPACK routine behind ``scipy.integrate.quad`` with the same value bits,
imported only by a Frank tau conversion (``kendalls_tau``,
``theta_for_tau``).  No code path here imports scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "CopulaFamily",
    "CopulaModel",
    "GeneratorValue",
    "NoRootError",
    "ThetaSolution",
    "FRANK_BRACKET",
    "FRANK_DEAD_ZONE",
    "check_ordering_condition",
    "generator",
    "inverse_generator",
    "joint_survival",
    "kendalls_tau",
    "phi_log_deriv_ratio",
    "theta_for_tau",
    "theta_from_ratio",
]

# Search bracket for the Frank theta root, and the width of the dead zone
# around theta = 0 inside which a solution is reported as near independence.
FRANK_BRACKET = (-50.0, 50.0)
FRANK_DEAD_ZONE = 1e-6

_FRANK_ROOT_XTOL = 1e-10

# scipy.optimize.brentq defaults: relative tolerance 4 eps, 100 iterations
_BRENTQ_RTOL = 4.0 * sys.float_info.epsilon
_BRENTQ_MAXITER = 100


class NoRootError(RuntimeError):
    """The Frank curvature equation has no root inside the search bracket."""


class CopulaFamily(Enum):
    """Supported Archimedean families."""

    CLAYTON = "clayton"
    GUMBEL = "gumbel"
    FRANK = "frank"
    INDEPENDENCE = "independence"


@dataclass(frozen=True)
class CopulaModel:
    """A copula family paired with its dependence parameter.

    Parameter domains: Clayton theta in [-1, inf) excluding 0, Gumbel theta
    in (1, inf), Frank any finite theta with |theta| >= FRANK_DEAD_ZONE
    (closer to 0 its generator loses precision, and is NaN once exp(-theta)
    rounds to 1).  The independence family carries no parameter, so theta
    must be None there (it is the Clayton limit theta -> 0).
    """

    family: CopulaFamily
    theta: float | None = None

    def __post_init__(self) -> None:
        fam = self.family
        theta = self.theta
        if fam is CopulaFamily.INDEPENDENCE:
            if theta is not None:
                raise ValueError("independence copula carries no theta")
            return
        if theta is None or not math.isfinite(theta):
            raise ValueError(f"{fam.value} copula needs a finite theta, got {theta!r}")
        if fam is CopulaFamily.CLAYTON and (theta < -1.0 or theta == 0.0):
            raise ValueError(f"Clayton theta must lie in [-1, inf) and be nonzero, got {theta}")
        if fam is CopulaFamily.GUMBEL and theta <= 1.0:
            raise ValueError(f"Gumbel theta must exceed 1, got {theta}")
        if fam is CopulaFamily.FRANK and abs(theta) < FRANK_DEAD_ZONE:
            raise ValueError(f"Frank |theta| must be at least {FRANK_DEAD_ZONE}, got {theta!r}")


@dataclass(frozen=True)
class GeneratorValue:
    """Generator phi(s) with its first two derivatives at one point."""

    phi: float
    dphi: float
    d2phi: float


@dataclass(frozen=True)
class ThetaSolution:
    """Result of inverting the curvature ratio for theta.

    ``admissible`` is False when the solved value falls outside the family
    domain (kept as a flag, not an error, because single grid points of an
    estimated surface may stray).  ``near_independence`` marks Frank roots
    inside the dead zone around 0.  ``iterations`` counts root-finder steps
    (0 for closed-form families).
    """

    theta: float
    admissible: bool
    near_independence: bool = False
    iterations: int = 0


# ----------------------------------------------------------------------
# generator primitives (validated inputs; scalars or ndarrays)
# ----------------------------------------------------------------------


def _phi(family: CopulaFamily, theta: float | None, s):
    if family is CopulaFamily.CLAYTON:
        return np.expm1(-theta * np.log(s)) / theta
    if family is CopulaFamily.GUMBEL:
        return (-np.log(s)) ** theta
    if family is CopulaFamily.FRANK:
        # identical np ops in both terms so phi(1) cancels to exactly 0;
        # clamp the remaining sub-ulp artifacts (phi >= 0 by convexity)
        if theta > 0:
            raw = np.log1p(-np.exp(-theta)) - np.log1p(-np.exp(-theta * s))
        else:
            q = -theta
            raw = q * (1.0 - s) + np.log1p(-np.exp(-q)) - np.log1p(-np.exp(-q * s))
        return np.maximum(raw, 0.0)
    return -np.log(s)


def _dphi(family: CopulaFamily, theta: float | None, s):
    if family is CopulaFamily.CLAYTON:
        return -np.exp(-(theta + 1.0) * np.log(s))
    if family is CopulaFamily.GUMBEL:
        ell = -np.log(s)
        return -theta * ell ** (theta - 1.0) / s
    if family is CopulaFamily.FRANK:
        return -theta / np.expm1(theta * s)
    return -1.0 / s


def _d2phi(family: CopulaFamily, theta: float | None, s):
    if family is CopulaFamily.CLAYTON:
        return (theta + 1.0) * np.exp(-(theta + 2.0) * np.log(s))
    if family is CopulaFamily.GUMBEL:
        ell = -np.log(s)
        return theta * ((theta - 1.0) * ell ** (theta - 2.0) + ell ** (theta - 1.0)) / (s * s)
    if family is CopulaFamily.FRANK:
        x = -np.abs(theta * s)  # e^x/(e^x-1)^2 is symmetric in the sign of x
        return theta * theta * np.exp(x) / np.expm1(x) ** 2
    return 1.0 / (s * s)


def _phi_inv(family: CopulaFamily, theta: float | None, u):
    if family is CopulaFamily.CLAYTON:
        tu = theta * u
        ok = tu > -1.0  # theta < 0 has phi(0) = -1/theta; past it the inverse is 0
        lg = np.log1p(np.where(ok, tu, 0.0))
        return np.where(ok, np.exp(-lg / theta), 0.0)
    if family is CopulaFamily.GUMBEL:
        return np.exp(-(u ** (1.0 / theta)))
    if family is CopulaFamily.FRANK:
        if theta > 0:
            # 1 + expm1(-theta)e^{-u} rewritten without cancellation so the
            # inverse stays accurate near u = 0 for large theta
            return -np.log(np.exp(-u - theta) - np.expm1(-u)) / theta
        q = -theta
        x = q + math.log1p(-math.exp(-q)) - u
        return _softplus(x) / q
    return np.exp(-u)


def _softplus(x):
    ax = np.abs(x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-ax))


def _frank_curvature(theta: float, pi: float) -> float:
    """phi''/phi' at pi for the Frank family, continuous through theta = 0."""
    if abs(theta * pi) < 1e-12:
        return -1.0 / pi
    return theta / math.expm1(-theta * pi)


def _brentq(f, xa: float, xb: float, xtol: float) -> tuple[float, int]:
    """Root of f between xa and xb by Brent's method, with its iteration count.

    A line-for-line port of scipy's ``Zeros/brentq.c`` (Brent 1973,
    *Algorithms for Minimization without Derivatives*, ch. 4) and of the
    checks of its Python wrapper, with rtol = 4 eps and at most 100
    iterations: the same float operations in the same order, so root and
    count equal ``scipy.optimize.brentq(f, xa, xb, xtol=xtol,
    full_output=True)``.  An exact zero at an end returns that end after 0
    iterations (scipy returns the same end but leaves its count unset).
    Raises ValueError on a NaN value of f or on ends of the same sign, and
    RuntimeError when 100 iterations do not converge.
    """

    def fval(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    def signbit(x: float) -> bool:
        return math.copysign(1.0, x) < 0.0

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = fval(xpre)
    fcur = fval(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if signbit(fpre) == signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for iterations in range(1, _BRENTQ_MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and signbit(fpre) != signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides by 0 into inf or NaN, and either one bisects below
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fval(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations.")


# ----------------------------------------------------------------------
# public scalar operations
# ----------------------------------------------------------------------


def _check_scalar(name: str, x, lo_open: float, hi: float, *, include_hi: bool) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= lo_open or (x > hi if include_hi else x >= hi):
        bound = "]" if include_hi else ")"
        raise ValueError(f"{name} must lie in ({lo_open}, {hi}{bound}, got {x!r}")
    return x


def generator(model: CopulaModel, s: float) -> GeneratorValue:
    """Evaluate phi, phi', phi'' at s in (0, 1].

    phi(1) = 0 exactly; phi is strictly decreasing and convex on (0, 1).
    At s = 1 the Gumbel derivatives are one-sided limits (phi'' is +inf for
    theta < 2).
    """
    s = _check_scalar("s", s, 0.0, 1.0, include_hi=True)
    fam, theta = model.family, model.theta
    if fam is CopulaFamily.GUMBEL and s == 1.0:
        if theta < 2.0:
            d2 = math.inf
        elif theta == 2.0:
            d2 = theta * (theta - 1.0)
        else:
            d2 = 0.0
        return GeneratorValue(0.0, 0.0, d2)
    return GeneratorValue(
        float(_phi(fam, theta, s)),
        float(_dphi(fam, theta, s)),
        float(_d2phi(fam, theta, s)),
    )


def inverse_generator(model: CopulaModel, u: float) -> float:
    """Inverse generator, with the convention phi_inv(u) = 0 for u >= phi(0).

    Only Clayton with theta < 0 has finite phi(0) = -1/theta; the other
    families are strict (phi(0) = +inf), so the convention branch never
    triggers there.
    """
    u = float(u)
    if not math.isfinite(u) or u < 0.0:
        raise ValueError(f"u must be finite and >= 0, got {u!r}")
    return float(_phi_inv(model.family, model.theta, u))


def joint_survival(model: CopulaModel, s1: float, s2: float) -> float:
    """Joint survival probability phi_inv(phi(s1) + phi(s2)).

    Couples two marginal survival probabilities in (0, 1]; the result obeys
    the Frechet bounds, in particular 0 <= result <= min(s1, s2).
    """
    s1 = _check_scalar("s1", s1, 0.0, 1.0, include_hi=True)
    s2 = _check_scalar("s2", s2, 0.0, 1.0, include_hi=True)
    fam, theta = model.family, model.theta
    if fam is CopulaFamily.INDEPENDENCE:
        return s1 * s2
    total = float(_phi(fam, theta, s1)) + float(_phi(fam, theta, s2))
    return float(_phi_inv(fam, theta, total))


def phi_log_deriv_ratio(model: CopulaModel, pi: float) -> float:
    """Curvature ratio phi''(pi) / phi'(pi) of the generator, in closed form.

    Per family: Clayton -(theta+1)/pi, Gumbel -(1 + (theta-1)/(-log pi))/pi,
    Frank theta/(e^(-theta*pi) - 1), independence -1/pi.  Always negative on
    pi in (0, 1).
    """
    pi = _check_scalar("pi", pi, 0.0, 1.0, include_hi=False)
    fam, theta = model.family, model.theta
    if fam is CopulaFamily.CLAYTON:
        return -(theta + 1.0) / pi
    if fam is CopulaFamily.GUMBEL:
        return -(1.0 + (theta - 1.0) / (-math.log(pi))) / pi
    if fam is CopulaFamily.FRANK:
        return _frank_curvature(theta, pi)
    return -1.0 / pi


def theta_from_ratio(family: CopulaFamily, pi: float, ratio: float) -> ThetaSolution:
    """Solve phi_theta''(pi)/phi_theta'(pi) = -ratio for theta.

    Parameters
    ----------
    family : CopulaFamily
        Clayton, Gumbel or Frank (independence has no parameter to solve).
    pi : float
        Joint survival level in (0, 1) at which the surface was measured.
    ratio : float
        Measured cross-derivative ratio R = d2pi / (dpi_1 * dpi_2).

    Returns
    -------
    ThetaSolution
        Clayton: theta = pi*R - 1 (admissible when >= -1 and nonzero).
        Gumbel: theta = 1 + (1 - pi*R) log pi (admissible when > 1).
        Frank: bracketed root of theta/(e^(-theta*pi)-1) + R over
        [-50, 50] to 1e-10 in theta; roots inside the dead zone
        (-1e-6, 1e-6) are flagged near_independence.

    Raises
    ------
    NoRootError
        Frank only, when the bracket shows no sign change.
    """
    pi = _check_scalar("pi", pi, 0.0, 1.0, include_hi=False)
    ratio = float(ratio)
    if not math.isfinite(ratio):
        raise ValueError(f"ratio must be finite, got {ratio!r}")
    if family is CopulaFamily.CLAYTON:
        th = pi * ratio - 1.0
        return ThetaSolution(th, th >= -1.0 and th != 0.0)
    if family is CopulaFamily.GUMBEL:
        th = 1.0 + (1.0 - pi * ratio) * math.log(pi)
        return ThetaSolution(th, th > 1.0)
    if family is CopulaFamily.FRANK:
        lo, hi = FRANK_BRACKET

        def g(th: float) -> float:
            return _frank_curvature(th, pi) + ratio

        try:
            root, iterations = _brentq(g, lo, hi, _FRANK_ROOT_XTOL)
        except ValueError:  # g is finite on the bracket, so its ends share a sign
            raise NoRootError(
                f"no Frank theta in [{lo}, {hi}] matches ratio {ratio!r} at pi {pi!r}"
            ) from None
        return ThetaSolution(
            root,
            root != 0.0,
            near_independence=abs(root) < FRANK_DEAD_ZONE,
            iterations=iterations,
        )
    raise ValueError(f"cannot solve for theta in family {family!r}")


def _debye_integrand(t: float) -> float:
    """t/(e^t - 1), continued by its limit 1 at t = 0."""
    if t == 0.0:
        return 1.0
    try:
        return t / math.expm1(t)
    except OverflowError:  # t > 709.78, where e^t - 1 rounds to e^t anyway
        return t * math.exp(-t)


def _debye1(x: float) -> float:
    """First Debye function (1/x) * integral_0^x t/(e^t - 1) dt.

    Integrated by ``coprisk._quadpack.quad``, which returns the bits of
    ``scipy.integrate.quad`` with the same settings.  It is imported here,
    so that only a Frank tau conversion loads it.
    """
    from ._quadpack import quad

    val, _, _ = quad(_debye_integrand, 0.0, x, 1e-12, 1e-12, 200)
    return val / x


def kendalls_tau(model: CopulaModel) -> float:
    """Population Kendall's tau of the model.

    Clayton theta/(theta+2), Gumbel 1 - 1/theta, Frank
    1 - (4/theta)(1 - D1(theta)) with D1 the first Debye function computed
    by adaptive quadrature, independence 0.
    """
    fam, theta = model.family, model.theta
    if fam is CopulaFamily.CLAYTON:
        return theta / (theta + 2.0)
    if fam is CopulaFamily.GUMBEL:
        return 1.0 - 1.0 / theta
    if fam is CopulaFamily.FRANK:
        return 1.0 - 4.0 / theta * (1.0 - _debye1(theta))
    return 0.0


def theta_for_tau(family: CopulaFamily, tau: float) -> float:
    """Parameter value whose population Kendall's tau equals tau.

    Clayton and Gumbel invert in closed form; Frank inverts the tau curve
    numerically.  Raises ValueError when tau is unreachable inside the
    family domain (e.g. tau <= 0 for Gumbel, tau = 0 anywhere).
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

        def f(th: float) -> float:
            return kendalls_tau(CopulaModel(CopulaFamily.FRANK, th)) - tau

        try:
            th, _ = _brentq(f, lo, hi, 1e-12)
        except ValueError:  # f is finite on the bracket, so its ends share a sign
            raise ValueError(f"tau {tau!r} is out of the invertible Frank range") from None
    else:
        raise ValueError(f"family {family!r} has no parameter to match tau")
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
    if family is CopulaFamily.INDEPENDENCE:
        raise ValueError("ordering condition needs a parametric family")
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
