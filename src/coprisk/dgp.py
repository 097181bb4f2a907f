"""Dependent competing-risks simulator with Weibull margins.

Two latent durations share an Archimedean copula on their survival scales;
each margin is Weibull with a multiplicative covariate effect on the
cumulative hazard, and each cause has its own covariate.  Only the smaller
duration and its cause are observed.  ``oracle_surface`` gives the exact
surface of any family and its covariate derivatives along a duration grid,
the array the kernel estimate and the theta solve are checked against.

Draws are counter-based (Philox): unit i consumes counters 4i..4i+3 in the
fixed order (z1, z2, s1, v2), so datasets are reproducible per unit and
replicates can be generated independently from derived seeds.  They are
drawn, computed and written a block of rows at a time, as contiguous
columns; the stream runs on across blocks, so nothing moves a bit.  Apart
from the sample it returns, every temporary is block-sized, its columns
under glibc's 128 KiB mmap threshold (``_BLOCK_ROWS``).

The normal covariates come from the inverse normal cdf ``_ndtri``, a numpy
port of Cephes ``ndtri`` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989), the routine behind ``scipy.special.ndtri``:
the same coefficients, branch points and Horner order, within 5 ulp of the
exact quantile (4.3 measured).  Its logarithms are numpy's ``np.log``, as
are those of the durations, so z and t alike may differ in the last bit
between numpy builds whose vectorised ``log`` differs.

The second survival value is drawn from the exact inverse of its
conditional law given the first (the conditional distribution method,
Nelsen 2006, An Introduction to Copulas, secs. 2.9 and 4.3): in closed form
for Clayton and Frank, by Newton's method for Gumbel.  Clayton's closed form
goes to log space where expm1 would overflow (a large theta and a small
s1), and for theta > 0 takes a form without its two expm1 terms, which
cancel as v2 nears 1.  Each element is computed on its own, so its bits do
not depend on the array it comes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .copula import CopulaFamily, CopulaModel, _d2phi, _dphi, _phi, _phi_inv
from .data import Sample

__all__ = [
    "DgpConfig",
    "LatentDraws",
    "WeibullMarginal",
    "conditional_copula_inverse",
    "default_config",
    "oracle_surface",
    "simulate",
    "simulate_latent",
]

# smallest uniform draw kept; exact zeros from the generator are lifted here
_U_FLOOR = 2.0 ** -53
_U_CEIL = 1.0 - 2.0 ** -53
# the largest argument for which exp and expm1 stay finite
_LOG_MAX = math.log(np.finfo(float).max)

ArrayLike = Union[float, np.ndarray]

# Cephes ndtri: sqrt(2 pi), the exp(-2) split between the central and tail
# branches, and the rational approximations in descending powers.  The
# leading 1.0 of each Q is implicit (p1evl).
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
# central branch, |y - 0.5| <= 0.5 - exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# tail, x = sqrt(-2 log y) in [2, 8)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# far tail, x >= 8 (y <= exp(-32))
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner in the Cephes order, ((c0 x + c1) x + c2) ..., into one new array."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner with an implicit leading 1.0, ((x + c0) x + c1) ..."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri(y0) -> np.ndarray:
    """Inverse standard normal cdf, elementwise, Cephes ndtri on numpy's log.

    0 maps to -inf, 1 to +inf, and anything outside [0, 1] (or NaN) to NaN.
    The central rational runs over every element, in place; only the tail
    elements (y <= exp(-2) after folding) are gathered, and overwrite it.
    """
    y0 = np.asarray(y0, dtype=float)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0).ravel()
    upper = upper.ravel()
    # out-of-range inputs overflow the central rational and land in the tail,
    # where the log of a negative makes them NaN; 0 and 1 take log(0)
    with np.errstate(all="ignore"):
        yc = y - 0.5
        y2 = yc * yc
        out = _polevl(y2, _P0)
        out *= y2
        out /= _p1evl(y2, _Q0)
        out *= yc
        out += yc
        out *= _S2PI
        at = np.flatnonzero(y <= _EXP_M2)
        if at.size:
            yt = y[at]
            x = np.log(yt)
            x *= -2.0
            np.sqrt(x, out=x)
            x0 = x - np.log(x) / x
            z = 1.0 / x
            x1 = _polevl(z, _P1)
            x1 *= z
            x1 /= _p1evl(z, _Q1)
            far = np.flatnonzero(x >= 8.0)
            if far.size:
                zf = z[far]
                x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
            x0 -= x1
            x0[yt == 0.0] = np.inf  # x0 was inf - inf / inf
            np.negative(x0, out=x0, where=~upper[at])
            out[at] = x0
    return out.reshape(y0.shape)


@dataclass(frozen=True)
class WeibullMarginal:
    """Weibull margin with cumulative hazard lam * t**eta * exp(z * beta)."""

    lam: float
    eta: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive, got {self.lam!r}")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be positive, got {self.eta!r}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")

    def cumulative_hazard(self, t: ArrayLike) -> ArrayLike:
        return self.lam * np.power(t, self.eta)

    def survival(self, t: ArrayLike, z: ArrayLike) -> ArrayLike:
        """S(t | z) = exp(-lam t^eta e^{z beta})."""
        return np.exp(-self.cumulative_hazard(t) * np.exp(z * self.beta))

    def survival_dz(self, t: ArrayLike, z: ArrayLike) -> ArrayLike:
        """Covariate derivative of S(t | z)."""
        rate = np.exp(z * self.beta)
        return -self.survival(t, z) * self.cumulative_hazard(t) * rate * self.beta

    def invert_survival(self, s: ArrayLike, z: ArrayLike) -> ArrayLike:
        """Duration t with S(t | z) = s, for s in (0, 1)."""
        return np.power(-np.log(s) / (self.lam * np.exp(z * self.beta)), 1.0 / self.eta)


# the benchmark margins: cause 1 is the slower hazard
DEFAULT_MARGINALS = (WeibullMarginal(0.5, 1.0, 1.0), WeibullMarginal(1.0, 1.0, 1.0))


@dataclass(frozen=True)
class DgpConfig:
    """Full simulation design.

    ``covariate_sd`` is the standard deviation of the centered normal
    covariates.  The paper's N(0, 0.5) does not say whether 0.5 is the
    variance or the standard deviation; the default reads it as the
    variance.
    """

    copula: CopulaModel
    n: int
    seed: int
    marginals: tuple[WeibullMarginal, WeibullMarginal] = DEFAULT_MARGINALS
    covariate_sd: float = math.sqrt(0.5)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if len(self.marginals) != 2:
            raise ValueError("exactly two cause margins are required")
        if not (math.isfinite(self.covariate_sd) and self.covariate_sd > 0.0):
            raise ValueError(f"covariate_sd must be positive, got {self.covariate_sd!r}")


def default_config(
    n: int,
    seed: int,
    *,
    theta: float = 0.5,
    family: CopulaFamily = CopulaFamily.CLAYTON,
    covariate_sd: float = math.sqrt(0.5),
) -> DgpConfig:
    """Benchmark design: margins (0.5, 1) and (1, 1), unit covariate effects."""
    return DgpConfig(copula=CopulaModel(family, theta), n=n, seed=seed, covariate_sd=covariate_sd)


def conditional_copula_inverse(model: CopulaModel, s1, v2):
    """Invert the conditional law of the second survival draw given the first.

    Solves dC/ds1(s1, s2) = v2 for s2, where C is the joint survival
    function of the copula: the conditional distribution method (Nelsen
    2006, An Introduction to Copulas, secs. 2.9 and 4.3).  Clayton and Frank
    invert in closed form (Clayton theta = -1 is the counter-monotone edge
    with the point-mass conditional s2 = 1 - s1); Gumbel takes a few Newton
    steps on its conditional equation.  Every input must lie strictly inside
    (0, 1).  Accepts scalars or arrays; a scalar runs as a 1-element array,
    so it gets the bits of the same element in an array call.
    """
    s1 = np.asarray(s1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    # min and max propagate NaN, which fails both tests
    for x in (s1, v2):
        if not (x.min(initial=0.5) > 0.0 and x.max(initial=0.5) < 1.0):
            raise ValueError("s1 and v2 must lie strictly inside (0, 1)")
    scalar = s1.ndim == 0 and v2.ndim == 0
    # numpy's scalar power differs from its array loop in the last bit
    s1, v2 = np.atleast_1d(s1, v2)
    fam, theta = model.family, model.theta
    if fam is CopulaFamily.CLAYTON:
        if theta == -1.0:
            out = 1.0 - s1 + 0.0 * v2  # broadcast; v2 is irrelevant at the edge
        else:
            out = _clayton_inverse(theta, s1, v2)
    else:
        inverse = _gumbel_root if fam is CopulaFamily.GUMBEL else _frank_inverse
        out = inverse(theta, *np.broadcast_arrays(s1, v2))
    out = np.clip(out, _U_FLOOR, _U_CEIL)  # keep downstream log(s2) finite and negative
    if scalar:
        return float(out[0])
    return out


def _clayton_inverse(theta: float, s1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The Clayton conditional inverse in closed form, theta > -1.

    s2**-theta = 1 + e1 - e2, with e1 = expm1(a1), e2 = expm1(a2),
    a1 = -theta / (theta + 1) * log(v2 s1**(theta + 1)) and a2 = -theta log s1.
    For theta < 0 both lie in (-1, 0) and their difference errs by about eps,
    so it is taken as it stands.  For theta > 0 it cancels as v2 nears 1;
    there 1 + e1 - e2 = 1 + p, p = exp(a2) m, m = expm1(a1 - a2) and
    a1 - a2 = -theta / (theta + 1) * log v2, a form free of cancellation,
    taken for every draw.  The logs of s1 and v2 are taken before they are
    broadcast.
    """
    c = theta / (theta + 1.0)
    log_s1 = np.log(s1)
    log_v2 = np.log(v2)
    a1 = -c * (log_v2 + (theta + 1.0) * log_s1)
    a2 = -theta * log_s1
    if theta < 0.0:
        return np.exp(-np.log1p(np.expm1(a1) - np.expm1(a2)) / theta)
    # past ln(max float) exp and expm1 overflow (a large theta and a small s1)
    wide = np.maximum(a1, a2) > _LOG_MAX
    m = np.expm1(np.where(wide, 0.0, -c * log_v2))
    p = np.exp(np.where(wide, 0.0, a2)) * m
    log1p_p = np.log1p(p)
    out = np.exp(-log1p_p / theta)
    # the root is also s1 (m (1 + 1/p))**(-1/theta), as exp(a2) = s1**-theta:
    # it errs by about (|log s1| - |log s2|) eps, against |log s1| eps from
    # the rounded a2 above, and is taken where |log s2| > |log s1| / 2
    use_s1 = (p > 1.0) & (2.0 * log1p_p > a2) & ~wide
    if use_s1.any():
        s1_at = np.broadcast_to(s1, out.shape)[use_s1]
        out[use_s1] = s1_at * np.exp(-(np.log(m[use_s1]) + np.log1p(1.0 / p[use_s1])) / theta)
    if wide.any():
        # log1p(e1 - e2) = a1 + log(1 - exp(a2 - a1) + exp(-a1)) with
        # a2 - a1 = theta / (theta + 1) * log v2.  Every log is above
        # -745, so this needs theta > 1/2: 1 - exp(a2 - a1) > 2**-56,
        # and exp(-a1) < 2**-1023 is far below half its ulp
        lv = np.broadcast_to(log_v2, wide.shape)[wide]
        out[wide] = np.exp(-(a1[wide] + np.log(-np.expm1(c * lv))) / theta)
    return out


# Veltkamp's constant 2**27 + 1: it splits a double into two 26-bit halves
_SPLIT = 134217729.0
# ln 2 with its low 32 bits cleared, so that n * _LN2_HI is exact for any
# binary exponent n, and the rest of ln 2 (fdlibm's split)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _two_product(c: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c * x as p + e exactly, p the rounded product (Dekker 1971)."""
    m, n = math.frexp(c)  # split the scaled c, so no finite c overflows
    h = _SPLIT * m
    h = h - (h - m)
    ch, cl = math.ldexp(h, n), math.ldexp(m - h, n)
    h = _SPLIT * x
    xh = h - (h - x)
    xl = x - xh
    p = c * x
    return p, ((ch * xh - p) + ch * xl + cl * xh) + cl * xl


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b as s + e exactly, s the rounded sum (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


# a cap on the Newton steps; the most that moved some root in a sweep of
# log-spaced draws was 8, and the iteration stops once none moves
_NEWTON_STEPS = 40


def _gumbel_root(theta: float, s1, v2):
    """The Gumbel conditional inverse by Newton's method.

    With l1 = -log s1 and w = -log C(s1, s2) = l1 * e**t, the conditional
    cdf equation is l1 * expm1(t) + (theta - 1) t = -log v2 (Nelsen 2006,
    An Introduction to Copulas, sec. 2.9).  Its left side is increasing
    and convex in t, and the start, the smaller of two upper bounds on the
    root, lies right of it, so the iterates fall monotonically onto it.  An
    element stops where a step would no longer lower it, so its value does
    not depend on the other elements.  Then -log s2 = (w**theta -
    l1**theta) ** (1 / theta) = w * (-expm1(-theta t)) ** (1 / theta).

    A rounding of t costs w about t of its ulps, so the last Newton step r
    is applied to w itself, as w (1 - r).  Its residual cancels terms as
    large as -log v2 down to about w; where -log v2 > 2 the residual is
    taken again with -log v2 = -(n ln 2 + log m), for v2 = m 2**n, and
    (theta - 1) t as exact pairs.
    """
    ell = -np.log(s1)
    rhs = -np.log(v2)
    k = theta - 1.0
    c = ell + k
    t = np.minimum(np.log1p(rhs / ell), rhs / c)

    def newton_step(t):
        q = ell * np.expm1(t)  # w - l1
        return q, (q + k * t - rhs) / (q + c)

    q, r = newton_step(t)
    for _ in range(_NEWTON_STEPS):
        lower = t - r
        if not (lower < t).any():
            break
        t = np.minimum(t, lower)
        q, r = newton_step(t)
    big = rhs > 2.0
    if big.any():
        m, n = np.frexp(v2[big])
        rhs_hi = n * -_LN2_HI
        kt, kt_err = _two_product(k, t[big])
        gap, gap_err = _two_sum(kt, -rhs_hi)
        qb = q[big]
        r[big] = ((gap + qb) + (gap_err + kt_err + n * _LN2_LO + np.log(m))) / (qb + c[big])
    w = ell + q
    w -= w * r
    return np.exp(-w * (-np.expm1(-theta * (t - r))) ** (1.0 / theta))


# Frank's closed form holds exp(+-theta) in range only while |theta| is at
# most this; past it the inverse is taken in logs
_FRANK_DIRECT_THETA = 700.0


def _frank_inverse(theta: float, s1, v2):
    """The Frank conditional inverse in closed form.

    With a = exp(-theta s1), the conditional cdf equation solves to
    exp(-theta s2) = 1 + y, y = v2 expm1(-theta) / (v2 + (1 - v2) a), so
    s2 = -log1p(y) / theta.  Where y < -1/2 (theta > 0 only) log1p(y)
    would cancel; there 1 + y = (v2 e**-theta + (1 - v2) a) / (v2 + (1 - v2) a)
    is taken as that ratio of positive sums.  The two branches run on
    disjoint elements.  Past |theta| = _FRANK_DIRECT_THETA, where those
    exponentials leave the double range, both sums are taken in logs.
    """
    if abs(theta) > _FRANK_DIRECT_THETA:
        tail = np.log1p(-v2) - theta * s1
        log_ratio = np.logaddexp(np.log(v2) - theta, tail) - np.logaddexp(np.log(v2), tail)
        return -log_ratio / theta
    # -theta s1 exactly, as p + e: rounding it first would cost a up to
    # |theta s1| / 2 ulp
    p, e = _two_product(-theta, s1)
    a = np.exp(p)
    a += a * e
    den = v2 + (1.0 - v2) * a
    y = v2 * math.expm1(-theta) / den
    log_ratio = np.empty(y.shape)
    near = y < -0.5
    far = ~near
    log_ratio[far] = np.log1p(y[far])
    v2, a, den = v2[near], a[near], den[near]
    log_ratio[near] = np.log((v2 * math.exp(-theta) + (1.0 - v2) * a) / den)
    return -log_ratio / theta


@dataclass(frozen=True)
class LatentDraws:
    """Validation hook: both latent durations before the min is taken.

    Only tests should consume t1/t2; the estimators see just the observed
    minimum via observed().
    """

    z: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def observed(self) -> Sample:
        t = np.minimum(self.t1, self.t2)
        delta = np.where(self.t2 < self.t1, 2, 1)  # ties resolve to cause 1
        return Sample(t, delta, self.z)


# rows drawn per block: every step of a draw is elementwise, so blocking
# leaves its bits alone; a block's column is 64 KiB, under the mmap threshold
_BLOCK_ROWS = 8192


def _latent_blocks(config: DgpConfig):
    """(rows, u, z, s2, t1, t2) per block of rows, every array contiguous: u
    the (4, rows) uniforms (z1, z2, s1, v2), which are those of one (n, 4)
    draw as Philox runs on across blocks, and z the (2, rows) covariates."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    m1, m2 = config.marginals
    for a in range(0, config.n, _BLOCK_ROWS):
        rows = slice(a, min(a + _BLOCK_ROWS, config.n))
        u = np.empty((4, rows.stop - a))
        np.maximum(rng.random((rows.stop - a, 4)).T, _U_FLOOR, out=u)
        z = config.covariate_sd * _ndtri(u[:2])
        s2 = conditional_copula_inverse(config.copula, u[2], u[3])
        yield rows, u, z, s2, m1.invert_survival(u[2], z[0]), m2.invert_survival(s2, z[1])
        del u, z, s2  # the next block's arrays replace this one's, not add to them


def simulate_latent(config: DgpConfig) -> LatentDraws:
    """Both latent durations behind simulate(), before the min is taken."""
    z = np.empty((config.n, 2))
    s1, s2, t1, t2 = (np.empty(config.n) for _ in range(4))
    for rows, u, zb, s2b, t1b, t2b in _latent_blocks(config):
        z[rows], s1[rows], s2[rows], t1[rows], t2[rows] = zb.T, u[2], s2b, t1b, t2b
    return LatentDraws(z=z, s1=s1, s2=s2, t1=t1, t2=t2)


def simulate(config: DgpConfig) -> Sample:
    """Draw the observed sample (min duration, its cause, both covariates).

    Deterministic given config.seed; identical configs produce identical
    arrays bit for bit.  It is simulate_latent(config).observed(), written
    block by block without a full-length latent column.
    """
    t, delta, z = np.empty(config.n), np.empty(config.n, dtype=np.int64), np.empty((config.n, 2))
    for rows, u, zb, s2, t1, t2 in _latent_blocks(config):
        z[rows] = zb.T
        np.minimum(t1, t2, out=t[rows])
        delta[rows] = np.where(t2 < t1, 2, 1)  # ties resolve to cause 1
        del u, zb, s2, t1, t2
    return Sample(t, delta, z)


def oracle_surface(config: DgpConfig, t_grid, z) -> np.ndarray:
    """Exact surface along ``t_grid`` at ``z``: one (pi, dpi1, dpi2, d2pi)
    row per duration, the (G, 4) array solve_surface takes.

    The Archimedean identities on the family's own generator phi, with
    margins S_j = S_j(t | z_j): pi = phi^-1(phi(S1) + phi(S2)), dpi_j =
    phi'(S_j) / phi'(pi) * dS_j and d2pi = -phi''(pi) dpi1 dpi2 / phi'(pi).
    It validates kernel estimates and the theta inversion end to end.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid) & (t_grid > 0.0)):
        raise ValueError("t_grid must be a 1-d array of finite positive durations")
    z = np.asarray(z, dtype=float)
    if z.shape != (2,) or not np.all(np.isfinite(z)):
        raise ValueError("z must have exactly two finite entries")
    fam, theta = config.copula.family, config.copula.theta
    m1, m2 = config.marginals
    s1, s2 = m1.survival(t_grid, z[0]), m2.survival(t_grid, z[1])
    pi = _phi_inv(fam, theta, _phi(fam, theta, s1) + _phi(fam, theta, s2))
    # phi'(0) is infinite: where pi is exactly 0 (Clayton theta < 0) the row stays zero
    at = pi > 0.0
    t, s1, s2, pi = t_grid[at], s1[at], s2[at], pi[at]
    dphi_pi = _dphi(fam, theta, pi)
    dpi1 = _dphi(fam, theta, s1) / dphi_pi * m1.survival_dz(t, z[0])
    dpi2 = _dphi(fam, theta, s2) / dphi_pi * m2.survival_dz(t, z[1])
    out = np.zeros((t_grid.size, 4))
    out[at] = np.column_stack([pi, dpi1, dpi2, -_d2phi(fam, theta, pi) * dpi1 * dpi2 / dphi_pi])
    return out
