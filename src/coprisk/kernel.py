"""Product-kernel estimation of the conditional joint survival surface.

Estimates pi(t; z) = P(T > t | Z = z) from (duration, covariate) pairs by
smoothing only in the covariates: with product Epanechnikov weights

    a(t, z) = sum_i 1{T_i > t} * prod_k K(u_ik) / h_k,
    b(z)    = sum_i              prod_k K(u_ik) / h_k,
    u_ik    = (z_k - Z_ik) / h_k,

the surface is pi_hat = a / b, its covariate derivatives follow from the
quotient rule with the exact kernel derivative (the derivative factor in
coordinate k is K'(u_ik) / h_k**2), and the cross derivative is taken in
the first two covariate coordinates.

Every kernel sum is accumulated exactly in integers and rounded once, so
it is the correctly rounded value of the exact real sum (what math.fsum
returns).  Numbers are therefore bitwise independent of summation order, of
scheduling across evaluation points, and of whether a duration grid is
evaluated in one pass or point by point.  The one entry point,
estimate_surface_grid, builds the weights at z once and takes every sum of
the grid from them in one right-to-left sweep.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .data import Sample

__all__ = [
    "EmptyNeighborhoodError",
    "KernelSpec",
    "SurfaceEstimate",
    "estimate_surface_grid",
]


class EmptyNeighborhoodError(RuntimeError):
    """No observation carries kernel weight at the evaluation covariate point."""


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth vector of the product Epanechnikov kernel, one per covariate
    coordinate."""

    bandwidths: tuple[float, ...]

    def __post_init__(self) -> None:
        bw = tuple(float(h) for h in self.bandwidths)
        if len(bw) == 0:
            raise ValueError("at least one bandwidth is required")
        if not all(math.isfinite(h) and h > 0.0 for h in bw):
            raise ValueError(f"bandwidths must be positive and finite, got {bw!r}")
        object.__setattr__(self, "bandwidths", bw)

    @property
    def d(self) -> int:
        return len(self.bandwidths)


@dataclass(frozen=True)
class SurfaceEstimate:
    """Estimated joint survival level and covariate derivatives at one point.

    ``b_at_z`` is the kernel mass at the covariate point (a density proxy),
    kept as a diagnostic; pi_hat lies in [0, 1] whenever it is positive.
    """

    pi_hat: float
    dpi_hat: tuple[float, ...]
    d2pi_hat: float
    b_at_z: float


def _suffix_sums(columns: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Correctly rounded ``columns[s:].sum(axis=0)`` for every start s.

    A finite float is mant * 2**(exp - 53) exactly, with mant an integer of
    at most 53 bits (np.frexp scaled by 2**53).  Shifted to the least
    exponent of its column's nonzero entries (frexp reports exponent 0 for
    a zero), every term is an integer, so Python-int sums are exact.  One
    right-to-left sweep adds the segments between the sorted distinct
    starts and rounds once at each start: int / int true division is
    correctly rounded, as is float(int).  Rows of the result follow
    ``starts``, which may be unsorted, repeat, or equal len(columns).
    """
    m, c = columns.shape
    uniq, back = np.unique(starts, return_inverse=True)
    bounds = [*uniq.tolist(), m]
    out = np.zeros((uniq.size, c))
    frac, exp = np.frexp(columns)
    mant = (frac * 2.0**53).astype(np.int64)
    for j in range(c):
        nonzero = mant[:, j] != 0
        if not nonzero.any():
            continue  # every suffix sums to 0.0, as math.fsum gives
        emin = int(exp[nonzero, j].min()) - 53
        shift = np.where(nonzero, exp[:, j] - 53 - emin, 0).tolist()
        terms = list(map(operator.lshift, mant[:, j].tolist(), shift))
        scale = 1 << -emin if emin < 0 else 0
        acc = 0
        for k in range(uniq.size - 1, -1, -1):
            acc += sum(terms[bounds[k] : bounds[k + 1]])
            out[k, j] = acc / scale if scale else float(acc << emin)
    return out[back]


class _ZWeights:
    """All per-observation kernel weights for one covariate evaluation point.

    Observations outside the product-kernel support are dropped; the rest
    are sorted by duration so that the indicator sum over {T_i > t} is a
    suffix, located by binary search.  ``columns`` holds the weight, its d
    covariate derivatives and the cross derivative, one column each; every
    sum a duration grid needs is taken from them by exact integer
    accumulation in one sweep (_suffix_sums), rounded once per sum.
    """

    __slots__ = ("t_sorted", "columns")

    def __init__(self, sample: Sample, spec: KernelSpec, z: np.ndarray) -> None:
        d = sample.z.shape[1]
        h = np.asarray(spec.bandwidths, dtype=float)
        # a tiny bandwidth overflows distances (those rows leave the window)
        # and weights (checked below) without a floating-point warning
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            u = (z[None, :] - sample.z) / h
            inside = np.flatnonzero(np.all(np.abs(u) <= 1.0, axis=1))
            u = u[inside]
            factor = 0.75 * (1.0 - u * u) / h  # K(u_k)/h_k per coordinate
            dfactor = -1.5 * u / (h * h)  # K'(u_k)/h_k^2 per coordinate
            columns = np.empty((inside.size, d + 2))
            columns[:, 0] = factor.prod(axis=1)
            for k in range(d):
                cols = factor.copy()
                cols[:, k] = dfactor[:, k]
                columns[:, 1 + k] = cols.prod(axis=1)
            cols = factor.copy()
            cols[:, 0] = dfactor[:, 0]
            cols[:, 1] = dfactor[:, 1]
            columns[:, d + 1] = cols.prod(axis=1)
        if not np.all(np.isfinite(columns)):
            raise ValueError(
                f"kernel weights overflow: bandwidths too small for floating point, got {spec.bandwidths!r}"
            )
        order = np.argsort(sample.t[inside], kind="stable")
        self.t_sorted = sample.t[inside][order]
        self.columns = columns[order]

    def sums(self, ts) -> np.ndarray:
        """Row 0: the b-side totals (b, b_grad..., b_cross); row 1 + i: the
        sums over {T_i > ts[i]} (a, a_grad..., a_cross)."""
        starts = np.searchsorted(self.t_sorted, ts, side="right")
        try:
            return _suffix_sums(self.columns, np.concatenate(([0], starts)))
        except OverflowError:  # finite weights whose exact sum is beyond the float range
            raise ValueError("kernel weights overflow: their sum exceeds the float range") from None


def _surface(
    a: float, a_grad: list, a_cross: float, b: float, b_grad: list, b_cross: float
) -> SurfaceEstimate:
    """Quotient-rule surface and derivatives from the raw sums (needs b > 0)."""
    b2 = b * b
    pi_hat = a / b
    dpi_hat = tuple((ak * b - a * bk) / b2 for ak, bk in zip(a_grad, b_grad))
    d2pi_hat = (
        a_cross / b
        - (b_grad[0] * a_grad[1] + a_grad[0] * b_grad[1] + b_cross * a) / b2
        + 2.0 * b_grad[0] * a * b_grad[1] / (b2 * b)
    )
    return SurfaceEstimate(pi_hat=pi_hat, dpi_hat=dpi_hat, d2pi_hat=d2pi_hat, b_at_z=b)


def _check_point(sample: Sample, spec: KernelSpec, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    d = sample.z.shape[1]
    if z.shape != (d,):
        raise ValueError(f"z must have shape ({d},) to match the sample, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    if spec.d != d:
        raise ValueError(
            f"kernel spec has {spec.d} bandwidths but the sample has {d} covariates"
        )
    return z


def _check_t(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return t


def estimate_surface_grid(sample: Sample, spec: KernelSpec, t_grid, z) -> list[SurfaceEstimate]:
    """Evaluate the surface along a duration grid at one covariate point.

    The kernel weights depend on z only, so they are built once and shared
    by all grid points; each returned entry is bitwise identical to a
    one-point grid at the same duration.  Raises EmptyNeighborhoodError when
    no observation carries kernel weight at z; the empty window is duration
    independent, hence raised for the grid as a whole.
    """
    z = _check_point(sample, spec, z)
    ts = [_check_t(t) for t in np.asarray(t_grid, dtype=float).ravel()]
    if not ts:
        raise ValueError("t_grid must be nonempty")
    (b, *b_grad, b_cross), *rows = _ZWeights(sample, spec, z).sums(ts).tolist()
    if b == 0.0:
        raise EmptyNeighborhoodError(
            "no kernel mass at the evaluation covariate point"
        )
    return [_surface(a, a_grad, a_cross, b, b_grad, b_cross) for a, *a_grad, a_cross in rows]
