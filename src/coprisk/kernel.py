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

Every kernel sum is evaluated with math.fsum, which returns the correctly
rounded value of the exact real sum.  Numbers are therefore bitwise
independent of summation order, of scheduling across evaluation points, and
of whether a duration grid is evaluated in one pass or point by point.
The one entry point, estimate_surface_grid, builds the weights at z once
and evaluates every grid duration from them.
"""

from __future__ import annotations

import math
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


class _ZWeights:
    """All per-observation kernel weights for one covariate evaluation point.

    Observations outside the product-kernel support are dropped; the rest
    are sorted by duration so that the indicator sum over {T_i > t} is a
    suffix, located by binary search.  Weight columns are kept as plain
    lists: math.fsum consumes them fastest, and the b-side totals (duration
    independent) are computed once here.
    """

    __slots__ = ("t_sorted", "w", "w_grad", "w_cross", "b", "b_grad", "b_cross")

    def __init__(self, sample: Sample, spec: KernelSpec, z: np.ndarray) -> None:
        d = sample.z.shape[1]
        h = np.asarray(spec.bandwidths, dtype=float)
        u = (z[None, :] - sample.z) / h
        inside = np.flatnonzero(np.all(np.abs(u) <= 1.0, axis=1))
        if inside.size == 0:
            self.t_sorted = np.empty(0)
            self.w = []
            self.w_grad = [[] for _ in range(d)]
            self.w_cross = []
            self.b = 0.0
            self.b_grad = (0.0,) * d
            self.b_cross = 0.0
            return
        u = u[inside]
        factor = 0.75 * (1.0 - u * u) / h  # K(u_k)/h_k per coordinate
        dfactor = -1.5 * u / (h * h)  # K'(u_k)/h_k^2 per coordinate
        w = factor.prod(axis=1)
        grad = np.empty((inside.size, d))
        for k in range(d):
            cols = factor.copy()
            cols[:, k] = dfactor[:, k]
            grad[:, k] = cols.prod(axis=1)
        cols = factor.copy()
        cols[:, 0] = dfactor[:, 0]
        cols[:, 1] = dfactor[:, 1]
        cross = cols.prod(axis=1)

        order = np.argsort(sample.t[inside], kind="stable")
        self.t_sorted = sample.t[inside][order]
        self.w = w[order].tolist()
        self.w_grad = [grad[order, k].tolist() for k in range(d)]
        self.w_cross = cross[order].tolist()
        self.b = math.fsum(self.w)
        self.b_grad = tuple(math.fsum(col) for col in self.w_grad)
        self.b_cross = math.fsum(self.w_cross)

    def sums_at(self, t: float) -> tuple[float, tuple[float, ...], float]:
        """Duration-dependent sums over {T_i > t}: (a, a_grad, a_cross)."""
        i0 = int(np.searchsorted(self.t_sorted, t, side="right"))
        return (
            math.fsum(self.w[i0:]),
            tuple(math.fsum(col[i0:]) for col in self.w_grad),
            math.fsum(self.w_cross[i0:]),
        )

    def surface_at(self, t: float) -> SurfaceEstimate:
        """Quotient-rule surface and derivatives at duration t (needs b > 0)."""
        a, a_grad, a_cross = self.sums_at(t)
        b, b_grad = self.b, self.b_grad
        b2 = b * b
        pi_hat = a / b
        dpi_hat = tuple((ak * b - a * bk) / b2 for ak, bk in zip(a_grad, b_grad))
        d2pi_hat = (
            a_cross / b
            - (b_grad[0] * a_grad[1] + a_grad[0] * b_grad[1] + self.b_cross * a) / b2
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
    weights = _ZWeights(sample, spec, z)
    if weights.b == 0.0:
        raise EmptyNeighborhoodError(
            "no kernel mass at the evaluation covariate point"
        )
    return [weights.surface_at(t) for t in ts]
