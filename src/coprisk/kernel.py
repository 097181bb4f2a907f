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

Every kernel sum is accumulated exactly and rounded once, so it is the
correctly rounded value of the exact real sum (what math.fsum returns).
Numbers are therefore bitwise independent of summation order, of
scheduling across evaluation points, and of whether a duration grid is
evaluated in one pass or point by point.  The weights at z are built once,
and every sum of the grid is taken from them in one numpy sweep: each
weight is split into 32-bit integer limbs, the limbs are summed exactly in
int64 from the right end of the duration order, and each sum is rounded
from its top 64 bits, with no Python-int arithmetic.  The surface itself
is computed as arrays (_surface_rows, the route theta_series takes); the
public entry point, estimate_surface_grid, packages those rows as
SurfaceEstimate objects.
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


# Rows per block of the limb sums: a bincount bin then adds at most 2**12
# limbs of magnitude below 2**32, so its float64 sums stay exact integers
# (below 2**53), and the block's temporaries stay small.
_BLOCK_ROWS = 1 << 12
_LIMB_MASK = (1 << 32) - 1


def _normalise(limbs: np.ndarray) -> None:
    """Propagate carries in place, low limb to high: every limb but the top
    one ends in [0, 2**32); the top one keeps the sign of the value."""
    for p in range(limbs.shape[0] - 1):
        limbs[p + 1] += limbs[p] >> 32
        limbs[p] &= _LIMB_MASK


def _suffix_sums(columns: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Correctly rounded ``columns[s:].sum(axis=0)`` for every start s.

    A finite float is mant * 2**(exp - 53) exactly, with mant an integer of
    at most 53 bits (np.frexp scaled by 2**53).  Shifted to the least
    exponent of its column's nonzero entries, every term is an integer,
    held here as three signed 32-bit limbs at its own limb offset (a small
    superaccumulator: Neal 2015, arXiv:1505.05571).  The limbs of each
    segment between the sorted distinct starts are summed exactly in int64
    (np.bincount over limb, column and segment, in row blocks short enough
    that its float64 sums stay exact and its temporaries small), a reversed
    cumulative sum over the segments gives every suffix, and carries are
    then normalised per start.  Each sum is rounded once: its top 64 bits,
    with a sticky bit for everything below, convert to float correctly
    rounded (uint64 to float64) and ldexp scales them exactly.  That holds
    at both ends of the range without a Python-int fallback: a sum of
    floats is a multiple of 2**-1074, so a subnormal sum is exact, and
    ldexp overflows exactly where the correctly rounded sum does, which
    raises OverflowError.  Exact zeros give +0.0, as math.fsum does.  Rows
    of the result follow ``starts``, which may be unsorted, repeat, or
    equal len(columns); exact while len(columns) < 2**31.  The temporaries
    are two arrays the size of ``columns``, those of one block of rows, and
    one int64 per limb, column and distinct start.
    """
    m, c = columns.shape
    uniq, back = np.unique(starts, return_inverse=True)
    nseg = uniq.size
    rows = columns[uniq[0] :]  # no start reaches the rows above the first
    seg = np.repeat(np.arange(nseg), np.diff(np.append(uniq, m)))
    # exponents of each column's least nonzero and largest magnitude; a
    # column without a nonzero entry gets least > most and no terms
    magnitude = np.abs(rows)
    big = np.finfo(float).max
    least = np.where(rows != 0.0, magnitude, big).min(axis=0, initial=big)
    least = np.frexp(least)[1].astype(np.int64)
    most = np.frexp(magnitude.max(axis=0, initial=0.0))[1]
    del magnitude
    emin = least - 53  # every term is an integer times 2**emin
    # two zero limbs below the lowest term, three for a term and one for the carry out
    n_limbs = int(((most - least) >> 5).max(initial=0)) + 6
    col_base = np.arange(c) * nseg
    sums = np.zeros(n_limbs * c * nseg, dtype=np.int64)
    for lo in range(0, seg.size, _BLOCK_ROWS):
        frac, exp = np.frexp(rows[lo : lo + _BLOCK_ROWS])
        mant = (frac * 2.0**53).astype(np.int64)
        shift = np.where(mant != 0, exp - least, 0)
        q, r = shift >> 5, shift & 31
        # bin of a limb: (limb offset, column, segment), the offset slowest
        base = (q + 2) * (c * nseg) + (col_base + seg[lo : lo + _BLOCK_ROWS, None])
        # mant << r as limbs of 32 bits, the top one signed: two's
        # complement arithmetic shifts floor, so limbs 0 and 1 fall in [0, 2**32)
        limbs = (
            (mant.view(np.uint64) << r.astype(np.uint64)) & np.uint64(_LIMB_MASK),
            (mant >> (32 - r)) & _LIMB_MASK,
            (mant >> 32) >> (32 - r),
        )
        for k, limb in enumerate(limbs):
            bins = (base + k * c * nseg).ravel()
            block_sums = np.bincount(bins, limb.ravel().astype(float), minlength=sums.size)
            sums += block_sums.astype(np.int64)
    acc = np.cumsum(sums.reshape(n_limbs, c, nseg)[:, :, ::-1], axis=2)[:, :, ::-1]
    acc = acc.reshape(n_limbs, c * nseg)  # column-major entries: column, then start
    _normalise(acc)
    neg = acc[-1] < 0
    acc[:, neg] *= -1
    _normalise(acc)  # magnitudes: every limb in [0, 2**32)
    nz = acc != 0
    # highest nonzero limb; at least 2, so the two below it exist (a zero
    # sum gets the top limb and rounds to +0.0)
    top_index = np.maximum(n_limbs - 1 - np.argmax(nz[::-1], axis=0), 2)
    entry = np.arange(c * nseg)
    top, mid, low = (acc[top_index - k, entry].astype(np.uint64) for k in range(3))
    below = np.concatenate((np.zeros((1, c * nseg), dtype=np.int64), np.cumsum(nz, axis=0)))
    bits = np.maximum(np.frexp(top.astype(float))[1], 1).astype(np.uint64)
    # top 64 bits of the 96 in top:mid:low, a sticky bit for all below
    head = (top << (np.uint64(64) - bits)) | (mid << (np.uint64(32) - bits)) | (low >> bits)
    dropped = low & ((np.uint64(1) << bits) - np.uint64(1))
    head |= ((dropped != 0) | (below[top_index - 2, entry] > 0)).astype(np.uint64)
    scale = np.repeat(emin, nseg) + bits.astype(np.int64) + 32 * (top_index - 4)
    # float(head) is the sum rounded to 53 bits, so ldexp is exact for a
    # normal sum and gives inf exactly where the rounded sum overflows; a
    # subnormal sum is a multiple of 2**-1074 below 2**-1022, held exactly
    with np.errstate(over="ignore"):
        out = np.ldexp(head.astype(float), scale)
    if np.isinf(out).any():
        raise OverflowError("a kernel sum exceeds the float range")
    out[neg] = -out[neg]
    return out.reshape(c, nseg).T[back]


def _product(factors: list) -> np.ndarray:
    """Elementwise product of the factors, left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


class _ZWeights:
    """All per-observation kernel weights for one covariate evaluation point.

    The window is found one coordinate at a time, each distance computed
    only on the rows still inside, so no (n, d) distance array is built.
    Observations outside the product-kernel support are dropped; the rest
    are sorted by duration (ties in any order, which the exact sums do not
    see) so that the indicator sum over {T_i > t} is a suffix, located by
    binary search.  ``columns`` holds the weight, its d covariate
    derivatives and the cross derivative, one column each; every sum a
    duration grid needs is taken from them in one sweep of exact int64 limb
    sums (_suffix_sums), rounded once per sum.
    """

    __slots__ = ("t_sorted", "columns")

    def __init__(self, sample: Sample, spec: KernelSpec, z: np.ndarray) -> None:
        d = sample.z.shape[1]
        h = np.asarray(spec.bandwidths, dtype=float)
        # a tiny bandwidth overflows distances (those rows leave the window)
        # and weights (checked below) without a floating-point warning
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # one coordinate at a time, each on the rows still in the window
            inside = np.flatnonzero(np.abs((z[0] - sample.z[:, 0]) / h[0]) <= 1.0)
            for k in range(1, d):
                inside = inside[np.abs((z[k] - sample.z[inside, k]) / h[k]) <= 1.0]
            # by duration; the exact sums do not see the order of ties
            inside = inside[np.argsort(sample.t[inside])]
            u = [(z[k] - sample.z[inside, k]) / h[k] for k in range(d)]
            factor = [0.75 * (1.0 - uk * uk) / hk for uk, hk in zip(u, h)]  # K(u_k)/h_k
            dfactor = [-1.5 * uk / (hk * hk) for uk, hk in zip(u, h)]  # K'(u_k)/h_k^2
            columns = np.empty((inside.size, d + 2))
            columns[:, 0] = _product(factor)
            for k in range(d):
                columns[:, 1 + k] = _product([*factor[:k], dfactor[k], *factor[k + 1 :]])
            columns[:, d + 1] = _product([dfactor[0], dfactor[1], *factor[2:]])
        if not np.all(np.isfinite(columns)):
            raise ValueError(
                f"kernel weights overflow: bandwidths too small for floating point, got {spec.bandwidths!r}"
            )
        self.t_sorted = sample.t[inside]
        self.columns = columns

    def sums(self, ts) -> np.ndarray:
        """Row 0: the b-side totals (b, b_grad..., b_cross); row 1 + i: the
        sums over {T_i > ts[i]} (a, a_grad..., a_cross)."""
        starts = np.searchsorted(self.t_sorted, ts, side="right")
        try:
            return _suffix_sums(self.columns, np.concatenate(([0], starts)))
        except OverflowError:  # finite weights whose exact sum is beyond the float range
            raise ValueError("kernel weights overflow: their sum exceeds the float range") from None


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


def _surface_rows(sample: Sample, spec: KernelSpec, t_grid, z) -> tuple[np.ndarray, float]:
    """The surface along a duration grid at one covariate point, as arrays.

    Returns the (G, d + 2) rows (pi, dpi_1, ..., dpi_d, d2pi), one per grid
    point (for d = 2 the (G, 4) layout of ThetaSeries.surface), and the
    kernel mass b.  The quotient rule runs as elementwise numpy operations
    in the order of the scalar formulas, so every value is the one those
    formulas give in Python floats.  Raises EmptyNeighborhoodError when no
    observation carries kernel weight at z; the empty window is duration
    independent, hence raised for the grid as a whole.
    """
    z = _check_point(sample, spec, z)
    ts = np.asarray(t_grid, dtype=float).ravel()
    if ts.size == 0:
        raise ValueError("t_grid must be nonempty")
    bad = ~np.isfinite(ts)
    if bad.any():
        raise ValueError(f"t must be finite, got {float(ts[bad][0])!r}")
    sums = _ZWeights(sample, spec, z).sums(ts)
    b, *b_grad, b_cross = sums[0].tolist()
    if b == 0.0:
        raise EmptyNeighborhoodError(
            "no kernel mass at the evaluation covariate point"
        )
    a, a_grad, a_cross = sums[1:, 0], sums[1:, 1:-1], sums[1:, -1]
    b2 = b * b
    rows = np.empty((ts.size, a_grad.shape[1] + 2))
    # b*b underflows for a tiny mass: the derivatives are then nonfinite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rows[:, 0] = a / b
        rows[:, 1:-1] = (a_grad * b - a[:, None] * np.array(b_grad)) / b2
        rows[:, -1] = (
            a_cross / b
            - (b_grad[0] * a_grad[:, 1] + a_grad[:, 0] * b_grad[1] + b_cross * a) / b2
            + 2.0 * b_grad[0] * a * b_grad[1] / (b2 * b)
        )
    return rows, b


def estimate_surface_grid(sample: Sample, spec: KernelSpec, t_grid, z) -> list[SurfaceEstimate]:
    """Evaluate the surface along a duration grid at one covariate point.

    The kernel weights depend on z only, so they are built once and shared
    by all grid points; each returned entry is bitwise identical to a
    one-point grid at the same duration.  The entries package the rows of
    the array route theta_series takes.  Raises EmptyNeighborhoodError when
    no observation carries kernel weight at z.
    """
    rows, b = _surface_rows(sample, spec, t_grid, z)
    return [
        SurfaceEstimate(pi_hat=pi, dpi_hat=tuple(dpi), d2pi_hat=d2pi, b_at_z=b)
        for pi, *dpi, d2pi in rows.tolist()
    ]
