"""Observation records, the column-backed Sample container, and every CSV
artifact the package writes.

The CSV dialect is fixed: a header row, LF line endings, floats written as
shortest round-trip decimals so that write -> read reproduces the in-memory
arrays bit for bit, integers and flags as integers.  Datasets use the header
``t,delta,z1,...``.  All five writers (dataset, surface, theta series, Monte
Carlo replicates and summary) go through one column-wise writer.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .estimator import McSummary, ThetaSeries

__all__ = [
    "Observation",
    "Sample",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_mc_replicates_csv",
    "write_theta_series_csv",
]


@dataclass(frozen=True)
class Observation:
    """One competing-risks record: duration, failure cause (1 or 2), covariates."""

    t: float
    delta: int
    z: tuple[float, ...]


class Sample(Sequence):
    """Immutable column store of observations.

    Keeps durations, causes and covariates as numpy arrays (what the kernel
    machinery consumes) while behaving as a sequence of Observation records.
    At least two covariate columns are required; the first two are the
    cause-specific ones used by the cross-derivative estimator.
    """

    __slots__ = ("t", "delta", "z")

    def __init__(self, t, delta, z) -> None:
        t = np.ascontiguousarray(t, dtype=float)
        delta = np.ascontiguousarray(delta, dtype=np.int64)
        z = np.ascontiguousarray(z, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("t must be a nonempty 1-d array")
        if delta.shape != t.shape:
            raise ValueError("delta must match t in shape")
        if z.ndim != 2 or z.shape[0] != t.size:
            raise ValueError("z must be (n, d) with one row per observation")
        if z.shape[1] < 2:
            raise ValueError("need at least two covariate columns")
        if not np.all(np.isfinite(t)) or np.any(t <= 0.0):
            raise ValueError("durations must be finite and positive")
        if not np.all((delta == 1) | (delta == 2)):
            raise ValueError("delta must be 1 or 2")
        if not np.all(np.isfinite(z)):
            raise ValueError("covariates must be finite")
        for arr in (t, delta, z):
            arr.setflags(write=False)
        self.t = t
        self.delta = delta
        self.z = z

    @classmethod
    def from_observations(cls, observations) -> "Sample":
        obs = list(observations)
        return cls(
            [o.t for o in obs],
            [o.delta for o in obs],
            [list(o.z) for o in obs],
        )

    @property
    def d(self) -> int:
        return self.z.shape[1]

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Sample(self.t[index], self.delta[index], self.z[index])
        i = int(index)
        return Observation(
            float(self.t[i]), int(self.delta[i]), tuple(float(v) for v in self.z[i])
        )

    def __iter__(self) -> Iterator[Observation]:
        for i in range(len(self)):
            yield self[i]

    def mean_covariates(self) -> np.ndarray:
        """Sample average of each covariate column."""
        return self.z.mean(axis=0)


def _fmt(x: float) -> str:
    """Shortest round-trip decimal of a float, taken from a Python float
    (numpy scalars repr as ``np.float64(...)``)."""
    return repr(float(x))


def _column_text(column) -> list[str]:
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map(repr, column.tolist()))
        return list(map(str, column.astype(np.int64, copy=False).tolist()))  # bools as 0/1
    return [v if isinstance(v, str) else _fmt(v) if isinstance(v, float) else str(int(v)) for v in column]


_BLOCK_ROWS = 1024


def _write_csv(path, header, columns) -> None:
    """Write a header row and equal-length columns with LF endings.

    A float array becomes shortest round-trip decimals, an integer or bool
    array integers (bools as 0/1); a plain sequence is formatted value by
    value the same way, with strings passed through.  Rows are joined in
    blocks so that a large sample never exists as text all at once.
    """
    n = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _BLOCK_ROWS):
            cells = [_column_text(col[lo : lo + _BLOCK_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_dataset_csv(sample: Sample, path) -> None:
    """Write a sample using the ``t,delta,z1,...`` schema with LF endings."""
    header = ["t", "delta"] + [f"z{j + 1}" for j in range(sample.d)]
    _write_csv(path, header, [sample.t, sample.delta, *sample.z.T])


def write_theta_series_csv(series: ThetaSeries, path) -> None:
    """Write ``t,theta,included`` rows; theta is NaN at undefined points."""
    _write_csv(path, ["t", "theta", "included"], [series.t, series.theta_pointwise, series.included])


def _write_surface_csv(series: ThetaSeries, path) -> None:
    """Write the ``t,pi,dpi1,dpi2,d2pi`` surface a theta series was solved from."""
    _write_csv(path, ["t", "pi", "dpi1", "dpi2", "d2pi"], [series.t, *series.surface.T])


def write_mc_replicates_csv(summary: McSummary, path) -> None:
    """Write ``replicate,theta_hat,n_included,failed`` rows."""
    _write_csv(
        path,
        ["replicate", "theta_hat", "n_included", "failed"],
        [np.arange(summary.replicate_thetas.size), summary.replicate_thetas, summary.n_included, summary.failed],
    )


def _write_mc_summary_csv(untrimmed: McSummary, trimmed: McSummary, path) -> None:
    """Write ``statistic,no_trimming,trimming`` rows for two summaries of one study."""
    columns = [
        (s.mean, s.p05, s.p95, s.p95 - s.p05, s.replicate_thetas.size, s.n_failed)
        for s in (untrimmed, trimmed)
    ]
    names = ("mean", "p05", "p95", "spread", "n_replicates", "n_failed")
    _write_csv(path, ["statistic", "no_trimming", "trimming"], [names, *columns])


def read_dataset_csv(path) -> Sample:
    """Read a dataset written by write_dataset_csv (or matching its schema).

    The rows are parsed in one np.loadtxt pass: a value that is not a float,
    a cause that is not an integer literal, a ``#`` anywhere, or a row wider
    or narrower than the header raises ValueError.  Blank lines are skipped.
    """
    with open(path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: empty dataset file")
        header = line.rstrip("\r\n").split(",")
        expected = ["t", "delta"] + [f"z{j + 1}" for j in range(len(header) - 2)]
        if header != expected or len(header) < 4:
            raise ValueError(f"{path}: bad header {header!r}, want t,delta,z1,z2,...")
        dtype = np.dtype([("t", float), ("delta", np.int64), ("z", float, (len(header) - 2,))])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError as exc:  # numpy appends advice on its usecols argument
                raise ValueError(f"{path}: {str(exc).partition(';')[0]}") from None
    if rows.size == 0:
        raise ValueError(f"{path}: no data rows")
    return Sample(rows["t"], rows["delta"], rows["z"])
