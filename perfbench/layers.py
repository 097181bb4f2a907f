"""Traced replay of one workload through the library's public functions.

Spans are recorded from this file around each call into a layer, kept in
memory, and written out once when the run ends; nothing inside the package
is instrumented.  Only names that the planned API clean-up keeps are
called: ``simulate``, ``write_dataset_csv``, ``read_dataset_csv``,
``theta_series``, ``estimate_surface_grid``, ``theta_from_ratio`` and
``monte_carlo`` (plus the configuration types they take, and
``GridSpec.resolve`` for the grid the CLI estimates on).

The replay runs every layer for every workload, on that workload's design,
so each per-layer metric exists everywhere.  The layers a CLI invocation of
the workload actually runs are listed in ``Workload.cli_spans``; the rest
are probes on the same inputs.
"""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
import time

import numpy as np

# Epanechnikov weight columns the kernel sums per in-window row at d = 2:
# the weight, its two covariate derivatives and the cross derivative.
KERNEL_COLUMNS = 4

_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import coprisk.cli; "
    "print(repr(time.perf_counter() - t0))"
)


class Tracer:
    """In-memory span recorder.  A disabled tracer times and records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.run_id = None
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict's ``counts`` take layer counts."""
        if not self.enabled:
            yield {"counts": {}}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_time(self, rec: dict) -> float:
        """Span duration minus the part its (sequential) child spans cover."""
        children = sum(
            c["end"] - c["start"] for c in self.spans if c["parent"] == rec["id"]
        )
        return rec["end"] - rec["start"] - children

    def dump(self) -> list[dict]:
        """Spans with start/end relative to the first span, plus self time."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [
            {
                **rec,
                "start": rec["start"] - t0,
                "end": rec["end"] - t0,
                "self_s": self.self_time(rec),
            }
            for rec in self.spans
        ]


def fresh_import_seconds(env: dict, cwd) -> float:
    """Seconds a fresh interpreter spends in ``import coprisk.cli``."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env,
        cwd=cwd,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(out.stdout.strip())


def kernel_window_counts(sample, bandwidths, z, t_grid) -> tuple[int, int]:
    """(rows inside the product-kernel support at z, suffix-sum terms).

    Computed from the inputs: a row is in the window when every scaled
    covariate distance is at most 1; at grid point t the suffix sums add
    the in-window rows with T > t, once per weight column.  Both describe
    the inputs, not the work the kernel does: no change to the program
    moves them, only a change of inputs does.
    """
    u = (np.asarray(z)[None, :] - sample.z) / np.asarray(bandwidths)
    inside = np.all(np.abs(u) <= 1.0, axis=1)
    t_sorted = np.sort(sample.t[inside])
    above = t_sorted.size - np.searchsorted(t_sorted, t_grid, side="right")
    return int(t_sorted.size), int(above.sum()) * KERNEL_COLUMNS


def solve_grid(lib, family, surfaces) -> tuple[int, int, int]:
    """theta_from_ratio at every grid point that is in the solver's domain.

    The domain is the one theta_from_ratio documents: a level in (0, 1)
    and a finite curvature ratio.  Returns (calls, admissible solutions,
    Brent iterations); a call that finds no Frank root counts as a call.
    """
    calls = admissible = iterations = 0
    for est in surfaces:
        denom = est.dpi_hat[0] * est.dpi_hat[1]
        if not (0.0 < est.pi_hat < 1.0) or denom == 0.0 or not math.isfinite(denom):
            continue
        ratio = est.d2pi_hat / denom
        if not math.isfinite(ratio):
            continue
        calls += 1
        try:
            sol = lib.theta_from_ratio(family, est.pi_hat, ratio)
        except lib.NoRootError:
            continue
        admissible += bool(sol.admissible)
        iterations += int(sol.iterations)
    return calls, admissible, iterations


def replay(lib, tracer, design, probe_replicates, dataset_path, env, cwd) -> dict:
    """One pass through every layer on the workload's design.

    ``design`` is (dgp, spec, grid, family); the dataset seed is dgp.seed,
    which is also the base seed of the two ``monte_carlo`` probes (one
    worker, then two).  Returns the library results the caller checks the
    CLI against.
    """
    dgp, spec, grid, family = design
    with tracer.span("replay"):
        with tracer.span("coprisk.import") as s:
            s["counts"]["import_s"] = fresh_import_seconds(env, cwd)
        with tracer.span("dgp.simulate") as s:
            sample = lib.simulate(dgp)
        s["counts"]["rows"] = len(sample)
        with tracer.span("data.write_dataset") as s:
            lib.write_dataset_csv(sample, dataset_path)
        s["counts"]["bytes"] = os.path.getsize(dataset_path)
        with tracer.span("data.read_dataset") as s:
            sample = lib.read_dataset_csv(dataset_path)
        s["counts"]["bytes"] = os.path.getsize(dataset_path)
        with tracer.span("estimator.theta_series") as s:
            try:
                series = lib.theta_series(sample, spec, grid, family)
            except lib.AllPointsExcludedError:  # about one dataset in 60
                series = None
        s["counts"]["n_included"] = series.n_included if series else 0

        t_grid, z = grid.resolve(sample)
        with tracer.span("kernel.weights"):
            lib.estimate_surface_grid(sample, spec, t_grid[:1], z)
        with tracer.span("kernel.surface_grid") as s:
            surfaces = lib.estimate_surface_grid(sample, spec, t_grid, z)
        rows, terms = kernel_window_counts(sample, spec.bandwidths, z, t_grid)
        s["counts"].update(window_rows=rows, n=len(sample), suffix_terms=terms)
        with tracer.span("copula.solve") as s:
            calls, admissible, iterations = solve_grid(lib, family, surfaces)
        s["counts"].update(calls=calls, admissible=admissible, iterations=iterations)

        # monte_carlo raises only when every probe replicate fails: under 0.2%
        # of seeds with 4 replicates even at the Gumbel design, where about
        # one replicate in five fails; that stops the run without a result
        summaries = {}
        for workers in (1, 2):
            with tracer.span(f"estimator.monte_carlo.w{workers}") as s:
                summaries[workers] = lib.monte_carlo(
                    dgp, spec, grid, family, probe_replicates, workers=workers
                )
            ok = ~summaries[workers].failed
            errors = np.abs(summaries[workers].replicate_thetas[ok] - dgp.copula.theta)
            s["counts"].update(
                replicates=probe_replicates,
                failed=summaries[workers].n_failed,
                theta_abs_err_median=float(np.median(errors)),
            )
    return {"series": series, "mc": summaries}
