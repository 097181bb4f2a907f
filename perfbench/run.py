#!/usr/bin/env python3
"""Benchmark of the ``coprisk`` command-line tool.

One workload per run, driven as a closed loop with one client: each
``python -m coprisk`` invocation (with ``PYTHONPATH=src``) starts only after
the previous one has ended.  ``--trace 0`` times the invocations and prints
the end-to-end metrics.  ``--trace 1`` replays the workload in this process
through the library's public functions, with a span around each layer
call (see ``layers.py``), and prints the per-layer metrics.  Outputs are
checked outside the timed region in both modes.  Every metric is printed
with its unit and sample count; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Run from the repository root:

    python3 perfbench/run.py --workload montecarlo-gumbel --seed 1 --seconds 20 --trace 0

Each run writes its full record (context, quartiles, spans) to
``.perfbench/results/`` and removes its scratch files on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from layers import Tracer, replay  # noqa: E402  (the benchmark's own module)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

BANDWIDTH = 0.3
TRIM = (1.3, 2.5)
WORKERS = 2  # the measurement host has 2 cores; no workload uses more processes
SETUPS = 3  # set-up repeats per run; setup_s is their median
CHECK_PREFIX = 2  # mc_replicates.csv rows checked against monte_carlo(workers=1)
ORACLE_FAMILIES = ("clayton", "gumbel", "frank")
ORACLE_TOLERANCE = 1e-9
INVOCATION_TIMEOUT_S = 120.0
ESTIMATION_FAILURE = 3  # CLI exit code when no grid point survives definedness and trimming

# the package is not installed: every process imports it from this checkout only
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # coprisk subcommand that is timed
    family: str
    dependence: tuple[str, str]  # ("--theta", value) or ("--tau", value)
    from_data: bool  # estimate from a dataset written at set-up
    cli_spans: tuple[str, ...]  # replay spans that a CLI invocation also runs


WORKLOADS = {
    w.name: w
    for w in (
        # simulates and writes dataset.csv on every invocation; closed-form
        # Clayton simulation and solve, so import and the CSV write dominate
        Workload(
            "estimate-sim-clayton",
            "estimate",
            "clayton",
            ("--theta", "0.5"),
            from_data=False,
            cli_spans=("dgp.simulate", "data.write_dataset", "estimator.theta_series"),
        ),
        # reads a dataset instead of writing one; the only Frank brentq solve
        Workload(
            "estimate-data-frank",
            "estimate",
            "frank",
            ("--tau", "0.2"),
            from_data=True,
            cli_spans=("data.read_dataset", "estimator.theta_series"),
        ),
        # bisection simulation and kernel sums per replicate, 2-process
        # fan-out, import paid once per study, no large file I/O
        Workload(
            "montecarlo-gumbel",
            "montecarlo",
            "gumbel",
            ("--tau", "0.2"),
            from_data=False,
            cli_spans=("estimator.monte_carlo.w2",),
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    n: int
    grid_points: int
    replicates: int  # replicates per timed montecarlo study
    probe_replicates: int  # replicates per traced monte_carlo call and traced CLI study


FULL = Scale(n=100_000, grid_points=500, replicates=16, probe_replicates=4)
SMOKE = Scale(n=20_000, grid_points=100, replicates=4, probe_replicates=2)

# workloads, metric names and units, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs; no result is printed."""


class CheckFailed(RuntimeError):
    """An invocation's output disagrees with the library or the oracle."""


# ---------------------------------------------------------------------------
# Inputs and invocations
# ---------------------------------------------------------------------------


def derive_seed(seed: int, *parts) -> int:
    """Dataset seed for one use of the workload seed (63 bits, so seed + r fits)."""
    digest = hashlib.sha256(repr((seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def cli_args(w: Workload, scale: Scale, seed: int, out_dir: Path, dataset, replicates: int) -> list[str]:
    args = [
        w.command,
        "--family", w.family,
        *w.dependence,
        "--bandwidth", str(BANDWIDTH),
        "--grid-points", str(scale.grid_points),
        "--trim", f"{TRIM[0]}:{TRIM[1]}",
        "--out", str(out_dir),
    ]
    if w.from_data:
        args += ["--data", str(dataset)]
    else:
        args += ["--n", str(scale.n), "--seed", str(seed)]
    if w.command == "montecarlo":
        args += ["--replicates", str(replicates), "--threads", str(WORKERS)]
    return args


@dataclass
class Invocation:
    out_dir: Path
    returncode: int
    wall_s: float
    peak_rss_mb: float  # largest peak RSS of any process in the tree
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def invoke(args: list[str], out_dir: Path) -> Invocation:
    """Run ``python -m coprisk ARGS`` and time it from the benchmark process.

    ``os.wait4`` returns the rusage of the child together with the children
    it reaped, so ``ru_maxrss`` covers the worker processes too.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout.txt", "w+") as out, open(out_dir / "stderr.txt", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "coprisk", *args],
            stdout=out,
            stderr=err,
            env=ENV,
            cwd=ROOT,
            start_new_session=True,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(out_dir, proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, out.read(), err.read())


def _require(inv: Invocation, what: str, codes=(0,)) -> None:
    if inv.returncode not in codes:
        tail = inv.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise SetupError(f"{what} exited with {inv.returncode}: {tail[0]}")


def set_up(w: Workload, scale: Scale, seed: int, work: Path) -> tuple[list[float], Path | None]:
    """Input generation plus one untimed warm-up invocation, SETUPS times.

    The warm-up compiles bytecode and fills the page cache, which users pay
    once.  A montecarlo warm-up runs one replicate per worker.  An estimate
    warm-up may end in the documented estimation failure (exit 3).
    """
    dataset = work / "input" / "dataset.csv" if w.from_data else None
    times = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        if w.from_data:
            sim_args = [
                "simulate", "--family", w.family, *w.dependence,
                "--n", str(scale.n), "--seed", str(derive_seed(seed, "dataset")),
                "--out", str(dataset.parent),
            ]
            _require(invoke(sim_args, dataset.parent), "coprisk simulate")
        warm_dir = work / "warm-up"
        warm = cli_args(w, scale, derive_seed(seed, "warm-up", i), warm_dir, dataset, WORKERS)
        _require(invoke(warm, warm_dir), f"warm-up coprisk {w.command}", codes=(0, ESTIMATION_FAILURE))
        times.append(time.perf_counter() - t0)
    return times, dataset


def import_library():
    sys.path.insert(0, str(SRC))
    import coprisk
    import coprisk.cli

    if not Path(coprisk.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported coprisk from {coprisk.__file__}, not from {SRC}")
    return coprisk


def library_design(lib, w: Workload, scale: Scale, seed: int):
    """(dgp, spec, grid, family) exactly as the CLI resolves the workload."""
    family = lib.CopulaFamily(w.family)
    flag, value = w.dependence
    theta = float(value) if flag == "--theta" else lib.theta_for_tau(family, float(value))
    dgp = lib.default_config(scale.n, seed, theta=theta, family=family)
    spec = lib.KernelSpec((BANDWIDTH, BANDWIDTH))
    grid = lib.GridSpec(trim_lo=TRIM[0], trim_hi=TRIM[1], n_points=scale.grid_points)
    return dgp, spec, grid, family


# ---------------------------------------------------------------------------
# Output checks (never inside a timed region)
# ---------------------------------------------------------------------------

_ESTIMATE_LINE = re.compile(r"theta_hat=(\S+) n_included=(\d+)")
_MC_LINE = re.compile(r"mean_no_trimming=\S+ mean_trimming=\S+ n_failed=(\d+)")
_MC_HEADER = ["replicate", "theta_hat", "n_included", "failed"]


def library_series(lib, path, design):
    """theta_series on a dataset file; None where no grid point is usable.

    A dataset the invocation did not write, or wrote unreadably, is a
    failed check of that invocation.
    """
    _, spec, grid, family = design
    try:
        sample = lib.read_dataset_csv(path)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read the dataset {path}: {exc}") from exc
    try:
        return lib.theta_series(sample, spec, grid, family)
    except lib.AllPointsExcludedError:
        return None


def check_estimate(inv: Invocation, series) -> None:
    """Replay contract: the printed theta_hat is the library's, bit for bit.

    About one dataset in 60 at these designs leaves no usable grid point in
    the trim window; there the library raises (``series`` is None) and the
    CLI must exit 3 with one ``error: estimation:`` line.
    """
    if series is None:
        lines = inv.stderr.strip().splitlines()
        if inv.returncode != ESTIMATION_FAILURE or len(lines) != 1 or not lines[0].startswith("error: estimation:"):
            raise CheckFailed(f"library found no usable grid point, CLI exited {inv.returncode}: {lines}")
        return
    m = _ESTIMATE_LINE.fullmatch(inv.stdout.strip())
    if inv.returncode != 0 or m is None:
        raise CheckFailed(f"estimate exited {inv.returncode}: {inv.stdout.strip()!r} {inv.stderr.strip()!r}")
    if m[1] != repr(series.theta_hat) or int(m[2]) != series.n_included:
        raise CheckFailed(
            f"printed theta_hat={m[1]} n_included={m[2]}, library gives "
            f"{series.theta_hat!r} and {series.n_included}"
        )


def read_mc_rows(inv: Invocation, replicates: int) -> list[list[str]]:
    m = _MC_LINE.fullmatch(inv.stdout.strip())
    if inv.returncode != 0 or m is None:
        raise CheckFailed(f"montecarlo exited {inv.returncode}: {inv.stdout.strip()!r} {inv.stderr.strip()!r}")
    try:
        with open(inv.out_dir / "mc_replicates.csv", newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read mc_replicates.csv: {exc}") from exc
    if table[:1] != [_MC_HEADER] or len(table) != replicates + 1 or any(len(r) != 4 for r in table):
        raise CheckFailed(f"mc_replicates.csv is not a header and {replicates} rows of 4 fields")
    rows = table[1:]
    if sum(int(r[3]) for r in rows) != int(m[1]):
        raise CheckFailed("printed n_failed disagrees with mc_replicates.csv")
    return rows


def mc_rows(summary, replicates: int) -> list[list[str]]:
    """mc_replicates.csv rows for a monte_carlo summary (None: all failed)."""
    if summary is None:
        return [[str(r), "nan", "0", "1"] for r in range(replicates)]
    return [
        [str(r), repr(float(summary.replicate_thetas[r])), str(int(summary.n_included[r])), str(int(summary.failed[r]))]
        for r in range(replicates)
    ]


def library_mc_rows(lib, design, replicates: int) -> list[list[str]]:
    dgp, spec, grid, family = design
    try:
        summary = lib.monte_carlo(dgp, spec, grid, family, replicates, workers=1)
    except lib.AllPointsExcludedError:
        summary = None
    return mc_rows(summary, replicates)


def check_rows(got: list[list[str]], want: list[list[str]], what: str) -> None:
    """Worker-count contract: rows agree bit for bit (floats as repr)."""
    if got != want:
        raise CheckFailed(f"{what}: {got} != {want}")


def oracle_checks(lib, out_dir: Path) -> list[str]:
    """Run ``oracle-check`` per family; return the failures."""
    failures = []
    for family in ORACLE_FAMILIES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(["oracle-check", "--family", family, "--out", str(out_dir)])
        m = re.fullmatch(r"max_abs_theta_error=(\S+)", buf.getvalue().strip())
        if code != 0 or m is None or not float(m[1]) <= ORACLE_TOLERANCE:
            failures.append(f"oracle-check {family}: exit {code}, {buf.getvalue().strip()!r}")
    return failures


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def closed_loop(seconds: float, step) -> list:
    """Call step(k) back to back until ``seconds`` have passed (at least once)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(step(len(results)))
    return results


def measure_end_to_end(lib, w, scale, seed, seconds, work, dataset, setup_times):
    """Timed invocations, then their checks.

    Returns (samples, info, operations attempted, failures).  Every
    invocation is a timing sample; a failed check is counted, not dropped.
    """
    replicates = scale.replicates if w.command == "montecarlo" else 1

    def step(k):
        inv_seed = derive_seed(seed, "invocation", k)
        out_dir = work / f"inv{k}"
        return inv_seed, invoke(cli_args(w, scale, inv_seed, out_dir, dataset, replicates), out_dir)

    runs = closed_loop(seconds, step)

    samples = defaultdict(list)
    errors, failures = [], []
    n_failed_replicates = estimation_failures = 0
    series_by_dataset = {}
    for inv_seed, inv in runs:
        design = library_design(lib, w, scale, inv_seed)
        truth = design[0].copula.theta
        try:
            if w.command == "estimate":
                path = dataset or inv.out_dir / "dataset.csv"
                if path not in series_by_dataset:
                    series_by_dataset[path] = library_series(lib, path, design)
                series = series_by_dataset[path]
                check_estimate(inv, series)
                if series is None:
                    estimation_failures += 1
                else:
                    errors.append(abs(series.theta_hat - truth))
            else:
                rows = read_mc_rows(inv, replicates)
                check_rows(rows[:CHECK_PREFIX], library_mc_rows(lib, design, CHECK_PREFIX), "replicate prefix")
                errors += [abs(float(r[1]) - truth) for r in rows if r[3] == "0"]
                n_failed_replicates += sum(int(r[3]) for r in rows)
        except CheckFailed as exc:
            failures.append(str(exc))
        samples["wall_s"].append(inv.wall_s)
        samples["replicates_per_s"].append(replicates / inv.wall_s)
        samples["peak_rss_mb"].append(inv.peak_rss_mb)
    samples["setup_s"] = setup_times
    info = {"theta_abs_err.median": statistics.median(errors) if errors else float("nan")}
    if w.command == "montecarlo":
        info["replicate_fail_ratio"] = n_failed_replicates / (replicates * len(runs))
    else:
        info["estimation_failures"] = estimation_failures
    return samples, info, len(runs), failures


def measure_layers(lib, w, scale, seed, seconds, work, dataset):
    """Traced and untraced replays, plus one CLI invocation per round.

    The CLI invocation runs the same inputs as the replay (same dataset
    seed; a montecarlo study of ``probe_replicates``), so its wall minus the
    replay spans it also runs is the CLI's own time.  Returns (samples,
    tracer, invocations, failures).
    """
    design = library_design(lib, w, scale, derive_seed(seed, "dataset"))
    tracer, untraced = Tracer(), Tracer(enabled=False)
    replay_path = work / "replay" / "dataset.csv"
    replay_path.parent.mkdir(parents=True)
    overheads, cli_walls, failures = [], [], []

    def timed_replay(t):
        t0 = time.perf_counter()
        result = replay(lib, t, design, scale.probe_replicates, replay_path, ENV, ROOT)
        return result, time.perf_counter() - t0

    def step(k):
        tracer.run_id = f"{w.name}:{seed}:{k}"
        # alternate which replay runs first so neither gets a systematically warmer cache
        if k % 2:
            _, untraced_wall = timed_replay(untraced)
            result, traced_wall = timed_replay(tracer)
        else:
            result, traced_wall = timed_replay(tracer)
            _, untraced_wall = timed_replay(untraced)
        overheads.append(traced_wall - untraced_wall)
        out_dir = work / f"inv{k}"
        inv = invoke(cli_args(w, scale, design[0].seed, out_dir, dataset, scale.probe_replicates), out_dir)
        cli_walls.append(inv.wall_s)
        try:
            if w.command == "estimate":
                check_estimate(inv, result["series"])
            else:
                want = mc_rows(result["mc"][1], scale.probe_replicates)
                check_rows(read_mc_rows(inv, scale.probe_replicates), want, "CLI study vs monte_carlo(workers=1)")
                check_rows(mc_rows(result["mc"][2], scale.probe_replicates), want, "monte_carlo workers=2 vs 1")
        except CheckFailed as exc:
            failures.append(str(exc))
        return inv

    # the process's first replay pays one-time costs (heap growth, first
    # worker pool); an untimed warm-up keeps them out of round 0
    replay(lib, untraced, design, scale.probe_replicates, replay_path, ENV, ROOT)
    invocations = closed_loop(seconds, step)
    samples = layer_samples(tracer, w, cli_walls)
    samples["trace.overhead_s"] = overheads
    return samples, tracer, len(invocations), failures


def layer_samples(tracer: Tracer, w: Workload, cli_walls: list[float]) -> dict[str, list[float]]:
    """Per-layer values, one per traced replay round."""
    rounds = defaultdict(dict)
    for rec in tracer.spans:
        rounds[rec["run"]][rec["name"]] = rec
    samples = defaultdict(list)
    for spans, cli_wall in zip(rounds.values(), cli_walls):
        def secs(name):
            return tracer.self_time(spans[name])

        def counts(name):
            return spans[name]["counts"]

        import_s = counts("coprisk.import")["import_s"]
        write_s, read_s = secs("data.write_dataset"), secs("data.read_dataset")
        simulate_s = secs("dgp.simulate")
        kernel = counts("kernel.surface_grid")
        solve = counts("copula.solve")
        w1, w2 = secs("estimator.monte_carlo.w1"), secs("estimator.monte_carlo.w2")
        mc = counts("estimator.monte_carlo.w1")
        values = {
            "coprisk.import_s": import_s,
            "data.write_dataset_s": write_s,
            "data.write_mb_per_s": counts("data.write_dataset")["bytes"] / 1e6 / write_s,
            "data.dataset_bytes": counts("data.write_dataset")["bytes"],
            "data.read_dataset_s": read_s,
            "data.read_mb_per_s": counts("data.read_dataset")["bytes"] / 1e6 / read_s,
            "dgp.simulate_s": simulate_s,
            "dgp.rows_per_s": counts("dgp.simulate")["rows"] / simulate_s,
            "kernel.weights_s": secs("kernel.weights"),
            "kernel.surface_grid_s": secs("kernel.surface_grid"),
            "kernel.window_rows": kernel["window_rows"],
            "kernel.window_frac": kernel["window_rows"] / kernel["n"],
            "kernel.suffix_terms": kernel["suffix_terms"],
            "copula.solve_s": secs("copula.solve"),
            "copula.solve_calls": solve["calls"],
            "copula.brentq_iterations": solve["iterations"],
            "copula.admissible_frac": solve["admissible"] / solve["calls"],
            "estimator.theta_series_s": secs("estimator.theta_series"),
            "estimator.n_included": counts("estimator.theta_series")["n_included"],
            "estimator.theta_abs_err.median": mc["theta_abs_err_median"],
            "estimator.replicate_fail_ratio": mc["failed"] / mc["replicates"],
            "estimator.replicate_s": w1 / mc["replicates"],
            "estimator.fanout_speedup": w1 / w2,
            "estimator.fanout_efficiency": w1 / w2 / WORKERS,
            "cli.self_s": cli_wall - import_s - sum(secs(name) for name in w.cli_spans),
        }
        for name, value in values.items():
            samples[name].append(value)
    return samples


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (median,) * 3
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def commit_id() -> str:
    """HEAD of the checkout's own .git, if it has one (never a parent repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args, scale: Scale, sample_counts: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale.__dict__,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit_id(),
        "samples": sample_counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    scale = SMOKE if args.smoke else FULL

    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        try:
            setup_times, dataset = set_up(w, scale, args.seed, work)
            lib = import_library()
        except SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        spans = []
        if args.trace:
            samples, tracer, attempted, failures = measure_layers(lib, w, scale, args.seed, args.seconds, work, dataset)
            specs, info, spans = PER_LAYER, {}, tracer.dump()
        else:
            samples, info, attempted, failures = measure_end_to_end(
                lib, w, scale, args.seed, args.seconds, work, dataset, setup_times
            )
            specs = END_TO_END
        failures += oracle_checks(lib, work / "oracle")
        attempted += len(ORACLE_FAMILIES)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stats = {name: describe(samples[name]) for name in specs}
    info["error_rate"] = len(failures) / attempted
    ctx = context(args, scale, {name: s["n"] for name, s in stats.items()})
    for failure in failures:
        print(f"check failed: {failure}")
    print(f"context {json.dumps(ctx, sort_keys=True)}")
    for name, s in stats.items():
        unit = specs[name]
        print(f"metric {name} = {s['value']:.6g} {unit} (median of n={s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    for name, value in info.items():
        print(f"info {name} = {value:.6g} (over the run's {attempted} operations)"
              if name == "error_rate" else f"info {name} = {value:.6g}")

    results = STATE / "results"
    results.mkdir(exist_ok=True)
    record = {"context": ctx, "metrics": stats, "info": info, "failures": failures, "spans": spans}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": s["value"], "unit": specs[name]} for name, s in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
