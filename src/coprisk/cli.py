"""Command-line front end for the library.

Four subcommands cover the full workflow:

* ``simulate``     draw a dependent competing-risks dataset and write it as CSV
* ``estimate``     estimate the survival surface and the dependence parameter
* ``montecarlo``   repeat the estimation over many seeds and summarize it
* ``oracle-check`` verify the closed-form identities the estimator relies on

Every run writes a ``manifest.txt`` with the fully resolved configuration;
feeding that file back through ``--config`` replays the run byte-for-byte.
Setting precedence is defaults < config file < command-line flags.  Exit
codes: 0 success, 2 configuration error or out of memory, 3 estimation
failure at runtime (including a crashed worker process), 130 interrupted.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .copula import CopulaFamily, _d2phi, _dphi, _solve_ratio, theta_for_tau
from ._fork import _WorkerDied
from .data import (
    _SPLIT_MIN_ROWS,
    _fmt,
    _split_row,
    _write_csv,
    _write_dataset_forked,
    read_dataset_csv,
    write_dataset_csv,
)
from .dgp import default_config, oracle_surface, simulate
from .estimator import (
    AllPointsExcludedError,
    GridSpec,
    _DegenerateRangeError,
    monte_carlo,
    solve_surface,
    theta_series,
)
from .kernel import KernelSpec

INF = float("inf")


class ConfigError(Exception):
    """A setting is missing, malformed, or inconsistent (exit code 2)."""


class EstimationFailure(Exception):
    """The data admit no estimate under the requested settings (exit code 3)."""


# ---------------------------------------------------------------------------
# Value parsers (shared by config files and flags, so both error identically)
# ---------------------------------------------------------------------------


def _parse_int(raw, key, minimum):
    try:
        value = int(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
    return value


def _parse_seed(raw, key):
    value = _parse_int(raw, key, 0)
    if value >= 2**64:
        raise ConfigError(f"{key}: must fit in 64 bits, got {value}")
    return value


def _parse_float(raw, key):
    try:
        value = float(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return value


def _parse_family(raw, key):
    names = [family.value for family in CopulaFamily]
    value = str(raw).strip().lower()
    if value not in names:
        raise ConfigError(f"{key}: expected one of {', '.join(names)}, got {raw!r}")
    return CopulaFamily(value)


def _parse_bandwidth(raw, key):
    """One bandwidth per covariate; one value is h,h for the two a simulation draws."""
    values = tuple(_parse_float(p, key) for p in str(raw).split(","))
    if len(values) == 1:
        values *= 2
    if any(v <= 0.0 for v in values):
        raise ConfigError(f"{key}: bandwidths must be positive, got {raw!r}")
    return values


def _parse_trim(raw, key):
    text = str(raw).strip().lower()
    if text == "none":
        return (-INF, INF)
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ConfigError(f"{key}: expected lo:hi or none, got {raw!r}")
    lo_v, hi_v = _parse_float(lo, key), _parse_float(hi, key)
    if not lo_v < hi_v:
        raise ConfigError(f"{key}: lower bound must be below upper, got {raw!r}")
    return (lo_v, hi_v)


def _parse_covariate_sd(raw, key):
    """The covariate SD: the paper's scale 0.5 read as an SD if true, else as a variance."""
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes"):
        return 0.5
    if text in ("false", "0", "no"):
        return math.sqrt(0.5)
    raise ConfigError(f"{key}: expected true or false, got {raw!r}")


def _parse_data(raw, key):
    """A dataset path whose manifest line reads back the same: the config
    reader strips each value and splits lines."""
    if not raw:  # an empty flag or config-file value would simulate instead
        raise ConfigError(f"{key}: the path is empty")
    if any(p != p.strip() or len(p.splitlines()) > 1 for p in (raw, os.path.abspath(raw))):
        raise ConfigError(f"{key}: a path with edge whitespace or a line break does not replay, got {raw!r}")
    return raw


class _Setting(NamedTuple):
    default: object
    parse: Callable  # (flag or config-file text, key) -> value
    text: Callable | None  # value -> manifest text; None: not recorded
    help: str


# Every run setting, once: a config key, a --flag with "-" for "_", and, in
# this order, a manifest line.  Parsers run in this order too.
_SETTINGS = {
    "family": _Setting(
        CopulaFamily.CLAYTON, _parse_family, lambda v: v.value, "copula family: clayton, gumbel, or frank"
    ),
    "theta": _Setting(0.5, _parse_float, _fmt, "copula dependence parameter"),
    # recorded as the theta it converts to
    "tau": _Setting(None, _parse_float, None, "dependence as a rank correlation instead of theta"),
    "n": _Setting(100_000, lambda raw, key: _parse_int(raw, key, 1), str, "sample size per dataset"),
    "seed": _Setting(0, _parse_seed, str, "base RNG seed (64-bit unsigned)"),
    "bandwidth": _Setting(
        (0.3, 0.3), _parse_bandwidth, lambda v: ",".join(map(_fmt, v)),
        "kernel bandwidths h1,h2,..., one per covariate (one value is shared by two)",
    ),
    "grid_points": _Setting(500, lambda raw, key: _parse_int(raw, key, 2), str, "duration grid size"),
    "trim": _Setting(
        (1.3, 2.5), _parse_trim, lambda v: "none" if v == (-INF, INF) else ":".join(map(_fmt, v)),
        "duration window lo:hi for the averaged estimate",
    ),
    "replicates": _Setting(
        50, lambda raw, key: _parse_int(raw, key, 1), str, "number of Monte Carlo replicates"
    ),
    "covariate_scale_is_sd": _Setting(
        math.sqrt(0.5), _parse_covariate_sd, lambda v: "true" if v == 0.5 else "false",
        "read the covariate scale 0.5 as a standard deviation instead of a variance",
    ),
    "data": _Setting(
        None, _parse_data, os.path.abspath, "existing dataset CSV to estimate from"
    ),
}

_CONFIG_KEYS = frozenset(_SETTINGS) | {"command", "version"}

# settings that only a simulation reads; an ``estimate --data`` manifest omits them
_SIMULATION_KEYS = frozenset({"theta", "n", "seed", "covariate_scale_is_sd"})


def _simulates(command, settings):
    """Whether the run draws a sample: all but oracle-check and estimate --data."""
    return command != "oracle-check" and not (command == "estimate" and settings["data"])


# ---------------------------------------------------------------------------
# Config file loading and layered resolution
# ---------------------------------------------------------------------------


def _load_config_file(path, command):
    """Parse a flat key=value UTF-8 file (a leading byte-order mark is
    dropped); ``#`` lines are comments."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"config file: {exc}") from None
    layer = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config file line {lineno}: expected key=value, got {line!r}")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config file line {lineno}: unknown key {key!r}")
        if key in layer:
            raise ConfigError(f"config file line {lineno}: duplicate key {key!r}")
        if key == "version":
            if value != __version__:  # another library version may simulate other bits
                raise ConfigError(
                    f"config file was written by coprisk {value}, this is {__version__}; "
                    "its run would not replay byte for byte"
                )
            continue
        if key == "command":
            if value != command:
                raise ConfigError(
                    f"config file was written for command {value!r}, not {command!r}"
                )
            continue
        layer[key] = value
    if "theta" in layer and "tau" in layer:
        raise ConfigError("config file sets both theta and tau; they are mutually exclusive")
    return layer


def _resolve_settings(ns):
    """Fold defaults < config file < flags into one typed settings dict."""
    settings = {key: setting.default for key, setting in _SETTINGS.items()}
    layers = []
    if ns.config is not None:
        layers.append(_load_config_file(ns.config, ns.command))
    layers.append({key: getattr(ns, key) for key in _SETTINGS if getattr(ns, key, None) is not None})
    for layer in layers:
        for key, raw in layer.items():
            settings[key] = _SETTINGS[key].parse(raw, key)
        # within one layer theta/tau exclusivity is already enforced; across
        # layers the later layer's choice silences the earlier one's
        if "theta" in layer:
            settings["tau"] = None
        elif "tau" in layer:
            settings["theta"] = None
    # a run that simulates nothing reads no theta, so its tau is not converted
    if settings["tau"] is not None and _simulates(ns.command, settings):
        try:
            settings["theta"] = theta_for_tau(settings["family"], settings["tau"])
        except ValueError as exc:
            raise ConfigError(f"tau: {exc}") from None
    return settings


def _dgp_config(settings):
    if len(settings["bandwidth"]) != 2:
        raise ConfigError(f"bandwidth: {len(settings['bandwidth'])} values for the 2 simulated covariates")
    try:
        return default_config(
            settings["n"],
            seed=settings["seed"],
            theta=settings["theta"],
            family=settings["family"],
            covariate_sd=settings["covariate_scale_is_sd"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _degenerate_range_message(settings):
    """The grid error in the terms a command-line user controls."""
    if settings["data"]:
        durations, remedy = f"the durations in {settings['data']}", "lower --grid-points"
    else:
        durations, remedy = "the simulated durations", "raise --n or lower --grid-points"
    return (
        f"degenerate duration range: {durations} between their 0.5th and 99.5th "
        f"percentiles are too close together for {settings['grid_points']} distinct "
        f"grid points; {remedy}"
    )


def _grid_spec(settings):
    return GridSpec(
        trim_lo=settings["trim"][0],
        trim_hi=settings["trim"][1],
        n_points=settings["grid_points"],
    )


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------


def _atomic_write(out_dir, name, write_fn):
    """Write through a temp name in the same directory; rename on success."""
    final = os.path.join(out_dir, name)
    tmp = f"{final}.tmp{os.getpid()}"
    try:
        write_fn(tmp)
        os.replace(tmp, final)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return final


def _write_table(out_dir, name, header, columns):
    """Write a CSV artifact, a header row and its columns, as _atomic_write does."""
    return _atomic_write(out_dir, name, lambda path: _write_csv(path, header, columns))


def _write_dataset(out_dir, sample, threads, estimate=lambda: None):
    """Write dataset.csv and return ``estimate()``, run after the write or,
    on a forked write (see data._split_row), while a child writes the tail
    rows.  Either way dataset.csv is complete before an exception from the
    estimate is raised."""
    split = _split_row(len(sample), threads)
    if split == len(sample):
        _atomic_write(out_dir, "dataset.csv", lambda p: write_dataset_csv(sample, p))
        return estimate()
    outcome = []

    def during():
        try:
            outcome.append((estimate(), None))
        except Exception as exc:  # raised once dataset.csv is in place
            outcome.append((None, exc))

    _atomic_write(out_dir, "dataset.csv", lambda p: _write_dataset_forked(sample, p, split, during))
    result, error = outcome[0]
    if error is not None:
        raise error
    return result


def _write_manifest(out_dir, command, settings):
    if command == "oracle-check":  # it reads the family alone
        keys = ["family"]
    elif _simulates(command, settings):
        keys = [key for key in _SETTINGS if key != "data"]
    else:  # the file replaces the simulation design
        keys = [key for key in _SETTINGS if key not in _SIMULATION_KEYS]
    text = f"command={command}\nversion={__version__}\n" + "".join(
        f"{key}={_SETTINGS[key].text(settings[key])}\n" for key in keys if _SETTINGS[key].text
    )

    def write(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    return _atomic_write(out_dir, "manifest.txt", write)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(settings, out_dir, threads):
    dgp = _dgp_config(settings)
    _write_dataset(out_dir, simulate(dgp), threads)
    _write_manifest(out_dir, "simulate", settings)
    print(f"dataset={os.path.join(out_dir, 'dataset.csv')} n={dgp.n}")
    return 0


def _cmd_estimate(settings, out_dir, threads):
    spec = KernelSpec(bandwidths=settings["bandwidth"])
    grid, family = _grid_spec(settings), settings["family"]
    if settings["data"]:
        try:
            sample = read_dataset_csv(settings["data"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"data: {exc}") from None
        if spec.d != sample.d:
            h = settings["bandwidth"]
            shared = " (one value stands for two)" if h == h[:1] * 2 else ""  # as _parse_bandwidth expands it
            counts = f"{spec.d} values for the {sample.d} covariates"
            raise ConfigError(f"bandwidth: {counts} in {settings['data']}{shared}")
        series = theta_series(sample, spec, grid, family)
    else:
        sample = simulate(_dgp_config(settings))
        series = _write_dataset(out_dir, sample, threads, lambda: theta_series(sample, spec, grid, family))
    _write_table(out_dir, "surface.csv", ["t", "pi", "dpi1", "dpi2", "d2pi"], [series.t, *series.surface.T])
    _write_table(
        out_dir, "theta_series.csv", ["t", "theta", "included"], [series.t, series.theta_pointwise, series.included]
    )
    _write_manifest(out_dir, "estimate", settings)
    print(f"theta_hat={_fmt(series.theta_hat)} n_included={series.n_included}")
    return 0


def _cmd_montecarlo(settings, out_dir, threads):
    dgp = _dgp_config(settings)
    spec = KernelSpec(bandwidths=settings["bandwidth"])
    grid = _grid_spec(settings)
    summary = monte_carlo(dgp, spec, grid, settings["family"], settings["replicates"], workers=threads)
    _write_table(
        out_dir,
        "mc_replicates.csv",
        ["replicate", "theta_hat", "n_included", "failed"],
        [np.arange(summary.replicate_thetas.size), summary.replicate_thetas, summary.n_included, summary.failed],
    )
    studies = [
        (s.mean, s.p05, s.p95, s.p95 - s.p05, s.replicate_thetas.size, s.n_failed)
        for s in (summary.untrimmed, summary)
    ]
    statistics = ("mean", "p05", "p95", "spread", "n_replicates", "n_failed")
    _write_table(out_dir, "mc_summary.csv", ["statistic", "no_trimming", "trimming"], [statistics, *studies])
    _write_manifest(out_dir, "montecarlo", settings)
    print(
        f"mean_no_trimming={_fmt(summary.untrimmed.mean)} mean_trimming={_fmt(summary.mean)} "
        f"n_failed={summary.n_failed}"
    )
    return 0


_CHECK_THETAS = {
    CopulaFamily.CLAYTON: np.linspace(0.25, 8.0, 20),
    CopulaFamily.GUMBEL: np.linspace(1.1, 8.0, 20),
    CopulaFamily.FRANK: np.concatenate(
        [np.linspace(-12.0, -0.5, 10), np.linspace(0.5, 12.0, 10)]
    ),
}


def _cmd_oracle_check(settings, out_dir, threads):
    """Invert the curvature ratio back to the parameter it came from.

    For each check parameter of the family, sweeps survival levels through
    one array solve, then solves the exact surface at three covariate points
    with solve_surface, the solve step every estimate takes.  Prints the
    worst absolute error; a point that solves to no finite parameter is an
    estimation failure.  Reads and records only the family, and forks
    nothing whatever ``threads`` is.  The
    durations keep every level in [0.037, 0.96]; on [0.4, 3.0] Frank theta
    = -12 falls to 3.6e-6 and errs by 1.7e-10, the bound the rounding of its
    curvature sets on the root.
    """
    family = settings["family"]
    errors = []
    levels = np.linspace(0.05, 0.95, 20)
    t_grid = np.linspace(0.05, 1.0, 60)
    for theta in _CHECK_THETAS[family].tolist():
        ratios = -(_d2phi(family, theta, levels) / _dphi(family, theta, levels))
        solved, _ = _solve_ratio(family, levels, ratios)
        unsolved = ~np.isfinite(solved)
        if unsolved.any():
            raise EstimationFailure(
                f"no parameter solves the curvature ratio of theta={theta!r}"
                f" at pi={float(levels[unsolved][0])!r}"
            )
        errors.append(np.abs(solved - theta))
        dgp = default_config(1, 0, theta=theta, family=family)
        for z in ((0.0, 0.0), (0.4, -0.3), (-0.5, 0.25)):
            series = solve_surface(t_grid, oracle_surface(dgp, t_grid, z), family)
            unsolved = ~np.isfinite(series.theta_pointwise)
            if unsolved.any():
                raise EstimationFailure(
                    f"the exact surface of theta={theta!r} at z={z!r} solves to no"
                    f" parameter at t={float(t_grid[unsolved][0])!r}"
                )
            errors.append(np.abs(series.theta_pointwise - theta))
    _write_manifest(out_dir, "oracle-check", settings)
    print(f"max_abs_theta_error={_fmt(float(np.max(np.concatenate(errors))))}")
    return 0


# each is called with the settings, the output directory and --threads
_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "montecarlo": _cmd_montecarlo,
    "oracle-check": _cmd_oracle_check,
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line, machine-parsable, exit code 2
        print(f"error: config: {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_flag(parser, key, **kwargs):
    parser.add_argument(f"--{key.replace('_', '-')}", dest=key, help=_SETTINGS[key].help, **kwargs)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value settings file (# comments)")
    dependence, trim = common.add_mutually_exclusive_group(), common.add_mutually_exclusive_group()
    for key in _SETTINGS:
        if key == "covariate_scale_is_sd":  # a switch: the flag sets it true
            _add_flag(common, key, action="store_const", const="true")
        elif key != "data":  # estimate alone offers --data
            _add_flag({"theta": dependence, "tau": dependence, "trim": trim}.get(key, common), key)
        if key == "trim":
            trim.add_argument(
                "--no-trim",
                dest="trim",
                action="store_const",
                const="none",
                help="average over the whole duration grid",
            )
    common.add_argument(
        "--threads",
        help="processes to fork, where os.fork exists and not on macOS, at most one per CPU: "
        "montecarlo's workers, one per replicate at most, replicate r going to worker r mod their "
        "count; with 2 or more, simulate and estimate without --data write a dataset of "
        f"{_SPLIT_MIN_ROWS:,} rows or more in two processes; 1 forks nothing, and a forked "
        "process's death exits 3 (outputs do not depend on it)",
    )
    common.add_argument("--out", help="output directory (default: current directory)")

    parser = _Parser(prog="coprisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("simulate", parents=[common], help="draw a dataset and write it as CSV")
    estimate = sub.add_parser(
        "estimate", parents=[common], help="estimate the surface and dependence parameter"
    )
    _add_flag(estimate, "data")
    sub.add_parser("montecarlo", parents=[common], help="replicate the estimate across seeds")
    sub.add_parser("oracle-check", parents=[common], help="verify the closed-form identities")
    return parser


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        settings = _resolve_settings(ns)
        threads = os.cpu_count() or 1
        if ns.threads is not None:
            threads = _parse_int(ns.threads, "threads", 1)
        out_dir = ns.out if ns.out is not None else "."
        try:
            os.makedirs(out_dir, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigError(f"out: {exc}") from None
        return _COMMANDS[ns.command](settings, out_dir, threads)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except _DegenerateRangeError:
        print(f"error: estimation: {_degenerate_range_message(settings)}", file=sys.stderr)
        return 3
    # a ValueError here is a grid or surface the library rejects for a sample
    except (AllPointsExcludedError, EstimationFailure, _WorkerDied, ValueError) as exc:
        print(f"error: estimation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size no host can hold
        why = " ".join(str(exc).split()) or "out of memory"
        print(f"error: config: {why}; lower --n, --grid-points or --replicates", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    finally:
        if argv is None:
            # run as the program, which exits next: collect once, then freeze
            # what is left so the interpreter's exit does not walk it again
            gc.collect()
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
