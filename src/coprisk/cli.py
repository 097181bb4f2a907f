"""Command-line front end for the library.

Four subcommands cover the full workflow:

* ``simulate``     draw a dependent competing-risks dataset and write it as CSV
* ``estimate``     estimate the survival surface and the dependence parameter
* ``montecarlo``   repeat the estimation over many seeds and summarize it
* ``oracle-check`` verify the closed-form identities the estimator relies on

Every run writes a ``manifest.txt`` with the fully resolved configuration;
feeding that file back through ``--config`` replays the run byte-for-byte.
Setting precedence is defaults < config file < command-line flags.  Exit
codes: 0 success, 2 configuration error, 3 estimation failure at runtime
(including a crashed worker process), 130 interrupted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import __version__
from .copula import CopulaFamily, NoRootError, _d2phi, _dphi, theta_for_tau, theta_from_ratio
from .data import (
    _fmt,
    _write_mc_summary_csv,
    _write_surface_csv,
    read_dataset_csv,
    write_dataset_csv,
    write_mc_replicates_csv,
    write_theta_series_csv,
)
from .dgp import default_config, simulate
from .estimator import (
    AllPointsExcludedError,
    GridSpec,
    monte_carlo,
    oracle_surface_estimates,
    solve_surface,
    summarize_replicates,
    theta_series,
)
from .kernel import KernelSpec

INF = float("inf")


class ConfigError(Exception):
    """A setting is missing, malformed, or inconsistent (exit code 2)."""


class EstimationFailure(Exception):
    """The data admit no estimate under the requested settings (exit code 3)."""


_FAMILIES = ("clayton", "gumbel", "frank")

_DEFAULTS = {
    "family": "clayton",
    "theta": 0.5,
    "tau": None,
    "n": 100_000,
    "seed": 0,
    "bandwidth": (0.3, 0.3),
    "grid_points": 500,
    "trim": (1.3, 2.5),
    "replicates": 50,
    "covariate_scale_is_sd": False,
    "data": None,
}

_CONFIG_KEYS = frozenset(_DEFAULTS) | {"command", "version"}


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


def _parse_seed(raw, key="seed"):
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


def _parse_family(raw, key="family"):
    value = str(raw).strip().lower()
    if value not in _FAMILIES:
        raise ConfigError(f"{key}: expected one of {', '.join(_FAMILIES)}, got {raw!r}")
    return value


def _parse_bandwidth(raw, key="bandwidth"):
    parts = [p.strip() for p in str(raw).split(",")]
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected h1,h2 (or one shared value), got {raw!r}")
    values = tuple(_parse_float(p, key) for p in parts)
    if any(v <= 0.0 for v in values):
        raise ConfigError(f"{key}: bandwidths must be positive, got {raw!r}")
    return values


def _parse_trim(raw, key="trim"):
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


def _parse_bool(raw, key):
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true or false, got {raw!r}")


_PARSERS = {
    "family": _parse_family,
    "theta": lambda raw: _parse_float(raw, "theta"),
    "tau": lambda raw: _parse_float(raw, "tau"),
    "n": lambda raw: _parse_int(raw, "n", 1),
    "seed": _parse_seed,
    "bandwidth": _parse_bandwidth,
    "grid_points": lambda raw: _parse_int(raw, "grid_points", 2),
    "trim": _parse_trim,
    "replicates": lambda raw: _parse_int(raw, "replicates", 1),
    "covariate_scale_is_sd": lambda raw: _parse_bool(raw, "covariate_scale_is_sd"),
    "data": lambda raw: str(raw),
}


# ---------------------------------------------------------------------------
# Config file loading and layered resolution
# ---------------------------------------------------------------------------


def _load_config_file(path, command):
    """Parse a flat key=value UTF-8 file; ``#`` lines are comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
            continue  # informational only; replays assume the same library
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
    settings = dict(_DEFAULTS)
    layers = []
    if ns.config is not None:
        layers.append(_load_config_file(ns.config, ns.command))
    flag_layer = {}
    for key in _PARSERS:
        value = getattr(ns, key, None)
        if value is not None:
            flag_layer[key] = value
    layers.append(flag_layer)
    for layer in layers:
        for key, raw in layer.items():
            settings[key] = _PARSERS[key](raw)
        # within one layer theta/tau exclusivity is already enforced; across
        # layers the later layer's choice silences the earlier one's
        if "theta" in layer:
            settings["tau"] = None
        elif "tau" in layer:
            settings["theta"] = None
    family = CopulaFamily(settings["family"])
    if settings["tau"] is not None:
        try:
            settings["theta"] = theta_for_tau(family, settings["tau"])
        except ValueError as exc:
            raise ConfigError(f"tau: {exc}") from None
    settings["family"] = family
    return settings


def _dgp_config(settings):
    try:
        return default_config(
            settings["n"],
            seed=settings["seed"],
            theta=settings["theta"],
            family=settings["family"],
            scale_is_sd=settings["covariate_scale_is_sd"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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


def _write_manifest(out_dir, command, settings):
    trim_lo, trim_hi = settings["trim"]
    trim = "none" if math.isinf(trim_lo) and math.isinf(trim_hi) else f"{_fmt(trim_lo)}:{_fmt(trim_hi)}"
    lines = [
        f"command={command}",
        f"version={__version__}",
        f"family={settings['family'].value}",
        f"theta={_fmt(settings['theta'])}",
        f"n={settings['n']}",
        f"seed={settings['seed']}",
        f"bandwidth={_fmt(settings['bandwidth'][0])},{_fmt(settings['bandwidth'][1])}",
        f"grid_points={settings['grid_points']}",
        f"trim={trim}",
        f"replicates={settings['replicates']}",
        f"covariate_scale_is_sd={'true' if settings['covariate_scale_is_sd'] else 'false'}",
    ]
    if command == "estimate" and settings["data"]:
        lines.append(f"data={os.path.abspath(settings['data'])}")
    text = "\n".join(lines) + "\n"

    def write(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    return _atomic_write(out_dir, "manifest.txt", write)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(settings, out_dir, threads):
    dgp = _dgp_config(settings)
    sample = simulate(dgp)
    path = _atomic_write(out_dir, "dataset.csv", lambda p: write_dataset_csv(sample, p))
    _write_manifest(out_dir, "simulate", settings)
    print(f"dataset={path} n={dgp.n}")
    return 0


def _cmd_estimate(settings, out_dir, threads):
    spec = KernelSpec(bandwidths=settings["bandwidth"])
    if settings["data"]:
        try:
            sample = read_dataset_csv(settings["data"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"data: {exc}") from None
    else:
        sample = simulate(_dgp_config(settings))
        _atomic_write(out_dir, "dataset.csv", lambda p: write_dataset_csv(sample, p))
    try:
        series = theta_series(sample, spec, _grid_spec(settings), settings["family"])
    except ValueError as exc:  # e.g. a degenerate duration range in the data
        raise EstimationFailure(str(exc)) from None
    _atomic_write(out_dir, "surface.csv", lambda p: _write_surface_csv(series, p))
    _atomic_write(out_dir, "theta_series.csv", lambda p: write_theta_series_csv(series, p))
    _write_manifest(out_dir, "estimate", settings)
    print(f"theta_hat={_fmt(series.theta_hat)} n_included={series.n_included}")
    return 0


def _cmd_montecarlo(settings, out_dir, threads):
    dgp = _dgp_config(settings)
    spec = KernelSpec(bandwidths=settings["bandwidth"])
    grid = _grid_spec(settings)
    try:
        trimmed = monte_carlo(
            dgp, spec, grid, settings["family"], settings["replicates"], workers=threads
        )
    except ValueError as exc:  # e.g. a degenerate duration range in a replicate
        raise EstimationFailure(str(exc)) from None
    untrimmed = summarize_replicates(trimmed.series, -INF, INF)
    _atomic_write(out_dir, "mc_replicates.csv", lambda p: write_mc_replicates_csv(trimmed, p))
    _atomic_write(
        out_dir, "mc_summary.csv", lambda p: _write_mc_summary_csv(untrimmed, trimmed, p)
    )
    _write_manifest(out_dir, "montecarlo", settings)
    print(
        f"mean_no_trimming={_fmt(untrimmed.mean)} mean_trimming={_fmt(trimmed.mean)} "
        f"n_failed={trimmed.n_failed}"
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

    Sweeps a (survival level, parameter) grid for the configured family;
    for Clayton, additionally solves the closed-form surface along a
    duration grid with solve_surface, the solve step every estimate takes.
    Prints the worst absolute error.
    """
    family = settings["family"]
    worst = 0.0
    levels = np.linspace(0.05, 0.95, 20)
    for theta in _CHECK_THETAS[family]:
        theta = float(theta)
        ratios = -(_d2phi(family, theta, levels) / _dphi(family, theta, levels))
        for pi, ratio in zip(levels, ratios):
            try:
                sol = theta_from_ratio(family, float(pi), float(ratio))
            except NoRootError as exc:
                raise EstimationFailure(
                    f"no parameter solves the curvature ratio at pi={pi!r}: {exc}"
                ) from None
            worst = max(worst, abs(sol.theta - theta))
    if family is CopulaFamily.CLAYTON:
        dgp = _dgp_config(settings)
        t_grid = np.linspace(0.4, 3.0, 60)
        for z in ((0.0, 0.0), (0.4, -0.3), (-0.5, 0.25)):
            surface = oracle_surface_estimates(dgp, t_grid, np.asarray(z))
            series = solve_surface(t_grid, surface, family)
            worst = max(worst, float(np.max(np.abs(series.theta_pointwise - dgp.copula.theta))))
    _write_manifest(out_dir, "oracle-check", settings)
    print(f"max_abs_theta_error={_fmt(worst)}")
    return 0


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


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value settings file (# comments)")
    common.add_argument("--n", help="sample size per dataset")
    common.add_argument("--seed", help="base RNG seed (64-bit unsigned)")
    dependence = common.add_mutually_exclusive_group()
    dependence.add_argument("--theta", help="copula dependence parameter")
    dependence.add_argument("--tau", help="dependence as a rank correlation instead of theta")
    common.add_argument("--family", help="copula family: clayton, gumbel, or frank")
    common.add_argument("--bandwidth", help="kernel bandwidths h1,h2 (one value is shared)")
    common.add_argument("--grid-points", dest="grid_points", help="duration grid size")
    trim = common.add_mutually_exclusive_group()
    trim.add_argument("--trim", help="duration window lo:hi for the averaged estimate")
    trim.add_argument(
        "--no-trim",
        dest="trim",
        action="store_const",
        const="none",
        help="average over the whole duration grid",
    )
    common.add_argument("--replicates", help="number of Monte Carlo replicates")
    common.add_argument(
        "--threads", help="worker processes, at most one per CPU and replicate (outputs do not depend on it)"
    )
    common.add_argument(
        "--covariate-scale-is-sd",
        dest="covariate_scale_is_sd",
        action="store_const",
        const="true",
        help="read the covariate scale 0.5 as a standard deviation instead of a variance",
    )
    common.add_argument("--out", help="output directory (default: current directory)")

    parser = _Parser(prog="coprisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("simulate", parents=[common], help="draw a dataset and write it as CSV")
    estimate = sub.add_parser(
        "estimate", parents=[common], help="estimate the surface and dependence parameter"
    )
    estimate.add_argument("--data", help="existing dataset CSV to estimate from")
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
        except OSError as exc:
            raise ConfigError(f"out: {exc}") from None
        return _COMMANDS[ns.command](settings, out_dir, threads)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (AllPointsExcludedError, BrokenProcessPool, EstimationFailure) as exc:
        print(f"error: estimation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
