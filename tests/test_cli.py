"""End-to-end tests for the command-line front end.

Each run goes through the real entry point (``coprisk.cli.main``) with its
own output directory; artifact equality is checked byte-for-byte because
reproducibility (same settings, same bytes) is part of the contract.
"""

from __future__ import annotations

import argparse
import errno
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import coprisk
import coprisk.cli
import coprisk.data
import coprisk.estimator
from coprisk.cli import main
from coprisk.copula import CopulaFamily
from coprisk.data import Sample, read_dataset_csv, write_dataset_csv
from coprisk.dgp import default_config, simulate
from coprisk.estimator import GridSpec, solve_surface, theta_series
from coprisk.kernel import KernelSpec


def run_cli(args, capsys):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse's own rejections land here
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


SMALL = ["--n", "600", "--seed", "9", "--bandwidth", "0.8", "--grid-points", "50"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_identical_bytes_for_identical_settings(tmp_path, capsys):
    for name in ("a", "b"):
        code, out, _ = run_cli(
            ["simulate", "--n", "300", "--seed", "11", "--out", str(tmp_path / name)], capsys
        )
        assert code == 0
        assert "dataset=" in out
    assert sha(tmp_path / "a" / "dataset.csv") == sha(tmp_path / "b" / "dataset.csv")
    header = (tmp_path / "a" / "dataset.csv").read_text().splitlines()[0]
    assert header == "t,delta,z1,z2"


def test_simulate_seed_changes_the_dataset(tmp_path, capsys):
    for name, seed in (("a", "1"), ("b", "2")):
        code, _, _ = run_cli(
            ["simulate", "--n", "300", "--seed", seed, "--out", str(tmp_path / name)], capsys
        )
        assert code == 0
    assert sha(tmp_path / "a" / "dataset.csv") != sha(tmp_path / "b" / "dataset.csv")


def test_clayton_simulate_with_a_large_theta_exits_0(tmp_path, capsys):
    # seed 2 draws first survival values below 6.9e-7, where expm1(-theta
    # log s1) overflows at theta 50; they once gave NaN durations
    args = ["simulate", "--family", "clayton", "--theta", "50", "--n", "100000", "--seed", "2"]
    code, out, err = run_cli([*args, "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert "dataset=" in out


def test_covariate_scale_reading_flag_changes_data_and_is_recorded(tmp_path, capsys):
    base = ["simulate", "--n", "200", "--seed", "2"]
    run_cli(base + ["--out", str(tmp_path / "var")], capsys)
    run_cli(base + ["--covariate-scale-is-sd", "--out", str(tmp_path / "sd")], capsys)
    assert sha(tmp_path / "var" / "dataset.csv") != sha(tmp_path / "sd" / "dataset.csv")
    assert "covariate_scale_is_sd=false" in (tmp_path / "var" / "manifest.txt").read_text()
    assert "covariate_scale_is_sd=true" in (tmp_path / "sd" / "manifest.txt").read_text()


# sha256 of the artifacts of `simulate --n 2000 --seed 3 --covariate-scale-is-sd`,
# computed at version 0.4.0 while the flag set two DgpConfig fields
SD_READING_DIGESTS = {
    "dataset.csv": "f8901b7fd9bc0a7f5b1a2457b46e924abd2f70ef7e903b7ae8a1103668b7ea65",
    "manifest.txt": "f835b9945d908292276186e3004fe66bcbb47d99ff9f89e3605dd303392b02e8",
}


def test_covariate_scale_is_sd_artifacts_match_golden_digests(tmp_path, capsys):
    args = ["simulate", "--n", "2000", "--seed", "3", "--covariate-scale-is-sd"]
    assert run_cli([*args, "--out", str(tmp_path)], capsys)[0] == 0
    assert {name: sha(tmp_path / name) for name in SD_READING_DIGESTS} == SD_READING_DIGESTS


# ---------------------------------------------------------------------------
# estimate: artifacts, round trip, replay
# ---------------------------------------------------------------------------


def test_estimate_writes_surface_series_and_success_line(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(["estimate", *SMALL, "--out", str(out)], capsys)
    assert code == 0
    line = stdout.strip().splitlines()[-1]
    assert line.startswith("theta_hat=") and " n_included=" in line
    float(line.split()[0].split("=")[1])  # machine-parsable
    surface = (out / "surface.csv").read_text().splitlines()
    assert surface[0] == "t,pi,dpi1,dpi2,d2pi"
    assert len(surface) == 1 + 50
    series = (out / "theta_series.csv").read_text().splitlines()
    assert series[0] == "t,theta,included"
    assert len(series) == 1 + 50
    # grid durations agree between the two artifacts
    assert [r.split(",")[0] for r in surface[1:]] == [r.split(",")[0] for r in series[1:]]


# sha256 of the text artifacts of `estimate --n 20000 --seed 1 --bandwidth 0.3`,
# first computed while every float was written by repr one value at a time,
# re-pinned at version 0.3.0, which moved the simulated dataset's bits.
ESTIMATE_TEXT_DIGESTS = {
    "dataset.csv": "6a8ee26386d21a72792eaf64b48736b7d5c401ccd10b377503e4e0603b9540ea",
    "surface.csv": "36ab6f09dc03c082861a64d4508b19dfbc6f2375b09d926d8f37196357d2a3d3",
    "theta_series.csv": "fb2da2f424b7dd4000d619c699fd330451a9a0a3778340513394f2eb79321954",
}


def test_estimate_text_artifacts_match_golden_digests(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run_cli(["estimate", "--n", "20000", "--seed", "1", "--bandwidth", "0.3", "--out", str(out)], capsys)
    assert code == 0
    assert {name: sha(out / name) for name in ESTIMATE_TEXT_DIGESTS} == ESTIMATE_TEXT_DIGESTS


def test_estimate_from_written_dataset_matches_in_memory_run(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["estimate", *SMALL, "--out", str(a)], capsys)[0] == 0
    code, _, _ = run_cli(
        ["estimate", *SMALL, "--data", str(a / "dataset.csv"), "--out", str(b)], capsys
    )
    assert code == 0
    assert sha(a / "theta_series.csv") == sha(b / "theta_series.csv")
    assert sha(a / "surface.csv") == sha(b / "surface.csv")


@pytest.mark.parametrize("family, from_data", [("clayton", False), ("frank", True)])
def test_surface_csv_solves_to_the_written_theta_series(tmp_path, capsys, monkeypatch, family, from_data):
    run = ["estimate", *SMALL, "--family", family]
    if from_data:
        data = tmp_path / "data"
        assert run_cli(["simulate", *SMALL, "--family", family, "--out", str(data)], capsys)[0] == 0
        run += ["--data", str(data / "dataset.csv")]
    out = tmp_path / "run"
    code, stdout, _ = run_cli([*run, "--out", str(out)], capsys)
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in (out / "surface.csv").read_text().splitlines()[1:]]
    t, *surface = zip(*rows)
    manifest = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    trim = (-np.inf, np.inf) if manifest["trim"] == "none" else map(float, manifest["trim"].split(":"))
    series = solve_surface(t, np.array(surface).T, CopulaFamily(family), *trim)
    assert stdout.strip() == f"theta_hat={series.theta_hat!r} n_included={series.n_included}"
    # the same run writing the resolved series in place of its own estimate
    monkeypatch.setattr(coprisk.cli, "theta_series", lambda *args: series)
    assert run_cli([*run, "--out", str(tmp_path / "resolved")], capsys)[0] == 0
    assert (tmp_path / "resolved" / "theta_series.csv").read_bytes() == (out / "theta_series.csv").read_bytes()


def test_estimate_data_does_not_build_the_simulation_design(tmp_path, capsys):
    # the dataset's design (Gumbel, tau 0.2) is not the default theta 0.5,
    # which no Gumbel copula admits; estimating from the file must not care
    data = tmp_path / "data"
    code, _, _ = run_cli(
        ["simulate", "--n", "2000", "--family", "gumbel", "--tau", "0.2", "--out", str(data)], capsys
    )
    assert code == 0
    code, out, err = run_cli(
        ["estimate", "--data", str(data / "dataset.csv"), "--family", "gumbel", "--out", str(tmp_path / "run")],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out.startswith("theta_hat=")


def _simulate_gumbel_dataset(tmp_path, capsys):
    data = tmp_path / "data"
    code, _, _ = run_cli(
        ["simulate", "--n", "2000", "--family", "gumbel", "--tau", "0.2", "--out", str(data)], capsys
    )
    assert code == 0
    return data / "dataset.csv"


def test_estimate_data_ignores_tau_and_theta(tmp_path, capsys):
    # a run from a file reads no theta, so --tau is not converted (for Frank
    # that would solve the tau curve) and neither value is recorded
    data = tmp_path / "data"
    code, _, _ = run_cli(
        ["simulate", "--n", "2000", "--family", "frank", "--theta", "1.86", "--out", str(data)], capsys
    )
    assert code == 0
    outputs = []
    for flag, value in (("--tau", "0.2"), ("--theta", "2.0")):
        out = tmp_path / flag.lstrip("-")
        code, stdout, err = run_cli(
            ["estimate", "--data", str(data / "dataset.csv"), "--family", "frank", flag, value,
             "--bandwidth", "0.8", "--grid-points", "50", "--out", str(out)],
            capsys,
        )
        assert (code, err) == (0, "")
        outputs.append((out, stdout))
    (tau_out, tau_stdout), (theta_out, theta_stdout) = outputs
    assert tau_stdout == theta_stdout
    for name in ("surface.csv", "theta_series.csv", "manifest.txt"):
        assert (tau_out / name).read_bytes() == (theta_out / name).read_bytes(), name
    lines = (tau_out / "manifest.txt").read_text().splitlines()
    assert not any(line.startswith(("theta=", "tau=")) for line in lines)


def test_data_manifest_omits_the_simulation_design(tmp_path, capsys):
    # a Gumbel run from a file once recorded theta=0.5, which no Gumbel
    # copula admits, and an n and seed that drew nothing
    data = _simulate_gumbel_dataset(tmp_path, capsys)
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["estimate", "--data", str(data), "--family", "gumbel", "--grid-points", "50", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert not any(line.startswith("theta=") for line in lines)
    assert [line.split("=")[0] for line in lines] == [
        "command",
        "version",
        "family",
        "bandwidth",
        "grid_points",
        "trim",
        "replicates",
        "data",
    ]
    assert f"data={data}" in lines


def test_data_manifest_replay_reproduces_every_artifact(tmp_path, capsys):
    data = _simulate_gumbel_dataset(tmp_path, capsys)
    a, b = tmp_path / "a", tmp_path / "b"
    run = ["estimate", "--data", str(data), "--family", "gumbel", "--bandwidth", "0.8", "--grid-points", "50"]
    assert run_cli([*run, "--out", str(a)], capsys)[0] == 0
    code, _, _ = run_cli(["estimate", "--config", str(a / "manifest.txt"), "--out", str(b)], capsys)
    assert code == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == ["manifest.txt", "surface.csv", "theta_series.csv"]
    assert sorted(p.name for p in b.iterdir()) == names
    for name in names:
        assert sha(a / name) == sha(b / name), name


def _assert_replays(run_dir, command, capsys):
    """Replaying run_dir's manifest writes the same files, byte for byte."""
    again = run_dir.parent / f"{run_dir.name}-replay"
    code, _, _ = run_cli([command, "--config", str(run_dir / "manifest.txt"), "--out", str(again)], capsys)
    assert code == 0
    names = sorted(p.name for p in run_dir.iterdir())
    assert sorted(p.name for p in again.iterdir()) == names
    for name in names:
        assert sha(run_dir / name) == sha(again / name), name


def test_a_data_path_with_an_inner_space_replays(tmp_path, capsys):
    data = _simulate_gumbel_dataset(tmp_path, capsys)
    spaced = tmp_path / "with space" / "data set.csv"
    spaced.parent.mkdir()
    spaced.write_bytes(data.read_bytes())
    out = tmp_path / "run"
    run = ["estimate", "--data", str(spaced), "--family", "gumbel", "--bandwidth", "0.8", "--grid-points", "50"]
    assert run_cli([*run, "--out", str(out)], capsys)[0] == 0
    assert f"data={spaced}" in (out / "manifest.txt").read_text().splitlines()
    _assert_replays(out, "estimate", capsys)


def test_a_data_path_that_would_not_replay_exits_2(tmp_path, capsys, monkeypatch):
    # each file exists, but the config reader strips each value and splits
    # lines, so a manifest could not record its path for replay
    data = _simulate_gumbel_dataset(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    for name in ("data.csv ", " data.csv", "data.csv\n", "data.csv\t", "a\nb.csv", "data.csv\u2028"):
        Path(name).write_bytes(data.read_bytes())
        code, _, err = run_cli(["estimate", "--data", name, "--grid-points", "50", "--out", "run"], capsys)
        assert code == 2, repr(name)
        assert err.startswith("error: config: data:") and "does not replay" in err and err.count("\n") == 1
        assert not Path("run").exists()


def test_manifest_replay_reproduces_every_artifact(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["estimate", *SMALL, "--out", str(a)], capsys)[0] == 0
    code, _, _ = run_cli(
        ["estimate", "--config", str(a / "manifest.txt"), "--out", str(b)], capsys
    )
    assert code == 0
    for name in ("dataset.csv", "surface.csv", "theta_series.csv", "manifest.txt"):
        assert sha(a / name) == sha(b / name), name


def _gumbel_manifest(tmp_path, capsys):
    out = tmp_path / "a"
    args = ["simulate", "--family", "gumbel", "--theta", "1.25", "--n", "50", "--out", str(out)]
    assert run_cli(args, capsys)[0] == 0
    return out


def _assert_manifest_version_refused(tmp_path, capsys, version):
    a = _gumbel_manifest(tmp_path, capsys)
    text = (a / "manifest.txt").read_text()
    assert f"\nversion={coprisk.__version__}\n" in text
    cfg = tmp_path / "old.txt"
    cfg.write_text(text.replace(f"version={coprisk.__version__}", f"version={version}"))
    b = tmp_path / "b"
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(b)], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: config:")
    assert version in err and coprisk.__version__ in err
    assert not (b / "dataset.csv").exists()


@pytest.mark.parametrize("version", ["0.1.0", "0.3.0"])
def test_manifest_from_another_library_version_exits_2(tmp_path, capsys, version):
    # a manifest names the generator that wrote its dataset; another version
    # may draw other bits, so its replay is refused instead of diverging
    # (0.3.0 solved Frank roots and Frank --tau parameters by Brent's method)
    _assert_manifest_version_refused(tmp_path, capsys, version)


def test_manifest_from_version_0_2_0_exits_2(tmp_path, capsys):
    # 0.2.0 drew Gumbel and Frank from the exact conditional inverse, 0.3.0
    # moved the normal covariates' bits and Clayton's for theta > 0
    _assert_manifest_version_refused(tmp_path, capsys, "0.2.0")


def test_config_file_without_a_version_still_replays(tmp_path, capsys):
    a = _gumbel_manifest(tmp_path, capsys)
    lines = (a / "manifest.txt").read_text().splitlines(keepends=True)
    cfg = tmp_path / "settings.txt"
    cfg.write_text("".join(line for line in lines if not line.startswith("version=")))
    b = tmp_path / "b"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(b)], capsys)[0] == 0
    for name in ("dataset.csv", "manifest.txt"):
        assert sha(a / name) == sha(b / name), name


def test_manifest_lists_exactly_the_replayable_keys(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(["estimate", *SMALL, "--threads", "2", "--out", str(out)], capsys)[0] == 0
    keys = [line.split("=")[0] for line in (out / "manifest.txt").read_text().splitlines()]
    assert keys == [
        "command",
        "version",
        "family",
        "theta",
        "n",
        "seed",
        "bandwidth",
        "grid_points",
        "trim",
        "replicates",
        "covariate_scale_is_sd",
    ]  # no threads, no out: both are free to vary without changing results


def test_no_trim_includes_every_defined_point(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run_cli(["estimate", *SMALL, "--no-trim", "--out", str(out)], capsys)
    assert code == 0
    assert "trim=none" in (out / "manifest.txt").read_text().splitlines()
    rows = [r.split(",") for r in (out / "theta_series.csv").read_text().splitlines()[1:]]
    # without a window, exclusion can only come from the estimate itself:
    # every excluded-but-finite value is an out-of-range solution, and every
    # NaN (no solution) row must be excluded
    assert any(included == "1" for _, _, included in rows)
    for _, theta, included in rows:
        if theta == "nan":
            assert included == "0"


# ---------------------------------------------------------------------------
# the settings table: one row per setting serves flags, config files and manifests
# ---------------------------------------------------------------------------


def test_every_setting_but_tau_has_a_manifest_text_its_default_reads_back_from():
    for key, setting in coprisk.cli._SETTINGS.items():
        if key == "tau":  # recorded as the theta it converts to
            assert setting.text is None
            continue
        assert setting.text is not None, key
        if setting.default is not None:  # data has no default to record
            assert setting.parse(setting.text(setting.default), key) == setting.default, key


@pytest.mark.parametrize("command", ["simulate", "estimate", "montecarlo", "oracle-check"])
def test_every_subcommand_offers_exactly_the_table_flags(command):
    parser = coprisk.cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {
        flag: action.dest
        for action in sub.choices[command]._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    expected = {f"--{key.replace('_', '-')}": key for key in coprisk.cli._SETTINGS}
    expected.update({"--config": "config", "--threads": "threads", "--out": "out", "--no-trim": "trim"})
    if command != "estimate":
        del expected["--data"]
    assert offered == expected


def test_manifests_record_every_setting_but_tau_under_config_keys(tmp_path, capsys):
    runs = {
        "sim": ["simulate", *SMALL],
        "est": ["estimate", *SMALL],
        "data": ["estimate", "--data", str(tmp_path / "sim" / "dataset.csv"), *SMALL[4:]],
        "mc": ["montecarlo", *SMALL, "--replicates", "1", "--threads", "1"],
        "oracle": ["oracle-check"],
    }
    recorded = set()
    for name, args in runs.items():
        assert run_cli([*args, "--out", str(tmp_path / name)], capsys)[0] == 0, name
        lines = (tmp_path / name / "manifest.txt").read_text().splitlines()
        keys = {line.partition("=")[0] for line in lines}
        assert keys <= coprisk.cli._CONFIG_KEYS, name
        recorded |= keys
    assert recorded == coprisk.cli._CONFIG_KEYS - {"tau"}


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def test_flags_override_config_file_which_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "settings.txt"
    cfg.write_text(
        "# study settings\n"
        "\n"
        "n = 400\n"
        "seed=5\n"
        "bandwidth = 0.9,0.9\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["simulate", "--config", str(cfg), "--n", "300", "--out", str(out)], capsys
    )
    assert code == 0
    manifest = dict(
        line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["n"] == "300"  # flag beat the config file
    assert manifest["seed"] == "5"  # config file beat the default
    assert manifest["bandwidth"] == "0.9,0.9"
    assert manifest["grid_points"] == "500"  # untouched default
    data_rows = (out / "dataset.csv").read_text().splitlines()
    assert len(data_rows) == 1 + 300


def test_tau_is_translated_to_theta_in_the_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["simulate", "--n", "50", "--tau", "0.2", "--out", str(out)], capsys
    )
    assert code == 0
    manifest = dict(
        line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert float(manifest["theta"]) == pytest.approx(0.5, abs=1e-12)


def test_config_file_tau_is_overridden_by_theta_flag(tmp_path, capsys):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("tau=0.2\n", encoding="utf-8")
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["simulate", "--n", "50", "--theta", "1.25", "--config", str(cfg), "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "theta=1.25" in (out / "manifest.txt").read_text().splitlines()


def test_config_file_with_a_byte_order_mark_replays(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "--n", "300", "--seed", "4", "--out", str(a)], capsys)[0] == 0
    cfg = tmp_path / "bom.txt"
    cfg.write_bytes(b"\xef\xbb\xbf" + (a / "manifest.txt").read_bytes())
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(b)], capsys)[0] == 0
    for name in ("dataset.csv", "manifest.txt"):
        assert sha(a / name) == sha(b / name), name


@pytest.mark.parametrize(
    "content, message_part",
    [
        ("theta=0.5\ntau=0.2\n", "mutually exclusive"),
        ("unknown_key=1\n", "unknown key"),
        ("n 400\n", "expected key=value"),
        ("n=400\nn=500\n", "duplicate"),
        ("command=montecarlo\n", "written for command"),
    ],
)
def test_bad_config_files_exit_2_with_single_line_error(tmp_path, capsys, content, message_part):
    cfg = tmp_path / "settings.txt"
    cfg.write_text(content, encoding="utf-8")
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: config:")
    assert message_part in err


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--family", "nope"],
        ["simulate", "--n", "abc"],
        ["simulate", "--n", "0"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--theta", "0.5", "--tau", "0.2"],
        ["estimate", "--bandwidth", "-0.3"],
        ["estimate", "--bandwidth", "0.3,0.3,0.3"],
        ["estimate", "--trim", "5:1"],
        ["estimate", "--trim", "oops"],
        ["estimate", "--grid-points", "1"],
        ["montecarlo", "--replicates", "0"],
        ["estimate", "--data", "does-not-exist.csv"],
        ["simulate", "--family", "gumbel"],  # default theta 0.5 invalid there
        # Frank's generator is NaN once exp(-theta) rounds to 1
        ["simulate", "--family", "frank", "--theta", "1e-17", "--n", "2000", "--seed", "3"],
        ["simulate", "--config", "no-such-config.txt"],
    ],
)
def test_config_violations_exit_2(tmp_path, capsys, args):
    code, _, err = run_cli([*args, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: config:")
    assert err.count("\n") == 1


def test_a_path_with_a_nul_byte_exits_2(tmp_path, capsys):
    # no command line can hold a NUL, but main's argv can; a path is a setting
    for args, key in ((["--config", "a\0b"], "config file"), (["--out", str(tmp_path / "a\0b")], "out")):
        code, _, err = run_cli(["simulate", "--n", "10", *args], capsys)
        assert (code, err) == (2, f"error: config: {key}: embedded null byte\n")


def test_empty_kernel_window_exits_3_with_the_reason(tmp_path, capsys):
    # two covariate clusters at -5 and +5: the mean covariate point between
    # them has no observation inside a 0.3 bandwidth window
    rng = np.random.default_rng(11)
    n = 200
    centers = np.where(np.arange(n)[:, None] % 2 == 0, -5.0, 5.0)
    sample = Sample(
        rng.exponential(1.0, n) + 0.01, rng.integers(1, 3, n), centers + rng.normal(0.0, 0.1, (n, 2))
    )
    data = tmp_path / "clusters.csv"
    write_dataset_csv(sample, data)
    code, _, err = run_cli(["estimate", "--data", str(data), "--out", str(tmp_path / "run")], capsys)
    assert code == 3
    assert err.startswith("error: estimation:") and "kernel mass" in err
    assert err.count("\n") == 1


def test_overflowing_kernel_weights_exit_3(tmp_path, capsys):
    # the mean covariate point (0, 0) is a data point, where K(0)^2 / h^2
    # overflows at h = 1e-160
    data = tmp_path / "symmetric.csv"
    write_dataset_csv(Sample([1.0, 2.0, 1.5], [1, 2, 1], [[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]]), data)
    code, _, err = run_cli(
        ["estimate", "--data", str(data), "--bandwidth", "1e-160", "--out", str(tmp_path / "run")], capsys
    )
    assert code == 3
    assert err.startswith("error: estimation:") and "kernel weights overflow" in err
    assert err.count("\n") == 1


def test_a_bandwidth_count_unlike_the_datasets_exits_2(tmp_path, capsys):
    # one value is h,h: two bandwidths for a file with three covariates, and
    # three given for a file with two; either is refused before estimation,
    # and the message says when one typed value stood for two
    wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
    write_dataset_csv(Sample([1.0, 2.0, 1.5], [1, 2, 1], [[0.1, 0.2, 0.3], [0.0, 0.1, 0.2], [-0.1, 0.0, 0.1]]), wide)
    write_dataset_csv(Sample([1.0, 2.0, 1.5], [1, 2, 1], [[0.1, 0.2], [0.0, 0.1], [-0.1, 0.0]]), narrow)
    refused = [
        (wide, "0.8", "2 values for the 3 covariates", " (one value stands for two)"),
        (wide, "0.8,0.9", "2 values for the 3 covariates", ""),
        (narrow, "0.8,0.8,0.8", "3 values for the 2 covariates", ""),
    ]
    for i, (data, bandwidth, counts, shared) in enumerate(refused):
        out = tmp_path / f"run-{i}"
        code, printed, err = run_cli(
            ["estimate", "--data", str(data), "--bandwidth", bandwidth, "--out", str(out)], capsys
        )
        assert (code, printed) == (2, "")
        assert err == f"error: config: bandwidth: {counts} in {data}{shared}\n"
        assert list(out.iterdir()) == []


def test_an_empty_data_path_exits_2(tmp_path, capsys):
    # an empty path once simulated a dataset and recorded no data line
    config = tmp_path / "empty-data.txt"
    config.write_text("command=estimate\ndata = \n")
    for name, args in (("flag", ["--data", ""]), ("config", ["--config", str(config)])):
        out = tmp_path / name
        code, printed, err = run_cli(["estimate", "--n", "600", *args, "--out", str(out)], capsys)
        assert (code, printed) == (2, "")
        assert err == "error: config: data: the path is empty\n"
        assert not out.exists()


def test_a_bandwidth_per_covariate_estimates_a_wider_dataset(tmp_path, capsys):
    base = simulate(default_config(3000, seed=21))
    third = np.random.default_rng(21).normal(0.0, 0.5, base.t.size)
    data = tmp_path / "d3.csv"
    write_dataset_csv(Sample(base.t, base.delta, np.column_stack([base.z, third])), data)
    out = tmp_path / "run"
    run = ["estimate", "--data", str(data), "--bandwidth", "0.6,0.6,1.5", "--grid-points", "50"]
    code, printed, _ = run_cli([*run, "--out", str(out)], capsys)
    assert code == 0
    grid = GridSpec(trim_lo=1.3, trim_hi=2.5, n_points=50)
    series = theta_series(read_dataset_csv(data), KernelSpec((0.6, 0.6, 1.5)), grid, CopulaFamily.CLAYTON)
    assert printed == f"theta_hat={series.theta_hat!r} n_included={series.n_included}\n"
    assert "bandwidth=0.6,0.6,1.5" in (out / "manifest.txt").read_text().splitlines()
    _assert_replays(out, "estimate", capsys)


def test_ulp_wide_duration_range_exits_3_as_degenerate(tmp_path, capsys):
    # half the durations 1.0 and half 2 ulps above: the percentile grid
    # would repeat points, and the error names the range, not t_grid
    n = 1000
    one_plus = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
    rng = np.random.default_rng(5)
    sample = Sample(
        np.where(np.arange(n) % 2 == 0, 1.0, one_plus), rng.integers(1, 3, n), rng.normal(0.0, 0.5, (n, 2))
    )
    data = tmp_path / "ties.csv"
    write_dataset_csv(sample, data)
    code, _, err = run_cli(["estimate", "--data", str(data), "--out", str(tmp_path / "run")], capsys)
    assert code == 3
    assert err.startswith("error: estimation:") and "degenerate duration range" in err
    assert err.count("\n") == 1
    assert "t_grid" not in err  # the command line has no option that sets it


def test_impossible_trim_window_exits_3(tmp_path, capsys):
    code, _, err = run_cli(
        ["estimate", *SMALL, "--trim", "100:200", "--out", str(tmp_path)], capsys
    )
    assert code == 3
    assert err.startswith("error: estimation:")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

MC = ["--n", "400", "--replicates", "3", "--bandwidth", "0.9", "--grid-points", "40", "--seed", "1"]


def test_montecarlo_artifacts_do_not_depend_on_threads(tmp_path, capsys):
    for name, threads in (("t1", "1"), ("t2", "2")):
        code, out, _ = run_cli(
            ["montecarlo", *MC, "--threads", threads, "--out", str(tmp_path / name)], capsys
        )
        assert code == 0
        assert out.startswith("mean_no_trimming=")
    for name in ("mc_replicates.csv", "mc_summary.csv", "manifest.txt"):
        assert sha(tmp_path / "t1" / name) == sha(tmp_path / "t2" / name), name


def test_montecarlo_estimation_value_error_exits_3(tmp_path, capsys):
    # one observation: its duration range is degenerate, so no grid exists
    out = tmp_path / "run"
    code, _, err = run_cli(
        ["montecarlo", "--n", "1", "--replicates", "1", "--threads", "1", "--out", str(out)], capsys
    )
    assert code == 3
    assert err.startswith("error: estimation:") and "degenerate duration range" in err
    assert err.count("\n") == 1
    assert "t_grid" not in err  # the command line has no option that sets it
    assert [p.name for p in out.iterdir() if ".tmp" in p.name] == []


def test_montecarlo_summary_schema(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(["montecarlo", *MC, "--out", str(out)], capsys)[0] == 0
    lines = (out / "mc_summary.csv").read_text().splitlines()
    assert lines[0] == "statistic,no_trimming,trimming"
    table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
    assert list(table) == ["mean", "p05", "p95", "spread", "n_replicates", "n_failed"]
    assert table["n_replicates"] == ["3", "3"]
    for column in (0, 1):
        spread = float(table["spread"][column])
        assert spread == pytest.approx(
            float(table["p95"][column]) - float(table["p05"][column]), rel=1e-12
        )
    reps = (out / "mc_replicates.csv").read_text().splitlines()
    assert reps[0] == "replicate,theta_hat,n_included,failed"
    assert len(reps) == 1 + 3


def test_montecarlo_no_trim_makes_both_columns_agree(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(["montecarlo", *MC, "--no-trim", "--out", str(out)], capsys)[0] == 0
    for row in (out / "mc_summary.csv").read_text().splitlines()[1:]:
        _, no_trimming, trimming = row.split(",")
        assert no_trimming == trimming


def test_montecarlo_manifest_replay_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["montecarlo", *MC, "--out", str(a)], capsys)[0] == 0
    code, _, _ = run_cli(
        ["montecarlo", "--config", str(a / "manifest.txt"), "--out", str(b)], capsys
    )
    assert code == 0
    for name in ("mc_replicates.csv", "mc_summary.csv", "manifest.txt"):
        assert sha(a / name) == sha(b / name), name


# sha256 of the artifacts of `montecarlo --family gumbel --tau 0.2 --n 2000
# --replicates 4`, the same on one worker and on two
MC_GUMBEL_DIGESTS = {
    "mc_replicates.csv": "0d78108966b9f3d39618aa6879ab94e829fda5b23daf3933e5fbe6e9a097074c",
    "mc_summary.csv": "a3890279296a99a1070e9625c3d7d57805251a4fa50df705ad7e049d6075c7a7",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_montecarlo_artifacts_match_golden_digests(tmp_path, capsys, threads):
    out = tmp_path / "run"
    args = ["--family", "gumbel", "--tau", "0.2", "--n", "2000", "--replicates", "4", "--threads", threads]
    assert run_cli(["montecarlo", *args, "--out", str(out)], capsys)[0] == 0
    assert {name: sha(out / name) for name in MC_GUMBEL_DIGESTS} == MC_GUMBEL_DIGESTS


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["clayton", "gumbel", "frank"])
def test_oracle_check_error_is_negligible(tmp_path, capsys, family):
    code, out, _ = run_cli(
        ["oracle-check", "--family", family, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    value = float(out.strip().split("=")[1])
    assert value <= 1e-13


# the exact worst error each family's oracle-check prints
ORACLE_CHECK_LINES = {
    "clayton": "max_abs_theta_error=2.5757174171303632e-14",
    "gumbel": "max_abs_theta_error=3.552713678800501e-15",
    "frank": "max_abs_theta_error=1.7763568394002505e-14",
}


@pytest.mark.parametrize("family", list(ORACLE_CHECK_LINES))
def test_oracle_check_prints_the_pinned_worst_error(tmp_path, capsys, family):
    code, out, _ = run_cli(["oracle-check", "--family", family, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out == ORACLE_CHECK_LINES[family] + "\n"


def test_oracle_check_manifest_records_the_family_alone(tmp_path, capsys):
    # it once recorded theta=0.5, outside Gumbel's domain, and an n, seed and
    # bandwidth it never read
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["oracle-check", "--family", "gumbel", "--out", str(a)], capsys)[0] == 0
    lines = (a / "manifest.txt").read_text().splitlines()
    assert lines == ["command=oracle-check", f"version={coprisk.__version__}", "family=gumbel"]
    code, out, _ = run_cli(["oracle-check", "--config", str(a / "manifest.txt"), "--out", str(b)], capsys)
    assert code == 0
    assert out == ORACLE_CHECK_LINES["gumbel"] + "\n"
    assert sha(a / "manifest.txt") == sha(b / "manifest.txt")


def test_oracle_check_does_not_convert_a_tau_it_never_reads(tmp_path, capsys):
    # tau = -0.5 has no Gumbel parameter; a run that simulates nothing ignores it
    code, out, err = run_cli(["oracle-check", "--family", "gumbel", "--tau", "-0.5", "--out", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert out == ORACLE_CHECK_LINES["gumbel"] + "\n"
    assert "tau" not in (tmp_path / "manifest.txt").read_text()


def _one_nan(solve):
    def patched(family, pi, ratio):
        theta, admissible = solve(family, pi, ratio)
        theta[theta.size // 2] = np.nan
        return theta, admissible

    return patched


# the level sweep solves through the CLI's reference to the array solve, the
# surface sweep through solve_surface's
@pytest.mark.parametrize(
    "module, family, where",
    [
        (coprisk.cli, "frank", "at pi="),
        (coprisk.cli, "clayton", "at pi="),
        (coprisk.estimator, "clayton", "exact surface"),
        (coprisk.estimator, "gumbel", "exact surface"),
        (coprisk.estimator, "frank", "exact surface"),
    ],
)
def test_oracle_check_fails_on_a_point_without_a_finite_theta(tmp_path, capsys, monkeypatch, module, family, where):
    monkeypatch.setattr(module, "_solve_ratio", _one_nan(module._solve_ratio))
    code, out, err = run_cli(["oracle-check", "--family", family, "--out", str(tmp_path)], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: estimation:") and where in err


# ---------------------------------------------------------------------------
# entry points and output handling
# ---------------------------------------------------------------------------


def test_module_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "coprisk", "oracle-check", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("max_abs_theta_error=")


def test_only_a_run_as_the_program_freezes_the_heap(tmp_path, capsys):
    # an explicit argv (tests, embedding callers) leaves the collector as it was
    before = gc.get_freeze_count()
    code, _, _ = run_cli(["oracle-check", "--out", str(tmp_path / "argv")], capsys)
    assert code == 0
    assert gc.get_freeze_count() == before
    # argv None reads sys.argv, as the console script and python -m do, and
    # freezes what is left for the exit that follows
    probe = (
        "import gc, sys, coprisk.cli\n"
        "sys.argv = ['coprisk', 'oracle-check', '--out', sys.argv[1]]\n"
        "assert coprisk.cli.main() == 0 and gc.get_freeze_count() > 0\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "program")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


# Run in a fresh interpreter: every test module here already imports scipy,
# so only a new process can see which modules coprisk itself loads.  The
# probe blocks scipy outright, so any scipy import on a run path fails.
_COLD_IMPORT_PROBE = """
import json, sys

sys.modules["scipy"] = None

def pool_modules():
    return sorted(name for name in sys.modules if name.startswith(("multiprocessing", "concurrent.futures")))

out = sys.argv[1]
report = {}
import coprisk.cli
report["import_pool"] = pool_modules()
for family in ("clayton", "gumbel"):
    code = coprisk.cli.main([
        "estimate", "--family", family, "--tau", "0.2", "--n", "600", "--seed", "9",
        "--bandwidth", "0.8", "--grid-points", "50", "--out", out + "/" + family,
    ])
    assert code == 0, (family, code)
report["clayton_gumbel_pool"] = pool_modules()
data = out + "/frank_data"
for args in (
    ["simulate", "--family", "frank", "--theta", "1.86", "--n", "600", "--seed", "9", "--out", data],
    ["estimate", "--data", data + "/dataset.csv", "--family", "frank", "--tau", "0.2",
     "--bandwidth", "0.8", "--grid-points", "50", "--out", out + "/frank"],
    ["simulate", "--family", "frank", "--tau", "0.2", "--n", "600", "--seed", "9",
     "--out", out + "/frank_tau"],
    ["oracle-check", "--family", "frank", "--out", out + "/frank_oracle"],
    ["montecarlo", "--family", "frank", "--tau", "0.2", "--n", "400", "--replicates", "2",
     "--bandwidth", "0.9", "--grid-points", "40", "--seed", "1", "--threads", "1",
     "--out", out + "/frank_mc"],
):
    assert coprisk.cli.main(args) == 0, args
assert coprisk.cli.main([
    "montecarlo", "--family", "gumbel", "--tau", "0.2", "--n", "400", "--replicates", "3",
    "--bandwidth", "0.9", "--grid-points", "40", "--seed", "1", "--threads", "2", "--out", out + "/gumbel_mc",
]) == 0
assert coprisk.cli.main([
    "estimate", "--n", "20000", "--seed", "4", "--bandwidth", "0.8", "--grid-points", "50", "--threads", "2",
    "--out", out + "/split",
]) == 0
report["all_commands_pool"] = pool_modules()
from coprisk.copula import CopulaFamily, theta_for_tau, theta_from_ratio
report["frank_ratio"] = theta_from_ratio(CopulaFamily.FRANK, 0.4, 2.9).theta
report["frank_tau"] = theta_for_tau(CopulaFamily.FRANK, 0.2)
report["scipy"] = sorted(
    name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None
)
print(json.dumps(report))
"""


def test_cold_import_loads_no_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    # every command ran with scipy blocked, Frank tau conversions included
    assert report["scipy"] == []
    # no command loads a process pool: a study on two workers, and a dataset
    # written on two, fork their children themselves
    assert report["import_pool"] == []
    assert report["clayton_gumbel_pool"] == []
    assert report["all_commands_pool"] == []
    # bisection of the series tau curve down to adjacent doubles, and 64
    # halvings of the curvature bracket
    assert report["frank_tau"] == 1.8608837808585954
    assert report["frank_ratio"] == 0.7614099464601756


# np.percentile and a plain np.unique import numpy.ma (10-14 ms a process);
# neither the estimate path nor a replicate needs it
_NO_MASKED_ARRAY_PROBE = """
import json, sys

out = sys.argv[1]
import coprisk.cli
from coprisk.copula import CopulaFamily
from coprisk.dgp import default_config
from coprisk.estimator import GridSpec, monte_carlo
from coprisk.kernel import KernelSpec
report = {}
for args in (
    ["simulate", "--family", "frank", "--theta", "1.86", "--n", "600", "--seed", "9", "--out", out + "/sim"],
    ["estimate", "--data", out + "/sim/dataset.csv", "--family", "frank", "--tau", "0.2",
     "--bandwidth", "0.8", "--grid-points", "50", "--out", out + "/est"],
):
    assert coprisk.cli.main(args) == 0, args
report["estimate"] = "numpy.ma" in sys.modules
monte_carlo(default_config(600, seed=9, theta=1.25, family=CopulaFamily.GUMBEL), KernelSpec((0.8, 0.8)),
            GridSpec(n_points=50), CopulaFamily.GUMBEL, 2, workers=1)
report["monte_carlo"] = "numpy.ma" in sys.modules
print(json.dumps(report))
"""


def test_estimate_and_replicates_leave_numpy_ma_unloaded(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAY_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {"estimate": False, "monte_carlo": False}


def test_nested_output_directory_is_created(tmp_path, capsys):
    out = tmp_path / "deep" / "nested" / "dir"
    code, _, _ = run_cli(["simulate", "--n", "50", "--out", str(out)], capsys)
    assert code == 0
    assert (out / "dataset.csv").exists() and (out / "manifest.txt").exists()


def test_no_temp_files_left_behind(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(["estimate", *SMALL, "--out", str(out)], capsys)[0] == 0
    leftovers = [p.name for p in out.iterdir() if ".tmp" in p.name]
    assert leftovers == []


# what a forked worker does in place of a replicate, the exit code and the
# one stderr line that follow
_WORKER_FAILURES = {
    "memory_error": (
        2,
        "error: config: Unable to allocate 7.28 TiB for an array; lower --n, --grid-points or --replicates\n",
    ),
    "value_error": (3, "error: estimation: t_grid must be finite\n"),
    "exit_9": (3, "error: estimation: a worker process died (exit status 9)\n"),
    "interrupt": (130, "error: interrupted\n"),
}


@pytest.mark.skipif(not hasattr(os, "fork") or sys.platform == "darwin", reason="a study forks no worker here")
@pytest.mark.parametrize("failure", sorted(_WORKER_FAILURES))
def test_worker_failure_exits_with_one_line_and_no_child_left(failure, tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def failing_job(args):
        # forked children inherit this patch; the parent must run no replicate
        assert os.getpid() != parent, "the parent ran a replicate"
        if failure == "memory_error":
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        if failure == "value_error":
            raise ValueError("t_grid must be finite")
        if failure == "exit_9":
            os._exit(9)
        if args[0].seed == 1:  # replicate 0's worker interrupts the parent once
            os.kill(parent, signal.SIGINT)
        time.sleep(60)  # every worker is still running when the interrupt lands

    monkeypatch.setattr(coprisk.estimator, "_replicate_job", failing_job)
    # two workers on any host that forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "run"
    code, _, err = run_cli(["montecarlo", *MC, "--threads", "2", "--out", str(out)], capsys)
    assert (code, err) == _WORKER_FAILURES[failure]
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
    assert [p.name for p in out.iterdir() if ".tmp" in p.name] == []


_FORKS = not hasattr(os, "fork") or not hasattr(os, "memfd_create") or sys.platform == "darwin"
# a sample large enough that two workers split its dataset.csv
SPLIT = ["--n", str(coprisk.data._SPLIT_MIN_ROWS), "--seed", "4", "--bandwidth", "0.8", "--grid-points", "50"]


def _two_cpus_counting_forks(monkeypatch):
    """Two CPUs on any host, and the list of os.fork calls the parent made."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.skipif(_FORKS, reason="a dataset is written in one process here")
@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_dataset_writes_do_not_depend_on_threads(command, tmp_path, capsys, monkeypatch):
    forks = _two_cpus_counting_forks(monkeypatch)
    outputs = {}
    for threads, n_forks in (("1", 0), ("2", 1)):
        out = tmp_path / threads
        del forks[:]
        code, stdout, err = run_cli([command, *SPLIT, "--threads", threads, "--out", str(out)], capsys)
        assert (code, err, len(forks)) == (0, "", n_forks)
        outputs[threads] = stdout.replace(str(out), "OUT"), {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["1"] == outputs["2"]
    assert "dataset.csv" in outputs["1"][1]


@pytest.mark.skipif(_FORKS, reason="a dataset is written in one process here")
def test_a_failed_estimate_leaves_the_whole_dataset(tmp_path, capsys, monkeypatch):
    # the trim window holds no grid point: exit 3 after the whole write
    forks = _two_cpus_counting_forks(monkeypatch)
    for threads in ("1", "2"):
        code, _, err = run_cli(
            ["estimate", *SPLIT, "--trim", "100:200", "--threads", threads, "--out", str(tmp_path / threads)], capsys
        )
        assert code == 3 and err.startswith("error: estimation: no grid point") and err.count("\n") == 1
        assert sorted(p.name for p in (tmp_path / threads).iterdir()) == ["dataset.csv"]
    assert len(forks) == 1
    assert (tmp_path / "1" / "dataset.csv").read_bytes() == (tmp_path / "2" / "dataset.csv").read_bytes()


@pytest.mark.skipif(_FORKS, reason="a dataset is written in one process here")
def test_the_dataset_is_written_before_the_estimate(tmp_path, capsys, monkeypatch):
    forks = _two_cpus_counting_forks(monkeypatch)
    seen = {}

    def spy(sample, *args):
        dataset = tmp_path / threads / "dataset.csv"
        seen[threads] = dataset.read_bytes() if dataset.exists() else None
        return theta_series(sample, *args)

    monkeypatch.setattr(coprisk.cli, "theta_series", spy)
    for threads in ("1", "2"):
        code, _, err = run_cli(["estimate", *SPLIT, "--threads", threads, "--out", str(tmp_path / threads)], capsys)
        assert (code, err) == (0, "")
    assert len(forks) == 1
    assert seen["1"] == seen["2"] == (tmp_path / "1" / "dataset.csv").read_bytes()


# what the forked dataset writer does in place of its rows, the exit code and
# the one stderr line that follow
_WRITER_FAILURES = {
    "memory_error": (
        2,
        "error: config: Unable to allocate 7.28 TiB for an array; lower --n, --grid-points or --replicates\n",
    ),
    "no_space": (2, "error: config: [Errno 28] No space left on device\n"),
    "exit_9": (3, "error: estimation: a worker process died (exit status 9)\n"),
    "interrupt": (130, "error: interrupted\n"),
}


@pytest.mark.skipif(_FORKS, reason="a dataset is written in one process here")
@pytest.mark.parametrize("failure", sorted(_WRITER_FAILURES))
def test_writer_failure_exits_with_one_line_and_no_child_left(failure, tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    write_rows = coprisk.data._write_rows

    def failing_rows(fh, columns):
        if os.getpid() == parent:  # the parent's head rows
            if failure == "interrupt":
                os.kill(parent, signal.SIGINT)  # while the child writes the tail
                time.sleep(60)
            return write_rows(fh, columns)
        if failure == "memory_error":
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        if failure == "no_space":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if failure == "exit_9":
            os._exit(9)
        time.sleep(60)  # still writing when the interrupt lands

    forks = _two_cpus_counting_forks(monkeypatch)
    monkeypatch.setattr(coprisk.data, "_write_rows", failing_rows)
    out = tmp_path / "run"
    code, _, err = run_cli(["estimate", *SPLIT, "--threads", "2", "--out", str(out)], capsys)
    assert (code, err, len(forks)) == (*_WRITER_FAILURES[failure], 1)
    with pytest.raises(ChildProcessError):  # the writer was reaped
        os.waitpid(-1, os.WNOHANG)
    assert list(out.iterdir()) == []  # no temp file, and no dataset.csv


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # nothing is allocated for real: each stub raises what numpy raises for a
    # size no host can hold, or a bare MemoryError after a partial write
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64")

    def half_written(sample, path, workers):
        with open(path, "w") as fh:
            fh.write("t,delta")
        raise MemoryError

    stubs = [
        ("simulate", "simulate", no_memory),
        ("estimate", "simulate", no_memory),
        ("estimate", "_write_dataset", half_written),
        ("montecarlo", "monte_carlo", no_memory),
    ]
    for command, name, stub in stubs:
        out = tmp_path / f"{command}-{name}"
        with monkeypatch.context() as patch:
            patch.setattr(coprisk.cli, name, stub)
            code, _, err = run_cli([command, "--n", "50", "--out", str(out)], capsys)
        assert code == 2, (command, name)
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert err.endswith("; lower --n, --grid-points or --replicates\n")
        assert ("Unable to allocate 7.28 TiB" in err) == (stub is no_memory)
        assert [p.name for p in out.iterdir() if ".tmp" in p.name] == []


def test_interrupt_exits_130_and_removes_partial_files(tmp_path, capsys, monkeypatch):
    def interrupted(path, header, columns):
        with open(path, "w") as fh:
            fh.write("replicate,")
        raise KeyboardInterrupt

    monkeypatch.setattr(coprisk.cli, "_write_csv", interrupted)
    out = tmp_path / "run"
    code, _, err = run_cli(["montecarlo", *MC, "--threads", "1", "--out", str(out)], capsys)
    assert code == 130
    assert err == "error: interrupted\n"
    assert list(out.iterdir()) == []  # the partial temp file is gone, nothing was renamed

    def interrupt_study(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(coprisk.cli, "monte_carlo", interrupt_study)
    code, _, err = run_cli(["montecarlo", *MC, "--out", str(out)], capsys)
    assert code == 130
    assert err == "error: interrupted\n"
    assert list(out.iterdir()) == []
