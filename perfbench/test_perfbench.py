"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench

They run every workload at small n, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import Tracer, replay  # noqa: E402

SPEC = run.SPEC
COUNTS = (
    "kernel.window_rows",
    "kernel.suffix_terms",
    "data.dataset_bytes",
    "copula.brentq_iterations",
    "estimator.n_included",
)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    for line in out.stdout.splitlines():
        if line.startswith("metric "):
            assert "median of n=" in line


@pytest.mark.parametrize("workload", ["estimate-sim-clayton", "montecarlo-gumbel"])
def test_failed_invocation_is_counted(workload, monkeypatch, capsys):
    """An invocation that exits before writing its artifacts is a failed
    operation in the result, not a crash of the benchmark."""
    cli_args = run.cli_args

    def first_timed_invocation_fails(w, scale, seed, out_dir, dataset, replicates):
        args = cli_args(w, scale, seed, out_dir, dataset, replicates)
        return [*args, "--no-such-flag"] if out_dir.name == "inv0" else args

    monkeypatch.setattr(run, "cli_args", first_timed_invocation_fails)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_counts_repeat_exactly(tmp_path):
    lib = run.import_library()
    w = run.WORKLOADS["estimate-data-frank"]  # the only workload with brentq iterations
    design = run.library_design(lib, w, run.SMOKE, run.derive_seed(5, "dataset"))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.run_id = "r"
        replay(lib, tracer, design, run.SMOKE.probe_replicates, tmp_path / "d.csv", run.ENV, run.ROOT)
        samples = run.layer_samples(tracer, w, [0.0])
        counts.append({name: samples[name] for name in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["copula.brentq_iterations"][0] > 0
    assert counts[0]["kernel.suffix_terms"][0] > 0


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        with tracer.span("child") as child:
            pass
    assert child["parent"] == parent["id"]
    expected = (parent["end"] - parent["start"]) - (child["end"] - child["start"])
    assert tracer.self_time(parent) == pytest.approx(expected)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "estimate-sim-clayton", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
