"""Sample container, dataset CSV round-trip, and CSV writer tests."""

import csv
import hashlib
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coprisk.data
from coprisk.copula import CopulaFamily
from coprisk.data import (
    _BLOCK_ROWS,
    _HEAD_SHARE,
    _SPLIT_MIN_ROWS,
    Sample,
    _float_cells,
    _split_row,
    _write_csv,
    _write_dataset_forked,
    read_dataset_csv,
    write_dataset_csv,
)
from coprisk.dgp import default_config, simulate


def _toy_sample() -> Sample:
    t = [0.5, 1.25, 2.0, 0.125]
    delta = [1, 2, 2, 1]
    z = [[0.1, -0.2], [1.5, 0.0], [-0.75, 0.3], [0.0, 0.0]]
    return Sample(t, delta, z)


def test_sample_columns_and_length():
    s = _toy_sample()
    assert len(s) == 4
    assert s.d == 2
    assert s.t.dtype == np.float64
    assert s.delta.dtype == np.int64
    assert s.z.shape == (4, 2)


def test_sample_mean_covariates():
    s = _toy_sample()
    assert np.allclose(s.mean_covariates(), s.z.mean(axis=0), rtol=0, atol=0)
    # numpy's axis-0 sum starts from +0.0, so an all -0.0 column averages to +0.0
    z = np.array([[-0.0, -0.0], [-0.0, 1.0], [-0.0, -0.0]])
    zbar = Sample([1.0, 2.0, 3.0], [1, 1, 2], z).mean_covariates()
    assert np.array_equal(zbar, z.mean(axis=0)) and not np.signbit(zbar).any()


@pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
def test_blocked_mean_is_one_pass_bit_for_bit(n):
    # the blocked running sum is numpy's mean of the array it was given, at
    # the edges of its blocks and with signs of zero included
    rng = np.random.default_rng(n)
    z = np.column_stack([rng.normal(size=n) * 1e3, rng.normal(size=n) * 1e-3, np.full(n, -0.0)])
    zbar = Sample(np.ones(n), np.ones(n, dtype=np.int64), z).mean_covariates()
    assert np.array_equal(zbar, z.mean(axis=0))
    assert np.array_equal(np.signbit(zbar), np.signbit(z.mean(axis=0)))


def test_sample_arrays_are_read_only():
    s = _toy_sample()
    with pytest.raises(ValueError):
        s.t[0] = 9.0
    with pytest.raises(ValueError):
        s.z[0, 0] = 9.0


@pytest.mark.parametrize(
    "t, delta, z",
    [
        ([], [], np.empty((0, 2))),  # empty
        ([1.0, -1.0], [1, 2], [[0.0, 0.0], [0.0, 0.0]]),  # negative duration
        ([1.0, 0.0], [1, 2], [[0.0, 0.0], [0.0, 0.0]]),  # zero duration
        ([1.0, np.inf], [1, 2], [[0.0, 0.0], [0.0, 0.0]]),  # nonfinite duration
        ([1.0, 2.0], [1, 3], [[0.0, 0.0], [0.0, 0.0]]),  # bad cause code
        ([1.0, 2.0], [1], [[0.0, 0.0], [0.0, 0.0]]),  # shape mismatch
        ([1.0, 2.0], [1, 2], [0.0, 0.0]),  # z not 2-d
        ([1.0, 2.0], [1, 2], [[0.0], [0.0]]),  # only one covariate
        ([1.0, 2.0], [1, 2], [[0.0, np.nan], [0.0, 0.0]]),  # nonfinite covariate
    ],
)
def test_sample_validation_rejects(t, delta, z):
    with pytest.raises(ValueError):
        Sample(t, delta, z)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(314159)
    t = np.exp(rng.standard_normal(60))
    delta = rng.integers(1, 3, size=60)
    z = rng.standard_normal((60, 2)) * np.pi  # exercise long decimal expansions
    s = Sample(t, delta, z)
    path = tmp_path / "dataset.csv"
    write_dataset_csv(s, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.t, s.t)
    assert np.array_equal(back.delta, s.delta)
    assert np.array_equal(back.z, s.z)
    assert back.delta.dtype == np.int64


def test_csv_header_and_line_endings(tmp_path):
    path = tmp_path / "dataset.csv"
    write_dataset_csv(_toy_sample(), path)
    raw = path.read_bytes()
    assert raw.startswith(b"t,delta,z1,z2\n")
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_csv_three_covariates_header(tmp_path):
    s = Sample([1.0, 2.0], [1, 2], [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    path = tmp_path / "wide.csv"
    write_dataset_csv(s, path)
    assert path.read_text().splitlines()[0] == "t,delta,z1,z2,z3"
    back = read_dataset_csv(path)
    assert back.d == 3
    assert np.array_equal(back.z, s.z)


@pytest.mark.parametrize(
    "content",
    [
        "",  # empty file
        "t,delta,z1,z2\n",  # header only, no rows
        "time,delta,z1,z2\n1.0,1,0.0,0.0\n",  # wrong header name
        "t,delta,z1\n1.0,1,0.0\n",  # too few covariate columns
        "t,delta,z1,z2\n1.0,1,0.0\n",  # short row
        "t,delta,z1,z2\n1.0,1,0.0,0.0,9.0\n",  # long row
        "t,delta,z1,z2\n1.0,1.5,0.0,0.0\n",  # fractional cause
        "t,delta,z1,z2\n1.0,1.0,0.0,0.0\n",  # cause written as a float
        "t,delta,z1,z2\n1.0,x,0.0,0.0\n",  # cause not a number
        "t,delta,z1,z2\n1.0,1,0.0,0.0 # note\n",  # trailing comment
    ],
)
def test_csv_read_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError):
        read_dataset_csv(path)


def _reference_csv(path, header, columns) -> None:
    """The writer's contract, one value at a time through the csv module."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) if isinstance(v, np.floating) else str(int(v)) for v in row])


def _around(x: float, ulps: int) -> list[float]:
    """x and its `ulps` floating-point neighbours on either side."""
    return [float(v) for v in x + np.arange(-ulps, ulps + 1) * np.spacing(x)] if x > 0 else [x]


def test_csv_writer_matches_a_csv_writer_reference(tmp_path):
    specials = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 0.1, -2.5]
    # the smallest normal and its neighbours, the largest double, negative subnormals
    specials += _around(2.0**-1022, 2) + [-5e-324, -(2.0**-1023), -2.225073858507201e-308, 1.7976931348623157e308]
    # where repr switches between positional and exponent form
    specials += [1e16 - 2, 9.999999999999999e15, 1e-4, 9.9999e-5, 1e-5, 0.001, 0.00012345, 1234567890123456.8]
    specials += [sign * 2.0**k for k in range(-1074, 1024) for sign in (1, -1)]  # every power of two
    specials += [v for e in range(-307, 309) for v in _around(float(f"1e{e}"), 1)]  # both sides of each decade
    specials += [1e16 + 2, 2.0**53 + 2, 12345678901234567.0, 1.2345678901234568e20, 1e22, 1e23]
    n = 3 * _BLOCK_ROWS + 5  # rows span four write blocks
    assert len(specials) < n
    floats = np.resize(np.array(specials), n)
    ints = np.resize(np.array([0, -7, 2**40, 12], dtype=np.int64), n)
    flags = np.resize(np.array([True, False, False]), n)
    path = tmp_path / "written.csv"
    _write_csv(path, ["x", "k", "flag"], [floats, ints, flags])

    reference = tmp_path / "reference.csv"
    _reference_csv(reference, ["x", "k", "flag"], [floats, ints, flags])
    assert path.read_bytes() == reference.read_bytes()
    assert path.read_text().splitlines()[1:9] == [
        f"{v},{k},{f}"
        for v, k, f in zip(
            ["-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "0.1", "-2.5"],
            ["0", "-7", "1099511627776", "12"] * 2,
            ["1", "0", "0"] * 3,
        )
    ]


@pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
def test_csv_writer_block_edges_match_the_reference(tmp_path, n):
    # a float32 column, strided views with random magnitudes, int64's
    # extremes and flags, at the edges of the writer's blocks
    rng = np.random.default_rng(2718)
    wide = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-8, 20, (n, 2))
    single = (rng.standard_normal(n) * 10.0 ** rng.integers(-40, 38, n)).astype(np.float32)
    big = np.resize(np.array([-(2**63), 2**63 - 1, 10**17, 10**17 - 1, -(10**17) + 1, 10**16], dtype=np.int64), n)
    flags = rng.random(n) < 0.5
    columns = [wide[:, 1], single, big, flags, wide[:, 0]]
    assert not wide[:, 1].flags.contiguous
    path, reference = tmp_path / "written.csv", tmp_path / "reference.csv"
    _write_csv(path, list("abcde"), columns)
    _reference_csv(reference, list("abcde"), columns)
    assert path.read_bytes() == reference.read_bytes()


def _cell_text(values) -> list[str]:
    x = np.asarray(values, dtype=float)
    cells = np.empty((x.size, 48), dtype=np.uint8)
    _float_cells(x, cells)
    return [bytes(row[1:]).replace(b"\0", b"").decode() for row in cells]


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(float)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), _BIT_PATTERNS), min_size=1, max_size=64))
@example([2.0**-1022, 5e-324, 1e16, 9.999999999999999e15, 1e-4, 9.9999e-5, 1e-5, 2.0**60, 1.7976931348623157e308])
@example([0.3, 1.0 / 3.0, 123456.789e-300, 4.35, 2.675, 1e23, 8.41e21, 5e-310])
def test_float_cells_give_repr_of_every_bit_pattern(values):
    assert _cell_text(values) == [repr(v) for v in values]


def test_forced_fallback_gives_the_same_bytes(tmp_path, monkeypatch):
    sample = simulate(default_config(3000, seed=5, theta=2.0, family=CopulaFamily.GUMBEL))
    fast = tmp_path / "fast.csv"
    write_dataset_csv(sample, fast)

    calls = []
    fallback = coprisk.data._fallback

    def spy(cells, x, keep):
        calls.append((int(np.count_nonzero(keep)), keep.size))
        fallback(cells, x, keep)

    monkeypatch.setattr(coprisk.data, "_fallback", spy)
    # the band a long double no wider than double gets: every value falls back
    monkeypatch.setattr(coprisk.data, "_DIGIT_BAND", 1e17 * float(np.finfo(float).eps))
    slow = tmp_path / "slow.csv"
    write_dataset_csv(sample, slow)
    assert calls and all(kept == 0 for kept, _ in calls)
    assert sum(size for _, size in calls) == 3 * len(sample)
    assert slow.read_bytes() == fast.read_bytes()


# sha256 of write_dataset_csv(simulate(default_config(100_000, seed=11,
# theta=..., family=...))), re-pinned at version 0.3.0 (the normal quantile
# on numpy's log, Clayton's cancellation-free form) and checked then against
# _reference_csv, which writes every float by repr one value at a time.
DATASET_TEXT_DIGESTS = [
    (CopulaFamily.CLAYTON, 0.5, "05d25db3c8f875efee2bf458a26b4c39b290daf7eb1ec83831afb0fd23be2c47"),
    (CopulaFamily.GUMBEL, 1.25, "56977df8dbc3f8e0ed1a82f71630da8b22c7e214e5ff9d004e64a4b4a0c184e8"),
    (CopulaFamily.FRANK, 1.86, "b687dd0d708fb63adaa91b130144564990b2cb0993abc812cbe87846d3d7b271"),
]


@pytest.mark.parametrize("family, theta, digest", DATASET_TEXT_DIGESTS, ids=lambda v: getattr(v, "value", None))
def test_dataset_text_matches_golden_digest(tmp_path, family, theta, digest):
    path = tmp_path / "dataset.csv"
    write_dataset_csv(simulate(default_config(100_000, seed=11, theta=theta, family=family)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_csv_writer_formats_plain_sequences_value_by_value(tmp_path):
    path = tmp_path / "mixed.csv"
    _write_csv(path, ["name", "value"], [("mean", "n", "flag"), (np.float64(0.5), np.int64(3), True)])
    assert path.read_text() == "name,value\nmean,0.5\nn,3\nflag,1\n"


# the split row of a 100,000-row dataset written on two CPUs
_M = round(100_000 * _HEAD_SHARE / _BLOCK_ROWS) * _BLOCK_ROWS


def _awkward_sample(n: int) -> Sample:
    """n rows of integer causes and float columns that mix shortest decimals
    with values that take the repr fallback: zeros of both signs,
    subnormals, powers of two and extreme exponents."""
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, 5e-324, -(2.0**-1030), 2.0**-3, -4.0, 1e300, -1.7976931348623157e308, 1e-300])
    z = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-5, 5, (n, 3))
    z[::3, 0] = np.resize(special, z[::3, 0].size)
    z[1::4, 2] = np.resize(special[::-1], z[1::4, 2].size)
    t = rng.exponential(1.0, n) + 1e-3
    t[::5] = np.resize(np.array([0.5, 1.0, 2.0**-1074, 1e308, 1e16, 9.999999999999999e15]), t[::5].size)
    return Sample(t, rng.integers(1, 3, n), z)


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "memfd_create"), reason="no forked write here")
@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, _M - 1, _M, _M + 1, 2 * _BLOCK_ROWS + 1, 100_000])
def test_forked_write_is_byte_identical(tmp_path, n):
    sample = _awkward_sample(n)
    one = tmp_path / "one.csv"
    write_dataset_csv(sample, one)
    # the rule's split, a child with every row, a child with none, and
    # splits off the block boundaries
    splits = {round(n * _HEAD_SHARE / _BLOCK_ROWS) * _BLOCK_ROWS, 0, n, n // 2, min(n, _M + 1)}
    for split in sorted(s for s in splits if s <= n):
        path = tmp_path / f"split{split}.csv"
        _write_dataset_forked(sample, path, split, lambda: None)
        assert path.read_bytes() == one.read_bytes(), split


def test_split_row_forks_only_a_large_sample_on_two_workers(monkeypatch):
    # resolves the split only: no process is started
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    monkeypatch.setattr(os, "memfd_create", lambda *args: pytest.fail("made a file"), raising=False)
    n = 100_000
    assert _split_row(n, 2) == _M and _M % _BLOCK_ROWS == 0 and 0 < _M < n
    assert 0 < _split_row(_SPLIT_MIN_ROWS, 8) < _SPLIT_MIN_ROWS  # the break-even splits
    assert _split_row(_SPLIT_MIN_ROWS - 1, 2) == _SPLIT_MIN_ROWS - 1  # below the break-even
    assert _split_row(n, 1) == n  # one worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _split_row(n, 2) == n  # one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert _split_row(n, 2) == n
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.delattr(os, "memfd_create")
    assert _split_row(n, 2) == n
