"""Sample container, dataset CSV round-trip, and CSV writer tests."""

import csv

import numpy as np
import pytest

from coprisk.data import _BLOCK_ROWS, Observation, Sample, _write_csv, read_dataset_csv, write_dataset_csv


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


def test_sample_indexing_returns_observation():
    s = _toy_sample()
    o = s[1]
    assert isinstance(o, Observation)
    assert o.t == 1.25
    assert o.delta == 2
    assert o.z == (1.5, 0.0)
    # negative indices follow sequence semantics
    assert s[-1].t == 0.125


def test_sample_slice_returns_sample():
    s = _toy_sample()
    head = s[:2]
    assert isinstance(head, Sample)
    assert len(head) == 2
    assert np.array_equal(head.t, s.t[:2])


def test_sample_iteration_and_from_observations_round_trip():
    s = _toy_sample()
    rebuilt = Sample.from_observations(iter(s))
    assert np.array_equal(rebuilt.t, s.t)
    assert np.array_equal(rebuilt.delta, s.delta)
    assert np.array_equal(rebuilt.z, s.z)


def test_sample_mean_covariates():
    s = _toy_sample()
    assert np.allclose(s.mean_covariates(), s.z.mean(axis=0), rtol=0, atol=0)


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
    ],
)
def test_csv_read_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError):
        read_dataset_csv(path)


def test_csv_writer_matches_a_csv_writer_reference(tmp_path):
    specials = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 0.1, -2.5]
    n = 2 * _BLOCK_ROWS + 3  # rows span three write blocks
    floats = np.resize(np.array(specials), n)
    ints = np.resize(np.array([0, -7, 2**40, 12], dtype=np.int64), n)
    flags = np.resize(np.array([True, False, False]), n)
    path = tmp_path / "written.csv"
    _write_csv(path, ["x", "k", "flag"], [floats, ints, flags])

    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "k", "flag"])
        for x, k, f in zip(floats, ints, flags):
            writer.writerow([repr(float(x)), str(int(k)), str(int(f))])
    assert path.read_bytes() == reference.read_bytes()
    assert path.read_text().splitlines()[1:9] == [
        f"{v},{k},{f}"
        for v, k, f in zip(
            ["-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "0.1", "-2.5"],
            ["0", "-7", "1099511627776", "12"] * 2,
            ["1", "0", "0"] * 3,
        )
    ]


def test_csv_writer_formats_plain_sequences_value_by_value(tmp_path):
    path = tmp_path / "mixed.csv"
    _write_csv(path, ["name", "value"], [("mean", "n", "flag"), (np.float64(0.5), np.int64(3), True)])
    assert path.read_text() == "name,value\nmean,0.5\nn,3\nflag,1\n"
