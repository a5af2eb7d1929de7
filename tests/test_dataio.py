import io

import numpy as np
import pytest

from optbias.dataio import (
    OfflineDataset,
    _read_csv,
    load_dataset,
    normalized_score,
    save_dataset,
    select_bottom_fraction,
    standardize,
    write_score_csv,
)
from optbias.errors import DataError


def test_load_well_formed(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,x1,y\n0,1,2\n3,4,5\n6,7,8\n")
    ds = load_dataset(p)
    assert ds.n == 3 and ds.dim == 2
    assert np.array_equal(ds.z, [2.0, 5.0, 8.0])
    assert ds.names == ("x0", "x1")


def test_load_rejects_nan_with_location():
    with pytest.raises(DataError, match="row 2, column x0: non-finite value"):
        _read_csv(io.StringIO("x0,y\n1,2\nNaN,3\n"))


def test_load_header_only():
    with pytest.raises(DataError, match="header-only file"):
        _read_csv(io.StringIO("x0,y\n"))


def test_load_bad_header():
    with pytest.raises(DataError, match=r"expected header x0,\.\.\.,y"):
        _read_csv(io.StringIO("a,b\n1,2\n"))


def test_load_ragged_row():
    with pytest.raises(DataError, match="row 1: expected 3 fields, got 2"):
        _read_csv(io.StringIO("x0,x1,y\n1,2\n"))


def test_load_rejects_non_utf8(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"x0,y\n1,2\n3,\xff4\n")
    with pytest.raises(DataError, match="not UTF-8 text"):
        load_dataset(p)


def test_dataset_shape_mismatch():
    with pytest.raises(Exception):
        OfflineDataset(np.zeros((3, 2)), np.zeros(2))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    ds = OfflineDataset(rng.standard_normal((7, 3)), rng.standard_normal(7))
    p = tmp_path / "rt.csv"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.z, ds.z)


def test_standardize_hand_case():
    ds = OfflineDataset(np.array([[0.0], [2.0]]), np.array([0.0, 2.0]))
    std, scaler = standardize(ds)
    assert np.allclose(std.X, [[-1.0], [1.0]])
    assert scaler.mean[0] == 1.0 and scaler.std[0] == 1.0  # population std


def test_standardize_idempotent_on_normalized():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((200, 3))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    z = rng.standard_normal(200)
    z = (z - z.mean()) / z.std()
    std, scaler = standardize(OfflineDataset(X, z))
    assert np.allclose(std.X, X, atol=1e-10)
    assert np.allclose(scaler.mean, 0.0, atol=1e-10)
    assert np.allclose(scaler.std, 1.0, atol=1e-10)


def test_standardize_constant_column():
    ds = OfflineDataset(np.array([[1.0, 5.0], [2.0, 5.0]]), np.array([0.0, 1.0]))
    std, scaler = standardize(ds)
    assert np.allclose(std.X[:, 1], 0.0)
    assert scaler.std[1] == 1.0


def test_standardize_inverse_round_trip():
    rng = np.random.default_rng(3)
    ds = OfflineDataset(10 * rng.standard_normal((50, 4)) + 3, rng.standard_normal(50) * 7)
    std, scaler = standardize(ds)
    back = scaler.inverse(std)
    assert np.allclose(back.X, ds.X, rtol=1e-10, atol=1e-10)
    assert np.allclose(back.z, ds.z, rtol=1e-10, atol=1e-10)


def test_standardize_needs_two_rows():
    with pytest.raises(DataError, match="need at least 2 rows to standardize, got 1"):
        standardize(OfflineDataset(np.zeros((1, 2)), np.zeros(1)))


def test_bottom_fraction_full():
    ds = OfflineDataset(np.arange(8).reshape(4, 2).astype(float), np.array([3.0, 1.0, 2.0, 0.0]))
    sub = select_bottom_fraction(ds, 1.0)
    assert sub.n == 4
    assert np.array_equal(sub.z, ds.z)  # original order preserved


def test_bottom_fraction_sort_oracle():
    ds = OfflineDataset(np.arange(4)[:, None].astype(float), np.array([5.0, 1.0, 3.0, 2.0]))
    sub = select_bottom_fraction(ds, 0.5)
    assert set(sub.z.tolist()) == {1.0, 2.0}


def test_bottom_fraction_minimum_two():
    ds = OfflineDataset(np.arange(10)[:, None].astype(float), np.arange(10, dtype=float))
    sub = select_bottom_fraction(ds, 0.01)
    assert sub.n == 2


def test_bottom_fraction_invalid():
    ds = OfflineDataset(np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(DataError, match=r"frac must be in \(0, 1\], got 0.0"):
        select_bottom_fraction(ds, 0.0)


def test_bottom_fraction_partition():
    rng = np.random.default_rng(4)
    ds = OfflineDataset(rng.standard_normal((100, 2)), rng.standard_normal(100))
    sub = select_bottom_fraction(ds, 0.2)
    excluded = sorted(set(ds.z.tolist()) - set(sub.z.tolist()))
    assert sub.z.max() <= min(excluded)


def test_normalized_score_endpoints_and_midpoint():
    assert normalized_score(0.0, 0.0, 4.0) == 0.0
    assert normalized_score(4.0, 0.0, 4.0) == 1.0
    assert normalized_score(2.0, 0.0, 4.0) == 0.5
    assert normalized_score(8.0, 0.0, 4.0) == 2.0  # deliberately unclipped


def test_normalized_score_degenerate():
    with pytest.raises(DataError, match="y_max=2.0 <= y_min=2.0"):
        normalized_score(1.0, 2.0, 2.0)


def test_write_score_csv(tmp_path):
    p = tmp_path / "scores.csv"
    write_score_csv(p, [{
        "method": "ga", "benchmark": "sphere", "seed": 0,
        "percentile100": 0.5, "best_raw": -1.0, "runtime_s": 0.0,
    }])
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "method,benchmark,seed,percentile100,best_raw,runtime_s"
    assert lines[1].startswith("ga,sphere,0,0.5,")
