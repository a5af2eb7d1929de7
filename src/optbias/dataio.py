"""Offline dataset model: CSV persistence, standardization, low-value subset
selection, and normalized scoring.

CSV schema: header ``x0,x1,...,x{d-1},y``, UTF-8, '.' decimal, one design per
row. Standardization uses the population (not sample) standard deviation;
zero-variance columns map to std = 1 so the transform stays invertible.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


class ParseError(DataError):
    pass


class EmptyDataset(DataError):
    pass


class InvalidFraction(DataError):
    pass


class DegenerateBounds(DataError):
    pass


@dataclass(frozen=True)
class OfflineDataset:
    """Design matrix X (n x d) and scalar outputs z (n,)."""

    X: np.ndarray
    z: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        z = np.asarray(self.z, dtype=np.float64).ravel()
        if X.shape[0] != z.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but z has {z.shape[0]}")
        if not (np.isfinite(X).all() and np.isfinite(z).all()):
            raise DataError("dataset contains non-finite values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Scaler:
    """Invertible per-dimension standardization for X and z."""

    mean: np.ndarray
    std: np.ndarray
    z_mean: float
    z_std: float

    def transform(self, ds: OfflineDataset) -> OfflineDataset:
        return OfflineDataset(
            (ds.X - self.mean) / self.std, (ds.z - self.z_mean) / self.z_std, ds.names
        )

    def transform_x(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std

    def inverse_x(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) * self.std + self.mean

    def inverse_z(self, z):
        return np.asarray(z, dtype=np.float64) * self.z_std + self.z_mean

    def inverse(self, ds: OfflineDataset) -> OfflineDataset:
        return OfflineDataset(self.inverse_x(ds.X), self.inverse_z(ds.z), ds.names)


def load_dataset(path) -> OfflineDataset:
    """Read a dataset CSV, rejecting NaN/Inf with row/column location."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _read_csv(fh)


def _read_csv(fh) -> OfflineDataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset("file is empty") from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[-1] != "y":
        raise ParseError(f"expected header x0,...,y; got {header}")
    d = len(header) - 1
    rows = []
    for rownum, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != d + 1:
            raise ParseError(f"row {rownum}: expected {d + 1} fields, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
        for col, v in enumerate(vals):
            if not np.isfinite(v):
                raise ParseError(f"row {rownum}, column {header[col]}: non-finite value")
        rows.append(vals)
    if not rows:
        raise EmptyDataset("header-only file")
    arr = np.array(rows, dtype=np.float64)
    return OfflineDataset(arr[:, :d], arr[:, d], tuple(header[:d]))


def save_dataset(ds: OfflineDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        names = ds.names or tuple(f"x{i}" for i in range(ds.dim))
        writer.writerow(list(names) + ["y"])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.X[i]] + [repr(float(ds.z[i]))])


def standardize(ds: OfflineDataset) -> tuple[OfflineDataset, Scaler]:
    """Zero-mean unit-variance X and z (population std; constant dims -> std 1)."""
    if ds.n < 2:
        raise EmptyDataset(f"need at least 2 rows to standardize, got {ds.n}")
    std = ds.X.std(axis=0)
    z_std = float(ds.z.std())
    scaler = Scaler(ds.X.mean(axis=0), np.where(std > 0.0, std, 1.0),
                    float(ds.z.mean()), z_std if z_std > 0.0 else 1.0)
    return scaler.transform(ds), scaler


def select_bottom_fraction(ds: OfflineDataset, frac: float) -> OfflineDataset:
    """The ceil(frac*n) rows with smallest z (minimum 2), stable in original order."""
    if not (0.0 < frac <= 1.0):
        raise InvalidFraction(f"frac must be in (0, 1], got {frac}")
    k = min(max(2, int(np.ceil(frac * ds.n))), ds.n)
    order = np.argsort(ds.z, kind="stable")[:k]
    keep = np.sort(order)
    return OfflineDataset(ds.X[keep], ds.z[keep], ds.names)


def normalized_score(y: float, y_min: float, y_max: float) -> float:
    """(y - y_min) / (y_max - y_min); deliberately not clipped to [0, 1]."""
    if y_max <= y_min:
        raise DegenerateBounds(f"y_max={y_max} <= y_min={y_min}")
    return (float(y) - y_min) / (y_max - y_min)


SCORE_FIELDS = ("method", "benchmark", "seed", "percentile100", "best_raw", "runtime_s")


def write_score_csv(path, rows: list[dict]) -> None:
    """Score report CSV: method,benchmark,seed,percentile100,best_raw,runtime_s."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(SCORE_FIELDS), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in SCORE_FIELDS})


def _fmt(v):
    return repr(float(v)) if isinstance(v, (float, np.floating)) else v


def content_hash(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()[:16]


def write_manifest(path, config: dict, seeds: list[int], inputs: dict[str, str],
                   args: dict | None = None) -> None:
    """JSON run manifest: resolved config, seeds, input content hashes, command args."""
    payload = {"config": config, "seeds": list(seeds), "input_hashes": inputs}
    if args is not None:
        payload["args"] = args
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
