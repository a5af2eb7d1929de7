"""Offline dataset model: CSV persistence, standardization, low-value subset
selection, normalized scoring, and the sealed f64 files that hold task bundles
and checkpoints.

CSV schema: header ``x0,x1,...,x{d-1},y``, UTF-8, '.' decimal, one design per
row. Standardization uses the population (not sample) standard deviation;
zero-variance columns map to std = 1 so the transform stays invertible.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DataError, NumericalError


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
        try:
            return _read_csv(fh)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_csv(fh) -> OfflineDataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("file is empty") from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[-1] != "y":
        raise DataError(f"expected header x0,...,y; got {header}")
    d = len(header) - 1
    rows = []
    for rownum, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != d + 1:
            raise DataError(f"row {rownum}: expected {d + 1} fields, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise DataError(f"row {rownum}: {exc}") from None
        for col, v in enumerate(vals):
            if not np.isfinite(v):
                raise DataError(f"row {rownum}, column {header[col]}: non-finite value")
        rows.append(vals)
    if not rows:
        raise DataError("header-only file")
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
        raise DataError(f"need at least 2 rows to standardize, got {ds.n}")
    std = ds.X.std(axis=0)
    z_std = float(ds.z.std())
    scaler = Scaler(ds.X.mean(axis=0), np.where(std > 0.0, std, 1.0),
                    float(ds.z.mean()), z_std if z_std > 0.0 else 1.0)
    return scaler.transform(ds), scaler


def select_bottom_fraction(ds: OfflineDataset, frac: float) -> OfflineDataset:
    """The ceil(frac*n) rows with smallest z (minimum 2), stable in original order."""
    if not (0.0 < frac <= 1.0):
        raise DataError(f"frac must be in (0, 1], got {frac}")
    k = min(max(2, int(np.ceil(frac * ds.n))), ds.n)
    order = np.argsort(ds.z, kind="stable")[:k]
    keep = np.sort(order)
    return OfflineDataset(ds.X[keep], ds.z[keep], ds.names)


def normalized_score(y: float, y_min: float, y_max: float) -> float:
    """(y - y_min) / (y_max - y_min); deliberately not clipped to [0, 1]."""
    if y_max <= y_min:
        raise DataError(f"y_max={y_max} <= y_min={y_min}")
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


_LEAD = struct.Struct("<4sBI")  # magic, version, header length
_DIGEST_BYTES = 32


def write_sealed(path, magic: bytes, version: int, header: dict, arrays) -> None:
    """Write ``magic``, a version byte, the header length as a little-endian uint32,
    ``header`` as sorted-key JSON, the little-endian f64 bytes of ``arrays`` end to
    end, and last the 32-byte sha256 of every byte before it. Each array is written
    and hashed where it lies."""
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in chain([_LEAD.pack(magic, version, len(head)), head],
                           (memoryview(np.ascontiguousarray(a, "<f8")).cast("B") for a in arrays)):
            digest.update(piece)
            fh.write(piece)
        fh.write(digest.digest())


def read_sealed(path, magic: bytes, version: int, kind: str,
                retired: tuple[bytes, str]) -> tuple[dict, np.ndarray]:
    """The JSON header and the f64 payload (one array) of a file from write_sealed.
    The payload's length comes from the file's size; it is read into the array and
    hashed as it fills, and the digest is checked before the header is parsed. An
    older format (a file that starts with ``retired[0]``, reported as ``retired[1]``)
    or version raises NumericalError; any other fault, DataError."""
    with open(path, "rb") as fh:
        lead = fh.read(_LEAD.size)
        if lead.startswith(retired[0]):
            raise NumericalError(f"{path}: {retired[1]}")
        if lead[:4] != magic:
            raise DataError(f"{path}: not a {kind}")
        if len(lead) < _LEAD.size:
            raise DataError(f"{path}: {kind} truncated in its header")
        _, found, hlen = _LEAD.unpack(lead)
        if found != version:
            raise NumericalError(f"{path}: unsupported {kind} version {found}")
        body = os.fstat(fh.fileno()).st_size - _DIGEST_BYTES
        head = fh.read(max(min(hlen, body - _LEAD.size), 0))
        values = np.empty(max(body - _LEAD.size - hlen, 0) // 8, "<f8")
        digest = hashlib.sha256(lead + head)
        raw = memoryview(values).cast("B")
        for lo in range(0, len(raw), 1 << 20):
            fh.readinto(block := raw[lo : lo + (1 << 20)])
            digest.update(block)
        rest = fh.read(max(body - fh.tell(), 0))  # payload bytes past the last whole f64
        digest.update(rest)
        if fh.read() != digest.digest():
            raise DataError(f"{path}: {kind} checksum mismatch")
    if rest or _LEAD.size + hlen > body:
        raise DataError(f"{path}: {kind}: {body + _DIGEST_BYTES} bytes do not hold a "
                        f"{hlen}-byte header and whole f64 values")
    try:
        return json.loads(head), values
    except ValueError as exc:
        raise DataError(f"{path}: unreadable {kind} header ({exc!r})") from None
