"""Candidate initialization and fixed-step gradient ascent on the surrogate."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import surrogate as sg
from .dataio import OfflineDataset
from .errors import DataError
from .numerics import RngState


@dataclass(frozen=True)
class CandidateSet:
    designs: np.ndarray  # k x d, standardized units
    provenance: np.ndarray  # index into the offline pool
    flagged: np.ndarray | None = None  # True where ascent diverged and was frozen


def init_candidates(
    net, pool: OfflineDataset, rng: RngState, top_k: int = 256, n_out: int = 128
) -> CandidateSet:
    """Score the pool with the surrogate, keep the top_k by predicted value
    (ties by index), then sample n_out uniformly without replacement."""
    if pool.n == 0:
        raise DataError("candidate pool is empty")
    if pool.n <= n_out:
        idx = np.arange(pool.n)
        return CandidateSet(pool.X.copy(), idx)
    pred, _ = sg.forward(net, pool.X)
    top_k = min(top_k, pool.n)
    # stable descending sort: negate values, ties broken by original index
    top = np.argsort(-pred, kind="stable")[:top_k]
    chosen = top[np.sort(rng.choice(top_k, n_out))]
    return CandidateSet(pool.X[chosen].copy(), chosen)


def gradient_search(
    net,
    c: CandidateSet,
    gamma: float = 0.001,
    steps: int = 300,
    bounds: np.ndarray | None = None,
) -> CandidateSet:
    """Independent fixed-step ascent per candidate on grad_x g_phi.

    `bounds` is a (d, 2) array of per-dimension intervals; when given, designs
    are clamped after every step. A candidate that goes non-finite is frozen
    at its last finite state and flagged rather than aborting the batch.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    X = c.designs.copy()
    flagged = np.zeros(X.shape[0], dtype=bool)
    for _ in range(steps):
        active = ~flagged
        if not active.any():
            break
        grad = sg.input_grad_batch(net, X[active])
        nxt = X[active] + gamma * grad
        if bounds is not None:
            nxt = np.clip(nxt, bounds[:, 0], bounds[:, 1])
        bad = ~np.isfinite(nxt).all(axis=1)
        nxt[bad] = X[active][bad]
        X[active] = nxt
        if bad.any():
            idx = np.flatnonzero(active)
            flagged[idx[bad]] = True
    return CandidateSet(X, c.provenance.copy(), flagged)


def write_designs_csv(path, c: CandidateSet, steps_taken: int, names=None) -> None:
    """Designs CSV: dataset schema columns plus provenance,steps_taken,flagged."""
    d = c.designs.shape[1]
    cols = list(names) if names else [f"x{i}" for i in range(d)]
    flagged = c.flagged if c.flagged is not None else np.zeros(len(c.provenance), dtype=bool)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols + ["provenance", "steps_taken", "flagged"])
        for i in range(c.designs.shape[0]):
            writer.writerow(
                [repr(float(v)) for v in c.designs[i]]
                + [int(c.provenance[i]), steps_taken, int(flagged[i])]
            )
