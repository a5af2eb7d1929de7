"""Candidate initialization and fixed-step gradient ascent on the surrogate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import surrogate as sg
from .dataio import OfflineDataset, write_csv
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
    """Independent fixed-step ascent per candidate on grad_x g_phi, folded once.

    A candidate whose step goes non-finite is frozen at its last finite state
    and flagged rather than aborting the batch. `bounds` is a (d, 2) array of
    per-dimension intervals; when given, finite steps are clamped to it.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    X = c.designs.copy()
    flagged = np.zeros(X.shape[0], dtype=bool)
    folded = sg._fold(net, net.params)
    for _ in range(steps):
        rows = np.flatnonzero(~flagged)
        if rows.size == 0:
            break
        nxt = X[rows] + gamma * sg.input_grad_batch(net, X[rows], folded=folded)
        ok = np.isfinite(nxt).all(axis=1)
        flagged[rows[~ok]] = True
        nxt = nxt[ok]
        X[rows[ok]] = nxt if bounds is None else np.clip(nxt, bounds[:, 0], bounds[:, 1])
    return CandidateSet(X, c.provenance.copy(), flagged)


def write_designs_csv(path, c: CandidateSet, steps_taken: int, names=None) -> None:
    """Designs CSV: dataset schema columns plus provenance,steps_taken,flagged."""
    cols = list(names) if names else [f"x{i}" for i in range(c.designs.shape[1])]
    flagged = c.flagged if c.flagged is not None else np.zeros(len(c.provenance), dtype=bool)
    write_csv(path, cols + ["provenance", "steps_taken", "flagged"],
              ([*x, int(p), steps_taken, int(f)]
               for x, p, f in zip(c.designs, c.provenance, flagged)))
