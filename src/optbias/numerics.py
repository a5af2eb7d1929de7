"""Dense linear algebra and seeded randomness used by the GP and training code.

Everything is float64. Covariance matrices built from near-duplicate offline
points are routinely near-singular, so the Cholesky factorization escalates a
diagonal jitter geometrically (x10 from 1e-10 up to 1e-4) before giving up.

Randomness goes through :class:`RngState`, a thin wrapper over numpy's PCG64
seeded via ``SeedSequence`` so that streams can be split deterministically per
task (same seed => bitwise-identical draws, any platform).
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import NumericalError

log = logging.getLogger(__name__)

JITTER_START = 1e-10
JITTER_MAX = 1e-4
JITTER_FACTOR = 10.0


def cholesky_factor(a: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Lower-triangular L with L @ L.T = a + jitter*I.

    If the factorization fails, jitter escalates geometrically from
    JITTER_START to JITTER_MAX; failure at JITTER_MAX raises
    NumericalError.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError(f"expected square matrix, got shape {a.shape}")
    n = a.shape[0]
    eye = np.eye(n)
    current = float(jitter)
    while True:
        try:
            return np.linalg.cholesky(a + current * eye)
        except np.linalg.LinAlgError:
            nxt = JITTER_START if current == 0.0 else current * JITTER_FACTOR
            if nxt > JITTER_MAX:
                raise NumericalError(
                    f"Cholesky failed at max jitter {JITTER_MAX:g} (n={n})"
                ) from None
            log.debug("cholesky jitter escalated to %g", nxt)
            current = nxt


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L @ L.T) x = b by forward then back substitution."""
    L = np.asarray(L, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise NumericalError(f"L must be square, got {L.shape}")
    if b.shape[0] != L.shape[0]:
        raise NumericalError(f"row mismatch: L is {L.shape}, b is {b.shape}")
    from scipy.linalg import solve_triangular

    y = solve_triangular(L, b, lower=True)
    return solve_triangular(L.T, y, lower=False)


class RngState:
    """Deterministic, splittable random stream, passed explicitly to every
    stochastic operation; nothing draws from global state. A child depends
    only on (root seed, index), so ``r.split(i).split(j)`` draws what
    ``RngState(r.seed).split(j)`` draws: Sim4Opt task i shares stage stream i.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, index: int) -> "RngState":
        """Child stream from the root seed and `index` alone, not this stream's state."""
        child = np.random.SeedSequence(self.seed, spawn_key=(int(index),))
        return RngState(self.seed, _seq=child)

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        if lo > hi:
            raise NumericalError(f"lo={lo} > hi={hi}")
        if lo == hi:
            return lo if size is None else np.full(size, lo)
        out = self._gen.uniform(lo, hi, size=size)
        return float(out) if size is None else out

    def normal(self, size=None):
        out = self._gen.standard_normal(size=size)
        return float(out) if size is None else out

    def integers(self, n: int, size=None):
        """Uniform integers in [0, n)."""
        return self._gen.integers(0, n, size=size)

    def choice(self, n: int, k: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=replace)
