"""Offline black-box optimization from small datasets.

Pipeline: generate GP-derived synthetic tasks from the offline data, meta-train
a gradient-matching surrogate across them, fine-tune on the real data, then
recover optimized designs by gradient search on the surrogate. A benchmark
harness with analytic oracles, internal baselines, and ablation diagnostics
lives in :mod:`optbias.bench`; the CLI in :mod:`optbias.cli`.
"""

import ctypes
import os

# glibc heap policy: keep the surrogate's freed 0.5-2 MiB buffers on the heap, not unmapped
# and faulted back in zero-filled (M_MMAP_THRESHOLD, -3: 64 MiB; M_TRIM_THRESHOLD, -1: 256 MiB).
if os.name == "posix" and (_mallopt := getattr(ctypes.CDLL(None), "mallopt", None)):
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 64 << 20), _mallopt(-1, 256 << 20)

__version__ = "0.1.0"
