"""Time the benchmark's set-up in a fresh interpreter.

Set-up is importing optbias, building the instance with make_benchmark and
standardizing its offline subset. Prints the seconds it took.

    PYTHONPATH=src python3 perfbench/setup_probe.py <oracle> <dim> <instance seed>
"""

import sys
import time

t0 = time.perf_counter()
from optbias import bench  # noqa: E402
from optbias.dataio import standardize  # noqa: E402
from optbias.numerics import RngState  # noqa: E402

oracle, dim, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
instance = bench.make_benchmark(bench.Oracle(oracle, dim), RngState(seed))
standardize(instance.offline_subset)
print(repr(time.perf_counter() - t0))
