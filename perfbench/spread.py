"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/spread.py --workloads optbias-cell,cli-chain --seeds 1-10 \
        [--out perfbench/runs.json]

Runs ``run.py`` once per workload and seed, one after another, and prints
for every metric its median, quartiles (``statistics.quantiles(n=4)``) and
spread, the distance between the quartiles as a share of the median, next to
the bound BENCHMARK.json gives it. ``--out`` saves every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, elapsed_s=elapsed)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct {result['correct']}, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if k in bounds or args.trace), flush=True)
        for name in runs[workload][0]["metrics"]:
            if name not in bounds and not args.trace:
                continue
            s = summarize([r["metrics"][name]["value"] for r in runs[workload]])
            print(f"  {workload} {name}: median {s['median']:.5g} "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}] spread {s['spread']} "
                  f"bound {bounds.get(name)}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
