#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's median and
quartile spread (IQR / median, from ``statistics.quantiles(n=4)``) next to
its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload crawl_polite --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="range a-b, inclusive")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    a, b = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(a, b + 1):
        t0 = time.time()
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = out.stdout.strip().splitlines()
        env, last = json.loads(lines[-2])["env"], json.loads(lines[-1])
        print(f"seed {seed}: exit {out.returncode} correct {last['correct']} "
              f"failed {last['failed']} in {time.time() - t0:.1f} s "
              f"steal {env['steal_s']:.1f} s "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()),
              flush=True)
        for k, v in last["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{k:28s} median {med:12.4f}  spread {spread:7.4f}  bound {bounds.get(k)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
