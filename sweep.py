#!/usr/bin/env python
"""Three-scale oracle sweep: run EVERY oracled query in the registry against
its DuckDB oracle at sf0.001, sf0.01 and sf0.1 with strict order-insensitive
value equality (stricter than the driver's hash — dtypes included). This is
the repo-resident version of the /tmp sweep scripts the round logs cite
(BASELINE.md "three-scale oracle sweep" rows); one command reproduces the
evidence:

    python sweep.py                  # all three scales, all oracled queries
    python sweep.py --sf sf0.01      # one scale
    python sweep.py --only minhash_  # name-prefix filter

Prints one line per (scale, query) failure, a running tally, and a final
JSON summary line. Exit code 0 iff every check passed."""

from __future__ import annotations

import argparse
import json
import sys
import time

import pandas as pd

SCALES = ["sf0.001", "sf0.01", "sf0.1"]
ROOT = "/root/testdata"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", action="append", help="scale dir name(s), default all three")
    ap.add_argument("--only", default="", help="run only queries whose name starts with this")
    ap.add_argument("--num-cpus", type=int, default=16)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ptt_spider_go_ray.oracle.duck import canon, duck_result, to_pandas
    from ptt_spider_go_ray.registry import oracle_sql, queries

    fns, oracles = queries(), oracle_sql()
    names = sorted(n for n in oracles if n.startswith(args.only))
    scales = args.sf or SCALES

    t0 = time.time()
    passed = failed = 0
    fails: list[str] = []
    for sf in scales:
        sf_dir = f"{ROOT}/{sf}"
        for name in names:
            try:
                mine = canon(to_pandas(fns[name](sf_dir)))
                want = canon(duck_result(oracles[name], sf_dir))
                pd.testing.assert_frame_equal(mine, want, check_dtype=True)
                passed += 1
            except Exception as e:  # noqa: BLE001 — report and continue
                failed += 1
                fails.append(f"{sf}/{name}")
                print(f"FAIL {sf} {name}: {str(e)[:200]}", file=sys.stderr)
        print(f"# {sf}: tally {passed} pass / {failed} fail "
              f"({time.time() - t0:.0f}s)", file=sys.stderr)

    print(json.dumps({
        "metric": "three_scale_oracle_sweep",
        "checks": passed + failed,
        "passed": passed,
        "failed": failed,
        "fails": fails,
        "queries": len(names),
        "scales": scales,
        "wall_s": round(time.time() - t0, 1),
        "num_cpus": args.num_cpus,
    }))
    ray.shutdown()
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
