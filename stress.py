#!/usr/bin/env python
"""Capstone crawl stress, repo-resident (the /tmp capstone scripts the round
logs cite, reproducible in one command). Shape: a 3-board synthetic frontier
(9,000 index pages x 5 articles + media), zero-latency task-mode fetch,
bounded per-shard frontier heaps with exact disk spill, interval
checkpoints, worker-side parquet sinks — the production memory contract.

    python stress.py                     # full run, one JSON line
    python stress.py --relaxed --depth 2 # pipelined rounds
    python stress.py --verify-resume     # full run, then kill-at-round-N +
                                         # resume; asserts cumulative totals
                                         # equal the uninterrupted run's

Per-round driver RSS is sampled via the progress callback; the JSON line
carries urls/s, RSS envelope, dup/cuckoo counters, and 1-min load average.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import time


SPEC_BOARDS = {"Beauty": 3000, "Joke": 3000, "Tech": 3000}
ARTICLES_PER_PAGE = 5


def build_cfg(tmp: str, **over):
    from ptt_spider_go_ray.config import Config

    c = Config()
    cc = c.crawler
    cc.frontier_shards = 8
    cc.batch_urls = 2048
    cc.fetch_batch_size = 64
    cc.parser_count = 8
    cc.frontier_max_mem_rows = 512       # force the exact disk spill path
    cc.spill_dir = f"{tmp}/spill"
    cc.checkpoint_dir = f"{tmp}/ck"
    cc.checkpoint_every = 5
    for k, v in over.items():
        setattr(cc, k, v)
    return c


def rss_mb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024


def load_1m() -> float:
    return round(os.getloadavg()[0], 2)


def run(tmp: str, *, relaxed: bool, depth: int, max_rounds=None,
        resume: bool = False):
    from ptt_spider_go_ray.pipelines.crawl import run_crawl
    from ptt_spider_go_ray.sources.synthetic import SiteSpec, mock_transport_factory

    spec = SiteSpec(boards=dict(SPEC_BOARDS), articles_per_page=ARTICLES_PER_PAGE)
    factory = functools.partial(mock_transport_factory, spec)
    rss_samples: list[int] = []

    def progress(p: dict) -> None:
        rss_samples.append(rss_mb())

    t0 = time.monotonic()
    res = run_crawl(
        build_cfg(tmp),
        transport_factory=factory,
        board=",".join(SPEC_BOARDS),
        pages=max(SPEC_BOARDS.values()),
        push_threshold=0,
        out_dir=f"{tmp}/out",
        fetch_media=True,
        max_rounds=max_rounds,
        resume=resume,
        progress=progress,
        relaxed_ordering=relaxed,
        pipeline_depth=depth,
    )
    wall = time.monotonic() - t0
    return res, {
        "dispatched": res.dispatched,
        "rounds": res.rounds,
        "finished": res.finished,
        "wall_s": round(wall, 1),
        "setup_s": round(res.setup_seconds, 2),
        "loop_s": round(res.loop_seconds, 2),
        "urls_per_sec": round(res.dispatched / wall, 0) if wall else None,
        "cuckoo_fps": res.metrics.get("cuckoo_false_positives", 0),
        "fetch_errors": res.metrics.get("fetch_errors", 0),
        "rss_mb_first": rss_samples[0] if rss_samples else None,
        "rss_mb_last": rss_samples[-1] if rss_samples else None,
        "rss_mb_max": max(rss_samples) if rss_samples else None,
    }


def count_docs(tmp: str) -> int:
    import glob

    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(p).metadata.num_rows
        for p in glob.glob(f"{tmp}/out/docs/**/*.parquet", recursive=True)
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--relaxed", action="store_true")
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--num-cpus", type=int, default=32)
    ap.add_argument("--tmp", default="/tmp/ptt_stress")
    ap.add_argument("--kill-at", type=int, default=20,
                    help="round to kill at in --verify-resume mode")
    ap.add_argument("--verify-resume", action="store_true",
                    help="run full, then kill+resume in a fresh dir and "
                         "assert cumulative totals match")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False)  # one-JSON-line stdout contract
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    shutil.rmtree(args.tmp, ignore_errors=True)
    load0 = load_1m()
    _res, full = run(args.tmp, relaxed=args.relaxed, depth=args.depth)
    full["docs_written"] = count_docs(args.tmp)
    out = {"metric": "capstone crawl stress (3 boards x 3000 pages x 5 "
                     "articles + media; spill + interval checkpoints + "
                     "worker-side sinks; task-mode fetch, zero latency)",
           "relaxed": args.relaxed, "depth": args.depth,
           "num_cpus": args.num_cpus, "load_1m": {"start": load0,
                                                  "end": load_1m()},
           "full": full}

    if args.verify_resume:
        tmp2 = args.tmp + "_kr"
        shutil.rmtree(tmp2, ignore_errors=True)
        t0 = time.monotonic()
        _p, part = run(tmp2, relaxed=args.relaxed, depth=args.depth,
                       max_rounds=args.kill_at)
        _r, rest = run(tmp2, relaxed=args.relaxed, depth=args.depth,
                       resume=True)
        # the checkpoint restores the dispatch counter, so the resumed run's
        # `dispatched` IS the cumulative total (no double count)
        cum = rest["dispatched"]
        docs2 = count_docs(tmp2)
        ok = (cum == full["dispatched"]) and (docs2 == full["docs_written"])
        out["kill_resume"] = {
            "killed_at_round": args.kill_at,
            "partial_dispatched": part["dispatched"],
            "cumulative_after_resume": cum,
            "docs_written": docs2,
            "equals_uninterrupted": ok,
            "wall_s": round(time.monotonic() - t0, 1),
            "resume_setup_s": rest["setup_s"],
        }
        if not ok:
            print(json.dumps(out))
            raise AssertionError(
                f"kill/resume mismatch: cum={cum} vs {full['dispatched']}, "
                f"docs={docs2} vs {full['docs_written']}"
            )

    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
