"""Workload definitions. Every parameter a workload runs with is written
here; nothing falls back to an engine default or a command-line default.

Each workload is a closed loop: one driver process calls ``run_crawl`` and
waits for the complete result before it starts the next repetition.

``size`` maps a size name to the site size (index pages per board) and the
targets that fix how many of them the crawl takes and, for the paced crawl,
its per-host politeness rate (``inputs.plan``; ``target_kinds`` names the
URL kinds ``target_urls`` counts). ``"full"`` is what the benchmark
measures; ``"smoke"`` is the tiny size the smoke test runs.

``sessions`` lists the Ray sessions of a timed and of a traced run, each by
its logical-CPU count; a run splits its measured time evenly over them and
reports the median set-up time of its sessions. Timed figures come from the
highest count; a workload whose traced run has two counts (N and 4N)
reports ``scaling_eff`` between them.

Without politeness (``deterministic``) a crawl must match the oracle's
dispatch ledger exactly; with it, its seen and document sets.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    # Fetch latency dominates: parsing is light, so fetch-slot scheduling
    # and the round barrier decide throughput. A round of 160 URLs is 16
    # fetch tasks of 1 s each, one per slot at 4N; the crawl drains in 4
    # rounds. Runs at N and 4N logical CPUs in separate Ray sessions;
    # sleeping fetch slots need no physical core. It also writes the Parquet
    # sink, checkpoints every second round and spills the frontier, so those
    # layers are measured (and checked) on a steady workload.
    "crawl_fetch_bound": {
        "boards": ["Beauty"],
        "articles_per_page": 10,
        "fetch_media": False,
        "latency_s": 0.1,
        "deterministic": True,
        "robots": False,
        "robots_disallow": [],
        "politeness_rate": 0.0,
        "politeness_burst_s": 2.0,
        "frontier_shards": 4,
        "batch_urls": 160,
        "fetch_batch_size": 10,
        "frontier_max_mem_rows": 64,
        "checkpoint_every": 2,
        "write_output": True,
        "sessions": {"timed": [16, 16], "traced": [4, 16]},
        "target_kinds": ["index", "article"],
        "size": {"full": {"board_pages": 100, "target_urls": 480},
                 "smoke": {"board_pages": 4, "target_urls": 12}},
    },
    # Zero fetch latency: frontier take/commit, cuckoo dedup, spill, parse,
    # the Parquet sink and checkpoints carry the time. Not in BENCHMARK.json:
    # the crawl is CPU-bound, and on a 4-vCPU VM its wall time tracked
    # hypervisor steal, with ten-seed quartile spreads of 0.13 to 0.30.
    "crawl_state_bound": {
        "boards": ["Beauty", "Gossiping", "Stock"],
        "articles_per_page": 5,
        "fetch_media": True,
        "latency_s": 0.0,
        "deterministic": True,
        "robots": False,
        "robots_disallow": [],
        "politeness_rate": 0.0,
        "politeness_burst_s": 2.0,
        "frontier_shards": 8,
        "batch_urls": 512,
        "fetch_batch_size": 64,
        "frontier_max_mem_rows": 512,
        "checkpoint_every": 5,
        "write_output": True,
        "sessions": {"timed": [4], "traced": [4]},
        "target_kinds": ["index", "article", "media"],
        "size": {"full": {"board_pages": 300, "target_urls": 3400},
                 "smoke": {"board_pages": 4, "target_urls": 30}},
    },
    # Token buckets and robots.txt gate dispatch; www.ptt.cc holds the
    # board and article pages and is the hot host.
    "crawl_polite": {
        "boards": ["Beauty"],
        "articles_per_page": 6,
        "fetch_media": True,
        "latency_s": 0.01,
        "deterministic": False,
        "robots": True,
        "robots_disallow": ["/i0"],
        # the per-host rate comes from the size's target_polite_s (inputs.plan)
        "politeness_burst_s": 0.5,
        "frontier_shards": 4,
        "batch_urls": 256,
        "fetch_batch_size": 8,
        "frontier_max_mem_rows": 0,
        "checkpoint_every": 0,
        "write_output": False,
        "sessions": {"timed": [4, 4], "traced": [4]},
        "target_kinds": ["index", "article", "media"],
        "size": {"full": {"board_pages": 120, "target_urls": 330, "target_polite_s": 5.0},
                 "smoke": {"board_pages": 3, "target_urls": 20, "target_polite_s": 0.2}},
    },
}

# Shared by every workload.
COMMON = {
    "fetch_via": "tasks",
    "push_threshold": 0,
    "seen_capacity": 1 << 16,
    "max_depth": 3,
    "cooldown_429_s": 30.0,
    "exact_seen": True,
    "relaxed_ordering": False,
    "pipeline_depth": 2,
}
