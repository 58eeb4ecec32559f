"""Correctness checks run after every repetition, outside its timed region.

- deterministic crawls: dispatch ledger, final seen set, document set and
  each document's media sequence (and the fetched media) equal the
  plain-Python ``oracle_crawl`` replay for the seed;
- paced crawls (politeness on, so dispatch order depends on timing): the
  seen set and the document set equal the oracle's, minus URLs robots.txt
  disallows, and the request times the wrapped transport recorded show no
  per-host politeness ceiling violation.
"""

from __future__ import annotations

import bisect
import json
import time

from ptt_spider_go_ray.functions.parse import canonicalize_url, url_host
from ptt_spider_go_ray.oracle.crawl_oracle import oracle_crawl
from ptt_spider_go_ray.pipelines import crawl as crawl_mod
from ptt_spider_go_ray.sources.synthetic import SyntheticSite
from ptt_spider_go_ray.state.frontier import shards_for_host
from ptt_spider_go_ray.state.robots import RobotsRules

from perfbench.inputs import robots_path, site_spec


def oracle(w: dict, size: dict, seed: int, pages: int, push_threshold: int,
           path: str) -> None:
    """Writes the oracle replay for (workload, size, seed) to ``path`` as
    JSON, read back with :func:`load`."""
    spec = site_spec(w, size, seed)
    want = oracle_crawl(
        SyntheticSite(spec), ",".join(w["boards"]), pages, push_threshold=push_threshold,
        batch_urls=w["batch_urls"], fetch_media=w["fetch_media"],
    )
    rules = RobotsRules([(p, False) for p in w["robots_disallow"]])
    out = {
        "ledger": [list(e) for e in want["ledger"]],
        "seen": [u for u in want["seen"] if rules.allowed(robots_path(u))],
        "docs": {d: v["media_refs"] for d, v in want["docs"].items()},
        "media": sorted(u for u in want["media_fetched"] if rules.allowed(robots_path(u))),
    }
    with open(path, "w") as f:
        json.dump(out, f)


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def verify(w: dict, want: dict, res, ledger: list, docs) -> dict[str, bool]:
    """Checks by name → passed. ``ledger`` is the dispatch ledger (read back
    from the checkpoint when the run keeps none in memory); ``docs`` holds
    the full document rows (spans included)."""
    checks = {"seen": res.seen_set == want["seen"]}
    got_docs = {r["doc_id"]: r for r in docs.to_pylist()} if docs is not None else {}
    checks["docs"] = set(got_docs) == set(want["docs"])
    if w["deterministic"]:
        checks["ledger"] = [list(e) for e in ledger] == want["ledger"]
        media_ok = checks["docs"]
        if media_ok:
            for doc_id, refs in want["docs"].items():
                got = [s["media_ref"] for s in got_docs[doc_id]["spans"]
                       if s["kind"] == "media"]
                if got != refs:
                    media_ok = False
                    break
        checks["media_sequence"] = media_ok
        if w["fetch_media"]:
            got_media = sorted(res.media["url"].to_pylist()) if res.media is not None else []
            checks["media_fetched"] = got_media == want["media"]
    return checks


class TakeClock:
    """Records (start, end) of every global take that dispatched rows, by
    wrapping ``pipelines.crawl._take_global`` while the context is open."""

    def __init__(self):
        self.rounds: list[tuple[float, float]] = []

    def __enter__(self):
        self._orig = inner = crawl_mod._take_global

        def timed_take(shards, n, n_shards):
            t0 = time.time()
            out = inner(shards, n, n_shards)
            if out.num_rows:
                self.rounds.append((t0, time.time()))
            return out

        crawl_mod._take_global = timed_take
        return self

    def __exit__(self, *exc):
        crawl_mod._take_global = self._orig
        return False


def ceiling_violations(w: dict, stamps: list[tuple[float, str]],
                       takes: list[tuple[float, float]]) -> int:
    """Replays one aggregate token bucket per host over the driver's take
    rounds and counts rounds whose requests to a host exceed the tokens the
    engine could have granted.

    Every request of round k is made after take k starts and before take k+1
    starts (strict rounds), so requests are assigned to rounds by time. The
    host's shards each hold a bucket of rate r/n and capacity
    max(1, burst_s·r/n); their sum is bounded by one bucket of rate r and the
    summed capacity, which starts full. Refill between rounds is bounded by
    the time from the start of the previous take to the end of this one."""
    rate = w["politeness_rate"]
    n_shards = w["frontier_shards"]
    if rate <= 0 or not takes:
        return 0
    starts = [a for a, _ in takes]
    counts: dict[str, list[int]] = {}
    for t, url in stamps:
        if url.endswith("/robots.txt") or t < starts[0]:
            continue
        k = bisect.bisect_right(starts, t) - 1
        host = url_host(canonicalize_url(url))
        counts.setdefault(host, [0] * len(takes))[k] += 1
    bad = 0
    for host, per_round in counts.items():
        n_own = len(shards_for_host(host, n_shards))
        cap = n_own * max(1.0, w["politeness_burst_s"] * rate / n_own)
        tokens = None
        prev_start = None
        for k, c in enumerate(per_round):
            if tokens is None:
                if c == 0:
                    continue
                tokens = cap
            else:
                tokens = min(cap, tokens + rate * (takes[k][1] - prev_start))
            if c > tokens + 1e-6:
                bad += 1
            tokens -= c
            prev_start = takes[k][0]
    return bad
