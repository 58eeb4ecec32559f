"""Inputs generated from the seed: the synthetic site, the number of index
pages to crawl and the politeness rate, and the transports the crawl
fetches through."""

from __future__ import annotations

import glob
import os
import time
from urllib.parse import urlparse

from ptt_spider_go_ray.functions.parse import (
    PTT_BASE_URL,
    canonicalize_url,
    parse_article_spans,
    parse_board_html,
    unique_stable,
)
from ptt_spider_go_ray.sources.synthetic import SiteSpec, SyntheticSite, mock_transport_factory
from ptt_spider_go_ray.state.frontier import frontier_row, shard_for, shards_for_host
from ptt_spider_go_ray.state.robots import RobotsRules


def site_spec(w: dict, size: dict, seed: int) -> SiteSpec:
    return SiteSpec(
        boards={b: size["board_pages"] for b in w["boards"]},
        articles_per_page=w["articles_per_page"],
        seed=seed,
        robots_disallow=list(w["robots_disallow"]),
    )


def robots_path(url: str) -> str:
    """The path robots.txt rules match, derived as the engine's robots
    cache derives it."""
    return urlparse(url).path or "/"


def plan(w: dict, size: dict, seed: int, push_threshold: int) -> tuple[dict, int]:
    """The seed's crawl: the workload with its ``politeness_rate`` set, and
    the index pages per board.

    The page count is the fewest index pages per board whose crawl holds
    ``size["target_urls"]`` URLs of the kinds in ``w["target_kinds"]``. The
    share of listed articles a crawl keeps varies with the seed; a fixed page
    count would make the work, and every time measured on it, depend on the
    seed.

    The rate is ``w["politeness_rate"]``, or, for a size with
    ``target_polite_s``, the per-host rate whose politeness lower bound is
    that many seconds. The bound is the longest time any (host, shard) token
    bucket needs to release its URLs beyond the burst (each owning shard
    holds 1/n of the host's rate); how a host's URLs fall on the shards
    varies with the seed, so a fixed rate would make the paced crawl's time
    depend on it."""
    site = SyntheticSite(site_spec(w, size, seed))
    rules = RobotsRules([(p, False) for p in w["robots_disallow"]])
    kinds = set(w["target_kinds"])
    n_shards = w["frontier_shards"]
    seen: set[str] = set()
    per_bucket: dict[tuple[str, int], int] = {}
    total = 0

    def add(url: str, kind: str) -> None:
        nonlocal total
        canon = canonicalize_url(url)
        if canon in seen or not rules.allowed(robots_path(url)):
            return
        seen.add(canon)
        total += kind in kinds
        row = frontier_row(url, kind, 0, 0, 0)
        key = (row["host"], shard_for(row, n_shards))
        per_bucket[key] = per_bucket.get(key, 0) + 1

    def polite_bound_s(rate: float) -> float:
        worst = 0.0
        for (host, _), n in per_bucket.items():
            r = rate / len(shards_for_host(host, n_shards))
            worst = max(worst, (n - max(1.0, w["politeness_burst_s"] * r)) / r)
        return worst

    def rate_for(target_s: float) -> float:
        # the bound falls as the rate rises: bisect on a log scale
        lo, hi = 1e-2, 1e5
        for _ in range(100):
            mid = (lo * hi) ** 0.5
            lo, hi = (mid, hi) if polite_bound_s(mid) > target_s else (lo, mid)
        return hi

    for p in range(1, size["board_pages"] + 1):
        for board in w["boards"]:
            index = f"{PTT_BASE_URL}/bbs/{board}/index{size['board_pages'] - p + 1}.html"
            add(index, "index")
            for art in parse_board_html(site.html_for(index)[1].decode()):
                if art["push_rate"] < push_threshold:
                    continue
                add(art["url"], "article")
                if not w["fetch_media"]:
                    continue
                _, spans = parse_article_spans(site.html_for(art["url"])[1].decode())
                for ref in unique_stable([s["media_ref"] for s in spans
                                          if s["kind"] == "media"]):
                    add(ref, "media")
        if total >= size["target_urls"]:
            rate = (rate_for(size["target_polite_s"]) if "target_polite_s" in size
                    else w["politeness_rate"])
            return {**w, "politeness_rate": rate}, p
    raise ValueError(f"{size['board_pages']} pages per board fall short of the "
                     f"target in {size}")


class StampedTransport:
    """MockTransport wrapper that appends ``<time.time()> <url>`` per
    request to a per-process file under ``stamp_dir``."""

    def __init__(self, inner, stamp_dir: str):
        self.inner = inner
        os.makedirs(stamp_dir, exist_ok=True)
        path = os.path.join(stamp_dir, f"{os.getpid()}-{id(self)}.txt")
        # line-buffered; open for the life of the worker process that owns it
        self.f = open(path, "a", buffering=1)  # noqa: SIM115

    def __call__(self, url: str):
        self.f.write(f"{time.time():.6f} {url}\n")
        return self.inner(url)


def stamped_transport_factory(spec: SiteSpec, latency_s: float, stamp_dir: str):
    return StampedTransport(mock_transport_factory(spec, latency_s), stamp_dir)


def read_stamps(stamp_dir: str) -> list[tuple[float, str]]:
    out = []
    for p in glob.glob(os.path.join(stamp_dir, "*.txt")):
        with open(p) as f:
            for line in f:
                t, _, url = line.rstrip("\n").partition(" ")
                out.append((float(t), url))
    return sorted(out)
