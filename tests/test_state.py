"""Unit tests: cuckoo filter, retry semantics (crawler/retry_test.go matrix),
politeness buckets, robots gating, frontier shard behavior. No Ray."""

import numpy as np
import pytest

from ptt_spider_go_ray.state.cuckoo import CuckooFilter, hash64
from ptt_spider_go_ray.state.frontier import (
    FrontierShard,
    child_seq,
    frontier_row,
    shard_for,
)
from ptt_spider_go_ray.state.politeness import HostPoliteness
from ptt_spider_go_ray.state.robots import RobotsCache, RobotsRules
from ptt_spider_go_ray.stages.fetch import (
    MockTransport,
    TransportError,
    calc_retry_delay_s,
    fetch_with_retry,
)
from ptt_spider_go_ray.sources.synthetic import SiteSpec, SyntheticSite


# --- cuckoo ----------------------------------------------------------------

def test_cuckoo_basic_membership():
    f = CuckooFilter(capacity=4096, seed=1)
    hs = [hash64(f"url{i}") for i in range(1000)]
    for h in hs:
        assert f.add_hash(h)
    assert all(f.contains_hash(h) for h in hs)
    absent = [hash64(f"other{i}") for i in range(1000)]
    fp = sum(f.contains_hash(h) for h in absent)
    assert fp <= 2  # 16-bit fingerprints → ~0.001% FP rate


def test_cuckoo_batch_add_first_wins():
    f = CuckooFilter(capacity=1024)
    hs = np.array([hash64("a"), hash64("b"), hash64("a"), hash64("c")], dtype=np.uint64)
    mask = f.add_new_hashes(hs)
    assert mask.tolist() == [True, True, False, True]
    assert f.add_new_hashes(hs).tolist() == [False, False, False, False]


def test_cuckoo_serialization_roundtrip():
    f = CuckooFilter(capacity=2048, seed=7)
    hs = [hash64(f"u{i}") for i in range(500)]
    for h in hs:
        f.add_hash(h)
    g = CuckooFilter.from_bytes(f.to_bytes())
    assert g.count == f.count
    assert all(g.contains_hash(h) for h in hs)
    assert g.add_new_hashes(np.array(hs[:10], dtype=np.uint64)).sum() == 0


def test_cuckoo_saturation_detected():
    f = CuckooFilter(capacity=64)
    with pytest.raises(RuntimeError):
        f.add_new_hashes(np.array([hash64(f"x{i}") for i in range(500)], dtype=np.uint64))


# --- retry (crawler/retry_test.go matrix) ----------------------------------

class ScriptedTransport:
    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def __call__(self, url):
        self.calls += 1
        item = self.script.pop(0)
        if item == "err":
            raise TransportError("network down")
        status, headers, body = item
        return status, headers, body


def test_retry_immediate_success():
    t = ScriptedTransport([(200, {}, b"ok")])
    status, body, attempts, err = fetch_with_retry(t, "u", sleep=lambda s: None)
    assert (status, body, attempts, err) == (200, b"ok", 1, "")


def test_retry_429_then_ok():
    sleeps = []
    t = ScriptedTransport([(429, {}, b""), (200, {}, b"ok")])
    status, body, attempts, err = fetch_with_retry(t, "u", sleep=sleeps.append)
    assert status == 200 and attempts == 2 and body == b"ok"
    assert sleeps == [1.0]  # 1s initial backoff


def test_retry_exhausted():
    t = ScriptedTransport([(429, {}, b"")] * 3)
    status, body, attempts, err = fetch_with_retry(t, "u", sleep=lambda s: None)
    assert status == 429 and attempts == 3 and "429" in err
    assert t.calls == 3


def test_retry_non_429_not_retried():
    t = ScriptedTransport([(500, {}, b"boom")])
    status, _, attempts, err = fetch_with_retry(t, "u", sleep=lambda s: None)
    assert status == 500 and attempts == 1 and err == ""


def test_retry_transport_error_not_retried():
    t = ScriptedTransport(["err"])
    status, _, attempts, err = fetch_with_retry(t, "u", sleep=lambda s: None)
    assert status == -1 and attempts == 1 and "network down" in err


def test_retry_after_seconds_and_cap():
    assert calc_retry_delay_s({"Retry-After": "5"}, 1) == 5.0
    assert calc_retry_delay_s({"Retry-After": "120"}, 1) == 30.0  # cap
    # exponential: 1s, 2s, 4s...
    assert calc_retry_delay_s({}, 1) == 1.0
    assert calc_retry_delay_s({}, 2) == 2.0
    assert calc_retry_delay_s({}, 3) == 4.0
    assert calc_retry_delay_s({}, 10) == 30.0  # cap


def test_retry_after_http_date_past_uses_initial():
    assert calc_retry_delay_s({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, 1) == 1.0


# --- politeness ------------------------------------------------------------

def test_politeness_budget():
    clock = [0.0]
    hp = HostPoliteness(rate=2.0, burst=2.0, clock=lambda: clock[0])
    assert hp.allow("h", 5) == 2  # burst
    assert hp.allow("h", 1) == 0
    clock[0] += 1.0  # 1s → 2 tokens refill
    assert hp.allow("h", 5) == 2
    # independent host
    assert hp.allow("h2", 1) == 1


def test_politeness_from_delay_range():
    hp = HostPoliteness.from_delay_range(500, 2000, workers=10, clock=lambda: 0.0)
    assert hp.rate == pytest.approx(8.0)  # reference ceiling ≈8 req/s


def test_politeness_cooldown_429_feedback():
    clock = [0.0]
    hp = HostPoliteness(rate=100.0, clock=lambda: clock[0])
    assert hp.allow("h1", 1) == 1
    hp.cooldown("h1", 5.0)
    assert hp.allow("h1", 3) == 0        # blocked regardless of tokens
    assert hp.allow("h2", 1) == 1        # other hosts unaffected
    hp.cooldown("h1", 1.0)               # shorter cooldown never shrinks it
    clock[0] += 4.9
    assert hp.allow("h1", 1) == 0
    clock[0] += 0.2
    assert hp.allow("h1", 1) == 1        # lapsed

    # applies even with rate limiting disabled (a 429'ing host must back off)
    hp0 = HostPoliteness(rate=0.0, clock=lambda: clock[0])
    hp0.cooldown("h", 2.0)
    assert hp0.allow("h", 5) == 0
    clock[0] += 2.1
    assert hp0.allow("h", 5) == 5


def test_politeness_disabled():
    hp = HostPoliteness(rate=0.0)
    assert hp.allow("h", 100) == 100


# --- robots ----------------------------------------------------------------

def test_robots_rules():
    r = RobotsRules.parse("User-agent: *\nDisallow: /private\nAllow: /private/ok\n")
    assert r.allowed("/public/x")
    assert not r.allowed("/private/x")
    assert r.allowed("/private/ok/y")  # longest match wins


def test_robots_wildcards_rfc9309():
    # '*' matches any sequence; trailing '$' anchors end-of-path (§2.2.3)
    r = RobotsRules.parse("User-agent: *\nDisallow: /*.pdf$\n")
    assert not r.allowed("/a/b/file.pdf")
    assert r.allowed("/a/b/file.pdfx")  # $ anchors: no match past the suffix
    assert r.allowed("/a/b/file.pd")
    r2 = RobotsRules.parse("User-agent: *\nDisallow: /private*/data\n")
    assert not r2.allowed("/private123/data/x")
    assert r2.allowed("/private123/info")
    # regex metacharacters in rule paths stay literal
    r3 = RobotsRules.parse("User-agent: *\nDisallow: /a+b(c)\n")
    assert not r3.allowed("/a+b(c)/x")
    assert r3.allowed("/aab(c)/x")


def test_robots_cache_fetch_failure_allows():
    cache = RobotsCache(lambda url: (_ for _ in ()).throw(RuntimeError("no net")))
    assert cache.allowed("https://h.example.com/x")


def test_robots_cache_via_site():
    site = SyntheticSite(SiteSpec(robots_disallow=["/bbs/Secret"]))
    t = MockTransport(site)
    cache = RobotsCache(lambda url: t(url)[0:3:2])
    assert not cache.allowed("https://www.ptt.cc/bbs/Secret/index1.html")
    assert cache.allowed("https://www.ptt.cc/bbs/Beauty/index1.html")
    # cached: only one robots fetch
    assert t.hits.get("https://www.ptt.cc/robots.txt") == 1


# --- frontier shard --------------------------------------------------------

def _row(url, prio, seq, kind="article"):
    return frontier_row(url, kind, prio, seq, depth=1)


def test_shard_priority_order_and_dedup():
    s = FrontierShard(0, seen_capacity=4096)
    rows = [
        _row("https://www.ptt.cc/bbs/B/a1.html", 1, 10),
        _row("https://www.ptt.cc/bbs/B/index5.html", 0, 99, "index"),
        _row("https://www.ptt.cc/bbs/B/a1.html", 1, 11),  # dup URL
        _row("https://i.imgur.com/x.jpg", 2, 1, "media"),
    ]
    assert s.offer(rows) == 3
    taken = s.take(10)
    assert [(r["priority"], r["seq"]) for r in taken] == [(0, 99), (1, 10), (2, 1)]
    assert s.get_metrics()["duplicates"] == 1
    assert s.get_metrics()["false_positives"] == 0


def test_shard_push_back_no_dedup():
    s = FrontierShard(0)
    r = _row("https://www.ptt.cc/bbs/B/a1.html", 1, 10)
    s.offer([r])
    taken = s.take(10)
    s.push_back(taken)
    assert s.size() == 1
    assert s.take(10) == taken


def test_shard_checkpoint_restore_roundtrip():
    s = FrontierShard(3, seen_capacity=4096)
    rows = [_row(f"https://www.ptt.cc/bbs/B/a{i}.html", 1, i) for i in range(50)]
    s.offer(rows)
    s.take(10)
    state = s.checkpoint_state(epoch=2)
    # checkpoints carry the seen-set DELTA; the caller unions across epochs
    delta = state["seen_delta"]
    assert sorted(delta) == s.seen_set()
    # delta is cleared after checkpointing → next epoch's write is O(round)
    state2 = s.checkpoint_state(epoch=3)
    assert state2["seen_delta"] == []
    s2 = FrontierShard(3, seen_capacity=4096)
    s2.restore_state(state, delta)
    assert s2.size() == 40
    assert s2.seen_set() == s.seen_set()
    # previously-seen URLs stay deduped after restore
    assert s2.offer(rows) == 0
    # remaining order preserved
    assert [r["seq"] for r in s2.take(40)] == list(range(10, 50))


def test_shard_spill_preserves_exact_order(tmp_path):
    """Bounded-memory shard with disk spill must produce the identical
    take-sequence as an unbounded shard under interleaved offers/takes."""
    import random

    rng = random.Random(42)
    bounded = FrontierShard(0, seen_capacity=1 << 14, max_mem_rows=16,
                            spill_dir=str(tmp_path))
    plain = FrontierShard(0, seen_capacity=1 << 14)
    seq_pool = list(range(2000))
    rng.shuffle(seq_pool)
    taken_b, taken_p = [], []
    i = 0
    while i < len(seq_pool) or bounded.size():
        if i < len(seq_pool) and (rng.random() < 0.6 or not bounded.size()):
            chunk = seq_pool[i : i + rng.randint(1, 120)]
            i += len(chunk)
            rows = [
                _row(f"https://www.ptt.cc/bbs/B/a{s}.html", s % 3, s) for s in chunk
            ]
            assert bounded.offer(rows) == len(rows)
            assert plain.offer(list(rows)) == len(rows)
        else:
            n = rng.randint(1, 50)
            taken_b.extend((r["priority"], r["seq"]) for r in bounded.take(n))
            taken_p.extend((r["priority"], r["seq"]) for r in plain.take(n))
    assert taken_b == taken_p
    assert len(taken_b) == 2000
    assert bounded.get_metrics().get("spilled", 0) > 0  # spill actually happened
    assert bounded.size() == 0


def test_shard_spill_checkpoint_includes_spilled_rows(tmp_path):
    s = FrontierShard(1, seen_capacity=1 << 14, max_mem_rows=8,
                      spill_dir=str(tmp_path))
    rows = [_row(f"https://www.ptt.cc/bbs/B/a{i}.html", 1, i) for i in range(100)]
    s.offer(rows)
    assert s.size() == 100
    state = s.checkpoint_state(epoch=1)
    s2 = FrontierShard(1, seen_capacity=1 << 14, max_mem_rows=8,
                       spill_dir=str(tmp_path / "restore"))
    s2.restore_state(state, state["seen_delta"])
    assert s2.size() == 100
    assert [r["seq"] for r in s2.take(100)] == list(range(100))


def test_shard_checkpoint_holds_in_flight_rows(tmp_path):
    """Rows handed to a round still in flight when a checkpoint is written
    are snapshotted as pending and not as taken (once: the next snapshot
    no longer holds them), and a shard restored from that snapshot hands
    them out again first; the live shard is unchanged."""
    import json

    s = FrontierShard(1, seen_capacity=1 << 14, max_mem_rows=8,
                      spill_dir=str(tmp_path))
    s.offer([_row(f"https://www.ptt.cc/bbs/B/a{i}.html", 1, i) for i in range(30)])
    first = s.take(5)
    s.push_back(first[3:])
    in_flight = first[:3]
    s.hold_for_checkpoint(in_flight)
    state = s.checkpoint_state(epoch=2)
    assert [r["seq"] for r in state["heap"]] == list(range(30))
    m = json.loads(state["metrics"])
    assert (m["taken"], m["pushed_back"]) == (2, 2)  # taken - pushed_back = 0
    assert s.size() == 27 and s.get_metrics()["taken"] == 5
    assert len(s.checkpoint_state(epoch=3)["heap"]) == 27

    s2 = FrontierShard(1, seen_capacity=1 << 14, max_mem_rows=8,
                       spill_dir=str(tmp_path / "restore"))
    s2.restore_state(state, state["seen_delta"])
    assert s2.take(3) == in_flight


def test_shard_routing_consistent_and_spread():
    n = 8
    rows = [_row(f"https://www.ptt.cc/bbs/Gossiping/a{i}.html", 1, i) for i in range(200)]
    shards = {shard_for(r, n) for r in rows}
    assert len(shards) > 1, "hot board must be salted across shards"
    for r in rows:
        assert shard_for(r, n) == shard_for(r, n)


def test_child_seq_encoding():
    assert child_seq(5, 3) == (5 << 12) | 3
    with pytest.raises(ValueError):
        child_seq(1, 5000)


def test_shard_politeness_defers_beyond_budget():
    clock = [0.0]
    s = FrontierShard(0, politeness_rate=2.0, clock=lambda: clock[0])
    rows = [_row(f"https://www.ptt.cc/bbs/B/a{i}.html", 1, i) for i in range(6)]
    s.offer(rows)
    first = s.take(10)
    assert [r["seq"] for r in first] == [0, 1]   # burst = rate = 2 tokens
    assert s.size() == 4                          # rest deferred, still queued
    clock[0] += 1.0                               # +1 s → 2 more tokens
    second = s.take(10)
    assert [r["seq"] for r in second] == [2, 3]   # (priority, seq) order kept


def test_shard_cuckoo_fp_vetoed_by_exact_set():
    s = FrontierShard(0, seen_capacity=1 << 16, exact_seen=True)
    r1 = _row("https://www.ptt.cc/bbs/B/real1.html", 1, 1)
    s.offer([r1])
    # craft a guaranteed cuckoo false positive: same 16-bit fingerprint and
    # same bucket index (bits 16..29 for 2^14 buckets), different high bits
    r2 = _row("https://www.ptt.cc/bbs/B/other2.html", 1, 2)
    r2["url_hash"] = r1["url_hash"] ^ (1 << 40)
    accepted = s.offer([r2])
    m = s.get_metrics()
    assert m["false_positives"] == 1
    assert accepted == 1          # vetoed by exact set → still enqueued
    assert s.size() == 2


def test_robots_rfc_group_precedence():
    text = (
        "User-agent: mybot\nAllow: /x\n"
        "User-agent: *\nDisallow: /x\nDisallow: /y\n"
    )
    specific = RobotsRules.parse(text, agent="MyBot/1.0")
    assert specific.allowed("/x/anything")   # only the mybot group applies
    assert specific.allowed("/y")            # '*' group does NOT apply
    star = RobotsRules.parse(text, agent="otherbot")
    assert not star.allowed("/x/anything")
    assert not star.allowed("/y")
    # equal-length Allow/Disallow tie → Allow wins (RFC 9309)
    tie = RobotsRules.parse("User-agent: *\nDisallow: /p\nAllow: /p\n")
    assert tie.allowed("/p/q")


def test_push_back_refunds_politeness_tokens():
    """Leftover rows from a global merge return their take() tokens — the
    next take() can dispatch them immediately instead of waiting a refill."""
    clock = [0.0]
    s = FrontierShard(0, politeness_rate=2.0, clock=lambda: clock[0])
    rows = [
        frontier_row(f"https://www.ptt.cc/bbs/B/M.{i}.html", "article", 1, i, 1)
        for i in range(4)
    ]
    s.offer(rows)
    # burst = max(1, rate) = 2 → take(4) grants 2, defers 2
    got = s.take(4)
    assert len(got) == 2
    # push both back: tokens refunded, so an immediate take (no time passes)
    # grants 2 again; without the refund it would grant 0
    s.push_back(got)
    again = s.take(4)
    assert len(again) == 2
    assert [r["seq"] for r in again] == [0, 1]


def test_politeness_split_by_actual_owning_shards():
    """The salted (host|salt) hashes can collide mod n_shards, so a host may
    be owned by fewer than SALT_K shards. The per-shard budget must divide
    the host's FULL rate by the ACTUAL owning count — the aggregate across
    owning shards equals the configured ceiling exactly."""
    from ptt_spider_go_ray.state.frontier import FrontierShard, shards_for_host

    host, n_shards, full = "www.ptt.cc", 4, 8.0
    owning = shards_for_host(host, n_shards)
    assert 1 <= len(owning) <= 4
    t = [0.0]
    shards = [
        FrontierShard(i, politeness_rate=full, politeness_n_shards=n_shards,
                      clock=lambda: t[0])
        for i in sorted(owning)
    ]
    rates = [s.politeness.rate_for(host) for s in shards]
    assert all(abs(r - full / len(owning)) < 1e-12 for r in rates)
    assert abs(sum(rates) - full) < 1e-12


# --- robots Crawl-delay → politeness feedback --------------------------------

def test_robots_crawl_delay_parse():
    text = (
        "User-agent: mybot\nCrawl-delay: 2.5\nDisallow: /x\n"
        "User-agent: *\nCrawl-delay: 10\n"
    )
    assert RobotsRules.parse(text, agent="MyBot/1.0").crawl_delay == 2.5
    assert RobotsRules.parse(text, agent="other").crawl_delay == 10.0
    # invalid / non-positive values are ignored; absent → None
    assert RobotsRules.parse("User-agent: *\nCrawl-delay: soon\n").crawl_delay is None
    assert RobotsRules.parse("User-agent: *\nCrawl-delay: -1\n").crawl_delay is None
    assert RobotsRules.parse("User-agent: *\nDisallow: /x\n").crawl_delay is None


def test_set_host_rate_only_tightens():
    clock = [0.0]
    hp = HostPoliteness(rate=8.0, rate_for=lambda h: 8.0, burst_s=1.0,
                        clock=lambda: clock[0])
    hp.set_host_rate("slow.example", 0.5)   # tighten: applies
    hp.set_host_rate("slow.example", 50.0)  # loosen: ignored
    assert hp.allow("slow.example", 8) == 1  # cap max(1, 0.5*1s) = 1 token
    clock[0] += 2.0
    assert hp.allow("slow.example", 8) == 1  # refills at 0.5/s
    # untouched host keeps the configured rate
    assert hp.allow("fast.example", 8) == 8


def test_frontier_shard_honors_crawl_delay():
    """A robots.txt Crawl-delay tightens the owning shard's token bucket at
    offer time: take() defers rows beyond 1/delay even though the configured
    politeness rate would allow them."""
    clock = [0.0]
    s = FrontierShard(0, politeness_rate=100.0, politeness_n_shards=1,
                      clock=lambda: clock[0])
    # robots cache pre-seeded (the factory path is exercised in the e2e
    # tests); Crawl-delay: 2 → 0.5 req/s for this single owning shard
    s._robots_factory = lambda: None
    s._robots = RobotsCache(
        lambda u: (200, b"User-agent: *\nCrawl-delay: 2\n")
    )
    rows = [
        frontier_row(f"https://www.ptt.cc/bbs/B/M.{i}.html", "article", 1, i, 1)
        for i in range(6)
    ]
    s.offer(rows)
    assert s.get_metrics()["accepted"] == 6
    assert len(s.take(6)) == 1        # burst = max(1, 0.5·2s) = 1
    clock[0] += 2.0
    assert len(s.take(6)) == 1        # refill 0.5/s → one more after 2 s
    # without the delay the configured rate would have granted everything:
    s2 = FrontierShard(1, politeness_rate=100.0, politeness_n_shards=1,
                       clock=lambda: clock[0])
    rows2 = [
        frontier_row(f"https://www.ptt.cc/bbs/B/M.{i}.html", "article", 1, i, 1)
        for i in range(6)
    ]
    s2.offer(rows2)
    assert len(s2.take(6)) == 6


def test_robots_cache_crawl_delay_via_site():
    site = SyntheticSite(SiteSpec(robots_disallow=["/bbs/Secret"],
                                  robots_crawl_delay=3.0))
    t = MockTransport(site)
    cache = RobotsCache(lambda url: t(url)[0:3:2])
    assert cache.crawl_delay("www.ptt.cc") == 3.0
    assert not cache.allowed("https://www.ptt.cc/bbs/Secret/index1.html")
    assert t.hits.get("https://www.ptt.cc/robots.txt") == 1  # still one fetch
