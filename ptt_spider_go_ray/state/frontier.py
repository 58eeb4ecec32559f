"""Partitioned priority URL frontier held in stateful actor shards
(north rule). Each shard owns:

- a priority heap ordered by ``(priority, seq)`` — priority lanes
  index(0) > article(1) > media(2), seq a deterministic lineage-encoded
  sequence number (SURVEY §2.6 O2: the reference's dataflow IS the priority
  queue; here it is explicit and reproducible);
- a cuckoo-filter URL-seen segment keyed by canonicalized URL hash
  (D2 at scale; crawler/crawler.go:562-585 idempotency analog);
- per-host politeness budget for its URL slice (T3; the host's global
  budget is split across the salt shards that own the host, SURVEY §7.5.2);
- lineage + metrics counters, checkpointable to Parquet (north rule).

Routing: ``shard_for(url)`` = hash(host | salt) where salt =
url_hash % salt_k — every URL maps to exactly one shard (seen-set
correctness) while a hot host/board is spread over ``salt_k`` shards (skew
handling: salted repartition of hot boards).

Shards are plain Python objects wrapped in ``ray.remote`` by the pipeline —
keeping the class testable without Ray. Shards hold and exchange plain rows
(dicts in ``FRONTIER_SCHEMA`` field order) and never touch Arrow: the driver
merges takes and encodes checkpoints, so a fresh shard actor pays neither
pyarrow's pandas import nor Ray's Arrow serializer (only robots gating
loads pyarrow, through the fetch stage it imports).
"""

from __future__ import annotations

import heapq
import json

from ..functions.parse import canonicalize_url, url_host
from .cuckoo import CuckooFilter, hash64
from .politeness import HostPoliteness

# Frontier row tuple layout kept in the heap (matches FRONTIER_SCHEMA order).
FIELDS = (
    "url", "url_hash", "host", "board", "kind", "priority", "seq", "depth",
    "title", "author", "push_rate", "meta",
)
SEQ_BITS_PER_LEVEL = 12  # child_seq = parent_seq << 12 | child_idx
SALT_K = 4  # salt shards per host (skew spread; politeness budget divisor)


def child_seq(parent_seq: int, idx: int) -> int:
    if idx >= (1 << SEQ_BITS_PER_LEVEL):
        raise ValueError(f"child index {idx} exceeds seq encoding width")
    return (parent_seq << SEQ_BITS_PER_LEVEL) | idx


def frontier_row(url: str, kind: str, priority: int, seq: int, depth: int,
                 board: str = "", title: str = "", author: str = "",
                 push_rate: int = 0, meta: str = "") -> dict:
    canon = canonicalize_url(url)
    return {
        "url": url,
        "url_hash": hash64(canon),
        "host": url_host(canon),
        "board": board,
        "kind": kind,
        "priority": priority,
        "seq": seq,
        "depth": depth,
        "title": title,
        "author": author,
        "push_rate": push_rate,
        "meta": meta,
    }


def shard_for(row: dict, n_shards: int, salt_k: int = SALT_K) -> int:
    salt = row["url_hash"] % salt_k
    return hash64(f"{row['host']}|{salt}") % n_shards


def shards_for_host(host: str, n_shards: int, salt_k: int = SALT_K) -> set[int]:
    """All shard ids a host's URLs can land on (one per salt) — the set to
    notify for host-wide state changes like 429 cooldowns."""
    return {hash64(f"{host}|{salt}") % n_shards for salt in range(salt_k)}


class FrontierShard:
    """Single shard; wrap with ray.remote(FrontierShard) for the actor form.

    ``max_mem_rows`` bounds the in-memory heap: beyond it, the LARGEST
    (priority, seq) half is spilled to sorted on-disk segments
    (``spill_dir``) and merged back exactly when the ordering needs them —
    an external priority queue, so a 10^10-URL frontier never outgrows
    actor memory while ``take`` still pops the global smallest key.
    Default (0) keeps everything in memory."""

    def __init__(self, shard_id: int, seen_capacity: int = 1 << 16,
                 politeness_rate: float = 0.0, politeness_burst_s: float = 2.0,
                 politeness_n_shards: int = 0,
                 exact_seen: bool = True,
                 clock=None, max_mem_rows: int = 0, spill_dir: str = "",
                 robots_factory=None):
        self.shard_id = shard_id
        self.heap: list[tuple] = []  # (priority, seq, row_dict)
        # robots gating lives IN the shard (offers reach it unread by the
        # driver, so a driver cache could not gate them): ``robots_factory`` is a
        # picklable zero-arg transport factory; the cache is built lazily so
        # a robots-off shard pays nothing. A host's URLs land on ≤ SALT_K
        # shards, so the whole crawl fetches each host's robots.txt ≤ SALT_K
        # times (vs once with the old driver cache — the scalable trade).
        self._robots_factory = robots_factory
        self._robots = None
        # robots Crawl-delay → politeness feedback: applied once per host at
        # offer time (the robots rules are already cached there); needs the
        # full configured rate + shard split to compute this shard's share
        self._politeness_rate = politeness_rate
        self._politeness_n_shards = politeness_n_shards
        self._delay_hosts: set[str] = set()
        # a drained round's candidates buffer here (offer_buffered) and are
        # applied in deterministic (priority, seq) order (commit_offers) —
        # first-wins dedup then matches the plain-Python oracle's
        # sorted-offer rule regardless of slice order
        self._offer_buf: list[dict] = []
        # rows of a round still in flight at the next checkpoint
        # (hold_for_checkpoint); snapshotted as pending, then dropped
        self._held: list[dict] = []
        self.max_mem_rows = max_mem_rows
        self.spill_dir = spill_dir
        # spill segments: (min_key, path, n_rows), each file a sorted row list
        self.segments: list[tuple] = []
        self._seg_counter = 0
        self.filter = CuckooFilter(capacity=seen_capacity, seed=shard_id)
        # Per-host budget split: a host's URLs land on the shards in
        # shards_for_host() — the SALT_K (host|salt) hashes can collide mod
        # n_shards, so the ACTUAL owning-shard count may be < SALT_K.
        # Dividing the host's full rate by that count (not by SALT_K) keeps
        # the aggregate exactly at the configured ceiling. Bucket capacity =
        # politeness_burst_s SECONDS of rate so the driver round barrier
        # (~1-2 s) does not discard accrued budget (the reference's
        # sleep-per-worker model has effective burst = workers ≈ 1.25 s of
        # rate — from_delay_range precedent). Long-run rate is unchanged.
        if politeness_rate > 0 and politeness_n_shards > 0:
            full, ns = politeness_rate, politeness_n_shards

            def _rate_for(host: str) -> float:
                return full / len(shards_for_host(host, ns))

            kwargs = {"rate": politeness_rate, "rate_for": _rate_for,
                      "burst_s": politeness_burst_s}
        else:
            # direct-rate form (unit tests, standalone shards): legacy
            # burst = max(1, rate); the burst_s smoothing applies only to
            # the production rate_for path above
            kwargs = {"rate": politeness_rate}
        if clock is not None:
            kwargs["clock"] = clock
        self.politeness = HostPoliteness(**kwargs)
        # exact side-set: lineage record + cuckoo FP detector at test scale.
        # At 10^10-frontier scale disable (exact_seen=False) — the cuckoo
        # filter alone is the seen set.
        self.exact_seen = exact_seen
        self.seen_urls: set[str] | None = set() if exact_seen else None
        # URLs first seen since the last checkpoint — checkpoints embed only
        # this delta (reconstructible by unioning all epochs on restore), so
        # per-epoch checkpoint cost is O(round), not O(total crawl)
        self.seen_delta: set[str] | None = set() if exact_seen else None
        self.metrics = {
            "offered": 0, "accepted": 0, "duplicates": 0, "taken": 0,
            "pushed_back": 0, "false_positives": 0, "robots_denied": 0,
        }

    def _robots_allowed(self, url: str) -> bool:
        if self._robots_factory is None:
            return True
        if self._robots is None:
            from ..stages.fetch import fetch_with_retry
            from .robots import RobotsCache

            transport = self._robots_factory()
            self._robots = RobotsCache(
                lambda u: fetch_with_retry(transport, u, sleep=lambda _s: None)[0:2]
            )
        return self._robots.allowed(url)

    def _apply_crawl_delay(self, host: str) -> None:
        """Honor robots.txt ``Crawl-delay`` for ``host``: clamp this shard's
        token-bucket rate to (1/delay) / owning-shard-count. Once per host;
        only ever tightens (set_host_rate ignores looser values); inert when
        politeness is disabled."""
        if not host or host in self._delay_hosts or self._robots is None:
            return
        self._delay_hosts.add(host)
        if self._politeness_rate <= 0:
            return
        delay = self._robots.crawl_delay(host)
        if not delay or delay <= 0:
            return
        n_own = (
            len(shards_for_host(host, self._politeness_n_shards))
            if self._politeness_n_shards > 0
            else 1
        )
        self.politeness.set_host_rate(host, (1.0 / delay) / n_own)

    # -- spill (external priority queue) ------------------------------------

    def _maybe_spill(self) -> None:
        if not self.max_mem_rows or len(self.heap) <= self.max_mem_rows:
            return
        import os
        import pickle

        buf = sorted(self.heap, key=lambda e: (e[0], e[1]))
        keep = max(1, self.max_mem_rows // 2)
        self.heap = buf[:keep]
        heapq.heapify(self.heap)
        rest = buf[keep:]
        os.makedirs(self.spill_dir or ".", exist_ok=True)
        path = f"{self.spill_dir or '.'}/shard{self.shard_id}_seg{self._seg_counter}.pkl"
        self._seg_counter += 1
        with open(path, "wb") as f:
            pickle.dump(rest, f)
        self.segments.append(((rest[0][0], rest[0][1]), path, len(rest)))
        self.metrics["spilled"] = self.metrics.get("spilled", 0) + len(rest)

    def _maybe_unspill(self) -> None:
        """Merge back any segment whose head key precedes the in-memory heap
        top (or any segment, if the heap is empty) — take() then always pops
        the true global minimum."""
        import os
        import pickle

        while self.segments:
            head = (self.heap[0][0], self.heap[0][1]) if self.heap else None
            best_i = min(range(len(self.segments)), key=lambda i: self.segments[i][0])
            if head is not None and self.segments[best_i][0] >= head:
                return
            _, path, _ = self.segments.pop(best_i)
            with open(path, "rb") as f:
                rows = pickle.load(f)
            os.remove(path)
            for item in rows:
                heapq.heappush(self.heap, item)
            self.metrics["unspilled"] = self.metrics.get("unspilled", 0) + len(rows)
            self._maybe_spill()  # re-bound if the merge overflowed memory

    def _all_rows_sorted(self, extra: list[dict] | tuple = ()) -> list[tuple]:
        """Heap + all spilled rows + ``extra`` rows in (priority, seq) order
        (checkpointing)."""
        import pickle

        rows = list(self.heap) + [(r["priority"], r["seq"], r) for r in extra]
        for _, path, _ in self.segments:
            with open(path, "rb") as f:
                rows.extend(pickle.load(f))
        return sorted(rows, key=lambda e: (e[0], e[1]))

    # -- offer / take -------------------------------------------------------

    def offer_buffered(self, *chunks: list[dict]) -> int:
        """Stage row chunks for the next ``commit_offers``: at a round's
        drain the crawl driver passes each shard its candidate chunk from
        every slice task of the round. Cheap append; dedup/robots/enqueue
        happen at commit so chunk order cannot affect the outcome."""
        for rows in chunks:
            self._offer_buf.extend(rows)
        return sum(map(len, chunks))

    def commit_offers(self) -> int:
        """Apply all buffered rows in (priority, seq) order. Per-shard
        sorting is equivalent to the oracle's global sorted-offer rule
        because a URL canonicalizes to exactly one shard — its first-wins
        winner is decided entirely here."""
        rows = sorted(self._offer_buf, key=lambda r: (r["priority"], r["seq"]))
        self._offer_buf = []
        return self.offer(rows)

    def offer(self, rows: list[dict]) -> int:
        """Robots-gate, dedup against the seen set, and enqueue new URLs.
        Returns accepted count. First-wins within the batch (D2)."""
        accepted = 0
        self.metrics["offered"] += len(rows)
        if self._robots_factory is not None:
            kept = []
            for row in rows:
                if self._robots_allowed(row["url"]):
                    kept.append(row)
                    self._apply_crawl_delay(row.get("host", ""))
                else:
                    self.metrics["robots_denied"] += 1
            rows = kept
        for row in rows:
            h = row["url_hash"]
            if self.filter.contains_hash(h):
                canon = canonicalize_url(row["url"])
                if self.seen_urls is not None and canon not in self.seen_urls:
                    # cuckoo false positive VETOED by the exact side-set: the
                    # URL is genuinely new — count it and enqueue anyway
                    # (with exact_seen off, FPs drop the URL: the accepted
                    # approximate-membership trade-off at 10^10 scale)
                    self.metrics["false_positives"] += 1
                    self.seen_urls.add(canon)
                    self.seen_delta.add(canon)
                    heapq.heappush(self.heap, (row["priority"], row["seq"], row))
                    accepted += 1
                    continue
                self.metrics["duplicates"] += 1
                continue
            if not self.filter.add_hash(h):
                raise RuntimeError(
                    f"shard {self.shard_id}: cuckoo filter saturated "
                    f"({self.filter.count} items); raise seen_capacity"
                )
            if self.seen_urls is not None:
                canon = canonicalize_url(row["url"])
                self.seen_urls.add(canon)
                self.seen_delta.add(canon)
            heapq.heappush(self.heap, (row["priority"], row["seq"], row))
            accepted += 1
        self.metrics["accepted"] += accepted
        self._maybe_spill()
        return accepted

    def push_back(self, rows: list[dict]) -> None:
        """Re-enqueue rows the driver pulled but did not dispatch (global
        merge leftovers). No seen-set check — they are already seen. The
        politeness tokens their take() consumed are refunded: the requests
        were never made."""
        for row in rows:
            heapq.heappush(self.heap, (row["priority"], row["seq"], row))
            self.politeness.refund(row["host"], 1)
        self.metrics["pushed_back"] += len(rows)
        self._maybe_spill()

    def take(self, n: int) -> list[dict]:
        """Pop up to n rows in (priority, seq) order, respecting this shard's
        per-host politeness budget (rows beyond a host's budget stay queued).

        Politeness-stalemate bound: when a spill bound is set, at most
        ``max(n, max_mem_rows)`` rows are DEFERRED per call. Without it, a
        fully rate-limited/cooled host (the normal single-host crawl after a
        429 cooldown) would defer every popped row, the head=None branch of
        ``_maybe_unspill`` would merge every disk segment back, and one
        take() would materialize the entire spilled frontier in ``deferred``
        — O(frontier) actor memory plus full segment rewrite churn. Capping
        deferrals (not total rows examined) means admissible hosts behind
        many deferred rows still dispatch; the residual case — a cooled
        host with > cap rows at the (priority, seq) head shadowing a
        fetchable host on disk behind them — idles only until the cooldown
        lapses, the more-polite direction."""
        out: list[dict] = []
        deferred: list[tuple] = []
        defer_cap = max(n, self.max_mem_rows) if self.max_mem_rows else None
        while len(out) < n:
            if defer_cap is not None and len(deferred) >= defer_cap:
                break
            self._maybe_unspill()
            if not self.heap:
                break
            prio, seq, row = heapq.heappop(self.heap)
            if self.politeness.allow(row["host"], 1) < 1:
                deferred.append((prio, seq, row))
                continue
            out.append(row)
        for item in deferred:
            heapq.heappush(self.heap, item)
        self._maybe_spill()
        self.metrics["taken"] += len(out)
        return out

    def size(self) -> int:
        return len(self.heap) + sum(n for _, _, n in self.segments)

    def cooldown(self, host: str, seconds: float) -> None:
        """Server-driven backoff feedback (a fetch exhausted its 429
        retries): queue rows for ``host`` stay deferred until the cooldown
        lapses."""
        self.politeness.cooldown(host, seconds)
        self.metrics["cooldowns"] = self.metrics.get("cooldowns", 0) + 1

    def seen_set(self) -> list[str]:
        if self.seen_urls is None:
            raise RuntimeError("exact seen tracking disabled on this shard")
        return sorted(self.seen_urls)

    def get_metrics(self) -> dict:
        return dict(self.metrics)

    # -- checkpoint (north rule: head + filter segment + lineage/metrics) ---

    def hold_for_checkpoint(self, rows: list[dict]) -> None:
        """Rows this shard handed to a round that is still in flight when
        the next checkpoint is written. That ``checkpoint_state`` snapshots
        them as pending, not as taken, so a resume from it dispatches them
        again; the live heap and counters are unchanged. The snapshot's
        ``taken`` drops by the held rows only, so ``taken - pushed_back``
        still counts the rows dispatched by checkpointed rounds."""
        self._held.extend(rows)

    def checkpoint_state(self, epoch: int) -> dict:
        """Snapshot for the per-epoch checkpoint; ``heap`` is every pending
        row (spilled and held ones included) in (priority, seq) order, which
        the caller encodes. The exact seen set is embedded as the DELTA since
        the previous checkpoint (cleared here), so a restore unions the
        deltas of all epochs — per-epoch cost stays O(round). Call at most
        once per epoch (delta- and hold-clearing side effect)."""
        delta = sorted(self.seen_delta) if self.seen_delta is not None else None
        if self.seen_delta is not None:
            self.seen_delta = set()
        held, self._held = self._held, []
        return {
            "shard_id": self.shard_id,
            "epoch": epoch,
            "heap": [row for _, _, row in self._all_rows_sorted(held)],
            "filter": self.filter.to_bytes(),
            "next_seq": 0,
            "metrics": json.dumps({**self.metrics,
                                   "taken": self.metrics["taken"] - len(held)}),
            # written to its own per-epoch file by the caller (so superseded
            # full snapshots can be deleted while deltas accumulate)
            "seen_delta": delta,
        }

    def restore_state(self, state: dict, seen_union: list[str] | None = None) -> None:
        """Restore from the LATEST epoch's snapshot (``heap`` as rows, as
        ``checkpoint_state`` returns it); ``seen_union`` is the union of all
        epochs' seen-URL deltas (computed by the caller from the checkpoint
        files)."""
        self.filter = CuckooFilter.from_bytes(state["filter"])
        self.heap = [(row["priority"], row["seq"], row) for row in state["heap"]]
        heapq.heapify(self.heap)
        self._maybe_spill()
        # merge over current defaults: a checkpoint written by an older
        # version may lack newer counters (e.g. robots_denied) and a bare
        # replacement would KeyError on the first increment after resume
        self.metrics = {**self.metrics, **json.loads(state["metrics"])}
        if seen_union is not None and self.seen_urls is not None:
            self.seen_urls = set(seen_union)
            self.seen_delta = set()
