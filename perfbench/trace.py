"""Per-layer tracing from outside the engine.

Nothing here edits engine code. A traced repetition swaps module attributes
of ``ptt_spider_go_ray.pipelines.crawl`` for timing wrappers before
``run_crawl`` and puts the originals back afterwards:

- ``FrontierShard`` → :class:`TracedShard`, a subclass timing take, commit,
  push-back and checkpoint snapshots inside each shard actor and counting
  politeness deferrals; its totals come back through
  ``CrawlResult.metrics["shards"]``;
- ``fetch_batch_task`` → :func:`traced_fetch_batch_task` (worker side);
- ``ParseStage`` → :class:`TracedParseStage` (worker side);
- ``_process_block`` → :func:`traced_process_block`, which also times
  ``sources.storage.write_partition`` in the worker that runs it;
- ``_checkpoint`` → a driver-side timer (global takes are timed for every
  run by ``check.TakeClock``);
- ``ray.data.Dataset.iter_internal_ref_bundles`` → keeps each round's
  dataset so its operator stats can be read after the crawl.

Worker-side wrappers send one span per batch to a :class:`TraceSink` actor;
the driver drains it after each repetition. Spans stay in memory and are
written out when the benchmark ends.
"""

from __future__ import annotations

import os
import time

from ptt_spider_go_ray.pipelines import crawl as crawl_mod
from ptt_spider_go_ray.sources import storage as storage_mod
from ptt_spider_go_ray.stages.fetch import fetch_batch_task as _fetch_batch_task
from ptt_spider_go_ray.stages.parse_stages import ParseStage
from ptt_spider_go_ray.state.frontier import FrontierShard

SINK_NAME = "perfbench_trace_sink"

_ORIG_PROCESS_BLOCK = crawl_mod._process_block
_ORIG_CHECKPOINT = crawl_mod._checkpoint
_ORIG_WRITE_PARTITION = storage_mod.write_partition

_sink_handle = None


class TraceSink:
    """Collects spans sent from worker processes (a Ray actor)."""

    def __init__(self):
        self.spans: list[dict] = []

    def add(self, spans: list[dict]) -> int:
        self.spans.extend(spans)
        return len(spans)

    def drain(self) -> list[dict]:
        out, self.spans = self.spans, []
        return out


def _emit(spans: list[dict]) -> None:
    """Send spans to the sink and wait for the ack, so a drain after the
    crawl returns sees every span of the repetition."""
    import ray

    global _sink_handle
    if _sink_handle is None:
        _sink_handle = ray.get_actor(SINK_NAME)
    ray.get(_sink_handle.add.remote(spans))


def traced_fetch_batch_task(batch, factory_bytes, **kwargs):
    t0 = time.time()
    out = _fetch_batch_task(batch, factory_bytes, **kwargs)
    t1 = time.time()
    attempts = out["attempts"].to_pylist()
    _emit([{
        "layer": "fetch", "start": t0, "end": t1, "pid": os.getpid(),
        "requests": sum(attempts),
        "rows": out.num_rows,
        "retries": sum(a - 1 for a in attempts if a > 1),
        "errors": out.num_rows - sum(out["ok"].to_pylist()),
    }])
    return out


class TracedParseStage(ParseStage):
    def __call__(self, batch):
        t0 = time.time()
        out = super().__call__(batch)
        t1 = time.time()
        _emit([{
            "layer": "parse", "start": t0, "end": t1, "pid": os.getpid(),
            "rows_in": batch.num_rows, "rows_out": out.num_rows,
        }])
        return out


def traced_process_block(tbl, out_dir, epoch, part, shards=None, n_shards=0,
                         max_depth=0):
    writes: list[dict] = []

    def timed_write(table, root, name, partition, part=0, sort_by=None):
        t0 = time.time()
        d = _ORIG_WRITE_PARTITION(table, root, name, partition, part=part,
                                  sort_by=sort_by)
        t1 = time.time()
        size = 0
        for f in os.listdir(d):
            if f.startswith(f"part-{part}."):
                size += os.path.getsize(os.path.join(d, f))
        writes.append({"layer": "storage", "start": t0, "end": t1,
                       "pid": os.getpid(), "bytes": size, "rows": table.num_rows})
        return d

    storage_mod.write_partition = timed_write
    try:
        t0 = time.time()
        out = _ORIG_PROCESS_BLOCK(tbl, out_dir, epoch, part, shards=shards,
                                  n_shards=n_shards, max_depth=max_depth)
        t1 = time.time()
    finally:
        storage_mod.write_partition = _ORIG_WRITE_PARTITION
    _emit(writes + [{"layer": "process_block", "start": t0, "end": t1,
                     "pid": os.getpid(), "rows": tbl.num_rows,
                     "cands": out["n_cand"]}])
    return out


class TracedShard(FrontierShard):
    """Frontier shard that times its own calls. Totals ride back on
    ``get_metrics`` under ``trace.*`` keys."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._trace = {"take_s": 0.0, "commit_s": 0.0, "push_back_s": 0.0,
                       "politeness_denied": 0, "robots_s": 0.0}
        allow = self.politeness.allow

        def counted_allow(host, n=1):
            granted = allow(host, n)
            self._trace["politeness_denied"] += n - granted
            return granted

        self.politeness.allow = counted_allow

    def _timed(self, key, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._trace[key] += time.perf_counter() - t0

    def take_arrow(self, n):
        return self._timed("take_s", super().take_arrow, n)

    def commit_offers(self):
        return self._timed("commit_s", super().commit_offers)

    def push_back_arrow(self, tbl):
        return self._timed("push_back_s", super().push_back_arrow, tbl)

    def _robots_allowed(self, url):
        return self._timed("robots_s", super()._robots_allowed, url)

    def get_metrics(self):
        m = super().get_metrics()
        m.update({f"trace.{k}": v for k, v in self._trace.items()})
        return m


class Tracer:
    """Installs the wrappers for one traced repetition (use as a context
    manager) and hands back what they recorded."""

    def __init__(self, sink):
        self.sink = sink
        self.spans: list[dict] = []  # driver-side
        self.rounds: list[dict] = []
        self.datasets: list = []
        self._saved: dict = {}

    def checkpoint(self, shards, ckpt_dir, epoch, ledger_delta):
        t0 = time.time()
        _ORIG_CHECKPOINT(shards, ckpt_dir, epoch, ledger_delta)
        self.spans.append({"layer": "checkpoint", "start": t0, "end": time.time(),
                           "epoch": epoch})

    def progress(self, rec: dict) -> None:
        self.rounds.append({"t": time.time(), "dispatched": rec["dispatched"],
                            "by_kind": rec["by_kind"]})

    def __enter__(self):
        from ray.data import Dataset

        iter_refs = Dataset.iter_internal_ref_bundles
        datasets = self.datasets

        def recording_iter(ds, *a, **kw):
            datasets.append(ds)
            return iter_refs(ds, *a, **kw)

        self._saved = {
            "FrontierShard": crawl_mod.FrontierShard,
            "fetch_batch_task": crawl_mod.fetch_batch_task,
            "ParseStage": crawl_mod.ParseStage,
            "_process_block": crawl_mod._process_block,
            "_checkpoint": crawl_mod._checkpoint,
        }
        crawl_mod.FrontierShard = TracedShard
        crawl_mod.fetch_batch_task = traced_fetch_batch_task
        crawl_mod.ParseStage = TracedParseStage
        crawl_mod._process_block = traced_process_block
        crawl_mod._checkpoint = self.checkpoint
        self._iter_refs = iter_refs
        Dataset.iter_internal_ref_bundles = recording_iter
        return self

    def __exit__(self, *exc):
        from ray.data import Dataset

        for k, v in self._saved.items():
            setattr(crawl_mod, k, v)
        Dataset.iter_internal_ref_bundles = self._iter_refs
        return False

    def collect(self) -> list[dict]:
        import ray

        return self.spans + ray.get(self.sink.drain.remote())

    def operator_stats(self) -> dict[str, dict]:
        """Ray Data operator totals over every round's dataset."""
        ops: dict[str, dict] = {}
        for ds in self.datasets:
            summary = ds._get_stats_summary()
            stack = [summary]
            while stack:
                s = stack.pop()
                stack.extend(s.parents)
                for op in s.operators_stats:
                    o = ops.setdefault(op.operator_name,
                                       {"wall_s": 0.0, "cpu_s": 0.0, "rows": 0})
                    o["wall_s"] += _stat_sum(op.wall_time)
                    o["cpu_s"] += _stat_sum(op.cpu_time)
                    o["rows"] += _stat_sum(op.output_num_rows)
        self.datasets.clear()
        return ops


def _stat_sum(stat) -> float:
    if isinstance(stat, dict):
        return float(stat.get("sum", 0.0) or 0.0)
    return float(stat or 0.0)


def union_s(spans: list[dict], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by at least one span."""
    ivs = sorted((max(lo, s["start"]), min(hi, s["end"])) for s in spans)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in ivs:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
