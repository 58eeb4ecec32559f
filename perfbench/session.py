"""One Ray session of a benchmark run: start Ray, warm the workers, then run
the workload's crawl repeatedly until the session's share of the measured
time is used, checking every repetition. Writes one JSON record.

Run by ``run.py`` as ``python3 -m perfbench.session <spec.json> <out.json>``
with the repository root on ``PYTHONPATH``. Everything up to the first
measured repetition (interpreter start, imports, Ray start, one worker
process per logical CPU, a warm-up crawl at the smoke size) counts as
set-up.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter

import ray
from ray.data import DataContext

from perfbench import check, inputs
from perfbench.trace import SINK_NAME, TraceSink, Tracer, union_s
from perfbench.workloads import COMMON, WORKLOADS
from ptt_spider_go_ray.config import Config
from ptt_spider_go_ray.functions.parse import canonicalize_url, url_host
from ptt_spider_go_ray.pipelines.crawl import run_crawl
from ptt_spider_go_ray.sources import storage
from ptt_spider_go_ray.sources.synthetic import mock_transport_factory

# a traced session alternates untraced and traced repetitions, so it runs
# at least one of each
MIN_REPS = {False: 1, True: 2}
# Ray binds unix sockets at <temp dir>/session_<date>_<time>_<usec>_<pid>/
# sockets/plasma_store, 64 bytes past the temp dir at most, and a socket
# path holds at most 107.
RAY_TEMP_MAX_LEN = 107 - 64
# a fixed object store, whatever the host's memory; a crawl round's blocks
# take a few MB
OBJECT_STORE_BYTES = 256 << 20


@ray.remote(num_cpus=1)
def _worker_pid() -> int:
    # the modules a crawl's Ray Data tasks run
    import pyarrow.compute  # noqa: F401
    import pyarrow.parquet  # noqa: F401
    import ray.data  # noqa: F401

    import ptt_spider_go_ray.pipelines.crawl  # noqa: F401

    time.sleep(0.5)
    return os.getpid()


def _start_workers(cpus: int) -> None:
    """Start one pooled worker process per logical CPU, as a crawl's first
    rounds would, by holding ``cpus`` tasks at once until as many distinct
    processes have run one."""
    pids: set[int] = set()
    while len(pids) < cpus:
        pids.update(ray.get([_worker_pid.remote() for _ in range(cpus)]))


def _config(w: dict, rep_dir: str) -> Config:
    cfg = Config()
    cc = cfg.crawler
    cc.frontier_shards = w["frontier_shards"]
    cc.batch_urls = w["batch_urls"]
    cc.fetch_batch_size = w["fetch_batch_size"]
    cc.robots = w["robots"]
    cc.politeness_rate = w["politeness_rate"]
    cc.politeness_burst_s = w["politeness_burst_s"]
    cc.frontier_max_mem_rows = w["frontier_max_mem_rows"]
    cc.spill_dir = os.path.join(rep_dir, "spill")
    cc.checkpoint_every = max(1, w["checkpoint_every"])
    cc.checkpoint_dir = os.path.join(rep_dir, "ckpt") if w["checkpoint_every"] else ""
    cc.seen_capacity = COMMON["seen_capacity"]
    cc.max_depth = COMMON["max_depth"]
    cc.cooldown_429_s = COMMON["cooldown_429_s"]
    cc.exact_seen = COMMON["exact_seen"]
    return cfg


def _read_ledger(ckpt_dir: str) -> list:
    """The dispatch ledger as the checkpoint recorded it, epoch by epoch."""
    import pyarrow.parquet as pq

    epochs = sorted(
        int(f[len("ledger_epoch"):-len(".parquet")])
        for f in os.listdir(ckpt_dir) if f.startswith("ledger_epoch")
    )
    out = []
    for e in epochs:
        t = pq.read_table(os.path.join(ckpt_dir, f"ledger_epoch{e}.parquet"))
        out.extend(zip(t["priority"].to_pylist(), t["seq"].to_pylist(),
                       t["url"].to_pylist()))
    return out


def _ray_dirs(rel_temp: str, work: str) -> dict:
    """``ray.init`` arguments that keep Ray's files inside the checkout.

    ``rel_temp`` is relative to the working directory (the root). Where its
    absolute path is too long for Ray's sockets, Ray is given the same
    directory through this process's ``/proc/<pid>/cwd`` link, which every
    process of the session can resolve while this one runs. Where /dev/shm
    cannot hold the object store, Ray would fall back to /tmp; it gets a
    directory under ``work`` instead."""
    temp = os.path.abspath(rel_temp)
    if len(temp) > RAY_TEMP_MAX_LEN:
        temp = f"/proc/{os.getpid()}/cwd/{rel_temp}"
    out = {"_temp_dir": temp, "object_store_memory": OBJECT_STORE_BYTES}
    try:
        shm_free = shutil.disk_usage("/dev/shm").free
    except OSError:
        shm_free = 0
    if shm_free <= OBJECT_STORE_BYTES:
        out["_plasma_directory"] = os.path.join(work, "plasma")
        os.makedirs(out["_plasma_directory"], exist_ok=True)
    return out


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (VmHWM) for this process. Where
    the kernel does not allow it, the count runs from process start, which
    the warm-up crawl already covers."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _quantile(vals: list[float], q: float) -> float:
    vals = sorted(vals)
    return vals[min(len(vals) - 1, int(q * len(vals)))] if vals else 0.0


def _layer_numbers(res, tracer: Tracer, spans: list[dict], cpus: int,
                   loop_lo: float, loop_hi: float) -> dict:
    """Per-layer numbers of one traced repetition."""
    def of(layer):
        return [s for s in spans if s["layer"] == layer]

    def busy(layer):
        return sum(s["end"] - s["start"] for s in of(layer))

    wall = loop_hi - loop_lo
    fetch = of("fetch")
    shards = res.metrics["shards"]
    offered = sum(m["offered"] for m in shards)
    taken = sum(m["taken"] for m in shards)
    pushed_back = sum(m["pushed_back"] for m in shards)
    round_ends = [loop_lo] + [r["t"] for r in tracer.rounds]
    round_s = [b - a for a, b in zip(round_ends, round_ends[1:])]
    return {
        "crawl.rounds": res.rounds,
        "crawl.round_p50_s": _quantile(round_s, 0.5),
        "crawl.round_p90_s": _quantile(round_s, 0.9),
        "crawl.process_block_s": busy("process_block"),
        "crawl.untraced_s": wall - union_s(spans, loop_lo, loop_hi),
        "fetch.requests": sum(s["requests"] for s in fetch),
        "fetch.busy_s": busy("fetch"),
        "fetch.retries": sum(s["retries"] for s in fetch),
        "fetch.errors": sum(s["errors"] for s in fetch),
        "fetch.slot_util": busy("fetch") / (cpus * wall),
        "fetch.idle_s": wall - union_s(fetch, loop_lo, loop_hi),
        "parse.busy_s": busy("parse"),
        "parse.rows_out": sum(s["rows_out"] for s in of("parse")),
        "frontier.take_s": busy("take"),
        "frontier.shard_take_s": sum(m["trace.take_s"] + m["trace.push_back_s"]
                                     for m in shards),
        "frontier.commit_s": sum(m["trace.commit_s"] for m in shards),
        "frontier.taken": taken,
        "frontier.pushed_back": pushed_back,
        "frontier.accept_ratio": sum(m["accepted"] for m in shards) / offered if offered else 0.0,
        "frontier.pushback_ratio": pushed_back / taken if taken else 0.0,
        "frontier.spilled": sum(m.get("spilled", 0) for m in shards),
        "frontier.checkpoint_s": busy("checkpoint"),
        "storage.write_s": busy("storage"),
        "storage.bytes": sum(s["bytes"] for s in of("storage")),
        "cuckoo.false_positives": res.metrics["cuckoo_false_positives"],
        "politeness.denied": sum(m["trace.politeness_denied"] for m in shards),
        "robots.denied": res.metrics["robots_denied"],
        "robots.check_s": sum(m["trace.robots_s"] for m in shards),
        "op.stats": tracer.operator_stats(),
    }


def _one_rep(w: dict, pages: int, site, cpus: int, rep_dir: str, traced: bool,
             sink, want: dict | None) -> dict:
    """One crawl. Its wall time runs from the end of ``run_crawl``'s own
    set-up (shard spawn and seeding) to the complete result. Checked
    against ``want`` unless that is None (the warm-up crawl)."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    os.makedirs(rep_dir)
    cfg = _config(w, rep_dir)
    polite = w["politeness_rate"] > 0
    stamp_dir = os.path.join(rep_dir, "stamps")
    if polite:
        factory = functools.partial(inputs.stamped_transport_factory, site,
                                    w["latency_s"], stamp_dir)
    else:
        factory = functools.partial(mock_transport_factory, site, w["latency_s"])
    out_dir = os.path.join(rep_dir, "out") if w["write_output"] else ""
    tracer = Tracer(sink) if traced else None
    takes = check.TakeClock()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        stack.enter_context(takes)
        _reset_peak_rss()
        t0 = time.time()
        res = run_crawl(
            cfg,
            transport_factory=factory,
            board=",".join(w["boards"]),
            pages=pages,
            push_threshold=COMMON["push_threshold"],
            out_dir=out_dir,
            fetch_media=w["fetch_media"],
            deterministic=w["deterministic"],
            fetch_via=COMMON["fetch_via"],
            relaxed_ordering=COMMON["relaxed_ordering"],
            pipeline_depth=COMMON["pipeline_depth"],
            retain_ledger=not w["checkpoint_every"],
            progress=tracer.progress if tracer is not None else None,
        )
        t1 = time.time()
        rss_mb = _peak_rss_mb()
    wall_s = (t1 - t0) - res.setup_seconds
    rec = {
        "traced": traced,
        "wall_s": wall_s,
        "setup_seconds": res.setup_seconds,
        # the driver's peak RSS while the crawl ran, before any checking
        "driver_peak_rss_mb": rss_mb,
        "loop_seconds": res.loop_seconds,
        "dispatched": res.dispatched,
        "rounds": res.rounds,
        "fetch_errors": res.metrics["fetch_errors"],
        "finished": res.finished,
    }
    stamps = inputs.read_stamps(stamp_dir) if polite else []
    if polite:
        per_host = Counter(url_host(canonicalize_url(u)) for _, _, u in res.ledger)
        rec["hot_host"], hot_n = per_host.most_common(1)[0]
        rec["polite_efficiency"] = (hot_n / w["politeness_rate"]) / wall_s
    if tracer is not None:
        spans = tracer.collect() + [{"layer": "take", "start": a, "end": b}
                                    for a, b in takes.rounds]
        rec["layers"] = _layer_numbers(res, tracer, spans, cpus, t1 - wall_s, t1)
        rec["layers"]["robots.fetches"] = sum(u.endswith("/robots.txt") for _, u in stamps)
        rec["spans"] = spans
    if want is not None:
        ledger = _read_ledger(cfg.crawler.checkpoint_dir) if w["checkpoint_every"] else res.ledger
        docs = storage.read_table(out_dir, "docs") if out_dir else res.docs
        rec["checks"] = check.verify(w, want, res, ledger, docs)
        if polite:
            rec["checks"]["politeness_ceiling"] = (
                check.ceiling_violations(w, stamps, takes.rounds) == 0)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rec


def run_session(spec: dict) -> dict:
    w = {**WORKLOADS[spec["workload"]], "politeness_rate": spec["politeness_rate"]}
    seed, cpus, work = spec["seed"], spec["cpus"], spec["work_dir"]
    load_start = os.getloadavg()[0]
    phases = {"imported": time.time()}
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             **_ray_dirs(spec["ray_temp_dir"], work))
    try:
        DataContext.get_current().enable_progress_bars = False
        phases["ray_init"] = time.time()
        sink = None
        if spec["trace"]:
            sink = ray.remote(num_cpus=0)(TraceSink).options(name=SINK_NAME).remote()
            ray.get(sink.drain.remote())
        _start_workers(cpus)
        phases["workers"] = time.time()
        # one unchecked crawl at the smoke size warms the crawl path in the
        # workers and in the driver
        smoke = w["size"]["smoke"]
        w_warm, warm_pages = inputs.plan(WORKLOADS[spec["workload"]], smoke, seed,
                                         COMMON["push_threshold"])
        _one_rep(w_warm, warm_pages, inputs.site_spec(w_warm, smoke, seed), cpus,
                 os.path.join(work, "warm"), False, sink, None)
        phases["ready"] = time.time()

        site = inputs.site_spec(w, w["size"][spec["size"]], seed)
        want = check.load(spec["oracle_path"])
        reps: list[dict] = []
        while True:
            traced = spec["trace"] and len(reps) % 2 == 1
            reps.append(_one_rep(w, spec["pages"], site, cpus,
                                 os.path.join(work, f"rep{len(reps)}"), traced, sink, want))
            # stop when one more repetition of the mean length would overrun
            # the budget or the deadline
            now = time.time()
            n = len(reps)
            mean_s = (now - phases["ready"]) / n
            if n >= MIN_REPS[spec["trace"]] and (
                    mean_s * (n + 1) > spec["budget_s"] or now + mean_s > spec["deadline"]):
                break
        phases["reps"] = time.time()
    finally:
        ray.shutdown()
    phases["shutdown"] = time.time()
    return {
        "workload": spec["workload"],
        "cpus": cpus,
        "phases": phases,
        "crawl_setup_s": statistics.median(r["setup_seconds"] for r in reps),
        "load_1m_start": load_start,
        "load_1m_end": os.getloadavg()[0],
        "reps": reps,
    }


def main() -> None:
    spec_path, out_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    out = run_session(spec)
    with open(out_path, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
