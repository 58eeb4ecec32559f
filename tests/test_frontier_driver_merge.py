"""Frontier shards speak plain Python rows; the driver does every Arrow
conversion: the global take merge (``_take_global``) and the checkpoint's
heap IPC bytes (``_checkpoint`` / ``_restore``)."""

import functools
import glob
import json
import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pyarrow.parquet as pq

from ptt_spider_go_ray.pipelines import crawl as crawl_mod
from ptt_spider_go_ray.pipelines.crawl import _heap_from_ipc, _restore, _take_global
from ptt_spider_go_ray.schemas import CHECKPOINT_SCHEMA, FRONTIER_SCHEMA
from ptt_spider_go_ray.sources.synthetic import mock_transport_factory
from ptt_spider_go_ray.state.frontier import FrontierShard, frontier_row

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _row(i: int, prio: int = 1, host: str = "www.ptt.cc") -> dict:
    return frontier_row(f"https://{host}/bbs/B/M.{i}.A.html", "article", prio, i,
                        depth=1, board="B")


# --- shards never load Arrow -------------------------------------------------

_DRIVE_SHARD = textwrap.dedent("""
    import functools, json, sys, tempfile
    from ptt_spider_go_ray.state.frontier import FrontierShard, frontier_row

    robots = sys.argv[1] == "robots"
    factory = None
    if robots:
        from ptt_spider_go_ray.sources.synthetic import SiteSpec, mock_transport_factory
        factory = functools.partial(mock_transport_factory, SiteSpec())
    rows = [frontier_row(f"https://www.ptt.cc/bbs/B/M.{i}.A.html", "article",
                         i % 3, i, depth=1) for i in range(60)]
    s = FrontierShard(0, politeness_rate=1000.0, max_mem_rows=8,
                      spill_dir=tempfile.mkdtemp(), robots_factory=factory)
    s.offer(rows[:30])
    s.offer_buffered(rows[30:])
    s.commit_offers()
    s.push_back(s.take(12)[4:])
    state = s.checkpoint_state(1)
    r = FrontierShard(0, max_mem_rows=8, spill_dir=tempfile.mkdtemp())
    r.restore_state(state, state["seen_delta"])
    assert r.size() == s.size() and r.seen_set() == s.seen_set()
    assert s.get_metrics()["spilled"] > 0
    print(json.dumps(sorted(m for m in ("pandas", "ray.data", "pyarrow")
                            if m in sys.modules)))
""")


def _loaded_by_shard(mode: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": REPO}
    out = subprocess.run([sys.executable, "-c", _DRIVE_SHARD, mode], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_shard_paths_import_no_arrow_pandas_or_ray_data():
    assert _loaded_by_shard("plain") == []


def test_robots_shard_imports_no_pandas_or_ray_data():
    # robots gating imports stages.fetch, which loads pyarrow itself
    assert _loaded_by_shard("robots") in ([], ["pyarrow"])


# --- checkpoint heap bytes ---------------------------------------------------

def test_checkpoint_file_keeps_schema_and_sorted_heap(ray_session, tmp_path):
    from test_crawl_e2e import SPEC, cfg_small

    ck = str(tmp_path / "ck")
    res = crawl_mod.run_crawl(
        cfg_small(checkpoint_dir=ck), max_rounds=2,
        transport_factory=functools.partial(mock_transport_factory, SPEC),
        board="Beauty", pages=3, push_threshold=10,
    )
    assert not res.finished
    (path,) = glob.glob(f"{ck}/shards_epoch*.parquet")
    tbl = pq.read_table(path)
    assert tbl.schema.remove_metadata() == CHECKPOINT_SCHEMA
    pending = 0
    for heap in tbl["heap"].to_pylist():
        if not heap:
            continue
        heap_tbl = pa.ipc.open_stream(pa.BufferReader(heap)).read_all()
        assert heap_tbl.schema == FRONTIER_SCHEMA
        keys = list(zip(heap_tbl["priority"].to_pylist(), heap_tbl["seq"].to_pylist()))
        assert keys == sorted(keys)
        pending += heap_tbl.num_rows
    assert pending > 0


def test_heap_encoded_the_arrow_way_restores_same_take_sequence(ray_session, tmp_path):
    """A checkpoint whose heap was encoded worker-side (``from_pylist`` + one
    IPC stream, as shards used to write it) resumes to the same take order."""
    import ray

    src = FrontierShard(0, seen_capacity=4096)
    src.offer([_row(i, prio=i % 3) for i in range(40)])
    src.take(7)
    rows = [row for _, _, row in src._all_rows_sorted()]
    sink = pa.BufferOutputStream()
    heap_tbl = pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)
    with pa.ipc.new_stream(sink, heap_tbl.schema) as w:
        w.write_table(heap_tbl)
    assert _heap_from_ipc(sink.getvalue().to_pybytes()) == rows

    ck = str(tmp_path)
    pq.write_table(pa.Table.from_pylist([{
        "shard_id": 0, "epoch": 1, "heap": sink.getvalue().to_pybytes(),
        "filter": src.filter.to_bytes(), "next_seq": 0,
        "metrics": json.dumps(src.metrics),
    }], schema=CHECKPOINT_SCHEMA), f"{ck}/shards_epoch1.parquet")
    pq.write_table(pa.table({"shard_id": pa.array([0] * len(src.seen_set()), pa.int32()),
                             "url": src.seen_set()}), f"{ck}/seen_epoch1.parquet")
    pq.write_table(pa.table({"priority": pa.array([], pa.int8()),
                             "seq": pa.array([], pa.int64()),
                             "url": pa.array([], pa.string())}),
                   f"{ck}/ledger_epoch1.parquet")
    with open(f"{ck}/LATEST", "w") as f:
        f.write("1")

    shard = ray.remote(num_cpus=0)(FrontierShard).remote(0, seen_capacity=4096)
    assert _restore([shard], ck, retain=True)[0] == 1
    assert ray.get(shard.take.remote(100)) == src.take(100)
    assert ray.get(shard.seen_set.remote()) == src.seen_set()


# --- the driver-side global merge --------------------------------------------

def test_take_global_merges_and_pushes_back_with_refunds(ray_session):
    import ray

    rate, per_shard = 10.0, 12
    # shards 0, 2, 3 hold interleaved keys on one host each; shard 1 is empty
    owned = {0: [], 1: [], 2: [], 3: []}
    for i in range(3 * per_shard):
        sid = (0, 2, 3)[i % 3]
        owned[sid].append(_row(i, prio=0 if i % 5 == 0 else 1, host=f"h{sid}.example"))
    shards = [
        # frozen clock: buckets hold `rate` tokens and never refill
        ray.remote(num_cpus=0)(FrontierShard).remote(
            sid, politeness_rate=rate, clock=functools.partial(float, 0))
        for sid in owned
    ]
    ray.get([s.offer.remote(owned[sid]) for sid, s in zip(owned, shards)])

    n = 5
    tbl = _take_global(shards, n, len(shards))
    assert tbl.schema == FRONTIER_SCHEMA
    union = sorted((r for rows in owned.values() for r in rows),
                   key=lambda r: (r["priority"], r["seq"]))
    assert tbl.to_pylist() == union[:n]

    dispatched = {r["url"] for r in union[:n]}
    for sid, s in zip(owned, shards):
        left = sorted((r for r in owned[sid] if r["url"] not in dispatched),
                      key=lambda r: (r["priority"], r["seq"]))
        # every leftover went back to the shard it came from
        assert ray.get(s.checkpoint_state.remote(1))["heap"] == left
        took = min(n, len(owned[sid]))
        assert ray.get(s.get_metrics.remote())["pushed_back"] == took - (
            len(owned[sid]) - len(left))
        # pushed-back rows got their tokens back: only dispatched rows spent one
        budget = int(rate) - (len(owned[sid]) - len(left))
        assert len(ray.get(s.take.remote(100))) == min(budget, len(left))
