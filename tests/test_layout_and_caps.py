"""Layout (T4/D4) distributed assignment vs the pure-fn oracle, plus the
S4 size cap and F6 429-then-200 retry behavior through fetch_one."""

import pyarrow as pa
import pytest

from ptt_spider_go_ray.functions.parse import unique_dir_names
from ptt_spider_go_ray.sources.synthetic import SiteSpec, SyntheticSite
from ptt_spider_go_ray.stages.fetch import MockTransport, fetch_one
from ptt_spider_go_ray.stages.layout import assign_layout


def docs_table():
    rows = [
        # three articles with the same clean-title+push on one board
        ("bbs/B/M.1.A.X", "T:1", "https://p/1", "B", 10, 5),
        ("bbs/B/M.2.A.Y", "T1", "https://p/2", "B", 10, 7),
        ("bbs/B/M.3.A.Z", "T1", "https://p/3", "B", 10, 6),
        # same key on ANOTHER board — independent namespace
        ("bbs/C/M.4.A.W", "T1", "https://p/4", "C", 10, 1),
        # unique key
        ("bbs/B/M.5.A.V", "Other", "https://p/5", "B", 3, 9),
    ]
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows]),
            "title": pa.array([r[1] for r in rows]),
            "url": pa.array([r[2] for r in rows]),
            "board": pa.array([r[3] for r in rows]),
            "push_rate": pa.array([r[4] for r in rows], pa.int32()),
            "seq": pa.array([r[5] for r in rows], pa.int64()),
        }
    )


def test_assign_layout_matches_pure_oracle(ray_session):
    import ray.data

    out = assign_layout(ray.data.from_arrow(docs_table())).to_pandas()
    got = dict(zip(out["doc_id"], out["save_dir"]))
    # T:1 cleans to T1 → all three B-board docs collide; seq order 5,6,7
    # oracle: ordered by seq within (B, T1_10)
    oracle = unique_dir_names(
        [("T1_10", "https://p/1"), ("T1_10", "https://p/3"), ("T1_10", "https://p/2")]
    )
    assert got["bbs/B/M.1.A.X"] == f"B/{oracle[0]}"   # seq 5 → T1_10
    assert got["bbs/B/M.3.A.Z"] == f"B/{oracle[1]}"   # seq 6 → T1_10_2
    assert got["bbs/B/M.2.A.Y"] == f"B/{oracle[2]}"   # seq 7 → T1_10_3
    assert got["bbs/C/M.4.A.W"] == "C/T1_10"          # other board independent
    assert got["bbs/B/M.5.A.V"] == "B/Other_3"


def test_assign_layout_idempotent_same_url(ray_session):
    import ray.data

    t = docs_table()
    # same URL appearing twice (re-processed article) keeps the same dir
    t2 = pa.concat_tables([t, t.slice(0, 1)])
    out = assign_layout(ray.data.from_arrow(t2)).to_pandas()
    dirs = out[out["url"] == "https://p/1"]["save_dir"].tolist()
    assert len(dirs) == 2 and len(set(dirs)) == 1


# --- S4 size cap + F6 retry scenarios through fetch_one --------------------

def test_fetcher_oversize_row_not_emitted():
    spec = SiteSpec(boards={"B": 2}, oversize={"big"})
    site = SyntheticSite(spec)
    transport = MockTransport(site)
    no_sleep = lambda s: None  # noqa: E731
    status, body, attempts, err, ok = fetch_one(
        transport, "https://x.com/big_image.jpg", no_sleep, max_body_bytes=1000
    )
    assert not ok and err == "oversize" and body == b""
    # over-cap bodies fail for ANY kind (a truncated HTML page must not be
    # parsed as if complete); under-cap pages pass
    status, body, attempts, err, ok = fetch_one(
        transport, "https://www.ptt.cc/bbs/B/index1.html", no_sleep, max_body_bytes=1000
    )
    assert not ok and err == "oversize"
    status, body, attempts, err, ok = fetch_one(
        transport, "https://www.ptt.cc/bbs/B/index1.html", no_sleep, max_body_bytes=10**6
    )
    assert ok


def test_fetcher_429_then_200_retries():
    spec = SiteSpec(boards={"B": 2}, status_429_then_200={"index1"})
    transport = MockTransport(SyntheticSite(spec))
    slept = []
    status, body, attempts, err, ok = fetch_one(
        transport, "https://www.ptt.cc/bbs/B/index1.html", slept.append,
        max_body_bytes=10**9,
    )
    assert ok and status == 200 and attempts == 2
    assert slept == [1.0]  # honored Retry-After: 1


def test_storage_roundtrip(tmp_path):
    import pyarrow as pa

    from ptt_spider_go_ray.sources import storage

    t1 = pa.table({"a": [1, 2], "b": ["x", "y"]})
    t2 = pa.table({"a": [3], "b": ["z"]})
    storage.write_partition(t1, str(tmp_path), "docs", "round=0")
    storage.write_partition(t2, str(tmp_path), "docs", "round=1")
    back = storage.read_table(str(tmp_path), "docs")
    assert back.num_rows == 3
    assert sorted(back["a"].to_pylist()) == [1, 2, 3]
    # overwriting a partition replaces only that partition (resumability)
    storage.write_partition(t2, str(tmp_path), "docs", "round=0")
    back = storage.read_table(str(tmp_path), "docs")
    assert sorted(back["a"].to_pylist()) == [3, 3]
    assert storage.read_table(str(tmp_path), "missing") is None


def test_fetch_batch_task_oversize_and_cap():
    import functools
    import pickle

    import pyarrow as pa

    from ptt_spider_go_ray.schemas import FRONTIER_SCHEMA
    from ptt_spider_go_ray.sources.synthetic import SiteSpec, mock_transport_factory
    from ptt_spider_go_ray.stages.fetch import fetch_batch_task
    from ptt_spider_go_ray.state.frontier import frontier_row

    spec = SiteSpec(boards={"B": 2}, oversize={"bigpic"})
    fb = pickle.dumps(functools.partial(mock_transport_factory, spec))
    rows = [
        frontier_row("https://x.com/bigpic_1.jpg", "media", 2, 1, depth=2),
        frontier_row("https://x.com/ok_2.png", "media", 2, 2, depth=2),
    ]
    t = pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)
    out = fetch_batch_task(t, factory_bytes=fb, max_body_bytes=1000).to_pylist()
    assert not out[0]["ok"] and out[0]["error"] == "oversize" and out[0]["body"] == b""
    assert out[1]["ok"] and len(out[1]["body"]) > 0


def test_zone_map_pruning_end_to_end(ray_session, tmp_path):
    """Sorted writes produce tight footer zone maps; pruned reads open only
    the intersecting files and return exactly the full-scan-filter rows;
    stats-less columns are conservatively kept."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ptt_spider_go_ray.sources import storage

    root = str(tmp_path)
    # four files covering key ranges [0,99], [100,199], [200,299], [300,399]
    for part in range(4):
        keys = np.arange(part * 100, part * 100 + 100, dtype=np.int64)
        rng = np.random.default_rng(part)
        shuffled = rng.permutation(keys)  # unsorted input: sort_by must fix it
        storage.write_partition(
            pa.table({"k": pa.array(shuffled), "v": pa.array(shuffled * 2)}),
            root, "docs", f"round={part}", sort_by=["k"],
        )
    files, total = storage.pruned_files(root, "docs", "k", 150, 250)
    assert total == 4 and len(files) == 2  # only [100,199] and [200,299]
    df = ray.data.read_parquet(files).to_pandas()
    assert len(df) == 200  # file-level pruning; row filter is the caller's
    assert df["k"].min() >= 100 and df["k"].max() <= 299
    got = sorted(df[(df["k"] >= 150) & (df["k"] <= 250)]["k"].tolist())
    assert got == list(range(150, 251))
    # disjoint range → no files
    assert storage.pruned_files(root, "docs", "k", 1000, 2000) == ([], 4)
    # unknown column → unprunable → everything kept
    files3, _ = storage.pruned_files(root, "docs", "nope", 0, 1)
    assert len(files3) == 4
