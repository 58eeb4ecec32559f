"""Mimic the driver's correctness gate locally: run each Ray query and its
DuckDB oracle on sf0.001 and compare row count, column names, and
order-insensitive values (exact equality — stricter than a value hash)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from ptt_spider_go_ray.oracle.duck import canon, duck_result, to_pandas
from ptt_spider_go_ray.registry import oracle_sql, queries

# every oracled pair: (fn, sql) from the merged registry
_FNS = queries()
ALL_ORACLED = {name: (_FNS[name], sql) for name, sql in oracle_sql().items()}

SF = "/root/testdata/sf0.001"


@pytest.mark.parametrize("name", sorted(ALL_ORACLED))
def test_query_matches_oracle(name, ray_session):
    fn, sql = ALL_ORACLED[name]
    got = canon(to_pandas(fn(SF)))
    want = canon(duck_result(sql, SF))
    assert list(got.columns) == list(want.columns), f"{name}: column mismatch"
    assert len(got) == len(want), f"{name}: row count {len(got)} != {len(want)}"
    for col in want.columns:
        # STRICT dtype equality: the driver's value hash is dtype-sensitive,
        # so a dtype mismatch here would be a red hash row in CORRECTNESS
        assert got[col].dtype == want[col].dtype, (
            f"{name}.{col}: dtype {got[col].dtype} != oracle {want[col].dtype}"
        )
        pd.testing.assert_series_equal(
            got[col], want[col], check_names=False, obj=f"{name}.{col}"
        )


def test_percentiles_degenerate_groups(ray_session, tmp_path):
    """Constant-value group (bin width 0) and single-row group must survive
    the distributed two-pass selection and match DuckDB exactly."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_PERCENTILES, q_percentiles

    rng = np.random.default_rng(3)
    et = ["const"] * 50 + ["single"] + ["normal"] * 200
    vals = [7.25] * 50 + [42.0] + list(np.round(rng.uniform(0, 100, 200), 2))
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(et)), pa.int64()),
            "event_type": pa.array(et, pa.string()),
            "value": pa.array(vals, pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")

    got = canon(to_pandas(q_percentiles(str(tmp_path))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    want = canon(con.sql(SQL_PERCENTILES).df())
    pd.testing.assert_frame_equal(got, want)


def test_mixture_weights_all_empty_source(ray_session, tmp_path):
    """A source whose texts are all empty (sum n_chars == 0) must not
    produce inf/undefined-cast weights: both engines floor units at 1 and
    still agree exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_MIXTURE_WEIGHTS, q_mixture_weights

    tbl = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "source": pa.array(["web", "web", "empty", "empty", "wiki", "wiki"]),
            "n_chars": pa.array([100, 200, 0, 0, 50, 70], pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")

    got = canon(to_pandas(q_mixture_weights(str(tmp_path))))
    assert (got["weight_e6"] > 0).all() and np.isfinite(got["weight_e6"]).all()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_MIXTURE_WEIGHTS).df())
    pd.testing.assert_frame_equal(got, want)


def test_value_histogram_constant_column(ray_session, tmp_path):
    """All-equal values (bin width 0) land in bin 0 on both engines."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_VALUE_HISTOGRAM, q_value_histogram

    tbl = pa.table({"value": pa.array([5.5] * 100, pa.float64())})
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = to_pandas(q_value_histogram(str(tmp_path)))
    assert got["bin"].tolist() == [0] and got["n"].tolist() == [100]
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    want = con.sql(SQL_VALUE_HISTOGRAM).df()
    assert want["bin"].tolist() == [0] and want["n"].tolist() == [100]


# every query with a broadcast plan and a distributed one, and the call that
# only its distributed plan makes: (method, the function that calls it)
_DUAL_PLAN = {
    "semi_join": ("join", "_semi_anti_join"),
    "anti_join": ("join", "_semi_anti_join"),
    "nation_revenue": ("join", "q_nation_revenue"),
    "tpch_q3": ("join", "q_tpch_q3"),
    "tpch_q5": ("join", "q_tpch_q5"),
    "ship_delay": ("map_groups", "q_ship_delay"),
    "corpus_build_v3": ("map_groups", "q_corpus_build_v3"),
    "decontaminate": ("map_groups", "q_decontaminate"),
}


@pytest.mark.parametrize("name", sorted(_DUAL_PLAN))
def test_forced_fallback_plan(name, ray_session, monkeypatch):
    """Below the one broadcast bound each dual-plan query broadcasts its
    small side; with the bound forced under every payload it runs its
    distributed plan (a native join or a key-bucketed shuffle) instead, and
    both plans give the oracle's frame."""
    import sys

    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    import ptt_spider_go_ray.queries as Q

    calls = []

    def spy(cls, method):
        orig = getattr(cls, method)

        def wrapped(*a, **k):
            calls.append((method, sys._getframe(1).f_code.co_name))
            return orig(*a, **k)

        monkeypatch.setattr(cls, method, wrapped)

    spy(Dataset, "join")
    spy(GroupedData, "map_groups")
    fn = getattr(Q, f"q_{name}")
    want = canon(duck_result(getattr(Q, f"SQL_{name.upper()}"), SF))

    bcast = canon(to_pandas(fn(SF)))
    assert _DUAL_PLAN[name] not in calls, f"{name} left its broadcast plan at {SF}"
    pd.testing.assert_frame_equal(bcast, want)

    calls.clear()
    monkeypatch.setattr(Q, "_BROADCAST_MAX_BYTES", -1)
    forced = canon(to_pandas(fn(SF)))
    assert _DUAL_PLAN[name] in calls, f"{name} ignored the broadcast bound"
    pd.testing.assert_frame_equal(forced, want)
    pd.testing.assert_frame_equal(forced, bcast)


def test_ntile_degenerate_groups(ray_session, tmp_path):
    """Groups smaller than the bucket count (n < 4) and single-row groups
    must follow DuckDB's NTILE bucket arithmetic exactly."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_NTILE_QUARTILES, q_ntile_quartiles

    et = ["tiny"] * 3 + ["single"] + ["odd"] * 7 + ["normal"] * 40
    rng = np.random.default_rng(9)
    vals = list(np.round(rng.uniform(0, 100, len(et)), 2))
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(et)), pa.int64()),
            "event_type": pa.array(et, pa.string()),
            "value": pa.array(vals, pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")

    got = canon(to_pandas(q_ntile_quartiles(str(tmp_path))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    want = canon(con.sql(SQL_NTILE_QUARTILES).df())
    pd.testing.assert_frame_equal(got, want)


def test_range_join_long_span_handled_by_time_slicing(ray_session, tmp_path):
    """A multi-year event span used to overflow the 46-bit composite-key
    budget and raise; the (key, time-slice) salted bucketing bounds every
    group's span to slice+window, so the same input now yields exact
    counts (event 2 is 3.4 years after the order — outside the 7d window)."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import q_range_join

    ts = [datetime.datetime(2000, 1, 1), datetime.datetime(2003, 6, 1)]  # ~3.4y
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2], pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": pa.array([7, 7], pa.int64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([1], pa.int64()),
                "o_custkey": pa.array([7], pa.int64()),
                "o_orderdate": pa.array([ts[0]], pa.timestamp("us")),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = to_pandas(q_range_join(str(tmp_path)))
    assert got["o_orderkey"].tolist() == [1]
    assert got["n_events_7d"].tolist() == [1]  # only the day-0 event


def test_range_join_colliding_cells_one_bucket(ray_session, tmp_path, monkeypatch):
    """Force EVERY (key, slice) cell into one hash bucket (n_buckets=1) with
    a multi-year span: per-cell composites must keep counts exact — the
    pre-r5 shared-rel design overflowed its 46-bit budget here."""
    import datetime

    import duckdb as _dd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ptt_spider_go_ray.queries as Q

    monkeypatch.setattr(Q, "_key_buckets", lambda *a, **k: 1)

    base = datetime.datetime(2000, 1, 1)
    ts = [base + datetime.timedelta(days=d) for d in (0, 2, 3, 1300, 1302)]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(5), pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": pa.array([7, 7, 8, 7, 7], pa.int64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3], pa.int64()),
                "o_custkey": pa.array([7, 7, 8], pa.int64()),
                "o_orderdate": pa.array(
                    [ts[0], base + datetime.timedelta(days=1299), ts[2]],
                    pa.timestamp("us"),
                ),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = canon(to_pandas(Q.q_range_join(str(tmp_path))))
    con = _dd.connect()
    for t in ("events", "orders"):
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')"
        )
    want = canon(con.sql(Q.SQL_RANGE_JOIN).df())
    pd.testing.assert_frame_equal(got, want)


def _planted_hot_key_tables(tmp_path, n_hot=900, n_cold=100):
    """events: 90% of rows on user 7 spread over ~70 days (plus cold tail);
    orders: one per user per week. The hot user's history spans many
    time-slices, so salted bucketing must spread it across group tasks."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    base = pd.Timestamp("2001-03-01").value // 1000  # us
    hot_ts = base + np.sort(rng.integers(0, 70 * 86400 * 1_000_000, n_hot))
    cold_ts = base + rng.integers(0, 70 * 86400 * 1_000_000, n_cold)
    users = np.concatenate(
        [np.full(n_hot, 7), rng.integers(100, 120, n_cold)]
    ).astype(np.int64)
    ts = np.concatenate([hot_ts, cold_ts]).astype("datetime64[us]")
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(np.arange(n_hot + n_cold, dtype=np.int64)),
                "user_id": pa.array(users),
                "ts": pa.array(ts, pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    o_users = np.concatenate([np.full(10, 7), np.arange(100, 120)]).astype(np.int64)
    o_ts = (
        base + np.arange(len(o_users), dtype=np.int64) * 7 * 86400 * 1_000_000
    ).astype("datetime64[us]")
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(np.arange(len(o_users), dtype=np.int64)),
                "o_custkey": pa.array(o_users),
                "o_orderdate": pa.array(o_ts, pa.timestamp("us")),
            }
        ),
        tmp_path / "orders.parquet",
    )


def test_range_join_hot_key_salting_exact(ray_session, tmp_path):
    """Planted 90%-hot-user skew: the salted (key, slice) bucketing must
    spread the hot key over >1 bucket AND still match DuckDB exactly
    (boundary replication makes the per-slice counts exact)."""
    from ptt_spider_go_ray.queries import (
        SQL_RANGE_JOIN,
        _key_buckets,
        _salt_bucket,
        q_range_join,
    )

    _planted_hot_key_tables(tmp_path)
    week_us = 7 * 24 * 3600 * 1_000_000
    got = canon(to_pandas(q_range_join(str(tmp_path), slice_us=week_us)))
    want = canon(_duck_on(tmp_path, SQL_RANGE_JOIN, ["events", "orders"]))
    pd.testing.assert_frame_equal(got, want, check_names=False)
    # structural assertion: the hot key's slices occupy >1 bucket
    n_buckets = _key_buckets(1000, 30)
    slices = np.arange(10, dtype=np.int64)  # 70 days / 7d slices
    hot = _salt_bucket(np.full(10, 7, np.int64), slices, n_buckets)
    assert len(np.unique(hot)) > 1


def test_corpus_build_v3_unicode_whitespace_and_digits(ray_session, tmp_path):
    """NBSP must NOT split tokens and Arabic-Indic digits must NOT count as
    \\d on either engine: both sides now tokenize with the same explicit
    ASCII classes (the former Python-unicode vs RE2-ASCII divergence)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_CORPUS_BUILD_V3, q_corpus_build_v3

    texts = [
        # NBSP between words; unicode digits; enough stopword tokens (the
        # and/of/to fillers) to clear the 20·n_stop ≥ n_tokens gate
        "the café bar has ٠١ and the rest of the to the set",
        "the quick brown fox and the lazy dog of the to a in is it set",
        " leading unicode space the and of to in it is a big set now",
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(texts, pa.string()),
                "source": pa.array(["s"] * 3, pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = canon(to_pandas(q_corpus_build_v3(str(tmp_path))))
    want = canon(_duck_on(tmp_path, SQL_CORPUS_BUILD_V3, ["documents"]))
    assert len(got) == 3  # nothing silently dropped by tokenization skew
    pd.testing.assert_frame_equal(got, want, check_names=False)


def test_zorder_key_negative_ids_and_pre_epoch_ts(ray_session, tmp_path):
    """Negative user_id and pre-1970 timestamps must produce identical
    z-keys on both engines (the former uint64-wrap vs signed-% and
    floor-div vs truncating-// divergences)."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_ZORDER_KEY, q_zorder_key

    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([0, 1, 2, 3], pa.int64()),
                "user_id": pa.array([-5, -70000, 42, 0], pa.int64()),
                "ts": pa.array(
                    [
                        datetime.datetime(1969, 12, 31, 23, 0),
                        datetime.datetime(1950, 6, 1),
                        datetime.datetime(2001, 1, 1),
                        datetime.datetime(1970, 1, 1),
                    ],
                    pa.timestamp("us"),
                ),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = canon(to_pandas(q_zorder_key(str(tmp_path))))
    want = canon(_duck_on(tmp_path, SQL_ZORDER_KEY, ["events"]))
    pd.testing.assert_frame_equal(got, want, check_names=False)


def test_sliding_window_hot_key_salting_exact(ray_session, tmp_path):
    from ptt_spider_go_ray.queries import SQL_SLIDING_WINDOW, q_sliding_window

    _planted_hot_key_tables(tmp_path)
    got = canon(
        to_pandas(q_sliding_window(str(tmp_path), slice_us=45 * 60 * 1_000_000))
    )
    want = canon(_duck_on(tmp_path, SQL_SLIDING_WINDOW, ["events"]))
    pd.testing.assert_frame_equal(got, want, check_names=False)


def test_left_join_rollup_zero_order_customers(ray_session, tmp_path):
    """Customers with NO orders must appear with exact zeros (the NULL→0
    reconciliation path), matching DuckDB's LEFT JOIN + COALESCE."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_LEFT_JOIN_ROLLUP, q_left_join_rollup

    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array(range(10), pa.int64()),
                "c_mktsegment": pa.array(["A", "B"] * 5, pa.string()),
            }
        ),
        tmp_path / "customer.parquet",
    )
    # only even custkeys have orders → 5 zero-order customers
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array([0, 0, 2, 4, 6, 8], pa.int64()),
                "o_totalprice": pa.array([10.5, 20.25, 3.0, 4.75, 5.0, 6.5]),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = canon(to_pandas(q_left_join_rollup(str(tmp_path))))
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')")
    want = canon(con.sql(SQL_LEFT_JOIN_ROLLUP).df())
    pd.testing.assert_frame_equal(got, want)
    assert (got["n_orders"] == 0).sum() == 5


def test_windowed_watermark_drops_late_events(ray_session, tmp_path):
    """With arrival order (event_id) decorrelated from event time, the
    watermark races ahead and late events must be dropped — exactly as
    DuckDB's running-max replay does."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import (
        SQL_WINDOWED_WATERMARK,
        q_windowed_watermark,
    )

    rng = np.random.default_rng(13)
    n = 4000
    base = np.datetime64("2024-03-01", "us")
    ts = base + rng.integers(0, 20 * 24 * 3600, n).astype("timedelta64[s]").astype(
        "timedelta64[us]"
    )
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(n), pa.int64()),  # arrival ⊥ ts
                "ts": pa.array(ts),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = canon(to_pandas(q_windowed_watermark(str(tmp_path))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    want = canon(con.sql(SQL_WINDOWED_WATERMARK).df())
    pd.testing.assert_frame_equal(got, want)
    assert got["n"].sum() < n  # the late-drop path actually fired


def test_chunk_plan_boundary_lengths(ray_session, tmp_path):
    """Word counts straddling the window/stride boundaries (0, 1, s-1, s,
    s+1, w-1, w, w+1, 2s, big) plus a NULL text must match DuckDB's range
    arithmetic exactly; zero-word docs are excluded on both sides."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_CHUNK_PLAN, q_chunk_plan

    texts = [
        "",  # 0 words -> excluded
        None,  # NULL -> excluded
        "one",  # 1
        " ".join(["w"] * 23),  # s-1
        " ".join(["w"] * 24),  # s
        " ".join(["w"] * 25),  # s+1
        " ".join(["w"] * 31),  # w-1
        " ".join(["w"] * 32),  # w
        " ".join(["w"] * 33),  # w+1
        " ".join(["w"] * 48),  # 2s
        " ".join(["w"] * 100),
        "UPPER only 123 %%%",  # 4 lowercase-word tokens after filtering
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = canon(to_pandas(q_chunk_plan(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_CHUNK_PLAN).df())
    pd.testing.assert_frame_equal(got, want)
    assert 0 not in set(got["doc_id"]) and 1 not in set(got["doc_id"])
    # every chunk end is bounded by its doc's word count and window size
    assert (got["tok_end"] - got["tok_start"]).max() <= 32


def test_cdc_upsert_tiebreak_and_delete(ray_session, tmp_path):
    """Same-timestamp changes must resolve by event_id (last writer), and a
    final 'purchase' (DELETE) must suppress the key entirely."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_CDC_UPSERT, q_cdc_upsert

    t0 = np.datetime64("2024-05-01T00:00:00", "us")
    rows = [
        # user 1: two updates at the SAME ts -> event_id 11 wins
        (10, 1, t0, "view", 1.0),
        (11, 1, t0, "click", 2.0),
        # user 2: last change is a delete -> no output row
        (20, 2, t0, "view", 3.0),
        (21, 2, t0 + np.timedelta64(1, "s"), "purchase", 4.0),
        # user 3: delete then a later re-insert -> re-insert survives
        (30, 3, t0, "purchase", 5.0),
        (31, 3, t0 + np.timedelta64(2, "s"), "signup", 6.0),
        # user 4: single event
        (40, 4, t0, "error", 7.0),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "ts": pa.array([r[2] for r in rows]),
                "event_type": pa.array([r[3] for r in rows], pa.string()),
                "value": pa.array([r[4] for r in rows], pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = canon(to_pandas(q_cdc_upsert(str(tmp_path))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    want = canon(con.sql(SQL_CDC_UPSERT).df())
    pd.testing.assert_frame_equal(got, want)
    out = got.set_index("user_id")
    assert 2 not in out.index  # deleted key suppressed
    assert out.loc[1, "last_event_id"] == 11  # event_id tiebreak
    assert out.loc[3, "last_event_id"] == 31  # re-insert after delete


def test_pareto_front_ties(ray_session, tmp_path):
    """Identical (sum, count) pairs are mutually non-dominating (both kept);
    a same-sum lower-count point is dominated; a same-count lower-sum point
    is dominated — must match DuckDB's NOT EXISTS dominance exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_PARETO_FRONT, q_pareto_front

    # user -> list of values (cents are value*100)
    spec = {
        1: [10.0, 10.0],   # sum 2000, n 2  (front)
        2: [20.0],         # sum 2000, n 1  (dominated by 1: same sum, fewer)
        3: [10.0, 10.0],   # sum 2000, n 2  (exact tie with 1: both kept)
        4: [5.0, 5.0],     # sum 1000, n 2  (dominated by 1: same n, less sum)
        5: [1.0, 1.0, 1.0] # sum 300,  n 3  (front: most events)
    }
    rows = [(uid, v) for uid, vs in spec.items() for v in vs]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "value": pa.array([r[1] for r in rows], pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = canon(to_pandas(q_pareto_front(str(tmp_path))))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    want = canon(con.sql(SQL_PARETO_FRONT).df())
    pd.testing.assert_frame_equal(got, want)
    assert set(got["user_id"]) == {1, 3, 5}


def test_ngram_coverage_curve_empty_corpus(ray_session, tmp_path):
    """A zero-row corpus covers nothing: both engines give 0 tokens and 0.0
    coverage on every k row, not NULLs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import (
        _COVERAGE_KS,
        SQL_NGRAM_COVERAGE_CURVE,
        q_ngram_coverage_curve,
    )

    pq.write_table(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}),
        tmp_path / "documents.parquet",
    )
    want = canon(_duck_on(tmp_path, SQL_NGRAM_COVERAGE_CURVE, ["documents"]))
    assert want["k"].tolist() == list(_COVERAGE_KS)
    assert (want["top_tokens"] == 0).all() and (want["total_tokens"] == 0).all()
    assert (want["coverage"] == 0.0).all()
    got = canon(to_pandas(q_ngram_coverage_curve(str(tmp_path))))
    pd.testing.assert_frame_equal(got, want)


def _duck_on(tmp_path, sql: str, tables: list[str]) -> pd.DataFrame:
    con = duckdb.connect()
    for t in tables:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')"
        )
    return con.sql(sql).df()


def test_full_outer_rollup_both_null_sides(ray_session, tmp_path):
    """Users without a matching customer AND customers without events must
    both survive with coalesced zero/'' fills, exactly as the SQL does."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_FULL_OUTER_ROLLUP, q_full_outer_rollup

    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([0, 1, 2, 3], pa.int64()),
                "user_id": pa.array([0, 1, 1, 2], pa.int64()),  # 1,2 ∉ slice
                "value": pa.array([10.0, 5.0, 5.0, 7.5], pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([0, 3, 6, 7], pa.int64()),  # 3,6 no events
                "c_mktsegment": pa.array(["A", "B", "C", "D"], pa.string()),
            }
        ),
        tmp_path / "customer.parquet",
    )
    got = canon(to_pandas(q_full_outer_rollup(str(tmp_path))))
    want = canon(_duck_on(tmp_path, SQL_FULL_OUTER_ROLLUP, ["events", "customer"]))
    pd.testing.assert_frame_equal(got, want)
    # event-only users got '' segments; customer-only keys got 0 counts
    assert set(got.loc[got["c_mktsegment"] == "", "join_key"]) == {1, 2}
    assert set(got.loc[got["n_events"] == 0, "join_key"]) == {3, 6}


def test_time_weighted_value_zero_duration_and_singletons(ray_session, tmp_path):
    """Users whose intervals all floor to 0 s and single-event users are
    excluded on both engines; a normal user's sums are exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import (
        SQL_TIME_WEIGHTED_VALUE,
        q_time_weighted_value,
    )

    base = 1_700_000_000_000_000  # us
    rows = [
        # user 1: two events 10s apart, value 2.00 at start → weight 200*10
        (0, 1, base, 2.0),
        (1, 1, base + 10_000_000, 9.0),
        # user 2: two events 1 us apart (floors to 0s) → excluded
        (2, 2, base, 5.0),
        (3, 2, base + 1, 6.0),
        # user 3: single event → excluded
        (4, 3, base, 7.0),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "ts": pa.array(
                    [r[2] for r in rows], pa.timestamp("us")
                ),
                "value": pa.array([r[3] for r in rows], pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = canon(to_pandas(q_time_weighted_value(str(tmp_path))))
    want = canon(_duck_on(tmp_path, SQL_TIME_WEIGHTED_VALUE, ["events"]))
    pd.testing.assert_frame_equal(got, want)
    assert got["user_id"].tolist() == [1]
    assert got["weight_sum"].tolist() == [2000]
    assert got["dur_s"].tolist() == [10]


def test_page_slice_input_smaller_than_offset(ray_session, tmp_path):
    """A table smaller than the OFFSET yields an empty page on both sides."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_PAGE_SLICE, q_page_slice

    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(50), pa.int64()),
                "value": pa.array([float(i) for i in range(50)], pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = to_pandas(q_page_slice(str(tmp_path)))
    want = _duck_on(tmp_path, SQL_PAGE_SLICE, ["events"])
    assert len(got) == 0 and len(want) == 0
    assert sorted(got.columns) == sorted(want.columns)


def test_triangle_count_k4(ray_session, tmp_path):
    """docs 0..3 with (+1,+2,+3) edges form K4 → exactly C(4,3)=4 triangles."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_TRIANGLE_COUNT, q_triangle_count

    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64())}),
        tmp_path / "documents.parquet",
    )
    got = to_pandas(q_triangle_count(str(tmp_path)))
    want = _duck_on(tmp_path, SQL_TRIANGLE_COUNT, ["documents"])
    assert got["n_triangles"].tolist() == want["n_triangles"].tolist() == [4]


def test_dense_topk_values_ties_all_kept(ray_session, tmp_path):
    """A tie at the 3rd-highest DISTINCT value keeps every tied row (the
    dense_rank ≤ 3 semantics that row_number top-k would break)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_DENSE_TOPK_VALUES, q_dense_topk_values

    vals = [9.0, 9.0, 8.0, 7.0, 7.0, 7.0, 6.0, 5.0]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(vals)), pa.int64()),
                "event_type": pa.array(["t"] * len(vals), pa.string()),
                "value": pa.array(vals, pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = canon(to_pandas(q_dense_topk_values(str(tmp_path))))
    want = canon(_duck_on(tmp_path, SQL_DENSE_TOPK_VALUES, ["events"]))
    pd.testing.assert_frame_equal(got, want)
    # distinct top-3 values are 9,8,7 → six rows (three 7.0 ties all kept)
    assert len(got) == 6


def test_mad_degenerate_groups(ray_session, tmp_path):
    """Constant group (MAD 0), single row, and even-count groups with an
    interpolated x.5-cent median must match DuckDB's median() exactly —
    the half-cent/quarter-cent arithmetic is the risky path."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_MAD_PER_TYPE, q_mad_per_type

    rng = np.random.default_rng(11)
    et = ["const"] * 40 + ["single"] + ["even"] * 4 + ["normal"] * 201
    vals = (
        [3.33] * 40 + [9.99] + [1.00, 2.00, 4.00, 8.00]
        + list(np.round(rng.uniform(0, 50, 201), 2))
    )
    tbl = pa.table(
        {
            "event_type": pa.array(et, pa.string()),
            "value": pa.array(vals, pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_mad_per_type(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_MAD_PER_TYPE).df())
    pd.testing.assert_frame_equal(got, want)
    assert float(got.loc[got["event_type"] == "const", "mad_cents"].iloc[0]) == 0.0
    assert float(got.loc[got["event_type"] == "single", "mad_cents"].iloc[0]) == 0.0


def test_max_concurrency_tie_rules(ray_session, tmp_path):
    """Zero-duration intervals never count as open, and back-to-back
    intervals (end == next start) don't overlap — ends sort before starts
    at the same instant on both engines."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_MAX_CONCURRENCY, q_max_concurrency

    base = pd.Timestamp("2024-01-01")
    rows = [
        # b2b: [0,10) then [10,20) — max 1
        ("b2b", base, 10.0), ("b2b", base + pd.Timedelta(seconds=10), 10.0),
        # zero: a zero-length interval inside an open one — still max 1
        ("zero", base, 100.0), ("zero", base + pd.Timedelta(seconds=5), 0.0),
        # nest: three nested opens — max 3
        ("nest", base, 100.0),
        ("nest", base + pd.Timedelta(seconds=1), 50.0),
        ("nest", base + pd.Timedelta(seconds=2), 10.0),
    ]
    tbl = pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "value": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_max_concurrency(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_MAX_CONCURRENCY).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["event_type"], got["max_concurrent"]))
    assert by == {"b2b": 1, "zero": 1, "nest": 3}


def test_interval_coverage_union_semantics(ray_session, tmp_path):
    """Union coverage merges overlaps, bridges back-to-back intervals
    (zero-length join gap), and ignores zero-duration points; hand-computed
    expectations plus the DuckDB window oracle on the same file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import (
        SQL_INTERVAL_COVERAGE,
        q_interval_coverage,
    )

    base = pd.Timestamp("2024-01-01")
    s = lambda k: base + pd.Timedelta(seconds=k)
    rows = [
        # b2b: [0,10) + [10,20) — union 20 s
        ("b2b", s(0), 10.0), ("b2b", s(10), 10.0),
        # olap: [0,10) + [5,15) — union 15 s, not 20
        ("olap", s(0), 10.0), ("olap", s(5), 10.0),
        # gap: [0,5) + [10,15) — union 10 s, hole not counted
        ("gap", s(0), 5.0), ("gap", s(10), 5.0),
        # zero: a zero-length interval alone covers nothing
        ("zero", s(0), 0.0), ("zero", s(100), 0.0),
        # nest: [0,100) ∪ [1,51) ∪ [2,12) — union 100 s
        ("nest", s(0), 100.0), ("nest", s(1), 50.0), ("nest", s(2), 10.0),
    ]
    tbl = pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "value": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_interval_coverage(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_INTERVAL_COVERAGE).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["event_type"], got["covered_us"]))
    assert by == {
        "b2b": 20_000_000,
        "olap": 15_000_000,
        "gap": 10_000_000,
        "zero": 0,
        "nest": 100_000_000,
    }


def test_user_entropy_degenerate(ray_session, tmp_path):
    """Single-event-type user has entropy exactly 0; a uniform 4-type user
    has entropy exactly 2 bits (both integer-exact after e6 rounding)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_USER_ENTROPY, q_user_entropy

    users = [1] * 7 + [2, 2, 2, 2]
    types = ["click"] * 7 + ["a", "b", "c", "d"]
    tbl = pa.table(
        {
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(types, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_user_entropy(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_USER_ENTROPY).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["user_id"], got["entropy_e6"]))
    assert by == {1: 0, 2: 2_000_000}


def test_epoch_shuffle_is_reproducible_permutation(ray_session):
    """Every epoch's pos is a permutation of 0..n-1, the two epochs order
    documents differently, and a second invocation is bit-identical (the
    resumable-training contract)."""
    import numpy as np

    from ptt_spider_go_ray.queries import q_epoch_shuffle

    a = to_pandas(q_epoch_shuffle(SF)).sort_values(["epoch", "pos"]).reset_index(drop=True)
    b = to_pandas(q_epoch_shuffle(SF)).sort_values(["epoch", "pos"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    n = a["doc_id"].nunique()
    for ep, sub in a.groupby("epoch"):
        assert sorted(sub["pos"]) == list(range(n))
    e0 = a[a["epoch"] == 0]["doc_id"].to_numpy()
    e1 = a[a["epoch"] == 1]["doc_id"].to_numpy()
    assert not np.array_equal(e0, e1)


def test_charlm_unicode_and_short_docs(ray_session, tmp_path):
    """Character-based bigrams (CJK chars count as ONE char, matching SQL
    substr), exactly-2-char docs included, <2-char docs excluded."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_CHARLM_SCORE, q_charlm_score

    texts = ["中文字串測試", "ab", "x", "", "hello world", "中a中a中"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = canon(to_pandas(q_charlm_score(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_CHARLM_SCORE).df())
    pd.testing.assert_frame_equal(got, want)
    assert set(got["doc_id"]) == {0, 1, 4, 5}  # 1-char and empty excluded
    by = dict(zip(got["doc_id"], got["n_bigrams"]))
    assert by[0] == 5 and by[1] == 1 and by[5] == 4


def test_fuzzy_pairs_singleton_and_tie_blocks(ray_session, tmp_path):
    """A block with one name yields no pairs; identical names (hamming 0)
    and one-char-apart names both pair; two-apart names don't."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_FUZZY_NAME_PAIRS, q_fuzzy_name_pairs

    names = [
        "Customer#000000100",  # block 0000001: pairs with next two
        "Customer#000000101",  # hamming 1 vs ...100
        "Customer#000000100",  # hamming 0 vs ...100 (dup name, other key)
        "Customer#000000199",  # hamming 2 vs ...100 AND ...101 — no pairs
        "Customer#000009900",  # block 0000099: singleton
    ]
    tbl = pa.table(
        {
            "c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "c_name": pa.array(names, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "customer.parquet")
    got = canon(to_pandas(q_fuzzy_name_pairs(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW customer AS SELECT * FROM read_parquet('{tmp_path}/customer.parquet')"
    )
    want = canon(con.sql(SQL_FUZZY_NAME_PAIRS).df())
    pd.testing.assert_frame_equal(got, want)
    pairs = set(zip(got["key_a"], got["key_b"]))
    assert pairs == {(1, 2), (1, 3), (2, 3)}


def test_overlap_pairs_zero_length_and_colocated(ray_session, tmp_path):
    """The complement-count corrections: a zero-length point strictly inside
    a covering interval DOES overlap it, co-located zero-length pairs do
    NOT overlap each other (and must not be double-subtracted), back-to-back
    intervals don't overlap, and nested intervals count exactly."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_OVERLAP_PAIRS, q_overlap_pairs

    t0 = datetime.datetime(2024, 1, 1)

    def at(sec):
        return t0 + datetime.timedelta(seconds=sec)

    rows = [
        # user 1: three nested → 3 pairs; plus one disjoint after → 0 more
        (1, at(0), 100.0), (1, at(1), 50.0), (1, at(2), 10.0), (1, at(200), 5.0),
        # user 2: two co-located zero-length points (no pair between them)
        # inside a covering interval (2 pairs with it)
        (2, at(5), 0.0), (2, at(5), 0.0), (2, at(0), 100.0),
        # user 3: back-to-back (end == start) → 0 pairs
        (3, at(0), 10.0), (3, at(10), 10.0),
        # user 4: single event → absent from output
        (4, at(0), 10.0),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "value": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_overlap_pairs(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_OVERLAP_PAIRS).df())
    pd.testing.assert_frame_equal(got, want)
    assert dict(zip(got["user_id"], got["n_overlaps"])) == {1: 3, 2: 2}


def test_winsorized_mean_small_group_rank_convention(ray_session, tmp_path):
    """n=4 and n=5 groups are exactly where ceil(q·n)−1 (DuckDB's
    quantile_disc) differs from floor(q·(n−1)) — the engine must follow
    the former. Constant group sanity-checks clamp-to-self."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_WINSORIZED_MEAN, q_winsorized_mean

    et = ["four"] * 4 + ["five"] * 5 + ["const"] * 10
    vals = [1.0, 2.0, 3.0, 4.0] + [1.0, 2.0, 3.0, 4.0, 5.0] + [7.0] * 10
    tbl = pa.table(
        {
            "event_type": pa.array(et, pa.string()),
            "value": pa.array(vals, pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_winsorized_mean(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_WINSORIZED_MEAN).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["event_type"], got["wmean_cents"]))
    assert by["const"] == 700.0
    # four: P10=100 (rank 0), P90=400 (rank ceil(3.6)-1=3) → untouched mean
    assert by["four"] == 250.0


def test_dup_ngram_frac_planted_repetition(ray_session, tmp_path):
    """A doc that repeats a phrase must report the exact duplicate 3-gram
    fraction; an all-unique doc reports 0; short docs are excluded."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_DUP_NGRAM_FRAC, q_dup_ngram_frac

    texts = [
        "a b c a b c a b c",   # 7 grams, distinct {abc,bca,cab} → 4 dups
        "one two three four",  # 2 grams, 0 dups
        "x y",                 # <3 words → excluded
        "",                    # excluded
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = canon(to_pandas(q_dup_ngram_frac(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_DUP_NGRAM_FRAC).df())
    pd.testing.assert_frame_equal(got, want)
    assert set(got["doc_id"]) == {0, 1}
    r0 = got[got["doc_id"] == 0].iloc[0]
    assert (r0["n_grams"], r0["n_dup"]) == (7, 4) and r0["dup_frac"] == 4 / 7


def test_psi_drift_identical_halves_is_zero(ray_session, tmp_path):
    """Identical value distributions in both halves → PSI exactly 0 (the
    smoothing terms cancel when counts AND totals match)."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_PSI_DRIFT, q_psi_drift

    t0 = datetime.datetime(2024, 1, 1)
    half_vals = sorted([1.0, 2.0, 3.0, 4.0, 5.0] * 2)  # 10 values per half
    ts = [t0 + datetime.timedelta(hours=i) for i in range(20)]
    tbl = pa.table(
        {
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(half_vals + half_vals, pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = to_pandas(q_psi_drift(str(tmp_path)))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = con.sql(SQL_PSI_DRIFT).df()
    assert got["psi_e6"].tolist() == want["psi_e6"].tolist() == [0]


def test_incremental_agg_equals_full_recompute(ray_session):
    """base ⊕ delta must equal a from-scratch aggregate of the maintained
    set (base minus retractions plus inserts) computed independently."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import q_incremental_agg

    got = to_pandas(q_incremental_agg(SF)).sort_values("o_orderstatus")
    df = pq.read_table(
        f"{SF}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    ).to_pandas()
    k = df["o_orderkey"]
    live = df[(k % 10 == 0) | ((k % 10 != 0) & (k % 7 != 0))]
    import numpy as np

    want = (
        live.assign(cents=np.rint(live["o_totalprice"] * 100).astype("int64"))
        .groupby("o_orderstatus")
        .agg(n_orders=("cents", "size"), total_cents=("cents", "sum"))
        .reset_index()
        .sort_values("o_orderstatus")
    )
    assert got["n_orders"].tolist() == want["n_orders"].tolist()
    assert got["total_cents"].tolist() == want["total_cents"].tolist()


def test_drawdown_shapes(ray_session, tmp_path):
    """Monotonic-up user has drawdown 0; a peak-then-trough user reports the
    exact peak-to-trough depth; a lone event is 0; negative values work."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_DRAWDOWN, q_drawdown

    base = pd.Timestamp("2024-01-01")
    s = lambda k: base + pd.Timedelta(seconds=k)
    rows = [
        # user 1: +10 +20 +30 → cum rises monotonically → dd 0
        (1, s(0), 10.0), (1, s(1), 20.0), (1, s(2), 30.0),
        # user 2: +100 −40 −30 +50 → peak 100, trough 30 → dd 70.00
        (2, s(0), 100.0), (2, s(1), -40.0), (2, s(2), -30.0), (2, s(3), 50.0),
        # user 3: single event → dd 0
        (3, s(0), -5.0),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "value": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_drawdown(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_DRAWDOWN).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["user_id"], got["max_drawdown_c"]))
    assert by == {1: 0, 2: 7000, 3: 0}


def test_scd2_run_compression(ray_session, tmp_path):
    """Consecutive equal types collapse into one interval; a type that flips
    back reopens a NEW interval; the last run per user stays open (-1)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_SCD2_INTERVALS, q_scd2_intervals

    base = pd.Timestamp("2024-01-01")
    s = lambda k: base + pd.Timedelta(seconds=k)
    rows = [  # user 1: a a b a → 3 runs; user 2: one run of c
        (1, s(0), "a"), (1, s(10), "a"), (1, s(20), "b"), (1, s(30), "a"),
        (2, s(0), "c"), (2, s(5), "c"),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_scd2_intervals(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_SCD2_INTERVALS).df())
    pd.testing.assert_frame_equal(got, want)
    u1 = got[got["user_id"] == 1].sort_values("valid_from_us")
    assert u1["event_type"].tolist() == ["a", "b", "a"]
    assert u1["n_events"].tolist() == [2, 1, 1]
    e = 1_000_000
    assert u1["valid_from_us"].tolist() == [
        v + base.value // 1000 for v in [0, 20 * e, 30 * e]
    ]
    assert u1["valid_to_us"].tolist() == [
        20 * e + base.value // 1000, 30 * e + base.value // 1000, -1
    ]
    u2 = got[got["user_id"] == 2]
    assert u2["n_events"].tolist() == [2] and u2["valid_to_us"].tolist() == [-1]


def test_changepoint_step_and_constant(ray_session, tmp_path):
    """A clean level step is split exactly at the step; a constant series has
    objective 0 everywhere and the smallest-k tiebreak picks k=1."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_CHANGEPOINT, q_changepoint

    base = pd.Timestamp("2024-01-01")
    s = lambda k: base + pd.Timedelta(seconds=k)
    rows = [("step", s(i), 0.0 if i < 5 else 100.0) for i in range(10)]
    rows += [("flat", s(i), 42.0) for i in range(6)]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "value": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_changepoint(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_CHANGEPOINT).df())
    pd.testing.assert_frame_equal(got, want)
    by = {r.event_type: (r.split_k, r.obj_e6) for r in got.itertuples()}
    assert by["step"] == (5, 10_000 * 1_000_000)  # |0 − 100.00| in cents·e6
    assert by["flat"] == (1, 0)


def test_skew_sign_and_symmetry(ray_session, tmp_path):
    """Symmetric values → skewness exactly 0 (integer moments cancel);
    a right-tailed set → positive; left-tailed → negative."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_SKEW_PER_TYPE, q_skew_per_type

    rows = [("sym", v) for v in (1.0, 2.0, 3.0)]
    rows += [("right", v) for v in (1.0, 1.0, 1.0, 10.0)]
    rows += [("left", v) for v in (10.0, 10.0, 10.0, 1.0)]
    tbl = pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "value": pa.array([r[1] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_skew_per_type(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_SKEW_PER_TYPE).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["event_type"], got["skewness"]))
    assert by["sym"] == 0.0
    assert by["right"] > 0 and by["left"] < 0
    assert by["right"] == -by["left"]  # mirrored sets: exact negation


def test_tpch_q18_threshold_strictness(ray_session, tmp_path):
    """An order summing exactly to the threshold is EXCLUDED (strict >);
    one quantity-cent above is included, with its customer name joined."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_TPCH_Q18, q_tpch_q18

    li = pa.table(
        {
            "l_orderkey": pa.array([1, 1, 2, 2], pa.int64()),
            "l_quantity": pa.array([100.0, 150.0, 100.0, 150.01], pa.float64()),
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array([1, 2], pa.int64()),
            "o_custkey": pa.array([7, 8], pa.int64()),
            "o_totalprice": pa.array([10.0, 20.0], pa.float64()),
        }
    )
    cust = pa.table(
        {
            "c_custkey": pa.array([7, 8], pa.int64()),
            "c_name": pa.array(["Customer#7", "Customer#8"], pa.string()),
        }
    )
    pq.write_table(li, tmp_path / "lineitem.parquet")
    pq.write_table(orders, tmp_path / "orders.parquet")
    pq.write_table(cust, tmp_path / "customer.parquet")
    got = canon(to_pandas(q_tpch_q18(str(tmp_path))))
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer"):
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')"
        )
    want = canon(con.sql(SQL_TPCH_Q18).df())
    pd.testing.assert_frame_equal(got, want)
    assert got["o_orderkey"].tolist() == [2]  # order 1 sums to exactly 250.00
    assert got["c_name"].tolist() == ["Customer#8"]
    assert got["sum_qty_c"].tolist() == [25_001]


def test_weighted_median_boundary_and_degenerate(ray_session, tmp_path):
    """2·cumw == W lands EXACTLY on a value (lower weighted median keeps it);
    an all-equal-value group takes the degenerate zero-width-range path."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_WEIGHTED_MEDIAN, q_weighted_median

    rows = [
        # flag A: v=1.00 w=1, v=2.00 w=1 → W=200-cents, 2·cw(1.00)=200 ≥ 200
        # → the LOWER value 1.00 is the weighted median
        ("A", 1.00, 1.0), ("A", 2.00, 1.0),
        # flag B: heavy tail wins: v=1 w=1, v=9 w=10 → median 9.00
        ("B", 1.00, 1.0), ("B", 9.00, 10.0),
        # flag C: all values equal → degenerate hi==lo
        ("C", 5.00, 2.0), ("C", 5.00, 3.0),
    ]
    tbl = pa.table(
        {
            "l_returnflag": pa.array([r[0] for r in rows], pa.string()),
            "l_extendedprice": pa.array([r[1] for r in rows], pa.float64()),
            "l_quantity": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "lineitem.parquet")
    got = canon(to_pandas(q_weighted_median(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{tmp_path}/lineitem.parquet')"
    )
    want = canon(con.sql(SQL_WEIGHTED_MEDIAN).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["l_returnflag"], got["wmedian_c"]))
    assert by == {"A": 100, "B": 900, "C": 500}


def test_length_filter_exact_rank_band(ray_session, tmp_path):
    """20 docs with lengths 1..20: lo = value at rank ⌈20·5/100⌉=1 → 1,
    hi = rank ⌈19⌉ → 19, so exactly doc 20 is dropped."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_LENGTH_FILTER, q_length_filter

    tbl = pa.table(
        {
            "doc_id": pa.array(range(1, 21), pa.int64()),
            "n_chars": pa.array(range(1, 21), pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = canon(to_pandas(q_length_filter(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_LENGTH_FILTER).df())
    pd.testing.assert_frame_equal(got, want)
    assert got["n_chars"].min() == 1 and got["n_chars"].max() == 19
    assert len(got) == 19


def test_ship_delay_hand_computed(ray_session, tmp_path):
    """Two orders, three lineitems: exact integer day deltas and the final
    single-division average."""
    import pandas as _pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_SHIP_DELAY, q_ship_delay

    d = lambda s: _pd.Timestamp(s)
    li = pa.table(
        {
            "l_orderkey": pa.array([1, 1, 2], pa.int64()),
            "l_shipdate": pa.array(
                [d("2024-01-05"), d("2024-01-11"), d("2024-02-03")],
                pa.timestamp("us"),
            ),
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array([1, 2], pa.int64()),
            "o_orderpriority": pa.array(["1-URGENT", "2-HIGH"], pa.string()),
            "o_orderdate": pa.array(
                [d("2024-01-01"), d("2024-02-01")], pa.timestamp("us")
            ),
        }
    )
    pq.write_table(li, tmp_path / "lineitem.parquet")
    pq.write_table(orders, tmp_path / "orders.parquet")
    got = canon(to_pandas(q_ship_delay(str(tmp_path))))
    con = duckdb.connect()
    for t in ("lineitem", "orders"):
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')"
        )
    want = canon(con.sql(SQL_SHIP_DELAY).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["o_orderpriority"], got["avg_delay_days"]))
    assert by == {"1-URGENT": 7.0, "2-HIGH": 2.0}  # (4+10)/2, 2/1


def test_daily_type_corr_perfect_and_zero_fill(ray_session, tmp_path):
    """A series and its exact double correlate to 1.0; an anti-mover hits
    −1.0; a type absent on one day exercises the zero-fill path on both
    engines identically."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_DAILY_TYPE_CORR, q_daily_type_corr

    base = pd.Timestamp("2024-01-01")
    day = lambda k: base + pd.Timedelta(days=k)
    rows = []
    for k, v in enumerate([10.0, 20.0, 30.0]):
        rows.append(("up", day(k), v))
        rows.append(("up2x", day(k), 2 * v))
        rows.append(("down", day(k), 40.0 - v))
    rows.append(("sparse", day(0), 5.0))  # absent on days 1,2 → zero-filled
    tbl = pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "value": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_daily_type_corr(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_DAILY_TYPE_CORR).df())
    pd.testing.assert_frame_equal(got, want)
    by = {(r.type_a, r.type_b): r.corr for r in got.itertuples()}
    assert by[("up", "up2x")] == 1.0
    assert by[("down", "up")] == -1.0
    assert len(by) == 6  # C(4,2): sparse correlates too (zero-filled)


def test_source_overlap_planted(ray_session, tmp_path):
    """A 64-char prefix shared by three sources yields all three pairs; a
    unique prefix yields none; duplicate docs within ONE source don't
    self-pair."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_SOURCE_OVERLAP, q_source_overlap

    shared = "x" * 64
    rows = [
        ("s1", shared + " tail one"),
        ("s2", shared + " tail two"),
        ("s3", shared + " tail three"),
        ("s1", shared + " again same source"),  # same (fp, source) → no effect
        ("s1", "unique text only here " + "y" * 50),
    ]
    tbl = pa.table(
        {
            "source": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = canon(to_pandas(q_source_overlap(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_SOURCE_OVERLAP).df())
    pd.testing.assert_frame_equal(got, want)
    pairs = {(r.source_a, r.source_b): r.n_shared for r in got.itertuples()}
    assert pairs == {("s1", "s2"): 1, ("s1", "s3"): 1, ("s2", "s3"): 1}


def test_tpch_q10_quarter_and_flag_filters(ray_session, tmp_path):
    """Only flag='R' lineitems of in-quarter orders contribute; revenue is
    the exact price·(100−disc) integer; customer name + nation attach."""
    import pandas as _pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_TPCH_Q10, q_tpch_q10

    d = lambda s: _pd.Timestamp(s)
    orders = pa.table(
        {
            "o_orderkey": pa.array([1, 2, 3], pa.int64()),
            "o_custkey": pa.array([7, 7, 8], pa.int64()),
            "o_orderdate": pa.array(
                [d("1996-02-01"), d("1995-12-31"), d("1996-03-31")],
                pa.timestamp("us"),
            ),  # order 2 is OUT of the quarter
        }
    )
    li = pa.table(
        {
            "l_orderkey": pa.array([1, 1, 2, 3], pa.int64()),
            "l_returnflag": pa.array(["R", "N", "R", "R"], pa.string()),
            "l_extendedprice": pa.array([10.0, 99.0, 50.0, 20.0], pa.float64()),
            "l_discount": pa.array([0.05, 0.0, 0.0, 0.10], pa.float64()),
        }
    )
    cust = pa.table(
        {
            "c_custkey": pa.array([7, 8], pa.int64()),
            "c_name": pa.array(["C7", "C8"], pa.string()),
            "c_nationkey": pa.array([0, 1], pa.int32()),
        }
    )
    nat = pa.table(
        {
            "n_nationkey": pa.array([0, 1], pa.int32()),
            "n_name": pa.array(["ALPHA", "BETA"], pa.string()),
        }
    )
    for name, t in [("orders", orders), ("lineitem", li),
                    ("customer", cust), ("nation", nat)]:
        pq.write_table(t, tmp_path / f"{name}.parquet")
    got = canon(to_pandas(q_tpch_q10(str(tmp_path))))
    con = duckdb.connect()
    for t in ("orders", "lineitem", "customer", "nation"):
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')"
        )
    want = canon(con.sql(SQL_TPCH_Q10).df())
    pd.testing.assert_frame_equal(got, want)
    by = {r.c_custkey: (r.revenue_e4, r.n_name) for r in got.itertuples()}
    # cust 7: order 1's R item only → 1000¢·95 = 95000; cust 8: 2000¢·90
    assert by == {7: (95_000, "ALPHA"), 8: (180_000, "BETA")}


def test_vocab_per_source_distinct_and_casefold(ray_session, tmp_path):
    """Repeated tokens count once per source; casefolding merges variants;
    the same token in two sources counts in each."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_VOCAB_PER_SOURCE, q_vocab_per_source

    docs = pa.table(
        {
            "source": pa.array(["s1", "s1", "s2"], pa.string()),
            "text": pa.array(
                ["The the THE cat", "cat dog", "Cat only"], pa.string()
            ),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = canon(to_pandas(q_vocab_per_source(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_VOCAB_PER_SOURCE).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["source"], got["n_tokens"]))
    assert by == {"s1": 3, "s2": 2}  # s1: the/cat/dog, s2: cat/only


def test_burstiness_constant_vs_bursty(ray_session, tmp_path):
    """A type with identical daily counts has Fano 0; concentrating the
    same events on one day is maximally bursty; a type absent on some days
    gets REAL zeros in its series (the spine is shared across types)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import (
        SQL_BURSTINESS_PER_TYPE,
        q_burstiness_per_type,
    )

    base = pd.Timestamp("2024-01-01")
    day = lambda k: base + pd.Timedelta(days=k)
    rows = []
    for k in range(4):
        rows += [("flat", day(k))] * 3          # 3 per day → Fano 0
    rows += [("burst", day(0))] * 12            # all 12 on day 0
    tbl = pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = canon(to_pandas(q_burstiness_per_type(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = canon(con.sql(SQL_BURSTINESS_PER_TYPE).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["event_type"], got["fano_e6"]))
    assert by["flat"] == 0
    # burst: counts [12,0,0,0] over the shared 4-day spine:
    # var/mean = (4·144 − 144)/(4·12) = 432/48 = 9.0
    assert by["burst"] == 9_000_000


def test_rare_token_docs_threshold(ray_session, tmp_path):
    """Rare = document frequency STRICTLY below 25% of docs: a token in 1/8
    docs counts, a token in exactly 2/8 (df·4 == n) does not; repeats
    within one doc count once (distinct pairs)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_RARE_TOKEN_DOCS, q_rare_token_docs

    texts = ["shared"] * 8
    texts[0] = "shared quux quux"        # quux: df 1 of 8 → rare, counted once
    texts[1] = "shared boundary"         # boundary: df 2 → 2·4 == 8 → NOT rare
    texts[2] = "shared boundary"
    docs = pa.table(
        {
            "doc_id": pa.array(range(1, 9), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = canon(to_pandas(q_rare_token_docs(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_RARE_TOKEN_DOCS).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["doc_id"], got["n_rare"]))
    assert by == {1: 1}  # only doc 1's quux; 'shared'/'boundary' not rare


def test_repeat_interval_lower_median(ray_session, tmp_path):
    """Even gap counts take the LOWER middle; single-order customers are
    excluded; same-day repeat orders yield gap 0."""
    import pandas as _pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_REPEAT_INTERVAL, q_repeat_interval

    d = lambda s: _pd.Timestamp(s)
    rows = [
        # cust 1: days 0, 10, 40, 41 → gaps [10, 30, 1] → median 10
        (1, d("2024-01-01")), (1, d("2024-01-11")),
        (1, d("2024-02-10")), (1, d("2024-02-11")),
        # cust 2: gaps [5, 20] (even count) → LOWER median 5
        (2, d("2024-01-01")), (2, d("2024-01-06")), (2, d("2024-01-26")),
        # cust 3: single order → excluded
        (3, d("2024-01-01")),
        # cust 4: two same-day orders → gap 0
        (4, d("2024-03-01")), (4, d("2024-03-01")),
    ]
    tbl = pa.table(
        {
            "o_custkey": pa.array([r[0] for r in rows], pa.int64()),
            "o_orderdate": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "o_orderkey": pa.array(range(len(rows)), pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "orders.parquet")
    got = canon(to_pandas(q_repeat_interval(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW orders AS SELECT * FROM read_parquet('{tmp_path}/orders.parquet')"
    )
    want = canon(con.sql(SQL_REPEAT_INTERVAL).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["o_custkey"], got["median_gap_days"]))
    assert by == {1: 10, 2: 5, 4: 0}


def test_keyword_per_doc_tfidf_argmax(ray_session, tmp_path):
    """A term repeated in one doc wins on tf; a corpus-wide term loses on
    idf; exact score ties break toward the lexicographically smaller term."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_KEYWORD_PER_DOC, q_keyword_per_doc

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "common zebra zebra",   # zebra tf=2, df=1 → clear winner
                    "common quux",          # quux df=1 beats common df=3
                    "bbb aaa",              # same tf=1, df=1 → tie → 'aaa'
                ],
                pa.string(),
            ),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = canon(to_pandas(q_keyword_per_doc(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_KEYWORD_PER_DOC).df())
    pd.testing.assert_frame_equal(got, want)
    by = dict(zip(got["doc_id"], got["term"]))
    assert by == {1: "zebra", 2: "quux", 3: "aaa"}


def test_blocklist_hits_counts_occurrences(ray_session, tmp_path):
    """Every OCCURRENCE counts (not distinct terms); clean and empty docs
    keep=true with 0 hits."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_BLOCKLIST_HITS, q_blocklist_hits

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["dup dup spark ok", "totally clean text", ""], pa.string()
            ),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = canon(to_pandas(q_blocklist_hits(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_BLOCKLIST_HITS).df())
    pd.testing.assert_frame_equal(got, want)
    by = {r.doc_id: (r.n_hits, r.keep) for r in got.itertuples()}
    assert by == {1: (3, False), 2: (0, True), 3: (0, True)}


def test_rfm_cells_threshold_boundaries(ray_session, tmp_path):
    """A value exactly AT a band threshold stays in the lower band (strict >
    promotion); 4 customers with strictly increasing R/F/M land on the
    diagonal cells (1,1,1)..(4,4,4)."""
    import pandas as _pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_RFM_CELLS, q_rfm_cells

    base = _pd.Timestamp("2024-01-01")
    rows = []
    # cust k: k orders, each 10^k dollars, last day = k
    for k in range(1, 5):
        for i in range(k):
            rows.append((k, base + _pd.Timedelta(days=k), float(10 ** k)))
    tbl = pa.table(
        {
            "o_custkey": pa.array([r[0] for r in rows], pa.int64()),
            "o_orderdate": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "o_totalprice": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "orders.parquet")
    got = canon(to_pandas(q_rfm_cells(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW orders AS SELECT * FROM read_parquet('{tmp_path}/orders.parquet')"
    )
    want = canon(con.sql(SQL_RFM_CELLS).df())
    pd.testing.assert_frame_equal(got, want)
    cells = {(r.r, r.f, r.m): r.n_customers for r in got.itertuples()}
    assert cells == {(k, k, k): 1 for k in range(1, 5)}


def test_ffill_locf_leading_and_singletons(ray_session, tmp_path):
    """Rows before a user's first observation are -1-filled; a user whose
    only event is unobserved stays -1; fills carry exact doubles forward."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_FFILL_LOCF, q_ffill_locf

    base = pd.Timestamp("2024-01-01").value // 1000
    ts = pa.array(
        np.array([base + i * 1_000_000 for i in range(6)], "datetime64[us]")
    )
    # user 1: ids 1,2,5,10 -> obs at 5 and 10; user 2: id 3 only (never obs)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 5, 10, 3, 4], pa.int64()),
                "user_id": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
                "ts": ts,
                "value": pa.array([9.5, 8.25, 3.125, 7.75, 2.5, 6.0], pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = canon(to_pandas(q_ffill_locf(str(tmp_path))))
    want = canon(_duck_on(tmp_path, SQL_FFILL_LOCF, ["events"]))
    pd.testing.assert_frame_equal(got, want)
    by_id = {int(r.event_id): r.filled for r in got.itertuples()}
    assert by_id[1] == -1.0 and by_id[2] == -1.0  # before first obs
    assert by_id[5] == 3.125 and by_id[10] == 7.75  # obs rows keep own value
    assert by_id[3] == -1.0 and by_id[4] == -1.0  # user 2 never observed


def test_bm25_zero_df_term_and_empty_docs(ray_session, tmp_path):
    """A query term absent from the corpus contributes nothing; empty/null
    docs never score; scores rank by quantized integer with doc_id ties."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_BM25_TOPK, q_bm25_topk

    texts = [
        "hash join hash",          # doc 0: tf(hash)=2, tf(join)=1
        "scan scan scan scan",     # doc 1
        None,                      # doc 2: null
        "",                        # doc 3: empty
        "nothing relevant here",   # doc 4: no query terms
        "join scan",               # doc 5
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(range(len(texts))), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = canon(to_pandas(q_bm25_topk(str(tmp_path))))
    want = canon(_duck_on(tmp_path, SQL_BM25_TOPK, ["documents"]))
    pd.testing.assert_frame_equal(got, want)
    assert set(got["doc_id"]) == {0, 1, 5}  # only docs containing query terms


def test_pagerank_star_graph(ray_session, tmp_path):
    """Star graph (one part in every order): the hub part must out-rank every
    order node, integer ranks bit-equal to the unrolled SQL iterations, and
    duplicate (order, part) lineitem rows must collapse to one edge."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_PAGERANK_TOPK, q_pagerank_topk

    # orders 1..6 all contain part 0; order 1 repeats it on 3 lines
    ok = [1, 1, 1, 2, 3, 4, 5, 6]
    pk = [0] * len(ok)
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(ok, pa.int64()),
                "l_partkey": pa.array(pk, pa.int64()),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    got = canon(to_pandas(q_pagerank_topk(str(tmp_path))))
    want = canon(_duck_on(tmp_path, SQL_PAGERANK_TOPK, ["lineitem"]))
    pd.testing.assert_frame_equal(got, want)
    ranks = {int(r.node): int(r.pr) for r in got.itertuples()}
    hub = ranks[2 * 0 + 1]
    assert all(hub > v for n, v in ranks.items() if n != 1)
    # all six order nodes are symmetric -> identical rank
    assert len({v for n, v in ranks.items() if n != 1}) == 1


def test_perplexity_buckets_tiny_language_groups(ray_session, tmp_path):
    """ntile fill rule at the degenerate edge: a language with fewer docs
    than buckets (each doc its own bucket, later buckets empty) and one
    with n % 3 != 0 (the first n%3 buckets take the extra row) must both
    match DuckDB's ntile exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import (
        SQL_PERPLEXITY_BUCKETS,
        q_perplexity_buckets,
    )

    texts = ["aa bb cc dd", "bb cc dd ee", "cc dd ee ff aa", "dd ee", "ee ff aa bb",
             "ff aa", "aa cc"]
    langs = ["xx", "xx", "yy", "yy", "yy", "yy", "yy"]  # xx: n=2 < 3 buckets
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "source": pa.array(["s"] * len(texts), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")

    got = canon(to_pandas(q_perplexity_buckets(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_PERPLEXITY_BUCKETS).df())
    pd.testing.assert_frame_equal(got, want)
    # the tiny language really hit the q=0 path: 2 buckets of one doc each
    xx = got[got["lang"] == "xx"]
    assert xx["bucket"].tolist() == [1, 2] and xx["n_docs"].tolist() == [1, 1]


def test_lsh_recall_eval_no_candidates_null_parity(ray_session, tmp_path):
    """With no LSH candidates and no true pairs, precision/recall are NULL
    in SQL and NaN in the engine — both must surface as float64 NaN so the
    driver's value hash agrees."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import SQL_LSH_RECALL_EVAL, q_lsh_recall_eval

    # wildly different docs: no shared shingles, no band collisions
    texts = [
        " ".join(f"tok{i}w{j}" for j in range(12)) for i in range(8)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
            "source": pa.array(["s"] * len(texts), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")

    got = canon(to_pandas(q_lsh_recall_eval(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = canon(con.sql(SQL_LSH_RECALL_EVAL).df())
    assert got["n_cand"].iloc[0] == 0 and got["n_true"].iloc[0] == 0
    assert np.isnan(got["lsh_precision"].iloc[0])
    pd.testing.assert_frame_equal(got, want)


def _sf_copy(tmp_path, table: str, rewrite) -> str:
    """sf0.001 with ``table`` replaced by ``rewrite(table)`` and every other
    table linked in."""
    import os

    import pyarrow.parquet as pq

    from ptt_spider_go_ray.oracle.duck import TABLES

    for t in TABLES:
        if t != table:
            os.symlink(f"{SF}/{t}.parquet", tmp_path / f"{t}.parquet")
    pq.write_table(rewrite(pq.read_table(f"{SF}/{table}.parquet")), tmp_path / f"{table}.parquet")
    return str(tmp_path)


def _null_every_10th(col: str):
    def rewrite(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(col)
        null = pa.array(np.arange(t.num_rows) % 10 == 0)
        return t.set_column(i, t.schema.field(i),
                            pc.if_else(null, pa.scalar(None, t.schema.field(i).type), t[col]))
    return rewrite


def _matches_duckdb(name: str, sf_dir: str) -> None:
    import ptt_spider_go_ray.queries as Q

    got = canon(to_pandas(getattr(Q, f"q_{name}")(sf_dir)))
    want = canon(duck_result(getattr(Q, f"SQL_{name.upper()}"), sf_dir))
    pd.testing.assert_frame_equal(got, want, check_dtype=True)


@pytest.mark.parametrize("case", ["empty", "no_match"])
@pytest.mark.parametrize("name", ["tpch_q6", "tpch_q17", "tpch_q19", "promo_revenue"])
def test_keyless_sums_on_degenerate_lineitem(name, case, ray_session, tmp_path):
    """The keyless global sums give DuckDB's one row on a zero-row lineitem
    and on one whose rows all miss q_tpch_q6's ship-date window: a SUM over
    no rows is NULL unless the SQL COALESCEs it, and so is x / 0."""
    import datetime

    import ptt_spider_go_ray.queries as Q

    def rewrite(li: pa.Table) -> pa.Table:
        if case == "empty":
            return li.slice(0, 0)
        # every ship date before both the q6 and the promo_revenue window
        ship = li.schema.get_field_index("l_shipdate")
        return li.set_column(ship, "l_shipdate", pc.subtract(
            li["l_shipdate"], pa.scalar(datetime.timedelta(days=20 * 365), pa.duration("us"))))

    sf_dir = _sf_copy(tmp_path, "lineitem", rewrite)
    assert len(duck_result(getattr(Q, f"SQL_{name.upper()}"), sf_dir)) == 1
    _matches_duckdb(name, sf_dir)


@pytest.mark.parametrize("name", [
    "mode_per_type", "gini_per_type", "skew_per_type", "trend_per_type", "salted_agg",
    "zscore_norm", "mad_per_type", "winsorized_mean", "daily_type_corr",
    "percent_rank", "haar_energy",
])
def test_null_event_type_is_a_group(name, ray_session, tmp_path):
    """Every 10th event_type NULL: a NULL key is its own group in the
    combiner partials (``_partial``) as in DuckDB's GROUP BY, and the
    queries whose SQL joins USING (event_type) drop it as DuckDB does."""
    _matches_duckdb(name, _sf_copy(tmp_path, "events", _null_every_10th("event_type")))


_DEGENERATE = {  # input → (table, rewrite of that sf0.001 table)
    "null_event_type": ("events", _null_every_10th("event_type")),
    "null_value": ("events", _null_every_10th("value")),
    "empty_events": ("events", lambda t: t.slice(0, 0)),
    "null_totalprice": ("orders", _null_every_10th("o_totalprice")),
    "null_source": ("documents", _null_every_10th("source")),
}


@pytest.mark.parametrize("name,case", [
    ("value_extremes", "null_event_type"), ("json_extract_agg", "null_event_type"),
    ("percentiles", "null_event_type"), ("value_histogram", "null_value"),
    ("psi_drift", "null_value"), ("percentiles", "null_value"),
    ("value_extremes", "empty_events"), ("json_extract_agg", "empty_events"),
    ("psi_drift", "empty_events"), ("ols_outliers", "empty_events"),
    ("profile_columns", "null_totalprice"), ("mixture_plan", "null_source"),
])
def test_degenerate_input_matches_duckdb(name, case, ray_session, tmp_path):
    """Min/max folds on NULL keys, NULL values and an empty table: mins and
    maxes skip NULL, a NULL key is its own group, an empty input folds to
    DuckDB's typed result, and DuckDB's LEAST skips NULL (a NULL value is
    in the top histogram bin). A NULL ``source`` gets its own ranks and
    NULL weight-derived columns in ``mixture_plan``."""
    table, rewrite = _DEGENERATE[case]
    _matches_duckdb(name, _sf_copy(tmp_path, table, rewrite))
