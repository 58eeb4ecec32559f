"""Edge pins for the corpus-audit operators (line_dedup,
temperature_mixture, quality_funnel, split_leakage): tiny hand-built
documents tables where the expected behavior is computable by eye, each
checked BOTH against the hand expectation and for exact engine-vs-DuckDB
equality (the driver's gate)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ptt_spider_go_ray.oracle.duck import canon, to_pandas


def _docs(tmp_path, texts, sources=None, doc_ids=None):
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(doc_ids or list(range(n)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "source": pa.array(sources or ["web"] * n, pa.string()),
            "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    return str(tmp_path)


def _duck(tmp_path, sql):
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    return con.sql(sql).df()


def test_line_dedup_df_threshold(ray_session, tmp_path):
    """A line in >= 3 DISTINCT docs is removed everywhere; a line repeated
    5x inside ONE doc has df=1 and every occurrence is kept; whitespace-only
    lines never count."""
    from ptt_spider_go_ray.queries import SQL_LINE_DEDUP, q_line_dedup

    boiler = "(c) example footer"
    texts = [
        f"alpha one\n{boiler}",          # doc 0: boiler removed (df=3)
        f"beta two\n{boiler}\n   \t",    # doc 1: boiler removed, blank line dropped
        f"gamma three\n{boiler}",        # doc 2: boiler removed
        "same line\nsame line\nsame line",  # doc 3: df=1 → all kept
        "shared pair\nunique tail",      # docs 4+5 share a line with df=2 → kept
        "shared pair\nother tail",
        "   \n\t\n",                     # doc 6: no non-empty line → NO row
    ]
    sf = _docs(tmp_path, texts)
    got = canon(to_pandas(q_line_dedup(sf)))
    want = canon(_duck(tmp_path, SQL_LINE_DEDUP))
    pd.testing.assert_frame_equal(got, want)

    by_doc = got.set_index("doc_id")
    assert 6 not in by_doc.index  # all-blank doc emits no row
    for d, kept in ((0, len("alpha one")), (1, len("beta two")),
                    (2, len("gamma three"))):
        assert by_doc.loc[d, "n_removed"] == 1
        assert by_doc.loc[d, "kept_chars"] == kept
    # df=1 repeats all kept; df=2 shared line kept
    assert by_doc.loc[3, "n_removed"] == 0 and by_doc.loc[3, "n_lines"] == 3
    assert by_doc.loc[4, "n_removed"] == 0 and by_doc.loc[5, "n_removed"] == 0


def test_temperature_mixture_boosts_low_resource(ray_session, tmp_path):
    """alpha=0.5 sampling must boost the small source relative to its raw
    share (w_temp > actual_frac for the minority, < for the majority), and
    an all-empty source must not divide by zero; exact vs DuckDB."""
    from ptt_spider_go_ray.queries import (
        SQL_TEMPERATURE_MIXTURE,
        q_temperature_mixture,
    )

    texts = ["x" * 9000, "y" * 100, "", ""]
    sf = _docs(tmp_path, texts, sources=["big", "small", "empty", "empty"])
    got = canon(to_pandas(q_temperature_mixture(sf)))
    want = canon(_duck(tmp_path, SQL_TEMPERATURE_MIXTURE))
    pd.testing.assert_frame_equal(got, want)

    by_src = got.set_index("source")
    assert by_src.loc["small", "w_temp_e6"] > by_src.loc["small", "actual_frac_e6"]
    assert by_src.loc["big", "w_temp_e6"] < by_src.loc["big", "actual_frac_e6"]
    assert (got["w_temp_e6"] > 0).all()  # empty source floored, not inf/0


def test_quality_funnel_stage_counts(ray_session, tmp_path):
    """One doc engineered to stop at each stage: counts are monotone
    nonincreasing and each stage loses exactly the planted doc."""
    from ptt_spider_go_ray.queries import SQL_QUALITY_FUNNEL, q_quality_funnel

    letters_ok = "word " * 60               # 300 chars, 240 letters → passes all
    texts = [
        "",                                  # stops at nonempty
        "short text",                        # stops at min_len (< 200)
        "z" * 30000,                         # stops at max_len (> 20000)
        ("1234567890" * 30),                 # 300 chars, 0 letters → stops at letter_frac
        letters_ok,
        letters_ok,
    ]
    sf = _docs(tmp_path, texts)
    got = canon(to_pandas(q_quality_funnel(sf)))
    want = canon(_duck(tmp_path, SQL_QUALITY_FUNNEL))
    pd.testing.assert_frame_equal(got, want)

    n = got.sort_values("stage_idx")["n_docs"].to_numpy()
    assert list(n) == [6, 5, 4, 3, 2]
    assert (np.diff(n) <= 0).all()


def test_embedding_norm_hist_planted_outliers(ray_session, tmp_path):
    """An all-zero vector lands in bin 0 and an oversized vector in a far
    bin — the broken-embedding detector separates both from the unit-norm
    bulk; exact vs DuckDB."""
    from ptt_spider_go_ray.queries import (
        SQL_EMBEDDING_NORM_HIST,
        q_embedding_norm_hist,
    )

    rng = np.random.default_rng(7)
    bulk = rng.normal(size=(20, 8)).astype(np.float32)
    bulk /= np.linalg.norm(bulk, axis=1, keepdims=True)
    vecs = np.vstack([bulk, np.zeros((1, 8), np.float32), 10.0 * bulk[:1]])
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
            "label": pa.array([0] * len(vecs), pa.int32()),
        }
    )
    pq.write_table(tbl, tmp_path / "embeddings.parquet")

    got = canon(to_pandas(q_embedding_norm_hist(str(tmp_path))))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{tmp_path}/embeddings.parquet')"
    )
    want = canon(con.sql(SQL_EMBEDDING_NORM_HIST).df())
    pd.testing.assert_frame_equal(got, want)

    bins = got.set_index("bin")["n_vecs"]
    assert bins.get(0, 0) == 1                      # the zero vector
    assert got["bin"].max() > 100 * got["bin"].to_numpy()[1]  # 10x-norm far bin


def test_boilerplate_tails_planted_templates(ray_session, tmp_path):
    """Three docs opening with one trigram and two closing with another must
    rank first in their positions; <3-token docs are excluded; exact vs
    DuckDB."""
    from ptt_spider_go_ray.queries import SQL_BOILERPLATE_TAILS, q_boilerplate_tails

    texts = [
        "dear valued customer your order shipped regards acme support team",
        "dear valued customer please see attachment regards acme support team",
        "dear valued customer account notice follows kind regards billing",
        "unrelated words entirely here",
        "two tokens",  # < 3 tokens after [a-z]+ tokenization? 'two tokens' = 2 → excluded
        "",
    ]
    sf = _docs(tmp_path, texts)
    got = canon(to_pandas(q_boilerplate_tails(sf)))
    want = canon(_duck(tmp_path, SQL_BOILERPLATE_TAILS))
    pd.testing.assert_frame_equal(got, want)

    heads = got[got["pos"] == "head"].sort_values("rk")
    tails = got[got["pos"] == "tail"].sort_values("rk")
    assert heads.iloc[0]["gram"] == "dear valued customer"
    assert heads.iloc[0]["n_docs"] == 3
    assert tails.iloc[0]["gram"] == "acme support team"
    assert tails.iloc[0]["n_docs"] == 2


def test_split_leakage_planted_cross_split_shingle(ray_session, tmp_path):
    """Two docs sharing a trigram, planted on OPPOSITE sides of the split
    hash, must surface that pair with n_shared >= 1; exact vs DuckDB."""
    from ptt_spider_go_ray.queries import (
        _SAMPLE_MOD,
        _SAMPLE_MULT,
        _SPLIT_TRAIN,
        _SPLIT_VAL,
        SQL_SPLIT_LEAKAGE,
        q_split_leakage,
    )

    def split_of(doc_id: int) -> str:
        hv = ((doc_id % _SAMPLE_MOD) * _SAMPLE_MULT) % _SAMPLE_MOD
        return "train" if hv < _SPLIT_TRAIN else ("val" if hv < _SPLIT_VAL else "test")

    # find one doc_id per split deterministically
    ids = {}
    i = 0
    while len(ids) < 3:
        s = split_of(i)
        ids.setdefault(s, i)
        i += 1
    shared = "the quick fox"
    texts_by_split = {
        "train": f"{shared} jumps high",
        "val": f"{shared} sleeps now",
        "test": "totally different words here",
    }
    doc_ids = [ids["train"], ids["val"], ids["test"]]
    texts = [texts_by_split["train"], texts_by_split["val"], texts_by_split["test"]]
    sf = _docs(tmp_path, texts, doc_ids=doc_ids)

    got = canon(to_pandas(q_split_leakage(sf)))
    want = canon(_duck(tmp_path, SQL_SPLIT_LEAKAGE))
    pd.testing.assert_frame_equal(got, want)

    pair = got[(got["split_a"] == "train") & (got["split_b"] == "val")]
    assert len(pair) == 1 and int(pair["n_shared"].iloc[0]) >= 1
    # the test split shares nothing → no (train,test)/(test,val) rows
    assert not ((got["split_a"] == "test") | (got["split_b"] == "test")).any()
