"""Edge semantics of the SQL-oracled MinHash chain (signature → band pairs
→ exact-Jaccard verify): the sf* documents tables contain only long English
docs, so this plants near-dups, an exact dup, sub-3-token docs, empty/NULL
text, and non-Latin text, and checks all three queries against their DuckDB
oracles on the synthetic table. The hash helpers are also unit-tested as
pure functions (no Ray)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ptt_spider_go_ray.queries import (
    SQL_MINHASH_BAND_PAIRS,
    SQL_MINHASH_SIGNATURE,
    SQL_MINHASH_VERIFIED_DUPS,
    SQL_SIMHASH_FINGERPRINT,
    SQL_SIMHASH_HAMMING_PAIRS,
    _mh_shingle_batch,
    _mh_sig_batch,
    _simhash_batch,
    _MH_MOD,
    _MH_SEEDS,
    q_minhash_band_pairs,
    q_minhash_signature,
    q_minhash_verified_dups,
    q_simhash_fingerprint,
    q_simhash_hamming_pairs,
)

BASE_TEXT = (
    "the quick brown fox jumps over the lazy dog while seven wizards "
    "brew strong potions at midnight under a pale winter moon"
)

DOCS = [
    (0, BASE_TEXT),
    (1, BASE_TEXT),  # exact dup of 0
    (2, BASE_TEXT.replace("midnight", "noon")),  # near dup of 0
    (3, "completely different words about ray data streaming engines"),
    (4, "two tokens"),  # < 3 tokens → no signature
    (5, ""),  # empty
    (6, None),  # NULL text
    (7, "中文文本 没有 拉丁 字母"),  # no [a-z0-9] tokens at all
    (8, "MiXeD CaSe TEXT with Numbers 42 and 7 things"),  # lowercasing
]


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mhdocs")
    tbl = pa.table(
        {
            "doc_id": pa.array([i for i, _ in DOCS], pa.int64()),
            "text": pa.array([t for _, t in DOCS], pa.string()),
        }
    )
    pq.write_table(tbl, d / "documents.parquet")
    return str(d)


def _duck(docs_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{docs_dir}/documents.parquet')"
    )
    return con.sql(sql).df()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def test_shingle_batch_edge_inputs():
    # all-short batch → None
    df = pd.DataFrame({"doc_id": [4, 5, 6], "text": ["two tokens", "", None]})
    assert _mh_shingle_batch(df) is None
    # mixed batch keeps only docs with ≥3 tokens
    df = pd.DataFrame(
        {"doc_id": [4, 8], "text": ["two tokens", "Alpha beta GAMMA delta"]}
    )
    doc_ids, sdoc, sfp = _mh_shingle_batch(df)
    assert doc_ids.tolist() == [8]
    assert len(sfp) == 2  # 4 tokens → 2 shingles
    assert (sfp < _MH_MOD).all() and (sdoc == 0).all()


def test_sig_batch_identical_docs_share_signature():
    df = pd.DataFrame({"doc_id": [0, 1], "text": [BASE_TEXT, BASE_TEXT]})
    doc_ids, mins = _mh_sig_batch(df)
    assert mins.shape == (2, _MH_SEEDS)
    assert (mins[0] == mins[1]).all()
    assert (mins < _MH_MOD).all()  # every slot saw ≥1 shingle


def test_minhash_chain_matches_oracle_on_edge_table(ray_session, docs_dir):
    for fn, sql in [
        (q_minhash_signature, SQL_MINHASH_SIGNATURE),
        (q_minhash_band_pairs, SQL_MINHASH_BAND_PAIRS),
        (q_minhash_verified_dups, SQL_MINHASH_VERIFIED_DUPS),
    ]:
        r = fn(docs_dir)
        got = _canon(r if isinstance(r, pd.DataFrame) else r.to_pandas())
        want = _canon(_duck(docs_dir, sql))
        assert list(got.columns) == list(want.columns)
        pd.testing.assert_frame_equal(got, want, check_dtype=True)


def test_simhash_batch_edge_inputs():
    # simhash needs only ≥1 token (vs ≥3 for shingles)
    df = pd.DataFrame({"doc_id": [5, 6, 7], "text": ["", None, "中文 没有"]})
    assert _simhash_batch(df) is None
    df = pd.DataFrame({"doc_id": [4, 0], "text": ["two tokens", BASE_TEXT]})
    doc_ids, lo, hi = _simhash_batch(df)
    assert doc_ids.tolist() == [4, 0]
    assert (lo < 1 << 32).all() and (hi < 1 << 32).all()


def test_simhash_identical_docs_zero_hamming():
    df = pd.DataFrame({"doc_id": [0, 1], "text": [BASE_TEXT, BASE_TEXT]})
    _ids, lo, hi = _simhash_batch(df)
    assert lo[0] == lo[1] and hi[0] == hi[1]


def test_simhash_chain_matches_oracle_on_edge_table(ray_session, docs_dir):
    for fn, sql in [
        (q_simhash_fingerprint, SQL_SIMHASH_FINGERPRINT),
        (q_simhash_hamming_pairs, SQL_SIMHASH_HAMMING_PAIRS),
    ]:
        r = fn(docs_dir)
        got = _canon(r if isinstance(r, pd.DataFrame) else r.to_pandas())
        want = _canon(_duck(docs_dir, sql))
        assert list(got.columns) == list(want.columns)
        pd.testing.assert_frame_equal(got, want, check_dtype=True)


def test_simhash_exact_dup_pair_survives(ray_session, docs_dir):
    r = q_simhash_hamming_pairs(docs_dir)
    got = r if isinstance(r, pd.DataFrame) else r.to_pandas()
    rows = {(a, b): h for a, b, h in got.to_numpy()}
    assert rows.get((0, 1)) == 0  # identical docs → Hamming 0


def test_minhash_verified_dups_planted_pairs(ray_session, docs_dir):
    r = q_minhash_verified_dups(docs_dir)
    got = r if isinstance(r, pd.DataFrame) else r.to_pandas()
    pairs = set(map(tuple, got[["doc_a", "doc_b"]].to_numpy()))
    assert (0, 1) in pairs  # exact dup always survives (J = 1)
    # the one-word edit keeps J ≥ 0.8 on 3-token shingles? 3 changed
    # shingles of 19 → J = 16/22 < 0.8 — must be caught as a CANDIDATE but
    # rejected by the exact verify
    cand = q_minhash_band_pairs(docs_dir).to_pandas()
    cand_pairs = set(map(tuple, cand[["doc_a", "doc_b"]].to_numpy()))
    assert (0, 2) in cand_pairs or (1, 2) in cand_pairs
    assert (0, 2) not in pairs and (1, 2) not in pairs


def test_threshold_sweep_discriminates_on_edge_table(ray_session, docs_dir):
    from ptt_spider_go_ray.queries import (
        SQL_MINHASH_THRESHOLD_SWEEP,
        q_minhash_threshold_sweep,
    )

    got = _canon(q_minhash_threshold_sweep(docs_dir))
    want = _canon(_duck(docs_dir, SQL_MINHASH_THRESHOLD_SWEEP))
    pd.testing.assert_frame_equal(got, want, check_dtype=True)
    by_t = got.set_index("threshold_pct")["n_pairs"]
    # the planted one-word edit sits at J = 16/22 ≈ 0.727: counted at 70,
    # excluded at 80 — the sweep must actually discriminate thresholds
    assert by_t.loc[70] > by_t.loc[80]


def test_exact_substring_runs_planted_run_length(ray_session, tmp_path):
    from ptt_spider_go_ray.queries import q_exact_substring_runs

    # two docs share EXACTLY one 45-char run, embedded in otherwise
    # disjoint text (different alphabets around it, no 20-gram overlap)
    shared = "the quick brown fox jumps over the lazy dogs!"  # 45 chars
    assert len(shared) == 45
    a = "AAAA1111BBBB2222CCCC " + shared + " DDDD3333EEEE4444"
    b = "zzzz9999yyyy8888xxxx " + shared + " wwww7777vvvv6666"
    pa_tbl = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()), "text": pa.array([a, b])}
    )
    pq.write_table(pa_tbl, tmp_path / "documents.parquet")
    got = q_exact_substring_runs(str(tmp_path)).to_pandas()
    # the run includes the flanking spaces (both docs have ' ' on each
    # side of the shared sentence): 45 + 2 = 47
    assert got.to_dict("records") == [
        {"doc_a": 1, "doc_b": 2, "max_run_chars": 47}
    ]
