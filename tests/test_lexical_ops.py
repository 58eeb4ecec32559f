"""Edge pins for the round-5 lexical/analytic operator wave
(type_token_ratio, char_trigram_topk, word_len_hist, dedup_suffix,
skipgram_pairs, vocab_prune, type_cooccurrence, cume_dist_vals,
ngram_coverage_curve, hapax_ratio, dim_variance_topk,
embedding_source_join, ann_range_search): tiny hand-built tables where the
expected behavior is computable by eye, each checked BOTH against the hand
expectation and for exact engine-vs-DuckDB equality (the driver's gate)."""

import glob
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

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


def _events(tmp_path, types, values, users=None):
    n = len(types)
    tbl = pa.table(
        {
            "event_id": pa.array(list(range(n)), pa.int64()),
            "ts": pa.array(
                [np.datetime64("2026-01-01T00:00:00", "us")
                 + np.timedelta64(i, "s") for i in range(n)],
                pa.timestamp("us"),
            ),
            "user_id": pa.array(users or list(range(n)), pa.int64()),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array(values, pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    return str(tmp_path)


def _embeddings(tmp_path, vecs, vec_ids=None):
    n = len(vecs)
    tbl = pa.table(
        {
            "vec_id": pa.array(vec_ids or list(range(n)), pa.int64()),
            "embedding": pa.array(
                [np.asarray(v, np.float32) for v in vecs],
                pa.list_(pa.float32()),
            ),
            "label": pa.array([0] * n, pa.int32()),
        }
    )
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    return str(tmp_path)


def _duck(tmp_path, sql):
    con = duckdb.connect()
    for p in glob.glob(f"{tmp_path}/*.parquet"):
        name = os.path.splitext(os.path.basename(p))[0]
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{p}')")
    return con.sql(sql).df()


def _assert_match(got, want, **kw):
    pd.testing.assert_frame_equal(canon(to_pandas(got)), canon(want), **kw)


def test_type_token_ratio_empty_and_repeats(ray_session, tmp_path):
    """Empty/None text → 0 tokens, ttr 0.0 (not NaN); all-same-word doc
    → ttr 1/n; digits are not tokens under the [a-z]+ convention."""
    from ptt_spider_go_ray.queries import SQL_TYPE_TOKEN_RATIO, q_type_token_ratio

    sf = _docs(tmp_path, ["", None, "dup dup dup dup", "a b c", "123 456"])
    got = to_pandas(q_type_token_ratio(sf))
    want = _duck(tmp_path, SQL_TYPE_TOKEN_RATIO)
    _assert_match(got, want)
    by_id = got.set_index("doc_id")
    assert by_id.loc[0, "ttr"] == 0.0 and by_id.loc[1, "ttr"] == 0.0
    assert by_id.loc[2, "n_tokens"] == 4 and by_id.loc[2, "n_distinct"] == 1
    assert by_id.loc[3, "ttr"] == 1.0
    assert by_id.loc[4, "n_tokens"] == 0  # digits aren't [a-z]+ tokens


def test_char_trigram_short_and_nonascii(ray_session, tmp_path):
    """Texts shorter than 3 chars contribute nothing; a CJK doc exercises
    the non-ASCII fallback and must still match SQL substr (CHAR) semantics;
    grams never straddle two documents."""
    from ptt_spider_go_ray.queries import SQL_CHAR_TRIGRAM_TOPK, q_char_trigram_topk

    sf = _docs(tmp_path, ["ab", "", "中文字中文字", "abcd", "cdab"])
    got = to_pandas(q_char_trigram_topk(sf))
    want = _duck(tmp_path, SQL_CHAR_TRIGRAM_TOPK)
    _assert_match(got, want)
    m = dict(zip(got["gram"], got["n"]))
    assert m["中文字"] == 2 and m["abc"] == 1 and m["bcd"] == 1
    assert "dab" in m and m["dab"] == 1  # from doc 4 only — no straddle ("abcd"+"cdab")


def test_char_trigram_embedded_nul(ray_session, tmp_path):
    """A NUL inside a text is a char like any other (DuckDB's substr keeps
    it), not a document separator: its trigrams are counted."""
    from ptt_spider_go_ray.queries import SQL_CHAR_TRIGRAM_TOPK, q_char_trigram_topk

    sf = _docs(tmp_path, ["ab\x00cd", "abcd"])
    got = to_pandas(q_char_trigram_topk(sf))
    want = _duck(tmp_path, SQL_CHAR_TRIGRAM_TOPK)
    _assert_match(got, want)
    m = dict(zip(got["gram"], got["n"]))
    assert m == {"ab\x00": 1, "b\x00c": 1, "\x00cd": 1, "abc": 1, "bcd": 1}


def test_word_len_hist_empty_corpus(ray_session, tmp_path):
    from ptt_spider_go_ray.queries import SQL_WORD_LEN_HIST, q_word_len_hist

    sf = _docs(tmp_path, ["", None, "   "])
    got = to_pandas(q_word_len_hist(sf))
    want = _duck(tmp_path, SQL_WORD_LEN_HIST)
    assert len(got) == 0 and len(want) == 0


def test_dedup_suffix_shared_footer(ray_session, tmp_path):
    """Docs sharing the last-64-char footer collapse to min doc_id; a doc
    shorter than 64 chars keys on its whole text."""
    from ptt_spider_go_ray.queries import SQL_DEDUP_SUFFIX, q_dedup_suffix

    footer = "x" * 70  # longer than the window so prefixes differ, suffixes agree
    sf = _docs(tmp_path, ["AAA " + footer, "BBB " + footer, "short", "short"])
    got = to_pandas(q_dedup_suffix(sf))
    want = _duck(tmp_path, SQL_DEDUP_SUFFIX)
    _assert_match(got, want)
    m = dict(zip(got["doc_id"], got["n_dups"]))
    assert m == {0: 2, 2: 2}


@pytest.mark.parametrize("which", ["prefix", "suffix"])
def test_dedup_affix_null_and_empty_text(ray_session, tmp_path, which):
    """NULL texts form one group of their own, apart from '' (SQL GROUP BY
    semantics); short texts key on their whole text; long texts sharing
    the 64-char head (prefix) or tail (suffix) collapse to the min id."""
    from ptt_spider_go_ray import queries as Q

    head, tail = "H" * 70, "T" * 70
    sf = _docs(tmp_path, [
        None, "", head + "a" + tail, None, "", "short",
        head + "b" + tail, "short", None,
    ])
    got = to_pandas(getattr(Q, f"q_dedup_{which}")(sf))
    want = _duck(tmp_path, getattr(Q, f"SQL_DEDUP_{which.upper()}"))
    _assert_match(got, want)
    m = dict(zip(got["doc_id"], got["n_dups"]))
    assert m == {0: 3, 1: 2, 2: 2, 5: 2}


def test_skipgram_pairs_boundaries(ray_session, tmp_path):
    """Distance-2 pairs never straddle documents; one- and two-token docs
    contribute only what they can."""
    from ptt_spider_go_ray.queries import SQL_SKIPGRAM_PAIRS, q_skipgram_pairs

    sf = _docs(tmp_path, ["a b c", "c a", "z", ""])
    got = to_pandas(q_skipgram_pairs(sf))
    want = _duck(tmp_path, SQL_SKIPGRAM_PAIRS)
    _assert_match(got, want)
    m = dict(zip(got["pair"], got["n"]))
    # doc0: a b, b c (d=1), a c (d=2); doc1: c a (d=1). No "c z"/"a z" etc.
    assert m == {"a b": 1, "b c": 1, "a c": 1, "c a": 1}


def test_vocab_prune_df_band(ray_session, tmp_path):
    """min_df=5 drops rare words; max_df=0.9·n_docs drops ubiquitous ones."""
    from ptt_spider_go_ray.queries import SQL_VOCAB_PRUNE, q_vocab_prune

    # 10 docs: "common" in all 10 (> 9 = 0.9·10 → dropped), "mid" in 5 docs
    # (kept), "rare" in 1 doc (dropped)
    texts = [
        "common mid" if i < 5 else "common" for i in range(9)
    ] + ["common rare"]
    sf = _docs(tmp_path, texts)
    got = to_pandas(q_vocab_prune(sf))
    want = _duck(tmp_path, SQL_VOCAB_PRUNE)
    _assert_match(got, want)
    assert got["word"].tolist() == ["mid"]
    assert got["df"].tolist() == [5] and got["cf"].tolist() == [5]


def test_type_cooccurrence_pairs(ray_session, tmp_path):
    """Only users with ≥2 distinct types produce pairs; repeats of the same
    (user, type) never inflate the count; pairs are unordered (a < b)."""
    from ptt_spider_go_ray.queries import SQL_TYPE_COOCCURRENCE, q_type_cooccurrence

    types = ["buy", "view", "buy", "view", "buy", "ship", "view", "view"]
    users = [1, 1, 1, 2, 2, 2, 3, 3]
    sf = _events(tmp_path, types, [1.0] * len(types), users)
    got = to_pandas(q_type_cooccurrence(sf))
    want = _duck(tmp_path, SQL_TYPE_COOCCURRENCE)
    _assert_match(got, want)
    m = {(a, b): n for a, b, n in got.itertuples(index=False)}
    assert m == {("buy", "view"): 2, ("buy", "ship"): 1, ("ship", "view"): 1}


def test_cume_dist_ties_and_single(ray_session, tmp_path):
    """Tied values share one row with cume counting ALL rows ≤ v; a
    single-value type gets cume_dist 1.0 exactly."""
    from ptt_spider_go_ray.queries import SQL_CUME_DIST_VALS, q_cume_dist_vals

    sf = _events(
        tmp_path,
        ["a", "a", "a", "a", "b"],
        [1.0, 2.0, 2.0, 3.0, 7.0],
    )
    got = to_pandas(q_cume_dist_vals(sf))
    want = _duck(tmp_path, SQL_CUME_DIST_VALS)
    _assert_match(got, want)
    a = got[got["event_type"] == "a"].set_index("value")["cume_dist"]
    assert a.loc[1.0] == 0.25 and a.loc[2.0] == 0.75 and a.loc[3.0] == 1.0
    assert got[got["event_type"] == "b"]["cume_dist"].tolist() == [1.0]


def test_coverage_curve_small_vocab(ray_session, tmp_path):
    """k larger than the vocabulary covers everything (coverage 1.0), and
    the rank order is (count desc, word asc) on both engines."""
    from ptt_spider_go_ray.queries import (
        SQL_NGRAM_COVERAGE_CURVE,
        q_ngram_coverage_curve,
    )

    sf = _docs(tmp_path, ["aa aa aa bb bb cc"])
    got = to_pandas(q_ngram_coverage_curve(sf))
    want = _duck(tmp_path, SQL_NGRAM_COVERAGE_CURVE)
    _assert_match(got, want)
    by_k = got.set_index("k")
    assert by_k.loc[5, "coverage"] == 1.0 and by_k.loc[40, "top_tokens"] == 6


def test_hapax_ratio_extremes(ray_session, tmp_path):
    """An all-hapax source scores 1.0; a no-hapax source scores 0.0."""
    from ptt_spider_go_ray.queries import SQL_HAPAX_RATIO, q_hapax_ratio

    sf = _docs(
        tmp_path,
        ["one two three", "dup dup other dup other"],
        sources=["uniq", "reps"],
    )
    got = to_pandas(q_hapax_ratio(sf))
    want = _duck(tmp_path, SQL_HAPAX_RATIO)
    _assert_match(got, want)
    m = got.set_index("source")["hapax_ratio"]
    assert m.loc["uniq"] == 1.0 and m.loc["reps"] == 0.0


def test_dim_variance_constant_dims_tiebreak(ray_session, tmp_path):
    """Constant dimensions have var exactly 0 (int-exact sums make this
    bit-stable); ties are broken by dim ascending on both engines."""
    from ptt_spider_go_ray.queries import SQL_DIM_VARIANCE_TOPK, q_dim_variance_topk

    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(20, 64)).astype(np.float32)
    vecs[:, :60] = 0.125  # 60 constant dims → 60 exact-zero variances
    sf = _embeddings(tmp_path, list(vecs))
    got = to_pandas(q_dim_variance_topk(sf))
    want = _duck(tmp_path, SQL_DIM_VARIANCE_TOPK)
    _assert_match(got, want)
    srt = got.sort_values(["var_e6", "dim"], ascending=[False, True])
    # the 4 noisy dims rank first; zero-variance ties fill the rest in
    # dim-ascending order on both engines
    assert set(srt["dim"].tolist()[:4]) == {61, 62, 63, 64}
    assert srt["var_e6"].tolist()[4:] == [0.0] * 4
    assert srt["dim"].tolist()[4:] == [1, 2, 3, 4]


def test_embedding_source_join_inner_semantics(ray_session, tmp_path):
    """Vectors without a matching doc (and docs without a vector) drop out
    — inner-join semantics — and per-source sums are integer-exact."""
    from ptt_spider_go_ray.queries import (
        SQL_EMBEDDING_SOURCE_JOIN,
        q_embedding_source_join,
    )

    _docs(tmp_path, ["a", "b", "c"], sources=["web", "web", "wiki"],
          doc_ids=[0, 1, 2])
    sf = _embeddings(
        tmp_path,
        [np.full(64, 0.5), np.full(64, 1.0), np.full(64, 2.0)],
        vec_ids=[0, 1, 99],  # 99 has no doc; doc 2 has no vector
    )
    got = to_pandas(q_embedding_source_join(sf))
    want = _duck(tmp_path, SQL_EMBEDDING_SOURCE_JOIN)
    _assert_match(got, want)
    assert got["source"].tolist() == ["web"]
    # norms: 64·500² + 64·1000² = 16e6 + 64e6
    assert got["sum_norm2_e6"].tolist() == [64 * 500**2 + 64 * 1000**2]
    assert got["n_vecs"].tolist() == [2]


def test_ann_range_search_exact_threshold(ray_session, tmp_path):
    """Self-match always clears τ for unit vectors; an orthogonal vector
    never does; a vector AT the threshold is included (>=)."""
    from ptt_spider_go_ray.queries import (
        _RANGE_SEARCH_TAU_E6,
        SQL_ANN_RANGE_SEARCH,
        q_ann_range_search,
    )

    e1 = np.zeros(64); e1[0] = 1.0
    e2 = np.zeros(64); e2[1] = 1.0          # orthogonal to e1
    at_tau = np.zeros(64); at_tau[0] = _RANGE_SEARCH_TAU_E6 / 1e6  # dot == τ
    sf = _embeddings(tmp_path, [e1, e2, at_tau], vec_ids=[0, 5, 7])
    got = to_pandas(q_ann_range_search(sf))
    want = _duck(tmp_path, SQL_ANN_RANGE_SEARCH)
    _assert_match(got, want)
    pairs = set(zip(got["query_id"], got["vec_id"]))
    assert (0, 0) in pairs and (0, 7) in pairs and (0, 5) not in pairs


def test_pca_power_planted_direction(ray_session, tmp_path):
    """A planted dominant direction: 3 vectors with a huge component on dim
    7, the rest tiny noise elsewhere — PC1 must align with dim 7 and the
    top ranks must be exactly the planted vectors ordered by magnitude."""
    from ptt_spider_go_ray.queries import SQL_PCA_POWER_TOPK, q_pca_power_topk

    rng = np.random.default_rng(3)
    vecs = (rng.normal(size=(30, 64)) * 0.01).astype(np.float32)
    for rank, (vid, mag) in enumerate([(4, 9.0), (11, 7.0), (25, 5.0)]):
        vecs[vid, 7] = mag
    sf = _embeddings(tmp_path, list(vecs))
    got = to_pandas(q_pca_power_topk(sf))
    want = _duck(tmp_path, SQL_PCA_POWER_TOPK)
    _assert_match(got, want)
    assert got.sort_values("rank")["vec_id"].tolist()[:3] == [4, 11, 25]


def test_bootstrap_type_counts_deterministic_half(ray_session, tmp_path):
    """Exact engine-vs-SQL equality on a tiny table (the trial counts are
    deterministic functions of event_id), zero-selected trials densify to 0,
    and the bootstrap mean sits near n_full/2 (p=1/2 resampling)."""
    from ptt_spider_go_ray.queries import (
        SQL_BOOTSTRAP_TYPE_COUNTS,
        q_bootstrap_type_counts,
    )

    n = 400
    sf = _events(tmp_path, ["a"] * n + ["b"], [1.0] * (n + 1))
    got = to_pandas(q_bootstrap_type_counts(sf))
    want = _duck(tmp_path, SQL_BOOTSTRAP_TYPE_COUNTS)
    _assert_match(got, want)
    a = got.set_index("event_type").loc["a"]
    assert a["n_full"] == n
    assert 0.4 * n < a["mean_boot"] < 0.6 * n  # p=1/2 resample of 400 rows
    b = got.set_index("event_type").loc["b"]  # 1-row type: trials are 0 or 1
    assert 0 <= b["sum_boot"] <= 16 and b["sumsq_boot"] == b["sum_boot"]


def test_haar_energy_impulse_and_flat(ray_session, tmp_path):
    """A single-day impulse of mass c puts energy c² at EVERY detail level
    (and c² in the approximation); a two-day constant pair has zero level-1
    energy. Integer-exact on both engines."""
    from ptt_spider_go_ray.queries import SQL_HAAR_ENERGY, q_haar_energy

    # type "imp": one event of value 5.0 on day 0 → c = 500 cents
    # type "flat": value 3.0 on day 0 AND day 1 → level-1 detail = 0
    types = ["imp", "flat", "flat"]
    values = [5.0, 3.0, 3.0]
    sf = _events(tmp_path, types, values)
    # move flat's second event to the next day
    import pyarrow.parquet as pq2

    t = pq2.read_table(tmp_path / "events.parquet").to_pandas()
    t.loc[2, "ts"] = t.loc[2, "ts"] + np.timedelta64(1, "D")
    pa_t = pa.Table.from_pandas(t, preserve_index=False)
    pq.write_table(pa_t, tmp_path / "events.parquet")

    got = to_pandas(q_haar_energy(sf))
    want = _duck(tmp_path, SQL_HAAR_ENERGY)
    _assert_match(got, want)
    imp = got[got["event_type"] == "imp"].set_index("level")["energy"]
    assert all(imp.loc[lvl] == 500**2 for lvl in range(0, 7))
    flat = got[got["event_type"] == "flat"].set_index("level")["energy"]
    assert flat.loc[1] == 0          # equal pair cancels at level 1
    assert flat.loc[2] == 600**2     # combined mass differs from zero pad
    assert flat.loc[0] == 600**2


def test_haar_energy_overflow_guard_is_loud(ray_session, tmp_path):
    """A type whose total mass² exceeds int64 must raise the clear
    re-quantize error — never wrap silently (numpy int64 would; the
    Python-int accumulation + guard make it loud)."""
    # one day with mass 4e9 dollars = 4e11 cents → mass² = 1.6e23 > 2^63
    sf = _events(tmp_path, ["big"] * 4, [1e9] * 4)
    from ptt_spider_go_ray.queries import q_haar_energy

    with pytest.raises(Exception, match="re-quantize"):
        q_haar_energy(sf).to_pandas()
