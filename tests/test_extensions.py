"""Tests for the training-data pipeline extensions: dedup family, similarity
search, text analysis, multimodal stubs. Pure-function tests first; Ray
pipeline tests use sf0.001 with planted duplicates."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ptt_spider_go_ray.functions import text as T
from ptt_spider_go_ray.stages.dedup import (
    MinHasher,
    band_key_matrix,
    hamming64,
    minhash_jaccard,
    simhash64,
    simhash_block_keys,
)
from ptt_spider_go_ray.stages.multimodal import ImageDecoder, MEDIA_META_SCHEMA

SF = "/root/testdata/sf0.001"


# --- text analysis scalar fns ----------------------------------------------

def test_token_counts():
    assert T.token_count("  a  b\tc\n") == 3
    assert T.token_count("") == 0
    assert T.bpe_token_count("hello, world 42!") == 5  # hello , world 42 !


def test_detect_lang():
    assert T.detect_lang("the cat sat on the mat and it is fine") == "en"
    assert T.detect_lang("der hund ist nicht da und die katze") == "de"
    assert T.detect_lang("這是一段中文的測試文字") == "zh"
    assert T.detect_lang("xyzzy qwerty") == "und"


def test_quality_score_fields():
    q = T.quality_score("The quick brown fox jumps over the lazy dog. It is fast!")
    assert q["n_tokens"] == 12
    assert q["punct_ratio"] > 0
    assert 0 <= q["quality"] <= 1.0


def test_rolling_fingerprint_deterministic():
    a = T.rolling_fingerprint("some document text here")
    assert a == T.rolling_fingerprint("some document text here")
    assert a != T.rolling_fingerprint("some document text hers")


# --- minhash / simhash -----------------------------------------------------

def test_minhash_similar_docs_agree():
    mh = MinHasher(n_perm=64)
    base = "the quick brown fox jumps over the lazy dog " * 10
    near = base.replace("lazy", "sleepy", 1)
    far = "completely different content about databases and queries " * 10
    s1, s2, s3 = mh.signature(base), mh.signature(near), mh.signature(far)
    # repeated base text has ~12 distinct shingles; the one-word edit adds 3
    # → true Jaccard ≈ 0.6; the estimate must sit near it
    assert minhash_jaccard(s1, s2) > 0.45
    assert minhash_jaccard(s1, s3) < 0.2


def test_minhash_lsh_bands_collide_for_dups():
    mh = MinHasher(n_perm=64)
    s = mh.signature("identical text " * 20)
    s2 = mh.signature("identical text " * 20)
    assert (s == s2).all()
    far = mh.signature("completely different content " * 20)
    keys = band_key_matrix(np.stack([s, s2, far]), 16)
    assert (keys[0] == keys[1]).all() and not (keys[0] == keys[2]).any()


def test_simhash_near_dup_small_hamming():
    base = "ray data streaming execution with arrow batches " * 8
    near = base + "extra"
    far = "unrelated words entirely about cooking recipes and food " * 8
    h1, h2, h3 = simhash64(base), simhash64(near), simhash64(far)
    assert hamming64(h1, h2) <= 6
    assert hamming64(h1, h3) > 10
    # identical hash shares all block keys
    assert simhash_block_keys(h1) == simhash_block_keys(h1)


def test_ngram_jaccard():
    def ngram_jaccard(a, b):
        return T.jaccard(T.word_shingles(a, 3), T.word_shingles(b, 3))

    assert ngram_jaccard("a b c d e", "a b c d e") == 1.0
    assert ngram_jaccard("a b c d e", "v w x y z") == 0.0


def test_quantile_sketch_rank_error():
    import numpy as np

    from ptt_spider_go_ray.stages.sketch import QuantileSketch

    rng = np.random.default_rng(3)
    data = rng.lognormal(0, 2, size=100_000)
    s = QuantileSketch(k=200)
    for i in range(0, len(data), 4096):
        s.add_many(data[i : i + 4096])
    assert s.n_items() == len(data)
    srt = np.sort(data)
    for q in (0.1, 0.5, 0.9, 0.99):
        est = s.quantile(q)
        # rank error (not value error — the right metric for quantiles)
        rank = np.searchsorted(srt, est) / len(data)
        assert abs(rank - q) < 0.03, (q, rank)


def test_quantile_sketch_merge_matches_single():
    import numpy as np

    from ptt_spider_go_ray.stages.sketch import QuantileSketch

    rng = np.random.default_rng(5)
    a, b = rng.normal(size=30_000), rng.normal(3, 1, size=30_000)
    sa, sb = QuantileSketch(200), QuantileSketch(200)
    sa.add_many(a)
    sb.add_many(b)
    merged = sa.merge(sb)
    assert merged.n_items() == 60_000
    srt = np.sort(np.concatenate([a, b]))
    for q in (0.25, 0.5, 0.75):
        rank = np.searchsorted(srt, merged.quantile(q)) / len(srt)
        assert abs(rank - q) < 0.03
    # serialization roundtrip preserves estimates
    rt = QuantileSketch.from_bytes(merged.to_bytes())
    assert rt.quantile(0.5) == merged.quantile(0.5)


def test_approx_distinct_by_accuracy(ray_session):
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.registry import queries

    got = queries()["approx_distinct_users_per_type"](SF).to_pandas()
    df = pq.read_table(
        f"{SF}/events.parquet", columns=["event_type", "user_id"]
    ).to_pandas()
    exact = df.groupby("event_type")["user_id"].nunique()
    assert set(got["event_type"]) == set(exact.index)
    for _, row in got.iterrows():
        e = exact[row["event_type"]]
        assert abs(row["n_approx"] - e) / e < 0.10, (row["event_type"], row["n_approx"], e)


def test_approx_quantiles_pipeline(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.registry import queries

    got = queries()["approx_quantiles_sketch"](SF)
    vals = pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"].to_numpy()
    srt = np.sort(vals)
    for q, est in zip(got["q"], got["value_approx"]):
        rank = np.searchsorted(srt, est) / len(srt)
        assert abs(rank - q) < 0.05, (q, rank)


def test_bottomk_quantiles_accuracy(ray_session):
    """Bottom-k md5 sample quantiles (the SQL-attestable alternative to the
    KLL sketch): rank error vs exact < 5% globally and per group, and the
    global result is invariant to input partitioning (the property the
    oracle relies on)."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray.data

    from ptt_spider_go_ray.registry import queries
    from ptt_spider_go_ray.stages.sketch import bottomk_quantiles

    got = queries()["approx_quantiles_bottomk"](SF)
    vals = pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"].to_numpy()
    srt = np.sort(vals)
    for q, est in zip(got["q"], got["value_approx"]):
        rank = np.searchsorted(srt, est) / len(srt)
        assert abs(rank - q) < 0.05, (q, rank)

    # partitioning invariance: 1 block vs 16 blocks → identical estimates
    t = pq.read_table(f"{SF}/events.parquet", columns=["event_id", "value"])
    one = bottomk_quantiles(ray.data.from_arrow(t), "value", "event_id")
    bs = max(1, t.num_rows // 16)
    many = bottomk_quantiles(
        ray.data.from_arrow([t.slice(i, bs) for i in range(0, t.num_rows, bs)]),
        "value", "event_id",
    )
    assert one["value_approx"].tolist() == many["value_approx"].tolist()

    grouped = queries()["approx_quantiles_bottomk_per_type"](SF).to_pandas()
    df = pq.read_table(
        f"{SF}/events.parquet", columns=["event_type", "value"]
    ).to_pandas()
    assert set(grouped["event_type"]) == set(df["event_type"])
    for _, row in grouped.iterrows():
        gv = np.sort(df.loc[df["event_type"] == row["event_type"], "value"].to_numpy())
        rank = np.searchsorted(gv, row["value_approx"]) / len(gv)
        assert abs(rank - row["q"]) < 0.07, (row["event_type"], row["q"], rank)


# --- multimodal stub -------------------------------------------------------

def test_image_decoder_fake_backend():
    dec = ImageDecoder(backend="fake")
    batch = pa.table(
        {
            "doc_id": pa.array(["d1", "d2"]),
            "span_idx": pa.array([0, 3], pa.int32()),
            "media_ref": pa.array(["u1", "u2"]),
            "body": pa.array([b"imagebytes1", b"imagebytes2"], pa.large_binary()),
        }
    )
    out = dec(batch)
    assert out.schema.equals(MEDIA_META_SCHEMA)
    rows = out.to_pylist()
    assert rows[0]["n_bytes"] == 11
    assert rows[0]["format"] in ("jpeg", "png", "gif")
    assert len(rows[0]["feature"]) == 16
    # deterministic
    assert dec(batch).to_pylist() == rows


def test_pillow_backend_stubbed():
    with pytest.raises(ValueError, match="unknown decode backend"):
        ImageDecoder(backend="pillow")


def _media_batch():
    return pa.table(
        {
            "doc_id": pa.array(["d1", "d2"]),
            "span_idx": pa.array([0, 3], pa.int32()),
            "media_ref": pa.array(["u1", "u2"]),
            "body": pa.array([b"audiobytes1", b"videobytes02"], pa.large_binary()),
        }
    )


def test_audio_feature_stage():
    from ptt_spider_go_ray.stages.multimodal import AUDIO_META_SCHEMA, AudioFeatureStage

    st = AudioFeatureStage(backend="fake")
    out = st(_media_batch())
    assert out.schema.equals(AUDIO_META_SCHEMA)
    rows = out.to_pylist()
    for r in rows:
        assert r["sample_rate"] in (16000, 22050, 44100, 48000)
        assert r["duration_ms"] == r["n_samples"] * 1000 // r["sample_rate"]
        assert len(r["feature"]) == 13
    assert st(_media_batch()).to_pylist() == rows  # deterministic
    with pytest.raises(ValueError, match="unknown audio backend"):
        AudioFeatureStage(backend="soundfile")


def test_frame_sampler_fanout():
    from ptt_spider_go_ray.stages.multimodal import FRAME_SCHEMA, FrameSampler

    st = FrameSampler(stride=10, max_frames=4, fps=25)
    out = st(_media_batch())
    assert out.schema.equals(FRAME_SCHEMA)
    rows = out.to_pylist()
    # fan-out: each input row yields min(max_frames, ceil(n/stride)) rows,
    # frame_idx strided, ts from fps
    by_doc: dict[str, list] = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    for doc, rs in by_doc.items():
        assert 1 <= len(rs) <= 4
        for k, r in enumerate(rs):
            assert r["frame_idx"] == k * 10
            assert r["ts_ms"] == r["frame_idx"] * 1000 // 25
    assert st(_media_batch()).to_pylist() == rows  # deterministic


def test_resize_plan_math():
    from ptt_spider_go_ray.stages.multimodal import RESIZE_SCHEMA, resize_plan_batch

    batch = pa.table(
        {
            "doc_id": pa.array(["a", "b", "c"]),
            "span_idx": pa.array([0, 1, 2], pa.int32()),
            "width": pa.array([1024, 256, 2048], pa.int32()),
            "height": pa.array([512, 128, 2048], pa.int32()),
        }
    )
    out = resize_plan_batch(batch, max_side=512)
    assert out.schema.equals(RESIZE_SCHEMA)
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert (rows["a"]["new_width"], rows["a"]["new_height"]) == (512, 256)
    # never upscale
    assert (rows["b"]["new_width"], rows["b"]["new_height"]) == (256, 128)
    assert rows["b"]["scale_e4"] == 10000
    assert (rows["c"]["new_width"], rows["c"]["new_height"]) == (512, 512)
    assert rows["c"]["scale_e4"] == 2500


# --- Ray pipelines (planted duplicates) ------------------------------------

@pytest.fixture(scope="module")
def dup_docs_dir(tmp_path_factory):
    """sf0.001 documents with planted near/exact duplicates."""
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("dupdata")
    t = pq.read_table(f"{SF}/documents.parquet")
    df = t.to_pandas()
    base = df.iloc[0]["text"]
    extra = pd.DataFrame(
        {
            "doc_id": [9001, 9002, 9003],
            "text": [base, base + " tail", "zzz unique " * 30],
            "lang": ["en"] * 3,
            "source": ["dup"] * 3,
            "n_chars": [len(base), len(base) + 5, 330],
        }
    )
    out = pd.concat([df, extra], ignore_index=True)
    pq.write_table(pa.Table.from_pandas(out, preserve_index=False), f"{d}/documents.parquet")

    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    dup_vec = emb.iloc[0]["embedding"]
    emb_extra = pd.DataFrame(
        {"vec_id": [9001], "embedding": [dup_vec], "label": [emb.iloc[0]["label"]]}
    )
    emb_out = pd.concat([emb, emb_extra], ignore_index=True)
    tbl = pa.Table.from_pandas(emb_out, preserve_index=False)
    tbl = tbl.cast(pq.read_schema(f"{SF}/embeddings.parquet"))
    pq.write_table(tbl, f"{d}/embeddings.parquet")
    return str(d)


def test_minhash_lsh_pipeline_finds_planted_dup(ray_session, dup_docs_dir):
    from ptt_spider_go_ray.pipelines.dedup import minhash_lsh_candidates

    got = minhash_lsh_candidates(dup_docs_dir, n_perm=64, n_bands=16).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(got["doc_a"], got["doc_b"])}
    assert (0, 9001) in pairs  # exact dup
    exact = got[(got["doc_a"] == 0) & (got["doc_b"] == 9001)]
    assert float(exact["est_jaccard"].iloc[0]) == 1.0


def test_simhash_pipeline_finds_planted_dup(ray_session, dup_docs_dir):
    from ptt_spider_go_ray.pipelines.dedup import simhash_near_dups

    got = simhash_near_dups(dup_docs_dir, max_hamming=3).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(got["doc_a"], got["doc_b"])}
    assert (0, 9001) in pairs


def test_ngram_jaccard_pipeline(ray_session, dup_docs_dir):
    from ptt_spider_go_ray.pipelines.dedup import ngram_jaccard_dups

    got = ngram_jaccard_dups(dup_docs_dir, threshold=0.8).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(got["doc_a"], got["doc_b"])}
    assert (0, 9001) in pairs


def test_embedding_cosine_dups(ray_session, dup_docs_dir):
    from ptt_spider_go_ray.pipelines.dedup import embedding_cosine_dups

    got = embedding_cosine_dups(dup_docs_dir, threshold=0.999).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(got["vec_a"], got["vec_b"])}
    assert (0, 9001) in pairs  # planted identical vector shares every LSH bit


def test_ngram_pipeline_vs_bruteforce_truth(ray_session):
    """End-to-end check against exhaustive ground truth on sf0.001: every
    reported pair must be a true pair with the exact jaccard (precision 1 —
    the verify stage is exact), and recall over true pairs must be ≥95%
    (LSH band recall at J≥0.8 with r=4,b=16 is ~0.9998)."""
    import numpy as np
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.dedup import ngram_jaccard_dups
    from ptt_spider_go_ray.stages.dedup import _shingle_hashes, hashed_set_jaccard

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    sets = [np.unique(_shingle_hashes(x or "", 3)) for x in t["text"].to_pylist()]
    truth = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            jac = hashed_set_jaccard(sets[i], sets[j])
            if jac >= 0.8:
                a, b = sorted((ids[i], ids[j]))
                truth[(a, b)] = jac

    got = ngram_jaccard_dups(SF, threshold=0.8).to_pandas()
    got_pairs = {
        (int(a), int(b)): float(j)
        for a, b, j in zip(got["doc_a"], got["doc_b"], got["jaccard"])
    }
    for pair, jac in got_pairs.items():
        assert pair in truth and abs(truth[pair] - jac) < 1e-12, pair  # precision 1
    if truth:
        recall = len(set(got_pairs) & set(truth)) / len(truth)
        assert recall >= 0.95, (recall, len(truth))


def test_simhash_pipeline_equals_bruteforce_truth(ray_session):
    """SimHash block keys guarantee (pigeonhole) that EVERY pair with
    Hamming ≤ n_blocks-1 shares a block — so the pipeline output must EQUAL
    the brute-force truth set, not just approximate it."""
    import numpy as np
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.dedup import simhash_near_dups
    from ptt_spider_go_ray.stages.dedup import simhash64

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = np.array(t["doc_id"].to_pylist())
    hs = np.array([simhash64(x or "") for x in t["text"].to_pylist()], dtype=np.uint64)
    x = hs[:, None] ^ hs[None, :]
    ham = np.zeros_like(x, dtype=np.int64)
    for shift in range(64):
        ham += ((x >> np.uint64(shift)) & np.uint64(1)).astype(np.int64)
    iu = np.triu_indices(len(ids), k=1)
    truth = {
        (int(min(ids[i], ids[j])), int(max(ids[i], ids[j])))
        for i, j in zip(*iu)
        if ham[i, j] <= 3
    }
    got = simhash_near_dups(SF, max_hamming=3).to_pandas()
    got_pairs = {(int(a), int(b)) for a, b in zip(got["doc_a"], got["doc_b"])}
    assert got_pairs == truth


def test_dedup_clusters_match_union_find_oracle(ray_session, dup_docs_dir):
    """Distributed label-propagation CC must equal a plain-Python union-find
    over the SAME candidate pairs; the planted chain 0≡9001 (exact) lands
    both in cluster 0."""
    from ptt_spider_go_ray.pipelines.dedup import dedup_clusters, minhash_lsh_candidates

    est_threshold = 0.9
    pairs_df = minhash_lsh_candidates(dup_docs_dir).to_pandas()
    pairs = [
        (int(a), int(b))
        for a, b, j in zip(pairs_df["doc_a"], pairs_df["doc_b"], pairs_df["est_jaccard"])
        if j >= est_threshold
    ]

    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in pairs:
        union(a, b)

    got = dedup_clusters(dup_docs_dir, est_threshold=est_threshold).to_pandas()
    got_map = dict(zip(got["doc_id"].astype(int), got["cluster_id"].astype(int)))
    for node in parent:
        assert got_map[node] == find(node), node
    # singletons label themselves
    singles = set(got_map) - set(parent)
    assert all(got_map[n] == n for n in singles)
    # planted exact dup joins cluster 0
    assert got_map[9001] == 0


def brute_force_topk(n_queries: int, k: int) -> pd.DataFrame:
    """Exact cosine top-k of the first ``n_queries`` vectors over the whole
    sf0.001 table (a query is not its own neighbour), ranked by (cos desc,
    neighbor_id asc): the oracle the ANN pipelines equal when they probe
    every bucket."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.similarity import _query_matrix

    ids, qmat = _query_matrix(SF, n_queries)
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    vids = t["vec_id"].to_numpy()
    mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    cos = (mat / np.where(norms == 0, 1.0, norms)) @ qmat.T
    rows = []
    for qi, q in enumerate(ids):
        cand = np.nonzero(vids != q)[0]
        top = cand[np.lexsort((vids[cand], -cos[cand, qi]))][:k]
        rows += [(q, v, r) for r, v in enumerate(vids[top].tolist(), 1)]
    return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "rank"])


def test_brute_force_vs_ivf_topk(ray_session):
    from ptt_spider_go_ray.pipelines.similarity import ivf_topk

    bf = brute_force_topk(n_queries=3, k=5)
    assert set(bf["query_id"]) == {0, 1, 2}
    assert (bf.groupby("query_id").size() == 5).all()
    ivf = ivf_topk(SF, n_queries=3, k=5, nlist=4, nprobe=4).to_pandas()
    # nprobe == nlist ⇒ IVF probes everything ⇒ identical to brute force
    for q in (0, 1, 2):
        b = bf[bf["query_id"] == q].sort_values("rank")["neighbor_id"].tolist()
        v = ivf[ivf["query_id"] == q].sort_values("rank")["neighbor_id"].tolist()
        assert b == v


def test_brute_force_vs_lsh_topk(ray_session):
    from ptt_spider_go_ray.pipelines.similarity import lsh_topk

    bf = brute_force_topk(n_queries=3, k=5)
    # probe_hamming == n_bits ⇒ every bucket probed ⇒ identical to brute force
    full = lsh_topk(SF, n_queries=3, k=5, n_bits=4, n_tables=2,
                    probe_hamming=4).to_pandas()
    for q in (0, 1, 2):
        b = bf[bf["query_id"] == q].sort_values("rank")["neighbor_id"].tolist()
        v = full[full["query_id"] == q].sort_values("rank")["neighbor_id"].tolist()
        assert b == v
    # default multi-probe params: every query answered, recall vs brute force
    # is meaningfully above chance (deterministic: fixed planes seed)
    lsh = lsh_topk(SF, n_queries=3, k=5).to_pandas()
    hits = total = 0
    for q in (0, 1, 2):
        b = set(bf[bf["query_id"] == q]["neighbor_id"])
        v = set(lsh[lsh["query_id"] == q]["neighbor_id"])
        assert len(v) > 0
        hits += len(b & v)
        total += len(b)
    assert hits / total >= 0.4


def test_lang_id_pipeline(ray_session):
    from ptt_spider_go_ray.pipelines.textanalysis import lang_id

    got = lang_id(SF).to_pandas()
    assert len(got) == 500
    assert set(got.columns) == {"doc_id", "lang", "pred_lang", "agree"}


# --- HLL sketch ------------------------------------------------------------

def test_hll_accuracy_and_merge():
    from ptt_spider_go_ray.stages.sketch import HLL

    a, b = HLL(p=12), HLL(p=12)
    a.add_many([f"u{i}" for i in range(6000)])
    b.add_many([f"u{i}" for i in range(3000, 9000)])  # overlap 3000..5999
    a.merge(b)
    est = a.estimate()
    assert abs(est - 9000) / 9000 < 0.05  # ~1.6% stderr at p=12
    # serialization roundtrip preserves the estimate
    c = HLL.from_bytes(a.to_bytes())
    assert c.estimate() == est


def test_approx_distinct_pipeline(ray_session):
    import ray.data

    from ptt_spider_go_ray.stages.sketch import approx_distinct

    ds = ray.data.read_parquet(f"{SF}/events.parquet", columns=["user_id"])
    import duckdb

    exact = duckdb.sql(
        f"SELECT count(DISTINCT user_id) FROM read_parquet('{SF}/events.parquet')"
    ).fetchone()[0]
    est = approx_distinct(ds, "user_id", p=12)
    assert abs(est - exact) / max(exact, 1) < 0.1


# --- Count-Min sketch --------------------------------------------------------


def test_cms_bound_and_merge():
    import numpy as np

    from ptt_spider_go_ray.stages.sketch import CountMinSketch

    rng = np.random.default_rng(7)
    keys = rng.zipf(1.5, size=20000) % 500  # skewed key distribution
    a, b = CountMinSketch(width=2048, depth=4), CountMinSketch(width=2048, depth=4)
    a.add_many(keys[:10000])
    b.add_many(keys[10000:])
    a.merge(b)
    probes = np.arange(500)
    est = a.estimate_many(probes)
    exact = np.bincount(keys.astype(np.int64), minlength=500)
    assert (est >= exact).all()  # CMS never underestimates
    bound = np.e * len(keys) / 2048  # ε·N with ε = e/width
    assert (est - exact <= bound).all()
    # serialization roundtrip preserves estimates exactly
    c = CountMinSketch.from_bytes(a.to_bytes())
    assert (c.estimate_many(probes) == est).all()
    assert c.n_total == a.n_total == 20000


def test_cms_pipeline_vs_exact(ray_session):
    import duckdb
    import numpy as np

    from ptt_spider_go_ray.registry import queries

    got = queries()["cms_user_counts"](SF)
    exact = duckdb.sql(
        f"SELECT user_id, count(*) AS n FROM read_parquet('{SF}/events.parquet') "
        "GROUP BY user_id"
    ).df()
    em = dict(zip(exact["user_id"], exact["n"]))
    n_total = int(exact["n"].sum())
    bound = np.e * n_total / 8192
    for uid, est in zip(got["user_id"], got["est_n"]):
        true = int(em.get(uid, 0))
        assert est >= true
        assert est - true <= bound


# --- CC broadcast guard (adversarial all-dups input) ------------------------


def _union_find_oracle(edges):
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in edges:
        union(a, b)
    return {x: find(x) for x in parent}


def test_cc_distributed_path_matches_union_find(ray_session):
    """Adversarial input where EVERYTHING is a dup: broadcast_node_limit=0
    forces the fully distributed bucketed-join propagation (no node→label
    map on the driver or in any task); result must equal plain union-find."""
    import ray.data

    from ptt_spider_go_ray.pipelines.dedup import connected_components

    rng = np.random.default_rng(7)
    edges = []
    n = 400
    for i in range(0, n, 4):  # chains of 4
        edges += [(i, i + 1), (i + 1, i + 2), (i + 2, i + 3)]
    for _ in range(60):  # random cross links merge chains
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            edges.append((min(a, b), max(a, b)))
    tbl = pa.table(
        {
            "doc_a": pa.array([a for a, _ in edges], pa.int64()),
            "doc_b": pa.array([b for _, b in edges], pa.int64()),
        }
    )
    oracle = _union_find_oracle(edges)
    ds = ray.data.from_arrow(tbl)
    # tier 3: fully distributed bucketed-join propagation
    comp = connected_components(ds, broadcast_node_limit=0).to_pandas()
    got = dict(zip(comp["node"].astype(int), comp["cluster"].astype(int)))
    assert got == oracle
    # tier 2: broadcast label-prop rounds (driver-local fast tier disabled)
    comp2 = connected_components(ds, driver_local_edge_limit=0).to_pandas()
    got2 = dict(zip(comp2["node"].astype(int), comp2["cluster"].astype(int)))
    assert got2 == oracle
    # tier 1: driver-local union-find (the default for tiny edge sets)
    comp1 = connected_components(ds).to_pandas()
    got1 = dict(zip(comp1["node"].astype(int), comp1["cluster"].astype(int)))
    assert got1 == oracle


def test_cc_distributed_raises_on_nonconvergence(ray_session):
    """The distributed tier advances ONE hop per round; a chain longer than
    max_iter must raise, never silently return split clusters."""
    import pytest
    import ray.data

    from ptt_spider_go_ray.pipelines.dedup import connected_components

    n = 30  # one chain of diameter 29
    tbl = pa.table(
        {
            "doc_a": pa.array(list(range(n - 1)), pa.int64()),
            "doc_b": pa.array(list(range(1, n)), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(ds, broadcast_node_limit=0, max_iter=3)


def test_dedup_clusters_distributed_assignment(ray_session, dup_docs_dir):
    """The guarded (bucketed-join) assignment path must produce the exact
    same labeling as the broadcast path on the same input."""
    from ptt_spider_go_ray.pipelines.dedup import dedup_clusters

    base = (
        dedup_clusters(dup_docs_dir)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    guarded = (
        dedup_clusters(dup_docs_dir, broadcast_node_limit=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(base, guarded)


def test_space_saving_error_bound_and_recovery():
    """MG/SpaceSaving guarantee on an adversarial stream: zipf over a vocab
    far above capacity — per-key underestimate ≤ n_total/(capacity+1), and
    every key whose true count exceeds that bound is still present. Also:
    k-way merge of per-chunk summaries obeys the same bound, and a stream
    with distinct ≤ capacity is EXACT (the oracle path)."""
    from collections import Counter

    from ptt_spider_go_ray.stages.sketch import SpaceSaving

    rng = np.random.default_rng(11)
    stream = rng.zipf(1.3, size=200_000)
    stream = stream[stream < 50_000]  # vocab ≫ capacity
    true = Counter(stream.tolist())
    n_total = len(stream)
    cap = 256
    bound = n_total / (cap + 1)

    # single-summary build over chunks (per-block update_many)
    s = SpaceSaving(cap)
    for i in range(0, len(stream), 10_000):
        ch = stream[i:i + 10_000]
        w, c = np.unique(ch, return_counts=True)
        s.update_many(w, c)
    for k, est in s.counts.items():
        t = true[k]
        assert est <= t and t - est <= bound + 1e-9, (k, est, t)
    for k, t in true.items():
        if t > bound:
            assert k in s.counts, (k, t, bound)

    # k-way merge of independent chunk summaries: same guarantees
    merged = SpaceSaving(cap)
    for i in range(0, len(stream), 20_000):
        ch = stream[i:i + 20_000]
        part = SpaceSaving(cap)
        w, c = np.unique(ch, return_counts=True)
        part.update_many(w, c)
        merged.merge(part)
    k_chunks = -(-len(stream) // 20_000)
    merge_bound = k_chunks * (20_000 / (cap + 1))  # per-chunk errors add
    for k, est in merged.counts.items():
        t = true[k]
        assert est <= t and t - est <= merge_bound + 1e-9

    # exactness when distinct ≤ capacity
    small = SpaceSaving(64)
    w, c = np.unique(stream % 50, return_counts=True)
    small.update_many(w, c)
    assert small.counts == dict(zip(w.tolist(), (c.astype(int)).tolist()))


# --- new round-3 operators: salted agg / keep-best dedup ---------------------

def test_salted_agg_equals_unsalted(ray_session, tmp_path):
    """Salting must be semantics-free: the (event_type, salt) two-phase
    reduction equals a direct single-key groupby on a skewed table (one key
    holds 90% of rows — the case the salt exists for)."""
    import pyarrow.parquet as pq
    from ptt_spider_go_ray.queries import q_salted_agg

    rng = np.random.default_rng(11)
    n = 5000
    et = np.where(rng.random(n) < 0.9, "hot", rng.choice(["a", "b", "c"], n))
    vals = rng.uniform(-50, 50, n)
    tbl = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "event_type": pa.array(et.astype(object), pa.string()),
            "value": pa.array(vals, pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")

    got = (
        q_salted_agg(str(tmp_path))
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    want = (
        pd.DataFrame({"event_type": et, "cents": np.floor(vals * 100).astype(np.int64)})
        .groupby("event_type", as_index=False)
        .agg(n=("cents", "size"), sum_cents=("cents", "sum"))
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert got["n"].tolist() == want["n"].tolist()
    assert got["sum_cents"].tolist() == want["sum_cents"].tolist()


def test_keep_best_packing_roundtrip():
    """The packed-int64 argmax key must order by (n_chars DESC, doc_id ASC)
    and decode losslessly across the full supported ranges."""
    rng = np.random.default_rng(7)
    n_chars = rng.integers(0, (1 << 31) - 1, 1000, dtype=np.int64)
    doc_id = rng.integers(0, (1 << 32) - 1, 1000, dtype=np.int64)
    packed = (n_chars << 32) | ((1 << 32) - 1 - doc_id)
    # decode
    assert (((1 << 32) - 1 - (packed & ((1 << 32) - 1))) == doc_id).all()
    assert ((packed >> 32) == n_chars).all()
    # argmax(packed) == lexicographic (max n_chars, then min doc_id)
    order = np.lexsort((doc_id, -n_chars))
    best = order[0]
    assert packed.argmax() == best


def test_approx_quantiles_by_accuracy(ray_session):
    """Grouped KLL sketch: per-group rank error vs exact quantiles < 5%."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.registry import queries

    got = queries()["approx_quantiles_per_type"](SF).to_pandas()
    df = pq.read_table(
        f"{SF}/events.parquet", columns=["event_type", "value"]
    ).to_pandas()
    assert set(got["event_type"]) == set(df["event_type"])
    for _, row in got.iterrows():
        vals = np.sort(df.loc[df["event_type"] == row["event_type"], "value"].to_numpy())
        for q, col in ((0.5, "q50"), (0.9, "q90"), (0.99, "q99")):
            rank = np.searchsorted(vals, row[col]) / len(vals)
            assert abs(rank - q) < 0.05, (row["event_type"], q, rank)


def test_kmeans_matches_numpy_lloyd(ray_session):
    """Distributed k-means must equal a pure-numpy Lloyd replay (same init,
    same iteration count) and show non-increasing inertia."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.similarity import kmeans_assign, kmeans_fit

    K, ITERS = 8, 4
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    df = t.to_pandas().sort_values("vec_id").reset_index(drop=True)
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    cent = mat[df.index[df["vec_id"] < K]]

    inertia_ref = []
    for _ in range(ITERS):
        d = (mat * mat).sum(1)[:, None] - 2.0 * (mat @ cent.T) + (cent * cent).sum(1)[None, :]
        a = d.argmin(1)
        inertia_ref.append(float(np.maximum(d[np.arange(len(a)), a], 0.0).sum()))
        new = cent.copy()
        for c in range(K):
            m = a == c
            if m.any():
                new[c] = mat[m].mean(0)
        cent = new

    got_cent, got_hist = kmeans_fit(SF, k=K, iters=ITERS)
    assert np.allclose(got_cent, cent, rtol=1e-9, atol=1e-9)
    assert np.allclose(got_hist, inertia_ref, rtol=1e-9)
    assert all(b <= a + 1e-6 for a, b in zip(got_hist, got_hist[1:]))

    # final assignments equal the replay's next-round argmin
    d = (mat * mat).sum(1)[:, None] - 2.0 * (mat @ cent.T) + (cent * cent).sum(1)[None, :]
    want_assign = d.argmin(1)
    got = kmeans_assign(SF, k=K, iters=ITERS).to_pandas().sort_values("vec_id")
    assert (got["cluster"].to_numpy() == want_assign).all()


def test_pagerank_matches_numpy_power_iteration(ray_session):
    """Distributed PageRank must equal a dense numpy power-iteration replay
    (same edges, same dangling handling) elementwise; ranks sum to 1."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.graph import pagerank

    D, ITERS = 0.85, 10
    df = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
        .to_pandas()
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )
    src, dst = [], []
    for _, g in df.groupby("lang", sort=False):
        ids = g["doc_id"].to_numpy()
        src.extend(ids[:-1].tolist())
        dst.extend(ids[1:].tolist())
    node_ids = np.sort(df["doc_id"].to_numpy())
    n = len(node_ids)
    si = np.searchsorted(node_ids, np.array(src, dtype=np.int64))
    di = np.searchsorted(node_ids, np.array(dst, dtype=np.int64))
    outdeg = np.zeros(n, dtype=np.int64)
    np.add.at(outdeg, si, 1)
    rank = np.full(n, 1.0 / n)
    nzm = outdeg > 0
    for _ in range(ITERS):
        share = np.zeros(n)
        share[nzm] = rank[nzm] / outdeg[nzm]
        contrib = np.zeros(n)
        np.add.at(contrib, di, share[si])
        dangling = float(rank[~nzm].sum())
        rank = (1.0 - D) / n + D * (contrib + dangling / n)

    got = pagerank(SF, damping=D, iters=ITERS).to_pandas().sort_values("doc_id")
    assert (got["doc_id"].to_numpy() == node_ids).all()
    assert np.allclose(got["rank"].to_numpy(), rank, rtol=0, atol=1e-12)
    assert abs(got["rank"].sum() - 1.0) < 1e-9


def test_semdedup_survivors_match_global_greedy(ray_session, dup_docs_dir):
    """SemDeDup survivors vs an independent plain-numpy GLOBAL greedy prune
    at the same threshold: at cosine ≥0.999 the only duplicate pair in the
    fixture is the planted 0≡9001 (random vectors never reach 0.999), so the
    cluster-partitioned engine result must equal the unpartitioned oracle —
    9001 dropped (0 kept, lowest-id-wins) and nothing else pruned."""
    import numpy as np
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.similarity import semdedup

    got = semdedup(dup_docs_dir, k=8, iters=3, threshold=0.999).to_pandas()
    survivors = set(got["vec_id"].astype(int))

    emb = pq.read_table(f"{dup_docs_dir}/embeddings.parquet").to_pandas()
    emb = emb.sort_values("vec_id").reset_index(drop=True)
    mat = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    cos = mat @ mat.T
    kept: list[int] = []
    for i in range(len(emb)):
        if not kept or not np.any(cos[i, kept] >= 0.999):
            kept.append(i)
    want = set(emb["vec_id"].iloc[kept].astype(int))

    assert survivors == want
    assert 0 in survivors and 9001 not in survivors
    # each vec_id appears at most once (greedy emits survivors, not pairs)
    assert got["vec_id"].is_unique


def test_semdedup_hot_cluster_salted_path(ray_session, tmp_path_factory):
    """Planted pathological cluster — 90% of vectors are exact copies from
    3 duplicate groups, so k-means funnels them into ONE cluster — with
    max_cluster forcing the salted split + boundary-re-check path: each
    planted group must keep exactly its lowest vec_id, singletons must all
    survive, and the result must equal the exact (unsalted) path."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.similarity import semdedup

    d = tmp_path_factory.mktemp("hotcluster")
    rng = np.random.default_rng(11)
    dim = 64
    # group bases share an L2 ball (one k-means cluster) but differ ~8°
    # in angle (inter-group cos ≈ 0.99 < the 0.999 threshold); copies are
    # bit-exact so intra-group cos == 1.0
    groups = [10.0 + rng.standard_normal(dim) for _ in range(3)]
    vecs, ids = [], []
    vid = 0
    for base in groups:  # 270 exact copies per group
        for _ in range(90 * 3):
            vecs.append(base)
            ids.append(vid)
            vid += 1
    for _ in range(90):  # 10% singletons: iid directions, pairwise cos ≪ 1
        vecs.append(rng.standard_normal(dim) * 20.0)
        ids.append(vid)
        vid += 1
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [np.asarray(v, np.float32) for v in vecs], pa.list_(pa.float32())
            ),
            "label": pa.array([0] * len(ids), pa.int32()),
        }
    )
    pq.write_table(tbl, d / "embeddings.parquet")

    exact = semdedup(str(d), k=4, iters=2, threshold=0.999).to_pandas()
    salted = semdedup(
        str(d), k=4, iters=2, threshold=0.999, max_cluster=50
    ).to_pandas()

    # exact-duplicate groups keep their lowest vec_id on BOTH paths
    want_group_survivors = {0, 270, 540}
    for got in (exact, salted):
        s = set(got["vec_id"].astype(int))
        assert want_group_survivors <= s
        assert len(s & set(range(810))) == 3  # one survivor per planted group
        assert set(range(810, 900)) <= s  # singletons all survive
    assert set(salted["vec_id"]) == set(exact["vec_id"])


def test_semdedup_threshold_above_one_keeps_everything(ray_session, dup_docs_dir):
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.similarity import semdedup

    got = semdedup(dup_docs_dir, k=8, iters=2, threshold=1.01).to_pandas()
    n = pq.read_metadata(f"{dup_docs_dir}/embeddings.parquet").num_rows
    assert len(got) == n and got["vec_id"].is_unique


def test_streaming_dedup_one_survivor_per_text_group(ray_session, dup_docs_dir):
    """Invariants that hold regardless of batch arrival order: exactly one
    survivor per distinct text, every distinct text represented, and the
    planted duplicate pair {0, 9001} contributes exactly one survivor."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.dedup import streaming_dedup

    got = streaming_dedup(dup_docs_dir).to_pandas()
    docs = pq.read_table(f"{dup_docs_dir}/documents.parquet").to_pandas()
    text_of = dict(zip(docs["doc_id"], docs["text"]))
    surv_texts = [text_of[d] for d in got["doc_id"]]
    assert len(surv_texts) == len(set(surv_texts))          # ≤1 per group
    assert set(surv_texts) == set(docs["text"])             # ≥1 per group
    assert len({0, 9001} & set(got["doc_id"].astype(int))) == 1


def test_kmv_exact_below_k_and_merge_identity():
    """Below k the sketch is exhaustive (exact estimates, exact
    intersections); split-build + merge equals single-pass build."""
    import numpy as np

    from ptt_spider_go_ray.stages.sketch import KMV

    a = KMV(k=1024)
    a.add_many(np.arange(500))
    assert a.estimate() == 500.0
    b = KMV(k=1024)
    b.add_many(np.arange(300, 800))
    assert KMV.intersect_estimate(a, b) == 200.0  # exact: both exhaustive

    one = KMV(k=64)
    one.add_many(np.arange(10_000))
    h1 = KMV(k=64)
    h1.add_many(np.arange(5_000))
    h2 = KMV(k=64)
    h2.add_many(np.arange(5_000, 10_000))
    merged = h1.merge(h2)
    assert np.array_equal(one.hashes, merged.hashes)  # merge ≡ single pass
    rt = KMV.from_bytes(merged.to_bytes())
    assert rt.k == 64 and np.array_equal(rt.hashes, merged.hashes)


def test_kmv_estimate_and_intersection_error_bounds():
    """k=1024 → RSE ≈ 1/√k ≈ 3% on distinct counts (assert <10%). The
    intersection samples only ~|A∩B|·θ ≈ 41 points, so its RSE is ~16%;
    assert within 2σ (<30%) — the hash is deterministic, so this is a
    fixed regression value (observed 20.5%), not a flaky bound."""
    import numpy as np

    from ptt_spider_go_ray.stages.sketch import KMV

    a = KMV(k=1024)
    a.add_many(np.arange(50_000))          # 50k distinct
    assert abs(a.estimate() - 50_000) / 50_000 < 0.10

    b = KMV(k=1024)
    b.add_many(np.arange(48_000, 98_000))  # 50k distinct, 2k overlap
    est = KMV.intersect_estimate(a, b)
    assert abs(est - 2_000) / 2_000 < 0.30


def test_kmv_pipeline_runs(ray_session):
    from ptt_spider_go_ray.registry import queries

    df = queries()["kmv_intersect_users"](SF)
    assert len(df) == 1
    # sf0.001 has 15 users, far below k: every estimate is exact
    import duckdb

    con = duckdb.connect()
    con.sql(
        "CREATE VIEW events AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/events.parquet')"
    )
    exact = con.sql("""
        SELECT count(*) FROM (
          SELECT DISTINCT user_id FROM events WHERE event_type='click'
          INTERSECT
          SELECT DISTINCT user_id FROM events WHERE event_type='view')
    """).fetchall()[0][0]
    assert float(df["est_intersection"].iloc[0]) == float(exact)


# --- BPE tokenizer training --------------------------------------------------

def _plain_python_bpe(texts, n_merges):
    """Reference BPE: word-freq dict, per-round exact pair counts, argmax
    tie-broken by (count desc, (id_a<<32|id_b) asc), greedy-leftmost apply."""
    import collections
    import re

    NEW = 0x110000
    wf = collections.Counter(
        w for t in texts for w in re.findall(r"[a-z]+", (t or "").lower())
    )
    words = {w: list(w) for w in wf}
    ids = {}

    def gid(s):
        if s not in ids:
            assert len(s) == 1
            ids[s] = ord(s)
        return ids[s]

    merges = []
    for step in range(n_merges):
        pc = collections.Counter()
        for w, syms in words.items():
            f = wf[w]
            for i in range(len(syms) - 1):
                pc[(syms[i], syms[i + 1])] += f
        if not pc:
            break
        best_n = max(pc.values())
        if best_n < 2:
            break
        best = min(
            (p for p, n in pc.items() if n == best_n),
            key=lambda p: (gid(p[0]) << 32) | gid(p[1]),
        )
        a, b = best
        new_tok = a + b
        ids[new_tok] = NEW + step
        merges.append((step, new_tok, best_n))
        for w, syms in words.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(new_tok)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    return merges


def test_bpe_merges_matches_plain_python(ray_session):
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.textanalysis import bpe_merges

    got = bpe_merges(SF, n_merges=6)
    eng = list(
        zip(
            got["step"].to_pylist(),
            got["token"].to_pylist(),
            got["pair_n"].to_pylist(),
        )
    )
    texts = pq.read_table(f"{SF}/documents.parquet", columns=["text"])[
        "text"
    ].to_pylist()
    assert eng == _plain_python_bpe(texts, 6)
    assert len(eng) == 6


def test_bpe_apply_greedy_overlap_run_parity():
    """The a==b overlap case: 'aaaa' + (a,a) → [A,A]; 'aaa' → [A,a];
    'aabaa' → [A,b,A] — vectorized run-parity equals greedy leftmost."""
    from ptt_spider_go_ray.pipelines.textanalysis import _make_apply

    a = ord("a")
    apply = _make_apply(a, a, 0x110000)

    def run(words_syms, freqs):
        offs = [0]
        vals = []
        for s in words_syms:
            vals.extend(s)
            offs.append(len(vals))
        t = pa.table(
            {
                "f": pa.array(freqs, pa.int64()),
                "syms": pa.ListArray.from_arrays(
                    pa.array(offs, pa.int32()), pa.array(vals, pa.int32())
                ),
            }
        )
        out = apply(t)
        return [list(x) for x in out["syms"].to_pylist()]

    A = 0x110000
    got = run(
        [[a] * 4, [a] * 3, [a, a, ord("b"), a, a], [ord("b")]], [1, 1, 1, 1]
    )
    assert got == [[A, A], [A, a], [A, ord("b"), A], [ord("b")]]


def test_bpe_word_boundaries_not_merged():
    """A pair straddling two words must not count or merge: words 'xa','ax'
    share no in-word (a,x) pair after flattening."""
    from ptt_spider_go_ray.pipelines.textanalysis import _pair_partial

    x, a = ord("x"), ord("a")
    t = pa.table(
        {
            "f": pa.array([1, 1], pa.int64()),
            "syms": pa.ListArray.from_arrays(
                pa.array([0, 2, 4], pa.int32()),
                pa.array([x, a, a, x], pa.int32()),
            ),
        }
    )
    out = _pair_partial(t)
    keys = out["k"].to_pylist()
    assert ((a << 32) | a) not in keys  # the straddle pair
    assert ((x << 32) | a) in keys and ((a << 32) | x) in keys


def test_pq_codes_match_numpy(ray_session):
    """PQ encoding equals a pure-numpy recompute on the whole sf0.001 table;
    codebook vectors encode to their own index in every subspace."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.similarity import pq_codes

    M, K = 4, 16
    got = (
        pq_codes(SF, m=M, k=K)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    df = t.to_pandas().sort_values("vec_id").reset_index(drop=True)
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    train = mat[df.index[df["vec_id"] < K]]
    sub = mat.shape[1] // M
    assert list(got.columns) == ["vec_id"] + [f"code_{j}" for j in range(M)]
    assert got["vec_id"].tolist() == df["vec_id"].tolist()
    for j in range(M):
        x = mat[:, j * sub:(j + 1) * sub]
        cb = train[:, j * sub:(j + 1) * sub]
        d = (x * x).sum(1)[:, None] - 2.0 * (x @ cb.T) + (cb * cb).sum(1)[None, :]
        assert got[f"code_{j}"].to_numpy().tolist() == d.argmin(1).tolist()
    # self-coding: the k training vectors are their own nearest centroid
    head = got[got["vec_id"] < K].sort_values("vec_id")
    for j in range(M):
        assert head[f"code_{j}"].tolist() == list(range(K))


def test_phash_banding_recall_and_verify(ray_session):
    """Planted hash sets through phash_near_dups: Hamming 0/1/3 pairs are
    found with exact distances; a pair whose 4 differing bits hit all four
    16-bit blocks is NOT found (the documented pigeonhole recall bound);
    Hamming-4-in-one-block is also excluded by the max_hamming verify."""
    import pyarrow as pa
    import ray.data

    from ptt_spider_go_ray.pipelines.dedup import phash_near_dups

    base = 0x0123_4567_89AB_CDEF
    rows = {
        "a0": base,
        "a1": base,                       # exact dup of a0 (hamming 0)
        "b0": base ^ 0x1,                 # hamming 1 vs a0/a1
        "c0": base ^ 0x7,                 # hamming 3 vs a0 (same block)
        "d0": base ^ ((1 << 0) | (1 << 16) | (1 << 32) | (1 << 48)),
        # ^ hamming 4 spread over ALL four blocks: no shared block key →
        #   never even a candidate (recall bound)
        "e0": base ^ 0xF,                 # hamming 4 in one block: candidate
        #   via the other three blocks, but killed by the exact verify
        "z0": ~base & 0xFFFFFFFFFFFFFFFF, # far away
    }
    ds = ray.data.from_arrow(
        pa.table(
            {
                "media_ref": pa.array(list(rows), pa.string()),
                "phash": pa.array(list(rows.values()), pa.uint64()),
            }
        )
    )
    got = phash_near_dups(ds, n_rows=len(rows)).to_pandas()
    pairs = {
        (r.ref_a, r.ref_b): r.hamming for r in got.itertuples()
    }
    assert pairs == {
        ("a0", "a1"): 0,
        ("a0", "b0"): 1,
        ("a1", "b0"): 1,
        ("a0", "c0"): 3,
        ("a1", "c0"): 3,
        ("b0", "c0"): 2,
        # b0 and d0/e0 share the bit-0 flip, shrinking their distances:
        ("b0", "d0"): 3,   # differs only on bits 16/32/48
        ("b0", "e0"): 3,   # differs only on bits 1/2/3
        ("c0", "e0"): 1,   # 0x7 vs 0xF: one bit
    }
    # the recall bound: a0↔d0 (hamming 4 across all four blocks) and
    # a0↔e0 (hamming 4, verify-killed) never appear
    assert not any("d0" in p and "a0" in p for p in pairs)
    assert ("a0", "e0") not in pairs and ("a1", "e0") not in pairs


def test_phash_stage_deterministic_and_e2e(ray_session):
    """Same bytes → same phash through the actor-pool stage; exact-dup
    payloads under different refs surface as a hamming-0 pair in the full
    media_phash_dedup pipeline shape."""
    import pyarrow as pa
    import ray.data

    from ptt_spider_go_ray.pipelines.dedup import phash_near_dups
    from ptt_spider_go_ray.stages.multimodal import (
        FakeDecodeBackend,
        PHashStage,
        phash64,
    )

    payload = b"\xff\xd8fake-jpeg-bytes"
    tbl = pa.table(
        {
            "media_ref": pa.array(["m1", "m2", "m3"], pa.string()),
            "body": pa.array(
                [payload, payload, b"\x89PNGother-bytes"], pa.binary()
            ),
        }
    )
    hashed = ray.data.from_arrow(tbl).map_batches(
        PHashStage,
        fn_constructor_kwargs={"backend": "fake"},
        concurrency=1,
        batch_size=8,
        batch_format="pyarrow",
    )
    df = hashed.to_pandas().sort_values("media_ref")
    want = phash64(FakeDecodeBackend().gray8(payload))
    assert df["phash"].tolist()[:2] == [want, want]
    got = phash_near_dups(
        ray.data.from_arrow(
            pa.table(
                {
                    "media_ref": pa.array(df["media_ref"].tolist(), pa.string()),
                    "phash": pa.array(df["phash"].tolist(), pa.uint64()),
                }
            )
        ),
        n_rows=3,
    ).to_pandas()
    assert [(r.ref_a, r.ref_b, r.hamming) for r in got.itertuples()] == [
        ("m1", "m2", 0)
    ]


def test_phash64_bit_semantics():
    """Bit i reflects pixel i vs the STRICT grid mean; constant grids hash
    to 0 (no pixel above the mean)."""
    import numpy as np

    from ptt_spider_go_ray.stages.multimodal import phash64

    assert phash64(np.full((8, 8), 7.0)) == 0
    g = np.zeros((8, 8))
    g[0, 0] = 255.0  # only pixel 0 above mean → exactly bit 0 set
    assert phash64(g) == 1


def test_containment_finds_snippet_inside_page(ray_session, tmp_path):
    """A snippet that is ~half of a container doc (J≈0.5 but C=1.0) is
    reported with the snippet labeled as the contained side; precision is
    exact vs a plain-Python containment oracle over the same shingle sets."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.dedup import containment_dups
    from ptt_spider_go_ray.stages.dedup import _shingle_hashes

    words = [f"w{i}" for i in range(200)]
    container = " ".join(words)                 # 200-word page
    snippet = " ".join(words[:110])             # ~55% prefix: C=1, J≈0.55
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [container, snippet, "completely different text " * 20],
            "lang": ["en"] * 3,
            "source": ["s"] * 3,
            "n_chars": [len(container), len(snippet), 520],
        }
    )
    pq.write_table(
        pa.Table.from_pandas(docs, preserve_index=False),
        tmp_path / "documents.parquet",
    )
    got = containment_dups(str(tmp_path), threshold=0.9).to_pandas()
    rows = {
        (int(a), int(b)): (float(c), int(cid))
        for a, b, c, cid in zip(
            got["doc_a"], got["doc_b"], got["containment"], got["contained_id"]
        )
    }
    assert (1, 2) in rows
    c, contained = rows[(1, 2)]
    assert contained == 2  # the snippet is the contained side
    # exact containment from plain-Python shingle sets
    sa = np.unique(_shingle_hashes(container, 3))
    sb = np.unique(_shingle_hashes(snippet, 3))
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    assert abs(c - inter / min(sa.size, sb.size)) < 1e-12
    assert c >= 0.99
    # every reported pair must satisfy the oracle (precision 1)
    texts = dict(zip(docs["doc_id"], docs["text"]))
    for (a, b), (cv, cid) in rows.items():
        xa = np.unique(_shingle_hashes(texts[a], 3))
        xb = np.unique(_shingle_hashes(texts[b], 3))
        it = np.intersect1d(xa, xb, assume_unique=True).size
        assert abs(cv - it / min(xa.size, xb.size)) < 1e-12
        assert cid == (a if xa.size <= xb.size else b)


def test_inverted_index_df_and_postings_order(ray_session, tmp_path):
    """Repeated tokens inside one doc count once toward df; null/empty text
    contributes nothing; postings are ascending doc ids even when the pairs
    for one term arrive from different input batches."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import q_inverted_index

    docs = pd.DataFrame(
        {
            "doc_id": [7, 3, 11, 5],
            "text": [
                "alpha alpha beta",   # alpha repeats: df counts doc 7 once
                "beta gamma",
                None,                  # null text: no pairs
                "alpha",
            ],
            "lang": ["en"] * 4,
            "source": ["s"] * 4,
            "n_chars": [16, 10, 0, 5],
        }
    )
    pq.write_table(
        pa.Table.from_pandas(docs, preserve_index=False),
        tmp_path / "documents.parquet",
    )
    got = q_inverted_index(str(tmp_path)).to_pandas()
    idx = {r["term"]: (int(r["df"]), r["postings"]) for _, r in got.iterrows()}
    assert idx == {
        "alpha": (2, "5,7"),
        "beta": (2, "3,7"),
        "gamma": (1, "3"),
    }


def test_winnowing_shared_substring_guarantee(ray_session, tmp_path):
    """MOSS guarantee: two documents sharing a substring of length >=
    K + W - 1 (= 11 here) must share at least one fingerprint value;
    fingerprints stream per doc with no shuffle."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.queries import q_winnowing_fingerprints

    shared = "zq shared plagiarized run xv"   # 28 chars >> K+W-1
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "alpha beta " + shared + " gamma delta",
                    "totally different prefix " + shared + " and suffix here",
                    "no overlap with anyone at all in this one",
                ]
            ),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s1"] * 3),
            "n_chars": pa.array([0, 0, 0], pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    df = q_winnowing_fingerprints(str(tmp_path)).to_pandas()
    fps = {d: set(g["fp"]) for d, g in df.groupby("doc_id")}
    assert fps[1] & fps[2], "shared substring must produce a shared fingerprint"
    # doc 3 shares no 11-char substring with doc 1 — overlap must be empty
    assert not fps[1] & fps[3]
