"""Ray Data dedup pipelines over the ``documents`` table (training-data
extensions). Each returns a Dataset; the ``queries()`` registry exposes them,
with DuckDB oracles where exact semantics are SQL-expressible.

Scale shape: signature pass = streaming map_batches (stateful actor pool for
the MinHasher); the only wide steps are (a) the groupby on band/bucket keys
carrying (key, doc_id, signature-or-shingle-set) — documents never move —
and (b) a bucketed groupby on the pair key for candidate-pair dedup. No
stage funnels through a single task, and bucket counts scale with input
size (``_coarse_buckets``) instead of being fixed constants.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..memo import cached
from ..stages.dedup import (
    hashed_set_jaccard,
    minhash_batch_task,
    minhash_jaccard,
    simhash_batch,
    simhash_block_keys,
)

# target rows per coarse shuffle bucket; buckets = ceil(rows / target), so
# bucket count grows linearly with input instead of being a fixed 256
_TARGET_BUCKET_ROWS = 4096
# target rows per pair-dedup partition
_TARGET_PAIR_ROWS = 65536


def _docs(sf_dir: str, columns=("doc_id", "text")):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=list(columns))


def _coarse_buckets(n_rows: int, target: int = _TARGET_BUCKET_ROWS) -> int:
    return max(16, -(-n_rows // target))


def _bucket_of(keys: list[str] | np.ndarray, n_buckets: int) -> np.ndarray:
    return (pd.util.hash_array(np.asarray(keys, dtype=object)) % n_buckets).astype(
        np.int64
    )


def _pairs_table(rows: list, schema: pa.Schema) -> pa.Table:
    """Candidate pairs as a typed Arrow table, also when there are none: a
    zero-row pandas object column has no type for Ray to size."""
    return pa.Table.from_pandas(pd.DataFrame(rows, columns=schema.names), schema=schema,
                                preserve_index=False)


def _dedup_pairs(cand, pair_cols: tuple[str, str], n_buckets: int):
    """Distributed candidate-pair dedup: bucket on the pair key, then
    drop_duplicates per bucket. Duplicates of one pair always share a bucket,
    and no task sees more than ~1/n_buckets of the pairs (replaces the old
    single-task ``repartition(1)`` tail)."""
    a, b = pair_cols

    def add_bucket(t: pa.Table) -> pa.Table:
        ka, kb = (pd.Series(t[c].to_numpy(zero_copy_only=False)) for c in (a, b))
        if pa.types.is_integer(t.schema.field(a).type):
            key = (ka.astype("int64") * np.int64(1_000_003) + kb.astype("int64")).to_numpy()
        else:  # string ids (e.g. media refs): hash the joined pair key
            key = (ka.astype(str) + "|" + kb.astype(str)).to_numpy(object)
        return t.append_column(
            "pair_bucket", pa.array((pd.util.hash_array(key) % n_buckets).astype(np.int64)))

    def drop_dups(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=[a, b]).drop(columns=["pair_bucket"])

    return (
        cand.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(drop_dups, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def minhash_lsh_candidates(sf_dir: str, n_perm: int = 64, n_bands: int = 16):
    """documents → minhash signatures (actor pool) → band explode →
    groupby(band_key) → candidate pairs with signature-estimated Jaccard.
    Returns one row per candidate pair (a < b) with est_jaccard.

    `dedup_minhash_lsh` and `dedup_clusters` run the identical candidate
    pipeline, so the materialized pair set is memoized (:mod:`..memo`); its
    blocks live in the object store, not driver memory."""
    return cached(
        f"lsh_candidates_{n_perm}_{n_bands}",
        f"{sf_dir}/documents.parquet",
        lambda: _lsh_candidates(sf_dir, n_perm, n_bands),
    )


def _lsh_candidates(sf_dir: str, n_perm: int, n_bands: int):
    ds = _docs(sf_dir)
    n_docs = ds.count()
    n_buckets = _coarse_buckets(n_docs * n_bands)
    n_pair_buckets = _coarse_buckets(n_docs, _TARGET_PAIR_ROWS)

    # task-mode signature stage: per-worker memoized hasher state (see
    # stages/dedup.py _HASHER_CACHE — ~1 KB of state doesn't justify an
    # actor pool's spawn cost)
    sigs = ds.map_batches(
        functools.partial(minhash_batch_task, n_perm=n_perm),
        batch_format="pyarrow",
    )
    banded = sigs.map_batches(
        lambda t: _band_explode(t, n_bands, n_buckets, "minhash"),
        batch_format="pyarrow",
    )

    # Shuffle on a COARSE bucket (band_key % n_buckets) instead of the raw
    # band_key: band keys are mostly singletons, and map_groups pays ~1 ms
    # of Python per group. Within a bucket, the vectorized duplicated()
    # pre-filter keeps the Python loop on collided keys only.
    def pairs_in_bucket(g: pd.DataFrame) -> pa.Table:
        g = g[g.duplicated("band_key", keep=False)]
        rows = []
        for _, grp in g.groupby("band_key", sort=False):
            grp = grp.sort_values("doc_id")
            ids = grp["doc_id"].tolist()
            sig_list = [np.frombuffer(s, dtype=np.uint64) for s in grp["minhash"]]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    rows.append((ids[i], ids[j], minhash_jaccard(sig_list[i], sig_list[j])))
        return _pairs_table(rows, pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                                             ("est_jaccard", pa.float64())]))

    cand = banded.groupby("bucket").map_groups(pairs_in_bucket, batch_format="pandas")
    # same pair can surface from multiple bands → distributed pair dedup
    return _dedup_pairs(cand, ("doc_a", "doc_b"), n_pair_buckets).materialize()


def _band_explode(t: pa.Table, n_bands: int, n_buckets: int, payload: str) -> pa.Table:
    """Vectorized band explode keeping a per-doc binary payload column
    (signature or shingle set) on each banded row — needed for in-group
    estimation/verification without a second join. Band keys come from the
    numpy :func:`band_key_matrix`, not per-row hashing."""
    from ..stages.dedup import band_key_matrix

    sig_bytes = t["minhash"].to_pylist()
    if not sig_bytes:
        return pa.table(
            {
                "bucket": pa.array([], pa.int64()),
                "band_key": pa.array([], pa.uint64()),
                "doc_id": pa.array([], t["doc_id"].type),
                payload: pa.array([], pa.large_binary()),
            }
        )
    sigs = np.frombuffer(b"".join(sig_bytes), dtype=np.uint64).reshape(
        len(sig_bytes), -1
    )
    keys = band_key_matrix(sigs, n_bands).reshape(-1)
    payloads = t[payload].to_pylist()
    return pa.table(
        {
            "bucket": pa.array((keys % np.uint64(n_buckets)).astype(np.int64)),
            "band_key": pa.array(keys),
            "doc_id": t["doc_id"].take(
                pa.array(np.repeat(np.arange(t.num_rows), n_bands))
            ),
            payload: pa.array(
                [p for p in payloads for _ in range(n_bands)], pa.large_binary()
            ),
        }
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_near_dups(sf_dir: str, max_hamming: int = 3):
    """documents → simhash → block-key explode → groupby(block) → verified
    pairs with exact Hamming distance ≤ max_hamming."""
    from ..stages.dedup import hamming64

    ds = _docs(sf_dir)
    n_docs = ds.count()
    n_buckets = _coarse_buckets(n_docs * 4)
    n_pair_buckets = _coarse_buckets(n_docs, _TARGET_PAIR_ROWS)

    sh = ds.map_batches(simhash_batch, batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        doc_ids, keys, hashes = [], [], []
        for doc_id, h in zip(t["doc_id"].to_pylist(), t["simhash"].to_pylist()):
            for key in simhash_block_keys(int(h), n_blocks=4):
                doc_ids.append(doc_id)
                keys.append(key)
                hashes.append(h)
        return pa.table(
            {
                "bucket": pa.array(_bucket_of(keys, n_buckets)),
                "block_key": pa.array(keys, pa.string()),
                "doc_id": pa.array(doc_ids),
                "simhash": pa.array(hashes, pa.uint64()),
            }
        )

    # coarse-bucket shuffle + in-bucket pandas groupby (see minhash pipeline)
    def pairs_in_bucket(g: pd.DataFrame) -> pa.Table:
        g = g[g.duplicated("block_key", keep=False)]
        rows = []
        for _, grp in g.groupby("block_key", sort=False):
            grp = grp.sort_values("doc_id")
            ids = grp["doc_id"].tolist()
            hs = [int(h) for h in grp["simhash"].tolist()]
            rows.extend(
                (ids[i], ids[j], hamming64(hs[i], hs[j]))
                for i in range(len(ids))
                for j in range(i + 1, len(ids))
                if hamming64(hs[i], hs[j]) <= max_hamming
            )
        return _pairs_table(rows, pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                                             ("hamming", pa.int64())]))

    cand = sh.map_batches(explode, batch_format="pyarrow").groupby("bucket").map_groups(
        pairs_in_bucket, batch_format="pandas"
    )
    return _dedup_pairs(cand, ("doc_a", "doc_b"), n_pair_buckets)


# ---------------------------------------------------------------------------
# n-gram Jaccard (MinHash-band candidates + exact verify)
# ---------------------------------------------------------------------------


def ngram_jaccard_dups(sf_dir: str, threshold: float = 0.8, k: int = 3,
                       n_perm: int = 64, n_bands: int = 16):
    """Exact n-gram-Jaccard near-dup detection with MinHash-band candidate
    generation (replaces the earlier all-pairs-within-length-bucket design,
    which was O(n²) per content-agnostic bucket).

    One text pass computes the MinHash signature AND the unique 64-bit
    shingle-hash set (``MinHashShingler``); the band groupby carries the
    shingle set so verification is a sorted-array intersection inside the
    band group — no join back to documents, no O(n²) stage. Candidate recall
    follows the LSH band curve: P(candidate | J=t) = 1-(1-t^r)^b, ≈0.9998 at
    J=0.8 with r=4, b=16. Jaccard is computed on 64-bit hashed shingle sets
    (collision probability ~n²/2⁶⁴, negligible)."""
    ds = _docs(sf_dir)
    n_docs = ds.count()
    n_buckets = _coarse_buckets(n_docs * n_bands)
    n_pair_buckets = _coarse_buckets(n_docs, _TARGET_PAIR_ROWS)

    sigs = ds.map_batches(
        functools.partial(
            minhash_batch_task, n_perm=n_perm, shingle_k=k, with_shingles=True
        ),
        batch_format="pyarrow",
    )
    banded = sigs.map_batches(
        lambda t: _band_explode(t, n_bands, n_buckets, "shingles"),
        batch_format="pyarrow",
    )

    def verify_in_bucket(g: pd.DataFrame) -> pa.Table:
        g = g[g.duplicated("band_key", keep=False)]
        rows = []
        for _, grp in g.groupby("band_key", sort=False):
            grp = grp.sort_values("doc_id")
            ids = grp["doc_id"].tolist()
            sets = [np.frombuffer(s, dtype=np.uint64) for s in grp["shingles"]]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    jac = hashed_set_jaccard(sets[i], sets[j])
                    if jac >= threshold:
                        rows.append((ids[i], ids[j], jac))
        return _pairs_table(rows, pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                                             ("jaccard", pa.float64())]))

    cand = banded.groupby("bucket").map_groups(verify_in_bucket, batch_format="pandas")
    return _dedup_pairs(cand, ("doc_a", "doc_b"), n_pair_buckets)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def embedding_cosine_dups(sf_dir: str, threshold: float = 0.95,
                          n_lsh_bits: int | None = None, n_tables: int = 2,
                          target_bucket: int = 128):
    """Embedding near-dup via multi-table random-hyperplane LSH bucketing +
    exact cosine verification within buckets.

    ``n_lsh_bits`` scales with dataset size (log2(n / target_bucket)) so
    expected bucket population stays ~target_bucket regardless of n — the
    within-bucket pair scan is O(n · target_bucket), not O(n²/const).
    ``n_tables`` independent hash tables recover the recall lost to more
    bits (a near-dup pair missed by one table is caught by another);
    cross-table duplicate pairs are removed by a distributed pair dedup."""
    import ray
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    n_vecs = ds.count()
    if n_lsh_bits is None:
        n_lsh_bits = max(4, int(np.ceil(np.log2(max(2.0, n_vecs / target_bucket)))))
    n_pair_buckets = _coarse_buckets(n_vecs, _TARGET_PAIR_ROWS)

    first = ds.take(1)
    dim = len(first[0]["embedding"])
    rng = np.random.default_rng(11)
    # (n_tables, dim, n_lsh_bits) — broadcast once via ray.put
    planes = rng.standard_normal((n_tables, dim, n_lsh_bits))
    planes_ref = ray.put(planes)

    def bucket(t: pa.Table, pref=planes_ref) -> pa.Table:
        p = ray.get(pref) if isinstance(pref, ray.ObjectRef) else pref
        mat = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        vids = t["vec_id"].to_numpy(zero_copy_only=False)
        weights = 1 << np.arange(n_lsh_bits)
        out_bucket, out_ids = [], []
        for ti in range(n_tables):
            bits = (mat @ p[ti]) > 0
            keys = (bits * weights).sum(axis=1).astype(np.int64)
            # disjoint key space per table: table_id in the high bits
            out_bucket.append(keys + np.int64(ti << (n_lsh_bits + 1)))
            out_ids.append(vids)
        emb = pa.concat_arrays(
            [t["embedding"].combine_chunks() for _ in range(n_tables)]
        )
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(out_bucket)),
                "vec_id": pa.array(np.concatenate(out_ids)),
                "embedding": emb,
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"vec_a": pd.Series(dtype="int64"), "vec_b": pd.Series(dtype="int64"), "cos": pd.Series(dtype="float64")})
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy()
        mat = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        from ..stages.dedup import cosine_dup_pairs

        rows = cosine_dup_pairs(ids, mat, threshold)
        return pd.DataFrame(rows, columns=["vec_a", "vec_b", "cos"])

    cand = ds.map_batches(bucket, batch_format="pyarrow").groupby("bucket").map_groups(
        pairs, batch_format="pandas"
    )
    return _dedup_pairs(cand, ("vec_a", "vec_b"), n_pair_buckets)


# ---------------------------------------------------------------------------
# connected components over dup pairs → cluster ids (iterative algorithm)
# ---------------------------------------------------------------------------


# Above this many dup-pair nodes, the node→label broadcast (and the driver
# pull_map per round) is replaced by the fully distributed bucketed-join
# propagation — an adversarial input where EVERYTHING is a dup no longer
# breaks the documented O(#dup-pair-nodes) driver/worker memory bound.
BROADCAST_NODE_LIMIT = 2_000_000


def _cc_distributed(edges, labels, cc_schema, max_iter: int, n_buckets: int):
    """Distributed-only label propagation: no node→label map ever leaves the
    cluster. Per round, labels meet their edges in a manual BUCKETED hash
    join (bucket = node % n_buckets; Ray 2.49's native join crashes on
    key-empty partitions), each bucket joined with a C-speed pandas merge;
    messages min-combine in a node groupby; convergence is witnessed by the
    distributed label sum (labels only decrease). No local pointer-jumping
    compression here, so rounds = graph diameter — the price of the bound."""
    from ray.data.aggregate import Min

    def sym(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([a, b])
        return pa.table(
            {
                "bucket": pa.array((src % n_buckets).astype(np.int64)),
                "node": pa.array(src),
                "other": pa.array(np.concatenate([b, a])),
                "cluster": pa.array(np.full(2 * len(a), -1, np.int64)),
            }
        )

    e2 = edges.map_batches(sym, batch_format="pyarrow").materialize()

    def tag_labels(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array((node % n_buckets).astype(np.int64)),
                "node": pa.array(node),
                "other": pa.array(np.full(len(node), -1, np.int64)),
                "cluster": pc.cast(t["cluster"], pa.int64()),
            }
        )

    def msgs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["other"] < 0][["node", "cluster"]]
        ed = g[g["other"] >= 0][["node", "other"]]
        m = ed.merge(lab, on="node", how="left")
        return pd.DataFrame(
            {
                "node": np.concatenate(
                    [m["other"].to_numpy(), lab["node"].to_numpy()]
                ).astype(np.int64),
                "cluster": np.concatenate(
                    [m["cluster"].to_numpy(), lab["cluster"].to_numpy()]
                ).astype(np.int64),
            }
        )

    def as_arrow(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return cc_schema.empty_table()
        return pa.table(
            {"node": pc.cast(t["node"], pa.int64()),
             "cluster": pc.cast(t["cluster"], pa.int64())}
        )

    prev_sum = None
    converged = False
    for _ in range(max_iter):
        s = labels.sum("cluster") or 0
        if s == prev_sum:
            converged = True
            break
        prev_sum = s
        tagged = labels.map_batches(tag_labels, batch_format="pyarrow")
        labels = (
            e2.union(tagged)
            .groupby("bucket")
            .map_groups(msgs_in_bucket, batch_format="pandas")
            .groupby("node")
            .aggregate(Min("cluster", alias_name="cluster"))
            .map_batches(as_arrow, batch_format="pyarrow")
            .materialize()
        )
    # This tier propagates ONE hop per round (no local pointer jumping — the
    # node set is by definition too big to pull), so a component whose
    # diameter exceeds max_iter would silently come back split. Never return
    # wrong labels: verify the monotone witness actually reached fixpoint.
    if not converged and (labels.sum("cluster") or 0) != prev_sum:
        raise RuntimeError(
            f"connected_components: distributed label propagation did not "
            f"converge within max_iter={max_iter} rounds (graph diameter too "
            f"large); re-run with a higher max_iter"
        )
    return labels


def bucket_join_labels(left, key_col: str, labels, n_buckets: int,
                       out_cols: tuple[str, str] = ("doc_id", "cluster_id")):
    """Distributed label assignment for when the node→cluster map exceeds
    the broadcast bound: manual bucketed left join of ``left`` (int64
    ``key_col``) against ``labels`` (node, cluster); keys without a label
    cluster to themselves. Same bucket trick as _cc_distributed."""

    def tag_left(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array((k % n_buckets).astype(np.int64)),
                "node": pa.array(k),
                "cluster": pa.array(np.full(len(k), -1, np.int64)),
                "is_left": pa.array(np.ones(len(k), np.int8)),
            }
        )

    def tag_labels(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array((node % n_buckets).astype(np.int64)),
                "node": pa.array(node),
                "cluster": pc.cast(t["cluster"], pa.int64()),
                "is_left": pa.array(np.zeros(len(node), np.int8)),
            }
        )

    ko, co = out_cols

    def join_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["is_left"] == 0][["node", "cluster"]]
        lft = g[g["is_left"] == 1][["node"]]
        m = lft.merge(lab, on="node", how="left")
        cl = m["cluster"].fillna(m["node"]).astype(np.int64)
        return pd.DataFrame({ko: m["node"].astype(np.int64), co: cl})

    return (
        left.map_batches(tag_left, batch_format="pyarrow")
        .union(labels.map_batches(tag_labels, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(join_in_bucket, batch_format="pandas")
    )


def connected_components(edges, max_iter: int = 25,
                         broadcast_node_limit: int = BROADCAST_NODE_LIMIT,
                         driver_local_edge_limit: int = 200_000):
    """Min-label connected components over an edge Dataset (``doc_a``,
    ``doc_b`` int64) by iterative label propagation: each round broadcasts
    the compact node→label map (``ray.put``), computes neighbor messages in
    parallel ``map_batches`` over the edges, min-combines them with a
    ``groupby``, and stops when the global label sum is unchanged (labels
    only decrease, so the sum is a monotone convergence witness). Rounds
    needed = graph diameter, which for near-dup clusters is small.

    Memory contract: the broadcast map is O(#nodes that appear in a dup
    pair) — for dedup workloads orders of magnitude below corpus size (and
    the same size class as the final cluster map any consumer holds). The
    edge set itself stays distributed. GUARD: past ``broadcast_node_limit``
    nodes (adversarial all-dups inputs) the rounds switch to the fully
    distributed bucketed-join propagation (``_cc_distributed``) — slower
    per round, but nothing ever holds the whole node set. (A pure native
    shuffle-join formulation is blocked by Ray 2.49's hash join producing
    schema-less tables for key-empty partitions.)

    Three tiers by graph size: edges ≤ ``driver_local_edge_limit`` → pull
    once, exact local union-find (zero per-round Dataset executions — the
    normal dedup case, where dup pairs are minuscule next to the corpus);
    nodes ≤ ``broadcast_node_limit`` → the broadcast label-prop rounds
    below; above that → ``_cc_distributed``. All three produce identical
    labels (pytest-pinned against the same union-find oracle).

    Returns Dataset[(node, cluster)] with cluster = min doc_id reachable."""
    import ray
    import ray.data
    from ray.data.aggregate import Min

    # the edge Dataset is consumed once per propagation round — materialize
    # it or every round re-executes the (possibly expensive) candidate
    # pipeline that produced it
    edges = edges.materialize()

    def endpoints(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy(zero_copy_only=False)
        b = t["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(np.concatenate([a, b]).astype(np.int64))})

    cc_schema = pa.schema([("node", pa.int64()), ("cluster", pa.int64())])

    def as_arrow(t: pa.Table) -> pa.Table:
        # normalize block type and schema (groupby-aggregate emits pandas
        # blocks; empty partitions emit schema-less blocks)
        if t.num_rows == 0:
            return cc_schema.empty_table()
        return pa.table(
            {"node": pc.cast(t["node"], pa.int64()),
             "cluster": pc.cast(t["cluster"], pa.int64())}
        )

    # Tiny-graph fast tier FIRST (edge count is parquet/plan metadata — no
    # extra execution): dup-pair edge sets are usually minuscule next to the
    # corpus (hundreds of rows at bench scale). Below this bound, pull the
    # edges ONCE and solve with exact local union-find — identical labels,
    # and neither the initial label groupby nor any per-round Dataset
    # execution runs (each costs ~1s of fixed scheduling overhead). The
    # label-prop loop below covers the middle tier; _cc_distributed covers
    # the adversarial top.
    n_edges = edges.count()
    # (2·edges bounds the node count, so the local tier can never swallow a
    # graph the broadcast guard would have routed to _cc_distributed)
    if n_edges <= driver_local_edge_limit and 2 * n_edges <= broadcast_node_limit:
        from ..util import pull_arrow_blocks

        parent: dict[int, int] = {}

        def find(x: int) -> int:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for t in pull_arrow_blocks(edges):
            for a, b in zip(t["doc_a"].to_pylist(), t["doc_b"].to_pylist()):
                ra, rb = find(int(a)), find(int(b))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        nodes = np.array(sorted(parent), dtype=np.int64)
        clusters = np.array([find(int(n)) for n in nodes], dtype=np.int64)
        tbl = pa.table({"node": pa.array(nodes), "cluster": pa.array(clusters)})
        bs = max(1, len(nodes) // 8) if len(nodes) else 1
        return ray.data.from_arrow(
            [tbl.slice(i, bs) for i in range(0, max(tbl.num_rows, 1), bs)]
            if tbl.num_rows
            else [cc_schema.empty_table()]
        )

    labels = (
        edges.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("node", alias_name="cluster"))
        .map_batches(as_arrow, batch_format="pyarrow")
        .materialize()
    )

    n_nodes = labels.count()
    if n_nodes > broadcast_node_limit:
        return _cc_distributed(
            edges, labels, cc_schema, max_iter,
            n_buckets=_coarse_buckets(n_nodes, _TARGET_PAIR_ROWS),
        )

    def pull_map(labels_ds) -> dict[int, int]:
        from ..util import pull_arrow_blocks

        return {
            int(r["node"]): int(r["cluster"])
            for t in pull_arrow_blocks(labels_ds)
            for r in t.to_pylist()
        }

    def compress(m: dict[int, int]) -> None:
        # local pointer jumping on the (small) label map between distributed
        # rounds: label[x] ← label[label[x]] to fixpoint. This collapses the
        # round count from graph diameter to ~log* — each distributed round
        # only needs to merge labels ACROSS edges, not walk chains.
        changed = True
        while changed:
            changed = False
            for k, v in m.items():
                vv = m.get(v, v)
                if vv < v:
                    m[k] = vv
                    changed = True

    # adaptive min-combine: with a small edge set (≤ the threshold) the
    # per-round sort-shuffle's fixed cost dwarfs the data — combine the
    # parallel message blocks on the driver instead (still O(E) work done in
    # workers, O(E) rows pulled once per round). Past the threshold, use the
    # distributed groupby so no round ever funnels O(E) rows anywhere.
    n_edges = edges.count()
    driver_combine = n_edges <= 5_000_000

    prev_sum = None
    for _ in range(max_iter):
        label_map = pull_map(labels)
        compress(label_map)
        s = sum(label_map.values())
        if s == prev_sum:
            break
        prev_sum = s
        map_ref = ray.put(label_map)

        def neighbor_msgs(t: pa.Table, mref=map_ref) -> pa.Table:
            m = ray.get(mref) if isinstance(mref, ray.ObjectRef) else mref
            a = t["doc_a"].to_numpy(zero_copy_only=False)
            b = t["doc_b"].to_numpy(zero_copy_only=False)
            la = np.array([m[int(x)] for x in a], dtype=np.int64)
            lb = np.array([m[int(x)] for x in b], dtype=np.int64)
            # edge (a,b) sends its endpoints' current labels both ways, plus
            # each endpoint's own label (so isolated chains keep their rows)
            return pa.table(
                {
                    "node": pa.array(np.concatenate([a, b, a, b]).astype(np.int64)),
                    "cluster": pa.array(np.concatenate([lb, la, la, lb])),
                }
            )

        msgs = edges.map_batches(neighbor_msgs, batch_format="pyarrow")
        if driver_combine:
            from ..util import pull_arrow_blocks

            blocks = pull_arrow_blocks(msgs)
            if blocks:
                cat = pa.concat_tables(blocks)
                df = pd.DataFrame(
                    {
                        "node": cat["node"].to_numpy(zero_copy_only=False),
                        "cluster": cat["cluster"].to_numpy(zero_copy_only=False),
                    }
                )
                combined = df.groupby("node")["cluster"].min()
                new_map = {int(k): int(v) for k, v in combined.items()}
            else:
                new_map = {}
            tbl = pa.table(
                {
                    "node": pa.array(sorted(new_map), pa.int64()),
                    "cluster": pa.array(
                        [new_map[k] for k in sorted(new_map)], pa.int64()
                    ),
                }
            )
            labels = ray.data.from_arrow(tbl if tbl.num_rows else cc_schema.empty_table())
        else:
            labels = (
                msgs.groupby("node")
                .aggregate(Min("cluster", alias_name="cluster"))
                .map_batches(as_arrow, batch_format="pyarrow")
                .materialize()
            )
    # final labels = the converged compressed map, as a Dataset
    nodes = np.array(sorted(label_map), dtype=np.int64)
    clusters = np.array([label_map[int(n)] for n in nodes], dtype=np.int64)
    tbl = pa.table({"node": pa.array(nodes), "cluster": pa.array(clusters)})
    bs = max(1, len(nodes) // 8) if len(nodes) else 1
    return ray.data.from_arrow(
        [tbl.slice(i, bs) for i in range(0, max(tbl.num_rows, 1), bs)]
        if tbl.num_rows
        else [cc_schema.empty_table()]
    )


def dedup_clusters(sf_dir: str, est_threshold: float = 0.9,
                   broadcast_node_limit: int = BROADCAST_NODE_LIMIT):
    """Near-dup cluster assignment over the documents table: MinHash-LSH
    candidate pairs (est_jaccard ≥ est_threshold) → connected components →
    every document labeled with its cluster id (= min doc_id of its
    component; singletons label themselves). The cluster map is broadcast
    via ray.put and applied in a streaming map_batches — the corpus itself
    never shuffles. Broadcast size is O(#docs in dup clusters), which for
    dedup workloads is far below corpus size. GUARD: past
    ``broadcast_node_limit`` labeled nodes (adversarial all-dups input) the
    assignment switches to the distributed bucketed join
    (``bucket_join_labels``) so no task or the driver holds the map."""
    import ray
    import ray.data

    pairs = minhash_lsh_candidates(sf_dir).map_batches(
        lambda t: t.filter(
            pc.greater_equal(t["est_jaccard"], pa.scalar(est_threshold))
        ).select(["doc_a", "doc_b"]),
        batch_format="pyarrow",
    )
    comp = connected_components(pairs, broadcast_node_limit=broadcast_node_limit)
    docs = _docs(sf_dir, columns=("doc_id",))

    n_labeled = comp.count()
    if n_labeled > broadcast_node_limit:
        return bucket_join_labels(
            docs, "doc_id", comp,
            n_buckets=_coarse_buckets(n_labeled, _TARGET_PAIR_ROWS),
        )

    mapping = {int(r["node"]): int(r["cluster"]) for r in comp.take_all()}
    map_ref = ray.put(mapping)

    def assign(t: pa.Table, mref=map_ref) -> pa.Table:
        m = ray.get(mref) if isinstance(mref, ray.ObjectRef) else mref
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        clusters = np.array([m.get(int(i), int(i)) for i in ids], dtype=np.int64)
        return pa.table(
            {"doc_id": pa.array(ids.astype(np.int64)), "cluster_id": pa.array(clusters)}
        )

    return docs.map_batches(assign, batch_format="pyarrow")


def streaming_dedup(sf_dir: str, n_shards: int | None = None):
    """Streaming exact dedup through a SHARDED SEEN-SET actor tier — the
    same first-wins state shape the crawl frontier uses for URL dedup
    (state/frontier.py seen-set + cuckoo), applied to the documents table:
    batches stream through ``map_batches``, each batch's text hashes are
    routed to their owning shard (hash % n_shards), and a shard admits a
    hash exactly once across the whole run. Unlike the hash-partition +
    groupby-first dedup (q_dedup_exact) this never shuffles document rows
    and emits survivors INCREMENTALLY — the shape for a dedup that must
    run inside an ingest stream rather than as a batch job.

    WHICH duplicate survives is arrival-order-dependent (first-wins under
    parallel batches); the survivor SET per text group is always exactly
    one. Scale: shard state is O(distinct hashes / n_shards); grow
    n_shards with corpus size, or swap the exact set for the cuckoo
    filter + collision-confirm tier the frontier uses at 10^10 keys.
    ``n_shards`` defaults adaptively — one shard per ~250k input rows
    (parquet footer count, no scan), min 2 / max 32 here — so a small
    corpus doesn't pay 8 fixed actor spawns and a large one gets more
    seen-set capacity."""
    import ray
    import pyarrow.parquet as pq

    if n_shards is None:
        n_rows = pq.ParquetFile(
            f"{sf_dir}/documents.parquet"
        ).metadata.num_rows
        n_shards = int(min(32, max(2, n_rows // 250_000)))

    @ray.remote(num_cpus=0)
    class SeenShard:
        def __init__(self) -> None:
            self._seen: set[str] = set()

        def add_new(self, digests: list[str]) -> list[bool]:
            out = []
            for h in digests:
                fresh = h not in self._seen
                if fresh:
                    self._seen.add(h)
                out.append(fresh)
            return out

    shards = [SeenShard.remote() for _ in range(n_shards)]

    class Dedup:
        def __init__(self, handles):
            self._shards = handles

        def __call__(self, t: pa.Table) -> pa.Table:
            import hashlib

            texts = t["text"].to_pylist()
            # full 128-bit digest for the seen decision (the hex string is
            # also the query's order-independent output column); the 8-byte
            # prefix only routes to the owning shard
            digests = [
                hashlib.md5((x or "").encode("utf-8")).hexdigest() for x in texts
            ]
            owner = np.array(
                [int(d[:16], 16) % len(self._shards) for d in digests],
                dtype=np.int64,
            )
            keep = np.zeros(len(digests), dtype=bool)
            pending = []
            for s in range(len(self._shards)):
                idx = np.nonzero(owner == s)[0]
                if len(idx):
                    pending.append(
                        (idx, self._shards[s].add_new.remote(
                            [digests[i] for i in idx]
                        ))
                    )
            for idx, ref in pending:
                keep[idx] = ray.get(ref)
            return t.append_column(
                "text_md5", pa.array(digests, pa.string())
            ).filter(pa.array(keep))

    # concurrency 2: leaves CPU slots for the read stage even in a 4-CPU
    # test session (an actor pool sized to the whole cluster starves its
    # own upstream); scale concurrency with cluster size in production
    return _docs(sf_dir, columns=("doc_id", "text")).map_batches(
        Dedup,
        fn_constructor_args=(shards,),
        concurrency=2,
        batch_format="pyarrow",
    ).select_columns(["doc_id", "text_md5"])


# ---------------------------------------------------------------------------
# Perceptual-hash media near-dup (multimodal dedup: SimHash machinery over
# image average-hashes instead of text simhashes)
# ---------------------------------------------------------------------------


def phash_near_dups(hashed, n_rows: int, max_hamming: int = 3):
    """Dataset[(media_ref str, phash uint64)] → verified near-dup pairs with
    exact Hamming ≤ max_hamming. Same scale shape as simhash_near_dups:
    4 × 16-bit block keys (pigeonhole: any pair within Hamming 3 shares a
    block), coarse-bucket shuffle, in-bucket vectorized grouping, then
    distributed pair dedup. Media-byte decoding happens upstream in the
    PHashStage actor pool — this stage never sees a payload."""
    from ..stages.dedup import hamming64, simhash_block_keys

    n_buckets = _coarse_buckets(max(n_rows, 1) * 4)
    n_pair_buckets = _coarse_buckets(max(n_rows, 1), _TARGET_PAIR_ROWS)

    def explode(t: pd.DataFrame) -> pa.Table:
        refs, keys, hashes = [], [], []
        for ref, h in zip(t["media_ref"].to_pylist(), t["phash"].to_pylist()):
            for key in simhash_block_keys(int(h), n_blocks=4):
                refs.append(ref)
                keys.append(key)
                hashes.append(h)
        return pa.table(
            {
                "bucket": pa.array(_bucket_of(keys, n_buckets)),
                "block_key": pa.array(keys, pa.string()),
                "media_ref": pa.array(refs, pa.string()),
                "phash": pa.array(hashes, pa.uint64()),
            }
        )

    def pairs_in_bucket(g: pd.DataFrame) -> pa.Table:
        g = g[g.duplicated("block_key", keep=False)]
        rows = []
        for _, grp in g.groupby("block_key", sort=False):
            grp = grp.sort_values("media_ref")
            ids = grp["media_ref"].tolist()
            hs = [int(h) for h in grp["phash"].tolist()]
            rows.extend(
                (ids[i], ids[j], hamming64(hs[i], hs[j]))
                for i in range(len(ids))
                for j in range(i + 1, len(ids))
                if ids[i] != ids[j] and hamming64(hs[i], hs[j]) <= max_hamming
            )
        return _pairs_table(rows, pa.schema([("ref_a", pa.string()), ("ref_b", pa.string()),
                                             ("hamming", pa.int64())]))

    cand = (
        hashed.map_batches(explode, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_in_bucket, batch_format="pandas")
    )
    return _dedup_pairs(cand, ("ref_a", "ref_b"), n_pair_buckets)


# ---------------------------------------------------------------------------
# containment near-dup (asymmetric: "is A mostly inside B")
# ---------------------------------------------------------------------------


def containment_dups(sf_dir: str, threshold: float = 0.9, k: int = 3,
                     n_perm: int = 64, n_bands: int = 16):
    """Asymmetric containment dedup — C(A,B) = |A∩B| / |A| over hashed
    k-shingle sets: the RefinedWeb/C4-style "snippet swallowed by a longer
    page" case Jaccard under-scores (a 10-line quote inside a 1000-line doc
    has J≈0.01 but C≈1). Candidates come from the SAME MinHash band pass as
    ngram_jaccard_dups (one text scan, band groupby carries the shingle
    sets); the in-group verify computes the exact intersection once per
    pair and emits the pair when EITHER direction's containment clears the
    threshold, labeling the contained (smaller-set) side. Same distributed
    shape: no join-back, no O(n²) stage, pair dedup bucketed.

    Recall caveat (documented, deterministic): candidates follow the
    JACCARD band curve, so a contained snippet that is a tiny fraction of
    its container (high C, low J) may never become a candidate — full
    recall at low J needs a dedicated containment LSH over the small side's
    sketch. At C4-style chunk sizes (snippet ≥ ~40% of the container,
    J ≥ 0.4) band recall is ≥ ~0.5 and the fixed-seed hashers make whatever
    recall holds REPRODUCIBLE run to run."""
    from ..stages.dedup import minhash_batch_task

    ds = _docs(sf_dir)
    n_docs = ds.count()
    n_buckets = _coarse_buckets(n_docs * n_bands)
    n_pair_buckets = _coarse_buckets(n_docs, _TARGET_PAIR_ROWS)

    sigs = ds.map_batches(
        functools.partial(
            minhash_batch_task, n_perm=n_perm, shingle_k=k, with_shingles=True
        ),
        batch_format="pyarrow",
    )
    banded = sigs.map_batches(
        lambda t: _band_explode(t, n_bands, n_buckets, "shingles"),
        batch_format="pyarrow",
    )

    def verify_in_bucket(g: pd.DataFrame) -> pa.Table:
        g = g[g.duplicated("band_key", keep=False)]
        rows = []
        for _, grp in g.groupby("band_key", sort=False):
            grp = grp.sort_values("doc_id")
            ids = grp["doc_id"].tolist()
            sets = [np.frombuffer(s, dtype=np.uint64) for s in grp["shingles"]]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    a, b = sets[i], sets[j]
                    if not a.size or not b.size:
                        continue
                    inter = np.intersect1d(a, b, assume_unique=True).size
                    # containment of the SMALLER set in the larger
                    small = a.size if a.size <= b.size else b.size
                    c = inter / small
                    if c >= threshold:
                        contained = ids[i] if a.size <= b.size else ids[j]
                        rows.append((ids[i], ids[j], c, contained))
        return _pairs_table(rows, pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                                             ("containment", pa.float64()),
                                             ("contained_id", pa.int64())]))

    cand = banded.groupby("bucket").map_groups(
        verify_in_bucket, batch_format="pandas"
    )
    return _dedup_pairs(cand, ("doc_a", "doc_b"), n_pair_buckets)
