"""Similarity search over the embedding column: approximate cosine top-k
that must equal exact brute force (the test oracle) when it probes every
bucket. The IVF variant is the scale path: a coarse quantizer assigns each
vector to a centroid bucket; queries probe only the nearest buckets, so
the scan is 1/nlist of the data per probe."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _embeddings(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def _query_matrix(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.parquet as pq

    # row-group predicate pushdown — the driver materializes only the query
    # vectors, not the whole embeddings table
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_queries)],
    )
    df = t.to_pandas().sort_values("vec_id")
    ids = df["vec_id"].to_numpy()
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    return ids, mat


def _topk_select(idx: np.ndarray, cos_col: np.ndarray, vids: np.ndarray,
                 k: int, quantize: bool):
    """Per-batch top-k selection for the ANN partials. With ``quantize``
    the ranking key is (round(cos·1e4) desc, neighbor_id asc) — the same
    total order the SQL oracle's row_number uses, so in-batch pruning can
    never drop a row the final merge (or the oracle) would have kept."""
    if quantize:
        ce = np.rint(cos_col * 10000.0).astype(np.int64)
        order = np.lexsort((vids[idx], -ce[idx]))[:k]
        top = idx[order]
        return top, ce[top]
    order = np.argsort(-cos_col[idx], kind="stable")[:k]
    top = idx[order]
    return top, cos_col[top]


def _topk_merge(k: int, quantize: bool):
    score_col = "cos_e4" if quantize else "cos"

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([score_col, "neighbor_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return merge


def lsh_topk(sf_dir: str, n_queries: int = 5, k: int = 10, n_bits: int = 6,
             n_tables: int = 4, probe_hamming: int = 1, seed: int = 41,
             quantize: bool = False):
    """LSH-bucketed ANN (the third method in the trio, after brute force and
    IVF): random-hyperplane sign codes per table (Charikar 2002), queries
    multi-probe every code within Hamming distance ``probe_hamming`` of their
    own, candidates get an exact cosine rerank. Here the probe set filters
    each batch (same shape as IVF's probe filter); at cluster scale the code
    column becomes the shuffle key instead — the groupby-bucket form is
    exercised by `pipelines/dedup.py::embedding_cosine_candidates`. With
    ``probe_hamming >= n_bits`` every bucket is probed and the result is
    exactly brute force — the pytest equivalence oracle."""
    from itertools import combinations

    import ray

    ids, qmat = _query_matrix(sf_dir, n_queries)
    dim = qmat.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, n_bits, dim))
    powers = (1 << np.arange(n_bits)).astype(np.int64)

    def codes_of(mat: np.ndarray, tbl: int) -> np.ndarray:
        return ((mat @ planes[tbl].T) > 0).astype(np.int64) @ powers

    masks = [0]
    for r in range(1, min(probe_hamming, n_bits) + 1):
        masks.extend(sum(1 << b for b in c) for c in combinations(range(n_bits), r))
    probes = []  # per table: {query_id: set of probed codes}
    for t in range(n_tables):
        qc = codes_of(qmat, t)
        probes.append(
            {int(q): {int(qc[qi]) ^ m for m in masks} for qi, q in enumerate(ids)}
        )
    state_ref = ray.put((ids, qmat, planes, probes))

    def score(t: pa.Table, sref=state_ref) -> pa.Table:
        q_ids, qn, pl, prb = ray.get(sref) if isinstance(sref, ray.ObjectRef) else sref
        vids = t["vec_id"].to_numpy(zero_copy_only=False)
        mat = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        codes = [((mat @ pl[tb].T) > 0).astype(np.int64) @ powers
                 for tb in range(len(pl))]
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cos = (mat / norms) @ qn.T
        out_q, out_n, out_c = [], [], []
        for qi, q_id in enumerate(q_ids):
            cand = np.zeros(len(vids), dtype=bool)
            for tb in range(len(pl)):
                cand |= np.isin(codes[tb], list(prb[tb][int(q_id)]))
            cand &= vids != q_id
            idx = np.nonzero(cand)[0]
            top, scores = _topk_select(idx, cos[:, qi], vids, k, quantize)
            out_q.extend([q_id] * len(top))
            out_n.extend(vids[top].tolist())
            out_c.extend(scores.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                ("cos_e4" if quantize else "cos"): pa.array(
                    out_c, pa.int64() if quantize else pa.float64()
                ),
            }
        )

    partial = _embeddings(sf_dir).map_batches(score, batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(
        _topk_merge(k, quantize), batch_format="pandas"
    )


def ivf_topk(sf_dir: str, n_queries: int = 5, k: int = 10, nlist: int = 8,
             nprobe: int = 3, seed: int = 23, quantize: bool = False):
    """IVF: centroids from a deterministic sample (k-means-lite: one Lloyd
    iteration over a sample — enough for bucketing), assign per batch,
    probe-filter, exact rerank within probed buckets."""
    import ray

    ids, qmat = _query_matrix(sf_dir, n_queries)

    # driver-side: sample → centroids (small, deterministic)
    sample = _embeddings(sf_dir).random_sample(0.2, seed=seed).take(512)
    smat = np.stack([r["embedding"] for r in sample]).astype(np.float64)
    rng = np.random.default_rng(seed)
    cent = smat[rng.choice(len(smat), size=min(nlist, len(smat)), replace=False)]
    for _ in range(2):  # two Lloyd steps
        d = ((smat[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for c in range(len(cent)):
            pts = smat[assign == c]
            if len(pts):
                cent[c] = pts.mean(0)
    cent_ref = ray.put(cent)

    q_probes = {}  # query → probed centroid ids
    qd = ((qmat[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
    for qi, q_id in enumerate(ids):
        q_probes[int(q_id)] = set(np.argsort(qd[qi])[:nprobe].tolist())
    probes_ref = ray.put((ids, qmat, q_probes))

    def assign_and_score(t: pa.Table, cref=cent_ref, pref=probes_ref) -> pa.Table:
        c = ray.get(cref) if isinstance(cref, ray.ObjectRef) else cref
        q_ids, qn, probes = ray.get(pref) if isinstance(pref, ray.ObjectRef) else pref
        vids = t["vec_id"].to_numpy(zero_copy_only=False)
        mat = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        d = ((mat[:, None, :] - c[None, :, :]) ** 2).sum(-1)
        cell = d.argmin(1)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cos = (mat / norms) @ qn.T
        out_q, out_n, out_c = [], [], []
        for qi, q_id in enumerate(q_ids):
            probe_mask = np.isin(cell, list(probes[int(q_id)])) & (vids != q_id)
            idx = np.nonzero(probe_mask)[0]
            top, scores = _topk_select(idx, cos[:, qi], vids, k, quantize)
            out_q.extend([q_id] * len(top))
            out_n.extend(vids[top].tolist())
            out_c.extend(scores.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                ("cos_e4" if quantize else "cos"): pa.array(
                    out_c, pa.int64() if quantize else pa.float64()
                ),
            }
        )

    partial = _embeddings(sf_dir).map_batches(assign_and_score, batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(
        _topk_merge(k, quantize), batch_format="pandas"
    )


def kmeans_fit(sf_dir: str, k: int = 16, iters: int = 5):
    """Distributed Lloyd's k-means over the embedding column — the iterative
    ML pattern on Ray Data: each round BROADCASTS the centroid matrix
    (ray.put once), every batch computes assignments with one matmul and
    emits (k × dim sums, k counts) PARTIALS, and the driver reduces
    O(blocks) tiny partials into the next centroids. The shuffle never moves
    vectors; per-round driver state is k × dim floats. Deterministic: init
    is the first k vec_ids, ties in argmin go to the lowest centroid index.

    Returns (centroids: ndarray[k, dim], inertia_per_iter: list[float])."""
    import ray
    import pyarrow.parquet as pq

    # deterministic init: the first k vec_ids via a row-group-pruned read
    # (raw vectors — k-means is on L2, not the normalized cosine space)
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", k)],
    )
    df = t.to_pandas().sort_values("vec_id")
    cent = np.stack(df["embedding"].to_numpy()).astype(np.float64)

    # pin the input in the object store once: every Lloyd round rescans it
    ds = _embeddings(sf_dir).materialize()
    inertia_hist: list[float] = []
    for _ in range(iters):
        cref = ray.put(cent)

        def partials(tb: pa.Table) -> pa.Table:
            c = ray.get(cref)
            mat = np.stack(tb["embedding"].to_pandas().to_numpy()).astype(np.float64)
            # squared L2 via the expansion trick: one matmul per batch
            d = (mat * mat).sum(1)[:, None] - 2.0 * (mat @ c.T) + (c * c).sum(1)[None, :]
            a = d.argmin(1)
            kk, dim = c.shape
            sums = np.zeros((kk, dim))
            np.add.at(sums, a, mat)
            counts = np.bincount(a, minlength=kk).astype(np.int64)
            inertia = float(np.maximum(d[np.arange(len(a)), a], 0.0).sum())
            return pa.table(
                {
                    "cluster": pa.array(np.arange(kk, dtype=np.int64)),
                    "sum": pa.array(list(sums)),
                    "count": pa.array(counts),
                    "inertia": pa.array([inertia] + [0.0] * (kk - 1), pa.float64()),
                }
            )

        parts = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
        g = parts.groupby("cluster", sort=True)
        sums = np.stack(g["sum"].apply(lambda s: np.sum(np.stack(s.to_numpy()), axis=0)).to_numpy())
        counts = g["count"].sum().to_numpy()
        inertia_hist.append(float(parts["inertia"].sum()))
        nonempty = counts > 0
        cent = cent.copy()
        cent[nonempty] = sums[nonempty] / counts[nonempty, None]
    return cent, inertia_hist


def kmeans_assign(sf_dir: str, k: int = 16, iters: int = 5):
    """Fit + streaming assignment: Dataset[(vec_id, cluster)] for the whole
    table — one matmul per batch against the broadcast fitted centroids."""
    import ray

    cent, _hist = kmeans_fit(sf_dir, k=k, iters=iters)
    cref = ray.put(cent)

    def assign(tb: pa.Table) -> pa.Table:
        c = ray.get(cref)
        mat = np.stack(tb["embedding"].to_pandas().to_numpy()).astype(np.float64)
        d = (mat * mat).sum(1)[:, None] - 2.0 * (mat @ c.T) + (c * c).sum(1)[None, :]
        return pa.table(
            {
                "vec_id": tb["vec_id"],
                "cluster": pa.array(d.argmin(1).astype(np.int64)),
            }
        )

    return _embeddings(sf_dir).map_batches(assign, batch_format="pyarrow")


def semdedup(sf_dir: str, k: int = 16, iters: int = 3, threshold: float = 0.92,
             max_cluster: int | None = None):
    """SemDeDup-style semantic near-dup removal (Abbas et al. 2023,
    arXiv:2303.09540 — public method): k-means the embedding space, then
    inside each cluster drop every vector whose cosine to an already-kept
    vector exceeds `threshold`, keeping the LOWEST vec_id of each
    semantic-duplicate group (deterministic greedy in vec_id order).

    Scale shape: the O(n²) cosine stage is confined to one CLUSTER
    (~n/k rows) inside a per-cluster task after a hash groupby — the
    all-pairs matrix never spans the table, and assignment itself is one
    broadcast-centroid matmul per batch.

    Hot-cluster escape hatch (``max_cluster``): a pathological cluster —
    all near-identical docs, exactly what dedup inputs look like — would
    otherwise serialize in one group task. With ``max_cluster=N`` set,
    clusters over N rows split by a secondary vec_id hash into parallel
    sub-cells, each locally greedy-pruned, and the sub-cell SURVIVORS get a
    per-cluster boundary re-check pass (global greedy over survivors only
    — dup-heavy clusters shrink massively in phase one, so the re-check is
    small). The output is always a maximal independent set of the
    threshold graph with exact-duplicate groups keeping their lowest
    vec_id; it can differ from pure sequential greedy only for chains of
    borderline-distinct vectors, which is why the SQL-oracled default
    keeps ``max_cluster=None`` (exact greedy) and the salted path is
    pinned by the planted-hot-cluster pytest instead.

    Returns Dataset[(vec_id, cluster)] of SURVIVORS."""
    import ray

    cent, _hist = kmeans_fit(sf_dir, k=k, iters=iters)
    cref = ray.put(cent)

    def assign_keep_vec(tb: pa.Table) -> pa.Table:
        c = ray.get(cref)
        mat = np.stack(tb["embedding"].to_pandas().to_numpy()).astype(np.float64)
        d = (mat * mat).sum(1)[:, None] - 2.0 * (mat @ c.T) + (c * c).sum(1)[None, :]
        return pa.table(
            {
                "vec_id": tb["vec_id"],
                "cluster": pa.array(d.argmin(1).astype(np.int64)),
                "embedding": tb["embedding"],
            }
        )

    assigned = _embeddings(sf_dir).map_batches(
        assign_keep_vec, batch_format="pyarrow"
    )

    def greedy_keep(g: pd.DataFrame) -> pd.DataFrame:
        """Sequential greedy in vec_id order; returns the kept ROWS."""
        g = g.sort_values("vec_id").reset_index(drop=True)
        mat = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        mat = mat / norms
        cos = mat @ mat.T
        kept: list[int] = []
        for i in range(len(g)):
            if not kept or not np.any(cos[i, kept] >= threshold):
                kept.append(i)
        return g.iloc[kept]

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        out = greedy_keep(g)
        return pd.DataFrame(
            {
                "vec_id": out["vec_id"].astype("int64").to_numpy(),
                "cluster": out["cluster"].astype("int64").to_numpy(),
            }
        )

    if max_cluster is None:
        return (
            assigned.groupby("cluster")
            .map_groups(prune, batch_format="pandas")
            .select_columns(["vec_id", "cluster"])
        )

    # salted path: cluster sizes from per-batch partials (k rows — value-
    # domain bound), oversized clusters fan out over hash(vec_id) sub-cells
    import pyarrow as pa_

    size_parts = assigned.map_batches(
        lambda t: pa_.table(
            {
                "cluster": pa_.array(
                    np.unique(t["cluster"].to_numpy(zero_copy_only=False))
                ),
                "n": pa_.array(
                    np.unique(
                        t["cluster"].to_numpy(zero_copy_only=False),
                        return_counts=True,
                    )[1].astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )
    sizes = (
        pa_.concat_tables(
            size_parts.iter_batches(batch_size=None, batch_format="pyarrow"),
            promote_options="default",
        )
        .to_pandas()
        .groupby("cluster")["n"].sum()
    )
    fan = {
        int(c): int(-(-n // max_cluster)) for c, n in sizes.items() if n > max_cluster
    }
    fan_ref = ray.put(fan)

    def salt(t: pa_.Table) -> pa_.Table:
        f = ray.get(fan_ref)
        cl = t["cluster"].to_numpy(zero_copy_only=False)
        sub = np.zeros(len(cl), np.int64)
        if f:
            vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            fans = np.array([f.get(int(c), 1) for c in cl], np.int64)
            sub = (pd.util.hash_array(vid) % fans).astype(np.int64)
        return t.append_column("sub", pa_.array(sub))

    local = (
        assigned.map_batches(salt, batch_format="pyarrow")
        .groupby(["cluster", "sub"])
        .map_groups(
            lambda g: greedy_keep(g)[["vec_id", "cluster", "embedding"]],
            batch_format="pandas",
        )
    )
    # boundary re-check: global greedy per cluster over phase-one survivors
    return (
        local.groupby("cluster")
        .map_groups(prune, batch_format="pandas")
        .select_columns(["vec_id", "cluster"])
    )


def pq_codes(sf_dir: str, m: int = 4, k: int = 16):
    """Product-quantization encoding — THE classic 100 TB ANN memory path
    (Jégou et al. 2011, public method): split each d-dim vector into m
    subspaces and store, per subspace, only the index of the nearest of k
    centroids (here 4×4 bits instead of 64×4 bytes — a 32× compression).

    Codebooks are deterministic for oracle-ability: the first k vectors'
    sub-vectors (a real system would k-means each subspace — kmeans_fit in
    this module is the drop-in). They are broadcast ONCE via ray.put; the
    assignment is one (batch × k) float64 matmul per subspace per batch,
    ties broken toward the lowest centroid index (argmin-first). Returns
    Dataset[(vec_id, code_0..code_{m-1})] and never materializes the table.
    """
    import ray
    import pyarrow.parquet as pq_

    cb_t = pq_.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", k)],
    ).to_pandas().sort_values("vec_id")
    train = np.stack(cb_t["embedding"].to_numpy()).astype(np.float64)
    d = train.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    books = [
        np.ascontiguousarray(train[:, j * sub:(j + 1) * sub]) for j in range(m)
    ]
    bref = ray.put(books)

    def encode(tb: pa.Table) -> pa.Table:
        bs = ray.get(bref)
        mat = np.stack(tb["embedding"].to_pandas().to_numpy()).astype(np.float64)
        cols = {"vec_id": tb["vec_id"]}
        for j, cb in enumerate(bs):
            x = mat[:, j * sub:(j + 1) * sub]
            dist = (
                (x * x).sum(1)[:, None]
                - 2.0 * (x @ cb.T)
                + (cb * cb).sum(1)[None, :]
            )
            cols[f"code_{j}"] = pa.array(dist.argmin(1).astype(np.int64))
        return pa.table(cols)

    return _embeddings(sf_dir).map_batches(encode, batch_format="pyarrow")
