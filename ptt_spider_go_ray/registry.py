"""The query registry. ``EXTRAS`` holds every query outside queries.py —
crawl, media, ingest, text-analysis and sketch pipelines — with its DuckDB
oracle, and :func:`entries` / :func:`queries` / :func:`oracle_sql` are the
one merged view over it and ``queries.QUERIES``. The two approximate KLL
entries have no oracle; pytest gates them instead (tests/test_extensions.py).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import Any

import numpy as np

from .memo import cached
from .oracles_iterative import (
    bottomk_quantiles_sql,
    bpe_merges_sql,
    dedup_embedding_cosine_sql,
    hll_estimate_sql,
    kmeans_clusters_sql,
    pagerank_sql,
    pq_codes_sql,
    semdedup_sql,
)


def _flagship_spans(sf_dir: str):
    from .pipelines.flagship import flagship

    return flagship(sf_dir).select_columns(
        ["doc_id", "n_spans", "n_media", "n_text", "n_text_chars"]
    )


def _explode_media(sf_dir: str):
    from .sources.spans_source import read_span_documents
    from .stages.spans import explode_media_batch, normalize_spans_batch

    ds = read_span_documents(sf_dir)
    ds = ds.map_batches(normalize_spans_batch, batch_format="pyarrow")
    return ds.map_batches(explode_media_batch, batch_format="pyarrow")


# The synthetic-site crawls the crawl/media queries run, each shared by the
# engine helper and its derived oracle (only the input spec is shared, never
# engine logic): name → (SiteSpec kwargs, board or seed lines, pages,
# push_threshold, fetch_media). A seed line is a literal line or a
# (board, page, slot) article ref.
_CRAWLS: dict[str, tuple] = {
    "board": ({"boards": {"Beauty": 4}, "articles_per_page": 6},
              "Beauty", 3, 10, True),
    "media": ({"boards": {"Beauty": 3}, "articles_per_page": 5},
              "Beauty", 2, 0, True),
    "media_png": ({"boards": {"Beauty": 3}, "articles_per_page": 5,
                   "real_png_media": True},
                  "Beauty", 2, 0, True),
    "file_mode": ({"boards": {"Beauty": 4, "Joke": 3}, "articles_per_page": 6},
                  [("Beauty", 2, 1), "# comment line", ("Joke", 1, 2),
                   ("Beauty", 3, 4), "https://other.host/bbs/Beauty/x.html"],
                  0, 0, False),
}


def _crawl_input(name: str):
    """(site, args) for one ``_CRAWLS`` entry; ``args`` are the keyword
    arguments ``run_crawl`` and ``oracle_crawl`` both take."""
    from .sources.synthetic import SiteSpec, SyntheticSite

    spec, where, pages, push, media = _CRAWLS[name]
    site = SyntheticSite(SiteSpec(**spec))
    args = {"board": where, "pages": pages, "push_threshold": push,
            "fetch_media": media, "file_lines": None}
    if not isinstance(where, str):
        args["board"] = ""
        args["file_lines"] = [
            site.article_url(*x) if isinstance(x, tuple) else x for x in where
        ]
    return site, args


def _crawl(name: str):
    """Full crawl loop on a deterministic synthetic site → CrawlResult.
    Memoized: several queries share one crawl (crawl_board + crawl_layout;
    the four media stages), and rerunning it per query would only
    re-measure the crawl loop the bench already measures."""
    from .config import Config
    from .pipelines.crawl import run_crawl
    from .sources.synthetic import mock_transport_factory

    def build():
        site, args = _crawl_input(name)
        cfg = Config()
        cfg.crawler.frontier_shards = 4
        cfg.crawler.batch_urls = 4096
        cfg.crawler.parser_count = 4
        cfg.crawler.robots = False
        return run_crawl(
            cfg,
            transport_factory=functools.partial(mock_transport_factory, site.spec),
            fetch_via="tasks",
            **args,
        )

    return cached(f"crawl_{name}", None, build)


def _oracle_crawl(name: str):
    """(site, plain-Python crawl oracle replay) for one ``_CRAWLS`` entry."""
    from .oracle.crawl_oracle import oracle_crawl

    site, args = _crawl_input(name)
    return site, oracle_crawl(site, **args)


def _crawl_board(sf_dir: str):
    """Board-mode crawl of the synthetic site (sf_dir unused — the site is
    its own deterministic input). Returns the document table."""
    return _crawl("board").docs


def _crawl_file_mode(sf_dir: str):
    """File-mode crawl (S2): deterministic seed lines from the synthetic
    site; titles resolved from article content (P8)."""
    return _crawl("file_mode").docs


def _crawl_media_dataset(name: str):
    """A crawl's media bytes → Dataset ("media_png": the site serves
    GENUINE PNG bodies, so decode stages exercise the real stdlib
    codec). Each caller gets a fresh Dataset over the memoized table."""
    import ray.data

    media = _crawl(name).media
    return ray.data.from_arrow(media.rename_columns(
        [c if c != "url" else "media_ref" for c in media.column_names]
    ))


def _crawl_media_decode_png(sf_dir: str):
    """Crawl (real-PNG site) → ImageDecoder with the REAL stdlib codec:
    dims from each fetched image's IHDR, features from its pixels."""
    from .stages.multimodal import ImageDecoder

    return _crawl_media_dataset("media_png").map_batches(
        ImageDecoder,
        fn_constructor_kwargs={"backend": "png"},
        concurrency=(1, 2),
        batch_size=32,
        batch_format="pyarrow",
    ).select_columns(["media_ref", "n_bytes", "format", "width", "height"])


def _crawl_media_decode_png_oracle_sql() -> str:
    """DERIVED oracle: the plain crawl oracle discovers the same media URLs
    (oracle/crawl_oracle.py — heapq BFS, no Ray), each URL's PNG is
    regenerated by the same deterministic site rule and decoded single-
    process; embedded as a VALUES literal."""
    from .stages.multimodal import PngBackend

    site, want = _oracle_crawl("media_png")
    be = PngBackend()
    rows = []
    for url in want["media_fetched"]:
        body = site.html_for(url)[1] or b""
        _, w, h = be.decode(body)
        rows.append(f"('{url}', {len(body)}, 'png', {w}, {h})")
    return (
        "SELECT media_ref, CAST(n_bytes AS BIGINT) AS n_bytes, format, "
        "CAST(width AS INT) AS width, CAST(height AS INT) AS height "
        + _values_from(rows, "t(media_ref, n_bytes, format, width, height)",
                       ["VARCHAR", "BIGINT", "VARCHAR", "INT", "INT"])
    )


def _crawl_media_decode(sf_dir: str):
    """Crawl media bytes → multimodal decode stage (stubbed backend)."""
    from .stages.multimodal import ImageDecoder

    return _crawl_media_dataset("media").map_batches(
        ImageDecoder,
        fn_constructor_kwargs={"backend": "fake"},
        concurrency=(1, 2),
        batch_size=32,
        batch_format="pyarrow",
    )


def _media_audio_features(sf_dir: str):
    """Crawl media bytes treated as audio → typed metadata + summary feature
    (fake codec backend; real Ray plumbing)."""
    from .stages.multimodal import AudioFeatureStage

    return _crawl_media_dataset("media").map_batches(
        AudioFeatureStage,
        fn_constructor_kwargs={"backend": "fake"},
        concurrency=(1, 2),
        batch_size=32,
        batch_format="pyarrow",
    )


def _media_frame_sample(sf_dir: str):
    """Crawl media bytes treated as video → sampled frame rows (fan-out)."""
    from .stages.multimodal import FrameSampler

    return _crawl_media_dataset("media").map_batches(
        FrameSampler,
        fn_constructor_kwargs={"backend": "fake", "stride": 10, "max_frames": 4},
        concurrency=(1, 2),
        batch_size=16,
        batch_format="pyarrow",
    )


def _media_phash_dedup(sf_dir: str):
    """Crawl media bytes → 64-bit perceptual hashes (actor-pool decode) →
    block-key-bucketed Hamming≤3 near-dup pairs (the image analog of
    dedup_simhash) → the media inventory annotated with each ref's near-dup
    degree (stable schema even when the corpus has zero near-dups, which a
    healthy crawl of distinct images legitimately does). Rows-only driver
    check; pytest gates the banding recall bound and exact-Hamming verify
    on planted hash sets, plus exact-dup bytes through the full stage."""
    import pyarrow as pa

    from ray.data.aggregate import Count

    from .pipelines.dedup import phash_near_dups
    from .stages.multimodal import PHashStage

    media = _crawl_media_dataset("media")
    n_media = media.count()
    hashed = media.map_batches(
        PHashStage,
        fn_constructor_kwargs={"backend": "fake"},
        concurrency=(1, 2),
        batch_size=32,
        batch_format="pyarrow",
    ).materialize()
    pairs = phash_near_dups(hashed, n_rows=n_media).materialize()
    side = lambda c: pairs.map_batches(  # noqa: E731
        lambda t, c=c: pa.table({"media_ref": t[c]}), batch_format="pyarrow"
    )
    deg = (
        side("ref_a").union(side("ref_b"))
        .groupby("media_ref")
        .aggregate(Count(alias_name="n_neardups"))
        .to_pandas()
    )  # bounded by 2×pairs; grouped count stays distributed before this pull
    dmap = dict(zip(deg.get("media_ref", []), deg.get("n_neardups", [])))

    def annotate(t: pa.Table) -> pa.Table:
        refs = t["media_ref"].to_pylist()
        return pa.table(
            {
                "media_ref": t["media_ref"],
                "phash_hex": pa.array(
                    [f"{int(h):016x}" for h in t["phash"].to_pylist()],
                    pa.string(),
                ),
                "n_neardups": pa.array(
                    [int(dmap.get(r, 0)) for r in refs], pa.int64()
                ),
            }
        )

    return hashed.map_batches(annotate, batch_format="pyarrow")


def _phash_dedup_oracle_sql() -> str:
    """DERIVED oracle for media_phash_dedup (the VERDICT-r3 'deterministic
    derived oracle' pattern, like IVF nprobe=nlist ≡ brute force): the
    expected table is computed INDEPENDENTLY of every Ray moving part —
    media discovery by the plain-Python crawl oracle (oracle/crawl_oracle.py,
    heapq BFS over the pure parse functions), near-dup pairs by a brute-force
    O(m²) exact-Hamming scan (no banding, no buckets, no shuffle) — and
    embedded as a VALUES literal DuckDB replays. The per-image hash math
    (gray8/phash64) is shared with the engine by design: the oracle attests
    the distributed plumbing (crawl dedup, 4×16 pigeonhole banding recall,
    pair dedup, degree annotate), not the arithmetic. Pigeonhole guarantees
    banding loses no Hamming≤3 pair, so brute force must match exactly."""
    from .stages.dedup import hamming64
    from .stages.multimodal import FakeDecodeBackend, phash64

    site, want = _oracle_crawl("media")
    refs = want["media_fetched"]  # sorted distinct media URLs
    be = FakeDecodeBackend()
    ph = {r: phash64(be.gray8(site.html_for(r)[1] or b"")) for r in refs}
    deg = dict.fromkeys(refs, 0)
    for i, a in enumerate(refs):
        for b in refs[i + 1:]:
            if hamming64(ph[a], ph[b]) <= 3:
                deg[a] += 1
                deg[b] += 1
    rows = [f"('{r}', '{ph[r]:016x}', {deg[r]})" for r in refs]
    return (
        "SELECT media_ref, phash_hex, CAST(n_neardups AS BIGINT) AS n_neardups "
        + _values_from(rows, "t(media_ref, phash_hex, n_neardups)",
                       ["VARCHAR", "VARCHAR", "BIGINT"])
    )


def _media_resize_plan(sf_dir: str):
    """Decode (fake) → vectorized aspect-preserving resize plan (real math)."""
    from .stages.multimodal import resize_plan_batch

    return _crawl_media_decode(sf_dir).map_batches(
        functools.partial(resize_plan_batch, max_side=512), batch_format="pyarrow"
    )


@functools.lru_cache(maxsize=1)
def _media_oracle_items() -> tuple[tuple[str, str, int, bytes], ...]:
    """Shared replay for the media-stage derived oracles: the media rows
    the engine's crawl feeds the actor-pool stages, computed by the plain
    crawl oracle — (url, doc_id, span_idx, payload bytes) per fetched
    media URL, first-wins provenance."""
    site, want = _oracle_crawl("media")
    out = []
    for url in want["media_fetched"]:
        doc_id, _, span_idx = want["media_meta"][url].rpartition("|")
        out.append((url, doc_id, int(span_idx), site.html_for(url)[1] or b""))
    return tuple(out)


def _values_from(vals: list, alias_cols: str, null_types: list) -> str:
    """FROM-clause for a derived VALUES oracle. ``FROM (VALUES )`` is a
    DuckDB syntax error, so a zero-row replay (possible under SiteSpec
    changes) becomes one row of typed NULLs filtered by ``WHERE false`` —
    an explicit empty relation with the right column types."""
    if vals:
        return f"FROM (VALUES {', '.join(vals)}) AS {alias_cols}"
    row = ", ".join(f"CAST(NULL AS {t})" for t in null_types)
    return f"FROM (VALUES ({row})) AS {alias_cols} WHERE false"


def _float_list_sql(vec) -> str:
    # repr(float(float32)) round-trips: DuckDB parses the double literal and
    # the FLOAT[] cast rounds back to exactly the original float32
    return "CAST(list_value({}) AS FLOAT[])".format(
        ", ".join(repr(float(v)) for v in vec)
    )


def _crawl_media_decode_oracle_sql() -> str:
    """DERIVED oracle for crawl_media_decode (see _phash_dedup_oracle_sql):
    crawl replayed plain, per-item decode math shared by design; attests
    the fan-out, provenance, and actor-pool plumbing."""
    from .stages.multimodal import FakeDecodeBackend

    be = FakeDecodeBackend()
    vals = []
    for url, doc_id, span_idx, data in _media_oracle_items():
        fmt, w, h = be.decode(data)
        vals.append(
            f"('{doc_id}', {span_idx}, '{url}', {len(data)}, '{fmt}', {w}, {h}, "
            f"{_float_list_sql(be.features(data, 16))})"
        )
    return (
        "SELECT doc_id, CAST(span_idx AS INTEGER) AS span_idx, media_ref, "
        "CAST(n_bytes AS BIGINT) AS n_bytes, format, "
        "CAST(width AS INTEGER) AS width, CAST(height AS INTEGER) AS height, "
        "feature " + _values_from(
            vals,
            "t(doc_id, span_idx, media_ref, n_bytes, format, width, height, feature)",
            ["VARCHAR", "INTEGER", "VARCHAR", "BIGINT", "VARCHAR", "INTEGER",
             "INTEGER", "FLOAT[]"],
        )
    )


def _media_audio_features_oracle_sql() -> str:
    """DERIVED oracle for media_audio_features: same replay, audio probe."""
    from .stages.multimodal import FakeAudioBackend

    be = FakeAudioBackend()
    vals = []
    for url, doc_id, span_idx, data in _media_oracle_items():
        rate, n = be.probe(data)
        vals.append(
            f"('{doc_id}', {span_idx}, '{url}', {len(data)}, {rate}, {n}, "
            f"{n * 1000 // rate}, {_float_list_sql(be.features(data, 13))})"
        )
    return (
        "SELECT doc_id, CAST(span_idx AS INTEGER) AS span_idx, media_ref, "
        "CAST(n_bytes AS BIGINT) AS n_bytes, "
        "CAST(sample_rate AS INTEGER) AS sample_rate, "
        "CAST(n_samples AS BIGINT) AS n_samples, "
        "CAST(duration_ms AS BIGINT) AS duration_ms, feature "
        + _values_from(
            vals,
            "t(doc_id, span_idx, media_ref, n_bytes, sample_rate, n_samples, "
            "duration_ms, feature)",
            ["VARCHAR", "INTEGER", "VARCHAR", "BIGINT", "INTEGER", "BIGINT",
             "BIGINT", "FLOAT[]"],
        )
    )


def _media_frame_sample_oracle_sql() -> str:
    """DERIVED oracle for media_frame_sample: same replay, the fan-out
    frame sampling (stride 10, max 4 frames, fps 25) re-done scalar-wise."""
    import hashlib as _hl

    import numpy as _np

    vals = []
    for url, doc_id, span_idx, data in _media_oracle_items():
        h = int.from_bytes(_hl.blake2b(data, digest_size=8).digest(), "little")
        n = 1 + h % 500
        for k, frame in enumerate(range(0, n, 10)):
            if k >= 4:
                break
            rng = _np.random.default_rng((h + frame) & 0xFFFFFFFF)
            feat = rng.standard_normal(16).astype(_np.float32)
            vals.append(
                f"('{doc_id}', {span_idx}, '{url}', {frame}, "
                f"{frame * 1000 // 25}, {_float_list_sql(feat)})"
            )
    return (
        "SELECT doc_id, CAST(span_idx AS INTEGER) AS span_idx, media_ref, "
        "CAST(frame_idx AS INTEGER) AS frame_idx, "
        "CAST(ts_ms AS BIGINT) AS ts_ms, feature "
        + _values_from(
            vals,
            "t(doc_id, span_idx, media_ref, frame_idx, ts_ms, feature)",
            ["VARCHAR", "INTEGER", "VARCHAR", "INTEGER", "BIGINT", "FLOAT[]"],
        )
    )


def _media_resize_plan_oracle_sql() -> str:
    """DERIVED oracle for media_resize_plan (see _phash_dedup_oracle_sql):
    media discovery + provenance (winning doc_id|span_idx) replayed by the
    plain crawl oracle, dims by the shared deterministic decode, the resize
    arithmetic re-done scalar-by-scalar in plain Python (round-half-even ==
    np.rint). Attests the crawl fan-out, the first-wins media provenance,
    and the actor-pool decode → vectorized-plan plumbing."""
    from .stages.multimodal import FakeDecodeBackend

    be = FakeDecodeBackend()
    vals = []
    for url, doc_id, span_idx, data in _media_oracle_items():
        _fmt, w, h = be.decode(data)
        scale = min(1.0, 512.0 / max(float(max(w, h)), 1.0))
        new_w = max(1, round(w * scale))   # round-half-even == np.rint
        new_h = max(1, round(h * scale))
        vals.append(
            f"('{doc_id}', {span_idx}, {w}, {h}, {new_w}, {new_h}, "
            f"{round(scale * 10000)})"
        )
    return (
        "SELECT doc_id, CAST(span_idx AS INTEGER) AS span_idx, "
        "CAST(width AS INTEGER) AS width, CAST(height AS INTEGER) AS height, "
        "CAST(new_width AS INTEGER) AS new_width, "
        "CAST(new_height AS INTEGER) AS new_height, "
        "CAST(scale_e4 AS BIGINT) AS scale_e4 "
        + _values_from(
            vals,
            "t(doc_id, span_idx, width, height, new_width, new_height, scale_e4)",
            ["VARCHAR", "INTEGER", "INTEGER", "INTEGER", "INTEGER", "INTEGER",
             "BIGINT"],
        )
    )


def _crawl_layout(sf_dir: str):
    """Crawl docs → dir-collision layout assignment (T4/D4 groupby)."""
    import ray.data

    from .stages.layout import assign_layout

    docs = _crawl_board(sf_dir).drop_columns(["spans"])
    return assign_layout(ray.data.from_arrow(docs))


def _sql_str(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _doc_rows_values_sql(rows: list[dict]) -> str:
    """doc rows (doc_id/title/url/board/author/push/seq/spans) → a VALUES
    literal whose spans column is list_value(struct_pack(...)) — DuckDB's
    to_pandas of that equals Arrow list<struct> to_pandas elementwise."""

    def span_sql(sp: dict) -> str:
        return (
            f"struct_pack(kind := {_sql_str(sp['kind'])}, "
            f"text := {_sql_str(sp['text'])}, "
            f"media_ref := {_sql_str(sp['media_ref'])}, "
            f"\"offset\" := CAST({sp['offset']} AS INTEGER))"
        )

    vals = [
        "({d}, {t}, {u}, {b}, {a}, {p}, {s}, list_value({sp}))".format(
            d=_sql_str(r["doc_id"]), t=_sql_str(r["title"]), u=_sql_str(r["url"]),
            b=_sql_str(r["board"]), a=_sql_str(r["author"]), p=r["push"],
            s=r["seq"], sp=", ".join(span_sql(x) for x in r["spans"]),
        )
        for r in rows
    ]
    span_t = ('STRUCT(kind VARCHAR, text VARCHAR, media_ref VARCHAR, '
              '"offset" INTEGER)[]')
    return (
        "SELECT doc_id, title, url, board, author, "
        "CAST(push_rate AS INTEGER) AS push_rate, CAST(seq AS BIGINT) AS seq, "
        "spans " + _values_from(
            vals,
            "t(doc_id, title, url, board, author, push_rate, seq, spans)",
            ["VARCHAR", "VARCHAR", "VARCHAR", "VARCHAR", "VARCHAR", "INTEGER",
             "BIGINT", span_t],
        )
    )


def _oracle_doc_rows(want: dict, board_of) -> list[dict]:
    return [
        {
            "doc_id": doc_id, "title": d["title"], "url": d["url"],
            "board": board_of(d["url"]), "author": d["author"],
            "push": d["push"], "seq": d["seq"], "spans": d["spans"],
        }
        for doc_id, d in want["docs"].items()
    ]


def _crawl_board_oracle_sql() -> str:
    """DERIVED oracle for crawl_board (see _phash_dedup_oracle_sql): the
    full document table — interleaved normalized spans included — replayed
    by the plain-Python heapq crawl oracle and embedded as a VALUES literal
    with list_value(struct_pack(...)) spans. Attests the whole board-mode
    path: frontier seed/dispatch, push filter, parse fan-out, per-doc span
    normalization."""
    _site, want = _oracle_crawl("board")
    rows = _oracle_doc_rows(want, lambda u: u.split("/bbs/")[1].split("/")[0])
    return _doc_rows_values_sql(rows)


def _crawl_file_mode_oracle_sql() -> str:
    """DERIVED oracle for crawl_file_mode: same replay over the file-mode
    seed list (prefix filter, content-resolved titles, push=0)."""
    _site, want = _oracle_crawl("file_mode")
    rows = _oracle_doc_rows(want, lambda u: "beauty")  # file-mode board label
    return _doc_rows_values_sql(rows)


def _crawl_layout_oracle_sql() -> str:
    """DERIVED oracle for crawl_layout (same pattern as
    :func:`_phash_dedup_oracle_sql`): the expected doc+layout table is
    computed without Ray — document discovery/ordering by the plain-Python
    heapq crawl oracle, collision suffixing by a driver-side replay of the
    pure functions (clean_file_name + unique_dir_names in seq order) — and
    embedded as a VALUES literal. Attests the engine's frontier dispatch,
    actor-pool parse fan-out, and the (board, dir_key) groupby shuffle."""
    from .functions.parse import clean_file_name, unique_dir_names

    _site, want = _oracle_crawl("board")
    rows = []
    for doc_id, d in want["docs"].items():
        board = d["url"].split("/bbs/")[1].split("/")[0]
        rows.append(
            {
                "doc_id": doc_id,
                "title": d["title"],
                "url": d["url"],
                "board": board,
                "author": d["author"],
                "push_rate": d["push"],
                "seq": d["seq"],
                "dir_key": f"{clean_file_name(d['title'] or '')}_{d['push']}",
            }
        )
    # per-(board, dir_key) ordered suffixing, seq order (layout.py contract)
    by_key: dict[tuple, list] = {}
    for r in rows:
        by_key.setdefault((r["board"], r["dir_key"]), []).append(r)
    for grp in by_key.values():
        grp.sort(key=lambda r: r["seq"])
        names = unique_dir_names([(r["dir_key"], r["url"]) for r in grp])
        for r, n in zip(grp, names):
            r["save_dir"] = f"{r['board']}/{n}"

    esc = lambda s: s.replace("'", "''")  # noqa: E731
    vals = [
        "('{doc_id}', '{title}', '{url}', '{board}', '{author}', {push}, {seq}, "
        "'{dir_key}', '{save_dir}')".format(
            doc_id=esc(r["doc_id"]), title=esc(r["title"]), url=esc(r["url"]),
            board=esc(r["board"]), author=esc(r["author"]), push=r["push_rate"],
            seq=r["seq"], dir_key=esc(r["dir_key"]), save_dir=esc(r["save_dir"]),
        )
        for r in rows
    ]
    return (
        "SELECT doc_id, title, url, board, author, "
        "CAST(push_rate AS INTEGER) AS push_rate, CAST(seq AS BIGINT) AS seq, "
        "dir_key, save_dir " + _values_from(
            vals,
            "t(doc_id, title, url, board, author, push_rate, seq, dir_key, "
            "save_dir)",
            ["VARCHAR", "VARCHAR", "VARCHAR", "VARCHAR", "VARCHAR", "INTEGER",
             "BIGINT", "VARCHAR", "VARCHAR"],
        )
    )


def _dedup_embedding(sf_dir: str):
    """LSH-bucketed embedding near-dup pairs. The raw cosine is quantized to
    cos_e6 (the ann cos_e4 idiom) so the DuckDB LSH replay
    (oracles_iterative.dedup_embedding_cosine_sql) hash-matches across the
    BLAS-vs-sequential inner-product ulp gap; the raw-float pipeline stays
    pytest-gated against planted duplicates."""
    import pyarrow as pa

    from .pipelines.dedup import embedding_cosine_dups

    def quantize(t: pa.Table) -> pa.Table:
        c = t["cos"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vec_a": t["vec_a"],
                "vec_b": t["vec_b"],
                "cos_e6": pa.array(np.rint(c * 1e6).astype(np.int64)),
            }
        )

    return embedding_cosine_dups(sf_dir, threshold=0.3).map_batches(
        quantize, batch_format="pyarrow"
    )


def _lang_id(sf_dir: str):
    from .pipelines.textanalysis import lang_id

    return lang_id(sf_dir)


def _quality_scores(sf_dir: str):
    from .pipelines.textanalysis import quality_scores

    return quality_scores(sf_dir)


def _lang_confusion(sf_dir: str):
    """Language-ID EVALUATION: the (true lang × predicted lang) confusion
    matrix over the oracled lang_id predictions — per-batch crosstab
    partials bounded by the ≤6×6 label domain, driver merge of
    O(blocks × domain) tiny rows. Exact integer counts; the oracle wraps
    the lang_id SQL as a CTE and re-aggregates."""
    import numpy as np
    import pandas as pd

    from .pipelines.textanalysis import lang_id

    def part(df: pd.DataFrame) -> pd.DataFrame:
        # dropna=False keeps a NULL lang group, matching the oracle's SQL
        # GROUP BY semantics (the generated tables are non-null today, but
        # the engine must not silently drop rows if that ever changes)
        g = df.groupby(["lang", "pred_lang"], as_index=False, dropna=False).size()
        return g.rename(columns={"size": "n"}).astype({"n": "int64"})

    parts = (
        lang_id(sf_dir)
        .map_batches(part, batch_format="pandas")
        .to_pandas()
    )
    g = parts.groupby(["lang", "pred_lang"], as_index=False, dropna=False)["n"].sum()
    return pd.DataFrame(
        {
            "lang": g["lang"].astype(object),
            "pred_lang": g["pred_lang"].astype(object),
            "n": g["n"].to_numpy().astype(np.int64),
        }
    )


def _token_counts(sf_dir: str):
    from .pipelines.textanalysis import token_counts_bpe

    return token_counts_bpe(sf_dir)


def _compression_ratio(sf_dir: str):
    from .pipelines.textanalysis import compression_ratio

    return compression_ratio(sf_dir)


def _fingerprints(sf_dir: str):
    from .pipelines.textanalysis import fingerprints

    return fingerprints(sf_dir)


def _approx_distinct_users(sf_dir: str):
    """HLL sketch COUNT(DISTINCT), md5 hash — the estimate itself is
    SQL-attested: DuckDB rebuilds the identical p=12 register state and
    applies the same closed-form estimator (oracles_iterative.hll_estimate_sql;
    pytest additionally asserts <10% error vs exact)."""
    import pandas as pd
    import ray.data

    from .stages.sketch import approx_distinct

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    est = approx_distinct(ds, "user_id", p=12, hash_fn="md5")
    return pd.DataFrame({"n_users_approx": [int(round(est))]})


def _approx_distinct_users_per_type(sf_dir: str):
    """Grouped HLL (md5 hash): approximate distinct users per event type,
    distributed sketch merge. SQL-attested like _approx_distinct_users."""
    import ray.data

    from .stages.sketch import approx_distinct_by

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return approx_distinct_by(ds, "event_type", "user_id", p=12, hash_fn="md5")


def _approx_quantiles_sketch(sf_dir: str):
    """KLL-style mergeable quantile sketch over events.value (approximate →
    rows-only; pytest asserts rank error vs exact quantiles)."""
    import pandas as pd
    import ray.data

    from .stages.sketch import approx_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    est = approx_quantiles(ds, "value", qs=(0.5, 0.9, 0.99))
    return pd.DataFrame(
        {"q": list(est.keys()), "value_approx": [round(v, 6) for v in est.values()]}
    )


def _approx_quantiles_bottomk(sf_dir: str):
    """Approximate quantiles via a deterministic bottom-k md5-hash sample
    (stages/sketch.py::bottomk_quantiles). Unlike the KLL sketch (whose
    state depends on batch boundaries), the sample — and therefore the
    ESTIMATE — is order/partitioning-independent and SQL-attested
    (oracles_iterative.bottomk_quantiles_sql); pytest additionally bounds
    the rank error vs exact quantiles."""
    import ray.data

    from .stages.sketch import bottomk_quantiles

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    return bottomk_quantiles(ds, "value", "event_id", qs=(0.5, 0.9, 0.99), k=2048)


def _approx_quantiles_bottomk_per_type(sf_dir: str):
    """Grouped bottom-k sample quantiles per event_type — distributed
    per-key bottom-k merge; SQL-attested like _approx_quantiles_bottomk."""
    import ray.data

    from .stages.sketch import bottomk_quantiles_by

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    return bottomk_quantiles_by(
        ds, "event_type", "value", "event_id", qs=(0.5, 0.9, 0.99), k=512
    )


def _approx_quantiles_per_type(sf_dir: str):
    """Grouped KLL quantile sketch over events.value per event_type
    (approximate → rows-only; pytest asserts per-group rank error vs exact)."""
    import ray.data

    from .stages.sketch import approx_quantiles_by

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return approx_quantiles_by(ds, "event_type", "value", qs=(0.5, 0.9, 0.99))


def _cms_user_counts(sf_dir: str):
    """Count-Min sketch point frequencies for a deterministic probe set
    (user_id % 7 == 0, first 64): per-batch partial sketches merged on the
    driver — always ≥ exact (pytest asserts the e·N/width overestimate
    bound). SQL-attestable: the int_hash mix32 family lets the DuckDB
    oracle rebuild the same depth×width counters and take the same min."""
    import numpy as np
    import pandas as pd
    import ray.data

    from .stages.sketch import cms_estimate_by

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    hi = ds.max("user_id")
    probes = np.arange(0, hi + 1, dtype=np.int64)
    probes = probes[probes % 7 == 0][:64]
    est, _n = cms_estimate_by(ds, "user_id", probes, int_hash=True)
    return pd.DataFrame({"user_id": probes, "est_n": est.astype(np.int64)})


def _pq_codes(sf_dir: str):
    """Product-quantization encoding (Jégou et al. 2011): per-subspace
    nearest-centroid codes against broadcast deterministic codebooks. Rows-
    only driver check; pytest recomputes the codes in pure numpy on the full
    sf0.001 table and asserts exact equality (plus self-coding of the
    codebook vectors)."""
    from .pipelines.similarity import pq_codes

    return pq_codes(sf_dir, m=4, k=16)


def _kmeans_clusters(sf_dir: str):
    """Distributed Lloyd's k-means over embeddings (iterative ML on Ray Data:
    broadcast centroids → per-batch matmul partials → driver reduce). Rows-only
    driver check; pytest replays the identical iterations in pure numpy and
    asserts assignment equality + non-increasing inertia."""
    from .pipelines.similarity import kmeans_assign

    return kmeans_assign(sf_dir, k=16, iters=5)


def _pagerank_chain(sf_dir: str):
    """Distributed PageRank over the per-lang doc_id chain graph (edge set
    stays distributed; per-round broadcast rank vector + per-block partial
    contribution sums). The float rank is quantized to rank_e9 (the proven
    ann cos_e4 idiom) so the DuckDB replay of the identical power iteration
    (oracles_iterative.pagerank_sql) hash-matches; the raw-float iteration
    stays pytest-gated against a dense-numpy replay."""
    import pyarrow as pa

    from .pipelines.graph import pagerank

    def quantize(t: pa.Table) -> pa.Table:
        r = t["rank"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "rank_e9": pa.array(np.rint(r * 1e9).astype(np.int64)),
            }
        )

    return pagerank(sf_dir, damping=0.85, iters=10).map_batches(
        quantize, batch_format="pyarrow"
    )


def _flagship_write_roundtrip(sf_dir: str):
    """The canonical Ray Data sink: stream the flagship span stats through
    ``Dataset.write_parquet`` (one file per block — resumable, never one
    giant file) and read them back. Oracled with the same SQL as
    flagship_spans: the roundtrip must preserve every value and dtype."""
    import os
    import shutil

    import ray.data

    from .pipelines.flagship import flagship

    out = f"/tmp/flagship_sink_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    ds = flagship(sf_dir, render=False).select_columns(
        ["doc_id", "n_spans", "n_media", "n_text", "n_text_chars"]
    )
    ds.write_parquet(out)
    return ray.data.read_parquet(out)


def _render_markdown(sf_dir: str):
    from .pipelines.flagship import flagship

    return flagship(sf_dir, render=True).select_columns(["doc_id", "markdown"])


def _ingest_jsonl_roundtrip(sf_dir: str):
    """documents → JSONL shards (/tmp scratch) → read_json → harmonize to
    the footer schema. Exercises the JSONL source end-to-end; oracle is the
    original table (a lossless format boundary must be invisible)."""
    import os

    import ray.data

    from .sources.ingest import canonical_schema, export_jsonl, ingest_jsonl

    tag = os.path.basename(os.path.normpath(sf_dir))
    scratch = f"/tmp/ptt_ingest/documents_jsonl_{tag}"
    schema = canonical_schema(sf_dir, "documents")
    export_jsonl(ray.data.read_parquet(f"{sf_dir}/documents.parquet"), scratch)
    return ingest_jsonl(scratch, schema)


def _ingest_csv_roundtrip(sf_dir: str):
    """events → CSV shards → read_csv → harmonize (ns→us timestamp cast).
    The timestamped table goes through CSV because the JSONL writer is
    lossy below one second (sources/ingest.py caveats)."""
    import os

    import ray.data

    from .sources.ingest import canonical_schema, export_csv, ingest_csv

    tag = os.path.basename(os.path.normpath(sf_dir))
    scratch = f"/tmp/ptt_ingest/events_csv_{tag}"
    schema = canonical_schema(sf_dir, "events")
    export_csv(ray.data.read_parquet(f"{sf_dir}/events.parquet"), scratch)
    return ingest_csv(scratch, schema)


def _gallery(n: int, doc_prefix: str, ref_fmt: str, make_bytes, batch_size: int):
    """A deterministic media gallery generated distributed (``ray.data.range``
    → per-batch encode): row ``i`` is doc_id ``<doc_prefix><i>``, span 0,
    media_ref ``ref_fmt.format(i)`` and body ``make_bytes(i)``."""
    import pyarrow as pa
    import ray.data

    def gen(t: pa.Table) -> pa.Table:
        ids = t["id"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array([f"{doc_prefix}{i}" for i in ids], pa.string()),
                "span_idx": pa.array([0] * len(ids), pa.int32()),
                "media_ref": pa.array([ref_fmt.format(i) for i in ids], pa.string()),
                "body": pa.array([make_bytes(i) for i in ids], pa.large_binary()),
            }
        )

    return ray.data.range(n).map_batches(
        gen, batch_format="pyarrow", batch_size=batch_size
    )


_PNG_GALLERY_N = 48


def _png_gallery_bytes(i: int) -> bytes:
    """Deterministic RGB PNG #i (seeded pixels, id-derived dims)."""
    import numpy as np

    from .functions.png import encode_png

    h = 8 + (i * 7) % 40
    w = 8 + (i * 13) % 56
    px = np.random.default_rng(i).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    return encode_png(px)


def _media_png_gallery(sf_dir: str):
    """REAL-codec media pipeline: a deterministic PNG gallery is generated
    DISTRIBUTED (ray.data.range → per-batch stdlib encode), decoded by the
    ImageDecoder actor pool with the pure-stdlib PngBackend (actual pixels,
    not hash-derived fakes), and perceptually hashed by PHashStage. Output:
    (media_ref, n_bytes, width, height, phash_hex). sf_dir is ignored (the
    gallery is the fixture — same convention as the crawl/media family)."""
    import pandas as pd

    from .stages.multimodal import ImageDecoder, PHashStage

    media = _gallery(_PNG_GALLERY_N, "g", "img-{:03d}.png", _png_gallery_bytes, 16)
    meta = media.map_batches(
        ImageDecoder,
        fn_constructor_kwargs={"backend": "png"},
        concurrency=(1, 2),
        batch_size=16,
        batch_format="pyarrow",
    ).select_columns(["media_ref", "n_bytes", "width", "height"]).to_pandas()
    hashed = media.map_batches(
        PHashStage,
        fn_constructor_kwargs={"backend": "png"},
        concurrency=(1, 2),
        batch_size=16,
        batch_format="pyarrow",
    ).to_pandas()  # gallery-sized driver merge (48 rows), like media_phash_dedup
    hashed["phash_hex"] = [f"{int(h):016x}" for h in hashed["phash"]]
    out = meta.merge(hashed[["media_ref", "phash_hex"]], on="media_ref")
    return pd.DataFrame(
        {
            "media_ref": out["media_ref"].astype(str),
            "n_bytes": out["n_bytes"].astype("int64"),
            "width": out["width"].astype("int64"),
            "height": out["height"].astype("int64"),
            "phash_hex": out["phash_hex"].astype(str),
        }
    )


def _media_png_gallery_oracle_sql() -> str:
    """DERIVED oracle: plain single-process replay — encode each gallery id,
    decode with the same stdlib codec, hash — embedded as a VALUES literal.
    Attests the distributed plumbing (range → gen batches → two actor-pool
    stages → merge), not the codec arithmetic (the codec itself is pinned by
    tests/test_png_codec.py round-trip and filter-inversion tests)."""
    from .stages.multimodal import PngBackend, phash64

    be = PngBackend()
    rows = []
    for i in range(_PNG_GALLERY_N):
        b = _png_gallery_bytes(i)
        _, w, h = be.decode(b)
        rows.append(
            f"('img-{i:03d}.png', {len(b)}, {w}, {h}, "
            f"'{phash64(be.gray8(b)):016x}')"
        )
    return (
        "SELECT media_ref, CAST(n_bytes AS BIGINT) AS n_bytes, "
        "CAST(width AS BIGINT) AS width, CAST(height AS BIGINT) AS height, "
        "phash_hex "
        + _values_from(
            rows, "t(media_ref, n_bytes, width, height, phash_hex)",
            ["VARCHAR", "BIGINT", "BIGINT", "BIGINT", "VARCHAR"],
        )
    )


_WAV_GALLERY_N = 40


def _wav_gallery_bytes(i: int) -> bytes:
    """Deterministic 16-bit PCM WAV #i: a seeded sine (id-derived frequency
    and amplitude) plus low seeded noise; every 8th clip is stereo with both
    channels equal (the channel-average must not change the analysis)."""
    import numpy as np

    from .functions.wav import encode_wav

    rate = 16000
    n = 800 + (i * 53) % 800
    t = np.arange(n) / rate
    freq = 100.0 + 37.0 * i
    amp = 0.2 + 0.015 * (i % 40)
    rng = np.random.default_rng(1000 + i)
    x = amp * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(n)
    s = np.clip(x * 32767, -32768, 32767).astype(np.int16)
    if i % 8 == 0:
        s = np.stack([s, s], axis=1)
    return encode_wav(s, rate)


def _media_wav_gallery(sf_dir: str):
    """REAL-codec audio pipeline: deterministic WAV gallery generated
    distributed → AudioFeatureStage actor pool with the stdlib WavBackend
    (header metadata + actual DSP) → integer analysis columns (rms_e6,
    zero_crossings) from a second streaming pass. sf_dir ignored (gallery
    is the fixture, crawl/media-family convention)."""
    import pandas as pd
    import pyarrow as _pa

    from .functions.wav import decode_wav, rms_e6, zero_crossings
    from .stages.multimodal import AudioFeatureStage

    media = _gallery(_WAV_GALLERY_N, "a", "clip-{:03d}.wav", _wav_gallery_bytes, 16)
    meta = media.map_batches(
        AudioFeatureStage,
        fn_constructor_kwargs={"backend": "wav"},
        concurrency=(1, 2),
        batch_size=16,
        batch_format="pyarrow",
    ).select_columns(
        ["media_ref", "sample_rate", "n_samples", "duration_ms"]
    ).to_pandas()

    def analysis(t: _pa.Table) -> _pa.Table:
        refs = t["media_ref"].to_pylist()
        rms, zc = [], []
        for b in t["body"].to_pylist():
            _, x = decode_wav(b or b"")
            rms.append(rms_e6(x))
            zc.append(zero_crossings(x))
        import numpy as np

        return _pa.table(
            {"media_ref": _pa.array(refs, _pa.string()),
             "rms_e6": _pa.array(np.array(rms, np.int64)),
             "zero_crossings": _pa.array(np.array(zc, np.int64))}
        )

    ana = media.map_batches(analysis, batch_format="pyarrow").to_pandas()
    out = meta.merge(ana, on="media_ref")  # gallery-sized driver merge
    return pd.DataFrame(
        {
            "media_ref": out["media_ref"].astype(str),
            "sample_rate": out["sample_rate"].astype("int64"),
            "n_samples": out["n_samples"].astype("int64"),
            "duration_ms": out["duration_ms"].astype("int64"),
            "rms_e6": out["rms_e6"].astype("int64"),
            "zero_crossings": out["zero_crossings"].astype("int64"),
        }
    )


def _media_wav_gallery_oracle_sql() -> str:
    """DERIVED oracle: plain replay of the gallery through the same stdlib
    codec, embedded as a VALUES literal (attests the distributed plumbing;
    the codec itself is pinned by tests/test_wav_codec.py)."""
    from .functions.wav import decode_wav, rms_e6, zero_crossings

    rows = []
    for i in range(_WAV_GALLERY_N):
        b = _wav_gallery_bytes(i)
        rate, x = decode_wav(b)
        rows.append(
            f"('clip-{i:03d}.wav', {rate}, {len(x)}, "
            f"{len(x) * 1000 // rate}, {rms_e6(x)}, {zero_crossings(x)})"
        )
    return (
        "SELECT media_ref, CAST(sample_rate AS BIGINT) AS sample_rate, "
        "CAST(n_samples AS BIGINT) AS n_samples, "
        "CAST(duration_ms AS BIGINT) AS duration_ms, "
        "CAST(rms_e6 AS BIGINT) AS rms_e6, "
        "CAST(zero_crossings AS BIGINT) AS zero_crossings "
        + _values_from(
            rows,
            "t(media_ref, sample_rate, n_samples, duration_ms, rms_e6, "
            "zero_crossings)",
            ["VARCHAR", "BIGINT", "BIGINT", "BIGINT", "BIGINT", "BIGINT"],
        )
    )


_Y4M_GALLERY_N = 24


def _y4m_gallery_bytes(i: int) -> bytes:
    """Deterministic Cmono y4m clip #i: moving-gradient luma frames (pixel
    (y,x) of frame f = (x + 2y + 3f + i) mod 256), id-derived dims/length/
    frame rate."""
    import numpy as np

    from .functions.y4m import encode_y4m

    h = 16 + (i * 5) % 32
    w = 16 + (i * 11) % 48
    n = 12 + (i * 7) % 50
    yy, xx = np.mgrid[0:h, 0:w]
    frames = np.stack(
        [((xx + 2 * yy + 3 * f + i) % 256).astype(np.uint8) for f in range(n)]
    )
    fps = [(25, 1), (30, 1), (24, 1), (30000, 1001)][i % 4]
    return encode_y4m(frames, fps)


def _media_y4m_frames(sf_dir: str):
    """REAL-codec video pipeline: deterministic y4m gallery generated
    distributed → FrameSampler actor pool with the stdlib y4m parser (frame
    counts and timestamps from the CONTAINER, features from actual luma) →
    integer rows (media_ref, frame_idx, ts_ms, luma16_e6 = e6-quantized sum
    of the pooled 4×4 grid). sf_dir ignored (gallery is the fixture)."""
    import numpy as np
    import pyarrow as _pa

    from .stages.multimodal import FrameSampler

    frames = (
        _gallery(_Y4M_GALLERY_N, "v", "vid-{:03d}.y4m", _y4m_gallery_bytes, 8)
        .map_batches(
            FrameSampler,
            fn_constructor_kwargs={"backend": "y4m", "stride": 10,
                                   "max_frames": 4},
            concurrency=(1, 2),
            batch_size=8,
            batch_format="pyarrow",
        )
    )

    def quantize(t: _pa.Table) -> _pa.Table:
        feats = t["feature"].to_pylist()
        luma = np.array(
            [int(round(float(np.sum(f)) * 1e6)) for f in feats], np.int64
        )
        return _pa.table(
            {
                "media_ref": t["media_ref"],
                "frame_idx": _pa.compute.cast(t["frame_idx"], _pa.int64()),
                "ts_ms": _pa.compute.cast(t["ts_ms"], _pa.int64()),
                "luma16_e6": _pa.array(luma),
            }
        )

    return frames.map_batches(quantize, batch_format="pyarrow")


def _media_y4m_frames_oracle_sql() -> str:
    """DERIVED oracle: plain replay — decode each gallery clip, sample the
    same stride, pool the same grid — as a VALUES literal (attests the
    distributed fan-out plumbing; the parser is pinned by
    tests/test_y4m_codec.py)."""
    import numpy as np

    from .functions.y4m import decode_y4m, pool_grid

    rows = []
    for i in range(_Y4M_GALLERY_N):
        num, den, frames = decode_y4m(_y4m_gallery_bytes(i))
        for k, f in enumerate(range(0, len(frames), 10)):
            if k >= 4:
                break
            # replicate the stage's float32 feature cast before summing
            v = (pool_grid(frames[f], 4).reshape(-1) / 255.0).astype(
                np.float32
            ).astype(np.float64)
            luma = int(round(float(np.sum(v)) * 1e6))
            rows.append(
                f"('vid-{i:03d}.y4m', {f}, {f * 1000 * den // num}, {luma})"
            )
    return (
        "SELECT media_ref, CAST(frame_idx AS BIGINT) AS frame_idx, "
        "CAST(ts_ms AS BIGINT) AS ts_ms, CAST(luma16_e6 AS BIGINT) AS luma16_e6 "
        + _values_from(
            rows, "t(media_ref, frame_idx, ts_ms, luma16_e6)",
            ["VARCHAR", "BIGINT", "BIGINT", "BIGINT"],
        )
    )


_PNG_NEARDUP_BASES = 16


def _png_neardup_bytes(i: int) -> bytes:
    """Near-dup PNG gallery: even ids are seeded base images, odd ids are
    their perceptual near-duplicates — the SAME pixels re-encoded with a
    single ±1 tweak to one pixel channel (invisible to an average-hash over
    pooled 8×8 cells, so pHash distance is ~0 while the BYTES differ)."""
    import numpy as np

    from .functions.png import encode_png

    base = i // 2
    px = np.random.default_rng(500 + base).integers(
        0, 256, size=(32, 32, 3), dtype=np.uint8
    )
    if i % 2 == 1:
        px = px.copy()
        px[3, 5, 1] = np.uint8((int(px[3, 5, 1]) + 1) % 256)
    return encode_png(px)


def _media_png_near_dups(sf_dir: str):
    """REAL perceptual near-dup detection end-to-end: the gallery's odd ids
    are pixel-tweaked re-encodings of the even ids (different bytes, same
    image to an average hash). PHashStage(png) hashes ACTUAL pixels, then
    the banded pigeonhole pipeline (pipelines/dedup.py::phash_near_dups)
    finds Hamming≤3 pairs — a property the fake byte-hash backend can never
    exhibit. Output: (ref_a, ref_b, hamming)."""
    from .pipelines.dedup import phash_near_dups
    from .stages.multimodal import PHashStage

    n = _PNG_NEARDUP_BASES * 2

    hashed = (
        _gallery(n, "n", "nd-{:03d}.png", _png_neardup_bytes, 16)
        .map_batches(
            PHashStage,
            fn_constructor_kwargs={"backend": "png"},
            concurrency=(1, 2),
            batch_size=16,
            batch_format="pyarrow",
        )
        .materialize()
    )
    return phash_near_dups(hashed, n_rows=n)


def _media_png_near_dups_oracle_sql() -> str:
    """DERIVED oracle: brute-force O(n²) exact-Hamming scan over the plain
    single-process decode — no banding, no buckets (pigeonhole guarantees
    the banded pipeline loses no Hamming≤3 pair, so brute force must match
    exactly; same adjudication as media_phash_dedup)."""
    from .stages.dedup import hamming64
    from .stages.multimodal import PngBackend, phash64

    be = PngBackend()
    n = _PNG_NEARDUP_BASES * 2
    refs = [f"nd-{i:03d}.png" for i in range(n)]
    ph = {r: phash64(be.gray8(_png_neardup_bytes(i)))
          for i, r in enumerate(refs)}
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            d = hamming64(ph[refs[i]], ph[refs[j]])
            if d <= 3:
                rows.append(f"('{refs[i]}', '{refs[j]}', {d})")
    return (
        "SELECT ref_a, ref_b, CAST(hamming AS BIGINT) AS hamming "
        + _values_from(rows, "t(ref_a, ref_b, hamming)",
                       ["VARCHAR", "VARCHAR", "BIGINT"])
    )


_ROUTER_GALLERY_N = 36


def _router_gallery_bytes(i: int) -> bytes:
    """Mixed-media gallery row #i: cycles PNG / WAV / y4m / filler so the
    magic-byte router has all kinds to dispatch."""
    k = i % 4
    if k == 0:
        return _png_gallery_bytes(i)
    if k == 1:
        return _wav_gallery_bytes(i)
    if k == 2:
        return _y4m_gallery_bytes(i % _Y4M_GALLERY_N)
    return b"\x00filler|" + bytes([i % 251]) * (50 + i * 3)


def _media_router(sf_dir: str):
    """Mixed-corpus ingestion dispatch: sniff each payload's magic bytes
    (stages/multimodal.py::sniff_media_batch — the step that routes rows to
    the right decode stage) and fold per-kind counts + byte totals. One
    streaming map + a kind-keyed aggregate; bodies never leave the map."""
    import pyarrow as _pa
    import ray.data

    from ray.data.aggregate import Count, Sum

    from .stages.multimodal import sniff_media_batch

    def gen(t: _pa.Table) -> _pa.Table:
        ids = [int(x) for x in t["id"].to_pylist()]
        bodies = [_router_gallery_bytes(i) for i in ids]
        return _pa.table(
            {
                "media_ref": _pa.array(
                    [f"mix-{i:03d}" for i in ids], _pa.string()
                ),
                "body": _pa.array(bodies, _pa.large_binary()),
            }
        )

    def project(t: _pa.Table) -> _pa.Table:
        import numpy as np

        return _pa.table(
            {
                "kind": t["kind"],
                "n_bytes": _pa.array(
                    np.array([len(b or b"") for b in t["body"].to_pylist()],
                             np.int64)
                ),
            }
        )

    return (
        ray.data.range(_ROUTER_GALLERY_N)
        .map_batches(gen, batch_format="pyarrow", batch_size=12)
        .map_batches(sniff_media_batch, batch_format="pyarrow")
        .map_batches(project, batch_format="pyarrow")
        .groupby("kind")
        .aggregate(Count(alias_name="n"), Sum("n_bytes", alias_name="total_bytes"))
        .map_batches(
            lambda t: _pa.table(
                {
                    "kind": t["kind"],
                    "n": _pa.compute.cast(t["n"], _pa.int64()),
                    "total_bytes": _pa.compute.cast(
                        t["total_bytes"], _pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


def _media_router_oracle_sql() -> str:
    """DERIVED oracle: plain replay — generate each gallery payload, sniff
    it single-process, fold in Python — as a VALUES literal."""
    from collections import defaultdict

    from .stages.multimodal import sniff_kind

    agg: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for i in range(_ROUTER_GALLERY_N):
        b = _router_gallery_bytes(i)
        a = agg[sniff_kind(b)]
        a[0] += 1
        a[1] += len(b)
    rows = [f"('{k}', {v[0]}, {v[1]})" for k, v in sorted(agg.items())]
    return (
        "SELECT kind, CAST(n AS BIGINT) AS n, "
        "CAST(total_bytes AS BIGINT) AS total_bytes "
        + _values_from(rows, "t(kind, n, total_bytes)",
                       ["VARCHAR", "BIGINT", "BIGINT"])
    )


def _compression_ensemble(sf_dir: str):
    from .pipelines.textanalysis import compression_ensemble

    return compression_ensemble(sf_dir)


def _compression_ensemble_oracle_sql() -> str:
    """DERIVED oracle, md5(text)-keyed across all three scales (the
    _compression_ratio_oracle_sql pattern) — zlib/bz2/lzma attested by an
    independent plain replay; byte length stays on the SQL side."""
    import bz2
    import hashlib
    import lzma
    import zlib

    import pyarrow.parquet as pq

    rows: dict[str, tuple[int, int, int]] = {}
    for sf in ("sf0.001", "sf0.01", "sf0.1"):
        t = pq.read_table(
            f"/root/testdata/{sf}/documents.parquet", columns=["text"]
        )
        for txt in t["text"].to_pylist():
            b = (txt or "").encode("utf-8")
            m = hashlib.md5(b).hexdigest()
            if m not in rows:
                rows[m] = (len(zlib.compress(b, 6)), len(bz2.compress(b, 9)),
                           len(lzma.compress(b, preset=1)))
    vals = ", ".join(
        f"('{m}', {z}, {bz}, {lz})" for m, (z, bz, lz) in sorted(rows.items())
    )
    return f"""
WITH v(text_md5, n_zlib, n_bz2, n_lzma) AS (VALUES {vals}),
d AS (SELECT doc_id, COALESCE(text, '') AS t FROM documents)
SELECT d.doc_id, CAST(strlen(t) AS BIGINT) AS n_raw_bytes,
       CAST(v.n_zlib AS BIGINT) AS n_zlib,
       CAST(v.n_bz2 AS BIGINT) AS n_bz2,
       CAST(v.n_lzma AS BIGINT) AS n_lzma
FROM d JOIN v ON md5(t) = v.text_md5
"""


def _compression_ratio_oracle_sql() -> str:
    """DERIVED oracle for compression_ratio (zlib has no SQL form): the
    per-text compressed size is computed by an independent plain-Python zlib
    replay over ALL THREE testdata scales and embedded as a VALUES literal
    keyed by md5(text) — not doc_id — so ONE static SQL string is correct
    whichever scale the driver binds the views to (an unknown scale fails
    loudly via the inner join's row-count mismatch, never silently). The
    byte length and the single IEEE division stay on the SQL side, so DuckDB
    attests everything except the zlib arithmetic itself."""
    import hashlib
    import zlib

    import pyarrow.parquet as pq

    rows: dict[str, int] = {}
    for sf in ("sf0.001", "sf0.01", "sf0.1"):
        t = pq.read_table(
            f"/root/testdata/{sf}/documents.parquet", columns=["text"]
        )
        for txt in t["text"].to_pylist():
            b = (txt or "").encode("utf-8")
            m = hashlib.md5(b).hexdigest()
            if m not in rows:
                rows[m] = len(zlib.compress(b, 6))
    vals = ", ".join(f"('{m}', {n})" for m, n in sorted(rows.items()))
    return f"""
WITH v(text_md5, n_comp) AS (VALUES {vals}),
d AS (SELECT doc_id, COALESCE(text, '') AS t FROM documents)
SELECT d.doc_id,
       CAST(strlen(t) AS BIGINT) AS n_raw_bytes,
       CAST(v.n_comp AS BIGINT) AS n_comp_bytes,
       CASE WHEN strlen(t) > 0
            THEN CAST(v.n_comp AS DOUBLE) / greatest(strlen(t), 1)
            ELSE 1.0 END AS compression_ratio
FROM d JOIN v ON md5(t) = v.text_md5
"""


def _ingest_orc_roundtrip(sf_dir: str):
    """documents → ORC shards (worker-side sink; Ray ships no ORC writer) →
    read_binary_files + pyarrow.orc decode → harmonize. Oracle: the original
    table — the format boundary must be value- and dtype-invisible."""
    import os

    import ray.data

    from .sources.ingest import canonical_schema, export_orc, ingest_orc

    tag = os.path.basename(os.path.normpath(sf_dir))
    scratch = f"/tmp/ptt_ingest/documents_orc_{tag}"
    schema = canonical_schema(sf_dir, "documents")
    export_orc(ray.data.read_parquet(f"{sf_dir}/documents.parquet"), scratch)
    return ingest_orc(scratch, schema)


def _ingest_feather_roundtrip(sf_dir: str):
    """embeddings → Feather (Arrow IPC) shards → decode → harmonize. The
    nested list<float> column picks this pair on purpose: IPC is the
    lossless boundary, so even float payloads round-trip bit-exactly."""
    import os

    import ray.data

    from .sources.ingest import canonical_schema, export_feather, ingest_feather

    tag = os.path.basename(os.path.normpath(sf_dir))
    scratch = f"/tmp/ptt_ingest/embeddings_feather_{tag}"
    schema = canonical_schema(sf_dir, "embeddings")
    export_feather(
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet"), scratch
    )
    return ingest_feather(scratch, schema)


def _ingest_wds_roundtrip(sf_dir: str):
    """documents → WebDataset tar shards (the standard LLM-training-data
    sample container: <key>.txt + <key>.json members per sample) →
    read_binary_files + tarfile re-assembly → harmonize. Oracle: the
    original table — the shard boundary must be value-invisible."""
    import os

    import ray.data

    from .sources.ingest import canonical_schema, export_wds, ingest_wds

    tag = os.path.basename(os.path.normpath(sf_dir))
    scratch = f"/tmp/ptt_ingest/documents_wds_{tag}"
    schema = canonical_schema(sf_dir, "documents")
    export_wds(ray.data.read_parquet(f"{sf_dir}/documents.parquet"), scratch)
    return ingest_wds(scratch, schema)


def _ingest_jsonl_gz_roundtrip(sf_dir: str):
    """documents → gzip-compressed JSONL shards (the CommonCrawl-style
    .jsonl.gz text container) → gunzip + parse → harmonize. Oracle: the
    original table."""
    import os

    import ray.data

    from .sources.ingest import (
        canonical_schema,
        export_jsonl_gz,
        ingest_jsonl_gz,
    )

    tag = os.path.basename(os.path.normpath(sf_dir))
    scratch = f"/tmp/ptt_ingest/documents_jsonlgz_{tag}"
    schema = canonical_schema(sf_dir, "documents")
    export_jsonl_gz(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet"), scratch
    )
    return ingest_jsonl_gz(scratch, schema)


def _partitioned_write_roundtrip(sf_dir: str):
    """documents → hive-partitioned parquet by source with partition-level
    _SUCCESS resume (sources/ingest.py::export_partitioned; the export runs
    TWICE and the second call must skip every partition) → read back +
    harmonize. Oracle: the original table — the resumable sink must be
    value- and dtype-invisible."""
    import os
    import shutil

    import ray.data

    from .sources.ingest import (
        canonical_schema,
        export_partitioned,
        ingest_partitioned,
    )

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/ptt_part/documents_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    schema = canonical_schema(sf_dir, "documents")
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    first = export_partitioned(ds, out, "source")
    second = export_partitioned(ds, out, "source", resume=True)
    if second or not first:
        raise AssertionError(
            f"partition resume contract broken: first={first} second={second}"
        )
    return ingest_partitioned(out, schema, partition_key="source")


def _semdedup(sf_dir: str):
    """SemDeDup-style semantic dedup survivors (k-means + in-cluster cosine
    prune). No SQL oracle (iterative clustering); exact semantics gated by
    the planted-duplicate pytest in tests/test_extensions.py."""
    from .pipelines.similarity import semdedup

    return semdedup(sf_dir)


def _streaming_dedup(sf_dir: str):
    """Streaming exact dedup via sharded seen-set actors (the crawl
    frontier's first-wins state shape over the documents table). WHICH
    doc_id survives is arrival-order-dependent under parallel batches, but
    the survivor TEXT-DIGEST SET is deterministic (exactly one per distinct
    text) — so the query exposes text_md5 and the DuckDB oracle is a plain
    SELECT DISTINCT md5(text). The doc_id-level one-survivor-per-group
    invariant stays pytest-gated."""
    from .pipelines.dedup import streaming_dedup

    return streaming_dedup(sf_dir).select_columns(["text_md5"])


def _kmv_intersect_users(sf_dir: str):
    """Estimated overlap of the click- and view-audience user sets via
    mergeable KMV (theta) sketches — the intersection HLL cannot compute.
    Approximate but DETERMINISTIC given the hash family; the int_hash
    mix64 family makes the k-minimum order statistics (and hence all three
    estimates) SQL-attestable. Error bounds stay pytest-gated."""
    import ray.data

    from .stages.sketch import kmv_intersect_by

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return kmv_intersect_by(
        ds, "event_type", "user_id", "click", "view", int_hash=True
    )


def _bpe_merges(sf_dir: str):
    """Iterative BPE tokenizer training (distributed word count → K rounds
    of pair-count/argmax/merge over the unique-word table). Iterative, so
    no SQL oracle; pytest gates it against a plain-Python BPE replay
    (tests/test_extensions.py) and the step-0 feed is SQL-oracled as
    bpe_top_pairs."""
    from .pipelines.textanalysis import bpe_merges

    return bpe_merges(sf_dir)


# ---------------------------------------------------------------------------
# DuckDB oracles for the deterministic EXTRA queries. The span-table queries
# re-derive the seed-free synthesis rule of sources/spans_source.py in pure
# SQL (text chunked in 8-token spans; media after chunk j iff
# (doc_id*31+j)%5==0 and doc_id%7!=0; planted duplicate refs — removed by the
# engine's D1 normalize — are rows where rn>1 and (doc_id+j)%11==0).
# ---------------------------------------------------------------------------

# shared CTE prefix: per-doc token count and the kept (post-D1) media spans
_SPAN_BASE_SQL = r"""
WITH base AS (
  SELECT doc_id AS did,
         CASE WHEN text IS NULL OR trim(text) = '' THEN 0
              ELSE CAST(array_length(regexp_split_to_array(trim(text), '\s+')) AS BIGINT)
         END AS ntok,
         CAST(length(regexp_replace(COALESCE(text, ''), '\s', '', 'g')) AS BIGINT) AS nows_chars
  FROM documents
),
iters AS (
  SELECT did, ntok,
         unnest(range(0, CAST(ceil(greatest(ntok, 1) / 8.0) AS BIGINT))) AS j
  FROM base
),
media AS (
  SELECT did, ntok, j,
         row_number() OVER (PARTITION BY did ORDER BY j) AS rn
  FROM iters
  WHERE did % 7 != 0 AND (did * 31 + j) % 5 = 0
),
kept AS (
  SELECT did, ntok, j,
         row_number() OVER (PARTITION BY did ORDER BY j) AS krn
  FROM media
  WHERE rn = 1 OR (did + j) % 11 != 0
)
"""

SQL_EXPLODE_MEDIA = _SPAN_BASE_SQL + r"""
SELECT 'doc' || did AS doc_id,
       CAST(CASE WHEN ntok > 0 THEN j + 1 ELSE 0 END + krn - 1 AS INTEGER) AS span_idx,
       'https://i.imgur.com/d' || did || 'x' || j || '.jpg' AS media_ref,
       'd' || did || 'x' || j || '.jpg' AS file_name
FROM kept
"""

SQL_FLAGSHIP_SPANS = _SPAN_BASE_SQL + r""",
mcounts AS (SELECT did, count(*) AS n_media FROM kept GROUP BY did)
SELECT 'doc' || b.did AS doc_id,
       CAST(CASE WHEN b.ntok > 0 THEN ceil(b.ntok / 8.0) ELSE 0 END
            + COALESCE(m.n_media, 0) AS INTEGER) AS n_spans,
       CAST(COALESCE(m.n_media, 0) AS INTEGER) AS n_media,
       CAST(CASE WHEN b.ntok > 0 THEN ceil(b.ntok / 8.0) ELSE 0 END AS INTEGER) AS n_text,
       CAST(CASE WHEN b.ntok > 0
                 THEN b.nows_chars + b.ntok - CAST(ceil(b.ntok / 8.0) AS BIGINT)
                 ELSE 0 END AS BIGINT) AS n_text_chars
FROM base b LEFT JOIN mcounts m ON b.did = m.did
"""

SQL_RENDER_MARKDOWN = _SPAN_BASE_SQL + r""",
imgs AS (
  SELECT did,
         string_agg('![d' || did || 'x' || j || '.jpg](./d' || did || 'x' || j
                    || '.jpg)' || chr(10), '' ORDER BY j) AS img_lines
  FROM kept GROUP BY did
)
SELECT 'doc' || b.did AS doc_id,
       '# doc' || b.did || chr(10) || chr(10) ||
       '- **文章網址**: [https://www.ptt.cc/bbs/doc' || b.did ||
       '](https://www.ptt.cc/bbs/doc' || b.did || ')' || chr(10) ||
       '- **推文數量**: 0' || chr(10) || chr(10) ||
       '## 圖片列表' || chr(10) || chr(10) ||
       COALESCE(i.img_lines, '') AS markdown
FROM base b LEFT JOIN imgs i ON b.did = i.did
"""

SQL_TOKEN_COUNTS_BPE = r"""
SELECT doc_id,
       CASE WHEN text IS NULL OR trim(text) = '' THEN 0
            ELSE CAST(array_length(regexp_split_to_array(trim(text), '\s+')) AS BIGINT)
       END AS n_ws_tokens,
       CAST(len(regexp_extract_all(COALESCE(text, ''),
                                   '[A-Za-z]+|\d+|[^\sA-Za-z\d]')) AS BIGINT) AS n_bpe_tokens
FROM documents
"""

# rolling Rabin-Karp fingerprint over UTF-8 bytes, mod 2^61-1, base 1000003 —
# byte values recovered from the hex encoding (DuckDB v1.0 has no blob
# subscripting); seeding list_reduce with the first byte equals starting at 0
SQL_FINGERPRINTS = r"""
WITH h AS (SELECT doc_id, hex(encode(COALESCE(text, ''))) AS hx FROM documents)
SELECT doc_id,
       CAST(CASE WHEN length(hx) = 0 THEN 0
            ELSE list_reduce(
              list_transform(range(1, length(hx) // 2 + 1),
                i -> CAST(strpos('0123456789ABCDEF', substr(hx, 2*i-1, 1)) - 1 AS HUGEINT) * 16
                   + CAST(strpos('0123456789ABCDEF', substr(hx, 2*i, 1)) - 1 AS HUGEINT)),
              (acc, b) -> (acc * 1000003 + b) % 2305843009213693951)
       END AS UBIGINT) AS rolling_fp
FROM h
"""


def _quality_scores_sql() -> str:
    """quality_score() replicated in SQL. Every float is an int/int division
    of exactly-representable integers (IEEE-correctly-rounded in both Python
    and DuckDB), and the 0.4/0.3/0.3 score sum is built left-associative in
    the same order as functions/text.py:quality_score, so doubles bit-match."""
    from .functions.text import EN_STOPWORDS

    sw = ", ".join(f"'{w}'" for w in EN_STOPWORDS)
    return rf"""
WITH t AS (SELECT doc_id, COALESCE(text, '') AS txt FROM documents),
b AS (
  SELECT doc_id,
         CAST(length(txt) AS BIGINT) AS n_chars,
         CASE WHEN trim(txt) = '' THEN CAST(0 AS BIGINT)
              ELSE CAST(array_length(regexp_split_to_array(trim(txt), '\s+')) AS BIGINT)
         END AS n_tokens,
         CAST(length(regexp_replace(txt, '\s', '', 'g')) AS BIGINT) AS nows_chars,
         CAST(length(txt) - length(regexp_replace(txt, '[.,;:!?]', '', 'g')) AS BIGINT) AS n_punct,
         CAST(len(list_filter(regexp_split_to_array(trim(lower(txt)), '\s+'),
                              x -> list_contains([{sw}], x))) AS BIGINT) AS n_stop
  FROM t
),
r AS (
  SELECT doc_id, n_chars, n_tokens,
         CASE WHEN n_tokens = 0 THEN CAST(0 AS DOUBLE)
              ELSE CAST(nows_chars AS DOUBLE) / CAST(n_tokens AS DOUBLE) END AS mean_token_len,
         CASE WHEN n_chars = 0 THEN CAST(0 AS DOUBLE)
              ELSE CAST(n_punct AS DOUBLE) / CAST(n_chars AS DOUBLE) END AS punct_ratio,
         CASE WHEN n_tokens = 0 THEN CAST(0 AS DOUBLE)
              ELSE CAST(n_stop AS DOUBLE) / CAST(n_tokens AS DOUBLE) END AS stopword_ratio
  FROM b
)
SELECT doc_id, n_chars, n_tokens, mean_token_len, punct_ratio, stopword_ratio,
       (CASE WHEN mean_token_len >= 3 AND mean_token_len <= 12
             THEN CAST(0.4 AS DOUBLE) ELSE CAST(0 AS DOUBLE) END
        + CASE WHEN n_tokens >= 10 THEN CAST(0.3 AS DOUBLE) ELSE CAST(0 AS DOUBLE) END)
       + CASE WHEN stopword_ratio >= CAST(0.05 AS DOUBLE)
              THEN CAST(0.3 AS DOUBLE) ELSE CAST(0 AS DOUBLE) END AS quality
FROM r
"""


def _lang_id_sql() -> str:
    """Stopword-profile language ID replicated in SQL: integer scores doubled
    (2·hits for word languages, cjk-count for zh ≡ 2·(cjk/2)) so the
    (-score, lang) argmin is computable via a lpad-encoded string key."""
    from .functions.text import STOPWORDS

    score_exprs = []
    for lang in ("de", "en", "es", "fr"):
        words = ", ".join(f"'{w}'" for w in sorted(STOPWORDS[lang]))
        score_exprs.append(
            f"2 * len(list_filter(toks, x -> list_contains([{words}], x))) AS s_{lang}"
        )
    scores = ",\n         ".join(score_exprs)
    # sort key: ascending in (-score) then lang → list_min = engine's argmin
    cand_items = ", ".join(
        f"CASE WHEN s_{lang} > 0 THEN "
        f"lpad(CAST(10000000000 - s_{lang} AS VARCHAR), 11, '0') || '{lang}' "
        "ELSE NULL END"
        for lang in ("de", "en", "es", "fr", "zh")
    )
    return rf"""
WITH t AS (
  SELECT doc_id, lang,
         CASE WHEN text IS NULL OR trim(text) = '' THEN []
              ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks,
         CAST(length(regexp_replace(COALESCE(text, ''), '[^\x{{4e00}}-\x{{9fff}}]', '', 'g')) AS BIGINT) AS s_zh
  FROM documents
),
s AS (
  SELECT doc_id, lang, s_zh,
         {scores}
  FROM t
),
k AS (
  SELECT doc_id, lang,
         list_filter([{cand_items}], x -> x IS NOT NULL) AS keys
  FROM s
)
SELECT doc_id, lang,
       CASE WHEN len(keys) = 0 THEN 'und' ELSE substr(list_min(keys), 12) END AS pred_lang,
       (CASE WHEN len(keys) = 0 THEN 'und' ELSE substr(list_min(keys), 12) END) = lang AS agree
FROM k
"""


# --- SQL twins of the int_hash (mix32/mix64) sketch family -----------------


def _mix_cols_sql(src: str, id_col: str) -> str:
    """Lateral-alias CTE body computing the mix32 halves of ``id_col``:
    h1 = mix32(x, M1, M2), h2raw = mix32(x, M3, M4) — every step BIGINT/
    HUGEINT-exact, mirroring stages/sketch.py::mix32 bit for bit."""
    from .stages.sketch import _MIX_M1, _MIX_M2, _MIX_M3, _MIX_M4

    return f"""
  SELECT {id_col},
         ({id_col} % 4294967296 + 4294967296) % 4294967296 AS u,
         CAST(CAST(u AS HUGEINT) * {_MIX_M1} % 4294967296 AS BIGINT) AS p1,
         xor(p1, p1 // 65536) AS q1,
         CAST(CAST(q1 AS HUGEINT) * {_MIX_M2} % 4294967296 AS BIGINT) AS p2,
         xor(p2, p2 // 65536) AS h1,
         CAST(CAST(u AS HUGEINT) * {_MIX_M3} % 4294967296 AS BIGINT) AS p3,
         xor(p3, p3 // 65536) AS q3,
         CAST(CAST(q3 AS HUGEINT) * {_MIX_M4} % 4294967296 AS BIGINT) AS p4,
         xor(p4, p4 // 65536) AS h2raw
  FROM {src}
"""


SQL_CMS_USER_COUNTS = f"""
WITH ev AS ({_mix_cols_sql("events", "user_id")}),
cnts AS (
  SELECT d.i, (h1 + d.i * (h2raw | 1)) % 8192 AS bkt, count(*) AS n
  FROM ev CROSS JOIN (VALUES (0), (1), (2), (3)) d(i)
  GROUP BY 1, 2
),
probes AS (
  SELECT unnest(range(0, (SELECT max(user_id) FROM events) + 1, 7)) AS user_id
  ORDER BY 1 LIMIT 64
),
pm AS ({_mix_cols_sql("probes", "user_id")}),
pb AS (
  SELECT user_id, d.i, (h1 + d.i * (h2raw | 1)) % 8192 AS bkt
  FROM pm CROSS JOIN (VALUES (0), (1), (2), (3)) d(i)
)
SELECT pb.user_id, CAST(min(COALESCE(c.n, 0)) AS BIGINT) AS est_n
FROM pb LEFT JOIN cnts c ON c.i = pb.i AND c.bkt = pb.bkt
GROUP BY 1
"""


def _kmv_sql() -> str:
    two64 = "CAST(18446744073709551616 AS DOUBLE)"
    sides = {}
    for side, et in (("a", "click"), ("b", "view")):
        src = f"(SELECT user_id FROM events WHERE event_type = '{et}')"
        sides[side] = f"""
h{side} AS (
  SELECT DISTINCT CAST(h1 AS HUGEINT) * 4294967296 + h2raw AS h
  FROM ({_mix_cols_sql(src, "user_id")})
),
k{side} AS (SELECT h FROM h{side} ORDER BY h LIMIT 1024),
n{side} AS (SELECT count(*) AS c FROM h{side}),
t{side} AS (
  SELECT CASE WHEN (SELECT c FROM n{side}) >= 1024
              THEN (SELECT max(h) FROM k{side})
              ELSE CAST(18446744073709551616 AS HUGEINT) END AS t
)"""
    est = {
        s: f"""CASE WHEN (SELECT c FROM n{s}) < 1024
            THEN CAST((SELECT c FROM n{s}) AS DOUBLE)
            ELSE 1023.0 / (CAST((SELECT max(h) FROM k{s}) AS DOUBLE) / {two64})
       END"""
        for s in ("a", "b")
    }
    return f"""
WITH {sides["a"].lstrip()},
{sides["b"].lstrip()},
thr AS (SELECT least((SELECT t FROM ta), (SELECT t FROM tb)) AS t),
inter AS (
  SELECT count(*) AS c
  FROM ka JOIN kb USING (h)
  WHERE h < (SELECT t FROM thr)
)
SELECT {est["a"]} AS est_distinct_a,
       {est["b"]} AS est_distinct_b,
       CASE WHEN (SELECT t FROM thr) >= CAST(18446744073709551616 AS HUGEINT)
            THEN CAST((SELECT c FROM inter) AS DOUBLE)
            ELSE (SELECT c FROM inter)
                 / (CAST((SELECT t FROM thr) AS DOUBLE) / {two64})
       END AS est_intersection
"""


SQL_KMV_INTERSECT_USERS = _kmv_sql()

SQL_STREAMING_DEDUP = """
SELECT DISTINCT md5(COALESCE(text, '')) AS text_md5 FROM documents
"""


# Every query outside queries.py: name → (fn, oracle). The oracle is DuckDB
# SQL, a zero-argument callable building it on demand (the derived
# VALUES-literal oracles run a plain-Python replay; resolved only by
# oracle_sql()), or None for the approximate queries pytest gates instead.
EXTRAS: dict[str, tuple[Callable[[str], Any], Any]] = {
    "ingest_jsonl_roundtrip": (_ingest_jsonl_roundtrip, "SELECT * FROM documents"),
    "ingest_csv_roundtrip": (_ingest_csv_roundtrip, "SELECT * FROM events"),
    "ingest_orc_roundtrip": (_ingest_orc_roundtrip, "SELECT * FROM documents"),
    "ingest_feather_roundtrip": (_ingest_feather_roundtrip,
                                 "SELECT * FROM embeddings"),
    "ingest_wds_roundtrip": (_ingest_wds_roundtrip, "SELECT * FROM documents"),
    "ingest_jsonl_gz_roundtrip": (_ingest_jsonl_gz_roundtrip, "SELECT * FROM documents"),
    "partitioned_write_roundtrip": (_partitioned_write_roundtrip, "SELECT * FROM documents"),
    "flagship_spans": (_flagship_spans, SQL_FLAGSHIP_SPANS),
    "explode_media": (_explode_media, SQL_EXPLODE_MEDIA),
    "crawl_board": (_crawl_board, _crawl_board_oracle_sql),
    "crawl_media_decode": (_crawl_media_decode, _crawl_media_decode_oracle_sql),
    "media_audio_features": (_media_audio_features,
                             _media_audio_features_oracle_sql),
    "media_frame_sample": (_media_frame_sample, _media_frame_sample_oracle_sql),
    "media_resize_plan": (_media_resize_plan, _media_resize_plan_oracle_sql),
    "media_phash_dedup": (_media_phash_dedup, _phash_dedup_oracle_sql),
    "media_png_gallery": (_media_png_gallery, _media_png_gallery_oracle_sql),
    "media_wav_gallery": (_media_wav_gallery, _media_wav_gallery_oracle_sql),
    "media_y4m_frames": (_media_y4m_frames, _media_y4m_frames_oracle_sql),
    "media_png_near_dups": (_media_png_near_dups,
                            _media_png_near_dups_oracle_sql),
    "crawl_media_decode_png": (_crawl_media_decode_png,
                               _crawl_media_decode_png_oracle_sql),
    "media_router": (_media_router, _media_router_oracle_sql),
    "crawl_layout": (_crawl_layout, _crawl_layout_oracle_sql),
    "crawl_file_mode": (_crawl_file_mode, _crawl_file_mode_oracle_sql),
    # plane literals are ~100 KB of SQL — built on demand
    "dedup_embedding_cosine": (
        _dedup_embedding,
        functools.partial(dedup_embedding_cosine_sql, threshold=0.3),
    ),
    "lang_id": (_lang_id, _lang_id_sql()),
    "lang_confusion": (
        _lang_confusion,
        f"WITH pred AS ({_lang_id_sql()})\n"
        "SELECT lang, pred_lang, CAST(count(*) AS BIGINT) AS n "
        "FROM pred GROUP BY 1, 2",
    ),
    "quality_scores": (_quality_scores, _quality_scores_sql()),
    "token_counts_bpe": (_token_counts, SQL_TOKEN_COUNTS_BPE),
    "compression_ratio": (_compression_ratio, _compression_ratio_oracle_sql),
    "compression_ensemble": (_compression_ensemble,
                             _compression_ensemble_oracle_sql),
    "fingerprints": (_fingerprints, SQL_FINGERPRINTS),
    "approx_distinct_users": (_approx_distinct_users, hll_estimate_sql(p=12)),
    "approx_distinct_users_per_type": (
        _approx_distinct_users_per_type,
        hll_estimate_sql(p=12, group_key="event_type", out_col="n_approx"),
    ),
    "approx_quantiles_sketch": (_approx_quantiles_sketch, None),
    "approx_quantiles_per_type": (_approx_quantiles_per_type, None),
    "approx_quantiles_bottomk": (_approx_quantiles_bottomk,
                                 bottomk_quantiles_sql(k=2048)),
    "approx_quantiles_bottomk_per_type": (
        _approx_quantiles_bottomk_per_type,
        bottomk_quantiles_sql(k=512, group_key="event_type"),
    ),
    "kmeans_clusters": (_kmeans_clusters, kmeans_clusters_sql(k=16, iters=5)),
    "pq_codes": (_pq_codes, pq_codes_sql(m=4, k=16)),
    "pagerank_chain": (_pagerank_chain, pagerank_sql(damping=0.85, iters=10)),
    "semdedup": (_semdedup, semdedup_sql(k=16, iters=3, threshold=0.92)),
    "bpe_merges": (_bpe_merges, bpe_merges_sql(n_merges=6)),
    "cms_user_counts": (_cms_user_counts, SQL_CMS_USER_COUNTS),
    "kmv_intersect_users": (_kmv_intersect_users, SQL_KMV_INTERSECT_USERS),
    "streaming_dedup": (_streaming_dedup, SQL_STREAMING_DEDUP),
    "render_markdown": (_render_markdown, SQL_RENDER_MARKDOWN),
    # the parquet write→read roundtrip must reproduce flagship_spans exactly
    "flagship_write_roundtrip": (_flagship_write_roundtrip, SQL_FLAGSHIP_SPANS),
}


def entries() -> dict[str, tuple[Callable[[str], Any], Any]]:
    """The one merged registry: every query name → (fn, oracle) — the
    derived ``queries.QUERIES`` table plus ``EXTRAS``, oracles unresolved."""
    from .queries import QUERIES

    return {**QUERIES, **EXTRAS}


def queries() -> dict[str, Callable[[str], Any]]:
    """Every registered query: name → fn(sf_dir)."""
    return {name: fn for name, (fn, _oracle) in entries().items()}


def oracle_sql() -> dict[str, str]:
    """Every oracled query: name → DuckDB SQL (lazy oracles resolved here)."""
    return {
        name: oracle() if callable(oracle) else oracle
        for name, (_fn, oracle) in entries().items()
        if oracle is not None
    }
