"""End-to-end crawl tests on a deterministic synthetic site (no network):
crawl-ordering equality, final URL-seen-set equality, span-sequence
equality per doc, push filter, failure skip-and-continue, and
kill → checkpoint → resume without refetch or duplication (north rule)."""

import functools

import pytest

from crawl_oracle import oracle_crawl
from ptt_spider_go_ray.config import Config
from ptt_spider_go_ray.pipelines.crawl import run_crawl
from ptt_spider_go_ray.sources.synthetic import (
    SiteSpec,
    SyntheticSite,
    mock_transport_factory as make_transport,
)


def cfg_small(**over):
    c = Config()
    c.crawler.frontier_shards = 4
    c.crawler.batch_urls = 16
    c.crawler.fetch_batch_size = 8
    c.crawler.parser_count = 2
    for k, v in over.items():
        setattr(c.crawler, k, v)
    return c


SPEC = SiteSpec(boards={"Beauty": 5, "Joke": 3}, articles_per_page=5)


@pytest.fixture(scope="module")
def board_crawl(ray_session):
    factory = functools.partial(make_transport, SPEC)
    res = run_crawl(
        cfg_small(),
        transport_factory=factory,
        board="Beauty",
        pages=3,
        push_threshold=10,
    )
    want = oracle_crawl(
        SyntheticSite(SPEC), "Beauty", 3, push_threshold=10, batch_urls=16
    )
    return res, want


def test_crawl_ordering_equality(board_crawl):
    res, want = board_crawl
    assert res.ledger == want["ledger"]


def test_final_seen_set_equality(board_crawl):
    res, want = board_crawl
    assert res.seen_set == want["seen"]
    assert res.metrics["cuckoo_false_positives"] == 0


def test_docs_match_oracle_span_sequences(board_crawl):
    res, want = board_crawl
    assert res.docs is not None
    got = {r["doc_id"]: r for r in res.docs.to_pylist()}
    assert set(got) == set(want["docs"])
    for doc_id, w in want["docs"].items():
        g = got[doc_id]
        media = [s["media_ref"] for s in g["spans"] if s["kind"] == "media"]
        assert media == w["media_refs"], doc_id          # order + dedup (D1/O3)
        assert g["title"] == w["title"]
        assert g["push_rate"] == w["push"]
        offs = [s["offset"] for s in g["spans"]]
        assert offs == list(range(len(offs)))


def test_media_results_match(board_crawl):
    res, want = board_crawl
    got_media = sorted(r["url"] for r in res.media.to_pylist() if r["media_ok"])
    assert got_media == want["media_fetched"]
    for r in res.media.to_pylist():
        assert r["media_ok"] and r["n_bytes"] > 0 and r["doc_id"].startswith("bbs/")


def test_push_threshold_respected(board_crawl):
    res, _ = board_crawl
    pushes = [r["push_rate"] for r in res.docs.to_pylist()]
    assert all(p >= 10 for p in pushes)


def test_file_mode(ray_session):
    site = SyntheticSite(SPEC)
    lines = [
        "  " + site.article_url("Beauty", 2, 2) + "  ",
        "# comment",
        site.article_url("Joke", 1, 3),
        "https://other.host/bbs/Beauty/x.html",
        "",
    ]
    factory = functools.partial(make_transport, SPEC)
    res = run_crawl(
        cfg_small(),
        transport_factory=factory,
        file_lines=lines,
        board="beauty",
    )
    want = oracle_crawl(site, "", 0, batch_urls=16, file_lines=lines)
    assert res.ledger == want["ledger"]
    assert res.seen_set == want["seen"]
    got = {r["doc_id"]: r for r in res.docs.to_pylist()}
    assert set(got) == set(want["docs"])
    # file mode: push 0, title from article content (P8)
    for doc_id, w in want["docs"].items():
        assert got[doc_id]["title"] == w["title"]
        assert got[doc_id]["push_rate"] == 0


def test_fetch_failures_skip_and_continue(ray_session):
    spec = SiteSpec(boards={"Beauty": 3}, articles_per_page=4)
    # every article on page 2 404s; one article always-429s
    site = SyntheticSite(spec)
    bad_article = site.article_url("Beauty", 3, 2)
    spec.not_found = {site.article_id("Beauty", 2, 0)}
    spec.always_429 = {site.article_id("Beauty", 3, 2)}
    factory = functools.partial(make_transport, spec)
    res = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty", pages=3
    )
    assert res.metrics["fetch_errors"] >= 1
    # failure classes survive the dataflow as error_kind (errors.go taxonomy)
    assert res.metrics["fetch_errors_by_kind"].get("NetworkError", 0) >= 1
    doc_urls = {r["url"] for r in res.docs.to_pylist()}
    assert bad_article not in doc_urls
    assert res.finished


def test_resume_from_checkpoint_no_refetch(ray_session, tmp_path):
    factory = functools.partial(make_transport, SPEC)
    ck = str(tmp_path / "ckpt")
    out1 = str(tmp_path / "out1")

    # uninterrupted reference run
    full = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty", pages=3,
        push_threshold=10,
    )

    # killed run: stop after 2 rounds (retain_ledger=True: with a
    # checkpoint_dir the production default keeps only counts in memory —
    # this ordering-equality test opts into full in-memory retention)
    part = run_crawl(
        cfg_small(checkpoint_dir=ck), transport_factory=factory,
        board="Beauty", pages=3, push_threshold=10, max_rounds=2, out_dir=out1,
        retain_ledger=True,
    )
    assert not part.finished and part.rounds == 2

    # resume and finish
    rest = run_crawl(
        cfg_small(checkpoint_dir=ck), transport_factory=factory,
        board="Beauty", pages=3, push_threshold=10, resume=True, out_dir=out1,
        retain_ledger=True,
    )
    assert rest.finished

    # ledger continues exactly — no URL dispatched (fetched) twice
    assert rest.ledger == full.ledger
    urls = [u for _, _, u in rest.ledger]
    assert len(urls) == len(set(urls))
    assert rest.seen_set == full.seen_set

    # docs across both runs equal the uninterrupted run's docs (idempotent output)
    import pyarrow as pa

    combined = pa.concat_tables(t for t in (part.docs, rest.docs) if t is not None)
    got_ids = sorted(combined["doc_id"].to_pylist())
    assert got_ids == sorted(full.docs["doc_id"].to_pylist())
    assert len(got_ids) == len(set(got_ids))


def test_resume_with_checkpoint_interval(ray_session, tmp_path):
    """checkpoint_every=2 writes sparse epochs (2, then the final flush);
    restore must union whatever delta files exist and continue exactly."""
    factory = functools.partial(make_transport, SPEC)
    ck = str(tmp_path / "ck")
    full = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty", pages=3,
        push_threshold=10,
    )
    part = run_crawl(
        cfg_small(checkpoint_dir=ck, checkpoint_every=2),
        transport_factory=factory, board="Beauty", pages=3, push_threshold=10,
        max_rounds=3, retain_ledger=True,
    )
    assert not part.finished
    rest = run_crawl(
        cfg_small(checkpoint_dir=ck, checkpoint_every=2),
        transport_factory=factory, board="Beauty", pages=3, push_threshold=10,
        resume=True, retain_ledger=True,
    )
    assert rest.finished
    assert rest.ledger == full.ledger
    assert rest.seen_set == full.seen_set


def test_production_memory_contract(ray_session, tmp_path):
    """With out_dir + checkpoint_dir set (production defaults), the driver
    retains only metadata: no in-memory ledger, no spans, no media bodies.
    Full rows are written worker-side to out_dir; the ledger lives in the
    per-epoch checkpoint parquet and row-counts to `dispatched`."""
    import glob

    import pyarrow.parquet as pq

    from ptt_spider_go_ray.sources import storage

    factory = functools.partial(make_transport, SPEC)
    ck, out = str(tmp_path / "ck"), str(tmp_path / "out")
    res = run_crawl(
        cfg_small(checkpoint_dir=ck), transport_factory=factory,
        board="Beauty", pages=3, push_threshold=10, out_dir=out,
    )
    assert res.ledger == [] and res.dispatched > 0
    assert "spans" not in res.docs.column_names
    assert "body" not in res.media.column_names

    docs_full = storage.read_table(out, "docs")
    assert "spans" in docs_full.column_names
    assert sorted(docs_full["doc_id"].to_pylist()) == sorted(res.docs["doc_id"].to_pylist())
    media_full = storage.read_table(out, "media")
    assert "body" in media_full.column_names
    assert all(len(b) > 0 for b in media_full["body"].to_pylist())

    n = sum(pq.ParquetFile(p).metadata.num_rows
            for p in glob.glob(f"{ck}/ledger_epoch*.parquet"))
    assert n == res.dispatched

    # only the LATEST full shard snapshot is retained (superseded ones are
    # deleted); the per-epoch delta files (ledger + seen) all remain
    assert len(glob.glob(f"{ck}/shards_epoch*.parquet")) == 1
    assert len(glob.glob(f"{ck}/seen_epoch*.parquet")) == res.rounds


def test_robots_gating(ray_session):
    spec = SiteSpec(boards={"Beauty": 2}, articles_per_page=4,
                    robots_disallow=["/bbs/Beauty/M.170000020"])
    factory = functools.partial(make_transport, spec)
    res = run_crawl(cfg_small(), transport_factory=factory, board="Beauty", pages=2)
    # denied articles are filtered at offer time (driver robots cache — one
    # robots.txt fetch per host) and never fetched
    doc_urls = {r["url"] for r in res.docs.to_pylist()}
    assert all("/M.170000020" not in u for u in doc_urls)
    assert res.metrics["robots_denied"] >= 1
    assert all("/M.170000020" not in u for _, _, u in res.ledger)


def test_multi_board_seed_list(ray_session):
    factory = functools.partial(make_transport, SPEC)
    res = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty,Joke",
        pages=2, push_threshold=10,
    )
    want = oracle_crawl(
        SyntheticSite(SPEC), "Beauty,Joke", 2, push_threshold=10, batch_urls=16
    )
    assert res.ledger == want["ledger"]
    assert res.seen_set == want["seen"]
    boards = {r["board"] for r in res.docs.to_pylist()}
    assert boards == {"Beauty", "Joke"}


def test_politeness_paced_crawl_completes(ray_session):
    from ptt_spider_go_ray.config import Config

    factory = functools.partial(make_transport, SPEC)
    base = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty", pages=2,
        push_threshold=10,
    )
    cfg = cfg_small()
    cfg.crawler.politeness_rate = 40.0  # real pacing, small site → finishes fast
    paced = run_crawl(
        cfg, transport_factory=factory, board="Beauty", pages=2,
        push_threshold=10, deterministic=False,
    )
    assert paced.finished
    # pacing must not change WHAT is crawled (set equality; order may differ)
    assert paced.seen_set == base.seen_set
    assert sorted(paced.docs["doc_id"].to_pylist()) == sorted(
        base.docs["doc_id"].to_pylist()
    )


def test_frontier_spill_crawl_identical(ray_session, tmp_path):
    """With a tiny per-shard memory bound the frontier spills to disk —
    crawl ordering, seen set and docs must be IDENTICAL to the unbounded
    run (the spill is an exact external priority queue)."""
    factory = functools.partial(make_transport, SPEC)
    base = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty,Joke", pages=3,
        push_threshold=0,
    )
    spilled = run_crawl(
        cfg_small(frontier_max_mem_rows=2, spill_dir=str(tmp_path / "spill")),
        transport_factory=factory, board="Beauty,Joke", pages=3, push_threshold=0,
    )
    assert spilled.ledger == base.ledger
    assert spilled.seen_set == base.seen_set
    assert sorted(spilled.docs["doc_id"].to_pylist()) == sorted(
        base.docs["doc_id"].to_pylist()
    )
    spill_count = sum(
        m.get("spilled", 0) for m in spilled.metrics["shards"]
    )
    assert spill_count > 0  # the bound actually engaged


def test_429_host_cooldown_feedback(ray_session):
    """A host that exhausts its 429 retries cools down on every owning
    shard (server-driven backoff feedback); the crawl still completes and
    the cooldown metric records the event. Short horizon so the test
    doesn't stall."""
    spec = SiteSpec(boards={"Beauty": 3}, articles_per_page=4)
    site = SyntheticSite(spec)
    spec.always_429 = {site.article_id("Beauty", 3, 1)}
    factory = functools.partial(make_transport, spec)
    cfg = cfg_small(cooldown_429_s=0.3)
    cfg.crawler.politeness_rate = 200.0  # paced mode, effectively unthrottled
    res = run_crawl(
        cfg, transport_factory=factory, board="Beauty", pages=3,
        push_threshold=0, deterministic=False,
    )
    assert res.finished
    assert res.metrics["fetch_errors_by_kind"].get("NetworkError", 0) >= 1
    assert sum(m.get("cooldowns", 0) for m in res.metrics["shards"]) >= 1


def test_max_depth_bounds_expansion(ray_session):
    """max_depth=1 admits index(0)→article(1) candidates but drops the
    media(2) fan-out — the crawl terminates with docs but no media."""
    factory = functools.partial(make_transport, SPEC)
    res = run_crawl(
        cfg_small(max_depth=1), transport_factory=factory, board="Beauty",
        pages=3, push_threshold=10,
    )
    assert res.finished
    assert res.docs is not None and res.docs.num_rows > 0
    assert res.media is None
    assert not any(u.endswith((".jpg", ".jpeg", ".png", ".gif"))
                   for _, _, u in res.ledger)


def test_exact_seen_disabled_pure_cuckoo(ray_session):
    """The 10^10-scale configuration: exact_seen=False leaves the cuckoo
    filter as the only seen set. At test scale (no FPs expected) the crawl
    must fetch exactly the same documents as the default configuration."""
    factory = functools.partial(make_transport, SPEC)
    base = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty", pages=3,
        push_threshold=10,
    )
    pure = run_crawl(
        cfg_small(exact_seen=False), transport_factory=factory, board="Beauty",
        pages=3, push_threshold=10,
    )
    assert pure.finished
    assert pure.seen_set == []  # exact side-set off → not reconstructable
    assert sorted(pure.docs["doc_id"].to_pylist()) == sorted(
        base.docs["doc_id"].to_pylist()
    )
    assert pure.ledger == base.ledger
    assert pure.metrics["total_duplicates"] == base.metrics["total_duplicates"]


def test_duplicate_board_in_seed_list_deduped(ray_session):
    factory = functools.partial(make_transport, SPEC)
    res = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty,Beauty",
        pages=2, push_threshold=10,
    )
    single = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty",
        pages=2, push_threshold=10,
    )
    # second copy's seeds are URL-duplicates → seen-set drops them;
    # the crawl degenerates to the single-board run
    assert res.seen_set == single.seen_set
    urls = [u for _, _, u in res.ledger]
    assert len(urls) == len(set(urls))


def test_file_path_streaming_equals_file_lines(ray_session, tmp_path):
    """file_path (ray.data.read_text streaming seeds — bounded driver
    memory) must produce the exact same ledger/seen-set/docs as the
    in-memory file_lines path."""
    site = SyntheticSite(SPEC)
    lines = [
        "  " + site.article_url("Beauty", 2, 2) + "  ",
        "# comment",
        site.article_url("Joke", 1, 3),
        site.article_url("Beauty", 3, 1),
        "https://other.host/bbs/Beauty/x.html",
    ]
    seed_file = tmp_path / "seeds.txt"
    seed_file.write_text("\n".join(lines) + "\n")
    factory = functools.partial(make_transport, SPEC)

    via_lines = run_crawl(
        cfg_small(), transport_factory=factory, file_lines=lines, board="beauty"
    )
    via_path = run_crawl(
        cfg_small(), transport_factory=factory, file_path=str(seed_file),
        board="beauty",
    )
    assert via_path.ledger == via_lines.ledger
    assert via_path.seen_set == via_lines.seen_set
    got_l = {r["doc_id"]: r for r in via_lines.docs.to_pylist()}
    got_p = {r["doc_id"]: r for r in via_path.docs.to_pylist()}
    assert got_p.keys() == got_l.keys()
    for k in got_l:
        assert got_p[k]["spans"] == got_l[k]["spans"]


def test_stream_seed_file_multi_chunk_ordering(ray_session, tmp_path):
    """Chunked streaming (chunk_rows smaller than the file) must preserve
    global seq order across chunk boundaries."""
    import ray

    from ptt_spider_go_ray.pipelines.crawl import stream_seed_file
    from ptt_spider_go_ray.state.frontier import FrontierShard

    site = SyntheticSite(SPEC)
    urls = [site.article_url("Beauty", p, i) for p in (1, 2, 3) for i in range(4)]
    seed_file = tmp_path / "seeds.txt"
    seed_file.write_text("\n".join(urls) + "\n")

    RemoteShard = ray.remote(num_cpus=0)(FrontierShard)
    shards = [RemoteShard.remote(i) for i in range(4)]
    n = stream_seed_file(shards, str(seed_file), "beauty", 4, chunk_rows=3)
    assert n == len(urls)
    taken = ray.get([s.take.remote(100) for s in shards])
    rows = sorted((r for lst in taken for r in lst), key=lambda r: r["seq"])
    assert [r["url"] for r in rows] == urls
    assert [r["seq"] for r in rows] == list(range(len(urls)))
    for s in shards:
        ray.kill(s)


def test_clear_stale_rounds_unit(tmp_path):
    """Resume deletes crashed-attempt partitions at/past the restored epoch
    (the rerun may drain the frontier in fewer rounds and never re-reach
    them); rounds before the epoch are checkpointed output and must stay."""
    from ptt_spider_go_ray.pipelines.crawl import _clear_stale_rounds

    for name in ("docs", "media"):
        for k in range(4, 9):
            d = tmp_path / name / f"round={k}"
            d.mkdir(parents=True)
            (d / "part-0.parquet").write_bytes(b"x")

    _clear_stale_rounds(str(tmp_path), 6)
    for name in ("docs", "media"):
        kept = sorted(p.name for p in (tmp_path / name).iterdir())
        assert kept == ["round=4", "round=5"]


def test_resume_clears_crashed_attempt_partitions(ray_session, tmp_path):
    """E2E for the restore-time cleanup: a crashed attempt's output for
    rounds at/past the restored epoch (including rounds the rerun never
    reaches again) must not survive into the final read."""
    import os

    from ptt_spider_go_ray.sources.storage import read_table

    factory = functools.partial(make_transport, SPEC)
    ck = str(tmp_path / "ck")
    out = str(tmp_path / "out")

    part = run_crawl(
        cfg_small(checkpoint_dir=ck), transport_factory=factory,
        board="Beauty", pages=3, push_threshold=10, max_rounds=2, out_dir=out,
    )
    assert not part.finished

    # plant a stale partition as if the crashed attempt got further than the
    # checkpoint (round index the rerun may never re-reach)
    stale = os.path.join(out, "docs", "round=99")
    os.makedirs(stale)
    import pyarrow.parquet as pq

    dup = read_table(out, "docs")  # everything written so far
    pq.write_table(dup, os.path.join(stale, "part-0.parquet"))

    rest = run_crawl(
        cfg_small(checkpoint_dir=ck), transport_factory=factory,
        board="Beauty", pages=3, push_threshold=10, resume=True, out_dir=out,
    )
    assert rest.finished
    assert not os.path.exists(stale)

    full = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty", pages=3,
        push_threshold=10,
    )
    got = read_table(out, "docs")
    got_ids = sorted(got["doc_id"].to_pylist())
    assert got_ids == sorted(full.docs["doc_id"].to_pylist())
    assert len(got_ids) == len(set(got_ids))


def test_resume_with_spill_media_and_interval(ray_session, tmp_path):
    """The capstone production shape all at once: bounded frontier heaps
    (exact disk spill), interval checkpoints, media fetching, kill after 2
    rounds, resume — ledger, seen set, and combined doc/media outputs must
    equal the uninterrupted unbounded run's."""
    import pyarrow as pa

    factory = functools.partial(make_transport, SPEC)
    ck = str(tmp_path / "ck")

    full = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty", pages=3,
        push_threshold=10, fetch_media=True,
    )
    part = run_crawl(
        cfg_small(checkpoint_dir=ck, checkpoint_every=2,
                  frontier_max_mem_rows=8, spill_dir=str(tmp_path / "spill")),
        transport_factory=factory, board="Beauty", pages=3, push_threshold=10,
        fetch_media=True, max_rounds=2, retain_ledger=True,
    )
    assert not part.finished and part.rounds == 2
    rest = run_crawl(
        cfg_small(checkpoint_dir=ck, checkpoint_every=2,
                  frontier_max_mem_rows=8, spill_dir=str(tmp_path / "spill")),
        transport_factory=factory, board="Beauty", pages=3, push_threshold=10,
        fetch_media=True, resume=True, retain_ledger=True,
    )
    assert rest.finished
    assert rest.ledger == full.ledger
    assert rest.seen_set == full.seen_set

    docs = pa.concat_tables(t for t in (part.docs, rest.docs) if t is not None)
    assert sorted(docs["doc_id"].to_pylist()) == sorted(full.docs["doc_id"].to_pylist())
    media = pa.concat_tables(t for t in (part.media, rest.media) if t is not None)
    assert sorted(media["url"].to_pylist()) == sorted(full.media["url"].to_pylist())


def test_task_fetch_ships_local_factory_by_value(ray_session):
    """The task-mode fetch path must serialize a transport factory defined
    in a NON-importable scope (the CLI's __main__ analog) BY VALUE —
    stdlib pickle shipped a dangling __main__ reference that blew up in
    workers (regression for the fetch_via='tasks' default)."""
    spec = SiteSpec(boards={"Beauty": 2}, articles_per_page=2)

    def local_factory():  # deliberately defined inside the test function
        return make_transport(spec)

    res = run_crawl(
        cfg_small(),
        transport_factory=local_factory,
        board="Beauty",
        pages=2,
        fetch_media=False,
        fetch_via="tasks",
    )
    assert res.finished and res.dispatched > 0
    assert res.metrics["fetch_errors"] == 0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_relaxed_ordering_same_outputs(ray_session, depth):
    """Pipelined (relaxed_ordering=True) crawl: dispatch ORDER may differ
    from the strict schedule, but the URL set (each dispatched exactly
    once), the final seen-set, and every doc's content/span sequence must
    equal the oracle's — at any pipeline depth. Depth 1 IS the strict
    schedule, so there the ledger equals the oracle's exactly."""
    factory = functools.partial(make_transport, SPEC)
    res = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty", pages=3,
        push_threshold=10, relaxed_ordering=True, pipeline_depth=depth,
    )
    want = oracle_crawl(
        SyntheticSite(SPEC), "Beauty", 3, push_threshold=10, batch_urls=16
    )
    assert res.seen_set == want["seen"]
    assert res.metrics["cuckoo_false_positives"] == 0
    if depth == 1:
        assert res.ledger == want["ledger"]
    urls = [u for _, _, u in res.ledger]
    assert len(urls) == len(set(urls))  # no URL fetched twice
    assert sorted(urls) == sorted(u for _, _, u in want["ledger"])
    got = {r["doc_id"]: r for r in res.docs.to_pylist()}
    assert set(got) == set(want["docs"])
    for doc_id, w in want["docs"].items():
        g = got[doc_id]
        media = [s["media_ref"] for s in g["spans"] if s["kind"] == "media"]
        assert media == w["media_refs"], doc_id
        assert g["title"] == w["title"]
        assert g["push_rate"] == w["push"]
        offs = [s["offset"] for s in g["spans"]]
        assert offs == list(range(len(offs)))


def test_relaxed_ordering_rejects_depth_below_one():
    """A pipeline shallower than one round is an error, raised before any
    shard actor spawns."""
    with pytest.raises(ValueError, match="pipeline_depth"):
        run_crawl(
            cfg_small(), transport_factory=functools.partial(make_transport, SPEC),
            board="Beauty", relaxed_ordering=True, pipeline_depth=0,
        )


def test_relaxed_ordering_kill_resume_exact(ray_session, tmp_path):
    """A checkpoint taken while later rounds are still in flight holds their
    rows as pending, so a killed pipelined run resumes without refetching or
    duplicating — same URL set and doc ids as an uninterrupted relaxed run."""
    import pyarrow as pa

    factory = functools.partial(make_transport, SPEC)
    ck = str(tmp_path / "ck")
    full = run_crawl(
        cfg_small(), transport_factory=factory, board="Beauty", pages=3,
        push_threshold=10, relaxed_ordering=True,
    )
    part = run_crawl(
        cfg_small(checkpoint_dir=ck, checkpoint_every=2),
        transport_factory=factory, board="Beauty", pages=3, push_threshold=10,
        max_rounds=2, retain_ledger=True, relaxed_ordering=True,
    )
    assert not part.finished
    rest = run_crawl(
        cfg_small(checkpoint_dir=ck, checkpoint_every=2),
        transport_factory=factory, board="Beauty", pages=3, push_threshold=10,
        resume=True, retain_ledger=True, relaxed_ordering=True,
    )
    assert rest.finished
    urls = [u for _, _, u in rest.ledger]
    assert len(urls) == len(set(urls))  # resume never refetches
    assert rest.seen_set == full.seen_set
    combined = pa.concat_tables(
        t for t in (part.docs, rest.docs) if t is not None
    )
    got_ids = sorted(combined["doc_id"].to_pylist())
    assert got_ids == sorted(full.docs["doc_id"].to_pylist())
    assert len(got_ids) == len(set(got_ids))


def _fetched_slice(site, rows):
    """A fetched slice as ``fetch_batch_task`` returns it: ``rows`` (frontier
    rows) fetched from ``site`` without Ray."""
    import pyarrow as pa

    from ptt_spider_go_ray.schemas import FRONTIER_SCHEMA

    tbl = pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)
    pages = [site.html_for(u) for u in tbl["url"].to_pylist()]
    return (
        tbl.append_column("ok", pa.array([s == 200 for s, _ in pages]))
        .append_column("error", pa.array([""] * len(pages), pa.string()))
        .append_column("error_kind", pa.array([""] * len(pages), pa.string()))
        .append_column("body", pa.array([b for _, b in pages], pa.large_binary()))
    )


def test_process_block_rejects_candidates_from_non_discovering_slice():
    """The lookahead invariant, without Ray: a slice whose kinds the parse
    stage declares non-discovering must yield no candidate rows, and
    ``_process_block`` raises if it does (its offers would be committed
    behind a take that never saw them)."""
    from ptt_spider_go_ray.pipelines.crawl import _process_block
    from ptt_spider_go_ray.stages.parse_stages import ParseStage
    from ptt_spider_go_ray.state.frontier import frontier_row

    site = SyntheticSite(SPEC)
    assert ParseStage(fetch_media=True).discovering_kinds == {"index", "article"}
    assert ParseStage(fetch_media=False).discovering_kinds == {"index"}
    articles = _fetched_slice(site, [
        frontier_row(site.article_url("Beauty", 5, i), "article", 1, i, depth=1,
                     board="Beauty")
        for i in range(5)
    ])
    index = _fetched_slice(site, [frontier_row(site.index_url("Beauty", 5), "index",
                                               0, 0, depth=0, board="Beauty")])

    no_media = ParseStage(fetch_media=False)(articles)
    assert "cand" not in no_media["row_type"].to_pylist()
    out = _process_block(no_media, "", 0, 0)
    assert out["n_cand"] == 0 and out["doc"].num_rows > 0
    # an index slice discovers articles even without media
    assert "cand" in ParseStage(fetch_media=False)(index)["row_type"].to_pylist()
    _process_block(ParseStage(fetch_media=False)(index), "", 0, 0)

    with_media = ParseStage(fetch_media=True)(articles)
    assert "cand" in with_media["row_type"].to_pylist()
    _process_block(with_media, "", 0, 0)
    # the same rows under the non-discovering declaration must not pass
    bad = with_media.replace_schema_metadata(no_media.schema.metadata)
    with pytest.raises(RuntimeError, match="non-discovering"):
        _process_block(bad, "", 0, 0)


def _process_block_dying_once(tbl, out_dir, epoch, part, shards=None, n_shards=0,
                              max_depth=0, *, marker):
    """``_process_block``, except that the first call to yield candidates
    (an index slice) runs it, then kills its worker process."""
    import os

    from ptt_spider_go_ray.pipelines.crawl import _process_block

    out = _process_block(tbl, out_dir, epoch, part, shards=shards, n_shards=n_shards,
                         max_depth=max_depth)
    if out["n_cand"]:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return out
        os._exit(1)
    return out


def test_killed_slice_task_offers_its_candidates_once(ray_session, tmp_path, monkeypatch):
    """A slice task whose worker dies after processing an index slice is
    retried by Ray. Only the retry's candidates reach the shards: ledger and
    seen set equal the oracle's, and the duplicate count equals an
    uninterrupted run's (a killed attempt that had already offered its
    candidates would count each of them once more as a duplicate)."""
    from ptt_spider_go_ray.pipelines import crawl as crawl_mod

    factory = functools.partial(make_transport, SPEC)

    def crawl():
        return run_crawl(cfg_small(), transport_factory=factory, board="Beauty",
                         pages=3, push_threshold=0, fetch_media=False)

    whole = crawl()
    marker = tmp_path / "killed"
    monkeypatch.setattr(crawl_mod, "_process_block",
                        functools.partial(_process_block_dying_once, marker=str(marker)))
    killed = crawl()
    want = oracle_crawl(SyntheticSite(SPEC), "Beauty", 3, push_threshold=0,
                        batch_urls=16, fetch_media=False)
    assert marker.exists()
    assert killed.ledger == want["ledger"] == whole.ledger
    assert killed.seen_set == want["seen"]
    assert killed.metrics["total_duplicates"] == whole.metrics["total_duplicates"]


def _checkpoint_ledger(ckpt_dir):
    """The dispatch ledger as the checkpoint files record it."""
    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.crawl import _epochs

    out = []
    for e in _epochs(ckpt_dir, "ledger", 1 << 30):
        t = pq.read_table(f"{ckpt_dir}/ledger_epoch{e}.parquet")
        out.extend(zip(t["priority"].to_pylist(), t["seq"].to_pylist(),
                       t["url"].to_pylist()))
    return out


def test_lookahead_rounds_keep_oracle_ledger(ray_session, tmp_path):
    """Strict mode takes the next round before an article round drains when
    no media is fetched (article rounds discover nothing). One index round,
    then several article rounds with checkpoints every second round: the
    ledger the checkpoints record equals the oracle's, and the lookahead
    engaged. A crawl of index pages only never looks ahead."""
    factory = functools.partial(make_transport, SPEC)
    ck = str(tmp_path / "ck")
    res = run_crawl(
        cfg_small(checkpoint_dir=ck, checkpoint_every=2, batch_urls=4),
        transport_factory=factory, board="Beauty", pages=3, push_threshold=0,
        fetch_media=False, out_dir=str(tmp_path / "out"),
    )
    want = oracle_crawl(SyntheticSite(SPEC), "Beauty", 3, push_threshold=0,
                        batch_urls=4, fetch_media=False)
    assert res.finished and res.rounds >= 4
    assert _checkpoint_ledger(ck) == want["ledger"]
    assert res.seen_set == want["seen"]
    assert res.metrics["lookahead_rounds"] > 0
    shards = res.metrics["shards"]
    assert sum(m["taken"] - m["pushed_back"] for m in shards) == res.dispatched

    index_only = run_crawl(
        cfg_small(batch_urls=2, max_depth=0), transport_factory=factory,
        board="Beauty", pages=5, fetch_media=False,
    )
    assert index_only.rounds == 3
    assert {u for _, _, u in index_only.ledger} == {
        SyntheticSite(SPEC).index_url("Beauty", p) for p in range(1, 6)}
    assert index_only.metrics["lookahead_rounds"] == 0


def test_resume_from_checkpoint_written_during_lookahead(ray_session, tmp_path):
    """Kill right after the epoch-2 checkpoint, while the lookahead round 3
    is in flight (the checkpoint and output dirs are copied from the
    progress callback): the snapshot holds round 3's rows as pending, and a
    resume from the copy continues exactly — same ledger, seen set and doc
    ids as the uninterrupted run, no URL fetched twice."""
    import json
    import shutil

    import pyarrow.parquet as pq

    from ptt_spider_go_ray.pipelines.crawl import _heap_from_ipc
    from ptt_spider_go_ray.sources.storage import read_table

    factory = functools.partial(make_transport, SPEC)
    ck, out = str(tmp_path / "ck"), str(tmp_path / "out")
    ck_kill, out_kill = str(tmp_path / "ck_kill"), str(tmp_path / "out_kill")
    at_kill = {}

    def copy_at_epoch_2(p):
        if p["round"] == 2:
            shutil.copytree(ck, ck_kill)
            shutil.copytree(out, out_kill)
            at_kill["pending"] = p["pending"]

    def cfg(spill):
        return cfg_small(checkpoint_dir=ck, checkpoint_every=2, batch_urls=4,
                         frontier_max_mem_rows=2, spill_dir=str(tmp_path / spill))

    full = run_crawl(
        cfg("spill"), transport_factory=factory, board="Beauty", pages=3,
        push_threshold=0, fetch_media=False, out_dir=out, retain_ledger=True,
        progress=copy_at_epoch_2,
    )
    assert full.finished and full.metrics["lookahead_rounds"] > 0
    assert sum(m.get("spilled", 0) for m in full.metrics["shards"]) > 0

    snap = pq.read_table(f"{ck_kill}/shards_epoch2.parquet").to_pylist()
    with open(f"{ck_kill}/LATEST") as f:
        assert f.read() == "2"
    done = _checkpoint_ledger(ck_kill)
    # round 3 was in flight: its rows are pending in the snapshot, though
    # the shards had handed them out, and they are not counted as taken
    assert sum(len(_heap_from_ipc(s["heap"])) for s in snap) > at_kill["pending"]
    counts = [json.loads(s["metrics"]) for s in snap]
    assert sum(m["taken"] - m["pushed_back"] for m in counts) == len(done)

    c = cfg("spill_resume")
    c.crawler.checkpoint_dir = ck_kill
    rest = run_crawl(
        c, transport_factory=factory, board="Beauty", pages=3, push_threshold=0,
        fetch_media=False, out_dir=out_kill, resume=True, retain_ledger=True,
    )
    assert rest.finished
    assert rest.ledger == full.ledger
    assert rest.seen_set == full.seen_set
    urls = [u for _, _, u in rest.ledger]
    assert len(urls) == len(set(urls))
    # the resumed run fetched none of the checkpointed rounds' pages
    assert set(rest.docs["url"].to_pylist()).isdisjoint(u for _, _, u in done)
    got = sorted(read_table(out_kill, "docs")["doc_id"].to_pylist())
    assert got == sorted(read_table(out, "docs")["doc_id"].to_pylist())
    assert len(got) == len(set(got))
