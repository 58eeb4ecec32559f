"""The crawl loop: frontier actor shards feeding rounds of fused slice tasks.

Per round:

    take_global(shards, B)             # B globally-smallest (priority, seq):
                                       # shards return rows, the driver
                                       # merges them into one Arrow table
    → one Ray task per fetch_batch_size slice of the B rows, each running
        fetch_batch_task               # parser_count pages / workers media
                                       # in flight at once, T1/T2/T3/S4
        → ParseStage                   # P1-P9, union output
        → _process_block               # split: docs/media → per-round
                                       # partitioned Parquet (resumable
                                       # output) or returned tables (tests);
                                       # candidates → grouped by shard
      and returning 1 + n_shards values: the slice's metadata, then its
      candidate rows for each shard
    → drain: ray.get the round's metadata, hand each shard its candidate
      refs in one offer_buffered call (the driver never reads them), then
      commit_offers on every shard (applied in (priority, seq) order,
      first-wins dedup D2), then the ledger, a due checkpoint and the
      harvest of the round's outputs.

The slice task calls no actor: its work after the fetch is parsing and
splitting, and a commit applies exactly the offers of the round that
drains. A slice task that dies and is retried by Ray offers nothing twice,
since only the returns of the attempt that finished reach the shards.

A round is a bounded batch of plain tasks rather than a streaming Dataset:
there is no backpressure to buy. Each slice's rows travel once, as Arrow
IPC bytes in the task argument, and the doc/media tables come back the same
way (``_to_ipc`` / ``_from_ipc``), so no Arrow table crosses the task
boundary through Ray's per-buffer table pickling.

One round loop, no driver threads: slice tasks are already asynchronous,
so the driver keeps a queue of submitted rounds and drains the oldest when
it must. ``relaxed_ordering`` keeps ``pipeline_depth`` rounds in flight.
Strict ordering takes the next round before the in-flight one drains
(lookahead) only while that take is already fixed: in a deterministic run
(no token refill, no 429 cooldown) when no in-flight round holds a row of
a kind ``ParseStage.discovering_kinds`` names — e.g. article rounds that
fetch no media. A round that can discover runs alone, so the commit at its
drain applies exactly its offers, and the next take sees them.

Crawl-ordering contract (O2, well-posed version of the reference's racy
per-kind FIFO): each round dispatches the globally smallest (priority, seq)
pending rows; the ledger records them round by round. A plain-Python oracle
(tests/test_crawl_e2e.py) replays the same rule and must produce the
identical ledger and final URL-seen set; strict lookahead keeps it.

Checkpoint/resume (north rule): every ``checkpoint_every`` drained rounds
each shard's heap + cuckoo segment + lineage/metrics are written to Parquet
together with the driver ledger; ``run_crawl(resume=True)`` reloads the
latest epoch and continues without refetching or duplicating URLs. A round
still in flight is not waited for: its rows go into the snapshot as pending
and its candidates, which no shard has seen yet, stay out, so the snapshot
is the frontier as it stood when the checkpointed round drained.

Shard actors stay pure Python: every Arrow conversion of frontier rows (the
round table, the checkpoint's heap IPC bytes) happens here, on the driver.
"""

from __future__ import annotations

import glob
import os
import re
import shutil
from collections import deque
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import Config
from ..functions.parse import (
    board_page_urls,
    is_seed_line,
    parse_max_page,
    validate_board,
)
from ..schemas import CHECKPOINT_SCHEMA, FRONTIER_SCHEMA
from ..sources import storage
from ..stages.fetch import _no_sleep, fetch_batch_task, fetch_with_retry
from ..stages.parse_stages import DISCOVERS_KEY, ParseStage
from ..state.frontier import FrontierShard, frontier_row, shard_for


@dataclass
class CrawlResult:
    """Crawl outcome. Memory contract: when ``out_dir`` is set, ``docs`` and
    ``media`` hold METADATA ONLY (no spans / no bodies — the full rows were
    written worker-side to ``out_dir``); when it is empty (test mode) they
    hold the full tables. ``ledger`` is populated only when the run retained
    it (see ``run_crawl(retain_ledger=...)``); ``dispatched`` always counts
    dispatched URLs."""

    ledger: list[tuple] = field(default_factory=list)  # (priority, seq, url) per round order
    dispatched: int = 0
    docs: pa.Table | None = None
    media: pa.Table | None = None
    seen_set: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    rounds: int = 0
    finished: bool = True
    out_dir: str = ""
    setup_seconds: float = 0.0   # shard-actor spawn + seeding
    loop_seconds: float = 0.0    # fetch/parse/offer rounds only


_DOC_COLS = ["doc_id", "title", "url", "board", "author", "push_rate", "seq", "spans"]
_MEDIA_COLS = ["doc_id", "span_idx", "url", "board", "n_bytes", "media_ok", "body", "seq"]


def _process_block(tbl: pa.Table, out_dir: str, epoch: int, part: int,
                   shards=None, n_shards: int = 0, max_depth: int = 0) -> dict:
    """Worker-side round-output processing: split one union block by
    row_type, write doc/media rows to ``out_dir`` (when set) from the worker,
    and group the discovered candidates within ``max_depth`` by their owning
    frontier shard. Runs inside the slice task that fetched and parsed the
    block, so span payloads and media bodies never funnel through the driver
    in production; it calls no actor.

    Returns ``cands``, one row list per shard (``n_shards`` of them; none
    for 0), their total ``n_cand``, the doc/media tables (metadata only when
    ``out_dir`` is set, full tables in test mode) and error counts.
    ``shards`` is accepted for callers that still pass it and is not used.

    Raises ``RuntimeError`` when ``ParseStage`` marked the slice as holding
    no row of a discovering kind but it yielded candidates: the crawl loop
    takes the next round before such a slice's round drains, so its offers
    would be committed behind a take that never saw them."""
    discovers = (tbl.schema.metadata or {}).get(DISCOVERS_KEY) != b"0"
    tbl = tbl.replace_schema_metadata(None)

    def split(rt: str, drop: list[str]) -> pa.Table | None:
        t = tbl.filter(pc.equal(tbl["row_type"], rt))
        return t.drop_columns(drop) if t.num_rows else None

    cand = split("cand", ["body", "spans", "row_type"])
    if cand is not None and not discovers:
        raise RuntimeError(
            f"slice of non-discovering kinds yielded {cand.num_rows} candidate "
            f"row(s), e.g. {cand['url'][0].as_py()!r}"
        )
    doc = split("doc", ["body"])
    media = split("media_result", ["spans"])
    err = split("fetch_err", ["body", "spans"])

    cands: list[list[dict]] = [[] for _ in range(n_shards)]
    if cand is not None and n_shards:
        for c in cand.select(FRONTIER_SCHEMA.names).to_pylist():
            if c["depth"] <= max_depth:
                cands[shard_for(c, n_shards)].append(c)

    doc_out = media_out = None
    if doc is not None:
        doc_out = doc.select(_DOC_COLS)
        if out_dir:
            storage.write_partition(doc_out, out_dir, "docs", f"round={epoch}", part=part)
            doc_out = doc_out.drop_columns(["spans"])
    if media is not None:
        media_out = media.select(_MEDIA_COLS)
        if out_dir:
            storage.write_partition(media_out, out_dir, "media", f"round={epoch}", part=part)
            media_out = media_out.drop_columns(["body"])
    err_by_kind: dict[str, int] = {}
    hosts_429: set[str] = set()
    if err is not None:
        from ..functions.parse import url_host

        for u, k, msg in zip(
            err["url"].to_pylist(), err["error_kind"].to_pylist(),
            err["meta"].to_pylist(),
        ):
            k = k or "UnknownError"
            err_by_kind[k] = err_by_kind.get(k, 0) + 1
            if msg and msg.startswith("still 429"):
                hosts_429.add(url_host(u))
    return {
        "n_cand": sum(map(len, cands)),
        "cands": cands,
        "doc": doc_out,
        "media": media_out,
        "n_err": err.num_rows if err is not None else 0,
        "err_by_kind": err_by_kind,
        "hosts_429": hosts_429,
    }


def _exec_slice(rows_ipc: bytes, fetch, parse, process, fetch_kwargs: dict,
                out_dir: str, epoch: int, part: int, n_shards: int,
                max_depth: int) -> tuple:
    """One round slice, fused into one task: fetch its rows (concurrently,
    see ``fetch_batch_task``), parse them, then split/write the union block.
    The three stages arrive as arguments, resolved by the driver. Returns
    ``1 + n_shards`` values: the slice's metadata (the doc/media tables as
    Arrow IPC bytes), then its candidate rows for each shard, which the
    driver passes on to the shard at the round's drain without reading
    them. The slice itself arrives as Arrow IPC bytes."""
    out = process(parse(fetch(_from_ipc(rows_ipc), **fetch_kwargs)), out_dir,
                  epoch, part, n_shards=n_shards, max_depth=max_depth)
    cands = out.pop("cands")
    return ({**out, "doc": _to_ipc(out["doc"]), "media": _to_ipc(out["media"])},
            *cands)


def seed_rows_board(transport, board: str, pages: int, seed_offset: int = 0) -> list[dict]:
    """S1: one driver-side fetch for max page, then newest-first page URLs."""
    validate_board(board)
    from ..functions.parse import PTT_BASE_URL

    status, body, _, err = fetch_with_retry(transport, f"{PTT_BASE_URL}/bbs/{board}/index.html",
                                            sleep=_no_sleep)
    if status != 200:
        raise RuntimeError(f"cannot fetch board index for {board}: {status} {err}")
    max_page = parse_max_page(body.decode("utf-8", "replace"))
    urls = board_page_urls(board, max_page, pages)
    return [
        frontier_row(u, "index", 0, seed_offset + i, depth=0, board=board)
        for i, u in enumerate(urls)
    ]


def seed_rows_boards(transport, boards: list[str], pages: int) -> list[dict]:
    """Seed board LIST (north star) in list order: each board's seq numbers
    continue from the previous board's, so every page of board 0 dispatches
    before any page of board 1 (one-producer-per-board FIFO intent)."""
    seeds: list[dict] = []
    offset = 0
    for board in boards:
        rows = seed_rows_board(transport, board, pages, seed_offset=offset)
        seeds.extend(rows)
        offset += len(rows)
    return seeds


def seed_rows_file(lines: list[str], board: str = "beauty",
                   seq_offset: int = 0) -> list[dict]:
    """S2: file-mode seeds; prefix filter, push_rate=0, article priority."""
    out = []
    i = seq_offset
    for line in lines:
        if not is_seed_line(line):
            continue
        out.append(
            frontier_row(line.strip(), "article", 1, i, depth=1, board=board, push_rate=0)
        )
        i += 1
    return out


def stream_seed_file(shards, path: str, board: str, n_shards: int,
                     chunk_rows: int = 65536) -> int:
    """S2 at 10^10-frontier scale: stream a (possibly huge) seed-URL file
    through ``ray.data.read_text`` and offer it to the shards one bounded
    chunk at a time — the driver never holds the whole seed list, only one
    chunk of frontier rows. Line order is preserved (read_text blocks +
    iter_batches are ordered), so seq numbering — and therefore crawl
    ordering — is identical to the in-memory ``seed_rows_file`` path.
    Returns the number of seeds offered."""
    import ray.data

    ds = ray.data.read_text(path)
    seq = 0
    for batch in ds.iter_batches(batch_size=chunk_rows, batch_format="pyarrow"):
        lines = batch[batch.column_names[0]].to_pylist()
        rows = seed_rows_file(lines, board, seq_offset=seq)
        seq += len(rows)
        if rows:
            _offer_sorted(shards, rows, n_shards)
    return seq


def _offer_sorted(shards, rows: list[dict], n_shards: int) -> None:
    import ray

    rows = sorted(rows, key=lambda r: (r["priority"], r["seq"]))
    by_shard: dict[int, list[dict]] = {}
    for r in rows:
        by_shard.setdefault(shard_for(r, n_shards), []).append(r)
    ray.get([shards[i].offer.remote(rs) for i, rs in by_shard.items()])


def _take_global(shards, n: int, n_shards: int) -> pa.Table:
    """Global (priority, seq) merge on the driver: each shard yields its n
    smallest rows, the driver stable-sorts the union (ties keep shard
    order), keeps the global n as the round's ``FRONTIER_SCHEMA`` table and
    pushes each shard's leftovers back to the SAME shard (no re-routing).
    Politeness tokens consumed by pushed-back rows are refunded by the shard
    (the requests were never made). Shards exchange plain rows only, so no
    shard process ever loads Arrow."""
    import ray

    taken = ray.get([s.take.remote(n) for s in shards])
    merged = sorted(
        ((i, r) for i, rows in enumerate(taken) for r in rows),
        key=lambda e: (e[1]["priority"], e[1]["seq"]),
    )
    rest: dict[int, list[dict]] = {}
    for i, r in merged[n:]:
        rest.setdefault(i, []).append(r)
    ray.get([shards[i].push_back.remote(rows) for i, rows in rest.items()])
    return pa.Table.from_pylist([r for _, r in merged[:n]], schema=FRONTIER_SCHEMA)


def run_crawl(
    cfg: Config | None = None,
    *,
    transport_factory,
    board: str = "",
    pages: int = 2,
    push_threshold: int = 0,
    file_lines: list[str] | None = None,
    file_path: str = "",
    out_dir: str = "",
    resume: bool = False,
    max_rounds: int | None = None,
    fetch_media: bool = True,
    deterministic: bool = True,
    fetch_via: str = "tasks",
    retain_ledger: bool | None = None,
    progress=None,
    relaxed_ordering: bool = False,
    pipeline_depth: int = 2,
) -> CrawlResult:
    """Run (or resume) a crawl. ``transport_factory`` must be a picklable
    zero-arg callable (ships to the fetch tasks). ``max_rounds`` bounds the run
    for kill/resume tests. ``deterministic=True`` disables real politeness
    sleeping (rate 0) so ordering tests are exact.

    ``progress``: optional callable receiving one summary dict per round
    as it drains, after any checkpoint due at that round (round number,
    dispatched/docs/media/error counts, duplicate rate, cuckoo FPs, and
    ``pending``: rows queued in the shards — rows of a round already taken
    ahead and still in flight are not pending) — the T5 metrics surface
    without a TUI. Costs one shard metrics round-trip per round; None
    (default) costs nothing.

    ``retain_ledger``: keep the full in-memory (priority, seq, url) ledger in
    ``CrawlResult.ledger``. Default: retained only when NO checkpoint_dir is
    configured (ephemeral/test runs, where nothing else records it). With a
    checkpoint_dir the ledger already lives append-only in the per-epoch
    checkpoint parquet, so the production default keeps driver memory
    O(round) — pass ``retain_ledger=True`` for ordering-equality tests.

    ``file_lines`` vs ``file_path``: both select file mode (S2);
    ``file_path`` streams the seed file via ``ray.data.read_text`` in
    bounded chunks (identical seq numbering / crawl ordering), for seed
    lists too large to hold on the driver.

    ``fetch_via``: only "tasks" is accepted (callers still name it). Each
    round runs one plain Ray task per ``fetch_batch_size`` slice; the task
    fetches the slice with up to ``parser_count`` pages and ``workers``
    media in flight at once, parses it and processes the result (see
    ``_exec_slice``). Workers keep one transport per process, keyed by the
    factory's pickle, so sessions stay pooled and warm across rounds.

    ``relaxed_ordering``: keep ``pipeline_depth`` rounds in flight (default
    2, must be ≥ 1) — round N+1's take and slice tasks run while round N's
    tasks finish (the reference's own ordering is racy per-kind FIFO, so
    this is faithful). Discoveries dispatch up to depth−1 rounds later than
    strict mode; the seen-set, no-refetch, and output-content invariants are
    identical. Depth bounds driver metadata in flight to O(depth × batch);
    measured on the 82k-URL capstone, depth 2 captures nearly all the win
    (BASELINE.md) — raise it only when parse/offer wall dominates fetch.
    Strict mode (default; ``pipeline_depth`` ignored) keeps the
    ledger-equality contract for the ordering oracle: it runs one round at
    a time, except that a deterministic run takes and submits round N+1
    before round N drains when no in-flight round can discover a URL (see
    the module docstring); ``metrics["lookahead_rounds"]`` counts those
    rounds. In both modes a checkpoint is written when its round drains,
    with any round still in flight held in the snapshot as pending, so
    kill/resume stays exact without a quiescent stall. The loop starts no
    driver threads.

    Resume contract: pass the SAME mode arguments (board/file_lines,
    push_threshold, fetch_media, transport) as the original run — the
    checkpoint stores frontier state, not job parameters."""
    import ray
    from ray import cloudpickle

    import time as _time

    if fetch_via != "tasks":
        raise ValueError(f"fetch_via={fetch_via!r}: only 'tasks' is supported")
    if relaxed_ordering and pipeline_depth < 1:
        raise ValueError(f"pipeline_depth={pipeline_depth!r}: must be >= 1")
    cfg = cfg or Config()
    cc = cfg.crawler
    n_shards = cc.frontier_shards
    ckpt_dir = cc.checkpoint_dir
    file_mode = file_lines is not None or bool(file_path)

    t_setup = _time.time()
    # num_cpus=0: shards are lightweight bookkeeping actors; they must never
    # reserve scheduler slots away from the fetch/parse pools.
    spill_dir = cc.spill_dir
    if cc.frontier_max_mem_rows and not spill_dir:
        spill_dir = f"/tmp/{os.getpid()}-frontier-spill"
    RemoteShard = ray.remote(num_cpus=0)(FrontierShard)
    shards = [
        RemoteShard.remote(
            i,
            seen_capacity=cc.seen_capacity,
            # each shard divides a host's FULL rate by the actual number of
            # owning shards (shards_for_host) — salted hashes can collide,
            # so dividing by SALT_K would under-run the ceiling
            politeness_rate=0.0 if deterministic else cc.politeness_rate,
            politeness_burst_s=cc.politeness_burst_s,
            politeness_n_shards=n_shards,
            exact_seen=cc.exact_seen,
            max_mem_rows=cc.frontier_max_mem_rows,
            spill_dir=spill_dir,
            # robots gating lives in the shards (≤ SALT_K robots.txt fetches
            # per host across the crawl) — candidates are gated where they
            # land, and the driver never reads them
            robots_factory=transport_factory if cc.robots else None,
        )
        for i in range(n_shards)
    ]
    ray.get([s.size.remote() for s in shards])  # force actor spawn (setup cost)

    retain = retain_ledger if retain_ledger is not None else not ckpt_dir
    ledger: list[tuple] = []       # retained only when `retain`
    ledger_delta: list[tuple] = [] # current epoch's rows, for the checkpoint
    dispatched = 0
    epoch = 0
    seeds_to_offer: list[dict] | None = None
    if resume:
        if not ckpt_dir:
            raise ValueError("resume=True requires cfg.crawler.checkpoint_dir")
        epoch, ledger, dispatched = _restore(shards, ckpt_dir, retain)
        if out_dir:
            # The crashed attempt may have written output for rounds at or
            # past the restored epoch; the rerun can drain the frontier in
            # FEWER rounds (politeness timing packs URLs differently), so
            # per-round clearing alone would leave those stale partitions to
            # duplicate rows on read. Clear every round >= epoch up front.
            _clear_stale_rounds(out_dir, epoch)
    else:
        if out_dir:
            # fresh run into a reused out_dir: a previous run with MORE
            # rounds would leave high round=k partitions that per-round
            # clearing never reaches
            _clear_stale_rounds(out_dir, 0)
        if file_path:
            seeds = None  # streamed below, chunk by bounded chunk
        elif file_mode:
            seeds = seed_rows_file(file_lines, board or "beauty")
        else:
            boards = [b.strip() for b in board.split(",") if b.strip()]
            seeds = seed_rows_boards(transport_factory(), boards, pages)
        seeds_to_offer = seeds

    # robots gating happens at OFFER time inside each shard (see
    # FrontierShard._robots_allowed) — candidates and seeds alike; the fetch
    # tasks do no robots check of their own.
    if seeds_to_offer is not None:
        _offer_sorted(shards, seeds_to_offer, n_shards)
    elif not resume and file_path:
        # huge-seed-file mode: ray.data.read_text streams the file; the
        # driver holds one chunk of frontier rows at a time (S2 at scale)
        stream_seed_file(shards, file_path, board or "beauty", n_shards)

    # the three stages of a slice task are read from this module here, at
    # call time, so a caller may swap them (the benchmark's tracer does)
    fetch = fetch_batch_task
    parse_stage = ParseStage(
        push_threshold=0 if file_mode else push_threshold,
        file_mode=file_mode,
        fetch_media=fetch_media,
    )
    process = _process_block
    fetch_kwargs = {
        # cloudpickle, NOT stdlib pickle: a factory defined in a script's
        # __main__ (the CLI's mock_transport) must serialize BY VALUE —
        # stdlib pickle ships a dangling __main__ reference that fails to
        # resolve inside Ray workers
        "factory_bytes": cloudpickle.dumps(transport_factory),
        "deterministic": deterministic,
        # the reference's fetch concurrency (config.go:79-105)
        "page_cap": cc.parser_count,
        "media_cap": cc.workers,
    }
    exec_slice = ray.remote(num_cpus=1, num_returns=1 + n_shards)(_exec_slice)

    docs_tables: list[pa.Table] = []
    media_tables: list[pa.Table] = []
    fetch_errors = 0
    fetch_errors_by_kind: dict[str, int] = {}
    rounds_this_run = 0
    finished = True

    def _submit_round(tbl: pa.Table, round_epoch: int) -> list:
        """Launch one round's slice tasks; returns each task's refs
        (metadata, then one candidate chunk per shard) unwaited. Span
        payloads and media bodies (≤50 MB each) come back to the driver ONLY
        in test mode (out_dir="") — production driver memory stays
        O(round metadata)."""
        bs = max(1, cc.fetch_batch_size)
        return [
            exec_slice.remote(
                _to_ipc(tbl.slice(start, bs)), fetch, parse_stage, process, fetch_kwargs,
                out_dir, round_epoch, part, n_shards, cc.max_depth,
            )
            for part, start in enumerate(range(0, tbl.num_rows, bs))
        ]

    setup_seconds = _time.time() - t_setup
    t_loop = _time.time()

    def _harvest(outs: list[dict], tbl: pa.Table, round_no: int) -> None:
        """Fold one finished round's outputs into the run accumulators."""
        nonlocal fetch_errors
        fetch_errors += sum(o["n_err"] for o in outs)
        for o in outs:
            for k, v in o["err_by_kind"].items():
                fetch_errors_by_kind[k] = fetch_errors_by_kind.get(k, 0) + v
        # 429 feedback: a host that exhausted its retry budget cools down on
        # EVERY salt shard that owns it — queued rows defer until it lapses
        # (crawler/retry.go backoff cap as the cooldown horizon). Real runs
        # only: deterministic ordering tests must never time-defer.
        if not deterministic and cc.cooldown_429_s > 0:
            hosts = set().union(*(o["hosts_429"] for o in outs)) if outs else set()
            if hosts:
                from ..state.frontier import shards_for_host

                ray.get([
                    shards[sid].cooldown.remote(host, cc.cooldown_429_s)
                    for host in hosts
                    for sid in shards_for_host(host, n_shards)
                ])
        docs_tables.extend(o["doc"] for o in outs if o["doc"] is not None)
        media_tables.extend(o["media"] for o in outs if o["media"] is not None)
        if progress is not None:
            sm = ray.get([s.get_metrics.remote() for s in shards])
            sizes = ray.get([s.size.remote() for s in shards])
            offered = sum(m["offered"] for m in sm)
            progress(
                {
                    "round": round_no,
                    "dispatched": tbl.num_rows,
                    # per-kind dispatch counts (index/article/media) feed the
                    # live progress bars (ui/live.go pageBar/downloadBar)
                    "by_kind": {
                        str(kv["values"]): int(kv["counts"])
                        for kv in pc.value_counts(tbl["kind"]).to_pylist()
                    },
                    "total_dispatched": dispatched,
                    "docs": sum(o["doc"].num_rows for o in outs if o["doc"] is not None),
                    "media": sum(
                        o["media"].num_rows for o in outs if o["media"] is not None
                    ),
                    "fetch_errors": sum(o["n_err"] for o in outs),
                    "discovered": sum(o["n_cand"] for o in outs),
                    "pending": sum(sizes),
                    "dup_rate": round(
                        sum(m["duplicates"] for m in sm) / offered, 4
                    ) if offered else 0.0,
                    "cuckoo_false_positives": sum(m["false_positives"] for m in sm),
                    # per-shard worker-status rows (ui/live.go:147-189 analog)
                    "shards": [
                        {
                            "id": i,
                            "accepted": m["accepted"],
                            "duplicates": m["duplicates"],
                            "taken": m["taken"],
                            "pending": sz,
                        }
                        for i, (m, sz) in enumerate(zip(sm, sizes))
                    ],
                }
            )

    # Strict lookahead: the next take depends on a round only through the
    # offers its commit applies (deterministic runs have no token refill or
    # 429 cooldown), so while no in-flight round holds a row of a kind that
    # can discover, the next take is already fixed — take and submit it
    # before the in-flight round drains, one round ahead at most. A round
    # that can discover runs alone, so the commit at its drain applies
    # exactly its offers.
    depth = pipeline_depth if relaxed_ordering else 2 if deterministic else 1
    inflight: deque = deque()  # (per-slice return refs, tbl, round number)
    lookahead_rounds = 0
    every = max(1, cc.checkpoint_every)

    def _drain_one() -> None:
        nonlocal dispatched, epoch
        refs, round_tbl, round_no = inflight.popleft()
        outs = [{**o, "doc": _from_ipc(o["doc"]), "media": _from_ipc(o["media"])}
                for o in ray.get([r[0] for r in refs])]
        # Hand each shard the round's candidate chunks as the refs the slice
        # tasks returned (the driver never reads a candidate row), then
        # apply them in deterministic (priority, seq) order. A shard runs
        # one caller's calls in order, so waiting on the commits is enough.
        for i, s in enumerate(shards):
            s.offer_buffered.remote(*[r[1 + i] for r in refs])
        ray.get([s.commit_offers.remote() for s in shards])
        round_ledger = list(zip(round_tbl["priority"].to_pylist(),
                                round_tbl["seq"].to_pylist(),
                                round_tbl["url"].to_pylist()))
        dispatched += len(round_ledger)
        if ckpt_dir:
            ledger_delta.extend(round_ledger)
        if retain:
            ledger.extend(round_ledger)
        epoch = round_no
        if ckpt_dir and epoch % every == 0:
            # Rounds still in flight are taken but not drained: their rows
            # go into the snapshot as pending, on the shard that handed them
            # out, so a resume dispatches them again. None of their offers
            # has reached a shard yet.
            held: dict[int, list[dict]] = {}
            for _, t, _ in inflight:
                for r in t.to_pylist():
                    held.setdefault(shard_for(r, n_shards), []).append(r)
            ray.get([shards[i].hold_for_checkpoint.remote(rs) for i, rs in held.items()])
            _checkpoint(shards, ckpt_dir, epoch, ledger_delta)
            ledger_delta.clear()
        _harvest(outs, round_tbl, round_no)

    while True:
        if max_rounds is not None and rounds_this_run >= max_rounds:
            finished = False
            break
        tbl = _take_global(shards, cc.batch_urls, n_shards)
        if tbl.num_rows == 0:
            if inflight:
                # an in-flight round's offers may refill the frontier
                _drain_one()
                continue
            # Empty take ≠ empty frontier: politeness may have deferred every
            # queued row. Terminate only when the shards are truly drained.
            if sum(ray.get([s.size.remote() for s in shards])) == 0:
                break
            _time.sleep(0.05)  # wait for token refill
            continue
        lookahead_rounds += bool(inflight)
        alone = not relaxed_ordering and not parse_stage.discovering_kinds.isdisjoint(
            pc.unique(tbl["kind"]).to_pylist())
        while alone and inflight:
            _drain_one()
        # every round before the in-flight ones has drained, so this is
        # round epoch + len(inflight) + 1 (its output partition is 0-based)
        round_no = epoch + len(inflight) + 1
        inflight.append((_submit_round(tbl, round_no - 1), tbl, round_no))
        rounds_this_run += 1
        while inflight and (alone or len(inflight) >= depth):
            _drain_one()
    while inflight:
        _drain_one()

    # final checkpoint: flush any rounds accumulated since the last interval
    # so a FINISHED (or max_rounds-bounded) run is fully durable
    if ckpt_dir and ledger_delta:
        _checkpoint(shards, ckpt_dir, epoch, ledger_delta)
        ledger_delta.clear()

    loop_seconds = _time.time() - t_loop
    shard_metrics = ray.get([s.get_metrics.remote() for s in shards])
    seen: list[str] = (
        sorted(set().union(*ray.get([s.seen_set.remote() for s in shards])))
        if cc.exact_seen
        else []
    )
    metrics = {
        "fetch_errors": fetch_errors,
        "fetch_errors_by_kind": fetch_errors_by_kind,
        "robots_denied": sum(m.get("robots_denied", 0) for m in shard_metrics),
        "shards": shard_metrics,
        "total_accepted": sum(m["accepted"] for m in shard_metrics),
        "total_duplicates": sum(m["duplicates"] for m in shard_metrics),
        "cuckoo_false_positives": sum(m["false_positives"] for m in shard_metrics),
        "lookahead_rounds": lookahead_rounds,
    }
    for s in shards:
        ray.kill(s)
    return CrawlResult(
        ledger=ledger,
        dispatched=dispatched,
        docs=pa.concat_tables(docs_tables) if docs_tables else None,
        media=pa.concat_tables(media_tables) if media_tables else None,
        seen_set=seen,
        metrics=metrics,
        rounds=epoch,
        finished=finished,
        out_dir=out_dir,
        setup_seconds=setup_seconds,
        loop_seconds=loop_seconds,
    )


# -- checkpoint plumbing ----------------------------------------------------


def _checkpoint(shards, ckpt_dir: str, epoch: int, ledger_delta: list[tuple]) -> None:
    """Per-epoch APPEND-ONLY increments (ledger rows + seen-set deltas are
    O(round) files that accumulate) plus ONE full shard snapshot (heap +
    cuckoo bytes) that supersedes the previous epoch's — the superseded
    snapshot is deleted, so checkpoint-dir size stays
    O(total seen + current frontier), not O(epochs × frontier)."""
    import ray

    os.makedirs(ckpt_dir, exist_ok=True)
    states = ray.get([s.checkpoint_state.remote(epoch) for s in shards])
    deltas = [st.pop("seen_delta") for st in states]
    for st in states:
        st["heap"] = _heap_to_ipc(st["heap"])
    tbl = pa.Table.from_pylist(states, schema=CHECKPOINT_SCHEMA)
    pq.write_table(tbl, f"{ckpt_dir}/shards_epoch{epoch}.parquet")
    seen_tbl = pa.table(
        {
            "shard_id": pa.array(
                [st["shard_id"] for st, d in zip(states, deltas) for _ in (d or [])],
                pa.int32(),
            ),
            "url": pa.array(
                [u for d in deltas for u in (d or [])], pa.string()
            ),
        }
    )
    pq.write_table(seen_tbl, f"{ckpt_dir}/seen_epoch{epoch}.parquet")
    ledger_tbl = pa.table(
        {
            "priority": pa.array([e[0] for e in ledger_delta], pa.int8()),
            "seq": pa.array([e[1] for e in ledger_delta], pa.int64()),
            "url": pa.array([e[2] for e in ledger_delta], pa.string()),
        }
    )
    pq.write_table(ledger_tbl, f"{ckpt_dir}/ledger_epoch{epoch}.parquet")
    with open(f"{ckpt_dir}/LATEST", "w") as f:
        f.write(str(epoch))
    # With checkpoint_every > 1 the superseded snapshot is at epoch-N, not
    # epoch-1 — delete every older full snapshot (deltas/ledger stay).
    for e in _epochs(ckpt_dir, "shards", epoch - 1):
        os.remove(f"{ckpt_dir}/shards_epoch{e}.parquet")


def _epochs(ckpt_dir: str, prefix: str, upto: int) -> list[int]:
    """Sorted epochs ≤ ``upto`` of the ``{prefix}_epoch<N>.parquet`` files in
    ``ckpt_dir`` (epochs may be sparse: ``checkpoint_every`` > 1)."""
    out = []
    for p in glob.glob(f"{ckpt_dir}/{prefix}_epoch*.parquet"):
        m = re.search(rf"{prefix}_epoch(\d+)\.parquet$", p)
        if m and int(m.group(1)) <= upto:
            out.append(int(m.group(1)))
    return sorted(out)


def _to_ipc(tbl: pa.Table | None) -> bytes | None:
    """``tbl`` as one Arrow IPC stream (only a slice's own rows), or None."""
    if tbl is None:
        return None
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


def _from_ipc(data: bytes | None) -> pa.Table | None:
    """Inverse of ``_to_ipc``."""
    return None if data is None else pa.ipc.open_stream(data).read_all()


def _heap_to_ipc(rows: list[dict]) -> bytes:
    """A shard's pending rows as the checkpoint's ``heap`` bytes: one Arrow
    IPC stream of ``FRONTIER_SCHEMA`` rows, or empty bytes for no rows."""
    return _to_ipc(pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)) if rows else b""


def _heap_from_ipc(heap: bytes) -> list[dict]:
    """Inverse of ``_heap_to_ipc``."""
    return _from_ipc(heap).to_pylist() if heap else []


def _clear_stale_rounds(out_dir: str, epoch: int) -> None:
    """Remove docs/media round partitions written at or past ``epoch`` by a
    crashed attempt (resume re-executes from ``epoch``; see call site)."""
    for name in ("docs", "media"):
        for p in glob.glob(os.path.join(out_dir, name, "round=*")):
            m = re.search(r"round=(\d+)$", p)
            if m and int(m.group(1)) >= epoch:
                shutil.rmtree(p, ignore_errors=True)


def _restore(shards, ckpt_dir: str, retain: bool) -> tuple[int, list[tuple], int]:
    """Restore shard state + dispatched count; materialize the full ledger in
    memory only when ``retain`` (metadata-only row counts otherwise)."""
    import ray

    with open(f"{ckpt_dir}/LATEST") as f:
        epoch = int(f.read().strip())
    tbl = pq.read_table(f"{ckpt_dir}/shards_epoch{epoch}.parquet")
    states = {s["shard_id"]: {**s, "heap": _heap_from_ipc(s["heap"])}
              for s in tbl.to_pylist()}
    # exact seen set = union of every epoch's per-shard delta file
    # (checkpoints store deltas so each epoch's write stays O(round))
    seen_by_shard: dict[int, set] = {}
    for e in _epochs(ckpt_dir, "seen", epoch):
        st = pq.read_table(f"{ckpt_dir}/seen_epoch{e}.parquet")
        for sid, url in zip(st["shard_id"].to_pylist(), st["url"].to_pylist()):
            seen_by_shard.setdefault(sid, set()).add(url)
    ray.get(
        [
            s.restore_state.remote(states[i], sorted(seen_by_shard.get(i, set())))
            for i, s in enumerate(shards)
        ]
    )
    ledger: list[tuple] = []
    dispatched = 0
    for e in _epochs(ckpt_dir, "ledger", epoch):
        path = f"{ckpt_dir}/ledger_epoch{e}.parquet"
        if retain:
            lt = pq.read_table(path)
            ledger.extend(
                zip(lt["priority"].to_pylist(), lt["seq"].to_pylist(), lt["url"].to_pylist())
            )
            dispatched += lt.num_rows
        else:
            dispatched += pq.ParquetFile(path).metadata.num_rows
    return epoch, ledger, dispatched
