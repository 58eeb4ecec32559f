"""CLI entry point mirroring the reference's flags (-board -pages -push
-file -config; /root/reference/main.go:19-24). TUI mode is not ported —
metrics go to stdout/logs (SURVEY §2.3 T5).

Examples::

    python -m ptt_spider_go_ray --board Beauty --pages 2 --push 10 \
        --out /tmp/crawl_out --mock          # synthetic site, no network
    python -m ptt_spider_go_ray --file urls.txt --out /tmp/crawl_out --mock

Without --mock the real RequestsTransport is used (no network in this
sandbox, so --mock is the default behavior when the network is absent).
"""

from __future__ import annotations

import argparse
import json
import sys


def real_transport(timeout: float = 30.0, pool_size: int = 20):
    from .stages.fetch import RequestsTransport

    return RequestsTransport(timeout=timeout, pool_size=pool_size)


def mock_transport():
    from .sources.synthetic import SiteSpec, SyntheticSite
    from .stages.fetch import MockTransport

    return MockTransport(SyntheticSite(SiteSpec(boards={"Beauty": 10, "Joke": 5})))


def query_main(argv) -> int:
    """`python -m ptt_spider_go_ray query <name>` — run any registry query
    against a testdata scale dir and print one JSON summary line. The crawl
    CLI mirrors the reference's flags; this subcommand is the analogous
    front door for the 270-query analytic surface (the thing a user of the
    engine actually runs day-to-day)."""
    ap = argparse.ArgumentParser(prog="ptt_spider_go_ray query")
    ap.add_argument("name", nargs="?", default="",
                    help="query name from __ray_entry__.queries() "
                         "(omit with --list)")
    ap.add_argument("--list", action="store_true",
                    help="list registered query names (★ = SQL-oracled)")
    ap.add_argument("--sf", default="/root/testdata/sf0.001",
                    help="scale dir with the parquet tables")
    ap.add_argument("--num-cpus", type=int, default=8)
    ap.add_argument("--stats", action="store_true",
                    help="print ds.stats() (Dataset results only)")
    ap.add_argument("--out", default="",
                    help="write the result to this parquet path/dir")
    ap.add_argument("--head", type=int, default=5,
                    help="rows of preview to print on stderr (0 = none)")
    args = ap.parse_args(argv)

    from .registry import entries

    table = entries()
    registry = {name: fn for name, (fn, _oracle) in table.items()}
    oracled = {name for name, (_fn, oracle) in table.items() if oracle is not None}

    if args.list or not args.name:
        for name in sorted(registry):
            print(("★ " if name in oracled else "  ") + name)
        return 0
    if args.name not in registry:
        import difflib

        near = difflib.get_close_matches(args.name, registry, n=3)
        print(f"unknown query {args.name!r}" +
              (f" — did you mean: {', '.join(near)}?" if near else ""),
              file=sys.stderr)
        return 2

    import time

    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        t0 = time.monotonic()
        res = registry[args.name](args.sf)
        is_ds = hasattr(res, "to_pandas") and hasattr(res, "stats")
        if args.out:
            if is_ds:
                res = res.materialize()  # stats + write + count in one exec
                res.write_parquet(args.out)
            else:
                (res if hasattr(res, "to_parquet") else res.to_pandas()
                 ).to_parquet(args.out)
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        seconds = round(time.monotonic() - t0, 3)
        if args.head and len(df):
            print(df.head(args.head).to_string(), file=sys.stderr)
        if args.stats and is_ds:
            print(res.stats(), file=sys.stderr)
        print(json.dumps({
            "query": args.name, "rows": int(len(df)),
            "columns": list(map(str, df.columns)), "seconds": seconds,
            "oracled": args.name in oracled,
            "out": args.out or None, "sf": args.sf,
        }))
        return 0
    finally:
        if owns_ray:
            ray.shutdown()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["query"]:
        return query_main(argv[1:])
    ap = argparse.ArgumentParser(prog="ptt_spider_go_ray")
    ap.add_argument("--board", default="", help="board name (board mode)")
    ap.add_argument("--pages", type=int, default=2, help="number of index pages")
    ap.add_argument("--push", type=int, default=0, help="push-rate threshold")
    ap.add_argument("--file", dest="file_url", default="", help="URL seed file (file mode)")
    ap.add_argument("--config", default="config.yaml", help="YAML config path")
    ap.add_argument("--out", default="/tmp/ptt_spider_out", help="output dir")
    ap.add_argument("--checkpoint", default="", help="checkpoint dir (enables resume)")
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--mock", action="store_true", help="use the synthetic site")
    ap.add_argument("--relaxed", action="store_true",
                    help="pipeline crawl rounds two-deep (relaxed dispatch "
                         "ordering, same outputs; see run_crawl docstring)")
    ap.add_argument("--no-media", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=8)
    ap.add_argument("--log", default="auto", choices=["auto", "plain", "styled", "noop"],
                    help="logger mode (ui/logger.go parity)")
    ap.add_argument("--tui", action="store_true",
                    help="interactive startup form + live status surface "
                         "(main.go:31-45, ui/tui.go parity)")
    args = ap.parse_args(argv)

    if args.tui:
        # main.go:31-45: the form's results override the flags (flag values
        # seed the placeholders; file mode zeroes pages/push like tui.go:139)
        from .ui_form import run_startup_form

        sc = run_startup_form(args.board or "beauty", args.pages, args.push)
        args.board, args.pages = sc.board, sc.pages
        args.push, args.file_url = sc.push_rate, sc.file_url

    from .config import load
    from .functions.parse import validate_board

    cfg = load(args.config)
    if args.checkpoint:
        cfg.crawler.checkpoint_dir = args.checkpoint
    boards = [b.strip() for b in args.board.split(",") if b.strip()]
    if not boards and not args.file_url:
        validate_board("", "")  # raises: board mode requires a board
    for b in boards:  # comma-separated seed board list; empty segments ignored
        validate_board(b, args.file_url)

    import ray

    # the CLI owns a Ray session only when it created one (an embedding
    # process — e.g. pytest's session fixture — keeps its own)
    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .pipelines.crawl import run_crawl

    # file mode streams the seed file via ray.data.read_text (bounded driver
    # memory for arbitrarily large seed lists)
    file_path = args.file_url or ""

    if args.mock:
        factory = mock_transport
    else:
        # real network: HTTP knobs come from config (S6 parity), politeness
        # defaults to the reference budget workers/mean-delay ≈ 8 req/s
        # (config.go:82-92) unless the config sets an explicit rate
        import functools

        cc = cfg.crawler
        factory = functools.partial(
            real_transport, cc.http.timeout, cc.http.max_idle_conns_per_host
        )
        if cc.politeness_rate <= 0:
            mean_s = (cc.delays.min_ms + cc.delays.max_ms) / 2.0 / 1000.0
            cc.politeness_rate = cc.workers / mean_s if mean_s > 0 else 8.0

    from .logging_ui import LiveStatus, pick_logger

    logger = pick_logger(args.log)
    # styled mode (or auto on a TTY) gets the live refreshing status block
    # (ui/live.go analog); plain/noop keep one line per round
    live = None
    if args.tui or args.log == "styled" or (
        args.log == "auto" and getattr(sys.stderr, "isatty", lambda: False)()
    ):
        # --tui always gets the live surface (runWithTUI wires the live
        # model unconditionally, main.go:58-62); pages_total drives the
        # index-page progress bar (ui/live.go pageBar)
        live = LiveStatus(pages_total=args.pages * max(1, len(boards))
                          if not args.file_url else 0)

    def print_progress(p: dict) -> None:
        # per-round progress (T5 metrics surface; ui/live.go analog)
        if live is not None:
            if p["fetch_errors"]:
                live.log(f"round {p['round']}: {p['fetch_errors']} fetch errors")
            live.update(p)
            return
        emit = logger.warn if p["fetch_errors"] else logger.info
        emit(
            "round %d: dispatched=%d (total %d) docs=%d media=%d errors=%d "
            "pending=%d dup_rate=%s cuckoo_fp=%d",
            p["round"], p["dispatched"], p["total_dispatched"], p["docs"],
            p["media"], p["fetch_errors"], p["pending"], p["dup_rate"],
            p["cuckoo_false_positives"],
        )

    res = run_crawl(
        cfg,
        transport_factory=factory,
        board=args.board,
        pages=args.pages,
        push_threshold=args.push,
        file_path=file_path,
        out_dir=args.out,
        resume=args.resume,
        fetch_media=not args.no_media,
        # mock runs stay deterministic (tests/demos); real runs pace and
        # honor Retry-After for real
        deterministic=args.mock,
        progress=print_progress,
        relaxed_ordering=args.relaxed,
    )
    if live is not None:
        live.finish()
    logger.success("crawl finished: %d rounds, %d URLs", res.rounds, res.dispatched)
    print(json.dumps({
        "rounds": res.rounds,
        "dispatched": res.dispatched,
        "docs": res.docs.num_rows if res.docs is not None else 0,
        "media": res.media.num_rows if res.media is not None else 0,
        "fetch_errors": res.metrics["fetch_errors"],
        "duplicates_skipped": res.metrics["total_duplicates"],
        "out_dir": res.out_dir,
        "finished": res.finished,
    }, ensure_ascii=False))
    if owns_ray:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
