"""Crawl parse stage: one fetched slice → (new frontier candidates, document
rows, media results, fetch errors) as ONE union Arrow table (row_type
column). It runs inside the crawl's fused slice task, between the fetch and
``_process_block``, which splits the union by row_type in the same task.

Reference parity:
- index pages  → board-list parse (P1, ptt/parser_impl.go:24-71) + push
  filter (P2, crawler/crawler.go:413-421; bypassed in file mode).
- article pages → spans parse (P3/P4 generalized to interleaved spans),
  per-article stable media dedup (D1, crawler/crawler.go:458-460), final
  title resolution (P8, crawler/crawler.go:535-541), media fan-out with
  ordered child seq (P9, crawler/crawler.go:544-560).
- media pages  → media result rows (S4 sink semantics: not-ok rows carry
  no bytes).
Failed fetches are dropped with counters, never raised (skip-and-continue,
crawler/crawler.go:384-404).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.parse import (
    determine_final_title,
    parse_article_spans,
    parse_board_html,
    unique_stable,
)
from ..schemas import SPAN_STRUCT
from ..state.frontier import child_seq, frontier_row

UNION_SCHEMA = pa.schema(
    [
        pa.field("row_type", pa.string()),  # "cand" | "doc" | "media_result"
        # frontier candidate fields
        pa.field("url", pa.string()),
        pa.field("url_hash", pa.uint64()),
        pa.field("host", pa.string()),
        pa.field("board", pa.string()),
        pa.field("kind", pa.string()),
        pa.field("priority", pa.int8()),
        pa.field("seq", pa.int64()),
        pa.field("depth", pa.int32()),
        pa.field("title", pa.string()),
        pa.field("author", pa.string()),
        pa.field("push_rate", pa.int32()),
        pa.field("meta", pa.string()),
        # document fields
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
        # media result fields
        pa.field("span_idx", pa.int32()),
        pa.field("n_bytes", pa.int64()),
        pa.field("media_ok", pa.bool_()),
        pa.field("body", pa.large_binary()),
        # typed failure class for fetch_err rows (errors.go taxonomy)
        pa.field("error_kind", pa.string()),
    ]
)

_EMPTY = {f.name: None for f in UNION_SCHEMA}


def doc_id_for(url: str) -> str:
    """Article URL → doc_id, e.g. bbs/Beauty/M.123.A.ABC (FIXTURES.md F1)."""
    marker = "/bbs/"
    i = url.find(marker)
    path = url[i + 1 :] if i >= 0 else url
    return path[:-5] if path.endswith(".html") else path


# Output schema metadata key: b"0" when no row of the parsed slice is of a
# discovering kind (``ParseStage.discovering_kinds``), else b"1".
DISCOVERS_KEY = b"discovers"


class ParseStage:
    """Callable over one fetched slice table. Holds only the run's parse
    settings; the driver builds one per run and ships it with every slice
    task."""

    def __init__(self, push_threshold: int = 0, file_mode: bool = False,
                 fetch_media: bool = True):
        self.push_threshold = push_threshold
        self.file_mode = file_mode
        self.fetch_media = fetch_media

    @property
    def discovering_kinds(self) -> frozenset[str]:
        """The frontier kinds whose pages can yield candidate rows: index
        pages always, article pages only when media is fetched, media
        never. The crawl loop takes the next round early while no in-flight
        round holds a row of these kinds, so this must cover every kind
        ``__call__`` emits a ``cand`` row for."""
        return frozenset({"index", "article"} if self.fetch_media else {"index"})

    def __call__(self, batch: pa.Table) -> pa.Table:
        discovers = not self.discovering_kinds.isdisjoint(batch["kind"].to_pylist())
        schema = UNION_SCHEMA.with_metadata({DISCOVERS_KEY: b"1" if discovers else b"0"})
        out: list[dict] = []
        for row in batch.to_pylist():
            if not row["ok"]:
                # skip-and-continue (crawler.go:384-404): failed fetch becomes
                # a counter row, never an exception
                out.append(
                    {
                        **_EMPTY,
                        "row_type": "fetch_err",
                        "url": row["url"],
                        "kind": row["kind"],
                        "seq": row["seq"],
                        "priority": row["priority"],
                        "meta": row["error"],
                        "error_kind": row.get("error_kind", ""),
                    }
                )
                continue
            kind = row["kind"]
            if kind == "index":
                out.extend(self._parse_index(row))
            elif kind == "article":
                out.extend(self._parse_article(row))
            elif kind == "media":
                out.append(self._media_result(row))
        if not out:
            return schema.empty_table()
        return pa.Table.from_pylist(out, schema=schema)

    # -- per-kind handlers --------------------------------------------------

    def _parse_index(self, row: dict) -> list[dict]:
        html = row["body"].decode("utf-8", "replace")
        articles = parse_board_html(html)
        cands = []
        idx = 0
        for art in articles:
            # P2: push filter, board mode only (file mode has no index pages)
            if art["push_rate"] < self.push_threshold:
                continue
            fr = frontier_row(
                art["url"], "article", 1, child_seq(row["seq"], idx),
                depth=row["depth"] + 1, board=row["board"], title=art["title"],
                author=art["author"], push_rate=art["push_rate"],
            )
            cands.append({**_EMPTY, "row_type": "cand", **fr})
            idx += 1
        return cands

    def _parse_article(self, row: dict) -> list[dict]:
        html = row["body"].decode("utf-8", "replace")
        parsed_title, spans = parse_article_spans(html)
        # D1: stable dedup of media refs within the article
        media_refs = unique_stable(
            [s["media_ref"] for s in spans if s["kind"] == "media"]
        )
        seen: set[str] = set()
        norm_spans: list[dict] = []
        for s in spans:
            if s["kind"] == "media":
                if s["media_ref"] in seen:
                    continue
                seen.add(s["media_ref"])
            norm_spans.append(dict(s))
        for i, s in enumerate(norm_spans):
            s["offset"] = i
        final_title = determine_final_title(row["title"] or "", parsed_title, self.file_mode)
        doc_id = doc_id_for(row["url"])
        out = [
            {
                **_EMPTY,
                "row_type": "doc",
                "url": row["url"],
                "board": row["board"],
                "seq": row["seq"],
                "priority": row["priority"],
                "title": final_title,
                "author": row["author"],
                "push_rate": row["push_rate"],
                "doc_id": doc_id,
                "spans": norm_spans,
            }
        ]
        if self.fetch_media:
            span_idx_of = {s["media_ref"]: s["offset"] for s in norm_spans if s["kind"] == "media"}
            for i, ref in enumerate(media_refs):
                fr = frontier_row(
                    ref, "media", 2, child_seq(row["seq"], i),
                    depth=row["depth"] + 1, board=row["board"],
                    meta=f"{doc_id}|{span_idx_of[ref]}",
                )
                out.append({**_EMPTY, "row_type": "cand", **fr})
        return out

    def _media_result(self, row: dict) -> dict:
        doc_id, _, span_idx = (row["meta"] or "||").rpartition("|")
        return {
            **_EMPTY,
            "row_type": "media_result",
            "url": row["url"],
            "board": row["board"],
            "seq": row["seq"],
            "priority": row["priority"],
            "doc_id": doc_id,
            "span_idx": int(span_idx) if span_idx else -1,
            "n_bytes": len(row["body"] or b""),
            "media_ok": bool(row["ok"]),
            "body": row["body"],
        }
