"""Explicit pyarrow schema constants, declared once and validated at stage
boundaries (SURVEY §1.2 — the reference fixes schemas at compile time via Go
structs, /root/reference/types/types.go:4-24; we fix them here).
"""

from __future__ import annotations

import pyarrow as pa

# One span of an interleaved text+media document (input_hint shape).
SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),       # "text" | "media"
        pa.field("text", pa.string()),       # body text for kind=text, "" otherwise
        pa.field("media_ref", pa.string()),  # normalized image URL for kind=media
        pa.field("offset", pa.int32()),      # 0-based strictly-increasing position
    ]
)

# The document row (generalizes MarkdownInfo, types/types.go:18-24).
DOCUMENT_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("title", pa.string()),
        pa.field("url", pa.string()),
        pa.field("board", pa.string()),
        pa.field("author", pa.string()),
        pa.field("push_count", pa.int32()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# A frontier row (generalizes chan types.ArticleInfo + index/media URLs).
# priority lanes: 0 = board index page, 1 = article page, 2 = media ref
# (north rule: board index > article > media).
FRONTIER_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("url_hash", pa.uint64()),
        pa.field("host", pa.string()),
        pa.field("board", pa.string()),
        pa.field("kind", pa.string()),       # "index" | "article" | "media"
        pa.field("priority", pa.int8()),
        pa.field("seq", pa.int64()),         # deterministic global sequence number
        pa.field("depth", pa.int32()),
        # article metadata carried from the board-list parse (P1); empty for
        # index/media rows.
        pa.field("title", pa.string()),
        pa.field("author", pa.string()),
        pa.field("push_rate", pa.int32()),
        pa.field("meta", pa.string()),       # kind-specific payload (e.g. doc_id for media)
    ]
)

# Fetch stage output: frontier columns + fetch status + body.
FETCHED_SCHEMA = pa.schema(
    list(FRONTIER_SCHEMA)
    + [
        pa.field("status", pa.int32()),      # HTTP status; <0 = transport error
        pa.field("ok", pa.bool_()),
        pa.field("error", pa.string()),
        pa.field("body", pa.large_binary()),
        pa.field("attempts", pa.int32()),
    ]
)

# Media sink row (generalizes types.DownloadTask, types/types.go:12-15).
MEDIA_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("span_idx", pa.int32()),
        pa.field("media_ref", pa.string()),
        pa.field("save_path", pa.string()),
        pa.field("n_bytes", pa.int64()),
        pa.field("ok", pa.bool_()),
        pa.field("body", pa.large_binary()),
    ]
)

# Per-shard frontier checkpoint row (north rule: frontier head, cuckoo
# segment, lineage + metrics per partition).
CHECKPOINT_SCHEMA = pa.schema(
    [
        pa.field("shard_id", pa.int32()),
        pa.field("epoch", pa.int64()),
        pa.field("heap", pa.large_binary()),     # pending frontier rows (arrow IPC)
        pa.field("filter", pa.large_binary()),   # cuckoo filter segment bytes
        pa.field("next_seq", pa.int64()),
        pa.field("metrics", pa.string()),        # JSON counters (lineage+metrics)
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()

