"""Crawl slices and their doc/media results cross the task boundary as
Arrow IPC bytes (``_to_ipc`` / ``_from_ipc`` in ``pipelines.crawl``). No Ray
cluster needed."""

import pyarrow as pa
import pytest

from ptt_spider_go_ray.pipelines.crawl import _DOC_COLS, _MEDIA_COLS, _from_ipc, _to_ipc
from ptt_spider_go_ray.schemas import FRONTIER_SCHEMA
from ptt_spider_go_ray.stages.parse_stages import UNION_SCHEMA
from ptt_spider_go_ray.state.frontier import frontier_row

DOC_SCHEMA = pa.schema([UNION_SCHEMA.field(c) for c in _DOC_COLS])
MEDIA_SCHEMA = pa.schema([UNION_SCHEMA.field(c) for c in _MEDIA_COLS])


def _assert_round_trips(t: pa.Table) -> pa.Table:
    back = _from_ipc(_to_ipc(t))
    assert back.schema.equals(t.schema, check_metadata=True)
    assert back.num_rows == t.num_rows
    assert back.equals(t)
    assert back.to_pylist() == t.to_pylist()
    return back


def test_sliced_frontier_table_sends_only_its_rows():
    rows = [frontier_row(f"https://www.ptt.cc/bbs/B/M.{i}.A.html", "article", i % 3, i,
                         depth=1, board="B", title=f"t{i}", push_rate=i - 5)
            for i in range(40)]
    full = pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)
    part = full.slice(10, 7)
    back = _assert_round_trips(part)
    assert back["seq"].to_pylist() == list(range(10, 17))
    assert len(_to_ipc(part)) < len(_to_ipc(full))


def test_doc_table_with_nested_spans_and_nulls():
    doc = pa.Table.from_pylist([
        {"doc_id": "bbs/B/M.1.A.1", "title": "標題", "url": "https://www.ptt.cc/bbs/B/M.1.A.1.html",
         "board": "B", "author": None, "push_rate": 99, "seq": 3,
         "spans": [{"kind": "text", "text": "開頭", "media_ref": "", "offset": 0},
                   {"kind": "media", "text": "", "media_ref": "https://i.imgur.com/x.jpg",
                    "offset": 1}]},
        {"doc_id": "bbs/B/M.2.A.2", "title": None, "url": "https://www.ptt.cc/bbs/B/M.2.A.2.html",
         "board": "B", "author": "u", "push_rate": None, "seq": 4, "spans": []},
        {"doc_id": "bbs/B/M.3.A.3", "title": "", "url": "https://www.ptt.cc/bbs/B/M.3.A.3.html",
         "board": None, "author": "", "push_rate": -5, "seq": 5, "spans": None},
    ], schema=DOC_SCHEMA)
    _assert_round_trips(doc)
    _assert_round_trips(doc.slice(1, 2))


def test_media_table_with_large_binary_bodies():
    media = pa.Table.from_pylist([
        {"doc_id": "bbs/B/M.1.A.1", "span_idx": i, "url": f"https://i.imgur.com/{i}.jpg",
         "board": "B", "n_bytes": len(body or b""), "media_ok": body is not None,
         "body": body, "seq": 100 + i}
        for i, body in enumerate([b"\x00\xff" * 40000, b"", None, bytes(range(256))])
    ], schema=MEDIA_SCHEMA)
    assert media.schema.field("body").type == pa.large_binary()
    _assert_round_trips(media)


@pytest.mark.parametrize("schema", [FRONTIER_SCHEMA, DOC_SCHEMA, MEDIA_SCHEMA])
def test_zero_row_table(schema):
    _assert_round_trips(schema.empty_table())


def test_none_passes_through():
    assert _to_ipc(None) is None
    assert _from_ipc(None) is None
