"""The one per-process memo (ptt_spider_go_ray/memo.py): key policy and
eviction, driven without a Ray session by stubbing the two Ray calls the
key reads (is_initialized and the runtime context's job id)."""

import os

import pytest
import ray

from ptt_spider_go_ray import memo


class _Context:
    job_id = "job-A"

    def get_job_id(self):
        return self.job_id


@pytest.fixture
def ctx(monkeypatch):
    """An empty memo under a stub job; set ``ctx.job_id`` to switch jobs."""
    ctx = _Context()
    monkeypatch.setattr(memo, "_MEMO", {})
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "get_runtime_context", lambda: ctx)
    return ctx


def _write(path, data: bytes) -> str:
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    return str(path)


def _entries():
    """(job, name, realpath) of every memo entry."""
    return {k[:3] for k in memo._MEMO}


def test_memo_evicts_stale_snapshots(ctx, tmp_path):
    d1 = _write(tmp_path / "d1" / "documents.parquet", b"v1")
    d2 = _write(tmp_path / "d2" / "documents.parquet", b"v1")
    r1, r2 = os.path.realpath(d1), os.path.realpath(d2)
    memo.cached("band_pairs", d1, lambda: "old")
    memo.cached("pair_overlap", d1, lambda: "other name")
    memo.cached("band_pairs", d2, lambda: "other dir")
    assert memo.cached("band_pairs", d1, lambda: "rebuilt") == "old"  # hit

    _write(tmp_path / "d1" / "documents.parquet", b"v2, longer")
    assert memo.cached("band_pairs", d1, lambda: "fresh") == "fresh"
    # superseded snapshot evicted; other name and other directory kept
    assert "old" not in memo._MEMO.values()
    assert _entries() == {
        ("job-A", "band_pairs", r1),
        ("job-A", "pair_overlap", r1),
        ("job-A", "band_pairs", r2),
    }

    ctx.job_id = "job-B"
    assert memo.cached("band_pairs", d2, lambda: "next job") == "next job"
    assert _entries() == {("job-B", "band_pairs", r2)}  # finished job evicted


def test_memo_caches_nothing_without_ray(ctx, monkeypatch, tmp_path):
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    d1 = _write(tmp_path / "d1" / "documents.parquet", b"v1")
    calls = []
    for _ in range(2):
        memo.cached("band_pairs", d1, lambda: calls.append(1))
        memo.cached("crawl_board", None, lambda: calls.append(1))
    assert len(calls) == 4 and memo._MEMO == {}


def test_memo_no_file_entry(ctx):
    calls = []

    def crawl():
        calls.append(1)
        return "docs"

    assert memo.cached("crawl_board", None, crawl) == "docs"
    assert memo.cached("crawl_board", None, crawl) == "docs"
    assert calls == [1]
    assert list(memo._MEMO) == [("job-A", "crawl_board", None, None, None)]
    ctx.job_id = "job-B"
    assert memo.cached("crawl_board", None, crawl) == "docs"
    assert calls == [1, 1]
    assert list(memo._MEMO) == [("job-B", "crawl_board", None, None, None)]
