"""Concurrent fetch inside one slice task (``fetch_batch_task``) and the
thread safety of the transport its fetch threads share. No Ray cluster
needed."""

import functools
import sys
import threading

import pyarrow as pa
import pytest
from ray import cloudpickle

from ptt_spider_go_ray.schemas import FRONTIER_SCHEMA
from ptt_spider_go_ray.sources.synthetic import SiteSpec, SyntheticSite, mock_transport_factory
from ptt_spider_go_ray.stages import fetch as fetch_mod
from ptt_spider_go_ray.stages.fetch import MockTransport, fetch_batch_task
from ptt_spider_go_ray.state.frontier import frontier_row

SPEC = SiteSpec(
    boards={"B": 40},
    not_found={"index3."},
    status_429_then_200={"index4."},
    always_429={"index5."},
    oversize={"big"},
)


@pytest.fixture(autouse=True)
def fresh_transports(monkeypatch):
    """Start from an empty per-process transport cache."""
    monkeypatch.setattr(fetch_mod, "_TASK_TRANSPORTS", {})


@pytest.fixture
def racy():
    """Switch threads as often as possible, so unguarded updates race."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


class InFlightTransport:
    """Mock transport that records the peak number of its calls in flight
    at once. Each call holds until ``target`` calls are in flight together
    (or 5 s pass), so the peak reaches any cap the fetch allows, then for
    50 ms more, so calls past the cap would overlap too."""

    def __init__(self, target: int):
        self.inner = mock_transport_factory(SiteSpec(boards={"B": 40}))
        self.target = target
        self.lock = threading.Lock()
        self.now = self.peak = 0
        self.full = threading.Event()

    def __call__(self, url: str):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
            if self.now >= self.target:
                self.full.set()
        try:
            self.full.wait(5)
            threading.Event().wait(0.05)
            return self.inner(url)
        finally:
            with self.lock:
                self.now -= 1


def page_url(i: int) -> str:
    return f"https://www.ptt.cc/bbs/B/index{i}.html"


def media_url(i: int) -> str:
    return f"https://i.imgur.com/pic{i}.jpg"


def slice_of(urls_kinds: list[tuple[str, str]]) -> pa.Table:
    rows = [frontier_row(u, k, 0 if k == "index" else 2, i, depth=0)
            for i, (u, k) in enumerate(urls_kinds)]
    return pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)


def run(tbl: pa.Table, factory, **kw) -> tuple[pa.Table, object]:
    """One slice fetch on a fresh transport; returns it with the output."""
    fb = cloudpickle.dumps(factory)
    out = fetch_batch_task(tbl, factory_bytes=fb, **kw)
    return out, fetch_mod._TASK_TRANSPORTS.pop(fb)


def test_mock_transport_thread_safe_counts(racy):
    """N threads on one transport: hit and handshake counts stay exact and
    the LRU bookkeeping never raises."""
    site = SyntheticSite(SPEC)
    urls = [page_url(1), page_url(2), media_url(1), "https://i.imgur.com/x.png",
            "https://example.com/a.jpg"]
    n_threads, per_thread = 8, 40

    def hammer(t):
        def work():
            for _ in range(per_thread):
                for u in urls:
                    t(u)
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(60)
            assert not th.is_alive()

    calls = n_threads * per_thread
    # handshake_s > 0 takes the connection-pool path
    warm = MockTransport(site, handshake_s=1e-9, pool_size=20)  # hosts stay warm
    cold = MockTransport(site, handshake_s=1e-9, pool_size=0)   # no keep-alive
    lru = MockTransport(site, handshake_s=1e-9, pool_size=1)    # evicts on host switch
    for t in (warm, cold, lru):
        hammer(t)
        assert t.hits == {u: calls for u in urls}
    assert warm.handshakes == 3  # one per host
    assert cold.handshakes == calls * len(urls)
    assert 3 <= lru.handshakes <= calls * len(urls)


@pytest.mark.parametrize("kind,rows,cap", [
    ("index", 25, 4), ("index", 3, 10), ("media", 25, 3), ("media", 2, 10),
])
def test_peak_in_flight_is_min_rows_cap(kind, rows, cap):
    """A page slice runs ``page_cap`` fetches at once and a media slice
    ``media_cap``; the other cap does not apply to it."""
    url = page_url if kind == "index" else media_url
    tbl = slice_of([(url(i + 1), kind) for i in range(rows)])
    caps = {"page_cap": cap, "media_cap": 1} if kind == "index" else {
        "page_cap": 1, "media_cap": cap}
    out, t = run(tbl, functools.partial(InFlightTransport, min(rows, cap)), **caps)
    assert t.peak == min(rows, cap)
    assert out["url"].to_pylist() == tbl["url"].to_pylist()
    assert all(out["ok"].to_pylist())


def test_mixed_slice_same_rows_as_cap_one():
    """200, 404, 429-then-200, always-429, oversize and TransportError rows,
    pages and media mixed: the concurrent fetch returns exactly the rows of
    a one-at-a-time fetch, in input order."""
    big, down = "https://i.imgur.com/big.jpg", "https://down.example.com/a.jpg"
    rows = [(page_url(1), "index"), (page_url(3), "index"), (page_url(4), "index"),
            (page_url(5), "index"), (big, "media"), (down, "media")]
    for i in range(6):
        rows += [(page_url(7 + i), "index"), (media_url(i), "media")]
    tbl = slice_of(rows)
    factory = functools.partial(mock_transport_factory, SPEC,
                                transport_error_urls=frozenset({"down.example.com"}))
    one, _ = run(tbl, factory, page_cap=1, media_cap=1, max_body_bytes=1 << 16)
    many, _ = run(tbl, factory, page_cap=6, media_cap=4, max_body_bytes=1 << 16)
    assert many.equals(one)
    assert many["url"].to_pylist() == tbl["url"].to_pylist()
    got = dict(zip(one["url"].to_pylist(), zip(one["error"].to_pylist(),
                                               one["attempts"].to_pylist())))
    assert got[page_url(1)] == ("", 1)
    assert got[page_url(3)] == ("http 404", 1)
    assert got[page_url(4)] == ("", 2)
    assert got[page_url(5)] == ("still 429 after 3 attempts", 3)
    assert got[big] == ("oversize", 1)
    assert got[down][0].startswith("connection refused")


def test_deterministic_never_sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(fetch_mod.time, "sleep", slept.append)
    tbl = slice_of([(page_url(i), "index") for i in (1, 4, 5, 6)])
    factory = functools.partial(mock_transport_factory, SPEC)
    out, _ = run(tbl, factory, page_cap=3, media_cap=1, deterministic=True)
    assert slept == []
    assert out["attempts"].to_pylist() == [1, 2, 3, 1]
    # the patched sleep is the one retries use: a paced run does call it
    run(tbl, factory, page_cap=3, media_cap=1, deterministic=False)
    assert slept
