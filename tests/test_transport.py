"""Recorded-response ("cassette") coverage for the REAL HTTP transport
(stages/fetch.py::RequestsTransport) — the reference exercises its client
against live www.ptt.cc (ptt/client.go:14-98 via crawler tests +
benchmark.sh); this sandbox has no network, so a scripted
requests.BaseAdapter replays canned urllib3 responses UNDER the real
requests.Session. Everything above the adapter is the production code
path: cookie-jar domain/path matching, header merging, pooled-adapter
mounting, streaming body reads with the oversize cap, gzip decoding, and
RequestException wrapping. No Ray needed."""

from __future__ import annotations

import gzip
import io

import pytest

requests = pytest.importorskip("requests")

from urllib3 import HTTPResponse as U3Response  # noqa: E402

from ptt_spider_go_ray.config import (  # noqa: E402
    MAX_IMAGE_BYTES,
    USER_AGENT,
)
from ptt_spider_go_ray.stages import fetch as fetch_mod  # noqa: E402
from ptt_spider_go_ray.stages.fetch import (  # noqa: E402
    RequestsTransport,
    TransportError,
    fetch_one,
    fetch_with_retry,
)


class CassetteAdapter(requests.adapters.BaseAdapter):
    """Replays scripted responses per URL and records every prepared
    request (headers included) so tests can assert what would have gone
    on the wire. Script values: (status, headers, body) tuples, a list of
    them (consumed per hit), or an Exception to raise."""

    def __init__(self, script: dict):
        super().__init__()
        self.script = dict(script)
        self.sent: list = []
        self._builder = requests.adapters.HTTPAdapter()

    def send(self, request, **kwargs):
        self.sent.append(request)
        entry = self.script[request.url]
        if isinstance(entry, list):
            entry = entry.pop(0) if len(entry) > 1 else entry[0]
        if isinstance(entry, Exception):
            raise entry
        status, headers, body = entry
        raw = U3Response(
            body=io.BytesIO(body),
            status=status,
            headers=headers,
            preload_content=False,
            decode_content=False,
        )
        return self._builder.build_response(request, raw)

    def close(self):  # pragma: no cover - nothing to release
        pass


def make_transport(script: dict, **kwargs) -> tuple[RequestsTransport, CassetteAdapter]:
    t = RequestsTransport(**kwargs)
    cassette = CassetteAdapter(script)
    t.session.mount("https://", cassette)
    t.session.mount("http://", cassette)
    return t, cassette


PTT_URL = "https://www.ptt.cc/bbs/Gossiping/index.html"
IMGUR_URL = "https://i.imgur.com/abc123.jpg"


def test_over18_cookie_scoped_to_ptt_domain():
    """T1: the over18=1 cookie is set at domain www.ptt.cc, Path=/ — it must
    ride every ptt.cc request (including /bbs/) and NEVER leak to other
    hosts (constants/constants.go:27-29)."""
    t, cassette = make_transport(
        {PTT_URL: (200, {}, b"<html>ok</html>"), IMGUR_URL: (200, {}, b"jpg")}
    )
    status, _headers, body = t(PTT_URL)
    assert (status, body) == (200, b"<html>ok</html>")
    t(IMGUR_URL)
    ptt_req, imgur_req = cassette.sent
    assert "over18=1" in ptt_req.headers.get("Cookie", "")
    assert "over18" not in imgur_req.headers.get("Cookie", "")


def test_chrome_user_agent_header():
    t, cassette = make_transport({PTT_URL: (200, {}, b"x")})
    t(PTT_URL)
    assert cassette.sent[0].headers["User-Agent"] == USER_AGENT
    assert "Chrome" in USER_AGENT


def test_pooled_adapter_mounted_with_pool_size():
    """ptt/client.go:60-98 parity: the optimized client pools connections;
    both schemes get an adapter sized by the pool_size argument."""
    t = RequestsTransport(pool_size=7)
    for scheme in ("https://", "http://"):
        adapter = t.session.get_adapter(scheme + "x.example/")
        assert adapter._pool_connections == 7
        assert adapter._pool_maxsize == 7
    assert RequestsTransport().session.get_adapter(
        "https://www.ptt.cc/"
    )._pool_connections == 20


def test_reads_one_byte_past_cap_for_oversize_detection(monkeypatch):
    """The streaming read stops at MAX_IMAGE_BYTES+1 so the caller can
    detect oversize without buffering an unbounded body (S4)."""
    monkeypatch.setattr(fetch_mod, "MAX_IMAGE_BYTES", 64)
    t, _ = make_transport({IMGUR_URL: (200, {}, b"j" * 500)})
    status, _h, body = t(IMGUR_URL)
    assert status == 200
    assert len(body) == 65  # cap + 1, not the full 500


def test_oversize_row_not_emitted_through_real_transport(monkeypatch):
    """End-to-end through fetch_one: a body past the cap surfaces
    as error='oversize', ok=False — same contract the mock-based e2e pins
    (crawler/crawler.go:691-738)."""
    monkeypatch.setattr(fetch_mod, "MAX_IMAGE_BYTES", 64)
    t, _ = make_transport(
        {IMGUR_URL: (200, {}, b"j" * 500), PTT_URL: (200, {}, b"<html/>")}
    )
    status, body, _attempts, err, ok = fetch_one(t, IMGUR_URL, sleep=lambda s: None,
                                                 max_body_bytes=64)
    assert (status, body, err, ok) == (200, b"", "oversize", False)
    status, body, _attempts, err, ok = fetch_one(t, PTT_URL, sleep=lambda s: None,
                                                 max_body_bytes=64)
    assert (status, err, ok) == (200, "", True)


def test_gzip_body_is_decoded():
    """decode_content=True on the raw read: a gzip Content-Encoding body
    arrives decoded, exactly as the browser-like client sees it."""
    payload = b"<html>compressed page</html>"
    t, _ = make_transport(
        {
            PTT_URL: (
                200,
                {"Content-Encoding": "gzip"},
                gzip.compress(payload),
            )
        }
    )
    status, _h, body = t(PTT_URL)
    assert (status, body) == (200, payload)


def test_429_retry_after_honored_then_success():
    """T2 through the REAL transport: first hit 429 + Retry-After: 2,
    second hit 200. fetch_with_retry must sleep exactly the Retry-After
    seconds and succeed on attempt 2 (crawler/retry.go:20-93)."""
    t, cassette = make_transport(
        {PTT_URL: [(429, {"Retry-After": "2"}, b""), (200, {}, b"page")]}
    )
    slept = []
    status, body, attempts, err = fetch_with_retry(
        t, PTT_URL, sleep=slept.append
    )
    assert (status, body, attempts, err) == (200, b"page", 2, "")
    assert slept == [2.0]
    assert len(cassette.sent) == 2


def test_retry_after_header_propagates_from_real_response():
    t, _ = make_transport({PTT_URL: (429, {"Retry-After": "7"}, b"")})
    status, headers, _b = t(PTT_URL)
    assert status == 429
    assert headers["Retry-After"] == "7"


def test_non_429_statuses_never_retried():
    t, cassette = make_transport({PTT_URL: (404, {}, b"gone")})
    status, _body, attempts, err = fetch_with_retry(t, PTT_URL, sleep=lambda s: None)
    assert (status, attempts) == (404, 1)
    assert err == ""  # caller maps non-200 to error; retry layer reports raw
    assert len(cassette.sent) == 1


def test_request_exception_wrapped_as_transport_error():
    """requests.RequestException (DNS failure, refused connection, timeout)
    becomes TransportError — fetch_with_retry turns it into a status=-1
    row, never an exception escaping the batch fn."""
    t, _ = make_transport(
        {PTT_URL: requests.ConnectionError("connection refused")}
    )
    with pytest.raises(TransportError):
        t(PTT_URL)
    status, body, attempts, err = fetch_with_retry(t, PTT_URL, sleep=lambda s: None)
    assert (status, body, attempts) == (-1, b"", 1)
    assert "connection refused" in err


def test_mock_transport_pool_model():
    """The A/B pool simulation (reference benchmark.sh shape): with a
    keep-alive pool one handshake per host; with pool_size=0 a handshake
    per request; LRU eviction forces a re-handshake."""
    from ptt_spider_go_ray.sources.synthetic import SiteSpec, SyntheticSite
    from ptt_spider_go_ray.stages.fetch import MockTransport

    site = SyntheticSite(SiteSpec(boards={"Beauty": 2}, articles_per_page=2))
    u1 = site.index_url("Beauty", 1)
    u2 = site.index_url("Beauty", 2)

    eps = 1e-9  # enables the connect path without measurable sleeping
    pooled = MockTransport(site, handshake_s=eps, pool_size=20)
    for u in (u1, u2, u1, u2):
        pooled(u)
    assert pooled.handshakes == 1  # one host, one warm connection

    cold = MockTransport(site, handshake_s=eps, pool_size=0)
    for u in (u1, u2, u1):
        cold(u)
    assert cold.handshakes == 3  # no keep-alive: every request reconnects

    lru = MockTransport(site, handshake_s=eps, pool_size=1)
    lru(u1)
    lru("https://i.imgur.com/x.jpg")  # different host evicts www.ptt.cc
    lru(u1)
    assert lru.handshakes == 3


def test_default_cap_is_50mb():
    """The production cap matches the reference's 50 MB image limit
    (constants/constants.go:42)."""
    assert MAX_IMAGE_BYTES == 50 * 1024 * 1024
