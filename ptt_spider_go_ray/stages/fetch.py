"""Fetch stage: ``fetch_batch_task`` fetches one slice of frontier rows
inside one Ray task, with the slice's requests in flight together — one
long-lived session per worker process (T1, ptt/client.go:14-98),
application-level 429 retry (T2, crawler/retry.go:20-93) and a per-body
size cap (S4, constants/constants.go:42 + crawler/crawler.go:691-738).
Failures become status columns, never exceptions — skip-and-continue like
the reference (crawler/crawler.go:384-404,510-531).

The transport is injectable: ``RequestsTransport`` for the real network,
``MockTransport`` over a :class:`SyntheticSite` for tests/bench (mirrors
mocks/mocks.go:13-121). The retry sleep fn is injectable too so tests and
the deterministic bench never real-sleep.
"""

from __future__ import annotations

import threading
import time
from email.utils import parsedate_to_datetime

import pyarrow as pa

from ..config import (
    MAX_IMAGE_BYTES,
    OVER18_COOKIE,
    RETRY_BACKOFF_FACTOR,
    RETRY_INITIAL_DELAY_MS,
    RETRY_MAX_ATTEMPTS,
    RETRY_MAX_DELAY_MS,
    USER_AGENT,
)
from ..errors import classify_fetch


class TransportError(Exception):
    pass


class RequestsTransport:
    """Real HTTP: requests.Session with over18 cookie at Path=/ (so /bbs/
    requests carry it, constants/constants.go:27-29), Chrome UA, pooled
    connections (ptt/client.go:60-98)."""

    def __init__(self, timeout: float = 30.0, pool_size: int = 20):
        import requests

        self.session = requests.Session()
        self.session.headers["User-Agent"] = USER_AGENT
        for k, v in OVER18_COOKIE.items():
            self.session.cookies.set(k, v, domain="www.ptt.cc", path="/")
        adapter = requests.adapters.HTTPAdapter(
            pool_connections=pool_size, pool_maxsize=pool_size
        )
        self.session.mount("https://", adapter)
        self.session.mount("http://", adapter)
        self.timeout = timeout

    def __call__(self, url: str) -> tuple[int, dict, bytes]:
        import requests

        try:
            with self.session.get(url, timeout=self.timeout, stream=True) as r:
                # read one byte past the cap so the caller can DETECT oversize
                # (fetch_one fails the row); `with` closes the response so a
                # truncated read can't leak the pooled connection
                body = r.raw.read(MAX_IMAGE_BYTES + 1, decode_content=True)
                return r.status_code, dict(r.headers), body
        except requests.RequestException as e:
            raise TransportError(str(e)) from e


class MockTransport:
    """Deterministic transport over a SyntheticSite with scripted behaviors
    (FIXTURES.md F6). Tracks per-URL hit counts so tests can assert
    no-refetch-after-resume; counting is exact because each test/bench run
    owns its transport instances, and thread-safe because one task's fetch
    threads share the instance.

    Connection-pool model for the reference's optimized-vs-unoptimized
    HTTP-client A/B (benchmark.sh:24-121: pooled keep-alive client 28 s vs
    default 45 s on a live 2-page crawl): ``handshake_s`` is the TLS/TCP
    setup cost paid whenever the request's host has no warm connection;
    ``pool_size`` is how many hosts this transport keeps warm (LRU).
    ``pool_size=0`` disables keep-alive — every request pays the
    handshake, the un-optimized client."""

    def __init__(self, site, transport_error_urls: set[str] | None = None,
                 latency_s: float = 0.0, handshake_s: float = 0.0,
                 pool_size: int = 20):
        self.site = site
        self.transport_error_urls = transport_error_urls or set()
        self.hits: dict[str, int] = {}
        self.latency_s = latency_s
        self.handshake_s = handshake_s
        self.pool_size = pool_size
        self._warm: dict[str, None] = {}  # host → (LRU order via dict)
        self.handshakes = 0
        self._lock = threading.Lock()  # guards hits, _warm, handshakes

    def _connect(self, url: str) -> None:
        host = url.split("/", 3)[2] if "://" in url else ""
        with self._lock:
            if self.pool_size > 0 and host in self._warm:
                self._warm.pop(host)  # refresh LRU position
                self._warm[host] = None
                return
            self.handshakes += 1
            if self.pool_size > 0:
                self._warm[host] = None
                while len(self._warm) > self.pool_size:
                    self._warm.pop(next(iter(self._warm)))
        if self.handshake_s:
            time.sleep(self.handshake_s)

    def __call__(self, url: str) -> tuple[int, dict, bytes]:
        with self._lock:
            hit = self.hits[url] = self.hits.get(url, 0) + 1
        if any(sub in url for sub in self.transport_error_urls):
            raise TransportError(f"connection refused: {url}")
        if self.handshake_s or self.pool_size == 0:
            self._connect(url)
        if self.latency_s:
            time.sleep(self.latency_s)  # simulated network latency (bench realism)
        spec = self.site.spec
        if any(sub in url for sub in spec.always_429):
            return 429, {}, b""
        if any(sub in url for sub in spec.status_429_then_200):
            if hit == 1:
                return 429, {"Retry-After": "1"}, b""
        status, body = self.site.html_for(url)
        return status, {}, body


def calc_retry_delay_s(headers: dict, attempt: int, now=None) -> float:
    """crawler/retry.go:57-93 semantics, in seconds."""
    max_delay = RETRY_MAX_DELAY_MS / 1000.0
    ra = (headers or {}).get("Retry-After", "")
    if ra:
        try:
            seconds = int(ra)
            if seconds > 0:
                return min(float(seconds), max_delay)
        except ValueError:
            try:
                t = parsedate_to_datetime(ra)
                now_ts = now if now is not None else time.time()
                delay = t.timestamp() - now_ts
                if delay <= 0:
                    delay = RETRY_INITIAL_DELAY_MS / 1000.0
                return min(delay, max_delay)
            except (TypeError, ValueError):
                pass
    delay = RETRY_INITIAL_DELAY_MS
    for _ in range(1, attempt):
        delay *= RETRY_BACKOFF_FACTOR
        if delay >= RETRY_MAX_DELAY_MS:
            return max_delay
    return delay / 1000.0


def fetch_with_retry(transport, url: str, sleep=time.sleep) -> tuple[int, bytes, int, str]:
    """(status, body, attempts, error). 429-only retry, ≤3 attempts; transport
    errors and non-429 statuses never retried (crawler/retry.go:20-52)."""
    for attempt in range(1, RETRY_MAX_ATTEMPTS + 1):
        try:
            status, headers, body = transport(url)
        except TransportError as e:
            return -1, b"", attempt, str(e)
        if status != 429:
            return status, body, attempt, ""
        if attempt == RETRY_MAX_ATTEMPTS:
            return 429, b"", attempt, f"still 429 after {RETRY_MAX_ATTEMPTS} attempts"
        sleep(calc_retry_delay_s(headers, attempt))
    return -1, b"", RETRY_MAX_ATTEMPTS, "unreachable"


# Per-worker-process transport cache for task-mode fetching: tasks reuse the
# warm Ray worker processes, so caching by factory pickle gives each worker
# one long-lived session (shared by the fetch threads of every task the
# process runs) without actor spin-up.
_TASK_TRANSPORTS: dict[bytes, object] = {}


def _no_sleep(_s: float) -> None:
    return None


def fetch_one(transport, url: str, sleep=time.sleep,
              max_body_bytes: int = MAX_IMAGE_BYTES) -> tuple[int, bytes, int, str, bool]:
    """One row's fetch outcome: (status, body, attempts, error, ok)."""
    status, body, attempts, err = fetch_with_retry(transport, url, sleep)
    ok = status == 200 and not err
    if ok and len(body) > max_body_bytes:
        # S4: oversize body ⇒ row not emitted (cleaner than partial-file
        # delete). Applied to ALL kinds: a transport may truncate at the
        # cap, and a silently truncated HTML page must not be parsed as
        # if complete (the reference only caps images, but never
        # truncates pages — we surface truncation as an error instead).
        return status, b"", attempts, "oversize", False
    if not ok and not err:
        err = f"http {status}"
    return status, body if ok else b"", attempts, err, ok


def fetch_batch_task(batch: pa.Table, factory_bytes: bytes,
                     max_body_bytes: int = MAX_IMAGE_BYTES,
                     deterministic: bool = True,
                     page_cap: int = 1, media_cap: int = 1) -> pa.Table:
    """Fetch every row of ``batch`` with up to ``page_cap`` page (index /
    article) and ``media_cap`` media requests in flight at once — the
    reference's ``parserCount`` and ``workers`` goroutines
    (crawler/crawler.go:204-230). Output rows keep input order.

    ``deterministic=True`` (ordering tests / bench): no real sleeping
    between 429 retries. Non-deterministic runs honor Retry-After/backoff
    pacing (crawler/retry.go doWithRetry)."""
    from concurrent.futures import ThreadPoolExecutor

    from ray import cloudpickle

    transport = _TASK_TRANSPORTS.get(factory_bytes)
    if transport is None:
        transport = cloudpickle.loads(factory_bytes)()
        _TASK_TRANSPORTS[factory_bytes] = transport
    sleep = _no_sleep if deterministic else time.sleep
    is_media = [k == "media" for k in batch["kind"].to_pylist()]
    pools = {
        media: ThreadPoolExecutor(min(is_media.count(media), max(1, cap)))
        for media, cap in ((False, page_cap), (True, media_cap))
        if media in is_media
    }
    try:
        futs = [
            pools[media].submit(fetch_one, transport, url, sleep, max_body_bytes)
            for url, media in zip(batch["url"].to_pylist(), is_media)
        ]
        rows = [f.result() for f in futs]
    finally:
        for pool in pools.values():
            pool.shutdown()
    statuses, bodies, attempts, errors, oks = zip(*rows) if rows else ((),) * 5
    kinds = [classify_fetch(s, e) for s, e in zip(statuses, errors)]
    return (
        batch.append_column("status", pa.array(statuses, pa.int32()))
        .append_column("ok", pa.array(oks, pa.bool_()))
        .append_column("error", pa.array(errors, pa.string()))
        .append_column("error_kind", pa.array(kinds, pa.string()))
        .append_column("body", pa.array(bodies, pa.large_binary()))
        .append_column("attempts", pa.array(attempts, pa.int32()))
    )
