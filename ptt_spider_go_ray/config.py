"""Engine configuration (S6) — YAML → dataclass with the reference's
fallback semantics (/root/reference/config/config.go:79-141): missing file ⇒
defaults (no error); read/parse failure ⇒ error; bad durations ⇒ default with
a warning; out-of-range ints clamped back to defaults.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

_DURATION_RE = re.compile(r"(\d+(?:\.\d+)?)(ms|s|m|h)")
_DURATION_UNIT = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0}


def parse_duration(value: str, default: float, name: str = "") -> float:
    """Go-style duration string ("30s", "1m30s", "500ms") → seconds.
    Failure ⇒ default with a warning (config.go:61-67)."""
    if isinstance(value, (int, float)):
        return float(value)
    matches = _DURATION_RE.findall(value or "")
    if not matches or _DURATION_RE.sub("", value or "").strip():
        log.warning("cannot parse duration %r for %s; using default %ss", value, name, default)
        return default
    return sum(float(n) * _DURATION_UNIT[u] for n, u in matches)


@dataclass
class HTTPConfig:
    timeout: float = 30.0
    max_idle_conns: int = 100
    max_idle_conns_per_host: int = 20
    idle_conn_timeout: float = 90.0


@dataclass
class DelayConfig:
    min_ms: int = 500
    max_ms: int = 2000


@dataclass
class CrawlerConfig:
    """Parallelism knobs; reference defaults config.go:79-105."""

    workers: int = 10           # media fetches in flight per fetch slice task
    parser_count: int = 10      # page fetches in flight per fetch slice task
    delays: DelayConfig = field(default_factory=DelayConfig)
    http: HTTPConfig = field(default_factory=HTTPConfig)
    # Ray-engine additions (no reference equivalent):
    frontier_shards: int = 8         # frontier actor shards (hash by host+board)
    batch_urls: int = 256            # frontier rows pulled per driver round
    fetch_batch_size: int = 64       # rows per fetch slice task (one task each)
    max_depth: int = 3               # index(0) → article(1) → media(2)
    seen_capacity: int = 1 << 16     # per-shard cuckoo filter slots
    checkpoint_dir: str = ""         # empty = no checkpointing
    politeness_rate: float = 0.0     # per-host req/s budget; 0 = unlimited.
    politeness_burst_s: float = 2.0  # bucket capacity in seconds-of-rate: how much
    # accrued budget survives the driver's round barrier (long-run rate unchanged).
    # Reference default budget ≈ workers/mean-delay = 10/1.25 s = 8 req/s
    # (config/config.go:89-92); set via politeness_rate=8.0 when pacing a
    # real host. The budget is split across the salt shards owning the host.
    robots: bool = True
    exact_seen: bool = True  # keep exact URL side-set (FP detector / lineage); disable at 10^10 scale
    frontier_max_mem_rows: int = 0   # per-shard in-memory heap bound; 0 = unbounded.
    # >0 spills the largest (priority, seq) half to sorted disk segments and
    # merges them back exactly when needed — set at 10^10-frontier scale.
    spill_dir: str = ""              # spill segment dir (default: /tmp/<pid>-frontier-spill)
    cooldown_429_s: float = 30.0     # host cooldown after retry-exhausted 429
    # (the reference's backoff cap, constants.go:31-38, as the horizon)
    checkpoint_every: int = 1        # checkpoint every N rounds; >1 amortizes the
    # per-round snapshot cost (a kill between checkpoints refetches ≤N-1 rounds)


@dataclass
class Config:
    crawler: CrawlerConfig = field(default_factory=CrawlerConfig)


def load(config_path: str) -> Config:
    """Missing file ⇒ defaults (nil error); bad YAML ⇒ raise. config.go:116-141."""
    if not os.path.exists(config_path):
        log.info("config %s not found; using defaults", config_path)
        return Config()
    import yaml

    from .errors import ConfigError

    with open(config_path) as f:
        data = yaml.safe_load(f.read())
    if data is None:
        return Config()
    if not isinstance(data, dict):
        raise ConfigError(f"config {config_path}: top level must be a mapping")
    cfg = Config()
    c = data.get("crawler", {}) or {}
    cc = cfg.crawler
    cc.workers = _fix_int(c.get("workers", cc.workers), 1, 10, "workers")
    cc.parser_count = _fix_int(c.get("parserCount", cc.parser_count), 1, 10, "parserCount")
    d = c.get("delays", {}) or {}
    cc.delays.min_ms = _fix_int(d.get("minMs", cc.delays.min_ms), 0, 500, "delays.minMs")
    cc.delays.max_ms = _fix_int(d.get("maxMs", cc.delays.max_ms), 0, 2000, "delays.maxMs")
    h = c.get("http", {}) or {}
    cc.http.timeout = parse_duration(h.get("timeout", "30s"), 30.0, "http.timeout")
    cc.http.max_idle_conns = _fix_int(h.get("maxIdleConns", 100), 1, 100, "http.maxIdleConns")
    cc.http.max_idle_conns_per_host = _fix_int(
        h.get("maxIdleConnsPerHost", 20), 1, 20, "http.maxIdleConnsPerHost"
    )
    cc.http.idle_conn_timeout = parse_duration(
        h.get("idleConnTimeout", "90s"), 90.0, "http.idleConnTimeout"
    )
    for k in ("frontier_shards", "batch_urls", "fetch_batch_size", "max_depth",
              "seen_capacity", "frontier_max_mem_rows", "checkpoint_every"):
        if k in c:
            setattr(cc, k, int(c[k]))
    for k in ("politeness_rate", "cooldown_429_s"):
        if k in c:
            setattr(cc, k, float(c[k]))
    for k in ("checkpoint_dir", "spill_dir"):
        if k in c:
            setattr(cc, k, str(c[k]))
    if "robots" in c:
        cc.robots = bool(c["robots"])
    if "exact_seen" in c:
        cc.exact_seen = bool(c["exact_seen"])
    return cfg


def _fix_int(value, min_allowed: int, default: int, name: str) -> int:
    """config.go validateAndFix: below-minimum values revert to default."""
    try:
        value = int(value)
    except (TypeError, ValueError):
        log.warning("config %s=%r not an int; using %d", name, value, default)
        return default
    if value < min_allowed:
        log.warning("config %s=%d < %d; using %d", name, value, min_allowed, default)
        return default
    return value


# Retry constants (constants/constants.go:31-38)
RETRY_MAX_ATTEMPTS = 3
RETRY_INITIAL_DELAY_MS = 1000
RETRY_BACKOFF_FACTOR = 2
RETRY_MAX_DELAY_MS = 30_000

# Per-image size cap (constants/constants.go:42)
MAX_IMAGE_BYTES = 50 * 1024 * 1024

USER_AGENT = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/120.0.0.0 Safari/537.36"
)
OVER18_COOKIE = {"over18": "1"}
