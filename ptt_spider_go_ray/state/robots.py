"""robots.txt gating (north-rule addition; the reference has none).

Minimal, deterministic robots parser: ``User-agent`` groups, ``Disallow`` /
``Allow`` prefix rules, longest-match-wins (the de-facto standard from the
public robots.txt RFC 9309). Cached per host inside whatever holds it (the
frontier shard)."""

from __future__ import annotations

import re
from urllib.parse import urlparse


def _compile_rule(path: str) -> re.Pattern:
    """Compile one Disallow/Allow value to a start-anchored regex with RFC
    9309 §2.2.3 special characters: ``*`` matches any character sequence,
    trailing ``$`` anchors at end-of-path; everything else is literal."""
    anchored = path.endswith("$")
    body = path[:-1] if anchored else path
    pattern = ".*".join(re.escape(seg) for seg in body.split("*"))
    if anchored:
        pattern += "$"
    return re.compile(pattern)


class RobotsRules:
    def __init__(self, rules: list[tuple[str, bool]],
                 crawl_delay: float | None = None):
        # rules: (path_pattern, allowed); most-specific (longest pattern)
        # wins; on equal-length ties Allow wins (RFC 9309 §2.2.2); default
        # allow. Patterns support '*' and trailing '$' (§2.2.3).
        # crawl_delay: seconds between requests, from the selected group's
        # ``Crawl-delay`` extension line (None when absent).
        self.rules = [
            (r[0], _compile_rule(r[0]), r[1])
            for r in sorted(rules, key=lambda r: (-len(r[0]), not r[1]))
        ]
        self.crawl_delay = crawl_delay

    def allowed(self, path: str) -> bool:
        for raw, rx, allow in self.rules:
            if raw and rx.match(path):
                return allow
        return True

    @classmethod
    def parse(cls, text: str, agent: str = "*") -> "RobotsRules":
        """RFC 9309 group semantics: rules are grouped under their
        User-agent lines (consecutive UA lines share one group); ONLY the
        most specific matching group applies — the longest UA token that is
        a substring of ``agent``, falling back to the ``*`` group."""
        groups: list[tuple[list[str], list[tuple[str, bool]], float | None]] = []
        cur_agents: list[str] = []
        cur_rules: list[tuple[str, bool]] = []
        cur_delay: float | None = None
        in_ua_run = False
        for raw in (text or "").splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line or ":" not in line:
                continue
            key, _, val = line.partition(":")
            key = key.strip().lower()
            val = val.strip()
            if key == "user-agent":
                if not in_ua_run:
                    if cur_agents:
                        groups.append((cur_agents, cur_rules, cur_delay))
                    cur_agents, cur_rules, cur_delay = [], [], None
                    in_ua_run = True
                cur_agents.append(val.lower())
            elif key in ("disallow", "allow"):
                in_ua_run = False
                if cur_agents and val:
                    cur_rules.append((val, key == "allow"))
            elif key == "crawl-delay":
                # non-RFC extension honored by major crawlers: seconds
                # between requests for this group (invalid values ignored)
                in_ua_run = False
                if cur_agents:
                    try:
                        d = float(val)
                        if d > 0:
                            cur_delay = d
                    except ValueError:
                        pass
        if cur_agents:
            groups.append((cur_agents, cur_rules, cur_delay))

        agent_l = agent.lower()
        best: tuple[int, list[tuple[str, bool]], float | None] | None = None
        for agents, rules, delay in groups:
            for a in agents:
                if a == "*":
                    score = 0
                elif a in agent_l:
                    score = len(a)
                else:
                    continue
                if best is None or score > best[0]:
                    best = (score, rules, delay)
        return cls(best[1] if best else [], best[2] if best else None)

    @classmethod
    def allow_all(cls) -> "RobotsRules":
        return cls([])


class RobotsCache:
    """Per-host robots rules, fetched once via the provided fetch_fn
    (url -> (status, bytes)). Missing/failed robots ⇒ allow all."""

    def __init__(self, fetch_fn):
        self.fetch_fn = fetch_fn
        self._cache: dict[str, RobotsRules] = {}

    def _rules_for(self, host: str) -> RobotsRules:
        rules = self._cache.get(host)
        if rules is None:
            try:
                status, body = self.fetch_fn(f"https://{host}/robots.txt")
                rules = (
                    RobotsRules.parse(body.decode("utf-8", "replace"))
                    if status == 200
                    else RobotsRules.allow_all()
                )
            except Exception:
                rules = RobotsRules.allow_all()
            self._cache[host] = rules
        return rules

    def allowed(self, url: str) -> bool:
        p = urlparse(url)
        host = (p.netloc or "").lower()
        return self._rules_for(host).allowed(p.path or "/")

    def crawl_delay(self, host: str) -> float | None:
        """The selected group's Crawl-delay for ``host`` (None when absent).
        Uses the same one-fetch-per-host cache as ``allowed``."""
        return self._rules_for(host.lower()).crawl_delay
