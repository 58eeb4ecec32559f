"""Text-analysis scalar functions for the large-scale training-data pipeline
extensions (task brief): language-ID (n-gram/stopword heuristic), quality
scoring (length/punct/stopword ratios), token counting (whitespace + a
BPE-ish regex), and document fingerprinting (rolling hash).

All functions are pure and deterministic; batch/vectorized wrappers live in
``ptt_spider_go_ray.stages.textstages``. Where a DuckDB-SQL oracle exists the
semantics are chosen to be exactly expressible in ANSI SQL (see
``queries.py``): ``token_count`` == ``len(text.split())`` and
``punct_ratio``/``stopword_ratio`` use the fixed alphabets below.
"""

from __future__ import annotations

import re

WHITESPACE_RE = re.compile(r"\s+")
# BPE-ish pre-tokenizer: word pieces, numbers, or single non-space symbols
# (pattern in the spirit of the public GPT-2 pre-tokenizer regex).
BPE_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")
PUNCT_CHARS = ".,;:!?"

# Tiny per-language stopword profiles (top function words). Public knowledge.
STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit", "den"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "que", "pour"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "de", "que", "por"},
    "zh": set("的了是在不我有和就人都一".split()) | {"的", "了", "是", "在", "不"},
}
EN_STOPWORDS = sorted(STOPWORDS["en"])


def tokens(text: str) -> list[str]:
    """Whitespace tokenization, Python ``str.split`` semantics (runs of
    whitespace collapse; leading/trailing ignored)."""
    return text.split()


def token_count(text: str) -> int:
    return len(text.split())


def bpe_token_count(text: str) -> int:
    """Count of BPE-ish pre-tokens (letters runs, digit runs, single symbols)."""
    return len(BPE_RE.findall(text))


def punct_count(text: str) -> int:
    return sum(text.count(c) for c in PUNCT_CHARS)


def stopword_count(text: str, lang: str = "en") -> int:
    sw = STOPWORDS.get(lang, STOPWORDS["en"])
    return sum(1 for t in text.lower().split() if t in sw)


def quality_score(text: str) -> dict:
    """Length/punct/stopword-ratio quality signals (C4/Gopher-style heuristics
    from the public data-curation literature, simplified)."""
    n_chars = len(text)
    toks = text.split()
    n_tokens = len(toks)
    mean_tok = (sum(len(t) for t in toks) / n_tokens) if n_tokens else 0.0
    p_ratio = (punct_count(text) / n_chars) if n_chars else 0.0
    sw_ratio = (stopword_count(text) / n_tokens) if n_tokens else 0.0
    score = 0.0
    if 3 <= mean_tok <= 12:
        score += 0.4
    if n_tokens >= 10:
        score += 0.3
    if sw_ratio >= 0.05:
        score += 0.3
    return {
        "n_chars": n_chars,
        "n_tokens": n_tokens,
        "mean_token_len": mean_tok,
        "punct_ratio": p_ratio,
        "stopword_ratio": sw_ratio,
        "quality": score,
    }


def detect_lang(text: str) -> str:
    """Stopword-profile language ID: the language whose stopword set hits the
    most tokens wins (ties broken by language code order); zh additionally
    scored by CJK character hits. Returns 'und' when nothing matches."""
    toks = text.lower().split()
    scores: dict[str, float] = {}
    for lang, sw in STOPWORDS.items():
        if lang == "zh":
            continue
        s = sum(1 for t in toks if t in sw)
        if s:
            scores[lang] = s
    cjk = sum(1 for ch in text if "一" <= ch <= "鿿")
    if cjk:
        scores["zh"] = cjk / 2.0
    if not scores:
        return "und"
    return min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]


_ROLL_BASE = 1_000_003
_ROLL_MOD = (1 << 61) - 1


def rolling_fingerprint(text: str) -> int:
    """Deterministic whole-document fingerprint: Rabin-Karp polynomial hash
    accumulated byte-by-byte (rolling update). Content-sensitive — any byte
    change flips the fingerprint — unlike the MinHash sketches used for
    near-dup detection in stages/dedup.py."""
    h = 0
    for b in text.encode("utf-8"):
        h = (h * _ROLL_BASE + b) % _ROLL_MOD
    return h


def word_shingles(text: str, k: int = 3) -> set[str]:
    toks = text.split()
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    u = len(a | b)
    return (len(a & b) / u) if u else 0.0
