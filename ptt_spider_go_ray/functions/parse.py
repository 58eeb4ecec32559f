"""Pure parsing / normalization functions with the reference's exact semantics.

Reference parity (file:line cites are into /root/reference, twtrubiks/ptt-spider-go):

- ``decode_push_rate``      -> ptt/parser_impl.go:48-60
- ``parse_board_html``      -> ptt/parser_impl.go:24-71   (P1)
- ``parse_article_html``    -> ptt/parser_impl.go:74-113  (P3)
- ``parse_max_page``        -> ptt/parser_impl.go:116-139 (S3; returns n+1)
- ``normalize_img_href``    -> ptt/parser_impl.go:92-110  (P4)
- ``clean_file_name``       -> crawler/crawler.go:36,639-642 (P5)
- ``validate_board``        -> crawler/crawler.go:39,45-56   (P6)
- ``image_file_name``       -> internal/fileutil/filename.go:16-25 (P7)
- ``image_file_names``      -> internal/fileutil/filename.go:31-49 (D3)
- ``unique_stable``         -> crawler/crawler.go:644-656 (D1)
- ``determine_final_title`` -> crawler/crawler.go:535-541 (P8)
- ``is_seed_line``          -> crawler/crawler.go:812     (S2 filter)

Everything here is plain Python over strings — no Ray, no I/O — so it is
directly unit-testable and safely callable inside vectorized ``map_batches``
batch functions.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from urllib.parse import urlparse

PTT_BASE_URL = "https://www.ptt.cc"  # constants/constants.go
SEED_PREFIX = PTT_BASE_URL + "/bbs/"

_INVALID_FILENAME_CHARS = re.compile(r'[\\/:*?"<>|]')  # crawler/crawler.go:36
_VALID_BOARD = re.compile(r"^[A-Za-z0-9_-]+$")  # crawler/crawler.go:39
_IMG_EXTS = (".jpg", ".jpeg", ".png", ".gif")  # ptt/parser_impl.go:99


from ..errors import ParseError, ValidationError  # noqa: E402 — typed taxonomy (errors.py, errors.go analog)


# ---------------------------------------------------------------------------
# scalar functions (SURVEY §2.8)
# ---------------------------------------------------------------------------

def decode_push_rate(s: str) -> int:
    """'爆'→100; 'X<k>'→-k (bad int → 0); else Atoi else 0.

    ptt/parser_impl.go:48-60. Note Go's ``strconv.Atoi`` rejects
    whitespace/partial numbers, so "12a" → 0, " 5" → 0 (input is pre-trimmed
    by caller anyway).
    """
    s = s.strip()
    if s == "爆":
        return 100
    if s.startswith("X"):
        try:
            return -int(_go_atoi(s[1:]))
        except ValueError:
            return 0
    try:
        return _go_atoi(s)
    except ValueError:
        return 0


def _go_atoi(s: str) -> int:
    """strconv.Atoi semantics: optional sign + digits only, no spaces/underscores."""
    if not re.fullmatch(r"[+-]?\d+", s):
        raise ValueError(f"invalid int: {s!r}")
    return int(s)


def normalize_img_href(href: str) -> str | None:
    """Classify+normalize one anchor href per ptt/parser_impl.go:92-110.

    Returns the normalized image URL, or None if the href is not an image
    link. Order of rules matches the reference exactly:

    1. suffix in {.jpg,.jpeg,.png,.gif} (case-sensitive, query strings make
       the suffix test fail) → scheme rewrites ``//x``→``https:x`` and
       ``http://``→``https://``;
    2. else contains ``imgur.com/`` but not ``imgur.com/a/`` → href + ".jpg"
       (no scheme rewrite on this branch, exactly like the reference);
    3. else not an image.
    """
    if href.endswith(_IMG_EXTS):
        if href.startswith("//"):
            return "https:" + href
        if href.startswith("http://"):
            return "https://" + href[7:]
        return href
    if "imgur.com/" in href and "imgur.com/a/" not in href:
        return href + ".jpg"
    return None


def clean_file_name(name: str) -> str:
    """Strip ``[\\/:*?"<>|]``; CJK and spaces preserved. crawler.go:639-642."""
    return _INVALID_FILENAME_CHARS.sub("", name)


def validate_board(board: str, file_url: str = "") -> None:
    """crawler/crawler.go:45-56: board mode requires a board; non-empty board
    must match ``^[A-Za-z0-9_-]+$`` (path-traversal defense)."""
    if board == "":
        if file_url == "":
            raise ValidationError("board mode requires a board name")
        return
    if not _VALID_BOARD.fullmatch(board):
        raise ValidationError(f"invalid board name {board!r}: only [A-Za-z0-9_-] allowed")


def image_file_name(img_url: str) -> str:
    """Basename of the parsed URL *path* (query/fragment ignored); imgur URLs
    whose basename has no dot get '.jpg'. internal/fileutil/filename.go:16-25."""
    name = posixpath.basename(img_url)
    try:
        parsed = urlparse(img_url)
    except ValueError:
        parsed = None
    if parsed is not None:
        name = posixpath.basename(parsed.path)
    if "imgur.com" in img_url and "." not in name:
        name += ".jpg"
    return name


def image_file_names(img_urls: list[str]) -> list[str]:
    """Collision-suffixed local filenames, 1:1 with input order: same derived
    basename ⇒ ``stem_2.ext``, ``stem_3.ext`` …, skipping names already taken
    (including a literal ``a_2.jpg`` input). internal/fileutil/filename.go:31-49."""
    names: list[str] = []
    taken: set[str] = set()
    for img_url in img_urls:
        base = image_file_name(img_url)
        stem, ext = posixpath.splitext(base)
        name = base
        i = 2
        while name in taken:
            name = f"{stem}_{i}{ext}"
            i += 1
        taken.add(name)
        names.append(name)
    return names


def unique_stable(items: list[str]) -> list[str]:
    """Drop duplicates, keep first occurrence, preserve order. crawler.go:644-656."""
    return list(dict.fromkeys(items))


def determine_final_title(list_title: str, parsed_title: str, file_mode: bool) -> str:
    """File mode or empty list-title ⇒ prefer the in-article parsed title;
    else keep the list title. crawler/crawler.go:535-541."""
    if (file_mode and parsed_title != "") or (list_title == "" and parsed_title != ""):
        return parsed_title
    return list_title


def is_seed_line(line: str) -> bool:
    """File-mode line filter: strip, then prefix test against
    ``https://www.ptt.cc/bbs/``. crawler/crawler.go:811-812."""
    return line.strip().startswith(SEED_PREFIX)


def unique_dir_names(rows: list[tuple[str, str]]) -> list[str]:
    """Ordered collision suffixing over (dir_name, article_url) pairs.

    Same contract as crawler/crawler.go:562-585 (T4) but deterministic: rows
    must be pre-ordered by crawl sequence. Same URL re-processed ⇒ same dir;
    different article with a taken name ⇒ ``_2``, ``_3`` … in order.
    """
    used: dict[str, str] = {}
    out: list[str] = []
    for dir_name, url in rows:
        name = dir_name
        i = 2
        while True:
            owner = used.get(name)
            if owner is None:
                used[name] = url
                break
            if owner == url:
                break
            name = f"{dir_name}_{i}"
            i += 1
        out.append(name)
    return out


# ---------------------------------------------------------------------------
# HTML parsing (stdlib html.parser stand-in for goquery)
# ---------------------------------------------------------------------------


def _has_class(attrs: dict[str, str | None], cls: str) -> bool:
    return cls in (attrs.get("class") or "").split()


@dataclass
class _Node:
    tag: str
    attrs: dict[str, str | None]
    parent: "_Node | None"
    children: list = field(default_factory=list)  # _Node | str interleaved

    # Both walks are pre-order over a reversed stack: push a node's children
    # last-first, so popping yields them in document order ("first match"
    # semantics of titles, anchors and authors depend on it), in O(nodes).
    def text(self) -> str:
        out: list[str] = []
        stack: list = self.children[::-1]
        while stack:
            n = stack.pop()
            if isinstance(n, str):
                out.append(n)
            else:
                stack.extend(reversed(n.children))
        return "".join(out)

    def find_all(self, pred) -> list["_Node"]:
        found: list[_Node] = []
        stack: list = self.children[::-1]
        while stack:
            n = stack.pop()
            if isinstance(n, str):
                continue
            if pred(n):
                found.append(n)
            stack.extend(reversed(n.children))
        return found


_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class _DomBuilder(HTMLParser):
    """Minimal DOM tree builder sufficient for PTT-shaped HTML."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = _Node("", {}, None)
        self.cur = self.root

    def handle_starttag(self, tag, attrs):
        node = _Node(tag, dict(attrs), self.cur)
        self.cur.children.append(node)
        if tag not in _VOID_TAGS:
            self.cur = node

    def handle_startendtag(self, tag, attrs):
        self.cur.children.append(_Node(tag, dict(attrs), self.cur))

    def handle_endtag(self, tag):
        n = self.cur
        while n is not self.root and n.tag != tag:
            n = n.parent
        if n is not self.root:
            self.cur = n.parent

    def handle_data(self, data):
        self.cur.children.append(data)


def parse_dom(html: str) -> _Node:
    b = _DomBuilder()
    b.feed(html)
    b.close()
    return b.root


def parse_board_html(html: str) -> list[dict]:
    """Board index page → article rows, page DOM order preserved.

    ptt/parser_impl.go:24-71: per ``.r-ent`` div — skip if no ``.title a``
    (deleted); title trimmed; skip titles containing 公告; author from
    ``.meta .author``; push rate decoded from ``.nrec span``; URL
    absolutized with the PTT base.
    """
    root = parse_dom(html)
    out: list[dict] = []
    for rent in root.find_all(lambda n: _has_class(n.attrs, "r-ent")):
        titles = rent.find_all(lambda n: _has_class(n.attrs, "title"))
        anchor = None
        for t in titles:
            links = t.find_all(lambda n: n.tag == "a")
            if links:
                anchor = links[0]
                break
        if anchor is None:
            continue  # deleted article
        title = anchor.text().strip()
        if "公告" in title:
            continue
        href = anchor.attrs.get("href") or ""
        author = ""
        for meta in rent.find_all(lambda n: _has_class(n.attrs, "meta")):
            for a in meta.find_all(lambda n: _has_class(n.attrs, "author")):
                author = a.text().strip()
                break
            break
        push_str = ""
        for nrec in rent.find_all(lambda n: _has_class(n.attrs, "nrec")):
            for sp in nrec.find_all(lambda n: n.tag == "span"):
                push_str = sp.text().strip()
                break
            break
        out.append(
            {
                "title": title,
                "url": PTT_BASE_URL + href,
                "author": author,
                "push_rate": decode_push_rate(push_str),
            }
        )
    return out


def parse_article_html(html: str) -> tuple[str, list[str]]:
    """Article page → (title, ordered image URLs), per ptt/parser_impl.go:74-113.

    Title: see :func:`_article_title`. Images: every ``<a href>`` in
    document order, classified by :func:`normalize_img_href`. No dedup here —
    the caller applies :func:`unique_stable` (crawler.go:458-460).
    """
    root = parse_dom(html)
    return _article_title(root), _image_urls(root)


def _article_title(root: _Node) -> str:
    """Text of the node following the first ``.article-meta-tag`` whose
    text == 標題 (first match then break), or "" when there is none."""
    for tag_node in root.find_all(lambda n: _has_class(n.attrs, "article-meta-tag")):
        if tag_node.text().strip() == "標題":
            parent = tag_node.parent
            if parent is not None:
                sibs = [c for c in parent.children if isinstance(c, _Node)]
                idx = sibs.index(tag_node)
                if idx + 1 < len(sibs):
                    return sibs[idx + 1].text().strip()
            break
    return ""


def _image_urls(root: _Node) -> list[str]:
    """Every ``<a href>`` under ``root`` that classifies as an image, in
    document order, normalized."""
    img_urls: list[str] = []
    for a in root.find_all(lambda n: n.tag == "a"):
        href = a.attrs.get("href")
        if href is None:
            continue
        norm = normalize_img_href(href)
        if norm is not None:
            img_urls.append(norm)
    return img_urls


def parse_article_spans(html: str) -> tuple[str, list[dict]]:
    """Article page → (title, interleaved text+media spans).

    Generalizes the reference's ordered image-URL list (input_hint schema):
    walking the main content in document order, anchors classified as images
    become ``kind="media"`` spans and the interstitial text becomes
    ``kind="text"`` spans; ``offset`` is the strictly-increasing position.
    The media_ref subsequence equals ``parse_article_html(html)[1]`` exactly
    (reference parity, ptt/parser_impl.go:92-110 DOM order).
    """
    root = parse_dom(html)
    title = _article_title(root)

    mains = root.find_all(lambda n: attr_id(n) == "main-content")
    scope = mains[0] if mains else root

    spans: list[dict] = []
    buf: list[str] = []

    def flush() -> None:
        text = "".join(buf).strip()
        buf.clear()
        if text:
            spans.append({"kind": "text", "text": text, "media_ref": ""})

    def walk(node: _Node) -> None:
        for c in node.children:
            if isinstance(c, str):
                buf.append(c)
                continue
            if c.tag == "a" and c.attrs.get("href") is not None:
                norm = normalize_img_href(c.attrs["href"])
                if norm is not None:
                    flush()
                    spans.append({"kind": "media", "text": "", "media_ref": norm})
                    continue
                buf.append(c.text())
                continue
            walk(c)

    walk(scope)
    flush()
    for i, s in enumerate(spans):
        s["offset"] = i
    return title, spans


def attr_id(n: _Node) -> str | None:
    return n.attrs.get("id")


def parse_max_page(html: str) -> int:
    """Prev-page (‹ 上頁) href → index number + 1. ptt/parser_impl.go:116-139."""
    root = parse_dom(html)
    href = None
    for grp in root.find_all(lambda n: _has_class(n.attrs, "btn-group-paging")):
        for a in grp.find_all(lambda n: n.tag == "a"):
            if "‹ 上頁" in a.text():
                href = a.attrs.get("href")
                break
        if href is not None:
            break
    if href is None:
        raise ParseError("prev-page button not found")
    trimmed = href[: -len(".html")] if href.endswith(".html") else href
    parts = trimmed.split("index")
    if len(parts) < 2:
        raise ParseError(f"cannot parse page number from {href!r}")
    try:
        n = _go_atoi(parts[1])
    except ValueError as e:
        raise ParseError(f"bad page number in {href!r}") from e
    return n + 1


def board_page_urls(board: str, max_page: int, pages: int) -> list[str]:
    """Newest-first page URLs, clamped at page 1 (never index0.html).

    crawler/crawler.go:365-380: walks maxPage, maxPage-1, … for ``pages``
    steps, stopping before page < 1.
    """
    urls = []
    for i in range(pages):
        page_no = max_page - i
        if page_no < 1:
            break
        urls.append(f"{PTT_BASE_URL}/bbs/{board}/index{page_no}.html")
    return urls


def canonicalize_url(url: str) -> str:
    """Canonical form used for the URL-seen set: lowercase scheme+host,
    https upgrade, strip fragment, strip trailing slash on path (except root),
    protocol-relative → https."""
    u = url.strip()
    if u.startswith("//"):
        u = "https:" + u
    if u.startswith("http://"):
        u = "https://" + u[7:]
    try:
        p = urlparse(u)
    except ValueError:
        return u
    host = (p.netloc or "").lower()
    path = p.path or "/"
    if len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/") or "/"  # '//' must collapse to '/', not ''
    q = f"?{p.query}" if p.query else ""
    return f"https://{host}{path}{q}"


def url_host(url: str) -> str:
    try:
        return (urlparse(url).netloc or "").lower()
    except ValueError:
        return ""
