"""The DOM parser the crawl's page scanner must equal.

``functions/parse.py`` reads PTT pages with one regex scanner and an
open-element stack. This module keeps the straightforward reading it
replaced: Python's ``HTMLParser`` builds a DOM tree, and the parsers walk
it. The scanner tests hold the two equal on fixture, synthetic and generated
pages. Nothing in the package imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser

from ptt_spider_go_ray.functions.parse import (
    PTT_BASE_URL,
    ParseError,
    _go_atoi,
    decode_push_rate,
    normalize_img_href,
)


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
    """Article page → (title, every image ``<a href>`` of the page in
    document order), ptt/parser_impl.go:74-113; no dedup."""
    root = parse_dom(html)
    return _article_title(root), _image_urls(root)


def _article_title(root: _Node) -> str:
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
    root = parse_dom(html)
    title = _article_title(root)

    mains = root.find_all(lambda n: n.attrs.get("id") == "main-content")
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


def parse_max_page(html: str) -> int:
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
