"""Pure parsing / normalization functions with the reference's exact semantics.

Reference parity (file:line cites are into /root/reference, twtrubiks/ptt-spider-go):

- ``decode_push_rate``      -> ptt/parser_impl.go:48-60
- ``parse_board_html``      -> ptt/parser_impl.go:24-71   (P1)
- ``parse_article_spans``   -> ptt/parser_impl.go:74-113  (P3, as spans)
- ``parse_max_page``        -> ptt/parser_impl.go:116-139 (S3; returns n+1)
- ``normalize_img_href``    -> ptt/parser_impl.go:92-110  (P4)
- ``clean_file_name``       -> crawler/crawler.go:36,639-642 (P5)
- ``validate_board``        -> crawler/crawler.go:39,45-56   (P6)
- ``image_file_name``       -> internal/fileutil/filename.go:16-25 (P7)
- ``image_file_names``      -> internal/fileutil/filename.go:31-49 (D3)
- ``unique_stable``         -> crawler/crawler.go:644-656 (D1)
- ``determine_final_title`` -> crawler/crawler.go:535-541 (P8)
- ``is_seed_line``          -> crawler/crawler.go:812     (S2 filter)

The three page parsers share one scanner (see "HTML scanning" below): a
compiled regex tokenizer and an open-element stack, one pass per page, with
no DOM. Everything here is plain Python over strings — no Ray, no I/O — so
it is directly unit-testable and safely callable inside vectorized
``map_batches`` batch functions.
"""

from __future__ import annotations

import functools
import posixpath
import re
import string
from html import unescape
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
# HTML scanning (the reference reads pages with goquery)
# ---------------------------------------------------------------------------
#
# One pass over the page string: a compiled regex tokenizer plus an
# open-element stack. Tokens are read as Python's ``HTMLParser`` reads them
# (``convert_charrefs=True``, the whole page fed, then closed), and elements
# nest as a minimal DOM builder nests them:
#
# - tag and attribute names are lowercased; character references are
#   unescaped in text and in attribute values; comments, doctype, processing
#   instructions and marked sections are dropped;
# - ``script``/``style`` content is raw text up to its end tag;
# - void tags and self-closing (``<x/>``) tags are not opened;
# - an end tag closes the nearest open element of its name, with everything
#   opened inside it, or is ignored;
# - markup still incomplete at the end of the page becomes text, as
#   ``HTMLParser.close()`` makes it.
#
# The result lists the elements in document order (pre-order), each with its
# subtree as an index range and its text as a range of text chunks, so the
# "first match in document order" reads below need no tree. The DOM builder
# itself lives on in the tests, as the oracle the scanner must equal.

_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
_ASCII_LETTERS = frozenset(string.ascii_letters)

# Well-formed tokens, which is all a PTT page holds: a text run, an end tag,
# a start tag whose attributes are ``name``, ``name="v"`` or ``name='v'``
# after ASCII whitespace, and a comment. The general rules below read each of
# these the same way; anything else at a "<" goes to them.
_TOKEN = re.compile(
    r"([^<]+)"
    r"|</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>"
    r"|<([a-zA-Z][a-zA-Z0-9]*)"
    r"((?:[ \t\n\r\f]+[a-zA-Z_:][-a-zA-Z0-9_:.]*"
    r"(?:[ \t\n\r\f]*=[ \t\n\r\f]*(?:\"[^\"]*\"|'[^']*'))?)*)"
    r"[ \t\n\r\f]*(/?)>"
    r"|(?s:(<!--.*?--\s*>))"
    r"|(<)"
)
_TEXT, _END, _START, _OTHER = 1, 2, 5, 7  # ``lastindex``; a comment (6) is dropped
_SIMPLE_ATTR = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)"
    r"(?:[ \t\n\r\f]*(=)[ \t\n\r\f]*(?:\"([^\"]*)\"|'([^']*)'))?"
)
_NO_ATTRS: dict[str, str | None] = {}

# The general rules: HTMLParser's own patterns.
_TAG_NAME = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTR = re.compile(
    r"((?<=['\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"('[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*))?(?:\s|/(?!>))*"
)
_START_TAG_EXTENT = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*
  (?:[\s/]*
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*
      (?:\s*=+\s*
        (?:'[^']*'
          |"[^"]*"
          |(?!['"])[^>\s]*
         )
        \s*
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*
""", re.VERBOSE)
_END_TAG = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_DECL_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_MARKED_SECTION_CLOSE = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"),
                    re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}
_RAW_TEXT_END = {t: re.compile(rf"</\s*{t}\s*>", re.I) for t in ("script", "style")}


class _Page:
    """A scanned page. Element ``e`` (numbered in document order) has tag
    ``tags[e]`` and attributes ``attrs(e)``; its descendants are the
    elements ``e+1 … end[e]-1`` and its text is ``texts[t0[e]:t1[e]]``."""

    __slots__ = ("tags", "raw_attrs", "end", "t0", "t1", "texts", "stack")

    def __init__(self) -> None:
        self.tags: list[str] = []
        # a dict, or the attribute source of a well-formed tag, read on use
        self.raw_attrs: list[dict[str, str | None] | str] = []
        self.end: list[int] = []
        self.t0: list[int] = []
        self.t1: list[int] = []
        self.texts: list[str] = []
        self.stack: list[int] = []  # open elements, innermost last

    def start(self, tag: str, attrs: dict | str, self_closing: bool) -> None:
        e = len(self.tags)
        self.tags.append(tag)
        self.raw_attrs.append(attrs)
        self.t0.append(len(self.texts))
        if self_closing or tag in _VOID_TAGS:
            self.end.append(e + 1)
            self.t1.append(len(self.texts))
        else:
            self.end.append(0)
            self.t1.append(0)
            self.stack.append(e)

    def close(self, tag: str) -> None:
        stack = self.stack
        for d in range(len(stack) - 1, -1, -1):
            if self.tags[stack[d]] == tag:
                self.close_from(d)
                return

    def close_from(self, d: int) -> None:
        """Close the open elements from stack depth ``d`` up."""
        n_e, n_t = len(self.tags), len(self.texts)
        for e in self.stack[d:]:
            self.end[e] = n_e
            self.t1[e] = n_t
        del self.stack[d:]

    def attrs(self, e: int) -> dict[str, str | None]:
        a = self.raw_attrs[e]
        if a.__class__ is str:
            a = self.raw_attrs[e] = _simple_attrs(a)
        return a

    def classes(self, e: int) -> list[str]:
        c = self.attrs(e).get("class")
        return c.split() if c else []

    def find(self, e: int = -1, tag: str | None = None, cls: str | None = None,
             id: str | None = None):
        """Elements of ``e``'s subtree (of the page for -1) in document
        order, with tag ``tag``, class ``cls`` and id ``id`` where given."""
        lo, hi = (0, len(self.tags)) if e < 0 else (e + 1, self.end[e])
        tags, raw_attrs = self.tags, self.raw_attrs
        word = cls or id
        for k in range(lo, hi):
            if tag is not None and tags[k] != tag:
                continue
            if word is not None:
                a = raw_attrs[k]
                if a.__class__ is str and word not in a and "&" not in a:
                    continue  # unread source without the word: no match
                a = self.attrs(k)
                if cls is not None:
                    c = a.get("class")
                    if not c or cls not in c or cls not in c.split():
                        continue
                if id is not None and a.get("id") != id:
                    continue
            yield k

    def first(self, e: int = -1, tag: str | None = None, cls: str | None = None,
              id: str | None = None) -> int:
        """The first of :meth:`find`, or -1."""
        return next(self.find(e, tag, cls, id), -1)

    def text(self, e: int) -> str:
        return "".join(self.texts[self.t0[e]:self.t1[e]])

    def parent(self, e: int) -> int:
        """The innermost element holding ``e``, or -1."""
        return next((p for p in range(e - 1, -1, -1) if self.end[p] > e), -1)


@functools.lru_cache(maxsize=1024)
def _simple_attrs(raw: str) -> dict[str, str | None]:
    """The attributes of a well-formed tag's source (``_TOKEN``); shared
    between pages, so never modified."""
    attrs: dict[str, str | None] = {}
    for name, eq, v, v1 in _SIMPLE_ATTR.findall(raw):
        v = (v or v1) if eq else None
        attrs[name.lower()] = unescape(v) if v and "&" in v else v
    return attrs


def _scan(html: str) -> _Page:
    page = _Page()
    tags, raw_attrs, texts, stack = page.tags, page.raw_attrs, page.texts, page.stack
    t0, end, t1 = page.t0, page.end, page.t1
    n = len(html)
    i = 0
    while i < n:
        for m in _TOKEN.finditer(html, i):
            kind = m.lastindex
            if kind == _TEXT:
                text = m[1]
                texts.append(unescape(text) if "&" in text else text)
            elif kind == _END:
                tag = m[2].lower()
                if stack and tags[stack[-1]] == tag:
                    e = stack.pop()
                    end[e] = len(tags)
                    t1[e] = len(texts)
                else:
                    page.close(tag)
            elif kind == _START:  # page.start, inlined
                tag = m[3].lower()
                e = len(tags)
                tags.append(tag)
                raw_attrs.append(m[4] or _NO_ATTRS)
                t0.append(len(texts))
                if m[5] or tag in _VOID_TAGS:
                    end.append(e + 1)
                    t1.append(len(texts))
                else:
                    end.append(0)
                    t1.append(0)
                    stack.append(e)
                    if tag in _RAW_TEXT_END:
                        i = _raw_text(html, m.end(), tag, page)
                        break
            elif kind == _OTHER:
                i = _markup(html, m.start(), page)
                break
        else:
            break
    page.close_from(0)
    return page


def _raw_text(html: str, i: int, tag: str, page: _Page) -> int:
    """``script``/``style`` content from ``i``: raw text up to the end tag,
    which closes the element. Without one the rest of the page is dropped,
    as ``HTMLParser`` keeps it buffered."""
    pattern = _RAW_TEXT_END[tag]
    while True:
        m = pattern.search(html, i)
        if m is None:
            return len(html)
        j, k = m.start(), m.end()
        if i < j:
            page.texts.append(html[i:j])
        end = _END_TAG.match(html, j)
        if end is not None and end.group(1).lower() == tag:
            page.close(tag)
            return k
        page.texts.append(html[j:k])  # case-folded look-alike, e.g. "ſ"
        i = k


def _markup(html: str, i: int, page: _Page) -> int:
    """Reads the markup at ``html[i] == "<"`` by HTMLParser's general rules
    and returns the position after it."""
    nxt = html[i + 1:i + 2]
    if nxt in _ASCII_LETTERS:
        k = _start_tag(html, i, page)
    elif nxt == "/":
        k = _end_tag(html, i, page)
    elif html.startswith("<!--", i):
        m = _COMMENT_CLOSE.search(html, i + 4)
        k = m.end() if m else -1
    elif nxt == "?":
        k = html.find(">", i + 2)
        k = k + 1 if k >= 0 else -1
    elif nxt == "!":
        k = _declaration(html, i)
    else:
        page.texts.append("<")
        return i + 1
    if k >= 0:
        return k
    # incomplete at the end of the page: text up to the next ">" or "<"
    k = html.find(">", i + 1)
    if k >= 0:
        k += 1
    else:
        k = html.find("<", i + 1)
        if k < 0:
            k = i + 1
    page.texts.append(unescape(html[i:k]))
    return k


def _start_tag(html: str, i: int, page: _Page) -> int:
    j = _START_TAG_EXTENT.match(html, i).end()
    nxt = html[j:j + 1]
    if nxt == ">":
        endpos = j + 1
    elif nxt == "/" and html.startswith("/>", j):
        endpos = j + 2
    elif nxt == "" or nxt == "/" or nxt == "=" or nxt in _ASCII_LETTERS:
        return -1
    else:
        endpos = j
    name = _TAG_NAME.match(html, i + 1)
    tag = name.group(1).lower()
    k = name.end()
    attrs: dict[str, str | None] = {}
    while k < endpos:
        m = _ATTR.match(html, k)
        if m is None:
            break
        attr, rest, v = m.group(1, 2, 3)
        if not rest:
            v = None
        elif v[:1] == "'" == v[-1:] or v[:1] == '"' == v[-1:]:
            v = v[1:-1]
        attrs[attr.lower()] = unescape(v) if v else v
        k = m.end()
    end = html[k:endpos].strip()
    if end not in (">", "/>"):
        page.texts.append(html[i:endpos])
        return endpos
    closed = end == "/>"
    page.start(tag, attrs, closed)
    if not closed and tag in _RAW_TEXT_END:
        return _raw_text(html, endpos, tag, page)
    return endpos


def _end_tag(html: str, i: int, page: _Page) -> int:
    gt = html.find(">", i + 1)
    if gt < 0:
        return -1
    m = _END_TAG.match(html, i)
    if m is not None:
        page.close(m.group(1).lower())
        return gt + 1
    name = _TAG_NAME.match(html, i + 2)
    if name is None:
        # "</>" is dropped, any other "</…>" is a comment
        return i + 3 if html.startswith("</>", i) else gt + 1
    page.close(name.group(1).lower())
    return html.find(">", name.end()) + 1


def _declaration(html: str, i: int) -> int:
    """``<!…`` that is not a comment: a marked section, a doctype or a
    bogus comment, all dropped."""
    if html.startswith("<![", i):
        j = i + 3
        m = _DECL_NAME.match(html, j)
        if j == len(html) or (m is not None and m.end() == len(html)):
            return -1
        close = _MARKED_SECTION_CLOSE.get(m.group().strip().lower()) if m else None
        if close is None:
            raise ParseError(f"unknown marked section {html[i:i + 20]!r}")
        m = close.search(html, j)
        return m.end() if m else -1
    gt = html.find(">", i + 9 if html[i:i + 9].lower() == "<!doctype" else i + 2)
    return gt + 1 if gt >= 0 else -1


def parse_board_html(html: str) -> list[dict]:
    """Board index page → article rows, page DOM order preserved.

    ptt/parser_impl.go:24-71: per ``.r-ent`` div — skip if no ``.title a``
    (deleted); title trimmed; skip titles containing 公告; author from
    ``.meta .author``; push rate decoded from ``.nrec span``; URL
    absolutized with the PTT base.
    """
    page = _scan(html)
    tags, end = page.tags, page.end
    out: list[dict] = []
    for rent in page.find(cls="r-ent"):
        # One pass over the row, first matches in document order: the
        # first <a> inside a .title, the first .author inside the first
        # .meta, the first <span> inside the first .nrec.
        anchor = meta = author = nrec = span = -1
        title_end = 0  # elements before it lie inside a .title of the row
        for k in range(rent + 1, end[rent]):
            tag = tags[k]
            if tag == "a" and anchor < 0 and k < title_end:
                anchor = k
            if tag == "span" and span < 0 and nrec >= 0 and k < end[nrec]:
                span = k
            cls = page.classes(k)
            if not cls:
                continue
            if "title" in cls:
                title_end = max(title_end, end[k])
            if author < 0 and meta >= 0 and k < end[meta] and "author" in cls:
                author = k
            if meta < 0 and "meta" in cls:
                meta = k
            if nrec < 0 and "nrec" in cls:
                nrec = k
        if anchor < 0:
            continue  # deleted article
        title = page.text(anchor).strip()
        if "公告" in title:
            continue
        out.append(
            {
                "title": title,
                "url": PTT_BASE_URL + (page.attrs(anchor).get("href") or ""),
                "author": page.text(author).strip() if author >= 0 else "",
                "push_rate": decode_push_rate(page.text(span) if span >= 0 else ""),
            }
        )
    return out


def parse_article_spans(html: str) -> tuple[str, list[dict]]:
    """Article page → (title, interleaved text+media spans), per
    ptt/parser_impl.go:74-113.

    Title: the text of the element that follows the first
    ``.article-meta-tag`` whose text is 標題, or "". Spans generalize the
    reference's ordered image-URL list (input_hint schema): walking
    ``#main-content`` (the page when there is none) in document order,
    every ``<a href>`` that :func:`normalize_img_href` classifies as an image
    becomes a ``kind="media"`` span and the text between them
    ``kind="text"`` spans (other anchors count as text, whatever they
    hold); ``offset`` is the strictly increasing position. No dedup here —
    the caller applies :func:`unique_stable` (crawler.go:458-460).
    """
    page = _scan(html)
    texts = page.texts
    main = page.first(id="main-content")
    if main >= 0:
        e, e_end, t, t_end = main + 1, page.end[main], page.t0[main], page.t1[main]
    else:
        e, e_end, t, t_end = 0, len(page.tags), 0, len(texts)

    spans: list[dict] = []
    buf: list[str] = []
    while e < e_end:
        buf.extend(texts[t:page.t0[e]])
        href = page.attrs(e).get("href") if page.tags[e] == "a" else None
        if href is None:  # descend
            t, e = page.t0[e], e + 1
            continue
        norm = normalize_img_href(href)
        if norm is None:
            buf.extend(texts[page.t0[e]:page.t1[e]])
        else:
            _flush_text(buf, spans)
            spans.append({"kind": "media", "text": "", "media_ref": norm})
        t, e = page.t1[e], page.end[e]
    buf.extend(texts[t:t_end])
    _flush_text(buf, spans)
    for i, s in enumerate(spans):
        s["offset"] = i
    return _article_title(page), spans


def _flush_text(buf: list[str], spans: list[dict]) -> None:
    text = "".join(buf).strip()
    buf.clear()
    if text:
        spans.append({"kind": "text", "text": text, "media_ref": ""})


def _article_title(page: _Page) -> str:
    for e in page.find(cls="article-meta-tag"):
        if page.text(e).strip() == "標題":
            sib = page.end[e]
            parent = page.parent(e)
            if sib < len(page.tags) and (parent < 0 or page.end[parent] > sib):
                return page.text(sib).strip()
            break
    return ""


def parse_max_page(html: str) -> int:
    """Prev-page (‹ 上頁) href → index number + 1. ptt/parser_impl.go:116-139."""
    page = _scan(html)
    href = None
    for grp in page.find(cls="btn-group-paging"):
        prev = next((a for a in page.find(grp, tag="a") if "‹ 上頁" in page.text(a)), -1)
        if prev >= 0:
            href = page.attrs(prev).get("href")
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
