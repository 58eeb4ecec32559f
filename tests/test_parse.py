"""Pure-parser unit tests mirroring the reference's test strategy
(ptt/ptt_test.go, ptt/parser_impl_test.go, crawler/crawler_test.go,
internal/fileutil/filename_test.go), and the page scanner held equal to the
DOM parser in ``dom_oracle``. No Ray needed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dom_oracle as D
import fixtures_html
from ptt_spider_go_ray.functions import parse as P
from ptt_spider_go_ray.sources.synthetic import SiteSpec, SyntheticSite

from fixtures_html import (
    ARTICLE_CONTENT,
    ARTICLE_CONTENT_IMAGES,
    ARTICLE_CONTENT_TITLE,
    ARTICLE_WITH_DUP_IMAGES,
    BAD_PAGE_HTML,
    BOARD_LIST,
    BOARD_LIST_EXPECTED,
    NO_PAGING_HTML,
)


# --- push-rate decode (ptt/parser_impl.go:48-60) ---------------------------

@pytest.mark.parametrize(
    "s,want",
    [
        ("爆", 100),
        ("99", 99),
        ("X5", -5),
        ("XX", 0),
        ("X", 0),
        ("", 0),
        ("12a", 0),
        ("-3", -3),
        ("X12", -12),
    ],
)
def test_decode_push_rate(s, want):
    assert P.decode_push_rate(s) == want


# --- board list parse (P1) --------------------------------------------------

def test_parse_board_html():
    rows = P.parse_board_html(BOARD_LIST)
    assert rows == BOARD_LIST_EXPECTED  # order, skips, absolutization, decode


# --- article content parse (P3/P4) -----------------------------------------

def test_parse_article_html():
    title, imgs = D.parse_article_html(ARTICLE_CONTENT)
    assert title == ARTICLE_CONTENT_TITLE
    assert imgs == ARTICLE_CONTENT_IMAGES  # document order, all 4 rules


@pytest.mark.parametrize(
    "href,want",
    [
        ("https://i.imgur.com/a.jpg", "https://i.imgur.com/a.jpg"),
        ("//i.imgur.com/b.png", "https://i.imgur.com/b.png"),
        ("http://example.com/c.gif", "https://example.com/c.gif"),
        ("https://imgur.com/abcd123", "https://imgur.com/abcd123.jpg"),
        ("https://i.imgur.com/gallery/test", "https://i.imgur.com/gallery/test.jpg"),
        ("https://imgur.com/a/album123", None),
        ("https://example.com/x.pdf", None),
        ("https://example.com/a.jpg?width=100", None),  # suffix test fails
        ("https://example.com/a.JPG", None),            # case-sensitive
    ],
)
def test_normalize_img_href(href, want):
    assert P.normalize_img_href(href) == want


def test_article_dedup_is_callers_job():
    _, imgs = D.parse_article_html(ARTICLE_WITH_DUP_IMAGES)
    assert imgs == [
        "https://i.imgur.com/x.jpg",
        "https://i.imgur.com/y.png",
        "https://i.imgur.com/x.jpg",
    ]
    assert P.unique_stable(imgs) == [
        "https://i.imgur.com/x.jpg",
        "https://i.imgur.com/y.png",
    ]


# --- interleaved spans (input_hint generalization) --------------------------

def test_parse_article_spans_interleaving():
    title, spans = P.parse_article_spans(ARTICLE_CONTENT)
    assert title == ARTICLE_CONTENT_TITLE
    # media_ref subsequence == reference's ordered image list
    media = [s["media_ref"] for s in spans if s["kind"] == "media"]
    assert media == ARTICLE_CONTENT_IMAGES
    # offsets strictly increasing from 0
    assert [s["offset"] for s in spans] == list(range(len(spans)))
    # text/media interleave: first span is text (intro), ends with text
    assert spans[0]["kind"] == "text"
    assert spans[-1]["kind"] == "text"
    assert "結尾文字" in spans[-1]["text"]
    for s in spans:
        if s["kind"] == "text":
            assert s["media_ref"] == "" and s["text"] != ""
        else:
            assert s["text"] == "" and s["media_ref"] != ""


# --- DOM walks (the oracle's tree): document order in linear time -----------

def _ref_find_all(node, pred) -> list:
    """Recursive pre-order reference for ``_Node.find_all``."""
    out = []
    for c in node.children:
        if isinstance(c, D._Node):
            if pred(c):
                out.append(c)
            out.extend(_ref_find_all(c, pred))
    return out


def _ref_text(node) -> str:
    """Recursive pre-order reference for ``_Node.text``."""
    return "".join(c if isinstance(c, str) else _ref_text(c) for c in node.children)


_TAGS = ("a", "div", "span")
_subtrees = st.recursive(
    st.text(max_size=3),
    lambda kids: st.builds(lambda tag, ch: D._Node(tag, {}, None, ch),
                           st.sampled_from(_TAGS), st.lists(kids, max_size=5)),
    max_leaves=60,
)
_roots = st.builds(lambda ch: D._Node("", {}, None, ch), st.lists(_subtrees, max_size=6))


@settings(deadline=None, max_examples=300)
@given(_roots, st.sampled_from(_TAGS))
def test_dom_walks_match_recursive_preorder(root, tag):
    pred = lambda n: n.tag == tag  # noqa: E731
    assert [id(n) for n in root.find_all(pred)] == [id(n) for n in _ref_find_all(root, pred)]
    assert [id(n) for n in root.find_all(lambda n: True)] == \
        [id(n) for n in _ref_find_all(root, lambda n: True)]
    assert root.text() == _ref_text(root)


# --- the scanner equals the DOM parser ----------------------------------------

_PARSERS = ("parse_board_html", "parse_article_spans", "parse_max_page")


def _outcome(parse, html):
    """What ``parse`` makes of ``html``: ("ok", value) or ("error", None).
    The DOM raises AssertionError on a malformed marked section where the
    scanner raises ParseError, so an error counts without its type."""
    try:
        return "ok", parse(html)
    except (AssertionError, ValueError):
        return "error", None


def _assert_scanner_matches_dom(html: str) -> None:
    for name in _PARSERS:
        assert _outcome(getattr(P, name), html) == _outcome(getattr(D, name), html), name


def _synthetic_pages(seeds=range(1, 31), pages=10) -> tuple[list[str], list[str]]:
    """(index pages, article pages) of a one-board ``SyntheticSite`` per seed."""
    index, articles = [], []
    for seed in seeds:
        site = SyntheticSite(SiteSpec(boards={"B": pages}, seed=seed))
        for page in range(1, pages + 1):
            index.append(site.html_for(site.index_url("B", page))[1].decode())
            for slot in range(site.spec.articles_per_page):
                status, body = site.html_for(site.article_url("B", page, slot))
                assert status == 200
                articles.append(body.decode())
    return index, articles


FIXTURE_PAGES = [v for k, v in vars(fixtures_html).items()
                 if k.isupper() and isinstance(v, str)]
SYNTHETIC_INDEX, SYNTHETIC_ARTICLES = _synthetic_pages()
ARTICLE_PAGES = [ARTICLE_CONTENT, ARTICLE_WITH_DUP_IMAGES] + SYNTHETIC_ARTICLES


def test_scanner_matches_dom_on_fixture_and_synthetic_pages():
    """Every fixture page and every page of the synthetic site for seeds
    1-30 parses the same with the scanner and the DOM parser; on the
    article pages the media spans are the page's image links in order."""
    assert len(FIXTURE_PAGES) >= 5 and len(SYNTHETIC_INDEX) == 300
    assert len(SYNTHETIC_ARTICLES) == 1800
    for html in FIXTURE_PAGES + SYNTHETIC_INDEX + SYNTHETIC_ARTICLES:
        _assert_scanner_matches_dom(html)
    for html in ARTICLE_PAGES:
        title, spans = P.parse_article_spans(html)
        assert (title, [s["media_ref"] for s in spans if s["kind"] == "media"]) == \
            D.parse_article_html(html)
    assert all(P.parse_board_html(h) for h in SYNTHETIC_INDEX[:10])
    assert any(D.parse_article_html(h)[1] for h in ARTICLE_PAGES)


# Generated PTT markup: the index rows, paging buttons and article parts the
# parsers read, each perturbed the way real or broken pages are.
_CLASS_NOISE = st.lists(st.sampled_from(["x", "hl", "f1", "btn", "r-ent-x"]), max_size=2)
_TEXT = st.lists(st.sampled_from([
    "", " ", "\n  ", "文章", "[正妹] 標題", "公告", "標題", "爆", "X5", "X", "12", "-3",
    "&amp;", "&lt;b&gt;", "&#20844;&#21578;", "&nbsp;", "&lsaquo; 上頁", "‹ 上頁",
    "a & b", "&notin", "&#x41", "&bogus;", "'", '"', "=", "/", ">",
]), max_size=4).map("".join)
_HREF = st.sampled_from([
    "/bbs/B/M.1700000001.A.AAA.html", "/bbs/B/index41.html", "/bbs/B/index.html",
    "/bbs/B/indexx.html", "https://i.imgur.com/a.jpg", "//cdn.example.com/b.png",
    "http://pics.example.com/c.gif", "https://imgur.com/abc", "https://imgur.com/a/alb",
    "https://example.com/d.pdf", "https://example.com/e.jpg?w=1", "x&amp;y.jpeg",
    "/bbs/B/index&#51;.html", "",
])
_NOISE = st.sampled_from([
    "<!-- comment <div class=\"r-ent\"> -->", "<!---->", "<!DOCTYPE html>", "<?xml v?>",
    "<![CDATA[<a href='z.jpg'>]]>", "<!bogus>", "<script>var s = '<div class=\"title\">';</script>",
    "<style>a > b {}</style>", "<SCRIPT type='t'>x</SCRIPT >", "<br>", "<br/>", "<img src='a.jpg'>",
    "<span/>", "<div/>", "<a/>", "</div>", "</span>", "</a>", "</p>", "</ div>", "</div x>",
    "</>", "</3>", "<p>", "< b", "<3", "a<b", "<a href>", "<a href=''>", "<a name=x>",
    "<input disabled>", "<x:y a:b='c'>", "&", "\r\n", "<div\u3000class='title'>",
])


@st.composite
def _start(draw, tag, classes=(), attrs=()):
    """A start tag: random name case, extra classes, any attribute order,
    quoting and spacing, entity-encoded values, sometimes self-closing."""
    items = list(attrs)
    if classes:
        cls = list(classes) + draw(_CLASS_NOISE)
        items.append(("class", " ".join(draw(st.permutations(cls)))))
    items += draw(st.lists(st.sampled_from([("title", "t"), ("data-x", "1"), ("id", "x"),
                                            ("class", "other"), ("disabled", None)]),
                           max_size=2))
    items = draw(st.permutations(items))
    out = draw(st.sampled_from([tag, tag.upper(), tag.capitalize()]))
    for name, value in items:
        out += draw(st.sampled_from([" ", "  ", "\n", "\t"]))
        out += draw(st.sampled_from([name, name.upper()]))
        if value is None:
            continue
        if draw(st.booleans()):
            value = value.replace("-", "&#45;").replace("/", "&#x2F;")
        quote = draw(st.sampled_from(['"', "'", ""]))
        if not quote and (not value or any(c in value for c in " \"'=<>`")):
            quote = '"'
        out += draw(st.sampled_from(["=", " = ", "=\n"])) + quote + value + quote
    return "<" + out + draw(st.sampled_from([">", ">", " >", "/>"]))


def _end(draw, tag):
    """An end tag, sometimes missing, uppercase or spaced."""
    return draw(st.sampled_from([f"</{tag}>", f"</{tag}>", f"</{tag.upper()}>",
                                 f"</{tag} >", ""]))


@st.composite
def _anchor(draw):
    return (draw(_start("a", attrs=[("href", draw(_HREF))])) + draw(_TEXT)
            + _end(draw, "a"))


@st.composite
def _row(draw, depth=0):
    """One ``.r-ent`` index row; parts may be missing, and a row may nest."""
    out = draw(_start("div", ["r-ent"]))
    if draw(st.booleans()):
        out += draw(_start("div", ["nrec"]))
        if draw(st.booleans()):
            out += draw(_start("span", ["hl"])) + draw(_TEXT) + _end(draw, "span")
        out += _end(draw, "div")
    if draw(st.integers(0, 4)):
        out += draw(_start("div", ["title"]))
        out += draw(_anchor()) if draw(st.booleans()) else draw(_TEXT)
        out += _end(draw, "div")
    if draw(st.booleans()):
        out += draw(_start("div", ["meta"])) + draw(_start("div", ["author"]))
        out += draw(_TEXT) + _end(draw, "div") + _end(draw, "div")
    if depth < 1 and not draw(st.integers(0, 5)):
        out += draw(_row(depth + 1))
    return out + draw(st.one_of(_NOISE, st.just(""))) + _end(draw, "div")


@st.composite
def _paging(draw):
    out = draw(_start("div", ["btn-group", "btn-group-paging"]))
    out += "".join(draw(st.lists(_anchor(), max_size=3)))
    return out + _end(draw, "div")


@st.composite
def _metaline(draw):
    out = draw(_start("div", ["article-metaline"]))
    out += draw(_start("span", ["article-meta-tag"]))
    out += draw(st.sampled_from(["標題", " 標題 ", "作者", "標&#38988;"])) + _end(draw, "span")
    if draw(st.booleans()):
        out += draw(_start("span", ["article-meta-value"])) + draw(_TEXT) + _end(draw, "span")
    return out + _end(draw, "div")


@st.composite
def _article(draw):
    parts = draw(st.lists(st.one_of(_metaline(), _anchor(), _TEXT, _NOISE), max_size=8))
    return (draw(_start("div", attrs=[("id", "main-content")])) + "".join(parts)
            + _end(draw, "div"))


@st.composite
def _page(draw):
    parts = draw(st.lists(st.one_of(_row(), _paging(), _article(), _anchor(), _TEXT, _NOISE),
                          max_size=8))
    html = draw(st.sampled_from(["", "<!DOCTYPE html>\n"])) + "<html><body>"
    html += "".join(parts) + draw(st.sampled_from(["</body></html>", ""]))
    if draw(st.booleans()):
        html = html[:draw(st.integers(0, len(html)))]
    return html


@settings(deadline=None, max_examples=1000)
@given(_page())
def test_scanner_matches_dom_on_generated_pages(html):
    """Generated index, article and paging markup, perturbed (extra
    classes, any attribute quoting, entities, CJK, comments, scripts, void
    and self-closing tags, stray or missing end tags, nested rows, missing
    parts, uppercase tags) and cut at any offset, parses the same with the
    scanner and the DOM parser."""
    _assert_scanner_matches_dom(html)


# --- max page (S3) ----------------------------------------------------------

def test_parse_max_page():
    assert P.parse_max_page(BOARD_LIST) == 42  # prev href index41 → 41+1


def test_parse_max_page_errors():
    with pytest.raises(P.ParseError):
        P.parse_max_page(NO_PAGING_HTML)
    with pytest.raises(P.ParseError):
        P.parse_max_page(BAD_PAGE_HTML)


def test_board_page_urls_clamp():
    # crawler_test.go:453-488: pages > max_page never requests index0.html
    urls = P.board_page_urls("B", 3, 5)
    assert urls == [
        "https://www.ptt.cc/bbs/B/index3.html",
        "https://www.ptt.cc/bbs/B/index2.html",
        "https://www.ptt.cc/bbs/B/index1.html",
    ]


# --- filenames / dirs (P5, P7, D3, D4) -------------------------------------

def test_image_file_name():
    assert P.image_file_name("https://i.imgur.com/abc.jpg") == "abc.jpg"
    assert P.image_file_name("https://e.com/p/a.png?width=100#frag") == "a.png"
    assert P.image_file_name("https://imgur.com/gallery/test.jpg") == "test.jpg"
    assert P.image_file_name("https://imgur.com/abcd123") == "abcd123.jpg"


def test_image_file_names_collisions():
    urls = [
        "https://h1.example.com/a.jpg",
        "https://h2.example.com/a.jpg",
        "https://h3.example.com/a.jpg",
    ]
    assert P.image_file_names(urls) == ["a.jpg", "a_2.jpg", "a_3.jpg"]


def test_image_file_names_suffix_skip():
    urls = [
        "https://h.example.com/a.jpg",
        "https://h.example.com/x/a_2.jpg",  # literal a_2.jpg taken first? no: order
        "https://h2.example.com/a.jpg",
    ]
    # a.jpg, then literal a_2.jpg, then collision for a.jpg must skip to a_3.jpg
    assert P.image_file_names(urls) == ["a.jpg", "a_2.jpg", "a_3.jpg"]


def test_clean_file_name():
    assert P.clean_file_name(r'a\b/c:d*e?f"g<h>i|j') == "abcdefghij"
    assert P.clean_file_name("[正妹] 測試 標題") == "[正妹] 測試 標題"


def test_unique_dir_names():
    rows = [
        ("T_10", "https://p/1"),
        ("T_10", "https://p/2"),
        ("T_10", "https://p/1"),  # same article re-processed → same dir
        ("T_10", "https://p/3"),
    ]
    assert P.unique_dir_names(rows) == ["T_10", "T_10_2", "T_10", "T_10_3"]


def test_validate_board():
    P.validate_board("Beauty")
    P.validate_board("", file_url="urls.txt")
    with pytest.raises(ValueError):
        P.validate_board("")
    with pytest.raises(ValueError):
        P.validate_board("../etc")


# --- misc scalar fns --------------------------------------------------------

def test_is_seed_line():
    assert P.is_seed_line("  https://www.ptt.cc/bbs/Beauty/M.1.A.html  ")
    assert not P.is_seed_line("# https://www.ptt.cc/bbs/Beauty/M.1.A.html")
    assert not P.is_seed_line("https://other.host/bbs/Beauty/x.html")
    assert not P.is_seed_line("")


def test_determine_final_title():
    assert P.determine_final_title("list", "parsed", file_mode=True) == "parsed"
    assert P.determine_final_title("list", "parsed", file_mode=False) == "list"
    assert P.determine_final_title("", "parsed", file_mode=False) == "parsed"
    assert P.determine_final_title("list", "", file_mode=True) == "list"


def test_canonicalize_url():
    f = P.canonicalize_url
    assert f("HTTP://Example.COM/A/") == "https://example.com/A"
    assert f("//x.com/p") == "https://x.com/p"
    assert f("https://x.com/p?q=1#frag") == "https://x.com/p?q=1"
    assert f("https://x.com") == "https://x.com/"
