"""Pure-parser unit tests mirroring the reference's test strategy
(ptt/ptt_test.go, ptt/parser_impl_test.go, crawler/crawler_test.go,
internal/fileutil/filename_test.go). No Ray needed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    title, imgs = P.parse_article_html(ARTICLE_CONTENT)
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
    _, imgs = P.parse_article_html(ARTICLE_WITH_DUP_IMAGES)
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


# --- one DOM build per article, same title and images -----------------------

def _synthetic_articles(seeds=(1, 7, 42, 99), pages=10) -> list[str]:
    out = []
    for seed in seeds:
        site = SyntheticSite(SiteSpec(boards={"B": pages}, seed=seed))
        for page in range(1, pages + 1):
            for slot in range(site.spec.articles_per_page):
                status, body = site.html_for(site.article_url("B", page, slot))
                assert status == 200
                out.append(body.decode())
    return out


ARTICLE_PAGES = [ARTICLE_CONTENT, ARTICLE_WITH_DUP_IMAGES] + _synthetic_articles()


def test_article_spans_match_article_html_with_one_dom_build(monkeypatch):
    """``parse_article_spans`` builds the DOM once and gives the title and
    media refs ``parse_article_html`` gives, on every fixture article and
    240 synthetic ones."""
    assert len(ARTICLE_PAGES) >= 200
    builds = []
    parse_dom = P.parse_dom

    def counted(html):
        builds.append(html)
        return parse_dom(html)

    for html in ARTICLE_PAGES:
        want_title, want_imgs = P.parse_article_html(html)
        monkeypatch.setattr(P, "parse_dom", counted)
        builds.clear()
        title, spans = P.parse_article_spans(html)
        assert len(builds) == 1
        monkeypatch.setattr(P, "parse_dom", parse_dom)
        assert title == want_title
        assert [s["media_ref"] for s in spans if s["kind"] == "media"] == want_imgs
    assert any(P.parse_article_html(h)[1] for h in ARTICLE_PAGES)


# --- DOM walks: document order in linear time --------------------------------

def _ref_find_all(node, pred) -> list:
    """Recursive pre-order reference for ``_Node.find_all``."""
    out = []
    for c in node.children:
        if isinstance(c, P._Node):
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
    lambda kids: st.builds(lambda tag, ch: P._Node(tag, {}, None, ch),
                           st.sampled_from(_TAGS), st.lists(kids, max_size=5)),
    max_leaves=60,
)
_roots = st.builds(lambda ch: P._Node("", {}, None, ch), st.lists(_subtrees, max_size=6))


@settings(deadline=None, max_examples=300)
@given(_roots, st.sampled_from(_TAGS))
def test_dom_walks_match_recursive_preorder(root, tag):
    pred = lambda n: n.tag == tag  # noqa: E731
    assert [id(n) for n in root.find_all(pred)] == [id(n) for n in _ref_find_all(root, pred)]
    assert [id(n) for n in root.find_all(lambda n: True)] == \
        [id(n) for n in _ref_find_all(root, lambda n: True)]
    assert root.text() == _ref_text(root)


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
