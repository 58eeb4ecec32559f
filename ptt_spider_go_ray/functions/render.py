"""Markdown rendering (S5) — pure per-row function of the document row.

Reference parity: /root/reference/markdown/generator_impl.go:26-63. The
reference writes one ``README.md`` per article directory; here rendering is a
vectorizable batch stage producing a ``markdown:string`` column, and the sink
writes partitioned Parquet/Lance (SURVEY §2.1 S5 mapping). Filename
derivation (including collision suffixes) shares :func:`image_file_names`
with the media layout path so links never dangle — same invariant as the
reference's shared ``fileutil`` logic.
"""

from __future__ import annotations

from .parse import image_file_names


def render_markdown(title: str, article_url: str, push_count: int,
                    image_urls: list[str]) -> str:
    """Byte-identical structure to generator_impl.go:38-56."""
    parts = [
        f"# {title}\n\n",
        f"- **文章網址**: [{article_url}]({article_url})\n",
        f"- **推文數量**: {push_count}\n\n",
        "## 圖片列表\n\n",
    ]
    for name in image_file_names(image_urls):
        parts.append(f"![{name}](./{name})\n")
    return "".join(parts)

