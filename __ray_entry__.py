"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship interleaved-span pipeline on sf0.001;
``queries()`` exposes every implemented operator/pipeline from SURVEY.md §2
(plus the training-data extensions); ``oracle_sql()`` gives the DuckDB
equivalent where the op is SQL-expressible. Ray is initialised by the driver
before import — nothing here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: documents → interleaved
    spans → normalize (per-doc media dedup) → span stats → markdown render."""
    from ptt_spider_go_ray.pipelines.flagship import flagship

    ds = flagship("/root/testdata/sf0.001")
    # spans is a list<struct> column; project to a stable flat schema for the
    # driver's smoke check while keeping the full pipeline exercised.
    return ds.select_columns(
        ["doc_id", "n_spans", "n_media", "n_text", "n_text_chars", "markdown"]
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from ptt_spider_go_ray.registry import queries

    return queries()


def oracle_sql() -> dict[str, str]:
    from ptt_spider_go_ray.registry import oracle_sql

    return oracle_sql()
