"""The DuckDB side of the oracle checks: bind a scale dir's parquet tables
as views, run an oracle's SQL, and bring either engine's result into one
canonical, order-insensitive frame."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def duck_result(sql: str, sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con.sql(sql).df()


def to_pandas(result) -> pd.DataFrame:
    """A query result — pandas, Arrow table or Ray Dataset — as pandas."""
    if isinstance(result, pd.DataFrame):
        return result
    return result.to_pandas()


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Columns sorted by name, rows by every scalar column. Nested columns
    (list<struct> spans from the crawl queries) are not orderable, so they
    do not take part in the row order (doc_id etc. are unique keys in those
    frames, so the order stays deterministic)."""
    df = df.reindex(sorted(df.columns), axis=1)
    keys = [
        c for c in df.columns
        if not df[c].map(lambda v: isinstance(v, (np.ndarray, list, dict))).any()
    ]
    if keys:
        df = df.sort_values(by=keys, kind="mergesort")
    return df.reset_index(drop=True)
