"""compression_ratio (zlib compressibility quality proxy) has no DuckDB
oracle — DuckDB can't zlib — so the gate is an independent plain-Python
replay over the same parquet (pandas + zlib, no Ray moving parts)."""

import zlib

import numpy as np
import pandas as pd
import pytest

from ptt_spider_go_ray.registry import queries

SF = "/root/testdata/sf0.001"


def test_compression_ratio_matches_plain_python(ray_session):
    got = queries()["compression_ratio"](SF).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)

    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    docs = docs.sort_values("doc_id").reset_index(drop=True)
    raw = [(t or "").encode("utf-8") for t in docs["text"]]
    n_raw = np.array([len(b) for b in raw], dtype=np.int64)
    n_comp = np.array([len(zlib.compress(b, 6)) for b in raw], dtype=np.int64)
    want = pd.DataFrame(
        {
            "doc_id": docs["doc_id"].to_numpy(np.int64),
            "n_raw_bytes": n_raw,
            "n_comp_bytes": n_comp,
            "compression_ratio": np.where(n_raw > 0, n_comp / np.maximum(n_raw, 1), 1.0),
        }
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=True)
    # sanity on the signal itself: real prose compresses well below 1
    assert (want["compression_ratio"][want["n_raw_bytes"] > 100] < 1.0).all()


def test_compression_ratio_empty_and_null_text(ray_session, tmp_path):
    p = tmp_path / "documents.parquet"
    pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["", None, "aaaa" * 50]}
    ).to_parquet(p)
    got = (
        queries()["compression_ratio"](str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["n_raw_bytes"].tolist() == [0, 0, 200]
    # zero-length text defines ratio = 1.0 (not NaN/crash)
    assert got["compression_ratio"].tolist()[:2] == [1.0, 1.0]
    assert got["compression_ratio"].iloc[2] < 0.2  # repetitive → tiny
