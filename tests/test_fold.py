"""``queries._fold``, the one driver-side merge of per-batch partials: sums
exact past int64, a NULL key is its own group, the output is sorted by the
keys, and an all-empty input gives a zero-row frame with every column."""

import pyarrow as pa

from ptt_spider_go_ray.queries import _fold


def _parts(*tables):
    import ray.data

    return ray.data.from_arrow(list(tables))  # one block per partial table


def test_fold_sum_past_int64_is_exact(ray_session):
    big = 2**62 + 5
    got = _fold(
        _parts(pa.table({"k": ["a", "b"], "n": [big, 1]}),
               pa.table({"k": ["a"], "n": [big]})),
        "k", ["n"],
    )
    assert got["k"].tolist() == ["a", "b"]
    assert got["n"].tolist() == [2 * big, 1]
    assert got["n"].dtype == object and type(got["n"][0]) is int
    assert got["n"][0] > 2**63 - 1


def test_fold_null_key_is_its_own_group(ray_session):
    got = _fold(
        _parts(pa.table({"k": ["x", None], "n": [1, 2]}),
               pa.table({"k": [None, "x"], "n": [4, 3]})),
        "k", ["n"],
    )
    assert len(got) == 2
    assert got["k"].isna().tolist() == [False, True]
    assert got["n"].tolist() == [4, 6]


def test_fold_multi_key_output_sorted_by_keys(ray_session):
    got = _fold(
        _parts(pa.table({"a": ["z", "a"], "b": [2, 3], "n": [1, 1], "m": [5, 6]}),
               pa.table({"a": ["a", "z"], "b": [1, 2], "n": [1, 1], "m": [7, 8]})),
        ["a", "b"], ["n", "m"],
    )
    assert list(got.columns) == ["a", "b", "n", "m"]
    assert list(zip(got["a"], got["b"])) == [("a", 1), ("a", 3), ("z", 2)]
    assert got["n"].tolist() == [1, 1, 2]
    assert got["m"].tolist() == [7, 6, 13]
    assert all(type(v) is int for v in got["m"])  # int64 fast path, Python ints out


def test_fold_all_empty_partials_give_zero_rows(ray_session):
    empty = _parts(
        pa.table({"k": ["a"], "j": [1], "n": [1]}),
        pa.table({"k": ["b"], "j": [2], "n": [2]}),
    ).map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    got = _fold(empty, ["k", "j"], ["n"])
    assert len(got) == 0
    assert list(got.columns) == ["k", "j", "n"]


def test_fold_without_keys_is_one_row(ray_session):
    parts = _parts(pa.table({"n": [2**62], "m": [1]}), pa.table({"n": [2**62], "m": [-4]}))
    got = _fold(parts, [], ["n", "m"])
    assert list(got.columns) == ["n", "m"]
    assert got["n"].tolist() == [2**63] and got["m"].tolist() == [-3]
    empty = parts.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    got = _fold(empty, [], ["n", "m"])  # a zero-row pull still folds to one row
    assert got.to_dict("list") == {"n": [0], "m": [0]}
