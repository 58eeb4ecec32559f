"""``queries._fold``, the one driver-side merge of per-batch partials: sums
exact past int64, a NULL key is its own group, the output is sorted by the
keys, and an all-empty input gives a zero-row frame with every column.
``queries._partial``, the one per-batch combiner partial, agrees with a
dict reference (no Ray)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from ptt_spider_go_ray.queries import _fold, _partial


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
    assert got["k"].tolist() == ["x", None]  # SQL NULL, not NaN
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


def _ref(rows: list[tuple], n_keys: int) -> dict:
    """Group-by-sum over ``(key..., value...)`` tuples: NULL (None) is a
    key like any other and a NULL value adds 0."""
    out: dict = {}
    for r in rows:
        acc = out.setdefault(r[:n_keys], [0] * (len(r) - n_keys))
        for i, v in enumerate(r[n_keys:]):
            acc[i] += v or 0
    return out


_KEY = {"s": st.one_of(st.none(), st.sampled_from(["a", "b", "ä", ""])),
        "i": st.one_of(st.none(), st.integers(-3, 3))}
_VAL = st.one_of(st.none(), st.integers(-2**40, 2**40))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(st.sampled_from("si"), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(0, 40))
def test_partial_matches_dict(data, kinds, n_sums, n_rows):
    keys = [f"k{j}" for j in range(len(kinds))]
    sums = [f"v{j}" for j in range(n_sums)]
    rows = [tuple(data.draw(_KEY[k]) for k in kinds)
            + tuple(data.draw(_VAL) for _ in sums) for _ in range(n_rows)]
    types = [pa.string() if k == "s" else pa.int64() for k in kinds] + [pa.int64()] * n_sums
    cols = {c: pa.array([r[j] for r in rows], t)
            for j, (c, t) in enumerate(zip(keys + sums, types))}
    for src in (cols, pa.table(cols)):  # a mapping or an Arrow table
        got = _partial(src, keys[0] if len(keys) == 1 else keys, sums)
        assert got.column_names == keys + sums  # each sum keeps its input name
        assert got.schema.types == types  # typed, also for an empty batch
        table = {tuple(r[:len(keys)]): list(r[len(keys):]) for r in
                 zip(*(got[c].to_pylist() for c in keys + sums))}
        assert len(table) == got.num_rows  # one row per distinct key
        assert table == _ref(rows, len(keys))


def test_partial_null_values_sum_to_zero_and_null_key_is_a_group():
    got = _partial({"k": pa.array(["x", None, "x", None]),
                    "n": pa.array([None, None, None, 4], pa.int64())}, "k", ["n"])
    assert dict(zip(got["k"].to_pylist(), got["n"].to_pylist())) == {"x": 0, None: 4}


def test_partial_multi_key_nulls_one_row_per_group():
    # pyarrow 16's multi-key group_by returns ("a", NULL) twice for this
    # batch (the split shows from 33 rows on)
    got = _partial({"k": pa.array([None if i % 3 == 0 else "a" for i in range(40)]),
                    "j": pa.array([None] * 40, pa.int64()),
                    "n": np.ones(40, np.int64)}, ["k", "j"], ["n"])
    assert sorted(zip(got["k"].to_pylist(), got["n"].to_pylist()), key=str) == [("a", 26), (None, 14)]


def test_partial_empty_batch_is_typed():
    got = _partial({"k": pa.array([], pa.string()), "j": np.array([], np.int64),
                    "n": np.array([], np.int64)}, ["k", "j"], ["n"])
    assert got.num_rows == 0
    assert got.schema == pa.schema([("k", pa.string()), ("j", pa.int64()), ("n", pa.int64())])
