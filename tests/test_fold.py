"""``queries._fold``, the one driver-side merge of per-batch partials: sums
exact past int64, mins and maxes that skip NULL, a NULL key is its own
group, the output is sorted by the keys, and an all-empty input gives a
zero-row frame with every column. ``queries._partial``, the one per-batch
combiner partial, agrees with a dict reference for sums, mins and maxes
(no Ray), and so do both kernels chained."""

import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import assume, given, settings
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
    got = _fold(empty, [], ["n"], mins=["m"], maxs=["lo"])  # with NULL extremes
    assert got.to_dict("list") == {"n": [0], "m": [None], "lo": [None]}


def test_fold_mins_maxs_skip_null(ray_session):
    t0 = datetime.datetime(2024, 1, 1)
    got = _fold(
        _parts(pa.table({"k": ["x", None, "y"], "n": [1, 2, 3], "lo": [5, 7, None],
                         "hi": [1.5, None, None],
                         "ts": pa.array([t0, None, None], pa.timestamp("us"))}),
               pa.table({"k": [None, "x", "y"], "n": [4, 5, 6], "lo": [3, None, None],
                         "hi": [2.5, 0.5, None],
                         "ts": pa.array([t0, t0 + datetime.timedelta(days=1), None],
                                        pa.timestamp("us"))})),
        "k", ["n"], mins=["lo"], maxs=["hi", "ts"],
    )
    assert list(got.columns) == ["k", "n", "lo", "hi", "ts"]
    assert got["k"].tolist() == ["x", "y", None]
    assert got["n"].tolist() == [6, 9, 6]
    assert got["lo"].tolist()[0] == 5 and pd.isna(got["lo"][1]) and got["lo"][2] == 3
    assert got["hi"].tolist()[0] == 1.5 and pd.isna(got["hi"][1]) and got["hi"][2] == 2.5
    assert got["ts"][0] == t0 + datetime.timedelta(days=1) and pd.isna(got["ts"][1])
    assert got["ts"][2] == t0


def _ref(rows: list[tuple], n_keys: int, ops: list[str]) -> dict:
    """Group-by over ``(key..., value...)`` tuples, one op per value: NULL
    (None) is a key like any other; a sum skips NULL (an all-NULL group
    sums to 0), a min or max skips NULL (an all-NULL group gives None)."""
    vals: dict = {}
    for r in rows:
        acc = vals.setdefault(r[:n_keys], [[] for _ in ops])
        for a, v in zip(acc, r[n_keys:]):
            if v is not None:
                a.append(v)
    red = {"sum": sum, "min": lambda a: min(a, default=None),
           "max": lambda a: max(a, default=None)}
    return {k: [red[op](a) for op, a in zip(ops, acc)] for k, acc in vals.items()}


_KEY = {"s": st.one_of(st.none(), st.sampled_from(["a", "b", "ä", ""])),
        "i": st.one_of(st.none(), st.integers(-3, 3))}
_T0 = datetime.datetime(1970, 1, 1)
_VAL = {  # value kind → (Arrow type, values with NULL)
    "i": (pa.int64(), st.one_of(st.none(), st.integers(-2**40, 2**40))),
    "f": (pa.float64(), st.one_of(st.none(), st.floats(-1e6, 1e6, width=64))),
    "t": (pa.timestamp("us"), st.one_of(st.none(), st.datetimes(_T0, datetime.datetime(2100, 1, 1)))),
}


def _case(data, kinds, n_sums, ext_kinds, n_rows):
    """A random batch: key columns of ``kinds``, ``n_sums`` int64 sums and
    one min or max column per ``ext_kinds`` entry (int64, float64 or
    timestamp), with the reference ops and the rows."""
    keys = [f"k{j}" for j in range(len(kinds))]
    sums = [f"s{j}" for j in range(n_sums)]
    ops = ["sum"] * n_sums + [op for op, _v in ext_kinds]
    ext = [f"{op}{j}" for j, (op, _v) in enumerate(ext_kinds)]
    vk = ["i"] * n_sums + [v for _op, v in ext_kinds]
    rows = [tuple(data.draw(_KEY[k]) for k in kinds)
            + tuple(data.draw(_VAL[v][1]) for v in vk) for _ in range(n_rows)]
    types = [pa.string() if k == "s" else pa.int64() for k in kinds] + [_VAL[v][0] for v in vk]
    cols = {c: pa.array([r[j] for r in rows], t)
            for j, (c, t) in enumerate(zip(keys + sums + ext, types))}
    mins = [c for c, op in zip(ext, ops[n_sums:]) if op == "min"]
    maxs = [c for c, op in zip(ext, ops[n_sums:]) if op == "max"]
    order = keys + sums + mins + maxs  # the kernels' output order
    ref = {k: dict(zip(sums + ext, v)) for k, v in _ref(rows, len(keys), ops).items()}
    return keys, sums, mins, maxs, order, cols, types, ref


_EXT = st.lists(st.tuples(st.sampled_from(["min", "max"]), st.sampled_from("ift")), max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(st.sampled_from("si"), min_size=1, max_size=3),
       st.integers(0, 2), _EXT, st.integers(0, 40))
def test_partial_matches_dict(data, kinds, n_sums, ext_kinds, n_rows):
    keys, sums, mins, maxs, order, cols, types, ref = _case(data, kinds, n_sums, ext_kinds, n_rows)
    for src in (cols, pa.table(cols)):  # a mapping or an Arrow table
        got = _partial(src, keys[0] if len(keys) == 1 else keys, sums, mins=mins, maxs=maxs)
        assert got.column_names == order  # each value keeps its input name
        assert got.schema.types == [cols[c].type for c in order]  # typed, also when empty
        table = {tuple(r[:len(keys)]): dict(zip(order[len(keys):], r[len(keys):])) for r in
                 zip(*(got[c].to_pylist() for c in order))}
        assert len(table) == got.num_rows  # one row per distinct key
        assert table == ref


def _py(v):
    """A pandas cell as the reference holds it: NaN/NaT → None, numpy
    scalars and Timestamps → Python values."""
    if v is None or v is pd.NaT or isinstance(v, float) and np.isnan(v):
        return None
    return v.to_pydatetime() if isinstance(v, pd.Timestamp) else getattr(v, "item", lambda: v)()


@settings(max_examples=30, deadline=None)
@given(st.data(), st.lists(st.sampled_from("si"), min_size=1, max_size=2),
       st.integers(0, 2), _EXT, st.integers(0, 30), st.integers(1, 3))
def test_partial_then_fold_matches_dict(ray_session, data, kinds, n_sums, ext_kinds, n_rows,
                                        n_batches):
    assume(n_sums or ext_kinds)  # a fold merges at least one value column
    keys, sums, mins, maxs, order, cols, _types, ref = _case(
        data, kinds, n_sums, ext_kinds, n_rows)
    t = pa.table(cols)
    cut = sorted(data.draw(st.lists(st.integers(0, n_rows), min_size=n_batches - 1,
                                    max_size=n_batches - 1)))
    batches = [t.slice(a, b - a) for a, b in zip([0, *cut], [*cut, n_rows])]  # some empty
    got = _fold(_parts(*(_partial(b, keys, sums, mins=mins, maxs=maxs) for b in batches)),
                keys, sums, mins=mins, maxs=maxs)
    assert list(got.columns) == order
    assert [tuple(_py(v) for v in k) for k in got[keys].itertuples(index=False)] == sorted(
        ref, key=lambda k: tuple((v is None, v) for v in k))  # sorted, NULL last
    assert {tuple(_py(v) for v in r[:len(keys)]): {c: _py(v) for c, v in
                                                   zip(order[len(keys):], r[len(keys):])}
            for r in got.itertuples(index=False)} == ref


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
                    "n": np.array([], np.int64), "lo": np.array([], np.float64),
                    "hi": pa.array([], pa.timestamp("us"))}, ["k", "j"], ["n"],
                   mins=["lo"], maxs=["hi"])
    assert got.num_rows == 0
    assert got.schema == pa.schema([("k", pa.string()), ("j", pa.int64()), ("n", pa.int64()),
                                    ("lo", pa.float64()), ("hi", pa.timestamp("us"))])


def test_partial_without_keys_is_one_row():
    one = _partial({"n": np.array([2, 3]), "lo": pa.array([None, 4.0])}, [], ["n"], mins=["lo"])
    assert one.to_pydict() == {"n": [5], "lo": [4.0]}
    empty = _partial({"n": np.array([], np.int64), "lo": np.array([], np.float64)}, [], ["n"],
                     mins=["lo"])
    assert empty.to_pydict() == {"n": [0], "lo": [None]}
