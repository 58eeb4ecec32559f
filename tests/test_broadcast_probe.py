"""``queries._broadcast``/``_probe``, the one broadcast key map and its
lookup: ``_probe`` agrees with a dict on every probe (misses, keys outside
the key range, repeats, empty sides, uint64 fingerprints, string keys), and
``_broadcast`` ships the keys sorted with their values aligned."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ptt_spider_go_ray.queries import _broadcast, _probe


def _check(keys: list, probe: list, dtype) -> None:
    ref = {k: i for i, k in enumerate(keys)}  # value = the key's input position
    ks = sorted(ref)
    payload = (np.array(ks, dtype=dtype), np.array([ref[k] for k in ks], np.int64),
               np.array([str(k) for k in ks], dtype=object))
    hit, pos, txt = _probe(payload, np.array(probe, dtype=dtype))
    assert hit.dtype == bool and len(hit) == len(probe)
    assert pos.dtype == np.int64 and txt.dtype == object
    assert len(pos) == len(txt) == len(probe)
    assert hit.tolist() == [q in ref for q in probe]
    assert pos[hit].tolist() == [ref[q] for q in probe if q in ref]
    assert txt[hit].tolist() == [str(q) for q in probe if q in ref]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), unique=True), st.lists(st.integers(-60, 60)))
def test_probe_matches_dict_int64(keys, probe):
    _check(keys, probe, np.int64)


_U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(_U64, unique=True, max_size=30), st.data())
def test_probe_matches_dict_uint64_fingerprints(keys, data):
    # probe with the keys themselves (repeated), their neighbours and the extremes
    pool = keys + [0, 2**64 - 1] + [min(k + 1, 2**64 - 1) for k in keys]
    probe = data.draw(st.lists(st.sampled_from(pool)))
    _check(keys, probe, np.uint64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=4), unique=True, max_size=20),
       st.lists(st.text(max_size=4), max_size=30))
def test_probe_matches_dict_strings(keys, probe):
    _check(keys, probe + keys[:3] + keys[:3], object)


def test_probe_empty_sides_give_typed_misses():
    vals = np.array([1.5, 2.5])
    hit, v = _probe((np.array([], np.int64), vals[:0]), np.array([3, 4, 3]))
    assert hit.tolist() == [False] * 3 and v.dtype == np.float64 and len(v) == 3
    hit, v = _probe((np.array([1, 2]), vals), np.array([], np.int64))
    assert hit.dtype == bool and len(hit) == 0 and v.dtype == np.float64 and len(v) == 0
    hit, = _probe((np.array([], object),), np.array([], object))
    assert len(hit) == 0


def test_broadcast_round_trip(ray_session):
    import ray

    keys = np.array([7, 3, 9, 3, -1], np.int64)
    vals = np.array([70, 30, 90, 31, -10], np.int64)
    names = np.array(["g", "c", "i", "c2", "m"], dtype=object)
    ks, vs, ns = ray.get(_broadcast(keys, vals, names))
    assert ks.tolist() == [-1, 3, 3, 7, 9]
    assert vs.tolist() == [-10, 30, 31, 70, 90]  # stable: equal keys keep input order
    assert ns.tolist() == ["m", "c", "c2", "g", "i"]
    assert all(a.flags.c_contiguous for a in (ks, vs, ns))
    hit, v, n = _probe((ks, vs, ns), np.array([3, 8, 9]))
    assert hit.tolist() == [True, False, True]
    assert v[hit].tolist() == [30, 90] and n[hit].tolist() == ["c", "i"]
    empty, = ray.get(_broadcast(np.array([], np.uint64)))
    assert empty.dtype == np.uint64 and len(empty) == 0
