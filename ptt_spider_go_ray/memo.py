"""One per-process memo for values several queries share: the LSH
candidate pairs, the MinHash band pairs and pair overlaps, and the
synthetic-site crawls.

A value is keyed by (Ray job id, name, realpath, mtime_ns, size) of the
input file it derives from, or by (Ray job id, name) when it derives from
no file. Nothing is cached when Ray is not initialised. Storing a value
evicts entries from other jobs (their object-store blocks died with that
session) and superseded snapshots of the same (name, path), so the memo
stays O(live inputs), not append-only.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

_MEMO: dict[tuple, Any] = {}


def _key(name: str, path: str | None) -> tuple | None:
    import ray

    if not ray.is_initialized():
        return None
    job = ray.get_runtime_context().get_job_id()
    if path is None:
        return (job, name, None, None, None)
    st = os.stat(path)
    return (job, name, os.path.realpath(path), st.st_mtime_ns, st.st_size)


def cached(name: str, path: str | None, build: Callable[[], Any]) -> Any:
    """``build()``'s value for ``name`` over the file ``path`` (or over no
    file when ``path`` is None), computed once per key."""
    key = _key(name, path)
    if key is None:
        return build()
    if key not in _MEMO:
        value = build()
        for stale in [
            k for k in _MEMO if k[0] != key[0] or (k[1:3] == key[1:3] and k != key)
        ]:
            del _MEMO[stale]
        _MEMO[key] = value
    return _MEMO[key]
