"""Thin storage layer (SURVEY §7.1): the engine targets Lance tables of
interleaved documents (north rule), but the sandbox has no ``lance`` wheel —
so every sink goes through this interface with a Parquet backend, and a Lance
backend drops in via ``pip install pylance`` with no caller changes.

Layout contract (resumable output): one directory per partition
(``<root>/<table>/round=<epoch>/part-*.parquet``) so a restarted run
overwrites only its own partition — never one giant file.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

try:  # pragma: no cover - lance absent in this sandbox
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    lance = None
    HAVE_LANCE = False


def write_partition(table: pa.Table, root: str, name: str, partition: str,
                    part: int = 0, sort_by: list[str] | None = None) -> str:
    """Write one part file of a logical table partition; returns the
    partition dir. ``part`` distinguishes concurrent per-block writers
    within one partition (worker-side sinks write part-<i> in parallel).
    ``sort_by`` clusters the file on those columns before writing, so the
    parquet footer's per-column min/max zone maps stay TIGHT and
    ``pruned_files`` can skip whole files at read time — the poor man's
    z-order, and the difference between "read 100 TB" and "read the three
    files that can match"."""
    d = os.path.join(root, name, partition)
    os.makedirs(d, exist_ok=True)
    if sort_by:
        table = table.sort_by([(c, "ascending") for c in sort_by])
    if HAVE_LANCE:  # pragma: no cover
        lance.write_dataset(table, os.path.join(d, f"part-{part}.lance"), mode="overwrite")
    else:
        pq.write_table(table, os.path.join(d, f"part-{part}.parquet"))
    return d


def read_table(root: str, name: str) -> pa.Table | None:
    """Read all partitions of a logical table back into one Arrow table."""
    base = os.path.join(root, name)
    if not os.path.isdir(base):
        return None
    tables = []
    for part in sorted(os.listdir(base)):
        d = os.path.join(base, part)
        for f in sorted(os.listdir(d)):
            if HAVE_LANCE and f.endswith(".lance"):  # pragma: no cover
                tables.append(lance.dataset(os.path.join(d, f)).to_table())
            elif f.endswith(".parquet"):
                tables.append(pq.read_table(os.path.join(d, f)))
    return pa.concat_tables(tables) if tables else None


def _file_min_max(path: str, column: str):
    """(min, max) for ``column`` across a parquet file's row groups, from
    the FOOTER only — no data pages are read. None when the writer emitted
    no statistics for the column."""
    md = pq.read_metadata(path)
    idx = md.schema.names.index(column) if column in md.schema.names else -1
    if idx < 0:
        return None
    lo = hi = None
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            return None  # a stats-less row group makes the file unprunable
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    return lo, hi


def pruned_files(root: str, name: str, column: str, lo, hi) -> tuple[list[str], int]:
    """Zone-map file pruning: the part files of ``name`` whose footer
    [min, max] range for ``column`` intersects [lo, hi], plus the total
    file count. Footer-only — at 100 TB this touches kilobytes per file
    while deciding which terabytes never leave storage. Files without
    statistics are conservatively KEPT (pruning must never change results).
    """
    base = os.path.join(root, name)
    keep: list[str] = []
    total = 0
    if not os.path.isdir(base):
        return keep, total
    for part_dir in sorted(os.listdir(base)):
        d = os.path.join(base, part_dir)
        for f in sorted(f for f in os.listdir(d) if f.endswith(".parquet")):
            path = os.path.join(d, f)
            total += 1
            mm = _file_min_max(path, column)
            if mm is None or (mm[0] <= hi and lo <= mm[1]):
                keep.append(path)
    return keep, total

