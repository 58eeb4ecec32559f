"""Source-format ingest: JSONL / CSV → canonical Arrow schema → partitioned
parquet, all streaming.

The reference's only non-HTML source is the seed text file
(/root/reference/crawler/crawler.go file mode); a training-data engine also
has to take bulk table drops in whatever format the producer emits. This
module is the format boundary: `ray.data.read_json` / `read_csv` shards the
input, and `harmonize` casts every batch onto the canonical schema taken
from the table's parquet footer (column order, integer widths, timestamp
unit) — so the rest of the engine never sees format-specific dtypes
(JSON's int64 epochs, CSV's ns timestamps).

Scale shape: reads shard per file, the cast is a per-batch Arrow kernel
(zero-copy where dtypes already match), writes are one file per block into
a cleaned directory — a failed ingest re-runs per-partition; nothing
materializes on the driver.

Format caveats (tested in tests/test_ingest.py):
- JSONL loses sub-second timestamp precision (epoch-seconds writer), so
  timestamped tables round-trip through CSV; JSONL is for string/int
  tables (documents).
- CSV reads timestamps as ns; harmonize casts back to the canonical us.
"""

from __future__ import annotations

import shutil

import pyarrow as pa


def canonical_schema(sf_dir: str, table: str) -> pa.Schema:
    """The table's schema from its parquet footer — no data read."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/{table}.parquet").schema_arrow


def harmonize(ds, schema: pa.Schema):
    """Cast every batch onto ``schema``: column order + exact dtypes.
    JSON int64 epochs become timestamps via an epoch-unit cast; extra
    columns are dropped, missing columns raise (schema contract)."""

    def cast(t: pa.Table) -> pa.Table:
        cols = []
        for f in schema:
            c = t[f.name]
            if c.type != f.type:
                if pa.types.is_timestamp(f.type) and pa.types.is_integer(c.type):
                    # JSON epoch ints: the writer emits epoch-seconds
                    c = c.cast(pa.timestamp("s")).cast(f.type)
                else:
                    c = c.cast(f.type)
            cols.append(c)
        return pa.table(cols, schema=schema)

    return ds.map_batches(cast, batch_format="pyarrow", batch_size=None)


def export_jsonl(ds, out_dir: str) -> None:
    """One JSONL file per block into a cleaned dir (idempotent re-runs)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    ds.write_json(out_dir)


def export_csv(ds, out_dir: str) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    ds.write_csv(out_dir)


def ingest_jsonl(path: str, schema: pa.Schema):
    import ray.data

    return harmonize(ray.data.read_json(path), schema)


def ingest_csv(path: str, schema: pa.Schema):
    import ray.data

    return harmonize(ray.data.read_csv(path), schema)


def export_orc(ds, out_dir: str) -> None:
    """One ORC file per block via a worker-side sink (Ray Data ships no ORC
    writer; the crawl sinks set the worker-side-write precedent). The dir is
    cleaned first so re-runs are idempotent; a Sum over per-block row counts
    drives execution without materializing data on the driver."""
    import os
    import uuid

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    def write(t: pa.Table) -> pa.Table:
        import pyarrow.orc as orc

        orc.write_table(t, f"{out_dir}/{uuid.uuid4().hex}.orc")
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    ds.map_batches(write, batch_format="pyarrow", batch_size=None).sum("n")


def ingest_orc(path: str, schema: pa.Schema):
    """ORC shards → Dataset: read_binary_files shards per file, each batch
    decodes its files with pyarrow.orc (zero driver involvement), then the
    usual harmonize cast restores the canonical footer schema."""
    import ray.data

    ds = ray.data.read_binary_files(path)

    def decode(t: pa.Table) -> pa.Table:
        import pyarrow.orc as orc

        tables = [
            orc.ORCFile(pa.BufferReader(b.as_py())).read() for b in t["bytes"]
        ]
        return pa.concat_tables(tables) if tables else schema.empty_table()

    return harmonize(ds.map_batches(decode, batch_format="pyarrow"), schema)


def export_feather(ds, out_dir: str) -> None:
    """One Feather (Arrow IPC) file per block — the lossless boundary:
    nested types (list<float> embeddings) survive bit-exactly."""
    import os
    import uuid

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    def write(t: pa.Table) -> pa.Table:
        import pyarrow.feather as feather

        feather.write_feather(t, f"{out_dir}/{uuid.uuid4().hex}.feather")
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    ds.map_batches(write, batch_format="pyarrow", batch_size=None).sum("n")


def ingest_feather(path: str, schema: pa.Schema):
    import ray.data

    ds = ray.data.read_binary_files(path)

    def decode(t: pa.Table) -> pa.Table:
        import pyarrow.feather as feather

        tables = [
            feather.read_table(pa.BufferReader(b.as_py())) for b in t["bytes"]
        ]
        return pa.concat_tables(tables) if tables else schema.empty_table()

    return harmonize(ds.map_batches(decode, batch_format="pyarrow"), schema)


def export_wds(ds, out_dir: str) -> None:
    """WebDataset-style tar sink — THE standard LLM-training-data shard
    container (tar of per-sample member files): each block becomes one
    ``.tar`` shard whose members are ``<doc_id>.txt`` (the text bytes) and
    ``<doc_id>.json`` (the remaining columns as metadata), keyed so a
    sequential reader sees each sample's files adjacently. Worker-side sink
    (same contract as export_orc)."""
    import io
    import json
    import os
    import tarfile
    import uuid

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    def write(t: pa.Table) -> pa.Table:
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            for row in t.to_pylist():
                key = f"{int(row['doc_id']):012d}"
                txt = (row.get("text") or "").encode("utf-8")
                meta = {k: v for k, v in row.items()
                        if k not in ("doc_id", "text")}
                mj = json.dumps(meta, sort_keys=True,
                                ensure_ascii=False).encode("utf-8")
                for name, body in ((f"{key}.txt", txt), (f"{key}.json", mj)):
                    info = tarfile.TarInfo(name)
                    info.size = len(body)
                    info.mtime = 0  # deterministic shards
                    tar.addfile(info, io.BytesIO(body))
        with open(f"{out_dir}/{uuid.uuid4().hex}.tar", "wb") as f:
            f.write(buf.getvalue())
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    ds.map_batches(write, batch_format="pyarrow", batch_size=None).sum("n")


def ingest_wds(path: str, schema: pa.Schema):
    """WebDataset tar shards → Dataset: read_binary_files shards per tar,
    each batch re-assembles (key → {txt, json}) members into rows, then the
    harmonize cast restores the canonical footer schema."""
    import io
    import json
    import tarfile

    import ray.data

    ds = ray.data.read_binary_files(path)

    def decode(t: pa.Table) -> pa.Table:
        rows = []
        for b in t["bytes"]:
            samples: dict[str, dict] = {}
            with tarfile.open(fileobj=io.BytesIO(b.as_py())) as tar:
                for m in tar.getmembers():
                    key, _, ext = m.name.partition(".")
                    body = tar.extractfile(m).read()
                    samples.setdefault(key, {})[ext] = body
            for key, parts in sorted(samples.items()):
                row = {"doc_id": int(key),
                       "text": parts.get("txt", b"").decode("utf-8")}
                row.update(json.loads(parts.get("json", b"{}")))
                rows.append(row)
        if not rows:
            return schema.empty_table()
        cols = {f.name: [r.get(f.name) for r in rows] for f in schema}
        return pa.table(cols)

    return harmonize(ds.map_batches(decode, batch_format="pyarrow"), schema)


def export_jsonl_gz(ds, out_dir: str) -> None:
    """Gzip-compressed JSONL shards — the CommonCrawl-style text-corpus
    container (.jsonl.gz, one shard per block). Worker-side sink; mtime=0
    in the gzip header keeps shards byte-deterministic."""
    import gzip
    import json
    import os
    import uuid

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    def write(t: pa.Table) -> pa.Table:
        lines = "".join(
            json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n"
            for row in t.to_pylist()
        ).encode("utf-8")
        with open(f"{out_dir}/{uuid.uuid4().hex}.jsonl.gz", "wb") as f:
            f.write(gzip.compress(lines, 6, mtime=0))
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    ds.map_batches(write, batch_format="pyarrow", batch_size=None).sum("n")


def ingest_jsonl_gz(path: str, schema: pa.Schema):
    """.jsonl.gz shards → Dataset: read_binary_files shards per file, each
    batch gunzips + parses its lines, then the harmonize cast restores the
    canonical footer schema."""
    import gzip
    import json

    import ray.data

    ds = ray.data.read_binary_files(path)

    def decode(t: pa.Table) -> pa.Table:
        rows = []
        for b in t["bytes"]:
            raw = b.as_py()
            try:  # some readers auto-gunzip by extension — accept both
                text = gzip.decompress(raw).decode("utf-8")
            except (OSError, gzip.BadGzipFile):
                text = raw.decode("utf-8")
            for line in text.splitlines():
                if line:
                    rows.append(json.loads(line))
        if not rows:
            return schema.empty_table()
        return pa.table(
            {f.name: [r.get(f.name) for r in rows] for f in schema}
        )

    return harmonize(ds.map_batches(decode, batch_format="pyarrow"), schema)


def export_partitioned(ds, out_dir: str, key: str, *, resume: bool = True,
                       min_rows_per_file: int = 10_000):
    """Hive-partitioned parquet sink with PARTITION-LEVEL resume: one
    ``key=<value>/`` directory per distinct key value, a ``_SUCCESS``
    marker dropped in each directory once the whole write lands, and (with
    ``resume=True``) already-marked partitions filtered out before the
    write — a failed 100-TB export restarts at the first unfinished
    partition instead of byte zero. Unmarked (partial) partition dirs from
    a crashed run are removed before rewriting so files never mix.

    Scale shape: ONE streaming pass regardless of how many partitions are
    pending (the done-set is a broadcast filter inside ``map_batches``,
    the write is ``Dataset.write_parquet(partition_cols=[key])`` — one
    file per block per partition). The driver holds only the done-set,
    bounded by the partition DOMAIN: partition on sources / date buckets,
    never on a high-cardinality key. Returns the sorted list of partition
    values completed THIS run (empty when everything was already marked).
    """
    import os
    from urllib.parse import quote, unquote

    import numpy as np
    import pyarrow as pa

    prefix = f"{key}="

    def _marked() -> set[str]:
        if not os.path.isdir(out_dir):
            return set()
        return {
            d[len(prefix):]
            for d in os.listdir(out_dir)
            if d.startswith(prefix)
            and os.path.exists(os.path.join(out_dir, d, "_SUCCESS"))
        }

    if not resume:
        shutil.rmtree(out_dir, ignore_errors=True)
    done = _marked()
    # partial partitions (no marker) restart clean
    if os.path.isdir(out_dir):
        for d in os.listdir(out_dir):
            if d.startswith(prefix) and d[len(prefix):] not in done:
                shutil.rmtree(os.path.join(out_dir, d), ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    if done:
        # the writer hive-encodes partition values into dir names with
        # urllib quote(safe='') semantics (probed: space→%20, '/'→%2F,
        # '='→%3D, '%'→%25) — canonicalize OUR side the same way or
        # special-char partitions never match the done-set and a resume
        # silently double-writes into _SUCCESS-marked dirs
        done_arr = np.array(sorted(done), dtype=object)

        def pending_only(t: pa.Table) -> pa.Table:
            vals = np.array(
                [quote(str(v), safe="") for v in t[key].to_pylist()],
                dtype=object,
            )
            return t.filter(pa.array(~np.isin(vals, done_arr)))

        ds = ds.map_batches(pending_only, batch_format="pyarrow")
    # min_rows_per_file merges small (block × partition) slivers — without
    # it a 64-block × 20-partition write lands 1,280 files (measured), the
    # classic small-files problem at 100-TB scale
    ds.write_parquet(
        out_dir, partition_cols=[key], min_rows_per_file=min_rows_per_file
    )

    written = []
    for d in sorted(os.listdir(out_dir)):
        if d.startswith(prefix) and d[len(prefix):] not in done:
            open(os.path.join(out_dir, d, "_SUCCESS"), "w").close()
            written.append(unquote(d[len(prefix):]))
    return sorted(written)


def ingest_partitioned(path: str, schema: pa.Schema, partition_key: str | None = None):
    """Read a hive-partitioned export back onto the canonical schema (the
    partition column returns as a dictionary/string — harmonize casts it,
    restores column order, and drops the marker artifacts).

    ``partition_key`` names the column that was hive-encoded into dir
    names; pyarrow does NOT percent-decode it on read ('a b' comes back
    'a%20b'), so we unquote it here to keep the documented value-invisible
    round-trip. Decoding touches only the per-batch DISTINCT values
    (dictionary-encode first) — O(partition domain), not O(rows)."""
    import ray.data
    from urllib.parse import unquote

    ds = ray.data.read_parquet(path, file_extensions=["parquet"])
    if partition_key is not None:

        def _decode(t: pa.Table) -> pa.Table:
            idx = t.schema.get_field_index(partition_key)
            enc = t[partition_key].combine_chunks().cast(pa.string())
            d = enc.dictionary_encode()
            dec = pa.array(
                [None if v is None else unquote(v)
                 for v in d.dictionary.to_pylist()],
                pa.string(),
            )
            col = pa.DictionaryArray.from_arrays(d.indices, dec).cast(pa.string())
            return t.set_column(idx, partition_key, col)

        ds = ds.map_batches(_decode, batch_format="pyarrow", batch_size=None)
    return harmonize(ds, schema)
