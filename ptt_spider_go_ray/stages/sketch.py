"""HyperLogLog approximate distinct count (Flajolet et al. 2007, with the
standard small-range linear-counting correction) as a Ray Data partial
aggregate: each batch contributes a register-array sketch (vectorized numpy),
sketches merge by elementwise max — the shuffle moves only 2^p-byte arrays,
never values. The scale pattern for COUNT(DISTINCT) at 100 TB."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


# ---------------------------------------------------------------------------
# SQL-replicable integer hash family (murmur3-finalizer shape over the 32-bit
# domain): multiply / xor-fold steps a DuckDB oracle can compute exactly with
# HUGEINT intermediates (xor(), //, %), unlike the default siphash family.
# Used by the CMS / KMV *_by entry points when ``int_hash=True`` so the
# driver can hash-attest the sketch queries; the generic object-key paths
# keep siphash (better avalanche for strings, no SQL requirement).
# ---------------------------------------------------------------------------

_MIX_M1 = 2654435761  # Knuth multiplicative constant
_MIX_M2 = 2246822519  # xxhash PRIME32_2
_MIX_M3 = 3266489917  # xxhash PRIME32_3
_MIX_M4 = 668265263   # xxhash PRIME32_4


def mix32(x: np.ndarray, m1: int = _MIX_M1, m2: int = _MIX_M2) -> np.ndarray:
    """32-bit multiply/xor-fold mix of integer keys (vectorized uint64 with
    values < 2^32 — no wrap, so DuckDB BIGINT/HUGEINT reproduces every
    step). Two rounds of the murmur/xxhash finalizer shape break the linear
    structure a bare multiplicative hash keeps over sequential ids."""
    mod = np.uint64(1 << 32)
    # numpy int64 % gives a non-negative remainder (sign of divisor) — the
    # SQL side replicates with ((x % 2^32) + 2^32) % 2^32
    h = (
        np.asarray(x).astype(np.int64) % np.int64(1 << 32)
    ).astype(np.uint64) * np.uint64(m1) % mod
    h ^= h >> np.uint64(16)
    h = h * np.uint64(m2) % mod
    h ^= h >> np.uint64(16)
    return h


def mix64(x: np.ndarray) -> np.ndarray:
    """64-bit SQL-replicable hash: two independent 32-bit mixes in the high
    and low halves (each < 2^32, so the composition stays HUGEINT-exact)."""
    return (mix32(x, _MIX_M1, _MIX_M2) << np.uint64(32)) | mix32(
        x, _MIX_M3, _MIX_M4
    )


def _floor_log2_u64(v: np.ndarray) -> np.ndarray:
    """Vectorized floor(log2(v)) for nonzero uint64, in pure integer space.
    (float64 log2 rounds values whose top bits are all ones up to 2^64,
    yielding k=64 → rank 0 → a silently skipped register update — a small
    systematic bias in the estimator.)"""
    k = np.zeros(v.shape, dtype=np.int64)
    v = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = v >= (np.uint64(1) << np.uint64(shift))
        k[mask] += shift
        v[mask] >>= np.uint64(shift)
    return k


class HLL:
    """hash_fn="pandas" (default) uses the fast vectorized pd.util
    hash; hash_fn="md5" hashes str(int(v)) through md5's top 8 bytes —
    bit-identical to DuckDB's md5(), which makes the ESTIMATE SQL-attestable
    (the q_hll_register_state idiom extended to the closed-form estimator)."""

    def __init__(self, p: int = 12, hash_fn: str = "pandas"):
        self.p = p
        self.m = 1 << p
        self.hash_fn = hash_fn
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def _hash(self, values) -> np.ndarray:
        if self.hash_fn == "md5":
            import hashlib

            # unique first: HLL is duplicate-insensitive and the md5 loop is
            # the only per-item Python in this path
            vals = np.unique(np.asarray(values, dtype=np.int64))
            return np.fromiter(
                (
                    int.from_bytes(
                        hashlib.md5(str(int(v)).encode()).digest()[:8], "big"
                    )
                    for v in vals
                ),
                np.uint64,
                count=len(vals),
            )
        return pd.util.hash_array(np.asarray(values, dtype=object))

    def add_many(self, values) -> None:
        h = self._hash(values)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        # rank = leading zeros of the left-aligned suffix + 1, capped: the
        # |1 sentinel makes an all-zero suffix hit exactly the cap
        rest = (h << np.uint64(self.p)) | np.uint64(1)
        k = _floor_log2_u64(rest)  # 0..63, exact integer arithmetic
        rank = np.minimum(64 - k, 64 - self.p + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HLL") -> "HLL":
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        est = alpha * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        zeros = int(np.count_nonzero(self.registers == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # linear counting
        return float(est)

    def to_bytes(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "HLL":
        h = cls(p=data[0])
        h.registers = np.frombuffer(data[1:], dtype=np.uint8).copy()
        return h


class QuantileSketch:
    """Mergeable quantile sketch in the KLL family (Karnin, Lang & Liberty,
    FOCS'16, simplified): one compactor per level, level i items carry
    weight 2^i; a level over capacity sorts and keeps alternating items
    (deterministic alternating offset, so the sketch is reproducible),
    pushing them one level up. Rank error is O(levels / k); sketch size is
    O(k · log(n/k)) regardless of n. Merging concatenates levels and
    re-compacts — associative up to the deterministic compaction schedule,
    and error bounds compose, which is what a distributed partial
    aggregate needs."""

    def __init__(self, k: int = 200):
        self.k = k
        self.levels: list[list[float]] = [[]]
        self._parity = 0

    def add_many(self, values) -> None:
        self.levels[0].extend(float(v) for v in values)
        self._compress()

    def _compress(self) -> None:
        lvl = 0
        while lvl < len(self.levels):
            if len(self.levels[lvl]) > self.k:
                buf = sorted(self.levels[lvl])
                # compact an even count only; an unpaired item stays at this
                # level so total weight (n_items) is preserved exactly
                m = len(buf) - (len(buf) % 2)
                ofs = self._parity
                self._parity ^= 1
                promoted = buf[ofs:m:2]
                self.levels[lvl] = buf[m:]
                if lvl + 1 == len(self.levels):
                    self.levels.append([])
                self.levels[lvl + 1].extend(promoted)
            lvl += 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        while len(self.levels) < len(other.levels):
            self.levels.append([])
        for i, items in enumerate(other.levels):
            self.levels[i].extend(items)
        self._parity ^= other._parity
        self._compress()
        return self

    def n_items(self) -> int:
        return sum(len(lv) << i for i, lv in enumerate(self.levels))

    def quantile(self, q: float) -> float:
        vals, weights = [], []
        for i, lv in enumerate(self.levels):
            vals.extend(lv)
            weights.extend([1 << i] * len(lv))
        if not vals:
            return float("nan")
        order = np.argsort(np.asarray(vals), kind="stable")
        v = np.asarray(vals)[order]
        w = np.asarray(weights, dtype=np.float64)[order]
        cum = np.cumsum(w)
        target = q * cum[-1]
        idx = int(np.searchsorted(cum, target, side="left"))
        return float(v[min(idx, len(v) - 1)])

    def to_bytes(self) -> bytes:
        import pickle

        return pickle.dumps((self.k, self._parity, self.levels))

    @classmethod
    def from_bytes(cls, data: bytes) -> "QuantileSketch":
        import pickle

        k, parity, levels = pickle.loads(data)
        s = cls(k=k)
        s._parity = parity
        s.levels = levels
        return s


def approx_quantiles(ds, column: str, qs: tuple = (0.5, 0.9, 0.99),
                     k: int = 200) -> dict[float, float]:
    """Approximate quantiles via per-batch partial sketches merged on the
    driver — the shuffle moves O(k·log n) floats per batch, never values
    (same partial-aggregate shape as :func:`approx_distinct`)."""
    import pyarrow as pa

    def sketch_batch(t: pa.Table) -> pa.Table:
        s = QuantileSketch(k)
        s.add_many(t[column].to_numpy(zero_copy_only=False))
        return pa.table({"sketch": pa.array([s.to_bytes()], pa.large_binary())})

    parts = ds.map_batches(sketch_batch, batch_format="pyarrow").take_all()
    acc = QuantileSketch(k)
    for row in parts:
        acc.merge(QuantileSketch.from_bytes(row["sketch"]))
    return {q: acc.quantile(q) for q in qs}


def approx_quantiles_by(ds, key: str, column: str,
                        qs: tuple = (0.5, 0.9, 0.99), k: int = 200):
    """Grouped approximate quantiles: per-batch per-key partial KLL sketches,
    merged DISTRIBUTEDLY with a groupby over the key — the shuffle moves
    (key, O(k·log n) floats) rows per batch, never values, and no stage holds
    one key's full rows. This is the scale path the exact `percentiles`
    operator documents for the many-keys/hot-key regime (same shape as
    :func:`approx_distinct_by`). Returns Dataset[(key, q50, q90, q99)]."""

    def sketch_batch(df: pd.DataFrame) -> pa.Table:
        keys, sketches = [], []
        for kk, grp in df.groupby(key, sort=False):
            s = QuantileSketch(k)
            s.add_many(grp[column].to_numpy())
            keys.append(kk)
            sketches.append(s.to_bytes())
        return pa.table(
            {key: pa.array(keys), "sketch": pa.array(sketches, pa.large_binary())}
        )

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        acc = QuantileSketch(k)
        for b in g["sketch"]:
            acc.merge(QuantileSketch.from_bytes(b))
        row: dict = {key: [g[key].iloc[0]]}
        for q in qs:
            row[f"q{int(round(q * 100))}"] = np.array(
                [acc.quantile(q)], dtype=np.float64
            )
        return pd.DataFrame(row)

    return (
        ds.map_batches(sketch_batch, batch_format="pandas", batch_size=65536)
        .groupby(key)
        .map_groups(merge_group, batch_format="pandas")
    )


def approx_distinct_by(ds, key: str, column: str, p: int = 12,
                       hash_fn: str = "pandas"):
    """Grouped approximate COUNT(DISTINCT): per-batch per-key partial HLL
    sketches, merged DISTRIBUTEDLY with a groupby over the key — the shuffle
    moves (key, 2^p bytes) rows per batch, never values, and no stage holds
    one key's full rows. Returns Dataset[(key, n_approx:int64)]."""
    import pyarrow as pa

    def sketch_batch(df: pd.DataFrame) -> pa.Table:
        keys, sketches = [], []
        for k, grp in df.groupby(key, sort=False):
            h = HLL(p, hash_fn=hash_fn)
            h.add_many(grp[column].tolist())
            keys.append(k)
            sketches.append(h.to_bytes())
        return pa.table(
            {key: pa.array(keys), "sketch": pa.array(sketches, pa.large_binary())}
        )

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        acc = HLL(p)
        for b in g["sketch"]:
            acc.merge(HLL.from_bytes(b))
        return pd.DataFrame(
            {key: [g[key].iloc[0]],
             "n_approx": np.array([int(round(acc.estimate()))], dtype=np.int64)}
        )

    return (
        ds.map_batches(sketch_batch, batch_format="pandas", batch_size=65536)
        .groupby(key)
        .map_groups(merge_group, batch_format="pandas")
    )


def approx_distinct(ds, column: str, p: int = 12,
                    hash_fn: str = "pandas") -> float:
    """COUNT(DISTINCT column) ≈ via per-batch partial sketches merged on the
    driver (each partial is 2^p bytes — no value shuffle)."""

    def sketch_batch(t: pa.Table) -> pa.Table:
        h = HLL(p, hash_fn=hash_fn)
        h.add_many(t[column].to_pylist())
        return pa.table({"sketch": pa.array([h.to_bytes()], pa.large_binary())})

    parts = ds.map_batches(sketch_batch, batch_format="pyarrow").take_all()
    acc = HLL(p)
    for row in parts:
        acc.merge(HLL.from_bytes(row["sketch"]))
    return acc.estimate()


class SpaceSaving:
    """Misra-Gries / SpaceSaving heavy-hitters summary (Metwally et al. 2005;
    Misra & Gries 1982): at most ``capacity`` counters. Counts are
    UNDERestimates with error ≤ n_total / (capacity + 1); any key whose true
    frequency exceeds that bound is guaranteed present. Mergeable (Agarwal et
    al. 2012): sum counts keyed-union, then decrement all by the (m+1)-th
    largest and drop ≤0 — errors add across merges, so k-way merge keeps
    error ≤ n_total / (capacity + 1). When distinct keys ≤ capacity the
    summary is EXACT (no decrement ever fires) — the small-scale oracle path.

    The 100 TB pattern: one summary per block (vectorized build), summaries
    merge pairwise — the shuffle moves O(capacity) rows per block, never the
    key-frequency distribution itself."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self.counts: dict = {}

    def update_many(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Bulk-add exact per-key counts (e.g. one block's np.unique output),
        then compress back to capacity."""
        for k, c in zip(keys.tolist(), counts.tolist()):
            self.counts[k] = self.counts.get(k, 0) + int(c)
        self._compress()

    def merge(self, other: "SpaceSaving") -> None:
        for k, c in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + c
        self._compress()

    def _compress(self) -> None:
        if len(self.counts) <= self.capacity:
            return
        vals = np.fromiter(self.counts.values(), dtype=np.int64)
        # decrement by the (capacity+1)-th largest count (MG batch step)
        d = int(np.partition(vals, -(self.capacity + 1))[-(self.capacity + 1)])
        self.counts = {k: c - d for k, c in self.counts.items() if c > d}

    def top(self, k: int) -> list[tuple]:
        """Top-k (count DESC, key ASC) — deterministic tie-break."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def to_table(self) -> pa.Table:
        items = sorted(self.counts.items())
        return pa.table(
            {"key": pa.array([str(k) for k, _ in items], pa.string()),
             "n": pa.array([c for _, c in items], pa.int64())}
        )


class CountMinSketch:
    """Count-Min sketch (Cormode & Muthukrishnan 2005): a depth×width counter
    matrix; point estimates are the MIN over depth rows, always ≥ the true
    count, with overestimate ≤ e·N/width at probability 1 − e^−depth. The d
    row hashes derive from one 64-bit hash via Kirsch–Mitzenmacher double
    hashing (h1 + i·h2). Mergeable by elementwise sum — at 100 TB each block
    contributes one depth×width int64 matrix and the shuffle never moves the
    key-frequency distribution itself (same discipline as HLL/KLL above)."""

    def __init__(self, width: int = 8192, depth: int = 4,
                 int_hash: bool = False):
        self.width = width
        self.depth = depth
        self.int_hash = int_hash
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.n_total = 0

    def _h12(self, values) -> tuple[np.ndarray, np.ndarray]:
        if self.int_hash:  # SQL-replicable family for integer keys
            x = np.asarray(values).astype(np.int64)
            return mix32(x), mix32(x, _MIX_M3, _MIX_M4) | np.uint64(1)
        arr = np.asarray(values, dtype=object)
        h1 = pd.util.hash_array(arr)
        h2 = pd.util.hash_array(arr, hash_key="cms2cms2cms2cms2") | np.uint64(1)
        return h1, h2

    def add_many(self, values, counts=None) -> None:
        h1, h2 = self._h12(values)
        c = (
            np.ones(len(h1), dtype=np.int64)
            if counts is None
            else np.asarray(counts, dtype=np.int64)
        )
        for i in range(self.depth):
            idx = ((h1 + np.uint64(i) * h2) % np.uint64(self.width)).astype(np.int64)
            np.add.at(self.table[i], idx, c)
        self.n_total += int(c.sum())

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        self.table += other.table
        self.n_total += other.n_total
        return self

    def estimate_many(self, values) -> np.ndarray:
        h1, h2 = self._h12(values)
        est = np.full(len(h1), np.iinfo(np.int64).max, dtype=np.int64)
        for i in range(self.depth):
            idx = ((h1 + np.uint64(i) * h2) % np.uint64(self.width)).astype(np.int64)
            np.minimum(est, self.table[i][idx], out=est)
        return est

    def to_bytes(self) -> bytes:
        head = np.array(
            [self.width, self.depth, self.n_total, int(self.int_hash)],
            dtype=np.int64,
        )
        return head.tobytes() + self.table.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "CountMinSketch":
        head = np.frombuffer(b[:32], dtype=np.int64)
        s = cls(int(head[0]), int(head[1]), int_hash=bool(head[3]))
        s.n_total = int(head[2])
        s.table = (
            np.frombuffer(b[32:], dtype=np.int64)
            .reshape(s.depth, s.width)
            .copy()
        )
        return s


def cms_estimate_by(ds, column: str, probes, width: int = 8192, depth: int = 4,
                    int_hash: bool = False):
    """Frequency point-estimates for ``probes`` from a CMS built with
    per-batch partial sketches merged on the driver (each partial is
    depth×width int64 — no value shuffle). Returns (estimates, n_total).
    ``int_hash=True`` switches to the SQL-replicable mix32 family (integer
    keys only) so a DuckDB oracle can reproduce the estimates exactly."""

    def sketch_batch(t: pa.Table) -> pa.Table:
        s = CountMinSketch(width, depth, int_hash=int_hash)
        keys, counts = np.unique(
            np.asarray(t[column].to_pylist(), dtype=object), return_counts=True
        )
        s.add_many(keys, counts)
        return pa.table({"sketch": pa.array([s.to_bytes()], pa.large_binary())})

    acc = CountMinSketch(width, depth, int_hash=int_hash)
    for row in ds.map_batches(sketch_batch, batch_format="pyarrow").take_all():
        acc.merge(CountMinSketch.from_bytes(row["sketch"]))
    return acc.estimate_many(probes), acc.n_total


class KMV:
    """K-Minimum-Values (theta) sketch — the mergeable distinct-count
    sketch that, unlike HLL, also supports SET-INTERSECTION estimates
    (Beyer et al. 2007 / the theta-sketch framework): keep the k smallest
    distinct 64-bit hashes; the k-th smallest fixes the sampling threshold
    θ, and any sets' sketches can be intersected below min(θ_a, θ_b).
    Each sketch is ≤ 8k bytes, merge = union + truncate, so partials
    stream through map_batches and only sketches ever move."""

    def __init__(self, k: int = 1024, int_hash: bool = False):
        self.k = k
        self.int_hash = int_hash
        self.hashes = np.empty(0, dtype=np.uint64)

    def _hash(self, values) -> np.ndarray:
        if self.int_hash:  # SQL-replicable family for integer keys
            return mix64(np.asarray(values).astype(np.int64))
        return pd.util.hash_array(np.asarray(values, dtype=object))

    def add_many(self, values) -> None:
        h = np.unique(self._hash(values))
        self.hashes = np.unique(np.concatenate([self.hashes, h]))[: self.k]

    def merge(self, other: "KMV") -> "KMV":
        self.hashes = np.unique(
            np.concatenate([self.hashes, other.hashes])
        )[: self.k]
        return self

    def _threshold(self) -> int:
        """Exclusive upper hash bound below which the sketch is an exact
        distinct-sample: the k-th smallest hash when full, else 2^64."""
        if len(self.hashes) < self.k:
            return 1 << 64
        return int(self.hashes[-1])

    def estimate(self) -> float:
        if len(self.hashes) < self.k:
            return float(len(self.hashes))  # exhaustive below k
        return (self.k - 1) / (int(self.hashes[-1]) / 2.0 ** 64)

    @staticmethod
    def intersect_estimate(a: "KMV", b: "KMV") -> float:
        thr = min(a._threshold(), b._threshold())
        sa = a.hashes[a.hashes < np.uint64(min(thr, (1 << 64) - 1))] \
            if thr < (1 << 64) else a.hashes
        sb = b.hashes[b.hashes < np.uint64(min(thr, (1 << 64) - 1))] \
            if thr < (1 << 64) else b.hashes
        inter = len(np.intersect1d(sa, sb))
        if thr >= 1 << 64:
            return float(inter)  # both exhaustive: exact
        return inter / (thr / 2.0 ** 64)

    def to_bytes(self) -> bytes:
        return (
            int(self.k).to_bytes(4, "little")
            + int(self.int_hash).to_bytes(1, "little")
            + self.hashes.tobytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "KMV":
        s = cls(
            k=int.from_bytes(data[:4], "little"),
            int_hash=bool(data[4]),
        )
        s.hashes = np.frombuffer(data[5:], dtype=np.uint64).copy()
        return s


def kmv_intersect_by(ds, key: str, column: str, key_a, key_b, k: int = 1024,
                     int_hash: bool = False):
    """Estimated |distinct(column | key=a) ∩ distinct(column | key=b)| via
    per-batch KMV partials (one sketch per side per batch, ≤ 8k bytes)
    merged on the driver — values never shuffle. Returns a one-row
    DataFrame with both sides' distinct estimates and the intersection.
    ``int_hash=True`` uses the SQL-replicable mix64 family (integer keys)
    so a DuckDB oracle can reproduce all three estimates bit-for-bit."""

    def sketch_batch(df: pd.DataFrame) -> pa.Table:
        sides, blobs = [], []
        for side, kk in (("a", key_a), ("b", key_b)):
            vals = df.loc[df[key] == kk, column]
            if len(vals):
                s = KMV(k, int_hash=int_hash)
                s.add_many(vals.to_numpy())
                sides.append(side)
                blobs.append(s.to_bytes())
        return pa.table(
            {
                "side": pa.array(sides, pa.string()),
                "sketch": pa.array(blobs, pa.large_binary()),
            }
        )

    acc = {"a": KMV(k, int_hash=int_hash), "b": KMV(k, int_hash=int_hash)}
    for row in ds.map_batches(sketch_batch, batch_format="pandas").take_all():
        acc[row["side"]].merge(KMV.from_bytes(row["sketch"]))
    return pd.DataFrame(
        {
            "est_distinct_a": [acc["a"].estimate()],
            "est_distinct_b": [acc["b"].estimate()],
            "est_intersection": [KMV.intersect_estimate(acc["a"], acc["b"])],
        }
    )


def _md5_u64(ids: np.ndarray) -> np.ndarray:
    """md5(str(int(v))) top-8-bytes big-endian — bit-identical to DuckDB's
    ('0x' || substr(md5(CAST(v AS VARCHAR)), 1, 16))::UBIGINT (the HLL md5
    bridge). Per-item Python, so callers keep it off the hot path (bounded
    inputs / sample selection only)."""
    import hashlib

    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(str(int(v)).encode()).digest()[:8], "big")
            for v in ids
        ),
        np.uint64,
        count=len(ids),
    )


def _bottomk_partial(hv: np.ndarray, vals: np.ndarray, k: int):
    """k smallest (hash, value) pairs of one batch — np.argpartition, O(n)."""
    if len(hv) > k:
        sel = np.argpartition(hv, k - 1)[:k]
        return hv[sel], vals[sel]
    return hv, vals


def _sample_quantiles(vals: np.ndarray, qs) -> np.ndarray:
    """Deterministic discrete quantile over a sample: sorted values, index
    ceil(q·n) - 1 (clamped) — expressed in SQL as
    row_number() OVER (ORDER BY value) == GREATEST(1, CEIL(q * n)). The
    selected value is raw data (no arithmetic), so engine and oracle agree
    bit-for-bit."""
    v = np.sort(vals)
    n = len(v)
    idx = np.maximum(np.ceil(np.asarray(qs, np.float64) * n), 1).astype(np.int64) - 1
    return v[np.minimum(idx, n - 1)]


def bottomk_quantiles(ds, column: str, id_col: str,
                      qs: tuple = (0.5, 0.9, 0.99), k: int = 2048):
    """Approximate quantiles via a DETERMINISTIC bottom-k hash sample:
    keep the k rows whose md5(id) hashes are globally smallest — a uniform,
    order- and partitioning-independent sample (unlike the KLL sketch,
    whose state depends on batch boundaries), so the ESTIMATE itself is
    SQL-attestable. Rank error is O(1/sqrt(k)) with high probability.

    Scale shape: per-batch O(batch) partial top-k, driver merge holds ≤
    k·n_blocks pairs (bounded re-partial applied), no value shuffle."""
    import pyarrow as pa

    def partial(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = t[column].to_numpy(zero_copy_only=False).astype(np.float64)
        hv, vv = _bottomk_partial(_md5_u64(ids), vals, k)
        return pa.table({"hv": pa.array(hv, pa.uint64()),
                         "value": pa.array(vv, pa.float64())})

    hvs, vvs = [], []
    for t in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        hvs.append(t["hv"].to_numpy(zero_copy_only=False))
        vvs.append(t["value"].to_numpy(zero_copy_only=False))
        if sum(len(a) for a in hvs) > 64 * k:  # bound driver memory
            hv, vv = _bottomk_partial(np.concatenate(hvs), np.concatenate(vvs), k)
            hvs, vvs = [hv], [vv]
    hv, vv = _bottomk_partial(np.concatenate(hvs), np.concatenate(vvs), k)
    est = _sample_quantiles(vv, qs)
    return pd.DataFrame({"q": np.asarray(qs, np.float64), "value_approx": est})


def bottomk_quantiles_by(ds, key: str, column: str, id_col: str,
                         qs: tuple = (0.5, 0.9, 0.99), k: int = 512):
    """Grouped bottom-k sample quantiles: per-batch per-key partial bottom-k,
    merged DISTRIBUTEDLY via groupby(key) — the shuffle moves ≤ k
    (hash, value) pairs per key per batch, never full groups."""
    import pyarrow as pa

    def partial(df: pd.DataFrame) -> pa.Table:
        ks, hs, vs = [], [], []
        for kk, grp in df.groupby(key, sort=False):
            ids = grp[id_col].to_numpy().astype(np.int64)
            hv, vv = _bottomk_partial(
                _md5_u64(ids), grp[column].to_numpy().astype(np.float64), k
            )
            ks.extend([kk] * len(hv))
            hs.append(hv)
            vs.append(vv)
        return pa.table(
            {
                key: pa.array(ks),
                "hv": pa.array(np.concatenate(hs) if hs else
                               np.empty(0, np.uint64), pa.uint64()),
                "value": pa.array(np.concatenate(vs) if vs else
                                  np.empty(0, np.float64), pa.float64()),
            }
        )

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        hv, vv = _bottomk_partial(
            g["hv"].to_numpy().astype(np.uint64),
            g["value"].to_numpy().astype(np.float64), k
        )
        est = _sample_quantiles(vv, qs)
        return pd.DataFrame(
            {
                key: [g[key].iloc[0]] * len(qs),
                "q": np.asarray(qs, np.float64),
                "value_approx": est,
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby(key)
        .map_groups(merge_group, batch_format="pandas")
    )
