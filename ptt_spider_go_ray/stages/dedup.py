"""Deduplication operators for the training-data pipeline extensions:
exact (hash-partition + per-group first), MinHash+LSH, SimHash, n-gram
Jaccard verification, and embedding-cosine near-dup. All are standard
algorithms from the public dedup literature (Broder 1997 MinHash; Charikar
2002 SimHash; Leskovec et al., Mining of Massive Datasets ch.3 for LSH
banding).

Shape at scale (the part that matters at 100 TB):
- signatures are computed in a single streaming ``map_batches`` pass
  (vectorized numpy per batch);
- candidate generation is a ``groupby`` on the *band/bucket key* — the only
  shuffle, and it moves just (key, doc_id, signature) rows, never documents;
- verification (exact Jaccard / Hamming) runs per group on the small
  candidate sets.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

# ---------------------------------------------------------------------------
# MinHash
# ---------------------------------------------------------------------------

def _perm_params(n_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    # odd multipliers for multiply-shift hashing over Z_2^64 (Dietzfelbinger
    # et al.): h' = a*h + b with native uint64 wrap-around — fully vectorized,
    # no object-dtype bigint modmul
    a = rng.integers(1, np.iinfo(np.uint64).max, size=n_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, np.iinfo(np.uint64).max, size=n_perm, dtype=np.uint64)
    return a, b


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Hashes of word k-shingles (uint64), vectorized via pandas' siphash
    (deterministic: fixed default hash key)."""
    import pandas as pd

    toks = text.split()
    if not toks:
        return np.zeros(1, dtype=np.uint64)
    if len(toks) < k:
        shingles = [" ".join(toks)]
    else:
        shingles = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
    return pd.util.hash_array(np.asarray(shingles, dtype=object))


class MinHasher:
    """Stateful signature computer — permutation params built once per actor
    (__init__), applied vectorized per batch (__call__)."""

    def __init__(self, n_perm: int = 128, shingle_k: int = 3, seed: int = 7):
        self.a, self.b = _perm_params(n_perm, seed)
        self.n_perm = n_perm
        self.shingle_k = shingle_k

    def signature(self, text: str) -> np.ndarray:
        h = _shingle_hashes(text, self.shingle_k)
        # (a*h + b) over Z_2^64 (wrap-around), outer over permutations —
        # one vectorized uint64 expression, min per permutation
        with np.errstate(over="ignore"):
            vals = self.a[:, None] * h[None, :] + self.b[:, None]
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # signatures as fixed-width binary (n_perm × 8 bytes): cheaper to
        # build, shuffle, and decode (np.frombuffer) than list<uint64>
        sigs = [self.signature(t or "").tobytes() for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "minhash": pa.array(sigs, pa.large_binary()),
            }
        )


class MinHashShingler(MinHasher):
    """MinHash signature + unique 64-bit shingle-hash set in ONE text pass.

    The shingle set rides along to the LSH band groups so the exact Jaccard
    verification downstream never needs the raw text again (and never joins
    back to the documents table). Jaccard over 64-bit hashed shingle sets
    equals Jaccard over the shingle sets themselves up to negligible hash
    collisions (~n^2/2^64)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs, shingle_sets = [], []
        for t in batch["text"].to_pylist():
            h = _shingle_hashes(t or "", self.shingle_k)
            with np.errstate(over="ignore"):
                vals = self.a[:, None] * h[None, :] + self.b[:, None]
            sigs.append(vals.min(axis=1).tobytes())
            shingle_sets.append(np.unique(h).tobytes())  # sorted-unique uint64 LE
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "minhash": pa.array(sigs, pa.large_binary()),
                "shingles": pa.array(shingle_sets, pa.large_binary()),
            }
        )


def hashed_set_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two sorted-unique uint64 hash sets."""
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


# Per-worker-process memoized hashers for TASK-mode signature stages.
# The MinHasher's per-actor state is two small numpy arrays (~1 KB), so an
# actor pool's spawn cost (~1-2 s/actor on this box) buys nothing; plain
# tasks reuse warm Ray workers and this cache gives the same init-once
# semantics per process (the fetch stage caches its transports the same way).
_HASHER_CACHE: dict[tuple, "MinHasher"] = {}


def minhash_batch_task(batch: pa.Table, n_perm: int = 64, shingle_k: int = 3,
                       seed: int = 7, with_shingles: bool = False) -> pa.Table:
    key = (n_perm, shingle_k, seed, with_shingles)
    h = _HASHER_CACHE.get(key)
    if h is None:
        cls = MinHashShingler if with_shingles else MinHasher
        h = _HASHER_CACHE.setdefault(key, cls(n_perm, shingle_k, seed))
    return h(batch)


def lsh_band_keys(sig: np.ndarray, n_bands: int) -> list[str]:
    """Split the signature into bands; each band hashes to a bucket key.
    (Per-row reference form; the pipelines use the vectorized
    :func:`band_key_matrix`.)"""
    rows = len(sig) // n_bands
    keys = []
    for band in range(n_bands):
        chunk = sig[band * rows : (band + 1) * rows]
        digest = hashlib.blake2b(chunk.tobytes(), digest_size=8).hexdigest()
        keys.append(f"{band}:{digest}")
    return keys


_BAND_MIX = np.uint64(0x9E3779B97F4A7C15)


def band_key_matrix(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n, n_perm) uint64 signatures → (n, n_bands) uint64 band keys, fully
    vectorized: multiply-add chain over each band's rows, splitmix64-style
    finalization, plus a per-band offset so band i and band j occupy
    disjoint key spaces. Two docs share a band key iff their band rows are
    identical (up to negligible 64-bit mixing collisions — any false
    candidate is removed by the downstream exact verification)."""
    n, n_perm = sigs.shape
    r = n_perm // n_bands
    chunks = sigs[:, : n_bands * r].reshape(n, n_bands, r)
    h = np.zeros((n, n_bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(r):
            h = h * _BAND_MIX + chunks[:, :, i]
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
        h = h + np.arange(n_bands, dtype=np.uint64) * _BAND_MIX
    return h


class BandExploder:
    def __init__(self, n_bands: int = 16):
        self.n_bands = n_bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, keys = [], []
        for doc_id, sig in zip(batch["doc_id"].to_pylist(), batch["minhash"].to_pylist()):
            for key in lsh_band_keys(np.array(sig, dtype=np.uint64), self.n_bands):
                doc_ids.append(doc_id)
                keys.append(key)
        return pa.table(
            {"band_key": pa.array(keys, pa.string()), "doc_id": pa.array(doc_ids)}
        )


def minhash_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float((sig_a == sig_b).mean())


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (Charikar 2002)."""
    toks = text.split()
    if not toks:
        return 0
    hashes = np.array(
        [
            int.from_bytes(hashlib.blake2b(t.encode(), digest_size=8).digest(), "little")
            for t in toks
        ],
        dtype=np.uint64,
    )
    bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def simhash_batch(batch: pa.Table) -> pa.Table:
    sh = [simhash64(t or "") for t in batch["text"].to_pylist()]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "simhash": pa.array(sh, pa.uint64()),
        }
    )


def simhash_block_keys(h: int, n_blocks: int = 4) -> list[str]:
    """Split the 64-bit hash into blocks; near-dups (Hamming ≤ n_blocks-1)
    share at least one block key (pigeonhole — Manku et al., WWW'07)."""
    bits = 64 // n_blocks
    mask = (1 << bits) - 1
    return [f"{i}:{(h >> (i * bits)) & mask:x}" for i in range(n_blocks)]


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact verification for candidate pairs)
# ---------------------------------------------------------------------------


def ngram_jaccard(a: str, b: str, k: int = 3) -> float:
    from ..functions.text import jaccard, word_shingles

    return jaccard(word_shingles(a, k), word_shingles(b, k))


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def cosine_dup_pairs(ids: np.ndarray, mat: np.ndarray, threshold: float) -> list[tuple]:
    """Brute-force within-bucket pair scan (call on small groups only)."""
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    m = mat / norms
    cos = m @ m.T
    out = []
    n = len(ids)
    iu = np.triu_indices(n, k=1)
    for i, j in zip(*iu):
        if cos[i, j] >= threshold:
            out.append((ids[i], ids[j], float(cos[i, j])))
    return out
