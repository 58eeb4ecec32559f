"""Multimodal column stages: image/audio treated as opaque ``large_binary``
columns with typed metadata. The Ray-side plumbing (schemas, actor-pool
signatures, small batches for large payloads, output layout) is real and
tested. Codec backends, by realism: ``PngBackend`` is a REAL decoder (the
pure-stdlib PNG codec in functions/png.py — actual pixels drive dims,
features and phash; see the ★media_png_gallery query); ``FakeDecodeBackend``
is the deterministic stand-in for formats the sandbox can't decode (dims/
features hash-derived from bytes). Audio has the same pair: ``WavBackend``
(the pure-stdlib WAV codec in functions/wav.py) and ``FakeAudioBackend``.

Usage shape (the part that matters at scale)::

    media.map_batches(ImageDecoder, fn_constructor_kwargs={...},
                      concurrency=(2, 8), batch_size=32,   # small: big payloads
                      num_cpus=1, batch_format="pyarrow")
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_META_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("span_idx", pa.int32()),
        pa.field("media_ref", pa.string()),
        pa.field("n_bytes", pa.int64()),
        pa.field("format", pa.string()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("feature", pa.list_(pa.float32())),  # embedding-like feature vector
    ]
)


class FakeDecodeBackend:
    """Deterministic stand-in for a real image decoder: format from magic-ish
    prefix, dims/features from a hash of the bytes. Lets every downstream
    stage (resize plan, feature index, layout) be built and tested for real."""

    def decode(self, data: bytes) -> tuple[str, int, int]:
        h = int.from_bytes(hashlib.blake2b(data or b"", digest_size=8).digest(), "little")
        fmt = ["jpeg", "png", "gif"][h % 3]
        return fmt, 64 + h % 1920, 64 + (h >> 16) % 1080

    def features(self, data: bytes, dim: int = 16) -> np.ndarray:
        seed = int.from_bytes(hashlib.blake2b(data or b"", digest_size=8).digest(), "little")
        rng = np.random.default_rng(seed & 0xFFFFFFFF)
        return rng.standard_normal(dim).astype(np.float32)

    def gray8(self, data: bytes) -> np.ndarray:
        """Deterministic 8×8 grayscale stand-in for a real decode+downsample
        (what PngBackend.gray8 produces from actual pixels)."""
        seed = int.from_bytes(
            hashlib.blake2b(data or b"", digest_size=8).digest(), "little"
        )
        rng = np.random.default_rng((seed >> 16) & 0xFFFFFFFF)
        return rng.integers(0, 256, size=(8, 8)).astype(np.float64)


class PngBackend:
    """REAL decode branch with zero external wheels: the pure-stdlib PNG
    codec (functions/png.py — struct+zlib, filters per RFC 2083). Unlike
    FakeDecodeBackend, dimensions/features/gray8 come from actual pixels,
    so phash/resize/feature stages run on genuine image content. Raises
    ValueError on non-PNG payloads (callers pick the backend per corpus)."""

    def decode(self, data: bytes) -> tuple[str, int, int]:
        from ..functions.png import decode_png

        px = decode_png(data or b"")
        return "png", int(px.shape[1]), int(px.shape[0])

    def features(self, data: bytes, dim: int = 16) -> np.ndarray:
        """Normalized luma histogram over ``dim`` equal bins — a real
        content feature (two encodings of the same pixels agree exactly)."""
        from ..functions.png import decode_png, luma

        y = luma(decode_png(data or b""))
        hist, _ = np.histogram(y, bins=dim, range=(0.0, 256.0))
        n = max(int(hist.sum()), 1)
        return (hist / n).astype(np.float32)

    def gray8(self, data: bytes) -> np.ndarray:
        from ..functions.png import decode_png, luma, pool8

        return pool8(luma(decode_png(data or b"")))


AUDIO_META_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("span_idx", pa.int32()),
        pa.field("media_ref", pa.string()),
        pa.field("n_bytes", pa.int64()),
        pa.field("sample_rate", pa.int32()),
        pa.field("n_samples", pa.int64()),
        pa.field("duration_ms", pa.int64()),
        pa.field("feature", pa.list_(pa.float32())),  # MFCC-like summary vector
    ]
)

FRAME_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("span_idx", pa.int32()),
        pa.field("media_ref", pa.string()),
        pa.field("frame_idx", pa.int32()),
        pa.field("ts_ms", pa.int64()),
        pa.field("feature", pa.list_(pa.float32())),
    ]
)

RESIZE_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("span_idx", pa.int32()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("new_width", pa.int32()),
        pa.field("new_height", pa.int32()),
        pa.field("scale_e4", pa.int64()),
    ]
)

# magic-byte prefixes → media kind (the router table for mixed binary
# corpora; first match wins, "unknown" otherwise)
_MAGIC_KINDS: tuple[tuple[bytes, str], ...] = (
    (b"\x89PNG\r\n\x1a\n", "png"),
    (b"\xff\xd8\xff", "jpeg"),
    (b"GIF87a", "gif"),
    (b"GIF89a", "gif"),
    (b"RIFF", "wav"),         # refined to webp below when the form is WEBP
    (b"YUV4MPEG2", "y4m"),
    (b"%PDF", "pdf"),
    (b"PK\x03\x04", "zip"),
)


def sniff_kind(data: bytes) -> str:
    """Classify a binary payload by magic bytes — the dispatch step of a
    mixed-media ingestion pipeline (route each row to its decode stage)."""
    b = data or b""
    for magic, kind in _MAGIC_KINDS:
        if b.startswith(magic):
            if kind == "wav":
                form = b[8:12]
                if form == b"WEBP":
                    return "webp"
                if form != b"WAVE":
                    return "riff-other"
            return kind
    return "unknown"


def sniff_media_batch(t: pa.Table) -> pa.Table:
    """Vectorized-enough router map: adds a ``kind`` column from each body's
    magic bytes (bodies stay untouched — zero-copy passthrough columns)."""
    kinds = [sniff_kind(b) for b in (t["body"].to_pylist())]
    return t.append_column("kind", pa.array(kinds, pa.string()))


class FakeAudioBackend:
    """Deterministic stand-in for an audio codec: sample-rate/length from a
    hash of the bytes; feature vector seeded the same way."""

    def probe(self, data: bytes) -> tuple[int, int]:
        h = int.from_bytes(hashlib.blake2b(data or b"", digest_size=8).digest(), "little")
        rate = [16000, 22050, 44100, 48000][h % 4]
        n_samples = 1000 + (h >> 8) % 10_000_000
        return rate, n_samples

    def features(self, data: bytes, dim: int = 13) -> np.ndarray:
        seed = int.from_bytes(hashlib.blake2b(data or b"", digest_size=8).digest(), "little")
        rng = np.random.default_rng((seed >> 32) & 0xFFFFFFFF)
        return rng.standard_normal(dim).astype(np.float32)


class WavBackend:
    """REAL audio branch with zero external wheels: stdlib RIFF/PCM parsing
    (functions/wav.py). probe() reads genuine header metadata; features()
    are actual DSP over the samples — RMS, zero-crossing rate, FFT band
    energies — so identical audio in different containers (mono vs
    averaged-stereo of the same signal) yields identical features."""

    def probe(self, data: bytes) -> tuple[int, int]:
        from ..functions.wav import decode_wav

        rate, x = decode_wav(data or b"")
        return rate, len(x)

    def features(self, data: bytes, dim: int = 13) -> np.ndarray:
        from ..functions.wav import band_energies, decode_wav, zero_crossings

        rate, x = decode_wav(data or b"")
        rms = float(np.sqrt(np.mean(x * x))) if len(x) else 0.0
        zcr = zero_crossings(x) / max(len(x), 1)
        return np.concatenate(
            [np.array([rms, zcr], np.float32), band_energies(x, dim - 2)]
        ).astype(np.float32)


class AudioFeatureStage:
    """Actor-pool stage: audio binary → typed metadata + summary feature.
    Same shape rules as ImageDecoder: backend in __init__, small batches."""

    def __init__(self, backend: str = "fake", feature_dim: int = 13):
        if backend == "fake":
            self.backend = FakeAudioBackend()
        elif backend == "wav":
            self.backend = WavBackend()
        else:
            raise ValueError(f"unknown audio backend {backend!r}")
        self.feature_dim = feature_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        bodies = batch["body"].to_pylist()
        rates, counts, durs, feats = [], [], [], []
        for b in bodies:
            rate, n = self.backend.probe(b or b"")
            rates.append(rate)
            counts.append(n)
            durs.append(n * 1000 // rate)
            feats.append(self.backend.features(b or b"", self.feature_dim).tolist())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "span_idx": batch["span_idx"].cast(pa.int32()),
                "media_ref": batch["url"] if "url" in batch.schema.names else batch["media_ref"],
                "n_bytes": pa.array([len(b or b"") for b in bodies], pa.int64()),
                "sample_rate": pa.array(rates, pa.int32()),
                "n_samples": pa.array(counts, pa.int64()),
                "duration_ms": pa.array(durs, pa.int64()),
                "feature": pa.array(feats, pa.list_(pa.float32())),
            }
        ).cast(AUDIO_META_SCHEMA)


class FrameSampler:
    """Actor-pool FAN-OUT stage: one video binary row → up to ``max_frames``
    frame rows sampled at a fixed stride (deterministic fake decode: frame
    count and per-frame features derive from the bytes). The output layout
    (one row per sampled frame, keyed (doc_id, span_idx, frame_idx)) is the
    real contract a downstream embedding index consumes."""

    def __init__(self, backend: str = "fake", stride: int = 10,
                 max_frames: int = 8, feature_dim: int = 16, fps: int = 25):
        if backend == "y4m":
            # REAL branch: stdlib YUV4MPEG2 parsing (functions/y4m.py) —
            # frame count/timing from the container, features from actual
            # luma (4×4 pooled grid, so feature_dim must be 16)
            if feature_dim != 16:
                raise ValueError("y4m backend pools a 4×4 luma grid "
                                 "(feature_dim must be 16)")
        elif backend != "fake":
            raise NotImplementedError(
                "compressed-video decoding requires an ffmpeg binding, not "
                "available in this environment; use 'y4m' for raw video "
                "or the fake backend"
            )
        self.backend = backend
        self.stride = stride
        self.max_frames = max_frames
        self.feature_dim = feature_dim
        self.fps = fps

    def _n_frames(self, data: bytes) -> int:
        h = int.from_bytes(hashlib.blake2b(data or b"", digest_size=8).digest(), "little")
        return 1 + h % 500

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, span_idxs, refs, fidx, ts, feats = [], [], [], [], [], []
        ref_col = "url" if "url" in batch.schema.names else "media_ref"
        for row in batch.to_pylist():
            data = row.get("body") or b""
            if self.backend == "y4m":
                from ..functions.y4m import decode_y4m, pool_grid

                num, den, frames = decode_y4m(data)
                n = len(frames)
                for k, frame in enumerate(range(0, n, self.stride)):
                    if k >= self.max_frames:
                        break
                    doc_ids.append(row["doc_id"])
                    span_idxs.append(row["span_idx"])
                    refs.append(row[ref_col])
                    fidx.append(frame)
                    ts.append(frame * 1000 * den // num)  # container timing
                    feats.append(
                        (pool_grid(frames[frame], 4).reshape(-1) / 255.0)
                        .astype(np.float32).tolist()
                    )
                continue
            n = self._n_frames(data)
            seed = int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")
            for k, frame in enumerate(range(0, n, self.stride)):
                if k >= self.max_frames:
                    break
                rng = np.random.default_rng((seed + frame) & 0xFFFFFFFF)
                doc_ids.append(row["doc_id"])
                span_idxs.append(row["span_idx"])
                refs.append(row[ref_col])
                fidx.append(frame)
                ts.append(frame * 1000 // self.fps)
                feats.append(rng.standard_normal(self.feature_dim).astype(np.float32).tolist())
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "span_idx": pa.array(span_idxs, pa.int32()),
                "media_ref": pa.array(refs, pa.string()),
                "frame_idx": pa.array(fidx, pa.int32()),
                "ts_ms": pa.array(ts, pa.int64()),
                "feature": pa.array(feats, pa.list_(pa.float32())),
            }
        ).cast(FRAME_SCHEMA)


def resize_plan_batch(batch: pa.Table, max_side: int = 512) -> pa.Table:
    """Vectorized resize planning over decoded image metadata — REAL (no
    codec needed): target dims preserve aspect ratio, longest side clamped
    to ``max_side``, never upscaled; scale reported as an e4 integer."""
    w = batch["width"].to_numpy(zero_copy_only=False).astype(np.float64)
    h = batch["height"].to_numpy(zero_copy_only=False).astype(np.float64)
    longest = np.maximum(w, h)
    scale = np.minimum(1.0, max_side / np.maximum(longest, 1.0))
    new_w = np.maximum(1, np.rint(w * scale)).astype(np.int32)
    new_h = np.maximum(1, np.rint(h * scale)).astype(np.int32)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "span_idx": batch["span_idx"].cast(pa.int32()),
            "width": batch["width"].cast(pa.int32()),
            "height": batch["height"].cast(pa.int32()),
            "new_width": pa.array(new_w),
            "new_height": pa.array(new_h),
            "scale_e4": pa.array(np.rint(scale * 10000).astype(np.int64)),
        }
    ).cast(RESIZE_SCHEMA)


class ImageDecoder:
    """Actor-pool stage: backend built once per actor (__init__), batches of
    binary payloads decoded per __call__. Keep batch_size small (payload ×
    batch × concurrency must fit the worker heap)."""

    def __init__(self, backend: str = "fake", feature_dim: int = 16):
        if backend == "fake":
            self.backend = FakeDecodeBackend()
        elif backend == "png":
            self.backend = PngBackend()
        else:
            raise ValueError(f"unknown decode backend {backend!r}")
        self.feature_dim = feature_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        bodies = batch["body"].to_pylist()
        fmts, ws, hs, feats = [], [], [], []
        for b in bodies:
            fmt, w, h = self.backend.decode(b or b"")
            fmts.append(fmt)
            ws.append(w)
            hs.append(h)
            feats.append(self.backend.features(b or b"", self.feature_dim).tolist())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "span_idx": batch["span_idx"].cast(pa.int32()),
                "media_ref": batch["url"] if "url" in batch.schema.names else batch["media_ref"],
                "n_bytes": pa.array([len(b or b"") for b in bodies], pa.int64()),
                "format": pa.array(fmts, pa.string()),
                "width": pa.array(ws, pa.int32()),
                "height": pa.array(hs, pa.int32()),
                "feature": pa.array(feats, pa.list_(pa.float32())),
            }
        ).cast(MEDIA_META_SCHEMA)


def phash64(gray: np.ndarray) -> int:
    """Average-hash over an 8×8 grayscale grid: bit i set iff pixel i is
    strictly above the grid mean — the classic aHash perceptual fingerprint
    (public method; robust to resize/re-encode when fed a real decode)."""
    bits = (np.asarray(gray, np.float64).reshape(-1) > float(np.mean(gray)))
    return int(
        (bits.astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum()
    )


class PHashStage:
    """Actor-pool stage: media payload → 64-bit perceptual hash. The backend
    supplies the 8×8 grayscale (FakeDecodeBackend derives it
    deterministically from the bytes — the same contract PngBackend fills
    from real pixels); phash64 packs the average-hash bits. Emits
    (media_ref, phash) rows for phash_near_dups."""

    def __init__(self, backend: str = "fake"):
        if backend == "fake":
            self.backend = FakeDecodeBackend()
        elif backend == "png":
            self.backend = PngBackend()
        else:
            raise ValueError(f"unknown decode backend {backend!r}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        bodies = batch["body"].to_pylist()
        ref = (
            batch["url"]
            if "url" in batch.schema.names
            else batch["media_ref"]
        )
        return pa.table(
            {
                "media_ref": ref,
                "phash": pa.array(
                    [phash64(self.backend.gray8(b or b"")) for b in bodies],
                    pa.uint64(),
                ),
            }
        )
