"""Stdlib YUV4MPEG2 parser (functions/y4m.py) + the FrameSampler y4m
branch: round-trip, C420 chroma skipping, container-driven frame timing
(including the NTSC 30000:1001 rate), and loud rejection."""

import numpy as np
import pyarrow as pa
import pytest

from ptt_spider_go_ray.functions.y4m import decode_y4m, encode_y4m, pool_grid
from ptt_spider_go_ray.stages.multimodal import FrameSampler


def _clip(n=25, h=12, w=16):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack([((xx + yy + 5 * f) % 256).astype(np.uint8)
                     for f in range(n)])


def test_roundtrip_mono_exact():
    frames = _clip()
    num, den, out = decode_y4m(encode_y4m(frames, (30, 1)))
    assert (num, den) == (30, 1)
    assert out.shape == frames.shape and (out == frames).all()


def test_c420_keeps_y_plane():
    """A hand-built C420 stream: the decoder must keep Y and skip chroma."""
    h, w = 8, 8
    y = np.arange(h * w, dtype=np.uint8).reshape(h, w)
    chroma = bytes(h * w // 2)  # 2 quarter-size planes
    data = (b"YUV4MPEG2 W8 H8 F25:1 Ip A1:1 C420jpeg\n"
            + b"FRAME\n" + y.tobytes() + chroma)
    num, den, frames = decode_y4m(data)
    assert frames.shape == (1, 8, 8) and (frames[0] == y).all()


def test_c420_odd_size_rejected():
    """Odd-size C420 has ceil(w/2)*ceil(h/2) chroma planes, not w*h/4. This
    spec-legal 5x5 stream (two frames; pixel bytes and a frame parameter
    happen to spell FRAME markers) decodes as three mis-sliced frames under
    the even-size frame length — it must raise instead."""
    data = (b"YUV4MPEG2 W5 H5 F25:1 Ip A1:1 C420jpeg\n"
            + b"FRAME\n" + bytes(25) + bytes(12) + b"FRAME\n"
            + b"FRAME X" + b"x" * 29 + b"\n" + b"FRAME\n" + bytes(19) + bytes(18))
    with pytest.raises(ValueError, match="odd size"):
        decode_y4m(data)
    with pytest.raises(ValueError, match="odd size"):
        decode_y4m(b"YUV4MPEG2 W4 H3 C420\nFRAME\n" + bytes(4 * 3 + 2 * 2 * 2))


def test_rejects_garbage_and_truncation():
    with pytest.raises(ValueError):
        decode_y4m(b"RIFF not video")
    with pytest.raises(ValueError):
        decode_y4m(b"")
    frames = _clip(n=2)
    data = encode_y4m(frames)
    with pytest.raises(ValueError):
        decode_y4m(data[:-10])  # truncated final frame


def test_frame_sampler_y4m_container_timing(ray_session):
    """Frame indices follow the stride over the REAL frame count, and
    timestamps come from the container's frame rate — including the
    fractional NTSC rate, where ts = f·1000·1001//30000."""
    frames = _clip(n=25)
    bodies = [encode_y4m(frames, (25, 1)), encode_y4m(frames, (30000, 1001))]
    batch = pa.table(
        {
            "doc_id": pa.array(["d1", "d2"]),
            "span_idx": pa.array([0, 0], pa.int32()),
            "media_ref": pa.array(["a.y4m", "b.y4m"]),
            "body": pa.array(bodies, pa.large_binary()),
        }
    )
    out = FrameSampler(backend="y4m", stride=10, max_frames=4)(batch)
    rows = out.to_pylist()
    a = [(r["frame_idx"], r["ts_ms"]) for r in rows if r["media_ref"] == "a.y4m"]
    b = [(r["frame_idx"], r["ts_ms"]) for r in rows if r["media_ref"] == "b.y4m"]
    assert a == [(0, 0), (10, 400), (20, 800)]
    assert b == [(0, 0), (10, 10 * 1000 * 1001 // 30000),
                 (20, 20 * 1000 * 1001 // 30000)]
    # features are real pooled luma in [0, 1], not random noise
    f0 = np.array(rows[0]["feature"])
    assert f0.shape == (16,) and (0 <= f0).all() and (f0 <= 1).all()
    want = (pool_grid(frames[0], 4).reshape(-1) / 255.0).astype(np.float32)
    assert np.allclose(f0, want)


def test_frame_sampler_y4m_rejects_wrong_dim():
    with pytest.raises(ValueError):
        FrameSampler(backend="y4m", feature_dim=32)
