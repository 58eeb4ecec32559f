"""Stdlib YUV4MPEG2 (.y4m) codec — the video analog of functions/png.py:
YUV4MPEG2 is the standard UNCOMPRESSED video interchange container
(ffmpeg/x264's raw format): a text stream header, then per-frame "FRAME\\n"
markers and raw planes. Trivially parseable with no codec work, which makes
it the honest real-video branch for FrameSampler in a sandbox without
ffmpeg.

Scope: Cmono (Y only) and the C420 family at even W and H (Y plane kept,
chroma skipped), integer frame rates F<num>:<den>. Raises ValueError on
anything else.
"""

from __future__ import annotations

import numpy as np

_MAGIC = b"YUV4MPEG2"


def encode_y4m(frames: np.ndarray, fps: tuple[int, int] = (25, 1)) -> bytes:
    """uint8 array (n, h, w) of luma frames → Cmono y4m bytes."""
    f = np.asarray(frames, np.uint8)
    if f.ndim != 3:
        raise ValueError(f"frames must be (n, h, w), got {f.shape}")
    n, h, w = f.shape
    head = f"YUV4MPEG2 W{w} H{h} F{fps[0]}:{fps[1]} Ip A1:1 Cmono\n"
    return head.encode("ascii") + b"".join(
        b"FRAME\n" + f[i].tobytes() for i in range(n)
    )


def decode_y4m(data: bytes) -> tuple[int, int, np.ndarray]:
    """y4m bytes → (fps_num, fps_den, luma frames uint8 (n, h, w)).
    C420* inputs keep the Y plane and skip chroma."""
    if not data or not data.startswith(_MAGIC):
        raise ValueError("not a YUV4MPEG2 stream (bad magic)")
    nl = data.index(b"\n")
    tokens = data[len(_MAGIC):nl].decode("ascii", "replace").split()
    w = h = None
    num, den = 25, 1
    colorspace = "C420"
    for t in tokens:
        if t.startswith("W"):
            w = int(t[1:])
        elif t.startswith("H"):
            h = int(t[1:])
        elif t.startswith("F"):
            num, den = (int(x) for x in t[1:].split(":"))
        elif t.startswith("C"):
            colorspace = t
    if not w or not h:
        raise ValueError("y4m header missing W/H")
    if colorspace == "Cmono":
        frame_len = w * h
    elif colorspace.startswith("C420"):
        # odd sizes have ceil(w/2)*ceil(h/2) chroma planes; w*h*3//2 would
        # mis-slice every frame after the first
        if w % 2 or h % 2:
            raise ValueError(f"unsupported y4m C420 with odd size {w}x{h}")
        frame_len = w * h * 3 // 2
    else:
        raise ValueError(f"unsupported y4m colorspace {colorspace}")
    pos, frames = nl + 1, []
    while pos < len(data):
        fn = data.index(b"\n", pos)
        if data[pos:pos + 5] != b"FRAME":
            raise ValueError("corrupt y4m: missing FRAME marker")
        pos = fn + 1
        plane = data[pos:pos + frame_len]
        if len(plane) < frame_len:
            raise ValueError("truncated y4m frame")
        frames.append(
            np.frombuffer(plane[: w * h], np.uint8).reshape(h, w)
        )
        pos += frame_len
    return num, den, (np.stack(frames) if frames
                      else np.zeros((0, h, w), np.uint8))


def pool_grid(gray: np.ndarray, k: int = 4) -> np.ndarray:
    """Average-pool an (h, w) array onto a k×k grid (reduceat bins)."""
    g = np.asarray(gray, np.float64)
    h, w = g.shape
    yb = np.minimum((np.arange(k) * h) // k, h - 1)
    xb = np.minimum((np.arange(k) * w) // k, w - 1)
    rows = np.add.reduceat(g, yb, axis=0)
    cells = np.add.reduceat(rows, xb, axis=1)
    ycnt = np.diff(np.append(yb, h)).clip(min=1)
    xcnt = np.diff(np.append(xb, w)).clip(min=1)
    return cells / np.outer(ycnt, xcnt)
