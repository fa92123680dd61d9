"""Mergeable sketches (SURVEY.md §2 custom-operator class c: "a novel
sketch"): HyperLogLog distinct counting, built for the pre-aggregation
pattern — one sketch per batch inside ``map_batches``, merged in a tiny
second stage. Registers are a numpy array; merge = elementwise max.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from dstream_ray.common import fnv1a_u64


def hll_idx_rank(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(bucket index, rank) for every raw 64-bit hash — the HLL register
    update, vectorized. FNV-1a disperses poorly in high bits for short
    similar keys; murmur3's fmix64 finalizer restores avalanche before
    bucketing. rank = leading zeros of the remaining bits + 1 (capped at
    64-p+1), EXACT via a vectorized binary search (the uint64->float log2
    trick rounds near powers of two, which would break the SQL-oracle
    register parity)."""
    with np.errstate(over="ignore"):
        h = h.copy()
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)
    rank = np.full(len(h), 64 - p + 1, dtype=np.uint8)
    nz = rest != 0
    if nz.any():
        x = rest[nz].copy()
        lz = np.zeros(len(x), dtype=np.uint8)
        for s in (32, 16, 8, 4, 2, 1):
            m = x < (np.uint64(1) << np.uint64(64 - s))
            lz[m] += s
            x[m] <<= np.uint64(s)
        rank[nz] = np.minimum(lz + 1, 64 - p + 1).astype(np.uint8)
    return idx, rank


class HLL:
    """Dense HyperLogLog with 2^p registers (standard bias-corrected
    estimator; p=12 → ~1.6% relative error)."""

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (
            registers if registers is not None else np.zeros(self.m, dtype=np.uint8)
        )

    def add_hashes(self, h: np.ndarray) -> None:
        idx, rank = hll_idx_rank(h, self.p)
        np.maximum.at(self.registers, idx, rank)

    def add_strings(self, values) -> None:
        arr = pa.array([str(v) for v in values], type=pa.string())
        self.add_hashes(fnv1a_u64(arr))

    def merge(self, other: "HLL") -> "HLL":
        assert self.p == other.p
        return HLL(self.p, np.maximum(self.registers, other.registers))

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -self.registers.astype(np.float64))
        zeros = int((self.registers == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # small-range correction
        return float(est)

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes, p: int = 12) -> "HLL":
        return cls(p, np.frombuffer(b, dtype=np.uint8).copy())


def hll_partial_batch(batch: pa.Table, *, key_col: str, value_col: str, p: int = 12) -> pa.Table:
    """One serialized HLL per key per batch (the mergeable-sketch partial),
    fully vectorized: the batch's (bucket, rank) pairs are computed once and
    scattered into a (keys × 2^p) register matrix with a single
    ``np.maximum.at`` — no per-key Python HLL builds (the windowed engine
    variant, tumbling_hll_kernel, uses the same scatter)."""
    import pyarrow.compute as pc

    key = batch[key_col]
    if isinstance(key, pa.ChunkedArray):
        key = key.combine_chunks()
    if key.null_count:
        # null keys don't name a sketch: drop their rows (the semantics of
        # the pre-vectorization pandas groupby; a null index would otherwise
        # round-trip through float NaN and scatter out of bounds)
        batch = batch.filter(pc.is_valid(key))
        key = batch[key_col]
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
    enc = key.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = batch[value_col]
    if not pa.types.is_string(vals.type):
        vals = pc.cast(vals, pa.string())
    idx, rank = hll_idx_rank(fnv1a_u64(vals), p)
    regs = np.zeros((len(enc.dictionary), 1 << p), dtype=np.uint8)
    np.maximum.at(regs, (codes, idx), rank)
    return pa.table(
        {
            "key": enc.dictionary,
            "sketch": pa.array([r.tobytes() for r in regs], type=pa.binary()),
        }
    )
