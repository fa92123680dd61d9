"""Shared vectorized helpers: hashing, partitioning, arrow utilities.

The consistent-hash partitioner replaces dstream's per-table stream isolation
(one goroutine + one topic per table, internal/publisher/messaging/azure/
servicebus/utils.go:14-27): here the unit of isolation is a hash bucket of
``conv_id``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

FNV_OFFSET = np.uint64(14695981039346656037)
FNV_PRIME = np.uint64(1099511628211)

# two independent polynomial bases -> 128-bit effective content key for
# exact dedup-by-hash (a single 64-bit hash starts colliding around 10^10
# docs; the pair does not). Shared by the batch dedup family and the
# streaming content-dedup kernel.
DEDUP_HASH_BASES = (1000003, 1000033)


def fnv1a_u64(strings: pa.Array | pa.ChunkedArray | list[str]) -> np.ndarray:
    """Vectorized FNV-1a 64-bit hash of a string array.

    Works column-wise over the Arrow string buffers: one numpy pass per
    character position (strings in a batch are short keys, so the number of
    passes is max key length). Deterministic across processes/nodes — unlike
    Python's seeded ``hash()`` — which the checkpoint/resume contract needs.
    """
    if isinstance(strings, list):
        strings = pa.array(strings, type=pa.string())
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if pa.types.is_large_string(strings.type):
        strings = strings.cast(pa.string())
    n = len(strings)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    arr = strings
    # Arrow string layout: buffers = [validity, offsets(int32), data(bytes)]
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int32, count=n + 1, offset=arr.offset * 4)
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    starts = offsets[:-1].astype(np.int64)
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)
    out = np.full(n, FNV_OFFSET, dtype=np.uint64)
    maxlen = int(lengths.max()) if n else 0
    with np.errstate(over="ignore"):
        for i in range(maxlen):
            mask = lengths > i
            if not mask.any():
                break
            idx = starts[mask] + i
            ch = data[idx].astype(np.uint64)
            h = out[mask]
            h = (h ^ ch) * FNV_PRIME
            out[mask] = h
    return out


def fmix64(h: np.ndarray) -> np.ndarray:
    """murmur3's fmix64 finalizer, vectorized over a uint64 array.

    FNV-1a disperses poorly in the high bits for short similar keys
    (``c7:0`` vs ``c7:1``); the finalizer restores avalanche so the hash
    can drive ORDER (bottom-k sampling) or bucketing. Identical constants
    to stages/sketches.hll_idx_rank and the HUGEINT SQL emulation the
    oracles use, so hash-ordered results are SQL-checkable."""
    with np.errstate(over="ignore"):
        h = h.astype(np.uint64, copy=True)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
    return h


def utf8_view(strings: pa.Array | pa.ChunkedArray | list[str]):
    """Zero-copy view of a string array's UTF-8 bytes.

    Returns ``(data, starts, ends)`` where ``data`` is the uint8 byte buffer
    sliced to cover exactly the array's strings, and ``starts``/``ends`` are
    int64 per-string ranges into it (contiguous: ``ends[i] == starts[i+1]``).
    The building block for every byte-level vectorized kernel (tokenization,
    rolling hashes) — no per-doc ``encode()`` calls.
    """
    if isinstance(strings, list):
        strings = pa.array(strings, type=pa.string())
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if pa.types.is_large_string(strings.type):
        strings = strings.cast(pa.string())
    n = len(strings)
    if n == 0:
        return (
            np.empty(0, dtype=np.uint8),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    bufs = strings.buffers()
    offsets = np.frombuffer(
        bufs[1], dtype=np.int32, count=n + 1, offset=strings.offset * 4
    ).astype(np.int64)
    base = offsets[0]
    data = np.frombuffer(bufs[2], dtype=np.uint8)[base : offsets[-1]]
    return data, offsets[:-1] - base, offsets[1:] - base


# Spans longer than this are hashed by a scalar per-byte loop instead of the
# vectorized per-position passes: FNV is sequential within a span, so one
# pathological span (a whitespace-free base64 blob tokenized as one "token")
# would otherwise cost `longest_span` numpy dispatches over the whole batch.
HASH_SPAN_SCALAR_CUTOFF = 4096


def token_strings_arrays(strings) -> tuple[pa.Array, np.ndarray]:
    """Token STRINGS per doc (the string twin of :func:`token_hash_arrays`):
    a ``pa.StringArray`` of every whitespace token in doc order plus int64
    ``doc_offsets[n+1]``. Built on the byte-level tokenizer
    (:func:`token_spans`), NOT ``pc.utf8_split_whitespace`` — on this host
    the Arrow split kernel nondeterministically emits phantom whitespace
    tokens on runs of whitespace (observed: ``'   '`` → ``['', ' ']`` in
    some worker executions), so every string-token kernel routes through
    this deterministic path instead. Fully vectorized: one fancy-indexed
    byte gather + ``Array.from_buffers``."""
    data, starts, ends = utf8_view(strings)
    tok_starts, tok_lengths, doc_offsets = token_spans(data, starts, ends)
    n_tok = len(tok_starts)
    total = int(tok_lengths.sum())
    if total >= (1 << 31):  # string offsets are int32; batches never get here
        raise ValueError("token_strings_arrays: batch token bytes exceed int32")
    out_off = np.zeros(n_tok + 1, dtype=np.int32)
    np.cumsum(tok_lengths, out=out_off[1:])
    intra = np.arange(total, dtype=np.int64) - np.repeat(
        out_off[:-1].astype(np.int64), tok_lengths)
    src = np.repeat(tok_starts, tok_lengths) + intra
    buf = np.ascontiguousarray(data[src]) if total else np.empty(0, np.uint8)
    tokens = pa.Array.from_buffers(
        pa.utf8(), n_tok,
        [None, pa.py_buffer(out_off.tobytes()), pa.py_buffer(buf.tobytes())])
    return tokens, doc_offsets


def _fnv1a_bytes(buf) -> int:
    h = 14695981039346656037
    for b in buf:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def hash_spans(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a 64 over arbitrary byte spans of one buffer.

    Spans are processed sorted by length, one numpy pass per byte position
    over only the still-active suffix — total work O(total span bytes), not
    O(n_spans × longest_span), so one outlier-length span cannot degrade the
    whole batch. Spans beyond :data:`HASH_SPAN_SCALAR_CUTOFF` bytes take a
    scalar per-byte path (cheaper than `length` numpy dispatches for a
    handful of giants; identical output).
    """
    n = len(starts)
    out = np.full(n, FNV_OFFSET, dtype=np.uint64)
    if n == 0:
        return out
    big = lengths > HASH_SPAN_SCALAR_CUTOFF
    if big.any():
        dbytes = data.tobytes()  # one copy; only giants pay for it
        for i in np.flatnonzero(big):
            s = int(starts[i])
            out[i] = np.uint64(_fnv1a_bytes(dbytes[s : s + int(lengths[i])]))
        small = ~big
        sub = hash_spans(data, starts[small], np.minimum(lengths[small], HASH_SPAN_SCALAR_CUTOFF))
        out[small] = sub
        return out
    order = np.argsort(lengths, kind="stable")
    s_starts = starts[order]
    s_lens = lengths[order]
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    maxlen = int(s_lens[-1]) if n else 0
    lo = 0
    with np.errstate(over="ignore"):
        for i in range(maxlen):
            while s_lens[lo] <= i:  # sorted: active spans are a suffix
                lo += 1
            ch = data[s_starts[lo:] + i].astype(np.uint64)
            h[lo:] = (h[lo:] ^ ch) * FNV_PRIME
    out[order] = h
    return out


def poly_hash_spans(
    data: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    bases: tuple[int, ...] = (1000003,),
) -> list[np.ndarray]:
    """Polynomial (Horner) hash mod 2^64 of byte spans, one result array per
    base: ``h = sum(b[i] * base^(L-1-i))`` — the whole-doc content hash for
    the exact-dedup family, replacing per-row ``hashlib`` loops.

    Unlike FNV (sequential xor-multiply), the polynomial form is a weighted
    SUM, so the whole batch is hashed in O(total bytes) numpy ops: one
    gather of byte values, one power-table lookup per base, one
    ``add.reduceat`` per base. Empty spans hash to 0. Pass two bases for a
    128-bit effective key (collision-safe grouping at 10^10+ docs; a single
    64-bit polynomial is fine for fingerprints but not for dedup-by-hash at
    that scale). SQL mirror: ``list_reduce(chars, (a,b) -> (a*BASE + b) %
    (1::HUGEINT << 64))`` (oracles.py doc_fingerprint_rolling, short docs).
    """
    n = len(starts)
    outs = [np.zeros(n, dtype=np.uint64) for _ in bases]
    if n == 0:
        return outs
    ne_idx = np.flatnonzero(lengths > 0)
    if len(ne_idx) == 0:
        return outs
    s_ne = starts[ne_idx].astype(np.int64)
    l_ne = lengths[ne_idx].astype(np.int64)
    maxlen = int(l_ne.max())
    W_by_base = []
    with np.errstate(over="ignore"):
        for base in bases:
            W = np.ones(maxlen, dtype=np.uint64)
            if maxlen > 1:
                W[1:] = np.uint64(base)
                np.multiply.accumulate(W, out=W)  # [1, B, B^2, ...] mod 2^64
            W_by_base.append(W)
        # chunk spans so the O(bytes) temporaries stay bounded (~8 MB of
        # payload per pass → tens of MB transient, regardless of block size)
        CHUNK_BYTES = 8 << 20
        cum = np.zeros(len(l_ne) + 1, dtype=np.int64)
        np.cumsum(l_ne, out=cum[1:])
        lo = 0
        while lo < len(l_ne):
            hi = int(np.searchsorted(cum, cum[lo] + CHUNK_BYTES, side="left"))
            hi = max(hi, lo + 1)
            s_c, l_c = s_ne[lo:hi], l_ne[lo:hi]
            seg_off = np.zeros(len(l_c) + 1, dtype=np.int64)
            np.cumsum(l_c, out=seg_off[1:])
            intra = np.arange(seg_off[-1], dtype=np.int64) - np.repeat(seg_off[:-1], l_c)
            byte_vals = data[np.repeat(s_c, l_c) + intra].astype(np.uint64)
            exp = np.repeat(l_c, l_c) - 1 - intra
            for bi, W in enumerate(W_by_base):
                vals = byte_vals * W[exp]
                outs[bi][ne_idx[lo:hi]] = np.add.reduceat(vals, seg_off[:-1])
            lo = hi
    return outs


def poly_hash_strings(
    strings, bases: tuple[int, ...] = (1000003,)
) -> list[np.ndarray]:
    """Whole-string polynomial hash per base over a string array (zero-copy
    Arrow buffer view + :func:`poly_hash_spans`)."""
    data, starts, ends = utf8_view(strings)
    return poly_hash_spans(data, starts, ends - starts, bases)


# ASCII whitespace lookup for byte-level tokenization. Matches Python's
# ``str.split()`` for ASCII text (the oracle's regex ``\s`` is narrower
# still); documents in non-ASCII scripts would need a codepoint-level path.
WS_LUT = np.zeros(256, dtype=bool)
WS_LUT[[9, 10, 11, 12, 13, 32]] = True


def token_spans(data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Whitespace-token boundaries for a batch of docs sharing one buffer.

    Returns ``(tok_starts, tok_lengths, doc_offsets)``: span positions into
    ``data`` (ordered by doc) and an int64 ``doc_offsets`` of length n+1
    delimiting each doc's tokens. Fully vectorized; tokens never span docs.
    """
    n = len(starts)
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.zeros(n + 1, dtype=np.int64),
    )
    if n == 0 or len(data) == 0:
        return empty
    nonws = ~WS_LUT[data]
    prev = np.empty(len(data), dtype=bool)
    prev[0] = False
    prev[1:] = nonws[:-1]
    # a token never continues across a doc boundary; trailing empty docs
    # have starts[i] == len(data), which must not be indexed
    prev[starts[starts < len(data)]] = False
    nxt = np.empty(len(data), dtype=bool)
    nxt[-1] = False
    nxt[:-1] = nonws[1:]
    last_byte = ends[ends > starts] - 1
    nxt[last_byte] = False
    tok_starts = np.flatnonzero(nonws & ~prev)
    tok_ends = np.flatnonzero(nonws & ~nxt) + 1
    if len(tok_starts) == 0:
        return empty
    doc_of = np.searchsorted(starts, tok_starts, side="right") - 1
    counts = np.bincount(doc_of, minlength=n)
    doc_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=doc_offsets[1:])
    return tok_starts, tok_ends - tok_starts, doc_offsets


def token_hash_arrays(strings) -> tuple[np.ndarray, np.ndarray]:
    """Batch variant of per-doc token hashing: FNV-1a 64 of every whitespace
    token of every doc, flat + doc offsets. Bit-identical to hashing each
    ``doc.split()`` token separately, at ~vector speed."""
    data, starts, ends = utf8_view(strings)
    tok_starts, tok_lengths, doc_offsets = token_spans(data, starts, ends)
    return hash_spans(data, tok_starts, tok_lengths), doc_offsets


def fnv1a_u64_py(s: str) -> int:
    """Scalar reference implementation (for tests)."""
    h = 14695981039346656037
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def partition_ids(conv_ids: pa.Array | pa.ChunkedArray, num_partitions: int) -> np.ndarray:
    """partition_id = fnv1a(conv_id) % P, as int32."""
    return (fnv1a_u64(conv_ids) % np.uint64(num_partitions)).astype(np.int32)


def ts_to_us(ts_col) -> np.ndarray:
    """Arrow timestamp[us] column -> int64 microseconds numpy array."""
    if isinstance(ts_col, pa.ChunkedArray):
        ts_col = ts_col.combine_chunks()
    return ts_col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where a new key-run starts in a sorted key array."""
    if len(sorted_keys) == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])


def segmented_cumcount(group_codes: np.ndarray) -> np.ndarray:
    """0-based position within each run of equal, already-contiguous codes."""
    n = len(group_codes)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    starts = segment_starts(group_codes)
    idx = np.arange(n, dtype=np.int64)
    return idx - np.repeat(idx[starts], np.diff(np.r_[starts, n]))


class BoundedCache(dict):
    """Drop-in ``dict`` with a FIFO size cap for per-process memo caches.

    Long-lived driver processes (a notebook, a service loop) call the same
    query helpers over many sf_dirs / epochs; an unbounded module-level dict
    would grow forever. This keeps plain dict semantics (``in``, ``[]``,
    ``.get``) and evicts the oldest-inserted entry once ``maxsize`` distinct
    keys are held. Insertion order is Python-dict order, so eviction is O(1)
    amortized and needs no access bookkeeping — these caches are
    build-once-read-rarely memos, not hot LRUs.
    """

    def __init__(self, maxsize: int = 8):
        super().__init__()
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)

    def __setitem__(self, key, value):
        if key in self:
            del self[key]  # refresh insertion order for the updated key
        elif len(self) >= self.maxsize:
            del self[next(iter(self))]
        super().__setitem__(key, value)
