"""Deduplication stages for training-data pipelines.

All variants follow the scale pattern from the Ray guide: vectorized
per-batch signature computation in ``map_batches`` → ONE groupby on the
signature/bucket key → per-group verification. Small sides (candidate doc
texts for exact-Jaccard verification) are broadcast with ``ray.put``.

- exact: content hash → hash-partitioned group → keep min doc_id
- MinHash + LSH: word-shingle → k-perm minhash → banded buckets →
  candidate pairs → exact Jaccard verify → min-label components
- SimHash: 64-bit sign-hash of token weights; near-dup = small Hamming dist
- n-gram Jaccard: exact pairwise within a blocking key (source)
- embedding cosine: normalized-vector LSH bucket (or brute force per group)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from dstream_ray.common import token_hash_arrays

MERSENNE = np.uint64((1 << 61) - 1)
SHINGLE_MIX = np.uint64(1000003)


def _token_hashes(text: str) -> np.ndarray:
    """Stable 64-bit hashes of whitespace tokens."""
    toks = text.split()
    if not toks:
        return np.empty(0, dtype=np.uint64)
    out = np.empty(len(toks), dtype=np.uint64)
    for i, t in enumerate(toks):
        h = np.uint64(14695981039346656037)
        with np.errstate(over="ignore"):
            for b in t.encode("utf-8"):
                h = (h ^ np.uint64(b)) * np.uint64(1099511628211)
        out[i] = h
    return out


def shingle_hashes(text: str, w: int = 3) -> np.ndarray:
    """Hashes of word w-shingles (overlapping windows of w tokens)."""
    th = _token_hashes(text)
    if len(th) == 0:
        return np.empty(0, dtype=np.uint64)
    if len(th) < w:
        return np.array([th.sum()], dtype=np.uint64)  # degenerate short doc
    with np.errstate(over="ignore"):
        acc = th[: len(th) - w + 1].copy()
        for j in range(1, w):
            acc = acc * np.uint64(1000003) + th[j : len(th) - w + 1 + j]
    return np.unique(acc)


def _segments_to_unique(doc_idx: np.ndarray, values: np.ndarray, n_docs: int):
    """Per-doc sorted-unique values -> (flat_values, doc_offsets[n+1]).

    One lexsort over the whole batch instead of one ``np.unique`` per doc."""
    if len(values) == 0:
        return values, np.zeros(n_docs + 1, dtype=np.int64)
    order = np.lexsort((values, doc_idx))
    di, v = doc_idx[order], values[order]
    keep = np.empty(len(v), dtype=bool)
    keep[0] = True
    keep[1:] = (di[1:] != di[:-1]) | (v[1:] != v[:-1])
    di, v = di[keep], v[keep]
    counts = np.bincount(di, minlength=n_docs)
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return v, offsets


def _flat_window_starts(first: np.ndarray, win_counts: np.ndarray):
    """Start indices of every length-w window of every doc, flattened.

    ``first[i]`` is doc i's first flat index, ``win_counts[i]`` its number of
    windows. Also returns the per-doc segment offsets of the output."""
    total = int(win_counts.sum())
    offsets = np.zeros(len(win_counts) + 1, dtype=np.int64)
    np.cumsum(win_counts, out=offsets[1:])
    intra = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], win_counts)
    return np.repeat(first, win_counts) + intra, offsets


def shingle_sets_batch(strings, w: int = 3):
    """Batch variant of :func:`shingle_hashes`: per-doc UNIQUE word-w-shingle
    hashes as ``(flat_values, doc_offsets[n+1])``. Bit-identical semantics to
    the scalar path (degenerate <w-token docs collapse to the token-hash sum),
    computed in O(w + log) vectorized passes over the whole batch."""
    flat, offsets = token_hash_arrays(strings)
    counts = np.diff(offsets)
    n = len(counts)
    first = offsets[:-1]
    win_counts = np.where(counts >= w, counts - w + 1, 0)
    wstart, _ = _flat_window_starts(first, win_counts)
    with np.errstate(over="ignore"):
        acc = flat[wstart].copy() if len(wstart) else np.empty(0, dtype=np.uint64)
        for j in range(1, w):
            acc = acc * SHINGLE_MIX + flat[wstart + j]
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), win_counts)
    deg = (counts > 0) & (counts < w)
    if deg.any():
        ne = counts > 0
        with np.errstate(over="ignore"):
            sums_ne = np.add.reduceat(flat, first[ne])
        deg_vals = sums_ne[deg[ne]]
        doc_idx = np.r_[doc_idx, np.flatnonzero(deg)]
        acc = np.r_[acc, deg_vals]
    return _segments_to_unique(doc_idx, acc, n)


def shingle_all_batch(strings, w: int = 3):
    """Position-preserving sibling of :func:`shingle_sets_batch`: per-doc
    word-w-shingle hashes in POSITION ORDER with NO uniquing, as
    ``(flat_values, doc_offsets[n+1])``. Same shingle identity (FNV token
    hashes folded base-1000003 mod 2^64; degenerate <w-token docs collapse
    to the token-hash sum = one position). Used where per-position counts
    matter, e.g. duplicated-span fractions in substring dedup."""
    flat, offsets = token_hash_arrays(strings)
    counts = np.diff(offsets)
    n = len(counts)
    first = offsets[:-1]
    reg_counts = np.where(counts >= w, counts - w + 1, 0)
    wstart, _ = _flat_window_starts(first, reg_counts)
    with np.errstate(over="ignore"):
        acc = flat[wstart].copy() if len(wstart) else np.empty(0, dtype=np.uint64)
        for j in range(1, w):
            acc = acc * SHINGLE_MIX + flat[wstart + j]
    out_counts = np.where(counts >= w, counts - w + 1,
                          (counts > 0).astype(np.int64))
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_offsets[1:])
    out = np.empty(out_offsets[-1], dtype=np.uint64)
    # regular docs' windows are contiguous and already in doc order in acc;
    # scatter them to their output segments in one vectorized index build
    pos, _ = _flat_window_starts(out_offsets[:-1], reg_counts)
    out[pos] = acc
    deg = (counts > 0) & (counts < w)
    if deg.any():
        ne = counts > 0
        with np.errstate(over="ignore"):
            sums_ne = np.add.reduceat(flat, first[ne])
        out[out_offsets[:-1][deg]] = sums_ne[deg[ne]]
    return out, out_offsets


def minhash_signatures_batch(
    values: np.ndarray, offsets: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(n_docs, k) MinHash signatures from per-doc shingle sets — one
    ``minimum.reduceat`` per batch instead of a per-doc loop. Docs with no
    shingles get the all-zeros signature (scalar-path parity)."""
    k = len(a)
    counts = np.diff(offsets)
    n = len(counts)
    sigs = np.zeros((n, k), dtype=np.uint64)
    ne = counts > 0
    if not ne.any():
        return sigs
    with np.errstate(over="ignore"):
        vals = (a[:, None] * values[None, :] + b[:, None]) % MERSENNE
        sigs[ne] = np.minimum.reduceat(vals, offsets[:-1][ne], axis=1).T
    return sigs


class MinHasher:
    """Actor-pool stage: per-doc MinHash signature (k permutations) +
    banded LSH keys. Permutation parameters are seeded in __init__ (once per
    actor, identical across actors). The batch path is fully vectorized
    (token/shingle hashing via Arrow-buffer numpy passes); ``signature()``
    is the scalar reference the property tests compare against."""

    def __init__(self, k: int = 64, bands: int = 16, shingle_w: int = 3, seed: int = 97):
        assert k % bands == 0
        rng = np.random.default_rng(seed)
        self.k, self.bands, self.rows = k, bands, k // bands
        self.w = shingle_w
        self.a = rng.integers(1, (1 << 61) - 1, k, dtype=np.uint64)
        self.b = rng.integers(0, (1 << 61) - 1, k, dtype=np.uint64)

    def signature(self, text: str) -> np.ndarray:
        sh = shingle_hashes(text, self.w)
        if len(sh) == 0:
            return np.zeros(self.k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            # (k, n_shingles) universal hashing, min per permutation
            vals = (self.a[:, None] * sh[None, :] + self.b[:, None]) % MERSENNE
        return vals.min(axis=1)

    def signatures_batch(self, strings) -> np.ndarray:
        values, offsets = shingle_sets_batch(strings, self.w)
        return minhash_signatures_batch(values, offsets, self.a, self.b)

    def band_hashes(self, sigs: np.ndarray) -> np.ndarray:
        """(n, k) signatures -> (n, bands) uint64 band hashes: FNV-fold of
        each band's rows. THE band-bucket identity — the batch explode
        below, the streaming ``neardup_kernel`` and the SQL oracles all
        derive from this one fold, so they stay bit-identical."""
        band_sigs = sigs.reshape(len(sigs), self.bands, self.rows)
        with np.errstate(over="ignore"):
            band_hash = band_sigs[:, :, 0].copy()
            for j in range(1, self.rows):
                band_hash = band_hash * np.uint64(1099511628211) + band_sigs[:, :, j]
        return band_hash

    def __call__(self, batch: pa.Table) -> pa.Table:
        """doc batch -> exploded (doc_id, band_id, band_hash) rows."""
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = len(doc_ids)
        sigs = self.signatures_batch(batch["text"])
        band_hash = self.band_hashes(sigs)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, self.bands)),
                "band_id": pa.array(
                    np.tile(np.arange(self.bands, dtype=np.int32), n)
                ),
                "band_hash": pa.array(band_hash.reshape(-1).astype(np.int64)),
            }
        )


def candidate_pairs_from_band_partition(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized candidate-pair extraction for a PARTITION of band rows
    (many buckets at once): sort, find same-(band_id, band_hash) runs,
    expand only the multi-doc runs. Avoids one Python call per bucket —
    buckets are numerous and tiny, partitions are few and large."""
    if not len(df):
        return pd.DataFrame({"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64")})
    df = df.sort_values(["band_id", "band_hash", "doc_id"], kind="mergesort")
    band = df["band_id"].to_numpy()
    bh = df["band_hash"].to_numpy()
    ids = df["doc_id"].to_numpy()
    new_run = np.r_[True, (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])]
    starts = np.flatnonzero(new_run)
    ends = np.r_[starts[1:], len(df)]
    sizes = ends - starts
    out_a, out_b = [], []
    for s, e in zip(starts[sizes >= 2], ends[sizes >= 2]):
        u = np.unique(ids[s:e])
        if len(u) < 2:
            continue
        ia, ib = np.triu_indices(len(u), k=1)
        out_a.append(u[ia])
        out_b.append(u[ib])
    if not out_a:
        return pd.DataFrame({"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64")})
    return pd.DataFrame(
        {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)}
    ).drop_duplicates()


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    return inter / (len(a) + len(b) - inter)


def simhash64(text: str) -> np.uint64:
    """64-bit SimHash over token hashes (unit weights)."""
    th = _token_hashes(text)
    if len(th) == 0:
        return np.uint64(0)
    bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    )
    v = (2 * bits - 1).sum(axis=0)
    out = np.uint64(0)
    with np.errstate(over="ignore"):
        for i in range(64):
            if v[i] > 0:
                out |= np.uint64(1) << np.uint64(i)
    return out


def simhash_batch_array(strings) -> np.ndarray:
    """Vectorized SimHash for a whole batch: 64 reduceat passes over the flat
    token-hash array (one per bit) instead of a per-doc × per-bit loop.
    Bit-identical to :func:`simhash64` per doc."""
    flat, offsets = token_hash_arrays(strings)
    counts = np.diff(offsets)
    n = len(counts)
    out = np.zeros(n, dtype=np.uint64)
    ne = counts > 0
    if not ne.any():
        return out
    starts_ne = offsets[:-1][ne]
    counts_ne = counts[ne].astype(np.uint64)
    bits_ne = np.zeros(int(ne.sum()), dtype=np.uint64)
    for i in range(64):
        ones = np.add.reduceat((flat >> np.uint64(i)) & np.uint64(1), starts_ne)
        # v_i = (#ones) - (#zeros) > 0  <=>  2*ones > count
        bits_ne |= (2 * ones > counts_ne).astype(np.uint64) << np.uint64(i)
    out[ne] = bits_ne
    return out


def simhash_batch(batch: pa.Table) -> pa.Table:
    hs = simhash_batch_array(batch["text"])
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "simhash": pa.array(hs.astype(np.int64)),
            # 4-band blocking key for near-dup candidate generation
            "band0": pa.array((hs & np.uint64(0xFFFF)).astype(np.int64)),
        }
    )


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    # popcount via unpackbits on the byte view
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def token_sets_batch(strings):
    """Per-doc sorted-unique token-hash sets as (flat, offsets[n+1])."""
    flat, offsets = token_hash_arrays(strings)
    n = len(offsets) - 1
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    return _segments_to_unique(doc_idx, flat, n)


def ngram_jaccard_pairs_group(group: pd.DataFrame, *, tau_x1000: int = 200) -> pd.DataFrame:
    """Exact pairwise token-set Jaccard within one blocking group.

    Output jaccard scaled to integer x1000 (floor) so the DuckDB oracle can
    match exactly. Token sets = distinct \\s+ tokens (unigrams, n=1), hashed
    to 64 bits; intersections come from a dense doc×vocab incidence matmul
    (chunked over vocab) — no per-pair Python loop. Blocks are assumed
    bounded by the blocking key (≤ ~10k docs); the quadratic term is the
    operator's definition, not an implementation accident."""
    ids = group["doc_id"].to_numpy()
    D = len(ids)
    empty = pd.DataFrame(
        {
            "doc_a": pd.Series(dtype="int64"),
            "doc_b": pd.Series(dtype="int64"),
            "jaccard_x1000": pd.Series(dtype="int64"),
        }
    )
    if D < 2:
        return empty
    flat, offsets = token_sets_batch(pa.array(group["text"].tolist(), type=pa.string()))
    sizes = np.diff(offsets).astype(np.int64)
    codes = np.unique(flat, return_inverse=True)[1]
    doc_idx = np.repeat(np.arange(D, dtype=np.int64), sizes)
    # tokens appearing in exactly one doc cannot intersect — drop them (set
    # sizes keep the full count; only the matmul shrinks)
    code_df = np.bincount(codes) if len(codes) else np.empty(0, dtype=np.int64)
    shared = code_df[codes] >= 2
    if not shared.all():
        codes = codes[shared]
        doc_idx = doc_idx[shared]
        if len(codes):
            codes = np.unique(codes, return_inverse=True)[1]
    V = int(codes.max()) + 1 if len(codes) else 0
    # ROW-BLOCKED accumulation: never hold a D x D matrix — per row block
    # accumulate (R x D) int32 intersections over vocab chunks (bounded
    # dense scatter + sgemm) and emit that block's qualifying pairs
    # immediately. Peak memory ~ R*D*4 + D*chunk*4 bytes regardless of
    # block size; chunk-matrix rebuild costs (D/R) x O(tokens), dwarfed by
    # the matmul itself.
    chunk = max(1, min(V, (1 << 24) // max(D, 1))) if V else 1
    R = max(256, min(D, (1 << 24) // max(D, 1)))
    code_order = np.argsort(codes, kind="stable") if len(codes) else codes
    codes_sorted = codes[code_order] if len(codes) else codes
    out_a, out_b, out_j = [], [], []
    for r0 in range(0, D, R):
        r1 = min(r0 + R, D)
        inter_rows = np.zeros((r1 - r0, D), dtype=np.int32)
        for lo in range(0, V, chunk):
            lo_sel = np.searchsorted(codes_sorted, lo)
            hi_sel = np.searchsorted(codes_sorted, min(lo + chunk, V))
            if hi_sel == lo_sel:
                continue
            sel = code_order[lo_sel:hi_sel]
            A = np.zeros((D, min(chunk, V - lo)), dtype=np.float32)
            A[doc_idx[sel], codes[sel] - lo] = 1.0
            inter_rows += (A[r0:r1] @ A.T).astype(np.int32)
        # pairs (i, j) with i in this row block and j > i
        ia_l, ib = np.nonzero(
            np.arange(D)[None, :] > (np.arange(r0, r1))[:, None]
        )
        ia = ia_l + r0
        inter_p = inter_rows[ia_l, ib].astype(np.int64)
        uni = sizes[ia] + sizes[ib] - inter_p
        jx = np.where(uni > 0, (1000 * inter_p) // np.maximum(uni, 1), 1000)
        hit = jx >= tau_x1000
        out_a.append(np.minimum(ids[ia[hit]], ids[ib[hit]]).astype(np.int64))
        out_b.append(np.maximum(ids[ia[hit]], ids[ib[hit]]).astype(np.int64))
        out_j.append(jx[hit].astype(np.int64))
    cat = lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64)  # noqa: E731
    return pd.DataFrame(
        {"doc_a": cat(out_a), "doc_b": cat(out_b), "jaccard_x1000": cat(out_j)}
    )


def pair_jaccard_counts_batch(texts_a, texts_b, w: int = 3):
    """(intersection, union) set-counts for N (text_a, text_b) shingle-set
    pairs — the exact-integer form of their Jaccard, so a
    threshold like j >= 4/5 can be evaluated as ``5*inter >= 4*union``
    identically in numpy and SQL (no float division at the boundary)."""
    n = len(texts_a)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    va, offa = shingle_sets_batch(texts_a, w)
    vb, offb = shingle_sets_batch(texts_b, w)
    ca, cb = np.diff(offa), np.diff(offb)
    pid = np.r_[
        np.repeat(np.arange(n, dtype=np.int64), ca),
        np.repeat(np.arange(n, dtype=np.int64), cb),
    ]
    val = np.r_[va, vb]
    order = np.lexsort((val, pid))
    pid_s, val_s = pid[order], val[order]
    dup = np.zeros(len(val_s), dtype=bool)
    if len(val_s) > 1:
        dup[1:] = (pid_s[1:] == pid_s[:-1]) & (val_s[1:] == val_s[:-1])
    inter = np.bincount(pid_s[dup], minlength=n).astype(np.int64)
    union = (ca + cb - inter).astype(np.int64)
    return inter, union


def connected_components_min_label(edges: pd.DataFrame, ids: np.ndarray) -> pd.DataFrame:
    """Min-label propagation (driver-side union-find over the — small —
    verified duplicate edge set; the guide's sanctioned fallback when the
    candidate set is provably small)."""
    parent = {int(i): int(i) for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(edges["doc_a"], edges["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    return pd.DataFrame(
        {
            "doc_id": [int(i) for i in ids],
            "cluster_id": [find(int(i)) for i in ids],
        }
    )
