"""Capture/relay stage: ordered, deduplicated delivery of raw feed rows.

This is the engine's version of dstream's core data path — the byte-stable
line relay (/root/reference/pkg/executor/providers.go:234-261) plus the
dual-cursor duplicate suppression of the CDC ingester (LSN cross-transaction
+ seqval within-transaction, docs/capability-inventory.md:133): a row is
accepted iff its ``turn_idx`` is at or beyond the conversation's delivery
cursor; accepted rows are emitted sorted by ``(conv_id, turn_idx)`` with
``text`` bytes untouched (Arrow string column passthrough — never through
pandas object coercion).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from dstream_ray.common import (
    DEDUP_HASH_BASES,
    FNV_PRIME,
    poly_hash_strings,
    token_strings_arrays,
    utf8_view,
)
from dstream_ray.stages.dedup import MinHasher
from dstream_ray.stages.text import PII_PATTERNS

_EMPTY_U64 = np.empty(0, dtype=np.uint64)


def relay_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    flush: bool = False,
    evict_idle_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """Accept-and-order raw transcript rows for one partition-epoch.

    ``state["next_turn"]`` maps conv_id -> next expected turn_idx (the
    positional watermark). Rows below the cursor are duplicates from a replay
    and are dropped; the cursor advances to ``last accepted + 1`` only here —
    and is persisted only after the sink publish succeeds (the caller's
    two-phase commit), matching publish-then-advance.

    ``evict_idle_us``: optional watermark-based cursor eviction — a conv
    whose last accepted event time is more than this far behind the
    partition's event-time watermark drops its cursor, bounding state on
    unbounded streams (otherwise the snapshot re-pickles O(all convs ever)
    each epoch). Tradeoff, as in any CDC retention window: rows for an
    evicted conv replayed AFTER eviction would be re-accepted, so the
    eviction TTL must exceed the upstream's maximum replay lag.
    """
    if "cdc_key" in new_rows.column_names:
        return _relay_by_key(new_rows, state, evict_idle_us=evict_idle_us)
    next_turn: dict = dict(state.get("next_turn", {}))
    track_ts = evict_idle_us is not None
    last_ts: dict = dict(state.get("last_ts", {})) if track_ts else {}
    wm_us = int(state.get("wm_us", -1))

    def _state() -> dict:
        out = {"next_turn": next_turn}
        if track_ts:
            out["last_ts"] = last_ts
            out["wm_us"] = wm_us
        return out

    if new_rows.num_rows == 0:
        return new_rows, _state()
    conv = new_rows["conv_id"]
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    enc = conv.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    names = enc.dictionary.to_pylist()  # code -> conv_id (distinct convs only)
    turn = new_rows["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((turn, codes))
    turn_s, codes_s = turn[order], codes[order]
    thr_by_code = np.array([next_turn.get(nm, 0) for nm in names], dtype=np.int64)
    thr = thr_by_code[codes_s]
    # drop replayed rows (below cursor) and intra-epoch duplicates
    dup = np.zeros(len(turn_s), dtype=bool)
    dup[1:] = (codes_s[1:] == codes_s[:-1]) & (turn_s[1:] == turn_s[:-1])
    accept = (turn_s >= thr) & ~dup
    out = new_rows.take(pa.array(order[accept]))
    # advance cursors to last accepted turn + 1 per conv
    codes_a, turn_a = codes_s[accept], turn_s[accept]
    if len(codes_a):
        a_starts = np.flatnonzero(np.r_[True, codes_a[1:] != codes_a[:-1]])
        a_ends = np.r_[a_starts[1:], len(codes_a)]
        if track_ts:
            ts_a = (
                out["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
                if isinstance(out["ts"], pa.ChunkedArray)
                else out["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            )
            seg_max = np.maximum.reduceat(ts_a, a_starts)
        for i, (s, e) in enumerate(zip(a_starts, a_ends)):
            nm = names[codes_a[s]]
            next_turn[nm] = int(turn_a[e - 1]) + 1
            if track_ts:
                last_ts[nm] = max(int(seg_max[i]), last_ts.get(nm, -1))
        if track_ts and len(ts_a):
            wm_us = max(wm_us, int(seg_max.max()))
    if track_ts and last_ts:
        cutoff = wm_us - evict_idle_us
        for nm in [n for n, t in last_ts.items() if t < cutoff]:
            del last_ts[nm]
            next_turn.pop(nm, None)
    return out, _state()


def content_dedup_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    flush: bool = False,
    evict_idle_us: int | None = None,
    watermark_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """Streaming CONTENT dedup: emit a turn iff its text was not seen
    earlier in the same conversation — suppression of repeated identical
    messages (retry storms, copy-paste loops), a standard pre-training
    feed cleaner, as an engine operator over the FULL feed rows.

    Keyed by (conv_id, content); content identity is a 64-bit mix of the
    two vectorized polynomial hashes (collision odds within one conv's
    seen-set are ~2^-64-scale — document-corpus-level dedup uses the full
    128 bits, see dataops.DEDUP_HASH_BASES). State = per-conv sorted hash
    array; ``evict_idle_us`` drops idle convs' sets against the partition
    watermark (same replay tradeoff as the relay cursor). Emissions keep
    arrival order and the full row schema; multi-epoch output == one pass
    (first occurrence is stable under any epoch split).
    """
    seen: dict = dict(state.get("seen", {}))
    track = evict_idle_us is not None
    last_ts: dict = dict(state.get("last_ts", {})) if track else {}
    wm = int(watermark_us) if watermark_us is not None else -1

    if new_rows.num_rows == 0:
        out = new_rows
    else:
        h1, h2 = poly_hash_strings(new_rows["text"], bases=DEDUP_HASH_BASES)
        with np.errstate(over="ignore"):
            combined = (h1 * FNV_PRIME) ^ h2
        conv = new_rows["conv_id"]
        if isinstance(conv, pa.ChunkedArray):
            conv = conv.combine_chunks()
        enc = conv.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        names = enc.dictionary.to_pylist()
        nb = len(codes)
        # Segment-vectorized membership + union: the carried seen-sets are
        # per-conv SORTED hash arrays, so gathering them in code order
        # yields one (seg, value)-sorted array with no sort; one stable
        # lexsort folds the batch in (prev first, then arrival order on
        # ties). An element equal to its sorted predecessor is a duplicate
        # (of the seen-set or of an earlier batch row — this also subsumes
        # the old in-batch duplicated() pre-pass); the predecessor-unique
        # elements ARE the new sorted union. Python touches only the
        # carry dict (gather + slice writeback).
        prev_vals_l = []
        prev_cnt = np.empty(len(names), dtype=np.int64)
        for c, nm in enumerate(names):
            p = seen.get(nm)
            if p is None:
                p = _EMPTY_U64
            prev_vals_l.append(p)
            prev_cnt[c] = len(p)
        seg_all = np.concatenate(
            [np.repeat(np.arange(len(names), dtype=np.int64), prev_cnt), codes]
        )
        val_all = np.concatenate(prev_vals_l + [combined])
        n_prev = int(prev_cnt.sum())
        order = np.lexsort((np.arange(len(seg_all)), val_all, seg_all))
        sa, va = seg_all[order], val_all[order]
        same = np.zeros(len(sa), dtype=bool)
        same[1:] = (sa[1:] == sa[:-1]) & (va[1:] == va[:-1])
        accept = np.ones(nb, dtype=bool)
        is_batch = order >= n_prev
        accept[order[is_batch & same] - n_prev] = False
        # new seen-sets: predecessor-unique elements, already (seg, value)
        # sorted — rejected batch values collapse onto their first copy
        uniq = ~same
        u_val, u_seg = va[uniq], sa[uniq]
        cnt = np.bincount(u_seg, minlength=len(names)).astype(np.int64)
        offs = np.concatenate([[0], np.cumsum(cnt)])
        for c, nm in enumerate(names):
            seen[nm] = u_val[offs[c]:offs[c + 1]].copy()
        if track:
            ts_np = new_rows["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            seg_max = np.full(len(names), -1, dtype=np.int64)
            np.maximum.at(seg_max, codes, ts_np)
            for c, nm in enumerate(names):
                last_ts[nm] = max(int(seg_max[c]), last_ts.get(nm, -1))
        out = new_rows.filter(pa.array(accept))
    if track and last_ts and not flush:
        cutoff = wm - evict_idle_us
        for nm in [n for n, t in last_ts.items() if t < cutoff]:
            del last_ts[nm]
            seen.pop(nm, None)
    # flush is NON-terminal by design: dedup emissions are immediate, so
    # there is nothing to force-close — the seen-sets persist and a
    # post-flush continuation keeps suppressing duplicates
    new_state: dict = {"seen": seen}
    if track:
        new_state["last_ts"] = last_ts
    return out, new_state


def _bloom_row_hashes(new_rows: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (H1, H2) double-hash pair over (conv_id, text) — the bloom
    identity key. H2 is forced odd so the k probe positions cycle the whole
    filter."""
    h1, h2 = poly_hash_strings(new_rows["text"], bases=DEDUP_HASH_BASES)
    c1, c2 = poly_hash_strings(new_rows["conv_id"], bases=DEDUP_HASH_BASES)
    with np.errstate(over="ignore"):
        H1 = (h1 * FNV_PRIME) ^ c2
        H2 = ((h2 * FNV_PRIME) ^ c1) | np.uint64(1)
    return H1, H2


def content_dedup_bloom_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    flush: bool = False,
    bits: int = 1 << 23,
    hashes: int = 6,
    rotate_rows: int | None = None,
) -> tuple[pa.Table, dict]:
    """Bounded-memory streaming content dedup: a generational Bloom filter
    per partition instead of the exact kernel's per-conv seen-sets.

    Why it exists: at 10^12 turns the exact kernel's state grows ~8 B per
    unique (conv, text) — unbounded on an endless stream. This variant holds
    a FIXED ``2 × bits/8`` bytes per partition forever. The trade is
    one-sided and tunable: a false POSITIVE (unique row suppressed) happens
    at the classic Bloom rate ((1-e^{-kn/m})^k — pick ``bits`` for the
    retention you want); a false NEGATIVE (duplicate re-emitted) happens
    only for rows older than two rotations when ``rotate_rows`` is set
    (Kafka-Streams / Flink "windowed dedup" semantics: exact within the
    retention window, forgetful beyond it).

    Sequential semantics, vectorized: a row is a duplicate iff ALL of its k
    probe bits were set before it — by the carried filter OR by an EARLIER
    row of the same epoch. The "earlier row" part is computed without a
    Python loop: ``np.unique(..., return_inverse)`` compacts the touched
    positions, ``np.minimum.at`` records each position's earliest toucher,
    and a row tests ``first_touch < own_index``. Output is therefore
    identical for ANY epoch split of the same stream (property-tested),
    because insertion is order-independent (OR) and the test reconstructs
    the exact one-row-at-a-time order.

    Rotation, when enabled, happens at deterministic PROCESSED-ROW counts
    (every ``rotate_rows`` rows through the partition), never at epoch
    boundaries — epoch splits cannot move a rotation. Membership tests the
    current AND previous generation; inserts go to the current one.

    ``flush`` is non-terminal like the exact kernel's: emissions are
    immediate, the filter persists.
    """
    if bits & (bits - 1):
        raise ValueError(f"dedup_bloom bits must be a power of two, got {bits}")
    if rotate_rows is not None and rotate_rows <= 0:
        raise ValueError("dedup_bloom rotate_rows must be positive")
    n_words = bits >> 6
    cur = state.get("cur")
    cur = cur.copy() if cur is not None else np.zeros(n_words, dtype=np.uint64)
    prev_g = state.get("prev")
    processed = int(state.get("processed", 0))

    n = new_rows.num_rows
    if n == 0:
        out = new_rows
    else:
        H1, H2 = _bloom_row_hashes(new_rows)
        k = np.arange(hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            pos = (H1[:, None] + k[None, :] * H2[:, None]) % np.uint64(bits)  # (n, k)
        accept = np.zeros(n, dtype=bool)
        # segment the batch at rotation boundaries so a mid-batch rotation
        # behaves exactly like the sequential stream: rotate before the
        # absolute row whose ordinal is a positive multiple of rotate_rows —
        # including relative row 0 when the previous epoch ended exactly on
        # a boundary (rotation is a property of the ROW STREAM, not of
        # epoch framing)
        rot_at: set[int] = set()
        if rotate_rows is not None:
            m = max(rotate_rows, ((processed + rotate_rows - 1) // rotate_rows) * rotate_rows)
            while m < processed + n:
                rot_at.add(m - processed)
                m += rotate_rows
        bounds = sorted({0, n} | rot_at)
        for s, e in zip(bounds[:-1], bounds[1:]):
            if s in rot_at:
                prev_g, cur = cur, np.zeros(n_words, dtype=np.uint64)
            seg = slice(s, e)
            # exact first-occurrence within the segment on the 128-bit pair
            dup_in_seg = pd.DataFrame({"a": H1[seg], "b": H2[seg]}).duplicated().to_numpy()
            first = np.flatnonzero(~dup_in_seg)
            if not len(first):
                continue
            p = pos[s:e][first]  # (f, k) positions of segment-first rows
            u, inv = np.unique(p, return_inverse=True)
            inv = inv.reshape(p.shape)
            word = (u >> np.uint64(6)).astype(np.int64)
            bit = np.uint64(1) << (u & np.uint64(63))
            pre_set = (cur[word] & bit) != 0
            if prev_g is not None:
                pre_set |= (prev_g[word] & bit) != 0
            first_touch = np.full(len(u), n, dtype=np.int64)
            np.minimum.at(first_touch, inv, np.broadcast_to(first[:, None], inv.shape))
            set_before = pre_set[inv] | (first_touch[inv] < first[:, None])
            accept[s + first] = ~set_before.all(axis=1)
            np.bitwise_or.at(cur, word, bit)  # insert every processed row's bits
        out = new_rows.filter(pa.array(accept))
        processed += n
    new_state: dict = {"cur": cur, "processed": processed}
    if prev_g is not None:
        new_state["prev"] = prev_g
    return out, new_state


def _isin_sorted(arr: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    """Membership of v's elements in a SORTED uint64 array (searchsorted)."""
    if arr is None or not len(arr):
        return np.zeros(len(v), dtype=bool)
    idx = np.searchsorted(arr, v)
    ok = idx < len(arr)
    out = np.zeros(len(v), dtype=bool)
    out[ok] = arr[idx[ok]] == v[ok]
    return out


_NEARDUP_HASHERS: dict = {}


def _neardup_hasher(k: int, bands: int, shingle_w: int, seed: int):
    key = (k, bands, shingle_w, seed)
    h = _NEARDUP_HASHERS.get(key)
    if h is None:
        h = _NEARDUP_HASHERS[key] = MinHasher(
            k=k, bands=bands, shingle_w=shingle_w, seed=seed
        )
    return h


def neardup_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    flush: bool = False,
    k: int = 64,
    bands: int = 16,
    shingle_w: int = 3,
    seed: int = 97,
    rotate_rows: int | None = None,
) -> tuple[pa.Table, dict]:
    """Streaming NEAR-duplicate suppression: banded-MinHash bucket collision
    against everything seen earlier in this partition's stream — the
    near-dup sibling of ``content_dedup`` (exact identity) and
    ``dedup_bloom`` (bounded exact): a row is suppressed iff ANY of its
    ``bands`` LSH band hashes was produced by an earlier row (carried
    state or an earlier row of the same epoch). ALL rows insert their
    band hashes, so suppression is transitive (keep-first per near-dup
    chain) — the streaming analogue of the batch MinHash pipeline's
    keep-cluster-minimum, within a partition.

    Identity is the SAME MinHash family as the batch dedup stage
    (``stages.dedup.MinHasher``: 64 perms, 16 bands, word-3-shingles,
    seed 97 by default), so the existing SQL machinery recomputes these
    band buckets bit-for-bit (see oracles._minhash_oracle_sql) and the
    driver gate can check the operator end-to-end.

    State = per-band SORTED uint64 hash arrays (one searchsorted
    membership + sorted-union per band per batch — Python
    touches only the band dict, ``bands`` iterations of whole-batch numpy).
    With ``rotate_rows`` set, TWO GENERATIONS rotate at deterministic
    processed-row counts exactly like ``dedup_bloom`` (membership tests
    current+previous, inserts go to current): bounded state — at most the
    hashes of 2×rotate_rows rows per partition forever, the 10^12-turn
    path; near-dups older than two rotations re-emit (windowed-dedup
    semantics). Epoch splits never move a rotation (property-tested).

    Suppression domain is the PARTITION (convs are co-partitioned by
    conv_id): cross-partition near-dups are the batch pipeline's job
    (dataops.q_minhash_dedup); this operator is the ingest-time feed
    cleaner (retry storms, template spam) at fixed per-partition state.
    ``flush`` is non-terminal: emissions are immediate, the sets persist.
    """
    if rotate_rows is not None and rotate_rows <= 0:
        raise ValueError("neardup rotate_rows must be positive")
    cur: dict = dict(state.get("cur", {}))
    prev: dict | None = state.get("prev")
    processed = int(state.get("processed", 0))

    n = new_rows.num_rows
    if n == 0:
        out = new_rows
    else:
        mh = _neardup_hasher(k, bands, shingle_w, seed)
        sigs = mh.signatures_batch(new_rows["text"])  # (n, k) uint64
        bh = mh.band_hashes(sigs)  # (n, bands): the shared bucket identity
        # rotation boundaries are a property of the ROW STREAM (absolute
        # processed-row ordinals), identical to content_dedup_bloom_kernel
        rot_at: set[int] = set()
        if rotate_rows is not None:
            m = max(
                rotate_rows,
                ((processed + rotate_rows - 1) // rotate_rows) * rotate_rows,
            )
            while m < processed + n:
                rot_at.add(m - processed)
                m += rotate_rows
        bounds = sorted({0, n} | rot_at)
        accept = np.ones(n, dtype=bool)
        for s, e in zip(bounds[:-1], bounds[1:]):
            if s in rot_at:
                prev, cur = cur, {}
            m_seg = e - s
            hit = np.zeros(m_seg, dtype=bool)
            pos = np.arange(m_seg, dtype=np.int64)
            for b in range(bands):
                v = bh[s:e, b]
                hit |= _isin_sorted(cur.get(b), v)
                if prev is not None:
                    hit |= _isin_sorted(prev.get(b), v)
                # an EARLIER row of this segment shares the band value
                u, inv = np.unique(v, return_inverse=True)
                first = np.full(len(u), m_seg, dtype=np.int64)
                np.minimum.at(first, inv, pos)
                hit |= first[inv] < pos
                # every processed row inserts (transitive suppression)
                old = cur.get(b)
                cur[b] = np.union1d(old, u) if old is not None and len(old) else u
            accept[s:e] = ~hit
        out = new_rows.filter(pa.array(accept))
        processed += n

    new_state: dict = {"cur": cur, "processed": processed}
    if prev is not None:
        new_state["prev"] = prev
    return out, new_state


def upsert_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    flush: bool = False,
    key_cols: tuple = ("conv_id", "role"),
) -> tuple[pa.Table, dict]:
    """Latest-per-key compaction over the raw feed — the consumer-side
    materialization of a CDC change stream (Kafka compacted-topic / Flink
    "deduplicate keep-last" semantics). dstream's ingester delivers SQL
    Server CDC insert/update/delete events per primary key in LSN order
    (/root/reference/test/e2e/e2e_test.go:54-79 drives exactly this feed);
    the compacted table — newest version of each key, older versions
    dropped — is the canonical downstream of that contract.

    "Latest" is ARRIVAL order (the relay's per-conv delivery order, ==
    turn_idx order within a conversation), tracked by a global sequence
    counter carried in state so the winner is identical under any epoch
    split. State is the compacted table itself — one row per distinct key,
    i.e. exactly the materialized view (bounded by key cardinality, not
    stream length). Compaction per epoch is one vectorized
    ``duplicated(keep='last')`` pass over (state ++ batch).

    Emission is at FLUSH, as a DELTA: every key whose winning version
    arrived since the previous flush, in arrival order, full row schema.
    A single-flush run therefore emits the complete compacted snapshot
    (what the engine's oracle gate compares), while periodic flushes give
    a changelog of upserts whose keep-last union is always that snapshot.
    """
    tbl: pa.Table | None = state.get("table")
    next_seq = int(state.get("next_seq", 0))
    emit_floor = int(state.get("emit_floor", 0))

    n = new_rows.num_rows
    if n:
        seq = pa.array(np.arange(next_seq, next_seq + n, dtype=np.int64))
        batch = new_rows.append_column("_seq", seq)
        next_seq += n
        tbl = pa.concat_tables([tbl, batch]) if tbl is not None else batch
        keys = pd.DataFrame({c: tbl[c].to_pandas() for c in key_cols})
        keep = ~keys.duplicated(keep="last").to_numpy()
        if not keep.all():
            tbl = tbl.filter(pa.array(keep))  # stays in _seq (arrival) order

    if flush and tbl is not None:
        seqs = tbl["_seq"].to_numpy(zero_copy_only=False)
        delta = tbl.filter(pa.array(seqs >= emit_floor))
        out = delta.drop_columns(["_seq"])
        emit_floor = next_seq
    else:
        out = new_rows.slice(0, 0)

    new_state: dict = {"next_seq": next_seq, "emit_floor": emit_floor}
    if tbl is not None:
        new_state["table"] = tbl
    return out, new_state


TS_BASE_US = 1_700_000_000_000_000


def _relay_by_key(
    new_rows: pa.Table,
    state: dict,
    *,
    evict_idle_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """Dual-cursor relay for dstream envelope feeds: dedup on the
    ``(LSN, Seq)`` key itself (``cdc_key``, zero-padded hex so lexicographic
    == numeric), not on the per-file positional ``turn_idx``.

    This is the reference's actual semantics (cross-transaction LSN +
    within-transaction seqval, docs/capability-inventory.md:133): a replayed
    shard re-delivers keys ≤ the cursor and is dropped; a CONTINUATION shard
    carries larger keys and flows through even though its per-file turn_idx
    restarted at 0. Accepted rows get a rewritten dense per-conv turn_idx
    (delivered-count cursor) and a deterministic per-conv ts, both monotone
    across shards, so every downstream window kernel sees the standard feed
    contract.

    Eviction (``evict_idle_us``): the synthetic per-conv clock (1 s per
    delivered row) is not comparable across tables, so idleness is measured
    in DELIVERY TICKS — one tick per epoch that delivered any rows; a table
    idle for more than ``evict_idle_us // 1e6`` ticks drops its cursors
    (same replay-lag tradeoff as the positional relay's eviction)."""
    last_key: dict = dict(state.get("last_key", {}))
    delivered: dict = dict(state.get("delivered", {}))
    track = evict_idle_us is not None
    last_tick: dict = dict(state.get("last_tick", {})) if track else {}
    tick = int(state.get("tick", 0))

    def _state() -> dict:
        out = {"last_key": last_key, "delivered": delivered}
        if track:
            out["last_tick"] = last_tick
            out["tick"] = tick
        return out

    if new_rows.num_rows == 0:
        return new_rows.drop_columns(["cdc_key"]), _state()
    conv = new_rows["conv_id"]
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    enc = conv.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    names = enc.dictionary.to_pylist()
    # fixed-width byte keys sort at C speed and compare lexicographically;
    # width is sized from the batch AND carried state so a key wider than
    # the historical norm is never silently truncated (a truncated key
    # aliasing an 80-byte prefix used to drop rows as duplicates)
    kdata, kstarts, kends = utf8_view(new_rows["cdc_key"])
    klens = kends - kstarts
    thr_list = [last_key.get(nm, "").encode() for nm in names]
    width = int(
        max(
            1,
            klens.max(initial=1),
            max((len(t) for t in thr_list), default=1),
        )
    )
    if len(klens) and (klens == klens[0]).all() and klens[0] == width:
        # uniform-width keys over a contiguous buffer (the normal
        # zero-padded hex case): one reshape+view, no per-row Python
        keys = np.ascontiguousarray(
            kdata[kstarts[0] : kends[-1]].reshape(len(klens), width)
        ).view(f"S{width}")[:, 0]
    else:
        keys = np.array(new_rows["cdc_key"].to_pylist(), dtype=f"S{width}")
    order = np.lexsort((keys, codes))
    codes_s, keys_s = codes[order], keys[order]
    thr = np.array(thr_list, dtype=f"S{width}")
    dup = np.zeros(len(keys_s), dtype=bool)
    dup[1:] = (codes_s[1:] == codes_s[:-1]) & (keys_s[1:] == keys_s[:-1])
    accept = (keys_s > thr[codes_s]) & ~dup
    out = new_rows.take(pa.array(order[accept]))
    codes_a, keys_a = codes_s[accept], keys_s[accept]
    # rewrite turn_idx/ts from the per-conv delivered-count cursor
    new_turn = np.zeros(len(codes_a), dtype=np.int64)
    if len(codes_a):
        a_starts = np.flatnonzero(np.r_[True, codes_a[1:] != codes_a[:-1]])
        a_ends = np.r_[a_starts[1:], len(codes_a)]
        pos = np.arange(len(codes_a), dtype=np.int64)
        within = pos - np.repeat(pos[a_starts], a_ends - a_starts)
        base = np.empty(len(codes_a), dtype=np.int64)
        tick += 1
        for s, e in zip(a_starts, a_ends):
            nm = names[codes_a[s]]
            base[s:e] = delivered.get(nm, 0)
            delivered[nm] = int(base[s]) + int(e - s)
            last_key[nm] = keys_a[e - 1].decode()
            if track:
                last_tick[nm] = tick
        new_turn = base + within
    if track and last_tick:
        idle_ticks = max(1, int(evict_idle_us) // 1_000_000)
        for nm in [n for n, t in last_tick.items() if tick - t > idle_ticks]:
            del last_tick[nm]
            last_key.pop(nm, None)
            delivered.pop(nm, None)
    idx_turn = out.column_names.index("turn_idx")
    idx_ts = out.column_names.index("ts")
    out = out.set_column(
        idx_turn, "turn_idx", pa.array(new_turn.astype(np.int32))
    )
    out = out.set_column(
        idx_ts,
        "ts",
        pa.array(TS_BASE_US + new_turn * 1_000_000).cast(pa.timestamp("us")),
    )
    return out.drop_columns(["cdc_key"]), _state()


def scrub_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    flush: bool = False,
) -> tuple[pa.Table, dict]:
    """Ingest-time PII masking: every turn's text is scrubbed with the
    batch stage's RE2 patterns (stages/text.PII_PATTERNS — emails, IPv4s,
    phone numbers → placeholder tokens) and the per-pattern match counts
    ride along as columns. STATELESS (1:1 rows, state = {} forever), so
    epoch-split invariance is structural; the value of running it in the
    engine is placement — masking happens before anything downstream of
    the exactly-once sink can see raw PII. Oracle: the committed sink
    equals ORACLE_SQL['pii_scrub'] over the same (decorated) feed."""
    import pyarrow.compute as pc

    if new_rows.num_rows == 0:
        return new_rows, {}
    text = new_rows["text"]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    out = new_rows
    for name, pattern, _ in PII_PATTERNS:
        out = out.append_column(
            f"n_{name}",
            pc.cast(pc.count_substring_regex(text, pattern), pa.int64()),
        )
    scrubbed = text
    for _, pattern, repl in PII_PATTERNS:
        scrubbed = pc.replace_substring_regex(scrubbed, pattern, repl)
    out = out.set_column(out.schema.get_field_index("text"), "text", scrubbed)
    return out, {}


_INDEX_EMPTY = pa.table(
    {
        "token": pa.array([], type=pa.string()),
        "conv_id": pa.array([], type=pa.string()),
        "turn_idx": pa.array([], type=pa.int64()),
        "tf": pa.array([], type=pa.int64()),
    }
)


def index_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    flush: bool = False,
) -> tuple[pa.Table, dict]:
    """Ingest-time inverted-index maintenance — the CDC -> search-index
    sink (the classic downstream of a change feed; ≙ the reference's
    publisher fan-out with an index as the consumer): each captured turn
    emits its postings rows ``(token, conv_id, turn_idx, tf)``, so the
    committed sink IS an inverted index's postings table in columnar form,
    kept current per epoch with exactly-once semantics. STATELESS (a turn's
    postings depend only on its own text, and the relay guarantees each
    turn is delivered once), so epoch-split invariance is structural.
    Tokenization is the byte-level deterministic tokenizer
    (common.token_strings_arrays — str.split() semantics), one
    fancy-indexed gather + one Arrow hash groupby per batch, no per-row
    Python."""
    if new_rows.num_rows == 0:
        return _INDEX_EMPTY, {}
    flat, offs = token_strings_arrays(new_rows["text"])
    if len(flat) == 0:
        return _INDEX_EMPTY, {}
    reps = np.diff(offs)
    conv = new_rows["conv_id"].cast(pa.string())
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    turn = (
        new_rows["turn_idx"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    )
    row_idx = np.repeat(np.arange(new_rows.num_rows, dtype=np.int64), reps)
    t = pa.table(
        {
            "token": flat,
            "conv_id": conv.take(pa.array(row_idx)),
            "turn_idx": pa.array(turn[row_idx]),
        }
    )
    g = pa.TableGroupBy(t, ["token", "conv_id", "turn_idx"]).aggregate(
        [([], "count_all")]
    )
    out = pa.table(
        {
            "token": g["token"],
            "conv_id": g["conv_id"],
            "turn_idx": g["turn_idx"],
            "tf": g["count_all"].cast(pa.int64()),
        }
    )
    return out, {}
