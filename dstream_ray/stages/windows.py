"""Event-time window + stream-stream-join kernels, keyed by ``conv_id``.

These are the north-star operators layered on dstream's capture→route→sink
loop (SURVEY.md §2.5; the reference itself has no relational operators —
/root/reference/docs/design/design.md:159-166). Every kernel is a pure
vectorized function over ONE partition's rows, sorted by
``(conv_id, turn_idx)``, plus a small carried state, so the same code path
serves:

- batch mode (single epoch, ``flush=True``) — verified against DuckDB oracles;
- streaming mode (micro-batch epochs with state carried through the
  checkpoint store) — verified by resume-equivalence tests.

Closure rule: because ``ts`` is monotonically non-decreasing per conversation
(the feed contract, ≙ per-table `(lsn, seqval)` order in the reference,
/root/reference/docs/plugins/mssql-ingester.md:70-71), a window of a
conversation closes exactly when that conversation produces a row beyond it.
State per partition is therefore just the raw rows of still-open windows
("residual") plus tiny per-conv counters — a file-backed RocksDB-style store.

Performance: conv keys are Arrow-dictionary-encoded (C-speed hashing); the
hot path is numpy over integer codes — no Python-object string arrays.
Per-conv dict state is touched only once per distinct conv (not per row).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# module-level so they resolve at pickle time (the package is registered
# cloudpickle-by-value); a function-level import would re-resolve on the
# WORKER, where the repo is not on sys.path
from dstream_ray.common import fmix64, fnv1a_u64
from dstream_ray.stages.sketches import HLL

US = 1_000_000
_I64MIN = np.iinfo(np.int64).min

# Residual row layout carried in state (text replaced by its length: window
# aggregates never need the bytes, keeping state small).
RESIDUAL_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("tool", pa.string()),
        ("ts_us", pa.int64()),
        ("n_chars", pa.int64()),
    ]
)


def to_residual_rows(batch: pa.Table) -> pa.Table:
    """Project a transcripts batch to the residual/kernel row layout."""
    return pa.table(
        {
            "conv_id": batch["conv_id"].cast(pa.string()),
            "turn_idx": batch["turn_idx"].cast(pa.int32()),
            "role": batch["role"].cast(pa.string()),
            "tool": batch["tool"].cast(pa.string()),
            "ts_us": batch["ts"].cast(pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
        }
    )


@dataclass
class Cols:
    """One partition-epoch, sorted by (conv_id, turn_idx); integer-code view.

    The string columns are NOT materialized in sorted order — ``origin`` +
    ``order`` defer that, so row extraction (residual carry, join emission)
    only copies the few rows selected, never the whole table. Numeric/flag
    columns are small fancy-indexed numpy arrays."""

    origin: pa.Table  # residual-layout rows in ORIGINAL order
    order: np.ndarray  # sort permutation: sorted position -> origin row
    codes: np.ndarray  # conv dictionary codes, contiguous runs (sorted)
    uniq: pa.Array  # code -> conv_id string (appearance order)
    turn: np.ndarray
    ts: np.ndarray  # int64 µs
    n_chars: np.ndarray
    is_user: np.ndarray
    is_tool: np.ndarray
    starts: np.ndarray = field(init=False)  # conv segment starts
    ends: np.ndarray = field(init=False)

    def __post_init__(self):
        n = len(self.codes)
        self.starts = (
            np.flatnonzero(np.r_[True, self.codes[1:] != self.codes[:-1]])
            if n
            else np.empty(0, np.int64)
        )
        self.ends = np.r_[self.starts[1:], n] if n else np.empty(0, np.int64)

    def conv_names(self) -> list[str]:
        """code -> conv_id string (length = #distinct convs, small)."""
        return self.uniq.to_pylist()

    def conv_strings(self, row_sel: np.ndarray) -> pa.Array:
        """conv_id string column for the selected row indices/mask."""
        codes = self.codes[row_sel]
        return pa.DictionaryArray.from_arrays(
            pa.array(codes.astype(np.int32)), self.uniq
        ).cast(pa.string())


def prep(table: pa.Table) -> Cols:
    """Dictionary-encode conv ids and sort by (conv, turn) — all C kernels."""
    conv = table["conv_id"]
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    enc = conv.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    turn = table["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((turn, codes))
    role = table["role"]
    if isinstance(role, pa.ChunkedArray):
        role = role.combine_chunks()
    return Cols(
        origin=table,
        order=order,
        codes=codes[order],
        uniq=enc.dictionary,
        turn=turn[order],
        ts=table["ts_us"].to_numpy(zero_copy_only=False)[order],
        n_chars=table["n_chars"].to_numpy(zero_copy_only=False)[order],
        is_user=pc.equal(role, "user").to_numpy(zero_copy_only=False)[order],
        is_tool=pc.equal(role, "tool").to_numpy(zero_copy_only=False)[order],
    )


def _concat_residual(residual: pa.Table | None, new: pa.Table) -> pa.Table:
    if residual is None or residual.num_rows == 0:
        return new
    return pa.concat_tables([residual, new.select(residual.column_names)])


def _take(cols: Cols, mask: np.ndarray) -> pa.Table:
    """Selected (sorted-position) rows back into a residual-layout table —
    copies only the selected rows via one C take."""
    return cols.origin.take(pa.array(cols.order[mask]))


def _group_agg(keys: list[np.ndarray], cols: Cols) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Aggregate counts over contiguous (conv, key...) runs.

    ``keys`` are arrays non-decreasing within each conv segment, so runs of the
    composite key are contiguous -> segment reduction via np.add.reduceat.
    Returns (run_start_indices, aggregates dict).
    """
    n = len(cols.codes)
    if n == 0:
        return np.empty(0, np.int64), {}
    change = np.zeros(n, dtype=bool)
    change[0] = True
    change[1:] |= cols.codes[1:] != cols.codes[:-1]
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(change)
    ones = np.ones(n, dtype=np.int64)
    agg = {
        "n_turns": np.add.reduceat(ones, starts),
        "n_user_turns": np.add.reduceat(cols.is_user.astype(np.int64), starts),
        "n_tool_turns": np.add.reduceat(cols.is_tool.astype(np.int64), starts),
        "n_chars": np.add.reduceat(cols.n_chars, starts),
        "min_ts": np.minimum.reduceat(cols.ts, starts),
        "max_ts": np.maximum.reduceat(cols.ts, starts),
        "first_turn_idx": cols.turn[starts],
        "last_turn_idx": np.maximum.reduceat(cols.turn, starts),
    }
    return starts, agg


def _conv_last(values: np.ndarray, cols: Cols) -> np.ndarray:
    """Last value per conv segment (requires non-empty cols)."""
    return values[cols.ends - 1]


# ---------------------------------------------------------------------------
# Tumbling window
# ---------------------------------------------------------------------------

_TUMBLING_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "window_id": pa.array([], type=pa.int64()),
        "n_turns": pa.array([], type=pa.int64()),
        "n_user_turns": pa.array([], type=pa.int64()),
        "n_tool_turns": pa.array([], type=pa.int64()),
        "n_chars": pa.array([], type=pa.int64()),
    }
)


def tumbling_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    flush: bool,
    closure: str = "conv",
    watermark_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """Fixed ``width_s`` buckets per conv. window_id = floor(ts_sec/width).

    Closure policies:
    - ``"conv"`` (default): a conv's bucket closes when that conv produces a
      later row — exact under the per-conv-monotonic-ts feed contract, never
      drops data, but idle convs' windows wait for the flush.
    - ``"watermark"``: buckets whose end ≤ the partition watermark close for
      ALL convs (textbook event-time semantics; the engine injects
      ``watermark_us``). Requires the late policy: rows arriving behind the
      emitted cursor are counted in ``late_drops`` and excluded — exact on
      feeds that are globally ts-ordered across conversations.

    Oracle SQL shape:
    ``GROUP BY conv_id, CAST(floor(epoch(ts)/width) AS BIGINT)``.
    """
    w_us = width_s * US
    data = _concat_residual(state.get("residual"), new_rows)
    cols = prep(data)
    n = len(cols.codes)
    if n == 0:
        return _TUMBLING_EMPTY, state
    bucket = cols.ts // w_us
    late_drops = int(state.get("late_drops", 0))
    emitted_below = state.get("emitted_below")
    # Per-conv flush cursors (conv closure): a flush force-closes every open
    # bucket, so post-flush rows landing in an already-published bucket are
    # LATE relative to that forced closure — dropped and counted, exactly
    # like watermark mode — which is what makes flush NON-terminal (a later
    # run can keep consuming without re-emitting committed window ids).
    emitted_below_conv: dict = dict(state.get("emitted_below_conv", {}))
    if closure == "conv" and emitted_below_conv:
        names = cols.conv_names()
        lo_by_code = np.array(
            [emitted_below_conv.get(nm, _I64MIN) for nm in names], dtype=np.int64
        )
        keep = bucket >= lo_by_code[cols.codes]
        if not keep.all():
            late_drops += int((~keep).sum())
            cols = prep(_take(cols, keep))
            n = len(cols.codes)
            if n == 0:
                return _TUMBLING_EMPTY, {
                    "residual": None,
                    "emitted_below_conv": emitted_below_conv,
                    "late_drops": late_drops,
                }
            bucket = cols.ts // w_us
    if closure == "watermark" and emitted_below is not None:
        # drop rows behind the emission cursor (replay/late protection)
        keep = bucket >= emitted_below
        if not keep.all():
            late_drops += int((~keep).sum())
            cols = prep(_take(cols, keep))
            n = len(cols.codes)
            if n == 0:
                return _TUMBLING_EMPTY, {
                    "residual": None,
                    "emitted_below": emitted_below,
                    "late_drops": late_drops,
                }
            bucket = cols.ts // w_us
    starts, agg = _group_agg([bucket], cols)
    # open bucket per conv = bucket of the conv's last row
    conv_last_bucket = _conv_last(bucket, cols)
    open_bucket = np.repeat(conv_last_bucket, cols.ends - cols.starts)
    if flush:
        emit_run = np.ones(len(starts), dtype=bool)
        residual = None
        if closure == "watermark":
            return (
                _tumbling_emit(cols, bucket, starts, agg, emit_run),
                {
                    "residual": None,
                    # everything emitted: the cursor moves past the highest
                    # bucket (the old code carried the stale pre-flush value)
                    "emitted_below": int(bucket.max()) + 1,
                    "late_drops": late_drops,
                },
            )
        names = cols.conv_names()
        for s, b_last in zip(cols.starts, conv_last_bucket):
            emitted_below_conv[names[cols.codes[s]]] = int(b_last) + 1
        return (
            _tumbling_emit(cols, bucket, starts, agg, emit_run),
            {
                "residual": None,
                "emitted_below_conv": emitted_below_conv,
                "late_drops": late_drops,
            },
        )
    elif closure == "watermark":
        wm_bucket = (watermark_us if watermark_us is not None else -1) // w_us
        row_open = bucket >= wm_bucket  # bucket closes when its end <= wm
        emit_run = ~row_open[starts]
        residual = _take(cols, row_open)
        return (
            _tumbling_emit(cols, bucket, starts, agg, emit_run),
            {
                "residual": residual,
                "emitted_below": int(wm_bucket),
                "late_drops": late_drops,
            },
        )
    else:
        row_open = bucket == open_bucket
        emit_run = ~row_open[starts]
        residual = _take(cols, row_open)
    out = _tumbling_emit(cols, bucket, starts, agg, emit_run)
    return out, {
        "residual": residual,
        "emitted_below_conv": emitted_below_conv,
        "late_drops": late_drops,
    }


def _tumbling_emit(cols, bucket, starts, agg, emit_run) -> pa.Table:
    em = starts[emit_run]
    return pa.table(
        {
            "conv_id": cols.conv_strings(em),
            "window_id": pa.array(bucket[em]),
            "n_turns": pa.array(agg["n_turns"][emit_run]),
            "n_user_turns": pa.array(agg["n_user_turns"][emit_run]),
            "n_tool_turns": pa.array(agg["n_tool_turns"][emit_run]),
            "n_chars": pa.array(agg["n_chars"][emit_run]),
        }
    )


_TUMBLING_DISTINCT_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "window_id": pa.array([], type=pa.int64()),
        "n_turns": pa.array([], type=pa.int64()),
        "n_distinct": pa.array([], type=pa.int64()),
    }
)


def tumbling_distinct_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    flush: bool,
    value_col: str = "tool",
    skip_empty: bool = True,
) -> tuple[pa.Table, dict]:
    """Per-(conv, tumbling window) EXACT distinct count of ``value_col``
    (default: distinct tools used in the window) — the streaming
    ``count(DISTINCT ...)`` windowed aggregate.

    Distinctness is exact because the conv-closure residual already carries
    every open window's rows (same retention as :func:`tumbling_kernel`);
    the count happens at close over the complete window. Vectorized: one
    extra lexsort pass ``(value, window, conv)`` turns per-window distinct
    into a run-boundary sum (``np.add.reduceat`` over first-in-run |
    value-change flags) — no per-group Python.

    ``skip_empty`` ignores ''-valued rows (non-tool turns carry tool='').
    Closure/flush/late semantics are the conv-closure tumbling rules:
    a conv's window closes when a later row of that conv arrives; flush
    force-closes and advances per-conv cursors (non-terminal); post-flush
    rows behind a published window are dropped as late.

    Oracle SQL shape: ``GROUP BY conv_id, floor(epoch(ts)/width)`` with
    ``count(DISTINCT CASE WHEN tool <> '' THEN tool END)``.
    """
    w_us = width_s * US
    data = _concat_residual(state.get("residual"), new_rows)
    cols = prep(data)
    n = len(cols.codes)
    late_drops = int(state.get("late_drops", 0))
    emitted_below_conv: dict = dict(state.get("emitted_below_conv", {}))
    if n == 0:
        return _TUMBLING_DISTINCT_EMPTY, state
    bucket = cols.ts // w_us
    if emitted_below_conv:
        names = cols.conv_names()
        lo_by_code = np.array(
            [emitted_below_conv.get(nm, _I64MIN) for nm in names], dtype=np.int64
        )
        keep = bucket >= lo_by_code[cols.codes]
        if not keep.all():
            late_drops += int((~keep).sum())
            cols = prep(_take(cols, keep))
            n = len(cols.codes)
            if n == 0:
                return _TUMBLING_DISTINCT_EMPTY, {
                    "residual": None,
                    "emitted_below_conv": emitted_below_conv,
                    "late_drops": late_drops,
                }
            bucket = cols.ts // w_us

    vals = cols.origin[value_col]
    if isinstance(vals, pa.ChunkedArray):
        vals = vals.combine_chunks()
    venc = vals.dictionary_encode()
    vcode = venc.indices.to_numpy(zero_copy_only=False).astype(np.int64)[cols.order]
    if skip_empty:
        empty_mask = pc.equal(venc.dictionary, "").to_numpy(zero_copy_only=False)
        is_counted = ~empty_mask[vcode]
    else:
        is_counted = np.ones(n, dtype=bool)

    # per-(conv, bucket) distinct: runs in (conv, bucket) order with values
    # sorted inside — a value is "new" at its first appearance in the run
    ord2 = np.lexsort((vcode, bucket, cols.codes))
    c2, b2, v2 = cols.codes[ord2], bucket[ord2], vcode[ord2]
    run_change = np.r_[True, (c2[1:] != c2[:-1]) | (b2[1:] != b2[:-1])]
    val_new = np.r_[True, v2[1:] != v2[:-1]] | run_change
    contrib = (val_new & is_counted[ord2]).astype(np.int64)
    run_starts = np.flatnonzero(run_change)
    n_distinct = np.add.reduceat(contrib, run_starts)
    n_turns = np.add.reduceat(np.ones(n, dtype=np.int64), run_starts)
    run_conv = c2[run_starts]
    run_bucket = b2[run_starts]

    conv_last_bucket = _conv_last(bucket, cols)
    if flush:
        emit_run = np.ones(len(run_starts), dtype=bool)
        residual = None
        names = cols.conv_names()
        for s, b_last in zip(cols.starts, conv_last_bucket):
            emitted_below_conv[names[cols.codes[s]]] = int(b_last) + 1
    else:
        # a conv's LAST bucket stays open (same rule/order as _group_agg:
        # both sorts produce runs in ascending (conv, bucket) order)
        last_by_code = np.empty(int(cols.codes.max()) + 1, dtype=np.int64)
        last_by_code[cols.codes[cols.starts]] = conv_last_bucket
        open_run = run_bucket == last_by_code[run_conv]
        emit_run = ~open_run
        row_open = bucket == np.repeat(conv_last_bucket, cols.ends - cols.starts)
        residual = _take(cols, row_open)
    em = emit_run
    out = pa.table(
        {
            "conv_id": pa.DictionaryArray.from_arrays(
                pa.array(run_conv[em].astype(np.int32)), cols.uniq
            ).cast(pa.string()),
            "window_id": pa.array(run_bucket[em]),
            "n_turns": pa.array(n_turns[em]),
            "n_distinct": pa.array(n_distinct[em]),
        }
    )
    return out, {
        "residual": residual,
        "emitted_below_conv": emitted_below_conv,
        "late_drops": late_drops,
    }


def _quantile_empty(qs: tuple[int, ...]) -> pa.Table:
    cols = {
        "conv_id": pa.array([], type=pa.string()),
        "window_id": pa.array([], type=pa.int64()),
        "n_turns": pa.array([], type=pa.int64()),
    }
    for q in qs:
        cols[f"p{q}_len"] = pa.array([], type=pa.int64())
    return pa.table(cols)


def tumbling_quantile_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    flush: bool,
    qs: tuple[int, ...] = (50, 90),
) -> tuple[pa.Table, dict]:
    """Per-(conv, tumbling window) EXACT discrete quantiles of the turn
    text length — streaming order statistics over complete windows, with
    DuckDB ``quantile_disc`` semantics (value at sorted position
    ``ceil(q*n/100)``, 1-indexed).

    Exact because the conv-closure residual carries every open window's
    rows (same retention/closure/flush/late rules as
    :func:`tumbling_distinct_kernel`); the quantile is read at close over
    the full window. Vectorized: one ``(len, window, conv)`` lexsort makes
    values ascending inside each contiguous (conv, window) run, so each
    requested quantile is a single integer gather at
    ``run_start + ceil(q*n/100) - 1`` — no per-group Python.
    """
    w_us = width_s * US
    qs = tuple(int(q) for q in qs)
    data = _concat_residual(state.get("residual"), new_rows)
    cols = prep(data)
    n = len(cols.codes)
    late_drops = int(state.get("late_drops", 0))
    emitted_below_conv: dict = dict(state.get("emitted_below_conv", {}))
    if n == 0:
        return _quantile_empty(qs), state
    bucket = cols.ts // w_us
    if emitted_below_conv:
        names = cols.conv_names()
        lo_by_code = np.array(
            [emitted_below_conv.get(nm, _I64MIN) for nm in names], dtype=np.int64
        )
        keep = bucket >= lo_by_code[cols.codes]
        if not keep.all():
            late_drops += int((~keep).sum())
            cols = prep(_take(cols, keep))
            n = len(cols.codes)
            if n == 0:
                return _quantile_empty(qs), {
                    "residual": None,
                    "emitted_below_conv": emitted_below_conv,
                    "late_drops": late_drops,
                }
            bucket = cols.ts // w_us

    # runs in ascending (conv, bucket) order with lengths ascending inside
    ord2 = np.lexsort((cols.n_chars, bucket, cols.codes))
    c2, b2, v2 = cols.codes[ord2], bucket[ord2], cols.n_chars[ord2]
    run_change = np.r_[True, (c2[1:] != c2[:-1]) | (b2[1:] != b2[:-1])]
    run_starts = np.flatnonzero(run_change)
    run_len = np.diff(np.r_[run_starts, n])
    quants = {q: v2[run_starts + (-(-q * run_len // 100)) - 1] for q in qs}
    run_conv = c2[run_starts]
    run_bucket = b2[run_starts]

    conv_last_bucket = _conv_last(bucket, cols)
    if flush:
        emit_run = np.ones(len(run_starts), dtype=bool)
        residual = None
        names = cols.conv_names()
        for s, b_last in zip(cols.starts, conv_last_bucket):
            emitted_below_conv[names[cols.codes[s]]] = int(b_last) + 1
    else:
        # a conv's LAST bucket stays open (same rule as tumbling_distinct)
        last_by_code = np.empty(int(cols.codes.max()) + 1, dtype=np.int64)
        last_by_code[cols.codes[cols.starts]] = conv_last_bucket
        emit_run = run_bucket != last_by_code[run_conv]
        row_open = bucket == np.repeat(conv_last_bucket, cols.ends - cols.starts)
        residual = _take(cols, row_open)
    em = emit_run
    out_cols = {
        "conv_id": pa.DictionaryArray.from_arrays(
            pa.array(run_conv[em].astype(np.int32)), cols.uniq
        ).cast(pa.string()),
        "window_id": pa.array(run_bucket[em]),
        "n_turns": pa.array(run_len[em]),
    }
    for q in qs:
        out_cols[f"p{q}_len"] = pa.array(quants[q][em])
    return pa.table(out_cols), {
        "residual": residual,
        "emitted_below_conv": emitted_below_conv,
        "late_drops": late_drops,
    }


# ---------------------------------------------------------------------------
# Sliding window
# ---------------------------------------------------------------------------

_SLIDING_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "window_id": pa.array([], type=pa.int64()),
        "n_turns": pa.array([], type=pa.int64()),
        "n_chars": pa.array([], type=pa.int64()),
    }
)


def sliding_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    slide_s: int,
    flush: bool,
    closure: str = "conv",
    watermark_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """Overlapping windows [b*slide, b*slide+width); each row joins
    k = width/slide windows. Emits (conv_id, window_id=b, counts).

    Carried state: residual rows that still touch an open window, plus a
    per-conv ``emitted_below`` cursor so recomputation never re-emits a closed
    window (the analog of the dual LSN+seqval dedup cursor,
    /root/reference/docs/capability-inventory.md:133).

    ``closure="watermark"``: a window closes for ALL convs once its end ≤
    the partition watermark (idle convs emit without waiting for flush) —
    the cursor becomes one global ``wm_below`` int; rows whose newest
    window is already emitted are late-dropped (exact on globally
    ts-ordered feeds, same contract as the tumbling/session wm modes).
    """
    assert width_s % slide_s == 0, "width must be a multiple of slide"
    k = width_s // slide_s
    s_us = slide_s * US
    w_us = width_s * US
    data = _concat_residual(state.get("residual"), new_rows)
    cols = prep(data)
    emitted_below: dict = dict(state.get("emitted_below", {}))
    n = len(cols.codes)
    if n == 0:
        return _SLIDING_EMPTY, state
    b = cols.ts // s_us
    if closure == "watermark":
        return _sliding_watermark(
            cols, b, state, k=k, s_us=s_us, w_us=w_us, flush=flush,
            watermark_us=watermark_us,
        )
    # fan out each row to its k windows
    rep_idx = np.repeat(np.arange(n), k)
    offs = np.tile(np.arange(k, dtype=np.int64), n)
    win = b[rep_idx] - offs
    codes_r = cols.codes[rep_idx]
    order = np.lexsort((win, codes_r))
    rep_idx, win, codes_r = rep_idx[order], win[order], codes_r[order]
    change = np.zeros(len(win), dtype=bool)
    change[0] = True
    change[1:] = (codes_r[1:] != codes_r[:-1]) | (win[1:] != win[:-1])
    rstarts = np.flatnonzero(change)
    ones = np.ones(len(win), dtype=np.int64)
    n_turns = np.add.reduceat(ones, rstarts)
    n_chars = np.add.reduceat(cols.n_chars[rep_idx], rstarts)
    run_codes = codes_r[rstarts]
    run_win = win[rstarts]

    # per-conv closure thresholds, indexed by code
    names = cols.conv_names()
    maxb_per_conv = _conv_last(b, cols)  # b is non-decreasing within conv
    lo_by_code = np.array([emitted_below.get(nm, _I64MIN) for nm in names])
    if flush:
        hi_by_code = np.full(len(names), np.iinfo(np.int64).max)
        # flush force-closes every window: persist the cursor past each
        # conv's top bucket so a post-flush continuation can't re-emit a
        # published window id (flush is non-terminal)
        for i, nm in enumerate(names):
            emitted_below[nm] = int(max(lo_by_code[i], maxb_per_conv[i] + 1))
    else:
        hi_by_code = maxb_per_conv - k + 1
        for i, nm in enumerate(names):
            emitted_below[nm] = int(
                max(lo_by_code[i], hi_by_code[i])
                if lo_by_code[i] != _I64MIN
                else hi_by_code[i]
            )
    emit_run = (run_win < hi_by_code[run_codes]) & (run_win >= lo_by_code[run_codes])
    out = pa.table(
        {
            "conv_id": pa.DictionaryArray.from_arrays(
                pa.array(run_codes[emit_run].astype(np.int32)), cols.uniq
            ).cast(pa.string()),
            "window_id": pa.array(run_win[emit_run]),
            "n_turns": pa.array(n_turns[emit_run]),
            "n_chars": pa.array(n_chars[emit_run]),
        }
    )
    if flush:
        return out, {"residual": None, "emitted_below": emitted_below}
    # residual: rows whose top bucket still touches an open window
    keep_thresh = np.repeat(maxb_per_conv - k + 1, cols.ends - cols.starts)
    residual = _take(cols, b >= keep_thresh)
    return out, {"residual": residual, "emitted_below": emitted_below}


def _sliding_watermark(
    cols, b, state, *, k, s_us, w_us, flush, watermark_us
) -> tuple[pa.Table, dict]:
    """Watermark closure for the sliding window: one GLOBAL ``wm_below``
    cursor; window w = [w*slide, w*slide+width) closes once its end ≤ the
    partition watermark, for every conv at once."""
    late_drops = int(state.get("late_drops", 0))
    lo = state.get("wm_below")
    lo_v = int(lo) if lo is not None else _I64MIN
    # Per-conv emission floors, set ONLY by a checkpoint rescale: a conv
    # arriving from an old partition whose cursor was ahead of the new
    # (min-broadcast) global cursor must not re-emit windows its old owner
    # already published. Windows below the floor were emitted there with
    # ALL their rows (a row stays in the residual until its newest window
    # closes, so it contributed to every earlier window before moving);
    # windows at/above the floor have their full row set in the carried
    # residual — suppression is therefore exact, not approximate.
    wm_floor: dict = dict(state.get("wm_floor") or {})
    # late protection: a row whose NEWEST window (its own bucket) is already
    # emitted cannot contribute to any still-open window
    keep = b >= lo_v
    if not keep.all():
        late_drops += int((~keep).sum())
        cols = prep(_take(cols, keep))
        if len(cols.codes) == 0:
            st = {"residual": None, "wm_below": lo, "late_drops": late_drops}
            if wm_floor:
                st["wm_floor"] = wm_floor
            return _SLIDING_EMPTY, st
        b = cols.ts // s_us
    n = len(cols.codes)
    rep_idx = np.repeat(np.arange(n), k)
    offs = np.tile(np.arange(k, dtype=np.int64), n)
    win = b[rep_idx] - offs
    codes_r = cols.codes[rep_idx]
    order = np.lexsort((win, codes_r))
    rep_idx, win, codes_r = rep_idx[order], win[order], codes_r[order]
    change = np.zeros(len(win), dtype=bool)
    change[0] = True
    change[1:] = (codes_r[1:] != codes_r[:-1]) | (win[1:] != win[:-1])
    rstarts = np.flatnonzero(change)
    n_turns = np.add.reduceat(np.ones(len(win), dtype=np.int64), rstarts)
    n_chars = np.add.reduceat(cols.n_chars[rep_idx], rstarts)
    run_codes = codes_r[rstarts]
    run_win = win[rstarts]
    if flush:
        close_hi = np.iinfo(np.int64).max
        new_lo = int(win.max()) + 1
        residual = None
    else:
        wm = watermark_us if watermark_us is not None else -1
        close_hi = int((wm - w_us) // s_us) + 1  # end(w) <= wm  <=>  w < close_hi
        new_lo = max(lo_v, close_hi) if lo is not None else close_hi
        residual = _take(cols, b >= close_hi)
    emit_run = (run_win < close_hi) & (run_win >= lo_v)
    if wm_floor:
        names = cols.conv_names()
        floor_by_code = np.array(
            [wm_floor.get(nm, _I64MIN) for nm in names], dtype=np.int64
        )
        emit_run &= run_win >= floor_by_code[run_codes]
    out = pa.table(
        {
            "conv_id": pa.DictionaryArray.from_arrays(
                pa.array(run_codes[emit_run].astype(np.int32)), cols.uniq
            ).cast(pa.string()),
            "window_id": pa.array(run_win[emit_run]),
            "n_turns": pa.array(n_turns[emit_run]),
            "n_chars": pa.array(n_chars[emit_run]),
        }
    )
    st = {"residual": residual, "wm_below": int(new_lo), "late_drops": late_drops}
    if wm_floor:
        # a floor at/below the advanced global cursor can never bind again
        wm_floor = {nm: f for nm, f in wm_floor.items() if f > new_lo}
        if wm_floor:
            st["wm_floor"] = wm_floor
    return out, st


# ---------------------------------------------------------------------------
# Session window + session-scoped stream-stream join
# ---------------------------------------------------------------------------


def _assign_sessions(cols: Cols, gap_us: int) -> np.ndarray:
    """0-based session index within conv (gap-and-islands over sorted ts)."""
    n = len(cols.codes)
    if n == 0:
        return np.empty(0, np.int64)
    is_start = np.zeros(n, dtype=bool)
    is_start[0] = True
    is_start[1:] = cols.codes[1:] != cols.codes[:-1]
    gap_break = np.zeros(n, dtype=bool)
    gap_break[1:] = (~is_start[1:]) & ((cols.ts[1:] - cols.ts[:-1]) > gap_us)
    brk = (is_start | gap_break).astype(np.int64)
    csum = np.cumsum(brk)
    # subtract cumsum value at conv start so each conv restarts at 0
    conv_base = np.repeat(csum[cols.starts], cols.ends - cols.starts)
    return csum - conv_base


_SESSION_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "session_id": pa.array([], type=pa.int64()),
        "n_turns": pa.array([], type=pa.int64()),
        "n_user_turns": pa.array([], type=pa.int64()),
        "n_tool_turns": pa.array([], type=pa.int64()),
        "first_turn_idx": pa.array([], type=pa.int64()),
        "last_turn_idx": pa.array([], type=pa.int64()),
        "duration_us": pa.array([], type=pa.int64()),
    }
)


def session_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    gap_s: int,
    flush: bool,
    closure: str = "conv",
    watermark_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """Gap-based session windows. session_id = number of closed sessions of
    the conv before this one (carried across epochs via ``closed_count``).

    Closure policies (mirroring :func:`tumbling_kernel`):
    - ``"conv"`` (default): a session closes when its conv produces a row
      beyond the gap — exact under the per-conv-monotone-ts contract; idle
      convs' open sessions wait for the flush.
    - ``"watermark"``: a conv's LAST (open) session also closes once the
      partition watermark passes ``last_ts + gap`` (textbook event-time
      semantics; the engine injects ``watermark_us``) — idle convs emit
      without a flush. Rows arriving for an already-closed session (ts ≤
      emitted-through + gap) are dropped and counted in ``late_drops``;
      exact on feeds globally ts-ordered across conversations.

    Oracle SQL shape: gap-and-islands with
    ``lag(ts) OVER (PARTITION BY conv_id ORDER BY turn_idx)``.

    The ``"session"`` output of :func:`session_with_join_kernel`.
    """
    out, new_state = session_with_join_kernel(
        new_rows, state, gap_s=gap_s, flush=flush, closure=closure, watermark_us=watermark_us
    )
    return out["session"], new_state


def _last_user_turn(cols: Cols, sess: np.ndarray) -> np.ndarray:
    """Most recent user turn_idx at each row within its (conv, session) run.

    Pure numpy: positions are globally increasing, so a GLOBAL running max of
    user-row positions is correct within a run once clamped to the run start
    (a carried-over position from an earlier run is < run_start and rejected).
    """
    n = len(cols.codes)
    pos = np.arange(n, dtype=np.int64)
    run_change = np.r_[True, (cols.codes[1:] != cols.codes[:-1]) | (sess[1:] != sess[:-1])]
    run_starts = np.flatnonzero(run_change)
    run_start_per_row = np.repeat(run_starts, np.diff(np.r_[run_starts, n]))
    user_pos = np.maximum.accumulate(np.where(cols.is_user, pos, -1))
    ok = user_pos >= run_start_per_row
    out = np.full(n, -1, dtype=np.int64)
    out[ok] = cols.turn[user_pos[ok]]
    return out


_JOIN_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "session_id": pa.array([], type=pa.int64()),
        "user_turn_idx": pa.array([], type=pa.int64()),
        "tool_turn_idx": pa.array([], type=pa.int64()),
        "tool": pa.array([], type=pa.string()),
    }
)


def session_join_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    gap_s: int,
    flush: bool,
) -> tuple[pa.Table, dict]:
    """Stream-stream join: each ``tool`` turn pairs with the most recent
    ``user`` turn in the SAME session of the same conv (north-star W5,
    user-turn ↔ tool-turn within a session window).

    Emitted when the session closes (deterministic w.r.t. epoch boundaries).
    Oracle SQL shape: running ``max(CASE WHEN role='user' THEN turn_idx END)
    OVER (PARTITION BY conv_id, session ORDER BY turn_idx)`` filtered to
    tool rows. The ``"session_join"`` output of
    :func:`session_with_join_kernel`.
    """
    out, new_state = session_with_join_kernel(new_rows, state, gap_s=gap_s, flush=flush)
    return out["session_join"], new_state


_INTERVAL_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "user_turn_idx": pa.array([], type=pa.int64()),
        "tool_turn_idx": pa.array([], type=pa.int64()),
        "dt_us": pa.array([], type=pa.int64()),
    }
)

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)
_EMPTY_PAIR = (_EMPTY_I64, _EMPTY_I64)
_EMPTY_TRIPLE = (_EMPTY_I64, _EMPTY_I64, _EMPTY_BOOL)  # outer_join: +hit flag


def _gather_bufs(buf: dict, names: list, seg_codes: np.ndarray,
                 empty: tuple = _EMPTY_PAIR):
    """Flatten per-conv array-tuple buffers for the convs present in this
    batch into conv-contiguous arrays + per-segment counts. ``empty`` fixes
    the tuple arity and dtypes (pairs for the join buffers, triples for
    outer_join's (turn, ts, hit)). The ONLY Python-per-conv work in the
    segment-vectorized join kernels is this gather and the final
    slice-writeback — all numeric work (sort, searchsorted, ragged pair
    expansion, pruning) is whole-batch. Returns ``(*arrays, cnt)``."""
    width = len(empty)
    lists: list[list] = [[] for _ in range(width)]
    cnt = np.empty(len(seg_codes), dtype=np.int64)
    for i, c in enumerate(seg_codes):
        entry = buf.get(names[c], empty)
        for j in range(width):
            lists[j].append(entry[j])
        cnt[i] = len(entry[0])
    if cnt.sum() == 0:
        return (*empty, cnt)
    return (*(np.concatenate(x) for x in lists), cnt)


def _scatter_bufs(
    buf: dict, names: list, seg_codes: np.ndarray, cnt: np.ndarray,
    *arrays: np.ndarray,
) -> None:
    """Write conv-contiguous arrays back into the per-conv carry dict.
    Slices are copied so the carry does not pin the whole batch array;
    convs left with nothing buffered drop their entry (bounded state)."""
    offs = np.concatenate([[0], np.cumsum(cnt)])
    for i, c in enumerate(seg_codes):
        s, e = offs[i], offs[i + 1]
        if e > s:
            buf[names[c]] = tuple(a[s:e].copy() for a in arrays)
        else:
            buf.pop(names[c], None)


def _merge_seg_sorted(a_seg, a_turn, a_ts, b_seg, b_turn, b_ts):
    """Merge two (seg, ts)-sorted row sets into one, stable (a before b on
    ties) — the whole-batch analog of per-conv concat+stable-sort."""
    seg = np.concatenate([a_seg, b_seg])
    turn = np.concatenate([a_turn, b_turn])
    ts = np.concatenate([a_ts, b_ts])
    order = np.lexsort((np.arange(len(seg)), ts, seg))
    return seg[order], turn[order], ts[order]


def _seg_window_bounds(t_seg, t_ts, p_seg, p_lo, p_hi):
    """For each probe (segment id, [p_lo, p_hi] ts window) return the
    [lo, hi) index range of matching targets, where targets are sorted by
    (seg, ts). One pair of GLOBAL searchsorted calls via the bias trick:
    key = seg * span + (ts - base). If segment-count x ts-span would
    overflow the int64 key domain (pathological: years of skew x tens of
    thousands of convs in ONE batch), the segment range splits in half
    and recurses — each half's bias domain shrinks, bottoming out at one
    segment per call."""
    if len(t_ts) == 0 or len(p_seg) == 0:
        z = np.zeros(len(p_seg), dtype=np.int64)
        return z, z
    base = int(t_ts.min())
    span = int(t_ts.max()) - base + 1
    n_seg = int(max(t_seg.max(), p_seg.max())) + 1
    if n_seg > 1 and n_seg * span >= (1 << 62):
        mid = n_seg // 2
        t_cut = int(np.searchsorted(t_seg, mid, side="left"))
        pm = p_seg < mid
        lo = np.empty(len(p_seg), dtype=np.int64)
        hi = np.empty(len(p_seg), dtype=np.int64)
        lo[pm], hi[pm] = _seg_window_bounds(
            t_seg[:t_cut], t_ts[:t_cut], p_seg[pm], p_lo[pm], p_hi[pm]
        )
        lo_r, hi_r = _seg_window_bounds(
            t_seg[t_cut:] - mid, t_ts[t_cut:], p_seg[~pm] - mid,
            p_lo[~pm], p_hi[~pm],
        )
        lo[~pm], hi[~pm] = lo_r + t_cut, hi_r + t_cut
        return lo, hi
    biased = t_seg * span + (t_ts - base)
    # clip deltas so out-of-range probe windows resolve to EMPTY ranges
    # instead of clamping onto real targets: lo clips to span (= one past
    # the segment's last key) when the window starts above every target,
    # hi clips to -1 (= below the segment's first key) when it ends below
    lo_key = p_seg * span + np.clip(p_lo - base, 0, span)
    hi_key = p_seg * span + np.clip(p_hi - base, -1, span - 1)
    lo = np.searchsorted(biased, lo_key, side="left")
    hi = np.searchsorted(biased, hi_key, side="right")
    return lo, np.maximum(lo, hi)


def _ragged_expand(lo: np.ndarray, hi: np.ndarray):
    """(probe_rep, target_idx) for ragged ranges [lo_i, hi_i)."""
    cnt = hi - lo
    total = int(cnt.sum())
    if not total:
        return _EMPTY_I64, _EMPTY_I64
    off = np.repeat(np.cumsum(cnt) - cnt, cnt)
    t_idx = np.repeat(lo, cnt) + (np.arange(total, dtype=np.int64) - off)
    p_rep = np.repeat(np.arange(len(lo), dtype=np.int64), cnt)
    return p_rep, t_idx


def interval_join_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    within_s: int,
    flush: bool = False,
) -> tuple[pa.Table, dict]:
    """Streaming interval join (the Flink interval-join shape): every
    (user turn u, tool turn t) of the same conv with ``|t.ts - u.ts| <=
    within_s`` pairs exactly once, emitted in the epoch where the LATER
    side arrives — no window closure to wait for, so emissions are
    immediate and ``flush`` is non-terminal.

    State per conv = the trailing ``within_s`` of user rows and tool rows
    (ts-sorted (turn, ts) arrays). Pruning keeps rows with
    ``ts >= conv_max_ts - within_s``: per-conv event time is monotone in
    the relay's feed contract, so anything older can never match a future
    row. That bounds state by arrival-rate × within_s per conv — the
    interval join's natural retention — independent of stream length.

    Epoch-split invariance: each epoch emits new×(old ∪ new) + old×new
    pairs; "old" is exactly the set already paired among itself in earlier
    epochs, so the union over any split is all qualifying pairs, each once
    (property-tested). SQL oracle shape: a self-join on conv_id with
    ``abs(dt) <= within_s`` between role='user' and role='tool' rows.

    Segment-vectorized: the per-conv work is only the carry-dict gather /
    slice-writeback; pairing is two global searchsorted calls over
    (segment, ts)-biased keys + one ragged expansion, and buffer pruning
    is one boolean mask — so kernel cost scales with ROWS, not with the
    number of (possibly tiny) conversations in the batch.
    """
    W = int(within_s) * US
    u_buf: dict = dict(state.get("u", {}))
    t_buf: dict = dict(state.get("t", {}))
    if new_rows.num_rows == 0:
        return _INTERVAL_EMPTY, {"u": u_buf, "t": t_buf}
    cols = prep(new_rows)
    names = cols.conv_names()
    S = len(cols.starts)
    seg_codes = cols.codes[cols.starts]
    seg_ids = np.arange(S, dtype=np.int64)
    row_seg = np.repeat(seg_ids, cols.ends - cols.starts)

    ou_turn, ou_ts, ou_cnt = _gather_bufs(u_buf, names, seg_codes)
    ot_turn, ot_ts, ot_cnt = _gather_bufs(t_buf, names, seg_codes)
    ou_seg = np.repeat(seg_ids, ou_cnt)
    ot_seg = np.repeat(seg_ids, ot_cnt)

    um, tm = cols.is_user, cols.is_tool
    nu_turn, nu_ts, nu_seg = cols.turn[um], cols.ts[um], row_seg[um]
    nt_turn, nt_ts, nt_seg = cols.turn[tm], cols.ts[tm], row_seg[tm]

    # merged tool side (old ∪ new), (seg, ts)-sorted — targets for family
    # 1 AND (after pruning) the next tool buffer
    mt_seg, mt_turn, mt_ts = _merge_seg_sorted(
        ot_seg, ot_turn, ot_ts, nt_seg, nt_turn, nt_ts
    )

    em_code, em_u, em_t, em_dt = [], [], [], []
    # family 1: new user rows probe ALL tool rows (old + new)
    p_rep, t_idx = _ragged_expand(
        *_seg_window_bounds(mt_seg, mt_ts, nu_seg, nu_ts - W, nu_ts + W)
    )
    if len(p_rep):
        em_code.append(seg_codes[nu_seg[p_rep]])
        em_u.append(nu_turn[p_rep])
        em_t.append(mt_turn[t_idx])
        em_dt.append(mt_ts[t_idx] - nu_ts[p_rep])
    # family 2: new tool rows probe only OLD user rows (new×new done above)
    p_rep, t_idx = _ragged_expand(
        *_seg_window_bounds(ou_seg, ou_ts, nt_seg, nt_ts - W, nt_ts + W)
    )
    if len(p_rep):
        em_code.append(seg_codes[nt_seg[p_rep]])
        em_u.append(ou_turn[t_idx])
        em_t.append(nt_turn[p_rep])
        em_dt.append(nt_ts[p_rep] - ou_ts[t_idx])

    # update + prune both buffers against each conv's advanced clock
    mu_seg, mu_turn, mu_ts = _merge_seg_sorted(
        ou_seg, ou_turn, ou_ts, nu_seg, nu_turn, nu_ts
    )
    cut = cols.ts[cols.ends - 1] - W  # per segment
    for seg_a, turn_a, ts_a, buf in (
        (mu_seg, mu_turn, mu_ts, u_buf),
        (mt_seg, mt_turn, mt_ts, t_buf),
    ):
        keep = ts_a >= cut[seg_a]
        kept_seg = seg_a[keep]
        cnt = np.bincount(kept_seg, minlength=S).astype(np.int64)
        _scatter_bufs(buf, names, seg_codes, cnt, turn_a[keep], ts_a[keep])

    if not em_code:
        return _INTERVAL_EMPTY, {"u": u_buf, "t": t_buf}
    codes = np.concatenate(em_code)
    out = pa.table(
        {
            "conv_id": pa.DictionaryArray.from_arrays(
                pa.array(codes.astype(np.int32)), cols.uniq
            ).cast(pa.string()),
            "user_turn_idx": pa.array(np.concatenate(em_u)),
            "tool_turn_idx": pa.array(np.concatenate(em_t)),
            "dt_us": pa.array(np.concatenate(em_dt)),
        }
    )
    return out, {"u": u_buf, "t": t_buf}


# ---------------------------------------------------------------------------
# Fused session + join (one prep, one session assignment, shared residual)
# ---------------------------------------------------------------------------


def _session_numbering(
    cols: Cols,
    sess: np.ndarray,
    closed_count: dict,
    emit_codes: np.ndarray,
    *,
    flush: bool,
    wm_closed: np.ndarray | None,
    emitted_through: dict,
) -> tuple[np.ndarray, dict]:
    """Session ids continue across epochs: a session's id is the number of
    sessions its conv closed in earlier epochs (``closed_count``) plus its
    index within this epoch.

    Returns that base per conv code, filled only at ``emit_codes`` (the convs
    with an emitted session or pair), and the counts advanced past every
    session this epoch closes; absent convs keep their counts. Only the
    convs that close one are visited: every conv on a flush (it is
    non-terminal and publishes the open session too, so a continuation
    numbers new sessions after it), otherwise those whose last
    session index is > 0 or whose last session the watermark closed
    (``wm_closed``, per conv segment). For the latter, ``emitted_through``
    advances in place to their last event time."""
    base_by_code = np.zeros(len(cols.uniq), dtype=np.int64)
    used = np.unique(emit_codes)
    if len(used):
        names = cols.uniq.take(used).to_pylist()
        base_by_code[used] = [closed_count.get(nm, 0) for nm in names]
    seg_codes = cols.codes[cols.starts]
    inc = np.zeros(len(cols.uniq), dtype=np.int64)
    inc[seg_codes] = _conv_last(sess, cols) + (1 if flush else 0)
    if wm_closed is not None:
        inc[seg_codes] += wm_closed
        closed = seg_codes[wm_closed]
        through = _conv_last(cols.ts, cols)[wm_closed]
        for nm, t in zip(cols.uniq.take(closed).to_pylist(), through.tolist()):
            emitted_through[nm] = max(t, emitted_through.get(nm, _I64MIN))
    adv = np.flatnonzero(inc)
    new_closed = dict(closed_count)
    for nm, k in zip(cols.uniq.take(adv).to_pylist(), inc[adv].tolist()):
        new_closed[nm] = new_closed.get(nm, 0) + k
    return base_by_code, new_closed


def session_with_join_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    gap_s: int,
    flush: bool,
    closure: str = "conv",
    watermark_us: int | None = None,
) -> tuple[dict[str, pa.Table], dict]:
    """Fused session window + session-scoped join: both operators share the
    identical closure rule (the conv's LAST session stays open), so one
    prep/sort and ONE residual serve both outputs,
    {"session": ..., "session_join": ...}; :func:`session_kernel` and
    :func:`session_join_kernel` each return one of them.
    ``closure="watermark"`` closes idle convs' last sessions at
    wm > last_ts + gap for BOTH outputs, with the late-drop semantics
    :func:`session_kernel` documents."""
    gap_us = gap_s * US
    data = _concat_residual(state.get("residual"), new_rows)
    cols = prep(data)
    closed_count: dict = state.get("closed_count", {})
    late_drops = int(state.get("late_drops", 0))
    emitted_through: dict = dict(state.get("emitted_through", {}))
    if len(cols.codes) == 0:
        return {"session": _SESSION_EMPTY, "session_join": _JOIN_EMPTY}, state
    if closure == "watermark" and emitted_through:
        thr = np.array(
            [emitted_through.get(nm, _I64MIN) for nm in cols.conv_names()], dtype=np.int64
        )
        cut = np.where(thr == _I64MIN, _I64MIN, thr + gap_us)
        late = cols.ts <= cut[cols.codes]
        if late.any():
            late_drops += int(late.sum())
            cols = prep(_take(cols, ~late))
            if len(cols.codes) == 0:
                return (
                    {"session": _SESSION_EMPTY, "session_join": _JOIN_EMPTY},
                    {
                        "residual": None,
                        "closed_count": closed_count,
                        "late_drops": late_drops,
                        "emitted_through": emitted_through,
                    },
                )
    sess = _assign_sessions(cols, gap_us)
    # --- session aggregate over contiguous (conv, session) runs
    starts, agg = _group_agg([sess], cols)
    # --- join pairs
    last_user = _last_user_turn(cols, sess)
    is_pair = cols.is_tool & (last_user >= 0)

    wm_closed = None
    if flush:
        emit_run = np.ones(len(starts), dtype=bool)
        emit_pair = is_pair
        residual = None
    else:
        row_open = sess == np.repeat(_conv_last(sess, cols), cols.ends - cols.starts)
        if closure == "watermark" and watermark_us is not None:
            # STRICT >: a row at exactly last_ts + gap still extends the
            # session (gap-and-islands breaks only on diff > gap) and a row
            # at ts == watermark is still admissible — closing at >= would
            # late-drop that row and undercount vs the oracle
            wm_closed = watermark_us > _conv_last(cols.ts, cols) + gap_us
            row_open &= ~np.repeat(wm_closed, cols.ends - cols.starts)
        emit_run = ~row_open[starts]
        emit_pair = is_pair & ~row_open
        residual = _take(cols, row_open)
    run_starts = starts[emit_run]
    run_codes = cols.codes[run_starts]
    pair_codes = cols.codes[emit_pair]
    base_by_code, new_closed = _session_numbering(
        cols, sess, closed_count, np.r_[run_codes, pair_codes],
        flush=flush, wm_closed=wm_closed, emitted_through=emitted_through,
    )

    session_out = pa.table(
        {
            "conv_id": cols.conv_strings(run_starts),
            "session_id": pa.array(base_by_code[run_codes] + sess[run_starts]),
            "n_turns": pa.array(agg["n_turns"][emit_run]),
            "n_user_turns": pa.array(agg["n_user_turns"][emit_run]),
            "n_tool_turns": pa.array(agg["n_tool_turns"][emit_run]),
            "first_turn_idx": pa.array(agg["first_turn_idx"][emit_run].astype(np.int64)),
            "last_turn_idx": pa.array(agg["last_turn_idx"][emit_run].astype(np.int64)),
            "duration_us": pa.array((agg["max_ts"] - agg["min_ts"])[emit_run]),
        }
    )
    emitted = cols.origin.take(pa.array(cols.order[emit_pair]))
    join_out = pa.table(
        {
            "conv_id": cols.conv_strings(emit_pair),
            "session_id": pa.array(base_by_code[pair_codes] + sess[emit_pair]),
            "user_turn_idx": pa.array(last_user[emit_pair]),
            "tool_turn_idx": pa.array(cols.turn[emit_pair]),
            "tool": emitted["tool"],
        }
    )
    out = {"session": session_out, "session_join": join_out}
    new_state = {"residual": residual, "closed_count": new_closed}
    if closure == "watermark":
        new_state["late_drops"] = late_drops
        new_state["emitted_through"] = emitted_through
    return out, new_state


# ---------------------------------------------------------------------------
# Global (cross-conversation) tumbling aggregates — per-partition partials
# ---------------------------------------------------------------------------

_TUMBLING_GLOBAL_EMPTY = pa.table(
    {
        "window_id": pa.array([], type=pa.int64()),
        "n_turns": pa.array([], type=pa.int64()),
        "n_user_turns": pa.array([], type=pa.int64()),
        "n_tool_turns": pa.array([], type=pa.int64()),
        "n_chars": pa.array([], type=pa.int64()),
    }
)


def tumbling_global_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    flush: bool,
    closure: str = "flush",
    watermark_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """GLOBAL tumbling aggregate (no key): counts per fixed ``width_s``
    bucket across ALL conversations — the classic two-phase distributed
    aggregate. Every other window operator here is conv-keyed, so the
    consistent-hash exchange co-locates each group on one partition; a
    global group spans every partition, so each partition emits a PARTIAL
    row per window (mergeable sums) and the consumer adds P partials per
    window — windows × P rows total, independent of stream length. State is
    one int64[4] per open window (bounded by time range / width, never by
    row count).

    Closure: ``"flush"`` (default) holds all partials until the flush epoch
    — exact on any feed ordering; ``"watermark"`` emits a window's partial
    once the partition watermark passes its end (exact on globally
    ts-ordered feeds; rows behind the emission cursor count into
    ``late_drops`` and are excluded, like the keyed tumbling kernel).

    Oracle SQL shape: ``GROUP BY CAST(floor(epoch(ts)/width) AS BIGINT)``
    after summing the P partials per window.
    """
    w_us = width_s * US
    win = state.get("win")
    acc = state.get("agg")
    if win is None:
        win = np.empty(0, np.int64)
        acc = np.zeros((0, 4), np.int64)
    late_drops = int(state.get("late_drops", 0))
    emitted_below = state.get("emitted_below")

    n = new_rows.num_rows
    if n:
        ts = new_rows["ts_us"].to_numpy(zero_copy_only=False)
        bucket = ts // w_us
        if emitted_below is not None:
            keep = bucket >= emitted_below
            if not keep.all():
                late_drops += int((~keep).sum())
                new_rows = new_rows.filter(pa.array(keep))
                bucket = bucket[keep]
                n = new_rows.num_rows
    if n:
        role = new_rows["role"]
        if isinstance(role, pa.ChunkedArray):
            role = role.combine_chunks()
        is_user = pc.equal(role, "user").to_numpy(zero_copy_only=False)
        is_tool = pc.equal(role, "tool").to_numpy(zero_copy_only=False)
        n_chars = new_rows["n_chars"].to_numpy(zero_copy_only=False)
        order = np.argsort(bucket, kind="stable")
        b_s = bucket[order]
        starts = np.flatnonzero(np.r_[True, b_s[1:] != b_s[:-1]])
        part = np.column_stack(
            [
                np.add.reduceat(np.ones(n, np.int64), starts),
                np.add.reduceat(is_user[order].astype(np.int64), starts),
                np.add.reduceat(is_tool[order].astype(np.int64), starts),
                np.add.reduceat(n_chars[order], starts),
            ]
        )
        b_u = b_s[starts]
        merged = np.union1d(win, b_u)
        out_acc = np.zeros((len(merged), 4), np.int64)
        out_acc[np.searchsorted(merged, win)] += acc
        out_acc[np.searchsorted(merged, b_u)] += part
        win, acc = merged, out_acc

    if flush:
        emit_mask = np.ones(len(win), dtype=bool)
        next_below = int(win.max()) + 1 if len(win) else emitted_below
    elif closure == "watermark":
        wm_bucket = (watermark_us if watermark_us is not None else -1) // w_us
        emit_mask = win < wm_bucket
        next_below = int(wm_bucket)
    else:
        emit_mask = np.zeros(len(win), dtype=bool)
        next_below = emitted_below

    out = pa.table(
        {
            "window_id": pa.array(win[emit_mask]),
            "n_turns": pa.array(acc[emit_mask, 0]),
            "n_user_turns": pa.array(acc[emit_mask, 1]),
            "n_tool_turns": pa.array(acc[emit_mask, 2]),
            "n_chars": pa.array(acc[emit_mask, 3]),
        }
    ) if emit_mask.any() else _TUMBLING_GLOBAL_EMPTY
    new_state: dict = {
        "win": win[~emit_mask],
        "agg": acc[~emit_mask],
        "late_drops": late_drops,
    }
    if next_below is not None:
        new_state["emitted_below"] = next_below
    return out, new_state


_TUMBLING_COUNTS_EMPTY = pa.table(
    {
        "window_id": pa.array([], type=pa.int64()),
        "value": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int64()),
    }
)


def tumbling_counts_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    flush: bool,
    value_col: str = "tool",
    skip_empty: bool = True,
    closure: str = "flush",
    watermark_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """GLOBAL windowed value counts — the exact top-k / heavy-hitters
    feeder: per tumbling window, the count of every distinct ``value_col``
    value across ALL conversations, emitted as per-partition partials
    (window_id, value, n). Top-k per window is NOT mergeable from per-
    partition top-k lists (a value can be k+1-th everywhere yet 1st
    globally), so the exact scheme ships full per-window value counts —
    bounded by windows × vocabulary, never by row count — and the consumer
    sums partials then ranks. State = one pandas groupby frame per
    partition of the same bound.

    Closure semantics identical to :func:`tumbling_global_kernel`.
    """
    w_us = width_s * US
    cur: pd.DataFrame | None = state.get("counts")
    late_drops = int(state.get("late_drops", 0))
    emitted_below = state.get("emitted_below")

    n = new_rows.num_rows
    if n:
        ts = new_rows["ts_us"].to_numpy(zero_copy_only=False)
        bucket = ts // w_us
        if emitted_below is not None:
            keep = bucket >= emitted_below
            if not keep.all():
                late_drops += int((~keep).sum())
                new_rows = new_rows.filter(pa.array(keep))
                bucket = bucket[keep]
                n = new_rows.num_rows
    if n:
        val = new_rows[value_col]
        if isinstance(val, pa.ChunkedArray):
            val = val.combine_chunks()
        df = pd.DataFrame(
            {"window_id": bucket, "value": val.to_pandas(), "n": np.int64(1)}
        )
        if skip_empty:
            df = df[df["value"] != ""]
        frames = [cur, df] if cur is not None else [df]
        cur = (
            pd.concat(frames, ignore_index=True)
            .groupby(["window_id", "value"], sort=True, as_index=False)["n"]
            .sum()
        )
    if cur is None:
        cur = _TUMBLING_COUNTS_EMPTY.to_pandas()

    if flush:
        emit_mask = np.ones(len(cur), dtype=bool)
        next_below = (
            int(cur["window_id"].max()) + 1 if len(cur) else emitted_below
        )
    elif closure == "watermark":
        wm_bucket = (watermark_us if watermark_us is not None else -1) // w_us
        emit_mask = (cur["window_id"] < wm_bucket).to_numpy()
        next_below = int(wm_bucket)
    else:
        emit_mask = np.zeros(len(cur), dtype=bool)
        next_below = emitted_below

    out = (
        pa.Table.from_pandas(cur[emit_mask], preserve_index=False)
        .cast(_TUMBLING_COUNTS_EMPTY.schema)
        if emit_mask.any()
        else _TUMBLING_COUNTS_EMPTY
    )
    new_state: dict = {"counts": cur[~emit_mask], "late_drops": late_drops}
    if next_below is not None:
        new_state["emitted_below"] = next_below
    return out, new_state


# ---------------------------------------------------------------------------
# Absence / timeout pattern (CEP negation)
# ---------------------------------------------------------------------------

_ABSENCE_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "user_turn_idx": pa.array([], type=pa.int64()),
        "ts_us": pa.array([], type=pa.int64()),
    }
)


def absence_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    within_s: int,
    flush: bool = False,
) -> tuple[pa.Table, dict]:
    """CEP ABSENCE (timeout) pattern — the negation the regex CEP kernel
    can't express: emit each user turn that is NOT followed by a tool turn
    of the same conv within ``(u.ts, u.ts + within_s]`` — the streaming
    "request with no response within SLA" detector (Flink's
    ``notFollowedBy`` + timeout shape).

    Decidability rides the relay feed contract (per-conv event time is
    monotone in turn order): a tool turn can only arrive with ts at or
    beyond the conv's clock, so a pending user turn is settled the moment
    the conv's clock passes its deadline (timeout → emit) or a tool turn
    lands inside its window (matched → drop silently). No tool buffer is
    needed at all — only tools arriving AFTER the user can match, so each
    epoch's segment tools are probed once via two searchsorted calls.
    State per conv = pending user turns within the trailing ``within_s``
    (bounded by user-rate × within_s, independent of stream length).

    ``flush`` force-decides every pending user as timed-out (over a
    complete feed this equals SQL ``NOT EXISTS`` — the oracle shape); a
    post-flush continuation starts from empty pending state, so committed
    timeouts are never rescinded (standard CEP timeout semantics).
    """
    W = int(within_s) * US
    pend: dict = dict(state.get("pend", {}))
    em_nm: list = []
    em_turn: list = []
    em_ts: list = []

    if new_rows.num_rows:
        # Segment-vectorized (carry-dict gather / writeback is the only
        # per-conv Python): pend ∪ new-user rows merge (seg, ts)-sorted,
        # tool matching is ONE biased-searchsorted pair over the whole
        # batch, timeout/keep are boolean masks against per-segment clocks.
        cols = prep(new_rows)
        names = cols.conv_names()
        S = len(cols.starts)
        seg_codes = cols.codes[cols.starts]
        seg_ids = np.arange(S, dtype=np.int64)
        row_seg = np.repeat(seg_ids, cols.ends - cols.starts)

        p_turn, p_ts, p_cnt = _gather_bufs(pend, names, seg_codes)
        p_seg = np.repeat(seg_ids, p_cnt)
        um, tm = cols.is_user, cols.is_tool
        u_seg, u_turn, u_ts = _merge_seg_sorted(
            p_seg, p_turn, p_ts, row_seg[um], cols.turn[um], cols.ts[um]
        )
        nt_seg, nt_ts = row_seg[tm], cols.ts[tm]
        # matched: a tool of the same conv with ts in (u.ts, u.ts + W]
        lo, hi = _seg_window_bounds(nt_seg, nt_ts, u_seg, u_ts + 1, u_ts + W)
        matched = hi > lo
        conv_max = cols.ts[cols.ends - 1]  # per segment
        timeout = ~matched & (u_ts + W < conv_max[u_seg])
        if timeout.any():
            em_codes = seg_codes[u_seg[timeout]]
            em_nm = pa.DictionaryArray.from_arrays(
                pa.array(em_codes.astype(np.int32)), cols.uniq
            ).cast(pa.string()).to_pylist()
            em_turn.append(u_turn[timeout])
            em_ts.append(u_ts[timeout])
        keep = ~matched & ~timeout
        cnt = np.bincount(u_seg[keep], minlength=S).astype(np.int64)
        _scatter_bufs(pend, names, seg_codes, cnt, u_turn[keep], u_ts[keep])

    if flush:
        for nm in sorted(pend):
            p_turn_f, p_ts_f = pend[nm]
            if len(p_turn_f):
                em_nm.extend([nm] * len(p_turn_f))
                em_turn.append(p_turn_f)
                em_ts.append(p_ts_f)
        pend = {}

    if not em_nm:
        return _ABSENCE_EMPTY, {"pend": pend}
    out = pa.table(
        {
            "conv_id": pa.array(em_nm, type=pa.string()),
            "user_turn_idx": pa.array(
                np.concatenate(em_turn).astype(np.int64)
            ),
            "ts_us": pa.array(np.concatenate(em_ts).astype(np.int64)),
        }
    )
    return out, {"pend": pend}


_OUTER_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "user_turn_idx": pa.array([], type=pa.int64()),
        "tool_turn_idx": pa.array([], type=pa.int64()),
        "dt_us": pa.array([], type=pa.int64()),
    }
)


def outer_join_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    within_s: int,
    flush: bool = False,
) -> tuple[pa.Table, dict]:
    """Streaming LEFT-OUTER interval join (request↔response with timeout) —
    the fusion of :func:`interval_join_kernel` (matched side) and
    :func:`absence_kernel` (timeout side): for each user turn u, emit one
    row per tool turn t of the same conv with ``t.ts ∈ (u.ts, u.ts +
    within_s]`` when t arrives, and, if NO such tool ever lands, exactly one
    timeout row (``tool_turn_idx = dt_us = -1``) the moment the conv's clock
    passes u's deadline — Flink's outer interval join / `notFollowedBy`-
    with-emission shape.

    Decidability rides the relay feed contract (per-conv ts monotone in
    turn order): state per conv = the user turns still inside their
    forward window, each with a matched flag (bounded by user-rate ×
    within_s, independent of stream length). Tools are never buffered —
    a tool can only match users at or before its ts, all of which are in
    state (or this segment) when it arrives: retention keeps u while
    ``u.ts + W >= conv_clock``, and any matchable u satisfies
    ``u.ts >= t.ts − W ⇒ u.ts + W >= t.ts >= conv_clock``.

    Epoch-split invariance: pairs emit on tool arrival exactly once;
    timeout rows emit on the first segment whose clock passes the deadline
    (or at flush, which force-decides pending users as timed out — over a
    complete feed this equals the SQL LEFT JOIN oracle with −1 sentinels).
    """
    W = int(within_s) * US
    pend: dict = dict(state.get("pend", {}))
    parts: list[pa.Table] = []

    def _part(conv_arr, u_turn, t_turn, dt):
        parts.append(
            pa.table(
                {
                    "conv_id": conv_arr,
                    "user_turn_idx": pa.array(u_turn.astype(np.int64)),
                    "tool_turn_idx": pa.array(t_turn.astype(np.int64)),
                    "dt_us": pa.array(dt.astype(np.int64)),
                }
            )
        )

    if new_rows.num_rows:
        # Segment-vectorized like interval_join/absence: tools probe the
        # merged pend ∪ new-user rows with one biased-searchsorted pair,
        # coverage is one global delta-cumsum, expiry a mask — per-conv
        # Python is only the carry-dict gather/writeback.
        cols = prep(new_rows)
        names = cols.conv_names()
        S = len(cols.starts)
        seg_codes = cols.codes[cols.starts]
        seg_ids = np.arange(S, dtype=np.int64)
        row_seg = np.repeat(seg_ids, cols.ends - cols.starts)

        p_turn, p_ts, p_hit, p_cnt = _gather_bufs(
            pend, names, seg_codes, empty=_EMPTY_TRIPLE
        )
        um, tm = cols.is_user, cols.is_tool
        # pend ∪ new users, (seg, ts)-sorted stable (pend first on ties):
        # one lexsort order applied to all four columns
        seg_cat = np.concatenate([np.repeat(seg_ids, p_cnt), row_seg[um]])
        turn_cat = np.concatenate([p_turn, cols.turn[um]])
        ts_cat = np.concatenate([p_ts, cols.ts[um]])
        hit_cat = np.concatenate([p_hit, np.zeros(int(um.sum()), dtype=bool)])
        order = np.lexsort((np.arange(len(seg_cat)), ts_cat, seg_cat))
        u_seg, u_turn, u_ts, hit = (
            seg_cat[order], turn_cat[order], ts_cat[order], hit_cat[order]
        )

        nt_seg, nt_turn, nt_ts = row_seg[tm], cols.turn[tm], cols.ts[tm]
        # tools probe users with u.ts in [t.ts - W, t.ts)  (strict <)
        lo, hi = _seg_window_bounds(u_seg, u_ts, nt_seg, nt_ts - W, nt_ts - 1)
        t_rep, u_idx = _ragged_expand(lo, hi)
        if len(t_rep):
            _part(
                pa.DictionaryArray.from_arrays(
                    pa.array(seg_codes[nt_seg[t_rep]].astype(np.int32)),
                    cols.uniq,
                ).cast(pa.string()),
                u_turn[u_idx],
                nt_turn[t_rep],
                nt_ts[t_rep] - u_ts[u_idx],
            )
            # matched coverage: union of all [lo, hi) tool probe ranges
            # (ranges never cross segment boundaries, so one global pass)
            delta = np.zeros(len(u_turn) + 1, dtype=np.int64)
            np.add.at(delta, lo, 1)
            np.add.at(delta, hi, -1)
            hit = hit | (np.cumsum(delta[:-1]) > 0)

        conv_max = cols.ts[cols.ends - 1]
        expired = u_ts + W < conv_max[u_seg]
        timeout = expired & ~hit
        if timeout.any():
            n_to = int(timeout.sum())
            _part(
                pa.DictionaryArray.from_arrays(
                    pa.array(seg_codes[u_seg[timeout]].astype(np.int32)),
                    cols.uniq,
                ).cast(pa.string()),
                u_turn[timeout],
                np.full(n_to, -1, dtype=np.int64),
                np.full(n_to, -1, dtype=np.int64),
            )
        keep = ~expired
        cnt = np.bincount(u_seg[keep], minlength=S).astype(np.int64)
        _scatter_bufs(
            pend, names, seg_codes, cnt, u_turn[keep], u_ts[keep], hit[keep]
        )

    if flush:
        for nm in sorted(pend):
            p_turn, p_ts, p_hit = pend[nm]
            miss = ~p_hit
            if miss.any():
                n_to = int(miss.sum())
                _part(
                    pa.array([nm] * n_to, type=pa.string()),
                    p_turn[miss],
                    np.full(n_to, -1, dtype=np.int64),
                    np.full(n_to, -1, dtype=np.int64),
                )
        pend = {}

    if not parts:
        return _OUTER_EMPTY, {"pend": pend}
    out = pa.concat_tables(parts)
    return out, {"pend": pend}


_RUNNING_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "turn_idx": pa.array([], type=pa.int64()),
        "row_number": pa.array([], type=pa.int64()),
        "dt_prev_us": pa.array([], type=pa.int64()),
        "cum_chars": pa.array([], type=pa.int64()),
    }
)


def running_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    flush: bool = False,
) -> tuple[pa.Table, dict]:
    """Per-row running window functions over the keyed stream — the Flink
    keyed-ValueState / SQL window-function shape (``ROW_NUMBER() OVER``,
    ``LAG(ts)``, running ``SUM(n_chars)`` partitioned by conv, ordered by
    turn): every input row emits exactly one output row, immediately,
    carrying its 1-based position in the conv, the µs gap to the previous
    turn (``-1`` for a conv's first turn), and the inclusive running
    character total.

    State per conv is O(1) — ``(count, last_ts, cum_chars)`` — so memory is
    bounded by live-conversation cardinality, independent of stream length,
    and any epoch split produces identical rows (each row's outputs depend
    only on the prefix of its conv, which the carry summarises exactly).
    The carry survives ``flush`` (flush is NON-terminal engine-wide): a
    later run that consumes more feed continues ROW_NUMBER / cum_chars
    where they left off instead of restarting at 1.

    Fully vectorized: one segment-offset subtraction for positions, one
    shifted-``ts`` diff for lags, one ``cumsum`` rebased per segment for the
    running sum; Python touches only the per-conv carry dict (O(#convs)).
    """
    st: dict = dict(state.get("run", {}))
    if not new_rows.num_rows:
        return _RUNNING_EMPTY, {"run": st}

    cols = prep(new_rows)
    names = cols.conv_names()
    n = len(cols.codes)
    starts, ends = cols.starts, cols.ends
    seg_len = ends - starts
    seg_names = [names[cols.codes[s]] for s in starts]
    carry = np.array(
        [st.get(nm, (0, -1, 0)) for nm in seg_names], dtype=np.int64
    ).reshape(len(seg_names), 3)
    base_cnt, base_ts, base_cum = carry[:, 0], carry[:, 1], carry[:, 2]

    seg_id = np.repeat(np.arange(len(starts), dtype=np.int64), seg_len)
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, seg_len)
    row_number = base_cnt[seg_id] + pos + 1

    prev_ts = np.empty(n, dtype=np.int64)
    prev_ts[1:] = cols.ts[:-1]
    prev_ts[starts] = base_ts
    dt_prev = np.where(prev_ts >= 0, cols.ts - prev_ts, -1)

    cs = np.cumsum(cols.n_chars)
    cum_chars = cs - np.repeat(cs[starts] - cols.n_chars[starts], seg_len)
    cum_chars += base_cum[seg_id]

    last = ends - 1
    for i, nm in enumerate(seg_names):
        st[nm] = (
            int(base_cnt[i] + seg_len[i]),
            int(cols.ts[last[i]]),
            int(cum_chars[last[i]]),
        )

    out = pa.table(
        {
            "conv_id": cols.conv_strings(np.arange(n)),
            "turn_idx": pa.array(cols.turn),
            "row_number": pa.array(row_number),
            "dt_prev_us": pa.array(dt_prev),
            "cum_chars": pa.array(cum_chars),
        }
    )
    return out, {"run": st}


_ANOMALY_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "turn_idx": pa.array([], type=pa.int64()),
        "n_chars": pa.array([], type=pa.int64()),
        "n_prior": pa.array([], type=pa.int64()),
        "is_anomaly": pa.array([], type=pa.bool_()),
    }
)


def anomaly_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    flush: bool = False,
    z: int = 3,
    min_prior: int = 8,
) -> tuple[pa.Table, dict]:
    """Per-row streaming anomaly flag over the keyed stream — the online
    z-score shape (flag a turn whose length deviates from its conv's
    running mean by more than ``z`` sigma), INTEGER-EXACT so a SQL window
    oracle recomputes it bit-for-bit: with ``(n, S, SS)`` the count / sum /
    sum-of-squares of the conv's PRIOR turn lengths, a turn of length ``x``
    is anomalous iff ``n >= min_prior`` and
    ``(n*x - S)^2 > z^2 * (n*SS - S^2)`` (the z-sigma test with both sides
    multiplied by ``n^2`` — no float mean/stddev anywhere). Exact while
    ``z^2 * n * SS < 2^63``: at 10^4-char turns that allows ~10^6 turns per
    conv — the feed domain; beyond it, overflow would need per-conv
    rescaling, not a different algorithm.

    Every input row emits exactly one output row immediately. State per
    conv is O(1) and survives ``flush`` (non-terminal engine-wide), so a
    later run keeps accumulating the same prefix stats. Fully vectorized:
    one exclusive cumsum pair rebased per segment; Python touches only the
    per-conv carry dict. Epoch-split invariant by construction (each row's
    flag depends only on its conv prefix) — property-tested."""
    st: dict = dict(state.get("anom", {}))
    if not new_rows.num_rows:
        return _ANOMALY_EMPTY, {"anom": st}

    cols = prep(new_rows)
    names = cols.conv_names()
    n_rows = len(cols.codes)
    starts, ends = cols.starts, cols.ends
    seg_len = ends - starts
    seg_names = [names[cols.codes[s]] for s in starts]
    carry = np.array(
        [st.get(nm, (0, 0, 0)) for nm in seg_names], dtype=np.int64
    ).reshape(len(seg_names), 3)
    base_n, base_s, base_ss = carry[:, 0], carry[:, 1], carry[:, 2]

    seg_id = np.repeat(np.arange(len(starts), dtype=np.int64), seg_len)
    pos = np.arange(n_rows, dtype=np.int64) - np.repeat(starts, seg_len)
    x = cols.n_chars.astype(np.int64)
    x2 = x * x
    cs, cs2 = np.cumsum(x), np.cumsum(x2)
    excl = cs - x
    excl2 = cs2 - x2
    n_prior = base_n[seg_id] + pos
    s_prior = base_s[seg_id] + excl - np.repeat(excl[starts], seg_len)
    ss_prior = base_ss[seg_id] + excl2 - np.repeat(excl2[starts], seg_len)

    lhs = n_prior * x - s_prior
    flag = (n_prior >= min_prior) & (
        lhs * lhs > z * z * (n_prior * ss_prior - s_prior * s_prior)
    )

    last = ends - 1
    for i, nm in enumerate(seg_names):
        st[nm] = (
            int(base_n[i] + seg_len[i]),
            int(s_prior[last[i]] + x[last[i]]),
            int(ss_prior[last[i]] + x2[last[i]]),
        )

    out = pa.table(
        {
            "conv_id": cols.conv_strings(np.arange(n_rows)),
            "turn_idx": pa.array(cols.turn),
            "n_chars": pa.array(x),
            "n_prior": pa.array(n_prior),
            "is_anomaly": pa.array(flag),
        }
    )
    return out, {"anom": st}


_SESSIONIZE_EMPTY = pa.table(
    {
        "conv_id": pa.array([], type=pa.string()),
        "turn_idx": pa.array([], type=pa.int64()),
        "session_id": pa.array([], type=pa.int64()),
        "turn_in_session": pa.array([], type=pa.int64()),
    }
)


def sessionize_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    gap_s: int,
    flush: bool = False,
) -> tuple[pa.Table, dict]:
    """Per-row session-id assignment (gaps-and-islands): every turn emits
    immediately with the 1-based id of the session it belongs to (a new
    session starts when the gap to the conv's previous turn exceeds
    ``gap_s``) and its 1-based position within that session — the labeling
    dual of the aggregating session window: `session_window_kernel` emits
    one row per closed session, this emits one row per turn, before the
    session closes.

    State per conv is O(1) — ``(last_ts, session_count, turns_in_cur)`` —
    and each row's labels depend only on its conv prefix, so any epoch
    split emits identical rows. The carry survives ``flush`` (flush is
    NON-terminal engine-wide): post-flush feed continues session ids from
    the carried prefix instead of restarting at 1. Vectorized: gap detection is one shifted
    diff, session ids a rebased ``cumsum`` of starts, positions a
    ``maximum.accumulate`` over start indices (Python touches only the
    per-conv carry dict).
    """
    G = int(gap_s) * US
    st: dict = dict(state.get("sess", {}))
    if not new_rows.num_rows:
        return _SESSIONIZE_EMPTY, {"sess": st}

    cols = prep(new_rows)
    names = cols.conv_names()
    n = len(cols.codes)
    starts, ends = cols.starts, cols.ends
    seg_len = ends - starts
    seg_names = [names[cols.codes[s]] for s in starts]
    carry = np.array(
        [st.get(nm, (-1, 0, 0)) for nm in seg_names], dtype=np.int64
    ).reshape(len(seg_names), 3)
    base_ts, base_sess, base_turns = carry[:, 0], carry[:, 1], carry[:, 2]

    seg_id = np.repeat(np.arange(len(starts), dtype=np.int64), seg_len)
    prev_ts = np.empty(n, dtype=np.int64)
    prev_ts[1:] = cols.ts[:-1]
    prev_ts[starts] = base_ts
    is_new = (prev_ts < 0) | (cols.ts - prev_ts > G)

    cs = np.cumsum(is_new.astype(np.int64))
    sess_in_seg = cs - np.repeat(cs[starts] - is_new[starts], seg_len)
    session_id = base_sess[seg_id] + sess_in_seg

    idx = np.arange(n, dtype=np.int64)
    last_start = np.maximum.accumulate(np.where(is_new, idx, -1))
    seg_start = np.repeat(starts, seg_len)
    in_carried = last_start < seg_start  # still inside the carried session
    turn_in_session = np.where(
        in_carried,
        base_turns[seg_id] + (idx - seg_start) + 1,
        idx - last_start + 1,
    )

    for i, nm in enumerate(seg_names):
        e = ends[i] - 1
        st[nm] = (
            int(cols.ts[e]),
            int(session_id[e]),
            int(turn_in_session[e]),
        )

    out = pa.table(
        {
            "conv_id": cols.conv_strings(idx),
            "turn_idx": pa.array(cols.turn),
            "session_id": pa.array(session_id),
            "turn_in_session": pa.array(turn_in_session),
        }
    )
    return out, {"sess": st}


def qsketch_bucket(x: np.ndarray) -> np.ndarray:
    """Integer-exact log-bucket id (DDSketch-style, base-2 with 16
    sub-buckets per octave): values < 16 map to themselves (exact), larger
    values to ``msb*16 + next-4-mantissa-bits`` — relative bucket width
    2^-4, so any quantile read from the histogram has ≤ 6.25% relative
    error (≤ 3.2% with mid-bucket representatives). Exactly recomputable
    in SQL as ``(length(bin(x))-1)*16 + ((x >> (length(bin(x))-5)) & 15)``
    because both sides use pure integer bit arithmetic: the float
    ``np.frexp`` estimate of the msb is corrected with exact integer
    shifts, so values ≥ 2^53 (where int→float rounding can cross a power
    of two, e.g. 2^62−1) still bucket identically to SQL's
    ``length(bin(x))``."""
    x = x.astype(np.int64)
    out = x.copy()
    big = x >= 16
    if big.any():
        xb = x[big]
        msb = (np.frexp(xb.astype(np.float64))[1] - 1).astype(np.int64)
        # int→float rounds to nearest: x just below 2^k can round UP to
        # 2^k (msb over by one), never below — one downward correction,
        # verified exactly with an integer shift
        over = (xb >> msb) == 0
        msb[over] -= 1
        sub = (xb >> (msb - 4)) & 15
        out[big] = msb * 16 + sub
    return out


_QSKETCH_EMPTY = pa.table(
    {
        "window_id": pa.array([], type=pa.int64()),
        "bucket": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64()),
    }
)


def tumbling_qsketch_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    flush: bool = False,
) -> tuple[pa.Table, dict]:
    """GLOBAL windowed approximate-quantile sketch: a mergeable log-bucket
    histogram of turn length per tumbling window (the DDSketch idea with
    integer-exact bucketing — see :func:`qsketch_bucket`). Each partition
    keeps one sparse bucket-count dict per open window and emits
    ``(window_id, bucket, n)`` partials at flush; partitions merge by
    summing counts, so any quantile of the whole stream reads from a
    windows × ≤1040-bucket table with ≤ 6.25% relative value error —
    completing the mergeable-sketch trio (HLL distinct, count-min
    frequency, log-histogram quantiles). State is O(buckets) per open
    window, independent of stream length; counts are a pure sum-fold, so
    any epoch split / partition layout merges identically. The SQL oracle
    recomputes every bucket count exactly (bit arithmetic on both sides).
    """
    W = int(width_s) * US
    acc: dict = {k: v.copy() for k, v in state.get("qs", {}).items()}
    if new_rows.num_rows:
        cols = prep(new_rows)
        win = cols.ts // W
        bucket = qsketch_bucket(np.maximum(cols.n_chars, 0))
        # one lexsort pass -> run-length counts per (window, bucket)
        order = np.lexsort((bucket, win))
        w_s, b_s = win[order], bucket[order]
        runs = np.flatnonzero(
            np.r_[True, (w_s[1:] != w_s[:-1]) | (b_s[1:] != b_s[:-1])]
        )
        counts = np.diff(np.r_[runs, len(w_s)])
        # dense per-window accumulator: bucket ids are < 16*63+16 = 1024
        # slots + the 16 small-value slots -> 1040 int64 = 8 KiB per window
        for w in np.unique(w_s[runs]):
            sel = w_s[runs] == w
            prev = acc.get(int(w))
            arr = np.zeros(1040, dtype=np.int64) if prev is None else prev.copy()
            np.add.at(arr, b_s[runs][sel], counts[sel])
            acc[int(w)] = arr

    if not flush:
        return _QSKETCH_EMPTY, {"qs": acc}

    em_w: list = []
    em_b: list = []
    em_n: list = []
    for w in sorted(acc):
        arr = acc[w]
        nz = np.flatnonzero(arr)
        em_w.append(np.full(len(nz), w, dtype=np.int64))
        em_b.append(nz.astype(np.int64))
        em_n.append(arr[nz])
    if not em_w:
        return _QSKETCH_EMPTY, {}
    out = pa.table(
        {
            "window_id": pa.array(np.concatenate(em_w)),
            "bucket": pa.array(np.concatenate(em_b)),
            "n": pa.array(np.concatenate(em_n)),
        }
    )
    return out, {}


def qsketch_quantile(bucket: np.ndarray, n: np.ndarray, q: float) -> float:
    """Read an approximate q-quantile (0..1) from a merged bucket table:
    the mid-bucket representative of the bucket where the cumulative count
    crosses ceil(q * total) — ≤ 3.2% relative error for values ≥ 16,
    exact below."""
    order = np.argsort(bucket)
    b_s, n_s = bucket[order], n[order]
    target = int(np.ceil(q * n_s.sum()))
    idx = int(np.searchsorted(np.cumsum(n_s), max(target, 1)))
    b = int(b_s[min(idx, len(b_s) - 1)])
    if b < 64:
        return float(b if b < 16 else 0)  # b in [16,64) unreachable
    msb, sub = divmod(b, 16)
    width = 1 << (msb - 4)
    lo = (1 << msb) + sub * width
    return float(lo + width // 2)  # mid-bucket (width 1 == exact value)


_HLL_EMPTY = pa.table(
    {
        "window_id": pa.array([], type=pa.int64()),
        "bucket": pa.array([], type=pa.int64()),
        "rank": pa.array([], type=pa.int64()),
    }
)


def tumbling_hll_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    p: int = 12,
    flush: bool = False,
) -> tuple[pa.Table, dict]:
    """GLOBAL windowed approximate distinct-conversation count as a
    mergeable HyperLogLog sketch: each partition keeps one 2^p-register
    HLL per tumbling window and, at flush, emits its NONZERO registers as
    sparse ``(window_id, bucket, rank)`` partial rows. Registers merge
    across partitions by elementwise MAX (the consumer groupby below is
    bounded by windows × 2^p rows, never by stream length) — the
    streaming/windowed form of the batch `hll_registers` sketch, and the
    approximate companion to `tumbling_distinct` (exact, conv-keyed):
    this one answers "distinct convs per day ACROSS the whole stream" in
    O(2^p) state per partition per window, where the exact answer would
    need the full conv-id set.

    Determinism: register state is a pure max-fold over the set of
    (window, conv) pairs seen, so any epoch split / partition layout
    yields identical merged registers (order-free). Hashing matches
    stages/sketches.HLL exactly (FNV-1a + murmur fmix64), which is what
    the HUGEINT SQL oracle recomputes register-for-register.
    """
    W = int(width_s) * US
    regs: dict = dict(state.get("hll", {}))
    if new_rows.num_rows:
        cols = prep(new_rows)
        win = cols.ts // W
        # hash each distinct conv once per epoch, then fold distinct
        # (window, conv) pairs into the per-window registers
        h_by_code = fnv1a_u64(cols.uniq.cast(pa.string()))
        pairs = np.unique(np.stack([win, cols.codes]), axis=1)
        for w in np.unique(pairs[0]):
            hs = h_by_code[pairs[1][pairs[0] == w]].astype(np.uint64)
            prev = regs.get(int(w))
            # copy before np.maximum.at: the carried state must stay
            # immutable (snapshots/actors may still reference it)
            hll = HLL(p, None if prev is None else prev.copy())
            hll.add_hashes(hs)
            regs[int(w)] = hll.registers

    if not flush:
        return _HLL_EMPTY, {"hll": regs}

    em_w: list = []
    em_b: list = []
    em_r: list = []
    for w in sorted(regs):
        r = regs[w]
        nz = np.flatnonzero(r)
        em_w.append(np.full(len(nz), w, dtype=np.int64))
        em_b.append(nz.astype(np.int64))
        em_r.append(r[nz].astype(np.int64))
    if not em_w:
        return _HLL_EMPTY, {}
    out = pa.table(
        {
            "window_id": pa.array(np.concatenate(em_w)),
            "bucket": pa.array(np.concatenate(em_b)),
            "rank": pa.array(np.concatenate(em_r)),
        }
    )
    return out, {}


# ---------------------------------------------------------------------------
# Bounded-state GLOBAL windowed sampling + heavy hitters
# ---------------------------------------------------------------------------

_TUMBLING_SAMPLE_EMPTY = pa.table(
    {
        "window_id": pa.array([], type=pa.int64()),
        "priority": pa.array([], type=pa.uint64()),
        "conv_id": pa.array([], type=pa.string()),
        "turn_idx": pa.array([], type=pa.int64()),
        "ts_us": pa.array([], type=pa.int64()),
        "n_chars": pa.array([], type=pa.int64()),
    }
)

_TUMBLING_SAMPLE_BY_EMPTY = _TUMBLING_SAMPLE_EMPTY.append_column(
    "stratum", pa.array([], type=pa.string())
)


def tumbling_sample_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    k: int,
    by: str | None = None,
    flush: bool = False,
    closure: str = "flush",
    watermark_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """GLOBAL windowed uniform sample with BOUNDED state: bottom-k
    hash-priority sampling (Cohen/Kaplan bottom-k sketch). Every turn gets
    a deterministic priority ``fmix64(fnv1a(conv_id || ':' || turn_idx))``;
    each partition keeps only the k smallest-priority rows per open
    tumbling window (state <= k rows/window regardless of stream length —
    the 10^12-turn ingest-sampling path, where a reservoir with random
    state would break replay determinism). At window close it emits its
    bottom-k as a partial; the consumer takes the global bottom-k of the
    <= P*k candidates per window.

    EXACT and order-free by construction: bottom-k is a semilattice
    (``bottom_k(A ∪ B) == bottom_k(bottom_k(A) ∪ bottom_k(B))``), so any
    epoch split, partition layout, or rescale merge yields the identical
    final sample — the same k rows a SQL ``row_number() OVER (PARTITION BY
    window ORDER BY hash)`` oracle selects over the full feed. Since the
    priority is a hash of the row identity, membership is a uniform
    pseudo-random choice yet reproducible across runs/nodes.

    Closure semantics identical to :func:`tumbling_counts_kernel`
    (flush-all or watermark); late rows below the emission cursor are
    counted and dropped.

    ``by`` (optional): STRATIFIED sampling — keep the bottom-k per
    (window, ``by``-column value) instead of per window, e.g. a balanced
    per-role sample. Same bounds and exactness per stratum; state grows
    to k × strata per window, so ``by`` columns must be low-cardinality
    (role/tool/lang-class), never content-derived.
    """
    w_us = width_s * US
    empty = _TUMBLING_SAMPLE_BY_EMPTY if by else _TUMBLING_SAMPLE_EMPTY
    group_keys = ["window_id", "stratum"] if by else ["window_id"]
    cur: pd.DataFrame | None = state.get("samples")
    late_drops = int(state.get("late_drops", 0))
    emitted_below = state.get("emitted_below")

    n = new_rows.num_rows
    if n:
        ts = new_rows["ts_us"].to_numpy(zero_copy_only=False)
        bucket = ts // w_us
        if emitted_below is not None:
            keep = bucket >= emitted_below
            if not keep.all():
                late_drops += int((~keep).sum())
                new_rows = new_rows.filter(pa.array(keep))
                bucket = bucket[keep]
                n = new_rows.num_rows
    if n:
        conv = new_rows["conv_id"]
        if isinstance(conv, pa.ChunkedArray):
            conv = conv.combine_chunks()
        turn = new_rows["turn_idx"]
        if isinstance(turn, pa.ChunkedArray):
            turn = turn.combine_chunks()
        key = pc.binary_join_element_wise(conv, pc.cast(turn, pa.string()), ":")
        pri = fmix64(fnv1a_u64(key))
        data = {
            "window_id": bucket,
            "priority": pri,
            "conv_id": conv.to_pandas(),
            "turn_idx": turn.to_numpy(zero_copy_only=False).astype(np.int64),
            "ts_us": new_rows["ts_us"].to_numpy(zero_copy_only=False),
            "n_chars": new_rows["n_chars"].to_numpy(zero_copy_only=False),
        }
        if by:
            strat = new_rows[by]
            if isinstance(strat, pa.ChunkedArray):
                strat = strat.combine_chunks()
            data["stratum"] = strat.cast(pa.string()).to_pandas()
        df = pd.DataFrame(data)
        frames = [cur, df] if cur is not None else [df]
        cur = pd.concat(frames, ignore_index=True)
    if cur is None:
        cur = empty.to_pandas()
    if len(cur):
        # trim unconditionally (not only when rows arrived): a rescale
        # merge concatenates P partials without knowing k, relying on the
        # next call to restore the bound before any emission
        cur = cur.sort_values(
            [*group_keys, "priority", "conv_id", "turn_idx"],
            kind="mergesort",
            ignore_index=True,
        )
        cur = cur[cur.groupby(group_keys).cumcount() < k].reset_index(drop=True)

    if flush:
        emit_mask = np.ones(len(cur), dtype=bool)
        next_below = int(cur["window_id"].max()) + 1 if len(cur) else emitted_below
    elif closure == "watermark":
        wm_bucket = (watermark_us if watermark_us is not None else -1) // w_us
        emit_mask = (cur["window_id"] < wm_bucket).to_numpy()
        next_below = int(wm_bucket)
    else:
        emit_mask = np.zeros(len(cur), dtype=bool)
        next_below = emitted_below

    out = (
        pa.Table.from_pandas(cur[emit_mask], preserve_index=False).cast(
            empty.schema
        )
        if emit_mask.any()
        else empty
    )
    new_state: dict = {"samples": cur[~emit_mask], "late_drops": late_drops}
    if next_below is not None:
        new_state["emitted_below"] = next_below
    return out, new_state


_TUMBLING_TOPK_EMPTY = pa.table(
    {
        "window_id": pa.array([], type=pa.int64()),
        "value": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int64()),
        "err": pa.array([], type=pa.int64()),
    }
)


def tumbling_topk_kernel(
    new_rows: pa.Table,
    state: dict,
    *,
    width_s: int,
    capacity: int,
    flush: bool = False,
    value_col: str = "tool",
    skip_empty: bool = True,
    closure: str = "flush",
    watermark_us: int | None = None,
) -> tuple[pa.Table, dict]:
    """GLOBAL windowed heavy hitters with BOUNDED state: a Misra-Gries
    summary of at most ``capacity`` (value, count) entries per open window
    per partition — the vocabulary-INDEPENDENT sibling of
    :func:`tumbling_counts_kernel` (whose state is bounded by windows ×
    vocabulary; fine for tool names, fatal for unbounded keys like content
    hashes or URLs at 100 TB). Batched MG fold: add the batch's exact
    per-window value counts, then per over-full window subtract the
    (capacity+1)-th largest count from every entry and drop the
    non-positive ones; the subtracted total accumulates in the window's
    ``err``. Classic guarantees (Misra-Gries '82; merge rule per Agarwal
    et al., "Mergeable Summaries", PODS'12): per partial,
    ``true_count - err <= n <= true_count`` for tracked values and every
    value with ``true_count > err`` is present; err <= N_partition /
    (capacity+1).

    Emission at closure: the summary rows ``(window_id, value, n, err)``.
    The consumer SUMS n (and err) per (window, value) across partitions:
    lower bound sum(n), upper bound sum(n) + sum of the partitions' errs.
    When capacity >= the window's distinct-value count no decrement ever
    happens (err == 0): counts are exact, equal to tumbling_counts, and
    epoch-split invariant — the SQL-gated regime. Over capacity the
    guarantee is the MG bound, not split-exactness (the summary content
    may depend on batch boundaries; the bounds above always hold) — same
    honesty contract as dedup_bloom's low-fill gate.
    """
    w_us = width_s * US
    cur: pd.DataFrame | None = state.get("summary")
    werr: dict = dict(state.get("werr", {}))
    late_drops = int(state.get("late_drops", 0))
    emitted_below = state.get("emitted_below")

    n = new_rows.num_rows
    if n:
        ts = new_rows["ts_us"].to_numpy(zero_copy_only=False)
        bucket = ts // w_us
        if emitted_below is not None:
            keep = bucket >= emitted_below
            if not keep.all():
                late_drops += int((~keep).sum())
                new_rows = new_rows.filter(pa.array(keep))
                bucket = bucket[keep]
                n = new_rows.num_rows
    if n:
        val = new_rows[value_col]
        if isinstance(val, pa.ChunkedArray):
            val = val.combine_chunks()
        df = pd.DataFrame(
            {"window_id": bucket, "value": val.to_pandas(), "n": np.int64(1)}
        )
        if skip_empty:
            df = df[df["value"] != ""]
        frames = [cur, df] if cur is not None else [df]
        cur = (
            pd.concat(frames, ignore_index=True)
            .groupby(["window_id", "value"], sort=True, as_index=False)["n"]
            .sum()
        )
    if cur is None:
        cur = _TUMBLING_TOPK_EMPTY.to_pandas()[["window_id", "value", "n"]]
    if len(cur):
        # unconditional MG trim (also restores the bound after a rescale
        # merge, which concatenates partials without knowing capacity)
        cur = cur.sort_values(
            ["window_id", "n", "value"],
            ascending=[True, False, True],
            kind="mergesort",
            ignore_index=True,
        )
        rank = cur.groupby("window_id").cumcount()
        over = cur[rank == capacity]  # the (capacity+1)-th largest per window
        if len(over):
            dec = cur["window_id"].map(
                over.set_index("window_id")["n"]
            ).fillna(0).astype(np.int64)
            for w, d in zip(over["window_id"], over["n"]):
                werr[int(w)] = int(werr.get(int(w), 0)) + int(d)
            cur = cur.assign(n=cur["n"] - dec)
            cur = cur[cur["n"] > 0].reset_index(drop=True)

    if flush:
        emit_mask = np.ones(len(cur), dtype=bool)
        max_w = int(cur["window_id"].max()) if len(cur) else None
        if werr:
            max_w = max(max_w if max_w is not None else -(1 << 62), max(werr))
        next_below = max_w + 1 if max_w is not None else emitted_below
    elif closure == "watermark":
        wm_bucket = (watermark_us if watermark_us is not None else -1) // w_us
        emit_mask = (cur["window_id"] < wm_bucket).to_numpy()
        next_below = int(wm_bucket)
    else:
        emit_mask = np.zeros(len(cur), dtype=bool)
        next_below = emitted_below

    emitted = cur[emit_mask]
    closed = set(emitted["window_id"].astype(int)) if len(emitted) else set()
    if next_below is not None:
        closed |= {w for w in werr if w < next_below}
    # err-sentinel (ADVICE r4): a window whose entries were ALL decremented
    # away (every top-(capacity+1) count equal) would otherwise close with
    # zero rows and silently drop its accumulated err — defeating loud
    # err-gates like q_streaming_topk_mg's err.max()==0 assert. Emit a
    # (window_id, value="", n=0, err) marker for any closing window with
    # werr>0 and no surviving summary rows ("" never carries real counts
    # under skip_empty; with skip_empty=False it merges harmlessly — n
    # adds 0 and err is per-window anyway).
    emitted_ws = set(emitted["window_id"].astype(int)) if len(emitted) else set()
    sentinel_ws = sorted(
        w for w in closed if int(werr.get(w, 0)) > 0 and w not in emitted_ws
    )
    if len(emitted):
        out = pa.Table.from_pandas(
            emitted.assign(
                err=emitted["window_id"].map(
                    lambda w: int(werr.get(int(w), 0))
                ).astype(np.int64)
            ),
            preserve_index=False,
        ).cast(_TUMBLING_TOPK_EMPTY.schema)
    else:
        out = _TUMBLING_TOPK_EMPTY
    if sentinel_ws:
        sent = pa.table({
            "window_id": pa.array(np.asarray(sentinel_ws, dtype=np.int64)),
            "value": pa.array([""] * len(sentinel_ws)),
            "n": pa.array(np.zeros(len(sentinel_ws), dtype=np.int64)),
            "err": pa.array(np.asarray(
                [int(werr[w]) for w in sentinel_ws], dtype=np.int64)),
        }).cast(_TUMBLING_TOPK_EMPTY.schema)
        out = pa.concat_tables([out, sent]) if out.num_rows else sent
    new_state: dict = {
        "summary": cur[~emit_mask],
        "werr": {w: e for w, e in werr.items() if w not in closed},
        "late_drops": late_drops,
    }
    if next_below is not None:
        new_state["emitted_below"] = next_below
    return out, new_state
