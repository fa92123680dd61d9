"""Property-based tests (hypothesis): for ANY feed and ANY epoch split, the
streaming kernels' accumulated emissions equal the single-pass result and the
DuckDB oracle. The reference has no property tests (SURVEY.md §5) — this is
strictly stronger coverage of the replay/exactly-once foundation."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dstream_ray.stages.capture import relay_kernel
from dstream_ray.stages.windows import (
    session_join_kernel,
    session_kernel,
    sliding_kernel,
    to_residual_rows,
    tumbling_kernel,
)

GAP_S = 60
WIDTH_S = 120


@st.composite
def feeds(draw):
    n_convs = draw(st.integers(1, 8))
    rows = []
    t0 = 1_700_000_000_000_000
    for c in range(n_convs):
        n_turns = draw(st.integers(1, 12))
        ts = t0 + draw(st.integers(0, 10**9))
        for t in range(n_turns):
            ts += draw(st.integers(0, 200)) * 1_000_000  # gaps 0-200s
            rows.append(
                {
                    "conv_id": f"c{c}",
                    "turn_idx": t,
                    "role": ["user", "assistant", "tool"][t % 3],
                    "text": draw(st.text(max_size=8)),
                    "tool": "tx" if t % 3 == 2 else "",
                    "ts": ts,
                }
            )
    tbl = pa.table(
        {
            "conv_id": pa.array([r["conv_id"] for r in rows]),
            "turn_idx": pa.array([r["turn_idx"] for r in rows], type=pa.int32()),
            "role": pa.array([r["role"] for r in rows]),
            "text": pa.array([r["text"] for r in rows]),
            "tool": pa.array([r["tool"] for r in rows]),
            "ts": pa.array([r["ts"] for r in rows], type=pa.int64()).cast(
                pa.timestamp("us")
            ),
        }
    )
    n_epochs = draw(st.integers(1, 4))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, tbl.num_rows), min_size=n_epochs - 1, max_size=n_epochs - 1
            )
        )
    )
    return tbl, [0, *cuts, tbl.num_rows]


def _session_cases():
    """A fixed feed in arrival order, cut into three epochs: conv ``a``
    closes its first session in the middle epoch (a gap > GAP_S), conv ``b``
    is absent from the middle epoch, and the last epoch is the flush."""
    rows = [  # (conv, turn, role, ts in s)
        ("a", 0, "user", 0), ("b", 0, "user", 5), ("a", 1, "assistant", 10),
        ("a", 2, "tool", 20), ("b", 1, "tool", 25),
        ("a", 3, "user", 200), ("a", 4, "tool", 210),
        ("a", 5, "tool", 250), ("b", 2, "user", 300), ("b", 3, "tool", 310),
    ]
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array(["x"] * len(rows)),
        "tool": pa.array(["tx" if r[2] == "tool" else "" for r in rows]),
        "ts": pa.array([1_700_000_000_000_000 + r[3] * 1_000_000 for r in rows],
                       type=pa.int64()).cast(pa.timestamp("us")),
    })
    return tbl, [0, 5, 7, 10]


SESSION_CASES = _session_cases()


def run_split(kernel, rows: pa.Table, bounds, **kw) -> pd.DataFrame:
    state: dict = {}
    outs = []
    for i in range(len(bounds) - 1):
        chunk = rows.slice(bounds[i], bounds[i + 1] - bounds[i])
        out, state = kernel(chunk, state, flush=(i == len(bounds) - 2), **kw)
        outs.append(out)
    return pa.concat_tables(outs).to_pandas()


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@settings(max_examples=40, deadline=None)
@given(feeds())
@example(SESSION_CASES)
def test_epoch_split_invariance_all_kernels(data):
    tbl, bounds = data
    rows = to_residual_rows(tbl)
    for kernel, kw in [
        (tumbling_kernel, {"width_s": WIDTH_S}),
        (session_kernel, {"gap_s": GAP_S}),
        (session_join_kernel, {"gap_s": GAP_S}),
        (sliding_kernel, {"width_s": WIDTH_S, "slide_s": WIDTH_S // 2}),
    ]:
        single = run_split(kernel, rows, [0, rows.num_rows], **kw)
        multi = run_split(kernel, rows, bounds, **kw)
        pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=25, deadline=None)
@given(feeds())
def test_session_matches_duckdb(data):
    tbl, bounds = data
    out = run_split(session_kernel, to_residual_rows(tbl), bounds, gap_s=GAP_S)
    con = duckdb.connect()
    con.register("transcripts", tbl)
    exp = con.execute(
        f"""
        WITH flagged AS (
          SELECT conv_id, turn_idx, role, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                        OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > CAST({GAP_S} AS BIGINT)*1000000
                      THEN 1 ELSE 0 END AS brk
          FROM transcripts WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
        ), sess AS (
          SELECT *, CAST(sum(brk) OVER (PARTITION BY conv_id ORDER BY turn_idx) - 1 AS BIGINT) AS session_id
          FROM flagged
        )
        SELECT conv_id, session_id, count(*) AS n_turns,
               count(*) FILTER (WHERE role='user') AS n_user_turns,
               count(*) FILTER (WHERE role='tool') AS n_tool_turns,
               CAST(min(turn_idx) AS BIGINT) AS first_turn_idx,
               CAST(max(turn_idx) AS BIGINT) AS last_turn_idx,
               max(epoch_us(ts)) - min(epoch_us(ts)) AS duration_us
        FROM sess GROUP BY 1,2
        """
    ).fetch_arrow_table().to_pandas()
    pd.testing.assert_frame_equal(canon(out), canon(exp), check_dtype=False)


@settings(max_examples=25, deadline=None)
@given(feeds(), st.integers(0, 3))
def test_relay_replay_safety(data, replay_from):
    """Replaying an arbitrary prefix of epochs against the advanced cursor
    emits nothing new (the dual-cursor dedup property)."""
    tbl, bounds = data
    state: dict = {}
    accepted = 0
    for i in range(len(bounds) - 1):
        chunk = tbl.slice(bounds[i], bounds[i + 1] - bounds[i])
        out, state = relay_kernel(chunk, state)
        accepted += out.num_rows
    assert accepted == tbl.num_rows
    k = min(replay_from, len(bounds) - 2)
    replay_chunk = tbl.slice(bounds[k], bounds[k + 1] - bounds[k])
    out, _ = relay_kernel(replay_chunk, state)
    assert out.num_rows == 0


def test_counter_demo_source(ray_session):
    from dstream_ray.sources.counter import counter_as_transcripts, counter_source

    ds = counter_source(max_count=50, interval_ms=100)
    df = ds.to_pandas().sort_values("value").reset_index(drop=True)
    assert list(df["value"]) == list(range(50))
    assert (df["timestamp"].diff().dropna().dt.total_seconds() == 0.1).all()

    feed = counter_as_transcripts(max_count=30)
    out, _ = tumbling_kernel(to_residual_rows(feed), {}, width_s=10, flush=True)
    assert out.num_rows > 0
    assert out.to_pandas()["n_turns"].sum() == 30


@settings(max_examples=25, deadline=None)
@given(feeds(), st.integers(2, 64))
def test_salted_sessionization_matches_plain(data, chunk_turns):
    """For ANY feed and ANY chunk size, the two-phase salted sessionization
    equals the plain session kernel (chunk-boundary merge correctness)."""
    from dstream_ray.stages.salted import (
        phase1_sessionize_chunks,
        phase2_merge_islands,
    )
    from dstream_ray.stages.windows import session_kernel

    tbl, _bounds = data
    islands = phase1_sessionize_chunks(tbl, gap_s=GAP_S, chunk_turns=chunk_turns)
    merged = phase2_merge_islands(islands, gap_s=GAP_S).to_pandas()
    plain, _ = session_kernel(to_residual_rows(tbl), {}, gap_s=GAP_S, flush=True)
    pd.testing.assert_frame_equal(canon(merged), canon(plain.to_pandas()), check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_key_relay_dual_cursor_property(data):
    """Dual-cursor relay property: for ANY sharding of envelope rows into
    epochs — with arbitrary replays (duplicated shards / overlapping key
    ranges, keys re-delivered out of shard order AFTER first delivery) —
    the delivered stream per table is exactly the distinct keys in key
    order, with dense turn_idx and monotone ts."""
    import json

    from dstream_ray.sources.envelopes import parse_envelope_lines

    tables = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    keys_per_table = {
        t: sorted(data.draw(st.sets(st.integers(0, 60), min_size=1, max_size=25)))
        for t in tables
    }
    # build the true delivery order then shard it with replays appended
    lines = []
    for t, ks in keys_per_table.items():
        for k in ks:
            lines.append(json.dumps({
                "data": {"v": k},
                "metadata": {"TableName": t, "LSN": f"{k:016x}", "Seq": "0",
                             "OperationType": "i"},
            }))
    n_epochs = data.draw(st.integers(1, 5))
    bounds = sorted(data.draw(st.lists(st.integers(0, len(lines)), min_size=n_epochs - 1, max_size=n_epochs - 1))) + [len(lines)]
    shards = []
    prev = 0
    for b in bounds:
        shards.append(lines[prev:b])
        prev = b
    # replays: re-deliver some already-shipped prefix as extra epochs
    n_replays = data.draw(st.integers(0, 2))
    for _ in range(n_replays):
        upto = data.draw(st.integers(0, len(lines)))
        shards.append(lines[:upto])

    state: dict = {}
    outs = []
    for shard in shards:
        out, state = relay_kernel(parse_envelope_lines(shard), state)
        outs.append(out)
    got = pa.concat_tables(outs).to_pandas()
    for t, ks in keys_per_table.items():
        g = got[got["conv_id"] == t].sort_values("turn_idx")
        assert g["turn_idx"].tolist() == list(range(len(ks))), t
        assert [json.loads(x)["v"] for x in g["text"]] == ks, t
        assert g["ts"].is_monotonic_increasing


def test_session_cases_cover_mid_close_absent_conv_and_flush():
    """SESSION_CASES, the explicit example of the two split-invariance tests
    above and below, has the three cases it claims."""
    tbl, bounds = SESSION_CASES
    rows = to_residual_rows(tbl)
    chunks = [rows.slice(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    state: dict = {}
    emitted = []
    for i, chunk in enumerate(chunks):
        out, state = session_kernel(chunk, state, gap_s=GAP_S, flush=i == len(chunks) - 1)
        emitted.append(out["conv_id"].to_pylist())
    assert emitted[1] == ["a"]  # a's first session closes mid-stream
    assert "b" not in chunks[1]["conv_id"].to_pylist()  # b is absent meanwhile
    assert sorted(emitted[2]) == ["a", "b", "b"]  # the flush emits the rest
    assert state["closed_count"] == {"a": 2, "b": 2}


@settings(max_examples=40, deadline=None)
@given(feeds())
@example(SESSION_CASES)
def test_epoch_split_invariance_watermark_kernels(data):
    """Watermark-closure modes: on a globally ts-ordered feed with the
    watermark = running max event time, any epoch split's accumulated
    emissions equal the single-pass result (and nothing is late-dropped)."""
    tbl, bounds = data
    rows = to_residual_rows(tbl)
    order = np.argsort(rows["ts_us"].to_numpy(zero_copy_only=False), kind="stable")
    rows = rows.take(pa.array(order))

    def run_wm(kernel, bounds_, **kw):
        state: dict = {}
        outs = []
        wm = -1
        for i in range(len(bounds_) - 1):
            chunk = rows.slice(bounds_[i], bounds_[i + 1] - bounds_[i])
            if chunk.num_rows:
                wm = max(wm, int(chunk["ts_us"].to_numpy(zero_copy_only=False).max()))
            out, state = kernel(
                chunk, state, flush=(i == len(bounds_) - 2),
                closure="watermark", watermark_us=wm, **kw,
            )
            outs.append(out)
        assert state.get("late_drops", 0) == 0
        return pa.concat_tables(outs).to_pandas()

    for kernel, kw in [
        (tumbling_kernel, {"width_s": WIDTH_S}),
        (sliding_kernel, {"width_s": WIDTH_S, "slide_s": WIDTH_S // 2}),
        (session_kernel, {"gap_s": GAP_S}),
    ]:
        single = run_wm(kernel, [0, rows.num_rows], **kw)
        multi = run_wm(kernel, bounds, **kw)
        pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(feeds(), st.integers(5, 60))
def test_epoch_split_invariance_bloom_dedup(data, rotate_rows):
    """Generational-Bloom dedup: for ANY feed (incl. unicode texts), ANY
    epoch split, and ANY rotation period, accumulated emissions equal the
    single pass — rotation points are fixed in the row stream."""
    from dstream_ray.stages.capture import content_dedup_bloom_kernel

    tbl, bounds = data
    kw = dict(bits=1 << 13, hashes=4, rotate_rows=rotate_rows)
    single = run_split(content_dedup_bloom_kernel, tbl, [0, tbl.num_rows], **kw)
    multi = run_split(content_dedup_bloom_kernel, tbl, bounds, **kw)
    pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(feeds(), st.integers(10, 300))
def test_epoch_split_invariance_absence(data, within_s):
    """CEP absence/timeout: for ANY per-conv-monotone feed, ANY epoch split
    and ANY window, accumulated emissions equal the single pass (timeout
    decisions depend on the conv clock and data, never on epoch framing)."""
    from dstream_ray.stages.windows import absence_kernel

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    single = run_split(absence_kernel, rows, [0, rows.num_rows], within_s=within_s)
    multi = run_split(absence_kernel, rows, bounds, within_s=within_s)
    pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(feeds())
def test_epoch_split_invariance_global_windows(data):
    """Global (cross-conv) windowed aggregates: for ANY feed and ANY epoch
    split ending in one flush, accumulated partial emissions equal the
    single pass (each window's partial is emitted exactly once)."""
    from dstream_ray.stages.windows import (
        tumbling_counts_kernel,
        tumbling_global_kernel,
    )

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    for kernel, kw in [
        (tumbling_global_kernel, {"width_s": WIDTH_S}),
        (tumbling_counts_kernel, {"width_s": WIDTH_S, "value_col": "role",
                                  "skip_empty": False}),
    ]:
        single = run_split(kernel, rows, [0, rows.num_rows], **kw)
        multi = run_split(kernel, rows, bounds, **kw)
        pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(feeds())
def test_epoch_split_invariance_upsert(data):
    """Latest-per-key compaction: for ANY feed (incl. unicode texts, key
    ties) and ANY epoch split ending in one flush, the emitted snapshot
    equals the single pass — the carried seq counter makes 'latest by
    arrival' split-independent."""
    from dstream_ray.stages.capture import upsert_kernel

    tbl, bounds = data
    for key_cols in [("conv_id", "role"), ("conv_id", "text")]:
        single = run_split(upsert_kernel, tbl, [0, tbl.num_rows], key_cols=key_cols)
        multi = run_split(upsert_kernel, tbl, bounds, key_cols=key_cols)
        pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(feeds(), st.integers(10, 300))
def test_epoch_split_invariance_interval_join(data, within_s):
    """Interval join: for ANY feed, ANY epoch split, ANY window width, the
    accumulated pair set equals the single pass (later-arrival emission +
    ts-window pruning never lose or duplicate a pair)."""
    from dstream_ray.stages.windows import interval_join_kernel

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    single = run_split(interval_join_kernel, rows, [0, rows.num_rows], within_s=within_s)
    multi = run_split(interval_join_kernel, rows, bounds, within_s=within_s)
    pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(feeds())
def test_epoch_split_invariance_tumbling_distinct(data):
    """Windowed distinct-count: any feed, any epoch split — accumulated
    emissions equal the single pass (the conv-closure residual carries
    complete open windows, so distinctness is exact at close)."""
    from dstream_ray.stages.windows import tumbling_distinct_kernel

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    single = run_split(tumbling_distinct_kernel, rows, [0, rows.num_rows], width_s=WIDTH_S)
    multi = run_split(tumbling_distinct_kernel, rows, bounds, width_s=WIDTH_S)
    pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(feeds())
def test_epoch_split_invariance_tumbling_quantile(data):
    """Windowed exact quantiles: any feed, any epoch split — accumulated
    emissions equal the single pass (order statistics read over complete
    windows at close)."""
    from dstream_ray.stages.windows import tumbling_quantile_kernel

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    single = run_split(tumbling_quantile_kernel, rows, [0, rows.num_rows], width_s=WIDTH_S)
    multi = run_split(tumbling_quantile_kernel, rows, bounds, width_s=WIDTH_S)
    pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=25, deadline=None)
@given(feeds(), st.integers(10, 300))
def test_epoch_split_invariance_outer_join(data, within_s):
    """LEFT-OUTER interval join: any feed, any epoch split, any window —
    the accumulated pair+timeout row set equals the single pass (matched
    flags carry across epochs; flush force-decides pending users)."""
    from dstream_ray.stages.windows import outer_join_kernel

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    single = run_split(outer_join_kernel, rows, [0, rows.num_rows], within_s=within_s)
    multi = run_split(outer_join_kernel, rows, bounds, within_s=within_s)
    pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=25, deadline=None)
@given(feeds(), st.integers(10, 300))
def test_epoch_split_invariance_per_row_labels(data, gap_s):
    """Per-row label operators (running window functions, gaps-and-islands
    sessionize): any feed, any epoch split — every row's labels depend
    only on its conv prefix, which the O(1) carry summarises exactly."""
    from dstream_ray.stages.windows import (
        anomaly_kernel,
        running_kernel,
        sessionize_kernel,
    )

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    for kernel, kw in [(running_kernel, {}), (sessionize_kernel, {"gap_s": gap_s}),
                       (anomaly_kernel, {"z": 2, "min_prior": 3})]:
        single = run_split(kernel, rows, [0, rows.num_rows], **kw)
        multi = run_split(kernel, rows, bounds, **kw)
        pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=25, deadline=None)
@given(feeds())
def test_epoch_split_invariance_tumbling_hll(data):
    """Windowed HLL sketch: any feed, any epoch split — the merged register
    table equals the single pass (registers are a pure max-fold over the
    (window, conv) set, order- and framing-free)."""
    from dstream_ray.stages.windows import tumbling_hll_kernel

    tbl, bounds = data
    rows = to_residual_rows(tbl)

    def merged(df):
        return (df.groupby(["window_id", "bucket"], as_index=False)["rank"].max()
                .sort_values(["window_id", "bucket"]).reset_index(drop=True))

    single = run_split(tumbling_hll_kernel, rows, [0, rows.num_rows], width_s=WIDTH_S)
    multi = run_split(tumbling_hll_kernel, rows, bounds, width_s=WIDTH_S)
    pd.testing.assert_frame_equal(merged(single), merged(multi), check_dtype=False)


@settings(max_examples=25, deadline=None)
@given(feeds())
def test_epoch_split_invariance_tumbling_qsketch(data):
    """Windowed quantile-sketch histogram: any feed, any epoch split — the
    merged bucket-count table equals the single pass (counts are a pure
    sum-fold over rows, order- and framing-free)."""
    from dstream_ray.stages.windows import tumbling_qsketch_kernel

    tbl, bounds = data
    rows = to_residual_rows(tbl)

    def merged(df):
        return (df.groupby(["window_id", "bucket"], as_index=False)["n"].sum()
                .sort_values(["window_id", "bucket"]).reset_index(drop=True))

    single = run_split(tumbling_qsketch_kernel, rows, [0, rows.num_rows], width_s=WIDTH_S)
    multi = run_split(tumbling_qsketch_kernel, rows, bounds, width_s=WIDTH_S)
    pd.testing.assert_frame_equal(merged(single), merged(multi), check_dtype=False)


@given(
    st.lists(
        st.lists(
            st.text(alphabet="ab☃x", min_size=1, max_size=3), min_size=0, max_size=12
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_repetition_stats_matches_counter_reference(docs):
    """repetition_stats == the obvious per-doc Counter computation for any
    token multiset (any token content, any doc mix, empty docs included)."""
    from collections import Counter

    import pyarrow as pa

    from dstream_ray.stages.text import repetition_stats

    texts = [" ".join(toks) for toks in docs]
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    out = repetition_stats(batch).to_pandas()
    for i, toks in enumerate(docs):
        n = len(toks)
        c = Counter(toks)
        bgs = [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        cb = Counter(bgs)
        row = out.iloc[i]
        assert row["n_tokens"] == n
        assert row["distinct_ratio_x1000"] == ((1000 * len(c)) // n if n else 0)
        assert row["top_tok_frac_x1000"] == ((1000 * max(c.values())) // n if n else 0)
        assert row["dup_bigram_frac_x1000"] == (
            (1000 * (len(bgs) - len(cb))) // len(bgs) if bgs else 0
        )


@settings(max_examples=30, deadline=None)
@given(feeds())
def test_epoch_split_invariance_sample_and_topk(data):
    """Bounded-state global window ops: tumbling_sample is EXACTLY split
    invariant for any feed (bottom-k is a semilattice); tumbling_topk is
    split invariant in the exact regime (capacity >= window vocabulary,
    here the 3-value role column)."""
    from dstream_ray.stages.windows import (
        tumbling_sample_kernel,
        tumbling_topk_kernel,
    )

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    for kernel, kw in [
        (tumbling_sample_kernel, {"width_s": WIDTH_S, "k": 3}),
        (tumbling_topk_kernel, {"width_s": WIDTH_S, "capacity": 16,
                                "value_col": "role", "skip_empty": False}),
    ]:
        single = run_split(kernel, rows, [0, rows.num_rows], **kw)
        multi = run_split(kernel, rows, bounds, **kw)
        pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(feeds(), st.integers(1, 3))
def test_topk_mg_bounds_any_split(data, capacity):
    """Over capacity, the Misra-Gries guarantees hold for ANY epoch split:
    <= capacity emitted entries per window, counts never overcount, and
    the undercount of every tracked value is within the window's err."""
    from dstream_ray.stages.windows import tumbling_topk_kernel

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    got = run_split(tumbling_topk_kernel, rows, bounds,
                    width_s=WIDTH_S, capacity=capacity,
                    value_col="role", skip_empty=False)
    if not len(got):
        return
    assert (got.groupby("window_id").size() <= capacity).all()
    # err-sentinels (value "", n 0, err > 0) mark windows whose entries
    # were ALL decremented away; they carry the err that would otherwise
    # vanish and never coexist with real rows of the same window
    sent = got[(got["n"] == 0) & (got["value"] == "")]
    got = got.drop(sent.index)
    real_ws = set(got["window_id"])
    assert (sent["err"] > 0).all()
    assert not (set(sent["window_id"]) & real_ws)
    if not len(got):
        return
    res = rows.to_pandas()
    res["window_id"] = res.ts_us // (WIDTH_S * 1_000_000)
    true = (res.groupby(["window_id", "role"]).size().rename("n_true")
            .reset_index().rename(columns={"role": "value"}))
    m = got.merge(true, on=["window_id", "value"], how="left")
    assert m["n_true"].notna().all()  # no phantom values
    assert (m["n"] <= m["n_true"]).all()
    assert (m["n_true"] - m["n"] <= m["err"]).all()


@settings(max_examples=25, deadline=None)
@given(feeds())
def test_epoch_split_invariance_sample_watermark(data):
    """tumbling_sample under watermark closure: on a ts-ordered feed, any
    epoch split's accumulated emissions equal the single pass (windows
    emit early but bottom-k content is split-independent), and nothing is
    late-dropped."""
    from dstream_ray.stages.windows import tumbling_sample_kernel

    tbl, bounds = data
    rows = to_residual_rows(tbl)
    order = np.argsort(rows["ts_us"].to_numpy(zero_copy_only=False), kind="stable")
    rows = rows.take(pa.array(order))

    def run_wm(bounds_):
        state: dict = {}
        outs = []
        wm = -1
        for i in range(len(bounds_) - 1):
            chunk = rows.slice(bounds_[i], bounds_[i + 1] - bounds_[i])
            if chunk.num_rows:
                wm = max(wm, int(chunk["ts_us"].to_numpy(zero_copy_only=False).max()))
            out, state = tumbling_sample_kernel(
                chunk, state, width_s=WIDTH_S, k=3,
                flush=(i == len(bounds_) - 2),
                closure="watermark", watermark_us=wm)
            outs.append(out)
        assert state.get("late_drops", 0) == 0
        return pa.concat_tables(outs).to_pandas()

    single = run_wm([0, rows.num_rows])
    multi = run_wm(bounds)
    pd.testing.assert_frame_equal(canon(single), canon(multi), check_dtype=False)
