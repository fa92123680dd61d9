"""Round-2 robustness semantics: non-terminal flush (no duplicate window /
session ids on continuation), bounded streaming state (relay + CEP
eviction), atomic lease stale-break, and loud out-of-order shard detection.
"""

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
from dstream_ray.sources.transcripts import generate_transcripts
from dstream_ray.stages.capture import relay_kernel
from dstream_ray.stages.cep import cep_kernel, cep_pattern_kernel
from dstream_ray.stages.windows import to_residual_rows
from dstream_ray.state.lease import Lease

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _shift_feed(tbl: pa.Table, turn_offset: int, ts_offset_us: int) -> pa.Table:
    """Same convs, later turns/timestamps — a continuation batch."""
    turn = pa.array(
        tbl["turn_idx"].to_numpy(zero_copy_only=False) + turn_offset, type=pa.int32()
    )
    ts = pa.array(
        tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) + ts_offset_us
    ).cast(pa.timestamp("us"))
    out = tbl.set_column(tbl.column_names.index("turn_idx"), "turn_idx", turn)
    return out.set_column(out.column_names.index("ts"), "ts", ts)


def test_flush_then_continue_no_duplicate_window_ids(ray_session, tmp_path):
    """Flush is non-terminal: a continued stream (same convs, later data)
    must not re-emit committed (conv, session/window) ids, and session
    numbering must continue after the published sessions."""
    feed = tmp_path / "feed"
    os.makedirs(feed)
    base = generate_transcripts(n_convs=12, mean_turns=8, seed=31, session_gap_s=120)
    pq.write_table(base, str(feed / "feed-0001.parquet"))
    cfg = StreamingConfig(
        feed_dir=str(feed),
        out_dir=str(tmp_path / "out"),
        num_partitions=2,
        files_per_epoch=1,
        operators={"session": {"gap_s": 120}, "tumbling": {"width_s": 3600}},
    )
    StreamingJob(cfg).run()  # flushes at end
    # continuation: same convs, turns continue, timestamps far beyond every
    # open window/session
    cont = _shift_feed(base, turn_offset=1000, ts_offset_us=30 * 24 * 3600 * 1_000_000)
    pq.write_table(cont, str(feed / "feed-0002.parquet"))
    job = StreamingJob(cfg)
    job.run()

    sess = job.sink.read_op("session").to_pandas()
    dup_sess = sess.groupby(["conv_id", "session_id"]).size()
    assert (dup_sess == 1).all(), dup_sess[dup_sess > 1]
    # numbering continued: second batch produced ids above the first flush's
    per_conv = sess.groupby("conv_id")["session_id"].agg(["count", "max"])
    assert (per_conv["max"] == per_conv["count"] - 1).all()

    tumb = job.sink.read_op("tumbling").to_pandas()
    dup_tumb = tumb.groupby(["conv_id", "window_id"]).size()
    assert (dup_tumb == 1).all(), dup_tumb[dup_tumb > 1]


def test_flush_then_same_bucket_rows_are_late_dropped(ray_session, tmp_path):
    """Continuation rows landing in an already-published tumbling bucket are
    dropped (counted), not re-emitted as a duplicate window id."""
    feed = tmp_path / "feed"
    os.makedirs(feed)
    base = generate_transcripts(n_convs=6, mean_turns=5, seed=33)
    pq.write_table(base, str(feed / "feed-0001.parquet"))
    cfg = StreamingConfig(
        feed_dir=str(feed),
        out_dir=str(tmp_path / "out"),
        num_partitions=2,
        files_per_epoch=1,
        operators={"tumbling": {"width_s": 24 * 3600}},
    )
    StreamingJob(cfg).run()
    # same convs, SAME day-bucket (tiny ts advance), later turn ids
    cont = _shift_feed(base, turn_offset=1000, ts_offset_us=1_000_000)
    pq.write_table(cont, str(feed / "feed-0002.parquet"))
    job = StreamingJob(cfg)
    job.run()
    tumb = job.sink.read_op("tumbling").to_pandas()
    dup = tumb.groupby(["conv_id", "window_id"]).size()
    assert (dup == 1).all(), dup[dup > 1]


def test_relay_eviction_bounds_state():
    """K epochs of disjoint convs: with eviction the cursor dict plateaus;
    without it, it grows with every conv ever seen."""
    evicted_state: dict = {}
    unbounded_state: dict = {}
    sizes = []
    for ep in range(8):
        tbl = generate_transcripts(
            n_convs=20, mean_turns=4, seed=100 + ep,
            start_us=1_700_000_000_000_000 + ep * 10**12,  # ~11.6 days apart
        )
        conv = pa.array([f"ep{ep}-{c}" for c in tbl["conv_id"].to_pylist()])
        tbl = tbl.set_column(0, "conv_id", conv)
        _, evicted_state = relay_kernel(
            tbl, evicted_state, evict_idle_us=10**11  # ~1.16 days idle TTL
        )
        _, unbounded_state = relay_kernel(tbl, unbounded_state)
        sizes.append(len(evicted_state["next_turn"]))
    assert len(unbounded_state["next_turn"]) == 8 * 20
    assert max(sizes) <= 2 * 20, sizes  # plateaus at ~one epoch's convs
    # eviction never broke dedup for LIVE convs: replay the last epoch
    out, evicted_state = relay_kernel(tbl, evicted_state, evict_idle_us=10**11)
    assert out.num_rows == 0  # fully deduped


def test_cep_eviction_emits_early_and_totals_match():
    """CEP with idle eviction publishes idle convs' counts BEFORE flush, and
    per-conv totals still equal the batch kernel's counts."""
    epochs = []
    for ep in range(4):
        tbl = generate_transcripts(
            n_convs=10, mean_turns=6, seed=200 + ep,
            start_us=1_700_000_000_000_000 + ep * 10**12,
        )
        conv = pa.array([f"ep{ep}-{c}" for c in tbl["conv_id"].to_pylist()])
        epochs.append(tbl.set_column(0, "conv_id", conv))
    state: dict = {}
    early_rows = 0
    outs = []
    wm = -1
    for i, tbl in enumerate(epochs):
        wm = max(wm, int(tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False).max()))
        out, state = cep_kernel(
            to_residual_rows(tbl), state, pattern="ua*t",
            flush=(i == len(epochs) - 1),
            evict_idle_us=10**11, watermark_us=wm,
        )
        if i < len(epochs) - 1:
            early_rows += out.num_rows
        outs.append(out)
    assert early_rows > 0  # published before the flush
    got = pa.concat_tables(outs).to_pandas().groupby("conv_id")["n_matches"].sum()
    full = pa.concat_tables(epochs)
    exp = cep_pattern_kernel(full, pattern="ua*t").to_pandas().set_index("conv_id")["n_matches"]
    assert got.sort_index().equals(exp.sort_index())
    assert len(state["counts"]) == 0  # flush drained everything


def test_session_watermark_closure_epoch_invariant():
    """closure='watermark': sessions of idle convs emit BEFORE flush, and on
    a globally ts-ordered feed the union of epoch emissions equals the
    single-pass batch output (ids, aggregates, everything)."""
    from dstream_ray.stages.windows import session_kernel

    feed = generate_transcripts(n_convs=40, mean_turns=10, seed=51, session_gap_s=120)
    rows = to_residual_rows(feed)
    # single-pass reference (conv closure + flush == full sessionization)
    batch_out, _ = session_kernel(rows, {}, gap_s=120, flush=True)
    batch_df = batch_out.to_pandas().sort_values(["conv_id", "session_id"]).reset_index(drop=True)

    # globally ts-ordered epoch split
    ts = rows["ts_us"].to_numpy(zero_copy_only=False)
    order = np.argsort(ts, kind="stable")
    rows_sorted = rows.take(pa.array(order))
    ts_sorted = ts[order]
    for n_epochs in (3, 7):
        bounds = np.linspace(0, rows.num_rows, n_epochs + 1).astype(int)
        state: dict = {}
        outs = []
        early = 0
        for i in range(n_epochs):
            chunk = rows_sorted.slice(bounds[i], bounds[i + 1] - bounds[i])
            wm = int(ts_sorted[bounds[i + 1] - 1]) if bounds[i + 1] > 0 else -1
            out, state = session_kernel(
                chunk, state, gap_s=120, flush=(i == n_epochs - 1),
                closure="watermark", watermark_us=wm,
            )
            if i < n_epochs - 1:
                early += out.num_rows
            outs.append(out)
        got = (
            pa.concat_tables(outs)
            .to_pandas()
            .sort_values(["conv_id", "session_id"])
            .reset_index(drop=True)
        )
        assert early > 0, "watermark closure never emitted before flush"
        import pandas as pd

        pd.testing.assert_frame_equal(got, batch_df)
        assert int(state.get("late_drops", 0)) == 0


def test_session_watermark_late_rows_dropped_not_duplicated():
    """A row arriving after its session was watermark-closed is counted in
    late_drops, never re-emitted as a duplicate session id."""
    from dstream_ray.stages.windows import session_kernel

    def mk(convs_turns):  # [(conv, turn, ts_s)]
        return pa.table(
            {
                "conv_id": pa.array([c for c, _, _ in convs_turns]),
                "turn_idx": pa.array([t for _, t, _ in convs_turns], type=pa.int32()),
                "role": pa.array(["user"] * len(convs_turns)),
                "tool": pa.array([""] * len(convs_turns)),
                "ts_us": pa.array([s * 1_000_000 for _, _, s in convs_turns], type=pa.int64()),
                "n_chars": pa.array([1] * len(convs_turns), type=pa.int64()),
            }
        )

    e1 = mk([("a", 0, 0), ("a", 1, 10)])
    out1, st = session_kernel(e1, {}, gap_s=60, flush=False, closure="watermark", watermark_us=200_000_000)
    assert out1.num_rows == 1  # wm=200s >> 10s+60s: session closed early
    # late row inside the closed session's span
    e2 = mk([("a", 2, 30)])
    out2, st = session_kernel(e2, st, gap_s=60, flush=False, closure="watermark", watermark_us=200_000_000)
    assert out2.num_rows == 0 and st["late_drops"] == 1
    # genuinely-new session after the gap
    e3 = mk([("a", 3, 500)])
    out3, st = session_kernel(e3, st, gap_s=60, flush=True, closure="watermark", watermark_us=600_000_000)
    df = out3.to_pandas()
    assert df["session_id"].tolist() == [1]  # numbered after the closed one


def test_lease_stale_break_is_atomic(tmp_path):
    path = str(tmp_path / "job.lock")
    a = Lease(path, owner="A", ttl_s=0.2)
    assert a.acquire()
    time.sleep(0.3)  # A's lease goes stale
    b = Lease(path, owner="B", ttl_s=0.2)
    assert b.acquire()  # breaks the stale lease via the sentinel
    # A no longer holds it
    assert not Lease(path, owner="A", ttl_s=0.2).renew()
    # a rival breaker blocked by a FRESH sentinel cannot also win
    time.sleep(0.3)  # B stale now
    cur_ts = __import__("json").load(open(path))["ts"]
    sentinel = f"{path}.break-{int(cur_ts * 1e6)}"
    open(sentinel, "w").close()  # simulate a concurrent breaker mid-break
    assert not Lease(path, owner="C", ttl_s=60).acquire()
    os.remove(sentinel)


def test_out_of_order_shard_fails_loudly(ray_session, tmp_path):
    feed = tmp_path / "feed"
    os.makedirs(feed)
    t = generate_transcripts(n_convs=5, mean_turns=3, seed=41)
    pq.write_table(t, str(feed / "feed-0005.parquet"))
    pq.write_table(t, str(feed / "feed-0006.parquet"))
    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"),
        num_partitions=2, files_per_epoch=2,
        operators={"session": {"gap_s": 120}},
    )
    StreamingJob(cfg).run()
    # a shard lands with a name BEFORE the committed high-water shard
    pq.write_table(t, str(feed / "feed-0001.parquet"))
    with pytest.raises(RuntimeError, match="ordering violation"):
        StreamingJob(cfg).plan()


def test_engine_cep_eviction_publishes_before_flush(ray_session, tmp_path):
    """Engine-level: cep with evict_idle_s publishes idle convs' counts in
    data epochs (not only at flush), and totals match the batch kernel."""
    feed = tmp_path / "feed"
    os.makedirs(feed)
    tables = []
    for ep in range(3):
        tbl = generate_transcripts(
            n_convs=8, mean_turns=6, seed=300 + ep,
            start_us=1_700_000_000_000_000 + ep * 10**12,
        )
        conv = pa.array([f"ep{ep}-{c}" for c in tbl["conv_id"].to_pylist()])
        tbl = tbl.set_column(0, "conv_id", conv)
        tables.append(tbl)
        pq.write_table(tbl, str(feed / f"feed-{ep:04d}.parquet"))
    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"),
        num_partitions=2, files_per_epoch=1,
        operators={"cep": {"pattern": "ua*t", "evict_idle_s": 100_000}},
        relay_evict_idle_s=100_000,
    )
    job = StreamingJob(cfg)
    job.run(flush_at_end=False, pipeline_depth=1)  # data epochs only
    partial = job.sink.read_op("cep")
    assert partial is not None and partial.num_rows > 0  # published pre-flush
    job2 = StreamingJob(cfg)
    job2.run()  # trailing flush epoch drains the rest
    got = (
        job2.sink.read_op("cep")
        .to_pandas()
        .groupby("conv_id")["n_matches"]
        .sum()
        .sort_index()
    )
    exp = (
        cep_pattern_kernel(pa.concat_tables(tables), pattern="ua*t")
        .to_pandas()
        .set_index("conv_id")["n_matches"]
        .sort_index()
    )
    assert got.equals(exp)


def test_key_relay_eviction_bounds_state():
    """Envelope (dual-cursor) relay: with eviction, tables idle for more
    than the tick budget drop their cursors; live tables keep deduping."""
    import json

    from dstream_ray.sources.envelopes import parse_envelope_lines

    def shard(table, lsns):
        return parse_envelope_lines([
            json.dumps({"data": {"v": l},
                        "metadata": {"TableName": table, "LSN": f"{l:016x}",
                                     "Seq": "0", "OperationType": "i"}})
            for l in lsns
        ])

    st: dict = {}
    # table 'hot' delivers every epoch; each epoch also brings a fresh table
    for ep in range(10):
        t = shard("hot", range(ep * 2, ep * 2 + 2))
        t2 = shard(f"cold{ep}", range(3))
        out, st = relay_kernel(t, st, evict_idle_us=3_000_000)  # 3 ticks
        out2, st = relay_kernel(t2, st, evict_idle_us=3_000_000)
    assert "hot" in st["last_key"]
    assert len(st["last_key"]) <= 6, sorted(st["last_key"])  # cold tables evicted
    # hot table still dedups replays
    out, st = relay_kernel(shard("hot", range(0, 20)), st, evict_idle_us=3_000_000)
    assert out.num_rows == 0


def test_fused_session_join_watermark_epoch_invariant():
    """Fused kernel with closure='watermark': BOTH outputs (session + join)
    emit idle convs before flush and match the single-pass batch output on
    globally ts-ordered feeds."""
    import pandas as pd

    from dstream_ray.stages.windows import session_with_join_kernel

    feed = generate_transcripts(n_convs=40, mean_turns=12, seed=61, session_gap_s=120)
    rows = to_residual_rows(feed)
    batch, _ = session_with_join_kernel(rows, {}, gap_s=120, flush=True)
    ref = {
        k: v.to_pandas().sort_values(list(v.column_names)).reset_index(drop=True)
        for k, v in batch.items()
    }
    ts = rows["ts_us"].to_numpy(zero_copy_only=False)
    order = np.argsort(ts, kind="stable")
    rows_sorted = rows.take(pa.array(order))
    ts_sorted = ts[order]
    for n_epochs in (4,):
        bounds = np.linspace(0, rows.num_rows, n_epochs + 1).astype(int)
        state: dict = {}
        outs: dict = {"session": [], "session_join": []}
        early = 0
        for i in range(n_epochs):
            chunk = rows_sorted.slice(bounds[i], bounds[i + 1] - bounds[i])
            wm = int(ts_sorted[bounds[i + 1] - 1])
            out, state = session_with_join_kernel(
                chunk, state, gap_s=120, flush=(i == n_epochs - 1),
                closure="watermark", watermark_us=wm,
            )
            for k, v in out.items():
                outs[k].append(v)
                if i < n_epochs - 1:
                    early += v.num_rows
        assert early > 0
        for k in outs:
            got = (
                pa.concat_tables(outs[k])
                .to_pandas()
                .sort_values(list(ref[k].columns))
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, ref[k], check_like=True)
        assert int(state.get("late_drops", 0)) == 0


def test_key_relay_wide_keys_not_truncated():
    """cdc_keys wider than the old fixed S80 dtype: two distinct keys sharing
    an 80-byte prefix must BOTH be delivered (truncation aliased them and
    dropped the second as a duplicate)."""
    prefix = "f" * 80
    t = pa.table({
        "conv_id": pa.array(["t1", "t1"]),
        "turn_idx": pa.array([0, 1], type=pa.int32()),
        "role": pa.array(["user", "user"]),
        "text": pa.array(["a", "b"]),
        "tool": pa.array(["", ""]),
        "ts": pa.array([0, 1], type=pa.int64()).cast(pa.timestamp("us")),
        "cdc_key": pa.array([prefix + "1", prefix + "2"]),
    })
    out, st = relay_kernel(t, {})
    assert out.num_rows == 2
    assert st["last_key"]["t1"] == prefix + "2"
    # replaying both is fully deduped; a strictly larger wide key flows
    out2, st = relay_kernel(t, st)
    assert out2.num_rows == 0
    t3 = t.set_column(
        t.column_names.index("cdc_key"), "cdc_key",
        pa.array([prefix + "3", prefix + "0"]),
    )
    out3, st = relay_kernel(t3, st)
    assert out3.num_rows == 1


def test_lateness_rejected_on_envelope_feeds():
    """allowed_lateness_s + cdc_key feed is undefined (relay rewrites ts on
    a synthetic clock) and must fail loudly, not silently drop shards."""
    import pytest as _pytest

    from dstream_ray.pipelines.streaming import StreamingConfig, process_partition

    t = pa.table({
        "conv_id": pa.array(["t1"]),
        "turn_idx": pa.array([0], type=pa.int32()),
        "role": pa.array(["user"]),
        "text": pa.array(["a"]),
        "tool": pa.array([""]),
        "ts": pa.array([0], type=pa.int64()).cast(pa.timestamp("us")),
        "cdc_key": pa.array(["0001"]),
    })
    cfg = StreamingConfig(
        feed_dir="/nonexistent", out_dir="/tmp/dstream_late_reject",
        allowed_lateness_s=60,
    )
    with _pytest.raises(ValueError, match="incompatible with envelope"):
        process_partition(t, 0, 0, {}, cfg, flush=False)


def test_content_dedup_kernel_matches_qualify_oracle():
    """Streaming per-conv content dedup == SQL first-occurrence
    (QUALIFY row_number() OVER (PARTITION BY conv_id, text...) = 1), under
    any epoch split."""
    import duckdb

    from dstream_ray.stages.capture import content_dedup_kernel

    t0 = 1_700_000_000_000_000
    convs, turns, texts = [], [], []
    for c in range(6):
        for t in range(30):
            convs.append(f"c{c}")
            turns.append(t)
            texts.append(f"msg-{t % 7}" if t % 3 else "retry retry")  # heavy dups
    tbl = pa.table({
        "conv_id": pa.array(convs),
        "turn_idx": pa.array(turns, type=pa.int32()),
        "role": pa.array(["user"] * len(convs)),
        "text": pa.array(texts),
        "tool": pa.array([""] * len(convs)),
        "ts": pa.array([t0 + i * 1_000_000 for i in range(len(convs))],
                       type=pa.int64()).cast(pa.timestamp("us")),
    })
    con = duckdb.connect()
    con.register("feed", tbl)
    exp = con.execute("""
        SELECT conv_id, turn_idx FROM feed
        QUALIFY row_number() OVER (PARTITION BY conv_id, text ORDER BY turn_idx) = 1
        ORDER BY conv_id, turn_idx
    """).fetch_df()
    for n_epochs in (1, 4):
        bounds = np.linspace(0, tbl.num_rows, n_epochs + 1).astype(int)
        state: dict = {}
        outs = []
        for i in range(n_epochs):
            out, state = content_dedup_kernel(
                tbl.slice(bounds[i], bounds[i + 1] - bounds[i]), state,
                flush=(i == n_epochs - 1),
            )
            outs.append(out)
        got = (
            pa.concat_tables(outs).to_pandas()[["conv_id", "turn_idx"]]
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # flush is non-terminal: a post-flush duplicate is still suppressed
    post, state = content_dedup_kernel(tbl.slice(0, 10), state)
    assert post.num_rows == 0


def test_content_dedup_eviction_bounds_state():
    from dstream_ray.stages.capture import content_dedup_kernel

    t0 = 1_700_000_000_000_000

    def rows(conv, base, texts):
        n = len(texts)
        return pa.table({
            "conv_id": pa.array([conv] * n),
            "turn_idx": pa.array(range(n), type=pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array(texts),
            "tool": pa.array([""] * n),
            "ts": pa.array([base + i * 1_000_000 for i in range(n)],
                           type=pa.int64()).cast(pa.timestamp("us")),
        })

    state: dict = {}
    out, state = content_dedup_kernel(
        rows("old", t0, ["a", "b"]), state,
        evict_idle_us=5_000_000, watermark_us=t0 + 1_000_000)
    assert out.num_rows == 2
    # much later activity on another conv advances the watermark -> 'old'
    # conv's seen-set is evicted
    out, state = content_dedup_kernel(
        rows("fresh", t0 + 100_000_000, ["x"]), state,
        evict_idle_us=5_000_000, watermark_us=t0 + 100_000_000)
    assert "old" not in state["seen"] and "fresh" in state["seen"]


def test_content_dedup_in_engine(ray_session, tmp_path):
    """'dedup' operator through the full engine (raw-input routing): the
    committed sink equals SQL first-occurrence over the feed."""
    import duckdb

    import pyarrow.parquet as pq_mod

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    t0 = 1_700_000_000_000_000
    rows = []
    for c in range(8):
        for t in range(40):
            rows.append((f"c{c}", t, "user", f"m{t % 5}", "", t0 + (c * 40 + t) * 1_000_000))
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows]),
        "tool": pa.array([r[4] for r in rows]),
        "ts": pa.array([r[5] for r in rows], type=pa.int64()).cast(pa.timestamp("us")),
    })
    feed = tmp_path / "feed"
    feed.mkdir()
    n = tbl.num_rows
    for i, (lo, hi) in enumerate([(0, n // 2), (n // 2, n)]):
        pq_mod.write_table(tbl.slice(lo, hi - lo), str(feed / f"f-{i}.parquet"))
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        files_per_epoch=1, operators={"dedup": {}},
    ))
    job.run()
    got = (
        job.sink.read_op("dedup").to_pandas()
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("feed", tbl)
    exp = con.execute("""
        SELECT * FROM feed
        QUALIFY row_number() OVER (PARTITION BY conv_id, text ORDER BY turn_idx) = 1
        ORDER BY conv_id, turn_idx
    """).fetch_df()
    pd.testing.assert_frame_equal(got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)


def test_multi_stream_shards_interleave_freely(ray_session, tmp_path):
    """Per-stream cursors: shards from two producers (distinct prefixes)
    may arrive in any cross-stream name order; only WITHIN-stream ordering
    is a contract. All rows are delivered exactly once."""
    feed = tmp_path / "feed"
    os.makedirs(feed)
    a = generate_transcripts(n_convs=6, mean_turns=4, seed=51)
    b = generate_transcripts(n_convs=6, mean_turns=4, seed=52)
    # rename conv ids so the two streams don't collide
    b = b.set_column(
        b.column_names.index("conv_id"), "conv_id",
        pa.array([f"x{c}" for c in b["conv_id"].to_pylist()]),
    )
    pq.write_table(a.slice(0, a.num_rows // 2), str(feed / "provA-0001.parquet"))
    pq.write_table(b.slice(0, b.num_rows // 2), str(feed / "provB-0007.parquet"))
    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"),
        num_partitions=2, files_per_epoch=4, operators={},
    )
    StreamingJob(cfg).run(flush_at_end=False)
    # provA's next shard sorts BEFORE provB's committed high-water name —
    # legal across streams (the old global cursor raised here)
    pq.write_table(a.slice(a.num_rows // 2), str(feed / "provA-0002.parquet"))
    pq.write_table(b.slice(b.num_rows // 2), str(feed / "provB-0008.parquet"))
    job = StreamingJob(cfg)
    job.run()
    events = job.sink.read_op("events").to_pandas()
    assert len(events) == a.num_rows + b.num_rows
    # within-stream violations still fail loudly
    pq.write_table(a, str(feed / "provA-0000.parquet"))
    with pytest.raises(RuntimeError, match="stream 'provA'"):
        StreamingJob(cfg).plan()


def test_two_live_relay_daemons_one_job(ray_session, tmp_path):
    """Two provider relays (separate processes, distinct shard prefixes)
    feeding ONE engine job concurrently — the multi-stream ingestion shape
    for parallel CDC sources."""
    import json as _json
    import subprocess
    import sys as _sys

    corpus = {}
    for name, tables in [("A", ["t1", "t2"]), ("B", ["t3"])]:
        lines = [
            _json.dumps({"data": {"v": i}, "metadata": {
                "TableName": tables[i % len(tables)], "LSN": f"{i:016x}",
                "Seq": "0", "OperationType": "i"}})
            for i in range(300)
        ]
        p = tmp_path / f"corpus{name}.ndjson"
        p.write_text("\n".join(lines) + "\n")
        corpus[name] = str(p)
    feed = tmp_path / "feed"
    feed.mkdir()
    env = dict(os.environ, PYTHONPATH=REPO)
    relays = [
        subprocess.Popen(
            [_sys.executable, "-m", "dstream_ray.sources.provider",
             "--feed-dir", str(feed), "--fmt", "ndjson",
             "--rows-per-shard", "100", "--shard-prefix", f"prov{name}",
             "--", "cat", corpus[name]],
            env=env, cwd=REPO, stdout=subprocess.DEVNULL,
        )
        for name in ("A", "B")
    ]
    for r in relays:
        assert r.wait(timeout=60) == 0
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"),
        num_partitions=2, files_per_epoch=3, operators={},
    ))
    job.run()
    events = job.sink.read_op("events").to_pandas()
    assert len(events) == 600
    per = events.groupby("conv_id")["turn_idx"].agg(["count", "min"])
    assert set(per.index) == {"t1", "t2", "t3"} and (per["min"] == 0).all()


def test_legacy_manifest_without_streams_resumes_correctly(ray_session, tmp_path):
    """A checkpoint committed before per-stream cursors (manifest lacks
    'streams') must resume under the legacy single-cursor rule — never
    silently re-ingest consumed shards (code-review fix)."""
    import json as _json

    feed = tmp_path / "feed"
    os.makedirs(feed)
    t = generate_transcripts(n_convs=5, mean_turns=3, seed=43)
    pq.write_table(t, str(feed / "feed-0001.parquet"))
    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"),
        num_partitions=2, files_per_epoch=2, operators={},
    )
    job = StreamingJob(cfg)
    job.run()
    # rewrite the committed manifest to the pre-streams format
    epoch, manifest = job.store.last_committed()
    manifest.pop("streams")
    with open(job.store._commit_path(epoch), "w") as fh:
        _json.dump(manifest, fh)
    job2 = StreamingJob(cfg)
    assert job2.plan()["pending_files"] == []  # nothing re-ingested
    job2.run()
    assert job2.sink.read_op("events").num_rows == t.num_rows  # no dups
    # and the legacy ordering protection still fires
    pq.write_table(t, str(feed / "feed-0000.parquet"))
    with pytest.raises(RuntimeError, match="ordering violation"):
        StreamingJob(cfg).plan()


def test_empty_shard_and_redelivered_shard(ray_session, tmp_path):
    """Producer edge cases the feed contract allows: an EMPTY shard file
    (rotation with no traffic) must flow through the exchange as P empty
    slices (regression: _split_task IndexError'd on zero rows), and a
    byte-identical REDELIVERED shard must be fully absorbed by the relay
    cursor — committed events equal the unique feed rows exactly."""
    import duckdb

    feed = tmp_path / "feed"
    generate_transcripts(n_convs=8, mean_turns=6, seed=2,
                         out_path=str(feed), n_shards=2)
    first = sorted(os.listdir(feed))[0]
    t0 = pq.read_table(str(feed / first))
    pq.write_table(t0.slice(0, 0), str(feed / "feed-aa-empty.parquet"))
    pq.write_table(t0, str(feed / "feed-zz-redelivered.parquet"))
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"),
        num_partitions=2, files_per_epoch=1,
    ))
    st = job.run()
    assert st["committed_epochs"] == 4  # every shard (incl. empty) consumed
    ev = job.sink.read_op("events")
    con = duckdb.connect()
    n_unique = con.execute(
        f"SELECT count(*) FROM read_parquet('{feed}/feed-0*.parquet')"
    ).fetchone()[0]
    assert ev.num_rows == n_unique


def test_feed_schema_evolution_tolerated_missing_columns_loud(ray_session, tmp_path):
    """Producer schema evolution: a shard with EXTRA columns is projected
    to the transcript contract (per-epoch sink files must share one
    schema); a shard MISSING contract columns fails loudly with the
    column list. Type drift: a ``timestamp[ns]`` ts (pandas' default) is
    cast back to µs and windows exactly like the µs shard; a column that
    does not cast safely fails loudly naming the shard."""
    feed = tmp_path / "feed"
    generate_transcripts(n_convs=6, mean_turns=5, seed=4,
                         out_path=str(feed), n_shards=2)
    shards = sorted(os.listdir(feed))
    t1 = pq.read_table(str(feed / shards[1]))
    pq.write_table(t1.append_column("new_meta", pa.array(["x"] * t1.num_rows)),
                   str(feed / shards[1]))
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"),
        num_partitions=2, files_per_epoch=1,
    ))
    st = job.run()
    ev = job.sink.read_op("events")
    total = sum(pq.read_metadata(str(feed / s)).num_rows for s in shards)
    assert st["committed_epochs"] == 2 and ev.num_rows == total
    assert "new_meta" not in ev.column_names

    bad = tmp_path / "feed_bad"
    os.makedirs(bad)
    pq.write_table(t1.drop_columns(["tool"]), str(bad / "feed-00.parquet"))
    job2 = StreamingJob(StreamingConfig(
        feed_dir=str(bad), out_dir=str(tmp_path / "out_bad"),
        num_partitions=2, files_per_epoch=1,
    ))
    with pytest.raises(Exception, match="missing transcript contract"):
        job2.run()

    def tumbling_of(name, table):
        d = tmp_path / f"feed_{name}"
        os.makedirs(d)
        pq.write_table(table, str(d / "feed-00.parquet"))
        job = StreamingJob(StreamingConfig(
            feed_dir=str(d), out_dir=str(tmp_path / f"out_{name}"),
            num_partitions=2, operators={"tumbling": {"width_s": 86400}},
        ))
        job.run()
        return job.sink.read_op("tumbling").to_pandas().sort_values(
            ["conv_id", "window_id"]).reset_index(drop=True)

    t0 = pq.read_table(str(feed / shards[0]))
    ns = t0.set_column(5, "ts", t0["ts"].cast(pa.timestamp("ns")))
    got = tumbling_of("ns", ns)
    assert pq.read_schema(str(tmp_path / "feed_ns" / "feed-00.parquet")).field("ts").type \
        == pa.timestamp("ns")
    pd.testing.assert_frame_equal(got, tumbling_of("us", t0))

    drift = tmp_path / "feed_drift"
    os.makedirs(drift)
    turn_str = pa.array([f"{v}.0" for v in t0["turn_idx"].to_pylist()])
    pq.write_table(t0.set_column(1, "turn_idx", turn_str), str(drift / "feed-07.parquet"))
    job3 = StreamingJob(StreamingConfig(
        feed_dir=str(drift), out_dir=str(tmp_path / "out_drift"), num_partitions=2,
    ))
    with pytest.raises(Exception, match=r"feed-07\.parquet column 'turn_idx' has type string"):
        job3.run()


@pytest.mark.parametrize("feed_kind", ["parquet", "ndjson"])
def test_engine_runs_from_non_repo_cwd_without_pythonpath(tmp_path, feed_kind, sf_tiny):
    """Workers must unpickle every task UDF via the package's cloudpickle
    by-value registration alone — a runtime `import dstream_ray...` inside
    a remote task body breaks drivers whose cwd is not the repo (the
    driver's own call pattern). Regressions: the feed-contract check once
    imported TRANSCRIPT_SCHEMA inside _split_task, the raw envelope parse
    imported dstream_ray.common inside the split task, the batch
    q_tumbling_salted partial imported dstream_ray.common per batch, and
    q_quality_classify's scorer imported it per batch too."""
    import json as _json
    import subprocess
    import sys as _sys

    feed = tmp_path / "feed"
    if feed_kind == "parquet":
        generate_transcripts(n_convs=4, mean_turns=5, seed=6,
                             out_path=str(feed), n_shards=1)
    else:
        feed.mkdir()
        lines = [_json.dumps({"data": {"v": i}, "metadata": {
            "TableName": f"t{i % 3}", "LSN": f"{i:08x}", "Seq": "0",
            "OperationType": "insert"}}) for i in range(30)]
        lines.insert(7, lines[7][:20])  # one malformed line: the scalar path runs too
        (feed / "s-00.ndjson").write_text("\n".join(lines) + "\n")
    script = f"""
import sys; sys.path.insert(0, {REPO!r})
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
import ray.data; ray.data.DataContext.get_current().enable_progress_bars = False
from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
job = StreamingJob(StreamingConfig(feed_dir={str(feed)!r}, out_dir={str(tmp_path / 'out')!r},
                                   num_partitions=2, files_per_epoch=1,
                                   envelope_payload="raw"))
st = job.run()
print("ROWS", job.sink.read_op("events").num_rows)
if {feed_kind == "parquet"!r}:
    from dstream_ray.pipelines.queries import q_tumbling_salted
    print("SALTED", len(q_tumbling_salted({sf_tiny!r})))
    from dstream_ray.pipelines.dataops import q_quality_classify
    print("QUALITY", q_quality_classify({sf_tiny!r}).count())
ray.shutdown()
"""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([_sys.executable, "-c", script], cwd="/tmp",
                       env=env, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    assert "ROWS" in r.stdout and int(r.stdout.split("ROWS")[1].split()[0]) > 0
    if feed_kind == "parquet":
        assert int(r.stdout.split("SALTED")[1].split()[0]) > 0
        assert int(r.stdout.split("QUALITY")[1].split()[0]) > 0
