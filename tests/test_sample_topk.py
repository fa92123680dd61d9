"""Bounded-state global windowed sampling (bottom-k hash priority) and
heavy hitters (Misra-Gries): SQL parity in the exact regime under any
epoch/partition split, the MG error-bound guarantees over capacity, the
HUGEINT SQL emulation of the priority hash, watermark closure, and the
engine path."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

from dstream_ray.common import fmix64, fnv1a_u64, partition_ids
from dstream_ray.stages.windows import (
    to_residual_rows,
    tumbling_sample_kernel,
    tumbling_topk_kernel,
)

T0 = 1_700_000_000_000_000
W_S = 600
K = 5


def _feed(seed=0, n_convs=12, n_turns=60):
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(n_convs):
        ts = T0 + int(rng.integers(0, 3600)) * 1_000_000
        for t in range(n_turns):
            ts += int(rng.integers(1, 150)) * 1_000_000
            role = ["user", "assistant", "tool"][int(rng.integers(0, 3))]
            tool = f"tool{rng.integers(0, 6)}" if role == "tool" else ""
            rows.append((f"c{c}", t, role, "x" * int(rng.integers(1, 9)), tool, ts))
    rng.shuffle(rows)
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows]),
        "tool": pa.array([r[4] for r in rows]),
        "ts": pa.array([r[5] for r in rows], type=pa.int64()).cast(pa.timestamp("us")),
    })


def _run_split(kernel, rows, n_epochs, **kw):
    bounds = np.linspace(0, rows.num_rows, n_epochs + 1).astype(int)
    state: dict = {}
    outs = []
    for i in range(n_epochs):
        out, state = kernel(
            rows.slice(bounds[i], bounds[i + 1] - bounds[i]), state,
            width_s=W_S, flush=(i == n_epochs - 1), **kw)
        outs.append(out)
    return pa.concat_tables(outs), state


def _sample_ref(res: pa.Table, k: int = K) -> pd.DataFrame:
    """Reference bottom-k per window via the engine-side hash helpers."""
    df = res.to_pandas()
    key = df.conv_id + ":" + df.turn_idx.astype(str)
    df["priority"] = fmix64(fnv1a_u64(list(key)))
    df["window_id"] = df.ts_us // (W_S * 1_000_000)
    return (df.sort_values(["window_id", "priority", "conv_id", "turn_idx"])
            .groupby("window_id").head(k)[["window_id", "conv_id", "turn_idx"]]
            .sort_values(["window_id", "conv_id", "turn_idx"])
            .reset_index(drop=True).astype({"turn_idx": "int64"}))


def _sample_got(out: pa.Table) -> pd.DataFrame:
    return (out.to_pandas()[["window_id", "conv_id", "turn_idx"]]
            .sort_values(["window_id", "conv_id", "turn_idx"])
            .reset_index(drop=True).astype({"turn_idx": "int64"}))


COUNTS_ORACLE = f"""
    SELECT CAST(floor(epoch(ts)/{W_S}) AS BIGINT) AS window_id, tool AS "value",
           count(*) AS n
    FROM feed WHERE tool <> '' GROUP BY 1, 2 ORDER BY 1, 2
"""


def _oracle(feed, sql):
    con = duckdb.connect()
    con.register("feed", feed)
    return con.execute(sql).fetch_df()


def test_sample_exact_any_epoch_split():
    res = to_residual_rows(_feed(seed=7))
    ref = _sample_ref(res)
    for ne in (1, 3, 7):
        out, st = _run_split(tumbling_sample_kernel, res, ne, k=K)
        assert _sample_got(out).equals(ref), f"epochs={ne}"
        assert len(st["partials"]) == 0  # flush drained everything


def test_sample_partition_merge_is_exact():
    """bottom_k(union of per-partition bottom-ks) == bottom_k(full window):
    the semilattice property the consumer-side merge relies on."""
    res = to_residual_rows(_feed(seed=7))
    ref = _sample_ref(res)
    pid = np.asarray(partition_ids(res["conv_id"], 3))
    outs = [
        _run_split(tumbling_sample_kernel, res.filter(pa.array(pid == p)), 2, k=K)[0]
        for p in range(3)
    ]
    cand = pa.concat_tables(outs).to_pandas()
    # every partial respects the per-partition bound
    assert (cand.groupby("window_id").size() <= 3 * K).all()
    merged = (cand.sort_values(["window_id", "priority", "conv_id", "turn_idx"])
              .groupby("window_id").head(K)[["window_id", "conv_id", "turn_idx"]]
              .sort_values(["window_id", "conv_id", "turn_idx"])
              .reset_index(drop=True).astype({"turn_idx": "int64"}))
    assert merged.equals(ref)


def test_sample_priority_matches_hugeint_sql():
    """The HUGEINT fnv1a+fmix64 emulation the oracle uses selects the
    SAME rows as the engine's uint64 hash chain — the SQL-gate premise."""
    feed = _feed(seed=3, n_convs=6, n_turns=30)
    res = to_residual_rows(feed)
    out, _ = _run_split(tumbling_sample_kernel, res, 2, k=K)
    con = duckdb.connect()
    con.register("feed", feed)
    sql = f"""
WITH base AS (
  SELECT CAST(floor(epoch(ts)/{W_S}) AS BIGINT) AS window_id,
         conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
         conv_id || ':' || CAST(turn_idx AS VARCHAR) AS key
  FROM feed
), fnv AS (
  SELECT *, list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split(key, ''), c -> ord(c)::HUGEINT)),
      (h, b) -> (xor(h, b) * 1099511628211) % (1::HUGEINT << 64)) AS h0
  FROM base
), mix1 AS (SELECT *, xor(h0, h0 >> 33) AS h1 FROM fnv
), mul1 AS (
  SELECT *, ( ((h1 >> 32) * 18397679294719823053::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h1 % (1::HUGEINT << 32)) * 18397679294719823053::HUGEINT ) % (1::HUGEINT << 64) AS h2
  FROM mix1
), mix2 AS (SELECT *, xor(h2, h2 >> 33) AS h3 FROM mul1
), mul2 AS (
  SELECT *, ( ((h3 >> 32) * 14181476777654086739::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h3 % (1::HUGEINT << 32)) * 14181476777654086739::HUGEINT ) % (1::HUGEINT << 64) AS h4
  FROM mix2
), mixed AS (SELECT window_id, conv_id, turn_idx, xor(h4, h4 >> 33) AS h FROM mul2)
SELECT window_id, conv_id, turn_idx FROM mixed
QUALIFY row_number() OVER (PARTITION BY window_id
                           ORDER BY h, conv_id, turn_idx) <= {K}
ORDER BY window_id, conv_id, turn_idx
"""
    exp = con.execute(sql).fetch_df()
    pd.testing.assert_frame_equal(_sample_got(out), exp, check_dtype=False)


def test_sample_watermark_closure_and_late_drop():
    feed = _feed(seed=5)
    df = feed.to_pandas().sort_values("ts")
    rows = to_residual_rows(pa.Table.from_pandas(df, preserve_index=False))
    ref = _sample_ref(rows)
    bounds = np.linspace(0, rows.num_rows, 5).astype(int)
    state: dict = {}
    outs = []
    wm = -1
    for i in range(4):
        chunk = rows.slice(bounds[i], bounds[i + 1] - bounds[i])
        if chunk.num_rows:
            wm = max(wm, int(chunk["ts_us"].to_numpy(zero_copy_only=False).max()))
        out, state = tumbling_sample_kernel(
            chunk, state, width_s=W_S, k=K, flush=(i == 3),
            closure="watermark", watermark_us=wm)
        outs.append(out)
    assert state["late_drops"] == 0
    assert outs[0].num_rows or outs[1].num_rows or outs[2].num_rows
    assert _sample_got(pa.concat_tables(outs)).equals(ref)
    out, state2 = tumbling_sample_kernel(
        rows.slice(0, 1), state, width_s=W_S, k=K, flush=True,
        closure="watermark", watermark_us=wm)
    assert state2["late_drops"] == 1 and out.num_rows == 0


def test_sample_state_bounded():
    res = to_residual_rows(_feed(seed=11))
    state: dict = {}
    bounds = np.linspace(0, res.num_rows, 6).astype(int)
    n_windows = len(np.unique(
        res["ts_us"].to_numpy(zero_copy_only=False) // (W_S * 1_000_000)))
    for i in range(5):
        _, state = tumbling_sample_kernel(
            res.slice(bounds[i], bounds[i + 1] - bounds[i]), state,
            width_s=W_S, k=K, flush=False)
        assert len(state["partials"]) <= K * n_windows
        assert (state["partials"].groupby("window_id").size() <= K).all()


def test_topk_exact_regime_matches_counts_sql():
    feed = _feed(seed=2)
    res = to_residual_rows(feed)
    exp = _oracle(feed, COUNTS_ORACLE)
    for ne in (1, 4):
        out, _ = _run_split(tumbling_topk_kernel, res, ne, capacity=50)
        g = out.to_pandas()
        assert (g["err"] == 0).all()
        got = (g.groupby(["window_id", "value"], as_index=False)["n"].sum()
               .sort_values(["window_id", "value"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_topk_mg_bounds_over_capacity():
    """Over capacity the Misra-Gries guarantees hold on every emission:
    <= capacity entries per window, n in [true-err, true], and every value
    with true count > err is tracked."""
    feed = _feed(seed=2)
    res = to_residual_rows(feed)
    cnt = _oracle(feed, COUNTS_ORACLE)
    C = 3
    out, _ = _run_split(tumbling_topk_kernel, res, 5, capacity=C)
    g = out.to_pandas()
    assert (g.groupby("window_id").size() <= C).all()
    m = g.merge(cnt, on=["window_id", "value"], suffixes=("", "_true"))
    assert len(m) == len(g)  # no phantom values
    assert (m["n"] <= m["n_true"]).all()
    assert (m["n_true"] - m["n"] <= m["err"]).all()
    errw = g.groupby("window_id")["err"].max()
    hv = cnt.join(errw.rename("err"), on="window_id")
    hv = hv[hv["n"] > hv["err"].fillna(np.inf)]
    present = set(map(tuple, g[["window_id", "value"]].values))
    assert all(t in present for t in map(tuple, hv[["window_id", "value"]].values))


def test_topk_state_bounded_and_partition_merge():
    feed = _feed(seed=4)
    res = to_residual_rows(feed)
    cnt = _oracle(feed, COUNTS_ORACLE)
    C = 4
    pid = np.asarray(partition_ids(res["conv_id"], 3))
    parts = []
    for p in range(3):
        sub = res.filter(pa.array(pid == p))
        state: dict = {}
        bounds = np.linspace(0, sub.num_rows, 4).astype(int)
        outs = []
        for i in range(3):
            out, state = tumbling_topk_kernel(
                sub.slice(bounds[i], bounds[i + 1] - bounds[i]), state,
                width_s=W_S, capacity=C, flush=(i == 2))
            assert len(state["partials"]) == 0 or (
                state["partials"].groupby("window_id").size() <= C).all()
            outs.append(out)
        parts.append(pa.concat_tables(outs))
    g = pa.concat_tables(parts).to_pandas()
    lo = g.groupby(["window_id", "value"], as_index=False)["n"].sum()
    err_tot = (g.groupby(["window_id"])
               .apply(lambda d: d.groupby("value")["err"].first().sum(),
                      include_groups=False)
               .rename("err_tot"))
    m = lo.merge(cnt, on=["window_id", "value"], suffixes=("", "_true"))
    assert (m["n"] <= m["n_true"]).all()
    # summed lower bounds are within the summed error budget of the truth
    bounded = m.join(err_tot, on="window_id")
    assert (bounded["n_true"] - bounded["n"] <= bounded["err_tot"]).all()


def test_engine_end_to_end(ray_session, tmp_path):
    """Both new operators through a real multi-epoch exactly-once run: the
    merged committed partials equal the full-feed references."""
    import pyarrow.parquet as pq

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    feed = _feed(seed=9)
    df = feed.to_pandas().sort_values(["conv_id", "turn_idx"])
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    feed_dir = tmp_path / "feed"
    feed_dir.mkdir()
    bounds = np.linspace(0, tbl.num_rows, 5).astype(int)
    for i in range(4):
        pq.write_table(tbl.slice(bounds[i], bounds[i + 1] - bounds[i]),
                       str(feed_dir / f"feed-{i:02d}.parquet"))
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed_dir), out_dir=str(tmp_path / "out"),
        num_partitions=4, files_per_epoch=2,
        operators={"tumbling_sample": {"width_s": W_S, "k": K},
                   "tumbling_topk": {"width_s": W_S, "capacity": 50}},
    ))
    job.run()
    res = to_residual_rows(tbl)
    cand = job.sink.read_op("tumbling_sample").to_pandas()
    merged = (cand.sort_values(["window_id", "priority", "conv_id", "turn_idx"])
              .groupby("window_id").head(K)[["window_id", "conv_id", "turn_idx"]]
              .sort_values(["window_id", "conv_id", "turn_idx"])
              .reset_index(drop=True).astype({"turn_idx": "int64"}))
    assert merged.equals(_sample_ref(res))
    g = job.sink.read_op("tumbling_topk").to_pandas()
    assert (g["err"] == 0).all()
    got = (g.groupby(["window_id", "value"], as_index=False)["n"].sum()
           .sort_values(["window_id", "value"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, _oracle(feed, COUNTS_ORACLE),
                                  check_dtype=False)


def test_sample_stratified_by_role():
    """`by` strata: bottom-k per (window, role) equals the per-stratum
    reference for any epoch split, and state stays <= k per stratum."""
    res = to_residual_rows(_feed(seed=13))
    df = res.to_pandas()
    key = df.conv_id + ":" + df.turn_idx.astype(str)
    df["priority"] = fmix64(fnv1a_u64(list(key)))
    df["window_id"] = df.ts_us // (W_S * 1_000_000)
    ref = (df.sort_values(["window_id", "role", "priority", "conv_id", "turn_idx"])
           .groupby(["window_id", "role"]).head(K)
           [["window_id", "role", "conv_id", "turn_idx"]]
           .sort_values(["window_id", "role", "conv_id", "turn_idx"])
           .reset_index(drop=True).astype({"turn_idx": "int64"}))
    for ne in (1, 4):
        out, st = _run_split(tumbling_sample_kernel, res, ne, k=K, by="role")
        got = (out.to_pandas().rename(columns={"stratum": "role"})
               [["window_id", "role", "conv_id", "turn_idx"]]
               .sort_values(["window_id", "role", "conv_id", "turn_idx"])
               .reset_index(drop=True).astype({"turn_idx": "int64"}))
        assert got.equals(ref), f"epochs={ne}"
    # mid-run state bound
    state: dict = {}
    bounds = np.linspace(0, res.num_rows, 4).astype(int)
    for i in range(3):
        _, state = tumbling_sample_kernel(
            res.slice(bounds[i], bounds[i + 1] - bounds[i]), state,
            width_s=W_S, k=K, by="role", flush=False)
        if len(state["partials"]):
            assert (state["partials"]
                    .groupby(["window_id", "stratum"]).size() <= K).all()


def test_topk_watermark_closure_and_late_drop():
    """tumbling_topk under watermark closure: early per-epoch emission on
    a ts-ordered feed totals to the oracle counts (exact regime), and a
    replayed old row is late-dropped, not double-counted."""
    feed = _feed(seed=6)
    df = feed.to_pandas().sort_values("ts")
    rows = to_residual_rows(pa.Table.from_pandas(df, preserve_index=False))
    exp = _oracle(feed, COUNTS_ORACLE)
    bounds = np.linspace(0, rows.num_rows, 5).astype(int)
    state: dict = {}
    outs = []
    wm = -1
    for i in range(4):
        chunk = rows.slice(bounds[i], bounds[i + 1] - bounds[i])
        if chunk.num_rows:
            wm = max(wm, int(chunk["ts_us"].to_numpy(zero_copy_only=False).max()))
        out, state = tumbling_topk_kernel(
            chunk, state, width_s=W_S, capacity=50, flush=(i == 3),
            closure="watermark", watermark_us=wm)
        outs.append(out)
    assert state["late_drops"] == 0
    assert outs[0].num_rows or outs[1].num_rows or outs[2].num_rows
    g = pa.concat_tables(outs).to_pandas()
    assert (g["err"] == 0).all()
    got = (g.groupby(["window_id", "value"], as_index=False)["n"].sum()
           .sort_values(["window_id", "value"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    out, state2 = tumbling_topk_kernel(
        rows.slice(0, 1), state, width_s=W_S, capacity=50, flush=True,
        closure="watermark", watermark_us=wm)
    assert state2["late_drops"] == 1 and out.num_rows == 0


def test_topk_err_sentinel_on_emptied_window():
    """ADVICE r4 blind spot: if every entry of a window is decremented away
    in one trim (all top-(capacity+1) counts equal), the window must NOT
    close silently — it emits a (window_id, "", 0, err) sentinel so loud
    err-gates still see the non-exactness."""
    ts = [T0 + i for i in (1, 2, 3)]  # all in one window
    rows = pa.table({
        "conv_id": pa.array(["c0", "c1", "c2"]),
        "turn_idx": pa.array([0, 0, 0], type=pa.int32()),
        "role": pa.array(["tool"] * 3),
        "text": pa.array(["x"] * 3),
        "tool": pa.array(["a", "b", "c"]),  # 3 distinct values, count 1 each
        "ts_us": pa.array(ts, type=pa.int64()),
    })
    out, state = tumbling_topk_kernel(
        rows, {}, width_s=W_S, capacity=2, flush=True)
    g = out.to_pandas()
    # capacity 2 < 3 equal counts -> one trim kills everything; the closure
    # must still surface err=1 via the sentinel
    assert len(g) == 1
    assert g.iloc[0]["value"] == "" and g.iloc[0]["n"] == 0
    assert g.iloc[0]["err"] == 1
    assert g.iloc[0]["window_id"] == ts[0] // (W_S * 1_000_000)
    # the summary rows and the window's err (its sentinel row) are both gone
    assert not state["partials"].shape[0]


def test_topk_err_sentinel_watermark_closure():
    """Same blind spot under closure='watermark': the emptied window's
    sentinel rides the watermark closure, and the window is gone from
    state afterwards."""
    w_us = W_S * 1_000_000
    rows = pa.table({
        "conv_id": pa.array(["c0", "c1", "c2"]),
        "turn_idx": pa.array([0, 0, 0], type=pa.int32()),
        "role": pa.array(["tool"] * 3),
        "text": pa.array(["x"] * 3),
        "tool": pa.array(["a", "b", "c"]),
        "ts_us": pa.array([T0, T0 + 1, T0 + 2], type=pa.int64()),
    })
    out, state = tumbling_topk_kernel(
        rows, {}, width_s=W_S, capacity=2, flush=False,
        closure="watermark", watermark_us=(T0 // w_us + 5) * w_us)
    g = out.to_pandas()
    assert len(g) == 1 and g.iloc[0]["value"] == "" and g.iloc[0]["err"] == 1
    assert not state["partials"].shape[0]  # err rides the sentinel row
