"""Global (cross-conversation) tumbling aggregates: partial-merge parity
against SQL GROUP BY oracles under any epoch split and any partition split,
watermark closure, and the engine path (P partials per window summed)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from dstream_ray.stages import windows
from dstream_ray.stages.windows import (
    to_residual_rows,
    tumbling_counts_kernel,
    tumbling_global_kernel,
)
from dstream_ray.state.rescale import rescale_states

T0 = 1_700_000_000_000_000
W_S = 600


def _feed(seed=0, n_convs=8, n_turns=40):
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(n_convs):
        ts = T0 + int(rng.integers(0, 3600)) * 1_000_000
        for t in range(n_turns):
            ts += int(rng.integers(1, 180)) * 1_000_000
            role = ["user", "assistant", "tool"][int(rng.integers(0, 3))]
            tool = f"tool{rng.integers(0, 5)}" if role == "tool" else ""
            rows.append((f"c{c}", t, role, f"m{c}-{t}" * int(rng.integers(1, 4)), tool, ts))
    rng.shuffle(rows)
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows]),
        "tool": pa.array([r[4] for r in rows]),
        "ts": pa.array([r[5] for r in rows], type=pa.int64()).cast(pa.timestamp("us")),
    })


GLOBAL_ORACLE = f"""
    SELECT CAST(floor(epoch(ts)/{W_S}) AS BIGINT) AS window_id,
           count(*) AS n_turns,
           count(*) FILTER (WHERE role='user') AS n_user_turns,
           count(*) FILTER (WHERE role='tool') AS n_tool_turns,
           sum(length(text)) AS n_chars
    FROM feed GROUP BY 1 ORDER BY 1
"""

COUNTS_ORACLE = f"""
    SELECT CAST(floor(epoch(ts)/{W_S}) AS BIGINT) AS window_id, tool AS value,
           count(*) AS n
    FROM feed WHERE tool <> '' GROUP BY 1, 2 ORDER BY 1, 2
"""


def _oracle(feed, sql):
    con = duckdb.connect()
    con.register("feed", feed)
    return con.execute(sql).fetch_df()


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


def _merge_global(tbl: pa.Table) -> pd.DataFrame:
    return (tbl.to_pandas().groupby("window_id", as_index=False)
            .sum().sort_values("window_id").reset_index(drop=True))


def _merge_counts(tbl: pa.Table) -> pd.DataFrame:
    return (tbl.to_pandas().groupby(["window_id", "value"], as_index=False)["n"]
            .sum().sort_values(["window_id", "value"]).reset_index(drop=True))


def test_global_matches_sql_any_epoch_and_partition_split():
    """Accumulate partials over any epoch split AND any hash-partition
    split of the rows; the summed partials equal the full GROUP BY."""
    feed = _feed()
    rows = to_residual_rows(feed)
    exp = _oracle(feed, GLOBAL_ORACLE)
    for n_epochs in (1, 3, 7):
        got, _ = _run_split(tumbling_global_kernel, rows, n_epochs)
        pd.testing.assert_frame_equal(_merge_global(got), exp, check_dtype=False)
    # partition split: run P independent kernels over disjoint row subsets
    # (the engine's consistent-hash exchange) and sum their emissions
    codes = np.array([hash(c) % 4 for c in rows["conv_id"].to_pylist()])
    parts = []
    for p in range(4):
        sub = rows.filter(pa.array(codes == p))
        out, _ = _run_split(tumbling_global_kernel, sub, 3)
        parts.append(out)
    merged = _merge_global(pa.concat_tables(parts))
    pd.testing.assert_frame_equal(merged, exp, check_dtype=False)


def test_counts_matches_sql_and_topk_ranks():
    feed = _feed(seed=2)
    rows = to_residual_rows(feed)
    exp = _oracle(feed, COUNTS_ORACLE)
    for n_epochs in (1, 4):
        got, _ = _run_split(tumbling_counts_kernel, rows, n_epochs)
        pd.testing.assert_frame_equal(_merge_counts(got), exp, check_dtype=False)
    # top-k from merged counts == SQL QUALIFY rank
    merged = _merge_counts(got if isinstance(got, pa.Table) else got)
    topk = (merged.sort_values(["window_id", "n", "value"],
                               ascending=[True, False, True])
            .groupby("window_id").head(2).reset_index(drop=True))
    exp_topk = _oracle(feed, f"""
        SELECT * FROM ({COUNTS_ORACLE.replace("ORDER BY 1, 2", "")})
        QUALIFY row_number() OVER (PARTITION BY window_id
                                   ORDER BY n DESC, value) <= 2
        ORDER BY window_id, n DESC, value
    """)
    pd.testing.assert_frame_equal(
        topk.sort_values(["window_id", "value"]).reset_index(drop=True),
        exp_topk.sort_values(["window_id", "value"]).reset_index(drop=True),
        check_dtype=False)


def test_global_watermark_closure_early_emission():
    """On a ts-ordered feed, watermark closure emits windows before the
    flush and the total still equals the oracle; late rows behind the
    cursor are counted, not silently dropped."""
    feed = _feed(seed=5)
    df = feed.to_pandas().sort_values("ts")
    rows = to_residual_rows(pa.Table.from_pandas(df, preserve_index=False))
    exp = _oracle(feed, GLOBAL_ORACLE)
    bounds = np.linspace(0, rows.num_rows, 5).astype(int)
    state: dict = {}
    outs = []
    wm = -1
    for i in range(4):
        chunk = rows.slice(bounds[i], bounds[i + 1] - bounds[i])
        if chunk.num_rows:
            wm = max(wm, int(chunk["ts_us"].to_numpy(zero_copy_only=False).max()))
        out, state = tumbling_global_kernel(
            chunk, state, width_s=W_S, flush=(i == 3),
            closure="watermark", watermark_us=wm)
        outs.append(out)
    assert state["late_drops"] == 0
    assert outs[0].num_rows or outs[1].num_rows or outs[2].num_rows  # early emission happened
    pd.testing.assert_frame_equal(
        _merge_global(pa.concat_tables(outs)), exp, check_dtype=False)
    # a replayed old row is late-dropped, not double-counted
    out, state2 = tumbling_global_kernel(
        rows.slice(0, 1), state, width_s=W_S, flush=True,
        closure="watermark", watermark_us=wm)
    assert state2["late_drops"] == 1 and out.num_rows == 0


def test_global_engine_end_to_end(ray_session, tmp_path):
    """Both global operators through the real engine: P partial rows per
    window across partition sinks sum to the SQL GROUP BY totals."""
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
        operators={"tumbling_global": {"width_s": W_S},
                   "tumbling_counts": {"width_s": W_S}},
    ))
    job.run()
    got_g = _merge_global(job.sink.read_op("tumbling_global"))
    pd.testing.assert_frame_equal(got_g, _oracle(feed, GLOBAL_ORACLE),
                                  check_dtype=False)
    got_c = _merge_counts(job.sink.read_op("tumbling_counts"))
    pd.testing.assert_frame_equal(got_c, _oracle(feed, COUNTS_ORACLE),
                                  check_dtype=False)


def test_sliding_global_via_panes_engine(ray_session, tmp_path):
    """The panes/slices optimization: a 4×W_S window sliding by W_S equals
    the sum of 4 consecutive tumbling panes — the engine only maintains
    pane partials (via kernel@variant instancing) and the consumer
    combines them; gated against the SQL expanded-window oracle."""
    import pyarrow.parquet as pq

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    R = 4
    feed = _feed(seed=11)
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
        operators={"tumbling_global@pane": {"width_s": W_S}},
    ))
    job.run()
    panes = (job.sink.read_op("tumbling_global@pane").to_pandas()
             .groupby("window_id", as_index=False).sum())
    frames = []
    for i in range(R):
        f = panes.copy()
        f["window_id"] = f["window_id"] - i
        frames.append(f)
    got = (pd.concat(frames, ignore_index=True)
           .groupby("window_id", as_index=False).sum()
           .sort_values("window_id").reset_index(drop=True))
    exp = _oracle(feed, f"""
        WITH t AS (SELECT epoch_us(ts) AS ts_us, role, length(text) AS c
                   FROM feed),
        expl AS (
          SELECT unnest(generate_series(
                   ((ts_us - CAST({R} * {W_S} AS BIGINT) * 1000000)
                     // (CAST({W_S} AS BIGINT) * 1000000)) + 1,
                   ts_us // (CAST({W_S} AS BIGINT) * 1000000))) AS window_id,
                 role, c
          FROM t)
        SELECT window_id, count(*) AS n_turns,
               count(*) FILTER (WHERE role='user') AS n_user_turns,
               count(*) FILTER (WHERE role='tool') AS n_tool_turns,
               sum(c) AS n_chars
        FROM expl GROUP BY 1 ORDER BY 1
    """)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


_COUNTS = pd.DataFrame({"window_id": [1], "value": ["a"], "n": [1]})
_SAMPLES = pd.DataFrame({"window_id": [1], "priority": np.array([7], np.uint64),
                         "conv_id": ["c0"], "turn_idx": [0], "ts_us": [T0], "n_chars": [3]})


@pytest.mark.parametrize("op, old_state, kw", [
    ("tumbling_global", {"win": np.array([1]), "agg": np.ones((1, 4), np.int64),
                         "late_drops": 0}, {}),
    ("tumbling_counts", {"counts": _COUNTS, "late_drops": 0}, {}),
    ("tumbling_hll", {"hll": {1: np.ones(4096, np.uint8)}}, {}),
    ("tumbling_qsketch", {"qs": {1: np.ones(1040, np.int64)}}, {}),
    ("tumbling_sample", {"samples": _SAMPLES, "late_drops": 0}, {"k": 3}),
    ("tumbling_topk", {"summary": _COUNTS, "werr": {1: 2}, "late_drops": 0},
     {"capacity": 4}),
])
def test_old_layout_state_is_refused(op, old_state, kw):
    """A global operator's state in the per-operator layout that preceded
    the shared partials layout is refused loudly, naming the operator and
    its keys, by the kernel and by rescale — never read as empty."""
    kernel = getattr(windows, f"{op}_kernel")
    rows = to_residual_rows(_feed(seed=1, n_convs=2, n_turns=5))
    old_key = next(k for k in old_state if k != "late_drops")
    with pytest.raises(ValueError, match=f"'{op}'.*'{old_key}'"):
        kernel(rows, old_state, width_s=W_S, flush=True, **kw)
    with pytest.raises(ValueError, match=f"'{op}@x'.*'{old_key}'"):
        rescale_states([{f"{op}@x": old_state}, {f"{op}@x": old_state}], 3)

