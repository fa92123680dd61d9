"""Batch-mode query pipelines — the correctness surface for the driver.

Each function takes an ``sf_dir`` of testdata parquet and returns a Ray
Dataset / pandas DataFrame / pyarrow Table. Every query here has (or
deliberately omits, for non-SQL ops) a matching DuckDB oracle in
:mod:`dstream_ray.pipelines.oracles`; column names are kept identical on both
sides.

Efficiency shape (these run at 100 TB in spirit): all transcript queries fuse
the feed derivation and the windowing into ONE ``groupby(partition_id)``
shuffle; cheap-cardinality aggregates pre-aggregate inside ``map_batches``
before a tiny final groupby; small lookup sides are broadcast, never
shuffled. Ray is assumed already initialised by the caller (driver contract).
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from dstream_ray import common as _common
from dstream_ray import register_pickle_by_value

# shared engine/oracle constants for the bounded-state sample / heavy-hitter
# operators (both sides configure from the same numbers, so they can't drift)
from dstream_ray.pipelines.oracles import (
    SAMPLE_BY_K,
    SAMPLE_K,
    TOPK_MG_CAPACITY,
    TOPK_MG_K,
)
from dstream_ray.sources.transcripts import (
    ORACLE_PARTITIONS,
    events_to_transcripts_table,
)
from dstream_ray.stages.windows import (
    session_join_kernel,
    session_kernel,
    sliding_kernel,
    to_residual_rows,
    tumbling_kernel,
)

register_pickle_by_value()

# Window parameters sized to the testdata pacing (~10.7 h mean inter-turn
# gap over a 30-day span): day-scale windows, 12 h session gap.
TUMBLING_S = 86_400
SLIDING_W_S = 172_800
SLIDING_S_S = 86_400
SESSION_GAP_S = 43_200
IJ_WITHIN_S = 43_200  # interval join: user/tool turn pairs within +/-12 h
PANE_S = 21_600  # 6 h panes feeding the global sliding aggregate
SLIDING_GLOBAL_W_S = 86_400  # 24 h global windows sliding by one pane



# ---------------------------------------------------------------------------
# transcript-feed queries (fused derive + window: one shuffle)
# ---------------------------------------------------------------------------


def _tuned_read(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """read_parquet with byte-sized blocks + push-based shuffle strategy.

    Ray's defaults split each file into ~num_cpus blocks and use a pull-based
    sort shuffle; on micro/small inputs that costs O(blocks×partitions) tiny
    objects (measured 3-15x slowdowns at 32 cpus — see BASELINE.md)."""
    from ray.data.context import ShuffleStrategy

    rd.DataContext.get_current().shuffle_strategy = (
        ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    )
    size = os.path.getsize(path)
    n_blocks = int(max(4, min(64, size // (32 * 1024 * 1024) + 4)))
    return rd.read_parquet(path, columns=columns, override_num_blocks=n_blocks)


def _events_with_partition(sf_dir: str) -> rd.Dataset:
    ds = _tuned_read(os.path.join(sf_dir, "events.parquet"))

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "partition_id", pa.array((uid % ORACLE_PARTITIONS).astype(np.int32))
        )

    return ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)


def _per_partition(sf_dir: str, fn: Callable[[pa.Table], pa.Table]) -> rd.Dataset:
    """One hash shuffle; ``fn`` sees the full transcripts of one partition."""

    def group_fn(events_group: pa.Table) -> pa.Table:
        return fn(events_to_transcripts_table(events_group))

    return (
        _events_with_partition(sf_dir)
        .groupby("partition_id")
        .map_groups(group_fn, batch_format="pyarrow")
    )


def q_transcripts_feed(sf_dir: str) -> rd.Dataset:
    return _per_partition(sf_dir, lambda t: t)


def _window_query(kernel, **params) -> Callable[[str], rd.Dataset]:
    def run(sf_dir: str) -> rd.Dataset:
        def fn(transcripts: pa.Table) -> pa.Table:
            out, _ = kernel(to_residual_rows(transcripts), {}, flush=True, **params)
            return out

        return _per_partition(sf_dir, fn)

    return run


q_tumbling_window = _window_query(tumbling_kernel, width_s=TUMBLING_S)
q_sliding_window = _window_query(sliding_kernel, width_s=SLIDING_W_S, slide_s=SLIDING_S_S)
q_session_window = _window_query(session_kernel, gap_s=SESSION_GAP_S)
q_stream_join = _window_query(session_join_kernel, gap_s=SESSION_GAP_S)


def q_session_salted(sf_dir: str) -> rd.Dataset:
    """Session windows via HOT-KEY SALTING (two-phase): chunk mega-convs by
    turn ranges, sessionize chunks in parallel, merge island summaries.
    Same oracle as session_window — outputs must be identical."""
    from dstream_ray.stages.salted import salted_session_windows

    # chunk_turns small so even testdata convs exercise the merge path
    return salted_session_windows(
        q_transcripts_feed(sf_dir), gap_s=SESSION_GAP_S, chunk_turns=16
    )


def q_tumbling_salted(sf_dir: str) -> pd.DataFrame:
    """Tumbling windows via the pre-aggregation (skew-proof) pattern:
    per-batch partial counts per (conv, window) — no conv co-location —
    then a groupby over the partials. Same oracle as tumbling_window."""
    ds = q_transcripts_feed(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        ts = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "conv_id": b["conv_id"].to_pandas(),
                "window_id": ts // (TUMBLING_S * 1_000_000),
                "u": (np.asarray(b["role"].to_pandas()) == "user").astype(np.int64),
                "t": (np.asarray(b["role"].to_pandas()) == "tool").astype(np.int64),
                "c": pc.utf8_length(b["text"]).to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        g = df.groupby(["conv_id", "window_id"], as_index=False).agg(
            n_turns=("u", "size"),
            n_user_turns=("u", "sum"),
            n_tool_turns=("t", "sum"),
            n_chars=("c", "sum"),
        )
        # coarse int partition key for the final exchange: shuffling on a
        # string conv_id via groupby().aggregate() cost ~15x the kernel route
        # (BENCH_r01); one int-keyed shuffle + a vectorized combine per
        # partition keeps the skew-proof shape at ~groupby(int) cost
        from dstream_ray.common import fnv1a_u64

        g["gpart"] = (fnv1a_u64(g["conv_id"].tolist()) % np.uint64(64)).astype(np.int32)
        return pa.Table.from_pandas(g, preserve_index=False)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["conv_id", "window_id"], as_index=False).agg(
            n_turns=("n_turns", "sum"),
            n_user_turns=("n_user_turns", "sum"),
            n_tool_turns=("n_tool_turns", "sum"),
            n_chars=("n_chars", "sum"),
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(combine, batch_format="pandas")
        .to_pandas()
    )


def q_partition_watermarks(sf_dir: str) -> rd.Dataset:
    """Per-partition lineage/metrics row: row count, conv count, watermark
    (max event-time seen) — the monotonic cursor that replaces the LSN."""

    def fn(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "partition_id": pa.array(
                    [int(t["partition_id"][0].as_py())], type=pa.int32()
                ),
                "n_rows": pa.array([t.num_rows], type=pa.int64()),
                "n_convs": pa.array(
                    [len(np.unique(np.asarray(t["conv_id"].to_pandas())))],
                    type=pa.int64(),
                ),
                "watermark_us": pa.array([int(ts.max())], type=pa.int64()),
            }
        )

    return _per_partition(sf_dir, fn)


def q_role_stats(sf_dir: str) -> pd.DataFrame:
    """Per-role counts: partial aggregate per partition, tiny final merge."""

    def fn(t: pa.Table) -> pa.Table:
        df = pa.table(
            {"role": t["role"], "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64())}
        ).to_pandas()
        g = df.groupby("role", as_index=False).agg(
            n_turns=("role", "size"), total_chars=("n_chars", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = _per_partition(sf_dir, fn)
    from ray.data.aggregate import Sum

    out = partials.groupby("role").aggregate(
        Sum("n_turns", alias_name="n_turns"), Sum("total_chars", alias_name="total_chars")
    )
    return out.to_pandas()


def q_tool_usage(sf_dir: str) -> pd.DataFrame:
    """Per-tool call counts + distinct conversations (tool turns only)."""

    def fn(t: pa.Table) -> pa.Table:
        df = t.select(["conv_id", "role", "tool"]).to_pandas()
        df = df[df["role"] == "tool"]
        g = df.groupby("tool", as_index=False).agg(
            n_calls=("tool", "size"), n_convs=("conv_id", "nunique")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    # conv_ids never span partitions, so per-partition distinct counts sum
    partials = _per_partition(sf_dir, fn)
    from ray.data.aggregate import Sum

    return (
        partials.groupby("tool")
        .aggregate(Sum("n_calls", alias_name="n_calls"), Sum("n_convs", alias_name="n_convs"))
        .to_pandas()
    )


def q_rollup_usage(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP(role, tool): per-(role, tool) usage plus the (role)
    and grand-total super-aggregate rows, `grp` = SQL GROUPING id.

    Scale shape: the finest level aggregates distributively (per-partition
    partials -> one small groupby over role x tool, bounded by vocabulary,
    not corpus); the super-aggregates are then pure sums OVER THE FINEST
    RESULT, computed on the driver over that vocabulary-bounded table —
    never a second pass over the data."""

    def fn(t: pa.Table) -> pa.Table:
        df = pa.table({
            "role": t["role"],
            "tool": t["tool"],
            "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
        }).to_pandas()
        g = df.groupby(["role", "tool"], as_index=False).agg(
            n_turns=("role", "size"), total_chars=("n_chars", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    finest = (
        _per_partition(sf_dir, fn)
        .groupby(["role", "tool"])
        .aggregate(Sum("n_turns", alias_name="n_turns"),
                   Sum("total_chars", alias_name="total_chars"))
        .to_pandas()  # vocabulary-bounded: |roles| x |tools| rows
    )
    finest["grp"] = 0
    by_role = finest.groupby("role", as_index=False).agg(
        n_turns=("n_turns", "sum"), total_chars=("total_chars", "sum")
    )
    by_role["tool"] = "(all)"
    by_role["grp"] = 1
    total = pd.DataFrame({
        "role": ["(all)"], "tool": ["(all)"], "grp": [3],
        "n_turns": [finest["n_turns"].sum()],
        "total_chars": [finest["total_chars"].sum()],
    })
    out = pd.concat([finest, by_role, total], ignore_index=True)
    out["grp"] = out["grp"].astype(np.int64)
    return out[["role", "tool", "grp", "n_turns", "total_chars"]]


def q_pivot_roles(sf_dir: str) -> pd.DataFrame:
    """PIVOT role -> wide per-conv columns (n_user/n_assistant/n_tool/
    n_turns): the one-hot partial aggregates inside map_batches and convs
    never span partitions, so one per-partition groupby IS the final
    answer — no global shuffle at any corpus size."""

    def fn(t: pa.Table) -> pa.Table:
        role = np.asarray(t["role"].to_pandas())
        df = pd.DataFrame({
            "conv_id": t["conv_id"].to_pandas(),
            "n_user": (role == "user").astype(np.int64),
            "n_assistant": (role == "assistant").astype(np.int64),
            "n_tool": (role == "tool").astype(np.int64),
        })
        g = df.groupby("conv_id", as_index=False).agg(
            n_user=("n_user", "sum"), n_assistant=("n_assistant", "sum"),
            n_tool=("n_tool", "sum"), n_turns=("n_user", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return _per_partition(sf_dir, fn).to_pandas()


# ---------------------------------------------------------------------------
# generic event-stream analytics (pre-aggregation pattern)
# ---------------------------------------------------------------------------


def q_events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling hourly window over the raw events stream, integer-cent value sums
    (floats are kept out of oracle-compared outputs by design)."""
    ds = _tuned_read(os.path.join(sf_dir, "events.parquet"),
                     columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = ts // 3_600_000_000
        val_cents = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "hour_id": hour,
                "v": val_cents,
            }
        )
        g = df.groupby(["event_type", "hour_id"], as_index=False).agg(
            n_events=("v", "size"), value_cents=("v", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "hour_id"])
        .aggregate(Sum("n_events", alias_name="n_events"), Sum("value_cents", alias_name="value_cents"))
        .to_pandas()
    )


# ---------------------------------------------------------------------------
# relational demos (wide-op coverage: groupby / broadcast join)
# ---------------------------------------------------------------------------


def q_lineitem_pricing(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped aggregate, integer-cent money."""
    ds = _tuned_read(os.path.join(sf_dir, "lineitem.parquet"),
                     columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"].to_pandas(),
                "l_linestatus": batch["l_linestatus"].to_pandas(),
                "qty": batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64),
                "price_cents": np.round(
                    batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            n_rows=("qty", "size"), sum_qty=("qty", "sum"), sum_price_cents=("price_cents", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_price_cents", alias_name="sum_price_cents"),
        )
        .to_pandas()
    )


def q_orders_by_segment(sf_dir: str) -> pd.DataFrame:
    """orders ⋈ customer via broadcast of the small side (no shuffle join):
    the dimension table is ray.put once and read per batch."""
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    seg_by_key_ref = ray.put(
        dict(
            zip(
                cust["c_custkey"].to_numpy(zero_copy_only=False),
                cust["c_mktsegment"].to_pandas(),
            )
        )
    )
    ds = _tuned_read(os.path.join(sf_dir, "orders.parquet"),
                     columns=["o_custkey", "o_totalprice"])

    class Joiner:
        def __init__(self):
            self.seg = ray.get(seg_by_key_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            keys = batch["o_custkey"].to_numpy(zero_copy_only=False)
            seg = pd.Series(keys).map(self.seg)
            cents = np.round(
                batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64)
            df = pd.DataFrame({"c_mktsegment": seg, "cents": cents})
            g = df.groupby("c_mktsegment", as_index=False).agg(
                n_orders=("cents", "size"), total_cents=("cents", "sum")
            )
            return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(Joiner, batch_format="pyarrow", concurrency=2)
        .groupby("c_mktsegment")
        .aggregate(Sum("n_orders", alias_name="n_orders"), Sum("total_cents", alias_name="total_cents"))
        .to_pandas()
    )


def q_cep_pattern(sf_dir: str) -> rd.Dataset:
    """CEP sequence-pattern counts per conversation (pattern 'ua*tt' over
    role initials in turn order). Fused with the feed derivation — still one
    shuffle."""
    from dstream_ray.stages.cep import cep_pattern_kernel

    # 'ua*t' (user, any assistants, tool) fires on the periodic testdata
    # roles; the stricter default 'ua*tt' is exercised in the kernel tests
    return _per_partition(sf_dir, lambda t: cep_pattern_kernel(t, pattern="ua*t"))


def q_cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix over the events stream: users cohort by
    first-active day; each (cohort_day, day_offset) cell counts DISTINCT
    users active that many days after their cohort day.

    Scale shape: one hash exchange on user_id (the same ORACLE_PARTITIONS
    key every events operator reuses) co-locates each user's history; the
    per-partition pass computes first-day + distinct (user, day) actives
    vectorized, and because a user lives in exactly ONE partition the
    per-partition distinct counts SUM to the global answer — the only
    cross-partition traffic is the (days × offsets)-bounded cell table."""
    ds = _tuned_read(os.path.join(sf_dir, "events.parquet"),
                     columns=["user_id", "ts"])

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "partition_id", pa.array((uid % ORACLE_PARTITIONS).astype(np.int32))
        )

    def cohortize(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        day = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // (
            86_400 * 1_000_000
        )
        df = pd.DataFrame({"uid": uid, "day": day}).drop_duplicates()
        first = (df.groupby("uid", as_index=False)["day"].min()
                 .rename(columns={"day": "cohort_day"}))
        m = df.merge(first, on="uid")
        m["day_offset"] = m["day"] - m["cohort_day"]
        # (uid, day) is distinct, so each user hits a cell at most once:
        # per-cell size == per-cell distinct users
        g = m.groupby(["cohort_day", "day_offset"], as_index=False).agg(
            n_users=("uid", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("partition_id")
        .map_groups(cohortize, batch_format="pyarrow")
        .groupby(["cohort_day", "day_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
        .to_pandas()
    )
    return out.sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)


def q_funnel_stages(sf_dir: str) -> pd.DataFrame:
    """Ordered funnel over the events stream: how many users complete
    signup → click-after-signup → purchase-after-that-click, where each
    stage is the user's FIRST occurrence strictly after the previous
    stage's time.

    Scale shape: the same user-hash exchange as every events operator;
    within a partition the three stage times chain through vectorized
    pandas min/merge/filter passes (no per-user Python), and because a
    user lives in exactly one partition the per-partition completion
    counts SUM globally — each partition ships exactly 3 rows."""
    ds = _tuned_read(os.path.join(sf_dir, "events.parquet"),
                     columns=["user_id", "ts", "event_type"])

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "partition_id", pa.array((uid % ORACLE_PARTITIONS).astype(np.int32))
        )

    STAGES = ["signup", "click", "purchase"]

    def funnel(group: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "uid": group["user_id"].to_numpy(zero_copy_only=False),
            "ts": group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
            "et": group["event_type"].to_pandas(),
        })
        prev = None  # Series: uid -> previous stage's first time
        counts = []
        for et in STAGES:
            sub = df[df["et"] == et]
            if prev is not None:
                prev_ts = sub["uid"].map(prev)
                sub = sub[sub["ts"] > prev_ts.fillna(np.inf)]
            cur = sub.groupby("uid")["ts"].min()
            counts.append(len(cur))
            prev = cur
        return pa.table({
            "stage": pa.array(STAGES),
            "stage_idx": pa.array(np.arange(1, len(STAGES) + 1)),
            "n_users": pa.array(np.asarray(counts, dtype=np.int64)),
        })

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("partition_id")
        .map_groups(funnel, batch_format="pyarrow")
        .groupby(["stage", "stage_idx"])
        .aggregate(Sum("n_users", alias_name="n_users"))
        .to_pandas()
    )
    return out.sort_values("stage_idx").reset_index(drop=True)


def q_asof_join(sf_dir: str) -> rd.Dataset:
    """AS-OF JOIN (custom operator the Dataset API lacks): for every event,
    attach the timestamp of the most recent STRICTLY PRIOR 'signup' event of
    the same user. Composition: hash-shuffle on the key, then a vectorized
    sorted-scan per partition (the merge_asof pattern without pandas).
    Output ts encoded as epoch µs ints for exact oracle comparison."""
    ds = _tuned_read(os.path.join(sf_dir, "events.parquet"))

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "partition_id", pa.array((uid % ORACLE_PARTITIONS).astype(np.int32))
        )

    def asof(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        et = np.asarray(group["event_type"].to_pylist(), dtype=object)
        order = np.lexsort((eid, ts, uid))
        uid_s, ts_s, eid_s, et_s = uid[order], ts[order], eid[order], et[order]
        n = len(uid_s)
        # running last-signup position per user segment (positions are
        # globally increasing -> clamp to segment start, as in the CEP join)
        pos = np.arange(n, dtype=np.int64)
        seg_start = np.repeat(
            np.flatnonzero(np.r_[True, uid_s[1:] != uid_s[:-1]]),
            np.diff(np.r_[np.flatnonzero(np.r_[True, uid_s[1:] != uid_s[:-1]]), n]),
        )
        is_signup = et_s == "signup"
        sign_pos = np.maximum.accumulate(np.where(is_signup, pos, -1))
        # strictly prior: shift by one row within the segment
        prior = np.full(n, -1, dtype=np.int64)
        prior[1:] = sign_pos[:-1]
        ok = (prior >= seg_start) & (prior >= 0)
        last_signup_us = np.where(ok, ts_s[np.maximum(prior, 0)], -1)
        return pa.table(
            {
                "event_id": pa.array(eid_s),
                "user_id": pa.array(uid_s),
                "ts_us": pa.array(ts_s),
                "last_signup_us": pa.array(last_signup_us),
            }
        )

    return (
        ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("partition_id")
        .map_groups(asof, batch_format="pyarrow")
    )


def q_semi_anti_orders(sf_dir: str) -> pd.DataFrame:
    """Semi/anti join via BROADCAST key set (guide pattern: broadcast the
    small side's keys — or a Bloom filter of them — and filter in
    map_batches; no shuffle): orders split into those whose customer is in
    the BUILDING segment (semi) vs not (anti), aggregated per order
    priority."""
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    seg = np.asarray(cust["c_mktsegment"].to_pylist(), dtype=object)
    keys = cust["c_custkey"].to_numpy(zero_copy_only=False)[seg == "BUILDING"]
    key_ref = ray.put(np.sort(keys))
    ds = _tuned_read(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderpriority"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        kset = ray.get(key_ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        hit = kset[np.clip(np.searchsorted(kset, ck), 0, len(kset) - 1)] == ck if len(kset) else np.zeros(len(ck), bool)
        df = pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"].to_pandas(),
                "semi": hit.astype(np.int64),
                "anti": (~hit).astype(np.int64),
            }
        )
        g = df.groupby("o_orderpriority", as_index=False).agg(
            n_semi=("semi", "sum"), n_anti=("anti", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("n_semi", alias_name="n_semi"), Sum("n_anti", alias_name="n_anti"))
        .to_pandas()
    )


# ---------------------------------------------------------------------------
# the STREAMING ENGINE under the oracle gate: these queries run the real
# multi-epoch exactly-once job (capture -> kernels -> two-phase sink) on the
# derived feed and return the committed sink contents, so the driver's
# DuckDB comparison gates the engine itself, not just the batch kernels.
# ---------------------------------------------------------------------------

# Bounded (FIFO, common.BoundedCache): ~5 distinct job keys per sf_dir, so
# 16 slots cover three sf_dirs before the oldest finished job is dropped.
_STREAMING_CACHE: dict = _common.BoundedCache(maxsize=16)


def _run_streaming(sf_dir: str):
    """One engine run per sf_dir per process; all streaming_* queries read
    their op from the same committed sink."""
    if sf_dir in _STREAMING_CACHE:
        return _STREAMING_CACHE[sf_dir]
    import tempfile

    import pyarrow.parquet as pq_mod

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    workdir = tempfile.mkdtemp(prefix="dstream_q_stream_")
    feed_dir = os.path.join(workdir, "feed")
    os.makedirs(feed_dir, exist_ok=True)
    # golden-feed construction at oracle scale (sf<=0.1, <=100k rows):
    # driver-side materialization is deliberate here — production feeds
    # arrive as parquet/NDJSON shards and never pass through the driver
    feed = q_transcripts_feed(sf_dir).to_pandas()
    feed = feed.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    tbl = pa.Table.from_pandas(feed.drop(columns=["partition_id"]), preserve_index=False)
    n = tbl.num_rows
    shards = 3
    bounds = np.linspace(0, n, shards + 1).astype(int)
    for i in range(shards):
        pq_mod.write_table(
            tbl.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(feed_dir, f"feed-{i:02d}.parquet"),
        )
    # small dimension side for the 'enrich' operator: a deterministic
    # tool-attribute table (3 of the 5 tool ids -> unmatched rows keep
    # nulls, exercising the LEFT semantics under the driver's hash gate)
    dim_path = os.path.join(workdir, "tools_dim.parquet")
    pq_mod.write_table(
        pa.table(
            {
                "tool": pa.array(["tool_0", "tool_2", "tool_4"]),
                "category": pa.array(["search", "code", "math"]),
                "tier": pa.array(["basic", "pro", "pro"]),
            }
        ),
        dim_path,
    )
    job = StreamingJob(
        StreamingConfig(
            feed_dir=feed_dir,
            out_dir=os.path.join(workdir, "out"),
            num_partitions=8,
            files_per_epoch=1,  # 3 micro-batch epochs + flush
            operators={
                "tumbling": {"width_s": TUMBLING_S},
                "sliding": {"width_s": SLIDING_W_S, "slide_s": SLIDING_S_S},
                "session_with_join": {"gap_s": SESSION_GAP_S},
                "cep": {"pattern": "ua*t"},
                # Flink-shape interval join: (user, tool) turn pairs within
                # +/-IJ_WITHIN_S, emitted once in the later side's epoch
                "interval_join": {"within_s": IJ_WITHIN_S},
                # CEP absence/timeout: user turns with no tool reply in 12 h
                "absence": {"within_s": IJ_WITHIN_S},
                # LEFT-OUTER interval join: forward-window pairs + timeout rows
                "outer_join": {"within_s": IJ_WITHIN_S},
                # per-row window functions: ROW_NUMBER / LAG(ts) / running SUM
                "running": {},
                # gaps-and-islands per-row session labels (dual of 'session')
                "sessionize": {"gap_s": SESSION_GAP_S},
                # windowed exact count(DISTINCT tool) per (conv, day)
                "tumbling_distinct": {"width_s": TUMBLING_S},
                # windowed exact p50/p90 of turn length per (conv, day)
                "tumbling_quantile": {"width_s": TUMBLING_S},
                # GLOBAL (cross-conv) daily aggregate — per-partition partials
                "tumbling_global": {"width_s": TUMBLING_S},
                # GLOBAL windowed tool counts — exact top-k feeder
                "tumbling_counts": {"width_s": TUMBLING_S},
                # GLOBAL windowed approx distinct convs (HLL register partials)
                "tumbling_hll": {"width_s": TUMBLING_S},
                # GLOBAL windowed approx-quantile log-histogram partials
                "tumbling_qsketch": {"width_s": TUMBLING_S},
                # GLOBAL windowed bottom-k uniform sample (bounded-state
                # deterministic ingest sampling; k per window per partition)
                "tumbling_sample": {"width_s": TUMBLING_S, "k": SAMPLE_K},
                # STRATIFIED variant via kernel@variant instancing: a
                # balanced bottom-k per (day, role) — k x 3 strata state
                "tumbling_sample@role": {"width_s": TUMBLING_S,
                                         "k": SAMPLE_BY_K, "by": "role"},
                # PANE feeder for the SLIDING sample (panes apply to
                # bottom-k because it is mergeable): 6 h pane bottom-ks
                # compose into 24 h windows sliding by 6 h consumer-side
                "tumbling_sample@pane6h": {"width_s": PANE_S, "k": SAMPLE_K},
                # GLOBAL windowed Misra-Gries heavy hitters: state bounded
                # by capacity per window regardless of vocabulary; capacity
                # >= the daily tool vocabulary here -> exact (err == 0)
                "tumbling_topk": {"width_s": TUMBLING_S,
                                  "capacity": TOPK_MG_CAPACITY},
                # PANE feeder for the global SLIDING aggregate (the classic
                # panes/slices optimization): 6 h tumbling panes, combined
                # consumer-side into 24 h windows sliding by 6 h — also
                # exercises kernel@variant instancing (same kernel, second
                # width, its own sink + state slot)
                "tumbling_global@pane6h": {"width_s": PANE_S},
                # per-conv streaming content dedup over the full raw rows
                "dedup": {},
                # ingest-time inverted-index maintenance: the committed
                # sink IS the postings table, kept current per epoch
                "index": {},
                # latest-per-key compaction (CDC materialized view)
                "upsert": {},
                # broadcast-small-side stream-table enrichment
                "enrich": {
                    "dim_path": dim_path,
                    "dim_key": "tool",
                    "key_col": "tool",
                },
            },
            # the keyed-state-store ACTOR path (partition-owner actors hold
            # state in memory between epochs) runs under the driver's oracle
            # gate here; the wm run below keeps the task-reduce path gated
            use_state_actors=True,
        )
    )
    job.run()
    _STREAMING_CACHE[sf_dir] = job
    return job


def _run_streaming_wm(sf_dir: str):
    """A second engine run exercising WATERMARK closure (idle convs emit per
    epoch, not at flush) over a GLOBALLY TS-ORDERED feed — the ordering
    contract under which watermark closure is exact (a conv-sorted feed
    maximizes cross-conv skew and would late-drop boundary convs). Its
    committed sinks hit the SAME oracles as the conv-closure run: early
    emission must change nothing about the final content."""
    key = ("wm", sf_dir)
    if key in _STREAMING_CACHE:
        return _STREAMING_CACHE[key]
    import tempfile

    import pyarrow.parquet as pq_mod

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    workdir = tempfile.mkdtemp(prefix="dstream_q_stream_wm_")
    feed_dir = os.path.join(workdir, "feed")
    os.makedirs(feed_dir, exist_ok=True)
    feed = q_transcripts_feed(sf_dir).to_pandas()
    feed = feed.sort_values(["ts", "conv_id", "turn_idx"]).reset_index(drop=True)
    tbl = pa.Table.from_pandas(feed.drop(columns=["partition_id"]), preserve_index=False)
    n = tbl.num_rows
    shards = 6
    bounds = np.linspace(0, n, shards + 1).astype(int)
    for i in range(shards):
        pq_mod.write_table(
            tbl.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(feed_dir, f"feed-{i:02d}.parquet"),
        )
    job = StreamingJob(
        StreamingConfig(
            feed_dir=feed_dir,
            out_dir=os.path.join(workdir, "out"),
            num_partitions=8,
            # 6 shards / 3 per epoch = 2 watermark epochs + flush, with the
            # TWO-LEVEL exchange engaged (combine_every=2 pre-merges split
            # slices per partition before the reduce — the bounded-fan-in
            # scale path, here under the driver's oracle gate)
            files_per_epoch=3,
            combine_every=2,
            operators={
                "tumbling@wm": {"width_s": TUMBLING_S, "closure": "watermark"},
                # fused kernel in watermark mode gates BOTH the session and
                # the stream-stream-join outputs under early emission
                "session_with_join": {"gap_s": SESSION_GAP_S, "closure": "watermark"},
                # bottom-k sampling under WATERMARK closure: windows emit
                # their sample early as the watermark passes; the final
                # content hits the same HUGEINT oracle as the flush run
                "tumbling_sample@wm": {"width_s": TUMBLING_S, "k": SAMPLE_K,
                                       "closure": "watermark"},
            },
        )
    )
    job.run()
    _STREAMING_CACHE[key] = job
    return job


def q_streaming_tumbling_wm(sf_dir: str) -> pa.Table:
    return _run_streaming_wm(sf_dir).sink.read_op("tumbling@wm")


def q_streaming_session_wm(sf_dir: str) -> pa.Table:
    return _run_streaming_wm(sf_dir).sink.read_op("session")


def q_streaming_join_wm(sf_dir: str) -> pa.Table:
    return _run_streaming_wm(sf_dir).sink.read_op("session_join")


def q_streaming_sample_wm(sf_dir: str) -> pa.Table:
    """tumbling_sample under WATERMARK closure (early per-epoch emission
    over the ts-ordered feed): merged exactly like q_streaming_sample and
    gated on the SAME oracle — early emission must change nothing."""
    partials = (_run_streaming_wm(sf_dir).sink
                .read_op("tumbling_sample@wm").to_pandas())
    merged = (
        partials.sort_values(["window_id", "priority", "conv_id", "turn_idx"])
        .groupby("window_id").head(SAMPLE_K)
        [["window_id", "conv_id", "turn_idx", "n_chars"]]
        .sort_values(["window_id", "conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(merged, preserve_index=False)


def q_streaming_events(sf_dir: str) -> pa.Table:
    """Committed relay sink of a REAL multi-epoch run == the transcripts
    feed, byte-equal text (delivery contract under the driver's hash gate)."""
    return _run_streaming(sf_dir).sink.read_op("events")


def _run_streaming_compacted(sf_dir: str):
    """A third engine run with the MOST AGGRESSIVE compaction schedule
    (compact after every committed epoch): its committed sinks must hit
    the exact same oracles as the uncompacted runs — compaction is pure
    file-layout, invisible to every reader at every instant."""
    key = ("compact", sf_dir)
    if key in _STREAMING_CACHE:
        return _STREAMING_CACHE[key]
    import tempfile

    import pyarrow.parquet as pq_mod

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    workdir = tempfile.mkdtemp(prefix="dstream_q_compact_")
    feed_dir = os.path.join(workdir, "feed")
    os.makedirs(feed_dir, exist_ok=True)
    feed = q_transcripts_feed(sf_dir).to_pandas()
    feed = feed.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    tbl = pa.Table.from_pandas(feed.drop(columns=["partition_id"]), preserve_index=False)
    n = tbl.num_rows
    bounds = np.linspace(0, n, 4).astype(int)
    for i in range(3):
        pq_mod.write_table(
            tbl.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(feed_dir, f"feed-{i:02d}.parquet"),
        )
    job = StreamingJob(
        StreamingConfig(
            feed_dir=feed_dir,
            out_dir=os.path.join(workdir, "out"),
            num_partitions=8,
            files_per_epoch=1,
            operators={"tumbling": {"width_s": TUMBLING_S}},
            compact_every=1,
        )
    )
    job.run()
    _STREAMING_CACHE[key] = job
    return job


def q_streaming_events_compacted(sf_dir: str) -> pa.Table:
    """The relay sink read THROUGH per-epoch compaction (compact_every=1,
    range files only) == the same transcripts-feed oracle as
    streaming_events: exactly-once survives the merge at every epoch."""
    return _run_streaming_compacted(sf_dir).sink.read_op("events")


def q_streaming_tumbling_compacted(sf_dir: str) -> pa.Table:
    """The tumbling sink through per-epoch compaction == the uncompacted
    run's oracle (window closure + compaction compose transparently)."""
    return _run_streaming_compacted(sf_dir).sink.read_op("tumbling")


def q_streaming_events_follower(sf_dir: str) -> pa.Table:
    """Incremental delivery under the oracle gate: a registered
    SinkFollower drains the relay sink in TWO polls — one mid-run (after
    the first two epochs commit), one after the job resumes, finishes and
    compacts (the follower's cursor is a merge boundary, so compaction
    never straddles it) — and the polls' UNION must equal the same
    transcripts-feed oracle as streaming_events. Exactly-once end to end:
    engine → committed files → compaction → incremental consumer."""
    key = ("follower", sf_dir)
    if key in _STREAMING_CACHE:
        return _STREAMING_CACHE[key]
    import tempfile

    import pyarrow.parquet as pq_mod

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
    from dstream_ray.sinks.parquet_sink import SinkFollower

    workdir = tempfile.mkdtemp(prefix="dstream_q_follower_")
    feed_dir = os.path.join(workdir, "feed")
    os.makedirs(feed_dir, exist_ok=True)
    feed = q_transcripts_feed(sf_dir).to_pandas()
    feed = feed.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    tbl = pa.Table.from_pandas(feed.drop(columns=["partition_id"]), preserve_index=False)
    n = tbl.num_rows
    bounds = np.linspace(0, n, 4).astype(int)
    for i in range(3):
        pq_mod.write_table(
            tbl.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(feed_dir, f"feed-{i:02d}.parquet"),
        )
    job = StreamingJob(
        StreamingConfig(
            feed_dir=feed_dir,
            out_dir=os.path.join(workdir, "out"),
            num_partitions=8,
            files_per_epoch=1,
            operators={"tumbling": {"width_s": TUMBLING_S}},
        )
    )
    job.run(max_epochs=2, flush_at_end=False)
    follower = SinkFollower(job.sink, "events", "gate-drainer")
    polls = [follower.poll()]
    job.run()  # remaining epoch + flush
    job.compact()  # cursor-aware: never straddles the follower
    polls.append(follower.poll())
    out = pa.concat_tables([p for p in polls if p is not None])
    _STREAMING_CACHE[key] = out
    return out


def q_streaming_tumbling(sf_dir: str) -> pa.Table:
    return _run_streaming(sf_dir).sink.read_op("tumbling")


def q_streaming_session(sf_dir: str) -> pa.Table:
    return _run_streaming(sf_dir).sink.read_op("session")


def q_streaming_join(sf_dir: str) -> pa.Table:
    return _run_streaming(sf_dir).sink.read_op("session_join")


def q_streaming_sliding(sf_dir: str) -> pa.Table:
    return _run_streaming(sf_dir).sink.read_op("sliding")


def q_streaming_dedup(sf_dir: str) -> pa.Table:
    """Committed sink of the 'dedup' engine operator (streaming per-conv
    content dedup): first occurrence of each (conv_id, text) in turn order,
    full row schema, gated against a SQL QUALIFY first-occurrence oracle
    through the real multi-epoch exactly-once run."""
    return _run_streaming(sf_dir).sink.read_op("dedup")


def q_streaming_enrich(sf_dir: str) -> pa.Table:
    """Committed sink of the 'enrich' engine operator (stream-table
    dimension enrichment): the feed LEFT-joined against the broadcast
    tools dimension, unmatched keys null — gated against a SQL CASE
    reconstruction of the deterministic dim table."""
    return _run_streaming(sf_dir).sink.read_op("enrich")


def q_streaming_cep(sf_dir: str) -> pa.Table:
    return _run_streaming(sf_dir).sink.read_op("cep")


def q_streaming_interval_join(sf_dir: str) -> pa.Table:
    """Committed sink of the 'interval_join' engine operator (Flink-shape
    streaming interval join): every (user turn, tool turn) pair of the same
    conv within +/-IJ_WITHIN_S, emitted exactly once in the epoch where the
    LATER side arrives — gated against a SQL self-join oracle through the
    real multi-epoch exactly-once run."""
    return _run_streaming(sf_dir).sink.read_op("interval_join")


def q_streaming_distinct(sf_dir: str) -> pa.Table:
    """Committed sink of the 'tumbling_distinct' engine operator (windowed
    exact count(DISTINCT tool) per conv/day) — the streaming distinct
    aggregate, gated against a GROUP BY count(DISTINCT ...) oracle."""
    return _run_streaming(sf_dir).sink.read_op("tumbling_distinct")


def q_streaming_quantile(sf_dir: str) -> pa.Table:
    """Committed sink of the 'tumbling_quantile' engine operator (windowed
    exact p50/p90 turn-length order statistics per conv/day) — gated
    against a GROUP BY quantile_disc oracle."""
    return _run_streaming(sf_dir).sink.read_op("tumbling_quantile")


def q_streaming_upsert(sf_dir: str) -> pa.Table:
    """Committed sink of the 'upsert' engine operator (latest-per-key
    compaction, the CDC consumer-side materialized view): newest turn per
    (conv_id, role) — gated against a keep-last QUALIFY oracle."""
    return _run_streaming(sf_dir).sink.read_op("upsert")


def q_streaming_absence(sf_dir: str) -> pa.Table:
    """Committed sink of the 'absence' engine operator (CEP timeout
    pattern): every user turn with NO tool turn of the same conv within
    the following 12 h — gated against a NOT EXISTS oracle."""
    return _run_streaming(sf_dir).sink.read_op("absence")


def q_streaming_outer_join(sf_dir: str) -> pa.Table:
    """Committed sink of the 'outer_join' engine operator (streaming
    LEFT-OUTER interval join): every (user turn, following tool turn within
    12 h) pair plus one ``tool_turn_idx = dt_us = -1`` timeout row per
    unanswered user turn — gated against a SQL LEFT JOIN oracle with the
    same sentinels through the real multi-epoch exactly-once run."""
    return _run_streaming(sf_dir).sink.read_op("outer_join")


def q_streaming_running(sf_dir: str) -> pa.Table:
    """Committed sink of the 'running' engine operator (per-row window
    functions): for every turn, its ROW_NUMBER / LAG-gap / running char sum
    within the conversation — gated against the SQL window-function oracle
    through the real multi-epoch exactly-once run."""
    return _run_streaming(sf_dir).sink.read_op("running")


def q_streaming_sessionize(sf_dir: str) -> pa.Table:
    """Committed sink of the 'sessionize' engine operator (gaps-and-islands):
    every turn labeled with its 1-based session id (new session when the
    gap to the conv's previous turn exceeds SESSION_GAP_S) and in-session
    position — gated against a nested-window-function SQL oracle through
    the real multi-epoch exactly-once run."""
    return _run_streaming(sf_dir).sink.read_op("sessionize")


def _run_streaming_neardup(sf_dir: str):
    """A third, tiny engine run dedicated to the 'neardup' operator over a
    DOCUMENTS-derived feed (one doc per conversation): the streaming
    near-duplicate suppressor's identity is the batch MinHash family, and
    the documents corpus is where real near-dup clusters live. Feed rows
    are doc_id-ordered, sharded into 3 one-file epochs; partitioning is
    the engine's standard fnv1a(conv_id) % P, which the SQL oracle
    recomputes (suppression domain = the partition)."""
    key = ("neardup", sf_dir)
    if key in _STREAMING_CACHE:
        return _STREAMING_CACHE[key]
    import tempfile

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    workdir = tempfile.mkdtemp(prefix="dstream_q_neardup_")
    job = StreamingJob(
        StreamingConfig(
            feed_dir=_docs_feed(sf_dir, workdir),
            out_dir=os.path.join(workdir, "out"),
            num_partitions=4,
            files_per_epoch=1,
            operators={"neardup": {}},
        )
    )
    job.run()
    _STREAMING_CACHE[key] = job
    return job


def _docs_feed(sf_dir: str, workdir: str, decorate: bool = False) -> str:
    """Documents-derived transcript feed (one doc per conversation),
    doc_id-ordered, 3 one-file shards -> epochs. ``decorate=True`` splices
    the deterministic doc_id-derived PII (dataops._pii_decorate — the same
    decoration ORACLE_SQL['pii_scrub'] rebuilds) into the text."""
    import pyarrow.parquet as pq_mod

    feed_dir = os.path.join(workdir, "feed")
    os.makedirs(feed_dir, exist_ok=True)
    docs = pq_mod.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    order = pc.sort_indices(docs["doc_id"])
    docs = docs.take(order)
    if decorate:
        from dstream_ray.pipelines.dataops import _pii_decorate

        docs = _pii_decorate(docs)
    doc_ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = docs.num_rows
    tbl = pa.table(
        {
            "conv_id": pa.array(["d" + str(int(i)) for i in doc_ids]),
            "turn_idx": pa.array(np.zeros(n, dtype=np.int32)),
            "role": pa.array(["user"] * n),
            "text": docs["text"],
            "tool": pa.array([""] * n),
            "ts": pa.array(
                1_700_000_000_000_000 + doc_ids * 1_000_000
            ).cast(pa.timestamp("us")),
        }
    )
    shards = 3
    bounds = np.linspace(0, n, shards + 1).astype(int)
    for i in range(shards):
        pq_mod.write_table(
            tbl.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(feed_dir, f"feed-{i:02d}.parquet"),
        )
    return feed_dir


def _run_streaming_anomaly(sf_dir: str):
    """A tiny engine run dedicated to the 'anomaly' operator (per-row
    online z-score flag, windows.anomaly_kernel) over the transcripts
    feed, configured from the oracle's shared constants."""
    key = ("anomaly", sf_dir)
    if key in _STREAMING_CACHE:
        return _STREAMING_CACHE[key]
    import tempfile

    import pyarrow.parquet as pq_mod

    from dstream_ray.pipelines.oracles import ANOMALY_MIN_PRIOR, ANOMALY_Z
    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    workdir = tempfile.mkdtemp(prefix="dstream_q_anom_")
    feed_dir = os.path.join(workdir, "feed")
    os.makedirs(feed_dir, exist_ok=True)
    feed = q_transcripts_feed(sf_dir).to_pandas()
    feed = feed.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    tbl = pa.Table.from_pandas(
        feed.drop(columns=["partition_id"]), preserve_index=False)
    n = tbl.num_rows
    bounds = np.linspace(0, n, 4).astype(int)
    for i in range(3):
        pq_mod.write_table(
            tbl.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(feed_dir, f"feed-{i:02d}.parquet"))
    job = StreamingJob(
        StreamingConfig(
            feed_dir=feed_dir,
            out_dir=os.path.join(workdir, "out"),
            num_partitions=4,
            files_per_epoch=1,
            operators={"anomaly": {"z": ANOMALY_Z,
                                   "min_prior": ANOMALY_MIN_PRIOR}},
        )
    )
    job.run()
    _STREAMING_CACHE[key] = job
    return job


def q_streaming_anomaly(sf_dir: str) -> pd.DataFrame:
    """Committed sink of the 'anomaly' engine operator: every turn with
    its prior-count and the integer z-sigma flag, through a real
    multi-epoch exactly-once run; the SQL oracle recomputes the window
    stats and the flag from the transcripts CTE."""
    out = _run_streaming_anomaly(sf_dir).sink.read_op("anomaly").to_pandas()
    return (out[["conv_id", "turn_idx", "n_chars", "n_prior", "is_anomaly"]]
            .astype({"turn_idx": "int64", "n_chars": "int64",
                     "n_prior": "int64", "is_anomaly": "bool"})
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))


def _run_streaming_scrub(sf_dir: str):
    """A tiny engine run dedicated to the stateless 'scrub' operator over
    the PII-DECORATED documents feed: multi-epoch exactly-once ingest-time
    masking whose committed sink the pii_scrub SQL oracle recomputes."""
    key = ("scrub", sf_dir)
    if key in _STREAMING_CACHE:
        return _STREAMING_CACHE[key]
    import tempfile

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    workdir = tempfile.mkdtemp(prefix="dstream_q_scrub_")
    job = StreamingJob(
        StreamingConfig(
            feed_dir=_docs_feed(sf_dir, workdir, decorate=True),
            out_dir=os.path.join(workdir, "out"),
            num_partitions=4,
            files_per_epoch=1,
            operators={"scrub": {}},
        )
    )
    job.run()
    _STREAMING_CACHE[key] = job
    return job


def q_streaming_scrub(sf_dir: str) -> pd.DataFrame:
    """Committed sink of the 'scrub' engine operator (ingest-time PII
    masking, stages/capture.scrub_kernel) over the decorated documents
    feed: every emitted turn's text is the RE2-scrubbed version and the
    per-pattern match counts ride along. Gated end-to-end: DuckDB rebuilds
    the decoration from doc_id and recomputes counts + scrubbed text with
    regexp_replace (same RE2 engine) — ORACLE_SQL['pii_scrub'] verbatim."""
    out = _run_streaming_scrub(sf_dir).sink.read_op("scrub").to_pandas()
    return pd.DataFrame(
        {
            "doc_id": out["conv_id"].str[1:].astype("int64"),
            "n_email": out["n_email"].astype("int64"),
            "n_ipv4": out["n_ipv4"].astype("int64"),
            "n_phone": out["n_phone"].astype("int64"),
            "scrubbed": out["text"].astype("object"),
        }
    ).sort_values("doc_id").reset_index(drop=True)


def q_streaming_neardup(sf_dir: str) -> pd.DataFrame:
    """Committed sink of the 'neardup' engine operator (streaming banded-
    MinHash near-duplicate suppression, stages/capture.neardup_kernel) over
    the documents feed: a doc is emitted iff NO earlier doc in the same
    partition shares any of its 16 LSH band buckets (transitive
    keep-first). Gated end-to-end: DuckDB recomputes the 64-perm MinHash
    signatures, band hashes, fnv1a partition ids and the exists-earlier
    collision — the streaming sibling of the batch minhash_dedup gate."""
    out = _run_streaming_neardup(sf_dir).sink.read_op("neardup").to_pandas()
    return pd.DataFrame(
        {
            "doc_id": out["conv_id"].str[1:].astype("int64"),
            "n_chars": out["text"].str.len().astype("int64"),
        }
    ).sort_values("doc_id").reset_index(drop=True)


def q_streaming_global(sf_dir: str) -> pa.Table:
    """Committed sink of the 'tumbling_global' engine operator (cross-conv
    daily aggregate): each partition emits mergeable partial sums per
    window; the consumer-side merge below is bounded by windows × P rows
    (never by stream length) — gated against a global GROUP BY oracle."""
    partials = _run_streaming(sf_dir).sink.read_op("tumbling_global").to_pandas()
    merged = (
        partials.groupby("window_id", as_index=False)
        .sum()
        .sort_values("window_id")
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(merged, preserve_index=False)


def q_streaming_topk(sf_dir: str) -> pa.Table:
    """Committed sink of the 'tumbling_counts' engine operator ranked into
    exact per-window top-k: partials (window, tool, n) summed across
    partitions (bounded by windows × vocabulary), then the top 3 tools per
    day by count (ties broken by value) — gated against a QUALIFY oracle."""
    partials = _run_streaming(sf_dir).sink.read_op("tumbling_counts").to_pandas()
    merged = (
        partials.groupby(["window_id", "value"], as_index=False)["n"].sum()
        .sort_values(["window_id", "n", "value"], ascending=[True, False, True])
    )
    topk = merged.groupby("window_id").head(3).reset_index(drop=True)
    return pa.Table.from_pandas(topk, preserve_index=False)


def q_streaming_topk_mg(sf_dir: str) -> pa.Table:
    """Committed sink of the 'tumbling_topk' engine operator (Misra-Gries
    heavy hitters, windows.tumbling_topk_kernel): per-partition bounded
    summaries whose state never exceeds `capacity` entries per window —
    the vocabulary-INDEPENDENT sibling of `streaming_topk`'s exact feeder.
    Gated in the exact regime (capacity >= daily tool vocabulary): the
    query asserts zero decrements loudly, sums the summaries, and ranks —
    hitting the SAME QUALIFY oracle as the exact path."""
    partials = _run_streaming(sf_dir).sink.read_op("tumbling_topk").to_pandas()
    if len(partials) and int(partials["err"].max()) != 0:
        raise AssertionError(
            "tumbling_topk decremented under the gated capacity — counts "
            "would be lower bounds, not exact; raise TOPK_MG_CAPACITY"
        )
    merged = (
        partials.groupby(["window_id", "value"], as_index=False)["n"].sum()
        .sort_values(["window_id", "n", "value"], ascending=[True, False, True])
    )
    topk = merged.groupby("window_id").head(TOPK_MG_K).reset_index(drop=True)
    return pa.Table.from_pandas(topk, preserve_index=False)


def q_streaming_sample(sf_dir: str) -> pa.Table:
    """Committed sink of the 'tumbling_sample' engine operator (bottom-k
    hash-priority uniform sampling, windows.tumbling_sample_kernel): each
    partition's partial is its k lowest-priority turns per day; the
    consumer takes the global bottom-k of the <= P*k candidates per window
    (bottom-k is a semilattice, so this EQUALS the bottom-k of the full
    feed). The oracle recomputes the priority hash in HUGEINT and selects
    the same k rows with a QUALIFY — deterministic ingest-time sampling a
    10^12-turn feed could run with k rows of state per partition."""
    partials = _run_streaming(sf_dir).sink.read_op("tumbling_sample").to_pandas()
    merged = (
        partials.sort_values(["window_id", "priority", "conv_id", "turn_idx"])
        .groupby("window_id").head(SAMPLE_K)
        [["window_id", "conv_id", "turn_idx", "n_chars"]]
        .sort_values(["window_id", "conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(merged, preserve_index=False)


def q_streaming_sample_role(sf_dir: str) -> pa.Table:
    """Committed sink of the STRATIFIED 'tumbling_sample@role' operator
    instance (kernel@variant instancing: same kernel, its own sink and
    state slot): a balanced bottom-k per (day, role). The consumer merge
    is the per-stratum semilattice bottom-k; the oracle partitions its
    QUALIFY by (window_id, role)."""
    partials = (_run_streaming(sf_dir).sink
                .read_op("tumbling_sample@role").to_pandas())
    merged = (
        partials.sort_values(["window_id", "stratum", "priority",
                              "conv_id", "turn_idx"])
        .groupby(["window_id", "stratum"]).head(SAMPLE_BY_K)
        .rename(columns={"stratum": "role"})
        [["window_id", "role", "conv_id", "turn_idx"]]
        .sort_values(["window_id", "role", "conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(merged, preserve_index=False)


def q_streaming_hll(sf_dir: str) -> pa.Table:
    """Committed sink of the 'tumbling_hll' engine operator merged into the
    global per-window HLL sketch: per-partition sparse register partials
    (window_id, bucket, rank) combine by elementwise MAX — bounded by
    windows × 2^p rows, never stream length — and the merged register
    table is gated register-for-register against the HUGEINT SQL oracle
    (the windowed form of `hll_registers`)."""
    partials = _run_streaming(sf_dir).sink.read_op("tumbling_hll").to_pandas()
    merged = (
        partials.groupby(["window_id", "bucket"], as_index=False)["rank"].max()
        .sort_values(["window_id", "bucket"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(merged, preserve_index=False)


def q_streaming_sliding_global(sf_dir: str) -> pa.Table:
    """GLOBAL SLIDING aggregate via PANES (the slices optimization): the
    engine maintains only 6 h tumbling pane partials
    (`tumbling_global@pane6h` — kernel@variant instancing of the same
    global kernel); each 24 h window sliding by 6 h is the sum of 4
    consecutive panes, combined consumer-side over the windows × P pane
    table. A sliding global aggregate therefore costs NOTHING beyond the
    tumbling panes — no per-window row duplication ever crosses the wire.
    Gated against the SQL expanded-window oracle."""
    R = SLIDING_GLOBAL_W_S // PANE_S
    partials = (
        _run_streaming(sf_dir).sink.read_op("tumbling_global@pane6h").to_pandas()
    )
    panes = partials.groupby("window_id", as_index=False).sum()
    frames = []
    for i in range(R):
        f = panes.copy()
        f["window_id"] = f["window_id"] - i
        frames.append(f)
    out = (
        pd.concat(frames, ignore_index=True)
        .groupby("window_id", as_index=False)
        .sum()
        .sort_values("window_id")
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def q_streaming_index(sf_dir: str) -> pd.DataFrame:
    """Committed sink of the 'index' engine operator: the incrementally
    maintained postings table (token, conv_id, turn_idx, tf) of the whole
    feed, built at ingest with exactly-once semantics — rows are globally
    unique (each turn delivered once to one partition), so the sink
    compares directly against the SQL unnest-groupby."""
    out = _run_streaming(sf_dir).sink.read_op("index").to_pandas()
    return (out.astype({"turn_idx": "int64", "tf": "int64"})
            .sort_values(["token", "conv_id", "turn_idx"])
            .reset_index(drop=True))


def q_streaming_sliding_sample(sf_dir: str) -> pa.Table:
    """SLIDING bottom-k sample via PANES: the engine maintains only 6 h
    tumbling pane bottom-ks (`tumbling_sample@pane6h`); each 24 h window
    sliding by 6 h takes the bottom-k of its 4 panes' candidates —
    EXACT, because any row in the window's true bottom-k is also within
    the k smallest of its own pane (bottom-k is mergeable, like the
    summed pane aggregates of q_streaming_sliding_global). A sliding
    uniform sample therefore costs nothing beyond the tumbling panes."""
    R = SLIDING_GLOBAL_W_S // PANE_S
    partials = (_run_streaming(sf_dir).sink
                .read_op("tumbling_sample@pane6h").to_pandas())
    # pane-level semilattice merge first (bounded: k per pane)
    panes = (partials.sort_values(["window_id", "priority", "conv_id", "turn_idx"])
             .groupby("window_id").head(SAMPLE_K))
    frames = []
    for i in range(R):
        f = panes.copy()
        f["window_id"] = f["window_id"] - i
        frames.append(f)
    cand = pd.concat(frames, ignore_index=True)
    out = (cand.sort_values(["window_id", "priority", "conv_id", "turn_idx"])
           .groupby("window_id").head(SAMPLE_K)
           [["window_id", "conv_id", "turn_idx"]]
           .sort_values(["window_id", "conv_id", "turn_idx"])
           .reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)


def q_streaming_qsketch(sf_dir: str) -> pa.Table:
    """Committed sink of the 'tumbling_qsketch' engine operator merged into
    the global per-window log-bucket histogram: per-partition sparse
    (window_id, bucket, n) count partials combine by summing — bounded by
    windows × ≤1040 buckets, never stream length — and the merged table is
    gated bucket-for-bucket against the SQL bit-arithmetic oracle; any
    quantile reads off it with ≤6.25% relative value error."""
    partials = _run_streaming(sf_dir).sink.read_op("tumbling_qsketch").to_pandas()
    merged = (
        partials.groupby(["window_id", "bucket"], as_index=False)["n"].sum()
        .sort_values(["window_id", "bucket"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(merged, preserve_index=False)


def q_range_join(sf_dir: str) -> rd.Dataset:
    """RANGE JOIN (custom operator): for each signup event, count the same
    user's purchases within the following 7 days. Hash exchange on the key,
    then vectorized interval counting via binary search over each user's
    sorted purchase times — no pairwise expansion."""
    ds = _tuned_read(os.path.join(sf_dir, "events.parquet"))
    WINDOW_US = 7 * 86_400 * 1_000_000

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "partition_id", pa.array((uid % ORACLE_PARTITIONS).astype(np.int32))
        )

    def ranged(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        et = np.asarray(group["event_type"].to_pylist(), dtype=object)
        order = np.lexsort((ts, uid))
        uid_s, ts_s, eid_s, et_s = uid[order], ts[order], eid[order], et[order]
        out_eid, out_uid, out_n = [], [], []
        starts = np.flatnonzero(np.r_[True, uid_s[1:] != uid_s[:-1]])
        ends = np.r_[starts[1:], len(uid_s)]
        for s, e in zip(starts, ends):
            seg_et = et_s[s:e]
            seg_ts = ts_s[s:e]
            p_ts = seg_ts[seg_et == "purchase"]  # sorted
            sign = seg_et == "signup"
            if not sign.any():
                continue
            s_ts = seg_ts[sign]
            lo = np.searchsorted(p_ts, s_ts, side="right")  # purchases > signup ts
            hi = np.searchsorted(p_ts, s_ts + WINDOW_US, side="right")  # <= +7d
            out_eid.append(eid_s[s:e][sign])
            out_uid.append(np.full(int(sign.sum()), uid_s[s]))
            out_n.append(hi - lo)
        if not out_eid:
            return pa.table(
                {
                    "event_id": pa.array([], type=pa.int64()),
                    "user_id": pa.array([], type=pa.int64()),
                    "n_purchases_7d": pa.array([], type=pa.int64()),
                }
            )
        return pa.table(
            {
                "event_id": pa.array(np.concatenate(out_eid)),
                "user_id": pa.array(np.concatenate(out_uid)),
                "n_purchases_7d": pa.array(np.concatenate(out_n).astype(np.int64)),
            }
        )

    return (
        ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("partition_id")
        .map_groups(ranged, batch_format="pyarrow")
    )
