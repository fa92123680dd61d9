"""Transcript feed sources.

The engine's primary input (BASELINE.json ``input_hint``) is a Parquet table of
multi-turn conversation transcripts::

    conv_id: string, turn_idx: int32, role: string, text: string,
    tool: string, ts: timestamp[us]

ordered per conversation by ``(conv_id, turn_idx)`` — the positional cursor
that replaces dstream's dual ``(LSN, seqval)`` CDC checkpoint
(/root/reference/docs/capability-inventory.md:179-184).

Two deterministic producers exist:

- :func:`derive_transcripts` maps the driver-supplied ``events`` table into a
  transcripts feed with a transformation that is also expressible in ANSI SQL
  (a window-function CTE) so every downstream operator can be verified against
  a DuckDB oracle on the same parquet.
- :func:`generate_transcripts` synthesizes seeded feeds (skew / sessions /
  late rows) for unit tests and benchmarks — no external data.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from dstream_ray import register_pickle_by_value
from dstream_ray.common import segmented_cumcount

register_pickle_by_value()

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

# Number of oracle-visible partitions used by the SQL-checkable derivation
# (partition_id = user_id % ORACLE_PARTITIONS). The engine's own partitioner
# (common.partition_ids) is FNV-1a based and independent of this.
ORACLE_PARTITIONS = 8

ROLES = ("user", "assistant", "tool")


def events_to_transcripts_table(events: pa.Table) -> pa.Table:
    """Vectorized kernel: one partition-group of `events` rows -> transcripts.

    Must receive ALL rows of each user_id it touches (conv = user). Sorts by
    (user_id, ts, event_id) and assigns per-conv 0-based ``turn_idx``; the
    oracle-SQL equivalent is
    ``row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1``.
    """
    uid = events["user_id"].to_numpy(zero_copy_only=False)
    ts = events["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False) \
        if isinstance(events["ts"], pa.ChunkedArray) else events["ts"].cast(pa.int64()).to_numpy()
    eid = events["event_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, uid))
    uid_s, ts_s, eid_s = uid[order], ts[order], eid[order]
    turn_idx = segmented_cumcount(uid_s).astype(np.int32)

    role_code = turn_idx % 3
    roles = np.array(ROLES, dtype=object)[role_code]
    tool_names = np.where(
        role_code == 2,
        np.char.add("tool_", (eid_s % 5).astype(str)),
        "",
    )
    conv_ids = np.char.add("c", uid_s.astype(str))
    props = events["props"]
    if isinstance(props, pa.ChunkedArray):
        props = props.combine_chunks()
    text = props.take(pa.array(order))

    return pa.table(
        {
            "conv_id": pa.array(conv_ids, type=pa.string()),
            "turn_idx": pa.array(turn_idx, type=pa.int32()),
            "role": pa.array(roles, type=pa.string()),
            "text": text.cast(pa.string()),
            "tool": pa.array(tool_names.astype(object), type=pa.string()),
            "ts": pa.array(ts_s, type=pa.int64()).cast(pa.timestamp("us")),
            "partition_id": pa.array((uid_s % ORACLE_PARTITIONS).astype(np.int32)),
        }
    )


def derive_transcripts(sf_dir: str, parallelism: int = -1) -> rd.Dataset:
    """events.parquet -> transcripts Dataset (with ``partition_id``).

    One logical hash shuffle on the conversation key (user_id % P) brings every
    conversation onto one worker; turn numbering is then vectorized per
    partition group. This is the engine's "capture" stage — the analog of
    dstream's per-table CDC monitor emitting ordered envelopes
    (/root/reference/docs/plugins/mssql-ingester.md:23-73).
    """
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"))

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        part = pa.array((uid % ORACLE_PARTITIONS).astype(np.int32))
        return batch.append_column("partition_id", part)

    ds = ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
    # groupby(partition_id) => hash shuffle; map_groups gets all rows of a
    # partition (hence all rows of each conv) in one zero-copy Arrow table.
    return ds.groupby("partition_id").map_groups(
        lambda t: events_to_transcripts_table(t), batch_format="pyarrow"
    )


def transcripts_dataset(sf_dir: str) -> rd.Dataset:
    """The transcripts feed for a testdata dir (derived from events)."""
    return derive_transcripts(sf_dir)


def read_transcript_feed(feed_dir: str, columns: list[str] | None = None) -> rd.Dataset:
    """Read an on-disk transcripts feed (parquet dir/file)."""
    return rd.read_parquet(feed_dir, columns=columns)


def generate_transcripts(
    n_convs: int = 100,
    mean_turns: int = 10,
    seed: int = 7,
    *,
    mega_conv_turns: int = 0,
    session_gap_s: float | None = None,
    start_us: int = 1_700_000_000_000_000,
    out_path: str | None = None,
    n_shards: int = 1,
) -> pa.Table | list[str]:
    """Seeded synthetic transcripts (deterministic; no external data).

    ``mega_conv_turns`` adds one hot-key conversation for skew/salting tests;
    ``session_gap_s`` injects inter-turn gaps > gap for ~20% of turns so
    session windows split at known points. With ``out_path`` writes parquet
    shard files (the append-only feed on disk) and returns their paths.
    """
    rng = np.random.default_rng(seed)
    turns_per_conv = np.maximum(1, rng.poisson(mean_turns, n_convs))
    conv_sizes = list(turns_per_conv)
    if mega_conv_turns:
        conv_sizes.append(mega_conv_turns)
    rows_conv, rows_turn, rows_ts = [], [], []
    for ci, n in enumerate(conv_sizes):
        name = f"conv{ci:05d}"
        t0 = start_us + int(rng.integers(0, 3600_000_000))
        deltas = rng.integers(1_000_000, 60_000_000, n)  # 1-60s between turns
        if session_gap_s is not None and n > 3:
            gap_positions = rng.choice(np.arange(1, n), size=max(1, n // 5), replace=False)
            deltas[gap_positions] += int(session_gap_s * 2e6)
        ts = t0 + np.cumsum(deltas) - deltas[0]
        rows_conv.extend([name] * n)
        rows_turn.extend(range(n))
        rows_ts.extend(ts.tolist())
    n_rows = len(rows_conv)
    turn = np.asarray(rows_turn, dtype=np.int32)
    role_code = turn % 3
    roles = np.array(ROLES, dtype=object)[role_code]
    texts = np.array(
        [f"text {c}/{t} ☃ payload-{(t * 2654435761) % 997}" for c, t in zip(rows_conv, rows_turn)],
        dtype=object,
    )
    tools = np.where(role_code == 2, np.char.add("tool_", (turn % 5).astype(str)), "")
    table = pa.table(
        {
            "conv_id": pa.array(rows_conv, type=pa.string()),
            "turn_idx": pa.array(turn, type=pa.int32()),
            "role": pa.array(roles, type=pa.string()),
            "text": pa.array(texts, type=pa.string()),
            "tool": pa.array(tools.astype(object), type=pa.string()),
            "ts": pa.array(np.asarray(rows_ts, dtype=np.int64), type=pa.int64()).cast(
                pa.timestamp("us")
            ),
        }
    )
    if out_path is None:
        return table
    os.makedirs(out_path, exist_ok=True)
    paths = []
    # shard by row ranges (append-order shards ≙ log segments)
    bounds = np.linspace(0, n_rows, n_shards + 1).astype(int)
    for i in range(n_shards):
        p = os.path.join(out_path, f"feed-{i:04d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), p)
        paths.append(p)
    return paths
