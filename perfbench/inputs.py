"""Seeded benchmark inputs, generated once per (workload, seed, size) and
cached under the work directory.

Nothing here reads data from outside the checkout: every feed is synthetic
and a pure function of the seed. Each builder writes into a temporary
directory and renames it into place, so a killed run never leaves a
half-built cache entry behind.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

START_US = 1_700_000_000_000_000
DAY_US = 86_400 * 1_000_000
ROLES = np.array(["user", "assistant", "tool"], dtype=object)


def _cached(path: str, build) -> dict:
    """Run ``build(tmp_dir) -> meta`` once; later calls return the meta."""
    meta_path = os.path.join(path, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            return json.load(fh)
    tmp = path + ".building"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    meta = build(tmp)
    with open(os.path.join(tmp, "meta.json"), "w") as fh:
        json.dump(meta, fh)
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return meta


def _k_texts(rng: np.random.Generator, n: int) -> np.ndarray:
    # the sf0.1 events props payload shape: '{"k": <0..99>}'
    ks = rng.integers(0, 100, n)
    return np.array(['{"k": %d}' % k for k in ks], dtype=object)


def transcript_table(seed: int, n_rows: int) -> pa.Table:
    """Transcript feed in the shape of the testdata ``events`` table after
    the engine's events->transcripts derivation: ~67 turns per conversation
    (uniform 34..99), event times spread over 30 days, roles cycling
    user/assistant/tool, five tool names, tiny JSON payloads. Rows are
    ordered by (conv_id, turn_idx), so a shard holds whole conversations,
    like the replicated feed ``bench.py`` builds."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(34, 100, n_rows // 34 + 2)
    ends = np.cumsum(sizes)
    n_convs = int(np.searchsorted(ends, n_rows)) + 1
    sizes = sizes[:n_convs].copy()
    sizes[-1] -= int(ends[n_convs - 1]) - n_rows
    conv_idx = np.repeat(np.arange(n_convs), sizes)
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    turn = (np.arange(n_rows) - np.repeat(starts, sizes)).astype(np.int32)
    # per-conv sorted uniform event times over 30 days
    ts = START_US + rng.integers(0, 30 * DAY_US, n_rows)
    ts = ts[np.lexsort((ts, conv_idx))]
    role_code = turn % 3
    tools = np.where(
        role_code == 2, np.char.add("tool_", rng.integers(0, 5, n_rows).astype(str)), ""
    )
    conv_names = np.char.add(f"c{seed % 1000:03d}_", np.arange(n_convs).astype(str))
    return pa.table(
        {
            "conv_id": pa.array(conv_names[conv_idx].astype(object), type=pa.string()),
            "turn_idx": pa.array(turn, type=pa.int32()),
            "role": pa.array(ROLES[role_code], type=pa.string()),
            "text": pa.array(_k_texts(rng, n_rows), type=pa.string()),
            "tool": pa.array(tools.astype(object), type=pa.string()),
            "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
        }
    )


def catchup_feed(cache_dir: str, seed: int, n_rows: int, n_shards: int) -> dict:
    """Parquet feed of ``n_shards`` contiguous row ranges."""
    path = os.path.join(cache_dir, f"catchup-s{seed}-r{n_rows}-n{n_shards}")

    def build(tmp: str) -> dict:
        table = transcript_table(seed, n_rows)
        feed = os.path.join(tmp, "feed")
        os.makedirs(feed)
        bounds = np.linspace(0, n_rows, n_shards + 1).astype(int)
        for i in range(n_shards):
            pq.write_table(
                table.slice(bounds[i], bounds[i + 1] - bounds[i]),
                os.path.join(feed, f"feed-{i:04d}.parquet"),
            )
        return {"rows": n_rows, "shards": n_shards}

    meta = _cached(path, build)
    meta["feed_dir"] = os.path.join(path, "feed")
    return meta


def envelope_corpus(
    cache_dir: str,
    seed: int,
    n_lines: int,
    *,
    n_tables: int,
    n_restarts: int,
    n_malformed: int,
) -> dict:
    """NDJSON CDC envelopes over ``n_tables`` tables with a global LSN.

    ``n_restarts`` times the stream re-sends a tail of lines it already sent
    (a provider restarting from an older offset), and ``n_malformed``
    truncated lines are spliced in. Both sit at evenly spaced positions with
    a seeded jitter, so every seed puts each malformed line in its own shard
    and the workload's cost does not depend on which seed is drawn."""
    path = os.path.join(
        cache_dir, f"envelopes-s{seed}-l{n_lines}-t{n_tables}-r{n_restarts}-m{n_malformed}"
    )

    def build(tmp: str) -> dict:
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, 1_000_000, n_lines)
        ops = np.array(["i", "u", "d"])[rng.integers(0, 3, n_lines)]
        lines = [
            '{"data":{"id":%d,"v":%d},"metadata":{"TableName":"tbl%02d",'
            '"LSN":"%016x","Seq":"%016x","OperationType":"%s"}}\n'
            % (i, vals[i], i % n_tables, i, i % 7, ops[i])
            for i in range(n_lines)
        ]
        out: list[str] = []
        redelivered = 0
        restart_at = {
            int((k + 0.5) * n_lines / n_restarts + rng.integers(-500, 500))
            for k in range(n_restarts)
        }
        malformed_at = {
            int((k + 1) * n_lines / (n_malformed + 1) + rng.integers(-500, 500))
            for k in range(n_malformed)
        }
        malformed: list[str] = []
        for i, line in enumerate(lines):
            out.append(line)
            if i in restart_at:
                tail = int(rng.integers(200, 2000))
                out.extend(lines[i + 1 - tail : i + 1])
                redelivered += tail
            if i in malformed_at:
                bad = line[: int(rng.integers(10, len(line) - 10))]
                out.append(bad + "\n")
                malformed.append(bad)
        corpus = os.path.join(tmp, "corpus.ndjson")
        with open(corpus, "w") as fh:
            fh.writelines(out)
        return {
            "lines": len(out),
            "valid_lines": len(out) - len(malformed),
            "redelivered": redelivered,
            "malformed": malformed,
        }

    meta = _cached(path, build)
    meta["corpus"] = os.path.join(path, "corpus.ndjson")
    return meta


def follow_shards(
    cache_dir: str, seed: int, n_shards: int, rows_per_shard: int, n_convs: int
) -> dict:
    """Small time-ordered parquet shards for the open-loop workload.

    Shard ``i`` covers ten seconds of event time and draws its rows from
    ``n_convs`` conversations, so every shard touches many keys and the
    windows' keyed state keeps growing for the whole run. Each row's text
    starts with the shard number, which lets the consumer map rows it reads
    back from the sink to the shard they came from."""
    path = os.path.join(
        cache_dir, f"follow-s{seed}-n{n_shards}-r{rows_per_shard}-c{n_convs}"
    )

    def build(tmp: str) -> dict:
        rng = np.random.default_rng(seed)
        next_turn = np.zeros(n_convs, dtype=np.int64)
        conv_names = np.char.add(f"f{seed % 1000:03d}_", np.arange(n_convs).astype(str))
        shard_dir = os.path.join(tmp, "shards")
        os.makedirs(shard_dir)
        for s in range(n_shards):
            conv = rng.integers(0, n_convs, rows_per_shard)
            ts = START_US + s * 10_000_000 + np.sort(rng.integers(0, 10_000_000, rows_per_shard))
            # per-conv turn numbers continue across shards in arrival order
            order = np.argsort(conv, kind="stable")
            conv_s = conv[order]
            first = np.r_[True, conv_s[1:] != conv_s[:-1]]
            seg_start = np.maximum.accumulate(np.where(first, np.arange(rows_per_shard), 0))
            turn = np.empty(rows_per_shard, dtype=np.int64)
            turn[order] = next_turn[conv_s] + np.arange(rows_per_shard) - seg_start
            np.add.at(next_turn, conv, 1)
            role_code = turn % 3
            texts = [f"s{s:05d} " + t for t in _k_texts(rng, rows_per_shard)]
            tools = np.where(role_code == 2, np.char.add("tool_", (turn % 5).astype(str)), "")
            pq.write_table(
                pa.table(
                    {
                        "conv_id": pa.array(conv_names[conv].astype(object), type=pa.string()),
                        "turn_idx": pa.array(turn.astype(np.int32)),
                        "role": pa.array(ROLES[role_code], type=pa.string()),
                        "text": pa.array(texts, type=pa.string()),
                        "tool": pa.array(tools.astype(object), type=pa.string()),
                        "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
                    }
                ),
                os.path.join(shard_dir, f"shard-{s:05d}.parquet"),
            )
        return {"shards": n_shards, "rows": n_shards * rows_per_shard}

    meta = _cached(path, build)
    meta["shard_dir"] = os.path.join(path, "shards")
    return meta
