"""The sink's file encoding contract and its durable stage.

Every sink file is written by one writer (`parquet_sink.write_parquet`)
whose encodings follow the column type: DELTA_BINARY_PACKED for integers
and timestamps, a dictionary for strings, no column statistics. Replay
relies on the writer being deterministic (a re-run epoch overwrites its
stage with the same bytes under the same name), and outside readers
(DuckDB) must read the delta-packed columns, nulls included."""

import filecmp
import os
import shutil

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
from dstream_ray.sinks.parquet_sink import ExactlyOnceParquetSink
from dstream_ray.sinks.registry import create_sink
from dstream_ray.sources.transcripts import generate_transcripts


def _table(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    conv = np.sort(rng.integers(0, 20, n))
    return pa.table({
        "conv_id": pa.array([f"c{c:03d}" for c in conv]),
        "turn_idx": pa.array(np.arange(n) % 7, pa.int32()),
        "n": pa.array(rng.integers(0, 1 << 40, n), pa.int64()),
        "role": pa.array(rng.choice(["user", "assistant", "tool"], n)),
        "text": pa.array([f"payload {i} {rng.random()}" for i in range(n)]),
        "score": pa.array(rng.random(n)),
        "ts": pa.array(1_700_000_000_000_000 + np.arange(n) * 1_000_000,
                       pa.int64()).cast(pa.timestamp("us")),
    })


def _assert_encoding(path: str, schema: pa.Schema) -> None:
    md = pq.ParquetFile(path).metadata
    assert md.num_row_groups >= 1
    for rg in range(md.num_row_groups):
        for i in range(md.num_columns):
            col = md.row_group(rg).column(i)
            typ = schema.field(col.path_in_schema).type
            assert not col.is_stats_set, (path, col.path_in_schema)
            if pa.types.is_integer(typ) or pa.types.is_timestamp(typ):
                assert "DELTA_BINARY_PACKED" in col.encodings, (path, col)
                assert "RLE_DICTIONARY" not in col.encodings, (path, col)
            elif pa.types.is_string(typ):
                assert "RLE_DICTIONARY" in col.encodings, (path, col)


def test_staged_and_compacted_files_use_type_driven_encodings(tmp_path):
    sink = ExactlyOnceParquetSink(str(tmp_path))
    finals = [sink.write_staged(_table(500, e), "events", 0, e, 100 + e)
              for e in range(3)]
    _assert_encoding(finals[0] + ".tmp", _table(1, 0).schema)
    sink.promote(finals)
    r = sink.compact_dir(os.path.dirname(finals[0]))
    assert r["compacted"] == 3
    (compacted,) = os.listdir(os.path.dirname(finals[0]))
    assert compacted.startswith("compact-000000-000002-")
    _assert_encoding(os.path.join(os.path.dirname(finals[0]), compacted),
                     _table(1, 0).schema)
    assert sink.read_op("events").equals(
        pa.concat_tables([_table(500, e) for e in range(3)]))


def test_staging_and_compaction_are_byte_identical_on_replay(tmp_path):
    t = _table(2000, 7)
    a = ExactlyOnceParquetSink(str(tmp_path / "a"))
    b = ExactlyOnceParquetSink(str(tmp_path / "b"))
    fa = a.write_staged(t, "events", 1, 4, 99)
    shutil.copy(fa + ".tmp", tmp_path / "first")
    assert a.write_staged(t, "events", 1, 4, 99) == fa  # replayed stage
    assert filecmp.cmp(fa + ".tmp", tmp_path / "first", shallow=False)
    fb = b.write_staged(t, "events", 1, 4, 99)
    assert filecmp.cmp(fa + ".tmp", fb + ".tmp", shallow=False)

    # re-compacting the same inputs gives the same bytes
    for sink in (a, b):
        finals = [sink.write_staged(_table(300, e), "events", 1, e, e)
                  for e in range(3)]
        sink.promote(finals)
        sink.compact_dir(os.path.dirname(finals[0]))
    da, db = (os.path.join(s.root, "events", "partition=0001") for s in (a, b))
    assert sorted(os.listdir(da)) == sorted(os.listdir(db))
    for name in os.listdir(da):
        assert filecmp.cmp(os.path.join(da, name), os.path.join(db, name),
                           shallow=False)


def _rows(t: pa.Table) -> list:
    return sorted(map(tuple, zip(*[c.to_pylist() for c in t.columns])), key=repr)


def test_duckdb_reads_committed_sink_tree_like_read_op(ray_session, tmp_path):
    feed = tmp_path / "feed"
    generate_transcripts(n_convs=12, mean_turns=6, seed=5, out_path=str(feed), n_shards=3)
    good = pq.read_table(str(feed / os.listdir(feed)[0]))
    # contract violations land in 'quarantine': null conv_id, null ts and
    # null turn_idx, so the delta-packed int and timestamp columns hold nulls
    bad = pa.table({
        "conv_id": pa.array([None, "q1", "q2"], pa.string()),
        "turn_idx": pa.array([0, None, 3], pa.int32()),
        "role": pa.array(["user", "user", None]),
        "text": pa.array(["x", None, "z"]),
        "tool": pa.array(["", "", ""]),
        "ts": pa.array([5, 6, None], pa.int64()).cast(pa.timestamp("us")),
    }).cast(good.schema)
    pq.write_table(bad, str(feed / "zz-bad.parquet"))
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        files_per_epoch=1, state_keep_last=None,
        operators={"tumbling": {"width_s": 86400}, "session": {"gap_s": 43200}},
    ))
    job.run()
    job.compact()
    ops = sorted(d for d in os.listdir(job.sink.root) if not d.startswith("_"))
    assert {"events", "quarantine", "tumbling", "session"} <= set(ops)
    con = duckdb.connect()
    for op in ops:
        expected = job.sink.read_op(op)
        got = con.execute(
            f"SELECT * FROM read_parquet('{job.sink.root}/{op}/**/*.parquet', "
            "hive_partitioning = false)"
        ).fetch_arrow_table()
        assert got.column_names == expected.column_names, op
        assert _rows(got) == _rows(expected), op
    q = job.sink.read_op("quarantine")
    assert q.num_rows == 3
    assert q["turn_idx"].null_count == 1 and q["ts"].null_count == 1


def test_ndjson_sink_fsyncs_its_stage(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.readlink(f"/proc/self/fd/{fd}"))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    sink = create_sink("ndjson", str(tmp_path))
    final = sink.write_staged(pa.table({"a": [1, 2]}), "events", 0, 0, 7)
    assert final.endswith(".ndjson")
    assert os.path.realpath(final + ".tmp") in synced


@pytest.mark.parametrize("num_partitions", [2, 8, 257, 70_000])
def test_split_matches_int32_stable_sort(tmp_path, num_partitions):
    from dstream_ray.common import partition_ids
    from dstream_ray.pipelines.streaming import _split_task

    generate_transcripts(n_convs=400, mean_turns=5, seed=3,
                         out_path=str(tmp_path), n_shards=1)
    (path,) = [str(tmp_path / f) for f in os.listdir(tmp_path)]
    t = pq.read_table(path)
    pid = partition_ids(t["conv_id"], num_partitions)
    order = np.argsort(pid, kind="stable")
    parts = _split_task._function(path, num_partitions)
    assert len(parts) == num_partitions
    for k, part in enumerate(parts):
        assert part.equals(t.take(order[pid[order] == k])), k


def test_promote_fsyncs_each_directory_once(tmp_path, monkeypatch):
    """Promote renames every staged file first, then fsyncs each distinct
    directory once: N files in D directories cost D directory fsyncs."""
    from dstream_ray.sinks import parquet_sink

    synced = []
    monkeypatch.setattr(parquet_sink, "fsync_dir", synced.append)
    sink = ExactlyOnceParquetSink(str(tmp_path))
    finals = [sink.write_staged(_table(10, e), op, part, e, e)
              for op in ("events", "tumbling") for part in range(3) for e in range(4)]
    ExactlyOnceParquetSink.promote(finals)
    dirs = {os.path.dirname(f) for f in finals}
    assert len(finals) == 24 and len(dirs) == 6
    assert sorted(synced) == sorted(dirs)
    assert all(os.path.exists(f) and not os.path.exists(f + ".tmp") for f in finals)
