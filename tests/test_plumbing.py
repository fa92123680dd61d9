"""Plumbing tests: quarantine filter, sink registry, lease exclusivity,
follow-mode backoff poller, extension protocols."""

import json
import os
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
from dstream_ray.sinks.registry import create_sink
from dstream_ray.sources.transcripts import generate_transcripts
from dstream_ray.state.lease import Lease

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_sink_registry():
    import tempfile

    d = tempfile.mkdtemp()
    assert create_sink("parquet", d).__class__.__name__ == "ExactlyOnceParquetSink"
    assert create_sink("ndjson", d).__class__.__name__ == "NdjsonSink"
    with pytest.raises(NotImplementedError):
        create_sink("kafka", d)
    with pytest.raises(ValueError):
        create_sink("bogus", d)


def test_ndjson_sink_roundtrip(tmp_path):
    sink = create_sink("ndjson", str(tmp_path))
    t = pa.table({"a": pa.array([1, 2]), "b": pa.array(["x", "y"])})
    final = sink.write_staged(t, "events", 0, 0, 123)
    sink.promote([final])
    rows = [json.loads(line) for line in open(final)]
    assert rows == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]


def test_lease_exclusivity(tmp_path):
    p = str(tmp_path / "job.lock")
    a = Lease(p, "a", ttl_s=60)
    b = Lease(p, "b", ttl_s=60)
    assert a.acquire()
    assert not b.acquire()  # held and fresh
    assert a.renew()
    a.release()
    assert b.acquire()
    # stale break
    stale = Lease(p, "c", ttl_s=0.05)
    time.sleep(0.1)
    assert stale.acquire()


def test_run_skips_when_lease_held(ray_session, tmp_path):
    feed = tmp_path / "feed"
    generate_transcripts(n_convs=5, mean_turns=4, seed=1, out_path=str(feed), n_shards=1)
    cfg = StreamingConfig(feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2)
    job = StreamingJob(cfg)
    job.init()
    other = Lease(os.path.join(cfg.out_dir, "_locks", "job.lock"), "other", ttl_s=60)
    assert other.acquire()
    st = job.run()
    assert st == {"status": "skipped", "reason": "lease held by another job"}
    other.release()
    st = job.run()
    assert st["flushed"]


def test_quarantine_routing(ray_session, tmp_path):
    feed = tmp_path / "feed"
    os.makedirs(feed)
    t = pa.table(
        {
            "conv_id": pa.array(["c1", "c1", None, "c2"]),
            "turn_idx": pa.array([0, 1, 0, -5], type=pa.int32()),
            "role": pa.array(["user", "assistant", "user", "user"]),
            "text": pa.array(["a", "b", "bad", "bad2"]),
            "tool": pa.array([""] * 4),
            "ts": pa.array([1, 2, 3, 4], type=pa.int64()).cast(pa.timestamp("us")),
        }
    )
    pq.write_table(t, str(feed / "f0.parquet"))
    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        operators={"tumbling": {"width_s": 60}},
    )
    job = StreamingJob(cfg)
    job.run()
    bad = job.sink.read_op("quarantine")
    good = job.sink.read_op("events")
    assert bad.num_rows == 2
    assert good.num_rows == 2
    assert set(good["conv_id"].to_pylist()) == {"c1"}


def test_follow_mode_picks_up_new_files(ray_session, tmp_path):
    feed = tmp_path / "feed"
    generate_transcripts(n_convs=10, mean_turns=6, seed=2, out_path=str(feed), n_shards=2)

    def writer():
        time.sleep(1.0)
        tbl = generate_transcripts(n_convs=10, mean_turns=6, seed=3)
        # distinct conv namespace: same-named convs restarting at turn 0
        # would (correctly) be dropped as replays by the dedup cursor
        conv = pa.array([c + "_late" for c in tbl["conv_id"].to_pylist()])
        tbl = tbl.set_column(0, "conv_id", conv)
        pq.write_table(tbl, str(feed / "feed-9999.parquet"))

    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        files_per_epoch=1, operators={"tumbling": {"width_s": 3600}},
    )
    job = StreamingJob(cfg)
    th = threading.Thread(target=writer)
    th.start()
    st = job.follow(idle_limit_s=3.0)
    th.join()
    assert st["file_cursor"] == 3  # both initial shards + the late arrival
    assert st["flushed"]
    n1 = pq.read_table(str(feed / "feed-9999.parquet")).num_rows
    base = sum(
        pq.read_table(str(feed / f"feed-{i:04d}.parquet")).num_rows for i in range(2)
    )
    assert job.sink.read_op("events").num_rows == base + n1


def test_protocols_runtime_checks():
    from dstream_ray.protocols import Sink, WindowKernel
    from dstream_ray.sinks.parquet_sink import ExactlyOnceParquetSink
    from dstream_ray.stages.windows import tumbling_kernel

    assert isinstance(ExactlyOnceParquetSink("/tmp/x"), Sink)
    assert isinstance(tumbling_kernel, WindowKernel)


def test_state_pruning_bounds_disk(ray_session, tmp_path):
    from dstream_ray.sources.transcripts import generate_transcripts

    feed = tmp_path / "feed"
    generate_transcripts(n_convs=15, mean_turns=8, seed=8, out_path=str(feed), n_shards=6)
    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        files_per_epoch=1, operators={"session": {"gap_s": 120}},
    )
    job = StreamingJob(cfg)
    job.run()
    state_dirs = sorted(os.listdir(job.store.state_dir))
    assert len(state_dirs) <= 2, state_dirs  # pruned to the last 2 epochs
    # resume still possible from the retained snapshot after more data lands
    import pyarrow.parquet as pq
    tbl = generate_transcripts(n_convs=5, mean_turns=4, seed=9)
    conv = pa.array([c + "_new" for c in tbl["conv_id"].to_pylist()])
    pq.write_table(tbl.set_column(0, "conv_id", conv), str(feed / "feed-9998.parquet"))
    st = StreamingJob(cfg).run()
    assert st["flushed"] and st["file_cursor"] == 7


def test_cli_lifecycle_verbs(tmp_path):
    """python -m dstream_ray: the dstream lifecycle verbs end-to-end in real
    subprocesses (init -> plan -> run -> status -> destroy), fresh Ray
    session per invocation (the CLI owns its session; library code never
    calls ray.init)."""
    import json as _json
    import subprocess
    import sys

    from dstream_ray.sources.transcripts import generate_transcripts

    feed = tmp_path / "feed"
    generate_transcripts(n_convs=10, mean_turns=5, seed=77, out_path=str(feed), n_shards=2)
    out_dir = str(tmp_path / "out")

    def cli(verb, *extra):
        r = subprocess.run(
            [sys.executable, "-m", "dstream_ray", verb,
             "--feed-dir", str(feed), "--out-dir", out_dir,
             "--partitions", "2", *extra],
            capture_output=True, text=True, timeout=120, cwd=REPO,
        )
        assert r.returncode == 0, (verb, r.stderr[-800:])
        out = r.stdout[r.stdout.index("{"):]  # indent=1 JSON spans lines
        return _json.loads(out)

    assert cli("init")["status"] == "ready"
    plan = cli("plan")
    assert len(plan["pending_files"]) == 2 and plan["file_cursor"] == 0
    st = cli("run")
    assert st["flushed"] and st["file_cursor"] == 2
    st2 = cli("status")
    assert st2["committed_epochs"] >= 1 and st2["cumulative"]["rows_in"] > 0
    assert cli("destroy")["status"] == "destroyed"
    assert not os.path.exists(out_dir)
