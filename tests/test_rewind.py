"""rewind(): resume mid-stream from ANY retained checkpoint, not just the
latest — the Kafka seek / Flink restore-from-retained-checkpoint analog of
the reference's resume-from-offset behavior (docs/capability-inventory.md
179-199). The contract under test: rewinding to epoch k leaves the sink +
cursors byte-identical to a run that had only ever processed epochs 0..k,
and re-running from there reproduces the original output exactly-once."""

import os

import pytest

from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
from dstream_ray.sources.transcripts import generate_transcripts

OPS = {"tumbling": {"width_s": 600}, "session": {"gap_s": 120}, "dedup": {}}


@pytest.fixture()
def feed(tmp_path):
    d = tmp_path / "feed"
    generate_transcripts(n_convs=14, mean_turns=7, seed=11, out_path=str(d), n_shards=4)
    return d


def _cfg(feed, out, **kw):
    kw.setdefault("state_keep_last", None)  # retain all snapshots
    return StreamingConfig(
        feed_dir=str(feed), out_dir=str(out), num_partitions=2,
        files_per_epoch=1, operators=dict(OPS), **kw,
    )


def _sink_snapshot(job):
    """op -> sorted row list over every committed sink file."""
    out = {}
    for op in ("events", "tumbling", "session", "dedup"):
        t = job.sink.read_op(op)
        out[op] = sorted(map(tuple, zip(*[c.to_pylist() for c in t.columns]))) if t is not None else None
    return out


def test_rewind_matches_prefix_then_replays_identically(ray_session, tmp_path, feed):
    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    full_status = job.run()
    assert full_status["flushed"] and full_status["file_cursor"] == 4
    full_snap = _sink_snapshot(job)

    # reference point: a job that only ever saw the first 2 shards
    prefix_job = StreamingJob(_cfg(feed, tmp_path / "prefix"))
    prefix_job.run(max_epochs=2, flush_at_end=False)

    out = job.rewind(1)
    assert out["to_epoch"] == 1 and out["epochs_undone"] >= 2
    assert out["file_cursor"] == 2
    st = job.status()
    assert st["file_cursor"] == 2 and not st["flushed"]
    # sink after rewind == sink of the never-went-further run
    assert _sink_snapshot(job) == _sink_snapshot(prefix_job)

    # resume: same shards + same restored state => same rows, exactly-once
    st2 = job.run()
    assert st2["flushed"] and st2["file_cursor"] == 4
    assert _sink_snapshot(job) == full_snap


def test_rewind_is_retryable_after_partial_failure(ray_session, tmp_path, feed):
    """Crash-safety: a half-done rewind (commit record gone, some sink files
    left) is healed by retrying — last_committed only moves backwards."""
    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run()
    # simulate the crash window: epoch 3's commit record removed, its sink
    # files and state still on disk
    m3 = job.store.manifest(3)
    leftover = [
        f
        for p in m3["partitions"].values()
        if p.get("last_epoch") == 3
        for f in p.get("files", [])
    ]
    job.store.delete_commit(3)
    assert any(os.path.exists(f) for f in leftover)

    prefix_job = StreamingJob(_cfg(feed, tmp_path / "prefix"))
    prefix_job.run(max_epochs=1, flush_at_end=False)

    job.rewind(0)
    assert not any(os.path.exists(f) for f in leftover)
    assert _sink_snapshot(job) == _sink_snapshot(prefix_job)


def test_rewind_to_pruned_snapshot_rejected(ray_session, tmp_path, feed):
    job = StreamingJob(_cfg(feed, tmp_path / "out", state_keep_last=2))
    job.run()
    with pytest.raises(ValueError, match="pruned"):
        job.rewind(0)
    # the latest retained epochs still work
    job.rewind(3)


def test_rewind_validates_target(ray_session, tmp_path, feed):
    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    with pytest.raises(ValueError, match="no committed"):
        job.rewind(0)
    job.run(max_epochs=1, flush_at_end=False)
    with pytest.raises(ValueError, match="not committed"):
        job.rewind(5)


def test_rewind_refused_while_lease_held(ray_session, tmp_path, feed):
    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run(max_epochs=1, flush_at_end=False)
    from dstream_ray.state.lease import Lease

    lock = Lease(
        os.path.join(job.cfg.out_dir, "_locks", "job.lock"), owner="other-driver"
    )
    assert lock.acquire()
    try:
        with pytest.raises(RuntimeError, match="lease"):
            job.rewind(0)
    finally:
        lock.release()


def test_rewind_below_consumer_cursor_refused(ray_session, tmp_path, feed):
    """A follower that drained epoch 2 cannot see a replay of epochs <= 2:
    its cursor only moves forward. rewind() below it must refuse before
    destroying anything; rewinding to the cursor itself stays fine."""
    import pyarrow as pa

    from dstream_ray.sinks.parquet_sink import SinkFollower

    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run(max_epochs=3, flush_at_end=False)
    f = SinkFollower(job.sink, "events", "drainer")
    first = f.poll()
    assert f.cursor == 2
    before = _sink_snapshot(job)
    with pytest.raises(ValueError, match="consumer 'drainer' on op 'events' "
                                         "at cursor 2") as e:
        job.rewind(0)
    assert "target epoch 0" in str(e.value)
    assert job.store.committed_epochs() == [0, 1, 2]
    assert _sink_snapshot(job) == before

    job.run()  # remaining epochs + flush
    full = _sink_snapshot(job)
    out = job.rewind(2)
    assert out["epochs_undone"] >= 1
    job.run()  # replay above the cursor: the follower sees it exactly once
    second = f.poll()
    assert _sink_snapshot(job) == full
    union = pa.concat_tables([first, second])
    assert sorted(map(tuple, zip(*[c.to_pylist() for c in union.columns]))) == full["events"]
