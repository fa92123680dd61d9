"""Sink compaction: collapse per-epoch files to one file per (op,
partition) without ever violating exactly-once. The crash-safety story is
the sink's range-naming + liveness rule (`parquet_sink.live_files`): a
compact file's NAME carries the inclusive epoch range it replaced, any
file whose range is contained in a wider sibling is invisible to readers,
so the promote→cleanup window can never double-count and a re-run heals
leftovers. Rewind interplay: a target INSIDE a compacted range is refused
loudly; boundaries and above still work (test below).
"""

import os

import pytest

from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
from dstream_ray.sinks.parquet_sink import live_files, parse_epoch_range
from dstream_ray.sources.transcripts import generate_transcripts

OPS = {"tumbling": {"width_s": 600}, "session": {"gap_s": 120}, "dedup": {}}


@pytest.fixture()
def feed(tmp_path):
    d = tmp_path / "feed"
    generate_transcripts(n_convs=14, mean_turns=7, seed=23, out_path=str(d), n_shards=4)
    return d


def _cfg(feed, out, **kw):
    kw.setdefault("state_keep_last", None)
    return StreamingConfig(
        feed_dir=str(feed), out_dir=str(out), num_partitions=2,
        files_per_epoch=1, operators=dict(OPS), **kw,
    )


def _sink_snapshot(job):
    out = {}
    for op in ("events", "tumbling", "session", "dedup"):
        t = job.sink.read_op(op)
        out[op] = sorted(map(tuple, zip(*[c.to_pylist() for c in t.columns]))) if t is not None else None
    return out


def _partition_dirs(job):
    for op in sorted(os.listdir(job.sink.root)):
        opdir = os.path.join(job.sink.root, op)
        for d in sorted(os.listdir(opdir)):
            if d.startswith("partition="):
                yield os.path.join(opdir, d)


def test_compact_collapses_files_and_preserves_reads(ray_session, tmp_path, feed):
    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run()
    before = _sink_snapshot(job)
    n_before = sum(len(os.listdir(d)) for d in _partition_dirs(job))
    stats = job.compact()
    assert stats["status"] == "compacted" and stats["files_merged"] > 0
    compacted_dirs = 0
    for d in _partition_dirs(job):
        files = [f for f in os.listdir(d) if f.endswith(".parquet")]
        assert len(files) == 1, d  # single-file dirs stay, multi-file merge
        lo, hi, _wm = parse_epoch_range(files[0])
        if files[0].startswith("compact-"):
            assert hi > lo  # a range file always spans >= 2 epochs
            compacted_dirs += 1
    assert compacted_dirs > 0
    n_after = sum(len(os.listdir(d)) for d in _partition_dirs(job))
    assert n_after < n_before
    assert _sink_snapshot(job) == before
    # idempotent: nothing left to merge
    again = job.compact()
    assert again["files_merged"] == 0 and again["files_healed"] == 0


def test_crash_window_never_double_counts_and_heals(ray_session, tmp_path, feed):
    """Simulate a compaction that crashed AFTER promoting the merged file
    but BEFORE deleting its inputs: readers must not double-count, and the
    next compact() finishes the cleanup."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run()
    before = _sink_snapshot(job)
    d = next(iter(_partition_dirs(job)))
    inputs = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    assert len(inputs) >= 2
    ranges = [parse_epoch_range(f) for f in inputs]
    lo, hi = min(r[0] for r in ranges), max(r[1] for r in ranges)
    wm = max(r[2] for r in ranges)
    merged = pa.concat_tables([pq.read_table(os.path.join(d, f)) for f in inputs])
    pq.write_table(merged, os.path.join(d, f"compact-{lo:06d}-{hi:06d}-wm-{wm}.parquet"))
    # inputs still on disk next to the promoted compact file
    assert _sink_snapshot(job) == before  # liveness rule hides the inputs
    stats = job.compact()
    assert stats["files_healed"] == len(inputs)
    leftover = [f for f in os.listdir(d) if f.endswith(".parquet")]
    assert leftover == [f"compact-{lo:06d}-{hi:06d}-wm-{wm}.parquet"]
    assert _sink_snapshot(job) == before


def test_compact_removes_orphaned_compact_stage(ray_session, tmp_path, feed):
    """A compaction that crashed between writing its stage and the rename
    leaves ``compact-*.parquet.tmp``. Once later epochs widen the range, no
    future compact writes that name again, so compact() itself must clear
    it; staged epoch files are left alone."""
    import shutil

    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run()
    before = _sink_snapshot(job)
    d = next(iter(_partition_dirs(job)))
    first = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))[0]
    orphan = os.path.join(d, "compact-000000-000001-wm-0.parquet.tmp")
    shutil.copy(os.path.join(d, first), orphan)
    stage = os.path.join(d, "epoch-000099-wm-0.parquet.tmp")
    shutil.copy(os.path.join(d, first), stage)
    job.compact()
    assert not os.path.exists(orphan)
    assert os.path.exists(stage)
    assert _sink_snapshot(job) == before


def test_compact_midway_then_resume_then_compact(ray_session, tmp_path, feed):
    """Compaction between micro-batches: a follow-mode deployment compacts
    while the job is paused, resumes ingest, compacts again — reads equal
    an uninterrupted run at every step, and the final tree is one range
    file per partition covering every epoch."""
    ref = StreamingJob(_cfg(feed, tmp_path / "ref"))
    ref.run()

    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run(max_epochs=2, flush_at_end=False)
    job.compact()
    job.run()  # resume the remaining shards + flush
    assert _sink_snapshot(job) == _sink_snapshot(ref)
    job.compact()
    assert _sink_snapshot(job) == _sink_snapshot(ref)
    for d in _partition_dirs(job):
        files = [f for f in os.listdir(d) if f.endswith(".parquet")]
        assert len(files) == 1, d


def test_rewind_into_compacted_range_refused_boundary_ok(ray_session, tmp_path, feed):
    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run(max_epochs=3, flush_at_end=False)  # epochs 0..2
    job.compact()  # ranges cover [0, 2]
    job.run()  # epoch 3 (+ flush) appends per-epoch files above the range
    with pytest.raises(ValueError, match="compacted range"):
        job.rewind(1)
    out = job.rewind(2)  # the range's upper bound: legal boundary
    assert out["status"] == "rewound" and out["sink_files_removed"] > 0
    # replay from the boundary reproduces the full run exactly-once
    ref = StreamingJob(_cfg(feed, tmp_path / "ref"))
    ref.run()
    job.run()
    assert _sink_snapshot(job) == _sink_snapshot(ref)


def test_auto_compaction_in_steady_state(ray_session, tmp_path, feed):
    """compact_every=2: the run loop compacts after every second committed
    epoch — output equals an uncompacted reference run, and every
    multi-file partition directory ends at <= 2 files (one range file +
    at most the trailing uncompacted epoch)."""
    ref = StreamingJob(_cfg(feed, tmp_path / "ref"))
    ref.run()
    job = StreamingJob(_cfg(feed, tmp_path / "out", compact_every=2))
    job.run()
    assert _sink_snapshot(job) == _sink_snapshot(ref)
    for d in _partition_dirs(job):
        files = [f for f in os.listdir(d) if f.endswith(".parquet")]
        assert len(files) <= 2, (d, files)


def test_compact_refused_while_lease_held(ray_session, tmp_path, feed):
    from dstream_ray.state.lease import Lease

    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run(max_epochs=1, flush_at_end=False)
    holder = Lease(os.path.join(job.cfg.out_dir, "_locks", "job.lock"),
                   owner="other-driver", ttl_s=30)
    assert holder.acquire()
    try:
        with pytest.raises(RuntimeError, match="lease"):
            job.compact()
    finally:
        holder.release()


def test_live_files_rule_directly():
    """Unit pin of the visibility rule: strict containment within a
    directory kills the contained file; distinct epoch files and foreign
    names pass through; directories are independent."""
    a = "/s/op/partition=0000"
    b = "/s/op/partition=0001"
    paths = [
        f"{a}/epoch-000000-wm-10.parquet",
        f"{a}/epoch-000001-wm-20.parquet",
        f"{a}/compact-000000-000001-wm-20.parquet",  # kills both epochs in a
        f"{b}/epoch-000000-wm-10.parquet",           # other dir: untouched
        f"{a}/notes.txt",                            # foreign: passthrough
    ]
    live = live_files(paths)
    assert f"{a}/compact-000000-000001-wm-20.parquet" in live
    assert f"{a}/epoch-000000-wm-10.parquet" not in live
    assert f"{a}/epoch-000001-wm-20.parquet" not in live
    assert f"{b}/epoch-000000-wm-10.parquet" in live
    assert f"{a}/notes.txt" in live
    # nested compaction leftovers: the widest range wins
    live2 = live_files([
        f"{a}/compact-000000-000003-wm-40.parquet",
        f"{a}/compact-000000-000001-wm-20.parquet",
        f"{a}/epoch-000002-wm-30.parquet",
        f"{a}/epoch-000004-wm-50.parquet",  # above the range: live
    ])
    assert sorted(os.path.basename(p) for p in live2) == [
        "compact-000000-000003-wm-40.parquet",
        "epoch-000004-wm-50.parquet",
    ]


def test_sink_follower_incremental_drain(ray_session, tmp_path, feed):
    """The receiver loop: polls between epochs are disjoint, their union is
    the full committed sink, cursor persists across follower restarts, and
    an idle poll returns None."""
    import pyarrow as pa

    from dstream_ray.sinks.parquet_sink import SinkFollower

    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run(max_epochs=2, flush_at_end=False)
    f1 = SinkFollower(job.sink, "events", "drainer")
    first = f1.poll()
    assert first is not None and f1.poll() is None  # drained; idle poll
    job.run()  # remaining epochs + flush
    f2 = SinkFollower(job.sink, "events", "drainer")  # restart: cursor loads
    assert f2.cursor == f1.cursor
    second = f2.poll()
    assert second is not None
    union = sorted(map(tuple, zip(*[c.to_pylist() for c in
                                    pa.concat_tables([first, second]).columns])))
    full = sorted(map(tuple, zip(*[c.to_pylist()
                                   for c in job.sink.read_op("events").columns])))
    assert union == full


def test_compaction_respects_follower_cursor(ray_session, tmp_path, feed):
    """A registered consumer's cursor is a merge boundary: compact() never
    produces a file straddling it, so the follower keeps draining whole
    files with no re-delivery; an UNREGISTERED straddle fails loudly."""
    import pyarrow as pa

    from dstream_ray.sinks.parquet_sink import SinkFollower, parse_epoch_range

    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run(max_epochs=2, flush_at_end=False)
    f = SinkFollower(job.sink, "events", "drainer")
    first = f.poll()
    assert first is not None
    job.run()  # more epochs
    job.compact()
    # no live file straddles the cursor, in any op dir of 'events'
    for d in _partition_dirs(job):
        if f"/events/" not in d + "/":
            continue
        for name in os.listdir(d):
            r = parse_epoch_range(name)
            if r:
                assert not (r[0] <= f.cursor < r[1]), (d, name, f.cursor)
    second = f.poll()  # drains the above-cursor compact files
    union = sorted(map(tuple, zip(*[c.to_pylist() for c in
                                    pa.concat_tables([first, second]).columns])))
    full = sorted(map(tuple, zip(*[c.to_pylist()
                                   for c in job.sink.read_op("events").columns])))
    assert union == full

    # unregistered-consumer hazard fails loudly: a follower whose cursor
    # sits INSIDE an existing compact range refuses to double-deliver
    g = SinkFollower(job.sink, "tumbling", "late-joiner")
    g.cursor = 1  # simulate a cursor from before an unboundaried compaction
    ranges = []
    for d in _partition_dirs(job):
        if "/tumbling/" in d + "/":
            ranges += [parse_epoch_range(x) for x in os.listdir(d)
                       if parse_epoch_range(x)]
    if any(r[0] <= 1 < r[1] for r in ranges):
        with pytest.raises(RuntimeError, match="straddles"):
            g.poll()


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
        lambda t: (min(t), max(t))),
    min_size=1, max_size=12, unique=True))
def test_live_files_properties(ranges):
    """Property pin of the visibility rule over arbitrary interval sets
    (mixing epoch files and compact ranges): (1) live files are exactly
    the non-strictly-contained intervals; (2) the union of live ranges
    equals the union of all ranges (no committed epoch ever becomes
    unreadable); (3) the rule is idempotent."""
    d = "/s/op/partition=0000"
    paths = []
    for lo, hi in ranges:
        if lo == hi:
            paths.append(f"{d}/epoch-{lo:06d}-wm-0.parquet")
        else:
            paths.append(f"{d}/compact-{lo:06d}-{hi:06d}-wm-0.parquet")
    live = live_files(paths)
    rng = {p: parse_epoch_range(os.path.basename(p)) for p in paths}
    # (1) exact characterization: dead iff strictly contained in another
    for p in paths:
        lo, hi, _ = rng[p]
        contained = any(
            rng[q][0] <= lo and hi <= rng[q][1] and (rng[q][0], rng[q][1]) != (lo, hi)
            for q in paths if q != p)
        assert (p not in live) == contained, (p, ranges)
    # (2) no epoch lost
    cover_all = set().union(*(range(r[0], r[1] + 1) for r in rng.values()))
    cover_live = set().union(
        *(range(rng[p][0], rng[p][1] + 1) for p in live)) if live else set()
    assert cover_live == cover_all
    # (3) idempotent
    assert sorted(live_files(live)) == sorted(live)


def test_status_reports_sink_files_and_consumers(ray_session, tmp_path, feed):
    """status() surfaces compaction pressure (live/dead file counts per
    op) and registered consumer cursors."""
    from dstream_ray.sinks.parquet_sink import SinkFollower

    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run()
    st = job.status()
    assert st["sink_files"]["events"]["live"] >= 2
    assert st["consumers"] == {}
    f = SinkFollower(job.sink, "events", "drainer")
    f.poll()
    job.compact()
    st2 = job.status()
    assert st2["consumers"]["events"] == {"drainer": f.cursor}
    assert st2["sink_files"]["events"]["live"] <= st["sink_files"]["events"]["live"]
    assert st2["sink_files"]["events"]["dead"] == 0


def test_compact_rescale_resume_compact_equals_reference(ray_session, tmp_path, feed):
    """The full lifecycle interplay: compact mid-stream, RESCALE to twice
    the partitions, resume, compact again — committed rows equal an
    uninterrupted fixed-parallelism run exactly (compaction is layout,
    rescale re-keys state; neither may touch content)."""
    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run(max_epochs=2, flush_at_end=False)
    job.compact()
    job.rescale(4)
    cfg4 = _cfg(feed, tmp_path / "out")
    cfg4.num_partitions = 4
    job4 = StreamingJob(cfg4)
    job4.run()
    job4.compact()
    ref = StreamingJob(_cfg(feed, tmp_path / "ref"))
    ref.run()
    assert _sink_snapshot(job4) == _sink_snapshot(ref)


def test_compaction_segments_at_multiple_consumer_cursors(ray_session, tmp_path, feed):
    """Two followers at DIFFERENT positions: compaction splits each
    partition directory at BOTH cursors — no produced range straddles
    either — and both consumers drain to the same full content."""
    import pyarrow as pa

    from dstream_ray.sinks.parquet_sink import SinkFollower, parse_epoch_range

    job = StreamingJob(_cfg(feed, tmp_path / "out"))
    job.run(max_epochs=1, flush_at_end=False)
    slow = SinkFollower(job.sink, "events", "slow")
    s1 = slow.poll()          # cursor after epoch 0
    job.run(max_epochs=2, flush_at_end=False)
    fast = SinkFollower(job.sink, "events", "fast")
    f1 = fast.poll()          # cursor after epoch 1 (epochs 0..1 consumed)
    job.run()                 # remaining epochs + flush
    job.compact()
    cursors = {slow.cursor, fast.cursor}
    assert len(cursors) == 2  # genuinely different boundaries
    for d in _partition_dirs(job):
        if "/events/" not in d + "/":
            continue
        for name in os.listdir(d):
            r = parse_epoch_range(name)
            if r:
                for c in cursors:
                    assert not (r[0] <= c < r[1]), (d, name, c)
    full = sorted(map(tuple, zip(*[col.to_pylist()
                                   for col in job.sink.read_op("events").columns])))
    for follower, first in ((slow, s1), (fast, f1)):
        rest = follower.poll()
        got = sorted(map(tuple, zip(*[col.to_pylist()
                                      for col in pa.concat_tables(
                                          [t for t in (first, rest) if t is not None]).columns])))
        assert got == full, follower.name


def test_corrupt_consumer_cursor_fails_loudly(tmp_path):
    """A torn or garbage cursor file is refused, naming the file, by a new
    follower and by the sink's consumer registry: read as "no cursor" it
    would re-deliver every committed row and drop the consumer's
    compaction boundary. A missing file is still a new consumer."""
    import pyarrow as pa

    from dstream_ray.sinks.parquet_sink import ExactlyOnceParquetSink, SinkFollower

    sink = ExactlyOnceParquetSink(str(tmp_path / "out"))
    for e in range(3):
        final = sink.write_staged(pa.table({"x": [e]}), "events", 0, e, e)
        ExactlyOnceParquetSink.promote([final])
    follower = SinkFollower(sink, "events", "reader")
    assert follower.cursor == -1  # no cursor file yet: a new consumer
    assert follower.poll().num_rows == 3 and follower.cursor == 2
    with open(follower.path, "w") as fh:
        fh.write('{"events": 2')  # torn write
    with pytest.raises(ValueError, match="reader.json"):
        SinkFollower(sink, "events", "reader")
    with pytest.raises(ValueError, match="reader.json"):
        sink.consumers()
