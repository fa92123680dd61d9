"""follow() wakes on feed arrival: an inotify watch of the feed dir replaces
sleeping out the backoff interval, with a plain sleep where inotify is
unavailable. Every timing assertion leaves a wide margin: the poll interval
is 5 s and a woken follow must commit within 2 s of the publish."""

import os
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dstream_ray.pipelines import streaming
from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
from dstream_ray.sources.transcripts import generate_transcripts

SLOW_POLL = {"poll_interval_s": 5.0, "max_poll_interval_s": 5.0}


def _inotify_available() -> bool:
    watch = streaming._feed_watch(os.path.dirname(__file__))
    if watch is None:
        return False
    watch.close()
    return True


requires_inotify = pytest.mark.skipif(not _inotify_available(), reason="no inotify on this host")


def _late_shard(seed: int) -> pa.Table:
    tbl = generate_transcripts(n_convs=6, mean_turns=4, seed=seed)
    # a distinct conv namespace: same-named convs restarting at turn 0
    # would (correctly) be dropped as replays by the relay cursor
    conv = pa.array([f"{c}_s{seed}" for c in tbl["conv_id"].to_pylist()])
    return tbl.set_column(0, "conv_id", conv)


def _publish_by_rename(table: pa.Table, path: str) -> None:
    pq.write_table(table, path + ".tmp")
    os.replace(path + ".tmp", path)


def _follow(tmp_path, actions, **follow_kw):
    """Run ``follow`` over a one-shard feed. Once that shard's epoch has
    committed, a thread performs ``actions`` (each a (delay_s, fn(feed_dir))
    pair, delays counted from that commit) and records when each finished.
    Returns (job, follow's status, commit times, action end times)."""
    feed = tmp_path / "feed"
    generate_transcripts(n_convs=6, mean_turns=4, seed=1, out_path=str(feed))
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        files_per_epoch=1, operators={"tumbling": {"width_s": 3600}},
    ))
    commits: list[float] = []
    commit = job._commit_epoch

    def timed_commit(*args):
        out = commit(*args)
        commits.append(time.time())
        return out

    job._commit_epoch = timed_commit
    done: list[float] = []

    def actor():
        deadline = time.time() + 60
        while not commits and time.time() < deadline:
            time.sleep(0.01)
        t0 = time.time()
        for delay, fn in actions:
            time.sleep(max(0.0, t0 + delay - time.time()))
            fn(str(feed))
            done.append(time.time())

    th = threading.Thread(target=actor)
    th.start()
    try:
        st = job.follow(flush_at_end=False, **follow_kw)
    finally:
        th.join()
    return job, st, commits, done


@requires_inotify
@pytest.mark.parametrize("publish", ["rename", "in_place"])
def test_follow_wakes_on_arrival(ray_session, tmp_path, publish):
    """A shard published 0.5 s into an idle follow commits long before the
    first 5 s timeout, whether renamed in (relay daemon, IN_MOVED_TO) or
    written in place and closed (IN_CLOSE_WRITE)."""
    write = _publish_by_rename if publish == "rename" else pq.write_table
    shard = _late_shard(2)
    job, st, commits, done = _follow(
        tmp_path, [(0.5, lambda d: write(shard, os.path.join(d, "feed-0001.parquet")))],
        idle_limit_s=1.0, **SLOW_POLL,
    )
    assert st["file_cursor"] == 2 and len(commits) == 2
    assert commits[1] - done[0] < 2.0, commits[1] - done[0]


def test_follow_without_watch_falls_back_to_sleep(ray_session, tmp_path, monkeypatch):
    """With no inotify watch the wait is the old sleep, and a late shard is
    still consumed."""
    monkeypatch.setattr(streaming, "_feed_watch", lambda feed_dir: None)
    shard = _late_shard(3)
    job, st, commits, _ = _follow(
        tmp_path,
        [(0.3, lambda d: _publish_by_rename(shard, os.path.join(d, "feed-0001.parquet")))],
        poll_interval_s=0.2, max_poll_interval_s=0.2, idle_limit_s=1.0,
    )
    assert st["file_cursor"] == 2 and len(commits) == 2


@requires_inotify
def test_follow_tmp_stage_wakes_neither_end_nor_spin(ray_session, tmp_path, monkeypatch):
    """``.tmp`` stages closing in the feed dir wake the watch but find
    nothing pending: follow goes back to waiting (it does not end before a
    later real shard arrives) and lists once per wake, not in a spin."""

    def close_tmp(d):
        with open(os.path.join(d, "feed-0001.parquet.tmp"), "wb") as fh:
            fh.write(b"partial")

    shard = _late_shard(4)
    listings = []
    job_pending = StreamingJob._pending_files

    def counted(self):
        listings.append(time.time())
        return job_pending(self)

    monkeypatch.setattr(StreamingJob, "_pending_files", counted)
    job, st, commits, done = _follow(
        tmp_path,
        [(0.3, close_tmp), (0.6, close_tmp), (0.9, close_tmp),
         (1.2, lambda d: _publish_by_rename(shard, os.path.join(d, "feed-0001.parquet")))],
        idle_limit_s=2.0, **SLOW_POLL,
    )
    assert st["file_cursor"] == 2 and len(commits) == 2
    assert commits[1] - done[-1] < 2.0, commits[1] - done[-1]
    # first listing, one per shard epoch (follow + run), one per wake
    # (three .tmp closes, the rename's close and move), the final timeout
    assert len(listings) < 20, len(listings)


def _inotify_fds() -> int:
    n = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            n += os.readlink(f"/proc/self/fd/{fd}") == "anon_inode:inotify"
        except OSError:
            pass
    return n


@requires_inotify
def test_follow_holds_one_watch_fd_and_closes_it(tmp_path):
    """follow holds one inotify fd while it runs and closes it on every
    exit: the normal idle stop and an exception out of the loop."""
    feed = tmp_path / "feed"
    feed.mkdir()
    job = StreamingJob(StreamingConfig(feed_dir=str(feed), out_dir=str(tmp_path / "out")))
    before = _inotify_fds()
    during = []
    real = job._pending_files

    def peek():
        during.append(_inotify_fds())
        return real()

    job._pending_files = peek
    job.follow(poll_interval_s=0.05, max_poll_interval_s=0.1, idle_limit_s=0.3)
    after_first = _inotify_fds()

    def boom():
        raise RuntimeError("listing failed")

    job._pending_files = boom
    with pytest.raises(RuntimeError, match="listing failed"):
        job.follow(poll_interval_s=0.05, idle_limit_s=0.3)
    assert set(during) == {before + 1}
    assert after_first == _inotify_fds() == before


def test_follow_reports_status_once(ray_session, tmp_path):
    """follow computes one status, at the end, however many epochs and
    ``run`` calls it makes: status walks the whole sink tree, so one per
    epoch would grow with history."""
    shard = _late_shard(5)
    feed = tmp_path / "feed"
    generate_transcripts(n_convs=6, mean_turns=4, seed=6, out_path=str(feed), n_shards=2)
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        files_per_epoch=1, operators={"tumbling": {"width_s": 3600}},
    ))
    calls = []
    status = job.status
    job.status = lambda: calls.append(1) or status()

    def writer():
        time.sleep(1.0)
        _publish_by_rename(shard, str(feed / "feed-0002.parquet"))

    th = threading.Thread(target=writer)
    th.start()
    st = job.follow(poll_interval_s=0.1, max_poll_interval_s=0.2, idle_limit_s=2.0)
    th.join()
    assert st["file_cursor"] == 3 and st["flushed"] and st["committed_epochs"] >= 3
    assert len(calls) == 1
