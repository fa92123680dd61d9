"""Live provider-binary source tests: the reference's handshake failure
matrix (handshake_test.go:18-122) + the counter-demo E2E through the full
engine (readme.md:16-51)."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from dstream_ray.sources.provider import (
    EnvelopeBridge,
    ProviderError,
    ProviderProcess,
    provider_to_feed,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "provider_fixture.py")


def spawn(behavior: str, config=None, **kw) -> ProviderProcess:
    return ProviderProcess(
        [sys.executable, FIXTURE],
        config or {},
        env={"TEST_PROVIDER_BEHAVIOR": behavior},
        **kw,
    )


def test_handshake_ready_and_stream():
    p = spawn("counter", {"limit": 5})
    lines = list(p.lines())
    assert len(lines) == 5
    assert json.loads(lines[0])["data"]["value"] == 0
    p.check_stream_ok()


def test_handshake_error_reports_message_and_stderr():
    with pytest.raises(ProviderError, match="connectionString is required"):
        spawn("error")


def test_handshake_crash_detected_immediately():
    import time

    t0 = time.time()
    with pytest.raises(ProviderError, match="crashed during startup|closed stdout"):
        spawn("crash", ready_timeout_s=30.0)
    assert time.time() - t0 < 5  # exit detection, not the 30s timeout


def test_handshake_hang_times_out():
    with pytest.raises(ProviderError, match="timed out waiting for ready"):
        spawn("hang", ready_timeout_s=0.5)


def test_handshake_crash_with_stderr_context():
    with pytest.raises(ProviderError, match="FATAL: out of memory"):
        spawn("crash_with_stderr")


def test_legacy_provider_first_line_is_data():
    p = spawn("legacy")
    lines = list(p.lines())
    assert len(lines) == 2  # first (non-handshake) line forwarded as data
    assert json.loads(lines[0])["metadata"]["TableName"] == "legacy"
    p.check_stream_ok()


def test_ready_then_crash_raises_midstream():
    p = spawn("ready_then_crash")
    lines = list(p.lines())
    assert len(lines) == 2
    with pytest.raises(ProviderError, match="exited with code 1"):
        p.check_stream_ok()


def test_sigterm_graceful_stop():
    p = spawn("counter", {"limit": 10**9})
    # provider is mid-emission; SIGTERM must stop it within the grace window
    rc = p.stop(grace_s=5.0)
    assert rc is not None


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_relay_daemon_imports_only_the_standard_library():
    """The relay daemon moves bytes; it must not pay for importing Ray,
    pandas, numpy or pyarrow before it relays its first line."""
    heavy = ("ray", "ray.data", "pandas", "numpy", "pyarrow")
    r = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; import dstream_ray.sources.provider; "
         f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"],
        cwd=REPO, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert json.loads(r.stdout) == []


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_stop_kills_provider_that_ignores_sigterm():
    """stop() sends SIGTERM, waits out the grace period, then SIGKILLs a
    provider that is still running (providers.go:440-487)."""
    p = spawn("ignore_sigterm")
    t0 = time.monotonic()
    rc = p.stop(grace_s=1.0)
    assert time.monotonic() - t0 >= 1.0
    assert rc == -signal.SIGKILL
    assert not _alive(p.proc.pid)


def test_relay_daemon_sigterm_stops_its_provider(tmp_path):
    """SIGTERM to the relay daemon stops its provider through
    ProviderProcess.stop instead of orphaning it."""
    pidfile = tmp_path / "provider.pid"
    cmd = ["sh", "-c", f"echo $$ > {pidfile}; echo '{{\"status\":\"ready\"}}'; "
           "exec sleep 600"]
    relay = subprocess.Popen(
        [sys.executable, "-m", "dstream_ray.sources.provider",
         "--feed-dir", str(tmp_path / "feed"), "--", *cmd],
        cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    pid = None
    try:
        deadline = time.time() + 30
        while pid is None and time.time() < deadline:
            if pidfile.exists() and pidfile.read_text().strip():
                pid = int(pidfile.read_text())
            else:
                time.sleep(0.05)
        assert pid is not None and _alive(pid)
        relay.send_signal(signal.SIGTERM)
        rc = relay.wait(timeout=10)
        # sleep exits on the forwarded SIGTERM, well inside the grace period
        assert not _alive(pid), "the relay left its provider running"
        assert rc == 128 + signal.SIGTERM, relay.stderr.read()[-2000:]
    finally:
        if relay.poll() is None:
            relay.kill()
            relay.wait()
        if pid is not None and _alive(pid):
            os.kill(pid, signal.SIGKILL)
        relay.stderr.close()


def test_payload_fidelity_through_bridge():
    """Echo-style fidelity: tricky payloads survive byte-stable through the
    envelope bridge (sorted-key canonical serialization both sides)."""
    payloads = [
        {"unicode": "héllo ☃ 日本語", "nested": {"a": [1, 2, {"b": None}]}},
        {"empty": {}, "big": 2**53 - 1, "neg": -1.5},
        {"quotes": 'she said "hi"', "newline": "a\nb", "tab": "a\tb"},
    ]
    lines = [
        json.dumps({"data": d, "metadata": {"TableName": "t", "OperationType": "u"}})
        for d in payloads
    ]
    out = EnvelopeBridge().to_table(lines)
    got = [json.loads(t) for t in out["text"].to_pylist()]
    assert got == payloads


def test_bridge_turn_idx_monotone_across_shards():
    b = EnvelopeBridge()
    mk = lambda v: json.dumps(
        {"data": {"v": v}, "metadata": {"TableName": "t", "OperationType": "i"}}
    )
    t1 = b.to_table([mk(0), mk(1)])
    t2 = b.to_table([mk(2), mk(3)])
    assert t1["turn_idx"].to_pylist() == [0, 1]
    assert t2["turn_idx"].to_pylist() == [2, 3]  # continues, never restarts


def test_provider_feeds_follow_mode_live(ray_session, tmp_path):
    """Live tail: a provider writes shards WHILE the engine's follow() poll
    loop consumes them — the full CDC loop (spawn -> handshake -> relay ->
    shard -> poll -> window -> exactly-once sink) with no pre-staged feed."""
    import threading

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    feed = str(tmp_path / "feed")
    os.makedirs(feed)

    def produce():
        p = spawn("counter", {"limit": 30, "tables": ["persons"]})
        provider_to_feed(p, feed, rows_per_shard=10)

    t = threading.Thread(target=produce)
    t.start()
    cfg = StreamingConfig(
        feed_dir=feed,
        out_dir=str(tmp_path / "out"),
        num_partitions=2,
        files_per_epoch=1,
        operators={"tumbling": {"width_s": 3600}},
    )
    job = StreamingJob(cfg)
    status = job.follow(poll_interval_s=0.1, idle_limit_s=3.0)
    t.join()
    # late-arriving shards after the first idle window: one more follow pass
    status = job.follow(poll_interval_s=0.1, idle_limit_s=2.0)
    events = job.sink.read_op("events").to_pandas()
    assert len(events) == 30
    assert sorted(events["turn_idx"]) == list(range(30))
    assert status["flushed"]


def test_counter_provider_e2e_through_engine(ray_session, tmp_path):
    """The reference's counter demo end-to-end: live child process ->
    handshake -> stdout envelopes -> feed shards -> full streaming engine
    (relay + session windows + exactly-once sink)."""
    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    feed = str(tmp_path / "feed")
    p = spawn("counter", {"limit": 40, "tables": ["persons", "cars"]})
    shards = provider_to_feed(p, feed, rows_per_shard=16)
    assert len(shards) == 5  # 80 envelopes / 16

    cfg = StreamingConfig(
        feed_dir=feed,
        out_dir=str(tmp_path / "out"),
        num_partitions=2,
        files_per_epoch=2,
        operators={"tumbling": {"width_s": 3600}},
    )
    job = StreamingJob(cfg)
    job.run()
    events = job.sink.read_op("events").to_pandas()
    # exactly-once relay: every (table, turn) exactly once, payloads intact
    assert len(events) == 80
    assert set(events["conv_id"]) == {"persons", "cars"}
    per = events.groupby("conv_id")["turn_idx"].agg(["count", "min", "max"])
    assert (per["count"] == 40).all() and (per["min"] == 0).all() and (per["max"] == 39).all()
    v0 = json.loads(events.sort_values(["conv_id", "turn_idx"]).iloc[0]["text"])
    assert v0 == {"payload": "c-0", "value": 0}


def test_raw_relay_mode_through_engine(ray_session, tmp_path):
    """fmt='ndjson' byte relay: raw shards, engine-side parallel parsing,
    dual-cursor dedup across shards — same delivered rows as parquet mode."""
    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    feed = str(tmp_path / "feed")
    p = spawn("counter", {"limit": 40, "tables": ["persons", "cars"]})
    shards = provider_to_feed(p, feed, rows_per_shard=16, fmt="ndjson")
    # rows_per_shard is a lower bound (chunk-granularity sharding): a fast
    # provider whose whole stream fits one buffered chunk yields one shard
    assert all(s.endswith(".ndjson") for s in shards) and 1 <= len(shards) <= 5
    cfg = StreamingConfig(
        feed_dir=feed, out_dir=str(tmp_path / "out"), num_partitions=2,
        files_per_epoch=2, operators={},
    )
    job = StreamingJob(cfg)
    job.run()
    events = job.sink.read_op("events").to_pandas()
    assert len(events) == 80
    per = events.groupby("conv_id")["turn_idx"].agg(["count", "min", "max"])
    assert (per["count"] == 40).all() and (per["min"] == 0).all() and (per["max"] == 39).all()
