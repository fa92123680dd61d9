"""The three workloads: inputs, engine configuration and one timed
repetition each, driven through the engine's public entry points
(``StreamingJob.run`` / ``follow``, the provider relay daemon, and
``SinkFollower.poll``).

A repetition returns a :class:`Rep`; ``run.py`` turns repetitions into
metrics. Everything a repetition writes lives under the work directory.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import check
import inputs

# the engine's headline operator set (bench.py): day tumbling windows plus
# the fused session window + session-scoped join with a 12 h gap
OPERATORS = {"tumbling": {"width_s": 86_400}, "session_with_join": {"gap_s": 43_200}}

# follow_freshness: a shard whose rows come back later than this after the
# shard was due counts as failed
LATENCY_LIMIT_MS = 2000.0
# follow_freshness: freshness is timed from each shard's due time, so a
# generator that falls behind its schedule would charge its lateness to the
# engine. A repetition whose generator published more than a tenth of its
# shards later than a quarter of the 200 ms shard interval after they were
# due is invalid. A single stall of the host delays one or two shards, and
# the engine with them (one throttled run saw a 165 ms stall; lags are
# otherwise below 25 ms)
GEN_LAG_LIMIT_MS = 50.0


@dataclass
class Rep:
    wall_s: float  # timed wall of the repetition
    busy_s: float  # time spent inside StreamingJob.run calls
    rows: int  # committed events rows
    input_rows: int
    sink_bytes: int
    freshness_ms: list[float]
    shards: int
    failed_shards: int
    problems: list[str]  # from the checks every repetition gets
    plan: list[dict]
    sink_dir: str  # digest-checked by the caller for the run's last repetition
    extra: dict = field(default_factory=dict)


class RssSampler:
    """Peak summed resident set size of this process, the Ray worker
    processes and the provider relay daemon, read from /proc (no psutil).
    Only descendants of this process count, so a Ray process that outlived
    an earlier session, or belongs to another run, is left out."""

    MARKERS = (b"ray::", b"default_worker.py", b"dstream_ray.sources.provider")
    INTERVAL_S = 0.05

    def __init__(self):
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _rss(self, pid: str) -> int:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * self._page

    def sample(self) -> int:
        me = str(os.getpid())
        parent, marked = {}, []
        for pid in os.listdir("/proc"):
            if not pid.isdigit() or pid == me:
                continue
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    parent[pid] = fh.read().rsplit(")", 1)[1].split()[1]
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmd = fh.read()
                if any(m in cmd for m in self.MARKERS):
                    marked.append(pid)
            except OSError:
                continue  # the process ended between listdir and open
        total = self._rss("self")
        for pid in marked:
            up = parent[pid]
            while up in parent:
                up = parent[up]
            if up == me:
                try:
                    total += self._rss(pid)
                except OSError:
                    continue
        return total

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_bytes = max(self.peak_bytes, self.sample())
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _timed_runs(job, clock) -> None:
    """Count the seconds spent inside ``job.run`` (``follow`` calls it too)."""
    inner = job.run
    job.busy_s = 0.0

    def run(**kwargs):
        t0 = time.time()
        try:
            return inner(**kwargs)
        finally:
            job.busy_s += clock.elapsed(t0, time.time())

    job.run = run


def committed_plan(job) -> list[dict]:
    """The epochs a finished job committed, each with the feed files it
    consumed (one feed stream, so files are taken in name order) and the
    time its commit record was written."""
    files = job.discover_files()
    plan, cursor = [], 0
    for e in job.store.committed_epochs():
        m = job.store.manifest(e)
        nxt = int(m["file_cursor"])
        plan.append({
            "epoch": e,
            "files": files[cursor:nxt],
            "flush": bool(m.get("flushed")),
            "committed_at": os.stat(job.store._commit_path(e)).st_mtime,
        })
        cursor = nxt
    return plan


def _sink_bytes(sink_dir: str) -> int:
    return sum(os.path.getsize(p)
               for p in glob.glob(os.path.join(sink_dir, "*", "*", "*.parquet")))


def _events_rows(job) -> int:
    return int(job.status()["cumulative"]["rows_out"].get("events", 0))


def _count_problems(job, reference: dict) -> list[str]:
    """Committed row count of every output against the reference."""
    got = {op: n for op, n in job.status()["cumulative"]["rows_out"].items() if n}
    want = {op: d["rows"] for op, d in reference.items()}
    return [] if got == want else [f"committed rows {got}, want {want}"]


def _closed_loop_freshness(plan: list[dict], due: dict[str, float], clock) -> list[float]:
    """Closed loop: a shard is fresh once its epoch's commit record exists."""
    return [clock.elapsed(due[f], step["committed_at"]) * 1e3
            for step in plan for f in step["files"]]


class Workload:
    name = ""
    open_loop = False  # one repetition spans the run, with a sink consumer
    payload = "canonical"
    num_partitions = 8
    files_per_epoch = 2
    compact_every = 0

    def __init__(self, ctx):
        self.ctx = ctx  # run.Context: seed, seconds, work dirs

    def config(self, feed_dir: str, out_dir: str):
        from dstream_ray.pipelines.streaming import StreamingConfig

        return StreamingConfig(
            feed_dir=feed_dir,
            out_dir=out_dir,
            num_partitions=self.num_partitions,
            files_per_epoch=self.files_per_epoch,
            envelope_payload=self.payload,
            compact_every=self.compact_every,
            operators=OPERATORS,
        )

    def describe(self) -> dict:
        return {
            "num_partitions": self.num_partitions,
            "files_per_epoch": self.files_per_epoch,
            "compact_every": self.compact_every,
            "envelope_payload": self.payload,
            "operators": OPERATORS,
            **self.sizes,
        }

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.ctx.runs, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


class CatchupWindows(Workload):
    """Closed loop, one batch job over a parquet backlog."""

    name = "catchup_windows"
    sizes = {"rows": 1_000_000, "shards": 8}

    def prepare(self) -> dict:
        meta = inputs.catchup_feed(self.ctx.cache, self.ctx.seed, self.sizes["rows"],
                                   self.sizes["shards"])
        meta["reference"] = check.reference(
            meta["feed_dir"] + ".ref.json",
            lambda: check.transcript_feed(meta["feed_dir"]), OPERATORS)
        return meta

    def rep(self, meta: dict, i: int) -> Rep:
        from dstream_ray.pipelines.streaming import StreamingJob

        clock = self.ctx.clock
        job = StreamingJob(self.config(meta["feed_dir"], self.fresh_dir(f"rep{i}")))
        _timed_runs(job, clock)
        job.init()
        t0 = time.time()
        job.run()
        wall = clock.elapsed(t0, time.time())
        plan = committed_plan(job)
        due = {f: t0 for f in job.discover_files()}
        problems = _count_problems(job, meta["reference"])
        return Rep(wall, job.busy_s, _events_rows(job), meta["rows"],
                   _sink_bytes(job.cfg.sink_dir), _closed_loop_freshness(plan, due, clock),
                   meta["shards"], meta["shards"] if problems else 0, problems, plan,
                   job.cfg.sink_dir)


class LiveEnvelopes(Workload):
    """Closed loop: live provider -> byte-relay daemon -> engine."""

    name = "live_envelopes"
    payload = "raw"
    files_per_epoch = 8
    # one malformed line in about seven 25 k-line shards: the scalar fallback
    # parses one shard in seven, near the density of a few malformed lines in
    # a 1 M-line stream cut into 50 k-line shards
    sizes = {"lines": 150_000, "tables": 64, "rows_per_shard": 25_000, "restarts": 4,
             "malformed": 1}

    def prepare(self) -> dict:
        meta = inputs.envelope_corpus(self.ctx.cache, self.ctx.seed, self.sizes["lines"],
                                      n_tables=self.sizes["tables"],
                                      n_restarts=self.sizes["restarts"],
                                      n_malformed=self.sizes["malformed"])
        meta["reference"] = check.reference(
            meta["corpus"] + ".ref.json", lambda: check.envelope_feed(meta["corpus"]),
            OPERATORS)
        return meta

    def relay_argv(self, corpus: str, feed_dir: str) -> list[str]:
        return [sys.executable, "-m", "dstream_ray.sources.provider",
                "--feed-dir", feed_dir, "--fmt", "ndjson",
                "--rows-per-shard", str(self.sizes["rows_per_shard"]),
                "--shard-prefix", "prov", "--", "cat", corpus]

    def rep(self, meta: dict, i: int) -> Rep:
        from dstream_ray.pipelines.streaming import StreamingJob

        work = self.fresh_dir(f"rep{i}")
        feed = os.path.join(work, "feed")
        os.makedirs(feed)
        clock = self.ctx.clock
        job = StreamingJob(self.config(feed, os.path.join(work, "out")))
        _timed_runs(job, clock)
        job.init()
        t0 = time.time()
        relay = subprocess.Popen(self.relay_argv(meta["corpus"], feed), cwd=self.ctx.root,
                                 stdout=subprocess.DEVNULL)
        try:
            # the relay daemon's deployment loop (bench.py): consume what has
            # landed, and once the relay has exited, what it left behind
            while True:
                if job.plan()["pending_files"]:
                    job.run(flush_at_end=False)
                elif relay.poll() is None:
                    time.sleep(0.02)
                elif not job.plan()["pending_files"]:
                    break
            job.run(flush_at_end=True)
            wall = clock.elapsed(t0, time.time())
        finally:
            if relay.poll() is None:
                relay.kill()
            relay.wait()
        problems = [] if relay.returncode == 0 else [f"relay exited {relay.returncode}"]
        problems += _count_problems(job, meta["reference"])
        st = job.status()["cumulative"]
        quarantined = check.read_output(job.cfg.sink_dir, "quarantine")
        got_bad = sorted(quarantined["text"].to_pylist()) if quarantined is not None else []
        if got_bad != sorted(meta["malformed"]):
            problems.append(f"quarantine holds {len(got_bad)} rows, "
                            f"{len(meta['malformed'])} malformed lines were injected")
        dropped = st["rows_in"] - st["rows_out"].get("events", 0) - len(got_bad)
        if dropped != meta["redelivered"]:
            problems.append(f"relay dropped {dropped} rows, "
                            f"{meta['redelivered']} were redelivered")
        plan = committed_plan(job)
        due = {f: os.stat(f).st_mtime for f in job.discover_files()}
        n = len(due)
        return Rep(wall, job.busy_s, _events_rows(job), meta["lines"],
                   _sink_bytes(job.cfg.sink_dir), _closed_loop_freshness(plan, due, clock),
                   n, n if problems else 0, problems, plan, job.cfg.sink_dir,
                   extra={"feed_dir": feed, "corpus": meta["corpus"]})


class FollowFreshness(Workload):
    """Open loop: a generator publishes shards on a schedule while the
    engine follows the feed and a consumer polls the sink."""

    name = "follow_freshness"
    open_loop = True
    num_partitions = 2
    # a deep batch limit lets an epoch absorb the backlog a slow host builds
    files_per_epoch = 16
    compact_every = 8
    sizes = {"rate_per_s": 5.0, "rows_per_shard": 200, "convs": 20_000,
             "consumer_interval_s": 0.05}

    def n_shards(self) -> int:
        return int(self.ctx.seconds * self.sizes["rate_per_s"])

    def prepare(self) -> dict:
        meta = inputs.follow_shards(self.ctx.cache, self.ctx.seed, self.n_shards(),
                                    self.sizes["rows_per_shard"], self.sizes["convs"])
        meta["reference"] = check.reference(
            meta["shard_dir"] + ".ref.json",
            lambda: check.transcript_feed(meta["shard_dir"]), OPERATORS)
        return meta

    def rep(self, meta: dict, i: int) -> Rep:
        from dstream_ray.pipelines.streaming import StreamingJob
        from follow_procs import sink_lock

        work = self.fresh_dir(f"rep{i}")
        feed, staging = os.path.join(work, "feed"), os.path.join(work, "staging")
        shutil.copytree(meta["shard_dir"], staging)
        os.makedirs(feed)
        job = StreamingJob(self.config(feed, os.path.join(work, "out")))
        job.init()
        lock = os.path.join(work, "sink.lock")
        commit = job._commit_epoch

        def locked_commit(*args):
            with sink_lock(lock):
                return commit(*args)

        job._commit_epoch = locked_commit
        clock = self.ctx.clock
        _timed_runs(job, clock)
        procs = os.path.join(self.ctx.bench_dir, "follow_procs.py")
        res_gen = os.path.join(work, "generator.json")
        res_con = os.path.join(work, "consumer.json")
        stop = os.path.join(work, "stop")
        children = [
            subprocess.Popen(
                [sys.executable, procs, "generator", "--staging", staging, "--feed-dir", feed,
                 "--rate", str(self.sizes["rate_per_s"]), "--shards", str(meta["shards"]),
                 "--result", res_gen],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True),
            subprocess.Popen(
                [sys.executable, procs, "consumer", "--sink-dir", job.cfg.sink_dir, "--lock", lock, "--stop", stop,
                 "--interval", str(self.sizes["consumer_interval_s"]), "--result", res_con],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True),
        ]
        try:
            for p in children:
                if p.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"follow helper failed to start: {p.args[2]}")
            t0 = time.time() + 0.2
            for p in children:
                p.stdin.write(f"{t0!r}\n")
                p.stdin.close()
            # a latency-sensitive follower: poll every 50 ms, back off to
            # 200 ms at most, stop once the generator has been quiet for 1 s
            job.follow(poll_interval_s=0.05, max_poll_interval_s=0.2, idle_limit_s=1.0,
                       flush_at_end=False)
            # plain wall: the generator's schedule, not the vCPU, sets it
            wall = time.time() - t0
            # untimed: close every window, let the consumer drain, then
            # compact once more so the sink's size does not depend on where
            # the last periodic compaction happened to fall
            job.run(flush_at_end=True)
            # the flush epoch is in the committed plan the traced run
            # replays, so its run time counts as busy too
            busy = job.busy_s
            with open(stop, "w"):
                pass
            for p in children:
                p.wait(timeout=60)
            job.compact()
        finally:
            for p in children:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        problems = [f"{p.args[2]} exited {p.returncode}" for p in children if p.returncode]
        with open(res_gen) as fh:
            gen = json.load(fh)
        with open(res_con) as fh:
            con = json.load(fh)
        seen = {int(k): v for k, v in con["first_seen"].items()}
        fresh = [clock.elapsed(due, seen[s]) * 1e3 for s, due in enumerate(gen["due"])
                 if s in seen]
        late = sum(1 for f in fresh if f > LATENCY_LIMIT_MS)
        problems += _count_problems(job, meta["reference"])
        want = meta["reference"]["events"]
        if {"rows": con["rows"], "digest": con["digest"]} != want:
            problems.append(f"consumer read rows {con['rows']} digest {con['digest']}, "
                            f"want {want}")
        lags_ms = [clock.elapsed(d, p) * 1e3 for p, d in zip(gen["published"], gen["due"])]
        late_pub = sum(1 for lag in lags_ms if lag > GEN_LAG_LIMIT_MS)
        if late_pub > len(lags_ms) // 10:
            problems.append(f"generator fell behind: {late_pub} of {len(lags_ms)} shards "
                            f"published more than {GEN_LAG_LIMIT_MS:.0f} ms late")
        n = meta["shards"]
        failed = n if problems else (n - len(fresh)) + late
        return Rep(wall, busy, _events_rows(job), meta["rows"], _sink_bytes(job.cfg.sink_dir),
                   fresh, n, failed, problems, committed_plan(job), job.cfg.sink_dir,
                   extra={"feed_dir": feed, "gen_lag_max_ms": max(lags_ms),
                          "gen_late_shards": late_pub, "gen_lag_ms": lags_ms,
                          "consumer_polls": con["polls"], "consumer_poll_s": con["poll_s"]})


WORKLOADS = {w.name: w for w in (CatchupWindows, LiveEnvelopes, FollowFreshness)}
