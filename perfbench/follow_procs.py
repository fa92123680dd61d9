"""The two processes beside the engine in the ``follow_freshness`` workload.

``generator``: publishes pre-built shards into the feed directory on a fixed
schedule (open loop), each by one rename, and records how late it ran.

``consumer``: polls a registered ``SinkFollower`` on the ``events`` output
and records when each shard's rows first come back.

Both print ``ready`` once imported, then read the schedule's start time
(``time.time()`` seconds) from stdin, so neither import time nor process
start lands inside the schedule. Each writes one JSON result file.

Run as ``python3 perfbench/follow_procs.py generator|consumer ARGS``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
import time
from contextlib import contextmanager


@contextmanager
def sink_lock(path: str):
    """Exclusive lock shared by the consumer's poll and the job's epoch
    commit. ``SinkFollower.poll`` is not safe beside a commit: during the
    promote renames it can move its cursor past an epoch whose files are
    only partly renamed and never deliver the rest, and beside a compaction
    it can end up straddling a compacted file, after which every poll fails
    (engine bugs, see README.md)."""
    with open(path, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def _start_time() -> float:
    print("ready", flush=True)
    return float(sys.stdin.readline())


def _write_json(path: str, data: dict) -> None:
    with open(path + ".tmp", "w") as fh:
        json.dump(data, fh)
    os.replace(path + ".tmp", path)


def generator(a) -> None:
    names = sorted(os.listdir(a.staging))[: a.shards]
    t_start = _start_time()
    published = []
    for i, name in enumerate(names):
        due = t_start + i / a.rate
        delay = due - time.time()
        if delay > 0:
            time.sleep(delay)
        os.replace(os.path.join(a.staging, name), os.path.join(a.feed_dir, name))
        published.append(time.time())
    _write_json(
        a.result,
        {
            "due": [t_start + i / a.rate for i in range(len(names))],
            "published": published,
        },
    )


def consumer(a) -> None:
    import numpy as np
    import pyarrow.compute as pc

    from check import table_digest  # beside this file; dstream_ray via PYTHONPATH
    from dstream_ray.sinks.parquet_sink import ExactlyOnceParquetSink, SinkFollower

    follower = SinkFollower(ExactlyOnceParquetSink(a.sink_dir), "events", "bench")
    first_seen: dict[int, float] = {}
    rows = 0
    digest = 0
    polls = 0
    poll_s = 0.0
    _start_time()

    def poll_once() -> None:
        nonlocal rows, digest, polls, poll_s
        with sink_lock(a.lock):
            t0 = time.time()
            table = follower.poll()
            t1 = time.time()
        polls += 1
        poll_s += t1 - t0
        if table is None:
            return
        shard = pc.cast(pc.utf8_slice_codeunits(table["text"], 1, 6), "int64")
        for s in np.unique(shard.to_numpy(zero_copy_only=False)):
            first_seen.setdefault(int(s), t1)
        rows += table.num_rows
        digest = (digest + int(table_digest(table)["digest"], 16)) % (1 << 64)

    while not os.path.exists(a.stop):
        poll_once()
        time.sleep(a.interval)
    poll_once()
    _write_json(
        a.result,
        {
            "first_seen": first_seen,
            "rows": rows,
            "digest": f"{digest:016x}",
            "polls": polls,
            "poll_s": poll_s,
        },
    )


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="role", required=True)
    g = sub.add_parser("generator")
    g.add_argument("--staging", required=True)
    g.add_argument("--feed-dir", required=True)
    g.add_argument("--rate", type=float, required=True)
    g.add_argument("--shards", type=int, required=True)
    g.add_argument("--result", required=True)
    c = sub.add_parser("consumer")
    c.add_argument("--sink-dir", required=True)
    c.add_argument("--lock", required=True)
    c.add_argument("--stop", required=True)
    c.add_argument("--interval", type=float, required=True)
    c.add_argument("--result", required=True)
    a = p.parse_args()
    generator(a) if a.role == "generator" else consumer(a)


if __name__ == "__main__":
    main()
