"""Traced run: a serial, in-process replay of a recorded epoch plan with a
span around every call into a layer's public function.

The untraced run executes on Ray; this replay executes the same engine code
(the split and reduce task bodies, the driver's commit) one call at a time
in this process, so each layer's time can be read off a clock without Ray
scheduling in between. It is also the single-threaded baseline of the job.

Spans are kept in memory as ``[name, start, end, parent, epoch,
partition]`` and written out when the replay ends. A layer's self time is
its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import pyarrow.parquet as pq

# top-level spans whose time the untraced run spends inside StreamingJob.run
ENGINE_ROOTS = ("streaming.plan", "streaming.split", "streaming.reduce", "streaming.commit")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.epoch: int | None = None
        self.partition: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        # per-epoch sum of state snapshot bytes
        self.snapshot_bytes: dict[int, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.epoch, self.partition]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def traced(self, name: str, fn, *, only_under: str | None = None, after=None):
        """``fn`` wrapped in a span; ``after(result, *args)`` records counts."""

        def wrapper(*args, **kwargs):
            if only_under is not None and self.current() != only_under:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args)
            return out

        return wrapper

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, t0, t1, parent, _e, _p in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, *_rest) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)

    def root_time(self, names) -> float:
        return sum(t1 - t0 for name, t0, t1, parent, *_ in self.spans
                   if parent is None and name in names)

    def write(self, path: str) -> None:
        with open(path + ".tmp", "w") as fh:
            for name, t0, t1, parent, epoch, part in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "epoch": epoch, "partition": part}) + "\n")
        os.replace(path + ".tmp", path)


@contextmanager
def _patched(obj, attr: str, value):
    old = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


@contextmanager
def instrument(tr: Tracer, operators):
    """Swap each layer entry point the engine calls for a traced wrapper,
    and put every original back on exit."""
    import dstream_ray.pipelines.streaming as streaming
    import dstream_ray.sources.envelopes as envelopes
    from dstream_ray.sinks.parquet_sink import ExactlyOnceParquetSink, SinkFollower
    from dstream_ray.state.checkpoint import CheckpointStore

    c = tr.counts

    def relay_counts(out, table, *_):
        c["relay_in"] += table.num_rows
        c["relay_out"] += out[0].num_rows

    def kernel_counts(out, *_):
        res = out[0]
        c["windows_rows_out"] += sum(t.num_rows for t in res.values()) \
            if isinstance(res, dict) else res.num_rows

    def staged_counts(final, *_):
        c["sink_files"] += 1
        c["sink_bytes"] += os.path.getsize(final + ".tmp")

    def snapshot_counts(path, _store, epoch, *_):
        tr.snapshot_bytes[epoch] += os.path.getsize(path)

    def fallback(*args, **kwargs):
        # the raw envelope parser drops to this scalar path on a bad line
        if tr.current() == "sources.read":
            c["fallback_shards"] += 1
        return parse_lines(*args, **kwargs)

    parse_lines = envelopes.parse_envelope_lines
    kernels = dict(streaming.WINDOW_OPERATORS)
    patches = [
        (streaming, "partition_ids", tr.traced("common.partition_ids", streaming.partition_ids)),
        (streaming, "read_envelope_file", tr.traced("sources.read", streaming.read_envelope_file)),
        (pq, "read_table", tr.traced("sources.read", pq.read_table, only_under="streaming.split")),
        (envelopes, "parse_envelope_lines", fallback),
        (streaming, "relay_kernel", tr.traced("capture.relay", streaming.relay_kernel,
                                              after=relay_counts)),
        (streaming, "to_residual_rows", tr.traced("windows.residual", streaming.to_residual_rows)),
        (CheckpointStore, "load_state", tr.traced("state.load", CheckpointStore.load_state)),
        (CheckpointStore, "save_state", tr.traced("state.save", CheckpointStore.save_state,
                                                  after=snapshot_counts)),
        (CheckpointStore, "commit", tr.traced("state.commit", CheckpointStore.commit)),
        (CheckpointStore, "prune_state", tr.traced("state.prune", CheckpointStore.prune_state)),
        (CheckpointStore, "last_committed",
         tr.traced("state.last_committed", CheckpointStore.last_committed)),
        (ExactlyOnceParquetSink, "write_staged",
         tr.traced("sinks.write_staged", ExactlyOnceParquetSink.write_staged,
                   after=staged_counts)),
        (ExactlyOnceParquetSink, "promote",
         staticmethod(tr.traced("sinks.promote", ExactlyOnceParquetSink.promote))),
        (ExactlyOnceParquetSink, "compact",
         tr.traced("sinks.compact", ExactlyOnceParquetSink.compact)),
        (SinkFollower, "poll", tr.traced("sinks.follower_poll", SinkFollower.poll)),
    ]
    with ExitStack() as stack:
        for obj, attr, value in patches:
            stack.enter_context(_patched(obj, attr, value))
        for op in operators:
            streaming.WINDOW_OPERATORS[op] = tr.traced(
                f"windows.{op}", kernels[op], after=kernel_counts)
        try:
            yield
        finally:
            streaming.WINDOW_OPERATORS.update(kernels)


def replay(tr: Tracer, cfg, plan: list[dict], *, poll_events: bool) -> float:
    """Run ``plan`` (``[{"epoch", "files", "flush"}, ...]``) serially into
    ``cfg.out_dir``; returns the wall seconds. With ``poll_events`` a
    registered follower polls ``events`` after every epoch, like the
    consumer of the open-loop workload."""
    from dstream_ray.pipelines.streaming import StreamingJob, _reduce_task, _split_task
    from dstream_ray.sinks.parquet_sink import SinkFollower

    split, reduce = _split_task._function, _reduce_task._function
    job = StreamingJob(cfg)
    job.init()
    follower = SinkFollower(job.sink, "events", "bench") if poll_events else None
    P = cfg.num_partitions
    part_rows = [0] * P
    t0 = time.perf_counter()
    for step in plan:
        epoch, files, flush = step["epoch"], step["files"], step["flush"]
        tr.epoch = epoch
        with tr.span("streaming.plan"):
            job.plan()
            last = job.store.last_committed()
            prev = last[1]["partitions"] if last else {}
        slices = []
        for f in files:
            with tr.span("streaming.split"):
                slices.append(split(f, P, cfg.envelope_payload))
        for parts in slices:
            for k, t in enumerate(parts):
                if t.num_rows:
                    part_rows[k] += t.num_rows
                    tr.counts["exchange_slices"] += 1
                    tr.counts["exchange_bytes"] += t.nbytes
        results = []
        for k in range(P):
            if not files and str(k) not in prev:
                continue
            tr.partition = k
            with tr.span("streaming.reduce"):
                results.append(reduce(k, epoch, prev.get(str(k), {}), cfg, flush,
                                      *[parts[k] for parts in slices]))
        tr.partition = None
        with tr.span("streaming.commit"):
            job._commit_epoch(epoch, files, results, flush, time.time())
        if follower is not None:
            follower.poll()
    wall = time.perf_counter() - t0
    mean = sum(part_rows) / P
    tr.counts["partition_rows_skew"] = max(part_rows) / mean if mean else 1.0
    return wall
