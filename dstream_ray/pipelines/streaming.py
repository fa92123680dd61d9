"""The streaming epoch runner — capture → window/join → exactly-once sink.

Maps dstream's full pipeline lifecycle (run/init/plan/status/destroy,
/root/reference/pkg/executor/providers.go:30-108 and cmd/*.go) onto a
micro-batched Ray Data job:

driver epoch loop (≙ the CDC poll loop, docs/plugins/mssql-ingester.md:23-73):
  1. discover feed parquet shards beyond the committed file cursor
  2. shard readers hash rows by FNV-1a(conv_id) — zero-copy Arrow
  3. ONE hash exchange: split tasks (``num_returns=P``) route each shard's
     rows to per-partition reduce tasks running :func:`process_partition` —
     relay dedup + every enabled window/join kernel, with carried state from
     the checkpoint store
  4. tasks stage sink files (.tmp); the driver promotes (atomic renames) and
     THEN commits the epoch manifest — publish-then-advance-checkpoint,
     crash anywhere ⇒ replay is idempotent
  5. at end of feed, a flush epoch closes all open windows (raw
     ``@ray.remote`` tasks per partition — Ray Data can't express a
     zero-input keyed stage)

Scale notes: the number of partitions P is the unit of parallelism AND state
ownership (pick P ≈ 2-4× cluster cores; each partition's epoch slice must fit
a worker's heap). State/checkpoint/sink directories must be on storage every
node can reach. The only all-to-all exchange per epoch is the single
``groupby``; everything else is map-only.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import select
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from dstream_ray import register_pickle_by_value
from dstream_ray.common import partition_ids
from dstream_ray.sinks.parquet_sink import ExactlyOnceParquetSink
from dstream_ray.sinks.registry import create_sink
from dstream_ray.sources.envelopes import read_envelope_file

# feed-contract column set, captured at module scope so the pickled-by-value
# split task carries it (a runtime `import dstream_ray...` inside a remote
# task breaks workers whose cwd is not the repo)
from dstream_ray.sources.transcripts import TRANSCRIPT_SCHEMA as _FEED_SCHEMA

_FEED_COLUMNS = tuple(_FEED_SCHEMA.names)
from dstream_ray.stages.capture import (
    content_dedup_bloom_kernel,
    content_dedup_kernel,
    neardup_kernel,
    relay_kernel,
    scrub_kernel,
    upsert_kernel,
    index_kernel,
)
from dstream_ray.stages.cep import cep_kernel
from dstream_ray.stages.enrich import enrich_kernel
from dstream_ray.stages.windows import (
    absence_kernel,
    anomaly_kernel,
    interval_join_kernel,
    outer_join_kernel,
    running_kernel,
    sessionize_kernel,
    tumbling_counts_kernel,
    tumbling_hll_kernel,
    tumbling_qsketch_kernel,
    tumbling_sample_kernel,
    tumbling_topk_kernel,
    tumbling_distinct_kernel,
    tumbling_global_kernel,
    tumbling_quantile_kernel,
    session_join_kernel,
    session_kernel,
    session_with_join_kernel,
    sliding_kernel,
    to_residual_rows,
    tumbling_kernel,
)
from dstream_ray.state.checkpoint import CheckpointStore

register_pickle_by_value()

# operator registry: name -> (kernel, default params); the user-extension
# surface (≙ provider protocol, readme.md:297-306) is "add a kernel fn with
# the (new_rows, state, *, flush, **params) contract and register it".
WINDOW_OPERATORS = {
    "tumbling": tumbling_kernel,
    # windowed count(DISTINCT value_col) per (conv, tumbling window)
    "tumbling_distinct": tumbling_distinct_kernel,
    # windowed exact discrete quantiles of turn length (quantile_disc)
    "tumbling_quantile": tumbling_quantile_kernel,
    # GLOBAL (cross-conv) tumbling aggregate — per-partition mergeable partials
    "tumbling_global": tumbling_global_kernel,
    # GLOBAL windowed value counts — exact top-k / heavy-hitters feeder
    "tumbling_counts": tumbling_counts_kernel,
    # GLOBAL windowed approximate distinct convs: mergeable HLL register
    # partials per partition (consumer merges by elementwise max)
    "tumbling_hll": tumbling_hll_kernel,
    # GLOBAL windowed approx-quantile sketch: mergeable log-bucket histogram
    # partials per partition (consumer merges by summing counts)
    "tumbling_qsketch": tumbling_qsketch_kernel,
    # GLOBAL windowed uniform sample: bottom-k hash-priority rows per
    # window (<= k rows state; exact semilattice merge across partitions)
    "tumbling_sample": tumbling_sample_kernel,
    # GLOBAL windowed heavy hitters: Misra-Gries summary, state bounded by
    # `capacity` per window regardless of vocabulary (exact when under it)
    "tumbling_topk": tumbling_topk_kernel,
    "sliding": sliding_kernel,
    "session": session_kernel,
    "session_join": session_join_kernel,
    # fused variant: emits BOTH 'session' and 'session_join' outputs from
    # one prep/sort and one shared residual (use instead of the two above)
    "session_with_join": session_with_join_kernel,
    # streaming CEP: pattern-match counts per conv, state = unmatched suffix
    "cep": cep_kernel,
    # interval join: user/tool turn pairs within +/- within_s, emitted on
    # later-side arrival (Flink interval-join shape)
    "interval_join": interval_join_kernel,
    # CEP absence/timeout: user turns with NO tool response within within_s
    "absence": absence_kernel,
    # LEFT-OUTER interval join: matched pairs on tool arrival + one -1
    # sentinel row per user turn whose forward window times out
    "outer_join": outer_join_kernel,
    # per-row running window functions (ROW_NUMBER / LAG / running SUM per
    # conv): one output row per input row, O(1) state per conv
    "running": running_kernel,
    # per-row online z-score anomaly flag (integer-exact prefix mean/var
    # test): one output row per input row, O(1) (n, S, SS) state per conv
    "anomaly": anomaly_kernel,
    # gaps-and-islands: per-row session-id + in-session position labels
    "sessionize": sessionize_kernel,
    # per-conv streaming content dedup (suppress repeated identical texts)
    "dedup": content_dedup_kernel,
    # bounded-memory variant: generational Bloom filter, fixed bytes/partition
    "dedup_bloom": content_dedup_bloom_kernel,
    # streaming NEAR-dup suppression: banded-MinHash bucket collision vs
    # the partition's history (generational eviction via rotate_rows)
    "neardup": neardup_kernel,
    # ingest-time PII masking (stateless 1:1 RE2 scrub + match counts):
    # raw PII never reaches anything downstream of the sink
    "scrub": scrub_kernel,
    # ingest-time inverted-index maintenance (CDC -> search-index sink):
    # each turn emits its postings rows; the committed sink IS the index
    "index": index_kernel,
    # stream-table dimension enrichment (broadcast-small-side left join)
    "enrich": enrich_kernel,
    # latest-per-key compaction (Kafka compacted-topic / CDC materialization)
    "upsert": upsert_kernel,
}

# kernels that consume the FULL relay output (text and all) instead of the
# projected residual layout — content-identity / passthrough operators need
# the payload bytes
RAW_INPUT_OPERATORS = {"dedup", "dedup_bloom", "neardup", "scrub", "enrich", "upsert", "index"}


@dataclass
class StreamingConfig:
    feed_dir: str
    out_dir: str
    num_partitions: int = 8
    files_per_epoch: int = 2
    # operator name -> params; "events" (the relay/capture sink) is always on
    operators: dict[str, dict[str, Any]] = field(
        default_factory=lambda: {
            "tumbling": {"width_s": 3600},
            "session": {"gap_s": 1800},
            "session_join": {"gap_s": 1800},
        }
    )
    allowed_lateness_s: int | None = None  # None = late routing off
    sink_kind: str = "parquet"  # see sinks.registry (parquet | ndjson | console)
    lease_ttl_s: float = 120.0  # multi-job exclusivity (≙ blob-lease lock)
    # Watermark-based relay-cursor eviction (None = keep every conv's
    # delivery cursor forever): bounds state on unbounded streams; must
    # exceed the upstream's max replay lag (see relay_kernel docstring).
    relay_evict_idle_s: int | None = None
    # NDJSON envelope payload mode: "canonical" re-serializes data with
    # sorted keys (the envelope→transcript adapter), "raw" keeps the line
    # bytes verbatim and parses metadata with Arrow's C++ NDJSON reader —
    # the reference's byte-relay semantics and ~5x the parse bandwidth.
    envelope_payload: str = "canonical"
    # State-snapshot retention: resume only ever reads the LATEST committed
    # snapshot, so 2 bounds checkpoint disk in follow mode; raise it (or set
    # None = keep all) to enable rewind() to older epochs — each retained
    # epoch is one full keyed-state snapshot (the Kafka/Flink
    # retained-checkpoints trade-off).
    state_keep_last: int | None = 2
    # CPUs reserved per split/reduce task. The kernels are memory-bandwidth
    # heavy; on wide nodes reserving >1 cpu per task caps concurrent memory
    # streams (and leaves headroom for raylet/driver) — size
    # (num_cpus_total / task_num_cpus) to the node.
    task_num_cpus: int = 1
    # Steady-state small-file control: > 0 compacts the sink after every
    # N committed epochs (inside the run lease; staged .tmp files of
    # pipelined later epochs are untouched). Collapses rewind granularity
    # to compaction boundaries — rewind() refuses mid-range targets.
    compact_every: int = 0

    @property
    def sink_dir(self) -> str:
        return os.path.join(self.out_dir, "sink")

    @property
    def checkpoint_dir(self) -> str:
        return os.path.join(self.out_dir, "checkpoints")


def process_partition(
    table: pa.Table | None,
    partition: int,
    epoch: int,
    prev: dict[str, Any],
    cfg: StreamingConfig,
    *,
    flush: bool,
) -> dict:
    """Run one partition's epoch: relay + all window kernels + staged sink
    writes + state snapshot. Pure w.r.t. (input rows, prev state) — replaying
    it produces identical emissions, which is what makes the two-phase commit
    exactly-once observable."""
    _t0 = time.time()
    store = CheckpointStore(cfg.checkpoint_dir)
    sink = create_sink(cfg.sink_kind, cfg.sink_dir)
    state = store.load_state(prev.get("state_path"))
    prev_wm = int(prev.get("watermark_us", -1))
    rows_in = table.num_rows if table is not None else 0
    if table is None:
        table = _empty_feed_table()

    files: list[str] = []
    rows_out: dict[str, int] = {}

    # malformed-row quarantine (≙ the E2E harness's JSON-validity filter,
    # /root/reference/test/e2e/e2e_test.go:229-233): rows violating the feed
    # contract go to a 'quarantine' sink instead of poisoning state.
    if table.num_rows:
        valid = pc.and_(
            pc.and_(
                pc.is_valid(table["conv_id"]), pc.is_valid(table["ts"])
            ),
            pc.and_(
                pc.is_valid(table["turn_idx"]),
                pc.greater_equal(
                    pc.fill_null(table["turn_idx"], -1), 0
                ),
            ),
        )
        valid_np = valid.to_numpy(zero_copy_only=False)
        if not valid_np.all():
            bad = table.filter(pc.invert(valid))
            files.append(
                sink.write_staged(bad, "quarantine", partition, epoch, prev_wm)
            )
            rows_out["quarantine"] = bad.num_rows
            table = table.filter(valid)

    # late-data policy (north-star W7): a row is late if its ts is behind the
    # partition watermark by more than the allowance — route to 'late' sink,
    # exclude from windows. (The reference never produces late data: LSN
    # order is total per table; here cross-conv ts skew can.)
    # Lateness is defined ONLY for ts-ordered feeds: an envelope (cdc_key)
    # feed's ts restarts at TS_BASE per shard and is rewritten by the relay
    # to a per-conv synthetic clock that is not comparable to the partition
    # watermark — filtering against it would wholesale-drop every
    # continuation shard. Reject the combination loudly.
    if cfg.allowed_lateness_s is not None and "cdc_key" in table.column_names:
        raise ValueError(
            "allowed_lateness_s is incompatible with envelope (cdc_key) feeds: "
            "the relay rewrites ts on a per-conv synthetic clock, so event-time "
            "lateness against the partition watermark is undefined; run envelope "
            "feeds with allowed_lateness_s=None (the (LSN, Seq) cursor already "
            "deduplicates replays)"
        )
    late_table = None
    if cfg.allowed_lateness_s is not None and table.num_rows:
        ts_us = table["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        late_mask = ts_us < (prev_wm - cfg.allowed_lateness_s * 1_000_000)
        if late_mask.any():
            late_table = table.filter(pa.array(late_mask))
            table = table.filter(pa.array(~late_mask))

    # 1. relay/capture: dedup vs positional cursor, stable order, byte-equal text
    relay_out, relay_state = relay_kernel(
        table,
        state.get("relay", {}),
        flush=flush,
        evict_idle_us=(
            cfg.relay_evict_idle_s * 1_000_000
            if cfg.relay_evict_idle_s is not None
            else None
        ),
    )
    state["relay"] = relay_state
    wm = prev_wm
    if relay_out.num_rows:
        wm = max(
            prev_wm,
            int(
                np.max(
                    relay_out["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
                )
            ),
        )

    if relay_out.num_rows:
        files.append(
            sink.write_staged(
                relay_out.drop_columns(["partition_id"])
                if "partition_id" in relay_out.column_names
                else relay_out,
                "events",
                partition,
                epoch,
                wm,
            )
        )
    rows_out["events"] = relay_out.num_rows
    if late_table is not None and late_table.num_rows:
        files.append(sink.write_staged(late_table, "late", partition, epoch, wm))
        rows_out["late"] = late_table.num_rows

    # 2. window/join kernels over the residual row layout
    residual_rows = to_residual_rows(relay_out)
    raw_rows = (
        relay_out.drop_columns(["partition_id"])
        if "partition_id" in relay_out.column_names
        else relay_out
    )
    for op_name, params in cfg.operators.items():
        # "kernel" or "kernel@variant": the part before '@' picks the kernel,
        # the full key names the sink output + state slot — so several
        # instances of one kernel (e.g. hourly AND daily tumbling) coexist
        op_base = op_name.split("@")[0]
        kernel = WINDOW_OPERATORS[op_base]
        call_params = dict(params)
        if call_params.get("closure") == "watermark":
            # the engine supplies the partition watermark for textbook
            # event-time closure (idle convs' windows emit too)
            call_params["watermark_us"] = wm
        if "evict_idle_s" in call_params:
            # idle-key eviction (e.g. CEP early emission): the kernel needs
            # the partition watermark to judge idleness
            call_params["evict_idle_us"] = int(call_params.pop("evict_idle_s")) * 1_000_000
            call_params["watermark_us"] = wm
        op_input = raw_rows if op_base in RAW_INPUT_OPERATORS else residual_rows
        out, op_state = kernel(op_input, state.get(op_name, {}), flush=flush, **call_params)
        state[op_name] = op_state
        # a kernel may emit one table or a dict of output-name -> table
        outputs = out if isinstance(out, dict) else {op_name: out}
        for out_name, tbl_out in outputs.items():
            if tbl_out.num_rows:
                files.append(sink.write_staged(tbl_out, out_name, partition, epoch, wm))
            rows_out[out_name] = tbl_out.num_rows

    state_path = store.save_state(epoch, partition, state)
    return {
        "task_s": round(time.time() - _t0, 4),
        "partition": partition,
        "epoch": epoch,
        "rows_in": rows_in,
        "watermark_us": wm,
        "state_path": state_path,
        "files": files,
        "rows_out": rows_out,
    }


def _empty_feed_table() -> pa.Table:
    return pa.table(
        {
            "conv_id": pa.array([], type=pa.string()),
            "turn_idx": pa.array([], type=pa.int32()),
            "role": pa.array([], type=pa.string()),
            "text": pa.array([], type=pa.string()),
            "tool": pa.array([], type=pa.string()),
            "ts": pa.array([], type=pa.timestamp("us")),
        }
    )


def _conform_feed(t: pa.Table, shard: str) -> pa.Table:
    """Normalize a parquet shard to the transcript contract.

    Producer schema EVOLUTION is tolerated: extra metadata columns are
    dropped and column order is made canonical (per-epoch sink files must
    share one schema for readers to concat). Type DRIFT is cast back when the
    cast is lossless (``safe=True``), e.g. pandas' default ``timestamp[ns]``
    for ``ts``. A shard MISSING contract columns, or one whose column does
    not cast safely, fails loudly naming the shard."""
    missing = [c for c in _FEED_COLUMNS if c not in t.column_names]
    if missing:
        raise ValueError(
            f"feed shard {shard} is missing transcript contract columns "
            f"{missing} (have {t.column_names})"
        )
    t = t.select(list(_FEED_COLUMNS))
    for i, want in enumerate(_FEED_SCHEMA):
        got = t.schema.field(i).type
        if got != want.type:
            try:
                col = t.column(i).cast(want.type, safe=True)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
                raise ValueError(
                    f"feed shard {shard} column {want.name!r} has type {got}, "
                    f"expected {want.type}, and does not cast safely: {e}"
                ) from None
            t = t.set_column(i, want.name, col)
    return t


# --- explicit hash exchange (the epoch's single shuffle) -------------------
#
# Why raw Ray tasks and not Dataset.groupby here: the streaming epoch needs
# (a) reduce parallelism == num_partitions regardless of input block count,
# (b) stable partition->task ownership for the keyed state store, and
# (c) no per-epoch boundary re-sampling. Ray Data's sort-based groupby
# couples reduce width to block count and resamples every epoch — measured
# 3-15x slowdowns on micro-batches (see BASELINE.md). The batch query
# surface still uses Dataset groupby; this exchange is the streaming
# scale path (SURVEY.md §7.3).


@ray.remote
def _split_task(path: str, num_partitions: int, envelope_payload: str = "canonical") -> tuple:
    """Map side: read one feed shard, hash-split by conv_id into P tables.

    Returned as P separate objects (num_returns=P) so each reduce task pulls
    only its slice — the object-store analog of a network exchange."""
    if path.endswith((".ndjson", ".jsonl")):
        # dstream wire format: JSON-line envelopes (readme.md:250-272);
        # carries its own (lsn, seq) cursor columns — no projection here
        t = read_envelope_file(path, payload=envelope_payload)
    else:
        import pyarrow.parquet as pq

        t = pq.read_table(path)
        if not t.schema.equals(_FEED_SCHEMA):
            t = _conform_feed(t, os.path.basename(path))
    if t.num_rows == 0:
        # empty shard (producer rotation with no traffic): P empty slices
        return tuple([t.slice(0, 0)] * num_partitions)
    pid = partition_ids(t["conv_id"], num_partitions)
    # the narrowest dtype that holds every id gets numpy's radix sort for
    # 8/16-bit keys; a stable sort of equal keys is the same permutation
    order = np.argsort(pid.astype(np.min_scalar_type(num_partitions - 1)), kind="stable")
    t2 = t.take(pa.array(order))
    pid_s = pid[order]
    starts = np.flatnonzero(np.r_[True, pid_s[1:] != pid_s[:-1]])
    ends = np.r_[starts[1:], len(pid_s)]
    out = [t.slice(0, 0)] * num_partitions
    for s, e in zip(starts, ends):
        out[int(pid_s[s])] = t2.slice(s, e - s)
    return tuple(out)


@ray.remote
def _first_ref(parts: tuple):
    """Unwrap the single-partition case (num_returns=1 returns the tuple)."""
    return parts[0]


@ray.remote
def _reduce_task(partition, epoch, prev, cfg, flush, *parts):
    parts = [p for p in parts if p.num_rows]
    table = pa.concat_tables(parts) if parts else None
    return process_partition(table, partition, epoch, prev, cfg, flush=flush)


# --- feed arrival watch ----------------------------------------------------
#
# follow() waits for shards on a Linux inotify watch of the feed directory
# (≙ the reference's blocking line read of the provider's stdout,
# providers.go:234-261) instead of sleeping out its backoff interval. A shard
# renamed in (IN_MOVED_TO) or written in place and closed (IN_CLOSE_WRITE)
# wakes it; IN_CREATE is not watched, since it would wake a read of a
# half-written in-place parquet. inotify sees only writes made through this
# host's kernel, so the backoff interval remains the ceiling on how long any
# other arrival (a writer on another NFS host) waits.
_IN_CLOSE_WRITE = 0x08
_IN_MOVED_TO = 0x80


class _FeedWatch:
    def __init__(self, fd: int):
        self.fd = fd
        # poll, not select: a high fd number cannot break it
        self._poll = select.poll()
        self._poll.register(fd, select.POLLIN)

    def drain(self) -> None:
        """Discard queued events without blocking."""
        try:
            while os.read(self.fd, 65536):
                pass
        except BlockingIOError:
            pass

    def wait(self, timeout_s: float) -> bool:
        """Block until an event is queued or ``timeout_s`` passes; True on
        an event."""
        return bool(self._poll.poll(timeout_s * 1e3))

    def close(self) -> None:
        os.close(self.fd)


def _feed_watch(feed_dir: str) -> _FeedWatch | None:
    """An inotify watch on ``feed_dir``, or None where there can be none:
    a non-Linux host, fd or watch limits, a feed dir that does not exist."""
    try:
        libc = ctypes.CDLL(None)
        init1, add_watch = libc.inotify_init1, libc.inotify_add_watch
    except (OSError, AttributeError):
        return None
    init1.argtypes, init1.restype = [ctypes.c_int], ctypes.c_int
    add_watch.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_uint32]
    add_watch.restype = ctypes.c_int
    fd = init1(os.O_NONBLOCK | os.O_CLOEXEC)  # IN_NONBLOCK | IN_CLOEXEC
    if fd < 0:
        return None
    if add_watch(fd, os.fsencode(feed_dir), _IN_MOVED_TO | _IN_CLOSE_WRITE) < 0:
        os.close(fd)
        return None
    return _FeedWatch(fd)


class StreamingJob:
    """Driver facade with dstream's lifecycle verbs
    (cmd/init.go, cmd/plan.go, cmd/status.go, cmd/destroy.go analogs)."""

    def __init__(self, cfg: StreamingConfig):
        self.cfg = cfg
        self.store = CheckpointStore(cfg.checkpoint_dir)
        self.sink = ExactlyOnceParquetSink(cfg.sink_dir)

    # -- lifecycle verbs ---------------------------------------------------
    def init(self) -> dict:
        self.store.init()
        self.sink.init()
        return {"status": "ready", "out_dir": self.cfg.out_dir}

    def plan(self) -> dict:
        pending = self._pending_files()
        return {"pending_files": pending, "file_cursor": self._file_cursor()}

    def status(self) -> dict:
        last = self.store.last_committed()
        if last is None:
            return {"committed_epochs": 0}
        epoch, manifest = last
        parts = manifest.get("partitions", {})
        cumulative_out: dict[str, int] = {}
        for p in parts.values():
            for op, n in p.get("rows_out_total", {}).items():
                cumulative_out[op] = cumulative_out.get(op, 0) + n
        # sink health: live/dead file counts per op (compaction pressure)
        # and registered consumer cursors (compaction merge boundaries)
        from dstream_ray.sinks.parquet_sink import live_files

        sink_files: dict[str, dict] = {}
        consumers: dict[str, dict] = {}
        if os.path.isdir(self.cfg.sink_dir):
            for op in sorted(os.listdir(self.cfg.sink_dir)):
                opdir = os.path.join(self.cfg.sink_dir, op)
                if op.startswith("_") or not os.path.isdir(opdir):
                    continue
                found = [
                    os.path.join(dp, f)
                    for dp, _dirs, files in os.walk(opdir)
                    for f in files if f.endswith(".parquet")
                ]
                n_live = len(live_files(sorted(found)))
                sink_files[op] = {"live": n_live, "dead": len(found) - n_live}
                cur = self.sink.consumer_cursors(op)
                if cur:
                    consumers[op] = cur
        return {
            "committed_epochs": epoch + 1,
            "file_cursor": manifest["file_cursor"],
            "streams": manifest.get("streams", {}),  # per-producer cursors
            "flushed": manifest.get("flushed", False),
            "totals": manifest.get("totals", {}),  # LAST epoch only
            "cumulative": {
                "rows_in": sum(p.get("rows_in_total", 0) for p in parts.values()),
                "rows_out": cumulative_out,
            },
            "partitions": len(parts),
            "sink_files": sink_files,
            "consumers": consumers,
        }

    def destroy(self) -> dict:
        self.store.destroy()
        self.sink.destroy()
        import shutil

        shutil.rmtree(self.cfg.out_dir, ignore_errors=True)
        return {"status": "destroyed"}

    # -- feed discovery ----------------------------------------------------
    def discover_files(self) -> list[str]:
        out = []
        for pat in ("*.parquet", "*.ndjson", "*.jsonl"):
            out.extend(glob.glob(os.path.join(self.cfg.feed_dir, pat)))
        return sorted(out)

    def _file_cursor(self) -> int:
        last = self.store.last_committed()
        return int(last[1]["file_cursor"]) if last else 0

    @staticmethod
    def _shard_stream(path: str) -> str:
        """A shard's STREAM = its filename prefix before the trailing
        ``-<digits>.<ext>`` (one stream per relay daemon / producer). Files
        without the pattern form the '' stream."""
        import re as _re

        m = _re.match(r"(.+)-\d+\.\w+$", os.path.basename(path))
        return m.group(1) if m else ""

    def _pending_files(self) -> list[str]:
        """Files not yet consumed, tracked BY NAME **per stream**.

        Each stream (shard-name prefix ≙ one relay daemon) carries its own
        (count, high-water name) cursor in the manifest, so N parallel
        producers can interleave arrivals freely — only ordering WITHIN a
        stream is a contract. A shard sorting at or before its stream's
        committed high-water name (out-of-order producer, retry, backfill)
        makes the per-stream count check fail loudly instead of silently
        dropping data. A brand-new stream appearing mid-job is simply all
        pending."""
        all_files = self.discover_files()
        last = self.store.last_committed()
        if last is None:
            return all_files
        streams = last[1].get("streams")
        if not streams:
            # manifest predates per-stream cursors (or consumed nothing):
            # apply the legacy single-cursor rule so an old checkpoint never
            # silently re-ingests consumed shards
            cursor = int(last[1].get("file_cursor", 0))
            last_file = last[1].get("last_file")
            if cursor == 0 or last_file is None:
                return all_files
            consumed = [f for f in all_files if os.path.basename(f) <= last_file]
            if len(consumed) != cursor:
                raise RuntimeError(
                    f"feed shard ordering violation: {len(consumed)} files sort "
                    f"at or before committed high-water shard {last_file!r} but "
                    f"{cursor} were consumed (legacy single-stream manifest)"
                )
            return all_files[cursor:]
        by_stream: dict[str, list[str]] = {}
        for f in all_files:
            by_stream.setdefault(self._shard_stream(f), []).append(f)
        pending: list[str] = []
        for prefix, files in by_stream.items():
            st = streams.get(prefix)
            if st is None:
                pending.extend(files)
                continue
            consumed = [f for f in files if os.path.basename(f) <= st["last"]]
            if len(consumed) != st["count"]:
                raise RuntimeError(
                    f"feed shard ordering violation in stream {prefix!r}: "
                    f"{len(consumed)} files sort at or before the committed "
                    f"high-water shard {st['last']!r} but {st['count']} were "
                    "consumed — a shard was added out of lexicographic order "
                    "within its stream (backfill or non-monotonic producer); "
                    "re-shard it after the high-water name or destroy() and "
                    "re-run"
                )
            pending.extend(f for f in files if os.path.basename(f) > st["last"])
        return sorted(pending)

    def _prev_partitions(self) -> dict[str, dict]:
        last = self.store.last_committed()
        return dict(last[1].get("partitions", {})) if last else {}

    # -- epoch execution ---------------------------------------------------
    def _submit_epoch(
        self,
        epoch: int,
        files: list[str],
        prev_by_part: dict,
        flush: bool,
    ) -> list:
        """Submit one epoch's map/reduce DAG; returns P reduce refs.

        ``prev_by_part[k]`` may be a plain dict (from a committed manifest)
        or an ObjectRef of the previous epoch's reduce result for partition k
        — Ray derefs it at the task boundary, which is what lets consecutive
        epochs pipeline per-partition without a global barrier."""
        cfg = self.cfg
        P = cfg.num_partitions
        ncpu = cfg.task_num_cpus
        reduce = _reduce_task.options(num_cpus=ncpu)

        if files:
            if P == 1:
                read = _split_task.options(num_returns=1, num_cpus=ncpu)
                slices = [
                    [_first_ref.remote(read.remote(f, 1, cfg.envelope_payload))]
                    for f in files
                ]
            else:
                split = _split_task.options(num_returns=P, num_cpus=ncpu)
                slices = [split.remote(f, P, cfg.envelope_payload) for f in files]
            return [
                reduce.remote(
                    k, epoch, prev_by_part.get(k, {}), cfg, flush,
                    *[parts[k] for parts in slices],
                )
                for k in range(P)
            ]
        # flush-only epoch
        return [
            reduce.remote(k, epoch, prev_by_part[k], cfg, True)
            for k in range(P)
            if k in prev_by_part
        ]

    def _commit_epoch(
        self, epoch: int, files: list[str], results: list[dict], flush: bool, t0: float
    ) -> dict:
        """Phase 2: promote staged sink files, then atomically commit the
        manifest (publish-then-advance)."""
        n_files = len(files)
        last = self.store.last_committed()
        prev_last_file = last[1].get("last_file") if last else None
        last_file = max(
            [os.path.basename(f) for f in files] + ([prev_last_file] if prev_last_file else [])
        ) if (files or prev_last_file) else None
        # per-stream cursors (one per shard-name prefix ≙ producer)
        streams = {
            k: dict(v) for k, v in (last[1].get("streams", {}) if last else {}).items()
        }
        for f in files:
            st = streams.setdefault(self._shard_stream(f), {"count": 0, "last": ""})
            st["count"] += 1
            st["last"] = max(st["last"], os.path.basename(f))
        prev_parts = self._prev_partitions()
        all_files = [f for r in results for f in r["files"] if f]
        ExactlyOnceParquetSink.promote(all_files)

        partitions = dict(prev_parts)  # carry forward idle partitions
        for r in results:
            k = str(r["partition"])
            prev = prev_parts.get(k, {})
            cum_in = int(prev.get("rows_in_total", 0)) + r["rows_in"]
            cum_out = dict(prev.get("rows_out_total", {}))
            for op, n in r["rows_out"].items():
                cum_out[op] = cum_out.get(op, 0) + n
            partitions[k] = {
                "watermark_us": r["watermark_us"],
                "state_path": r["state_path"],
                "rows_in_total": cum_in,
                "rows_out_total": cum_out,
                "last_epoch": epoch,
                "files": r["files"],  # lineage: this epoch's sink files
            }
        task_times = [r.get("task_s", 0.0) for r in results]
        totals = {
            "rows_in": sum(r["rows_in"] for r in results),
            "task_s_mean": round(sum(task_times) / max(1, len(task_times)), 4),
            "task_s_max": round(max(task_times, default=0.0), 4),
            "rows_out": {
                op: sum(r["rows_out"].get(op, 0) for r in results)
                for op in set().union(*(r["rows_out"] for r in results))
            }
            if results
            else {},
        }
        manifest = {
            "epoch": epoch,
            # config fingerprint: resuming with a different partition count
            # or operator set against existing keyed state is undefined —
            # validated on resume (see _run_locked)
            "config": {
                "num_partitions": self.cfg.num_partitions,
                "operators": self.cfg.operators,
            },
            "file_cursor": self._file_cursor() + n_files,
            "last_file": last_file,
            "streams": streams,
            "flushed": flush,
            "wall_s": round(time.time() - t0, 3),
            "partitions": partitions,
            "totals": totals,
        }
        self.store.commit(epoch, manifest)
        # bound checkpoint disk: only the latest committed snapshot is ever
        # read on RESUME (older epochs' state is pure growth in follow mode);
        # retention beyond 2 exists solely to give rewind() targets
        if self.cfg.state_keep_last is not None:
            self.store.prune_state(keep_last=max(2, self.cfg.state_keep_last))
        # steady-state small-file control (under the caller's run lease):
        # only COMMITTED files are merged — pipelined later epochs are
        # still .tmp stages, which compact_dir never touches
        if self.cfg.compact_every and (epoch + 1) % self.cfg.compact_every == 0:
            self.sink.compact()
        return manifest

    def run_epoch(self, files: list[str], *, flush: bool = False) -> dict:
        """One micro-batch synchronously: submit, wait, two-phase commit."""
        last = self.store.last_committed()
        epoch = (last[0] + 1) if last else 0
        prev = {int(k): v for k, v in self._prev_partitions().items()}
        t0 = time.time()
        results = ray.get(self._submit_epoch(epoch, files, prev, flush))
        return self._commit_epoch(epoch, files, results, flush, t0)

    def follow(
        self,
        *,
        poll_interval_s: float = 0.2,
        max_poll_interval_s: float = 5.0,
        idle_limit_s: float | None = 10.0,
        flush_at_end: bool = True,
    ) -> dict:
        """Tail the feed directory like the CDC poll loop: process new shard
        files as they appear, and return one ``status()`` at the end.

        Between listings it waits on an inotify watch of the feed dir, so a
        shard renamed in, or written in place and closed, wakes it at once.
        The wait times out after ``poll_interval_s``, doubling while idle up
        to ``max_poll_interval_s`` and resetting on data (≙ the reference's
        exponential-backoff poller, docs/capability-inventory.md:135). The
        watch sees local writes only: a feed on shared storage written from
        another host is found at the next timeout, so keep
        ``max_poll_interval_s`` low there. Where inotify is unavailable the
        wait is a plain sleep. Stops after ``idle_limit_s`` of continuous
        idleness (None = forever, until externally stopped)."""
        self.init()
        interval = poll_interval_s
        idle_since = None
        watch = _feed_watch(self.cfg.feed_dir)
        try:
            while True:
                if watch is not None:
                    # events for shards the last epoch already consumed
                    # must not cost another listing
                    watch.drain()
                if self._pending_files():
                    self.run(flush_at_end=False, report=False)
                    interval = poll_interval_s  # reset backoff on data
                    idle_since = None
                    continue
                now = time.time()
                idle_since = idle_since or now
                if idle_limit_s is not None and now - idle_since >= idle_limit_s:
                    break
                if watch is None:
                    time.sleep(interval)
                elif watch.wait(interval):
                    # an arrival, or a wake with nothing pending (a .tmp
                    # stage closing): list again, still idle since before
                    continue
                interval = min(interval * 2, max_poll_interval_s)
        finally:
            if watch is not None:
                watch.close()
        if flush_at_end:
            last = self.store.last_committed()
            if last and not last[1].get("flushed", False):
                # route through run() so the trailing flush also commits
                # under the job lease (ADVICE: it used to commit lock-free)
                self.run(flush_at_end=True, report=False)
        return self.status()

    def run(
        self,
        *,
        max_epochs: int | None = None,
        flush_at_end: bool = True,
        pipeline_depth: int = 3,
        report: bool = True,
    ) -> dict | None:
        """Consume the feed from the committed cursor to its current end and
        return ``status()`` (None with ``report=False``: ``follow`` calls
        this once per arrival and reports once, at the end).

        Epochs are pipelined: each partition's epoch-(e+1) reduce task is
        chained on its epoch-e reduce result (an ObjectRef), so compute for
        later epochs overlaps earlier epochs' stragglers. Manifests still
        commit strictly in epoch order (at most ``pipeline_depth`` epochs are
        in flight, bounding object-store pressure); crash anywhere ⇒ resume
        from the last committed manifest replays idempotently."""
        self.init()
        # multi-job exclusivity: one driver per checkpoint tree (≙ the
        # reference's blob-lease lock with stale-break,
        # docs/capability-inventory.md:186-192). A second concurrent driver
        # skips instead of corrupting the commit sequence.
        from dstream_ray.state.lease import Lease

        lease = Lease(
            os.path.join(self.cfg.out_dir, "_locks", "job.lock"),
            owner=f"pid-{os.getpid()}",
            ttl_s=self.cfg.lease_ttl_s,
        )
        if not lease.acquire():
            return {"status": "skipped", "reason": "lease held by another job"}
        try:
            self._run_locked(
                max_epochs=max_epochs,
                flush_at_end=flush_at_end,
                pipeline_depth=pipeline_depth,
                lease=lease,
            )
            return self.status() if report else None
        finally:
            lease.release()

    def rewind(self, to_epoch: int) -> dict:
        """Reset the job to the state as of committed epoch ``to_epoch``
        (inclusive) — the Kafka seek / Flink restore-from-retained-checkpoint
        analog, and the "resume mid-stream from ANY checkpoint" half of the
        north-star contract (the reference's resume-from-offset behavior,
        docs/capability-inventory.md:179-199, generalized from "latest" to
        "any retained").

        Requires the target epoch's keyed-state snapshot to still be on disk
        (``StreamingConfig.state_keep_last``; default 2 keeps only the last
        two — raise it or set None before the run for deeper rewinds), and
        refuses a target below any registered consumer's cursor.

        Un-commits every epoch after the target, newest first, then sweeps
        the sink tree of every file whose name carries a newer epoch
        (epoch is part of the sink naming contract). Crash-safe: commit
        records are removed BEFORE files, so ``last_committed`` only moves
        backwards and a half-deleted epoch is either re-swept by retrying
        rewind() or regenerated byte-identically by the replay. After rewind,
        ``run()`` re-consumes the feed from the target's per-stream cursors
        and — same input shards, same state — emits the same rows
        exactly-once."""
        from dstream_ray.state.lease import Lease

        lease = Lease(
            os.path.join(self.cfg.out_dir, "_locks", "job.lock"),
            owner=f"rewind-pid-{os.getpid()}",
            ttl_s=self.cfg.lease_ttl_s,
        )
        if not lease.acquire():
            raise RuntimeError("rewind refused: job lease held by a running driver")
        try:
            epochs = self.store.committed_epochs()
            if not epochs:
                raise ValueError("rewind: no committed epochs")
            if to_epoch not in epochs:
                raise ValueError(
                    f"rewind: epoch {to_epoch} is not committed (have {epochs[0]}..{epochs[-1]})"
                )
            target = self.store.manifest(to_epoch)
            # the target snapshot must be complete before we destroy anything
            missing = [
                k
                for k, p in target.get("partitions", {}).items()
                if p.get("state_path") and not os.path.exists(p["state_path"])
            ]
            if missing:
                raise ValueError(
                    f"rewind: state snapshot for epoch {to_epoch} was pruned for "
                    f"partitions {sorted(missing)}; run with state_keep_last high "
                    "enough (or None) to retain rewind targets"
                )
            # compaction collapses per-epoch files into range files; a
            # rewind INTO a compacted range cannot split the merged rows
            # back out — refuse loudly before destroying anything (rewind
            # to a boundary at/above every compact range stays fine)
            blocking = self._compact_ranges_crossing(to_epoch)
            if blocking:
                raise ValueError(
                    f"rewind: target epoch {to_epoch} falls inside compacted "
                    f"range(s) {blocking}; compact() merges epochs — rewind "
                    "only to an epoch >= every compact range's upper bound, "
                    "or compact only after the rewind horizon you need"
                )
            # a follower past the target has already delivered rows of the
            # epochs a rewind would replay; its cursor cannot move back, so
            # the replayed epochs would be skipped — refuse before destroying
            ahead = [
                f"consumer '{name}' on op '{op}' at cursor {cur}"
                for name, ops in self.sink.consumers().items()
                for op, cur in sorted(ops.items())
                if cur > to_epoch
            ]
            if ahead:
                raise ValueError(
                    f"rewind: target epoch {to_epoch} is below registered "
                    f"consumer cursor(s): {'; '.join(ahead)} — those rows are "
                    "already delivered and the replay would be skipped; rewind "
                    "only to an epoch >= every consumer cursor"
                )
            undone = [e for e in epochs if e > to_epoch]
            for e in sorted(undone, reverse=True):
                self.store.delete_commit(e)
                self.store.delete_state_epoch(e)
            # sweep sink files by the epoch embedded in their name rather
            # than by manifest lineage: this also clears orphans from a
            # crashed rewind (commit record already gone) and staged .tmp
            # files from a crashed epoch, making rewind retry-healing
            removed_files = self._sweep_sink_after(to_epoch)
            return {
                "status": "rewound",
                "to_epoch": to_epoch,
                "epochs_undone": len(undone),
                "sink_files_removed": removed_files,
                "file_cursor": int(target["file_cursor"]),
            }
        finally:
            lease.release()

    def _compact_ranges_crossing(self, to_epoch: int) -> list:
        """Compact files whose epoch range STRADDLES ``to_epoch`` (lo <=
        target < hi): these would have to be split by a rewind. Ranges
        entirely above the target are simply swept; entirely at-or-below
        are untouched history."""
        from dstream_ray.sinks.parquet_sink import parse_epoch_range

        hits = []
        for dirpath, _dirs, files in os.walk(self.cfg.sink_dir):
            for f in files:
                r = parse_epoch_range(f)
                if r and r[0] < r[1] and r[0] <= to_epoch < r[1]:
                    hits.append((os.path.relpath(os.path.join(dirpath, f),
                                                 self.cfg.sink_dir)))
        return sorted(hits)

    def _sweep_sink_after(self, to_epoch: int) -> int:
        """Remove every sink file (and .tmp stage) whose name carries an
        epoch — or compact range — newer than ``to_epoch``. Epoch is part
        of the sink-file naming contract (`ExactlyOnceParquetSink.file_path`
        / `compact_dir`), so this needs no manifest lineage and heals
        orphans from crashed epochs/rewinds. Compact ranges straddling the
        target were refused upfront, so here a compact file is either
        fully-history (kept) or fully-undone (removed)."""
        from dstream_ray.sinks.parquet_sink import parse_epoch_range

        removed = 0
        for dirpath, _dirs, files in os.walk(self.cfg.sink_dir):
            for f in files:
                r = parse_epoch_range(f[:-4] if f.endswith(".tmp") else f)
                if r and r[0] > to_epoch:
                    try:
                        os.remove(os.path.join(dirpath, f))
                        removed += 1
                    except FileNotFoundError:
                        pass
        return removed

    def compact(self) -> dict:
        """Collapse the sink's per-epoch files to one file per
        ``(op, partition)`` — the small-file compaction a long-running
        ingest needs (a follow-mode job commits one file per partition per
        epoch; at 100 TB that's millions of small parquet files without
        this verb). Exactly-once and crash-safety are carried by the sink's
        range-naming + liveness rule (`parquet_sink.live_files`): readers
        at ANY instant — including between a crashed compaction's promote
        and cleanup — see each row exactly once, and re-running compact()
        heals leftovers. Takes the job lease (never concurrent with run());
        rewind() afterwards is limited to epochs at/above each compact
        range's upper bound and refuses loudly otherwise."""
        from dstream_ray.state.lease import Lease

        lease = Lease(
            os.path.join(self.cfg.out_dir, "_locks", "job.lock"),
            owner=f"compact-pid-{os.getpid()}",
            ttl_s=self.cfg.lease_ttl_s,
        )
        if not lease.acquire():
            raise RuntimeError("compact refused: job lease held by a running driver")
        try:
            stats = self.sink.compact()
            stats["status"] = "compacted"
            return stats
        finally:
            lease.release()

    def rescale(self, new_num_partitions: int) -> dict:
        """Resume-at-a-different-parallelism (the Flink savepoint-rescale
        analog): re-key the LAST COMMITTED snapshot's per-partition operator
        state to ``new_num_partitions`` and commit it as a new epoch whose
        manifest carries the new partition count. A subsequent ``run()``
        with ``cfg.num_partitions == new_num_partitions`` then resumes
        mid-stream with identical semantics — conv-keyed state moves whole
        conversations to their new hash owners, global window partials merge
        into partition 0 (the consumer-side merge makes placement
        irrelevant), and monotone counters broadcast their max. See
        ``dstream_ray.state.rescale`` for the per-class rules; operators
        whose state is not key-separable (the generational Bloom dedup)
        are rejected loudly.

        Watermarks: every new partition starts at the MIN of the old
        watermarks — conservative for the late-data filter (never drops a
        row the old layout would have kept) and safe for watermark-closure
        kernels (their per-conv/ per-window emission cursors travel with
        the state, so nothing re-emits)."""
        from dstream_ray.state.lease import Lease
        from dstream_ray.state.rescale import rescale_states

        lease = Lease(
            os.path.join(self.cfg.out_dir, "_locks", "job.lock"),
            owner=f"rescale-pid-{os.getpid()}",
            ttl_s=self.cfg.lease_ttl_s,
        )
        if not lease.acquire():
            raise RuntimeError("rescale refused: job lease held by a running driver")
        try:
            last = self.store.last_committed()
            if last is None:
                raise ValueError("rescale: no committed checkpoint to rescale")
            epoch, man = last
            old_p = int(man["config"]["num_partitions"])
            new_p = int(new_num_partitions)
            if new_p < 1:
                raise ValueError("rescale: need at least one partition")
            if new_p == old_p:
                return {"status": "noop", "num_partitions": old_p}
            states = [
                self.store.load_state(man["partitions"][str(k)]["state_path"])
                for k in range(old_p)
            ]
            new_states = rescale_states(states, new_p)
            new_epoch = epoch + 1
            wm_min = min(int(p["watermark_us"]) for p in man["partitions"].values())
            rows_in_tot = sum(
                int(p.get("rows_in_total", 0)) for p in man["partitions"].values()
            )
            rows_out_tot: dict = {}
            for p in man["partitions"].values():
                for op, n in p.get("rows_out_total", {}).items():
                    rows_out_tot[op] = rows_out_tot.get(op, 0) + int(n)
            partitions = {}
            for k in range(new_p):
                partitions[str(k)] = {
                    "watermark_us": wm_min,
                    "state_path": self.store.save_state(new_epoch, k, new_states[k]),
                    # cumulative metrics are job-level; carry the totals on
                    # partition 0 so manifest sums stay consistent
                    "rows_in_total": rows_in_tot if k == 0 else 0,
                    "rows_out_total": rows_out_tot if k == 0 else {},
                    "last_epoch": new_epoch,
                    "files": [],
                }
            manifest = dict(man)
            manifest.update(
                {
                    "epoch": new_epoch,
                    "config": {
                        "num_partitions": new_p,
                        "operators": man["config"]["operators"],
                    },
                    "partitions": partitions,
                    "rescaled_from": old_p,
                    "wall_s": 0.0,
                    "totals": {
                        "rows_in": 0,
                        "rows_out": {},
                        "task_s_mean": 0.0,
                        "task_s_max": 0.0,
                    },
                }
            )
            self.store.commit(new_epoch, manifest)
            return {
                "status": "rescaled",
                "epoch": new_epoch,
                "from_partitions": old_p,
                "to_partitions": new_p,
            }
        finally:
            lease.release()

    def _run_locked(
        self,
        *,
        max_epochs: int | None,
        flush_at_end: bool,
        pipeline_depth: int,
        lease=None,
    ) -> None:
        self.store.gc_uncommitted()
        last_commit = self.store.last_committed()
        if last_commit is not None:
            prev_cfg = last_commit[1].get("config")
            if prev_cfg is not None:
                if prev_cfg["num_partitions"] != self.cfg.num_partitions:
                    raise ValueError(
                        "resume with a different num_partitions "
                        f"({prev_cfg['num_partitions']} -> {self.cfg.num_partitions}) "
                        "would orphan keyed state; destroy() the job or keep P fixed"
                    )
                if prev_cfg["operators"] != self.cfg.operators:
                    raise ValueError(
                        "resume with a different operator set/params "
                        f"({prev_cfg['operators']} -> {self.cfg.operators}) "
                        "is undefined mid-stream; destroy() the job first"
                    )
        pending = self._pending_files()
        fpe = self.cfg.files_per_epoch
        batches = [pending[i : i + fpe] for i in range(0, len(pending), fpe)]
        consumed_all = True
        if max_epochs is not None and len(batches) > max_epochs:
            batches = batches[:max_epochs]
            consumed_all = False
        last = self.store.last_committed()
        next_epoch = (last[0] + 1) if last else 0
        prev_by_part: dict = {int(k): v for k, v in self._prev_partitions().items()}

        do_flush = flush_at_end and consumed_all
        if batches:
            plan = [(next_epoch + i, b, False) for i, b in enumerate(batches)]
            if do_flush:
                # fold the flush into the last data epoch
                e, b, _ = plan[-1]
                plan[-1] = (e, b, True)
        elif do_flush and prev_by_part and not (last and last[1].get("flushed", False)):
            plan = [(next_epoch, [], True)]
        else:
            plan = []

        # commit strictly in epoch order, at most pipeline_depth epochs in
        # flight. A crash loses only uncommitted epochs: the next run replays
        # them from the last committed manifest, and since process_partition
        # is pure in (rows, prev state) the replay restages identical files.
        inflight: list[tuple[int, list[str], bool, float, list]] = []
        i = 0
        while i < len(plan) or inflight:
            while i < len(plan) and len(inflight) < pipeline_depth:
                epoch, files, flush = plan[i]
                refs = self._submit_epoch(epoch, files, prev_by_part, flush)
                # chain: the next epoch's prev for partition k is this ref
                if files:
                    prev_by_part = dict(enumerate(refs))
                inflight.append((epoch, files, flush, time.time(), refs))
                i += 1
            e0, f0, fl0, t0, r0 = inflight.pop(0)
            self._commit_epoch(e0, f0, ray.get(r0), fl0, t0)
            # keep the lease fresh across long runs: without renewal any run
            # > ttl looked stale and a second driver could break the lock
            # mid-commit-sequence
            if lease is not None:
                lease.renew()


def main(argv=None):  # pragma: no cover - CLI drive path
    import argparse

    p = argparse.ArgumentParser(description="dstream_ray streaming epoch runner")
    p.add_argument(
        "verb",
        choices=["run", "init", "plan", "status", "destroy", "rewind", "rescale", "compact"],
    )
    p.add_argument("--feed-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--partitions", type=int, default=8)
    p.add_argument("--files-per-epoch", type=int, default=2)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--to-epoch", type=int, default=None, help="rewind target epoch")
    p.add_argument(
        "--state-keep-last", type=int, default=2,
        help="retained state snapshots (0 = keep all, enabling deep rewind)",
    )
    args = p.parse_args(argv)
    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        rd.DataContext.get_current().enable_progress_bars = False
    job = StreamingJob(
        StreamingConfig(
            feed_dir=args.feed_dir,
            out_dir=args.out_dir,
            num_partitions=args.partitions,
            files_per_epoch=args.files_per_epoch,
            state_keep_last=(args.state_keep_last or None),
        )
    )
    if args.verb == "run":
        out = job.run(max_epochs=args.max_epochs)
    elif args.verb == "rewind":
        if args.to_epoch is None:
            p.error("rewind requires --to-epoch")
        out = job.rewind(args.to_epoch)
    elif args.verb == "rescale":
        # --partitions names the TARGET count; the checkpoint manifest
        # carries the current one
        out = job.rescale(args.partitions)
    else:
        out = getattr(job, args.verb)()
    print(json.dumps(out, indent=1, default=str))
    ray.shutdown()


if __name__ == "__main__":  # pragma: no cover
    main()
