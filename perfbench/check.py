"""Output check: committed sink output against a single-pass reference.

The reference runs the same kernels the engine runs, in this process, over
the whole input at once with ``flush=True``. Multi-epoch output must equal
it (the engine's kernel-purity contract), so each output is compared by row
count and by an order-independent digest: the wrapping uint64 sum of one
hash per row. Row order differs between the two sides (partitions, epochs,
compaction) and is not part of the contract.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# the reference parses an envelope corpus in chunks of about this size
CHUNK_BYTES = 1 << 20


def table_digest(table: pa.Table | None) -> dict:
    """``{"rows": n, "digest": hex}``; columns are taken in name order and
    timestamps as int64, so the digest does not depend on column order."""
    if table is None or table.num_rows == 0:
        return {"rows": 0, "digest": "0" * 16}
    cols = {}
    for name in sorted(table.column_names):
        col = table[name]
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        cols[name] = col.to_pandas()
    h = pd.util.hash_pandas_object(pd.DataFrame(cols), index=False).to_numpy()
    return {"rows": table.num_rows, "digest": f"{int(h.sum(dtype=np.uint64)):016x}"}


def read_output(sink_dir: str, op: str) -> pa.Table | None:
    """Every live committed file of one sink output (the engine's own
    liveness rule, so a compacted tree reads the same as an uncompacted
    one). Raises on an unreadable file; :func:`compare` reports that."""
    from dstream_ray.sinks.parquet_sink import ExactlyOnceParquetSink

    return ExactlyOnceParquetSink(sink_dir).read_op(op)


def compare(sink_dir: str, reference: dict) -> list[str]:
    """Mismatch messages (empty = correct) for every output in
    ``reference``, plus any output the sink has that the reference lacks."""
    problems = []
    present = {
        d for d in (os.listdir(sink_dir) if os.path.isdir(sink_dir) else [])
        if not d.startswith("_")
    }
    for op, want in reference.items():
        try:
            got = table_digest(read_output(sink_dir, op))
        except (OSError, pa.ArrowException) as exc:
            problems.append(f"{op}: unreadable sink file: {exc}")
            continue
        if got != want:
            problems.append(f"{op}: got {got}, want {want}")
    for op in sorted(present - set(reference)):
        problems.append(f"{op}: output not in the reference")
    return problems


def _kernel_outputs(feed: pa.Table, operators: dict) -> dict[str, pa.Table]:
    """Single pass of the engine's per-partition pipeline over ``feed``:
    quarantine filter, relay, then every window kernel with flush=True."""
    from dstream_ray.pipelines.streaming import WINDOW_OPERATORS
    from dstream_ray.stages.capture import relay_kernel
    from dstream_ray.stages.windows import to_residual_rows

    out: dict[str, pa.Table] = {}
    valid = pc.and_(
        pc.and_(pc.is_valid(feed["conv_id"]), pc.is_valid(feed["ts"])),
        pc.greater_equal(pc.fill_null(feed["turn_idx"], -1), 0),
    )
    if not pc.all(valid).as_py():
        out["quarantine"] = feed.filter(pc.invert(valid))
        feed = feed.filter(valid)
    events, _ = relay_kernel(feed, {}, flush=True)
    out["events"] = events
    residual = to_residual_rows(events)
    for op, params in operators.items():
        res, _ = WINDOW_OPERATORS[op](residual, {}, flush=True, **params)
        out.update(res if isinstance(res, dict) else {op: res})
    return {k: v for k, v in out.items() if v.num_rows}


def reference(cache_path: str, load_feed, operators: dict) -> dict:
    """Digest of every output, computed once and cached at ``cache_path``.
    ``load_feed()`` returns the whole input as one feed table."""
    if os.path.exists(cache_path):
        with open(cache_path) as fh:
            return json.load(fh)
    ref = {op: table_digest(t) for op, t in _kernel_outputs(load_feed(), operators).items()}
    tmp = cache_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ref, fh)
    os.replace(tmp, cache_path)
    return ref


def transcript_feed(feed_dir: str) -> pa.Table:
    files = sorted(f for f in os.listdir(feed_dir) if f.endswith(".parquet"))
    return pa.concat_tables([pq.read_table(os.path.join(feed_dir, f)) for f in files])


def envelope_feed(corpus: str) -> pa.Table:
    """The corpus parsed the way the split tasks parse shards, in chunks
    cut at line ends (the relay renumbers turns and times per table, so
    chunk boundaries do not change its output), which confines the slow
    scalar fallback to the chunks holding a malformed line."""
    from dstream_ray.sources.envelopes import parse_envelope_bytes_raw

    with open(corpus, "rb") as fh:
        raw = fh.read()
    parts, start = [], 0
    while start < len(raw):
        end = raw.find(b"\n", min(len(raw), start + CHUNK_BYTES) - 1)
        end = len(raw) if end < 0 else end + 1
        parts.append(parse_envelope_bytes_raw(raw[start:end]))
        start = end
    return pa.concat_tables(parts)
