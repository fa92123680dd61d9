"""Counter demo source — the analog of dstream's test/demo input provider
(/root/reference/readme.md:16-51: emits ``{"value": N, "timestamp": ...}``
every ``interval`` ms up to ``maxCount``), restated as a Dataset generator:
``ray.data.range`` stamped with deterministic timestamps. Used for smoke
tests and as the minimal Source-protocol example.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from dstream_ray import register_pickle_by_value

register_pickle_by_value()


def counter_source(
    max_count: int = 100,
    interval_ms: int = 1000,
    start_us: int = 1_700_000_000_000_000,
) -> rd.Dataset:
    ds = rd.range(max_count)

    def stamp(batch: pa.Table) -> pa.Table:
        v = batch["id"].to_numpy(zero_copy_only=False)
        ts = start_us + v * interval_ms * 1000
        return pa.table(
            {
                "value": pa.array(v.astype(np.int64)),
                "timestamp": pa.array(ts).cast(pa.timestamp("us")),
            }
        )

    return ds.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True)


def counter_as_transcripts(max_count: int = 100, interval_ms: int = 1000) -> pa.Table:
    """Counter stream shaped as a single-conversation transcript feed — lets
    the demo source drive the full streaming engine."""
    ds = counter_source(max_count, interval_ms)
    t = ds.to_arrow_refs()
    import ray

    tbl = pa.concat_tables([ray.get(r) for r in t])
    n = tbl.num_rows
    v = tbl["value"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "conv_id": pa.array(["counter"] * n),
            "turn_idx": pa.array(v.astype(np.int32)),
            "role": pa.array(np.array(["user", "assistant", "tool"], dtype=object)[v % 3]),
            "text": pa.array([f'{{"value": {int(x)}}}' for x in v]),
            "tool": pa.array(np.where(v % 3 == 2, "counter_tool", "").astype(object), type=pa.string()),
            "ts": tbl["timestamp"],
        }
    )
