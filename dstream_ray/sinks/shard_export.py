"""Resumable sharded corpus export — the batch-side sibling of the
exactly-once streaming sink.

A 100 TB curation run must be able to die and resume without rewriting
finished output (the reference's checkpoint/cursor contract,
``internal/cdc/checkpoint.go``, applied to batch exports). The unit of
resume is a SHARD: ``shard = fnv1a(str(doc_id)) % n_shards`` (the
deterministic partitioner the whole engine uses), written as its own
hive-style directory ``shard=K/`` and committed by an atomic per-shard
``_SUCCESS`` marker written only after the shard's rows are all on disk.

Resume contract (idempotent per shard):

- a shard directory WITH ``_SUCCESS``  -> skipped entirely (its rows are
  filtered out of the write pass, so no read amplification either);
- a shard directory WITHOUT ``_SUCCESS`` (crash mid-write) -> wiped and
  rewritten from scratch;
- output equality: resuming after any interruption yields byte-identical
  shard contents to an uninterrupted run (rows are routed by hash, never
  by arrival order — pytest-pinned).

One streaming pass writes ALL missing shards (``partition_cols`` routing
inside ``write_parquet`` — never one Dataset execution per shard), so the
cost of a resume is proportional to the MISSING data only.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from dstream_ray import register_pickle_by_value
from dstream_ray.common import fnv1a_u64

register_pickle_by_value()

SUCCESS = "_SUCCESS"


def _shard_dir(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, f"shard={shard}")


def completed_shards(out_dir: str, n_shards: int) -> set[int]:
    """Shards whose _SUCCESS marker exists (committed, skip on resume)."""
    return {
        k for k in range(n_shards)
        if os.path.exists(os.path.join(_shard_dir(out_dir, k), SUCCESS))
    }


def export_shards(
    ds: rd.Dataset,
    out_dir: str,
    *,
    key_col: str = "doc_id",
    n_shards: int = 8,
) -> dict:
    """Write ``ds`` as ``n_shards`` hash-routed parquet shard directories,
    resumable per shard. Returns ``{"written": [...], "skipped": [...]}``.

    The key column is stringified and FNV-hashed (``common.fnv1a_u64`` —
    deterministic across processes and nodes, unlike Python ``hash``), so
    any later run — resumed, rescaled, or on different workers — routes
    every row to the same shard."""
    os.makedirs(out_dir, exist_ok=True)
    done = completed_shards(out_dir, n_shards)
    missing = [k for k in range(n_shards) if k not in done]
    if not missing:
        return {"written": [], "skipped": sorted(done)}
    for k in missing:  # wipe partial (uncommitted) shard dirs
        shutil.rmtree(_shard_dir(out_dir, k), ignore_errors=True)

    missing_arr = np.asarray(missing, dtype=np.int64)

    def route(b: pa.Table) -> pa.Table:
        keys = pc.cast(b[key_col], pa.string())
        shard = (fnv1a_u64(keys) % np.uint64(n_shards)).astype(np.int64)
        keep = np.isin(shard, missing_arr)
        return b.append_column("shard", pa.array(shard)).filter(pa.array(keep))

    (ds.map_batches(route, batch_format="pyarrow")
       .write_parquet(out_dir, partition_cols=["shard"]))
    for k in missing:
        os.makedirs(_shard_dir(out_dir, k), exist_ok=True)  # empty shard ok
        with open(os.path.join(_shard_dir(out_dir, k), SUCCESS), "w") as f:
            f.write("")
    return {"written": missing, "skipped": sorted(done)}


def read_shards(out_dir: str) -> rd.Dataset:
    """Read back every COMMITTED shard (directories with _SUCCESS)."""
    import glob

    dirs = sorted(
        d for d in glob.glob(os.path.join(out_dir, "shard=*"))
        if os.path.exists(os.path.join(d, SUCCESS))
    )
    files = [f for d in dirs for f in sorted(glob.glob(os.path.join(d, "*.parquet")))]
    return rd.read_parquet(files)
