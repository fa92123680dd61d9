"""Off-the-tuned-point evidence for the DOCUMENT pipelines (the BASELINE
10x headline covers the streaming engine): replicate sf0.1's documents
table Rx with unique per-copy doc_ids and a copy-index token spliced into
each text (so exact-dup groups scale Rx without cross-copy degeneracy),
then time a representative query set at 1x and Rx in the same session.
Linear shapes (map-only, bounded-groupby, pair-proportional) should show
wall ~ Rx within host noise.

    python tools/scale_docs_probe.py [R] [sf_dir]

Writes the replicated table to /dev/shm and prints one JSON line.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time


def build_replica(sf_dir: str, out_dir: str, r: int) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    n = t.num_rows
    parts = []
    for k in range(r):
        ids = pc.add(t["doc_id"], pa.scalar(k * n, type=pa.int64()))
        # splice the copy token AFTER the first token: lengths stay
        # comparable, cross-copy shingles diverge, within-copy dup
        # structure is preserved exactly
        text = pc.binary_join_element_wise(
            pa.scalar(f"c{k}"), t["text"], " ") if k else t["text"]
        parts.append(pa.table({
            "doc_id": ids,
            "text": text,
            "lang": t["lang"],
            "source": t["source"],
            "n_chars": pc.utf8_length(text).cast(pa.int64()),
        }))
    big = pa.concat_tables(parts)
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(big, os.path.join(out_dir, "documents.parquet"),
                   row_group_size=max(4096, n // 4))
    # embeddings ride along unreplicated (none of the probed queries use
    # them, but _read paths expect the table to exist for some imports)
    shutil.copy(os.path.join(sf_dir, "embeddings.parquet"),
                os.path.join(out_dir, "embeddings.parquet"))


def main() -> None:
    r = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.1"
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from dstream_ray.pipelines import dataops as d

    big_dir = f"/dev/shm/dstream_scale_{r}x"
    build_replica(sf_dir, big_dir, r)

    import pandas as pd

    def _n(res) -> int:
        return len(res) if isinstance(res, pd.DataFrame) else res.count()

    probes = {
        "doc_stats": lambda sf: _n(d.q_doc_stats(sf)),  # map-only
        "mixture_sample": lambda sf: _n(d.q_mixture_sample(sf)),  # bounded groupby
        "dedup_exact": lambda sf: _n(d.q_dedup_exact(sf)),  # hash groupby
        "curation_v2": lambda sf: _n(d.q_curation_v2(sf)),  # full composition
        "substring_dedup": lambda sf: _n(d.q_substring_dedup(sf)),  # shingle groupby
    }
    out = {"replication": r, "base_rows": None, "queries": {}}
    import pyarrow.parquet as pq

    out["base_rows"] = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    for name, fn in probes.items():
        t0 = time.time(); n1 = fn(sf_dir); t1 = time.time()
        t2 = time.time(); nr = fn(big_dir); t3 = time.time()
        base_s, big_s = t1 - t0, t3 - t2
        out["queries"][name] = {
            "base_s": round(base_s, 3), f"{r}x_s": round(big_s, 3),
            "wall_ratio": round(big_s / base_s, 2) if base_s > 0 else None,
            "base_out_rows": int(n1), f"{r}x_out_rows": int(nr),
        }
    shutil.rmtree(big_dir, ignore_errors=True)
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
