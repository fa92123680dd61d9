"""Local replica of the driver's correctness gate: run every queries() entry
and its oracle_sql() side by side on an sf dir, compare row count, column
names, and an order-insensitive value hash (columns sorted by name, rows
sorted, values stringified). Usage:

    python tools/parity_check.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Oracle-checked queries outside the driver's queries() surface: each is
# ``q_<name>`` in pipelines/queries.py and has an ORACLE_SQL entry.
# ORACLE_SQL holds exactly these plus the queries() entries (pinned by
# tests/test_entry_contract.py).
LIBRARY_QUERIES = (
    # batch-surface queries whose engine twins are gated
    "transcripts_feed",
    "streaming_tumbling",
    "streaming_session",
    # engine operators checked through their own committed sinks
    "streaming_interval_join",
    "streaming_distinct",
    "streaming_quantile",
    "streaming_upsert",
    "streaming_global",
    "streaming_topk",
    "streaming_absence",
    "streaming_sliding_global",
    "streaming_scrub",
    "streaming_anomaly",
    "streaming_events_compacted",
    "streaming_tumbling_compacted",
    "streaming_events_follower",
)


def library_query(name: str):
    """The ``q_<name>`` function of a LIBRARY_QUERIES entry."""
    from dstream_ray.pipelines import queries

    return getattr(queries, f"q_{name}")


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        col = df[c]
        if str(col.dtype).startswith("datetime"):
            df[c] = col.astype("datetime64[us]").astype(str)
        elif col.dtype == object:
            df[c] = col.astype(str)
        elif str(col.dtype).startswith("float"):
            df[c] = col.round(6)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    h = hashlib.sha256()
    h.update(pd.util.hash_pandas_object(normalize(df), index=False).values.tobytes())
    return h.hexdigest()[:16]


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    sys.path.insert(0, REPO)
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry

    from dstream_ray.pipelines.oracles import ORACLE_SQL, assert_oracle_ascii_contract

    assert_oracle_ascii_contract(sf_dir)  # byte-level oracles are ASCII-only
    qs, sqls = entry.queries(), entry.oracle_sql()
    for name in LIBRARY_QUERIES:
        qs[name] = library_query(name)
        sqls[name] = ORACLE_SQL[name]
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        got = to_pandas(fn(sf_dir))
        t1 = time.time()
        if name not in sqls:
            print(f"  {name:24s} rows={len(got):8d}  (rows-only, no oracle)  {t1-t0:5.1f}s")
            continue
        exp = con.execute(sqls[name]).fetch_arrow_table().to_pandas()
        ok_rows = len(got) == len(exp)
        ok_cols = sorted(got.columns) == sorted(exp.columns)
        ok_hash = ok_rows and ok_cols and value_hash(got) == value_hash(exp)
        status = "OK  " if (ok_rows and ok_cols and ok_hash) else "FAIL"
        print(
            f"  {name:24s} {status} rows={len(got):8d}/{len(exp):<8d} "
            f"cols={'=' if ok_cols else 'DIFF'} hash={'=' if ok_hash else 'DIFF'}  {t1-t0:5.1f}s"
        )
        if status == "FAIL":
            failures += 1
            if not ok_cols:
                print(f"    ray : {sorted(got.columns)}")
                print(f"    sql : {sorted(exp.columns)}")
            elif not ok_hash:
                g, e = normalize(got), normalize(exp)
                neq = (g != e).any(axis=1) if len(g) == len(e) else None
                print(g.head(3).to_string())
                print(e.head(3).to_string())
                if neq is not None and neq.any():
                    i = neq.idxmax()
                    print("    first diff row:", i)
                    print("    ray:", g.loc[i].to_dict())
                    print("    sql:", e.loc[i].to_dict())
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
