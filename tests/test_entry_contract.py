"""Driver-contract guard: every queries() entry matches its oracle_sql() on
sf0.001 (row count + column names + order-insensitive values), and entry()
runs the flagship streaming pipeline."""

import os
import sys

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, "/root/repo")

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]").astype(str)
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@pytest.fixture(scope="module")
def con(sf_tiny):
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_tiny}/{t}.parquet')")
    return c


def _entry_module():
    import __ray_entry__

    return __ray_entry__


def test_queries_match_oracles(ray_session, sf_tiny, con):
    e = _entry_module()
    qs, sqls = e.queries(), e.oracle_sql()
    missing_oracles = [k for k in sqls if k not in qs]
    assert not missing_oracles, f"oracle without query: {missing_oracles}"
    for name, fn in qs.items():
        got = fn(sf_tiny)
        got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
        if name not in sqls:
            assert len(got) >= 0
            continue
        exp = con.execute(sqls[name]).fetch_arrow_table().to_pandas()
        assert sorted(got.columns) == sorted(exp.columns), name
        g, x = normalize(got), normalize(exp)
        pd.testing.assert_frame_equal(g, x, check_dtype=False, obj=name)


def test_entry_smoke(ray_session):
    e = _entry_module()
    out = e.entry()
    out = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    assert len(out) >= 0
    assert "conv_id" in out.columns


def test_oracles_and_queries_are_one_to_one():
    """ORACLE_SQL holds exactly the oracle-backed queries() entries plus the
    parity tool's library-only queries, and no name is in both lists: a
    query deleted without its oracle (or vice versa) fails here. Ray-free."""
    from dstream_ray.pipelines.oracles import ORACLE_SQL
    from tools.parity_check import LIBRARY_QUERIES, library_query

    qs = _entry_module().queries()
    assert len(set(LIBRARY_QUERIES) | set(qs)) == len(LIBRARY_QUERIES) + len(qs)
    assert set(ORACLE_SQL) == {n for n in qs if n in ORACLE_SQL} | set(LIBRARY_QUERIES)
    assert all(callable(library_query(n)) for n in LIBRARY_QUERIES)
