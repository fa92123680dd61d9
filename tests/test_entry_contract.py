"""Driver-contract guard: every queries() entry matches its oracle_sql() on
sf0.001 (row count + column names + order-insensitive values), and entry()
runs the flagship streaming pipeline."""

import ast
import glob
import os
import re
import sys
from collections import Counter

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

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
    query deleted without its oracle (or vice versa) fails here. Every
    top-level ``q_*`` function of the two query modules is on one of the
    lists, so a query reachable only from tests fails too. Ray-free."""
    from dstream_ray.pipelines.oracles import ORACLE_SQL
    from tools.parity_check import LIBRARY_QUERIES, library_query

    qs = _entry_module().queries()
    assert len(set(LIBRARY_QUERIES) | set(qs)) == len(LIBRARY_QUERIES) + len(qs)
    assert set(ORACLE_SQL) == {n for n in qs if n in ORACLE_SQL} | set(LIBRARY_QUERIES)
    assert all(callable(library_query(n)) for n in LIBRARY_QUERIES)
    pipelines = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "dstream_ray", "pipelines")
    defined = set()
    for mod in ("dataops", "queries"):
        with open(os.path.join(pipelines, f"{mod}.py"), encoding="utf-8") as f:
            defined |= {n.name for n in ast.parse(f.read()).body
                        if isinstance(n, ast.FunctionDef) and n.name.startswith("q_")}
    listed = {f.__name__ for f in qs.values()} | {f"q_{n}" for n in LIBRARY_QUERIES}
    assert defined <= listed, f"q_* functions on neither list: {sorted(defined - listed)}"


def _top_level_names(tree: ast.Module):
    """(name, first line, last line) of every top-level def, class and
    plain-name assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node.lineno, node.end_lineno


def test_no_orphan_definitions():
    """Every top-level definition in dstream_ray/ is used: its name occurs
    as a whole word somewhere other than its own definition, counting the
    package, tools/, tests/, perfbench/, bench.py and __ray_entry__.py.
    ``q_<name>`` counts as used when ``<name>`` is in LIBRARY_QUERIES, which
    ``library_query`` resolves by string. Ray-free."""
    from tools.parity_check import LIBRARY_QUERIES

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = [
        p
        for d in ("dstream_ray", "tools", "tests", "perfbench")
        for p in glob.glob(os.path.join(repo, d, "**", "*.py"), recursive=True)
    ] + [os.path.join(repo, "bench.py"), os.path.join(repo, "__ray_entry__.py")]
    words = Counter()
    lines = {}
    for p in files:
        with open(p, encoding="utf-8") as f:
            lines[p] = f.read().splitlines()
        words.update(re.findall(r"\w+", "\n".join(lines[p])))
    by_string = {f"q_{n}" for n in LIBRARY_QUERIES}
    orphans = []
    for p in files:
        if not p.startswith(os.path.join(repo, "dstream_ray", "")):
            continue
        for name, lo, hi in _top_level_names(ast.parse("\n".join(lines[p]))):
            if name.startswith("__") and name.endswith("__") or name in by_string:
                continue
            own = re.findall(rf"\b{name}\b", "\n".join(lines[p][lo - 1 : hi]))
            if words[name] == len(own):
                orphans.append(f"{os.path.relpath(p, repo)}:{lo} {name}")
    assert not orphans, f"defined but never used: {orphans}"
