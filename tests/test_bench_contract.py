"""Driver-contract guard for bench.py: one JSON line with the required keys,
runnable at tiny scale in a fresh process (the way the driver invokes it)."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_emits_contract_json():
    env = dict(
        os.environ,
        GRAFT_SF_DIR="/root/testdata/sf0.001",
        RAY_GRAFT_CPUS="4",
        RAY_GRAFT_BENCH_REPL="2",
        RAY_GRAFT_BENCH_SHARDS="4",
        RAY_GRAFT_BENCH_PARTITIONS="4",
        PYTHONPATH=REPO,
    )
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "bench.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=420,
        cwd=REPO,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    line = out.stdout.strip().splitlines()[-1]
    d = json.loads(line)
    for key in ("metric", "value", "unit", "queries", "sf", "num_cpus"):
        assert key in d, key
    assert d["unit"] == "sec" and d["value"] > 0
    assert d["sf"] == "sf0.001" and d["num_cpus"] == 4
    assert len(d["queries"]) >= 30  # every queries() entry timed
    assert d["rows"] == 2000  # 1000 events x REPL=2
